//! Pure-Rust structural validator for exported Chrome traces.
//!
//! CI runs a fixed-seed traced simulation and validates the emitted
//! JSON against the `trace_event` shape without any external schema
//! engine or network access: required keys, phase-specific fields,
//! type checks, and non-negative timestamps. Returns summary
//! [`ChromeTraceStats`] so tests can assert on content (e.g. "the trace
//! contains scheduler merge events and per-attempt task spans").
//!
//! Beyond the generic `trace_event` shape, the validator knows the
//! stack's own event vocabulary: instant events named below must carry
//! their required `args` keys, so a refactor that drops (say) the
//! `risk_penalty` attribute off `sched.replan` fails CI instead of
//! silently degrading the diff/scorecard toolchain downstream.

use serde_json::Value;
use std::collections::BTreeMap;

/// Summary of a validated Chrome trace.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"X"` duration events.
    pub durations: usize,
    /// `"i"` instant events.
    pub(crate) instants: usize,
    /// `"C"` counter events.
    pub counters: usize,
    /// `"M"` metadata events.
    pub(crate) metadata: usize,
    /// Latest `ts + dur` seen, microseconds.
    pub(crate) max_ts_us: u64,
    /// Event count per name.
    pub names: BTreeMap<String, usize>,
    /// Distinct `pid` (track group) values.
    pub pids: Vec<u64>,
}

impl ChromeTraceStats {
    /// Number of events with this exact name.
    pub fn count(&self, name: &str) -> usize {
        self.names.get(name).copied().unwrap_or(0)
    }

    /// Number of events whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.names
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, c)| c)
            .sum()
    }
}

/// Required `args` keys per known instant-event kind. Events not listed
/// here are only held to the generic `trace_event` shape.
fn required_args(name: &str) -> Option<&'static [&'static str]> {
    match name {
        "sched.replan" => Some(&[
            "trigger",
            "at_stage",
            "factor",
            "suffix_stages",
            "old_predicted_jct",
            "new_predicted_jct",
            "applied",
            "risk_penalty",
            "audit_clean",
            "decision_seq",
        ]),
        "sched.failover" => Some(&["failed_server", "at_time", "suffix_stages", "decision_seq"]),
        "recovery.resume" => Some(&["resumed_stages", "replayed_commits", "torn"]),
        "fault.object_lost" | "fault.object_corrupt" => Some(&["stage", "task", "reader_stage"]),
        "recovery.lineage_reexec" => Some(&["stage", "task", "reexec_s"]),
        "drift.detected" => Some(&["stage", "factor", "samples"]),
        "hb.write" => Some(&["stage", "task", "server", "write_start"]),
        "hb.read" => Some(&[
            "stage",
            "task",
            "server",
            "edge",
            "src_stage",
            "pipelined",
            "medium",
            "compute_start",
        ]),
        "hb.slot_acquire" | "hb.slot_release" => Some(&["stage", "task", "server", "kind"]),
        "hb.seam" => Some(&["edge", "src_stage", "dst_stage"]),
        "hb.object_commit" | "hb.object_fetch" => Some(&["key"]),
        "predictor.sample" => Some(&[
            "stage",
            "pred_setup",
            "pred_read",
            "pred_compute",
            "pred_write",
            "obs_setup",
            "obs_read",
            "obs_compute",
            "obs_write",
        ]),
        _ => None,
    }
}

fn require_u64(ev: &Value, key: &str, idx: usize) -> Result<u64, String> {
    ev.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("event {idx}: `{key}` missing or not a non-negative integer"))
}

fn require_str<'a>(ev: &'a Value, key: &str, idx: usize) -> Result<&'a str, String> {
    ev.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("event {idx}: `{key}` missing or not a string"))
}

/// Validate Chrome `trace_event` JSON text. Returns stats on success and
/// a description of the first violation otherwise.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("root must be an object with a `traceEvents` array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".to_string());
    }

    let mut stats = ChromeTraceStats::default();
    for (idx, ev) in events.iter().enumerate() {
        if ev.as_object().is_none() {
            return Err(format!("event {idx}: not an object"));
        }
        let name = require_str(ev, "name", idx)?;
        let ph = require_str(ev, "ph", idx)?;
        let ts = require_u64(ev, "ts", idx)?;
        let pid = require_u64(ev, "pid", idx)?;
        require_u64(ev, "tid", idx)?;
        if let Some(args) = ev.get("args") {
            if args.as_object().is_none() {
                return Err(format!("event {idx}: `args` is not an object"));
            }
        }
        let mut end = ts;
        match ph {
            "X" => {
                let dur = require_u64(ev, "dur", idx)?;
                end = ts.saturating_add(dur);
                stats.durations += 1;
            }
            "i" => {
                require_str(ev, "s", idx)?;
                if let Some(keys) = required_args(name) {
                    let args = ev
                        .get("args")
                        .and_then(Value::as_object)
                        .ok_or_else(|| format!("event {idx}: `{name}` without `args`"))?;
                    for key in keys {
                        if args.get(key).is_none() {
                            return Err(format!(
                                "event {idx}: `{name}` missing required arg `{key}`"
                            ));
                        }
                    }
                }
                stats.instants += 1;
            }
            "C" => {
                let args = ev
                    .get("args")
                    .and_then(Value::as_object)
                    .ok_or_else(|| format!("event {idx}: counter without `args`"))?;
                if args.is_empty() {
                    return Err(format!("event {idx}: counter with empty `args`"));
                }
                for (k, v) in args.iter() {
                    if v.as_f64().is_none() {
                        return Err(format!("event {idx}: counter series `{k}` not numeric"));
                    }
                }
                stats.counters += 1;
            }
            "M" => {
                if name != "process_name" && name != "thread_name" {
                    return Err(format!("event {idx}: unknown metadata record `{name}`"));
                }
                stats.metadata += 1;
            }
            other => return Err(format!("event {idx}: unsupported phase `{other}`")),
        }
        stats.events += 1;
        stats.max_ts_us = stats.max_ts_us.max(end);
        *stats.names.entry(name.to_string()).or_insert(0) += 1;
        if !stats.pids.contains(&pid) {
            stats.pids.push(pid);
        }
    }
    stats.pids.sort_unstable();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::to_chrome_trace;
    use crate::span::{Recorder, Track};

    #[test]
    fn accepts_exporter_output() {
        let rec = Recorder::new();
        rec.name_track(Track::SERVER_BASE, "server 0");
        rec.span(
            "task",
            Track::server(0, 0),
            0.0,
            2.0,
            vec![
                ("stage", 0u32.into()),
                ("read_start", 0.5f64.into()),
                ("compute_start", 1.0f64.into()),
                ("write_start", 1.5f64.into()),
            ],
        );
        rec.event("fault.crashed", Track::server(0, 0), 1.0, vec![]);
        rec.counter_add("storage.bytes", "s3", 42.0, 0.5);
        let stats = validate_chrome_trace(&to_chrome_trace(&rec.finish())).unwrap();
        assert_eq!(stats.metadata, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.durations, 5); // task + 4 steps
        assert_eq!(stats.count("task"), 1);
        assert_eq!(stats.count_prefix("fault."), 1);
        assert_eq!(stats.max_ts_us, 2_000_000);
        assert!(stats.pids.contains(&(Track::SERVER_BASE as u64)));
    }

    #[test]
    fn rejects_structural_violations() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[]}"#).is_err());
        // missing dur on an X event
        let bad = r#"{"traceEvents":[{"name":"t","ph":"X","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
        // negative ts
        let bad = r#"{"traceEvents":[{"name":"t","ph":"i","s":"t","ts":-1,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // unknown phase
        let bad = r#"{"traceEvents":[{"name":"t","ph":"Q","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("phase"));
        // counter without args
        let bad = r#"{"traceEvents":[{"name":"c","ph":"C","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn known_event_kinds_require_their_args() {
        // drift.detected without its attrs is rejected...
        let bad = r#"{"traceEvents":[{"name":"drift.detected","ph":"i","s":"t","ts":0,"pid":0,"tid":0,"args":{"stage":1}}]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("factor"), "{err}");
        // ...and accepted when complete.
        let good = r#"{"traceEvents":[{"name":"drift.detected","ph":"i","s":"t","ts":0,"pid":0,"tid":0,"args":{"stage":1,"factor":1.7,"samples":3}}]}"#;
        let stats = validate_chrome_trace(good).unwrap();
        assert_eq!(stats.count("drift.detected"), 1);
        // sched.replan must carry the full decision record.
        let bad = r#"{"traceEvents":[{"name":"sched.replan","ph":"i","s":"t","ts":0,"pid":0,"tid":0,"args":{"trigger":"drift","at_stage":2}}]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("sched.replan"), "{err}");
        // lineage recovery without args at all is rejected.
        let bad = r#"{"traceEvents":[{"name":"recovery.lineage_reexec","ph":"i","s":"t","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("args"));
        // unlisted event kinds stay unconstrained.
        let good = r#"{"traceEvents":[{"name":"fault.crashed","ph":"i","s":"t","ts":0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(good).is_ok());
    }
}
