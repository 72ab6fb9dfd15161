//! Re-import an exported trace as an event stream.
//!
//! The race checker (`ditto-audit`) consumes a [`TraceData`] event
//! stream. In-process callers hand it a live [`crate::Recorder`] finish;
//! offline callers only have a `--trace-out` artifact — Chrome JSON.
//! [`events_from_chrome`] parses it back into [`TraceData`] *events*
//! (spans, counters and metrics are not round-tripped: the hb analysis
//! only reads instant events).
//!
//! [`EventRecord`] keys its name and attribute keys as `&'static str`,
//! so the importer interns against the stack's known event vocabulary
//! and skips (but counts) anything it does not recognize — a foreign or
//! future-version trace degrades to a partial import instead of an
//! error, and [`ImportStats`] says exactly how partial.

use crate::span::{AttrValue, EventRecord, TraceData, Track};
use serde_json::Value;

/// What an import managed to recover.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Instant events successfully re-imported.
    pub events: usize,
    /// Events dropped because their name is not in the known vocabulary
    /// (or the record was structurally unusable).
    pub skipped_events: usize,
    /// Attributes dropped off otherwise-imported events (unknown key or
    /// non-scalar value).
    pub skipped_attrs: usize,
}

/// The stack's instant-event vocabulary. Importing interns against this
/// list because [`EventRecord::name`] is `&'static str`.
const KNOWN_EVENTS: &[&str] = &[
    "hb.write",
    "hb.read",
    "hb.slot_acquire",
    "hb.slot_release",
    "hb.seam",
    "hb.object_commit",
    "hb.object_fetch",
    "fault.object_lost",
    "fault.object_corrupt",
    "fault.crashed",
    "fault.server_lost",
    "fault.superseded",
    "recovery.lineage_reexec",
    "sched.replan",
    "sched.failover",
    "sched.merge",
    "drift.detected",
    "predictor.sample",
    "recovery.resume",
];

/// Known attribute keys, for the same interning reason.
const KNOWN_KEYS: &[&str] = &[
    "stage",
    "task",
    "server",
    "attempt",
    "edge",
    "src_stage",
    "dst_stage",
    "pipelined",
    "medium",
    "kind",
    "key",
    "write_start",
    "compute_start",
    "reader_stage",
    "reexec_s",
    "trigger",
    "at_stage",
    "at_time",
    "factor",
    "samples",
    "suffix_stages",
    "old_predicted_jct",
    "new_predicted_jct",
    "applied",
    "risk_penalty",
    "audit_clean",
    "failed_server",
    "decision_seq",
    "resumed_stages",
    "replayed_commits",
    "replayed_replans",
    "torn",
    "torn_at",
];

fn intern(name: &str, table: &[&'static str]) -> Option<&'static str> {
    table.iter().copied().find(|&k| k == name)
}

fn attr_value(v: &Value) -> Option<AttrValue> {
    if let Some(u) = v.as_u64() {
        return Some(AttrValue::U64(u));
    }
    if let Some(f) = v.as_f64() {
        return Some(AttrValue::F64(f));
    }
    v.as_str().map(|s| AttrValue::Text(s.to_string()))
}

fn import_attrs(args: Option<&Value>, stats: &mut ImportStats) -> Vec<(&'static str, AttrValue)> {
    let mut attrs = Vec::new();
    let Some(obj) = args.and_then(Value::as_object) else {
        return attrs;
    };
    for (k, v) in obj.iter() {
        match (intern(k, KNOWN_KEYS), attr_value(v)) {
            (Some(key), Some(val)) => attrs.push((key, val)),
            _ => stats.skipped_attrs += 1,
        }
    }
    attrs
}

/// Re-import the instant events of a Chrome `trace_event` export
/// (`ph == "i"`; timestamps are integral microseconds and come back as
/// seconds). Returns the partial [`TraceData`] plus what was dropped.
pub fn events_from_chrome(json: &str) -> Result<(TraceData, ImportStats), String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("root must be an object with a `traceEvents` array")?;
    let mut data = TraceData::default();
    let mut stats = ImportStats::default();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("i") {
            continue;
        }
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        let Some(name) = intern(name, KNOWN_EVENTS) else {
            stats.skipped_events += 1;
            continue;
        };
        let ts = ev.get("ts").and_then(Value::as_u64).unwrap_or(0) as f64 / 1e6;
        let group = ev.get("pid").and_then(Value::as_u64).unwrap_or(0) as u32;
        let lane = ev.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32;
        let attrs = import_attrs(ev.get("args"), &mut stats);
        data.events.push(EventRecord {
            name,
            track: Track { group, lane },
            ts,
            wall: 0.0,
            attrs,
        });
        stats.events += 1;
    }
    Ok((data, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::to_chrome_trace;
    use crate::span::Recorder;

    fn sample_trace() -> TraceData {
        let rec = Recorder::new();
        rec.event(
            "hb.write",
            Track::server(1, 7),
            2.5,
            vec![
                ("stage", 3u32.into()),
                ("task", 4u32.into()),
                ("server", 1u32.into()),
                ("write_start", 2.25f64.into()),
            ],
        );
        rec.event(
            "hb.seam",
            Track::scheduler(0),
            3.0,
            vec![
                ("edge", 2u32.into()),
                ("src_stage", 1u32.into()),
                ("dst_stage", 4u32.into()),
            ],
        );
        rec.span("task", Track::server(1, 7), 0.0, 2.5, vec![]);
        rec.finish()
    }

    #[test]
    fn chrome_round_trips_events_to_microsecond_precision() {
        let orig = sample_trace();
        let (back, stats) = events_from_chrome(&to_chrome_trace(&orig)).unwrap();
        assert_eq!(stats.events, 2);
        assert_eq!(back.events.len(), 2);
        for (a, b) in orig.events.iter().zip(back.events.iter()) {
            assert_eq!(a.name, b.name);
            assert!((a.ts - b.ts).abs() < 1e-6 + 1e-12, "{} vs {}", a.ts, b.ts);
        }
    }

    #[test]
    fn unknown_events_and_attrs_are_counted_not_fatal() {
        let text = concat!(
            r#"{"traceEvents":["#,
            r#"{"ph":"i","name":"totally.unknown","pid":0,"tid":0,"ts":1,"args":{}},"#,
            r#"{"ph":"i","name":"hb.seam","pid":0,"tid":0,"ts":1,"#,
            r#""args":{"edge":1,"src_stage":0,"dst_stage":2,"mystery":9}},"#,
            r#"{"ph":"X","name":"task","pid":0,"tid":0,"ts":0,"dur":1}"#,
            r#"]}"#,
        );
        let (data, stats) = events_from_chrome(text).unwrap();
        assert_eq!(data.events.len(), 1);
        assert_eq!(stats.skipped_events, 1);
        assert_eq!(stats.skipped_attrs, 1);
        // Anything but one object with a `traceEvents` array is refused.
        assert!(events_from_chrome("not json\n").is_err());
        assert!(events_from_chrome(r#"{"kind":"event","name":"hb.seam"}"#).is_err());
    }
}
