//! `ditto-audit` — schedule a JSON job spec and certify the result.
//!
//! ```sh
//! ditto-audit job.json                    # schedule + audit, human report
//! cat job.json | ditto-audit              # spec on stdin
//! ditto-audit --json job.json             # machine-readable report
//! ditto-audit --deadline 120 job.json     # also check a JCT deadline
//! ditto-audit --cost-budget 5e6 job.json  # also check a GB·s budget
//! ditto-audit race trace.json             # race-check a trace artifact
//! ditto-audit race --json --capacities 12,10 trace.json
//! ditto-audit journal run.wal             # certify a crash-recovery journal
//! ditto-audit journal --trace trace.json run.wal   # + cross-check vs trace
//! ```
//!
//! Runs the full certificate chain of `ditto_audit` on the schedule the
//! joint optimizer produces for the spec: structural sanity, stage-group
//! well-formedness, placement feasibility, colocation claims, DoP-ratio
//! optimality (Eqs. 3–4) and, with the flags above, objective adherence.
//! Exits 0 iff the schedule is certified (no error-severity findings),
//! 1 on audit errors, 2 on a malformed spec or bad flags.
//!
//! The `race` subcommand instead re-imports a recorded `--trace-out`
//! artifact (Chrome `traceEvents` JSON), rebuilds the happens-before
//! graph from its `hb.*` events, and reports ordering violations — same
//! exit-code contract.
//!
//! The `journal` subcommand decodes a control-plane write-ahead journal
//! (`DITTOWAL`), reports its record census and any torn tail with exact
//! record-index provenance, runs the structural invariants
//! (single admission, exactly-once commits, monotonic decision sequence),
//! and with `--trace` cross-checks journaled commits and decisions
//! against a recorded trace artifact. Exits 0 iff the journal certifies
//! clean, 1 on findings, 2 on undecodable input.

use ditto::jobspec::JobSpec;
use ditto_audit::{AuditOptions, AuditReport, RaceOptions, RaceReport};
use serde_json::{Map, Number, Value};
use std::io::Read as _;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("race") {
        args.remove(0);
        race_main(args);
    }
    if args.first().map(String::as_str) == Some("journal") {
        args.remove(0);
        journal_main(args);
    }
    let json = take_flag(&mut args, "--json");
    let deadline = take_value(&mut args, "--deadline");
    let cost_budget = take_value(&mut args, "--cost-budget");

    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: ditto-audit [--json] [--deadline SECS] [--cost-budget GBS] <job.json>"
        );
        std::process::exit(2);
    }
    let text = match args.first().map(|s| s.as_str()) {
        Some(path) if path != "-" => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ditto-audit: cannot read {path:?}: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("ditto-audit: failed to read stdin");
                std::process::exit(2);
            }
            buf
        }
    };

    let spec = match JobSpec::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ditto-audit: {e}");
            std::process::exit(2);
        }
    };
    let (dag, model, rm, objective) = match spec.lower() {
        Ok(parts) => parts,
        Err(e) => {
            eprintln!("ditto-audit: {e}");
            std::process::exit(2);
        }
    };
    let schedule = ditto_core::joint_optimize(
        &dag,
        &model,
        &rm,
        objective,
        &ditto_core::JointOptions::default(),
    );
    let opts = AuditOptions {
        deadline,
        cost_budget,
    };
    let report = ditto_audit::audit_with(&dag, &model, &rm, &schedule, &opts);
    if json {
        println!("{}", audit_json(&report));
    } else {
        print!("{}", report.render());
    }
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// `ditto-audit race [--json] [--capacities N,N,..] [--eps SECS] <trace>`
/// — never returns.
fn race_main(mut args: Vec<String>) -> ! {
    let json = take_flag(&mut args, "--json");
    let capacities = take_raw(&mut args, "--capacities").map(|raw| {
        raw.split(',')
            .map(|s| match s.trim().parse::<u32>() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("ditto-audit race: bad --capacities entry {s:?}");
                    std::process::exit(2);
                }
            })
            .collect::<Vec<u32>>()
    });
    let eps = take_value(&mut args, "--eps");
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: ditto-audit race [--json] [--capacities N,N,..] [--eps SECS] <trace.json>"
        );
        std::process::exit(2);
    }
    let text = match args.first().map(|s| s.as_str()) {
        Some(path) if path != "-" => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ditto-audit race: cannot read {path:?}: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            let mut buf = String::new();
            if std::io::stdin().read_to_string(&mut buf).is_err() {
                eprintln!("ditto-audit race: failed to read stdin");
                std::process::exit(2);
            }
            buf
        }
    };
    let (trace, stats) = import_trace("race", &text);
    let mut opts = RaceOptions {
        capacities,
        ..Default::default()
    };
    if let Some(e) = eps {
        opts.eps = e;
    }
    let report = ditto_audit::check_trace(&trace, &opts);
    if json {
        println!("{}", race_json(&report));
    } else {
        if stats.skipped_events > 0 || stats.skipped_attrs > 0 {
            eprintln!(
                "ditto-audit race: skipped {} unknown events, {} unknown attrs on import",
                stats.skipped_events, stats.skipped_attrs
            );
        }
        print!("{}", report.render());
    }
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// Re-import a `--trace-out` artifact, or exit 2 naming the one format
/// accepted.
fn import_trace(cmd: &str, text: &str) -> (ditto_obs::TraceData, ditto_obs::ImportStats) {
    ditto_obs::events_from_chrome(text).unwrap_or_else(|e| {
        eprintln!("ditto-audit {cmd}: not a Chrome `traceEvents` JSON trace (what --trace-out writes): {e}");
        std::process::exit(2);
    })
}

/// `ditto-audit journal [--json] [--trace FILE] <journal.wal>` — never
/// returns. Certifies a control-plane write-ahead journal: decode +
/// torn-tail provenance, structural invariants, and (with `--trace`) the
/// journal ↔ trace cross-check.
fn journal_main(mut args: Vec<String>) -> ! {
    let json = take_flag(&mut args, "--json");
    let trace_path = take_raw(&mut args, "--trace");
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: ditto-audit journal [--json] [--trace trace.json] <journal.wal>");
        std::process::exit(2);
    }
    let Some(path) = args.first() else {
        eprintln!("ditto-audit journal: need a journal file");
        std::process::exit(2);
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ditto-audit journal: cannot read {path:?}: {e}");
            std::process::exit(2);
        }
    };
    let decoded = match ditto_exec::decode_journal(&bytes) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ditto-audit journal: {e}");
            std::process::exit(2);
        }
    };
    let mut findings = ditto_exec::validate_journal(&decoded.records);
    let mut census: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    for rec in &decoded.records {
        use ditto_exec::JournalRecord as R;
        let kind = match rec {
            R::JobAdmit { .. } => "job_admit",
            R::ScheduleCommit { .. } => "schedule_commit",
            R::ObjectCommit { .. } => "object_commit",
            R::StageComplete(_) => "stage_complete",
            R::Replan(_) => "replan",
            R::Failover(_) => "failover",
            R::TaskAttempt { .. } => "task_attempt",
            R::JobComplete(_) => "job_complete",
        };
        *census.entry(kind).or_insert(0) += 1;
    }
    if let Some(tp) = &trace_path {
        let text = match std::fs::read_to_string(tp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ditto-audit journal: cannot read {tp:?}: {e}");
                std::process::exit(2);
            }
        };
        let (trace, _) = import_trace("journal", &text);
        findings.extend(ditto_exec::cross_check(&decoded.records, &trace));
    }
    let clean = findings.is_empty();
    if json {
        let mut out = Map::new();
        out.insert("records".into(), uint(decoded.records.len() as u64));
        out.insert("durable_bytes".into(), uint(decoded.durable_len as u64));
        let mut c = Map::new();
        for (kind, n) in &census {
            c.insert((*kind).into(), uint(*n));
        }
        out.insert("census".into(), Value::Object(c));
        out.insert(
            "torn".into(),
            match decoded.torn {
                Some(t) => {
                    let mut tm = Map::new();
                    tm.insert("at_record".into(), uint(t.at_record));
                    tm.insert("byte_offset".into(), uint(t.byte_offset as u64));
                    tm.insert("reason".into(), Value::String(t.reason.label().into()));
                    Value::Object(tm)
                }
                None => Value::Null,
            },
        );
        out.insert("cross_checked".into(), Value::Bool(trace_path.is_some()));
        out.insert(
            "findings".into(),
            Value::Array(findings.iter().cloned().map(Value::String).collect()),
        );
        out.insert("clean".into(), Value::Bool(clean));
        println!("{}", Value::Object(out));
    } else {
        println!(
            "journal: {} records, {} durable bytes",
            decoded.records.len(),
            decoded.durable_len
        );
        for (kind, n) in &census {
            println!("  {kind:<16} {n}");
        }
        match decoded.torn {
            Some(t) => println!(
                "torn tail: record {} at byte {} ({})",
                t.at_record,
                t.byte_offset,
                t.reason.label()
            ),
            None => println!("torn tail: none"),
        }
        if clean {
            println!("journal certified clean");
        } else {
            for f in &findings {
                println!("FINDING: {f}");
            }
        }
    }
    std::process::exit(if clean { 0 } else { 1 });
}

fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

/// A finding's optional anchors, in key order; absent ones are omitted.
fn anchor(m: &mut Map, key: &str, v: Option<u32>) {
    if let Some(v) = v {
        m.insert(key.into(), uint(v as u64));
    }
}

/// An audit report as a JSON document (machine-checkable certificate form).
fn audit_json(report: &AuditReport) -> Value {
    let findings = report.findings.iter().map(|f| {
        let mut m = Map::new();
        m.insert("check".into(), Value::String(f.check.as_str().into()));
        m.insert("severity".into(), Value::String(f.severity.as_str().into()));
        anchor(&mut m, "stage", f.stage);
        anchor(&mut m, "edge", f.edge);
        anchor(&mut m, "server", f.server);
        m.insert("detail".into(), Value::String(f.detail.clone()));
        Value::Object(m)
    });
    let mut out = Map::new();
    out.insert("checks_run".into(), uint(report.checks_run as u64));
    out.insert("errors".into(), uint(report.error_count() as u64));
    out.insert("warnings".into(), uint(report.warning_count() as u64));
    out.insert("findings".into(), Value::Array(findings.collect()));
    Value::Object(out)
}

/// A race report as a JSON document (stable key order).
fn race_json(report: &RaceReport) -> Value {
    let findings = report.findings.iter().map(|f| {
        let mut m = Map::new();
        m.insert("rule".into(), Value::String(f.rule.as_str().into()));
        m.insert("severity".into(), Value::String(f.severity.as_str().into()));
        anchor(&mut m, "stage", f.stage);
        anchor(&mut m, "task", f.task);
        anchor(&mut m, "server", f.server);
        anchor(&mut m, "edge", f.edge);
        if let Some(k) = &f.object {
            m.insert("object".into(), Value::String(k.clone()));
        }
        m.insert("detail".into(), Value::String(f.detail.clone()));
        Value::Object(m)
    });
    let mut out = Map::new();
    out.insert("ops".into(), uint(report.ops as u64));
    out.insert("hb_edges".into(), uint(report.hb_edges as u64));
    out.insert("malformed".into(), uint(report.malformed as u64));
    out.insert("errors".into(), uint(report.error_count() as u64));
    out.insert("warnings".into(), uint(report.warning_count() as u64));
    out.insert("findings".into(), Value::Array(findings.collect()));
    Value::Object(out)
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let had = args.iter().any(|a| a == name);
    args.retain(|a| a != name);
    had
}

fn take_raw(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.remove(i);
    if i >= args.len() {
        eprintln!("ditto-audit: {name} needs an argument");
        std::process::exit(2);
    }
    Some(args.remove(i))
}

fn take_value(args: &mut Vec<String>, name: &str) -> Option<f64> {
    let raw = take_raw(args, name)?;
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Some(v),
        _ => {
            eprintln!("ditto-audit: {name} needs a positive number, got {raw:?}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_audit::{AuditFinding, CheckId};

    #[test]
    fn audit_json_keeps_key_order_and_omits_absent_anchors() {
        let mut r = AuditReport { checks_run: 1, ..Default::default() };
        r.findings.push(AuditFinding::error(CheckId::ColocationClaim, "bad").at_edge(3));
        assert_eq!(
            audit_json(&r).to_string(),
            r#"{"checks_run":1,"errors":1,"warnings":0,"findings":[{"check":"colocation-claim","severity":"error","edge":3,"detail":"bad"}]}"#
        );
    }

    #[test]
    fn detail_with_quote_backslash_and_control_char_parses_back() {
        let detail = "stage \"map\\1\"\u{1}\nbad";
        let mut r = AuditReport::default();
        r.findings.push(AuditFinding::warning(CheckId::Structure, detail));
        let back: Value = serde_json::from_str(&audit_json(&r).to_string()).expect("valid JSON");
        assert_eq!(back["findings"][0]["detail"], detail);
    }

    #[test]
    fn race_json_has_stable_shape() {
        let j = race_json(&RaceReport::default()).to_string();
        assert_eq!(j, r#"{"ops":0,"hb_edges":0,"malformed":0,"errors":0,"warnings":0,"findings":[]}"#);
    }
}
