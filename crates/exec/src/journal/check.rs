//! Journal certification (`ditto-audit journal`): structural validation
//! of a record stream and the journal ↔ trace cross-check.

use super::record::JournalRecord;
use ditto_obs::TraceData;
use ditto_storage::{CommitLedger, CommitOutcome};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Validation and cross-checking (`ditto-audit journal`)
// ---------------------------------------------------------------------

/// Structural validation of a decoded record stream. Returns
/// human-readable findings (empty = clean). Checks admission/commit
/// ordering, exactly-once object commits, per-stage completion, and the
/// monotonic decision sequence shared by replans and failovers.
pub fn validate_journal(records: &[JournalRecord]) -> Vec<String> {
    let mut findings = Vec::new();
    if records.is_empty() {
        findings.push("journal holds no records".into());
        return findings;
    }
    if !matches!(records[0], JournalRecord::JobAdmit { .. }) {
        findings.push("record 0 is not job-admit".into());
    }
    let mut admits = 0u32;
    let mut schedule_commits = 0u32;
    let mut schedule_committed_at: Option<usize> = None;
    let mut commits = CommitLedger::new();
    let mut commits_per_stage: BTreeMap<u32, u32> = BTreeMap::new();
    let mut completed: BTreeMap<u32, (usize, usize)> = BTreeMap::new(); // stage -> (index, tasks)
    let mut last_seq = 0u64;
    let mut complete_at: Option<usize> = None;
    for (i, rec) in records.iter().enumerate() {
        let needs_schedule = matches!(
            rec,
            JournalRecord::ObjectCommit { .. }
                | JournalRecord::StageComplete(_)
                | JournalRecord::Replan(_)
                | JournalRecord::Failover(_)
        );
        if needs_schedule && schedule_committed_at.is_none() {
            findings.push(format!("record {i}: precedes the schedule commit"));
        }
        match rec {
            JournalRecord::JobAdmit { .. } => {
                admits += 1;
                if i != 0 {
                    findings.push(format!("record {i}: duplicate job-admit"));
                }
            }
            JournalRecord::ScheduleCommit { decision_seq, .. } => {
                schedule_commits += 1;
                schedule_committed_at = Some(i);
                if *decision_seq != 0 {
                    findings.push(format!(
                        "record {i}: schedule commit has decision_seq {decision_seq}, expected 0"
                    ));
                }
            }
            JournalRecord::ObjectCommit {
                stage,
                task,
                attempt_epoch,
                value,
            } => {
                if let Some((at, _)) = completed.get(stage) {
                    findings.push(format!(
                        "record {i}: object commit s{stage}.t{task} after its stage completed (record {at})"
                    ));
                }
                match commits.commit(*stage, *task, *attempt_epoch, *value) {
                    CommitOutcome::Committed => *commits_per_stage.entry(*stage).or_insert(0) += 1,
                    CommitOutcome::Duplicate => findings.push(format!(
                        "record {i}: duplicated object-commit record s{stage}.t{task}@{attempt_epoch}"
                    )),
                    CommitOutcome::Conflict { expected, .. } => findings.push(format!(
                        "record {i}: conflicting object commit s{stage}.t{task}@{attempt_epoch}: {expected:#x} vs {value:#x}"
                    )),
                }
            }
            JournalRecord::StageComplete(cp) => {
                if cp.ordinal as usize != completed.len() {
                    findings.push(format!(
                        "record {i}: checkpoint of stage {} has ordinal {}, expected {}",
                        cp.stage,
                        cp.ordinal,
                        completed.len()
                    ));
                }
                if completed.insert(cp.stage, (i, cp.tasks.len())).is_some() {
                    findings.push(format!("record {i}: stage {} completed twice", cp.stage));
                }
            }
            JournalRecord::Replan(d) => {
                let record = &d.record;
                if record.decision_seq <= last_seq {
                    findings.push(format!(
                        "record {i}: replan decision_seq {} not above {last_seq}",
                        record.decision_seq
                    ));
                }
                last_seq = last_seq.max(record.decision_seq);
            }
            JournalRecord::Failover(d) => {
                if d.decision_seq <= last_seq {
                    findings.push(format!(
                        "record {i}: failover decision_seq {} not above {last_seq}",
                        d.decision_seq
                    ));
                }
                last_seq = last_seq.max(d.decision_seq);
            }
            JournalRecord::JobComplete(_) => {
                if complete_at.is_some() {
                    findings.push(format!("record {i}: duplicate job-complete"));
                }
                complete_at = Some(i);
            }
            JournalRecord::TaskAttempt { .. } => {}
        }
    }
    if admits > 1 {
        findings.push(format!("{admits} job-admit records (expected 1)"));
    }
    if schedule_commits > 1 {
        findings.push(format!("{schedule_commits} schedule commits (expected 1)"));
    }
    if let Some(at) = complete_at {
        if at != records.len() - 1 {
            findings.push(format!(
                "job-complete at record {at} is not the last record"
            ));
        }
    }
    for (stage, (_, tasks)) in &completed {
        let got = commits_per_stage.get(stage).copied().unwrap_or(0);
        if got as usize != *tasks {
            findings.push(format!(
                "stage {stage}: {got} object commits for {tasks} tasks"
            ));
        }
    }
    findings
}

/// Cross-check a journal against the recovered run's trace: every
/// journaled object commit of a completed stage must have a matching
/// `hb.write` at the committed instant, and the journal's decision
/// sequence must align with the `sched.replan` / `sched.failover` events
/// in emission order. Returns findings (empty = consistent).
pub fn cross_check(records: &[JournalRecord], trace: &TraceData) -> Vec<String> {
    let mut findings = Vec::new();
    let completed: std::collections::BTreeSet<u32> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::StageComplete(cp) => Some(cp.stage),
            _ => None,
        })
        .collect();
    for (i, rec) in records.iter().enumerate() {
        if let JournalRecord::ObjectCommit {
            stage,
            task,
            value,
            ..
        } = rec
        {
            if !completed.contains(stage) {
                continue; // runner-style commit without sim checkpoint
            }
            let committed = f64::from_bits(*value);
            let hit = trace.events.iter().any(|e| {
                e.name == "hb.write"
                    && event_u64(e, "stage") == Some(*stage as u64)
                    && event_u64(e, "task") == Some(*task as u64)
                    && instants_match(e.ts, committed)
            });
            if !hit {
                findings.push(format!(
                    "record {i}: committed object s{stage}.t{task} has no hb.write at its committed instant"
                ));
            }
        }
    }
    let replans = records.iter().filter_map(|r| match r {
        JournalRecord::Replan(d) => Some(d.record.decision_seq),
        _ => None,
    });
    align_seqs(&mut findings, "sched.replan", &replans.collect::<Vec<_>>(), trace);
    let failovers = records.iter().filter_map(|r| match r {
        JournalRecord::Failover(d) => Some(d.decision_seq),
        _ => None,
    });
    align_seqs(&mut findings, "sched.failover", &failovers.collect::<Vec<_>>(), trace);
    findings
}

/// Exact bit equality on a live trace; on a trace re-imported from a
/// Chrome artifact — recognizable because its timestamps are exactly
/// integral microseconds — equality at that quantization. A tampered
/// commit value in a full-precision trace still misses by ulps, so the
/// relaxation never weakens the in-memory cross-check.
fn instants_match(trace_ts: f64, committed: f64) -> bool {
    if trace_ts.to_bits() == committed.to_bits() {
        return true;
    }
    let micros = (trace_ts * 1e6).round();
    (micros / 1e6).to_bits() == trace_ts.to_bits() && micros == (committed * 1e6).round()
}

fn event_u64(e: &ditto_obs::EventRecord, key: &str) -> Option<u64> {
    match e.attr(key) {
        Some(ditto_obs::AttrValue::U64(v)) => Some(*v),
        _ => None,
    }
}

/// The journal's `what` decisions must match the trace's `what` events
/// one for one, in emission order, on `decision_seq`.
fn align_seqs(findings: &mut Vec<String>, what: &str, journal: &[u64], trace: &TraceData) {
    let trace: Vec<Option<u64>> = trace
        .events
        .iter()
        .filter(|e| e.name == what)
        .map(|e| event_u64(e, "decision_seq"))
        .collect();
    if journal.len() != trace.len() {
        findings.push(format!(
            "{what}: journal has {} decisions, trace has {} events",
            journal.len(),
            trace.len()
        ));
        return;
    }
    for (i, (j, t)) in journal.iter().zip(&trace).enumerate() {
        match t {
            None => findings.push(format!("{what} event {i}: missing decision_seq attr")),
            Some(t) if t != j => findings.push(format!(
                "{what} event {i}: decision_seq {t} but journal says {j}"
            )),
            _ => {}
        }
    }
}

