//! Differential trace analysis: explain the JCT delta between two runs.
//!
//! [`diff_traces`] aligns two finished telemetry streams of the *same
//! DAG* (different seed, config, scheduler or engine) and attributes the
//! end-to-end JCT delta to `(stage, step)` buckets with critical-path
//! awareness: both traces are walked by [`critical_path`], so every
//! second of each run's JCT is already charged to a `(stage, step)` pair
//! or a wait, and the per-bucket differences therefore **sum to the JCT
//! delta exactly** (up to floating-point error) — there is no residual
//! "unexplained" time by construction.
//!
//! Each stage's contribution is additionally classified:
//!
//! * [`DeltaKind::Shared`] — the stage sits on both critical paths; its
//!   delta is a slowdown (or speedup) of work both runs agree is
//!   path-critical.
//! * [`DeltaKind::PathShift`] — the stage entered or left the critical
//!   path between the runs (a replan moved it, a drifted sibling now
//!   dominates, …); its whole contribution in the run where it appears
//!   is the delta.
//! * [`DeltaKind::Structural`] — the stage's delta coincides with
//!   structural events that differ between the runs: replans/splices
//!   (`sched.replan`), failover replans (`sched.failover`), fault
//!   retries (`fault.*`) or lineage re-executions
//!   (`recovery.lineage_reexec`) touching that stage.
//!
//! Where the traces carry it, each bucket also names the stage's read
//! medium (the `read_medium` attribute of `stage` spans), so a delta can
//! be read as "(stage 4, read, s3)".

use crate::critical_path::{critical_path, CriticalPathReport};
use crate::span::{AttrValue, EventRecord, TraceData};
use crate::timings::StepTimings;
use std::collections::BTreeMap;

const EPS: f64 = 1e-9;

/// How a stage's JCT-delta contribution is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeltaKind {
    /// On both critical paths: a slowdown/speedup of shared-path work.
    Shared,
    /// On exactly one critical path: the path moved onto or off it.
    PathShift,
    /// Coincides with differing structural events (replan, splice,
    /// fault retry, lineage re-execution) on that stage.
    Structural,
}

impl DeltaKind {
    /// Short label for tables and JSON.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            DeltaKind::Shared => "shared",
            DeltaKind::PathShift => "path-shift",
            DeltaKind::Structural => "structural",
        }
    }
}

/// One stage's aligned critical-path attribution in both runs.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Stage index.
    pub stage: u32,
    /// Seconds charged per step in the baseline run (zero if the stage
    /// is off that run's critical path).
    pub(crate) steps_a: StepTimings,
    /// Seconds charged per step in the candidate run.
    pub(crate) steps_b: StepTimings,
    /// Critical-path wait charged before this stage in the baseline.
    pub(crate) wait_a: f64,
    /// Critical-path wait charged before this stage in the candidate.
    pub(crate) wait_b: f64,
    /// Classification of this stage's contribution.
    pub(crate) kind: DeltaKind,
    /// Structural events (replans, faults, lineage re-execs) touching
    /// this stage in the baseline run.
    pub(crate) structural_a: u32,
    /// Structural events touching this stage in the candidate run.
    pub(crate) structural_b: u32,
    /// Read medium of the stage (`read_medium` attr of its `stage`
    /// span), when either trace recorded one.
    pub(crate) medium: Option<String>,
}

impl StageDelta {
    /// Per-step delta (candidate minus baseline), seconds.
    pub(crate) fn step_delta(&self) -> StepTimings {
        StepTimings::new(
            self.steps_b.setup - self.steps_a.setup,
            self.steps_b.read - self.steps_a.read,
            self.steps_b.compute - self.steps_a.compute,
            self.steps_b.write - self.steps_a.write,
        )
    }

    /// Wait delta (candidate minus baseline), seconds.
    pub(crate) fn wait_delta(&self) -> f64 {
        self.wait_b - self.wait_a
    }

    /// Total contribution of this stage to the JCT delta, seconds.
    pub(crate) fn delta(&self) -> f64 {
        self.step_delta().total() + self.wait_delta()
    }
}

/// Counts of structural events in one trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructuralSummary {
    /// Suffix replans recorded by the adaptive engine (`sched.replan`).
    pub replans: u32,
    /// Replans that were applied (spliced into the running schedule).
    pub(crate) applied_replans: u32,
    /// Whole-schedule failover replans (`sched.failover`).
    pub(crate) failovers: u32,
    /// Fault events (`fault.*`: crashes, stragglers, object loss, …).
    pub(crate) faults: u32,
    /// Lineage re-executions (`recovery.lineage_reexec`).
    pub(crate) lineage_reexecs: u32,
}

/// Result of [`diff_traces`]: the aligned, classified attribution of the
/// JCT delta between a baseline (A) and a candidate (B) run.
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    /// Baseline JCT, seconds.
    pub(crate) jct_a: f64,
    /// Candidate JCT, seconds.
    pub(crate) jct_b: f64,
    /// Leading wait before the first critical task, baseline.
    pub(crate) lead_wait_a: f64,
    /// Leading wait before the first critical task, candidate.
    pub(crate) lead_wait_b: f64,
    /// Per-stage aligned attribution, ordered by stage index.
    pub stages: Vec<StageDelta>,
    /// Structural-event counts in the baseline trace.
    pub structural_a: StructuralSummary,
    /// Structural-event counts in the candidate trace.
    pub structural_b: StructuralSummary,
}

impl TraceDiff {
    /// End-to-end JCT delta (candidate minus baseline), seconds.
    pub fn delta(&self) -> f64 {
        self.jct_b - self.jct_a
    }

    /// Sum of all attributed deltas; equals [`delta`](Self::delta) up to
    /// floating-point error, because each run's critical-path report
    /// sums to its JCT by construction.
    pub fn attributed(&self) -> f64 {
        (self.lead_wait_b - self.lead_wait_a)
            + self.stages.iter().map(StageDelta::delta).sum::<f64>()
    }

    /// Net delta explained by `(stage, step)` buckets alone — excluding
    /// waits and the lead gap. The acceptance gate for drift-style
    /// slowdowns: under compute drift this should carry ≥ 90% of the
    /// measured delta.
    pub fn step_attributed(&self) -> f64 {
        self.stages.iter().map(|s| s.step_delta().total()).sum()
    }

    /// `true` when no bucket carries more than `eps` seconds of delta.
    pub fn is_zero(&self, eps: f64) -> bool {
        self.delta().abs() <= eps
            && (self.lead_wait_b - self.lead_wait_a).abs() <= eps
            && self.stages.iter().all(|s| {
                let d = s.step_delta();
                d.setup.abs() <= eps
                    && d.read.abs() <= eps
                    && d.compute.abs() <= eps
                    && d.write.abs() <= eps
                    && s.wait_delta().abs() <= eps
            })
    }

    /// Human-readable diff table: one row per stage with per-step
    /// deltas, the wait delta, the classification and the medium.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace diff: jct {:.4}s -> {:.4}s (delta {:+.4}s)\n",
            self.jct_a,
            self.jct_b,
            self.delta()
        ));
        out.push_str(&format!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7}  {:<11} {}\n",
            "stage", "setup", "read", "compute", "write", "wait", "total", "% delta", "kind", "medium"
        ));
        let denom = self.delta().abs().max(EPS);
        let lead = self.lead_wait_b - self.lead_wait_a;
        if lead.abs() > EPS {
            out.push_str(&format!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>+10.4} {:>+10.4} {:>6.1}%  {:<11} -\n",
                "-", "-", "-", "-", "-", lead, lead,
                100.0 * lead / denom,
                "lead-wait"
            ));
        }
        for s in &self.stages {
            let d = s.step_delta();
            out.push_str(&format!(
                "{:>6} {:>+10.4} {:>+10.4} {:>+10.4} {:>+10.4} {:>+10.4} {:>+10.4} {:>6.1}%  {:<11} {}\n",
                s.stage,
                d.setup,
                d.read,
                d.compute,
                d.write,
                s.wait_delta(),
                s.delta(),
                100.0 * s.delta() / denom,
                s.kind.label(),
                s.medium.as_deref().unwrap_or("-"),
            ));
        }
        out.push_str(&format!(
            "attributed {:+.4}s of {:+.4}s delta ({} replans / {} faults / {} lineage in B)\n",
            self.attributed(),
            self.delta(),
            self.structural_b.replans,
            self.structural_b.faults,
            self.structural_b.lineage_reexecs,
        ));
        out
    }
}

/// Per-stage structural-event counts plus the trace-wide summary.
fn structural_events(data: &TraceData) -> (BTreeMap<u32, u32>, StructuralSummary) {
    let mut per_stage: BTreeMap<u32, u32> = BTreeMap::new();
    let mut summary = StructuralSummary::default();
    let stage_of = |e: &EventRecord| -> Option<u32> {
        for key in ["at_stage", "stage", "reader_stage"] {
            if let Some(AttrValue::U64(v)) = e.attr(key) {
                return Some(*v as u32);
            }
        }
        None
    };
    for e in &data.events {
        let structural = if e.name == "sched.replan" {
            summary.replans += 1;
            if matches!(e.attr("applied"), Some(AttrValue::U64(1))) {
                summary.applied_replans += 1;
            }
            true
        } else if e.name == "sched.failover" {
            summary.failovers += 1;
            true
        } else if e.name == "recovery.lineage_reexec" {
            summary.lineage_reexecs += 1;
            true
        } else if e.name.starts_with("fault.") {
            summary.faults += 1;
            true
        } else {
            false
        };
        if structural {
            if let Some(stage) = stage_of(e) {
                *per_stage.entry(stage).or_insert(0) += 1;
            }
        }
    }
    (per_stage, summary)
}

/// Read medium per stage from `stage` span `read_medium` attributes.
fn stage_media(data: &TraceData) -> BTreeMap<u32, String> {
    let mut media = BTreeMap::new();
    for s in &data.spans {
        if s.name != "stage" {
            continue;
        }
        let (Some(stage), Some(medium)) = (s.attr_u64("stage"), s.attr("read_medium")) else {
            continue;
        };
        let label = match medium {
            AttrValue::Str(v) => (*v).to_string(),
            AttrValue::Text(v) => v.clone(),
            _ => continue,
        };
        media.entry(stage as u32).or_insert(label);
    }
    media
}

fn report_by_stage(report: &CriticalPathReport) -> BTreeMap<u32, (StepTimings, f64)> {
    report
        .stages
        .iter()
        .map(|s| (s.stage, (s.steps, s.wait)))
        .collect()
}

/// Diff two finished traces of the same DAG: align their critical-path
/// attributions and classify every stage's contribution to the JCT
/// delta. `a` is the baseline, `b` the candidate; deltas are `b - a`.
pub fn diff_traces(a: &TraceData, b: &TraceData) -> TraceDiff {
    let cp_a = critical_path(a);
    let cp_b = critical_path(b);
    let by_a = report_by_stage(&cp_a);
    let by_b = report_by_stage(&cp_b);
    let (ev_a, structural_a) = structural_events(a);
    let (ev_b, structural_b) = structural_events(b);
    let mut media = stage_media(a);
    for (k, v) in stage_media(b) {
        media.entry(k).or_insert(v);
    }

    let mut stage_ids: Vec<u32> = by_a.keys().chain(by_b.keys()).copied().collect();
    stage_ids.sort_unstable();
    stage_ids.dedup();

    let stages = stage_ids
        .into_iter()
        .map(|stage| {
            let (steps_a, wait_a) = by_a
                .get(&stage)
                .copied()
                .unwrap_or((StepTimings::zero(), 0.0));
            let (steps_b, wait_b) = by_b
                .get(&stage)
                .copied()
                .unwrap_or((StepTimings::zero(), 0.0));
            let structural_a = ev_a.get(&stage).copied().unwrap_or(0);
            let structural_b = ev_b.get(&stage).copied().unwrap_or(0);
            let on_a = by_a.contains_key(&stage);
            let on_b = by_b.contains_key(&stage);
            let kind = if structural_a != structural_b {
                DeltaKind::Structural
            } else if on_a != on_b {
                DeltaKind::PathShift
            } else {
                DeltaKind::Shared
            };
            StageDelta {
                stage,
                steps_a,
                steps_b,
                wait_a,
                wait_b,
                kind,
                structural_a,
                structural_b,
                medium: media.get(&stage).cloned(),
            }
        })
        .collect();

    TraceDiff {
        jct_a: cp_a.jct,
        jct_b: cp_b.jct,
        lead_wait_a: cp_a.lead_wait,
        lead_wait_b: cp_b.lead_wait,
        stages,
        structural_a,
        structural_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Track};

    fn task(rec: &Recorder, stage: u32, start: f64, r: f64, c: f64, w: f64, end: f64) {
        rec.span(
            "task",
            Track::server(0, stage),
            start,
            end,
            vec![
                ("stage", stage.into()),
                ("read_start", r.into()),
                ("compute_start", c.into()),
                ("write_start", w.into()),
            ],
        );
    }

    fn chain(compute_scale: f64) -> crate::span::TraceData {
        let rec = Recorder::new();
        // stage 0: read 1s, compute 2s·scale, write 1s
        let c0 = 2.0 * compute_scale;
        task(&rec, 0, 0.0, 0.0, 1.0, 1.0 + c0, 2.0 + c0);
        // stage 1 follows immediately: compute 3s·scale
        let s1 = 2.0 + c0;
        let c1 = 3.0 * compute_scale;
        task(&rec, 1, s1, s1, s1 + 0.5, s1 + 0.5 + c1, s1 + 1.0 + c1);
        rec.finish()
    }

    #[test]
    fn identical_traces_diff_to_zero() {
        let a = chain(1.0);
        let b = chain(1.0);
        let d = diff_traces(&a, &b);
        assert!(d.is_zero(1e-9), "{}", d.render());
        assert_eq!(d.delta(), 0.0);
        assert!(d.render().contains("delta"));
    }

    #[test]
    fn compute_drift_lands_on_compute_buckets() {
        let a = chain(1.0);
        let b = chain(2.0);
        let d = diff_traces(&a, &b);
        // 2x compute on 5s of compute adds 5s.
        assert!((d.delta() - 5.0).abs() < 1e-9, "delta {}", d.delta());
        assert!((d.attributed() - d.delta()).abs() < 1e-9);
        // All of it is compute-step delta on the shared path.
        assert!((d.step_attributed() - 5.0).abs() < 1e-9);
        for s in &d.stages {
            assert_eq!(s.kind, DeltaKind::Shared);
            let sd = s.step_delta();
            assert!(sd.compute > 0.0);
            assert!(sd.read.abs() < 1e-9 && sd.write.abs() < 1e-9);
        }
    }

    #[test]
    fn path_shift_is_detected() {
        // A: stage 1 (0..6) dominates a short stage 2 (0..2).
        let rec_a = Recorder::new();
        task(&rec_a, 1, 0.0, 0.0, 0.0, 6.0, 6.0);
        task(&rec_a, 2, 0.0, 0.0, 0.0, 2.0, 2.0);
        // B: stage 2 slowed to 8s now dominates.
        let rec_b = Recorder::new();
        task(&rec_b, 1, 0.0, 0.0, 0.0, 6.0, 6.0);
        task(&rec_b, 2, 0.0, 0.0, 0.0, 8.0, 8.0);
        let d = diff_traces(&rec_a.finish(), &rec_b.finish());
        assert!((d.delta() - 2.0).abs() < 1e-9);
        assert!((d.attributed() - d.delta()).abs() < 1e-9);
        let s1 = d.stages.iter().find(|s| s.stage == 1).unwrap();
        let s2 = d.stages.iter().find(|s| s.stage == 2).unwrap();
        // Stage 1 left the path (covered 0..6 in A, only a prefix in B);
        // stage 2 entered it.
        assert_eq!(s2.kind, DeltaKind::PathShift);
        assert!(s2.delta() > 0.0);
        assert!(s1.delta() < 6.0);
    }

    #[test]
    fn structural_events_tag_their_stage() {
        let a = chain(1.0);
        let rec = Recorder::new();
        let c0 = 2.0;
        task(&rec, 0, 0.0, 0.0, 1.0, 1.0 + c0, 2.0 + c0);
        // Stage 1 pushed 1.5s later by a lineage recovery.
        let s1 = 3.5 + c0;
        task(&rec, 1, s1, s1, s1 + 0.5, s1 + 3.5, s1 + 4.0);
        rec.event(
            "recovery.lineage_reexec",
            Track::storage(),
            2.0,
            vec![("stage", 0u32.into()), ("task", 0u32.into()), ("reexec_s", 1.5f64.into())],
        );
        rec.event(
            "sched.replan",
            Track::scheduler(0),
            2.5,
            vec![("at_stage", 1u32.into()), ("applied", 1u64.into())],
        );
        let d = diff_traces(&a, &rec.finish());
        assert_eq!(d.structural_b.lineage_reexecs, 1);
        assert_eq!(d.structural_b.replans, 1);
        assert_eq!(d.structural_b.applied_replans, 1);
        for s in &d.stages {
            assert_eq!(s.kind, DeltaKind::Structural, "stage {}", s.stage);
        }
        assert!((d.attributed() - d.delta()).abs() < 1e-9);
    }

    #[test]
    fn medium_annotation_is_picked_up() {
        let rec = Recorder::new();
        task(&rec, 0, 0.0, 0.0, 1.0, 3.0, 4.0);
        rec.span(
            "stage",
            Track::job(0),
            0.0,
            4.0,
            vec![("stage", 0u32.into()), ("read_medium", "s3".into())],
        );
        let data = rec.finish();
        let d = diff_traces(&data, &data);
        assert_eq!(d.stages[0].medium.as_deref(), Some("s3"));
        assert!(d.render().contains("s3"));
    }
}
