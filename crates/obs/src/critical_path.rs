//! Critical-path attribution: explain JCT from the event stream.
//!
//! Walks a finished trace backwards from the last task completion,
//! always following the task span that covers the instant in question,
//! and charges every second of the job completion time to a
//! `(stage, step)` pair — or to *wait* (scheduling / dependency gaps
//! where no task on the critical chain was running). The attribution
//! sums to the JCT exactly by construction, reproducing the paper's
//! Fig. 14 step breakdown from telemetry instead of bespoke trace code.

use crate::span::{SpanRecord, TraceData};
use crate::timings::StepTimings;

const EPS: f64 = 1e-9;

/// JCT attributed to one stage on the critical path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageAttribution {
    /// Stage index.
    pub(crate) stage: u32,
    /// Seconds charged to each step of this stage.
    pub(crate) steps: StepTimings,
    /// Seconds of critical-path wait immediately before this stage's
    /// tasks (dependency stalls, scheduling gaps).
    pub(crate) wait: f64,
}

impl StageAttribution {
    /// Total seconds this stage contributes to the JCT.
    pub(crate) fn total(&self) -> f64 {
        self.steps.total() + self.wait
    }
}

/// Result of [`critical_path`].
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Job completion time (latest task end), seconds.
    pub jct: f64,
    /// Per-stage attribution, ordered by stage index.
    pub(crate) stages: Vec<StageAttribution>,
    /// Leading wait before the first critical task (JIT launch delay, …).
    pub(crate) lead_wait: f64,
}

impl CriticalPathReport {
    /// Sum of all attributed seconds; equals [`jct`](Self::jct) up to
    /// floating-point error.
    pub fn attributed(&self) -> f64 {
        self.lead_wait + self.stages.iter().map(StageAttribution::total).sum::<f64>()
    }

    /// Human-readable breakdown table (fractions of JCT per stage/step).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("critical path: jct = {:.4}s\n", self.jct));
        out.push_str(&format!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
            "stage", "setup", "read", "compute", "write", "wait", "% jct"
        ));
        if self.lead_wait > EPS {
            out.push_str(&format!(
                "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10.4} {:>7.1}%\n",
                "-", "-", "-", "-", "-", self.lead_wait,
                100.0 * self.lead_wait / self.jct.max(EPS)
            ));
        }
        for s in &self.stages {
            out.push_str(&format!(
                "{:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7.1}%\n",
                s.stage,
                s.steps.setup,
                s.steps.read,
                s.steps.compute,
                s.steps.write,
                s.wait,
                100.0 * s.total() / self.jct.max(EPS)
            ));
        }
        out
    }
}

/// Step boundaries of a task span, falling back to all-compute when the
/// phase attrs are absent or inconsistent.
fn bounds(span: &SpanRecord) -> [f64; 5] {
    if let (Some(r), Some(c), Some(w)) = (
        span.attr_f64("read_start"),
        span.attr_f64("compute_start"),
        span.attr_f64("write_start"),
    ) {
        let b = [span.start, r, c, w, span.end];
        if b.windows(2).all(|p| p[1] >= p[0]) {
            return b;
        }
    }
    [span.start, span.start, span.start, span.end, span.end]
}

/// Attribute the JCT of a finished trace to stages and steps along the
/// critical path. Only spans named `task` (the per-task outcome
/// timelines) participate; returns an empty report when there are none.
pub fn critical_path(data: &TraceData) -> CriticalPathReport {
    let tasks: Vec<&SpanRecord> = data
        .spans
        .iter()
        .filter(|s| s.name == "task" && s.end.is_finite() && s.attr_u64("stage").is_some())
        .collect();
    if tasks.is_empty() {
        return CriticalPathReport::default();
    }

    let jct = tasks.iter().map(|s| s.end).fold(0.0, f64::max);
    let mut per_stage: std::collections::BTreeMap<u32, StageAttribution> = Default::default();
    let mut lead_wait = 0.0;

    let mut t = jct;
    let mut next_stage: Option<u32> = None;
    while t > EPS {
        // The covering task that started latest — the tightest link of
        // the dependency chain ending at `t`.
        let cover = tasks
            .iter()
            .filter(|s| s.start < t - EPS && s.end >= t - EPS)
            .max_by(|a, b| a.start.total_cmp(&b.start));
        match cover {
            Some(span) => {
                let stage = span.attr_u64("stage").unwrap() as u32;
                let seg_start = span.start.max(0.0);
                let b = bounds(span);
                let entry = per_stage.entry(stage).or_insert(StageAttribution {
                    stage,
                    steps: StepTimings::zero(),
                    wait: 0.0,
                });
                let slots = [
                    &mut entry.steps.setup,
                    &mut entry.steps.read,
                    &mut entry.steps.compute,
                    &mut entry.steps.write,
                ];
                for (i, slot) in slots.into_iter().enumerate() {
                    let overlap = (t.min(b[i + 1]) - seg_start.max(b[i])).max(0.0);
                    *slot += overlap;
                }
                next_stage = Some(stage);
                t = seg_start;
            }
            None => {
                // Gap: no task runs at `t`. Charge it as wait before the
                // stage we just walked out of, then jump to the previous
                // task end (or time zero).
                let prev_end = tasks
                    .iter()
                    .map(|s| s.end)
                    .filter(|e| *e < t - EPS)
                    .fold(0.0, f64::max);
                let gap = t - prev_end;
                match next_stage.and_then(|s| per_stage.get_mut(&s)) {
                    Some(entry) => entry.wait += gap,
                    None => lead_wait += gap,
                }
                t = prev_end;
            }
        }
    }

    CriticalPathReport {
        jct,
        stages: per_stage.into_values().collect(),
        lead_wait,
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

    #[test]
    fn chain_attribution_sums_to_jct() {
        let rec = Recorder::new();
        // stage 0: 0..4 (read 0..1, compute 1..3, write 3..4)
        task(&rec, 0, 0.0, 0.0, 1.0, 3.0, 4.0);
        // gap 4..5, then stage 1: 5..9
        task(&rec, 1, 5.0, 5.5, 6.0, 8.0, 9.0);
        // a short off-path task that must not matter
        task(&rec, 0, 0.0, 0.0, 0.5, 1.0, 1.5);
        let report = critical_path(&rec.finish());
        assert!((report.jct - 9.0).abs() < 1e-9);
        assert!((report.attributed() - report.jct).abs() < 1e-9);
        assert_eq!(report.stages.len(), 2);
        let s1 = &report.stages[1];
        assert!((s1.wait - 1.0).abs() < 1e-9, "gap charged as stage-1 wait");
        assert!((s1.steps.setup - 0.5).abs() < 1e-9);
        assert!((s1.steps.compute - 2.0).abs() < 1e-9);
        let s0 = &report.stages[0];
        assert!((s0.steps.read - 1.0).abs() < 1e-9);
        assert!((s0.steps.write - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gap_before_first_task_charged_as_its_wait() {
        let rec = Recorder::new();
        task(&rec, 0, 2.0, 2.0, 2.5, 3.5, 4.0);
        let report = critical_path(&rec.finish());
        assert!((report.stages[0].wait - 2.0).abs() < 1e-9);
        assert!((report.attributed() - 4.0).abs() < 1e-9);
        assert!(report.render().contains("% jct"));
    }

    #[test]
    fn overlapping_tasks_follow_latest_start() {
        let rec = Recorder::new();
        task(&rec, 0, 0.0, 0.0, 0.0, 5.0, 5.0); // long compute
        task(&rec, 1, 3.0, 3.0, 3.5, 5.5, 6.0); // overlaps, ends last
        let report = critical_path(&rec.finish());
        assert!((report.jct - 6.0).abs() < 1e-9);
        assert!((report.attributed() - 6.0).abs() < 1e-9);
        // stage 1 charged 3..6, stage 0 charged 0..3.
        let s1 = report.stages.iter().find(|s| s.stage == 1).unwrap();
        assert!((s1.total() - 3.0).abs() < 1e-9);
        let s0 = report.stages.iter().find(|s| s.stage == 0).unwrap();
        assert!((s0.total() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let report = critical_path(&Recorder::new().finish());
        assert_eq!(report.jct, 0.0);
        assert!(report.stages.is_empty());
    }

    #[test]
    fn tasks_without_step_attrs_count_as_compute() {
        let rec = Recorder::new();
        rec.span(
            "task",
            Track::server(0, 0),
            0.0,
            3.0,
            vec![("stage", 0u32.into())],
        );
        let report = critical_path(&rec.finish());
        assert!((report.stages[0].steps.compute - 3.0).abs() < 1e-9);
        assert!((report.attributed() - 3.0).abs() < 1e-9);
    }
}
