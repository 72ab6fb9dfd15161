//! Execution traces: per-task timelines and per-stage breakdowns.
//!
//! The simulator emits a [`TaskTrace`] per task; aggregations over them
//! regenerate the paper's Fig. 14 (per-stage step breakdown) and Fig. 15
//! (stage-and-task Gantt view of fixed vs elastic parallelism).

use crate::adaptive::ReplanRecord;
use crate::faults::{AttemptOutcome, AttemptRecord};
use ditto_cluster::ServerId;
use ditto_obs::StepTimings;

/// One task's timeline (all times are seconds since job submission).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTrace {
    /// Stage index.
    pub stage: u32,
    /// Task index within the stage.
    pub(crate) task: u32,
    /// Server the task ran on.
    pub server: ServerId,
    /// Launch (container start).
    pub launch: f64,
    /// End of setup / start of read.
    pub read_start: f64,
    /// End of read / start of compute.
    pub(crate) compute_start: f64,
    /// End of compute / start of write.
    pub(crate) write_start: f64,
    /// Task completion.
    pub(crate) end: f64,
    /// Memory footprint, GB.
    pub(crate) memory_gb: f64,
}

impl TaskTrace {
    /// Wall-clock duration.
    pub(crate) fn duration(&self) -> f64 {
        self.end - self.launch
    }

    /// Step durations as the shared [`StepTimings`] shape.
    pub(crate) fn steps(&self) -> StepTimings {
        StepTimings::new(
            self.read_start - self.launch,
            self.compute_start - self.read_start,
            self.write_start - self.compute_start,
            self.end - self.write_start,
        )
    }
}

/// Mean per-step durations of one stage (the Fig. 14 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageBreakdown {
    /// Stage index.
    pub stage: u32,
    /// Number of tasks.
    pub tasks: u32,
    /// Stage start (earliest launch).
    pub start: f64,
    /// Stage end (latest task end).
    pub end: f64,
    /// Mean setup seconds.
    pub setup: f64,
    /// Mean read seconds.
    pub read: f64,
    /// Mean compute seconds.
    pub compute: f64,
    /// Mean write seconds.
    pub write: f64,
}

/// A complete execution trace.
#[derive(Debug, Clone, Default)]
pub struct ExecutionTrace {
    /// All task timelines, ordered by (stage, task). For tasks that were
    /// retried or speculated, this is the *winning* attempt's timeline.
    pub tasks: Vec<TaskTrace>,
    /// Attempt-level history for every task that experienced a fault or
    /// speculation (empty for fault-free runs): each failed / superseded
    /// attempt plus the final completed one.
    pub attempts: Vec<AttemptRecord>,
    /// Suffix re-optimizations performed by the adaptive engine (empty
    /// for frozen-schedule runs): trigger, learned corrections, old/new
    /// predicted JCT and the feasibility-certificate outcome of each.
    pub replans: Vec<ReplanRecord>,
}

impl ExecutionTrace {
    /// Attempts beyond one per task (crashed, server-lost or superseded).
    pub fn extra_attempts(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| a.outcome != AttemptOutcome::Completed)
            .count()
    }

    /// Job completion time: the latest task end.
    pub fn jct(&self) -> f64 {
        self.tasks.iter().map(|t| t.end).fold(0.0, f64::max)
    }

    /// Stage completion time.
    pub fn stage_end(&self, stage: u32) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.stage == stage)
            .map(|t| t.end)
            .fold(0.0, f64::max)
    }

    /// Per-stage step breakdowns, ordered by stage index (Fig. 14).
    pub fn stage_breakdowns(&self) -> Vec<StageBreakdown> {
        let max_stage = self.tasks.iter().map(|t| t.stage).max().unwrap_or(0);
        (0..=max_stage)
            .filter_map(|s| {
                let ts: Vec<&TaskTrace> = self.tasks.iter().filter(|t| t.stage == s).collect();
                if ts.is_empty() {
                    return None;
                }
                let mut sum = StepTimings::zero();
                for t in &ts {
                    sum.accumulate(&t.steps());
                }
                let mean = sum.scaled(1.0 / ts.len() as f64);
                Some(StageBreakdown {
                    stage: s,
                    tasks: ts.len() as u32,
                    start: ts.iter().map(|t| t.launch).fold(f64::MAX, f64::min),
                    end: ts.iter().map(|t| t.end).fold(f64::MIN, f64::max),
                    setup: mean.setup,
                    read: mean.read,
                    compute: mean.compute,
                    write: mean.write,
                })
            })
            .collect()
    }

    /// Compute cost in GB·s: Σ memory × duration per task (the paper's
    /// billing definition).
    pub(crate) fn compute_cost(&self) -> f64 {
        self.tasks.iter().map(|t| t.memory_gb * t.duration()).sum()
    }

    /// Peak concurrent tasks per server over the whole execution — the
    /// invariant check that a schedule's placement is honored *in time*:
    /// no server ever hosts more simultaneous tasks than it had free
    /// slots. Computed exactly by a sweep over launch/end events. The
    /// result is ordered by server id so iteration is deterministic.
    #[cfg(test)]
    pub(crate) fn peak_server_occupancy(&self) -> std::collections::BTreeMap<u32, u32> {
        let mut events: Vec<(f64, i32, u32)> = Vec::with_capacity(self.tasks.len() * 2);
        for t in &self.tasks {
            events.push((t.launch, 1, t.server.0));
            events.push((t.end, -1, t.server.0));
        }
        // Ends before starts at the same instant (half-open intervals).
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut current: std::collections::BTreeMap<u32, i32> = Default::default();
        let mut peak: std::collections::BTreeMap<u32, u32> = Default::default();
        for (_, delta, server) in events {
            let c = current.entry(server).or_insert(0);
            *c += delta;
            let p = peak.entry(server).or_insert(0);
            *p = (*p).max(*c as u32);
        }
        peak
    }

    /// Render an ASCII Gantt of stages over time (Fig. 15's shape), with
    /// `width` columns; one row per stage, bar spans start..end, the label
    /// shows the task count.
    pub fn ascii_gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let jct = self.jct().max(1e-9);
        let mut out = String::new();
        for b in self.stage_breakdowns() {
            let s = ((b.start / jct) * width as f64).round() as usize;
            let e = (((b.end / jct) * width as f64).round() as usize).max(s + 1);
            let mut row = vec![' '; width.max(e)];
            for c in row.iter_mut().take(e).skip(s) {
                *c = '█';
            }
            let bar: String = row.into_iter().collect();
            let _ = writeln!(out, "stage {:>2} [{:>3} tasks] |{}|", b.stage, b.tasks, bar);
        }
        let _ = writeln!(out, "JCT = {jct:.2}s");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(stage: u32, task: u32, launch: f64, steps: (f64, f64, f64, f64)) -> TaskTrace {
        let (s, r, c, w) = steps;
        TaskTrace {
            stage,
            task,
            server: ServerId(0),
            launch,
            read_start: launch + s,
            compute_start: launch + s + r,
            write_start: launch + s + r + c,
            end: launch + s + r + c + w,
            memory_gb: 2.0,
        }
    }

    #[test]
    fn steps_and_duration() {
        let t = task(0, 0, 1.0, (0.5, 2.0, 3.0, 1.0));
        assert_eq!(t.steps().as_tuple(), (0.5, 2.0, 3.0, 1.0));
        assert!((t.duration() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn jct_is_latest_end() {
        let tr = ExecutionTrace {
            attempts: vec![],
            replans: vec![],
            tasks: vec![
                task(0, 0, 0.0, (0.1, 1.0, 1.0, 0.5)),
                task(1, 0, 3.0, (0.1, 1.0, 2.0, 0.5)),
            ],
        };
        assert!((tr.jct() - 6.6).abs() < 1e-9);
        assert!((tr.stage_end(0) - 2.6).abs() < 1e-9);
    }

    #[test]
    fn breakdown_averages_tasks() {
        let tr = ExecutionTrace {
            attempts: vec![],
            replans: vec![],
            tasks: vec![
                task(0, 0, 0.0, (0.2, 1.0, 2.0, 1.0)),
                task(0, 1, 0.0, (0.2, 3.0, 4.0, 1.0)),
            ],
        };
        let b = tr.stage_breakdowns();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].tasks, 2);
        assert!((b[0].read - 2.0).abs() < 1e-12);
        assert!((b[0].compute - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compute_cost_sums_gb_seconds() {
        let tr = ExecutionTrace {
            attempts: vec![],
            replans: vec![],
            tasks: vec![task(0, 0, 0.0, (0.0, 1.0, 1.0, 0.0))],
        };
        assert!((tr.compute_cost() - 4.0).abs() < 1e-12); // 2 GB × 2 s
    }

    #[test]
    fn gantt_renders_rows() {
        let tr = ExecutionTrace {
            attempts: vec![],
            replans: vec![],
            tasks: vec![
                task(0, 0, 0.0, (0.1, 1.0, 1.0, 0.5)),
                task(1, 0, 2.6, (0.1, 1.0, 1.0, 0.5)),
            ],
        };
        let g = tr.ascii_gantt(40);
        assert!(g.contains("stage  0"));
        assert!(g.contains("stage  1"));
        assert!(g.contains("JCT"));
        assert!(g.contains('█'));
    }
}
