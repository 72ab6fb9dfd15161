//! Runtime monitor: per-task statistics collection (paper §3).
//!
//! Each server in the paper hosts a runtime monitor tracking statistics and
//! results of every function execution; those records feed the recurring-job
//! profiles that the execution-time model is fitted from. Here a single
//! [`RuntimeMonitor`] aggregates records for the whole (simulated) cluster;
//! it is `Sync` so the multi-threaded local runtime in `ditto-exec` can
//! report from worker threads. It can also be fed from the unified
//! telemetry stream: [`RuntimeMonitor::ingest`] replays the `task` spans
//! of a recorded trace into records, making the monitor a consumer of
//! the same event stream the exporters read.

use crate::server::ServerId;
use ditto_obs::{StepTimings, TraceData};
use parking_lot::Mutex;

/// One completed task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Stage index within the job (matches `StageId` downstream).
    pub stage: u32,
    /// Task index within the stage, `0..dop`.
    pub task: u32,
    /// Server the task ran on.
    pub server: ServerId,
    /// Launch time, seconds since job start.
    pub start: f64,
    /// Completion time, seconds since job start.
    pub end: f64,
    /// Per-step durations (setup/read/compute/write), seconds.
    pub steps: StepTimings,
    /// Bytes read (external + intermediate).
    pub bytes_read: u64,
    /// Bytes written (external + intermediate).
    pub bytes_written: u64,
}

impl TaskRecord {
    /// Wall-clock duration of the task.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe collector of [`TaskRecord`]s.
#[derive(Debug, Default)]
pub struct RuntimeMonitor {
    records: Mutex<Vec<TaskRecord>>,
}

impl RuntimeMonitor {
    /// New empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed task.
    pub fn record(&self, r: TaskRecord) {
        self.records.lock().push(r);
    }

    /// Snapshot of all records (sorted by stage then task for determinism).
    pub fn records(&self) -> Vec<TaskRecord> {
        let mut v = self.records.lock().clone();
        v.sort_by_key(|a| (a.stage, a.task));
        v
    }

    /// Replay the `task` spans of a recorded telemetry stream into
    /// monitor records — the monitor as a consumer of the unified event
    /// stream rather than a bespoke reporting channel. Returns the number
    /// of records ingested. Spans missing the task attributes are
    /// skipped.
    pub fn ingest(&self, data: &TraceData) -> usize {
        let mut n = 0;
        for span in data.spans.iter().filter(|s| s.name == "task") {
            let (Some(stage), Some(task)) = (span.attr_u64("stage"), span.attr_u64("task")) else {
                continue;
            };
            if !span.end.is_finite() {
                continue;
            }
            let read_start = span.attr_f64("read_start").unwrap_or(span.start);
            let compute_start = span.attr_f64("compute_start").unwrap_or(read_start);
            let write_start = span.attr_f64("write_start").unwrap_or(span.end);
            self.record(TaskRecord {
                stage: stage as u32,
                task: task as u32,
                server: ServerId(span.track.group.saturating_sub(ditto_obs::Track::SERVER_BASE)),
                start: span.start,
                end: span.end,
                steps: StepTimings::new(
                    read_start - span.start,
                    compute_start - read_start,
                    write_start - compute_start,
                    span.end - write_start,
                ),
                bytes_read: span.attr_f64("bytes_read").unwrap_or(0.0) as u64,
                bytes_written: span.attr_f64("bytes_written").unwrap_or(0.0) as u64,
            });
            n += 1;
        }
        n
    }
}

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

/// Multiplicative tolerance band around 1.0: a stage whose smoothed
/// observed/predicted time ratio leaves `[1/BAND, BAND]` is drifting. 25 %
/// sustained deviation before the planner is disturbed; the paper's own
/// model error is well inside this (Fig. 11).
const BAND: f64 = 1.25;

/// EWMA smoothing weight on the newest sample, in `(0, 1]`.
const EWMA_ALPHA: f64 = 0.4;

/// Samples a stage needs before it can fire a [`DriftEvent`]. One: the
/// adaptive executor feeds the detector one observation per *stage* (the
/// mean over its tasks), and each stage runs once.
const MIN_SAMPLES: u32 = 1;

/// Predictions below this are treated as "no signal" (ratio 1.0).
const EPS: f64 = 1e-9;

/// A stage's realized time has left the tolerance band around its
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// The drifting stage.
    pub(crate) stage: u32,
    /// Smoothed observed/predicted total-time ratio (> band or < 1/band).
    pub factor: f64,
    /// Smoothed per-step ratios at the moment of detection.
    pub step_factors: StepTimings,
    /// Samples behind the estimate.
    pub(crate) samples: u32,
}

impl DriftEvent {
    /// Record this detection as a `drift.detected` instant on `obs` at
    /// trace time `ts` (scheduler track). The scorecard in `ditto-obs`
    /// reads these marks to annotate post-drift predictor samples, and
    /// the trace-diff engine counts them as structural context.
    pub fn record(&self, obs: &ditto_obs::Recorder, ts: f64) {
        if !obs.is_enabled() {
            return;
        }
        obs.event(
            "drift.detected",
            ditto_obs::Track::scheduler(1),
            ts,
            vec![
                ("stage", self.stage.into()),
                ("factor", self.factor.into()),
                ("samples", (self.samples as u64).into()),
                ("factor_read", self.step_factors.read.into()),
                ("factor_compute", self.step_factors.compute.into()),
                ("factor_write", self.step_factors.write.into()),
            ],
        );
    }
}

/// Per-step EWMA state for one scope (a stage, or the whole job).
#[derive(Debug, Clone, Copy)]
struct EwmaState {
    steps: StepTimings,
    total: f64,
    samples: u32,
}

impl EwmaState {
    fn new() -> Self {
        EwmaState {
            steps: StepTimings::new(1.0, 1.0, 1.0, 1.0),
            total: 1.0,
            samples: 0,
        }
    }

    fn update(&mut self, alpha: f64, step_ratio: &StepTimings, total_ratio: f64) {
        if self.samples == 0 {
            self.steps = *step_ratio;
            self.total = total_ratio;
        } else {
            let blend = |old: f64, new: f64| (1.0 - alpha) * old + alpha * new;
            self.steps = StepTimings::new(
                blend(self.steps.setup, step_ratio.setup),
                blend(self.steps.read, step_ratio.read),
                blend(self.steps.compute, step_ratio.compute),
                blend(self.steps.write, step_ratio.write),
            );
            self.total = blend(self.total, total_ratio);
        }
        self.samples += 1;
    }
}

/// Online detector of execution-time model drift (paper §4.2 fits offline;
/// this is the runtime feedback loop on top).
///
/// Feed it one `(observed, predicted)` [`StepTimings`] pair per completed
/// task; it maintains per-stage and job-global EWMAs of the per-step and
/// total observed/predicted ratios. When a stage's smoothed total ratio
/// leaves the multiplicative band `BAND` (with enough samples), the
/// observation returns a typed `DriftEvent` — the signal the adaptive
/// executor uses to re-fit the model and re-optimize the schedule suffix.
#[derive(Debug)]
pub struct DriftDetector {
    stages: Vec<EwmaState>,
    /// Stage-type class per stage (empty = no class layer).
    class_of: Vec<u32>,
    /// Per-class EWMAs, indexed by the values in `class_of`.
    classes: Vec<EwmaState>,
    global: EwmaState,
}

impl DriftDetector {
    /// Detector for an `n_stages`-stage job.
    #[cfg(test)]
    pub(crate) fn new(n_stages: usize) -> Self {
        DriftDetector {
            stages: vec![EwmaState::new(); n_stages],
            class_of: Vec::new(),
            classes: Vec::new(),
            global: EwmaState::new(),
        }
    }

    /// Detector with a stage-*type* class layer: `class_of[stage]` names
    /// an equivalence class (e.g. the `StageKind` discriminant), and each
    /// observation also updates a per-class EWMA. Corrections learned
    /// from a completed map stage then transfer to maps that have not
    /// run yet — the only way online feedback can help a stage before
    /// its own first sample. Falls back between the per-stage, class,
    /// and global estimates in that order via [`Self::class_correction`].
    pub fn with_classes(class_of: &[u32]) -> Self {
        let n_classes = class_of.iter().max().map_or(0, |&m| m as usize + 1);
        DriftDetector {
            stages: vec![EwmaState::new(); class_of.len()],
            class_of: class_of.to_vec(),
            classes: vec![EwmaState::new(); n_classes],
            global: EwmaState::new(),
        }
    }

    /// Record one completed task's observed vs. predicted step timings.
    /// Returns a `DriftEvent` when the stage's smoothed total ratio has
    /// left `[1/BAND, BAND]` and the stage has `MIN_SAMPLES` samples.
    pub fn observe(
        &mut self,
        stage: u32,
        observed: &StepTimings,
        predicted: &StepTimings,
    ) -> Option<DriftEvent> {
        let step_ratio = observed.ratio_to(predicted, EPS);
        let total_ratio = if predicted.total() > EPS {
            observed.total() / predicted.total()
        } else {
            1.0
        };
        let st = &mut self.stages[stage as usize];
        st.update(EWMA_ALPHA, &step_ratio, total_ratio);
        if let Some(&class) = self.class_of.get(stage as usize) {
            self.classes[class as usize].update(EWMA_ALPHA, &step_ratio, total_ratio);
        }
        self.global.update(EWMA_ALPHA, &step_ratio, total_ratio);
        let st = &self.stages[stage as usize];
        let out_of_band = st.total > BAND || st.total < 1.0 / BAND;
        if st.samples >= MIN_SAMPLES && out_of_band {
            Some(DriftEvent {
                stage,
                factor: st.total,
                step_factors: st.steps,
                samples: st.samples,
            })
        } else {
            None
        }
    }

    /// Smoothed per-step correction factors for one stage, or `None` if
    /// the stage has no samples yet.
    pub fn stage_correction(&self, stage: u32) -> Option<StepTimings> {
        let st = self.stages.get(stage as usize)?;
        (st.samples > 0).then_some(st.steps)
    }

    /// Smoothed per-step correction factors for the *class* of `stage`
    /// (see [`Self::with_classes`]), or `None` if the detector has no
    /// class layer or the class has no samples yet. This is what makes
    /// drift learned on one map stage apply to a map stage that has not
    /// started.
    pub fn class_correction(&self, stage: u32) -> Option<StepTimings> {
        let class = *self.class_of.get(stage as usize)?;
        let st = self.classes.get(class as usize)?;
        (st.samples > 0).then_some(st.steps)
    }

    /// Smoothed per-step correction factors across all observed tasks —
    /// the fallback applied to stages that have not run yet.
    pub fn global_correction(&self) -> StepTimings {
        self.global.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: u32, task: u32, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            stage,
            task,
            server: ServerId(0),
            start,
            end,
            steps: StepTimings::new(0.0, 1.0, 2.0, 0.5),
            bytes_read: 100,
            bytes_written: 50,
        }
    }

    #[test]
    fn ingests_task_spans_from_trace() {
        use ditto_obs::{Recorder, Track};
        let obs = Recorder::new();
        obs.span(
            "task",
            Track::server(3, 42),
            2.0,
            5.5,
            vec![
                ("stage", 1u64.into()),
                ("task", 2u64.into()),
                ("read_start", 2.5.into()),
                ("compute_start", 3.0.into()),
                ("write_start", 5.0.into()),
                ("bytes_read", 1024.0.into()),
                ("bytes_written", 512.0.into()),
            ],
        );
        // A span without task attributes is skipped, not an error.
        obs.span("sched.round", Track::scheduler(0), 0.0, 0.1, vec![]);

        let m = RuntimeMonitor::new();
        assert_eq!(m.ingest(&obs.finish()), 1);
        let r = &m.records()[0];
        assert_eq!((r.stage, r.task), (1, 2));
        assert_eq!(r.server, ServerId(3));
        assert_eq!(r.steps, StepTimings::new(0.5, 0.5, 2.0, 0.5));
        assert_eq!((r.bytes_read, r.bytes_written), (1024, 512));
    }

    #[test]
    fn records_sorted() {
        let m = RuntimeMonitor::new();
        m.record(rec(1, 0, 0.0, 1.0));
        m.record(rec(0, 1, 0.0, 1.0));
        m.record(rec(0, 0, 0.0, 1.0));
        let v = m.records();
        assert_eq!(
            v.iter().map(|r| (r.stage, r.task)).collect::<Vec<_>>(),
            vec![(0, 0), (0, 1), (1, 0)]
        );
    }

    #[test]
    fn drift_fires_only_after_min_samples_and_out_of_band() {
        let mut d = DriftDetector::new(2);
        let pred = StepTimings::new(0.5, 1.0, 2.0, 0.5);
        // In-band observation: nothing fires, however many samples.
        let near = StepTimings::new(0.5, 1.1, 2.1, 0.5);
        assert!(d.observe(0, &near, &pred).is_none());
        assert!(d.observe(0, &near, &pred).is_none());
        // A wildly-slow sample has the one sample a stage needs and its
        // ratio out of band.
        let slow = StepTimings::new(0.5, 1.0, 8.0, 0.5); // compute 4x
        let ev = d.observe(1, &slow, &pred).expect("drift should fire");
        assert_eq!(ev.stage, 1);
        assert!(ev.factor > 1.25, "factor {}", ev.factor);
        assert!(ev.step_factors.compute > 3.0);
        assert!((ev.step_factors.read - 1.0).abs() < 1e-9);
        assert_eq!(ev.samples, 1);
    }

    #[test]
    fn drift_fires_on_sustained_speedup_too() {
        let mut d = DriftDetector::new(1);
        let pred = StepTimings::new(0.0, 1.0, 4.0, 1.0);
        let fast = StepTimings::new(0.0, 0.5, 2.0, 0.5);
        let ev = d.observe(0, &fast, &pred).expect("speedup drift");
        assert!(ev.factor < 1.0 / 1.25);
    }

    #[test]
    fn corrections_track_per_stage_and_global() {
        let mut d = DriftDetector::new(3);
        let pred = StepTimings::new(0.0, 1.0, 1.0, 1.0);
        d.observe(0, &StepTimings::new(0.0, 2.0, 2.0, 2.0), &pred);
        assert_eq!(d.stages[0].samples, 1);
        assert_eq!(d.stages[1].samples, 0);
        assert!(d.stage_correction(1).is_none());
        let c0 = d.stage_correction(0).unwrap();
        assert!((c0.compute - 2.0).abs() < 1e-9);
        // Setup ratio is neutral when the prediction has no setup signal.
        assert!((c0.setup - 1.0).abs() < 1e-9);
        let g = d.global_correction();
        assert!((g.read - 2.0).abs() < 1e-9);
        assert_eq!(d.global.samples, 1);
    }

    #[test]
    fn class_layer_transfers_corrections_to_unobserved_stages() {
        // Stages 0 and 2 are class 0 ("map"), stage 1 is class 1. A 2x
        // compute observation on stage 0 must become available to stage 2
        // through the class estimate before stage 2 has any samples.
        let mut d = DriftDetector::with_classes(&[0, 1, 0]);
        let pred = StepTimings::new(0.0, 1.0, 1.0, 1.0);
        d.observe(0, &StepTimings::new(0.0, 1.0, 2.0, 1.0), &pred);
        assert!(d.stage_correction(2).is_none(), "stage 2 itself unobserved");
        let c = d.class_correction(2).expect("class estimate transfers");
        assert!((c.compute - 2.0).abs() < 1e-9);
        assert_eq!(d.classes[d.class_of[2] as usize].samples, 1);
        assert!(d.class_correction(1).is_none(), "other class untouched");
        // A detector without a class layer never transfers.
        let mut plain = DriftDetector::new(3);
        plain.observe(0, &StepTimings::new(0.0, 1.0, 2.0, 1.0), &pred);
        assert!(plain.class_correction(2).is_none());
        assert!(plain.classes.is_empty());
    }

    #[test]
    fn zero_prediction_is_neutral_not_infinite() {
        let mut d = DriftDetector::new(1);
        let pred = StepTimings::zero();
        for _ in 0..5 {
            assert!(d.observe(0, &StepTimings::new(1.0, 1.0, 1.0, 1.0), &pred).is_none());
        }
        assert_eq!(d.global_correction().as_tuple(), (1.0, 1.0, 1.0, 1.0));
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let m = Arc::new(RuntimeMonitor::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        m.record(rec(t, i, 0.0, 1.0));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.records().len(), 100);
    }
}
