//! Online correction of a fitted model from observed step timings.
//!
//! The paper fits its execution-time model offline (§4.2) and reuses it;
//! when the deployment drifts — slower functions, congested storage — the
//! frozen α/β under-predict and every downstream DoP decision is wrong.
//! The drift detector (in `ditto-cluster`) learns per-step multiplicative
//! ratios of observed over predicted time; this module applies them to a
//! [`JobTimeModel`], producing the *corrected* model that suffix
//! re-optimization feeds back into `joint_optimize`.
//!
//! Corrections are per-step (read / compute / write), not a single scalar
//! per stage: a uniform inflation of `α` and `β` leaves the optimal DoP
//! ratios of Eq. 3/4 unchanged, so only differential step drift (e.g.
//! compute slowing while I/O holds) makes re-planning change the schedule.

use crate::model::JobTimeModel;
use crate::step::{Step, StepKind};
use ditto_dag::{JobDag, StageId};

/// Multiplicative per-step correction factors (observed / predicted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCorrections {
    /// Factor on read steps (external input + shuffle reads).
    pub read: f64,
    /// Factor on the compute step.
    pub compute: f64,
    /// Factor on write steps (external output + shuffle writes).
    pub write: f64,
}

impl Default for StepCorrections {
    fn default() -> Self {
        Self::identity()
    }
}

impl StepCorrections {
    /// Neutral corrections: the model is believed as fitted.
    pub fn identity() -> Self {
        StepCorrections {
            read: 1.0,
            compute: 1.0,
            write: 1.0,
        }
    }

    /// Uniform factor on all three steps.
    #[cfg(test)]
    pub(crate) fn uniform(factor: f64) -> Self {
        StepCorrections {
            read: factor,
            compute: factor,
            write: factor,
        }
    }

    /// Factors clamped into `[lo, hi]` — defensive bound so one wild
    /// observation cannot push the corrected model into nonsense.
    pub(crate) fn clamped(&self, lo: f64, hi: f64) -> Self {
        StepCorrections {
            read: self.read.clamp(lo, hi),
            compute: self.compute.clamp(lo, hi),
            write: self.write.clamp(lo, hi),
        }
    }
}

/// Per-stage corrections for a whole job, with a global fallback for
/// stages that have not produced observations yet (exactly the suffix
/// stages a replan re-optimizes).
#[derive(Debug, Clone)]
pub struct ModelCorrections {
    /// Per-stage factors; `None` means no direct observations for that
    /// stage and the global factors apply.
    pub per_stage: Vec<Option<StepCorrections>>,
    /// Job-wide factors learned across all completed tasks.
    pub global: StepCorrections,
}

impl ModelCorrections {
    /// Identity corrections for an `n`-stage job.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> Self {
        ModelCorrections {
            per_stage: vec![None; n],
            global: StepCorrections::identity(),
        }
    }

    /// The factors that apply to stage `s`: its own if observed, else the
    /// global fallback.
    pub(crate) fn for_stage(&self, s: StageId) -> StepCorrections {
        self.per_stage
            .get(s.index())
            .and_then(|c| *c)
            .unwrap_or(self.global)
    }
}

/// Bounds applied to every correction factor before it touches the model.
pub(crate) const CORRECTION_CLAMP: (f64, f64) = (0.2, 10.0);

impl JobTimeModel {
    /// A copy of this model with the corrections applied: each stage's
    /// compute step is scaled by its compute factor, external reads/writes
    /// by its read/write factors, and each edge's I/O by the reading
    /// (downstream) and writing (upstream) stage's factors respectively.
    /// Both α and β scale — drift hits fixed overheads and throughput
    /// alike — so corrected predictions stay `α'/d + β'`.
    pub fn corrected(&self, dag: &JobDag, corrections: &ModelCorrections) -> JobTimeModel {
        let (lo, hi) = CORRECTION_CLAMP;
        let mut m = self.clone();
        for s in dag.stages() {
            let c = corrections.for_stage(s.id).clamped(lo, hi);
            let steps = m.stage_steps_mut(s.id);
            steps.compute.alpha *= c.compute;
            steps.compute.beta *= c.compute;
            steps.external_read.alpha *= c.read;
            steps.external_read.beta *= c.read;
            steps.external_write.alpha *= c.write;
            steps.external_write.beta *= c.write;
        }
        for e in dag.edges() {
            let cw = corrections.for_stage(e.src).clamped(lo, hi).write;
            let cr = corrections.for_stage(e.dst).clamped(lo, hi).read;
            let io = m.edge_io_mut(e.id);
            io.write.alpha *= cw;
            io.write.beta *= cw;
            io.read.alpha *= cr;
            io.read.beta *= cr;
        }
        m
    }

    /// A copy of this model with completed stages' costs zeroed — the
    /// sunk-cost mask a mid-flight replan optimizes against.
    ///
    /// `joint_optimize` plans the whole DAG, but once a stage has finished
    /// its time is sunk: a drift-corrected model that still charges it
    /// makes the optimizer spend slots shortening work that cannot shrink,
    /// starving the suffix the replan is actually for. Masking zeroes a
    /// completed stage's compute and external I/O, the write side of its
    /// outgoing edges (the data is already in the object store), and the
    /// read side of edges *into* other completed stages. Reads across the
    /// prefix/suffix seam stay at full cost — the running suffix still
    /// pays them. With every `done[i]` false this is an exact clone.
    pub fn masked_completed(&self, dag: &JobDag, done: &[bool]) -> JobTimeModel {
        assert_eq!(done.len(), dag.num_stages(), "mask length must match DAG");
        let mut m = self.clone();
        for s in dag.stages() {
            if done[s.id.index()] {
                let steps = m.stage_steps_mut(s.id);
                steps.compute = Step::zero(StepKind::Compute);
                steps.external_read = Step::zero(StepKind::Read);
                steps.external_write = Step::zero(StepKind::Write);
            }
        }
        for e in dag.edges() {
            let io = m.edge_io_mut(e.id);
            if done[e.src.index()] {
                io.write = Step::zero(StepKind::Write);
            }
            if done[e.dst.index()] {
                io.read = Step::zero(StepKind::Read);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RateConfig;
    use ditto_dag::generators;

    #[test]
    fn identity_corrections_change_nothing() {
        let dag = generators::fig1_join();
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let c = ModelCorrections::identity(dag.num_stages());
        let m2 = m.corrected(&dag, &c);
        let none = m.no_colocation();
        for s in dag.stages() {
            assert_eq!(
                m.exec_time(&dag, s.id, 8.0, &none),
                m2.exec_time(&dag, s.id, 8.0, &none)
            );
        }
    }

    #[test]
    fn uniform_drift_scales_exec_time_linearly() {
        let dag = generators::fig1_join();
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let mut c = ModelCorrections::identity(dag.num_stages());
        c.global = StepCorrections::uniform(2.0);
        let m2 = m.corrected(&dag, &c);
        let none = m.no_colocation();
        for s in dag.stages() {
            let t = m.exec_time(&dag, s.id, 4.0, &none);
            let t2 = m2.exec_time(&dag, s.id, 4.0, &none);
            assert!((t2 - 2.0 * t).abs() < 1e-9, "stage {}: {t2} vs 2*{t}", s.name);
        }
    }

    #[test]
    fn compute_only_drift_changes_alpha_balance() {
        // Differential drift (compute 3x, I/O flat) must change the
        // relative alphas — the property that makes re-planning move DoPs.
        let dag = generators::fig1_join();
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let mut c = ModelCorrections::identity(dag.num_stages());
        c.per_stage[0] = Some(StepCorrections {
            read: 1.0,
            compute: 3.0,
            write: 1.0,
        });
        let m2 = m.corrected(&dag, &c);
        let none = m.no_colocation();
        let a0 = m.stage_alpha(&dag, StageId(0), &none);
        let a0c = m2.stage_alpha(&dag, StageId(0), &none);
        let a1 = m.stage_alpha(&dag, StageId(1), &none);
        let a1c = m2.stage_alpha(&dag, StageId(1), &none);
        assert!(a0c > a0, "corrected stage-0 alpha should grow");
        assert_eq!(a1, a1c, "untouched stage keeps global identity");
        assert!((a0c / a1c) > (a0 / a1), "alpha ratio must shift");
    }

    #[test]
    fn masked_completed_zeroes_prefix_but_keeps_seam_reads() {
        let dag = generators::fig1_join();
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let none = m.no_colocation();
        // Nothing done: exact clone.
        let all_false = vec![false; dag.num_stages()];
        let m0 = m.masked_completed(&dag, &all_false);
        for s in dag.stages() {
            assert_eq!(
                m.exec_time(&dag, s.id, 8.0, &none),
                m0.exec_time(&dag, s.id, 8.0, &none)
            );
        }
        // Stage 0 done: its own steps and its outgoing writes are sunk,
        // but downstream stages still pay the read across the seam.
        let mut done = all_false;
        done[0] = true;
        let m1 = m.masked_completed(&dag, &done);
        assert!(m1.stage_steps(StageId(0)).compute.is_zero());
        let consumer = dag
            .edges()
            .iter()
            .find(|e| e.src == StageId(0))
            .expect("stage 0 has a consumer");
        assert!(m1.edge_io(consumer.id).write.is_zero(), "producer write sunk");
        assert!(!m1.edge_io(consumer.id).read.is_zero(), "seam read still paid");
        assert!(
            m1.exec_time(&dag, consumer.dst, 8.0, &none)
                <= m.exec_time(&dag, consumer.dst, 8.0, &none)
        );
    }

    #[test]
    fn per_stage_overrides_global_and_clamps() {
        let dag = generators::fig1_join();
        let mut c = ModelCorrections::identity(dag.num_stages());
        c.global = StepCorrections::uniform(2.0);
        c.per_stage[1] = Some(StepCorrections::uniform(100.0));
        assert_eq!(c.for_stage(StageId(0)).compute, 2.0);
        assert_eq!(c.for_stage(StageId(1)).compute, 100.0);
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let m2 = m.corrected(&dag, &c);
        // 100x clamps to CORRECTION_CLAMP.1.
        let ratio = m2.stage_steps(StageId(1)).compute.alpha / m.stage_steps(StageId(1)).compute.alpha;
        assert!((ratio - CORRECTION_CLAMP.1).abs() < 1e-9, "ratio {ratio}");
    }
}
