//! The scheduler interface and Ditto's implementation of it.

use crate::joint::{joint_optimize, joint_optimize_traced, JointOptions};
use crate::objective::Objective;
use crate::schedule::Schedule;
use ditto_cluster::ResourceManager;
use ditto_dag::JobDag;
use ditto_timemodel::JobTimeModel;

/// Everything a scheduler sees when a job arrives: the DAG, the fitted
/// execution-time model, the cluster's free slots and the user-chosen
/// objective (§3 "Ditto components").
#[derive(Debug, Clone, Copy)]
pub struct SchedulingContext<'a> {
    /// The job DAG.
    pub dag: &'a JobDag,
    /// The fitted execution-time model (from recurring-job profiles).
    pub model: &'a JobTimeModel,
    /// Free-slot snapshot of the cluster at job arrival.
    pub resources: &'a ResourceManager,
    /// What to minimize.
    pub objective: Objective,
}

/// A job scheduler: parallelism configuration + task placement.
pub trait Scheduler {
    /// Scheduler name, used in traces and figures.
    fn name(&self) -> &str;
    /// Produce a schedule for the job.
    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule;
}

/// The Ditto scheduler: joint iterative optimization of DoP ratios and
/// stage grouping (Algorithm 3).
#[derive(Debug, Clone, Default)]
pub struct DittoScheduler {
    /// Joint-optimizer knobs.
    pub(crate) options: JointOptions,
}

impl DittoScheduler {
    /// Ditto with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule with telemetry: scheduler decisions (grouping merges,
    /// placement checks, optimization rounds) land on `obs`'s scheduler
    /// track. Equivalent to [`Scheduler::schedule`] when `obs` is
    /// disabled.
    pub fn schedule_traced(
        &self,
        ctx: &SchedulingContext<'_>,
        obs: &ditto_obs::Recorder,
    ) -> Schedule {
        joint_optimize_traced(
            ctx.dag,
            ctx.model,
            ctx.resources,
            ctx.objective,
            &self.options,
            obs,
        )
    }
}

impl Scheduler for DittoScheduler {
    fn name(&self) -> &str {
        "ditto"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        joint_optimize(ctx.dag, ctx.model, ctx.resources, ctx.objective, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::generators;
    use ditto_timemodel::model::RateConfig;

    #[test]
    fn ditto_scheduler_via_trait() {
        let dag = generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![96, 48, 24, 12]);
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let sched: &dyn Scheduler = &DittoScheduler::new();
        assert_eq!(sched.name(), "ditto");
        let s = sched.schedule(&ctx);
        s.validate(&dag).unwrap();
    }
}
