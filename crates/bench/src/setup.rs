//! Shared experiment pipeline: data → plan → profile → fitted model.

use ditto_cluster::{Cluster, ResourceManager, SlotDistribution};
use ditto_core::{Objective, Schedule, Scheduler, SchedulingContext};
use ditto_exec::{profile_job, simulate, ExecConfig, GroundTruth, JobMetrics};
use ditto_sql::queries::Query;
use ditto_sql::{Database, QueryPlan, ScaleConfig};
use ditto_storage::Medium;
use ditto_timemodel::JobTimeModel;
use std::time::Duration;

/// Scale factor for experiment databases: small enough to generate in
/// tens of milliseconds, large enough that every query returns rows.
pub(crate) const EXPERIMENT_SF: f64 = 0.5;

/// Byte-volume multiplier bridging laptop-scale generated data to the
/// paper's TB-scale inputs: measured intermediate volumes are multiplied
/// by this before profiling/scheduling/simulation, putting query input
/// sizes in the paper's 33–312 GB range and JCTs at hundreds of seconds.
pub(crate) const VOLUME_SCALE: f64 = 40_000.0;

/// The profiled DoPs (the paper fits from five parallelism degrees).
pub(crate) const PROFILE_DOPS: [u32; 5] = [10, 20, 40, 80, 120];

/// A query ready for scheduling experiments.
pub(crate) struct PreparedQuery {
    /// Plan with measured + scaled volumes.
    pub(crate) plan: QueryPlan,
    /// Ground truth the simulator runs against.
    pub(crate) gt: GroundTruth,
    /// The honest fitted model the schedulers consume.
    pub(crate) model: JobTimeModel,
    /// How long the least-squares fit took (Table 2).
    pub(crate) model_build_time: Duration,
}

/// Run the full pipeline for one query against the given external medium.
pub(crate) fn prepare(query: Query, external: Medium) -> PreparedQuery {
    prepare_with_sf(query, external, EXPERIMENT_SF, VOLUME_SCALE)
}

/// [`prepare`] with explicit scale factor and volume multiplier (the
/// Redis experiment of §6.3 scales the benchmark down to fit the cache).
pub(crate) fn prepare_with_sf(query: Query, external: Medium, sf: f64, volume_scale: f64) -> PreparedQuery {
    let db = Database::generate(ScaleConfig::with_sf(sf));
    let mut plan = query.prepared_plan(&db);
    plan.scale_volumes(volume_scale);
    let gt = GroundTruth::new(ExecConfig {
        external,
        ..Default::default()
    });
    let profile = profile_job(&plan.dag, &gt, &PROFILE_DOPS);
    let (model, model_build_time) = profile.build_model(&plan.dag);
    PreparedQuery {
        plan,
        gt,
        model,
        model_build_time,
    }
}

impl PreparedQuery {
    /// Schedule with the given scheduler on the given cluster.
    pub(crate) fn schedule(
        &self,
        scheduler: &dyn Scheduler,
        rm: &ResourceManager,
        objective: Objective,
    ) -> Schedule {
        let schedule = scheduler.schedule(&SchedulingContext {
            dag: &self.plan.dag,
            model: &self.model,
            resources: rm,
            objective,
        });
        // Debug builds re-derive the paper's invariants (DoP ratios,
        // placement feasibility, colocation claims) on every schedule the
        // harness produces; release figure runs skip the cost.
        #[cfg(debug_assertions)]
        {
            let report = ditto_audit::audit(&self.plan.dag, &self.model, rm, &schedule);
            assert!(
                report.is_clean(),
                "schedule for {:?} failed audit:\n{}",
                self.plan.dag.name(),
                report.render()
            );
        }
        schedule
    }

    /// Schedule and simulate; returns the metrics the figures plot.
    pub(crate) fn run(
        &self,
        scheduler: &dyn Scheduler,
        rm: &ResourceManager,
        objective: Objective,
    ) -> JobMetrics {
        let schedule = self.schedule(scheduler, rm, objective);
        let (_, metrics) = simulate(&self.plan.dag, &schedule, &self.gt);
        metrics
    }
}

/// The paper's testbed under a slot distribution: 8 servers × 96 slots.
pub(crate) fn testbed(dist: &SlotDistribution) -> ResourceManager {
    ResourceManager::snapshot(&Cluster::paper_testbed(dist))
}

/// The §6 default: Zipf-0.9.
pub(crate) fn default_testbed() -> ResourceManager {
    testbed(&SlotDistribution::zipf_09())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::DittoScheduler;

    #[test]
    fn prepare_produces_consistent_artifacts() {
        let p = prepare(Query::Q95, Medium::S3);
        assert_eq!(p.plan.dag.num_stages(), 9);
        // Scaled volumes put the fact scans in the tens of GB.
        let map1 = p.plan.dag.stages().iter().find(|s| s.name == "map1").unwrap();
        assert!(
            map1.input_bytes > 10 << 30,
            "scaled input = {} bytes",
            map1.input_bytes
        );
        assert!(p.model_build_time.as_secs_f64() < 0.5);
    }

    #[test]
    fn end_to_end_run_yields_metrics() {
        let p = prepare(Query::Q1, Medium::S3);
        let rm = default_testbed();
        let m = p.run(&DittoScheduler::new(), &rm, Objective::Jct);
        assert!(m.jct > 1.0, "paper-scale JCT should be seconds+: {}", m.jct);
        assert!(m.compute_cost > 0.0);
    }
}
