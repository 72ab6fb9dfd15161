//! The `audit` experiment: certify every scheduler's output across a
//! seeded sweep of random DAGs.
//!
//! For each seed, objective and scheduler (joint optimizer, reference
//! optimizer, NIMBLE baseline) the sweep builds a random layered DAG,
//! fits a rate-based model, schedules, and runs the full
//! [`ditto_audit::audit`] certificate chain. A healthy tree reports zero
//! errors on every row; any nonzero count names a scheduler/seed pair
//! whose output violates a paper invariant and is reproducible locally
//! from the seed alone.

use ditto_cluster::ResourceManager;
use ditto_core::reference::joint_optimize_reference;
use ditto_core::{joint_optimize_traced, JointOptions, Objective, Scheduler};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;

/// Seeds in the CI sweep (acceptance gate: 32 seeds, all clean).
pub const AUDIT_SWEEP_SEEDS: u64 = 32;

/// One `(seed, scheduler, objective)` certification.
#[derive(Debug, Clone, Serialize)]
pub struct AuditSweepRow {
    /// Seed of the random DAG.
    pub(crate) seed: u64,
    /// Stages in the DAG.
    pub(crate) stages: usize,
    /// Which scheduler produced the schedule.
    pub(crate) scheduler: String,
    /// `jct` or `cost`.
    pub(crate) objective: String,
    /// Certificate checks executed.
    pub(crate) checks: usize,
    /// Error-severity findings (must be 0 everywhere).
    pub errors: usize,
    /// Warning-severity findings (informational).
    pub(crate) warnings: usize,
}

fn sweep_cluster() -> ResourceManager {
    ResourceManager::from_free_slots(vec![24, 24, 16, 16, 8, 8, 4, 4])
}

/// Run the sweep: `seeds` random DAGs × both objectives × three
/// schedulers, each audited with the full certificate chain.
pub fn audit_sweep(seeds: u64) -> Vec<AuditSweepRow> {
    audit_sweep_traced(seeds, &ditto_obs::Recorder::disabled())
}

/// [`audit_sweep`] with telemetry: the joint optimizer's decision spans
/// (`sched.*`) land on `obs` for every certified schedule, so
/// `figures -- audit --trace-out` produces a scheduler-side trace of the
/// whole certification sweep. A disabled recorder makes this identical
/// to [`audit_sweep`].
pub fn audit_sweep_traced(seeds: u64, obs: &ditto_obs::Recorder) -> Vec<AuditSweepRow> {
    let mut rows = Vec::new();
    for seed in 0..seeds {
        let cfg = RandomDagConfig::default();
        let dag = random_dag(seed, &cfg);
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = sweep_cluster();
        for objective in [Objective::Jct, Objective::Cost] {
            let obj_name = match objective {
                Objective::Jct => "jct",
                Objective::Cost => "cost",
            };
            let joint =
                joint_optimize_traced(&dag, &model, &rm, objective, &JointOptions::default(), obs);
            let reference =
                joint_optimize_reference(&dag, &model, &rm, objective, &JointOptions::default());
            let nimble = ditto_core::baselines::NimbleScheduler { seed }.schedule(
                &ditto_core::SchedulingContext {
                    dag: &dag,
                    model: &model,
                    resources: &rm,
                    objective,
                },
            );
            for schedule in [&joint, &reference, &nimble] {
                let report = ditto_audit::audit(&dag, &model, &rm, schedule);
                rows.push(AuditSweepRow {
                    seed,
                    stages: dag.num_stages(),
                    scheduler: schedule.scheduler.clone(),
                    objective: obj_name.to_string(),
                    checks: report.checks_run,
                    errors: report.error_count(),
                    warnings: report.warning_count(),
                });
            }
        }
    }
    rows
}

/// `true` iff no row carries an error-severity finding.
pub fn sweep_is_clean(rows: &[AuditSweepRow]) -> bool {
    rows.iter().all(|r| r.errors == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_sweep_is_clean() {
        let rows = audit_sweep(4);
        // 4 seeds × 2 objectives × 3 schedulers.
        assert_eq!(rows.len(), 24);
        for r in &rows {
            assert_eq!(r.errors, 0, "seed {} {} {}: errors", r.seed, r.scheduler, r.objective);
        }
        assert!(sweep_is_clean(&rows));
    }
}
