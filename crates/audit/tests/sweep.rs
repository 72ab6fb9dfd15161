//! Acceptance sweep: every scheduler's output is certified clean across
//! seeded random DAGs, both objectives, and (via proptest) randomized
//! DAG shapes.

use ditto_audit::{audit, audit_with, AuditOptions};
use ditto_cluster::ResourceManager;
use ditto_core::reference::joint_optimize_reference;
use ditto_core::{joint_optimize, JointOptions, Objective, Scheduler as _};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;

fn sweep_cluster() -> ResourceManager {
    ResourceManager::from_free_slots(vec![24, 24, 16, 16, 8, 8, 4, 4])
}

fn model_for(dag: &JobDag) -> JobTimeModel {
    JobTimeModel::from_rates(dag, &RateConfig::default())
}

/// The ISSUE acceptance gate: 32 seeds × 2 objectives × 3 schedulers,
/// zero error findings everywhere.
#[test]
fn thirty_two_seed_sweep_is_clean() {
    for seed in 0..32u64 {
        let dag = random_dag(seed, &RandomDagConfig::default());
        let model = model_for(&dag);
        let rm = sweep_cluster();
        for objective in [Objective::Jct, Objective::Cost] {
            let joint = joint_optimize(&dag, &model, &rm, objective, &JointOptions::default());
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
            for s in [&joint, &reference, &nimble] {
                let report = audit(&dag, &model, &rm, s);
                assert_eq!(
                    report.error_count(),
                    0,
                    "seed {seed} {objective:?} {}:\n{}",
                    s.scheduler,
                    report.render()
                );
            }
        }
    }
}

/// The paper's own query shapes stay certified under both objectives and
/// several cluster sizes, including tight budgets that force rounding's
/// shrink-largest path.
#[test]
fn paper_shapes_are_certified_across_budgets() {
    let dags = [
        ditto_dag::generators::fig1_join(),
        ditto_dag::generators::q95_shape(),
        ditto_dag::generators::diamond(8 << 30),
    ];
    for dag in &dags {
        let model = model_for(dag);
        let n = dag.num_stages() as u32;
        for slots in [vec![96; 8], vec![12; 4], vec![n.max(4); 2]] {
            let rm = ResourceManager::from_free_slots(slots.clone());
            for objective in [Objective::Jct, Objective::Cost] {
                let s = joint_optimize(dag, &model, &rm, objective, &JointOptions::default());
                let report = audit(dag, &model, &rm, &s);
                assert_eq!(
                    report.error_count(),
                    0,
                    "{} {objective:?} slots {slots:?}:\n{}",
                    dag.name(),
                    report.render()
                );
            }
        }
    }
}

/// Deadline/cost options pass when the bound is generous.
#[test]
fn generous_objective_bounds_pass() {
    let dag = ditto_dag::generators::q95_shape();
    let model = model_for(&dag);
    let rm = ResourceManager::from_free_slots(vec![96; 8]);
    let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
    let report = audit_with(
        &dag,
        &model,
        &rm,
        &s,
        &AuditOptions {
            deadline: Some(1e12),
            cost_budget: Some(1e18),
        },
    );
    assert!(report.is_clean(), "{}", report.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random layered DAG, any seed, any objective: the joint
    /// optimizer and the reference both produce certified schedules.
    #[test]
    fn random_dags_always_certify(
        seed in 0u64..1_000_000,
        stages in 3usize..20,
        layers in 2usize..5,
        cost in 0u8..2,
    ) {
        let cfg = RandomDagConfig {
            stages,
            layers,
            ..Default::default()
        };
        let dag = random_dag(seed, &cfg);
        let model = model_for(&dag);
        let rm = sweep_cluster();
        let objective = if cost == 1 { Objective::Cost } else { Objective::Jct };
        for s in [
            joint_optimize(&dag, &model, &rm, objective, &JointOptions::default()),
            joint_optimize_reference(&dag, &model, &rm, objective, &JointOptions::default()),
        ] {
            let report = audit(&dag, &model, &rm, &s);
            prop_assert_eq!(
                report.error_count(),
                0,
                "seed {} stages {} {:?} {}:\n{}",
                seed, stages, objective, s.scheduler, report.render()
            );
        }
    }
}
