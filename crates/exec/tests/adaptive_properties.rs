//! Property tests for the adaptive execution engine: for arbitrary
//! random DAGs and injected faults (object loss × drift inflation), the
//! engine terminates within policy bounds, every stage still runs, every
//! recorded replan passes its feasibility certificate, and with no
//! injected faults the adaptive engine is bit-identical to the frozen
//! fault-path simulator.

use ditto_cluster::ResourceManager;
use ditto_core::{
    DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_exec::{
    AdaptiveConfig, Engine, ExecConfig, FaultPlan, FaultRates, GroundTruth, RecoveryPolicy,
    ReschedulingContext,
};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;

fn setup(dag_seed: u64, stages: usize) -> (JobDag, JobTimeModel, ResourceManager, Schedule) {
    let dag = random_dag(dag_seed, &RandomDagConfig::sized(stages));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(vec![24, 16]);
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    (dag, model, rm, schedule)
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Termination and coverage: under object loss plus drift the
    /// adaptive engine finishes within policy bounds, the realized JCT is
    /// finite and positive, and every stage still executes its tasks.
    /// (b) Certification: every recorded replan is audit-clean (the
    /// engine returns an error on an uncertified splice, so reaching the
    /// trace at all means the certificate passed — asserted explicitly
    /// anyway).
    #[test]
    fn adaptive_run_terminates_and_certifies(
        dag_seed in 0u64..1024,
        stages in 4usize..9,
        loss in 0.0f64..0.15,
        drift in 1.0f64..3.0,
        fault_seed in 0u64..u64::MAX,
    ) {
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let mut plan = FaultPlan::from_rates(FaultRates {
            loss_prob: loss,
            ..FaultRates::none(fault_seed)
        });
        if drift != 1.0 {
            plan = plan.with_drift(drift);
        }
        let ctx = ReschedulingContext {
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let gt = GroundTruth::new(ExecConfig::default());
        let (trace, metrics) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy())
            .adaptive(&ctx, &AdaptiveConfig::default())
            .run()
            .expect("bounded fault rates must recover within policy bounds");

        prop_assert!(metrics.jct.is_finite() && metrics.jct > 0.0);
        for s in dag.stages() {
            let tasks = trace.tasks.iter().filter(|t| t.stage == s.id.0).count();
            prop_assert!(tasks > 0, "stage {} never ran", s.name);
        }
        for r in &trace.replans {
            prop_assert!(r.audit_clean, "uncertified replan on the trace: {r:?}");
            prop_assert!(r.old_predicted_jct.is_finite() && r.new_predicted_jct.is_finite());
            prop_assert!(r.risk_penalty.is_finite());
        }
        prop_assert!(
            trace.replans.iter().filter(|r| r.applied).count() as u32
                <= AdaptiveConfig::default().max_replans
        );
    }

    /// (c) Identity: with unit drift and zero loss the adaptive engine
    /// must be bit-identical to the frozen fault-path simulator — same
    /// JCT, same task timelines and attempts, zero replans.
    #[test]
    fn clean_run_is_bit_identical_to_frozen_engine(
        dag_seed in 0u64..1024,
        stages in 4usize..9,
    ) {
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let plan = FaultPlan::none();
        let ctx = ReschedulingContext {
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let gt = GroundTruth::new(ExecConfig::default());
        let (frozen_trace, frozen) =
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy()).run().unwrap();
        let (adaptive_trace, adaptive) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy())
            .adaptive(&ctx, &AdaptiveConfig::default())
            .run()
            .unwrap();

        prop_assert!(adaptive_trace.replans.is_empty(), "clean run must not replan");
        prop_assert_eq!(adaptive.jct.to_bits(), frozen.jct.to_bits(), "JCT must be bit-identical");
        prop_assert_eq!(adaptive_trace.tasks, frozen_trace.tasks, "task timelines must be identical");
        prop_assert_eq!(adaptive_trace.attempts, frozen_trace.attempts, "attempts must be identical");
        prop_assert_eq!(adaptive_trace.replans, frozen_trace.replans, "replans must be identical");
    }
}
