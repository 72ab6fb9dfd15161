//! Property tests for the happens-before race checker against the
//! executor's own traces: on arbitrary random DAGs with injected faults
//! (crashes × stragglers × object loss/corruption × drift), every traced
//! run yields an acyclic happens-before graph with zero malformed
//! events, and the full race checker certifies the run clean — the
//! engine's intended orderings are the recorded orderings. Both the
//! frozen fault engine and the adaptive replanning engine are covered.

use ditto_audit::{check_trace, HbGraph, RaceOptions};
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
use ditto_obs::Recorder;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;

const SLOTS: [u32; 2] = [24, 16];

fn setup(dag_seed: u64, stages: usize) -> (JobDag, JobTimeModel, ResourceManager, Schedule) {
    let dag = random_dag(dag_seed, &RandomDagConfig::sized(stages));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(SLOTS.to_vec());
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

fn plan(crash: f64, loss: f64, seed: u64) -> FaultPlan {
    FaultPlan::from_rates(FaultRates {
        crash_prob: crash,
        straggler_prob: 0.1,
        straggler_slowdown: 3.0,
        loss_prob: loss,
        corruption_prob: 0.05,
        ..FaultRates::none(seed)
    })
}

/// Race options with the sweep's real per-server slot capacities, so the
/// oversubscription rule is exercised with the bound the scheduler
/// actually planned against.
fn opts() -> RaceOptions {
    RaceOptions {
        capacities: Some(SLOTS.to_vec()),
        ..RaceOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Happens-before soundness: the hb graph of any clean traced run is
    /// acyclic (vector clocks exist), parses every hb event it emitted
    /// (zero malformed), and actually contains the run's reads/writes.
    #[test]
    fn hb_graph_is_acyclic_on_clean_runs(
        dag_seed in 0u64..512,
        stages in 4usize..9,
        crash in 0.0f64..0.2,
        loss in 0.0f64..0.15,
        fault_seed in 0u64..u64::MAX,
    ) {
        let (dag, _model, _rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let obs = Recorder::new();
        Engine::new(&dag, &schedule, &gt)
            .faults(&plan(crash, loss, fault_seed), &policy())
            .recorder(&obs)
            .run()
            .expect("bounded fault rates must recover within policy bounds");
        let g = HbGraph::build(&obs.finish());

        prop_assert!(g.cycle.is_empty(), "hb cycle through ops {:?}", g.cycle);
        prop_assert_eq!(g.malformed, 0, "engine emitted malformed hb events");
        prop_assert!(!g.ops.is_empty(), "traced run produced no hb ops");
        prop_assert!(!g.edges.is_empty(), "hb graph has ops but no orderings");
        // Every intended ordering is visible to the vector clocks.
        for e in &g.edges {
            prop_assert!(
                g.happens_before(e.from, e.to),
                "edge {:?} not reflected in vector clocks", e.rule
            );
        }
    }

    /// Race-free certification, frozen engine: faulted runs (including
    /// lineage re-execution of lost/corrupt objects) check out clean
    /// under the real slot capacities.
    #[test]
    fn faulted_runs_certify_race_free(
        dag_seed in 0u64..512,
        stages in 4usize..9,
        crash in 0.0f64..0.2,
        loss in 0.0f64..0.15,
        fault_seed in 0u64..u64::MAX,
    ) {
        let (dag, _model, _rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let obs = Recorder::new();
        Engine::new(&dag, &schedule, &gt)
            .faults(&plan(crash, loss, fault_seed), &policy())
            .recorder(&obs)
            .run()
            .expect("bounded fault rates must recover within policy bounds");
        let report = check_trace(&obs.finish(), &opts());
        prop_assert!(report.is_clean(), "frozen engine raced:\n{}", report.render());
    }

    /// Race-free certification, adaptive engine: drift-triggered replans
    /// splice new suffix placements mid-run; seam edges must still order
    /// every suffix read after the splice.
    #[test]
    fn adaptive_runs_certify_race_free(
        dag_seed in 0u64..512,
        stages in 4usize..9,
        loss in 0.0f64..0.15,
        drift in 1.5f64..3.0,
        fault_seed in 0u64..u64::MAX,
    ) {
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let plan = FaultPlan::from_rates(FaultRates {
            loss_prob: loss,
            ..FaultRates::none(fault_seed)
        }).with_drift(drift);
        let ctx = ReschedulingContext {
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let obs = Recorder::new();
        Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy())
            .adaptive(&ctx, &AdaptiveConfig::default())
            .recorder(&obs)
            .run()
            .expect("bounded fault rates must recover within policy bounds");
        let report = check_trace(&obs.finish(), &opts());
        prop_assert!(report.is_clean(), "adaptive engine raced:\n{}", report.render());
    }
}
