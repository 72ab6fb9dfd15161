//! Discrete-event simulation of a scheduled job.
//!
//! Dependencies are stage-granular: a stage's tasks may start once every
//! upstream stage finished writing (intra-stage pipelining is modeled at
//! the time-model level via pipelining annotations, §4.5, not replayed
//! here). Task launch follows the NIMBLE just-in-time policy the paper
//! adopts for both systems (§5 "Task launch time"): containers start
//! `setup` seconds before their inputs are ready, so setup overlaps the
//! upstream tail and idle waiting is avoided — which is exactly what makes
//! late launching cost-neutral.
//!
//! The engine itself is [`Engine`]; this module keeps [`simulate`] — the
//! option-free shorthand — and the four `try_simulate_*` names the repo's
//! benchmark adapter imports. Each is a single-expression delegate to an
//! `Engine` builder chain and adds nothing; removing one needs a
//! benchmark issue first (`benchmark/README.md`). New code should build an
//! [`Engine`].

use crate::adaptive::AdaptiveConfig;
use crate::engine::Engine;
use crate::error::ExecError;
use crate::faults::{FaultPlan, RecoveryPolicy, ReschedulingContext};
use crate::groundtruth::GroundTruth;
use crate::journal::JournalSession;
use crate::metrics::JobMetrics;
use crate::trace::ExecutionTrace;
use ditto_core::Schedule;
use ditto_dag::JobDag;
use ditto_obs::Recorder;

/// Simulate `schedule` on `dag` under the ground truth. Returns the full
/// trace plus job metrics. Shorthand for `Engine::new(..).run()` that
/// panics on an invalid schedule or cyclic DAG.
///
/// ```
/// use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
/// use ditto_exec::{profile_job, simulate, ExecConfig, GroundTruth};
///
/// let dag = ditto_dag::generators::fig1_join();
/// let gt = GroundTruth::new(ExecConfig::default());
/// // Profile at a few DoPs, fit the model the scheduler will consume.
/// let (model, _) = profile_job(&dag, &gt, &[2, 4, 8]).build_model(&dag);
/// let rm = ditto_cluster::ResourceManager::from_free_slots(vec![10, 10]);
/// let schedule = DittoScheduler::new().schedule(&SchedulingContext {
///     dag: &dag, model: &model, resources: &rm, objective: Objective::Jct,
/// });
/// let (trace, metrics) = simulate(&dag, &schedule, &gt);
/// assert!(metrics.jct > 0.0);
/// assert_eq!(metrics.jct, trace.jct());
/// ```
#[expect(
    clippy::expect_used,
    reason = "documented panicking wrapper; try_simulate is the fallible API"
)]
pub fn simulate(dag: &JobDag, schedule: &Schedule, gt: &GroundTruth) -> (ExecutionTrace, JobMetrics) {
    Engine::new(dag, schedule, gt).run().expect("schedule must be valid for its DAG")
}

/// Delegate: `Engine::new(..).faults(plan, policy).failover(resched).run()`.
pub fn try_simulate_with_faults(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    resched: Option<&ReschedulingContext<'_>>,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    Engine::new(dag, schedule, gt).faults(plan, policy).failover(resched).run()
}

/// Delegate: [`try_simulate_with_faults`] plus `.recorder(obs)`.
pub fn try_simulate_with_faults_traced(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    resched: Option<&ReschedulingContext<'_>>,
    obs: &Recorder,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    Engine::new(dag, schedule, gt).faults(plan, policy).failover(resched).recorder(obs).run()
}

/// Delegate: [`try_simulate_with_faults_traced`] plus `.journal(session)`.
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_with_faults_journaled(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    resched: Option<&ReschedulingContext<'_>>,
    obs: &Recorder,
    session: &mut JournalSession,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    Engine::new(dag, schedule, gt)
        .faults(plan, policy)
        .failover(resched)
        .recorder(obs)
        .journal(session)
        .run()
}

/// Delegate: `Engine::new(..).faults(plan, policy).adaptive(ctx, cfg)
/// .recorder(obs).journal(session).run()`.
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_adaptive_journaled(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    ctx: &ReschedulingContext<'_>,
    cfg: &AdaptiveConfig,
    obs: &Recorder,
    session: &mut JournalSession,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    Engine::new(dag, schedule, gt)
        .faults(plan, policy)
        .adaptive(ctx, cfg)
        .recorder(obs)
        .journal(session)
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::ExecConfig;
    use ditto_cluster::ResourceManager;
    use ditto_core::baselines::{EvenSplitScheduler, NimbleScheduler};
    use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
    use ditto_storage::Medium;
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn run(
        dag: &JobDag,
        scheduler: &dyn Scheduler,
        free: &[u32],
        cfg: ExecConfig,
    ) -> (ExecutionTrace, JobMetrics) {
        let model = JobTimeModel::from_rates(dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = scheduler.schedule(&SchedulingContext {
            dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        simulate(dag, &schedule, &GroundTruth::new(cfg))
    }

    #[test]
    fn dependencies_are_respected() {
        let dag = ditto_dag::generators::q95_shape();
        let (trace, m) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig::default(),
        );
        assert!(m.jct > 0.0);
        // Every task of a downstream stage starts reading after all its
        // (non-pipelined) upstream stages' ends.
        for e in dag.edges().iter().filter(|e| !e.pipelined) {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                assert!(
                    t.read_start >= src_end - 1e-9,
                    "task of stage {} reads at {} before upstream {} ends at {}",
                    e.dst,
                    t.read_start,
                    e.src,
                    src_end
                );
            }
        }
    }

    #[test]
    fn setup_overlaps_wait() {
        let dag = ditto_dag::generators::chain(2, 1 << 30, 0.5);
        let (trace, _) = run(&dag, &EvenSplitScheduler, &[32], ExecConfig::default());
        // Downstream tasks launch before their read_start by exactly setup.
        let down: Vec<_> = trace.tasks.iter().filter(|t| t.stage == 1).collect();
        for t in down {
            assert!(t.launch < t.read_start);
            assert!(t.read_start - t.launch <= ExecConfig::default().task_overhead + 1e-9);
        }
    }

    #[test]
    fn ditto_beats_nimble_on_q95_sim() {
        let dag = ditto_dag::generators::q95_shape();
        let free = [96, 48, 24, 18, 12, 10, 8, 6];
        let cfg = ExecConfig::default();
        let (_, nimble) = run(&dag, &NimbleScheduler::default(), &free, cfg.clone());
        let (_, ditto) = run(&dag, &DittoScheduler::new(), &free, cfg);
        assert!(
            ditto.jct < nimble.jct,
            "ditto JCT {} should beat nimble {}",
            ditto.jct,
            nimble.jct
        );
    }

    #[test]
    fn redis_faster_than_s3() {
        let dag = ditto_dag::generators::q95_shape();
        let (_, s3) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig {
                external: Medium::S3,
                ..Default::default()
            },
        );
        let (_, redis) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig {
                external: Medium::Redis,
                ..Default::default()
            },
        );
        assert!(redis.jct < s3.jct);
        // But Redis persistence is priced while S3's is not.
        assert!(redis.storage_cost > s3.storage_cost);
    }

    #[test]
    fn metrics_consistent_with_trace() {
        let dag = ditto_dag::generators::fig1_join();
        let (trace, m) = run(&dag, &EvenSplitScheduler, &[30, 30], ExecConfig::default());
        assert!((m.jct - trace.jct()).abs() < 1e-12);
        assert!((m.compute_cost - trace.compute_cost()).abs() < 1e-12);
        assert!(m.total_cost() >= m.compute_cost);
    }

    #[test]
    fn pipelining_overlaps_and_never_hurts() {
        let mut dag = ditto_dag::generators::chain(3, 8 << 30, 0.8);
        let cfg = ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            jitter: 0.0,
            ..Default::default()
        };
        let (_, plain) = run(&dag, &EvenSplitScheduler, &[48], cfg.clone());
        dag.set_pipelined(ditto_dag::EdgeId(0), true);
        dag.set_pipelined(ditto_dag::EdgeId(1), true);
        let (trace, piped) = run(&dag, &EvenSplitScheduler, &[48], cfg);
        assert!(
            piped.jct < plain.jct,
            "pipelining should shorten the chain: {} vs {}",
            piped.jct,
            plain.jct
        );
        // Consumers may start early, but cannot finish reading before the
        // producer finishes writing.
        for e in dag.edges() {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                assert!(t.read_start < src_end, "reads overlap the producer");
                assert!(t.compute_start >= src_end - 1e-9, "but cannot outrun it");
            }
        }
    }

    #[test]
    fn placement_capacity_never_exceeded() {
        // No server hosts more concurrent tasks than it had free slots —
        // for any scheduler, at any point in simulated time.
        let free = [96u32, 48, 24, 18, 12, 10, 8, 6];
        let dag = ditto_dag::generators::q95_shape();
        for scheduler in [
            &DittoScheduler::new() as &dyn Scheduler,
            &NimbleScheduler::default(),
            &EvenSplitScheduler,
        ] {
            let (trace, _) = run(&dag, scheduler, &free, ExecConfig::default());
            for (server, peak) in trace.peak_server_occupancy() {
                assert!(
                    peak <= free[server as usize],
                    "{}: server {server} peaked at {peak} > {} free slots",
                    scheduler.name(),
                    free[server as usize]
                );
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let dag = ditto_dag::generators::q95_shape();
        let a = run(&dag, &DittoScheduler::new(), &[96; 8], ExecConfig::default());
        let b = run(&dag, &DittoScheduler::new(), &[96; 8], ExecConfig::default());
        assert_eq!(a.1, b.1);
    }
}
