#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

//! # ditto-exec — execution of scheduled jobs
//!
//! Everything here consumes the `Schedule` produced by `ditto-core`:
//!
//! * **Simulation** — [`Engine`]: one discrete-event simulator that plays
//!   a schedule against a *ground-truth* performance model
//!   (`groundtruth`) — per-task data skew, deterministic straggler
//!   noise, medium-dependent transfer times (shared memory / Redis / S3).
//!   The ground truth deliberately differs from the scheduler's fitted
//!   `α/d + β` model the way reality differs from a regression: that gap
//!   is what the paper's Fig. 11 measures. A run yields the JCT, cost and
//!   per-task timeline (`trace`) behind every evaluation figure, and is
//!   configured by composition — each option is one builder call:
//!
//!   | option | adds |
//!   |---|---|
//!   | [`.faults(plan, policy)`](Engine::faults) | injected crashes, stragglers, server and object loss, drift (`faults`) and their recovery |
//!   | [`.failover(ctx)`](Engine::failover) | failure-aware rescheduling of the not-yet-launched suffix |
//!   | [`.adaptive(ctx, cfg)`](Engine::adaptive) | online drift detection + elastic suffix re-optimization (`adaptive`) |
//!   | [`.recorder(obs)`](Engine::recorder) | telemetry: spans, fault and happens-before events |
//!   | [`.journal(session)`](Engine::journal) | write-ahead journal, crash and resume ([`journal`]) |
//!
//!   ```
//!   use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
//!   use ditto_exec::{Engine, ExecConfig, FaultPlan, FaultRates, GroundTruth, RecoveryPolicy};
//!   use ditto_timemodel::{model::RateConfig, JobTimeModel};
//!
//!   let dag = ditto_dag::generators::fig1_join();
//!   let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
//!   let rm = ditto_cluster::ResourceManager::from_free_slots(vec![10, 10]);
//!   let schedule = DittoScheduler::new().schedule(&SchedulingContext {
//!       dag: &dag, model: &model, resources: &rm, objective: Objective::Jct,
//!   });
//!   let gt = GroundTruth::new(ExecConfig::default());
//!   let (trace, plain) = Engine::new(&dag, &schedule, &gt).run().unwrap();
//!   assert_eq!(plain.jct, trace.jct());
//!   let plan = FaultPlan::from_rates(FaultRates { crash_prob: 0.2, ..FaultRates::none(7) });
//!   let policy = RecoveryPolicy::default();
//!   let (_, faulted) = Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap();
//!   assert!(faulted.jct >= plain.jct);
//!   ```
//!
//!   [`simulate`] is the option-free shorthand; the four `try_simulate_*`
//!   free functions are single-expression delegates kept for the repo's
//!   benchmark adapter (see `sim`). `explore` model-checks that a
//!   run's result does not depend on how simultaneous events are ordered.
//! * **Local runtime** (`runner`): a real multi-threaded executor that
//!   physically runs a `ditto-sql` query plan under a schedule — tasks on
//!   worker threads, intermediate tables encoded through the
//!   `ditto-storage` data plane (zero-copy shared-memory bus when the
//!   schedule co-locates, object store otherwise). It exists to prove the
//!   scheduling machinery drives a working analytics system, and to
//!   cross-check distributed results against single-threaded references.
//!
//! Simulator and runtime consume the same fault vocabulary (`faults`): a
//! deterministic seed-driven [`FaultPlan`] (task crashes, stragglers,
//! whole-server failures) plus a [`RecoveryPolicy`] (bounded retry with
//! backoff, speculative re-execution, failure-aware rescheduling through
//! the joint optimizer), and the same journal. Typed failures are
//! [`error::ExecError`].
//!
//! [`profile`] generates recurring-job profiles by "running" stages at a
//! few DoPs in the simulator — the input to `ditto-timemodel`'s fitting
//! (Table 2) and the accuracy experiment (Fig. 11).

pub(crate) mod adaptive;
pub(crate) mod engine;
pub(crate) mod error;
pub(crate) mod explore;
pub(crate) mod faults;
pub(crate) mod groundtruth;
pub mod journal;
pub(crate) mod metrics;
pub mod profile;
pub(crate) mod queue;
pub(crate) mod runner;
pub(crate) mod sim;
pub(crate) mod trace;

pub use adaptive::AdaptiveConfig;
pub use engine::Engine;
pub use error::ExecError;
pub use explore::{explore_random_dags, explore_schedule};
pub use faults::{
    AttemptOutcome, FaultEvent, FaultPlan, FaultRates, RecoveryPolicy, ReschedulingContext,
};
pub use groundtruth::{ExecConfig, GroundTruth};
pub use journal::{cross_check, decode_journal, validate_journal, JournalRecord, JournalSession};
pub use metrics::JobMetrics;
pub use profile::profile_job;
pub use runner::LocalRuntime;
pub use sim::{
    simulate, try_simulate_adaptive_journaled, try_simulate_with_faults,
    try_simulate_with_faults_journaled, try_simulate_with_faults_traced,
};
pub use trace::ExecutionTrace;
