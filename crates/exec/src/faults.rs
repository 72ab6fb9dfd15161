//! Fault injection and recovery: the failure-shaped execution layer.
//!
//! Serverless analytics runs on preemptible functions and shared servers;
//! the paper's schedules are only useful if they survive contact with
//! crashes, stragglers and server loss. This module provides one fault
//! vocabulary consumed by *both* engines (the discrete-event simulator and
//! the physical local runtime):
//!
//! * [`FaultPlan`] — a deterministic, seed-driven description of what goes
//!   wrong: explicit [`FaultEvent`]s (task crash at a fraction of its
//!   runtime, straggler slowdown multiplier, whole-server failure at time
//!   *t*) plus optional seeded random rates ([`FaultRates`]) that both
//!   engines expand identically per `(stage, task, attempt)`;
//! * [`RecoveryPolicy`] — how the system responds: bounded retry with
//!   exponential backoff, speculative re-execution of stragglers past a
//!   duration quantile, and failure-aware rescheduling (on server loss,
//!   surviving work is kept, the resource snapshot is shrunk, and
//!   [`ditto_core::joint_optimize`] replans the not-yet-started suffix of
//!   the DAG);
//! * [`AttemptRecord`] / [`FaultStats`] — attempt-level accounting
//!   (wasted GB·s, recovery delay) surfaced through
//!   [`ExecutionTrace`] and [`JobMetrics`].
//!
//! Everything is deterministic: the same plan, policy and seed reproduce
//! the same attempt history bit-for-bit, which is what the fixed-seed
//! fault tests and the fault-sweep benchmark rely on.

use crate::error::ExecError;
use crate::groundtruth::GroundTruth;
use crate::metrics::JobMetrics;
use crate::trace::{ExecutionTrace, TaskTrace};
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{JointOptions, Objective, Schedule};
use ditto_dag::{JobDag, StageId, StageKind};
use ditto_obs::{Recorder, StepTimings, Track};
use ditto_storage::{CostModel, Medium};
use ditto_timemodel::JobTimeModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Fault vocabulary
// ---------------------------------------------------------------------

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// A specific task attempt crashes after `at_fraction` of its runtime
    /// (its output is lost; the attempt is re-executed under the
    /// [`RecoveryPolicy`]).
    TaskCrash {
        /// Stage of the doomed task.
        stage: StageId,
        /// Task index within the stage.
        task: u32,
        /// Which attempt dies (0 = the first execution).
        attempt: u32,
        /// Fraction of the attempt's runtime at which it dies, in (0, 1).
        at_fraction: f64,
    },
    /// A task runs `slowdown`× slower than its ground-truth time (an
    /// injected straggler, on top of any ground-truth noise).
    Straggler {
        /// Stage of the straggling task.
        stage: StageId,
        /// Task index within the stage.
        task: u32,
        /// Multiplier > 1 applied to the task's read/compute/write steps.
        slowdown: f64,
    },
    /// A whole server dies at `at_time` seconds into the job: attempts
    /// running on it are killed, and work not yet started may be
    /// rescheduled onto the survivors.
    ServerFailure {
        /// The failing server.
        server: ServerId,
        /// Absolute failure time, seconds since job submission.
        at_time: f64,
    },
    /// The externally stored output objects of one producer task vanish
    /// (storage node eviction, TTL expiry). Detected by the first
    /// consumer's read; healed by lineage re-execution of the producer.
    /// No effect on shared-memory edges (nothing external to lose).
    ObjectLoss {
        /// Producing stage.
        stage: StageId,
        /// Producing task index.
        task: u32,
    },
    /// The externally stored output objects of one producer task are
    /// silently corrupted; the consumer's checksum verification catches
    /// the mismatch on read and lineage re-execution heals it.
    ObjectCorruption {
        /// Producing stage.
        stage: StageId,
        /// Producing task index.
        task: u32,
    },
    /// Environmental drift: every task's *compute* step runs `factor`×
    /// slower than the fitted model predicted (CPU contention, thermal
    /// throttling). Deliberately compute-only — uniform drift over all
    /// steps scales α and β together and leaves the Eq. 3/4 DoP ratios
    /// unchanged, so only differential drift makes re-planning matter.
    DriftInflation {
        /// Multiplier ≥ 0 applied to compute-step durations (values are
        /// clamped to a sane floor when consumed).
        factor: f64,
    },
    /// Differential drift: the compute steps of every stage of one
    /// [`StageKind`] run `factor`× slower (a co-tenant pinning the cores
    /// the scan fleet runs on, a UDF regression in the map containers).
    /// This is the drift that *matters* to the planner — it changes the
    /// Eq. 3/4 DoP ratios, so the adaptive engine's per-stage-type
    /// corrections can actually move slots. Stacks multiplicatively with
    /// [`FaultEvent::DriftInflation`].
    KindDrift {
        /// Stage type whose compute drifts.
        kind: StageKind,
        /// Multiplier ≥ 0 applied to matching stages' compute steps.
        factor: f64,
    },
    /// The coordinator itself dies at an arbitrary journal instant: the
    /// append of the `at_record`-th journal record is torn half-way and
    /// the engine fails with [`ExecError::CoordinatorCrash`]. Only
    /// consulted by the journaled entry points
    /// ([`crate::journal::JournalSession::fresh_from_plan`]) — the
    /// unjournaled engines have no coordinator state to lose.
    ///
    /// [`ExecError::CoordinatorCrash`]: crate::error::ExecError::CoordinatorCrash
    CoordinatorCrash {
        /// Journal record index (0-based append count) to crash at.
        at_record: u64,
    },
}

/// What happened to one producer task's stored output, per
/// [`FaultPlan::object_fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectFaultKind {
    /// The object is gone (read returns not-found).
    Loss,
    /// The object is present but fails checksum verification.
    Corruption,
}

/// Seeded random fault rates, expanded deterministically per
/// `(stage, task, attempt)` — the "config" form of a [`FaultPlan`]. Both
/// engines draw from identical per-key RNG streams, so a seed names one
/// reproducible fault history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that any given task attempt crashes (independent per
    /// attempt, clamped to ≤ 0.999 so retries terminate almost surely).
    pub crash_prob: f64,
    /// Probability a task is an injected straggler.
    pub straggler_prob: f64,
    /// Slowdown multiplier applied to injected stragglers.
    pub straggler_slowdown: f64,
    /// Probability a producer task's stored output is lost before its
    /// first consumer reads it.
    pub loss_prob: f64,
    /// Probability a producer task's stored output is corrupted (checked
    /// only when the loss roll missed).
    pub corruption_prob: f64,
    /// Determinism seed.
    pub seed: u64,
}

impl FaultRates {
    /// Rates that inject nothing (useful as a base for struct update).
    pub fn none(seed: u64) -> Self {
        FaultRates {
            crash_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            loss_prob: 0.0,
            corruption_prob: 0.0,
            seed,
        }
    }
}

/// A deterministic description of every fault injected into one run:
/// explicit events plus optional seeded random rates. The plan is pure
/// data — engines *ask* it what happens to `(stage, task, attempt)` and
/// get the same answer every time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Explicit injected events (checked before the random rates).
    pub events: Vec<FaultEvent>,
    /// Optional seeded random fault generation.
    pub rates: Option<FaultRates>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit event list.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events, rates: None }
    }

    /// A plan from seeded random rates.
    pub fn from_rates(rates: FaultRates) -> Self {
        FaultPlan { events: Vec::new(), rates: Some(rates) }
    }

    /// Seed-driven crash injection only: every task attempt crashes with
    /// probability `crash_prob`.
    pub fn with_random_crashes(crash_prob: f64, seed: u64) -> Self {
        FaultPlan::from_rates(FaultRates {
            crash_prob,
            ..FaultRates::none(seed)
        })
    }

    /// Append a whole-server failure at `at_time` (builder style).
    pub fn and_server_failure(mut self, server: ServerId, at_time: f64) -> Self {
        self.events.push(FaultEvent::ServerFailure { server, at_time });
        self
    }

    /// Append an object loss for one producer task (builder style).
    pub fn and_object_loss(mut self, stage: StageId, task: u32) -> Self {
        self.events.push(FaultEvent::ObjectLoss { stage, task });
        self
    }

    /// Append an object corruption for one producer task (builder style).
    pub fn and_object_corruption(mut self, stage: StageId, task: u32) -> Self {
        self.events.push(FaultEvent::ObjectCorruption { stage, task });
        self
    }

    /// Append a global compute-drift inflation (builder style). Multiple
    /// drift events multiply.
    pub fn with_drift(mut self, factor: f64) -> Self {
        self.events.push(FaultEvent::DriftInflation { factor });
        self
    }

    /// Append a stage-type-scoped compute drift (builder style). Stacks
    /// multiplicatively with global drift and other kind drifts.
    pub fn with_kind_drift(mut self, kind: StageKind, factor: f64) -> Self {
        self.events.push(FaultEvent::KindDrift { kind, factor });
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.rates.is_none_or(|r| {
                r.crash_prob <= 0.0
                    && r.straggler_prob <= 0.0
                    && r.loss_prob <= 0.0
                    && r.corruption_prob <= 0.0
            })
    }

    /// The product of every injected [`FaultEvent::DriftInflation`]
    /// factor, floored at 0.01 so a zero cannot collapse the timeline.
    /// 1.0 when no drift is injected.
    pub fn drift_factor(&self) -> f64 {
        let mut f = 1.0;
        for e in &self.events {
            if let FaultEvent::DriftInflation { factor } = e {
                f *= factor.max(0.01);
            }
        }
        f
    }

    /// The effective compute-drift factor for a stage of `kind`: the
    /// global [`Self::drift_factor`] times every matching
    /// [`FaultEvent::KindDrift`] factor (same floor).
    pub fn drift_factor_for(&self, kind: StageKind) -> f64 {
        let mut f = self.drift_factor();
        for e in &self.events {
            if let FaultEvent::KindDrift { kind: k, factor } = e {
                if *k == kind {
                    f *= factor.max(0.01);
                }
            }
        }
        f
    }

    /// What happens to the stored output of producer `(stage, task)`.
    /// Explicit events win (loss over corruption); otherwise the seeded
    /// rates roll once per producer task, independent of execution order.
    pub fn object_fault(&self, stage: StageId, task: u32) -> Option<ObjectFaultKind> {
        let mut hit = None;
        for e in &self.events {
            match e {
                FaultEvent::ObjectLoss { stage: es, task: et } if *es == stage && *et == task => {
                    return Some(ObjectFaultKind::Loss);
                }
                FaultEvent::ObjectCorruption { stage: es, task: et }
                    if *es == stage && *et == task =>
                {
                    hit = Some(ObjectFaultKind::Corruption);
                }
                _ => {}
            }
        }
        if hit.is_some() {
            return hit;
        }
        let r = self.rates?;
        if r.loss_prob <= 0.0 && r.corruption_prob <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(
            r.seed
                .wrapping_mul(0x94d0_49bb_1331_11eb)
                .wrapping_add(((stage.0 as u64) << 24) | task as u64),
        );
        let roll = rng.gen::<f64>();
        let loss = r.loss_prob.clamp(0.0, 1.0);
        let corrupt = r.corruption_prob.clamp(0.0, 1.0);
        if roll < loss {
            Some(ObjectFaultKind::Loss)
        } else if roll < loss + corrupt {
            Some(ObjectFaultKind::Corruption)
        } else {
            None
        }
    }

    /// Does attempt `attempt` of `(stage, task)` crash — and if so, after
    /// what fraction of its runtime? Explicit events win over random
    /// rates. The random stream keys on `(seed, stage, task, attempt)`,
    /// so the decision is independent of execution order.
    pub fn crash_point(&self, stage: StageId, task: u32, attempt: u32) -> Option<f64> {
        for e in &self.events {
            if let FaultEvent::TaskCrash {
                stage: es,
                task: et,
                attempt: ea,
                at_fraction,
            } = e
            {
                if *es == stage && *et == task && *ea == attempt {
                    return Some(at_fraction.clamp(1e-3, 0.999));
                }
            }
        }
        let r = self.rates?;
        if r.crash_prob <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(
            r.seed
                .wrapping_mul(0xa076_1d64_78bd_642f)
                .wrapping_add(((stage.0 as u64) << 40) | ((task as u64) << 16) | attempt as u64),
        );
        if rng.gen_bool(r.crash_prob.clamp(0.0, 0.999)) {
            Some(0.1 + 0.8 * rng.gen::<f64>())
        } else {
            None
        }
    }

    /// The injected slowdown multiplier of `(stage, task)` (1.0 = none).
    /// Explicit straggler events multiply; the random rate adds its
    /// multiplier on top when its per-task roll hits.
    pub fn slowdown(&self, stage: StageId, task: u32) -> f64 {
        let mut m = 1.0;
        for e in &self.events {
            if let FaultEvent::Straggler {
                stage: es,
                task: et,
                slowdown,
            } = e
            {
                if *es == stage && *et == task {
                    m *= slowdown.max(1.0);
                }
            }
        }
        if let Some(r) = self.rates {
            if r.straggler_prob > 0.0 {
                let mut rng = StdRng::seed_from_u64(
                    r.seed
                        .wrapping_mul(0x517c_c1b7_2722_0a95)
                        .wrapping_add(((stage.0 as u64) << 24) | task as u64),
                );
                if rng.gen_bool(r.straggler_prob.clamp(0.0, 1.0)) {
                    m *= r.straggler_slowdown.max(1.0);
                }
            }
        }
        m
    }

    /// The earliest seeded coordinator crash point, if any (only the
    /// first is armed; a crash can only happen once per incarnation).
    pub fn coordinator_crash(&self) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CoordinatorCrash { at_record } => Some(*at_record),
                _ => None,
            })
            .min()
    }

    /// The first (earliest) whole-server failure, if any. Only one server
    /// failure is applied per run; later ones are ignored.
    pub fn first_server_failure(&self) -> Option<(ServerId, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::ServerFailure { server, at_time } => Some((*server, *at_time)),
                _ => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

// ---------------------------------------------------------------------
// Recovery policy
// ---------------------------------------------------------------------

/// How the system reacts to injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum re-executions per task before the run fails with
    /// [`ExecError::RetriesExhausted`].
    pub max_retries: u32,
    /// Base backoff before re-executing a crashed attempt, seconds; the
    /// wait doubles per attempt (exponential backoff).
    pub backoff_base: f64,
    /// Enable speculative re-execution of stragglers.
    pub speculation: bool,
    /// A task is a speculation candidate once its duration exceeds this
    /// quantile of its stage's task durations…
    pub speculation_quantile: f64,
    /// …multiplied by this factor (> 1 avoids speculating the median).
    pub speculation_factor: f64,
    /// On whole-server failure, shrink the resource snapshot and re-run
    /// the joint optimizer for the not-yet-started suffix of the DAG
    /// (requires a [`ReschedulingContext`]).
    pub reschedule_on_server_failure: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            backoff_base: 0.05,
            speculation: true,
            speculation_quantile: 0.75,
            speculation_factor: 1.5,
            reschedule_on_server_failure: true,
        }
    }
}

impl RecoveryPolicy {
    /// No recovery at all: unlimited plain retries, no backoff, no
    /// speculation, no rescheduling. This is what the fault-free engines
    /// run under — it reproduces pre-fault behavior exactly.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: u32::MAX,
            backoff_base: 0.0,
            speculation: false,
            speculation_quantile: 1.0,
            speculation_factor: 1.0,
            reschedule_on_server_failure: false,
        }
    }

    /// Retry-only variant of the default policy (no speculation).
    pub fn retry_only() -> Self {
        RecoveryPolicy {
            speculation: false,
            ..Default::default()
        }
    }

    /// Backoff before re-execution number `retry` (0-based), seconds.
    pub fn backoff(&self, retry: u32) -> f64 {
        self.backoff_base * f64::powi(2.0, retry.min(20) as i32)
    }
}

// ---------------------------------------------------------------------
// Attempt-level accounting
// ---------------------------------------------------------------------

/// What happened to one task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum AttemptOutcome {
    /// The attempt finished and its output was used.
    Completed,
    /// The attempt crashed (injected task crash) before publishing.
    Crashed,
    /// The attempt died with its server.
    ServerLost,
    /// The attempt was killed because a sibling copy finished first
    /// (speculation: either the slow original or the losing copy).
    Superseded,
}

/// One task attempt: recorded for every execution that experienced a
/// fault, plus the final successful attempt of any task that needed more
/// than one. Fault-free tasks produce no records.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AttemptRecord {
    /// Stage index.
    pub stage: u32,
    /// Task index within the stage.
    pub task: u32,
    /// Attempt number (0 = first execution; speculation copies continue
    /// the sequence).
    pub attempt: u32,
    /// Server the attempt ran on.
    pub server: ServerId,
    /// Attempt start, seconds since job submission.
    pub start: f64,
    /// When it finished or died, seconds since job submission.
    pub end: f64,
    /// Outcome.
    pub outcome: AttemptOutcome,
    /// Billed-but-discarded work: memory × runtime for non-completed
    /// attempts, GB·s.
    pub wasted_gb_s: f64,
    /// Whether this execution was a speculative backup copy. Speculative
    /// copies run *in addition to* the original without reserving a slot
    /// (the engine's documented simplification), so the race checker
    /// grades their concurrent occupancy as a warning, not an error.
    pub speculative: bool,
}

/// Aggregated fault statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct FaultStats {
    /// Attempts beyond one per task (crashed + killed + superseded).
    pub extra_attempts: u32,
    /// Total wasted work across failed attempts, GB·s.
    pub wasted_gb_s: f64,
    /// Machine-time overhead of recovery: runtime consumed by failed
    /// attempts plus all backoff waits, seconds (an upper bound on the
    /// serial JCT delay).
    pub recovery_delay_s: f64,
    /// Whole-server failures applied.
    pub server_failures: u32,
    /// Stages replanned by failure-aware rescheduling.
    pub rescheduled_stages: u32,
    /// Speculative copies launched.
    pub speculative_copies: u32,
    /// Intermediate objects lost before their first read.
    pub object_losses: u32,
    /// Intermediate objects that failed checksum verification on read.
    pub object_corruptions: u32,
    /// Producer tasks re-executed to regenerate lost or corrupt objects.
    pub lineage_reexecs: u32,
    /// Always 0: no engine re-reads a missing or corrupt object (lineage
    /// re-execution heals it at once). Kept for the journal's `FaultStats`
    /// encoding and the benchmark's `storage.read_retries`.
    pub storage_retries: u64,
}

impl FaultStats {
    /// Fold another run's stats into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.extra_attempts += other.extra_attempts;
        self.wasted_gb_s += other.wasted_gb_s;
        self.recovery_delay_s += other.recovery_delay_s;
        self.server_failures += other.server_failures;
        self.rescheduled_stages += other.rescheduled_stages;
        self.speculative_copies += other.speculative_copies;
        self.object_losses += other.object_losses;
        self.object_corruptions += other.object_corruptions;
        self.lineage_reexecs += other.lineage_reexecs;
        self.storage_retries += other.storage_retries;
    }
}

// ---------------------------------------------------------------------
// Failure-aware rescheduling context
// ---------------------------------------------------------------------

/// What the simulator needs to replan after a server failure: the fitted
/// time model and the pre-failure resource snapshot the original schedule
/// was computed against.
#[derive(Debug, Clone)]
pub struct ReschedulingContext<'a> {
    /// The job's fitted execution-time model.
    pub model: &'a JobTimeModel,
    /// Resource snapshot *before* the failure (the failed server is
    /// removed internally).
    pub resources: &'a ResourceManager,
    /// Objective to re-optimize for.
    pub objective: Objective,
    /// Joint-optimizer options.
    pub options: JointOptions,
}

// ---------------------------------------------------------------------
// Per-stage simulation (driven by `crate::engine`)
// ---------------------------------------------------------------------

/// Result of one full pass of the engine's driver over the DAG.
pub(crate) struct SimPass {
    pub(crate) trace: ExecutionTrace,
    pub(crate) metrics: JobMetrics,
    /// Per-stage container launch time (JIT launch of the first attempts).
    pub(crate) stage_launch: Vec<f64>,
}

/// Mutable state threaded through one engine pass: per-stage timeline
/// gates, accounting, and the recovery bookkeeping. Frozen and adaptive
/// runs drive the *same* [`sim_stage`] over it — that is what makes an
/// adaptive run bit-identical to a frozen one when it never replans.
pub(crate) struct SimState {
    pub(crate) failure: Option<(ServerId, f64)>,
    pub(crate) restart_server: Option<ServerId>,
    pub(crate) stage_end: Vec<f64>,
    pub(crate) stage_write_start: Vec<f64>,
    pub(crate) stage_read_end: Vec<f64>,
    pub(crate) stage_launch: Vec<f64>,
    /// Mean observed per-step durations per stage (drift-detector food):
    /// the as-executed setup/read/compute/write including injected
    /// slowdowns, drift and lineage-recovery waits.
    pub(crate) stage_observed: Vec<StepTimings>,
    /// Mean *expected* per-step durations per stage — the clean timings
    /// under the schedule that ran it, with no drift, slowdown or
    /// recovery. The predicted side of the drift detector's ratio (a
    /// physical deployment would use the fitted model's prediction here;
    /// the simulator's expectation is the clean ground truth).
    pub(crate) stage_clean: Vec<StepTimings>,
    /// Clean single-attempt duration per (stage, task) under the schedule
    /// that ran it — the cost of a lineage re-execution of that task.
    pub(crate) task_clean_time: Vec<Vec<f64>>,
    /// Exchange medium per edge, recorded when the consumer stage runs
    /// (the schedule may change mid-run under the adaptive engine).
    pub(crate) edge_medium: Vec<Option<Medium>>,
    /// Lineage healing in flight: `(stage, task)` of a faulted producer →
    /// the sim time its regenerated object becomes available. The first
    /// reader (earliest ready; queue order guarantees it) pays the
    /// re-execution and sets the entry; any reader arriving before
    /// `heal_end` waits for the remainder instead of reading the stale
    /// object.
    pub(crate) heal_end: std::collections::BTreeMap<(u32, u32), f64>,
    pub(crate) trace: ExecutionTrace,
    /// Run-level accounting not attributable to one stage (server
    /// failures, replan counts, physical storage retries).
    pub(crate) stats: FaultStats,
    /// Per-stage fault accounting, folded in stage-id order by
    /// [`Self::total_stats`] so the totals are independent of the order
    /// simultaneous stages were simulated in (f64 addition is not
    /// associative; a fixed fold order makes the sums bit-stable).
    /// Lineage-healing charges land in the *producer* stage's bucket.
    pub(crate) stage_stats: Vec<FaultStats>,
    /// Every lineage re-execution paid this run, in detection order —
    /// recorded unconditionally (not just when tracing) so journal
    /// checkpoints carry what a restored stage must re-emit.
    pub(crate) lineage_log: Vec<crate::journal::LineageHit>,
}

impl SimState {
    pub(crate) fn new(dag: &JobDag, plan: &FaultPlan, schedule: &Schedule) -> Self {
        let n = dag.num_stages();
        let failure = plan.first_server_failure();
        SimState {
            failure,
            restart_server: failure.map(|(failed, _)| pick_survivor(schedule, failed)),
            stage_end: vec![0.0; n],
            stage_write_start: vec![0.0; n],
            stage_read_end: vec![0.0; n],
            stage_launch: vec![0.0; n],
            stage_observed: vec![StepTimings::zero(); n],
            stage_clean: vec![StepTimings::zero(); n],
            task_clean_time: vec![Vec::new(); n],
            edge_medium: vec![None; dag.num_edges()],
            heal_end: Default::default(),
            trace: ExecutionTrace::default(),
            stats: FaultStats {
                server_failures: if failure.is_some() { 1 } else { 0 },
                ..Default::default()
            },
            stage_stats: vec![FaultStats::default(); n],
            lineage_log: Vec::new(),
        }
    }

    /// Fold the run-level stats and every per-stage bucket (stage-id
    /// order) into one total. Bit-stable across simulation orders.
    pub(crate) fn total_stats(&self) -> FaultStats {
        let mut total = self.stats;
        for bucket in &self.stage_stats {
            total.absorb(bucket);
        }
        total
    }

    /// Where the next stage's rows will start in the trace and lineage
    /// log: taken before a stage runs (or is restored), it delimits the
    /// rows [`emit_stage`] reports and the journal checkpoints.
    pub(crate) fn mark(&self) -> StageMark {
        StageMark {
            tasks: self.trace.tasks.len(),
            attempts: self.trace.attempts.len(),
            lineage: self.lineage_log.len(),
        }
    }

    /// Emit the run-level telemetry header (track names, server-failure
    /// announcement). Call once before the first [`sim_stage`].
    pub(crate) fn announce(&self, obs: &Recorder) {
        if obs.is_enabled() {
            obs.name_track(Track::JOB_GROUP, "job");
            obs.name_track(Track::STORAGE_GROUP, "storage");
            if let Some((failed, at)) = self.failure {
                obs.event(
                    "fault.server_failed",
                    Track::job(0),
                    at,
                    vec![("server", (failed.index() as u64).into())],
                );
            }
        }
    }
}

/// Row offsets of one stage's output inside [`SimState`] (see
/// [`SimState::mark`]). A stage's task, attempt and lineage rows are
/// appended contiguously while it runs, so the tail past the mark is
/// exactly that stage's rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageMark {
    pub(crate) tasks: usize,
    pub(crate) attempts: usize,
    pub(crate) lineage: usize,
}

/// Final timeline of one task after its attempt history.
struct TaskOutcome {
    server: ServerId,
    first_launch: f64,
    launch: f64,
    read_start: f64,
    compute_start: f64,
    write_start: f64,
    end: f64,
    attempts: u32,
    /// Attempt index of the execution that produced the surviving output.
    final_attempt: u32,
    /// Whether the surviving output came from a speculative copy.
    final_is_spec: bool,
    records: Vec<AttemptRecord>,
}

/// The pre-recovery ready time of stage `s`: the max over in-edges of the
/// producer's write start (pipelined) or end (blocking). Both the ready
/// queue's ordering key and the gate [`sim_stage`] starts from.
pub(crate) fn ready_time(state: &SimState, dag: &JobDag, s: StageId) -> f64 {
    let mut ready = 0.0_f64;
    for e in dag.in_edges(s) {
        if e.pipelined {
            ready = ready.max(state.stage_write_start[e.src.index()]);
        } else {
            ready = ready.max(state.stage_end[e.src.index()]);
        }
    }
    ready
}

/// Simulate one stage under the current schedule, updating `state`.
///
/// This is the per-stage simulator the engine's pass driver calls for
/// every stage it does not restore from a journal checkpoint: a frozen
/// run passes its fixed schedule, an adaptive run whichever schedule is
/// current. It applies injected slowdowns, global compute drift
/// ([`FaultPlan::drift_factor`]), crash/retry/speculation recovery, and
/// lineage re-execution of upstream tasks whose stored outputs were lost
/// or corrupted. It emits no telemetry: the rows it appends to `state`
/// are what [`emit_stage`] reports.
pub(crate) fn sim_stage(
    state: &mut SimState,
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    s: StageId,
) -> Result<(), ExecError> {
    let failure = state.failure;
    let restart_server = state.restart_server;
    let drift = plan.drift_factor_for(dag.stages()[s.index()].kind);
    {
        // Non-pipelined edges gate on the producer's write completion;
        // pipelined edges (§4.5) let the consumer start streaming at the
        // producer's write *start*, but it cannot finish reading before
        // the producer finishes emitting.
        let mut ready = ready_time(state, dag, s);
        let mut read_gate = dag
            .in_edges(s)
            .filter(|e| e.pipelined)
            .fold(0.0_f64, |gate, e| gate.max(state.stage_end[e.src.index()]));
        // Lineage recovery: lost or corrupt upstream objects are detected
        // by their first reader and healed by re-executing the producing
        // task. The first reader (earliest ready time; the ready queue
        // pops it first) pays the full re-execution and publishes
        // `heal_end`; any other reader arriving before that instant waits
        // for the remainder — reading earlier would consume the stale
        // object the checksum already rejected. Recoveries of independent
        // objects overlap, so the stage waits for the slowest one.
        let mut recovery = 0.0_f64;
        for e in dag.in_edges(s) {
            let medium = gt.edge_medium(schedule, e.id.index());
            state.edge_medium[e.id.index()] = Some(medium);
            if medium == Medium::SharedMemory {
                continue; // nothing externally stored to lose
            }
            let src = e.src;
            let producers = state.task_clean_time[src.index()].len();
            for tp in 0..producers as u32 {
                let Some(kind) = plan.object_fault(src, tp) else {
                    continue;
                };
                if let Some(&healed_at) = state.heal_end.get(&(src.0, tp)) {
                    // Healing already in flight (or done): wait for the
                    // regenerated object, pay nothing.
                    if ready < healed_at {
                        recovery = recovery.max(healed_at - ready);
                    }
                    continue;
                }
                let reexec = state.task_clean_time[src.index()][tp as usize];
                state.heal_end.insert((src.0, tp), ready + reexec);
                let d_src = producers as u32;
                let wasted = gt.task_memory_gb(dag, src, d_src) * reexec;
                // Charges go to the *producer* stage's bucket: the healed
                // task belongs to `src`, and producer-keyed attribution
                // keeps the totals independent of which reader got there
                // first.
                let bucket = &mut state.stage_stats[src.index()];
                match kind {
                    ObjectFaultKind::Loss => bucket.object_losses += 1,
                    ObjectFaultKind::Corruption => bucket.object_corruptions += 1,
                }
                bucket.lineage_reexecs += 1;
                bucket.extra_attempts += 1;
                bucket.wasted_gb_s += wasted;
                bucket.recovery_delay_s += reexec;
                recovery = recovery.max(reexec);
                state.lineage_log.push(crate::journal::LineageHit {
                    reader_stage: s.0,
                    src_stage: src.0,
                    src_task: tp,
                    corrupt: kind == ObjectFaultKind::Corruption,
                    detect_at: ready,
                    reexec_s: reexec,
                });
            }
        }
        ready += recovery;
        if read_gate > 0.0 {
            read_gate += recovery;
        }
        let steps = gt.stage_tasks(dag, schedule, s);
        let d = schedule.dop[s.index()];
        let mem = gt.task_memory_gb(dag, s, d);
        let placement = &schedule.placement[s.index()];

        // Summed as-executed and clean step durations, for the drift
        // detector's per-stage means below.
        let mut obs_sum = StepTimings::zero();
        let mut clean_sum = StepTimings::zero();
        let mut outcomes: Vec<TaskOutcome> = Vec::with_capacity(steps.len());
        for (t, st) in steps.iter().enumerate() {
            let t = t as u32;
            let slow = plan.slowdown(s, t);
            let (read, compute, write) =
                (st.read * slow, st.compute * slow * drift, st.write * slow);
            obs_sum.accumulate(&StepTimings::new(st.setup, read, compute, write));
            clean_sum.accumulate(&StepTimings::new(st.setup, st.read, st.compute, st.write));
            state.task_clean_time[s.index()].push(st.setup + read + compute + write);
            let mut server = placement.server_of_task(t);
            let mut records = Vec::new();
            let mut attempt = 0u32;
            // JIT launch: setup overlaps the wait for inputs.
            let first_launch = (ready - st.setup).max(0.0);
            let mut launch = first_launch;
            let outcome = loop {
                // An attempt launching after its server already died is
                // placed on a survivor by the platform.
                if let (Some((failed, at)), Some(alt)) = (failure, restart_server) {
                    if server == failed && launch >= at {
                        server = alt;
                    }
                }
                let read_start = (launch + st.setup).max(ready);
                let compute_start = (read_start + read).max(read_gate);
                let write_start = compute_start + compute;
                let end = write_start + write;

                let crash = plan
                    .crash_point(s, t, attempt)
                    .map(|f| (launch + f * (end - launch), AttemptOutcome::Crashed));
                let killed = match failure {
                    Some((failed, at)) if server == failed && launch <= at && at < end => {
                        Some((at, AttemptOutcome::ServerLost))
                    }
                    _ => None,
                };
                let death = match (crash, killed) {
                    (Some(c), Some(k)) => Some(if c.0 <= k.0 { c } else { k }),
                    (c, k) => c.or(k),
                };
                match death {
                    None => {
                        break TaskOutcome {
                            server,
                            first_launch,
                            launch,
                            read_start,
                            compute_start,
                            write_start,
                            end,
                            attempts: attempt + 1,
                            final_attempt: attempt,
                            final_is_spec: false,
                            records,
                        }
                    }
                    Some((when, why)) => {
                        let wasted = mem * (when - launch).max(0.0);
                        records.push(AttemptRecord {
                            stage: s.0,
                            task: t,
                            attempt,
                            server,
                            start: launch,
                            end: when,
                            outcome: why,
                            wasted_gb_s: wasted,
                            speculative: false,
                        });
                        let bucket = &mut state.stage_stats[s.index()];
                        bucket.extra_attempts += 1;
                        bucket.wasted_gb_s += wasted;
                        bucket.recovery_delay_s += (when - launch).max(0.0);
                        if why == AttemptOutcome::ServerLost {
                            if let Some(alt) = restart_server {
                                server = alt;
                            }
                        }
                        if attempt >= policy.max_retries {
                            return Err(ExecError::RetriesExhausted {
                                stage: s.0,
                                task: t,
                                attempts: attempt + 1,
                            });
                        }
                        let wait = policy.backoff(attempt);
                        bucket.recovery_delay_s += wait;
                        attempt += 1;
                        launch = when + wait;
                    }
                }
            };
            outcomes.push(outcome);
        }

        // Speculative re-execution: tasks running past a quantile of the
        // stage's durations get a clean copy (no injected slowdown) at
        // the threshold; whichever finishes first wins, the loser is
        // killed and its work accounted as wasted.
        if policy.speculation && outcomes.len() >= 2 {
            let mut durs: Vec<f64> = outcomes
                .iter()
                .map(|o| o.end - o.first_launch)
                .collect();
            durs.sort_by(f64::total_cmp);
            let idx = (((durs.len() - 1) as f64) * policy.speculation_quantile.clamp(0.0, 1.0))
                .round() as usize;
            let threshold = durs[idx] * policy.speculation_factor.max(1.0);
            for (t, o) in outcomes.iter_mut().enumerate() {
                let dur = o.end - o.first_launch;
                if dur <= threshold + 1e-12 || threshold <= 0.0 {
                    continue;
                }
                let st = &steps[t];
                let spec_launch = o.first_launch + threshold;
                let rs = (spec_launch + st.setup).max(ready);
                let cs = (rs + st.read).max(read_gate);
                // A clean copy escapes the per-task slowdown but not the
                // environmental compute drift.
                let ws = cs + st.compute * drift;
                let se = ws + st.write;
                let bucket = &mut state.stage_stats[s.index()];
                bucket.speculative_copies += 1;
                let spec_attempt = o.attempts; // next index in the sequence
                // Whichever execution finishes second is superseded and
                // what it ran is wasted: if the copy wins, the original is
                // killed at the copy's finish (or cancelled outright if it
                // had not launched yet); a losing copy is killed when the
                // original ends.
                let copy_wins = se < o.end;
                let (attempt, start, end) = if copy_wins {
                    (o.attempts - 1, o.launch, se.max(o.launch))
                } else {
                    (spec_attempt, spec_launch, o.end)
                };
                let ran = (end - start).max(0.0);
                o.records.push(AttemptRecord {
                    stage: s.0,
                    task: t as u32,
                    attempt,
                    server: o.server,
                    start,
                    end,
                    outcome: AttemptOutcome::Superseded,
                    wasted_gb_s: mem * ran,
                    speculative: !copy_wins,
                });
                bucket.extra_attempts += 1;
                bucket.wasted_gb_s += mem * ran;
                bucket.recovery_delay_s += ran;
                o.attempts += 1;
                if copy_wins {
                    o.launch = spec_launch;
                    o.read_start = rs;
                    o.compute_start = cs;
                    o.write_start = ws;
                    o.end = se;
                    o.final_attempt = spec_attempt;
                    o.final_is_spec = true;
                }
            }
        }

        let mut end = ready;
        let mut wstart = f64::MAX;
        let mut rend: f64 = 0.0;
        state.stage_launch[s.index()] = outcomes
            .iter()
            .map(|o| o.first_launch)
            .fold(f64::MAX, f64::min)
            .min(ready);
        // Mean as-executed step durations, for the drift detector. The
        // lineage-recovery wait lands on the read step: that is where the
        // first reader stalls, and what makes sustained object loss look
        // like storage drift to the monitor.
        let inv = 1.0 / (steps.len().max(1)) as f64;
        let mut observed = obs_sum.scaled(inv);
        observed.read += recovery;
        state.stage_observed[s.index()] = observed;
        state.stage_clean[s.index()] = clean_sum.scaled(inv);
        for (t, mut o) in outcomes.into_iter().enumerate() {
            end = end.max(o.end);
            wstart = wstart.min(o.write_start);
            rend = rend.max(o.compute_start);
            if !o.records.is_empty() {
                // Close the sequence with the winning attempt.
                o.records.push(AttemptRecord {
                    stage: s.0,
                    task: t as u32,
                    attempt: o.final_attempt,
                    server: o.server,
                    start: o.launch,
                    end: o.end,
                    outcome: AttemptOutcome::Completed,
                    wasted_gb_s: 0.0,
                    speculative: o.final_is_spec,
                });
            }
            state.trace.tasks.push(TaskTrace {
                stage: s.0,
                task: t as u32,
                server: o.server,
                launch: o.launch,
                read_start: o.read_start,
                compute_start: o.compute_start,
                write_start: o.write_start,
                end: o.end,
                memory_gb: mem,
            });
            if !o.records.is_empty() {
                state.trace.attempts.append(&mut o.records);
            }
        }
        state.stage_end[s.index()] = end;
        state.stage_write_start[s.index()] = if wstart.is_finite() { wstart } else { end };
        state.stage_read_end[s.index()] = rend;
    }
    Ok(())
}

/// Report one completed stage on `obs`: lineage faults, then per task its
/// span, attempt history, happens-before edges and slot intervals, then
/// the stage span and its predictor sample. The single emitter of the
/// per-stage telemetry vocabulary — fed only by the rows past `mark`
/// and the stage's entries in `state`, which [`sim_stage`] and a journal
/// checkpoint restore fill identically, so a recovered run's trace equals
/// the crash-free one by construction.
pub(crate) fn emit_stage(
    obs: &Recorder,
    dag: &JobDag,
    s: StageId,
    state: &SimState,
    mark: StageMark,
) {
    if !obs.is_enabled() {
        return;
    }
    for h in &state.lineage_log[mark.lineage..] {
        let name = if h.corrupt {
            "fault.object_corrupt"
        } else {
            "fault.object_lost"
        };
        obs.event(
            name,
            Track::storage(),
            h.detect_at,
            vec![
                ("stage", h.src_stage.into()),
                ("task", h.src_task.into()),
                ("reader_stage", h.reader_stage.into()),
            ],
        );
        obs.event(
            "recovery.lineage_reexec",
            Track::storage(),
            h.detect_at + h.reexec_s,
            vec![
                ("stage", h.src_stage.into()),
                ("task", h.src_task.into()),
                ("reexec_s", h.reexec_s.into()),
            ],
        );
    }
    let tasks = &state.trace.tasks[mark.tasks..];
    // Per-task shuffle volume estimates for telemetry consumers.
    let d_f = tasks.len().max(1) as f64;
    let task_read_bytes: f64 = dag.in_edges(s).map(|e| e.bytes as f64).sum::<f64>() / d_f;
    let task_write_bytes: f64 = dag.out_edges(s).map(|e| e.bytes as f64).sum::<f64>() / d_f;
    // Attempt rows are appended task by task, so each task's history is
    // the next run of rows carrying its index.
    let mut rest = &state.trace.attempts[mark.attempts..];
    for tt in tasks {
        let n = rest.iter().take_while(|a| a.task == tt.task).count();
        let (records, later) = rest.split_at(n);
        rest = later;
        let srv = tt.server.index() as u32;
        obs.name_track(Track::SERVER_BASE + srv, &format!("server {srv}"));
        let lane = tt.stage * 10_000 + tt.task;
        obs.span(
            "task",
            Track::server(srv, lane),
            tt.launch,
            tt.end,
            vec![
                ("stage", tt.stage.into()),
                ("task", tt.task.into()),
                ("attempts", (records.len().max(1) as u32).into()),
                ("read_start", tt.read_start.into()),
                ("compute_start", tt.compute_start.into()),
                ("write_start", tt.write_start.into()),
                ("memory_gb", tt.memory_gb.into()),
                ("bytes_read", task_read_bytes.into()),
                ("bytes_written", task_write_bytes.into()),
            ],
        );
        obs.observe("task.duration", "all", tt.end - tt.launch);
        for r in records {
            let fault = match r.outcome {
                AttemptOutcome::Crashed => Some("fault.crashed"),
                AttemptOutcome::ServerLost => Some("fault.server_lost"),
                AttemptOutcome::Superseded => Some("fault.superseded"),
                AttemptOutcome::Completed => None,
            };
            obs.span(
                "attempt",
                Track::server(r.server.index() as u32, lane),
                r.start,
                r.end,
                vec![
                    ("stage", r.stage.into()),
                    ("task", r.task.into()),
                    ("attempt", r.attempt.into()),
                    ("outcome", outcome_label(r.outcome).into()),
                    ("wasted_gb_s", r.wasted_gb_s.into()),
                ],
            );
            if let Some(name) = fault {
                obs.event(
                    name,
                    Track::server(r.server.index() as u32, lane),
                    r.end,
                    vec![
                        ("stage", r.stage.into()),
                        ("task", r.task.into()),
                        ("attempt", r.attempt.into()),
                    ],
                );
            }
        }
        // Happens-before edges for the race checker: the surviving
        // output's commit instant, one read event per in-edge, and
        // slot-occupancy intervals per attempt.
        obs.event(
            "hb.write",
            Track::server(srv, lane),
            tt.end,
            vec![
                ("stage", tt.stage.into()),
                ("task", tt.task.into()),
                ("server", srv.into()),
                ("write_start", tt.write_start.into()),
            ],
        );
        for e in dag.in_edges(s) {
            obs.event(
                "hb.read",
                Track::server(srv, lane),
                tt.read_start,
                vec![
                    ("stage", tt.stage.into()),
                    ("task", tt.task.into()),
                    ("server", srv.into()),
                    ("edge", (e.id.index() as u64).into()),
                    ("src_stage", e.src.0.into()),
                    ("pipelined", (e.pipelined as u64).into()),
                    (
                        "medium",
                        state.edge_medium[e.id.index()].map_or("none", medium_label).into(),
                    ),
                    ("compute_start", tt.compute_start.into()),
                ],
            );
        }
        // A fault-free task has no attempt rows: its one execution held
        // the slot from launch to end.
        let sole = AttemptRecord {
            stage: tt.stage,
            task: tt.task,
            attempt: 0,
            server: tt.server,
            start: tt.launch,
            end: tt.end,
            outcome: AttemptOutcome::Completed,
            wasted_gb_s: 0.0,
            speculative: false,
        };
        for r in if records.is_empty() { std::slice::from_ref(&sole) } else { records } {
            slot_pair(obs, lane, r);
        }
    }
    // Most-external in-edge medium: where this stage's reads actually
    // came from (diff buckets carry it as the medium).
    let read_medium = dag
        .in_edges(s)
        .filter_map(|e| state.edge_medium[e.id.index()])
        .max_by_key(|m| match m {
            Medium::SharedMemory => 0,
            Medium::Redis => 1,
            Medium::S3 => 2,
        })
        .map_or("none", medium_label);
    let end = state.stage_end[s.index()];
    obs.span(
        "stage",
        Track::job(s.0),
        state.stage_launch[s.index()],
        end,
        vec![
            ("stage", s.0.into()),
            ("dop", (tasks.len() as u64).into()),
            ("read_medium", read_medium.into()),
        ],
    );
    // Predicted-vs-observed per-task mean step durations: the
    // scorecard's Fig.-11 sample for this stage.
    let pred = state.stage_clean[s.index()];
    let realized = state.stage_observed[s.index()];
    obs.event(
        "predictor.sample",
        Track::job(s.0),
        end,
        vec![
            ("stage", s.0.into()),
            ("pred_setup", pred.setup.into()),
            ("pred_read", pred.read.into()),
            ("pred_compute", pred.compute.into()),
            ("pred_write", pred.write.into()),
            ("obs_setup", realized.setup.into()),
            ("obs_read", realized.read.into()),
            ("obs_compute", realized.compute.into()),
            ("obs_write", realized.write.into()),
        ],
    );
}

/// Close out a simulation: storage persistence cost over the recorded
/// per-edge media, final metrics. Consumes the state.
pub(crate) fn finish_pass(
    mut state: SimState,
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    obs: &Recorder,
) -> SimPass {
    // Canonical trace order: stages may have been simulated in any
    // tie-break order, but the returned trace sorts by (stage, task) —
    // stable, so a task's attempt sequence keeps its order. This is what
    // lets the model checker compare traces across interleavings
    // structurally.
    state.trace.tasks.sort_by_key(|t| (t.stage, t.task));
    state.trace.attempts.sort_by_key(|a| (a.stage, a.task));
    // Storage persistence cost: every edge's volume is resident in its
    // medium from the producer's first write until the consumer's last
    // read completes. The medium is the one recorded when the consumer
    // ran (falling back to the final schedule for edges that never ran).
    let mut storage_cost = 0.0;
    for e in dag.edges() {
        let medium = state.edge_medium[e.id.index()]
            .unwrap_or_else(|| gt.edge_medium(schedule, e.id.index()));
        let resident_from = state.stage_write_start[e.src.index()];
        let resident_to = state.stage_read_end[e.dst.index()].max(resident_from);
        storage_cost +=
            CostModel::for_medium(medium).persistence_cost(e.bytes, resident_to - resident_from);
        if obs.is_enabled() {
            obs.counter_add(
                "storage.bytes",
                medium_label(medium),
                e.bytes as f64,
                resident_from,
            );
        }
    }

    let faults = state.total_stats();
    let metrics = JobMetrics {
        jct: state.trace.jct(),
        compute_cost: state.trace.compute_cost() + faults.wasted_gb_s,
        storage_cost,
        faults,
    };
    SimPass {
        trace: state.trace,
        metrics,
        stage_launch: state.stage_launch,
    }
}

/// Emit a matched `hb.slot_acquire`/`hb.slot_release` pair for the slot
/// occupancy interval of one attempt. Speculative copies run without
/// reserving a slot (graded as a warning by the race checker, not an
/// error) and are marked `kind = "spec"`.
fn slot_pair(obs: &Recorder, lane: u32, r: &AttemptRecord) {
    let srv = r.server.index() as u32;
    let attrs = || {
        vec![
            ("stage", r.stage.into()),
            ("task", r.task.into()),
            ("server", srv.into()),
            ("kind", if r.speculative { "spec" } else { "task" }.into()),
        ]
    };
    obs.event("hb.slot_acquire", Track::server(srv, lane), r.start, attrs());
    obs.event("hb.slot_release", Track::server(srv, lane), r.end, attrs());
}

/// Static label of an [`AttemptOutcome`] for telemetry attributes.
fn outcome_label(outcome: AttemptOutcome) -> &'static str {
    match outcome {
        AttemptOutcome::Completed => "completed",
        AttemptOutcome::Crashed => "crashed",
        AttemptOutcome::ServerLost => "server_lost",
        AttemptOutcome::Superseded => "superseded",
    }
}

/// Static label of a [`Medium`] for telemetry counter series.
fn medium_label(medium: Medium) -> &'static str {
    match medium {
        Medium::SharedMemory => "shared-memory",
        Medium::Redis => "redis",
        Medium::S3 => "s3",
    }
}

/// Deterministic restart target after a server failure: the lowest
/// server id used anywhere in the schedule that is not the failed one
/// (the failed server itself when it is the only one — it "rebooted").
fn pick_survivor(schedule: &Schedule, failed: ServerId) -> ServerId {
    let mut best: Option<ServerId> = None;
    for (stage, p) in schedule.placement.iter().enumerate() {
        for t in 0..schedule.dop[stage] {
            let srv = p.server_of_task(t);
            if srv != failed && best.is_none_or(|b| srv < b) {
                best = Some(srv);
            }
        }
    }
    best.unwrap_or(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::groundtruth::ExecConfig;
    use crate::sim::simulate;
    use ditto_core::baselines::EvenSplitScheduler;
    use ditto_core::{DittoScheduler, Scheduler, SchedulingContext};
    use ditto_timemodel::model::RateConfig;

    fn fixture(free: &[u32]) -> (JobDag, JobTimeModel, ResourceManager, Schedule, GroundTruth) {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        (dag, model, rm, schedule, GroundTruth::new(ExecConfig::default()))
    }

    #[test]
    fn empty_plan_matches_plain_simulate() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let (plain_trace, plain_m) = simulate(&dag, &schedule, &gt);
        let (t, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&FaultPlan::none(), &RecoveryPolicy::none())
            .run()
            .unwrap();
        assert_eq!(plain_m, m);
        assert_eq!(plain_trace.tasks, t.tasks);
        assert!(t.attempts.is_empty(), "no faults, no attempt records");
    }

    #[test]
    fn crash_delays_and_records_attempts() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let (_, base) = simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::from_events(vec![FaultEvent::TaskCrash {
            stage: StageId(0),
            task: 0,
            attempt: 0,
            at_fraction: 0.5,
        }]);
        let (t, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::retry_only())
            .run()
            .unwrap();
        assert!(m.jct >= base.jct, "a crash cannot speed the job up");
        assert_eq!(m.faults.extra_attempts, 1);
        assert!(m.faults.wasted_gb_s > 0.0);
        assert!(m.faults.recovery_delay_s > 0.0);
        // Crashed attempt + the completing one.
        assert_eq!(t.attempts.len(), 2);
        assert_eq!(t.attempts[0].outcome, AttemptOutcome::Crashed);
        assert_eq!(t.attempts[1].outcome, AttemptOutcome::Completed);
    }

    #[test]
    fn retries_exhaust_into_typed_error() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let events = (0..3)
            .map(|a| FaultEvent::TaskCrash {
                stage: StageId(0),
                task: 0,
                attempt: a,
                at_fraction: 0.5,
            })
            .collect();
        let policy = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::retry_only()
        };
        let err = Engine::new(&dag, &schedule, &gt)
            .faults(&FaultPlan::from_events(events), &policy)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            ExecError::RetriesExhausted {
                stage: 0,
                task: 0,
                attempts: 3
            }
        );
    }

    #[test]
    fn speculation_caps_injected_stragglers() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let plan = FaultPlan::from_events(vec![FaultEvent::Straggler {
            stage: StageId(0),
            task: 0,
            slowdown: 20.0,
        }]);
        let (_, without) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::retry_only())
            .run()
            .unwrap();
        let (t, with) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .run()
            .unwrap();
        assert!(
            with.jct < without.jct,
            "speculation must beat a 20x straggler: {} vs {}",
            with.jct,
            without.jct
        );
        assert!(with.faults.speculative_copies >= 1);
        assert!(t
            .attempts
            .iter()
            .any(|a| a.outcome == AttemptOutcome::Superseded && a.wasted_gb_s > 0.0));
    }

    #[test]
    fn server_failure_reschedules_suffix_and_completes() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = simulate(&dag, &schedule, &gt);
        let failed = ServerId(0);
        let at_time = base.jct * 0.3;
        let plan = FaultPlan::none().and_server_failure(failed, at_time);
        let ctx = ReschedulingContext {
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let (trace, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .failover(&ctx)
            .run()
            .unwrap();
        assert_eq!(m.faults.server_failures, 1);
        assert!(
            m.faults.rescheduled_stages > 0,
            "a mid-job failure must replan the suffix"
        );
        assert!(m.jct >= base.jct, "failure cannot speed the job up");
        // Everything placed after the failure avoids the dead server.
        for t in trace.tasks.iter().filter(|t| t.launch >= at_time) {
            assert_ne!(t.server, failed, "stage {} task {}", t.stage, t.task);
        }
        // The job still finishes: every stage has tasks in the trace.
        for s in 0..dag.num_stages() as u32 {
            assert!(trace.tasks.iter().any(|t| t.stage == s));
        }
    }

    #[test]
    fn server_failure_without_context_still_completes() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none().and_server_failure(ServerId(0), base.jct * 0.3);
        let (trace, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .run()
            .unwrap();
        assert!(m.jct >= base.jct);
        assert_eq!(m.faults.rescheduled_stages, 0, "no context, no replan");
        for s in 0..dag.num_stages() as u32 {
            assert!(trace.tasks.iter().any(|t| t.stage == s));
        }
    }

    #[test]
    fn random_rates_are_deterministic_per_seed() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let run = |seed| {
            let plan = FaultPlan::from_rates(FaultRates {
                crash_prob: 0.2,
                straggler_prob: 0.1,
                straggler_slowdown: 3.0,
                ..FaultRates::none(seed)
            });
            let policy = RecoveryPolicy {
                max_retries: 16,
                ..Default::default()
            };
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap()
        };
        let (ta, ma) = run(9);
        let (tb, mb) = run(9);
        assert_eq!(ma, mb);
        assert_eq!(ta.attempts, tb.attempts);
        let (_, mc) = run(10);
        assert_ne!(ma, mc, "different seed, different fault history");
    }

    #[test]
    fn drift_inflation_slows_compute_only() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let (base_t, base) = simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none().with_drift(2.0);
        assert!((plan.drift_factor() - 2.0).abs() < 1e-12);
        let (t, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::none())
            .run()
            .unwrap();
        assert!(m.jct > base.jct, "2x compute drift must lengthen the job");
        // Compute steps exactly double; read and write steps untouched.
        for (a, b) in base_t.tasks.iter().zip(&t.tasks) {
            let (sa, sb) = (a.steps(), b.steps());
            assert!((sb.compute - 2.0 * sa.compute).abs() < 1e-9);
            assert!((sb.read - sa.read).abs() < 1e-9);
            assert!((sb.write - sa.write).abs() < 1e-9);
        }
        // Stacked drift events multiply.
        assert!((plan.clone().with_drift(1.5).drift_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn object_loss_triggers_lineage_reexec() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let (_, base) = simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none().and_object_loss(StageId(0), 0);
        let (_, m) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::retry_only())
            .run()
            .unwrap();
        assert_eq!(m.faults.object_losses, 1);
        assert_eq!(m.faults.lineage_reexecs, 1);
        assert!(m.jct > base.jct, "a lost object must delay its reader");
        assert!(m.faults.wasted_gb_s > 0.0, "the lost attempt was billed");
        assert!(m.faults.recovery_delay_s > 0.0);

        // Corruption is detected by checksum and healed the same way.
        let plan = FaultPlan::none().and_object_corruption(StageId(0), 1);
        let (_, mc) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::retry_only())
            .run()
            .unwrap();
        assert_eq!(mc.faults.object_corruptions, 1);
        assert_eq!(mc.faults.lineage_reexecs, 1);
        assert!(mc.jct > base.jct);
    }

    #[test]
    fn object_fault_rates_are_deterministic_and_first_reader_pays() {
        let (dag, _, _, schedule, gt) = fixture(&[96; 8]);
        let run = |seed| {
            let plan = FaultPlan::from_rates(FaultRates {
                loss_prob: 0.2,
                corruption_prob: 0.1,
                ..FaultRates::none(seed)
            });
            Engine::new(&dag, &schedule, &gt).faults(&plan, &RecoveryPolicy::retry_only()).run()
                .unwrap()
        };
        let (_, a) = run(5);
        let (_, b) = run(5);
        assert_eq!(a, b, "same seed, same object-fault history");
        assert!(
            a.faults.object_losses + a.faults.object_corruptions > 0,
            "20%/10% rates over q95 must hit something"
        );
        assert_eq!(
            a.faults.lineage_reexecs,
            a.faults.object_losses + a.faults.object_corruptions,
            "each faulted object is healed exactly once (first reader pays)"
        );
        let (_, c) = run(6);
        assert_ne!(a, c, "different seed, different history");
    }

    #[test]
    fn jct_nondecreasing_in_crash_count() {
        let dag = ditto_dag::generators::fig1_join();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![16, 16]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let gt = GroundTruth::new(ExecConfig::default());
        let pool: Vec<(StageId, u32)> = (0..3)
            .flat_map(|s| (0..2).map(move |t| (StageId(s), t)))
            .collect();
        let mut last = 0.0;
        for k in 0..=pool.len() {
            let events = pool[..k]
                .iter()
                .map(|&(stage, task)| FaultEvent::TaskCrash {
                    stage,
                    task,
                    attempt: 0,
                    at_fraction: 0.6,
                })
                .collect();
            let (_, m) = Engine::new(&dag, &schedule, &gt)
                .faults(&FaultPlan::from_events(events), &RecoveryPolicy::retry_only())
                .run()
                .unwrap();
            assert!(
                m.jct >= last - 1e-9,
                "jct dropped from {last} to {} at {k} crashes",
                m.jct
            );
            last = m.jct;
        }
    }
}
