//! The simulator engine: one pass driver, configured by composition.
//!
//! Every simulated run — frozen, faulted, failure-aware, adaptive,
//! recorded, journaled, or explored under a scripted tie-break — is one
//! [`Engine`] over `(dag, schedule, ground truth)` plus the options it
//! needs (see the crate docs for an example). Underneath there is exactly
//! one of each moving part:
//!
//! * **one pass driver** — stages pop from a `ReadyQueue` in (ready time,
//!   tie-break) order; each is restored from its journal checkpoint or
//!   simulated by `sim_stage`, reported by `emit_stage`, and (when
//!   journaled) checkpointed before its consumers unblock. An adaptive run
//!   also hands each completed batch of simultaneous stages to the
//!   `Replanner`; a frozen run builds none of that machinery;
//! * **one failover orchestration** — probe pass → not-yet-launched
//!   suffix → shrunk snapshot → `joint_optimize` → splice → feasibility
//!   audit → final pass, the decision written ahead to (or replayed from)
//!   the journal when there is one;
//! * **one debug race gate** — debug builds record an otherwise unobserved
//!   run and put its event stream through the race checker.

use crate::adaptive::{AdaptiveConfig, Replanner};
use crate::error::ExecError;
use crate::faults::{
    emit_stage, finish_pass, ready_time, sim_stage, FaultPlan, RecoveryPolicy, ReschedulingContext,
    SimPass, SimState,
};
use crate::groundtruth::GroundTruth;
use crate::journal::{EngineKind, FailoverDecision, JournalSession};
use crate::metrics::JobMetrics;
use crate::queue::{ReadyQueue, TieBreak};
use crate::trace::ExecutionTrace;
use ditto_core::{joint_optimize_traced, Schedule};
use ditto_dag::JobDag;
use ditto_obs::{Recorder, Track};

/// Builder for one simulated run of `schedule` on `dag` under the ground
/// truth. With no option set, [`Engine::run`] is the plain fault-free
/// simulation; each option adds one behaviour and they compose freely.
pub struct Engine<'a> {
    dag: &'a JobDag,
    schedule: &'a Schedule,
    gt: &'a GroundTruth,
    faults: Option<(&'a FaultPlan, &'a RecoveryPolicy)>,
    failover: Option<&'a ReschedulingContext<'a>>,
    adaptive: Option<(&'a ReschedulingContext<'a>, &'a AdaptiveConfig)>,
    obs: Option<&'a Recorder>,
    journal: Option<&'a mut JournalSession>,
    tie: Option<&'a mut TieBreak>,
}

impl<'a> Engine<'a> {
    /// An option-free engine: fault-free, frozen, unobserved.
    pub fn new(dag: &'a JobDag, schedule: &'a Schedule, gt: &'a GroundTruth) -> Self {
        Engine {
            dag,
            schedule,
            gt,
            faults: None,
            failover: None,
            adaptive: None,
            obs: None,
            journal: None,
            tie: None,
        }
    }

    /// Inject `plan` and recover under `policy`. Unset, the run injects
    /// nothing and recovers from nothing ([`FaultPlan::none`] under
    /// `RecoveryPolicy::none`).
    pub fn faults(mut self, plan: &'a FaultPlan, policy: &'a RecoveryPolicy) -> Self {
        self.faults = Some((plan, policy));
        self
    }

    /// Failure-aware rescheduling of a frozen run: on the plan's
    /// whole-server failure (and [`RecoveryPolicy::reschedule_on_server_failure`]),
    /// stages not yet launched at the failure instant are replanned by
    /// [`ditto_core::joint_optimize`] against the shrunk snapshot; surviving
    /// work keeps its schedule. Takes `&ctx`, `Some(&ctx)` or `None`; an
    /// adaptive run replans through its own context instead.
    pub fn failover(mut self, ctx: impl Into<Option<&'a ReschedulingContext<'a>>>) -> Self {
        self.failover = ctx.into();
        self
    }

    /// Run adaptively: online drift detection and elastic suffix
    /// re-optimization through `ctx` (see `crate::adaptive`).
    pub fn adaptive(mut self, ctx: &'a ReschedulingContext<'a>, cfg: &'a AdaptiveConfig) -> Self {
        self.adaptive = Some((ctx, cfg));
        self
    }

    /// Record telemetry on `obs` (sim-clock timestamps): task / stage /
    /// attempt spans, fault and happens-before events, per-medium byte
    /// counters, and every replan or failover decision with the scheduler
    /// spans of its re-optimization. Metrics are bit-identical either way.
    pub fn recorder(mut self, obs: &'a Recorder) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Write every control-plane decision ahead to `session`: admission,
    /// schedule commit, per-stage object commits and checkpoints, replan
    /// and failover decisions. An armed coordinator crash fails the run
    /// with [`ExecError::CoordinatorCrash`], leaving a torn tail in
    /// [`JournalSession::durable_bytes`]; hand [`JournalSession::resume`]'s
    /// session to an identically configured engine and completed stages
    /// restore from checkpoints while journaled decisions replay instead
    /// of re-optimizing.
    pub fn journal(mut self, session: &'a mut JournalSession) -> Self {
        self.journal = Some(session);
        self
    }

    /// Drive simultaneous-event ties through `tie` instead of the
    /// canonical lowest-stage-id order (the model checker's handle).
    pub(crate) fn tie_break(mut self, tie: &'a mut TieBreak) -> Self {
        self.tie = Some(tie);
        self
    }

    /// Run the job: the full trace plus job metrics, or a typed failure —
    /// an invalid schedule, a cyclic DAG, exhausted retries, an infeasible
    /// replan, a journal divergence or an armed coordinator crash. The
    /// schedule is validated exactly once, before anything is journaled.
    pub fn run(mut self) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        if self.faults.is_none() {
            // Certificate gate of a fault-free run: refuse structurally
            // unsound schedules with the auditor's stage/edge-attributed
            // findings instead of a mid-run panic deep in the event loop.
            let report = ditto_audit::audit_structure(self.dag, self.schedule);
            if !report.is_clean() {
                return Err(ExecError::InvalidSchedule(report.render()));
            }
        } else {
            self.schedule
                .validate(self.dag)
                .map_err(ExecError::InvalidSchedule)?;
        }
        // Debug builds run an unobserved run recorded (telemetry is <5%
        // overhead and metrics are bit-identical either way — the
        // telemetry tests pin both) and gate the event stream through the
        // race checker: replan splices, failovers and lineage recoveries
        // are exactly where an ordering hazard would creep in.
        #[cfg(debug_assertions)]
        if self.obs.is_none() && self.journal.is_none() && self.tie.is_none() {
            let obs = Recorder::new();
            let out = self.execute(&obs)?;
            let race =
                ditto_audit::check_trace(&obs.finish(), &ditto_audit::RaceOptions::default());
            debug_assert!(
                race.is_clean(),
                "race checker rejected the engine's own trace:\n{}",
                race.render()
            );
            return Ok(out);
        }
        match self.obs {
            Some(obs) => self.execute(obs),
            None => self.execute(&Recorder::disabled()),
        }
    }

    fn execute(&mut self, obs: &Recorder) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        let (no_plan, no_policy) = (FaultPlan::none(), RecoveryPolicy::none());
        let (plan, policy) = self.faults.unwrap_or((&no_plan, &no_policy));
        let run = Run {
            dag: self.dag,
            gt: self.gt,
            plan,
            policy,
            adaptive: self.adaptive,
        };
        let mut canonical = TieBreak::canonical();
        let tie = self.tie.as_deref_mut().unwrap_or(&mut canonical);
        let mut journal = self.journal.as_deref_mut();
        if let Some(j) = journal.as_deref_mut() {
            let engine = match self.adaptive {
                Some(_) => EngineKind::Adaptive,
                None => EngineKind::Frozen,
            };
            j.begin(self.dag, engine, self.schedule, obs)?;
        }
        let pass = match self.adaptive {
            Some(_) => run.pass(self.schedule, obs, tie, journal.as_deref_mut())?,
            None => run.frozen(
                self.schedule,
                self.failover,
                obs,
                tie,
                journal.as_deref_mut(),
            )?,
        };
        if let Some(j) = journal {
            j.finish(&pass.metrics)?;
        }
        Ok((pass.trace, pass.metrics))
    }
}

/// What every pass of one run shares.
struct Run<'r> {
    dag: &'r JobDag,
    gt: &'r GroundTruth,
    plan: &'r FaultPlan,
    policy: &'r RecoveryPolicy,
    adaptive: Option<(&'r ReschedulingContext<'r>, &'r AdaptiveConfig)>,
}

impl Run<'_> {
    /// One sweep over the DAG starting from `schedule`. Stages execute in
    /// (ready time, `tie` choice) order; a run of bit-equal ready times is
    /// one simultaneous-event batch, and an adaptive run's drift
    /// observation and replan decisions flush only after a whole batch has
    /// simulated.
    fn pass(
        &self,
        schedule: &Schedule,
        obs: &Recorder,
        tie: &mut TieBreak,
        mut journal: Option<&mut JournalSession>,
    ) -> Result<SimPass, ExecError> {
        let dag = self.dag;
        let mut replanner = match self.adaptive {
            Some((ctx, cfg)) => Some(Replanner::new(dag, schedule, ctx, cfg)?),
            None => None,
        };
        let mut state = SimState::new(dag, self.plan, schedule);
        state.announce(obs);
        let mut queue = ReadyQueue::new(dag);
        let mut popped = 0usize;
        let mut batch = Vec::new();
        let mut next = queue.pop(tie);
        while let Some((ready, s)) = next {
            popped += 1;
            let mark = state.mark();
            let restored = match journal.as_deref_mut() {
                Some(j) => j.try_restore(s, &mut state)?,
                None => false,
            };
            if !restored {
                let cur = replanner.as_ref().map_or(schedule, Replanner::current);
                sim_stage(&mut state, dag, cur, self.gt, self.plan, self.policy, s)?;
            }
            emit_stage(obs, dag, s, &state, mark);
            if let (false, Some(j)) = (restored, journal.as_deref_mut()) {
                j.record_stage(dag, s, &state, mark)?;
            }
            queue.complete(dag, s, |c| ready_time(&state, dag, c));
            next = queue.pop(tie);
            if let Some(r) = replanner.as_mut() {
                batch.push(s);
                if next.is_none_or(|(t, _)| t != ready) {
                    batch.sort_unstable();
                    r.observe(&batch, &mut state, obs, journal.as_deref_mut())?;
                    batch.clear();
                }
            }
        }
        if popped != dag.num_stages() {
            return Err(ExecError::CyclicDag);
        }
        Ok(match replanner {
            Some(r) => r.finish(state, self.gt, obs),
            None => finish_pass(state, dag, schedule, self.gt, obs),
        })
    }

    /// A frozen run with failure-aware rescheduling: when the plan loses a
    /// server and `failover` allows it, the not-yet-launched suffix is
    /// re-optimized (or its journaled decision replayed) and the job runs
    /// under the spliced hybrid; otherwise this is one [`Run::pass`].
    fn frozen(
        &self,
        schedule: &Schedule,
        failover: Option<&ReschedulingContext<'_>>,
        obs: &Recorder,
        tie: &mut TieBreak,
        mut journal: Option<&mut JournalSession>,
    ) -> Result<SimPass, ExecError> {
        let dag = self.dag;
        let failure = self.plan.first_server_failure();
        let journaled = journal
            .as_deref_mut()
            .and_then(JournalSession::take_failover);
        let (decision_seq, (failed, at_time), suffix, hybrid) = match journaled {
            // Replay: the failover was decided and journaled before the
            // crash. Verify the plan still injects that exact failure,
            // then run the journaled hybrid — no re-optimization.
            Some(FailoverDecision {
                decision_seq: seq,
                failed_server: failed_idx,
                at_time: at_time_j,
                suffix,
                schedule: stored,
            }) => {
                let Some((failed, at_time)) = failure else {
                    return Err(ExecError::Journal(
                        "journaled failover but the fault plan has no server failure".into(),
                    ));
                };
                if failed.index() as u32 != failed_idx || at_time.to_bits() != at_time_j.to_bits() {
                    return Err(ExecError::Journal(format!(
                        "journaled failover (server {failed_idx} at {at_time_j}) does not match the fault plan (server {} at {at_time})",
                        failed.index()
                    )));
                }
                (seq, (failed, at_time), suffix, stored)
            }
            None => {
                let (Some((failed, at_time)), Some(ctx), true) =
                    (failure, failover, self.policy.reschedule_on_server_failure)
                else {
                    return self.pass(schedule, obs, tie, journal);
                };
                // A muted, unjournaled probe pass finds the suffix: stages
                // whose containers had not launched when the server died
                // (per the pre-replan timeline). When a replan follows, the
                // probe is discarded — recording or journaling it would
                // commit state the final timeline never reaches.
                let probe = self.pass(
                    schedule,
                    &Recorder::disabled(),
                    &mut TieBreak::canonical(),
                    None,
                )?;
                let suffix: Vec<bool> = probe.stage_launch.iter().map(|&l| l >= at_time).collect();
                if !suffix.contains(&true) {
                    // Nothing left to move, so the probe's timeline is the
                    // final one (the simulation is deterministic): reuse it
                    // unless someone is waiting to see or journal it.
                    if obs.is_enabled() || journal.is_some() {
                        return self.pass(schedule, obs, tie, journal);
                    }
                    return Ok(probe);
                }
                let mut rm = ctx.resources.clone();
                rm.fail_server(failed.index());
                let needed = dag.num_stages() as u32;
                if rm.total_free() < needed {
                    return Err(ExecError::InsufficientCapacity {
                        needed,
                        available: rm.total_free(),
                    });
                }
                let replanned =
                    joint_optimize_traced(dag, ctx.model, &rm, ctx.objective, &ctx.options, obs);
                let hybrid = schedule.splice(dag, &replanned, &suffix);
                // Feasibility certificate on the spliced schedule (debug
                // builds): the replan optimized against the shrunk
                // snapshot, but the splice mixes in prefix placements the
                // optimizer never saw — re-count the suffix against the
                // surviving slots before trusting it.
                #[cfg(debug_assertions)]
                {
                    let report = ditto_audit::audit_splice(dag, &rm, &hybrid, &suffix);
                    if !report.is_clean() {
                        return Err(ExecError::InvalidSchedule(report.render()));
                    }
                }
                // Decision 0 is the schedule commit; the (single) failover
                // reschedule is decision 1 — the same sequence in journal
                // and trace, so trace diffing can align crashed vs
                // recovered runs. Write-ahead: the decision journals
                // before its event fires.
                let decision = FailoverDecision {
                    decision_seq: 1,
                    failed_server: failed.index() as u32,
                    at_time,
                    suffix,
                    schedule: hybrid,
                };
                if let Some(j) = journal.as_deref_mut() {
                    j.append_failover(&decision)?;
                }
                (1, (failed, at_time), decision.suffix, decision.schedule)
            }
        };
        let n_suffix = suffix.iter().filter(|&&b| b).count() as u32;
        if obs.is_enabled() {
            obs.event(
                "sched.failover",
                Track::scheduler(0),
                obs.wall_now(),
                vec![
                    ("failed_server", (failed.index() as u64).into()),
                    ("at_time", at_time.into()),
                    ("suffix_stages", (n_suffix as u64).into()),
                    ("decision_seq", decision_seq.into()),
                ],
            );
        }
        let mut pass = self.pass(&hybrid, obs, tie, journal)?;
        pass.metrics.faults.rescheduled_stages = n_suffix;
        Ok(pass)
    }
}
