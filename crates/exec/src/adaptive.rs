//! Adaptive execution: online drift detection + elastic suffix
//! re-optimization.
//!
//! The paper's scheduler (§4) plans once, against a model fitted offline
//! (§4.2), and the plan is frozen for the run. This module closes the
//! loop at runtime:
//!
//! 1. after every completed stage, a [`DriftDetector`] compares the
//!    realized mean step timings against the expected ones and maintains
//!    per-stage / job-global EWMA correction factors;
//! 2. when a stage's smoothed ratio leaves the configured band, the
//!    fitted [`JobTimeModel`](ditto_timemodel::JobTimeModel) is
//!    re-corrected with the learned per-step factors
//!    ([`ModelCorrections`]), the *not-yet-started suffix* of the DAG is
//!    re-optimized by [`ditto_core::joint_optimize`] against the current
//!    free-slot snapshot (in-flight prefix work deducted), and the new
//!    suffix is spliced into the running schedule via
//!    [`Schedule::splice`];
//! 3. every spliced schedule must pass the `ditto-audit` feasibility
//!    certificate ([`ditto_audit::audit_splice`]) before it replaces the
//!    current plan — a replan that cannot prove itself feasible is a
//!    hard [`ExecError::InvalidSchedule`], not a silent fallback;
//! 4. each accepted or rejected replan is recorded as a [`ReplanRecord`]
//!    on the [`ExecutionTrace`](crate::ExecutionTrace).
//!
//! An adaptive run is [`Engine::adaptive`](crate::Engine::adaptive): the
//! same pass driver and per-stage simulator as a frozen run, with this
//! module's `Replanner` consulted at every batch boundary — so with no
//! drift and no object faults it is **bit-identical** to the frozen run,
//! the property the `adaptive_properties` suite pins down.
//!
//! Escalation ladder (DESIGN.md §6g): lineage re-execution of the
//! producing task (inside `sim_stage`; the recovery wait inflates the
//! stage's observed *read* step) → suffix replan (this module, when the
//! inflation leaves the band) → typed failure.

use crate::error::ExecError;
use crate::faults::{finish_pass, ReschedulingContext, SimPass, SimState};
use crate::groundtruth::GroundTruth;
use crate::journal::{JournalSession, ReplanDecision};
use ditto_cluster::{DriftConfig, DriftDetector, ServerId};
use ditto_core::{joint_optimize_traced, predicted_jct, Schedule};
use ditto_dag::{JobDag, StageId};
use ditto_obs::{Recorder, StepTimings, Track};
use ditto_timemodel::{ModelCorrections, StepCorrections};

/// Re-arm threshold: after a replan decision, the next one requires the
/// smoothed drift factor to have moved by at least this relative amount
/// *or* further stages to have completed since — a constant drift must not
/// re-trigger on every task of the same front, but job progress at a flat
/// factor is still new information (the last evaluation priced a splice
/// over stages that are now pinned).
const RE_ARM: f64 = 0.15;

/// Minimum *relative* predicted-JCT improvement before a replan is
/// applied. The corrected model is still a model: its own error under
/// drift is easily a few percent, so a predicted gain inside that noise
/// floor is as likely to hurt as help once splice costs (the
/// conservatively-externalized seam edges) are realized. Replans below the
/// margin are recorded but not applied.
const MIN_GAIN: f64 = 0.1;

/// Configuration of the adaptive execution loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Drift-detector band and smoothing. The adaptive default lowers
    /// `min_samples` to 1: the detector is fed one observation per
    /// *stage* (the mean over its tasks), and each stage runs once.
    pub drift: DriftConfig,
    /// Maximum suffix replans per run (each one re-runs the joint
    /// optimizer; unbounded replanning on a noisy signal would thrash).
    pub max_replans: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            drift: DriftConfig {
                min_samples: 1,
                ..Default::default()
            },
            max_replans: 4,
        }
    }
}

/// Why a replan fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ReplanTrigger {
    /// Sustained deviation of realized step times from the expectation
    /// (environmental drift, stragglers).
    Drift,
    /// Deviation dominated by read-step inflation from lineage recovery
    /// of lost or corrupt intermediate objects — data-plane trouble
    /// escalated to the planner.
    ObjectRecovery,
}

/// One suffix re-optimization, recorded on the
/// [`ExecutionTrace`](crate::ExecutionTrace).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ReplanRecord {
    /// What tripped the detector.
    pub trigger: ReplanTrigger,
    /// Stage whose completion fired the drift event.
    pub at_stage: u32,
    /// Simulated time of the replan decision (the firing stage's end).
    pub sim_time: f64,
    /// Smoothed observed/expected total-time factor at the decision.
    pub factor: f64,
    /// Job-global per-step correction factors applied to the model.
    pub corrections: StepCorrections,
    /// Stages in the re-optimized suffix.
    pub suffix_stages: u32,
    /// Predicted JCT of the *current* schedule under the corrected model.
    pub old_predicted_jct: f64,
    /// Predicted JCT of the spliced schedule under the corrected model.
    pub new_predicted_jct: f64,
    /// Risk adjustment added to the comparison, seconds: the spliced
    /// plan's expected lineage-recovery delay minus the incumbent's,
    /// under the object-loss rate observed so far in this run. Zero when
    /// no losses have been observed.
    pub risk_penalty: f64,
    /// Whether the feasibility certificate on the spliced schedule came
    /// back clean: always true in a fresh record (an unclean splice fails
    /// the run instead); kept because it is journaled.
    pub audit_clean: bool,
    /// Whether the splice replaced the running schedule (a replan whose
    /// corrected-model prediction does not beat the current plan is
    /// recorded but not applied).
    pub applied: bool,
    /// Monotonic control-plane decision sequence number, shared with the
    /// write-ahead journal: the schedule commit is decision 0 and every
    /// replan / failover increments from there, so trace diffing can
    /// align crashed and recovered runs decision by decision.
    pub decision_seq: u64,
}

/// The observe→replan half of an adaptive run: the engine's pass driver
/// simulates stages and hands every completed simultaneous-event batch to
/// [`Replanner::observe`], which owns the drift detector, the running
/// schedule and the decision log.
pub(crate) struct Replanner<'a> {
    dag: &'a JobDag,
    ctx: &'a ReschedulingContext<'a>,
    cfg: &'a AdaptiveConfig,
    order: Vec<StageId>,
    detector: DriftDetector,
    cur: Schedule,
    replans: Vec<ReplanRecord>,
    last_decision: Option<(f64, usize)>,
    reexecs_seen: u32,
    simulated: Vec<bool>,
}

impl<'a> Replanner<'a> {
    pub(crate) fn new(
        dag: &'a JobDag,
        schedule: &Schedule,
        ctx: &'a ReschedulingContext<'a>,
        cfg: &'a AdaptiveConfig,
    ) -> Result<Self, ExecError> {
        // The detector's class layer keys EWMAs by stage *type* (the ISSUE's
        // per-stage-type corrections): drift learned from a completed map
        // stage transfers to maps that have not started — per-stage estimates
        // alone can only correct stages that already ran, which the suffix
        // replan no longer cares about.
        let class_of: Vec<u32> = dag.stages().iter().map(|st| st.kind as u32).collect();
        Ok(Replanner {
            dag,
            ctx,
            cfg,
            order: dag.topo_order().map_err(|_| ExecError::CyclicDag)?,
            detector: DriftDetector::with_classes(&class_of, cfg.drift),
            cur: schedule.clone(),
            replans: Vec::new(),
            last_decision: None,
            reexecs_seen: 0,
            simulated: vec![false; dag.num_stages()],
        })
    }

    /// The schedule the next stage runs under.
    pub(crate) fn current(&self) -> &Schedule {
        &self.cur
    }

    /// Drift observation and replan decisions over one completed batch of
    /// simultaneous stages (`batch` in stage-id order). Running only at
    /// **batch boundaries**, and then in stage-id order, means the
    /// decision sequence sees an order-invariant simulation state no
    /// matter how the tie-break controller sequenced the batch — the
    /// model checker relies on exactly this. With a journal, a decision
    /// point either replays the journaled decision or journals the live
    /// one before it takes effect.
    pub(crate) fn observe(
        &mut self,
        batch: &[StageId],
        state: &mut SimState,
        obs: &Recorder,
        mut journal: Option<&mut JournalSession>,
    ) -> Result<(), ExecError> {
        let (dag, ctx, cfg) = (self.dag, self.ctx, self.cfg);
        let n = dag.num_stages();
        for &s in batch {
            self.simulated[s.index()] = true;
        }
        for &s in batch {
            let event = self.detector.observe(
                s.0,
                &state.stage_observed[s.index()],
                &state.stage_clean[s.index()],
            );
            let totals = state.total_stats();
            let new_reexecs = totals.lineage_reexecs - self.reexecs_seen;
            self.reexecs_seen = totals.lineage_reexecs;
            let Some(ev) = event else { continue };
            // Every band exceedance is recorded — including ones the budget
            // or re-arm gates below swallow — so the scorecard can annotate
            // post-drift predictor samples even when no replan fired.
            ev.record(obs, state.stage_end[s.index()]);
            // Gates: replan budget (each decision below re-runs the joint
            // optimizer; unbounded replanning on a noisy signal would
            // thrash), then re-arm. A constant drift level must not
            // re-trigger the optimizer after every stage — but only while the
            // *decision state* is also unchanged. Stages completing in
            // ready-time order report similar factors back to back (all the
            // scans, then all the joins), and job progress is new information
            // even at a flat factor: the last evaluation priced a splice over
            // stages that have since launched or pinned. Swallow the event
            // only when neither the smoothed factor nor the unsimulated
            // remainder has moved since the last decision — the remainder is
            // batch-constant and order-invariant, so the model checker's
            // tie-break permutations see the same gate outcomes.
            if self.replans.len() >= cfg.max_replans as usize {
                continue;
            }
            let simulated = &self.simulated;
            let remaining = simulated.iter().filter(|&&b| !b).count();
            if let Some((lf, ln)) = self.last_decision {
                if ((ev.factor - lf) / lf).abs() < RE_ARM && remaining == ln {
                    continue;
                }
            }
            let now = state.stage_end[s.index()];
            // The elastic suffix: stages that cannot have *launched* yet.
            // Not-yet-simulated is not enough — a source stage still queued
            // (a second table scan) launched at t=0 and may already be
            // finished by `now`; re-doping it would be time travel, and
            // splicing it out of its group externalizes edges whose data
            // already moved through shared memory. A stage is replannable iff
            // its JIT launch is gated behind `now`: some producer is itself
            // replannable, or already simulated with its end at/after `now`
            // (still in flight counts). Everything else is frozen at its
            // incumbent DoP and placement. (Iterated in topo order so a
            // producer's suffix membership is settled before its consumers'.)
            let mut suffix = vec![false; n];
            for &t in &self.order {
                if simulated[t.index()] {
                    continue;
                }
                suffix[t.index()] = dag.in_edges(t).any(|e| {
                    let p = e.src.index();
                    suffix[p] || (simulated[p] && state.stage_end[p] >= now - 1e-9)
                });
            }
            let n_suffix = suffix.iter().filter(|&&b| b).count();
            if n_suffix == 0 {
                continue; // nothing downstream is still movable
            }
            // Journal replay: the gates above re-ran deterministically over
            // restored state, so a gate-passing decision point on a resumed
            // run either matches the journaled decision made here before the
            // crash (substitute it — no re-optimization, which is what bounds
            // recovery work) or the run has diverged (hard error). Once the
            // replay queue drains, decisions fall through to the live arm
            // and journal as usual.
            let replayed = journal.as_deref_mut().and_then(|j| j.next_replan_for(s.0, now));
            let (record, spliced) = if let Some(ReplanDecision {
                record: rec,
                suffix: j_suffix,
                schedule: j_sched,
            }) = replayed
            {
                if j_suffix != suffix {
                    return Err(ExecError::Journal(format!(
                        "resumed run diverged: replan at stage {} recomputed a different suffix than the journal",
                        s.0
                    )));
                }
                if rec.applied && j_sched.is_none() {
                    return Err(ExecError::Journal(
                        "applied replan was journaled without its spliced schedule".into(),
                    ));
                }
                (rec, j_sched)
            } else {
                // Learned corrections, most-specific first: the stage's own
                // samples, else its stage-type class (maps correct maps that have
                // not run), else *identity*. The job-global EWMA is deliberately
                // not used as a scaling fallback: after one drifted map it would
                // smear the map's factor over joins and reduces too, turning a
                // differential signal back into a uniform one — and uniform drift
                // scales α and β together, which moves no DoP ratios (Eq. 3/4).
                // It is still recorded on the ReplanRecord as the summary factor.
                let to_corr = |t: StepTimings| StepCorrections {
                    read: t.read,
                    compute: t.compute,
                    write: t.write,
                };
                let corrections = ModelCorrections {
                    per_stage: (0..n)
                        .map(|i| {
                            Some(
                                self.detector
                                    .stage_correction(i as u32)
                                    .or_else(|| self.detector.class_correction(i as u32))
                                    .map(to_corr)
                                    .unwrap_or_else(StepCorrections::identity),
                            )
                        })
                        .collect(),
                    global: to_corr(self.detector.global_correction()),
                };
                // Corrections price the future; the mask erases the past. Without
                // it, joint_optimize re-plans the *whole* DAG and a 3×-corrected
                // completed scan hogs slots it no longer needs, starving the very
                // suffix the replan is for (and making every replanned schedule
                // predict worse than the incumbent). Prefix stages' steps and
                // already-written edge outputs are zeroed; seam reads the suffix
                // still pays stay at full corrected cost. Both predicted JCTs
                // below use the same masked model, so the apply decision compares
                // suffix-only futures.
                let done: Vec<bool> = (0..n).map(|i| !suffix[i]).collect();
                let corrected = ctx.model.corrected(dag, &corrections).masked_completed(dag, &done);
                // Free-slot snapshot at the decision instant: the schedule's
                // original snapshot, minus a failed server (if it already died),
                // minus slots still held by in-flight prefix stages.
                let mut rm = ctx.resources.clone();
                if let Some((failed, at)) = state.failure {
                    if at <= now {
                        rm.fail_server(failed.index());
                    }
                }
                // Slot deduction, in stage-id order (the order-invariant one):
                // simulated stages still in flight at `now` hold their slots;
                // frozen-but-unsimulated stages (launched before `now`, end not
                // yet known) are conservatively assumed to hold theirs too.
                let cur = &self.cur;
                for i in 0..n {
                    let holds = if simulated[i] {
                        state.stage_end[i] > now
                    } else {
                        !suffix[i]
                    };
                    if !holds {
                        continue;
                    }
                    for t in 0..cur.dop[i] {
                        let srv: ServerId = cur.placement[i].server_of_task(t);
                        if rm.free_on(srv) > 0 {
                            let _ = rm.reserve(srv, 1);
                        }
                    }
                }
                if rm.total_free() < n as u32 {
                    // Not enough headroom to even re-plan; keep the frozen plan.
                    continue;
                }
                let replanned =
                    joint_optimize_traced(dag, &corrected, &rm, ctx.objective, &ctx.options, obs);
                let spliced = cur.splice(dag, &replanned, &suffix);
                // Feasibility certificate: the optimizer planned against the
                // deducted snapshot, but the splice mixes in prefix placements it
                // never saw — re-count the suffix before trusting it.
                let report = ditto_audit::audit_splice(dag, &rm, &spliced, &suffix);
                if !report.is_clean() {
                    return Err(ExecError::InvalidSchedule(report.render()));
                }
                let dop_f = |sc: &Schedule| sc.dop.iter().map(|&d| d as f64).collect::<Vec<f64>>();
                let old_predicted_jct = predicted_jct(dag, &corrected, &dop_f(cur), &cur.colocated);
                let new_predicted_jct =
                    predicted_jct(dag, &corrected, &dop_f(&spliced), &spliced.colocated);
                // Risk adjustment: on a loss-prone store every external read is a
                // fault surface. A replan that externalizes seam edges or raises
                // the DoP of externally-reading stages buys its predicted gain
                // with extra loss draws — the very splice that wins 10% on a
                // clean store can lose it back to recovery waits at a 5% loss
                // rate. Estimate the per-read loss rate and mean recovery delay
                // from this run's own observations and charge each plan its
                // expected recovery delay before comparing.
                let recoveries = totals.object_losses + totals.object_corruptions;
                let (old_risk, new_risk) = if recoveries > 0 {
                    let mut reads_seen: u64 = 0;
                    for (i, _) in simulated.iter().enumerate().filter(|(_, &s)| s) {
                        for e in dag.in_edges(StageId(i as u32)) {
                            if !cur.colocated[e.id.index()] {
                                reads_seen += u64::from(cur.dop[i]);
                            }
                        }
                    }
                    let p_loss = (f64::from(recoveries) / reads_seen.max(1) as f64).min(1.0);
                    let avg_rec = totals.recovery_delay_s / f64::from(recoveries);
                    (
                        expected_recovery_delay(dag, cur, &suffix, p_loss, avg_rec),
                        expected_recovery_delay(dag, &spliced, &suffix, p_loss, avg_rec),
                    )
                } else {
                    (0.0, 0.0)
                };
                let applied = new_predicted_jct + new_risk
                    < (old_predicted_jct + old_risk) * (1.0 - MIN_GAIN) - 1e-12;
                let record = ReplanRecord {
                    trigger: if new_reexecs > 0 && ev.step_factors.read > ev.step_factors.compute {
                        ReplanTrigger::ObjectRecovery
                    } else {
                        ReplanTrigger::Drift
                    },
                    at_stage: s.0,
                    sim_time: now,
                    factor: ev.factor,
                    corrections: corrections.global,
                    suffix_stages: n_suffix as u32,
                    old_predicted_jct,
                    new_predicted_jct,
                    risk_penalty: new_risk - old_risk,
                    audit_clean: true,
                    applied,
                    // Decision 0 is the schedule commit; replans continue the
                    // shared monotonic sequence (replayed decisions included
                    // via `replans`).
                    decision_seq: self.replans.len() as u64 + 1,
                };
                let spliced = applied.then_some(spliced);
                // Write-ahead: the decision journals before its event fires or
                // the splice takes effect.
                if let Some(j) = journal.as_deref_mut() {
                    j.append_replan(&record, &suffix, spliced.as_ref())?;
                }
                (record, spliced)
            };
            if obs.is_enabled() {
                obs.event(
                    "sched.replan",
                    Track::scheduler(0),
                    now,
                    vec![
                        ("trigger", match record.trigger {
                            ReplanTrigger::Drift => "drift",
                            ReplanTrigger::ObjectRecovery => "object-recovery",
                        }
                        .into()),
                        ("at_stage", record.at_stage.into()),
                        ("factor", record.factor.into()),
                        ("suffix_stages", u64::from(record.suffix_stages).into()),
                        ("old_predicted_jct", record.old_predicted_jct.into()),
                        ("new_predicted_jct", record.new_predicted_jct.into()),
                        ("applied", u64::from(record.applied).into()),
                        ("risk_penalty", record.risk_penalty.into()),
                        ("audit_clean", u64::from(record.audit_clean).into()),
                        ("corr_read", record.corrections.read.into()),
                        ("corr_compute", record.corrections.compute.into()),
                        ("corr_write", record.corrections.write.into()),
                        ("decision_seq", record.decision_seq.into()),
                    ],
                );
            }
            self.replans.push(record);
            self.last_decision = Some((record.factor, remaining));
            let Some(spliced) = spliced else { continue };
            if obs.is_enabled() {
                // Seam edges of the applied splice: prefix producer →
                // replanned consumer. The race checker pins seam reads to
                // this instant — a consumer streaming through shared
                // memory across a seam would be reading state the
                // replanned placement no longer guarantees.
                for e in dag.edges() {
                    if !suffix[e.src.index()] && suffix[e.dst.index()] {
                        obs.event(
                            "hb.seam",
                            Track::scheduler(0),
                            now,
                            vec![
                                ("edge", (e.id.index() as u64).into()),
                                ("src_stage", e.src.0.into()),
                                ("dst_stage", e.dst.0.into()),
                            ],
                        );
                    }
                }
            }
            state.stats.rescheduled_stages += record.suffix_stages;
            self.cur = spliced;
        }
        Ok(())
    }

    /// Close the pass under the final schedule and attach the decision log.
    pub(crate) fn finish(self, state: SimState, gt: &GroundTruth, obs: &Recorder) -> SimPass {
        let mut pass = finish_pass(state, self.dag, &self.cur, gt, obs);
        pass.metrics.faults.rescheduled_stages = self
            .replans
            .iter()
            .filter(|r| r.applied)
            .map(|r| r.suffix_stages)
            .sum();
        pass.trace.replans = self.replans;
        pass
    }
}

/// Expected serial lineage-recovery delay of a plan's not-yet-run suffix
/// under an estimated per-read object-loss rate: for each suffix stage,
/// the probability that at least one of its external (non-co-located)
/// reads draws a loss, times the observed mean recovery delay. Losses
/// within one stage overlap (independent objects recover concurrently),
/// while suffix stages are chained by their data dependencies, so the
/// per-stage expectations add.
fn expected_recovery_delay(
    dag: &JobDag,
    schedule: &Schedule,
    suffix: &[bool],
    p_loss: f64,
    avg_rec: f64,
) -> f64 {
    let mut total = 0.0;
    for s in dag.stages() {
        if !suffix[s.id.index()] {
            continue;
        }
        let mut reads: u32 = 0;
        for e in dag.in_edges(s.id) {
            if !schedule.colocated[e.id.index()] {
                reads += schedule.dop[s.id.index()];
            }
        }
        if reads > 0 {
            total += (1.0 - (1.0 - p_loss).powi(reads as i32)) * avg_rec;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::faults::{FaultPlan, RecoveryPolicy};
    use crate::groundtruth::ExecConfig;
    use ditto_cluster::ResourceManager;
    use ditto_core::{
        DittoScheduler, JointOptions, Objective, Scheduler, SchedulingContext,
    };
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn fixture(
        free: &[u32],
    ) -> (
        JobDag,
        JobTimeModel,
        ResourceManager,
        Schedule,
        GroundTruth,
    ) {
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

    fn ctx<'a>(model: &'a JobTimeModel, rm: &'a ResourceManager) -> ReschedulingContext<'a> {
        ReschedulingContext {
            model,
            resources: rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        }
    }

    #[test]
    fn no_faults_is_bit_identical_to_frozen_engine() {
        let (dag, model, rm, schedule, gt) = fixture(&[48, 32]);
        let plan = FaultPlan::none();
        let policy = RecoveryPolicy::none();
        let (ft, fm) =
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap();
        let (at, am) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(at.replans.is_empty(), "no drift may be detected fault-free");
        assert_eq!(at.tasks, ft.tasks);
        assert_eq!(am, fm);
    }

    #[test]
    fn unit_drift_and_zero_loss_never_replan() {
        // The bit-identity satellite's core: drift factor exactly 1.0 and
        // zero loss probability must leave the detector silent — observed
        // equals expected structurally, not approximately.
        let (dag, model, rm, schedule, gt) = fixture(&[40, 24]);
        let plan = FaultPlan::none().with_drift(1.0);
        let policy = RecoveryPolicy::default();
        let (ft, fm) =
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap();
        let (at, am) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(at.replans.is_empty());
        assert_eq!(at.tasks, ft.tasks);
        assert_eq!(am, fm);
    }

    #[test]
    fn drift_fires_replan_with_certified_records() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let policy = RecoveryPolicy::default();
        let (trace, metrics) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(!trace.replans.is_empty(), "2x drift must trip the band");
        for r in &trace.replans {
            assert!(r.audit_clean, "every splice must certify clean");
            assert_eq!(r.trigger, ReplanTrigger::Drift);
            assert!(r.factor > 1.25);
            assert!(r.corrections.compute > 1.5, "compute drift learned");
            assert!(
                (r.corrections.read - 1.0).abs() < 0.3,
                "read barely drifts: {}",
                r.corrections.read
            );
            assert!(r.old_predicted_jct.is_finite() && r.new_predicted_jct.is_finite());
        }
        let applied: u32 = trace
            .replans
            .iter()
            .filter(|r| r.applied)
            .map(|r| r.suffix_stages)
            .sum();
        assert_eq!(metrics.faults.rescheduled_stages, applied);
        assert!(metrics.jct > 0.0);
    }

    #[test]
    fn replans_are_bounded_and_re_armed() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(3.0);
        let cfg = AdaptiveConfig {
            max_replans: 1,
            ..Default::default()
        };
        let (trace, _) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .adaptive(&ctx(&model, &rm), &cfg)
            .run()
            .unwrap();
        assert!(trace.replans.len() <= 1);
    }

    #[test]
    fn object_loss_escalates_to_replan_when_sustained() {
        // Lossy external storage inflates observed read steps through the
        // lineage-recovery wait; sustained loss walks up the escalation
        // ladder into a replan tagged as object recovery.
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::from_rates(crate::faults::FaultRates {
            loss_prob: 0.9,
            ..crate::faults::FaultRates::none(7)
        });
        let (trace, metrics) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(metrics.faults.lineage_reexecs > 0);
        if let Some(r) = trace.replans.first() {
            assert_eq!(r.trigger, ReplanTrigger::ObjectRecovery);
            assert!(r.corrections.read > 1.0);
        }
    }

    #[test]
    fn adaptive_beats_frozen_under_differential_drift() {
        // The headline robustness claim: under sustained compute drift on
        // a slot-constrained cluster, replanning with the corrected model
        // beats the frozen schedule's realized JCT.
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let policy = RecoveryPolicy::default();
        let (_, frozen) =
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap();
        let (trace, adaptive) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(
            adaptive.jct <= frozen.jct + 1e-9,
            "adaptive {} must not lose to frozen {}",
            adaptive.jct,
            frozen.jct
        );
        if trace.replans.iter().any(|r| r.applied) {
            assert!(adaptive.jct < frozen.jct, "an applied replan must help");
        }
    }

    #[test]
    fn kind_scoped_drift_transfers_corrections_and_wins() {
        // Differential drift: only Join and GroupBy stages slow down.
        // Corrections learned from the first drifted stage of a kind
        // transfer through the detector's class layer to same-kind stages
        // that have not run, shifting the corrected α-ratios (Eq. 3/4),
        // and the applied replan realizes a strict JCT win.
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none()
            .with_kind_drift(ditto_dag::StageKind::Join, 2.0)
            .with_kind_drift(ditto_dag::StageKind::GroupBy, 2.0);
        let policy = RecoveryPolicy::default();
        let (_, frozen) =
            Engine::new(&dag, &schedule, &gt).faults(&plan, &policy).run().unwrap();
        let (trace, adaptive) = Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .adaptive(&ctx(&model, &rm), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(
            trace.replans.iter().any(|r| r.applied),
            "kind drift on a constrained cluster must apply a replan"
        );
        assert!(
            adaptive.jct < 0.90 * frozen.jct,
            "adaptive {:.2} must beat frozen {:.2} by >10% under kind drift",
            adaptive.jct,
            frozen.jct
        );
        for r in &trace.replans {
            assert!(r.audit_clean, "spliced schedule must certify clean");
            assert_eq!(
                r.risk_penalty, 0.0,
                "no observed losses means no risk adjustment"
            );
        }
    }
}
