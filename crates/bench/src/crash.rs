//! Crash-point certification sweep (`figures -- crash`, writes
//! `BENCH_crash.json` + `JOURNAL_crash.bin`).
//!
//! The control plane is one coordinator process; this sweep certifies
//! that losing it at *any* journal instant is recoverable. Three
//! representative fixed-seed scenarios run crash-free first to establish
//! the baseline journal, then the coordinator is killed at every journal
//! record index (the smoke subset strides the same ladder) and resumed:
//!
//! * **frozen-ladder** — Q95/S3 under seeded object loss plus a mid-job
//!   whole-server failure with failure-aware rescheduling (the full
//!   recovery ladder of the frozen engine);
//! * **adaptive-drift2x** — the adaptive engine under 2× compute drift
//!   plus object loss, where recovery must also replay journaled replan
//!   splices without re-optimizing;
//! * **wide-192** — one 192-stage random DAG on eight 48-slot servers
//!   under the end-to-end benchmark's 2 % crash / straggler / loss mix:
//!   the shape where a checkpoint is a delta against up to 191 earlier
//!   ones, and where the journal's size and write cost are fenced (see
//!   [`wide_journal_overhead_ratio`]).
//!
//! Every crash point asserts the recovered run is **bit-identical** to
//! the crash-free run (final metrics, task timelines, attempt history,
//! replan decisions), that the resumed journal passes
//! [`ditto_exec::validate_journal`], that the recovered run's telemetry
//! certifies race-free under [`ditto_audit::check_trace`], and that the
//! journal ↔ trace [`ditto_exec::cross_check`] is clean. Recovery
//! overhead is bounded by construction — checkpointed stages restore
//! instead of re-simulating — and the sweep reports the realized
//! re-simulation counts.

use crate::setup::prepare;
use ditto_audit::RaceOptions;
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_exec::{
    cross_check, decode_journal, simulate, validate_journal, AdaptiveConfig, Engine, ExecConfig,
    ExecError, ExecutionTrace, FaultPlan, FaultRates, GroundTruth, JobMetrics, JournalSession,
    RecoveryPolicy, ReschedulingContext,
};
use ditto_obs::{Recorder, TraceData};
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;
use std::time::Instant;

/// Seed naming the fault history of every scenario (and the wide DAG).
pub(crate) const CRASH_SEED: u64 = 31;
/// Smoke subset: at most this many crash points per scenario.
pub(crate) const CRASH_SMOKE_POINTS: u64 = 8;

/// One scenario's crash-sweep certification summary.
#[derive(Debug, Clone, Serialize)]
pub struct CrashSweepRow {
    /// Scenario name (`frozen-ladder` / `adaptive-drift2x` / `wide-192`).
    pub(crate) scenario: String,
    /// Records in the crash-free baseline journal.
    pub(crate) journal_records: u64,
    /// Bytes of the crash-free baseline journal (header included).
    pub(crate) journal_bytes: u64,
    /// `journal_bytes / journal_records`.
    pub(crate) bytes_per_record: f64,
    /// Crash points exercised (= records for the full sweep).
    pub(crate) crash_points: u64,
    /// Baseline (and recovered — they are asserted equal) JCT, seconds.
    pub(crate) jct_seconds: f64,
    /// True iff every crash point recovered bit-identically.
    pub bit_identical: bool,
    /// True iff every resumed journal + recovered trace certified clean
    /// (journal invariants, race-freedom, journal ↔ trace cross-check).
    pub certified_clean: bool,
    /// Mean stages re-simulated per recovery (not restored from
    /// checkpoints) — the recovery-overhead headline, lower is better.
    pub(crate) mean_resim_stages: f64,
    /// Worst-case stages re-simulated across all crash points.
    pub(crate) max_resim_stages: u32,
    /// Re-delivered object commits deduplicated across all recoveries.
    pub(crate) deduped_commits: u64,
}

/// The Q95 scenarios' cluster: the adaptive sweep's slot-constrained
/// pair, so drift-triggered replans have real trade-offs to move.
pub(crate) const CRASH_SLOTS: &[u32] = &[24, 16];
/// The wide scenario's cluster and DAG size (the end-to-end benchmark's
/// `sched_wide_*` shape).
pub(crate) const WIDE_SLOTS: &[u32] = &[48; 8];
/// Stages of the wide scenario's random DAG.
pub(crate) const WIDE_STAGES: usize = 192;

/// One scenario: a job, its cluster and schedule, and a fault history.
struct Scenario {
    name: &'static str,
    dag: ditto_dag::JobDag,
    gt: GroundTruth,
    model: JobTimeModel,
    slots: &'static [u32],
    schedule: Schedule,
    plan: FaultPlan,
    adaptive: bool,
}

/// The scenarios, in the order their rows are written (new ones are
/// appended, so older rows keep their place and their seeds).
fn scenarios() -> Vec<Scenario> {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = ResourceManager::from_free_slots(CRASH_SLOTS.to_vec());
    let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let (_, base) = simulate(&p.plan.dag, &schedule, &p.gt);
    let loss = |loss_prob| {
        FaultPlan::from_rates(FaultRates {
            loss_prob,
            ..FaultRates::none(CRASH_SEED)
        })
    };
    let q95 = |name, adaptive, plan| Scenario {
        name,
        dag: p.plan.dag.clone(),
        gt: p.gt.clone(),
        model: p.model.clone(),
        slots: CRASH_SLOTS,
        schedule: schedule.clone(),
        plan,
        adaptive,
    };
    vec![
        q95(
            "frozen-ladder",
            false,
            loss(0.05).and_server_failure(ServerId(1), base.jct * 0.3),
        ),
        q95("adaptive-drift2x", true, loss(0.02).with_drift(2.0)),
        wide_scenario(),
    ]
}

fn wide_scenario() -> Scenario {
    let dag = random_dag(CRASH_SEED, &RandomDagConfig::sized(WIDE_STAGES));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &ResourceManager::from_free_slots(WIDE_SLOTS.to_vec()),
        objective: Objective::Jct,
    });
    Scenario {
        name: "wide-192",
        plan: FaultPlan::from_rates(FaultRates {
            crash_prob: 0.02,
            straggler_prob: 0.02,
            straggler_slowdown: 4.0,
            loss_prob: 0.02,
            ..FaultRates::none(CRASH_SEED)
        }),
        dag,
        gt: GroundTruth::new(ExecConfig::default()),
        model,
        slots: WIDE_SLOTS,
        schedule,
        adaptive: false,
    }
}

impl Scenario {
    /// Run the scenario on its engine, journaled when `session` is given.
    fn run(
        &self,
        obs: &Recorder,
        session: Option<&mut JournalSession>,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        let policy = RecoveryPolicy::default();
        let rm = ResourceManager::from_free_slots(self.slots.to_vec());
        let ctx = ReschedulingContext {
            model: &self.model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let mut engine = Engine::new(&self.dag, &self.schedule, &self.gt)
            .faults(&self.plan, &policy)
            .recorder(obs);
        if let Some(session) = session {
            engine = engine.journal(session);
        }
        if self.adaptive {
            engine.adaptive(&ctx, &AdaptiveConfig::default()).run()
        } else {
            engine.failover(&ctx).run()
        }
    }
}

/// What the write-ahead journal costs a run of the wide scenario: wall
/// time of the journaled run ÷ the un-journaled one, as the median over
/// rounds that time the two back to back (so a clock-speed change between
/// rounds cancels). A ratio of two timings on one machine, not an absolute
/// time; it is printed and asserted but — unlike everything in a
/// [`CrashSweepRow`] — differs run to run, so it stays out of
/// `BENCH_crash.json`, which CI compares byte for byte across two runs.
pub fn wide_journal_overhead_ratio() -> f64 {
    const ROUNDS: usize = 15;
    const REPS: usize = 8;
    let sc = wide_scenario();
    let off = Recorder::disabled();
    let time = |journaled: bool| {
        let start = Instant::now();
        for _ in 0..REPS {
            let mut session = journaled.then(|| JournalSession::fresh(None));
            sc.run(&off, session.as_mut()).expect("crash-free run");
        }
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let plain = time(false);
            time(true) / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ROUNDS / 2]
}

/// Full certification sweep: crash at *every* journal record index.
pub fn crash_sweep() -> Vec<CrashSweepRow> {
    crash_sweep_with(None)
}

/// CI smoke subset: the same ladder strided down to at most
/// `CRASH_SMOKE_POINTS` crash points per scenario.
pub fn crash_sweep_smoke() -> Vec<CrashSweepRow> {
    crash_sweep_with(Some(CRASH_SMOKE_POINTS))
}

fn crash_sweep_with(max_points: Option<u64>) -> Vec<CrashSweepRow> {
    let mut rows = Vec::new();
    for sc in scenarios() {
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = sc
            .run(&Recorder::disabled(), Some(&mut clean))
            .expect("crash-free journaled run");
        let total = clean.records_written();
        let journal_bytes = clean.durable_bytes().len() as u64;
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "{}: baseline journal dirty: {v:?}", sc.name);

        let stride = match max_points {
            Some(m) if total > m => total.div_ceil(m),
            _ => 1,
        };
        let n_stages = sc.dag.num_stages() as u32;
        let mut bit_identical = true;
        let mut certified_clean = true;
        let mut resim: Vec<u32> = Vec::new();
        let mut deduped = 0u64;
        let mut points = 0u64;
        for k in (0..total).step_by(stride as usize) {
            points += 1;
            let mut armed = JournalSession::fresh(Some(k));
            let err = sc
                .run(&Recorder::disabled(), Some(&mut armed))
                .expect_err("armed crash must kill the run");
            assert!(
                matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
                "{}: crash point {k} surfaced {err}",
                sc.name
            );
            let mut resumed =
                JournalSession::resume(armed.durable_bytes()).expect("torn journal resumes");
            let obs = Recorder::new();
            let (rt, rm2) = sc
                .run(&obs, Some(&mut resumed))
                .expect("recovery must terminate");
            let trace = obs.finish();
            if rm2 != bm || rt.tasks != bt.tasks || rt.attempts != bt.attempts
                || rt.replans != bt.replans
            {
                bit_identical = false;
            }
            certified_clean &= certify(&resumed, &trace, sc.slots);
            resim.push(n_stages - resumed.restored_stages());
            deduped += resumed.deduped();
        }
        rows.push(CrashSweepRow {
            scenario: sc.name.to_string(),
            journal_records: total,
            journal_bytes,
            bytes_per_record: journal_bytes as f64 / total as f64,
            crash_points: points,
            jct_seconds: bm.jct,
            bit_identical,
            certified_clean,
            mean_resim_stages: resim.iter().map(|&r| r as f64).sum::<f64>()
                / resim.len().max(1) as f64,
            max_resim_stages: resim.iter().copied().max().unwrap_or(0),
            deduped_commits: deduped,
        });
    }
    rows
}

/// The three certificates every recovered run must pass: journal
/// invariants, race-freedom of the recovered telemetry, and the
/// journal ↔ trace cross-check.
fn certify(session: &JournalSession, trace: &TraceData, slots: &[u32]) -> bool {
    let decoded = match decode_journal(session.durable_bytes()) {
        Ok(d) => d,
        Err(_) => return false,
    };
    if decoded.torn.is_some() || !validate_journal(&decoded.records).is_empty() {
        return false;
    }
    if !cross_check(&decoded.records, trace).is_empty() {
        return false;
    }
    let race = ditto_audit::check_trace(
        trace,
        &RaceOptions {
            capacities: Some(slots.to_vec()),
            ..Default::default()
        },
    );
    race.is_clean()
}

/// The recovered-run exemplar for `figures -- crash --trace-out` and the
/// CI double-run byte-identity check: crash the adaptive scenario at the
/// middle journal record, resume with a live recorder, and return the
/// recovered run's trace plus the final (resumed) journal bytes.
/// Simulation timestamps are sim-time and the scheduler spans of the
/// live replan run on a [`Recorder::deterministic`] virtual clock, so
/// the exported artifact is byte-reproducible run over run.
pub fn traced_crash_recovery() -> (TraceData, Vec<u8>) {
    let sc = scenarios()
        .into_iter()
        .find(|s| s.adaptive)
        .expect("adaptive scenario exists");
    let mut clean = JournalSession::fresh(None);
    sc.run(&Recorder::disabled(), Some(&mut clean))
        .expect("crash-free journaled run");
    let mid = clean.records_written() / 2;
    let mut armed = JournalSession::fresh(Some(mid));
    sc.run(&Recorder::disabled(), Some(&mut armed))
        .expect_err("armed crash");
    let mut resumed = JournalSession::resume(armed.durable_bytes()).expect("resume");
    let obs = Recorder::deterministic();
    sc.run(&obs, Some(&mut resumed)).expect("recovery");
    (obs.finish(), resumed.durable_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_smoke_certifies_every_point() {
        let rows = crash_sweep_smoke();
        assert_eq!(rows.len(), 3, "every scenario swept");
        for r in &rows {
            assert!(r.journal_records > 4, "{r:?}");
            assert!(r.crash_points > 0 && r.crash_points <= CRASH_SMOKE_POINTS + 1);
            assert!(r.bit_identical, "recovery diverged: {r:?}");
            assert!(r.certified_clean, "certification failed: {r:?}");
            assert!(
                r.mean_resim_stages <= r.max_resim_stages as f64 + 1e-12,
                "{r:?}"
            );
        }
        // The adaptive scenario must have exercised replan replay.
        let ad = rows.iter().find(|r| r.scenario == "adaptive-drift2x").unwrap();
        assert!(ad.deduped_commits > 0, "commit dedup never exercised: {ad:?}");
        // Format v2's delta checkpoints: a 192-stage journal no longer
        // carries 192 whole bucket vectors (it was 3.9 KB a record).
        let wide = rows.iter().find(|r| r.scenario == "wide-192").unwrap();
        assert!(wide.journal_records > WIDE_STAGES as u64, "{wide:?}");
        assert!(wide.bytes_per_record <= 1024.0, "journal grew fat: {wide:?}");
    }

    /// Same-machine ratio, not an absolute time: the journaled wide run
    /// may cost at most three un-journaled ones (format v1 paid 13.6).
    /// Release only — a debug build times different code.
    #[cfg(not(debug_assertions))]
    #[test]
    fn journaled_wide_run_costs_at_most_three_plain_ones() {
        let ratio = wide_journal_overhead_ratio();
        assert!(ratio <= 3.0, "journaled / un-journaled = {ratio:.2}");
    }

    #[test]
    fn traced_recovery_artifact_is_deterministic() {
        let (a, ja) = traced_crash_recovery();
        let (b, jb) = traced_crash_recovery();
        assert_eq!(
            ditto_obs::to_chrome_trace(&a),
            ditto_obs::to_chrome_trace(&b),
            "recovered-run trace must export byte-identically"
        );
        assert_eq!(ja, jb, "recovered journal must be byte-identical");
        // The recovered trace announces the resume on the scheduler track.
        assert!(a.events.iter().any(|e| e.name == "recovery.resume"));
    }
}
