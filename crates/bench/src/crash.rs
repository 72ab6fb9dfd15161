//! Crash-point certification sweep (`figures -- crash`, writes
//! `BENCH_crash.json` + `JOURNAL_crash.bin`).
//!
//! The control plane is one coordinator process; this sweep certifies
//! that losing it at *any* journal instant is recoverable. Two
//! representative fixed-seed scenarios run crash-free first to establish
//! the baseline journal, then the coordinator is killed at every journal
//! record index (the smoke subset strides the same ladder) and resumed:
//!
//! * **frozen-ladder** — Q95/S3 under seeded object loss plus a mid-job
//!   whole-server failure with failure-aware rescheduling (the full
//!   recovery ladder of the frozen engine);
//! * **adaptive-drift2x** — the adaptive engine under 2× compute drift
//!   plus object loss, where recovery must also replay journaled replan
//!   splices without re-optimizing.
//!
//! Every crash point asserts the recovered run is **bit-identical** to
//! the crash-free run (final metrics, task timelines, attempt history,
//! replan decisions), that the resumed journal passes
//! [`ditto_exec::validate_journal`], that the recovered run's telemetry
//! certifies race-free under [`ditto_audit::check_trace`], and that the
//! journal ↔ trace [`ditto_exec::cross_check`] is clean. Recovery
//! overhead is bounded by construction — checkpointed stages restore
//! instead of re-simulating — and the sweep reports the realized
//! re-simulation counts so the regression gate can hold the line.

use crate::setup::prepare;
use ditto_audit::RaceOptions;
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{DittoScheduler, JointOptions, Objective, Schedule};
use ditto_exec::{
    cross_check, decode_journal, simulate, validate_journal, AdaptiveConfig, Engine, ExecError,
    ExecutionTrace, FaultPlan, FaultRates, JobMetrics, JournalSession, RecoveryPolicy,
    ReschedulingContext,
};
use ditto_obs::{Recorder, TraceData};
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;

/// Seed naming the fault history of both scenarios.
pub const CRASH_SEED: u64 = 31;
/// Smoke subset: at most this many crash points per scenario.
pub const CRASH_SMOKE_POINTS: u64 = 8;

/// One scenario's crash-sweep certification summary.
#[derive(Debug, Clone, Serialize)]
pub struct CrashSweepRow {
    /// Scenario name (`frozen-ladder` / `adaptive-drift2x`).
    pub scenario: String,
    /// Records in the crash-free baseline journal.
    pub journal_records: u64,
    /// Crash points exercised (= records for the full sweep).
    pub crash_points: u64,
    /// Baseline (and recovered — they are asserted equal) JCT, seconds.
    pub jct_seconds: f64,
    /// True iff every crash point recovered bit-identically.
    pub bit_identical: bool,
    /// True iff every resumed journal + recovered trace certified clean
    /// (journal invariants, race-freedom, journal ↔ trace cross-check).
    pub certified_clean: bool,
    /// Mean stages re-simulated per recovery (not restored from
    /// checkpoints) — the recovery-overhead headline, lower is better.
    pub mean_resim_stages: f64,
    /// Worst-case stages re-simulated across all crash points.
    pub max_resim_stages: u32,
    /// Re-delivered object commits deduplicated across all recoveries.
    pub deduped_commits: u64,
}

/// The sweep's cluster: the adaptive sweep's slot-constrained pair, so
/// drift-triggered replans have real trade-offs to move.
pub const CRASH_SLOTS: &[u32] = &[24, 16];

fn crash_cluster() -> ResourceManager {
    ResourceManager::from_free_slots(CRASH_SLOTS.to_vec())
}

struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    adaptive: bool,
}

fn scenarios(dag_jct: f64) -> Vec<Scenario> {
    let loss = FaultPlan::from_rates(FaultRates {
        loss_prob: 0.05,
        ..FaultRates::none(CRASH_SEED)
    });
    vec![
        Scenario {
            name: "frozen-ladder",
            plan: loss
                .clone()
                .and_server_failure(ServerId(1), dag_jct * 0.3),
            adaptive: false,
        },
        Scenario {
            name: "adaptive-drift2x",
            plan: FaultPlan::from_rates(FaultRates {
                loss_prob: 0.02,
                ..FaultRates::none(CRASH_SEED)
            })
            .with_drift(2.0),
            adaptive: true,
        },
    ]
}

struct Harness {
    dag: ditto_dag::JobDag,
    gt: ditto_exec::GroundTruth,
    model: ditto_timemodel::JobTimeModel,
    rm: ResourceManager,
    schedule: Schedule,
}

fn harness() -> Harness {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = crash_cluster();
    let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    Harness {
        dag: p.plan.dag.clone(),
        gt: p.gt,
        model: p.model,
        rm,
        schedule,
    }
}

impl Harness {
    fn ctx(&self) -> ReschedulingContext<'_> {
        ReschedulingContext {
            model: &self.model,
            resources: &self.rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        }
    }

    fn run(
        &self,
        sc: &Scenario,
        obs: &Recorder,
        session: &mut JournalSession,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        let policy = RecoveryPolicy::default();
        let ctx = self.ctx();
        let engine = Engine::new(&self.dag, &self.schedule, &self.gt)
            .faults(&sc.plan, &policy)
            .recorder(obs)
            .journal(session);
        if sc.adaptive {
            engine.adaptive(&ctx, &AdaptiveConfig::default()).run()
        } else {
            engine.failover(&ctx).run()
        }
    }
}

/// Full certification sweep: crash at *every* journal record index.
pub fn crash_sweep() -> Vec<CrashSweepRow> {
    crash_sweep_with(None)
}

/// CI smoke subset: the same ladder strided down to at most
/// [`CRASH_SMOKE_POINTS`] crash points per scenario.
pub fn crash_sweep_smoke() -> Vec<CrashSweepRow> {
    crash_sweep_with(Some(CRASH_SMOKE_POINTS))
}

fn crash_sweep_with(max_points: Option<u64>) -> Vec<CrashSweepRow> {
    let h = harness();
    let (_, base) = simulate(&h.dag, &h.schedule, &h.gt);
    let mut rows = Vec::new();
    for sc in scenarios(base.jct) {
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = h
            .run(&sc, &Recorder::disabled(), &mut clean)
            .expect("crash-free journaled run");
        let total = clean.records_written();
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "{}: baseline journal dirty: {v:?}", sc.name);

        let stride = match max_points {
            Some(m) if total > m => total.div_ceil(m),
            _ => 1,
        };
        let n_stages = h.dag.num_stages() as u32;
        let mut bit_identical = true;
        let mut certified_clean = true;
        let mut resim: Vec<u32> = Vec::new();
        let mut deduped = 0u64;
        let mut points = 0u64;
        for k in (0..total).step_by(stride as usize) {
            points += 1;
            let mut armed = JournalSession::fresh(Some(k));
            let err = h
                .run(&sc, &Recorder::disabled(), &mut armed)
                .expect_err("armed crash must kill the run");
            assert!(
                matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
                "{}: crash point {k} surfaced {err}",
                sc.name
            );
            let mut resumed =
                JournalSession::resume(armed.durable_bytes()).expect("torn journal resumes");
            let obs = Recorder::new();
            let (rt, rm2) = h
                .run(&sc, &obs, &mut resumed)
                .expect("recovery must terminate");
            let trace = obs.finish();
            if rm2 != bm || rt.tasks != bt.tasks || rt.attempts != bt.attempts
                || rt.replans != bt.replans
            {
                bit_identical = false;
            }
            certified_clean &= certify(&resumed, &trace);
            resim.push(n_stages - resumed.restored_stages());
            deduped += resumed.deduped();
        }
        rows.push(CrashSweepRow {
            scenario: sc.name.to_string(),
            journal_records: total,
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
fn certify(session: &JournalSession, trace: &TraceData) -> bool {
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
            capacities: Some(CRASH_SLOTS.to_vec()),
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
    let h = harness();
    let (_, base) = simulate(&h.dag, &h.schedule, &h.gt);
    let sc = scenarios(base.jct)
        .into_iter()
        .find(|s| s.adaptive)
        .expect("adaptive scenario exists");
    let mut clean = JournalSession::fresh(None);
    h.run(&sc, &Recorder::disabled(), &mut clean)
        .expect("crash-free journaled run");
    let mid = clean.records_written() / 2;
    let mut armed = JournalSession::fresh(Some(mid));
    h.run(&sc, &Recorder::disabled(), &mut armed)
        .expect_err("armed crash");
    let mut resumed = JournalSession::resume(armed.durable_bytes()).expect("resume");
    let obs = Recorder::deterministic();
    h.run(&sc, &obs, &mut resumed).expect("recovery");
    (obs.finish(), resumed.durable_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_smoke_certifies_every_point() {
        let rows = crash_sweep_smoke();
        assert_eq!(rows.len(), 2, "both scenarios swept");
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
