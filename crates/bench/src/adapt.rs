//! Adaptive-execution sweep: drift × loss × recovery policy, frozen vs
//! adaptive engine (`figures -- adapt`, writes `BENCH_adapt.json`).
//!
//! Extension beyond the paper: Ditto schedules once from a profiled
//! model, but recurring jobs drift — input growth, co-tenant
//! interference, storage brownouts. The sweep injects a multiplicative
//! compute drift and seeded intermediate-object loss, then plays every
//! scenario through both engines:
//!
//! * **frozen** — the schedule as optimized, faults handled by the
//!   retry/lineage ladder only ([`ditto_exec::Engine::faults`]);
//! * **adaptive** — the same ladder plus online drift detection and
//!   elastic suffix re-optimization ([`ditto_exec::Engine::adaptive`]).
//!
//! Deterministic: one seed names one fault history per cell, so the JSON
//! artifact is byte-identical across runs.

use crate::setup::{prepare, PreparedQuery};
use ditto_cluster::ResourceManager;
use ditto_core::{DittoScheduler, JointOptions, Objective, Schedule};
use ditto_exec::{
    AdaptiveConfig, Engine, FaultPlan, FaultRates, RecoveryPolicy, ReschedulingContext,
};
use ditto_obs::{Recorder, TraceData};
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;

/// Drift factors the full sweep covers (1.0 = the model was right).
pub(crate) const ADAPT_DRIFTS: &[f64] = &[1.0, 1.5, 2.0];
/// Intermediate-object loss probabilities the full sweep covers.
pub(crate) const ADAPT_LOSSES: &[f64] = &[0.0, 0.02, 0.05];
/// CI smoke subset: the extremes only.
pub(crate) const ADAPT_SMOKE_DRIFTS: &[f64] = &[1.0, 2.0];
/// CI smoke subset: clean vs lossy.
pub(crate) const ADAPT_SMOKE_LOSSES: &[f64] = &[0.0, 0.05];

/// Seed naming the fault history of every sweep cell.
pub(crate) const ADAPT_SEED: u64 = 23;

/// One adaptive-sweep measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptSweepRow {
    /// Injected multiplicative compute drift (1.0 = none).
    pub(crate) drift: f64,
    /// Per-read intermediate-object loss probability.
    pub(crate) loss_rate: f64,
    /// Recovery policy ("retry" / "retry+spec").
    pub(crate) recovery: String,
    /// Execution engine ("frozen" / "adaptive").
    pub(crate) engine: String,
    /// Realized JCT under the injected conditions, seconds.
    pub(crate) jct_seconds: f64,
    /// JCT relative to the frozen engine on the same cell (1.0 for the
    /// frozen rows themselves; < 1.0 means the adaptive engine won).
    pub(crate) jct_vs_frozen: f64,
    /// Replans recorded on the trace (attempted, including rejected).
    pub(crate) replans: u32,
    /// Replans whose corrected-model JCT beat the incumbent and were
    /// spliced in.
    pub(crate) applied_replans: u32,
    /// Lineage re-executions of lost/corrupt intermediates.
    pub(crate) lineage_reexecs: u32,
    /// Failed / superseded task attempts.
    pub(crate) extra_attempts: u32,
    /// True iff every recorded replan passed the feasibility certificate.
    pub audit_clean: bool,
}

/// The sweep's cluster: deliberately slot-constrained (the §6 testbed
/// has ~10× more slots than Q95 wants, where every schedule is
/// near-optimal and replanning has nothing to move). Two uneven servers
/// force real DoP trade-offs, so a drifted model prices them wrong.
fn adapt_cluster() -> ResourceManager {
    ResourceManager::from_free_slots(vec![24, 16])
}

/// Full sweep for `figures -- adapt`.
pub fn adapt_sweep() -> Vec<AdaptSweepRow> {
    adapt_sweep_grid(ADAPT_DRIFTS, ADAPT_LOSSES)
}

/// CI subset for `figures -- adapt-smoke`.
pub fn adapt_sweep_smoke() -> Vec<AdaptSweepRow> {
    adapt_sweep_grid(ADAPT_SMOKE_DRIFTS, ADAPT_SMOKE_LOSSES)
}

/// Sweep an explicit drift × loss grid through both engines.
pub(crate) fn adapt_sweep_grid(drifts: &[f64], losses: &[f64]) -> Vec<AdaptSweepRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = adapt_cluster();
    let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let policies = [
        ("retry", RecoveryPolicy::retry_only()),
        ("retry+spec", RecoveryPolicy::default()),
    ];
    let mut rows = Vec::new();
    for &drift in drifts {
        for &loss in losses {
            for (policy_name, policy) in &policies {
                let plan = fault_plan(drift, loss);
                rows.extend(run_cell(
                    &p, &rm, &schedule, &plan, policy, policy_name, drift, loss,
                ));
            }
        }
    }
    rows
}

/// The fixed-seed frozen-vs-adaptive exemplar pair under 2× compute
/// drift (no object loss): both engines on the same schedule and fault
/// history, each with its own live recorder. This is the input of the
/// cross-run diff quick-start (`figures -- adapt --trace-out`) and the
/// diff engine's acceptance test — the JCT delta between the two traces
/// is the adaptive engine's win, and [`ditto_obs::diff_traces`] must
/// attribute it to (stage, step) buckets.
pub fn traced_adapt_pair() -> (TraceData, TraceData) {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = adapt_cluster();
    let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let plan = fault_plan(2.0, 0.0);
    let policy = RecoveryPolicy::default();
    let frozen_obs = Recorder::new();
    Engine::new(&p.plan.dag, &schedule, &p.gt)
        .faults(&plan, &policy)
        .recorder(&frozen_obs)
        .run()
        .expect("frozen engine recovers within policy bounds");
    let ctx = ReschedulingContext {
        model: &p.model,
        resources: &rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let adaptive_obs = Recorder::new();
    Engine::new(&p.plan.dag, &schedule, &p.gt)
        .faults(&plan, &policy)
        .adaptive(&ctx, &AdaptiveConfig::default())
        .recorder(&adaptive_obs)
        .run()
        .expect("adaptive engine recovers within policy bounds");
    (frozen_obs.finish(), adaptive_obs.finish())
}

fn fault_plan(drift: f64, loss: f64) -> FaultPlan {
    let mut plan = FaultPlan::from_rates(FaultRates {
        loss_prob: loss,
        ..FaultRates::none(ADAPT_SEED)
    });
    if drift != 1.0 {
        plan = plan.with_drift(drift);
    }
    plan
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    p: &PreparedQuery,
    rm: &ResourceManager,
    schedule: &Schedule,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    policy_name: &str,
    drift: f64,
    loss: f64,
) -> [AdaptSweepRow; 2] {
    let dag = &p.plan.dag;
    let (_, frozen) = Engine::new(dag, schedule, &p.gt).faults(plan, policy).run()
        .expect("frozen engine recovers within policy bounds");
    let ctx = ReschedulingContext {
        model: &p.model,
        resources: rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let (trace, adaptive) = Engine::new(dag, schedule, &p.gt)
        .faults(plan, policy)
        .adaptive(&ctx, &AdaptiveConfig::default())
        .run()
        .expect("adaptive engine recovers within policy bounds");
    let row = |engine: &str, jct: f64, adaptive: bool| AdaptSweepRow {
        drift,
        loss_rate: loss,
        recovery: policy_name.into(),
        engine: engine.into(),
        jct_seconds: jct,
        jct_vs_frozen: jct / frozen.jct,
        replans: if adaptive { trace.replans.len() as u32 } else { 0 },
        applied_replans: if adaptive {
            trace.replans.iter().filter(|r| r.applied).count() as u32
        } else {
            0
        },
        lineage_reexecs: 0,
        extra_attempts: 0,
        audit_clean: !adaptive || trace.replans.iter().all(|r| r.audit_clean),
    };
    let mut fr = row("frozen", frozen.jct, false);
    fr.lineage_reexecs = frozen.faults.lineage_reexecs;
    fr.extra_attempts = frozen.faults.extra_attempts;
    let mut ad = row("adaptive", adaptive.jct, true);
    ad.lineage_reexecs = adaptive.faults.lineage_reexecs;
    ad.extra_attempts = adaptive.faults.extra_attempts;
    [fr, ad]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapt_smoke_is_sound_and_deterministic() {
        let rows = adapt_sweep_smoke();
        assert_eq!(rows.len(), 2 * 2 * 2 * 2, "drift × loss × policy × engine");
        for r in &rows {
            assert!(r.jct_seconds > 0.0, "JCT must be positive: {r:?}");
            assert!(r.audit_clean, "replan failed its certificate: {r:?}");
            if r.engine == "frozen" {
                assert!((r.jct_vs_frozen - 1.0).abs() < 1e-12);
            } else if r.loss_rate == 0.0 {
                // Deterministic drift: the apply margin must make the
                // adaptive engine strictly no-worse than frozen.
                assert!(
                    r.jct_vs_frozen <= 1.0 + 1e-9,
                    "adaptive must not lose to frozen on a loss-free cell: {r:?}"
                );
            } else {
                // Stochastic object loss re-rolls per external read: a
                // splice with positive expected value can still lose one
                // realization (the externalized seam edges are new loss
                // surface). Require the downside stays bounded.
                assert!(
                    r.jct_vs_frozen <= 1.15,
                    "adaptive downside under loss must stay bounded: {r:?}"
                );
            }
        }
        // Net win: across the whole grid the adaptive engine comes out
        // ahead even counting the lossy realizations it loses.
        let adaptive: Vec<f64> = rows
            .iter()
            .filter(|r| r.engine == "adaptive")
            .map(|r| r.jct_vs_frozen)
            .collect();
        let mean = adaptive.iter().sum::<f64>() / adaptive.len() as f64;
        assert!(mean < 1.0, "adaptive must win in aggregate, mean ratio {mean:.4}");
        // Drift 1.0 + loss 0: the adaptive engine must be bit-identical
        // to the frozen one — zero replans, equal JCT.
        for r in rows.iter().filter(|r| r.drift == 1.0 && r.loss_rate == 0.0) {
            assert_eq!(r.replans, 0, "clean cell replanned: {r:?}");
            assert!((r.jct_vs_frozen - 1.0).abs() < 1e-12, "clean cell diverged: {r:?}");
        }
        // Determinism: the sweep re-run is value-identical.
        let again = adapt_sweep_smoke();
        assert_eq!(
            crate::write_json(&rows),
            crate::write_json(&again),
            "same seed must give a byte-identical artifact"
        );
    }

    /// Fixed-seed drift + loss simulation whose emitted trace must
    /// validate against the Chrome `trace_event` schema — the adaptive
    /// engine's replans and lineage re-executions may not corrupt the
    /// telemetry the rest of the toolchain loads into Perfetto.
    #[test]
    fn drift_loss_trace_is_schema_valid() {
        use ditto_obs::Track;
        let p = prepare(Query::Q95, Medium::S3);
        let rm = adapt_cluster();
        let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
        let plan = fault_plan(2.0, 0.05);
        let ctx = ReschedulingContext {
            model: &p.model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let obs = Recorder::new();
        Engine::new(&p.plan.dag, &schedule, &p.gt)
            .faults(&plan, &RecoveryPolicy::default())
            .adaptive(&ctx, &AdaptiveConfig::default())
            .recorder(&obs)
            .run()
            .expect("adaptive engine recovers within policy bounds");
        let chrome = ditto_obs::to_chrome_trace(&obs.finish());
        let stats = ditto_obs::validate_chrome_trace(&chrome).expect("schema-valid trace");
        assert!(stats.durations > 0, "trace must carry task step events");
        let server = |s: u32| u64::from(Track::SERVER_BASE + s);
        assert_eq!(
            stats.pids,
            [Track::SCHEDULER_GROUP, Track::STORAGE_GROUP, Track::JOB_GROUP]
                .map(u64::from)
                .into_iter()
                .chain([server(0), server(1)])
                .collect::<Vec<_>>(),
            "the scheduler track (replans), storage counters, job stages and \
             both servers of the sweep cluster must appear as track groups"
        );
        assert!(stats.count("sched.replan") > 0, "replan events must survive export");
    }

    /// The headline robustness number, asserted in release CI where the
    /// full-resolution sweep is cheap: under 2× compute drift the
    /// adaptive engine's realized JCT beats the frozen schedule by ≥10%.
    #[cfg(not(debug_assertions))]
    #[test]
    fn adaptive_beats_frozen_by_ten_percent_under_2x_drift() {
        let rows = adapt_sweep_grid(&[2.0], &[0.0]);
        let best = rows
            .iter()
            .filter(|r| r.engine == "adaptive")
            .map(|r| r.jct_vs_frozen)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best <= 0.90,
            "adaptive JCT under 2x drift must be ≤ 0.90 of frozen, got {best:.3}"
        );
    }
}
