//! Telemetry experiments: the traced exemplar run behind `--trace-out`
//! and the tracing-overhead accounting in the bench report.
//!
//! The exemplar is the fault experiment's fixed-seed configuration (Q95,
//! S3, Zipf-0.9 testbed, crash+straggler rate 0.05, seed 17, bounded
//! retry + speculation) run with a live [`Recorder`]: scheduler decisions,
//! per-attempt task spans and per-medium byte counters all land on one
//! stream, which the Chrome exporter, the critical-path analyzer and the
//! runtime monitor then consume.

use crate::setup::{default_testbed, prepare};
use ditto_core::{DittoScheduler, Objective, SchedulingContext};
use ditto_exec::{Engine, FaultPlan, FaultRates, JobMetrics, RecoveryPolicy};
use ditto_obs::{critical_path, CriticalPathReport, Recorder, TraceData};
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;
use std::time::Instant;

/// Crash == straggler probability of the exemplar run.
pub const TRACED_FAULT_RATE: f64 = 0.05;
/// Fault seed of the exemplar run (same as the fault sweep).
pub const TRACED_SEED: u64 = 17;

fn exemplar_faults() -> (FaultPlan, RecoveryPolicy) {
    (
        FaultPlan::from_rates(FaultRates {
            crash_prob: TRACED_FAULT_RATE,
            straggler_prob: TRACED_FAULT_RATE,
            straggler_slowdown: 4.0,
            ..FaultRates::none(TRACED_SEED)
        }),
        RecoveryPolicy {
            max_retries: 16,
            ..RecoveryPolicy::default()
        },
    )
}

/// Everything the exemplar traced run produces.
pub struct TracedRun {
    /// The full telemetry stream (spans, events, counters, metrics).
    pub data: TraceData,
    /// Job metrics of the same run.
    pub metrics: JobMetrics,
    /// JCT attribution from walking the trace's critical path.
    pub critical_path: CriticalPathReport,
}

/// Run the fixed-seed fault experiment with telemetry enabled: the joint
/// optimizer and the fault-aware simulator share one recorder, so the
/// stream carries scheduler-decision spans, per-attempt task spans and
/// per-medium byte counters for a single deterministic execution.
pub fn traced_fault_run() -> TracedRun {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = default_testbed();
    let obs = Recorder::new();
    let schedule = DittoScheduler::new().schedule_traced(
        &SchedulingContext {
            dag: &p.plan.dag,
            model: &p.model,
            resources: &rm,
            objective: Objective::Jct,
        },
        &obs,
    );
    let (plan, policy) = exemplar_faults();
    let (_, metrics) =
        Engine::new(&p.plan.dag, &schedule, &p.gt).faults(&plan, &policy).recorder(&obs).run()
            .expect("rate-0.05 faults recover within 16 retries");
    let data = obs.finish();
    let critical_path = critical_path(&data);
    TracedRun {
        data,
        metrics,
        critical_path,
    }
}

/// One row of the tracing-overhead comparison.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryOverheadRow {
    /// "untraced" (disabled recorder) or "traced" (live recorder).
    pub mode: String,
    /// Best-of-N wall time of the mode-dependent part (joint scheduling
    /// + fault simulation), milliseconds.
    pub run_ms: f64,
    /// Wall time of one full experiment data point in this mode:
    /// data/profiling pipeline (identical, untraced code in both modes)
    /// plus the run above, milliseconds.
    pub wall_ms: f64,
    /// Spans recorded per run (0 when untraced).
    pub spans: usize,
    /// Events recorded per run (0 when untraced).
    pub events: usize,
    /// Experiment wall-time overhead vs the untraced mode, percent (0
    /// for the untraced baseline row).
    pub overhead_pct: f64,
}

/// Measure telemetry overhead on one experiment data point — what
/// `figures -- faults --trace-out` pays: the prepare pipeline (database,
/// plan measurement, profiling, model fit), joint scheduling, and the
/// fixed-seed fault simulation. Only scheduling + simulation see the
/// recorder, so the prepare pipeline is timed once and charged to both
/// modes, while the mode-dependent part is best-of-N with interleaved
/// samples (min filters scheduler noise better than mean). The recorder
/// is designed to keep the per-record cost small — one span per task
/// plus one per attempt, step phases expanded at export time, not in
/// the hot path — so the experiment-level overhead stays far under 5%.
pub fn telemetry_overhead() -> Vec<TelemetryOverheadRow> {
    let prep_t0 = Instant::now();
    let p = prepare(Query::Q95, Medium::S3);
    let prepare_secs = prep_t0.elapsed().as_secs_f64();
    let rm = default_testbed();
    let ctx = SchedulingContext {
        dag: &p.plan.dag,
        model: &p.model,
        resources: &rm,
        objective: Objective::Jct,
    };
    let (plan, policy) = exemplar_faults();

    let run_untraced = || {
        let t0 = Instant::now();
        let schedule = DittoScheduler::new().schedule_traced(&ctx, &Recorder::disabled());
        let out = Engine::new(&p.plan.dag, &schedule, &p.gt).faults(&plan, &policy).run()
            .expect("recoverable");
        (t0.elapsed().as_secs_f64(), out)
    };
    let run_traced = || {
        let obs = Recorder::new();
        let t0 = Instant::now();
        let schedule = DittoScheduler::new().schedule_traced(&ctx, &obs);
        let out = Engine::new(&p.plan.dag, &schedule, &p.gt)
            .faults(&plan, &policy)
            .recorder(&obs)
            .run()
            .expect("recoverable");
        (t0.elapsed().as_secs_f64(), out, obs.finish())
    };

    // Warm both paths once, then interleave samples and keep the minima.
    let _ = run_untraced();
    let mut sample = run_traced();
    let (mut best_untraced, mut best_traced) = (f64::MAX, f64::MAX);
    for _ in 0..16 {
        best_untraced = best_untraced.min(run_untraced().0);
        let s = run_traced();
        if s.0 < best_traced {
            best_traced = s.0;
            sample = s;
        }
    }
    let data = sample.2;
    let untraced_wall = prepare_secs + best_untraced;
    let traced_wall = prepare_secs + best_traced;
    vec![
        TelemetryOverheadRow {
            mode: "untraced".into(),
            run_ms: best_untraced * 1e3,
            wall_ms: untraced_wall * 1e3,
            spans: 0,
            events: 0,
            overhead_pct: 0.0,
        },
        TelemetryOverheadRow {
            mode: "traced".into(),
            run_ms: best_traced * 1e3,
            wall_ms: traced_wall * 1e3,
            spans: data.spans.len(),
            events: data.events.len(),
            overhead_pct: (traced_wall / untraced_wall - 1.0) * 100.0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_obs::{summary_table, to_chrome_trace, validate_chrome_trace};

    #[test]
    fn traced_run_emits_valid_chrome_trace() {
        let run = traced_fault_run();
        let json = to_chrome_trace(&run.data);
        let stats = validate_chrome_trace(&json).expect("schema-valid Chrome trace");
        // Scheduler decisions, per-attempt task spans with step phases,
        // and per-medium byte counters are all present.
        assert!(stats.count_prefix("sched.") > 0, "scheduler spans missing");
        assert!(stats.count("task") > 0, "task spans missing");
        assert!(stats.count("attempt") > 0, "attempt spans missing");
        assert!(stats.count("read") > 0 && stats.count("compute") > 0, "step slices missing");
        assert!(stats.counters > 0, "storage byte counters missing");
        assert!(!summary_table(&run.data).is_empty());
    }

    #[test]
    fn critical_path_matches_job_metrics() {
        let run = traced_fault_run();
        let cp = &run.critical_path;
        assert!(
            (cp.jct - run.metrics.jct).abs() <= 0.01 * run.metrics.jct,
            "critical-path JCT {} vs metrics {}",
            cp.jct,
            run.metrics.jct
        );
        // The attribution decomposes the whole JCT, not just part of it.
        assert!((cp.attributed() - cp.jct).abs() <= 1e-6 * cp.jct.max(1.0));
    }

    #[test]
    fn monitor_ingests_traced_run() {
        let run = traced_fault_run();
        let monitor = ditto_cluster::RuntimeMonitor::new();
        let n = monitor.ingest(&run.data);
        assert!(n > 0, "no task spans ingested");
        assert_eq!(monitor.len(), n);
        // Every stage of Q95 produced records with coherent step sums.
        for r in monitor.records() {
            assert!(r.steps.total() <= r.duration() + 1e-6);
        }
    }

    #[test]
    fn telemetry_overhead_under_five_percent() {
        let rows = telemetry_overhead();
        assert_eq!(rows.len(), 2);
        let traced = rows.iter().find(|r| r.mode == "traced").unwrap();
        assert!(traced.spans > 0 && traced.events > 0);
        assert!(
            traced.overhead_pct < 5.0,
            "tracing overhead {:.2}% exceeds 5%",
            traced.overhead_pct
        );
    }
}
