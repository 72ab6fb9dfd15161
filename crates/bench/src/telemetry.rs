//! The traced exemplar run behind `figures -- <target> --trace-out`.
//!
//! The exemplar is the fault experiment's fixed-seed configuration (Q95,
//! S3, Zipf-0.9 testbed, crash+straggler rate 0.05, seed 17, bounded
//! retry + speculation) run with a live [`Recorder`]: scheduler decisions,
//! per-attempt task spans and per-medium byte counters all land on one
//! stream, which the Chrome exporter, the critical-path analyzer and the
//! runtime monitor then consume.

use crate::setup::{default_testbed, prepare};
use ditto_core::{DittoScheduler, Objective, SchedulingContext};
use ditto_exec::{Engine, FaultPlan, FaultRates, RecoveryPolicy};
use ditto_obs::{critical_path, CriticalPathReport, Recorder, TraceData};
use ditto_sql::queries::Query;
use ditto_storage::Medium;

/// Crash == straggler probability of the exemplar run.
pub(crate) const TRACED_FAULT_RATE: f64 = 0.05;
/// Fault seed of the exemplar run (same as the fault sweep).
pub(crate) const TRACED_SEED: u64 = 17;

/// Everything the exemplar traced run produces.
pub struct TracedRun {
    /// The full telemetry stream (spans, events, counters, metrics).
    pub data: TraceData,
    /// Job metrics of the same run.
    #[cfg(test)]
    metrics: ditto_exec::JobMetrics,
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
    let plan = FaultPlan::from_rates(FaultRates {
        crash_prob: TRACED_FAULT_RATE,
        straggler_prob: TRACED_FAULT_RATE,
        straggler_slowdown: 4.0,
        ..FaultRates::none(TRACED_SEED)
    });
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let (_, _metrics) =
        Engine::new(&p.plan.dag, &schedule, &p.gt).faults(&plan, &policy).recorder(&obs).run()
            .expect("rate-0.05 faults recover within 16 retries");
    let data = obs.finish();
    let critical_path = critical_path(&data);
    TracedRun {
        data,
        #[cfg(test)]
        metrics: _metrics,
        critical_path,
    }
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
        assert_eq!(monitor.records().len(), n);
        // Every stage of Q95 produced records with coherent step sums.
        for r in monitor.records() {
            assert!(r.steps.total() <= r.duration() + 1e-6);
        }
    }
}
