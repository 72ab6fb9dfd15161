//! The benchmark's contract: every metric's name, unit, direction and
//! bound. `BENCHMARK.json` at the repo root is `ditto-benchmark spec`
//! printed to a file; the smoke test checks the two stay equal.

use crate::workloads::WORKLOADS;

/// How long one run measures, seconds.
pub const RUN_SECONDS: u64 = 12;

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, false, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    e2e(name, unit, true, 0.0)
}

/// What a user submitting jobs sees. Failures are not a metric here: they
/// are the `failed` / `attempted` pair of every result, and a failed job
/// has no latency sample.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("jobs_per_s", "1/s", true, 0.20),
    e2e("job_ms_p50", "ms", false, 0.25),
    e2e("job_ms_p95", "ms", false, 0.25),
    e2e("peak_heap_mb", "MB", false, 0.10),
    e2e("sim_jct_s", "s", false, 0.15),
    e2e("sim_cost_gbs", "GB.s", false, 0.10),
];

/// One layer each, read in the traced run. A metric of a layer the
/// workload never enters reads 0.
pub const PER_LAYER: [MetricSpec; 60] = [
    lower("sql.datagen_s", "s"),
    higher("sql.datagen_rows_per_s", "rows/s"),
    lower("sql.plan_ms_p50", "ms"),
    lower("sql.compute_ms_per_job", "ms"),
    lower("sql.kernel_ms.scan", "ms"),
    lower("sql.kernel_ms.join", "ms"),
    lower("sql.kernel_ms.group_by", "ms"),
    lower("sql.kernel_ms.filter", "ms"),
    lower("sql.kernel_ms.sort_limit", "ms"),
    higher("sql.encode_mb_per_s", "MB/s"),
    higher("sql.decode_mb_per_s", "MB/s"),
    higher("sql.rows_per_s", "rows/s"),
    lower("timemodel.fit_us_p50", "us"),
    lower("core.schedule_ms_p50.ditto_jct", "ms"),
    lower("core.schedule_ms_p50.ditto_cost", "ms"),
    lower("core.schedule_ms_p50.nimble", "ms"),
    lower("core.rounds", "count"),
    lower("core.candidates", "count"),
    lower("core.commits", "count"),
    higher("core.dop_memo_hit_ratio", "ratio"),
    lower("core.joint_jct_512_ms", "ms"),
    lower("audit.audit_ms_p50", "ms"),
    lower("audit.findings", "count"),
    lower("audit.race_check_ms", "ms"),
    lower("exec.runner_ms_p50", "ms"),
    lower("exec.tasks_per_job", "count"),
    lower("exec.runner_wall_us_per_task", "us"),
    higher("exec.task_busy_share", "ratio"),
    lower("exec.runner_journal_overhead_ratio", "ratio"),
    lower("exec.sim_us_p50", "us"),
    lower("exec.faults_journaled_us_p50", "us"),
    lower("exec.adaptive_journaled_us_p50", "us"),
    lower("exec.recover_us_p50", "us"),
    lower("exec.journal_overhead_ratio", "ratio"),
    lower("exec.recorder_overhead_ratio", "ratio"),
    lower("exec.journal_bytes_per_job", "bytes"),
    lower("exec.journal_records_per_job", "count"),
    lower("exec.replans_per_job", "count"),
    lower("exec.retries_per_job", "count"),
    lower("exec.adaptive_wide_ms", "ms"),
    lower("storage.read_ms_per_job", "ms"),
    lower("storage.write_ms_per_job", "ms"),
    lower("storage.shm_bytes_per_job", "bytes"),
    lower("storage.ext_bytes_per_job", "bytes"),
    lower("storage.logical_bytes_per_job", "bytes"),
    lower("storage.read_retries", "count"),
    lower("storage.send_us_per_partition.shm", "us"),
    lower("storage.send_us_per_partition.s3", "us"),
    lower("storage.send_us_per_partition.redis", "us"),
    lower("storage.recv_us_per_partition.shm", "us"),
    lower("storage.recv_us_per_partition.s3", "us"),
    lower("storage.recv_us_per_partition.redis", "us"),
    lower("cluster.drift_events_per_job", "count"),
    lower("obs.events_per_job", "count"),
    lower("dag.random_dag_ms", "ms"),
    lower("bench.cpu_ms_per_job", "ms"),
    higher("bench.trace_overhead_ratio", "ratio"),
    lower("bench.span_residual_share", "ratio"),
    higher("bench.machine_speed", "ratio"),
    lower("bench.peak_rss_mb", "MB"),
];

/// The end-to-end metric `name`, if it is one.
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn better(m: &MetricSpec) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better(m),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            better(m)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
