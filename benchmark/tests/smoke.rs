//! The benchmark checked against its own contract, at `--smoke` scale
//! (one warm-up round and one or two measured rounds per loop).

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ditto-benchmark");

/// Metrics that are counts or seed-deterministic simulation results: two
/// runs with one seed must print them identically, digit for digit.
const EXACT: [&str; 9] = [
    "sim_jct_s",
    "sim_cost_gbs",
    "storage.shm_bytes_per_job",
    "storage.ext_bytes_per_job",
    "storage.logical_bytes_per_job",
    "exec.journal_bytes_per_job",
    "exec.journal_records_per_job",
    "exec.tasks_per_job",
    "core.candidates",
];

fn contract() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(contract: &Value, key: &str) -> Vec<String> {
    contract[key]
        .as_array()
        .unwrap_or_else(|| panic!("`{key}` array"))
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

/// Run the benchmark; returns (exit ok, stdout).
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// One smoke run: the metric texts of its final JSON line, as printed.
fn smoke(workload: &str, seed: &str, trace: &str) -> BTreeMap<String, String> {
    let (ok, stdout) = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--trace",
        trace,
        "--smoke",
    ]);
    let last = stdout.lines().last().unwrap_or_default();
    assert!(ok, "{workload} seed {seed} trace {trace} failed:\n{stdout}");
    let result: Value = serde_json::from_str(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    assert_eq!(result["correct"], true, "{stdout}");
    assert_eq!(result["failed"], 0i64, "{stdout}");
    assert!(result["attempted"].as_u64().unwrap() >= 1);
    let keys: Vec<&String> = result.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    result["metrics"]
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m["unit"].as_str().is_some(), "{name} has no unit");
            let value = m["value"]
                .as_f64()
                .unwrap_or_else(|| panic!("{name} has no value"));
            assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
            // Every metric is also printed by name with its unit.
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name.as_str())),
                "{name} missing from the readable output"
            );
            (name.clone(), m["value"].to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_is_the_printed_spec() {
    let (ok, printed) = bench(&["spec"]);
    assert!(ok);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json");
    assert_eq!(
        printed, committed,
        "regenerate with `ditto-benchmark spec > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_prints_the_contract_and_exact_metrics_repeat() {
    let contract = contract();
    let end_to_end = names(&contract, "end_to_end");
    let per_layer = names(&contract, "per_layer");
    for workload in names(&contract, "workloads") {
        for (trace, wanted) in [("0", &end_to_end), ("1", &per_layer)] {
            let first = smoke(&workload, "7", trace);
            let again = smoke(&workload, "7", trace);
            let other = smoke(&workload, "8", trace);
            // The contract's metrics and the printed ones are one set.
            let mut printed: Vec<&String> = first.keys().collect();
            let mut named: Vec<&String> = wanted.iter().collect();
            printed.sort();
            named.sort();
            assert_eq!(printed, named, "{workload} trace {trace}");
            for name in EXACT.iter().filter(|n| first.contains_key(**n)) {
                assert_eq!(
                    first[*name], again[*name],
                    "{workload}: {name} must repeat exactly"
                );
            }
            if trace == "0" {
                for name in ["sim_jct_s", "sim_cost_gbs"] {
                    assert_ne!(
                        first[name], other[name],
                        "{workload}: {name} ignores the seed"
                    );
                    assert!(
                        first[name].parse::<f64>().unwrap() > 0.0,
                        "{workload}: {name} is 0"
                    );
                }
            }
        }
    }
}

fn results_file(name: &str, job_ms: [f64; 4]) -> PathBuf {
    let runs: Vec<String> = job_ms
        .iter()
        .map(|v| {
            format!(
                "{{\"workload\": \"w\", \"seed\": 1, \"trace\": 0, \"result\": {{\"correct\": true, \
                 \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"job_ms_p50\": \
                 {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}"
            )
        })
        .collect();
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, format!("{{\"runs\": [{}]}}", runs.join(","))).expect("write results");
    path
}

#[test]
fn compare_exits_non_zero_on_a_breach_only() {
    let base = results_file("base.json", [10.0, 10.1, 9.9, 10.0]);
    let same = results_file("same.json", [10.2, 10.1, 10.0, 10.3]);
    let slow = results_file("slow.json", [14.0, 14.1, 13.9, 14.0]);
    let path = |p: &PathBuf| p.to_str().unwrap().to_string();
    let (ok, out) = bench(&["compare", &path(&base), &path(&same)]);
    assert!(ok, "{out}");
    assert!(out.contains("0 breached"), "{out}");
    let (ok, out) = bench(&["compare", &path(&base), &path(&slow)]);
    assert!(!ok, "{out}");
    assert!(out.contains("BREACH"), "{out}");
    // Faster is never a breach.
    let (ok, out) = bench(&["compare", &path(&slow), &path(&base)]);
    assert!(ok, "{out}");
}
