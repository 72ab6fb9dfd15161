//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p ditto-bench --bin figures -- all
//! cargo run --release -p ditto-bench --bin figures -- fig8a fig12 table1
//! cargo run --release -p ditto-bench --bin figures -- --json fig8a
//! cargo run --release -p ditto-bench --bin figures -- faults --trace-out trace.json  # writes BENCH_faults.json
//! cargo run --release -p ditto-bench --bin figures -- sched        # writes BENCH_sched.json
//! cargo run --release -p ditto-bench --bin figures -- sqlbench     # writes BENCH_sql.json
//! cargo run --release -p ditto-bench --bin figures -- race         # hb race certify + model check
//! cargo run --release -p ditto-bench --bin figures -- crash        # crash-point certification sweep
//! ```
//!
//! `sched` (and its CI subset `sched-smoke`) is not part of `all`: the
//! full sweep checks every row against the from-scratch reference
//! optimizer up to 1024 stages, which is exactly the slow path the
//! incremental rewrite retired.
//!
//! `--trace-out <path>` writes a Chrome trace_event file (load in
//! <https://ui.perfetto.dev>) of the target's telemetry: scheduler spans
//! for `audit`, the adaptive 2×-drift exemplar (plus its
//! frozen-vs-adaptive diff and predictor scorecard) for `adapt`, and the
//! fixed-seed traced fault experiment otherwise.
//!
//! Every argument is checked before anything runs: an unknown target or
//! flag prints the known targets to stderr and exits 2.

use ditto_bench::{render_rows, write_json};

/// The targets `all` (and an empty target list) runs.
const ALL: [&str; 22] = [
    "fig1", "fig2", "fig4", "fig5", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "table1", "table2", "ablations", "deadline",
    "faults", "audit",
];

/// Targets only run by name: full sweeps and their CI-sized subsets.
const BY_NAME: [&str; 9] = [
    "sched", "sched-smoke", "sqlbench", "adapt", "adapt-smoke", "crash", "crash-smoke", "race",
    "race-smoke",
];

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\nknown targets: all {ALL:?}\nnot in `all`: {BY_NAME:?}\nflags: --json, --trace-out <path>");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut json, mut trace_out, mut wanted) = (false, None, Vec::new());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => usage_error("--trace-out needs a path argument"),
            },
            t if t == "all" || ALL.contains(&t) || BY_NAME.contains(&t) => wanted.push(a),
            other => usage_error(&format!("unknown target or flag {other:?}")),
        }
    }
    let targets: Vec<&str> = if wanted.is_empty() || wanted.iter().any(|t| t == "all") {
        ALL.to_vec()
    } else {
        wanted.iter().map(String::as_str).collect()
    };

    // Targets that consume --trace-out themselves; don't overwrite their
    // file with the fault exemplar afterwards.
    let mut trace_consumed = false;

    for t in targets {
        println!("==================== {t} ====================");
        match t {
            "fig1" => emit(&ditto_bench::fig1(), json),
            "fig2" => emit(&ditto_bench::fig2(), json),
            "fig4" => emit(&ditto_bench::fig4(), json),
            "fig5" => emit(&ditto_bench::fig5(), json),
            "fig8a" => emit(&ditto_bench::fig8a(), json),
            "fig8b" => emit(&ditto_bench::fig8b(), json),
            "fig8c" => emit(&ditto_bench::fig8c(), json),
            "fig9a" => emit(&ditto_bench::fig9a(), json),
            "fig9b" => emit(&ditto_bench::fig9b(), json),
            "fig9c" => emit(&ditto_bench::fig9c(), json),
            "fig10" => {
                let (jct, cost) = ditto_bench::fig10();
                println!("--- JCT ---");
                emit(&jct, json);
                println!("--- cost ---");
                emit(&cost, json);
            }
            "fig11" => emit(&ditto_bench::fig11(), json),
            "fig12" => {
                let (jct, cost) = ditto_bench::fig12();
                println!("--- JCT ---");
                emit(&jct, json);
                println!("--- cost ---");
                emit(&cost, json);
            }
            "fig13" => {
                // The Q95 DAG structure is data, not a measurement.
                let plan = ditto_sql::queries::Query::Q95.plan();
                println!("{}", plan.dag.describe());
            }
            "fig14" => emit(&ditto_bench::fig14(), json),
            "fig15" => {
                let out = ditto_bench::fig15();
                println!(
                    "fixed JCT = {:.1}s (dop {:?})",
                    out.fixed_jct, out.fixed_dop
                );
                println!("{}", out.fixed_gantt);
                println!(
                    "elastic JCT = {:.1}s (dop {:?})",
                    out.elastic_jct, out.elastic_dop
                );
                println!("{}", out.elastic_gantt);
            }
            "table1" => emit(&ditto_bench::table1(9), json),
            "table2" => emit(&ditto_bench::table2(), json),
            "ablations" => emit(&ditto_bench::all_ablations(), json),
            "deadline" => emit(&ditto_bench::deadline_sweep(), json),
            // Fault sweep (deterministic: same seed → byte-identical
            // BENCH_faults.json).
            "faults" => {
                let rows = ditto_bench::fault_sweep();
                emit(&rows, json);
                std::fs::write("BENCH_faults.json", write_json(&rows)).expect("write BENCH_faults.json");
                println!("wrote BENCH_faults.json ({} rows)", rows.len());
            }
            // Scheduler loop counters of the incremental joint_optimize,
            // each row checked against the from-scratch reference (a
            // mismatch panics). `sched` runs the full 16→1024-stage sweep;
            // `sched-smoke` the CI subset (16/64/256). Both write
            // BENCH_sched.json (deterministic: byte-identical reruns).
            "sched" | "sched-smoke" => {
                let sizes = if t == "sched" {
                    ditto_bench::sched_bench::SCHED_BENCH_SIZES
                } else {
                    ditto_bench::sched_bench::SCHED_SMOKE_SIZES
                };
                let rows = ditto_bench::sched_bench_sizes(sizes);
                emit(&rows, json);
                std::fs::write("BENCH_sched.json", write_json(&rows)).expect("write BENCH_sched.json");
                println!("wrote BENCH_sched.json ({} rows)", rows.len());
            }
            // SQL data-plane byte accounting: the fused partition+encode
            // row and the five query plans end to end through the
            // LocalRuntime. Writes BENCH_sql.json (deterministic).
            "sqlbench" => {
                let rows = ditto_bench::sql_bench();
                emit(&rows, json);
                std::fs::write("BENCH_sql.json", write_json(&rows)).expect("write BENCH_sql.json");
                println!("wrote BENCH_sql.json ({} rows)", rows.len());
            }
            // Adaptive-execution sweep: drift × loss × recovery policy,
            // frozen vs adaptive engine. `adapt` runs the full grid;
            // `adapt-smoke` the CI extremes. Both write BENCH_adapt.json
            // (deterministic: same seed → byte-identical artifact).
            "adapt" | "adapt-smoke" => {
                let rows = if t == "adapt" {
                    ditto_bench::adapt_sweep()
                } else {
                    ditto_bench::adapt_sweep_smoke()
                };
                emit(&rows, json);
                std::fs::write("BENCH_adapt.json", write_json(&rows)).expect("write BENCH_adapt.json");
                println!("wrote BENCH_adapt.json ({} rows)", rows.len());
                if rows.iter().any(|r| !r.audit_clean) {
                    eprintln!("adaptive sweep: a replan failed its feasibility certificate");
                    std::process::exit(1);
                }
                // The cross-run observability quick-start: trace the
                // fixed-seed frozen-vs-adaptive pair under 2× drift,
                // write the adaptive run's trace, and print the diff
                // (who moved the JCT) + the predictor scorecard.
                if let Some(path) = &trace_out {
                    let (frozen, adaptive) = ditto_bench::traced_adapt_pair();
                    write_trace(path, &adaptive, "adaptive 2x-drift exemplar");
                    let diff = ditto_obs::diff_traces(&frozen, &adaptive);
                    println!("{}", diff.render());
                    println!("{}", ditto_obs::PredictorScorecard::from_trace(&adaptive).render());
                    trace_consumed = true;
                }
            }
            // Crash-point certification sweep: kill the coordinator at
            // every journal record index (smoke: a strided subset) of
            // three fixed-seed scenarios and recover from the write-ahead
            // journal. `crash` exercises every index; `crash-smoke` the
            // CI stride. Both write BENCH_crash.json and the recovered
            // adaptive exemplar's journal as JOURNAL_crash.bin; exits
            // nonzero if any crash point diverged or failed
            // certification. With `--trace-out` the recovered run's
            // trace (deterministic virtual scheduler clock) is written.
            "crash" | "crash-smoke" => {
                let rows = if t == "crash" {
                    ditto_bench::crash_sweep()
                } else {
                    ditto_bench::crash_sweep_smoke()
                };
                emit(&rows, json);
                std::fs::write("BENCH_crash.json", write_json(&rows)).expect("write BENCH_crash.json");
                println!("wrote BENCH_crash.json ({} rows)", rows.len());
                // Wall-clock, so on stdout only: the file must repeat.
                println!(
                    "wide-192 journal overhead: journaled / un-journaled run = {:.2}",
                    ditto_bench::crash::wide_journal_overhead_ratio()
                );
                let (trace, journal) = ditto_bench::traced_crash_recovery();
                std::fs::write("JOURNAL_crash.bin", &journal).expect("write JOURNAL_crash.bin");
                println!(
                    "wrote JOURNAL_crash.bin ({} bytes) — certify with `ditto-audit journal`",
                    journal.len()
                );
                if let Some(path) = &trace_out {
                    write_trace(path, &trace, "recovered-run crash exemplar");
                    trace_consumed = true;
                }
                if rows.iter().any(|r| !r.bit_identical || !r.certified_clean) {
                    eprintln!("crash sweep: a crash point diverged or failed certification");
                    std::process::exit(1);
                }
            }
            // Certificate sweep: audit every scheduler's output on 32
            // seeded random DAGs × both objectives. Exits nonzero if any
            // schedule fails its certificate, so CI can gate on it. With
            // `--trace-out`, the joint optimizer's decision spans for the
            // whole sweep land in the Chrome trace.
            "audit" => {
                let obs = if trace_out.is_some() {
                    ditto_obs::Recorder::new()
                } else {
                    ditto_obs::Recorder::disabled()
                };
                let rows = ditto_bench::audit_sweep_traced(ditto_bench::AUDIT_SWEEP_SEEDS, &obs);
                emit(&rows, json);
                let errors: usize = rows.iter().map(|r| r.errors).sum();
                println!(
                    "audit sweep: {} schedules certified, {} error findings",
                    rows.len(),
                    errors
                );
                if let Some(path) = &trace_out {
                    write_trace(path, &obs.finish(), "audit sweep scheduler spans");
                    trace_consumed = true;
                }
                if !ditto_bench::sweep_is_clean(&rows) {
                    std::process::exit(1);
                }
            }
            // Race-freedom gate: certify the fixed-seed traced scenarios
            // through the happens-before checker (real slot capacities),
            // then model-check tie-break invariance on seeded random
            // DAGs. `race` runs the full 16-DAG bar, `race-smoke` the CI
            // subset. Exits nonzero on any finding or divergence.
            "race" | "race-smoke" => {
                let rows = ditto_bench::race_certify();
                emit(&rows, json);
                let dirty = rows.iter().filter(|r| !r.clean).count();
                let dags = if t == "race" { 16 } else { 4 };
                let explored = ditto_bench::race_explore(dags);
                emit(&explored, json);
                let diverged = explored.iter().filter(|r| r.divergent).count();
                println!(
                    "race: {} traces certified ({} with errors), {} DAGs model-checked ({} divergent)",
                    rows.len(),
                    dirty,
                    explored.len(),
                    diverged
                );
                if dirty > 0 || diverged > 0 {
                    std::process::exit(1);
                }
            }
            _ => unreachable!("targets are checked before anything runs"),
        }
    }

    if let Some(path) = trace_out.filter(|_| !trace_consumed) {
        println!("==================== trace-out ====================");
        let run = ditto_bench::traced_fault_run();
        write_trace(&path, &run.data, "fixed-seed traced fault experiment");
        println!("{}", ditto_obs::summary_table(&run.data));
        println!("{}", run.critical_path.render());
        println!("{}", ditto_obs::PredictorScorecard::from_trace(&run.data).render());
    }
}

fn emit<T: serde::Serialize>(rows: &[T], json: bool) {
    if json {
        println!("{}", write_json(rows));
    } else {
        print!("{}", render_rows(rows));
    }
}

/// Write a finished trace as a Chrome trace_event file — the one place
/// every `--trace-out` path goes through.
fn write_trace(path: &str, data: &ditto_obs::TraceData, label: &str) {
    let chrome = ditto_obs::to_chrome_trace(data);
    std::fs::write(path, &chrome).expect("write trace file");
    println!(
        "wrote {path} ({} bytes, {} spans, {} events) [{label}] — load in https://ui.perfetto.dev",
        chrome.len(),
        data.spans.len(),
        data.events.len(),
    );
}
