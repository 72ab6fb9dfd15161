//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p ditto-bench --bin figures -- all
//! cargo run --release -p ditto-bench --bin figures -- fig8a fig12 table1
//! cargo run --release -p ditto-bench --bin figures -- --json fig8a
//! cargo run --release -p ditto-bench --bin figures -- faults --trace-out trace.json
//! cargo run --release -p ditto-bench --bin figures -- sched        # writes BENCH_sched.json
//! cargo run --release -p ditto-bench --bin figures -- sqlbench     # writes BENCH_sql.json
//! cargo run --release -p ditto-bench --bin figures -- regress      # gate vs BENCH_HISTORY.jsonl
//! cargo run --release -p ditto-bench --bin figures -- race         # hb race certify + model check
//! cargo run --release -p ditto-bench --bin figures -- crash        # crash-point certification sweep
//! ```
//!
//! `sched` (and its CI subset `sched-smoke`) is not part of `all`: the
//! full sweep times the from-scratch reference optimizer up to 1024
//! stages, which is exactly the slow path the incremental rewrite
//! retired.
//!
//! `--trace-out <path>` writes a Chrome trace_event file (load in
//! <https://ui.perfetto.dev>) of the target's telemetry: scheduler spans
//! for `sched` and `audit`, the adaptive 2×-drift exemplar (plus its
//! frozen-vs-adaptive diff and predictor scorecard) for `adapt`, and the
//! fixed-seed traced fault experiment otherwise.
//!
//! Every `sched|sqlbench|adapt|faults|telemetry` run appends a config-fingerprinted
//! record to `BENCH_HISTORY.jsonl` (`DITTO_HISTORY_PATH` overrides);
//! `regress` replays the deterministic experiments (`faults`,
//! `adapt-smoke`, `sqlbench-smoke`, `crash-smoke`) against that history with noise-aware thresholds and
//! exits nonzero on regression (`--record-only` seeds history without
//! judging — CI's first runs).

use ditto_bench::{render_rows, write_json, HistoryRecord, RegressOptions};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--trace-out needs a path argument");
                std::process::exit(2);
            }
            Some(args.remove(i))
        }
        None => None,
    };
    let json = args.iter().any(|a| a == "--json");
    let record_only = args.iter().any(|a| a == "--record-only");
    let wanted: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let all = [
        "fig1", "fig2", "fig4", "fig5", "fig8a", "fig8b", "fig8c", "fig9a", "fig9b", "fig9c",
        "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1", "table2", "ablations",
        "multi", "deadline", "faults", "telemetry", "audit", "export",
    ];
    let targets: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        all.to_vec()
    } else {
        wanted
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
            "multi" => emit(&ditto_bench::multi_job(), json),
            "deadline" => emit(&ditto_bench::deadline_sweep(), json),
            "faults" => {
                let rows = ditto_bench::fault_sweep();
                emit(&rows, json);
                record_history(HistoryRecord::now(
                    "faults",
                    &faults_config(),
                    faults_metrics(&rows),
                ));
            }
            // Scheduler throughput: incremental joint_optimize vs the
            // from-scratch reference. `sched` runs the full 16→1024-stage
            // sweep; `sched-smoke` the CI subset (16/64/256). Both write
            // BENCH_sched.json to the cwd; with `--trace-out` the
            // bench.sched spans land in the Chrome trace.
            "sched" | "sched-smoke" => {
                let obs = if trace_out.is_some() {
                    ditto_obs::Recorder::new()
                } else {
                    ditto_obs::Recorder::disabled()
                };
                let sizes = if t == "sched" {
                    ditto_bench::sched_bench::SCHED_BENCH_SIZES
                } else {
                    ditto_bench::sched_bench::SCHED_SMOKE_SIZES
                };
                let rows = ditto_bench::sched_bench_sizes(sizes, &obs);
                emit(&rows, json);
                std::fs::write("BENCH_sched.json", write_json(&rows)).expect("write BENCH_sched.json");
                println!("wrote BENCH_sched.json ({} rows)", rows.len());
                record_history(HistoryRecord::now(
                    t,
                    &format!("sizes={sizes:?}"),
                    sched_metrics(&rows),
                ));
                if let Some(path) = &trace_out {
                    write_trace(path, &obs.finish(), "bench.sched scheduler spans");
                    trace_consumed = true;
                }
            }
            // SQL data-plane benchmark: vectorized columnar kernels vs
            // the retained row-at-a-time reference, plus the five query
            // plans end to end through the LocalRuntime. `sqlbench` runs
            // the 1M-row micros + sf-0.5 e2e tier; `sqlbench-smoke` the
            // CI subset. Both write BENCH_sql.json; the smoke history
            // record carries only the deterministic byte metrics so the
            // regress gate compares exact values.
            "sqlbench" | "sqlbench-smoke" => {
                let rows = if t == "sqlbench" {
                    ditto_bench::sql_bench()
                } else {
                    ditto_bench::sql_bench_smoke()
                };
                emit(&rows, json);
                std::fs::write("BENCH_sql.json", write_json(&rows)).expect("write BENCH_sql.json");
                println!("wrote BENCH_sql.json ({} rows)", rows.len());
                record_history(HistoryRecord::now(
                    t,
                    &sql_config(t),
                    sql_metrics(&rows, t == "sqlbench"),
                ));
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
                record_history(HistoryRecord::now(t, &adapt_config(t), adapt_metrics(&rows)));
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
                record_history(HistoryRecord::now(t, &crash_config(), crash_metrics(&rows)));
                if let Some(path) = &trace_out {
                    write_trace(path, &trace, "recovered-run crash exemplar");
                    trace_consumed = true;
                }
                if rows.iter().any(|r| !r.bit_identical || !r.certified_clean) {
                    eprintln!("crash sweep: a crash point diverged or failed certification");
                    std::process::exit(1);
                }
            }
            "telemetry" => {
                let rows = ditto_bench::telemetry_overhead();
                emit(&rows, json);
                record_history(HistoryRecord::now(
                    "telemetry",
                    "exemplar-q95-s3",
                    telemetry_metrics(&rows),
                ));
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
            // Regression gate: replay the deterministic experiments and
            // compare against BENCH_HISTORY.jsonl. `--record-only` seeds
            // history without judging. Exits 1 on any regression.
            "regress" => {
                let opts = RegressOptions::default();
                let path = ditto_bench::history_path();
                let history = ditto_bench::load_history(&path);
                println!(
                    "regress: {} history records in {}",
                    history.len(),
                    path.display()
                );
                let frows = ditto_bench::fault_sweep();
                let arows = ditto_bench::adapt_sweep_smoke();
                let srows = ditto_bench::sql_bench_smoke();
                let crows = ditto_bench::crash_sweep_smoke();
                let records = [
                    HistoryRecord::now("faults", &faults_config(), faults_metrics(&frows)),
                    HistoryRecord::now(
                        "adapt-smoke",
                        &adapt_config("adapt-smoke"),
                        adapt_metrics(&arows),
                    ),
                    HistoryRecord::now(
                        "sqlbench-smoke",
                        &sql_config("sqlbench-smoke"),
                        sql_metrics(&srows, false),
                    ),
                    HistoryRecord::now("crash-smoke", &crash_config(), crash_metrics(&crows)),
                ];
                let mut failed = false;
                for rec in records {
                    if record_only {
                        record_history(rec);
                        continue;
                    }
                    let report = ditto_bench::check_regression(&history, &rec, &opts);
                    print!("{}", report.render());
                    if report.regressed() {
                        failed = true;
                    } else {
                        // A passing run extends the history baseline.
                        record_history(rec);
                    }
                }
                if failed {
                    eprintln!("regress: performance regression detected (see table above)");
                    std::process::exit(1);
                }
                println!(
                    "regress: {}",
                    if record_only { "recorded baselines" } else { "clean" }
                );
            }
            other => eprintln!(
                "unknown target {other:?}; known: {all:?} (+ \"sched\", \"sched-smoke\", \"sqlbench\", \"sqlbench-smoke\", \"adapt\", \"adapt-smoke\", \"crash\", \"crash-smoke\", \"race\", \"race-smoke\", \"regress\" — not in `all`)"
            ),
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

/// Append one record to the bench history, reporting rather than dying
/// on IO trouble (history is telemetry, not a gate on the experiment).
fn record_history(rec: HistoryRecord) {
    let path = ditto_bench::history_path();
    match ditto_bench::append_history(&path, &rec) {
        Ok(()) => println!(
            "history: appended `{}` ({} metrics) to {}",
            rec.experiment,
            rec.metrics.len(),
            path.display()
        ),
        Err(e) => eprintln!("history: append to {} failed: {e}", path.display()),
    }
}

fn faults_config() -> String {
    format!(
        "rates={:?} schedulers=[ditto,nimble] policies=[retry,retry+spec]",
        ditto_bench::FAULT_SWEEP_RATES
    )
}

fn faults_metrics(rows: &[ditto_bench::FaultSweepRow]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            (
                format!(
                    "faults_{}_{}_r{:.2}_jct_s",
                    r.scheduler, r.policy, r.fault_rate
                ),
                r.jct_seconds,
            )
        })
        .collect()
}

fn adapt_config(t: &str) -> String {
    if t == "adapt" {
        format!(
            "drifts={:?} losses={:?}",
            ditto_bench::adapt::ADAPT_DRIFTS,
            ditto_bench::adapt::ADAPT_LOSSES
        )
    } else {
        format!(
            "drifts={:?} losses={:?}",
            ditto_bench::adapt::ADAPT_SMOKE_DRIFTS,
            ditto_bench::adapt::ADAPT_SMOKE_LOSSES
        )
    }
}

fn adapt_metrics(rows: &[ditto_bench::AdaptSweepRow]) -> Vec<(String, f64)> {
    rows.iter()
        .map(|r| {
            (
                format!(
                    "adapt_d{:.1}_l{:.2}_{}_{}_jct_s",
                    r.drift, r.loss_rate, r.recovery, r.engine
                ),
                r.jct_seconds,
            )
        })
        .collect()
}

fn crash_config() -> String {
    format!(
        "seed={} slots={:?} scenarios=[frozen-ladder,adaptive-drift2x] wide={}x{:?}",
        ditto_bench::crash::CRASH_SEED,
        ditto_bench::crash::CRASH_SLOTS,
        ditto_bench::crash::WIDE_STAGES,
        ditto_bench::crash::WIDE_SLOTS,
    )
}

/// JCT is asserted bit-identical to the crash-free run, so it doubles as
/// the correctness fingerprint; resim counts are the recovery-overhead
/// metric the regress gate holds.
fn crash_metrics(rows: &[ditto_bench::CrashSweepRow]) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for r in rows {
        m.push((format!("crash_{}_jct_s", r.scenario), r.jct_seconds));
        m.push((
            format!("crash_{}_mean_resim_stages", r.scenario),
            r.mean_resim_stages,
        ));
    }
    m
}

fn sql_config(t: &str) -> String {
    use ditto_bench::sql_bench::{SQL_BENCH_ROWS, SQL_BENCH_SF, SQL_SMOKE_ROWS, SQL_SMOKE_SF};
    if t == "sqlbench" {
        format!("micro_rows={SQL_BENCH_ROWS} sf={SQL_BENCH_SF}")
    } else {
        format!("micro_rows={SQL_SMOKE_ROWS} sf={SQL_SMOKE_SF}")
    }
}

/// Byte metrics are deterministic (placement + codec), so they always go
/// in; wall metrics are only worth tracking on the full release sweep.
fn sql_metrics(rows: &[ditto_bench::SqlBenchRow], include_wall: bool) -> Vec<(String, f64)> {
    let mut m = Vec::new();
    for r in rows {
        if r.wire_bytes > 0 {
            m.push((format!("sql_{}_wire_bytes", r.op), r.wire_bytes as f64));
            m.push((
                format!("sql_{}_logical_bytes", r.op),
                r.logical_bytes as f64,
            ));
        }
        if include_wall {
            m.push((format!("sql_{}_vectorized_ms", r.op), r.vectorized_ms));
        }
    }
    m
}

fn sched_metrics(rows: &[ditto_bench::SchedBenchRow]) -> Vec<(String, f64)> {
    rows.iter()
        .filter_map(|r| {
            let kernel = match r.implementation.as_str() {
                "incremental" => "sched",
                "dop_flat" => "dop",
                _ => return None,
            };
            Some((
                format!("{kernel}_{}_{}_micros", r.stages, r.objective),
                r.median_micros,
            ))
        })
        .collect()
}

fn telemetry_metrics(rows: &[ditto_bench::TelemetryOverheadRow]) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (format!("telemetry_{}_run_ms", r.mode), r.run_ms))
        .collect();
    if let Some(t) = rows.iter().find(|r| r.mode == "traced") {
        m.push(("telemetry_overhead_pct".to_string(), t.overhead_pct));
    }
    m
}
