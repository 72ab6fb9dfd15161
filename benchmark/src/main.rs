//! `ditto-benchmark`: the repo's one benchmark.
//!
//! ```text
//! ditto-benchmark --workload W --seed S --seconds N --trace 0|1   one run, in this process
//! ditto-benchmark [--seed S] [--runs R] [--trace 1] [--out F]     every workload, one child process per run
//! ditto-benchmark compare A.json B.json                           two `--out` files against the bounds
//! ditto-benchmark spec                                            the text of BENCHMARK.json
//! ```
//!
//! A single run prints every metric by name with its unit and ends with
//! one JSON line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod adapter;
mod affinity;
mod calib;
mod compare;
mod heap;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::{RunConfig, RunResult};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The final line of a run.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.spec.name, m.value, m.spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(cfg: &RunConfig) -> ExitCode {
    let mut result = match run::run(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ditto-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // A metric that is not a number cannot be reported as measured.
    for m in &mut result.metrics {
        if !m.value.is_finite() {
            result
                .notes
                .push(format!("{} was {}, reported as 0", m.spec.name, m.value));
            result.correct = false;
            m.value = 0.0;
        }
    }
    println!(
        "workload {} seed {} trace {} ({})",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        if cfg.smoke {
            "smoke".to_string()
        } else {
            format!("{} s", cfg.seconds)
        }
    );
    for m in &result.metrics {
        println!("  {:<40} {:>16.6} {}", m.spec.name, m.value, m.spec.unit);
    }
    println!(
        "  {:<40} {:>9} of {}",
        "jobs_failed", result.failed, result.attempted
    );
    for note in &result.notes {
        println!("  # {note}");
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each run in a child process of its own so that
/// `peak_rss_mb` and allocator state never leak between workloads.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for (workload, _) in workloads::WORKLOADS {
        for r in 0..args.runs {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let seed = args.seed + r;
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stdout(Stdio::piped());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
                let text = String::from_utf8_lossy(&out.stdout);
                print!("{text}");
                let last = text.lines().last().unwrap_or("");
                if !out.status.success() || !last.starts_with('{') {
                    all_correct = false;
                }
                if last.starts_with('{') {
                    records.push(format!(
                        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {last}}}",
                        u8::from(trace)
                    ));
                }
            }
        }
    }
    let json = format!("{{\"runs\": [\n{}\n]}}\n", records.join(",\n"));
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::compare_files(a, b),
                _ => {
                    eprintln!("usage: ditto-benchmark compare <a.json> <b.json>");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ditto-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(workload) => run_one(&RunConfig {
            workload: workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: args.smoke,
        }),
        None => match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("ditto-benchmark: {e}");
                ExitCode::from(2)
            }
        },
    }
}
