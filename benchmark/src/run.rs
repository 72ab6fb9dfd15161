//! One run of one workload: set-up, a closed loop with a single client
//! thread (the next job is submitted when the previous one returns; the
//! only other threads are the ones `LocalRuntime` spawns), and the
//! metrics. End-to-end metrics come from a run with tracing off; the
//! traced run reads the per-layer metrics and reports what tracing cost.

use crate::calib;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{setup, Counters, JobInfo, JobOutcome, ProbeScale, SetupFacts, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Rounds discarded before measuring.
const WARMUP_ROUNDS: usize = 5;
/// Set-ups timed per end-to-end run (more while they are quick).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
/// Keep repeating a quick set-up until this much time went into it.
const SETUP_BUDGET_S: f64 = 1.0;
/// Share of `--seconds` the traced run spends in its loop (both lanes
/// together); the rest of the run is the direct probes.
const TRACED_LOOP_SHARE: f64 = 0.7;
/// Jobs whose spans go into the Chrome trace file.
const TRACE_FILE_JOBS: u32 = 100;
/// The traced run fails above this `bench.span_residual_share`.
const MAX_RESIDUAL_SHARE: f64 = 0.02;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub trace: bool,
    /// Fixed tiny round counts instead of `seconds`, for the tests.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Its contract entry.
    pub spec: &'static MetricSpec,
    /// The measured value.
    pub value: f64,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every job passed its checks and every invariant of the run held.
    pub correct: bool,
    /// Jobs submitted in the measured loops.
    pub attempted: u64,
    /// Jobs that returned `Err`, panicked, failed their check or produced
    /// a different schedule than the same job of an earlier round.
    pub failed: u64,
    /// The metrics, in contract order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (sample counts, the first failures).
    pub notes: Vec<String>,
}

/// How long a loop runs.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// This many rounds per lane.
    Rounds(usize),
    /// Whole rounds until this many seconds have passed.
    Seconds(f64),
}

/// What one lane of the loop measured. Times are scaled to the reference
/// machine (see [`crate::calib`]) round by round.
#[derive(Debug, Default)]
struct LaneStats {
    job_s: Vec<f64>,
    round_s: Vec<f64>,
    /// Unscaled round times, for the readable output.
    raw_round_s: Vec<f64>,
    /// `calib::speed` of each round.
    speed: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl LaneStats {
    fn jobs_per_s(&self, jobs_per_round: usize) -> f64 {
        jobs_per_round as f64 / median(&self.round_s)
    }
}

/// The closed loop's result: one [`LaneStats`] per tracer it cycled over.
#[derive(Debug)]
struct LoopStats {
    lanes: Vec<LaneStats>,
    /// Outcome of each job of the list, from the first round it passed.
    outcomes: Vec<Option<JobOutcome>>,
    errors: Vec<String>,
}

impl LoopStats {
    fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }
}

/// The closed loop: whole rounds over the job list until `stop`, round
/// `k` recorded by `tracers[k % tracers.len()]` — so a traced and an
/// untraced lane see the same machine, seconds apart at most.
fn run_rounds(w: &dyn Workload, tracers: &mut [Tracer], c: &mut Counters, stop: Stop) -> LoopStats {
    let n = w.jobs().len();
    let mut st = LoopStats {
        lanes: tracers.iter().map(|_| LaneStats::default()).collect(),
        outcomes: vec![None; n],
        errors: Vec::new(),
    };
    let started = Instant::now();
    let mut before = calib::sample();
    for k in 0.. {
        let lane = k % tracers.len();
        let tr = &mut tracers[lane];
        let mut job_s = Vec::with_capacity(n);
        let round = Instant::now();
        for i in 0..n {
            let t0 = Instant::now();
            let job = tr.begin_job();
            let out = catch_unwind(AssertUnwindSafe(|| w.run_job(i, tr, c)))
                .unwrap_or_else(|_| Err("panicked".into()));
            tr.end(job);
            let secs = t0.elapsed().as_secs_f64();
            let out = out.and_then(|o| match st.outcomes[i] {
                Some(first) if first != o => Err(format!(
                    "schedule changed between rounds: {first:?} then {o:?}"
                )),
                _ => Ok(o),
            });
            st.lanes[lane].attempted += 1;
            match out {
                Ok(o) => {
                    st.outcomes[i] = Some(o);
                    job_s.push(secs);
                }
                Err(e) => {
                    st.lanes[lane].failed += 1;
                    if st.errors.len() < 5 {
                        st.errors.push(format!("{}: {e}", w.jobs()[i].label));
                    }
                }
            }
        }
        let raw = round.elapsed().as_secs_f64();
        let after = calib::sample();
        let speed = calib::speed(before, after);
        before = after;
        let l = &mut st.lanes[lane];
        l.raw_round_s.push(raw);
        l.round_s.push(raw * speed);
        l.speed.push(speed);
        l.job_s.extend(job_s.iter().map(|s| s * speed));
        let done = match stop {
            Stop::Rounds(r) => k + 1 >= r * tracers.len(),
            Stop::Seconds(s) => started.elapsed().as_secs_f64() >= s && lane + 1 == tracers.len(),
        };
        if done {
            break;
        }
    }
    st
}

/// Geometric means of the fault-free simulated JCT and cost over the
/// schedules that enter each.
fn schedule_quality(w: &dyn Workload, outcomes: &[Option<JobOutcome>]) -> (f64, f64) {
    let pick = |want: fn(&JobInfo) -> bool, get: fn(&JobOutcome) -> f64| {
        let v: Vec<f64> = w
            .jobs()
            .iter()
            .zip(outcomes)
            .filter(|(info, _)| want(info))
            .filter_map(|(_, o)| o.as_ref().map(get))
            .collect();
        geomean(&v)
    };
    (
        pick(|i| i.in_jct, |o| o.jct),
        pick(|i| i.in_cost, |o| o.cost),
    )
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// utime + stime of this process, seconds (clock ticks are 100 Hz on
/// every Linux the toolchain targets).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // After the parenthesised command name comes the state letter, then
    // numbers only: utime and stime (fields 14 and 15 of the line) are
    // the 11th and 12th of those.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    match (f.get(10), f.get(11)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

fn unknown_workload(name: &str) -> String {
    let names: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.0).collect();
    format!("unknown workload {name:?}; known: {}", names.join(", "))
}

/// Run `cfg` and return its result; `Err` only for a run that cannot
/// start (unknown workload).
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let pinned = match crate::affinity::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu}"),
        Err(e) => format!("NOT pinned to one CPU ({e}): threaded workloads will read noisier"),
    };
    let mut result = if cfg.trace {
        run_traced(cfg)?
    } else {
        run_end_to_end(cfg)?
    };
    result.notes.push(pinned);
    Ok(result)
}

/// One set-up, timed and scaled to the reference machine.
struct Setup {
    workload: Box<dyn Workload>,
    facts: SetupFacts,
    /// Scaled seconds.
    secs: f64,
    /// Unscaled seconds.
    raw_secs: f64,
    /// `calib::speed` over the set-up.
    speed: f64,
}

fn timed_setup(cfg: &RunConfig) -> Result<Setup, String> {
    let before = calib::sample();
    let t0 = Instant::now();
    let (workload, facts) =
        setup(&cfg.workload, cfg.seed).ok_or_else(|| unknown_workload(&cfg.workload))?;
    let raw_secs = t0.elapsed().as_secs_f64();
    let speed = calib::speed(before, calib::sample());
    Ok(Setup {
        workload,
        facts,
        secs: raw_secs * speed,
        raw_secs,
        speed,
    })
}

fn run_end_to_end(cfg: &RunConfig) -> Result<RunResult, String> {
    // Set up several times and report the median: one run's set-up is a
    // single sample of a seconds-long, allocation-heavy phase.
    let mut last = timed_setup(cfg)?;
    let mut setup_s = vec![last.secs];
    let wanted = if cfg.smoke {
        1
    } else {
        ((SETUP_BUDGET_S / last.raw_secs).ceil() as usize).clamp(MIN_SETUPS, MAX_SETUPS)
    };
    while setup_s.len() < wanted {
        drop(last);
        last = timed_setup(cfg)?;
        setup_s.push(last.secs);
    }
    let w = last.workload.as_ref();

    let mut tr = [Tracer::new(false)];
    let mut c = Counters::default();
    let (warmup, stop) = if cfg.smoke {
        (Stop::Rounds(1), Stop::Rounds(2))
    } else {
        (Stop::Rounds(WARMUP_ROUNDS), Stop::Seconds(cfg.seconds))
    };
    let warm = run_rounds(w, &mut tr, &mut c, warmup);
    // The heap high-water mark is that of set-up and warm-up; counting
    // allocations through the timed loop would slow it.
    crate::heap::stop_counting();
    let all = run_rounds(w, &mut tr, &mut c, stop);
    let st = &all.lanes[0];

    let (jct, cost) = schedule_quality(w, &all.outcomes);
    let job_ms: Vec<f64> = st.job_s.iter().map(|s| s * 1e3).collect();
    let value = |name: &str| match name {
        "setup_s" => median(&setup_s),
        "jobs_per_s" => st.jobs_per_s(w.jobs().len()),
        "job_ms_p50" => median(&job_ms),
        "job_ms_p95" => percentile(&job_ms, 95.0),
        "peak_heap_mb" => crate::heap::peak_mb(),
        "sim_jct_s" => jct,
        "sim_cost_gbs" => cost,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|spec| Metric {
            spec,
            value: value(spec.name),
        })
        .collect();
    let mut notes = vec![
        format!(
            "{} measured jobs in {} rounds of {} ({} beyond p95), {} set-ups, warm-up {} rounds",
            st.job_s.len(),
            st.round_s.len(),
            w.jobs().len(),
            st.job_s.len() / 20,
            setup_s.len(),
            warm.lanes[0].round_s.len(),
        ),
        format!(
            "times are scaled to the reference machine; this one ran at {:.3} of it \
             (unscaled: {:.3} jobs/s, last set-up {:.3} s)",
            median(&st.speed),
            w.jobs().len() as f64 / median(&st.raw_round_s),
            last.raw_secs,
        ),
    ];
    notes.extend(warm.errors.iter().chain(&all.errors).cloned());
    Ok(RunResult {
        correct: all.failed() + warm.failed() == 0,
        attempted: st.attempted,
        failed: st.failed,
        metrics,
        notes,
    })
}

fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    crate::heap::stop_counting();
    let set_up = timed_setup(cfg)?;
    let (w, facts) = (set_up.workload.as_ref(), set_up.facts);
    let mut c = Counters::default();
    let (warmup, stop, scale) = if cfg.smoke {
        let scale = ProbeScale {
            reps: 1,
            frames: 64,
            wide: false,
        };
        (Stop::Rounds(1), Stop::Rounds(1), scale)
    } else {
        let scale = ProbeScale {
            reps: 3,
            frames: 2000,
            wide: true,
        };
        (
            Stop::Rounds(1),
            Stop::Seconds(cfg.seconds * TRACED_LOOP_SHARE),
            scale,
        )
    };

    // Rounds alternate between an untraced and a traced lane: the ratio
    // of their throughputs is what tracing costs, on one machine state.
    let mut tracers = [Tracer::new(false), Tracer::new(true)];
    let warm = run_rounds(w, &mut tracers, &mut c, warmup);
    // Counts are per traced job of the measured loop only.
    c = Counters::default();
    tracers[1] = Tracer::new(true);
    let cpu0 = cpu_seconds();
    let all = run_rounds(w, &mut tracers, &mut c, stop);
    let cpu_s = cpu_seconds() - cpu0;
    let (plain, traced) = (&all.lanes[0], &all.lanes[1]);
    let tr = &tracers[1];

    let mut notes = Vec::new();
    let mut correct = warm.failed() + all.failed() == 0;
    let before = calib::sample();
    if let Err(e) = w.probes(scale, &mut c) {
        correct = false;
        notes.push(format!("probe failed: {e}"));
    }
    // Scale factors of the three phases a per-layer time can come from.
    let probe_k = calib::speed(before, calib::sample());
    let loop_k = median(&traced.speed);
    let setup_k = set_up.speed;

    let n = w.jobs().len();
    let jobs = c.get("jobs").max(1.0);
    let per_job = |name: &str| c.get(name) / jobs;
    let span_s = |span: &str| tr.p50(span) * loop_k;
    let probe_s = |name: &str| c.get(name) * probe_k;
    let runner_s: f64 = tr.durations("exec.try_run").iter().sum();
    let busy_s = c.get("sql.compute_s") + c.get("storage.read_s") + c.get("storage.write_s");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let residual = tr.residual_share();
    let value = |name: &str| -> f64 {
        match name {
            "sql.datagen_s" => facts.datagen_s * setup_k,
            "sql.datagen_rows_per_s" => ratio(facts.datagen_rows as f64, facts.datagen_s * setup_k),
            "sql.plan_ms_p50" => span_s("sql.prepared_plan") * 1e3,
            "sql.compute_ms_per_job" => per_job("sql.compute_s") * loop_k * 1e3,
            "sql.kernel_ms.scan" => probe_s("sql.kernel_s.scan") * 1e3,
            "sql.kernel_ms.join" => probe_s("sql.kernel_s.join") * 1e3,
            "sql.kernel_ms.group_by" => probe_s("sql.kernel_s.group_by") * 1e3,
            "sql.kernel_ms.filter" => probe_s("sql.kernel_s.filter") * 1e3,
            "sql.kernel_ms.sort_limit" => probe_s("sql.kernel_s.sort_limit") * 1e3,
            "sql.encode_mb_per_s" => c.get("sql.encode_bytes_per_s") / probe_k / 1e6,
            "sql.decode_mb_per_s" => c.get("sql.decode_bytes_per_s") / probe_k / 1e6,
            "sql.rows_per_s" => ratio(c.get("sql.rows"), runner_s * loop_k),
            "timemodel.fit_us_p50" => span_s("timemodel.fit") * 1e6,
            "core.schedule_ms_p50.ditto_jct" => span_s("core.schedule.ditto_jct") * 1e3,
            "core.schedule_ms_p50.ditto_cost" => span_s("core.schedule.ditto_cost") * 1e3,
            "core.schedule_ms_p50.nimble" => span_s("core.schedule.nimble") * 1e3,
            "core.rounds" => per_job("core.rounds") * n as f64,
            "core.candidates" => per_job("core.candidates") * n as f64,
            "core.commits" => per_job("core.commits") * n as f64,
            "core.dop_memo_hit_ratio" => {
                ratio(c.get("core.dop_memo_hits"), c.get("core.candidates"))
            }
            "core.joint_jct_512_ms" => probe_s("core.joint_jct_512_s") * 1e3,
            "audit.audit_ms_p50" => span_s("audit.audit") * 1e3,
            "audit.findings" => c.get("audit.findings"),
            "audit.race_check_ms" => probe_s("audit.race_check_s") * 1e3,
            "exec.runner_ms_p50" => span_s("exec.try_run") * 1e3,
            "exec.tasks_per_job" => per_job("exec.tasks"),
            "exec.runner_wall_us_per_task" => ratio(runner_s * loop_k, c.get("exec.tasks")) * 1e6,
            "exec.task_busy_share" => ratio(busy_s, runner_s),
            "exec.runner_journal_overhead_ratio" => c.get("exec.runner_journal_overhead_ratio"),
            "exec.sim_us_p50" => span_s("exec.simulate") * 1e6,
            "exec.faults_journaled_us_p50" => span_s("exec.faults_journaled") * 1e6,
            "exec.adaptive_journaled_us_p50" => span_s("exec.adaptive_journaled") * 1e6,
            "exec.recover_us_p50" => span_s("exec.recover") * 1e6,
            "exec.journal_overhead_ratio" => c.get("exec.journal_overhead_ratio"),
            "exec.recorder_overhead_ratio" => c.get("exec.recorder_overhead_ratio"),
            "exec.journal_bytes_per_job" => per_job("exec.journal_bytes"),
            "exec.journal_records_per_job" => per_job("exec.journal_records"),
            "exec.replans_per_job" => per_job("exec.replans"),
            "exec.retries_per_job" => per_job("exec.retries"),
            "exec.adaptive_wide_ms" => probe_s("exec.adaptive_wide_s") * 1e3,
            "storage.read_ms_per_job" => per_job("storage.read_s") * loop_k * 1e3,
            "storage.write_ms_per_job" => per_job("storage.write_s") * loop_k * 1e3,
            "storage.shm_bytes_per_job" => per_job("storage.shm_bytes"),
            "storage.ext_bytes_per_job" => per_job("storage.ext_bytes"),
            "storage.logical_bytes_per_job" => per_job("storage.logical_bytes"),
            "storage.read_retries" => c.get("storage.read_retries"),
            "storage.send_us_per_partition.shm" => probe_s("storage.send_s.shm") * 1e6,
            "storage.send_us_per_partition.s3" => probe_s("storage.send_s.s3") * 1e6,
            "storage.send_us_per_partition.redis" => probe_s("storage.send_s.redis") * 1e6,
            "storage.recv_us_per_partition.shm" => probe_s("storage.recv_s.shm") * 1e6,
            "storage.recv_us_per_partition.s3" => probe_s("storage.recv_s.s3") * 1e6,
            "storage.recv_us_per_partition.redis" => probe_s("storage.recv_s.redis") * 1e6,
            "cluster.drift_events_per_job" => c.get("cluster.drift_events_per_job"),
            "obs.events_per_job" => c.get("obs.events_per_job"),
            "dag.random_dag_ms" => facts.random_dag_s * setup_k * 1e3,
            "bench.cpu_ms_per_job" => {
                ratio(
                    cpu_s * loop_k,
                    all.lanes.iter().map(|l| l.attempted).sum::<u64>() as f64,
                ) * 1e3
            }
            "bench.trace_overhead_ratio" => ratio(traced.jobs_per_s(n), plain.jobs_per_s(n)),
            "bench.span_residual_share" => residual,
            "bench.machine_speed" => loop_k,
            "bench.peak_rss_mb" => peak_rss_mb(),
            other => unreachable!("per-layer metric {other} has no definition"),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|spec| Metric {
            spec,
            value: value(spec.name),
        })
        .collect();

    if residual > MAX_RESIDUAL_SHARE {
        correct = false;
        notes.push(format!(
            "spans do not sum to the job: residual share {residual:.4} > {MAX_RESIDUAL_SHARE}"
        ));
    }
    match write_trace(&cfg.workload, tr) {
        Ok(path) => notes.push(format!("trace of the first {TRACE_FILE_JOBS} jobs: {path}")),
        Err(e) => {
            correct = false;
            notes.push(format!("trace file: {e}"));
        }
    }
    let total: f64 = tr.durations("job").iter().sum();
    let mut own: Vec<(&str, f64)> = tr.self_times().into_iter().collect();
    own.sort_by(|a, b| b.1.total_cmp(&a.1));
    notes.push(format!(
        "self time over {} traced jobs: {}",
        traced.job_s.len(),
        own.iter()
            .map(|(name, s)| format!("{name} {:.1}%", 100.0 * s / total))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.extend(warm.errors.iter().chain(&all.errors).cloned());
    Ok(RunResult {
        correct,
        attempted: plain.attempted + traced.attempted,
        failed: all.failed(),
        metrics,
        notes,
    })
}

/// Directory the benchmark writes into: `benchmark/out`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the Chrome trace of the run and check that the repo's own
/// validator (and so Perfetto) accepts it.
fn write_trace(workload: &str, tr: &Tracer) -> Result<String, String> {
    let json = tr.to_chrome_trace(workload, TRACE_FILE_JOBS);
    crate::adapter::validate_chrome_trace(&json)?;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}
