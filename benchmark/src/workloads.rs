//! The five workloads: how each builds its inputs from the seed, what one
//! job does, and how its output is checked. The program under test only
//! ever sees the generated inputs, through [`crate::adapter`].

use crate::adapter::{
    self as api, AdaptiveRun, Database, FaultPlan, GroundTruth, JobDag, JobTimeModel, JointStats,
    JournalSession, Medium, Oracle, Query, ResourceManager, SchedKind, Schedule, QUERIES,
};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "tpcds_compute",
        "sf 0.5, 2x6 slots, S3: ~12 tasks/job on large partitions; SQL kernels, codec and prepared_plan do the work, scheduler <1%",
    ),
    (
        "tpcds_fanout",
        "sf 0.25, 4x12 slots, Redis: ~47 tasks/job on tiny partitions; thread spawn, stage barriers and per-partition encode/send dominate",
    ),
    (
        "sched_wide_jct",
        "16 random 192-stage DAGs, Objective::Jct, 8x48 slots: >90% joint_optimize candidate generation and critical-path re-evaluation",
    ),
    (
        "sched_wide_cost",
        "same DAGs, Objective::Cost: the same optimizer used the other way, plus the journaled simulator and its MB-sized journal",
    ),
    (
        "sim_paper",
        "5 queries at paper scale x {ditto-jct, ditto-cost, nimble}: discrete-event engines, WAL writes beside WAL reads (crash + resume)",
    ),
];

/// Sums of per-job counts, recorded only while tracing.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Add `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Set the counter `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The counter's value (0 if never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a job reports besides passing its checks: the fault-free
/// simulated JCT and cost of the schedule it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// `simulate` JCT, seconds.
    pub jct: f64,
    /// `simulate` total cost, GB·s.
    pub cost: f64,
}

/// One entry of a workload's fixed job list.
#[derive(Debug, Clone)]
pub struct JobInfo {
    /// Human-readable label, e.g. `q95/ditto_jct`.
    pub label: String,
    /// Whether this job's schedule enters `sim_jct_s`.
    pub in_jct: bool,
    /// Whether this job's schedule enters `sim_cost_gbs`.
    pub in_cost: bool,
}

/// What set-up measured about itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupFacts {
    /// Seconds inside `Database::generate`.
    pub datagen_s: f64,
    /// Rows generated.
    pub datagen_rows: u64,
    /// Seconds inside `random_dag`.
    pub random_dag_s: f64,
}

/// How much work the traced run's direct probes do.
#[derive(Debug, Clone, Copy)]
pub struct ProbeScale {
    /// Repetitions of each timed probe.
    pub reps: usize,
    /// Frames per medium in the send/recv probe.
    pub frames: usize,
    /// Run the one-off wide calls (512-stage optimize, 256-stage adaptive).
    pub wide: bool,
}

/// A workload with its inputs built.
pub trait Workload {
    /// The fixed job list of one round.
    fn jobs(&self) -> &[JobInfo];
    /// Carry job `i` from submission to a checked result.
    fn run_job(&self, i: usize, tr: &mut Tracer, c: &mut Counters) -> Result<JobOutcome, String>;
    /// Direct per-layer probes of the traced run (outside the job loop).
    fn probes(&self, scale: ProbeScale, c: &mut Counters) -> Result<(), String>;
}

/// Build the inputs of workload `name` from `seed`.
pub fn setup(name: &str, seed: u64) -> Option<(Box<dyn Workload>, SetupFacts)> {
    match name {
        "tpcds_compute" => Some(Tpcds::setup(seed, 0.5, vec![6, 6], Medium::S3)),
        "tpcds_fanout" => Some(Tpcds::setup(seed, 0.25, vec![12; 4], Medium::Redis)),
        "sched_wide_jct" => Some(SchedWide::setup(seed, SchedKind::DittoJct)),
        "sched_wide_cost" => Some(SchedWide::setup(seed, SchedKind::DittoCost)),
        "sim_paper" => Some(SimPaper::setup(seed)),
        _ => None,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn add_joint_stats(c: &mut Counters, stats: &JointStats) {
    c.add("core.rounds", stats.rounds as f64);
    c.add("core.candidates", stats.candidates as f64);
    c.add("core.commits", stats.commits as f64);
    c.add("core.dop_memo_hits", stats.dop_memo_hits as f64);
}

/// Schedule → validate → audit → fault-free simulate: the head every job
/// shares. Ditto schedules must audit clean.
fn plan_job(
    kind: SchedKind,
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    gt: &GroundTruth,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<(Schedule, JobOutcome), String> {
    let (schedule, stats) = tr.time(kind.span(), || api::schedule(kind, dag, model, rm));
    api::validate_schedule(&schedule, dag)?;
    let (errors, findings) = tr.time("audit.audit", || api::audit(dag, model, rm, &schedule));
    if kind.is_ditto() && errors > 0 {
        return Err(format!(
            "{} schedule failed its audit:\n{findings}",
            kind.label()
        ));
    }
    let metrics = tr.time("exec.simulate", || api::simulate(dag, &schedule, gt));
    if tr.enabled() {
        c.add("jobs", 1.0);
        add_joint_stats(c, &stats);
        if kind.is_ditto() {
            c.add("audit.findings", errors as f64);
        }
    }
    let outcome = JobOutcome {
        jct: metrics.jct,
        cost: metrics.total_cost(),
    };
    Ok((schedule, outcome))
}

/// Ratio of two medians, each over `reps` alternating repetitions.
fn overhead_ratio(
    reps: usize,
    mut with: impl FnMut() -> Result<(), String>,
    mut without: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (r, s) = timed(&mut without);
        r?;
        b.push(s);
        let (r, s) = timed(&mut with);
        r?;
        a.push(s);
    }
    Ok(crate::stats::median(&a) / crate::stats::median(&b))
}

// ---------------------------------------------------------------------
// tpcds_compute / tpcds_fanout
// ---------------------------------------------------------------------

/// DoPs the per-job profile is fitted from.
const LOCAL_PROFILE_DOPS: [u32; 3] = [2, 4, 8];
/// Schedulers of the local-runtime job list.
const LOCAL_KINDS: [SchedKind; 2] = [SchedKind::DittoJct, SchedKind::Nimble];
/// Fan-out of the codec probe's shuffle frames.
const PROBE_BUCKETS: usize = 8;

struct Tpcds {
    db: Database,
    oracles: Vec<Oracle>,
    slots: Vec<u32>,
    medium: Medium,
    gt: GroundTruth,
    jobs: Vec<JobInfo>,
}

impl Tpcds {
    fn setup(
        seed: u64,
        sf: f64,
        slots: Vec<u32>,
        medium: Medium,
    ) -> (Box<dyn Workload>, SetupFacts) {
        let (db, datagen_s) = timed(|| api::generate_database(sf, seed));
        let oracles = QUERIES.iter().map(|&q| api::oracle(q, &db)).collect();
        let jobs = QUERIES
            .iter()
            .flat_map(|q| {
                LOCAL_KINDS.iter().map(move |k| JobInfo {
                    label: format!("{q}/{}", k.label()),
                    in_jct: k.is_ditto(),
                    in_cost: k.is_ditto(),
                })
            })
            .collect();
        let facts = SetupFacts {
            datagen_s,
            datagen_rows: api::database_rows(&db),
            ..SetupFacts::default()
        };
        let w = Tpcds {
            db,
            oracles,
            slots,
            medium,
            gt: api::ground_truth(medium),
            jobs,
        };
        (Box::new(w), facts)
    }

    fn job(&self, i: usize) -> (Query, SchedKind) {
        (
            QUERIES[i / LOCAL_KINDS.len()],
            LOCAL_KINDS[i % LOCAL_KINDS.len()],
        )
    }
}

impl Workload for Tpcds {
    fn jobs(&self) -> &[JobInfo] {
        &self.jobs
    }

    fn run_job(&self, i: usize, tr: &mut Tracer, c: &mut Counters) -> Result<JobOutcome, String> {
        let (q, kind) = self.job(i);
        let traced = tr.enabled();
        let plan = tr.time("sql.prepared_plan", || api::prepared_plan(q, &self.db));
        let model = tr.time("timemodel.fit", || {
            api::fit_model(&plan.dag, &self.gt, &LOCAL_PROFILE_DOPS)
        });
        let rm = api::cluster(self.slots.clone());
        let (schedule, outcome) = plan_job(kind, &plan.dag, &model, &rm, &self.gt, tr, c)?;
        let run = tr.time("exec.try_run", || {
            api::run_local(
                &plan,
                &self.db,
                &schedule,
                self.medium,
                self.slots.len(),
                None,
                traced,
            )
        })?;
        let run_span = tr.last_closed();
        tr.time("bench.check", || {
            api::check_result(q, &run.result, &self.oracles[i / LOCAL_KINDS.len()])
        })?;
        if traced {
            for t in &run.tasks {
                tr.add_child(
                    run_span,
                    "exec.task",
                    t.start,
                    t.end - t.start,
                    1 + t.server.0,
                );
                c.add("sql.compute_s", t.steps.compute);
                c.add("storage.read_s", t.steps.read);
                c.add("storage.write_s", t.steps.write);
            }
            c.add("exec.tasks", run.tasks.len() as f64);
            c.add("exec.retries", run.retries as f64);
            c.add("storage.read_retries", run.storage_retries as f64);
            let l = &run.ledger;
            c.add("storage.shm_bytes", l.shared_memory.bytes_in as f64);
            c.add(
                "storage.ext_bytes",
                (l.redis.bytes_in + l.s3.bytes_in) as f64,
            );
            c.add(
                "storage.logical_bytes",
                (l.shared_memory.logical_bytes + l.redis.logical_bytes + l.s3.logical_bytes) as f64,
            );
            c.add("sql.rows", api::scanned_rows(&plan, &self.db) as f64);
        }
        Ok(outcome)
    }

    fn probes(&self, scale: ProbeScale, c: &mut Counters) -> Result<(), String> {
        let median_frame = self.probe_kernels_and_codec(scale, c)?;
        probe_dataplane(median_frame, scale, c)?;
        self.probe_runner_journal(scale, c)
    }
}

impl Tpcds {
    /// Kernel replay: every plan stage by stage on one thread, grouped by
    /// operator; the stage outputs feed the codec probe. Returns the
    /// median encoded frame size, bytes.
    fn probe_kernels_and_codec(
        &self,
        scale: ProbeScale,
        c: &mut Counters,
    ) -> Result<usize, String> {
        let mut kernel_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let (mut enc_s, mut dec_s, mut wire_bytes) = (0.0, 0.0, 0u64);
        let mut frame_sizes: Vec<f64> = Vec::new();
        for rep in 0..scale.reps {
            let mut by_kernel: BTreeMap<&'static str, f64> = BTreeMap::new();
            for q in QUERIES {
                let plan = api::prepared_plan(q, &self.db);
                let mut outputs = Vec::new();
                api::replay_stages(&plan, &self.db, |s, secs, out| {
                    *by_kernel.entry(api::kernel_of(&plan, s)).or_insert(0.0) += secs;
                    outputs.push((s, out.clone()));
                });
                for (s, out) in &outputs {
                    let (frames, secs) =
                        timed(|| api::encode_output(&plan, *s, out, PROBE_BUCKETS));
                    enc_s += secs;
                    for f in frames {
                        wire_bytes += f.len() as u64;
                        if rep == 0 {
                            frame_sizes.push(f.len() as f64);
                        }
                        let (rows, secs) = timed(|| api::decode_frame(f));
                        rows?;
                        dec_s += secs;
                    }
                }
            }
            for (k, s) in by_kernel {
                kernel_s.entry(k).or_default().push(s);
            }
        }
        for (name, key) in [
            ("sql.kernel_s.scan", "scan"),
            ("sql.kernel_s.join", "join"),
            ("sql.kernel_s.group_by", "group_by"),
            ("sql.kernel_s.filter", "filter"),
            ("sql.kernel_s.sort_limit", "sort_limit"),
        ] {
            c.set(
                name,
                kernel_s.get(key).map_or(0.0, |v| crate::stats::median(v)),
            );
        }
        c.set("sql.encode_bytes_per_s", wire_bytes as f64 / enc_s);
        c.set("sql.decode_bytes_per_s", wire_bytes as f64 / dec_s);
        Ok(crate::stats::median(&frame_sizes) as usize)
    }

    /// The runner with and without the write-ahead journal, over the
    /// whole job list.
    fn probe_runner_journal(&self, scale: ProbeScale, c: &mut Counters) -> Result<(), String> {
        let prepared: Vec<_> = (0..self.jobs.len())
            .map(|i| {
                let (q, kind) = self.job(i);
                let plan = api::prepared_plan(q, &self.db);
                let model = api::fit_model(&plan.dag, &self.gt, &LOCAL_PROFILE_DOPS);
                let rm = api::cluster(self.slots.clone());
                let schedule = api::schedule(kind, &plan.dag, &model, &rm).0;
                (plan, schedule)
            })
            .collect();
        let run_all = |journaled: bool| -> Result<(), String> {
            for (plan, schedule) in &prepared {
                let mut session = api::fresh_session(None);
                let s = journaled.then_some(&mut session);
                api::run_local(
                    plan,
                    &self.db,
                    schedule,
                    self.medium,
                    self.slots.len(),
                    s,
                    false,
                )?;
            }
            Ok(())
        };
        let ratio = overhead_ratio(scale.reps, || run_all(true), || run_all(false))?;
        c.set("exec.runner_journal_overhead_ratio", ratio);
        Ok(())
    }
}

/// The data plane, directly: send then receive `scale.frames` frames of
/// `frame_bytes` bytes on each medium.
fn probe_dataplane(frame_bytes: usize, scale: ProbeScale, c: &mut Counters) -> Result<(), String> {
    let frame = api::Frame::from(vec![0x5au8; frame_bytes]);
    // `None`: producer and consumer on one server, i.e. shared memory.
    for (medium, send, recv) in [
        (None, "storage.send_s.shm", "storage.recv_s.shm"),
        (Some(Medium::S3), "storage.send_s.s3", "storage.recv_s.s3"),
        (
            Some(Medium::Redis),
            "storage.send_s.redis",
            "storage.recv_s.redis",
        ),
    ] {
        let dp = api::new_dataplane(medium.unwrap_or(Medium::S3), 2);
        let dst = usize::from(medium.is_some());
        let n = scale.frames as u32;
        let (r, send_s) = timed(|| {
            (0..n).try_for_each(|i| api::send_partition(&dp, 0, i, 0, 0, dst, frame.clone()))
        });
        r?;
        let (r, recv_s) = timed(|| {
            (0..n).try_for_each(|i| api::recv_partition(&dp, 0, i, 0, 0, dst).map(|_| ()))
        });
        r?;
        c.set(send, send_s / f64::from(n));
        c.set(recv, recv_s / f64::from(n));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Simulator-side probes shared by sched_wide_* and sim_paper
// ---------------------------------------------------------------------

/// One schedulable simulator input.
struct SimCase<'a> {
    dag: &'a JobDag,
    model: &'a JobTimeModel,
    gt: &'a GroundTruth,
    kind: SchedKind,
}

/// Journal and recorder overhead of the fault simulator over `cases`,
/// plus one race check of a recorded run.
fn sim_probes(
    cases: &[SimCase<'_>],
    rm: &ResourceManager,
    faults: &FaultPlan,
    scale: ProbeScale,
    c: &mut Counters,
) -> Result<(), String> {
    let schedules: Vec<Schedule> = cases
        .iter()
        .map(|k| api::schedule(k.kind, k.dag, k.model, rm).0)
        .collect();
    let each = |f: &mut dyn FnMut(&SimCase<'_>, &Schedule) -> Result<(), String>| {
        cases.iter().zip(&schedules).try_for_each(|(k, s)| f(k, s))
    };
    let plain = || each(&mut |k, s| api::simulate_faults(k.dag, s, k.gt, faults).map(|_| ()));
    let journaled = || {
        each(&mut |k, s| {
            let mut session = api::fresh_session(None);
            api::simulate_faults_journaled(k.dag, s, k.gt, faults, &mut session).map(|_| ())
        })
    };
    c.set(
        "exec.journal_overhead_ratio",
        overhead_ratio(scale.reps, journaled, plain)?,
    );
    let recorded = |on: bool| {
        each(&mut |k, s| {
            let obs = api::recorder(on);
            api::simulate_faults_recorded(k.dag, s, k.gt, faults, &obs).map(|_| ())
        })
    };
    c.set(
        "exec.recorder_overhead_ratio",
        overhead_ratio(scale.reps, || recorded(true), || recorded(false))?,
    );

    let obs = api::recorder(true);
    api::simulate_faults_recorded(cases[0].dag, &schedules[0], cases[0].gt, faults, &obs)?;
    let (data, _, _) = api::finish_recorder(obs);
    let (errors, secs) = timed(|| api::race_check(&data));
    if errors > 0 {
        return Err(format!(
            "race checker found {errors} errors in a recorded run"
        ));
    }
    c.set("audit.race_check_s", secs);
    Ok(())
}

// ---------------------------------------------------------------------
// sched_wide_jct / sched_wide_cost
// ---------------------------------------------------------------------

/// DAGs per round.
const WIDE_DAGS: u64 = 16;
/// Stages per DAG.
const WIDE_STAGES: usize = 192;
/// 8 servers × 48 slots: twice the stage count, so the ungrouped
/// baseline always places and grouping still has merges to reject.
const WIDE_SLOTS: [u32; 8] = [48; 8];

struct SchedWide {
    dags: Vec<JobDag>,
    models: Vec<JobTimeModel>,
    rm: ResourceManager,
    gt: GroundTruth,
    kind: SchedKind,
    faults: FaultPlan,
    seed: u64,
    jobs: Vec<JobInfo>,
}

impl SchedWide {
    fn setup(seed: u64, kind: SchedKind) -> (Box<dyn Workload>, SetupFacts) {
        let (dags, random_dag_s) = timed(|| {
            (0..WIDE_DAGS)
                .map(|i| api::random_dag(seed.wrapping_add(i), WIDE_STAGES))
                .collect::<Vec<_>>()
        });
        let models = dags.iter().map(api::rate_model).collect();
        let jobs = (0..WIDE_DAGS)
            .map(|i| JobInfo {
                label: format!("dag{i}/{}", kind.label()),
                in_jct: true,
                in_cost: true,
            })
            .collect();
        let w = SchedWide {
            dags,
            models,
            rm: api::cluster(WIDE_SLOTS.to_vec()),
            gt: api::ground_truth(Medium::S3),
            kind,
            faults: api::fault_plan(seed),
            seed,
            jobs,
        };
        let facts = SetupFacts {
            random_dag_s,
            ..SetupFacts::default()
        };
        (Box::new(w), facts)
    }
}

impl Workload for SchedWide {
    fn jobs(&self) -> &[JobInfo] {
        &self.jobs
    }

    fn run_job(&self, i: usize, tr: &mut Tracer, c: &mut Counters) -> Result<JobOutcome, String> {
        let (dag, model) = (&self.dags[i], &self.models[i]);
        let (schedule, outcome) = plan_job(self.kind, dag, model, &self.rm, &self.gt, tr, c)?;
        let mut session = api::fresh_session(None);
        let (trace, _) = tr.time("exec.faults_journaled", || {
            api::simulate_faults_journaled(dag, &schedule, &self.gt, &self.faults, &mut session)
        })?;
        let facts = tr.time("exec.validate_journal", || api::check_journal(&session))?;
        if tr.enabled() {
            c.add("exec.journal_bytes", facts.bytes as f64);
            c.add("exec.journal_records", facts.records as f64);
            c.add("exec.retries", trace.extra_attempts() as f64);
        }
        // The journal alone is MBs per job here; freeing it gets a span.
        tr.time("bench.teardown", || drop((session, trace, schedule)));
        Ok(outcome)
    }

    fn probes(&self, scale: ProbeScale, c: &mut Counters) -> Result<(), String> {
        let cases: Vec<SimCase<'_>> = self
            .dags
            .iter()
            .zip(&self.models)
            .map(|(dag, model)| SimCase {
                dag,
                model,
                gt: &self.gt,
                kind: self.kind,
            })
            .collect();
        sim_probes(&cases, &self.rm, &self.faults, scale, c)?;
        if !scale.wide {
            return Ok(());
        }
        // The adaptive engine at width: every replan re-enters the joint
        // optimizer on the whole remaining suffix.
        let schedule = api::schedule(self.kind, &self.dags[0], &self.models[0], &self.rm).0;
        let (run, secs) = timed(|| {
            api::simulate_adaptive_journaled(
                &self.dags[0],
                &schedule,
                &self.gt,
                &api::drift_plan(self.seed),
                &self.models[0],
                &self.rm,
                self.kind.objective(),
                &api::recorder(false),
                &mut api::fresh_session(None),
            )
        });
        run?;
        c.set("exec.adaptive_wide_s", secs);
        if self.kind == SchedKind::DittoJct {
            let dag = api::random_dag(self.seed, 512);
            let model = api::rate_model(&dag);
            let rm = api::cluster(vec![128; 8]);
            let (_, secs) = timed(|| api::schedule(SchedKind::DittoJct, &dag, &model, &rm));
            c.set("core.joint_jct_512_s", secs);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// sim_paper
// ---------------------------------------------------------------------

/// Laptop-scale volumes × this = the paper's input sizes.
const PAPER_VOLUME_SCALE: f64 = 40_000.0;
/// The five profiled DoPs of the paper.
const PAPER_PROFILE_DOPS: [u32; 5] = [10, 20, 40, 80, 120];
/// Schedulers of the paper-scale job list.
const PAPER_KINDS: [SchedKind; 3] = [SchedKind::DittoJct, SchedKind::DittoCost, SchedKind::Nimble];

struct SimPaper {
    prepared: Vec<(JobDag, JobTimeModel)>,
    gt: GroundTruth,
    rm: ResourceManager,
    faults: FaultPlan,
    drift: FaultPlan,
    jobs: Vec<JobInfo>,
}

impl SimPaper {
    fn setup(seed: u64) -> (Box<dyn Workload>, SetupFacts) {
        let (db, datagen_s) = timed(|| api::generate_database(0.5, seed));
        let gt = api::ground_truth(Medium::S3);
        let prepared = QUERIES
            .iter()
            .map(|&q| {
                let mut plan = api::prepared_plan(q, &db);
                api::scale_volumes(&mut plan, PAPER_VOLUME_SCALE);
                let model = api::fit_model(&plan.dag, &gt, &PAPER_PROFILE_DOPS);
                (plan.dag, model)
            })
            .collect();
        let jobs = QUERIES
            .iter()
            .flat_map(|q| {
                PAPER_KINDS.iter().map(move |k| JobInfo {
                    label: format!("{q}/{}", k.label()),
                    in_jct: *k == SchedKind::DittoJct,
                    in_cost: *k == SchedKind::DittoCost,
                })
            })
            .collect();
        let facts = SetupFacts {
            datagen_s,
            datagen_rows: api::database_rows(&db),
            ..SetupFacts::default()
        };
        let w = SimPaper {
            prepared,
            gt,
            rm: api::paper_testbed(),
            faults: api::fault_plan(seed),
            drift: api::drift_plan(seed),
            jobs,
        };
        (Box::new(w), facts)
    }

    fn job(&self, i: usize) -> (&JobDag, &JobTimeModel, SchedKind) {
        let (dag, model) = &self.prepared[i / PAPER_KINDS.len()];
        (dag, model, PAPER_KINDS[i % PAPER_KINDS.len()])
    }
}

impl Workload for SimPaper {
    fn jobs(&self) -> &[JobInfo] {
        &self.jobs
    }

    fn run_job(&self, i: usize, tr: &mut Tracer, c: &mut Counters) -> Result<JobOutcome, String> {
        let (dag, model, kind) = self.job(i);
        let (schedule, outcome) = plan_job(kind, dag, model, &self.rm, &self.gt, tr, c)?;

        let mut session = api::fresh_session(None);
        let (faulted, _) = tr.time("exec.faults_journaled", || {
            api::simulate_faults_journaled(dag, &schedule, &self.gt, &self.faults, &mut session)
        })?;
        let fault_journal = tr.time("exec.validate_journal", || api::check_journal(&session))?;

        let off = api::recorder(false);
        let adaptive = |session: &mut JournalSession| {
            api::simulate_adaptive_journaled(
                dag,
                &schedule,
                &self.gt,
                &self.drift,
                model,
                &self.rm,
                kind.objective(),
                &off,
                session,
            )
        };
        // Crash-free adaptive run under 2× drift: the reference.
        let mut clean = api::fresh_session(None);
        let AdaptiveRun::Done(reference) =
            tr.time("exec.adaptive_journaled", || adaptive(&mut clean))?
        else {
            return Err("unarmed session reported a coordinator crash".into());
        };
        let clean_journal = tr.time("exec.validate_journal", || api::check_journal(&clean))?;
        // Kill the coordinator at the middle record, resume from the
        // durable bytes, and require the recovered run to be identical.
        let mid = clean_journal.records / 2;
        let mut armed = api::fresh_session(Some(mid));
        match tr.time("exec.adaptive_crashed", || adaptive(&mut armed))? {
            AdaptiveRun::Crashed(at) if at == mid => {}
            AdaptiveRun::Crashed(at) => return Err(format!("crashed at record {at}, armed {mid}")),
            AdaptiveRun::Done(_) => return Err(format!("armed crash at record {mid} never fired")),
        }
        let (recovered, resumed) = tr.time("exec.recover", || {
            let mut resumed = api::resume_session(&armed)?;
            adaptive(&mut resumed).map(|run| (run, resumed))
        })?;
        let AdaptiveRun::Done(recovered) = recovered else {
            return Err("resumed session crashed again".into());
        };
        if recovered.1 != reference.1 || recovered.0.tasks != reference.0.tasks {
            return Err(format!(
                "recovery diverged: jct {} vs crash-free {}",
                recovered.1.jct, reference.1.jct
            ));
        }
        let resumed_journal = tr.time("exec.validate_journal", || api::check_journal(&resumed))?;
        if tr.enabled() {
            for j in [&fault_journal, &clean_journal, &resumed_journal] {
                c.add("exec.journal_bytes", j.bytes as f64);
                c.add("exec.journal_records", j.records as f64);
            }
            c.add("exec.retries", faulted.extra_attempts() as f64);
            c.add("exec.replans", reference.0.replans.len() as f64);
        }
        // Four journals and four traces per sub-millisecond job: freeing
        // them is a measurable part of it, so it gets a span of its own.
        tr.time("bench.teardown", || {
            drop((
                session, clean, armed, resumed, faulted, reference, recovered, schedule,
            ));
        });
        Ok(outcome)
    }

    fn probes(&self, scale: ProbeScale, c: &mut Counters) -> Result<(), String> {
        let cases: Vec<SimCase<'_>> = (0..self.jobs.len())
            .map(|i| {
                let (dag, model, kind) = self.job(i);
                SimCase {
                    dag,
                    model,
                    gt: &self.gt,
                    kind,
                }
            })
            .collect();
        sim_probes(&cases, &self.rm, &self.faults, scale, c)?;
        // Exact telemetry counts of one adaptive run per job.
        let (mut events, mut drift) = (0usize, 0usize);
        for k in &cases {
            let schedule = api::schedule(k.kind, k.dag, k.model, &self.rm).0;
            let obs = api::recorder(true);
            api::simulate_adaptive_journaled(
                k.dag,
                &schedule,
                k.gt,
                &self.drift,
                k.model,
                &self.rm,
                k.kind.objective(),
                &obs,
                &mut api::fresh_session(None),
            )?;
            let (_, e, d) = api::finish_recorder(obs);
            events += e;
            drift += d;
        }
        c.set("obs.events_per_job", events as f64 / cases.len() as f64);
        c.set(
            "cluster.drift_events_per_job",
            drift as f64 / cases.len() as f64,
        );
        Ok(())
    }
}
