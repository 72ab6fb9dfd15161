//! Every call the benchmark makes into the program under test, in one
//! place. The workloads and probes see only the functions below; when a
//! refactor renames a public item of the `ditto` facade, this is the one
//! file to edit. The README lists the public names used here — a change
//! that removes one of them needs a benchmark issue first.

use ditto::audit::{audit as ditto_audit, check_trace, RaceOptions};
use ditto::cluster::{Cluster, SlotDistribution, TaskRecord};
use ditto::core::baselines::NimbleScheduler;
use ditto::core::{
    joint_optimize_with_stats, JointOptions, Objective, Scheduler, SchedulingContext,
};
use ditto::dag::generators::{random_dag as ditto_random_dag, RandomDagConfig};
use ditto::exec::{
    decode_journal, profile_job, simulate as ditto_simulate, try_simulate_adaptive_journaled,
    try_simulate_with_faults, try_simulate_with_faults_journaled, try_simulate_with_faults_traced,
    validate_journal, AdaptiveConfig, ExecConfig, ExecError, ExecutionTrace, FaultRates,
    JobMetrics, LocalRuntime, RecoveryPolicy, ReschedulingContext,
};
use ditto::obs::{Recorder, TraceData};
use ditto::sql::queries::{q1, q16, q3, q94, q95};
use ditto::sql::{QueryPlan, ScaleConfig, StageOp, Table};
use ditto::storage::{DataPlane, TransferLedger};
use ditto::timemodel::model::RateConfig;
use std::collections::BTreeMap;
use std::time::Duration;

// The types the workloads name; they reach them through this module only.
pub use ditto::cluster::ResourceManager;
pub use ditto::core::{JointStats, Schedule};
pub use ditto::dag::{JobDag, StageId};
pub use ditto::exec::{FaultPlan, GroundTruth, JournalSession};
pub use ditto::sql::queries::Query;
pub use ditto::sql::Database;
pub use ditto::storage::Medium;
pub use ditto::timemodel::JobTimeModel;

/// The five queries every SQL workload runs, in job-list order.
pub const QUERIES: [Query; 5] = [Query::Q1, Query::Q3, Query::Q16, Query::Q94, Query::Q95];

/// Which scheduler a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Ditto's joint optimizer minimizing JCT.
    DittoJct,
    /// Ditto's joint optimizer minimizing cost.
    DittoCost,
    /// The NIMBLE baseline.
    Nimble,
}

impl SchedKind {
    /// Suffix of the per-scheduler metric and span names.
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::DittoJct => "ditto_jct",
            SchedKind::DittoCost => "ditto_cost",
            SchedKind::Nimble => "nimble",
        }
    }

    /// Span name of a `schedule` call of this kind.
    pub fn span(self) -> &'static str {
        match self {
            SchedKind::DittoJct => "core.schedule.ditto_jct",
            SchedKind::DittoCost => "core.schedule.ditto_cost",
            SchedKind::Nimble => "core.schedule.nimble",
        }
    }

    /// The objective handed to the scheduler (NIMBLE ignores it).
    pub fn objective(self) -> Objective {
        match self {
            SchedKind::DittoCost => Objective::Cost,
            _ => Objective::Jct,
        }
    }

    /// Whether Ditto produced the schedule (and the audit's DoP-ratio
    /// certificate therefore applies).
    pub fn is_ditto(self) -> bool {
        self != SchedKind::Nimble
    }
}

// ---------------------------------------------------------------------
// ditto-sql
// ---------------------------------------------------------------------

/// `Database::generate` at scale factor `sf`, seeded.
pub fn generate_database(sf: f64, seed: u64) -> Database {
    Database::generate(ScaleConfig {
        sf,
        seed,
        ..ScaleConfig::default()
    })
}

/// Rows over all tables of `db`.
pub fn database_rows(db: &Database) -> u64 {
    db.table_names()
        .iter()
        .map(|t| db.table(t).num_rows() as u64)
        .sum()
}

/// The hand-rolled `qN::reference(db)` answer of a query.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// Q1: qualifying customers.
    Customers(Vec<i64>),
    /// Q3: `(brand, revenue)` rows.
    Brands(Vec<(i64, f64)>),
    /// Q16/Q94/Q95: `(count, cost, profit)`.
    Triple((i64, f64, f64)),
}

/// Compute the oracle of `q` on `db` — independent of the plan
/// interpreter and the runtime (plain loops and hash maps).
pub fn oracle(q: Query, db: &Database) -> Oracle {
    match q {
        Query::Q1 => {
            let mut v = q1::reference(db);
            v.sort_unstable();
            Oracle::Customers(v)
        }
        Query::Q3 => Oracle::Brands(q3::reference(db)),
        Query::Q16 => Oracle::Triple(q16::reference(db)),
        Query::Q94 => Oracle::Triple(q94::reference(db)),
        Query::Q95 => Oracle::Triple(q95::reference(db)),
    }
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-6 * want.abs().max(1.0)
}

/// Compare a job's answer with its oracle.
pub fn check_result(q: Query, result: &Table, want: &Oracle) -> Result<(), String> {
    match (q, want) {
        (Query::Q1, Oracle::Customers(want)) => {
            let mut got = q1::result_customers(result);
            got.sort_unstable();
            if &got != want {
                return Err(format!(
                    "q1: {} customers, oracle has {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        (Query::Q3, Oracle::Brands(want)) => {
            let got = q3::result_rows(result);
            if got.len() != want.len() {
                return Err(format!("q3: {} rows, oracle has {}", got.len(), want.len()));
            }
            // Revenue ties may order differently; compare per brand.
            let by_brand: BTreeMap<i64, f64> = want.iter().copied().collect();
            for (brand, revenue) in got {
                match by_brand.get(&brand) {
                    Some(&w) if close(revenue, w) => {}
                    other => {
                        return Err(format!("q3: brand {brand} = {revenue}, oracle {other:?}"))
                    }
                }
            }
        }
        (_, Oracle::Triple(want)) => {
            let got = match q {
                Query::Q16 => q16::result_triple(result),
                Query::Q94 => q94::result_triple(result),
                _ => q95::result_triple(result),
            };
            if got.0 != want.0 || !close(got.1, want.1) || !close(got.2, want.2) {
                return Err(format!("{q}: {got:?}, oracle {want:?}"));
            }
        }
        (q, want) => return Err(format!("{q}: oracle of the wrong kind {want:?}")),
    }
    Ok(())
}

/// `Query::prepared_plan`: build the plan and measure its volumes by
/// executing it once, single-threaded.
pub fn prepared_plan(q: Query, db: &Database) -> QueryPlan {
    q.prepared_plan(db)
}

/// `QueryPlan::scale_volumes`.
pub fn scale_volumes(plan: &mut QueryPlan, factor: f64) {
    plan.scale_volumes(factor);
}

/// Base-table rows a plan's scan stages read.
pub fn scanned_rows(plan: &QueryPlan, db: &Database) -> u64 {
    plan.stages
        .iter()
        .filter_map(|s| match &s.op {
            StageOp::Scan { table, .. } => Some(db.table(table).num_rows() as u64),
            _ => None,
        })
        .sum()
}

/// Operator class of a stage, for the kernel replay.
pub fn kernel_of(plan: &QueryPlan, s: StageId) -> &'static str {
    match &plan.stages[s.index()].op {
        StageOp::Scan { .. } => "scan",
        StageOp::Join { .. } => "join",
        StageOp::GroupBy { .. } => "group_by",
        StageOp::Filter { .. } => "filter",
        StageOp::SortLimit { .. } => "sort_limit",
    }
}

/// Replay a plan stage by stage through `QueryPlan::execute_stage`,
/// calling `on_stage(stage, seconds, output)` after each.
pub fn replay_stages(
    plan: &QueryPlan,
    db: &Database,
    mut on_stage: impl FnMut(StageId, f64, &Table),
) {
    let order = plan.dag.topo_order().expect("plan DAG is acyclic");
    let mut outputs: BTreeMap<StageId, Table> = BTreeMap::new();
    for s in order {
        let inputs: BTreeMap<String, Table> = plan
            .dag
            .parents_of(s)
            .map(|p| (plan.dag.stage(p).name.clone(), outputs[&p].clone()))
            .collect();
        let t0 = std::time::Instant::now();
        let out = plan.execute_stage(s, db, &inputs, None);
        on_stage(s, t0.elapsed().as_secs_f64(), &out);
        outputs.insert(s, out);
    }
}

/// Encode a stage output the way the runner's scatter does: fused
/// `Table::encode_partitions` on the stage's shuffle key when it has one,
/// a single `Table::encode` frame otherwise.
pub fn encode_output(plan: &QueryPlan, s: StageId, out: &Table, buckets: usize) -> Vec<Frame> {
    match &plan.stages[s.index()].output_key {
        Some(key) => out
            .encode_partitions(key, buckets)
            .into_iter()
            .map(|p| p.data)
            .collect(),
        None => vec![out.encode()],
    }
}

/// `Table::try_decode`; returns the decoded row count.
pub fn decode_frame(frame: Frame) -> Result<usize, String> {
    Table::try_decode(frame).map(|t| t.num_rows())
}

/// The refcounted byte frame the codec produces and the data plane moves.
pub type Frame = bytes::Bytes;

// ---------------------------------------------------------------------
// ditto-dag, ditto-timemodel, ditto-cluster
// ---------------------------------------------------------------------

/// `random_dag(seed, RandomDagConfig::sized(stages))`.
pub fn random_dag(seed: u64, stages: usize) -> JobDag {
    ditto_random_dag(seed, &RandomDagConfig::sized(stages))
}

/// `JobTimeModel::from_rates` with the default rates.
pub fn rate_model(dag: &JobDag) -> JobTimeModel {
    JobTimeModel::from_rates(dag, &RateConfig::default())
}

/// A ground truth whose non-co-located shuffles go through `external`.
pub fn ground_truth(external: Medium) -> GroundTruth {
    GroundTruth::new(ExecConfig {
        external,
        ..ExecConfig::default()
    })
}

/// `profile_job` at `dops` + `JobProfile::build_model`: the fitted model.
pub fn fit_model(dag: &JobDag, gt: &GroundTruth, dops: &[u32]) -> JobTimeModel {
    profile_job(dag, gt, dops).build_model(dag).0
}

/// A cluster snapshot with the given free slots per server.
pub fn cluster(free_slots: Vec<u32>) -> ResourceManager {
    ResourceManager::from_free_slots(free_slots)
}

/// The paper's testbed (8 × 96 slots) under the Zipf-0.9 availability.
pub fn paper_testbed() -> ResourceManager {
    ResourceManager::snapshot(&Cluster::paper_testbed(&SlotDistribution::zipf_09()))
}

// ---------------------------------------------------------------------
// ditto-core, ditto-audit
// ---------------------------------------------------------------------

/// Schedule `dag` with `kind`. Ditto goes through
/// `joint_optimize_with_stats` (what `DittoScheduler::schedule` runs, plus
/// its loop counters); NIMBLE through the `Scheduler` trait.
pub fn schedule(
    kind: SchedKind,
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
) -> (Schedule, JointStats) {
    if kind.is_ditto() {
        joint_optimize_with_stats(
            dag,
            model,
            rm,
            kind.objective(),
            &JointOptions::default(),
            &Recorder::disabled(),
        )
    } else {
        let schedule = NimbleScheduler::default().schedule(&SchedulingContext {
            dag,
            model,
            resources: rm,
            objective: kind.objective(),
        });
        (schedule, JointStats::default())
    }
}

/// `Schedule::validate`.
pub fn validate_schedule(schedule: &Schedule, dag: &JobDag) -> Result<(), String> {
    schedule.validate(dag)
}

/// `ditto_audit::audit`: the number of error findings and their rendering.
pub fn audit(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    schedule: &Schedule,
) -> (usize, String) {
    let report = ditto_audit(dag, model, rm, schedule);
    let errors = report.error_count();
    let text = if errors > 0 {
        report.render()
    } else {
        String::new()
    };
    (errors, text)
}

/// `ditto_obs::validate_chrome_trace`: events in an accepted trace.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    ditto::obs::validate_chrome_trace(json).map(|stats| stats.events)
}

/// `ditto_audit::check_trace` with default options: error findings.
pub fn race_check(trace: &TraceData) -> usize {
    check_trace(trace, &RaceOptions::default()).error_count()
}

// ---------------------------------------------------------------------
// ditto-exec: the local runtime
// ---------------------------------------------------------------------

/// What the benchmark reads off a `RunOutput`.
pub struct LocalRun {
    /// The job answer.
    pub result: Table,
    /// Per-medium byte accounting of this job's data plane.
    pub ledger: TransferLedger,
    /// Per-task records, sorted by (stage, task).
    pub tasks: Vec<TaskRecord>,
    /// Task attempts retried.
    pub retries: u64,
    /// External-read retries.
    pub storage_retries: u64,
}

/// `DataPlane::new(medium, servers)` + `LocalRuntime::try_run` (or
/// `try_run_journaled` when `session` is given).
pub fn run_local(
    plan: &QueryPlan,
    db: &Database,
    schedule: &Schedule,
    medium: Medium,
    servers: usize,
    session: Option<&mut JournalSession>,
    with_tasks: bool,
) -> Result<LocalRun, String> {
    let dataplane = DataPlane::new(medium, servers);
    let runtime = LocalRuntime::new();
    let out = match session {
        Some(s) => runtime.try_run_journaled(plan, db, schedule, &dataplane, s),
        None => runtime.try_run(plan, db, schedule, &dataplane),
    }
    .map_err(|e| e.to_string())?;
    Ok(LocalRun {
        tasks: if with_tasks {
            out.monitor.records()
        } else {
            Vec::new()
        },
        result: out.result,
        ledger: out.ledger,
        retries: out.retries,
        storage_retries: out.fault_stats.storage_retries,
    })
}

/// A data plane for the direct send/recv probes.
pub fn new_dataplane(medium: Medium, servers: usize) -> DataPlane {
    DataPlane::new(medium, servers)
}

/// `DataPlane::send_partition_sized`.
pub fn send_partition(
    dp: &DataPlane,
    edge: u32,
    from: u32,
    to: u32,
    src_server: usize,
    dst_server: usize,
    frame: Frame,
) -> Result<(), String> {
    let logical = frame.len() as u64;
    dp.send_partition_sized(edge, from, to, src_server, dst_server, frame, logical)
        .map_err(|e| e.to_string())
}

/// `DataPlane::recv_partition`; returns the frame length.
pub fn recv_partition(
    dp: &DataPlane,
    edge: u32,
    from: u32,
    to: u32,
    src_server: usize,
    dst_server: usize,
) -> Result<usize, String> {
    dp.recv_partition(
        edge,
        from,
        to,
        src_server,
        dst_server,
        Duration::from_secs(5),
    )
    .map(|b| b.len())
    .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// ditto-exec: the simulators and the journal
// ---------------------------------------------------------------------

/// Fault-free `simulate`: the schedule's JCT and cost.
pub fn simulate(dag: &JobDag, schedule: &Schedule, gt: &GroundTruth) -> JobMetrics {
    ditto_simulate(dag, schedule, gt).1
}

/// The seeded fault mix of the simulator workloads: 2 % task crashes,
/// 2 % stragglers at 4×, 2 % lost objects.
pub fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::from_rates(FaultRates {
        crash_prob: 0.02,
        straggler_prob: 0.02,
        straggler_slowdown: 4.0,
        loss_prob: 0.02,
        ..FaultRates::none(seed)
    })
}

/// [`fault_plan`] under a 2× compute drift.
pub fn drift_plan(seed: u64) -> FaultPlan {
    fault_plan(seed).with_drift(2.0)
}

/// `try_simulate_with_faults` (no journal) under the default recovery
/// policy — the denominator of the journal overhead ratio.
pub fn simulate_faults(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
) -> Result<(ExecutionTrace, JobMetrics), String> {
    try_simulate_with_faults(dag, schedule, gt, plan, &RecoveryPolicy::default(), None)
        .map_err(|e| e.to_string())
}

/// `try_simulate_with_faults_traced` onto `obs` — the recorder overhead
/// probe and the source of the race-check trace.
pub fn simulate_faults_recorded(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    obs: &Recorder,
) -> Result<JobMetrics, String> {
    try_simulate_with_faults_traced(
        dag,
        schedule,
        gt,
        plan,
        &RecoveryPolicy::default(),
        None,
        obs,
    )
    .map(|(_, m)| m)
    .map_err(|e| e.to_string())
}

/// A live recorder / a disabled one.
pub fn recorder(enabled: bool) -> Recorder {
    if enabled {
        Recorder::new()
    } else {
        Recorder::disabled()
    }
}

/// Finish a recorder into its trace: `(trace, events, drift events)`.
pub fn finish_recorder(obs: Recorder) -> (TraceData, usize, usize) {
    let data = obs.finish();
    let drift = data
        .events
        .iter()
        .filter(|e| e.name == "drift.detected")
        .count();
    let events = data.events.len() + data.spans.len();
    (data, events, drift)
}

/// A journaled simulator run's journal, checked.
pub struct JournalFacts {
    /// Records in the journal.
    pub records: u64,
    /// Durable bytes of the journal.
    pub bytes: u64,
}

/// A fresh write-ahead journal session, optionally armed to crash the
/// coordinator at record `crash_at`.
pub fn fresh_session(crash_at: Option<u64>) -> JournalSession {
    JournalSession::fresh(crash_at)
}

/// `JournalSession::resume` from a crashed session's durable bytes.
pub fn resume_session(crashed: &JournalSession) -> Result<JournalSession, String> {
    JournalSession::resume(crashed.durable_bytes()).map_err(|e| e.to_string())
}

/// `decode_journal` + `validate_journal` over a session's durable bytes:
/// must decode without a torn tail and validate clean.
pub fn check_journal(session: &JournalSession) -> Result<JournalFacts, String> {
    let decoded = decode_journal(session.durable_bytes()).map_err(|e| e.to_string())?;
    if let Some(torn) = decoded.torn {
        return Err(format!("journal has a torn tail: {torn:?}"));
    }
    let violations = validate_journal(&decoded.records);
    if !violations.is_empty() {
        return Err(format!("journal invalid: {violations:?}"));
    }
    Ok(JournalFacts {
        records: session.records_written(),
        bytes: session.durable_bytes().len() as u64,
    })
}

/// `try_simulate_with_faults_journaled` under the default recovery policy.
pub fn simulate_faults_journaled(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    session: &mut JournalSession,
) -> Result<(ExecutionTrace, JobMetrics), String> {
    try_simulate_with_faults_journaled(
        dag,
        schedule,
        gt,
        plan,
        &RecoveryPolicy::default(),
        None,
        &Recorder::disabled(),
        session,
    )
    .map_err(|e| e.to_string())
}

/// Outcome of one adaptive journaled run.
pub enum AdaptiveRun {
    /// Ran to completion.
    Done(Box<(ExecutionTrace, JobMetrics)>),
    /// The armed coordinator crash fired at this record.
    Crashed(u64),
}

/// `try_simulate_adaptive_journaled` under the default recovery policy
/// and adaptive configuration, replanning through `model`/`rm` for the
/// schedule's objective.
#[allow(clippy::too_many_arguments)]
pub fn simulate_adaptive_journaled(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    obs: &Recorder,
    session: &mut JournalSession,
) -> Result<AdaptiveRun, String> {
    let ctx = ReschedulingContext {
        model,
        resources: rm,
        objective,
        options: JointOptions::default(),
    };
    match try_simulate_adaptive_journaled(
        dag,
        schedule,
        gt,
        plan,
        &RecoveryPolicy::default(),
        &ctx,
        &AdaptiveConfig::default(),
        obs,
        session,
    ) {
        Ok(out) => Ok(AdaptiveRun::Done(Box::new(out))),
        Err(ExecError::CoordinatorCrash { at_record }) => Ok(AdaptiveRun::Crashed(at_record)),
        Err(e) => Err(e.to_string()),
    }
}
