//! The local runtime: physically execute a query plan under a schedule.
//!
//! This is the "execution engine atop SPRIGHT" of the paper's §5, scaled
//! to one machine: intermediate tables are encoded with the `ditto-sql`
//! codec and move through the `ditto-storage` [`DataPlane`] — the
//! zero-copy shared-memory bus when the schedule co-locates producer and
//! consumer, the external object store otherwise.
//!
//! Tasks run on one worker pool per run: `W = min(CPUs this thread may
//! use, largest DoP)` workers, of which the calling thread is one (it
//! runs tasks whenever it has no report to collect) and `W − 1` are
//! helpers in a single `thread::scope`. Stages run in topological order
//! with a barrier in between: the calling thread hands a stage's tasks to
//! the pool, collects every report, folds them, and only then starts the
//! next stage. A schedule slot is what the schedule places and accounts
//! (server, [`TaskRecord`], medium per edge) — not an OS thread. Any
//! `W ≥ 1` is deadlock-free: a task launches only after its inputs are
//! committed and neither sends nor reads ever block, so no task waits on
//! a sibling. A partition a reader does not find is therefore lost, not
//! late: the reader re-runs its producer (lineage re-execution) at once.
//!
//! Reports fold in task order whichever worker finished first, so the
//! answer, the monitor rows, the attempt log and the journal do not
//! depend on `W`. The barrier is the write-ahead point: a stage's
//! attempts and commits are journaled before the next stage launches.
//! (Launch-time overlap is a *timing* concern modeled by the simulator;
//! the runtime's job is correctness and byte accounting.)
//!
//! Communication patterns per edge kind:
//!
//! * **Shuffle** — each producer task hash-partitions its output by the
//!   stage's `output_key` into `d_dst` buckets and sends bucket `j` to
//!   consumer task `j` (keys co-partitioned across producers);
//! * **Gather** — each producer task forwards its whole output to one
//!   consumer (`producer % d_dst`), other consumers receive empty markers
//!   so schemas always propagate;
//! * **AllGather** — every consumer task receives a full copy.

use crate::error::ExecError;
use crate::faults::{
    AttemptOutcome, AttemptRecord, FaultPlan, FaultStats, ObjectFaultKind, RecoveryPolicy,
};
use crate::journal::{EngineKind, JournalSession, JOURNAL_SEED};
use ditto_cluster::{RuntimeMonitor, ServerId, TaskRecord};
use ditto_core::Schedule;
use ditto_dag::{EdgeKind, JobDag, StageId};
use ditto_sql::{Database, QueryPlan, StageOp, Table};
use ditto_storage::{partition_key, DataPlane, StoreError, TransferLedger};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// What one task hands the stage barrier, which folds the reports in task
/// order — a task shares no mutable state with its siblings.
struct TaskReport {
    /// The output table, kept for final-stage tasks only.
    partial: Option<Table>,
    /// The winning attempt epoch.
    epoch: u32,
    /// Checksum of the encoded output: names the task's object commit.
    value: u64,
    record: TaskRecord,
    /// Failed attempts plus the completed one; empty when un-faulted.
    attempts: Vec<AttemptRecord>,
    stats: FaultStats,
    retries: u64,
}

type TaskResult = Result<TaskReport, ExecError>;

/// Result of a local run.
#[derive(Debug)]
pub struct RunOutput {
    /// The job answer (final-stage partials combined).
    pub result: Table,
    /// Wall-clock duration of the run, seconds.
    pub wall_seconds: f64,
    /// Data-plane accounting (wire and logical bytes per medium).
    pub ledger: TransferLedger,
    /// Per-task runtime records.
    pub monitor: Arc<RuntimeMonitor>,
    /// Task attempts that crashed and were retried (fault injection).
    pub retries: u64,
    /// Attempt-level history of every faulted task (failed attempts plus
    /// their final completed one), ordered by (stage, task, attempt);
    /// empty for fault-free runs.
    pub attempts: Vec<AttemptRecord>,
    /// Aggregated fault and recovery accounting.
    pub fault_stats: FaultStats,
}

/// The local executor: one worker pool per run, sized to the CPUs the
/// calling thread may use and capped at the schedule's largest DoP, fed
/// one stage at a time in topological order (see the module docs).
/// Everything it reports — answer, monitor rows, attempt log, journal —
/// is folded in (stage, task) order and does not depend on the pool size.
///
/// Fault injection follows the shared [`FaultPlan`] vocabulary. An
/// injected crash happens after the task's evaluation but *before it
/// publishes any output*, so the retry is idempotent and downstream
/// consumers only ever see one copy — the all-or-nothing output contract
/// real serverless shuffle layers rely on. Injected stragglers slow a
/// task down; with [`RecoveryPolicy::speculation`] enabled the runtime
/// launches a clean backup copy whose output supersedes the straggler.
/// Object faults are applied by the coordinator between stages and
/// healed by the reader that finds them.
/// Whole-server failures are a simulation-only concern (threads on one
/// machine don't lose servers) and are ignored here.
#[derive(Debug, Clone, Default)]
pub struct LocalRuntime {
    /// Fault injection plan (empty = no faults).
    pub faults: FaultPlan,
    /// Reaction to injected faults. Backoff waits are capped at 5 ms of
    /// wall time so fault tests stay fast.
    pub recovery: RecoveryPolicy,
}

impl LocalRuntime {
    /// A runtime with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute `plan` under `schedule`, moving intermediates through
    /// `dataplane`.
    ///
    /// # Panics
    /// Panics on any [`ExecError`] — thin wrapper over [`Self::try_run`]
    /// for callers that treat these conditions as bugs.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        db: &Database,
        schedule: &Schedule,
        dataplane: &DataPlane,
    ) -> RunOutput {
        self.try_run(plan, db, schedule, dataplane)
            .unwrap_or_else(|err| panic!("{}: {err}", plan.name))
    }

    /// Fallible execution: every failure mode — invalid schedule, missing
    /// input, exhausted retries, worker panic — surfaces as a typed
    /// [`ExecError`] instead of a panic.
    pub fn try_run(
        &self,
        plan: &QueryPlan,
        db: &Database,
        schedule: &Schedule,
        dataplane: &DataPlane,
    ) -> Result<RunOutput, ExecError> {
        self.try_run_inner(plan, db, schedule, dataplane, None, pool_size(schedule))
    }

    /// [`Self::try_run`] with a control-plane write-ahead journal: job
    /// admission and the schedule commit journal before any task starts,
    /// and each stage barrier journals its tasks' faulted-attempt history
    /// plus an object commit per task (`value` = [`checksum64`] of the
    /// task's encoded output) *before* the next stage launches. Physical
    /// re-execution after a coordinator crash is at-least-once; the
    /// session's [`CommitLedger`] deduplicates re-delivered commits by
    /// `(stage, task, attempt_epoch)` — and a same-epoch commit whose
    /// checksum differs from the journaled one fails the run rather than
    /// publish a second version of an object.
    ///
    /// [`checksum64`]: ditto_storage::checksum64
    /// [`CommitLedger`]: ditto_storage::CommitLedger
    pub fn try_run_journaled(
        &self,
        plan: &QueryPlan,
        db: &Database,
        schedule: &Schedule,
        dataplane: &DataPlane,
        session: &mut JournalSession,
    ) -> Result<RunOutput, ExecError> {
        self.try_run_inner(
            plan,
            db,
            schedule,
            dataplane,
            Some(session),
            pool_size(schedule),
        )
    }

    /// The run on a pool of `workers` (≥ 1; the calling thread is one of
    /// them). Crate-private so tests can pin the pool size.
    pub(crate) fn try_run_inner(
        &self,
        plan: &QueryPlan,
        db: &Database,
        schedule: &Schedule,
        dataplane: &DataPlane,
        mut session: Option<&mut JournalSession>,
        workers: usize,
    ) -> Result<RunOutput, ExecError> {
        let dag = &plan.dag;
        schedule.validate(dag).map_err(ExecError::InvalidSchedule)?;
        if let Some(j) = session.as_deref_mut() {
            j.begin(dag, EngineKind::Runner, schedule, &ditto_obs::Recorder::disabled())?;
        }
        let cx = &TaskCtx {
            plan,
            db,
            schedule,
            dataplane,
            job_start: Instant::now(),
        };
        let monitor = RuntimeMonitor::new();
        let mut retries = 0u64;
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut fault_stats = FaultStats::default();
        let mut faulted_objects = BTreeSet::new();
        let mut final_partials: Vec<Table> = Vec::new();

        let order = dag.topo_order().map_err(|_| ExecError::CyclicDag)?;
        let pool = Pool::default();
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&pool);
            for _ in 1..workers {
                scope.spawn(|| pool.help(self, cx));
            }
            for s in order {
                for (key, kind) in
                    object_fault_targets(&self.faults, dag, schedule, s, &mut faulted_objects)
                {
                    // Every producer of `s` has passed its barrier, so the
                    // object is stored; a missing one still lands as a loss.
                    let store = dataplane.external_store();
                    if kind == ObjectFaultKind::Corruption && store.tamper(&key) {
                        fault_stats.object_corruptions += 1;
                    } else {
                        store.delete(&key);
                        fault_stats.object_losses += 1;
                    }
                }
                let reports = pool.run_stage(self, cx, s)?;
                // The barrier folds the reports in task order; journaled, it
                // is also the write-ahead point: this stage's attempts and
                // commits are durable before the next stage launches.
                let mut partials = Vec::new();
                for (t, r) in reports.into_iter().enumerate() {
                    monitor.record(r.record);
                    if let Some(j) = session.as_deref_mut() {
                        j.record_physical_task(s.0, t as u32, r.epoch, r.value, &r.attempts)?;
                    }
                    attempts.extend(r.attempts);
                    fault_stats.absorb(&r.stats);
                    retries += r.retries;
                    partials.extend(r.partial);
                }
                if dag.out_degree(s) == 0 {
                    final_partials = partials;
                }
            }
            Ok::<_, ExecError>(())
        })?;
        Ok(RunOutput {
            result: plan.combine_final(&final_partials),
            wall_seconds: cx.job_start.elapsed().as_secs_f64(),
            ledger: dataplane.ledger(),
            monitor: Arc::new(monitor),
            retries,
            attempts,
            fault_stats,
        })
    }

    /// Run one handed-out task. A panic inside it becomes
    /// [`ExecError::TaskPanicked`] on whichever worker ran it, so no worker
    /// dies and the run still fails with a typed error.
    fn run_job(&self, cx: &TaskCtx<'_>, job: Job) -> TaskResult {
        catch_unwind(AssertUnwindSafe(|| self.run_task(cx, job.stage, job.task)))
        .unwrap_or(Err(ExecError::TaskPanicked { stage: job.stage.0 }))
    }

    /// One task: gather inputs, evaluate the stage operator (under fault
    /// injection and recovery), scatter outputs, and report — the output
    /// table for final-stage tasks, the winning attempt epoch, the commit
    /// checksum of the encoded output (the journal's object-commit value)
    /// and everything the run accounts per task.
    fn run_task(&self, cx: &TaskCtx<'_>, s: StageId, t: u32) -> Result<TaskReport, ExecError> {
        let (plan, db, job_start) = (cx.plan, cx.db, cx.job_start);
        let launch = job_start.elapsed().as_secs_f64();
        let server = ServerId(cx.server(s, t) as u32);
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut stats = FaultStats::default();
        let mut retries = 0u64;

        // ---- gather inputs (healing injected object faults) ----
        let read_t0 = Instant::now();
        let (inputs, bytes_read) = self.gather_inputs(cx, s, t, Some(&mut stats))?;
        let read_secs = read_t0.elapsed().as_secs_f64();

        // Nominal function footprint for wasted-work billing, mirroring
        // the ground-truth memory model (base footprint + bytes handled).
        let mem_gb = 0.125 + bytes_read as f64 * 2.0e-9;
        // A failed attempt: one history row, its wasted work billed.
        let mut fail = |attempt: u32, start: f64, outcome: AttemptOutcome, backoff: f64| {
            let end = job_start.elapsed().as_secs_f64();
            let wasted_gb_s = mem_gb * (end - start);
            attempts.push(AttemptRecord {
                stage: s.0,
                task: t,
                attempt,
                server,
                start,
                end,
                outcome,
                wasted_gb_s,
                speculative: false,
            });
            stats.extra_attempts += 1;
            stats.wasted_gb_s += wasted_gb_s;
            stats.recovery_delay_s += (end - start) + backoff;
        };

        // ---- evaluate (crash-and-retry fault injection) ----
        let scan_slice = cx.scan_slice(s, t);
        let compute_t0 = Instant::now();
        let mut attempt = 0u32;
        let mut attempt_start;
        let mut spec_won = false;
        let mut out = loop {
            attempt_start = job_start.elapsed().as_secs_f64();
            let attempt_out = plan.execute_stage(s, db, &inputs, scan_slice.as_ref());
            if self.faults.crash_point(s, t, attempt).is_some() {
                // The attempt crashed before publishing: discard its
                // output, back off, re-execute. The physical wait is
                // capped so fault tests stay fast; the modeled backoff
                // lives in the simulator.
                drop(attempt_out);
                let backoff = self.recovery.backoff(attempt).min(0.005);
                fail(attempt, attempt_start, AttemptOutcome::Crashed, backoff);
                retries += 1;
                if attempt >= self.recovery.max_retries {
                    return Err(ExecError::RetriesExhausted {
                        stage: s.0,
                        task: t,
                        attempts: attempt + 1,
                    });
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "attempt loop exits via RecoveryPolicy::max_retries (RetriesExhausted); backoff capped at 5 ms per wait"
                )]
                std::thread::sleep(Duration::from_secs_f64(backoff));
                attempt += 1;
                continue;
            }
            break attempt_out;
        };

        // ---- injected straggler + speculative re-execution ----
        let slow = self.faults.slowdown(s, t);
        if slow > 1.0 {
            // Stall the attempt observably (bounded wall time).
            #[expect(
                clippy::disallowed_methods,
                reason = "one-shot injected-straggler stall, not a loop; wall time capped at 10 ms"
            )]
            std::thread::sleep(Duration::from_secs_f64(((slow - 1.0) * 1e-3).min(0.01)));
            if self.recovery.speculation {
                // A clean backup copy supersedes the stalled original —
                // identical output (evaluation is deterministic), so the
                // handoff is transparent to downstream consumers.
                fail(attempt, attempt_start, AttemptOutcome::Superseded, 0.0);
                stats.speculative_copies += 1;
                attempt += 1;
                attempt_start = job_start.elapsed().as_secs_f64();
                out = plan.execute_stage(s, db, &inputs, scan_slice.as_ref());
                spec_won = true;
            }
        }
        let compute_secs = compute_t0.elapsed().as_secs_f64();

        // ---- scatter outputs ----
        let write_t0 = Instant::now();
        let bytes_written = self.scatter_outputs(cx, s, t, &out, false)?;
        let write_secs = write_t0.elapsed().as_secs_f64();

        let end = job_start.elapsed().as_secs_f64();
        if !attempts.is_empty() {
            // Close the attempt sequence with the winning execution.
            attempts.push(AttemptRecord {
                stage: s.0,
                task: t,
                attempt,
                server,
                start: attempt_start,
                end,
                outcome: AttemptOutcome::Completed,
                wasted_gb_s: 0.0,
                speculative: spec_won,
            });
        }

        Ok(TaskReport {
            // Evaluation is deterministic, so the encoded output — and its
            // commit checksum — is identical across re-executions: the
            // journal's exactly-once conflict check has teeth.
            value: ditto_storage::checksum64(&out.encode(), JOURNAL_SEED),
            partial: (plan.dag.out_degree(s) == 0).then_some(out),
            epoch: attempt,
            record: TaskRecord {
                stage: s.0,
                task: t,
                server,
                start: launch,
                end,
                steps: ditto_obs::StepTimings::new(0.0, read_secs, compute_secs, write_secs),
                bytes_read,
                bytes_written,
            },
            attempts,
            stats,
            retries,
        })
    }

    /// Gather every input partition of task `(s, t)`.
    ///
    /// With `heal` set this is the first-read path: a read that comes back
    /// lost or corrupt (an object fault the coordinator applied) triggers
    /// a bounded *one-level* lineage re-execution of the producing task,
    /// counted into `heal`, before the read is retried — the physical half
    /// of the escalation ladder. With `heal` unset (inside a re-execution)
    /// failures surface directly: deeper loss escalates as a typed error
    /// instead of recursing.
    ///
    /// Returns the inputs by upstream stage name and the bytes read.
    fn gather_inputs(
        &self,
        cx: &TaskCtx<'_>,
        s: StageId,
        t: u32,
        mut heal: Option<&mut FaultStats>,
    ) -> Result<(BTreeMap<String, Table>, u64), ExecError> {
        let dag = &cx.plan.dag;
        let my_server = cx.server(s, t);
        let mut inputs: BTreeMap<String, Table> = BTreeMap::new();
        let mut bytes_read = 0u64;
        let missing = |detail: String| ExecError::MissingInput {
            stage: s.0,
            task: t,
            detail,
        };
        for e in dag.in_edges(s) {
            let du = cx.schedule.dop[e.src.index()];
            let mut parts = Vec::new();
            for ut in 0..du {
                let src_server = cx.server(e.src, ut);
                let external = src_server != my_server;
                let recv = || {
                    cx.dataplane.recv_partition(
                        e.id.0,
                        ut,
                        t,
                        src_server,
                        my_server,
                        Duration::ZERO,
                    )
                };
                let data = match (recv(), heal.as_deref_mut()) {
                    (Ok(d), _) => d,
                    (
                        Err(err @ (StoreError::NotFound(_) | StoreError::Corrupted { .. })),
                        Some(stats),
                    ) if external => {
                        // The object is gone or fails verification; re-run
                        // the producer this edge reads from, then read again.
                        self.reexec_producer(cx, e.src, ut).map_err(|e2| {
                            missing(format!(
                                "{}: edge {}: {err}; lineage re-execution failed: {e2}",
                                cx.plan.name, e.id
                            ))
                        })?;
                        stats.lineage_reexecs += 1;
                        stats.extra_attempts += 1;
                        recv().map_err(|err| {
                            missing(format!(
                                "{}: edge {}: still unreadable after lineage re-execution: {err}",
                                cx.plan.name, e.id
                            ))
                        })?
                    }
                    (Err(err), _) => {
                        return Err(missing(format!("{}: edge {}: {err}", cx.plan.name, e.id)))
                    }
                };
                bytes_read += data.len() as u64;
                parts.push(Table::decode(data));
            }
            let merged = Table::concat(&parts).ok_or_else(|| {
                missing(format!(
                    "{}: edge {} has no upstream tasks",
                    cx.plan.name, e.id
                ))
            })?;
            inputs.insert(dag.stage(e.src).name.clone(), merged);
        }
        Ok((inputs, bytes_read))
    }

    /// Bounded lineage re-execution: re-run producer task `(src, ut)` and
    /// republish its *external* output partitions (idempotent puts; the
    /// regenerated bytes are identical because evaluation is
    /// deterministic). One level only — the producer's own inputs must
    /// still be readable. External inputs persist in the object store;
    /// consumed shared-memory slots cannot be replayed, so recovery of a
    /// producer with co-located inputs escalates at once as a typed error
    /// (the simulator models the general case).
    fn reexec_producer(&self, cx: &TaskCtx<'_>, src: StageId, ut: u32) -> Result<(), ExecError> {
        let (inputs, _) = self.gather_inputs(cx, src, ut, None)?;
        let scan_slice = cx.scan_slice(src, ut);
        let out = cx.plan.execute_stage(src, cx.db, &inputs, scan_slice.as_ref());
        self.scatter_outputs(cx, src, ut, &out, true)?;
        Ok(())
    }

    /// Scatter task `(s, t)`'s output across its out-edges. With
    /// `external_only` (the lineage re-execution path) shared-memory sends
    /// are skipped: only externally stored objects can have been lost, and
    /// the original consumers already drained their bus slots.
    fn scatter_outputs(
        &self,
        cx: &TaskCtx<'_>,
        s: StageId,
        t: u32,
        out: &Table,
        external_only: bool,
    ) -> Result<u64, ExecError> {
        let dag = &cx.plan.dag;
        let my_server = cx.server(s, t);
        let mut bytes_written = 0u64;
        for e in dag.out_edges(s) {
            let dv = cx.schedule.dop[e.dst.index()];
            // Wire frames per consumer: (encoded bytes, logical table bytes).
            let frames: Vec<(bytes::Bytes, u64)> = match e.kind {
                EdgeKind::Shuffle => {
                    let key = cx.plan.stages[s.index()]
                        .output_key
                        .as_deref()
                        .ok_or(ExecError::MissingOutputKey { stage: s.0 })?;
                    // Fused partition+encode: hashes computed once, bytes
                    // written straight into each bucket's frame — the
                    // per-bucket Tables are never materialized.
                    out.encode_partitions(key, dv as usize)
                        .into_iter()
                        .map(|p| (p.data, p.logical_bytes))
                        .collect()
                }
                EdgeKind::Gather => {
                    // Full output to consumer (t % dv); empty markers keep
                    // schemas flowing to the rest. Encode each frame once
                    // and hand out cheap refcounted clones.
                    let target = t % dv;
                    let full = (out.encode(), out.byte_size());
                    let empty_table = Table::empty(out.schema.clone());
                    let empty = (empty_table.encode(), 0u64);
                    (0..dv)
                        .map(|vt| if vt == target { full.clone() } else { empty.clone() })
                        .collect()
                }
                EdgeKind::AllGather => {
                    let full = (out.encode(), out.byte_size());
                    (0..dv).map(|_| full.clone()).collect()
                }
            };
            for (vt, (data, logical)) in frames.into_iter().enumerate() {
                let dst_server = cx.server(e.dst, vt as u32);
                if external_only && dst_server == my_server {
                    continue;
                }
                bytes_written += data.len() as u64;
                cx.dataplane
                    .send_partition_sized(
                        e.id.0, t, vt as u32, my_server, dst_server, data, logical,
                    )
                    .map_err(|err| {
                        ExecError::DataPlane(format!(
                            "{}: stage {s} task {t}: {err}",
                            cx.plan.name
                        ))
                    })?;
            }
        }
        Ok(bytes_written)
    }
}

/// `W`: the CPUs the calling thread may use, capped at the schedule's
/// largest DoP — with a barrier between stages no more tasks are ever
/// ready at once. Asked once per run, and not at all when every stage
/// has one task.
fn pool_size(schedule: &Schedule) -> usize {
    let widest = schedule.dop.iter().copied().max().unwrap_or(1) as usize;
    if widest <= 1 {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(widest))
}

/// One task handed to a worker.
struct Job {
    stage: StageId,
    task: u32,
}

/// The running stage's tasks not yet handed out: `next..end`.
struct StageTasks {
    stage: StageId,
    next: u32,
    end: u32,
}

/// What the calling thread and the helpers share.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
    /// Idle helpers wait here for a task or the stop.
    work: Condvar,
    /// The calling thread waits here for a helper's report.
    done: Condvar,
}

#[derive(Default)]
struct PoolState {
    /// The running stage's tasks; `None` once the last is handed out.
    tasks: Option<StageTasks>,
    /// Helper reports of the running stage not yet collected, by task.
    finished: Vec<(u32, TaskResult)>,
    /// Helpers parked on `work`.
    idle: usize,
    /// The calling thread is parked on `done`.
    coordinator_waiting: bool,
    /// The run is over; helpers exit at their next look.
    shutdown: bool,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Tasks run outside the lock and every update completes before it
        // is released, so a poisoned state is still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Worker 0: hand stage `s`'s tasks to the pool, run them whenever no
    /// helper report waits to be collected, and return every report in
    /// task order once all are in — the first failure fails the run.
    fn run_stage(
        &self,
        rt: &LocalRuntime,
        cx: &TaskCtx<'_>,
        s: StageId,
    ) -> Result<Vec<TaskReport>, ExecError> {
        let dop = cx.schedule.dop[s.index()];
        let mut reports: Vec<Option<TaskResult>> = (0..dop).map(|_| None).collect();
        let mut outstanding = dop;
        let mut st = self.lock();
        st.tasks = Some(StageTasks {
            stage: s,
            next: 0,
            end: dop,
        });
        if st.idle > 0 {
            self.work.notify_all();
        }
        while outstanding > 0 {
            if st.finished.is_empty() {
                if let Some(job) = st.pop() {
                    drop(st);
                    let t = job.task as usize;
                    reports[t] = Some(rt.run_job(cx, job));
                    outstanding -= 1;
                    st = self.lock();
                    continue;
                }
                // Every task is handed out and a report is still missing,
                // so a helper is running that task: its report will arrive.
                st.coordinator_waiting = true;
                while st.finished.is_empty() {
                    st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                st.coordinator_waiting = false;
            }
            for (t, report) in st.finished.drain(..) {
                reports[t as usize] = Some(report);
                outstanding -= 1;
            }
        }
        drop(st);
        reports.into_iter().flatten().collect()
    }

    /// A helper worker: run handed-out tasks and return their reports
    /// until the run stops the pool.
    fn help(&self, rt: &LocalRuntime, cx: &TaskCtx<'_>) {
        let mut st = self.lock();
        while !st.shutdown {
            let Some(job) = st.pop() else {
                st.idle += 1;
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.idle -= 1;
                continue;
            };
            drop(st);
            let t = job.task;
            let report = rt.run_job(cx, job);
            st = self.lock();
            st.finished.push((t, report));
            if st.coordinator_waiting {
                self.done.notify_one();
            }
        }
    }
}

impl PoolState {
    /// The running stage's next task.
    fn pop(&mut self) -> Option<Job> {
        let tasks = self.tasks.as_mut()?;
        let job = Job {
            stage: tasks.stage,
            task: tasks.next,
        };
        tasks.next += 1;
        if tasks.next == tasks.end {
            self.tasks = None;
        }
        Some(job)
    }
}

/// Stops the pool when the calling thread leaves the scope by any path,
/// unwinding included, so the scope's join never waits on a parked helper.
struct StopOnDrop<'p>(&'p Pool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.shutdown = true;
        if st.idle > 0 {
            self.0.work.notify_all();
        }
    }
}

/// The stored partitions the plan's object faults hit before consumer
/// stage `s` launches: for each in-edge and each producer task with a
/// planned fault not yet in `applied`, the partition read by the
/// lowest-numbered task of `s` on another server. First reader pays, each
/// faulted producer is applied (and later healed) once per run — decided
/// by (plan, schedule), not by which reader thread arrives first. A
/// producer co-located with every task of `s` has no stored object here
/// and is left for a later consumer stage.
fn object_fault_targets(
    faults: &FaultPlan,
    dag: &JobDag,
    schedule: &Schedule,
    s: StageId,
    applied: &mut BTreeSet<(u32, u32)>,
) -> Vec<(String, ObjectFaultKind)> {
    let mut targets = Vec::new();
    let readers = &schedule.placement[s.index()];
    for e in dag.in_edges(s) {
        let producers = &schedule.placement[e.src.index()];
        for ut in 0..schedule.dop[e.src.index()] {
            let Some(kind) = faults.object_fault(e.src, ut) else {
                continue;
            };
            let first_external = (0..schedule.dop[s.index()])
                .find(|&t| readers.server_of_task(t) != producers.server_of_task(ut));
            if let Some(t) = first_external {
                if applied.insert((e.src.0, ut)) {
                    targets.push((partition_key(e.id.0, ut, t), kind));
                }
            }
        }
    }
    targets
}

/// What is constant for one run, shared by every task and data-path helper.
struct TaskCtx<'a> {
    plan: &'a QueryPlan,
    db: &'a Database,
    schedule: &'a Schedule,
    dataplane: &'a DataPlane,
    job_start: Instant,
}

impl TaskCtx<'_> {
    /// Index of the server task `(s, t)` is placed on.
    fn server(&self, s: StageId, t: u32) -> usize {
        self.schedule.placement[s.index()].server_of_task(t).index()
    }

    /// Task `(s, t)`'s slice of scan stage `s`'s base table — the rows of
    /// `split(dop)[t]`, cut on its own in O(columns) and sharing the
    /// `Database`'s buffers, so no task copies a base table. `None` for
    /// stages that do not scan.
    fn scan_slice(&self, s: StageId, t: u32) -> Option<Table> {
        let d = self.schedule.dop[s.index()] as usize;
        match &self.plan.stages[s.index()].op {
            StageOp::Scan { table, .. } => Some(self.db.table(table).split_part(d, t as usize)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_cluster::ResourceManager;
    use ditto_core::baselines::{EvenSplitScheduler, NimbleScheduler};
    use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
    use ditto_sql::queries::{q1, q95, Query};
    use ditto_sql::ScaleConfig;
    use ditto_storage::Medium;
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn run_query(
        q: Query,
        scheduler: &dyn Scheduler,
        free: &[u32],
        external: Medium,
    ) -> (RunOutput, QueryPlan, Database) {
        let db = Database::generate(ScaleConfig::with_sf(0.3));
        let plan = q.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = scheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let dataplane = DataPlane::new(external, free.len());
        let out = LocalRuntime::new().execute(&plan, &db, &schedule, &dataplane);
        (out, plan, db)
    }

    #[test]
    fn q95_distributed_matches_reference() {
        let (out, _, db) = run_query(
            Query::Q95,
            &EvenSplitScheduler,
            &[8, 8, 8, 8],
            Medium::S3,
        );
        let (n, cost, profit) = q95::reference(&db);
        let (gn, gc, gp) = q95::result_triple(&out.result);
        assert_eq!(gn, n);
        assert!((gc - cost).abs() < 1e-6 * cost.abs().max(1.0));
        assert!((gp - profit).abs() < 1e-6 * profit.abs().max(1.0));
        assert!(out.wall_seconds > 0.0);
        // One record per task across all 9 stages.
        let recs = out.monitor.records();
        let stages_seen: std::collections::HashSet<u32> = recs.iter().map(|r| r.stage).collect();
        assert_eq!(stages_seen.len(), 9, "all 9 stages executed");
        assert!(recs.len() >= 9);
    }

    #[test]
    fn q1_distributed_matches_reference_under_ditto_schedule() {
        let (out, _, db) = run_query(Query::Q1, &DittoScheduler::new(), &[16, 8, 8], Medium::S3);
        let expected = q1::reference(&db);
        let mut got = q1::result_customers(&out.result);
        got.sort_unstable();
        let mut exp = expected;
        exp.sort_unstable();
        assert_eq!(got, exp);
    }

    #[test]
    fn nimble_schedule_gives_same_answer_as_ditto() {
        let (a, _, _) = run_query(Query::Q95, &DittoScheduler::new(), &[24, 12, 8], Medium::S3);
        let (b, _, _) = run_query(
            Query::Q95,
            &NimbleScheduler::default(),
            &[24, 12, 8],
            Medium::S3,
        );
        // Equal up to float summation order (tasks sum partials in
        // different groupings under different schedules).
        let (an, ac, ap) = q95::result_triple(&a.result);
        let (bn, bc, bp) = q95::result_triple(&b.result);
        assert_eq!(an, bn, "answers are schedule-independent");
        assert!((ac - bc).abs() < 1e-6 * ac.abs().max(1.0));
        assert!((ap - bp).abs() < 1e-6 * ap.abs().max(1.0));
    }

    #[test]
    fn colocated_schedule_uses_shared_memory() {
        // Ditto on a roomy cluster groups stages → shared-memory traffic.
        let (out, _, _) = run_query(Query::Q95, &DittoScheduler::new(), &[96, 96], Medium::S3);
        assert!(
            out.ledger.shared_memory.transfers > 0,
            "expected zero-copy transfers, ledger: {:?}",
            out.ledger
        );
    }

    #[test]
    fn nimble_never_uses_shared_memory_deliberately() {
        let (out, _, _) = run_query(
            Query::Q95,
            &NimbleScheduler::default(),
            &[96, 96],
            Medium::S3,
        );
        // Random placement may co-locate individual task pairs, but the
        // schedule declares no colocation, so the data plane only routes
        // via shared memory when src/dst servers coincide by chance. With
        // 2 servers roughly half the traffic lands local; what matters is
        // external traffic exists at all (Ditto above can make it ~zero).
        assert!(out.ledger.s3.transfers > 0);
    }

    #[test]
    fn fault_injection_retries_and_stays_correct() {
        let db = Database::generate(ScaleConfig::with_sf(0.3));
        let plan = Query::Q95.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let free = vec![8u32, 8];
        let rm = ResourceManager::from_free_slots(free.clone());
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let dataplane = DataPlane::new(Medium::S3, free.len());
        let runtime = LocalRuntime {
            faults: FaultPlan::with_random_crashes(0.3, 3),
            recovery: RecoveryPolicy {
                max_retries: 8,
                ..RecoveryPolicy::retry_only()
            },
        };
        let out = runtime.execute(&plan, &db, &schedule, &dataplane);
        assert!(out.retries > 0, "30% failure rate must trigger retries");
        // Attempt records mirror the retry counter and bill wasted work.
        let crashed = out
            .attempts
            .iter()
            .filter(|a| a.outcome == AttemptOutcome::Crashed)
            .count() as u64;
        assert_eq!(crashed, out.retries);
        assert!(out.fault_stats.wasted_gb_s > 0.0);
        assert_eq!(out.fault_stats.extra_attempts as u64, out.retries);
        // The answer is unaffected by crashes.
        let (n, c, p) = q95::reference(&db);
        let (gn, gc, gp) = q95::result_triple(&out.result);
        assert_eq!(gn, n);
        assert!((gc - c).abs() < 1e-6 * c.abs().max(1.0));
        assert!((gp - p).abs() < 1e-6 * p.abs().max(1.0));
    }

    #[test]
    fn fault_injection_deterministic_per_seed() {
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let free = vec![8u32];
        let rm = ResourceManager::from_free_slots(free.clone());
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let run = |seed: u64| {
            let dataplane = DataPlane::new(Medium::S3, free.len());
            LocalRuntime {
                faults: FaultPlan::with_random_crashes(0.5, seed),
                recovery: RecoveryPolicy {
                    max_retries: 32,
                    ..RecoveryPolicy::retry_only()
                },
            }
            .execute(&plan, &db, &schedule, &dataplane)
            .retries
        };
        assert_eq!(run(3), run(3), "same seed, same crash pattern");
    }

    #[test]
    fn explicit_faults_leave_answer_byte_identical() {
        use crate::faults::FaultEvent;
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let free = vec![8u32, 8];
        let rm = ResourceManager::from_free_slots(free.clone());
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let clean = LocalRuntime::new()
            .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, free.len()))
            .unwrap();
        assert!(clean.attempts.is_empty(), "fault-free run records no attempts");
        // One crash + one straggler, recovered under the default policy.
        let out = LocalRuntime {
            faults: FaultPlan::from_events(vec![
                FaultEvent::TaskCrash {
                    stage: StageId(0),
                    task: 0,
                    attempt: 0,
                    at_fraction: 0.5,
                },
                FaultEvent::Straggler {
                    stage: StageId(1),
                    task: 0,
                    slowdown: 5.0,
                },
            ]),
            recovery: RecoveryPolicy::default(),
        }
        .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, free.len()))
        .unwrap();
        assert_eq!(
            out.result.encode(),
            clean.result.encode(),
            "recovered run must produce the exact same final table"
        );
        let extra = out
            .attempts
            .iter()
            .filter(|a| a.outcome != AttemptOutcome::Completed)
            .count();
        assert!(extra >= 2, "crash + superseded straggler, got {extra}");
        assert!(out.attempts.iter().any(|a| a.outcome == AttemptOutcome::Crashed));
        assert!(out
            .attempts
            .iter()
            .any(|a| a.outcome == AttemptOutcome::Superseded));
        assert!(out.fault_stats.wasted_gb_s > 0.0, "wasted work is billed");
        assert_eq!(out.fault_stats.speculative_copies, 1);
    }

    #[test]
    fn object_loss_and_corruption_healed_by_lineage_reexecution() {
        use crate::faults::FaultEvent;
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let free = vec![8u32, 8];
        let rm = ResourceManager::from_free_slots(free.clone());
        let mut schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        // EvenSplit packs Q1's whole prefix (stages 0–3) onto server 0, so
        // the scan's shuffle partitions never leave shared memory and an
        // injected object fault would have nothing to hit. Move the scan's
        // consumer to the other server: edge 0→1 now rides the external
        // object store, and stage 0 — a scan — is exactly the kind of
        // producer lineage re-execution can regenerate from base tables.
        schedule.placement[1] = ditto_core::TaskPlacement::Single(ditto_cluster::ServerId(1));
        let clean = LocalRuntime::new()
            .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, free.len()))
            .unwrap();
        // Lose one scan task's stored output and corrupt another's: the
        // first consumer's read detects each (not-found / checksum
        // mismatch), re-executes the producing task the edge names, and
        // the job completes with the exact same answer.
        let dataplane = DataPlane::new(Medium::S3, free.len());
        let out = LocalRuntime {
            faults: FaultPlan::from_events(vec![
                FaultEvent::ObjectLoss { stage: StageId(0), task: 0 },
                FaultEvent::ObjectCorruption { stage: StageId(0), task: 1 },
            ]),
            recovery: RecoveryPolicy::default(),
        }
        .try_run(&plan, &db, &schedule, &dataplane)
        .unwrap();
        assert_eq!(
            out.result.encode(),
            clean.result.encode(),
            "healed run must produce the exact same final table"
        );
        assert_eq!(out.fault_stats.object_losses, 1);
        assert_eq!(out.fault_stats.object_corruptions, 1);
        assert_eq!(out.fault_stats.lineage_reexecs, 2);
        assert_eq!(
            out.fault_stats.storage_retries, 0,
            "a lost object is re-executed at once, never re-read"
        );
    }

    #[test]
    fn retries_exhausted_is_a_typed_error() {
        use crate::faults::FaultEvent;
        let db = Database::generate(ScaleConfig::with_sf(0.1));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let events = (0..3)
            .map(|a| FaultEvent::TaskCrash {
                stage: StageId(0),
                task: 0,
                attempt: a,
                at_fraction: 0.5,
            })
            .collect();
        let err = LocalRuntime {
            faults: FaultPlan::from_events(events),
            recovery: RecoveryPolicy {
                max_retries: 2,
                ..RecoveryPolicy::retry_only()
            },
        }
        .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 1))
        .unwrap_err();
        assert_eq!(
            err,
            crate::error::ExecError::RetriesExhausted {
                stage: 0,
                task: 0,
                attempts: 3
            }
        );
    }

    #[test]
    fn journaled_run_commits_exactly_once_across_a_crash() {
        use crate::journal::{decode_journal, validate_journal, JournalRecord};
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let free = vec![8u32, 8];
        let rm = ResourceManager::from_free_slots(free.clone());
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let runtime = LocalRuntime {
            faults: FaultPlan::from_events(vec![crate::faults::FaultEvent::TaskCrash {
                stage: StageId(0),
                task: 0,
                attempt: 0,
                at_fraction: 0.5,
            }]),
            recovery: RecoveryPolicy::default(),
        };
        let run = |session: &mut JournalSession, workers: usize| {
            let dataplane = DataPlane::new(Medium::S3, free.len());
            runtime.try_run_inner(&plan, &db, &schedule, &dataplane, Some(session), workers)
        };
        let mut resumed_journals = Vec::new();
        for workers in [1, 4] {
            let mut clean = JournalSession::fresh(None);
            let base = run(&mut clean, workers).unwrap();
            let records = decode_journal(clean.durable_bytes()).unwrap().records;
            let v = validate_journal(&records);
            assert!(v.is_empty(), "runner journal validates clean: {v:?}");
            let n_commits = records
                .iter()
                .filter(|r| matches!(r, JournalRecord::ObjectCommit { .. }))
                .count() as u32;
            let total_tasks: u32 = schedule.dop.iter().sum();
            assert_eq!(n_commits, total_tasks, "one commit per task");
            assert!(
                records
                    .iter()
                    .any(|r| matches!(r, JournalRecord::TaskAttempt { .. })),
                "the injected crash's attempt history is journaled"
            );
            // Crash the coordinator mid-journal; the resumed run re-executes
            // physically but every re-delivered commit deduplicates.
            let total = clean.records_written();
            let mut journals = Vec::new();
            for k in [2, total / 2, total - 1] {
                let mut armed = JournalSession::fresh(Some(k));
                let err = run(&mut armed, workers).unwrap_err();
                assert!(matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k));
                let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
                let out = run(&mut resumed, workers).unwrap();
                assert_eq!(
                    out.result.encode(),
                    base.result.encode(),
                    "crash at record {k}: the answer is byte-identical"
                );
                let recs = decode_journal(resumed.durable_bytes()).unwrap().records;
                let final_commits = recs
                    .iter()
                    .filter(|r| matches!(r, JournalRecord::ObjectCommit { .. }))
                    .count() as u32;
                assert_eq!(
                    final_commits, total_tasks,
                    "crash at record {k}: every task commits exactly once"
                );
                assert_eq!(
                    resumed.deduped(),
                    resumed.replayed_commits(),
                    "crash at record {k}: every durable commit deduplicated on re-delivery"
                );
                let v = validate_journal(&recs);
                assert!(v.is_empty(), "crash at record {k}: {v:?}");
                journals.push(journal_sans_wall_clock(resumed.durable_bytes()));
            }
            resumed_journals.push(journals);
        }
        assert_eq!(
            resumed_journals[0], resumed_journals[1],
            "resumed journals do not depend on the pool size"
        );
    }

    /// A journal's records with `TaskAttempt`'s two wall-clock fields
    /// zeroed. They are the only wall-clock bytes a runner journal holds,
    /// so not even two runs on one pool size repeat them.
    fn journal_sans_wall_clock(bytes: &[u8]) -> Vec<String> {
        use crate::journal::{decode_journal, JournalRecord};
        decode_journal(bytes)
            .unwrap()
            .records
            .into_iter()
            .map(|mut r| {
                if let JournalRecord::TaskAttempt { start, end, .. } = &mut r {
                    (*start, *end) = (0.0, 0.0);
                }
                format!("{r:?}")
            })
            .collect()
    }

    /// Q1 at scale factor `sf` under EvenSplit on two 8-slot servers.
    fn q1_two_servers(sf: f64) -> (Database, QueryPlan, Schedule) {
        let db = Database::generate(ScaleConfig::with_sf(sf));
        let plan = Query::Q1.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        (db, plan, schedule)
    }

    #[test]
    fn lineage_reexecution_that_needs_a_consumed_bus_slot_fails_at_once() {
        use crate::faults::FaultEvent;
        let (db, plan, mut schedule) = q1_two_servers(0.05);
        // Stage 1 reads stage 0 through server 0's bus and writes to
        // consumers on server 1. Re-running its task 0 to heal the lost
        // object needs the bus slot the first run already took.
        for e in plan.dag.out_edges(StageId(1)) {
            schedule.placement[e.dst.index()] = ditto_core::TaskPlacement::Single(ServerId(1));
        }
        let runtime = LocalRuntime {
            faults: FaultPlan::from_events(vec![FaultEvent::ObjectLoss {
                stage: StageId(1),
                task: 0,
            }]),
            recovery: RecoveryPolicy::default(),
        };
        let t0 = Instant::now();
        let err = runtime
            .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
            .unwrap_err();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(5), "took {took:?}");
        match err {
            ExecError::MissingInput { detail, .. } => {
                assert!(detail.contains("edge e0"), "{detail}")
            }
            other => panic!("expected MissingInput, got {other}"),
        }
    }

    #[test]
    fn object_fault_lands_on_the_lowest_external_reader_once_per_run() {
        use ditto_core::TaskPlacement::{Single, Spread};
        use ditto_dag::{DagBuilder, StageKind};
        // p (server 0) feeds c1 (task 0 on server 0, tasks 1-2 on server 1)
        // and c2 (server 1); q (server 1) feeds only c2, co-located.
        let dag = DagBuilder::new("fan")
            .stage("p", StageKind::Map, 0, 0)
            .stage("q", StageKind::Map, 0, 0)
            .stage("c1", StageKind::Reduce, 0, 0)
            .stage("c2", StageKind::Reduce, 0, 0)
            .edge("p", "c1", EdgeKind::Shuffle, 1)
            .edge("p", "c2", EdgeKind::Shuffle, 1)
            .edge("q", "c2", EdgeKind::Shuffle, 1)
            .build()
            .unwrap();
        let (s0, s1) = (ServerId(0), ServerId(1));
        let schedule = Schedule {
            scheduler: "hand".into(),
            dop: vec![2, 1, 3, 2],
            groups: (0..4).map(|i| vec![StageId(i)]).collect(),
            group_of: (0..4).collect(),
            colocated: vec![false; 3],
            placement: vec![
                Single(s0),
                Single(s1),
                Spread(vec![(s0, 1), (s1, 2)]),
                Single(s1),
            ],
        };
        schedule.validate(&dag).unwrap();
        let faults = FaultPlan::default()
            .and_object_loss(StageId(0), 0)
            .and_object_corruption(StageId(1), 0);
        let mut applied = BTreeSet::new();
        // c1's task 0 shares p's server; task 1 is the first reader that
        // goes through the object store, so its partition pays.
        assert_eq!(
            object_fault_targets(&faults, &dag, &schedule, StageId(2), &mut applied),
            vec![(partition_key(0, 0, 1), ObjectFaultKind::Loss)]
        );
        // c2 reads p too, but p's fault is spent; q's consumers are all
        // co-located, so its fault has no stored object to hit.
        assert!(object_fault_targets(&faults, &dag, &schedule, StageId(3), &mut applied).is_empty());
        assert_eq!(applied, BTreeSet::from([(0, 0)]));
        // Had c2 launched first, its task 0 would have paid instead.
        assert_eq!(
            object_fault_targets(&faults, &dag, &schedule, StageId(3), &mut BTreeSet::new()),
            vec![(partition_key(1, 0, 0), ObjectFaultKind::Loss)]
        );
    }

    #[test]
    fn faulted_runs_report_ordered_attempts_and_equal_counters() {
        use crate::faults::FaultEvent;
        let (db, plan, schedule) = q1_two_servers(0.2);
        // The plan of `explicit_faults_leave_answer_byte_identical`.
        let runtime = LocalRuntime {
            faults: FaultPlan::from_events(vec![
                FaultEvent::TaskCrash {
                    stage: StageId(0),
                    task: 0,
                    attempt: 0,
                    at_fraction: 0.5,
                },
                FaultEvent::Straggler {
                    stage: StageId(1),
                    task: 0,
                    slowdown: 5.0,
                },
            ]),
            recovery: RecoveryPolicy::default(),
        };
        let run = || {
            let out = runtime
                .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
                .unwrap();
            let rows: Vec<_> = out
                .attempts
                .iter()
                .map(|a| (a.stage, a.task, a.attempt, a.outcome, a.speculative))
                .collect();
            let f = out.fault_stats;
            let counters = [
                f.extra_attempts,
                f.server_failures,
                f.rescheduled_stages,
                f.speculative_copies,
                f.object_losses,
                f.object_corruptions,
                f.lineage_reexecs,
            ];
            (rows, counters, f.storage_retries, out.retries)
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "attempt history and integer counters repeat exactly");
        assert!(
            a.0.windows(2).all(|w| (w[0].0, w[0].1, w[0].2) < (w[1].0, w[1].1, w[1].2)),
            "attempts arrive ordered by (stage, task, attempt): {:?}",
            a.0
        );
        assert_eq!(a.0.len(), 4, "crash + retry, superseded + backup");
    }

    #[test]
    fn fault_free_journaled_run_writes_the_same_bytes_twice() {
        let (db, plan, schedule) = q1_two_servers(0.2);
        let journal = || {
            let mut session = JournalSession::fresh(None);
            LocalRuntime::new()
                .try_run_journaled(
                    &plan,
                    &db,
                    &schedule,
                    &DataPlane::new(Medium::S3, 2),
                    &mut session,
                )
                .unwrap();
            session.durable_bytes().to_vec()
        };
        let first = journal();
        assert!(!first.is_empty());
        assert_eq!(first, journal());
    }

    #[test]
    fn redis_backend_works_too() {
        let (out, _, db) = run_query(Query::Q95, &EvenSplitScheduler, &[8, 8], Medium::Redis);
        let (n, _, _) = q95::reference(&db);
        let (gn, _, _) = q95::result_triple(&out.result);
        assert_eq!(gn, n);
        assert!(out.ledger.redis.transfers > 0);
    }

    /// Everything a run reports that must not depend on the pool size:
    /// the answer, the attempt log and the integer fault counters (their
    /// wall-clock fields dropped), the ledger, the monitor rows and the
    /// journal.
    #[derive(Debug, PartialEq)]
    struct RunDigest {
        result: bytes::Bytes,
        attempts: Vec<(u32, u32, u32, ServerId, AttemptOutcome, bool)>,
        counters: [u64; 9],
        ledger: TransferLedger,
        rows: Vec<(u32, u32, ServerId, u64, u64)>,
        journal: Vec<String>,
    }

    /// Run journaled on `workers` workers; check that every task launched
    /// after its producer stages' last task ended.
    fn digest(
        runtime: &LocalRuntime,
        (db, plan, schedule): (&Database, &QueryPlan, &Schedule),
        servers: usize,
        workers: usize,
    ) -> (RunDigest, Vec<u8>) {
        let mut session = JournalSession::fresh(None);
        let out = runtime
            .try_run_inner(
                plan,
                db,
                schedule,
                &DataPlane::new(Medium::S3, servers),
                Some(&mut session),
                workers,
            )
            .unwrap();
        let records = out.monitor.records();
        for r in &records {
            for p in plan.dag.parents_of(StageId(r.stage)) {
                let ready = records
                    .iter()
                    .filter(|q| q.stage == p.0)
                    .map(|q| q.end)
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    r.start >= ready,
                    "task {}.{} launched before stage {p} ended",
                    r.stage,
                    r.task
                );
            }
        }
        let f = out.fault_stats;
        let digest = RunDigest {
            result: out.result.encode(),
            attempts: out
                .attempts
                .iter()
                .map(|a| {
                    (
                        a.stage,
                        a.task,
                        a.attempt,
                        a.server,
                        a.outcome,
                        a.speculative,
                    )
                })
                .collect(),
            counters: [
                f.extra_attempts.into(),
                f.server_failures.into(),
                f.rescheduled_stages.into(),
                f.speculative_copies.into(),
                f.object_losses.into(),
                f.object_corruptions.into(),
                f.lineage_reexecs.into(),
                f.storage_retries,
                out.retries,
            ],
            ledger: out.ledger,
            rows: records
                .iter()
                .map(|r| (r.stage, r.task, r.server, r.bytes_read, r.bytes_written))
                .collect(),
            journal: journal_sans_wall_clock(session.durable_bytes()),
        };
        (digest, session.durable_bytes().to_vec())
    }

    #[test]
    fn pool_size_never_changes_what_a_run_reports() {
        use crate::faults::FaultEvent;
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let ditto = DittoScheduler::new();
        // Small servers spread each query, so scan outputs cross the
        // object store and object faults have something to hit.
        let cases: [(Query, &dyn Scheduler, &[u32]); 4] = [
            (Query::Q1, &ditto, &[4, 4, 4, 4]),
            (Query::Q1, &EvenSplitScheduler, &[4, 4, 4, 4]),
            (Query::Q95, &ditto, &[6, 6, 6]),
            (Query::Q95, &EvenSplitScheduler, &[6, 6, 6]),
        ];
        for (q, scheduler, free) in cases {
            let plan = q.prepared_plan(&db);
            let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
            let rm = ResourceManager::from_free_slots(free.to_vec());
            let schedule = scheduler.schedule(&SchedulingContext {
                dag: &plan.dag,
                model: &model,
                resources: &rm,
                objective: Objective::Jct,
            });
            // A crash, a superseded straggler, and lost and corrupt scan
            // outputs (scans are what lineage re-execution can always
            // regenerate).
            let scans: Vec<StageId> = plan
                .dag
                .stages()
                .iter()
                .map(|st| st.id)
                .filter(|s| matches!(plan.stages[s.index()].op, StageOp::Scan { .. }))
                .collect();
            let last = StageId(plan.dag.num_stages() as u32 - 1);
            let mut faults = FaultPlan::from_events(vec![
                FaultEvent::TaskCrash {
                    stage: StageId(0),
                    task: 0,
                    attempt: 0,
                    at_fraction: 0.5,
                },
                FaultEvent::Straggler {
                    stage: last,
                    task: 0,
                    slowdown: 3.0,
                },
            ]);
            for s in scans {
                faults = faults.and_object_loss(s, 0).and_object_corruption(s, 1);
            }
            let faulted = LocalRuntime {
                faults,
                recovery: RecoveryPolicy::default(),
            };
            let case = format!("{} under {}", plan.name, scheduler.name());
            let inputs = (&db, &plan, &schedule);
            let (clean, clean_journal) = digest(&LocalRuntime::new(), inputs, free.len(), 1);
            let (fault, _) = digest(&faulted, inputs, free.len(), 1);
            assert!(!fault.attempts.is_empty(), "{case}: task faults fired");
            assert!(fault.counters[6] > 0, "{case}: object faults were healed");
            for workers in [2, 4, 8] {
                let (d, journal) = digest(&LocalRuntime::new(), inputs, free.len(), workers);
                assert_eq!(d, clean, "{case}, fault-free, W = {workers}");
                assert_eq!(
                    journal, clean_journal,
                    "{case}: journal bytes, W = {workers}"
                );
                let (d, _) = digest(&faulted, inputs, free.len(), workers);
                assert_eq!(d, fault, "{case}, faulted, W = {workers}");
            }
        }
    }

    #[test]
    fn a_panicking_task_is_a_typed_error_on_any_pool_size() {
        use ditto_core::TaskPlacement::Single;
        use ditto_dag::{DagBuilder, StageKind};
        use ditto_sql::StageSpec;
        // One scan stage whose projection names a column its table lacks:
        // every task panics inside the SQL kernel.
        let dag = DagBuilder::new("boom")
            .stage("scan", StageKind::Map, 0, 0)
            .build()
            .unwrap();
        let plan = QueryPlan {
            name: "boom".into(),
            dag,
            stages: vec![StageSpec {
                op: StageOp::Scan {
                    table: "store".into(),
                    projection: vec!["no_such_column".into()],
                    predicate: None,
                },
                output_key: None,
            }],
        };
        let schedule = Schedule {
            scheduler: "hand".into(),
            dop: vec![4],
            groups: vec![vec![StageId(0)]],
            group_of: vec![0],
            colocated: vec![],
            placement: vec![Single(ServerId(0))],
        };
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        for workers in [1, 2, 4] {
            // The coordinator and the helpers alike catch the panic; the
            // scope joins every helper before the error is returned.
            let err = LocalRuntime::new()
                .try_run_inner(
                    &plan,
                    &db,
                    &schedule,
                    &DataPlane::new(Medium::S3, 1),
                    None,
                    workers,
                )
                .unwrap_err();
            assert_eq!(err, ExecError::TaskPanicked { stage: 0 }, "W = {workers}");
        }
    }
}
