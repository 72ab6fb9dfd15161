//! Journal records and their binary codec: the little-endian `put_*` /
//! `Dec` primitives, the record types ([`JournalRecord`],
//! [`StageCheckpoint`], [`LineageHit`], [`EngineKind`]) and the
//! `enc_*`/`dec_*` pairs that turn each into a frame payload and back.

use crate::adaptive::{ReplanRecord, ReplanTrigger};
use crate::faults::{AttemptOutcome, AttemptRecord, FaultStats};
use crate::metrics::JobMetrics;
use crate::trace::TaskTrace;
use ditto_cluster::ServerId;
use ditto_core::{Schedule, TaskPlacement};
use ditto_dag::StageId;
use ditto_obs::StepTimings;
use ditto_storage::{checksum64, Medium};
use ditto_timemodel::StepCorrections;
use std::borrow::Cow;

/// Seed for the schedule fingerprint recorded by `ScheduleCommit`.
pub(crate) const SCHEDULE_FP_SEED: u64 = 0x00D1_7705_C4ED;

// ---------------------------------------------------------------------
// Little-endian put/take codec helpers
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v.as_bytes());
}

/// Cursor-based payload decoder; every taker errors on underrun.
struct Dec<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec {
            rest: data,
            len: data.len(),
        }
    }

    #[cold]
    fn underrun(&self, n: usize) -> String {
        format!(
            "payload underrun: need {n} bytes at offset {}, have {}",
            self.len - self.rest.len(),
            self.rest.len()
        )
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let (out, rest) = self.rest.split_at_checked(n).ok_or_else(|| self.underrun(n))?;
        self.rest = rest;
        Ok(out)
    }

    /// [`Dec::bytes`] as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (out, rest) = self.rest.split_first_chunk().ok_or_else(|| self.underrun(N))?;
        self.rest = rest;
        Ok(*out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("bad utf8 string: {e}"))
    }

    /// A `u32` element count followed by that many elements, each at
    /// least `min_size` encoded bytes. The count is checked against the
    /// bytes left *before* anything is allocated: the frame checksum's
    /// seed is public, so a CRC-valid frame can still carry any length.
    fn seq<T>(
        &mut self,
        min_size: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_size {
            return Err(format!(
                "length {n} needs {min_size} bytes per element, {} bytes left",
                self.rest.len()
            ));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    fn finished(&self) -> bool {
        self.rest.is_empty()
    }
}

// ---------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------

/// Which engine wrote a journal (recorded in `JobAdmit` so recovery
/// resumes with the same engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// A frozen-schedule simulation ([`Engine`](crate::Engine) without `.adaptive`).
    Frozen,
    /// An adaptive simulation ([`Engine::adaptive`](crate::Engine::adaptive)).
    Adaptive,
    /// The physical thread-pool runtime (`crate::runner`).
    Runner,
}

impl EngineKind {
    fn to_u8(self) -> u8 {
        match self {
            EngineKind::Frozen => 0,
            EngineKind::Adaptive => 1,
            EngineKind::Runner => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(EngineKind::Frozen),
            1 => Ok(EngineKind::Adaptive),
            2 => Ok(EngineKind::Runner),
            b => Err(format!("bad engine kind {b}")),
        }
    }

    /// Human-readable engine label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            EngineKind::Frozen => "frozen",
            EngineKind::Adaptive => "adaptive",
            EngineKind::Runner => "runner",
        }
    }
}

/// One lineage re-execution paid by a reader stage: recorded in the
/// reader's [`StageCheckpoint`] so a restored stage re-emits the same
/// fault/recovery telemetry the live simulation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LineageHit {
    /// Stage whose read detected the fault and paid the wait.
    pub(crate) reader_stage: u32,
    /// Producer stage of the lost/corrupt object.
    pub(crate) src_stage: u32,
    /// Producer task of the lost/corrupt object.
    pub(crate) src_task: u32,
    /// `true` for a checksum corruption, `false` for a loss.
    pub(crate) corrupt: bool,
    /// Sim time the fault was detected (the reader's pre-recovery ready).
    pub(crate) detect_at: f64,
    /// Re-execution time of the producing task, seconds.
    pub(crate) reexec_s: f64,
}

/// Post-state of one completed stage: everything the simulator wrote
/// into its `SimState` while running it, so recovery can restore the stage
/// instead of re-simulating it. The stage's own rows are absolute; the
/// three pieces of state a stage shares with others (fault buckets, edge
/// media, heal map) are a *delta* — only the entries `sim_stage` can have
/// written — against the previous checkpoint in journal order. Checkpoints
/// form a strict prefix of the deterministic stage pop order and every
/// restore precedes any re-simulation, so applying the deltas in
/// [`Self::ordinal`] order rebuilds exactly the vectors the crashed run
/// held; `JournalSession::try_restore` refuses any other order.
///
/// Every row sequence is a [`Cow`]: the write path borrows them straight
/// out of `SimState` (no owned copy between the simulator and the journal
/// buffer), the decoder owns what it read.
#[derive(Debug, Clone)]
pub struct StageCheckpoint<'a> {
    /// Stage index.
    pub(crate) stage: u32,
    /// Position of this checkpoint among the journal's `StageComplete`
    /// records (0-based): the order its delta must be applied in.
    pub(crate) ordinal: u32,
    /// Stage end (latest task end).
    pub(crate) end: f64,
    /// Earliest task write start (the pipelining gate).
    pub(crate) write_start: f64,
    /// Latest task compute start (end of reads).
    pub(crate) read_end: f64,
    /// Stage container launch (earliest attempt launch).
    pub(crate) launch: f64,
    /// Mean as-executed step durations (drift-detector food).
    pub(crate) observed: StepTimings,
    /// Mean clean step durations (the detector's expected side).
    pub(crate) clean: StepTimings,
    /// Clean single-attempt duration per task (lineage re-execution cost).
    pub(crate) task_clean: Cow<'a, [f64]>,
    /// Medium of each in-edge of this stage, `(edge, medium_code)`.
    pub(crate) edge_medium: Cow<'a, [(u32, u8)]>,
    /// Lineage-healing entries this stage inserted:
    /// `(stage, task, heal_end)`.
    pub(crate) heal_end: Cow<'a, [(u32, u32, f64)]>,
    /// Fault buckets of this stage and of its in-edge producers (lineage
    /// charges hit the *producer* stage's bucket), `(stage, absolute
    /// bucket at this stage's completion)`.
    pub(crate) buckets: Cow<'a, [(u32, FaultStats)]>,
    /// Lineage re-executions this stage paid for as a reader.
    pub(crate) lineage: Cow<'a, [LineageHit]>,
    /// Winning task timelines of this stage.
    pub(crate) tasks: Cow<'a, [TaskTrace]>,
    /// Attempt history of this stage (empty per task when fault-free).
    pub(crate) attempts: Cow<'a, [AttemptRecord]>,
}

impl StageCheckpoint<'_> {
    /// Check every index a restore will use against the admitted job
    /// shape, so a hostile delta is a decode error and never an
    /// out-of-bounds write in `try_restore`.
    pub(super) fn check_shape(&self, stages: u32, edges: u32) -> Result<(), String> {
        let bad_stage = std::iter::once(self.stage)
            .chain(self.buckets.iter().map(|&(s, _)| s))
            .find(|&s| s >= stages);
        if let Some(s) = bad_stage {
            return Err(format!("checkpoint names stage {s} of a {stages}-stage job"));
        }
        if let Some(&(e, _)) = self.edge_medium.iter().find(|&&(e, _)| e >= edges) {
            return Err(format!("checkpoint names edge {e} of a {edges}-edge job"));
        }
        Ok(())
    }
}

/// An adaptive suffix replan decision (applied or rejected).
#[derive(Debug, Clone)]
pub struct ReplanDecision {
    /// The decision record, as it lands on the execution trace.
    pub(crate) record: ReplanRecord,
    /// Suffix mask at the decision (`true` = stage not yet started).
    pub(crate) suffix: Vec<bool>,
    /// The spliced schedule, present iff the replan was applied.
    pub(crate) schedule: Option<Schedule>,
}

/// A failure-aware failover reschedule (frozen engine).
#[derive(Debug, Clone)]
pub struct FailoverDecision {
    /// Monotonic decision sequence number.
    pub(crate) decision_seq: u64,
    /// Failed server index.
    pub(crate) failed_server: u32,
    /// Failure instant, sim seconds.
    pub(crate) at_time: f64,
    /// Suffix mask (`true` = stage had not launched at the failure).
    pub(crate) suffix: Vec<bool>,
    /// The spliced hybrid schedule the suffix runs under.
    pub(crate) schedule: Schedule,
}

/// One journaled control-plane decision. The large variants are boxed so
/// a decoded journal is a dense vector of 40-byte records.
///
/// No `PartialEq`: [`Schedule`] does not compare; tests compare encoded
/// bytes instead, which is the stronger statement anyway.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// Job admission: DAG shape and the engine that will run it.
    JobAdmit {
        /// Number of DAG stages.
        stages: u32,
        /// Number of DAG edges.
        edges: u32,
        /// Engine writing this journal.
        engine: EngineKind,
        /// Scheduler name of the committed schedule.
        scheduler: String,
    },
    /// The initial schedule commit (decision 0 of every run).
    ScheduleCommit {
        /// Monotonic decision sequence number (always 0 here).
        decision_seq: u64,
        /// [`checksum64`] fingerprint of the encoded schedule.
        schedule_fp: u64,
    },
    /// One object commit: a task's surviving output became durable.
    ObjectCommit {
        /// Producer stage.
        stage: u32,
        /// Producer task.
        task: u32,
        /// Attempt epoch of the surviving execution.
        attempt_epoch: u32,
        /// Value fingerprint (sim: commit-instant bits; runner: output
        /// table checksum).
        value: u64,
    },
    /// A stage completed; carries its full restore checkpoint.
    StageComplete(Box<StageCheckpoint<'static>>),
    /// An adaptive suffix replan decision (boxed: it carries a whole
    /// schedule, and a record should stay a few words).
    Replan(Box<ReplanDecision>),
    /// A failure-aware failover reschedule (boxed like `Replan`).
    Failover(Box<FailoverDecision>),
    /// One physical task attempt (runner engine; wall-clock times).
    TaskAttempt {
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Outcome code (see [`AttemptOutcome`] codec).
        outcome: u8,
        /// Attempt start, wall seconds since run start.
        start: f64,
        /// Attempt end, wall seconds since run start.
        end: f64,
    },
    /// The job finished with these final metrics.
    JobComplete(Box<JobMetrics>),
}

// ---------------------------------------------------------------------
// Sub-codecs
// ---------------------------------------------------------------------

pub(super) fn medium_code(m: Option<Medium>) -> u8 {
    match m {
        Some(Medium::SharedMemory) => 0,
        Some(Medium::Redis) => 1,
        Some(Medium::S3) => 2,
        None => 255,
    }
}

pub(super) fn medium_from_code(c: u8) -> Result<Option<Medium>, String> {
    match c {
        0 => Ok(Some(Medium::SharedMemory)),
        1 => Ok(Some(Medium::Redis)),
        2 => Ok(Some(Medium::S3)),
        255 => Ok(None),
        b => Err(format!("bad medium code {b}")),
    }
}

pub(super) fn outcome_code(o: AttemptOutcome) -> u8 {
    match o {
        AttemptOutcome::Completed => 0,
        AttemptOutcome::Crashed => 1,
        AttemptOutcome::ServerLost => 2,
        AttemptOutcome::Superseded => 3,
    }
}

pub(super) fn outcome_from_code(c: u8) -> Result<AttemptOutcome, String> {
    match c {
        0 => Ok(AttemptOutcome::Completed),
        1 => Ok(AttemptOutcome::Crashed),
        2 => Ok(AttemptOutcome::ServerLost),
        3 => Ok(AttemptOutcome::Superseded),
        b => Err(format!("bad outcome code {b}")),
    }
}

fn enc_timings(buf: &mut Vec<u8>, t: &StepTimings) {
    put_f64(buf, t.setup);
    put_f64(buf, t.read);
    put_f64(buf, t.compute);
    put_f64(buf, t.write);
}

fn dec_timings(d: &mut Dec<'_>) -> Result<StepTimings, String> {
    Ok(StepTimings {
        setup: d.f64()?,
        read: d.f64()?,
        compute: d.f64()?,
        write: d.f64()?,
    })
}

/// Encoded size of a [`FaultStats`].
const STATS_LEN: usize = 52;

fn enc_stats(buf: &mut Vec<u8>, s: &FaultStats) {
    put_u32(buf, s.extra_attempts);
    put_f64(buf, s.wasted_gb_s);
    put_f64(buf, s.recovery_delay_s);
    put_u32(buf, s.server_failures);
    put_u32(buf, s.rescheduled_stages);
    put_u32(buf, s.speculative_copies);
    put_u32(buf, s.object_losses);
    put_u32(buf, s.object_corruptions);
    put_u32(buf, s.lineage_reexecs);
    put_u64(buf, s.storage_retries);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<FaultStats, String> {
    Ok(FaultStats {
        extra_attempts: d.u32()?,
        wasted_gb_s: d.f64()?,
        recovery_delay_s: d.f64()?,
        server_failures: d.u32()?,
        rescheduled_stages: d.u32()?,
        speculative_copies: d.u32()?,
        object_losses: d.u32()?,
        object_corruptions: d.u32()?,
        lineage_reexecs: d.u32()?,
        storage_retries: d.u64()?,
    })
}

fn enc_metrics(buf: &mut Vec<u8>, m: &JobMetrics) {
    put_f64(buf, m.jct);
    put_f64(buf, m.compute_cost);
    put_f64(buf, m.storage_cost);
    enc_stats(buf, &m.faults);
}

fn dec_metrics(d: &mut Dec<'_>) -> Result<JobMetrics, String> {
    Ok(JobMetrics {
        jct: d.f64()?,
        compute_cost: d.f64()?,
        storage_cost: d.f64()?,
        faults: dec_stats(d)?,
    })
}

fn enc_attempt(buf: &mut Vec<u8>, a: &AttemptRecord) {
    put_u32(buf, a.stage);
    put_u32(buf, a.task);
    put_u32(buf, a.attempt);
    put_u32(buf, a.server.0);
    put_f64(buf, a.start);
    put_f64(buf, a.end);
    put_u8(buf, outcome_code(a.outcome));
    put_f64(buf, a.wasted_gb_s);
    put_bool(buf, a.speculative);
}

fn dec_attempt(d: &mut Dec<'_>) -> Result<AttemptRecord, String> {
    Ok(AttemptRecord {
        stage: d.u32()?,
        task: d.u32()?,
        attempt: d.u32()?,
        server: ServerId(d.u32()?),
        start: d.f64()?,
        end: d.f64()?,
        outcome: outcome_from_code(d.u8()?)?,
        wasted_gb_s: d.f64()?,
        speculative: d.boolean()?,
    })
}

fn enc_task(buf: &mut Vec<u8>, t: &TaskTrace) {
    put_u32(buf, t.stage);
    put_u32(buf, t.task);
    put_u32(buf, t.server.0);
    put_f64(buf, t.launch);
    put_f64(buf, t.read_start);
    put_f64(buf, t.compute_start);
    put_f64(buf, t.write_start);
    put_f64(buf, t.end);
    put_f64(buf, t.memory_gb);
}

fn dec_task(d: &mut Dec<'_>) -> Result<TaskTrace, String> {
    Ok(TaskTrace {
        stage: d.u32()?,
        task: d.u32()?,
        server: ServerId(d.u32()?),
        launch: d.f64()?,
        read_start: d.f64()?,
        compute_start: d.f64()?,
        write_start: d.f64()?,
        end: d.f64()?,
        memory_gb: d.f64()?,
    })
}

fn enc_lineage(buf: &mut Vec<u8>, h: &LineageHit) {
    put_u32(buf, h.reader_stage);
    put_u32(buf, h.src_stage);
    put_u32(buf, h.src_task);
    put_bool(buf, h.corrupt);
    put_f64(buf, h.detect_at);
    put_f64(buf, h.reexec_s);
}

fn dec_lineage(d: &mut Dec<'_>) -> Result<LineageHit, String> {
    Ok(LineageHit {
        reader_stage: d.u32()?,
        src_stage: d.u32()?,
        src_task: d.u32()?,
        corrupt: d.boolean()?,
        detect_at: d.f64()?,
        reexec_s: d.f64()?,
    })
}

/// Encode a [`Schedule`] (also the `ScheduleCommit` fingerprint domain).
fn enc_schedule(buf: &mut Vec<u8>, s: &Schedule) {
    put_str(buf, &s.scheduler);
    put_u32(buf, s.dop.len() as u32);
    for &d in &s.dop {
        put_u32(buf, d);
    }
    put_u32(buf, s.groups.len() as u32);
    for g in &s.groups {
        put_u32(buf, g.len() as u32);
        for &st in g {
            put_u32(buf, st.0);
        }
    }
    put_u32(buf, s.group_of.len() as u32);
    for &g in &s.group_of {
        put_u32(buf, g as u32);
    }
    enc_bools(buf, &s.colocated);
    put_u32(buf, s.placement.len() as u32);
    for p in &s.placement {
        match p {
            TaskPlacement::Single(srv) => {
                put_u8(buf, 0);
                put_u32(buf, srv.0);
            }
            TaskPlacement::Spread(parts) => {
                put_u8(buf, 1);
                put_u32(buf, parts.len() as u32);
                for &(srv, count) in parts {
                    put_u32(buf, srv.0);
                    put_u32(buf, count);
                }
            }
        }
    }
}

fn dec_schedule(d: &mut Dec<'_>) -> Result<Schedule, String> {
    Ok(Schedule {
        scheduler: d.string()?,
        dop: d.seq(4, Dec::u32)?,
        groups: d.seq(4, |d| d.seq(4, |d| d.u32().map(StageId)))?,
        group_of: d.seq(4, |d| d.u32().map(|v| v as usize))?,
        colocated: dec_bools(d)?,
        placement: d.seq(5, |d| match d.u8()? {
            0 => Ok(TaskPlacement::Single(ServerId(d.u32()?))),
            1 => Ok(TaskPlacement::Spread(
                d.seq(8, |d| Ok((ServerId(d.u32()?), d.u32()?)))?,
            )),
            b => Err(format!("bad placement tag {b}")),
        })?,
    })
}

/// The `ScheduleCommit` fingerprint of a schedule.
pub(crate) fn schedule_fingerprint(s: &Schedule) -> u64 {
    let mut buf = Vec::new();
    enc_schedule(&mut buf, s);
    checksum64(&buf, SCHEDULE_FP_SEED)
}

fn trigger_code(t: ReplanTrigger) -> u8 {
    match t {
        ReplanTrigger::Drift => 0,
        ReplanTrigger::ObjectRecovery => 1,
    }
}

fn trigger_from_code(c: u8) -> Result<ReplanTrigger, String> {
    match c {
        0 => Ok(ReplanTrigger::Drift),
        1 => Ok(ReplanTrigger::ObjectRecovery),
        b => Err(format!("bad replan trigger {b}")),
    }
}

fn enc_replan(buf: &mut Vec<u8>, r: &ReplanRecord) {
    put_u8(buf, trigger_code(r.trigger));
    put_u32(buf, r.at_stage);
    put_f64(buf, r.sim_time);
    put_f64(buf, r.factor);
    put_f64(buf, r.corrections.read);
    put_f64(buf, r.corrections.compute);
    put_f64(buf, r.corrections.write);
    put_u32(buf, r.suffix_stages);
    put_f64(buf, r.old_predicted_jct);
    put_f64(buf, r.new_predicted_jct);
    put_f64(buf, r.risk_penalty);
    put_bool(buf, r.audit_clean);
    put_bool(buf, r.applied);
    put_u64(buf, r.decision_seq);
}

fn dec_replan(d: &mut Dec<'_>) -> Result<ReplanRecord, String> {
    Ok(ReplanRecord {
        trigger: trigger_from_code(d.u8()?)?,
        at_stage: d.u32()?,
        sim_time: d.f64()?,
        factor: d.f64()?,
        corrections: StepCorrections {
            read: d.f64()?,
            compute: d.f64()?,
            write: d.f64()?,
        },
        suffix_stages: d.u32()?,
        old_predicted_jct: d.f64()?,
        new_predicted_jct: d.f64()?,
        risk_penalty: d.f64()?,
        audit_clean: d.boolean()?,
        applied: d.boolean()?,
        decision_seq: d.u64()?,
    })
}

fn enc_bools(buf: &mut Vec<u8>, v: &[bool]) {
    put_u32(buf, v.len() as u32);
    for &b in v {
        put_bool(buf, b);
    }
}

fn dec_bools(d: &mut Dec<'_>) -> Result<Vec<bool>, String> {
    d.seq(1, Dec::boolean)
}

/// A `StageComplete` payload, also from a checkpoint of borrowed rows.
pub(super) fn enc_stage_complete(buf: &mut Vec<u8>, cp: &StageCheckpoint<'_>) {
    put_u8(buf, 4);
    put_u32(buf, cp.stage);
    put_u32(buf, cp.ordinal);
    put_f64(buf, cp.end);
    put_f64(buf, cp.write_start);
    put_f64(buf, cp.read_end);
    put_f64(buf, cp.launch);
    enc_timings(buf, &cp.observed);
    enc_timings(buf, &cp.clean);
    put_u32(buf, cp.task_clean.len() as u32);
    for &t in cp.task_clean.iter() {
        put_f64(buf, t);
    }
    put_u32(buf, cp.edge_medium.len() as u32);
    for &(e, code) in cp.edge_medium.iter() {
        put_u32(buf, e);
        put_u8(buf, code);
    }
    put_u32(buf, cp.heal_end.len() as u32);
    for &(s, t, h) in cp.heal_end.iter() {
        put_u32(buf, s);
        put_u32(buf, t);
        put_f64(buf, h);
    }
    put_u32(buf, cp.buckets.len() as u32);
    for (s, b) in cp.buckets.iter() {
        put_u32(buf, *s);
        enc_stats(buf, b);
    }
    put_u32(buf, cp.lineage.len() as u32);
    for h in cp.lineage.iter() {
        enc_lineage(buf, h);
    }
    put_u32(buf, cp.tasks.len() as u32);
    for t in cp.tasks.iter() {
        enc_task(buf, t);
    }
    put_u32(buf, cp.attempts.len() as u32);
    for a in cp.attempts.iter() {
        enc_attempt(buf, a);
    }
}

fn dec_checkpoint(d: &mut Dec<'_>) -> Result<StageCheckpoint<'static>, String> {
    Ok(StageCheckpoint {
        stage: d.u32()?,
        ordinal: d.u32()?,
        end: d.f64()?,
        write_start: d.f64()?,
        read_end: d.f64()?,
        launch: d.f64()?,
        observed: dec_timings(d)?,
        clean: dec_timings(d)?,
        task_clean: d.seq(8, Dec::f64)?.into(),
        edge_medium: d
            .seq(5, |d| {
                let (e, code) = (d.u32()?, d.u8()?);
                medium_from_code(code).map(|_| (e, code))
            })?
            .into(),
        heal_end: d.seq(16, |d| Ok((d.u32()?, d.u32()?, d.f64()?)))?.into(),
        buckets: d.seq(4 + STATS_LEN, |d| Ok((d.u32()?, dec_stats(d)?)))?.into(),
        lineage: d.seq(29, dec_lineage)?.into(),
        tasks: d.seq(60, dec_task)?.into(),
        attempts: d.seq(42, dec_attempt)?.into(),
    })
}

// ---------------------------------------------------------------------
// Record codec + framing
// ---------------------------------------------------------------------

/// Encode one record's frame payload (tag byte + fields).
#[cfg(test)]
pub(crate) fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_record_into(&mut buf, rec);
    buf
}

/// [`encode_record`] appended to `buf`: the one encoder. The journal
/// writer calls it (and its three borrowed entry points,
/// `enc_stage_complete` / `enc_replan_decision` / `enc_failover_decision`)
/// on its own buffer, right behind the frame head it then patches.
pub(super) fn encode_record_into(buf: &mut Vec<u8>, rec: &JournalRecord) {
    match rec {
        JournalRecord::JobAdmit {
            stages,
            edges,
            engine,
            scheduler,
        } => {
            put_u8(buf, 1);
            put_u32(buf, *stages);
            put_u32(buf, *edges);
            put_u8(buf, engine.to_u8());
            put_str(buf, scheduler);
        }
        JournalRecord::ScheduleCommit {
            decision_seq,
            schedule_fp,
        } => {
            put_u8(buf, 2);
            put_u64(buf, *decision_seq);
            put_u64(buf, *schedule_fp);
        }
        JournalRecord::ObjectCommit {
            stage,
            task,
            attempt_epoch,
            value,
        } => {
            put_u8(buf, 3);
            put_u32(buf, *stage);
            put_u32(buf, *task);
            put_u32(buf, *attempt_epoch);
            put_u64(buf, *value);
        }
        JournalRecord::StageComplete(cp) => enc_stage_complete(buf, cp),
        JournalRecord::Replan(d) => {
            enc_replan_decision(buf, &d.record, &d.suffix, d.schedule.as_ref())
        }
        JournalRecord::Failover(d) => enc_failover_decision(buf, d),
        JournalRecord::TaskAttempt {
            stage,
            task,
            attempt,
            outcome,
            start,
            end,
        } => {
            put_u8(buf, 7);
            put_u32(buf, *stage);
            put_u32(buf, *task);
            put_u32(buf, *attempt);
            put_u8(buf, *outcome);
            put_f64(buf, *start);
            put_f64(buf, *end);
        }
        JournalRecord::JobComplete(metrics) => {
            put_u8(buf, 8);
            enc_metrics(buf, metrics);
        }
    }
}

/// A `Replan` payload from borrowed parts.
pub(super) fn enc_replan_decision(
    buf: &mut Vec<u8>,
    record: &ReplanRecord,
    suffix: &[bool],
    schedule: Option<&Schedule>,
) {
    put_u8(buf, 5);
    enc_replan(buf, record);
    enc_bools(buf, suffix);
    match schedule {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            enc_schedule(buf, s);
        }
    }
}

/// A `Failover` payload.
pub(super) fn enc_failover_decision(buf: &mut Vec<u8>, d: &FailoverDecision) {
    put_u8(buf, 6);
    put_u64(buf, d.decision_seq);
    put_u32(buf, d.failed_server);
    put_f64(buf, d.at_time);
    enc_bools(buf, &d.suffix);
    enc_schedule(buf, &d.schedule);
}

/// Decode one frame payload back into a record. Errors (including
/// trailing garbage after a well-formed record) mean an encoder bug or
/// memory corruption *inside* a CRC-valid frame — callers treat that as a
/// hard journal error, not a torn tail.
pub(crate) fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut d = Dec::new(payload);
    let rec = decode_record_inner(&mut d)?;
    if !d.finished() {
        return Err(format!("{} trailing bytes after record", d.rest.len()));
    }
    Ok(rec)
}

fn decode_record_inner(d: &mut Dec<'_>) -> Result<JournalRecord, String> {
    match d.u8()? {
        1 => Ok(JournalRecord::JobAdmit {
            stages: d.u32()?,
            edges: d.u32()?,
            engine: EngineKind::from_u8(d.u8()?)?,
            scheduler: d.string()?,
        }),
        2 => Ok(JournalRecord::ScheduleCommit {
            decision_seq: d.u64()?,
            schedule_fp: d.u64()?,
        }),
        3 => Ok(JournalRecord::ObjectCommit {
            stage: d.u32()?,
            task: d.u32()?,
            attempt_epoch: d.u32()?,
            value: d.u64()?,
        }),
        4 => Ok(JournalRecord::StageComplete(Box::new(dec_checkpoint(d)?))),
        5 => Ok(JournalRecord::Replan(Box::new(ReplanDecision {
            record: dec_replan(d)?,
            suffix: dec_bools(d)?,
            schedule: match d.u8()? {
                0 => None,
                1 => Some(dec_schedule(d)?),
                b => return Err(format!("bad option tag {b}")),
            },
        }))),
        6 => Ok(JournalRecord::Failover(Box::new(FailoverDecision {
            decision_seq: d.u64()?,
            failed_server: d.u32()?,
            at_time: d.f64()?,
            suffix: dec_bools(d)?,
            schedule: dec_schedule(d)?,
        }))),
        7 => Ok(JournalRecord::TaskAttempt {
            stage: d.u32()?,
            task: d.u32()?,
            attempt: d.u32()?,
            outcome: d.u8()?,
            start: d.f64()?,
            end: d.f64()?,
        }),
        8 => Ok(JournalRecord::JobComplete(Box::new(dec_metrics(d)?))),
        b => Err(format!("unknown record tag {b}")),
    }
}

