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

/// Seed for the schedule fingerprint recorded by `ScheduleCommit`.
pub const SCHEDULE_FP_SEED: u64 = 0x00D1_7705_C4ED;

// ---------------------------------------------------------------------
// Little-endian put/take codec helpers
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
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
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.data.len() {
            return Err(format!(
                "payload underrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            ));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// [`Dec::bytes`] as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        <[u8; N]>::try_from(self.bytes(N)?).map_err(|e| e.to_string())
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

    fn finished(&self) -> bool {
        self.pos == self.data.len()
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
    pub fn label(self) -> &'static str {
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
pub struct LineageHit {
    /// Stage whose read detected the fault and paid the wait.
    pub reader_stage: u32,
    /// Producer stage of the lost/corrupt object.
    pub src_stage: u32,
    /// Producer task of the lost/corrupt object.
    pub src_task: u32,
    /// `true` for a checksum corruption, `false` for a loss.
    pub corrupt: bool,
    /// Sim time the fault was detected (the reader's pre-recovery ready).
    pub detect_at: f64,
    /// Re-execution time of the producing task, seconds.
    pub reexec_s: f64,
}

/// Absolute post-state of one completed stage: everything the simulator
/// wrote into its `SimState` while running it, so recovery can restore the
/// stage wholesale instead of re-simulating it. Checkpoints form a strict
/// prefix of the deterministic stage pop order, so whole-vector restores
/// (fault buckets, edge media, heal map) are safe: every restore happens
/// before any re-simulation.
#[derive(Debug, Clone)]
pub struct StageCheckpoint {
    /// Stage index.
    pub stage: u32,
    /// Stage end (latest task end).
    pub end: f64,
    /// Earliest task write start (the pipelining gate).
    pub write_start: f64,
    /// Latest task compute start (end of reads).
    pub read_end: f64,
    /// Stage container launch (earliest attempt launch).
    pub launch: f64,
    /// Mean as-executed step durations (drift-detector food).
    pub observed: StepTimings,
    /// Mean clean step durations (the detector's expected side).
    pub clean: StepTimings,
    /// Clean single-attempt duration per task (lineage re-execution cost).
    pub task_clean: Vec<f64>,
    /// The *whole* per-edge medium vector at stage completion
    /// (`medium_code`-encoded, 255 = unset).
    pub edge_medium: Vec<u8>,
    /// The whole lineage-healing map: `(stage, task, heal_end)`.
    pub heal_end: Vec<(u32, u32, f64)>,
    /// All per-stage fault buckets, absolute (lineage charges hit the
    /// *producer* stage's bucket, so this stage's completion can mutate
    /// any earlier bucket).
    pub buckets: Vec<FaultStats>,
    /// Lineage re-executions this stage paid for as a reader.
    pub lineage: Vec<LineageHit>,
    /// Winning task timelines of this stage.
    pub tasks: Vec<TaskTrace>,
    /// Attempt history of this stage (empty per task when fault-free).
    pub attempts: Vec<AttemptRecord>,
}

/// One journaled control-plane decision.
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
    StageComplete(Box<StageCheckpoint>),
    /// An adaptive suffix replan decision (applied or rejected).
    Replan {
        /// The decision record, as it lands on the execution trace.
        record: ReplanRecord,
        /// Suffix mask at the decision (`true` = stage not yet started).
        suffix: Vec<bool>,
        /// The spliced schedule, present iff the replan was applied.
        schedule: Option<Schedule>,
    },
    /// A failure-aware failover reschedule (frozen engine).
    Failover {
        /// Monotonic decision sequence number.
        decision_seq: u64,
        /// Failed server index.
        failed_server: u32,
        /// Failure instant, sim seconds.
        at_time: f64,
        /// Suffix mask (`true` = stage had not launched at the failure).
        suffix: Vec<bool>,
        /// The spliced hybrid schedule the suffix runs under.
        schedule: Schedule,
    },
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
    JobComplete {
        /// Final metrics of the run.
        metrics: JobMetrics,
    },
    /// A compaction snapshot: the entire durable prefix folded into one
    /// record (see [`compact_journal`](super::compact_journal)).
    Snapshot(Vec<JournalRecord>),
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

fn outcome_from_code(c: u8) -> Result<AttemptOutcome, String> {
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
    let scheduler = d.string()?;
    let dop = (0..d.u32()?).map(|_| d.u32()).collect::<Result<_, _>>()?;
    let n_groups = d.u32()?;
    let mut groups = Vec::with_capacity(n_groups as usize);
    for _ in 0..n_groups {
        let len = d.u32()?;
        let mut g = Vec::with_capacity(len as usize);
        for _ in 0..len {
            g.push(StageId(d.u32()?));
        }
        groups.push(g);
    }
    let group_of = (0..d.u32()?)
        .map(|_| d.u32().map(|v| v as usize))
        .collect::<Result<_, _>>()?;
    let colocated = dec_bools(d)?;
    let n_place = d.u32()?;
    let mut placement = Vec::with_capacity(n_place as usize);
    for _ in 0..n_place {
        placement.push(match d.u8()? {
            0 => TaskPlacement::Single(ServerId(d.u32()?)),
            1 => {
                let len = d.u32()?;
                let mut parts = Vec::with_capacity(len as usize);
                for _ in 0..len {
                    parts.push((ServerId(d.u32()?), d.u32()?));
                }
                TaskPlacement::Spread(parts)
            }
            b => return Err(format!("bad placement tag {b}")),
        });
    }
    Ok(Schedule {
        scheduler,
        dop,
        groups,
        group_of,
        colocated,
        placement,
    })
}

/// The `ScheduleCommit` fingerprint of a schedule.
pub fn schedule_fingerprint(s: &Schedule) -> u64 {
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
    (0..d.u32()?).map(|_| d.boolean()).collect()
}

fn enc_checkpoint(buf: &mut Vec<u8>, cp: &StageCheckpoint) {
    put_u32(buf, cp.stage);
    put_f64(buf, cp.end);
    put_f64(buf, cp.write_start);
    put_f64(buf, cp.read_end);
    put_f64(buf, cp.launch);
    enc_timings(buf, &cp.observed);
    enc_timings(buf, &cp.clean);
    put_u32(buf, cp.task_clean.len() as u32);
    for &t in &cp.task_clean {
        put_f64(buf, t);
    }
    put_u32(buf, cp.edge_medium.len() as u32);
    buf.extend_from_slice(&cp.edge_medium);
    put_u32(buf, cp.heal_end.len() as u32);
    for &(s, t, h) in &cp.heal_end {
        put_u32(buf, s);
        put_u32(buf, t);
        put_f64(buf, h);
    }
    put_u32(buf, cp.buckets.len() as u32);
    for b in &cp.buckets {
        enc_stats(buf, b);
    }
    put_u32(buf, cp.lineage.len() as u32);
    for h in &cp.lineage {
        enc_lineage(buf, h);
    }
    put_u32(buf, cp.tasks.len() as u32);
    for t in &cp.tasks {
        enc_task(buf, t);
    }
    put_u32(buf, cp.attempts.len() as u32);
    for a in &cp.attempts {
        enc_attempt(buf, a);
    }
}

fn dec_checkpoint(d: &mut Dec<'_>) -> Result<StageCheckpoint, String> {
    let stage = d.u32()?;
    let end = d.f64()?;
    let write_start = d.f64()?;
    let read_end = d.f64()?;
    let launch = d.f64()?;
    let observed = dec_timings(d)?;
    let clean = dec_timings(d)?;
    let task_clean = (0..d.u32()?).map(|_| d.f64()).collect::<Result<_, _>>()?;
    let n_media = d.u32()? as usize;
    let edge_medium = d.bytes(n_media)?.to_vec();
    for &c in &edge_medium {
        medium_from_code(c)?;
    }
    let n_heal = d.u32()?;
    let mut heal_end = Vec::with_capacity(n_heal as usize);
    for _ in 0..n_heal {
        heal_end.push((d.u32()?, d.u32()?, d.f64()?));
    }
    let buckets = (0..d.u32()?).map(|_| dec_stats(d)).collect::<Result<_, _>>()?;
    let lineage = (0..d.u32()?).map(|_| dec_lineage(d)).collect::<Result<_, _>>()?;
    let tasks = (0..d.u32()?).map(|_| dec_task(d)).collect::<Result<_, _>>()?;
    let attempts = (0..d.u32()?).map(|_| dec_attempt(d)).collect::<Result<_, _>>()?;
    Ok(StageCheckpoint {
        stage,
        end,
        write_start,
        read_end,
        launch,
        observed,
        clean,
        task_clean,
        edge_medium,
        heal_end,
        buckets,
        lineage,
        tasks,
        attempts,
    })
}

// ---------------------------------------------------------------------
// Record codec + framing
// ---------------------------------------------------------------------

/// Encode one record's frame payload (tag byte + fields).
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        JournalRecord::JobAdmit {
            stages,
            edges,
            engine,
            scheduler,
        } => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, *stages);
            put_u32(&mut buf, *edges);
            put_u8(&mut buf, engine.to_u8());
            put_str(&mut buf, scheduler);
        }
        JournalRecord::ScheduleCommit {
            decision_seq,
            schedule_fp,
        } => {
            put_u8(&mut buf, 2);
            put_u64(&mut buf, *decision_seq);
            put_u64(&mut buf, *schedule_fp);
        }
        JournalRecord::ObjectCommit {
            stage,
            task,
            attempt_epoch,
            value,
        } => {
            put_u8(&mut buf, 3);
            put_u32(&mut buf, *stage);
            put_u32(&mut buf, *task);
            put_u32(&mut buf, *attempt_epoch);
            put_u64(&mut buf, *value);
        }
        JournalRecord::StageComplete(cp) => {
            put_u8(&mut buf, 4);
            enc_checkpoint(&mut buf, cp);
        }
        JournalRecord::Replan {
            record,
            suffix,
            schedule,
        } => {
            put_u8(&mut buf, 5);
            enc_replan(&mut buf, record);
            enc_bools(&mut buf, suffix);
            match schedule {
                None => put_u8(&mut buf, 0),
                Some(s) => {
                    put_u8(&mut buf, 1);
                    enc_schedule(&mut buf, s);
                }
            }
        }
        JournalRecord::Failover {
            decision_seq,
            failed_server,
            at_time,
            suffix,
            schedule,
        } => {
            put_u8(&mut buf, 6);
            put_u64(&mut buf, *decision_seq);
            put_u32(&mut buf, *failed_server);
            put_f64(&mut buf, *at_time);
            enc_bools(&mut buf, suffix);
            enc_schedule(&mut buf, schedule);
        }
        JournalRecord::TaskAttempt {
            stage,
            task,
            attempt,
            outcome,
            start,
            end,
        } => {
            put_u8(&mut buf, 7);
            put_u32(&mut buf, *stage);
            put_u32(&mut buf, *task);
            put_u32(&mut buf, *attempt);
            put_u8(&mut buf, *outcome);
            put_f64(&mut buf, *start);
            put_f64(&mut buf, *end);
        }
        JournalRecord::JobComplete { metrics } => {
            put_u8(&mut buf, 8);
            enc_metrics(&mut buf, metrics);
        }
        JournalRecord::Snapshot(inner) => {
            put_u8(&mut buf, 9);
            put_u32(&mut buf, inner.len() as u32);
            for rec in inner {
                let payload = encode_record(rec);
                put_u32(&mut buf, payload.len() as u32);
                buf.extend_from_slice(&payload);
            }
        }
    }
    buf
}

/// Decode one frame payload back into a record. Errors (including
/// trailing garbage after a well-formed record) mean an encoder bug or
/// memory corruption *inside* a CRC-valid frame — callers treat that as a
/// hard journal error, not a torn tail.
pub fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut d = Dec::new(payload);
    let rec = decode_record_inner(&mut d)?;
    if !d.finished() {
        return Err(format!(
            "{} trailing bytes after record",
            payload.len() - d.pos
        ));
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
        5 => {
            let record = dec_replan(d)?;
            let suffix = dec_bools(d)?;
            let schedule = match d.u8()? {
                0 => None,
                1 => Some(dec_schedule(d)?),
                b => return Err(format!("bad option tag {b}")),
            };
            Ok(JournalRecord::Replan {
                record,
                suffix,
                schedule,
            })
        }
        6 => Ok(JournalRecord::Failover {
            decision_seq: d.u64()?,
            failed_server: d.u32()?,
            at_time: d.f64()?,
            suffix: dec_bools(d)?,
            schedule: dec_schedule(d)?,
        }),
        7 => Ok(JournalRecord::TaskAttempt {
            stage: d.u32()?,
            task: d.u32()?,
            attempt: d.u32()?,
            outcome: d.u8()?,
            start: d.f64()?,
            end: d.f64()?,
        }),
        8 => Ok(JournalRecord::JobComplete {
            metrics: dec_metrics(d)?,
        }),
        9 => {
            let count = d.u32()?;
            let mut inner = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let len = d.u32()? as usize;
                let raw = d.bytes(len)?;
                inner.push(decode_record(raw)?);
            }
            Ok(JournalRecord::Snapshot(inner))
        }
        b => Err(format!("unknown record tag {b}")),
    }
}

/// Flatten a record stream: compaction snapshots expand in place.
pub(super) fn flatten(records: &[JournalRecord]) -> Vec<JournalRecord> {
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        match rec {
            JournalRecord::Snapshot(inner) => out.extend(inner.iter().cloned()),
            other => out.push(other.clone()),
        }
    }
    out
}

