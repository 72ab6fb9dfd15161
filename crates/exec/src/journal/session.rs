//! Writing and resuming a journal: the batched crash-armed
//! [`JournalWriter`] and the per-job [`JournalSession`] (write-ahead on
//! the way out, replay on the way back).

use super::frame::{decode_journal, frame_with, TornTail, JOURNAL_MAGIC, JOURNAL_VERSION};
use super::record::{
    enc_failover_decision, enc_replan_decision, enc_stage_complete, encode_record_into,
    medium_code, medium_from_code, outcome_code, schedule_fingerprint, EngineKind,
    FailoverDecision, JournalRecord, ReplanDecision, StageCheckpoint,
};
use crate::adaptive::ReplanRecord;
use crate::error::ExecError;
use crate::faults::{AttemptOutcome, AttemptRecord, FaultStats, SimState, StageMark};
use crate::metrics::JobMetrics;
use ditto_core::Schedule;
use ditto_dag::{JobDag, StageId};
use ditto_obs::{Recorder, Track};
use ditto_storage::{CommitLedger, CommitOutcome};
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------
// Batched crash-armed writer
// ---------------------------------------------------------------------

/// The single batched journal writer the simulator and the runner append
/// through.
///
/// In-memory durable buffer standing in for an fsync'd file (the crate
/// has no I/O); `crash_at` arms a seeded coordinator crash that kills the
/// append of record `n` half-way through its frame — the torn tail
/// [`decode_journal`] must detect and truncate.
#[derive(Debug)]
pub(crate) struct JournalWriter {
    buf: Vec<u8>,
    records_written: u64,
    crash_at: Option<u64>,
}

impl JournalWriter {
    /// Fresh journal (header only), optionally armed to crash at the
    /// `crash_at`-th appended record (0-based).
    pub(crate) fn new(crash_at: Option<u64>) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&JOURNAL_MAGIC);
        buf.push(JOURNAL_VERSION);
        JournalWriter {
            buf,
            records_written: 0,
            crash_at,
        }
    }

    /// Resume appending to a durable prefix of `records` intact records.
    /// Deliberately *not* re-armed: a recovered coordinator crashing at
    /// the same record forever would never finish.
    pub(crate) fn from_durable(bytes: Vec<u8>, records: u64) -> Self {
        JournalWriter {
            buf: bytes,
            records_written: records,
            crash_at: None,
        }
    }

    /// Append one record. If the armed crash point is this record, half
    /// of its frame is written (a torn tail) and the append fails with
    /// [`ExecError::CoordinatorCrash`].
    pub(crate) fn append(&mut self, rec: &JournalRecord) -> Result<(), ExecError> {
        self.append_with(|buf| encode_record_into(buf, rec))
    }

    /// [`Self::append`] of the record whose payload `encode` writes: the
    /// frame is built in the journal's own buffer, and the armed crash
    /// cuts it back to its first half.
    fn append_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), ExecError> {
        let start = frame_with(&mut self.buf, encode);
        if self.crash_at == Some(self.records_written) {
            self.buf.truncate(start + (self.buf.len() - start) / 2);
            return Err(ExecError::CoordinatorCrash {
                at_record: self.records_written,
            });
        }
        self.records_written += 1;
        Ok(())
    }

    /// The journal bytes, including any torn tail after a crash.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Records successfully appended.
    pub(crate) fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Arm (or re-arm) a crash at appended-record index `at`.
    #[cfg(test)]
    pub(crate) fn arm_crash(&mut self, at: u64) {
        self.crash_at = Some(at);
    }
}

// ---------------------------------------------------------------------
// Journal session: write-ahead on the way out, replay on the way back
// ---------------------------------------------------------------------

/// One job's journal session: wraps the `JournalWriter` with the replay
/// state decoded from a durable prefix. A fresh session journals every
/// decision as it happens; a resumed session restores checkpointed
/// stages, deduplicates re-delivered object commits through the
/// [`CommitLedger`], and substitutes journaled replan/failover decisions
/// for the optimizer calls they gate.
#[derive(Debug)]
pub struct JournalSession {
    writer: JournalWriter,
    resumed: bool,
    admit: Option<(u32, u32, EngineKind, String)>,
    schedule_fp: Option<u64>,
    checkpoints: BTreeMap<u32, Box<StageCheckpoint<'static>>>,
    replans: VecDeque<Box<ReplanDecision>>,
    failover: Option<Box<FailoverDecision>>,
    completed: Option<JobMetrics>,
    ledger: CommitLedger,
    torn: Option<TornTail>,
    deduped: u64,
    restored_stages: u32,
    /// Ordinal of the next checkpoint this run restores or writes.
    next_ordinal: u32,
    replayed_commits: u64,
    replay_total: usize,
    /// The delta sections of the checkpoint being written, gathered here
    /// so a stage costs no allocation once they have grown.
    delta_media: Vec<(u32, u8)>,
    delta_heal: Vec<(u32, u32, f64)>,
    delta_buckets: Vec<(u32, FaultStats)>,
}

impl JournalSession {
    /// Fresh session (empty journal), optionally armed to crash at
    /// appended-record index `crash_at`.
    pub fn fresh(crash_at: Option<u64>) -> Self {
        JournalSession {
            writer: JournalWriter::new(crash_at),
            resumed: false,
            admit: None,
            schedule_fp: None,
            checkpoints: BTreeMap::new(),
            replans: VecDeque::new(),
            failover: None,
            completed: None,
            ledger: CommitLedger::new(),
            torn: None,
            deduped: 0,
            restored_stages: 0,
            next_ordinal: 0,
            replayed_commits: 0,
            replay_total: 0,
            delta_media: Vec::new(),
            delta_heal: Vec::new(),
            delta_buckets: Vec::new(),
        }
    }

    /// Resume from journal bytes: decode the durable prefix (truncating
    /// any torn tail), replay object commits into the ledger, and stage
    /// checkpoints / replans / failover for replay. The crash arming is
    /// deliberately *not* restored.
    pub fn resume(bytes: &[u8]) -> Result<Self, ExecError> {
        let decoded = decode_journal(bytes)?;
        let mut session = JournalSession {
            writer: JournalWriter::from_durable(
                bytes[..decoded.durable_len].to_vec(),
                decoded.records.len() as u64,
            ),
            resumed: true,
            torn: decoded.torn,
            ..Self::fresh(None)
        };
        for rec in decoded.records {
            match rec {
                JournalRecord::JobAdmit {
                    stages,
                    edges,
                    engine,
                    scheduler,
                } => {
                    // The decoder checked every checkpoint against the
                    // admission before it; a second one would un-check them.
                    if session.admit.is_some() {
                        return Err(ExecError::Journal("journal admits a job twice".into()));
                    }
                    session.admit = Some((stages, edges, engine, scheduler));
                }
                JournalRecord::ScheduleCommit { schedule_fp, .. } => {
                    session.schedule_fp = Some(schedule_fp)
                }
                JournalRecord::ObjectCommit {
                    stage,
                    task,
                    attempt_epoch,
                    value,
                } => match session.ledger.commit(stage, task, attempt_epoch, value) {
                    CommitOutcome::Committed => session.replayed_commits += 1,
                    CommitOutcome::Duplicate => {}
                    CommitOutcome::Conflict { expected, actual } => {
                        return Err(ExecError::Journal(format!(
                            "journal commits s{stage}.t{task}@{attempt_epoch} twice with different values ({expected:#x} vs {actual:#x})"
                        )));
                    }
                },
                JournalRecord::StageComplete(cp) => {
                    if cp.ordinal as usize != session.checkpoints.len() {
                        return Err(ExecError::Journal(format!(
                            "checkpoint of stage {} has ordinal {} but is number {} in the journal: checkpoints are out of order",
                            cp.stage, cp.ordinal, session.checkpoints.len()
                        )));
                    }
                    session.checkpoints.insert(cp.stage, cp);
                }
                JournalRecord::Replan(d) => session.replans.push_back(d),
                JournalRecord::Failover(d) => session.failover = Some(d),
                JournalRecord::JobComplete(metrics) => session.completed = Some(*metrics),
                JournalRecord::TaskAttempt { .. } => {}
            }
        }
        session.replay_total = session.replans.len();
        Ok(session)
    }

    /// The journal bytes as durable so far (torn tail included on a fresh
    /// crashed session; truncated to the durable prefix on resume).
    pub fn durable_bytes(&self) -> &[u8] {
        self.writer.bytes()
    }

    /// Records successfully appended to the journal.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Re-delivered object commits deduplicated during re-execution.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Stages restored from checkpoints instead of re-simulated.
    pub fn restored_stages(&self) -> u32 {
        self.restored_stages
    }

    /// Torn-tail provenance of the resumed journal, if any.
    #[cfg(test)]
    pub(crate) fn torn(&self) -> Option<TornTail> {
        self.torn
    }

    /// Object commits replayed from the durable prefix on resume.
    #[cfg(test)]
    pub(crate) fn replayed_commits(&self) -> u64 {
        self.replayed_commits
    }

    /// Arm a coordinator crash at appended-record index `at` (tests use
    /// this to exercise double crashes on a resumed session).
    #[cfg(test)]
    pub(crate) fn arm_crash(&mut self, at: u64) {
        self.writer.arm_crash(at);
    }

    /// Open (or verify) the job: journals `JobAdmit` + `ScheduleCommit`
    /// on a fresh session, verifies DAG shape / engine / schedule
    /// fingerprint against the journal on a resumed one, and announces
    /// the resume on the scheduler track. Call once per run, before any
    /// stage executes.
    pub(crate) fn begin(
        &mut self,
        dag: &JobDag,
        engine: EngineKind,
        schedule: &Schedule,
        obs: &Recorder,
    ) -> Result<(), ExecError> {
        let (stages, edges) = (dag.num_stages() as u32, dag.num_edges() as u32);
        match &self.admit {
            Some((s0, e0, k0, name)) => {
                if *s0 != stages || *e0 != edges || *k0 != engine || name != &schedule.scheduler {
                    return Err(ExecError::Journal(format!(
                        "journal admitted a different job: {} stages / {} edges / {} engine / scheduler {:?}, resume offered {} / {} / {} / {:?}",
                        s0, e0, k0.label(), name, stages, edges, engine.label(), schedule.scheduler
                    )));
                }
            }
            None => {
                self.writer.append(&JournalRecord::JobAdmit {
                    stages,
                    edges,
                    engine,
                    scheduler: schedule.scheduler.clone(),
                })?;
                self.admit = Some((stages, edges, engine, schedule.scheduler.clone()));
            }
        }
        let fp = schedule_fingerprint(schedule);
        match self.schedule_fp {
            Some(stored) if stored != fp => {
                return Err(ExecError::Journal(format!(
                    "schedule fingerprint mismatch: journal committed {stored:#018x}, resume offered {fp:#018x}"
                )));
            }
            Some(_) => {}
            None => {
                self.writer.append(&JournalRecord::ScheduleCommit {
                    decision_seq: 0,
                    schedule_fp: fp,
                })?;
                self.schedule_fp = Some(fp);
            }
        }
        if self.resumed && obs.is_enabled() {
            obs.event(
                "recovery.resume",
                Track::scheduler(0),
                0.0,
                vec![
                    ("resumed_stages", (self.checkpoints.len() as u64).into()),
                    ("replayed_commits", self.replayed_commits.into()),
                    ("replayed_replans", (self.replay_total as u64).into()),
                    ("torn", (self.torn.is_some() as u64).into()),
                    ("torn_at", self.torn.map_or(0, |t| t.at_record).into()),
                ],
            );
        }
        Ok(())
    }

    /// If stage `s` has a journaled checkpoint, restore it into `state`
    /// (timeline gates, trace and lineage rows, and the checkpoint's delta
    /// of fault buckets, edge media and heal entries) and return `true`;
    /// otherwise return `false` and the caller re-simulates. Either way
    /// the stage's rows sit past the caller's `SimState::mark`, which is
    /// all the telemetry emitter reads — a restored stage reports exactly
    /// what the live one did. Deltas only add up to the crashed run's
    /// state in the order they were written, so a checkpoint whose ordinal
    /// is not this run's next one is a hard error.
    pub(crate) fn try_restore(
        &mut self,
        s: StageId,
        state: &mut SimState,
    ) -> Result<bool, ExecError> {
        let Some(cp) = self.checkpoints.remove(&s.0) else {
            return Ok(false);
        };
        if cp.ordinal != self.next_ordinal {
            return Err(ExecError::Journal(format!(
                "checkpoint of stage {} has ordinal {} but the run is at checkpoint {}: journal checkpoints are out of order",
                s.0, cp.ordinal, self.next_ordinal
            )));
        }
        let cp = *cp;
        let i = s.index();
        state.stage_end[i] = cp.end;
        state.stage_write_start[i] = cp.write_start;
        state.stage_read_end[i] = cp.read_end;
        state.stage_launch[i] = cp.launch;
        state.stage_observed[i] = cp.observed;
        state.stage_clean[i] = cp.clean;
        state.task_clean_time[i] = cp.task_clean.into_owned();
        // Indices and codes were range-checked by `decode_journal` against
        // the admitted shape, and `begin` held that shape to the DAG's.
        for &(e, code) in cp.edge_medium.iter() {
            state.edge_medium[e as usize] = medium_from_code(code).unwrap_or(None);
        }
        for &(a, b, h) in cp.heal_end.iter() {
            state.heal_end.insert((a, b), h);
        }
        for &(b, stats) in cp.buckets.iter() {
            state.stage_stats[b as usize] = stats;
        }
        state.lineage_log.extend_from_slice(&cp.lineage);
        state.trace.tasks.extend_from_slice(&cp.tasks);
        state.trace.attempts.extend_from_slice(&cp.attempts);
        self.restored_stages += 1;
        self.next_ordinal += 1;
        Ok(true)
    }

    /// Exactly-once gate for a (re-)delivered object commit: `true` if it
    /// is new to the ledger and must be journaled, `false` (counted in
    /// [`Self::deduped`]) if the durable journal already holds it; the
    /// same epoch committing a different value is a hard error.
    fn commit_once(
        &mut self,
        stage: u32,
        task: u32,
        epoch: u32,
        value: u64,
    ) -> Result<bool, ExecError> {
        match self.ledger.commit(stage, task, epoch, value) {
            CommitOutcome::Committed => Ok(true),
            CommitOutcome::Duplicate => {
                self.deduped += 1;
                Ok(false)
            }
            CommitOutcome::Conflict { expected, actual } => Err(ExecError::Journal(format!(
                "re-executed s{stage}.t{task}@{epoch} produced {actual:#x}, journal committed {expected:#x}"
            ))),
        }
    }

    /// Journal a just-simulated stage: one exactly-once `ObjectCommit`
    /// per task (re-deliveries against the ledger are deduplicated, value
    /// conflicts are hard errors) followed by its `StageComplete`
    /// checkpoint, both taken from the stage's rows past `mark` and
    /// encoded from where they lie. Write-ahead: appends happen before the
    /// engine proceeds, so a crash can tear at any decision boundary.
    pub(crate) fn record_stage(
        &mut self,
        dag: &JobDag,
        s: StageId,
        state: &SimState,
        mark: StageMark,
    ) -> Result<(), ExecError> {
        // `sim_stage` appends a stage's attempt rows task by task, in task
        // order, so one walk finds each task's surviving epoch.
        let mut attempts = state.trace.attempts[mark.attempts..].iter().peekable();
        for tt in &state.trace.tasks[mark.tasks..] {
            let mut epoch = 0;
            while let Some(a) = attempts.next_if(|a| a.task == tt.task) {
                if a.outcome == AttemptOutcome::Completed {
                    epoch = a.attempt;
                }
            }
            let value = tt.end.to_bits();
            if self.commit_once(s.0, tt.task, epoch, value)? {
                self.writer.append(&JournalRecord::ObjectCommit {
                    stage: s.0,
                    task: tt.task,
                    attempt_epoch: epoch,
                    value,
                })?;
            }
        }
        // The delta: exactly what `sim_stage(s)` can have written outside
        // the stage's own rows — the media of its in-edges, its own bucket
        // and its producers' (lineage charges), one heal entry per
        // lineage re-execution it paid.
        let bucket = |b: StageId| (b.0, state.stage_stats[b.index()]);
        self.delta_media.clear();
        self.delta_buckets.clear();
        self.delta_buckets.push(bucket(s));
        for e in dag.in_edges(s) {
            self.delta_media
                .push((e.id.0, medium_code(state.edge_medium[e.id.index()])));
            self.delta_buckets.push(bucket(e.src));
        }
        let lineage = &state.lineage_log[mark.lineage..];
        self.delta_heal.clear();
        self.delta_heal.extend(
            lineage
                .iter()
                .map(|h| (h.src_stage, h.src_task, state.heal_end[&(h.src_stage, h.src_task)])),
        );
        let i = s.index();
        let cp = StageCheckpoint {
            stage: s.0,
            ordinal: self.next_ordinal,
            end: state.stage_end[i],
            write_start: state.stage_write_start[i],
            read_end: state.stage_read_end[i],
            launch: state.stage_launch[i],
            observed: state.stage_observed[i],
            clean: state.stage_clean[i],
            task_clean: state.task_clean_time[i].as_slice().into(),
            edge_medium: self.delta_media.as_slice().into(),
            heal_end: self.delta_heal.as_slice().into(),
            buckets: self.delta_buckets.as_slice().into(),
            lineage: lineage.into(),
            tasks: state.trace.tasks[mark.tasks..].into(),
            attempts: state.trace.attempts[mark.attempts..].into(),
        };
        self.writer.append_with(|buf| enc_stage_complete(buf, &cp))?;
        self.next_ordinal += 1;
        Ok(())
    }

    /// Journal one *physical* task's outcome (the runner engine): its
    /// faulted-attempt history (`attempts` holds this task's attempts
    /// only) plus the object commit of its output
    /// checksum, deduplicated through the ledger. Returns whether the
    /// commit was fresh — `false` means the durable journal already holds
    /// this task's output (re-execution after a crash) and nothing was
    /// appended. A same-epoch commit with a different checksum is a hard
    /// exactly-once violation.
    pub(crate) fn record_physical_task(
        &mut self,
        stage: u32,
        task: u32,
        attempt_epoch: u32,
        value: u64,
        attempts: &[AttemptRecord],
    ) -> Result<bool, ExecError> {
        if !self.commit_once(stage, task, attempt_epoch, value)? {
            return Ok(false);
        }
        debug_assert!(
            attempts.iter().all(|a| a.stage == stage && a.task == task),
            "record_physical_task takes only task ({stage}, {task})'s own attempts"
        );
        for a in attempts {
            self.writer.append(&JournalRecord::TaskAttempt {
                stage,
                task,
                attempt: a.attempt,
                outcome: outcome_code(a.outcome),
                start: a.start,
                end: a.end,
            })?;
        }
        self.writer.append(&JournalRecord::ObjectCommit {
            stage,
            task,
            attempt_epoch,
            value,
        })?;
        Ok(true)
    }

    /// If the front of the replay queue is a replan decided at exactly
    /// this `(stage, bit-exact sim time)` decision point, pop and return
    /// it for substitution.
    pub(crate) fn next_replan_for(
        &mut self,
        at_stage: u32,
        now: f64,
    ) -> Option<ReplanDecision> {
        let front = &self.replans.front()?.record;
        if front.at_stage == at_stage && front.sim_time.to_bits() == now.to_bits() {
            self.replans.pop_front().map(|d| *d)
        } else {
            None
        }
    }

    /// Journal a live replan decision. Erroring while journaled replans
    /// remain unreplayed means the resumed run diverged from the journal.
    pub(crate) fn append_replan(
        &mut self,
        record: &ReplanRecord,
        suffix: &[bool],
        schedule: Option<&Schedule>,
    ) -> Result<(), ExecError> {
        if !self.replans.is_empty() {
            return Err(ExecError::Journal(format!(
                "resumed run diverged: new replan at stage {} while {} journaled replans remain unreplayed",
                record.at_stage,
                self.replans.len()
            )));
        }
        self.writer
            .append_with(|buf| enc_replan_decision(buf, record, suffix, schedule))
    }

    /// Take the journaled failover decision for replay, if any.
    pub(crate) fn take_failover(&mut self) -> Option<FailoverDecision> {
        self.failover.take().map(|d| *d)
    }

    /// Journal a live failover decision (frozen engine).
    pub(crate) fn append_failover(&mut self, decision: &FailoverDecision) -> Result<(), ExecError> {
        if self.failover.is_some() {
            return Err(ExecError::Journal(
                "resumed run diverged: live failover while a journaled one is unreplayed".into(),
            ));
        }
        self.writer
            .append_with(|buf| enc_failover_decision(buf, decision))
    }

    /// Close the job: journals `JobComplete` on a fresh run; on a resumed
    /// run that already completed, verifies the recomputed metrics equal
    /// the journaled ones bit for bit.
    pub(crate) fn finish(&mut self, metrics: &JobMetrics) -> Result<(), ExecError> {
        if let Some(done) = self.completed {
            if done != *metrics {
                return Err(ExecError::Journal(
                    "recovered final metrics differ from the journaled job-complete record".into(),
                ));
            }
            return Ok(());
        }
        self.writer
            .append(&JournalRecord::JobComplete(Box::new(*metrics)))?;
        self.completed = Some(*metrics);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Recovery surface
// ---------------------------------------------------------------------

