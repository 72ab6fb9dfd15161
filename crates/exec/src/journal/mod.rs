//! Control-plane write-ahead journal and crash recovery.
//!
//! Ditto's scheduler (§4) is a single coordinator: every schedule commit,
//! replan splice, failover and object commit is one process's decision,
//! and losing that process loses the job. This module makes the control
//! plane durable: an [`Engine`](crate::Engine) configured with
//! [`.journal(session)`](crate::Engine::journal) (and the physical
//! runner) writes an append-only, CRC-checksummed, length-prefixed journal
//! of its decisions through one batched `JournalWriter`, and
//! [`JournalSession::resume`] rebuilds engine state from the
//! durable prefix so a crashed job *resumes* from its last completed
//! stage instead of restarting.
//!
//! Format (v2): a 9-byte header (`DITTOWAL` + version) followed by frames
//! of `[len: u32 LE][crc64: u64 LE][payload]`, where `crc64` is
//! [`checksum64`](ditto_storage::checksum64) (the XXH64 schedule) of the
//! payload. A coordinator crash can tear the tail mid-frame;
//! [`decode_journal`] detects the torn tail (truncation, bad length, or
//! checksum mismatch) with exact record-index provenance and truncates
//! recovery to the durable prefix. A `StageComplete` checkpoint carries
//! the stage's own rows whole and, of the state stages share (fault
//! buckets, edge media, heal map), only the entries that stage can have
//! written — a delta against the checkpoint before it, stamped with an
//! ordinal and applied strictly in that order (see `StageCheckpoint`).
//! A v1 journal (whole vectors per checkpoint) is rejected by version.
//!
//! Cost: a record is encoded once, straight into the journal's buffer
//! behind a frame head that is then patched (`JournalWriter::append`);
//! checkpoints are encoded from borrowed `SimState` rows; the commit
//! ledger is keyed by integers. Every length a payload announces is
//! checked against the bytes left before anything is allocated for it,
//! and every index a checkpoint's restore would use against the admitted
//! job shape — the checksum seed is public, so a CRC-valid frame is not a
//! trusted one.
//!
//! Layout: `frame` (header, framing, torn-tail decode) · `record`
//! ([`JournalRecord`] and its `enc_*`/`dec_*` codec) · `session`
//! (`JournalWriter`, [`JournalSession`]) · `check`
//! ([`validate_journal`], [`cross_check`]).
//!
//! Recovery invariants (DESIGN.md §6k):
//!
//! * **exactly-once commits** — re-execution after a crash is
//!   at-least-once; the [`CommitLedger`](ditto_storage::CommitLedger)
//!   keyed by `(stage, task, attempt_epoch)` deduplicates re-delivered
//!   commits and hard-fails on value conflicts;
//! * **bit-identical results** — restored stages replay checkpointed
//!   state (`StageCheckpoint`, in ordinal order) and re-simulated suffix
//!   stages run the same deterministic engine, so final metrics, task
//!   timelines and replan decisions equal the crash-free run bit for bit;
//!   a restored stage's telemetry comes from the same emitter as a live
//!   one's, fed the same rows;
//! * **replayed decisions, re-run gates** — on resume an adaptive run
//!   re-runs its drift gates deterministically and substitutes journaled
//!   `ReplanRecord`s for the optimizer calls they
//!   gate, so a replayed splice is applied without re-optimizing (bounded
//!   recovery work) and any divergence from the journal is a hard
//!   [`ExecError::Journal`](crate::ExecError::Journal).

mod check;
mod frame;
mod record;
mod session;

pub use check::{cross_check, validate_journal};
pub use frame::{decode_journal, JOURNAL_SEED};
pub use record::JournalRecord;
pub(crate) use record::{EngineKind, FailoverDecision, LineageHit, ReplanDecision};
pub use session::JournalSession;

/// The attempt log a journal holds, as `(stage, task, attempt, outcome)`
/// in journal order: the runner's tests read its attempts from here.
#[cfg(test)]
pub(crate) fn attempt_log(bytes: &[u8]) -> Vec<(u32, u32, u32, crate::AttemptOutcome)> {
    decode_journal(bytes)
        .unwrap()
        .records
        .into_iter()
        .filter_map(|r| match r {
            JournalRecord::TaskAttempt {
                stage,
                task,
                attempt,
                outcome,
                ..
            } => Some((stage, task, attempt, record::outcome_from_code(outcome).unwrap())),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::frame::{frame_with, TornReason, MAX_FRAME};
    use super::record::{
        decode_record, encode_record, outcome_code, schedule_fingerprint, StageCheckpoint,
    };
    use super::session::JournalWriter;
    use super::*;
    use crate::adaptive::{ReplanRecord, ReplanTrigger};
    use crate::engine::Engine;
    use crate::error::ExecError;
    use crate::faults::{
        AttemptOutcome, AttemptRecord, FaultPlan, FaultStats, RecoveryPolicy, ReschedulingContext,
    };
    use crate::groundtruth::{ExecConfig, GroundTruth};
    use crate::metrics::JobMetrics;
    use crate::trace::{ExecutionTrace, TaskTrace};
    use ditto_cluster::{ResourceManager, ServerId};
    use ditto_core::{
        DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
    };
    use ditto_dag::{JobDag, StageId};
    use ditto_obs::{Recorder, StepTimings};
    use ditto_timemodel::StepCorrections;
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn fixture(
        free: &[u32],
    ) -> (
        JobDag,
        JobTimeModel,
        ResourceManager,
        Schedule,
        GroundTruth,
    ) {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        (dag, model, rm, schedule, GroundTruth::new(ExecConfig::default()))
    }

    fn ctx<'a>(model: &'a JobTimeModel, rm: &'a ResourceManager) -> ReschedulingContext<'a> {
        ReschedulingContext {
            model,
            resources: rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        }
    }

    fn sample_checkpoint() -> StageCheckpoint<'static> {
        StageCheckpoint {
            stage: 3,
            ordinal: 2,
            end: 12.5,
            write_start: 10.0,
            read_end: 4.5,
            launch: 1.25,
            observed: StepTimings {
                setup: 0.5,
                read: 1.0,
                compute: 2.0,
                write: 0.75,
            },
            clean: StepTimings {
                setup: 0.5,
                read: 0.9,
                compute: 1.8,
                write: 0.7,
            },
            task_clean: vec![3.0, 3.5].into(),
            edge_medium: vec![(0, 0), (4, 2), (6, 255)].into(),
            heal_end: vec![(1, 0, 9.5)].into(),
            buckets: vec![
                (3, FaultStats::default()),
                (
                    1,
                    FaultStats {
                        lineage_reexecs: 1,
                        wasted_gb_s: 0.75,
                        ..FaultStats::default()
                    },
                ),
            ]
            .into(),
            lineage: vec![LineageHit {
                reader_stage: 3,
                src_stage: 1,
                src_task: 0,
                corrupt: true,
                detect_at: 4.0,
                reexec_s: 1.5,
            }]
            .into(),
            tasks: vec![TaskTrace {
                stage: 3,
                task: 0,
                server: ServerId(1),
                launch: 1.25,
                read_start: 1.5,
                compute_start: 2.5,
                write_start: 10.0,
                end: 12.5,
                memory_gb: 2.0,
            }]
            .into(),
            attempts: vec![AttemptRecord {
                stage: 3,
                task: 0,
                attempt: 1,
                server: ServerId(1),
                start: 1.25,
                end: 12.5,
                outcome: AttemptOutcome::Completed,
                wasted_gb_s: 0.25,
                speculative: false,
            }]
            .into(),
        }
    }

    fn sample_records(schedule: &Schedule) -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobAdmit {
                stages: 8,
                edges: 7,
                engine: EngineKind::Adaptive,
                scheduler: "ditto".into(),
            },
            JournalRecord::ScheduleCommit {
                decision_seq: 0,
                schedule_fp: schedule_fingerprint(schedule),
            },
            JournalRecord::ObjectCommit {
                stage: 0,
                task: 1,
                attempt_epoch: 2,
                value: 0xDEAD_BEEF,
            },
            JournalRecord::StageComplete(Box::new(sample_checkpoint())),
            JournalRecord::Replan(Box::new(ReplanDecision {
                record: ReplanRecord {
                    trigger: ReplanTrigger::Drift,
                    at_stage: 2,
                    sim_time: 7.5,
                    factor: 1.8,
                    corrections: StepCorrections {
                        read: 1.0,
                        compute: 1.9,
                        write: 1.1,
                    },
                    suffix_stages: 3,
                    old_predicted_jct: 20.0,
                    new_predicted_jct: 15.0,
                    risk_penalty: 0.4,
                    audit_clean: true,
                    applied: true,
                    decision_seq: 1,
                },
                suffix: vec![false, false, true, true],
                schedule: Some(schedule.clone()),
            })),
            JournalRecord::Failover(Box::new(FailoverDecision {
                decision_seq: 2,
                failed_server: 1,
                at_time: 3.25,
                suffix: vec![false, true],
                schedule: schedule.clone(),
            })),
            JournalRecord::TaskAttempt {
                stage: 1,
                task: 0,
                attempt: 0,
                outcome: outcome_code(AttemptOutcome::Crashed),
                start: 0.5,
                end: 1.5,
            },
            JournalRecord::JobComplete(Box::new(JobMetrics {
                jct: 42.0,
                compute_cost: 1.5,
                storage_cost: 0.25,
                faults: FaultStats::default(),
            })),
        ]
    }

    // -- codec ---------------------------------------------------------

    #[test]
    fn record_codec_roundtrips_every_variant() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        // The schedule- and checkpoint-carrying variants are boxed: a
        // decoded journal is a dense vector of few-word records.
        assert!(std::mem::size_of::<JournalRecord>() <= 40);
        for rec in &records {
            let bytes = encode_record(rec);
            let back = decode_record(&bytes).expect("roundtrip decode");
            assert_eq!(
                bytes,
                encode_record(&back),
                "re-encode must be byte-identical for {rec:?}"
            );
        }
    }

    #[test]
    fn decoder_rejects_trailing_garbage_and_bad_bool() {
        let rec = JournalRecord::ObjectCommit {
            stage: 0,
            task: 0,
            attempt_epoch: 0,
            value: 1,
        };
        let mut bytes = encode_record(&rec);
        bytes.push(0xAB);
        assert!(
            decode_record(&bytes).is_err(),
            "trailing garbage must be a hard decode error"
        );
        // A bool byte outside {0, 1} is rejected, not coerced.
        let rep = JournalRecord::Replan(Box::new(ReplanDecision {
            record: ReplanRecord {
                trigger: ReplanTrigger::Drift,
                at_stage: 0,
                sim_time: 0.0,
                factor: 1.0,
                corrections: StepCorrections {
                    read: 1.0,
                    compute: 1.0,
                    write: 1.0,
                },
                suffix_stages: 1,
                old_predicted_jct: 1.0,
                new_predicted_jct: 1.0,
                risk_penalty: 0.0,
                audit_clean: true,
                applied: false,
                decision_seq: 1,
            },
            suffix: vec![true],
            schedule: None,
        }));
        let good = encode_record(&rep);
        for (i, b) in good.iter().enumerate() {
            if *b == 1u8 {
                let mut bad = good.clone();
                bad[i] = 7;
                // Either a decode error or a re-encode difference: a
                // flipped byte can never round-trip silently.
                if let Ok(back) = decode_record(&bad) {
                    assert_ne!(encode_record(&back), good);
                }
            }
        }
    }

    // -- torn-tail classification -------------------------------------

    fn journal_with(records: &[JournalRecord]) -> Vec<u8> {
        let mut w = JournalWriter::new(None);
        for r in records {
            w.append(r).unwrap();
        }
        w.bytes().to_vec()
    }

    #[test]
    fn torn_tail_truncation_classified_with_provenance() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let full = journal_with(&records);
        let durable = journal_with(&records[..2]);
        // Cut inside the third frame: header-only and mid-payload cuts.
        for cut in [durable.len() + 6, durable.len() + 14] {
            let decoded = decode_journal(&full[..cut]).unwrap();
            assert_eq!(decoded.records.len(), 2);
            let torn = decoded.torn.expect("cut mid-frame is torn");
            assert_eq!(torn.at_record, 2, "provenance is the record index");
            assert_eq!(torn.byte_offset, durable.len(), "durable prefix length");
            assert_eq!(torn.reason, TornReason::Truncated);
            assert_eq!(decoded.durable_len, durable.len());
        }
    }

    #[test]
    fn torn_tail_checksum_mismatch_classified() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let durable = journal_with(&records[..3]);
        let mut bytes = journal_with(&records[..4]);
        // Flip one byte of the last frame's stored CRC.
        bytes[durable.len() + 4] ^= 0xFF;
        let decoded = decode_journal(&bytes).unwrap();
        assert_eq!(decoded.records.len(), 3);
        let torn = decoded.torn.unwrap();
        assert_eq!(torn.at_record, 3);
        assert_eq!(torn.byte_offset, durable.len());
        assert_eq!(torn.reason, TornReason::ChecksumMismatch);
    }

    #[test]
    fn torn_tail_bad_length_classified() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let durable = journal_with(&records[..2]);
        for bad_len in [0u32, (MAX_FRAME as u32) + 1] {
            let mut bytes = durable.clone();
            bytes.extend_from_slice(&bad_len.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            let decoded = decode_journal(&bytes).unwrap();
            assert_eq!(decoded.records.len(), 2);
            let torn = decoded.torn.unwrap();
            assert_eq!(torn.at_record, 2);
            assert_eq!(torn.byte_offset, durable.len());
            assert_eq!(torn.reason, TornReason::BadLength);
        }
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert!(decode_journal(b"NOTAWAL!x").is_err());
        let mut bytes = journal_with(&[]);
        bytes[8] = 99; // unknown version
        assert!(decode_journal(&bytes).is_err());
        assert!(decode_journal(&bytes[..4]).is_err(), "short header");
        // Format v1 (whole-vector checkpoints) is rejected by name, not
        // misread as v2: no v1 reader is kept.
        bytes[8] = 1;
        let err = decode_journal(&bytes).unwrap_err().to_string();
        assert!(err.contains("unsupported journal version 1"), "{err}");
        assert!(JournalSession::resume(&bytes).is_err());
    }

    #[test]
    fn hostile_lengths_and_indices_are_decode_errors_not_aborts() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        // Every length field of every variant, inflated inside a frame
        // whose CRC is then valid: the decoder must answer `Err` before
        // it allocates for the count (4 G elements would abort).
        for rec in &records {
            let good = encode_record(rec);
            for at in 1..good.len().saturating_sub(3) {
                let mut bad = good.clone();
                bad[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
                let mut bytes = journal_with(&records[..2]);
                frame_with(&mut bytes, |buf| buf.extend_from_slice(&bad));
                match decode_journal(&bytes) {
                    Ok(d) => assert!(d.records.len() == 3 && d.torn.is_none()),
                    Err(e) => assert!(matches!(e, ExecError::Journal(_)), "{e}"),
                }
            }
        }
        // A delta naming a bucket or an edge outside the admitted shape
        // (8 stages, 7 edges) fails the decode, not `try_restore`.
        let mut bucket = sample_checkpoint();
        bucket.buckets.to_mut()[1].0 = 8;
        let mut edge = sample_checkpoint();
        edge.edge_medium.to_mut()[2].0 = 7;
        let mut stage = sample_checkpoint();
        stage.stage = 8;
        for cp in [bucket, edge, stage] {
            let mut recs = records[..2].to_vec();
            recs.push(JournalRecord::StageComplete(Box::new(cp)));
            let err = decode_journal(&journal_with(&recs)).unwrap_err().to_string();
            assert!(err.contains("CRC-valid but malformed"), "{err}");
        }
        // So does a checkpoint ahead of any admission.
        let orphan = [JournalRecord::StageComplete(Box::new(sample_checkpoint()))];
        assert!(decode_journal(&journal_with(&orphan)).is_err());
        // A second admission would re-shape checked checkpoints: refused.
        let twice = [records[0].clone(), records[0].clone()];
        assert!(JournalSession::resume(&journal_with(&twice)).is_err());
    }

    #[test]
    fn valid_frame_with_malformed_payload_is_a_hard_error() {
        // CRC-valid garbage payload: the checksum passes, decode must not.
        let mut bytes = journal_with(&[]);
        frame_with(&mut bytes, |buf| buf.extend_from_slice(&[0xFFu8; 5]));
        assert!(matches!(
            decode_journal(&bytes),
            Err(ExecError::Journal(_))
        ));
        // Tag 9 is unassigned (no record nests other records): a well-formed
        // count behind it is the same typed error, naming the tag.
        let mut bytes = journal_with(&[]);
        frame_with(&mut bytes, |buf| buf.extend_from_slice(&[9, 0, 0, 0, 0]));
        let err = decode_journal(&bytes).unwrap_err();
        assert!(
            matches!(&err, ExecError::Journal(m) if m.contains("unknown record tag 9")),
            "{err}"
        );
    }

    // -- validate: duplicated frame -----------------------------------

    #[test]
    fn validate_flags_a_duplicated_commit_frame() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let mut records = sample_records(&schedule)[..3].to_vec();
        records.push(records[2].clone()); // replayed frame: same commit twice
        let bytes = journal_with(&records);
        let decoded = decode_journal(&bytes).unwrap();
        assert!(decoded.torn.is_none(), "a duplicated frame is CRC-valid");
        let findings = validate_journal(&decoded.records);
        assert!(
            findings.iter().any(|f| f.contains("duplicated object-commit")),
            "findings: {findings:?}"
        );
    }

    // -- frozen engine: crash / resume bit-identity -------------------

    fn run_frozen(
        dag: &JobDag,
        schedule: &Schedule,
        gt: &GroundTruth,
        plan: &FaultPlan,
        resched: Option<&ReschedulingContext<'_>>,
        session: &mut JournalSession,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        Engine::new(dag, schedule, gt)
            .faults(plan, &RecoveryPolicy::default())
            .failover(resched)
            .journal(session)
            .run()
    }

    #[test]
    fn frozen_crash_resume_is_bit_identical_at_every_record() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = crate::sim::simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none()
            .and_object_loss(StageId(0), 1)
            .and_server_failure(ServerId(0), base.jct * 0.3);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut clean).unwrap();
        let total = clean.records_written();
        assert!(total > 4, "journal must hold admission + stages + failover");
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "crash-free journal validates clean: {v:?}");
        // Crash at every journal record index; resume must reproduce the
        // crash-free run bit for bit.
        for k in 0..total {
            let mut armed = JournalSession::fresh(Some(k));
            let err = run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut armed)
                .expect_err("armed crash must kill the run");
            assert!(
                matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
                "crash point {k}: {err}"
            );
            let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
            assert_eq!(resumed.torn().map(|t| t.at_record), Some(k));
            let (rt, rm2) =
                run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut resumed).unwrap();
            assert_eq!(rm2, bm, "crash at record {k}: metrics must be bit-identical");
            assert_eq!(rt.tasks, bt.tasks, "crash at record {k}");
            assert_eq!(rt.attempts, bt.attempts, "crash at record {k}");
            let decoded = decode_journal(resumed.durable_bytes()).unwrap();
            assert!(decoded.torn.is_none(), "resumed journal has no torn tail");
            let v = validate_journal(&decoded.records);
            assert!(v.is_empty(), "crash at record {k}: {v:?}");
        }
    }

    #[test]
    fn resume_deduplicates_torn_commit_batches() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut clean = JournalSession::fresh(None);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        // Find a crash point *inside* a stage's commit batch: right
        // before its StageComplete record.
        let records = decode_journal(clean.durable_bytes()).unwrap().records;
        let cp_at = records
            .iter()
            .position(|r| matches!(r, JournalRecord::StageComplete(_)))
            .expect("a stage checkpoint exists") as u64;
        assert!(cp_at > 2, "commits precede the checkpoint");
        let mut armed = JournalSession::fresh(Some(cp_at));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        assert!(resumed.replayed_commits() > 0, "durable commits replayed");
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut resumed).unwrap();
        assert!(
            resumed.deduped() > 0,
            "re-simulating the torn stage re-delivers its durable commits"
        );
        let decoded = decode_journal(resumed.durable_bytes()).unwrap();
        let v = validate_journal(&decoded.records);
        assert!(v.is_empty(), "dedup keeps the journal clean: {v:?}");
    }

    #[test]
    fn double_crash_then_resume_still_bit_identical() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none().and_object_loss(StageId(1), 0);
        let mut clean = JournalSession::fresh(None);
        let (_, bm) = run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        let total = clean.records_written();
        let mut armed = JournalSession::fresh(Some(2));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut second = JournalSession::resume(armed.durable_bytes()).unwrap();
        second.arm_crash(total - 2);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut second).unwrap_err();
        let mut third = JournalSession::resume(second.durable_bytes()).unwrap();
        let (_, m) = run_frozen(&dag, &schedule, &gt, &plan, None, &mut third).unwrap();
        assert_eq!(m, bm, "two crashes deep, still bit-identical");
    }

    #[test]
    fn resume_rejects_a_different_schedule() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut armed = JournalSession::fresh(Some(3));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        // Re-plan under different capacity: different schedule, different
        // fingerprint — resume must refuse, not silently mix timelines.
        let rm2 = ResourceManager::from_free_slots(vec![6, 6, 6]);
        let other = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm2,
            objective: Objective::Jct,
        });
        assert_ne!(
            schedule_fingerprint(&schedule),
            schedule_fingerprint(&other),
            "fixture sanity: the schedules differ"
        );
        let err = run_frozen(&dag, &other, &gt, &plan, None, &mut resumed).unwrap_err();
        assert!(matches!(err, ExecError::Journal(_)), "{err}");
        let _ = rm;
    }

    // -- delta checkpoints ---------------------------------------------

    /// The shared state a checkpoint carries only a delta of, captured
    /// after every stage in pop order.
    type Shared = (
        Vec<FaultStats>,
        Vec<Option<ditto_storage::Medium>>,
        std::collections::BTreeMap<(u32, u32), f64>,
    );

    /// The engine's pass loop (frozen, no failover), returning the shared
    /// state at every stage boundary.
    fn drive(
        dag: &JobDag,
        schedule: &Schedule,
        gt: &GroundTruth,
        plan: &FaultPlan,
        session: &mut JournalSession,
    ) -> Result<Vec<Shared>, ExecError> {
        use crate::faults::{ready_time, sim_stage, SimState};
        use crate::queue::{ReadyQueue, TieBreak};
        session.begin(dag, EngineKind::Frozen, schedule, &Recorder::disabled())?;
        let mut state = SimState::new(dag, plan, schedule);
        let mut queue = ReadyQueue::new(dag);
        let mut tie = TieBreak::canonical();
        let mut boundaries = Vec::new();
        while let Some((_, s)) = queue.pop(&mut tie) {
            let mark = state.mark();
            if !session.try_restore(s, &mut state)? {
                sim_stage(&mut state, dag, schedule, gt, plan, &RecoveryPolicy::default(), s)?;
                session.record_stage(dag, s, &state, mark)?;
            }
            boundaries.push((
                state.stage_stats.clone(),
                state.edge_medium.clone(),
                state.heal_end.clone(),
            ));
            queue.complete(dag, s, |c| ready_time(&state, dag, c));
        }
        Ok(boundaries)
    }

    /// The crash sweep's frozen-ladder fault history — seeded object loss
    /// plus a mid-job server failure — with two losses pinned so lineage
    /// charges (to *producer* buckets) and healed objects are certain.
    fn ladder_plan(base_jct: f64) -> FaultPlan {
        FaultPlan::from_rates(crate::faults::FaultRates {
            loss_prob: 0.05,
            ..crate::faults::FaultRates::none(31)
        })
        .and_object_loss(StageId(0), 1)
        .and_object_loss(StageId(1), 0)
        .and_server_failure(ServerId(1), base_jct * 0.3)
    }

    #[test]
    fn delta_restore_rebuilds_the_absolute_state_at_every_stage_boundary() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = crate::sim::simulate(&dag, &schedule, &gt);
        let plan = ladder_plan(base.jct);
        let mut clean = JournalSession::fresh(None);
        let want = drive(&dag, &schedule, &gt, &plan, &mut clean).unwrap();
        let last = want.last().unwrap();
        assert!(!last.2.is_empty(), "fixture sanity: an object was healed");
        let records = decode_journal(clean.durable_bytes()).unwrap().records;
        assert!(
            records.iter().any(|r| matches!(r, JournalRecord::StageComplete(cp)
                if cp.lineage.iter().any(|h| h.src_stage != cp.stage)
                    && cp.buckets.iter().any(|(s, b)| *s != cp.stage && b.lineage_reexecs > 0))),
            "fixture sanity: a reader's checkpoint carries its producer's charged bucket"
        );
        for k in 0..clean.records_written() {
            let mut armed = JournalSession::fresh(Some(k));
            let err = drive(&dag, &schedule, &gt, &plan, &mut armed).unwrap_err();
            assert!(matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k));
            let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
            let got = drive(&dag, &schedule, &gt, &plan, &mut resumed).unwrap();
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(g == w, "crash at record {k}: shared state differs after stage #{i}");
            }
            assert_eq!(resumed.durable_bytes(), clean.durable_bytes(), "crash at record {k}");
        }
    }

    #[test]
    fn reordered_checkpoints_are_a_hard_journal_error() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = crate::sim::simulate(&dag, &schedule, &gt);
        let plan = ladder_plan(base.jct);
        let mut clean = JournalSession::fresh(None);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        let records = decode_journal(clean.durable_bytes()).unwrap().records;
        let cps: Vec<usize> = (0..records.len())
            .filter(|&i| matches!(records[i], JournalRecord::StageComplete(_)))
            .collect();
        // Two checkpoint frames change places: refused at resume, and a
        // finding of the validator.
        let mut swapped = records.clone();
        swapped.swap(cps[0], cps[1]);
        let bytes = journal_with(&swapped);
        let err = JournalSession::resume(&bytes).unwrap_err();
        assert!(matches!(&err, ExecError::Journal(m) if m.contains("out of order")), "{err}");
        let v = validate_journal(&decode_journal(&bytes).unwrap().records);
        assert!(v.iter().any(|f| f.contains("has ordinal")), "{v:?}");
        // The frames stay put but claim each other's place in the order
        // the run pops stages in: refused when the restore gets there.
        let mut relabeled = records.clone();
        for (at, ordinal) in [(cps[0], 0), (cps[1], 1)] {
            if let JournalRecord::StageComplete(cp) = &mut relabeled[at] {
                cp.stage = match &records[cps[1 - ordinal as usize]] {
                    JournalRecord::StageComplete(other) => other.stage,
                    _ => unreachable!(),
                };
            }
        }
        let mut resumed = JournalSession::resume(&journal_with(&relabeled)).unwrap();
        let err = run_frozen(&dag, &schedule, &gt, &plan, None, &mut resumed).unwrap_err();
        assert!(matches!(&err, ExecError::Journal(m) if m.contains("out of order")), "{err}");
    }

    // -- adaptive engine: crash / resume ------------------------------

    fn run_adaptive(
        dag: &JobDag,
        schedule: &Schedule,
        gt: &GroundTruth,
        plan: &FaultPlan,
        ctx: &ReschedulingContext<'_>,
        session: &mut JournalSession,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        Engine::new(dag, schedule, gt)
            .faults(plan, &RecoveryPolicy::default())
            .adaptive(ctx, &crate::adaptive::AdaptiveConfig::default())
            .journal(session)
            .run()
    }

    #[test]
    fn adaptive_crash_resume_replays_replans_bit_identically() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0).and_object_loss(StageId(2), 0);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut clean).unwrap();
        assert!(!bt.replans.is_empty(), "2x drift must fire a replan");
        let total = clean.records_written();
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "{v:?}");
        // Replan decision sequence numbers are monotonic from 1.
        for (i, r) in bt.replans.iter().enumerate() {
            assert_eq!(r.decision_seq, i as u64 + 1);
        }
        for k in (0..total).step_by(3) {
            let mut armed = JournalSession::fresh(Some(k));
            let err = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut armed)
                .expect_err("armed crash must kill the run");
            assert!(matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k));
            let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
            let (rt, rm2) = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut resumed).unwrap();
            assert_eq!(rm2, bm, "crash at record {k}");
            assert_eq!(rt.tasks, bt.tasks, "crash at record {k}");
            assert_eq!(rt.attempts, bt.attempts, "crash at record {k}");
            assert_eq!(rt.replans, bt.replans, "crash at record {k}: replayed splices");
            let v = validate_journal(&decode_journal(resumed.durable_bytes()).unwrap().records);
            assert!(v.is_empty(), "crash at record {k}: {v:?}");
        }
    }

    #[test]
    fn adaptive_resume_bounds_recovery_work() {
        // Recovery must restore checkpointed stages instead of
        // re-simulating them: crash late, resume, and count.
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut clean).unwrap();
        let total = clean.records_written();
        let mut armed = JournalSession::fresh(Some(total - 1));
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut resumed).unwrap();
        assert!(
            resumed.restored_stages() as usize >= dag.num_stages() - 2,
            "a last-record crash restores nearly every stage: {} of {}",
            resumed.restored_stages(),
            dag.num_stages()
        );
    }

    // -- cross-check: journal vs trace --------------------------------

    #[test]
    fn cross_check_certifies_a_recorded_run_and_catches_tampering() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let ctx = ctx(&model, &rm);
        let obs = Recorder::new();
        let mut session = JournalSession::fresh(None);
        Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &RecoveryPolicy::default())
            .adaptive(&ctx, &crate::adaptive::AdaptiveConfig::default())
            .recorder(&obs)
            .journal(&mut session)
            .run()
            .unwrap();
        let trace = obs.finish();
        let records = decode_journal(session.durable_bytes()).unwrap().records;
        let findings = cross_check(&records, &trace);
        assert!(findings.is_empty(), "journal and trace agree: {findings:?}");
        // Tamper: shift one journaled commit value; the hb.write event it
        // maps to no longer matches.
        let mut tampered = records.clone();
        let pos = tampered
            .iter()
            .position(|r| matches!(r, JournalRecord::ObjectCommit { .. }))
            .unwrap();
        if let JournalRecord::ObjectCommit { value, .. } = &mut tampered[pos] {
            *value ^= 1;
        }
        assert!(!cross_check(&tampered, &trace).is_empty());
    }
}

