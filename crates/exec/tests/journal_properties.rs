//! Property tests for the control-plane write-ahead journal.
//!
//! Two families:
//!
//! * **Crash/recovery** — for random DAGs, fault histories and crash
//!   record indices, on both engines: the armed run dies exactly at the
//!   requested record, recovery terminates, the recovered run is
//!   bit-identical to the crash-free run (metrics, task timelines,
//!   attempt history, replan decisions), its telemetry certifies
//!   race-free, and the resumed journal re-validates clean.
//! * **Corruption** — a journal with a mid-frame truncation, a flipped
//!   CRC byte, or a duplicated commit frame is detected with *exact*
//!   record-index provenance, checked against an independent re-scan of
//!   the frame layout.

use ditto_audit::RaceOptions;
use ditto_cluster::ResourceManager;
use ditto_core::{
    DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_exec::{
    decode_journal, validate_journal, AdaptiveConfig, Engine, ExecConfig, ExecError,
    ExecutionTrace, FaultPlan, FaultRates, GroundTruth, JobMetrics, JournalRecord,
    JournalSession, RecoveryPolicy, ReschedulingContext,
};
use ditto_obs::Recorder;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;

/// Two-server slot capacities shared by the schedule and the race check.
const SLOTS: &[u32] = &[12, 10];

fn setup(dag_seed: u64, stages: usize) -> (JobDag, JobTimeModel, ResourceManager, Schedule) {
    let dag = random_dag(dag_seed, &RandomDagConfig::sized(stages));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(SLOTS.to_vec());
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    (dag, model, rm, schedule)
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    }
}

#[allow(clippy::too_many_arguments)]
fn run(
    adaptive: bool,
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    model: &JobTimeModel,
    rm: &ResourceManager,
    obs: &Recorder,
    session: &mut JournalSession,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    let ctx = ReschedulingContext {
        model,
        resources: rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let policy = policy();
    let engine = Engine::new(dag, schedule, gt)
        .faults(plan, &policy)
        .recorder(obs)
        .journal(session);
    if adaptive {
        engine.adaptive(&ctx, &AdaptiveConfig::default()).run()
    } else {
        engine.failover(&ctx).run()
    }
}

/// A crash-free journal of a random run, for the corruption properties.
fn sample_journal(dag_seed: u64) -> Vec<u8> {
    let (dag, model, rm, schedule) = setup(dag_seed, 6);
    let gt = GroundTruth::new(ExecConfig::default());
    let plan = FaultPlan::from_rates(FaultRates {
        loss_prob: 0.03,
        ..FaultRates::none(dag_seed.wrapping_add(7))
    });
    let mut session = JournalSession::fresh(None);
    run(
        false,
        &dag,
        &schedule,
        &gt,
        &plan,
        &model,
        &rm,
        &Recorder::disabled(),
        &mut session,
    )
    .expect("crash-free journaled run");
    session.durable_bytes().to_vec()
}

/// Independent re-scan of the frame layout: 9-byte header
/// (`DITTOWAL` + version), then `[len u32][crc u64][payload]` frames.
/// Returns each frame's start offset. Deliberately NOT built on the
/// journal decoder — provenance assertions below compare the decoder's
/// claims against this second opinion.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 9;
    while pos + 12 <= bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "sample journal must end on a frame boundary");
    starts
}

/// Map a fraction in [0, 1) onto an index of `len` items.
fn pick(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash at a random journal record of a random DAG's run, on either
    /// engine: recovery terminates and is bit-identical, the recovered
    /// telemetry is race-free, and the resumed journal validates clean.
    #[test]
    fn crash_resume_is_bit_identical_on_random_dags(
        dag_seed in 0u64..512,
        stages in 5usize..9,
        loss in 0.0f64..0.10,
        fault_seed in 0u64..1024,
        crash_frac in 0.0f64..1.0,
        engine_bit in 0u64..2,
    ) {
        let adaptive = engine_bit == 1;
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let mut plan = FaultPlan::from_rates(FaultRates {
            loss_prob: loss,
            ..FaultRates::none(fault_seed)
        });
        if adaptive {
            // Give the adaptive engine a reason to replan, so recovery
            // also exercises journaled replan splices.
            plan = plan.with_drift(2.0);
        }

        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm,
            &Recorder::disabled(), &mut clean,
        ).expect("crash-free journaled run");
        let total = clean.records_written();
        let k = pick(crash_frac, total as usize) as u64;

        let mut armed = JournalSession::fresh(Some(k));
        let err = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm,
            &Recorder::disabled(), &mut armed,
        ).expect_err("armed crash must kill the run");
        prop_assert!(
            matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
            "crash at {k} surfaced {err}"
        );

        let mut resumed = JournalSession::resume(armed.durable_bytes())
            .expect("torn journal must resume");
        let obs = Recorder::new();
        let (rt, rmx) = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm, &obs, &mut resumed,
        ).expect("recovery must terminate");

        prop_assert_eq!(rmx.jct.to_bits(), bm.jct.to_bits(), "JCT must be bit-identical");
        prop_assert!(rmx == bm, "recovered metrics diverged");
        prop_assert!(rt.tasks == bt.tasks, "recovered task timelines diverged");
        prop_assert!(rt.attempts == bt.attempts, "recovered attempt history diverged");
        prop_assert!(rt.replans == bt.replans, "recovered replan decisions diverged");

        let race = ditto_audit::check_trace(&obs.finish(), &RaceOptions {
            capacities: Some(SLOTS.to_vec()),
            ..Default::default()
        });
        prop_assert!(race.is_clean(), "recovered run races:\n{}", race.render());

        let decoded = decode_journal(resumed.durable_bytes()).expect("resumed journal decodes");
        prop_assert!(decoded.torn.is_none(), "resumed journal still torn");
        let findings = validate_journal(&decoded.records);
        prop_assert!(findings.is_empty(), "resumed journal dirty: {findings:?}");
    }

    /// Cutting a journal anywhere strictly inside frame `r` is reported
    /// as a torn tail at record `r`, at that frame's byte offset.
    #[test]
    fn truncation_mid_frame_is_detected_with_provenance(
        dag_seed in 0u64..64,
        rec_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let r = pick(rec_frac, starts.len());
        let start = starts[r];
        let end = starts.get(r + 1).copied().unwrap_or(bytes.len());
        let cut = start + 1 + pick(cut_frac, end - start - 1);
        prop_assert!(cut > start && cut < end);

        let d = decode_journal(&bytes[..cut]).expect("a torn tail is not a hard error");
        prop_assert_eq!(d.records.len(), r, "records before the cut survive");
        let torn = d.torn.expect("mid-frame cut must be flagged");
        prop_assert_eq!(torn.at_record, r as u64);
        prop_assert_eq!(torn.byte_offset, start);
        prop_assert_eq!(torn.reason.label(), "truncated");
    }

    /// Flipping any byte of frame `r`'s checksum is reported as a
    /// checksum mismatch at record `r`; the prefix still decodes.
    #[test]
    fn flipped_crc_byte_is_detected_with_provenance(
        dag_seed in 0u64..64,
        rec_frac in 0.0f64..1.0,
        crc_byte in 0usize..8,
    ) {
        let mut bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let r = pick(rec_frac, starts.len());
        bytes[starts[r] + 4 + crc_byte] ^= 0x40;

        let d = decode_journal(&bytes).expect("a corrupt frame is not a hard error");
        prop_assert_eq!(d.records.len(), r, "records before the corruption survive");
        let torn = d.torn.expect("flipped CRC byte must be flagged");
        prop_assert_eq!(torn.at_record, r as u64);
        prop_assert_eq!(torn.byte_offset, starts[r]);
        prop_assert_eq!(torn.reason.label(), "checksum-mismatch");
    }

    /// Splicing a copy of an object-commit frame after itself decodes
    /// fine (the copy is CRC-valid) but the validator names the copy's
    /// record index as a duplicated commit.
    #[test]
    fn duplicated_commit_frame_is_flagged_with_index(
        dag_seed in 0u64..64,
        pick_frac in 0.0f64..1.0,
    ) {
        let bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let d = decode_journal(&bytes).expect("sample journal decodes");
        let commits: Vec<usize> = d.records.iter().enumerate()
            .filter(|(_, rec)| matches!(rec, JournalRecord::ObjectCommit { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!commits.is_empty(), "sample run must commit objects");
        let r = commits[pick(pick_frac, commits.len())];
        let start = starts[r];
        let end = starts.get(r + 1).copied().unwrap_or(bytes.len());

        let mut dup = bytes[..end].to_vec();
        dup.extend_from_slice(&bytes[start..end]);
        dup.extend_from_slice(&bytes[end..]);

        let dd = decode_journal(&dup).expect("duplicated frame is CRC-valid");
        prop_assert!(dd.torn.is_none());
        prop_assert_eq!(dd.records.len(), d.records.len() + 1);
        let findings = validate_journal(&dd.records);
        let expected = format!("record {}: duplicated object-commit", r + 1);
        prop_assert!(
            findings.iter().any(|f| f.starts_with(&expected)),
            "expected {expected:?} among {findings:?}"
        );
    }
}
