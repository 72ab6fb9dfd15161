//! Property tests for the control-plane write-ahead journal.
//!
//! Three families:
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
//! * **Hostile bytes** — a seeded mutation loop over real journals of both
//!   engines (bit flips, truncations, length fields inflated *with the CRC
//!   recomputed*, splices of two journals): `decode_journal` answers `Ok`
//!   with a torn tail or a typed `Err`, never panics, and never holds more
//!   heap than a small multiple of its input (a counting allocator local
//!   to this test binary watches).

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
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Live heap bytes of the *current thread* and their high-water mark: the
// test harness runs tests on parallel threads, and a decode allocates and
// frees on its own thread only. `const` thread-locals of `Cell<usize>` need
// no lazy initialisation and no destructor, so the allocator may touch them.
thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.get() + by;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local integers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the most heap it held at once,
/// beyond what the thread held on entry.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    (out, PEAK.get() - before)
}

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
    engine_journal(false, dag_seed)
}

/// A crash-free journal of a random run of either engine (the adaptive
/// one under 2x drift, so it carries replan records and their schedules).
fn engine_journal(adaptive: bool, dag_seed: u64) -> Vec<u8> {
    let (dag, model, rm, schedule) = setup(dag_seed, 6);
    let gt = GroundTruth::new(ExecConfig::default());
    let mut plan = FaultPlan::from_rates(FaultRates {
        loss_prob: 0.03,
        ..FaultRates::none(dag_seed.wrapping_add(7))
    });
    if adaptive {
        plan = plan.with_drift(2.0);
    }
    let mut session = JournalSession::fresh(None);
    run(
        adaptive,
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

/// `decode_journal` on hostile bytes: `Ok` (a torn tail is fine) or the
/// typed journal error — a panic fails the test by itself — holding at
/// most a small multiple of the input. The worst honest ratio is a
/// 40-byte record decoded from a 5-byte snapshot entry.
fn decode_hostile(bytes: &[u8], what: &str) {
    let (result, peak) = peak_heap(|| decode_journal(bytes).map(|d| d.records.len()));
    if let Err(e) = &result {
        assert!(matches!(e, ExecError::Journal(_)), "{what}: untyped error {e}");
    }
    assert!(
        peak <= 16 * bytes.len() + 4096,
        "{what}: decoding {} bytes held {peak} bytes of heap ({result:?})",
        bytes.len()
    );
}

/// Rewrite frame `r` of `bytes` in place through `mutate` and recompute
/// its checksum — the seed is a public constant, so an attacker (or a
/// version-skewed writer) can always do this.
fn reseal(bytes: &mut [u8], start: usize, end: usize, mutate: impl FnOnce(&mut [u8])) {
    let (head, payload) = bytes[start..end].split_at_mut(12);
    mutate(payload);
    let crc = ditto_storage::checksum64(payload, ditto_exec::journal::JOURNAL_SEED);
    head[4..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn mutated_journals_never_panic_or_over_allocate() {
    // A tiny deterministic generator: the loop must be reproducible.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % below as u64) as usize
    };
    let journals: Vec<Vec<u8>> = [(false, 3), (true, 5), (false, 11), (true, 17)]
        .iter()
        .map(|&(adaptive, seed)| engine_journal(adaptive, seed))
        .collect();
    assert!(
        journals.iter().any(|j| {
            let recs = decode_journal(j).unwrap().records;
            recs.iter().any(|r| matches!(r, JournalRecord::Replan(_)))
        }),
        "fixture sanity: an adaptive journal carries a replan (and its schedule)"
    );
    for (j, bytes) in journals.iter().enumerate() {
        decode_hostile(bytes, "unmutated");
        let starts = frame_starts(bytes);
        let frame_end = |r: usize| starts.get(r + 1).copied().unwrap_or(bytes.len());
        // Truncation at every offset of the last three frames.
        for cut in starts[starts.len() - 3]..bytes.len() {
            decode_hostile(&bytes[..cut], &format!("journal {j} cut at {cut}"));
        }
        // Bit flips anywhere, header included.
        for _ in 0..2000 {
            let mut bad = bytes.clone();
            let at = next(bad.len());
            bad[at] ^= 1 << next(8);
            decode_hostile(&bad, &format!("journal {j} bit flip at {at}"));
        }
        // Every 4-byte window of every frame's payload overwritten with a
        // huge count and the frame resealed: this hits each length field
        // of each record kind with a CRC that still passes. Same for the
        // frame's own length field (not resealed: it is outside the CRC).
        for (r, &start) in starts.iter().enumerate() {
            let end = frame_end(r);
            for huge in [u32::MAX, 0x1000_0000, 0x0001_0000] {
                let mut bad = bytes.clone();
                bad[start..start + 4].copy_from_slice(&huge.to_le_bytes());
                decode_hostile(&bad, &format!("journal {j} frame {r} len {huge:#x}"));
                for at in 0..(end - start - 12).saturating_sub(3) {
                    let mut bad = bytes.clone();
                    reseal(&mut bad, start, end, |payload| {
                        payload[at..at + 4].copy_from_slice(&huge.to_le_bytes())
                    });
                    decode_hostile(&bad, &format!("journal {j} frame {r}+{at} = {huge:#x}"));
                }
            }
        }
        // Splices: a prefix of this journal (cut on or off a frame
        // boundary) followed by a suffix of another.
        for _ in 0..500 {
            let other = &journals[next(journals.len())];
            let other_starts = frame_starts(other);
            let head = if next(2) == 0 { starts[next(starts.len())] } else { next(bytes.len()) };
            let tail = if next(2) == 0 { other_starts[next(other_starts.len())] } else { next(other.len()) };
            let spliced = [&bytes[..head], &other[tail..]].concat();
            decode_hostile(&spliced, &format!("journal {j} splice {head}+{tail}"));
        }
    }
}

/// The benchmark's wide shape: one 192-stage random DAG on eight 48-slot
/// servers under its 2 % crash / straggler / loss mix. A checkpoint here
/// is a delta against up to 191 earlier ones, so this is where a delta
/// applied against the wrong base would show.
#[test]
fn crash_resume_is_bit_identical_at_the_wide_shape() {
    const WIDE_SLOTS: [u32; 8] = [48; 8];
    let dag = random_dag(100, &RandomDagConfig::sized(192));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(WIDE_SLOTS.to_vec());
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Cost,
    });
    let gt = GroundTruth::new(ExecConfig::default());
    let plan = FaultPlan::from_rates(FaultRates {
        crash_prob: 0.02,
        straggler_prob: 0.02,
        straggler_slowdown: 4.0,
        loss_prob: 0.02,
        ..FaultRates::none(100)
    });
    let policy = RecoveryPolicy::default();
    let go = |session: &mut JournalSession| {
        Engine::new(&dag, &schedule, &gt)
            .faults(&plan, &policy)
            .journal(session)
            .run()
    };
    let mut clean = JournalSession::fresh(None);
    let (bt, bm) = go(&mut clean).expect("crash-free journaled run");
    let total = clean.records_written();
    assert!(total > 192 + 2, "one checkpoint a stage, and commits: {total}");
    assert!(
        clean.durable_bytes().len() < 1024 * total as usize,
        "a delta journal stays under 1 KB a record: {} bytes / {total} records",
        clean.durable_bytes().len()
    );
    for k in (0..total).step_by(total as usize / 24).chain([total - 1]) {
        let mut armed = JournalSession::fresh(Some(k));
        let err = go(&mut armed).expect_err("armed crash must kill the run");
        assert!(matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k));
        let mut resumed = JournalSession::resume(armed.durable_bytes()).expect("resume");
        let (rt, rm2) = go(&mut resumed).expect("recovery must terminate");
        assert!(rm2 == bm, "crash at record {k}: metrics diverged");
        assert!(rt.tasks == bt.tasks, "crash at record {k}: task timelines diverged");
        assert!(rt.attempts == bt.attempts, "crash at record {k}: attempts diverged");
        assert_eq!(
            resumed.durable_bytes(),
            clean.durable_bytes(),
            "crash at record {k}: the resumed journal is the crash-free journal"
        );
        let decoded = decode_journal(resumed.durable_bytes()).expect("decodes");
        let findings = validate_journal(&decoded.records);
        assert!(decoded.torn.is_none() && findings.is_empty(), "crash at {k}: {findings:?}");
    }
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
