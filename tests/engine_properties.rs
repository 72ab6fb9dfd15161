//! Property-based tests of the SQL engine and the simulator.

use ditto::exec::{simulate, ExecConfig, GroundTruth};
use ditto::sql::ops::{distinct, group_by, hash_join, sort_limit, AggSpec, JoinKind, SortOrder};
use ditto::sql::ops::group_by::AggFunc;
use ditto::sql::{Column, Table};
use ditto::sql::table::Schema;
use ditto::sql::column::DataType;
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec(0i64..20, n),
            proptest::collection::vec(-100.0f64..100.0, n),
        )
            .prop_map(|(keys, vals)| {
                Table::new(
                    Schema::new(&[("k", DataType::I64), ("v", DataType::F64)]),
                    vec![Column::I64(keys.into()), Column::F64(vals.into())],
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec roundtrip: encode/decode is the identity.
    #[test]
    fn codec_roundtrip(t in arb_table()) {
        prop_assert_eq!(Table::try_decode(t.encode()), Ok(t));
    }

    /// Hash partitioning is a partition: no row lost, none duplicated,
    /// and equal keys land together.
    #[test]
    fn hash_partition_is_partition(t in arb_table(), parts in 1usize..8) {
        let buckets: Vec<Table> =
            t.partition_rows("k", parts).iter().map(|sel| t.gather(sel)).collect();
        let total: usize = buckets.iter().map(|b| b.num_rows()).sum();
        prop_assert_eq!(total, t.num_rows());
        // Each key appears in exactly one bucket.
        for key in 0i64..20 {
            let holders = buckets
                .iter()
                .filter(|b| b.column_req("k").as_i64().contains(&key))
                .count();
            prop_assert!(holders <= 1, "key {key} in {holders} buckets");
        }
    }

    /// Distributed group-by (partition → local group-by → concat) equals
    /// the single-shot group-by, up to row order.
    #[test]
    fn distributed_group_by_equals_local(t in arb_table(), parts in 1usize..6) {
        let whole = group_by(&t, &["k"], &[AggSpec::new(AggFunc::Sum, "v", "s")], None);
        let buckets: Vec<Table> =
            t.partition_rows("k", parts).iter().map(|sel| t.gather(sel)).collect();
        let partials: Vec<Table> = buckets
            .iter()
            .map(|b| group_by(b, &["k"], &[AggSpec::new(AggFunc::Sum, "v", "s")], None))
            .collect();
        let merged = Table::concat(&partials).unwrap();
        // Compare as key → sum maps.
        let to_map = |t: &Table| -> std::collections::HashMap<i64, f64> {
            t.column_req("k")
                .as_i64()
                .iter()
                .copied()
                .zip(t.column_req("s").as_f64().iter().copied())
                .collect()
        };
        let (a, b) = (to_map(&whole), to_map(&merged));
        prop_assert_eq!(a.len(), b.len());
        for (k, v) in a {
            let w = b[&k];
            prop_assert!((v - w).abs() < 1e-9 * v.abs().max(1.0));
        }
    }

    /// Semi + anti join partition the left side.
    #[test]
    fn semi_anti_partition_left(l in arb_table(), r in arb_table()) {
        let semi = hash_join(&l, &r, "k", "k", JoinKind::LeftSemi);
        let anti = hash_join(&l, &r, "k", "k", JoinKind::LeftAnti);
        prop_assert_eq!(semi.num_rows() + anti.num_rows(), l.num_rows());
    }

    /// Inner join row count equals the Σ over keys of count products.
    #[test]
    fn inner_join_cardinality(l in arb_table(), r in arb_table()) {
        let j = hash_join(&l, &r, "k", "k", JoinKind::Inner);
        let count = |t: &Table, key: i64| t.column_req("k").as_i64().iter().filter(|&&x| x == key).count();
        let expect: usize = (0i64..20).map(|k| count(&l, k) * count(&r, k)).sum();
        prop_assert_eq!(j.num_rows(), expect);
    }

    /// sort_limit returns a sorted prefix of the right length.
    #[test]
    fn sort_limit_sorted_prefix(t in arb_table(), limit in 0usize..80) {
        let s = sort_limit(&t, "v", SortOrder::Asc, limit);
        prop_assert_eq!(s.num_rows(), limit.min(t.num_rows()));
        let vals = s.column_req("v").as_f64();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// distinct yields unique rows covering every input key.
    #[test]
    fn distinct_covers_keys(t in arb_table()) {
        let d = distinct(&t, &["k"]);
        let keys = d.column_req("k").as_i64();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len(), "no duplicates");
        for k in t.column_req("k").as_i64() {
            prop_assert!(keys.contains(k));
        }
    }

    /// Simulation invariants over random DAGs: tasks respect stage
    /// dependencies; JCT equals the latest task end; cost is positive.
    #[test]
    fn simulation_respects_dependencies(seed in 0u64..200, stages in 3usize..12) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        let dag = ditto::dag::generators::random_dag(
            seed,
            &ditto::dag::generators::RandomDagConfig { stages, layers: 3, ..Default::default() },
        );
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![24, 24, 24]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let (trace, metrics) = simulate(&dag, &schedule, &GroundTruth::new(ExecConfig::default()));
        for e in dag.edges() {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                prop_assert!(t.read_start >= src_end - 1e-9);
            }
        }
        prop_assert!((metrics.jct - trace.jct()).abs() < 1e-9);
        prop_assert!(metrics.compute_cost > 0.0);
    }
}

// Fault-injection properties run the physical executor, so they use far
// fewer cases than the pure-engine block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any recoverable fault plan (a crash + a straggler, arbitrary
    /// placement) leaves the local runner's final table byte-identical to
    /// the fault-free run.
    #[test]
    fn recovered_run_is_byte_identical(
        crash_stage in 0u32..4,
        crash_task in 0u32..3,
        slow_stage in 0u32..4,
        slowdown in 2.0f64..8.0,
    ) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        use ditto::exec::{FaultEvent, FaultPlan, LocalRuntime, RecoveryPolicy};
        use ditto::sql::queries::Query;
        use ditto::sql::{Database, ScaleConfig};
        use ditto::storage::{DataPlane, Medium};
        let db = Database::generate(ScaleConfig::with_sf(0.1));
        let plan = Query::Q1.prepared_plan(&db);
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &plan.dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let clean = LocalRuntime::new()
            .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
            .unwrap();
        // Fault targets wrap into the DAG; events naming a task index
        // beyond a stage's DoP simply never fire, which must also be safe.
        let stages = plan.dag.num_stages() as u32;
        let faulty = LocalRuntime {
            faults: FaultPlan::from_events(vec![
                FaultEvent::TaskCrash {
                    stage: ditto::dag::StageId(crash_stage % stages),
                    task: crash_task,
                    attempt: 0,
                    at_fraction: 0.5,
                },
                FaultEvent::Straggler {
                    stage: ditto::dag::StageId(slow_stage % stages),
                    task: 0,
                    slowdown,
                },
            ]),
            recovery: RecoveryPolicy::default(),
        }
        .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
        .unwrap();
        prop_assert_eq!(faulty.result.encode(), clean.result.encode());
    }

    /// Simulated JCT is monotonically non-decreasing in the number of
    /// injected task crashes (under plain bounded retry).
    #[test]
    fn sim_jct_monotone_in_fault_count(
        fracs in proptest::collection::vec(0.05f64..0.95, 6),
    ) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        use ditto::exec::{Engine, FaultEvent, FaultPlan, RecoveryPolicy};
        let dag = ditto::dag::generators::fig1_join();
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![16, 16]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let gt = GroundTruth::new(ExecConfig::default());
        let pool: Vec<FaultEvent> = fracs
            .iter()
            .enumerate()
            .map(|(i, &at_fraction)| FaultEvent::TaskCrash {
                stage: ditto::dag::StageId(i as u32 / 2),
                task: i as u32 % 2,
                attempt: 0,
                at_fraction,
            })
            .collect();
        let mut last = 0.0_f64;
        for k in 0..=pool.len() {
            let plan = FaultPlan::from_events(pool[..k].to_vec());
            let (_, m) = Engine::new(&dag, &schedule, &gt)
                .faults(&plan, &RecoveryPolicy::retry_only())
                .run()
                .unwrap();
            prop_assert!(
                m.jct >= last - 1e-9,
                "jct dropped from {} to {} at {} crashes",
                last,
                m.jct,
                k
            );
            last = m.jct;
        }
    }
}

/// The determinism rules (DESIGN.md §6f), where tier-1 sees them: clippy
/// passes every library target with each rule's lint denied in the crate
/// roots it covers, so no site lacks its `#[expect(…, reason)]` and no
/// `#[expect]` outlives its site (`unfulfilled_lint_expectations`). DET02
/// has no clippy lint; a token check covers it.
#[test]
fn determinism_lint_is_clean_and_allowlist_is_current() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let clippy = std::process::Command::new(env!("CARGO"))
        .args(["clippy", "--workspace", "--lib", "--offline"])
        .args(["--", "-D", "warnings"])
        .current_dir(root)
        .env(
            "CARGO_TARGET_DIR",
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy"),
        )
        .output()
        .unwrap();
    assert!(
        clippy.status.success(),
        "clippy:\n{}",
        String::from_utf8_lossy(&clippy.stderr)
    );

    let next_line = "a.partial_cmp(b)\n    .unwrap()";
    let or_equal = "a.partial_cmp(&b).unwrap_or(Equal)";
    assert!(partial_cmp_unwraps(next_line).eq([1]));
    assert_eq!(partial_cmp_unwraps(or_equal).count(), 0);
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    let mut dirs: Vec<_> = crates.map(|c| c.unwrap().path().join("src")).collect();
    dirs.push(root.join("src"));
    let mut hits = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                hits.extend(partial_cmp_unwraps(&src).map(|l| format!("{}:{l}", path.display())));
            }
        }
    }
    assert!(
        hits.is_empty(),
        "DET02: partial_cmp(..) unwrapped; use total_cmp:\n{}",
        hits.join("\n")
    );
}

/// DET02: the 1-based line of every `partial_cmp(..)` followed, across
/// any whitespace, by `.unwrap()` or `.expect(` (a panic on NaN).
fn partial_cmp_unwraps(src: &str) -> impl Iterator<Item = usize> + '_ {
    src.match_indices("partial_cmp(").filter_map(|(at, call)| {
        let (mut end, mut depth) = (at + call.len(), 1);
        while depth > 0 && end < src.len() {
            match src.as_bytes()[end] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            end += 1;
        }
        let next = src[end..].trim_start();
        let unwrapped = next.starts_with(".unwrap()") || next.starts_with(".expect(");
        unwrapped.then(|| src[..at].matches('\n').count() + 1)
    })
}

/// `figures -- race-smoke`, where tier-1 sees it: every fixed-seed traced
/// scenario certifies race-free, and tie-break order never changes a run
/// on two seeded random DAGs.
#[test]
fn race_sweep_is_clean_and_tie_break_invariant() {
    for r in ditto_bench::race_certify() {
        assert!(r.clean, "scenario {} ({}) raced: {} errors", r.scenario, r.engine, r.errors);
    }
    for r in ditto_bench::race_explore(2) {
        assert!(!r.divergent, "dag {} diverged: {}", r.dag, r.witness);
    }
}

// ---------------------------------------------------------------------
// The simulator `Engine`, at smoke scale: every configuration is the same
// pass driver, so each must agree with its neighbours bit for bit.
// ---------------------------------------------------------------------

mod engine {
    use ditto::cluster::{ResourceManager, ServerId};
    use ditto::core::baselines::EvenSplitScheduler;
    use ditto::core::{
        DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
    };
    use ditto::dag::{generators, JobDag, StageId};
    use ditto::exec::{
        explore_schedule, simulate, AdaptiveConfig, Engine, ExecConfig, ExecError, ExecutionTrace,
        FaultPlan, FaultRates, GroundTruth, JobMetrics, JournalSession,
        RecoveryPolicy, ReschedulingContext,
    };
    use ditto::obs::{to_chrome_trace, Recorder};
    use ditto::timemodel::model::RateConfig;
    use ditto::timemodel::JobTimeModel;

    struct Fixture {
        dag: JobDag,
        model: JobTimeModel,
        rm: ResourceManager,
        schedule: Schedule,
        gt: GroundTruth,
    }

    fn fixture(dag: JobDag, free: &[u32]) -> Fixture {
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        Fixture { dag, model, rm, schedule, gt: GroundTruth::new(ExecConfig::default()) }
    }

    impl Fixture {
        fn ctx(&self) -> ReschedulingContext<'_> {
            ReschedulingContext {
                model: &self.model,
                resources: &self.rm,
                objective: Objective::Jct,
                options: JointOptions::default(),
            }
        }

        /// A journaled run: frozen with failover, or adaptive.
        fn journaled(
            &self,
            adaptive: bool,
            plan: &FaultPlan,
            obs: &Recorder,
            session: &mut JournalSession,
        ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
            let (ctx, policy, cfg) = (self.ctx(), policy(), AdaptiveConfig::default());
            let engine = Engine::new(&self.dag, &self.schedule, &self.gt)
                .faults(plan, &policy)
                .recorder(obs)
                .journal(session);
            if adaptive {
                engine.adaptive(&ctx, &cfg).run()
            } else {
                engine.failover(&ctx).run()
            }
        }
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy { max_retries: 16, ..RecoveryPolicy::default() }
    }

    /// Crashes, stragglers (so speculation fires) and lost objects.
    fn mixed_faults(seed: u64) -> FaultPlan {
        FaultPlan::from_rates(FaultRates {
            crash_prob: 0.1,
            straggler_prob: 0.1,
            straggler_slowdown: 4.0,
            loss_prob: 0.1,
            ..FaultRates::none(seed)
        })
    }

    fn assert_same_run(a: &(ExecutionTrace, JobMetrics), b: &(ExecutionTrace, JobMetrics), what: &str) {
        assert_eq!(a.1, b.1, "{what}: metrics");
        assert_eq!(a.0.tasks, b.0.tasks, "{what}: task timelines");
        assert_eq!(a.0.attempts, b.0.attempts, "{what}: attempt history");
        assert_eq!(a.0.replans, b.0.replans, "{what}: replan decisions");
    }

    #[test]
    fn option_free_run_matches_the_golden_trace() {
        // The fixture of `crates/exec/tests/trace_golden.rs`.
        let dag = generators::chain(2, 1 << 30, 0.5);
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let gt = GroundTruth::new(ExecConfig::default());
        let plain = Engine::new(&dag, &schedule, &gt).run().unwrap();
        assert_same_run(&plain, &simulate(&dag, &schedule, &gt), "simulate is Engine::run");
        let obs = Recorder::new();
        let recorded = Engine::new(&dag, &schedule, &gt).recorder(&obs).run().unwrap();
        assert_same_run(&plain, &recorded, "recording changes nothing");
        let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/exec/tests/golden/two_stage_trace.json");
        assert_eq!(
            to_chrome_trace(&obs.finish()),
            std::fs::read_to_string(golden).unwrap(),
            "the option-free engine drifted from the golden trace"
        );
    }

    #[test]
    fn invalid_schedule_is_rejected_before_anything_is_journaled() {
        let f = fixture(generators::fig1_join(), &[10, 10]);
        let mut bad = f.schedule.clone();
        bad.dop[0] = 0;
        let broken = Fixture { schedule: bad, ..f };
        for adaptive in [false, true] {
            let mut session = JournalSession::fresh(None);
            let err = broken
                .journaled(adaptive, &FaultPlan::none(), &Recorder::disabled(), &mut session)
                .unwrap_err();
            assert!(matches!(err, ExecError::InvalidSchedule(_)), "adaptive={adaptive}: {err}");
            assert_eq!(session.records_written(), 0, "adaptive={adaptive}: admitted a job that never ran");
        }
        let err = Engine::new(&broken.dag, &broken.schedule, &broken.gt).run().unwrap_err();
        assert!(matches!(err, ExecError::InvalidSchedule(_)), "{err}");
    }

    #[test]
    fn journaling_changes_neither_the_run_nor_its_telemetry() {
        let f = fixture(generators::q95_shape(), &[24, 16]);
        let (plan, policy) = (mixed_faults(3), policy());
        let bare_obs = Recorder::deterministic();
        let bare = Engine::new(&f.dag, &f.schedule, &f.gt)
            .faults(&plan, &policy)
            .recorder(&bare_obs)
            .run()
            .unwrap();
        assert!(bare.1.faults.extra_attempts > 0, "the plan must actually inject faults");
        let obs = Recorder::deterministic();
        let mut session = JournalSession::fresh(None);
        let journaled = Engine::new(&f.dag, &f.schedule, &f.gt)
            .faults(&plan, &policy)
            .recorder(&obs)
            .journal(&mut session)
            .run()
            .unwrap();
        assert_same_run(&bare, &journaled, "faults vs faults+journal");
        assert_eq!(to_chrome_trace(&bare_obs.finish()), to_chrome_trace(&obs.finish()));
        assert!(session.records_written() > f.dag.num_stages() as u64);
    }

    #[test]
    fn crash_at_every_kth_record_resumes_to_the_crash_free_run() {
        let f = fixture(generators::q95_shape(), &[24, 16]);
        let (_, base) = simulate(&f.dag, &f.schedule, &f.gt);
        let failover = FaultPlan::none()
            .and_object_loss(StageId(0), 1)
            .and_server_failure(ServerId(0), base.jct * 0.3);
        let drift = FaultPlan::none().with_drift(2.0).and_object_loss(StageId(2), 0);
        let muted = Recorder::disabled();
        for (adaptive, plan) in [(false, &failover), (true, &drift)] {
            let mut clean = JournalSession::fresh(None);
            let want = f.journaled(adaptive, plan, &muted, &mut clean).unwrap();
            if adaptive {
                assert!(!want.0.replans.is_empty(), "2x drift must fire a replan");
            } else {
                assert!(want.1.faults.rescheduled_stages > 0, "the failure must replan a suffix");
            }
            for k in (0..clean.records_written()).step_by(4) {
                let mut armed = JournalSession::fresh(Some(k));
                let err = f.journaled(adaptive, plan, &muted, &mut armed).unwrap_err();
                assert!(
                    matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
                    "adaptive={adaptive} crash {k}: {err}"
                );
                let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
                let got = f.journaled(adaptive, plan, &muted, &mut resumed).unwrap();
                assert_same_run(&want, &got, &format!("adaptive={adaptive} crash at record {k}"));
            }
        }
    }

    #[test]
    fn restored_stages_report_the_same_telemetry_as_live_ones() {
        let f = fixture(generators::q95_shape(), &[24, 16]);
        let plan = mixed_faults(5);
        let live = Recorder::deterministic();
        let mut clean = JournalSession::fresh(None);
        f.journaled(false, &plan, &live, &mut clean).unwrap();
        // Crash late, so most stages of the resumed run come back from
        // checkpoints instead of the simulator.
        let mut armed = JournalSession::fresh(Some(clean.records_written() - 2));
        f.journaled(false, &plan, &Recorder::disabled(), &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        let recovered = Recorder::deterministic();
        f.journaled(false, &plan, &recovered, &mut resumed).unwrap();
        assert!(resumed.restored_stages() as usize >= f.dag.num_stages() - 2);
        let mut recovered = recovered.finish();
        recovered.events.retain(|e| e.name != "recovery.resume");
        assert_eq!(to_chrome_trace(&live.finish()), to_chrome_trace(&recovered));
    }

    #[test]
    fn adaptive_without_drift_is_the_frozen_run() {
        let f = fixture(generators::q95_shape(), &[24, 16]);
        let plan = FaultPlan::none().with_drift(1.0);
        let policy = RecoveryPolicy::default();
        let frozen = Engine::new(&f.dag, &f.schedule, &f.gt).faults(&plan, &policy).run().unwrap();
        let adaptive = Engine::new(&f.dag, &f.schedule, &f.gt)
            .faults(&plan, &policy)
            .adaptive(&f.ctx(), &AdaptiveConfig::default())
            .run()
            .unwrap();
        assert!(adaptive.0.replans.is_empty(), "no drift may be detected");
        assert_same_run(&frozen, &adaptive, "adaptive without drift vs frozen");
    }

    #[test]
    fn tie_break_order_never_changes_the_result() {
        let f = fixture(generators::diamond(1 << 30), &[8, 8]);
        let plan = mixed_faults(11).with_drift(2.0);
        let (ctx, cfg) = (f.ctx(), AdaptiveConfig::default());
        let out = explore_schedule(
            &f.dag,
            &f.schedule,
            &f.gt,
            &plan,
            &policy(),
            Some((&ctx, &cfg)),
        )
        .unwrap();
        assert!(out.interleavings > 1, "a diamond has simultaneous stages to permute");
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
    }
}
