//! Distributed execution correctness: the local runtime must produce the
//! oracle answer for every query, under every scheduler and both external
//! media — the schedule changes *where* data flows, never *what* comes out.

use ditto::cluster::ResourceManager;
use ditto::core::baselines::{EvenSplitScheduler, FixedDopScheduler, NimbleScheduler};
use ditto::core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
use ditto::exec::{profile_job, ExecConfig, GroundTruth, LocalRuntime};
use ditto::sql::queries::{q1, q16, q3, q94, q95, Query};
use ditto::sql::{Database, ScaleConfig, Table};
use ditto::storage::{DataPlane, Medium};
use ditto::timemodel::JobTimeModel;

fn run_distributed(
    q: Query,
    db: &Database,
    scheduler: &dyn Scheduler,
    free: &[u32],
    external: Medium,
) -> Table {
    let plan = q.prepared_plan(db);
    let gt = GroundTruth::new(ExecConfig::default());
    let profile = profile_job(&plan.dag, &gt, &[2, 4, 8]);
    let (model, _): (JobTimeModel, _) = profile.build_model(&plan.dag);
    let rm = ResourceManager::from_free_slots(free.to_vec());
    let schedule = scheduler.schedule(&SchedulingContext {
        dag: &plan.dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    let dataplane = DataPlane::new(external, free.len());
    LocalRuntime::new()
        .execute(&plan, db, &schedule, &dataplane)
        .result
}

fn triple_close(got: (i64, f64, f64), want: (i64, f64, f64), ctx: &str) {
    assert_eq!(got.0, want.0, "{ctx}: count");
    assert!(
        (got.1 - want.1).abs() < 1e-6 * want.1.abs().max(1.0),
        "{ctx}: cost {} vs {}",
        got.1,
        want.1
    );
    assert!(
        (got.2 - want.2).abs() < 1e-6 * want.2.abs().max(1.0),
        "{ctx}: profit {} vs {}",
        got.2,
        want.2
    );
}

#[test]
fn every_query_matches_oracle_under_every_scheduler() {
    let db = Database::generate(ScaleConfig::with_sf(0.4));
    let schedulers: Vec<Box<dyn Scheduler>> = vec![
        Box::new(DittoScheduler::new()),
        Box::new(NimbleScheduler::default()),
        Box::new(EvenSplitScheduler),
        Box::new(FixedDopScheduler { dop: 3 }),
    ];
    // Q16/Q94 have 10 stages; FixedDop{3} needs 30 slots.
    let free = [16u32, 12, 8];
    for s in &schedulers {
        let ctx = s.name().to_string();

        let out = run_distributed(Query::Q1, &db, s.as_ref(), &free, Medium::S3);
        let mut got = q1::result_customers(&out);
        got.sort_unstable();
        let mut want = q1::reference(&db);
        want.sort_unstable();
        assert_eq!(got, want, "q1 under {ctx}");

        let out = run_distributed(Query::Q16, &db, s.as_ref(), &free, Medium::S3);
        triple_close(q16::result_triple(&out), q16::reference(&db), &format!("q16 {ctx}"));

        let out = run_distributed(Query::Q94, &db, s.as_ref(), &free, Medium::S3);
        triple_close(q94::result_triple(&out), q94::reference(&db), &format!("q94 {ctx}"));

        let out = run_distributed(Query::Q95, &db, s.as_ref(), &free, Medium::S3);
        triple_close(q95::result_triple(&out), q95::reference(&db), &format!("q95 {ctx}"));

        let out = run_distributed(Query::Q3, &db, s.as_ref(), &free, Medium::S3);
        let got = q3::result_rows(&out);
        let want = q3::reference(&db);
        assert_eq!(got.len(), want.len(), "q3 under {ctx}");
        let (sg, sw): (f64, f64) = (
            got.iter().map(|&(_, r)| r).sum(),
            want.iter().map(|&(_, r)| r).sum(),
        );
        assert!((sg - sw).abs() < 1e-6 * sw.abs().max(1.0), "q3 under {ctx}");
    }
}

#[test]
fn redis_and_s3_paths_agree() {
    let db = Database::generate(ScaleConfig::with_sf(0.4));
    for q in Query::all() {
        let a = run_distributed(q, &db, &DittoScheduler::new(), &[10, 10], Medium::S3);
        let b = run_distributed(q, &db, &DittoScheduler::new(), &[10, 10], Medium::Redis);
        assert_eq!(a.num_rows(), b.num_rows(), "{q}");
    }
}

#[test]
fn single_server_cluster_all_shared_memory() {
    // On one server everything is co-located: the external store should
    // carry no shuffle traffic at all.
    let db = Database::generate(ScaleConfig::with_sf(0.3));
    let plan = Query::Q95.prepared_plan(&db);
    let gt = GroundTruth::new(ExecConfig::default());
    let profile = profile_job(&plan.dag, &gt, &[2, 4]);
    let (model, _) = profile.build_model(&plan.dag);
    let rm = ResourceManager::from_free_slots(vec![32]);
    let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
        dag: &plan.dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    let dataplane = DataPlane::new(Medium::S3, 1);
    let out = LocalRuntime::new().execute(&plan, &db, &schedule, &dataplane);
    assert_eq!(out.ledger.s3.transfers, 0, "ledger: {:?}", out.ledger);
    assert!(out.ledger.shared_memory.transfers > 0);
    let (n, _, _) = q95::result_triple(&out.result);
    assert_eq!(n, q95::reference(&db).0);
}

#[test]
fn dop_one_everywhere_still_correct() {
    // Degenerate parallelism: a single task per stage.
    let db = Database::generate(ScaleConfig::with_sf(0.3));
    let out = run_distributed(
        Query::Q16,
        &db,
        &FixedDopScheduler { dop: 1 },
        &[6, 6],
        Medium::S3,
    );
    triple_close(q16::result_triple(&out), q16::reference(&db), "q16 dop=1");
}

/// Kernel ≡ reference, visible to the root suite: every plan of
/// `Query::all_extended()` gives the same table through the vectorized
/// interpreter as through the retained row-at-a-time one (the root copy of
/// `ditto-sql`'s `five_query_sweep_matches_reference_interpreter`).
#[test]
fn every_plan_matches_the_reference_interpreter() {
    let db = Database::generate(ScaleConfig::with_sf(0.05));
    for q in Query::all_extended() {
        let plan = q.prepared_plan(&db);
        assert_eq!(
            plan.execute_reference(&db),
            ditto::sql::reference::execute_plan_reference(&plan, &db),
            "{} diverged from the reference interpreter",
            q.name()
        );
    }
}
