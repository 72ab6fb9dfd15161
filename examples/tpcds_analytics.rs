//! End-to-end serverless analytics: physically execute TPC-DS Q95.
//!
//! Generates the synthetic TPC-DS-like database, lowers Q95 to its
//! 9-stage DAG (the paper's Fig. 13), schedules it with Ditto, and then
//! *really runs it*: tasks on worker threads, intermediate tables moving
//! through the placement-aware data plane — zero-copy shared memory for
//! co-located stages, the S3-like object store otherwise. The distributed
//! answer is verified against an independent single-threaded oracle.
//!
//! ```sh
//! cargo run --release --example tpcds_analytics
//! ```

use ditto::cluster::ResourceManager;
use ditto::core::baselines::NimbleScheduler;
use ditto::core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
use ditto::exec::{profile_job, ExecConfig, GroundTruth, LocalRuntime};
use ditto::sql::queries::{q95, Query};
use ditto::sql::{Database, ScaleConfig};
use ditto::storage::{DataPlane, Medium};

fn main() {
    let db = Database::generate(ScaleConfig::with_sf(0.5));
    println!(
        "generated {} tables, {:.1} MB total",
        db.table_names().len(),
        db.total_bytes() as f64 / 1e6
    );

    let plan = Query::Q95.prepared_plan(&db);
    println!("{}", plan.dag.describe());

    let gt = GroundTruth::new(ExecConfig::default());
    let profile = profile_job(&plan.dag, &gt, &[2, 4, 8]);
    let (model, _) = profile.build_model(&plan.dag);

    // A small cluster: 4 servers × 8 slots.
    let free = vec![8u32, 8, 8, 8];

    for scheduler in [
        &DittoScheduler::new() as &dyn Scheduler,
        &NimbleScheduler::default(),
    ] {
        let rm = ResourceManager::from_free_slots(free.clone());
        let schedule = scheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        println!("{}", schedule.describe(&plan.dag));

        let dataplane = DataPlane::new(Medium::S3, free.len());
        let out = LocalRuntime::new().execute(&plan, &db, &schedule, &dataplane);
        let (orders, cost, profit) = q95::result_triple(&out.result);
        println!(
            "  answer: {orders} multi-warehouse orders, ship cost {cost:.2}, profit {profit:.2}"
        );
        println!(
            "  data plane: {} shared-memory transfers ({} KB), {} s3 transfers ({} KB)\n",
            out.ledger.shared_memory.transfers,
            out.ledger.shared_memory.bytes_in / 1024,
            out.ledger.s3.transfers,
            out.ledger.s3.bytes_in / 1024,
        );

        // Cross-check against the independent oracle.
        let (n, c, p) = q95::reference(&db);
        assert_eq!(orders, n, "distributed answer must match the oracle");
        assert!((cost - c).abs() < 1e-6 * c.abs().max(1.0));
        assert!((profit - p).abs() < 1e-6 * p.abs().max(1.0));
    }
    println!("distributed results verified against the single-threaded oracle ✓");
}
