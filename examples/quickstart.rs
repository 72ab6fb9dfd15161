//! Quickstart: schedule the paper's motivating join DAG (Fig. 1).
//!
//! Builds the three-stage join job, fits an execution-time model from
//! simulated profiles, schedules it with Ditto and with the NIMBLE
//! baseline on a 20-slot cluster, and simulates both.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ditto::cluster::ResourceManager;
use ditto::core::baselines::NimbleScheduler;
use ditto::core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
use ditto::exec::{profile_job, simulate, ExecConfig, GroundTruth};

fn main() {
    // The Fig. 1 job: two map stages scanning tables A (8 GB) and B
    // (2 GB), feeding a join.
    let dag = ditto::dag::generators::fig1_join();
    println!("{}", dag.describe());

    // Recurring jobs are profiled; the scheduler sees the fitted α/d + β
    // model, never the ground truth.
    let gt = GroundTruth::new(ExecConfig::default());
    let profile = profile_job(&dag, &gt, &[2, 4, 8, 16, 20]);
    let (model, _) = profile.build_model(&dag);
    println!();

    // 2 servers × 10 free slots.
    let rm = ResourceManager::from_free_slots(vec![10, 10]);

    for scheduler in [
        &DittoScheduler::new() as &dyn Scheduler,
        &NimbleScheduler::default(),
    ] {
        let schedule = scheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let (_, metrics) = simulate(&dag, &schedule, &gt);
        println!("{}", schedule.describe(&dag));
        println!(
            "  simulated JCT = {:.2}s, cost = {:.1} GB·s\n",
            metrics.jct,
            metrics.total_cost()
        );
    }
}
