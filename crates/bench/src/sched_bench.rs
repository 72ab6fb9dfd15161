//! Scheduler loop counters: incremental `joint_optimize` swept over
//! `random_dag` sizes, each run checked against the preserved
//! from-scratch reference.
//!
//! For each DAG size and objective the sweep runs both implementations
//! on the *same* DAG and cluster (8 servers, `stages/4` slots each, so
//! the slot budget `C = 2·stages` scales with the job) and reports the
//! incremental run's [`JointStats`]: commit rounds, candidates evaluated,
//! commits and DoP-memo hits. The two implementations are bit-identical
//! by contract (see `crates/core/tests/joint_equivalence.rs`); the sweep
//! panics if the reference's schedule or loop shape differs, which makes
//! it the equivalence check at 256–1024 stages. Every row is
//! deterministic, so `BENCH_sched.json` repeats byte for byte. Wall-clock
//! scheduler cost is measured by `ditto-benchmark` (`sched_wide_*`,
//! `core.joint_jct_512_ms`), not here.

use ditto_cluster::ResourceManager;
use ditto_core::reference::joint_optimize_reference_with_stats;
use ditto_core::{joint_optimize_with_stats, JointOptions, JointStats, Objective, Schedule};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_obs::Recorder;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;

/// The full sweep behind `BENCH_sched.json`. 192 — the shape of the
/// benchmark's `sched_wide_*` workloads, cluster included — is appended,
/// not inserted: a size's DAG seed is its position in the list, and the
/// five older sizes keep their DAGs (and so their loop counters) across
/// commits.
pub const SCHED_BENCH_SIZES: &[usize] = &[16, 64, 256, 512, 1024, 192];
/// The CI smoke subset: the first three sizes of the full sweep, so their
/// rows equal the committed file's first rows.
pub const SCHED_SMOKE_SIZES: &[usize] = &[16, 64, 256];

/// One `(size, objective)` row: the incremental optimizer's loop counters.
#[derive(Debug, Clone, Serialize)]
pub struct SchedBenchRow {
    /// Stages in the random DAG.
    pub(crate) stages: usize,
    /// Edges in the random DAG.
    pub(crate) edges: usize,
    /// `jct` or `cost`.
    pub(crate) objective: String,
    /// Commit rounds of Algorithm 3.
    pub(crate) rounds: usize,
    /// Candidate edges evaluated across all rounds.
    pub(crate) candidates: usize,
    /// Candidates accepted.
    pub(crate) commits: usize,
    /// Candidate evaluations that skipped `compute_dop`.
    pub(crate) dop_memo_hits: usize,
}

/// The benchmark cluster for an `n`-stage job: 8 servers with `n/4`
/// slots each (minimum 4), i.e. a slot budget of `2n` — roomy enough
/// that grouping proceeds, tight enough that placement rejects the
/// largest merges and exercises the backtracking path.
fn bench_cluster(stages: usize) -> ResourceManager {
    ResourceManager::from_free_slots(vec![(stages as u32 / 4).max(4); 8])
}

/// Panics unless the reference reproduced the incremental run: the same
/// schedule, field for field, and the same loop shape.
fn assert_same_run(
    incremental: &(Schedule, JointStats),
    reference: &(Schedule, JointStats),
    ctx: &str,
) {
    let ((a, sa), (b, sb)) = (incremental, reference);
    assert_eq!(a.dop, b.dop, "dop diverged: {ctx}");
    assert_eq!(a.groups, b.groups, "groups diverged: {ctx}");
    assert_eq!(a.group_of, b.group_of, "group_of diverged: {ctx}");
    assert_eq!(a.colocated, b.colocated, "colocated diverged: {ctx}");
    assert_eq!(a.placement, b.placement, "placement diverged: {ctx}");
    assert_eq!(
        (sa.rounds, sa.candidates, sa.commits),
        (sb.rounds, sb.candidates, sb.commits),
        "(rounds, candidates, commits) diverged: {ctx}"
    );
}

/// Run the sweep over `sizes`: one row per (size, objective), each
/// asserted equal to the reference on the same input.
pub fn sched_bench_sizes(sizes: &[usize]) -> Vec<SchedBenchRow> {
    let opts = JointOptions::default();
    let off = Recorder::disabled();
    let mut rows = Vec::new();
    for (i, &stages) in sizes.iter().enumerate() {
        let dag = random_dag(0xd177 + i as u64, &RandomDagConfig::sized(stages));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = bench_cluster(stages);
        for (objective, obj_name) in [(Objective::Jct, "jct"), (Objective::Cost, "cost")] {
            let incremental = joint_optimize_with_stats(&dag, &model, &rm, objective, &opts, &off);
            let reference =
                joint_optimize_reference_with_stats(&dag, &model, &rm, objective, &opts, &off);
            assert_same_run(
                &incremental,
                &reference,
                &format!("{stages} stages, {obj_name}"),
            );
            let stats = incremental.1;
            rows.push(SchedBenchRow {
                stages,
                edges: dag.num_edges(),
                objective: obj_name.to_string(),
                rounds: stats.rounds,
                candidates: stats.candidates,
                commits: stats.commits,
                dop_memo_hits: stats.dop_memo_hits,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_json;

    /// One row per (size, objective), and two runs serialize to the same
    /// bytes.
    #[test]
    fn sweep_rows_are_complete_and_repeat_byte_for_byte() {
        let sizes = [16usize, 48];
        let rows = sched_bench_sizes(&sizes);
        assert_eq!(rows.len(), sizes.len() * 2);
        for r in &rows {
            assert!(r.candidates >= r.commits, "{}/{}", r.stages, r.objective);
            assert!(r.rounds > 0, "{}/{}", r.stages, r.objective);
        }
        assert_eq!(write_json(&rows), write_json(&sched_bench_sizes(&sizes)));
    }

    /// Median wall-clock µs of one `call`, over `iters` calls.
    #[cfg(not(debug_assertions))]
    fn median_micros(iters: usize, mut call: impl FnMut()) -> f64 {
        let mut samples: Vec<f64> = (0..iters)
            .map(|_| {
                let start = std::time::Instant::now();
                call();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        samples.sort_unstable_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// The headline claim, at a conservative threshold: at 512 stages the
    /// incremental optimizer is ≥3× faster than the reference (release
    /// runs land far above 3×; debug builds skew constant factors so the
    /// assertion is release-only). A same-machine ratio, so machine speed
    /// cancels.
    #[cfg(not(debug_assertions))]
    #[test]
    fn incremental_is_at_least_3x_faster_at_512_stages() {
        let dag = random_dag(0xd177, &RandomDagConfig::sized(512));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = bench_cluster(512);
        let (opts, off) = (JointOptions::default(), Recorder::disabled());
        for objective in [Objective::Jct, Objective::Cost] {
            let reference = median_micros(3, || {
                std::hint::black_box(joint_optimize_reference_with_stats(
                    &dag, &model, &rm, objective, &opts, &off,
                ));
            });
            let incremental = median_micros(3, || {
                std::hint::black_box(joint_optimize_with_stats(
                    &dag, &model, &rm, objective, &opts, &off,
                ));
            });
            assert!(
                reference >= 3.0 * incremental,
                "{objective}: reference {reference:.0}µs vs incremental {incremental:.0}µs ({:.1}×)",
                reference / incremental
            );
        }
    }

    /// The flat DoP kernel's claim, as a same-machine ratio: at 192 stages
    /// under JCT one call costs at most a third of the tree version's
    /// (measured ≈7×), cycling through co-location masks of different
    /// densities the way the optimizer's candidates do.
    #[cfg(not(debug_assertions))]
    #[test]
    fn flat_dop_kernel_is_at_least_3x_faster_per_call_at_192_stages() {
        use ditto_core::dop::DopWorkspace;
        use ditto_core::reference::compute_dop_reference;
        use rand::{Rng, SeedableRng};
        let dag = random_dag(1, &RandomDagConfig::sized(192));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let c = bench_cluster(192).total_free();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd09);
        let masks: Vec<Vec<bool>> = (0..8)
            .map(|i| {
                (0..dag.num_edges())
                    .map(|_| rng.gen_bool(i as f64 / 8.0))
                    .collect()
            })
            .collect();
        let per_call = |calls: usize, call: &mut dyn FnMut(&[bool])| {
            median_micros(7, || {
                for k in 0..calls {
                    call(&masks[k % masks.len()]);
                }
            }) / calls as f64
        };
        let tree = per_call(64, &mut |mask| {
            std::hint::black_box(compute_dop_reference(&dag, &model, mask, Objective::Jct, c));
        });
        let mut ws = DopWorkspace::new(&dag, &model, Objective::Jct, c);
        let flat = per_call(512, &mut |mask| {
            ws.compute(mask);
            std::hint::black_box(ws.sum_dop());
        });
        assert!(
            tree >= 3.0 * flat,
            "tree {tree:.2}µs vs flat {flat:.2}µs per call ({:.1}×)",
            tree / flat
        );
    }
}
