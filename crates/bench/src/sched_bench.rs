//! Scheduler-throughput benchmark: incremental `joint_optimize` vs the
//! preserved from-scratch reference, swept over `random_dag` sizes.
//!
//! For each DAG size and objective the sweep times both implementations
//! on the *same* DAG and cluster (8 servers, `stages/4` slots each, so
//! the slot budget `C = 2·stages` scales with the job), reporting the
//! median per-call scheduling latency, the candidate-evaluation count
//! and the DoP-memo hit count from [`JointStats`]. The two
//! implementations are bit-identical by contract (see
//! `crates/core/tests/joint_equivalence.rs`); this sweep measures only
//! how much work each does to arrive at the same schedule.
//!
//! At the sizes in [`DOP_BENCH_SIZES`] the sweep also times one DoP ratio
//! computing call — what the optimizer pays per never-seen co-location
//! mask — on the same DAG: the flat [`DopWorkspace`] kernel against the
//! tree-building `compute_dop_reference` (rows `dop_flat` /
//! `dop_reference`, loop counters zero).
//!
//! Each timed loop is wrapped in a `bench.sched` span on the recorder
//! passed in (scheduler track, lane 1), carrying the implementation,
//! size, objective and measured median as attributes — run
//! `figures -- sched --trace-out sched_trace.json` to see the
//! reference/incremental duration gap side by side in Perfetto.

use ditto_cluster::ResourceManager;
use ditto_core::dop::DopWorkspace;
use ditto_core::reference::{compute_dop_reference, joint_optimize_reference_with_stats};
use ditto_core::{joint_optimize_with_stats, JointOptions, JointStats, Objective};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_obs::{Recorder, Track};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;
use std::time::Instant;

/// The full sweep behind `BENCH_sched.json`. 192 — the shape of the
/// benchmark's `sched_wide_*` workloads, cluster included — is appended,
/// not inserted: a size's DAG seed is its position in the list, and the
/// five older sizes keep their DAGs (and so their loop counters) across
/// commits.
pub const SCHED_BENCH_SIZES: &[usize] = &[16, 64, 256, 512, 1024, 192];
/// Sizes that also get per-call DoP ratio computing rows.
pub const DOP_BENCH_SIZES: &[usize] = &[192, 512, 1024];
/// The CI smoke subset (debug-friendly sizes; see `.github/workflows`).
pub const SCHED_SMOKE_SIZES: &[usize] = &[16, 64, 256];

/// One `(size, objective, implementation)` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SchedBenchRow {
    /// Stages in the random DAG.
    pub stages: usize,
    /// Edges in the random DAG.
    pub edges: usize,
    /// `jct` or `cost`.
    pub objective: String,
    /// `reference` (from-scratch) or `incremental` for `joint_optimize`
    /// rows; `dop_reference` (merge tree) or `dop_flat` (workspace) for
    /// the per-call DoP ratio computing rows.
    pub implementation: String,
    /// Median wall-clock latency of one call, in µs.
    pub median_micros: f64,
    /// Commit rounds of Algorithm 3.
    pub rounds: usize,
    /// Candidate edges evaluated across all rounds.
    pub candidates: usize,
    /// Candidates accepted.
    pub commits: usize,
    /// Candidate evaluations that skipped `compute_dop`.
    pub dop_memo_hits: usize,
    /// `reference median / this median` on the same (size, objective,
    /// kernel); 1.0 for the reference rows themselves.
    pub speedup_vs_reference: f64,
}

/// Timed repetitions per call, scaled down as the DAG grows (the
/// reference implementation is the budget: O(minutes) at 1024 stages).
fn iters_for(stages: usize) -> usize {
    match stages {
        0..=64 => 9,
        65..=256 => 5,
        257..=512 => 3,
        _ => 1,
    }
}

/// The benchmark cluster for an `n`-stage job: 8 servers with `n/4`
/// slots each (minimum 4), i.e. a slot budget of `2n` — roomy enough
/// that grouping proceeds, tight enough that placement rejects the
/// largest merges and exercises the backtracking path.
fn bench_cluster(stages: usize) -> ResourceManager {
    ResourceManager::from_free_slots(vec![(stages as u32 / 4).max(4); 8])
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn timed<F: FnMut() -> JointStats>(
    iters: usize,
    obs: &Recorder,
    implementation: &'static str,
    stages: usize,
    objective: &'static str,
    mut call: F,
) -> (f64, JointStats) {
    let span = obs.begin(
        "bench.sched",
        Track::scheduler(1),
        obs.wall_now(),
        ditto_obs::SpanId::NONE,
        vec![
            ("impl", implementation.into()),
            ("stages", (stages as u64).into()),
            ("objective", objective.into()),
            ("iters", (iters as u64).into()),
        ],
    );
    let mut samples = Vec::with_capacity(iters);
    let mut stats = JointStats::default();
    for _ in 0..iters {
        let start = Instant::now();
        stats = call();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let med = median(&mut samples);
    obs.observe("bench.sched.micros", implementation, med);
    obs.end(span, obs.wall_now());
    (med, stats)
}

/// Median µs of one DoP ratio computing call per implementation —
/// `(tree reference, flat workspace)` — cycling through co-location masks
/// of different densities the way the optimizer's candidates do.
fn dop_call_micros(dag: &JobDag, model: &JobTimeModel, objective: Objective, c: u32) -> (f64, f64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd09);
    let masks: Vec<Vec<bool>> = (0..8)
        .map(|i| (0..dag.num_edges()).map(|_| rng.gen_bool(i as f64 / 8.0)).collect())
        .collect();
    let per_call = |calls: usize, call: &mut dyn FnMut(&[bool])| {
        let mut samples: Vec<f64> = (0..7)
            .map(|_| {
                let start = Instant::now();
                for k in 0..calls {
                    call(&masks[k % masks.len()]);
                }
                start.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
            .collect();
        median(&mut samples)
    };
    let tree = per_call(64, &mut |mask| {
        std::hint::black_box(compute_dop_reference(dag, model, mask, objective, c));
    });
    let mut ws = DopWorkspace::new(dag, model, objective, c);
    let flat = per_call(512, &mut |mask| {
        ws.compute(mask);
        std::hint::black_box(ws.sum_dop());
    });
    (tree, flat)
}

/// Run the sweep over `sizes`, recording `bench.sched` spans on `obs`.
pub fn sched_bench_sizes(sizes: &[usize], obs: &Recorder) -> Vec<SchedBenchRow> {
    obs.name_track(Track::SCHEDULER_GROUP, "scheduler");
    let opts = JointOptions::default();
    let mut rows = Vec::new();
    for (i, &stages) in sizes.iter().enumerate() {
        let dag = random_dag(0xd177 + i as u64, &RandomDagConfig::sized(stages));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = bench_cluster(stages);
        let iters = iters_for(stages);
        for (objective, obj_name) in [(Objective::Jct, "jct"), (Objective::Cost, "cost")] {
            let off = Recorder::disabled();
            let (ref_med, ref_stats) = timed(iters, obs, "reference", stages, obj_name, || {
                let (s, stats) =
                    joint_optimize_reference_with_stats(&dag, &model, &rm, objective, &opts, &off);
                std::hint::black_box(s);
                stats
            });
            let (inc_med, inc_stats) = timed(iters, obs, "incremental", stages, obj_name, || {
                let (s, stats) =
                    joint_optimize_with_stats(&dag, &model, &rm, objective, &opts, &off);
                std::hint::black_box(s);
                stats
            });
            let mut measured = vec![
                ("reference", ref_med, ref_stats, 1.0),
                ("incremental", inc_med, inc_stats, ref_med / inc_med),
            ];
            if DOP_BENCH_SIZES.contains(&stages) {
                let (tree, flat) = dop_call_micros(&dag, &model, objective, rm.total_free());
                measured.push(("dop_reference", tree, JointStats::default(), 1.0));
                measured.push(("dop_flat", flat, JointStats::default(), tree / flat));
            }
            for (implementation, med, stats, speedup) in measured {
                rows.push(SchedBenchRow {
                    stages,
                    edges: dag.num_edges(),
                    objective: obj_name.to_string(),
                    implementation: implementation.to_string(),
                    median_micros: med,
                    rounds: stats.rounds,
                    candidates: stats.candidates,
                    commits: stats.commits,
                    dop_memo_hits: stats.dop_memo_hits,
                    speedup_vs_reference: speedup,
                });
            }
        }
    }
    rows
}

/// The full sweep (16 → 1024 stages, both objectives, both
/// implementations, plus the per-call DoP rows) — the source of
/// `BENCH_sched.json`.
pub fn sched_bench() -> Vec<SchedBenchRow> {
    sched_bench_sizes(SCHED_BENCH_SIZES, &Recorder::disabled())
}

/// The CI smoke sweep (16/64/256 stages).
pub fn sched_bench_smoke() -> Vec<SchedBenchRow> {
    sched_bench_sizes(SCHED_SMOKE_SIZES, &Recorder::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sweep produces one row per (size, objective, implementation)
    /// and both implementations agree on the loop-shape counters (they
    /// evaluate the identical candidate sequence).
    #[test]
    fn smoke_rows_are_complete_and_loop_shapes_agree() {
        let sizes = [16usize, 48];
        let rows = sched_bench_sizes(&sizes, &Recorder::disabled());
        assert_eq!(rows.len(), sizes.len() * 2 * 2);
        for pair in rows.chunks(2) {
            let (r, i) = (&pair[0], &pair[1]);
            assert_eq!(r.implementation, "reference");
            assert_eq!(i.implementation, "incremental");
            assert_eq!((r.stages, &r.objective), (i.stages, &i.objective));
            assert_eq!(r.rounds, i.rounds, "{}/{}", r.stages, r.objective);
            assert_eq!(r.candidates, i.candidates, "{}/{}", r.stages, r.objective);
            assert_eq!(r.commits, i.commits, "{}/{}", r.stages, r.objective);
            assert!(i.speedup_vs_reference > 0.0);
            assert!(r.candidates >= r.commits);
        }
    }

    /// The wrapper spans land on the recorder: one `bench.sched` span
    /// per measurement, tagged with the implementation.
    #[test]
    fn bench_spans_are_recorded() {
        let obs = Recorder::new();
        let rows = sched_bench_sizes(&[16], &obs);
        let data = obs.finish();
        let spans: Vec<_> = data
            .spans
            .iter()
            .filter(|s| s.name == "bench.sched")
            .collect();
        assert_eq!(spans.len(), rows.len());
        assert!(spans
            .iter()
            .all(|s| s.attr("impl").is_some() && s.end.is_finite()));
    }

    /// The headline claim, at a conservative threshold: at 512 stages the
    /// incremental optimizer is ≥3× faster than the reference (the ISSUE
    /// targets ≥10×; release runs land far above 3×, debug builds skew
    /// constant factors so the assertion is release-only).
    #[cfg(not(debug_assertions))]
    #[test]
    fn incremental_is_at_least_3x_faster_at_512_stages() {
        let rows = sched_bench_sizes(&[512], &Recorder::disabled());
        let joint: Vec<_> = rows.iter().filter(|r| !r.implementation.starts_with("dop_")).collect();
        for pair in joint.chunks(2) {
            let (r, i) = (pair[0], pair[1]);
            assert!(
                i.speedup_vs_reference >= 3.0,
                "{}: reference {:.0}µs vs incremental {:.0}µs (speedup {:.1}×)",
                r.objective,
                r.median_micros,
                i.median_micros,
                i.speedup_vs_reference
            );
        }
    }

    /// The flat DoP kernel's claim, as a same-machine ratio: at 192 stages
    /// under JCT one call costs at most a third of the tree version's
    /// (measured ≈7×; a ratio, so machine speed cancels).
    #[cfg(not(debug_assertions))]
    #[test]
    fn flat_dop_kernel_is_at_least_3x_faster_per_call_at_192_stages() {
        let dag = random_dag(1, &RandomDagConfig::sized(192));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let c = bench_cluster(192).total_free();
        let (tree, flat) = dop_call_micros(&dag, &model, Objective::Jct, c);
        assert!(
            tree >= 3.0 * flat,
            "tree {tree:.2}µs vs flat {flat:.2}µs per call ({:.1}×)",
            tree / flat
        );
    }
}
