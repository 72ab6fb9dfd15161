//! Equivalence oracle: the incremental joint optimizer must produce
//! **bit-identical** schedules to the preserved from-scratch reference
//! implementation, across random DAGs, both objectives, every fit
//! strategy and every order policy.
//!
//! This is the contract that lets `joint_optimize` replace the reference
//! wholesale: same `dop`, same `group_of`/`groups`, same co-location mask,
//! same placement — not merely the same objective value. The same holds
//! one level down: the flat [`DopWorkspace`] kernel must agree with the
//! tree-building `compute_dop_reference` to the bit.

use ditto_cluster::ResourceManager;
use ditto_core::dop::DopWorkspace;
use ditto_core::reference::{compute_dop_reference, joint_optimize_reference_with_stats};
use ditto_core::{
    compute_dop, joint_optimize_with_stats, FitStrategy, GroupOrderPolicy, JointOptions,
    JointStats, Objective, Schedule, StageGroups,
};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::{DagBuilder, EdgeId, EdgeKind, JobDag, StageKind};
use ditto_obs::{AttrValue, Recorder, TraceData};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::{JobTimeModel, ResourceModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Deterministic cluster shapes: roomy, mixed, tight — tight clusters
/// drive the reject/backtrack path, roomy ones the commit-heavy path.
fn clusters(seed: u64, stages: usize) -> Vec<Vec<u32>> {
    let n = stages as u32;
    vec![
        vec![4 * n; 4],                                   // roomy
        vec![2 * n, n, n / 2 + 1, n / 4 + 1, 8],          // mixed
        vec![(n / 2 + 2).max(4); 3],                      // tight
        (0..6).map(|i| 4 + ((seed as u32 + i) % 24)).collect(), // jagged
    ]
}

#[test]
fn schedules_are_bit_identical_over_random_dags() {
    let mut checked = 0usize;
    for seed in 0..32u64 {
        let stages = 4 + (seed as usize * 3) % 28; // 4..31 stages
        let layers = 2 + (seed as usize) % 4;
        let dag = random_dag(
            seed,
            &RandomDagConfig {
                stages,
                layers,
                ..Default::default()
            },
        );
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        for free in clusters(seed, stages) {
            let rm = ResourceManager::from_free_slots(free);
            if rm.total_free() < stages as u32 {
                continue; // unplaceable baseline would panic both paths
            }
            for objective in [Objective::Jct, Objective::Cost] {
                for fit in [FitStrategy::BestFit, FitStrategy::FirstFit] {
                    let opts = JointOptions {
                        fit_strategy: fit,
                        ..JointOptions::default()
                    };
                    let (fast, fast_stats) = joint_optimize_with_stats(
                        &dag,
                        &model,
                        &rm,
                        objective,
                        &opts,
                        &Recorder::disabled(),
                    );
                    let (slow, slow_stats) = joint_optimize_reference_with_stats(
                        &dag,
                        &model,
                        &rm,
                        objective,
                        &opts,
                        &Recorder::disabled(),
                    );
                    let ctx = format!("seed={seed} stages={stages} {objective} {fit:?}");
                    assert_eq!(fast.dop, slow.dop, "dop diverged: {ctx}");
                    assert_eq!(fast.group_of, slow.group_of, "group_of diverged: {ctx}");
                    assert_eq!(fast.groups, slow.groups, "groups diverged: {ctx}");
                    assert_eq!(fast.colocated, slow.colocated, "mask diverged: {ctx}");
                    assert_eq!(fast.placement, slow.placement, "placement diverged: {ctx}");
                    assert_eq!(fast.scheduler, slow.scheduler, "{ctx}");
                    // The loops must agree on their *shape* too: same
                    // candidate sequence ⇒ same counts.
                    assert_eq!(fast_stats.rounds, slow_stats.rounds, "rounds: {ctx}");
                    assert_eq!(
                        fast_stats.candidates, slow_stats.candidates,
                        "candidates: {ctx}"
                    );
                    assert_eq!(fast_stats.commits, slow_stats.commits, "commits: {ctx}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 32 * 2 * 2, "sweep too small: {checked}");
}

/// The ablation order policies ride the same incremental machinery; keep
/// them equivalent as well (fewer seeds — they share the candidate loop).
#[test]
fn order_policies_match_reference() {
    for seed in 0..8u64 {
        let dag = random_dag(
            seed,
            &RandomDagConfig {
                stages: 12,
                layers: 3,
                ..Default::default()
            },
        );
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![24, 18, 12, 9]);
        for objective in [Objective::Jct, Objective::Cost] {
            for policy in [GroupOrderPolicy::GlobalDescending, GroupOrderPolicy::Random(seed)] {
                let opts = JointOptions {
                    order_policy: policy,
                    ..JointOptions::default()
                };
                let (fast, _) = joint_optimize_with_stats(
                    &dag,
                    &model,
                    &rm,
                    objective,
                    &opts,
                    &Recorder::disabled(),
                );
                let (slow, _) = joint_optimize_reference_with_stats(
                    &dag,
                    &model,
                    &rm,
                    objective,
                    &opts,
                    &Recorder::disabled(),
                );
                assert_eq!(fast.dop, slow.dop, "seed={seed} {objective} {policy:?}");
                assert_eq!(fast.group_of, slow.group_of, "seed={seed} {objective} {policy:?}");
                assert_eq!(fast.placement, slow.placement, "seed={seed} {objective} {policy:?}");
            }
        }
    }
}

/// Tracing must not change the schedule, and the traced incremental run
/// emits the same number of `sched.merge` events as the reference (the
/// candidate sequences are identical).
#[test]
fn traced_runs_match_and_emit_identical_event_counts() {
    let dag = random_dag(11, &RandomDagConfig::default());
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(vec![32, 16, 8]);
    for objective in [Objective::Jct, Objective::Cost] {
        let obs_fast = Recorder::new();
        let obs_slow = Recorder::new();
        let (fast, stats) = joint_optimize_with_stats(
            &dag,
            &model,
            &rm,
            objective,
            &JointOptions::default(),
            &obs_fast,
        );
        let (slow, _) = joint_optimize_reference_with_stats(
            &dag,
            &model,
            &rm,
            objective,
            &JointOptions::default(),
            &obs_slow,
        );
        assert_eq!(fast.placement, slow.placement);
        let merges = |r: &Recorder| {
            r.finish()
                .events
                .iter()
                .filter(|e| e.name == "sched.merge")
                .count()
        };
        let (a, b) = (merges(&obs_fast), merges(&obs_slow));
        assert_eq!(a, b, "{objective}: traced candidate counts diverged");
        assert_eq!(a, stats.candidates, "{objective}: stats disagree with trace");
    }
}

/// Bitwise equality of two DoP results.
fn assert_dop_bits_eq(
    fast: (&[f64], &[u32], f64),
    slow: &ditto_core::DopAssignment,
    ctx: &str,
) {
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(fast.0), bits(&slow.fractional), "fractional: {ctx}");
    assert_eq!(fast.1, &slow.dop[..], "dop: {ctx}");
    assert_eq!(fast.2.to_bits(), slow.merged_alpha.to_bits(), "merged_alpha: {ctx}");
}

/// The flat kernel — both as the one-shot `compute_dop` and as one
/// workspace reused across masks — equals the tree version to the bit:
/// random DAGs (multi-sink, out-degree > 1), pipelined edges, non-unit
/// straggler scaling and ρ, random masks, both objectives, and budgets
/// from `n` (where floor + clamp overshoots `C` and rounding has to take
/// slots back) to `4n`.
#[test]
fn flat_dop_kernel_matches_tree_reference_bitwise() {
    let mut overshoots = 0usize;
    let mut checked = 0usize;
    for seed in 0..48u64 {
        let stages = 3 + (seed as usize * 5) % 38;
        let dag = random_dag(
            seed,
            &RandomDagConfig {
                stages,
                layers: 2 + (seed as usize) % 5,
                edge_prob: [0.15, 0.5, 0.9][seed as usize % 3],
                ..Default::default()
            },
        );
        let n = dag.num_stages();
        let mut rng = StdRng::seed_from_u64(0xd09 ^ seed);
        let mut model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        for e in dag.edges() {
            if rng.gen_bool(0.2) {
                model.set_pipelined(e.id, true);
            }
        }
        for st in dag.stages() {
            if rng.gen_bool(0.3) {
                model.set_scaling(st.id, rng.gen_range(1.0..3.0));
            }
            *model.resource_mut(st.id) = ResourceModel::new(rng.gen_range(0.5..4.0), 0.0);
        }
        for objective in [Objective::Jct, Objective::Cost] {
            for c in [n, n + 1, 2 * n, 3 * n + 1, 4 * n] {
                let c = c as u32;
                let mut ws = DopWorkspace::new(&dag, &model, objective, c);
                for trial in 0..6 {
                    let density = [0.0, 0.1, 0.5, 0.9, 1.0, 0.3][trial];
                    let mask: Vec<bool> =
                        (0..dag.num_edges()).map(|_| rng.gen_bool(density)).collect();
                    let slow = compute_dop_reference(&dag, &model, &mask, objective, c);
                    let ctx = format!("seed={seed} n={n} {objective} C={c} trial={trial}");
                    ws.compute(&mask);
                    assert_dop_bits_eq(
                        (ws.fractional(), ws.dop(), ws.merged_alpha()),
                        &slow,
                        &format!("workspace {ctx}"),
                    );
                    assert_eq!(ws.sum_dop(), slow.dop.iter().sum::<u32>(), "Σ dop: {ctx}");
                    let once = compute_dop(&dag, &model, &mask, objective, c);
                    assert_dop_bits_eq(
                        (&once.fractional, &once.dop, once.merged_alpha),
                        &slow,
                        &format!("one-shot {ctx}"),
                    );
                    let unclamped: u32 =
                        slow.fractional.iter().map(|f| (f.floor() as u32).max(1)).sum();
                    overshoots += usize::from(unclamped > c.max(n as u32));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 48 * 2 * 5 * 6);
    assert!(overshoots > 100, "the take-back path was barely exercised: {overshoots}");
}

/// Everything observable about one optimizer run.
struct Observed {
    schedule: Schedule,
    stats: JointStats,
    trace: TraceData,
}

fn observe(
    reference: bool,
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
) -> Observed {
    let obs = Recorder::new();
    let (schedule, stats) = if reference {
        joint_optimize_reference_with_stats(dag, model, rm, objective, opts, &obs)
    } else {
        joint_optimize_with_stats(dag, model, rm, objective, opts, &obs)
    };
    Observed { schedule, stats, trace: obs.finish() }
}

type Named = (&'static str, Vec<(&'static str, AttrValue)>);

/// `sched.round` spans (creation order) and `sched.merge` / `sched.commit`
/// events (emission order), names and arguments — wall-clock stamps, the
/// only run-to-run noise, dropped.
fn sched_sequence(t: &TraceData) -> (Vec<Named>, Vec<Named>) {
    let rounds = t
        .spans
        .iter()
        .filter(|s| s.name == "sched.round")
        .map(|s| (s.name, s.attrs.clone()))
        .collect();
    let events = t
        .events
        .iter()
        .filter(|e| e.name == "sched.merge" || e.name == "sched.commit")
        .map(|e| (e.name, e.attrs.clone()))
        .collect();
    (rounds, events)
}

/// `dop_memo_hits` as the reference's own event stream implies it: replay
/// its candidates over a union-find; a candidate is a hit when its union
/// is a no-op or its trial mask was seen before.
fn memo_hits_implied_by(dag: &JobDag, t: &TraceData) -> (usize, usize) {
    let mut groups = StageGroups::singletons(dag.num_stages());
    let mut seen: HashSet<Vec<bool>> = HashSet::from([groups.colocation_mask(dag)]);
    let (mut hits, mut longest_noop_run, mut noop_run) = (0usize, 0usize, 0usize);
    for e in t.events.iter().filter(|e| e.name == "sched.merge") {
        let Some(AttrValue::U64(id)) = e.attr("edge") else { panic!("merge without edge") };
        let edge = dag.edge(EdgeId(*id as u32));
        let accepted = e.attr("verdict") == Some(&AttrValue::from("accept"));
        if groups.same_group(edge.src, edge.dst) {
            assert!(accepted, "a no-op union is always accepted");
            hits += 1;
            noop_run += 1;
            longest_noop_run = longest_noop_run.max(noop_run);
            continue;
        }
        let mut trial = groups.clone();
        trial.union(edge.src, edge.dst);
        hits += usize::from(!seen.insert(trial.colocation_mask(dag)));
        if accepted {
            groups = trial;
            noop_run = 0;
        }
    }
    (hits, longest_noop_run)
}

/// Full observable equality of the incremental optimizer and the
/// reference on one input; returns the longest run of consecutive no-op
/// commits the search went through.
fn assert_runs_identical(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
    ctx: &str,
) -> usize {
    let fast = observe(false, dag, model, rm, objective, opts);
    let slow = observe(true, dag, model, rm, objective, opts);
    assert_eq!(fast.schedule.scheduler, slow.schedule.scheduler, "{ctx}");
    assert_eq!(fast.schedule.dop, slow.schedule.dop, "dop: {ctx}");
    assert_eq!(fast.schedule.group_of, slow.schedule.group_of, "group_of: {ctx}");
    assert_eq!(fast.schedule.groups, slow.schedule.groups, "groups: {ctx}");
    assert_eq!(fast.schedule.colocated, slow.schedule.colocated, "mask: {ctx}");
    assert_eq!(fast.schedule.placement, slow.schedule.placement, "placement: {ctx}");
    let (hits, noop_run) = memo_hits_implied_by(dag, &slow.trace);
    // The reference does no memoization and reports 0 hits; the count it
    // *implies* is what the incremental loop must report.
    let expected = JointStats { dop_memo_hits: hits, ..slow.stats };
    assert_eq!(fast.stats, expected, "stats: {ctx}");
    let (fast_rounds, fast_events) = sched_sequence(&fast.trace);
    let (slow_rounds, slow_events) = sched_sequence(&slow.trace);
    assert_eq!(fast_rounds, slow_rounds, "sched.round spans: {ctx}");
    assert_eq!(fast_events.len(), slow_events.len(), "event count: {ctx}");
    for (i, (f, s)) in fast_events.iter().zip(&slow_events).enumerate() {
        assert_eq!(f, s, "event {i}: {ctx}");
    }
    noop_run
}

/// The benchmark's shape — 192 stages on 8 × 48 slots, seeds 1..=4 — for
/// the three order policies: schedules, `JointStats` and the whole
/// `sched.round` / `sched.merge` / `sched.commit` stream equal the
/// reference's. Resumable rounds are what this pins: most rounds here
/// follow a no-op commit and replay a rejected prefix.
#[test]
fn benchmark_shape_runs_are_identical_to_the_reference() {
    for seed in 1..=4u64 {
        let dag = random_dag(seed, &RandomDagConfig::sized(192));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![48; 8]);
        for policy in [
            GroupOrderPolicy::Greedy,
            GroupOrderPolicy::GlobalDescending,
            GroupOrderPolicy::Random(7),
        ] {
            for objective in [Objective::Jct, Objective::Cost] {
                let opts = JointOptions { order_policy: policy, ..JointOptions::default() };
                let ctx = format!("seed={seed} {objective} {policy:?}");
                assert_runs_identical(&dag, &model, &rm, objective, &opts, &ctx);
            }
        }
    }
}

/// A search that commits no-op unions back to back, with rejected
/// candidates carried across them: two 3-cliques (`a→b→c`, `a→c`) whose
/// chains group first and whose shortcut edges are then no-ops, beside a
/// wide pair that never fits a server and is rejected in every round.
#[test]
fn consecutive_noop_commits_carry_rejections() {
    let gb = 1u64 << 30;
    let dag = DagBuilder::new("noops")
        .stage("big1", StageKind::Map, 64 * gb, 32 * gb)
        .stage("big2", StageKind::Reduce, 0, gb)
        .stage("a", StageKind::Map, gb, gb)
        .stage("b", StageKind::Custom, 0, gb)
        .stage("c", StageKind::Reduce, 0, gb / 8)
        .stage("x", StageKind::Map, gb, gb)
        .stage("y", StageKind::Custom, 0, gb)
        .stage("z", StageKind::Reduce, 0, gb / 8)
        .edge("big1", "big2", EdgeKind::Shuffle, 32 * gb)
        .edge("a", "b", EdgeKind::Shuffle, gb)
        .edge("b", "c", EdgeKind::Shuffle, gb)
        .edge("a", "c", EdgeKind::Shuffle, gb / 64)
        .edge("x", "y", EdgeKind::Shuffle, gb)
        .edge("y", "z", EdgeKind::Shuffle, gb)
        .edge("x", "z", EdgeKind::Shuffle, gb / 64)
        .build()
        .unwrap();
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(vec![16; 4]);
    let mut longest = 0usize;
    for objective in [Objective::Jct, Objective::Cost] {
        for policy in [
            GroupOrderPolicy::Greedy,
            GroupOrderPolicy::GlobalDescending,
            GroupOrderPolicy::Random(3),
        ] {
            let opts = JointOptions { order_policy: policy, ..JointOptions::default() };
            let ctx = format!("{objective} {policy:?}");
            let run = assert_runs_identical(&dag, &model, &rm, objective, &opts, &ctx);
            longest = longest.max(run);
        }
    }
    assert!(longest >= 2, "no run of >= 2 consecutive no-op commits: {longest}");
}
