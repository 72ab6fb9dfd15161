//! Property-based tests of the scheduler's invariants, over random DAGs
//! and random clusters.

use ditto::cluster::ResourceManager;
use ditto::core::dop::{compute_dop, round_dops};
use ditto::core::grouping::{greedy_group_order, StageGroups};
use ditto::core::joint::{joint_optimize, JointOptions};
use ditto::core::predict::{predicted_cost, predicted_jct};
use ditto::core::reference::round_dops_reference;
use ditto::core::Objective;
use ditto::dag::generators::{random_dag, RandomDagConfig};
use ditto::dag::paths::{critical_path, DagWeights};
use ditto::timemodel::model::RateConfig;
use ditto::timemodel::JobTimeModel;
use proptest::prelude::*;

fn arb_dag_seed() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..500, 3usize..20, 2usize..6)
}

fn arb_cluster() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(4u32..96, 2..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fractional DoP assignment always distributes the full budget
    /// and every stage gets a positive share.
    #[test]
    fn dop_distributes_full_budget((seed, stages, layers) in arb_dag_seed(), c in 30u32..400) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers, ..Default::default() });
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let none = model.no_colocation();
        for obj in [Objective::Jct, Objective::Cost] {
            let a = compute_dop(&dag, &model, &none, obj, c);
            let total: f64 = a.fractional.iter().sum();
            prop_assert!((total - c as f64).abs() < 1e-6, "{obj}: {total} != {c}");
            prop_assert!(a.fractional.iter().all(|&f| f > 0.0));
            prop_assert!(a.dop.iter().all(|&d| d >= 1));
            prop_assert!(a.dop.iter().sum::<u32>() <= c.max(stages as u32));
        }
    }

    /// Rounding never exceeds the budget (when feasible) and never zeroes
    /// a stage — and the heap that takes slots back picks exactly the
    /// slots the original rescan-per-slot loop picked, at the natural
    /// budget and at tighter ones that force long take-backs.
    #[test]
    fn rounding_respects_budget(
        fracs in proptest::collection::vec(0.01f64..50.0, 1..30),
        squeeze in 0.0f64..1.0,
    ) {
        let n = fracs.len() as u32;
        let c = (fracs.iter().sum::<f64>().ceil() as u32).max(n);
        let dop = round_dops(&fracs, c);
        prop_assert!(dop.iter().all(|&d| d >= 1));
        prop_assert!(dop.iter().sum::<u32>() <= c.max(n));
        for (d, f) in dop.iter().zip(&fracs) {
            prop_assert!(*d as f64 <= f.max(1.0) + 1e-9, "rounding never exceeds the fraction");
        }
        for budget in [c, n + ((c - n) as f64 * squeeze) as u32, n, 1] {
            let dop = round_dops(&fracs, budget);
            prop_assert_eq!(&dop, &round_dops_reference(&fracs, budget), "budget {}", budget);
            prop_assert!(dop.iter().sum::<u32>() <= budget.max(n));
        }
    }

    /// Joint optimization always yields a valid schedule within budget,
    /// and its predicted objective never exceeds the ungrouped baseline
    /// by more than rounding slack.
    #[test]
    fn joint_is_valid_and_no_worse((seed, stages, layers) in arb_dag_seed(), free in arb_cluster()) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers, ..Default::default() });
        prop_assume!(free.iter().sum::<u32>() >= stages as u32);
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free);
        for obj in [Objective::Jct, Objective::Cost] {
            let s = joint_optimize(&dag, &model, &rm, obj, &JointOptions::default());
            prop_assert!(s.validate(&dag).is_ok());
            prop_assert!(s.total_slots() <= rm.total_free());

            let none = model.no_colocation();
            let base = compute_dop(&dag, &model, &none, obj, rm.total_free());
            let frac: Vec<f64> = s.dop.iter().map(|&d| d as f64).collect();
            let (after, before) = match obj {
                Objective::Jct => (
                    predicted_jct(&dag, &model, &frac, &s.colocated),
                    predicted_jct(&dag, &model, &base.fractional, &none),
                ),
                Objective::Cost => (
                    predicted_cost(&dag, &model, &frac, &s.colocated),
                    predicted_cost(&dag, &model, &base.fractional, &none),
                ),
            };
            // Integer rounding can cost a little; grouping must pay it back.
            prop_assert!(after <= before * 1.25, "{obj}: {after} vs {before}");
        }
    }

    /// The greedy order is a permutation of the edges, for both objectives.
    #[test]
    fn greedy_order_is_permutation((seed, stages, layers) in arb_dag_seed()) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers, ..Default::default() });
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let dop = vec![4u32; dag.num_stages()];
        let colocated = vec![false; dag.num_edges()];
        for obj in [Objective::Jct, Objective::Cost] {
            let order = greedy_group_order(&dag, &model, &dop, &colocated, obj);
            let mut ids: Vec<u32> = order.iter().map(|e| e.0).collect();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..dag.num_edges() as u32).collect::<Vec<_>>());
        }
    }

    /// The critical path is at least as heavy as every enumerated path.
    #[test]
    fn critical_path_dominates((seed, stages) in (0u64..200, 3usize..10)) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers: 3, ..Default::default() });
        let mut w = DagWeights::zeros(&dag);
        for (i, x) in w.node.iter_mut().enumerate() {
            *x = ((seed as usize + i * 7) % 13) as f64 + 0.5;
        }
        for (i, x) in w.edge.iter_mut().enumerate() {
            *x = ((seed as usize + i * 11) % 7) as f64;
        }
        let cp = critical_path(&dag, &w);
        for p in ditto::dag::paths::all_paths(&dag) {
            let pw = ditto::dag::paths::path_weight(&p, &w);
            prop_assert!(cp.weight >= pw - 1e-9, "cp {} < path {}", cp.weight, pw);
        }
    }

    /// Union-find groups are consistent with the colocation mask.
    #[test]
    fn groups_and_mask_agree((seed, stages, layers) in arb_dag_seed(), unions in proptest::collection::vec((0u32..20, 0u32..20), 0..10)) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers, ..Default::default() });
        let n = dag.num_stages();
        let mut g = StageGroups::singletons(n);
        for (a, b) in unions {
            let (a, b) = (a as usize % n, b as usize % n);
            g.union(ditto::dag::StageId(a as u32), ditto::dag::StageId(b as u32));
        }
        let mask = g.colocation_mask(&dag);
        for e in dag.edges() {
            prop_assert_eq!(mask[e.id.index()], g.same_group(e.src, e.dst));
        }
        // Groups partition the stages.
        let groups = g.groups(n);
        let total: usize = groups.iter().map(|x| x.len()).sum();
        prop_assert_eq!(total, n);
    }

    /// The incremental joint optimizer is bit-identical to the preserved
    /// reference implementation (the deeper deterministic sweep lives in
    /// `crates/core/tests/joint_equivalence.rs`).
    #[test]
    fn joint_matches_reference((seed, stages, layers) in arb_dag_seed(), free in arb_cluster()) {
        let dag = random_dag(seed, &RandomDagConfig { stages, layers, ..Default::default() });
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free);
        prop_assume!(rm.total_free() >= dag.num_stages() as u32);
        for obj in [Objective::Jct, Objective::Cost] {
            let fast = joint_optimize(&dag, &model, &rm, obj, &JointOptions::default());
            let slow = ditto::core::reference::joint_optimize_reference(
                &dag, &model, &rm, obj, &JointOptions::default());
            prop_assert_eq!(&fast.dop, &slow.dop);
            prop_assert_eq!(&fast.group_of, &slow.group_of);
            prop_assert_eq!(&fast.colocated, &slow.colocated);
            prop_assert_eq!(&fast.placement, &slow.placement);
        }
    }

    /// Rollback restores the union-find exactly; commit-time path
    /// compression preserves the smallest-id representative contract.
    #[test]
    fn stage_groups_rollback_and_compression(stages in 2usize..40, unions in proptest::collection::vec((0u32..40, 0u32..40), 1..20)) {
        let n = stages;
        let mut g = StageGroups::singletons(n);
        let mut plain = StageGroups::singletons(n);
        for (i, &(a, b)) in unions.iter().enumerate() {
            let (a, b) = (ditto::dag::StageId(a % n as u32), ditto::dag::StageId(b % n as u32));
            // Trial a throwaway union on g, then roll it back.
            let probe = ditto::dag::StageId((i as u32 * 7) % n as u32);
            let token = g.checkpoint();
            g.union(a, probe);
            g.rollback_to(token);
            // Now the real union on both, committing (compressing) g only.
            g.union(a, b);
            g.commit();
            plain.union(a, b);
            for s in 0..n as u32 {
                let s = ditto::dag::StageId(s);
                prop_assert_eq!(g.find(s), plain.find(s));
            }
        }
        for grp in g.groups(n) {
            prop_assert_eq!(g.find(grp[0]), *grp.iter().min().unwrap());
        }
    }
}

/// `figures -- audit` at smoke scale, where tier-1 sees it: every
/// scheduler's output on four seeded random DAGs × both objectives passes
/// its feasibility certificate.
#[test]
fn audit_sweep_certifies_every_scheduler() {
    assert!(ditto_bench::sweep_is_clean(&ditto_bench::audit_sweep(4)));
}
