//! Best-fit placement check (paper §4.4) with gather decomposition (§4.5).
//!
//! Given deterministic stage groups and per-stage DoPs, `CAN_PLACE` decides
//! whether the cluster can host the plan:
//!
//! 1. stage groups are sorted in descending slot demand;
//! 2. each *multi-stage* group must land wholly on one server (that is the
//!    point of grouping: intra-server zero-copy shuffle) — placed on the
//!    best-fit server, i.e. the one with the *nearest* sufficient free
//!    slot count;
//! 3. a group that fits no server may still place if all of its internal
//!    edges are `gather` (one-to-one): the group decomposes into aligned
//!    fine-grained *task groups* (Fig. 7), each placed best-fit;
//! 4. singleton stages have no co-location requirement; their tasks spread
//!    over whatever slots remain.
//!
//! Placement failure makes the joint optimizer backtrack the grouping that
//! caused it (Algorithm 3).

use crate::grouping::{ColocationIndex, StageGroups};
use crate::schedule::TaskPlacement;
use ditto_cluster::{ResourceManager, ServerId};
use ditto_dag::{EdgeKind, JobDag, StageId};

/// How a stage group is matched to a server (ablation knob; Ditto uses
/// best fit, §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitStrategy {
    /// The server with the *nearest* sufficient free-slot count (§4.4).
    #[default]
    BestFit,
    /// The first (lowest-id) server that fits.
    FirstFit,
    /// The server with the *most* free slots.
    WorstFit,
}

/// Reserve `n` slots on a server chosen by the strategy.
fn reserve_fit(rm: &mut ResourceManager, n: u32, strategy: FitStrategy) -> Option<ServerId> {
    let pick = match strategy {
        FitStrategy::BestFit => rm.best_fit(n),
        FitStrategy::FirstFit => (0..rm.num_servers())
            .map(|i| ServerId(i as u32))
            .find(|&s| rm.free_on(s) >= n),
        FitStrategy::WorstFit => (0..rm.num_servers())
            .map(|i| ServerId(i as u32))
            .filter(|&s| rm.free_on(s) >= n)
            .max_by_key(|&s| (rm.free_on(s), std::cmp::Reverse(s))),
    }?;
    let ok = rm.reserve(pick, n);
    debug_assert!(ok);
    Some(pick)
}

/// A feasible placement for every stage.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// Placement per stage, indexed by `StageId`.
    pub stage_placement: Vec<TaskPlacement>,
}

/// `true` if every edge internal to the group is a gather (one-to-one)
/// dependency, making the group decomposable into task groups (§4.5).
fn gather_decomposable(dag: &JobDag, group: &[StageId]) -> bool {
    let in_group = |s: StageId| group.contains(&s);
    dag.edges()
        .iter()
        .filter(|e| in_group(e.src) && in_group(e.dst))
        .all(|e| e.kind == EdgeKind::Gather)
}

/// Split `dop` tasks into `k` near-equal chunks (first chunks get the
/// remainder), dropping empty chunks is the caller's concern (`dop ≥ k`
/// need not hold).
fn chunk_dop(dop: u32, k: u32) -> Vec<u32> {
    let base = dop / k;
    let rem = dop % k;
    (0..k).map(|i| base + u32::from(i < rem)).collect()
}

/// The best-fit placement check (`CAN_PLACE`). Works on a *clone* of the
/// resource snapshot: the caller's manager is untouched, so failed checks
/// are free to retry with different groupings.
///
/// Returns the placement plan if the configuration fits, `None` otherwise.
pub fn can_place(
    dag: &JobDag,
    dop: &[u32],
    groups: &StageGroups,
    rm: &ResourceManager,
    allow_gather_decomposition: bool,
) -> Option<PlacementPlan> {
    can_place_with(
        dag,
        dop,
        groups,
        rm,
        allow_gather_decomposition,
        FitStrategy::BestFit,
    )
}

/// [`can_place`] with an explicit server-fit strategy (ablation knob).
pub(crate) fn can_place_with(
    dag: &JobDag,
    dop: &[u32],
    groups: &StageGroups,
    rm: &ResourceManager,
    allow_gather_decomposition: bool,
    strategy: FitStrategy,
) -> Option<PlacementPlan> {
    let n = dag.num_stages();
    let mut rm = rm.clone();
    let mut placement: Vec<Option<TaskPlacement>> = vec![None; n];

    let group_list = groups.groups(n);
    // Multi-stage groups first, descending slot demand; ties by first id.
    let mut multi: Vec<&Vec<StageId>> = group_list.iter().filter(|g| g.len() > 1).collect();
    multi.sort_by_key(|g| {
        let req: u32 = g.iter().map(|s| dop[s.index()]).sum();
        (std::cmp::Reverse(req), g[0])
    });

    for group in multi {
        let req: u32 = group.iter().map(|s| dop[s.index()]).sum();
        if let Some(server) = reserve_fit(&mut rm, req, strategy) {
            for &s in group {
                placement[s.index()] = Some(TaskPlacement::Single(server));
            }
            continue;
        }
        // Whole-group placement failed; try gather decomposition.
        if !(allow_gather_decomposition && gather_decomposable(dag, group)) {
            return None;
        }
        let min_dop = group.iter().map(|s| dop[s.index()]).min().unwrap_or(0);
        let max_free = rm.max_free();
        if max_free == 0 || min_dop == 0 {
            return None;
        }
        // Fewest chunks whose largest piece fits the roomiest server; more
        // chunks than the smallest DoP would leave empty task groups.
        let k = req.div_ceil(max_free);
        if k > min_dop {
            return None;
        }
        // Chunk every stage's tasks into k aligned pieces and best-fit each
        // piece (the aligned pieces of all stages go to the same server to
        // preserve gather locality).
        let per_stage: Vec<Vec<u32>> = group.iter().map(|s| chunk_dop(dop[s.index()], k)).collect();
        let mut parts: Vec<Vec<(ditto_cluster::ServerId, u32)>> = vec![Vec::new(); group.len()];
        for c in 0..k as usize {
            let piece: u32 = per_stage.iter().map(|v| v[c]).sum();
            let server = reserve_fit(&mut rm, piece, strategy)?;
            for (gi, v) in per_stage.iter().enumerate() {
                if v[c] > 0 {
                    parts[gi].push((server, v[c]));
                }
            }
        }
        for (gi, &s) in group.iter().enumerate() {
            placement[s.index()] = Some(TaskPlacement::Spread(parts[gi].clone()));
        }
    }

    // Singleton stages: no co-location requirement; spread task by task.
    // Descending DoP keeps the packing deterministic and tight.
    let mut singles: Vec<StageId> = group_list
        .iter()
        .filter(|g| g.len() == 1)
        .map(|g| g[0])
        .collect();
    singles.sort_by_key(|s| (std::cmp::Reverse(dop[s.index()]), *s));
    for s in singles {
        let spread = rm.reserve_spread(dop[s.index()])?;
        placement[s.index()] = Some(TaskPlacement::Spread(spread));
    }

    #[expect(
        clippy::expect_used,
        reason = "every stage is either in a placed group or placed as a singleton by construction"
    )]
    let stage_placement = placement
        .into_iter()
        .map(|p| p.expect("all stages placed"))
        .collect();
    Some(PlacementPlan { stage_placement })
}

/// Reusable buffers for [`placement_verdict`], so the joint optimizer's
/// candidate loop evaluates placements without per-trial allocation.
#[derive(Debug, Clone)]
pub(crate) struct PlacementScratch {
    rm: ResourceManager,
    /// `(req, min_id, root, is_merged_trial_group)` per multi-stage group.
    multi: Vec<(u32, u32, u32, bool)>,
}

impl PlacementScratch {
    /// Scratch sized for the cluster snapshot `rm`.
    pub(crate) fn new(rm: &ResourceManager) -> Self {
        PlacementScratch {
            rm: rm.clone(),
            multi: Vec::new(),
        }
    }
}

/// Allocation-free equivalent of `can_place_with(dag, …).is_some()` for the
/// joint optimizer's trial loop, driven by the delta-maintained
/// [`ColocationIndex`] instead of materialized group lists.
///
/// `multi_roots` are the committed multi-stage groups' DSU tree roots;
/// `merged` names the two pre-union roots of the trial merge (their member /
/// edge lists are still unfolded — they are skipped in `multi_roots` and
/// evaluated as one combined group). `sum_dop` is `Σ dop` over all stages.
///
/// Equivalence to the full check, phase by phase:
/// * multi-stage groups are visited in the same `(demand desc, min id)`
///   order with real reservations on a scratch manager, so best/first/worst
///   fit and gather decomposition behave identically (chunk sums are
///   member-order-independent);
/// * the singleton phase reduces to `remaining free ≥ Σ singleton DoPs`:
///   `ResourceManager::reserve_spread(n)` fails iff fewer than `n` slots
///   remain in total and otherwise consumes exactly `n`, so the sequence of
///   per-singleton spreads succeeds iff the aggregate inequality holds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn placement_verdict(
    dag: &JobDag,
    dop: &[u32],
    sum_dop: u32,
    index: &ColocationIndex,
    multi_roots: &[u32],
    merged: Option<(u32, u32)>,
    base: &ResourceManager,
    scratch: &mut PlacementScratch,
    allow_gather_decomposition: bool,
    strategy: FitStrategy,
) -> bool {
    scratch.rm.copy_free_from(base);
    scratch.multi.clear();
    let mut multi_req_total = 0u32;
    for &r in multi_roots {
        if let Some((ra, rb)) = merged {
            if r == ra || r == rb {
                continue;
            }
        }
        let (mut req, mut min_id) = (0u32, u32::MAX);
        for &m in index.members(r) {
            req += dop[m as usize];
            min_id = min_id.min(m);
        }
        scratch.multi.push((req, min_id, r, false));
        multi_req_total += req;
    }
    if let Some((ra, rb)) = merged {
        let (mut req, mut min_id) = (0u32, u32::MAX);
        for &m in index.members(ra).iter().chain(index.members(rb)) {
            req += dop[m as usize];
            min_id = min_id.min(m);
        }
        scratch.multi.push((req, min_id, ra, true));
        multi_req_total += req;
    }
    // Same order as `can_place_with`: descending demand, ties by the
    // group's smallest stage id (unique per group → total order).
    let mut multi = std::mem::take(&mut scratch.multi);
    multi.sort_unstable_by_key(|&(req, min_id, ..)| (std::cmp::Reverse(req), min_id));

    let mut ok = true;
    'groups: for &(req, _, root, is_merged) in &multi {
        if reserve_fit(&mut scratch.rm, req, strategy).is_some() {
            continue;
        }
        // Whole-group placement failed; mirror the gather-decomposition
        // fallback. Internal edges of the group are exactly the mask-true
        // edges on its incident lists (possibly duplicated — harmless).
        #[expect(
            clippy::expect_used,
            reason = "merged is set on the same branch that sets is_merged"
        )]
        let (ra, rb) = if is_merged {
            (root, merged.expect("is_merged implies merged roots").1)
        } else {
            (root, root)
        };
        let internal_all_gather = index
            .edges_touching(ra)
            .iter()
            .chain(if is_merged { index.edges_touching(rb) } else { &[] })
            .filter(|e| index.mask()[e.index()])
            .all(|&e| dag.edge(e).kind == EdgeKind::Gather);
        if !(allow_gather_decomposition && internal_all_gather) {
            ok = false;
            break;
        }
        let members = || {
            index
                .members(ra)
                .iter()
                .chain(if is_merged { index.members(rb) } else { &[] })
                .copied()
        };
        let min_dop = members().map(|m| dop[m as usize]).min().unwrap_or(0);
        let max_free = scratch.rm.max_free();
        if max_free == 0 || min_dop == 0 {
            ok = false;
            break;
        }
        let k = req.div_ceil(max_free);
        if k > min_dop {
            ok = false;
            break;
        }
        for c in 0..k {
            // Aligned chunk `c`'s total demand: Σ ⌈dop/k⌉-style pieces
            // (`chunk_dop` without the allocation).
            let piece: u32 = members()
                .map(|m| {
                    let d = dop[m as usize];
                    d / k + u32::from(c < d % k)
                })
                .sum();
            if reserve_fit(&mut scratch.rm, piece, strategy).is_none() {
                ok = false;
                break 'groups;
            }
        }
    }
    scratch.multi = multi;
    scratch.multi.clear();
    ok && scratch.rm.total_free() >= sum_dop - multi_req_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::generators;
    use ditto_dag::{DagBuilder, StageKind};

    fn rm(free: &[u32]) -> ResourceManager {
        ResourceManager::from_free_slots(free.to_vec())
    }

    #[test]
    fn singletons_spread_anywhere() {
        let dag = generators::fig1_join();
        let groups = StageGroups::singletons(3);
        let plan = can_place(&dag, &[5, 3, 2], &groups, &rm(&[4, 4, 4]), true).unwrap();
        // All 10 tasks placed.
        let placed: u32 = plan
            .stage_placement
            .iter()
            .map(|p| match p {
                TaskPlacement::Spread(parts) => parts.iter().map(|&(_, c)| c).sum(),
                TaskPlacement::Single(_) => 0,
            })
            .sum();
        assert_eq!(placed, 10);
    }

    #[test]
    fn too_many_tasks_fail() {
        let dag = generators::fig1_join();
        let groups = StageGroups::singletons(3);
        assert!(can_place(&dag, &[5, 5, 3], &groups, &rm(&[4, 4, 4]), true).is_none());
    }

    #[test]
    fn group_requires_one_server() {
        let dag = generators::fig1_join();
        let mut groups = StageGroups::singletons(3);
        groups.union(StageId(0), StageId(2)); // map1 + join, shuffle edge
        // Group needs 5+2=7 slots on one server; only 4 anywhere → fail
        // (shuffle edges are not gather-decomposable).
        assert!(can_place(&dag, &[5, 3, 2], &groups, &rm(&[4, 4, 4]), true).is_none());
        // With a 7-slot server it fits, best-fit picks the tightest (srv2).
        let plan = can_place(&dag, &[5, 3, 2], &groups, &rm(&[9, 4, 7]), true).unwrap();
        match (&plan.stage_placement[0], &plan.stage_placement[2]) {
            (TaskPlacement::Single(a), TaskPlacement::Single(b)) => {
                assert_eq!(a, b);
                assert_eq!(a.index(), 2, "best fit = nearest slot count");
            }
            other => panic!("expected single-server group, got {other:?}"),
        }
    }

    #[test]
    fn gather_group_decomposes() {
        // up --gather--> down, 4+4 tasks; servers of 4 slots each force a
        // decomposition into two aligned task groups (Fig. 7b).
        let dag = DagBuilder::new("g")
            .stage("up", StageKind::Map, 0, 0)
            .stage("down", StageKind::Reduce, 0, 0)
            .edge("up", "down", EdgeKind::Gather, 100)
            .build()
            .unwrap();
        let mut groups = StageGroups::singletons(2);
        groups.union(StageId(0), StageId(1));
        let plan = can_place(&dag, &[4, 4], &groups, &rm(&[4, 4, 4]), true).unwrap();
        // Each stage splits 2+2 across two servers, aligned.
        let (up, down) = (&plan.stage_placement[0], &plan.stage_placement[1]);
        match (up, down) {
            (TaskPlacement::Spread(u), TaskPlacement::Spread(d)) => {
                assert_eq!(u.len(), 2);
                assert_eq!(u, d, "aligned chunks share servers");
            }
            other => panic!("expected decomposed spread, got {other:?}"),
        }
        // Decomposition disabled → fail.
        assert!(can_place(&dag, &[4, 4], &groups, &rm(&[4, 4, 4]), false).is_none());
    }

    #[test]
    fn shuffle_group_does_not_decompose() {
        let dag = DagBuilder::new("s")
            .stage("up", StageKind::Map, 0, 0)
            .stage("down", StageKind::Reduce, 0, 0)
            .edge("up", "down", EdgeKind::Shuffle, 100)
            .build()
            .unwrap();
        let mut groups = StageGroups::singletons(2);
        groups.union(StageId(0), StageId(1));
        assert!(can_place(&dag, &[4, 4], &groups, &rm(&[4, 4, 4]), true).is_none());
    }

    #[test]
    fn decomposition_respects_min_dop() {
        // Down has 1 task: can't split into 2 chunks.
        let dag = DagBuilder::new("g")
            .stage("up", StageKind::Map, 0, 0)
            .stage("down", StageKind::Reduce, 0, 0)
            .edge("up", "down", EdgeKind::Gather, 100)
            .build()
            .unwrap();
        let mut groups = StageGroups::singletons(2);
        groups.union(StageId(0), StageId(1));
        assert!(can_place(&dag, &[6, 1], &groups, &rm(&[4, 4]), true).is_none());
    }

    #[test]
    fn caller_snapshot_untouched() {
        let dag = generators::fig1_join();
        let groups = StageGroups::singletons(3);
        let snapshot = rm(&[4, 4, 4]);
        let _ = can_place(&dag, &[4, 4, 4], &groups, &snapshot, true);
        assert_eq!(snapshot.total_free(), 12, "can_place must not mutate");
    }

    #[test]
    fn fit_strategies_pick_different_servers() {
        let dag = generators::fig1_join();
        let mut groups = StageGroups::singletons(3);
        groups.union(StageId(0), StageId(2));
        let dop = [3u32, 1, 2]; // group needs 5 slots
        let free = rm(&[9, 5, 7]);
        let server_of = |strategy: FitStrategy| {
            let plan = can_place_with(&dag, &dop, &groups, &free, true, strategy).unwrap();
            match &plan.stage_placement[0] {
                TaskPlacement::Single(s) => s.index(),
                other => panic!("expected single, got {other:?}"),
            }
        };
        assert_eq!(server_of(FitStrategy::BestFit), 1, "nearest fit = 5 slots");
        assert_eq!(server_of(FitStrategy::FirstFit), 0, "first that fits");
        assert_eq!(server_of(FitStrategy::WorstFit), 0, "most free slots");
    }

    #[test]
    fn worst_fit_prefers_roomiest() {
        let dag = generators::fig1_join();
        let mut groups = StageGroups::singletons(3);
        groups.union(StageId(1), StageId(2));
        let dop = [1u32, 2, 2];
        let free = rm(&[4, 12, 6]);
        let plan =
            can_place_with(&dag, &dop, &groups, &free, true, FitStrategy::WorstFit).unwrap();
        match &plan.stage_placement[1] {
            TaskPlacement::Single(s) => assert_eq!(s.index(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chunking_is_even() {
        assert_eq!(chunk_dop(7, 3), vec![3, 2, 2]);
        assert_eq!(chunk_dop(4, 2), vec![2, 2]);
        assert_eq!(chunk_dop(2, 4), vec![1, 1, 0, 0]);
    }
}
