//! Joint iterative optimization of parallelism and placement (Algorithm 3).
//!
//! Starting from singleton groups and the DoP-ratio configuration, each
//! iteration re-derives the greedy grouping order under the current DoPs,
//! then walks it: tentatively group an edge's endpoint stages, recompute
//! the optimal DoPs for the new co-location mask, and run the best-fit
//! placement check. The first edge that places commits; a failed edge is
//! rolled back and the next one tried. Iterations stop when a full pass
//! commits nothing. The predicted objective is non-increasing throughout
//! (paper Inequality 6): grouping only removes modeled I/O, and DoP ratio
//! computing is optimal for each mask.
//!
//! # Incremental hot path
//!
//! This implementation is the *incremental* rewrite of the loop above,
//! built to schedule 1000-stage DAGs at per-job latency. It is proved
//! bit-identical to [`crate::reference::joint_optimize_reference`] (the
//! original from-scratch loop) by the equivalence property tests. None of
//! the mechanisms below changes the search — same candidates, same
//! verdicts, same [`JointStats`], same event stream — only what it costs.
//! Where the time goes (a 192-stage random DAG under JCT, ≈3,100
//! candidates): a DoP recomputation per never-seen mask, a critical-path
//! update per pick, a placement verdict per candidate.
//!
//! *Per candidate:*
//!
//! * **Undo-able trial merges** — [`StageGroups`] carries a rollback log,
//!   so a candidate union is `checkpoint → union → rollback_to` instead of
//!   cloning the whole union-find (path compression only runs on commit).
//! * **Delta co-location masks** — a `ColocationIndex` keeps per-group
//!   incident-edge lists; a trial union flips only the edges that just
//!   became internal (O(smaller group's edges), reverted in O(flips))
//!   instead of remapping all `E` edges.
//! * **Flat DoP kernel, memoized** — one [`DopWorkspace`] lives for the
//!   whole run, so a DoP recomputation is a handful of allocation-free
//!   passes over the stages (no merge tree, see [`crate::dop`]). The result
//!   is deterministic in the mask (the DAG, model, objective and slot
//!   budget are fixed per call), and rejected candidates re-present
//!   identical masks in later rounds, so the rounded DoPs and their sum —
//!   all the loop reads — are memoized under the bit-packed mask
//!   fingerprint the index maintains incrementally.
//! * **Verdict-only placement** — candidates need a yes/no, not a plan:
//!   `crate::placement::placement_verdict` re-uses a scratch slot vector
//!   and the index's group lists, reducing the singleton phase to one
//!   aggregate comparison (the full check is retained as a debug
//!   assertion, and the final plan still comes from `can_place_with`).
//! * **No-op fast path** — an edge whose endpoints already share a group
//!   (transitively committed earlier) trials the *committed* configuration,
//!   which is placeable by construction: accept without re-checking.
//!
//! *Per pick (order generation):*
//!
//! * **Lazy greedy order** — only the order prefix up to the first commit
//!   is ever consumed, so JCT picks are generated on demand against reused
//!   weight buffers instead of materializing all `E`.
//! * **Incremental critical path** — a pick zeroes one edge, so only the
//!   stages downstream of it can change:
//!   [`CriticalPathCache::edge_zeroed`] re-relaxes just those (bitwise the
//!   full sweep's `best`/`pred`) instead of a whole-DAG sweep per pick.
//!
//! *Per round:*
//!
//! * **Resumable rounds** — a round that commits a no-op union leaves
//!   groups, mask, DoPs and weights untouched, so the next round's order is
//!   the same sequence and its rejected prefix would be rejected again,
//!   every one a memo hit. The next round instead *continues* the pick
//!   sequence where the last one stopped; the carried-over rejections are
//!   accounted (candidates, memo hits, and — under a live recorder — their
//!   `sched.merge` events) as if they had been replayed.
//! * **Bitset membership** — `ungrouped` is a bitmask, not a `Vec` scanned
//!   with `contains`/`retain` per round.

use crate::dop::DopWorkspace;
use crate::grouping::{
    grouping_weights_into, heavier_edge, sort_edges_by_weight_desc, ColocationIndex, StageGroups,
};
use crate::objective::Objective;
use crate::placement::{can_place_with, placement_verdict, PlacementScratch};
use crate::schedule::Schedule;
use ditto_cluster::ResourceManager;
use ditto_dag::paths::{CriticalPathCache, DagWeights};
use ditto_dag::{EdgeId, JobDag};
use ditto_obs::{Recorder, SpanId, Track};
use ditto_timemodel::JobTimeModel;
#[expect(
    clippy::disallowed_types,
    reason = "import for the DoP memo below"
)]
use std::collections::hash_map::{Entry, HashMap};

/// How the joint optimizer orders candidate edges each iteration
/// (ablation knob; Ditto's choice is [`GroupOrderPolicy::Greedy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupOrderPolicy {
    /// The paper's greedy order: heaviest edge on the current critical
    /// path for JCT, globally heaviest for cost (§4.3).
    Greedy,
    /// Globally descending edge weight regardless of objective.
    GlobalDescending,
    /// A fixed random permutation (seeded).
    Random(u64),
}

/// Upper bound on commit iterations, shared with the reference optimizer
/// (defensive; the loop naturally terminates after at most `|E|` commits).
pub(crate) const MAX_ITERATIONS: usize = 4096;

/// Options for the joint optimizer.
#[derive(Debug, Clone)]
pub struct JointOptions {
    /// Allow decomposing gather-only stage groups into task groups when a
    /// whole group fits no single server (§4.5). On by default.
    pub gather_decomposition: bool,
    /// Edge-ordering policy (ablation knob).
    pub order_policy: GroupOrderPolicy,
    /// Server-fit strategy for the placement check (ablation knob; Ditto
    /// uses best fit, §4.4).
    pub fit_strategy: crate::placement::FitStrategy,
}

impl Default for JointOptions {
    fn default() -> Self {
        JointOptions {
            gather_decomposition: true,
            order_policy: GroupOrderPolicy::Greedy,
            fit_strategy: crate::placement::FitStrategy::BestFit,
        }
    }
}

/// Loop statistics from one [`joint_optimize_with_stats`] call, for the
/// scheduler-throughput benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JointStats {
    /// Commit iterations run (`sched.round` spans).
    pub rounds: usize,
    /// Candidate edges evaluated across all rounds.
    pub candidates: usize,
    /// Candidates accepted (= edges removed from the ungrouped set).
    pub commits: usize,
    /// Candidate evaluations that skipped `compute_dop` — either a memoized
    /// mask fingerprint or the no-op fast path reusing committed DoPs.
    pub dop_memo_hits: usize,
}

/// Run Algorithm 3 and return the final schedule.
///
/// ```
/// use ditto_core::{joint_optimize, JointOptions, Objective};
/// use ditto_cluster::ResourceManager;
/// use ditto_timemodel::{model::RateConfig, JobTimeModel};
///
/// let dag = ditto_dag::generators::q95_shape();
/// let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
/// let rm = ResourceManager::from_free_slots(vec![96, 48, 24]);
/// let schedule = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
/// schedule.validate(&dag).unwrap();
/// assert!(schedule.total_slots() <= rm.total_free());
/// // On a roomy cluster some shuffle is co-located onto shared memory.
/// assert!(schedule.colocated.iter().any(|&c| c));
/// ```
///
/// # Panics
/// Panics if even the fully ungrouped configuration cannot be placed —
/// impossible when the rounded DoPs respect `Σd ≤ C` and `C ≥ #stages`,
/// which [`crate::dop::compute_dop`] guarantees for any
/// cluster with at least one slot per stage.
pub fn joint_optimize(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
) -> Schedule {
    joint_optimize_traced(dag, model, rm, objective, opts, &Recorder::disabled())
}

/// [`joint_optimize`] with telemetry: every scheduler decision lands on
/// the recorder's scheduler track (wall-clock timestamps). Emits a
/// `sched.joint` span over the whole run, a `sched.dop_ratio` span for
/// the initial parallelism configuration, one `sched.round` span per
/// commit iteration, a `sched.merge` event per candidate edge (with the
/// trial α/β of both endpoint stages and an accept/reject verdict), and
/// a `sched.placement` span for the final placement check. A disabled
/// recorder makes this identical to [`joint_optimize`].
pub fn joint_optimize_traced(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
    obs: &Recorder,
) -> Schedule {
    joint_optimize_with_stats(dag, model, rm, objective, opts, obs).0
}

/// [`joint_optimize_traced`] also reporting loop statistics (candidate
/// evaluations, rounds, commits, memo hits) for the scheduler benchmarks.
pub fn joint_optimize_with_stats(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
    obs: &Recorder,
) -> (Schedule, JointStats) {
    let c = rm.total_free();
    let n = dag.num_stages();
    let ne = dag.num_edges();
    let mut stats = JointStats::default();

    obs.name_track(Track::SCHEDULER_GROUP, "scheduler");
    let run_span = obs.begin(
        "sched.joint",
        Track::scheduler(0),
        obs.wall_now(),
        SpanId::NONE,
        vec![
            ("objective", objective.to_string().into()),
            ("stages", (n as u64).into()),
            ("edges", (ne as u64).into()),
            ("free_slots", (c as u64).into()),
        ],
    );

    let mut groups = StageGroups::singletons(n);
    let mut index = ColocationIndex::new(dag, &groups);
    let dop_span = obs.begin(
        "sched.dop_ratio",
        Track::scheduler(1),
        obs.wall_now(),
        run_span,
        vec![],
    );
    let mut ws = DopWorkspace::new(dag, model, objective, c.max(1));
    ws.compute(index.mask());
    // The committed configuration's DoPs.
    let mut dop: Vec<u32> = ws.dop().to_vec();
    obs.end(dop_span, obs.wall_now());
    assert!(
        can_place_with(dag, &dop, &groups, rm, opts.gather_decomposition, opts.fit_strategy).is_some(),
        "ungrouped baseline configuration must be placeable (C={c}, stages={n})"
    );

    // DoP memo: bit-packed mask fingerprint → (rounded DoPs, Σ dop).
    // Sound because the DAG, model, objective and budget are fixed here.
    #[expect(
        clippy::disallowed_types,
        reason = "memo keyed by colocation-mask fingerprint; entry lookups only, never iterated"
    )]
    let mut memo: HashMap<Vec<u64>, (Vec<u32>, u32)> = HashMap::new();
    memo.insert(index.words().to_vec(), (dop.clone(), ws.sum_dop()));

    // Committed multi-stage groups, by DSU tree root.
    let mut multi_roots: Vec<u32> = Vec::new();
    let mut scratch = PlacementScratch::new(rm);
    let mut flips: Vec<EdgeId> = Vec::new();

    // Order-generation state, reused across rounds.
    let lazy_jct =
        opts.order_policy == GroupOrderPolicy::Greedy && objective == Objective::Jct;
    let mut w = DagWeights::zeros(dag);
    let mut cp_cache = CriticalPathCache::new(dag);
    let mut cp_edges: Vec<EdgeId> = Vec::new();
    let mut jct_remaining: Vec<bool> = Vec::new();
    let mut jct_left = 0usize;
    let mut order_buf: Vec<EdgeId> = Vec::new();
    let mut eager_pos = 0usize;
    let fixed_order = matches!(opts.order_policy, GroupOrderPolicy::Random(_));
    if let GroupOrderPolicy::Random(seed) = opts.order_policy {
        // The reference re-shuffles per round from the same seed: the
        // permutation is identical every round, so derive it once.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order_buf.extend(dag.edges().iter().map(|e| e.id));
        order_buf.shuffle(&mut rng);
    }

    // Resumable rounds: while the previous round committed a no-op union
    // the configuration — and with it this round's order — is unchanged,
    // so the round continues the pick sequence. `rejected` holds the
    // candidates rejected since the order was last derived, in pick order.
    let mut resume = false;
    let mut rejected: Vec<EdgeId> = Vec::new();

    let mut ungrouped: Vec<bool> = vec![true; ne];
    let mut ungrouped_count = ne;
    let mut iterations = 0usize;
    while ungrouped_count > 0 && iterations < MAX_ITERATIONS {
        iterations += 1;
        let round_span = obs.begin(
            "sched.round",
            Track::scheduler(1),
            obs.wall_now(),
            run_span,
            vec![
                ("iteration", (iterations as u64).into()),
                ("ungrouped", (ungrouped_count as u64).into()),
            ],
        );
        if resume {
            // The reference re-trials the rejected prefix here: same
            // configuration, so the same masks (all memoized) and the
            // same verdicts.
            stats.candidates += rejected.len();
            stats.dop_memo_hits += rejected.len();
            if obs.is_enabled() {
                for &e in &rejected {
                    let edge = dag.edge(e);
                    let (ra, rb) = (groups.root_of(edge.src), groups.root_of(edge.dst));
                    let token = groups.checkpoint();
                    groups.union(edge.src, edge.dst);
                    flips.clear();
                    index.apply_union(dag, &groups, ra, rb, &mut flips);
                    emit_merge_event(obs, model, dag, e, index.mask(), false);
                    index.revert(&flips);
                    groups.rollback_to(token);
                }
            }
        } else {
            // Re-derive the edge order under the current DoPs and mask.
            // JCT picks are generated lazily below; the other policies
            // are one cheap sort (or the cached permutation).
            rejected.clear();
            eager_pos = 0;
            if !fixed_order {
                grouping_weights_into(dag, model, &dop, index.mask(), objective, &mut w);
                if lazy_jct {
                    jct_remaining.clear();
                    jct_remaining.resize(ne, true);
                    jct_left = ne;
                    cp_cache.critical_path_edges_into(dag, &w, &mut cp_edges);
                } else {
                    // Greedy-for-cost and GlobalDescending are both a
                    // global descending-weight sort under the objective's
                    // weights.
                    order_buf.clear();
                    order_buf.extend(dag.edges().iter().map(|e| e.id));
                    sort_edges_by_weight_desc(&mut order_buf, &w);
                }
            }
        }

        let mut committed: Option<EdgeId> = None;
        loop {
            // Next candidate: the next still-ungrouped edge in this
            // round's order, or end the round.
            let e = if lazy_jct {
                // Lazy Fig. 6b pick: heaviest remaining edge on the
                // current critical path (globally heaviest when the path
                // is exhausted), zero its weight, repeat — yielding only
                // ungrouped picks. Identical pick sequence to the eager
                // `greedy_group_order` + filter, consumed only as far as
                // the first commit. `cp_edges` is the path under `w`.
                let mut pick = None;
                while jct_left > 0 {
                    #[expect(
                        clippy::expect_used,
                        reason = "division guarded by the jct_left positivity check in the same expression"
                    )]
                    let p = cp_edges
                        .iter()
                        .copied()
                        .filter(|e| jct_remaining[e.index()])
                        .max_by(|&a, &b| heavier_edge(&w, a, b))
                        .unwrap_or_else(|| {
                            (0..ne)
                                .map(|i| EdgeId(i as u32))
                                .filter(|e| jct_remaining[e.index()])
                                .max_by(|&a, &b| heavier_edge(&w, a, b))
                                .expect("jct_left > 0")
                        });
                    w.edge[p.index()] = 0.0; // re-profile: ω(e) ← 0
                    jct_remaining[p.index()] = false;
                    jct_left -= 1;
                    cp_cache.edge_zeroed(dag, &w, p);
                    cp_cache.current_edges_into(dag, &mut cp_edges);
                    if ungrouped[p.index()] {
                        pick = Some(p);
                        break;
                    }
                }
                match pick {
                    Some(p) => p,
                    None => break,
                }
            } else {
                let mut pick = None;
                while eager_pos < order_buf.len() {
                    let p = order_buf[eager_pos];
                    eager_pos += 1;
                    if ungrouped[p.index()] {
                        pick = Some(p);
                        break;
                    }
                }
                match pick {
                    Some(p) => p,
                    None => break,
                }
            };

            stats.candidates += 1;
            let edge = dag.edge(e);
            let (ra, rb) = (groups.root_of(edge.src), groups.root_of(edge.dst));
            if ra == rb {
                // No-op union: the endpoints were grouped transitively by
                // an earlier commit, so the trial configuration *is* the
                // committed one — placeable by construction.
                stats.dop_memo_hits += 1;
                debug_assert!(can_place_with(
                    dag,
                    &dop,
                    &groups,
                    rm,
                    opts.gather_decomposition,
                    opts.fit_strategy
                )
                .is_some());
                if obs.is_enabled() {
                    emit_merge_event(obs, model, dag, e, index.mask(), true);
                }
                committed = Some(e);
                resume = true;
                break;
            }

            // Trial: undo-able union + mask delta + memoized DoPs +
            // verdict-only placement.
            let token = groups.checkpoint();
            groups.union(edge.src, edge.dst);
            flips.clear();
            index.apply_union(dag, &groups, ra, rb, &mut flips);
            let (trial_dop, trial_sum) = match memo.entry(index.words().to_vec()) {
                Entry::Occupied(hit) => {
                    stats.dop_memo_hits += 1;
                    hit.into_mut()
                }
                Entry::Vacant(miss) => {
                    ws.compute(index.mask());
                    miss.insert((ws.dop().to_vec(), ws.sum_dop()))
                }
            };
            let placeable = placement_verdict(
                dag,
                trial_dop,
                *trial_sum,
                &index,
                &multi_roots,
                Some((ra, rb)),
                rm,
                &mut scratch,
                opts.gather_decomposition,
                opts.fit_strategy,
            );
            debug_assert_eq!(
                placeable,
                can_place_with(
                    dag,
                    trial_dop,
                    &groups,
                    rm,
                    opts.gather_decomposition,
                    opts.fit_strategy
                )
                .is_some(),
                "verdict fast path diverged from the full placement check"
            );
            if obs.is_enabled() {
                emit_merge_event(obs, model, dag, e, index.mask(), placeable);
            }
            if placeable {
                dop.clone_from(trial_dop);
                groups.commit();
                let surviving = groups.root_of(edge.src);
                let absorbed = if surviving == ra { rb } else { ra };
                index.merge_committed(surviving, absorbed);
                multi_roots.retain(|&r| r != ra && r != rb);
                multi_roots.push(surviving);
                committed = Some(e);
                resume = false;
                break;
            }
            rejected.push(e);
            index.revert(&flips);
            groups.rollback_to(token);
        }
        obs.end(round_span, obs.wall_now());
        match committed {
            Some(e) => {
                stats.commits += 1;
                ungrouped[e.index()] = false;
                ungrouped_count -= 1;
                obs.event(
                    "sched.commit",
                    Track::scheduler(0),
                    obs.wall_now(),
                    vec![
                        ("iteration", (iterations as u64).into()),
                        ("edge", (e.index() as u64).into()),
                    ],
                );
            }
            None => break, // no edge in E_u groupable → done
        }
    }
    stats.rounds = iterations;

    let place_span = obs.begin(
        "sched.placement",
        Track::scheduler(1),
        obs.wall_now(),
        run_span,
        vec![],
    );
    #[expect(
        clippy::expect_used,
        reason = "placement_verdict accepted this exact configuration before commit"
    )]
    let plan = can_place_with(
        dag,
        &dop,
        &groups,
        rm,
        opts.gather_decomposition,
        opts.fit_strategy,
    )
    .expect("committed configuration was verified placeable");
    obs.end(place_span, obs.wall_now());
    // An edge is effectively colocated only when both endpoints ended on
    // the same server set; group membership is exactly that by
    // construction (groups place wholly on one server, or into aligned
    // gather chunks).
    let schedule = Schedule {
        scheduler: format!("ditto-{objective}"),
        dop,
        group_of: groups.group_of(n),
        groups: groups.groups(n),
        colocated: index.mask().to_vec(),
        placement: plan.stage_placement,
    };
    if obs.is_enabled() {
        obs.gauge_set("sched.groups", "", schedule.groups.len() as f64);
        obs.gauge_set("sched.slots", "", schedule.total_slots() as f64);
        obs.gauge_set("sched.iterations", "", iterations as f64);
    }
    obs.end(run_span, obs.wall_now());
    (schedule, stats)
}

/// The per-candidate `sched.merge` event (same shape as the reference
/// implementation's): trial α/β of both endpoint stages + verdict.
fn emit_merge_event(
    obs: &Recorder,
    model: &JobTimeModel,
    dag: &JobDag,
    e: EdgeId,
    trial_mask: &[bool],
    placeable: bool,
) {
    let edge = dag.edge(e);
    obs.event(
        "sched.merge",
        Track::scheduler(1),
        obs.wall_now(),
        vec![
            ("edge", (e.index() as u64).into()),
            ("src", (edge.src.index() as u64).into()),
            ("dst", (edge.dst.index() as u64).into()),
            ("src_alpha", model.stage_alpha(dag, edge.src, trial_mask).into()),
            ("src_beta", model.stage_beta(dag, edge.src, trial_mask).into()),
            ("dst_alpha", model.stage_alpha(dag, edge.dst, trial_mask).into()),
            ("dst_beta", model.stage_beta(dag, edge.dst, trial_mask).into()),
            ("verdict", if placeable { "accept" } else { "reject" }.into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dop::compute_dop;
    use crate::predict::{predicted_cost, predicted_jct};
    use crate::reference::joint_optimize_reference;
    use ditto_dag::generators;
    use ditto_timemodel::model::RateConfig;

    fn setup(free: &[u32]) -> (JobDag, JobTimeModel, ResourceManager) {
        let dag = generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        (dag, model, rm)
    }

    use ditto_dag::JobDag;

    #[test]
    fn produces_valid_schedule() {
        let (dag, model, rm) = setup(&[96, 50, 30, 20, 12, 8, 6, 4]);
        let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        s.validate(&dag).unwrap();
        assert!(s.total_slots() <= rm.total_free());
        assert!(s.groups.len() <= dag.num_stages());
    }

    #[test]
    fn groups_heavy_edges_when_room() {
        // A roomy cluster lets Ditto group aggressively.
        let (dag, model, rm) = setup(&[96; 8]);
        let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        let grouped_edges = s.colocated.iter().filter(|&&c| c).count();
        assert!(grouped_edges > 0, "roomy cluster should co-locate something");
    }

    #[test]
    fn tight_cluster_groups_less() {
        let (dag, model, roomy) = setup(&[96; 8]);
        let tight = ResourceManager::from_free_slots(vec![10; 8]);
        let s_roomy = joint_optimize(&dag, &model, &roomy, Objective::Jct, &JointOptions::default());
        let s_tight = joint_optimize(&dag, &model, &tight, Objective::Jct, &JointOptions::default());
        let g_roomy = s_roomy.colocated.iter().filter(|&&c| c).count();
        let g_tight = s_tight.colocated.iter().filter(|&&c| c).count();
        assert!(g_tight <= g_roomy);
        s_tight.validate(&dag).unwrap();
    }

    /// Inequality 6: the predicted objective after joint optimization is no
    /// worse than the ungrouped DoP-ratio baseline.
    #[test]
    fn objective_non_increasing_vs_baseline() {
        for obj in [Objective::Jct, Objective::Cost] {
            let (dag, model, rm) = setup(&[96, 50, 30, 20, 12, 8, 6, 4]);
            let c = rm.total_free();
            let base = compute_dop(&dag, &model, &model.no_colocation(), obj, c);
            let s = joint_optimize(&dag, &model, &rm, obj, &JointOptions::default());
            let frac: Vec<f64> = s.dop.iter().map(|&d| d as f64).collect();
            let base_frac = base.fractional.clone();
            let (before, after) = match obj {
                Objective::Jct => (
                    predicted_jct(&dag, &model, &base_frac, &model.no_colocation()),
                    predicted_jct(&dag, &model, &frac, &s.colocated),
                ),
                Objective::Cost => (
                    predicted_cost(&dag, &model, &base_frac, &model.no_colocation()),
                    predicted_cost(&dag, &model, &frac, &s.colocated),
                ),
            };
            // Allow rounding slack: integer DoPs vs fractional baseline.
            assert!(
                after <= before * 1.10,
                "{obj}: after={after} before={before}"
            );
        }
    }

    #[test]
    fn works_on_every_generator_shape() {
        let shapes: Vec<JobDag> = vec![
            generators::fig1_join(),
            generators::q95_shape(),
            generators::chain(6, 1 << 30, 0.5),
            generators::fan_in(&[1 << 30, 2 << 30, 3 << 30], 0.1),
            generators::diamond(1 << 30),
        ];
        for dag in shapes {
            let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
            let rm = ResourceManager::from_free_slots(vec![48, 24, 12, 6]);
            for obj in [Objective::Jct, Objective::Cost] {
                let s = joint_optimize(&dag, &model, &rm, obj, &JointOptions::default());
                s.validate(&dag).unwrap_or_else(|e| panic!("{}: {e}", dag.name()));
            }
        }
    }

    #[test]
    fn deterministic() {
        let (dag, model, rm) = setup(&[96, 50, 30, 20, 12, 8, 6, 4]);
        let a = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        let b = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        assert_eq!(a.dop, b.dop);
        assert_eq!(a.group_of, b.group_of);
    }

    /// The incremental loop matches the reference oracle on the named
    /// generator shapes, every order policy and fit strategy (deeper
    /// random-DAG sweeps live in `tests/joint_equivalence.rs`).
    #[test]
    fn matches_reference_on_generator_shapes() {
        use crate::placement::FitStrategy;
        let shapes: Vec<JobDag> = vec![
            generators::fig1_join(),
            generators::q95_shape(),
            generators::chain(6, 1 << 30, 0.5),
            generators::fan_in(&[1 << 30, 2 << 30, 3 << 30], 0.1),
            generators::diamond(1 << 30),
        ];
        for dag in &shapes {
            let model = JobTimeModel::from_rates(dag, &RateConfig::default());
            let rm = ResourceManager::from_free_slots(vec![48, 24, 12, 6]);
            for obj in [Objective::Jct, Objective::Cost] {
                for policy in [
                    GroupOrderPolicy::Greedy,
                    GroupOrderPolicy::GlobalDescending,
                    GroupOrderPolicy::Random(7),
                ] {
                    for fit in [FitStrategy::BestFit, FitStrategy::FirstFit, FitStrategy::WorstFit]
                    {
                        let opts = JointOptions {
                            order_policy: policy,
                            fit_strategy: fit,
                            ..JointOptions::default()
                        };
                        let fast = joint_optimize(dag, &model, &rm, obj, &opts);
                        let slow = joint_optimize_reference(dag, &model, &rm, obj, &opts);
                        assert_eq!(fast.dop, slow.dop, "{} {obj} {policy:?} {fit:?}", dag.name());
                        assert_eq!(fast.group_of, slow.group_of, "{}", dag.name());
                        assert_eq!(fast.groups, slow.groups, "{}", dag.name());
                        assert_eq!(fast.colocated, slow.colocated, "{}", dag.name());
                        assert_eq!(fast.placement, slow.placement, "{}", dag.name());
                    }
                }
            }
        }
    }
}
