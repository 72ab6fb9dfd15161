//! The pre-incremental joint optimizer and the tree-building DoP ratio
//! computing it was written against, kept verbatim as the equivalence
//! oracle and benchmark baseline.
//!
//! [`joint_optimize_reference`] is Algorithm 3 exactly as first
//! implemented: every candidate edge clones the union-find, rebuilds the
//! full co-location mask, recomputes every stage DoP from scratch and runs
//! a from-scratch placement check, while the greedy order is fully
//! re-derived each round. That is O(rounds × E × (V + E)) and worse — fine
//! for unit-scale DAGs, quadratic-to-cubic pain at hundreds of stages. The
//! incremental rewrite in [`crate::joint`] must produce **bit-identical**
//! schedules; the property tests in `core/tests/joint_equivalence.rs` and
//! the `figures -- sched` sweep (up to 1024 stages) hold it to that.
//!
//! [`compute_dop_reference`] is Algorithm 1 as first implemented: a fresh
//! topological order and spanning in-forest per call, a boxed `MergeNode`
//! tree built bottom-up, a recursive top-down split, and a rounding pass
//! that rescans every DoP per slot taken back. [`crate::dop::DopWorkspace`]
//! performs the same floating-point operations in the same order without
//! the tree; `fractional`, `dop` and `merged_alpha` must agree to the bit.

use crate::dop::DopAssignment;
use crate::grouping::{greedy_group_order, sort_edges_by_weight_desc, StageGroups};
use crate::joint::{GroupOrderPolicy, JointOptions, JointStats, MAX_ITERATIONS};
use crate::objective::Objective;
use crate::placement::can_place_with;
use crate::schedule::Schedule;
use ditto_cluster::ResourceManager;
use ditto_dag::{EdgeId, JobDag, StageId};
use ditto_obs::{Recorder, SpanId, Track};
use ditto_timemodel::JobTimeModel;

/// The original from-scratch Algorithm 3 (see module docs). Identical
/// output to [`crate::joint_optimize`], at the original cost.
pub fn joint_optimize_reference(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
) -> Schedule {
    joint_optimize_reference_traced(dag, model, rm, objective, opts, &Recorder::disabled())
}

/// [`joint_optimize_reference`] with telemetry (same span/event shape as
/// [`crate::joint_optimize_traced`]).
pub(crate) fn joint_optimize_reference_traced(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
    obs: &Recorder,
) -> Schedule {
    joint_optimize_reference_with_stats(dag, model, rm, objective, opts, obs).0
}

/// `joint_optimize_reference_traced` also reporting loop statistics
/// (candidate evaluations, rounds, commits) for the scheduler benchmarks.
pub fn joint_optimize_reference_with_stats(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    opts: &JointOptions,
    obs: &Recorder,
) -> (Schedule, JointStats) {
    let c = rm.total_free();
    let n = dag.num_stages();
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
            ("edges", (dag.edges().len() as u64).into()),
            ("free_slots", (c as u64).into()),
        ],
    );

    let mut groups = StageGroups::singletons(n);
    let mut colocated = groups.colocation_mask(dag);
    let dop_span = obs.begin(
        "sched.dop_ratio",
        Track::scheduler(1),
        obs.wall_now(),
        run_span,
        vec![],
    );
    let mut assignment = compute_dop_reference(dag, model, &colocated, objective, c.max(1));
    obs.end(dop_span, obs.wall_now());
    assert!(
        can_place_with(dag, &assignment.dop, &groups, rm, opts.gather_decomposition, opts.fit_strategy).is_some(),
        "ungrouped baseline configuration must be placeable (C={c}, stages={n})"
    );

    let mut ungrouped: Vec<EdgeId> = dag.edges().iter().map(|e| e.id).collect();
    let mut iterations = 0usize;
    while !ungrouped.is_empty() && iterations < MAX_ITERATIONS {
        iterations += 1;
        let round_span = obs.begin(
            "sched.round",
            Track::scheduler(1),
            obs.wall_now(),
            run_span,
            vec![
                ("iteration", (iterations as u64).into()),
                ("ungrouped", (ungrouped.len() as u64).into()),
            ],
        );
        // Re-derive the edge order under the current DoPs and mask, then
        // keep only still-ungrouped edges (ω of grouped edges is 0 anyway).
        let raw_order: Vec<EdgeId> = match opts.order_policy {
            GroupOrderPolicy::Greedy => {
                greedy_group_order(dag, model, &assignment.dop, &colocated, objective)
            }
            GroupOrderPolicy::GlobalDescending => {
                // Descending by the objective's edge weight, ignoring the
                // critical path.
                let w = crate::grouping::grouping_weights(
                    dag,
                    model,
                    &assignment.dop,
                    &colocated,
                    objective,
                );
                let mut v: Vec<EdgeId> = dag.edges().iter().map(|e| e.id).collect();
                sort_edges_by_weight_desc(&mut v, &w);
                v
            }
            GroupOrderPolicy::Random(seed) => {
                use rand::seq::SliceRandom;
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut v: Vec<EdgeId> = dag.edges().iter().map(|e| e.id).collect();
                v.shuffle(&mut rng);
                v
            }
        };
        let order: Vec<EdgeId> = raw_order
            .into_iter()
            .filter(|e| ungrouped.contains(e))
            .collect();

        let mut committed = None;
        for e in order {
            let edge = dag.edge(e);
            stats.candidates += 1;
            // Tentatively group sᵢ and sⱼ (merging their whole groups).
            let mut trial_groups = groups.clone();
            trial_groups.union(edge.src, edge.dst);
            let trial_mask = trial_groups.colocation_mask(dag);
            let trial_assignment = compute_dop_reference(dag, model, &trial_mask, objective, c.max(1));
            let placeable = can_place_with(
                dag,
                &trial_assignment.dop,
                &trial_groups,
                rm,
                opts.gather_decomposition,
                opts.fit_strategy,
            )
            .is_some();
            if obs.is_enabled() {
                obs.event(
                    "sched.merge",
                    Track::scheduler(1),
                    obs.wall_now(),
                    vec![
                        ("edge", (e.index() as u64).into()),
                        ("src", (edge.src.index() as u64).into()),
                        ("dst", (edge.dst.index() as u64).into()),
                        ("src_alpha", model.stage_alpha(dag, edge.src, &trial_mask).into()),
                        ("src_beta", model.stage_beta(dag, edge.src, &trial_mask).into()),
                        ("dst_alpha", model.stage_alpha(dag, edge.dst, &trial_mask).into()),
                        ("dst_beta", model.stage_beta(dag, edge.dst, &trial_mask).into()),
                        ("verdict", if placeable { "accept" } else { "reject" }.into()),
                    ],
                );
            }
            if placeable {
                groups = trial_groups;
                colocated = trial_mask;
                assignment = trial_assignment;
                committed = Some(e);
                break;
            }
            // else: undo (nothing was mutated) and try the next edge.
        }
        obs.end(round_span, obs.wall_now());
        match committed {
            Some(e) => {
                stats.commits += 1;
                ungrouped.retain(|&x| x != e);
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
        reason = "reference copy of the same invariant (kept verbatim for the equivalence oracle)"
    )]
    let plan = can_place_with(
        dag,
        &assignment.dop,
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
        dop: assignment.dop,
        group_of: groups.group_of(n),
        groups: groups.groups(n),
        colocated,
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

/// The merge tree produced by the bottom-up pass.
#[derive(Debug, Clone)]
pub(crate) enum MergeNode {
    /// An original stage.
    Leaf {
        /// The stage.
        stage: StageId,
        /// Its effective parallelized time.
        alpha: f64,
    },
    /// Two sibling (parallel) subtrees merged with the inter-path ratio.
    Inter {
        /// Left subtree.
        left: Box<MergeNode>,
        /// Right subtree.
        right: Box<MergeNode>,
        /// Merged α = α_left + α_right.
        alpha: f64,
    },
    /// An upstream subtree merged with its downstream consumer stage with
    /// the intra-path ratio.
    Intra {
        /// The upstream (earlier) subtree.
        upstream: Box<MergeNode>,
        /// The downstream (later) subtree.
        downstream: Box<MergeNode>,
        /// Merged α = (√α_up + √α_down)².
        alpha: f64,
    },
}

impl MergeNode {
    /// The node's merged parallelized time α.
    pub(crate) fn alpha(&self) -> f64 {
        match self {
            MergeNode::Leaf { alpha, .. }
            | MergeNode::Inter { alpha, .. }
            | MergeNode::Intra { alpha, .. } => *alpha,
        }
    }
}

/// Build the spanning in-forest: for every stage with out-degree > 1 pick
/// the consumer on the heaviest α-path to the sink. Returns
/// `primary_child[stage] = Some(child)` (`None` for final stages).
fn primary_children(dag: &JobDag, alpha: &[f64]) -> Vec<Option<StageId>> {
    // Longest α-weighted path from each stage to any sink.
    #[expect(
        clippy::expect_used,
        reason = "schedulers reject invalid DAGs at entry; topo_order only fails on cycles"
    )]
    let order = dag.topo_order().expect("scheduler requires a valid DAG");
    let n = dag.num_stages();
    let mut longest = vec![0.0_f64; n];
    for &s in order.iter().rev() {
        let best_child = dag
            .children_of(s)
            .map(|c| longest[c.index()])
            .fold(0.0_f64, f64::max);
        longest[s.index()] = alpha[s.index()] + best_child;
    }
    (0..n)
        .map(|i| {
            let s = StageId(i as u32);
            dag.children_of(s).max_by(|&a, &b| {
                // total_cmp: a NaN weight must not panic the scheduler.
                longest[a.index()]
                    .total_cmp(&longest[b.index()])
                    .then(b.cmp(&a)) // tie → smaller id
            })
        })
        .collect()
}

/// Run the bottom-up merge (Algorithm 1) and return the merge tree.
///
/// `alpha[s]` is each stage's effective parallelized time under the current
/// placement (already scaled by ρ for the cost objective if desired).
pub(crate) fn bottom_up_merge(dag: &JobDag, alpha: &[f64]) -> MergeNode {
    assert_eq!(alpha.len(), dag.num_stages());
    let primary = primary_children(dag, alpha);

    // tree_parents[s] = upstream stages merged into s (their primary child
    // is s), sorted for determinism.
    let mut tree_parents: Vec<Vec<StageId>> = vec![Vec::new(); dag.num_stages()];
    for (i, pc) in primary.iter().enumerate() {
        if let Some(c) = pc {
            tree_parents[c.index()].push(StageId(i as u32));
        }
    }
    for tp in &mut tree_parents {
        tp.sort_unstable();
    }

    fn build(s: StageId, alpha: &[f64], tree_parents: &[Vec<StageId>]) -> MergeNode {
        let leaf = MergeNode::Leaf {
            stage: s,
            alpha: alpha[s.index()],
        };
        let feeders = &tree_parents[s.index()];
        if feeders.is_empty() {
            return leaf;
        }
        // Merge sibling subtrees with the inter-path rule (Eq. 4)...
        let mut iter = feeders.iter();
        #[expect(
            clippy::expect_used,
            reason = "guarded by feeders.is_empty() early-return two lines up"
        )]
        let first = build(*iter.next().expect("feeders checked non-empty"), alpha, tree_parents);
        let upstream = iter.fold(first, |acc, &f| {
            let rhs = build(f, alpha, tree_parents);
            let a = acc.alpha() + rhs.alpha();
            MergeNode::Inter {
                left: Box::new(acc),
                right: Box::new(rhs),
                alpha: a,
            }
        });
        // ...then merge with the downstream stage via the intra-path rule
        // (Eq. 3).
        let a = (upstream.alpha().sqrt() + leaf.alpha().sqrt()).powi(2);
        MergeNode::Intra {
            upstream: Box::new(upstream),
            downstream: Box::new(leaf),
            alpha: a,
        }
    }

    // Each final stage roots a tree; several sinks run in parallel and are
    // inter-merged.
    let finals = dag.final_stages();
    let mut iter = finals.iter();
    #[expect(
        clippy::expect_used,
        reason = "JobDag::validate rejects empty DAGs, so there is at least one sink"
    )]
    let first = build(*iter.next().expect("validated DAG is non-empty"), alpha, &tree_parents);
    iter.fold(first, |acc, &f| {
        let rhs = build(f, alpha, &tree_parents);
        let a = acc.alpha() + rhs.alpha();
        MergeNode::Inter {
            left: Box::new(acc),
            right: Box::new(rhs),
            alpha: a,
        }
    })
}

/// Split `d` slots down the merge tree by the recorded optimal ratios.
pub(crate) fn distribute(node: &MergeNode, d: f64, out: &mut [f64]) {
    match node {
        MergeNode::Leaf { stage, .. } => out[stage.index()] = d,
        MergeNode::Inter { left, right, .. } => {
            // dᵢ/dⱼ = αᵢ/αⱼ (balanced structure).
            let (al, ar) = (left.alpha(), right.alpha());
            let share = if al + ar > 0.0 { al / (al + ar) } else { 0.5 };
            distribute(left, d * share, out);
            distribute(right, d * (1.0 - share), out);
        }
        MergeNode::Intra {
            upstream,
            downstream,
            ..
        } => {
            // dᵢ/dⱼ = √αᵢ/√αⱼ (Cauchy–Schwarz optimum).
            let (su, sd) = (upstream.alpha().sqrt(), downstream.alpha().sqrt());
            let share = if su + sd > 0.0 { su / (su + sd) } else { 0.5 };
            distribute(upstream, d * share, out);
            distribute(downstream, d * (1.0 - share), out);
        }
    }
}

/// The original [`crate::dop::round_dops`]: floor, at least one task per
/// stage, then one full rescan for the largest DoP per slot taken back.
pub fn round_dops_reference(fractional: &[f64], c: u32) -> Vec<u32> {
    #[expect(
        clippy::cast_sign_loss,
        reason = "the same rounding in round_dops_reference (kept verbatim for the equivalence oracle)"
    )]
    let mut dop: Vec<u32> = fractional.iter().map(|&f| (f.floor() as u32).max(1)).collect();
    let n = dop.len() as u32;
    let budget = c.max(n); // every stage needs ≥ 1 task regardless
    let mut sum: u32 = dop.iter().sum();
    while sum > budget {
        // Shrink the currently largest DoP (deterministic: first max).
        #[expect(
            clippy::expect_used,
            reason = "round_dops_reference is only called with one entry per stage and DAGs are non-empty"
        )]
        let (idx, _) = dop
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (d, usize::MAX - i))
            .expect("dop vector is non-empty");
        debug_assert!(dop[idx] > 1);
        dop[idx] -= 1;
        sum -= 1;
    }
    dop
}

/// The original [`crate::dop::compute_dop`]: per-stage αs through the
/// model, the boxed merge tree, the recursive split, the rescan rounding.
pub fn compute_dop_reference(
    dag: &JobDag,
    model: &JobTimeModel,
    colocated: &[bool],
    objective: Objective,
    c: u32,
) -> DopAssignment {
    assert!(c >= 1, "need at least one function slot");
    let n = dag.num_stages();
    let alpha: Vec<f64> = dag
        .stages()
        .iter()
        .map(|s| model.stage_alpha(dag, s.id, colocated))
        .collect();

    match objective {
        Objective::Jct => {
            let tree = bottom_up_merge(dag, &alpha);
            let mut fractional = vec![0.0; n];
            distribute(&tree, c as f64, &mut fractional);
            let dop = round_dops_reference(&fractional, c);
            DopAssignment {
                fractional,
                dop,
                merged_alpha: tree.alpha(),
            }
        }
        Objective::Cost => {
            // Single-path reduction: dᵢ ∝ √(ρᵢ αᵢ).
            let shares: Vec<f64> = (0..n)
                .map(|i| (model.resource(StageId(i as u32)).rho * alpha[i]).sqrt())
                .collect();
            let total: f64 = shares.iter().sum();
            let fractional: Vec<f64> = if total > 0.0 {
                shares.iter().map(|s| s / total * c as f64).collect()
            } else {
                vec![c as f64 / n as f64; n]
            };
            let merged_alpha = total * total; // (Σ√(ρα))² by Eq. 3 cascade
            let dop = round_dops_reference(&fractional, c);
            DopAssignment {
                fractional,
                dop,
                merged_alpha,
            }
        }
    }
}
