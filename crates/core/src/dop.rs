//! DoP ratio computing (paper §4.2, Algorithm 1).
//!
//! The key observation: under the step model `T = α/d + β`, the *ratio* of
//! optimal DoPs between stages is independent of the slot budget `C`:
//!
//! * consecutive (parent–child) stages: `dᵢ/dⱼ = √(αᵢ/αⱼ)` — optimal by
//!   Cauchy–Schwarz (Appendix A.1);
//! * sibling stages (same downstream consumer): `dᵢ/dⱼ = αᵢ/αⱼ` — the
//!   balanced structure is optimal (Appendix A.2).
//!
//! Merging two stages with their optimal ratio yields a *virtual stage*
//! that still obeys the step model:
//!
//! * intra-path merge: `α = (√αᵢ + √αⱼ)²`, `β = βᵢ + βⱼ` (paper Eq. 3);
//! * inter-path merge: `α = αᵢ + αⱼ`, `β = max(βᵢ, βⱼ)` (paper Eq. 4).
//!
//! Algorithm 1 applies these merges bottom-up — siblings first, then
//! parent–child — until the DAG collapses to one virtual stage; walking
//! the merge tree back down splits the slot budget `C` by the recorded
//! ratios. Each stage is merged exactly once: `O(|V|)`.
//!
//! **General DAGs.** A stage with several downstream consumers
//! (out-degree above 1) breaks the tree structure. Following the paper's
//! guidance that sibling-then-parent merging remains the right strategy,
//! we reduce the DAG to a spanning in-forest: each such stage is attached
//! to its *primary* consumer — the one on the heaviest α-path to the sink
//! — and the merge runs on that forest. The stage's full I/O (all
//! out-edges) still counts in its α, so only the ratio bookkeeping, not
//! the modeled work, is approximated.
//!
//! **The workspace.** The forest depends on the co-location mask (through
//! α), so Algorithm 3 rebuilds it for every candidate mask. A
//! [`DopWorkspace`] makes that rebuild allocation-free: it is built once
//! per `(dag, model, objective, C)` with everything that does *not* depend
//! on the mask — the topological order, the children in CSR form, the
//! per-stage α terms each gated by the edge that can zero them — and then
//! [`DopWorkspace::compute`] runs flat passes over reused buffers: α per
//! stage; `longest`/`primary` in reverse topological order; the feeders
//! of every stage in CSR, filled in ascending stage id (so they are
//! sorted without sorting); the bottom-up merge in topological order,
//! recording per stage its subtree's merged α and the running α after each
//! sibling (the prefix sums the split needs); and the top-down split in
//! reverse topological order. No merge tree is materialized: an `Inter`
//! node is one prefix entry, an `Intra` node is one subtree α. Every
//! floating-point operation is the one the tree version performs, in the
//! same order — left fold over sorted feeders, `(√a + √b)²` via `powi(2)`,
//! `d·share` and `d·(1 − share)` — so the result is bit-identical to
//! [`crate::reference::compute_dop_reference`], which keeps the boxed tree
//! as the oracle. [`compute_dop`] is the one-shot form: a throw-away
//! workspace.
//!
//! **Cost.** Minimizing Σ M·T reduces to single-path JCT with parallelized
//! times `ρᵢαᵢ` (§4.2), giving `dᵢ/dⱼ = √(ρᵢαᵢ)/√(ρⱼαⱼ)` for *all* stage
//! pairs.

use crate::objective::Objective;
use ditto_dag::JobDag;
use ditto_timemodel::JobTimeModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of DoP ratio computing.
#[derive(Debug, Clone)]
pub struct DopAssignment {
    /// Exact (real-valued) per-stage DoPs summing to `C`.
    pub fractional: Vec<f64>,
    /// Rounded DoPs (§4.5: floor, at least 1, Σ ≤ max(C, #stages)).
    pub dop: Vec<u32>,
    /// α of the fully merged virtual stage: the predicted parallelizable
    /// time of the whole job is `merged_alpha / C` for the JCT objective.
    pub merged_alpha: f64,
}

/// "No stage" in the workspace's `u32` stage arrays.
const NONE: u32 = u32::MAX;

/// Reusable state for repeated DoP ratio computing over one
/// `(dag, model, objective, C)` under changing co-location masks (see the
/// module docs). [`DopWorkspace::compute`] allocates nothing.
#[derive(Debug, Clone)]
pub struct DopWorkspace {
    objective: Objective,
    c: u32,
    // --- mask-independent inputs ---
    /// Compute + external read + external write α per stage.
    base_alpha: Vec<f64>,
    /// Straggler scaling per stage.
    scaling: Vec<f64>,
    /// ρ per stage (cost objective only).
    rho: Vec<f64>,
    /// CSR of the α terms an edge can zero: per stage, the read α of its
    /// non-pipelined in-edges, then the write α of its out-edges.
    io_start: Vec<u32>,
    io_edge: Vec<u32>,
    io_alpha: Vec<f64>,
    /// Topological order, children in CSR (out-edge order) and final
    /// stages (ascending id) — JCT objective only.
    topo: Vec<u32>,
    child_start: Vec<u32>,
    child: Vec<u32>,
    finals: Vec<u32>,
    // --- per-call scratch ---
    alpha: Vec<f64>,
    longest: Vec<f64>,
    primary: Vec<u32>,
    /// Feeders of each stage (the stages whose primary consumer it is) in
    /// CSR, ascending; `feeder_fill` is the fill cursor per stage.
    feeder_start: Vec<u32>,
    feeder_fill: Vec<u32>,
    feeders: Vec<u32>,
    /// Aligned with `feeders`: merged α of a stage's first `k + 1` feeder
    /// subtrees (the left fold's accumulator).
    feeder_prefix: Vec<f64>,
    /// Same fold over the final stages' subtrees.
    final_prefix: Vec<f64>,
    /// Merged α of the subtree rooted at each stage; the √(ρα) shares
    /// under the cost objective.
    subtree_alpha: Vec<f64>,
    round_heap: BinaryHeap<(u32, Reverse<u32>)>,
    // --- outputs of the last `compute` ---
    /// During the top-down split an entry first holds the slots handed to
    /// the stage's whole subtree, then the stage's own share.
    fractional: Vec<f64>,
    dop: Vec<u32>,
    sum_dop: u32,
    merged_alpha: f64,
}

impl DopWorkspace {
    /// Build the workspace: everything about `dag` and `model` that does
    /// not depend on the co-location mask.
    pub fn new(dag: &JobDag, model: &JobTimeModel, objective: Objective, c: u32) -> Self {
        assert!(c >= 1, "need at least one function slot");
        let n = dag.num_stages();
        let mut ws = DopWorkspace {
            objective,
            c,
            base_alpha: Vec::with_capacity(n),
            scaling: Vec::with_capacity(n),
            rho: Vec::new(),
            io_start: Vec::with_capacity(n + 1),
            io_edge: Vec::new(),
            io_alpha: Vec::new(),
            topo: Vec::new(),
            child_start: Vec::new(),
            child: Vec::new(),
            finals: Vec::new(),
            alpha: vec![0.0; n],
            longest: Vec::new(),
            primary: Vec::new(),
            feeder_start: Vec::new(),
            feeder_fill: Vec::new(),
            feeders: Vec::new(),
            feeder_prefix: Vec::new(),
            final_prefix: Vec::new(),
            subtree_alpha: vec![0.0; n],
            round_heap: BinaryHeap::new(),
            fractional: vec![0.0; n],
            dop: Vec::with_capacity(n),
            sum_dop: 0,
            merged_alpha: 0.0,
        };
        // The terms of `JobTimeModel::stage_alpha`, in its summation order.
        ws.io_start.push(0);
        for s in dag.stages() {
            let st = model.stage_steps(s.id);
            ws.base_alpha
                .push(st.compute.alpha + st.external_read.alpha + st.external_write.alpha);
            ws.scaling.push(model.scaling(s.id));
            for e in dag.in_edges(s.id) {
                let io = model.edge_io(e.id);
                if !io.pipelined {
                    ws.io_edge.push(e.id.0);
                    ws.io_alpha.push(io.read.alpha);
                }
            }
            for e in dag.out_edges(s.id) {
                ws.io_edge.push(e.id.0);
                ws.io_alpha.push(model.edge_io(e.id).write.alpha);
            }
            ws.io_start.push(ws.io_edge.len() as u32);
        }
        match objective {
            Objective::Cost => {
                ws.rho = dag.stages().iter().map(|s| model.resource(s.id).rho).collect();
            }
            Objective::Jct => {
                #[expect(
                    clippy::expect_used,
                    reason = "schedulers reject invalid DAGs at entry; topo_order only fails on cycles"
                )]
                let order = dag.topo_order().expect("scheduler requires a valid DAG");
                ws.topo = order.iter().map(|s| s.0).collect();
                ws.child_start.push(0);
                for s in dag.stages() {
                    ws.child.extend(dag.children_of(s.id).map(|c| c.0));
                    ws.child_start.push(ws.child.len() as u32);
                    if dag.out_degree(s.id) == 0 {
                        ws.finals.push(s.id.0);
                    }
                }
                ws.longest = vec![0.0; n];
                ws.primary = vec![NONE; n];
                ws.feeder_start = vec![0; n + 1];
                ws.feeder_fill = vec![0; n];
                ws.feeders = vec![0; n - ws.finals.len()];
                ws.feeder_prefix = vec![0.0; n - ws.finals.len()];
                ws.final_prefix = vec![0.0; ws.finals.len()];
            }
        }
        ws
    }

    /// Run DoP ratio computing under `colocated` (aligned with
    /// `dag.edges()`): effective αs, bottom-up merge (JCT) or the
    /// single-path reduction (cost), budget split and rounding. Results
    /// are read through the accessors until the next call.
    pub fn compute(&mut self, colocated: &[bool]) {
        let n = self.alpha.len();
        for s in 0..n {
            let mut a = self.base_alpha[s];
            for k in self.io_start[s] as usize..self.io_start[s + 1] as usize {
                if !colocated[self.io_edge[k] as usize] {
                    a += self.io_alpha[k];
                }
            }
            self.alpha[s] = a * self.scaling[s];
        }
        match self.objective {
            Objective::Jct => self.merge_and_split(),
            Objective::Cost => {
                // Single-path reduction: dᵢ ∝ √(ρᵢ αᵢ).
                let shares = &mut self.subtree_alpha;
                for ((share, rho), alpha) in shares.iter_mut().zip(&self.rho).zip(&self.alpha) {
                    *share = (rho * alpha).sqrt();
                }
                let total: f64 = shares.iter().sum();
                let c = self.c as f64;
                for (f, share) in self.fractional.iter_mut().zip(shares.iter()) {
                    *f = if total > 0.0 { share / total * c } else { c / n as f64 };
                }
                self.merged_alpha = total * total; // (Σ√(ρα))² by Eq. 3 cascade
            }
        }
        self.sum_dop = round_dops_into(&self.fractional, self.c, &mut self.dop, &mut self.round_heap);
    }

    /// Algorithm 1 on the spanning in-forest, without the tree.
    fn merge_and_split(&mut self) {
        let n = self.alpha.len();

        // Spanning in-forest: longest α-weighted path from each stage to
        // any sink, then the consumer on the heaviest one.
        self.feeder_start.fill(0);
        for &s in self.topo.iter().rev() {
            let s = s as usize;
            let mut best_child = 0.0_f64;
            let mut primary = NONE;
            for k in self.child_start[s] as usize..self.child_start[s + 1] as usize {
                let c = self.child[k];
                let l = self.longest[c as usize];
                best_child = best_child.max(l);
                // total_cmp: a NaN weight must not panic the scheduler;
                // tie → smaller id.
                if primary == NONE
                    || l.total_cmp(&self.longest[primary as usize]).then(primary.cmp(&c)).is_ge()
                {
                    primary = c;
                }
            }
            self.longest[s] = self.alpha[s] + best_child;
            self.primary[s] = primary;
            if primary != NONE {
                self.feeder_start[primary as usize + 1] += 1;
            }
        }
        // Feeders per stage, ascending by construction.
        for s in 0..n {
            self.feeder_start[s + 1] += self.feeder_start[s];
            self.feeder_fill[s] = self.feeder_start[s];
        }
        for s in 0..n {
            let p = self.primary[s];
            if p != NONE {
                let at = &mut self.feeder_fill[p as usize];
                self.feeders[*at as usize] = s as u32;
                *at += 1;
            }
        }

        // Bottom-up: sibling subtrees merge with the inter-path rule
        // (Eq. 4, a left fold), the result merges with the consumer via
        // the intra-path rule (Eq. 3).
        for &s in &self.topo {
            let s = s as usize;
            let (lo, hi) = (self.feeder_start[s] as usize, self.feeder_start[s + 1] as usize);
            self.subtree_alpha[s] = if lo == hi {
                self.alpha[s]
            } else {
                let upstream = fold_inter(
                    &self.feeders[lo..hi],
                    &self.subtree_alpha,
                    &mut self.feeder_prefix[lo..hi],
                );
                (upstream.sqrt() + self.alpha[s].sqrt()).powi(2)
            };
        }
        // Each final stage roots a tree; several sinks run in parallel and
        // are inter-merged.
        self.merged_alpha = fold_inter(&self.finals, &self.subtree_alpha, &mut self.final_prefix);

        // Top-down: split `C` by the recorded ratios. `fractional[s]`
        // holds the slots of `s`'s whole subtree until `s` is visited.
        split_inter(
            &self.finals,
            &self.subtree_alpha,
            &self.final_prefix,
            self.c as f64,
            &mut self.fractional,
        );
        for &s in self.topo.iter().rev() {
            let s = s as usize;
            let (lo, hi) = (self.feeder_start[s] as usize, self.feeder_start[s + 1] as usize);
            if lo == hi {
                continue; // a leaf keeps its subtree's slots
            }
            let d = self.fractional[s];
            // dᵢ/dⱼ = √αᵢ/√αⱼ (Cauchy–Schwarz optimum).
            let (su, sd) = (self.feeder_prefix[hi - 1].sqrt(), self.alpha[s].sqrt());
            let share = if su + sd > 0.0 { su / (su + sd) } else { 0.5 };
            self.fractional[s] = d * (1.0 - share);
            split_inter(
                &self.feeders[lo..hi],
                &self.subtree_alpha,
                &self.feeder_prefix[lo..hi],
                d * share,
                &mut self.fractional,
            );
        }
    }

    /// Exact (real-valued) per-stage DoPs summing to `C`.
    pub fn fractional(&self) -> &[f64] {
        &self.fractional
    }

    /// Rounded DoPs ([`round_dops`] of [`DopWorkspace::fractional`]).
    pub fn dop(&self) -> &[u32] {
        &self.dop
    }

    /// `Σ` of [`DopWorkspace::dop`].
    pub fn sum_dop(&self) -> u32 {
        self.sum_dop
    }

    /// α of the fully merged virtual stage.
    pub fn merged_alpha(&self) -> f64 {
        self.merged_alpha
    }
}

/// Left-fold the subtrees rooted at `roots` with the inter-path rule
/// (`α = α_left + α_right`), recording the accumulator after each root in
/// `prefix`; returns the merged α. `roots` is non-empty.
fn fold_inter(roots: &[u32], subtree_alpha: &[f64], prefix: &mut [f64]) -> f64 {
    let mut acc = subtree_alpha[roots[0] as usize];
    prefix[0] = acc;
    for k in 1..roots.len() {
        acc += subtree_alpha[roots[k] as usize];
        prefix[k] = acc;
    }
    acc
}

/// Undo [`fold_inter`] top-down: hand `d` slots to the subtrees rooted at
/// `roots`, peeling the fold's right operands off one by one with
/// `dᵢ/dⱼ = αᵢ/αⱼ` (balanced structure).
fn split_inter(roots: &[u32], subtree_alpha: &[f64], prefix: &[f64], mut d: f64, slots: &mut [f64]) {
    for k in (1..roots.len()).rev() {
        let (al, ar) = (prefix[k - 1], subtree_alpha[roots[k] as usize]);
        let share = if al + ar > 0.0 { al / (al + ar) } else { 0.5 };
        slots[roots[k] as usize] = d * (1.0 - share);
        d *= share;
    }
    slots[roots[0] as usize] = d;
}

/// Round fractional DoPs per §4.5: floor, at least one task per stage.
/// When flooring + clamping overshoots `C` (only possible if `C` is small
/// relative to the stage count), slots are taken back from the largest
/// DoPs so the budget holds whenever `C ≥ #stages`.
pub fn round_dops(fractional: &[f64], c: u32) -> Vec<u32> {
    let mut dop = Vec::with_capacity(fractional.len());
    round_dops_into(fractional, c, &mut dop, &mut BinaryHeap::new());
    dop
}

/// [`round_dops`] into `dop` (cleared first), returning `Σ dop`. `largest`
/// is scratch for the take-back phase.
fn round_dops_into(
    fractional: &[f64],
    c: u32,
    dop: &mut Vec<u32>,
    largest: &mut BinaryHeap<(u32, Reverse<u32>)>,
) -> u32 {
    dop.clear();
    #[expect(
        clippy::cast_sign_loss,
        reason = "the paper's section 4.5 rounding: floor, then clamp to >= 1"
    )]
    dop.extend(fractional.iter().map(|&f| (f.floor() as u32).max(1)));
    let budget = c.max(dop.len() as u32); // every stage needs ≥ 1 task regardless
    let mut sum: u32 = dop.iter().sum();
    if sum <= budget {
        return sum;
    }
    // Take slots back one at a time from the currently largest DoP
    // (deterministic: the smallest index among the largest): a max-heap
    // keyed `(dop, Reverse(index))` instead of a rescan per slot.
    largest.clear();
    largest.extend(dop.iter().enumerate().map(|(i, &d)| (d, Reverse(i as u32))));
    while sum > budget {
        let Some(mut top) = largest.peek_mut() else { break };
        debug_assert!(top.0 > 1);
        top.0 -= 1;
        dop[top.1 .0 as usize] = top.0;
        sum -= 1;
    }
    sum
}

/// Alternative rounding (extension, not in the paper): floor + at least
/// one task, then hand the *leftover* slots (`C − Σ⌊dᵢ⌋`) to the stages
/// with the largest fractional remainders. Uses every slot the paper's
/// plain floor strategy would waste; compared in the rounding ablation.
pub fn round_dops_largest_remainder(fractional: &[f64], c: u32) -> Vec<u32> {
    let mut dop = round_dops(fractional, c);
    let mut sum: u32 = dop.iter().sum();
    if sum >= c {
        return dop;
    }
    // Stages sorted by descending remainder, ties toward smaller index.
    let mut order: Vec<usize> = (0..dop.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        let ra = fractional[a] - fractional[a].floor();
        let rb = fractional[b] - fractional[b].floor();
        // total_cmp: a NaN remainder must not panic; index tie-break keeps
        // the comparator total, so the unstable sort is deterministic.
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut i = 0;
    while sum < c {
        dop[order[i % order.len()]] += 1;
        sum += 1;
        i += 1;
    }
    dop
}

/// The full DoP ratio computing pass: effective αs under the co-location
/// mask, bottom-up merge (JCT) or the single-path reduction (cost), budget
/// split and rounding.
///
/// ```
/// use ditto_core::{compute_dop, Objective};
/// use ditto_timemodel::{model::RateConfig, JobTimeModel};
///
/// // The paper's Fig. 1 join DAG: map1 and map2 are *siblings*, so the
/// // inter-path ratio applies — slots proportional to their α (≈ the 4x
/// // data ratio), balancing the two parallel scans' execution times.
/// let dag = ditto_dag::generators::fig1_join();
/// let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
/// let a = compute_dop(&dag, &model, &model.no_colocation(), Objective::Jct, 60);
/// assert_eq!(a.dop.len(), 3);
/// let ratio = a.fractional[0] / a.fractional[1];
/// assert!(ratio > 3.0 && ratio < 5.5, "sibling ratio ≈ alpha ratio: {ratio}");
/// assert!(a.dop.iter().sum::<u32>() <= 60);
/// ```
pub fn compute_dop(
    dag: &JobDag,
    model: &JobTimeModel,
    colocated: &[bool],
    objective: Objective,
    c: u32,
) -> DopAssignment {
    let mut ws = DopWorkspace::new(dag, model, objective, c);
    ws.compute(colocated);
    DopAssignment {
        fractional: ws.fractional,
        dop: ws.dop,
        merged_alpha: ws.merged_alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::{DagBuilder, EdgeKind, StageId, StageKind};
    use ditto_timemodel::model::{EdgeIo, StageSteps};
    use ditto_timemodel::ResourceModel;

    /// A model with explicit per-stage compute αs and zero I/O, so the
    /// stage αs equal the given values exactly.
    fn explicit_model(dag: &JobDag, alphas: &[f64]) -> JobTimeModel {
        let stages = alphas
            .iter()
            .map(|&a| StageSteps::compute_only(a, 0.0))
            .collect();
        let edges = (0..dag.num_edges()).map(|_| EdgeIo::zero()).collect();
        let res = vec![ResourceModel::default(); dag.num_stages()];
        JobTimeModel::new(dag, stages, edges, res)
    }

    fn two_stage_chain() -> JobDag {
        DagBuilder::new("chain2")
            .stage("s1", StageKind::Map, 0, 0)
            .stage("s2", StageKind::Reduce, 0, 0)
            .edge("s1", "s2", EdgeKind::Shuffle, 0)
            .build()
            .unwrap()
    }

    /// Paper Fig. 4: α₁=60, α₂=15, C=15 ⇒ intra-path ratio √(60/15)=2
    /// ⇒ d₁=10, d₂=5 (completion 9 vs 10 for the data-size split 12/3).
    #[test]
    fn fig4_intra_path_ratio() {
        let dag = two_stage_chain();
        let model = explicit_model(&dag, &[60.0, 15.0]);
        let a = compute_dop(&dag, &model, &[false], Objective::Jct, 15);
        assert!((a.fractional[0] - 10.0).abs() < 1e-9, "{:?}", a.fractional);
        assert!((a.fractional[1] - 5.0).abs() < 1e-9);
        assert_eq!(a.dop, vec![10, 5]);
        // Merged virtual stage: (√60 + √15)² = 135... check Eq. 3.
        let expect = (60.0_f64.sqrt() + 15.0_f64.sqrt()).powi(2);
        assert!((a.merged_alpha - expect).abs() < 1e-9);
        // Completion time at the optimum: 60/10 + 15/5 = 9 (paper's value).
        let t = 60.0 / a.fractional[0] + 15.0 / a.fractional[1];
        assert!((t - 9.0).abs() < 1e-9);
        // The data-size-proportional split (12, 3) gives 10 — worse.
        assert!(t < 60.0 / 12.0 + 15.0 / 3.0);
    }

    /// Paper Fig. 5: siblings α₁=24, α₂=12 ⇒ inter-path ratio 2 ⇒ with 6
    /// slots between them, d₁=4, d₂=2, completion 6 (vs 8 at 3/3).
    #[test]
    fn fig5_inter_path_ratio() {
        // Two siblings feeding a sink with negligible work.
        let dag = DagBuilder::new("sib")
            .stage("s1", StageKind::Map, 0, 0)
            .stage("s2", StageKind::Map, 0, 0)
            .stage("sink", StageKind::Reduce, 0, 0)
            .edge("s1", "sink", EdgeKind::Shuffle, 0)
            .edge("s2", "sink", EdgeKind::Shuffle, 0)
            .build()
            .unwrap();
        let model = explicit_model(&dag, &[24.0, 12.0, 1e-12]);
        let a = compute_dop(&dag, &model, &[false, false], Objective::Jct, 6);
        // Sink's α≈0 absorbs ~no slots; siblings split ~6 at ratio 2:1.
        let ratio = a.fractional[0] / a.fractional[1];
        assert!((ratio - 2.0).abs() < 1e-6, "ratio={ratio}");
        assert!(a.fractional[0] + a.fractional[1] > 5.99);
        // Balanced: equal execution times.
        let t1 = 24.0 / a.fractional[0];
        let t2 = 12.0 / a.fractional[1];
        assert!((t1 - t2).abs() < 1e-6);
    }

    /// Intra-path optimality (Appendix A.1): the computed split beats any
    /// perturbed split for a 3-stage chain.
    #[test]
    fn intra_path_is_optimal() {
        let dag = DagBuilder::new("chain3")
            .stage("a", StageKind::Map, 0, 0)
            .stage("b", StageKind::Custom, 0, 0)
            .stage("c", StageKind::Reduce, 0, 0)
            .edge("a", "b", EdgeKind::Shuffle, 0)
            .edge("b", "c", EdgeKind::Shuffle, 0)
            .build()
            .unwrap();
        let alphas = [50.0, 18.0, 2.0];
        let model = explicit_model(&dag, &alphas);
        let c = 30.0;
        let a = compute_dop(&dag, &model, &[false, false], Objective::Jct, 30);
        let jct = |d: &[f64]| alphas.iter().zip(d).map(|(al, dd)| al / dd).sum::<f64>();
        let best = jct(&a.fractional);
        // Perturb mass between stage pairs; optimum must not improve.
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let mut d = a.fractional.clone();
                let eps = 0.05 * d[i];
                d[i] -= eps;
                d[j] += eps;
                assert!(jct(&d) >= best - 1e-9, "perturbation {i}->{j} improved");
            }
        }
        assert!((a.fractional.iter().sum::<f64>() - c).abs() < 1e-9);
    }

    /// Cost mode: dᵢ ∝ √(ρᵢαᵢ) for every pair, even siblings.
    #[test]
    fn cost_mode_single_path_reduction() {
        let dag = DagBuilder::new("sib")
            .stage("s1", StageKind::Map, 0, 0)
            .stage("s2", StageKind::Map, 0, 0)
            .stage("sink", StageKind::Reduce, 0, 0)
            .edge("s1", "sink", EdgeKind::Shuffle, 0)
            .edge("s2", "sink", EdgeKind::Shuffle, 0)
            .build()
            .unwrap();
        let mut model = explicit_model(&dag, &[64.0, 16.0, 4.0]);
        *model.resource_mut(StageId(0)) = ResourceModel::new(1.0, 0.0);
        *model.resource_mut(StageId(1)) = ResourceModel::new(4.0, 0.0);
        *model.resource_mut(StageId(2)) = ResourceModel::new(1.0, 0.0);
        let a = compute_dop(&dag, &model, &[false, false], Objective::Cost, 28);
        // √(ρα) = √64=8, √64=8, √4=2 → shares 8:8:2 of 28 → 12.44,12.44,3.11
        let f = &a.fractional;
        assert!((f[0] - f[1]).abs() < 1e-9);
        assert!((f[0] / f[2] - 4.0).abs() < 1e-9);
        assert!((f.iter().sum::<f64>() - 28.0).abs() < 1e-9);
    }

    /// Cost optimality: the computed split minimizes Σ ρα/d among
    /// perturbations under Σd = C.
    #[test]
    fn cost_mode_is_optimal() {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &Default::default());
        let none = model.no_colocation();
        let a = compute_dop(&dag, &model, &none, Objective::Cost, 100);
        let rho_alpha: Vec<f64> = dag
            .stages()
            .iter()
            .map(|s| model.resource(s.id).rho * model.stage_alpha(&dag, s.id, &none))
            .collect();
        let cost = |d: &[f64]| rho_alpha.iter().zip(d).map(|(ra, dd)| ra / dd).sum::<f64>();
        let best = cost(&a.fractional);
        for i in 0..dag.num_stages() {
            for j in 0..dag.num_stages() {
                if i == j {
                    continue;
                }
                let mut d = a.fractional.clone();
                let eps = 0.02 * d[i];
                d[i] -= eps;
                d[j] += eps;
                assert!(cost(&d) >= best - 1e-9);
            }
        }
    }

    #[test]
    fn rounding_floors_and_clamps() {
        assert_eq!(round_dops(&[3.9, 0.2, 5.0], 10), vec![3, 1, 5]);
        // Over budget from clamping: C=3, three stages → all get 1 (the
        // floored 2 is shrunk back to keep Σd ≤ C).
        assert_eq!(round_dops(&[0.5, 0.5, 2.0], 3), vec![1, 1, 1]);
        let r = round_dops(&[0.1, 0.1, 0.1], 3);
        assert_eq!(r, vec![1, 1, 1]);
    }

    #[test]
    fn largest_remainder_uses_all_slots() {
        let fr = vec![10.7, 20.3, 0.4, 8.6];
        let c = 40;
        let r = round_dops_largest_remainder(&fr, c);
        assert_eq!(r.iter().sum::<u32>(), c, "{r:?}");
        assert!(r.iter().all(|&d| d >= 1));
        // The biggest remainder (0.7) gets the first leftover slot.
        assert!(r[0] >= 11);
    }

    #[test]
    fn largest_remainder_matches_floor_when_exact() {
        let fr = vec![10.0, 20.0, 10.0];
        assert_eq!(round_dops_largest_remainder(&fr, 40), vec![10, 20, 10]);
    }

    #[test]
    fn rounding_never_exceeds_budget_when_feasible() {
        let fr = vec![10.7, 20.3, 0.4, 8.6];
        let c = 40;
        let r = round_dops(&fr, c);
        assert!(r.iter().sum::<u32>() <= c);
        assert!(r.iter().all(|&d| d >= 1));
    }

    /// Colocation shifts slots: zero-copy removes a stage's I/O α, so its
    /// DoP share shrinks in favour of stages that still pay for I/O.
    #[test]
    fn colocation_changes_ratios() {
        let dag = ditto_dag::generators::fig1_join();
        let model = JobTimeModel::from_rates(&dag, &Default::default());
        let none = model.no_colocation();
        let a_remote = compute_dop(&dag, &model, &none, Objective::Jct, 60);
        let mut colo = none.clone();
        colo[0] = true; // map1 -- join via shared memory
        let a_colo = compute_dop(&dag, &model, &colo, Objective::Jct, 60);
        // map1's α shrinks → its share drops relative to map2's.
        let share_remote = a_remote.fractional[0] / a_remote.fractional[1];
        let share_colo = a_colo.fractional[0] / a_colo.fractional[1];
        assert!(share_colo < share_remote);
    }

    /// The merged α of the whole q95 DAG decreases when edges co-locate
    /// (predicted JCT improves), and the budget is fully distributed.
    #[test]
    fn q95_distribution_sums_to_budget() {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &Default::default());
        let none = model.no_colocation();
        let a = compute_dop(&dag, &model, &none, Objective::Jct, 200);
        assert!((a.fractional.iter().sum::<f64>() - 200.0).abs() < 1e-6);
        assert!(a.dop.iter().sum::<u32>() <= 200);
        let mut colo = none.clone();
        colo[0] = true;
        let a2 = compute_dop(&dag, &model, &colo, Objective::Jct, 200);
        assert!(a2.merged_alpha < a.merged_alpha);
    }

    /// Multi-sink and multi-consumer DAGs still distribute the full budget.
    #[test]
    fn general_dag_handled() {
        let dag = ditto_dag::generators::diamond(1 << 30);
        let model = JobTimeModel::from_rates(&dag, &Default::default());
        let none = model.no_colocation();
        let a = compute_dop(&dag, &model, &none, Objective::Jct, 50);
        assert!((a.fractional.iter().sum::<f64>() - 50.0).abs() < 1e-6);
        assert!(a.fractional.iter().all(|&f| f > 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one function slot")]
    fn zero_budget_rejected() {
        let dag = two_stage_chain();
        let model = explicit_model(&dag, &[1.0, 1.0]);
        compute_dop(&dag, &model, &[false], Objective::Jct, 0);
    }
}
