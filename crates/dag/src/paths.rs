//! Path enumeration and weighted critical-path computation.
//!
//! The greedy grouping algorithm (paper §4.3) repeatedly finds the critical
//! path of the DAG under node weights (compute time, or resource·compute for
//! the cost objective) and edge weights (shuffle write+read time, zeroed
//! once the two endpoint stages are grouped).

use crate::graph::{EdgeId, JobDag};
use crate::stage::StageId;

/// Node and edge weights over a [`JobDag`], indexed by id.
///
/// Weights are non-negative `f64`s; the semantics (seconds, dollars, …)
/// belong to the caller.
#[derive(Debug, Clone)]
pub struct DagWeights {
    /// `node[StageId::index()]`.
    pub node: Vec<f64>,
    /// `edge[EdgeId::index()]`.
    pub edge: Vec<f64>,
}

impl DagWeights {
    /// Zero weights sized for `dag`.
    pub fn zeros(dag: &JobDag) -> Self {
        DagWeights {
            node: vec![0.0; dag.num_stages()],
            edge: vec![0.0; dag.num_edges()],
        }
    }

    /// Weight of a stage.
    pub(crate) fn node_weight(&self, s: StageId) -> f64 {
        self.node[s.index()]
    }

    /// Weight of an edge.
    pub(crate) fn edge_weight(&self, e: EdgeId) -> f64 {
        self.edge[e.index()]
    }
}

/// A directed path: alternating stages and the edges between them.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Stages along the path, upstream to downstream.
    pub(crate) stages: Vec<StageId>,
    /// Edges along the path; `edges.len() == stages.len() - 1`.
    pub edges: Vec<EdgeId>,
    /// Total weight (Σ node + Σ edge) under the weights it was computed for.
    pub weight: f64,
}

/// The critical path: the maximum-weight directed path from any initial
/// stage to any final stage, where a path's weight is the sum of its node
/// and edge weights. Computed by dynamic programming over the topological
/// order, O(V + E).
///
/// Ties are broken deterministically toward smaller stage ids.
///
/// Allocates a fresh topological order and DP buffers per call; hot loops
/// that recompute the critical path many times over one DAG should hold a
/// [`CriticalPathCache`] instead.
pub fn critical_path(dag: &JobDag, w: &DagWeights) -> Path {
    CriticalPathCache::new(dag).critical_path(dag, w)
}

/// Reusable state for repeated [`critical_path`] computations over one DAG:
/// the topological order is computed once and the DP buffers are reused, so
/// each recomputation is a single allocation-free O(V + E) sweep (plus the
/// returned [`Path`] itself). Produces bit-identical results to
/// [`critical_path`].
///
/// The cache also keeps the last DP state, so a caller that changes one
/// edge weight at a time (the greedy grouping pick zeroes one edge per
/// step) can bring it up to date with [`CriticalPathCache::edge_zeroed`]
/// instead of a full sweep, and read the path back with
/// `CriticalPathCache::current_path` /
/// [`CriticalPathCache::current_edges_into`].
#[derive(Debug, Clone)]
pub struct CriticalPathCache {
    topo: Vec<StageId>,
    /// `topo_pos[StageId::index()]` = position of the stage in `topo`.
    topo_pos: Vec<u32>,
    finals: Vec<StageId>,
    best: Vec<f64>,
    pred: Vec<Option<EdgeId>>,
    /// End stage of the critical path under the last DP state.
    end: StageId,
    /// Scratch for [`CriticalPathCache::edge_zeroed`]: stages whose inputs
    /// changed and still await re-relaxation. All `false` between calls.
    dirty: Vec<bool>,
}

impl CriticalPathCache {
    /// Build the cache for `dag` (computes and stores its topo order).
    pub fn new(dag: &JobDag) -> Self {
        let topo = dag
            .topo_order()
            .expect("critical_path requires an acyclic DAG");
        let n = dag.num_stages();
        let mut topo_pos = vec![0u32; n];
        for (i, s) in topo.iter().enumerate() {
            topo_pos[s.index()] = i as u32;
        }
        CriticalPathCache {
            topo,
            topo_pos,
            finals: dag.final_stages(),
            best: vec![f64::NEG_INFINITY; n],
            pred: vec![None; n],
            end: StageId(0),
            dirty: vec![false; n],
        }
    }

    /// One DP step: the best path ending at `s` (inclusive of `s`'s node
    /// weight) and the edge taken into `s` on it, from the current `best`
    /// of `s`'s parents.
    fn relax(&self, dag: &JobDag, w: &DagWeights, s: StageId) -> (f64, Option<EdgeId>) {
        let own = w.node_weight(s);
        let mut b = own; // start of a path
        let mut p = None;
        for e in dag.in_edges(s) {
            let cand = self.best[e.src.index()] + w.edge_weight(e.id) + own;
            // Strictly better, or a tie against "start a fresh path here":
            // prefer the longer path through a parent so zero-weight DAGs
            // still yield maximal paths (greedy grouping needs edges to
            // traverse even when all remaining weights are equal).
            if cand > b + 1e-15 || (p.is_none() && cand >= b - 1e-15) {
                b = cand;
                p = Some(e.id);
            }
        }
        (b, p)
    }

    /// Pick the best final stage under the current `best`.
    fn pick_end(&mut self) {
        let best = &self.best;
        let mut end: Option<StageId> = None;
        for &s in &self.finals {
            if end.is_none_or(|cur| best[s.index()] > best[cur.index()] + 1e-15) {
                end = Some(s);
            }
        }
        self.end = end.expect("non-empty DAG has a final stage");
    }

    /// The DP sweep: recompute `best`/`pred`/`end` under `w`.
    fn sweep(&mut self, dag: &JobDag, w: &DagWeights) {
        debug_assert_eq!(self.best.len(), dag.num_stages());
        for i in 0..self.topo.len() {
            let s = self.topo[i];
            let (b, p) = self.relax(dag, w, s);
            self.best[s.index()] = b;
            self.pred[s.index()] = p;
        }
        self.pick_end();
    }

    /// Bring the DP state up to date after the weight of edge `e` — and of
    /// nothing else — changed in `w` since the last sweep or `edge_zeroed`
    /// (the greedy pick's `ω(e) ← 0`). Only `e.dst` and stages downstream
    /// of it can change, so only stages whose inputs actually changed are
    /// re-relaxed, in topological order, each from *all* its in-edges with
    /// the sweep's tie rule: `best`/`pred` end up bitwise what a full sweep
    /// under `w` gives.
    pub fn edge_zeroed(&mut self, dag: &JobDag, w: &DagWeights, e: EdgeId) {
        let first = dag.edge(e).dst;
        self.dirty[first.index()] = true;
        let mut pending = 1usize;
        let mut i = self.topo_pos[first.index()] as usize;
        while pending > 0 {
            let s = self.topo[i];
            i += 1;
            if !std::mem::take(&mut self.dirty[s.index()]) {
                continue;
            }
            pending -= 1;
            let (b, p) = self.relax(dag, w, s);
            self.pred[s.index()] = p;
            if b.to_bits() != self.best[s.index()].to_bits() {
                self.best[s.index()] = b;
                for c in dag.children_of(s) {
                    if !std::mem::replace(&mut self.dirty[c.index()], true) {
                        pending += 1;
                    }
                }
            }
        }
        self.pick_end();
    }

    /// Edges of the critical path under the current DP state, written into
    /// `out` (cleared first) in downstream→upstream order.
    pub fn current_edges_into(&self, dag: &JobDag, out: &mut Vec<EdgeId>) {
        out.clear();
        let mut cur = self.end;
        while let Some(e) = self.pred[cur.index()] {
            out.push(e);
            cur = dag.edge(e).src;
        }
    }

    /// The critical path under the current DP state (after a sweep or an
    /// [`CriticalPathCache::edge_zeroed`]).
    pub(crate) fn current_path(&self, dag: &JobDag) -> Path {
        let mut edges = Vec::new();
        self.current_edges_into(dag, &mut edges);
        edges.reverse();
        let mut stages: Vec<StageId> = edges.iter().map(|&e| dag.edge(e).src).collect();
        stages.push(self.end);
        Path {
            stages,
            edges,
            weight: self.best[self.end.index()],
        }
    }

    /// The critical path's *edges only*, written into `out` (cleared first)
    /// in downstream→upstream order, with no `Path` allocation. For callers
    /// that reduce over the edge set — like the greedy grouping pick, whose
    /// heaviest-edge comparator is a total order and therefore
    /// order-independent.
    pub fn critical_path_edges_into(&mut self, dag: &JobDag, w: &DagWeights, out: &mut Vec<EdgeId>) {
        self.sweep(dag, w);
        self.current_edges_into(dag, out);
    }

    /// [`critical_path`] using the cached topo order and buffers. The cache
    /// must have been built for this `dag`.
    pub fn critical_path(&mut self, dag: &JobDag, w: &DagWeights) -> Path {
        self.sweep(dag, w);
        self.current_path(dag)
    }
}

/// Enumerate every maximal path (initial stage → final stage). Exponential
/// in the worst case; intended for tests and small motivating DAGs, not for
/// the scheduler hot path.
pub fn all_paths(dag: &JobDag) -> Vec<Path> {
    let mut out = Vec::new();
    for start in dag.initial_stages() {
        let mut stack = vec![(start, vec![start], Vec::new())];
        while let Some((s, stages, edges)) = stack.pop() {
            let mut is_final = true;
            for e in dag.out_edges(s) {
                is_final = false;
                let mut st = stages.clone();
                st.push(e.dst);
                let mut ed = edges.clone();
                ed.push(e.id);
                stack.push((e.dst, st, ed));
            }
            if is_final {
                out.push(Path {
                    stages,
                    edges,
                    weight: 0.0,
                });
            }
        }
    }
    out
}

/// Weight of an explicit path under `w`.
pub fn path_weight(path: &Path, w: &DagWeights) -> f64 {
    let nodes: f64 = path.stages.iter().map(|&s| w.node_weight(s)).sum();
    let edges: f64 = path.edges.iter().map(|&e| w.edge_weight(e)).sum();
    nodes + edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeKind;
    use crate::stage::StageKind;

    /// Fig. 6b-style DAG: two two-stage paths into a shared sink.
    fn two_paths() -> (JobDag, Vec<StageId>) {
        let mut g = JobDag::new("t");
        let a1 = g.add_stage("a1", StageKind::Map);
        let a2 = g.add_stage("a2", StageKind::Map);
        let b1 = g.add_stage("b1", StageKind::Map);
        let b2 = g.add_stage("b2", StageKind::Map);
        let sink = g.add_stage("sink", StageKind::Reduce);
        g.add_edge(a1, a2, EdgeKind::Shuffle, 0).unwrap(); // e0
        g.add_edge(b1, b2, EdgeKind::Shuffle, 0).unwrap(); // e1
        g.add_edge(a2, sink, EdgeKind::Shuffle, 0).unwrap(); // e2
        g.add_edge(b2, sink, EdgeKind::Shuffle, 0).unwrap(); // e3
        (g, vec![a1, a2, b1, b2, sink])
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        let (g, s) = two_paths();
        let mut w = DagWeights::zeros(&g);
        // Path via a: nodes 20+20, edges 100 (e0) + 50 (e2) -> 190 + sink
        // Path via b: nodes 10+20, edges 120 (e1) + 80 (e3) -> 230 + sink
        w.node[s[0].index()] = 20.0;
        w.node[s[1].index()] = 20.0;
        w.node[s[2].index()] = 10.0;
        w.node[s[3].index()] = 20.0;
        w.node[s[4].index()] = 5.0;
        w.edge[0] = 100.0;
        w.edge[1] = 120.0;
        w.edge[2] = 50.0;
        w.edge[3] = 80.0;
        let cp = critical_path(&g, &w);
        assert_eq!(cp.stages, vec![s[2], s[3], s[4]]);
        assert!((cp.weight - 235.0).abs() < 1e-9);
        assert_eq!(path_weight(&cp, &w), cp.weight);
    }

    #[test]
    fn critical_path_updates_when_edge_zeroed() {
        // Grouping the heaviest edge moves the critical path — the loop at
        // the heart of greedy grouping (Fig. 6b).
        let (g, s) = two_paths();
        let mut w = DagWeights::zeros(&g);
        w.edge[1] = 120.0;
        w.edge[0] = 100.0;
        let cp1 = critical_path(&g, &w);
        assert_eq!(cp1.stages[0], s[2]);
        w.edge[1] = 0.0; // group b1-b2
        let cp2 = critical_path(&g, &w);
        assert_eq!(cp2.stages[0], s[0]);
    }

    #[test]
    fn single_stage_path() {
        let mut g = JobDag::new("one");
        let a = g.add_stage("a", StageKind::Map);
        let mut w = DagWeights::zeros(&g);
        w.node[0] = 7.0;
        let cp = critical_path(&g, &w);
        assert_eq!(cp.stages, vec![a]);
        assert!(cp.edges.is_empty());
        assert_eq!(cp.weight, 7.0);
    }

    #[test]
    fn all_paths_enumerates_both() {
        let (g, _) = two_paths();
        let ps = all_paths(&g);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.stages.len(), 3);
            assert_eq!(p.edges.len(), 2);
        }
    }

    #[test]
    fn cached_critical_path_matches_fresh() {
        let (g, s) = two_paths();
        let mut w = DagWeights::zeros(&g);
        w.node[s[0].index()] = 20.0;
        w.edge[0] = 100.0;
        w.edge[1] = 120.0;
        w.edge[3] = 80.0;
        let mut cache = CriticalPathCache::new(&g);
        // Repeated calls with mutating weights must match a fresh
        // computation every time (the greedy-grouping access pattern).
        for zeroed in [usize::MAX, 1, 3, 0, 2] {
            if zeroed != usize::MAX {
                w.edge[zeroed] = 0.0;
            }
            let cached = cache.critical_path(&g, &w);
            let fresh = critical_path(&g, &w);
            assert_eq!(cached.stages, fresh.stages);
            assert_eq!(cached.edges, fresh.edges);
            assert_eq!(cached.weight, fresh.weight);
        }
    }

    use crate::generators::{random_dag, RandomDagConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_current_is_fresh(cache: &CriticalPathCache, g: &JobDag, w: &DagWeights) {
        let (kept, fresh) = (cache.current_path(g), critical_path(g, w));
        assert_eq!(kept.stages, fresh.stages);
        assert_eq!(kept.edges, fresh.edges);
        assert_eq!(kept.weight.to_bits(), fresh.weight.to_bits());
        let mut edges = Vec::new();
        cache.current_edges_into(g, &mut edges);
        edges.reverse();
        assert_eq!(edges, fresh.edges);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After any sequence of single-edge zeroings — on the path or off
        /// it, down to the all-zero DAG — the incrementally maintained
        /// state is the fresh computation's: stages, edges, weight bits.
        #[test]
        fn edge_zeroed_matches_fresh_critical_path(
            seed in 0u64..10_000,
            stages in 2usize..40,
            layers in 1usize..7,
            dense in 0u32..3,
            zero_nodes in 0u32..2,
        ) {
            let cfg = RandomDagConfig {
                stages,
                layers,
                edge_prob: [0.1, 0.5, 0.9][dense as usize],
                ..Default::default()
            };
            let g = random_dag(seed, &cfg);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc9a7);
            let mut w = DagWeights::zeros(&g);
            // Coarse weights make exact ties (the 1e-15 rule) common.
            for x in w.edge.iter_mut() {
                *x = f64::from(rng.gen_range(0u32..4)) * 0.25;
            }
            if zero_nodes == 0 {
                for x in w.node.iter_mut() {
                    *x = rng.gen_range(0.0..2.0);
                }
            }
            let mut cache = CriticalPathCache::new(&g);
            cache.critical_path(&g, &w);
            // Every edge once, in random order: whatever the path is at
            // each step, most of these are off it; the last leaves every
            // edge (and, with `zero_nodes`, the whole DAG) at zero.
            let mut order: Vec<usize> = (0..g.num_edges()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for e in order {
                w.edge[e] = 0.0;
                cache.edge_zeroed(&g, &w, EdgeId(e as u32));
                assert_current_is_fresh(&cache, &g, &w);
            }
            prop_assert!(w.edge.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn zero_weights_give_longest_hop_free_path() {
        let (g, _) = two_paths();
        let w = DagWeights::zeros(&g);
        let cp = critical_path(&g, &w);
        assert_eq!(cp.weight, 0.0);
        assert_eq!(cp.stages.len(), 3);
    }
}
