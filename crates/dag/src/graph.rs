//! The job DAG: stages, data-dependency edges, and structural queries.

use crate::error::DagError;
use crate::stage::{Stage, StageId, StageKind};
use std::collections::HashSet;
use std::fmt;

/// Identifier of an edge within a [`JobDag`]; dense index in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Communication pattern carried by a data dependency (§4.5, Fig. 7 and
/// Fig. 13 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeKind {
    /// All-to-all repartitioning: every upstream task sends a partition to
    /// every downstream task. Co-location requires the *whole* stage group
    /// on one server.
    #[default]
    Shuffle,
    /// One-to-one (or many-to-one within aligned partitions): upstream task
    /// i feeds only downstream task ⌈i·d_down/d_up⌉. Stage groups connected
    /// only by gather edges can be decomposed into fine-grained task groups
    /// (§4.5), which makes placement far easier.
    Gather,
    /// Every downstream task receives a full copy of all upstream output
    /// (the paper's all-gather, used by broadcast joins in Q95).
    AllGather,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::Shuffle => "shuffle",
            EdgeKind::Gather => "gather",
            EdgeKind::AllGather => "all-gather",
        };
        f.write_str(s)
    }
}

/// A directed data dependency: `src` produces intermediate data consumed by
/// `dst`. `bytes` is the estimated shuffle volume along this edge, used to
/// weight edges in greedy grouping and to size simulated transfers.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Dense identifier within the owning DAG.
    pub id: EdgeId,
    /// Producing (upstream) stage.
    pub src: StageId,
    /// Consuming (downstream) stage.
    pub dst: StageId,
    /// Communication pattern.
    pub kind: EdgeKind,
    /// Estimated intermediate data volume in bytes.
    pub bytes: u64,
    /// NIMBLE pipelining annotation (paper §4.5): the downstream read
    /// overlaps the upstream write, so consumers may start streaming while
    /// the producer is still emitting. Affects the time model (the read
    /// step leaves the consumer's non-overlapped time) and the simulator
    /// (the consumer starts at the producer's write *start*, finishing no
    /// earlier than the producer).
    pub pipelined: bool,
}

/// A directed acyclic graph of stages.
///
/// Invariants (enforced by [`JobDag::validate`], which every constructor in
/// this crate runs):
/// * at least one stage;
/// * no self-loops, no duplicate `(src, dst)` pairs, no cycles;
/// * stage names unique.
///
/// Terminology follows the paper: *initial stages* have no upstream
/// dependencies (the tree's leaves); the *final stage(s)* have no downstream
/// consumers (the root, depth 0). `JobDag::depths` measures the longest
/// distance to a final stage, which is the layer index the bottom-up DoP
/// algorithm iterates over.
#[derive(Debug, Clone)]
pub struct JobDag {
    name: String,
    stages: Vec<Stage>,
    edges: Vec<Edge>,
    /// children[s] = outgoing edge ids of stage s.
    children: Vec<Vec<EdgeId>>,
    /// parents[s] = incoming edge ids of stage s.
    parents: Vec<Vec<EdgeId>>,
}

impl JobDag {
    /// Create an empty DAG with the given job name. Prefer
    /// [`crate::DagBuilder`] for ergonomic construction.
    pub fn new(name: impl Into<String>) -> Self {
        JobDag {
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
            children: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// The job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a stage; returns its id. Name uniqueness is checked at
    /// [`validate`](Self::validate) time.
    pub fn add_stage(&mut self, name: impl Into<String>, kind: StageKind) -> StageId {
        let id = StageId(self.stages.len() as u32);
        self.stages.push(Stage::new(id, name, kind));
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Add a data dependency `src -> dst`. Errors on unknown stages,
    /// self-loops and duplicates; cycle detection happens in
    /// [`validate`](Self::validate).
    pub fn add_edge(
        &mut self,
        src: StageId,
        dst: StageId,
        kind: EdgeKind,
        bytes: u64,
    ) -> Result<EdgeId, DagError> {
        if src.index() >= self.stages.len() {
            return Err(DagError::UnknownStage(src));
        }
        if dst.index() >= self.stages.len() {
            return Err(DagError::UnknownStage(dst));
        }
        if src == dst {
            return Err(DagError::SelfLoop(src));
        }
        if self
            .children[src.index()]
            .iter()
            .any(|&e| self.edges[e.index()].dst == dst)
        {
            return Err(DagError::DuplicateEdge(src, dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            src,
            dst,
            kind,
            bytes,
            pipelined: false,
        });
        self.children[src.index()].push(id);
        self.parents[dst.index()].push(id);
        Ok(id)
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All stages, indexed by `StageId::index()`.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// All edges, indexed by `EdgeId::index()`.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The stage with the given id. Panics on out-of-range ids (ids are only
    /// minted by this DAG, so that indicates a cross-DAG mixup).
    pub fn stage(&self, id: StageId) -> &Stage {
        &self.stages[id.index()]
    }

    /// Mutable access to a stage (to set I/O volume estimates).
    pub fn stage_mut(&mut self, id: StageId) -> &mut Stage {
        &mut self.stages[id.index()]
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Mutable access to an edge.
    pub fn edge_mut(&mut self, id: EdgeId) -> &mut Edge {
        &mut self.edges[id.index()]
    }

    /// Outgoing edges of `s`.
    pub fn out_edges(&self, s: StageId) -> impl Iterator<Item = &Edge> + '_ {
        self.children[s.index()].iter().map(|&e| &self.edges[e.index()])
    }

    /// Incoming edges of `s`.
    pub fn in_edges(&self, s: StageId) -> impl Iterator<Item = &Edge> + '_ {
        self.parents[s.index()].iter().map(|&e| &self.edges[e.index()])
    }

    /// All edges touching `s`: incoming first, then outgoing. A self-loop
    /// cannot exist (DAG), so each edge appears at most once.
    pub fn incident_edges(&self, s: StageId) -> impl Iterator<Item = &Edge> + '_ {
        self.in_edges(s).chain(self.out_edges(s))
    }

    /// Downstream (child) stages of `s`.
    pub fn children_of(&self, s: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.out_edges(s).map(|e| e.dst)
    }

    /// Upstream (parent) stages of `s`.
    pub fn parents_of(&self, s: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.in_edges(s).map(|e| e.src)
    }

    /// In-degree of `s` (number of upstream dependencies).
    pub fn in_degree(&self, s: StageId) -> usize {
        self.parents[s.index()].len()
    }

    /// Out-degree of `s` (number of downstream consumers).
    pub fn out_degree(&self, s: StageId) -> usize {
        self.children[s.index()].len()
    }

    /// Initial stages: no upstream dependencies (the paper's leaves).
    pub fn initial_stages(&self) -> Vec<StageId> {
        self.stages
            .iter()
            .filter(|s| self.in_degree(s.id) == 0)
            .map(|s| s.id)
            .collect()
    }

    /// Final stages: no downstream consumers (the paper's root, depth 0).
    pub fn final_stages(&self) -> Vec<StageId> {
        self.stages
            .iter()
            .filter(|s| self.out_degree(s.id) == 0)
            .map(|s| s.id)
            .collect()
    }

    /// Depth of every stage: the length (in edges) of the longest directed
    /// path from the stage to any final stage. Final stages have depth 0;
    /// upstream stages have larger depth. This matches the paper's layering
    /// in Algorithm 1 (`BOTTOM_UP_DOP` walks from `max_depth` down to 1).
    ///
    /// Returns `depths[StageId::index()]`.
    pub(crate) fn depths(&self) -> Vec<usize> {
        let order = self.topo_order().expect("depths() requires an acyclic DAG");
        let mut depth = vec![0usize; self.stages.len()];
        // Walk in reverse topological order so children are finalized first.
        for &s in order.iter().rev() {
            let d = self
                .children_of(s)
                .map(|c| depth[c.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[s.index()] = d;
        }
        depth
    }

    /// Maximum stage depth (0 for a single-stage job).
    pub fn max_depth(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// `true` if every stage has at most one downstream consumer, i.e. the
    /// DAG is a forest rooted at the final stages (the "tree-like DAGs" the
    /// paper analyses first). Note the paper's trees point leaf→root, so the
    /// tree condition is on *out*-degree.
    pub fn is_tree_like(&self) -> bool {
        self.stages.iter().all(|s| self.out_degree(s.id) <= 1)
    }

    /// Full structural validation; see the type-level docs for the invariant
    /// list. Cheap enough to run after any construction.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        let mut names = HashSet::new();
        for s in &self.stages {
            if !names.insert(s.name.as_str()) {
                return Err(DagError::DuplicateName(s.name.clone()));
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order (Kahn's algorithm); `Err(Cycle)` when cyclic.
    /// Deterministic: among ready stages the smallest id goes first.
    pub fn topo_order(&self) -> Result<Vec<StageId>, DagError> {
        let n = self.stages.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.parents[i].len()).collect();
        // BinaryHeap would work; a sorted ready list keeps determinism simple.
        let mut ready: Vec<StageId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| StageId(i as u32))
            .collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop from the back = smallest
        let mut order = Vec::with_capacity(n);
        while let Some(s) = ready.pop() {
            order.push(s);
            for &e in &self.children[s.index()] {
                let c = self.edges[e.index()].dst;
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    // Insert keeping descending order so pop() yields min.
                    let pos = ready
                        .binary_search_by(|x| c.cmp(x))
                        .unwrap_or_else(|p| p);
                    ready.insert(pos, c);
                }
            }
        }
        if order.len() != n {
            let on_cycle = (0..n).find(|&i| indeg[i] > 0).unwrap();
            return Err(DagError::Cycle(StageId(on_cycle as u32)));
        }
        Ok(order)
    }

    /// Mark an edge as pipelined (§4.5): the downstream read overlaps the
    /// upstream write.
    pub fn set_pipelined(&mut self, e: EdgeId, pipelined: bool) {
        self.edges[e.index()].pipelined = pipelined;
    }

    /// Render a compact one-line-per-stage description, useful in examples
    /// and trace output.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "job {:?}: {} stages, {} edges", self.name, self.num_stages(), self.num_edges());
        for s in &self.stages {
            let ins: Vec<String> = self.parents_of(s.id).map(|p| self.stage(p).name.clone()).collect();
            let _ = writeln!(
                out,
                "  {} [{}] <- [{}] in={}B out={}B",
                s.name,
                s.kind,
                ins.join(", "),
                s.input_bytes,
                s.output_bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> JobDag {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = JobDag::new("diamond");
        let a = g.add_stage("a", StageKind::Map);
        let b = g.add_stage("b", StageKind::Map);
        let c = g.add_stage("c", StageKind::Map);
        let d = g.add_stage("d", StageKind::Join);
        g.add_edge(a, b, EdgeKind::Shuffle, 10).unwrap();
        g.add_edge(a, c, EdgeKind::Shuffle, 20).unwrap();
        g.add_edge(b, d, EdgeKind::Shuffle, 30).unwrap();
        g.add_edge(c, d, EdgeKind::Shuffle, 40).unwrap();
        g
    }

    #[test]
    fn build_and_query() {
        let g = diamond();
        assert_eq!(g.num_stages(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.validate().is_ok());
        assert_eq!(g.initial_stages(), vec![StageId(0)]);
        assert_eq!(g.final_stages(), vec![StageId(3)]);
        assert_eq!(g.in_degree(StageId(3)), 2);
        assert_eq!(g.out_degree(StageId(0)), 2);
        assert!(!g.is_tree_like()); // a has two children
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut g = JobDag::new("t");
        let a = g.add_stage("a", StageKind::Map);
        let b = g.add_stage("b", StageKind::Map);
        assert_eq!(g.add_edge(a, a, EdgeKind::Shuffle, 0), Err(DagError::SelfLoop(a)));
        g.add_edge(a, b, EdgeKind::Shuffle, 0).unwrap();
        assert_eq!(
            g.add_edge(a, b, EdgeKind::Gather, 0),
            Err(DagError::DuplicateEdge(a, b))
        );
        assert_eq!(
            g.add_edge(a, StageId(9), EdgeKind::Shuffle, 0),
            Err(DagError::UnknownStage(StageId(9)))
        );
    }

    #[test]
    fn detects_cycle() {
        let mut g = JobDag::new("cyc");
        let a = g.add_stage("a", StageKind::Map);
        let b = g.add_stage("b", StageKind::Map);
        let c = g.add_stage("c", StageKind::Map);
        g.add_edge(a, b, EdgeKind::Shuffle, 0).unwrap();
        g.add_edge(b, c, EdgeKind::Shuffle, 0).unwrap();
        g.add_edge(c, a, EdgeKind::Shuffle, 0).unwrap();
        assert!(matches!(g.validate(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn detects_duplicate_names() {
        let mut g = JobDag::new("dup");
        g.add_stage("x", StageKind::Map);
        g.add_stage("x", StageKind::Map);
        assert_eq!(g.validate(), Err(DagError::DuplicateName("x".into())));
    }

    #[test]
    fn empty_dag_invalid() {
        let g = JobDag::new("e");
        assert_eq!(g.validate(), Err(DagError::Empty));
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        assert_eq!(order, vec![StageId(0), StageId(1), StageId(2), StageId(3)]);
        // Every edge goes forward in the order.
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_stages()];
            for (i, s) in order.iter().enumerate() {
                p[s.index()] = i;
            }
            p
        };
        for e in g.edges() {
            assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn depths_match_paper_convention() {
        let g = diamond();
        let d = g.depths();
        // d is the final stage: depth 0; b,c feed d: depth 1; a: depth 2.
        assert_eq!(d, vec![2, 1, 1, 0]);
        assert_eq!(g.max_depth(), 2);
    }

    #[test]
    fn chain_is_tree_like() {
        let mut g = JobDag::new("chain");
        let a = g.add_stage("a", StageKind::Map);
        let b = g.add_stage("b", StageKind::Reduce);
        g.add_edge(a, b, EdgeKind::Shuffle, 1).unwrap();
        assert!(g.is_tree_like());
        assert_eq!(g.depths(), vec![1, 0]);
    }

    #[test]
    fn describe_contains_stage_names() {
        let g = diamond();
        let s = g.describe();
        assert!(s.contains("diamond"));
        assert!(s.contains("join"));
        assert!(s.contains("d ["));
    }
}
