//! Canonical and synthetic DAG shapes.
//!
//! These generators provide the structural skeletons used across the test
//! suite and the motivation figures. The *full* TPC-DS-like query lowerings
//! (with realistic byte volumes derived from generated data) live in
//! `ditto-sql`; the shapes here carry representative constants.

use crate::graph::{EdgeKind, JobDag};
use crate::stage::StageKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// The three-stage join DAG of the paper's Fig. 1: two map stages scanning
/// tables A and B, feeding a join. Stage 1 processes ~4× the data of
/// stage 2, which is what makes the data-size-proportional DoP suboptimal.
pub fn fig1_join() -> JobDag {
    let mut g = JobDag::new("fig1-join");
    let s1 = g.add_stage("map1", StageKind::Map);
    let s2 = g.add_stage("map2", StageKind::Map);
    let s3 = g.add_stage("join", StageKind::Join);
    {
        let s = g.stage_mut(s1);
        s.input_bytes = 8 * GB;
        s.output_bytes = 800 * MB;
    }
    {
        let s = g.stage_mut(s2);
        s.input_bytes = 2 * GB;
        s.output_bytes = 200 * MB;
    }
    {
        let s = g.stage_mut(s3);
        s.output_bytes = 100 * MB;
    }
    g.add_edge(s1, s3, EdgeKind::Shuffle, 800 * MB).unwrap();
    g.add_edge(s2, s3, EdgeKind::Shuffle, 200 * MB).unwrap();
    g
}

/// The 9-stage Q95 DAG of the paper's Fig. 13 (shape only; byte volumes are
/// representative). Stage indices match the figure:
///
/// ```text
///   1 map1 ──shuffle──▶ 2 groupby ──shuffle──▶ 4 join1 ◀──all-gather── 3 map2
///   4 join1 ──shuffle──▶ 6 join2 ◀──all-gather── 5 map3
///   6 join2 ──shuffle──▶ 8 reduce2 ◀── ...
/// ```
///
/// The exact wiring below reproduces the figure: two broadcast (all-gather)
/// joins fed by map stages, a groupby chain, and a final reduce.
pub fn q95_shape() -> JobDag {
    let mut g = JobDag::new("q95");
    // Figure 13 lists stage indices 1..=9 bottom-up. We create them in
    // topological order and name them after the figure's labels.
    let map1 = g.add_stage("map1", StageKind::Map); // stage 1
    let groupby = g.add_stage("groupby", StageKind::GroupBy); // stage 2
    let map2 = g.add_stage("map2", StageKind::Map); // stage 3
    let reduce1 = g.add_stage("reduce1", StageKind::Reduce); // stage 4
    let map3 = g.add_stage("map3", StageKind::Map); // stage 5
    let join1 = g.add_stage("join1", StageKind::Join); // stage 6
    let map4 = g.add_stage("map4", StageKind::Map); // stage 7
    let join2 = g.add_stage("join2", StageKind::Join); // stage 8
    let reduce2 = g.add_stage("reduce2", StageKind::Reduce); // stage 9

    // Volumes: web_sales self-join dominates (map1/groupby), dimension maps
    // are small; constants chosen to preserve the paper's relative weights.
    for (s, inb, outb) in [
        (map1, 30 * GB, 6 * GB),
        (groupby, 0, 2 * GB),
        (map2, 30 * GB, 3 * GB),
        (reduce1, 0, GB),
        (map3, 512 * MB, 64 * MB),
        (join1, 0, GB),
        (map4, 256 * MB, 32 * MB),
        (join2, 0, 512 * MB),
        (reduce2, 0, 16 * MB),
    ] {
        let st = g.stage_mut(s);
        st.input_bytes = inb;
        st.output_bytes = outb;
    }

    // The first three exchanges need key co-partitioning (shuffles); the
    // rest follow §4.5's shuffle→gather replacement, making those stage
    // groups decomposable into task groups at placement time.
    g.add_edge(map1, groupby, EdgeKind::Shuffle, 6 * GB).unwrap();
    g.add_edge(groupby, reduce1, EdgeKind::Shuffle, 2 * GB).unwrap();
    g.add_edge(map2, reduce1, EdgeKind::Shuffle, 3 * GB).unwrap();
    g.add_edge(reduce1, join1, EdgeKind::Gather, GB).unwrap();
    g.add_edge(map3, join1, EdgeKind::AllGather, 64 * MB).unwrap();
    g.add_edge(join1, join2, EdgeKind::Gather, GB).unwrap();
    g.add_edge(map4, join2, EdgeKind::AllGather, 32 * MB).unwrap();
    g.add_edge(join2, reduce2, EdgeKind::Gather, 512 * MB).unwrap();
    g
}

/// A linear chain of `n ≥ 1` stages `s0 -> s1 -> … -> s(n-1)`, each stage
/// shrinking the data by `shrink` (e.g. 0.1 for aggressive filters).
pub fn chain(n: usize, input_bytes: u64, shrink: f64) -> JobDag {
    assert!(n >= 1, "chain needs at least one stage");
    assert!((0.0..=1.0).contains(&shrink));
    let mut g = JobDag::new(format!("chain-{n}"));
    let mut prev = None;
    let mut bytes = input_bytes as f64;
    for i in 0..n {
        let kind = if i == 0 {
            StageKind::Map
        } else if i == n - 1 {
            StageKind::Reduce
        } else {
            StageKind::Custom
        };
        let id = g.add_stage(format!("s{i}"), kind);
        let out = bytes * shrink;
        {
            let st = g.stage_mut(id);
            st.input_bytes = if i == 0 { input_bytes } else { 0 };
            st.output_bytes = out as u64;
        }
        if let Some(p) = prev {
            g.add_edge(p, id, EdgeKind::Shuffle, bytes as u64).unwrap();
        }
        prev = Some(id);
        bytes = out;
    }
    g
}

/// A fan-in tree: `leaves` map stages all feeding one reduce stage. Leaf `i`
/// scans `input_bytes[i]` and emits a `sel` fraction of it.
pub fn fan_in(input_bytes: &[u64], sel: f64) -> JobDag {
    assert!(!input_bytes.is_empty());
    let mut g = JobDag::new(format!("fanin-{}", input_bytes.len()));
    let sink = g.add_stage("sink", StageKind::Reduce);
    for (i, &b) in input_bytes.iter().enumerate() {
        let leaf = g.add_stage(format!("leaf{i}"), StageKind::Map);
        let out = (b as f64 * sel) as u64;
        {
            let st = g.stage_mut(leaf);
            st.input_bytes = b;
            st.output_bytes = out;
        }
        g.add_edge(leaf, sink, EdgeKind::Shuffle, out).unwrap();
    }
    g
}

/// A diamond: `src -> (mid1, mid2) -> sink`. The simplest non-tree DAG
/// (src has two consumers), used to exercise the general-DAG extension.
pub fn diamond(input_bytes: u64) -> JobDag {
    let mut g = JobDag::new("diamond");
    let src = g.add_stage("src", StageKind::Map);
    let m1 = g.add_stage("mid1", StageKind::Map);
    let m2 = g.add_stage("mid2", StageKind::Map);
    let sink = g.add_stage("sink", StageKind::Join);
    let half = input_bytes / 2;
    g.stage_mut(src).input_bytes = input_bytes;
    g.stage_mut(src).output_bytes = input_bytes;
    g.stage_mut(m1).output_bytes = half;
    g.stage_mut(m2).output_bytes = half;
    g.add_edge(src, m1, EdgeKind::Shuffle, half).unwrap();
    g.add_edge(src, m2, EdgeKind::Shuffle, half).unwrap();
    g.add_edge(m1, sink, EdgeKind::Shuffle, half / 2).unwrap();
    g.add_edge(m2, sink, EdgeKind::Shuffle, half / 2).unwrap();
    g
}

/// Configuration for [`random_dag`].
#[derive(Debug, Clone)]
pub struct RandomDagConfig {
    /// Number of stages (≥ 1).
    pub stages: usize,
    /// Probability of an edge between two stages in adjacent layers.
    pub edge_prob: f64,
    /// Number of layers the stages are spread over.
    pub layers: usize,
    /// Input bytes for initial stages, sampled log-uniform up to this bound.
    pub max_input_bytes: u64,
}

impl Default for RandomDagConfig {
    fn default() -> Self {
        RandomDagConfig {
            stages: 8,
            edge_prob: 0.5,
            layers: 4,
            max_input_bytes: 4 * GB,
        }
    }
}

impl RandomDagConfig {
    /// A configuration scaled for scheduler benchmarks: `stages` stages
    /// spread over `stages / 8` layers (clamped to [2, 64]) with a sparser
    /// edge probability, so edge count grows roughly linearly (~2×) with
    /// stage count instead of quadratically with layer width.
    pub fn sized(stages: usize) -> Self {
        RandomDagConfig {
            stages,
            edge_prob: 0.1,
            layers: (stages / 8).clamp(2, 64),
            max_input_bytes: 4 * GB,
        }
    }
}

/// Seeded random layered DAG generator for property tests. Guarantees a
/// connected, valid DAG: every non-first-layer stage gets at least one
/// parent from the previous layer, and every stage with no consumer in a
/// later layer is linked to the final sink layer.
pub fn random_dag(seed: u64, cfg: &RandomDagConfig) -> JobDag {
    assert!(cfg.stages >= 1 && cfg.layers >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = JobDag::new(format!("random-{seed}"));
    // Assign stages to layers as evenly as possible, at least 1 per layer.
    let layers = cfg.layers.min(cfg.stages);
    let mut layer_of = Vec::with_capacity(cfg.stages);
    for i in 0..cfg.stages {
        layer_of.push(i * layers / cfg.stages);
    }
    let ids: Vec<_> = (0..cfg.stages)
        .map(|i| {
            let kind = match layer_of[i] {
                0 => StageKind::Map,
                l if l == layers - 1 => StageKind::Reduce,
                _ => StageKind::Custom,
            };
            let id = g.add_stage(format!("s{i}"), kind);
            if layer_of[i] == 0 {
                let exp = rng.gen_range(20.0..(cfg.max_input_bytes as f64).log2());
                let st = g.stage_mut(id);
                st.input_bytes = 2f64.powf(exp) as u64;
                st.output_bytes = st.input_bytes / 10;
            } else {
                g.stage_mut(id).output_bytes = rng.gen_range(1..=64) * MB;
            }
            id
        })
        .collect();
    for (i, &dst) in ids.iter().enumerate() {
        if layer_of[i] == 0 {
            continue;
        }
        let prev_layer: Vec<usize> = (0..cfg.stages)
            .filter(|&j| layer_of[j] == layer_of[i] - 1)
            .collect();
        let mut got_parent = false;
        for &j in &prev_layer {
            if rng.gen_bool(cfg.edge_prob) {
                let bytes = rng.gen_range(1..=512) * MB;
                g.add_edge(ids[j], dst, EdgeKind::Shuffle, bytes).unwrap();
                got_parent = true;
            }
        }
        if !got_parent {
            let j = prev_layer[rng.gen_range(0..prev_layer.len())];
            let bytes = rng.gen_range(1..=512) * MB;
            g.add_edge(ids[j], dst, EdgeKind::Shuffle, bytes).unwrap();
        }
    }
    // Link dangling non-final stages to some stage in the next layer so the
    // DAG stays connected toward its sinks.
    for (i, &src) in ids.iter().enumerate() {
        if layer_of[i] == layers - 1 || g.out_degree(src) > 0 {
            continue;
        }
        let next_layer: Vec<usize> = (0..cfg.stages)
            .filter(|&j| layer_of[j] == layer_of[i] + 1)
            .collect();
        let j = next_layer[rng.gen_range(0..next_layer.len())];
        let bytes = rng.gen_range(1..=512) * MB;
        g.add_edge(src, ids[j], EdgeKind::Shuffle, bytes).unwrap();
    }
    debug_assert!(g.validate().is_ok());
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageId;

    #[test]
    fn fig1_shape() {
        let g = fig1_join();
        assert!(g.validate().is_ok());
        assert_eq!(g.num_stages(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.final_stages(), vec![StageId(2)]);
        assert!(g.is_tree_like());
        // Stage 1 processes 4x the data of stage 2 (the Fig. 1/4 premise).
        assert_eq!(g.stage(StageId(0)).input_bytes, 4 * g.stage(StageId(1)).input_bytes);
    }

    #[test]
    fn q95_shape_matches_fig13() {
        let g = q95_shape();
        assert!(g.validate().is_ok());
        assert_eq!(g.num_stages(), 9, "Fig. 13 has 9 stages");
        assert_eq!(g.num_edges(), 8);
        // Exactly two all-gather (broadcast) edges feed the two joins.
        let ag = g.edges().iter().filter(|e| e.kind == EdgeKind::AllGather).count();
        assert_eq!(ag, 2);
        // Single final stage: reduce2.
        let fin = g.final_stages();
        assert_eq!(fin.len(), 1);
        assert_eq!(g.stage(fin[0]).name, "reduce2");
        // Four initial scan stages: map1..map4.
        let init = g.initial_stages();
        assert_eq!(init.len(), 4);
        for s in init {
            assert!(g.stage(s).name.starts_with("map"));
        }
        // Longest chain map1->groupby->reduce1->join1->join2->reduce2.
        assert_eq!(g.max_depth(), 5);
    }

    #[test]
    fn chain_shape() {
        let g = chain(5, GB, 0.5);
        assert!(g.validate().is_ok());
        assert!(g.is_tree_like());
        assert_eq!(g.initial_stages().len(), 1);
        assert_eq!(g.num_edges(), 4);
        // Each edge carries the upstream stage's (shrunken) output and
        // volumes halve along the chain.
        assert_eq!(g.edges()[0].bytes, GB / 2);
        assert_eq!(g.edges()[1].bytes, GB / 4);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn chain_zero_panics() {
        chain(0, GB, 0.5);
    }

    #[test]
    fn fan_in_shape() {
        let g = fan_in(&[GB, 2 * GB, 3 * GB], 0.1);
        assert!(g.validate().is_ok());
        assert!(g.is_tree_like());
        assert_eq!(g.initial_stages().len(), 3);
        assert_eq!(g.final_stages().len(), 1);
        assert_eq!(g.max_depth(), 1);
    }

    #[test]
    fn diamond_is_not_tree_like() {
        let g = diamond(GB);
        assert!(g.validate().is_ok());
        assert!(!g.is_tree_like());
        assert_eq!(g.max_depth(), 2);
    }

    #[test]
    fn random_dag_valid_and_deterministic() {
        for seed in 0..20 {
            let cfg = RandomDagConfig::default();
            let g1 = random_dag(seed, &cfg);
            let g2 = random_dag(seed, &cfg);
            assert!(g1.validate().is_ok(), "seed {seed}");
            assert_eq!(g1.num_edges(), g2.num_edges(), "determinism, seed {seed}");
            // Every stage is on some initial->final path: no orphans.
            for s in g1.stages() {
                let has_parent = g1.in_degree(s.id) > 0;
                let has_child = g1.out_degree(s.id) > 0;
                assert!(
                    has_parent || has_child || g1.num_stages() == 1,
                    "orphan stage in seed {seed}"
                );
            }
        }
    }

    #[test]
    fn random_dag_respects_stage_count() {
        let cfg = RandomDagConfig {
            stages: 17,
            layers: 5,
            ..Default::default()
        };
        let g = random_dag(42, &cfg);
        assert_eq!(g.num_stages(), 17);
    }
}
