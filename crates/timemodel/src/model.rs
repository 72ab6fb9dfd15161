//! The per-job execution time model: fitted steps for every stage and edge.

use crate::resource::ResourceModel;
use crate::step::{Step, StepKind};
use ditto_dag::{EdgeId, JobDag, StageId};

/// The non-I/O steps of a stage plus its *external* I/O (scanning job input
/// from the object store, writing final output). External I/O never goes
/// through shared memory, so it is unaffected by placement.
#[derive(Debug, Clone)]
pub struct StageSteps {
    /// CPU work; unaffected by placement.
    pub compute: Step,
    /// Reading the stage's external input (zero for non-initial stages).
    pub external_read: Step,
    /// Writing the stage's external output (zero unless final stage).
    pub external_write: Step,
}

impl StageSteps {
    /// A stage with compute only.
    pub fn compute_only(alpha: f64, beta: f64) -> Self {
        StageSteps {
            compute: Step::new(StepKind::Compute, alpha, beta),
            external_read: Step::zero(StepKind::Read),
            external_write: Step::zero(StepKind::Write),
        }
    }
}

/// Fitted I/O steps of one data-dependency edge: the upstream stage's write
/// and the downstream stage's read. Both collapse to zero time when the
/// placement co-locates the two stages (zero-copy shared memory, §4.1).
#[derive(Debug, Clone)]
pub struct EdgeIo {
    /// Write step, charged to the upstream (`src`) stage.
    pub write: Step,
    /// Read step, charged to the downstream (`dst`) stage.
    pub read: Step,
    /// NIMBLE pipelining annotation (§4.5): when `true`, the downstream
    /// read overlaps the upstream write and is excluded from the downstream
    /// stage's non-overlapped execution time.
    pub pipelined: bool,
}

impl EdgeIo {
    /// Zero-cost edge I/O.
    pub fn zero() -> Self {
        EdgeIo {
            write: Step::zero(StepKind::Write),
            read: Step::zero(StepKind::Read),
            pipelined: false,
        }
    }
}

/// Rates for deriving a model directly from a DAG's byte volumes — the
/// convenient constructor used by figures, examples and tests (a stand-in
/// for profiling a real deployment; `ditto-exec` + `crate::profile`
/// provide the "honest" profile-then-fit path).
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// External-storage read bandwidth per task, bytes/s.
    pub external_read_bw: f64,
    /// External-storage write bandwidth per task, bytes/s.
    pub external_write_bw: f64,
    /// Inter-server shuffle bandwidth per task, bytes/s (write and read).
    pub shuffle_bw: f64,
    /// Compute throughput per task, bytes/s over the stage's processed data.
    pub compute_bw: f64,
    /// Inherent overhead per read/write step, seconds.
    pub io_beta: f64,
    /// Inherent overhead of the compute step, seconds.
    pub compute_beta: f64,
    /// Straggler scaling factor, ≥ 1 (§4.1 "Modeling stragglers").
    pub straggler_scale: f64,
    /// Memory GB per byte of processed data, for the resource model ρ.
    pub mem_gb_per_byte: f64,
    /// Per-function memory overhead in GB, for the resource model σ.
    pub mem_gb_per_function: f64,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            external_read_bw: 80e6,  // ~80 MB/s per function from S3-like
            external_write_bw: 60e6, // writes a bit slower
            shuffle_bw: 100e6,       // via external storage or network
            compute_bw: 150e6,       // 150 MB/s of data crunched per core
            io_beta: 0.5,            // request latency + connection setup
            compute_beta: 0.2,
            straggler_scale: 1.15,
            mem_gb_per_byte: 2.0e-9, // working set ≈ 2× data size
            mem_gb_per_function: 0.125,
        }
    }
}

/// Fitted execution-time model for every stage and edge of a job.
///
/// All query methods take a `colocated: &[bool]` mask indexed by
/// [`EdgeId`]: `colocated[e]` means the placement puts the edge's endpoint
/// stages in the same stage group (same server), so its I/O steps cost
/// nothing. Use [`JobTimeModel::no_colocation`] for the all-remote mask.
#[derive(Debug, Clone)]
pub struct JobTimeModel {
    stages: Vec<StageSteps>,
    edges: Vec<EdgeIo>,
    resources: Vec<ResourceModel>,
    /// Straggler scaling factor per stage, ≥ 1.
    scaling: Vec<f64>,
}

impl JobTimeModel {
    /// Build a model with explicit steps. Lengths must match the DAG.
    pub fn new(
        dag: &JobDag,
        stages: Vec<StageSteps>,
        edges: Vec<EdgeIo>,
        resources: Vec<ResourceModel>,
    ) -> Self {
        assert_eq!(stages.len(), dag.num_stages());
        assert_eq!(edges.len(), dag.num_edges());
        assert_eq!(resources.len(), dag.num_stages());
        JobTimeModel {
            scaling: vec![1.0; stages.len()],
            stages,
            edges,
            resources,
        }
    }

    /// Derive a model from the DAG's byte volumes and a [`RateConfig`].
    pub fn from_rates(dag: &JobDag, cfg: &RateConfig) -> Self {
        let mut stages = Vec::with_capacity(dag.num_stages());
        let mut resources = Vec::with_capacity(dag.num_stages());
        for s in dag.stages() {
            let in_edges_bytes: u64 = dag.in_edges(s.id).map(|e| e.bytes).sum();
            let processed = s.input_bytes + in_edges_bytes;
            let is_final = dag.out_degree(s.id) == 0;
            let ext_read = if s.input_bytes > 0 {
                Step::new(
                    StepKind::Read,
                    s.input_bytes as f64 / cfg.external_read_bw,
                    cfg.io_beta,
                )
            } else {
                Step::zero(StepKind::Read)
            };
            let ext_write = if is_final && s.output_bytes > 0 {
                Step::new(
                    StepKind::Write,
                    s.output_bytes as f64 / cfg.external_write_bw,
                    cfg.io_beta,
                )
            } else {
                Step::zero(StepKind::Write)
            };
            stages.push(StageSteps {
                compute: Step::new(
                    StepKind::Compute,
                    processed as f64 / cfg.compute_bw,
                    cfg.compute_beta,
                ),
                external_read: ext_read,
                external_write: ext_write,
            });
            resources.push(ResourceModel::new(
                (processed as f64 * cfg.mem_gb_per_byte).max(1e-3),
                cfg.mem_gb_per_function,
            ));
        }
        let edges = dag
            .edges()
            .iter()
            .map(|e| EdgeIo {
                write: Step::new(StepKind::Write, e.bytes as f64 / cfg.shuffle_bw, cfg.io_beta),
                read: Step::new(StepKind::Read, e.bytes as f64 / cfg.shuffle_bw, cfg.io_beta),
                pipelined: e.pipelined,
            })
            .collect();
        let mut m = JobTimeModel::new(dag, stages, edges, resources);
        m.scaling = vec![cfg.straggler_scale.max(1.0); dag.num_stages()];
        m
    }

    /// An all-`false` co-location mask (every shuffle goes remote).
    pub fn no_colocation(&self) -> Vec<bool> {
        vec![false; self.edges.len()]
    }

    /// The steps of a stage.
    pub fn stage_steps(&self, s: StageId) -> &StageSteps {
        &self.stages[s.index()]
    }

    /// Mutable steps of a stage.
    pub(crate) fn stage_steps_mut(&mut self, s: StageId) -> &mut StageSteps {
        &mut self.stages[s.index()]
    }

    /// The I/O model of an edge.
    pub fn edge_io(&self, e: EdgeId) -> &EdgeIo {
        &self.edges[e.index()]
    }

    /// Mutable I/O model of an edge.
    pub(crate) fn edge_io_mut(&mut self, e: EdgeId) -> &mut EdgeIo {
        &mut self.edges[e.index()]
    }

    /// The resource model of a stage.
    pub fn resource(&self, s: StageId) -> &ResourceModel {
        &self.resources[s.index()]
    }

    /// Mutable resource model of a stage.
    pub fn resource_mut(&mut self, s: StageId) -> &mut ResourceModel {
        &mut self.resources[s.index()]
    }

    /// Straggler scaling factor of a stage.
    pub fn scaling(&self, s: StageId) -> f64 {
        self.scaling[s.index()]
    }

    /// Set the straggler scaling factor of a stage (≥ 1).
    pub fn set_scaling(&mut self, s: StageId, scale: f64) {
        assert!(scale >= 1.0, "straggler scale must be >= 1");
        self.scaling[s.index()] = scale;
    }

    /// Mark an edge as pipelined (§4.5): the downstream read overlaps the
    /// upstream write and leaves the downstream stage's modeled time.
    pub fn set_pipelined(&mut self, e: EdgeId, pipelined: bool) {
        self.edges[e.index()].pipelined = pipelined;
    }

    /// Aggregate parallelizable time αᵢ of stage `s` under the co-location
    /// mask: compute α + external I/O α + non-co-located edge I/O α
    /// (incoming reads that aren't pipelined, outgoing writes), scaled by
    /// the stage's straggler factor.
    pub fn stage_alpha(&self, dag: &JobDag, s: StageId, colocated: &[bool]) -> f64 {
        let st = &self.stages[s.index()];
        let mut a = st.compute.alpha + st.external_read.alpha + st.external_write.alpha;
        for e in dag.in_edges(s) {
            let io = &self.edges[e.id.index()];
            if !colocated[e.id.index()] && !io.pipelined {
                a += io.read.alpha;
            }
        }
        for e in dag.out_edges(s) {
            if !colocated[e.id.index()] {
                a += self.edges[e.id.index()].write.alpha;
            }
        }
        a * self.scaling[s.index()]
    }

    /// Aggregate inherent time βᵢ of stage `s` under the co-location mask.
    pub fn stage_beta(&self, dag: &JobDag, s: StageId, colocated: &[bool]) -> f64 {
        let st = &self.stages[s.index()];
        let mut b = st.compute.beta + st.external_read.beta + st.external_write.beta;
        for e in dag.in_edges(s) {
            let io = &self.edges[e.id.index()];
            if !colocated[e.id.index()] && !io.pipelined {
                b += io.read.beta;
            }
        }
        for e in dag.out_edges(s) {
            if !colocated[e.id.index()] {
                b += self.edges[e.id.index()].write.beta;
            }
        }
        b * self.scaling[s.index()]
    }

    /// `T(s, d, P) = αᵢ/d + βᵢ` (paper Eq. 1/2) under the co-location mask.
    /// Includes the straggler scaling factor: this predicts the *stage*
    /// time, i.e. its slowest task (§4.1 "Modeling stragglers").
    pub fn exec_time(&self, dag: &JobDag, s: StageId, d: f64, colocated: &[bool]) -> f64 {
        self.stage_alpha(dag, s, colocated) / d + self.stage_beta(dag, s, colocated)
    }

    /// Like [`JobTimeModel::exec_time`] but without the straggler scaling:
    /// the predicted *mean* task time. This is the quantity the paper's
    /// Fig. 11 plots against the measured average task execution time.
    pub fn mean_exec_time(&self, dag: &JobDag, s: StageId, d: f64, colocated: &[bool]) -> f64 {
        self.exec_time(dag, s, d, colocated) / self.scaling(s)
    }

    /// The compute-step time `C(s, d)`, placement-independent.
    pub fn compute_time(&self, s: StageId, d: f64) -> f64 {
        self.stages[s.index()].compute.eval(d) * self.scaling[s.index()]
    }

    /// Total read time `R(s, d, P)`: external read + non-co-located,
    /// non-pipelined upstream-edge reads.
    #[cfg(test)]
    pub(crate) fn read_time(&self, dag: &JobDag, s: StageId, d: f64, colocated: &[bool]) -> f64 {
        let mut t = self.stages[s.index()].external_read.eval(d);
        for e in dag.in_edges(s) {
            let io = &self.edges[e.id.index()];
            if !colocated[e.id.index()] && !io.pipelined {
                t += io.read.eval(d);
            }
        }
        t * self.scaling[s.index()]
    }

    /// Total write time `W(s, d, P)`: external write + non-co-located
    /// downstream-edge writes.
    #[cfg(test)]
    pub(crate) fn write_time(&self, dag: &JobDag, s: StageId, d: f64, colocated: &[bool]) -> f64 {
        let mut t = self.stages[s.index()].external_write.eval(d);
        for e in dag.out_edges(s) {
            if !colocated[e.id.index()] {
                t += self.edges[e.id.index()].write.eval(d);
            }
        }
        t * self.scaling[s.index()]
    }

    /// Stage cost `M(s, d) × T(s, d, P)` in GB·s.
    pub fn stage_cost(&self, dag: &JobDag, s: StageId, d: f64, colocated: &[bool]) -> f64 {
        self.resources[s.index()].cost(d, self.exec_time(dag, s, d, colocated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::generators;

    fn model() -> (JobDag, JobTimeModel) {
        let dag = generators::fig1_join();
        let m = JobTimeModel::from_rates(&dag, &RateConfig::default());
        (dag, m)
    }

    #[test]
    fn exec_time_decreases_with_dop() {
        let (dag, m) = model();
        let none = m.no_colocation();
        let s = StageId(0);
        let t1 = m.exec_time(&dag, s, 1.0, &none);
        let t8 = m.exec_time(&dag, s, 8.0, &none);
        let t64 = m.exec_time(&dag, s, 64.0, &none);
        assert!(t1 > t8 && t8 > t64);
        // But floors at β.
        let beta = m.stage_beta(&dag, s, &none);
        assert!(m.exec_time(&dag, s, 1e9, &none) - beta < 1e-6);
    }

    #[test]
    fn colocation_zeroes_edge_io() {
        let (dag, m) = model();
        let none = m.no_colocation();
        let mut colo = none.clone();
        colo[0] = true; // map1 -> join colocated
        let s_map = StageId(0);
        let s_join = StageId(2);
        assert!(m.stage_alpha(&dag, s_map, &colo) < m.stage_alpha(&dag, s_map, &none));
        assert!(m.stage_alpha(&dag, s_join, &colo) < m.stage_alpha(&dag, s_join, &none));
    }

    #[test]
    fn alpha_scales_with_input_size() {
        let (dag, m) = model();
        let none = m.no_colocation();
        // map1 scans 4x the bytes of map2 → larger alpha.
        let a1 = m.stage_alpha(&dag, StageId(0), &none);
        let a2 = m.stage_alpha(&dag, StageId(1), &none);
        assert!(a1 > 2.0 * a2, "a1={a1} a2={a2}");
    }

    #[test]
    fn exec_time_is_sum_of_steps() {
        let (dag, m) = model();
        let none = m.no_colocation();
        for s in dag.stages() {
            for d in [1.0, 3.0, 17.0] {
                let total = m.exec_time(&dag, s.id, d, &none);
                let parts = m.read_time(&dag, s.id, d, &none)
                    + m.compute_time(s.id, d)
                    + m.write_time(&dag, s.id, d, &none);
                assert!(
                    (total - parts).abs() < 1e-9,
                    "stage {} d={d}: {total} vs {parts}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn pipelined_read_leaves_downstream_time() {
        let (dag, mut m) = model();
        let none = m.no_colocation();
        let join = StageId(2);
        let before = m.exec_time(&dag, join, 4.0, &none);
        m.set_pipelined(EdgeId(0), true);
        let after = m.exec_time(&dag, join, 4.0, &none);
        assert!(after < before);
    }

    #[test]
    fn straggler_scaling_inflates_time() {
        let (dag, mut m) = model();
        let none = m.no_colocation();
        let s = StageId(0);
        let base = m.exec_time(&dag, s, 8.0, &none);
        let base_scale = m.scaling(s);
        m.set_scaling(s, base_scale * 2.0);
        assert!((m.exec_time(&dag, s, 8.0, &none) - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn cost_uses_resource_model() {
        let (dag, mut m) = model();
        let none = m.no_colocation();
        let s = StageId(0);
        *m.resource_mut(s) = ResourceModel::new(2.0, 0.0);
        let t = m.exec_time(&dag, s, 4.0, &none);
        assert!((m.stage_cost(&dag, s, 4.0, &none) - 2.0 * t).abs() < 1e-9);
    }

    #[test]
    fn final_stage_has_external_write() {
        let (_dag, m) = model();
        assert!(!m.stage_steps(StageId(2)).external_write.is_zero());
        assert!(m.stage_steps(StageId(0)).external_write.is_zero());
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_scale_below_one() {
        let (_, mut m) = model();
        m.set_scaling(StageId(0), 0.5);
    }
}
