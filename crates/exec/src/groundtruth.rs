//! Ground-truth task performance: what "actually" happens when a task runs.
//!
//! The scheduler sees a fitted `α/d + β` model; the simulator runs tasks
//! against this ground truth instead, which adds what regression smooths
//! over:
//!
//! * **per-task data skew** — tasks of a stage do not process equal shares
//!   (the paper's straggler scaling factor exists because of this);
//! * **deterministic noise** — per-(stage, task) multiplicative jitter,
//!   reproducible under a seed;
//! * **explicit media** — transfer times come from the
//!   `ditto-storage` transfer models per medium, including the all-gather
//!   amplification (every consumer task reads the *full* upstream output).

use ditto_core::Schedule;
use ditto_dag::{EdgeKind, JobDag, StageId};
use ditto_storage::{Medium, TransferModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth execution configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// External storage backing non-co-located shuffles.
    pub external: Medium,
    /// Per-task compute throughput over processed bytes, bytes/s.
    pub compute_bw: f64,
    /// Fixed per-task setup time (container/runtime startup), seconds —
    /// the "setup" band in the paper's Fig. 14.
    pub task_overhead: f64,
    /// Data-skew intensity: task shares are `1 + skew·U(0,1)`, normalized.
    /// 0 = perfectly even.
    pub skew: f64,
    /// Probability a task is a straggler.
    pub straggler_prob: f64,
    /// Straggler slowdown multiplier (> 1).
    pub straggler_slowdown: f64,
    /// Amplitude of mild per-task jitter applied to non-stragglers
    /// (multiplier drawn from `1 ± jitter`). 0 = fully deterministic
    /// times.
    pub jitter: f64,
    /// Noise and skew seed.
    pub seed: u64,
    /// Memory GB per processed byte (resource model ρ basis).
    pub mem_gb_per_byte: f64,
    /// Per-function memory overhead, GB.
    pub mem_gb_per_function: f64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            external: Medium::S3,
            compute_bw: 150e6,
            task_overhead: 0.6,
            skew: 0.35,
            straggler_prob: 0.04,
            straggler_slowdown: 1.8,
            jitter: 0.08,
            seed: 7,
            mem_gb_per_byte: 2.0e-9,
            mem_gb_per_function: 0.125,
        }
    }
}

/// Per-task step durations, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSteps {
    /// Setup (startup) time.
    pub(crate) setup: f64,
    /// Read step (external input + upstream edges).
    pub read: f64,
    /// Compute step.
    pub compute: f64,
    /// Write step (downstream edges + external output).
    pub write: f64,
    /// Bytes this task processed.
    pub(crate) bytes_processed: u64,
}

impl TaskSteps {
    /// Total task duration.
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.setup + self.read + self.compute + self.write
    }
}

/// Per-task step times at component granularity (one entry per data
/// dependency), used by the profiler.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskComponents {
    /// Setup (startup) time.
    pub(crate) setup: f64,
    /// External input scan time.
    pub(crate) external_read: f64,
    /// Per-upstream-edge read times.
    pub(crate) edge_reads: Vec<(ditto_dag::EdgeId, f64)>,
    /// Compute time.
    pub(crate) compute: f64,
    /// Per-downstream-edge write times.
    pub(crate) edge_writes: Vec<(ditto_dag::EdgeId, f64)>,
    /// External output write time.
    pub(crate) external_write: f64,
    /// Bytes this task processed.
    pub(crate) bytes_processed: u64,
}

impl TaskComponents {
    /// Collapse the components into coarse read/compute/write steps.
    pub(crate) fn sum(&self) -> TaskSteps {
        TaskSteps {
            setup: self.setup,
            read: self.external_read + self.edge_reads.iter().map(|&(_, t)| t).sum::<f64>(),
            compute: self.compute,
            write: self.external_write + self.edge_writes.iter().map(|&(_, t)| t).sum::<f64>(),
            bytes_processed: self.bytes_processed,
        }
    }
}

/// The ground-truth model bound to one DAG.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    cfg: ExecConfig,
}

impl GroundTruth {
    /// Create a ground truth with the given configuration.
    pub fn new(cfg: ExecConfig) -> Self {
        GroundTruth { cfg }
    }

    /// The configuration.
    #[cfg(test)]
    pub(crate) fn config(&self) -> &ExecConfig {
        &self.cfg
    }

    /// Per-task data shares of a stage at DoP `d`: positive, summing to 1,
    /// deterministic per (stage, dop, seed).
    pub(crate) fn task_shares(&self, stage: StageId, d: u32) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((stage.0 as u64) << 32)
                .wrapping_add(d as u64),
        );
        let weights: Vec<f64> = (0..d).map(|_| 1.0 + self.cfg.skew * rng.gen::<f64>()).collect();
        let total: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / total).collect()
    }

    /// Deterministic straggler multiplier for a task.
    fn straggle(&self, stage: StageId, task: u32) -> f64 {
        let mut rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0xd1b54a32d192ed03)
                .wrapping_add((stage.0 as u64) << 24)
                .wrapping_add(task as u64),
        );
        if rng.gen_bool(self.cfg.straggler_prob) {
            self.cfg.straggler_slowdown
        } else {
            // mild jitter ±cfg.jitter
            1.0 - self.cfg.jitter + 2.0 * self.cfg.jitter * rng.gen::<f64>()
        }
    }

    /// The medium an edge's data travels through under the schedule.
    pub(crate) fn edge_medium(&self, schedule: &Schedule, edge_idx: usize) -> Medium {
        if schedule.colocated[edge_idx] {
            Medium::SharedMemory
        } else {
            self.cfg.external
        }
    }

    /// Fine-grained per-component step times for every task of `stage`:
    /// one entry per external read, upstream edge read, compute, downstream
    /// edge write and external write — what the profiler samples to fit the
    /// paper's fine-grained step model (§4.1).
    pub(crate) fn task_components(
        &self,
        dag: &JobDag,
        schedule: &Schedule,
        stage: StageId,
    ) -> Vec<TaskComponents> {
        let d = schedule.dop[stage.index()];
        let shares = self.task_shares(stage, d);
        let s = dag.stage(stage);
        let ext = TransferModel::for_medium(self.cfg.external);

        (0..d)
            .map(|t| {
                let share = shares[t as usize];
                let noise = self.straggle(stage, t);
                let mut processed = 0u64;

                let external_read = if s.input_bytes > 0 {
                    let my = (s.input_bytes as f64 * share) as u64;
                    processed += my;
                    ext.transfer_time(my) * noise
                } else {
                    0.0
                };

                let mut edge_reads = Vec::new();
                for e in dag.in_edges(stage) {
                    let medium = self.edge_medium(schedule, e.id.index());
                    let tm = TransferModel::for_medium(medium);
                    let my = match e.kind {
                        // Every consumer task reads the full upstream output.
                        EdgeKind::AllGather => e.bytes,
                        // Partitioned: this task's share.
                        EdgeKind::Shuffle | EdgeKind::Gather => (e.bytes as f64 * share) as u64,
                    };
                    processed += my;
                    edge_reads.push((e.id, tm.transfer_time(my) * noise));
                }

                let compute = processed as f64 / self.cfg.compute_bw * noise;

                let mut edge_writes = Vec::new();
                for e in dag.out_edges(stage) {
                    let medium = self.edge_medium(schedule, e.id.index());
                    let tm = TransferModel::for_medium(medium);
                    let my = (e.bytes as f64 * share) as u64;
                    edge_writes.push((e.id, tm.transfer_time(my) * noise));
                }
                let external_write = if dag.out_degree(stage) == 0 && s.output_bytes > 0 {
                    let my = (s.output_bytes as f64 * share) as u64;
                    ext.transfer_time(my) * noise
                } else {
                    0.0
                };

                TaskComponents {
                    setup: self.cfg.task_overhead,
                    external_read,
                    edge_reads,
                    compute,
                    edge_writes,
                    external_write,
                    bytes_processed: processed,
                }
            })
            .collect()
    }

    /// Ground-truth step times for every task of `stage` under `schedule`
    /// (components summed into read/compute/write).
    pub fn stage_tasks(&self, dag: &JobDag, schedule: &Schedule, stage: StageId) -> Vec<TaskSteps> {
        self.task_components(dag, schedule, stage)
            .into_iter()
            .map(|c| c.sum())
            .collect()
    }

    /// Memory footprint of one task of `stage` at DoP `d`, GB (the paper's
    /// maximum theoretical footprint: the task's data share plus runtime
    /// overhead).
    pub(crate) fn task_memory_gb(&self, dag: &JobDag, stage: StageId, d: u32) -> f64 {
        let s = dag.stage(stage);
        let in_bytes: u64 = dag
            .in_edges(stage)
            .map(|e| match e.kind {
                EdgeKind::AllGather => e.bytes * d as u64, // replicated per task
                _ => e.bytes,
            })
            .sum();
        let total = s.input_bytes + in_bytes;
        (total as f64 / d as f64) * self.cfg.mem_gb_per_byte + self.cfg.mem_gb_per_function
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_core::baselines::EvenSplitScheduler;
    use ditto_core::{Objective, Scheduler, SchedulingContext};
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn schedule_for(dag: &JobDag, free: &[u32]) -> Schedule {
        let model = JobTimeModel::from_rates(dag, &RateConfig::default());
        let rm = ditto_cluster::ResourceManager::from_free_slots(free.to_vec());
        EvenSplitScheduler.schedule(&SchedulingContext {
            dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        })
    }

    #[test]
    fn shares_sum_to_one_and_are_deterministic() {
        let gt = GroundTruth::new(ExecConfig::default());
        let shares = gt.task_shares(StageId(0), 10);
        assert_eq!(shares.len(), 10);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(shares.iter().all(|&s| s > 0.0));
        assert_eq!(shares, gt.task_shares(StageId(0), 10));
        assert_ne!(shares, gt.task_shares(StageId(1), 10));
    }

    #[test]
    fn zero_skew_means_even_shares() {
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.0,
            ..Default::default()
        });
        let shares = gt.task_shares(StageId(0), 8);
        for s in shares {
            assert!((s - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_dop_shrinks_task_time() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            ..Default::default()
        });
        let mut s_lo = schedule_for(&dag, &[30, 30]);
        let mut s_hi = s_lo.clone();
        s_lo.dop = vec![4, 4, 4];
        s_hi.dop = vec![32, 32, 32];
        let t_lo = gt.stage_tasks(&dag, &s_lo, StageId(0))[0].total();
        let t_hi = gt.stage_tasks(&dag, &s_hi, StageId(0))[0].total();
        assert!(t_hi < t_lo);
    }

    #[test]
    fn colocated_edges_are_near_free() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            ..Default::default()
        });
        let mut sched = schedule_for(&dag, &[60, 60]);
        sched.dop = vec![8, 8, 8];
        let remote = gt.stage_tasks(&dag, &sched, StageId(2))[0].read;
        sched.colocated = vec![true, true];
        sched.group_of = vec![0, 0, 0];
        sched.groups = vec![vec![StageId(0), StageId(1), StageId(2)]];
        let local = gt.stage_tasks(&dag, &sched, StageId(2))[0].read;
        assert!(local < remote / 100.0, "local={local} remote={remote}");
    }

    #[test]
    fn all_gather_reads_full_volume() {
        let dag = ditto_dag::generators::q95_shape();
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            ..Default::default()
        });
        // join1 (stage id 5) has an all-gather in-edge from map3.
        let mut sched = schedule_for(&dag, &[200, 200]);
        for d in sched.dop.iter_mut() {
            *d = 10;
        }
        let tasks = gt.stage_tasks(&dag, &sched, StageId(5));
        // Every task processes at least the full all-gather volume.
        let ag_bytes = dag
            .in_edges(StageId(5))
            .find(|e| e.kind == EdgeKind::AllGather)
            .unwrap()
            .bytes;
        for t in tasks {
            assert!(t.bytes_processed >= ag_bytes);
        }
    }

    #[test]
    fn stragglers_inflate_some_tasks() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.0,
            straggler_prob: 0.5,
            straggler_slowdown: 10.0,
            ..Default::default()
        });
        let mut sched = schedule_for(&dag, &[100, 100]);
        sched.dop = vec![40, 4, 4];
        let tasks = gt.stage_tasks(&dag, &sched, StageId(0));
        let min = tasks.iter().map(|t| t.compute).fold(f64::MAX, f64::min);
        let max = tasks.iter().map(|t| t.compute).fold(f64::MIN, f64::max);
        assert!(max > 5.0 * min, "straggler spread missing: {min}..{max}");
    }

    #[test]
    fn memory_shrinks_with_dop() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = GroundTruth::new(ExecConfig::default());
        let m1 = gt.task_memory_gb(&dag, StageId(0), 1);
        let m8 = gt.task_memory_gb(&dag, StageId(0), 8);
        assert!(m8 < m1);
        assert!(m8 >= gt.config().mem_gb_per_function);
    }
}
