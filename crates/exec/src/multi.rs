//! Multi-job scheduling (the paper's stated future work, §4.5).
//!
//! Ditto optimizes one job assuming all free slots at arrival stay
//! available for its lifetime; the paper leaves inter-job resource
//! allocation to future work. This module provides a minimal version of
//! that study: a FIFO job queue simulated under two allocation policies —
//!
//! * [`AllocationPolicy::WholeCluster`] — each job takes every free slot
//!   (the paper's single-job assumption); jobs run one at a time;
//! * [`AllocationPolicy::StaticPartitions`] — the cluster is split into
//!   `k` equal partitions, jobs round-robin across them and run
//!   concurrently, each scheduled by Ditto within its partition.
//!
//! Whole-cluster runs each job fastest but serializes the queue; static
//! partitions trade per-job JCT for queueing delay — exactly the tension
//! the co-design the paper defers would resolve.

use crate::groundtruth::GroundTruth;
use crate::metrics::JobMetrics;
use crate::sim::simulate;
use ditto_cluster::ResourceManager;
use ditto_core::{Objective, Scheduler, SchedulingContext};
use ditto_dag::JobDag;
use ditto_timemodel::JobTimeModel;

/// One job waiting to run.
pub struct QueuedJob {
    /// Display name.
    pub name: String,
    /// The job's DAG (volumes stamped).
    pub dag: JobDag,
    /// Its fitted execution-time model.
    pub model: JobTimeModel,
    /// Submission time, seconds.
    pub arrival: f64,
}

/// How cluster slots are divided among concurrent jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Every job gets the whole cluster; jobs run serially (FIFO).
    WholeCluster,
    /// `k` equal static partitions, jobs round-robin across them.
    StaticPartitions(u32),
}

/// Outcome for one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Submission time.
    pub arrival: f64,
    /// When its tasks started (≥ arrival; queueing before that).
    pub start: f64,
    /// When it finished.
    pub finish: f64,
    /// Execution metrics (JCT excludes queueing).
    pub metrics: JobMetrics,
}

impl JobOutcome {
    /// Completion time as the user sees it: queueing + execution.
    pub fn response_time(&self) -> f64 {
        self.finish - self.arrival
    }
}

/// Simulate a FIFO queue of jobs on `free_slots` under the policy.
/// `jobs` must be sorted by arrival time.
pub fn simulate_queue(
    free_slots: &[u32],
    jobs: &[QueuedJob],
    scheduler: &dyn Scheduler,
    objective: Objective,
    policy: AllocationPolicy,
    gt: &GroundTruth,
) -> Vec<JobOutcome> {
    assert!(
        jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "jobs must be sorted by arrival"
    );
    let partitions: Vec<Vec<u32>> = match policy {
        AllocationPolicy::WholeCluster => vec![free_slots.to_vec()],
        AllocationPolicy::StaticPartitions(k) => {
            let k = k.max(1);
            // Split every server's slots k ways (each partition sees the
            // same server *shape*, scaled down).
            (0..k)
                .map(|i| {
                    free_slots
                        .iter()
                        .map(|&f| (f / k + u32::from(i < f % k)).max(1))
                        .collect()
                })
                .collect()
        }
    };
    // next free time per partition
    let mut free_at = vec![0.0_f64; partitions.len()];
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let p = fifo_pick(&free_at);
            let start = free_at[p].max(job.arrival);
            let rm = ResourceManager::from_free_slots(partitions[p].clone());
            let schedule = scheduler.schedule(&SchedulingContext {
                dag: &job.dag,
                model: &job.model,
                resources: &rm,
                objective,
            });
            let (_, metrics) = simulate(&job.dag, &schedule, gt);
            free_at[p] = start + metrics.jct;
            let _ = i;
            JobOutcome {
                name: job.name.clone(),
                arrival: job.arrival,
                start,
                finish: start + metrics.jct,
                metrics,
            }
        })
        .collect()
}

/// FIFO dispatch: the partition the next job runs on, by the explicit
/// ordering key **(next-free instant, partition index)** — earliest
/// availability wins, bit-equal availability goes to the lower index.
///
/// The index component is load-bearing, not a stylistic tiebreak:
/// [`Iterator::min_by`] keeps the *last* of equally-minimal elements, so
/// comparing availability alone would silently dispatch equal loads to
/// the highest partition. The key makes the minimum unique, which is
/// what keeps multi-job sweeps replayable across refactors (the race
/// checker's schedule-space exploration assumes dispatch is a pure
/// function of `free_at`).
#[expect(
    clippy::expect_used,
    reason = "partition count is max(1, ..) a few lines up"
)]
pub(crate) fn fifo_pick(free_at: &[f64]) -> usize {
    free_at
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(&b.0)))
        .map(|(p, _)| p)
        .expect("at least one partition exists")
}

/// Aggregate queue statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Mean response time (queueing + execution).
    pub mean_response: f64,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Total cost across jobs.
    pub total_cost: f64,
}

/// Summarize outcomes.
pub fn queue_stats(outcomes: &[JobOutcome]) -> QueueStats {
    let n = outcomes.len().max(1) as f64;
    QueueStats {
        mean_response: outcomes.iter().map(|o| o.response_time()).sum::<f64>() / n,
        makespan: outcomes.iter().map(|o| o.finish).fold(0.0, f64::max),
        total_cost: outcomes.iter().map(|o| o.metrics.total_cost()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::ExecConfig;
    use crate::profile::profile_job;
    use ditto_core::DittoScheduler;

    #[test]
    fn fifo_pick_breaks_ties_to_the_lower_index() {
        // All equal: lowest index, not min_by's last-minimum default.
        assert_eq!(fifo_pick(&[0.0, 0.0, 0.0]), 0);
        // Unique minimum wins regardless of position.
        assert_eq!(fifo_pick(&[5.0, 2.0, 3.0]), 1);
        // Bit-equal minima among a subset: the lower of the tied pair.
        assert_eq!(fifo_pick(&[7.0, 4.0, 4.0]), 1);
        // -0.0 and 0.0 are distinct under total_cmp: -0.0 sorts first.
        assert_eq!(fifo_pick(&[0.0, -0.0]), 1);
        assert_eq!(fifo_pick(&[1.0]), 0);
    }

    fn make_jobs(n: usize, gt: &GroundTruth) -> Vec<QueuedJob> {
        (0..n)
            .map(|i| {
                let dag = ditto_dag::generators::q95_shape();
                let profile = profile_job(&dag, gt, &[10, 20, 40, 80]);
                let (model, _) = profile.build_model(&dag);
                QueuedJob {
                    name: format!("job{i}"),
                    dag,
                    model,
                    arrival: i as f64 * 5.0,
                }
            })
            .collect()
    }

    #[test]
    fn whole_cluster_serializes() {
        let gt = GroundTruth::new(ExecConfig::default());
        let jobs = make_jobs(3, &gt);
        let out = simulate_queue(
            &[96; 8],
            &jobs,
            &DittoScheduler::new(),
            Objective::Jct,
            AllocationPolicy::WholeCluster,
            &gt,
        );
        assert_eq!(out.len(), 3);
        for w in out.windows(2) {
            assert!(w[1].start >= w[0].finish - 1e-9, "FIFO serialization");
        }
        // Later jobs queue: response > execution JCT.
        assert!(out[2].response_time() > out[2].metrics.jct);
    }

    #[test]
    fn partitions_run_concurrently() {
        let gt = GroundTruth::new(ExecConfig::default());
        let jobs = make_jobs(4, &gt);
        let whole = queue_stats(&simulate_queue(
            &[96; 8],
            &jobs,
            &DittoScheduler::new(),
            Objective::Jct,
            AllocationPolicy::WholeCluster,
            &gt,
        ));
        let split = queue_stats(&simulate_queue(
            &[96; 8],
            &jobs,
            &DittoScheduler::new(),
            Objective::Jct,
            AllocationPolicy::StaticPartitions(2),
            &gt,
        ));
        // Each partitioned job runs slower (fewer slots), but two run at
        // once; with enough queueing pressure the makespan improves or at
        // least per-job JCT inflates while concurrency compensates.
        let jct_whole = whole.makespan;
        assert!(split.makespan < jct_whole * 1.5, "partitions must overlap work");
        assert!(split.mean_response.is_finite());
    }

    #[test]
    fn stats_aggregate() {
        let o = vec![
            JobOutcome {
                name: "a".into(),
                arrival: 0.0,
                start: 0.0,
                finish: 10.0,
                metrics: JobMetrics {
                    jct: 10.0,
                    compute_cost: 5.0,
                    storage_cost: 1.0,
                    faults: Default::default(),
                },
            },
            JobOutcome {
                name: "b".into(),
                arrival: 2.0,
                start: 10.0,
                finish: 18.0,
                metrics: JobMetrics {
                    jct: 8.0,
                    compute_cost: 4.0,
                    storage_cost: 0.0,
                    faults: Default::default(),
                },
            },
        ];
        let s = queue_stats(&o);
        assert!((s.mean_response - (10.0 + 16.0) / 2.0).abs() < 1e-12);
        assert_eq!(s.makespan, 18.0);
        assert_eq!(s.total_cost, 10.0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_jobs_rejected() {
        let gt = GroundTruth::new(ExecConfig::default());
        let mut jobs = make_jobs(2, &gt);
        jobs[0].arrival = 100.0;
        simulate_queue(
            &[96; 2],
            &jobs,
            &DittoScheduler::new(),
            Objective::Jct,
            AllocationPolicy::WholeCluster,
            &gt,
        );
    }
}
