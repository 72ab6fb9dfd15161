//! Job-level metrics: JCT and cost.

use crate::faults::FaultStats;

/// Metrics of one job execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobMetrics {
    /// Job completion time, seconds (submission → last task end).
    pub jct: f64,
    /// Compute cost: Σ memory×time over tasks, GB·s — including work
    /// billed for attempts that crashed or were superseded.
    pub compute_cost: f64,
    /// Storage persistence cost (shared memory + Redis; S3 free), GB·s
    /// priced.
    pub(crate) storage_cost: f64,
    /// Fault and recovery accounting (all zeros for fault-free runs).
    pub faults: FaultStats,
}

impl JobMetrics {
    /// Total cost (compute + storage persistence) — the paper's cost
    /// metric.
    pub fn total_cost(&self) -> f64 {
        self.compute_cost + self.storage_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cost_sums_compute_and_storage() {
        let a = JobMetrics {
            jct: 10.0,
            compute_cost: 100.0,
            storage_cost: 20.0,
            faults: FaultStats::default(),
        };
        let b = JobMetrics {
            jct: 25.0,
            compute_cost: 180.0,
            storage_cost: 0.0,
            faults: FaultStats::default(),
        };
        assert_eq!(a.total_cost(), 120.0);
        assert_eq!(b.total_cost(), 180.0);
    }
}
