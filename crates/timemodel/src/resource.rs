//! Linear resource-usage model `M(s, d) = ρ + σ·d` (paper Eq. 5) and cost.

/// Resource usage of a stage as a function of its degree of parallelism:
/// `M(s, d) = ρ + σ·d` (paper Eq. 5).
///
/// * `ρ` (rho): resource usage tied to the data the stage processes,
///   independent of how many functions process it (e.g. total GB of memory
///   the working set occupies).
/// * `σ` (sigma): per-function launch/runtime overhead (GB per function).
///
/// The cost of a stage is `M(s, d) × T(s, d, P)` in GB·seconds, matching
/// the paper's billing definition (Σ memory·time per task).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceModel {
    /// Data-processing resource usage (GB), independent of DoP.
    pub rho: f64,
    /// Per-function overhead (GB per function).
    pub sigma: f64,
}

impl ResourceModel {
    /// Construct; both parameters must be non-negative.
    pub fn new(rho: f64, sigma: f64) -> Self {
        assert!(rho >= 0.0 && sigma >= 0.0, "resource parameters must be non-negative");
        ResourceModel { rho, sigma }
    }

    /// `M(s, d)`: resource usage (GB) at DoP `d`.
    pub fn usage(&self, d: f64) -> f64 {
        assert!(d > 0.0);
        self.rho + self.sigma * d
    }

    /// Stage cost in GB·s: `M(s, d) × t` where `t` is the stage time.
    pub(crate) fn cost(&self, d: f64, exec_time: f64) -> f64 {
        self.usage(d) * exec_time
    }
}

impl Default for ResourceModel {
    /// One GB of working set and negligible per-function overhead — the
    /// regime the paper's cost analysis assumes (`σ·d` ignorable, §4.2).
    fn default() -> Self {
        ResourceModel { rho: 1.0, sigma: 0.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_linear_in_d() {
        let m = ResourceModel::new(10.0, 0.5);
        assert!((m.usage(1.0) - 10.5).abs() < 1e-12);
        assert!((m.usage(20.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn cost_is_usage_times_time() {
        let m = ResourceModel::new(4.0, 0.0);
        assert!((m.cost(8.0, 2.5) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_unit_rho() {
        let m = ResourceModel::default();
        assert_eq!(m.rho, 1.0);
        assert_eq!(m.sigma, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        ResourceModel::new(-1.0, 0.0);
    }
}
