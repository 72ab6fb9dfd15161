//! Function-slot availability distributions (paper §6.1).
//!
//! The evaluation restricts the number of available slots per server to
//! model realistic runtime conditions:
//!
//! * **slot usage** — every server exposes the same fraction of its
//!   capacity (100 %, 75 %, 50 %, 25 %);
//! * **Norm-1.0 / Norm-0.8** — per-server ratios are eight symmetric
//!   samples (fixed step) of the standard normal pdf `N(0,1)` or `N(0,0.8)`,
//!   normalized so the largest ratio is 1;
//! * **Zipf-0.9 / Zipf-0.99** — ratios follow a Zipf pmf with the given
//!   exponent, normalized so the first (largest) ratio is 1.

/// How available function slots are distributed across servers.
///
/// ```
/// use ditto_cluster::{Cluster, SlotDistribution};
/// // The paper's default: 8 x 96-slot servers under Zipf-0.9 skew.
/// let cluster = Cluster::paper_testbed(&SlotDistribution::zipf_09());
/// let free = cluster.free_slots();
/// assert_eq!(free[0], 96);            // head server fully available
/// assert!(free[7] < free[0] / 3);     // tail heavily restricted
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotDistribution {
    /// Every server exposes `usage` of its capacity (0 < usage ≤ 1).
    Uniform {
        /// Fraction of capacity available on each server.
        usage: f64,
    },
    /// Ratios from symmetric samples of a centred normal pdf with the given
    /// standard deviation, normalized to max 1.
    Normal {
        /// Standard deviation (1.0 and 0.8 in the paper).
        sigma: f64,
    },
    /// Ratios from a Zipf pmf with the given exponent, normalized to max 1.
    Zipf {
        /// Zipf exponent θ (0.9 and 0.99 in the paper).
        theta: f64,
    },
}

impl SlotDistribution {
    /// The paper's default setting for the headline experiments.
    pub fn zipf_09() -> Self {
        SlotDistribution::Zipf { theta: 0.9 }
    }

    /// Per-server availability ratios in `(0, 1]`, one per server.
    /// Deterministic — the paper samples pdf values at fixed points rather
    /// than drawing randomly, so reruns see identical clusters.
    pub(crate) fn ratios(&self, n_servers: usize) -> Vec<f64> {
        assert!(n_servers > 0);
        match *self {
            SlotDistribution::Uniform { usage } => {
                assert!(usage > 0.0 && usage <= 1.0, "usage must be in (0, 1]");
                vec![usage; n_servers]
            }
            SlotDistribution::Normal { sigma } => {
                assert!(sigma > 0.0);
                // Symmetric sample points with a fixed step covering ±1.75σ̂
                // of N(0,1) (8 points for the paper's 8 servers); ratios are
                // pdf values normalized by the maximum sampled pdf.
                let step = 3.5 / n_servers as f64;
                let pdf = |x: f64| (-x * x / (2.0 * sigma * sigma)).exp();
                let points: Vec<f64> = (0..n_servers)
                    .map(|k| -1.75 + step * (k as f64 + 0.5))
                    .collect();
                let vals: Vec<f64> = points.iter().map(|&x| pdf(x)).collect();
                let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                vals.into_iter().map(|v| v / max).collect()
            }
            SlotDistribution::Zipf { theta } => {
                assert!(theta > 0.0);
                // p_k ∝ 1/k^θ, normalized so the first server gets ratio 1.
                (1..=n_servers)
                    .map(|k| 1.0 / (k as f64).powf(theta))
                    .collect()
            }
        }
    }

    /// Available slots per server given each server's hardware capacity.
    /// Ratios are applied per server and rounded half-up, with at least one
    /// slot so no server is completely unusable.
    pub(crate) fn apply(&self, capacities: &[u32]) -> Vec<u32> {
        let ratios = self.ratios(capacities.len());
        capacities
            .iter()
            .zip(ratios)
            .map(|(&cap, r)| (((cap as f64) * r).round() as u32).clamp(1, cap))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_ratios() {
        let d = SlotDistribution::Uniform { usage: 0.5 };
        assert_eq!(d.ratios(4), vec![0.5; 4]);
        assert_eq!(d.apply(&[96; 4]), vec![48; 4]);
    }

    #[test]
    fn normal_is_symmetric_and_peaked() {
        let d = SlotDistribution::Normal { sigma: 1.0 };
        let r = d.ratios(8);
        assert_eq!(r.len(), 8);
        // Symmetric around the middle.
        for k in 0..4 {
            assert!((r[k] - r[7 - k]).abs() < 1e-12, "{r:?}");
        }
        // Peak in the middle, max 1.
        let max = r.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(r[0] < r[3]);
    }

    #[test]
    fn narrower_normal_is_more_skewed() {
        let wide = SlotDistribution::Normal { sigma: 1.0 }.ratios(8);
        let narrow = SlotDistribution::Normal { sigma: 0.8 }.ratios(8);
        // Edge servers get relatively fewer slots under the narrower pdf.
        assert!(narrow[0] < wide[0]);
    }

    #[test]
    fn zipf_monotone_decreasing() {
        let r = SlotDistribution::Zipf { theta: 0.9 }.ratios(8);
        assert!((r[0] - 1.0).abs() < 1e-12);
        for k in 1..8 {
            assert!(r[k] < r[k - 1]);
        }
        // Higher exponent decays faster.
        let r99 = SlotDistribution::Zipf { theta: 0.99 }.ratios(8);
        assert!(r99[7] < r[7]);
    }

    #[test]
    fn apply_keeps_at_least_one_slot() {
        let d = SlotDistribution::Zipf { theta: 3.0 };
        let slots = d.apply(&[96; 16]);
        assert!(slots.iter().all(|&s| s >= 1));
        assert_eq!(slots[0], 96);
    }

    #[test]
    #[should_panic(expected = "(0, 1]")]
    fn rejects_bad_usage() {
        SlotDistribution::Uniform { usage: 1.5 }.ratios(2);
    }
}
