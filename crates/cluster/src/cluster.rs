//! Cluster: a set of function servers.

use crate::distribution::SlotDistribution;

/// A cluster of function servers. Mirrors the paper's testbed surface:
/// the scheduler only consumes per-server free-slot counts, so those are
/// all a cluster holds.
#[derive(Debug, Clone)]
pub struct Cluster {
    free: Vec<u32>,
}

impl Cluster {
    /// The paper's exact testbed: 8 servers × 96 function slots, free
    /// slots per [`SlotDistribution`].
    pub fn paper_testbed(dist: &SlotDistribution) -> Self {
        Cluster {
            free: dist.apply(&[96; 8]),
        }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.free.len()
    }

    /// Current free-slot vector (snapshot for the placement check).
    pub fn free_slots(&self) -> Vec<u32> {
        self.free.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_full() {
        let c = Cluster::paper_testbed(&SlotDistribution::Uniform { usage: 1.0 });
        assert_eq!(c.num_servers(), 8);
        assert_eq!(c.free_slots(), vec![96; 8]);
    }

    #[test]
    fn zipf_testbed_is_skewed() {
        let c = Cluster::paper_testbed(&SlotDistribution::zipf_09());
        let free = c.free_slots();
        assert_eq!(free[0], 96);
        assert!(free[7] < 30, "tail server should be heavily restricted: {free:?}");
        assert!(free.iter().sum::<u32>() < 8 * 96);
    }
}
