//! Transactional slot allocation over a free-slot snapshot.
//!
//! The scheduler's placement check (paper §4.4) repeatedly *tries* to place
//! stage groups and backtracks when a grouping turns out infeasible. The
//! [`ResourceManager`] supports that: it works on a cheap `Vec<u32>`
//! snapshot that can be cloned, mutated speculatively and thrown away.

use crate::cluster::Cluster;
use crate::server::ServerId;

/// A free-slot snapshot with reserve/release and best-fit queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceManager {
    free: Vec<u32>,
}

impl ResourceManager {
    /// Snapshot the current availability of a cluster.
    pub fn snapshot(cluster: &Cluster) -> Self {
        ResourceManager {
            free: cluster.free_slots(),
        }
    }

    /// Build from an explicit free-slot vector.
    pub fn from_free_slots(free: Vec<u32>) -> Self {
        assert!(!free.is_empty(), "cluster must have at least one server");
        ResourceManager { free }
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.free.len()
    }

    /// Overwrite this snapshot with another's free slots, reusing the
    /// existing allocation. Lets speculative placement checks reset a
    /// scratch manager without cloning per attempt.
    pub fn copy_free_from(&mut self, other: &Self) {
        self.free.clone_from(&other.free);
    }

    /// Free slots on one server.
    pub fn free_on(&self, s: ServerId) -> u32 {
        self.free[s.index()]
    }

    /// Total free slots (the paper's `C`).
    pub fn total_free(&self) -> u32 {
        self.free.iter().sum()
    }

    /// Largest single-server free count.
    pub fn max_free(&self) -> u32 {
        self.free.iter().copied().max().unwrap_or(0)
    }

    /// Reserve `n` slots on a specific server; `false` if insufficient.
    #[must_use]
    pub fn reserve(&mut self, s: ServerId, n: u32) -> bool {
        let f = &mut self.free[s.index()];
        if *f < n {
            return false;
        }
        *f -= n;
        true
    }

    /// Remove a failed server from the snapshot: its free slots drop to
    /// zero while indices stay stable (so `ServerId`s keep their meaning).
    /// Returns the slots lost. Used by failure-aware rescheduling to
    /// replan the remaining work on the surviving cluster.
    pub fn fail_server(&mut self, idx: usize) -> u32 {
        let lost = self.free[idx];
        self.free[idx] = 0;
        lost
    }

    /// Best-fit server for `n` slots: the server whose free count is the
    /// *smallest* that still fits `n` (nearest slot number, §4.4). Ties go
    /// to the lower server id. `None` if no server fits.
    pub fn best_fit(&self, n: u32) -> Option<ServerId> {
        self.free
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f >= n)
            .min_by_key(|&(i, &f)| (f, i))
            .map(|(i, _)| ServerId(i as u32))
    }

    /// Spread `n` single-slot tasks across servers, preferring emptier
    /// servers last (fills the fullest-but-fitting first is unnecessary for
    /// singles; any server works). Returns per-server counts, or `None` if
    /// fewer than `n` slots remain in total. Used for ungrouped stages whose
    /// tasks have no co-location requirement.
    pub fn reserve_spread(&mut self, n: u32) -> Option<Vec<(ServerId, u32)>> {
        if self.total_free() < n {
            return None;
        }
        let mut left = n;
        let mut out = Vec::new();
        // Deterministic: walk servers in id order.
        for i in 0..self.free.len() {
            if left == 0 {
                break;
            }
            let take = self.free[i].min(left);
            if take > 0 {
                self.free[i] -= take;
                out.push((ServerId(i as u32), take));
                left -= take;
            }
        }
        debug_assert_eq!(left, 0);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(free: &[u32]) -> ResourceManager {
        ResourceManager::from_free_slots(free.to_vec())
    }

    #[test]
    fn best_fit_picks_tightest() {
        let m = rm(&[10, 4, 7]);
        assert_eq!(m.best_fit(4), Some(ServerId(1)));
        assert_eq!(m.best_fit(5), Some(ServerId(2)));
        assert_eq!(m.best_fit(8), Some(ServerId(0)));
        assert_eq!(m.best_fit(11), None);
    }

    #[test]
    fn best_fit_tie_breaks_by_id() {
        let m = rm(&[6, 6]);
        assert_eq!(m.best_fit(3), Some(ServerId(0)));
    }

    #[test]
    fn reserve_insufficient_fails_cleanly() {
        let mut m = rm(&[3]);
        assert!(!m.reserve(ServerId(0), 4));
        assert_eq!(m.free_on(ServerId(0)), 3);
    }

    #[test]
    fn spread_across_servers() {
        let mut m = rm(&[3, 2, 5]);
        let placement = m.reserve_spread(7).unwrap();
        let total: u32 = placement.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 7);
        assert_eq!(m.total_free(), 3);
    }

    #[test]
    fn spread_fails_when_short() {
        let mut m = rm(&[1, 1]);
        assert!(m.reserve_spread(3).is_none());
        assert_eq!(m.total_free(), 2, "failed spread must not mutate");
    }

    #[test]
    fn fail_server_zeroes_but_keeps_indices() {
        let mut m = rm(&[4, 6, 2]);
        assert_eq!(m.fail_server(1), 6);
        assert_eq!(m.num_servers(), 3, "indices stay stable");
        assert_eq!(m.free_on(ServerId(1)), 0);
        assert_eq!(m.total_free(), 6);
        assert_eq!(m.best_fit(3), Some(ServerId(0)), "failed server never fits");
        assert_eq!(m.fail_server(1), 0, "idempotent");
    }

    #[test]
    fn snapshot_matches_cluster() {
        let c = crate::Cluster::paper_testbed(&crate::SlotDistribution::Uniform { usage: 1.0 });
        let m = ResourceManager::snapshot(&c);
        assert_eq!(m.total_free(), 8 * 96);
        assert_eq!(m.num_servers(), 8);
    }
}
