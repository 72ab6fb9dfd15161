//! Exactly-once object-commit ledger.
//!
//! Control-plane crash recovery (see `ditto-exec::journal`) replays the
//! durable prefix of a write-ahead journal and then re-executes whatever
//! work had not committed. Re-execution is *at-least-once*: a stage whose
//! object commits were durable but whose completion record was torn off
//! the journal tail runs again and re-delivers the same objects. The
//! [`CommitLedger`] turns that into *exactly-once commit* semantics: each
//! object commit is keyed by the integers `(stage, task, attempt_epoch)`
//! — the same triple an `ObjectCommit` journal record carries, so the hot
//! path builds no key — and holds the 64-bit value fingerprint of what
//! was committed. A re-delivered commit with the same fingerprint is a
//! [`CommitOutcome::Duplicate`] (counted, not re-journaled); the same key
//! with a *different* fingerprint is a [`CommitOutcome::Conflict`] —
//! determinism was violated and recovery must fail loudly rather than
//! silently pick a side.
//!
//! Both engines use it: the simulator fingerprints an object by the bit
//! pattern of its commit instant (the simulation is deterministic, so the
//! instant names the object's content), the physical runtime by the
//! [`checksum64`](crate::checksum64) of the encoded output table. A
//! ledger belongs to one journal session, so it takes `&mut self` and
//! needs no lock; it is an ordered map of per-stage sorted tables (DET01:
//! no hash iteration order).

use std::collections::BTreeMap;

/// What happened when a commit was offered to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// First time this `(object, epoch)` was seen; the commit is new and
    /// should be journaled.
    Committed,
    /// Same `(object, epoch)` and the same value fingerprint: a benign
    /// re-delivery from at-least-once re-execution. Not re-journaled.
    Duplicate,
    /// Same `(object, epoch)` but a *different* value fingerprint —
    /// re-execution produced different bytes than the journaled commit.
    Conflict {
        /// Fingerprint recorded by the original commit.
        expected: u64,
        /// Fingerprint of the conflicting re-delivery.
        actual: u64,
    },
}

/// Exactly-once commit ledger keyed by `(stage, task, attempt epoch)`.
#[derive(Debug, Default)]
pub struct CommitLedger {
    /// Per stage, its commits as `(task, epoch, value)` sorted by
    /// `(task, epoch)`. A stage's tasks commit in ascending order, so an
    /// insert is a short search that ends at the tail.
    stages: BTreeMap<u32, Vec<(u32, u32, u64)>>,
}

impl CommitLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a commit of object `(stage, task)` at `epoch` with value
    /// fingerprint `value`. See [`CommitOutcome`] for the three possible
    /// answers.
    pub fn commit(&mut self, stage: u32, task: u32, epoch: u32, value: u64) -> CommitOutcome {
        let commits = self.stages.entry(stage).or_default();
        match commits.binary_search_by_key(&(task, epoch), |&(t, e, _)| (t, e)) {
            Err(at) => {
                commits.insert(at, (task, epoch, value));
                CommitOutcome::Committed
            }
            Ok(at) if commits[at].2 == value => CommitOutcome::Duplicate,
            Ok(at) => CommitOutcome::Conflict {
                expected: commits[at].2,
                actual: value,
            },
        }
    }

    /// Highest committed attempt epoch of object `(stage, task)`, if any
    /// commit exists.
    #[cfg(test)]
    fn latest_epoch(&self, stage: u32, task: u32) -> Option<u32> {
        let commits = self.stages.get(&stage)?;
        let end = commits.partition_point(|&(t, _, _)| t <= task);
        let &(t, epoch, _) = commits[..end].last()?;
        (t == task).then_some(epoch)
    }

    /// Number of distinct committed `(stage, task, epoch)` entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.stages.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_commit_then_duplicate_then_conflict() {
        let mut ledger = CommitLedger::new();
        assert_eq!(ledger.commit(0, 0, 0, 42), CommitOutcome::Committed);
        assert_eq!(ledger.commit(0, 0, 0, 42), CommitOutcome::Duplicate);
        assert_eq!(
            ledger.commit(0, 0, 0, 43),
            CommitOutcome::Conflict {
                expected: 42,
                actual: 43
            }
        );
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn epochs_are_independent_commits() {
        let mut ledger = CommitLedger::new();
        assert_eq!(ledger.commit(1, 2, 0, 7), CommitOutcome::Committed);
        assert_eq!(ledger.commit(1, 2, 1, 9), CommitOutcome::Committed);
        assert_eq!(ledger.latest_epoch(1, 2), Some(1));
        assert_eq!(ledger.latest_epoch(9, 9), None);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn integer_keys_do_not_alias_across_stage_task_or_epoch() {
        // The old string key `s{stage}.t{task}` could not confuse (1, 23)
        // with (12, 3); neither may the integer triple, and `latest_epoch`
        // must not read a neighbouring object's epochs.
        let mut ledger = CommitLedger::new();
        assert_eq!(ledger.commit(1, 23, 0, 5), CommitOutcome::Committed);
        assert_eq!(ledger.commit(12, 3, 0, 6), CommitOutcome::Committed);
        assert_eq!(ledger.commit(1, 23, 4, 5), CommitOutcome::Committed);
        assert_eq!(ledger.commit(1, 24, 9, 5), CommitOutcome::Committed);
        assert_eq!(ledger.commit(1, 22, u32::MAX, 5), CommitOutcome::Committed);
        assert_eq!(ledger.commit(12, 3, 0, 6), CommitOutcome::Duplicate);
        assert_eq!(
            ledger.commit(1, 23, 4, 6),
            CommitOutcome::Conflict {
                expected: 5,
                actual: 6
            }
        );
        assert_eq!(ledger.latest_epoch(1, 23), Some(4));
        assert_eq!(ledger.latest_epoch(1, 22), Some(u32::MAX));
        assert_eq!(ledger.latest_epoch(12, 3), Some(0));
        assert_eq!(ledger.latest_epoch(1, 25), None);
        assert_eq!(ledger.len(), 5);
    }
}
