//! Ready-queue execution order and tie-break control.
//!
//! Both simulation engines (`crate::faults`, `crate::adaptive`) process
//! stages in **(ready time, stage id)** order through a [`ReadyQueue`]
//! instead of a fixed topological order. Ready time is the stage's
//! pre-recovery input gate: the max over in-edges of the producer's
//! write start (pipelined) or end (blocking). Two facts make this a
//! valid discrete-event order:
//!
//! 1. a stage enters the queue only when its last producer has been
//!    simulated, so its ready time is known exactly when it enters;
//! 2. pops are nondecreasing in ready time — a newly enabled consumer's
//!    ready time is at least its enabling producer's write start, which
//!    is at least that producer's own ready time (every `max` above
//!    preserves `>=` exactly in f64).
//!
//! Stages whose ready times are **bit-equal** are *simultaneous events*:
//! no physical signal orders them, so any execution order must yield the
//! same result. The [`TieBreak`] controller makes that order an explicit,
//! replayable decision instead of an accident of iteration order — the
//! canonical policy picks the lowest stage id, and the model checker
//! (`crate::explore`) drives the same engines through every other choice
//! to prove the result does not depend on it.

use ditto_dag::{JobDag, StageId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dependency-counting ready queue over a DAG's stages.
pub(crate) struct ReadyQueue {
    indeg: Vec<usize>,
    /// Enabled, not-yet-popped stages with their ready times.
    avail: Vec<(f64, StageId)>,
}

impl ReadyQueue {
    /// Queue with every source stage available at ready time 0.
    pub(crate) fn new(dag: &JobDag) -> Self {
        let n = dag.num_stages();
        let indeg: Vec<usize> = (0..n).map(|i| dag.in_degree(StageId(i as u32))).collect();
        let avail = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| (0.0, StageId(i as u32)))
            .collect();
        ReadyQueue { indeg, avail }
    }

    /// Record that stage `s` has been simulated, enabling consumers whose
    /// last producer it was. `ready_of` computes an enabled consumer's
    /// ready time from the (now known) producer timelines.
    pub(crate) fn complete(
        &mut self,
        dag: &JobDag,
        s: StageId,
        mut ready_of: impl FnMut(StageId) -> f64,
    ) {
        for e in dag.out_edges(s) {
            let c = e.dst;
            self.indeg[c.index()] -= 1;
            if self.indeg[c.index()] == 0 {
                self.avail.push((ready_of(c), c));
            }
        }
    }

    /// Pop the next stage: minimum ready time, ties resolved by the
    /// controller over the id-sorted candidate set. Returns the popped
    /// stage and its ready time.
    pub(crate) fn pop(&mut self, tie: &mut TieBreak) -> Option<(f64, StageId)> {
        if self.avail.is_empty() {
            return None;
        }
        let min = self
            .avail
            .iter()
            .map(|e| e.0)
            .fold(f64::INFINITY, f64::min);
        let mut cand: Vec<StageId> = self
            .avail
            .iter()
            .filter(|e| e.0 == min)
            .map(|e| e.1)
            .collect();
        cand.sort_unstable();
        let pick = if cand.len() == 1 {
            cand[0]
        } else {
            cand[tie.choose(cand.len())]
        };
        self.avail.retain(|e| e.1 != pick);
        Some((min, pick))
    }

    /// Stages still waiting or available (non-empty queue means the run
    /// is not done; used to assert every stage was simulated).
    #[cfg(test)]
    pub(crate) fn is_drained(&self) -> bool {
        self.avail.is_empty()
    }
}

enum TieMode {
    /// Lowest stage id first (the documented FIFO promise).
    Canonical,
    /// Replay a recorded decision vector; positions past the end (or out
    /// of range for the batch) fall back to the canonical choice.
    Scripted(Vec<u32>),
    /// Seeded uniform sampling over the candidate set.
    Random(StdRng),
}

/// The tie-break controller: one `choose` call per simultaneous-event
/// batch of size >= 2. Records the realized decision vector and the
/// branching arity at every decision point, so a run can be replayed,
/// enumerated (odometer over `arity`) or shrunk to a witness.
pub(crate) struct TieBreak {
    mode: TieMode,
    /// Realized choices, one per decision point.
    pub(crate) decisions: Vec<u32>,
    /// Candidate-set size at each decision point.
    pub(crate) arity: Vec<u32>,
}

impl TieBreak {
    fn with(mode: TieMode) -> Self {
        TieBreak {
            mode,
            decisions: Vec::new(),
            arity: Vec::new(),
        }
    }

    /// Lowest-stage-id tie-breaking (production order).
    pub(crate) fn canonical() -> Self {
        Self::with(TieMode::Canonical)
    }

    /// Replay the given decision vector.
    pub(crate) fn scripted(decisions: Vec<u32>) -> Self {
        Self::with(TieMode::Scripted(decisions))
    }

    /// Seeded random tie-breaking (sampling mode of the explorer).
    pub(crate) fn random(seed: u64) -> Self {
        Self::with(TieMode::Random(StdRng::seed_from_u64(seed)))
    }

    fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n >= 2);
        let pos = self.decisions.len();
        let d = match &mut self.mode {
            TieMode::Canonical => 0,
            TieMode::Scripted(v) => v.get(pos).copied().unwrap_or(0).min(n as u32 - 1) as usize,
            TieMode::Random(rng) => rng.gen_range(0..n),
        };
        self.decisions.push(d as u32);
        self.arity.push(n as u32);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> JobDag {
        ditto_dag::generators::diamond(1 << 30)
    }

    #[test]
    fn canonical_pops_ready_then_id_order() {
        let dag = diamond();
        let mut q = ReadyQueue::new(&dag);
        let mut tie = TieBreak::canonical();
        // Source pops at 0; give both branches the same ready time so
        // they form a batch, then the sink.
        let (r0, s0) = q.pop(&mut tie).unwrap();
        assert_eq!((r0, s0), (0.0, StageId(0)));
        q.complete(&dag, s0, |_| 5.0);
        let (r1, s1) = q.pop(&mut tie).unwrap();
        let (r2, s2) = q.pop(&mut tie).unwrap();
        assert_eq!((r1, s1), (5.0, StageId(1)), "lowest id first on a tie");
        assert_eq!((r2, s2), (5.0, StageId(2)));
        q.complete(&dag, s1, |_| 9.0);
        q.complete(&dag, s2, |_| 9.0);
        let (r3, s3) = q.pop(&mut tie).unwrap();
        assert_eq!((r3, s3), (9.0, StageId(3)));
        assert!(q.pop(&mut tie).is_none());
        assert!(q.is_drained());
        // Exactly one decision point (the 2-way tie), canonical pick 0.
        assert_eq!(tie.decisions, vec![0]);
        assert_eq!(tie.arity, vec![2]);
    }

    #[test]
    fn scripted_flips_the_tie() {
        let dag = diamond();
        let mut q = ReadyQueue::new(&dag);
        let mut tie = TieBreak::scripted(vec![1]);
        let (_, s0) = q.pop(&mut tie).unwrap();
        q.complete(&dag, s0, |_| 5.0);
        let (_, s1) = q.pop(&mut tie).unwrap();
        assert_eq!(s1, StageId(2), "scripted decision 1 picks the second candidate");
        let (_, s2) = q.pop(&mut tie).unwrap();
        assert_eq!(s2, StageId(1));
        assert_eq!(tie.decisions, vec![1]);
        assert_eq!(tie.arity, vec![2]);
    }

    #[test]
    fn out_of_range_script_falls_back_to_canonical() {
        let dag = diamond();
        let mut q = ReadyQueue::new(&dag);
        let mut tie = TieBreak::scripted(vec![7]);
        let (_, s0) = q.pop(&mut tie).unwrap();
        q.complete(&dag, s0, |_| 5.0);
        let (_, s1) = q.pop(&mut tie).unwrap();
        // 7 clamps to the last candidate (index 1) — never panics.
        assert_eq!(s1, StageId(2));
    }

    #[test]
    fn distinct_ready_times_never_consult_the_controller() {
        let dag = diamond();
        let mut q = ReadyQueue::new(&dag);
        let mut tie = TieBreak::random(3);
        let (_, s0) = q.pop(&mut tie).unwrap();
        let mut r = 4.0;
        q.complete(&dag, s0, |_| {
            r += 1.0;
            r
        });
        let (_, a) = q.pop(&mut tie).unwrap();
        let (_, b) = q.pop(&mut tie).unwrap();
        assert_eq!((a, b), (StageId(1), StageId(2)), "ready order, no tie");
        assert!(tie.decisions.is_empty(), "no simultaneous events, no decisions");
    }
}
