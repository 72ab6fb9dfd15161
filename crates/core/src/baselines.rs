//! Baseline schedulers from the paper's evaluation (§6, Fig. 12):
//!
//! * [`NimbleScheduler`] — NIMBLE (Caerus, NSDI '21): DoP proportional to
//!   each stage's input data size, tasks placed randomly, all shuffles via
//!   external storage;
//! * [`NimbleGroupScheduler`] — NIMBLE's parallelism + Ditto's greedy
//!   grouping (the "NIMBLE+Group" ablation);
//! * [`NimbleDopScheduler`] — Ditto's DoP ratio computing without grouping
//!   (the "NIMBLE+DoP" ablation);
//! * [`FixedDopScheduler`] — every stage at the same fixed DoP (Fig. 14);
//! * [`EvenSplitScheduler`] — slots divided evenly across stages (Fig. 1b).

use crate::dop::{compute_dop, round_dops};
use crate::grouping::{greedy_group_order, StageGroups};
use crate::placement::can_place;
use crate::schedule::{Schedule, TaskPlacement};
use crate::scheduler::{Scheduler, SchedulingContext};
use ditto_cluster::{ResourceManager, ServerId};
use ditto_dag::{JobDag, StageId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input bytes of a stage as NIMBLE sees them: external input plus
/// intermediate data arriving from upstream stages.
fn stage_input_bytes(dag: &JobDag, s: StageId) -> u64 {
    let edge_in: u64 = dag.in_edges(s).map(|e| e.bytes).sum();
    dag.stage(s).input_bytes + edge_in
}

/// DoPs proportional to input data size, summing to (at most) `c`.
pub(crate) fn nimble_dops(dag: &JobDag, c: u32) -> Vec<u32> {
    let inputs: Vec<f64> = dag
        .stages()
        .iter()
        .map(|s| stage_input_bytes(dag, s.id) as f64)
        .collect();
    let total: f64 = inputs.iter().sum();
    let n = dag.num_stages() as f64;
    let fractional: Vec<f64> = if total > 0.0 {
        inputs.iter().map(|b| b / total * c as f64).collect()
    } else {
        vec![c as f64 / n; dag.num_stages()]
    };
    round_dops(&fractional, c)
}

/// Random task placement: each task goes to a uniformly random server that
/// still has a free slot. Deterministic under the given seed.
fn random_placement(dop: &[u32], rm: &ResourceManager, seed: u64) -> Vec<TaskPlacement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut free: Vec<u32> = (0..rm.num_servers())
        .map(|i| rm.free_on(ServerId(i as u32)))
        .collect();
    dop.iter()
        .map(|&d| {
            let mut counts: Vec<u32> = vec![0; free.len()];
            for _ in 0..d {
                let candidates: Vec<usize> =
                    (0..free.len()).filter(|&i| free[i] > 0).collect();
                assert!(
                    !candidates.is_empty(),
                    "random placement ran out of slots (Σdop exceeds C)"
                );
                let pick = candidates[rng.gen_range(0..candidates.len())];
                free[pick] -= 1;
                counts[pick] += 1;
            }
            TaskPlacement::Spread(
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| (ServerId(i as u32), c))
                    .collect(),
            )
        })
        .collect()
}

/// NIMBLE: DoP ∝ input size, random placement, no shared-memory use.
#[derive(Debug, Clone)]
pub struct NimbleScheduler {
    /// Seed for the random placement.
    pub seed: u64,
}

impl Default for NimbleScheduler {
    fn default() -> Self {
        NimbleScheduler { seed: 42 }
    }
}

impl Scheduler for NimbleScheduler {
    fn name(&self) -> &str {
        "nimble"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        let n = ctx.dag.num_stages();
        let dop = nimble_dops(ctx.dag, ctx.resources.total_free());
        let placement = random_placement(&dop, ctx.resources, self.seed);
        let groups = StageGroups::singletons(n);
        Schedule {
            scheduler: self.name().into(),
            dop,
            group_of: groups.group_of(n),
            groups: groups.groups(n),
            colocated: vec![false; ctx.dag.num_edges()],
            placement,
        }
    }
}

/// NIMBLE+Group: NIMBLE's DoPs, then Ditto's greedy grouping with the
/// best-fit placement check (but no DoP recomputation).
#[derive(Debug, Clone, Default)]
pub struct NimbleGroupScheduler;

impl Scheduler for NimbleGroupScheduler {
    fn name(&self) -> &str {
        "nimble+group"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        let n = ctx.dag.num_stages();
        let dop = nimble_dops(ctx.dag, ctx.resources.total_free());
        let mut groups = StageGroups::singletons(n);
        let mut colocated = groups.colocation_mask(ctx.dag);
        // Algorithm 2 proper: one pass over the greedy order, grouping
        // whatever places.
        let order = greedy_group_order(ctx.dag, ctx.model, &dop, &colocated, ctx.objective);
        for e in order {
            let edge = ctx.dag.edge(e);
            let mut trial = groups.clone();
            trial.union(edge.src, edge.dst);
            if can_place(ctx.dag, &dop, &trial, ctx.resources, true).is_some() {
                groups = trial;
                colocated = groups.colocation_mask(ctx.dag);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "dop=1 per stage fits any cluster with C >= #stages; panics (documented) otherwise"
        )]
        let plan = can_place(ctx.dag, &dop, &groups, ctx.resources, true)
            .expect("singleton fallback always placeable");
        Schedule {
            scheduler: self.name().into(),
            dop,
            group_of: groups.group_of(n),
            groups: groups.groups(n),
            colocated,
            placement: plan.stage_placement,
        }
    }
}

/// NIMBLE+DoP: Ditto's DoP ratio computing, singleton groups, spread
/// placement (no shared-memory exploitation).
#[derive(Debug, Clone, Default)]
pub struct NimbleDopScheduler;

impl Scheduler for NimbleDopScheduler {
    fn name(&self) -> &str {
        "nimble+dop"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        let n = ctx.dag.num_stages();
        let colocated = vec![false; ctx.dag.num_edges()];
        let a = compute_dop(
            ctx.dag,
            ctx.model,
            &colocated,
            ctx.objective,
            ctx.resources.total_free().max(1),
        );
        let groups = StageGroups::singletons(n);
        #[expect(
            clippy::expect_used,
            reason = "NIMBLE dops are clamped to the budget before placement"
        )]
        let plan = can_place(ctx.dag, &a.dop, &groups, ctx.resources, true)
            .expect("singleton configuration within C is placeable");
        Schedule {
            scheduler: self.name().into(),
            dop: a.dop,
            group_of: groups.group_of(n),
            groups: groups.groups(n),
            colocated,
            placement: plan.stage_placement,
        }
    }
}

/// Every stage at the same fixed DoP (the Fig. 14 configuration).
#[derive(Debug, Clone)]
pub struct FixedDopScheduler {
    /// The DoP every stage uses.
    pub dop: u32,
}

impl Scheduler for FixedDopScheduler {
    fn name(&self) -> &str {
        "fixed-dop"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        let n = ctx.dag.num_stages();
        let per_stage = self.dop.max(1);
        let dop = vec![per_stage; n];
        let groups = StageGroups::singletons(n);
        let plan = can_place(ctx.dag, &dop, &groups, ctx.resources, true)
            .unwrap_or_else(|| {
                panic!(
                    "fixed DoP {} x {} stages exceeds cluster capacity {}",
                    per_stage,
                    n,
                    ctx.resources.total_free()
                )
            });
        Schedule {
            scheduler: self.name().into(),
            dop,
            group_of: groups.group_of(n),
            groups: groups.groups(n),
            colocated: vec![false; ctx.dag.num_edges()],
            placement: plan.stage_placement,
        }
    }
}

/// Slots split evenly across stages (the naive Fig. 1b configuration).
#[derive(Debug, Clone, Default)]
pub struct EvenSplitScheduler;

impl Scheduler for EvenSplitScheduler {
    fn name(&self) -> &str {
        "even-split"
    }

    fn schedule(&self, ctx: &SchedulingContext<'_>) -> Schedule {
        let n = ctx.dag.num_stages();
        let c = ctx.resources.total_free();
        let fractional = vec![c as f64 / n as f64; n];
        let dop = round_dops(&fractional, c);
        let groups = StageGroups::singletons(n);
        #[expect(
            clippy::expect_used,
            reason = "even split allocates exactly C slots across servers"
        )]
        let plan = can_place(ctx.dag, &dop, &groups, ctx.resources, true)
            .expect("even split within C is placeable");
        Schedule {
            scheduler: self.name().into(),
            dop,
            group_of: groups.group_of(n),
            groups: groups.groups(n),
            colocated: vec![false; ctx.dag.num_edges()],
            placement: plan.stage_placement,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use ditto_dag::generators;
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn ctx_parts() -> (JobDag, JobTimeModel, ResourceManager) {
        let dag = generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![96, 48, 24, 12, 8, 6, 4, 2]);
        (dag, model, rm)
    }

    #[test]
    fn nimble_dop_proportional_to_input() {
        let dag = generators::fig1_join();
        // map1 scans 8 GB, map2 2 GB, join gets 1 GB of intermediates.
        let dop = nimble_dops(&dag, 110);
        // Ratios ≈ 8 : 2 : 1 of 11 GB total.
        assert!(dop[0] > 3 * dop[1], "{dop:?}");
        assert!(dop[1] > dop[2], "{dop:?}");
        assert!(dop.iter().sum::<u32>() <= 110);
    }

    #[test]
    fn all_baselines_produce_valid_schedules() {
        let (dag, model, rm) = ctx_parts();
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(NimbleScheduler::default()),
            Box::new(NimbleGroupScheduler),
            Box::new(NimbleDopScheduler),
            Box::new(FixedDopScheduler { dop: 8 }),
            Box::new(EvenSplitScheduler),
        ];
        for s in schedulers {
            let sch = s.schedule(&ctx);
            sch.validate(&dag).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
            assert!(sch.total_slots() <= rm.total_free(), "{}", s.name());
        }
    }

    #[test]
    fn nimble_placement_deterministic_per_seed() {
        let (dag, model, rm) = ctx_parts();
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let a = NimbleScheduler { seed: 7 }.schedule(&ctx);
        let b = NimbleScheduler { seed: 7 }.schedule(&ctx);
        assert_eq!(a.placement, b.placement);
        let c = NimbleScheduler { seed: 8 }.schedule(&ctx);
        // Overwhelmingly likely to differ.
        assert!(a.placement != c.placement || a.dop != c.dop);
    }

    #[test]
    fn nimble_never_colocates() {
        let (dag, model, rm) = ctx_parts();
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let s = NimbleScheduler::default().schedule(&ctx);
        assert!(s.colocated.iter().all(|&c| !c));
        assert!(s.groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn nimble_group_colocates_something_in_roomy_cluster() {
        let dag = generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![96; 8]);
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let s = NimbleGroupScheduler.schedule(&ctx);
        assert!(s.colocated.iter().any(|&c| c));
        s.validate(&dag).unwrap();
    }

    #[test]
    fn even_split_near_equal() {
        let (dag, model, rm) = ctx_parts();
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        let s = EvenSplitScheduler.schedule(&ctx);
        let min = s.dop.iter().min().unwrap();
        let max = s.dop.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    #[should_panic(expected = "exceeds cluster capacity")]
    fn fixed_dop_too_large_panics() {
        let (dag, model, _) = ctx_parts();
        let rm = ResourceManager::from_free_slots(vec![4, 4]);
        let ctx = SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        };
        FixedDopScheduler { dop: 50 }.schedule(&ctx);
    }
}
