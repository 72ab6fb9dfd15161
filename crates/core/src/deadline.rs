//! Deadline-constrained scheduling (extension, not in the paper):
//! minimize cost subject to `predicted JCT ≤ deadline`.
//!
//! Serverless users rarely want the absolute fastest *or* the absolute
//! cheapest run — they want "done by X, as cheap as possible". Under the
//! step model both extremes are available in closed form (the JCT-optimal
//! and cost-optimal DoP vectors of §4.2); any convex blend of the two is
//! a valid allocation of the same `C` slots, its predicted JCT moving
//! continuously between the two endpoints. We bisect the blend factor to
//! find the cheapest configuration that still meets the deadline.
//!
//! This is a heuristic: the blend family does not contain every feasible
//! DoP vector, so the result is an upper bound on the optimal cost. It
//! inherits the paper's machinery unchanged (grouping first, then DoPs).

use crate::dop::{compute_dop, round_dops};
use crate::joint::{joint_optimize, JointOptions};
use crate::objective::Objective;
use crate::placement::can_place_with;
use crate::predict::{predicted_cost, predicted_jct};
use crate::schedule::Schedule;
use ditto_cluster::ResourceManager;
use ditto_dag::JobDag;
use ditto_timemodel::JobTimeModel;

/// Find the cheapest DoP vector in the cost↔JCT blend family whose
/// predicted JCT meets `deadline`, for a fixed co-location mask: its
/// fractional DoPs, or `None` when even the JCT-optimal configuration
/// misses the deadline.
pub(crate) fn deadline_constrained_dop(
    dag: &JobDag,
    model: &JobTimeModel,
    colocated: &[bool],
    c: u32,
    deadline: f64,
) -> Option<Vec<f64>> {
    assert!(deadline > 0.0, "deadline must be positive");
    let jct_opt = compute_dop(dag, model, colocated, Objective::Jct, c);
    let cost_opt = compute_dop(dag, model, colocated, Objective::Cost, c);

    let eval = |lambda: f64| -> (Vec<f64>, f64) {
        let d: Vec<f64> = cost_opt
            .fractional
            .iter()
            .zip(&jct_opt.fractional)
            .map(|(&dc, &dj)| (1.0 - lambda) * dc + lambda * dj)
            .collect();
        let jct = predicted_jct(dag, model, &d, colocated);
        (d, jct)
    };

    let (_, jct_best) = eval(1.0);
    if jct_best > deadline {
        return None; // even the fastest configuration misses it
    }
    let (d0, jct0) = eval(0.0);
    if jct0 <= deadline {
        return Some(d0);
    }

    // Bisect the smallest λ with JCT(λ) ≤ deadline.
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        let (_, jct) = eval(mid);
        if jct <= deadline {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let (d, jct) = eval(hi);
    debug_assert!(jct <= deadline * (1.0 + 1e-9));
    Some(d)
}

/// Full deadline-constrained scheduling: Algorithm 3's joint loop, with
/// the DoP-ratio step replaced by the deadline blend. Each candidate
/// grouping is committed only if the blended integer DoPs for its mask
/// both meet the deadline and pass the placement check — so the final
/// schedule's grouping and parallelism are mutually consistent (unlike a
/// post-hoc DoP swap, whose cost-leaning DoPs can outgrow the groups a
/// JCT-optimized pass chose). Returns `None` when the deadline is
/// unreachable even ungrouped and unguided.
pub fn schedule_with_deadline(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    deadline: f64,
    opts: &JointOptions,
) -> Option<Schedule> {
    use crate::grouping::{greedy_group_order, StageGroups};
    let c = rm.total_free();
    let n = dag.num_stages();

    // A trial evaluator: blend + rounding + placement for a given mask.
    // The cheapest deadline-meeting blend may be unplaceable (its
    // cost-leaning DoPs can outgrow the servers hosting a stage group);
    // any higher λ still meets the deadline, so walk λ toward the
    // JCT-optimal end until a placeable configuration appears.
    let try_mask = |groups: &StageGroups, walk: bool| -> Option<(Vec<u32>, crate::placement::PlacementPlan, f64)> {
        let mask = groups.colocation_mask(dag);
        let blend = deadline_constrained_dop(dag, model, &mask, c, deadline)?;
        let jct_opt = compute_dop(dag, model, &mask, Objective::Jct, c);
        let steps: u32 = if walk { 12 } else { 0 };
        for i in 0..=steps {
            let mu = i as f64 / 12.0; // 0 = cheapest blend, 1 = JCT-opt
            let frac: Vec<f64> = blend
                .iter()
                .zip(&jct_opt.fractional)
                .map(|(&a, &b)| (1.0 - mu) * a + mu * b)
                .collect();
            let dop = round_dops(&frac, c);
            if let Some(plan) =
                can_place_with(dag, &dop, groups, rm, opts.gather_decomposition, opts.fit_strategy)
            {
                let cost = predicted_cost(dag, model, &frac, &mask);
                return Some((dop, plan, cost));
            }
        }
        None
    };

    let mut groups = StageGroups::singletons(n);
    let (mut dop, mut plan, mut cost) = try_mask(&groups, true).or_else(|| {
        // The blend may be infeasible ungrouped yet feasible with grouping
        // (co-location shrinks α and thus predicted JCT). Borrow the
        // fully-joint JCT schedule's grouping as a rescue attempt.
        let rescue = joint_optimize(dag, model, rm, Objective::Jct, opts);
        let mut g = StageGroups::singletons(n);
        for e in dag.edges() {
            if rescue.colocated[e.id.index()] {
                g.union(e.src, e.dst);
            }
        }
        try_mask(&g, true).inspect(|_| groups = g)
    })?;

    // Greedy grouping loop (cost order: the objective we minimize here).
    let mut ungrouped: Vec<ditto_dag::EdgeId> = dag.edges().iter().map(|e| e.id).collect();
    ungrouped.retain(|&e| {
        let edge = dag.edge(e);
        !groups.same_group(edge.src, edge.dst)
    });
    loop {
        let mask = groups.colocation_mask(dag);
        let order: Vec<ditto_dag::EdgeId> =
            greedy_group_order(dag, model, &dop, &mask, Objective::Cost)
                .into_iter()
                .filter(|e| ungrouped.contains(e))
                .collect();
        let mut committed = None;
        for e in order {
            let edge = dag.edge(e);
            let mut trial = groups.clone();
            trial.union(edge.src, edge.dst);
            // During the grouping loop the cheapest blend itself must
            // place (no μ-walk): walking toward faster-but-costlier DoPs
            // here would commit groupings the cost objective should
            // reject, exactly like Algorithm 3's hard placement check.
            if let Some((d, p, k)) = try_mask(&trial, false) {
                if k <= cost + 1e-9 {
                    groups = trial;
                    dop = d;
                    plan = p;
                    cost = k;
                    committed = Some(e);
                    break;
                }
            }
        }
        match committed {
            Some(e) => ungrouped.retain(|&x| x != e),
            None => break,
        }
    }

    Some(Schedule {
        scheduler: format!("ditto-deadline-{deadline:.0}s"),
        dop,
        group_of: groups.group_of(n),
        groups: groups.groups(n),
        colocated: groups.colocation_mask(dag),
        placement: plan.stage_placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::generators;
    use ditto_timemodel::model::RateConfig;

    fn setup() -> (JobDag, JobTimeModel, ResourceManager) {
        let dag = generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![96, 48, 24, 12]);
        (dag, model, rm)
    }

    #[test]
    fn infeasible_deadline_is_none() {
        let (dag, model, rm) = setup();
        let none = model.no_colocation();
        assert!(deadline_constrained_dop(&dag, &model, &none, rm.total_free(), 1e-6).is_none());
    }

    #[test]
    fn loose_deadline_gives_cost_optimal() {
        let (dag, model, rm) = setup();
        let none = model.no_colocation();
        let c = rm.total_free();
        let d = deadline_constrained_dop(&dag, &model, &none, c, 1e9).unwrap();
        let cost_opt = compute_dop(&dag, &model, &none, Objective::Cost, c);
        assert_eq!(d, cost_opt.fractional);
    }

    #[test]
    fn blend_meets_deadline_and_saves_cost() {
        let (dag, model, rm) = setup();
        let none = model.no_colocation();
        let c = rm.total_free();
        let jct_opt = compute_dop(&dag, &model, &none, Objective::Jct, c);
        let jct_best = predicted_jct(&dag, &model, &jct_opt.fractional, &none);
        let cost_at_jct_opt = predicted_cost(&dag, &model, &jct_opt.fractional, &none);
        let cost_opt = compute_dop(&dag, &model, &none, Objective::Cost, c);
        let jct_at_cost_opt = predicted_jct(&dag, &model, &cost_opt.fractional, &none);
        // Pick a deadline strictly between the two extremes.
        let deadline = 0.5 * (jct_best + jct_at_cost_opt);
        let d = deadline_constrained_dop(&dag, &model, &none, c, deadline).unwrap();
        // The bisection lands strictly inside the blend (0 < λ < 1).
        assert!(d != cost_opt.fractional && d != jct_opt.fractional);
        assert!(predicted_jct(&dag, &model, &d, &none) <= deadline * (1.0 + 1e-9));
        let cost = predicted_cost(&dag, &model, &d, &none);
        assert!(
            cost <= cost_at_jct_opt + 1e-9,
            "blend ({cost}) must not cost more than the JCT-optimal ({cost_at_jct_opt})"
        );
    }

    #[test]
    fn scheduled_deadline_is_valid() {
        let (dag, model, rm) = setup();
        let fast = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
        let frac: Vec<f64> = fast.dop.iter().map(|&x| x as f64).collect();
        let floor = predicted_jct(&dag, &model, &frac, &fast.colocated);
        let s = schedule_with_deadline(&dag, &model, &rm, floor * 1.5, &JointOptions::default())
            .expect("reachable deadline");
        s.validate(&dag).unwrap();
        assert!(s.total_slots() <= rm.total_free());
        assert!(s.scheduler.starts_with("ditto-deadline"));
        // An impossible deadline returns None.
        assert!(schedule_with_deadline(&dag, &model, &rm, 1e-6, &JointOptions::default()).is_none());
    }
}
