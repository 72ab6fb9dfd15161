//! Ablations of Ditto's design choices (DESIGN.md §6).
//!
//! Each function isolates one decision and compares it against the
//! alternatives the paper implicitly rejects:
//!
//! * the **√-ratio** for consecutive stages (vs linear-in-α and even
//!   splits) — the Appendix A.1 optimality, measured end to end;
//! * the **critical-path-aware greedy order** (vs globally descending and
//!   random orders) in grouping;
//! * **gather decomposition** of stage groups (vs whole-group placement
//!   only) under tight clusters;
//! * the **straggler scaling factor** in the fitted model (vs ignoring
//!   straggler evidence);
//! * **joint iterative optimization** (vs one-shot group-then-DoP).

use crate::setup::{prepare, PreparedQuery};
use ditto_cluster::ResourceManager;
use ditto_core::dop::{compute_dop, round_dops};
use ditto_core::grouping::{greedy_group_order, StageGroups};
use ditto_core::joint::{joint_optimize, GroupOrderPolicy, JointOptions};
use ditto_core::placement::can_place;
use ditto_core::predict::predicted_jct;
use ditto_core::{Objective, Schedule};
use ditto_dag::EdgeId;
use ditto_exec::simulate;
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;

/// One ablation measurement.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Which design axis.
    pub(crate) ablation: String,
    /// The variant measured.
    pub(crate) variant: String,
    /// Simulated (or predicted, for the ratio ablation) JCT, seconds.
    pub(crate) jct_seconds: f64,
}

fn zipf_testbed() -> ResourceManager {
    crate::setup::default_testbed()
}

/// Intra-path ratio ablation: √α-proportional vs α-proportional vs even
/// DoP splits on Q95 (predicted JCT under the fitted model, all-remote).
pub(crate) fn ablate_intra_ratio() -> Vec<AblationRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let dag = &p.plan.dag;
    let none = p.model.no_colocation();
    let c = zipf_testbed().total_free();
    let alphas: Vec<f64> = dag
        .stages()
        .iter()
        .map(|s| p.model.stage_alpha(dag, s.id, &none))
        .collect();

    let weights_to_jct = |w: &[f64], label: &str| -> AblationRow {
        let total: f64 = w.iter().sum();
        let frac: Vec<f64> = w.iter().map(|x| x / total * c as f64).collect();
        AblationRow {
            ablation: "intra-ratio".into(),
            variant: label.into(),
            jct_seconds: predicted_jct(dag, &p.model, &frac, &none),
        }
    };

    let sqrt_w: Vec<f64> = alphas.iter().map(|a| a.sqrt()).collect();
    let linear_w = alphas.clone();
    let even_w = vec![1.0; alphas.len()];
    // The real Ditto assignment (merge-tree, not a plain normalization).
    let ditto = compute_dop(dag, &p.model, &none, Objective::Jct, c);

    vec![
        AblationRow {
            ablation: "intra-ratio".into(),
            variant: "ditto-merge-tree".into(),
            jct_seconds: predicted_jct(dag, &p.model, &ditto.fractional, &none),
        },
        weights_to_jct(&sqrt_w, "sqrt-alpha"),
        weights_to_jct(&linear_w, "linear-alpha (data size)"),
        weights_to_jct(&even_w, "even"),
    ]
}

/// One-shot grouping with a fixed edge order (grouping ablations):
/// try each edge once under the *initial* DoPs, then recompute DoPs for
/// the final mask.
fn oneshot_with_order(p: &PreparedQuery, rm: &ResourceManager, order: &[EdgeId]) -> Schedule {
    let dag = &p.plan.dag;
    let n = dag.num_stages();
    let c = rm.total_free();
    let base = compute_dop(dag, &p.model, &p.model.no_colocation(), Objective::Jct, c);
    let mut groups = StageGroups::singletons(n);
    for &e in order {
        let edge = dag.edge(e);
        let mut trial = groups.clone();
        trial.union(edge.src, edge.dst);
        if can_place(dag, &base.dop, &trial, rm, true).is_some() {
            groups = trial;
        }
    }
    let mask = groups.colocation_mask(dag);
    let a = compute_dop(dag, &p.model, &mask, Objective::Jct, c);
    let dop = round_dops(&a.fractional, c);
    let plan = can_place(dag, &dop, &groups, rm, true)
        .or_else(|| can_place(dag, &base.dop, &groups, rm, true))
        .expect("some placement exists");
    Schedule {
        scheduler: "ablation".into(),
        dop: if can_place(dag, &dop, &groups, rm, true).is_some() {
            dop
        } else {
            base.dop
        },
        group_of: groups.group_of(n),
        groups: groups.groups(n),
        colocated: mask,
        placement: plan.stage_placement,
    }
}

/// Grouping-order ablation on Q95: the full joint optimizer run with the
/// critical-path-aware greedy order vs globally descending vs random
/// orders, plus no grouping at all (simulated JCT). Random is averaged
/// over several seeds.
pub(crate) fn ablate_group_order() -> Vec<AblationRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let dag = &p.plan.dag;
    let rm = zipf_testbed();

    let run_policy = |policy: GroupOrderPolicy| -> f64 {
        let opts = JointOptions {
            order_policy: policy,
            ..Default::default()
        };
        let schedule = joint_optimize(dag, &p.model, &rm, Objective::Jct, &opts);
        simulate(dag, &schedule, &p.gt).1.jct
    };

    let random_mean = (0..5u64)
        .map(|seed| run_policy(GroupOrderPolicy::Random(seed)))
        .sum::<f64>()
        / 5.0;
    // No grouping = NIMBLE+DoP's configuration.
    let none = {
        let c = rm.total_free();
        let base = compute_dop(dag, &p.model, &p.model.no_colocation(), Objective::Jct, c);
        let schedule = oneshot_with_order(&p, &rm, &[]);
        debug_assert_eq!(schedule.dop.len(), base.dop.len());
        simulate(dag, &schedule, &p.gt).1.jct
    };

    vec![
        AblationRow {
            ablation: "group-order".into(),
            variant: "critical-path (ditto)".into(),
            jct_seconds: run_policy(GroupOrderPolicy::Greedy),
        },
        AblationRow {
            ablation: "group-order".into(),
            variant: "global-descending".into(),
            jct_seconds: run_policy(GroupOrderPolicy::GlobalDescending),
        },
        AblationRow {
            ablation: "group-order".into(),
            variant: "random (mean of 5 seeds)".into(),
            jct_seconds: random_mean,
        },
        AblationRow {
            ablation: "group-order".into(),
            variant: "none".into(),
            jct_seconds: none,
        },
    ]
}

/// One gather-decomposition measurement: JCT plus how many edges the
/// placement managed to co-locate.
#[derive(Debug, Clone, Serialize)]
pub(crate) struct DecompositionRow {
    /// `on` (Ditto) or `off`.
    pub(crate) variant: String,
    /// Simulated JCT, seconds.
    pub(crate) jct_seconds: f64,
    /// Edges whose shuffle runs through shared memory.
    pub(crate) colocated_edges: usize,
}

/// Gather-decomposition ablation: Ditto with and without §4.5's task-group
/// decomposition under a tight cluster (many small servers). Decomposition
/// strictly widens the set of placeable groupings, so the `on` variant
/// co-locates at least as many edges; the JCT effect depends on how much
/// of the shuffle volume those extra edges carry.
pub(crate) fn ablate_gather_decomposition() -> Vec<DecompositionRow> {
    let p = prepare(Query::Q95, Medium::S3);
    // 16 small servers: whole groups rarely fit one server.
    let rm = ResourceManager::from_free_slots(vec![24; 16]);
    [true, false]
        .iter()
        .map(|&on| {
            let opts = JointOptions {
                gather_decomposition: on,
                ..Default::default()
            };
            let schedule = joint_optimize(&p.plan.dag, &p.model, &rm, Objective::Jct, &opts);
            let (_, m) = simulate(&p.plan.dag, &schedule, &p.gt);
            DecompositionRow {
                variant: if on { "on (ditto)" } else { "off" }.into(),
                jct_seconds: m.jct,
                colocated_edges: schedule.colocated.iter().filter(|&&c| c).count(),
            }
        })
        .collect()
}

/// Straggler-scaling ablation: model accuracy (mean relative error of
/// stage-time prediction at DoP 60) with and without the fitted scaling
/// factor. `jct_seconds` carries the mean relative error here.
pub(crate) fn ablate_straggler_scaling() -> Vec<AblationRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let dag = &p.plan.dag;
    let none = p.model.no_colocation();
    let mut unscaled = p.model.clone();
    for s in dag.stages() {
        unscaled.set_scaling(s.id, 1.0);
    }
    let probe = ditto_exec::profile::probe_schedule(dag, 60);
    let mean_err = |model: &ditto_timemodel::JobTimeModel| -> f64 {
        let errs: Vec<f64> = dag
            .stages()
            .iter()
            .map(|s| {
                // The stage time is its slowest task (§4.1): compare the
                // straggler-aware prediction against the ground-truth max.
                let actual = p
                    .gt
                    .stage_tasks(dag, &probe, s.id)
                    .iter()
                    .map(|t| t.read + t.compute + t.write)
                    .fold(0.0, f64::max);
                let predicted = model.exec_time(dag, s.id, 60.0, &none);
                (predicted - actual).abs() / actual.max(1e-9)
            })
            .collect();
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    vec![
        AblationRow {
            ablation: "straggler-scaling".into(),
            variant: "scaled (ditto)".into(),
            jct_seconds: mean_err(&p.model),
        },
        AblationRow {
            ablation: "straggler-scaling".into(),
            variant: "unscaled".into(),
            jct_seconds: mean_err(&unscaled),
        },
    ]
}

/// Joint-vs-one-shot ablation: Algorithm 3's iterative recomputation vs
/// grouping once under initial DoPs (simulated JCT, Q95, Zipf-0.9).
pub(crate) fn ablate_joint_vs_oneshot() -> Vec<AblationRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = zipf_testbed();
    let joint = joint_optimize(
        &p.plan.dag,
        &p.model,
        &rm,
        Objective::Jct,
        &JointOptions::default(),
    );
    let (_, mj) = simulate(&p.plan.dag, &joint, &p.gt);
    let base = compute_dop(
        &p.plan.dag,
        &p.model,
        &p.model.no_colocation(),
        Objective::Jct,
        rm.total_free(),
    );
    let order = greedy_group_order(
        &p.plan.dag,
        &p.model,
        &base.dop,
        &p.model.no_colocation(),
        Objective::Jct,
    );
    let oneshot = oneshot_with_order(&p, &rm, &order);
    let (_, mo) = simulate(&p.plan.dag, &oneshot, &p.gt);
    vec![
        AblationRow {
            ablation: "joint-vs-oneshot".into(),
            variant: "joint iterative (ditto)".into(),
            jct_seconds: mj.jct,
        },
        AblationRow {
            ablation: "joint-vs-oneshot".into(),
            variant: "one-shot".into(),
            jct_seconds: mo.jct,
        },
    ]
}

/// Pipelining ablation (§4.5): Q95 with its gather edges annotated as
/// pipelined vs un-annotated (simulated JCT, Zipf-0.9).
pub(crate) fn ablate_pipelining() -> Vec<AblationRow> {
    let rm = zipf_testbed();
    [false, true]
        .iter()
        .map(|&piped| {
            let db = ditto_sql::Database::generate(ditto_sql::ScaleConfig::with_sf(
                crate::setup::EXPERIMENT_SF,
            ));
            let mut plan = Query::Q95.prepared_plan(&db);
            plan.scale_volumes(crate::setup::VOLUME_SCALE);
            if piped {
                plan.annotate_gather_pipelining();
            }
            let gt = ditto_exec::GroundTruth::new(ditto_exec::ExecConfig::default());
            let profile = ditto_exec::profile_job(&plan.dag, &gt, &crate::setup::PROFILE_DOPS);
            let (model, _) = profile.build_model(&plan.dag);
            let schedule =
                joint_optimize(&plan.dag, &model, &rm, Objective::Jct, &JointOptions::default());
            let (_, m) = simulate(&plan.dag, &schedule, &gt);
            AblationRow {
                ablation: "pipelining".into(),
                variant: if piped {
                    "gather edges pipelined"
                } else {
                    "no pipelining"
                }
                .into(),
                jct_seconds: m.jct,
            }
        })
        .collect()
}

/// Placement-fit ablation: best fit (§4.4) vs first fit vs worst fit,
/// full joint optimization on Q95 (simulated JCT, Zipf-0.9).
pub(crate) fn ablate_fit_strategy() -> Vec<AblationRow> {
    use ditto_core::FitStrategy;
    let p = prepare(Query::Q95, Medium::S3);
    let rm = zipf_testbed();
    [
        ("best-fit (ditto)", FitStrategy::BestFit),
        ("first-fit", FitStrategy::FirstFit),
        ("worst-fit", FitStrategy::WorstFit),
    ]
    .iter()
    .map(|&(label, strategy)| {
        let opts = JointOptions {
            fit_strategy: strategy,
            ..Default::default()
        };
        let schedule = joint_optimize(&p.plan.dag, &p.model, &rm, Objective::Jct, &opts);
        let (_, m) = simulate(&p.plan.dag, &schedule, &p.gt);
        AblationRow {
            ablation: "fit-strategy".into(),
            variant: label.into(),
            jct_seconds: m.jct,
        }
    })
    .collect()
}

/// Rounding ablation: the paper's floor-and-clamp vs the
/// largest-remainder extension that spends every leftover slot
/// (predicted JCT of the resulting integer DoPs, all-remote).
pub(crate) fn ablate_rounding() -> Vec<AblationRow> {
    use ditto_core::dop::round_dops_largest_remainder;
    let p = prepare(Query::Q95, Medium::S3);
    let dag = &p.plan.dag;
    let none = p.model.no_colocation();
    let c = zipf_testbed().total_free();
    let a = compute_dop(dag, &p.model, &none, Objective::Jct, c);
    let floor = round_dops(&a.fractional, c);
    let remainder = round_dops_largest_remainder(&a.fractional, c);
    let as_f64 = |v: &[u32]| v.iter().map(|&d| d as f64).collect::<Vec<_>>();
    vec![
        AblationRow {
            ablation: "rounding".into(),
            variant: format!("floor (paper), {} slots", floor.iter().sum::<u32>()),
            jct_seconds: predicted_jct(dag, &p.model, &as_f64(&floor), &none),
        },
        AblationRow {
            ablation: "rounding".into(),
            variant: format!("largest-remainder, {} slots", remainder.iter().sum::<u32>()),
            jct_seconds: predicted_jct(dag, &p.model, &as_f64(&remainder), &none),
        },
    ]
}

/// All JCT-valued ablations in one list (for the `figures` binary; the
/// decomposition ablation reports extra columns and prints separately).
pub fn all_ablations() -> Vec<AblationRow> {
    let mut rows = Vec::new();
    rows.extend(ablate_intra_ratio());
    rows.extend(ablate_group_order());
    for d in ablate_gather_decomposition() {
        rows.push(AblationRow {
            ablation: format!("gather-decomposition ({} colocated edges)", d.colocated_edges),
            variant: d.variant,
            jct_seconds: d.jct_seconds,
        });
    }
    rows.extend(ablate_straggler_scaling());
    rows.extend(ablate_joint_vs_oneshot());
    rows.extend(ablate_pipelining());
    rows.extend(ablate_fit_strategy());
    rows.extend(ablate_rounding());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jct_of(rows: &[AblationRow], variant: &str) -> f64 {
        rows.iter()
            .find(|r| r.variant.starts_with(variant))
            .unwrap_or_else(|| panic!("variant {variant} missing"))
            .jct_seconds
    }

    #[test]
    fn merge_tree_beats_linear_and_even() {
        let rows = ablate_intra_ratio();
        let ditto = jct_of(&rows, "ditto-merge-tree");
        assert!(ditto <= jct_of(&rows, "linear-alpha") + 1e-9);
        assert!(ditto <= jct_of(&rows, "even") + 1e-9);
    }

    #[test]
    fn grouping_beats_none() {
        let rows = ablate_group_order();
        let cp = jct_of(&rows, "critical-path");
        assert!(cp <= jct_of(&rows, "none") + 1e-9);
    }

    #[test]
    fn decomposition_widens_placement() {
        // End-to-end the greedy loop is path-dependent (the first commit
        // changes every later feasibility check), so compare JCT loosely…
        let rows = ablate_gather_decomposition();
        let on = rows.iter().find(|r| r.variant.starts_with("on")).unwrap();
        let off = rows.iter().find(|r| r.variant == "off").unwrap();
        assert!(on.jct_seconds <= off.jct_seconds * 1.05);

        // …and verify the *placement-level* guarantee directly: a gather
        // group too big for any server places only with decomposition.
        let dag = ditto_dag::generators::q95_shape();
        let mut groups = StageGroups::singletons(dag.num_stages());
        // reduce1 (id 3) and join1 (id 5) are joined by a gather edge.
        groups.union(ditto_dag::StageId(3), ditto_dag::StageId(5));
        let mut dop = vec![1u32; dag.num_stages()];
        dop[3] = 20;
        dop[5] = 20; // group needs 40 slots; servers have 24
        let rm = ResourceManager::from_free_slots(vec![24; 16]);
        assert!(can_place(&dag, &dop, &groups, &rm, true).is_some());
        assert!(can_place(&dag, &dop, &groups, &rm, false).is_none());
    }

    #[test]
    fn scaling_improves_straggler_prediction() {
        let rows = ablate_straggler_scaling();
        assert!(jct_of(&rows, "scaled") <= jct_of(&rows, "unscaled") + 1e-9);
    }

    #[test]
    fn joint_not_worse_than_oneshot() {
        let rows = ablate_joint_vs_oneshot();
        // Allow small tolerance: rounding can favour either slightly.
        assert!(jct_of(&rows, "joint") <= jct_of(&rows, "one-shot") * 1.05);
    }

    #[test]
    fn pipelining_helps() {
        let rows = ablate_pipelining();
        assert!(jct_of(&rows, "gather edges pipelined") <= jct_of(&rows, "no pipelining") + 1e-9);
    }

    #[test]
    fn best_fit_competitive() {
        let rows = ablate_fit_strategy();
        let best = jct_of(&rows, "best-fit");
        for v in ["first-fit", "worst-fit"] {
            assert!(best <= jct_of(&rows, v) * 1.10, "{v} dramatically beat best-fit");
        }
    }

    #[test]
    fn largest_remainder_not_worse() {
        let rows = ablate_rounding();
        assert!(jct_of(&rows, "largest-remainder") <= jct_of(&rows, "floor") + 1e-9);
    }
}
