//! Profiling: generate recurring-job profiles from the ground truth.
//!
//! The paper fits each stage's step model from the profiles of about five
//! executions at different degrees of parallelism (§6.5). [`profile_job`]
//! produces exactly that: for each stage and each profiled DoP it "runs"
//! the stage against the ground truth (all shuffles remote — profiling
//! happens before any grouping decision) and records the mean and max task
//! time of every fine-grained step. Feeding the result to
//! `ditto_timemodel::JobProfile::build_model` yields the fitted model and
//! the Table 2 build time; comparing its predictions against fresh
//! ground-truth runs is the Fig. 11 experiment.

use crate::groundtruth::GroundTruth;
use ditto_core::{Schedule, TaskPlacement};
use ditto_dag::{JobDag, StageId};
use ditto_timemodel::{JobProfile, ProfileSample, StageProfile, StepTarget};

/// A placement-free schedule stub: every shuffle remote, every stage at
/// DoP `d` (profiling runs each stage in isolation, so only the profiled
/// stage's DoP matters; upstream volumes are fixed by the DAG). Public so
/// the Fig. 11 accuracy experiment can replay stages at arbitrary DoPs.
pub fn probe_schedule(dag: &JobDag, d: u32) -> Schedule {
    let n = dag.num_stages();
    Schedule {
        scheduler: "profiler".into(),
        dop: vec![d; n],
        groups: (0..n).map(|i| vec![StageId(i as u32)]).collect(),
        group_of: (0..n).collect(),
        colocated: vec![false; dag.num_edges()],
        placement: vec![
            TaskPlacement::Spread(vec![(ditto_cluster::ServerId(0), d)]);
            n
        ],
    }
}

/// Collect mean/max task times per fine-grained step at each DoP in
/// `dops`, for every stage of the DAG.
pub fn profile_job(dag: &JobDag, gt: &GroundTruth, dops: &[u32]) -> JobProfile {
    assert!(!dops.is_empty(), "need at least one profiled DoP");
    let mut profile = JobProfile::new();
    for stage in dag.stages() {
        // target -> samples across DoPs
        let mut per_target: Vec<(StepTarget, Vec<ProfileSample>)> = Vec::new();
        let mut push = |target: StepTarget, sample: ProfileSample| {
            if let Some((_, v)) = per_target.iter_mut().find(|(t, _)| *t == target) {
                v.push(sample);
            } else {
                per_target.push((target, vec![sample]));
            }
        };

        for &d in dops {
            let sched = probe_schedule(dag, d);
            let comps = gt.task_components(dag, &sched, stage.id);
            let n = comps.len() as f64;
            let agg = |vals: Vec<f64>| -> ProfileSample {
                let mean = vals.iter().sum::<f64>() / n;
                let max = vals.iter().cloned().fold(0.0, f64::max);
                ProfileSample {
                    dop: d,
                    mean_seconds: mean,
                    max_seconds: max,
                }
            };

            let ext_r: Vec<f64> = comps.iter().map(|c| c.external_read).collect();
            if ext_r.iter().any(|&t| t > 0.0) {
                push(StepTarget::ExternalRead, agg(ext_r));
            }
            push(
                StepTarget::Compute,
                agg(comps.iter().map(|c| c.compute).collect()),
            );
            let ext_w: Vec<f64> = comps.iter().map(|c| c.external_write).collect();
            if ext_w.iter().any(|&t| t > 0.0) {
                push(StepTarget::ExternalWrite, agg(ext_w));
            }
            for (i, e) in dag.in_edges(stage.id).enumerate() {
                let vals: Vec<f64> = comps.iter().map(|c| c.edge_reads[i].1).collect();
                push(StepTarget::EdgeRead(e.id), agg(vals));
            }
            for (i, e) in dag.out_edges(stage.id).enumerate() {
                let vals: Vec<f64> = comps.iter().map(|c| c.edge_writes[i].1).collect();
                push(StepTarget::EdgeWrite(e.id), agg(vals));
            }
        }

        let mut sp = StageProfile::new(stage.id);
        sp.steps = per_target;
        profile.add_stage(sp);

        // Resource model from ground-truth memory at a representative DoP:
        // M(d) = ρ/d·d ... the linear form ρ + σd is recovered from two
        // points (d smallest and largest profiled).
        let (d0, d1) = (dops[0], dops[dops.len() - 1]);
        let m0 = gt.task_memory_gb(dag, stage.id, d0) * d0 as f64;
        let m1 = gt.task_memory_gb(dag, stage.id, d1) * d1 as f64;
        // Total memory is ρ + σ·d (ρ = data, σ = per-function overhead).
        let sigma = if d1 != d0 {
            ((m1 - m0) / (d1 as f64 - d0 as f64)).max(0.0)
        } else {
            0.0
        };
        let rho = (m0 - sigma * d0 as f64).max(1e-3);
        profile
            .resources
            .push((stage.id, ditto_timemodel::ResourceModel::new(rho, sigma)));
    }
    profile
}

/// The paper's default profiling setup: five DoPs spanning 10–120.
#[cfg(test)]
pub(crate) fn default_profile_dops() -> [u32; 5] {
    [10, 20, 40, 80, 120]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::ExecConfig;

    fn gt_no_noise() -> GroundTruth {
        GroundTruth::new(ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            jitter: 0.0,
            ..Default::default()
        })
    }

    #[test]
    fn profile_then_fit_recovers_ground_truth() {
        let dag = ditto_dag::generators::q95_shape();
        let gt = gt_no_noise();
        let profile = profile_job(&dag, &gt, &default_profile_dops());
        let (model, took) = profile.build_model(&dag);
        assert!(took.as_secs_f64() < 1.0, "Table 2: model building is fast");

        // Predicted stage time ≈ ground-truth task time at an unprofiled
        // DoP (d = 60 is between the profiled points).
        let none = model.no_colocation();
        let sched = probe_schedule(&dag, 60);
        for s in dag.stages() {
            let actual = gt
                .stage_tasks(&dag, &sched, s.id)
                .iter()
                .map(|t| t.read + t.compute + t.write)
                .sum::<f64>()
                / 60.0;
            let predicted = model.exec_time(&dag, s.id, 60.0, &none);
            let rel = (predicted - actual).abs() / actual.max(1e-9);
            assert!(
                rel < 0.02,
                "stage {}: predicted {predicted} vs actual {actual} ({rel:.3})",
                s.name
            );
        }
    }

    #[test]
    fn straggler_scaling_detected_with_noise() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = GroundTruth::new(ExecConfig {
            skew: 0.5,
            straggler_prob: 0.3,
            straggler_slowdown: 2.0,
            ..Default::default()
        });
        let profile = profile_job(&dag, &gt, &default_profile_dops());
        let (model, _) = profile.build_model(&dag);
        // At least one stage should carry a scaling factor > 1.
        let any_scaled = dag
            .stages()
            .iter()
            .any(|s| model.scaling(s.id) > 1.05);
        assert!(any_scaled, "straggler evidence should surface in scaling");
    }

    #[test]
    fn resource_model_recovered() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = gt_no_noise();
        let profile = profile_job(&dag, &gt, &default_profile_dops());
        let (model, _) = profile.build_model(&dag);
        // Stage 0 scans 8 GB: ρ ≈ 8e9 × mem_gb_per_byte = ~16 GB.
        let rho = model.resource(StageId(0)).rho;
        let expect = (8u64 << 30) as f64 * gt.config().mem_gb_per_byte;
        assert!(
            (rho - expect).abs() / expect < 0.05,
            "rho={rho} expect≈{expect}"
        );
        let sigma = model.resource(StageId(0)).sigma;
        assert!((sigma - gt.config().mem_gb_per_function).abs() < 1e-6);
    }

    #[test]
    fn edge_steps_are_profiled_separately() {
        let dag = ditto_dag::generators::fig1_join();
        let gt = gt_no_noise();
        let profile = profile_job(&dag, &gt, &[10, 40]);
        let (model, _) = profile.build_model(&dag);
        // The map1→join edge read must be nonzero remote and zeroable.
        let e0 = ditto_dag::EdgeId(0);
        assert!(model.edge_io(e0).read.alpha > 0.0);
        let none = model.no_colocation();
        let mut colo = none.clone();
        colo[0] = true;
        let join = StageId(2);
        assert!(
            model.exec_time(&dag, join, 8.0, &colo) < model.exec_time(&dag, join, 8.0, &none)
        );
    }

    #[test]
    #[should_panic(expected = "at least one profiled DoP")]
    fn empty_dops_rejected() {
        let dag = ditto_dag::generators::fig1_join();
        profile_job(&dag, &gt_no_noise(), &[]);
    }
}
