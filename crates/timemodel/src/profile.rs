//! Job profiles and offline model building (paper §4.1, Table 2).
//!
//! Production analytics jobs are recurring; Ditto fits the step model from
//! the profiles of previous executions (about five distinct DoPs per step
//! suffice). [`JobProfile::build_model`] performs that fit and reports how
//! long it took — the quantity Table 2 of the paper measures (~200 ms per
//! query there, microseconds here since fitting is closed-form).

use crate::fit::fit_step;
use crate::model::{EdgeIo, JobTimeModel, StageSteps};
use crate::resource::ResourceModel;
use crate::step::{Step, StepKind};
use ditto_dag::{EdgeId, JobDag, StageId};
use std::time::{Duration, Instant};

/// Which fine-grained step of a stage a set of samples profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepTarget {
    /// The CPU step.
    Compute,
    /// Reading the stage's external input.
    ExternalRead,
    /// Writing the stage's external output.
    ExternalWrite,
    /// Reading intermediate data arriving over the given edge.
    EdgeRead(EdgeId),
    /// Writing intermediate data departing over the given edge.
    EdgeWrite(EdgeId),
}

/// One profiled execution of one step at one degree of parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSample {
    /// Degree of parallelism the stage ran with.
    pub dop: u32,
    /// Mean task time for this step, seconds.
    pub mean_seconds: f64,
    /// Slowest task time for this step, seconds (straggler evidence).
    pub max_seconds: f64,
}

impl ProfileSample {
    /// A sample with no straggler skew.
    #[cfg(test)]
    pub(crate) fn even(dop: u32, seconds: f64) -> Self {
        ProfileSample {
            dop,
            mean_seconds: seconds,
            max_seconds: seconds,
        }
    }
}

/// All profiled steps of one stage.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// The profiled stage.
    pub(crate) stage: StageId,
    /// Samples per step target; steps absent here fit to zero.
    pub steps: Vec<(StepTarget, Vec<ProfileSample>)>,
}

impl StageProfile {
    /// New empty profile for a stage.
    pub fn new(stage: StageId) -> Self {
        StageProfile {
            stage,
            steps: Vec::new(),
        }
    }

    /// Append samples for one step target.
    #[cfg(test)]
    pub(crate) fn with_step(mut self, target: StepTarget, samples: Vec<ProfileSample>) -> Self {
        self.steps.push((target, samples));
        self
    }
}

/// A full job profile: per-stage step samples plus resource models.
#[derive(Debug, Clone)]
pub struct JobProfile {
    /// Per-stage profiles; stages without a profile get zero steps.
    pub(crate) stages: Vec<StageProfile>,
    /// Per-stage resource models (`M(s,d) = ρ + σd`); when empty, defaults
    /// are used for every stage.
    pub resources: Vec<(StageId, ResourceModel)>,
}

impl JobProfile {
    /// Empty profile.
    pub fn new() -> Self {
        JobProfile {
            stages: Vec::new(),
            resources: Vec::new(),
        }
    }

    /// Add a stage profile.
    pub fn add_stage(&mut self, p: StageProfile) {
        self.stages.push(p);
    }

    /// Fit the execution-time model from the profile. Returns the model and
    /// the wall-clock time the fit took (Table 2's metric).
    ///
    /// The straggler scaling factor of each stage is estimated as the mean
    /// of `max/mean` task-time ratios over all its samples, clamped to ≥ 1
    /// (§4.1 "Modeling stragglers": dynamically tuned from job history).
    pub fn build_model(&self, dag: &JobDag) -> (JobTimeModel, Duration) {
        let start = Instant::now();
        let mut stages: Vec<StageSteps> = (0..dag.num_stages())
            .map(|_| StageSteps {
                compute: Step::zero(StepKind::Compute),
                external_read: Step::zero(StepKind::Read),
                external_write: Step::zero(StepKind::Write),
            })
            .collect();
        // Pipelining annotations travel with the job DAG (§4.5: "Ditto
        // adjusts the profile by reading the pipelining annotation").
        let mut edges: Vec<EdgeIo> = dag
            .edges()
            .iter()
            .map(|e| {
                let mut io = EdgeIo::zero();
                io.pipelined = e.pipelined;
                io
            })
            .collect();
        let mut scaling = vec![1.0_f64; dag.num_stages()];

        for sp in &self.stages {
            let mut ratio_sum = 0.0;
            let mut ratio_n = 0usize;
            for (target, samples) in &sp.steps {
                if samples.is_empty() {
                    continue;
                }
                for s in samples {
                    if s.mean_seconds > 1e-12 {
                        ratio_sum += s.max_seconds / s.mean_seconds;
                        ratio_n += 1;
                    }
                }
                let pts: Vec<(u32, f64)> =
                    samples.iter().map(|s| (s.dop, s.mean_seconds)).collect();
                // A single sample can't separate α from β; attribute it all
                // to the parallelizable part (the common case for big data).
                let (alpha, beta) = if pts.len() == 1 {
                    (pts[0].1 * pts[0].0 as f64, 0.0)
                } else {
                    let fit = fit_step(&pts);
                    (fit.alpha, fit.beta)
                };
                match *target {
                    StepTarget::Compute => {
                        stages[sp.stage.index()].compute = Step::new(StepKind::Compute, alpha, beta)
                    }
                    StepTarget::ExternalRead => {
                        stages[sp.stage.index()].external_read =
                            Step::new(StepKind::Read, alpha, beta)
                    }
                    StepTarget::ExternalWrite => {
                        stages[sp.stage.index()].external_write =
                            Step::new(StepKind::Write, alpha, beta)
                    }
                    StepTarget::EdgeRead(e) => {
                        edges[e.index()].read = Step::new(StepKind::Read, alpha, beta)
                    }
                    StepTarget::EdgeWrite(e) => {
                        edges[e.index()].write = Step::new(StepKind::Write, alpha, beta)
                    }
                }
            }
            if ratio_n > 0 {
                scaling[sp.stage.index()] = (ratio_sum / ratio_n as f64).max(1.0);
            }
        }

        let mut resources = vec![ResourceModel::default(); dag.num_stages()];
        for (s, r) in &self.resources {
            resources[s.index()] = *r;
        }
        let mut model = JobTimeModel::new(dag, stages, edges, resources);
        for (i, sc) in scaling.into_iter().enumerate() {
            model.set_scaling(StageId(i as u32), sc);
        }
        (model, start.elapsed())
    }
}

impl Default for JobProfile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_dag::generators;

    /// Synthesize samples from a known ground truth α/β at 5 DoPs — the
    /// paper's methodology (five profiled parallelism degrees, §6.5).
    fn samples(alpha: f64, beta: f64, straggle: f64) -> Vec<ProfileSample> {
        [10u32, 20, 40, 80, 120]
            .iter()
            .map(|&d| {
                let mean = alpha / d as f64 + beta;
                ProfileSample {
                    dop: d,
                    mean_seconds: mean,
                    max_seconds: mean * straggle,
                }
            })
            .collect()
    }

    #[test]
    fn builds_model_recovering_ground_truth() {
        let dag = generators::fig1_join();
        let mut profile = JobProfile::new();
        profile.add_stage(
            StageProfile::new(StageId(0))
                .with_step(StepTarget::Compute, samples(60.0, 1.0, 1.0))
                .with_step(StepTarget::ExternalRead, samples(100.0, 0.5, 1.0))
                .with_step(StepTarget::EdgeWrite(EdgeId(0)), samples(8.0, 0.5, 1.0)),
        );
        let (model, took) = profile.build_model(&dag);
        let none = model.no_colocation();
        let a = model.stage_alpha(&dag, StageId(0), &none);
        assert!((a - 168.0).abs() < 1e-6, "alpha={a}");
        let b = model.stage_beta(&dag, StageId(0), &none);
        assert!((b - 2.0).abs() < 1e-6, "beta={b}");
        assert!(took < Duration::from_secs(1));
    }

    #[test]
    fn straggler_ratio_becomes_scaling() {
        let dag = generators::fig1_join();
        let mut profile = JobProfile::new();
        profile.add_stage(
            StageProfile::new(StageId(1)).with_step(StepTarget::Compute, samples(40.0, 0.0, 1.3)),
        );
        let (model, _) = profile.build_model(&dag);
        assert!((model.scaling(StageId(1)) - 1.3).abs() < 1e-9);
        // Unprofiled stages keep scaling 1.
        assert_eq!(model.scaling(StageId(0)), 1.0);
    }

    #[test]
    fn single_sample_goes_to_alpha() {
        let dag = generators::fig1_join();
        let mut profile = JobProfile::new();
        profile.add_stage(
            StageProfile::new(StageId(0))
                .with_step(StepTarget::Compute, vec![ProfileSample::even(10, 6.0)]),
        );
        let (model, _) = profile.build_model(&dag);
        let st = model.stage_steps(StageId(0));
        assert!((st.compute.alpha - 60.0).abs() < 1e-9);
        assert_eq!(st.compute.beta, 0.0);
    }

    #[test]
    fn resource_overrides_apply() {
        let dag = generators::fig1_join();
        let mut profile = JobProfile::new();
        profile
            .resources
            .push((StageId(2), ResourceModel::new(7.0, 0.25)));
        let (model, _) = profile.build_model(&dag);
        assert_eq!(model.resource(StageId(2)).rho, 7.0);
        assert_eq!(model.resource(StageId(0)).rho, 1.0); // default elsewhere
    }

    #[test]
    fn unprofiled_stages_are_zero() {
        let dag = generators::fig1_join();
        let (model, _) = JobProfile::new().build_model(&dag);
        let none = model.no_colocation();
        assert_eq!(model.stage_alpha(&dag, StageId(0), &none), 0.0);
        assert_eq!(model.stage_beta(&dag, StageId(0), &none), 0.0);
    }
}
