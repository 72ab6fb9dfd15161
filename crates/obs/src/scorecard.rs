//! Predictor scorecard: a standing Fig.-11-style accuracy report.
//!
//! The simulator and the adaptive engine emit one `predictor.sample`
//! event per executed stage carrying the model's predicted step
//! durations (`pred_setup` … `pred_write`) next to the realized means
//! (`obs_setup` … `obs_write`). [`PredictorScorecard::from_trace`]
//! collects those samples — plus any `drift.detected` marks from the
//! [`DriftDetector`] — into the paper's Fig.-11 shape: a CDF of
//! per-stage prediction error, a per-step-class bias (mean
//! observed/predicted ratio, diagnosing *which* step the model gets
//! wrong), and the drift events annotating samples taken after the
//! environment moved away from the profile.
//!
//! [`DriftDetector`]: https://docs.rs/ditto-cluster

use crate::span::{AttrValue, TraceData};
use crate::timings::StepTimings;

const EPS: f64 = 1e-9;

/// One stage's predicted-vs-observed step timings.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorSample {
    /// Stage index.
    pub(crate) stage: u32,
    /// Sample instant, trace seconds (the stage's completion).
    pub(crate) ts: f64,
    /// Model-predicted per-task mean step durations.
    pub(crate) predicted: StepTimings,
    /// Realized per-task mean step durations.
    pub(crate) observed: StepTimings,
}

impl PredictorSample {
    /// Relative error of the stage's total step time:
    /// `|observed - predicted| / predicted` (0 when both are ~zero).
    pub(crate) fn rel_error(&self) -> f64 {
        let pred = self.predicted.total();
        let obs = self.observed.total();
        if pred > EPS {
            (obs - pred).abs() / pred
        } else if obs > EPS {
            f64::INFINITY
        } else {
            0.0
        }
    }
}

/// One drift mark from the runtime monitor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriftMark {
    /// Stage whose observations breached the drift band.
    pub(crate) stage: u32,
    /// Detection instant, trace seconds.
    pub(crate) ts: f64,
    /// Smoothed overall observed/predicted ratio at detection.
    pub(crate) factor: f64,
    /// Samples the detector had folded in.
    pub(crate) samples: u32,
}

/// The collected predictor-accuracy report. See the `scorecard` module docs.
#[derive(Debug, Clone, Default)]
pub struct PredictorScorecard {
    /// Per-stage samples, ordered by stage index.
    pub samples: Vec<PredictorSample>,
    /// Drift detections, in emission order.
    pub(crate) drift_marks: Vec<DriftMark>,
}

impl PredictorScorecard {
    /// Collect `predictor.sample` and `drift.detected` events from a
    /// finished trace.
    pub fn from_trace(data: &TraceData) -> Self {
        let mut samples = Vec::new();
        let mut drift_marks = Vec::new();
        for e in &data.events {
            let u64_attr = |key: &str| match e.attr(key) {
                Some(AttrValue::U64(v)) => Some(*v),
                _ => None,
            };
            let f64_attr = |key: &str| match e.attr(key) {
                Some(AttrValue::F64(v)) => Some(*v),
                Some(AttrValue::U64(v)) => Some(*v as f64),
                _ => None,
            };
            match e.name {
                "predictor.sample" => {
                    let Some(stage) = u64_attr("stage") else { continue };
                    let step = |prefix: &str, name: &str| {
                        f64_attr(&format!("{prefix}_{name}")).unwrap_or(0.0)
                    };
                    samples.push(PredictorSample {
                        stage: stage as u32,
                        ts: e.ts,
                        predicted: StepTimings::new(
                            step("pred", "setup"),
                            step("pred", "read"),
                            step("pred", "compute"),
                            step("pred", "write"),
                        ),
                        observed: StepTimings::new(
                            step("obs", "setup"),
                            step("obs", "read"),
                            step("obs", "compute"),
                            step("obs", "write"),
                        ),
                    });
                }
                "drift.detected" => {
                    let Some(stage) = u64_attr("stage") else { continue };
                    drift_marks.push(DriftMark {
                        stage: stage as u32,
                        ts: e.ts,
                        factor: f64_attr("factor").unwrap_or(1.0),
                        samples: u64_attr("samples").unwrap_or(0) as u32,
                    });
                }
                _ => {}
            }
        }
        samples.sort_by(|a, b| a.stage.cmp(&b.stage).then(a.ts.total_cmp(&b.ts)));
        PredictorScorecard {
            samples,
            drift_marks,
        }
    }

    /// Sorted per-stage relative errors — the x-axis of a Fig.-11 CDF.
    pub(crate) fn error_cdf(&self) -> Vec<f64> {
        let mut errors: Vec<f64> = self.samples.iter().map(PredictorSample::rel_error).collect();
        errors.sort_by(f64::total_cmp);
        errors
    }

    /// The `q`-quantile (0..=1) of the relative-error distribution, by
    /// nearest-rank; 0 when there are no samples.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let cdf = self.error_cdf();
        if cdf.is_empty() {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * cdf.len() as f64).ceil() as usize).max(1) - 1;
        cdf[rank.min(cdf.len() - 1)]
    }

    /// Mean observed/predicted ratio per step class — the model's bias
    /// (1.0 = calibrated, >1 = underprediction). Steps with ~zero
    /// prediction are skipped (no signal).
    pub(crate) fn step_bias(&self) -> StepTimings {
        let mut sums = StepTimings::zero();
        let mut counts = [0u32; 4];
        for s in &self.samples {
            let obs = s.observed.as_tuple();
            let pred = s.predicted.as_tuple();
            let slots = [
                &mut sums.setup,
                &mut sums.read,
                &mut sums.compute,
                &mut sums.write,
            ];
            let obs = [obs.0, obs.1, obs.2, obs.3];
            let pred = [pred.0, pred.1, pred.2, pred.3];
            for i in 0..4 {
                if pred[i] > EPS {
                    *slots[i] += obs[i] / pred[i];
                    counts[i] += 1;
                }
            }
        }
        StepTimings::new(
            if counts[0] > 0 { sums.setup / counts[0] as f64 } else { 1.0 },
            if counts[1] > 0 { sums.read / counts[1] as f64 } else { 1.0 },
            if counts[2] > 0 { sums.compute / counts[2] as f64 } else { 1.0 },
            if counts[3] > 0 { sums.write / counts[3] as f64 } else { 1.0 },
        )
    }

    /// Stages with at least one drift mark at or before the sample's
    /// instant — samples the profile could not have been right for.
    fn drifted(&self, sample: &PredictorSample) -> bool {
        self.drift_marks
            .iter()
            .any(|m| m.stage == sample.stage && m.ts <= sample.ts + EPS)
    }

    /// Human-readable scorecard table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "predictor scorecard: {} stage samples, {} drift marks\n",
            self.samples.len(),
            self.drift_marks.len()
        ));
        out.push_str(&format!(
            "{:>6} {:>10} {:>10} {:>9} {}\n",
            "stage", "pred(s)", "obs(s)", "err", "drift"
        ));
        for s in &self.samples {
            out.push_str(&format!(
                "{:>6} {:>10.4} {:>10.4} {:>8.1}% {}\n",
                s.stage,
                s.predicted.total(),
                s.observed.total(),
                100.0 * s.rel_error(),
                if self.drifted(s) { "drifted" } else { "-" },
            ));
        }
        let bias = self.step_bias();
        out.push_str(&format!(
            "bias (obs/pred): setup {:.3}  read {:.3}  compute {:.3}  write {:.3}\n",
            bias.setup, bias.read, bias.compute, bias.write
        ));
        out.push_str(&format!(
            "error quantiles: p50 {:.1}%  p90 {:.1}%  max {:.1}%\n",
            100.0 * self.quantile(0.5),
            100.0 * self.quantile(0.9),
            100.0 * self.quantile(1.0),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Track};

    fn sample(rec: &Recorder, stage: u32, ts: f64, pred: [f64; 4], obs: [f64; 4]) {
        rec.event(
            "predictor.sample",
            Track::job(stage),
            ts,
            vec![
                ("stage", stage.into()),
                ("pred_setup", pred[0].into()),
                ("pred_read", pred[1].into()),
                ("pred_compute", pred[2].into()),
                ("pred_write", pred[3].into()),
                ("obs_setup", obs[0].into()),
                ("obs_read", obs[1].into()),
                ("obs_compute", obs[2].into()),
                ("obs_write", obs[3].into()),
            ],
        );
    }

    #[test]
    fn perfect_predictions_score_zero_error() {
        let rec = Recorder::new();
        sample(&rec, 0, 1.0, [0.1, 1.0, 2.0, 0.5], [0.1, 1.0, 2.0, 0.5]);
        sample(&rec, 1, 2.0, [0.1, 0.5, 3.0, 0.2], [0.1, 0.5, 3.0, 0.2]);
        let card = PredictorScorecard::from_trace(&rec.finish());
        assert_eq!(card.samples.len(), 2);
        assert_eq!(card.error_cdf(), vec![0.0, 0.0]);
        assert_eq!(card.quantile(0.9), 0.0);
        let bias = card.step_bias();
        for v in [bias.setup, bias.read, bias.compute, bias.write] {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(card.render().contains("2 stage samples"));
    }

    #[test]
    fn compute_drift_shows_as_compute_bias() {
        let rec = Recorder::new();
        // Compute takes 2x the prediction on both stages.
        sample(&rec, 0, 1.0, [0.1, 1.0, 2.0, 0.5], [0.1, 1.0, 4.0, 0.5]);
        sample(&rec, 1, 2.0, [0.1, 0.5, 3.0, 0.2], [0.1, 0.5, 6.0, 0.2]);
        let card = PredictorScorecard::from_trace(&rec.finish());
        let bias = card.step_bias();
        assert!((bias.compute - 2.0).abs() < 1e-12);
        assert!((bias.read - 1.0).abs() < 1e-12);
        assert!(card.quantile(0.5) > 0.4, "p50 {}", card.quantile(0.5));
    }

    #[test]
    fn drift_marks_annotate_later_samples() {
        let rec = Recorder::new();
        sample(&rec, 3, 1.0, [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0]);
        rec.event(
            "drift.detected",
            Track::scheduler(1),
            1.5,
            vec![
                ("stage", 3u32.into()),
                ("factor", 1.8f64.into()),
                ("samples", 4u64.into()),
            ],
        );
        sample(&rec, 3, 2.0, [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.9, 0.0]);
        let card = PredictorScorecard::from_trace(&rec.finish());
        assert_eq!(card.drift_marks.len(), 1);
        assert!((card.drift_marks[0].factor - 1.8).abs() < 1e-12);
        assert!(!card.drifted(&card.samples[0]), "pre-drift sample clean");
        assert!(card.drifted(&card.samples[1]), "post-drift sample marked");
    }

    #[test]
    fn zero_prediction_with_observation_is_infinite_error() {
        let s = PredictorSample {
            stage: 0,
            ts: 0.0,
            predicted: StepTimings::zero(),
            observed: StepTimings::new(0.0, 1.0, 0.0, 0.0),
        };
        assert!(s.rel_error().is_infinite());
        let z = PredictorSample {
            stage: 0,
            ts: 0.0,
            predicted: StepTimings::zero(),
            observed: StepTimings::zero(),
        };
        assert_eq!(z.rel_error(), 0.0);
    }

    #[test]
    fn empty_trace_yields_empty_scorecard() {
        let card = PredictorScorecard::from_trace(&Recorder::new().finish());
        assert!(card.samples.is_empty());
        assert_eq!(card.quantile(0.5), 0.0);
    }
}
