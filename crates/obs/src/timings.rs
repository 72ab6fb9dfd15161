//! The shared step-timing shape: setup / read / compute / write seconds.
//!
//! Task timelines in `ditto-exec` and runtime-monitor records in
//! `ditto-cluster` carry the same four step durations; this struct is the
//! single definition both reuse (and the unit the critical-path analyzer
//! attributes JCT into).

/// Durations of the four steps of one task (or means over many), seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepTimings {
    /// Container / function setup.
    pub setup: f64,
    /// Reading inputs (external or intermediate).
    pub read: f64,
    /// Pure computation.
    pub compute: f64,
    /// Writing outputs.
    pub write: f64,
}

impl StepTimings {
    /// All-zero timings.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Timings from explicit step durations.
    pub fn new(setup: f64, read: f64, compute: f64, write: f64) -> Self {
        StepTimings {
            setup,
            read,
            compute,
            write,
        }
    }

    /// Total across the four steps.
    pub fn total(&self) -> f64 {
        self.setup + self.read + self.compute + self.write
    }

    /// Element-wise accumulate (for building sums before [`scaled`]).
    ///
    /// [`scaled`]: StepTimings::scaled
    pub fn accumulate(&mut self, other: &StepTimings) {
        self.setup += other.setup;
        self.read += other.read;
        self.compute += other.compute;
        self.write += other.write;
    }

    /// Element-wise scale (e.g. `sum.scaled(1.0 / n)` for a mean).
    pub fn scaled(&self, k: f64) -> StepTimings {
        StepTimings {
            setup: self.setup * k,
            read: self.read * k,
            compute: self.compute * k,
            write: self.write * k,
        }
    }

    /// The steps as `(setup, read, compute, write)`.
    pub fn as_tuple(&self) -> (f64, f64, f64, f64) {
        (self.setup, self.read, self.compute, self.write)
    }

    /// Element-wise observed/predicted ratio against `predicted`.
    ///
    /// Steps whose prediction is ~zero (below `eps`) yield a neutral 1.0 —
    /// there is no signal to learn a correction from when the model says a
    /// step costs nothing. The drift detector in `ditto-cluster` feeds
    /// these ratios into its per-step EWMAs.
    pub fn ratio_to(&self, predicted: &StepTimings, eps: f64) -> StepTimings {
        let r = |obs: f64, pred: f64| if pred > eps { obs / pred } else { 1.0 };
        StepTimings {
            setup: r(self.setup, predicted.setup),
            read: r(self.read, predicted.read),
            compute: r(self.compute, predicted.compute),
            write: r(self.write, predicted.write),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_means() {
        let mut sum = StepTimings::zero();
        sum.accumulate(&StepTimings::new(0.5, 1.0, 2.0, 0.5));
        sum.accumulate(&StepTimings::new(0.5, 3.0, 4.0, 1.5));
        assert_eq!(sum.total(), 13.0);
        let mean = sum.scaled(0.5);
        assert_eq!(mean.as_tuple(), (0.5, 2.0, 3.0, 1.0));
    }

    #[test]
    fn ratios_with_zero_guard() {
        let obs = StepTimings::new(1.0, 4.0, 6.0, 0.5);
        let pred = StepTimings::new(1.0, 2.0, 3.0, 0.0);
        let r = obs.ratio_to(&pred, 1e-9);
        assert_eq!(r.as_tuple(), (1.0, 2.0, 2.0, 1.0));
    }
}
