//! A single modeled execution step: `t(d) = α/d + β`.

use std::fmt;

/// The class of work a step performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Reading input (from external storage or an upstream stage).
    Read,
    /// CPU work; unaffected by placement.
    Compute,
    /// Writing output (to external storage or a downstream stage).
    Write,
}

impl fmt::Display for StepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StepKind::Read => "read",
            StepKind::Compute => "compute",
            StepKind::Write => "write",
        })
    }
}

/// One step of a stage with fitted parameters: `t(d) = α/d + β`.
///
/// `α` (seconds·tasks) is the parallelizable work: the time the step takes
/// with a single task. `β` (seconds) is the inherent overhead that no
/// parallelism removes (setup, request latency, stragglers' floor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// The step class (read / compute / write).
    pub(crate) kind: StepKind,
    /// Parallelizable time, seconds·tasks. Non-negative.
    pub alpha: f64,
    /// Inherent time, seconds. Non-negative.
    pub(crate) beta: f64,
}

impl Step {
    /// Construct a step; clamps tiny negative inputs (fitting noise) to 0
    /// and panics on substantially negative parameters.
    pub fn new(kind: StepKind, alpha: f64, beta: f64) -> Self {
        assert!(
            alpha > -1e-9 && beta > -1e-9,
            "step parameters must be non-negative (alpha={alpha}, beta={beta})"
        );
        Step {
            kind,
            alpha: alpha.max(0.0),
            beta: beta.max(0.0),
        }
    }

    /// A step that contributes no time (co-located zero-copy I/O).
    pub(crate) fn zero(kind: StepKind) -> Self {
        Step {
            kind,
            alpha: 0.0,
            beta: 0.0,
        }
    }

    /// Evaluate the step time at degree of parallelism `d` (> 0, may be
    /// fractional during ratio computation).
    pub fn eval(&self, d: f64) -> f64 {
        assert!(d > 0.0, "degree of parallelism must be positive");
        self.alpha / d + self.beta
    }

    /// `true` if the step contributes no time at any parallelism.
    #[cfg(test)]
    pub(crate) fn is_zero(&self) -> bool {
        self.alpha == 0.0 && self.beta == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_inverse_in_d() {
        let s = Step::new(StepKind::Compute, 60.0, 2.0);
        assert!((s.eval(1.0) - 62.0).abs() < 1e-12);
        assert!((s.eval(10.0) - 8.0).abs() < 1e-12);
        assert!((s.eval(60.0) - 3.0).abs() < 1e-12);
        // Monotone decreasing in d.
        assert!(s.eval(5.0) > s.eval(6.0));
    }

    #[test]
    fn zero_step() {
        let s = Step::zero(StepKind::Read);
        assert!(s.is_zero());
        assert_eq!(s.eval(3.0), 0.0);
    }

    #[test]
    fn clamps_fitting_noise() {
        let s = Step::new(StepKind::Write, -1e-12, -1e-12);
        assert_eq!(s.alpha, 0.0);
        assert_eq!(s.beta, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_alpha() {
        Step::new(StepKind::Read, -1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dop() {
        Step::new(StepKind::Read, 1.0, 0.0).eval(0.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(StepKind::Read.to_string(), "read");
        assert_eq!(StepKind::Compute.to_string(), "compute");
        assert_eq!(StepKind::Write.to_string(), "write");
    }
}
