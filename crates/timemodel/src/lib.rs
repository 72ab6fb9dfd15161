#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss))]

//! # ditto-timemodel — step-based execution time model (paper §4.1)
//!
//! A stage's execution consists of *steps*: read, compute, write. The paper
//! models the time of each step as `α/d + β`, where `d` is the degree of
//! parallelism, `α/d` is the parallelizable portion and `β` the inherent
//! per-step overhead. Summed over the `m` steps of a stage:
//!
//! ```text
//! T(sᵢ, dᵢ, P) = Σₖ (αᵢₖ/dᵢ + βᵢₖ) = αᵢ/dᵢ + βᵢ            (paper Eq. 2)
//! ```
//!
//! Three refinements from §4.1 are implemented here:
//!
//! * **Shared memory:** when placement `P` co-locates the endpoint stages of
//!   an edge, that edge's read and write steps have `α = β = 0` (SPRIGHT's
//!   zero-copy exchange is microsecond-level regardless of data size).
//! * **Stragglers:** a stage's time is its slowest task's; a scaling factor
//!   (≥ 1) fitted from job history inflates the mean-task model.
//! * **Pipelining:** NIMBLE-style overlapping of an upstream write with the
//!   downstream read; a pipelined edge's read step is excluded from the
//!   downstream stage's (non-overlapped) execution time.
//!
//! The crate also provides:
//!
//! * `fit` — least-squares fitting of `(d, t)` profile samples to
//!   `α/d + β` (the offline model building the paper times in Table 2);
//! * `profile` — job profiles and model building;
//! * `resource` — the linear resource-usage model `M(s, d) = ρ + σ·d`
//!   (paper Eq. 5) and the stage cost `M · T`.

pub(crate) mod correction;
pub(crate) mod fit;
pub mod model;
pub(crate) mod profile;
pub(crate) mod resource;
pub(crate) mod step;

pub use correction::{ModelCorrections, StepCorrections};
pub use fit::fit_step;
pub use model::JobTimeModel;
pub use profile::{JobProfile, ProfileSample, StageProfile, StepTarget};
pub use resource::ResourceModel;
pub use step::{Step, StepKind};
