#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::cast_sign_loss, clippy::disallowed_types))]

//! # ditto-core — the Ditto scheduler (the paper's contribution)
//!
//! Ditto schedules a serverless analytics job — a DAG of stages — onto a
//! cluster of function servers, jointly choosing each stage's **degree of
//! parallelism** (DoP) and its **placement**, to minimize either job
//! completion time (JCT) or cost. The key idea is a new scheduling
//! granularity, the **stage group**: stages bundled by data dependency and
//! I/O characteristics, placed on one server so their shuffle runs through
//! zero-copy shared memory.
//!
//! The three algorithms of §4, implemented faithfully:
//!
//! * [`dop`] — *DoP ratio computing* (Algorithm 1): a bottom-up
//!   stage-merging pass over the DAG. Consecutive (parent–child) stages get
//!   DoPs in the ratio `dᵢ/dⱼ = √(αᵢ/αⱼ)` (optimal by Cauchy–Schwarz,
//!   Appendix A.1); sibling stages get `dᵢ/dⱼ = αᵢ/αⱼ` (balanced paths,
//!   Appendix A.2). Cost optimization reduces to single-path JCT with
//!   weights `ρᵢαᵢ` (§4.2).
//! * [`grouping`] — *greedy grouping* (Algorithm 2): traverse edges in
//!   descending shuffle weight — re-deriving the critical path after each
//!   grouping for the JCT objective — and bundle their endpoint stages.
//! * [`placement`] — the best-fit *placement check* (§4.4) with gather
//!   decomposition of stage groups into task groups (§4.5, Fig. 7).
//! * [`joint`] — the *joint iterative optimization* (Algorithm 3) combining
//!   all three with backtracking; the objective is non-increasing across
//!   iterations (Inequality 6).
//!
//! [`baselines`] implements the comparison points of the evaluation:
//! NIMBLE (DoP ∝ input size, random placement), NIMBLE+Group, NIMBLE+DoP,
//! fixed and even-split parallelism.

pub mod baselines;
pub mod deadline;
pub mod dop;
pub mod grouping;
pub mod joint;
pub(crate) mod objective;
pub mod placement;
pub mod predict;
pub mod reference;
pub(crate) mod schedule;
pub(crate) mod scheduler;

pub use dop::{compute_dop, DopAssignment};
pub use grouping::StageGroups;
pub use joint::{
    joint_optimize, joint_optimize_traced, joint_optimize_with_stats, GroupOrderPolicy,
    JointOptions, JointStats,
};
pub use objective::Objective;
pub use placement::FitStrategy;
pub use predict::{predicted_cost, predicted_jct};
pub use schedule::{Schedule, TaskPlacement};
pub use scheduler::{DittoScheduler, Scheduler, SchedulingContext};
