#![warn(missing_docs)]

//! # ditto-bench — the evaluation harness
//!
//! One function per table and figure of the paper's §6, all built on the
//! same pipeline (`setup`):
//!
//! 1. generate the synthetic TPC-DS-like database,
//! 2. lower and *measure* the query plan (laptop-scale volumes), then
//!    scale volumes to paper magnitudes,
//! 3. profile the job against the ground truth at five DoPs and fit the
//!    execution-time model (the scheduler never sees the ground truth
//!    directly — only this honest fit, as in the paper),
//! 4. schedule with Ditto and the baselines, simulate, and report.
//!
//! The `figures` binary renders any experiment as an ASCII table and JSON,
//! scheduling and model-building overhead (Tables 1 and 2) included.

pub(crate) mod ablations;
pub(crate) mod adapt;
pub mod audit_sweep;
pub mod crash;
pub(crate) mod experiments;
pub(crate) mod race_sweep;
pub(crate) mod report;
pub mod sched_bench;
pub(crate) mod setup;
pub mod sql_bench;
pub(crate) mod telemetry;

pub use ablations::all_ablations;
pub use adapt::{adapt_sweep, adapt_sweep_smoke, traced_adapt_pair};
pub use audit_sweep::{audit_sweep, audit_sweep_traced, sweep_is_clean, AUDIT_SWEEP_SEEDS};
pub use crash::{crash_sweep, crash_sweep_smoke, traced_crash_recovery};
pub use experiments::*;
pub use race_sweep::{race_certify, race_explore};
pub use report::{render_rows, write_json};
pub use sched_bench::sched_bench_sizes;
pub use sql_bench::sql_bench;
pub use telemetry::traced_fault_run;
