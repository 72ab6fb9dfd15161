#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

//! # ditto-cluster — simulated function-server cluster
//!
//! The paper's testbed is eight 96-vCPU servers, each hosting a bounded
//! number of single-core *function slots*; the control plane sees only the
//! per-server free-slot counts. This crate reproduces that resource surface:
//!
//! * [`Cluster`] — the free-slot vector of a testbed (8 × 96 slots in the
//!   paper), and [`ServerId`] naming one of its servers;
//! * [`SlotDistribution`] — the §6.1 availability patterns: uniform slot
//!   usage (100–25 %), `Norm-1.0`/`Norm-0.8` and `Zipf-0.9`/`Zipf-0.99`
//!   per-server slot ratios;
//! * [`ResourceManager`] — snapshot + transactional allocation used by the
//!   scheduler's placement check;
//! * [`RuntimeMonitor`] — per-task runtime statistics collection (the
//!   paper's per-server runtime monitor), feeding profiles back into the
//!   execution-time model.

pub(crate) mod cluster;
pub(crate) mod distribution;
pub(crate) mod manager;
pub(crate) mod monitor;
pub(crate) mod server;

pub use cluster::Cluster;
pub use distribution::SlotDistribution;
pub use manager::ResourceManager;
pub use monitor::{DriftDetector, RuntimeMonitor, TaskRecord};
pub use server::ServerId;
