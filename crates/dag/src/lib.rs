#![warn(missing_docs)]

//! # ditto-dag — job DAG substrate
//!
//! Data analytics jobs are represented as directed acyclic graphs (DAGs) of
//! *stages*; each stage executes as a configurable number of parallel tasks
//! (the *degree of parallelism*, DoP). Edges are *data dependencies* between
//! stages and carry a communication pattern ([`EdgeKind`]): shuffle, gather,
//! or all-gather/broadcast.
//!
//! This crate is the structural substrate of the Ditto reproduction:
//!
//! * [`JobDag`] — the graph itself, with validation, topological ordering,
//!   depth labelling (distance to the final stage, as used by the bottom-up
//!   DoP ratio computation of the paper's Algorithm 1), and path utilities.
//! * [`builder::DagBuilder`] — fluent construction API.
//! * [`paths`] — path enumeration and weighted critical-path computation
//!   (the object the greedy grouping algorithm of §4.3 manipulates).
//! * [`generators`] — canonical DAG shapes used throughout the paper and the
//!   evaluation: the Fig. 1 join DAG, the Q95 9-stage DAG of Fig. 13, chains,
//!   fan-in trees, diamonds and seeded random DAGs.
//!
//! The crate is deliberately free of scheduling logic: time models live in
//! `ditto-timemodel`, the scheduler in `ditto-core`.

pub(crate) mod builder;
pub(crate) mod error;
pub mod generators;
pub(crate) mod graph;
pub mod paths;
pub(crate) mod stage;

pub use builder::DagBuilder;
pub use graph::{EdgeId, EdgeKind, JobDag};
pub use stage::{StageId, StageKind};
