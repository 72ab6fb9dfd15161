#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

//! # ditto-sql — a columnar mini analytics engine
//!
//! The paper evaluates Ditto on TPC-DS queries executed by "a data
//! analytics execution engine atop SPRIGHT \[that\] integrates a set of SQL
//! operators (e.g., join and groupby)" (§5). This crate is that substrate,
//! built from scratch:
//!
//! * [`mod@column`] / [`table`] — typed columnar storage with
//!   selection-vector row selection (`selvec`), single-pass hash
//!   partitioning and a compact binary codec (bulk little-endian numeric
//!   runs, dictionary-encoded strings) so intermediate tables can travel
//!   through the `ditto-storage` data plane;
//! * `expr` — predicates over columns, evaluated on typed slices;
//! * [`ops`] — scan, filter/project, hash join (inner/semi/anti),
//!   group-by aggregation (sum/count/count-distinct/avg/min/max, with
//!   `HAVING`), distinct and sort-limit. Joins and group-bys run on
//!   typed key fast paths (`hash`, `dict`) and are proven
//!   bit-identical to the retained row-at-a-time [`mod@reference`]
//!   implementations;
//! * [`datagen`] — a synthetic TPC-DS-like database generator with a
//!   configurable scale factor preserving the benchmark's relative table
//!   sizes and key skew;
//! * [`queries`] — Q1, Q16, Q94 and Q95 hand-lowered to stage DAGs
//!   ([`plan::QueryPlan`]) with per-stage operators the execution engine
//!   interprets, plus single-threaded reference implementations used to
//!   verify distributed results. Q95's DAG reproduces Fig. 13 exactly
//!   (9 stages, two broadcast joins).

pub mod column;
// DET03 covers the kernels; the data generator, the query definitions and
// the reference implementations are order-insensitive and exempt.
#[allow(clippy::disallowed_methods)]
pub mod datagen;
pub(crate) mod dict;
pub(crate) mod expr;
pub(crate) mod hash;
pub mod ops;
pub mod plan;
#[allow(clippy::disallowed_methods)]
pub mod queries;
#[allow(clippy::disallowed_methods)]
pub mod reference;
pub(crate) mod selvec;
pub mod table;

pub use column::Column;
pub use datagen::{Database, ScaleConfig};
pub use expr::{CmpOp, Pred};
pub use plan::{JoinKind, QueryPlan, StageOp, StageSpec};
pub use selvec::SelVec;
pub use table::{Schema, Table};
