//! Relational operators: join, group-by, distinct, sort-limit.
//!
//! Filter and projection live on [`crate::table::Table`] directly
//! (`filter`, `project`); this module holds the operators with real
//! algorithmic content. All operators are deterministic: outputs are in a
//! stable row order so distributed runs can be compared to single-threaded
//! references.

pub mod group_by;
pub(crate) mod join;
pub(crate) mod sort;

pub use group_by::{group_by, AggSpec};
pub use join::{hash_join, JoinKind};
pub use sort::{distinct, sort_limit, SortOrder};
