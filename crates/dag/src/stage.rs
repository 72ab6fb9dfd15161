//! Stage identifiers and metadata.

use std::fmt;

/// Identifier of a stage within a [`crate::JobDag`].
///
/// Stage ids are dense indices assigned in insertion order; they double as
/// indices into the DAG's internal stage vector, so lookups are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u32);

impl StageId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The operator class a stage primarily performs.
///
/// The scheduler itself is operator-agnostic (it consumes only the fitted
/// time model), but the kind is carried for trace readability and for the
/// SQL lowering in `ditto-sql`, and it determines reasonable defaults for
/// the ground-truth performance model in `ditto-exec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Input scan + per-row transformation (projection / filter).
    Map,
    /// Hash/merge join of two upstream stages.
    Join,
    /// Group-by aggregation.
    GroupBy,
    /// Generic reduction (final aggregation, sort-limit, output write).
    Reduce,
    /// Anything else; treated like `Map` where a default is needed.
    Custom,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageKind::Map => "map",
            StageKind::Join => "join",
            StageKind::GroupBy => "groupby",
            StageKind::Reduce => "reduce",
            StageKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A stage: one node of the job DAG, executed as `DoP` parallel tasks.
///
/// The stage records *static* workload characteristics — estimated input and
/// output volume — which the NIMBLE baseline uses directly (DoP proportional
/// to input size) and which seed the ground-truth performance model. The
/// *fitted* execution-time model (α/d + β per step) lives in
/// `ditto-timemodel` and is keyed by [`StageId`].
#[derive(Debug, Clone)]
pub struct Stage {
    /// Dense identifier within the owning DAG.
    pub id: StageId,
    /// Human-readable name (e.g. `"map1"`, `"join2"`), unique per DAG.
    pub name: String,
    /// Primary operator class.
    pub kind: StageKind,
    /// Estimated bytes read from job input (external tables), excluding
    /// intermediate data received from upstream stages.
    pub input_bytes: u64,
    /// Estimated bytes produced for downstream stages (or as job output).
    pub output_bytes: u64,
}

impl Stage {
    /// Create a stage with the given name and kind and zero I/O estimates.
    pub(crate) fn new(id: StageId, name: impl Into<String>, kind: StageKind) -> Self {
        Stage {
            id,
            name: name.into(),
            kind,
            input_bytes: 0,
            output_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_id_display_and_index() {
        let id = StageId(7);
        assert_eq!(id.to_string(), "s7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn stage_kind_display() {
        assert_eq!(StageKind::Map.to_string(), "map");
        assert_eq!(StageKind::Join.to_string(), "join");
        assert_eq!(StageKind::GroupBy.to_string(), "groupby");
        assert_eq!(StageKind::Reduce.to_string(), "reduce");
        assert_eq!(StageKind::Custom.to_string(), "custom");
    }

    #[test]
    fn stage_new_defaults() {
        let s = Stage::new(StageId(0), "map1", StageKind::Map);
        assert_eq!(s.input_bytes, 0);
        assert_eq!(s.output_bytes, 0);
        assert_eq!(s.name, "map1");
    }

    #[test]
    fn stage_id_ordering_follows_index() {
        assert!(StageId(1) < StageId(2));
        assert_eq!(StageId(3), StageId(3));
    }
}
