//! Fluent DAG construction.

use crate::error::DagError;
use crate::graph::{EdgeKind, JobDag};
use crate::stage::{StageId, StageKind};
use std::collections::HashMap;

/// Fluent builder for [`JobDag`]s, addressing stages by name.
///
/// ```
/// use ditto_dag::{DagBuilder, EdgeKind, StageKind};
///
/// let dag = DagBuilder::new("join-job")
///     .stage("map1", StageKind::Map, 1 << 30, 100 << 20)
///     .stage("map2", StageKind::Map, 256 << 20, 25 << 20)
///     .stage("join", StageKind::Join, 0, 10 << 20)
///     .edge("map1", "join", EdgeKind::Shuffle, 100 << 20)
///     .edge("map2", "join", EdgeKind::Shuffle, 25 << 20)
///     .build()
///     .unwrap();
/// assert_eq!(dag.num_stages(), 3);
/// ```
pub struct DagBuilder {
    dag: JobDag,
    by_name: HashMap<String, StageId>,
    pending_error: Option<DagError>,
}

impl DagBuilder {
    /// Start building a DAG with the given job name.
    pub fn new(name: impl Into<String>) -> Self {
        DagBuilder {
            dag: JobDag::new(name),
            by_name: HashMap::new(),
            pending_error: None,
        }
    }

    /// Add a stage with external input/output byte estimates.
    pub fn stage(
        mut self,
        name: impl Into<String>,
        kind: StageKind,
        input_bytes: u64,
        output_bytes: u64,
    ) -> Self {
        if self.pending_error.is_some() {
            return self;
        }
        let name = name.into();
        if self.by_name.contains_key(&name) {
            self.pending_error = Some(DagError::DuplicateName(name));
            return self;
        }
        let id = self.dag.add_stage(name.clone(), kind);
        {
            let s = self.dag.stage_mut(id);
            s.input_bytes = input_bytes;
            s.output_bytes = output_bytes;
        }
        self.by_name.insert(name, id);
        self
    }

    /// Add a data dependency between two previously declared stages.
    pub fn edge(
        mut self,
        src: impl AsRef<str>,
        dst: impl AsRef<str>,
        kind: EdgeKind,
        bytes: u64,
    ) -> Self {
        if self.pending_error.is_some() {
            return self;
        }
        let (src, dst) = (src.as_ref(), dst.as_ref());
        let Some(&s) = self.by_name.get(src) else {
            // Reported as UnknownStage with a sentinel id: names are the
            // builder's address space, ids only exist after declaration.
            self.pending_error = Some(DagError::DuplicateName(format!("unknown stage {src:?}")));
            return self;
        };
        let Some(&d) = self.by_name.get(dst) else {
            self.pending_error = Some(DagError::DuplicateName(format!("unknown stage {dst:?}")));
            return self;
        };
        if let Err(e) = self.dag.add_edge(s, d, kind, bytes) {
            self.pending_error = Some(e);
        }
        self
    }

    /// Finish building: validates and returns the DAG.
    pub fn build(self) -> Result<JobDag, DagError> {
        if let Some(e) = self.pending_error {
            return Err(e);
        }
        self.dag.validate()?;
        Ok(self.dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_named_dag() {
        let dag = DagBuilder::new("t")
            .stage("a", StageKind::Map, 100, 50)
            .stage("b", StageKind::Reduce, 0, 10)
            .edge("a", "b", EdgeKind::Gather, 50)
            .build()
            .unwrap();
        assert_eq!(dag.num_stages(), 2);
        assert_eq!(dag.stage(StageId(0)).input_bytes, 100);
        assert_eq!(dag.edges()[0].kind, EdgeKind::Gather);
    }

    #[test]
    fn duplicate_stage_name_errors() {
        let r = DagBuilder::new("t")
            .stage("a", StageKind::Map, 0, 0)
            .stage("a", StageKind::Map, 0, 0)
            .build();
        assert!(matches!(r, Err(DagError::DuplicateName(_))));
    }

    #[test]
    fn unknown_edge_endpoint_errors() {
        let r = DagBuilder::new("t")
            .stage("a", StageKind::Map, 0, 0)
            .edge("a", "zzz", EdgeKind::Shuffle, 1)
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn error_is_sticky() {
        // After an error, later calls are no-ops and build returns the
        // first failure.
        let r = DagBuilder::new("t")
            .edge("x", "y", EdgeKind::Shuffle, 0)
            .stage("a", StageKind::Map, 0, 0)
            .build();
        assert!(r.is_err());
    }
}
