//! Typed audit findings and the report they roll up into.

use std::fmt;

/// How bad a finding is.
///
/// `Error` means the schedule violates an invariant the paper (or this
/// codebase) guarantees — executing it would oversubscribe a server, read
/// a shuffle over shared memory that is not actually shared, or run DoPs
/// that are not the Algorithm-1 optimum it claims to be. `Warning` marks
/// conditions that are legal but worth a look (a multi-sink DAG, a stage
/// with zero parallelizable work, an unexploited co-location).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a correctness violation.
    Warning,
    /// A broken invariant; the schedule must not be trusted.
    Error,
}

impl Severity {
    /// Stable lowercase name (used in JSON and the rendered report).
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Which invariant a finding is about. One variant per certificate the
/// auditor emits; the DESIGN.md §6f table maps each to its paper equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckId {
    /// DAG structural sanity: acyclic, non-empty, aligned vector lengths.
    Structure,
    /// Every stage in exactly one group; `group_of` consistent with `groups`.
    GroupPartition,
    /// Each multi-stage group is connected through DAG edges (Algorithm 2
    /// only ever merges along an edge).
    GroupConnectivity,
    /// A co-located edge's endpoints share a group *and* a server set, so
    /// the zero-copy shared-memory claim is realizable.
    ColocationClaim,
    /// A spread placement covers exactly the stage's DoP.
    PlacementCoverage,
    /// No server hosts more tasks than it had free slots (Algorithm 3).
    SlotCapacity,
    /// Σ DoP within the slot budget `max(C, #stages)` (§4.5 rounding).
    SlotBudget,
    /// Per-stage / per-subtree DoP agrees with the independently re-derived
    /// Algorithm-1 optimum within rounding tolerance (Eq. 3/4, §4.2).
    DopRatio,
    /// Positive, finite α/β and scaling ≥ 1 in the time model.
    ModelSanity,
    /// Predicted JCT within the caller-supplied deadline.
    Deadline,
    /// Predicted cost within the caller-supplied GB·s budget.
    CostBudget,
}

impl CheckId {
    /// Stable kebab-case name (used in JSON and the rendered report).
    pub fn as_str(&self) -> &'static str {
        match self {
            CheckId::Structure => "structure",
            CheckId::GroupPartition => "group-partition",
            CheckId::GroupConnectivity => "group-connectivity",
            CheckId::ColocationClaim => "colocation-claim",
            CheckId::PlacementCoverage => "placement-coverage",
            CheckId::SlotCapacity => "slot-capacity",
            CheckId::SlotBudget => "slot-budget",
            CheckId::DopRatio => "dop-ratio",
            CheckId::ModelSanity => "model-sanity",
            CheckId::Deadline => "deadline",
            CheckId::CostBudget => "cost-budget",
        }
    }
}

impl fmt::Display for CheckId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violated (or suspicious) invariant, with provenance: which stage,
/// edge and/or server the violation is anchored at.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// The invariant this certificate checks.
    pub check: CheckId,
    /// Error (broken invariant) or warning (legal but suspicious).
    pub severity: Severity,
    /// Offending stage index, if the finding is stage-anchored.
    pub stage: Option<u32>,
    /// Offending edge index, if edge-anchored.
    pub edge: Option<u32>,
    /// Offending server index, if server-anchored.
    pub server: Option<u32>,
    /// Human-readable explanation with the measured vs certified values.
    pub detail: String,
}

impl AuditFinding {
    /// An error finding with no provenance (filled in by builder methods).
    pub fn error(check: CheckId, detail: impl Into<String>) -> Self {
        AuditFinding {
            check,
            severity: Severity::Error,
            stage: None,
            edge: None,
            server: None,
            detail: detail.into(),
        }
    }

    /// A warning finding with no provenance.
    pub fn warning(check: CheckId, detail: impl Into<String>) -> Self {
        AuditFinding {
            severity: Severity::Warning,
            ..AuditFinding::error(check, detail)
        }
    }

    /// Anchor at a stage.
    pub(crate) fn at_stage(mut self, stage: u32) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Anchor at an edge.
    pub fn at_edge(mut self, edge: u32) -> Self {
        self.edge = Some(edge);
        self
    }

    /// Anchor at a server.
    pub(crate) fn at_server(mut self, server: u32) -> Self {
        self.server = Some(server);
        self
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity.as_str(), self.check)?;
        if let Some(s) = self.stage {
            write!(f, " stage={s}")?;
        }
        if let Some(e) = self.edge {
            write!(f, " edge={e}")?;
        }
        if let Some(srv) = self.server {
            write!(f, " server={srv}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The auditor's output: all findings plus the count of checks that ran
/// (so "zero findings" can be told apart from "nothing was checked").
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every finding, in deterministic (check, stage, edge) order of
    /// discovery.
    pub findings: Vec<AuditFinding>,
    /// Certificates evaluated, including the ones that passed.
    pub checks_run: usize,
}

impl AuditReport {
    /// No error-severity findings (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Merge another report into this one.
    pub(crate) fn merge(&mut self, other: AuditReport) {
        self.findings.extend(other.findings);
        self.checks_run += other.checks_run;
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "audit: {} checks, {} errors, {} warnings",
            self.checks_run,
            self.error_count(),
            self.warning_count()
        );
        for fnd in &self.findings {
            let _ = writeln!(out, "  {fnd}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_render() {
        let mut r = AuditReport {
            checks_run: 5,
            ..Default::default()
        };
        r.findings.push(
            AuditFinding::error(CheckId::SlotCapacity, "server 2 hosts 97 tasks, 96 free")
                .at_server(2)
                .at_stage(4),
        );
        r.findings
            .push(AuditFinding::warning(CheckId::Structure, "2 sink stages"));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        let text = r.render();
        assert!(text.contains("slot-capacity"), "{text}");
        assert!(text.contains("server=2"), "{text}");
        assert!(text.contains("stage=4"), "{text}");
    }

    #[test]
    fn clean_report() {
        let r = AuditReport {
            findings: vec![],
            checks_run: 10,
        };
        assert!(r.is_clean());
    }
}
