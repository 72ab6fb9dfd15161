#![warn(missing_docs)]

//! # ditto-audit — schedule certificates and race detection
//!
//! Three independent correctness guards for the Ditto reproduction; this
//! crate holds the first and the third:
//!
//! 1. **The schedule auditor** ([`audit`]): a pure function
//!    `audit(dag, time_model, cluster, schedule)` that re-derives the
//!    paper's invariants from scratch and checks the schedule against
//!    them — DoP-ratio optimality (Algorithm 1, Eq. 3/4 and the cost
//!    reduction `dᵢ ∝ √(ρᵢαᵢ)`), stage-group well-formedness
//!    (Algorithm 2), placement feasibility against slot capacities and
//!    shared-memory co-location claims (Algorithm 3), slot-budget/
//!    deadline adherence, and structural DAG sanity. Every violation is
//!    a typed [`AuditFinding`] with stage/edge/server provenance,
//!    rendered human-readable ([`AuditReport::render`]; the
//!    `ditto-audit` CLI prints it as JSON with `--json`).
//!
//! 2. **The determinism rules** live in the compiler, not here: clippy
//!    lints configured by the workspace's `clippy.toml` and denied in the
//!    crate roots they cover, with each justified site carrying an
//!    `#[expect(clippy::…, reason = "…")]` (DESIGN.md §6f). The root
//!    test `determinism_lint_is_clean_and_allowlist_is_current` runs
//!    that clippy pass.
//!
//! 3. **The happens-before race checker** (`hb`, `race`,
//!    `ditto-audit race <trace>`): rebuilds the intended ordering of an
//!    executor run from the `hb.*` events on its `ditto-obs` trace,
//!    assigns vector clocks, and grades recorded timestamps against it —
//!    read-before-write, missing writes, slot over-subscription,
//!    cross-server shared-memory use, replan-seam bypasses and stale
//!    lineage reads, each a typed `RaceFinding` with (stage, task,
//!    server, object) provenance.
//!
//! The auditor deliberately does **not** call `joint_optimize` or
//! `compute_dop`'s rounding: a scheduler bug must not be able to vouch
//! for its own output.
//!
//! ```
//! use ditto_core::{joint_optimize, JointOptions, Objective};
//! use ditto_timemodel::{model::RateConfig, JobTimeModel};
//!
//! let dag = ditto_dag::generators::fig1_join();
//! let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
//! let rm = ditto_cluster::ResourceManager::from_free_slots(vec![30, 30]);
//! let s = joint_optimize(&dag, &model, &rm, Objective::Jct, &JointOptions::default());
//! let report = ditto_audit::audit(&dag, &model, &rm, &s);
//! assert!(report.is_clean(), "{}", report.render());
//!
//! // Corrupt the schedule: the auditor names the exact stage.
//! let mut bad = s.clone();
//! bad.dop[0] *= 3;
//! let report = ditto_audit::audit(&dag, &model, &rm, &bad);
//! assert!(!report.is_clean());
//! assert_eq!(report.findings[0].stage, Some(0));
//! ```

pub(crate) mod checks;
pub(crate) mod hb;
pub(crate) mod race;
pub(crate) mod report;

pub use checks::{audit, audit_splice, audit_structure, audit_with, AuditOptions};
pub use hb::HbGraph;
pub use race::{check_trace, RaceOptions, RaceReport, RaceRule};
pub use report::{AuditFinding, AuditReport, CheckId, Severity};
