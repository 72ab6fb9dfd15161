//! JSON job specifications: drive the scheduler without writing Rust.
//!
//! A *job spec* describes everything the scheduler needs — the stage DAG,
//! the fitted step model per stage and edge, the resource model, the free
//! slots at arrival and the objective — as a single JSON document. The
//! `ditto-sched` binary turns a spec into a schedule:
//!
//! ```sh
//! cargo run --bin ditto-sched -- job.json
//! cat job.json | cargo run --bin ditto-sched
//! ```
//!
//! ```json
//! {
//!   "name": "wordcount",
//!   "objective": "jct",
//!   "cluster": { "free_slots": [48, 24, 12] },
//!   "stages": [
//!     { "name": "map",    "kind": "map",    "compute": {"alpha": 120, "beta": 0.5},
//!       "external_read":  {"alpha": 200, "beta": 1.0}, "rho": 16.0, "sigma": 0.125 },
//!     { "name": "reduce", "kind": "reduce", "compute": {"alpha": 30, "beta": 0.2},
//!       "external_write": {"alpha": 10, "beta": 0.5} }
//!   ],
//!   "edges": [
//!     { "src": "map", "dst": "reduce", "kind": "shuffle", "bytes": 20000000000,
//!       "write": {"alpha": 50, "beta": 0.5}, "read": {"alpha": 50, "beta": 0.5} }
//!   ]
//! }
//! ```

use ditto_cluster::ResourceManager;
use ditto_core::{joint_optimize, JointOptions, Objective, Schedule, TaskPlacement};
use ditto_dag::{DagBuilder, EdgeKind, JobDag, StageKind};
use ditto_timemodel::model::{EdgeIo, StageSteps};
use ditto_timemodel::{JobTimeModel, ResourceModel, Step, StepKind};
use serde::{Deserialize, Serialize};

/// A fitted step: `t(d) = alpha/d + beta`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, Default)]
pub(crate) struct StepSpec {
    /// Parallelizable seconds·tasks.
    pub(crate) alpha: f64,
    /// Inherent seconds.
    pub(crate) beta: f64,
}

/// Finite and `>= 0`, as every step and resource parameter must be.
fn finite_non_negative(x: f64) -> bool {
    (0.0..f64::INFINITY).contains(&x)
}

impl StepSpec {
    fn to_step(self, kind: StepKind) -> Result<Step, SpecError> {
        if finite_non_negative(self.alpha) && finite_non_negative(self.beta) {
            Ok(Step::new(kind, self.alpha, self.beta))
        } else {
            Err(SpecError::Invalid(format!(
                "{kind} step: alpha and beta must be finite and >= 0 (alpha={}, beta={})",
                self.alpha, self.beta
            )))
        }
    }
}

/// One stage of the job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StageSpecJson {
    /// Unique stage name.
    pub(crate) name: String,
    /// `map`, `join`, `groupby`, `reduce` or `custom` (default `custom`).
    #[serde(default)]
    pub(crate) kind: Option<String>,
    /// External input bytes (for the NIMBLE baseline; default 0).
    #[serde(default)]
    pub(crate) input_bytes: u64,
    /// External output bytes (default 0).
    #[serde(default)]
    pub(crate) output_bytes: u64,
    /// The compute step.
    #[serde(default)]
    pub(crate) compute: StepSpec,
    /// External-read step (scanning job input).
    #[serde(default)]
    pub(crate) external_read: StepSpec,
    /// External-write step (final output).
    #[serde(default)]
    pub(crate) external_write: StepSpec,
    /// Resource model ρ in GB (default 1.0).
    #[serde(default = "default_rho")]
    pub(crate) rho: f64,
    /// Resource model σ in GB/function (default 0).
    #[serde(default)]
    pub(crate) sigma: f64,
    /// Straggler scaling factor ≥ 1 (default 1.0).
    #[serde(default = "default_scaling")]
    pub(crate) scaling: f64,
}

fn default_rho() -> f64 {
    1.0
}
fn default_scaling() -> f64 {
    1.0
}

/// One data dependency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EdgeSpecJson {
    /// Producer stage name.
    pub(crate) src: String,
    /// Consumer stage name.
    pub(crate) dst: String,
    /// `shuffle` (default), `gather` or `all_gather`.
    #[serde(default)]
    pub(crate) kind: Option<String>,
    /// Intermediate bytes (default 0).
    #[serde(default)]
    pub(crate) bytes: u64,
    /// The producer-side write step.
    #[serde(default)]
    pub(crate) write: StepSpec,
    /// The consumer-side read step.
    #[serde(default)]
    pub(crate) read: StepSpec,
    /// Pipelining annotation (§4.5).
    #[serde(default)]
    pub(crate) pipelined: bool,
}

/// Free slots per server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ClusterSpecJson {
    /// Free function slots per server, in server order.
    pub(crate) free_slots: Vec<u32>,
}

/// The full job specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job name.
    pub(crate) name: String,
    /// `jct` (default) or `cost`.
    #[serde(default)]
    pub(crate) objective: Option<String>,
    /// The cluster's availability.
    pub(crate) cluster: ClusterSpecJson,
    /// Stages.
    pub(crate) stages: Vec<StageSpecJson>,
    /// Data dependencies.
    pub(crate) edges: Vec<EdgeSpecJson>,
}

/// Errors from parsing or validating a job spec.
#[derive(Debug)]
pub enum SpecError {
    /// Malformed JSON.
    Json(serde_json::Error),
    /// Structurally invalid (unknown names, cycles, bad enums, …).
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Invalid(m) => write!(f, "invalid job spec: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde_json::Error> for SpecError {
    fn from(e: serde_json::Error) -> Self {
        SpecError::Json(e)
    }
}

fn parse_kind(s: &Option<String>) -> Result<StageKind, SpecError> {
    Ok(match s.as_deref() {
        None | Some("custom") => StageKind::Custom,
        Some("map") => StageKind::Map,
        Some("join") => StageKind::Join,
        Some("groupby") => StageKind::GroupBy,
        Some("reduce") => StageKind::Reduce,
        Some(other) => return Err(SpecError::Invalid(format!("unknown stage kind {other:?}"))),
    })
}

fn parse_edge_kind(s: &Option<String>) -> Result<EdgeKind, SpecError> {
    Ok(match s.as_deref() {
        None | Some("shuffle") => EdgeKind::Shuffle,
        Some("gather") => EdgeKind::Gather,
        Some("all_gather") | Some("all-gather") => EdgeKind::AllGather,
        Some(other) => return Err(SpecError::Invalid(format!("unknown edge kind {other:?}"))),
    })
}

impl JobSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<JobSpec, SpecError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Lower the spec into the scheduler's inputs.
    pub fn lower(&self) -> Result<(JobDag, JobTimeModel, ResourceManager, Objective), SpecError> {
        if self.cluster.free_slots.is_empty() {
            return Err(SpecError::Invalid("cluster has no servers".into()));
        }
        // Every stage needs at least one slot, or no schedule exists.
        let slots: u64 = self.cluster.free_slots.iter().map(|&s| u64::from(s)).sum();
        let n = self.stages.len();
        if slots < n as u64 {
            return Err(SpecError::Invalid(format!(
                "{slots} free slots for {n} stages"
            )));
        }
        let objective = match self.objective.as_deref() {
            None | Some("jct") => Objective::Jct,
            Some("cost") => Objective::Cost,
            Some(other) => {
                return Err(SpecError::Invalid(format!("unknown objective {other:?}")))
            }
        };
        let mut builder = DagBuilder::new(self.name.clone());
        for s in &self.stages {
            builder = builder.stage(&s.name, parse_kind(&s.kind)?, s.input_bytes, s.output_bytes);
        }
        for e in &self.edges {
            builder = builder.edge(&e.src, &e.dst, parse_edge_kind(&e.kind)?, e.bytes);
        }
        let mut dag = builder
            .build()
            .map_err(|e| SpecError::Invalid(e.to_string()))?;
        for (i, e) in self.edges.iter().enumerate() {
            if e.pipelined {
                dag.set_pipelined(ditto_dag::EdgeId(i as u32), true);
            }
        }

        let stages = self
            .stages
            .iter()
            .map(|s| {
                Ok(StageSteps {
                    compute: s.compute.to_step(StepKind::Compute)?,
                    external_read: s.external_read.to_step(StepKind::Read)?,
                    external_write: s.external_write.to_step(StepKind::Write)?,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let edges = self
            .edges
            .iter()
            .map(|e| {
                Ok(EdgeIo {
                    write: e.write.to_step(StepKind::Write)?,
                    read: e.read.to_step(StepKind::Read)?,
                    pipelined: e.pipelined,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let resources = self
            .stages
            .iter()
            .map(|s| {
                if finite_non_negative(s.rho) && finite_non_negative(s.sigma) {
                    Ok(ResourceModel::new(s.rho, s.sigma))
                } else {
                    Err(SpecError::Invalid(format!(
                        "stage {:?}: rho and sigma must be finite and >= 0",
                        s.name
                    )))
                }
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let mut model = JobTimeModel::new(&dag, stages, edges, resources);
        for (i, s) in self.stages.iter().enumerate() {
            if !(1.0..f64::INFINITY).contains(&s.scaling) {
                return Err(SpecError::Invalid(format!(
                    "stage {:?}: scaling must be finite and >= 1",
                    s.name
                )));
            }
            model.set_scaling(ditto_dag::StageId(i as u32), s.scaling);
        }
        let rm = ResourceManager::from_free_slots(self.cluster.free_slots.clone());
        Ok((dag, model, rm, objective))
    }

    /// Parse, lower and schedule with Ditto; returns the schedule and the
    /// rendering-ready JSON output (including model-predicted JCT/cost).
    pub fn schedule(&self) -> Result<(Schedule, ScheduleJson), SpecError> {
        let (dag, model, rm, objective) = self.lower()?;
        let schedule = joint_optimize(&dag, &model, &rm, objective, &JointOptions::default());
        // Debug builds certify every spec-driven schedule against the
        // paper invariants before emitting it (release keeps the CLI
        // latency profile unchanged; `ditto-audit` checks explicitly).
        #[cfg(debug_assertions)]
        {
            let report = ditto_audit::audit(&dag, &model, &rm, &schedule);
            assert!(
                report.is_clean(),
                "spec {:?}: schedule failed audit:\n{}",
                self.name,
                report.render()
            );
        }
        let mut json = ScheduleJson::from_schedule(&dag, &schedule);
        let frac: Vec<f64> = schedule.dop.iter().map(|&d| d as f64).collect();
        json.predicted_jct_seconds =
            ditto_core::predicted_jct(&dag, &model, &frac, &schedule.colocated);
        json.predicted_cost_gb_s =
            ditto_core::predicted_cost(&dag, &model, &frac, &schedule.colocated);
        Ok((schedule, json))
    }
}

impl JobSpec {
    /// Schedule and then *simulate* the job against a default ground-truth
    /// execution model driven by the spec's byte volumes (`ditto-sched
    /// --simulate`). Returns the schedule JSON plus the simulated
    /// `(jct_seconds, total_cost_gb_s)`.
    pub fn simulate(&self) -> Result<(ScheduleJson, f64, f64), SpecError> {
        let (dag, _, _, _) = self.lower()?;
        let (schedule, json) = self.schedule()?;
        let gt = ditto_exec::GroundTruth::new(ditto_exec::ExecConfig::default());
        let (_, metrics) = ditto_exec::simulate(&dag, &schedule, &gt);
        Ok((json, metrics.jct, metrics.total_cost()))
    }
}

/// The schedule as emitted by `ditto-sched`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleJson {
    /// Scheduler that produced it.
    pub(crate) scheduler: String,
    /// Per-stage decisions.
    pub(crate) stages: Vec<StageScheduleJson>,
    /// Stage groups by name.
    pub(crate) groups: Vec<Vec<String>>,
    /// Model-predicted job completion time, seconds.
    #[serde(default)]
    pub(crate) predicted_jct_seconds: f64,
    /// Model-predicted cost, GB·s.
    #[serde(default)]
    pub(crate) predicted_cost_gb_s: f64,
}

/// One stage's scheduling outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StageScheduleJson {
    /// Stage name.
    pub(crate) name: String,
    /// Chosen degree of parallelism.
    pub(crate) dop: u32,
    /// Tasks per server: `(server index, task count)` in task order.
    pub(crate) placement: Vec<(u32, u32)>,
}

impl ScheduleJson {
    /// Convert an in-memory schedule.
    pub(crate) fn from_schedule(dag: &JobDag, s: &Schedule) -> ScheduleJson {
        ScheduleJson {
            scheduler: s.scheduler.clone(),
            stages: dag
                .stages()
                .iter()
                .map(|st| {
                    let d = s.dop[st.id.index()];
                    let placement = match &s.placement[st.id.index()] {
                        TaskPlacement::Single(srv) => vec![(srv.0, d)],
                        TaskPlacement::Spread(parts) => {
                            parts.iter().map(|&(srv, c)| (srv.0, c)).collect()
                        }
                    };
                    StageScheduleJson {
                        name: st.name.clone(),
                        dop: d,
                        placement,
                    }
                })
                .collect(),
            groups: s
                .groups
                .iter()
                .map(|g| g.iter().map(|&id| dag.stage(id).name.clone()).collect())
                .collect(),
            predicted_jct_seconds: 0.0,
            predicted_cost_gb_s: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> &'static str {
        r#"{
            "name": "wordcount",
            "objective": "jct",
            "cluster": { "free_slots": [24, 12] },
            "stages": [
                { "name": "map", "kind": "map", "input_bytes": 10000000000,
                  "compute": {"alpha": 120.0, "beta": 0.5},
                  "external_read": {"alpha": 200.0, "beta": 1.0},
                  "rho": 16.0, "sigma": 0.125, "scaling": 1.1 },
                { "name": "reduce", "kind": "reduce",
                  "compute": {"alpha": 30.0, "beta": 0.2},
                  "external_write": {"alpha": 10.0, "beta": 0.5} }
            ],
            "edges": [
                { "src": "map", "dst": "reduce", "kind": "shuffle",
                  "bytes": 2000000000,
                  "write": {"alpha": 50.0, "beta": 0.5},
                  "read": {"alpha": 50.0, "beta": 0.5} }
            ]
        }"#
    }

    #[test]
    fn parses_and_lowers() {
        let spec = JobSpec::from_json(sample_spec()).unwrap();
        let (dag, model, rm, obj) = spec.lower().unwrap();
        assert_eq!(dag.num_stages(), 2);
        assert_eq!(rm.total_free(), 36);
        assert_eq!(obj, Objective::Jct);
        let none = model.no_colocation();
        // map: (120 + 200 + 50) × 1.1 scaling.
        let a = model.stage_alpha(&dag, ditto_dag::StageId(0), &none);
        assert!((a - 370.0 * 1.1).abs() < 1e-9, "alpha={a}");
    }

    #[test]
    fn schedules_end_to_end() {
        let spec = JobSpec::from_json(sample_spec()).unwrap();
        let (schedule, json) = spec.schedule().unwrap();
        assert_eq!(json.stages.len(), 2);
        assert!(json.stages.iter().all(|s| s.dop >= 1));
        assert!(schedule.total_slots() <= 36);
        assert!(json.predicted_jct_seconds > 0.0);
        assert!(json.predicted_cost_gb_s > 0.0);
        // The emitted JSON is itself valid JSON.
        let text = serde_json::to_string_pretty(&json).unwrap();
        let back: ScheduleJson = serde_json::from_str(&text).unwrap();
        assert_eq!(back.stages[0].name, "map");
    }

    #[test]
    fn rejects_unknown_kind() {
        let bad = sample_spec().replace("\"map\", \"kind\": \"map\"", "\"map\", \"kind\": \"mapper\"");
        let spec = JobSpec::from_json(&bad).unwrap();
        assert!(matches!(spec.lower(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn rejects_cycle() {
        let spec = JobSpec::from_json(
            r#"{
                "name": "cyc", "cluster": {"free_slots": [4]},
                "stages": [{"name": "a"}, {"name": "b"}],
                "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}]
            }"#,
        )
        .unwrap();
        assert!(spec.lower().is_err());
    }

    #[test]
    fn rejects_fewer_slots_than_stages() {
        let example = include_str!("../examples/job_spec.json");
        for slots in ["[1, 1]", "[0]"] {
            let bad = example.replace("[24, 12, 8]", slots);
            let spec = JobSpec::from_json(&bad).unwrap();
            assert!(
                matches!(spec.lower(), Err(SpecError::Invalid(_))),
                "{slots}"
            );
            assert!(spec.schedule().is_err(), "{slots}");
        }
    }

    #[test]
    fn rejects_bad_objective_and_scaling() {
        let spec = JobSpec::from_json(
            &sample_spec().replace("\"jct\"", "\"latency\""),
        )
        .unwrap();
        assert!(matches!(spec.lower(), Err(SpecError::Invalid(_))));

        let spec = JobSpec::from_json(&sample_spec().replace("\"scaling\": 1.1", "\"scaling\": 0.5"))
            .unwrap();
        assert!(spec.lower().is_err());
    }

    #[test]
    fn simulate_produces_metrics() {
        let spec = JobSpec::from_json(sample_spec()).unwrap();
        let (_, jct, cost) = spec.simulate().unwrap();
        assert!(jct > 0.0);
        assert!(cost > 0.0);
    }

    /// `from_json` then `schedule()` on hostile text: a schedule or a
    /// `SpecError`, never a panic. Returns whether it lowered.
    fn lower_hostile(bytes: &[u8], what: &str) -> bool {
        let text = String::from_utf8_lossy(bytes);
        let lowered = std::panic::catch_unwind(|| {
            JobSpec::from_json(&text).and_then(|spec| spec.schedule().map(|_| ()))
        });
        match lowered {
            Ok(result) => result.is_ok(),
            Err(_) => panic!("{what}: panicked on {text:?}"),
        }
    }

    /// Byte ranges of every number token (a digit or `-`, then number
    /// characters), digits inside strings included.
    fn number_tokens(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_digit() || bytes[i] == b'-' {
                let start = i;
                while i < bytes.len() && b"0123456789.eE+-".contains(&bytes[i]) {
                    i += 1;
                }
                tokens.push(start..i);
            } else {
                i += 1;
            }
        }
        tokens
    }

    /// Negative, infinite and out-of-range replacements for a number.
    const HOSTILE_NUMBERS: [&str; 7] =
        ["-1", "-0.5", "1e999", "-1e999", "0", "4294967296", "18446744073709551616"];

    #[test]
    fn mutated_specs_never_panic() {
        // A tiny deterministic generator: the loop must be reproducible.
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |below: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % below as u64) as usize
        };
        let specs = [sample_spec(), include_str!("../examples/job_spec.json")];
        for (s, spec) in specs.iter().enumerate() {
            let bytes = spec.as_bytes();
            assert!(lower_hostile(bytes, "unmutated"), "spec {s} lowers");
            // Truncation at every offset: a strict prefix of the object
            // is never JSON.
            let end = bytes.trim_ascii_end().len();
            for cut in 0..end {
                assert!(!lower_hostile(&bytes[..cut], &format!("spec {s} cut at {cut}")));
            }
            // Bit flips anywhere.
            for _ in 0..2000 {
                let mut bad = bytes.to_vec();
                let at = next(bad.len());
                bad[at] ^= 1 << next(8);
                lower_hostile(&bad, &format!("spec {s} bit flip at {at}"));
            }
            // Every number replaced by a negative, infinite or
            // out-of-range one.
            for token in number_tokens(bytes) {
                for hostile in HOSTILE_NUMBERS {
                    let (head, tail) = (&bytes[..token.start], &bytes[token.end..]);
                    let bad = [head, hostile.as_bytes(), tail].concat();
                    lower_hostile(&bad, &format!("spec {s} number at {} = {hostile}", token.start));
                }
            }
            // Splices: a prefix of this spec followed by a suffix of another.
            for _ in 0..500 {
                let other = specs[next(specs.len())].as_bytes();
                let (head, tail) = (next(bytes.len()), next(other.len()));
                let spliced = [&bytes[..head], &other[tail..]].concat();
                lower_hostile(&spliced, &format!("spec {s} splice {head}+{tail}"));
            }
        }
    }

    #[test]
    fn defaults_are_permissive() {
        let spec = JobSpec::from_json(
            r#"{
                "name": "minimal", "cluster": {"free_slots": [8]},
                "stages": [{"name": "only", "compute": {"alpha": 10.0, "beta": 0.0}}],
                "edges": []
            }"#,
        )
        .unwrap();
        let (schedule, _) = spec.schedule().unwrap();
        assert_eq!(schedule.dop.len(), 1);
    }
}
