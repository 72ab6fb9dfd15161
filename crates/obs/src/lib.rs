#![warn(missing_docs)]

//! # ditto-obs — the unified telemetry layer
//!
//! One observability vocabulary shared by every layer of the stack:
//!
//! * `span` — structured tracing: a thread-safe [`Recorder`] collecting
//!   `SpanRecord`s and [`EventRecord`]s on named tracks, with sim-clock
//!   *and* wall-clock timestamps. A disabled recorder costs one branch per
//!   call — no locks, no allocation — so instrumented hot paths stay hot.
//! * `metrics` — a `MetricsRegistry` of counters, gauges and
//!   log-scale histograms (p50/p95/p99), keyed by static name + label.
//! * `chrome` — export a finished trace as Chrome `trace_event` JSON,
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev):
//!   a Gantt of stages, tasks and attempts per server track, scheduler
//!   decisions on their own track, per-medium byte counters below.
//! * `import` — read that export back as an event stream (what
//!   `ditto-audit race|journal --trace` consume).
//! * `summary` — a human-readable end-of-run summary table.
//! * [`mod@critical_path`] — walk a finished trace backwards from the last
//!   task end and attribute every second of JCT to a (stage, step) pair or
//!   to scheduling gaps — the paper's Fig. 14 breakdown regenerated from
//!   the event stream instead of bespoke code.
//! * `schema` — a pure-Rust structural validator for the emitted Chrome
//!   trace (no network, no external schema engine) used by CI; knows the
//!   required attributes of the stack's own event kinds (`sched.replan`,
//!   `fault.*`, `recovery.lineage_reexec`, `drift.detected`, …).
//! * `timings` — the shared [`StepTimings`] (setup/read/compute/write)
//!   shape used by execution traces and the cluster runtime monitor.
//! * `diff` — cross-run differential analysis: align two traces of the
//!   same DAG and attribute the JCT delta to (stage, step, medium)
//!   buckets, classified as shared-path slowdown / path shift /
//!   structural (replans, faults, lineage recovery).
//! * `scorecard` — a standing Fig.-11-style predictor-accuracy report
//!   (error CDF, per-step bias, drift annotations) built from
//!   `predictor.sample` and `drift.detected` events.
//!
//! Span names are namespaced by layer: `sched.*` (scheduler decisions),
//! `exec.*`/`task`/`attempt`/`stage` (executor), `storage.*` (data plane).

pub(crate) mod chrome;
pub mod critical_path;
pub(crate) mod diff;
pub(crate) mod import;
pub(crate) mod metrics;
pub(crate) mod schema;
pub(crate) mod scorecard;
pub(crate) mod span;
pub(crate) mod summary;
pub(crate) mod timings;

pub use chrome::to_chrome_trace;
pub use critical_path::{critical_path, CriticalPathReport};
pub use diff::diff_traces;
pub use import::{events_from_chrome, ImportStats};
pub use scorecard::PredictorScorecard;
pub use schema::validate_chrome_trace;
pub use summary::summary_table;
pub use span::{AttrValue, EventRecord, Recorder, SpanId, TraceData, Track};
pub use timings::StepTimings;
