//! Race checker over a recorded trace's happens-before graph.
//!
//! [`check_trace`] rebuilds the [`crate::hb::HbGraph`] from any
//! [`TraceData`] (an in-process run or a re-imported `--trace-out`
//! artifact) and grades every intended ordering edge against the
//! recorded timestamps, plus three whole-trace checks the edge walk
//! cannot express: a write roster (every launched task of a consumed
//! stage must have committed an output), a per-server slot-occupancy
//! sweep against capacities, and cross-server shared-memory use.
//!
//! Every violation is a typed [`RaceFinding`] with (stage, task,
//! server, edge, object) provenance, mirroring the schedule auditor's
//! [`crate::AuditFinding`]. `Error` findings break an invariant the
//! executor guarantees; `Warning` marks legal-but-suspicious states
//! (speculative copies over-committing a server, best-effort packing
//! after a failover). DESIGN.md §6j maps each hazard to its hb edge
//! rule and finding.

use crate::hb::{EdgeRule, HbGraph, Op, OpKind};
use crate::report::Severity;
use ditto_obs::{AttrValue, TraceData};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which race hazard a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceRule {
    /// A consumer's read (or pipelined ingest) starts before a producer
    /// commit / stream start it depends on.
    ReadBeforeWrite,
    /// A launched task of a consumed stage never committed an output,
    /// or a fetched dataplane key was never committed.
    MissingWrite,
    /// More concurrent slot holds on a server than it has capacity for.
    SlotOversubscription,
    /// A shared-memory read whose producer wrote on a different server.
    CrossServerShm,
    /// A read over a replan seam edge that started before the splice —
    /// it consumed the pre-replan placement the scheduler masked out.
    SeamBypassRead,
    /// A read of a faulted object before its lineage heal completed.
    StaleObjectRead,
    /// The happens-before graph itself is cyclic (corrupt trace).
    HbCycle,
}

impl RaceRule {
    /// Stable kebab-case name (used in JSON and the rendered report).
    pub fn as_str(&self) -> &'static str {
        match self {
            RaceRule::ReadBeforeWrite => "read-before-write",
            RaceRule::MissingWrite => "missing-write",
            RaceRule::SlotOversubscription => "slot-oversubscription",
            RaceRule::CrossServerShm => "cross-server-shm",
            RaceRule::SeamBypassRead => "seam-bypass-read",
            RaceRule::StaleObjectRead => "stale-object-read",
            RaceRule::HbCycle => "hb-cycle",
        }
    }
}

impl fmt::Display for RaceRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for [`check_trace`].
#[derive(Debug, Clone)]
pub struct RaceOptions {
    /// Per-server slot capacities. `None` skips the oversubscription
    /// sweep (the trace alone does not know the cluster size).
    pub capacities: Option<Vec<u32>>,
    /// Timestamp slop in seconds. Chrome export rounds to integral
    /// microseconds, so re-imported traces need at least 1 µs; the
    /// default 5 µs also absorbs the executor's own 1e-9 batch slop.
    pub eps: f64,
}

impl Default for RaceOptions {
    fn default() -> Self {
        RaceOptions {
            capacities: None,
            eps: 5e-6,
        }
    }
}

/// One detected (or suspicious) race, with provenance.
#[derive(Debug, Clone)]
pub struct RaceFinding {
    /// The hazard class.
    pub rule: RaceRule,
    /// Error (broken ordering invariant) or warning (legal but worth a
    /// look).
    pub severity: Severity,
    /// Consumer-side stage, if stage-anchored.
    pub stage: Option<u32>,
    /// Task within the stage.
    pub task: Option<u32>,
    /// Server the hazard is anchored at.
    pub server: Option<u32>,
    /// DAG edge index, if edge-anchored.
    pub edge: Option<u32>,
    /// Dataplane object key, if object-anchored.
    pub object: Option<String>,
    /// Human-readable explanation with the measured instants.
    pub detail: String,
}

impl RaceFinding {
    /// An error finding with no provenance (filled in by builders).
    pub(crate) fn error(rule: RaceRule, detail: impl Into<String>) -> Self {
        RaceFinding {
            rule,
            severity: Severity::Error,
            stage: None,
            task: None,
            server: None,
            edge: None,
            object: None,
            detail: detail.into(),
        }
    }

    /// A warning finding with no provenance.
    pub(crate) fn warning(rule: RaceRule, detail: impl Into<String>) -> Self {
        RaceFinding {
            severity: Severity::Warning,
            ..RaceFinding::error(rule, detail)
        }
    }

    /// Anchor at a stage.
    pub(crate) fn at_stage(mut self, stage: u32) -> Self {
        self.stage = Some(stage);
        self
    }

    /// Anchor at a task.
    pub(crate) fn at_task(mut self, task: u32) -> Self {
        self.task = Some(task);
        self
    }

    /// Anchor at a server.
    pub(crate) fn at_server(mut self, server: u32) -> Self {
        self.server = Some(server);
        self
    }

    /// Anchor at a DAG edge.
    pub(crate) fn at_edge(mut self, edge: u32) -> Self {
        self.edge = Some(edge);
        self
    }

    /// Anchor at a dataplane object key.
    pub(crate) fn at_object(mut self, key: impl Into<String>) -> Self {
        self.object = Some(key.into());
        self
    }
}

impl fmt::Display for RaceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.severity.as_str(), self.rule)?;
        if let Some(s) = self.stage {
            write!(f, " stage={s}")?;
        }
        if let Some(t) = self.task {
            write!(f, " task={t}")?;
        }
        if let Some(srv) = self.server {
            write!(f, " server={srv}")?;
        }
        if let Some(e) = self.edge {
            write!(f, " edge={e}")?;
        }
        if let Some(k) = &self.object {
            write!(f, " object={k}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The race checker's output.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Every finding, in deterministic discovery order.
    pub findings: Vec<RaceFinding>,
    /// Parsed hb ops (graph nodes).
    pub ops: usize,
    /// Intended ordering edges checked.
    pub hb_edges: usize,
    /// `hb.*` events that failed to parse.
    pub malformed: usize,
}

impl RaceReport {
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

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "race: {} ops, {} hb edges, {} malformed, {} errors, {} warnings",
            self.ops,
            self.hb_edges,
            self.malformed,
            self.error_count(),
            self.warning_count()
        );
        for fnd in &self.findings {
            let _ = writeln!(out, "  {fnd}");
        }
        out
    }
}

fn anchor_read(f: RaceFinding, r: &Op) -> RaceFinding {
    let mut f = f;
    if let Some(s) = r.stage {
        f = f.at_stage(s);
    }
    if let Some(t) = r.task {
        f = f.at_task(t);
    }
    if let Some(srv) = r.server {
        f = f.at_server(srv);
    }
    if let Some(e) = r.edge {
        f = f.at_edge(e);
    }
    f
}

/// Check one recorded trace for races. Pure function of the trace and
/// the options; deterministic finding order.
pub fn check_trace(trace: &TraceData, opts: &RaceOptions) -> RaceReport {
    let g = HbGraph::build(trace);
    let eps = opts.eps;
    let mut report = RaceReport {
        ops: g.ops.len(),
        hb_edges: g.edges.len(),
        malformed: g.malformed,
        ..Default::default()
    };

    // A cyclic graph means the trace itself is inconsistent; the edge
    // walk below still runs (timestamps are edge-local).
    if !g.cycle.is_empty() {
        let mut sample: Vec<String> = Vec::new();
        for &i in g.cycle.iter().take(6) {
            sample.push(format!("op#{i}({:?}@{:.6})", g.ops[i].kind, g.ops[i].ts));
        }
        report.findings.push(RaceFinding::error(
            RaceRule::HbCycle,
            format!(
                "{} ops on or behind a happens-before cycle: {}",
                g.cycle.len(),
                sample.join(", ")
            ),
        ));
    }

    // Edge walk: grade each intended ordering edge against timestamps.
    for e in &g.edges {
        let from = &g.ops[e.from];
        let to = &g.ops[e.to];
        match e.rule {
            EdgeRule::CommitToRead => {
                if from.ts > to.ts + eps {
                    report.findings.push(anchor_read(
                        RaceFinding::error(
                            RaceRule::ReadBeforeWrite,
                            format!(
                                "read at t={:.6} precedes producer stage {} task {} commit at t={:.6}",
                                to.ts,
                                from.stage.unwrap_or(0),
                                from.task.unwrap_or(0),
                                from.ts
                            ),
                        ),
                        to,
                    ));
                }
            }
            EdgeRule::StreamStartToRead => {
                let ws = from.write_start.unwrap_or(from.ts);
                if ws > to.ts + eps {
                    report.findings.push(anchor_read(
                        RaceFinding::error(
                            RaceRule::ReadBeforeWrite,
                            format!(
                                "pipelined read at t={:.6} precedes earliest producer write-start t={:.6} (stage {} task {})",
                                to.ts,
                                ws,
                                from.stage.unwrap_or(0),
                                from.task.unwrap_or(0)
                            ),
                        ),
                        to,
                    ));
                }
            }
            EdgeRule::CommitToCompute => {
                let cs = to.compute_start.unwrap_or(to.ts);
                if from.ts > cs + eps {
                    report.findings.push(anchor_read(
                        RaceFinding::error(
                            RaceRule::ReadBeforeWrite,
                            format!(
                                "pipelined ingest finishes at t={:.6} before producer stage {} task {} commit at t={:.6}",
                                cs,
                                from.stage.unwrap_or(0),
                                from.task.unwrap_or(0),
                                from.ts
                            ),
                        ),
                        to,
                    ));
                }
            }
            EdgeRule::DetectToHeal => {
                if from.ts > to.ts + eps {
                    report.findings.push(
                        RaceFinding::error(
                            RaceRule::StaleObjectRead,
                            format!(
                                "lineage heal at t={:.6} precedes its fault detection at t={:.6}",
                                to.ts, from.ts
                            ),
                        )
                        .at_stage(from.stage.unwrap_or(0))
                        .at_task(from.task.unwrap_or(0)),
                    );
                }
            }
            EdgeRule::HealToRead => {
                if from.ts > to.ts + eps {
                    report.findings.push(anchor_read(
                        RaceFinding::error(
                            RaceRule::StaleObjectRead,
                            format!(
                                "read at t={:.6} consumes stage {} task {}'s object before its heal at t={:.6} — the checksum already rejected the stored copy",
                                to.ts,
                                from.stage.unwrap_or(0),
                                from.task.unwrap_or(0),
                                from.ts
                            ),
                        ),
                        to,
                    ));
                }
            }
            EdgeRule::AcquireToRelease => {
                if from.ts > to.ts + eps {
                    report.findings.push(
                        RaceFinding::warning(
                            RaceRule::SlotOversubscription,
                            format!(
                                "negative slot-occupancy interval: acquire t={:.6} after release t={:.6}",
                                from.ts, to.ts
                            ),
                        )
                        .at_stage(from.stage.unwrap_or(0))
                        .at_task(from.task.unwrap_or(0))
                        .at_server(from.server.unwrap_or(0)),
                    );
                }
            }
            EdgeRule::SeamToRead => {
                if from.ts > to.ts + eps {
                    report.findings.push(anchor_read(
                        RaceFinding::error(
                            RaceRule::SeamBypassRead,
                            format!(
                                "read at t={:.6} crosses replan seam spliced at t={:.6} — it consumed the masked pre-replan placement",
                                to.ts, from.ts
                            ),
                        ),
                        to,
                    ));
                }
            }
            EdgeRule::CommitToFetch => {
                if from.ts > to.ts + eps {
                    report.findings.push(
                        RaceFinding::error(
                            RaceRule::ReadBeforeWrite,
                            format!(
                                "object fetched at t={:.6} before its commit at t={:.6}",
                                to.ts, from.ts
                            ),
                        )
                        .at_object(to.key.clone().unwrap_or_default()),
                    );
                }
            }
            EdgeRule::ProgramOrder => {} // holds by construction (sorted)
        }
    }

    // Write roster: every launched (non-speculative) task of a consumed
    // stage must have committed exactly one surviving output.
    let mut roster: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut writes: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut consumed: BTreeMap<u32, u32> = BTreeMap::new(); // src stage -> an edge id
    let mut commits: BTreeSet<&str> = BTreeSet::new();
    let mut fetches: BTreeMap<&str, f64> = BTreeMap::new();
    for op in &g.ops {
        match op.kind {
            OpKind::Acquire if !op.speculative => {
                roster
                    .entry(op.stage.unwrap_or(0))
                    .or_default()
                    .insert(op.task.unwrap_or(0));
            }
            OpKind::Write => {
                writes
                    .entry(op.stage.unwrap_or(0))
                    .or_default()
                    .insert(op.task.unwrap_or(0));
            }
            OpKind::Read => {
                consumed
                    .entry(op.src_stage.unwrap_or(0))
                    .or_insert(op.edge.unwrap_or(0));
            }
            OpKind::Commit => {
                commits.insert(op.key.as_deref().unwrap_or(""));
            }
            OpKind::Fetch => {
                fetches.entry(op.key.as_deref().unwrap_or("")).or_insert(op.ts);
            }
            _ => {}
        }
    }
    for (&src, &edge) in &consumed {
        let have = writes.get(&src);
        match roster.get(&src) {
            Some(tasks) => {
                for &t in tasks {
                    if !have.is_some_and(|w| w.contains(&t)) {
                        report.findings.push(
                            RaceFinding::error(
                                RaceRule::MissingWrite,
                                format!(
                                    "stage {src} task {t} held a slot but never committed an output consumed via edge {edge}"
                                ),
                            )
                            .at_stage(src)
                            .at_task(t)
                            .at_edge(edge),
                        );
                    }
                }
            }
            None => {
                if have.is_none() {
                    report.findings.push(
                        RaceFinding::error(
                            RaceRule::MissingWrite,
                            format!(
                                "stage {src} is consumed via edge {edge} but recorded no writes and no slot holds"
                            ),
                        )
                        .at_stage(src)
                        .at_edge(edge),
                    );
                }
            }
        }
    }
    for (key, &ts) in &fetches {
        if !commits.contains(key) {
            report.findings.push(
                RaceFinding::error(
                    RaceRule::MissingWrite,
                    format!("object fetched at t={ts:.6} was never committed"),
                )
                .at_object(*key),
            );
        }
    }

    // Cross-server shared memory: a shm read needs the producer's
    // partitions resident on the reader's own server — shared memory does
    // not span machines. A colocated group legally spread over several
    // servers is a known model simplification (the remote share of an
    // all-to-all shuffle is priced as local): one warning per edge. A
    // reader on a server where the producing stage never wrote at all has
    // *nothing* resident to map, which no placement can excuse: error.
    let mut writes_srv: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new(); // stage -> servers
    for op in &g.ops {
        if op.kind == OpKind::Write {
            writes_srv
                .entry(op.stage.unwrap_or(0))
                .or_default()
                .insert(op.server.unwrap_or(0));
        }
    }
    let mut spanned: BTreeSet<u32> = BTreeSet::new(); // edges already warned
    for op in &g.ops {
        if op.kind != OpKind::Read || op.medium.as_deref() != Some("shared-memory") {
            continue;
        }
        let reader_srv = op.server.unwrap_or(0);
        let src = op.src_stage.unwrap_or(0);
        let Some(servers) = writes_srv.get(&src) else {
            continue; // no writes at all: the roster check reports it
        };
        if !servers.contains(&reader_srv) {
            report.findings.push(anchor_read(
                RaceFinding::error(
                    RaceRule::CrossServerShm,
                    format!(
                        "shared-memory read on server {reader_srv} but producer stage {src} wrote only on servers {servers:?}"
                    ),
                ),
                op,
            ));
        } else if servers.len() > 1 && spanned.insert(op.edge.unwrap_or(0)) {
            report.findings.push(anchor_read(
                RaceFinding::warning(
                    RaceRule::CrossServerShm,
                    format!(
                        "shared-memory edge spans {} servers {servers:?}; the remote partition share is modeled as local",
                        servers.len()
                    ),
                ),
                op,
            ));
        }
    }

    // Slot-occupancy sweep per server, if capacities are known.
    if let Some(caps) = &opts.capacities {
        sweep_slots(&g, caps, trace, eps, &mut report);
    }

    report
}

/// Earliest instant the original placement stopped being authoritative:
/// a server failure (failover repacking is best-effort) or an applied
/// adaptive replan (the spliced suffix is optimized against the full
/// snapshot while prefix attempts drain, so transient overlap is a model
/// simplification, not an executor race). Oversubscription after this
/// instant downgrades to a warning; before it, it is an error.
///
/// A replan's reach extends *before* its detection instant: the splice
/// re-simulates the suffix from ready times, and a pipelined seam
/// consumer launches at its prefix producer's stream start. The grace
/// bound for an applied replan is therefore the earliest instant the
/// splice can retroactively affect — over all seam edges, the producer
/// stage's earliest stream start (pipelined edge) or commit (blocking).
fn grace_instant(g: &HbGraph, trace: &TraceData) -> (f64, &'static str) {
    let mut at = (f64::INFINITY, "failover");
    let mut replan_at = f64::INFINITY;
    for ev in &trace.events {
        if ev.name == "fault.server_lost" && ev.ts < at.0 {
            at = (ev.ts, "failover");
        } else if ev.name == "sched.failover" {
            let t = match ev.attr("at_time") {
                Some(AttrValue::F64(v)) => *v,
                Some(AttrValue::U64(v)) => *v as f64,
                _ => ev.ts,
            };
            if t < at.0 {
                at = (t, "failover");
            }
        } else if ev.name == "sched.replan"
            && matches!(ev.attr("applied"), Some(AttrValue::U64(1)))
        {
            replan_at = replan_at.min(ev.ts);
        }
    }
    if replan_at.is_finite() {
        let mut retro = replan_at;
        for seam in g.ops.iter().filter(|o| o.kind == OpKind::Seam) {
            let Some(edge) = seam.edge else { continue };
            for r in g
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::Read && o.edge == Some(edge))
            {
                let Some(src) = r.src_stage else { continue };
                for w in g
                    .ops
                    .iter()
                    .filter(|o| o.kind == OpKind::Write && o.stage == Some(src))
                {
                    let t = if r.pipelined {
                        w.write_start.unwrap_or(w.ts)
                    } else {
                        w.ts
                    };
                    retro = retro.min(t);
                }
            }
        }
        if retro < at.0 {
            at = (retro, "replan splice");
        }
    }
    at
}

fn sweep_slots(g: &HbGraph, caps: &[u32], trace: &TraceData, eps: f64, report: &mut RaceReport) {
    let (grace_at, grace_why) = grace_instant(g, trace);
    // Per server: (ts, delta, speculative, stage, task), releases before
    // acquires at equal instants.
    type SlotPoint = (f64, i32, bool, u32, u32);
    let mut per_server: BTreeMap<u32, Vec<SlotPoint>> = BTreeMap::new();
    for op in &g.ops {
        let delta = match op.kind {
            OpKind::Acquire => 1,
            OpKind::Release => -1,
            _ => continue,
        };
        per_server.entry(op.server.unwrap_or(0)).or_default().push((
            op.ts,
            delta,
            op.speculative,
            op.stage.unwrap_or(0),
            op.task.unwrap_or(0),
        ));
    }
    for (&srv, points) in per_server.iter_mut() {
        let Some(&cap) = caps.get(srv as usize) else {
            report.findings.push(
                RaceFinding::warning(
                    RaceRule::SlotOversubscription,
                    format!("server {srv} holds slots but has no known capacity; sweep skipped"),
                )
                .at_server(srv),
            );
            continue;
        };
        points.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let (mut held, mut total) = (0i64, 0i64);
        let (mut hard, mut soft) = (false, false); // first finding per server
        for &(ts, delta, spec, stage, task) in points.iter() {
            if spec {
                total += i64::from(delta);
            } else {
                held += i64::from(delta);
                total += i64::from(delta);
            }
            if delta < 0 {
                continue;
            }
            if !spec && held > i64::from(cap) && !hard {
                hard = true;
                let post_grace = ts >= grace_at - eps;
                let f = if post_grace {
                    RaceFinding::warning(
                        RaceRule::SlotOversubscription,
                        format!(
                            "server {srv} holds {held} task slots of {cap} at t={ts:.6} — best-effort packing after {grace_why} at t={grace_at:.6}"
                        ),
                    )
                } else {
                    RaceFinding::error(
                        RaceRule::SlotOversubscription,
                        format!("server {srv} holds {held} task slots of {cap} at t={ts:.6}"),
                    )
                };
                report
                    .findings
                    .push(f.at_server(srv).at_stage(stage).at_task(task));
            } else if total > i64::from(cap) && held <= i64::from(cap) && !soft {
                soft = true;
                report.findings.push(
                    RaceFinding::warning(
                        RaceRule::SlotOversubscription,
                        format!(
                            "server {srv} holds {total} slots incl. speculative copies of {cap} at t={ts:.6}"
                        ),
                    )
                    .at_server(srv)
                    .at_stage(stage)
                    .at_task(task),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_obs::{Recorder, Track};

    fn write_ev(rec: &Recorder, stage: u32, task: u32, server: u32, ws: f64, commit: f64) {
        rec.event(
            "hb.write",
            Track::server(server, 0),
            commit,
            vec![
                ("stage", stage.into()),
                ("task", task.into()),
                ("server", server.into()),
                ("write_start", ws.into()),
            ],
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn read_ev(
        rec: &Recorder,
        stage: u32,
        task: u32,
        server: u32,
        edge: u32,
        src: u32,
        medium: &'static str,
        ts: f64,
    ) {
        rec.event(
            "hb.read",
            Track::server(server, 1),
            ts,
            vec![
                ("stage", stage.into()),
                ("task", task.into()),
                ("server", server.into()),
                ("edge", edge.into()),
                ("src_stage", src.into()),
                ("pipelined", 0u32.into()),
                ("medium", medium.into()),
                ("compute_start", (ts + 0.5).into()),
            ],
        );
    }

    fn slot_evs(rec: &Recorder, stage: u32, task: u32, server: u32, start: f64, end: f64) {
        for (name, ts) in [("hb.slot_acquire", start), ("hb.slot_release", end)] {
            rec.event(
                name,
                Track::server(server, 0),
                ts,
                vec![
                    ("stage", stage.into()),
                    ("task", task.into()),
                    ("server", server.into()),
                    ("kind", "task".into()),
                ],
            );
        }
    }

    #[test]
    fn clean_trace_certifies_clean() {
        let rec = Recorder::new();
        write_ev(&rec, 0, 0, 0, 1.5, 2.0);
        slot_evs(&rec, 0, 0, 0, 0.0, 2.0);
        read_ev(&rec, 1, 0, 0, 0, 0, "s3", 2.0);
        slot_evs(&rec, 1, 0, 0, 2.0, 4.0);
        let report = check_trace(
            &rec.finish(),
            &RaceOptions {
                capacities: Some(vec![4]),
                ..Default::default()
            },
        );
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.malformed, 0);
        assert!(report.hb_edges > 0);
    }

    #[test]
    fn read_before_write_is_flagged_with_provenance() {
        let rec = Recorder::new();
        write_ev(&rec, 0, 0, 0, 1.5, 2.0);
        read_ev(&rec, 1, 3, 0, 7, 0, "s3", 1.0); // 1.0 < commit 2.0
        let report = check_trace(&rec.finish(), &RaceOptions::default());
        assert!(!report.is_clean());
        let f = &report.findings[0];
        assert_eq!(f.rule, RaceRule::ReadBeforeWrite);
        assert_eq!(f.stage, Some(1));
        assert_eq!(f.task, Some(3));
        assert_eq!(f.edge, Some(7));
    }

    #[test]
    fn oversubscription_severity_depends_on_kind_and_failover() {
        let rec = Recorder::new();
        slot_evs(&rec, 0, 0, 0, 0.0, 5.0);
        slot_evs(&rec, 0, 1, 0, 1.0, 5.0);
        slot_evs(&rec, 0, 2, 0, 2.0, 5.0); // 3 concurrent, cap 2
        let report = check_trace(
            &rec.finish(),
            &RaceOptions {
                capacities: Some(vec![2]),
                ..Default::default()
            },
        );
        assert_eq!(report.error_count(), 1, "{}", report.render());
        assert_eq!(report.findings[0].server, Some(0));

        // Same holds, but a failover precedes the over-cap instant.
        let rec = Recorder::new();
        slot_evs(&rec, 0, 0, 0, 0.0, 5.0);
        slot_evs(&rec, 0, 1, 0, 1.0, 5.0);
        slot_evs(&rec, 0, 2, 0, 2.0, 5.0);
        rec.event("fault.server_lost", Track::server(1, 0), 1.5, vec![]);
        let report = check_trace(
            &rec.finish(),
            &RaceOptions {
                capacities: Some(vec![2, 2]),
                ..Default::default()
            },
        );
        assert_eq!(report.error_count(), 0, "{}", report.render());
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn cross_server_shm_read_is_an_error() {
        let rec = Recorder::new();
        write_ev(&rec, 0, 0, 1, 0.5, 1.0); // producer on server 1 only
        read_ev(&rec, 1, 0, 0, 0, 0, "shared-memory", 1.0); // reader on 0
        let report = check_trace(&rec.finish(), &RaceOptions::default());
        assert!(!report.is_clean());
        assert_eq!(report.findings[0].rule, RaceRule::CrossServerShm);
        assert_eq!(report.findings[0].server, Some(0));
    }

    #[test]
    fn spanning_shm_placement_is_a_single_warning_per_edge() {
        let rec = Recorder::new();
        write_ev(&rec, 0, 0, 0, 0.2, 0.8); // producer partitions on both
        write_ev(&rec, 0, 1, 1, 0.3, 0.9); // servers: resident locally,
        read_ev(&rec, 1, 0, 0, 0, 0, "shared-memory", 1.0); // remote share
        read_ev(&rec, 1, 1, 1, 0, 0, "shared-memory", 1.0); // modeled local
        let report = check_trace(&rec.finish(), &RaceOptions::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.findings[0].rule, RaceRule::CrossServerShm);
    }
}
