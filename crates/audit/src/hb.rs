//! Happens-before graph over a `ditto-obs` event stream.
//!
//! The executor emits `hb.*` instant events alongside the regular
//! telemetry: one `hb.write` per surviving task output, one `hb.read` per
//! (consumer task, in-edge), matched `hb.slot_acquire`/`hb.slot_release`
//! pairs per slot-occupancy interval, and `hb.seam` markers at applied
//! replan splices. `hb.object_commit`/`hb.object_fetch` for storage
//! objects come only from imported traces: no engine emits them. Lineage
//! recovery reuses the existing `fault.object_lost`/`fault.object_corrupt`
//! (detection) and `recovery.lineage_reexec` (heal) events.
//!
//! [`HbGraph::build`] parses those events out of a [`TraceData`] —
//! anyone's `--trace-out` artifact, not just an in-process run — into
//! typed [`Op`]s and connects them with the *intended* ordering edges of
//! the execution model ([`EdgeRule`]). Edges are added whether or not
//! the recorded timestamps respect them: the race checker
//! ([`crate::race`]) walks the edges and turns each violated one into a
//! typed finding, so "hazard → hb edge rule → finding" is a straight
//! table (DESIGN.md §6j).
//!
//! Every op gets a vector clock over the dense actor set (one actor per
//! (stage, task), plus the scheduler and storage tracks), assigned in
//! Kahn topological order. [`HbGraph::happens_before`] answers
//! reachability from the clocks; a cyclic graph (only possible on a
//! corrupted or hand-forged trace) is reported via [`HbGraph::cycle`].

use ditto_obs::{AttrValue, EventRecord, TraceData};
use std::collections::BTreeMap;

/// Which ordering rule an hb edge encodes. One variant per hazard class
/// the checker knows; DESIGN.md §6j maps each to its finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRule {
    /// Consecutive ops of one actor, in timestamp order.
    ProgramOrder,
    /// Non-pipelined shuffle: every producer commit precedes the read.
    CommitToRead,
    /// Pipelined shuffle: the earliest producer write-start precedes the
    /// consumer's read-start (streaming may begin then, not before).
    StreamStartToRead,
    /// Pipelined shuffle: every producer commit precedes the consumer's
    /// *compute* start — the consumer cannot finish ingesting bytes that
    /// have not been emitted.
    CommitToCompute,
    /// A fault's detection precedes its lineage heal.
    DetectToHeal,
    /// A healed object's regeneration precedes every externally-stored
    /// read of the producing stage's outputs.
    HealToRead,
    /// A slot acquire precedes its matched release.
    AcquireToRelease,
    /// An applied replan's seam precedes every read over a seam edge.
    SeamToRead,
    /// A dataplane object's commit precedes each fetch of its key.
    CommitToFetch,
}

/// What kind of event an [`Op`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// `hb.write` — a task's surviving output commits (ts = commit).
    Write,
    /// `hb.read` — a task starts reading one in-edge (ts = read start).
    Read,
    /// `hb.slot_acquire` — a slot-occupancy interval opens.
    Acquire,
    /// `hb.slot_release` — a slot-occupancy interval closes.
    Release,
    /// `fault.object_lost` / `fault.object_corrupt` — first reader
    /// detects a damaged upstream object.
    Detect,
    /// `recovery.lineage_reexec` — the re-executed producer republishes.
    Heal,
    /// `hb.seam` — an applied replan splice crosses this DAG edge.
    Seam,
    /// `hb.object_commit` — dataplane object becomes durable.
    Commit,
    /// `hb.object_fetch` — dataplane object is fetched.
    Fetch,
}

/// One parsed `hb.*` (or lineage) event: the node type of the hb graph.
#[derive(Debug, Clone)]
pub struct Op {
    /// Node type.
    pub(crate) kind: OpKind,
    /// Event timestamp (commit instant for writes, read start for reads,
    /// interval endpoints for acquire/release, splice instant for seams).
    pub(crate) ts: f64,
    /// Stage the op belongs to (producer stage for detect/heal).
    pub(crate) stage: Option<u32>,
    /// Task within the stage.
    pub(crate) task: Option<u32>,
    /// Server the op ran on.
    pub(crate) server: Option<u32>,
    /// DAG edge index (reads and seams).
    pub(crate) edge: Option<u32>,
    /// Producing stage of the edge being read.
    pub(crate) src_stage: Option<u32>,
    /// Write-start instant carried by `hb.write` (streaming begins here).
    pub(crate) write_start: Option<f64>,
    /// Compute-start instant carried by `hb.read`.
    pub(crate) compute_start: Option<f64>,
    /// Whether the read's edge is pipelined.
    pub(crate) pipelined: bool,
    /// Transfer medium label of the read's edge (`"shared-memory"`,
    /// `"redis"`, `"s3"`).
    pub(crate) medium: Option<String>,
    /// Slot kind: `true` for speculative copies (run without reserving).
    pub(crate) speculative: bool,
    /// Dataplane object key (commit/fetch).
    pub(crate) key: Option<String>,
}

impl Op {
    fn blank(kind: OpKind, ts: f64) -> Self {
        Op {
            kind,
            ts,
            stage: None,
            task: None,
            server: None,
            edge: None,
            src_stage: None,
            write_start: None,
            compute_start: None,
            pipelined: false,
            medium: None,
            speculative: false,
            key: None,
        }
    }
}

/// A directed happens-before edge between two ops, tagged with the rule
/// that demands the ordering.
#[derive(Debug, Clone, Copy)]
pub struct HbEdge {
    /// Index into [`HbGraph::ops`] of the earlier op.
    pub from: usize,
    /// Index into [`HbGraph::ops`] of the later op.
    pub to: usize,
    /// Why `from` must precede `to`.
    pub rule: EdgeRule,
}

/// The happens-before graph: parsed ops, intended edges, vector clocks.
#[derive(Debug, Clone, Default)]
pub struct HbGraph {
    /// All parsed ops, in trace emission order.
    pub ops: Vec<Op>,
    /// All intended ordering edges (violations included — the race
    /// checker grades them).
    pub edges: Vec<HbEdge>,
    /// Vector clock per op over the dense actor set; empty if the graph
    /// is cyclic.
    pub(crate) clocks: Vec<Vec<u32>>,
    /// Actor index and 1-based sequence number per op (parallel to
    /// `ops`); empty if the graph is cyclic.
    pub(crate) actor_seq: Vec<(usize, u32)>,
    /// Number of distinct actors.
    pub(crate) actors: usize,
    /// Op indices left unsorted by Kahn's algorithm — non-empty iff the
    /// graph has a cycle (every listed op sits on or behind one).
    pub cycle: Vec<usize>,
    /// Count of `hb.*`-named events that failed to parse (missing or
    /// mistyped attributes).
    pub malformed: usize,
}

/// Actor identity for vector clocks: every (stage, task) pair is an
/// actor, the scheduler track is one, the storage track is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Actor {
    Task(u32, u32),
    Scheduler,
    Storage,
}

fn attr_u64(ev: &EventRecord, key: &str) -> Option<u64> {
    match ev.attr(key)? {
        AttrValue::U64(v) => Some(*v),
        _ => None,
    }
}

fn attr_f64(ev: &EventRecord, key: &str) -> Option<f64> {
    match ev.attr(key)? {
        AttrValue::F64(v) => Some(*v),
        AttrValue::U64(v) => Some(*v as f64),
        _ => None,
    }
}

fn attr_str<'a>(ev: &'a EventRecord, key: &str) -> Option<&'a str> {
    match ev.attr(key)? {
        AttrValue::Str(s) => Some(s),
        AttrValue::Text(s) => Some(s.as_str()),
        _ => None,
    }
}

fn parse_op(ev: &EventRecord) -> Result<Option<Op>, ()> {
    let op = match ev.name {
        "hb.write" => {
            let mut op = Op::blank(OpKind::Write, ev.ts);
            op.stage = Some(attr_u64(ev, "stage").ok_or(())? as u32);
            op.task = Some(attr_u64(ev, "task").ok_or(())? as u32);
            op.server = Some(attr_u64(ev, "server").ok_or(())? as u32);
            op.write_start = Some(attr_f64(ev, "write_start").ok_or(())?);
            op
        }
        "hb.read" => {
            let mut op = Op::blank(OpKind::Read, ev.ts);
            op.stage = Some(attr_u64(ev, "stage").ok_or(())? as u32);
            op.task = Some(attr_u64(ev, "task").ok_or(())? as u32);
            op.server = Some(attr_u64(ev, "server").ok_or(())? as u32);
            op.edge = Some(attr_u64(ev, "edge").ok_or(())? as u32);
            op.src_stage = Some(attr_u64(ev, "src_stage").ok_or(())? as u32);
            op.pipelined = attr_u64(ev, "pipelined").ok_or(())? != 0;
            op.medium = Some(attr_str(ev, "medium").ok_or(())?.to_string());
            op.compute_start = Some(attr_f64(ev, "compute_start").ok_or(())?);
            op
        }
        "hb.slot_acquire" | "hb.slot_release" => {
            let kind = if ev.name == "hb.slot_acquire" {
                OpKind::Acquire
            } else {
                OpKind::Release
            };
            let mut op = Op::blank(kind, ev.ts);
            op.stage = Some(attr_u64(ev, "stage").ok_or(())? as u32);
            op.task = Some(attr_u64(ev, "task").ok_or(())? as u32);
            op.server = Some(attr_u64(ev, "server").ok_or(())? as u32);
            op.speculative = attr_str(ev, "kind").ok_or(())? == "spec";
            op
        }
        "hb.seam" => {
            let mut op = Op::blank(OpKind::Seam, ev.ts);
            op.edge = Some(attr_u64(ev, "edge").ok_or(())? as u32);
            op.src_stage = Some(attr_u64(ev, "src_stage").ok_or(())? as u32);
            op.stage = Some(attr_u64(ev, "dst_stage").ok_or(())? as u32);
            op
        }
        "fault.object_lost" | "fault.object_corrupt" => {
            let mut op = Op::blank(OpKind::Detect, ev.ts);
            op.stage = Some(attr_u64(ev, "stage").ok_or(())? as u32);
            op.task = Some(attr_u64(ev, "task").ok_or(())? as u32);
            op
        }
        "recovery.lineage_reexec" => {
            let mut op = Op::blank(OpKind::Heal, ev.ts);
            op.stage = Some(attr_u64(ev, "stage").ok_or(())? as u32);
            op.task = Some(attr_u64(ev, "task").ok_or(())? as u32);
            op
        }
        "hb.object_commit" | "hb.object_fetch" => {
            let kind = if ev.name == "hb.object_commit" {
                OpKind::Commit
            } else {
                OpKind::Fetch
            };
            let mut op = Op::blank(kind, ev.ts);
            op.key = Some(attr_str(ev, "key").ok_or(())?.to_string());
            op
        }
        _ => return Ok(None),
    };
    Ok(Some(op))
}

fn actor_of(op: &Op) -> Actor {
    match op.kind {
        OpKind::Seam => Actor::Scheduler,
        OpKind::Detect | OpKind::Heal | OpKind::Commit | OpKind::Fetch => Actor::Storage,
        _ => Actor::Task(op.stage.unwrap_or(0), op.task.unwrap_or(0)),
    }
}

impl HbGraph {
    /// Parse a trace's event stream and build the full hb graph.
    pub fn build(trace: &TraceData) -> HbGraph {
        let mut g = HbGraph::default();
        for ev in &trace.events {
            match parse_op(ev) {
                Ok(Some(op)) => g.ops.push(op),
                Ok(None) => {}
                Err(()) => g.malformed += 1,
            }
        }
        g.connect();
        g.assign_clocks();
        g
    }

    /// Add every intended ordering edge between the parsed ops.
    fn connect(&mut self) {
        /// Acquire/release op indexes of one slot, keyed by
        /// (stage, task, server, speculative).
        type SlotIntervals = BTreeMap<(u32, u32, u32, bool), (Vec<usize>, Vec<usize>)>;
        // Category indexes, all keyed deterministically.
        let mut writes_by_stage: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut reads: Vec<usize> = Vec::new();
        let mut seams: Vec<usize> = Vec::new();
        let mut detects: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        let mut heals: BTreeMap<(u32, u32), Vec<usize>> = BTreeMap::new();
        let mut commits: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut fetches: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut intervals: SlotIntervals = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op.kind {
                OpKind::Write => writes_by_stage
                    .entry(op.stage.unwrap_or(0))
                    .or_default()
                    .push(i),
                OpKind::Read => reads.push(i),
                OpKind::Seam => seams.push(i),
                OpKind::Detect => detects
                    .entry((op.stage.unwrap_or(0), op.task.unwrap_or(0)))
                    .or_default()
                    .push(i),
                OpKind::Heal => heals
                    .entry((op.stage.unwrap_or(0), op.task.unwrap_or(0)))
                    .or_default()
                    .push(i),
                OpKind::Commit => commits.entry(op.key.as_deref().unwrap_or("")).or_default().push(i),
                OpKind::Fetch => fetches.entry(op.key.as_deref().unwrap_or("")).or_default().push(i),
                OpKind::Acquire | OpKind::Release => {
                    let slot = intervals
                        .entry((
                            op.stage.unwrap_or(0),
                            op.task.unwrap_or(0),
                            op.server.unwrap_or(0),
                            op.speculative,
                        ))
                        .or_default();
                    if op.kind == OpKind::Acquire {
                        slot.0.push(i);
                    } else {
                        slot.1.push(i);
                    }
                }
            }
        }

        // Program order: each actor's ops chained by (ts, emission index).
        let mut per_actor: BTreeMap<Actor, Vec<usize>> = BTreeMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            per_actor.entry(actor_of(op)).or_default().push(i);
        }
        for ops in per_actor.values_mut() {
            ops.sort_by(|&a, &b| {
                self.ops[a]
                    .ts
                    .partial_cmp(&self.ops[b].ts)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for pair in ops.windows(2) {
                self.edges.push(HbEdge {
                    from: pair[0],
                    to: pair[1],
                    rule: EdgeRule::ProgramOrder,
                });
            }
        }

        // Shuffle-ordering rules, per read.
        for &r in &reads {
            let src = self.ops[r].src_stage.unwrap_or(0);
            let Some(ws) = writes_by_stage.get(&src) else {
                continue; // missing writes are the race checker's roster job
            };
            if self.ops[r].pipelined {
                // Streaming begins at the earliest producer write-start...
                if let Some(&w_first) = ws.iter().min_by(|&&a, &&b| {
                    let ka = self.ops[a].write_start.unwrap_or(f64::INFINITY);
                    let kb = self.ops[b].write_start.unwrap_or(f64::INFINITY);
                    ka.partial_cmp(&kb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                }) {
                    self.edges.push(HbEdge {
                        from: w_first,
                        to: r,
                        rule: EdgeRule::StreamStartToRead,
                    });
                }
                // ...but ingestion cannot outrun any producer's commit.
                for &w in ws {
                    self.edges.push(HbEdge {
                        from: w,
                        to: r,
                        rule: EdgeRule::CommitToCompute,
                    });
                }
            } else {
                for &w in ws {
                    self.edges.push(HbEdge {
                        from: w,
                        to: r,
                        rule: EdgeRule::CommitToRead,
                    });
                }
            }
        }

        // Lineage: detection precedes heal (paired in emission order);
        // heal precedes every externally-stored read of that stage.
        for (key, ds) in &detects {
            if let Some(hs) = heals.get(key) {
                for (&d, &h) in ds.iter().zip(hs.iter()) {
                    self.edges.push(HbEdge {
                        from: d,
                        to: h,
                        rule: EdgeRule::DetectToHeal,
                    });
                }
            }
        }
        for ((src, _task), hs) in &heals {
            for &h in hs {
                for &r in &reads {
                    let rd = &self.ops[r];
                    if rd.src_stage == Some(*src)
                        && rd.medium.as_deref() != Some("shared-memory")
                    {
                        self.edges.push(HbEdge {
                            from: h,
                            to: r,
                            rule: EdgeRule::HealToRead,
                        });
                    }
                }
            }
        }

        // Slot intervals: acquire precedes its matched release.
        for (acqs, rels) in intervals.values() {
            for (&a, &rel) in acqs.iter().zip(rels.iter()) {
                self.edges.push(HbEdge {
                    from: a,
                    to: rel,
                    rule: EdgeRule::AcquireToRelease,
                });
            }
        }

        // Replan seams: the splice precedes every read over a seam edge.
        for &sm in &seams {
            let e = self.ops[sm].edge;
            for &r in &reads {
                if self.ops[r].edge == e {
                    self.edges.push(HbEdge {
                        from: sm,
                        to: r,
                        rule: EdgeRule::SeamToRead,
                    });
                }
            }
        }

        // Dataplane objects: commit precedes each fetch of the same key.
        for (key, cs) in &commits {
            if let Some(fs) = fetches.get(key) {
                for &c in cs {
                    for &f in fs {
                        self.edges.push(HbEdge {
                            from: c,
                            to: f,
                            rule: EdgeRule::CommitToFetch,
                        });
                    }
                }
            }
        }
    }

    /// Kahn topological sort + vector-clock assignment. On a cycle,
    /// `cycle` lists the unsortable ops and clocks stay empty.
    fn assign_clocks(&mut self) {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            indeg[e.to] += 1;
            out[e.from].push(e.to);
        }
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(i);
            for &j in &out[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            self.cycle = (0..n).filter(|&i| indeg[i] > 0).collect();
            return;
        }

        // Dense actor ids, then clocks in topo order: join predecessors,
        // tick own component.
        let mut actor_ids: BTreeMap<Actor, usize> = BTreeMap::new();
        for op in &self.ops {
            let next = actor_ids.len();
            actor_ids.entry(actor_of(op)).or_insert(next);
        }
        self.actors = actor_ids.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for e in &self.edges {
            preds[e.to].push(e.from);
        }
        self.clocks = vec![Vec::new(); n];
        self.actor_seq = vec![(0, 0); n];
        for &i in &order {
            let mut clock = vec![0u32; self.actors];
            for &p in &preds[i] {
                for (c, &pc) in clock.iter_mut().zip(self.clocks[p].iter()) {
                    *c = (*c).max(pc);
                }
            }
            let a = actor_ids[&actor_of(&self.ops[i])];
            clock[a] += 1;
            self.actor_seq[i] = (a, clock[a]);
            self.clocks[i] = clock;
        }
    }

    /// Whether op `a` happens before op `b` under the intended edges
    /// (transitive). Meaningless (always `false`) on a cyclic graph.
    pub fn happens_before(&self, a: usize, b: usize) -> bool {
        if a == b || self.clocks.is_empty() {
            return false;
        }
        let (actor, seq) = self.actor_seq[a];
        self.clocks[b].get(actor).is_some_and(|&c| c >= seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_obs::{Recorder, Track};

    fn tiny_trace() -> TraceData {
        let rec = Recorder::new();
        // Producer stage 0 task 0 writes at t=2 (write started at 1.5).
        rec.event(
            "hb.write",
            Track::server(0, 0),
            2.0,
            vec![
                ("stage", 0u32.into()),
                ("task", 0u32.into()),
                ("server", 0u32.into()),
                ("write_start", 1.5f64.into()),
            ],
        );
        // Consumer stage 1 task 0 reads the edge at t=2 (non-pipelined).
        rec.event(
            "hb.read",
            Track::server(0, 1),
            2.0,
            vec![
                ("stage", 1u32.into()),
                ("task", 0u32.into()),
                ("server", 0u32.into()),
                ("edge", 0u32.into()),
                ("src_stage", 0u32.into()),
                ("pipelined", 0u32.into()),
                ("medium", "s3".into()),
                ("compute_start", 2.5f64.into()),
            ],
        );
        rec.finish()
    }

    #[test]
    fn builds_commit_to_read_edge_and_clocks() {
        let g = HbGraph::build(&tiny_trace());
        assert_eq!(g.ops.len(), 2);
        assert_eq!(g.malformed, 0);
        assert!(g.cycle.is_empty());
        assert!(g
            .edges
            .iter()
            .any(|e| e.rule == EdgeRule::CommitToRead && e.from == 0 && e.to == 1));
        // Write and read are different actors; the edge orders them.
        assert_eq!(g.actors, 2);
        assert!(g.happens_before(0, 1));
        assert!(!g.happens_before(1, 0));
    }

    #[test]
    fn malformed_hb_events_are_counted_not_fatal() {
        let rec = Recorder::new();
        rec.event("hb.write", Track::server(0, 0), 1.0, vec![("stage", 0u32.into())]);
        rec.event("sched.merge", Track::scheduler(0), 0.0, vec![]);
        let g = HbGraph::build(&rec.finish());
        assert_eq!(g.ops.len(), 0);
        assert_eq!(g.malformed, 1);
    }

    #[test]
    fn vector_clocks_agree_with_reachability() {
        // Diamond over four actors: w -> r1, w -> r2, r1/r2 unordered.
        let rec = Recorder::new();
        rec.event(
            "hb.write",
            Track::server(0, 0),
            1.0,
            vec![
                ("stage", 0u32.into()),
                ("task", 0u32.into()),
                ("server", 0u32.into()),
                ("write_start", 0.5f64.into()),
            ],
        );
        for task in 0..2u32 {
            rec.event(
                "hb.read",
                Track::server(0, 1),
                1.0,
                vec![
                    ("stage", 1u32.into()),
                    ("task", task.into()),
                    ("server", 0u32.into()),
                    ("edge", 0u32.into()),
                    ("src_stage", 0u32.into()),
                    ("pipelined", 0u32.into()),
                    ("medium", "redis".into()),
                    ("compute_start", 1.5f64.into()),
                ],
            );
        }
        let g = HbGraph::build(&rec.finish());
        assert!(g.happens_before(0, 1));
        assert!(g.happens_before(0, 2));
        assert!(!g.happens_before(1, 2));
        assert!(!g.happens_before(2, 1));
    }
}
