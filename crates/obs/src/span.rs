//! Structured tracing: spans, events, counters and the [`Recorder`].
//!
//! A [`Recorder`] collects the full telemetry stream of one run:
//!
//! * **spans** — named intervals on a [`Track`] (a `(group, lane)` pair
//!   that maps to Chrome's `pid`/`tid`), optionally nested via a parent
//!   span id, carrying typed attributes;
//! * **events** — named instants with attributes (fault injections,
//!   scheduler verdicts, …);
//! * **counter samples** — timestamped cumulative values of a named
//!   counter series (bytes per storage medium, …), mirrored into the
//!   [`MetricsRegistry`].
//!
//! Timestamps are *trace seconds*: the simulator records sim-clock
//! seconds; wall-clock instrumentation (the scheduler) records seconds
//! since the recorder's epoch via [`Recorder::wall_now`]. Every record
//! additionally notes its wall-clock capture time.
//!
//! A recorder built with [`Recorder::disabled`] rejects every operation
//! after a single branch — no lock is taken, nothing allocates — so
//! instrumented code can thread `&Recorder` unconditionally through hot
//! paths (zero-cost when off).

use crate::metrics::MetricsRegistry;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::time::Instant;

/// A typed attribute value on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Static string (verdicts, outcome names, …).
    Str(&'static str),
    /// Owned string.
    Text(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}

/// A named attribute: `(key, value)`.
pub(crate) type Attr = (&'static str, AttrValue);

/// Where a span/event renders: `group` maps to a Chrome process (one box
/// per server, plus dedicated scheduler / storage / job groups), `lane`
/// to a thread within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Track {
    /// Track group (Chrome `pid`).
    pub group: u32,
    /// Lane within the group (Chrome `tid`).
    pub(crate) lane: u32,
}

impl Track {
    /// Group id of the scheduler track.
    pub const SCHEDULER_GROUP: u32 = 0;
    /// Group id of the storage/data-plane track.
    pub const STORAGE_GROUP: u32 = 1;
    /// Group id of the job-level (per-stage) track.
    pub const JOB_GROUP: u32 = 2;
    /// First group id of per-server tracks (`SERVER_BASE + server`).
    pub const SERVER_BASE: u32 = 10;

    /// The scheduler track, one lane per nesting level or concern.
    pub fn scheduler(lane: u32) -> Track {
        Track {
            group: Self::SCHEDULER_GROUP,
            lane,
        }
    }

    /// The storage track.
    pub fn storage() -> Track {
        Track {
            group: Self::STORAGE_GROUP,
            lane: 0,
        }
    }

    /// The job-level track; lane = stage index.
    pub fn job(lane: u32) -> Track {
        Track {
            group: Self::JOB_GROUP,
            lane,
        }
    }

    /// The track of one server; lane identifies the task slot.
    pub fn server(server: u32, lane: u32) -> Track {
        Track {
            group: Self::SERVER_BASE + server,
            lane,
        }
    }
}

/// Handle to a recorded span (0 = invalid / recorder disabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    /// The null span id (no parent / disabled recorder).
    pub const NONE: SpanId = SpanId(0);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id (1-based; 0 is reserved for "none").
    pub id: u32,
    /// Parent span id, 0 = top-level.
    pub parent: u32,
    /// Span name (namespaced, e.g. `sched.round`, `task`).
    pub name: &'static str,
    /// Render track.
    pub track: Track,
    /// Start, trace seconds.
    pub start: f64,
    /// End, trace seconds (`NaN` while still open).
    pub end: f64,
    /// Wall-clock capture time of the start, seconds since recorder epoch.
    pub(crate) wall_start: f64,
    /// Attributes.
    pub attrs: Vec<Attr>,
}

impl SpanRecord {
    /// Duration in trace seconds (0 for still-open spans).
    pub(crate) fn duration(&self) -> f64 {
        if self.end.is_finite() {
            self.end - self.start
        } else {
            0.0
        }
    }

    /// Look up an attribute by key.
    pub(crate) fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// An attribute as u64 (if present and integral).
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key)? {
            AttrValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// An attribute as f64 (numeric kinds only).
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key)? {
            AttrValue::F64(v) => Some(*v),
            AttrValue::U64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

/// One recorded instant event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Event name (namespaced, e.g. `fault.crashed`, `sched.merge`).
    pub name: &'static str,
    /// Render track.
    pub(crate) track: Track,
    /// Instant, trace seconds.
    pub ts: f64,
    /// Wall-clock capture time, seconds since recorder epoch.
    pub(crate) wall: f64,
    /// Attributes.
    pub attrs: Vec<Attr>,
}

impl EventRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// One timestamped cumulative counter sample.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter name (e.g. `storage.bytes`).
    pub(crate) name: &'static str,
    /// Series label within the counter (e.g. `shared_memory`).
    pub series: String,
    /// Sample instant, trace seconds.
    pub(crate) ts: f64,
    /// Cumulative value after this increment.
    pub total: f64,
}

/// An immutable snapshot of everything a [`Recorder`] collected.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    /// All spans, ordered by id (creation order).
    pub spans: Vec<SpanRecord>,
    /// All instant events, in emission order.
    pub events: Vec<EventRecord>,
    /// All counter samples, in emission order.
    pub samples: Vec<CounterSample>,
    /// Human-readable names of track groups.
    pub(crate) track_names: BTreeMap<u32, String>,
    /// Metrics registry snapshot.
    pub(crate) metrics: Vec<crate::metrics::MetricSnapshot>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    samples: Vec<CounterSample>,
    track_names: BTreeMap<u32, String>,
}

/// Thread-safe telemetry collector. See the `span` module docs.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// When set, [`Recorder::wall_now`] dispenses deterministic virtual
    /// microsecond ticks instead of reading the real clock.
    virtual_clock: Option<std::sync::atomic::AtomicU64>,
    inner: Mutex<Inner>,
    metrics: MetricsRegistry,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .field("spans", &inner.spans.len())
            .field("events", &inner.events.len())
            .field("samples", &inner.samples.len())
            .finish()
    }
}

impl Recorder {
    /// A recording (enabled) recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            virtual_clock: None,
            inner: Mutex::new(Inner::default()),
            metrics: MetricsRegistry::new(),
        }
    }

    /// A recording recorder whose wall clock is a deterministic virtual
    /// counter: every [`Recorder::wall_now`] call returns the next
    /// microsecond tick. Sim-clock timestamps are untouched; only
    /// wall-clock instrumentation (the scheduler spans) becomes
    /// reproducible, so two identical runs export byte-identical
    /// artifacts. Ordering between calls is preserved — ticks are
    /// strictly increasing — but durations no longer measure real time,
    /// so never use this recorder for overhead benchmarks.
    pub fn deterministic() -> Self {
        Recorder {
            virtual_clock: Some(std::sync::atomic::AtomicU64::new(0)),
            ..Recorder::new()
        }
    }

    /// A disabled recorder: every operation is a no-op after one branch.
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Whether this recorder records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Wall-clock seconds since the recorder's creation — the trace
    /// timestamp for instrumentation without a sim clock (the scheduler).
    /// On a [`Recorder::deterministic`] recorder this is a virtual
    /// microsecond tick instead.
    pub fn wall_now(&self) -> f64 {
        match &self.virtual_clock {
            Some(ticks) => {
                let t = ticks.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                t as f64 * 1e-6
            }
            None => self.epoch.elapsed().as_secs_f64(),
        }
    }

    /// Name a track group (shown as the process name in Chrome).
    pub fn name_track(&self, group: u32, name: &str) {
        if !self.enabled {
            return;
        }
        self.inner
            .lock()
            .track_names
            .entry(group)
            .or_insert_with(|| name.to_string());
    }

    /// Record a complete (already closed) span. Returns its id.
    pub fn span(
        &self,
        name: &'static str,
        track: Track,
        start: f64,
        end: f64,
        attrs: Vec<Attr>,
    ) -> SpanId {
        self.span_with_parent(name, track, start, end, SpanId::NONE, attrs)
    }

    /// Record a complete span under a parent.
    pub(crate) fn span_with_parent(
        &self,
        name: &'static str,
        track: Track,
        start: f64,
        end: f64,
        parent: SpanId,
        attrs: Vec<Attr>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let wall = self.wall_now();
        let mut inner = self.inner.lock();
        let id = inner.spans.len() as u32 + 1;
        inner.spans.push(SpanRecord {
            id,
            parent: parent.0,
            name,
            track,
            start,
            end,
            wall_start: wall,
            attrs,
        });
        SpanId(id)
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(
        &self,
        name: &'static str,
        track: Track,
        start: f64,
        parent: SpanId,
        attrs: Vec<Attr>,
    ) -> SpanId {
        self.span_with_parent(name, track, start, f64::NAN, parent, attrs)
    }

    /// Close a span opened with [`Recorder::begin`].
    pub fn end(&self, id: SpanId, end: f64) {
        if !self.enabled || id.0 == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(s) = inner.spans.get_mut(id.0 as usize - 1) {
            s.end = end;
        }
    }

    /// Record an instant event.
    pub fn event(&self, name: &'static str, track: Track, ts: f64, attrs: Vec<Attr>) {
        if !self.enabled {
            return;
        }
        let wall = self.wall_now();
        self.inner.lock().events.push(EventRecord {
            name,
            track,
            ts,
            wall,
            attrs,
        });
    }

    /// Increment a counter series by `delta` at trace time `ts`: updates
    /// the metrics registry and logs a cumulative sample for exporters.
    pub fn counter_add(&self, name: &'static str, series: &str, delta: f64, ts: f64) {
        if !self.enabled {
            return;
        }
        let total = self.metrics.counter_add(name, series, delta);
        self.inner.lock().samples.push(CounterSample {
            name,
            series: series.to_string(),
            ts,
            total,
        });
    }

    /// Observe a histogram value (no per-sample log — registry only).
    pub fn observe(&self, name: &'static str, series: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.metrics.observe(name, series, value);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &'static str, series: &str, value: f64) {
        if !self.enabled {
            return;
        }
        self.metrics.gauge_set(name, series, value);
    }

    /// Snapshot the collected stream for export/analysis. The recorder
    /// keeps recording; later snapshots include earlier data.
    pub fn finish(&self) -> TraceData {
        let inner = self.inner.lock();
        TraceData {
            spans: inner.spans.clone(),
            events: inner.events.clone(),
            samples: inner.samples.clone(),
            track_names: inner.track_names.clone(),
            metrics: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_events_counters() {
        let rec = Recorder::new();
        rec.name_track(Track::JOB_GROUP, "job");
        let root = rec.span("stage", Track::job(0), 0.0, 5.0, vec![("stage", 0u32.into())]);
        let child = rec.span_with_parent(
            "task",
            Track::server(1, 7),
            1.0,
            4.0,
            root,
            vec![("task", 7u32.into())],
        );
        assert_ne!(child, SpanId::NONE);
        rec.event("fault.crashed", Track::server(1, 7), 2.0, vec![]);
        rec.counter_add("storage.bytes", "s3", 100.0, 1.0);
        rec.counter_add("storage.bytes", "s3", 50.0, 2.0);
        let data = rec.finish();
        assert_eq!(data.spans.len(), 2);
        assert_eq!(data.spans[1].parent, data.spans[0].id);
        assert_eq!(data.events.len(), 1);
        assert_eq!(data.samples.len(), 2);
        assert_eq!(data.samples[1].total, 150.0);
        assert_eq!(data.track_names.get(&Track::JOB_GROUP).unwrap(), "job");
    }

    #[test]
    fn begin_end_close_spans() {
        let rec = Recorder::new();
        let id = rec.begin("sched.joint", Track::scheduler(0), 0.5, SpanId::NONE, vec![]);
        assert_eq!(rec.finish().spans[0].duration(), 0.0, "open span");
        rec.end(id, 2.5);
        let data = rec.finish();
        assert!((data.spans[0].duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let id = rec.span("task", Track::server(0, 0), 0.0, 1.0, vec![]);
        assert_eq!(id, SpanId::NONE);
        rec.end(id, 2.0);
        rec.event("e", Track::storage(), 0.0, vec![]);
        rec.counter_add("c", "x", 1.0, 0.0);
        rec.observe("h", "", 1.0);
        let data = rec.finish();
        assert!(data.spans.is_empty());
        assert!(data.events.is_empty());
        assert!(data.samples.is_empty());
        assert!(data.metrics.is_empty());
    }

    #[test]
    fn attr_lookups() {
        let rec = Recorder::new();
        rec.span(
            "task",
            Track::server(0, 0),
            0.0,
            1.0,
            vec![
                ("stage", 3u32.into()),
                ("mem", 2.5f64.into()),
                ("verdict", "accept".into()),
            ],
        );
        let data = rec.finish();
        let s = &data.spans[0];
        assert_eq!(s.attr_u64("stage"), Some(3));
        assert_eq!(s.attr_f64("mem"), Some(2.5));
        assert_eq!(s.attr_f64("stage"), Some(3.0));
        assert!(matches!(s.attr("verdict"), Some(AttrValue::Str("accept"))));
        assert!(s.attr("missing").is_none());
    }

    #[test]
    fn shared_across_threads() {
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        rec.span("task", Track::server(t, i), 0.0, 1.0, vec![]);
                        rec.counter_add("c", "x", 1.0, 0.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let data = rec.finish();
        assert_eq!(data.samples.len(), 200);
        // Cumulative totals are a permutation of 1..=200.
        let mut totals: Vec<u64> = data.samples.iter().map(|s| s.total as u64).collect();
        totals.sort_unstable();
        assert_eq!(totals, (1..=200).collect::<Vec<_>>());
    }
}
