//! Outside-in tracing: spans recorded by the benchmark around each call
//! into a layer's public function. Nothing here reaches inside the crates
//! under test; a span is two `Instant` reads and a `Vec` push, kept in
//! memory until the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of the parentless span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `exec.try_run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Job this span belongs to (spans of one job share it).
    pub job: u32,
    /// Lane for the Chrome export: 0 = the client thread, `1 + server`
    /// for task spans rebuilt from the runner's records.
    pub lane: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Span recorder. Disabled, every method is a branch and nothing else, so
/// the end-to-end run pays nothing for the traced run's existence.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    current: u32,
    last_closed: u32,
    job: u32,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            current: NO_PARENT,
            last_closed: NO_PARENT,
            job: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.current,
            job: self.job,
            lane: 0,
        });
        self.current = idx;
        Open(idx)
    }

    /// Close `open` (spans close in LIFO order).
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        self.current = span.parent;
        self.last_closed = open.0;
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Open the root span of the next job.
    pub fn begin_job(&mut self) -> Open {
        self.job += 1;
        self.begin("job")
    }

    /// Index of the most recently closed span — the parent for spans
    /// rebuilt from what that call returned.
    pub fn last_closed(&self) -> u32 {
        self.last_closed
    }

    /// Add a finished span under `parent`, placed `offset_s` seconds after
    /// the parent's start and clamped into it (the runner's task records
    /// are relative to its own start instant, a few microseconds after
    /// the benchmark's).
    pub fn add_child(
        &mut self,
        parent: u32,
        name: &'static str,
        offset_s: f64,
        dur_s: f64,
        lane: u32,
    ) {
        if !self.enabled {
            return;
        }
        let (p_start, p_end, job) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.job)
        };
        let start = (p_start + (offset_s.max(0.0) * 1e9) as u64).min(p_end);
        let end = (start + (dur_s.max(0.0) * 1e9) as u64).min(p_end);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            job,
            lane,
        });
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Median duration of the spans named `name`, seconds (0 if none).
    pub fn p50(&self, name: &str) -> f64 {
        median(&self.durations(name))
    }

    /// `Σ |job − Σ direct children| ÷ Σ job` over every job span: the
    /// share of job time the layer spans do not account for.
    pub fn residual_share(&self) -> f64 {
        let mut child_sum: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == "job" {
                *child_sum.entry(s.parent).or_insert(0.0) += s.secs();
            }
        }
        let (mut total, mut residual) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == "job" {
                total += s.secs();
                residual += (s.secs() - child_sum.get(&(i as u32)).copied().unwrap_or(0.0)).abs();
            }
        }
        if total > 0.0 {
            residual / total
        } else {
            0.0
        }
    }

    /// Self time per span name over the whole run, seconds: a span's
    /// duration minus the part of it its children cover. Children of one
    /// parent may overlap (task spans run on parallel threads), so the
    /// covered part is the union of their intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut covered = 0u64;
            if let Some(iv) = children.get_mut(&(i as u32)) {
                iv.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in iv.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Chrome `trace_event` JSON of the spans of the first `max_jobs`
    /// jobs (the file is for reading in Perfetto; the metrics use every
    /// span). `pid` 1 is the benchmark client, `tid` the lane; each event
    /// carries its job id and parent index in `args`.
    pub fn to_chrome_trace(&self, workload: &str, max_jobs: u32) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"ditto-benchmark {workload}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            if s.job > max_jobs {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"job\":{},\"span\":{},\"parent\":{},\"ns\":{}}}}}",
                s.name,
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
                s.lane,
                s.job,
                i,
                parent,
                s.end_ns - s.start_ns,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let job = t.begin_job();
        assert_eq!(t.time("x", || 7), 7);
        t.end(job);
        assert!(t.spans().is_empty());
        assert_eq!(t.residual_share(), 0.0);
    }

    #[test]
    fn spans_nest_and_residual_closes() {
        let mut t = Tracer::new(true);
        let job = t.begin_job();
        t.time("a.x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b.y", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(job);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.spans()[2].job, 1);
        assert!(t.residual_share() < 0.05, "{}", t.residual_share());
        let own = t.self_times();
        assert!(own["job"] < own["a.x"]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let mut t = Tracer::new(true);
        let job = t.begin_job();
        let run = t.begin("exec.try_run");
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(run);
        let run_idx = t.last_closed();
        t.end(job);
        assert_eq!(run_idx, 1);
        // Two parallel tasks covering the same first 2 ms.
        t.add_child(run_idx, "task", 0.0, 0.002, 1);
        t.add_child(run_idx, "task", 0.0, 0.002, 2);
        let own = t.self_times();
        let run_secs = t.spans()[1].secs();
        assert!((own["exec.try_run"] - (run_secs - 0.002)).abs() < 1e-6);
        // Task spans do not count against the job's direct children.
        assert!(t.residual_share() < 0.05);
    }

    #[test]
    fn chrome_export_validates() {
        let mut t = Tracer::new(true);
        let job = t.begin_job();
        t.time("core.schedule", || ());
        t.end(job);
        let json = t.to_chrome_trace("unit", 10);
        assert_eq!(crate::adapter::validate_chrome_trace(&json), Ok(3));
    }
}
