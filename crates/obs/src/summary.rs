//! The end-of-run summary table.
//!
//! [`summary_table`] renders the human-readable digest of a finished
//! trace: per-span-name durations, event counts and every metric series.

use crate::metrics::MetricKind;
use crate::span::TraceData;
use std::collections::BTreeMap;

/// Render the human-readable end-of-run summary: spans grouped by name
/// (count, total/mean/max duration) followed by every metric series.
pub fn summary_table(data: &TraceData) -> String {
    struct Agg {
        count: u64,
        total: f64,
        max: f64,
    }
    let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in &data.spans {
        let d = s.duration();
        let agg = by_name.entry(s.name).or_insert(Agg {
            count: 0,
            total: 0.0,
            max: 0.0,
        });
        agg.count += 1;
        agg.total += d;
        agg.max = agg.max.max(d);
    }

    let mut out = String::new();
    out.push_str("== telemetry summary ==\n");
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total s", "mean s", "max s"
    ));
    for (name, agg) in &by_name {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.4} {:>12.4} {:>12.4}\n",
            name,
            agg.count,
            agg.total,
            agg.total / agg.count as f64,
            agg.max
        ));
    }
    if !data.events.is_empty() {
        let mut ev_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for e in &data.events {
            *ev_counts.entry(e.name).or_insert(0) += 1;
        }
        out.push_str(&format!("{:<28} {:>8}\n", "event", "count"));
        for (name, n) in &ev_counts {
            out.push_str(&format!("{:<28} {:>8}\n", name, n));
        }
    }
    if !data.metrics.is_empty() {
        out.push_str(&format!(
            "{:<28} {:<16} {:<10} {:>14} {:>10} {:>10} {:>10}\n",
            "metric", "series", "kind", "value", "p50", "p95", "p99"
        ));
        for m in &data.metrics {
            if m.kind == MetricKind::Histogram {
                out.push_str(&format!(
                    "{:<28} {:<16} {:<10} {:>14.4} {:>10.4} {:>10.4} {:>10.4}\n",
                    m.name,
                    m.series,
                    m.kind.as_str(),
                    m.value,
                    m.p50,
                    m.p95,
                    m.p99
                ));
            } else {
                out.push_str(&format!(
                    "{:<28} {:<16} {:<10} {:>14.4}\n",
                    m.name,
                    m.series,
                    m.kind.as_str(),
                    m.value
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Recorder, Track};

    fn demo() -> TraceData {
        let rec = Recorder::new();
        rec.span("task", Track::server(0, 1), 0.0, 2.0, vec![("stage", 1u32.into())]);
        rec.span("task", Track::server(0, 2), 0.0, 4.0, vec![]);
        rec.event("fault.crashed", Track::server(0, 1), 1.0, vec![]);
        rec.counter_add("storage.bytes", "redis", 8.0, 0.5);
        rec.observe("task.duration", "all", 2.0);
        rec.finish()
    }

    #[test]
    fn summary_aggregates_span_names() {
        let table = summary_table(&demo());
        assert!(table.contains("task"));
        assert!(table.contains("fault.crashed"));
        assert!(table.contains("storage.bytes"));
        let task_line = table.lines().find(|l| l.starts_with("task")).unwrap();
        assert!(task_line.contains("2"), "{task_line}"); // count
        assert!(task_line.contains("6.0000"), "{task_line}"); // total
        assert!(task_line.contains("3.0000"), "{task_line}"); // mean
    }
}
