//! Metrics registry: counters, gauges, log-scale histograms.
//!
//! Metrics are keyed by a static metric name plus a free-form series
//! label (`("storage.bytes", "s3")`, `("task.duration", "stage2")`).
//! Histograms are log₂-bucketed (4 buckets per octave) so p50/p95/p99
//! come out within ±9% of the true quantile over ~19 orders of
//! magnitude with a fixed 256-slot footprint.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Number of histogram buckets.
const BUCKETS: usize = 256;
/// Buckets per octave (powers of two).
const PER_OCTAVE: f64 = 4.0;
/// Bucket index of value 1.0 (allows sub-1.0 values down to ~2^-32).
const ONE_IDX: f64 = 128.0;

/// What kind of metric a [`MetricSnapshot`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonic sum of increments.
    Counter,
    /// Last-written value.
    Gauge,
    /// Log-scale distribution of observed values.
    Histogram,
}

impl MetricKind {
    /// Lower-case name for reports.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Fixed-footprint log-scale histogram.
#[derive(Debug, Clone)]
pub(crate) struct LogHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LogHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let idx = (v.log2() * PER_OCTAVE).floor() + ONE_IDX;
        idx.clamp(0.0, (BUCKETS - 1) as f64) as usize
    }

    /// Geometric midpoint of a bucket — the value reported for quantiles.
    fn bucket_mid(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        ((idx as f64 - ONE_IDX + 0.5) / PER_OCTAVE).exp2()
    }

    /// Record one value (non-positive / non-finite values land in bucket 0).
    pub(crate) fn observe(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.max = self.max.max(v);
        }
    }

    /// Sum of finite observations.
    pub(crate) fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest finite observation (0 when empty).
    pub(crate) fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket geometric midpoint).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_mid(idx);
            }
        }
        self.max()
    }
}

enum Metric {
    Counter(f64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// Point-in-time view of one metric series.
#[derive(Debug, Clone)]
pub(crate) struct MetricSnapshot {
    /// Metric name.
    pub(crate) name: &'static str,
    /// Series label ("" when unlabelled).
    pub(crate) series: String,
    /// Metric kind.
    pub(crate) kind: MetricKind,
    /// Counter total, gauge value, or histogram sum.
    pub(crate) value: f64,
    /// Histogram p50 (0 for counters/gauges).
    pub(crate) p50: f64,
    /// Histogram p95 (0 for counters/gauges).
    pub(crate) p95: f64,
    /// Histogram p99 (0 for counters/gauges).
    pub(crate) p99: f64,
}

/// Thread-safe registry of counters, gauges and histograms.
pub(crate) struct MetricsRegistry {
    metrics: Mutex<BTreeMap<(&'static str, String), Metric>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        MetricsRegistry {
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add `delta` to a counter; returns the new total.
    pub(crate) fn counter_add(&self, name: &'static str, series: &str, delta: f64) -> f64 {
        let mut m = self.metrics.lock();
        let entry = m
            .entry((name, series.to_string()))
            .or_insert(Metric::Counter(0.0));
        match entry {
            Metric::Counter(total) => {
                *total += delta;
                *total
            }
            _ => delta,
        }
    }

    /// Set a gauge.
    pub(crate) fn gauge_set(&self, name: &'static str, series: &str, value: f64) {
        self.metrics
            .lock()
            .insert((name, series.to_string()), Metric::Gauge(value));
    }

    /// Observe a histogram value.
    pub(crate) fn observe(&self, name: &'static str, series: &str, value: f64) {
        let mut m = self.metrics.lock();
        let entry = m
            .entry((name, series.to_string()))
            .or_insert_with(|| Metric::Histogram(LogHistogram::new()));
        if let Metric::Histogram(h) = entry {
            h.observe(value);
        }
    }

    /// Snapshot every series, sorted by (name, series).
    pub(crate) fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.metrics
            .lock()
            .iter()
            .map(|((name, series), metric)| match metric {
                Metric::Counter(total) => MetricSnapshot {
                    name,
                    series: series.clone(),
                    kind: MetricKind::Counter,
                    value: *total,
                    p50: 0.0,
                    p95: 0.0,
                    p99: 0.0,
                },
                Metric::Gauge(v) => MetricSnapshot {
                    name,
                    series: series.clone(),
                    kind: MetricKind::Gauge,
                    value: *v,
                    p50: 0.0,
                    p95: 0.0,
                    p99: 0.0,
                },
                Metric::Histogram(h) => MetricSnapshot {
                    name,
                    series: series.clone(),
                    kind: MetricKind::Histogram,
                    value: h.sum(),
                    p50: h.quantile(0.50),
                    p95: h.quantile(0.95),
                    p99: h.quantile(0.99),
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter_add("bytes", "s3", 10.0), 10.0);
        assert_eq!(reg.counter_add("bytes", "s3", 5.0), 15.0);
        assert_eq!(reg.counter_add("bytes", "redis", 1.0), 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].series, "redis"); // BTreeMap order
        assert_eq!(snap[1].value, 15.0);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("dop", "stage0", 8.0);
        reg.gauge_set("dop", "stage0", 4.0);
        let snap = reg.snapshot();
        assert_eq!(snap[0].kind, MetricKind::Gauge);
        assert_eq!(snap[0].value, 4.0);
    }

    #[test]
    fn histogram_quantiles_are_log_accurate() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0); // 0.01 .. 10.0
        }
        assert_eq!(h.count, 1000);
        // Bucket width is 2^(1/4) ≈ 1.19; midpoint readout error ≤ ~9%.
        let p50 = h.quantile(0.50);
        assert!((p50 / 5.0 - 1.0).abs() < 0.10, "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 9.9 - 1.0).abs() < 0.10, "p99={p99}");
        assert!(h.quantile(1.0) >= h.quantile(0.5));
        assert_eq!(h.max(), 10.0);
    }

    #[test]
    fn histogram_edge_cases() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 3);
        assert_eq!(h.quantile(0.5), 0.0); // all in the underflow bucket
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", "", 1.0);
        reg.gauge_set("g", "", 2.0);
        reg.observe("h", "", 4.0);
        reg.observe("h", "", 4.0);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 3);
        let h = snap.iter().find(|s| s.name == "h").unwrap();
        assert_eq!(h.kind, MetricKind::Histogram);
        assert_eq!(h.value, 8.0);
        assert!((h.p50 / 4.0 - 1.0).abs() < 0.10);
    }
}
