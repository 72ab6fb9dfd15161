//! `compare <a.json> <b.json>`: two sets of runs (files written by
//! `--out`) against the contract's bounds. `a` is the parent or first
//! set, `b` the change or second set. Per (workload, end-to-end metric):
//! how much worse `b`'s median is than `a`'s, as a share of `a`'s;
//! "unresolved" when either side's own interquartile spread exceeds the
//! bound; a breach of the bound exits non-zero. Per-layer metrics have
//! no bound and are listed with their difference only.

use crate::spec::{end_to_end, MetricSpec, PER_LAYER};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `(workload, metric) → values over the runs`, in first-seen order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = root
        .get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    let mut out = Samples::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: run without `workload`"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{path}: run without `result.metrics`"))?;
        for (name, m) in metrics.iter() {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload}/{name} has no numeric `value`"))?;
            out.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Interquartile distance as a share of the median (0 below 2 samples).
fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// A side's own spread exceeds the bound: nothing can be concluded.
    Unresolved,
    /// `b` is worse than `a` by more than the bound.
    Breach,
    /// Per-layer metric: no bound.
    Info,
}

/// How much worse `b` is than `a`, as a share of `a`'s median, and the
/// verdict under `spec`'s bound.
pub fn judge(spec: &MetricSpec, bounded: bool, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if ma == 0.0 {
        0.0
    } else if spec.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let own = spread(a).max(spread(b));
    let verdict = if !bounded {
        Verdict::Info
    } else if own > spec.bound {
        Verdict::Unresolved
    } else if worse > spec.bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    };
    (worse, own, verdict)
}

/// Compare two result files; non-zero exit on a breach or a missing pair.
pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ditto-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    let (mut breaches, mut unresolved, mut missing) = (0, 0, 0);
    for ((workload, metric), va) in &a {
        let bounded = end_to_end(metric);
        let Some(spec) = bounded.or_else(|| PER_LAYER.iter().find(|m| m.name == metric)) else {
            println!("{workload:<16} {metric:<36} not in the contract");
            missing += 1;
            continue;
        };
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            // A file without traced runs simply has no per-layer rows.
            if bounded.is_some() {
                println!("{workload:<16} {metric:<36} missing from {b_path}");
                missing += 1;
            }
            continue;
        };
        let (worse, own, verdict) = judge(spec, bounded.is_some(), va, vb);
        match verdict {
            Verdict::Breach => breaches += 1,
            Verdict::Unresolved => unresolved += 1,
            _ => {}
        }
        println!(
            "{workload:<16} {metric:<36} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.1}%  {}",
            median(va),
            median(vb),
            worse * 100.0,
            own * 100.0,
            spec.bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Breach => "BREACH",
                Verdict::Info => "-",
            }
        );
    }
    for (workload, metric) in b.keys().filter(|k| !a.contains_key(*k)) {
        if end_to_end(metric).is_some() {
            println!("{workload:<16} {metric:<36} missing from {a_path}");
            missing += 1;
        }
    }
    println!("{breaches} breached, {unresolved} unresolved, {missing} missing");
    if breaches + missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = |higher_is_better| MetricSpec {
            name: "m",
            unit: "ms",
            higher_is_better,
            bound: 0.10,
        };
        let (lower, higher) = (&spec(false), &spec(true));
        let steady = [10.0, 10.1, 9.9, 10.0];
        // 5 % slower: inside the bound.
        assert_eq!(
            judge(lower, true, &steady, &[10.5, 10.5, 10.6, 10.4]).2,
            Verdict::Ok
        );
        // 20 % slower: breach; 20 % faster: fine.
        assert_eq!(
            judge(lower, true, &steady, &[12.0, 12.0, 12.1, 11.9]).2,
            Verdict::Breach
        );
        assert_eq!(
            judge(lower, true, &steady, &[8.0, 8.0, 8.1, 7.9]).2,
            Verdict::Ok
        );
        // For a higher-is-better metric the signs flip.
        assert_eq!(
            judge(higher, true, &steady, &[8.0, 8.0, 8.1, 7.9]).2,
            Verdict::Breach
        );
        assert_eq!(
            judge(higher, true, &steady, &[12.0, 12.0, 12.1, 11.9]).2,
            Verdict::Ok
        );
        // A side noisier than the bound resolves nothing.
        assert_eq!(
            judge(lower, true, &[8.0, 10.0, 12.0, 14.0], &steady).2,
            Verdict::Unresolved
        );
        // Per-layer metrics are never judged.
        assert_eq!(
            judge(&PER_LAYER[0], false, &steady, &[20.0]).2,
            Verdict::Info
        );
    }
}
