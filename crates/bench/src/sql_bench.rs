//! SQL data-plane benchmark: vectorized columnar kernels vs the retained
//! row-at-a-time reference implementations, plus the end-to-end effect on
//! the local runtime.
//!
//! Two tiers, both deterministic in everything except wall time:
//!
//! * **micro** — join (i64 and dictionary-string keys), group-by and
//!   fused partition+encode on synthetic tables of [`SQL_BENCH_ROWS`]
//!   rows, timing the vectorized kernel against the bit-identical
//!   reference from [`ditto_sql::reference`] (equivalence is proven in
//!   `crates/sql/tests/kernel_equivalence.rs`; this sweep measures only
//!   speed). The partition rows also report wire vs logical bytes — the
//!   codec's dictionary compression showing up as smaller frames.
//! * **e2e** — the five TPC-DS query plans through both single-node
//!   interpreters, plus a distributed [`LocalRuntime`] run (even-split
//!   schedule, 2×8 slots, S3 external medium) whose
//!   [`TransferLedger`](ditto_storage::TransferLedger)
//!   supplies shuffle wire bytes and pre-encoding logical bytes. The
//!   byte columns are placement- and codec-deterministic: two runs of
//!   the same sweep differ only in the `_ms` columns.
//!
//! `figures -- sqlbench` renders the full sweep and writes
//! `BENCH_sql.json`; `sqlbench-smoke` is the CI subset (smaller tables,
//! sf 0.2). The release-only test at the bottom enforces the ISSUE's
//! ≥3× floor on the join/group-by/partition micro-kernels at 1M rows.

use ditto_core::baselines::EvenSplitScheduler;
use ditto_core::{Objective, Scheduler, SchedulingContext};
use ditto_cluster::ResourceManager;
use ditto_exec::LocalRuntime;
use ditto_sql::column::{Column, DataType};
use ditto_sql::ops::group_by::{AggFunc, AggSpec};
use ditto_sql::ops::{group_by, hash_join, JoinKind};
use ditto_sql::queries::Query;
use ditto_sql::reference as refimpl;
use ditto_sql::{Database, ScaleConfig, Schema, Table};
use ditto_storage::{DataPlane, Medium};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;
use std::time::Instant;

/// Rows in the micro-benchmark probe tables for the full sweep (the
/// build side is a quarter of this). Matches the ISSUE's ≥3× floor.
pub const SQL_BENCH_ROWS: usize = 1_000_000;
/// Micro rows for the CI smoke subset (debug-build friendly).
pub const SQL_SMOKE_ROWS: usize = 60_000;
/// Database scale factor for the full e2e tier.
pub const SQL_BENCH_SF: f64 = 0.5;
/// Database scale factor for the smoke e2e tier.
pub const SQL_SMOKE_SF: f64 = 0.2;

/// One benchmark measurement: a micro kernel or an e2e query.
#[derive(Debug, Clone, Serialize)]
pub struct SqlBenchRow {
    /// `join_i64`, `join_str`, `group_by`, `partition`, or `q1`…`q95`.
    pub op: String,
    /// Input rows (probe-side rows for joins, fact-table rows for e2e).
    pub rows: u64,
    /// Median wall time of the row-at-a-time reference, milliseconds.
    pub reference_ms: f64,
    /// Median wall time of the vectorized kernel, milliseconds.
    pub vectorized_ms: f64,
    /// `reference_ms / vectorized_ms`.
    pub speedup: f64,
    /// Distributed `LocalRuntime` wall time (e2e rows only), ms.
    pub runner_ms: f64,
    /// Encoded bytes on the wire (partition micro + e2e shuffles).
    pub wire_bytes: u64,
    /// Pre-encoding logical bytes the wire traffic carried.
    pub logical_bytes: u64,
}

/// splitmix64: the deterministic generator behind the micro tables.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A synthetic fact table in TPC-DS shape: an i64 key with ~8 rows per
/// key, a low-cardinality dimension-value string column (1024 distinct
/// customers — the shape dictionary encoding exists for), an i64 payload
/// and an f64 payload.
fn micro_table(n: usize, seed: u64) -> Table {
    let mut s = seed;
    let key_range = (n as u64 / 8).max(1);
    let mut k = Vec::with_capacity(n);
    let mut cust = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    let mut x = Vec::with_capacity(n);
    for _ in 0..n {
        let r = splitmix(&mut s);
        k.push((r % key_range) as i64);
        cust.push(format!("cust-{:04}", (r >> 16) % 1024));
        v.push((r >> 32) as i64 % 1000);
        x.push(((r >> 8) % 10_000) as f64 / 100.0);
    }
    Table::new(
        Schema::new(&[
            ("k", DataType::I64),
            ("cust", DataType::Str),
            ("v", DataType::I64),
            ("x", DataType::F64),
        ]),
        vec![
            Column::I64(k.into()),
            Column::Str(cust.into()),
            Column::I64(v.into()),
            Column::F64(x.into()),
        ],
    )
}

/// Median wall time of `iters` calls, in milliseconds.
fn timed_ms<F: FnMut()>(iters: usize, mut call: F) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        call();
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_unstable_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Join inputs in the classic fact ⋈ dimension shape: a probe side of
/// `n` rows whose key column draws from `n/8` values (~8-row chains) and
/// a dimension build side with exactly those `n/8` keys, unique — so the
/// join output is exactly `n` rows and the measurement stays on the
/// hash-table build/probe, not on materializing a blown-up result.
fn join_tables(n: usize, string_key: bool) -> (Table, Table) {
    let mut s = 0xd177_05e3u64;
    let key_range = (n as u64 / 8).max(1);
    let key_col = |vals: Vec<i64>| -> (DataType, Column) {
        if string_key {
            (
                DataType::Str,
                Column::Str(vals.iter().map(|k| format!("cust-{k:07}")).collect()),
            )
        } else {
            (DataType::I64, Column::I64(vals.into()))
        }
    };
    let mut pk = Vec::with_capacity(n);
    let mut pv = Vec::with_capacity(n);
    for _ in 0..n {
        let r = splitmix(&mut s);
        pk.push((r % key_range) as i64);
        pv.push((r >> 32) as i64 % 1000);
    }
    let (dt, kc) = key_col(pk);
    let probe = Table::new(
        Schema::new(&[("k", dt), ("v", DataType::I64)]),
        vec![kc, Column::I64(pv.into())],
    );
    let dim: Vec<i64> = (0..key_range as i64).collect();
    let weights = Column::I64(dim.iter().map(|k| k * 3 % 97).collect());
    let (dt, kc) = key_col(dim);
    let build = Table::new(
        Schema::new(&[("dk", dt), ("w", DataType::I64)]),
        vec![kc, weights],
    );
    (probe, build)
}

/// The micro tier: both implementations on identical tables.
fn micro_rows(n: usize, iters: usize) -> Vec<SqlBenchRow> {
    let probe = micro_table(n, 0xd177_05e1);
    let aggs = [
        AggSpec {
            func: AggFunc::Sum,
            input: "x".into(),
            output: "sum_x".into(),
        },
        AggSpec {
            func: AggFunc::Count,
            input: "v".into(),
            output: "cnt".into(),
        },
    ];
    let mut rows = Vec::new();
    let mut push = |op: &str, reference_ms: f64, vectorized_ms: f64, wire: u64, logical: u64| {
        rows.push(SqlBenchRow {
            op: op.to_string(),
            rows: n as u64,
            reference_ms,
            vectorized_ms,
            speedup: reference_ms / vectorized_ms,
            runner_ms: 0.0,
            wire_bytes: wire,
            logical_bytes: logical,
        });
    };

    for (op, string_key) in [("join_i64", false), ("join_str", true)] {
        let (jp, jb) = join_tables(n, string_key);
        let r = timed_ms(iters, || {
            std::hint::black_box(refimpl::hash_join_reference(
                &jp,
                &jb,
                "k",
                "dk",
                JoinKind::Inner,
            ));
        });
        let v = timed_ms(iters, || {
            std::hint::black_box(hash_join(&jp, &jb, "k", "dk", JoinKind::Inner));
        });
        push(op, r, v, 0, 0);
    }

    let r = timed_ms(iters, || {
        std::hint::black_box(refimpl::group_by_reference(&probe, &["k"], &aggs, None));
    });
    let v = timed_ms(iters, || {
        std::hint::black_box(group_by(&probe, &["k"], &aggs, None));
    });
    push("group_by", r, v, 0, 0);

    // Fused partition+encode vs the two-step reference (partition, then
    // encode each bucket with the v1 row-at-a-time codec).
    const BUCKETS: usize = 16;
    let r = timed_ms(iters, || {
        for p in refimpl::hash_partition_reference(&probe, "cust", BUCKETS) {
            std::hint::black_box(refimpl::encode_reference(&p));
        }
    });
    let v = timed_ms(iters, || {
        std::hint::black_box(probe.encode_partitions("cust", BUCKETS));
    });
    let encoded = probe.encode_partitions("cust", BUCKETS);
    let wire: u64 = encoded.iter().map(|p| p.data.len() as u64).sum();
    push("partition", r, v, wire, probe.byte_size());
    rows
}

/// The e2e tier: the five query plans through both interpreters, plus a
/// distributed even-split run whose ledger supplies the byte columns.
fn e2e_rows(sf: f64) -> Vec<SqlBenchRow> {
    let db = Database::generate(ScaleConfig::with_sf(sf));
    let mut rows = Vec::new();
    for q in Query::all_extended() {
        let plan = q.prepared_plan(&db);
        let reference_ms = {
            let start = Instant::now();
            std::hint::black_box(refimpl::execute_plan_reference(&plan, &db));
            start.elapsed().as_secs_f64() * 1e3
        };
        let vectorized_ms = {
            let start = Instant::now();
            std::hint::black_box(plan.execute_reference(&db));
            start.elapsed().as_secs_f64() * 1e3
        };
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let dataplane = DataPlane::new(Medium::S3, 2);
        let out = LocalRuntime::new().execute(&plan, &db, &schedule, &dataplane);
        let l = out.ledger;
        let (wire, logical) = [l.shared_memory, l.redis, l.s3]
            .iter()
            .fold((0u64, 0u64), |(w, g), m| {
                (w + m.bytes_in, g + m.logical_bytes)
            });
        rows.push(SqlBenchRow {
            op: q.name().to_string(),
            rows: db.table("store_sales").num_rows() as u64,
            reference_ms,
            vectorized_ms,
            speedup: reference_ms / vectorized_ms,
            runner_ms: out.wall_seconds * 1e3,
            wire_bytes: wire,
            logical_bytes: logical,
        });
    }
    rows
}

/// Micro + e2e at the given scale — shared core of both entry points.
pub fn sql_bench_with(micro_n: usize, iters: usize, sf: f64) -> Vec<SqlBenchRow> {
    let mut rows = micro_rows(micro_n, iters);
    rows.extend(e2e_rows(sf));
    rows
}

/// The full sweep (1M-row micros, sf 0.5 e2e) — the source of
/// `BENCH_sql.json`.
pub fn sql_bench() -> Vec<SqlBenchRow> {
    sql_bench_with(SQL_BENCH_ROWS, 3, SQL_BENCH_SF)
}

/// The CI smoke sweep (60k-row micros, sf 0.2 e2e).
pub fn sql_bench_smoke() -> Vec<SqlBenchRow> {
    sql_bench_with(SQL_SMOKE_ROWS, 1, SQL_SMOKE_SF)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke sweep covers every micro kernel and every query, and its
    /// byte columns — the deterministic part of the artifact — are stable
    /// across runs.
    #[test]
    fn smoke_rows_are_complete_and_bytes_deterministic() {
        let rows = sql_bench_with(4_000, 1, 0.05);
        let ops: Vec<&str> = rows.iter().map(|r| r.op.as_str()).collect();
        for expect in ["join_i64", "join_str", "group_by", "partition"] {
            assert!(ops.contains(&expect), "missing micro op {expect}");
        }
        assert_eq!(rows.len(), 4 + Query::all_extended().len());
        for r in &rows {
            assert!(r.reference_ms > 0.0 && r.vectorized_ms > 0.0, "{}", r.op);
            assert!(r.speedup > 0.0, "{}", r.op);
        }
        // Partition and e2e rows carry byte accounting; the codec's
        // dictionary compression keeps wire at or below logical.
        let part = rows.iter().find(|r| r.op == "partition").unwrap();
        assert!(part.wire_bytes > 0 && part.wire_bytes <= part.logical_bytes);
        // E2e wire bytes include frame headers and Gather empty markers
        // (wire > 0, logical 0), so only the accounting itself is
        // asserted here — the wire-vs-logical saving is a partition-row
        // claim, where the payload dominates the headers.
        for r in rows.iter().filter(|r| r.op.starts_with('q')) {
            assert!(r.runner_ms > 0.0, "{}", r.op);
            assert!(r.wire_bytes > 0, "{}", r.op);
            assert!(r.logical_bytes > 0, "{}", r.op);
        }
        let again = sql_bench_with(4_000, 1, 0.05);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!((&a.op, a.rows), (&b.op, b.rows));
            assert_eq!(a.wire_bytes, b.wire_bytes, "{}", a.op);
            assert_eq!(a.logical_bytes, b.logical_bytes, "{}", a.op);
        }
    }

    /// The ISSUE's performance floor: at 1M rows the vectorized i64 join,
    /// group-by and fused partition+encode are each ≥3× the reference.
    /// Release-only — debug builds skew the constant factors.
    #[cfg(not(debug_assertions))]
    #[test]
    fn vectorized_kernels_are_at_least_3x_faster_at_1m_rows() {
        let rows = micro_rows(SQL_BENCH_ROWS, 3);
        for op in ["join_i64", "group_by", "partition"] {
            let r = rows.iter().find(|r| r.op == op).unwrap();
            assert!(
                r.speedup >= 3.0,
                "{op}: reference {:.1}ms vs vectorized {:.1}ms (speedup {:.2}x)",
                r.reference_ms,
                r.vectorized_ms,
                r.speedup
            );
        }
    }
}
