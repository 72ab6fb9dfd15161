//! SQL data-plane byte accounting: what the codec puts on the wire,
//! against the logical bytes it carries.
//!
//! Two tiers, both deterministic, so `BENCH_sql.json` repeats byte for
//! byte:
//!
//! * **partition** — fused partition+encode of a synthetic 1M-row table
//!   into 16 buckets: the codec's dictionary compression showing up as
//!   wire bytes below logical bytes.
//! * **e2e** — the five TPC-DS query plans as a distributed
//!   [`LocalRuntime`] run (even-split schedule, 2×8 slots, S3 external
//!   medium) whose [`TransferLedger`](ditto_storage::TransferLedger)
//!   supplies shuffle wire bytes and pre-encoding logical bytes. A
//!   co-located edge hands its consumer the table itself, never encoded,
//!   so its wire bytes are its logical bytes. `rows` is what the plan's
//!   scans read.
//!
//! Kernel ≡ reference is proven by `crates/sql/tests/kernel_equivalence.rs`;
//! wall-clock kernel cost is measured by `ditto-benchmark`
//! (`sql.kernel_ms.*`). The release-only test at the bottom enforces the
//! ≥3× floor of the vectorized join/group-by/partition kernels over the
//! row-at-a-time reference at 1M rows.

use ditto_cluster::ResourceManager;
use ditto_core::baselines::EvenSplitScheduler;
use ditto_core::{Objective, Scheduler, SchedulingContext};
use ditto_exec::LocalRuntime;
use ditto_sql::column::{Column, DataType};
use ditto_sql::plan::{QueryPlan, StageOp};
use ditto_sql::queries::Query;
use ditto_sql::{Database, ScaleConfig, Schema, Table};
use ditto_storage::{DataPlane, Medium};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use serde::Serialize;

/// Rows in the partition table of the full sweep.
const SQL_BENCH_ROWS: usize = 1_000_000;
/// Database scale factor for the full e2e tier.
const SQL_BENCH_SF: f64 = 0.5;

/// One row: the partition micro or an e2e query.
#[derive(Debug, Clone, Serialize)]
pub struct SqlBenchRow {
    /// `partition`, or `q1`…`q95`.
    pub(crate) op: String,
    /// Input rows: the partitioned table's, or the sum over the plan's
    /// scanned tables.
    pub(crate) rows: u64,
    /// Encoded bytes on the wire.
    pub(crate) wire_bytes: u64,
    /// Pre-encoding logical bytes the wire traffic carried.
    pub(crate) logical_bytes: u64,
}

/// splitmix64: the deterministic generator behind the micro table.
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

/// Buckets of the partition row's fused partition+encode.
const BUCKETS: usize = 16;

/// The partition row: fused partition+encode of an `n`-row micro table.
fn partition_row(n: usize) -> SqlBenchRow {
    let table = micro_table(n, 0xd177_05e1);
    let encoded = table.encode_partitions("cust", BUCKETS);
    SqlBenchRow {
        op: "partition".to_string(),
        rows: n as u64,
        wire_bytes: encoded.iter().map(|p| p.data.len() as u64).sum(),
        logical_bytes: table.byte_size(),
    }
}

/// Rows the plan's scans read: the sum over its `Scan` stages.
fn scanned_rows(plan: &QueryPlan, db: &Database) -> u64 {
    plan.stages
        .iter()
        .filter_map(|s| match &s.op {
            StageOp::Scan { table, .. } => Some(db.table(table).num_rows() as u64),
            _ => None,
        })
        .sum()
}

/// The e2e tier: each query plan as a distributed even-split run whose
/// ledger supplies the byte columns.
fn e2e_rows(sf: f64) -> Vec<SqlBenchRow> {
    let db = Database::generate(ScaleConfig::with_sf(sf));
    let mut rows = Vec::new();
    for q in Query::all_extended() {
        let plan = q.prepared_plan(&db);
        let model = JobTimeModel::from_rates(&plan.dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let dataplane = DataPlane::new(Medium::S3, 2);
        let l = LocalRuntime::new()
            .execute(&plan, &db, &schedule, &dataplane)
            .ledger;
        let (wire, logical) = [l.shared_memory, l.redis, l.s3]
            .iter()
            .fold((0u64, 0u64), |(w, g), m| {
                (w + m.bytes_in, g + m.logical_bytes)
            });
        rows.push(SqlBenchRow {
            op: q.name().to_string(),
            rows: scanned_rows(&plan, &db),
            wire_bytes: wire,
            logical_bytes: logical,
        });
    }
    rows
}

/// The partition row at `partition_n` rows, then the e2e rows at scale
/// factor `sf`.
fn sql_bench_with(partition_n: usize, sf: f64) -> Vec<SqlBenchRow> {
    let mut rows = vec![partition_row(partition_n)];
    rows.extend(e2e_rows(sf));
    rows
}

/// The full sweep (1M-row partition, sf 0.5 e2e) — the source of
/// `BENCH_sql.json`.
pub fn sql_bench() -> Vec<SqlBenchRow> {
    sql_bench_with(SQL_BENCH_ROWS, SQL_BENCH_SF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_json;

    /// The sweep covers the partition row and every query, its byte
    /// columns are filled, and two runs serialize to the same bytes.
    #[test]
    fn rows_are_complete_and_repeat_byte_for_byte() {
        let rows = sql_bench_with(4_000, 0.05);
        assert_eq!(rows.len(), 1 + Query::all_extended().len());
        // The codec's dictionary compression keeps partition wire bytes
        // at or below logical.
        let part = &rows[0];
        assert_eq!(part.op, "partition");
        assert!(part.wire_bytes > 0 && part.wire_bytes <= part.logical_bytes);
        // E2e wire bytes include frame headers and Gather empty markers
        // (wire > 0, logical 0), so only the accounting itself is
        // asserted here — the wire-vs-logical saving is a partition-row
        // claim, where the payload dominates the headers.
        for r in &rows[1..] {
            assert!(r.wire_bytes > 0, "{}", r.op);
            assert!(r.logical_bytes > 0, "{}", r.op);
        }
        assert_eq!(write_json(&rows), write_json(&sql_bench_with(4_000, 0.05)));
    }

    /// An e2e row's `rows` is what its own plan scans, not one fixed
    /// table's size: Q95 reads `web_sales` twice plus two dimensions.
    #[test]
    fn e2e_rows_count_each_plans_own_scans() {
        let rows = e2e_rows(0.05);
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let n = |t: &str| db.table(t).num_rows() as u64;
        let row = |op: &str| rows.iter().find(|r| r.op == op).unwrap().rows;
        assert_eq!(
            row("q95"),
            2 * n("web_sales") + n("date_dim") + n("customer_address")
        );
        assert_eq!(row("q3"), n("store_sales") + n("item"));
        assert_ne!(row("q95"), row("q3"));
    }

    /// Median wall-clock ms of one `call`, over `iters` calls.
    #[cfg(not(debug_assertions))]
    fn median_ms(iters: usize, mut call: impl FnMut()) -> f64 {
        let mut samples: Vec<f64> = (0..iters)
            .map(|_| {
                let start = std::time::Instant::now();
                call();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_unstable_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// The performance floor: at 1M rows the vectorized i64 join,
    /// group-by and fused partition+encode are each ≥3× the row-at-a-time
    /// reference. Release-only — debug builds skew the constant factors.
    #[cfg(not(debug_assertions))]
    #[test]
    fn vectorized_kernels_are_at_least_3x_faster_at_1m_rows() {
        use ditto_sql::ops::group_by::{AggFunc, AggSpec};
        use ditto_sql::ops::{group_by, hash_join, JoinKind};
        use ditto_sql::reference as refimpl;
        use std::hint::black_box;
        let n = SQL_BENCH_ROWS;
        let table = micro_table(n, 0xd177_05e1);
        // Fact ⋈ dimension: the probe's keys draw from `n/8` values
        // (~8-row chains) and the build side holds exactly those keys,
        // unique, so the join outputs `n` rows and the measurement stays
        // on the hash-table build/probe.
        let probe = table.project(&["k", "v"]);
        let dim: Vec<i64> = (0..(n / 8) as i64).collect();
        let weights = Column::I64(dim.iter().map(|k| k * 3 % 97).collect());
        let build = Table::new(
            Schema::new(&[("dk", DataType::I64), ("w", DataType::I64)]),
            vec![Column::I64(dim.into()), weights],
        );
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
        let floors: [(&str, f64, f64); 3] = [
            (
                "join_i64",
                median_ms(3, || {
                    black_box(refimpl::hash_join_reference(
                        &probe,
                        &build,
                        "k",
                        "dk",
                        JoinKind::Inner,
                    ));
                }),
                median_ms(3, || {
                    black_box(hash_join(&probe, &build, "k", "dk", JoinKind::Inner));
                }),
            ),
            (
                "group_by",
                median_ms(3, || {
                    black_box(refimpl::group_by_reference(&table, &["k"], &aggs, None));
                }),
                median_ms(3, || {
                    black_box(group_by(&table, &["k"], &aggs, None));
                }),
            ),
            // Fused partition+encode vs the two-step reference (partition,
            // then encode each bucket with the v1 row-at-a-time codec).
            (
                "partition",
                median_ms(3, || {
                    for p in refimpl::hash_partition_reference(&table, "cust", BUCKETS) {
                        black_box(refimpl::encode_reference(&p));
                    }
                }),
                median_ms(3, || {
                    black_box(table.encode_partitions("cust", BUCKETS));
                }),
            ),
        ];
        for (op, reference, vectorized) in floors {
            assert!(
                reference >= 3.0 * vectorized,
                "{op}: reference {reference:.1}ms vs vectorized {vectorized:.1}ms ({:.2}x)",
                reference / vectorized
            );
        }
    }
}
