//! TPC-DS Q1 (simplified): customers whose total store returns in year
//! 2000 exceed 1.2× the average customer total for their (Tennessee)
//! store.
//!
//! The DAG is a *general* (non-tree) DAG: the `customer_total_return`
//! aggregate (`ctr`) feeds both the per-store average and the
//! above-average join — the double-consumption structure that makes Q1's
//! scheduling interesting.
//!
//! ```text
//! sr_scan ──▶ ctr ──┬────────────────▶ join_avg ──▶ big_ret ──▶ join_store ──▶ top
//!                   └▶ avg ──(bcast)──▲                store_scan ──(bcast)──▲
//! ```

use crate::datagen::Database;
use crate::expr::{CmpOp, Pred};
use crate::ops::group_by::{AggFunc, AggSpec};
use crate::plan::{JoinKind, QueryPlan, StageOp, StageSpec};
use crate::table::Table;
use ditto_dag::{DagBuilder, EdgeKind, StageKind};
use std::collections::HashMap;

/// Year-2000 date surrogate keys in the generated `date_dim` (day index i
/// has year `1998 + i/365`, sk `i+1`).
const DATE_LO: i64 = 731;
const DATE_HI: i64 = 1095;

/// Build the Q1 plan.
pub(crate) fn plan() -> QueryPlan {
    let dag = DagBuilder::new("q1")
        .stage("sr_scan", StageKind::Map, 0, 0)
        .stage("ctr", StageKind::GroupBy, 0, 0)
        .stage("avg", StageKind::GroupBy, 0, 0)
        .stage("join_avg", StageKind::Join, 0, 0)
        .stage("big_ret", StageKind::Map, 0, 0)
        .stage("store_scan", StageKind::Map, 0, 0)
        .stage("join_store", StageKind::Join, 0, 0)
        .stage("top", StageKind::Reduce, 0, 0)
        .edge("sr_scan", "ctr", EdgeKind::Shuffle, 0)
        .edge("ctr", "avg", EdgeKind::Shuffle, 0)
        .edge("ctr", "join_avg", EdgeKind::Shuffle, 0)
        .edge("avg", "join_avg", EdgeKind::AllGather, 0)
        .edge("join_avg", "big_ret", EdgeKind::Gather, 0)
        .edge("big_ret", "join_store", EdgeKind::Gather, 0)
        .edge("store_scan", "join_store", EdgeKind::AllGather, 0)
        .edge("join_store", "top", EdgeKind::Gather, 0)
        .build()
        .expect("q1 DAG is well-formed");

    let stages = vec![
        // sr_scan: store returns in year 2000.
        StageSpec {
            op: StageOp::Scan {
                table: "store_returns".into(),
                projection: vec![
                    "sr_customer_sk".into(),
                    "sr_store_sk".into(),
                    "sr_return_amt".into(),
                ],
                predicate: Some(Pred::between_i64("sr_returned_date_sk", DATE_LO, DATE_HI)),
            },
            output_key: Some("sr_customer_sk".into()),
        },
        // ctr: per (customer, store) total return.
        StageSpec {
            op: StageOp::GroupBy {
                input: "sr_scan".into(),
                keys: vec!["sr_customer_sk".into(), "sr_store_sk".into()],
                aggs: vec![AggSpec::new(AggFunc::Sum, "sr_return_amt", "ctr_total")],
                having: None,
            },
            output_key: Some("sr_store_sk".into()),
        },
        // avg: per-store mean of customer totals.
        StageSpec {
            op: StageOp::GroupBy {
                input: "ctr".into(),
                keys: vec!["sr_store_sk".into()],
                aggs: vec![AggSpec::new(AggFunc::Avg, "ctr_total", "avg_ret")],
                having: None,
            },
            output_key: Some("sr_store_sk".into()),
        },
        // join_avg: attach the store average to each customer total.
        StageSpec {
            op: StageOp::Join {
                left: "ctr".into(),
                right: "avg".into(),
                left_key: "sr_store_sk".into(),
                right_key: "sr_store_sk".into(),
                kind: JoinKind::Inner,
            },
            output_key: Some("sr_store_sk".into()),
        },
        // big_ret: keep customers above 1.2x the store average.
        StageSpec {
            op: StageOp::Filter {
                input: "join_avg".into(),
                predicate: Pred::ColCmp {
                    left: "ctr_total".into(),
                    op: CmpOp::Gt,
                    right: "avg_ret".into(),
                    scale: 1.2,
                },
                projection: Some(vec!["sr_customer_sk".into(), "sr_store_sk".into()]),
            },
            output_key: Some("sr_store_sk".into()),
        },
        // store_scan: Tennessee stores.
        StageSpec {
            op: StageOp::Scan {
                table: "store".into(),
                projection: vec!["s_store_sk".into()],
                predicate: Some(Pred::eq_str("s_state", "TN")),
            },
            output_key: None,
        },
        // join_store: restrict to TN stores (semi join).
        StageSpec {
            op: StageOp::Join {
                left: "big_ret".into(),
                right: "store_scan".into(),
                left_key: "sr_store_sk".into(),
                right_key: "s_store_sk".into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some("sr_customer_sk".into()),
        },
        // top: first 100 customers by id (the TPC-DS ORDER BY).
        StageSpec {
            op: StageOp::SortLimit {
                input: "join_store".into(),
                col: "sr_customer_sk".into(),
                desc: false,
                limit: 100,
            },
            output_key: None,
        },
    ];

    QueryPlan {
        name: "q1".into(),
        dag,
        stages,
    }
}

/// Independent oracle: plain loops and hash maps, no shared operator code.
pub fn reference(db: &Database) -> Vec<i64> {
    let sr = db.table("store_returns");
    let dates = sr.column_req("sr_returned_date_sk").as_i64();
    let custs = sr.column_req("sr_customer_sk").as_i64();
    let stores = sr.column_req("sr_store_sk").as_i64();
    let amts = sr.column_req("sr_return_amt").as_f64();

    // ctr: (cust, store) -> total.
    let mut ctr: HashMap<(i64, i64), f64> = HashMap::new();
    for i in 0..sr.num_rows() {
        if dates[i] >= DATE_LO && dates[i] <= DATE_HI {
            *ctr.entry((custs[i], stores[i])).or_insert(0.0) += amts[i];
        }
    }
    // per-store average.
    let mut sums: HashMap<i64, (f64, usize)> = HashMap::new();
    for (&(_, store), &total) in &ctr {
        let e = sums.entry(store).or_insert((0.0, 0));
        e.0 += total;
        e.1 += 1;
    }
    // TN stores.
    let st = db.table("store");
    let tn: Vec<i64> = st
        .column_req("s_store_sk")
        .as_i64()
        .iter()
        .zip(st.column_req("s_state").as_str())
        .filter(|&(_, state)| state == "TN")
        .map(|(&sk, _)| sk)
        .collect();

    let mut out: Vec<i64> = ctr
        .iter()
        .filter(|&(&(_, store), &total)| {
            let (s, n) = sums[&store];
            total > 1.2 * (s / n as f64) && tn.contains(&store)
        })
        .map(|(&(cust, _), _)| cust)
        .collect();
    out.sort_unstable();
    out.truncate(100);
    out
}

/// Extract the oracle-comparable result from the plan's output table.
pub fn result_customers(t: &Table) -> Vec<i64> {
    t.column_req("sr_customer_sk").as_i64().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;

    #[test]
    fn dag_is_general_not_tree() {
        let p = plan();
        assert_eq!(p.dag.num_stages(), 8);
        assert!(!p.dag.is_tree_like(), "ctr feeds two consumers");
        // ctr is the stage with out-degree 2.
        let ctr = p.dag.stages().iter().find(|s| s.name == "ctr").unwrap();
        assert_eq!(p.dag.out_degree(ctr.id), 2);
    }

    #[test]
    fn plan_matches_oracle() {
        let db = Database::generate(ScaleConfig::with_sf(0.3));
        let expected = reference(&db);
        assert!(!expected.is_empty(), "premise: Q1 has matching customers");
        let out = plan().execute_reference(&db);
        let mut got = result_customers(&out);
        got.sort_unstable();
        let mut exp = expected.clone();
        exp.sort_unstable();
        assert_eq!(got, exp);
    }

    #[test]
    fn oracle_is_selective() {
        let db = Database::generate(ScaleConfig::with_sf(0.3));
        let n = reference(&db).len();
        let total = db.table("customer").num_rows();
        assert!(n < total / 4, "Q1 should keep a small fraction: {n}/{total}");
    }
}
