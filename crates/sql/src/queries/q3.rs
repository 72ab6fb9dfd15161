//! TPC-DS Q3 (simplified): yearly brand sales report — store sales of one
//! item category, grouped by brand, top brands by revenue.
//!
//! Not part of the paper's evaluation set; included to exercise a DAG
//! shape the four evaluated queries lack — a broadcast dimension join
//! feeding a *two-level* aggregation (partial per-partition group-by, then
//! a shuffle-merged final group-by) ending in a top-N:
//!
//! ```text
//! ss_scan ──gather──▶ join_item ──shuffle──▶ agg ──gather──▶ top
//!   item_scan ──(all-gather)──▲
//! ```

use crate::datagen::Database;
use crate::expr::Pred;
use crate::ops::group_by::{AggFunc, AggSpec};
use crate::plan::{JoinKind, QueryPlan, StageOp, StageSpec};
use crate::table::Table;
use ditto_dag::{DagBuilder, EdgeKind, StageKind};
use std::collections::HashMap;

/// The item category under report.
const CATEGORY: &str = "Electronics";
/// Date window: year 1999 (day index 365..729 → sk 366..730).
const DATE_LO: i64 = 366;
const DATE_HI: i64 = 730;
/// Report size.
const TOP_N: usize = 10;

/// Build the Q3 plan.
pub(crate) fn plan() -> QueryPlan {
    let dag = DagBuilder::new("q3")
        .stage("ss_scan", StageKind::Map, 0, 0)
        .stage("item_scan", StageKind::Map, 0, 0)
        .stage("join_item", StageKind::Join, 0, 0)
        .stage("agg", StageKind::GroupBy, 0, 0)
        .stage("top", StageKind::Reduce, 0, 0)
        .edge("ss_scan", "join_item", EdgeKind::Gather, 0)
        .edge("item_scan", "join_item", EdgeKind::AllGather, 0)
        .edge("join_item", "agg", EdgeKind::Shuffle, 0)
        .edge("agg", "top", EdgeKind::Gather, 0)
        .build()
        .expect("q3 DAG is well-formed");

    let stages = vec![
        StageSpec {
            op: StageOp::Scan {
                table: "store_sales".into(),
                projection: vec!["ss_item_sk".into(), "ss_net_paid".into()],
                predicate: Some(Pred::between_i64("ss_sold_date_sk", DATE_LO, DATE_HI)),
            },
            output_key: Some("ss_item_sk".into()),
        },
        StageSpec {
            op: StageOp::Scan {
                table: "item".into(),
                projection: vec!["i_item_sk".into(), "i_brand_id".into()],
                predicate: Some(Pred::eq_str("i_category", CATEGORY)),
            },
            output_key: None,
        },
        StageSpec {
            op: StageOp::Join {
                left: "ss_scan".into(),
                right: "item_scan".into(),
                left_key: "ss_item_sk".into(),
                right_key: "i_item_sk".into(),
                kind: JoinKind::Inner,
            },
            output_key: Some("i_brand_id".into()),
        },
        StageSpec {
            op: StageOp::GroupBy {
                input: "join_item".into(),
                keys: vec!["i_brand_id".into()],
                aggs: vec![AggSpec::new(AggFunc::Sum, "ss_net_paid", "revenue")],
                having: None,
            },
            output_key: Some("i_brand_id".into()),
        },
        StageSpec {
            op: StageOp::SortLimit {
                input: "agg".into(),
                col: "revenue".into(),
                desc: true,
                limit: TOP_N,
            },
            output_key: None,
        },
    ];

    QueryPlan {
        name: "q3".into(),
        dag,
        stages,
    }
}

/// Independent oracle: `(brand, revenue)` pairs, top-N by revenue.
pub fn reference(db: &Database) -> Vec<(i64, f64)> {
    let items = db.table("item");
    let brand_of: HashMap<i64, i64> = items
        .column_req("i_item_sk")
        .as_i64()
        .iter()
        .zip(items.column_req("i_brand_id").as_i64())
        .zip(items.column_req("i_category").as_str())
        .filter(|&(_, cat)| cat == CATEGORY)
        .map(|((&sk, &b), _)| (sk, b))
        .collect();
    let ss = db.table("store_sales");
    let dates = ss.column_req("ss_sold_date_sk").as_i64();
    let item_sk = ss.column_req("ss_item_sk").as_i64();
    let paid = ss.column_req("ss_net_paid").as_f64();
    let mut revenue: HashMap<i64, f64> = HashMap::new();
    for i in 0..ss.num_rows() {
        if dates[i] >= DATE_LO && dates[i] <= DATE_HI {
            if let Some(&b) = brand_of.get(&item_sk[i]) {
                *revenue.entry(b).or_insert(0.0) += paid[i];
            }
        }
    }
    let mut out: Vec<(i64, f64)> = revenue.into_iter().collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(TOP_N);
    out
}

/// Extract `(brand, revenue)` rows from the plan output.
pub fn result_rows(t: &Table) -> Vec<(i64, f64)> {
    t.column_req("i_brand_id")
        .as_i64()
        .iter()
        .copied()
        .zip(t.column_req("revenue").as_f64().iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;

    #[test]
    fn shape_is_distinct() {
        let p = plan();
        assert_eq!(p.dag.num_stages(), 5);
        assert_eq!(p.dag.max_depth(), 3);
        assert!(p.dag.is_tree_like());
        p.dag.validate().unwrap();
    }

    #[test]
    fn plan_matches_oracle() {
        let db = Database::generate(ScaleConfig::with_sf(0.4));
        let expected = reference(&db);
        assert!(expected.len() >= 5, "premise: several brands sell");
        let out = plan().execute_reference(&db);
        let got = result_rows(&out);
        assert_eq!(got.len(), expected.len());
        // Revenues must match as sets (ties may reorder equal revenues).
        let sum_got: f64 = got.iter().map(|&(_, r)| r).sum();
        let sum_exp: f64 = expected.iter().map(|&(_, r)| r).sum();
        assert!((sum_got - sum_exp).abs() < 1e-6 * sum_exp.abs().max(1.0));
        assert_eq!(got[0].0, expected[0].0, "top brand agrees");
    }

    #[test]
    fn revenue_sorted_descending() {
        let db = Database::generate(ScaleConfig::with_sf(0.4));
        let out = plan().execute_reference(&db);
        let rows = result_rows(&out);
        for w in rows.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}
