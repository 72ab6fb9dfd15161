//! TPC-DS Q95 (simplified): web orders shipped from **more than one
//! warehouse** within a date window to selected addresses — count-distinct
//! orders plus shipping-cost/profit sums.
//!
//! The DAG reproduces the paper's Fig. 13 exactly: 9 stages, with the
//! `ws_wh` self-join expressed as `map1 → groupby` (distinct warehouses
//! per order, HAVING > 1), a semi join back onto the main fact scan
//! (`map2 + groupby → reduce1`), two broadcast dimension joins
//! (`map3 →(all-gather) join1`, `map4 →(all-gather) join2`) and a final
//! reduce:
//!
//! ```text
//!  map1 ─shuffle─▶ groupby ─shuffle─▶ reduce1 ─shuffle─▶ join1 ─shuffle─▶ join2 ─shuffle─▶ reduce2
//!  map2 ─────────shuffle────────────▲       map3 ─all-gather─▲    map4 ─all-gather─▲
//! ```

use crate::datagen::Database;
use crate::expr::{CmpOp, Pred};
use crate::ops::group_by::{AggFunc, AggSpec};
use crate::plan::{JoinKind, QueryPlan, StageOp, StageSpec};
use crate::table::Table;
use ditto_dag::{DagBuilder, EdgeKind, StageKind};
use std::collections::{HashMap, HashSet};

/// Date window: year 2000 (day index 730..1094 → sk 731..1095); widened
/// from TPC-DS's 60 days so the compound selectivity stays non-trivial at
/// laptop-scale row counts.
const DATE_LO: i64 = 731;
const DATE_HI: i64 = 1095;
/// Ship-to states (a set, keeping the compound selectivity non-trivial at
/// laptop scale).
const STATES: &[&str] = &["IL", "CA", "NY", "TX", "GA"];
/// Web sites considered (site keys 1..=8 stand in for company "pri").
const MAX_SITE: i64 = 8;

/// Build the Q95 plan (Fig. 13's 9-stage DAG).
pub(crate) fn plan() -> QueryPlan {
    let dag = DagBuilder::new("q95")
        .stage("map1", StageKind::Map, 0, 0)
        .stage("groupby", StageKind::GroupBy, 0, 0)
        .stage("map2", StageKind::Map, 0, 0)
        .stage("reduce1", StageKind::Reduce, 0, 0)
        .stage("map3", StageKind::Map, 0, 0)
        .stage("join1", StageKind::Join, 0, 0)
        .stage("map4", StageKind::Map, 0, 0)
        .stage("join2", StageKind::Join, 0, 0)
        .stage("reduce2", StageKind::Reduce, 0, 0)
        // The map1→groupby and {groupby,map2}→reduce1 exchanges need key
        // co-partitioning (group-by / semi-join on order number): true
        // shuffles. Everything after reduce1 tolerates any partitioning
        // (broadcast joins; a global aggregate whose distinct key is
        // already disjoint per partition), so those edges use the paper's
        // `gather` primitive (§4.5) — which is what lets their stage
        // groups decompose into task groups at placement time (Fig. 7).
        .edge("map1", "groupby", EdgeKind::Shuffle, 0)
        .edge("groupby", "reduce1", EdgeKind::Shuffle, 0)
        .edge("map2", "reduce1", EdgeKind::Shuffle, 0)
        .edge("reduce1", "join1", EdgeKind::Gather, 0)
        .edge("map3", "join1", EdgeKind::AllGather, 0)
        .edge("join1", "join2", EdgeKind::Gather, 0)
        .edge("map4", "join2", EdgeKind::AllGather, 0)
        .edge("join2", "reduce2", EdgeKind::Gather, 0)
        .build()
        .expect("q95 DAG is well-formed");

    let stages = vec![
        // map1: (order, warehouse) pairs for the ws_wh self-join.
        StageSpec {
            op: StageOp::Scan {
                table: "web_sales".into(),
                projection: vec!["ws_order_number".into(), "ws_warehouse_sk".into()],
                predicate: None,
            },
            output_key: Some("ws_order_number".into()),
        },
        // groupby: orders shipped from more than one warehouse (ws_wh).
        StageSpec {
            op: StageOp::GroupBy {
                input: "map1".into(),
                keys: vec!["ws_order_number".into()],
                aggs: vec![AggSpec::new(
                    AggFunc::CountDistinct,
                    "ws_warehouse_sk",
                    "wh_count",
                )],
                having: Some(Pred::Cmp {
                    col: "wh_count".into(),
                    op: CmpOp::Gt,
                    value: crate::column::Value::I64(1),
                }),
            },
            output_key: Some("ws_order_number".into()),
        },
        // map2: the main fact scan (site-filtered).
        StageSpec {
            op: StageOp::Scan {
                table: "web_sales".into(),
                projection: vec![
                    "ws_order_number".into(),
                    "ws_ship_date_sk".into(),
                    "ws_ship_addr_sk".into(),
                    "ws_ext_ship_cost".into(),
                    "ws_net_profit".into(),
                ],
                predicate: Some(Pred::Cmp {
                    col: "ws_web_site_sk".into(),
                    op: CmpOp::Le,
                    value: crate::column::Value::I64(MAX_SITE),
                }),
            },
            output_key: Some("ws_order_number".into()),
        },
        // reduce1: keep fact rows of multi-warehouse orders (semi join).
        StageSpec {
            op: StageOp::Join {
                left: "map2".into(),
                right: "groupby".into(),
                left_key: "ws_order_number".into(),
                right_key: "ws_order_number".into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some("ws_order_number".into()),
        },
        // map3: date dimension, windowed.
        StageSpec {
            op: StageOp::Scan {
                table: "date_dim".into(),
                projection: vec!["d_date_sk".into()],
                predicate: Some(Pred::between_i64("d_date_sk", DATE_LO, DATE_HI)),
            },
            output_key: None,
        },
        // join1: restrict to the date window (broadcast semi join).
        StageSpec {
            op: StageOp::Join {
                left: "reduce1".into(),
                right: "map3".into(),
                left_key: "ws_ship_date_sk".into(),
                right_key: "d_date_sk".into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some("ws_order_number".into()),
        },
        // map4: addresses in the target states.
        StageSpec {
            op: StageOp::Scan {
                table: "customer_address".into(),
                projection: vec!["ca_address_sk".into()],
                predicate: Some(Pred::InStr {
                    col: "ca_state".into(),
                    set: STATES.iter().map(|s| s.to_string()).collect(),
                }),
            },
            output_key: None,
        },
        // join2: restrict to the state (broadcast semi join).
        StageSpec {
            op: StageOp::Join {
                left: "join1".into(),
                right: "map4".into(),
                left_key: "ws_ship_addr_sk".into(),
                right_key: "ca_address_sk".into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some("ws_order_number".into()),
        },
        // reduce2: global aggregate.
        StageSpec {
            op: StageOp::GroupBy {
                input: "join2".into(),
                keys: vec![],
                aggs: vec![
                    AggSpec::new(AggFunc::CountDistinct, "ws_order_number", "order_count"),
                    AggSpec::new(AggFunc::Sum, "ws_ext_ship_cost", "total_shipping_cost"),
                    AggSpec::new(AggFunc::Sum, "ws_net_profit", "total_net_profit"),
                ],
                having: None,
            },
            output_key: None,
        },
    ];

    QueryPlan {
        name: "q95".into(),
        dag,
        stages,
    }
}

/// Independent oracle: `(distinct orders, Σ ship cost, Σ profit)`.
pub fn reference(db: &Database) -> (i64, f64, f64) {
    let ws = db.table("web_sales");
    let orders = ws.column_req("ws_order_number").as_i64();
    let whs = ws.column_req("ws_warehouse_sk").as_i64();
    let dates = ws.column_req("ws_ship_date_sk").as_i64();
    let addrs = ws.column_req("ws_ship_addr_sk").as_i64();
    let sites = ws.column_req("ws_web_site_sk").as_i64();
    let costs = ws.column_req("ws_ext_ship_cost").as_f64();
    let profits = ws.column_req("ws_net_profit").as_f64();

    // ws_wh: orders shipped from > 1 warehouse.
    let mut order_whs: HashMap<i64, HashSet<i64>> = HashMap::new();
    for i in 0..ws.num_rows() {
        order_whs.entry(orders[i]).or_default().insert(whs[i]);
    }
    let multi: HashSet<i64> = order_whs
        .into_iter()
        .filter(|(_, s)| s.len() > 1)
        .map(|(o, _)| o)
        .collect();

    let addr_tab = db.table("customer_address");
    let good_addrs: HashSet<i64> = addr_tab
        .column_req("ca_address_sk")
        .as_i64()
        .iter()
        .zip(addr_tab.column_req("ca_state").as_str())
        .filter(|&(_, s)| STATES.contains(&s.as_str()))
        .map(|(&a, _)| a)
        .collect();

    let mut kept = HashSet::new();
    let (mut cost, mut profit) = (0.0, 0.0);
    for i in 0..ws.num_rows() {
        if sites[i] <= MAX_SITE
            && multi.contains(&orders[i])
            && dates[i] >= DATE_LO
            && dates[i] <= DATE_HI
            && good_addrs.contains(&addrs[i])
        {
            kept.insert(orders[i]);
            cost += costs[i];
            profit += profits[i];
        }
    }
    (kept.len() as i64, cost, profit)
}

/// Extract `(count, cost, profit)` from the plan output.
pub fn result_triple(t: &Table) -> (i64, f64, f64) {
    if t.num_rows() == 0 {
        return (0, 0.0, 0.0);
    }
    let count_col = t.column_req("order_count");
    let count = match count_col {
        crate::column::Column::I64(v) => v[0],
        crate::column::Column::F64(v) => v[0] as i64,
        _ => panic!("unexpected order_count type"),
    };
    (
        count,
        t.column_req("total_shipping_cost").as_f64()[0],
        t.column_req("total_net_profit").as_f64()[0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;

    /// The DAG must match Fig. 13: 9 stages, 8 edges, two all-gathers,
    /// four scans, one sink, depth 5.
    #[test]
    fn shape_matches_fig13() {
        let p = plan();
        assert_eq!(p.dag.num_stages(), 9);
        assert_eq!(p.dag.num_edges(), 8);
        assert_eq!(
            p.dag
                .edges()
                .iter()
                .filter(|e| e.kind == EdgeKind::AllGather)
                .count(),
            2
        );
        assert_eq!(p.dag.initial_stages().len(), 4);
        assert_eq!(p.dag.final_stages().len(), 1);
        assert_eq!(p.dag.max_depth(), 5);
        assert_eq!(p.dag.stage(p.dag.final_stages()[0]).name, "reduce2");
    }

    #[test]
    fn plan_matches_oracle() {
        let db = Database::generate(ScaleConfig::with_sf(1.0));
        let (n, cost, profit) = reference(&db);
        assert!(n > 0, "premise: Q95 selects some multi-warehouse orders");
        let out = plan().execute_reference(&db);
        let (gn, gc, gp) = result_triple(&out);
        assert_eq!(gn, n);
        assert!((gc - cost).abs() < 1e-6 * cost.abs().max(1.0));
        assert!((gp - profit).abs() < 1e-6 * profit.abs().max(1.0));
    }

    #[test]
    fn groupby_stage_is_selective() {
        // ws_wh keeps only multi-warehouse orders: a small fraction.
        let db = Database::generate(ScaleConfig::with_sf(0.5));
        let p = plan();
        let out = p.execute_stage(
            ditto_dag::StageId(1),
            &db,
            &[(
                "map1".to_string(),
                p.execute_stage(ditto_dag::StageId(0), &db, &Default::default(), None),
            )]
            .into_iter()
            .collect(),
            None,
        );
        let total_orders = {
            let mut o: Vec<i64> = db
                .table("web_sales")
                .column_req("ws_order_number")
                .as_i64()
                .to_vec();
            o.sort_unstable();
            o.dedup();
            o.len()
        };
        assert!(out.num_rows() > 0);
        assert!(out.num_rows() < total_orders / 2);
    }
}
