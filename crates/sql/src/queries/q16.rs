//! TPC-DS Q16 (simplified): catalog orders shipped within a two-month
//! window to Georgia addresses from selected call centers and never
//! returned — `COUNT(DISTINCT order)`, `SUM(ship_cost)`, `SUM(profit)`.
//!
//! Structure: a 10-stage DAG — fact scan joined against two dimension
//! broadcasts, an anti-join against the returns table (the `NOT EXISTS`),
//! and a global aggregate. Q94 shares this skeleton on the web channel
//! (the paper picked the two precisely because their shapes rhyme while
//! their data volumes differ).

use crate::datagen::Database;
use crate::expr::Pred;
use crate::ops::group_by::{AggFunc, AggSpec};
use crate::plan::{JoinKind, QueryPlan, StageOp, StageSpec};
use crate::table::Table;
use ditto_dag::{DagBuilder, EdgeKind, StageKind};
use std::collections::HashSet;

/// Parameters distinguishing Q16 (catalog channel) from Q94 (web channel).
pub(crate) struct ShippingQueryConfig {
    pub(crate) name: &'static str,
    pub(crate) fact: &'static str,
    pub(crate) returns: &'static str,
    pub(crate) order_col: &'static str,
    pub(crate) date_col: &'static str,
    pub(crate) addr_col: &'static str,
    pub(crate) dim_col: &'static str,
    pub(crate) cost_col: &'static str,
    pub(crate) profit_col: &'static str,
    pub(crate) returns_order_col: &'static str,
    /// Secondary dimension table (call_center / web_site) + its key and
    /// the predicate restricting it.
    pub(crate) dim_table: &'static str,
    pub(crate) dim_key: &'static str,
    pub(crate) dim_pred: Pred,
    /// Ship-to state filter.
    pub(crate) state: &'static str,
    /// Date surrogate-key window.
    pub(crate) date_lo: i64,
    pub(crate) date_hi: i64,
}

/// Q16's configuration.
pub(crate) fn q16_config() -> ShippingQueryConfig {
    ShippingQueryConfig {
        name: "q16",
        fact: "catalog_sales",
        returns: "catalog_returns",
        order_col: "cs_order_number",
        date_col: "cs_ship_date_sk",
        addr_col: "cs_ship_addr_sk",
        dim_col: "cs_call_center_sk",
        cost_col: "cs_ext_ship_cost",
        profit_col: "cs_net_profit",
        returns_order_col: "cr_order_number",
        dim_table: "call_center",
        dim_key: "cc_call_center_sk",
        dim_pred: Pred::InStr {
            col: "cc_county".into(),
            set: vec![
                "Williamson County".into(),
                "Ziebach County".into(),
                "Walker County".into(),
                "Daviess County".into(),
                "Barrow County".into(),
                "Luce County".into(),
            ],
        },
        state: "GA",
        // Year 2002 (day index 1460..1824 → sk 1461..1825). TPC-DS uses a
        // 60-day window; at laptop-scale row counts that selects ~zero
        // rows, so the window is a full year to keep the query's output
        // non-trivial while preserving its shape.
        date_lo: 1461,
        date_hi: 1825,
    }
}

/// Build the 10-stage shipping-query plan for the given channel.
pub(crate) fn shipping_plan(cfg: &ShippingQueryConfig) -> QueryPlan {
    let dag = DagBuilder::new(cfg.name)
        .stage("fact_scan", StageKind::Map, 0, 0)
        .stage("addr_scan", StageKind::Map, 0, 0)
        .stage("join_addr", StageKind::Join, 0, 0)
        .stage("dim_scan", StageKind::Map, 0, 0)
        .stage("join_dim", StageKind::Join, 0, 0)
        .stage("ret_scan", StageKind::Map, 0, 0)
        .stage("anti_ret", StageKind::Join, 0, 0)
        .stage("dedup", StageKind::GroupBy, 0, 0)
        .stage("agg", StageKind::Reduce, 0, 0)
        .stage("final", StageKind::Reduce, 0, 0)
        .edge("fact_scan", "join_addr", EdgeKind::Gather, 0)
        .edge("addr_scan", "join_addr", EdgeKind::AllGather, 0)
        .edge("join_addr", "join_dim", EdgeKind::Gather, 0)
        .edge("dim_scan", "join_dim", EdgeKind::AllGather, 0)
        .edge("join_dim", "anti_ret", EdgeKind::Shuffle, 0)
        .edge("ret_scan", "anti_ret", EdgeKind::Shuffle, 0)
        .edge("anti_ret", "dedup", EdgeKind::Gather, 0)
        .edge("dedup", "agg", EdgeKind::Gather, 0)
        .edge("agg", "final", EdgeKind::Gather, 0)
        .build()
        .expect("shipping DAG is well-formed");

    let stages = vec![
        // fact_scan: date-windowed fact rows.
        StageSpec {
            op: StageOp::Scan {
                table: cfg.fact.into(),
                projection: vec![
                    cfg.order_col.into(),
                    cfg.addr_col.into(),
                    cfg.dim_col.into(),
                    cfg.cost_col.into(),
                    cfg.profit_col.into(),
                ],
                predicate: Some(Pred::between_i64(cfg.date_col, cfg.date_lo, cfg.date_hi)),
            },
            output_key: Some(cfg.order_col.into()),
        },
        // addr_scan: addresses in the target state.
        StageSpec {
            op: StageOp::Scan {
                table: "customer_address".into(),
                projection: vec!["ca_address_sk".into()],
                predicate: Some(Pred::eq_str("ca_state", cfg.state)),
            },
            output_key: None,
        },
        // join_addr: semi join (address broadcast).
        StageSpec {
            op: StageOp::Join {
                left: "fact_scan".into(),
                right: "addr_scan".into(),
                left_key: cfg.addr_col.into(),
                right_key: "ca_address_sk".into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some(cfg.order_col.into()),
        },
        // dim_scan: the restricted secondary dimension.
        StageSpec {
            op: StageOp::Scan {
                table: cfg.dim_table.into(),
                projection: vec![cfg.dim_key.into()],
                predicate: Some(cfg.dim_pred.clone()),
            },
            output_key: None,
        },
        // join_dim: semi join (dimension broadcast).
        StageSpec {
            op: StageOp::Join {
                left: "join_addr".into(),
                right: "dim_scan".into(),
                left_key: cfg.dim_col.into(),
                right_key: cfg.dim_key.into(),
                kind: JoinKind::LeftSemi,
            },
            output_key: Some(cfg.order_col.into()),
        },
        // ret_scan: returned order numbers.
        StageSpec {
            op: StageOp::Scan {
                table: cfg.returns.into(),
                projection: vec![cfg.returns_order_col.into()],
                predicate: None,
            },
            output_key: Some(cfg.returns_order_col.into()),
        },
        // anti_ret: NOT EXISTS returns.
        StageSpec {
            op: StageOp::Join {
                left: "join_dim".into(),
                right: "ret_scan".into(),
                left_key: cfg.order_col.into(),
                right_key: cfg.returns_order_col.into(),
                kind: JoinKind::LeftAnti,
            },
            output_key: Some(cfg.order_col.into()),
        },
        // dedup: per-order partial rollup (keeps distinct-order semantics
        // additive downstream: orders are partitioned by the shuffle).
        StageSpec {
            op: StageOp::GroupBy {
                input: "anti_ret".into(),
                keys: vec![cfg.order_col.into()],
                aggs: vec![
                    AggSpec::new(AggFunc::Sum, cfg.cost_col, "order_cost"),
                    AggSpec::new(AggFunc::Sum, cfg.profit_col, "order_profit"),
                ],
                having: None,
            },
            output_key: Some(cfg.order_col.into()),
        },
        // agg: partial global aggregate.
        StageSpec {
            op: StageOp::GroupBy {
                input: "dedup".into(),
                keys: vec![],
                aggs: vec![
                    AggSpec::count("order_count"),
                    AggSpec::new(AggFunc::Sum, "order_cost", "total_shipping_cost"),
                    AggSpec::new(AggFunc::Sum, "order_profit", "total_net_profit"),
                ],
                having: None,
            },
            output_key: None,
        },
        // final: merge partials (columnwise-additive global aggregate).
        StageSpec {
            op: StageOp::GroupBy {
                input: "agg".into(),
                keys: vec![],
                aggs: vec![
                    AggSpec::new(AggFunc::Sum, "order_count", "order_count"),
                    AggSpec::new(AggFunc::Sum, "total_shipping_cost", "total_shipping_cost"),
                    AggSpec::new(AggFunc::Sum, "total_net_profit", "total_net_profit"),
                ],
                having: None,
            },
            output_key: None,
        },
    ];

    QueryPlan {
        name: cfg.name.into(),
        dag,
        stages,
    }
}

/// Build the Q16 plan.
pub(crate) fn plan() -> QueryPlan {
    shipping_plan(&q16_config())
}

/// The oracle result: `(distinct orders, Σ ship cost, Σ profit)`.
pub(crate) fn shipping_reference(db: &Database, cfg: &ShippingQueryConfig) -> (i64, f64, f64) {
    let fact = db.table(cfg.fact);
    let dates = fact.column_req(cfg.date_col).as_i64();
    let addrs = fact.column_req(cfg.addr_col).as_i64();
    let dims = fact.column_req(cfg.dim_col).as_i64();
    let orders = fact.column_req(cfg.order_col).as_i64();
    let costs = fact.column_req(cfg.cost_col).as_f64();
    let profits = fact.column_req(cfg.profit_col).as_f64();

    let addr_tab = db.table("customer_address");
    let good_addrs: HashSet<i64> = addr_tab
        .column_req("ca_address_sk")
        .as_i64()
        .iter()
        .zip(addr_tab.column_req("ca_state").as_str())
        .filter(|&(_, s)| s == cfg.state)
        .map(|(&a, _)| a)
        .collect();

    let dim_tab = db.table(cfg.dim_table);
    let dim_mask = cfg.dim_pred.eval(dim_tab);
    let good_dims: HashSet<i64> = dim_tab
        .column_req(cfg.dim_key)
        .as_i64()
        .iter()
        .zip(&dim_mask)
        .filter(|&(_, &m)| m)
        .map(|(&d, _)| d)
        .collect();

    let returned: HashSet<i64> = db
        .table(cfg.returns)
        .column_req(cfg.returns_order_col)
        .as_i64()
        .iter()
        .copied()
        .collect();

    let mut kept_orders = HashSet::new();
    let (mut cost, mut profit) = (0.0, 0.0);
    for i in 0..fact.num_rows() {
        if dates[i] >= cfg.date_lo
            && dates[i] <= cfg.date_hi
            && good_addrs.contains(&addrs[i])
            && good_dims.contains(&dims[i])
            && !returned.contains(&orders[i])
        {
            kept_orders.insert(orders[i]);
            cost += costs[i];
            profit += profits[i];
        }
    }
    (kept_orders.len() as i64, cost, profit)
}

/// Q16 oracle.
pub fn reference(db: &Database) -> (i64, f64, f64) {
    shipping_reference(db, &q16_config())
}

/// Extract `(count, cost, profit)` from the plan's output table.
pub fn result_triple(t: &Table) -> (i64, f64, f64) {
    if t.num_rows() == 0 {
        return (0, 0.0, 0.0);
    }
    (
        t.column_req("order_count").as_f64()[0] as i64,
        t.column_req("total_shipping_cost").as_f64()[0],
        t.column_req("total_net_profit").as_f64()[0],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;

    #[test]
    fn shape_ten_stages() {
        let p = plan();
        assert_eq!(p.dag.num_stages(), 10);
        assert_eq!(p.dag.num_edges(), 9);
        assert_eq!(p.dag.initial_stages().len(), 4, "four scans");
        // Two broadcast dimensions.
        let ag = p
            .dag
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::AllGather)
            .count();
        assert_eq!(ag, 2);
    }

    #[test]
    fn plan_matches_oracle() {
        let db = Database::generate(ScaleConfig::with_sf(0.5));
        let (n, cost, profit) = reference(&db);
        assert!(n > 0, "premise: Q16 selects some orders");
        let out = plan().execute_reference(&db);
        let (gn, gc, gp) = result_triple(&out);
        assert_eq!(gn, n);
        assert!((gc - cost).abs() < 1e-6 * cost.abs().max(1.0), "{gc} vs {cost}");
        assert!((gp - profit).abs() < 1e-6 * profit.abs().max(1.0));
    }
}
