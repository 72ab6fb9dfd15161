//! TPC-DS Q94 (simplified): the web-channel sibling of Q16 — orders
//! shipped within a window to California addresses from "pri" web sites
//! and never returned. Same 10-stage skeleton, different tables, volumes
//! and selectivities (web_sales is smaller than catalog_sales but its
//! returns rate is higher), which is why the paper treats Q16 and Q94 as
//! distinct workload points.

use crate::datagen::Database;
use crate::expr::Pred;
use crate::plan::QueryPlan;
use crate::queries::q16::{shipping_plan, shipping_reference, ShippingQueryConfig};
use crate::table::Table;

pub(crate) fn q94_config() -> ShippingQueryConfig {
    ShippingQueryConfig {
        name: "q94",
        fact: "web_sales",
        returns: "web_returns",
        order_col: "ws_order_number",
        date_col: "ws_ship_date_sk",
        addr_col: "ws_ship_addr_sk",
        dim_col: "ws_web_site_sk",
        cost_col: "ws_ext_ship_cost",
        profit_col: "ws_net_profit",
        returns_order_col: "wr_order_number",
        dim_table: "web_site",
        dim_key: "web_site_sk",
        dim_pred: Pred::InStr {
            col: "web_company_name".into(),
            set: vec!["pri-0".into(), "pri-1".into()],
        },
        state: "CA",
        // Year 1999 (day index 365..729 → sk 366..730); widened from
        // TPC-DS's 60 days for the same laptop-scale reason as Q16.
        date_lo: 366,
        date_hi: 730,
    }
}

/// Build the Q94 plan.
pub(crate) fn plan() -> QueryPlan {
    shipping_plan(&q94_config())
}

/// Q94 oracle: `(distinct orders, Σ ship cost, Σ profit)`.
pub fn reference(db: &Database) -> (i64, f64, f64) {
    shipping_reference(db, &q94_config())
}

/// Extract `(count, cost, profit)` from the plan output (same layout as
/// Q16).
pub fn result_triple(t: &Table) -> (i64, f64, f64) {
    crate::queries::q16::result_triple(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;

    #[test]
    fn plan_matches_oracle() {
        let db = Database::generate(ScaleConfig::with_sf(0.5));
        let (n, cost, profit) = reference(&db);
        assert!(n > 0, "premise: Q94 selects some orders");
        let out = plan().execute_reference(&db);
        let (gn, gc, gp) = result_triple(&out);
        assert_eq!(gn, n);
        assert!((gc - cost).abs() < 1e-6 * cost.abs().max(1.0));
        assert!((gp - profit).abs() < 1e-6 * profit.abs().max(1.0));
    }

    #[test]
    fn differs_from_q16_in_tables_not_shape() {
        let p16 = crate::queries::q16::plan();
        let p94 = plan();
        assert_eq!(p16.dag.num_stages(), p94.dag.num_stages());
        assert_eq!(p16.dag.num_edges(), p94.dag.num_edges());
        assert_ne!(p16.name, p94.name);
    }
}
