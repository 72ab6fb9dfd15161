//! The four evaluated TPC-DS queries, hand-lowered to stage DAGs.
//!
//! The paper selects Q1, Q16, Q94 and Q95 as "representative queries with
//! different performance characteristics" (§6). The lowerings here keep
//! each query's *structure* — the joins, aggregations, (anti-)semi-joins
//! and the resulting DAG shape — while simplifying the SQL details that do
//! not affect scheduling (e.g. Q1 filters dates by surrogate-key range
//! instead of joining `date_dim`, exactly because its interesting structure
//! is the double consumption of the `customer_total_return` aggregate).
//!
//! Each module provides:
//!
//! * `plan()` — the [`QueryPlan`] (DAG + operators);
//! * `reference(db)` — an *independent*, hand-rolled oracle (plain loops
//!   and hash maps, no shared operator code) used to validate both the
//!   plan interpreter and the distributed runtime;
//! * shape tests pinning the DAG to the intended structure (Q95 to the
//!   paper's Fig. 13).

pub mod q1;
pub mod q16;
pub mod q3;
pub mod q94;
pub mod q95;

use crate::{datagen::Database, plan::{QueryPlan, Volumes}};

/// The implemented queries.
///
/// ```
/// use ditto_sql::queries::Query;
/// use ditto_sql::{Database, ScaleConfig};
///
/// let db = Database::generate(ScaleConfig::with_sf(0.1));
/// let plan = Query::Q95.prepared_plan(&db);       // measured volumes
/// assert_eq!(plan.dag.num_stages(), 9);           // the Fig. 13 DAG
/// let answer = plan.execute_reference(&db);       // single-threaded oracle
/// assert!(answer.num_rows() <= 1);                // one aggregate row
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Customer returns above 1.2× their store's average (store channel).
    Q1,
    /// Catalog orders shipped to GA from selected call centers, never
    /// returned: count-distinct + sums with an anti-join.
    Q16,
    /// Web analog of Q16 (web sites instead of call centers).
    Q94,
    /// Web orders shipped from multiple warehouses: the 9-stage DAG of
    /// Fig. 13 with two broadcast joins.
    Q95,
    /// Brand sales report (not in the paper's evaluation set; a
    /// broadcast-join → two-level-aggregation shape for wider coverage).
    Q3,
}

impl Query {
    /// The paper's four evaluated queries, in paper order.
    pub fn all() -> [Query; 4] {
        [Query::Q1, Query::Q16, Query::Q94, Query::Q95]
    }

    /// Every implemented query, including the extras beyond the paper.
    pub const fn all_extended() -> [Query; 5] {
        [Query::Q1, Query::Q3, Query::Q16, Query::Q94, Query::Q95]
    }

    /// The query's name (`"q1"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Query::Q1 => "q1",
            Query::Q3 => "q3",
            Query::Q16 => "q16",
            Query::Q94 => "q94",
            Query::Q95 => "q95",
        }
    }

    /// Build the query's plan (volumes unmeasured; see
    /// `QueryPlan::measure_volumes`).
    pub fn plan(&self) -> QueryPlan {
        match self {
            Query::Q1 => q1::plan(),
            Query::Q3 => q3::plan(),
            Query::Q16 => q16::plan(),
            Query::Q94 => q94::plan(),
            Query::Q95 => q95::plan(),
        }
    }

    /// Build the plan and stamp measured volumes from the database: walked
    /// once per (query, `db`), then kept by `db` (see [`Database`]). The
    /// returned plan is the caller's own to change.
    pub fn prepared_plan(&self, db: &Database) -> QueryPlan {
        let mut plan = self.plan();
        let volumes = db.volumes(*self).get_or_init(|| Volumes::measured(plan.clone(), db));
        volumes.stamp(&mut plan.dag);
        plan
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{Database, ScaleConfig};

    #[test]
    fn all_plans_valid_and_named() {
        for q in Query::all_extended() {
            let p = q.plan();
            assert_eq!(p.name, q.name());
            p.dag.validate().unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_eq!(p.stages.len(), p.dag.num_stages(), "{q}");
            assert_eq!(p.dag.final_stages().len(), 1, "{q} must have one sink");
        }
    }

    #[test]
    fn prepared_plans_have_volumes() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        for q in Query::all_extended() {
            let p = q.prepared_plan(&db);
            assert!(
                p.dag.edges().iter().all(|e| e.bytes > 0),
                "{q}: every edge must carry measured volume"
            );
            let scans_have_input = p
                .dag
                .stages()
                .iter()
                .filter(|s| p.dag.in_degree(s.id) == 0)
                .all(|s| s.input_bytes > 0);
            assert!(scans_have_input, "{q}: initial stages scan base tables");
        }
    }

    /// The byte volumes stamped on `plan`'s DAG.
    fn stamped(plan: &QueryPlan) -> (Vec<(u64, u64)>, Vec<u64>) {
        let stages = plan.dag.stages().iter().map(|s| (s.input_bytes, s.output_bytes));
        (stages.collect(), plan.dag.edges().iter().map(|e| e.bytes).collect())
    }

    /// `prepared_plan` walks each plan once per database and stamps the
    /// kept volumes afterwards; what it returns always equals a fresh
    /// `plan()` + `measure_volumes` over that database.
    #[test]
    fn prepared_plan_measures_once_per_database() {
        let dbs = [7, 8].map(|seed| {
            Database::generate(ScaleConfig {
                seed,
                ..ScaleConfig::with_sf(0.05)
            })
        });
        let mut seeds_differ = false;
        for q in Query::all_extended() {
            let measured: Vec<_> = dbs
                .iter()
                .map(|db| {
                    let mut p = q.plan();
                    p.measure_volumes(db);
                    stamped(&p)
                })
                .collect();
            seeds_differ |= measured[0] != measured[1];
            for (db, want) in dbs.iter().zip(&measured) {
                assert!(db.volumes(q).get().is_none(), "{q}: filled before its first call");
                let kept = Volumes::measured(q.plan(), db);
                for call in 1..=2 {
                    assert_eq!(stamped(&q.prepared_plan(db)), *want, "{q}: call {call}");
                    assert_eq!(db.volumes(q).get(), Some(&kept), "{q}: slot after call {call}");
                }
                let clone = db.clone();
                assert_eq!(clone.volumes(q).get(), Some(&kept), "{q}: clone");
                assert_eq!(stamped(&q.prepared_plan(&clone)), *want, "{q}: clone");
                // Scaling a returned plan changes that copy only.
                q.prepared_plan(db).scale_volumes(1000.0);
                assert_eq!(stamped(&q.prepared_plan(db)), *want, "{q}: after scaling");
            }
        }
        assert!(seeds_differ, "the two seeds must produce different volumes");
    }

    #[test]
    fn queries_have_distinct_shapes() {
        let q95 = Query::Q95.plan();
        assert_eq!(q95.dag.num_stages(), 9);
        let q1 = Query::Q1.plan();
        assert!(q1.dag.num_stages() != q95.dag.num_stages());
    }
}
