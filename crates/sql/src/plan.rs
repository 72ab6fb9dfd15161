//! Query plans: stage operators bound to a job DAG.
//!
//! A [`QueryPlan`] pairs a `ditto-dag` [`JobDag`] with one [`StageOp`] per
//! stage. The operators are interpretable at two granularities:
//!
//! * [`QueryPlan::execute_reference`] runs the whole plan single-threaded
//!   over a [`Database`] — the correctness oracle for distributed runs;
//! * [`QueryPlan::execute_stage`] runs one stage given its (already
//!   gathered) upstream inputs — what each task of the local runtime in
//!   `ditto-exec` evaluates over its partition.
//!
//! `QueryPlan::measure_volumes` executes the plan and stamps the observed
//! intermediate byte sizes onto the DAG's stages and edges: the recurring-job
//! profile, which `Query::prepared_plan` takes once per [`Database`] (its
//! tables never change). [`QueryPlan::scale_volumes`] inflates those volumes
//! to paper-scale magnitudes for the simulator.

use crate::datagen::Database;
use crate::expr::Pred;
use crate::ops::group_by::AggSpec;
use crate::ops::{group_by, hash_join, sort_limit, SortOrder};
use crate::selvec::SelVec;
use crate::table::Table;
use ditto_dag::{JobDag, StageId};
use std::collections::BTreeMap;

pub use crate::ops::group_by::AggFunc;
pub use crate::ops::join::JoinKind;

/// The operator a stage executes.
#[derive(Debug, Clone)]
pub enum StageOp {
    /// Scan a base table with optional predicate, projecting columns.
    Scan {
        /// Base table name.
        table: String,
        /// Columns to keep.
        projection: Vec<String>,
        /// Row filter applied before projection.
        predicate: Option<Pred>,
    },
    /// Join the outputs of two upstream stages.
    Join {
        /// Upstream stage providing the left (probe) side.
        left: String,
        /// Upstream stage providing the right (build) side.
        right: String,
        /// Left key column.
        left_key: String,
        /// Right key column.
        right_key: String,
        /// Join flavor.
        kind: JoinKind,
    },
    /// Group-by aggregation over one upstream stage.
    GroupBy {
        /// Upstream stage providing the input.
        input: String,
        /// Group keys.
        keys: Vec<String>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
        /// Post-aggregation filter.
        having: Option<Pred>,
    },
    /// Filter (and optionally re-project) one upstream stage's output.
    Filter {
        /// Upstream stage providing the input.
        input: String,
        /// Row filter.
        predicate: Pred,
        /// Columns to keep afterwards (`None` keeps all).
        projection: Option<Vec<String>>,
    },
    /// Top-N over one upstream stage (a final reduce).
    SortLimit {
        /// Upstream stage providing the input.
        input: String,
        /// Sort column.
        col: String,
        /// Descending?
        desc: bool,
        /// Row limit.
        limit: usize,
    },
}

/// A stage's operator plus its shuffle key.
#[derive(Debug, Clone)]
pub struct StageSpec {
    /// The operator.
    pub op: StageOp,
    /// Column this stage's output is hash-partitioned on when a downstream
    /// edge is a shuffle. `None` for gather/all-gather-only outputs.
    pub output_key: Option<String>,
}

/// A job DAG with executable stage operators.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Query name (`q1`, `q16`, `q94`, `q95`).
    pub name: String,
    /// The DAG (stage/edge byte volumes filled by
    /// `QueryPlan::measure_volumes`).
    pub dag: JobDag,
    /// Stage specs, index-aligned with `dag` stage ids.
    pub stages: Vec<StageSpec>,
}

impl QueryPlan {
    /// Execute one stage over its gathered inputs. `inputs` maps *upstream
    /// stage names* to their (concatenated) outputs destined for this task.
    /// Scans read the whole base table from `db`, or the task's slice of
    /// it when the caller passes one as `scan_override`.
    pub fn execute_stage(
        &self,
        stage: StageId,
        db: &Database,
        inputs: &BTreeMap<String, Table>,
        scan_override: Option<&Table>,
    ) -> Table {
        let spec = &self.stages[stage.index()];
        match &spec.op {
            StageOp::Scan {
                table,
                projection,
                predicate,
            } => {
                let src = scan_override.unwrap_or_else(|| db.table(table));
                // Fused filter+project through a selection vector: the
                // unprojected filtered intermediate is never materialized.
                let sel = match predicate {
                    Some(p) => SelVec::from_mask(&p.eval(src)),
                    None => SelVec::all(src.num_rows()),
                };
                let cols: Vec<&str> = projection.iter().map(|s| s.as_str()).collect();
                src.gather_project(&sel, &cols)
            }
            StageOp::Join {
                left,
                right,
                left_key,
                right_key,
                kind,
            } => {
                let l = input_req(inputs, left, &self.name);
                let r = input_req(inputs, right, &self.name);
                hash_join(l, r, left_key, right_key, *kind)
            }
            StageOp::GroupBy {
                input,
                keys,
                aggs,
                having,
            } => {
                let t = input_req(inputs, input, &self.name);
                let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
                group_by(t, &key_refs, aggs, having.as_ref())
            }
            StageOp::Filter {
                input,
                predicate,
                projection,
            } => {
                let t = input_req(inputs, input, &self.name);
                let sel = SelVec::from_mask(&predicate.eval(t));
                match projection {
                    Some(cols) => {
                        let refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
                        t.gather_project(&sel, &refs)
                    }
                    None => t.gather(&sel),
                }
            }
            StageOp::SortLimit {
                input,
                col,
                desc,
                limit,
            } => {
                let t = input_req(inputs, input, &self.name);
                let order = if *desc { SortOrder::Desc } else { SortOrder::Asc };
                sort_limit(t, col, order, *limit)
            }
        }
    }

    /// The single-threaded plan walk: every stage in topological order
    /// over its parents' whole outputs. Returns every stage's output.
    fn walk(&self, db: &Database) -> BTreeMap<StageId, Table> {
        let order = self.dag.topo_order().expect("plan DAG is valid");
        let mut outputs: BTreeMap<StageId, Table> = BTreeMap::new();
        for s in order {
            let inputs: BTreeMap<String, Table> = self
                .dag
                .parents_of(s)
                .map(|p| (self.dag.stage(p).name.clone(), outputs[&p].clone()))
                .collect();
            let out = self.execute_stage(s, db, &inputs, None);
            outputs.insert(s, out);
        }
        outputs
    }

    /// Run the full plan single-threaded: the correctness oracle.
    /// Returns the final stage's output (plans here have a single sink).
    pub fn execute_reference(&self, db: &Database) -> Table {
        let sink = self.dag.final_stages()[0];
        self.walk(db).remove(&sink).expect("sink executed")
    }

    /// Execute the plan once and stamp the observed byte volumes onto the
    /// DAG (stage `input_bytes`/`output_bytes` and edge `bytes`). This is
    /// the "recurring job profile" stand-in: schedulers and simulators read
    /// these volumes.
    pub(crate) fn measure_volumes(&mut self, db: &Database) {
        let outputs = self.walk(db);
        for (&s, out) in &outputs {
            // External input: base table bytes for scans.
            if let StageOp::Scan { table, .. } = &self.stages[s.index()].op {
                self.dag.stage_mut(s).input_bytes = db.table(table).byte_size();
            }
            self.dag.stage_mut(s).output_bytes = out.byte_size();
        }
        // Edge volume = producing stage's output (each consumer reads it).
        let edges: Vec<(ditto_dag::EdgeId, StageId)> =
            self.dag.edges().iter().map(|e| (e.id, e.src)).collect();
        for (e, src) in edges {
            self.dag.edge_mut(e).bytes = outputs[&src].byte_size().max(1);
        }
    }

    /// Merge the partial outputs the final stage's parallel tasks produced
    /// into the job answer:
    ///
    /// * a global aggregate (group-by with no keys) sums columnwise —
    ///   additive because the upstream shuffle partitions by the distinct
    ///   key, so even count-distinct partials are disjoint;
    /// * a sort-limit re-applies itself over the concatenation;
    /// * anything else concatenates.
    pub fn combine_final(&self, partials: &[Table]) -> Table {
        let sink = self.dag.final_stages()[0];
        let concat = Table::concat(partials).unwrap_or_default();
        match &self.stages[sink.index()].op {
            StageOp::GroupBy { keys, .. } if keys.is_empty() => {
                if concat.num_rows() == 0 {
                    return concat;
                }
                let cols = concat
                    .columns
                    .iter()
                    .map(|c| match c {
                        crate::column::Column::I64(v) => {
                            crate::column::Column::I64(vec![v.iter().sum()].into())
                        }
                        crate::column::Column::F64(v) => {
                            crate::column::Column::F64(vec![v.iter().sum()].into())
                        }
                        crate::column::Column::Str(_) => {
                            panic!("global aggregate output cannot contain strings")
                        }
                    })
                    .collect();
                Table::new(concat.schema.clone(), cols)
            }
            StageOp::SortLimit {
                col, desc, limit, ..
            } => {
                let order = if *desc { SortOrder::Desc } else { SortOrder::Asc };
                sort_limit(&concat, col, order, *limit)
            }
            _ => concat,
        }
    }

    /// Annotate every gather edge as pipelined (§4.5): gather is
    /// one-to-one, so the consumer can stream the producer's output as it
    /// is emitted. Shuffle and all-gather edges need the full partition
    /// set before consumption and stay un-pipelined.
    pub fn annotate_gather_pipelining(&mut self) {
        let gathers: Vec<ditto_dag::EdgeId> = self
            .dag
            .edges()
            .iter()
            .filter(|e| e.kind == ditto_dag::EdgeKind::Gather)
            .map(|e| e.id)
            .collect();
        for e in gathers {
            self.dag.set_pipelined(e, true);
        }
    }

    /// Multiply every byte volume by `factor` — bridges laptop-scale data
    /// to the paper-scale magnitudes the simulator schedules for.
    pub fn scale_volumes(&mut self, factor: f64) {
        assert!(factor > 0.0);
        for i in 0..self.dag.num_stages() {
            let s = self.dag.stage_mut(StageId(i as u32));
            s.input_bytes = (s.input_bytes as f64 * factor) as u64;
            s.output_bytes = (s.output_bytes as f64 * factor) as u64;
        }
        for i in 0..self.dag.num_edges() {
            let e = self.dag.edge_mut(ditto_dag::EdgeId(i as u32));
            e.bytes = ((e.bytes as f64 * factor) as u64).max(1);
        }
    }
}

/// What [`QueryPlan::measure_volumes`] stamps, index-aligned with the DAG:
/// `(input_bytes, output_bytes)` per stage, then `bytes` per edge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Volumes(Vec<(u64, u64)>, Vec<u64>);

impl Volumes {
    /// Walk `plan` over `db` (the uncached `measure_volumes`) and keep them.
    pub(crate) fn measured(mut plan: QueryPlan, db: &Database) -> Volumes {
        plan.measure_volumes(db);
        let stages = plan.dag.stages().iter().map(|s| (s.input_bytes, s.output_bytes));
        Volumes(stages.collect(), plan.dag.edges().iter().map(|e| e.bytes).collect())
    }

    /// Stamp them onto a fresh build of the measured plan's DAG.
    pub(crate) fn stamp(&self, dag: &mut JobDag) {
        for (i, &(input, output)) in self.0.iter().enumerate() {
            let s = dag.stage_mut(StageId(i as u32));
            (s.input_bytes, s.output_bytes) = (input, output);
        }
        for (i, &bytes) in self.1.iter().enumerate() {
            dag.edge_mut(ditto_dag::EdgeId(i as u32)).bytes = bytes;
        }
    }
}

fn input_req<'a>(inputs: &'a BTreeMap<String, Table>, name: &str, query: &str) -> &'a Table {
    inputs
        .get(name)
        .unwrap_or_else(|| panic!("{query}: missing input from stage {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::ScaleConfig;
    use crate::expr::Pred;
    use ditto_dag::{DagBuilder, EdgeKind, StageKind};

    /// A tiny two-stage plan: scan store filtered to TN, count rows.
    fn mini_plan() -> QueryPlan {
        let dag = DagBuilder::new("mini")
            .stage("scan", StageKind::Map, 0, 0)
            .stage("agg", StageKind::Reduce, 0, 0)
            .edge("scan", "agg", EdgeKind::Gather, 0)
            .build()
            .unwrap();
        QueryPlan {
            name: "mini".into(),
            dag,
            stages: vec![
                StageSpec {
                    op: StageOp::Scan {
                        table: "store".into(),
                        projection: vec!["s_store_sk".into(), "s_state".into()],
                        predicate: Some(Pred::eq_str("s_state", "TN")),
                    },
                    output_key: None,
                },
                StageSpec {
                    op: StageOp::GroupBy {
                        input: "scan".into(),
                        keys: vec![],
                        aggs: vec![AggSpec::count("n")],
                        having: None,
                    },
                    output_key: None,
                },
            ],
        }
    }

    #[test]
    fn reference_execution() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let out = mini_plan().execute_reference(&db);
        assert_eq!(out.num_rows(), 1);
        let n = out.column_req("n").as_i64()[0];
        let expect = db
            .table("store")
            .column_req("s_state")
            .as_str()
            .iter()
            .filter(|s| s.as_str() == "TN")
            .count() as i64;
        assert_eq!(n, expect);
        assert!(n > 0);
    }

    #[test]
    fn stage_with_scan_override() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let plan = mini_plan();
        let store = db.table("store");
        let parts = store.split(4);
        // Running the scan over each slice and concatenating equals the
        // full-table scan: the runtime's task decomposition is lossless.
        let full = plan.execute_stage(StageId(0), &db, &BTreeMap::new(), None);
        let by_parts: Vec<Table> = parts
            .iter()
            .map(|p| plan.execute_stage(StageId(0), &db, &BTreeMap::new(), Some(p)))
            .collect();
        let merged = Table::concat(&by_parts).unwrap();
        assert_eq!(merged.num_rows(), full.num_rows());
    }

    #[test]
    fn measure_volumes_stamps_dag() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let mut plan = mini_plan();
        plan.measure_volumes(&db);
        let scan = &plan.dag.stages()[0];
        assert!(scan.input_bytes > 0, "scan reads the base table");
        assert!(scan.output_bytes > 0);
        assert!(plan.dag.edges()[0].bytes > 0);
        assert!(scan.output_bytes < scan.input_bytes, "TN filter is selective");
    }

    #[test]
    fn one_walk_feeds_the_oracle_and_the_stamped_volumes() {
        use crate::queries::Query;
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        // Edge bytes `measure_volumes` stamps, pinned: every schedule
        // (and `sim_jct_s` / `sim_cost_gbs`) is computed from them.
        let pinned: [(Query, &[u64]); 5] = [
            (Query::Q1, &[1392, 1248, 1248, 272, 2080, 304, 48, 128]),
            (Query::Q3, &[8640, 48, 352, 48]),
            (Query::Q16, &[13480, 96, 280, 48, 280, 568, 280, 48, 24]),
            (Query::Q94, &[10800, 160, 2040, 72, 800, 344, 800, 216, 24]),
            (Query::Q95, &[24000, 1216, 41680, 8280, 2920, 1720, 560, 560]),
        ];
        for (q, edge_bytes) in pinned {
            let plan = q.prepared_plan(&db);
            let stamped: Vec<u64> = plan.dag.edges().iter().map(|e| e.bytes).collect();
            assert_eq!(stamped, edge_bytes, "{q}");
            // The sink output the walk hands `measure_volumes` is the
            // oracle's answer.
            let sink = plan.dag.final_stages()[0];
            let answer = plan.execute_reference(&db);
            assert_eq!(plan.walk(&db)[&sink], answer, "{q}");
            assert_eq!(plan.dag.stage(sink).output_bytes, answer.byte_size(), "{q}");
        }
    }

    #[test]
    fn scale_volumes_multiplies() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let mut plan = mini_plan();
        plan.measure_volumes(&db);
        let before = plan.dag.edges()[0].bytes;
        plan.scale_volumes(100.0);
        assert_eq!(plan.dag.edges()[0].bytes, before * 100);
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn missing_input_panics() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let plan = mini_plan();
        plan.execute_stage(StageId(1), &db, &BTreeMap::new(), None);
    }
}
