//! Row-at-a-time reference kernels: the correctness oracle for the
//! vectorized operators.
//!
//! These are the original operator implementations, kept verbatim (boxed
//! keys, per-row allocations, index-vector partitioning, element-wise
//! codec). The vectorized kernels in [`crate::ops`] / [`crate::table`] must
//! produce **bit-identical** output — same rows, same order, same float
//! bits, same wire bytes — which the `kernel_equivalence` proptest suite
//! and the fixed-seed five-query sweep enforce.
//!
//! Everything here is intentionally slow; nothing in the runtime calls it
//! outside tests and benchmarks.

use crate::column::{Column, DataType, Value};
use crate::datagen::Database;
use crate::expr::{CmpOp, Pred};
use crate::ops::group_by::{AggFunc, AggSpec};
use crate::ops::join::JoinKind;
use crate::plan::{QueryPlan, StageOp};
use crate::table::{Field, Schema, Table};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap, HashSet};

/// A join key usable as a hash-map key (i64 or string columns).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    I(i64),
    S(String),
}

fn key_at(col: &Column, row: usize) -> Key {
    match col {
        Column::I64(v) => Key::I(v[row]),
        Column::Str(v) => Key::S(v[row].clone()),
        Column::F64(_) => panic!("cannot join on a float column"),
    }
}

/// The original boxed-key hash join (build right, probe left).
pub fn hash_join_reference(
    left: &Table,
    right: &Table,
    left_key: &str,
    right_key: &str,
    kind: JoinKind,
) -> Table {
    let lcol = left.column_req(left_key);
    let rcol = right.column_req(right_key);
    assert_eq!(
        lcol.dtype(),
        rcol.dtype(),
        "join key types differ: {left_key} vs {right_key}"
    );

    let mut build: HashMap<Key, Vec<usize>> = HashMap::new();
    for r in 0..right.num_rows() {
        build.entry(key_at(rcol, r)).or_default().push(r);
    }

    match kind {
        JoinKind::Inner => {
            let mut lidx = Vec::new();
            let mut ridx = Vec::new();
            for l in 0..left.num_rows() {
                if let Some(rs) = build.get(&key_at(lcol, l)) {
                    for &r in rs {
                        lidx.push(l);
                        ridx.push(r);
                    }
                }
            }
            let lpart = left.take(&lidx);
            let rpart = right.take(&ridx);
            let mut fields = lpart.schema.fields.clone();
            let mut cols = lpart.columns.clone();
            for (f, c) in rpart.schema.fields.iter().zip(&rpart.columns) {
                let name = if lpart.schema.index_of(&f.name).is_some() {
                    format!("{}_r", f.name)
                } else {
                    f.name.clone()
                };
                fields.push(Field {
                    name,
                    dtype: f.dtype,
                });
                cols.push(c.clone());
            }
            Table::new(Schema { fields }, cols)
        }
        JoinKind::LeftSemi | JoinKind::LeftAnti => {
            let want_match = kind == JoinKind::LeftSemi;
            let mask: Vec<bool> = (0..left.num_rows())
                .map(|l| build.contains_key(&key_at(lcol, l)) == want_match)
                .collect();
            left.filter(&mask)
        }
    }
}

/// Hashable composite group key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    I(i64),
    S(String),
}

fn key_of(cols: &[&Column], row: usize) -> Vec<KeyPart> {
    cols.iter()
        .map(|c| match c {
            Column::I64(v) => KeyPart::I(v[row]),
            Column::Str(v) => KeyPart::S(v[row].clone()),
            Column::F64(_) => panic!("cannot group by a float column"),
        })
        .collect()
}

fn numeric_at(col: &Column, row: usize) -> f64 {
    match col {
        Column::I64(v) => v[row] as f64,
        Column::F64(v) => v[row],
        Column::Str(_) => panic!("numeric aggregate over a string column"),
    }
}

fn distinct_key(col: &Column, row: usize) -> KeyPart {
    match col {
        Column::I64(v) => KeyPart::I(v[row]),
        Column::F64(v) => KeyPart::I(v[row].to_bits() as i64),
        Column::Str(v) => KeyPart::S(v[row].clone()),
    }
}

/// The original per-row-keyed group-by aggregation.
pub fn group_by_reference(
    t: &Table,
    keys: &[&str],
    aggs: &[AggSpec],
    having: Option<&Pred>,
) -> Table {
    let key_cols: Vec<&Column> = keys.iter().map(|k| t.column_req(k)).collect();
    let mut groups: HashMap<Vec<KeyPart>, Vec<usize>> = HashMap::new();
    let mut order: Vec<Vec<KeyPart>> = Vec::new();
    for row in 0..t.num_rows() {
        let k = key_of(&key_cols, row);
        groups
            .entry(k.clone())
            .or_insert_with(|| {
                order.push(k);
                Vec::new()
            })
            .push(row);
    }

    let mut fields: Vec<Field> = Vec::new();
    let mut out_cols: Vec<Column> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        fields.push(Field {
            name: k.to_string(),
            dtype: key_cols[i].dtype(),
        });
        let col = match key_cols[i].dtype() {
            DataType::I64 => Column::I64(
                order
                    .iter()
                    .map(|key| match &key[i] {
                        KeyPart::I(v) => *v,
                        KeyPart::S(_) => unreachable!(),
                    })
                    .collect(),
            ),
            DataType::Str => Column::Str(
                order
                    .iter()
                    .map(|key| match &key[i] {
                        KeyPart::S(v) => v.clone(),
                        KeyPart::I(_) => unreachable!(),
                    })
                    .collect(),
            ),
            DataType::F64 => unreachable!("rejected above"),
        };
        out_cols.push(col);
    }

    for spec in aggs {
        let dtype = match spec.func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::I64,
            _ => DataType::F64,
        };
        fields.push(Field {
            name: spec.output.clone(),
            dtype,
        });
        let col = match spec.func {
            AggFunc::Count => {
                Column::I64(order.iter().map(|k| groups[k].len() as i64).collect())
            }
            AggFunc::CountDistinct => {
                let input = t.column_req(&spec.input);
                Column::I64(
                    order
                        .iter()
                        .map(|k| {
                            let set: HashSet<KeyPart> =
                                groups[k].iter().map(|&r| distinct_key(input, r)).collect();
                            set.len() as i64
                        })
                        .collect(),
                )
            }
            AggFunc::Sum | AggFunc::Avg | AggFunc::Min | AggFunc::Max => {
                let input = t.column_req(&spec.input);
                Column::F64(
                    order
                        .iter()
                        .map(|k| {
                            let rows = &groups[k];
                            let vals = rows.iter().map(|&r| numeric_at(input, r));
                            match spec.func {
                                AggFunc::Sum => vals.sum(),
                                AggFunc::Avg => vals.sum::<f64>() / rows.len() as f64,
                                AggFunc::Min => vals.fold(f64::INFINITY, f64::min),
                                AggFunc::Max => vals.fold(f64::NEG_INFINITY, f64::max),
                                _ => unreachable!(),
                            }
                        })
                        .collect(),
                )
            }
        };
        out_cols.push(col);
    }

    let out = Table::new(Schema { fields }, out_cols);
    match having {
        Some(p) => {
            let mask = eval_reference(p, &out);
            out.filter(&mask)
        }
        None => out,
    }
}

/// The original per-row predicate evaluation (one [`Value`] per cell).
pub fn eval_reference(pred: &Pred, t: &Table) -> Vec<bool> {
    let n = t.num_rows();
    match pred {
        Pred::Cmp { col, op, value } => {
            let c = t.column_req(col);
            (0..n).map(|r| cmp_value(&c.value(r), *op, value)).collect()
        }
        Pred::InI64 { col, set } => {
            let s: HashSet<i64> = set.iter().copied().collect();
            let c = t.column_req(col).as_i64();
            c.iter().map(|v| s.contains(v)).collect()
        }
        Pred::InStr { col, set } => {
            let s: HashSet<&str> = set.iter().map(|x| x.as_str()).collect();
            let c = t.column_req(col).as_str();
            c.iter().map(|v| s.contains(v.as_str())).collect()
        }
        Pred::ColCmp {
            left,
            op,
            right,
            scale,
        } => {
            let l = t.column_req(left);
            let r = t.column_req(right);
            (0..n)
                .map(|row| {
                    let lv = numeric_value(&l.value(row));
                    let rv = numeric_value(&r.value(row)) * scale;
                    cmp_value(&Value::F64(lv), *op, &Value::F64(rv))
                })
                .collect()
        }
        Pred::And(ps) => {
            let mut mask = vec![true; n];
            for p in ps {
                for (m, x) in mask.iter_mut().zip(eval_reference(p, t)) {
                    *m = *m && x;
                }
            }
            mask
        }
        Pred::Or(ps) => {
            let mut mask = vec![false; n];
            for p in ps {
                for (m, x) in mask.iter_mut().zip(eval_reference(p, t)) {
                    *m = *m || x;
                }
            }
            mask
        }
        Pred::Not(p) => eval_reference(p, t).into_iter().map(|b| !b).collect(),
    }
}

fn numeric_value(v: &Value) -> f64 {
    match v {
        Value::I64(x) => *x as f64,
        Value::F64(x) => *x,
        Value::Str(s) => panic!("numeric comparison over string value {s:?}"),
    }
}

fn cmp_value(lhs: &Value, op: CmpOp, rhs: &Value) -> bool {
    use std::cmp::Ordering;
    let ord = match (lhs, rhs) {
        (Value::I64(a), Value::I64(b)) => a.cmp(b),
        (Value::F64(a), Value::F64(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (a, b) => panic!("type mismatch in comparison: {a:?} vs {b:?}"),
    };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// The original hash-tuple distinct (first-appearance order).
pub fn distinct_reference(t: &Table, cols: &[&str]) -> Table {
    let projected = t.project(cols);
    let key_cols: Vec<&Column> = cols.iter().map(|c| projected.column_req(c)).collect();
    let mut seen: HashSet<Vec<u64>> = HashSet::new();
    let mut keep = Vec::new();
    for row in 0..projected.num_rows() {
        let key: Vec<u64> = key_cols.iter().map(|c| c.hash_row(row)).collect();
        if seen.insert(key) {
            keep.push(row);
        }
    }
    projected.take(&keep)
}

/// The original index-vector hash partitioner (bucket lists + `take`).
pub fn hash_partition_reference(t: &Table, key: &str, n: usize) -> Vec<Table> {
    assert!(n > 0);
    let col = t.column_req(key);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for row in 0..t.num_rows() {
        let b = (col.hash_row(row) % n as u64) as usize;
        buckets[b].push(row);
    }
    buckets.into_iter().map(|idx| t.take(&idx)).collect()
}

/// The original index-vector split (`(start..start+len)` + `take`).
pub fn split_reference(t: &Table, n: usize) -> Vec<Table> {
    assert!(n > 0);
    let rows = t.num_rows();
    let base = rows / n;
    let rem = rows % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0usize;
    for i in 0..n {
        let len = base + usize::from(i < rem);
        let idx: Vec<usize> = (start..start + len).collect();
        out.push(t.take(&idx));
        start += len;
    }
    out
}

/// The original element-at-a-time wire encoding (v1: strings inline
/// under tag 2, numerics pushed one word at a time). No decoder accepts
/// this layout any more — [`Table::try_decode`] rejects tag 2 as unknown.
/// It is kept only as the timing baseline of the fused partition+encode
/// path's 3× floor.
pub fn encode_reference(t: &Table) -> Bytes {
    let mut buf: Vec<u8> = Vec::with_capacity(t.byte_size() as usize + 64);
    buf.extend_from_slice(&(t.num_columns() as u32).to_le_bytes());
    for (f, c) in t.schema.fields.iter().zip(&t.columns) {
        buf.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
        buf.extend_from_slice(f.name.as_bytes());
        match c {
            Column::I64(v) => {
                buf.push(0);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::F64(v) => {
                buf.push(1);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for x in v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            Column::Str(v) => {
                buf.push(2);
                buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                for s in v {
                    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    buf.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    Bytes::from(buf)
}

/// Execute a whole plan with the reference operators only — the oracle the
/// fixed-seed five-query sweep compares [`QueryPlan::execute_reference`]
/// (which runs the vectorized kernels) against.
pub fn execute_plan_reference(plan: &QueryPlan, db: &Database) -> Table {
    let order = plan.dag.topo_order().expect("plan DAG is valid");
    let mut outputs: BTreeMap<ditto_dag::StageId, Table> = BTreeMap::new();
    for s in order {
        let inputs: BTreeMap<String, Table> = plan
            .dag
            .parents_of(s)
            .map(|p| (plan.dag.stage(p).name.clone(), outputs[&p].clone()))
            .collect();
        let out = execute_stage_reference(plan, s, db, &inputs);
        outputs.insert(s, out);
    }
    let sink = plan.dag.final_stages()[0];
    outputs.remove(&sink).expect("sink executed")
}

fn execute_stage_reference(
    plan: &QueryPlan,
    stage: ditto_dag::StageId,
    db: &Database,
    inputs: &BTreeMap<String, Table>,
) -> Table {
    let input_req = |name: &str| -> &Table {
        inputs
            .get(name)
            .unwrap_or_else(|| panic!("{}: missing input from stage {name:?}", plan.name))
    };
    match &plan.stages[stage.index()].op {
        StageOp::Scan {
            table,
            projection,
            predicate,
        } => {
            let src = db.table(table);
            let filtered = match predicate {
                Some(p) => src.filter(&eval_reference(p, src)),
                None => src.clone(),
            };
            let cols: Vec<&str> = projection.iter().map(|s| s.as_str()).collect();
            filtered.project(&cols)
        }
        StageOp::Join {
            left,
            right,
            left_key,
            right_key,
            kind,
        } => hash_join_reference(input_req(left), input_req(right), left_key, right_key, *kind),
        StageOp::GroupBy {
            input,
            keys,
            aggs,
            having,
        } => {
            let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
            group_by_reference(input_req(input), &key_refs, aggs, having.as_ref())
        }
        StageOp::Filter {
            input,
            predicate,
            projection,
        } => {
            let t = input_req(input);
            let filtered = t.filter(&eval_reference(predicate, t));
            match projection {
                Some(cols) => {
                    let refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
                    filtered.project(&refs)
                }
                None => filtered,
            }
        }
        StageOp::SortLimit {
            input,
            col,
            desc,
            limit,
        } => {
            let t = input_req(input);
            let c = t.column_req(col);
            let mut idx: Vec<usize> = (0..t.num_rows()).collect();
            match c {
                Column::I64(v) => idx.sort_by(|&a, &b| v[a].cmp(&v[b])),
                Column::F64(v) => idx.sort_by(|&a, &b| v[a].total_cmp(&v[b])),
                Column::Str(v) => idx.sort_by(|&a, &b| v[a].cmp(&v[b])),
            }
            if *desc {
                idx.reverse();
            }
            idx.truncate(*limit);
            t.take(&idx)
        }
    }
}
