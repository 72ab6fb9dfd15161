//! Group-by aggregation with HAVING support.
//!
//! Vectorized: group keys become fixed-width `u64` tuples (`i64` bits,
//! dictionary codes for strings) assigned dense group ids through a raw
//! `TupleIdMap` — no per-row `Vec<KeyPart>` allocation — and every
//! aggregate is a single accumulator pass over the input in row order,
//! which keeps float results bit-identical to the row-at-a-time
//! [`crate::reference::group_by_reference`].

use crate::column::{Buf, Column, DataType};
use crate::dict::StrDict;
use crate::expr::Pred;
use crate::hash::TupleIdMap;
use crate::selvec::SelVec;
use crate::table::{Field, Schema, Table};

/// An aggregate over one input column.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input column (ignored for `Count`).
    pub input: String,
    /// Output column name.
    pub output: String,
}

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row count (`COUNT(*)`), output i64.
    Count,
    /// Distinct values of the input column, output i64.
    CountDistinct,
    /// Sum of a numeric column, output f64.
    Sum,
    /// Mean of a numeric column, output f64.
    Avg,
    /// Minimum of a numeric column, output f64.
    Min,
    /// Maximum of a numeric column, output f64.
    Max,
}

impl AggSpec {
    /// `COUNT(*) AS output`.
    pub(crate) fn count(output: &str) -> Self {
        AggSpec {
            func: AggFunc::Count,
            input: String::new(),
            output: output.into(),
        }
    }

    /// `FUNC(input) AS output`.
    pub fn new(func: AggFunc, input: &str, output: &str) -> Self {
        AggSpec {
            func,
            input: input.into(),
            output: output.into(),
        }
    }
}

/// One key column as exact `u64` row representatives: equal cells get
/// equal words, distinct cells distinct words (no hashing involved).
fn key_reprs(col: &Column) -> Vec<u64> {
    match col {
        Column::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Column::Str(v) => {
            let (_, codes) = StrDict::encode_column(v);
            codes.into_iter().map(u64::from).collect()
        }
        Column::F64(_) => panic!("cannot group by a float column"),
    }
}

/// Exact `u64` row representatives for distinct-counting (floats compare
/// by bit pattern, exactly like the reference's `distinct_key`).
fn distinct_reprs(col: &Column) -> Vec<u64> {
    match col {
        Column::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Column::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Column::Str(v) => {
            let (_, codes) = StrDict::encode_column(v);
            codes.into_iter().map(u64::from).collect()
        }
    }
}

/// Fold a numeric column into one accumulator per group, visiting rows in
/// input order (so float accumulation matches the reference bit-for-bit).
fn fold_numeric(
    input: &Column,
    group_of: &[u32],
    groups: usize,
    init: f64,
    f: impl Fn(f64, f64) -> f64,
) -> Buf<f64> {
    let mut acc = vec![init; groups];
    match input {
        Column::I64(v) => {
            for (&id, &x) in group_of.iter().zip(v) {
                let a = &mut acc[id as usize];
                *a = f(*a, x as f64);
            }
        }
        Column::F64(v) => {
            for (&id, &x) in group_of.iter().zip(v) {
                let a = &mut acc[id as usize];
                *a = f(*a, x);
            }
        }
        Column::Str(_) => {
            // The reference rejects lazily, per evaluated row.
            if !group_of.is_empty() {
                panic!("numeric aggregate over a string column");
            }
        }
    }
    acc.into()
}

/// `SELECT keys, aggs FROM t GROUP BY keys [HAVING having]`.
///
/// With empty `keys`, computes a single global aggregate row (0 rows when
/// the input is empty, matching SQL's behaviour for grouped aggregates).
/// Output rows are ordered by first appearance of the group in the input —
/// deterministic for comparing distributed and reference runs.
///
/// ```
/// use ditto_sql::column::{Column, DataType};
/// use ditto_sql::ops::{group_by, AggSpec};
/// use ditto_sql::ops::group_by::AggFunc;
/// use ditto_sql::table::{Schema, Table};
///
/// let t = Table::new(
///     Schema::new(&[("store", DataType::I64), ("amt", DataType::F64)]),
///     vec![Column::I64(vec![1, 2, 1].into()), Column::F64(vec![10.0, 5.0, 30.0].into())],
/// );
/// let g = group_by(&t, &["store"], &[AggSpec::new(AggFunc::Sum, "amt", "total")], None);
/// assert_eq!(g.column_req("store").as_i64(), &[1, 2]);
/// assert_eq!(g.column_req("total").as_f64(), &[40.0, 5.0]);
/// ```
pub fn group_by(t: &Table, keys: &[&str], aggs: &[AggSpec], having: Option<&Pred>) -> Table {
    let n = t.num_rows();
    let key_cols: Vec<&Column> = keys.iter().map(|k| t.column_req(k)).collect();
    let reprs: Vec<Vec<u64>> = key_cols.iter().map(|c| key_reprs(c)).collect();

    // Assign dense group ids in first-appearance order.
    let stride = key_cols.len();
    let mut map = TupleIdMap::with_capacity(stride, n);
    let mut group_of: Vec<u32> = Vec::with_capacity(n);
    let mut first_rows: Vec<u32> = Vec::new();
    let mut counts: Vec<i64> = Vec::new();
    let mut tuple: Vec<u64> = vec![0; stride];
    for row in 0..n {
        for (slot, r) in tuple.iter_mut().zip(&reprs) {
            *slot = r[row];
        }
        let (id, new) = map.insert_or_get(&tuple);
        if new {
            first_rows.push(row as u32);
            counts.push(0);
        }
        counts[id as usize] += 1;
        group_of.push(id);
    }
    let groups = first_rows.len();
    let firsts = SelVec::Rows(first_rows);

    // Assemble output columns: keys first, then aggregates.
    let mut fields: Vec<Field> = Vec::new();
    let mut out_cols: Vec<Column> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        fields.push(Field {
            name: k.to_string(),
            dtype: key_cols[i].dtype(),
        });
        out_cols.push(key_cols[i].gather(&firsts));
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
            AggFunc::Count => Column::I64(counts.clone().into()),
            AggFunc::CountDistinct => {
                let input = t.column_req(&spec.input);
                let vals = distinct_reprs(input);
                let mut seen = TupleIdMap::with_capacity(2, n);
                let mut dc = vec![0i64; groups];
                for (&id, &v) in group_of.iter().zip(&vals) {
                    let (_, new) = seen.insert_or_get(&[id as u64, v]);
                    if new {
                        dc[id as usize] += 1;
                    }
                }
                Column::I64(dc.into())
            }
            AggFunc::Sum => Column::F64(fold_numeric(
                t.column_req(&spec.input),
                &group_of,
                groups,
                0.0,
                |a, x| a + x,
            )),
            AggFunc::Avg => {
                let sums = fold_numeric(
                    t.column_req(&spec.input),
                    &group_of,
                    groups,
                    0.0,
                    |a, x| a + x,
                );
                Column::F64(
                    sums.iter()
                        .zip(&counts)
                        .map(|(s, &c)| s / c as f64)
                        .collect(),
                )
            }
            AggFunc::Min => Column::F64(fold_numeric(
                t.column_req(&spec.input),
                &group_of,
                groups,
                f64::INFINITY,
                f64::min,
            )),
            AggFunc::Max => Column::F64(fold_numeric(
                t.column_req(&spec.input),
                &group_of,
                groups,
                f64::NEG_INFINITY,
                f64::max,
            )),
        };
        out_cols.push(col);
    }

    let out = Table::new(Schema { fields }, out_cols);
    match having {
        Some(p) => {
            let mask = p.eval(&out);
            out.gather(&SelVec::from_mask(&mask))
        }
        None => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Pred};

    fn t() -> Table {
        Table::new(
            Schema::new(&[
                ("store", DataType::I64),
                ("cust", DataType::Str),
                ("amt", DataType::F64),
            ]),
            vec![
                Column::I64(vec![1, 1, 2, 2, 2, 1].into()),
                Column::Str(vec![
                    "a".into(),
                    "b".into(),
                    "a".into(),
                    "a".into(),
                    "c".into(),
                    "a".into(),
                ].into()),
                Column::F64(vec![10.0, 20.0, 5.0, 15.0, 30.0, 40.0].into()),
            ],
        )
    }

    #[test]
    fn sum_count_by_key() {
        let g = group_by(
            &t(),
            &["store"],
            &[
                AggSpec::new(AggFunc::Sum, "amt", "total"),
                AggSpec::count("n"),
            ],
            None,
        );
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.column_req("store").as_i64(), &[1, 2]); // appearance order
        assert_eq!(g.column_req("total").as_f64(), &[70.0, 50.0]);
        assert_eq!(g.column_req("n").as_i64(), &[3, 3]);
    }

    #[test]
    fn multi_key_groups() {
        let g = group_by(&t(), &["store", "cust"], &[AggSpec::count("n")], None);
        assert_eq!(g.num_rows(), 4); // (1,a)(1,b)(2,a)(2,c)
        assert_eq!(g.column_req("n").as_i64(), &[2, 1, 2, 1]);
    }

    #[test]
    fn count_distinct() {
        let g = group_by(
            &t(),
            &["store"],
            &[AggSpec::new(AggFunc::CountDistinct, "cust", "dc")],
            None,
        );
        assert_eq!(g.column_req("dc").as_i64(), &[2, 2]);
    }

    #[test]
    fn avg_min_max() {
        let g = group_by(
            &t(),
            &["store"],
            &[
                AggSpec::new(AggFunc::Avg, "amt", "avg"),
                AggSpec::new(AggFunc::Min, "amt", "min"),
                AggSpec::new(AggFunc::Max, "amt", "max"),
            ],
            None,
        );
        let avg = g.column_req("avg").as_f64();
        assert!((avg[0] - 70.0 / 3.0).abs() < 1e-9);
        assert_eq!(g.column_req("min").as_f64(), &[10.0, 5.0]);
        assert_eq!(g.column_req("max").as_f64(), &[40.0, 30.0]);
    }

    #[test]
    fn having_filters_groups() {
        let having = Pred::Cmp {
            col: "dc".into(),
            op: CmpOp::Gt,
            value: crate::column::Value::I64(1),
        };
        let g = group_by(
            &t(),
            &["store", "cust"],
            &[AggSpec::new(AggFunc::CountDistinct, "amt", "dc")],
            Some(&having),
        );
        // Only groups with >1 distinct amt: (1,a) has 10,40.
        assert_eq!(g.num_rows(), 2);
    }

    #[test]
    fn global_aggregate_empty_keys() {
        let g = group_by(&t(), &[], &[AggSpec::new(AggFunc::Sum, "amt", "s")], None);
        assert_eq!(g.num_rows(), 1);
        assert_eq!(g.column_req("s").as_f64(), &[120.0]);
    }

    #[test]
    fn empty_input_empty_output() {
        let e = Table::empty(Schema::new(&[("store", DataType::I64), ("amt", DataType::F64)]));
        let g = group_by(&e, &["store"], &[AggSpec::count("n")], None);
        assert_eq!(g.num_rows(), 0);
        let g2 = group_by(&e, &[], &[AggSpec::count("n")], None);
        assert_eq!(g2.num_rows(), 0, "grouped aggregate over empty input");
    }

    #[test]
    #[should_panic(expected = "float column")]
    fn float_group_key_rejected() {
        group_by(&t(), &["amt"], &[AggSpec::count("n")], None);
    }

    #[test]
    fn matches_reference_across_agg_set() {
        use crate::reference::group_by_reference;
        let specs = [
            AggSpec::count("n"),
            AggSpec::new(AggFunc::CountDistinct, "cust", "dc"),
            AggSpec::new(AggFunc::Sum, "amt", "s"),
            AggSpec::new(AggFunc::Avg, "amt", "a"),
            AggSpec::new(AggFunc::Min, "amt", "lo"),
            AggSpec::new(AggFunc::Max, "amt", "hi"),
        ];
        for keys in [&["store"][..], &["cust"][..], &["store", "cust"][..], &[][..]] {
            assert_eq!(
                group_by(&t(), keys, &specs, None),
                group_by_reference(&t(), keys, &specs, None),
                "keys={keys:?}"
            );
        }
    }
}
