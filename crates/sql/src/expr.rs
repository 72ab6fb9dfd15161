//! Row predicates: the filter language of the mini engine.
//!
//! Evaluation is vectorized: each predicate variant dispatches on the
//! column type once and runs a tight per-type loop over the typed slice —
//! no per-cell [`Value`] construction, no `String` clones. Semantics
//! (including panic messages and NaN ordering) match the retained
//! [`crate::reference::eval_reference`] exactly.

use crate::column::{Column, Value};
use crate::table::Table;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A predicate over one table's rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `column OP literal`.
    Cmp {
        /// Column name.
        col: String,
        /// Operator.
        op: CmpOp,
        /// Right-hand literal.
        value: Value,
    },
    /// `column IN (set)` over integer columns.
    InI64 {
        /// Column name.
        col: String,
        /// The accepted values.
        set: Vec<i64>,
    },
    /// `column IN (set)` over string columns.
    InStr {
        /// Column name.
        col: String,
        /// The accepted values.
        set: Vec<String>,
    },
    /// `left OP scale·right` between two numeric columns of the same table
    /// (Q1's `ctr_total > 1.2 × avg_return`).
    ColCmp {
        /// Left column name.
        left: String,
        /// Operator.
        op: CmpOp,
        /// Right column name.
        right: String,
        /// Multiplier applied to the right column.
        scale: f64,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Convenience: `col = value` for integers.
    pub fn eq_i64(col: &str, v: i64) -> Pred {
        Pred::Cmp {
            col: col.into(),
            op: CmpOp::Eq,
            value: Value::I64(v),
        }
    }

    /// Convenience: `col = value` for strings.
    pub fn eq_str(col: &str, v: &str) -> Pred {
        Pred::Cmp {
            col: col.into(),
            op: CmpOp::Eq,
            value: Value::Str(v.into()),
        }
    }

    /// Convenience: `lo <= col <= hi` for integers (date ranges).
    pub fn between_i64(col: &str, lo: i64, hi: i64) -> Pred {
        Pred::And(vec![
            Pred::Cmp {
                col: col.into(),
                op: CmpOp::Ge,
                value: Value::I64(lo),
            },
            Pred::Cmp {
                col: col.into(),
                op: CmpOp::Le,
                value: Value::I64(hi),
            },
        ])
    }

    /// Evaluate to a row mask over the table.
    pub fn eval(&self, t: &Table) -> Vec<bool> {
        use std::cmp::Ordering;
        let n = t.num_rows();
        match self {
            Pred::Cmp { col, op, value } => {
                let c = t.column_req(col);
                match (c, value) {
                    (Column::I64(v), Value::I64(b)) => {
                        v.iter().map(|x| cmp_ord(x.cmp(b), *op)).collect()
                    }
                    (Column::F64(v), Value::F64(b)) => v
                        .iter()
                        .map(|x| {
                            cmp_ord(x.partial_cmp(b).unwrap_or(Ordering::Equal), *op)
                        })
                        .collect(),
                    (Column::Str(v), Value::Str(b)) => v
                        .iter()
                        .map(|x| cmp_ord(x.as_str().cmp(b.as_str()), *op))
                        .collect(),
                    _ if n == 0 => Vec::new(),
                    _ => {
                        // Mismatched types: the reference panics on the
                        // first evaluated cell; reproduce its message.
                        panic!(
                            "type mismatch in comparison: {:?} vs {:?}",
                            c.value(0),
                            value
                        )
                    }
                }
            }
            Pred::InI64 { col, set } => {
                let mut s: Vec<i64> = set.clone();
                s.sort_unstable();
                s.dedup();
                let c = t.column_req(col).as_i64();
                c.iter().map(|v| s.binary_search(v).is_ok()).collect()
            }
            Pred::InStr { col, set } => {
                let mut s: Vec<&str> = set.iter().map(|x| x.as_str()).collect();
                s.sort_unstable();
                s.dedup();
                let c = t.column_req(col).as_str();
                c.iter()
                    .map(|v| s.binary_search(&v.as_str()).is_ok())
                    .collect()
            }
            Pred::ColCmp {
                left,
                op,
                right,
                scale,
            } => {
                let l = t.column_req(left);
                let r = t.column_req(right);
                if n == 0 {
                    return Vec::new();
                }
                let lv = NumView::of(l);
                let rv = NumView::of(r);
                (0..n)
                    .map(|row| {
                        let a = lv.get(row);
                        let b = rv.get(row) * scale;
                        cmp_ord(a.partial_cmp(&b).unwrap_or(Ordering::Equal), *op)
                    })
                    .collect()
            }
            Pred::And(ps) => {
                let mut mask = vec![true; n];
                for p in ps {
                    for (m, x) in mask.iter_mut().zip(p.eval(t)) {
                        *m = *m && x;
                    }
                }
                mask
            }
            Pred::Or(ps) => {
                let mut mask = vec![false; n];
                for p in ps {
                    for (m, x) in mask.iter_mut().zip(p.eval(t)) {
                        *m = *m || x;
                    }
                }
                mask
            }
            Pred::Not(p) => p.eval(t).into_iter().map(|b| !b).collect(),
        }
    }
}

/// A numeric read-only view over an i64 or f64 column.
enum NumView<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl<'a> NumView<'a> {
    /// View a column as numeric; panics like the reference's `numeric()`
    /// on string columns (callers only construct views for non-empty
    /// tables, matching its lazy per-row rejection).
    fn of(c: &'a Column) -> NumView<'a> {
        match c {
            Column::I64(v) => NumView::I(v),
            Column::F64(v) => NumView::F(v),
            Column::Str(v) => {
                panic!("numeric comparison over string value {:?}", v[0])
            }
        }
    }

    fn get(&self, row: usize) -> f64 {
        match self {
            NumView::I(v) => v[row] as f64,
            NumView::F(v) => v[row],
        }
    }
}

fn cmp_ord(ord: std::cmp::Ordering, op: CmpOp) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DataType};
    use crate::table::{Schema, Table};

    fn t() -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64), ("s", DataType::Str), ("x", DataType::F64)]),
            vec![
                Column::I64(vec![1, 2, 3, 4, 5].into()),
                Column::Str(
                    vec!["TN".into(), "CA".into(), "TN".into(), "NY".into(), "WA".into()].into(),
                ),
                Column::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0].into()),
            ],
        )
    }

    #[test]
    fn comparisons() {
        let t = t();
        assert_eq!(Pred::eq_i64("k", 3).eval(&t), vec![false, false, true, false, false]);
        assert_eq!(
            Pred::eq_str("s", "TN").eval(&t),
            vec![true, false, true, false, false]
        );
        let gt = Pred::Cmp {
            col: "x".into(),
            op: CmpOp::Gt,
            value: Value::F64(3.0),
        };
        assert_eq!(gt.eval(&t), vec![false, false, false, true, true]);
    }

    #[test]
    fn between_and_in() {
        let t = t();
        assert_eq!(
            Pred::between_i64("k", 2, 4).eval(&t),
            vec![false, true, true, true, false]
        );
        let ins = Pred::InI64 {
            col: "k".into(),
            set: vec![1, 5],
        };
        assert_eq!(ins.eval(&t), vec![true, false, false, false, true]);
        let instr = Pred::InStr {
            col: "s".into(),
            set: vec!["CA".into(), "NY".into()],
        };
        assert_eq!(instr.eval(&t), vec![false, true, false, true, false]);
    }

    #[test]
    fn boolean_combinators() {
        let t = t();
        let p = Pred::Or(vec![Pred::eq_i64("k", 1), Pred::eq_i64("k", 2)]);
        assert_eq!(p.eval(&t), vec![true, true, false, false, false]);
        let p = Pred::And(vec![Pred::eq_str("s", "TN"), Pred::eq_i64("k", 3)]);
        assert_eq!(p.eval(&t), vec![false, false, true, false, false]);
        let p = Pred::Not(Box::new(Pred::eq_str("s", "TN")));
        assert_eq!(p.eval(&t), vec![false, true, false, true, true]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        Pred::eq_i64("s", 1).eval(&t());
    }

    #[test]
    fn matches_reference_eval() {
        let t = t();
        let preds = [
            Pred::eq_i64("k", 3),
            Pred::eq_str("s", "TN"),
            Pred::between_i64("k", 2, 4),
            Pred::InI64 {
                col: "k".into(),
                set: vec![5, 1, 5],
            },
            Pred::InStr {
                col: "s".into(),
                set: vec!["NY".into(), "CA".into()],
            },
            Pred::ColCmp {
                left: "x".into(),
                op: CmpOp::Ge,
                right: "k".into(),
                scale: 0.5,
            },
            Pred::Not(Box::new(Pred::Or(vec![
                Pred::eq_i64("k", 1),
                Pred::eq_str("s", "WA"),
            ]))),
        ];
        for p in &preds {
            assert_eq!(p.eval(&t), crate::reference::eval_reference(p, &t), "{p:?}");
        }
        // Empty table: every predicate evaluates to an empty mask.
        let e = Table::new(
            Schema::new(&[("k", DataType::I64), ("s", DataType::Str), ("x", DataType::F64)]),
            vec![
                Column::I64(vec![].into()),
                Column::Str(vec![].into()),
                Column::F64(vec![].into()),
            ],
        );
        for p in &preds {
            assert_eq!(p.eval(&e), Vec::<bool>::new(), "{p:?}");
        }
    }

    #[test]
    fn col_cmp_with_scale() {
        let t = t();
        // x > 2.0 * (k as f64): rows where x > 2k → none (x == k exactly).
        let p = Pred::ColCmp {
            left: "x".into(),
            op: CmpOp::Gt,
            right: "k".into(),
            scale: 2.0,
        };
        assert_eq!(p.eval(&t), vec![false; 5]);
        let p = Pred::ColCmp {
            left: "x".into(),
            op: CmpOp::Ge,
            right: "k".into(),
            scale: 0.5,
        };
        assert_eq!(p.eval(&t), vec![true; 5]);
    }
}
