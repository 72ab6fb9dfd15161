//! Hash join: inner, left-semi and left-anti over single-column keys.
//!
//! Vectorized: `i64` keys go through a raw [`I64RowMap`] (open addressing,
//! `u32` row chains, no enum boxing); string keys are dictionary-encoded on
//! the build side so probes compare dense codes instead of cloning
//! `String`s into boxed keys. Output is bit-identical to
//! [`crate::reference::hash_join_reference`]: probe order follows the left
//! input, matches within a key follow ascending build-row order.

use crate::column::Column;
use crate::dict::StrDict;
use crate::hash::I64RowMap;
use crate::selvec::SelVec;
use crate::table::{Field, Schema, Table};

/// Join flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// All matching (left, right) row pairs; output carries both sides'
    /// columns (right-side name collisions get an `_r` suffix).
    Inner,
    /// Left rows with at least one match; left columns only (`EXISTS`).
    LeftSemi,
    /// Left rows with no match; left columns only (`NOT EXISTS`).
    LeftAnti,
}

/// Hash join `left ⋈ right` on `left_key = right_key`.
///
/// Builds the hash table on the right side, probes with the left, so row
/// order follows the left input (deterministic).
pub fn hash_join(
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
    assert!(
        left.num_rows() < u32::MAX as usize,
        "probe side too large for u32 row ids"
    );

    match (lcol, rcol) {
        (Column::I64(lk), Column::I64(rk)) => {
            let map = I64RowMap::build(rk);
            match kind {
                JoinKind::Inner => {
                    let mut lidx: Vec<u32> = Vec::new();
                    let mut ridx: Vec<u32> = Vec::new();
                    for (l, &k) in lk.iter().enumerate() {
                        for r in map.rows(k) {
                            lidx.push(l as u32);
                            ridx.push(r);
                        }
                    }
                    inner_output(left, right, lidx, ridx)
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    let want = kind == JoinKind::LeftSemi;
                    let mask: Vec<bool> =
                        lk.iter().map(|&k| map.contains(k) == want).collect();
                    left.gather(&SelVec::from_mask(&mask))
                }
            }
        }
        (Column::Str(ls), Column::Str(rs)) => {
            // Dictionary-encode the build side; chain codes like i64 keys.
            let mut dict = StrDict::with_capacity(rs.len());
            let rcodes: Vec<i64> = rs.iter().map(|s| dict.intern(s) as i64).collect();
            let map = I64RowMap::build(&rcodes);
            match kind {
                JoinKind::Inner => {
                    let mut lidx: Vec<u32> = Vec::new();
                    let mut ridx: Vec<u32> = Vec::new();
                    for (l, s) in ls.iter().enumerate() {
                        if let Some(code) = dict.lookup(s) {
                            for r in map.rows(code as i64) {
                                lidx.push(l as u32);
                                ridx.push(r);
                            }
                        }
                    }
                    inner_output(left, right, lidx, ridx)
                }
                JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    let want = kind == JoinKind::LeftSemi;
                    let mask: Vec<bool> = ls
                        .iter()
                        .map(|s| dict.lookup(s).is_some() == want)
                        .collect();
                    left.gather(&SelVec::from_mask(&mask))
                }
            }
        }
        // Float keys (or any other combination the dtype assert let
        // through). The reference rejects floats lazily, per evaluated
        // row, so fully empty inputs produce an empty join instead.
        _ => {
            if left.num_rows() > 0 || right.num_rows() > 0 {
                panic!("cannot join on a float column");
            }
            match kind {
                JoinKind::Inner => inner_output(left, right, Vec::new(), Vec::new()),
                JoinKind::LeftSemi | JoinKind::LeftAnti => {
                    left.gather(&SelVec::all(0))
                }
            }
        }
    }
}

/// Assemble an inner join's output from matched row-pair indices: gather
/// both sides, merge schemas, suffix right-side name collisions with `_r`.
fn inner_output(left: &Table, right: &Table, lidx: Vec<u32>, ridx: Vec<u32>) -> Table {
    let lpart = left.gather(&SelVec::Rows(lidx));
    let rpart = right.gather(&SelVec::Rows(ridx));
    let mut fields = lpart.schema.fields.clone();
    let mut cols = lpart.columns;
    for (f, c) in rpart.schema.fields.iter().zip(rpart.columns) {
        let name = if lpart.schema.index_of(&f.name).is_some() {
            format!("{}_r", f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field {
            name,
            dtype: f.dtype,
        });
        cols.push(c);
    }
    Table::new(Schema { fields }, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;

    fn left() -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64), ("lx", DataType::F64)]),
            vec![
                Column::I64(vec![1, 2, 2, 3].into()),
                Column::F64(vec![10.0, 20.0, 21.0, 30.0].into()),
            ],
        )
    }

    fn right() -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64), ("ry", DataType::Str)]),
            vec![
                Column::I64(vec![2, 3, 3, 5].into()),
                Column::Str(vec!["b".into(), "c1".into(), "c2".into(), "e".into()].into()),
            ],
        )
    }

    #[test]
    fn inner_join_pairs() {
        let j = hash_join(&left(), &right(), "k", "k", JoinKind::Inner);
        // k=2 matches 1 right row ×2 left rows; k=3 matches 2 right rows.
        assert_eq!(j.num_rows(), 4);
        // Right key column collided → suffixed.
        assert!(j.column("k_r").is_some());
        assert_eq!(j.column_req("k").as_i64(), &[2, 2, 3, 3]);
        assert_eq!(
            j.column_req("ry").as_str(),
            &["b".to_string(), "b".into(), "c1".into(), "c2".into()]
        );
    }

    #[test]
    fn semi_join_keeps_matching_left_rows_once() {
        let j = hash_join(&left(), &right(), "k", "k", JoinKind::LeftSemi);
        assert_eq!(j.column_req("k").as_i64(), &[2, 2, 3]);
        assert_eq!(j.num_columns(), 2, "left columns only");
    }

    #[test]
    fn anti_join_keeps_unmatched() {
        let j = hash_join(&left(), &right(), "k", "k", JoinKind::LeftAnti);
        assert_eq!(j.column_req("k").as_i64(), &[1]);
    }

    #[test]
    fn string_keys_work() {
        let l = Table::new(
            Schema::new(&[("s", DataType::Str)]),
            vec![Column::Str(vec!["x".into(), "y".into()].into())],
        );
        let r = Table::new(
            Schema::new(&[("s2", DataType::Str)]),
            vec![Column::Str(vec!["y".into()].into())],
        );
        let j = hash_join(&l, &r, "s", "s2", JoinKind::Inner);
        assert_eq!(j.num_rows(), 1);
        // No collision: right column keeps its name.
        assert!(j.column("s2").is_some());
    }

    #[test]
    fn empty_sides() {
        let e = Table::empty(Schema::new(&[("k", DataType::I64)]));
        assert_eq!(hash_join(&e, &right(), "k", "k", JoinKind::Inner).num_rows(), 0);
        assert_eq!(hash_join(&left(), &e, "k", "k", JoinKind::Inner).num_rows(), 0);
        assert_eq!(
            hash_join(&left(), &e, "k", "k", JoinKind::LeftAnti).num_rows(),
            4,
            "anti join against empty right keeps everything"
        );
    }

    #[test]
    #[should_panic(expected = "key types differ")]
    fn mismatched_key_types() {
        let r = Table::new(
            Schema::new(&[("k", DataType::Str)]),
            vec![Column::Str(vec!["1".into()].into())],
        );
        hash_join(&left(), &r, "k", "k", JoinKind::Inner);
    }

    #[test]
    #[should_panic(expected = "float column")]
    fn float_key_rejected() {
        // Both key columns are f64 so the type-equality check passes and
        // the float-key rejection fires.
        hash_join(&left(), &left(), "lx", "lx", JoinKind::Inner);
    }

    #[test]
    fn matches_reference_on_all_kinds_and_key_types() {
        use crate::reference::hash_join_reference;
        for kind in [JoinKind::Inner, JoinKind::LeftSemi, JoinKind::LeftAnti] {
            assert_eq!(
                hash_join(&left(), &right(), "k", "k", kind),
                hash_join_reference(&left(), &right(), "k", "k", kind),
                "{kind:?} i64"
            );
            // Flip sides: string key join via the ry column.
            let l = right();
            let r = Table::new(
                Schema::new(&[("ry", DataType::Str)]),
                vec![Column::Str(vec!["c1".into(), "b".into(), "b".into()].into())],
            );
            assert_eq!(
                hash_join(&l, &r, "ry", "ry", kind),
                hash_join_reference(&l, &r, "ry", "ry", kind),
                "{kind:?} str"
            );
        }
    }
}
