//! Sort-limit (top-N) and distinct.

use crate::column::Column;
use crate::hash::TupleIdMap;
use crate::selvec::SelVec;
use crate::table::Table;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Smallest first.
    Asc,
    /// Largest first.
    Desc,
}

/// `ORDER BY col <order> LIMIT limit`. Stable: ties keep input order.
pub fn sort_limit(t: &Table, col: &str, order: SortOrder, limit: usize) -> Table {
    let c = t.column_req(col);
    let mut idx: Vec<u32> = (0..t.num_rows() as u32).collect();
    // Comparators read the typed slices directly — no per-row `Value`.
    match c {
        Column::I64(v) => idx.sort_by(|&a, &b| v[a as usize].cmp(&v[b as usize])),
        Column::F64(v) => idx.sort_by(|&a, &b| v[a as usize].total_cmp(&v[b as usize])),
        Column::Str(v) => idx.sort_by(|&a, &b| v[a as usize].cmp(&v[b as usize])),
    }
    if order == SortOrder::Desc {
        idx.reverse();
    }
    idx.truncate(limit);
    t.gather(&SelVec::Rows(idx))
}

/// `SELECT DISTINCT cols FROM t` — unique rows of the named columns, in
/// first-appearance order.
///
/// Rows are deduplicated on the tuple of per-column `Column::hash_row`
/// values (computed in bulk, one FNV per distinct string) through a
/// deterministic open-addressing set — no `std` `RandomState` anywhere.
pub fn distinct(t: &Table, cols: &[&str]) -> Table {
    let projected = t.project(cols);
    let hashes: Vec<Vec<u64>> = projected.columns.iter().map(|c| c.hash_column()).collect();
    let n = projected.num_rows();
    let stride = hashes.len();
    let mut seen = TupleIdMap::with_capacity(stride, n);
    let mut keep: Vec<u32> = Vec::new();
    let mut tuple: Vec<u64> = vec![0; stride];
    for row in 0..n {
        for (slot, h) in tuple.iter_mut().zip(&hashes) {
            *slot = h[row];
        }
        if seen.insert_or_get(&tuple).1 {
            keep.push(row as u32);
        }
    }
    projected.gather(&SelVec::Rows(keep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;
    use crate::table::Schema;

    fn t() -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64), ("x", DataType::F64)]),
            vec![
                Column::I64(vec![3, 1, 2, 1].into()),
                Column::F64(vec![30.0, 10.0, 20.0, 11.0].into()),
            ],
        )
    }

    #[test]
    fn sort_asc_desc() {
        let a = sort_limit(&t(), "k", SortOrder::Asc, 10);
        assert_eq!(a.column_req("k").as_i64(), &[1, 1, 2, 3]);
        // Stable: first 1 is x=10, second x=11.
        assert_eq!(a.column_req("x").as_f64()[0], 10.0);
        let d = sort_limit(&t(), "x", SortOrder::Desc, 2);
        assert_eq!(d.column_req("x").as_f64(), &[30.0, 20.0]);
    }

    #[test]
    fn limit_truncates() {
        let a = sort_limit(&t(), "k", SortOrder::Asc, 1);
        assert_eq!(a.num_rows(), 1);
        let all = sort_limit(&t(), "k", SortOrder::Asc, 100);
        assert_eq!(all.num_rows(), 4);
    }

    #[test]
    fn distinct_unique_rows() {
        let d = distinct(&t(), &["k"]);
        assert_eq!(d.column_req("k").as_i64(), &[3, 1, 2]);
        assert_eq!(d.num_columns(), 1);
    }

    #[test]
    fn distinct_multi_column() {
        let tab = Table::new(
            Schema::new(&[("a", DataType::I64), ("b", DataType::I64)]),
            vec![
                Column::I64(vec![1, 1, 2, 1].into()),
                Column::I64(vec![1, 2, 1, 1].into()),
            ],
        );
        let d = distinct(&tab, &["a", "b"]);
        assert_eq!(d.num_rows(), 3);
    }

    #[test]
    fn distinct_matches_reference() {
        let tab = Table::new(
            Schema::new(&[("a", DataType::I64), ("s", DataType::Str)]),
            vec![
                Column::I64(vec![1, 1, 2, 1, 2].into()),
                Column::Str(vec![
                    "x".into(),
                    "y".into(),
                    "x".into(),
                    "x".into(),
                    "x".into(),
                ].into()),
            ],
        );
        for cols in [&["a"][..], &["s"][..], &["a", "s"][..]] {
            assert_eq!(
                distinct(&tab, cols),
                crate::reference::distinct_reference(&tab, cols),
                "cols={cols:?}"
            );
        }
    }
}
