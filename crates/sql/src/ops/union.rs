//! Union: concatenate relations, optionally deduplicating (`UNION` vs
//! `UNION ALL`).

use crate::ops::sort::distinct;
use crate::table::Table;

/// `UNION ALL`: concatenate tables with identical schemas. Returns `None`
/// for an empty input list.
pub fn union_all(tables: &[Table]) -> Option<Table> {
    Table::concat(tables)
}

/// `UNION`: concatenate then keep distinct rows (over all columns), in
/// first-appearance order.
pub fn union(tables: &[Table]) -> Option<Table> {
    let all = Table::concat(tables)?;
    let cols: Vec<&str> = all.schema.fields.iter().map(|f| f.name.as_str()).collect();
    Some(distinct(&all, &cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, DataType};
    use crate::table::Schema;

    fn t(keys: &[i64]) -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64)]),
            vec![Column::I64(keys.to_vec().into())],
        )
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let u = union_all(&[t(&[1, 2]), t(&[2, 3])]).unwrap();
        assert_eq!(u.column_req("k").as_i64(), &[1, 2, 2, 3]);
    }

    #[test]
    fn union_dedupes() {
        let u = union(&[t(&[1, 2]), t(&[2, 3, 1])]).unwrap();
        assert_eq!(u.column_req("k").as_i64(), &[1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        assert!(union_all(&[]).is_none());
        assert!(union(&[]).is_none());
    }

    #[test]
    fn single_input_identity() {
        let u = union_all(&[t(&[5, 5])]).unwrap();
        assert_eq!(u.num_rows(), 2);
        let u = union(&[t(&[5, 5])]).unwrap();
        assert_eq!(u.num_rows(), 1);
    }
}
