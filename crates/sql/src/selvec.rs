//! Selection vectors: deferred row selection for filter/project chains.
//!
//! A [`SelVec`] names the surviving rows of a table without materializing
//! them. Predicate evaluation produces a `SelVec` from a boolean mask;
//! gathering through it builds the output columns in one pass, with the
//! all-rows and contiguous-run cases degrading to O(1) shared slices of
//! the input's buffers instead of per-element index chasing.

use crate::column::{Buf, Column};
use crate::table::{Field, Schema, Table};

/// A set of selected row indices, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelVec {
    /// The contiguous run `start .. start + len` (covers "all rows" and
    /// prefix/suffix selections without storing indices).
    Range {
        /// First selected row.
        start: usize,
        /// Number of selected rows.
        len: usize,
    },
    /// Explicit ascending row indices.
    Rows(Vec<u32>),
}

impl SelVec {
    /// Select every row of an `n`-row table.
    pub(crate) fn all(n: usize) -> SelVec {
        SelVec::Range { start: 0, len: n }
    }

    /// The rows where `mask` is `true`. Detects contiguous selections
    /// (including all-true and all-false) and represents them as a
    /// [`SelVec::Range`] so gathering stays a shared slice.
    pub(crate) fn from_mask(mask: &[bool]) -> SelVec {
        let n = mask.iter().filter(|&&m| m).count();
        let first = mask.iter().position(|&m| m).unwrap_or(0);
        // Contiguous iff the n selected rows start at `first` and run
        // without a gap.
        if mask[first..].iter().take(n).all(|&m| m) {
            return SelVec::Range { start: first, len: n };
        }
        let mut rows = Vec::with_capacity(n);
        for (i, &m) in mask.iter().enumerate() {
            if m {
                rows.push(i as u32);
            }
        }
        SelVec::Rows(rows)
    }
}

impl Column {
    /// Gather the selected rows into a new column. Contiguous selections
    /// are a [`Column::slice`] sharing this column's buffer.
    pub(crate) fn gather(&self, sel: &SelVec) -> Column {
        match sel {
            SelVec::Range { start, len } => self.slice(*start, *len),
            SelVec::Rows(rows) => {
                // Index a plain slice, not the shared buffer, so its range
                // is resolved once per column rather than once per row.
                fn pick<T: Clone>(v: &[T], rows: &[u32]) -> Buf<T> {
                    rows.iter().map(|&i| v[i as usize].clone()).collect()
                }
                match self {
                    Column::I64(v) => Column::I64(pick(v, rows)),
                    Column::F64(v) => Column::F64(pick(v, rows)),
                    Column::Str(v) => Column::Str(pick(v, rows)),
                }
            }
        }
    }
}

impl Table {
    /// Gather the selected rows of every column.
    pub fn gather(&self, sel: &SelVec) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(sel)).collect(),
        }
    }

    /// Gather the selected rows of the named columns only — a fused
    /// filter+project that never materializes the unprojected filtered
    /// table.
    ///
    /// # Panics
    /// Panics like [`Table::project`] when a name is missing.
    pub(crate) fn gather_project(&self, sel: &SelVec, names: &[&str]) -> Table {
        let mut fields = Vec::with_capacity(names.len());
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let i = self
                .schema
                .index_of(n)
                .unwrap_or_else(|| panic!("no column {n:?} to project"));
            fields.push(Field {
                name: self.schema.fields[i].name.clone(),
                dtype: self.schema.fields[i].dtype,
            });
            cols.push(self.columns[i].gather(sel));
        }
        Table::new(Schema { fields }, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;

    fn t() -> Table {
        Table::new(
            Schema::new(&[("k", DataType::I64), ("s", DataType::Str)]),
            vec![
                Column::I64(vec![1, 2, 3, 4, 5].into()),
                Column::Str(vec![
                    "a".into(),
                    "b".into(),
                    "c".into(),
                    "d".into(),
                    "e".into(),
                ].into()),
            ],
        )
    }

    #[test]
    fn from_mask_detects_ranges() {
        assert_eq!(
            SelVec::from_mask(&[true, true, true]),
            SelVec::Range { start: 0, len: 3 }
        );
        assert_eq!(
            SelVec::from_mask(&[false, true, true, false]),
            SelVec::Range { start: 1, len: 2 }
        );
        assert_eq!(
            SelVec::from_mask(&[false, false]),
            SelVec::Range { start: 0, len: 0 }
        );
        assert_eq!(
            SelVec::from_mask(&[true, false, true]),
            SelVec::Rows(vec![0, 2])
        );
        assert_eq!(SelVec::from_mask(&[]), SelVec::Range { start: 0, len: 0 });
    }

    #[test]
    fn gather_equals_filter() {
        let t = t();
        for mask in [
            vec![true, false, true, false, true],
            vec![false; 5],
            vec![true; 5],
            vec![false, true, true, true, false],
        ] {
            let sel = SelVec::from_mask(&mask);
            assert_eq!(t.gather(&sel), t.filter(&mask));
        }
    }

    #[test]
    fn gather_project_fuses() {
        let t = t();
        let mask = vec![true, false, false, true, true];
        let sel = SelVec::from_mask(&mask);
        let fused = t.gather_project(&sel, &["s"]);
        let two_step = t.filter(&mask).project(&["s"]);
        assert_eq!(fused, two_step);
    }

    #[test]
    #[should_panic(expected = "to project")]
    fn gather_project_missing_column_panics() {
        t().gather_project(&SelVec::all(5), &["zzz"]);
    }

    #[test]
    fn selvec_len() {
    }
}
