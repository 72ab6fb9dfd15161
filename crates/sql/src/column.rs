//! Typed columns: the storage unit of the engine.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A typed column of values. Every variant holds a shared, immutable
/// [`Buf`], so cloning, slicing and projecting a column cost O(1) and never
/// copy its rows. No null support — the synthetic generator emits complete
/// data, and TPC-DS predicates used by the four queries never test for NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers (all key and date columns).
    I64(Buf<i64>),
    /// 64-bit floats (measures: prices, profits, amounts).
    F64(Buf<f64>),
    /// UTF-8 strings (dimension attributes: states, county names).
    Str(Buf<String>),
}

/// A shared, immutable run of values: an `Arc`'d vector plus the row range
/// this view covers, dereferencing to `&[T]` — the shape of the `bytes`
/// shim's `Bytes`. [`Buf::from`] wraps a vector without copying it, and
/// clones and slices share that one allocation.
#[derive(Clone)]
pub struct Buf<T> {
    data: Arc<Vec<T>>,
    start: usize,
    end: usize,
}

impl<T> Buf<T> {
    /// The rows `start .. start + len` of this view, sharing its allocation.
    pub(crate) fn slice(&self, start: usize, len: usize) -> Buf<T> {
        assert!(start + len <= self.len(), "slice {start}+{len} out of {} rows", self.len());
        Buf {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + start + len,
        }
    }
}

impl<T> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        let end = v.len();
        Buf {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl<T> FromIterator<T> for Buf<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Buf::from(iter.into_iter().collect::<Vec<T>>())
    }
}

impl<T> Deref for Buf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data[self.start..self.end]
    }
}

impl<'a, T> IntoIterator for &'a Buf<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Buf<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Buf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The type tag of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataType::I64 => "i64",
            DataType::F64 => "f64",
            DataType::Str => "str",
        })
    }
}

/// A single value (for predicates and scalar results).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer value.
    I64(i64),
    /// Float value.
    F64(f64),
    /// String value.
    Str(String),
}

impl Column {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// The column's type tag.
    pub(crate) fn dtype(&self) -> DataType {
        match self {
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::Str(_) => DataType::Str,
        }
    }

    /// The value at `row`.
    pub(crate) fn value(&self, row: usize) -> Value {
        match self {
            Column::I64(v) => Value::I64(v[row]),
            Column::F64(v) => Value::F64(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// The contiguous row range `start .. start + len`, sharing this
    /// column's buffer (O(1), no rows copied).
    pub(crate) fn slice(&self, start: usize, len: usize) -> Column {
        match self {
            Column::I64(v) => Column::I64(v.slice(start, len)),
            Column::F64(v) => Column::F64(v.slice(start, len)),
            Column::Str(v) => Column::Str(v.slice(start, len)),
        }
    }

    /// [`Column::hash_row`] for every row at once. Equal to
    /// `(0..len).map(|r| hash_row(r))` but hashes each *distinct* string
    /// only once by dictionary-encoding string columns first.
    pub(crate) fn hash_column(&self) -> Vec<u64> {
        match self {
            Column::I64(v) => v.iter().map(|&x| crate::hash::fnv1a_u64_le(x as u64)).collect(),
            Column::F64(v) => {
                v.iter().map(|x| crate::hash::fnv1a_u64_le(x.to_bits())).collect()
            }
            Column::Str(v) => {
                let (dict, codes) = crate::dict::StrDict::encode_column(v);
                let by_code: Vec<u64> = dict
                    .entries()
                    .iter()
                    .map(|s| crate::hash::fnv1a_bytes(s.as_bytes()))
                    .collect();
                codes.iter().map(|&c| by_code[c as usize]).collect()
            }
        }
    }

    /// Gather the given row indices into a new column.
    pub(crate) fn take(&self, idx: &[usize]) -> Column {
        match self {
            Column::I64(v) => Column::I64(idx.iter().map(|&i| v[i]).collect()),
            Column::F64(v) => Column::F64(idx.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(idx.iter().map(|&i| v[i].clone()).collect()),
        }
    }

    /// Keep rows where `mask` is `true` (lengths must match).
    pub(crate) fn filter(&self, mask: &[bool]) -> Column {
        assert_eq!(mask.len(), self.len(), "mask length mismatch");
        match self {
            Column::I64(v) => Column::I64(
                v.iter().zip(mask).filter(|&(_, &m)| m).map(|(x, _)| *x).collect(),
            ),
            Column::F64(v) => Column::F64(
                v.iter().zip(mask).filter(|&(_, &m)| m).map(|(x, _)| *x).collect(),
            ),
            Column::Str(v) => Column::Str(
                v.iter()
                    .zip(mask)
                    .filter(|&(_, &m)| m)
                    .map(|(x, _)| x.clone())
                    .collect(),
            ),
        }
    }

    /// Append another column of the same type into a new buffer, so a
    /// buffer another column shares is never changed.
    pub(crate) fn extend(&mut self, other: &Column) {
        assert_eq!(self.dtype(), other.dtype(), "type mismatch in extend");
        *self = Column::concat([&*self, other].into_iter());
    }

    /// Concatenate same-typed columns into one new column, allocated once
    /// at the total row count.
    ///
    /// # Panics
    /// Panics on an empty `parts` or on mixed types.
    pub(crate) fn concat<'a>(parts: impl Iterator<Item = &'a Column> + Clone) -> Column {
        fn join<'a, T: Clone + 'a>(parts: impl Iterator<Item = &'a [T]> + Clone) -> Buf<T> {
            let mut v = Vec::with_capacity(parts.clone().map(<[T]>::len).sum());
            for p in parts {
                v.extend_from_slice(p);
            }
            v.into()
        }
        let first = parts.clone().next().expect("concat of no columns");
        match first {
            Column::I64(_) => Column::I64(join(parts.map(Column::as_i64))),
            Column::F64(_) => Column::F64(join(parts.map(Column::as_f64))),
            Column::Str(_) => Column::Str(join(parts.map(Column::as_str))),
        }
    }

    /// The integer data, or panic with the column's real type.
    pub fn as_i64(&self) -> &[i64] {
        match self {
            Column::I64(v) => v,
            other => panic!("expected i64 column, got {}", other.dtype()),
        }
    }

    /// The float data, or panic.
    pub fn as_f64(&self) -> &[f64] {
        match self {
            Column::F64(v) => v,
            other => panic!("expected f64 column, got {}", other.dtype()),
        }
    }

    /// The string data, or panic.
    pub(crate) fn as_str(&self) -> &[String] {
        match self {
            Column::Str(v) => v,
            other => panic!("expected str column, got {}", other.dtype()),
        }
    }

    /// A stable 64-bit hash of the value at `row` (for hash partitioning
    /// and hash joins). FNV-1a over the canonical byte encoding —
    /// deterministic across runs and platforms.
    pub(crate) fn hash_row(&self, row: usize) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        match self {
            Column::I64(v) => eat(&v[row].to_le_bytes()),
            Column::F64(v) => eat(&v[row].to_bits().to_le_bytes()),
            Column::Str(v) => eat(v[row].as_bytes()),
        }
        h
    }

    /// Approximate in-memory byte size.
    pub(crate) fn byte_size(&self) -> u64 {
        match self {
            Column::I64(v) => (v.len() * 8) as u64,
            Column::F64(v) => (v.len() * 8) as u64,
            Column::Str(v) => v.iter().map(|s| s.len() as u64 + 8).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let c = Column::I64(vec![1, 2, 3].into());
        assert_eq!(c.len(), 3);
        assert_eq!(c.dtype(), DataType::I64);
        assert_eq!(c.value(1), Value::I64(2));
        assert_eq!(c.as_i64(), &[1, 2, 3]);
        assert_eq!(c.byte_size(), 24);
    }

    #[test]
    fn take_and_filter() {
        let c = Column::Str(vec!["a".into(), "b".into(), "c".into()].into());
        assert_eq!(c.take(&[2, 0]), Column::Str(vec!["c".into(), "a".into()].into()));
        assert_eq!(
            c.filter(&[true, false, true]),
            Column::Str(vec!["a".into(), "c".into()].into())
        );
    }

    #[test]
    fn extend_same_type() {
        let mut a = Column::F64(vec![1.0].into());
        a.extend(&Column::F64(vec![2.0, 3.0].into()));
        assert_eq!(a.as_f64(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn extend_type_mismatch_panics() {
        let mut a = Column::F64(vec![1.0].into());
        a.extend(&Column::I64(vec![2].into()));
    }

    #[test]
    #[should_panic(expected = "expected i64")]
    fn wrong_accessor_panics() {
        Column::F64(vec![1.0].into()).as_i64();
    }

    #[test]
    fn hash_stable_and_discriminating() {
        let c = Column::I64(vec![7, 7, 8].into());
        assert_eq!(c.hash_row(0), c.hash_row(1));
        assert_ne!(c.hash_row(0), c.hash_row(2));
        let s = Column::Str(vec!["x".into(), "y".into()].into());
        assert_ne!(s.hash_row(0), s.hash_row(1));
    }

    #[test]
    fn slice_shares_the_buffer() {
        let c = Column::I64(vec![1, 2, 3, 4].into());
        let mid = c.slice(1, 2);
        assert_eq!(mid, Column::I64(vec![2, 3].into()));
        assert_eq!(c.slice(4, 0), Column::I64(vec![].into()));
        assert_eq!(mid.slice(1, 1), Column::I64(vec![3].into()));
        // Same memory, not a copy.
        assert!(std::ptr::eq(&c.as_i64()[1], &mid.as_i64()[0]));
        let s = Column::Str(vec!["a".into(), "b".into(), "c".into()].into());
        assert_eq!(s.slice(0, 2), Column::Str(vec!["a".into(), "b".into()].into()));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_past_the_end_panics() {
        Column::I64(vec![1, 2].into()).slice(1, 2);
    }

    #[test]
    fn extend_copies_on_write() {
        let base = Column::I64(vec![1, 2, 3, 4].into());
        let mut head = base.slice(0, 2);
        head.extend(&Column::I64(vec![9].into()));
        assert_eq!(head.as_i64(), &[1, 2, 9]);
        assert_eq!(base.as_i64(), &[1, 2, 3, 4]);
        let mut own = Column::I64(vec![1].into());
        own.extend(&Column::I64(vec![2].into()));
        own.extend(&base.slice(3, 1));
        assert_eq!(own.as_i64(), &[1, 2, 4]);
    }

    #[test]
    fn concat_builds_one_column() {
        let a = Column::Str(vec!["x".into()].into());
        let b = Column::Str(vec!["y".into(), "z".into()].into());
        let c = Column::concat([&a, &b.slice(1, 1), &b].into_iter());
        assert_eq!(c.as_str(), &["x", "z", "y", "z"]);
    }

    #[test]
    fn hash_column_matches_hash_row() {
        let cols = [
            Column::I64(vec![7, -1, 7, i64::MIN].into()),
            Column::F64(vec![0.0, -0.0, 3.5].into()),
            Column::Str(vec!["x".into(), "".into(), "x".into(), "yy".into()].into()),
        ];
        for c in &cols {
            let bulk = c.hash_column();
            for (row, &h) in bulk.iter().enumerate() {
                assert_eq!(h, c.hash_row(row));
            }
        }
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn filter_length_mismatch() {
        Column::I64(vec![1, 2].into()).filter(&[true]);
    }
}
