//! Minimal offline stand-in for the `bytes` crate: just the frame type.
//!
//! [`Bytes`] is a cheaply cloneable, reference-counted, immutable byte
//! buffer. Clones and slices share one allocation, preserving the
//! zero-copy property the object store relies on. Frames are built as a
//! plain `Vec<u8>` (little-endian fields via `to_le_bytes`) and wrapped
//! with [`Bytes::from`]; readers borrow the bytes as a `&[u8]`.

use std::sync::Arc;

/// Reference-counted immutable slice of bytes. Cloning is O(1) and shares
/// the underlying allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copy a static byte string into a new buffer.
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// A sub-slice sharing the same allocation.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes { data: Arc::new(v), start: 0, end }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(64) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 64 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_zero_copy() {
        let b = Bytes::from(vec![1u8; 64]);
        let c = b.clone();
        assert_eq!(b.as_ptr(), c.as_ptr());
    }
}
