//! Deterministic hashing primitives for the vectorized kernels.
//!
//! Two hash families live here, with very different contracts:
//!
//! * **FNV-1a** ([`fnv1a_bytes`], [`fnv1a_u64_le`]) — byte-compatible with
//!   [`crate::column::Column::hash_row`]. This hash is *visible in output*:
//!   it decides which shuffle bucket a row lands in, so it must stay stable
//!   across runs, platforms and refactors.
//! * **fx-style mixing** ([`fx_u64`], [`fx_str`]) — a fast multiply-rotate
//!   mixer used only *inside* hash tables whose layout never leaks into
//!   results (join build sides, group-id assignment, distinct sets). It is
//!   still fully deterministic — no `RandomState`, no per-process seeds —
//!   just not part of the on-the-wire contract.
//!
//! The two table types, [`I64RowMap`] and [`TupleIdMap`], are open-addressing
//! tables over raw integers: no enum boxing, no per-row heap allocation, and
//! probe order is a pure function of the key bytes.

/// FNV-1a offset basis (matches [`crate::column::Column::hash_row`]).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime (matches [`crate::column::Column::hash_row`]).
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte slice — identical to what
/// [`crate::column::Column::hash_row`] computes for a string cell.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the little-endian bytes of one 64-bit word — identical to
/// what [`crate::column::Column::hash_row`] computes for an `i64` cell (pass
/// `x as u64`) or an `f64` cell (pass `x.to_bits()`).
pub(crate) fn fnv1a_u64_le(word: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Multiplier for the fx-style mixer (the golden-ratio-derived constant
/// used by rustc's FxHash).
const FX_K: u64 = 0x517cc1b727220a95;

/// Mix one 64-bit word into a running fx hash.
#[inline]
pub(crate) fn fx_mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_K)
}

/// Hash a single 64-bit word (internal hash tables only; see module docs).
#[inline]
pub(crate) fn fx_u64(word: u64) -> u64 {
    fx_mix(0, word)
}

/// Finalize a hash before it is masked into a slot index: full 64-bit
/// avalanche (murmur3's `fmix64`). The `fx_mix` multiply only propagates
/// entropy *upward*, so on structured keys whose differences sit in the
/// high bytes (`"cust-0001"`, `"cust-0002"`, … differ in LE-word bits
/// 40–63) the raw low bits — exactly the ones open-addressing tables index
/// with — cluster badly: ~16 probed slots per lookup instead of ~1.
#[inline]
pub(crate) fn fx_fold(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^ (h >> 33)
}

/// Hash a string by consuming 8-byte little-endian chunks (internal hash
/// tables only).
#[inline]
pub(crate) fn fx_str(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut h = fx_u64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = fx_mix(h, word);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = fx_mix(h, u64::from_le_bytes(word));
    }
    fx_fold(h)
}

/// Sentinel meaning "no row" in [`I64RowMap`] chains.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// An open-addressing map from `i64` join keys to the **ascending** list of
/// build-side rows carrying that key — the join build table, with no enum
/// boxing and no per-key `Vec`.
///
/// Rows with the same key are chained through a single flat `next` array
/// (one `u32` per build row); appending at the tail keeps each chain in
/// ascending row order, which is what makes the vectorized join's output
/// row order bit-identical to the row-at-a-time reference.
pub(crate) struct I64RowMap {
    /// Slot array: `entry index + 1`, `0` = empty. Power-of-two length.
    slots: Vec<u32>,
    mask: u64,
    /// Per-entry key.
    keys: Vec<i64>,
    /// Per-entry first row of the chain.
    heads: Vec<u32>,
    /// Per-entry last row of the chain (for O(1) tail append).
    tails: Vec<u32>,
    /// Per build row: the next row with the same key, or [`NO_ROW`].
    next: Vec<u32>,
}

impl I64RowMap {
    /// Build the map over every element of `keys` (row `i` has key
    /// `keys[i]`).
    ///
    /// # Panics
    /// Panics if `keys` has ≥ `u32::MAX` rows (rows are stored as `u32`).
    pub(crate) fn build(keys: &[i64]) -> I64RowMap {
        assert!(
            keys.len() < NO_ROW as usize,
            "build side too large for u32 row ids"
        );
        let cap = (keys.len().max(4) * 2).next_power_of_two();
        let mut m = I64RowMap {
            slots: vec![0u32; cap],
            mask: (cap - 1) as u64,
            keys: Vec::with_capacity(keys.len().min(1024)),
            heads: Vec::with_capacity(keys.len().min(1024)),
            tails: Vec::with_capacity(keys.len().min(1024)),
            next: vec![NO_ROW; keys.len()],
        };
        for (row, &k) in keys.iter().enumerate() {
            m.insert(k, row as u32);
        }
        m
    }

    fn insert(&mut self, key: i64, row: u32) {
        let mut i = fx_fold(fx_u64(key as u64)) & self.mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == 0 {
                let entry = self.keys.len() as u32;
                self.keys.push(key);
                self.heads.push(row);
                self.tails.push(row);
                self.slots[i as usize] = entry + 1;
                return;
            }
            let entry = (slot - 1) as usize;
            if self.keys[entry] == key {
                let tail = self.tails[entry];
                self.next[tail as usize] = row;
                self.tails[entry] = row;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn entry_of(&self, key: i64) -> Option<usize> {
        let mut i = fx_fold(fx_u64(key as u64)) & self.mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == 0 {
                return None;
            }
            let entry = (slot - 1) as usize;
            if self.keys[entry] == key {
                return Some(entry);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// `true` when at least one build row carries `key`.
    pub(crate) fn contains(&self, key: i64) -> bool {
        self.entry_of(key).is_some()
    }

    /// Iterate the build rows carrying `key`, in ascending row order.
    pub(crate) fn rows(&self, key: i64) -> RowChain<'_> {
        RowChain {
            next: &self.next,
            cur: self.entry_of(key).map_or(NO_ROW, |e| self.heads[e]),
        }
    }
}

/// Iterator over one key's build rows (see [`I64RowMap::rows`]).
pub(crate) struct RowChain<'a> {
    next: &'a [u32],
    cur: u32,
}

impl Iterator for RowChain<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.cur == NO_ROW {
            return None;
        }
        let row = self.cur;
        self.cur = self.next[row as usize];
        Some(row)
    }
}

/// An open-addressing map from fixed-width `u64` tuples to dense `u32` ids
/// assigned in first-insertion order — the group-id assigner for group-by
/// and the seen-set for distinct / count-distinct.
///
/// Tuples are compared exactly (full word compare on probe), so two
/// distinct keys can never be conflated by a hash collision. Tuple words
/// live in one flat arena; no per-row allocation.
pub(crate) struct TupleIdMap {
    stride: usize,
    /// Slot array: `id + 1`, `0` = empty. Power-of-two length.
    slots: Vec<u32>,
    mask: u64,
    /// Per-id tuple words, `stride` consecutive entries each.
    data: Vec<u64>,
}

impl TupleIdMap {
    /// A map for `stride`-word tuples, sized for at most `max_inserts`
    /// distinct tuples (callers bound this by their row count).
    pub(crate) fn with_capacity(stride: usize, max_inserts: usize) -> TupleIdMap {
        let cap = (max_inserts.max(4) * 2).next_power_of_two();
        TupleIdMap {
            stride,
            slots: vec![0u32; cap],
            mask: (cap - 1) as u64,
            data: Vec::new(),
        }
    }

    fn hash_tuple(&self, tuple: &[u64]) -> u64 {
        let mut h = 0x9e3779b97f4a7c15;
        for &w in tuple {
            h = fx_mix(h, w);
        }
        fx_fold(h)
    }

    /// Look up `tuple`, inserting it with the next dense id when absent.
    /// Returns `(id, was_new)`.
    ///
    /// # Panics
    /// Panics if `tuple.len() != stride` or the capacity given at
    /// construction is exceeded.
    pub(crate) fn insert_or_get(&mut self, tuple: &[u64]) -> (u32, bool) {
        assert_eq!(tuple.len(), self.stride, "tuple width mismatch");
        let mut i = self.hash_tuple(tuple) & self.mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == 0 {
                let id = self.len() as u32;
                assert!(
                    (id as u64) < self.mask,
                    "TupleIdMap capacity exceeded"
                );
                self.data.extend_from_slice(tuple);
                self.slots[i as usize] = id + 1;
                return (id, true);
            }
            let id = slot - 1;
            let start = id as usize * self.stride;
            if &self.data[start..start + self.stride] == tuple {
                return (id, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Number of distinct tuples inserted so far.
    pub(crate) fn len(&self) -> usize {
        match self.data.len().checked_div(self.stride) {
            Some(n) => n,
            // Zero-width tuples: at most one distinct value exists; len is
            // tracked through the slot for the empty tuple.
            None => usize::from(self.slots.iter().any(|&s| s != 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn fnv_matches_hash_row() {
        let c = Column::I64(vec![42, -7, i64::MAX].into());
        for row in 0..3 {
            assert_eq!(fnv1a_u64_le(c.as_i64()[row] as u64), c.hash_row(row));
        }
        let f = Column::F64(vec![1.5, -0.0, f64::NAN].into());
        for row in 0..3 {
            assert_eq!(fnv1a_u64_le(f.as_f64()[row].to_bits()), f.hash_row(row));
        }
        let s = Column::Str(vec!["".into(), "tn".into(), "αβγ".into()].into());
        for row in 0..3 {
            assert_eq!(fnv1a_bytes(s.as_str()[row].as_bytes()), s.hash_row(row));
        }
    }

    #[test]
    fn fx_str_discriminates_and_is_stable() {
        assert_eq!(fx_str("abc"), fx_str("abc"));
        assert_ne!(fx_str("abc"), fx_str("abd"));
        assert_ne!(fx_str(""), fx_str("\0"));
        // Longer than one chunk.
        assert_ne!(fx_str("abcdefghij"), fx_str("abcdefghik"));
    }

    #[test]
    fn row_map_chains_ascending() {
        let m = I64RowMap::build(&[5, 3, 5, 5, 3]);
        assert_eq!(m.keys.len(), 2);
        assert_eq!(m.rows(5).collect::<Vec<_>>(), vec![0, 2, 3]);
        assert_eq!(m.rows(3).collect::<Vec<_>>(), vec![1, 4]);
        assert!(m.rows(9).next().is_none());
        assert!(m.contains(3) && !m.contains(4));
    }

    #[test]
    fn row_map_empty() {
        let m = I64RowMap::build(&[]);
        assert!(m.keys.is_empty());
        assert!(!m.contains(0));
        assert!(m.rows(0).next().is_none());
    }

    #[test]
    fn tuple_map_assigns_first_appearance_ids() {
        let mut m = TupleIdMap::with_capacity(2, 8);
        assert_eq!(m.insert_or_get(&[1, 2]), (0, true));
        assert_eq!(m.insert_or_get(&[2, 1]), (1, true));
        assert_eq!(m.insert_or_get(&[1, 2]), (0, false));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn tuple_map_zero_stride_is_single_group() {
        let mut m = TupleIdMap::with_capacity(0, 8);
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert_or_get(&[]), (0, true));
        assert_eq!(m.insert_or_get(&[]), (0, false));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn tuple_map_exact_compare_beats_collisions() {
        // Many tuples; every distinct tuple must get a distinct id.
        let mut m = TupleIdMap::with_capacity(1, 4096);
        for i in 0..4096u64 {
            let (id, new) = m.insert_or_get(&[i]);
            assert!(new);
            assert_eq!(id as u64, i);
        }
        for i in 0..4096u64 {
            assert_eq!(m.insert_or_get(&[i]), (i as u32, false));
        }
    }
}
