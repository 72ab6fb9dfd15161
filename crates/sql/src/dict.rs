//! Dictionary encoding for string columns.
//!
//! A [`StrDict`] maps each distinct string of a column to a dense `u32`
//! code in **first-appearance order**. Codes are what the vectorized
//! kernels operate on: joins and group-bys compare codes instead of string
//! bytes, the shuffle partitioner hashes each distinct string once instead
//! of once per row, and the wire codec ships `(dictionary, codes)` instead
//! of repeating every cell.
//!
//! The dictionary borrows the column's strings (`&'a str`) — encoding a
//! column never clones a `String`. Internally the distinct strings are
//! also packed into a small byte arena so the per-row probe compares
//! against contiguous, cache-resident bytes instead of chasing pointers
//! back into the (much larger) column heap.

use crate::hash::fx_str;

/// A borrowed string → dense `u32` code dictionary (see module docs).
pub(crate) struct StrDict<'a> {
    /// Distinct strings in first-appearance order; index = code.
    entries: Vec<&'a str>,
    /// The same distinct strings, concatenated — the compare target.
    arena: Vec<u8>,
    /// `arena` offsets; entry `c` is `arena[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Open-addressing slot array: `code + 1`, `0` = empty.
    slots: Vec<u32>,
    mask: u64,
}

impl<'a> StrDict<'a> {
    /// An empty dictionary with room for roughly `distinct_hint` entries
    /// before the first rehash. The slot table starts small and doubles
    /// on load — a low-cardinality column (the common dimension-value
    /// shape) keeps its whole table in L1 instead of paying a cache miss
    /// per row on a worst-case-sized array.
    pub(crate) fn with_capacity(distinct_hint: usize) -> StrDict<'a> {
        let cap = (distinct_hint.clamp(4, 512) * 2).next_power_of_two();
        StrDict {
            entries: Vec::new(),
            arena: Vec::new(),
            offsets: vec![0],
            slots: vec![0u32; cap],
            mask: (cap - 1) as u64,
        }
    }

    /// Dictionary-encode a whole column: returns the dictionary plus one
    /// code per input row.
    pub(crate) fn encode_column(values: &'a [String]) -> (StrDict<'a>, Vec<u32>) {
        let mut dict = StrDict::with_capacity(values.len());
        let codes = values.iter().map(|s| dict.intern(s)).collect();
        (dict, codes)
    }

    /// Double the slot table and re-seat every entry (codes are stable —
    /// only slot positions move).
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        self.mask = (cap - 1) as u64;
        self.slots.clear();
        self.slots.resize(cap, 0);
        for (code, s) in self.entries.iter().enumerate() {
            let mut i = fx_str(s) & self.mask;
            while self.slots[i as usize] != 0 {
                i = (i + 1) & self.mask;
            }
            self.slots[i as usize] = code as u32 + 1;
        }
    }

    /// Entry `code`'s bytes in the arena.
    #[inline]
    fn arena_bytes(&self, code: u32) -> &[u8] {
        &self.arena[self.offsets[code as usize] as usize..self.offsets[code as usize + 1] as usize]
    }

    /// The code for `s`, interning it when unseen.
    pub(crate) fn intern(&mut self, s: &'a str) -> u32 {
        // Keep load factor under 1/2 so probe chains stay short.
        if (self.entries.len() as u64 + 1) * 2 > self.mask {
            self.grow();
        }
        let mut i = fx_str(s) & self.mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == 0 {
                let code = self.entries.len() as u32;
                self.entries.push(s);
                self.arena.extend_from_slice(s.as_bytes());
                self.offsets.push(self.arena.len() as u32);
                self.slots[i as usize] = code + 1;
                return code;
            }
            let code = slot - 1;
            if self.arena_bytes(code) == s.as_bytes() {
                return code;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The code for `s`, or `None` when it was never interned (a probe
    /// string with no build-side match).
    pub(crate) fn lookup(&self, s: &str) -> Option<u32> {
        let mut i = fx_str(s) & self.mask;
        loop {
            let slot = self.slots[i as usize];
            if slot == 0 {
                return None;
            }
            let code = slot - 1;
            if self.arena_bytes(code) == s.as_bytes() {
                return Some(code);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The string for `code`.
    pub(crate) fn get(&self, code: u32) -> &'a str {
        self.entries[code as usize]
    }

    /// The distinct strings, in first-appearance (= code) order.
    pub(crate) fn entries(&self) -> &[&'a str] {
        &self.entries
    }

    /// Number of distinct strings.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Vec<String> {
        vals.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn codes_are_first_appearance_order() {
        let v = col(&["tn", "ca", "tn", "ny", "ca"]);
        let (dict, codes) = StrDict::encode_column(&v);
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
        assert_eq!(dict.entries(), &["tn", "ca", "ny"]);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn lookup_hits_and_misses() {
        let v = col(&["a", "b"]);
        let (dict, _) = StrDict::encode_column(&v);
        assert_eq!(dict.lookup("a"), Some(0));
        assert_eq!(dict.lookup("b"), Some(1));
        assert_eq!(dict.lookup("c"), None);
        assert_eq!(dict.get(1), "b");
    }

    #[test]
    fn empty_column() {
        let v: Vec<String> = Vec::new();
        let (dict, codes) = StrDict::encode_column(&v);
        assert_eq!(dict.len(), 0);
        assert!(codes.is_empty());
        assert_eq!(dict.lookup("x"), None);
    }

    #[test]
    fn empty_string_is_a_normal_entry() {
        let v = col(&["", "x", ""]);
        let (dict, codes) = StrDict::encode_column(&v);
        assert_eq!(codes, vec![0, 1, 0]);
        assert_eq!(dict.get(0), "");
    }

    #[test]
    fn many_distinct_strings() {
        let v: Vec<String> = (0..1000).map(|i| format!("s{i}")).collect();
        let (dict, codes) = StrDict::encode_column(&v);
        assert_eq!(dict.len(), 1000);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(dict.get(c), v[i]);
        }
    }

    /// Growth across many rehashes keeps codes stable and lookups exact.
    #[test]
    fn growth_preserves_codes() {
        let v: Vec<String> = (0..10_000).map(|i| format!("value-{i:05}")).collect();
        let mut dict = StrDict::with_capacity(4);
        let codes: Vec<u32> = v.iter().map(|s| dict.intern(s)).collect();
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(c as usize, i);
            assert_eq!(dict.lookup(&v[i]), Some(c));
        }
    }
}
