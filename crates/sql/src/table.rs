//! Tables: named, typed column collections with partitioning and a codec.

use crate::column::{Column, DataType};
use bytes::Bytes;
use std::fmt;

/// A named, typed column slot in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub(crate) dtype: DataType,
}

/// An ordered list of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from `(name, dtype)` pairs.
    pub fn new(fields: &[(&str, DataType)]) -> Self {
        Schema {
            fields: fields
                .iter()
                .map(|&(n, t)| Field {
                    name: n.to_string(),
                    dtype: t,
                })
                .collect(),
        }
    }

    /// Index of a column by name.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Number of columns.
    pub(crate) fn len(&self) -> usize {
        self.fields.len()
    }
}

/// A columnar table. All columns have identical length.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Column names and types.
    pub schema: Schema,
    /// The column data, aligned with `schema.fields`.
    pub(crate) columns: Vec<Column>,
}

impl Table {
    /// Build a table; validates column count and lengths.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(schema.len(), columns.len(), "schema/column count mismatch");
        if let Some(first) = columns.first() {
            for (f, c) in schema.fields.iter().zip(&columns) {
                assert_eq!(
                    c.len(),
                    first.len(),
                    "column {} length differs",
                    f.name
                );
                assert_eq!(c.dtype(), f.dtype, "column {} type differs", f.name);
            }
        }
        Table { schema, columns }
    }

    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| match f.dtype {
                DataType::I64 => Column::I64(Vec::new().into()),
                DataType::F64 => Column::F64(Vec::new().into()),
                DataType::Str => Column::Str(Vec::new().into()),
            })
            .collect();
        Table { schema, columns }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub(crate) fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// A column by name.
    pub(crate) fn column(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// A column by name, panicking with a useful message when missing.
    pub fn column_req(&self, name: &str) -> &Column {
        self.column(name)
            .unwrap_or_else(|| panic!("no column {name:?} in schema {:?}", self.schema))
    }

    /// Keep only the named columns, in the given order.
    pub fn project(&self, names: &[&str]) -> Table {
        let mut fields = Vec::with_capacity(names.len());
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            let i = self
                .schema
                .index_of(n)
                .unwrap_or_else(|| panic!("no column {n:?} to project"));
            fields.push(self.schema.fields[i].clone());
            cols.push(self.columns[i].clone());
        }
        Table::new(Schema { fields }, cols)
    }

    /// Keep rows where `mask` is true.
    pub(crate) fn filter(&self, mask: &[bool]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        }
    }

    /// Gather the given rows.
    pub fn take(&self, idx: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(idx)).collect(),
        }
    }

    /// Append another table with an identical schema.
    pub fn extend(&mut self, other: &Table) {
        assert_eq!(self.schema, other.schema, "schema mismatch in extend");
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend(b);
        }
    }

    /// Concatenate tables with identical schemas (empty input → `None`).
    /// Each column is built once, at its exact row count — unless at most
    /// one part has rows: then that part (or the first) is returned as an
    /// O(columns) clone sharing its buffers, the common case of a Gather
    /// consumer, which receives one real part plus empty markers.
    pub fn concat(tables: &[Table]) -> Option<Table> {
        let (first, rest) = tables.split_first()?;
        for t in rest {
            assert_eq!(first.schema, t.schema, "schema mismatch in concat");
        }
        let mut filled = tables.iter().filter(|t| t.num_rows() > 0);
        if let (only, None) = (filled.next(), filled.next()) {
            return Some(only.unwrap_or(first).clone());
        }
        let columns = (0..first.num_columns())
            .map(|ci| Column::concat(tables.iter().map(|t| &t.columns[ci])))
            .collect();
        Some(Table {
            schema: first.schema.clone(),
            columns,
        })
    }

    /// Split into `n` contiguous row chunks of near-equal size (for scan
    /// parallelism). Later chunks may be one row smaller. Each chunk shares
    /// this table's buffers: O(columns), no rows copied.
    pub fn split(&self, n: usize) -> Vec<Table> {
        (0..n).map(|i| self.split_part(n, i)).collect()
    }

    /// Chunk `i` of [`Table::split`]`(n)`, cut on its own.
    pub fn split_part(&self, n: usize, i: usize) -> Table {
        assert!(i < n, "chunk {i} of {n}");
        let rows = self.num_rows();
        let (base, rem) = (rows / n, rows % n);
        self.gather(&crate::SelVec::Range {
            start: i * base + i.min(rem),
            len: base + usize::from(i < rem),
        })
    }

    /// The bucket each row lands in under `hash_row(key) % n` — the
    /// shuffle placement function [`Table::partition_rows`] routes by.
    /// [`Table::encode_partitions`] computes the same ids from its own
    /// dictionary pass, so both agree byte-for-byte.
    fn bucket_ids(&self, key: &str, n: usize) -> Vec<u32> {
        assert!(n > 0);
        let col = self.column_req(key);
        match col {
            // Hash each distinct string once; map through the codes.
            Column::Str(v) => {
                let (dict, codes) = crate::dict::StrDict::encode_column(v);
                let bucket_of: Vec<u32> = dict
                    .entries()
                    .iter()
                    .map(|s| (crate::hash::fnv1a_bytes(s.as_bytes()) % n as u64) as u32)
                    .collect();
                codes.iter().map(|&c| bucket_of[c as usize]).collect()
            }
            _ => col
                .hash_column()
                .iter()
                .map(|&h| (h % n as u64) as u32)
                .collect(),
        }
    }

    /// Hash-partition rows into `n` buckets by the named key column — the
    /// shuffle router: rows with equal keys land in the same bucket
    /// regardless of which task partitioned them. Returns each bucket's
    /// rows, in table order; [`Table::gather`] materializes a bucket, and
    /// `self.gather(&sel[i]).encode()` equals
    /// [`Table::encode_partitions`]`(key, n)[i].data`. A bucket holding no
    /// row or every row is a [`SelVec::Range`](crate::SelVec::Range), so
    /// gathering it shares this table's buffers.
    pub fn partition_rows(&self, key: &str, n: usize) -> Vec<crate::SelVec> {
        let ids = self.bucket_ids(key, n);
        let mut counts = vec![0usize; n];
        for &b in &ids {
            counts[b as usize] += 1;
        }
        let mut rows: Vec<Vec<u32>> = counts.iter().map(|&k| Vec::with_capacity(k)).collect();
        for (r, &b) in ids.iter().enumerate() {
            rows[b as usize].push(r as u32);
        }
        rows.into_iter()
            .map(|rows| match rows.len() {
                k if k == 0 || k == ids.len() => crate::SelVec::all(k),
                _ => crate::SelVec::Rows(rows),
            })
            .collect()
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    // ------------------------------------------------------------------
    // Binary codec: how intermediate tables travel between servers (a
    // consumer on its producer's server takes the `Table` itself).
    // Format: [ncols:u32] then per column: [name_len:u32][name][tag:u8]
    // [nrows:u64][data...], every integer little-endian.
    //
    //   tag 0  i64  — nrows words, written as one bulk byte run
    //   tag 1  f64  — nrows bit-patterns, bulk
    //   tag 3  str  — dictionary-encoded: [ndict:u32] then ndict
    //                 length-prefixed entries, then nrows u32 codes
    //
    // `encode` and `encode_partitions` write these three tags, and
    // `try_decode` is the one decoder. Tag 2, the retired v1 inline-string
    // layout, is an unknown tag: only the timing baseline
    // `reference::encode_reference` still writes it.
    // ------------------------------------------------------------------

    /// Serialize to the compact binary wire format (v2: bulk numerics,
    /// dictionary-encoded strings — repeated cells ship once).
    pub fn encode(&self) -> Bytes {
        let mut buf: Vec<u8> = Vec::with_capacity(self.byte_size() as usize + 64);
        buf.extend_from_slice(&(self.num_columns() as u32).to_le_bytes());
        for (f, c) in self.schema.fields.iter().zip(&self.columns) {
            buf.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
            buf.extend_from_slice(f.name.as_bytes());
            match c {
                Column::I64(v) => {
                    buf.push(0);
                    buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    put_le(&mut buf, v.iter().map(|x| x.to_le_bytes()));
                }
                Column::F64(v) => {
                    buf.push(1);
                    buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    put_le(&mut buf, v.iter().map(|x| x.to_le_bytes()));
                }
                Column::Str(v) => {
                    let (dict, codes) = crate::dict::StrDict::encode_column(v);
                    buf.push(3);
                    buf.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    buf.extend_from_slice(&(dict.len() as u32).to_le_bytes());
                    for s in dict.entries() {
                        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                        buf.extend_from_slice(s.as_bytes());
                    }
                    put_le(&mut buf, codes.iter().map(|c| c.to_le_bytes()));
                }
            }
        }
        Bytes::from(buf)
    }

    /// Hash-partition by `key` and encode every bucket, without ever
    /// materializing the bucket tables — the zero-copy shuffle path.
    ///
    /// `result[i].data` is byte-identical to
    /// `self.gather(&self.partition_rows(key, n)[i]).encode()`: hashes are
    /// computed once per distinct key, numeric cells scatter straight into
    /// the wire buffers, and string buckets get per-bucket sub-dictionaries
    /// (in bucket first-appearance order) remapped from one full-column
    /// dictionary pass — no `String` is cloned anywhere.
    pub fn encode_partitions(&self, key: &str, n: usize) -> Vec<EncodedPartition> {
        assert!(n > 0);
        // Dictionary-encode every string column once, up front. The key
        // column's dictionary doubles as the bucket router, so a string
        // key is hashed once per *distinct* value, not once per row.
        enum Pre<'a> {
            I64(&'a [i64]),
            F64(&'a [f64]),
            Str {
                dict: crate::dict::StrDict<'a>,
                codes: Vec<u32>,
            },
        }
        let pre: Vec<Pre<'_>> = self
            .columns
            .iter()
            .map(|c| match c {
                Column::I64(v) => Pre::I64(v),
                Column::F64(v) => Pre::F64(v),
                Column::Str(v) => {
                    let (dict, codes) = crate::dict::StrDict::encode_column(v);
                    Pre::Str { dict, codes }
                }
            })
            .collect();
        let key_idx = self
            .schema
            .index_of(key)
            .unwrap_or_else(|| panic!("no column {key}"));
        // Must agree with `bucket_ids` bucket-for-bucket (the audit for
        // that is the fused-encode equivalence proptest).
        let ids: Vec<u32> = match &pre[key_idx] {
            Pre::Str { dict, codes } => {
                let bucket_of: Vec<u32> = dict
                    .entries()
                    .iter()
                    .map(|s| (crate::hash::fnv1a_bytes(s.as_bytes()) % n as u64) as u32)
                    .collect();
                codes.iter().map(|&c| bucket_of[c as usize]).collect()
            }
            _ => self.columns[key_idx]
                .hash_column()
                .iter()
                .map(|&h| (h % n as u64) as u32)
                .collect(),
        };
        let mut counts = vec![0usize; n];
        for &b in &ids {
            counts[b as usize] += 1;
        }

        // Scatter each string column's codes into per-bucket arrays, then
        // remap every bucket to its sub-dictionary (global codes in
        // first-appearance order — identical to what encoding the
        // materialized bucket would produce). The stamp array is shared
        // across buckets and columns; generations avoid clearing it.
        struct StrScat {
            /// Sub-dictionary per bucket: global codes in bucket
            /// first-appearance order.
            sub_entries: Vec<Vec<u32>>,
            /// Per-bucket codes, remapped to the sub-dictionary.
            codes: Vec<Vec<u32>>,
            /// Pre-encoding string bytes per bucket.
            logical: Vec<u64>,
        }
        let max_dict = pre
            .iter()
            .map(|p| match p {
                Pre::Str { dict, .. } => dict.len(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        let mut stamp: Vec<u64> = vec![0; max_dict];
        let mut sub_code: Vec<u32> = vec![0; max_dict];
        let mut generation: u64 = 0;
        let strs: Vec<Option<StrScat>> = pre
            .iter()
            .map(|p| {
                let Pre::Str { dict, codes } = p else {
                    return None;
                };
                let mut bcodes: Vec<Vec<u32>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                let mut logical = vec![0u64; n];
                for (&c, &b) in codes.iter().zip(&ids) {
                    bcodes[b as usize].push(c);
                    // &str length lives in the fat pointer — no
                    // string-data dereference here.
                    logical[b as usize] += dict.get(c).len() as u64 + 8;
                }
                let mut subs: Vec<Vec<u32>> = Vec::with_capacity(n);
                for bucket in bcodes.iter_mut() {
                    generation += 1;
                    let mut sub: Vec<u32> = Vec::new();
                    for c in bucket.iter_mut() {
                        let g = *c as usize;
                        if stamp[g] != generation {
                            stamp[g] = generation;
                            sub_code[g] = sub.len() as u32;
                            sub.push(g as u32);
                        }
                        *c = sub_code[g];
                    }
                    subs.push(sub);
                }
                Some(StrScat {
                    sub_entries: subs,
                    codes: bcodes,
                    logical,
                })
            })
            .collect();

        // Lay out each bucket's frame: headers, string dictionaries and
        // codes are written sequentially; word-column payload regions are
        // zero-reserved and their offsets recorded, so the scatter below
        // streams i64/f64 cells straight into the final wire buffers — no
        // intermediate per-bucket word arrays.
        let ncols = self.num_columns();
        let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(n);
        let mut logicals = vec![0u64; n];
        // Write cursor for word column `ci` in bucket `b`: `ci * n + b`.
        let mut cursors = vec![0usize; ncols * n];
        for b in 0..n {
            let rows = counts[b];
            let mut size = 4usize;
            for (ci, f) in self.schema.fields.iter().enumerate() {
                size += 4 + f.name.len() + 1 + 8;
                size += match (&pre[ci], &strs[ci]) {
                    (Pre::Str { dict, .. }, Some(s)) => {
                        let entries: usize = s.sub_entries[b]
                            .iter()
                            .map(|&c| 4 + dict.get(c).len())
                            .sum();
                        4 + entries + rows * 4
                    }
                    _ => rows * 8,
                };
            }
            let mut buf: Vec<u8> = Vec::with_capacity(size);
            buf.extend_from_slice(&(ncols as u32).to_le_bytes());
            for (ci, f) in self.schema.fields.iter().enumerate() {
                buf.extend_from_slice(&(f.name.len() as u32).to_le_bytes());
                buf.extend_from_slice(f.name.as_bytes());
                match (&pre[ci], &strs[ci]) {
                    (Pre::Str { dict, .. }, Some(s)) => {
                        buf.push(3);
                        buf.extend_from_slice(&(rows as u64).to_le_bytes());
                        buf.extend_from_slice(&(s.sub_entries[b].len() as u32).to_le_bytes());
                        for &c in &s.sub_entries[b] {
                            let e = dict.get(c);
                            buf.extend_from_slice(&(e.len() as u32).to_le_bytes());
                            buf.extend_from_slice(e.as_bytes());
                        }
                        for &c in &s.codes[b] {
                            buf.extend_from_slice(&c.to_le_bytes());
                        }
                        logicals[b] += s.logical[b];
                    }
                    (p, _) => {
                        buf.push(match p {
                            Pre::I64(_) => 0,
                            Pre::F64(_) => 1,
                            Pre::Str { .. } => unreachable!("string handled above"),
                        });
                        buf.extend_from_slice(&(rows as u64).to_le_bytes());
                        cursors[ci * n + b] = buf.len();
                        buf.resize(buf.len() + rows * 8, 0);
                        logicals[b] += rows as u64 * 8;
                    }
                }
            }
            debug_assert_eq!(buf.len(), size, "frame size precompute diverged");
            bufs.push(buf);
        }
        for (ci, p) in pre.iter().enumerate() {
            let mut write = |bits: u64, b: u32| {
                let cur = &mut cursors[ci * n + b as usize];
                bufs[b as usize][*cur..*cur + 8].copy_from_slice(&bits.to_le_bytes());
                *cur += 8;
            };
            match p {
                Pre::I64(v) => {
                    for (&x, &b) in v.iter().zip(&ids) {
                        write(x as u64, b);
                    }
                }
                Pre::F64(v) => {
                    for (&x, &b) in v.iter().zip(&ids) {
                        write(x.to_bits(), b);
                    }
                }
                Pre::Str { .. } => {}
            }
        }
        bufs.into_iter()
            .zip(counts)
            .zip(logicals)
            .map(|((buf, rows), logical_bytes)| EncodedPartition {
                data: Bytes::from(buf),
                rows,
                logical_bytes,
            })
            .collect()
    }

    /// Deserialize from the wire format in one bounds-checked pass that
    /// builds each column as it validates it. A truncated or corrupt frame
    /// is a descriptive error, never a panic, and no vector is sized from
    /// a length field before that field is checked against the bytes left.
    pub fn try_decode(data: Bytes) -> Result<Table, String> {
        let mut r = Reader { rest: &data };
        let ncols = r.u32("column count")?;
        if ncols > 4096 {
            return Err(format!("implausible column count {ncols}"));
        }
        // 13 bytes is the smallest column: name length, tag and row count.
        let cap = ncols.min(r.rest.len() / 13);
        let mut fields = Vec::with_capacity(cap);
        let mut columns = Vec::with_capacity(cap);
        let mut table_rows = None;
        for _ in 0..ncols {
            let name = r.str("column name")?.to_owned();
            let [tag] = r.array("column header")?;
            let nrows = u64::from_le_bytes(r.array("column header")?) as usize;
            let rows = *table_rows.get_or_insert(nrows);
            if nrows != rows {
                return Err(format!("column of {nrows} rows in a table of {rows}"));
            }
            let (dtype, col) = match tag {
                0 => {
                    let words = r.chunks::<8>(nrows, "numeric data")?;
                    let v = words.iter().map(|w| i64::from_le_bytes(*w)).collect();
                    (DataType::I64, Column::I64(v))
                }
                1 => {
                    let words = r.chunks::<8>(nrows, "numeric data")?;
                    let v = words.iter().map(|w| f64::from_le_bytes(*w)).collect();
                    (DataType::F64, Column::F64(v))
                }
                3 => {
                    let ndict = r.u32("dictionary size")?;
                    if ndict > nrows {
                        return Err(format!(
                            "dictionary larger than column: {ndict} entries, {nrows} rows"
                        ));
                    }
                    // Each entry is at least its 4-byte length.
                    let mut dict = Vec::with_capacity(ndict.min(r.rest.len() / 4));
                    for _ in 0..ndict {
                        dict.push(r.str("dictionary entry")?);
                    }
                    let codes = r.chunks::<4>(nrows, "dictionary codes")?;
                    let mut cells = Vec::with_capacity(nrows);
                    for code in codes {
                        let code = u32::from_le_bytes(*code) as usize;
                        let cell = dict.get(code).ok_or_else(|| {
                            format!("dictionary code {code} out of range (dictionary has {ndict})")
                        })?;
                        cells.push((*cell).to_owned());
                    }
                    (DataType::Str, Column::Str(cells.into()))
                }
                t => return Err(format!("unknown column tag {t}")),
            };
            fields.push(Field { name, dtype });
            columns.push(col);
        }
        if !r.rest.is_empty() {
            return Err(format!("{} trailing bytes after table", r.rest.len()));
        }
        Ok(Table {
            schema: Schema { fields },
            columns,
        })
    }
}

/// One shuffle bucket produced by [`Table::encode_partitions`]: the wire
/// bytes plus the accounting the data plane records.
#[derive(Debug, Clone)]
pub struct EncodedPartition {
    /// The encoded bucket, byte-identical to materializing the bucket and
    /// calling [`Table::encode`].
    pub data: Bytes,
    /// Rows in the bucket.
    pub rows: usize,
    /// Decoded (in-memory) size of the bucket per [`Table::byte_size`] —
    /// what the dictionary encoding saved shows up as the gap between this
    /// and `data.len()`.
    pub logical_bytes: u64,
}

/// Append fixed-width values as one byte run: the run is sized once, then
/// filled in place.
fn put_le<const N: usize>(buf: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = [u8; N]>) {
    let start = buf.len();
    buf.resize(start + vals.len() * N, 0);
    for (dst, v) in buf[start..].as_chunks_mut().0.iter_mut().zip(vals) {
        *dst = v;
    }
}

/// The unread rest of one frame. Every read checks the bytes left first
/// and errors on underrun.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    #[cold]
    fn truncated(what: &str) -> String {
        format!("truncated table buffer while reading {what}")
    }

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let (out, rest) = self.rest.split_at_checked(n).ok_or_else(|| Self::truncated(what))?;
        self.rest = rest;
        Ok(out)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], String> {
        let (out, rest) = self.rest.split_first_chunk().ok_or_else(|| Self::truncated(what))?;
        self.rest = rest;
        Ok(*out)
    }

    fn u32(&mut self, what: &str) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.array(what)?) as usize)
    }

    /// `n` values of `N` bytes each; `n` may be anything a hostile row
    /// count makes it.
    fn chunks<const N: usize>(&mut self, n: usize, what: &str) -> Result<&'a [[u8; N]], String> {
        let len = n.checked_mul(N).ok_or("row count overflow")?;
        Ok(self.bytes(len, what)?.as_chunks().0)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)?;
        std::str::from_utf8(self.bytes(len, what)?).map_err(|_| format!("{what} is not UTF-8"))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.schema.fields.iter().map(|x| x.name.as_str()).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for row in 0..self.num_rows().min(20) {
            let vals: Vec<String> = self
                .columns
                .iter()
                .map(|c| match c.value(row) {
                    crate::column::Value::I64(x) => x.to_string(),
                    crate::column::Value::F64(x) => format!("{x:.2}"),
                    crate::column::Value::Str(x) => x,
                })
                .collect();
            writeln!(f, "{}", vals.join(" | "))?;
        }
        if self.num_rows() > 20 {
            writeln!(f, "... ({} rows total)", self.num_rows())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            Schema::new(&[("id", DataType::I64), ("amt", DataType::F64), ("st", DataType::Str)]),
            vec![
                Column::I64(vec![1, 2, 3, 4].into()),
                Column::F64(vec![10.0, 20.0, 30.0, 40.0].into()),
                Column::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()].into()),
            ],
        )
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.column("amt").unwrap().as_f64()[1], 20.0);
        assert!(t.column("zzz").is_none());
        assert!(t.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "length differs")]
    fn ragged_columns_rejected() {
        Table::new(
            Schema::new(&[("a", DataType::I64), ("b", DataType::I64)]),
            vec![Column::I64(vec![1].into()), Column::I64(vec![1, 2].into())],
        );
    }

    #[test]
    #[should_panic(expected = "type differs")]
    fn wrong_type_rejected() {
        Table::new(
            Schema::new(&[("a", DataType::I64)]),
            vec![Column::F64(vec![1.0].into())],
        );
    }

    #[test]
    fn project_and_filter() {
        let t = sample();
        let p = t.project(&["st", "id"]);
        assert_eq!(p.schema.fields[0].name, "st");
        assert_eq!(p.schema.fields[1].name, "id");
        let f = t.filter(&[true, false, true, false]);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column_req("id").as_i64(), &[1, 3]);
    }

    #[test]
    fn split_even() {
        let t = sample();
        let parts = t.split(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(
            parts.iter().map(|p| p.num_rows()).collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
        let back = Table::concat(&parts).unwrap();
        assert_eq!(back, t);
    }

    /// Every bucket of [`Table::partition_rows`], materialized.
    fn buckets(t: &Table, key: &str, n: usize) -> Vec<Table> {
        t.partition_rows(key, n).iter().map(|sel| t.gather(sel)).collect()
    }

    #[test]
    fn partition_rows_is_consistent() {
        let t = sample();
        let parts = buckets(&t, "st", 3);
        assert_eq!(parts.iter().map(|p| p.num_rows()).sum::<usize>(), 4);
        // Rows with st="a" (ids 1 and 3) land in the same bucket.
        let bucket_of = |id: i64| {
            parts
                .iter()
                .position(|p| p.column_req("id").as_i64().contains(&id))
                .unwrap()
        };
        assert_eq!(bucket_of(1), bucket_of(3));
    }

    #[test]
    fn codec_roundtrip() {
        let t = sample();
        let back = Table::try_decode(t.encode()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn try_decode_accepts_valid_rejects_malformed() {
        let t = sample();
        let good = t.encode();
        assert_eq!(Table::try_decode(good.clone()).unwrap(), t);
        // Truncation at every prefix length must error, never panic.
        for cut in 0..good.len().min(64) {
            let sliced = good.slice(0..cut);
            if cut == good.len() {
                continue;
            }
            assert!(Table::try_decode(sliced).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = good.to_vec();
        extended.push(0xFF);
        assert!(Table::try_decode(Bytes::from(extended)).is_err());
        // Corrupt tag is rejected.
        let mut corrupt = good.to_vec();
        // first column: 4 (ncols) + 4 (len) + 2 ("id") = offset 10 is tag
        corrupt[10] = 9;
        assert!(Table::try_decode(Bytes::from(corrupt)).is_err());
    }

    #[test]
    fn codec_empty_table() {
        let t = Table::empty(Schema::new(&[("x", DataType::Str)]));
        let back = Table::try_decode(t.encode()).unwrap();
        assert_eq!(back.num_rows(), 0);
        assert_eq!(back.schema, t.schema);
    }

    #[test]
    fn dict_codec_rejects_out_of_range_codes() {
        let t = Table::new(
            Schema::new(&[("s", DataType::Str)]),
            vec![Column::Str(vec!["aa".into(), "bb".into(), "aa".into()].into())],
        );
        let good = t.encode();
        assert_eq!(Table::try_decode(good.clone()).unwrap(), t);
        // Layout: ncols(4) name_len(4) "s"(1) tag(1) nrows(8) ndict(4)
        // entry "aa"(4+2) entry "bb"(4+2) codes(3*4). Corrupt the last
        // code (bytes -4..) to an out-of-range value.
        let mut corrupt = good.to_vec();
        let n = corrupt.len();
        corrupt[n - 4..].copy_from_slice(&99u32.to_le_bytes());
        let err = Table::try_decode(Bytes::from(corrupt)).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // A dictionary claiming more entries than rows is rejected.
        let mut bad_dict = good.to_vec();
        bad_dict[18..22].copy_from_slice(&200u32.to_le_bytes());
        assert!(Table::try_decode(Bytes::from(bad_dict)).is_err());
    }

    #[test]
    fn dict_encoding_shrinks_repetitive_columns() {
        // The v2 dictionary format is smaller than the retired v1 layout
        // on repetitive string columns, and v1's tag 2 no longer decodes.
        let names = ["Tennessee", "California", "New York"];
        let states: Vec<String> = (0..100).map(|i| names[i % 3].to_string()).collect();
        let t = Table::new(
            Schema::new(&[("st", DataType::Str)]),
            vec![Column::Str(states.into())],
        );
        let v1 = crate::reference::encode_reference(&t);
        let v2 = t.encode();
        assert!(v2.len() < v1.len(), "v2 {} >= v1 {}", v2.len(), v1.len());
        let err = Table::try_decode(v1).unwrap_err();
        assert!(err.contains("unknown column tag 2"), "{err}");
        assert_eq!(Table::try_decode(v2).unwrap(), t);
    }

    #[test]
    fn encode_partitions_matches_materialized_encode() {
        let t = sample();
        for n in [1, 2, 3, 7] {
            let parts = buckets(&t, "st", n);
            let enc = t.encode_partitions("st", n);
            assert_eq!(enc.len(), n);
            for (p, e) in parts.iter().zip(&enc) {
                assert_eq!(e.data, p.encode(), "n={n}");
                assert_eq!(e.rows, p.num_rows());
                assert_eq!(e.logical_bytes, p.byte_size());
            }
        }
    }

    #[test]
    fn encode_partitions_on_numeric_key_and_empty_table() {
        let t = sample();
        let enc = t.encode_partitions("id", 4);
        let parts = buckets(&t, "id", 4);
        for (p, e) in parts.iter().zip(&enc) {
            assert_eq!(e.data, p.encode());
        }
        let empty = Table::empty(t.schema.clone());
        let enc = empty.encode_partitions("st", 3);
        for (p, e) in buckets(&empty, "st", 3).iter().zip(&enc) {
            assert_eq!(e.data, p.encode());
            assert_eq!(e.rows, 0);
        }
    }

    #[test]
    fn split_slices_match_reference() {
        let t = sample();
        for n in [1, 2, 3, 4, 9] {
            assert_eq!(t.split(n), crate::reference::split_reference(&t, n));
        }
    }

    #[test]
    fn partition_rows_matches_reference() {
        let t = sample();
        for key in ["id", "amt", "st"] {
            for n in [1, 2, 5] {
                assert_eq!(
                    buckets(&t, key, n),
                    crate::reference::hash_partition_reference(&t, key, n),
                    "key={key} n={n}"
                );
            }
        }
    }

    #[test]
    fn extend_and_concat() {
        let t = sample();
        let mut a = t.clone();
        a.extend(&t);
        assert_eq!(a.num_rows(), 8);
        assert!(Table::concat(&[]).is_none());
    }

    #[test]
    fn concat_of_one_filled_part_shares_its_buffers() {
        let t = sample();
        let empty = Table::empty(t.schema.clone());
        let parts = [empty.clone(), t.clone(), empty.clone()];
        let got = Table::concat(&parts).unwrap();
        assert_eq!(got, t);
        for (g, c) in got.columns.iter().zip(&t.columns) {
            let (g, c) = match (g, c) {
                (Column::I64(g), Column::I64(c)) => (g.as_ptr().cast::<u8>(), c.as_ptr().cast()),
                (Column::F64(g), Column::F64(c)) => (g.as_ptr().cast(), c.as_ptr().cast()),
                (Column::Str(g), Column::Str(c)) => (g.as_ptr().cast(), c.as_ptr().cast()),
                _ => unreachable!("concat keeps column types"),
            };
            assert_eq!(g, c, "no rows copied");
        }
        // All-empty parts concatenate to an empty table of their schema;
        // two filled parts still build one new table.
        assert_eq!(Table::concat(&[empty.clone(), empty.clone()]).unwrap(), empty);
        assert_eq!(Table::concat(&[t.clone(), empty, t.clone()]).unwrap().num_rows(), 8);
    }

    #[test]
    fn partition_rows_keeps_whole_and_empty_buckets_as_ranges() {
        let t = sample();
        let one = t.partition_rows("st", 1);
        assert_eq!(one, vec![crate::SelVec::all(4)]);
        // `st` has three distinct values: at least one of 7 buckets is empty.
        let seven = t.partition_rows("st", 7);
        assert!(seven.contains(&crate::SelVec::all(0)));
        let rows: usize = seven
            .iter()
            .map(|sel| match sel {
                crate::SelVec::Range { len, .. } => *len,
                crate::SelVec::Rows(r) => r.len(),
            })
            .sum();
        assert_eq!(rows, 4);
    }

    #[test]
    fn display_renders() {
        let s = sample().to_string();
        assert!(s.contains("id | amt | st"));
        assert!(s.contains("30.00"));
    }
}
