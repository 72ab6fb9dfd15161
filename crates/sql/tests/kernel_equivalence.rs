//! Bit-identity proofs for the vectorized kernels.
//!
//! The columnar fast paths in `ops/`, `table.rs` and `expr.rs` must
//! produce **byte-identical** output to the retained row-at-a-time
//! implementations in [`ditto_sql::reference`]. Property tests sweep
//! random tables across join kinds × key types, aggregate sets, partition
//! counts and predicates; a fixed-seed sweep re-executes all five TPC-DS
//! query plans through both interpreters; codec tests round-trip
//! dictionary-encoded columns and reject truncated or corrupted frames.

use ditto_sql::column::{Column, DataType, Value};
use ditto_sql::ops::group_by::{AggFunc, AggSpec};
use ditto_sql::ops::{distinct, group_by, hash_join, sort_limit, JoinKind, SortOrder};
use ditto_sql::reference as refimpl;
use ditto_sql::{CmpOp, Pred, Schema, Table};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Live heap bytes of the *current thread* and their high-water mark: the
// test harness runs tests on parallel threads, and a decode allocates and
// frees on its own thread only. `const` thread-locals of `Cell<usize>` need
// no lazy initialisation and no destructor, so the allocator may touch them.
thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.get() + by;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local integers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.set(LIVE.get().saturating_sub(layout.size()));
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the most heap it held at once,
/// beyond what the thread held on entry.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = f();
    (out, PEAK.get() - before)
}

/// Strategy: a table with an i64 key, a string key, an i64 payload and an
/// f64 payload. Keys are drawn from small ranges so joins and group-bys
/// exercise chains (duplicate keys) and misses.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    proptest::collection::vec((0i64..8, 0usize..6, -4i64..4, -2.0f64..2.0), 0..max_rows)
        .prop_map(|rows| {
            let states = ["TN", "CA", "NY", "WA", "", "Tennessee"];
            let mut k = Vec::new();
            let mut s = Vec::new();
            let mut v = Vec::new();
            let mut x = Vec::new();
            for (a, b, c, d) in rows {
                k.push(a);
                s.push(states[b].to_string());
                v.push(c);
                x.push(d);
            }
            Table::new(
                Schema::new(&[
                    ("k", DataType::I64),
                    ("s", DataType::Str),
                    ("v", DataType::I64),
                    ("x", DataType::F64),
                ]),
                vec![
                    Column::I64(k.into()),
                    Column::Str(s.into()),
                    Column::I64(v.into()),
                    Column::F64(x.into()),
                ],
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Joins: every kind × both key types, bit-identical to the reference.
    #[test]
    fn join_matches_reference(l in arb_table(48), r in arb_table(48)) {
        for kind in [JoinKind::Inner, JoinKind::LeftSemi, JoinKind::LeftAnti] {
            for key in ["k", "s"] {
                prop_assert_eq!(
                    hash_join(&l, &r, key, key, kind),
                    refimpl::hash_join_reference(&l, &r, key, key, kind),
                    "kind={:?} key={}", kind, key
                );
            }
        }
    }

    /// Group-by: all aggregate functions over i64, string and compound
    /// keys, with and without HAVING.
    #[test]
    fn group_by_matches_reference(t in arb_table(64)) {
        let aggs = [
            AggSpec { func: AggFunc::Count, input: "v".into(), output: "cnt".into() },
            AggSpec { func: AggFunc::CountDistinct, input: "v".into(), output: "cd".into() },
            AggSpec { func: AggFunc::Sum, input: "x".into(), output: "sx".into() },
            AggSpec { func: AggFunc::Avg, input: "x".into(), output: "ax".into() },
            AggSpec { func: AggFunc::Min, input: "v".into(), output: "mn".into() },
            AggSpec { func: AggFunc::Max, input: "x".into(), output: "mx".into() },
        ];
        let having = Pred::Cmp {
            col: "cnt".into(),
            op: CmpOp::Ge,
            value: Value::I64(2),
        };
        for keys in [&["k"][..], &["s"][..], &["k", "s"][..], &[][..]] {
            for h in [None, Some(&having)] {
                prop_assert_eq!(
                    group_by(&t, keys, &aggs, h),
                    refimpl::group_by_reference(&t, keys, &aggs, h),
                    "keys={:?} having={}", keys, h.is_some()
                );
            }
        }
    }

    /// Partitioning: bucket assignment and per-bucket contents of
    /// `partition_rows` + `gather` match the two-step reference.
    #[test]
    fn partition_matches_reference(t in arb_table(64), n in 1usize..7, key in 0usize..2) {
        let key = ["k", "s"][key];
        let parts: Vec<Table> = t.partition_rows(key, n).iter().map(|sel| t.gather(sel)).collect();
        let expect = refimpl::hash_partition_reference(&t, key, n);
        prop_assert_eq!(&parts, &expect);
    }

    /// The typed shuffle route and the fused wire route agree: a gathered
    /// bucket encodes to the fused encoder's frame, and its in-memory size
    /// is the logical size that frame is booked with.
    #[test]
    fn gathered_buckets_match_the_fused_encoder(t in arb_table(64), n in 1usize..7, key in 0usize..4) {
        let key = ["k", "s", "v", "x"][key];
        let rows = t.partition_rows(key, n);
        let encoded = t.encode_partitions(key, n);
        prop_assert_eq!(rows.len(), encoded.len());
        for (i, (sel, e)) in rows.iter().zip(&encoded).enumerate() {
            let bucket = t.gather(sel);
            prop_assert_eq!(&bucket.encode(), &e.data, "bucket {} frame differs", i);
            prop_assert_eq!(bucket.byte_size(), e.logical_bytes, "bucket {} size", i);
            prop_assert_eq!(bucket.num_rows(), e.rows);
        }
    }

    /// Split: contiguous slicing matches index-vector take.
    #[test]
    fn split_matches_reference(t in arb_table(64), n in 1usize..7) {
        prop_assert_eq!(t.split(n), refimpl::split_reference(&t, n));
    }

    /// Distinct and sort-limit agree with the reference row-at-a-time path.
    #[test]
    fn distinct_and_sort_match_reference(t in arb_table(64), limit in 0usize..70) {
        for cols in [&["k"][..], &["s"][..], &["k", "v"][..]] {
            prop_assert_eq!(
                distinct(&t, cols),
                refimpl::distinct_reference(&t, cols),
                "cols={:?}", cols
            );
        }
        // sort_limit has no separate reference impl, but Desc must remain
        // the exact reverse of the stable Asc order.
        let asc = sort_limit(&t, "v", SortOrder::Asc, t.num_rows());
        let desc = sort_limit(&t, "v", SortOrder::Desc, limit);
        let mut rev: Vec<i64> = asc.column_req("v").as_i64().to_vec();
        rev.reverse();
        rev.truncate(limit);
        prop_assert_eq!(desc.column_req("v").as_i64(), &rev[..]);
    }

    /// Predicate evaluation matches the per-row reference evaluator.
    #[test]
    fn eval_matches_reference(t in arb_table(64), pivot in -4i64..4) {
        let preds = [
            Pred::eq_i64("k", pivot),
            Pred::eq_str("s", "TN"),
            Pred::between_i64("v", -2, 2),
            Pred::InI64 { col: "k".into(), set: vec![1, 3, 5] },
            Pred::InStr { col: "s".into(), set: vec!["CA".into(), "".into()] },
            Pred::ColCmp { left: "x".into(), op: CmpOp::Gt, right: "v".into(), scale: 0.5 },
            Pred::And(vec![
                Pred::Not(Box::new(Pred::eq_str("s", "NY"))),
                Pred::Or(vec![Pred::eq_i64("k", 2), Pred::between_i64("v", 0, 9)]),
            ]),
        ];
        for p in &preds {
            prop_assert_eq!(p.eval(&t), refimpl::eval_reference(p, &t), "{:?}", p);
        }
    }

    /// Codec: v2 encode (bulk numerics + dictionary strings) round-trips
    /// through `try_decode`, and any strict prefix of the frame is
    /// rejected rather than mis-decoded.
    #[test]
    fn codec_roundtrip_and_truncation(t in arb_table(64)) {
        let bytes = t.encode();
        prop_assert_eq!(Table::try_decode(bytes.clone()).expect("valid frame"), t);
        for cut in 0..bytes.len() {
            prop_assert!(
                Table::try_decode(bytes.slice(..cut)).is_err(),
                "truncated frame of {} bytes accepted", cut
            );
        }
    }
}

/// Fixed-seed sweep: all five TPC-DS query plans execute bit-identically
/// through the vectorized interpreter and the retained reference
/// interpreter, on a non-trivial generated database.
#[test]
fn five_query_sweep_matches_reference_interpreter() {
    use ditto_sql::datagen::{Database, ScaleConfig};
    use ditto_sql::queries::Query;
    let db = Database::generate(ScaleConfig::with_sf(0.05));
    for q in Query::all_extended() {
        let plan = q.prepared_plan(&db);
        let fast = plan.execute_reference(&db);
        let slow = refimpl::execute_plan_reference(&plan, &db);
        assert_eq!(fast, slow, "{} diverged from reference interpreter", q.name());
        // And the results survive a wire round-trip.
        assert_eq!(
            Table::try_decode(fast.encode()).expect("valid frame"),
            fast,
            "{} codec round-trip",
            q.name()
        );
    }
}

/// Corruption: flipping a dictionary code past the dictionary length, or
/// inflating the dictionary length field, must be rejected by
/// `try_decode` with a descriptive error — never a panic or a wrong table.
#[test]
fn dict_codec_rejects_corruption() {
    let t = Table::new(
        Schema::new(&[("s", DataType::Str)]),
        vec![Column::Str(vec!["alpha".into(), "beta".into(), "alpha".into()].into())],
    );
    let good = t.encode();
    prop_assert_roundtrip(&t, &good);
    // Last 4 bytes are the final row's u32 dictionary code.
    let mut bad = good.to_vec();
    let n = bad.len();
    bad[n - 4..].copy_from_slice(&999u32.to_le_bytes());
    let err = Table::try_decode(bytes::Bytes::from(bad)).unwrap_err();
    assert!(err.contains("out of range"), "unexpected error: {err}");
    // Dictionary-length field claims more entries than rows.
    let mut bad = good.to_vec();
    // Layout: ncols(4) + name_len(4) + "s"(1) + tag(1) + nrows(8) = offset 18.
    bad[18..22].copy_from_slice(&77u32.to_le_bytes());
    assert!(Table::try_decode(bytes::Bytes::from(bad)).is_err());
}

/// Empty tables (zero rows, and zero columns) round-trip through the
/// dictionary codec.
#[test]
fn codec_empty_edge_cases() {
    let empty_rows = Table::empty(Schema::new(&[("s", DataType::Str), ("k", DataType::I64)]));
    prop_assert_roundtrip(&empty_rows, &empty_rows.encode());
    let no_cols = Table::new(Schema { fields: vec![] }, vec![]);
    prop_assert_roundtrip(&no_cols, &no_cols.encode());
}

fn prop_assert_roundtrip(t: &Table, bytes: &bytes::Bytes) {
    assert_eq!(&Table::try_decode(bytes.clone()).expect("valid frame"), t);
}

/// Frames of the shapes the runtime ships: numeric and dictionary-string
/// columns, whole tables, shuffle buckets and an empty table.
fn sample_frames() -> Vec<Vec<u8>> {
    use ditto_sql::datagen::{Database, ScaleConfig};
    let db = Database::generate(ScaleConfig::with_sf(0.05));
    let head = |name: &str, rows: usize| db.table(name).take(&(0..rows).collect::<Vec<_>>());
    let mut tables = vec![
        db.table("store").clone(),
        head("web_sales", 24),
        head("customer_address", 40),
        Table::empty(db.table("item").schema.clone()),
    ];
    let item = head("item", 30);
    let mut frames: Vec<Vec<u8>> = item
        .encode_partitions("i_item_sk", 3)
        .into_iter()
        .map(|p| p.data.to_vec())
        .collect();
    tables.push(item);
    frames.extend(tables.iter().map(|t| t.encode().to_vec()));
    frames
}

/// Offsets of every length field of a well-formed frame: the column
/// count, each name length, the low word of each row count, each
/// dictionary size and each dictionary entry length.
fn length_fields(f: &[u8]) -> Vec<usize> {
    let u32_at = |p: usize| u32::from_le_bytes(f[p..p + 4].try_into().unwrap()) as usize;
    let mut fields = vec![0];
    let mut pos = 4;
    for _ in 0..u32_at(0) {
        fields.push(pos);
        pos += 4 + u32_at(pos);
        let tag = f[pos];
        let rows = u64::from_le_bytes(f[pos + 1..pos + 9].try_into().unwrap()) as usize;
        fields.push(pos + 1);
        pos += 9;
        if tag == 3 {
            let ndict = u32_at(pos);
            fields.push(pos);
            pos += 4;
            for _ in 0..ndict {
                fields.push(pos);
                pos += 4 + u32_at(pos);
            }
            pos += rows * 4;
        } else {
            pos += rows * 8;
        }
    }
    assert_eq!(pos, f.len(), "sample frame must parse to its end");
    fields
}

/// `try_decode` on hostile bytes: never a panic, at most 16× the input
/// plus 4 KB of heap held at once, and a table it accepts is well formed
/// (its encoding decodes to the same bytes). Returns whether it accepted.
fn decode_hostile(bytes: &[u8], what: &str) -> bool {
    let frame = bytes::Bytes::copy_from_slice(bytes);
    let (result, peak) = peak_heap(move || {
        Table::try_decode(frame).map(|t| {
            let wire = t.encode();
            let again = Table::try_decode(wire.clone()).map(|t| t.encode());
            (again.as_ref() == Ok(&wire), t.num_rows())
        })
    });
    assert!(
        peak <= 16 * bytes.len() + 4096,
        "{what}: decoding {} bytes held {peak} bytes of heap ({result:?})",
        bytes.len()
    );
    if let Ok((well_formed, _)) = result {
        assert!(
            well_formed,
            "{what}: accepted a table that does not round-trip"
        );
    }
    result.is_ok()
}

#[test]
fn mutated_frames_never_panic_or_over_allocate() {
    // A tiny deterministic generator: the loop must be reproducible.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % below as u64) as usize
    };
    let frames = sample_frames();
    for (f, bytes) in frames.iter().enumerate() {
        assert!(decode_hostile(bytes, "unmutated"), "frame {f} decodes");
        // Truncation at every offset: a strict prefix is never a frame.
        for cut in 0..bytes.len() {
            assert!(!decode_hostile(
                &bytes[..cut],
                &format!("frame {f} cut at {cut}")
            ));
        }
        // Every length field inflated is rejected; every other 4-byte
        // window overwritten the same way must at least not panic.
        let fields = length_fields(bytes);
        // Widened to 8 bytes, the largest row count whose byte size still
        // fits a `usize` — which an unchecked offset sum would wrap.
        for &at in fields.iter().filter(|&&at| at + 8 <= bytes.len()) {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
            let what = format!("frame {f} bytes {at}..{} = {:#x}", at + 8, u64::MAX / 8);
            assert!(
                !decode_hostile(&bad, &what),
                "{what}: inflated length accepted"
            );
        }
        for huge in [u32::MAX, 0x1000_0000, 0x0001_0000] {
            for at in 0..bytes.len().saturating_sub(3) {
                let mut bad = bytes.clone();
                bad[at..at + 4].copy_from_slice(&huge.to_le_bytes());
                let what = format!("frame {f} bytes {at}..{} = {huge:#x}", at + 4);
                let accepted = decode_hostile(&bad, &what);
                assert!(
                    !(accepted && fields.contains(&at)),
                    "{what}: inflated length accepted"
                );
            }
        }
        // Bit flips anywhere.
        for _ in 0..2000 {
            let mut bad = bytes.clone();
            let at = next(bad.len());
            bad[at] ^= 1 << next(8);
            decode_hostile(&bad, &format!("frame {f} bit flip at {at}"));
        }
        // Splices: a prefix of this frame followed by a suffix of another,
        // cut anywhere.
        for _ in 0..500 {
            let other = &frames[next(frames.len())];
            let (head, tail) = (next(bytes.len() + 1), next(other.len() + 1));
            let spliced = [&bytes[..head], &other[tail..]].concat();
            decode_hostile(&spliced, &format!("frame {f} splice {head}+{tail}"));
        }
    }
}

/// Slicing, projecting and range-gathering a base table share its
/// buffers: each holds at most 8 KB of heap however large the table is
/// (`catalog_sales` at sf 0.5 is over 1 MB). Extending a slice copies on
/// write, so the base table and the other slices keep their rows.
#[test]
fn slices_share_the_base_tables_buffers() {
    use ditto_sql::datagen::{Database, ScaleConfig};
    use ditto_sql::SelVec;
    let db = Database::generate(ScaleConfig::with_sf(0.5));
    let t = db.table("catalog_sales");
    assert!(t.byte_size() > 1 << 20, "{} bytes", t.byte_size());
    let names: Vec<&str> = t.schema.fields.iter().rev().map(|f| f.name.as_str()).collect();
    let (rows, third) = (t.num_rows(), t.num_rows() / 3);
    let (mut parts, split) = peak_heap(|| t.split(6));
    let (_, project) = peak_heap(|| t.project(&names));
    let (range, gather) = peak_heap(|| t.gather(&SelVec::Range { start: third, len: third }));
    for (what, held) in [("split(6)", split), ("project", project), ("gather", gather)] {
        assert!(held <= 8 << 10, "{what} held {held} bytes of heap");
    }
    let expect = refimpl::split_reference(t, 6);
    assert_eq!(parts, expect);
    assert_eq!(range, t.take(&(third..2 * third).collect::<Vec<_>>()));

    let last = parts[5].clone();
    parts[0].extend(&last);
    assert_eq!(parts[0], Table::concat(&[expect[0].clone(), last]).unwrap());
    assert_eq!(parts[1..], expect[1..]);
    assert_eq!(t.split(6), expect);
    assert_eq!(t.num_rows(), rows);
}
