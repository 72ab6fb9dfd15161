//! Hostile input for [`events_from_chrome`], the reader behind
//! `ditto-audit race|journal --trace`: a seeded mutation loop over real
//! Chrome exports — truncation at every offset, bit flips and splices of
//! two traces. Each case returns `Ok` with a consistent import or an
//! `Err` message; a panic fails the test by itself.

use ditto_obs::{events_from_chrome, to_chrome_trace, Recorder, Track};

/// Two exports in the shapes the stack writes: data-plane `hb.*` events
/// beside task spans and byte counters, and scheduler / fault events
/// with text and float attributes plus one event the importer skips.
fn sample_traces() -> Vec<String> {
    let rec = Recorder::deterministic();
    rec.name_track(Track::server(0, 0).group, "server 0");
    for (task, server) in [(0u32, 0u32), (1, 1)] {
        let track = Track::server(server, task);
        rec.span("task", track, 0.25 * task as f64, 1.5, vec![("stage", 0u32.into())]);
        rec.event(
            "hb.write",
            track,
            1.25,
            vec![
                ("stage", 0u32.into()),
                ("task", task.into()),
                ("server", server.into()),
                ("write_start", 1.0f64.into()),
            ],
        );
        rec.counter_add("storage.bytes", "shm", 4096.0, 1.25);
    }
    rec.event(
        "hb.read",
        Track::server(1, 2),
        2.0,
        vec![("stage", 1u32.into()), ("task", 0u32.into()), ("medium", "s3".into())],
    );
    let data_plane = to_chrome_trace(&rec.finish());

    let rec = Recorder::deterministic();
    rec.event(
        "sched.replan",
        Track::scheduler(0),
        3.5,
        vec![
            ("trigger", "drift".into()),
            ("at_stage", 2u32.into()),
            ("old_predicted_jct", 12.5f64.into()),
            ("new_predicted_jct", 11.0f64.into()),
        ],
    );
    rec.event("fault.crashed", Track::server(2, 0), 4.0, vec![("attempt", 1u32.into())]);
    rec.event("not.in.the.vocabulary", Track::job(0), 4.5, vec![]);
    let scheduler = to_chrome_trace(&rec.finish());
    vec![data_plane, scheduler]
}

/// Import hostile bytes: `Ok` with as many events as it counted, or
/// `Err`. Returns whether it imported.
fn import_hostile(bytes: &[u8]) -> bool {
    match events_from_chrome(&String::from_utf8_lossy(bytes)) {
        Ok((data, stats)) => {
            assert_eq!(data.events.len(), stats.events);
            true
        }
        Err(_) => false,
    }
}

#[test]
fn mutated_chrome_traces_never_panic() {
    // A tiny deterministic generator: the loop must be reproducible.
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |below: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % below as u64) as usize
    };
    let traces = sample_traces();
    let (_, stats) = events_from_chrome(&traces[1]).expect("fixture imports");
    assert_eq!((stats.events, stats.skipped_events), (2, 1), "fixture sanity");
    for (t, trace) in traces.iter().enumerate() {
        let bytes = trace.as_bytes();
        assert!(import_hostile(bytes), "trace {t} imports");
        // Truncation at every offset: a strict prefix of the root object
        // is never JSON.
        for cut in 0..bytes.trim_ascii_end().len() {
            assert!(!import_hostile(&bytes[..cut]), "trace {t} cut at {cut} imported");
        }
        // Bit flips anywhere.
        for _ in 0..2000 {
            let mut bad = bytes.to_vec();
            let at = next(bad.len());
            bad[at] ^= 1 << next(8);
            import_hostile(&bad);
        }
        // Splices: a prefix of this trace followed by a suffix of another.
        for _ in 0..500 {
            let other = traces[next(traces.len())].as_bytes();
            let (head, tail) = (next(bytes.len()), next(other.len()));
            import_hostile(&[&bytes[..head], &other[tail..]].concat());
        }
    }
}
