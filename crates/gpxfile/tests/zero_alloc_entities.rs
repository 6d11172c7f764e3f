//! Pins the entity codec's copy-on-write contract: when the input
//! contains nothing to decode or escape, `decode_entities` /
//! `encode_entities` return the input borrowed and perform exactly
//! zero heap allocations. Also pins that a warm `PointBuf` fill
//! allocates per document, never per point. Same counting-allocator
//! pattern as `crates/serve/tests/zero_alloc.rs`: its own
//! integration-test binary with one test function, so the process-wide
//! counter sees only this thread's work.

use gpxfile::stream::{parse_f64, PointBuf};
use gpxfile::xml::{decode_entities, encode_entities};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A GPX document of `n` timed, elevated trackpoints at 1 Hz.
fn timed_doc(n: usize) -> String {
    let mut doc = String::from("<?xml version=\"1.0\"?>\n<gpx version=\"1.1\" creator=\"t\">");
    doc.push_str("<trk><name>run</name><trkseg>\n");
    for t in 0..n {
        let (lat, lon) = (47.3 + t as f64 * 1.1e-5, 8.5 + t as f64 * 1.7e-5);
        let (h, m, s) = (8 + t / 3600, (t / 60) % 60, t % 60);
        let _ = writeln!(
            doc,
            "<trkpt lat=\"{lat:.6}\" lon=\"{lon:.6}\"><ele>{}.25</ele>\
             <time>2024-05-01T{h:02}:{m:02}:{s:02}Z</time></trkpt>",
            400 + t % 50
        );
    }
    doc.push_str("</trkseg></trk></gpx>\n");
    doc
}

#[test]
fn entity_fast_paths_allocate_nothing() {
    // Realistic no-entity payloads: timestamps, names, numbers — what
    // almost every GPX value is.
    let inputs =
        ["2020-01-11T08:00:00Z", "38.8895", "-77.0353", "morning run", "", "plain text value"];

    // The counter is warm from test-harness startup; measure a tight
    // window around the codec alone.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for s in inputs {
            let decoded = decode_entities(black_box(s)).expect("no entities to fail on");
            assert!(matches!(decoded, Cow::Borrowed(_)));
            black_box(&decoded);
            let encoded = encode_entities(black_box(s));
            assert!(matches!(encoded, Cow::Borrowed(_)));
            black_box(&encoded);
            // The fast float path is allocation-free too.
            let _ = black_box(parse_f64(black_box(s)));
        }
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "no-entity codec fast path allocated {allocs} times over 600 round trips"
    );

    // Sanity: the slow path still decodes (and is allowed to allocate).
    assert_eq!(decode_entities("a &amp; b").unwrap(), "a & b");
    assert_eq!(encode_entities("a & b"), "a &amp; b");

    // A warm streaming fill allocates a constant few times per document
    // (the walk's element path and the reader's tag stack and attribute
    // scratch start empty for each one) and never per point: once the
    // buffer has grown on the larger document, a 40-point and a
    // 4 000-point document cost the same count.
    let (short, long) = (timed_doc(40), timed_doc(4_000));
    let mut buf = PointBuf::default();
    buf.fill_from_bytes(long.as_bytes()).expect("timed document parses");
    let mut fill = |doc: &str| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        buf.fill_from_bytes(black_box(doc.as_bytes())).expect("timed document parses");
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(buf.points().iter().all(|p| p.time.is_some() && p.elevation_m.is_some()));
        (buf.points().len(), allocs)
    };
    let (short_points, short_allocs) = fill(&short);
    let (long_points, long_allocs) = fill(&long);
    assert_eq!((short_points, long_points), (40, 4_000));
    assert_eq!(
        short_allocs, long_allocs,
        "a warm fill allocated {short_allocs} times for 40 points, {long_allocs} for 4 000"
    );
}
