//! Pins that an upload full of timestamp gaps cannot make ingestion
//! synthesize its way to a heap many times the upload's own: a track
//! whose gap fill alone pushes it past the repaired-fraction limit is
//! quarantined before a single point is synthesized.
//!
//! Lives in its own integration-test binary with a single test
//! function so the process-wide peak counter sees only this thread's
//! work during the measured windows.

use elev_core::ingest::{Disposition, QuarantineReason, StreamingIngest};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};

/// Counts live heap bytes and the highest count reached.
struct PeakBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(delta: i64) {
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static ALLOC: PeakBytes = PeakBytes;

/// Points per upload.
const POINTS: usize = 9_000;
/// Seconds of the jump before every third point of the gapped upload.
const JUMP_S: u64 = 60;

/// A 1 Hz GPX track of [`POINTS`] points on a gentle hill; with `jumps`
/// the step into every third point lasts [`JUMP_S`] seconds.
fn upload(jumps: bool) -> Vec<u8> {
    let mut xml = String::from(
        "<?xml version=\"1.0\"?>\n<gpx version=\"1.1\" creator=\"heap\">\n<trk><trkseg>\n",
    );
    let mut t = 0u64;
    for i in 0..POINTS {
        if i > 0 {
            t += if jumps && i % 3 == 0 { JUMP_S } else { 1 };
        }
        let (day, rest) = (t / 86_400, t % 86_400);
        writeln!(
            xml,
            "<trkpt lat=\"{:.6}\" lon=\"{:.6}\"><ele>{:.2}</ele><time>2020-01-{:02}T{:02}:{:02}:{:02}Z</time></trkpt>",
            38.9 + i as f64 * 1e-5,
            -77.0 + i as f64 * 1e-5,
            100.0 + (i as f64 * 0.01).sin() * 5.0,
            day + 1,
            rest / 3_600,
            rest % 3_600 / 60,
            rest % 60
        )
        .unwrap();
    }
    xml.push_str("</trkseg></trk>\n</gpx>\n");
    xml.into_bytes()
}

/// The peak live heap a fresh ingester reaches on `bytes`, above the
/// heap live before it starts, with the disposition it returns.
fn peak_of(bytes: &[u8]) -> (i64, Disposition) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (disposition, profile) = StreamingIngest::default().ingest_bytes(bytes);
    drop(profile);
    (PEAK.load(Ordering::Relaxed) - before, disposition)
}

#[test]
fn gapped_upload_peaks_no_higher_than_a_gapless_one() {
    let (gapless, gapped) = (upload(false), upload(true));
    let (gapless_peak, gapless_d) = peak_of(&gapless);
    let (gapped_peak, gapped_d) = peak_of(&gapped);
    assert_eq!(gapless_d, Disposition::Clean);
    assert!(
        matches!(gapped_d, Disposition::Quarantined(QuarantineReason::TooCorrupt { .. })),
        "{gapped_d:?}"
    );
    assert!(
        gapped_peak * 2 <= gapless_peak * 3,
        "a gapped upload peaked at {gapped_peak} bytes of heap, a gapless one at {gapless_peak}"
    );
}
