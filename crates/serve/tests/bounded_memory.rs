//! Pins that serving never-seen uploads leaves the heap where it was:
//! a request featurizes its profile through the task's own pipeline
//! and keeps nothing once its report is rendered, so a long-running
//! `elev-serve` does not grow with the number of distinct uploads.
//!
//! Lives in its own integration-test binary with a single test
//! function so the process-wide live-byte counter sees only this
//! thread's work during the measured window.

mod common;

use elev_core::ingest::StreamingIngest;
use serve::InferenceArena;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};

/// Counts live heap bytes: allocations add their size, frees take it
/// back, and a reallocation adds the difference.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
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
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

/// Uploads served before the window, to bring the arena to its
/// steady state.
const WARM_UPLOADS: usize = 100;
/// Never-seen uploads served inside the window.
const UPLOADS: usize = 10_000;
/// Points per upload: short, so the test takes seconds unoptimized.
const POINTS: usize = 40;
/// The most the live heap may grow over the window. A cache entry per
/// upload would take it past this within a few hundred uploads.
const CAP_BYTES: i64 = 64 * 1024;

#[test]
fn never_seen_uploads_leave_the_heap_flat() {
    let bundle = common::tiny_bundle();
    // Upload `i` raises one elevation by `i` millimetres: far below the
    // despike threshold, so no repair folds two uploads into one profile.
    let mut track = common::clean_track(POINTS);
    let base = track.tracks[0].segments[0].points[POINTS / 2].elevation_m;
    let base = base.expect("the route is elevated");
    let uploads: Vec<Vec<u8>> = (0..WARM_UPLOADS + UPLOADS)
        .map(|i| {
            track.tracks[0].segments[0].points[POINTS / 2].elevation_m =
                Some(base + i as f64 * 1e-3);
            track.to_xml().into_bytes()
        })
        .collect();
    {
        let mut ingest = StreamingIngest::default();
        let profiles: HashSet<Vec<u64>> = uploads
            .iter()
            .map(|raw| {
                let (_, profile) = ingest.ingest_bytes(raw);
                profile.expect("fixture ingests").iter().map(|e| e.to_bits()).collect()
            })
            .collect();
        assert_eq!(profiles.len(), uploads.len(), "every upload must ingest to its own profile");
    }

    let mut arena = InferenceArena::new();
    bundle.warm(&mut arena);
    let (warm, measured) = uploads.split_at(WARM_UPLOADS);
    for raw in warm {
        black_box(bundle.report_json(raw, &mut arena));
    }

    let before = LIVE.load(Ordering::Relaxed);
    for raw in measured {
        let (status, body) = bundle.report_json(raw, &mut arena);
        assert_eq!(status, 200);
        black_box(body);
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grown <= CAP_BYTES,
        "serving {UPLOADS} never-seen uploads grew the live heap by {grown} bytes \
         (cap {CAP_BYTES})"
    );
}
