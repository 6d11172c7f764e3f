//! Pins the served request's allocation profile: once a worker's arena
//! is warm, classifying a featurized profile (SVM + forest + MLP for
//! both tasks) performs exactly zero heap allocations, and a whole
//! warm `report_json` makes the same number of allocations for a short
//! upload as for a long one (none per point, featurization included).
//!
//! Lives in its own integration-test binary with a single test
//! function so the process-wide allocation counter sees only this
//! thread's work during the measured windows.

mod common;

use elev_core::ingest::StreamingIngest;
use serve::InferenceArena;
use sparsemat::SparseVec;
use std::alloc::{GlobalAlloc, Layout, System};
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

#[test]
fn steady_state_classify_path_allocates_nothing() {
    let bundle = common::tiny_bundle();
    let raw = common::clean_gpx();
    let (_, profile) = StreamingIngest::default().ingest_bytes(&raw);
    let profile = profile.expect("clean fixture ingests");

    // Warm-up: grow the arena and run one full classify per task so
    // every reusable buffer reaches steady state. Each request
    // featurizes its own profile, so the rows are made here, outside
    // the window; the second check below covers featurization.
    let mut arena = InferenceArena::new();
    bundle.warm(&mut arena);
    let bows: Vec<SparseVec> = bundle.tasks().iter().map(|t| t.bow(&profile)).collect();
    for (task, bow) in bundle.tasks().iter().zip(&bows) {
        black_box(task.classify_bow(bow, &mut arena));
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for (task, bow) in bundle.tasks().iter().zip(&bows) {
            black_box(task.classify_bow(bow, &mut arena));
        }
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "steady-state classify path allocated {allocs} times over 200 task classifications"
    );

    // A warm full request (ingest -> featurize -> classify -> render)
    // allocates a constant count, whatever the upload's length.
    let short = common::clean_track(40).to_xml().into_bytes();
    let long = common::clean_track(4_000).to_xml().into_bytes();
    for upload in [&long, &short] {
        let (status, body) = bundle.report_json(upload, &mut arena);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"disposition\": \"clean\""), "fixture must ingest clean: {body}");
    }
    let mut count = |upload: &[u8]| {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        black_box(bundle.report_json(upload, &mut arena));
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };
    let (short_allocs, long_allocs) = (count(&short), count(&long));
    assert_eq!(
        short_allocs, long_allocs,
        "a warm report_json allocated {short_allocs} times for a 40-point upload \
         and {long_allocs} times for a 4000-point one"
    );
}
