//! Pins the reader's zero-allocation claim: once a [`ShardReader`]'s
//! scratch and the caller's [`RowBuf`] have grown to the largest
//! record, a full streaming pass of `next_row` (footer included) and a
//! pass of `read_row_at` over every row allocate nothing.
//!
//! Lives in its own integration-test binary with a single test
//! function so the process-wide allocation counter sees only this
//! thread's work during the measured windows.

use featstore::{RowBuf, ShardReader, ShardWriter};
use std::alloc::{GlobalAlloc, Layout, System};
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
fn warm_streaming_and_positioned_reads_allocate_nothing() {
    let dir = std::env::temp_dir().join(format!("elev-fst-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut w = ShardWriter::create(&dir, 0, 256, 7).expect("create");
    let mut offsets = Vec::new();
    let mut at = durable::HEADER_LEN as u64;
    for r in 0..64u32 {
        let nnz = (r * 7 % 40) as usize;
        let indices: Vec<u32> = (0..nnz as u32).map(|i| i * 6).collect();
        let values: Vec<f32> = (0..nnz).map(|i| i as f32 * 0.5 + 1.0).collect();
        offsets.push(at);
        at = w.append_row(u64::from(r), r % 5, 0, &indices, &values).expect("append");
    }
    let path = dir.join(w.finish().expect("finish").file);
    let largest = offsets[(0..64).max_by_key(|&r| r * 7 % 40).expect("rows")];

    // Warm-up: one positioned read of the largest row grows the
    // reader's scratch and the row buffer to steady state.
    let mut reader = ShardReader::open(&path).expect("open");
    let mut row = RowBuf::default();
    reader.read_row_at(largest, &mut row).expect("warm");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut rows = 0;
    while reader.next_row(&mut row).expect("row") {
        rows += 1;
    }
    let streamed = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(rows, 64);
    assert_eq!(streamed, 0, "a warm next_row pass allocated {streamed} times");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for &offset in &offsets {
        reader.read_row_at(offset, &mut row).expect("positioned row");
    }
    let positioned = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(positioned, 0, "a warm read_row_at pass allocated {positioned} times");
    let _ = std::fs::remove_dir_all(&dir);
}
