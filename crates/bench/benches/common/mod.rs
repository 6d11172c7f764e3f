//! The counting global allocator the `serve` and `train` suites share.
//! It lives beside the benches rather than in the `bench` library,
//! which forbids `unsafe` code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, plus process-wide counts of allocations and bytes
/// requested (worker threads included).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are statistics
// that publish no other data, so `Relaxed` is enough.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// (allocation count, bytes requested) during one run of `f`.
pub fn count_allocs(f: impl FnOnce()) -> (u64, u64) {
    let count0 = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes0 = ALLOCATED_BYTES.load(Ordering::Relaxed);
    f();
    (ALLOCATIONS.load(Ordering::Relaxed) - count0, ALLOCATED_BYTES.load(Ordering::Relaxed) - bytes0)
}
