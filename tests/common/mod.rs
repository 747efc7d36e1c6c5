//! Shared by the live-heap and allocation-budget tests: a counting global
//! allocator. Each test binary installs it itself (`#[global_allocator]`)
//! and holds exactly one `#[test]`, because the counters are process-wide
//! and the harness runs the tests of one binary on parallel threads.
//! Each binary reads the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated. A statistic that publishes no other data,
/// hence `Relaxed`.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`; a
/// `realloc` may move the block, so it counts as one). Same ordering.
pub static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes into [`LIVE`] and calls into
/// [`CALLS`].
pub struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only additions
// are atomic adds and subs of the layout size and the call count, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
