//! Integration: a cluster's live heap is what its workload needs, not a
//! guessed maximum. The uTofu engines pre-register buffers sized from the
//! workload's theoretical maximum (§3.4); the MPI mailboxes hold what was
//! received. A counting global allocator measures live bytes — allocation
//! sizes, not host time or RSS, so the numbers repeat exactly.
//!
//! The third reading is the step itself: a rank one driver thread owns
//! scatters its force pass straight into its arrays, so overlapped steps
//! on 48 ranks grow the heap by list slack only and a second driver thread
//! by its pool; only a run with more threads than nodes opens the scatter
//! log, and it holds one, not one per thread.
//!
//! One `#[test]` only: the counter is process-wide and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

/// Bytes currently allocated. A statistic that publishes no other data,
/// hence `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is an atomic add or sub of the layout size, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
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
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

/// The `lj-strong` proxy of the benchmark: 96 ranks standing in for the
/// 768-node mesh, 65 536 atoms at target scale.
fn proxy(variant: CommVariant) -> Cluster {
    Cluster::proxy([4, 3, 2], [8, 12, 8], RunConfig::lj(65_536), variant)
}

#[test]
fn cluster_heap_is_sized_by_its_traffic() {
    let base = LIVE.load(Ordering::Relaxed);
    let held = || LIVE.load(Ordering::Relaxed) - base;

    // uTofu p2p: the pre-registered receive rings are the footprint; its
    // engines never send a byte through the MPI mailboxes.
    let opt = proxy(CommVariant::Opt);
    let opt_mib = held() / MIB;
    assert!(opt_mib <= 64, "Opt build holds {opt_mib} MiB live");
    drop(opt);

    // MPI 3-stage: mailboxes grow to the stage traffic and stop.
    let mut reference = proxy(CommVariant::Ref);
    reference.run(25);
    let ref_mib = held() / MIB;
    assert!(ref_mib <= 32, "Ref after 25 steps holds {ref_mib} MiB live");
    drop(reference);

    // uTofu p2p under the overlapped step DAG, 48 ranks x 500 atoms, 25
    // steps across the step-20 rebuild so every kind of halo window runs.
    // No scatter log is written at one thread (a log per rank held 106 MiB
    // after the build and grew by 45 MiB here; a log per thread, 2.2 MiB).
    let mut bulk = Cluster::new([2, 3, 2], RunConfig::lj(24_000), CommVariant::Opt);
    let built = held();
    assert!(built <= 80 * MIB, "built: {} MiB live", built / MIB);
    bulk.run(25);
    assert!(bulk.overlapped_total() > 0.0, "the windows must be in use");
    let grown = held() - built;
    assert!(
        grown / MIB <= 1,
        "25 overlapped steps grew the heap by {} KiB",
        grown / 1024
    );
    // A second driver thread brings its pool (a thread handle and the
    // shared epoch block) and nothing else.
    bulk.set_driver_threads(2);
    bulk.run(5);
    let second = held().saturating_sub(built + grown);
    assert!(
        second <= 16 * 1024,
        "a second driver thread grew the heap by {} KiB",
        second / 1024
    );
    // More threads than the 12 nodes: every rank is walked by the whole
    // pool through the team's ONE scatter log (48 B per accepted pair of
    // the largest rank, 1.0 MiB here), not one per thread.
    bulk.set_driver_threads(13);
    bulk.run(5);
    let pooled = held().saturating_sub(built + grown);
    assert!(
        pooled <= 2 * MIB,
        "13 driver threads grew the heap by {} KiB",
        pooled / 1024
    );
}
