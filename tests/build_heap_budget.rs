//! Integration: a cluster's live heap is what its workload needs, not a
//! guessed maximum. The uTofu engines pre-register buffers sized from the
//! workload's theoretical maximum (§3.4); the MPI mailboxes hold what was
//! received. A counting global allocator measures live bytes — allocation
//! sizes, not host time or RSS, so the numbers repeat exactly.
//!
//! The third reading is the step itself: the scatter logs of the force
//! passes are one per driver thread, so overlapped steps on 48 ranks grow
//! the heap by what one rank's pass logs, and a second driver thread by
//! one more log.
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

    // uTofu p2p under the overlapped step DAG: the scatter logs (48 B per
    // accepted pair) belong to the driver's threads, not to the ranks.
    // 48 ranks x 500 atoms; the setup force pass has filled one log, and
    // 25 steps across the step-20 rebuild run every kind of halo window
    // through it. A log per rank holds 106 MiB after the build and grows
    // by 45 MiB here.
    let mut bulk = Cluster::new([2, 3, 2], RunConfig::lj(24_000), CommVariant::Opt);
    let built = held();
    assert!(built <= 80 * MIB, "built: {} MiB live", built / MIB);
    bulk.run(25);
    assert!(bulk.overlapped_total() > 0.0, "the windows must be in use");
    let grown = (held() - built) / MIB;
    assert!(
        grown <= 6,
        "25 overlapped steps grew the heap by {grown} MiB"
    );
    // A second driver thread brings a second log, not another 47.
    bulk.set_driver_threads(2);
    bulk.run(5);
    let grown = (held() - built) / MIB;
    assert!(
        grown <= 8,
        "two driver threads grew the heap by {grown} MiB"
    );
}
