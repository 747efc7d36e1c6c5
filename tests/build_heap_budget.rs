//! Integration: a cluster's live heap is what its workload needs, not a
//! guessed maximum. The uTofu engines pre-register buffers sized from the
//! workload's theoretical maximum (§3.4) — that is the *modeled* length,
//! the size every registration is charged on; the host backs a region only
//! up to the last byte its traffic touched, and the MPI mailboxes likewise
//! hold what was received. A counting global allocator measures live
//! bytes — allocation sizes, not host time or RSS, so the numbers repeat
//! exactly.
//!
//! The third reading is the step itself: a rank one driver thread owns
//! scatters its force pass straight into its arrays, so overlapped steps
//! on 48 ranks grow the heap by list slack only and a second driver thread
//! by its pool; only a run with more threads than nodes opens the scatter
//! log, and it holds one, not one per thread.
//!
//! One `#[test]` only: the counter is process-wide and the harness runs
//! tests of one binary on parallel threads.

mod common;
use common::{Counting, LIVE};
use std::sync::atomic::Ordering;
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

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

    // uTofu p2p: 11 424 pre-registered regions cost their bookkeeping at
    // the build; the receive rings are backed as the first epochs land in
    // them and then stop growing.
    let mut opt = proxy(CommVariant::Opt);
    let opt_mib = held() / MIB;
    assert!(opt_mib <= 12, "Opt build holds {opt_mib} MiB live");
    opt.run(85);
    let opt_mib = held() / MIB;
    assert!(opt_mib <= 16, "Opt after 85 steps holds {opt_mib} MiB live");
    let (modeled, backed) = opt.registered_bytes();
    assert_eq!(modeled, 31_709_952, "§3.4's registered size is the model's");
    assert!(3 * backed < modeled, "{backed} of {modeled} B backed");
    drop(opt);

    // MPI 3-stage: mailboxes grow to the stage traffic and stop.
    let mut reference = proxy(CommVariant::Ref);
    reference.run(25);
    let ref_mib = held() / MIB;
    assert!(ref_mib <= 16, "Ref after 25 steps holds {ref_mib} MiB live");
    drop(reference);

    // uTofu p2p under the overlapped step DAG, 48 ranks x 500 atoms. The
    // warm-up runs across three rebuilds (steps 20, 40, 60), so every kind
    // of halo window has run and the receive rings have reached their
    // high-water marks (10.6 MiB over the build); the 40 steps after it,
    // two more rebuilds, grow the heap by 0.2 MiB.
    // No scatter log is written at one thread (a log per rank held 106 MiB
    // after the build and grew by 45 MiB here; a log per thread, 2.2 MiB).
    let mut bulk = Cluster::new([2, 3, 2], RunConfig::lj(24_000), CommVariant::Opt);
    let built = held();
    assert!(built <= 24 * MIB, "built: {} MiB live", built / MIB);
    bulk.run(65);
    assert!(bulk.overlapped_total() > 0.0, "the windows must be in use");
    let warm = held();
    assert!(warm <= 32 * MIB, "after 65 steps: {} MiB live", warm / MIB);
    bulk.run(40);
    let steady = held();
    assert!(
        (steady - warm) / MIB <= 1,
        "40 overlapped steps grew the warm heap by {} KiB",
        (steady - warm) / 1024
    );
    // A second driver thread brings its pool (a thread handle and the
    // shared epoch block) and nothing else.
    bulk.set_driver_threads(2);
    bulk.run(5);
    let second = held().saturating_sub(steady);
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
    let pooled = held().saturating_sub(steady);
    assert!(
        pooled <= 2 * MIB,
        "13 driver threads grew the heap by {} KiB",
        pooled / 1024
    );
    drop(bulk);

    // The benchmark's `lj-bulk` cluster: the 5 712 regions model 104.8 MiB
    // (to the byte what an eager registry allocated) and its 42 steps
    // touch about a quarter of that.
    let mut bulk = Cluster::new([2, 3, 2], RunConfig::lj(100_000), CommVariant::Opt);
    bulk.run(42);
    let (modeled, backed) = bulk.registered_bytes();
    assert_eq!(modeled, 109_935_360);
    assert!(backed <= 32 * MIB, "{} MiB backed", backed / MIB);
    assert_eq!(bulk.growth_events(), 0);
}
