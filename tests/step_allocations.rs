//! Integration: what a timestep allocates. A forward step re-uses every
//! buffer the last rebuild sized; a rebuild step allocates for high-water
//! growth (registered backing, the neighbor list's pages) — not for the
//! geometric interior flags, which rewrite the last epoch's in place, nor
//! per list row or bin, nor per halo edge, message or record: Border and
//! Exchange stream their records from the send lists into the transport's
//! buffer and from the landed bytes into the atoms on both transports.
//! The MPI lanes reuse one send buffer per driver thread.
//!
//! A counting global allocator counts allocation calls — numbers that
//! repeat exactly for a seed, on any host. One driver thread, so no pool
//! traffic. The runs first step past the early epochs, whose receive slots
//! and x-regions are still reaching their high-water marks. One `#[test]`
//! only: the counter is process-wide and the harness runs tests of one
//! binary on parallel threads.

mod common;
use common::{Counting, CALLS};
use std::sync::atomic::Ordering;
use tofumd::runtime::config::{CommTuning, Decomp};
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls of each forward and each rebuild step over the 43
/// steps after the first `warm`, which cross two rebuilds.
fn per_step(c: &mut Cluster, warm: u64) -> (Vec<usize>, Vec<usize>) {
    c.set_driver_threads(1);
    c.run(warm);
    let (mut fwd, mut rebuild) = (Vec::with_capacity(64), Vec::with_capacity(64));
    for _ in 0..43 {
        let rebuilds = c.rebuild_count;
        let a0 = CALLS.load(Ordering::Relaxed);
        c.run_step();
        let n = CALLS.load(Ordering::Relaxed) - a0;
        if c.rebuild_count > rebuilds {
            rebuild.push(n);
        } else {
            fwd.push(n);
        }
    }
    assert_eq!(rebuild.len(), 2, "two rebuild epochs");
    (fwd, rebuild)
}

#[test]
fn steps_allocate_within_budget() {
    // The `lj-strong` proxy: 96 ranks x 22 atoms on uTofu p2p, measured at
    // the end of the benchmark's 802-step repeat.
    let cfg = RunConfig::lj(65_536);
    let mut c = Cluster::proxy([4, 3, 2], [8, 12, 8], cfg, CommVariant::Opt);
    let n = c.nranks();
    let (fwd, rebuild) = per_step(&mut c, 802);
    // Today 1 (the step plan), and about 40 on the step after a rebuild,
    // whose receive slots back a little more.
    let worst = fwd.iter().max().copied().unwrap_or(0);
    assert!(worst <= n, "lj-strong forward step: {worst} allocations");
    // Today 179 and 185, 2 per rank, since the interior flags rewrite
    // the last epoch's vector in place (275 and 281 while they allocated
    // one per rank; 4 711 and 4 723 while every list build allocated its
    // bins, rows and CSR copy; 5 260 while Exchange packed its emigrants
    // into vectors, 29 900 before Border streamed); the budget leaves
    // about 1 per rank of headroom.
    for (i, &a) in rebuild.iter().enumerate() {
        assert!(a <= 3 * n, "lj-strong rebuild {i}: {a} allocations");
    }
    drop(c);

    // 48 ranks on an RCB star forest over MPI p2p: a forward step runs
    // Forward and Reverse, one round each.
    let cfg = RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.6,
            ..CommTuning::default()
        },
        ..RunConfig::lj(12_000)
    };
    let mut c = Cluster::new([2, 3, 2], cfg, CommVariant::MpiP2p);
    let n = c.nranks();
    let (fwd, rebuild) = per_step(&mut c, 202);
    // Today 1, the step plan, since the MPI lanes reuse one send buffer
    // per driver thread (97 while every post allocated a send vector, one
    // per rank and round; 10 215 when every message was copied out and
    // decoded); the budget leaves 3 of headroom.
    let worst = fwd.iter().max().copied().unwrap_or(0);
    assert!(worst <= 4, "rcb forward step: {worst} allocations");
    // Today 55 and 56, about 1 per rank (247 and 247 while the send
    // vectors and interior flags allocated; 2 999 and 3 001 while every
    // list build allocated, 3 589 while Exchange packed, 33 000 before
    // Border streamed); the budget leaves about 1 per rank of headroom.
    for (i, &a) in rebuild.iter().enumerate() {
        assert!(a <= 2 * n, "rcb rebuild {i}: {a} allocations");
    }
}
