//! Integration: the paper's first strong-scaling point — 65 536 LJ atoms
//! on 768 nodes, 3 072 ranks — simulated directly, no proxy, under a
//! live-heap budget. Each rank pre-registers 118 buffers at §3.4's
//! theoretical maximum (955 MiB modeled over the machine); the host backs
//! what the 21-atom ranks actually exchange (161 MiB after 25 steps, 356
//! MiB live in all; an eager registry held 1.17 GB RSS). A counting global
//! allocator measures live bytes, so the reading repeats exactly.
//!
//! `#[ignore]`d to keep 3 072 ranks out of the dev-profile tier-1 run;
//! seconds in release. CI's `scenario-matrix` job runs it (`-- --ignored`).

mod common;
use common::{Counting, LIVE};
use std::sync::atomic::Ordering;
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
#[ignore = "3 072 real ranks: release only, run by CI's scenario-matrix job"]
fn first_scaling_point_runs_directly_within_512_mib() {
    let base = LIVE.load(Ordering::Relaxed);
    let mut c = Cluster::new([8, 12, 8], RunConfig::lj(65_536), CommVariant::Opt);
    let natoms = c.natoms();
    // 25 steps cross the step-20 rebuild, so Exchange and Border have run
    // on every rank beside the per-step Forward and Reverse.
    c.run(25);
    assert_eq!(c.natoms(), natoms, "atoms are conserved");
    assert!(!c.demoted());
    assert_eq!(c.op_stats().total().retries, 0);
    assert_eq!(c.growth_events(), 0, "pre-registered: nothing re-registers");
    let held = (LIVE.load(Ordering::Relaxed) - base) / MIB;
    assert!(held <= 512, "768 nodes hold {held} MiB live after 25 steps");
    let (modeled, backed) = c.registered_bytes();
    eprintln!(
        "768 nodes: {held} MiB live; {} regions registered, {} MiB modeled, {} MiB backed",
        c.registration_calls(),
        modeled / MIB,
        backed / MIB
    );
}
