//! The four workloads. Each is a closed loop in one process: the next
//! `run_step` starts when the previous returns. The program under test
//! sees only the generated `RunConfig` (the seed becomes
//! `RunConfig::seed`, which draws the initial velocities).
//!
//! Steps per repeat are sized so one repeat takes 3–4 s on the 2-core
//! reference host: five or more repeats (and so five or more timed
//! set-ups) fit the 20 s measuring window, and every workload pools at
//! least ten reneighbor steps.

use tofumd::runtime::config::{CommTuning, Decomp};
use tofumd::runtime::{Cluster, CommVariant, PlanMode, RunConfig};
use tofumd::tofu::{FaultKind, FaultPlan, FaultRule};

/// Untimed steps after the build: first list reuse, buffer registration.
pub const WARMUP_STEPS: u64 = 2;

/// The step at which the total energy is compared with the serial twin.
pub const TWIN_STEP: u64 = 20;

/// The seed `run.sh` uses when none is given.
pub const DEFAULT_SEED: u64 = 20_230_612;

/// What the recovery workload must have gone through by the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpectRecovery {
    pub dead_rank: u32,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: which layers this loads and which
    /// it leaves idle.
    pub why: &'static str,
    /// Driver threads on a host with cores to spare (see `threads_on`).
    pub threads: usize,
    /// A repeat steps until `Cluster::current_step()` reaches this. On
    /// the recovery workload that takes more `run_step` calls than steps,
    /// because the rollback rewinds the counter.
    pub target_step: u64,
    /// `None`: fault-free, must end undemoted with zero retries and
    /// fallbacks. `Some`: must end with exactly one recovery.
    pub recovery: Option<ExpectRecovery>,
    /// The engine rides the zero-copy uTofu path, so ghost ops must stage
    /// no bytes.
    pub zero_copy: bool,
    /// The same system on the MPI 3-stage reference engine, where the
    /// modeled speed-up over it is the paper's headline figure.
    pub ref_twin: Option<fn(u64) -> Cluster>,
    build: fn(u64) -> Cluster,
}

impl Workload {
    /// A fresh cluster for this workload at `seed`, on `threads` driver
    /// threads, in the DAG plan every workload measures.
    pub fn build(&self, seed: u64, threads: usize) -> Cluster {
        let mut c = (self.build)(seed);
        c.set_plan_mode(PlanMode::Dag);
        c.set_driver_threads(threads);
        c
    }

    /// Driver threads on this host: one core is left to the OS and the
    /// harness. The driver's spin pool busy-waits in lockstep, so a step
    /// is as slow as its slowest thread; with every core taken, ten-seed
    /// sets of `lj-bulk` on the 2-core reference host spread by 3 % in a
    /// quiet minute and 22 % in a busy one, against 7 % at one thread.
    pub fn threads_on(&self, nproc: usize) -> usize {
        self.threads.min(nproc.saturating_sub(1)).max(1)
    }

    /// Threads of the `threadpool.dispatch_ns` probe: the pool this
    /// workload would use with every core free, so a pool regression
    /// shows even where the end-to-end run keeps to fewer threads.
    pub fn pool_threads_on(&self, nproc: usize) -> usize {
        self.threads.min(nproc).max(1)
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const MESH: [u32; 3] = [2, 3, 2];

fn lj_strong_on(seed: u64, variant: CommVariant) -> Cluster {
    let cfg = RunConfig {
        seed,
        ..RunConfig::lj(65_536)
    };
    Cluster::proxy([4, 3, 2], [8, 12, 8], cfg, variant)
}

fn lj_strong(seed: u64) -> Cluster {
    lj_strong_on(seed, CommVariant::Opt)
}

fn lj_strong_ref(seed: u64) -> Cluster {
    lj_strong_on(seed, CommVariant::Ref)
}

fn lj_bulk(seed: u64) -> Cluster {
    let cfg = RunConfig {
        seed,
        ..RunConfig::lj(100_000)
    };
    Cluster::new(MESH, cfg, CommVariant::Opt)
}

fn eam_ref(seed: u64) -> Cluster {
    let cfg = RunConfig {
        seed,
        ..RunConfig::eam(32_000)
    };
    Cluster::new(MESH, cfg, CommVariant::Ref)
}

/// Rank 17 dies at step 90; checkpoints land at the reneighbor steps 40
/// and 80, so the rollback loses 10 steps; the density ramp trips the
/// first rebalance at step 40.
const RCB_KILL_STEP: u64 = 90;
const RCB_DEAD_RANK: u32 = 17;

fn rcb_recover(seed: u64) -> Cluster {
    let cfg = RunConfig {
        seed,
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.6,
            rebalance_every: Some(20),
            balance_thresh: Some(1.05),
            ..CommTuning::default()
        },
        ..RunConfig::lj(24_000)
    };
    let plan = FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank {
        step: RCB_KILL_STEP,
        rank: RCB_DEAD_RANK,
    }));
    let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::MpiP2p, plan);
    c.set_checkpoint_every(40);
    c
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "lj-strong",
        why: "Paper regime: 96 proxy ranks x 22 LJ atoms, uTofu p2p. Halo ops and driver dispatch (core/tofu/runtime) are over half of the 4 ms step; md pair work is 10 us/rank, the rest of md idle.",
        threads: 1,
        target_step: 802,
        recovery: None,
        zero_copy: true,
        ref_twin: Some(lj_strong_ref),
        build: lj_strong,
    },
    Workload {
        name: "lj-bulk",
        why: "Kernel-bound: 110k LJ atoms, 2.3k/rank, the one workload that threads (2 when a core is left over). md pair/list/bins and threadpool are the step; a forward op is <5% of it.",
        threads: 2,
        target_step: 42,
        recovery: None,
        zero_copy: true,
        ref_twin: None,
        build: lj_bulk,
    },
    Workload {
        name: "eam-ref",
        why: "Many-body on the MPI 3-stage baseline: three-pass EAM with scalar ops mid-pair, ghost-heavy halo, displacement-checked rebuilds; shows a uTofu-LJ gain that costs staged EAM.",
        threads: 1,
        target_step: 32,
        recovery: None,
        zero_copy: false,
        ref_twin: None,
        build: eam_ref,
    },
    Workload {
        name: "rcb-recover",
        why: "Writes beside reads: RCB star forest on a density ramp with a rebalance re-cut, checkpoint dumps, a rank death at step 90 and N-1 recovery; the other three bypass all of it.",
        threads: 1,
        target_step: 180,
        recovery: Some(ExpectRecovery {
            dead_rank: RCB_DEAD_RANK,
        }),
        zero_copy: false,
        ref_twin: None,
        build: rcb_recover,
    },
];
