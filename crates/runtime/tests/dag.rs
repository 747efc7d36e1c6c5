//! DAG-plan equivalence suite (DESIGN.md §12): the overlap DAG must
//! produce **bit-identical physics** to the barrier plan at every thread
//! count, across all engine variants and every potential — including
//! rebuild steps (where the split is geometric), mid-run thread-count
//! changes, and a faulted run that demotes mid-overlap.
//!
//! The fingerprint deliberately excludes virtual clocks: shrinking comm
//! waits is the DAG's entire purpose, so clocks legitimately differ
//! between the plans. Everything an MD user can observe — trajectories,
//! forces, energies, thermo history — must not.
//!
//! The clocks of the overlapped shape itself are pinned separately, to
//! recorded constants: how the host walks a halo window (rank-major, the
//! pass in one sweep after the rank's complete) must never reach the
//! modeled time. What licenses that sweep — no row charged as interior
//! can see a ghost — is checked structurally on the final lists.

use tofumd_core::engine::Op;
use tofumd_runtime::{Cluster, CommVariant, PlanMode, PotentialKind, RunConfig};
use tofumd_tofu::{FaultKind, FaultPlan, FaultRule};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

/// Exact-bits physics fingerprint: thermo history, final global thermo,
/// and every rank's local positions/velocities/forces in storage order.
fn physics_fingerprint(c: &Cluster) -> Vec<u64> {
    let mut bits = Vec::new();
    for snap in c.thermo_log() {
        bits.push(snap.step);
        bits.extend(
            [snap.pe, snap.ke, snap.temperature, snap.pressure]
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    let t = c.thermo();
    bits.extend([t.pe.to_bits(), t.ke.to_bits(), t.pressure.to_bits()]);
    for st in c.states() {
        bits.push(st.atoms.nlocal as u64);
        for arr in [&st.atoms.x, &st.atoms.v, &st.atoms.f] {
            for p in &arr[..st.atoms.nlocal] {
                bits.extend(p.iter().map(|v| v.to_bits()));
            }
        }
    }
    bits
}

fn run_mode(
    cfg: RunConfig,
    variant: CommVariant,
    mode: PlanMode,
    threads: usize,
    steps: u64,
) -> Vec<u64> {
    let mut c = Cluster::new(MESH, cfg, variant);
    c.set_plan_mode(mode);
    c.set_driver_threads(threads);
    c.set_thermo_every(2);
    c.run(steps);
    assert_eq!(c.plan_mode(), mode);
    physics_fingerprint(&c)
}

/// The binary LJ mixture (types by tag parity).
fn lj_binary(natoms: usize) -> RunConfig {
    RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(natoms)
    }
}

/// The headline contract: DAG ≡ barrier bit-for-bit at threads {1, 2, 8}
/// across all five step-by-step variants and every potential class — LJ,
/// EAM, SW's full-list three-body pass and the multi-type LJ pass. The
/// reference variant runs the degenerate DAG and must match trivially; the
/// p2p ones must match through their halo windows. SW and the binary
/// mixture open theirs only once a rebuild has classified their rows
/// (steps 50 and 20 here), so their rows run past it.
#[test]
fn dag_matches_barrier_bit_for_bit() {
    for (cfg, steps, label) in [
        (RunConfig::lj(4000), 8, "lj"),
        (RunConfig::eam(4000), 6, "eam"),
        (RunConfig::sw(4000), 52, "sw"),
        (lj_binary(4000), 22, "lj-binary"),
    ] {
        for variant in CommVariant::STEP_BY_STEP {
            let barrier = run_mode(cfg, variant, PlanMode::Barrier, 1, steps);
            for threads in [1, 2, 8] {
                let dag = run_mode(cfg, variant, PlanMode::Dag, threads, steps);
                assert_eq!(
                    dag,
                    barrier,
                    "{label}/{}: DAG@{threads} threads diverged from barrier",
                    variant.label()
                );
            }
        }
    }
    for (cfg, label) in [(RunConfig::sw(4000), "sw"), (lj_binary(4000), "lj-binary")] {
        let mut c = Cluster::new(MESH, cfg, CommVariant::Opt);
        c.run(80);
        assert!(
            c.overlapped_total() > 0.0,
            "{label}: no comm time was hidden"
        );
    }
}

/// Crossing a reneighbor step exercises the geometric split: interior
/// list build + interior pair logging ride inside the Border window.
#[test]
fn dag_rebuild_steps_match_barrier() {
    for variant in [CommVariant::Opt, CommVariant::Utofu6TniP2p] {
        let barrier = run_mode(RunConfig::lj(4000), variant, PlanMode::Barrier, 1, 22);
        for threads in [1, 8] {
            let dag = run_mode(RunConfig::lj(4000), variant, PlanMode::Dag, threads, 22);
            assert_eq!(
                dag,
                barrier,
                "{}: rebuild-crossing DAG@{threads} diverged",
                variant.label()
            );
        }
    }
    // EAM rebuild path: density + force passes both split.
    let barrier = run_mode(
        RunConfig::eam(4000),
        CommVariant::Opt,
        PlanMode::Barrier,
        1,
        12,
    );
    let dag = run_mode(RunConfig::eam(4000), CommVariant::Opt, PlanMode::Dag, 8, 12);
    assert_eq!(dag, barrier, "eam rebuild-crossing DAG diverged");
}

/// Changing the driver thread count mid-run under the DAG plan must not
/// perturb the trajectory (the team swap keeps the node partition and
/// the DAG's execution order is thread-independent).
#[test]
fn dag_thread_count_can_change_mid_run() {
    let mut a = Cluster::new(MESH, RunConfig::eam(4000), CommVariant::Opt);
    let mut b = Cluster::new(MESH, RunConfig::eam(4000), CommVariant::Opt);
    a.run(6);
    b.set_driver_threads(4);
    b.run(3);
    b.set_driver_threads(2);
    b.run(3);
    assert_eq!(physics_fingerprint(&a), physics_fingerprint(&b));
}

/// A permanent Forward drop exhausts the retry budget inside an overlap
/// window; the cluster must demote to the 3-stage reference mid-run and
/// still match the barrier plan's faulted trajectory bit-for-bit (fault
/// decisions key on (step, op, src, dst, tni) — never on clocks).
#[test]
fn faulted_demotion_mid_overlap_matches_barrier() {
    let unrecoverable = || {
        FaultPlan::new().with_rule(FaultRule {
            step: Some(2),
            op: Some(Op::Forward.index() as u8),
            src: Some(7),
            ..FaultRule::any(FaultKind::Drop { times: u32::MAX })
        })
    };
    let cfg = RunConfig::lj(4000);
    let run = |mode: PlanMode| {
        let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, unrecoverable());
        c.set_plan_mode(mode);
        c.set_thermo_every(2);
        c.run(10);
        assert!(c.demoted(), "{mode:?}: drop must exhaust retries");
        assert_eq!(c.variant(), CommVariant::Ref);
        physics_fingerprint(&c)
    };
    assert_eq!(
        run(PlanMode::Dag),
        run(PlanMode::Barrier),
        "faulted+demoted DAG trajectory diverged from barrier"
    );
}

/// The overlap metric: on the Fig. 6 strong-scaling configuration every
/// p2p variant must hide a strictly positive amount of comm time behind
/// interior compute, the reference (and the barrier plan) must hide
/// none, and the trace report must carry the Overlap column.
#[test]
fn p2p_variants_overlap_comm_on_fig06_config() {
    for variant in [
        CommVariant::MpiP2p,
        CommVariant::Utofu4TniP2p,
        CommVariant::Utofu6TniP2p,
        CommVariant::Opt,
    ] {
        let mut c = Cluster::new(MESH, RunConfig::lj(65_536), variant);
        c.reset_timers();
        let trace = c.run_traced(25);
        assert!(
            c.overlapped_total() > 0.0,
            "{}: no comm time was hidden",
            variant.label()
        );
        let (_, mean, max) = trace.overlap_stats();
        assert!(
            mean > 0.0 && max > 0.0,
            "{}: trace missed the overlap",
            variant.label()
        );
        assert!(trace.report().contains("Overlap"));
    }
    // The reference variant cannot overlap; the barrier plan must not.
    let mut rf = Cluster::new(MESH, RunConfig::lj(65_536), CommVariant::Ref);
    rf.reset_timers();
    rf.run_traced(12);
    assert_eq!(rf.overlapped_total(), 0.0);
    let mut bar = Cluster::new(MESH, RunConfig::lj(65_536), CommVariant::Opt);
    bar.set_plan_mode(PlanMode::Barrier);
    bar.reset_timers();
    bar.run_traced(12);
    assert_eq!(bar.overlapped_total(), 0.0);
}

/// The licence of the halo windows: a window charges its interior rows
/// while the halo is in flight but evaluates them, with every other row,
/// after the rank's complete. That is the same physics only if no such row
/// can observe the halo — so after every step of overlapped runs on the
/// grid (`Opt`) and on an RCB star forest that re-cuts mid-run, every row
/// either tier of every rank's `Partition` flags interior lists no index
/// `>= nlocal` in the final list, and `geo ⊆ pair`.
#[test]
fn interior_rows_never_list_a_ghost() {
    use tofumd_runtime::config::{CommTuning, Decomp};
    let rcb = RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.8,
            balance_thresh: Some(1.05),
            rebalance_every: Some(25),
            ..CommTuning::default()
        },
        ..RunConfig::lj(8000)
    };
    for (label, cfg, variant, steps, rebalances) in [
        (
            "opt-grid",
            RunConfig::lj(65_536),
            CommVariant::Opt,
            25,
            false,
        ),
        ("mpi-p2p-rcb", rcb, CommVariant::MpiP2p, 60, true),
    ] {
        let mut c = Cluster::new(MESH, cfg, variant);
        let rebuilds = c.rebuild_count;
        for _ in 0..steps {
            c.run_step();
            assert_eq!(
                c.partition_violation(),
                None,
                "{label} step {}: (rank, row) charged as interior lists a ghost",
                c.step
            );
        }
        assert!(c.rebuild_count > rebuilds, "{label}: no rebuild crossed");
        assert!(c.overlapped_total() > 0.0, "{label}: no window ran");
        assert_eq!(c.rebalance_count() > 0, rebalances, "{label}");
    }
}

/// `step_time`, the five `breakdown` fields and the overlap credit of a
/// 25-step run, as bits.
fn clock_bits(cfg: RunConfig, variant: CommVariant, threads: usize) -> [u64; 7] {
    let mut c = Cluster::new(MESH, cfg, variant);
    c.set_driver_threads(threads);
    let rebuilds = c.rebuild_count;
    c.run(25);
    assert!(c.rebuild_count > rebuilds, "the run must cross a rebuild");
    let b = c.breakdown();
    let clocks = [
        c.step_time(),
        b.pair,
        b.neigh,
        b.comm,
        b.modify,
        b.other,
        c.overlapped_total(),
    ];
    clocks.map(f64::to_bits)
}

/// The modeled clocks of the overlapped shape do not move: every value
/// below was recorded at commit `acd2303`, before the halo windows went
/// rank-major, and holds at threads {1, 2, 8}. A run overlaps from its
/// first reneighbor step on (the setup build classifies no rows): LJ-Opt
/// runs the step-20 Border window and five Forward windows; EAM-Opt, which
/// rebuilds earlier, adds the `Rho` and `Force` windows on `Forward` /
/// `ForwardScalar`; MPI p2p on an RCB density ramp runs the same windows
/// over irregular graphs.
#[test]
fn overlapped_clocks_are_pinned_at_every_thread_count() {
    let rcb = RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            decomp: tofumd_runtime::config::Decomp::Rcb,
            density_gradient: 0.5,
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(4000)
    };
    const LJ_OPT: [u64; 7] = [
        0x3f0bee9333852286,
        0x3efaf029ac851208,
        0x3eb6a5b22167e925,
        0x3eea83e4531816da,
        0x3edb8e7bd93f4bed,
        0x3edd5c31593e5fb1,
        0x3f4038c387947816,
    ];
    const EAM_OPT: [u64; 7] = [
        0x3f20444b1804e2f0,
        0x3f16be6e540ac112,
        0x3ec66fb9b2aad479,
        0x3ee817c82f4be8c3,
        0x3edb8e7bd93f4bf1,
        0x3ef162e364f6604c,
        0x3f643f164bae089c,
    ];
    const LJ_MPI_P2P_RCB: [u64; 7] = [
        0x3f41450e171c532f,
        0x3f04efcfd78c02bd,
        0x3ec0995243354aa0,
        0x3f3dfba834d96ab0,
        0x3ef04a572dd5edcf,
        0x3edd5c31593e5fb1,
        0x3f70b1732795dc3c,
    ];
    for (label, cfg, variant, want) in [
        ("lj-opt", RunConfig::lj(4000), CommVariant::Opt, LJ_OPT),
        ("eam-opt", RunConfig::eam(4000), CommVariant::Opt, EAM_OPT),
        ("lj-mpi-p2p-rcb", rcb, CommVariant::MpiP2p, LJ_MPI_P2P_RCB),
    ] {
        for threads in [1, 2, 8] {
            assert_eq!(
                clock_bits(cfg, variant, threads),
                want,
                "{label}@{threads} threads: [step_time, pair, neigh, comm, modify, other, overlapped]"
            );
        }
    }
}
