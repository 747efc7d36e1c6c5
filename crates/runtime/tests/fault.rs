//! End-to-end fault-injection coverage: a seeded recoverable plan must be
//! physics-invisible (faults only move virtual time — retries, dedupe and
//! overwrite detection absorb them), while an unrecoverable plan must
//! demote the cluster to the MPI reference engine mid-run instead of
//! panicking. See DESIGN.md §10 for the fault model.

use std::sync::{Arc, Mutex};
use tofumd_core::engine::{CommStats, GhostEngine, Op, RankState};
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_runtime::{
    bisect_cluster_against_serial, Cluster, CommVariant, LockstepOptions, RunConfig,
};
use tofumd_tofu::{FaultKind, FaultPlan, FaultRates, FaultRule, TofuError};

const MESH: [u32; 3] = [2, 3, 2];
const SEED: u64 = 0xC0FFEE;

/// Bit-level view of the thermo log (step + all four columns).
type ThermoBits = Vec<(u64, u64, u64, u64, u64)>;
/// Bit-level view of every owned atom: tag, position, velocity.
type StateBits = Vec<(u64, [u64; 3], [u64; 3])>;

fn thermo_bits(log: &[ThermoSnapshot]) -> ThermoBits {
    log.iter()
        .map(|t| {
            (
                t.step,
                t.pe.to_bits(),
                t.ke.to_bits(),
                t.temperature.to_bits(),
                t.pressure.to_bits(),
            )
        })
        .collect()
}

/// Tag-sorted bit-level view of every owned atom's position and velocity,
/// across all ranks — migration-order independent.
fn state_fingerprint(c: &Cluster) -> StateBits {
    let mut rows: Vec<_> = c
        .states()
        .iter()
        .flat_map(|s| {
            (0..s.atoms.nlocal).map(move |i| {
                (
                    s.atoms.tag[i],
                    s.atoms.x[i].map(f64::to_bits),
                    s.atoms.v[i].map(f64::to_bits),
                )
            })
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.0);
    rows
}

fn recoverable_plan() -> FaultPlan {
    FaultPlan::seeded(SEED, FaultRates::light())
}

/// The cluster's message counters, asserted to have only grown since
/// `before`: they live on the ranks' states, so no engine swap (demotion,
/// recovery) may take traffic back.
fn counters_grew(c: &Cluster, before: &CommStats) -> CommStats {
    let now = c.op_stats().total();
    assert!(
        now.messages >= before.messages && now.bytes >= before.bytes,
        "counters went backwards at step {}: {before:?} -> {now:?}",
        c.current_step()
    );
    now
}

#[test]
fn recoverable_faults_leave_physics_bit_identical() {
    let cfg = RunConfig::lj(4_000);
    let mut clean = Cluster::new(MESH, cfg, CommVariant::Opt);
    let mut faulty = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, recoverable_plan());
    clean.set_thermo_every(5);
    faulty.set_thermo_every(5);
    clean.run(25);
    faulty.run(25);

    let injected = faulty.fault_counters();
    assert!(
        injected.total() > 0,
        "the seeded plan must actually fire: {injected:?}"
    );
    assert!(!faulty.demoted(), "a light seeded plan is recoverable");
    assert_eq!(
        thermo_bits(clean.thermo_log()),
        thermo_bits(faulty.thermo_log()),
        "recoverable faults must not perturb the thermo log"
    );
    assert_eq!(
        state_fingerprint(&clean),
        state_fingerprint(&faulty),
        "recoverable faults must not perturb per-rank state"
    );
    assert!(
        faulty.step_time() >= clean.step_time(),
        "faults only ever add virtual time: faulty {} < clean {}",
        faulty.step_time(),
        clean.step_time()
    );
}

#[test]
fn fault_runs_are_thread_schedule_invariant() {
    let cfg = RunConfig::lj(4_000);
    let mut reference: Option<(ThermoBits, StateBits)> = None;
    for threads in [1usize, 2, 8] {
        let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, recoverable_plan());
        c.set_driver_threads(threads);
        c.set_thermo_every(5);
        c.run(20);
        assert!(c.fault_counters().total() > 0);
        let fp = (thermo_bits(c.thermo_log()), state_fingerprint(&c));
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(r, &fp, "divergence at driver_threads={threads}"),
        }
    }
}

#[test]
fn plan_installed_on_a_hot_fault_free_fabric_still_injects() {
    // While the installed plan is empty the fabric's puts skip the fault
    // mutex altogether. Ten fault-free steps make that fast path hot; a
    // plan installed afterwards must be consulted exactly as if it had
    // been there from the build, and installing the empty plan again must
    // disarm it — at every driver thread count, physics untouched.
    let cfg = RunConfig::lj(4_000);
    let mut clean = Cluster::new(MESH, cfg, CommVariant::Opt);
    clean.set_thermo_every(5);
    clean.run(30);
    // One Forward message of rank 7 at step 15: the send edge whose peer
    // node no other edge of the rank shares.
    let g = &clean.states()[7].graph;
    let alone = |k: &usize| g.send.iter().filter(|e| e.node == g.send[*k].node).count() == 1;
    let k = (0..g.send.len())
        .find(alone)
        .expect("an edge with a node of its own");
    let one_drop = FaultPlan::new().with_rule(FaultRule {
        step: Some(15),
        op: Some(Op::Forward.index() as u8),
        ..g.edge_fault_rule(k, FaultKind::Drop { times: 1 })
    });
    for threads in [1usize, 2, 8] {
        let mut c = Cluster::new(MESH, cfg, CommVariant::Opt);
        c.set_driver_threads(threads);
        c.set_thermo_every(5);
        c.run(10);
        assert_eq!(c.fault_counters().total(), 0);
        c.install_fault_plan(one_drop.clone());
        c.run(10);
        assert_eq!(c.fault_counters().drops, 1, "threads={threads}");
        assert_eq!(c.fault_counters().total(), 1);
        assert_eq!(c.op_stats().total().retries, 1, "one drop, one retry");
        // Disarmed: a rule that would drop everything is gone with it.
        c.install_fault_plan(FaultPlan::default());
        c.run(10);
        assert_eq!(c.fault_counters().total(), 1, "empty plan injects nothing");
        assert!(!c.demoted());
        assert_eq!(thermo_bits(clean.thermo_log()), thermo_bits(c.thermo_log()));
        assert_eq!(state_fingerprint(&clean), state_fingerprint(&c));
        assert!(c.step_time() >= clean.step_time(), "faults only add time");
    }
}

#[test]
fn faulted_runs_complete_and_report_retries() {
    for cfg in [RunConfig::lj(4_000), RunConfig::eam(4_000)] {
        let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, recoverable_plan());
        let trace = c.run_traced(15);
        assert!(!c.demoted());
        let totals = c.op_stats().total();
        assert!(
            totals.retries > 0,
            "seeded drops/truncations must surface as engine retries ({:?})",
            c.fault_counters()
        );
        let report = trace.report();
        assert!(report.contains("retries"), "report: {report}");
    }
}

#[test]
fn exhausted_retries_demote_to_reference_and_finish() {
    // A permanent drop of rank 7's step-2 Forward puts: no retry budget can
    // clear it, so the engine requests fallback and the cluster swaps every
    // lane to the MPI 3-stage reference engine, then keeps stepping.
    let unrecoverable = FaultPlan::new().with_rule(FaultRule {
        step: Some(2),
        op: Some(Op::Forward.index() as u8),
        src: Some(7),
        ..FaultRule::any(FaultKind::Drop { times: u32::MAX })
    });
    let cfg = RunConfig::lj(4_000);
    let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, unrecoverable.clone());
    let mut sent = c.op_stats().total();
    for _ in 0..10 {
        c.run_step();
        sent = counters_grew(&c, &sent);
    }
    assert!(c.demoted(), "retry exhaustion must demote, not panic");
    assert_eq!(c.variant(), CommVariant::Ref);
    assert!(
        c.op_stats().total().fallback_sends > 0,
        "the reliable-path escape hatch must be counted"
    );
    // The demoted run is still correct physics: lockstep against the
    // serial twin stays clean through and past the demotion step.
    let mut again = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, unrecoverable);
    let report = bisect_cluster_against_serial(
        &mut again,
        &LockstepOptions {
            steps: 6,
            ..LockstepOptions::default()
        },
    );
    assert!(again.demoted());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn transient_cq_exhaustion_is_absorbed_at_build() {
    let plan = FaultPlan::new().with_rule(FaultRule::any(FaultKind::ExhaustCq { times: 2 }));
    let mut c = Cluster::with_fault_plan(MESH, RunConfig::lj(4_000), CommVariant::Opt, plan);
    c.run(3);
    assert!(
        c.fault_counters().cq_rejections > 0,
        "the build must have hit (and recovered from) CQ rejections"
    );
    assert!(!c.demoted());
}

#[test]
fn permanent_cq_exhaustion_on_one_tni_degrades_gracefully() {
    // TNI 2's control queues never come back; the builder's scan must
    // settle on other TNIs and the run still completes.
    let plan = FaultPlan::new().with_rule(FaultRule {
        tni: Some(2),
        ..FaultRule::any(FaultKind::ExhaustCq { times: u32::MAX })
    });
    let mut c = Cluster::with_fault_plan(MESH, RunConfig::lj(4_000), CommVariant::Opt, plan);
    c.run(3);
    assert!(c.fault_counters().cq_rejections > 0);
    assert!(!c.demoted());
}

/// Fault plans keyed on *graph edges* (`CommGraph::edge_fault_rule`): the
/// rules follow (my rank → peer node) pairs, so the same addressing works
/// on the 62-neighbor extended-halo graph. Drops, duplicates and
/// truncations on specific edges must be absorbed by retries and dedupe
/// with physics bit-identical to the clean run.
#[test]
fn edge_keyed_faults_recover_on_62_neighbor_graphs() {
    let cfg = RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            shells: Some(2),
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(4_000)
    };
    let mut clean = Cluster::new(MESH, cfg, CommVariant::Opt);
    assert_eq!(clean.states()[0].graph.neighbor_count(), 62);

    // Address one edge per kind, on three different ranks, straight off
    // the graphs the clean cluster built.
    let mut plan = FaultPlan::new();
    for (rank, edge, kind) in [
        (0usize, 0usize, FaultKind::Drop { times: 2 }),
        (17, 30, FaultKind::Duplicate),
        (41, 61, FaultKind::Truncate { len: 8, times: 1 }),
    ] {
        let g = &clean.states()[rank].graph;
        assert_eq!(g.send.len(), 62);
        plan = plan.with_rule(g.edge_fault_rule(edge, kind));
    }

    let mut faulty = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, plan);
    clean.set_thermo_every(5);
    faulty.set_thermo_every(5);
    clean.run(20);
    faulty.run(20);

    assert!(
        faulty.fault_counters().total() > 0,
        "edge-keyed rules must fire on the 62-neighbor graph: {:?}",
        faulty.fault_counters()
    );
    assert!(!faulty.demoted(), "bounded edge faults are recoverable");
    assert_eq!(
        thermo_bits(clean.thermo_log()),
        thermo_bits(faulty.thermo_log())
    );
    assert_eq!(state_fingerprint(&clean), state_fingerprint(&faulty));
}

/// The same edge addressing on an *irregular* RCB graph. RCB runs on the
/// MPI p2p engine, whose transport is the reliable stack — the one layer
/// the fault plan never reaches (DESIGN.md §10) — so edge-keyed drops and
/// truncations are absorbed below the engine: the run completes with
/// physics bit-identical to the clean run and zero injected faults.
#[test]
fn edge_keyed_faults_are_absorbed_on_rcb_graphs() {
    let cfg = RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            decomp: tofumd_runtime::config::Decomp::Rcb,
            density_gradient: 0.5,
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(4_000)
    };
    let mut clean = Cluster::new(MESH, cfg, CommVariant::MpiP2p);

    let mut plan = FaultPlan::new();
    for rank in [0usize, 11, 23, 47] {
        let g = &clean.states()[rank].graph;
        assert!(
            g.config().is_none(),
            "RCB graphs must be irregular (no grid config)"
        );
        assert!(!g.send.is_empty());
        plan = plan.with_rule(g.edge_fault_rule(0, FaultKind::Drop { times: 2 }));
        let last = g.send.len() - 1;
        plan = plan.with_rule(g.edge_fault_rule(last, FaultKind::Truncate { len: 4, times: 1 }));
    }

    let mut faulty = Cluster::with_fault_plan(MESH, cfg, CommVariant::MpiP2p, plan);
    clean.set_thermo_every(5);
    faulty.set_thermo_every(5);
    clean.run(20);
    faulty.run(20);

    assert_eq!(
        faulty.fault_counters().total(),
        0,
        "the reliable MPI stack sits below the fault plan"
    );
    assert!(!faulty.demoted());
    assert_eq!(
        thermo_bits(clean.thermo_log()),
        thermo_bits(faulty.thermo_log())
    );
    assert_eq!(state_fingerprint(&clean), state_fingerprint(&faulty));
}

/// Rank death on an RCB LJ run: the kill escalates as a typed `PeerDead`
/// (not a deadlock), the survivors roll back to the last checkpoint,
/// re-decompose over N−1 ranks and finish the run, with the recovery
/// accounted in `Trace::report`.
#[test]
fn rank_death_rolls_back_and_recovers_on_survivors() {
    let cfg = RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            decomp: tofumd_runtime::config::Decomp::Rcb,
            density_gradient: 0.5,
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(4_000)
    };
    let plan =
        FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 30, rank: 17 }));
    let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::MpiP2p, plan);
    let natoms = c.natoms();
    c.set_thermo_every(5);
    c.set_checkpoint_every(10);
    c.run_to(60);

    assert_eq!(c.dead_rank(), Some(17), "the kill must have been recovered");
    assert_eq!(c.current_step(), 60, "the shrunken run must finish");
    assert_eq!(c.nranks(), 48, "lanes stay allocated; one is just dead");
    assert_eq!(
        c.states()[17].atoms.nlocal,
        0,
        "the dead rank must own nothing after recovery"
    );
    assert_eq!(
        c.natoms(),
        natoms,
        "every atom (including the dead rank's) must survive via the checkpoint"
    );
    let stats = c.recovery_stats();
    assert_eq!(stats.recoveries, 1);
    assert!(
        stats.steps_lost > 0 && stats.steps_lost <= 30,
        "rollback must lose the steps since the checkpoint: {stats:?}"
    );
    assert!(stats.recovery_time > 0.0, "MTTR must be visible: {stats:?}");
    assert!(stats.checkpoints >= 2, "pre-kill + post-recovery reseal");

    // Physics stays sane across the shrink: the recovered run's total
    // energy matches an undisturbed N-rank twin to fp-noise precision —
    // the N−1 summation order only perturbs the bits, not the physics.
    let mut clean = Cluster::new(MESH, cfg, CommVariant::MpiP2p);
    clean.run_to(60);
    let (e, e_clean) = (
        {
            let t = c.thermo();
            t.pe + t.ke
        },
        {
            let t = clean.thermo();
            t.pe + t.ke
        },
    );
    let diff = (e - e_clean).abs() / e_clean.abs();
    assert!(
        diff < 1e-6,
        "energy diff {diff} (clean {e_clean}, recovered {e})"
    );

    let report = c.run_traced(2).report();
    assert!(
        report.contains("recoveries 1") && report.contains("steps lost"),
        "recovery must surface in the trace report:\n{report}"
    );
}

/// The same kill on a *grid* run under the uTofu-optimized engine: every
/// variant escalates `PeerDead`, and recovery lands the survivors on the
/// one topology that can express N−1 parts — RCB over the irregular MPI
/// p2p engine. A trace across the kill step keeps counting: the swap to
/// the new engines takes no traffic back.
#[test]
fn rank_death_on_grid_engines_shrinks_onto_rcb() {
    let plan =
        FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 25, rank: 5 }));
    let cfg = RunConfig::lj(4_000);
    let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::Opt, plan);
    let natoms = c.natoms();
    c.set_checkpoint_every(10);
    c.run_to(23);
    let before = c.op_stats().total();
    // Step 24, the kill step 25 (rolled back to 20) and the replayed 21.
    let trace = c.run_traced(3);
    assert_eq!(c.recovery_stats().recoveries, 1);
    counters_grew(&c, &before);
    assert!(!trace.comm.is_empty());
    for r in &trace.comm {
        let values = [r.messages, r.atoms, r.bytes, r.copied];
        assert!(values.iter().all(|v| v.is_finite()), "{r:?}");
    }
    c.run_to(40);

    assert_eq!(c.dead_rank(), Some(5));
    assert_eq!(c.current_step(), 40);
    assert_eq!(
        c.variant(),
        CommVariant::MpiP2p,
        "recovery must swap the whole cluster onto the irregular engine"
    );
    assert!(!c.demoted(), "recovery is not the demotion path");
    assert_eq!(c.natoms(), natoms);
    assert_eq!(c.recovery_stats().recoveries, 1);
}

/// Everything a recovered run leaves behind, as bits: thermo history,
/// every owned atom, and the virtual clocks (step time, the five stage
/// means, the overlap credit and the recovery's MTTR).
fn recovered_fingerprint(c: &Cluster) -> (ThermoBits, StateBits, [u64; 8]) {
    let b = c.breakdown();
    let clocks = [
        c.step_time(),
        b.pair,
        b.neigh,
        b.comm,
        b.modify,
        b.other,
        c.overlapped_total(),
        c.recovery_stats().recovery_time,
    ];
    (
        thermo_bits(c.thermo_log()),
        state_fingerprint(c),
        clocks.map(f64::to_bits),
    )
}

/// Run one step and return the ops whose rounds completed in it, in order.
fn ops_completed_in_next_step(c: &mut Cluster) -> Vec<Op> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let tap = log.clone();
    c.set_op_observer(Box::new(move |op, _, _, _| tap.lock().unwrap().push(op)));
    c.run_step();
    c.clear_op_observer();
    let ops = log.lock().unwrap().clone();
    ops
}

/// A rank dies while its neighbours sit in a *Forward window* (step 25:
/// windows are open since the step-20 rebuild classified the rows). The
/// neighbours' completes fail inside the rank-major region and skip their
/// boundary halves, everyone else finishes its window, and the step is
/// abandoned after the region: exactly one recovery, atoms conserved,
/// physics and clocks bit-identical at driver threads {1, 2, 8}.
#[test]
fn rank_death_inside_a_forward_window_is_thread_invariant() {
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let plan =
            FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 25, rank: 5 }));
        let mut c = Cluster::with_fault_plan(MESH, RunConfig::lj(4_000), CommVariant::Opt, plan);
        let natoms = c.natoms();
        c.set_driver_threads(threads);
        c.set_thermo_every(5);
        c.set_checkpoint_every(10);
        c.run_to(23);
        let hidden = c.overlapped_total();
        assert_eq!(
            ops_completed_in_next_step(&mut c),
            [Op::Forward, Op::Reverse],
            "step 24 is a plain forward step"
        );
        assert!(c.overlapped_total() > hidden, "and its Forward is a window");
        // The kill step: no Forward completes; what the observer sees is
        // the recovery re-running the setup ops on the shrunken forest.
        assert_eq!(
            ops_completed_in_next_step(&mut c),
            [Op::Border, Op::Reverse],
            "threads={threads}"
        );
        assert_eq!(c.dead_rank(), Some(5));
        assert_eq!(
            c.current_step(),
            20,
            "rolled back to the step-20 checkpoint"
        );
        c.run_to(40);
        assert_eq!(c.recovery_stats().recoveries, 1);
        assert_eq!(c.natoms(), natoms);
        let fp = recovered_fingerprint(&c);
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(r, &fp, "divergence at driver_threads={threads}"),
        }
    }
}

/// A [`GhostEngine`] shim that reports rank `victim` dead from its
/// `nth` (0-based) Border complete — what the receive shortfall of a
/// neighbour escalates to when the peer dies between its Exchange and its
/// Border. A `KillRank` rule cannot produce this: it is keyed on the step
/// alone, so on a reneighbor step the victim's face neighbours already
/// miss its Exchange messages, before the Border window opens.
struct DeathInBorder {
    inner: Box<dyn GhostEngine>,
    nth: u64,
    seen: u64,
    victim: u32,
}

impl GhostEngine for DeathInBorder {
    fn rounds(&self, op: Op) -> usize {
        self.inner.rounds(op)
    }
    fn barrier_between_rounds(&self) -> bool {
        self.inner.barrier_between_rounds()
    }
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.inner.post(op, round, st)
    }
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if op == Op::Border {
            self.seen += 1;
            if self.seen > self.nth {
                return Err(TofuError::PeerDead {
                    node: 0,
                    rank: self.victim,
                    step: 0,
                });
            }
        }
        self.inner.complete(op, round, st)
    }
    fn setup_cost(&self) -> f64 {
        self.inner.setup_cost()
    }
    fn fallback_requested(&self) -> bool {
        self.inner.fallback_requested()
    }
}

/// The same death surfacing on a reneighbor step, inside the *Border
/// window* (step 40, the second overlapped rebuild): the victim's
/// neighbours fail their Border complete after building and logging their
/// interior rows, and skip the boundary build; the other ranks merge their
/// lists and replay before the step is abandoned. One recovery from the
/// step-20 checkpoint, atoms conserved, bit-identical at threads {1, 2, 8}.
#[test]
fn rank_death_inside_the_border_window_is_thread_invariant() {
    const VICTIM: u32 = 5;
    let mut reference = None;
    for threads in [1usize, 2, 8] {
        let mut c = Cluster::new(MESH, RunConfig::lj(4_000), CommVariant::Opt);
        let natoms = c.natoms();
        let neighbours: Vec<usize> = (0..c.nranks())
            .filter(|&r| {
                let g = &c.states()[r].graph;
                r != VICTIM as usize && g.recv.iter().any(|e| e.rank == VICTIM as usize)
            })
            .collect();
        assert!(!neighbours.is_empty() && neighbours.len() < c.nranks() - 1);
        for &r in &neighbours {
            // Border #0 is step 20's; #1, at step 40, reports the death.
            c.wrap_engine(r, |inner| {
                Box::new(DeathInBorder {
                    inner,
                    nth: 1,
                    seen: 0,
                    victim: VICTIM,
                })
            });
        }
        c.set_driver_threads(threads);
        c.set_thermo_every(5);
        c.set_checkpoint_every(10);
        c.run_to(39);
        assert_eq!(c.recovery_stats().recoveries, 0);
        // The kill step: Exchange completes its three rounds, the Border
        // window does not; then the recovery's setup ops.
        assert_eq!(
            ops_completed_in_next_step(&mut c),
            [
                Op::Exchange,
                Op::Exchange,
                Op::Exchange,
                Op::Border,
                Op::Reverse
            ],
            "threads={threads}"
        );
        assert_eq!(c.dead_rank(), Some(VICTIM));
        assert_eq!(
            c.current_step(),
            20,
            "rolled back to the step-20 checkpoint"
        );
        c.run_to(60);
        assert_eq!(c.recovery_stats().recoveries, 1);
        assert_eq!(c.natoms(), natoms);
        let fp = recovered_fingerprint(&c);
        match &reference {
            None => reference = Some(fp),
            Some(r) => assert_eq!(r, &fp, "divergence at driver_threads={threads}"),
        }
    }
}

/// A kill with no checkpoint to roll back to is a hard, *typed* stop —
/// the panic names the missing checkpoint, not a deadlock or a poisoned
/// lock.
#[test]
#[should_panic(expected = "no checkpoint to roll back to")]
fn rank_death_without_checkpoint_names_the_gap() {
    let plan = FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 3, rank: 1 }));
    let mut c = Cluster::with_fault_plan(MESH, RunConfig::lj(4_000), CommVariant::MpiP2p, plan);
    c.run(10);
}

/// Drop and duplicate faults keyed to the *rebalance* step's migration
/// exchange: the owner-directed migration over the freshly swapped graph
/// rides the reliable MPI transport, so injected faults are absorbed
/// below the fault plan — no migrant is lost or duplicated, no demotion,
/// and physics stays bit-identical to the clean rebalanced run.
#[test]
fn faults_during_rebalance_migration_are_absorbed() {
    let cfg = RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            decomp: tofumd_runtime::config::Decomp::Rcb,
            density_gradient: 0.8,
            balance_thresh: Some(1.05),
            rebalance_every: Some(20),
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(8_000)
    };
    let mut clean = Cluster::new(MESH, cfg, CommVariant::MpiP2p);
    let natoms = clean.natoms();

    let mut plan = FaultPlan::new();
    for rank in [0u32, 7, 23, 47] {
        for kind in [FaultKind::Drop { times: 2 }, FaultKind::Duplicate] {
            plan = plan.with_rule(FaultRule {
                step: Some(20),
                op: Some(Op::Exchange.index() as u8),
                src: Some(rank),
                ..FaultRule::any(kind)
            });
        }
    }

    let mut faulty = Cluster::with_fault_plan(MESH, cfg, CommVariant::MpiP2p, plan);
    clean.set_thermo_every(5);
    faulty.set_thermo_every(5);
    clean.run(40);
    faulty.run(40);

    assert!(clean.rebalance_count() >= 1, "the trigger must fire");
    assert_eq!(faulty.rebalance_count(), clean.rebalance_count());
    assert_eq!(faulty.natoms(), natoms, "migrants lost or duplicated");
    assert_eq!(
        faulty.fault_counters().total(),
        0,
        "the reliable MPI stack sits below the fault plan"
    );
    assert!(!faulty.demoted(), "an absorbed fault must not demote");
    assert_eq!(
        thermo_bits(clean.thermo_log()),
        thermo_bits(faulty.thermo_log())
    );
    assert_eq!(state_fingerprint(&clean), state_fingerprint(&faulty));
}
