//! The modeled bits of whole runs, pinned to recorded digests: how the
//! step driver sequences its phases — which function runs an op, which
//! list names it — must never reach a charge, a clock or a counter.
//!
//! Each digest is FNV-1a ([`fnv1a64`]) over little-endian words. A traced
//! run folds, per step, the five stage buckets, the slowest-rank clock
//! advance and the rebuild flag, then every counter of every op's
//! `op_stats()` total (the setup build's settle included). The recovery
//! run folds the `step_time()` bits after every step, across a density
//! ramp, a rebalance re-cut, checkpoint dumps and a `KillRank` rollback
//! whose settle runs on the survivors, and then its `recovery_stats()`.

use tofumd_core::engine::{CommStats, Op, OpStats};
use tofumd_runtime::checkpoint::fnv1a64;
use tofumd_runtime::config::{CommTuning, Decomp};
use tofumd_runtime::{Cluster, CommVariant, PlanMode, RunConfig};
use tofumd_tofu::{FaultKind, FaultPlan, FaultRule};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

fn push(bytes: &mut Vec<u8>, word: u64) {
    bytes.extend(word.to_le_bytes());
}

fn push_ops(bytes: &mut Vec<u8>, stats: &OpStats) {
    for op in Op::ALL {
        let CommStats {
            messages,
            bytes: sent,
            max_msg_bytes,
            growth_events,
            retries,
            fallback_sends,
            dup_drops,
            overwrites,
            bytes_copied,
        } = stats.op_total(op);
        for w in [
            messages,
            sent,
            max_msg_bytes,
            growth_events,
            retries,
            fallback_sends,
            dup_drops,
            overwrites,
            bytes_copied,
        ] {
            push(bytes, w);
        }
    }
}

/// Steps 11–22 traced after ten plain ones, so the window crosses LJ's
/// step-20 rebuild (EAM's displacement check rebuilds in it too).
fn traced_digest(cfg: RunConfig, variant: CommVariant, mode: PlanMode) -> u64 {
    let mut c = Cluster::new(MESH, cfg, variant);
    c.set_plan_mode(mode);
    c.run(10);
    let trace = c.run_traced(12);
    assert!(trace.steps.iter().any(|s| s.rebuilt), "no rebuild traced");
    let mut bytes = Vec::new();
    for s in &trace.steps {
        for x in s.stages {
            push(&mut bytes, x.to_bits());
        }
        push(&mut bytes, s.max_clock_delta.to_bits());
        push(&mut bytes, u64::from(s.rebuilt));
    }
    push_ops(&mut bytes, &c.op_stats());
    fnv1a64(&bytes)
}

#[test]
fn traced_steps_keep_their_recorded_bits() {
    let cases = [
        (RunConfig::lj(4_000), PlanMode::Barrier),
        (RunConfig::lj(4_000), PlanMode::Dag),
        (RunConfig::eam(4_000), PlanMode::Barrier),
        (RunConfig::eam(4_000), PlanMode::Dag),
    ];
    let got = cases.map(|(cfg, mode)| {
        let variant = match mode {
            PlanMode::Barrier => CommVariant::Ref,
            PlanMode::Dag => CommVariant::Opt,
        };
        traced_digest(cfg, variant, mode)
    });
    assert_eq!(
        got,
        [
            0xdeb8_e253_8831_f6ba,
            0x3c86_105d_53ba_37d0,
            0x10bb_b5ac_ca17_03dd,
            0xd517_5482_3cb0_a0c9,
        ],
        "[lj-ref, lj-opt, eam-ref, eam-opt]: {got:#018x?}"
    );
}

/// The ramp trips a rebalance at the step-20 rebuild, where the first
/// checkpoint lands; rank 17 dies at step 30, the run rolls back to step
/// 20, settles and reseals on 47 survivors, and replays past the step-40
/// rebuild and its checkpoint.
#[test]
fn recovered_rcb_run_keeps_its_recorded_bits() {
    let cfg = RunConfig {
        comm: CommTuning {
            decomp: Decomp::Rcb,
            density_gradient: 0.6,
            rebalance_every: Some(20),
            balance_thresh: Some(1.05),
            ..CommTuning::default()
        },
        ..RunConfig::lj(4_000)
    };
    let plan =
        FaultPlan::new().with_rule(FaultRule::any(FaultKind::KillRank { step: 30, rank: 17 }));
    let mut c = Cluster::with_fault_plan(MESH, cfg, CommVariant::MpiP2p, plan);
    c.set_checkpoint_every(10);
    let mut bytes = Vec::new();
    while c.current_step() < 45 {
        c.run_step();
        push(&mut bytes, c.step_time().to_bits());
    }
    assert!(c.rebalance_count() > 0, "the ramp must trip a rebalance");
    assert_eq!(c.dead_rank(), Some(17), "the kill must have been recovered");
    let r = c.recovery_stats();
    assert_eq!(r.recoveries, 1);
    for w in [
        r.checkpoints,
        r.checkpoint_cost.to_bits(),
        r.recoveries,
        r.steps_lost,
        r.recovery_time.to_bits(),
    ] {
        push(&mut bytes, w);
    }
    push_ops(&mut bytes, &c.op_stats());
    let got = fnv1a64(&bytes);
    assert_eq!(got, 0x1577_07cd_6567_63d4, "{got:#018x}");
}
