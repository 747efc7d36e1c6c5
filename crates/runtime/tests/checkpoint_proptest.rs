//! Property tests for the checkpoint wire format.
//!
//! Two contracts, over *randomized* cluster states rather than the single
//! hand-built fixture the unit tests use:
//!
//! 1. **Lossless round-trip** — encode → decode → re-encode is
//!    byte-identical, through both the bare payload and the versioned
//!    container, for any combination of potential, decomposition, dead
//!    rank, thermo history and per-rank atom soup.
//! 2. **Total corruption detection** — flipping *any single byte* of a
//!    sealed container, or cutting it at *any* length, yields a typed
//!    [`CheckpointError`] (never a panic, never a silent success).
//!
//! The vendored proptest subset has no `prop_oneof!`/`prop::option`, so
//! enum and option choices are drawn as small integers/bools and mapped.

use proptest::prelude::*;
use tofumd_core::engine::StageTimes;
use tofumd_md::domain::RcbDecomposition;
use tofumd_md::kernels::KernelMode;
use tofumd_md::region::Box3;
use tofumd_md::thermo::ThermoSnapshot;
use tofumd_md::Atoms;
use tofumd_runtime::config::{CommTuning, Decomp};
use tofumd_runtime::{
    CheckpointData, CheckpointError, CommVariant, PotentialKind, RankDump, RecoveryStats, RunConfig,
};

const BOX_LEN: f64 = 9.0;

fn potential_kind() -> impl Strategy<Value = PotentialKind> {
    (0usize..6, 3.0f64..6.0, any::<bool>()).prop_map(|(tag, cutoff, full)| match tag {
        0 => PotentialKind::Lj,
        1 => PotentialKind::Eam,
        2 => PotentialKind::LjFull,
        3 => PotentialKind::Sw,
        4 => PotentialKind::LjBinary,
        _ => PotentialKind::LjLongCutoff { cutoff, full },
    })
}

fn comm_tuning() -> impl Strategy<Value = CommTuning> {
    (
        any::<bool>(),
        (any::<bool>(), 1usize..3),
        (any::<bool>(), 2.0f64..7.0),
        0.0f64..0.9,
        (any::<bool>(), 1.01f64..1.5),
        (any::<bool>(), 5u64..200),
    )
        .prop_map(
            |(rcb, shells, ghost_cutoff, density_gradient, balance_thresh, rebalance_every)| {
                CommTuning {
                    decomp: if rcb { Decomp::Rcb } else { Decomp::Grid },
                    shells: shells.0.then_some(shells.1),
                    ghost_cutoff: ghost_cutoff.0.then_some(ghost_cutoff.1),
                    density_gradient,
                    balance_thresh: balance_thresh.0.then_some(balance_thresh.1),
                    rebalance_every: rebalance_every.0.then_some(rebalance_every.1),
                }
            },
        )
}

fn run_config() -> impl Strategy<Value = RunConfig> {
    (
        potential_kind(),
        512usize..100_000,
        0.1f64..4.0,
        any::<u64>(),
        comm_tuning(),
    )
        .prop_map(|(kind, natoms_target, temperature, seed, comm)| RunConfig {
            kind,
            natoms_target,
            temperature,
            seed,
            comm,
            kernel: KernelMode,
        })
}

fn comm_variant() -> impl Strategy<Value = CommVariant> {
    (0usize..6).prop_map(|tag| match tag {
        0 => CommVariant::Ref,
        1 => CommVariant::MpiP2p,
        2 => CommVariant::Utofu3Stage,
        3 => CommVariant::Utofu4TniP2p,
        4 => CommVariant::Utofu6TniP2p,
        _ => CommVariant::Opt,
    })
}

fn thermo_snapshot() -> impl Strategy<Value = ThermoSnapshot> {
    (
        0u64..1000,
        -8.0f64..0.0,
        0.0f64..4.0,
        0.0f64..3.0,
        -6.0f64..6.0,
    )
        .prop_map(|(step, pe, ke, temperature, pressure)| ThermoSnapshot {
            step,
            pe,
            ke,
            temperature,
            pressure,
        })
}

fn rank_dump() -> impl Strategy<Value = RankDump> {
    let pos = prop::collection::vec(prop::array::uniform3(0.0f64..BOX_LEN), 0..12);
    let vel = prop::collection::vec(prop::array::uniform3(-2.0f64..2.0), 12);
    (pos, vel, 0.0f64..10.0).prop_map(|(pos, vel, clock)| {
        let n = pos.len();
        let mut atoms = Atoms::from_positions(pos, 1);
        atoms.v[..n].copy_from_slice(&vel[..n]);
        RankDump {
            atoms,
            clock,
            stages: StageTimes {
                comm: clock * 0.25,
                pair_comm: clock * 0.03125,
                pair: clock,
                neigh: clock * 0.5,
                modify: 0.125,
                other: 0.0625,
                overlapped: 0.0,
            },
        }
    })
}

fn recovery_stats() -> impl Strategy<Value = RecoveryStats> {
    (0u64..20, 0.0f64..1.0, 0u64..3, 0u64..100, 0.0f64..1.0).prop_map(
        |(checkpoints, checkpoint_cost, recoveries, steps_lost, recovery_time)| RecoveryStats {
            checkpoints,
            checkpoint_cost,
            recoveries,
            steps_lost,
            recovery_time,
        },
    )
}

/// A full randomized checkpoint state. The cross-field invariants
/// `validate()` enforces (RCB part count == live ranks, dead rank in
/// range with the survivors' tree and no atoms, each atom's type the one
/// the run assigns its tag) are honored by construction; everything else
/// is free.
fn checkpoint_data() -> impl Strategy<Value = CheckpointData> {
    // (nranks, dead?, dead-rank draw, rcb?, rcb scatter seed)
    let shape = (
        2usize..5,
        any::<bool>(),
        0u32..64,
        any::<bool>(),
        any::<u64>(),
    );
    let counters = (
        0u64..500,
        0u64..50,
        0u64..50,
        0u64..5,
        0u64..100,
        0u64..600,
        0u64..100,
    );
    (
        shape,
        run_config(),
        comm_variant(),
        prop::collection::vec(thermo_snapshot(), 0..4),
        prop::collection::vec(rank_dump(), 5),
        recovery_stats(),
        counters,
    )
        .prop_map(
            |(
                (nranks, has_dead, dead_raw, with_rcb, rcb_seed),
                cfg,
                variant,
                thermo_log,
                dumps,
                recovery,
                c,
            )| {
                let (
                    step,
                    rebuild_count,
                    steps_run,
                    rebalance_count,
                    checkpoint_every,
                    next_checkpoint,
                    thermo_every,
                ) = c;
                let dead = has_dead.then_some(dead_raw % nranks as u32);
                let rcb = if with_rcb || dead.is_some() {
                    // A deterministic pseudo-scatter varied by the case
                    // seed: RCB just needs *some* points to cut.
                    let global = Box3::from_lengths([BOX_LEN; 3]);
                    let jitter = (rcb_seed % 97) as f64 * 0.113;
                    let pts: Vec<[f64; 3]> = (0..48)
                        .map(|i| {
                            let t = (i as f64) + jitter;
                            [
                                (t * 0.731) % BOX_LEN,
                                (t * 1.377) % BOX_LEN,
                                (t * 2.113) % BOX_LEN,
                            ]
                        })
                        .collect();
                    let parts = nranks - usize::from(dead.is_some());
                    Some(RcbDecomposition::build(parts, &pts, &global))
                } else {
                    None
                };
                let ranks = dumps
                    .into_iter()
                    .take(nranks)
                    .enumerate()
                    .map(|(r, mut d)| {
                        if Some(r as u32) == dead {
                            d.atoms = Atoms::default();
                        }
                        for (t, &tag) in d.atoms.typ.iter_mut().zip(&d.atoms.tag) {
                            *t = cfg.type_of_tag(tag);
                        }
                        d
                    })
                    .collect();
                CheckpointData {
                    proxy_mesh: [2, 2, 1],
                    target_mesh: [4, 3, 2],
                    cfg,
                    variant,
                    step,
                    rebuild_count,
                    steps_run,
                    rebalance_count,
                    checkpoint_every,
                    next_checkpoint,
                    thermo_every,
                    thermo_log,
                    dead,
                    rcb,
                    ranks,
                    recovery,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// encode → decode → re-encode is byte-identical, through the bare
    /// payload and through the sealed container.
    #[test]
    fn round_trip_is_lossless(data in checkpoint_data()) {
        let payload = data.encode();
        let back = match CheckpointData::decode(&payload) {
            Ok(d) => d,
            Err(e) => panic!("decode of own encode failed: {e}"),
        };
        prop_assert_eq!(back.encode(), payload.clone(), "payload re-encode drifted");

        let container = data.to_container();
        let back = match CheckpointData::from_container(&container) {
            Ok(d) => d,
            Err(e) => panic!("container round-trip failed: {e}"),
        };
        prop_assert_eq!(back.encode(), payload, "container re-encode drifted");
        prop_assert_eq!(back.to_container(), container, "container bytes drifted");
    }

    /// Every single-byte flip of a sealed container is rejected with a
    /// typed error: `BadMagic` inside the magic, `ChecksumMismatch` or
    /// `Truncated` everywhere else. Never a panic, never an `Ok`.
    #[test]
    fn every_single_byte_flip_is_rejected(data in checkpoint_data(), flip in 1u8..=255) {
        let container = data.to_container();
        for i in 0..container.len() {
            let mut bad = container.clone();
            bad[i] ^= flip;
            match CheckpointData::from_container(&bad) {
                Ok(_) => panic!("byte {i} ^ {flip:#04x} went undetected"),
                Err(CheckpointError::BadMagic) => prop_assert!(
                    i < 8,
                    "BadMagic from a flip at {i}, outside the magic"
                ),
                Err(CheckpointError::ChecksumMismatch { .. } | CheckpointError::Truncated { .. }) => {}
                Err(other) => panic!("byte {i} ^ {flip:#04x}: unexpected error class {other:?}"),
            }
        }
    }

    /// Every proper prefix of a sealed container is rejected with a typed
    /// error — a partial write can never restore.
    #[test]
    fn every_truncation_is_rejected(data in checkpoint_data()) {
        let container = data.to_container();
        for cut in 0..container.len() {
            match CheckpointData::from_container(&container[..cut]) {
                Ok(_) => panic!("prefix of {cut}/{} bytes restored", container.len()),
                Err(CheckpointError::BadMagic
                    | CheckpointError::Truncated { .. }
                    | CheckpointError::ChecksumMismatch { .. }) => {}
                Err(other) => panic!("cut at {cut}: unexpected error class {other:?}"),
            }
        }
    }
}
