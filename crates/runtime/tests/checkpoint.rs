//! Checkpoint/restart correctness: a run restored from a checkpoint must
//! be *bit-identical* to the run that never stopped — verified by the
//! lockstep bisector at tolerance 0.0 across thread counts, plan modes
//! and engine variants — and damaged restart files must be rejected with
//! typed errors, never panics. See DESIGN.md §15.

use tofumd_runtime::checkpoint::{CheckpointData, CheckpointError};
use tofumd_runtime::{
    bisect_clusters, Cluster, CommVariant, LockstepOptions, PlanMode, PotentialKind, RunConfig,
};

const MESH: [u32; 3] = [2, 3, 2];

fn rcb_cfg(natoms: usize) -> RunConfig {
    RunConfig {
        comm: tofumd_runtime::config::CommTuning {
            decomp: tofumd_runtime::config::Decomp::Rcb,
            density_gradient: 0.5,
            ..tofumd_runtime::config::CommTuning::default()
        },
        ..RunConfig::lj(natoms)
    }
}

/// Run a cluster with auto-checkpoints, restore from the sealed bytes,
/// and drive the restored cluster against an uninterrupted twin in
/// lockstep at tolerance 0.0.
fn assert_restore_bit_identical(
    cfg: RunConfig,
    variant: CommVariant,
    mode: PlanMode,
    threads: usize,
) {
    let mut a = Cluster::new(MESH, cfg, variant);
    a.set_plan_mode(mode);
    a.set_driver_threads(threads);
    a.set_checkpoint_every(8);
    a.run(20);
    let bytes = a
        .last_checkpoint()
        .expect("a 20-step run with every=8 must have checkpointed")
        .to_vec();

    let mut restored = Cluster::restore_from_bytes(&bytes).expect("restore must succeed");
    restored.set_plan_mode(mode);
    restored.set_driver_threads(threads);
    let cp_step = restored.current_step();
    assert!((8..=20).contains(&cp_step), "checkpoint step {cp_step}");

    // The uninterrupted twin: same build, same steps, no checkpointing
    // (the checkpoint itself must not perturb physics).
    let mut twin = Cluster::new(MESH, cfg, variant);
    twin.set_plan_mode(mode);
    twin.set_driver_threads(threads);
    twin.run(cp_step);

    let report = bisect_clusters(
        &mut restored,
        &mut twin,
        &LockstepOptions {
            steps: 10,
            tol: 0.0,
            driver_threads: threads,
            ..LockstepOptions::default()
        },
    );
    assert!(
        report.is_clean(),
        "restore diverged (variant {variant:?}, mode {mode:?}, threads {threads}):\n{}",
        report.render()
    );
}

#[test]
fn restored_run_is_bit_identical_opt_variant() {
    for threads in [1usize, 2, 8] {
        assert_restore_bit_identical(
            RunConfig::lj(4_000),
            CommVariant::Opt,
            PlanMode::Dag,
            threads,
        );
    }
    assert_restore_bit_identical(RunConfig::lj(4_000), CommVariant::Opt, PlanMode::Barrier, 2);
}

#[test]
fn restored_run_is_bit_identical_mpi_p2p_variant() {
    for threads in [1usize, 2, 8] {
        assert_restore_bit_identical(
            RunConfig::lj(4_000),
            CommVariant::MpiP2p,
            PlanMode::Dag,
            threads,
        );
    }
    assert_restore_bit_identical(
        RunConfig::lj(4_000),
        CommVariant::MpiP2p,
        PlanMode::Barrier,
        2,
    );
}

#[test]
fn restored_run_is_bit_identical_on_rcb() {
    assert_restore_bit_identical(rcb_cfg(4_000), CommVariant::MpiP2p, PlanMode::Dag, 2);
}

#[test]
fn restart_file_round_trips_and_continues_bit_identically() {
    let dir = std::env::temp_dir().join(format!("tofumd-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("melt.restart");

    let cfg = RunConfig::lj(4_000);
    let mut a = Cluster::new(MESH, cfg, CommVariant::Opt);
    a.set_thermo_every(5);
    a.set_checkpoint_every(10);
    a.set_checkpoint_path(&path);
    a.run(25);

    // `read_restart` path: reload the written file mid-flight, then let
    // both runs continue to step 40; the thermo logs must agree bit for
    // bit.
    let mut b = Cluster::restore_from_file(&path).expect("file restore");
    let cp_step = b.current_step();
    assert!(
        (10..=25).contains(&cp_step),
        "auto dump expected in [10, 25], got {cp_step}"
    );
    b.set_thermo_every(5);
    a.run_to(40);
    b.run_to(40);
    let log_a: Vec<_> = a
        .thermo_log()
        .iter()
        .map(|t| (t.step, t.pe.to_bits(), t.ke.to_bits()))
        .collect();
    let log_b: Vec<_> = b
        .thermo_log()
        .iter()
        .map(|t| (t.step, t.pe.to_bits(), t.ke.to_bits()))
        .collect();
    assert_eq!(
        log_a, log_b,
        "restored thermo log must match the uninterrupted run exactly"
    );
    assert!(
        b.recovery_stats().checkpoints >= 1,
        "restored counters travel"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_charge_virtual_time_but_not_physics() {
    let cfg = RunConfig::lj(4_000);
    let mut plain = Cluster::new(MESH, cfg, CommVariant::Opt);
    let mut dumped = Cluster::new(MESH, cfg, CommVariant::Opt);
    plain.set_thermo_every(5);
    dumped.set_thermo_every(5);
    dumped.set_checkpoint_every(5);
    plain.run(25);
    dumped.run(25);
    let stats = dumped.recovery_stats();
    assert!(stats.checkpoints >= 1, "stats: {stats:?}");
    assert!(stats.checkpoint_cost > 0.0);
    assert!(
        dumped.step_time() > plain.step_time(),
        "checkpoint cost must surface in virtual time"
    );
    let bits = |c: &Cluster| {
        c.thermo_log()
            .iter()
            .map(|t| (t.step, t.pe.to_bits(), t.ke.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&plain),
        bits(&dumped),
        "dumps must not perturb physics"
    );
}

#[test]
fn mid_epoch_checkpoints_are_refused() {
    let mut c = Cluster::new(MESH, RunConfig::lj(4_000), CommVariant::Opt);
    // Right after setup the cluster sits at a valid boundary.
    c.checkpoint_now().expect("post-setup dump is legal");
    // Within 10 steps at least one step must end mid-neighbor-epoch.
    let mut refused = false;
    for _ in 0..10 {
        c.run(1);
        match c.checkpoint_now() {
            Ok(_) => {}
            Err(CheckpointError::NotCheckpointable(msg)) => {
                assert!(msg.contains("reneighbor"), "msg: {msg}");
                refused = true;
                break;
            }
            Err(e) => panic!("wrong error kind: {e}"),
        }
    }
    assert!(refused, "every step reneighbored?! delay tuning changed");
}

#[test]
fn damaged_restart_files_are_rejected_with_typed_errors() {
    let mut c = Cluster::new(MESH, RunConfig::lj(2_048), CommVariant::MpiP2p);
    // Reneighboring is sparse at this size; step until a boundary lets a
    // dump through instead of guessing the rebuild schedule.
    let mut sealed = false;
    for _ in 0..40 {
        c.run(1);
        if c.checkpoint_now().is_ok() {
            sealed = true;
            break;
        }
    }
    assert!(sealed, "no reneighbor boundary within 40 steps");
    let good = c.last_checkpoint().unwrap().to_vec();
    assert!(Cluster::restore_from_bytes(&good).is_ok());

    // Bad magic.
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        Cluster::restore_from_bytes(&bad),
        Err(CheckpointError::BadMagic)
    ));
    // Payload corruption at a handful of offsets: checksum catches it.
    for frac in [3usize, 5, 7] {
        let mut bad = good.clone();
        let i = 8 + (bad.len() - 16) / frac;
        bad[i] ^= 0x10;
        assert!(matches!(
            Cluster::restore_from_bytes(&bad),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }
    // Truncation at any cut is typed.
    for cut in [0usize, 7, 19, good.len() / 2, good.len() - 1] {
        match CheckpointData::from_container(&good[..cut]) {
            Err(
                CheckpointError::Truncated { .. }
                | CheckpointError::BadMagic
                | CheckpointError::ChecksumMismatch { .. },
            ) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    // A missing file is an Io error, not a panic.
    assert!(matches!(
        Cluster::restore_from_file(std::path::Path::new("/nonexistent/x.restart")),
        Err(CheckpointError::Io(_))
    ));
}

/// The force pass gathers pair coefficients by atom type, so a restart
/// file whose atom carries a type the run would not assign — out of the
/// potential's range, or in range but not its tag's — is refused with a
/// typed error before any rank is rebuilt from it.
#[test]
fn restored_atom_types_must_be_the_runs() {
    let cfg = RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(2_048)
    };
    let mut c = Cluster::new(MESH, cfg, CommVariant::MpiP2p);
    c.checkpoint_now().expect("post-setup dump is legal");
    let good = c.last_checkpoint().unwrap().to_vec();
    assert!(Cluster::restore_from_bytes(&good).is_ok());
    let data = CheckpointData::from_container(&good).unwrap();
    let tag = data.ranks[0].atoms.tag[0];
    let wrong = 3 - cfg.type_of_tag(tag);
    for typ in [3, wrong] {
        let mut bad = CheckpointData::from_container(&good).unwrap();
        bad.ranks[0].atoms.typ[0] = typ;
        match Cluster::restore_from_bytes(&bad.to_container()) {
            Err(CheckpointError::Decode(m)) => assert!(m.contains("type"), "{m}"),
            Err(e) => panic!("type {typ}: wrong error kind: {e}"),
            Ok(_) => panic!("type {typ} on tag {tag} restored"),
        }
    }
}
