//! Checkpoint/restart correctness: a run restored from a checkpoint must
//! be *bit-identical* to the run that never stopped — verified by the
//! lockstep bisector at tolerance 0.0 across thread counts, plan modes
//! and engine variants — and damaged restart files must be rejected with
//! typed errors, never panics. See DESIGN.md §15.

use tofumd_md::domain::RcbDecomposition;
use tofumd_runtime::checkpoint::{fnv1a64, CheckpointData, CheckpointError};
use tofumd_runtime::{
    bisect_clusters, Cluster, CommVariant, LockstepOptions, PlanMode, PotentialKind, RunConfig,
};
use tofumd_tofu::{FaultKind, FaultPlan, FaultRule};

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

/// Border packs every tag into the wire's 48-bit id field, so a restart
/// file whose tags do not fit — here every rank-0 tag moved past the field,
/// still unique, and the container resealed — is refused with a typed error
/// instead of panicking in the first Border the restore replays.
#[test]
fn restored_atom_tags_must_fit_the_wire() {
    let mut c = Cluster::new(MESH, RunConfig::lj(2_048), CommVariant::MpiP2p);
    c.checkpoint_now().expect("post-setup dump is legal");
    let good = c.last_checkpoint().unwrap().to_vec();
    let mut bad = CheckpointData::from_container(&good).unwrap();
    assert!(bad.ranks[0].atoms.nlocal > 0, "rank 0 holds atoms");
    for (i, tag) in bad.ranks[0].atoms.tag.iter_mut().enumerate() {
        *tag = (1 << 48) + i as u64;
    }
    match Cluster::restore_from_bytes(&bad.to_container()) {
        Err(CheckpointError::Decode(m)) => assert!(m.contains("tag"), "{m}"),
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("a tag past the wire's field restored"),
    }
}

/// A restart file naming a dead rank describes a shrunken run: the
/// survivors' RCB tree owns every atom and the dead rank's dump is empty.
/// A file without that tree — which the restore's Border replay would
/// deadlock on, waiting for the dead rank — or whose dead rank still
/// holds atoms no phase would ever move, is refused with a typed error.
#[test]
fn restored_dead_rank_needs_the_survivors_tree() {
    // A grid checkpoint resealed as if rank 5 had died.
    let mut c = Cluster::new(MESH, RunConfig::lj(2_048), CommVariant::MpiP2p);
    c.checkpoint_now().expect("post-setup dump is legal");
    let mut bad = CheckpointData::from_container(c.last_checkpoint().unwrap()).unwrap();
    bad.dead = Some(5);
    match Cluster::restore_from_bytes(&bad.to_container()) {
        Err(CheckpointError::Decode(m)) => assert!(m.contains("tree"), "{m}"),
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("a dead rank without the survivors' tree restored"),
    }
    // An RCB checkpoint resealed with its last rank dead over an
    // (n-1)-part tree of its positions, the dead rank's atoms left behind.
    let mut c = Cluster::new(MESH, rcb_cfg(4_000), CommVariant::MpiP2p);
    c.checkpoint_now().expect("post-setup dump is legal");
    let mut bad = CheckpointData::from_container(c.last_checkpoint().unwrap()).unwrap();
    let dead = bad.ranks.len() - 1;
    assert!(
        bad.ranks[dead].atoms.nlocal > 0,
        "the last rank holds atoms"
    );
    let xs: Vec<[f64; 3]> = bad.ranks.iter().flat_map(|d| d.atoms.x.clone()).collect();
    bad.rcb = Some(RcbDecomposition::build(dead, &xs, &c.global_box()));
    bad.dead = Some(dead as u32);
    match Cluster::restore_from_bytes(&bad.to_container()) {
        Err(CheckpointError::Decode(m)) => assert!(m.contains("holds"), "{m}"),
        Err(e) => panic!("wrong error kind: {e}"),
        Ok(_) => panic!("a dead rank holding atoms restored"),
    }
}

/// The 48-rank RCB run of `fault.rs`'s
/// `rank_death_rolls_back_and_recovers_on_survivors`: rank 17 dies at step
/// 30 and checkpoints land every 10 steps.
fn faulted_rcb_run() -> Cluster {
    let kill = FaultKind::KillRank { step: 30, rank: 17 };
    let plan = FaultPlan::new().with_rule(FaultRule::any(kill));
    let mut c = Cluster::with_fault_plan(MESH, rcb_cfg(4_000), CommVariant::MpiP2p, plan);
    c.set_thermo_every(5);
    c.set_checkpoint_every(10);
    c
}

/// The last checkpoint of [`faulted_rcb_run`] brought to step 45: the
/// shrunken run at step 40, rank 17 dead.
fn post_recovery_checkpoint() -> Vec<u8> {
    let mut c = faulted_rcb_run();
    c.run_to(45);
    assert_eq!(c.dead_rank(), Some(17), "the kill must have been recovered");
    c.last_checkpoint().expect("checkpointed").to_vec()
}

/// One FNV-1a digest over the bits of every rank's clock and stage times
/// after the cluster restored from `bytes` ran 10 steps.
fn restored_clock_digest(bytes: &[u8]) -> u64 {
    let mut c = Cluster::restore_from_bytes(bytes).expect("restore must succeed");
    c.run(10);
    let mut bits = Vec::new();
    for st in c.states() {
        let s = st.stages;
        let words = [
            st.clock,
            s.pair,
            s.pair_comm,
            s.neigh,
            s.comm,
            s.modify,
            s.other,
            s.overlapped,
        ];
        for w in words {
            bits.extend_from_slice(&w.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bits)
}

/// A restored run's modeled time is a function of the checkpoint alone:
/// every rank's clock and stage times, 10 steps after restoring the
/// checkpoints of `assert_restore_bit_identical`'s three configs and of
/// the shrunken post-recovery run, are the recorded bits. A change to how
/// a restore seats its decomposition must not move them.
#[test]
fn restored_clocks_and_stage_times_are_pinned() {
    let checkpoint = |cfg, variant| {
        let mut c = Cluster::new(MESH, cfg, variant);
        c.set_checkpoint_every(8);
        c.run(20);
        c.last_checkpoint().expect("checkpointed").to_vec()
    };
    let cases = [
        (
            "opt grid",
            checkpoint(RunConfig::lj(4_000), CommVariant::Opt),
            0x541c_3e2a_f958_991a,
        ),
        (
            "mpi-p2p grid",
            checkpoint(RunConfig::lj(4_000), CommVariant::MpiP2p),
            0x12c2_a245_b585_c1f7,
        ),
        (
            "mpi-p2p rcb",
            checkpoint(rcb_cfg(4_000), CommVariant::MpiP2p),
            0xa07c_67ce_64f3_8ceb,
        ),
        (
            "post-recovery",
            post_recovery_checkpoint(),
            0x6192_1b14_27a4_167f,
        ),
    ];
    for (name, bytes, want) in cases {
        let got = restored_clock_digest(&bytes);
        assert_eq!(got, want, "{name}: digest {got:#018x}");
    }
}

/// A restart file's proxy mesh is checked before anything is assembled on
/// it: a mesh that does not fold onto TofuD cells, or whose node count
/// does not hold the file's ranks (four per node), is a typed error, not a
/// panic in the fabric's constructor.
#[test]
fn restored_mesh_must_fold_onto_tofu_cells() {
    let mut c = Cluster::new(MESH, RunConfig::lj(2_048), CommVariant::MpiP2p);
    c.checkpoint_now().expect("post-setup dump is legal");
    let good = c.last_checkpoint().unwrap().to_vec();
    // [1, 1, 1] and [0, 3, 2] (zero nodes) hold too few ranks; [1, 1, 12]
    // holds all 48 but has no 2 × 3 × 2 cell fold.
    for (mesh, want) in [
        ([1, 1, 1], "ranks"),
        ([0, 3, 2], "ranks"),
        ([1, 1, 12], "fold"),
    ] {
        let mut bad = CheckpointData::from_container(&good).unwrap();
        bad.proxy_mesh = mesh;
        match Cluster::restore_from_bytes(&bad.to_container()) {
            Err(CheckpointError::Decode(m)) => assert!(m.contains(want), "{mesh:?}: {m}"),
            Err(e) => panic!("{mesh:?}: wrong error kind: {e}"),
            Ok(_) => panic!("mesh {mesh:?} restored"),
        }
    }
}

/// A checkpoint the shrunken run sealed after a recovery restores onto the
/// survivors: the restored run matches a twin of the faulted run brought
/// to the checkpoint's step, bit for bit, at threads {1, 2}.
#[test]
fn post_recovery_checkpoint_restores_bit_identically() {
    let bytes = post_recovery_checkpoint();
    for threads in [1usize, 2] {
        let mut restored = Cluster::restore_from_bytes(&bytes).expect("restore must succeed");
        assert_eq!(
            (restored.current_step(), restored.dead_rank()),
            (40, Some(17))
        );
        restored.set_driver_threads(threads);
        let mut twin = faulted_rcb_run();
        twin.set_driver_threads(threads);
        twin.run_to(40);
        let report = bisect_clusters(
            &mut restored,
            &mut twin,
            &LockstepOptions {
                steps: 10,
                tol: 0.0,
            },
        );
        assert!(
            report.is_clean(),
            "post-recovery restore diverged (threads {threads}):\n{}",
            report.render()
        );
    }
}
