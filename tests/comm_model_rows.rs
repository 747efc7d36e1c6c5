//! Integration: the modeled per-step comm time of every engine variant
//! on both potentials is pinned to the bit. The comm stage is virtual
//! time — a pure function of the plan, the cost model and the atoms — so
//! any change to it is a change to the reproduced figures, never noise.
//! Thread-invariance of the same numbers is
//! `crates/runtime/tests/determinism.rs`'s job; one driver thread here.

use tofumd::md::{Atoms, SerialSim};
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks
const WARMUP: u64 = 2; // first list build + buffer registration
const STEPS: u64 = 15;

/// `(variant, [LJ, EAM] comm bits)`: mean virtual comm seconds per step
/// over `STEPS` steps after `WARMUP`, as `f64::to_bits`; the comment above
/// each row is the pair to seven digits.
const ROWS: [(CommVariant, [u64; 2]); 6] = [
    // 5.963047e-5, 6.167228e-5
    (
        CommVariant::Ref,
        [0x3f0f_4377_4ce8_ba5a, 0x3f10_2ac1_a490_84a4],
    ),
    // 8.927656e-5, 9.121843e-5
    (
        CommVariant::MpiP2p,
        [0x3f17_673f_a207_7cb6, 0x3f17_e990_b8d2_e11e],
    ),
    // 2.496706e-5, 2.450152e-5
    (
        CommVariant::Utofu3Stage,
        [0x3efa_2e0b_528e_cb9c, 0x3ef9_b113_ca0f_cadb],
    ),
    // 2.180636e-5, 2.392335e-5
    (
        CommVariant::Utofu4TniP2p,
        [0x3ef6_dd99_aad2_f6ce, 0x3ef9_15df_fec3_2e18],
    ),
    // 3.518657e-5, 3.409460e-5
    (
        CommVariant::Utofu6TniP2p,
        [0x3f02_72a9_5efa_50f0, 0x3f01_e019_ac4d_0f29],
    ),
    // 1.208381e-5, 1.260014e-5
    (
        CommVariant::Opt,
        [0x3ee9_5772_7833_fbb3, 0x3eea_6ca5_e6a2_9b26],
    ),
];

/// Total energy of a serial twin carrying the cluster's initial state
/// after `steps` steps: a pinned comm time over broken physics would pin
/// the wrong traffic.
fn serial_twin_energy(cfg: RunConfig, steps: u64) -> f64 {
    let c = Cluster::new(MESH, cfg, CommVariant::Ref);
    let mut rows = Vec::new();
    for st in c.states() {
        for i in 0..st.atoms.nlocal {
            rows.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
        }
    }
    rows.sort_unstable_by_key(|e| e.0);
    let mut atoms = Atoms::from_positions(rows.iter().map(|e| e.1).collect(), 1);
    for (i, e) in rows.iter().enumerate() {
        atoms.v[i] = e.2;
    }
    let mut serial = SerialSim::new(
        atoms,
        c.global_box(),
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    );
    serial.run(steps);
    let s = serial.snapshot();
    s.pe + s.ke
}

/// `col` picks the potential's column of [`ROWS`].
fn check(pot: &str, cfg: RunConfig, col: usize) {
    let e_serial = serial_twin_energy(cfg, WARMUP + STEPS);
    for row in &ROWS {
        let mut c = Cluster::new(MESH, cfg, row.0);
        c.run(WARMUP);
        c.reset_timers();
        c.run(STEPS);
        let comm = c.breakdown().comm;
        assert_eq!(
            comm.to_bits(),
            row.1[col],
            "{}_{pot}: modeled comm {comm:.6e} s/step = {:#018x}",
            row.0.label(),
            comm.to_bits(),
        );
        let t = c.thermo();
        let diff = ((t.pe + t.ke) - e_serial).abs() / e_serial.abs();
        assert!(
            diff < 1e-6,
            "{}_{pot}: total energy {} vs serial twin {e_serial} (rel {diff:.2e})",
            row.0.label(),
            t.pe + t.ke,
        );
    }
}

#[test]
fn lj_comm_rows_are_bit_exact() {
    check("lj", RunConfig::lj(6_000), 0);
}

#[test]
fn eam_comm_rows_are_bit_exact() {
    check("eam", RunConfig::eam(6_000), 1);
}
