//! Integration: every communication variant computes the same physics,
//! and all of them agree with the serial reference engine — the Fig. 11
//! claim ("our optimized version ... retains the original precision").

use tofumd::md::{thermo, velocity, Atoms, SerialSim};
use tofumd::runtime::{Cluster, CommVariant, RunConfig};

const MESH: [u32; 3] = [2, 3, 2]; // 12 nodes, 48 ranks

/// Gather a cluster's local atoms into one tag-sorted serial system.
fn gather(cluster: &Cluster) -> Vec<(u64, [f64; 3], [f64; 3])> {
    let mut out = Vec::new();
    for st in cluster.states() {
        for i in 0..st.atoms.nlocal {
            out.push((st.atoms.tag[i], st.atoms.x[i], st.atoms.v[i]));
        }
    }
    out.sort_unstable_by_key(|e| e.0);
    out
}

fn serial_twin(cluster: &Cluster, cfg: &RunConfig) -> SerialSim {
    let g = gather(cluster);
    let mut atoms = Atoms::from_positions(g.iter().map(|e| e.1).collect(), 1);
    for (i, e) in g.iter().enumerate() {
        atoms.v[i] = e.2;
    }
    SerialSim::new(
        atoms,
        cluster.global_box(),
        cfg.build_potential(),
        cfg.units(),
        cfg.skin(),
        cfg.policy(),
        cfg.timestep(),
        cfg.mass(),
    )
}

#[test]
fn lj_variants_match_serial_over_30_steps() {
    let cfg = RunConfig::lj(6000);
    let mut reference: Option<(f64, f64)> = None;
    for variant in CommVariant::STEP_BY_STEP {
        let mut c = Cluster::new(MESH, cfg, variant);
        if reference.is_none() {
            // Build the serial twin from the first cluster's initial state
            // and advance it the same number of steps.
            let mut s = serial_twin(&c, &cfg);
            s.run(30);
            let snap = s.snapshot();
            reference = Some((snap.pe, snap.pressure));
        }
        c.run(30);
        let t = c.thermo();
        let (pe_ref, p_ref) = reference.unwrap();
        assert!(
            (t.pe - pe_ref).abs() / pe_ref.abs() < 1e-9,
            "{}: pe {} vs serial {}",
            variant.label(),
            t.pe,
            pe_ref
        );
        assert!(
            (t.pressure - p_ref).abs() / p_ref.abs() < 1e-8,
            "{}: pressure {} vs serial {}",
            variant.label(),
            t.pressure,
            p_ref
        );
    }
}

#[test]
fn eam_opt_matches_serial_over_20_steps() {
    let cfg = RunConfig::eam(6000);
    let mut c = Cluster::new(MESH, cfg, CommVariant::Opt);
    let mut s = serial_twin(&c, &cfg);
    s.run(20);
    c.run(20);
    let snap = s.snapshot();
    let t = c.thermo();
    assert!(
        (t.pe - snap.pe).abs() / snap.pe.abs() < 1e-9,
        "EAM pe {} vs serial {}",
        t.pe,
        snap.pe
    );
    assert!(
        (t.ke - snap.ke).abs() / snap.ke < 1e-9,
        "EAM ke {} vs serial {}",
        t.ke,
        snap.ke
    );
}

#[test]
fn sw_silicon_matches_serial_and_conserves() {
    // Stillinger-Weber: full list + ghost-force reverse over 26 links —
    // the Tersoff/DeePMD communication class of Fig. 15, with real
    // three-body forces — on one driver thread and on eight.
    let cfg = RunConfig::sw(6000);
    for threads in [1, 8] {
        let mut c = Cluster::new(MESH, cfg, CommVariant::Opt);
        c.set_driver_threads(threads);
        let mut s = serial_twin(&c, &cfg);
        let e0 = c.thermo().total_energy();
        s.run(15);
        c.run(15);
        let snap = s.snapshot();
        let t = c.thermo();
        assert!(
            (t.pe - snap.pe).abs() / snap.pe.abs() < 1e-9,
            "SW pe {} vs serial {} at {threads} threads",
            t.pe,
            snap.pe
        );
        assert!((t.ke - snap.ke).abs() / snap.ke < 1e-9);
        // The Table-2 timestep (5 fs) is large for SW's stiff bonds, so
        // some integration drift is expected — what matters here is that
        // the decomposed run tracks the serial one exactly (asserted above)
        // and that the drift stays bounded.
        let drift = (t.total_energy() - e0).abs() / c.natoms() as f64;
        assert!(drift < 2e-2, "SW cluster energy drift {drift} eV/atom");
    }
}

#[test]
fn full_list_variant_matches_half_list_physics() {
    // Full-list LJ (26 neighbors, no reverse) and half-list LJ must give
    // identical forces — only the communication pattern differs.
    use tofumd::runtime::PotentialKind;
    let half = RunConfig::lj(6000);
    let full = RunConfig {
        kind: PotentialKind::LjFull,
        ..half
    };
    let mut c_half = Cluster::new(MESH, half, CommVariant::Opt);
    let mut c_full = Cluster::new(MESH, full, CommVariant::Opt);
    c_half.run(15);
    c_full.run(15);
    let th = c_half.thermo();
    let tf = c_full.thermo();
    assert!((th.pe - tf.pe).abs() / th.pe.abs() < 1e-9);
    assert!((th.ke - tf.ke).abs() / th.ke < 1e-9);
}

#[test]
fn momentum_conserved_across_decomposed_run() {
    let mut c = Cluster::new(MESH, RunConfig::lj(6000), CommVariant::Opt);
    c.run(40); // crosses an exchange/rebuild
    let mut p = [0.0f64; 3];
    let mut n = 0usize;
    for st in c.states() {
        for i in 0..st.atoms.nlocal {
            for (pd, &v) in p.iter_mut().zip(&st.atoms.v[i]) {
                *pd += v;
            }
        }
        n += st.atoms.nlocal;
    }
    for d in 0..3 {
        assert!(
            (p[d] / n as f64).abs() < 1e-10,
            "momentum drift {p:?} after migration"
        );
    }
}

#[test]
fn atom_count_invariant_under_migration() {
    let cfg = RunConfig::lj(6000);
    let mut c = Cluster::new(MESH, cfg, CommVariant::Utofu4TniP2p);
    let n0 = c.natoms();
    c.run(45); // multiple exchange stages at T = 1.44 (melting)
    assert_eq!(c.natoms(), n0, "atoms lost or duplicated by exchange");
    // Tags must remain a permutation of 1..=n.
    let mut tags: Vec<u64> = c
        .states()
        .iter()
        .flat_map(|s| s.atoms.tag[..s.atoms.nlocal].to_vec())
        .collect();
    tags.sort_unstable();
    assert!(tags.windows(2).all(|w| w[0] < w[1]), "duplicate tags");
    assert_eq!(tags[0], 1);
    assert_eq!(*tags.last().unwrap(), n0 as u64);
}

#[test]
fn serial_and_cluster_temperature_equipartition() {
    // Sanity: the decomposed velocity initialization hits the target
    // temperature exactly (global reductions correct).
    let cfg = RunConfig::lj(6000);
    let c = Cluster::new(MESH, cfg, CommVariant::Ref);
    let mut ke = 0.0;
    let mut n = 0;
    for st in c.states() {
        ke += thermo::kinetic_energy(&st.atoms, cfg.mass(), cfg.units());
        n += st.atoms.nlocal;
    }
    let t = thermo::temperature(ke, n, cfg.units());
    assert!((t - 1.44).abs() < 1e-9, "initial temperature {t}");
    // And the serial helper agrees with the cluster path.
    let mut atoms = Atoms::from_positions(vec![[0.0; 3]; 100], 1);
    velocity::finalize_velocities_serial(&mut atoms, 1.0, 1.44, cfg.units(), 1);
    let ke_s = thermo::kinetic_energy(&atoms, 1.0, cfg.units());
    let t_s = thermo::temperature(ke_s, 100, cfg.units());
    assert!((t_s - 1.44).abs() < 1e-9);
}

#[test]
fn binary_mixture_types_survive_the_wire() {
    // A 50/50 LJ mixture: types must travel with ghosts through border /
    // forward / exchange, or the forces are silently wrong. Compared
    // against the serial engine with the same tag-parity assignment, on
    // one driver thread and on eight.
    use tofumd::runtime::PotentialKind;
    let cfg = RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(6000)
    };
    for threads in [1, 8] {
        let mut c = Cluster::new(MESH, cfg, CommVariant::Opt);
        c.set_driver_threads(threads);
        // Serial twin with types by tag parity.
        let g = gather(&c);
        let mut atoms = Atoms::from_positions(g.iter().map(|e| e.1).collect(), 1);
        for (i, e) in g.iter().enumerate() {
            atoms.v[i] = e.2;
            atoms.typ[i] = cfg.type_of_tag(e.0);
        }
        let mut s = SerialSim::new(
            atoms,
            c.global_box(),
            cfg.build_potential(),
            cfg.units(),
            cfg.skin(),
            cfg.policy(),
            cfg.timestep(),
            cfg.mass(),
        );
        // Every ghost in the cluster must carry its owner's species.
        for st in c.states() {
            for gi in st.atoms.nlocal..st.atoms.ntotal() {
                assert_eq!(
                    st.atoms.typ[gi],
                    cfg.type_of_tag(st.atoms.tag[gi]),
                    "ghost type mismatch for tag {}",
                    st.atoms.tag[gi]
                );
            }
        }
        s.run(25); // crosses the every-20 rebuild (exchange carries types too)
        c.run(25);
        let snap = s.snapshot();
        let t = c.thermo();
        assert!(
            (t.pe - snap.pe).abs() / snap.pe.abs() < 1e-9,
            "binary pe {} vs serial {} at {threads} threads",
            t.pe,
            snap.pe
        );
        assert!((t.ke - snap.ke).abs() / snap.ke < 1e-9);
    }
}

#[test]
fn long_cutoff_staged_engines_match_serial() {
    // Cutoff > sub-box edge: the staged engines must relay ghosts across
    // two swaps per dimension (the multi-swap path), and still reproduce
    // the serial engine exactly.
    use tofumd::runtime::PotentialKind;
    let cfg = RunConfig {
        kind: PotentialKind::LjLongCutoff {
            cutoff: 5.0,
            full: false,
        },
        ..RunConfig::lj(6000)
    };
    for variant in [CommVariant::Ref, CommVariant::Utofu3Stage, CommVariant::Opt] {
        let mut c = Cluster::new(MESH, cfg, variant);
        let mut s = serial_twin(&c, &cfg);
        s.run(12);
        c.run(12);
        let snap = s.snapshot();
        let t = c.thermo();
        assert!(
            (t.pe - snap.pe).abs() / snap.pe.abs() < 1e-9,
            "{}: long-cutoff pe {} vs serial {}",
            variant.label(),
            t.pe,
            snap.pe
        );
        assert!(
            (t.ke - snap.ke).abs() / snap.ke < 1e-9,
            "{}",
            variant.label()
        );
    }
}
