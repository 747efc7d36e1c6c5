//! Property tests over the force fields: gradient consistency, Newton's
//! 3rd law and thermostat behaviour on randomized geometries.

use proptest::prelude::*;
use tofumd::md::neighbor::NeighborList;
use tofumd::md::potential::{LjCut, PairPotential, StillingerWeber};
use tofumd::md::{thermostat, velocity, Atoms, UnitSystem};

/// Compute forces + energy of an isolated cluster under a pair potential.
fn eval<P: PairPotential>(p: &P, pos: &[[f64; 3]]) -> (Vec<[f64; 3]>, f64) {
    let mut atoms = Atoms::from_positions(pos.to_vec(), 1);
    let list = NeighborList::build(
        &atoms,
        [-20.0; 3],
        [40.0; 3],
        p.list_kind(),
        p.cutoff(),
        0.0,
    );
    let ev = p.compute(&mut atoms, &list);
    (atoms.f[..atoms.nlocal].to_vec(), ev.energy)
}

/// A random 4-atom cluster with a minimum separation (avoids the singular
/// core where finite differences lose accuracy).
fn cluster_strategy(min_sep: f64, scale: f64) -> impl Strategy<Value = Vec<[f64; 3]>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 4..=4).prop_filter_map(
        "atoms too close",
        move |raw| {
            let pos: Vec<[f64; 3]> = raw
                .iter()
                .map(|&(x, y, z)| [x * scale, y * scale, z * scale])
                .collect();
            for i in 0..pos.len() {
                for j in (i + 1)..pos.len() {
                    let d2: f64 = (0..3).map(|d| (pos[i][d] - pos[j][d]).powi(2)).sum();
                    if d2 < min_sep * min_sep {
                        return None;
                    }
                }
            }
            Some(pos)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SW forces equal the negative numerical gradient of the energy for
    /// random 4-atom geometries (the three-body terms make this a strong
    /// whole-kernel check).
    #[test]
    fn sw_forces_are_energy_gradients(pos in cluster_strategy(1.8, 6.0)) {
        let sw = StillingerWeber::silicon();
        let (forces, _e) = eval(&sw, &pos);
        let h = 1e-6;
        for i in 0..pos.len() {
            for d in 0..3 {
                let mut plus = pos.clone();
                plus[i][d] += h;
                let mut minus = pos.clone();
                minus[i][d] -= h;
                let (_, ep) = eval(&sw, &plus);
                let (_, em) = eval(&sw, &minus);
                let grad = (ep - em) / (2.0 * h);
                prop_assert!(
                    (forces[i][d] + grad).abs() < 1e-4,
                    "atom {} dim {}: f = {}, -grad = {}",
                    i, d, forces[i][d], -grad
                );
            }
        }
    }

    /// LJ forces sum to zero (Newton's 3rd law) on random clusters.
    #[test]
    fn lj_net_force_vanishes(pos in cluster_strategy(0.85, 4.0)) {
        let lj = LjCut::lammps_bench();
        let (forces, _) = eval(&lj, &pos);
        for d in 0..3 {
            let net: f64 = forces.iter().map(|f| f[d]).sum();
            prop_assert!(net.abs() < 1e-9, "net force {net} in dim {d}");
        }
    }

    /// The Berendsen thermostat always moves the temperature toward the
    /// target and never overshoots past it.
    #[test]
    fn berendsen_never_overshoots(
        t_start in 0.2f64..4.0,
        t_target in 0.2f64..4.0,
        tau_over_dt in 1.0f64..50.0,
    ) {
        let mut atoms = Atoms::from_positions(
            (0..64).map(|i| [i as f64, 0.0, 0.0]).collect(),
            1,
        );
        velocity::finalize_velocities_serial(&mut atoms, 1.0, t_start, UnitSystem::Lj, 5);
        let dt = 0.005;
        let th = thermostat::Berendsen::new(t_target, tau_over_dt * dt);
        let temp = |a: &Atoms| {
            tofumd::md::thermo::temperature(
                tofumd::md::thermo::kinetic_energy(a, 1.0, UnitSystem::Lj),
                a.nlocal,
                UnitSystem::Lj,
            )
        };
        let before = temp(&atoms);
        th.apply(&mut atoms, 1.0, UnitSystem::Lj, dt);
        let after = temp(&atoms);
        // Moved toward the target...
        prop_assert!((after - t_target).abs() <= (before - t_target).abs() + 1e-12);
        // ...without crossing it.
        if before > t_target {
            prop_assert!(after >= t_target - 1e-9);
        } else if before < t_target {
            prop_assert!(after <= t_target + 1e-9);
        }
    }

    /// Velocity initialization is exact for any positive target and seed.
    #[test]
    fn velocity_init_hits_any_target(
        t_target in 1e-3f64..1e3,
        seed in any::<u64>(),
        n in 10usize..200,
    ) {
        let mut atoms = Atoms::from_positions(
            (0..n).map(|i| [i as f64, 0.0, 0.0]).collect(),
            1,
        );
        velocity::finalize_velocities_serial(&mut atoms, 1.0, t_target, UnitSystem::Lj, seed);
        let ke = tofumd::md::thermo::kinetic_energy(&atoms, 1.0, UnitSystem::Lj);
        let t = tofumd::md::thermo::temperature(ke, n, UnitSystem::Lj);
        prop_assert!((t - t_target).abs() / t_target < 1e-9);
        let vcm = velocity::center_of_mass_velocity(&atoms);
        for v in vcm {
            prop_assert!(v.abs() < 1e-9 * t_target.sqrt().max(1.0));
        }
    }
}

#[test]
fn binary_mixture_with_masses_conserves_and_equipartitions() {
    // Two species, masses 1 and 4: NVE must conserve energy, and after
    // equilibration equipartition gives both species the same kinetic
    // temperature (so mean v^2 of the heavy species is ~4x smaller).
    use tofumd::md::lattice::FccLattice;
    use tofumd::md::neighbor::RebuildPolicy;
    use tofumd::md::potential::{LjCut, Potential};
    use tofumd::md::{Masses, SerialSim};
    let lat = FccLattice::from_reduced_density(0.8442);
    let (bounds, pos) = lat.build(4, 4, 4);
    let n = pos.len();
    let mut atoms = Atoms::from_positions(pos, 1);
    for i in 0..n {
        atoms.typ[i] = 1 + (i % 2) as u32;
    }
    // Velocity init with the primary mass, then rescale kicks in via NVE.
    velocity::finalize_velocities_serial(&mut atoms, 1.0, 1.0, UnitSystem::Lj, 11);
    let mut sim = SerialSim::new(
        atoms,
        bounds,
        Potential::Pair(Box::new(LjCut::from_types(&[(1.0, 1.0), (0.9, 0.95)], 2.5))),
        UnitSystem::Lj,
        0.3,
        RebuildPolicy {
            every: 2,
            check: true,
        },
        0.003,
        1.0,
    );
    sim.set_masses(Masses::per_type(vec![1.0, 4.0]));
    let e0 = sim.snapshot().total_energy();
    sim.run(400);
    let e1 = sim.snapshot().total_energy();
    let drift = (e1 - e0).abs() / n as f64;
    assert!(drift < 5e-3, "mixture-with-masses drift {drift}");
    // Equipartition: m <v^2> equal across species (tolerance is loose —
    // 400 steps of a small system).
    let (mut mv2_light, mut n_l) = (0.0, 0);
    let (mut mv2_heavy, mut n_h) = (0.0, 0);
    for i in 0..sim.atoms.nlocal {
        let v = sim.atoms.v[i];
        let v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        if sim.atoms.typ[i] == 1 {
            mv2_light += v2;
            n_l += 1;
        } else {
            mv2_heavy += 4.0 * v2;
            n_h += 1;
        }
    }
    let ratio = (mv2_light / n_l as f64) / (mv2_heavy / n_h as f64);
    assert!(
        (0.6..1.7).contains(&ratio),
        "species kinetic temperatures should equilibrate: ratio {ratio}"
    );
}
