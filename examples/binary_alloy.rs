//! A 50/50 binary Lennard-Jones alloy with unequal masses, run through the
//! paper's optimized communication: atom species travel with the ghosts
//! (packed into the tag/type wire records), Lorentz-Berthelot mixing sets
//! the cross-interaction, and per-type masses drive the integrator.
//!
//!     cargo run --release --example binary_alloy

#![deny(clippy::unwrap_used, clippy::expect_used)]

use tofumd::md::lattice::FccLattice;
use tofumd::md::neighbor::RebuildPolicy;
use tofumd::md::potential::{LjCut, Potential};
use tofumd::md::{velocity, Atoms, Masses, Rdf, SerialSim, UnitSystem};
use tofumd::runtime::{Cluster, CommVariant, PotentialKind, RunConfig};

fn main() {
    println!("Binary LJ alloy (species by tag parity), optimized communication\n");

    // Decomposed run over 48 simulated ranks.
    let cfg = RunConfig {
        kind: PotentialKind::LjBinary,
        ..RunConfig::lj(8_000)
    };
    let mut cluster = Cluster::new([2, 3, 2], cfg, CommVariant::Opt);
    let (mut n1, mut n2) = (0usize, 0usize);
    for st in cluster.states() {
        for i in 0..st.atoms.nlocal {
            if st.atoms.typ[i] == 1 {
                n1 += 1;
            } else {
                n2 += 1;
            }
        }
    }
    println!(
        "{} atoms: {n1} of species A, {n2} of species B",
        cluster.natoms()
    );
    cluster.run(60);
    let t = cluster.thermo();
    println!(
        "after 60 steps: T = {:.4}, P = {:+.4}, E = {:.2}",
        t.temperature,
        t.pressure,
        t.total_energy()
    );

    // Serial twin with per-type masses (A light, B 4x heavier) and a
    // partial-structure look via the RDF.
    println!("\nserial alloy with masses (1.0, 4.0):");
    let lat = FccLattice::from_reduced_density(0.8442);
    let (bounds, pos) = lat.build(5, 5, 5);
    let n = pos.len();
    let mut atoms = Atoms::from_positions(pos, 1);
    for i in 0..n {
        atoms.typ[i] = 1 + (i % 2) as u32;
    }
    velocity::finalize_velocities_serial(&mut atoms, 1.0, 1.0, UnitSystem::Lj, 3);
    let mut sim = SerialSim::new(
        atoms,
        bounds,
        Potential::Pair(Box::new(LjCut::from_types(&[(1.0, 1.0), (0.8, 0.9)], 2.5))),
        UnitSystem::Lj,
        0.3,
        RebuildPolicy {
            every: 5,
            check: true,
        },
        0.003,
        1.0,
    );
    sim.set_masses(Masses::per_type(vec![1.0, 4.0]));
    let e0 = sim.snapshot().total_energy();
    sim.run(300);
    let s = sim.snapshot();
    println!(
        "  300 steps: T = {:.4}, E drift = {:.2e}/atom",
        s.temperature,
        (s.total_energy() - e0).abs() / n as f64
    );
    let mut rdf = Rdf::new(3.0, 60);
    rdf.sample(&sim.atoms, &sim.bounds);
    let (r1, g1) = rdf.peak(&sim.bounds);
    println!("  RDF first peak at r = {r1:.3} (g = {g1:.1})");

    // Equipartition check: both species at the same kinetic temperature.
    let (mut mv2a, mut mv2b, mut na, mut nb) = (0.0, 0.0, 0, 0);
    for i in 0..sim.atoms.nlocal {
        let v = sim.atoms.v[i];
        let v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
        if sim.atoms.typ[i] == 1 {
            mv2a += v2;
            na += 1;
        } else {
            mv2b += 4.0 * v2;
            nb += 1;
        }
    }
    println!(
        "  equipartition: m<v^2> light/heavy = {:.3} (1.0 = perfect)",
        (mv2a / na as f64) / (mv2b / nb as f64)
    );
}
