//! Maxwell-Boltzmann velocity initialization (LAMMPS `velocity create`).

use crate::atom::Atoms;
use crate::thermo;
use crate::units::UnitSystem;

/// Initialize local-atom velocities from a Gaussian distribution at
/// temperature `t_target`, remove the center-of-mass drift, and rescale to
/// hit the target exactly (matching `velocity all create T seed`).
///
/// Deterministic for a given `seed`, independent of atom count changes
/// elsewhere — each atom's draw is keyed on its global tag so that
/// decomposed and serial runs of the same system start identically.
pub fn create_velocities(
    atoms: &mut Atoms,
    mass: f64,
    t_target: f64,
    units: UnitSystem,
    seed: u64,
) {
    assert!(t_target >= 0.0);
    let sigma = (units.boltzmann() * t_target / (units.mvv2e() * mass)).sqrt();
    for i in 0..atoms.nlocal {
        let mut rng = Xoshiro256pp::seeded(seed ^ atoms.tag[i].wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for d in 0..3 {
            atoms.v[i][d] = sigma * gaussian(&mut rng);
        }
    }
}

/// Remove the aggregate center-of-mass velocity `vcm` from local atoms and
/// rescale kinetic energy so the *global* system of `natoms_global` atoms
/// sits exactly at `t_target`. In a decomposed run, `vcm` and
/// `ke_after_drift` must be globally reduced first; the serial path in
/// [`finalize_velocities_serial`] does both steps in one call.
pub fn apply_drift_and_scale(
    atoms: &mut Atoms,
    vcm: [f64; 3],
    ke_after_drift: f64,
    natoms_global: usize,
    t_target: f64,
    units: UnitSystem,
) {
    for i in 0..atoms.nlocal {
        for d in 0..3 {
            atoms.v[i][d] -= vcm[d];
        }
    }
    if ke_after_drift > 0.0 && t_target > 0.0 {
        let t_now = thermo::temperature(ke_after_drift, natoms_global, units);
        let scale = (t_target / t_now).sqrt();
        for i in 0..atoms.nlocal {
            for d in 0..3 {
                atoms.v[i][d] *= scale;
            }
        }
    }
}

/// Serial convenience: create, de-drift and scale in one call.
pub fn finalize_velocities_serial(
    atoms: &mut Atoms,
    mass: f64,
    t_target: f64,
    units: UnitSystem,
    seed: u64,
) {
    create_velocities(atoms, mass, t_target, units, seed);
    let vcm = center_of_mass_velocity(atoms);
    let mut shifted = atoms.clone();
    for i in 0..shifted.nlocal {
        for d in 0..3 {
            shifted.v[i][d] -= vcm[d];
        }
    }
    let ke = thermo::kinetic_energy(&shifted, mass, units);
    apply_drift_and_scale(atoms, vcm, ke, atoms.nlocal, t_target, units);
}

/// Mean velocity of local atoms (equal masses).
#[must_use]
pub fn center_of_mass_velocity(atoms: &Atoms) -> [f64; 3] {
    let mut v = [0.0; 3];
    if atoms.nlocal == 0 {
        return v;
    }
    for i in 0..atoms.nlocal {
        for d in 0..3 {
            v[d] += atoms.v[i][d];
        }
    }
    for d in &mut v {
        *d /= atoms.nlocal as f64;
    }
    v
}

/// The xoshiro256++ generator, its state seeded by four splitmix64
/// outputs: deterministic and the same on every platform. Each atom draws
/// from its own short stream keyed on its tag.
struct Xoshiro256pp([u64; 4]);

impl Xoshiro256pp {
    fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        Xoshiro256pp(std::array::from_fn(|_| {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }))
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Box-Muller standard normal deviate.
fn gaussian(rng: &mut Xoshiro256pp) -> f64 {
    loop {
        let u1 = rng.unit();
        let u2 = rng.unit();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: usize) -> Atoms {
        let mut pos = Vec::new();
        for i in 0..n {
            pos.push([i as f64, 0.0, 0.0]);
        }
        Atoms::from_positions(pos, 1)
    }

    #[test]
    fn hits_target_temperature_exactly() {
        let mut a = block(500);
        finalize_velocities_serial(&mut a, 1.0, 1.44, UnitSystem::Lj, 42);
        let ke = thermo::kinetic_energy(&a, 1.0, UnitSystem::Lj);
        let t = thermo::temperature(ke, a.nlocal, UnitSystem::Lj);
        assert!((t - 1.44).abs() < 1e-10, "temperature {t}");
    }

    #[test]
    fn zero_net_momentum() {
        let mut a = block(200);
        finalize_velocities_serial(&mut a, 1.0, 2.0, UnitSystem::Lj, 7);
        let vcm = center_of_mass_velocity(&a);
        for d in 0..3 {
            assert!(vcm[d].abs() < 1e-12, "residual drift {vcm:?}");
        }
    }

    #[test]
    fn deterministic_and_tag_keyed() {
        let mut a1 = block(50);
        let mut a2 = block(50);
        create_velocities(&mut a1, 1.0, 1.0, UnitSystem::Lj, 99);
        create_velocities(&mut a2, 1.0, 1.0, UnitSystem::Lj, 99);
        assert_eq!(a1.v, a2.v);
        // Different seed gives different velocities.
        let mut a3 = block(50);
        create_velocities(&mut a3, 1.0, 1.0, UnitSystem::Lj, 100);
        assert_ne!(a1.v, a3.v);
    }

    #[test]
    fn tag_keying_is_decomposition_invariant() {
        // The same tags produce the same draws regardless of local ordering.
        let mut whole = block(10);
        create_velocities(&mut whole, 1.0, 1.5, UnitSystem::Lj, 5);
        // A "rank" holding only atoms 6..10 (same tags).
        let mut part = Atoms::from_positions(
            (6..10).map(|i| [i as f64, 0.0, 0.0]).collect(),
            7, // tags 7,8,9,10 — matches whole.tag[6..10]
        );
        create_velocities(&mut part, 1.0, 1.5, UnitSystem::Lj, 5);
        for (k, i) in (6..10).enumerate() {
            assert_eq!(whole.v[i], part.v[k]);
        }
    }

    /// One FNV-1a step per byte of `word`.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    #[test]
    fn draws_keep_their_recorded_bits() {
        // The generator's stream is part of every committed result: the
        // first 16 uniform draws for two seeds, bit for bit, and a digest
        // of every velocity bit of a 4x4x4 FCC block at the Table-2 LJ
        // and EAM settings (seed 20230612).
        let draws = |seed| {
            let mut rng = Xoshiro256pp::seeded(seed);
            std::array::from_fn::<u64, 16, _>(|_| rng.unit().to_bits())
        };
        let got = [draws(42), draws(20_230_612)];
        assert_eq!(
            got,
            [
                [
                    0x3fea_0ec9_a9e8_8ecd,
                    0x3fd4_6790_5d15_dbcc,
                    0x3fef_7c0f_9f61_849d,
                    0x3fe6_6fb3_ec01_9b06,
                    0x3fe9_6463_870e_908d,
                    0x3fe2_d1b3_e009_ca1b,
                    0x3fc0_0b8c_7f91_0d18,
                    0x3fe3_5d29_c0e1_db19,
                    0x3fca_9679_ed78_4ae4,
                    0x3fed_ddfa_c643_3694,
                    0x3fe1_e7bf_5300_41cf,
                    0x3feb_3371_c00f_25e6,
                    0x3fe5_c29c_ee0a_86b3,
                    0x3fb1_ccbf_bb36_5908,
                    0x3fd9_cbf3_f53b_f438,
                    0x3fe1_78dd_0b1a_0a02,
                ],
                [
                    0x3fe2_dd95_3456_a2b7,
                    0x3fe2_65e5_73ee_b311,
                    0x3fe7_ce51_afbb_a4f3,
                    0x3fe5_8856_a83f_59ed,
                    0x3fe6_b2b2_fb16_d44e,
                    0x3fc1_3b51_440d_b908,
                    0x3fd4_1142_1a9f_1136,
                    0x3fa8_d744_e974_4fc0,
                    0x3fa5_2ceb_be14_0360,
                    0x3fee_1faf_3ce0_68b4,
                    0x3fa6_acf6_1f9c_be00,
                    0x3fea_96b0_cab9_5796,
                    0x3fe1_8cec_6bbf_4780,
                    0x3fe9_02c9_72d0_0d7a,
                    0x3fef_2e5e_7b0e_1af1,
                    0x3fa4_5215_c0b8_80b0,
                ],
            ],
            "{got:#018x?}"
        );
        let block = |lat: crate::lattice::FccLattice, mass, t, units| {
            let mut a = Atoms::from_positions(lat.build(4, 4, 4).1, 1);
            create_velocities(&mut a, mass, t, units, 20_230_612);
            let mut h = 0xcbf2_9ce4_8422_2325;
            for v in a.v.iter().flatten() {
                fnv(&mut h, v.to_bits());
            }
            (a.nlocal, h)
        };
        let lj = block(
            crate::lattice::FccLattice::from_reduced_density(0.8442),
            1.0,
            1.44,
            UnitSystem::Lj,
        );
        let eam = block(
            crate::lattice::FccLattice::from_cell(3.615),
            63.55,
            1600.0,
            UnitSystem::Metal,
        );
        assert_eq!(
            [lj, eam],
            [(256, 0xf18d_bcb3_5f35_4461), (256, 0x973e_3384_aaac_0076)],
            "{:#018x} {:#018x}",
            lj.1,
            eam.1
        );
    }

    #[test]
    fn zero_temperature_means_zero_velocities() {
        let mut a = block(20);
        finalize_velocities_serial(&mut a, 1.0, 0.0, UnitSystem::Lj, 3);
        for i in 0..a.nlocal {
            assert_eq!(a.v[i], [0.0; 3]);
        }
    }
}
