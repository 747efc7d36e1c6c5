//! Multi-species Lennard-Jones with per-type-pair coefficients.
//!
//! The benchmark workloads are single-species (Table 2), but a usable MD
//! library needs alloys and mixtures: this is `pair_style lj/cut` with a
//! full `pair_coeff i j` matrix, filled by Lorentz-Berthelot mixing from
//! the diagonal. Atom types travel with ghosts through the communication
//! layer's packed tag/type wire records.

use super::lj::lj_rows;
use super::{PairEnergyVirial, PairPotential};
use crate::atom::Atoms;
use crate::kernels::{self, Direct, PairScratch};
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

/// Per-pair LJ coefficients `[lj1, lj2, lj3, lj4]` = `[48 eps sigma^12,
/// 24 eps sigma^6, 4 eps sigma^12, 4 eps sigma^6]`.
type PairCoeff = [f64; 4];

fn pair_coeff(epsilon: f64, sigma: f64) -> PairCoeff {
    let s6 = sigma.powi(6);
    let s12 = s6 * s6;
    [
        48.0 * epsilon * s12,
        24.0 * epsilon * s6,
        4.0 * epsilon * s12,
        4.0 * epsilon * s6,
    ]
}

/// Multi-type LJ potential (types are 1-based, as in LAMMPS). Every pair
/// shares one cutoff.
#[derive(Debug, Clone)]
pub struct LjCutMulti {
    ntypes: usize,
    /// Row-major `[ntypes x ntypes]` coefficient matrix.
    coeff: Vec<PairCoeff>,
    cutoff: f64,
    cutsq: f64,
    list: ListKind,
}

impl LjCutMulti {
    /// Build from per-type `(epsilon, sigma)` with a shared cutoff;
    /// off-diagonal pairs use Lorentz-Berthelot mixing
    /// (`sigma_ij = (s_i + s_j)/2`, `eps_ij = sqrt(e_i e_j)`).
    #[must_use]
    pub fn from_types(types: &[(f64, f64)], cutoff: f64) -> Self {
        assert!(!types.is_empty() && cutoff > 0.0);
        let n = types.len();
        let mut coeff = Vec::with_capacity(n * n);
        for (ei, si) in types {
            for (ej, sj) in types {
                let eps = (ei * ej).sqrt();
                let sig = 0.5 * (si + sj);
                coeff.push(pair_coeff(eps, sig));
            }
        }
        LjCutMulti {
            ntypes: n,
            coeff,
            cutoff,
            cutsq: cutoff * cutoff,
            list: ListKind::HalfNewton,
        }
    }

    #[inline]
    fn pair(&self, ti: u32, tj: u32) -> &PairCoeff {
        debug_assert!(ti >= 1 && tj >= 1, "types are 1-based");
        &self.coeff[(ti as usize - 1) * self.ntypes + (tj as usize - 1)]
    }

    /// Pair energy for types (ti, tj) at distance r (tests).
    #[must_use]
    pub fn pair_energy(&self, ti: u32, tj: u32, r: f64) -> f64 {
        if r * r >= self.cutsq {
            return 0.0;
        }
        let [_, _, lj3, lj4] = *self.pair(ti, tj);
        let inv6 = 1.0 / r.powi(6);
        lj3 * inv6 * inv6 - lj4 * inv6
    }
}

impl PairPotential for LjCutMulti {
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn list_kind(&self) -> ListKind {
        self.list
    }

    fn compute(&self, atoms: &mut Atoms, list: &NeighborList) -> PairEnergyVirial {
        let mut energy = 0.0;
        let mut virial = 0.0;
        let half = !matches!(list.kind, ListKind::Full);
        for i in 0..atoms.nlocal {
            let xi = atoms.x[i];
            let ti = atoms.typ[i];
            let mut fi = [0.0f64; 3];
            for &j in list.neighbors(i) {
                let j = j as usize;
                let xj = atoms.x[j];
                let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                if r2 >= self.cutsq {
                    continue;
                }
                let [lj1, lj2, lj3, lj4] = *self.pair(ti, atoms.typ[j]);
                let inv2 = 1.0 / r2;
                let inv6 = inv2 * inv2 * inv2;
                let fpair = inv6 * (lj1 * inv6 - lj2) * inv2;
                for d in 0..3 {
                    fi[d] += dx[d] * fpair;
                }
                let e = lj3 * inv6 * inv6 - lj4 * inv6;
                if half {
                    for d in 0..3 {
                        atoms.f[j][d] -= dx[d] * fpair;
                    }
                    energy += e;
                    virial += r2 * fpair;
                } else {
                    energy += 0.5 * e;
                    virial += 0.5 * r2 * fpair;
                }
            }
            for d in 0..3 {
                atoms.f[i][d] += fi[d];
            }
        }
        PairEnergyVirial { energy, virial }
    }

    /// LJ's blocked row body, the pair's coefficients gathered by type in
    /// the lane loop. Unshifted: an `eshift` of `0.0` leaves every pair
    /// energy's bits as they are.
    fn compute_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial {
        let nlocal = atoms.nlocal;
        let typ = &atoms.typ;
        let coeff = |i: usize, j: u32| *self.pair(typ[i], typ[j as usize]);
        match exec {
            ChunkExec::Serial => {
                let mut sink = Direct::forces(&mut atoms.f);
                lj_rows(&atoms.x, list, 0..nlocal, self.cutsq, 0.0, coeff, &mut sink);
                sink.ev()
            }
            ChunkExec::Pool(_) => {
                let (x, ntotal) = (&atoms.x, atoms.ntotal());
                scratch.log(nlocal, ntotal, exec, &|log, chunk| {
                    lj_rows(x, list, chunk, self.cutsq, 0.0, coeff, log);
                });
                kernels::replay_forces(scratch, &mut atoms.f, exec)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potential::lj::LjCut;
    use crate::potential::Potential;

    #[test]
    fn single_type_matches_plain_lj() {
        let multi = LjCutMulti::from_types(&[(1.0, 1.0)], 2.5);
        let plain = LjCut::lammps_bench();
        for &r in &[0.95, 1.2, 2.0, 2.4] {
            assert!((multi.pair_energy(1, 1, r) - plain.pair_energy(r)).abs() < 1e-12);
        }
    }

    #[test]
    fn lorentz_berthelot_mixing() {
        let multi = LjCutMulti::from_types(&[(1.0, 1.0), (4.0, 3.0)], 6.0);
        // eps_12 = sqrt(1*4) = 2, sigma_12 = 2.
        let direct = LjCut::new(2.0, 2.0, 6.0, ListKind::HalfNewton);
        for &r in &[2.0, 2.5, 3.0, 5.0] {
            assert!(
                (multi.pair_energy(1, 2, r) - direct.pair_energy(r)).abs() < 1e-10,
                "mixed pair at {r}"
            );
        }
        // Symmetric.
        assert_eq!(multi.pair_energy(1, 2, 2.3), multi.pair_energy(2, 1, 2.3));
    }

    #[test]
    fn binary_mixture_forces_respect_types() {
        // A hetero dimer at the 1-2 minimum has zero force; at the 1-1
        // minimum it does not.
        let multi = LjCutMulti::from_types(&[(1.0, 1.0), (1.0, 2.0)], 6.0);
        // sigma_12 = 1.5 -> r_min = 1.5 * 2^(1/6).
        let rmin12 = 1.5 * 2f64.powf(1.0 / 6.0);
        let mut atoms = Atoms::from_positions(vec![[0.0; 3], [rmin12, 0.0, 0.0]], 1);
        atoms.typ[1] = 2;
        let list = NeighborList::build(&atoms, [-2.0; 3], [8.0; 3], ListKind::HalfNewton, 6.0, 0.0);
        multi.compute(&mut atoms, &list);
        assert!(atoms.f[0][0].abs() < 1e-9, "mixed dimer at its minimum");
        // Same geometry with both atoms type 1 is deep on the repulsive
        // side? No: rmin12 > rmin11, so it's attractive — nonzero force.
        let mut homo = Atoms::from_positions(vec![[0.0; 3], [rmin12, 0.0, 0.0]], 1);
        let l2 = NeighborList::build(&homo, [-2.0; 3], [8.0; 3], ListKind::HalfNewton, 6.0, 0.0);
        multi.compute(&mut homo, &l2);
        assert!(homo.f[0][0].abs() > 1e-3, "homo dimer off its minimum");
    }

    #[test]
    fn mixture_conserves_energy_in_serial_md() {
        use crate::lattice::FccLattice;
        use crate::neighbor::RebuildPolicy;
        use crate::units::UnitSystem;
        use crate::velocity;
        let lat = FccLattice::from_reduced_density(0.8442);
        let (bounds, pos) = lat.build(4, 4, 4);
        let n = pos.len();
        let mut atoms = Atoms::from_positions(pos, 1);
        // Alternate species.
        for i in 0..n {
            atoms.typ[i] = 1 + (i % 2) as u32;
        }
        velocity::finalize_velocities_serial(&mut atoms, 1.0, 1.0, UnitSystem::Lj, 9);
        let multi = LjCutMulti::from_types(&[(1.0, 1.0), (0.8, 0.9)], 2.5);
        let mut sim = crate::serial::SerialSim::new(
            atoms,
            bounds,
            Potential::Pair(Box::new(multi)),
            UnitSystem::Lj,
            0.3,
            RebuildPolicy {
                every: 2,
                check: true,
            },
            0.004,
            1.0,
        );
        // Ghost types must mirror their owners.
        for gi in 0..sim.atoms.nghost() {
            let idx = sim.atoms.nlocal + gi;
            let tag = sim.atoms.tag[idx] as usize - 1;
            assert_eq!(sim.atoms.typ[idx], 1 + (tag % 2) as u32);
        }
        let e0 = sim.snapshot().total_energy();
        sim.run(100);
        let drift = (sim.snapshot().total_energy() - e0).abs() / n as f64;
        assert!(drift < 5e-3, "mixture energy drift {drift}");
    }
}
