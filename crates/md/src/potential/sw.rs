//! Stillinger-Weber three-body potential (silicon).
//!
//! The class of potentials behind Fig. 15's first extended scenario:
//! many-body force fields (Tersoff, SW, DeePMD) need a **full** neighbor
//! list — every rank must receive ghosts from all 26 neighbors — and,
//! because triplet terms centered on a local atom push on ghost atoms,
//! ghost forces must still be reverse-communicated. The paper's Fig. 11
//! shows exactly this silicon system.
//!
//! Functional form (Stillinger & Weber, PRB 31, 5262 (1985)):
//! `U = sum v2(r) + sum_{j<k} lambda eps (cos t - cos t0)^2 g(r_ij) g(r_ik)`
//! with `v2 = A eps (B (s/r)^4 - 1) exp(s/(r - a s))` and
//! `g(r) = exp(gamma s / (r - a s))`, both cut off smoothly at `r = a s`.

use super::{PairEnergyVirial, PairPotential};
use crate::atom::Atoms;
use crate::kernels::{self, Direct, PairScratch, Sink};
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

/// Stillinger-Weber parameters (single species).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StillingerWeber {
    /// Energy scale, eV.
    pub epsilon: f64,
    /// Length scale, angstrom.
    pub sigma: f64,
    /// Cutoff factor: r_cut = a * sigma.
    pub a: f64,
    /// Three-body strength.
    pub lambda: f64,
    /// Three-body decay.
    pub gamma: f64,
    /// Preferred bond angle cosine (tetrahedral: -1/3).
    pub cos_theta0: f64,
    /// Two-body prefactor A.
    pub big_a: f64,
    /// Two-body repulsion coefficient B.
    pub big_b: f64,
}

impl StillingerWeber {
    /// The original silicon parameterization.
    #[must_use]
    pub fn silicon() -> Self {
        StillingerWeber {
            epsilon: 2.1683,
            sigma: 2.0951,
            a: 1.80,
            lambda: 21.0,
            gamma: 1.20,
            cos_theta0: -1.0 / 3.0,
            big_a: 7.049_556_277,
            big_b: 0.602_224_558_4,
        }
    }

    /// Cutoff distance a*sigma (~3.77 angstrom for silicon).
    #[must_use]
    pub fn r_cut(&self) -> f64 {
        self.a * self.sigma
    }

    /// Two-body energy at distance r.
    #[must_use]
    pub fn v2(&self, r: f64) -> f64 {
        let rc = self.r_cut();
        if r >= rc {
            return 0.0;
        }
        let sr = self.sigma / r;
        let sr4 = sr * sr * sr * sr;
        self.big_a * self.epsilon * (self.big_b * sr4 - 1.0) * (self.sigma / (r - rc)).exp()
    }

    /// d v2 / d r.
    #[must_use]
    pub fn dv2(&self, r: f64) -> f64 {
        let rc = self.r_cut();
        if r >= rc {
            return 0.0;
        }
        let sr = self.sigma / r;
        let sr4 = sr * sr * sr * sr;
        let expo = (self.sigma / (r - rc)).exp();
        let poly = self.big_b * sr4 - 1.0;
        let dpoly = -4.0 * self.big_b * sr4 / r;
        self.big_a * self.epsilon * expo * (dpoly - poly * self.sigma / ((r - rc) * (r - rc)))
    }

    /// Three-body radial factor g(r).
    #[must_use]
    pub fn g(&self, r: f64) -> f64 {
        let rc = self.r_cut();
        if r >= rc {
            return 0.0;
        }
        (self.gamma * self.sigma / (r - rc)).exp()
    }

    /// d g / d r.
    #[must_use]
    pub fn dg(&self, r: f64) -> f64 {
        let rc = self.r_cut();
        if r >= rc {
            return 0.0;
        }
        -self.gamma * self.sigma / ((r - rc) * (r - rc)) * self.g(r)
    }

    /// Energy of an isolated triplet with center at the apex.
    #[must_use]
    pub fn v3(&self, r_ij: f64, r_ik: f64, cos_theta: f64) -> f64 {
        let d = cos_theta - self.cos_theta0;
        self.lambda * self.epsilon * d * d * self.g(r_ij) * self.g(r_ik)
    }
}

impl PairPotential for StillingerWeber {
    fn cutoff(&self) -> f64 {
        self.r_cut()
    }

    fn list_kind(&self) -> ListKind {
        ListKind::Full
    }

    fn writes_ghost_forces(&self) -> bool {
        // Triplet terms centered on locals push on ghost j/k: the reverse
        // stage must fold those forces home even though the list is full.
        true
    }

    /// The row body over `f` itself: SW's one force loop. SW has no blocked
    /// form to check against a scalar one; the analytic tests below are
    /// its reference.
    fn compute(&self, atoms: &mut Atoms, list: &NeighborList) -> PairEnergyVirial {
        let mut sink = Direct::forces(&mut atoms.f);
        self.rows(&atoms.x, &atoms.tag, list, 0..atoms.nlocal, &mut sink);
        sink.ev()
    }

    fn compute_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial {
        match exec {
            ChunkExec::Serial => self.compute(atoms, list),
            ChunkExec::Pool(_) => {
                let (x, tag) = (&atoms.x, &atoms.tag);
                scratch.log(atoms.nlocal, atoms.ntotal(), exec, &|log, chunk| {
                    self.rows(x, tag, list, chunk, log);
                });
                kernels::replay_forces(scratch, &mut atoms.f, exec)
            }
        }
    }
}

impl StillingerWeber {
    /// The row body of the force pass: `rows` ascending; per row, each
    /// two-body pair's reaction on j and share on i, then each triplet's
    /// j, k and centre scatters, every update as its own sink call — so a
    /// row's updates reach every element in one fixed order whichever sink
    /// takes them. Energy and virial go out in the order they accumulate.
    fn rows(
        &self,
        x: &[[f64; 3]],
        tag: &[u64],
        list: &NeighborList,
        rows: std::ops::Range<usize>,
        sink: &mut impl Sink,
    ) {
        assert_eq!(list.kind, ListKind::Full, "SW needs the full list");
        let rc = self.r_cut();
        let rc2 = rc * rc;
        // The in-cutoff neighbors of the current center: index, bond
        // vector, length.
        let mut near: Vec<(u32, [f64; 3], f64)> = Vec::with_capacity(16);
        for i in rows {
            let xi = x[i];
            let iu = i as u32;
            near.clear();
            for &j in list.neighbors(i) {
                let xj = x[j as usize];
                let u = [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]];
                let r2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2];
                if r2 < rc2 {
                    near.push((j, u, r2.sqrt()));
                }
            }
            // Two-body: each pair once machine-wide, chosen by tag order;
            // reaction on j (possibly a ghost) flows home via reverse.
            for &(j, u, r) in &near {
                if tag[i] >= tag[j as usize] {
                    continue;
                }
                let dv = self.dv2(r);
                let f = -dv / r; // force on j along +u
                let fu = [f * u[0], f * u[1], f * u[2]];
                sink.add_force(j, fu);
                sink.add_force(iu, [-fu[0], -fu[1], -fu[2]]);
                sink.extend_ev([(self.v2(r), f * r * r)]);
            }
            // Three-body: triplets centered at the local atom i.
            for jj in 0..near.len() {
                let (j, u, ru) = near[jj];
                for &(k, v, rv) in near.iter().skip(jj + 1) {
                    let c = (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) / (ru * rv);
                    let delta = c - self.cos_theta0;
                    let gj = self.g(ru);
                    let gk = self.g(rv);
                    if gj == 0.0 || gk == 0.0 {
                        continue;
                    }
                    let le = self.lambda * self.epsilon;
                    let e3 = le * delta * delta * gj * gk;
                    let dh_drj = le * delta * delta * self.dg(ru) * gk;
                    let dh_drk = le * delta * delta * gj * self.dg(rv);
                    let dh_dc = 2.0 * le * delta * gj * gk;
                    // Gradients of cos(theta) wrt the bond vectors.
                    let mut fj = [0.0f64; 3];
                    let mut fk = [0.0f64; 3];
                    let mut vir = [0.0f64; 3];
                    for d in 0..3 {
                        let dc_du = v[d] / (ru * rv) - c * u[d] / (ru * ru);
                        let dc_dv = u[d] / (ru * rv) - c * v[d] / (rv * rv);
                        fj[d] = -(dh_drj * u[d] / ru + dh_dc * dc_du);
                        fk[d] = -(dh_drk * v[d] / rv + dh_dc * dc_dv);
                        vir[d] = u[d] * fj[d] + v[d] * fk[d];
                    }
                    sink.add_force(j, fj);
                    sink.add_force(k, fk);
                    sink.add_force(iu, [-(fj[0] + fk[0]), -(fj[1] + fk[1]), -(fj[2] + fk[2])]);
                    // One energy term and three virial terms: `-0.0` is
                    // the exact identity of IEEE addition, so the padding
                    // leaves the energy sum's bits alone.
                    sink.extend_ev([(e3, vir[0]), (-0.0, vir[1]), (-0.0, vir[2])]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::FccLattice;
    use crate::neighbor::NeighborList;

    fn sw() -> StillingerWeber {
        StillingerWeber::silicon()
    }

    fn compute_system(pos: Vec<[f64; 3]>) -> (Atoms, PairEnergyVirial) {
        let p = sw();
        let mut atoms = Atoms::from_positions(pos, 1);
        let list = NeighborList::build(
            &atoms,
            [-10.0; 3],
            [30.0; 3],
            ListKind::Full,
            p.r_cut(),
            0.0,
        );
        let ev = p.compute(&mut atoms, &list);
        (atoms, ev)
    }

    fn total_energy(pos: &[[f64; 3]]) -> f64 {
        compute_system(pos.to_vec()).1.energy
    }

    #[test]
    fn dimer_energy_is_pure_two_body() {
        let p = sw();
        let r = 2.4;
        let (_, ev) = compute_system(vec![[0.0; 3], [r, 0.0, 0.0]]);
        assert!((ev.energy - p.v2(r)).abs() < 1e-12);
        assert!(ev.energy < 0.0, "bonded dimer");
    }

    #[test]
    fn trimer_adds_the_angle_term() {
        let p = sw();
        let r = 2.35;
        // Right angle at atom 0: cos(theta) = 0, delta = 1/3.
        let pos = vec![[0.0; 3], [r, 0.0, 0.0], [0.0, r, 0.0]];
        let (_, ev) = compute_system(pos);
        let d = r * std::f64::consts::SQRT_2; // j-k distance (< cutoff here?)
        let mut expect = 2.0 * p.v2(r) + p.v3(r, r, 0.0);
        if d < p.r_cut() {
            expect += p.v2(d);
            // Triplets centered at atoms 1 and 2 also fire.
            let c1 = r / d; // angle at atom 1 between (0) and (2)
            expect += p.v3(r, d, c1);
            expect += p.v3(r, d, c1);
        }
        assert!(
            (ev.energy - expect).abs() < 1e-10,
            "{} vs {expect}",
            ev.energy
        );
    }

    #[test]
    fn forces_match_numerical_gradient() {
        // A low-symmetry 4-atom cluster: every force component checked
        // against a central-difference gradient of the total energy.
        let base = vec![
            [0.0, 0.0, 0.0],
            [2.3, 0.3, -0.2],
            [0.4, 2.5, 0.3],
            [-0.3, 0.2, 2.4],
        ];
        let (atoms, _) = compute_system(base.clone());
        let h = 1e-6;
        for i in 0..base.len() {
            for d in 0..3 {
                let mut plus = base.clone();
                plus[i][d] += h;
                let mut minus = base.clone();
                minus[i][d] -= h;
                let grad = (total_energy(&plus) - total_energy(&minus)) / (2.0 * h);
                assert!(
                    (atoms.f[i][d] + grad).abs() < 1e-5,
                    "atom {i} dim {d}: force {} vs -grad {}",
                    atoms.f[i][d],
                    -grad
                );
            }
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let (atoms, _) = compute_system(vec![
            [0.0; 3],
            [2.2, 0.5, 0.0],
            [0.3, 2.4, 0.4],
            [2.0, 2.0, 2.0],
        ]);
        for d in 0..3 {
            let sum: f64 = atoms.f.iter().map(|f| f[d]).sum();
            assert!(sum.abs() < 1e-10, "net force {sum} in dim {d}");
        }
    }

    #[test]
    fn diamond_lattice_is_a_stationary_point() {
        // The ideal diamond structure: zero force on every atom by
        // symmetry, negative cohesive energy.
        let lat = FccLattice::from_cell(5.431);
        let (bounds, pos) = lat.build_diamond(2, 2, 2);
        let p = sw();
        let atoms = Atoms::from_positions(pos, 1);
        // Build ghosts as periodic images via the serial-engine approach:
        // reuse SerialSim for the full machinery.
        let sim = crate::serial::SerialSim::new(
            atoms.clone(),
            bounds,
            crate::potential::Potential::Pair(Box::new(p)),
            crate::units::UnitSystem::Metal,
            0.5,
            crate::neighbor::RebuildPolicy {
                every: 1,
                check: true,
            },
            0.001,
            28.0855,
        );
        let snap = sim.snapshot();
        // SW silicon cohesive energy: -4.336 eV/atom at a = 5.431.
        let per_atom = snap.pe / sim.atoms.nlocal as f64;
        assert!(
            (per_atom - -4.336).abs() < 0.02,
            "cohesive energy {per_atom} eV/atom (expect ~-4.336)"
        );
        for i in 0..sim.atoms.nlocal {
            for d in 0..3 {
                assert!(
                    sim.atoms.f[i][d].abs() < 1e-8,
                    "force on lattice atom {i}: {:?}",
                    sim.atoms.f[i]
                );
            }
        }
        let _ = &atoms;
    }

    #[test]
    fn silicon_crystal_conserves_energy() {
        let lat = FccLattice::from_cell(5.431);
        let (bounds, pos) = lat.build_diamond(3, 3, 3);
        let mut atoms = Atoms::from_positions(pos, 1);
        crate::velocity::finalize_velocities_serial(
            &mut atoms,
            28.0855,
            600.0,
            crate::units::UnitSystem::Metal,
            17,
        );
        let mut sim = crate::serial::SerialSim::new(
            atoms,
            bounds,
            crate::potential::Potential::Pair(Box::new(sw())),
            crate::units::UnitSystem::Metal,
            1.0,
            crate::neighbor::RebuildPolicy {
                every: 5,
                check: true,
            },
            0.001,
            28.0855,
        );
        let e0 = sim.snapshot().total_energy();
        sim.run(100);
        let e1 = sim.snapshot().total_energy();
        let drift = (e1 - e0).abs() / sim.atoms.nlocal as f64;
        assert!(drift < 5e-4, "SW energy drift {drift} eV/atom");
    }
}
