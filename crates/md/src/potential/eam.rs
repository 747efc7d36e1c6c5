//! Embedded-atom-method potential (Eq. 2 of the paper).
//!
//! LAMMPS's `pair_style eam` evaluates spline-interpolated tables read from
//! a potential file; the paper uses the Cu system with `Cu_u3.eam` and a
//! 4.95 angstrom cutoff (Table 2). That file is not redistributable here, so
//! the tables are generated from smooth analytic Cu-like forms (Morse pair
//! term, exponential density, square-root embedding — Finnis-Sinclair
//! style), then evaluated through the same tabulate-plus-cubic-spline path
//! LAMMPS uses. This preserves the two-pass computation structure — and
//! therefore the two extra mid-pair-stage communications the paper
//! optimizes — while using only self-contained data.
//!
//! Each pass exists twice. The serial oracle (`compute_rho`,
//! `compute_embedding`, `compute_force`: `SerialSim`, the lockstep anchor)
//! walks one pair at a time. The blocked row bodies (`rho_rows`,
//! `force_rows`, behind the `*_chunked` entry points) run the LJ kernel's
//! shape (DESIGN.md §16): the shared branch-free slab filter, then the
//! accepted pairs only — `sqrt`, ONE [`Spline::locate`] on the r-grid
//! `rho_r` and `phi_r` share, Horner chains, the pair's single division —
//! handed to the sink pair by pair in neighbor order (the force pass as a
//! dense lane loop plus a scatter loop; the density pass, one value per
//! pair, in one loop). Both call the same `#[inline]` evaluators on the
//! same values in the same order, so they agree bit for bit
//! (`tests/chunked_kernels.rs`).

use super::spline::Spline;
use super::PairEnergyVirial;
use crate::atom::Atoms;
use crate::kernels::{self, Direct, PairScratch, Sink, Slab, CHUNK_ROWS, ROW_BLOCK};
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

/// Cu-like EAM with spline-tabulated rho(r), phi(r) and F(rho): a
/// two-pass potential with mid-pair-stage communication.
///
/// The driving engine must:
/// 1. call [`EamCu::compute_rho`],
/// 2. **reverse-communicate** ghost `rho` contributions to their owners,
/// 3. call [`EamCu::compute_embedding`],
/// 4. **forward-communicate** local `fp` values to ghosts,
/// 5. call [`EamCu::compute_force`].
pub struct EamCu {
    cutoff: f64,
    cutsq: f64,
    /// Tabulated on the same r-grid as `phi_r` (as in a LAMMPS eam file),
    /// so one `locate` serves both tables.
    rho_r: Spline,
    phi_r: Spline,
    f_rho: Spline,
}

/// Analytic generating forms for the tables.
#[derive(Debug, Clone, Copy)]
pub struct EamParams {
    /// Nearest-neighbor (equilibrium) distance, angstrom.
    pub re: f64,
    /// Density prefactor.
    pub fe: f64,
    /// Density decay exponent (dimensionless, in r/re).
    pub beta: f64,
    /// Morse well depth, eV.
    pub d_morse: f64,
    /// Morse width, 1/angstrom.
    pub alpha: f64,
    /// Embedding strength, eV.
    pub f0: f64,
    /// Equilibrium host density (sets the embedding scale).
    pub rho_e: f64,
    /// Force cutoff, angstrom.
    pub cutoff: f64,
}

impl EamParams {
    /// Cu-flavoured defaults: re = a/sqrt(2) for a = 3.615, cutoff 4.95
    /// (Table 2), remaining constants chosen for a bound, stable FCC
    /// crystal at that lattice constant.
    #[must_use]
    pub fn cu() -> Self {
        EamParams {
            re: 3.615 / std::f64::consts::SQRT_2,
            fe: 1.0,
            beta: 5.0,
            d_morse: 0.35,
            alpha: 1.7,
            f0: 1.8,
            rho_e: 13.0,
            cutoff: 4.95,
        }
    }

    /// Smooth cutoff switch: 1 below 0.9*rc, 0 above rc, C^2 in between.
    #[must_use]
    pub fn switch(&self, r: f64) -> f64 {
        let rc = self.cutoff;
        let rs = 0.9 * rc;
        if r <= rs {
            1.0
        } else if r >= rc {
            0.0
        } else {
            let t = (r - rs) / (rc - rs);
            1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
        }
    }

    /// Analytic electron density contribution of a neighbor at distance r.
    #[must_use]
    pub fn rho(&self, r: f64) -> f64 {
        self.fe * (-self.beta * (r / self.re - 1.0)).exp() * self.switch(r)
    }

    /// Analytic pair term (Morse), eV.
    #[must_use]
    pub fn phi(&self, r: f64) -> f64 {
        let e = (-self.alpha * (r - self.re)).exp();
        self.d_morse * (e * e - 2.0 * e) * self.switch(r)
    }

    /// Analytic embedding energy, eV.
    #[must_use]
    pub fn embed(&self, rho: f64) -> f64 {
        -self.f0 * (rho.max(0.0) / self.rho_e).sqrt()
    }
}

impl EamCu {
    /// Number of table knots (LAMMPS eam files typically use 500-5000).
    const NKNOTS: usize = 2000;

    /// Build spline tables from analytic parameters.
    #[must_use]
    pub fn from_params(p: EamParams) -> Self {
        let r_min = 0.5; // below any physical separation at MD temperatures
        let dr = (p.cutoff - r_min) / (Self::NKNOTS - 1) as f64;
        let rho_r = Spline::tabulate(r_min, dr, Self::NKNOTS, |r| p.rho(r));
        let phi_r = Spline::tabulate(r_min, dr, Self::NKNOTS, |r| p.phi(r));
        // Embedding domain: comfortably past any density reachable with
        // this rho(r) (12 first-shell neighbors contribute ~rho_e).
        let rho_max = 4.0 * p.rho_e;
        let drho = rho_max / (Self::NKNOTS - 1) as f64;
        let f_rho = Spline::tabulate(0.0, drho, Self::NKNOTS, |rho| p.embed(rho));
        EamCu {
            cutoff: p.cutoff,
            cutsq: p.cutoff * p.cutoff,
            rho_r,
            phi_r,
            f_rho,
        }
    }

    /// The paper's EAM benchmark stand-in (Cu, cutoff 4.95).
    #[must_use]
    pub fn lammps_bench() -> Self {
        Self::from_params(EamParams::cu())
    }

    /// One accepted pair of the force pass, `(fpair, phi)`, from r² and the
    /// endpoints' summed F': one `sqrt`, one `locate`, one division.
    #[inline]
    fn force_pair(&self, r2: f64, fp_sum: f64) -> (f64, f64) {
        let r = r2.sqrt();
        let (m, b) = self.rho_r.locate(r);
        // dU/dr for the pair, including both embedding terms.
        let dudr = self.phi_r.deriv_at(m, b) + fp_sum * self.rho_r.deriv_at(m, b);
        (-dudr / r, self.phi_r.value_at(m, b))
    }

    /// Force cutoff distance.
    #[must_use]
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Accumulate electron density for local *and ghost* atoms
    /// (half/Newton list: each pair contributes to both endpoints).
    pub fn compute_rho(&self, atoms: &Atoms, list: &NeighborList, rho: &mut Vec<f64>) {
        assert!(!matches!(list.kind, ListKind::Full), "EAM uses a half list");
        rho.clear();
        rho.resize(atoms.ntotal(), 0.0);
        for i in 0..atoms.nlocal {
            let xi = atoms.x[i];
            let mut rho_i = 0.0;
            for &j in list.neighbors(i) {
                let j = j as usize;
                let xj = atoms.x[j];
                let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                if r2 >= self.cutsq {
                    continue;
                }
                let contrib = self.rho_r.eval(r2.sqrt());
                // Half list: contribute to both endpoints, the row's own
                // share summed locally and added once at row end.
                rho_i += contrib;
                rho[j] += contrib;
            }
            rho[i] += rho_i;
        }
    }

    /// Compute the embedding energy for local atoms from the fully-reduced
    /// density, filling `fp[i] = F'(rho_i)`; returns the summed embedding
    /// energy of local atoms.
    pub fn compute_embedding(&self, atoms: &Atoms, rho: &[f64], fp: &mut Vec<f64>) -> f64 {
        fp.clear();
        fp.resize(atoms.ntotal(), 0.0);
        let mut energy = 0.0;
        for i in 0..atoms.nlocal {
            let (m, b) = self.f_rho.locate(rho[i]);
            energy += self.f_rho.value_at(m, b);
            fp[i] = self.f_rho.deriv_at(m, b);
        }
        energy
    }

    /// Final force pass; `fp` must be valid for locals *and* ghosts.
    pub fn compute_force(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        fp: &[f64],
    ) -> PairEnergyVirial {
        assert!(fp.len() >= atoms.ntotal(), "fp must cover ghosts");
        let mut energy = 0.0;
        let mut virial = 0.0;
        for i in 0..atoms.nlocal {
            let xi = atoms.x[i];
            let mut fi = [0.0f64; 3];
            for &j in list.neighbors(i) {
                let j = j as usize;
                let xj = atoms.x[j];
                let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                if r2 >= self.cutsq {
                    continue;
                }
                let (fpair, phi) = self.force_pair(r2, fp[i] + fp[j]);
                fi[0] += dx[0] * fpair;
                fi[1] += dx[1] * fpair;
                fi[2] += dx[2] * fpair;
                atoms.f[j][0] -= dx[0] * fpair;
                atoms.f[j][1] -= dx[1] * fpair;
                atoms.f[j][2] -= dx[2] * fpair;
                energy += phi;
                virial += r2 * fpair;
            }
            for d in 0..3 {
                atoms.f[i][d] += fi[d];
            }
        }
        PairEnergyVirial { energy, virial }
    }

    /// Chunk-parallel [`EamCu::compute_embedding`], bit-identical to it at
    /// any thread count.
    pub fn compute_embedding_chunked(
        &self,
        atoms: &Atoms,
        rho: &[f64],
        fp: &mut Vec<f64>,
        exec: &ChunkExec<'_>,
    ) -> f64 {
        let nlocal = atoms.nlocal;
        fp.clear();
        fp.resize(atoms.ntotal(), 0.0);
        // Rows write disjoint fp and energy slots, so chunks mutate their
        // own slices directly; the energies are folded in row order after.
        let mut energies = vec![0.0; nlocal];
        let mut items: Vec<_> = fp[..nlocal]
            .chunks_mut(CHUNK_ROWS)
            .zip(energies.chunks_mut(CHUNK_ROWS))
            .collect();
        let exec = &exec.floored(nlocal);
        exec.for_each_mut(&mut items, &|c, (fp_chunk, en_chunk)| {
            let rho_chunk = &rho[c * CHUNK_ROWS..];
            for ((slot, e), &r) in fp_chunk.iter_mut().zip(en_chunk.iter_mut()).zip(rho_chunk) {
                let (m, b) = self.f_rho.locate(r);
                *e = self.f_rho.value_at(m, b);
                *slot = self.f_rho.deriv_at(m, b);
            }
        });
        energies.iter().fold(0.0, |sum, e| sum + e)
    }

    /// [`EamCu::compute_rho`] at kernel speed, bit-identical to it under
    /// any executor: direct when `exec` is serial, through `scratch`'s log
    /// when it is a pool.
    pub fn compute_rho_chunked(
        &self,
        atoms: &Atoms,
        list: &NeighborList,
        rho: &mut Vec<f64>,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) {
        assert!(!matches!(list.kind, ListKind::Full), "EAM uses a half list");
        let (x, nlocal) = (&atoms.x, atoms.nlocal);
        rho.clear();
        rho.resize(atoms.ntotal(), 0.0);
        match exec {
            ChunkExec::Serial => self.rho_rows(x, list, 0..nlocal, &mut Direct::scalars(rho)),
            ChunkExec::Pool(_) => {
                scratch.log(nlocal, atoms.ntotal(), exec, &|log, chunk| {
                    self.rho_rows(x, list, chunk, log);
                });
                kernels::replay_scalars(scratch, rho, exec);
            }
        }
    }

    /// [`EamCu::compute_force`] at kernel speed, bit-identical to it under
    /// any executor; same dispatch as [`EamCu::compute_rho_chunked`].
    pub fn compute_force_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        fp: &[f64],
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial {
        assert!(fp.len() >= atoms.ntotal(), "fp must cover ghosts");
        let nlocal = atoms.nlocal;
        match exec {
            ChunkExec::Serial => {
                let mut sink = Direct::forces(&mut atoms.f);
                self.force_rows(&atoms.x, list, fp, 0..nlocal, &mut sink);
                sink.ev()
            }
            ChunkExec::Pool(_) => {
                let (x, ntotal) = (&atoms.x, atoms.ntotal());
                scratch.log(nlocal, ntotal, exec, &|log, chunk| {
                    self.force_rows(x, list, fp, chunk, log);
                });
                kernels::replay_forces(scratch, &mut atoms.f, exec)
            }
        }
    }

    /// The blocked row body of the density pass: `rows` ascending, each
    /// pair's contribution to its neighbor in neighbor order, then the
    /// row's own sum.
    fn rho_rows(
        &self,
        x: &[[f64; 3]],
        list: &NeighborList,
        rows: std::ops::Range<usize>,
        sink: &mut impl Sink,
    ) {
        let mut slab = Slab::new();
        for i in rows {
            let mut rho_i = 0.0;
            for blk in list.neighbors(i).chunks(ROW_BLOCK) {
                let na = slab.filter(x[i], x, blk, self.cutsq);
                for (&j, &r2) in slab.j[..na].iter().zip(&slab.r2[..na]) {
                    let c = self.rho_r.eval(r2.sqrt());
                    rho_i += c;
                    sink.add_scalar(j, c);
                }
            }
            sink.add_scalar(i as u32, rho_i);
        }
    }

    /// The blocked row body of the force pass (LJ's shape); `fp` must be
    /// valid for every neighbor the rows touch.
    fn force_rows(
        &self,
        x: &[[f64; 3]],
        list: &NeighborList,
        fp: &[f64],
        rows: std::ops::Range<usize>,
        sink: &mut impl Sink,
    ) {
        let mut slab = Slab::new();
        for i in rows {
            let xi = x[i];
            let mut fi = [0.0f64; 3];
            for blk in list.neighbors(i).chunks(ROW_BLOCK) {
                let na = slab.filter(xi, x, blk, self.cutsq);
                let (jc, r2) = (&slab.j[..na], &slab.r2[..na]);
                let (fpair, en) = (&mut slab.fp[..na], &mut slab.en[..na]);
                for k in 0..na {
                    (fpair[k], en[k]) = self.force_pair(r2[k], fp[i] + fp[jc[k] as usize]);
                }
                // Forces scatter pair by pair, `dx` re-derived from `x[j]`.
                sink.extend_ev((0..na).map(|k| (en[k], r2[k] * fpair[k])));
                for k in 0..na {
                    let xj = x[jc[k] as usize];
                    let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                    let f = fpair[k];
                    fi[0] += dx[0] * f;
                    fi[1] += dx[1] * f;
                    fi[2] += dx[2] * f;
                    sink.add_force(jc[k], [-(dx[0] * f), -(dx[1] * f), -(dx[2] * f)]);
                }
            }
            sink.add_force(i as u32, fi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborList;

    #[test]
    fn splines_match_analytic_forms() {
        let p = EamParams::cu();
        let eam = EamCu::from_params(p);
        for i in 0..40 {
            let r = 1.0 + i as f64 * 0.09;
            assert!((eam.rho_r.eval(r) - p.rho(r)).abs() < 1e-6, "rho at {r}");
            assert!((eam.phi_r.eval(r) - p.phi(r)).abs() < 1e-6, "phi at {r}");
        }
        for i in 1..40 {
            let rho = i as f64 * 0.8;
            assert!(
                (eam.f_rho.eval(rho) - p.embed(rho)).abs() < 1e-4,
                "embed at {rho}"
            );
        }
    }

    #[test]
    fn switch_function_is_smooth_and_clamped() {
        let p = EamParams::cu();
        assert_eq!(p.switch(1.0), 1.0);
        assert_eq!(p.switch(p.cutoff), 0.0);
        assert_eq!(p.switch(p.cutoff + 1.0), 0.0);
        let mid = 0.95 * p.cutoff;
        assert!(p.switch(mid) > 0.0 && p.switch(mid) < 1.0);
    }

    #[test]
    fn phi_has_minimum_near_re() {
        let p = EamParams::cu();
        let e_re = p.phi(p.re);
        assert!(e_re < 0.0, "pair term must be bound at re");
        assert!(p.phi(p.re - 0.2) > e_re);
        assert!(p.phi(p.re + 0.2) > e_re);
    }

    /// Full two-pass computation on a dimer, compared against a numerical
    /// gradient of the analytic total energy.
    #[test]
    fn dimer_force_matches_numerical_gradient() {
        let p = EamParams::cu();
        let eam = EamCu::from_params(p);
        let total_energy = |r: f64| -> f64 {
            // Dimer: each atom sees rho(r); energy = 2 F(rho(r)) + phi(r).
            2.0 * p.embed(p.rho(r)) + p.phi(r)
        };
        let r = 2.4;
        let mut atoms = Atoms::from_positions(vec![[0.0; 3], [r, 0.0, 0.0]], 1);
        let list = NeighborList::build(
            &atoms,
            [-1.0; 3],
            [7.0; 3],
            ListKind::HalfNewton,
            p.cutoff,
            0.0,
        );
        let mut rho = Vec::new();
        let mut fp = Vec::new();
        eam.compute_rho(&atoms, &list, &mut rho);
        let e_embed = eam.compute_embedding(&atoms, &rho, &mut fp);
        let ev = eam.compute_force(&mut atoms, &list, &fp);
        let e_total = e_embed + ev.energy;
        assert!((e_total - total_energy(r)).abs() < 1e-4, "energy mismatch");
        let h = 1e-5;
        let dudr = (total_energy(r + h) - total_energy(r - h)) / (2.0 * h);
        // Force on atom 0 along x should be -dU/dx0 = +dU/dr.
        assert!(
            (atoms.f[0][0] - dudr).abs() < 1e-3,
            "force {} vs gradient {}",
            atoms.f[0][0],
            dudr
        );
        // Newton's third law.
        assert!((atoms.f[0][0] + atoms.f[1][0]).abs() < 1e-12);
    }

    #[test]
    fn rho_accumulates_on_both_pair_endpoints() {
        let p = EamParams::cu();
        let eam = EamCu::from_params(p);
        let atoms = Atoms::from_positions(vec![[0.0; 3], [2.5, 0.0, 0.0]], 1);
        let list = NeighborList::build(
            &atoms,
            [-1.0; 3],
            [7.0; 3],
            ListKind::HalfNewton,
            p.cutoff,
            0.0,
        );
        let mut rho = Vec::new();
        eam.compute_rho(&atoms, &list, &mut rho);
        assert!(rho[0] > 0.0);
        assert!(
            (rho[0] - rho[1]).abs() < 1e-12,
            "dimer densities must match"
        );
    }

    #[test]
    fn embedding_energy_is_negative_and_monotonic() {
        let eam = EamCu::lammps_bench();
        let atoms = Atoms::from_positions(vec![[0.0; 3]], 1);
        let mut fp = Vec::new();
        let e1 = eam.compute_embedding(&atoms, &[5.0], &mut fp);
        let e2 = eam.compute_embedding(&atoms, &[10.0], &mut fp);
        assert!(e1 < 0.0 && e2 < e1, "embedding must deepen with density");
    }
}
