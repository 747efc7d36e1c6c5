//! Lennard-Jones 12-6 potential with cutoff (Eq. 1 of the paper).

use super::{PairEnergyVirial, PairPotential};
use crate::atom::Atoms;
use crate::kernels::{self, Direct, PairScratch, Sink, Slab, ROW_BLOCK};
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

/// `pair_style lj/cut` equivalent: U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]
/// for r < r_cut, unshifted (LAMMPS default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LjCut {
    /// Well depth.
    pub epsilon: f64,
    /// Zero-crossing distance.
    pub sigma: f64,
    /// Force cutoff.
    pub cutoff: f64,
    /// Which list to consume. `HalfNewton` is the paper's main
    /// configuration; `Full` emulates full-neighbor-list potentials
    /// (Tersoff/DeePMD) for the Fig. 15 extended experiment — the force
    /// field is unchanged but every rank must exchange with all 26
    /// neighbors.
    pub list: ListKind,
    // Precomputed coefficients: f/r = (c12/r^12 - c6/r^6) * 24 eps / r^2 style.
    lj1: f64, // 48 eps sigma^12
    lj2: f64, // 24 eps sigma^6
    lj3: f64, // 4 eps sigma^12
    lj4: f64, // 4 eps sigma^6
    cutsq: f64,
    /// Energy shift making U(r_cut) = 0 (LAMMPS `pair_modify shift yes`).
    /// Zero when unshifted (the benchmark default).
    eshift: f64,
}

impl LjCut {
    /// Build with explicit parameters.
    #[must_use]
    pub fn new(epsilon: f64, sigma: f64, cutoff: f64, list: ListKind) -> Self {
        assert!(epsilon > 0.0 && sigma > 0.0 && cutoff > 0.0);
        let s6 = sigma.powi(6);
        let s12 = s6 * s6;
        LjCut {
            epsilon,
            sigma,
            cutoff,
            list,
            lj1: 48.0 * epsilon * s12,
            lj2: 24.0 * epsilon * s6,
            lj3: 4.0 * epsilon * s12,
            lj4: 4.0 * epsilon * s6,
            cutsq: cutoff * cutoff,
            eshift: 0.0,
        }
    }

    /// Enable the energy shift so the pair energy is continuous at the
    /// cutoff (`pair_modify shift yes`). Improves NVE energy conservation;
    /// forces are unchanged.
    #[must_use]
    pub fn shifted(mut self) -> Self {
        let inv6 = 1.0 / self.cutoff.powi(6);
        self.eshift = self.lj3 * inv6 * inv6 - self.lj4 * inv6;
        self
    }

    /// The paper's LJ benchmark configuration (Table 2): sigma = epsilon = 1,
    /// cutoff 2.5, Newton on (half list).
    #[must_use]
    pub fn lammps_bench() -> Self {
        Self::new(1.0, 1.0, 2.5, ListKind::HalfNewton)
    }

    /// Pair energy at distance r (for tests / tabulation).
    #[inline]
    #[must_use]
    pub fn pair_energy(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let inv6 = 1.0 / r.powi(6);
        self.lj3 * inv6 * inv6 - self.lj4 * inv6 - self.eshift
    }

    /// Pair energy at squared distance r² — the kernel-path formulation.
    /// Like LAMMPS `pair_lj_cut`, the energy is built from `1/r²` (which
    /// the force prefactor also needs, so the division is shared) rather
    /// than from the distance: no sqrt, one division. Callers gate on
    /// `r2 < cutsq`; there is no cutoff branch here.
    #[inline]
    #[must_use]
    pub fn pair_energy_r2(&self, r2: f64) -> f64 {
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        self.lj3 * inv6 * inv6 - self.lj4 * inv6 - self.eshift
    }

    /// Magnitude of -dU/dr divided by r ("fpair" in LAMMPS terms):
    /// force vector on i from j is `fpair * (xi - xj)`.
    #[inline]
    #[must_use]
    pub fn fpair(&self, r2: f64) -> f64 {
        let inv2 = 1.0 / r2;
        let inv6 = inv2 * inv2 * inv2;
        inv6 * (self.lj1 * inv6 - self.lj2) * inv2
    }
}

impl PairPotential for LjCut {
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
        let nlocal = atoms.nlocal;
        let cutsq = self.cutsq;
        for i in 0..nlocal {
            let xi = atoms.x[i];
            let mut fi = [0.0f64; 3];
            for &j in list.neighbors(i) {
                let j = j as usize;
                let xj = atoms.x[j];
                let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
                if r2 >= cutsq {
                    continue;
                }
                let fpair = self.fpair(r2);
                fi[0] += dx[0] * fpair;
                fi[1] += dx[1] * fpair;
                fi[2] += dx[2] * fpair;
                if half {
                    // Newton's 3rd law: react on j (possibly a ghost whose
                    // force is reverse-communicated later).
                    atoms.f[j][0] -= dx[0] * fpair;
                    atoms.f[j][1] -= dx[1] * fpair;
                    atoms.f[j][2] -= dx[2] * fpair;
                    energy += self.pair_energy_r2(r2);
                    virial += r2 * fpair;
                } else {
                    // Full list: each pair visited twice machine-wide.
                    energy += 0.5 * self.pair_energy_r2(r2);
                    virial += 0.5 * r2 * fpair;
                }
            }
            for d in 0..3 {
                atoms.f[i][d] += fi[d];
            }
        }
        PairEnergyVirial { energy, virial }
    }

    fn compute_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial {
        let c = [self.lj1, self.lj2, self.lj3, self.lj4];
        let coeff = move |_: usize, _: u32| c;
        let (cutsq, eshift, nlocal) = (self.cutsq, self.eshift, atoms.nlocal);
        match exec {
            ChunkExec::Serial => {
                let mut sink = Direct::forces(&mut atoms.f);
                lj_rows(&atoms.x, list, 0..nlocal, cutsq, eshift, coeff, &mut sink);
                sink.ev()
            }
            ChunkExec::Pool(_) => {
                let (x, ntotal) = (&atoms.x, atoms.ntotal());
                scratch.log(nlocal, ntotal, exec, &|log, chunk| {
                    lj_rows(x, list, chunk, cutsq, eshift, coeff, log);
                });
                kernels::replay_forces(scratch, &mut atoms.f, exec)
            }
        }
    }
}

/// The blocked row body of an LJ force pass, shared by [`LjCut`] and
/// [`super::LjCutMulti`]: `rows` ascending, each row's pair reactions in
/// neighbor order, then its own force — the scalar pass's updates in the
/// scalar pass's order, into `sink`. Each [`ROW_BLOCK`]-wide slab of a row
/// goes through the shared branch-free gather + filter ([`Slab::filter`])
/// at `cutsq`, then a fused force-prefactor / pair-energy lane loop over
/// the accepted lanes, whose shared `1.0 / r2` costs one division per lane.
/// `coeff(i, j)` gathers the pair's `[lj1, lj2, lj3, lj4]`. Every lane
/// runs the exact IEEE op sequence the scalar pass runs on that pair, and
/// rejected lanes' values are never read, so the stream is the scalar
/// kernel's bit for bit.
pub(super) fn lj_rows(
    x: &[[f64; 3]],
    list: &NeighborList,
    rows: std::ops::Range<usize>,
    cutsq: f64,
    eshift: f64,
    coeff: impl Fn(usize, u32) -> [f64; 4],
    sink: &mut impl Sink,
) {
    let half = !matches!(list.kind, ListKind::Full);
    let mut slab = Slab::new();
    for i in rows {
        let xi = x[i];
        let mut fi = [0.0f64; 3];
        for blk in list.neighbors(i).chunks(ROW_BLOCK) {
            let na = slab.filter(xi, x, blk, cutsq);
            let (jc, r2) = (&slab.j[..na], &slab.r2[..na]);
            let (fp, en) = (&mut slab.fp[..na], &mut slab.en[..na]);
            for k in 0..na {
                let [lj1, lj2, lj3, lj4] = coeff(i, jc[k]);
                let inv2 = 1.0 / r2[k];
                let inv6 = inv2 * inv2 * inv2;
                fp[k] = inv6 * (lj1 * inv6 - lj2) * inv2;
                en[k] = lj3 * inv6 * inv6 - lj4 * inv6 - eshift;
            }
            // One batch per slab for the ev stream; the products match the
            // scalar pass's op order.
            let ev = en.iter().zip(r2).zip(fp.iter());
            if half {
                sink.extend_ev(ev.map(|((&e, &rr), &fpk)| (e, rr * fpk)));
            } else {
                sink.extend_ev(ev.map(|((&e, &rr), &fpk)| (0.5 * e, 0.5 * rr * fpk)));
            }
            for k in 0..na {
                let j = jc[k];
                let xj = x[j as usize];
                let dx = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let fpair = fp[k];
                fi[0] += dx[0] * fpair;
                fi[1] += dx[1] * fpair;
                fi[2] += dx[2] * fpair;
                if half {
                    sink.add_force(j, [-(dx[0] * fpair), -(dx[1] * fpair), -(dx[2] * fpair)]);
                }
            }
        }
        sink.add_force(i as u32, fi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::NeighborList;

    #[test]
    fn minimum_at_two_sixth_sigma() {
        let lj = LjCut::lammps_bench();
        let rmin = 2.0f64.powf(1.0 / 6.0);
        assert!((lj.pair_energy(rmin) - -1.0).abs() < 1e-12);
        // fpair ~ 0 at the minimum.
        assert!(lj.fpair(rmin * rmin).abs() < 1e-10);
    }

    #[test]
    fn force_is_minus_energy_gradient() {
        let lj = LjCut::lammps_bench();
        for &r in &[0.9f64, 1.0, 1.5, 2.0, 2.4] {
            let h = 1e-6;
            let dudr = (lj.pair_energy(r + h) - lj.pair_energy(r - h)) / (2.0 * h);
            let f = lj.fpair(r * r) * r; // |f| with sign: positive = repulsive
            assert!(
                (f + dudr).abs() < 1e-5,
                "force/gradient mismatch at r={r}: f={f}, dU/dr={dudr}"
            );
        }
    }

    fn dimer(r: f64) -> Atoms {
        Atoms::from_positions(vec![[0.0; 3], [r, 0.0, 0.0]], 1)
    }

    #[test]
    fn half_and_full_lists_agree_on_forces_and_energy() {
        let r = 1.2;
        let mut a_half = dimer(r);
        let mut a_full = dimer(r);
        let lj_h = LjCut::lammps_bench();
        let lj_f = LjCut::new(1.0, 1.0, 2.5, ListKind::Full);
        let lh = NeighborList::build(&a_half, [-1.0; 3], [4.0; 3], ListKind::HalfNewton, 2.5, 0.3);
        let lf = NeighborList::build(&a_full, [-1.0; 3], [4.0; 3], ListKind::Full, 2.5, 0.3);
        let eh = lj_h.compute(&mut a_half, &lh);
        let ef = lj_f.compute(&mut a_full, &lf);
        assert!((eh.energy - ef.energy).abs() < 1e-12);
        assert!((eh.virial - ef.virial).abs() < 1e-12);
        for i in 0..2 {
            for d in 0..3 {
                assert!((a_half.f[i][d] - a_full.f[i][d]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn newton_pair_forces_are_opposite() {
        let mut a = dimer(1.1);
        let lj = LjCut::lammps_bench();
        let l = NeighborList::build(&a, [-1.0; 3], [4.0; 3], ListKind::HalfNewton, 2.5, 0.3);
        lj.compute(&mut a, &l);
        for d in 0..3 {
            assert!((a.f[0][d] + a.f[1][d]).abs() < 1e-12);
        }
        // Repulsive at r < 2^(1/6): atom 0 pushed in -x.
        assert!(a.f[0][0] < 0.0);
    }

    #[test]
    fn shifted_energy_is_continuous_at_cutoff() {
        let lj = LjCut::lammps_bench().shifted();
        assert!(lj.pair_energy(2.5 - 1e-9).abs() < 1e-8);
        assert_eq!(lj.pair_energy(2.5), 0.0);
        // Well depth shifts by the (positive) truncation energy.
        let unshifted = LjCut::lammps_bench();
        let rmin = 2.0f64.powf(1.0 / 6.0);
        assert!(lj.pair_energy(rmin) > unshifted.pair_energy(rmin));
        // Forces unchanged by the shift.
        assert_eq!(lj.fpair(1.44), unshifted.fpair(1.44));
    }

    #[test]
    fn beyond_cutoff_is_zero() {
        let mut a = dimer(2.6);
        let lj = LjCut::lammps_bench();
        let l = NeighborList::build(&a, [-1.0; 3], [5.0; 3], ListKind::HalfNewton, 2.5, 0.3);
        let e = lj.compute(&mut a, &l);
        assert_eq!(e.energy, 0.0);
        assert_eq!(a.f[0], [0.0; 3]);
    }
}
