//! Lennard-Jones 12-6 potential with cutoff (Eq. 1 of the paper).
//!
//! `pair_style lj/cut` with its `pair_coeff i j` table. The benchmark
//! workloads are single-species (Table 2) and build a one-entry table;
//! alloys and mixtures fill the table by Lorentz-Berthelot mixing from the
//! diagonal. Atom types travel with ghosts through the communication
//! layer's packed tag/type wire records.

use super::{PairEnergyVirial, PairPotential};
use crate::atom::Atoms;
use crate::kernels::{self, Direct, PairScratch, Sink, Slab, ROW_BLOCK};
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

/// One type pair's row `[lj1, lj2, lj3, lj4, eshift]` = `[48 eps sigma^12,
/// 24 eps sigma^6, 4 eps sigma^12, 4 eps sigma^6, U(r_cut)]`; `eshift` is
/// zero when unshifted (the benchmark default).
type Row = [f64; 5];

fn row(epsilon: f64, sigma: f64) -> Row {
    let s6 = sigma.powi(6);
    let s12 = s6 * s6;
    [
        48.0 * epsilon * s12,
        24.0 * epsilon * s6,
        4.0 * epsilon * s12,
        4.0 * epsilon * s6,
        0.0,
    ]
}

/// `(fpair, energy)` of one pair inside the cutoff, from r² and its row.
/// Like LAMMPS `pair_lj_cut`, both are built from `1/r²`: no sqrt, one
/// division shared by the force prefactor ("fpair": the force on i from j
/// is `fpair * (xi - xj)`) and the energy.
#[inline]
fn lj_pair([lj1, lj2, lj3, lj4, eshift]: Row, r2: f64) -> (f64, f64) {
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    (
        inv6 * (lj1 * inv6 - lj2) * inv2,
        lj3 * inv6 * inv6 - lj4 * inv6 - eshift,
    )
}

/// `pair_style lj/cut` equivalent: U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]
/// for r < r_cut, unshifted (LAMMPS default), over a row-major table of
/// per-type-pair rows (types are 1-based, as in LAMMPS). Every pair shares
/// one cutoff. A one-entry table serves every type pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LjCut {
    ntypes: usize,
    /// Row-major `[ntypes x ntypes]` coefficient table.
    table: Vec<Row>,
    cutoff: f64,
    cutsq: f64,
    /// Which list to consume. `HalfNewton` is the paper's main
    /// configuration; `Full` emulates full-neighbor-list potentials
    /// (Tersoff/DeePMD) for the Fig. 15 extended experiment — the force
    /// field is unchanged but every rank must exchange with all 26
    /// neighbors.
    list: ListKind,
}

impl LjCut {
    /// One species with explicit parameters: a one-entry table.
    #[must_use]
    pub fn new(epsilon: f64, sigma: f64, cutoff: f64, list: ListKind) -> Self {
        assert!(epsilon > 0.0 && sigma > 0.0 && cutoff > 0.0);
        LjCut {
            ntypes: 1,
            table: vec![row(epsilon, sigma)],
            cutoff,
            cutsq: cutoff * cutoff,
            list,
        }
    }

    /// Build from per-type `(epsilon, sigma)` with a shared cutoff, on the
    /// half/Newton list; every entry, the diagonal included, uses
    /// Lorentz-Berthelot mixing (`sigma_ij = (s_i + s_j)/2`,
    /// `eps_ij = sqrt(e_i e_j)`).
    #[must_use]
    pub fn from_types(types: &[(f64, f64)], cutoff: f64) -> Self {
        assert!(!types.is_empty() && cutoff > 0.0);
        let mut table = Vec::with_capacity(types.len() * types.len());
        for (ei, si) in types {
            for (ej, sj) in types {
                table.push(row((ei * ej).sqrt(), 0.5 * (si + sj)));
            }
        }
        LjCut {
            ntypes: types.len(),
            table,
            cutoff,
            cutsq: cutoff * cutoff,
            list: ListKind::HalfNewton,
        }
    }

    /// Enable the energy shift so every pair energy is continuous at the
    /// cutoff (`pair_modify shift yes`). Improves NVE energy conservation;
    /// forces are unchanged.
    #[must_use]
    pub fn shifted(mut self) -> Self {
        let inv6 = 1.0 / self.cutoff.powi(6);
        for r in &mut self.table {
            r[4] = r[2] * inv6 * inv6 - r[3] * inv6;
        }
        self
    }

    /// The paper's LJ benchmark configuration (Table 2): sigma = epsilon = 1,
    /// cutoff 2.5, Newton on (half list).
    #[must_use]
    pub fn lammps_bench() -> Self {
        Self::new(1.0, 1.0, 2.5, ListKind::HalfNewton)
    }

    /// The row of types (ti, tj); a one-entry table ignores the types.
    #[inline]
    fn row(&self, ti: u32, tj: u32) -> Row {
        if self.ntypes == 1 {
            return self.table[0];
        }
        debug_assert!(ti >= 1 && tj >= 1, "types are 1-based");
        self.table[(ti as usize - 1) * self.ntypes + (tj as usize - 1)]
    }

    /// [`lj_rows`] over every local row under `exec`, the pair's row
    /// `coeff(types, i, j)`: straight into `atoms.f` when serial, through
    /// `scratch`'s log when a pool.
    fn scatter(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
        coeff: impl Fn(&[u32], usize, u32) -> Row + Copy + Sync,
    ) -> PairEnergyVirial {
        let (x, typ, nlocal) = (&atoms.x, &atoms.typ, atoms.nlocal);
        let coeff = move |i, j| coeff(typ, i, j);
        match exec {
            ChunkExec::Serial => {
                let mut sink = Direct::forces(&mut atoms.f);
                lj_rows(x, list, 0..nlocal, self.cutsq, coeff, &mut sink);
                sink.ev()
            }
            ChunkExec::Pool(_) => {
                scratch.log(nlocal, x.len(), exec, &|log, chunk| {
                    lj_rows(x, list, chunk, self.cutsq, coeff, log);
                });
                kernels::replay_forces(scratch, &mut atoms.f, exec)
            }
        }
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
                let (fpair, e) = lj_pair(self.row(ti, atoms.typ[j]), r2);
                for d in 0..3 {
                    fi[d] += dx[d] * fpair;
                }
                if half {
                    // Newton's 3rd law: react on j (possibly a ghost whose
                    // force is reverse-communicated later).
                    for d in 0..3 {
                        atoms.f[j][d] -= dx[d] * fpair;
                    }
                    energy += e;
                    virial += r2 * fpair;
                } else {
                    // Full list: each pair visited twice machine-wide.
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

    /// LJ's blocked row body. A one-entry table hands it one captured
    /// constant row; a larger one gathers the pair's row by type in the
    /// lane loop.
    fn compute_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial {
        if self.ntypes == 1 {
            let c = self.table[0];
            self.scatter(atoms, list, exec, scratch, move |_, _, _| c)
        } else {
            self.scatter(atoms, list, exec, scratch, |typ, i, j| {
                self.row(typ[i], typ[j as usize])
            })
        }
    }
}

/// The blocked row body of an LJ force pass: `rows` ascending, each row's
/// pair reactions in neighbor order, then its own force — the scalar
/// pass's updates in the scalar pass's order, into `sink`. Each
/// [`ROW_BLOCK`]-wide slab of a row goes through the shared branch-free
/// gather + filter ([`Slab::filter`]) at `cutsq`, then a fused
/// force-prefactor / pair-energy lane loop over the accepted lanes, whose
/// shared `1.0 / r2` costs one division per lane. `coeff(i, j)` gathers
/// the pair's row. Every lane runs the exact IEEE op sequence the scalar
/// pass runs on that pair ([`lj_pair`]), and rejected lanes' values are
/// never read, so the stream is the scalar kernel's bit for bit.
fn lj_rows(
    x: &[[f64; 3]],
    list: &NeighborList,
    rows: std::ops::Range<usize>,
    cutsq: f64,
    coeff: impl Fn(usize, u32) -> Row,
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
                (fp[k], en[k]) = lj_pair(coeff(i, jc[k]), r2[k]);
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
    use crate::potential::Potential;

    /// Pair energy of types (ti, tj) at distance r, from the distance.
    fn pair_energy(lj: &LjCut, ti: u32, tj: u32, r: f64) -> f64 {
        if r >= lj.cutoff {
            return 0.0;
        }
        let [_, _, lj3, lj4, eshift] = lj.row(ti, tj);
        let inv6 = 1.0 / r.powi(6);
        lj3 * inv6 * inv6 - lj4 * inv6 - eshift
    }

    /// -dU/dr / r of types (ti, tj) at squared distance r².
    fn fpair(lj: &LjCut, ti: u32, tj: u32, r2: f64) -> f64 {
        lj_pair(lj.row(ti, tj), r2).0
    }

    #[test]
    fn minimum_at_two_sixth_sigma() {
        let lj = LjCut::lammps_bench();
        let rmin = 2.0f64.powf(1.0 / 6.0);
        assert!((pair_energy(&lj, 1, 1, rmin) - -1.0).abs() < 1e-12);
        // fpair ~ 0 at the minimum.
        assert!(fpair(&lj, 1, 1, rmin * rmin).abs() < 1e-10);
    }

    #[test]
    fn force_is_minus_energy_gradient() {
        let lj = LjCut::lammps_bench();
        for &r in &[0.9f64, 1.0, 1.5, 2.0, 2.4] {
            let h = 1e-6;
            let dudr = (pair_energy(&lj, 1, 1, r + h) - pair_energy(&lj, 1, 1, r - h)) / (2.0 * h);
            let f = fpair(&lj, 1, 1, r * r) * r; // |f| with sign: positive = repulsive
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
        assert!(pair_energy(&lj, 1, 1, 2.5 - 1e-9).abs() < 1e-8);
        assert_eq!(pair_energy(&lj, 1, 1, 2.5), 0.0);
        // Well depth shifts by the (positive) truncation energy.
        let unshifted = LjCut::lammps_bench();
        let rmin = 2.0f64.powf(1.0 / 6.0);
        assert!(pair_energy(&lj, 1, 1, rmin) > pair_energy(&unshifted, 1, 1, rmin));
        // Forces unchanged by the shift.
        assert_eq!(fpair(&lj, 1, 1, 1.44), fpair(&unshifted, 1, 1, 1.44));
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

    #[test]
    fn single_type_matches_plain_lj() {
        // Lorentz-Berthelot on the diagonal of one unit species reproduces
        // the one-entry table bit for bit.
        let table = LjCut::from_types(&[(1.0, 1.0)], 2.5);
        assert_eq!(table, LjCut::lammps_bench());
        let plain = LjCut::new(1.0, 1.0, 2.5, ListKind::HalfNewton);
        for &r in &[0.95, 1.2, 2.0, 2.4] {
            assert_eq!(pair_energy(&table, 1, 1, r), pair_energy(&plain, 1, 1, r));
        }
    }

    #[test]
    fn lorentz_berthelot_mixing() {
        let multi = LjCut::from_types(&[(1.0, 1.0), (4.0, 3.0)], 6.0);
        // eps_12 = sqrt(1*4) = 2, sigma_12 = 2.
        let direct = LjCut::new(2.0, 2.0, 6.0, ListKind::HalfNewton);
        for &r in &[2.0, 2.5, 3.0, 5.0] {
            assert!(
                (pair_energy(&multi, 1, 2, r) - pair_energy(&direct, 1, 1, r)).abs() < 1e-10,
                "mixed pair at {r}"
            );
        }
        // Symmetric, and shifted row by row.
        assert_eq!(
            pair_energy(&multi, 1, 2, 2.3),
            pair_energy(&multi, 2, 1, 2.3)
        );
        let shifted = multi.shifted();
        for (ti, tj) in [(1, 1), (1, 2), (2, 2)] {
            assert!(pair_energy(&shifted, ti, tj, 6.0 - 1e-9).abs() < 1e-8);
        }
    }

    #[test]
    fn binary_mixture_forces_respect_types() {
        // A hetero dimer at the 1-2 minimum has zero force; at the 1-1
        // minimum it does not.
        let multi = LjCut::from_types(&[(1.0, 1.0), (1.0, 2.0)], 6.0);
        // sigma_12 = 1.5 -> r_min = 1.5 * 2^(1/6).
        let rmin12 = 1.5 * 2f64.powf(1.0 / 6.0);
        let mut atoms = Atoms::from_positions(vec![[0.0; 3], [rmin12, 0.0, 0.0]], 1);
        atoms.typ[1] = 2;
        let list = NeighborList::build(&atoms, [-2.0; 3], [8.0; 3], ListKind::HalfNewton, 6.0, 0.0);
        multi.compute(&mut atoms, &list);
        assert!(atoms.f[0][0].abs() < 1e-9, "mixed dimer at its minimum");
        // Both atoms type 1: rmin12 > rmin11, so the pair attracts.
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
        let multi = LjCut::from_types(&[(1.0, 1.0), (0.8, 0.9)], 2.5);
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
