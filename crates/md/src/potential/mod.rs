//! Interatomic potentials.
//!
//! Two families matching the paper's evaluation (Table 2):
//! * [`PairPotential`] — single-pass pairwise potentials (Lennard-Jones).
//! * [`ManyBodyPotential`] — EAM-style two-pass potentials that require two
//!   *extra communications inside the pair stage*: a reverse exchange of
//!   ghost electron densities and a forward exchange of the embedding-energy
//!   derivative (§4 "the EAM potential requires two additional
//!   communications during the pair stage").
//!
//! Each scatter pass has a serial form (`compute*`: what
//! [`crate::SerialSim`] runs) and a `*_chunked` entry point the cluster
//! calls. Every potential writes the latter as one row body behind one
//! `match` on the executor it is handed: serial → the row body scatters
//! straight into the output array, pool → through the scatter log and its
//! replay ([`crate::kernels`]). Same bits either way. LJ, multi-type LJ and
//! EAM keep a scalar `compute*` as the oracle of their blocked row bodies;
//! SW's `compute` is its row body run serially, held to its analytic tests.

pub mod eam;
pub mod lj;
pub mod lj_multi;
pub mod spline;
pub mod sw;

use crate::atom::Atoms;
use crate::kernels::PairScratch;
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

pub use eam::EamCu;
pub use lj::LjCut;
pub use lj_multi::LjCutMulti;
pub use sw::StillingerWeber;

/// Accumulated potential energy and scalar virial (sum over pairs of
/// r_ij . f_ij), both counted once per pair machine-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairEnergyVirial {
    /// Potential energy contribution.
    pub energy: f64,
    /// Scalar virial contribution (sum of r . f over pairs).
    pub virial: f64,
}

/// A single-pass pairwise potential.
pub trait PairPotential: Send + Sync {
    /// Force cutoff distance.
    fn cutoff(&self) -> f64;

    /// Which neighbor list the potential consumes.
    fn list_kind(&self) -> ListKind;

    /// Compute forces into `atoms.f` (ghost entries included when the list
    /// is half/Newton) and return energy/virial contributions of this
    /// rank, on one thread: the reference every other formulation is held
    /// to, and what [`crate::SerialSim`] runs.
    fn compute(&self, atoms: &mut Atoms, list: &NeighborList) -> PairEnergyVirial;

    /// [`PairPotential::compute`] at kernel speed, bit-identical to it
    /// under any executor (see [`crate::kernels`]): the row body scatters
    /// straight into `atoms.f` when `exec` is serial and through
    /// `scratch`'s log when it is a pool.
    fn compute_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial;

    /// Does the compute pass accumulate forces on ghost atoms (requiring a
    /// reverse exchange)? Half-list potentials always do; full-list pair
    /// potentials don't; full-list *many-body* potentials (SW, Tersoff) do.
    fn writes_ghost_forces(&self) -> bool {
        !matches!(self.list_kind(), ListKind::Full)
    }
}

/// A two-pass (EAM-like) potential with mid-pair-stage communication.
///
/// The driving engine must:
/// 1. call [`ManyBodyPotential::compute_rho`],
/// 2. **reverse-communicate** ghost `rho` contributions to their owners,
/// 3. call [`ManyBodyPotential::compute_embedding`],
/// 4. **forward-communicate** local `fp` values to ghosts,
/// 5. call [`ManyBodyPotential::compute_force`].
pub trait ManyBodyPotential: Send + Sync {
    /// Force cutoff distance.
    fn cutoff(&self) -> f64;

    /// Accumulate electron density for local *and ghost* atoms
    /// (half/Newton list: each pair contributes to both endpoints).
    fn compute_rho(&self, atoms: &Atoms, list: &NeighborList, rho: &mut Vec<f64>);

    /// [`ManyBodyPotential::compute_rho`] at kernel speed, bit-identical to
    /// it under any executor: direct when `exec` is serial, through
    /// `scratch`'s log when it is a pool.
    fn compute_rho_chunked(
        &self,
        atoms: &Atoms,
        list: &NeighborList,
        rho: &mut Vec<f64>,
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    );

    /// Compute the embedding energy for local atoms from the fully-reduced
    /// density, filling `fp[i] = F'(rho_i)`; returns the summed embedding
    /// energy of local atoms.
    fn compute_embedding(&self, atoms: &Atoms, rho: &[f64], fp: &mut Vec<f64>) -> f64;

    /// Chunk-parallel [`ManyBodyPotential::compute_embedding`],
    /// bit-identical to it at any thread count.
    fn compute_embedding_chunked(
        &self,
        atoms: &Atoms,
        rho: &[f64],
        fp: &mut Vec<f64>,
        exec: &ChunkExec<'_>,
    ) -> f64;

    /// Final force pass; `fp` must be valid for locals *and* ghosts.
    fn compute_force(&self, atoms: &mut Atoms, list: &NeighborList, fp: &[f64])
        -> PairEnergyVirial;

    /// [`ManyBodyPotential::compute_force`] at kernel speed, bit-identical
    /// to it under any executor; same dispatch as
    /// [`ManyBodyPotential::compute_rho_chunked`].
    fn compute_force_chunked(
        &self,
        atoms: &mut Atoms,
        list: &NeighborList,
        fp: &[f64],
        exec: &ChunkExec<'_>,
        scratch: &mut PairScratch,
    ) -> PairEnergyVirial;
}

/// Any potential the engines can run.
pub enum Potential {
    /// A single-pass pairwise potential (LJ).
    Pair(Box<dyn PairPotential>),
    /// A two-pass potential with mid-stage communication (EAM).
    ManyBody(Box<dyn ManyBodyPotential>),
}

impl Potential {
    /// Force cutoff of the wrapped potential.
    #[must_use]
    pub fn cutoff(&self) -> f64 {
        match self {
            Potential::Pair(p) => p.cutoff(),
            Potential::ManyBody(p) => p.cutoff(),
        }
    }

    /// Neighbor list kind the potential needs. Many-body (EAM) uses the
    /// half/Newton list like LAMMPS's eam pair style.
    #[must_use]
    pub fn list_kind(&self) -> ListKind {
        match self {
            Potential::Pair(p) => p.list_kind(),
            Potential::ManyBody(_) => ListKind::HalfNewton,
        }
    }

    /// True if ghost forces must be reverse-communicated after the pair
    /// stage.
    #[must_use]
    pub fn needs_reverse(&self) -> bool {
        match self {
            Potential::Pair(p) => p.writes_ghost_forces(),
            Potential::ManyBody(_) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn potential_enum_dispatch() {
        let lj = Potential::Pair(Box::new(LjCut::lammps_bench()));
        assert!(lj.needs_reverse(), "half-list LJ reverse-communicates");
        assert_eq!(lj.cutoff(), 2.5);
        let eam = Potential::ManyBody(Box::new(EamCu::lammps_bench()));
        assert!(eam.needs_reverse());
        assert_eq!(eam.list_kind(), ListKind::HalfNewton);
    }

    #[test]
    fn reverse_requirements_by_potential_class() {
        use crate::neighbor::ListKind;
        let lj_full = Potential::Pair(Box::new(LjCut::new(1.0, 1.0, 2.5, ListKind::Full)));
        assert!(!lj_full.needs_reverse(), "full-list pair: no ghost writes");
        let sw = Potential::Pair(Box::new(StillingerWeber::silicon()));
        assert!(sw.needs_reverse(), "full-list many-body still reverses");
        assert_eq!(sw.list_kind(), ListKind::Full);
    }
}
