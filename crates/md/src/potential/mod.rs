//! Interatomic potentials.
//!
//! Two families matching the paper's evaluation (Table 2):
//! * [`PairPotential`] — single-pass potentials on a pair list: LJ, whose
//!   [`LjCut`] type table covers any number of species, and SW.
//! * [`EamCu`] — the two-pass EAM potential that requires two *extra
//!   communications inside the pair stage*: a reverse exchange of ghost
//!   electron densities and a forward exchange of the embedding-energy
//!   derivative (§4 "the EAM potential requires two additional
//!   communications during the pair stage").
//!
//! Each scatter pass has a serial form (`compute*`: what
//! [`crate::SerialSim`] runs) and a `*_chunked` entry point the cluster
//! calls. Every potential writes the latter as one row body behind one
//! `match` on the executor it is handed: serial → the row body scatters
//! straight into the output array, pool → through the scatter log and its
//! replay ([`crate::kernels`]). Same bits either way. LJ and EAM keep a
//! scalar `compute*` as the oracle of their blocked row bodies; SW's
//! `compute` is its row body run serially, held to its analytic tests.

pub mod eam;
pub mod lj;
pub mod spline;
pub mod sw;

use crate::atom::Atoms;
use crate::kernels::PairScratch;
use crate::neighbor::{ListKind, NeighborList};
use tofumd_threadpool::ChunkExec;

pub use eam::EamCu;
pub use lj::LjCut;
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

/// Any potential the engines can run.
pub enum Potential {
    /// A single-pass potential on a pair list (LJ, SW).
    Pair(Box<dyn PairPotential>),
    /// The two-pass EAM potential with mid-stage communication.
    ManyBody(EamCu),
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
        let eam = Potential::ManyBody(EamCu::lammps_bench());
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
