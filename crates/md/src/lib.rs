//! # tofumd-md — molecular-dynamics substrate
//!
//! A from-scratch MD engine reproducing the parts of LAMMPS that the paper
//! *"Enhance the Strong Scaling of LAMMPS on Fugaku"* (SC '23) exercises:
//!
//! * SoA atom storage with a local + ghost layout ([`atom`]),
//! * FCC lattice initialization ([`lattice`]) and periodic boxes ([`region`]),
//! * 13/26/62/124-neighbor enumeration and the RCB decomposition
//!   ([`domain`]),
//! * cell-binned Verlet neighbor lists with skin and both `neigh_modify`
//!   rebuild policies ([`neighbor`]),
//! * Lennard-Jones and EAM potentials — the paper's two benchmark force
//!   fields — LJ over a `pair_coeff`-style type table of any number of
//!   species, and EAM's two-pass structure that requires mid-pair-stage
//!   communication ([`potential`]),
//! * velocity-Verlet NVE integration ([`integrate`]) and thermodynamic
//!   observables ([`thermo`]),
//! * a complete serial reference engine used as the correctness anchor for
//!   the decomposed engines ([`serial`]),
//! * Stillinger-Weber silicon — the full-list three-body class of Fig. 15
//!   ([`potential::sw`]),
//! * materials-analysis extras: RDF/MSD observables ([`observe`]),
//!   Berendsen thermostatting ([`thermostat`]) and XYZ trajectory output
//!   ([`dump`]).
//!
//! The communication layer the paper contributes lives in `tofumd-core`;
//! the simulated TofuD network in `tofumd-tofu`.
//!
//! # Example
//!
//! ```
//! use tofumd_md::{lattice::FccLattice, neighbor::RebuildPolicy, potential::LjCut};
//! use tofumd_md::{velocity, Atoms, Potential, SerialSim, UnitSystem};
//!
//! // A small LJ melt at the Table-2 benchmark parameters.
//! let lat = FccLattice::from_reduced_density(0.8442);
//! let (bounds, pos) = lat.build(4, 4, 4);
//! let mut atoms = Atoms::from_positions(pos, 1);
//! velocity::finalize_velocities_serial(&mut atoms, 1.0, 1.44, UnitSystem::Lj, 42);
//! let mut sim = SerialSim::new(
//!     atoms,
//!     bounds,
//!     Potential::Pair(Box::new(LjCut::lammps_bench())),
//!     UnitSystem::Lj,
//!     0.3,
//!     RebuildPolicy::LJ,
//!     0.005,
//!     1.0,
//! );
//! sim.run(10);
//! let snap = sim.snapshot();
//! assert!(snap.pe < 0.0);          // bound system
//! assert!(snap.temperature > 0.0); // moving atoms
//! ```

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; library paths must
// propagate errors through the typed-error plumbing instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod atom;
pub mod domain;
pub mod dump;
pub mod integrate;
pub mod kernels;
pub mod lattice;
pub mod neighbor;
pub mod observe;
pub mod potential;
pub mod region;
pub mod serial;
pub mod thermo;
pub mod thermostat;
pub mod units;
pub mod velocity;
pub mod wirefmt;

pub use atom::Atoms;
pub use domain::{neighbor_offsets, NeighborOffset};
pub use dump::XyzTrajectory;
pub use integrate::{Masses, NveIntegrator};
pub use kernels::PairScratch;
pub use lattice::FccLattice;
pub use neighbor::{sort_locals_by_bin, ListKind, NeighborList, RebuildPolicy};
pub use observe::{Msd, Rdf};
pub use potential::{EamCu, LjCut, PairPotential, Potential, StillingerWeber};
pub use region::Box3;
pub use serial::SerialSim;
pub use thermo::ThermoSnapshot;
pub use thermostat::Berendsen;
pub use units::UnitSystem;
