//! # tofumd — facade crate
//!
//! Re-exports the whole workspace: a Rust reproduction of *"Enhance the
//! Strong Scaling of LAMMPS on Fugaku"* (SC '23). See the README for the
//! architecture and DESIGN.md / EXPERIMENTS.md for the reproduction map.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use tofumd_core as comm;
pub use tofumd_md as md;
pub use tofumd_model as model;
pub use tofumd_mpi as mpi;
pub use tofumd_runtime as runtime;
pub use tofumd_threadpool as threadpool;
pub use tofumd_tofu as tofu;
