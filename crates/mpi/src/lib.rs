//! # tofumd-mpi — the baseline two-sided message layer
//!
//! An MPI stand-in layered over the simulated TofuD fabric, reproducing
//! the software costs the paper's analysis blames for MPI-p2p being slower
//! than MPI-3-stage (§3.2): per-message posting overhead, eager/rendezvous
//! fragmentation, receiver-side tag matching and bounce-buffer copies.
//! The allreduce uses a recursive-doubling cost model.
//! A rank's mailbox (its bounce buffer) is registered empty and holds what
//! the rank has received, not a guessed maximum.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod collective;
pub mod comm;

pub use comm::{Communicator, RecvMsg};
