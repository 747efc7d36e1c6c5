//! # tofumd-threadpool — spin-wait thread pool and fork-join comparator
//!
//! The paper's fine-grained communication (§3.3) replaces OpenMP's
//! per-region fork/join with a persistent pool of spin-waiting workers,
//! measuring 1.1 us of startup+sync overhead against OpenMP's 5.8 us, and
//! then uses the pool for *all* stages of LAMMPS. This crate provides:
//!
//! * [`SpinPool`] — a persistent pool dispatching scoped parallel regions
//!   via atomic epoch signalling (no parking, no per-region spawns),
//! * [`ChunkExec`] and [`GroupFanout`] — the chunk and group fan-outs the
//!   MD kernels and the runtime's rank driver run on the pool; with the
//!   pool they hold every `unsafe` site of the workspace,
//! * [`fork_join`] — the spawn-per-region comparator standing in for
//!   OpenMP's runtime,
//! * [`measure_overheads`] — the §3.3 overhead experiment, runnable on any
//!   host.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use tofumd_threadpool::SpinPool;
//!
//! let pool = SpinPool::new(4);
//! let hits = AtomicUsize::new(0);
//! // Dispatch a scoped parallel region: the closure may borrow locals.
//! pool.run(&|_tid| {
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 4);
//!
//! // Chunked iteration over a range:
//! let data: Vec<u64> = (0..1000).collect();
//! let sum = AtomicUsize::new(0);
//! pool.run_chunked(data.len(), &|_tid, range| {
//!     let s: u64 = data[range].iter().sum();
//!     sum.fetch_add(s as usize, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 499_500);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod exec;
pub mod forkjoin;
pub mod pool;
pub mod stats;

pub use exec::{ChunkExec, GroupFanout};
pub use forkjoin::fork_join;
pub use pool::SpinPool;
pub use stats::{measure_overheads, OverheadReport};
