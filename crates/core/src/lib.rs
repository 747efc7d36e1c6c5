//! # tofumd-core — the paper's contribution: optimized ghost communication
//!
//! Implements every communication design of *"Enhance the Strong Scaling of
//! LAMMPS on Fugaku"* (SC '23) over the simulated TofuD fabric:
//!
//! * the two **patterns** — the baseline 3-stage exchange with
//!   carry-forward, and peer-to-peer with the Newton-halved 13-neighbor
//!   exchange and its 26/62/124-neighbor generalizations — as one
//!   [`Pattern`] that lists each round's messages, shipped by one engine
//!   per **transport** ([`MpiEngine`] two-sided, [`UtofuEngine`] one-sided),
//! * one **ghost layout** behind both patterns ([`ghost`]): send list +
//!   periodic shift + ghost segment per halo edge, filled by the pattern's
//!   Border builder, and one typed gather/scatter ([`GhostOp`]: 3-vector or
//!   scalar × bcast or reduce) for the four repeated ghost ops — the
//!   engines only decide how the packed bytes travel,
//! * **coarse-grained** (4 ranks x 4 TNIs) and **fine-grained** (6 comm
//!   threads x 6 TNIs, LPT load balancing) parallel communication
//!   ([`UtofuConfig`], [`fine`]),
//! * **pre-registered addresses**: max-size one-time registration, direct
//!   forward writes into the remote position array, ghost-offset
//!   piggybacking and 4 round-robin receive buffers ([`UtofuConfig::pool6`]),
//! * the auxiliary optimizations: **message combine** ([`wire`]), **border
//!   bins** ([`border_bin`]) and the **topology map** ([`topo_map`]).
//!
//! Engines implement [`GhostEngine`] and are driven in bulk-synchronous
//! lockstep by `tofumd-runtime`.
//!
//! # Example: Table-1 geometry from a concrete grid graph
//!
//! ```
//! use tofumd_core::sf::{CommGraph, PlanConfig};
//! use tofumd_core::topo_map::{Placement, RankMap};
//! use tofumd_md::region::Box3;
//! use tofumd_tofu::CellGrid;
//!
//! let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap(); // 768 nodes
//! let map = RankMap::new(grid, Placement::TopoAware);
//! let rg = map.rank_grid;
//! let global = Box3::from_lengths([
//!     10.0 * rg[0] as f64,
//!     10.0 * rg[1] as f64,
//!     10.0 * rg[2] as f64,
//! ]);
//! let graph = CommGraph::grid(0, &map, &global, 2.8, PlanConfig::NEWTON);
//! // Newton's 3rd law: 13 neighbors, half the full shell.
//! assert_eq!(graph.neighbor_count(), 13);
//! // Face neighbors are one hop away under the topology mapping.
//! assert!(graph.recv.iter().all(|e| e.hops <= 3));
//! ```

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; library paths must
// propagate errors through the typed-error plumbing instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod border_bin;
pub mod engine;
pub mod fine;
pub mod ghost;
pub mod mpi_engine;
pub mod pattern;
pub mod sf;
pub mod topo_map;
pub mod utofu_engine;
pub mod wire;

pub use border_bin::BorderBins;
pub use engine::{CommStats, GhostEngine, GhostOp, Op, RankState};
pub use mpi_engine::MpiEngine;
pub use pattern::{Pattern, PatternKind};
pub use sf::{CommGraph, CommPlan, GraphEdge, MigratePeer, PlanConfig, SendSelector};
pub use topo_map::{Placement, RankMap, RANKS_PER_NODE_SPLIT};
pub use utofu_engine::{AddressBook, UtofuConfig, UtofuEngine};
