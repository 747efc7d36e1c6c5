//! # tofumd-runtime — simulated-cluster execution
//!
//! Drives the communication engines of `tofumd-core` over real MD data in
//! bulk-synchronous lockstep:
//!
//! * [`config`] — run configurations mirroring the paper's Table 2 inputs,
//! * [`variant`] — the step-by-step communication designs of Fig. 12,
//! * [`cluster`] — the lockstep multi-rank façade with the LAMMPS stage
//!   breakdown (Pair / Neigh / Comm / Modify / Other) in virtual time;
//!   supports proxy-torus runs that carry a larger machine's per-rank
//!   workload for the scaling studies,
//! * [`driver`] — the deterministic host-parallel phase executor: a
//!   static per-step [`driver::Phase`] plan fanned out over a persistent
//!   node-aligned [`driver::Team`] on the spin pool (bit-identical at any
//!   thread count; DESIGN.md §9),
//! * [`physics`] — the per-rank compute kernels (neighbor rebuild, pair
//!   passes, NVE integration),
//! * [`accounting`] — the stage breakdown, `global_sync` clock alignment
//!   and the target-scale collective cost models. A rank's clock, stage
//!   times and comm counters all live on its `RankState`, the one ledger
//!   every phase and engine books into.
//!
//! # Example
//!
//! ```
//! use tofumd_runtime::{Cluster, CommVariant, RunConfig};
//!
//! // 4,000 LJ atoms over 48 simulated ranks with the paper's optimized
//! // communication; run ten steps and read the stage breakdown.
//! let mut cluster = Cluster::new([2, 3, 2], RunConfig::lj(4_000), CommVariant::Opt);
//! cluster.run(10);
//! let b = cluster.breakdown();
//! assert!(b.comm > 0.0 && b.pair > 0.0);
//! let t = cluster.thermo();
//! assert!(t.pe < 0.0);
//! ```

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; library paths must
// propagate errors through the typed-error plumbing instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod accounting;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod driver;
pub mod lockstep;
pub mod physics;
pub mod script;
pub mod trace;
pub mod variant;

pub use accounting::SyncBucket;
pub use checkpoint::{CheckpointData, CheckpointError, RankDump};
pub use cluster::{Cluster, StageBreakdown};
pub use config::{PotentialKind, RunConfig};
pub use driver::{Lane, Partition, Pass, Phase, PlanMode, Team};
pub use lockstep::{
    bisect_cluster_against_serial, bisect_clusters, AtomDelta, Divergence, DivergenceReport,
    FaultInjector, LockstepOptions,
};
pub use script::{parse_script, ScriptError, ScriptRun};
pub use trace::{OpCommRow, RecoveryStats, StepRecord, Trace};
pub use variant::CommVariant;
