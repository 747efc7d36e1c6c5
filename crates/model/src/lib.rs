//! # tofumd-model — analytic communication and performance models
//!
//! The quantitative analysis of the paper, as code:
//!
//! * [`table1`] — symbolic message sizes / hops / counts of the 3-stage
//!   and p2p ghost patterns (Table 1),
//! * [`equations`] — the pattern-time equations (3)–(8) over a
//!   [`tofumd_tofu::NetParams`],
//! * [`machine`] — the one modeled machine, [`Machine::fugaku`],
//! * [`stagecost`] — calibrated CPU costs of the Pair / Neigh / Modify /
//!   Other stages (Table 3's non-communication rows), and the ledger's
//!   stage types: the [`Stage`] a charge lands in, a rank's [`StageTimes`]
//!   and the Table 3 row, [`StageBreakdown`],
//! * [`scaling`] — throughput conversions (tau/day, us/day) and parallel
//!   efficiency (Figs. 13, 14).

#![warn(missing_docs)]
// Panicking escape hatches are reserved for tests; library paths report
// failures with a message naming the offending input instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod analytic;
pub mod equations;
pub mod machine;
pub mod scaling;
pub mod sensitivity;
pub mod stagecost;
pub mod table1;

pub use analytic::{opt_step_time, ref_step_time, AnalyticWorkload};
pub use equations::{pattern_times, PatternTimes, Transport};
pub use machine::Machine;
pub use scaling::{parallel_efficiency, units_per_day};
pub use sensitivity::{headline_speedup, sweep, Knob};
pub use stagecost::{RankWork, Stage, StageBreakdown, StageCosts, StageTimes, Threading};
pub use table1::{Geometry, PatternRow};
