//! # tofumd-tofu — TofuD network + uTofu interface simulator
//!
//! A software stand-in for the Fugaku interconnect the paper builds on:
//!
//! * the 6D mesh/torus topology with its folded virtual-3D-torus view and
//!   hop metric ([`topology`]),
//! * per-node registered memory with modeled registration costs ([`mem`]),
//! * the fabric itself — 6 TNIs per node with injection serialization,
//!   RDMA puts that write real bytes once, into the landing range (a byte
//!   slice copied in, or a [`PutSrc::Write`] payload serialized straight
//!   into the destination slice), MRQ notifications, piggyback payloads
//!   and cache injection ([`net`]),
//! * the uTofu-style VCQ user API whose `&mut`-based operations encode the
//!   "CQs are not thread-safe" constraint the paper designs around
//!   ([`rdma`]),
//! * a calibrated timing model with every constant sourced from the paper
//!   or the TofuD paper ([`timing`]).
//!
//! Virtual time: callers thread an `f64` clock through operations; the
//! fabric accounts injection serialization per TNI and wire time per
//! message. Real payload bytes are stored in the receiver's registered
//! memory — data correctness and timing fidelity are separated concerns.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tofumd_tofu::{try_wait_arrivals_into, CellGrid, NetParams, Put, PutSrc, TofuNet, Vcq};
//!
//! // One TofuD cell: 12 nodes in the 2x3x2 block.
//! let net = Arc::new(TofuNet::new(CellGrid::new([1, 1, 1]), NetParams::default()));
//! // Register a receive region on node 3 and put 4 bytes into it.
//! let (stadd, _reg_cost) = net.register_mem(3, 64);
//! let mut vcq = Vcq::create(net.clone(), 0, 0, 7).unwrap();
//! let mut clock = 0.0;
//! let put = Put {
//!     dst_node: 3,
//!     dst_stadd: stadd,
//!     dst_offset: 16,
//!     src: PutSrc::Bytes(&[1, 2, 3, 4]),
//!     piggyback: 0xBEEF,
//!     seq: 0,
//!     cache_injection: true,
//! };
//! let r = vcq.post_reliable(&mut clock, &put);
//! assert!(r.remote_arrival > 0.0);
//! // The receiver polls its MRQ and reads the bytes in place.
//! let mut arrivals = Vec::new();
//! let _now = try_wait_arrivals_into(&net, 3, 0.0, 1, |a| a.piggyback == 0xBEEF, &mut arrivals)
//!     .unwrap();
//! assert_eq!(arrivals[0].len, 4);
//! net.read_local_with(3, stadd, 16, 4, |bytes| assert_eq!(bytes, [1, 2, 3, 4]));
//!
//! // A payload can also be written once, straight into the landing range:
//! // no send buffer holds it first.
//! let write = |buf: &mut [u8]| buf.copy_from_slice(&[5, 6]);
//! let src = PutSrc::Write { len: 2, write: &write };
//! vcq.post_reliable(&mut clock, &Put { src, dst_offset: 20, seq: 1, ..put });
//! net.read_local_with(3, stadd, 16, 6, |bytes| assert_eq!(bytes, [1, 2, 3, 4, 5, 6]));
//! ```

#![warn(missing_docs)]
// The robustness layer guarantees typed error paths: anomalies in
// non-test code must surface as `TofuError`, never as an unwrap panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Dimension loops (`for d in 0..3`) index by physical dimension on fixed
// [f64; 3] vectors; the index is the semantics, so the iterator rewrite the
// lint suggests would be less clear.
#![allow(clippy::needless_range_loop)]

pub mod congestion;
pub mod fault;
pub mod mem;
pub mod net;
pub mod rdma;
pub mod timing;
pub mod topology;

pub use congestion::CongestionModel;
pub use fault::{
    FaultAction, FaultCounters, FaultKey, FaultKind, FaultPlan, FaultRates, FaultRule, TofuError,
    OP_SETUP,
};
pub use mem::{MemRegistry, Stadd};
pub use net::{
    Arrival, CqExhausted, PutRequest, PutResult, PutSrc, TofuNet, CQS_PER_TNI, TNIS_PER_NODE,
};
pub use rdma::{dedupe_arrivals, try_wait_arrivals_into, DeliveryAnomalies, Put, Vcq};
pub use timing::NetParams;
pub use topology::{CellGrid, CELL_DIMS, PAPER_NODE_MESHES};
