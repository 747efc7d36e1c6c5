//! Ghost engines over the uTofu one-sided transport: the paper's
//! contribution (§3.2–§3.4).
//!
//! Variants:
//! * [`UtofuThreeStage`] — the staged pattern re-implemented on uTofu
//!   (paper artifact `utofu_3stage`),
//! * [`UtofuP2p`] with [`UtofuConfig::coarse4`] — coarse-grained p2p, one
//!   VCQ per rank on its own TNI (`4tni_p2p`),
//! * [`UtofuConfig::single6`] — single thread driving 6 VCQs, the §4.2
//!   "abnormally poor" configuration (`6tni_p2p`),
//! * [`UtofuConfig::pool6`] — the optimized code: 6 spin-pool comm threads,
//!   one VCQ per TNI, pre-registered max-size buffers, ghost offsets
//!   piggybacked, forward puts written directly into the remote position
//!   array, 4 round-robin receive buffers (`opt`).
//!
//! The setup-stage address exchange (§3.4, Fig. 10: "all the registered
//! addresses of receive buffers and atom position arrays are sent to
//! neighbors") is modeled by a shared [`AddressBook`].
//!
//! Each engine has one send routine. What differs per message is only
//! where the payload comes from ([`Payload`]): a ghost op is serialized
//! *in place* into one of this rank's registered send regions and put
//! straight from there — no staging copy, no pack cost, `bytes_copied`
//! stays 0 — while Border and Exchange, which discover their payload
//! while packing, are framed through a staging copy that is charged and
//! counted.

use crate::engine::{GhostEngine, GhostOp, Op, OpKind, OpStats, RankState};
use crate::fine;
use crate::ghost::{staged_links, staged_shifts, staged_sweep, GhostLayout, Payload};
use crate::plan::NeighborLink;
use crate::sf::{CommGraph, GraphEdge, SendSelector};
use crate::topo_map::RankMap;
use crate::wire;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tofumd_md::region::Box3;
use tofumd_tofu::{
    dedupe_arrivals, try_wait_arrivals, Arrival, CqExhausted, DeliveryAnomalies, PutResult, Stadd,
    TofuError, TofuNet, Vcq, TNIS_PER_NODE,
};

/// Buffer kinds published in the address book.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BufKind {
    /// Receives border/forward/forward-scalar payloads (ghost-side inflow,
    /// from `recv[k]`).
    GhostIn,
    /// Receives reverse/reverse-scalar payloads and piggybacks (owner-side
    /// inflow, from `send[k]`).
    OwnerIn,
    /// The registered atom-position region (pre-registered direct writes).
    XRegion,
}

impl BufKind {
    fn label(self) -> &'static str {
        match self {
            BufKind::GhostIn => "ghost-in",
            BufKind::OwnerIn => "owner-in",
            BufKind::XRegion => "x-region",
        }
    }

    /// The peer-side buffer kind `op`'s payloads land in.
    fn inflow(op: Op) -> Self {
        if op.toward_ghosts() {
            BufKind::GhostIn
        } else {
            BufKind::OwnerIn
        }
    }
}
/// Key of one published buffer: (rank, kind, the *owner's* edge index,
/// slot) — senders address a peer's buffer through their edge's
/// `peer_index`, which is that index by construction.
type AddrKey = (u32, BufKind, u16, u8);

/// Shared registry of every rank's registered buffer addresses — the
/// simulated setup-stage address exchange.
///
/// Read-mostly after setup: every post consults it, writes happen only at
/// registration and on buffer growth. An `RwLock` keeps the host-parallel
/// phase driver's concurrent lookups from serializing on one mutex.
#[derive(Default)]
pub struct AddressBook {
    map: RwLock<HashMap<AddrKey, (Stadd, usize)>>,
}

impl AddressBook {
    /// New empty book (one per cluster).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn publish(&self, rank: u32, kind: BufKind, link: u16, slot: u8, stadd: Stadd, size: usize) {
        self.map
            .write()
            .insert((rank, kind, link, slot), (stadd, size));
    }

    fn lookup(
        &self,
        rank: u32,
        kind: BufKind,
        link: u16,
        slot: u8,
    ) -> Result<(Stadd, usize), TofuError> {
        self.map
            .read()
            .get(&(rank, kind, link, slot))
            .copied()
            .ok_or(TofuError::MissingBuffer {
                rank,
                kind: kind.label(),
                link: usize::from(link),
                slot: usize::from(slot),
            })
    }

    fn update_size(&self, rank: u32, kind: BufKind, link: u16, slot: u8, size: usize) {
        if let Some(e) = self.map.write().get_mut(&(rank, kind, link, slot)) {
            e.1 = size;
        }
    }
}

/// Configuration of a uTofu p2p engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UtofuConfig {
    /// VCQs this rank creates (1 = own TNI only, 6 = one per TNI).
    pub vcqs: usize,
    /// Communication threads driving the VCQs (1 or 6; 6 requires 6 VCQs).
    pub comm_threads: usize,
    /// Pre-registered max-size buffers, direct forward writes and offset
    /// piggybacking (§3.4) — the `opt` behaviour.
    pub prereg: bool,
    /// Round-robin receive buffers per link (1 baseline, 4 in `opt`).
    pub slots: usize,
    /// Retransmissions allowed per failed put before the engine escapes to
    /// the reliable stack and requests fallback to an MPI transport.
    pub retry_budget: u32,
}

impl UtofuConfig {
    /// Default put-retry budget: enough to absorb any recoverable fault a
    /// seeded plan produces (those only hit a message's first attempt).
    pub const DEFAULT_RETRY_BUDGET: u32 = 3;

    /// Coarse-grained p2p: 1 thread, own TNI (`4tni_p2p`).
    #[must_use]
    pub fn coarse4() -> Self {
        UtofuConfig {
            vcqs: 1,
            comm_threads: 1,
            prereg: false,
            slots: 1,
            retry_budget: Self::DEFAULT_RETRY_BUDGET,
        }
    }

    /// Single thread over all 6 TNIs (`6tni_p2p`).
    #[must_use]
    pub fn single6() -> Self {
        UtofuConfig {
            vcqs: TNIS_PER_NODE,
            comm_threads: 1,
            prereg: false,
            slots: 1,
            retry_budget: Self::DEFAULT_RETRY_BUDGET,
        }
    }

    /// The optimized configuration: spin-pool threads, all TNIs,
    /// pre-registration, 4 round-robin buffers (`opt`).
    #[must_use]
    pub fn pool6() -> Self {
        UtofuConfig {
            vcqs: TNIS_PER_NODE,
            comm_threads: TNIS_PER_NODE,
            prereg: true,
            slots: 4,
            retry_budget: Self::DEFAULT_RETRY_BUDGET,
        }
    }
}

/// How generously baseline (non-prereg) buffers are undersized at setup so
/// dynamic growth — the §3.4 overhead — occurs and is accounted.
const BASELINE_UNDERSIZE: usize = 4;

/// Largest record width any op stores per atom (exchange: tag + x + v).
const MAX_RECORD_F64S: usize = wire::EXCHANGE_RECORD_F64S;

/// Take all arrivals matching `pred`, canonicalize them with
/// [`dedupe_arrivals`] (deterministic order; duplicate and overwritten
/// deliveries collapsed), and require at least `count` *distinct*
/// deliveries to survive — a post-dedupe shortfall means a message is
/// genuinely missing even though retransmissions padded the raw count.
fn wait_deduped(
    net: &TofuNet,
    node: usize,
    now: f64,
    count: usize,
    pred: impl FnMut(&Arrival) -> bool,
) -> Result<(Vec<Arrival>, f64, DeliveryAnomalies), TofuError> {
    let (mut arrivals, t) = try_wait_arrivals(net, node, now, count, pred)?;
    let anomalies = dedupe_arrivals(&mut arrivals);
    if arrivals.len() < count {
        return Err(net.shortfall_error(node, count, arrivals.len()));
    }
    Ok((arrivals, t, anomalies))
}

/// Where a put's bytes come from.
#[derive(Clone, Copy)]
enum PutSrc<'a> {
    /// A frame staged in ordinary memory (Border, Exchange), or nothing at
    /// all (descriptor-only piggybacks).
    Bytes(&'a [u8]),
    /// `len` bytes at `offset` of one of this rank's own registered
    /// regions, serialized there in place — the NIC reads the region
    /// directly, so there is no staging buffer.
    Region {
        stadd: Stadd,
        offset: usize,
        len: usize,
    },
}

impl PutSrc<'_> {
    fn len(&self) -> usize {
        match *self {
            PutSrc::Bytes(data) => data.len(),
            PutSrc::Region { len, .. } => len,
        }
    }
}

/// One logical message: the descriptor fields of a put.
struct Put<'a> {
    dst_node: usize,
    dst_stadd: Stadd,
    dst_offset: usize,
    src: PutSrc<'a>,
    piggyback: u64,
    /// Sequence stamp; retransmissions reuse it.
    seq: u64,
    cache_injection: bool,
}

/// Post one logical message on the faultable path, retrying with
/// exponential backoff (charged to the virtual clock) up to `budget`
/// resends. Retransmissions reuse `seq` so the receiver's duplicate
/// detection coalesces partial deliveries. When the budget is exhausted
/// the payload is handed to the reliable stack ([`Vcq::put_reliable`]) —
/// which cannot lose it — and the engine flags a fallback request so the
/// driver demotes the cluster to an MPI transport at the end of the step.
#[allow(clippy::too_many_arguments)]
fn put_with_retry(
    vcq: &mut Vcq,
    budget: u32,
    stats: &mut OpStats,
    op: Op,
    round: usize,
    fallback_wanted: &mut bool,
    now: &mut f64,
    put: Put<'_>,
) -> PutResult {
    let p = *vcq.net().params();
    let mut attempt = 0u32;
    loop {
        let tried = match put.src {
            PutSrc::Bytes(data) => vcq.try_put(
                now,
                put.dst_node,
                put.dst_stadd,
                put.dst_offset,
                data,
                put.piggyback,
                put.seq,
                attempt,
                put.cache_injection,
            ),
            PutSrc::Region { stadd, offset, len } => vcq.try_put_from_region(
                now,
                put.dst_node,
                put.dst_stadd,
                put.dst_offset,
                stadd,
                offset,
                len,
                put.piggyback,
                put.seq,
                attempt,
                put.cache_injection,
            ),
        };
        match tried {
            Ok(r) => return r,
            Err(_) if attempt < budget => {
                stats.retry(op, round);
                *now += p.retry_backoff * f64::from(1u32 << attempt.min(16));
                attempt += 1;
            }
            Err(_) => {
                stats.fallback(op, round);
                *fallback_wanted = true;
                *now += p.fallback_penalty + p.cpu_per_put_mpi;
                return match put.src {
                    PutSrc::Bytes(data) => vcq.put_reliable(
                        now,
                        put.dst_node,
                        put.dst_stadd,
                        put.dst_offset,
                        data,
                        put.piggyback,
                        put.seq,
                        put.cache_injection,
                    ),
                    PutSrc::Region { stadd, offset, len } => vcq.put_reliable_from_region(
                        now,
                        put.dst_node,
                        put.dst_stadd,
                        put.dst_offset,
                        stadd,
                        offset,
                        len,
                        put.piggyback,
                        put.seq,
                        put.cache_injection,
                    ),
                };
            }
        }
    }
}

/// Serialize `payload` as a combined frame *in place* at the head of the
/// local registered send region `out = (stadd, size)`, growing it first
/// when undersized (a local re-registration, not a remote handshake).
/// Returns the framed length in bytes and the growth cost (0 when none).
fn frame_in_place(
    net: &TofuNet,
    node: usize,
    out: &mut (Stadd, usize),
    ghosts: &GhostLayout,
    st: &RankState,
    payload: Payload<'_>,
) -> (usize, f64) {
    let need = wire::combined_size(payload.len(ghosts));
    let mut cost = 0.0;
    if need > out.1 {
        out.1 = need.next_power_of_two();
        cost = net.grow_mem(node, out.0, out.1);
    }
    let framed = net.write_local_with(node, out.0, 0, need, |buf| {
        let mut w = wire::CombinedWriter::new(buf);
        payload.write(ghosts, st, &mut w);
        w.finish()
    });
    (framed, cost)
}

/// Register memory through the faultable path, absorbing transient
/// registration refusals: each refused attempt still pays the kernel
/// transition (`mem_reg_base`), charged to `setup_cost`. After `budget`
/// refusals the engine registers through the reliable path, which cannot
/// fail. Refused attempts consume no region handle, so the address
/// sequence stays identical to a fault-free build.
fn register_with_retry(
    net: &Arc<TofuNet>,
    node: usize,
    len: usize,
    budget: u32,
    setup_cost: &mut f64,
) -> Stadd {
    for _ in 0..=budget {
        match net.try_register_mem(node, len) {
            Ok((stadd, cost)) => {
                *setup_cost += cost;
                return stadd;
            }
            Err(_) => *setup_cost += net.params().mem_reg_base,
        }
    }
    let (stadd, cost) = net.register_mem(node, len);
    *setup_cost += cost;
    stadd
}

/// Up to three creation attempts on one `(node, tni)` — rides out a
/// transiently exhausted CQ pool (an `ExhaustCq { times: <3 }` fault)
/// without giving up the preferred TNI binding.
fn create_vcq_retry(
    net: &Arc<TofuNet>,
    node: usize,
    tni: usize,
    tag: u32,
) -> Result<Vcq, CqExhausted> {
    for _ in 0..2 {
        if let Ok(v) = Vcq::create(net.clone(), node, tni, tag) {
            return Ok(v);
        }
    }
    Vcq::create(net.clone(), node, tni, tag)
}

/// Create a VCQ on the first TNI with a free CQ, preferring `first`.
/// Returns the exhaustion report for `first` when a different TNI had to
/// be used. Panics only when every TNI on the node is exhausted — with
/// 9 CQs x 6 TNIs against 4 ranks that is real resource starvation, not
/// a transient fault.
fn create_vcq_scan(
    net: &Arc<TofuNet>,
    node: usize,
    first: usize,
    tag: u32,
) -> (Vcq, Option<CqExhausted>) {
    let displaced = match create_vcq_retry(net, node, first, tag) {
        Ok(v) => return (v, None),
        Err(e) => Some(e),
    };
    for tni in (0..TNIS_PER_NODE).filter(|&t| t != first) {
        if let Ok(v) = create_vcq_retry(net, node, tni, tag) {
            return (v, displaced);
        }
    }
    panic!("node {node}: every TNI's CQ pool is exhausted (rank tag {tag})");
}

/// The uTofu p2p engine family.
pub struct UtofuP2p {
    net: Arc<TofuNet>,
    book: Arc<AddressBook>,
    node: usize,
    cfg: UtofuConfig,
    vcqs: Vec<Vcq>,
    sel: Option<SendSelector>,
    ghosts: GhostLayout,
    /// `[edge][slot]` receive buffers per inflow direction. (Capacities
    /// live in the address book, which senders consult before writing.)
    ghost_in: Vec<Vec<Stadd>>,
    owner_in: Vec<Vec<Stadd>>,
    /// Per edge index: *local* registered send region `(stadd, bytes)` the
    /// ghost-op frames are serialized into in place. Never published —
    /// only this rank's NIC reads them.
    send_out: Vec<(Stadd, usize)>,
    x_region: Option<Stadd>,
    /// Per send link: byte offset in the neighbor's x-region where our
    /// forwarded positions land (learned via piggyback at border time).
    remote_ghost_off: Vec<Option<usize>>,
    /// Round-robin slot cursor, advanced once per posted op.
    seq: usize,
    /// Sequence stamp for the *next* logical message; retransmissions of a
    /// message reuse its number, so receivers can detect duplicates.
    send_seq: u64,
    /// Sticky flag: a retry budget was exhausted and the payload escaped
    /// to the reliable stack — the driver should demote this cluster.
    fallback_wanted: bool,
    /// Set when CQ exhaustion at build time forced the shared single-VCQ
    /// configuration instead of the requested one.
    cq_fallback: Option<CqExhausted>,
    setup_cost: f64,
    /// Buffer-growth events observed (0 under prereg — test observable).
    pub growth_events: u64,
    stats: OpStats,
}

impl UtofuP2p {
    /// Build the engine for one rank and publish its buffers.
    ///
    /// `density` sizes the §3.4 "theoretical upper limit" buffers.
    #[must_use]
    pub fn new(
        net: Arc<TofuNet>,
        book: Arc<AddressBook>,
        graph: &CommGraph,
        node: usize,
        density: f64,
        cfg: UtofuConfig,
    ) -> Self {
        assert!(cfg.vcqs >= 1 && cfg.vcqs <= TNIS_PER_NODE);
        assert!(cfg.comm_threads == 1 || cfg.comm_threads == cfg.vcqs);
        let me = graph.me;
        let mut cfg = cfg;
        let mut setup_cost = 0.0;
        let mut cq_fallback = None;
        let mut vcqs = Vec::with_capacity(cfg.vcqs);
        // Coarse-grained (1 VCQ): rank r binds its own TNI (4 ranks -> 4
        // TNIs); fine-grained binds every TNI.
        let wanted: Vec<usize> = if cfg.vcqs == 1 {
            vec![me % 4]
        } else {
            (0..cfg.vcqs).collect()
        };
        let mut exhausted = None;
        for &tni in &wanted {
            match create_vcq_retry(&net, node, tni, me as u32) {
                Ok(v) => vcqs.push(v),
                Err(e) => {
                    exhausted = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = exhausted {
            // Persistent CQ exhaustion: return the partial set to the pool
            // (each Vcq frees its CQ on drop) and degrade to the shared
            // single-VCQ configuration on whichever TNI has room.
            vcqs.clear();
            cq_fallback = Some(e);
            cfg.vcqs = 1;
            cfg.comm_threads = 1;
            let (v, _) = create_vcq_scan(&net, node, me % 4, me as u32);
            vcqs.push(v);
        }
        let n = graph.recv.len();
        let mut mk_bufs = |links: &[GraphEdge], kind: BufKind| -> Vec<Vec<Stadd>> {
            let mut bufs = Vec::with_capacity(n);
            for (k, link) in links.iter().enumerate() {
                let est_atoms = graph.max_atoms_estimate(link.offset, density);
                let full = wire::combined_size(est_atoms * MAX_RECORD_F64S);
                let size = if cfg.prereg {
                    full
                } else {
                    (full / BASELINE_UNDERSIZE).max(64)
                };
                let mut per_slot = Vec::with_capacity(cfg.slots);
                for slot in 0..cfg.slots {
                    let stadd =
                        register_with_retry(&net, node, size, cfg.retry_budget, &mut setup_cost);
                    book.publish(me as u32, kind, k as u16, slot as u8, stadd, size);
                    per_slot.push(stadd);
                }
                bufs.push(per_slot);
            }
            bufs
        };
        // Ghost-side inflow arrives along recv edges; its max size mirrors
        // my own outgoing slab toward the opposite side — symmetric volumes.
        let ghost_in = mk_bufs(&graph.recv, BufKind::GhostIn);
        let owner_in = mk_bufs(&graph.send, BufKind::OwnerIn);
        // Local send regions, always full-size (they are this rank's own
        // memory — the undersize experiment concerns *remote* receive
        // buffers). Forward ops pack here per send edge, reverse ops per
        // recv edge; volumes are symmetric, so one set serves both.
        let mut send_out = Vec::with_capacity(n);
        for link in &graph.send {
            let est_atoms = graph.max_atoms_estimate(link.offset, density);
            let size = wire::combined_size(est_atoms * MAX_RECORD_F64S);
            let stadd = register_with_retry(&net, node, size, cfg.retry_budget, &mut setup_cost);
            send_out.push((stadd, size));
        }
        let x_region = if cfg.prereg {
            // Position array registered once at its theoretical maximum:
            // locals + full ghost shell, with the plan's 2x headroom.
            let local_est = (density * graph.sub.volume() * 2.0) as usize + 64;
            let ghost_est = (graph.total_ghost_estimate(density) * 2.0) as usize + 64;
            let bytes = (local_est + ghost_est) * 24;
            let stadd = register_with_retry(&net, node, bytes, cfg.retry_budget, &mut setup_cost);
            book.publish(me as u32, BufKind::XRegion, 0, 0, stadd, bytes);
            Some(stadd)
        } else {
            None
        };
        UtofuP2p {
            net,
            book,
            node,
            cfg,
            vcqs,
            sel: None,
            ghosts: GhostLayout::default(),
            ghost_in,
            owner_in,
            send_out,
            x_region,
            remote_ghost_off: vec![None; n],
            seq: 0,
            send_seq: 0,
            fallback_wanted: false,
            cq_fallback,
            setup_cost,
            growth_events: 0,
            stats: OpStats::default(),
        }
    }

    /// The CQ-exhaustion event that forced this engine into the shared
    /// single-VCQ configuration at build time, if any.
    #[must_use]
    pub fn cq_fallback(&self) -> Option<CqExhausted> {
        self.cq_fallback
    }

    /// Make sure the peer buffer `op`'s payload on out-edge `k` lands in
    /// holds `need` bytes, and return it. Growing an undersized buffer is
    /// a handshake + re-registration — the dynamic-expansion overhead
    /// pre-registration eliminates.
    fn reserve_dst(
        &mut self,
        st: &mut RankState,
        op: Op,
        k: usize,
        slot: u8,
        need: usize,
    ) -> Result<Stadd, TofuError> {
        let link = st.graph.out_edges(op)[k];
        let (rank, kind, idx) = (
            link.rank as u32,
            BufKind::inflow(op),
            link.peer_index as u16,
        );
        let (stadd, size) = self.book.lookup(rank, kind, idx, slot)?;
        if need > size {
            let new_size = need.next_power_of_two();
            let cost = self.net.grow_mem(link.node, stadd, new_size);
            // Handshake round-trip + the remote registration stall.
            let dt = 2.0 * self.net.params().wire_time(0, link.hops) + cost;
            st.charge(dt, op);
            self.book.update_size(rank, kind, idx, slot, new_size);
            self.growth_events += 1;
            self.stats.growth(op, 0);
        }
        Ok(stadd)
    }

    /// Post one message per out-edge of `op` (`payloads[k]` travels along
    /// edge `k`) across the configured threads/VCQs, and charge the
    /// post-phase completion time to the clock.
    fn send_edges(
        &mut self,
        st: &mut RankState,
        op: Op,
        payloads: &[Payload<'_>],
    ) -> Result<(), TofuError> {
        let p = *self.net.params();
        let slot = (self.seq % self.cfg.slots) as u8;
        self.seq += 1;
        let n = payloads.len();
        // One sequence number per logical message, assigned in link order
        // so the numbering is independent of the thread assignment below.
        let seq_base = self.send_seq;
        self.send_seq += n as u64;
        let f64s: Vec<usize> = payloads.iter().map(|pl| pl.len(&self.ghosts)).collect();
        // Pre-resolve destinations, growing undersized buffers first.
        let mut dsts = Vec::with_capacity(n);
        for (k, &len) in f64s.iter().enumerate() {
            dsts.push(self.reserve_dst(st, op, k, slot, wire::combined_size(len))?);
        }
        // Serialize the ghost-op frames in place. Local regions are sized
        // to the theoretical maximum at build; growth here is charged.
        let mut framed = vec![0; n];
        for (k, &payload) in payloads.iter().enumerate() {
            if let Payload::Ghost(..) = payload {
                let out = &mut self.send_out[k];
                let (bytes, cost) =
                    frame_in_place(&self.net, self.node, out, &self.ghosts, st, payload);
                st.charge(cost, op);
                framed[k] = bytes;
            }
        }
        // Forward under prereg writes straight into the remote x-region:
        // the raw values start right after the frame header, so the same
        // in-place serialization serves both put shapes.
        let direct_x = self.cfg.prereg && op == Op::Forward;
        let edges = st.graph.out_edges(op);
        let start = st.clock;
        let costs: Vec<f64> = (0..n)
            .map(|k| fine::link_cost(f64s[k] * 8, edges[k].hops, &p))
            .collect();
        let assignment = if self.cfg.comm_threads > 1 {
            fine::balance_lpt(&costs, self.cfg.comm_threads)
        } else {
            vec![(0..n).collect::<Vec<_>>()]
        };
        let region_overhead = if self.cfg.comm_threads > 1 {
            p.pool_region_overhead
        } else {
            // A single thread driving v VCQs pays the per-VCQ software cost
            // (§4.2's explanation for 6TNI-single-thread).
            p.vcq_drive_overhead * self.cfg.vcqs as f64
        };
        let mut end = start;
        for (t, links) in assignment.iter().enumerate() {
            let mut now = start + region_overhead;
            for &k in links {
                let edge = edges[k];
                let staged;
                let (dst_stadd, dst_offset, src) = if direct_x {
                    // An empty forward (no atoms cross this link) sends
                    // nothing; the receiver expects arrivals only for its
                    // non-empty ghost segments.
                    if f64s[k] == 0 {
                        continue;
                    }
                    let off = self.remote_ghost_off[k].ok_or(TofuError::PhaseOrder {
                        node: self.node,
                        phase: "forward",
                        missing: "ghost offsets from border",
                    })?;
                    let (xs, _) = self.book.lookup(edge.rank as u32, BufKind::XRegion, 0, 0)?;
                    let src = PutSrc::Region {
                        stadd: self.send_out[k].0,
                        offset: wire::COMBINED_HEADER_BYTES,
                        len: f64s[k] * 8,
                    };
                    (xs, off, src)
                } else {
                    let src = match payloads[k] {
                        Payload::Packed(values) => {
                            staged = wire::frame_combined(values);
                            now += p.pack_cost(staged.len());
                            self.stats.copied(op, 0, staged.len());
                            PutSrc::Bytes(&staged)
                        }
                        Payload::Ghost(..) => PutSrc::Region {
                            stadd: self.send_out[k].0,
                            offset: 0,
                            len: framed[k],
                        },
                    };
                    (dsts[k], 0, src)
                };
                self.stats.count(op, 0, src.len());
                put_with_retry(
                    &mut self.vcqs[t % self.cfg.vcqs.max(1)],
                    self.cfg.retry_budget,
                    &mut self.stats,
                    op,
                    0,
                    &mut self.fallback_wanted,
                    &mut now,
                    Put {
                        dst_node: edge.node,
                        dst_stadd,
                        dst_offset,
                        src,
                        // The receiver indexes payloads by *its own* edge
                        // list.
                        piggyback: edge.peer_index as u64,
                        seq: seq_base + 1 + k as u64,
                        cache_injection: true,
                    },
                );
            }
            end = end.max(now);
        }
        st.charge(end - start, op);
        Ok(())
    }

    /// Wait for the `n` messages of `op` and return payloads in link order.
    fn wait_payloads(&mut self, st: &mut RankState, op: Op) -> Result<Vec<Vec<f64>>, TofuError> {
        let p = *self.net.params();
        let n = st.graph.recv.len();
        // The stadds this op's messages land in.
        let bufs = if op.toward_ghosts() {
            &self.ghost_in
        } else {
            &self.owner_in
        };
        let expected: Vec<Stadd> = bufs.iter().flatten().copied().collect();
        let direct_x = self.cfg.prereg && op == Op::Forward;
        let (arrivals, t, anomalies) = if direct_x {
            let xs = self.x_region.ok_or(TofuError::PhaseOrder {
                node: self.node,
                phase: "forward",
                missing: "preregistered x region",
            })?;
            // Empty segments produce no message (§3.4 direct writes).
            let expected_n = (0..n).filter(|&k| self.ghosts.segment(k).1 > 0).count();
            wait_deduped(&self.net, self.node, st.clock, expected_n, |a| {
                a.stadd == xs && a.len > 0
            })?
        } else {
            wait_deduped(&self.net, self.node, st.clock, n, |a| {
                a.len > 0 && expected.contains(&a.stadd)
            })?
        };
        self.stats.add_dup_drops(op, 0, anomalies.duplicates);
        self.stats.add_overwrites(op, 0, anomalies.overwrites);
        // Map arrivals back to link indices.
        let mut payloads = vec![Vec::new(); n];
        let mut unpack_bytes = 0usize;
        for a in &arrivals {
            st.arrival_horizon = st.arrival_horizon.max(a.time);
            let raw = self.net.read_local(self.node, a.stadd, a.offset, a.len);
            if direct_x {
                // The landing offset identifies the ghost segment, hence
                // the link; direct writes need no unpack copy (§3.4).
                let k = (0..n)
                    .find(|&k| {
                        let (start, count) = self.ghosts.segment(k);
                        count > 0 && start * 24 == a.offset
                    })
                    .ok_or(TofuError::PhaseOrder {
                        node: self.node,
                        phase: "forward",
                        missing: "ghost segment matching arrival offset",
                    })?;
                payloads[k] = wire::decode_f64s(&raw);
            } else {
                payloads[a.piggyback as usize] = wire::parse_combined(&raw);
                unpack_bytes += a.len;
            }
        }
        // Receiver-side CPU: one MRQ poll/dequeue per message plus the
        // linear-scan match against the posted buffer set (the O(N^2)
        // term of Fig. 15), plus the unpack copy (skipped for direct
        // x-region writes).
        let n_bufs = if direct_x { n } else { expected.len() };
        let poll =
            arrivals.len() as f64 * (p.cpu_per_put_utofu + n_bufs as f64 * p.mrq_match_per_buffer);
        let dt = if self.cfg.comm_threads > 1 {
            // Polling and unpacking parallelize over the pool.
            (t - st.clock)
                + (poll + p.pack_cost(unpack_bytes)) / self.cfg.comm_threads as f64
                + p.pool_region_overhead
        } else {
            t - st.clock + poll + p.pack_cost(unpack_bytes)
        };
        st.charge(dt, op);
        Ok(payloads)
    }
    /// After border unpack, send each ghost provider the offset where its
    /// atoms landed (8-byte piggyback, §3.4).
    fn send_ghost_offsets(&mut self, st: &mut RankState) -> Result<(), TofuError> {
        let mut now = st.clock;
        let n = st.graph.recv.len();
        let seq_base = self.send_seq;
        self.send_seq += n as u64;
        for k in 0..n {
            let (start, _count) = self.ghosts.segment(k);
            let link = &st.graph.recv[k];
            // Target the provider's OwnerIn buffer (same inflow direction
            // as a reverse message); zero-length write, descriptor-only.
            let (stadd, _) = self.book.lookup(
                link.rank as u32,
                BufKind::OwnerIn,
                link.peer_index as u16,
                0,
            )?;
            put_with_retry(
                &mut self.vcqs[0],
                self.cfg.retry_budget,
                &mut self.stats,
                Op::Border,
                0,
                &mut self.fallback_wanted,
                &mut now,
                Put {
                    dst_node: link.node,
                    dst_stadd: stadd,
                    dst_offset: 0,
                    src: PutSrc::Bytes(&[]),
                    piggyback: (link.peer_index as u64) << 48 | (start * 24) as u64,
                    seq: seq_base + 1 + k as u64,
                    cache_injection: false,
                },
            );
        }
        st.charge(now - st.clock, Op::Border);
        Ok(())
    }

    /// Consume the offset piggybacks from all send links (before the first
    /// prereg forward). Piggybacks target *this rank's* OwnerIn buffers —
    /// four ranks share each node's MRQ, so the address filter is what
    /// keeps a rank from stealing its node-mates' descriptors.
    fn recv_ghost_offsets(&mut self, st: &mut RankState) -> Result<(), TofuError> {
        let n = st.graph.send.len();
        let mine: Vec<Stadd> = self.owner_in.iter().map(|slots| slots[0]).collect();
        let (arrivals, t, anomalies) = wait_deduped(&self.net, self.node, st.clock, n, |a| {
            a.len == 0 && mine.contains(&a.stadd)
        })?;
        self.stats
            .add_dup_drops(Op::Border, 0, anomalies.duplicates);
        self.stats
            .add_overwrites(Op::Border, 0, anomalies.overwrites);
        for a in &arrivals {
            let k = (a.piggyback >> 48) as usize;
            let off = (a.piggyback & 0xFFFF_FFFF_FFFF) as usize;
            self.remote_ghost_off[k] = Some(off);
        }
        st.charge(t - st.clock, Op::Border);
        Ok(())
    }

    /// Indices of the pure-face links for sweep `dim`: the -face in
    /// `send`, the +face in `recv` (present for every grid graph; their
    /// absence is a malformed graph, reported rather than panicking).
    fn face_indices(st: &RankState, dim: usize) -> Result<(usize, usize), TofuError> {
        let mut want_minus = [0i8; 3];
        want_minus[dim] = -1;
        let mut want_plus = [0i8; 3];
        want_plus[dim] = 1;
        let k_minus = st
            .graph
            .send
            .iter()
            .position(|l| l.offset.d == want_minus)
            .ok_or(TofuError::PhaseOrder {
                node: st.graph.me,
                phase: "exchange",
                missing: "-face link in send edges",
            })?;
        let k_plus = st
            .graph
            .recv
            .iter()
            .position(|l| l.offset.d == want_plus)
            .ok_or(TofuError::PhaseOrder {
                node: st.graph.me,
                phase: "exchange",
                missing: "+face link in recv edges",
            })?;
        Ok((k_minus, k_plus))
    }

    /// Send the two migration payloads of sweep `dim`: toward the -face
    /// via the neighbor's GhostIn buffer (border-direction flow), toward
    /// the +face via its OwnerIn buffer (reverse-direction flow).
    fn post_exchange(&mut self, st: &mut RankState, dim: usize) -> Result<(), TofuError> {
        let p = *self.net.params();
        let payloads = st.pack_exchange(dim);
        let (k_minus, k_plus) = Self::face_indices(st, dim)?;
        let slot = (self.seq % self.cfg.slots) as u8;
        self.seq += 1;
        let seq_base = self.send_seq;
        self.send_seq += 2;
        let mut now = st.clock;
        for (dir, payload) in payloads.iter().enumerate() {
            let (link, kind) = if dir == 0 {
                (st.graph.send[k_minus], BufKind::GhostIn)
            } else {
                (st.graph.recv[k_plus], BufKind::OwnerIn)
            };
            let k = link.peer_index;
            let bytes = wire::frame_combined(payload);
            let (stadd, size) = self.book.lookup(link.rank as u32, kind, k as u16, slot)?;
            if bytes.len() > size {
                let new_size = bytes.len().next_power_of_two();
                let cost = self.net.grow_mem(link.node, stadd, new_size);
                now += 2.0 * p.wire_time(0, link.hops) + cost;
                self.book
                    .update_size(link.rank as u32, kind, k as u16, slot, new_size);
                self.growth_events += 1;
                self.stats.growth(Op::Exchange, dim);
            }
            now += p.pack_cost(bytes.len());
            self.stats.count(Op::Exchange, dim, bytes.len());
            self.stats.copied(Op::Exchange, dim, bytes.len());
            put_with_retry(
                &mut self.vcqs[0],
                self.cfg.retry_budget,
                &mut self.stats,
                Op::Exchange,
                dim,
                &mut self.fallback_wanted,
                &mut now,
                Put {
                    dst_node: link.node,
                    dst_stadd: stadd,
                    dst_offset: 0,
                    src: PutSrc::Bytes(&bytes),
                    piggyback: k as u64,
                    seq: seq_base + 1 + dir as u64,
                    cache_injection: true,
                },
            );
        }
        st.charge(now - st.clock, Op::Exchange);
        Ok(())
    }

    /// Receive the two migration payloads of sweep `dim` and append the
    /// migrants as locals.
    fn complete_exchange(&mut self, st: &mut RankState, dim: usize) -> Result<(), TofuError> {
        let p = *self.net.params();
        let (k_minus, k_plus) = Self::face_indices(st, dim)?;
        let expect: Vec<Stadd> = self.ghost_in[k_plus]
            .iter()
            .chain(&self.owner_in[k_minus])
            .copied()
            .collect();
        let (arrivals, t, anomalies) = wait_deduped(&self.net, self.node, st.clock, 2, |a| {
            a.len > 0 && expect.contains(&a.stadd)
        })?;
        self.stats
            .add_dup_drops(Op::Exchange, dim, anomalies.duplicates);
        self.stats
            .add_overwrites(Op::Exchange, dim, anomalies.overwrites);
        let mut unpack = 0usize;
        for a in &arrivals {
            let raw = self.net.read_local(self.node, a.stadd, a.offset, a.len);
            st.unpack_exchange(&wire::parse_combined(&raw));
            unpack += a.len;
        }
        let poll = 2.0 * p.cpu_per_put_utofu;
        st.charge(t - st.clock + poll + p.pack_cost(unpack), Op::Exchange);
        Ok(())
    }
}

impl GhostEngine for UtofuP2p {
    fn name(&self) -> &'static str {
        match (self.cfg.comm_threads, self.cfg.vcqs, self.cfg.prereg) {
            (1, 1, _) => "utofu-p2p-4tni",
            (1, _, _) => "utofu-p2p-6tni",
            _ => "utofu-p2p-pool",
        }
    }

    fn rounds(&self, op: Op) -> usize {
        // Migration sweeps the three dimensions even under p2p ghosts.
        if op == Op::Exchange {
            3
        } else {
            1
        }
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        match op.kind() {
            OpKind::Exchange => self.post_exchange(st, round),
            OpKind::Border => {
                let shifts = st.graph.send.iter().map(|e| e.shift);
                self.ghosts.reset(&mut st.atoms, shifts);
                let sel = self.sel.get_or_insert_with(|| st.graph.selector());
                let packed = self.ghosts.select_border(st, sel);
                let payloads: Vec<_> = packed.iter().map(|v| Payload::Packed(v)).collect();
                self.send_edges(st, op, &payloads)
            }
            OpKind::Ghost(g) => {
                if g == GhostOp::Forward
                    && self.cfg.prereg
                    && self.remote_ghost_off.iter().any(Option::is_none)
                {
                    self.recv_ghost_offsets(st)?;
                }
                let n = st.graph.out_edges(op).len();
                let payloads: Vec<_> = (0..n).map(|k| Payload::Ghost(g, k)).collect();
                self.send_edges(st, op, &payloads)
            }
        }
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        match op.kind() {
            OpKind::Exchange => self.complete_exchange(st, round),
            OpKind::Border => {
                let payloads = self.wait_payloads(st, op)?;
                for (k, values) in payloads.iter().enumerate() {
                    self.ghosts.append_ghosts(st, k, values);
                }
                st.scalar.resize(st.atoms.ntotal(), 0.0);
                if self.cfg.prereg {
                    self.remote_ghost_off.fill(None);
                    self.send_ghost_offsets(st)?;
                }
                Ok(())
            }
            OpKind::Ghost(g) => {
                let payloads = self.wait_payloads(st, op)?;
                for (k, values) in payloads.iter().enumerate() {
                    self.ghosts.unpack(g, k, st, values);
                }
                Ok(())
            }
        }
    }

    fn setup_cost(&self) -> f64 {
        self.setup_cost
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn fallback_requested(&self) -> bool {
        self.fallback_wanted
    }
}

/// The staged (3-stage) pattern carried over uTofu — `utofu_3stage`.
pub struct UtofuThreeStage {
    net: Arc<TofuNet>,
    book: Arc<AddressBook>,
    node: usize,
    links: [[NeighborLink; 2]; 3],
    ghosts: GhostLayout,
    /// Swaps per dimension (the plan's shell count).
    shells: usize,
    /// `[dim*2+dir]` inflow buffers (single slot).
    ghost_in: Vec<Stadd>,
    owner_in: Vec<Stadd>,
    /// Local registered send regions `[dim*2+dir]` as `(stadd, bytes)` —
    /// never published; ghost-op frames are serialized in place and put
    /// straight from here.
    send_out: Vec<(Stadd, usize)>,
    vcq: Vcq,
    /// Sequence stamp for the next logical message (see [`UtofuP2p`]).
    send_seq: u64,
    /// Sticky retry-budget-exhausted flag (see [`UtofuP2p`]).
    fallback_wanted: bool,
    setup_cost: f64,
    /// Growth events (same baseline dynamic-expansion accounting).
    pub growth_events: u64,
    stats: OpStats,
}

impl UtofuThreeStage {
    /// Build the engine for one rank and publish its 12 face buffers.
    #[must_use]
    pub fn new(
        net: Arc<TofuNet>,
        book: Arc<AddressBook>,
        map: &RankMap,
        graph: &CommGraph,
        node: usize,
        density: f64,
        global: &Box3,
    ) -> Self {
        let me = graph.me;
        let shells = match graph.config() {
            Some(c) => c.shells,
            None => panic!("the staged engine requires a grid graph"),
        };
        let links = staged_links(map, me, global);
        // Prefer the rank's own TNI; a transiently or persistently
        // exhausted CQ pool shifts the binding to any TNI with room.
        let (vcq, _displaced) = create_vcq_scan(&net, node, me % 4, me as u32);
        let mut setup_cost = 0.0;
        // Face messages carry up to the staged slab: (a+2r)^2 * r volume at
        // the largest stage — size generously from the whole-shell estimate.
        let a = graph.sub.lengths();
        let r = graph.r_ghost;
        let max_slab = (a[0] + 2.0 * r) * (a[1] + 2.0 * r) * r;
        let est_atoms = (2.0 * density * max_slab) as usize + 16;
        let full = wire::combined_size(est_atoms * MAX_RECORD_F64S);
        let size = full / BASELINE_UNDERSIZE;
        let mut ghost_in = Vec::with_capacity(6);
        let mut owner_in = Vec::with_capacity(6);
        // Local send regions are always full-size: the undersize baseline
        // experiment models *remote receive* buffers; this rank's own
        // staging memory is registered once at the theoretical maximum.
        let mut send_out = Vec::with_capacity(6);
        let budget = UtofuConfig::DEFAULT_RETRY_BUDGET;
        for idx in 0..6u16 {
            let s1 = register_with_retry(&net, node, size, budget, &mut setup_cost);
            book.publish(me as u32, BufKind::GhostIn, idx, 0, s1, size);
            let s2 = register_with_retry(&net, node, size, budget, &mut setup_cost);
            book.publish(me as u32, BufKind::OwnerIn, idx, 0, s2, size);
            ghost_in.push(s1);
            owner_in.push(s2);
            let s3 = register_with_retry(&net, node, full, budget, &mut setup_cost);
            send_out.push((s3, full));
        }
        UtofuThreeStage {
            net,
            book,
            node,
            links,
            ghosts: GhostLayout::default(),
            shells,
            ghost_in,
            owner_in,
            send_out,
            vcq,
            send_seq: 0,
            fallback_wanted: false,
            setup_cost,
            growth_events: 0,
            stats: OpStats::default(),
        }
    }

    /// Send the two payloads of sweep `dim` toward `links[dim][dir]`'s
    /// inflow buffers. The receiver's buffer index encodes the
    /// *receiver-side* direction `1 - dir`.
    fn send_pair(
        &mut self,
        st: &mut RankState,
        op: Op,
        round: usize,
        dim: usize,
        payloads: [Payload<'_>; 2],
    ) -> Result<(), TofuError> {
        let p = *self.net.params();
        let kind = BufKind::inflow(op);
        let seq_base = self.send_seq;
        self.send_seq += 2;
        let mut now = st.clock;
        for (dir, payload) in payloads.into_iter().enumerate() {
            let link = self.links[dim][dir];
            let rx_idx = (dim * 2 + (1 - dir)) as u16;
            let need = wire::combined_size(payload.len(&self.ghosts));
            let (stadd, size) = self.book.lookup(link.rank as u32, kind, rx_idx, 0)?;
            if need > size {
                let new_size = need.next_power_of_two();
                let cost = self.net.grow_mem(link.node, stadd, new_size);
                now += 2.0 * p.wire_time(0, link.hops) + cost;
                self.book
                    .update_size(link.rank as u32, kind, rx_idx, 0, new_size);
                self.growth_events += 1;
                self.stats.growth(op, round);
            }
            let staged;
            let src = match payload {
                Payload::Packed(values) => {
                    staged = wire::frame_combined(values);
                    now += p.pack_cost(staged.len());
                    self.stats.copied(op, round, staged.len());
                    PutSrc::Bytes(&staged)
                }
                Payload::Ghost(..) => {
                    let out = &mut self.send_out[dim * 2 + dir];
                    let (len, cost) =
                        frame_in_place(&self.net, self.node, out, &self.ghosts, st, payload);
                    now += cost;
                    PutSrc::Region {
                        stadd: out.0,
                        offset: 0,
                        len,
                    }
                }
            };
            self.stats.count(op, round, src.len());
            put_with_retry(
                &mut self.vcq,
                UtofuConfig::DEFAULT_RETRY_BUDGET,
                &mut self.stats,
                op,
                round,
                &mut self.fallback_wanted,
                &mut now,
                Put {
                    dst_node: link.node,
                    dst_stadd: stadd,
                    dst_offset: 0,
                    src,
                    piggyback: u64::from(rx_idx),
                    seq: seq_base + 1 + dir as u64,
                    cache_injection: true,
                },
            );
        }
        st.charge(now - st.clock, op);
        Ok(())
    }

    /// Wait for the two sweep-`dim` messages; returns `[from -dim, from
    /// +dim]` payloads.
    fn recv_pair(
        &mut self,
        st: &mut RankState,
        op: Op,
        dim: usize,
    ) -> Result<[Vec<f64>; 2], TofuError> {
        let p = *self.net.params();
        let bufs = if op.toward_ghosts() {
            &self.ghost_in
        } else {
            &self.owner_in
        };
        let want = [bufs[dim * 2], bufs[dim * 2 + 1]];
        let (arrivals, t, anomalies) = wait_deduped(&self.net, self.node, st.clock, 2, |a| {
            a.stadd == want[0] || a.stadd == want[1]
        })?;
        self.stats.add_dup_drops(op, dim, anomalies.duplicates);
        self.stats.add_overwrites(op, dim, anomalies.overwrites);
        let mut out = [Vec::new(), Vec::new()];
        let mut unpack = 0usize;
        for a in &arrivals {
            let dir = usize::from(a.stadd == want[1]);
            let raw = self.net.read_local(self.node, a.stadd, a.offset, a.len);
            out[dir] = wire::parse_combined(&raw);
            unpack += a.len;
        }
        let poll = arrivals.len() as f64 * (p.cpu_per_put_utofu + 2.0 * p.mrq_match_per_buffer);
        st.charge(t - st.clock + poll + p.pack_cost(unpack), op);
        Ok(out)
    }
}

impl GhostEngine for UtofuThreeStage {
    fn name(&self) -> &'static str {
        "utofu-3stage"
    }

    fn rounds(&self, op: Op) -> usize {
        if op == Op::Exchange {
            3
        } else {
            3 * self.shells
        }
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (sweep, dim) = staged_sweep(op, round, self.shells);
        let packed;
        let payloads = match op.kind() {
            OpKind::Ghost(g) => [0, 1].map(|dir| Payload::Ghost(g, sweep * 2 + dir)),
            OpKind::Border => {
                if round == 0 {
                    let shifts = staged_shifts(&self.links, self.shells);
                    self.ghosts.reset(&mut st.atoms, shifts);
                }
                packed = self.ghosts.sweep_border(st, sweep, self.shells);
                [Payload::Packed(&packed[0]), Payload::Packed(&packed[1])]
            }
            OpKind::Exchange => {
                packed = st.pack_exchange(dim);
                [Payload::Packed(&packed[0]), Payload::Packed(&packed[1])]
            }
        };
        self.send_pair(st, op, round, dim, payloads)
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (sweep, dim) = staged_sweep(op, round, self.shells);
        let payloads = self.recv_pair(st, op, dim)?;
        for (dir, values) in payloads.iter().enumerate() {
            match op.kind() {
                OpKind::Border => self.ghosts.append_ghosts(st, sweep * 2 + dir, values),
                OpKind::Exchange => st.unpack_exchange(values),
                OpKind::Ghost(g) => self.ghosts.unpack(g, sweep * 2 + dir, st, values),
            }
        }
        // EAM scalar buffers must track the growing ghost tail.
        if op == Op::Border {
            st.scalar.resize(st.atoms.ntotal(), 0.0);
        }
        Ok(())
    }

    fn setup_cost(&self) -> f64 {
        self.setup_cost
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }

    fn fallback_requested(&self) -> bool {
        self.fallback_wanted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GhostEngine;
    use crate::topo_map::{Placement, RankMap};
    use tofumd_md::atom::Atoms;
    use tofumd_tofu::{wait_arrivals, NetParams};

    /// Full-machine fixture on one TofuD cell (48 ranks): ranks 0 and 1
    /// are x-face neighbors and hold one atom each near their shared face;
    /// every rank participates in the lockstep rounds.
    struct Fixture {
        net: Arc<TofuNet>,
        book: Arc<AddressBook>,
        map: RankMap,
        global: Box3,
        engines: Vec<UtofuP2p>,
        states: Vec<RankState>,
    }

    fn fixture(cfg: UtofuConfig) -> Fixture {
        let grid = tofumd_tofu::CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        let book = AddressBook::new();
        let plan_cfg = crate::plan::PlanConfig::NEWTON;
        let mut engines = Vec::new();
        let mut states = Vec::new();
        for r in 0..map.nranks() {
            let plan = crate::plan::CommPlan::build(r, &map, &global, 2.8, plan_cfg);
            let graph = CommGraph::from_grid(plan);
            let node = map.node_of(r);
            engines.push(UtofuP2p::new(
                net.clone(),
                book.clone(),
                &graph,
                node,
                0.8442,
                cfg,
            ));
            let atoms = match r {
                0 => {
                    let sub = graph.sub;
                    Atoms::from_positions(
                        vec![[sub.hi[0] - 0.5, sub.lo[1] + 5.0, sub.lo[2] + 5.0]],
                        1,
                    )
                }
                1 => {
                    let sub = graph.sub;
                    Atoms::from_positions(
                        vec![[sub.lo[0] + 0.5, sub.lo[1] + 5.0, sub.lo[2] + 5.0]],
                        1001,
                    )
                }
                _ => Atoms::default(),
            };
            states.push(RankState::new(atoms, graph));
        }
        Fixture {
            net,
            book,
            map,
            global,
            engines,
            states,
        }
    }

    fn drive(f: &mut Fixture, op: Op) {
        for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
            e.post(op, 0, st).unwrap();
        }
        for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
            e.complete(op, 0, st).unwrap();
        }
    }

    #[test]
    fn border_then_forward_under_prereg() {
        let mut f = fixture(UtofuConfig::pool6());
        drive(&mut f, Op::Border);
        // Rank 0 must hold rank 1's atom (Fig. 5: the lower rank holds).
        assert!(f.states[0].atoms.nghost() >= 1);
        let gidx = f.states[0].atoms.nlocal;
        assert_eq!(f.states[0].atoms.tag[gidx], 1001);
        let before = f.states[0].atoms.x[gidx];
        // Move rank 1's atom; the forward must write the new position
        // directly into rank 0's registered x-region.
        f.states[1].atoms.x[0][2] += 0.375;
        drive(&mut f, Op::Forward);
        let after = f.states[0].atoms.x[gidx];
        assert!((after[2] - before[2] - 0.375).abs() < 1e-12);
        // No buffer growth under pre-registration.
        assert_eq!(f.engines.iter().map(|e| e.growth_events).sum::<u64>(), 0);
    }

    #[test]
    fn reverse_accumulates_on_the_owner() {
        let mut f = fixture(UtofuConfig::coarse4());
        drive(&mut f, Op::Border);
        let n0 = f.states[0].atoms.nlocal;
        for gi in n0..f.states[0].atoms.ntotal() {
            f.states[0].atoms.f[gi] = [0.5, -1.0, 2.0];
        }
        f.states[1].atoms.zero_forces();
        drive(&mut f, Op::Reverse);
        assert!((f.states[1].atoms.f[0][0] - 0.5).abs() < 1e-12);
        assert!((f.states[1].atoms.f[0][2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_ops_roundtrip_and_book_into_pair_bucket() {
        let mut f = fixture(UtofuConfig::pool6());
        drive(&mut f, Op::Border);
        for st in f.states.iter_mut() {
            let n = st.atoms.ntotal();
            st.scalar.clear();
            st.scalar.resize(n, 0.0);
        }
        // Rank 1's local fp = 7.25 must reach its ghost copy on rank 0.
        f.states[1].scalar[0] = 7.25;
        drive(&mut f, Op::ForwardScalar);
        let gidx = f.states[0].atoms.nlocal;
        assert_eq!(f.states[0].scalar[gidx], 7.25);
        assert!(f.states[0].pair_comm_time > 0.0);
        // Ghost rho on rank 0 folds back into rank 1's local.
        f.states[0].scalar[gidx] = 0.125;
        f.states[1].scalar[0] = 1.0;
        drive(&mut f, Op::ReverseScalar);
        assert!((f.states[1].scalar[0] - 1.125).abs() < 1e-12);
    }

    #[test]
    fn zero_copy_ghost_ops_stage_no_bytes() {
        // The repeated ghost ops serialize frames in place inside the
        // registered send regions: wire bytes move, but `bytes_copied`
        // stays at zero on both the direct-x (pool6) and framed (coarse4)
        // variants. Border and Exchange discover their payload while
        // packing, pass through a staging copy, and are measured.
        for cfg in [UtofuConfig::pool6(), UtofuConfig::coarse4()] {
            let mut f = fixture(cfg);
            for round in 0..3 {
                for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
                    e.post(Op::Exchange, round, st).unwrap();
                }
                for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
                    e.complete(Op::Exchange, round, st).unwrap();
                }
            }
            drive(&mut f, Op::Border);
            for st in f.states.iter_mut() {
                let n = st.atoms.ntotal();
                st.scalar.clear();
                st.scalar.resize(n, 0.0);
            }
            drive(&mut f, Op::Forward);
            drive(&mut f, Op::ForwardScalar);
            drive(&mut f, Op::Reverse);
            drive(&mut f, Op::ReverseScalar);
            let mut total = OpStats::default();
            for e in &f.engines {
                total.merge(&e.op_stats());
            }
            for op in [Op::Border, Op::Exchange] {
                let t = total.op_total(op);
                assert!(t.bytes_copied > 0, "staged {op:?} must count copies");
                assert_eq!(t.bytes_copied, t.bytes, "{op:?} stages every byte");
            }
            for op in [
                Op::Forward,
                Op::ForwardScalar,
                Op::Reverse,
                Op::ReverseScalar,
            ] {
                let t = total.op_total(op);
                assert!(t.bytes > 0, "{op:?} must move wire bytes");
                assert_eq!(t.bytes_copied, 0, "{op:?} must not stage a copy");
            }
        }
    }

    #[test]
    fn round_robin_slots_rotate_across_ops() {
        let mut f = fixture(UtofuConfig::pool6());
        drive(&mut f, Op::Border);
        let seq_after_border = f.engines[0].seq;
        drive(&mut f, Op::Forward);
        drive(&mut f, Op::Reverse);
        // Each posted op advances the slot cursor once.
        assert_eq!(f.engines[0].seq, seq_after_border + 2);
        assert_eq!(f.engines[0].cfg.slots, 4);
    }

    #[test]
    fn single6_charges_vcq_driving_overhead() {
        // The same exchange costs more virtual time under 6 single-thread
        // VCQs than under the dedicated-TNI coarse binding (§4.2).
        let mut coarse = fixture(UtofuConfig::coarse4());
        let mut six = fixture(UtofuConfig::single6());
        drive(&mut coarse, Op::Border);
        drive(&mut six, Op::Border);
        drive(&mut coarse, Op::Forward);
        drive(&mut six, Op::Forward);
        let t4 = coarse.states[0].comm_time;
        let t6 = six.states[0].comm_time;
        assert!(t6 > t4, "6 VCQs single-thread {t6} must exceed 4TNI {t4}");
    }

    #[test]
    fn baseline_buffers_grow_on_oversized_payloads() {
        let mut f = fixture(UtofuConfig::coarse4());
        // Overstuff rank 1's sub-box so its border payload exceeds the
        // undersized baseline buffer on some link.
        let sub = f.states[1].graph.sub;
        let mut pos = Vec::new();
        for i in 0..600 {
            let t = i as f64 / 600.0;
            pos.push([sub.lo[0] + 0.01 + 2.0 * t, sub.lo[1] + 5.0, sub.lo[2] + 5.0]);
        }
        f.states[1].atoms = Atoms::from_positions(pos, 5000);
        drive(&mut f, Op::Border);
        let grown: u64 = f.engines.iter().map(|e| e.growth_events).sum();
        assert!(grown > 0, "dense border slab must trigger dynamic growth");
    }

    #[test]
    fn utofu_3stage_carries_ghosts_both_directions() {
        let grid = tofumd_tofu::CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        let book = AddressBook::new();
        let mut engines = Vec::new();
        let mut states = Vec::new();
        for r in 0..map.nranks() {
            let plan = crate::plan::CommPlan::build(
                r,
                &map,
                &global,
                2.8,
                crate::plan::PlanConfig::NEWTON,
            );
            let graph = CommGraph::from_grid(plan);
            let node = map.node_of(r);
            engines.push(UtofuThreeStage::new(
                net.clone(),
                book.clone(),
                &map,
                &graph,
                node,
                0.8442,
                &global,
            ));
            let atoms = match r {
                0 => Atoms::from_positions(
                    vec![[
                        graph.sub.hi[0] - 0.5,
                        graph.sub.lo[1] + 5.0,
                        graph.sub.lo[2] + 5.0,
                    ]],
                    1,
                ),
                1 => Atoms::from_positions(
                    vec![[
                        graph.sub.lo[0] + 0.5,
                        graph.sub.lo[1] + 5.0,
                        graph.sub.lo[2] + 5.0,
                    ]],
                    1001,
                ),
                _ => Atoms::default(),
            };
            states.push(RankState::new(atoms, graph));
        }
        for round in 0..3 {
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.post(Op::Border, round, st).unwrap();
            }
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.complete(Op::Border, round, st).unwrap();
            }
        }
        // The staged pattern ships the *full* shell: both ranks see each
        // other's atom.
        let tags0: Vec<u64> = states[0].atoms.tag[states[0].atoms.nlocal..].to_vec();
        let tags1: Vec<u64> = states[1].atoms.tag[states[1].atoms.nlocal..].to_vec();
        assert!(tags0.contains(&1001), "rank 0 ghosts: {tags0:?}");
        assert!(tags1.contains(&1), "rank 1 ghosts: {tags1:?}");
    }

    #[test]
    fn single_receive_buffer_overwrites_under_overlap() {
        // §3.4's hazard, demonstrated with real bytes: two scalar stages
        // posted back-to-back *before* the receiver consumes. With 1 slot
        // the second put lands in the same registered buffer and destroys
        // the first payload; 4 round-robin slots keep them apart.
        let run = |slots: usize| -> f64 {
            let cfg = UtofuConfig {
                vcqs: 1,
                comm_threads: 1,
                prereg: false,
                slots,
                retry_budget: UtofuConfig::DEFAULT_RETRY_BUDGET,
            };
            let mut f = fixture(cfg);
            drive(&mut f, Op::Border);
            for st in f.states.iter_mut() {
                let n = st.atoms.ntotal();
                st.scalar.clear();
                st.scalar.resize(n, 0.0);
            }
            // Overlapped stages: rank 1 posts TWO forward-scalar stages
            // before rank 0 completes the first.
            f.states[1].scalar[0] = 111.0;
            for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
                e.post(Op::ForwardScalar, 0, st).unwrap();
            }
            f.states[1].scalar[0] = 222.0;
            for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
                e.post(Op::ForwardScalar, 0, st).unwrap();
            }
            // Rank 0 now completes the FIRST stage. It should read 111.
            // (complete() takes one generation of arrivals per link; with
            // two queued per link it reads whatever bytes sit in the
            // buffers the arrivals point to.)
            let n = f.states[0].graph.recv.len();
            let expected: Vec<Stadd> = f.engines[0].ghost_in.iter().flatten().copied().collect();
            let (arrivals, _) = wait_arrivals(&f.net, f.engines[0].node, 0.0, n, |a| {
                a.len > 0 && expected.contains(&a.stadd)
            });
            // Find the arrival from the link that carried rank 1's atom
            // (non-trivial payload: 9 or 17 bytes framed = 1 scalar).
            let a = arrivals
                .iter()
                .filter(|a| a.len > 8)
                .min_by(|x, y| x.time.total_cmp(&y.time))
                .expect("a non-empty scalar payload");
            let raw = f
                .net
                .read_local(f.engines[0].node, a.stadd, a.offset, a.len);
            wire::parse_combined(&raw)[0]
        };
        // One slot: the first-generation read observes the SECOND payload
        // (overwritten). Four slots: the first payload is intact.
        assert_eq!(run(1), 222.0, "1 buffer must exhibit the overwrite");
        assert_eq!(run(4), 111.0, "4 round-robin buffers prevent it");
    }

    #[test]
    fn address_book_miss_is_a_typed_error() {
        let book = AddressBook::new();
        let err = book
            .lookup(9, BufKind::GhostIn, 3, 1)
            .expect_err("empty book must miss");
        assert_eq!(
            err,
            TofuError::MissingBuffer {
                rank: 9,
                kind: "ghost-in",
                link: 3,
                slot: 1,
            }
        );
        assert!(err.to_string().contains("ghost-in"), "{err}");
    }

    #[test]
    fn setup_cost_scales_with_prereg() {
        let coarse = fixture(UtofuConfig::coarse4());
        let pool = fixture(UtofuConfig::pool6());
        let c: f64 = coarse.engines.iter().map(|e| e.setup_cost()).sum();
        let p: f64 = pool.engines.iter().map(|e| e.setup_cost()).sum();
        assert!(
            p > 2.0 * c,
            "prereg setup {p} should far exceed baseline {c}"
        );
        // Keep the fixture fields alive (silence dead-code in this test).
        let _ = (&coarse.net, &coarse.book, &coarse.map, &coarse.global);
    }
}
