//! The ghost engine over the uTofu one-sided transport: the paper's
//! contribution (§3.2–§3.4).
//!
//! One [`UtofuEngine`] ships either [`Pattern`]; its [`UtofuConfig`] picks
//! the variant:
//! * staged pattern at [`UtofuConfig::coarse4`] — the 3-stage sweeps
//!   re-implemented on uTofu (paper artifact `utofu_3stage`),
//! * p2p at [`UtofuConfig::coarse4`] — coarse-grained p2p, one VCQ per
//!   rank on its own TNI (`4tni_p2p`),
//! * p2p at [`UtofuConfig::single6`] — single thread driving 6 VCQs, the
//!   §4.2 "abnormally poor" configuration (`6tni_p2p`),
//! * p2p at [`UtofuConfig::pool6`] — the optimized code: 6 spin-pool comm
//!   threads, one VCQ per TNI, pre-registered max-size buffers, ghost
//!   offsets piggybacked, forward puts written directly into the remote
//!   position array, 4 round-robin receive buffers (`opt`).
//!
//! Set up once, then post. The setup-stage address exchange (§3.4, Fig.
//! 10: "all the registered addresses of receive buffers and atom position
//! arrays are sent to neighbors") is modeled by a shared [`AddressBook`],
//! read exactly once per out-edge into a [`Channel`] — the whole put
//! descriptor but the payload. Each Border then fixes the message sizes,
//! the comm-thread assignment and the landing offsets until the next one
//! ([`OpPlan`]), so a steady-state ghost op is "frame in place, put" and
//! "take, dedupe, unpack in place": no lookup, no heap allocation.
//!
//! Two send and two receive routines, chosen by the shape of the round
//! the pattern lists: one that spans every graph edge (p2p Border and
//! ghost ops) is *planned* — posted across the configured VCQs / comm
//! threads from its [`OpPlan`], received into the per-edge inbox; one that
//! lists two face messages (every staged round, every grid migration
//! sweep) is *sequential* on the rank's first VCQ. Every message of every
//! op is streamed from the pattern's ghost layout and framed *in place*
//! into one of this rank's registered send regions and put from there,
//! and every arrival is delivered from the bytes it landed in
//! ([`UtofuLane::consume`]); only the charge differs by op. A ghost op is
//! zero-copy — no pack cost, `bytes_copied` stays 0 — while Border and
//! Exchange model LAMMPS's staging copy: charged and counted, though the
//! simulator copies nothing extra (a frame past its send region goes out
//! of a one-off vector; the model never grows that region). The
//! ghost-offset piggyback keeps its own put/wait pair: it carries no
//! payload, reserves nothing, encodes `edge << 48 | offset`, and is
//! consumed before the first Forward rather than at its own complete.

use crate::engine::{CommStats, GhostEngine, Op, OpKind, RankState, N_OPS};
use crate::fine;
use crate::ghost::{GhostLayout, Payload};
use crate::pattern::{Landing, Pattern, PatternKind};
use crate::sf::{CommGraph, GraphEdge};
use crate::wire;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tofumd_tofu::{
    dedupe_arrivals, try_wait_arrivals_into, Arrival, CqExhausted, Put, PutSrc, Stadd, TofuError,
    TofuNet, Vcq, TNIS_PER_NODE,
};

/// Buffer kinds published in the address book. The two inflow kinds also
/// index the per-direction channel and receive tables.
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

    /// The peer-side buffer kind a payload flowing `toward_ghosts` (or back
    /// toward the owners) lands in.
    fn inflow(toward_ghosts: bool) -> Self {
        if toward_ghosts {
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
/// simulated setup-stage address exchange, and nothing more: written at
/// registration, read once per out-edge when a [`Channel`] is resolved,
/// and kept current by the growth handshake. No post consults it.
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
}

/// Configuration of a uTofu engine.
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
            ..Self::coarse4()
        }
    }

    /// The optimized configuration: spin-pool threads, all TNIs,
    /// pre-registration, 4 round-robin buffers (`opt`).
    #[must_use]
    pub fn pool6() -> Self {
        UtofuConfig {
            comm_threads: TNIS_PER_NODE,
            prereg: true,
            slots: 4,
            ..Self::single6()
        }
    }
}

/// How generously baseline (non-prereg) buffers are undersized at setup so
/// dynamic growth — the §3.4 overhead — occurs and is accounted.
const BASELINE_UNDERSIZE: usize = 4;

/// Largest record width any op stores per atom (exchange: tag + x + v).
const MAX_RECORD_F64S: usize = wire::EXCHANGE_RECORD_F64S;

/// One out-edge in one direction, resolved from the [`AddressBook`] once
/// per neighbor epoch (first post after build or `rebind_graph`): every
/// descriptor field of a put toward the peer except the payload.
struct Channel {
    /// Book key of the peer-side buffers: peer rank, inflow kind, and the
    /// peer's index of this edge — which is also the descriptor tag the
    /// receiver checks arrivals against.
    rank: u32,
    kind: BufKind,
    tag: u16,
    node: usize,
    hops: u32,
    /// Per-slot destination buffer and its registered size. This rank is
    /// the buffers' only writer, so the cached size is authoritative; the
    /// growth handshake updates it together with the book.
    dst: Vec<(Stadd, usize)>,
    /// The peer's registered x-region, target of direct forward writes
    /// (ghost-side channels under prereg only).
    x: Option<Stadd>,
}

/// One of this rank's receive buffers: which in-edge and slot it serves.
struct RxBuf {
    stadd: Stadd,
    edge: u16,
    slot: u8,
}

/// Find `stadd` in a receive table sorted by STADD: four ranks share a
/// node's MRQ, so every arrival on it is matched by binary search instead
/// of a scan of the posted set.
fn rx_find(table: &[RxBuf], stadd: Stadd) -> Option<&RxBuf> {
    let i = table.binary_search_by_key(&stadd.0, |b| b.stadd.0).ok()?;
    Some(&table[i])
}

/// The in-edge `a` was delivered on — the owner of the buffer it landed
/// in — accepted only if the descriptor's index field `named` says the
/// same: a forged or corrupt descriptor is a typed error, never an index.
fn checked_edge(
    node: usize,
    table: &[RxBuf],
    a: &Arrival,
    named: u64,
    edges: usize,
) -> Result<usize, TofuError> {
    match rx_find(table, a.stadd) {
        Some(b) if u64::from(b.edge) == named => Ok(usize::from(b.edge)),
        _ => Err(TofuError::BadDescriptor {
            node,
            edge: named,
            edges,
        }),
    }
}

/// The transport state under every send and receive routine — fabric and
/// book handles, sequencing, fault state, the reused arrival list — with
/// the one put, reserve, wait, frame and consume routine they share, each
/// counting into the `(op, round)` counters of the rank's `st.stats`.
struct UtofuLane {
    net: Arc<TofuNet>,
    book: Arc<AddressBook>,
    node: usize,
    /// Retransmissions allowed per failed put.
    retry_budget: u32,
    /// Sequence stamp of the last logical message; retransmissions of a
    /// message reuse its number, so receivers can detect duplicates.
    send_seq: u64,
    /// Sticky flag: a retry budget was exhausted and the payload escaped
    /// to the reliable stack — the driver should demote this cluster.
    fallback_wanted: bool,
    setup_cost: f64,
    /// Reused receive scratch: the raw arrivals of the op being completed.
    arrivals: Vec<Arrival>,
}

impl UtofuLane {
    fn new(net: Arc<TofuNet>, book: Arc<AddressBook>, node: usize, retry_budget: u32) -> Self {
        UtofuLane {
            net,
            book,
            node,
            retry_budget,
            send_seq: 0,
            fallback_wanted: false,
            setup_cost: 0.0,
            arrivals: Vec::new(),
        }
    }

    /// Register memory through the faultable path, absorbing transient
    /// registration refusals: each refused attempt still pays the kernel
    /// transition (`mem_reg_base`), charged to `setup_cost`. After the
    /// retry budget the engine registers through the reliable path, which
    /// cannot fail. Refused attempts consume no region handle, so the
    /// address sequence stays identical to a fault-free build.
    fn register(&mut self, len: usize) -> Stadd {
        for _ in 0..=self.retry_budget {
            match self.net.try_register_mem(self.node, len) {
                Ok((stadd, cost)) => {
                    self.setup_cost += cost;
                    return stadd;
                }
                Err(_) => self.setup_cost += self.net.params().mem_reg_base,
            }
        }
        let (stadd, cost) = self.net.register_mem(self.node, len);
        self.setup_cost += cost;
        stadd
    }

    /// Resolve the channel along out-edge `e` toward its peer's `kind`
    /// buffers for the edge the peer knows as `e.peer_index` — the only
    /// reads of the address book.
    fn channel(
        &self,
        kind: BufKind,
        e: &GraphEdge,
        slots: usize,
        direct_x: bool,
    ) -> Result<Channel, TofuError> {
        let (rank, tag) = (e.rank as u32, e.peer_index as u16);
        let dst = (0..slots)
            .map(|slot| self.book.lookup(rank, kind, tag, slot as u8))
            .collect::<Result<_, _>>()?;
        let x = match direct_x {
            true => Some(self.book.lookup(rank, BufKind::XRegion, 0, 0)?.0),
            false => None,
        };
        Ok(Channel {
            rank,
            kind,
            tag,
            node: e.node,
            hops: e.hops,
            dst,
            x,
        })
    }

    /// The slot-`slot` destination buffer of `ch`, made to hold `need`
    /// bytes, and what that cost. Growing an undersized buffer is a
    /// handshake round-trip plus the remote re-registration stall — the
    /// dynamic-expansion overhead pre-registration eliminates (cost 0.0).
    fn reserve(
        &mut self,
        ch: &mut Channel,
        slot: usize,
        need: usize,
        sent: &mut CommStats,
    ) -> (Stadd, f64) {
        let (stadd, size) = &mut ch.dst[slot];
        if need <= *size {
            return (*stadd, 0.0);
        }
        *size = need.next_power_of_two();
        let cost = self.net.grow_mem(ch.node, *stadd, *size);
        self.book
            .publish(ch.rank, ch.kind, ch.tag, slot as u8, *stadd, *size);
        sent.growth_events += 1;
        (*stadd, 2.0 * self.net.params().wire_time(0, ch.hops) + cost)
    }

    /// Reserve sequence numbers for `n` logical messages: message `i` is
    /// stamped `base + 1 + i`, in link order, so the numbering is
    /// independent of any thread assignment.
    fn seq_base(&mut self, n: usize) -> u64 {
        self.send_seq += n as u64;
        self.send_seq - n as u64
    }

    /// Count and post one logical message on the faultable path, retrying
    /// with exponential backoff (charged to the virtual clock) up to the
    /// retry budget. Retransmissions reuse `put.seq` so the receiver's
    /// duplicate detection coalesces partial deliveries. When the budget is
    /// exhausted the payload is handed to the reliable stack
    /// ([`Vcq::post_reliable`]) — which cannot lose it — and the engine
    /// flags a fallback request so the driver demotes the cluster to an
    /// MPI transport at the end of the step.
    fn put(&mut self, vcq: &mut Vcq, now: &mut f64, put: Put<'_>, sent: &mut CommStats) {
        if !put.src.is_empty() {
            sent.count(put.src.len());
        }
        let p = self.net.params();
        for attempt in 0.. {
            if vcq.try_post(now, &put, attempt).is_ok() {
                return;
            }
            if attempt >= self.retry_budget {
                break;
            }
            sent.retries += 1;
            *now += p.retry_backoff * f64::from(1u32 << attempt.min(16));
        }
        sent.fallback_sends += 1;
        self.fallback_wanted = true;
        *now += p.fallback_penalty + p.cpu_per_put_mpi;
        vcq.post_reliable(now, &put);
    }

    /// Take all arrivals matching `pred` into `self.arrivals`, canonicalize
    /// them with [`dedupe_arrivals`] (deterministic order; duplicate and
    /// overwritten deliveries collapsed and counted), and require at least
    /// `count` *distinct* deliveries to survive — a post-dedupe shortfall
    /// means a message is genuinely missing even though retransmissions
    /// padded the raw count. Returns the advanced clock.
    fn wait(
        &mut self,
        now: f64,
        count: usize,
        pred: impl FnMut(&Arrival) -> bool,
        got: &mut CommStats,
    ) -> Result<f64, TofuError> {
        let arrivals = &mut self.arrivals;
        let t = try_wait_arrivals_into(&self.net, self.node, now, count, pred, arrivals)?;
        let anomalies = dedupe_arrivals(arrivals);
        if arrivals.len() < count {
            return Err(self.net.shortfall_error(self.node, count, arrivals.len()));
        }
        got.dup_drops += anomalies.duplicates;
        got.overwrites += anomalies.overwrites;
        Ok(t)
    }

    /// Serialize `payload` of `(op, round)` as a combined frame at the head
    /// of the local registered send region `out = (stadd, size)`; returns
    /// the cost and, if the frame was built elsewhere, that frame. A ghost
    /// op is zero-copy: an undersized region is grown first (a local
    /// re-registration, charged). Border and Exchange model LAMMPS's
    /// staging copy, charged (`pack_cost`) and counted (`bytes_copied`);
    /// their region is never grown — a frame past it goes to a one-off
    /// vector.
    fn frame(
        &mut self,
        layout: &GhostLayout,
        out: &mut (Stadd, usize),
        st: &mut RankState,
        payload: Payload,
        op: Op,
        round: usize,
    ) -> (f64, Option<Vec<u8>>) {
        let need = wire::combined_size(payload.len(layout));
        let mut cost = 0.0;
        if let Payload::Ghost(..) = payload {
            if need > out.1 {
                out.1 = need.next_power_of_two();
                cost = self.net.grow_mem(self.node, out.0, out.1);
            }
        } else {
            cost = self.net.params().pack_cost(need);
            st.stats.at(op, round).copied(need);
        }
        let fill = |buf: &mut [u8]| {
            let mut w = wire::CombinedWriter::new(buf);
            payload.write(layout, st, &mut w);
            w.finish()
        };
        if need > out.1 {
            let mut frame = vec![0; need];
            fill(&mut frame);
            return (cost, Some(frame));
        }
        let len = self.net.write_local_with(self.node, out.0, 0, need, fill);
        debug_assert_eq!(len, need, "layout promised {need} bytes");
        (cost, None)
    }

    /// Deliver one arrived message straight from the registered region it
    /// landed in, under the node lock: the pattern reads the little-endian
    /// bytes in place (`raw` = a direct x-region write, which carries no
    /// frame header).
    fn consume(
        &self,
        pattern: &mut Pattern,
        st: &mut RankState,
        op: Op,
        layout: usize,
        a: &Arrival,
        raw: bool,
    ) {
        self.net
            .read_local_with(self.node, a.stadd, a.offset, a.len, |bytes| {
                let body = if raw {
                    bytes
                } else {
                    wire::combined_body(bytes)
                };
                pattern.deliver(op, layout, st, wire::LeF64s::new(body));
            });
    }
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
/// Panics only when every TNI on the node is exhausted — with 9 CQs x 6
/// TNIs against 4 ranks that is real resource starvation, not a transient
/// fault.
fn create_vcq_scan(net: &Arc<TofuNet>, node: usize, first: usize, tag: u32) -> Vcq {
    let tnis = std::iter::once(first).chain((0..TNIS_PER_NODE).filter(|&t| t != first));
    for tni in tnis {
        if let Ok(v) = create_vcq_retry(net, node, tni, tag) {
            return v;
        }
    }
    panic!("node {node}: every TNI's CQ pool is exhausted (rank tag {tag})");
}

/// What one op's posts reuse until the next Border: per-edge message sizes
/// (fixed by the send lists and ghost segments) and the comm-thread
/// assignment LPT derives from them — the same deterministic function of
/// the same sizes and hops, evaluated once per epoch instead of per op,
/// into the same vectors every epoch.
#[derive(Default)]
struct OpPlan {
    /// Payload f64s per out-edge.
    f64s: Vec<usize>,
    /// Per comm thread, the out-edges it posts, in posting order.
    lanes: Vec<Vec<usize>>,
}

/// One rank's uTofu engine: a [`Pattern`] shipped over one-sided puts.
pub struct UtofuEngine {
    lane: UtofuLane,
    pattern: Pattern,
    cfg: UtofuConfig,
    vcqs: Vec<Vcq>,
    /// `[inflow kind][out-edge]`: the resolved destinations (empty until
    /// the first post; see [`UtofuEngine::resolve_channels`]).
    chan: [Vec<Channel>; 2],
    /// `[inflow kind]`: this rank's receive buffers, sorted by STADD.
    rx: [Vec<RxBuf>; 2],
    /// `[Op::index()]`: sizes and thread assignment of the current epoch
    /// for the planned rounds (Border's own are rebuilt at its post).
    plans: [OpPlan; N_OPS],
    /// Per edge index: *local* registered send region `(stadd, bytes)` the
    /// ghost-op frames are serialized into in place. Never published —
    /// only this rank's NIC reads them.
    send_out: Vec<(Stadd, usize)>,
    x_region: Option<Stadd>,
    /// Per send link: byte offset in the neighbor's x-region where our
    /// forwarded positions land (learned via piggyback at border time).
    remote_ghost_off: Vec<Option<usize>>,
    /// `(byte offset in my x-region, in-edge)` of the non-empty ghost
    /// segments, ascending — where direct forward writes land this epoch.
    x_rx: Vec<(usize, u16)>,
    /// The surviving arrival per in-edge of the planned op being completed.
    inbox: Vec<Option<Arrival>>,
    /// Round-robin slot cursor, advanced once per posted round.
    seq: usize,
}

impl UtofuEngine {
    /// Build the engine for the rank that owns `graph` (a grid graph: the
    /// buffer tables are sized from its offsets), walking it with the
    /// pattern of `kind`, and publish its buffers.
    ///
    /// `density` sizes the §3.4 "theoretical upper limit" buffers.
    pub fn new(
        net: Arc<TofuNet>,
        book: Arc<AddressBook>,
        kind: PatternKind,
        graph: &CommGraph,
        node: usize,
        density: f64,
        mut cfg: UtofuConfig,
    ) -> Result<Self, TofuError> {
        if !graph.is_grid() {
            return Err(TofuError::UnsupportedGraph {
                engine: "utofu",
                graph: "rcb",
            });
        }
        let pattern = Pattern::new(kind, graph)?;
        assert!(cfg.vcqs >= 1 && cfg.vcqs <= TNIS_PER_NODE);
        assert!(cfg.comm_threads == 1 || cfg.comm_threads == cfg.vcqs);
        let me = graph.me;
        // Coarse-grained (1 VCQ): rank r binds its own TNI (4 ranks -> 4
        // TNIs); fine-grained binds every TNI.
        let wanted = if cfg.vcqs == 1 {
            me % 4..me % 4 + 1
        } else {
            0..cfg.vcqs
        };
        let created: Result<Vec<Vcq>, _> = wanted
            .map(|tni| create_vcq_retry(&net, node, tni, me as u32))
            .collect();
        // Persistent CQ exhaustion: the partial set went back to the pool
        // (each Vcq frees its CQ on drop); degrade to the shared single-VCQ
        // configuration on whichever TNI has room.
        let vcqs = created.unwrap_or_else(|_| {
            cfg.vcqs = 1;
            cfg.comm_threads = 1;
            vec![create_vcq_scan(&net, node, me % 4, me as u32)]
        });
        let mut lane = UtofuLane::new(net, book, node, cfg.retry_budget);
        let n = pattern.out_edges(graph, true).len();
        // Registration order fixes the STADD sequence and the float order
        // of `setup_cost`: the staged tables register face by face (ghost
        // in, owner in, send region), the p2p tables family by family.
        let families = [Some(BufKind::GhostIn), Some(BufKind::OwnerIn), None];
        let order: Vec<(Option<BufKind>, usize)> = if pattern.is_staged() {
            (0..n).flat_map(|k| families.map(|f| (f, k))).collect()
        } else {
            let by_family = |f| (0..n).map(move |k| (f, k));
            families.into_iter().flat_map(by_family).collect()
        };
        let mut rx = [Vec::new(), Vec::new()];
        let mut send_out = Vec::with_capacity(n);
        for (family, k) in order {
            let ghost_side = family == Some(BufKind::GhostIn);
            let est_atoms = pattern.max_atoms(graph, ghost_side, k, density);
            let full = wire::combined_size(est_atoms * MAX_RECORD_F64S);
            let Some(kind) = family else {
                // Local send regions, always full-size (they are this
                // rank's own memory — the undersize experiment concerns
                // *remote* receive buffers). Forward ops pack here per send
                // edge, reverse ops per recv edge; volumes are symmetric,
                // so one set serves both.
                send_out.push((lane.register(full), full));
                continue;
            };
            let size = if cfg.prereg {
                full
            } else {
                (full / BASELINE_UNDERSIZE).max(64)
            };
            for slot in 0..cfg.slots as u8 {
                let stadd = lane.register(size);
                lane.book
                    .publish(me as u32, kind, k as u16, slot, stadd, size);
                rx[kind as usize].push(RxBuf {
                    stadd,
                    edge: k as u16,
                    slot,
                });
            }
        }
        for table in &mut rx {
            table.sort_unstable_by_key(|b| b.stadd.0);
        }
        let x_region = cfg.prereg.then(|| {
            // Position array registered once at its theoretical maximum:
            // locals + full ghost shell, with the plan's 2x headroom.
            let local_est = (density * graph.sub.volume() * 2.0) as usize + 64;
            let ghost_est = (graph.total_ghost_estimate(density) * 2.0) as usize + 64;
            let bytes = (local_est + ghost_est) * 24;
            let stadd = lane.register(bytes);
            lane.book
                .publish(me as u32, BufKind::XRegion, 0, 0, stadd, bytes);
            stadd
        });
        Ok(UtofuEngine {
            lane,
            pattern,
            cfg,
            vcqs,
            chan: [Vec::new(), Vec::new()],
            rx,
            plans: Default::default(),
            send_out,
            x_region,
            remote_ghost_off: vec![None; n],
            x_rx: Vec::new(),
            inbox: vec![None; n],
            seq: 0,
        })
    }

    /// Resolve every out-edge's [`Channel`] from the address book — the
    /// one time this engine reads it. Deferred to the first post because
    /// only then have all ranks published; `rebind_graph` drops the
    /// channels so a swapped graph resolves afresh.
    fn resolve_channels(&mut self, st: &RankState) -> Result<(), TofuError> {
        if !self.chan[0].is_empty() {
            return Ok(());
        }
        let (lane, slots) = (&self.lane, self.cfg.slots);
        for kind in [BufKind::GhostIn, BufKind::OwnerIn] {
            let ghost_side = kind == BufKind::GhostIn;
            let direct_x = self.cfg.prereg && ghost_side;
            let edges = self.pattern.out_edges(&st.graph, ghost_side);
            self.chan[kind as usize] = edges
                .iter()
                .map(|e| lane.channel(kind, e, slots, direct_x))
                .collect::<Result<_, _>>()?;
        }
        Ok(())
    }

    /// Fix `op`'s per-edge message sizes for the epoch and derive the
    /// comm-thread assignment from them, into the plan's own vectors.
    fn replan(&mut self, op: Op) {
        let (layout, plan) = (&self.pattern.ghosts, &mut self.plans[op.index()]);
        let n = self.inbox.len();
        plan.f64s.clear();
        plan.f64s
            .extend((0..n).map(|k| Payload::of(op, k).len(layout)));
        let (p, f64s) = (self.lane.net.params(), &plan.f64s);
        let chan = &self.chan[BufKind::inflow(op.toward_ghosts()) as usize];
        let cost = |k: usize| fine::link_cost(f64s[k] * 8, chan[k].hops, p);
        let loads = &mut [0.0; TNIS_PER_NODE][..self.cfg.comm_threads];
        fine::balance_lpt(n, cost, loads, &mut plan.lanes);
    }

    /// The planned post: one message per out-edge of `op` across the
    /// configured threads/VCQs, charging the post-phase completion time to
    /// the clock. Sizes and thread assignment come from the op's
    /// [`OpPlan`], destinations from its channels. A ghost op's frames are
    /// serialized into `send_out` up front; Border's by the thread that
    /// posts them, its staging copy charged on that thread's clock.
    fn post_planned(&mut self, st: &mut RankState, op: Op) -> Result<(), TofuError> {
        let p = *self.lane.net.params();
        let slot = self.seq % self.cfg.slots;
        self.seq += 1;
        let kind = BufKind::inflow(op.toward_ghosts()) as usize;
        let plan = &self.plans[op.index()];
        let seq_base = self.lane.seq_base(plan.f64s.len());
        // Grow undersized destination buffers first (never under prereg).
        for (ch, &f64s) in self.chan[kind].iter_mut().zip(&plan.f64s) {
            let need = wire::combined_size(f64s);
            let (_, dt) = self.lane.reserve(ch, slot, need, st.stats.at(op, 0));
            st.charge(dt, op);
        }
        // Serialize the ghost-op frames in place. Local regions are sized
        // to the theoretical maximum at build; growth here is charged.
        let layout = &self.pattern.ghosts;
        if let OpKind::Ghost(g) = op.kind() {
            for (k, out) in self.send_out.iter_mut().enumerate() {
                let payload = Payload::Ghost(g, k);
                let (cost, _) = self.lane.frame(layout, out, st, payload, op, 0);
                st.charge(cost, op);
            }
        }
        // Forward under prereg writes straight into the remote x-region:
        // the raw values start right after the frame header, so the same
        // in-place serialization serves both put shapes.
        let direct_x = self.cfg.prereg && op == Op::Forward;
        let start = st.clock;
        let region_overhead = if self.cfg.comm_threads > 1 {
            p.pool_region_overhead
        } else {
            // A single thread driving v VCQs pays the per-VCQ software cost
            // (§4.2's explanation for 6TNI-single-thread).
            p.vcq_drive_overhead * self.cfg.vcqs as f64
        };
        let mut end = start;
        for (t, links) in plan.lanes.iter().enumerate() {
            let mut now = start + region_overhead;
            for &k in links {
                let (ch, f64s) = (&self.chan[kind][k], plan.f64s[k]);
                let (mut offset, mut len) = (0, wire::combined_size(f64s));
                let mut spilled = None;
                let (dst_stadd, dst_offset) = if direct_x {
                    // An empty forward (no atoms cross this link) sends
                    // nothing; the receiver expects arrivals only for its
                    // non-empty ghost segments.
                    if f64s == 0 {
                        continue;
                    }
                    let (Some(xs), Some(off)) = (ch.x, self.remote_ghost_off[k]) else {
                        return Err(TofuError::PhaseOrder {
                            node: self.lane.node,
                            phase: "forward",
                            missing: "ghost offsets from border",
                        });
                    };
                    (offset, len) = (wire::COMBINED_HEADER_BYTES, f64s * 8);
                    (xs, off)
                } else {
                    if op == Op::Border {
                        let (out, payload) = (&mut self.send_out[k], Payload::Border(k));
                        let (cost, frame) = self.lane.frame(layout, out, st, payload, op, 0);
                        (now, spilled) = (now + cost, frame);
                    }
                    (ch.dst[slot].0, 0)
                };
                let stadd = self.send_out[k].0;
                let region = PutSrc::Region { stadd, offset, len };
                let src = spilled.as_deref().map_or(region, PutSrc::Bytes);
                let put = Put {
                    dst_node: ch.node,
                    dst_stadd,
                    dst_offset,
                    src,
                    // The receiver checks it against *its own* edge list.
                    piggyback: u64::from(ch.tag),
                    seq: seq_base + 1 + k as u64,
                    cache_injection: true,
                };
                let vcq = &mut self.vcqs[t % self.cfg.vcqs.max(1)];
                self.lane.put(vcq, &mut now, put, st.stats.at(op, 0));
            }
            end = end.max(now);
        }
        st.charge(end - start, op);
        Ok(())
    }

    /// The sequential post: the two face messages round `round` of `op`
    /// lists, one after the other on the rank's first VCQ. A growth
    /// handshake is charged where it happens, between the puts.
    fn post_listed(&mut self, st: &mut RankState, op: Op, round: usize) -> Result<(), TofuError> {
        let slot = self.seq % self.cfg.slots;
        self.seq += 1;
        let (lane, pattern, chan, send_out) = (
            &mut self.lane,
            &self.pattern,
            &mut self.chan,
            &mut self.send_out,
        );
        let (vcq, layout) = (&mut self.vcqs[0], &pattern.ghosts);
        let seq_base = lane.seq_base(2);
        let mut now = st.clock;
        pattern.for_each_hop(op, round, st, false, |h, st| {
            let ch = &mut chan[BufKind::inflow(h.toward_ghosts) as usize][h.k];
            let payload = Payload::of(op, h.layout);
            let need = wire::combined_size(payload.len(layout));
            let (dst_stadd, dt) = lane.reserve(ch, slot, need, st.stats.at(op, round));
            now += dt;
            let out = &mut send_out[h.k];
            let (cost, spilled) = lane.frame(layout, out, st, payload, op, round);
            now += cost;
            let (stadd, offset, len) = (out.0, 0, need);
            let region = PutSrc::Region { stadd, offset, len };
            let src = spilled.as_deref().map_or(region, PutSrc::Bytes);
            let put = Put {
                dst_node: ch.node,
                dst_stadd,
                dst_offset: 0,
                src,
                piggyback: u64::from(ch.tag),
                seq: seq_base + 1 + h.i as u64,
                cache_injection: true,
            };
            lane.put(vcq, &mut now, put, st.stats.at(op, round));
        })?;
        st.charge(now - st.clock, op);
        Ok(())
    }

    /// The planned receive: wait for one message per in-edge of `op`, file
    /// the surviving arrival of each in `self.inbox`, and consume them in
    /// edge order whatever order the MRQ held them in.
    fn recv_planned(&mut self, st: &mut RankState, op: Op) -> Result<(), TofuError> {
        let p = *self.lane.net.params();
        let (node, n) = (self.lane.node, self.inbox.len());
        let rx = &self.rx[BufKind::inflow(op.toward_ghosts()) as usize];
        let direct_x = self.cfg.prereg && op == Op::Forward;
        let (expected, t) = if direct_x {
            let xs = self.x_region.ok_or(TofuError::PhaseOrder {
                node,
                phase: "forward",
                missing: "preregistered x region",
            })?;
            // Empty segments produce no message (§3.4 direct writes).
            let expected = self.x_rx.len();
            let pred = |a: &Arrival| a.stadd == xs && a.len > 0;
            let t = self
                .lane
                .wait(st.clock, expected, pred, st.stats.at(op, 0))?;
            (expected, t)
        } else {
            let pred = |a: &Arrival| a.len > 0 && rx_find(rx, a.stadd).is_some();
            (n, self.lane.wait(st.clock, n, pred, st.stats.at(op, 0))?)
        };
        self.inbox.fill(None);
        let (mut filled, mut unpack_bytes) = (0, 0);
        for a in &self.lane.arrivals {
            st.arrival_horizon = st.arrival_horizon.max(a.time);
            let k = if direct_x {
                // The landing offset identifies the ghost segment, hence
                // the edge; direct writes need no unpack copy (§3.4).
                let i = self.x_rx.binary_search_by_key(&a.offset, |e| e.0);
                let i = i.map_err(|_| TofuError::PhaseOrder {
                    node,
                    phase: "forward",
                    missing: "ghost segment matching arrival offset",
                })?;
                usize::from(self.x_rx[i].1)
            } else {
                unpack_bytes += a.len;
                checked_edge(node, rx, a, a.piggyback, n)?
            };
            filled += usize::from(self.inbox[k].replace(*a).is_none());
        }
        if filled < expected {
            return Err(self.lane.net.shortfall_error(node, expected, filled));
        }
        // Receiver-side CPU: one MRQ poll/dequeue per message plus the
        // linear-scan match against the posted buffer set (the O(N^2)
        // term of Fig. 15), plus the unpack copy (skipped for direct
        // x-region writes).
        let n_bufs = if direct_x { n } else { rx.len() };
        let poll = self.lane.arrivals.len() as f64
            * (p.cpu_per_put_utofu + n_bufs as f64 * p.mrq_match_per_buffer);
        let dt = if self.cfg.comm_threads > 1 {
            // Polling and unpacking parallelize over the pool.
            (t - st.clock)
                + (poll + p.pack_cost(unpack_bytes)) / self.cfg.comm_threads as f64
                + p.pool_region_overhead
        } else {
            t - st.clock + poll + p.pack_cost(unpack_bytes)
        };
        st.charge(dt, op);
        for (k, a) in self.inbox.iter().enumerate() {
            if let Some(a) = a {
                self.lane.consume(&mut self.pattern, st, op, k, a, direct_x);
            }
        }
        Ok(())
    }

    /// The sequential receive: wait for the two face messages round
    /// `round` of `op` lists and consume them in STADD order, which is hop
    /// order on a staged round (a face's buffers were registered -dim
    /// first) and ghost-side first on a grid migration sweep. `posted` is
    /// how many buffers the MRQ match is charged against per arrival.
    fn recv_listed(
        &mut self,
        st: &mut RankState,
        op: Op,
        round: usize,
        posted: f64,
    ) -> Result<(), TofuError> {
        let p = *self.lane.net.params();
        // (inflow kind, in-edge, layout edge) per hop, and the sweep's
        // dimension: telemetry files its receive anomalies under that.
        let (mut want, mut dim) = ([(0, 0, 0); 2], round);
        self.pattern.for_each_hop(op, round, st, true, |h, _| {
            want[h.i] = (BufKind::inflow(h.toward_ghosts) as usize, h.k, h.layout);
            if let Landing::Face { dim: d, .. } = h.landing {
                dim = d;
            }
        })?;
        let rx = &self.rx;
        let hop_of = |a: &Arrival| {
            let on = |&(kind, k, _): &(usize, usize, usize)| {
                rx_find(&rx[kind], a.stadd).is_some_and(|b| usize::from(b.edge) == k)
            };
            want.iter().position(on)
        };
        let pred = |a: &Arrival| a.len > 0 && hop_of(a).is_some();
        let t = self.lane.wait(st.clock, 2, pred, st.stats.at(op, dim))?;
        let (mut seen, mut unpack) = ([false; 2], 0usize);
        for a in &self.lane.arrivals {
            if let Some(hop) = hop_of(a) {
                self.lane
                    .consume(&mut self.pattern, st, op, want[hop].2, a, false);
                seen[hop] = true;
                unpack += a.len;
            }
        }
        let poll = self.lane.arrivals.len() as f64
            * (p.cpu_per_put_utofu + posted * p.mrq_match_per_buffer);
        st.charge(t - st.clock + poll + p.pack_cost(unpack), op);
        match seen {
            [true, true] => Ok(()),
            _ => Err(self.lane.net.shortfall_error(self.lane.node, 2, 1)),
        }
    }

    /// After border unpack: fix the epoch's ghost-op plans and landing
    /// table from the now-final layout, and send each ghost provider the
    /// offset where its atoms landed (8-byte piggyback, §3.4).
    fn begin_epoch(&mut self, st: &mut RankState) {
        let n = self.inbox.len();
        for op in Op::ALL
            .into_iter()
            .filter(|op| matches!(op.kind(), OpKind::Ghost(_)))
        {
            self.replan(op);
        }
        if !self.cfg.prereg {
            return;
        }
        self.x_rx.clear();
        self.remote_ghost_off.fill(None);
        let mut now = st.clock;
        let seq_base = self.lane.seq_base(n);
        // Target the provider's OwnerIn buffer (same inflow direction as a
        // reverse message); zero-length write, descriptor-only.
        for (k, ch) in self.chan[BufKind::OwnerIn as usize].iter().enumerate() {
            let (start, count) = self.pattern.ghosts.segment(k);
            if count > 0 {
                self.x_rx.push((start * 24, k as u16));
            }
            let put = Put {
                dst_node: ch.node,
                dst_stadd: ch.dst[0].0,
                dst_offset: 0,
                src: PutSrc::Bytes(&[]),
                piggyback: u64::from(ch.tag) << 48 | (start * 24) as u64,
                seq: seq_base + 1 + k as u64,
                cache_injection: false,
            };
            self.lane
                .put(&mut self.vcqs[0], &mut now, put, st.stats.at(Op::Border, 0));
        }
        st.charge(now - st.clock, Op::Border);
    }

    /// Consume the offset piggybacks from all send links (before the first
    /// prereg forward). Piggybacks target *this rank's* OwnerIn buffers —
    /// four ranks share each node's MRQ, so the address filter is what
    /// keeps a rank from stealing its node-mates' descriptors.
    fn recv_ghost_offsets(&mut self, st: &mut RankState) -> Result<(), TofuError> {
        let n = st.graph.send.len();
        let rx = &self.rx[BufKind::OwnerIn as usize];
        let pred = |a: &Arrival| a.len == 0 && rx_find(rx, a.stadd).is_some_and(|b| b.slot == 0);
        let t = self
            .lane
            .wait(st.clock, n, pred, st.stats.at(Op::Border, 0))?;
        for a in &self.lane.arrivals {
            let k = checked_edge(self.lane.node, rx, a, a.piggyback >> 48, n)?;
            self.remote_ghost_off[k] = Some((a.piggyback & 0xFFFF_FFFF_FFFF) as usize);
        }
        st.charge(t - st.clock, Op::Border);
        Ok(())
    }
}

impl GhostEngine for UtofuEngine {
    fn rounds(&self, op: Op) -> usize {
        self.pattern.rounds(op)
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.resolve_channels(st)?;
        self.pattern.select(op, round, st);
        if !self.pattern.spans_edges(op) {
            return self.post_listed(st, op, round);
        }
        if op == Op::Border {
            self.replan(op);
        } else if op == Op::Forward
            && self.cfg.prereg
            && self.remote_ghost_off.iter().any(Option::is_none)
        {
            self.recv_ghost_offsets(st)?;
        }
        self.post_planned(st, op)
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        if self.pattern.spans_edges(op) {
            self.recv_planned(st, op)?;
        } else {
            // A staged round matches each arrival against the two face
            // buffers it posted; a p2p migration sweep charges no match.
            let posted = if self.pattern.is_staged() { 2.0 } else { 0.0 };
            self.recv_listed(st, op, round, posted)?;
        }
        self.pattern.finish(op, st);
        if op == Op::Border && self.pattern.spans_edges(op) {
            self.begin_epoch(st);
        }
        Ok(())
    }

    fn setup_cost(&self) -> f64 {
        self.lane.setup_cost
    }

    fn fallback_requested(&self) -> bool {
        self.lane.fallback_wanted
    }

    fn rebind_graph(&mut self, st: &RankState) {
        // Channels are derived from the graph's edges; resolve them afresh
        // against the swapped graph. The epoch state is refreshed by the
        // next Border.
        self.chan = [Vec::new(), Vec::new()];
        self.pattern.rebind(&st.graph);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GhostEngine;
    use crate::pattern::fixture::{drive, fill_scalars};
    use tofumd_md::atom::Atoms;
    use tofumd_tofu::wait_arrivals;

    type Fixture = crate::pattern::fixture::Fixture<UtofuEngine>;

    /// The shared cell fixture under the p2p pattern at `cfg`.
    fn fixture(cfg: UtofuConfig) -> Fixture {
        crate::pattern::fixture::fixture(|fab, g| fab.utofu(PatternKind::P2p, cfg, g))
    }

    /// Buffer-growth events counted over every rank so far.
    fn grown(f: &Fixture) -> u64 {
        f.states.iter().map(|s| s.stats.total().growth_events).sum()
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
        assert_eq!(grown(&f), 0);
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
        fill_scalars(&mut f, 0.0);
        // Rank 1's local fp = 7.25 must reach its ghost copy on rank 0.
        f.states[1].scalar[0] = 7.25;
        drive(&mut f, Op::ForwardScalar);
        let gidx = f.states[0].atoms.nlocal;
        assert_eq!(f.states[0].scalar[gidx], 7.25);
        assert!(f.states[0].stages.pair_comm > 0.0);
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
        // variants. Border and Exchange stream their records from the
        // layout's send lists too, but model LAMMPS's staging copy, so
        // every byte they send is counted as copied.
        for cfg in [UtofuConfig::pool6(), UtofuConfig::coarse4()] {
            let mut f = fixture(cfg);
            drive(&mut f, Op::Exchange);
            drive(&mut f, Op::Border);
            fill_scalars(&mut f, 0.0);
            drive(&mut f, Op::Forward);
            drive(&mut f, Op::ForwardScalar);
            drive(&mut f, Op::Reverse);
            drive(&mut f, Op::ReverseScalar);
            let mut total = crate::engine::OpStats::default();
            for st in &f.states {
                total.merge(&st.stats);
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
        let t4 = coarse.states[0].stages.comm;
        let t6 = six.states[0].stages.comm;
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
        assert!(
            grown(&f) > 0,
            "dense border slab must trigger dynamic growth"
        );
    }

    #[test]
    fn utofu_3stage_carries_ghosts_both_directions() {
        let cfg = UtofuConfig::coarse4();
        let mut f =
            crate::pattern::fixture::fixture(|fab, g| fab.utofu(PatternKind::Staged, cfg, g));
        drive(&mut f, Op::Border);
        let states = &f.states;
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
            fill_scalars(&mut f, 0.0);
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
            let rx = &f.engines[0].rx[BufKind::GhostIn as usize];
            let (arrivals, _) = wait_arrivals(&f.fabric.net, f.engines[0].lane.node, 0.0, n, |a| {
                a.len > 0 && rx_find(rx, a.stadd).is_some()
            });
            // Find the arrival from the link that carried rank 1's atom
            // (non-trivial payload: 9 or 17 bytes framed = 1 scalar).
            let a = arrivals
                .iter()
                .filter(|a| a.len > 8)
                .min_by(|x, y| x.time.total_cmp(&y.time))
                .expect("a non-empty scalar payload");
            let raw = f
                .fabric
                .net
                .read_local(f.engines[0].lane.node, a.stadd, a.offset, a.len);
            wire::parse_combined(&raw)[0]
        };
        // One slot: the first-generation read observes the SECOND payload
        // (overwritten). Four slots: the first payload is intact.
        assert_eq!(run(1), 222.0, "1 buffer must exhibit the overwrite");
        assert_eq!(run(4), 111.0, "4 round-robin buffers prevent it");
    }

    /// Give every rank `per_rank` atoms strung along its low-x face region
    /// (border atoms toward several neighbors), tagged by rank.
    fn restock(f: &mut Fixture, per_rank: usize) {
        for (r, st) in f.states.iter_mut().enumerate() {
            let sub = st.graph.sub;
            let pos = (0..per_rank)
                .map(|i| {
                    let t = (i as f64 + 0.5) / per_rank as f64;
                    [
                        sub.lo[0] + 0.25 + 1.5 * t,
                        sub.lo[1] + 9.5 * t,
                        sub.lo[2] + 1.0 + 8.0 * t,
                    ]
                })
                .collect();
            st.atoms = Atoms::from_positions(pos, 1 + 1000 * r as u64);
        }
    }

    #[test]
    fn channels_follow_border_epoch() {
        // Epoch 1 on the sparse fixture, then restock every rank so send
        // lists, ghost segments and landing offsets all change. After the
        // re-Border the cached epoch state must be the new one: the next
        // Forward/Reverse match engines freshly built on the final atoms.
        for cfg in [UtofuConfig::pool6(), UtofuConfig::coarse4()] {
            let mut live = fixture(cfg);
            drive(&mut live, Op::Border);
            drive(&mut live, Op::Forward);
            drive(&mut live, Op::Reverse);
            let old_offsets = live.engines[1].remote_ghost_off.clone();
            let old_sizes = live.engines[1].plans[Op::Forward.index()].f64s.clone();
            let mut fresh = fixture(cfg);
            for f in [&mut live, &mut fresh] {
                restock(f, 5);
                drive(f, Op::Border);
                for st in f.states.iter_mut() {
                    for i in 0..st.atoms.nlocal {
                        st.atoms.x[i][1] += 0.015625 * (i + 1) as f64;
                    }
                    for g in st.atoms.nlocal..st.atoms.ntotal() {
                        st.atoms.f[g] = [0.5, -0.25, g as f64];
                    }
                }
                drive(f, Op::Forward);
                drive(f, Op::Reverse);
            }
            let e = &live.engines[1];
            assert_ne!(e.plans[Op::Forward.index()].f64s, old_sizes);
            if cfg.prereg {
                assert_ne!(e.remote_ghost_off, old_offsets, "offsets must move");
                assert_eq!(e.remote_ghost_off, fresh.engines[1].remote_ghost_off);
                assert_eq!(e.x_rx, fresh.engines[1].x_rx);
            }
            for (a, b) in live.states.iter().zip(&fresh.states) {
                assert!(a.atoms.nghost() > 0, "every rank holds ghosts now");
                assert_eq!(a.atoms.tag, b.atoms.tag);
                assert_eq!(a.atoms.x, b.atoms.x, "forward landed at the new offsets");
                assert_eq!(a.atoms.f, b.atoms.f, "reverse folded along the new lists");
            }
        }
    }

    #[test]
    fn grown_size_is_cached_in_the_channel() {
        // Non-prereg buffers start undersized. A dense slab grows the
        // ghost-side buffer at Border and the owner-side one at the first
        // Reverse; after that the channel's cached size is the grown one,
        // so repeating the ops (and a whole second epoch with the same
        // need) grows nothing. Counts and modeled clocks are the values the
        // per-message book lookup produced before channels existed.
        for (cfg, events, clock0, clock1) in [
            (
                UtofuConfig::coarse4(),
                2,
                0x3f22_6f51_a3ea_bee1u64,
                0x3f22_94fe_9ef8_540bu64,
            ),
            (
                UtofuConfig::single6(),
                2,
                0x3f2a_4284_bc45_ff92,
                0x3f2a_6831_b753_94bc,
            ),
        ] {
            let mut f = fixture(cfg);
            let sub = f.states[1].graph.sub;
            let pos = (0..600)
                .map(|i| {
                    let t = i as f64 / 600.0;
                    [sub.lo[0] + 0.01 + 2.0 * t, sub.lo[1] + 5.0, sub.lo[2] + 5.0]
                })
                .collect();
            f.states[1].atoms = Atoms::from_positions(pos, 5000);
            drive(&mut f, Op::Border);
            assert_eq!(grown(&f), 1, "border grows the ghost-side buffer");
            drive(&mut f, Op::Forward);
            drive(&mut f, Op::Reverse);
            assert_eq!(grown(&f), events, "reverse grows the owner-side buffer");
            for _ in 0..3 {
                drive(&mut f, Op::Forward);
                drive(&mut f, Op::Reverse);
            }
            drive(&mut f, Op::Border);
            drive(&mut f, Op::Forward);
            drive(&mut f, Op::Reverse);
            assert_eq!(grown(&f), events, "no second growth for the same need");
            // The book agrees with the channel (the handshake wrote both).
            let ch = &f.engines[1].chan[BufKind::GhostIn as usize];
            for c in ch {
                let booked = f.fabric.book.lookup(c.rank, c.kind, c.tag, 0).unwrap();
                assert_eq!(booked, c.dst[0]);
            }
            assert_eq!(
                f.states[0].clock.to_bits(),
                clock0,
                "{:e}",
                f.states[0].clock
            );
            assert_eq!(
                f.states[1].clock.to_bits(),
                clock1,
                "{:e}",
                f.states[1].clock
            );
        }
    }

    /// A put into `dst` from a rank-tag no engine uses, carrying `piggyback`.
    fn forge(f: &Fixture, node: usize, dst: Stadd, data: &[u8], piggyback: u64) {
        f.fabric.net.put(tofumd_tofu::PutRequest {
            src_node: (node + 1) % f.fabric.net.node_count(),
            tni: 0,
            dst_node: node,
            dst_stadd: dst,
            dst_offset: 0,
            data,
            piggyback,
            src_rank: 9_999,
            seq: 1,
            now: 0.0,
            cache_injection: false,
        });
    }

    #[test]
    fn forged_edge_index_is_a_typed_error() {
        // A payload arrival whose descriptor names an edge the receiver
        // does not have used to index `payloads[piggyback]` and panic.
        let mut f = fixture(UtofuConfig::coarse4());
        drive(&mut f, Op::Border);
        for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
            e.post(Op::Reverse, 0, st).unwrap();
        }
        let (node, n) = (f.engines[0].lane.node, f.states[0].graph.send.len());
        let dst = f.engines[0].rx[BufKind::OwnerIn as usize][0].stadd;
        forge(&f, node, dst, &wire::frame_combined(&[]), 40_000);
        let err = f.engines[0]
            .complete(Op::Reverse, 0, &mut f.states[0])
            .unwrap_err();
        let want = TofuError::BadDescriptor {
            node,
            edge: 40_000,
            edges: n,
        };
        assert_eq!(err, want);
        assert!(err.to_string().contains("edge index 40000"), "{err}");

        // Same for a ghost-offset piggyback (`edge << 48 | offset`) that
        // used to index `remote_ghost_off` directly.
        let mut f = fixture(UtofuConfig::pool6());
        drive(&mut f, Op::Border);
        let node = f.engines[0].lane.node;
        let slot0 = f.engines[0].rx[BufKind::OwnerIn as usize]
            .iter()
            .find(|b| b.slot == 0)
            .unwrap()
            .stadd;
        forge(&f, node, slot0, &[], 0x7fff << 48 | 24);
        let err = f.engines[0]
            .post(Op::Forward, 0, &mut f.states[0])
            .unwrap_err();
        assert!(
            matches!(err, TofuError::BadDescriptor { edge: 0x7fff, .. }),
            "{err}"
        );
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
    }

    #[test]
    fn oversized_border_frame_changes_nothing_modeled() {
        // A slab denser than §3.4 sized the send regions for — past 1.75x
        // the estimate, since the regions hold 7-value Exchange records and
        // Border's are 4 — so rank 1's frame toward rank 0 cannot be built
        // in place. The region is not grown for it: no local registration,
        // the modeled clocks the staged copy charged before the frame was
        // built in place (pinned), and every ghost arrives.
        let n = 1500;
        for (cfg, clocks) in [
            (
                UtofuConfig::coarse4(),
                [0x3f00_d460_0b5b_c94b, 0x3efe_6df8_19b3_457f],
            ),
            (
                UtofuConfig::pool6(),
                [0x3eff_039c_eb03_8b09, 0x3efe_b873_76eb_e11e],
            ),
        ] {
            let mut f = fixture(cfg);
            let sub = f.states[1].graph.sub;
            let pos = (0..n)
                .map(|i| {
                    let t = i as f64 / n as f64;
                    [sub.lo[0] + 0.01 + 2.0 * t, sub.lo[1] + 5.0, sub.lo[2] + 5.0]
                })
                .collect();
            f.states[1].atoms = Atoms::from_positions(pos, 5000);
            let (net, node) = (f.fabric.net.clone(), f.engines[1].lane.node);
            let regions = f.engines[1].send_out.clone();
            let k = f.states[1].graph.send.iter().position(|e| e.rank == 0);
            let region = regions[k.unwrap()].1;
            assert!(
                wire::combined_size(4 * n) > region,
                "{region} B holds the frame"
            );
            let calls = net.registration_calls_of(node);
            drive(&mut f, Op::Border);
            assert_eq!(net.registration_calls_of(node), calls, "{cfg:?} registered");
            assert_eq!(f.engines[1].send_out, regions, "{cfg:?} grew a send region");
            for &(stadd, len) in &regions {
                assert_eq!(net.mem_len(node, stadd), len, "{cfg:?} reserved");
            }
            let a = &f.states[0].atoms;
            let landed = a.tag[a.nlocal..].iter().filter(|&&t| t >= 5000).count();
            assert_eq!(landed, n, "{cfg:?}: every slab atom is a ghost of rank 0");
            let bits = [0, 1].map(|r| f.states[r].clock.to_bits());
            assert_eq!(
                bits, clocks,
                "{cfg:?}: {:e} {:e}",
                f.states[0].clock, f.states[1].clock
            );
        }
    }
}
