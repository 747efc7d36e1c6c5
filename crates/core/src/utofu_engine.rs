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
//! read exactly once per out-edge into a `Channel` — the whole put
//! descriptor but the payload. Each Border then fixes the comm-thread lanes
//! and the landing offsets until the next one, so a steady-state ghost op
//! is "put, written in place" and "take, dedupe, unpack in place": no
//! lookup, no heap allocation.
//!
//! One send and one receive routine, [`GhostEngine::post`] and
//! [`GhostEngine::complete`], walk [`Pattern::hop`] for every round. Where
//! a round that spans every graph edge and a face round are charged
//! differently, the difference is a field of the round's `RoundShape`.
//! Every message streams from the ghost layout once, straight into the
//! landing range of its put ([`PutSrc::Write`]); every arrival is delivered
//! from the bytes it landed in. The send regions are registered and
//! charged, never backed. A ghost op is zero-copy (`bytes_copied` stays
//! 0); Border and Exchange model LAMMPS's staging copy, charged and
//! counted.
//! The ghost-offset piggyback keeps its own put/wait pair: it carries no
//! payload, encodes `edge << 48 | offset`, and is consumed before the
//! first Forward rather than at its own complete.

use crate::engine::{CommStats, GhostEngine, Op, OpKind, RankState, N_OPS};
use crate::fine;
use crate::ghost::{GhostLayout, Payload};
use crate::pattern::{Pattern, PatternKind};
use crate::sf::{CommGraph, GraphEdge};
use crate::wire;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};
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
/// registration, read once per out-edge when a `Channel` is resolved,
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
            .unwrap_or_else(PoisonError::into_inner)
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
            .unwrap_or_else(PoisonError::into_inner)
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
}

impl UtofuConfig {
    /// Coarse-grained p2p: 1 thread, own TNI (`4tni_p2p`).
    #[must_use]
    pub fn coarse4() -> Self {
        UtofuConfig {
            vcqs: 1,
            comm_threads: 1,
            prereg: false,
            slots: 1,
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

/// Retransmissions allowed per failed put (and refused attempts per
/// registration) before the engine escapes to the reliable stack and
/// requests fallback to an MPI transport: enough to absorb any recoverable
/// fault a seeded plan produces (those only hit a message's first attempt).
const RETRY_BUDGET: u32 = 3;

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

/// One of this rank's receive buffers: which inflow kind, in-edge and slot
/// it serves.
struct RxBuf {
    stadd: Stadd,
    kind: BufKind,
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

/// The buffer `a` was delivered into — its owner is the in-edge it came
/// along — accepted only if the descriptor's index field `named` names the
/// same edge: a forged or corrupt descriptor is a typed error, never an
/// index.
fn checked_edge<'t>(
    node: usize,
    table: &'t [RxBuf],
    a: &Arrival,
    named: u64,
    edges: usize,
) -> Result<&'t RxBuf, TofuError> {
    match rx_find(table, a.stadd) {
        Some(b) if u64::from(b.edge) == named => Ok(b),
        _ => Err(TofuError::BadDescriptor {
            node,
            edge: named,
            edges,
        }),
    }
}

/// The transport state under `post`, `complete` and the piggyback pair —
/// fabric and book handles, sequencing, fault state, the reused arrival
/// list — with the one put, reserve, wait, frame-cost and consume routine they
/// share, each counting into the `(op, round)` counters of `st.stats`.
struct UtofuLane {
    net: Arc<TofuNet>,
    book: Arc<AddressBook>,
    node: usize,
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
    fn new(net: Arc<TofuNet>, book: Arc<AddressBook>, node: usize) -> Self {
        UtofuLane {
            net,
            book,
            node,
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
        for _ in 0..=RETRY_BUDGET {
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

    /// Make the slot-`slot` destination buffer of `ch` hold `need` bytes;
    /// returns what that cost. Growing an undersized buffer is a handshake
    /// round-trip plus the remote re-registration stall — the
    /// dynamic-expansion overhead pre-registration eliminates (cost 0.0).
    fn reserve(&mut self, ch: &mut Channel, slot: usize, need: usize, sent: &mut CommStats) -> f64 {
        let (stadd, size) = &mut ch.dst[slot];
        if need <= *size {
            return 0.0;
        }
        *size = need.next_power_of_two();
        let cost = self.net.grow_mem(ch.node, *stadd, *size);
        self.book
            .publish(ch.rank, ch.kind, ch.tag, slot as u8, *stadd, *size);
        sent.growth_events += 1;
        2.0 * self.net.params().wire_time(0, ch.hops) + cost
    }

    /// Count and send one logical message on the faultable path, retrying
    /// with exponential backoff (charged to the virtual clock) up to the
    /// retry budget. Retransmissions reuse `put.seq` so the receiver's
    /// duplicate detection coalesces partial deliveries. When the budget is
    /// exhausted the payload is handed to the reliable stack
    /// ([`Vcq::post_reliable`]) — which cannot lose it — and the engine
    /// flags a fallback request so the driver demotes the cluster to an
    /// MPI transport at the end of the step.
    fn send(&mut self, vcq: &mut Vcq, now: &mut f64, put: Put<'_>, sent: &mut CommStats) {
        if !put.src.is_empty() {
            sent.count(put.src.len());
        }
        let p = self.net.params();
        for attempt in 0.. {
            if vcq.try_post(now, &put, attempt).is_ok() {
                return;
            }
            if attempt >= RETRY_BUDGET {
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

    /// What framing `payload` costs the sender; `sent` counts it. A ghost
    /// op is zero-copy: only its send region `out = (stadd, size)` is
    /// modeled — grown when undersized (a local re-registration, charged),
    /// never backed, since the payload is written once, into its landing
    /// range. Border and Exchange model LAMMPS's staging copy, charged
    /// (`pack_cost`) and counted (`bytes_copied`); their region is never
    /// grown.
    fn frame_cost(
        &self,
        layout: &GhostLayout,
        out: &mut (Stadd, usize),
        payload: Payload,
        sent: &mut CommStats,
    ) -> f64 {
        let need = wire::combined_size(payload.len(layout));
        if !matches!(payload, Payload::Ghost(..)) {
            sent.copied(need);
            return self.net.params().pack_cost(need);
        }
        if need <= out.1 {
            return 0.0;
        }
        out.1 = need.next_power_of_two();
        self.net.grow_mem(self.node, out.0, out.1)
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

/// How a round's messages travel — DESIGN §16's charge asymmetries as
/// data. A round that spans every graph edge and a face round differ only
/// here; [`UtofuEngine::shape`] derives it from the pattern and the
/// config, and nothing else sets it.
struct RoundShape {
    /// The round spans every graph edge. It posts across the op's LPT
    /// lanes over the comm threads, lane `t` on VCQ `t mod vcqs`, and its
    /// growth handshakes (and ghost-op frames) are charged before the puts
    /// start, one `st.charge` each. A face round posts one lane, in hop
    /// order, on VCQ 0, and adds its growth to the lane's clock between
    /// its puts.
    spans: bool,
    /// Software cost each lane pays before its first put.
    region_overhead: f64,
    /// Receive buffers each arrival is MRQ-matched against.
    match_bufs: usize,
    /// Polling and unpacking divide over the comm-thread pool.
    pool: bool,
    /// Forward writes land raw in the peer's x-region (§3.4).
    direct_x: bool,
}

/// One message a round expects, filed by the buffer family and in-edge it
/// lands on: the layout edge it delivers to and, once taken, the index of
/// its surviving arrival.
#[derive(Clone, Copy)]
struct Expected {
    layout: usize,
    got: Option<usize>,
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
    /// This rank's receive buffers of both inflow kinds, sorted by STADD.
    rx: Vec<RxBuf>,
    /// `[Op::index()]`: per comm thread, the out-edges it posts in a round
    /// that spans the edges, in posting order. LPT derives them from the
    /// message sizes, which are fixed until the next Border, so they are
    /// dealt once per epoch into the same vectors (Border's own at its
    /// post).
    lanes: [Vec<Vec<usize>>; N_OPS],
    /// Per edge index: *local* registered send region `(stadd, bytes)`, the
    /// §3.4 buffer whose registration and growth are charged. Never
    /// published and never backed: payloads are written into their
    /// landing ranges instead.
    send_out: Vec<(Stadd, usize)>,
    x_region: Option<Stadd>,
    /// Per send link: byte offset in the neighbor's x-region where our
    /// forwarded positions land (learned via piggyback at border time).
    remote_ghost_off: Vec<Option<usize>>,
    /// `(byte offset in my x-region, in-edge)` of the non-empty ghost
    /// segments, ascending — where direct forward writes land this epoch.
    x_rx: Vec<(usize, u16)>,
    /// `[inflow kind][in-edge]`: what the round being completed expects.
    inbox: [Vec<Option<Expected>>; 2],
    /// Round-robin slot cursor, advanced once per posted round.
    seq: usize,
    /// Reused scratch: each out-edge's LPT cost while an op is dealt.
    costs: Vec<f64>,
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
        // configuration on the first TNI with room, own TNI first. Every TNI
        // exhausted — 9 CQs x 6 TNIs against 4 ranks — is real starvation.
        let vcqs = match created {
            Ok(vcqs) => vcqs,
            Err(_) => {
                let first = me % 4;
                (cfg.vcqs, cfg.comm_threads) = (1, 1);
                let tnis = std::iter::once(first).chain((0..TNIS_PER_NODE).filter(|&t| t != first));
                let mut vcq = tnis.map(|tni| create_vcq_retry(&net, node, tni, me as u32));
                let none = Err(CqExhausted { node, tni: first });
                vec![vcq.find(Result::is_ok).unwrap_or(none)?]
            }
        };
        let mut lane = UtofuLane::new(net, book, node);
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
        let mut rx = Vec::new();
        let mut send_out = Vec::with_capacity(n);
        for (family, k) in order {
            let ghost_side = family == Some(BufKind::GhostIn);
            let est_atoms = pattern.max_atoms(graph, ghost_side, k, density);
            let full = wire::combined_size(est_atoms * MAX_RECORD_F64S);
            let Some(kind) = family else {
                // Local send regions, always full-size (they are this
                // rank's own memory — the undersize experiment concerns
                // *remote* receive buffers). Forward ops are charged here
                // per send edge, reverse ops per recv edge; volumes are
                // symmetric, so one set serves both.
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
                rx.push(RxBuf {
                    stadd,
                    kind,
                    edge: k as u16,
                    slot,
                });
            }
        }
        rx.sort_unstable_by_key(|b| b.stadd.0);
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
            lanes: Default::default(),
            send_out,
            x_region,
            remote_ghost_off: vec![None; n],
            x_rx: Vec::new(),
            inbox: [vec![None; n], vec![None; n]],
            seq: 0,
            costs: Vec::new(),
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

    /// The shape of `op`'s rounds: spanning every edge (p2p Border and
    /// ghost ops) or a face round (every staged round, every grid
    /// migration sweep), under this engine's config.
    fn shape(&self, op: Op) -> RoundShape {
        let (p, cfg) = (self.lane.net.params(), &self.cfg);
        let spans = self.pattern.spans_edges(op);
        let pool = spans && cfg.comm_threads > 1;
        let direct_x = spans && cfg.prereg && op == Op::Forward;
        RoundShape {
            spans,
            region_overhead: match (spans, pool) {
                (false, _) => 0.0,
                (true, true) => p.pool_region_overhead,
                // A single thread driving v VCQs pays the per-VCQ software
                // cost (§4.2's explanation for 6TNI-single-thread).
                (true, false) => p.vcq_drive_overhead * cfg.vcqs as f64,
            },
            // The family's whole receive table (one entry per edge under
            // direct-`x`); a staged round's two face buffers; nothing on a
            // p2p migration sweep.
            match_bufs: match (spans, direct_x) {
                (true, true) => self.remote_ghost_off.len(),
                (true, false) => self.remote_ghost_off.len() * cfg.slots,
                _ if self.pattern.is_staged() => 2,
                _ => 0,
            },
            pool,
            direct_x,
        }
    }

    /// Deal `op`'s out-edges over the comm threads by LPT on each
    /// message's size and hops, into the op's own lanes. Each edge's cost
    /// is derived once, not at every comparison of the sort.
    fn replan(&mut self, op: Op) {
        let (layout, p) = (&self.pattern.ghosts, self.lane.net.params());
        let chan = &self.chan[BufKind::inflow(op.toward_ghosts()) as usize];
        let cost = |(k, ch): (usize, &Channel)| {
            fine::link_cost(Payload::of(op, k).len(layout) * 8, ch.hops, p)
        };
        self.costs.clear();
        self.costs.extend(chan.iter().enumerate().map(cost));
        let loads = &mut [0.0; TNIS_PER_NODE][..self.cfg.comm_threads];
        let costs = &self.costs;
        fine::balance_lpt(chan.len(), |k| costs[k], loads, &mut self.lanes[op.index()]);
    }

    /// After border unpack: deal the epoch's ghost-op lanes and fix the
    /// landing table from the now-final layout, and send each ghost
    /// provider the offset where its atoms landed (8-byte piggyback, §3.4).
    fn begin_epoch(&mut self, st: &mut RankState) {
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
        // Target the provider's OwnerIn buffer (same inflow direction as a
        // reverse message); zero-length write, descriptor-only.
        for (k, ch) in self.chan[BufKind::OwnerIn as usize].iter().enumerate() {
            let (start, count) = self.pattern.ghosts.segment(k);
            if count > 0 {
                self.x_rx.push((start * 24, k as u16));
            }
            self.lane.send_seq += 1;
            let put = Put {
                dst_node: ch.node,
                dst_stadd: ch.dst[0].0,
                dst_offset: 0,
                src: PutSrc::Bytes(&[]),
                piggyback: u64::from(ch.tag) << 48 | (start * 24) as u64,
                seq: self.lane.send_seq,
                cache_injection: false,
            };
            self.lane
                .send(&mut self.vcqs[0], &mut now, put, st.stats.at(Op::Border, 0));
        }
        st.charge(now - st.clock, Op::Border);
    }

    /// Consume the offset piggybacks from all send links (before the first
    /// prereg forward). Piggybacks target *this rank's* OwnerIn buffers —
    /// four ranks share each node's MRQ, so the address filter is what
    /// keeps a rank from stealing its node-mates' descriptors.
    fn recv_ghost_offsets(&mut self, st: &mut RankState) -> Result<(), TofuError> {
        let (n, rx) = (st.graph.send.len(), &self.rx);
        let owner_slot0 = |b: &RxBuf| b.kind == BufKind::OwnerIn && b.slot == 0;
        let pred = |a: &Arrival| a.len == 0 && rx_find(rx, a.stadd).is_some_and(owner_slot0);
        let t = self
            .lane
            .wait(st.clock, n, pred, st.stats.at(Op::Border, 0))?;
        for a in &self.lane.arrivals {
            let b = checked_edge(self.lane.node, rx, a, a.piggyback >> 48, n)?;
            self.remote_ghost_off[usize::from(b.edge)] =
                Some((a.piggyback & 0xFFFF_FFFF_FFFF) as usize);
        }
        st.charge(t - st.clock, Op::Border);
        Ok(())
    }
}

impl GhostEngine for UtofuEngine {
    fn rounds(&self, op: Op) -> usize {
        self.pattern.rounds(op)
    }

    /// Post every message `(op, round)` lists, lane by lane, and charge the
    /// slowest lane. Each streams from the layout once, written by the
    /// fabric as a combined frame into the round's slot of the buffer its
    /// channel names — or, under direct-`x`, as raw `f64`s at the peer's
    /// ghost offset in its x-region.
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        self.resolve_channels(st)?;
        self.pattern.select(op, round, st)?;
        let shape = self.shape(op);
        if shape.spans && op == Op::Border {
            self.replan(op);
        } else if shape.direct_x && self.remote_ghost_off.iter().any(Option::is_none) {
            self.recv_ghost_offsets(st)?;
        }
        let slot = self.seq % self.cfg.slots;
        self.seq += 1;
        let (lane, chan, send_out) = (&mut self.lane, &mut self.chan, &mut self.send_out);
        let (pattern, layout) = (&self.pattern, &self.pattern.ghosts);
        let frame_first = shape.spans && matches!(op.kind(), OpKind::Ghost(_));
        if shape.spans {
            pattern.for_each_hop(op, round, st, false, |h, st| {
                let ch = &mut chan[BufKind::inflow(h.toward_ghosts) as usize][h.k];
                let need = wire::combined_size(Payload::of(op, h.layout).len(layout));
                let dt = lane.reserve(ch, slot, need, st.stats.at(op, round));
                st.charge(dt, op);
            })?;
        }
        if frame_first {
            pattern.for_each_hop(op, round, st, false, |h, st| {
                let (out, payload) = (&mut send_out[h.k], Payload::of(op, h.layout));
                let cost = lane.frame_cost(layout, out, payload, st.stats.at(op, round));
                st.charge(cost, op);
            })?;
        }
        // Message `i` is stamped `base + 1 + i`, whichever lane posts it.
        let (base, start, plan) = (lane.send_seq, st.clock, &self.lanes[op.index()]);
        let (mut end, mut sent, mut tally) = (start, 0, CommStats::default());
        for t in 0..if shape.spans { plan.len() } else { 1 } {
            // A face round's one lane is its hops in order.
            let lpt = plan.get(t).filter(|_| shape.spans);
            let (mut now, mut j) = (start + shape.region_overhead, 0);
            while let Some(i) = lpt.map_or(Some(j), |lane| lane.get(j).copied()) {
                j += 1;
                let Some(h) = pattern.hop(op, round, &st.graph, false, i)? else {
                    break;
                };
                sent += 1;
                let ch = &mut chan[BufKind::inflow(h.toward_ghosts) as usize][h.k];
                let payload = Payload::of(op, h.layout);
                let f64s = payload.len(layout);
                let mut len = wire::combined_size(f64s);
                if !shape.spans {
                    now += lane.reserve(ch, slot, len, st.stats.at(op, round));
                }
                let (dst_stadd, dst_offset) = if shape.direct_x {
                    // An empty forward (no atoms cross this link) sends
                    // nothing; the receiver expects arrivals only for its
                    // non-empty ghost segments.
                    if f64s == 0 {
                        continue;
                    }
                    let (Some(xs), Some(off)) = (ch.x, self.remote_ghost_off[h.k]) else {
                        return Err(TofuError::PhaseOrder {
                            node: lane.node,
                            phase: "forward",
                            missing: "ghost offsets from border",
                        });
                    };
                    len = f64s * 8;
                    (xs, off)
                } else {
                    if !frame_first {
                        let out = &mut send_out[h.k];
                        now += lane.frame_cost(layout, out, payload, st.stats.at(op, round));
                    }
                    (ch.dst[slot].0, 0)
                };
                // Written once, by the fabric, into the landing range: raw
                // at the peer's ghost offset, or framed in the slot.
                let write = |mut buf: &mut [u8]| {
                    if shape.direct_x {
                        return payload.write(layout, st, &mut buf);
                    }
                    let mut w = wire::CombinedWriter::new(buf);
                    payload.write(layout, st, &mut w);
                    let framed = w.finish();
                    debug_assert_eq!(framed, len, "layout promised {len} bytes");
                };
                let put = Put {
                    dst_node: ch.node,
                    dst_stadd,
                    dst_offset,
                    src: PutSrc::Write { len, write: &write },
                    // The receiver checks it against *its own* edge list.
                    piggyback: u64::from(ch.tag),
                    seq: base + 1 + h.i as u64,
                    cache_injection: true,
                };
                let vcq = &mut self.vcqs[t % self.cfg.vcqs];
                lane.send(vcq, &mut now, put, &mut tally);
            }
            end = end.max(now);
        }
        st.stats.at(op, round).merge(&tally);
        lane.send_seq += sent;
        st.charge(end - start, op);
        Ok(())
    }

    /// Take the round's arrivals, map every one to the message it answers —
    /// checked against the buffer it landed in — before any is delivered,
    /// keep the last survivor per expected message, charge the receive and
    /// deliver the survivors in the canonical order [`dedupe_arrivals`]
    /// left them in, straight from the bytes they landed in.
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (shape, p) = (self.shape(op), *self.lane.net.params());
        let (node, n, inbox) = (self.lane.node, self.remote_ghost_off.len(), &mut self.inbox);
        inbox.iter_mut().for_each(|family| family.fill(None));
        let mut hops = 0;
        self.pattern.for_each_hop(op, round, st, true, |h, _| {
            let (layout, got) = (h.layout, None);
            inbox[BufKind::inflow(h.toward_ghosts) as usize][h.k] = Some(Expected { layout, got });
            hops += 1;
        })?;
        // A direct-`x` write lands at its ghost segment's offset in this
        // rank's x-region (registered whenever `prereg` is), and an empty
        // segment sends nothing (§3.4).
        let xs = self.x_region.filter(|_| shape.direct_x);
        let (rx, x_rx) = (&self.rx, &self.x_rx);
        let expected = if xs.is_some() { x_rx.len() } else { hops };
        let landed = |a: &Arrival| -> Result<(usize, usize), TofuError> {
            if xs.is_none() {
                let b = checked_edge(node, rx, a, a.piggyback, n)?;
                return Ok((b.kind as usize, usize::from(b.edge)));
            }
            let i = x_rx.binary_search_by_key(&a.offset, |e| e.0);
            let i = i.map_err(|_| TofuError::PhaseOrder {
                node,
                phase: "forward",
                missing: "ghost segment matching arrival offset",
            })?;
            Ok((BufKind::GhostIn as usize, usize::from(x_rx[i].1)))
        };
        let filed = |b: &RxBuf| inbox[b.kind as usize][usize::from(b.edge)].is_some();
        let pred = |a: &Arrival| match xs {
            Some(xs) => a.len > 0 && a.stadd == xs,
            None => a.len > 0 && rx_find(rx, a.stadd).is_some_and(filed),
        };
        let t = self
            .lane
            .wait(st.clock, expected, pred, st.stats.at(op, round))?;
        let (mut filled, mut unpack) = (0, 0);
        for (j, a) in self.lane.arrivals.iter().enumerate() {
            st.arrival_horizon = st.arrival_horizon.max(a.time);
            let (kind, k) = landed(a)?;
            if xs.is_none() {
                unpack += a.len;
            }
            if let Some(e) = &mut inbox[kind][k] {
                filled += usize::from(e.got.replace(j).is_none());
            }
        }
        if filled < expected {
            return Err(self.lane.net.shortfall_error(node, expected, filled));
        }
        // Receiver-side CPU: one MRQ poll/dequeue per message plus the
        // linear-scan match against the posted buffer set (the O(N^2)
        // term of Fig. 15), plus the unpack copy (none for direct writes).
        let poll = self.lane.arrivals.len() as f64
            * (p.cpu_per_put_utofu + shape.match_bufs as f64 * p.mrq_match_per_buffer);
        let dt = if shape.pool {
            (t - st.clock)
                + (poll + p.pack_cost(unpack)) / self.cfg.comm_threads as f64
                + p.pool_region_overhead
        } else {
            t - st.clock + poll + p.pack_cost(unpack)
        };
        st.charge(dt, op);
        for (j, a) in self.lane.arrivals.iter().enumerate() {
            let (kind, k) = landed(a)?;
            if let Some(e) = inbox[kind][k].filter(|e| e.got == Some(j)) {
                self.lane
                    .consume(&mut self.pattern, st, op, e.layout, a, xs.is_some());
            }
        }
        self.pattern.finish(op, st);
        if op == Op::Border && shape.spans {
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
        // The repeated ghost ops write each payload once, straight into
        // its landing range at the peer — raw at the ghost offset (direct-x,
        // pool6) or framed in the reserved slot (coarse4): wire bytes move,
        // but `bytes_copied` stays at zero on both variants. Border and
        // Exchange stream their records from the layout's send lists the
        // same way, but model LAMMPS's staging copy, so every byte they
        // send is counted as copied.
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
            let rx = &f.engines[0].rx;
            let ghost_in = |a: &Arrival| {
                a.len > 0 && rx_find(rx, a.stadd).is_some_and(|b| b.kind == BufKind::GhostIn)
            };
            let (node, mut arrivals) = (f.engines[0].lane.node, Vec::new());
            try_wait_arrivals_into(&f.fabric.net, node, 0.0, n, ghost_in, &mut arrivals).unwrap();
            // Find the arrival from the link that carried rank 1's atom
            // (non-trivial payload: 9 or 17 bytes framed = 1 scalar).
            let a = arrivals
                .iter()
                .filter(|a| a.len > 8)
                .min_by(|x, y| x.time.total_cmp(&y.time))
                .expect("a non-empty scalar payload");
            let net = &f.fabric.net;
            net.read_local_with(node, a.stadd, a.offset, a.len, |raw| {
                wire::parse_combined(raw)[0]
            })
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

    /// Forward's per-edge payload sizes in this epoch.
    fn forward_sizes(e: &UtofuEngine) -> Vec<usize> {
        let n = e.remote_ghost_off.len();
        (0..n)
            .map(|k| Payload::of(Op::Forward, k).len(&e.pattern.ghosts))
            .collect()
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
            let old_sizes = forward_sizes(&live.engines[1]);
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
            assert_ne!(forward_sizes(e), old_sizes);
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
        // per-message book lookup produced before channels existed. The
        // staged row grows face buffers on a face round, whose handshakes
        // are charged between its puts.
        for (kind, cfg, [at_border, events], clock0, clock1) in [
            (
                PatternKind::P2p,
                UtofuConfig::coarse4(),
                [1, 2],
                0x3f22_6f51_a3ea_bee1u64,
                0x3f22_94fe_9ef8_540bu64,
            ),
            (
                PatternKind::P2p,
                UtofuConfig::single6(),
                [1, 2],
                0x3f2a_4284_bc45_ff92,
                0x3f2a_6831_b753_94bc,
            ),
            (
                PatternKind::Staged,
                UtofuConfig::coarse4(),
                [1, 1],
                0x3f18_1986_014f_8594,
                0x3f18_f6da_43c2_df0d,
            ),
        ] {
            let mut f = crate::pattern::fixture::fixture(|fab, g| fab.utofu(kind, cfg, g));
            let sub = f.states[1].graph.sub;
            let pos = (0..600)
                .map(|i| {
                    let t = i as f64 / 600.0;
                    [sub.lo[0] + 0.01 + 2.0 * t, sub.lo[1] + 5.0, sub.lo[2] + 5.0]
                })
                .collect();
            f.states[1].atoms = Atoms::from_positions(pos, 5000);
            drive(&mut f, Op::Border);
            assert_eq!(grown(&f), at_border, "border grows a ghost-side buffer");
            drive(&mut f, Op::Forward);
            drive(&mut f, Op::Reverse);
            assert_eq!(grown(&f), events, "p2p reverse grows the owner-side buffer");
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

    /// A put into `dst` at byte `offset` from a rank-tag no engine uses,
    /// carrying `piggyback`.
    fn forge(f: &Fixture, node: usize, (dst, offset): (Stadd, usize), data: &[u8], piggyback: u64) {
        f.fabric.net.put(tofumd_tofu::PutRequest {
            src_node: (node + 1) % f.fabric.net.node_count(),
            tni: 0,
            dst_node: node,
            dst_stadd: dst,
            dst_offset: offset,
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
        let owner_in = f.engines[0].rx.iter().find(|b| b.kind == BufKind::OwnerIn);
        let dst = owner_in.unwrap().stadd;
        forge(&f, node, (dst, 0), &wire::frame_combined(&[]), 40_000);
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

        // A face round checks every descriptor before it delivers any: a
        // forged border record landing past the real frame in the buffer of
        // rank 0's first x-sweep hop fails the round, and nothing becomes a
        // ghost (it used to be delivered as a third message).
        let staged = PatternKind::Staged;
        let cfg = UtofuConfig::coarse4();
        let mut f = crate::pattern::fixture::fixture(|fab, g| fab.utofu(staged, cfg, g));
        for (e, st) in f.engines.iter_mut().zip(f.states.iter_mut()) {
            e.post(Op::Border, 0, st).unwrap();
        }
        let node = f.engines[0].lane.node;
        let face = f.engines[0]
            .rx
            .iter()
            .find(|b| b.kind == BufKind::GhostIn && b.edge == 0);
        let record = wire::frame_combined(&[0.0; wire::BORDER_RECORD_F64S]);
        forge(&f, node, (face.unwrap().stadd, 64), &record, 40_000);
        let err = f.engines[0]
            .complete(Op::Border, 0, &mut f.states[0])
            .unwrap_err();
        assert!(
            matches!(err, TofuError::BadDescriptor { edge: 40_000, .. }),
            "{err}"
        );
        assert_eq!(f.states[0].atoms.nghost(), 0, "nothing was delivered");

        // Same for a ghost-offset piggyback (`edge << 48 | offset`) that
        // used to index `remote_ghost_off` directly.
        let mut f = fixture(UtofuConfig::pool6());
        drive(&mut f, Op::Border);
        let node = f.engines[0].lane.node;
        let slot0 = f.engines[0]
            .rx
            .iter()
            .find(|b| b.kind == BufKind::OwnerIn && b.slot == 0);
        let slot0 = slot0.unwrap().stadd;
        forge(&f, node, (slot0, 0), &[], 0x7fff << 48 | 24);
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
    fn cq_exhaustion_on_every_tni_is_a_typed_error() {
        use crate::sf::PlanConfig;
        use tofumd_tofu::{FaultKind, FaultPlan, FaultRule};
        let fab = crate::pattern::fixture::Fabric::new();
        let exhaust = FaultRule::any(FaultKind::ExhaustCq { times: u32::MAX });
        fab.net.set_fault_plan(FaultPlan::new().with_rule(exhaust));
        let (graph, node) = (fab.graph(0, PlanConfig::NEWTON), fab.map.node_of(0));
        let (net, book, kind) = (fab.net.clone(), fab.book.clone(), PatternKind::P2p);
        let density = crate::pattern::fixture::DENSITY;
        let built = UtofuEngine::new(net, book, kind, &graph, node, density, UtofuConfig::pool6());
        let err = built.err();
        assert!(matches!(err, Some(TofuError::CqExhausted(_))), "{err:?}");
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
        // Border's are 4 — so rank 1's frame toward rank 0 is larger than
        // its send region. The frame is written straight into its landing
        // slot at rank 0, never into that region, so the region is not
        // grown for it: no local registration, the modeled clocks of the
        // charged staging copy (pinned), and every ghost arrives.
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

    #[test]
    fn send_regions_are_charged_but_never_backed() {
        // Every op of an epoch, on a slab dense enough that the ghost ops
        // outgrow §3.4's send regions on both sides of the slab's edge.
        // Each payload is written once, into its landing range, so no send
        // region ever holds a host byte; each keeps the modeled length its
        // growth charged, and the clocks carry the growth and staging
        // charges the in-region build paid (pinned).
        let n = 2500;
        for (cfg, clocks) in [
            (
                UtofuConfig::pool6(),
                [0x3f20_0dd1_1c1b_2e31, 0x3f20_1487_18c1_dd5d],
            ),
            (
                UtofuConfig::coarse4(),
                [0x3f20_de87_03d5_b194, 0x3f21_0014_f317_1d6f],
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
            let before: Vec<_> = f.engines.iter().map(|e| e.send_out.clone()).collect();
            drive(&mut f, Op::Exchange);
            drive(&mut f, Op::Border);
            fill_scalars(&mut f, 0.5);
            for op in [
                Op::Forward,
                Op::ForwardScalar,
                Op::Reverse,
                Op::ReverseScalar,
            ] {
                drive(&mut f, op);
            }
            let (net, mut grown) = (&f.fabric.net, 0);
            for (e, was) in f.engines.iter().zip(&before) {
                for (&(stadd, len), &(_, len0)) in e.send_out.iter().zip(was) {
                    let node = e.lane.node;
                    assert_eq!(
                        net.mem_backed(node, stadd),
                        0,
                        "{cfg:?} backed a send region"
                    );
                    assert_eq!(net.mem_len(node, stadd), len, "{cfg:?} modeled length");
                    grown += usize::from(len > len0);
                }
            }
            assert!(grown >= 2, "{cfg:?}: ghost ops grew {grown} send regions");
            let bits = [0, 1].map(|r| f.states[r].clock.to_bits());
            let (c0, c1) = (f.states[0].clock, f.states[1].clock);
            assert_eq!(bits, clocks, "{cfg:?}: {c0:e} {c1:e} {bits:#x?}");
        }
    }
}
