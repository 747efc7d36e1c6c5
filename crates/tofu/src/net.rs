//! The simulated fabric: nodes, TNIs, message delivery, virtual time.
//!
//! Real bytes move (puts copy into the destination node's registered
//! memory) and virtual time advances through the [`NetParams`] model: each
//! TNI serializes its injections, each message pays latency proportional to
//! its folded-torus hop count plus a bandwidth term, and receivers observe
//! arrivals through a notification queue (the uTofu MRQ).
//!
//! The fabric is thread-safe (per-node locks) but the intended use is the
//! bulk-synchronous lockstep of `tofumd-runtime`: within one communication
//! stage every rank first posts its sends, then resolves its receives.

use crate::fault::{FaultAction, FaultCounters, FaultKey, FaultPlan, TofuError, OP_SETUP};
use crate::mem::{MemRegistry, Stadd};
use crate::timing::NetParams;
use crate::topology::CellGrid;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Number of TNIs per node (§2.2).
pub const TNIS_PER_NODE: usize = 6;
/// Control queues per TNI (§3.3, Fig. 7).
pub const CQS_PER_TNI: usize = 9;

/// Every lock of this file. A holder that panicked is recovered, not
/// propagated: no code runs on past a panic (DESIGN.md §9).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A remote-arrival notification (uTofu MRQ entry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Virtual time at which the payload is fully visible at the receiver.
    pub time: f64,
    /// Sender's node id.
    pub src_node: usize,
    /// Sender-chosen tag identifying the logical source (we use global rank
    /// ids); uTofu encodes this in the message descriptor.
    pub src_rank: u32,
    /// Destination region and range that was written.
    pub stadd: Stadd,
    /// Offset written within the region.
    pub offset: usize,
    /// Bytes written.
    pub len: usize,
    /// 8-byte piggyback payload embedded in the descriptor (§3.4 uses this
    /// to carry the ghost-offset without a separate buffer write).
    pub piggyback: u64,
    /// Sender-assigned sequence number of the logical message (0 on the
    /// legacy reliable path). Retransmissions reuse the sequence number of
    /// the original message, so receivers can detect duplicate delivery.
    pub seq: u64,
}

/// Fault-injection state: the active plan, the current `(step, op)`
/// context stamped on fault keys, fault totals, and per-target attempt
/// counters for `times`-gated registration/CQ faults.
struct FaultState {
    plan: FaultPlan,
    step: u64,
    op: u8,
    counters: FaultCounters,
    /// Failed registration attempts so far, per node.
    reg_failures: HashMap<usize, u32>,
    /// Rejected CQ allocations so far, per `(node, tni)`.
    cq_failures: HashMap<(usize, usize), u32>,
    /// Ranks whose kill has already been tallied in `counters.kills`.
    counted_kills: Vec<u32>,
}

impl FaultState {
    fn new() -> Self {
        FaultState {
            plan: FaultPlan::default(),
            step: 0,
            op: OP_SETUP,
            counters: FaultCounters::default(),
            reg_failures: HashMap::new(),
            cq_failures: HashMap::new(),
            counted_kills: Vec::new(),
        }
    }
}

/// What a put lands in on its destination node: the registered memory
/// and the MRQ, under one lock (see [`NodeState::landing`]).
#[derive(Default)]
struct Landing {
    mem: MemRegistry,
    /// Arrived-but-unconsumed notifications.
    mrq: Vec<Arrival>,
}

/// Per-node fabric state: one lock for what puts land in, one per TNI
/// table.
struct NodeState {
    /// Registered memory and MRQ. A put writes its landing range and
    /// queues its arrival in one critical section, so a notification is
    /// never visible before its bytes, and a put pays one lock.
    landing: Mutex<Landing>,
    /// Next-free injection time per TNI — this is where contention between
    /// ranks/threads sharing a TNI materializes.
    tni_free: Mutex<[f64; TNIS_PER_NODE]>,
    /// Allocated CQ count per TNI.
    cq_alloc: Mutex<[u8; TNIS_PER_NODE]>,
}

impl NodeState {
    fn new() -> Self {
        NodeState {
            landing: Mutex::new(Landing::default()),
            tni_free: Mutex::new([0.0; TNIS_PER_NODE]),
            cq_alloc: Mutex::new([0; TNIS_PER_NODE]),
        }
    }
}

/// One put request. `now` is the *caller's* virtual clock at the moment the
/// descriptor reaches the TNI (any CPU posting cost must be charged by the
/// caller beforehand — see `Vcq` in [`crate::rdma`]).
#[derive(Debug, Clone, Copy)]
pub struct PutRequest<'a> {
    /// Injecting node.
    pub src_node: usize,
    /// TNI the descriptor is posted to (0..6).
    pub tni: usize,
    /// Destination node.
    pub dst_node: usize,
    /// Destination registered region.
    pub dst_stadd: Stadd,
    /// Byte offset within the destination region.
    pub dst_offset: usize,
    /// Payload (may be empty for piggyback-only descriptors).
    pub data: &'a [u8],
    /// 8-byte descriptor-embedded payload.
    pub piggyback: u64,
    /// Sender-chosen logical-source tag.
    pub src_rank: u32,
    /// Sequence number stamped on the MRQ arrival (see [`Arrival::seq`]);
    /// retransmissions must reuse the original message's number.
    pub seq: u64,
    /// Caller's virtual clock when the descriptor reaches the TNI.
    pub now: f64,
    /// Use TofuD cache injection on the receive side.
    pub cache_injection: bool,
}

/// Where a put's bytes come from.
#[derive(Clone, Copy)]
pub enum PutSrc<'a> {
    /// A frame staged in ordinary memory, or nothing at all
    /// (descriptor-only piggybacks).
    Bytes(&'a [u8]),
    /// A payload of `len` bytes that `write` serializes straight into the
    /// landing range — the zero-copy wire path: the payload is written
    /// once, where the receiver reads it, and the sender's registered send
    /// region is never backed.
    ///
    /// The fabric calls `write` on the destination slice under the
    /// destination node's one lock, so `write` must not call back into
    /// the fabric. It must fill every byte of the slice it is handed, and
    /// it may be called again for a retransmission. A truncated delivery
    /// writes the whole payload into a scratch buffer and lands only the
    /// cut prefix, as a [`PutSrc::Bytes`] put of the same bytes would.
    Write {
        /// Payload length in bytes.
        len: usize,
        /// Serializes the payload into a slice of exactly `len` bytes.
        write: &'a dyn Fn(&mut [u8]),
    },
}

impl std::fmt::Debug for PutSrc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PutSrc::Bytes(data) => f.debug_tuple("Bytes").field(&data).finish(),
            PutSrc::Write { len, .. } => f.debug_struct("Write").field("len", &len).finish(),
        }
    }
}

impl PutSrc<'_> {
    /// Payload length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            PutSrc::Bytes(data) => data.len(),
            PutSrc::Write { len, .. } => len,
        }
    }

    /// True for a descriptor-only put.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Times produced by a put.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PutResult {
    /// When the sender's TNI finished injecting (TCQ local completion; the
    /// send buffer may be reused after this).
    pub local_complete: f64,
    /// When the payload is visible at the receiver.
    pub remote_arrival: f64,
}

/// The simulated TofuD machine.
pub struct TofuNet {
    grid: CellGrid,
    /// Folded-mesh coordinate of every node id, so [`TofuNet::hops`] is
    /// two loads instead of six div/mods per put.
    coords: Vec<[u32; 3]>,
    params: NetParams,
    nodes: Vec<NodeState>,
    fault: Mutex<FaultState>,
    /// True while the installed plan can produce a fault. Puts read this
    /// first and skip the cluster-wide `fault` mutex while it is clear; a
    /// non-empty plan is consulted under the mutex exactly as before.
    fault_armed: AtomicBool,
    /// Where a truncated [`PutSrc::Write`] payload is written whole before
    /// its cut prefix lands; reused, so only a fault ever grows it.
    truncated: Mutex<Vec<u8>>,
}

impl TofuNet {
    /// Build a fabric over a cell grid.
    #[must_use]
    pub fn new(grid: CellGrid, params: NetParams) -> Self {
        let n = grid.node_count();
        TofuNet {
            grid,
            coords: (0..n).map(|id| grid.mesh_of_id(id)).collect(),
            params,
            nodes: (0..n).map(|_| NodeState::new()).collect(),
            fault: Mutex::new(FaultState::new()),
            fault_armed: AtomicBool::new(false),
            truncated: Mutex::new(Vec::new()),
        }
    }

    /// Install a fault plan. The default (empty) plan makes every fault
    /// query a no-op; installing replaces any previous plan but keeps the
    /// accumulated [`FaultCounters`].
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let mut fs = lock(&self.fault);
        fs.plan = plan;
        // Release pairs with the Acquire load in `try_put_from`; a put that
        // sees the flag set then reads the plan under the mutex.
        self.fault_armed
            .store(!fs.plan.is_empty(), Ordering::Release);
    }

    /// Stamp the `(step, op)` context used on subsequent fault keys. The
    /// lockstep driver calls this at the top of every engine operation;
    /// outside operations the op is [`OP_SETUP`].
    pub fn set_fault_context(&self, step: u64, op: u8) {
        let mut fs = lock(&self.fault);
        fs.step = step;
        fs.op = op;
        if fs.plan.has_kill_rules() {
            for rank in fs.plan.dead_ranks(step) {
                if !fs.counted_kills.contains(&rank) {
                    fs.counted_kills.push(rank);
                    fs.counters.kills += 1;
                }
            }
        }
    }

    /// All ranks dead at the current fault-context step (sorted).
    #[must_use]
    pub fn dead_ranks(&self) -> Vec<u32> {
        let fs = lock(&self.fault);
        fs.plan.dead_ranks(fs.step)
    }

    /// Classify a receive shortfall on `node`: [`TofuError::PeerDead`]
    /// when a rank is dead at the current step (the missing arrivals will
    /// never come — recoverable by shrinking), else the protocol-bug
    /// [`TofuError::Deadlock`].
    #[must_use]
    pub fn shortfall_error(&self, node: usize, expected: usize, found: usize) -> TofuError {
        let fs = lock(&self.fault);
        if let Some(&rank) = fs.plan.dead_ranks(fs.step).first() {
            return TofuError::PeerDead {
                node,
                rank,
                step: fs.step,
            };
        }
        TofuError::Deadlock {
            node,
            expected,
            found,
        }
    }

    /// Totals of every fault injected so far.
    #[must_use]
    pub fn fault_counters(&self) -> FaultCounters {
        lock(&self.fault).counters
    }

    /// The cell grid (for hop computations and rank mapping).
    #[must_use]
    pub fn grid(&self) -> &CellGrid {
        &self.grid
    }

    /// The timing model in force.
    #[must_use]
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Hop count between two node ids on the folded torus.
    #[must_use]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.grid.hops(self.coords[a], self.coords[b])
    }

    /// Allocate one CQ on `(node, tni)`; errors when the TNI's 9 CQs are
    /// exhausted — or when the active fault plan transiently rejects the
    /// allocation (indistinguishable from real exhaustion to the caller,
    /// as on hardware). Returns the CQ index.
    pub fn allocate_cq(&self, node: usize, tni: usize) -> Result<usize, CqExhausted> {
        {
            let mut fs = lock(&self.fault);
            if !fs.plan.is_empty() {
                let attempt = fs.cq_failures.get(&(node, tni)).copied().unwrap_or(0);
                let key = FaultKey {
                    step: fs.step,
                    op: fs.op,
                    src: node as u32,
                    dst: node as u32,
                    tni: tni as u8,
                };
                if fs.plan.decide_cq(&key, attempt) {
                    fs.counters.cq_rejections += 1;
                    *fs.cq_failures.entry((node, tni)).or_insert(0) += 1;
                    return Err(CqExhausted { node, tni });
                }
            }
        }
        let mut alloc = lock(&self.nodes[node].cq_alloc);
        let used = &mut alloc[tni];
        if (*used as usize) >= CQS_PER_TNI {
            return Err(CqExhausted { node, tni });
        }
        *used += 1;
        Ok(usize::from(*used) - 1)
    }

    /// Return one CQ of `(node, tni)` to the pool. Capacity accounting
    /// only: indices are handed out as a bump counter, so a released index
    /// is reused only in LIFO order — sufficient for the engine lifecycle
    /// (an engine frees all its VCQs at once when it is replaced).
    pub fn release_cq(&self, node: usize, tni: usize) {
        let mut alloc = lock(&self.nodes[node].cq_alloc);
        alloc[tni] = alloc[tni].saturating_sub(1);
    }

    /// Register memory on a node; returns the handle and the modeled cost.
    pub fn register_mem(&self, node: usize, len: usize) -> (Stadd, f64) {
        lock(&self.nodes[node].landing)
            .mem
            .register(len, &self.params)
    }

    /// Register memory, consulting the fault plan first. A faulted
    /// registration consumes no region handle and accrues no registration
    /// cost or call count in the registry (the kernel refused before
    /// pinning anything) — the caller decides what the failed attempt
    /// costs and whether to retry.
    pub fn try_register_mem(&self, node: usize, len: usize) -> Result<(Stadd, f64), TofuError> {
        {
            let mut fs = lock(&self.fault);
            if !fs.plan.is_empty() {
                let attempt = fs.reg_failures.get(&node).copied().unwrap_or(0);
                let key = FaultKey {
                    step: fs.step,
                    op: fs.op,
                    src: node as u32,
                    dst: node as u32,
                    tni: 0,
                };
                if fs.plan.decide_registration(&key, attempt) {
                    fs.counters.reg_failures += 1;
                    *fs.reg_failures.entry(node).or_insert(0) += 1;
                    return Err(TofuError::RegistrationFailed { node, len });
                }
            }
        }
        Ok(self.register_mem(node, len))
    }

    /// Grow a registered region (dynamic expansion, baseline behaviour).
    pub fn grow_mem(&self, node: usize, stadd: Stadd, new_len: usize) -> f64 {
        lock(&self.nodes[node].landing)
            .mem
            .grow(stadd, new_len, &self.params)
    }

    /// Make a region at least `len` bytes long without modeling a
    /// registration (see [`MemRegistry::reserve`]): the modeled length
    /// rises, host memory follows only what is then written.
    pub fn reserve_mem(&self, node: usize, stadd: Stadd, len: usize) {
        lock(&self.nodes[node].landing).mem.reserve(stadd, len);
    }

    /// Current length of a registered region.
    #[must_use]
    pub fn mem_len(&self, node: usize, stadd: Stadd) -> usize {
        lock(&self.nodes[node].landing).mem.len(stadd)
    }

    /// Host bytes backing a registered region (see [`MemRegistry::backed`]).
    #[must_use]
    pub fn mem_backed(&self, node: usize, stadd: Stadd) -> usize {
        lock(&self.nodes[node].landing).mem.backed(stadd)
    }

    /// [`MemRegistry::registered_bytes`] summed over all nodes; modeled
    /// over backed is §3.4's over-provision factor.
    #[must_use]
    pub fn registered_bytes(&self) -> (usize, usize) {
        let per_node = self
            .nodes
            .iter()
            .map(|n| lock(&n.landing).mem.registered_bytes());
        per_node.fold((0, 0), |(m, b), (dm, db)| (m + dm, b + db))
    }

    /// Deserialize directly from one's own registered region: `f` receives
    /// the `len` bytes at `offset` under the node lock — the receive-side
    /// mirror of a [`PutSrc::Write`] put, no intermediate `Vec`.
    pub fn read_local_with<R>(
        &self,
        node: usize,
        stadd: Stadd,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        f(lock(&self.nodes[node].landing).mem.read(stadd, offset, len))
    }

    /// Registration call count on a node.
    #[must_use]
    pub fn registration_calls_of(&self, node: usize) -> u64 {
        lock(&self.nodes[node].landing).mem.reg_calls
    }

    /// [`Self::put_from`] of the bytes in `req.data`.
    pub fn put(&self, req: PutRequest<'_>) -> PutResult {
        self.put_from(&req, PutSrc::Bytes(req.data))
    }

    /// Execute an RDMA put of `src` on the reliable path (`req.data` is
    /// not read): serialize on the source TNI, write the payload once into
    /// the destination region, enqueue the MRQ notification. Never
    /// consults the fault plan — the MPI layer (with its own reliability
    /// protocol) rides on it; the faultable bare-uTofu path is
    /// [`crate::rdma::Vcq::try_post`].
    pub fn put_from(&self, req: &PutRequest<'_>, src: PutSrc<'_>) -> PutResult {
        match self.execute_put(req, src, 0, None) {
            Ok(r) => r,
            Err(_) => unreachable!("fault-free put cannot fail"),
        }
    }

    /// Execute an RDMA put of `src` (`req.data` is not read), first
    /// consulting the active fault plan for attempt `attempt` of this
    /// message. Drop and truncate faults return the corresponding
    /// [`TofuError`] (the sender observes a TCQ error code); delay and
    /// duplicate faults succeed with perturbed delivery.
    pub(crate) fn try_put_from(
        &self,
        req: &PutRequest<'_>,
        src: PutSrc<'_>,
        attempt: u32,
    ) -> Result<PutResult, TofuError> {
        if !self.fault_armed.load(Ordering::Acquire) {
            return self.execute_put(req, src, attempt, None);
        }
        let faulted = {
            let mut fs = lock(&self.fault);
            let key = FaultKey {
                step: fs.step,
                op: fs.op,
                src: req.src_rank,
                dst: req.dst_node as u32,
                tni: req.tni as u8,
            };
            let action = fs.plan.decide_put(&key, req.seq, src.len(), attempt);
            match action {
                Some(FaultAction::Drop) => fs.counters.drops += 1,
                Some(FaultAction::Delay(_)) => fs.counters.delays += 1,
                Some(FaultAction::Duplicate) => fs.counters.duplicates += 1,
                Some(FaultAction::Truncate(_)) => fs.counters.truncations += 1,
                None => {}
            }
            action.map(|a| (a, key))
        };
        self.execute_put(req, src, attempt, faulted)
    }

    fn execute_put(
        &self,
        req: &PutRequest<'_>,
        src: PutSrc<'_>,
        attempt: u32,
        fault: Option<(FaultAction, FaultKey)>,
    ) -> Result<PutResult, TofuError> {
        assert!(req.tni < TNIS_PER_NODE, "TNI index out of range");
        let posted = src.len();
        // A truncated put still occupies the TNI for the full descriptor
        // but delivers only the cut prefix.
        let bytes = match fault {
            Some((FaultAction::Truncate(cut), _)) => cut.min(posted),
            _ => posted,
        };
        // Injection serialization on the source TNI — charged even for a
        // dropped put (the descriptor was injected; delivery failed).
        let inject_start = {
            let mut free = lock(&self.nodes[req.src_node].tni_free);
            let start = free[req.tni].max(req.now);
            free[req.tni] = start + self.params.tni_occupancy(posted);
            start
        };
        let local_complete = inject_start + self.params.tni_occupancy(posted);
        if let Some((FaultAction::Drop, key)) = fault {
            return Err(TofuError::PutDropped {
                key,
                seq: req.seq,
                attempt,
            });
        }
        let hops = self.hops(req.src_node, req.dst_node);
        let mut remote_arrival = inject_start + self.params.wire_time(posted, hops);
        if req.cache_injection {
            remote_arrival -= self.params.cache_injection_saving;
        }
        if let Some((FaultAction::Delay(dt), _)) = fault {
            remote_arrival += dt;
        }
        // A truncated write is serialized whole before the node is locked.
        let whole = match src {
            PutSrc::Write { write, .. } if bytes > 0 && bytes < posted => {
                let mut whole = lock(&self.truncated);
                whole.clear();
                whole.resize(posted, 0);
                write(&mut whole);
                Some(whole)
            }
            _ => None,
        };
        let arrival = Arrival {
            time: remote_arrival,
            src_node: req.src_node,
            src_rank: req.src_rank,
            stadd: req.dst_stadd,
            offset: req.dst_offset,
            len: bytes,
            piggyback: req.piggyback,
            seq: req.seq,
        };
        {
            // Move the real bytes once, into the landing range, and queue
            // their arrival under the same lock.
            let dst = &mut *lock(&self.nodes[req.dst_node].landing);
            let (stadd, offset) = (req.dst_stadd, req.dst_offset);
            match (src, &whole) {
                _ if bytes == 0 => {}
                (_, Some(whole)) => dst.mem.write(stadd, offset, &whole[..bytes]),
                (PutSrc::Bytes(data), None) => dst.mem.write(stadd, offset, &data[..bytes]),
                (PutSrc::Write { write, .. }, None) => {
                    dst.mem.write_with(stadd, offset, bytes, write);
                }
            }
            dst.mrq.push(arrival);
            if matches!(fault, Some((FaultAction::Duplicate, _))) {
                dst.mrq.push(arrival);
            }
        }
        if let Some((FaultAction::Truncate(_), key)) = fault {
            return Err(TofuError::PutTruncated {
                key,
                seq: req.seq,
                attempt,
                delivered: bytes,
                expected: posted,
            });
        }
        Ok(PutResult {
            local_complete,
            remote_arrival,
        })
    }

    /// Take *all* currently queued arrivals on `node` that match `pred`.
    /// (In the lockstep driver, all sends of a stage precede all receives,
    /// so everything a stage expects is already queued.)
    pub fn take_arrivals(&self, node: usize, pred: impl FnMut(&Arrival) -> bool) -> Vec<Arrival> {
        let mut taken = Vec::new();
        self.take_arrivals_into(node, pred, &mut taken);
        taken
    }

    /// [`Self::take_arrivals`] appending to a caller-owned (reusable)
    /// vector, so a steady-state receive allocates nothing.
    pub fn take_arrivals_into(
        &self,
        node: usize,
        mut pred: impl FnMut(&Arrival) -> bool,
        taken: &mut Vec<Arrival>,
    ) {
        let mrq = &mut lock(&self.nodes[node].landing).mrq;
        let mut i = 0;
        while i < mrq.len() {
            if pred(&mrq[i]) {
                taken.push(mrq.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Take the first queued arrival on `node` that matches `pred`, and say
    /// whether another match is still queued after it — for a receive that
    /// expects exactly one. Allocates nothing.
    pub fn take_first_arrival(
        &self,
        node: usize,
        mut pred: impl FnMut(&Arrival) -> bool,
    ) -> (Option<Arrival>, bool) {
        let mrq = &mut lock(&self.nodes[node].landing).mrq;
        let Some(i) = mrq.iter().position(&mut pred) else {
            return (None, false);
        };
        // Everything after `i` — the swapped-in last entry included — is
        // what followed the taken one.
        let taken = mrq.swap_remove(i);
        let more = mrq[i..].iter().any(pred);
        (Some(taken), more)
    }

    /// Number of queued (undelivered) notifications on a node.
    #[must_use]
    pub fn pending_arrivals(&self, node: usize) -> usize {
        lock(&self.nodes[node].landing).mrq.len()
    }

    /// Reset all TNI injection clocks (between benchmark repetitions).
    pub fn reset_clocks(&self) {
        for n in &self.nodes {
            *lock(&n.tni_free) = [0.0; TNIS_PER_NODE];
        }
    }
}

/// Error: a TNI's 9 control queues are all allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CqExhausted {
    /// Node whose TNI ran out of CQs.
    pub node: usize,
    /// The exhausted TNI.
    pub tni: usize,
}

impl std::fmt::Display for CqExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {CQS_PER_TNI} CQs of TNI {} on node {} are allocated",
            self.tni, self.node
        )
    }
}

impl std::error::Error for CqExhausted {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CellGrid;

    fn small_net() -> TofuNet {
        TofuNet::new(CellGrid::new([2, 2, 2]), NetParams::default())
    }

    #[test]
    fn put_moves_bytes_and_notifies() {
        let net = small_net();
        let (dst, _) = net.register_mem(1, 64);
        let r = net.put(PutRequest {
            src_node: 0,
            tni: 0,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: 8,
            data: &[5, 6, 7],
            piggyback: 42,
            src_rank: 0,
            seq: 0,
            now: 0.0,
            cache_injection: false,
        });
        assert!(r.remote_arrival > 0.0);
        assert!(r.local_complete <= r.remote_arrival);
        net.read_local_with(1, dst, 8, 3, |b| assert_eq!(b, [5, 6, 7]));
        let a = net.take_arrivals(1, |_| true);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].piggyback, 42);
        assert_eq!(net.pending_arrivals(1), 0);
    }

    #[test]
    fn tni_serializes_injections() {
        let net = small_net();
        let (dst, _) = net.register_mem(1, 1 << 21);
        let big = vec![0u8; 1 << 20];
        let mk = |off| PutRequest {
            src_node: 0,
            tni: 2,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: off,
            data: &big,
            piggyback: 0,
            src_rank: 0,
            seq: 0,
            now: 0.0,
            cache_injection: false,
        };
        let r1 = net.put(mk(0));
        let r2 = net.put(mk(1 << 20));
        // Second message cannot start injecting before the first finished.
        assert!(
            r2.remote_arrival >= r1.local_complete,
            "no TNI pipelining of full-size messages"
        );
    }

    #[test]
    fn different_tnis_inject_in_parallel() {
        let net = small_net();
        let (dst, _) = net.register_mem(1, 2 << 20);
        let big = vec![0u8; 1 << 20];
        let mk = |tni, off| PutRequest {
            src_node: 0,
            tni,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: off,
            data: &big,
            piggyback: 0,
            src_rank: 0,
            seq: 0,
            now: 0.0,
            cache_injection: false,
        };
        let r1 = net.put(mk(0, 0));
        let r2 = net.put(mk(1, 1 << 20));
        // Same start time: same arrival (the 6-TNI parallelism of §2.2).
        assert!((r1.remote_arrival - r2.remote_arrival).abs() < 1e-12);
    }

    #[test]
    fn farther_nodes_take_longer() {
        let net = small_net(); // mesh 4 x 6 x 4
        let (d1, _) = net.register_mem(1, 8);
        let far = net.node_count() / 2 + 1;
        let (d2, _) = net.register_mem(far, 8);
        let mk = |dst_node, stadd, tni| PutRequest {
            src_node: 0,
            tni,
            dst_node,
            dst_stadd: stadd,
            dst_offset: 0,
            data: &[1],
            piggyback: 0,
            src_rank: 0,
            seq: 0,
            now: 0.0,
            cache_injection: false,
        };
        let near = net.put(mk(1, d1, 0));
        let farr = net.put(mk(far, d2, 1));
        assert!(farr.remote_arrival > near.remote_arrival);
    }

    #[test]
    fn hop_table_agrees_with_the_grid() {
        let net = small_net();
        let g = *net.grid();
        for a in 0..net.node_count() {
            for b in 0..net.node_count() {
                assert_eq!(net.hops(a, b), g.hops(g.mesh_of_id(a), g.mesh_of_id(b)));
            }
        }
    }

    #[test]
    fn plan_installed_late_is_consulted_and_an_empty_one_disarms() {
        use crate::fault::{FaultKind, FaultRule};
        let net = small_net();
        let (dst, _) = net.register_mem(1, 8);
        let req = |seq| PutRequest {
            src_node: 0,
            tni: 0,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: 0,
            data: &[],
            piggyback: 0,
            src_rank: 0,
            seq,
            now: 0.0,
            cache_injection: false,
        };
        // Hot fault-free fast path first.
        for seq in 0..4 {
            net.try_put_from(&req(seq), PutSrc::Bytes(&[1]), 0).unwrap();
        }
        net.set_fault_plan(
            FaultPlan::new().with_rule(FaultRule::any(FaultKind::Drop { times: 1 })),
        );
        assert!(matches!(
            net.try_put_from(&req(4), PutSrc::Bytes(&[1]), 0),
            Err(TofuError::PutDropped { seq: 4, .. })
        ));
        net.try_put_from(&req(4), PutSrc::Bytes(&[1]), 1).unwrap();
        net.set_fault_plan(FaultPlan::default());
        net.try_put_from(&req(5), PutSrc::Bytes(&[1]), 0).unwrap();
        assert_eq!(net.fault_counters().drops, 1, "counters survive re-install");
    }

    #[test]
    fn cq_allocation_exhausts_at_nine() {
        let net = small_net();
        for i in 0..CQS_PER_TNI {
            assert_eq!(net.allocate_cq(0, 0).unwrap(), i);
        }
        assert!(net.allocate_cq(0, 0).is_err());
        // Other TNIs unaffected.
        assert_eq!(net.allocate_cq(0, 1).unwrap(), 0);
    }

    #[test]
    fn cache_injection_reduces_latency() {
        let net = small_net();
        let (dst, _) = net.register_mem(1, 16);
        let mk = |ci, tni| PutRequest {
            src_node: 0,
            tni,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: 0,
            data: &[1, 2],
            piggyback: 0,
            src_rank: 0,
            seq: 0,
            now: 0.0,
            cache_injection: ci,
        };
        let plain = net.put(mk(false, 0));
        let ci = net.put(mk(true, 1));
        assert!(ci.remote_arrival < plain.remote_arrival);
    }

    #[test]
    fn piggyback_only_put_carries_no_bytes() {
        let net = small_net();
        let (dst, _) = net.register_mem(1, 8);
        net.put(PutRequest {
            src_node: 0,
            tni: 0,
            dst_node: 1,
            dst_stadd: dst,
            dst_offset: 0,
            data: &[],
            piggyback: 0xDEAD_BEEF,
            src_rank: 3,
            seq: 0,
            now: 0.0,
            cache_injection: false,
        });
        net.read_local_with(1, dst, 0, 8, |b| assert_eq!(b, [0; 8]));
        let a = net.take_arrivals(1, |a| a.src_rank == 3);
        assert_eq!(a[0].piggyback, 0xDEAD_BEEF);
        assert_eq!(a[0].len, 0);
    }
}
