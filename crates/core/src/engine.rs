//! The ghost-communication engine abstraction.
//!
//! A [`GhostEngine`] realizes one of the paper's communication designs
//! (MPI 3-stage, MPI p2p, uTofu 3-stage, uTofu p2p over 4 or 6 TNIs,
//! thread-pool parallel p2p). Engines are driven in lockstep by
//! `tofumd-runtime`: every rank first `post`s its sends for a round, then
//! every rank `complete`s its receives — mirroring a bulk-synchronous MD
//! timestep while letting virtual time flow through the simulated fabric.
//! What a message carries is not the engine's choice: every payload of
//! every op streams from the rank's [`crate::ghost::GhostLayout`], and
//! the engine only decides how its bytes travel.

use crate::sf::CommGraph;
use serde::{Deserialize, Serialize};
use tofumd_md::atom::Atoms;
use tofumd_tofu::TofuError;

/// A ghost-communication operation within a timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Establish ghost atoms (tags + positions); runs after exchange on
    /// reneighbor steps.
    Border,
    /// Refresh ghost positions (every step).
    Forward,
    /// Fold ghost forces back to their owners (Newton on).
    Reverse,
    /// EAM mid-pair-stage: send local scalars (F') to ghosts.
    ForwardScalar,
    /// EAM mid-pair-stage: fold ghost scalars (rho) back to owners.
    ReverseScalar,
    /// Atom migration on reneighbor steps: three staged sweeps moving
    /// out-of-bounds atoms (with velocities) to the face neighbors, exactly
    /// as LAMMPS's exchange works for every communication pattern.
    Exchange,
}

/// Number of distinct [`Op`] kinds.
pub const N_OPS: usize = 6;

impl Op {
    /// Every op kind in display order: migration first, then the
    /// ghost-side ops, the owner-side fold, and EAM's scalar pair.
    pub const ALL: [Op; N_OPS] = [
        Op::Exchange,
        Op::Border,
        Op::Forward,
        Op::Reverse,
        Op::ForwardScalar,
        Op::ReverseScalar,
    ];

    /// Dense index of this op into [`Op::ALL`]-ordered tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Op::Exchange => 0,
            Op::Border => 1,
            Op::Forward => 2,
            Op::Reverse => 3,
            Op::ForwardScalar => 4,
            Op::ReverseScalar => 5,
        }
    }

    /// Short lower-case label for report rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Op::Exchange => "exchange",
            Op::Border => "border",
            Op::Forward => "forward",
            Op::Reverse => "reverse",
            Op::ForwardScalar => "fwd-scalar",
            Op::ReverseScalar => "rev-scalar",
        }
    }

    /// Which way this op's payloads flow along a halo edge. `true`: root →
    /// leaf, out along `send` edges into the peer's ghost-side buffers
    /// (border and the forward family). `false`: leaf → root, out along
    /// `recv` edges into the peer's owner-side buffers — the reverse
    /// family, and migration, which hands atoms to their new owners.
    #[must_use]
    pub fn toward_ghosts(self) -> bool {
        matches!(self, Op::Border | Op::Forward | Op::ForwardScalar)
    }

    /// Split the ops by what their selection step does before the post.
    /// Border fills the ghost layout's send lists and Exchange fills them
    /// with the emigrants it parks; the four repeated ops select nothing
    /// and gather/scatter over the layout Border filled. Every payload then
    /// streams from the layout ([`crate::ghost::Payload`]).
    #[must_use]
    pub fn kind(self) -> OpKind {
        match self {
            Op::Border => OpKind::Border,
            Op::Exchange => OpKind::Exchange,
            Op::Forward => OpKind::Ghost(GhostOp::Forward),
            Op::Reverse => OpKind::Ghost(GhostOp::Reverse),
            Op::ForwardScalar => OpKind::Ghost(GhostOp::ForwardScalar),
            Op::ReverseScalar => OpKind::Ghost(GhostOp::ReverseScalar),
        }
    }
}

/// [`Op`] grouped the way every engine dispatches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Build the send lists and establish ghosts.
    Border,
    /// Migrate atoms between owners.
    Exchange,
    /// One of the four repeated ghost ops.
    Ghost(GhostOp),
}

/// The repeated ghost operations as `unit × direction` over the
/// [`crate::ghost::GhostLayout`]: a bcast (owner → ghost, overwrite) or a
/// reduce (ghost → owner, `+=`) of 3-vectors or scalars — PetscSF's
/// `Bcast`/`Reduce(unit, op)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostOp {
    /// Bcast positions (`+shift` across periodic boundaries).
    Forward,
    /// Reduce forces.
    Reverse,
    /// Bcast the EAM scalar (F').
    ForwardScalar,
    /// Reduce the EAM scalar (rho).
    ReverseScalar,
}

impl GhostOp {
    /// Values per atom: 3 for the vector ops, 1 for the scalar ops.
    #[must_use]
    pub fn unit(self) -> usize {
        match self {
            GhostOp::Forward | GhostOp::Reverse => 3,
            GhostOp::ForwardScalar | GhostOp::ReverseScalar => 1,
        }
    }

    /// True for the bcasts (see [`Op::toward_ghosts`]).
    #[must_use]
    pub fn toward_ghosts(self) -> bool {
        matches!(self, GhostOp::Forward | GhostOp::ForwardScalar)
    }
}

/// Live communication counters (the in-vivo counterpart of Table 1's
/// `total_msg` and `total_atom` columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Messages posted (payload puts; piggyback-only descriptors excluded).
    pub messages: u64,
    /// Payload bytes posted (framing included where the transport frames).
    pub bytes: u64,
    /// Largest single message observed (bytes).
    pub max_msg_bytes: u64,
    /// Dynamic buffer-growth events (§3.4 re-registration handshakes).
    pub growth_events: u64,
    /// Put retransmissions after a transport error (each also charged
    /// backoff on the virtual clock).
    pub retries: u64,
    /// Messages handed to the reliable stack after the retry budget was
    /// exhausted (each one requests engine fallback).
    pub fallback_sends: u64,
    /// Duplicate deliveries detected and discarded on receive.
    pub dup_drops: u64,
    /// Receive-buffer overwrites detected (a newer sequence landed on an
    /// unconsumed round-robin slot).
    pub overwrites: u64,
    /// Send-side staging bytes: payload bytes that passed through an
    /// intermediate CPU copy before reaching the transport. The zero-copy
    /// wire path serializes straight into a registered region and counts
    /// nothing here — the acceptance signal that the copy is really gone.
    #[serde(default)]
    pub bytes_copied: u64,
}

impl CommStats {
    /// Count one message of `bytes` bytes.
    pub fn count(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
        self.max_msg_bytes = self.max_msg_bytes.max(bytes as u64);
    }

    /// Count `bytes` staged through an intermediate send-side copy.
    pub fn copied(&mut self, bytes: usize) {
        self.bytes_copied += bytes as u64;
    }

    /// Transport-anomaly total: everything that is not plain traffic.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.fallback_sends + self.dup_drops + self.overwrites
    }

    /// Fold another counter set into this one (messages and bytes add,
    /// the max-message watermark takes the larger side).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.max_msg_bytes = self.max_msg_bytes.max(other.max_msg_bytes);
        self.growth_events += other.growth_events;
        self.retries += other.retries;
        self.fallback_sends += other.fallback_sends;
        self.dup_drops += other.dup_drops;
        self.overwrites += other.overwrites;
        self.bytes_copied += other.bytes_copied;
    }

    /// Counter-wise difference against an earlier reading of the same
    /// monotone counters (`max_msg_bytes` is a watermark and carries over).
    #[must_use]
    pub fn since(&self, earlier: &CommStats) -> CommStats {
        CommStats {
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
            max_msg_bytes: self.max_msg_bytes,
            growth_events: self.growth_events - earlier.growth_events,
            retries: self.retries - earlier.retries,
            fallback_sends: self.fallback_sends - earlier.fallback_sends,
            dup_drops: self.dup_drops - earlier.dup_drops,
            overwrites: self.overwrites - earlier.overwrites,
            bytes_copied: self.bytes_copied - earlier.bytes_copied,
        }
    }
}

/// [`CommStats`] resolved along the two axes the lockstep driver iterates:
/// operation kind and round within the operation. Engines count into
/// [`RankState::stats`]; the runtime aggregates it across ranks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpStats {
    /// `rounds[op.index()][round]`, grown on first use per round.
    rounds: [Vec<CommStats>; N_OPS],
}

impl OpStats {
    /// The counters of `(op, round)`, where an engine records what that
    /// round sent, grew, retried and dropped.
    pub fn at(&mut self, op: Op, round: usize) -> &mut CommStats {
        let v = &mut self.rounds[op.index()];
        if v.len() <= round {
            v.resize(round + 1, CommStats::default());
        }
        &mut v[round]
    }

    /// Per-round counters recorded for `op` (may be empty).
    #[must_use]
    pub fn rounds_of(&self, op: Op) -> &[CommStats] {
        &self.rounds[op.index()]
    }

    /// All rounds of `op` folded together.
    #[must_use]
    pub fn op_total(&self, op: Op) -> CommStats {
        let mut total = CommStats::default();
        for s in &self.rounds[op.index()] {
            total.merge(s);
        }
        total
    }

    /// Everything folded together (the legacy flat [`CommStats`] view).
    #[must_use]
    pub fn total(&self) -> CommStats {
        let mut total = CommStats::default();
        for op in Op::ALL {
            total.merge(&self.op_total(op));
        }
        total
    }

    /// Fold another rank's counters into this one, round by round.
    pub fn merge(&mut self, other: &OpStats) {
        for op in Op::ALL {
            for (round, s) in other.rounds_of(op).iter().enumerate() {
                self.at(op, round).merge(s);
            }
        }
    }

    /// Per-(op, round) difference against an earlier reading.
    #[must_use]
    pub fn since(&self, earlier: &OpStats) -> OpStats {
        let mut out = OpStats::default();
        for op in Op::ALL {
            let before = earlier.rounds_of(op);
            for (round, s) in self.rounds_of(op).iter().enumerate() {
                let b = before.get(round).copied().unwrap_or_default();
                *out.at(op, round) = s.since(&b);
            }
        }
        out
    }
}

/// The coordinate an owner-directed Exchange
/// ([`crate::ghost::GhostLayout::select_exchange`]) routes migrants by: the
/// periodic wrap of `x` into the global box, nudged one ulp off the upper
/// face when the wrap rounds onto it (the half-open boxes exclude their
/// `hi` face — see `GhostLayout::sweep_exchange` for the rounding hazard).
/// The mid-run rebalance uses the same function to predict destinations,
/// so its migrate peer lists agree bit-for-bit with what the exchange
/// actually routes.
#[must_use]
pub fn wrap_for_exchange(global: &tofumd_md::region::Box3, x: [f64; 3]) -> [f64; 3] {
    let (mut w, _) = global.wrap(x);
    for d in 0..3 {
        if w[d] >= global.hi[d] {
            w[d] = global.hi[d].next_down();
        }
    }
    w
}

/// Where a rank's virtual time went: LAMMPS's five stages (Table 3), EAM's
/// mid-pair comm, and the comm time the overlap windows hid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// Pair-stage compute time.
    pub pair: f64,
    /// EAM's scalar-op comm, counted into the Pair stage (the paper's way).
    pub pair_comm: f64,
    /// Neighbor-rebuild time.
    pub neigh: f64,
    /// Ghost communication: border, forward, reverse and exchange.
    pub comm: f64,
    /// Integration (Modify) time.
    pub modify: f64,
    /// Collectives and bookkeeping (Other) time.
    pub other: f64,
    /// Comm time hidden behind interior compute: wait the rank never
    /// incurred, so it enters no stage sum.
    pub overlapped: f64,
}

/// Per-rank simulation-side state an engine operates on, and the rank's
/// one ledger: clock, stage times and comm counters. It outlives any
/// engine, so an engine swap (demotion, recovery) keeps the history.
#[derive(Debug)]
pub struct RankState {
    /// The rank's atoms (locals + ghosts).
    pub atoms: Atoms,
    /// The rank's star-forest communication graph.
    pub graph: CommGraph,
    /// Virtual clock (seconds of simulated Fugaku time).
    pub clock: f64,
    /// The clock's time by stage (Table 3 breakdown).
    pub stages: StageTimes,
    /// Message counters per `(op, round)`, from whichever engine ran.
    pub stats: OpStats,
    /// Scalar work buffer for EAM (rho or fp), len == atoms.ntotal().
    pub scalar: Vec<f64>,
    /// Latest raw payload-arrival instant folded in by the engine's
    /// complete path (`NEG_INFINITY` when nothing arrived since the last
    /// reset). The DAG executor reads this to credit overlap: wait charged
    /// against an arrival that lands before interior compute finishes was
    /// hidden, not paid.
    pub arrival_horizon: f64,
}

impl RankState {
    /// Fresh state with a zero clock.
    #[must_use]
    pub fn new(atoms: Atoms, graph: CommGraph) -> Self {
        RankState {
            atoms,
            graph,
            clock: 0.0,
            stages: StageTimes::default(),
            stats: OpStats::default(),
            scalar: Vec::new(),
            arrival_horizon: f64::NEG_INFINITY,
        }
    }

    /// Charge `dt` of virtual time to the clock and `op`'s comm bucket
    /// (`pair_comm` for EAM's scalar ops).
    pub fn charge(&mut self, dt: f64, op: Op) {
        self.clock += dt;
        match op {
            Op::ForwardScalar | Op::ReverseScalar => self.stages.pair_comm += dt,
            _ => self.stages.comm += dt,
        }
    }
}

/// One of the paper's communication designs, driven in lockstep rounds.
pub trait GhostEngine: Send {
    /// How many post/complete rounds `op` takes (p2p: 1; 3-stage: 3).
    fn rounds(&self, op: Op) -> usize;

    /// Whether the driver must globally synchronize clocks between rounds
    /// (the 3-stage pattern's mandatory MPI barrier, §3.1).
    fn barrier_between_rounds(&self) -> bool {
        false
    }

    /// Pack and send this rank's messages for `(op, round)`.
    ///
    /// An `Err` is a transport failure the engine could not absorb through
    /// its own recovery (retry, reliable-stack escape) — the driver treats
    /// it as fatal for the run. Recoverable faults are handled internally
    /// and only surface through `st.stats` and [`Self::fallback_requested`].
    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError>;

    /// Receive and unpack this rank's messages for `(op, round)`.
    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError>;

    /// Setup-stage modeled cost already paid (memory registrations, buffer
    /// pre-sizing): reported separately, not charged to step time.
    fn setup_cost(&self) -> f64 {
        0.0
    }

    /// True once the engine has exhausted a retry budget and wants the
    /// driver to demote the whole cluster to a reliable transport at the
    /// next safe point (end of step). Sticky once set.
    fn fallback_requested(&self) -> bool {
        false
    }

    /// Drop any caches keyed off `st.graph` — the driver calls this after
    /// swapping the rank's graph during a mid-run rebalance, before the
    /// next communication op runs. Engines whose per-edge state is rebuilt
    /// each Border (or who keep none) use the default no-op.
    fn rebind_graph(&mut self, _st: &RankState) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sf::PlanConfig;
    use crate::topo_map::{Placement, RankMap};
    use tofumd_md::region::Box3;
    use tofumd_tofu::CellGrid;

    fn state() -> RankState {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([80.0, 240.0, 160.0]);
        RankState::new(
            Atoms::from_positions(vec![[1.0; 3]], 1),
            CommGraph::grid(0, &map, &global, 2.8, PlanConfig::NEWTON),
        )
    }

    #[test]
    fn charge_routes_to_stage_buckets() {
        let mut st = state();
        st.charge(1.0, Op::Forward);
        st.charge(2.0, Op::ReverseScalar);
        st.charge(4.0, Op::Border);
        assert_eq!(st.clock, 7.0);
        assert_eq!(st.stages.comm, 5.0);
        assert_eq!(st.stages.pair_comm, 2.0);
    }

    #[test]
    fn op_indices_are_dense_and_labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert!(seen.insert(op.label()), "duplicate label {}", op.label());
        }
    }

    #[test]
    fn op_stats_accumulate_and_fold() {
        let mut s = OpStats::default();
        s.at(Op::Forward, 0).count(100);
        s.at(Op::Forward, 0).count(300);
        s.at(Op::Exchange, 2).count(50);
        s.at(Op::Border, 1).growth_events += 1;
        s.at(Op::Forward, 0).copied(400);
        assert_eq!(s.op_total(Op::Forward).messages, 2);
        assert_eq!(s.op_total(Op::Forward).bytes_copied, 400);
        assert_eq!(
            s.op_total(Op::Reverse).bytes_copied,
            0,
            "zero-copy ops stay at zero"
        );
        assert_eq!(s.op_total(Op::Forward).max_msg_bytes, 300);
        assert_eq!(s.rounds_of(Op::Exchange).len(), 3);
        assert_eq!(s.rounds_of(Op::Exchange)[2].bytes, 50);
        let t = s.total();
        assert_eq!(t.messages, 3);
        assert_eq!(t.bytes, 450);
        assert_eq!(t.growth_events, 1);
        let mut m = OpStats::default();
        m.merge(&s);
        m.merge(&s);
        assert_eq!(m.total().bytes, 900);
        let d = m.since(&s);
        assert_eq!(d.total().bytes, 450);
        assert_eq!(d.op_total(Op::Forward).messages, 2);
    }
}
