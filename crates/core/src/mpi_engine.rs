//! Ghost engines over the MPI transport: the LAMMPS baseline 3-stage
//! pattern ("ref") and the naive MPI p2p pattern that §3.2 shows is
//! *slower* than the baseline because of MPI's per-message software cost.

use crate::engine::{GhostEngine, Op, OpKind, OpStats, RankState};
use crate::ghost::{staged_faces, staged_shifts, staged_sweep, GhostLayout, Payload};
use crate::sf::{CommGraph, GraphEdge, SendSelector};
use crate::wire;
use std::sync::Arc;
use tofumd_mpi::Communicator;
use tofumd_tofu::TofuError;

fn op_base(op: Op) -> u32 {
    match op {
        Op::Border => 1,
        Op::Forward => 2,
        Op::Reverse => 3,
        Op::ForwardScalar => 4,
        Op::ReverseScalar => 5,
        Op::Exchange => 6,
    }
}

/// Tag for a staged (3-stage) message: op, sweep dimension, direction sent.
fn staged_tag(op: Op, dim: usize, dir: usize) -> u32 {
    op_base(op) * 64 + (dim as u32) * 2 + dir as u32
}

/// Tag for a p2p message: op and the *receiver's* edge index (a sender
/// tags with its edge's `peer_index`; on grid graphs the two coincide).
fn p2p_tag(op: Op, link: usize) -> u32 {
    op_base(op) * 1024 + link as u32
}

/// One outgoing message: destination rank, tag, payload.
type Msg<'a> = (usize, u32, Payload<'a>);

/// What both MPI engines share: the rank's endpoint, its ghost layout and
/// its counters, with the one send loop and the one receive loop every
/// `(op, round)` goes through.
struct MpiLane {
    comm: Arc<Communicator>,
    me: usize,
    ghosts: GhostLayout,
    stats: OpStats,
}

impl MpiLane {
    fn new(comm: Arc<Communicator>, me: usize) -> Self {
        MpiLane {
            comm,
            me,
            ghosts: GhostLayout::default(),
            stats: OpStats::default(),
        }
    }

    /// Send one round's messages `(destination rank, tag, payload)`. MPI
    /// copies every payload into its send buffer: the pack cost of the
    /// whole round is charged up front and every byte counts as staged.
    /// The values stream through the [`wire::F64Sink`] straight into the
    /// bytes handed to [`Communicator::send`].
    fn send(&mut self, st: &mut RankState, op: Op, round: usize, msgs: &[Msg<'_>]) {
        let p = *self.comm.net().params();
        let f64s: usize = msgs.iter().map(|m| m.2.len(&self.ghosts)).sum();
        let mut now = st.clock + p.pack_cost(f64s * 8);
        let mut bytes: Vec<u8> = Vec::with_capacity(f64s * 8);
        for &(dst, tag, payload) in msgs {
            bytes.clear();
            payload.write(&self.ghosts, st, &mut bytes);
            self.stats.count(op, round, bytes.len());
            self.stats.copied(op, round, bytes.len());
            self.comm.send(self.me, dst, tag, &bytes, &mut now);
        }
        st.charge(now - st.clock, op);
    }

    /// Receive one round's messages `(source rank, tag)` in order and
    /// return their payloads. A shortfall (dead peer / protocol bug)
    /// surfaces as the typed error; the clock is still charged for the
    /// messages that did arrive.
    fn recv(
        &self,
        st: &mut RankState,
        op: Op,
        from: impl IntoIterator<Item = (usize, u32)>,
    ) -> Result<Vec<Vec<f64>>, TofuError> {
        let mut out = Vec::new();
        let mut now = st.clock;
        for (src, tag) in from {
            let m = match self.comm.try_recv(self.me, src, tag, now) {
                Ok(m) => m,
                Err(e) => {
                    st.charge(now - st.clock, op);
                    return Err(e);
                }
            };
            now = m.now;
            st.arrival_horizon = st.arrival_horizon.max(m.arrival);
            out.push(wire::decode_f64s(&m.data));
        }
        st.charge(now - st.clock, op);
        Ok(out)
    }
}

/// The LAMMPS default: 6-message staged exchange over MPI.
pub struct MpiThreeStage {
    lane: MpiLane,
    links: [[GraphEdge; 2]; 3],
    /// Swaps per dimension (the plan's shell count; 1 in the common case).
    shells: usize,
}

impl MpiThreeStage {
    /// Build the engine for the rank that owns `graph` (a grid graph): it
    /// sweeps the graph's six face links, the plan's shell count of swaps
    /// per dimension.
    #[must_use]
    pub fn new(comm: Arc<Communicator>, graph: &CommGraph) -> Self {
        let (links, shells) = staged_faces(graph);
        MpiThreeStage {
            lane: MpiLane::new(comm, graph.me),
            links,
            shells,
        }
    }
}

impl GhostEngine for MpiThreeStage {
    fn rounds(&self, op: Op) -> usize {
        // Every ghost op sweeps the three dimensions `shells` times.
        // Whether Reverse runs at all (Newton on/off) is the driver's
        // decision, not the engine's. Migration stays one swap per
        // dimension (atoms move less than a sub-box between rebuilds).
        if op == Op::Exchange {
            3
        } else {
            3 * self.shells
        }
    }

    fn barrier_between_rounds(&self) -> bool {
        true
    }

    fn op_stats(&self) -> OpStats {
        self.lane.stats.clone()
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (sweep, dim) = staged_sweep(op, round, self.shells);
        let ghosts = &mut self.lane.ghosts;
        let packed;
        let payloads = match op.kind() {
            OpKind::Ghost(g) => [0, 1].map(|dir| Payload::Ghost(g, sweep * 2 + dir)),
            OpKind::Border => {
                if round == 0 {
                    ghosts.reset(&mut st.atoms, staged_shifts(&self.links, self.shells));
                }
                packed = ghosts.sweep_border(st, sweep, self.shells);
                [Payload::Packed(&packed[0]), Payload::Packed(&packed[1])]
            }
            OpKind::Exchange => {
                packed = st.pack_exchange(dim);
                [Payload::Packed(&packed[0]), Payload::Packed(&packed[1])]
            }
        };
        let msgs = [0, 1].map(|dir| {
            let dst = self.links[dim][dir].rank;
            (dst, staged_tag(op, dim, dir), payloads[dir])
        });
        self.lane.send(st, op, round, &msgs);
        Ok(())
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let (sweep, dim) = staged_sweep(op, round, self.shells);
        // The message from `links[dim][dir]` was tagged by its sender with
        // the direction it travelled, `1 - dir`.
        let from = [0, 1].map(|dir| (self.links[dim][dir].rank, staged_tag(op, dim, 1 - dir)));
        let payloads = self.lane.recv(st, op, from)?;
        for (dir, values) in payloads.iter().enumerate() {
            match op.kind() {
                OpKind::Border => self.lane.ghosts.append_ghosts(st, sweep * 2 + dir, values),
                OpKind::Exchange => st.unpack_exchange(values),
                OpKind::Ghost(g) => {
                    self.lane
                        .ghosts
                        .unpack(g, sweep * 2 + dir, st, values.as_slice())
                }
            }
        }
        // EAM scalar buffers must track the growing ghost tail.
        if op == Op::Border {
            st.scalar.resize(st.atoms.ntotal(), 0.0);
        }
        Ok(())
    }
}

/// Naive peer-to-peer over MPI: direct exchange with every graph neighbor.
/// The only engine that also speaks *irregular* graphs (RCB): ghost ops
/// walk the edge lists either way, and migration switches from the three
/// staged face sweeps to one owner-directed round.
pub struct MpiP2p {
    lane: MpiLane,
    sel: Option<SendSelector>,
    migrate_rounds: usize,
}

impl MpiP2p {
    /// Build the engine for one rank of a grid graph (the selector is
    /// created lazily from the graph carried by the first `RankState`).
    #[must_use]
    pub fn new(comm: Arc<Communicator>, rank: usize) -> Self {
        MpiP2p {
            lane: MpiLane::new(comm, rank),
            sel: None,
            migrate_rounds: 3,
        }
    }

    /// Build the engine for one rank of an irregular graph (single-round
    /// owner-directed migration).
    #[must_use]
    pub fn new_irregular(comm: Arc<Communicator>, rank: usize) -> Self {
        MpiP2p {
            migrate_rounds: 1,
            ..Self::new(comm, rank)
        }
    }
}

impl GhostEngine for MpiP2p {
    fn rounds(&self, op: Op) -> usize {
        // Grid graphs migrate by sweeping the three dimensions even under
        // p2p ghosts; irregular graphs migrate owner-directed in one round.
        if op == Op::Exchange {
            self.migrate_rounds
        } else {
            1
        }
    }

    fn op_stats(&self) -> OpStats {
        self.lane.stats.clone()
    }

    fn rebind_graph(&mut self, _st: &RankState) {
        // The send selector is derived from the graph's send regions;
        // rebuild it lazily against the swapped graph. The ghost layout is
        // refreshed by the next Border, which the rebalance always
        // schedules.
        self.sel = None;
    }

    fn post(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let ghosts = &mut self.lane.ghosts;
        let packed: Vec<Vec<f64>>;
        // Edge messages are tagged with the edge's index in the
        // *receiver's* list.
        let along = |e: &GraphEdge, payload| (e.rank, p2p_tag(op, e.peer_index), payload);
        let msgs: Vec<Msg<'_>> = match op.kind() {
            OpKind::Ghost(g) => {
                let edges = st.graph.out_edges(op).iter().enumerate();
                edges.map(|(k, e)| along(e, Payload::Ghost(g, k))).collect()
            }
            OpKind::Border => {
                ghosts.reset(&mut st.atoms, st.graph.send.iter().map(|e| e.shift));
                let sel = self.sel.get_or_insert_with(|| st.graph.selector());
                packed = ghosts.select_border(st, sel);
                let edges = st.graph.send.iter().zip(&packed);
                edges.map(|(e, v)| along(e, Payload::Packed(v))).collect()
            }
            OpKind::Exchange if st.graph.is_grid() => {
                packed = st.pack_exchange(round).into();
                let faces = packed.iter().enumerate();
                faces
                    .map(|(dir, v)| {
                        let dst = st.graph.face_link(round, dir).rank;
                        (dst, staged_tag(op, round, dir), Payload::Packed(v))
                    })
                    .collect()
            }
            OpKind::Exchange => {
                // Irregular single round: every out-of-box atom goes
                // straight to its new owner, tagged with my slot in the
                // owner's migrate list.
                packed = st.pack_exchange_graph();
                let peers = st.graph.migrate_peers().iter().zip(&packed);
                peers
                    .map(|(p, v)| (p.rank, p2p_tag(op, p.tag_index), Payload::Packed(v)))
                    .collect()
            }
        };
        self.lane.send(st, op, round, &msgs);
        Ok(())
    }

    fn complete(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        let from: Vec<(usize, u32)> = match op {
            Op::Exchange if st.graph.is_grid() => (0..2)
                .map(|dir| {
                    let src = st.graph.face_link(round, dir).rank;
                    (src, staged_tag(op, round, 1 - dir))
                })
                .collect(),
            Op::Exchange => {
                let peers = st.graph.migrate_peers().iter().enumerate();
                peers.map(|(k, p)| (p.rank, p2p_tag(op, k))).collect()
            }
            _ => {
                let edges = st.graph.in_edges(op).iter().enumerate();
                edges.map(|(k, e)| (e.rank, p2p_tag(op, k))).collect()
            }
        };
        let payloads = self.lane.recv(st, op, from)?;
        for (k, values) in payloads.iter().enumerate() {
            match op.kind() {
                OpKind::Border => self.lane.ghosts.append_ghosts(st, k, values),
                OpKind::Exchange => st.unpack_exchange(values),
                OpKind::Ghost(g) => self.lane.ghosts.unpack(g, k, st, values.as_slice()),
            }
        }
        if op == Op::Border {
            st.scalar.resize(st.atoms.ntotal(), 0.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CommPlan, PlanConfig};
    use crate::topo_map::{Placement, RankMap};
    use tofumd_md::atom::Atoms;
    use tofumd_md::region::Box3;
    use tofumd_tofu::{CellGrid, NetParams, TofuNet};

    /// A 2-rank fixture where rank 0 and rank 1 are x-face neighbors; the
    /// lockstep driver is emulated by posting both ranks then completing
    /// both.
    struct TwoRanks {
        comm: Arc<Communicator>,
        map: RankMap,
        global: Box3,
        states: [RankState; 2],
    }

    fn two_ranks(positions: [Vec<[f64; 3]>; 2]) -> TwoRanks {
        let grid = CellGrid::new([1, 1, 1]); // 12 nodes, 48 ranks
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid; // [2, 6, 4]
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let net = Arc::new(TofuNet::new(grid, NetParams::default()));
        let comm = Arc::new(Communicator::new(net, map.nranks(), 4));
        let mk = |rank: usize, pos: Vec<[f64; 3]>, map: &RankMap| {
            let plan = CommPlan::build(rank, map, &global, 2.8, PlanConfig::NEWTON);
            // Shift positions into this rank's sub-box.
            let sub = plan.sub;
            let pos = pos
                .into_iter()
                .map(|p| [sub.lo[0] + p[0], sub.lo[1] + p[1], sub.lo[2] + p[2]])
                .collect();
            RankState::new(
                Atoms::from_positions(pos, rank as u64 * 1000 + 1),
                CommGraph::from_grid(plan),
            )
        };
        let states = [
            mk(0, positions[0].clone(), &map),
            mk(1, positions[1].clone(), &map),
        ];
        TwoRanks {
            comm,
            map,
            global,
            states,
        }
    }

    /// All 48 ranks exist in the map but only ranks 0 and 1 hold atoms;
    /// the remaining ranks must still participate in the exchange for the
    /// lockstep to complete, so the fixture drives every rank.
    fn drive_all(engines: &mut [Box<dyn GhostEngine>], states: &mut [RankState], op: Op) {
        let rounds = engines[0].rounds(op);
        for round in 0..rounds {
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.post(op, round, st).unwrap();
            }
            for (e, st) in engines.iter_mut().zip(states.iter_mut()) {
                e.complete(op, round, st).unwrap();
            }
        }
    }

    fn full_fixture<F>(mk_engine: F) -> (Vec<Box<dyn GhostEngine>>, Vec<RankState>, Box3)
    where
        F: Fn(Arc<Communicator>, &CommGraph) -> Box<dyn GhostEngine>,
    {
        let t = two_ranks([vec![[9.5, 5.0, 5.0]], vec![[0.5, 5.0, 5.0]]]);
        let nranks = t.map.nranks();
        let mut engines = Vec::new();
        let mut states = Vec::new();
        for r in 0..nranks {
            let plan = CommPlan::build(r, &t.map, &t.global, 2.8, PlanConfig::NEWTON);
            let graph = CommGraph::from_grid(plan);
            engines.push(mk_engine(t.comm.clone(), &graph));
            states.push(RankState::new(Atoms::default(), graph));
        }
        let [s0, s1] = t.states;
        states[0] = s0;
        states[1] = s1;
        (engines, states, t.global)
    }

    #[test]
    fn mpi_3stage_establishes_cross_rank_ghosts() {
        let (mut engines, mut states, _g) =
            full_fixture(|c, g| Box::new(MpiThreeStage::new(c, g)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        // Rank 0's atom at x = hi - 0.5 must appear as a ghost on rank 1
        // (its -x neighbor side), and vice versa.
        assert!(
            states[1].atoms.nghost() >= 1,
            "rank 1 got {} ghosts",
            states[1].atoms.nghost()
        );
        assert!(states[0].atoms.nghost() >= 1);
        // Tags preserved across the wire.
        let tags1: Vec<u64> = states[1].atoms.tag[states[1].atoms.nlocal..].to_vec();
        assert!(
            tags1.contains(&1),
            "rank 0's atom (tag 1) as ghost: {tags1:?}"
        );
    }

    #[test]
    fn mpi_3stage_forward_updates_ghost_positions() {
        let (mut engines, mut states, _g) =
            full_fixture(|c, g| Box::new(MpiThreeStage::new(c, g)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        let before = states[1].atoms.x[states[1].atoms.nlocal];
        // Move rank 0's atom and forward.
        states[0].atoms.x[0][1] += 0.25;
        drive_all(&mut engines, &mut states, Op::Forward);
        let after = states[1].atoms.x[states[1].atoms.nlocal];
        assert!((after[1] - before[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mpi_p2p_reverse_returns_ghost_forces() {
        // Fig. 5 semantics: rank 1 sends its -x-face atom to its *lower*
        // neighbors (rank 0 among them); rank 0 holds the ghost, computes,
        // and the reverse stage carries the force back to rank 1.
        let (mut engines, mut states, _g) =
            full_fixture(|c, g| Box::new(MpiP2p::new(c, g.me)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        assert!(
            states[0].atoms.nghost() >= 1,
            "rank 0 must hold rank 1's border atom as a ghost"
        );
        let n0 = states[0].atoms.nlocal;
        for gi in n0..states[0].atoms.ntotal() {
            states[0].atoms.f[gi] = [1.0, 2.0, 3.0];
        }
        states[1].atoms.zero_forces();
        drive_all(&mut engines, &mut states, Op::Reverse);
        assert!(states[1].atoms.f[0][0] >= 1.0 - 1e-12);
        assert!((states[1].atoms.f[0][1] / states[1].atoms.f[0][0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tags_disambiguate_ops_and_links() {
        // Distinct (op, link) pairs must map to distinct MPI tags.
        let mut seen = std::collections::HashSet::new();
        for op in [
            Op::Border,
            Op::Forward,
            Op::Reverse,
            Op::ForwardScalar,
            Op::ReverseScalar,
        ] {
            for link in 0..124 {
                assert!(seen.insert(p2p_tag(op, link)), "collision at {op:?} {link}");
            }
            for dim in 0..3 {
                for dir in 0..2 {
                    assert!(
                        seen.insert(staged_tag(op, dim, dir) + 1_000_000),
                        "staged collision"
                    );
                }
            }
        }
    }

    #[test]
    fn engines_charge_time_to_the_right_buckets() {
        let (mut engines, mut states, _g) =
            full_fixture(|c, g| Box::new(MpiP2p::new(c, g.me)) as Box<dyn GhostEngine>);
        drive_all(&mut engines, &mut states, Op::Border);
        assert!(states[0].comm_time > 0.0);
        let comm_before = states[0].comm_time;
        for st in states.iter_mut() {
            let n = st.atoms.ntotal();
            st.scalar.resize(n, 1.0);
        }
        drive_all(&mut engines, &mut states, Op::ForwardScalar);
        assert!(
            states[0].pair_comm_time > 0.0,
            "scalar ops book into the pair bucket"
        );
        assert_eq!(
            states[0].comm_time, comm_before,
            "scalar ops must not book into Comm"
        );
    }

    #[test]
    fn engines_report_their_round_structure() {
        // The driver reads the round count and the stage barrier off the
        // engine: three barriered rounds staged, one free round p2p.
        let t = two_ranks([vec![[5.0, 5.0, 5.0]], vec![[5.0, 5.0, 5.0]]]);
        let e = MpiThreeStage::new(t.comm.clone(), &t.states[0].graph);
        assert_eq!(e.rounds(Op::Border), 3);
        assert!(e.barrier_between_rounds());
        let e2 = MpiP2p::new(t.comm, 0);
        assert_eq!(e2.rounds(Op::Forward), 1);
        assert!(!e2.barrier_between_rounds());
    }
}
