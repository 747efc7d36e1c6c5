//! The communication pattern: who gets what, in which round.
//!
//! The paper's evaluation (§3.2–§3.4, Fig. 6, Fig. 12) is a 2 × 2 design
//! space — *pattern* (3-stage sweeps vs peer-to-peer) × *transport* (MPI
//! two-sided vs uTofu one-sided). A [`Pattern`] is the first axis and the
//! only place that answers, for `(op, round)`: how many rounds there are,
//! what it selects onto the send lists ([`Pattern::select`]), which
//! messages leave and which are expected ([`Pattern::hop`]) and the layout
//! edge each streams from, how an arrived payload is delivered from the
//! bytes it landed in and what Border does when it finishes. The engines
//! ([`crate::mpi_engine`], [`crate::utofu_engine`]) are the second axis:
//! each holds a `Pattern` and ships what it lists.
//!
//! * **p2p** (Fig. 5): one round per ghost op, a message on every graph
//!   edge. Layout edge id = graph edge index `k`; a message is known to
//!   its receiver by the edge's `peer_index`, which disambiguates small
//!   periodic grids and irregular graphs where one rank is a neighbor
//!   along several edges. Send lists come from the graph's
//!   [`SendSelector`]. Migration sweeps the grid faces, as under either
//!   pattern (layout edge `dim * 2 + dir`), or, on an irregular graph,
//!   goes owner-directed in one round (one edge per migrate peer).
//! * **3-stage** (Fig. 4): layout edge id = `(dim * swaps + swap) * 2 +
//!   dir`. LAMMPS's 6-way swap sweeps x, then y, then z, sending the atoms
//!   (locals *and already-received ghosts*) within the ghost cutoff of
//!   each face to the two face neighbors. The carry-forward makes edge and
//!   corner ghosts travel in up to three legs — which is why each stage
//!   must complete before the next starts, the serialization the p2p
//!   pattern removes. When the cutoff exceeds the sub-box edge (Fig. 15's
//!   62/124-neighbor regime) each dimension performs `swaps` successive
//!   swaps: swap 0 ships the local band, swap `s` *relays* the ghosts that
//!   arrived from the opposite face in swap `s - 1`. Reduce ops run the
//!   sweeps backwards.

use crate::engine::{Op, OpKind, RankState};
use crate::ghost::GhostLayout;
use crate::sf::{CommGraph, GraphEdge, SendSelector};
use crate::wire::F64Source;
use tofumd_tofu::TofuError;

/// The two communication patterns of §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// LAMMPS's 3-stage face sweeps with carry-forward (Fig. 4).
    Staged,
    /// Direct exchange with every graph neighbor (Fig. 5).
    P2p,
}

/// How a receiver tells one message of a round from another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Landing {
    /// A face-sweep message that travelled toward `dir` (0 the -face, 1
    /// the +face) along `dim`.
    Face {
        /// Sweep dimension.
        dim: usize,
        /// Direction travelled.
        dir: usize,
    },
    /// The receiver's index of the edge (or migrate peer) it arrived on.
    Edge(usize),
}

/// One message of a round as this rank sees it.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Position in the round: posting order going out, delivery order
    /// coming in.
    pub i: usize,
    /// The inflow family the message lands in: the receiver's ghost-side
    /// buffers (it rode a send edge) or its owner-side ones (a recv edge).
    pub toward_ghosts: bool,
    /// Index of the edge in this rank's table for that family.
    pub k: usize,
    /// The peer's rank.
    pub rank: usize,
    /// What the receiver knows the message by.
    pub landing: Landing,
    /// The [`GhostLayout`] edge the message streams from / delivers to.
    pub layout: usize,
}

enum Walk {
    /// The six face links in `dim * 2 + dir` order (`dir` 0 the -dim
    /// neighbor) and the swaps per dimension (the plan's shell count; 1 in
    /// the common case), copied out of the grid graph the pattern was built
    /// on. A face message lands on the receiver's opposite side, so link
    /// `k` carries `peer_index = k ^ 1`.
    Staged {
        links: Box<[GraphEdge; 6]>,
        shells: usize,
    },
    /// The selector is derived from the graph's send regions, lazily at the
    /// first Border after build or [`Pattern::rebind`]; `grid` says whether
    /// migration sweeps faces or goes owner-directed.
    P2p {
        sel: Option<SendSelector>,
        grid: bool,
    },
}

/// One rank's pattern state: the ghost layout Border fills and the walk
/// that lists each round's messages.
pub struct Pattern {
    /// The layout Border filled: send lists, shifts and ghost segments.
    pub(crate) ghosts: GhostLayout,
    walk: Walk,
}

/// Periodic shifts of the staged layout's `6 * swaps` edges, in edge-id
/// order `(dim * swaps + swap) * 2 + dir`.
pub(crate) fn staged_shifts(
    links: &[GraphEdge],
    swaps: usize,
) -> impl Iterator<Item = [f64; 3]> + '_ {
    (0..6 * swaps).map(move |e| links[e / 2 / swaps * 2 + e % 2].shift)
}

/// The `(sweep, dim)` the staged pattern drives in `round` of `op`, with
/// `swaps` swaps per dimension; the sweep's two layout edges are
/// `sweep * 2 + dir`. Ops flowing toward the ghosts walk the sweeps in
/// order, reduce ops walk them backwards (z..x, last swap first), and
/// migration is one swap per dimension (atoms move less than a sub-box
/// between rebuilds).
#[must_use]
pub(crate) fn staged_sweep(op: Op, round: usize, swaps: usize) -> (usize, usize) {
    if op == Op::Exchange {
        return (round, round);
    }
    let sweep = if op.toward_ghosts() {
        round
    } else {
        3 * swaps - 1 - round
    };
    (sweep, sweep / swaps)
}

impl Pattern {
    /// The pattern of `kind` for the rank that owns `graph`. The staged
    /// sweeps exist only on a grid graph.
    pub fn new(kind: PatternKind, graph: &CommGraph) -> Result<Self, TofuError> {
        let walk = match (kind, graph.config()) {
            (PatternKind::P2p, _) => Walk::P2p {
                sel: None,
                grid: graph.is_grid(),
            },
            (PatternKind::Staged, Some(config)) => {
                let faces = [
                    graph.face_edges(0)?,
                    graph.face_edges(1)?,
                    graph.face_edges(2)?,
                ];
                let links = Box::new([0, 1, 2, 3, 4, 5].map(|k| GraphEdge {
                    peer_index: k ^ 1,
                    ..*faces[k / 2][k % 2].2
                }));
                let shells = config.shells;
                Walk::Staged { links, shells }
            }
            (PatternKind::Staged, None) => {
                let (engine, graph) = ("3-stage", "rcb");
                return Err(TofuError::UnsupportedGraph { engine, graph });
            }
        };
        let ghosts = GhostLayout::default();
        Ok(Pattern { ghosts, walk })
    }

    /// True for the 3-stage pattern, whose rounds each consume what the
    /// previous one delivered.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        matches!(self.walk, Walk::Staged { .. })
    }

    /// How many post/complete rounds `op` takes. Every staged ghost op
    /// sweeps the three dimensions `shells` times; p2p takes one round.
    /// Whether Reverse runs at all (Newton on/off) is the driver's
    /// decision. Grid migration stays one swap per dimension under either
    /// pattern; an irregular graph migrates owner-directed in one round.
    #[must_use]
    pub fn rounds(&self, op: Op) -> usize {
        match (&self.walk, op) {
            (Walk::Staged { .. } | Walk::P2p { grid: true, .. }, Op::Exchange) => 3,
            (Walk::Staged { shells, .. }, _) => 3 * shells,
            (Walk::P2p { .. }, _) => 1,
        }
    }

    /// True when `op` is one round with a message on every graph edge,
    /// message `k` on edge `k` (p2p Border and ghost ops); false when each
    /// round lists two face messages (every staged round, every grid
    /// migration sweep).
    #[must_use]
    pub fn spans_edges(&self, op: Op) -> bool {
        !self.is_staged() && op != Op::Exchange
    }

    /// The driver swapped the rank's graph: the selector and the migration
    /// shape are derived from it, so resolve both afresh. The ghost layout
    /// is refreshed by the next Border, which a rebalance always schedules.
    /// A staged pattern stays bound to the grid it was built on.
    pub fn rebind(&mut self, graph: &CommGraph) {
        if let Walk::P2p { sel, grid } = &mut self.walk {
            *sel = None;
            *grid = graph.is_grid();
        }
    }

    /// This rank's out-edges of one inflow family — the six faces either
    /// way, or the graph's `send` (toward the ghosts) / `recv` edges — each
    /// carrying in `peer_index` the index its receiver knows it by. The
    /// in-edges of a family are the out-edges of the other.
    #[must_use]
    pub fn out_edges<'a>(&'a self, graph: &'a CommGraph, toward_ghosts: bool) -> &'a [GraphEdge] {
        match &self.walk {
            Walk::Staged { links, .. } => &links[..],
            Walk::P2p { .. } if toward_ghosts => &graph.send,
            Walk::P2p { .. } => &graph.recv,
        }
    }

    /// Estimated *maximum* atoms one message arriving on in-edge `k` of a
    /// family carries at number density `density` (§3.4 buffer pre-sizing).
    /// Ghost-side inflow arrives along recv edges and mirrors my own
    /// outgoing slab toward the opposite side — symmetric volumes. A staged
    /// face message carries up to the slab of the largest stage,
    /// `(a + 2r)^2 * r`, sized generously.
    #[must_use]
    pub fn max_atoms(
        &self,
        graph: &CommGraph,
        toward_ghosts: bool,
        k: usize,
        density: f64,
    ) -> usize {
        if self.is_staged() {
            let (a, r) = (graph.sub.lengths(), graph.r_ghost);
            let max_slab = (a[0] + 2.0 * r) * (a[1] + 2.0 * r) * r;
            return (2.0 * density * max_slab) as usize + 16;
        }
        let in_edges = self.out_edges(graph, !toward_ghosts);
        graph.max_atoms_estimate(in_edges[k].offset, density)
    }

    /// Select what `(op, round)` sends before any of it is posted: Border
    /// starts (round 0) or extends the layout's send lists, Exchange fills
    /// them with the emigrants it parks past the locals, the ghost ops
    /// select nothing. Every payload then streams from the layout into the
    /// transport's buffer ([`crate::ghost::Payload`]). A grid migration
    /// sweep fails, typed, on a graph without its two face edges.
    pub fn select(&mut self, op: Op, round: usize, st: &mut RankState) -> Result<(), TofuError> {
        match (&mut self.walk, op.kind()) {
            (_, OpKind::Ghost(_)) => {}
            (Walk::Staged { links, shells }, OpKind::Border) => {
                if round == 0 {
                    let shifts = staged_shifts(&links[..], *shells);
                    self.ghosts.reset(&mut st.atoms, shifts);
                }
                // Border walks the sweeps in order: sweep == round.
                self.ghosts.sweep_border(st, round, *shells);
            }
            (Walk::P2p { sel, .. }, OpKind::Border) => {
                let shifts = st.graph.send.iter().map(|e| e.shift);
                self.ghosts.reset(&mut st.atoms, shifts);
                let sel = sel.get_or_insert_with(|| st.graph.selector());
                self.ghosts.select_border(st, sel);
            }
            // Irregular single round: every out-of-box atom goes straight
            // to its new owner.
            (Walk::P2p { grid: false, .. }, OpKind::Exchange) => self.ghosts.select_exchange(st),
            // A face sweep moves its emigrants by its two face edges'
            // shifts, looked up once per sweep.
            (_, OpKind::Exchange) => {
                let shifts = st.graph.face_edges(round)?.map(|(.., e)| e.shift);
                self.ghosts.sweep_exchange(st, round, shifts);
            }
        }
        Ok(())
    }

    /// Message `i` of those `(op, round)` sends (`incoming == false`, in
    /// posting order) or expects (`incoming == true`, in delivery order),
    /// or `None` past the last. Derived on demand, so no list is built and
    /// a receive may deliver each message before it asks for the next.
    pub fn hop(
        &self,
        op: Op,
        round: usize,
        graph: &CommGraph,
        incoming: bool,
        i: usize,
    ) -> Result<Option<Hop>, TofuError> {
        let flow = op.toward_ghosts();
        // What I send along an edge of one family arrives along the same
        // edge of the other.
        let peers = |toward_ghosts: bool| self.out_edges(graph, toward_ghosts != incoming);
        let hop = |toward_ghosts, k, rank, landing, layout| Hop {
            i,
            toward_ghosts,
            k,
            rank,
            landing,
            layout,
        };
        // A face message is tagged with the direction it travelled: the
        // one arriving from my `i` side travelled `1 - i`.
        let face = |dim, toward_ghosts, k: usize, layout| {
            let (rank, dir) = (peers(toward_ghosts)[k].rank, i ^ usize::from(incoming));
            let landing = Landing::Face { dim, dir };
            Some(hop(toward_ghosts, k, rank, landing, layout))
        };
        let grid_migration =
            op == Op::Exchange && matches!(self.walk, Walk::P2p { grid: true, .. });
        Ok(match &self.walk {
            // A face round lists two messages, -face first.
            _ if (self.is_staged() || grid_migration) && i >= 2 => None,
            Walk::Staged { shells, .. } => {
                let (sweep, dim) = staged_sweep(op, round, *shells);
                face(dim, flow, dim * 2 + i, sweep * 2 + i)
            }
            _ if grid_migration => {
                let (down, k, _) = graph.face_edges(round)?[i];
                face(round, down != incoming, k, round * 2 + i)
            }
            // A migrant is tagged with my slot in its new owner's list.
            _ if op == Op::Exchange => graph.migrate_peers().get(i).map(|p| {
                let slot = if incoming { i } else { p.tag_index };
                hop(flow, i, p.rank, Landing::Edge(slot), i)
            }),
            _ => peers(flow).get(i).map(|e| {
                let index = if incoming { i } else { e.peer_index };
                hop(flow, i, e.rank, Landing::Edge(index), i)
            }),
        })
    }

    /// Visit every [`Pattern::hop`] of `(op, round)` in order, lending `st`.
    pub fn for_each_hop(
        &self,
        op: Op,
        round: usize,
        st: &mut RankState,
        incoming: bool,
        mut f: impl FnMut(Hop, &mut RankState),
    ) -> Result<(), TofuError> {
        let mut i = 0;
        while let Some(h) = self.hop(op, round, &st.graph, incoming, i)? {
            f(h, st);
            i += 1;
        }
        Ok(())
    }

    /// Deliver the payload that arrived on layout edge `layout` from any
    /// [`F64Source`] (on both transports, the bytes it landed in): Border
    /// appends the edge's ghost segment, Exchange drops the emigrants its
    /// post streamed and adopts the migrants, a ghost op scatters.
    pub fn deliver(&mut self, op: Op, layout: usize, st: &mut RankState, src: impl F64Source) {
        match op.kind() {
            OpKind::Border => self.ghosts.append_ghosts(st, layout, src),
            OpKind::Exchange => GhostLayout::adopt_migrants(st, src),
            OpKind::Ghost(g) => self.ghosts.unpack(g, layout, st, src),
        }
    }

    /// Close `(op, round)` once everything expected was delivered: EAM's
    /// scalar buffers must track the ghost tail Border grows.
    pub fn finish(&self, op: Op, st: &mut RankState) {
        if op == Op::Border {
            st.scalar.resize(st.atoms.ntotal(), 0.0);
        }
    }
}

#[cfg(test)]
/// The one fixture behind the engine tests: a TofuD cell (12 nodes, 48
/// ranks on a 2 × 6 × 4 rank grid, 10^3 sub-boxes) with its fabric, MPI
/// layer and address book, every rank's grid graph and state, and one
/// engine per rank of whichever pattern × transport pair a test asks for.
pub(crate) mod fixture {
    use super::PatternKind;
    use crate::engine::{GhostEngine, Op, RankState};
    use crate::mpi_engine::MpiEngine;
    use crate::sf::{CommGraph, PlanConfig};
    use crate::topo_map::{Placement, RankMap};
    use crate::utofu_engine::{AddressBook, UtofuConfig, UtofuEngine};
    use std::sync::Arc;
    use tofumd_md::atom::Atoms;
    use tofumd_md::domain::RcbDecomposition;
    use tofumd_md::region::Box3;
    use tofumd_mpi::Communicator;
    use tofumd_tofu::{CellGrid, NetParams, TofuNet};

    /// Number density the uTofu buffers are sized for (LJ liquid).
    pub(crate) const DENSITY: f64 = 0.8442;

    /// What an engine is built from.
    pub(crate) struct Fabric {
        pub net: Arc<TofuNet>,
        pub book: Arc<AddressBook>,
        pub comm: Arc<Communicator>,
        pub map: RankMap,
        pub global: Box3,
    }

    impl Fabric {
        pub fn new() -> Self {
            let grid = CellGrid::new([1, 1, 1]);
            let map = RankMap::new(grid, Placement::TopoAware);
            let rg = map.rank_grid; // [2, 6, 4]
            let global = Box3::from_lengths([
                10.0 * f64::from(rg[0]),
                10.0 * f64::from(rg[1]),
                10.0 * f64::from(rg[2]),
            ]);
            let net = Arc::new(TofuNet::new(grid, NetParams::default()));
            let comm = Arc::new(Communicator::new(net.clone(), map.nranks(), 4));
            Fabric {
                net,
                book: AddressBook::new(),
                comm,
                map,
                global,
            }
        }

        /// Rank `rank`'s grid graph at ghost cutoff 2.8.
        pub fn graph(&self, rank: usize, cfg: PlanConfig) -> CommGraph {
            CommGraph::grid(rank, &self.map, &self.global, 2.8, cfg)
        }

        /// Rank `rank`'s irregular graph over a 4-part RCB cut of a small
        /// scattered system.
        pub fn rcb_graph(&self, rank: usize) -> CommGraph {
            let pts: Vec<[f64; 3]> = (0..200u64)
                .map(|i| {
                    let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                    [u(0) * 20.0, u(16) * 16.0, u(32) * 12.0]
                })
                .collect();
            let global = Box3::from_lengths([20.0, 16.0, 12.0]);
            let rcb = Arc::new(RcbDecomposition::build(4, &pts, &global));
            CommGraph::from_rcb(rank, &rcb, &self.map, 2.5)
        }

        pub fn mpi(&self, kind: PatternKind, graph: &CommGraph) -> MpiEngine {
            MpiEngine::new(self.comm.clone(), kind, graph).unwrap()
        }

        pub fn utofu(&self, kind: PatternKind, cfg: UtofuConfig, graph: &CommGraph) -> UtofuEngine {
            let (net, book, node) = (
                self.net.clone(),
                self.book.clone(),
                self.map.node_of(graph.me),
            );
            UtofuEngine::new(net, book, kind, graph, node, DENSITY, cfg).unwrap()
        }
    }

    pub(crate) struct Fixture<E> {
        pub fabric: Fabric,
        pub engines: Vec<E>,
        pub states: Vec<RankState>,
    }

    /// Every rank of the cell under Newton-halved single-shell plans, its
    /// engine built by `mk`. Ranks 0 and 1 are x-face neighbors and hold
    /// one atom each (tags 1 and 1001) half a unit from their shared face;
    /// the other ranks are empty but take part in every lockstep round.
    pub(crate) fn fixture<E>(mk: impl Fn(&Fabric, &CommGraph) -> E) -> Fixture<E> {
        let fabric = Fabric::new();
        let (mut engines, mut states) = (Vec::new(), Vec::new());
        for r in 0..fabric.map.nranks() {
            let graph = fabric.graph(r, PlanConfig::NEWTON);
            engines.push(mk(&fabric, &graph));
            let sub = graph.sub;
            let atoms = match r {
                0 => vec![[sub.hi[0] - 0.5, sub.lo[1] + 5.0, sub.lo[2] + 5.0]],
                1 => vec![[sub.lo[0] + 0.5, sub.lo[1] + 5.0, sub.lo[2] + 5.0]],
                _ => Vec::new(),
            };
            let atoms = Atoms::from_positions(atoms, r as u64 * 1000 + 1);
            states.push(RankState::new(atoms, graph));
        }
        Fixture {
            fabric,
            engines,
            states,
        }
    }

    /// The lockstep driver, emulated: every round of `op`, all ranks post,
    /// then all ranks complete.
    pub(crate) fn drive<E: GhostEngine>(f: &mut Fixture<E>, op: Op) {
        for round in 0..f.engines[0].rounds(op) {
            for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
                e.post(op, round, st).unwrap();
            }
            for (e, st) in f.engines.iter_mut().zip(&mut f.states) {
                e.complete(op, round, st).unwrap();
            }
        }
    }

    /// Size every rank's EAM scalar buffer to its atoms, filled with `v`.
    pub(crate) fn fill_scalars<E>(f: &mut Fixture<E>, v: f64) {
        for st in &mut f.states {
            st.scalar.clear();
            st.scalar.resize(st.atoms.ntotal(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fixture::{drive, fill_scalars, fixture, Fixture};
    use super::*;
    use crate::engine::GhostEngine;
    use crate::utofu_engine::UtofuConfig;
    use tofumd_md::atom::Atoms;

    /// `per_rank` atoms on a diagonal through each sub-box: its ends sit in
    /// corner regions, so every rank has border atoms on many edges.
    fn stock<E>(f: &mut Fixture<E>, per_rank: usize) {
        for (r, st) in f.states.iter_mut().enumerate() {
            let sub = st.graph.sub;
            let pos = (0..per_rank)
                .map(|i| {
                    let t = (i as f64 + 0.5) / per_rank as f64;
                    [
                        sub.lo[0] + 10.0 * t,
                        sub.lo[1] + 10.0 * t,
                        sub.lo[2] + 10.0 * t,
                    ]
                })
                .collect();
            st.atoms = Atoms::from_positions(pos, 1 + 10_000 * r as u64);
        }
    }

    /// Every bit of every rank's atoms and scalars.
    type Bits = Vec<(
        Vec<u64>,
        Vec<[u64; 3]>,
        Vec<[u64; 3]>,
        Vec<[u64; 3]>,
        Vec<u64>,
    )>;

    /// Run the six ops on twelve atoms per rank and snapshot every rank
    /// after each. `sorted` orders the final snapshot's locals by tag.
    fn six_ops<E: GhostEngine>(f: &mut Fixture<E>) -> Vec<Bits> {
        let bits3 = |v: &[[f64; 3]]| v.iter().map(|a| a.map(f64::to_bits)).collect();
        let snap = |f: &Fixture<E>| -> Bits {
            f.states
                .iter()
                .map(|st| {
                    let a = &st.atoms;
                    let scalar = st.scalar.iter().map(|s| s.to_bits()).collect();
                    (a.tag.clone(), bits3(&a.x), bits3(&a.v), bits3(&a.f), scalar)
                })
                .collect()
        };
        stock(f, 12);
        let mut snaps = Vec::new();
        drive(f, Op::Border);
        assert!(f.states.iter().all(|st| st.atoms.nghost() > 0));
        snaps.push(snap(f));
        for st in &mut f.states {
            for i in 0..st.atoms.nlocal {
                st.atoms.x[i][1] += 0.015625 * (i + 1) as f64;
            }
            for g in st.atoms.nlocal..st.atoms.ntotal() {
                st.atoms.f[g] = [0.5, -0.25, g as f64];
            }
        }
        for op in [Op::Forward, Op::Reverse] {
            drive(f, op);
            snaps.push(snap(f));
        }
        fill_scalars(f, 0.25);
        for st in &mut f.states {
            for (i, s) in st.scalar.iter_mut().enumerate() {
                *s += i as f64 * 0.125;
            }
        }
        for op in [Op::ForwardScalar, Op::ReverseScalar] {
            drive(f, op);
            snaps.push(snap(f));
        }
        // Migration runs on ghost-free ranks; push the diagonal's ends out
        // through the low and the high corner of every sub-box.
        for st in &mut f.states {
            st.atoms.clear_ghosts();
            let n = st.atoms.nlocal;
            for d in 0..3 {
                st.atoms.x[0][d] -= 0.75;
                st.atoms.x[n - 1][d] += 0.75;
            }
            st.atoms.v[0] = [1.0, -2.0, 3.0];
        }
        drive(f, Op::Exchange);
        assert!(f.states.iter().all(|st| st.atoms.nlocal == 12));
        snaps.push(snap(f));
        snaps
    }

    #[test]
    fn both_transports_ship_a_pattern_to_the_same_bits() {
        let staged = PatternKind::Staged;
        let mpi = six_ops(&mut fixture(|fab, g| fab.mpi(staged, g)));
        let cfg = UtofuConfig::coarse4();
        let utofu = six_ops(&mut fixture(|fab, g| fab.utofu(staged, cfg, g)));
        assert_eq!(mpi, utofu, "staged: same ghosts, same order, same bits");

        let p2p = PatternKind::P2p;
        let mpi = six_ops(&mut fixture(|fab, g| fab.mpi(p2p, g)));
        for cfg in [UtofuConfig::coarse4(), UtofuConfig::pool6()] {
            let mut utofu = six_ops(&mut fixture(|fab, g| fab.utofu(p2p, cfg, g)));
            // The five halo ops deliver in edge order on both lanes.
            assert_eq!(mpi[..5], utofu[..5], "p2p {cfg:?}");
            // A grid migration sweep's two arrivals are adopted in hop
            // order over MPI ([-face, +face]) and in STADD order over
            // uTofu (ghost-side buffer, i.e. the +face's, first): the same
            // atoms, possibly in another local order.
            let by_tag = |bits: &Bits| -> Bits {
                let sort = |(tag, x, v, f, s): &_| {
                    let mut order: Vec<usize> = (0..Vec::len(tag)).collect();
                    order.sort_by_key(|&i| tag[i]);
                    let pick3 = |a: &Vec<[u64; 3]>| order.iter().map(|&i| a[i]).collect();
                    let tags = order.iter().map(|&i| tag[i]).collect();
                    (tags, pick3(x), pick3(v), pick3(f), Vec::clone(s))
                };
                bits.iter().map(sort).collect()
            };
            let last = utofu.pop().unwrap();
            assert_eq!(by_tag(&mpi[5]), by_tag(&last), "p2p {cfg:?} migration");
        }
    }
}
