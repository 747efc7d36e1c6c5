//! The ghost layout: the transport-independent half of every engine.
//!
//! In star-forest terms (DESIGN.md §13) each halo edge owns a *root* index
//! list — my atoms the peer mirrors (`send`) — the periodic shift they
//! travel with, and a *leaf* segment — the contiguous run of ghosts I hold
//! for the peer. The four repeated ghost ops are one typed gather/scatter
//! over those lists ([`GhostOp`]: `unit ∈ {3, 1}` × bcast | reduce); how
//! the packed bytes travel is the engines' business.
//!
//! Every payload of every op streams from this layout ([`Payload`]).
//! Border and Exchange only fill the send lists, and their records stream
//! from them into the transport's buffer and from the landed bytes into
//! the atoms. Exchange's emigrants wait, moved in place, in the (empty)
//! ghost region past the locals until the post has streamed them.
//!
//! Both communication patterns of §3.1 fill the same layout and differ
//! only in how Border builds the send lists and numbers the edges; that is
//! [`crate::pattern::Pattern`]'s business.

use crate::engine::{wrap_for_exchange, GhostOp, Op, OpKind, RankState};
use crate::sf::SendSelector;
use crate::wire::{self, F64Sink, F64Source};
use tofumd_md::atom::Atoms;

#[derive(Debug, Clone, Default)]
struct Edge {
    /// Indices of the atoms (locals, or earlier ghosts under the staged
    /// carry-forward) the peer mirrors.
    send: Vec<u32>,
    /// Periodic shift added to positions travelling along this edge.
    shift: [f64; 3],
    /// (first ghost index, count) of the ghosts held for the peer.
    ghosts: (usize, usize),
}

/// Send lists and ghost segments of one rank, keyed by a flat edge id.
#[derive(Debug, Clone, Default)]
pub struct GhostLayout {
    edges: Vec<Edge>,
    /// Edges a pass with fewer of them laid aside, last edge on top.
    spare: Vec<Edge>,
}

impl GhostLayout {
    /// Start a new pass: drop the rank's ghosts and every list, and lay
    /// out one empty edge per entry of `shifts`. Each edge keeps its send
    /// list's capacity, also across an Exchange with fewer edges, so a
    /// Border that selects what the last one did allocates nothing.
    pub fn reset(&mut self, atoms: &mut Atoms, shifts: impl IntoIterator<Item = [f64; 3]>) {
        atoms.clear_ghosts();
        let mut n = 0;
        for shift in shifts {
            if n == self.edges.len() {
                self.edges.push(self.spare.pop().unwrap_or_default());
            }
            let edge = &mut self.edges[n];
            edge.send.clear();
            (edge.shift, edge.ghosts, n) = (shift, (0, 0), n + 1);
        }
        self.spare.extend(self.edges.drain(n..).rev());
    }

    /// The p2p Border builder: route every local atom through the graph's
    /// selector onto the send lists of the edges it borders.
    pub fn select_border(&mut self, st: &RankState, sel: &SendSelector) {
        for i in 0..st.atoms.nlocal {
            sel.for_each_target(&st.atoms.x[i], |k| {
                self.edges[usize::from(k)].send.push(i as u32);
            });
        }
    }

    /// The staged Border builder for one sweep: fills the send lists of its
    /// two edges, `[toward -dim, toward +dim]`.
    ///
    /// Swap 0 scans everything present (locals plus all earlier-dimension
    /// ghosts); swap `s > 0` relays only the ghosts that arrived from the
    /// *opposite* face in swap `s - 1`. The band test (within `r_ghost` of
    /// the face) is the same in both cases.
    pub fn sweep_border(&mut self, st: &RankState, sweep: usize, swaps: usize) {
        let (dim, swap) = (sweep / swaps, sweep % swaps);
        let r = st.graph.r_ghost;
        let (lo, hi) = (st.graph.sub.lo[dim], st.graph.sub.hi[dim]);
        for dir in 0..2 {
            let candidates = if swap == 0 {
                0..st.atoms.ntotal()
            } else {
                let (start, count) = self.edges[(sweep - 1) * 2 + 1 - dir].ghosts;
                start..start + count
            };
            let send = &mut self.edges[sweep * 2 + dir].send;
            for i in candidates {
                let x = st.atoms.x[i][dim];
                if (dir == 0 && x < lo + r) || (dir == 1 && x >= hi - r) {
                    send.push(i as u32);
                }
            }
        }
    }

    /// The staged Exchange builder for sweep `dim` (sweep 0 starts the
    /// pass on six edges): every local outside the sub-box in `dim` moves
    /// by `shifts[dir]`, the periodic shift of its face edge toward `dir`,
    /// onto edge `dim * 2 + dir`.
    pub(crate) fn sweep_exchange(&mut self, st: &mut RankState, dim: usize, shifts: [[f64; 3]; 2]) {
        if dim == 0 {
            self.reset(&mut st.atoms, [[0.0; 3]; 6]);
        }
        assert_eq!(st.atoms.nghost(), 0, "exchange runs before border");
        let (lo, hi) = (st.graph.sub.lo[dim], st.graph.sub.hi[dim]);
        self.emigrate(&mut st.atoms, |x| {
            let dir = match x[dim] {
                v if v < lo => 0,
                v if v >= hi => 1,
                _ => return None,
            };
            let s = shifts[dir];
            *x = [x[0] + s[0], x[1] + s[1], x[2] + s[2]];
            // The receiving sub-box is half-open [lo, hi). An atom a hair
            // below the global lower face can round onto the global upper
            // face after the +L shift, outside the receiver's box, and
            // would ping-pong between the boundary ranks on every rebuild:
            // nudge it one ulp inside. The mirror case, a -L shift rounding
            // below the global lower face, clamps onto that face, inside.
            if s[dim] > 0.0 && x[dim] >= lo + s[dim] {
                x[dim] = (lo + s[dim]).next_down();
            } else if s[dim] < 0.0 && x[dim] < hi + s[dim] {
                x[dim] = hi + s[dim];
            }
            Some(dim * 2 + dir)
        });
    }

    /// The owner-directed Exchange builder for irregular graphs, one edge
    /// per entry of [`crate::sf::CommGraph::migrate_peers`]: a local that
    /// left the sub-box is wrapped into the global box in place, and goes
    /// to the peer that owns it there unless that is this rank.
    pub fn select_exchange(&mut self, st: &mut RankState) {
        let (graph, n) = (&st.graph, st.graph.migrate_peers().len());
        self.reset(&mut st.atoms, std::iter::repeat_n([0.0; 3], n));
        let global = *graph.global_box();
        self.emigrate(&mut st.atoms, |x| {
            if graph.sub.contains(x) {
                return None;
            }
            *x = wrap_for_exchange(&global, *x);
            let owner = graph.owner_of(x);
            let peer = graph.migrate_peers().iter().position(|p| p.rank == owner);
            // Within one rebuild interval atoms cannot outrun the ghost
            // cutoff, so the new owner is always a halo peer; keep the atom
            // (wrapped) rather than lose it if that is ever violated.
            debug_assert!(owner == graph.me || peer.is_some(), "{x:?} outran the halo");
            peer.filter(|_| owner != graph.me)
        });
    }

    /// Walk the locals: `route` keeps one (`None`, possibly after moving it
    /// in place) or names the edge it emigrates on. An emigrant is swapped
    /// out of the locals and waits past `nlocal` until the post streams it.
    fn emigrate(
        &mut self,
        atoms: &mut Atoms,
        mut route: impl FnMut(&mut [f64; 3]) -> Option<usize>,
    ) {
        let mut i = 0;
        while i < atoms.nlocal {
            match route(&mut atoms.x[i]) {
                Some(e) => self.edges[e].send.push(atoms.swap_out_local(i) as u32),
                None => i += 1,
            }
        }
    }

    /// Stream edge `e`'s Border records into any [`F64Sink`], the way
    /// [`GhostLayout::pack`] streams a ghost op: per send-list atom its
    /// packed tag and type, then its position `+ shift`.
    pub fn pack_border(&self, e: usize, st: &RankState, out: &mut impl F64Sink) {
        let (a, edge) = (&st.atoms, &self.edges[e]);
        let s = edge.shift;
        for &i in &edge.send {
            let (i, x) = (i as usize, a.x[i as usize]);
            let shifted = [x[0] + s[0], x[1] + s[1], x[2] + s[2]];
            wire::put_record(out, a.tag[i], a.typ[i], &shifted);
        }
    }

    /// Stream edge `e`'s Exchange records into any [`F64Sink`]: per
    /// emigrant its packed tag and type, then its position (already moved)
    /// and velocity.
    pub(crate) fn pack_migrants(&self, e: usize, st: &RankState, out: &mut impl F64Sink) {
        let a = &st.atoms;
        for &i in &self.edges[e].send {
            let (i, x, v) = (i as usize, a.x[i as usize], a.v[i as usize]);
            let body = [x[0], x[1], x[2], v[0], v[1], v[2]];
            wire::put_record(out, a.tag[i], a.typ[i], &body);
        }
    }

    /// Append the border records received along edge `e`, streamed from
    /// any [`F64Source`], as its ghost segment. Engines call this in edge
    /// order, so the ghost layout is deterministic across runs.
    pub fn append_ghosts(&mut self, st: &mut RankState, e: usize, src: impl F64Source) {
        let start = st.atoms.ntotal();
        st.atoms.reserve(src.remaining() / wire::BORDER_RECORD_F64S);
        wire::for_each_record(src, wire::BORDER_RECORD_F64S, |tag, typ, x| {
            st.atoms.push_ghost([x[0], x[1], x[2]], typ, tag);
        });
        self.edges[e].ghosts = (start, st.atoms.ntotal() - start);
    }

    /// Adopt the migrants streamed from any [`F64Source`] (a decoded
    /// slice, or the bytes they landed in) as local atoms. The emigrants
    /// this rank parked were streamed when the round was posted, so they
    /// are dropped first.
    pub fn adopt_migrants(st: &mut RankState, src: impl F64Source) {
        let atoms = &mut st.atoms;
        atoms.clear_ghosts();
        wire::for_each_record(src, wire::EXCHANGE_RECORD_F64S, |tag, typ, r| {
            atoms.push_local([r[0], r[1], r[2]], [r[3], r[4], r[5]], typ, tag);
        });
    }

    /// `(first ghost index, count)` of edge `e`'s ghost segment.
    #[must_use]
    pub fn segment(&self, e: usize) -> (usize, usize) {
        self.edges[e].ghosts
    }

    /// Atoms `op` gathers on edge `e` when `packing`, or scatters to when
    /// not: a bcast packs the send list and unpacks the ghost segment, a
    /// reduce the other way round.
    fn atoms(&self, op: GhostOp, e: usize, packing: bool) -> usize {
        if op.toward_ghosts() == packing {
            self.edges[e].send.len()
        } else {
            self.edges[e].ghosts.1
        }
    }

    /// Payload size (f64s) [`GhostLayout::pack`] produces for `(op, e)` —
    /// known from the layout before any packing.
    #[must_use]
    pub fn len(&self, op: GhostOp, e: usize) -> usize {
        op.unit() * self.atoms(op, e, true)
    }

    /// Stream the payload of `(op, e)` into any [`F64Sink`]: a bcast
    /// gathers the send list (positions travel `+shift`), a reduce the
    /// ghost segment. Same values, same order, whatever the sink.
    pub fn pack(&self, op: GhostOp, e: usize, st: &RankState, out: &mut impl F64Sink) {
        let edge = &self.edges[e];
        let (start, count) = edge.ghosts;
        match op {
            GhostOp::Forward => {
                let s = edge.shift;
                for &i in &edge.send {
                    let x = st.atoms.x[i as usize];
                    out.put_f64s(&[x[0] + s[0], x[1] + s[1], x[2] + s[2]]);
                }
            }
            GhostOp::ForwardScalar => {
                for &i in &edge.send {
                    out.put_f64(st.scalar[i as usize]);
                }
            }
            GhostOp::Reverse => out.put_f64s(st.atoms.f[start..start + count].as_flattened()),
            GhostOp::ReverseScalar => out.put_f64s(&st.scalar[start..start + count]),
        }
    }

    /// Apply the payload received for `(op, e)`, streamed from any
    /// [`F64Source`]: a bcast overwrites the ghost segment, a reduce
    /// accumulates into the send-list atoms — which under the staged
    /// carry-forward may themselves be ghosts whose sum continues homeward
    /// in a later reduce round.
    pub fn unpack(&self, op: GhostOp, e: usize, st: &mut RankState, mut src: impl F64Source) {
        let edge = &self.edges[e];
        let (start, count) = edge.ghosts;
        assert_eq!(
            src.remaining(),
            op.unit() * self.atoms(op, e, false),
            "{op:?} payload size mismatch on edge {e}"
        );
        match op {
            GhostOp::Forward => src.get_f64s(st.atoms.x[start..start + count].as_flattened_mut()),
            GhostOp::ForwardScalar => src.get_f64s(&mut st.scalar[start..start + count]),
            GhostOp::Reverse => {
                let mut v = [0.0; 3];
                for &i in &edge.send {
                    src.get_f64s(&mut v);
                    let f = &mut st.atoms.f[i as usize];
                    f.iter_mut().zip(v).for_each(|(fd, vd)| *fd += vd);
                }
            }
            GhostOp::ReverseScalar => {
                for &i in &edge.send {
                    st.scalar[i as usize] += src.get_f64();
                }
            }
        }
    }
}

/// What one outgoing message carries: an op over one layout edge, sized
/// from the layout up front and streamed from it into the transport's
/// buffer — decided by the op, never by an option.
#[derive(Debug, Clone, Copy)]
pub enum Payload {
    /// Exchange's records: the emigrants on the edge's send list, staged
    /// like Border's.
    Exchange(usize),
    /// Border's records: the edge's send list, staged (LAMMPS copies them).
    Border(usize),
    /// A ghost op: zero-copy, streamed straight into the transport's
    /// buffer.
    Ghost(GhostOp, usize),
}

impl Payload {
    /// The payload `op` sends on layout edge `layout`.
    #[must_use]
    pub fn of(op: Op, layout: usize) -> Self {
        match op.kind() {
            OpKind::Ghost(g) => Payload::Ghost(g, layout),
            OpKind::Border => Payload::Border(layout),
            OpKind::Exchange => Payload::Exchange(layout),
        }
    }

    /// Payload size in f64s.
    #[must_use]
    pub fn len(&self, layout: &GhostLayout) -> usize {
        match *self {
            Payload::Exchange(e) => wire::EXCHANGE_RECORD_F64S * layout.edges[e].send.len(),
            Payload::Border(e) => wire::BORDER_RECORD_F64S * layout.edges[e].send.len(),
            Payload::Ghost(op, e) => layout.len(op, e),
        }
    }

    /// Stream the values into `out`.
    pub fn write(&self, layout: &GhostLayout, st: &RankState, out: &mut impl F64Sink) {
        match *self {
            Payload::Exchange(e) => layout.pack_migrants(e, st, out),
            Payload::Border(e) => layout.pack_border(e, st, out),
            Payload::Ghost(op, e) => layout.pack(op, e, st, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{staged_shifts, staged_sweep};
    use crate::sf::{CommGraph, GraphEdge, PlanConfig};
    use crate::topo_map::{Placement, RankMap};
    use proptest::prelude::*;
    use tofumd_md::region::Box3;
    use tofumd_tofu::CellGrid;

    const OPS: [GhostOp; 4] = [
        GhostOp::Forward,
        GhostOp::Reverse,
        GhostOp::ForwardScalar,
        GhostOp::ReverseScalar,
    ];

    /// Rank 0 of the 768-node machine with a 10^3 sub-box at the grid
    /// origin, its face edges (`[toward -dim, toward +dim]` per dim), and
    /// the graph's selector.
    fn setup(pos: Vec<[f64; 3]>) -> (RankState, [[GraphEdge; 2]; 3], SendSelector) {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        let graph = CommGraph::grid(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let links = [0, 1, 2].map(|dim| graph.face_edges(dim).unwrap().map(|(.., e)| *e));
        let sel = graph.selector();
        (
            RankState::new(Atoms::from_positions(pos, 1), graph),
            links,
            sel,
        )
    }

    fn p2p_layout(st: &mut RankState) -> GhostLayout {
        let mut g = GhostLayout::default();
        g.reset(&mut st.atoms, st.graph.send.iter().map(|e| e.shift));
        g
    }

    fn staged_layout(st: &mut RankState, links: &[[GraphEdge; 2]; 3], swaps: usize) -> GhostLayout {
        let mut g = GhostLayout::default();
        g.reset(&mut st.atoms, staged_shifts(links.as_flattened(), swaps));
        g
    }

    fn total_send_atoms(g: &GhostLayout) -> usize {
        g.edges.iter().map(|e| e.send.len()).sum()
    }

    /// Edge `e`'s Border records as the vector the wire oracles parse.
    fn records(g: &GhostLayout, e: usize, st: &RankState) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        g.pack_border(e, st, &mut out);
        assert_eq!(out.len(), Payload::Border(e).len(g));
        out
    }

    #[test]
    fn face_edges_point_at_grid_neighbors() {
        let (_, links, _) = setup(vec![[5.0; 3]]);
        assert_eq!(links[0][1].offset.d, [1, 0, 0]);
        assert_eq!(links[2][0].offset.d, [0, 0, -1]);
        assert!(links[0][0].shift[0] > 0.0, "wrap at the origin");
        assert_eq!(links[0][1].shift, [0.0; 3]);
    }

    #[test]
    fn staged_sweeps_cover_every_edge_once_and_reduce_backwards() {
        for swaps in 1..=2 {
            let rounds = 3 * swaps;
            let fwd: Vec<_> = (0..rounds)
                .map(|r| staged_sweep(Op::Forward, r, swaps))
                .collect();
            let rev: Vec<_> = (0..rounds)
                .map(|r| staged_sweep(Op::ReverseScalar, r, swaps))
                .collect();
            for (round, &(sweep, dim)) in fwd.iter().enumerate() {
                assert_eq!((sweep, dim), (round, round / swaps));
                assert_eq!(staged_sweep(Op::Border, round, swaps), (sweep, dim));
                assert_eq!(rev[rounds - 1 - round], (sweep, dim));
            }
        }
        assert_eq!(staged_sweep(Op::Exchange, 2, 2), (2, 2));
    }

    #[test]
    fn interior_atoms_are_not_selected() {
        let (mut st, _, sel) = setup(vec![[5.0, 5.0, 5.0]]);
        let mut g = p2p_layout(&mut st);
        g.select_border(&st, &sel);
        assert!((0..g.edges.len()).all(|k| records(&g, k, &st).is_empty()));
        assert_eq!(total_send_atoms(&g), 0);
    }

    #[test]
    fn corner_atom_selected_toward_matching_edges() {
        // Atom near the low-x low-y low-z corner: goes to every send edge
        // whose offset has non-positive components matching those faces.
        let (mut st, _, sel) = setup(vec![[0.5, 0.5, 0.5]]);
        let mut g = p2p_layout(&mut st);
        g.select_border(&st, &sel);
        let payloads: Vec<_> = (0..g.edges.len()).map(|k| records(&g, k, &st)).collect();
        // send edges = lower-half offsets; the --- corner matches 7 of 13.
        assert_eq!(payloads.iter().filter(|p| !p.is_empty()).count(), 7);
        for (k, p) in payloads.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            assert_eq!(p.len(), wire::BORDER_RECORD_F64S);
            // The record carries the tag and the edge's shifted position.
            let (tag, _, x) = wire::parse_border_records(p)[0];
            let s = st.graph.send[k].shift;
            assert_eq!((tag, x), (1, [0.5 + s[0], 0.5 + s[1], 0.5 + s[2]]));
        }
    }

    #[test]
    fn ghost_segments_follow_edge_order() {
        let (mut st, _, _) = setup(vec![[5.0; 3]]);
        let mut g = p2p_layout(&mut st);
        let mut per_edge: Vec<Vec<f64>> = vec![Vec::new(); st.graph.recv.len()];
        wire::put_record(&mut per_edge[0], 11, 1, &[1.0; 3]);
        wire::put_record(&mut per_edge[0], 12, 1, &[2.0; 3]);
        wire::put_record(&mut per_edge[2], 13, 1, &[3.0; 3]);
        for (k, p) in per_edge.iter().enumerate() {
            g.append_ghosts(&mut st, k, p.as_slice());
        }
        assert_eq!(g.segment(0), (1, 2));
        assert_eq!(g.segment(1), (3, 0));
        assert_eq!(g.segment(2), (3, 1));
        assert_eq!(st.atoms.nghost(), 3);
        assert_eq!(st.atoms.tag[1..], [11, 12, 13]);
        // The same records as little-endian bytes land identically.
        let mut again = p2p_layout(&mut st);
        for (k, p) in per_edge.iter().enumerate() {
            again.append_ghosts(&mut st, k, wire::LeF64s::new(&wire::encode_f64s(p)));
        }
        assert_eq!((again.segment(0), again.segment(2)), ((1, 2), (3, 1)));
        assert_eq!(st.atoms.tag[1..], [11, 12, 13]);
        assert_eq!(st.atoms.x[2], [2.0; 3]);
        // A new border pass starts from a clean slate.
        g.reset(&mut st.atoms, [[0.0; 3]]);
        assert_eq!((st.atoms.nghost(), g.segment(0)), (0, (0, 0)));
    }

    #[test]
    fn sweep_selects_slabs_only() {
        let (mut st, links, _) = setup(vec![[0.5, 5.0, 5.0], [5.0, 5.0, 5.0], [9.5, 5.0, 5.0]]);
        let mut g = staged_layout(&mut st, &links, 1);
        g.sweep_border(&st, 0, 1);
        let p = [records(&g, 0, &st), records(&g, 1, &st)];
        assert_eq!(p[0].len(), wire::BORDER_RECORD_F64S);
        assert_eq!(p[1].len(), wire::BORDER_RECORD_F64S);
        assert_eq!(g.edges[0].send, vec![0]);
        assert_eq!(g.edges[1].send, vec![2]);
        // The -x face wraps the global boundary: the shift rides along.
        assert!(wire::parse_border_records(&p[0])[0].2[0] > 10.0);
    }

    #[test]
    fn carry_forward_ships_prior_dim_ghosts() {
        let (mut st, links, _) = setup(vec![[5.0, 5.0, 5.0]]);
        let mut g = staged_layout(&mut st, &links, 1);
        let mut ghost_payload: Vec<f64> = Vec::new();
        wire::put_record(&mut ghost_payload, 99, 1, &[-0.5, 0.3, 5.0]);
        g.append_ghosts(&mut st, 0, ghost_payload.as_slice());
        g.append_ghosts(&mut st, 1, &[][..]);
        assert_eq!(st.atoms.nghost(), 1);
        g.sweep_border(&st, 1, 1);
        assert_eq!(g.edges[2].send, vec![st.atoms.nlocal as u32]);
        let recs = wire::parse_border_records(&records(&g, 2, &st));
        assert_eq!(recs[0].0, 99, "carried ghost keeps its original tag");
    }

    #[test]
    fn multi_swap_relays_opposite_face_ghosts() {
        // Two swaps: a ghost received from the -x side in swap 0 that sits
        // in MY +x band (r = 2.0, so x in [hi - r, ..)) must be relayed
        // toward +x in swap 1, and only there.
        let (mut st, links, _) = setup(vec![[5.0, 5.0, 5.0]]);
        let mut g = staged_layout(&mut st, &links, 2);
        let mut from_minus: Vec<f64> = Vec::new();
        wire::put_record(&mut from_minus, 77, 1, &[8.5, 5.0, 5.0]);
        g.append_ghosts(&mut st, 0, from_minus.as_slice());
        g.append_ghosts(&mut st, 1, &[][..]);
        g.sweep_border(&st, 1, 2);
        assert_eq!(g.edges[3].send, vec![st.atoms.nlocal as u32]);
        assert!(g.edges[2].send.is_empty());
        let p = records(&g, 3, &st);
        assert_eq!(wire::parse_border_records(&p)[0].0, 77);
        // Locals are NOT rescanned in swap 1 (they shipped in swap 0).
        assert_eq!(p.len(), wire::BORDER_RECORD_F64S);
    }

    #[test]
    fn full_shell_volume_matches_the_slab_estimate() {
        let n = 20;
        let pos: Vec<[f64; 3]> = (0..n * n * n)
            .map(|i| {
                let c = |v: usize| (v as f64 + 0.5) * 0.5;
                [c(i % n), c(i / n % n), c(i / n / n)]
            })
            .collect();
        let natoms = pos.len() as f64;
        let (mut st, links, _) = setup(pos);
        let mut g = staged_layout(&mut st, &links, 1);
        for sweep in 0..3 {
            g.sweep_border(&st, sweep, 1);
            let p = [0, 1].map(|dir| records(&g, sweep * 2 + dir, &st));
            for dir in 0..2 {
                g.append_ghosts(&mut st, sweep * 2 + dir, p[dir].as_slice());
            }
        }
        let (a, r) = (10.0f64, 2.0f64);
        let density = natoms / a.powi(3);
        let expect = density * (6.0 * a * a * r + 12.0 * a * r * r + 8.0 * r * r * r);
        let got = total_send_atoms(&g) as f64;
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.15, "staged volume {got} vs estimate {expect}");
    }

    /// Exchange's first sweep over `st`: the x faces' two payloads,
    /// `[toward -x, toward +x]`.
    fn sweep_x(st: &mut RankState) -> [Vec<f64>; 2] {
        let mut g = GhostLayout::default();
        let shifts = st.graph.face_edges(0).unwrap().map(|(.., e)| e.shift);
        g.sweep_exchange(st, 0, shifts);
        [0, 1].map(|e| {
            let mut out: Vec<f64> = Vec::new();
            Payload::Exchange(e).write(&g, st, &mut out);
            out
        })
    }

    /// An owner-directed Exchange over `st`: one payload per migrate peer.
    fn migrate(st: &mut RankState) -> Vec<Vec<f64>> {
        let mut g = GhostLayout::default();
        g.select_exchange(st);
        let peers = 0..st.graph.migrate_peers().len();
        peers
            .map(|p| {
                let mut out: Vec<f64> = Vec::new();
                Payload::Exchange(p).write(&g, st, &mut out);
                out
            })
            .collect()
    }

    #[test]
    fn exchange_wrap_never_lands_on_the_receiving_upper_face() {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([80.0, 240.0, 160.0]);
        let graph = CommGraph::grid(0, &map, &global, 2.8, PlanConfig::NEWTON);
        let mut st = RankState::new(Atoms::from_positions(vec![[1.0; 3]], 1), graph);
        assert_eq!(
            st.graph.sub.lo[0], 0.0,
            "rank 0 sits on the global lower face"
        );
        let shift = st.graph.face_edges(0).unwrap()[0].2.shift[0];
        assert!(shift > 0.0, "lower-face link wraps by +L");
        // An atom marginally below the global lower face: x + L rounds to
        // exactly L, the global (and receiving sub-box's) upper face.
        let x = -1e-18;
        assert_eq!(x + shift, shift, "premise: the shift absorbs the offset");
        st.atoms = Atoms::from_positions(vec![[x, 1.0, 1.0]], 7);
        let out = sweep_x(&mut st);
        assert_eq!(st.atoms.nlocal, 0);
        let recs = wire::parse_exchange_records(&out[0]);
        assert_eq!(recs.len(), 1);
        let nx = recs[0].2[0];
        assert!(
            nx < shift,
            "wrapped coordinate {nx} must stay below the global upper face {shift}"
        );
        assert!(
            shift - nx < 1e-9,
            "only a one-ulp nudge, got {}",
            shift - nx
        );
    }

    #[test]
    fn wrapped_migrant_settles_on_the_receiving_rank() {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([80.0, 240.0, 160.0]);
        let rg = map.rank_grid;
        let top = map.rank_at([i64::from(rg[0]) - 1, 0, 0]);
        let mk = |rank| CommGraph::grid(rank, &map, &global, 2.8, PlanConfig::NEWTON);
        let mut sender = RankState::new(Atoms::from_positions(vec![[-1e-18, 1.0, 1.0]], 7), mk(0));
        let mut receiver = RankState::new(Atoms::default(), mk(top));
        let out = sweep_x(&mut sender);
        GhostLayout::adopt_migrants(&mut receiver, out[0].as_slice());
        assert_eq!(receiver.atoms.nlocal, 1);
        // The migrant sits strictly inside the receiver's half-open
        // sub-box: a further exchange sweep must not move it again.
        let again = sweep_x(&mut receiver);
        assert!(
            again[0].is_empty() && again[1].is_empty(),
            "migrant must not ping-pong off the receiver"
        );
        assert_eq!(receiver.atoms.nlocal, 1);
    }

    #[test]
    fn irregular_migration_routes_atoms_to_their_owner() {
        use std::sync::Arc;
        use tofumd_md::domain::RcbDecomposition;
        let grid = CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([20.0, 16.0, 12.0]);
        let pts: Vec<[f64; 3]> = (0..200)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                [u(0) * 20.0, u(16) * 16.0, u(32) * 12.0]
            })
            .collect();
        let rcb = Arc::new(RcbDecomposition::build(4, &pts, &global));
        let graphs: Vec<CommGraph> = (0..4)
            .map(|r| CommGraph::from_rcb(r, &rcb, &map, 2.5))
            .collect();
        // Give rank 0 every atom plus one out-of-box straggler; one
        // migrate round must leave each atom on its owner.
        let mut states: Vec<RankState> = graphs
            .iter()
            .enumerate()
            .map(|(r, g)| {
                let mine: Vec<[f64; 3]> = if r == 0 {
                    let mut v = pts.clone();
                    v.push([-0.5, 1.0, 1.0]); // wraps to the +x edge
                    v
                } else {
                    Vec::new()
                };
                RankState::new(Atoms::from_positions(mine, 1), g.clone())
            })
            .collect();
        let payloads = migrate(&mut states[0]);
        let peers = states[0].graph.migrate_peers().to_vec();
        for (p, payload) in peers.iter().zip(&payloads) {
            GhostLayout::adopt_migrants(&mut states[p.rank], payload.as_slice());
        }
        let total: usize = states.iter().map(|s| s.atoms.nlocal).sum();
        assert_eq!(total, pts.len() + 1, "no atom lost in migration");
        for st in &states {
            for i in 0..st.atoms.nlocal {
                assert!(
                    st.graph.sub.contains(&st.atoms.x[i]),
                    "atom {:?} not owned by rank {}",
                    st.atoms.x[i],
                    st.graph.me
                );
            }
        }
        // A second round is a fixed point.
        for st in &mut states {
            let again = migrate(st);
            assert!(again.iter().all(Vec::is_empty), "migration must converge");
        }
    }

    /// One random edge: send-list picks (reduced modulo the atoms the
    /// pattern may index), shift, ghost-segment length.
    type EdgeSpec = (Vec<u32>, [f64; 3], usize);

    /// Lay `specs` out as a layout over `nlocal` locals followed by the
    /// ghost segments in edge order. `carry` lets send lists index ghosts
    /// too (the staged carry-forward); duplicates are always allowed.
    fn random_state(nlocal: usize, specs: &[EdgeSpec], carry: bool) -> (GhostLayout, RankState) {
        let nghost: usize = specs.iter().map(|s| s.2).sum();
        let ntotal = nlocal + nghost;
        let mut start = nlocal;
        let edges = specs
            .iter()
            .map(|(picks, shift, count)| {
                let modulus = if carry { ntotal } else { nlocal } as u32;
                let e = Edge {
                    send: picks.iter().map(|p| p % modulus).collect(),
                    shift: *shift,
                    ghosts: (start, *count),
                };
                start += count;
                e
            })
            .collect();
        let val = |i: usize, salt: f64| (i as f64 + 1.0) * salt;
        let (mut st, _, _) = setup((0..nlocal).map(|i| [val(i, 0.37); 3]).collect());
        for g in nlocal..ntotal {
            st.atoms.push_ghost([val(g, -0.11); 3], 1, g as u64 + 1);
        }
        for i in 0..ntotal {
            st.atoms.f[i] = [val(i, 1.5), val(i, -2.5), val(i, 0.25)];
            st.atoms.v[i] = [val(i, -0.5), val(i, 0.75), val(i, 3.0)];
        }
        st.scalar = (0..ntotal).map(|i| val(i, 7.0)).collect();
        let g = GhostLayout {
            edges,
            ..GhostLayout::default()
        };
        (g, st)
    }

    /// Every property the engines rely on, for every op on every edge.
    fn check_all_ops(g: &GhostLayout, st: &RankState, slack: usize) {
        for (e, edge) in g.edges.iter().enumerate() {
            // Border: the records of the send list through every sink, and
            // back into ghosts from the region's bytes.
            let vals = records(g, e, st);
            let mut region = vec![0xAAu8; wire::combined_size(vals.len()) + slack * 8];
            let mut w = wire::CombinedWriter::new(&mut region);
            Payload::Border(e).write(g, st, &mut w);
            let framed = w.finish();
            assert_eq!(&region[..framed], wire::frame_combined(&vals));
            let expect: Vec<(u64, u32, [f64; 3])> = edge
                .send
                .iter()
                .map(|&i| {
                    let (i, s) = (i as usize, edge.shift);
                    let x = st.atoms.x[i];
                    let shifted = [x[0] + s[0], x[1] + s[1], x[2] + s[2]];
                    (st.atoms.tag[i], st.atoms.typ[i], shifted)
                })
                .collect();
            assert_eq!(wire::parse_border_records(&vals), expect);
            let mut landed = RankState::new(st.atoms.clone(), st.graph.clone());
            let mut into = GhostLayout {
                edges: vec![Edge::default(); g.edges.len()],
                ..GhostLayout::default()
            };
            let body = wire::combined_body(&region[..framed]);
            into.append_ghosts(&mut landed, e, wire::LeF64s::new(body));
            let n = st.atoms.ntotal();
            assert_eq!(into.segment(e), (n, edge.send.len()));
            let got: Vec<_> = (n..landed.atoms.ntotal())
                .map(|j| (landed.atoms.tag[j], landed.atoms.typ[j], landed.atoms.x[j]))
                .collect();
            assert_eq!(got, expect);

            // Exchange: the send list's records, positions as stored, and
            // back as locals from the region's bytes.
            let len = Payload::Exchange(e).len(g);
            let mut region = vec![0xAAu8; wire::combined_size(len) + slack * 8];
            let mut w = wire::CombinedWriter::new(&mut region);
            Payload::Exchange(e).write(g, st, &mut w);
            let framed = w.finish();
            let body = wire::combined_body(&region[..framed]);
            assert_eq!(body.len(), 8 * len);
            let expect: Vec<_> = edge
                .send
                .iter()
                .map(|&i| {
                    let (a, i) = (&st.atoms, i as usize);
                    (a.tag[i], a.typ[i], a.x[i], a.v[i])
                })
                .collect();
            assert_eq!(
                wire::parse_exchange_records(&wire::decode_f64s(body)),
                expect
            );
            let mut adopted = RankState::new(st.atoms.clone(), st.graph.clone());
            GhostLayout::adopt_migrants(&mut adopted, wire::LeF64s::new(body));
            let (a, n) = (&adopted.atoms, st.atoms.nlocal);
            assert_eq!((a.nghost(), a.nlocal), (0, n + edge.send.len()));
            let got: Vec<_> = (n..a.nlocal)
                .map(|j| (a.tag[j], a.typ[j], a.x[j], a.v[j]))
                .collect();
            assert_eq!(got, expect);

            let (start, count) = edge.ghosts;
            for op in OPS {
                // pack: same values through every sink, `len` as promised.
                let mut vals: Vec<f64> = Vec::new();
                g.pack(op, e, st, &mut vals);
                assert_eq!(vals.len(), g.len(op, e));
                assert_eq!(Payload::Ghost(op, e).len(g), vals.len());
                let mut region = vec![0xAAu8; wire::combined_size(vals.len()) + slack * 8];
                let mut w = wire::CombinedWriter::new(&mut region);
                Payload::Ghost(op, e).write(g, st, &mut w);
                let framed = w.finish();
                assert_eq!(&region[..framed], wire::frame_combined(&vals));
                let mut bytes = vec![0u8; 8 * vals.len()];
                g.pack(op, e, st, &mut &mut bytes[..]);
                assert_eq!(bytes, wire::encode_f64s(&vals));
                let expect: Vec<f64> = match op {
                    GhostOp::Forward => edge
                        .send
                        .iter()
                        .flat_map(|&i| (0..3).map(move |d| (i as usize, d)))
                        .map(|(i, d)| st.atoms.x[i][d] + edge.shift[d])
                        .collect(),
                    GhostOp::ForwardScalar => {
                        edge.send.iter().map(|&i| st.scalar[i as usize]).collect()
                    }
                    GhostOp::Reverse => st.atoms.f[start..start + count].concat(),
                    GhostOp::ReverseScalar => st.scalar[start..start + count].to_vec(),
                };
                assert_eq!(&vals, &expect);

                // unpack: feed the mirror-sized payload a peer would send.
                let n_in = op.unit() * g.atoms(op, e, false);
                let incoming: Vec<f64> = (0..n_in).map(|j| 100.0 + j as f64 * 0.5).collect();
                let mut after = RankState::new(st.atoms.clone(), st.graph.clone());
                after.scalar = st.scalar.clone();
                g.unpack(op, e, &mut after, incoming.as_slice());
                // The same payload as region bytes scatters identically.
                let mut from_bytes = RankState::new(st.atoms.clone(), st.graph.clone());
                from_bytes.scalar = st.scalar.clone();
                let le = wire::encode_f64s(&incoming);
                g.unpack(op, e, &mut from_bytes, wire::LeF64s::new(&le));
                let mut x = st.atoms.x.clone();
                let mut f = st.atoms.f.clone();
                let mut scalar = st.scalar.clone();
                match op {
                    // A bcast overwrites exactly the ghost segment.
                    GhostOp::Forward => {
                        for (j, v) in incoming.chunks_exact(3).enumerate() {
                            x[start + j] = [v[0], v[1], v[2]];
                        }
                    }
                    GhostOp::ForwardScalar => {
                        scalar[start..start + count].copy_from_slice(&incoming);
                    }
                    // A reduce accumulates, duplicate indices included.
                    GhostOp::Reverse => {
                        for (&i, v) in edge.send.iter().zip(incoming.chunks_exact(3)) {
                            for d in 0..3 {
                                f[i as usize][d] += v[d];
                            }
                        }
                    }
                    GhostOp::ReverseScalar => {
                        for (&i, v) in edge.send.iter().zip(&incoming) {
                            scalar[i as usize] += v;
                        }
                    }
                }
                for got in [&after, &from_bytes] {
                    assert_eq!(&got.atoms.x, &x);
                    assert_eq!(&got.atoms.f, &f);
                    assert_eq!(&got.scalar, &scalar);
                }
            }
        }
    }

    fn edge_spec() -> impl Strategy<Value = EdgeSpec> {
        (
            prop::collection::vec(0u32..1000, 0..12),
            prop::array::uniform3(-30.0f64..30.0),
            0usize..5,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The typed ghost op on a p2p-indexed layout (edge id = `k`,
        /// send lists index locals) and on a staged-indexed one (edge id =
        /// `(dim * swaps + swap) * 2 + dir`, send lists may carry ghosts).
        #[test]
        fn ghost_ops_gather_and_scatter_exactly(
            nlocal in 1usize..12,
            p2p in prop::collection::vec(edge_spec(), 1..8),
            staged in prop::collection::vec(edge_spec(), 12..13),
            swaps in 1usize..3,
            slack in 0usize..8,
        ) {
            let (g, st) = random_state(nlocal, &p2p, false);
            check_all_ops(&g, &st, slack);
            let (g, st) = random_state(nlocal, &staged[..6 * swaps], true);
            check_all_ops(&g, &st, slack);
            // The staged engines reach every edge exactly once per op.
            let mut seen = vec![0; 6 * swaps];
            for round in 0..3 * swaps {
                for dir in 0..2 {
                    seen[staged_sweep(Op::Forward, round, swaps).0 * 2 + dir] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&n| n == 1));
        }
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn wrong_sized_payload_is_rejected() {
        let (g, mut st) = random_state(2, &[(vec![0, 1], [0.0; 3], 1)], false);
        g.unpack(GhostOp::Reverse, 0, &mut st, [1.0; 3].as_slice());
    }
}
