//! The star-forest communication graph (PetscSF-style).
//!
//! A [`CommGraph`] describes one rank's halo relationships over an
//! *arbitrary* neighbor set: `recv` edges are leaves rooted on a peer
//! (ghosts I hold), `send` edges are roots whose leaves live on a peer
//! (my border atoms the peer mirrors). The three star-forest primitives
//! map onto the engine operations: **bcast** (root → leaf) is the
//! border/forward family, **reduce** (leaf → root) is the reverse family,
//! and **migrate** moves root ownership itself on reneighbor steps.
//!
//! Two constructors exist today:
//!
//! * [`CommGraph::grid`] lays out the uniform brick grid (Table 1) in one
//!   pass: `recv[k]` toward the k-th offset of the [`PlanConfig`]'s
//!   neighbor set (13, 26, 62 or 124), `send[k]` toward its opposite, so
//!   the pairing index is the same on both sides (`peer_index == k`),
//!   plus the six face edges the staged migration sweeps.
//! * [`CommGraph::from_rcb_parts`] derives every part's edge set from a
//!   recursive-coordinate-bisection decomposition: an edge exists for each
//!   `(peer, periodic image)` whose box comes within `r_ghost` of mine.
//!
//! Determinism contract: edge lists are ordered by `(peer rank, image
//! vector)`, pairing indices are looked up in the peer's list of the one
//! table a decomposition computes, and the lockstep driver completes
//! receives in edge order — so completion order (and the virtual clock)
//! is a pure function of the decomposition, never of thread scheduling.

use crate::topo_map::RankMap;
use std::cell::OnceCell;
use std::sync::Arc;
use tofumd_md::domain::{neighbor_offsets, NeighborOffset, RcbDecomposition};
use tofumd_md::region::Box3;
use tofumd_tofu::{FaultKind, FaultRule, TofuError};

/// Which neighbor set a grid graph spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanConfig {
    /// Neighbor shells: 1 for the common regime, 2 for the 62/124-neighbor
    /// extended experiment (Fig. 15).
    pub shells: usize,
    /// Newton's 3rd law halving: receive ghosts from the upper half only.
    pub half: bool,
}

impl PlanConfig {
    /// The paper's main configuration: 1 shell, Newton on (13 neighbors).
    pub const NEWTON: PlanConfig = PlanConfig {
        shells: 1,
        half: true,
    };
    /// Full-neighbor-list potentials: 1 shell, 26 neighbors.
    pub const FULL: PlanConfig = PlanConfig {
        shells: 1,
        half: false,
    };
}

/// One directed halo edge of the star forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphEdge {
    /// Grid offset to the peer (zero for irregular graphs). It sizes the
    /// grid's buffers and finds its face edges for the migration sweeps;
    /// Border selection reads `region` instead, on both graph kinds.
    pub offset: NeighborOffset,
    /// The peer's rank id.
    pub rank: usize,
    /// The peer's node id.
    pub node: usize,
    /// Network hops to the peer.
    pub hops: u32,
    /// Periodic shift added to *my* atom positions when they travel along
    /// this edge (send edges); for recv edges, the shift the peer adds, so
    /// arriving ghosts are already in my frame.
    pub shift: [f64; 3],
    /// The peer's sub-box translated into my frame: for send edges the
    /// region whose `r_ghost`-expansion selects my border atoms (on grid
    /// graphs spelled from my own faces and unbounded on the sides away
    /// from me); for recv edges the region arriving ghosts land in.
    pub region: Box3,
    /// Index of this relationship in the peer's opposite edge list: my
    /// `send[k]` is the peer's `recv[send[k].peer_index]` and vice versa.
    /// Message tags and address-book slots use this, so irregular graphs
    /// (where the pairing is not index-symmetric) stay unambiguous. On
    /// grid graphs `peer_index == k` by construction.
    pub peer_index: usize,
}

/// One partner of the single-round irregular migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigratePeer {
    /// The peer's rank id.
    pub rank: usize,
    /// The peer's node id.
    pub node: usize,
    /// My index in the peer's own migrate list — the tag the peer expects
    /// my migrants under.
    pub tag_index: usize,
}

/// What the graph was built from: the uniform grid keeps its staged
/// face-sweep machinery; irregular graphs carry the owner lookup instead.
#[derive(Debug, Clone)]
enum Topology {
    Grid {
        config: PlanConfig,
    },
    Irregular {
        rcb: Arc<RcbDecomposition>,
        migrate: Vec<MigratePeer>,
        /// Physical rank of each RCB part. Identity for full-width graphs;
        /// a shrunken recovery graph maps part `p` to the `p`-th survivor,
        /// so `owner_of` keeps answering in physical-rank space.
        rank_of: Arc<[usize]>,
    },
}

/// A rank's star-forest communication graph.
#[derive(Debug, Clone)]
pub struct CommGraph {
    /// This rank.
    pub me: usize,
    /// This rank's sub-box.
    pub sub: Box3,
    /// Ghost cutoff (force cutoff + skin).
    pub r_ghost: f64,
    /// Edges I receive ghost atoms along (and reduce forces back along).
    pub recv: Vec<GraphEdge>,
    /// Edges I broadcast my border atoms along. `send[k]` mirrors
    /// `recv[k]`: same peer rank, opposite periodic image.
    pub send: Vec<GraphEdge>,
    topology: Topology,
}

/// Grow a box by `r` on every face.
#[must_use]
pub fn expand(b: &Box3, r: f64) -> Box3 {
    Box3::new(
        [b.lo[0] - r, b.lo[1] - r, b.lo[2] - r],
        [b.hi[0] + r, b.hi[1] + r, b.hi[2] + r],
    )
}

/// A part's `(peer, image)` pairs and migrate partners ([`RcbForest`]).
type PartPairs = (Vec<(usize, [i32; 3])>, Vec<usize>);

/// One RCB decomposition's star forest, part `p` on rank `rank_of[p]`:
/// each part's `(peer, image)` pairs — every periodic image of a peer's
/// box within `r_ghost` of the part's, in `(peer, image)` order — and its
/// migrate partners (those peers but itself, deduplicated), computed on
/// first use and kept: a forest computes each part's once, a single graph
/// only its own and its peers'.
struct RcbForest<'a> {
    rcb: &'a Arc<RcbDecomposition>,
    r_ghost: f64,
    rank_of: Arc<[usize]>,
    pairs: Vec<OnceCell<PartPairs>>,
}

impl<'a> RcbForest<'a> {
    fn new(rcb: &'a Arc<RcbDecomposition>, r_ghost: f64, rank_of: &[usize]) -> Self {
        let (n, l) = (rcb.boxes.len(), rcb.global.lengths());
        assert_eq!(rank_of.len(), n, "rank_of must cover every RCB part");
        assert!(l.iter().all(|&l| r_ghost < l), "r_ghost spans the box");
        let (rank_of, pairs) = (rank_of.into(), (0..n).map(|_| OnceCell::new()).collect());
        RcbForest {
            rcb,
            r_ghost,
            rank_of,
            pairs,
        }
    }

    fn pairs(&self, part: usize) -> &PartPairs {
        self.pairs[part].get_or_init(|| {
            let (rcb, r, mut pairs) = (self.rcb, self.r_ghost, Vec::new());
            let (l, me) = (rcb.global.lengths(), rcb.boxes[part]);
            for (peer, pb) in rcb.boxes.iter().enumerate() {
                // An axis at a time, the shifts s along d whose image of
                // the peer's box comes within r: both gaps are spelled so
                // that swapping the boxes and negating s gives the same
                // floats, so the peer finds the mirror pair bit for bit.
                let at = |d: usize| {
                    (-1..=1).filter(move |&s| {
                        let o = f64::from(s) * l[d];
                        me.lo[d] - pb.hi[d] - o < r && pb.lo[d] - me.hi[d] + o < r
                    })
                };
                for img in
                    at(0).flat_map(|x| at(1).flat_map(move |y| at(2).map(move |z| [x, y, z])))
                {
                    if peer != part || img != [0; 3] {
                        pairs.push((peer, img));
                    }
                }
            }
            let mut peers: Vec<usize> = pairs.iter().map(|&(p, _)| p).collect();
            peers.dedup();
            peers.retain(|&p| p != part);
            (pairs, peers)
        })
    }

    /// The graph of `part`: an edge per pair, its pairing index one binary
    /// search for `(part, -image)` in the peer's pairs, each migrate tag
    /// one for `part` in the peer's partners.
    fn graph(&self, part: usize, map: &RankMap) -> CommGraph {
        let (rcb, rank_of, l) = (self.rcb, &self.rank_of, self.rcb.global.lengths());
        let shift_of = |img: [i32; 3]| [0, 1, 2].map(|d| f64::from(img[d]) * l[d]);
        let (pairs, partners) = self.pairs(part);
        let mut recv = Vec::with_capacity(pairs.len());
        let mut send = Vec::with_capacity(pairs.len());
        for &(peer, img) in pairs {
            // My recv edge mirrors the peer's send edge (part, img), which
            // sits where its recv edge (part, -img) — my send edge's
            // mirror — does: one index serves both.
            let neg = img.map(|s| -s);
            let Ok(peer_index) = self.pairs(peer).0.binary_search(&(part, neg)) else {
                panic!("part {peer} is missing the mirror edge {neg:?} of part {part}");
            };
            let (pb, rank, shift) = (rcb.boxes[peer], rank_of[peer], shift_of(img));
            let mut edge = GraphEdge {
                offset: NeighborOffset { d: [0; 3] },
                rank,
                node: map.node_of(rank),
                hops: map.hops(rank_of[part], rank),
                shift,
                region: Box3 {
                    lo: [0, 1, 2].map(|d| pb.lo[d] + shift[d]),
                    hi: [0, 1, 2].map(|d| pb.hi[d] + shift[d]),
                },
                peer_index,
            };
            // The peer's atoms arrive shifted by +img·L into my frame;
            // mine leave toward it shifted by -img·L.
            recv.push(edge);
            edge.shift = shift_of(neg);
            send.push(edge);
        }
        let tag = |peer: usize| self.pairs(peer).1.binary_search(&part);
        let migrate = partners.iter().map(|&peer| MigratePeer {
            rank: rank_of[peer],
            node: map.node_of(rank_of[peer]),
            tag_index: tag(peer).unwrap_or(usize::MAX),
        });
        CommGraph {
            me: rank_of[part],
            sub: rcb.boxes[part],
            r_ghost: self.r_ghost,
            recv,
            send,
            topology: Topology::Irregular {
                rcb: rcb.clone(),
                migrate: migrate.collect(),
                rank_of: rank_of.clone(),
            },
        }
    }
}

/// Migration peer lists for a decomposition swap. `needs[r]` is the set of
/// ranks that `r` must ship migrants to under the *new* decomposition; the
/// result is the symmetric closure (if r ships to p, both list each other,
/// so every pair posts matching sends and recvs even when one direction is
/// empty), sorted, with cross-consistent `tag_index` values — rank r's
/// entry for p records r's position in p's own list.
#[must_use]
pub fn rebalance_migrate_peers(needs: &[Vec<usize>], map: &RankMap) -> Vec<Vec<MigratePeer>> {
    let n = needs.len();
    let mut adj = vec![Vec::new(); n];
    for (r, dests) in needs.iter().enumerate() {
        for &d in dests {
            assert!(d < n, "migrant destination {d} outside the rank set");
            if d != r {
                adj[r].push(d);
                adj[d].push(r);
            }
        }
    }
    for peers in &mut adj {
        peers.sort_unstable();
        peers.dedup();
    }
    (0..n)
        .map(|r| {
            adj[r]
                .iter()
                .map(|&p| MigratePeer {
                    rank: p,
                    node: map.node_of(p),
                    tag_index: adj[p].binary_search(&r).unwrap_or(usize::MAX),
                })
                .collect()
        })
        .collect()
}

impl CommGraph {
    /// Build the star forest of `rank` on `map`'s uniform rank grid over
    /// `global`, every edge in one pass: `recv[k]` points at the neighbor
    /// at the k-th offset of `config`'s neighbor set, `send[k]` at the one
    /// at its opposite offset (so `peer_index == k` on both sides). The
    /// six face offsets `±e_d` are in every neighbor set, so the staged
    /// sweeps and the migration find their edges among these
    /// ([`CommGraph::face_edges`]).
    #[must_use]
    pub fn grid(
        rank: usize,
        map: &RankMap,
        global: &Box3,
        r_ghost: f64,
        config: PlanConfig,
    ) -> Self {
        let rg = map.rank_grid;
        let c = map.rank_coord(rank);
        let frac = |d: usize, k: u32| f64::from(k) / f64::from(rg[d]);
        let sub = global.fractional_sub_box(
            [0, 1, 2].map(|d| frac(d, c[d])),
            [0, 1, 2].map(|d| frac(d, c[d] + 1)),
        );
        let (l, len) = (global.lengths(), sub.lengths());
        let edge = |off: NeighborOffset, peer_index: usize| -> GraphEdge {
            let target = [0, 1, 2].map(|d| i64::from(c[d]) + i64::from(off.d[d]));
            let peer = map.rank_at(target);
            let (mut shift, mut region) = ([0.0; 3], sub);
            for d in 0..3 {
                // Shift my atoms so they appear adjacent to the peer's box
                // when the edge wraps the global boundary.
                shift[d] = -(target[d].div_euclid(i64::from(rg[d])) as f64) * l[d];
                // The peer's box translated adjacent to mine (my frame):
                // one sub-box length per offset step.
                let t = f64::from(off.d[d]) * len[d];
                region.lo[d] += t;
                region.hi[d] += t;
            }
            GraphEdge {
                offset: off,
                rank: peer,
                node: map.node_of(peer),
                hops: map.hops(rank, peer),
                shift,
                region,
                peer_index,
            }
        };
        // A send edge's selection region, spelled from my own faces and
        // bounded only on the sides that face me: along d, the neighbor o
        // steps out owns `[hi + (o-1)·len, ∞)` for o > 0,
        // `(-∞, lo + (o+1)·len)` for o < 0 and all of d for o = 0.
        let facing = |off: NeighborOffset| {
            let (mut lo, mut hi) = ([f64::NEG_INFINITY; 3], [f64::INFINITY; 3]);
            for d in 0..3 {
                let o = f64::from(off.d[d]);
                match off.d[d].signum() {
                    1 => lo[d] = sub.hi[d] + (o - 1.0) * len[d],
                    -1 => hi[d] = sub.lo[d] + (o + 1.0) * len[d],
                    _ => {}
                }
            }
            Box3 { lo, hi }
        };
        let offsets = neighbor_offsets(config.shells, config.half);
        let recv = offsets
            .iter()
            .enumerate()
            .map(|(k, &o)| edge(o, k))
            .collect();
        let send = offsets
            .iter()
            .enumerate()
            .map(|(k, o)| {
                let o = o.opposite();
                GraphEdge {
                    region: facing(o),
                    ..edge(o, k)
                }
            })
            .collect();
        CommGraph {
            me: rank,
            sub,
            r_ghost,
            recv,
            send,
            topology: Topology::Grid { config },
        }
    }

    /// Unwrap a [`CommPlan`] (the benchmark package's spelling only).
    #[must_use]
    pub fn from_grid(plan: CommPlan) -> Self {
        plan.0
    }

    /// The star forest of every part of an RCB decomposition, part `p` on
    /// physical rank `rank_of[p]` (distinct): one edge per `(peer, periodic
    /// image)` whose box comes within `r_ghost` of the part's. Pairing
    /// indices and migrate tags are looked up in part space in each part's
    /// one list of pairs, so all ranks agree without a negotiation round;
    /// rank and node fields name the physical ranks. Build, rebalance,
    /// restore and shrinking recovery (over the survivors of a dead rank)
    /// all come through here.
    #[must_use]
    pub fn from_rcb_parts(
        rcb: &Arc<RcbDecomposition>,
        map: &RankMap,
        r_ghost: f64,
        rank_of: &[usize],
    ) -> Vec<Self> {
        let forest = RcbForest::new(rcb, r_ghost, rank_of);
        (0..rank_of.len()).map(|p| forest.graph(p, map)).collect()
    }

    /// Part `rank`'s graph of [`CommGraph::from_rcb_parts`] with every
    /// part on its own rank: only its own pairs and its peers' are
    /// computed.
    #[must_use]
    pub fn from_rcb(rank: usize, rcb: &Arc<RcbDecomposition>, map: &RankMap, r_ghost: f64) -> Self {
        let identity: Vec<usize> = (0..rcb.boxes.len()).collect();
        RcbForest::new(rcb, r_ghost, &identity).graph(rank, map)
    }

    /// Replace the migrate-peer list (irregular graphs only). A mid-run
    /// rebalance routes its one-round migration over an explicitly
    /// computed peer set — after a decomposition swap an atom's new owner
    /// can lie far beyond the new graph's halo-derived peers — then
    /// restores the halo-derived list for steady-state exchanges.
    #[must_use]
    pub fn with_migrate_peers(mut self, peers: Vec<MigratePeer>) -> Self {
        match &mut self.topology {
            Topology::Grid { .. } => panic!("migrate peers exist only on irregular graphs"),
            Topology::Irregular { migrate, .. } => *migrate = peers,
        }
        self
    }

    /// True for graphs built from the uniform grid.
    #[must_use]
    pub fn is_grid(&self) -> bool {
        matches!(self.topology, Topology::Grid { .. })
    }

    /// The grid plan configuration, if this is a grid graph.
    #[must_use]
    pub fn config(&self) -> Option<PlanConfig> {
        match &self.topology {
            Topology::Grid { config, .. } => Some(*config),
            Topology::Irregular { .. } => None,
        }
    }

    /// Number of halo edges per direction.
    #[must_use]
    pub fn neighbor_count(&self) -> usize {
        self.recv.len()
    }

    /// The two face edges of `dim`, `[toward the -face, toward the
    /// +face]`, as `(send, k, edge)`: `send[k]` at offset `-e_dim` (`send`
    /// true) and `recv[k]` at `+e_dim`. Both exist on every grid graph,
    /// since `±e_dim` are in every neighbor set; their absence (an
    /// irregular graph) is reported rather than panicking.
    pub fn face_edges(&self, dim: usize) -> Result<[(bool, usize, &GraphEdge); 2], TofuError> {
        let face = |send: bool, sign: i8, missing| {
            let edges = if send { &self.send } else { &self.recv };
            let mut want = [0i8; 3];
            want[dim] = sign;
            let k = edges.iter().position(|l| l.offset.d == want);
            k.map(|k| (send, k, &edges[k]))
                .ok_or(TofuError::PhaseOrder {
                    node: self.me,
                    phase: "exchange",
                    missing,
                })
        };
        Ok([
            face(true, -1, "-face link in send edges")?,
            face(false, 1, "+face link in recv edges")?,
        ])
    }

    /// Partners of the single-round irregular migration (empty on grid
    /// graphs, which sweep faces instead).
    #[must_use]
    pub fn migrate_peers(&self) -> &[MigratePeer] {
        match &self.topology {
            Topology::Grid { .. } => &[],
            Topology::Irregular { migrate, .. } => migrate,
        }
    }

    /// Which rank owns a global position (irregular graphs; the grid
    /// resolves owners through its staged sweeps instead). Answers in
    /// physical-rank space even on shrunken recovery graphs.
    #[must_use]
    pub fn owner_of(&self, x: &[f64; 3]) -> usize {
        match &self.topology {
            Topology::Grid { .. } => {
                panic!("owner_of is only defined on irregular graphs")
            }
            Topology::Irregular { rcb, rank_of, .. } => rank_of[rcb.owner_of(x)],
        }
    }

    /// The RCB decomposition behind an irregular graph (checkpointing
    /// captures it so a restore can rebuild identical graphs).
    #[must_use]
    pub fn rcb(&self) -> Option<&Arc<RcbDecomposition>> {
        match &self.topology {
            Topology::Grid { .. } => None,
            Topology::Irregular { rcb, .. } => Some(rcb),
        }
    }

    /// The global box (irregular graphs carry it for migration wrapping).
    #[must_use]
    pub fn global_box(&self) -> &Box3 {
        match &self.topology {
            Topology::Grid { .. } => panic!("grid graphs do not carry the global box"),
            Topology::Irregular { rcb, .. } => &rcb.global,
        }
    }

    /// Build the border-atom selector for this graph's send edges: edge k
    /// wants the atoms inside its peer region grown by `r_ghost`.
    #[must_use]
    pub fn selector(&self) -> SendSelector {
        let regions: Vec<Box3> = self
            .send
            .iter()
            .map(|e| expand(&e.region, self.r_ghost))
            .collect();
        SendSelector::new(&regions)
    }

    /// Expected ghost-slab volume toward a grid `offset` (Table 1's
    /// msg_size column, generalized to anisotropic sub-boxes and multiple
    /// shells; grid graphs only).
    #[must_use]
    pub fn slab_volume(&self, offset: NeighborOffset) -> f64 {
        let a = self.sub.lengths();
        let mut v = 1.0;
        for d in 0..3 {
            v *= match offset.d[d].unsigned_abs() {
                0 => a[d],
                1 => self.r_ghost.min(a[d]),
                // Shell s covers the band ((s-1)a, min(r, sa)] of ghost depth
                // beyond s-1 whole sub-boxes.
                s => (self.r_ghost - (f64::from(s) - 1.0) * a[d]).clamp(0.0, a[d]),
            };
        }
        v
    }

    /// Estimated *maximum* atoms moved toward grid `offset` at the given
    /// number density (§3.4 buffer pre-sizing, the "theoretical upper
    /// limit of atoms to be exchanged"): 2x headroom over the mean absorbs
    /// density fluctuations plus the skin-induced overcount; +8 covers tiny
    /// slabs.
    #[must_use]
    pub fn max_atoms_estimate(&self, offset: NeighborOffset, density: f64) -> usize {
        (2.0 * density * self.slab_volume(offset)).ceil() as usize + 8
    }

    /// Total expected ghost atoms received per exchange (grid graphs
    /// only, like the uTofu engine that sizes its x-region by it).
    #[must_use]
    pub fn total_ghost_estimate(&self, density: f64) -> f64 {
        let slab = |e: &GraphEdge| density * self.slab_volume(e.offset);
        self.recv.iter().map(slab).sum()
    }

    /// A [`FaultRule`] addressing one send edge of this graph: faults keyed
    /// this way follow the *edge* (my rank tag → the peer's node) rather
    /// than any grid offset, so fault plans survive decomposition changes.
    #[must_use]
    pub fn edge_fault_rule(&self, k: usize, kind: FaultKind) -> FaultRule {
        FaultRule {
            step: None,
            op: None,
            src: Some(self.me as u32),
            dst: Some(self.send[k].node as u32),
            tni: None,
            kind,
        }
    }
}

/// The benchmark package's spelling of a grid graph, kept only so that
/// package compiles unmodified: its `build` is [`CommGraph::grid`], and
/// the graph's `from_grid` unwraps it. Both go with the benchmark's next
/// refresh; nothing else names them.
pub struct CommPlan(CommGraph);

impl CommPlan {
    /// [`CommGraph::grid`], wrapped (the benchmark package's spelling only).
    #[must_use]
    pub fn build(
        rank: usize,
        map: &RankMap,
        global: &Box3,
        r_ghost: f64,
        config: PlanConfig,
    ) -> Self {
        CommPlan(CommGraph::grid(rank, map, global, r_ghost, config))
    }
}

/// Which send edges need a given atom, as per-axis slab bit sets over the
/// edges' selection boxes: the sorted faces of the boxes cut each axis
/// into slabs, and each axis holds its cuts and, `words` u64s per slab,
/// bit k set where box k spans that slab. A point's edges are the AND of
/// its three slabs' sets, in ascending order — [`Box3::contains`]'s
/// half-open verdicts (NaN in no box) at one binary search per axis. On a
/// one-shell grid this is the §3.5.2 3×3×3 bin table, factorized by axis.
#[derive(Debug, Clone)]
pub struct SendSelector {
    axes: [(Vec<f64>, Vec<u64>); 3],
    words: usize,
}

impl SendSelector {
    fn new(boxes: &[Box3]) -> Self {
        let words = boxes.len().div_ceil(64);
        let axis = |d: usize| {
            // A box empty (or NaN) along d spans no slab of it.
            let spans = boxes.iter().enumerate().filter(|(_, b)| b.lo[d] < b.hi[d]);
            let mut cuts = Vec::new();
            for (_, b) in spans.clone() {
                cuts.extend([b.lo[d], b.hi[d]]);
            }
            cuts.sort_by(f64::total_cmp);
            cuts.dedup();
            // Slab s is [cuts[s - 1], cuts[s]): a box from cuts[a] to
            // cuts[b] spans slabs a + 1 ..= b.
            let mut cover = vec![0; (cuts.len() + 1) * words];
            for (k, b) in spans {
                let at = |v: f64| cuts.partition_point(|&c| c < v);
                for s in at(b.lo[d]) + 1..=at(b.hi[d]) {
                    cover[s * words + k / 64] |= 1 << (k % 64);
                }
            }
            (cuts, cover)
        };
        let axes = [0, 1, 2].map(axis);
        SendSelector { axes, words }
    }

    /// Visit the indices of send edges that need an atom at `x`.
    #[inline]
    pub fn for_each_target(&self, x: &[f64; 3], mut f: impl FnMut(u16)) {
        // Per axis, the cover and the first word of x's slab in it.
        let [(a, i), (b, j), (c, k)] = [0, 1, 2].map(|d| {
            let (cuts, cover) = &self.axes[d];
            (cover, cuts.partition_point(|&cut| cut <= x[d]) * self.words)
        });
        for w in 0..self.words {
            let mut bits = a[i + w] & b[j + w] & c[k + w];
            while bits != 0 {
                f((w * 64 + bits.trailing_zeros() as usize) as u16);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_map::Placement;
    use proptest::prelude::*;
    use tofumd_tofu::CellGrid;

    fn grid_setup() -> (RankMap, Box3) {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        (map, global)
    }

    /// The send edges `sel` picks for an atom at `x`, in visiting order.
    fn targets(sel: &SendSelector, x: &[f64; 3]) -> Vec<u16> {
        let mut out = Vec::new();
        sel.for_each_target(x, |k| out.push(k));
        out
    }

    fn grid_graph(rank: usize, cfg: PlanConfig) -> CommGraph {
        let (map, global) = grid_setup();
        CommGraph::grid(rank, &map, &global, 2.8, cfg)
    }

    /// One FNV-1a step per byte of `word`.
    fn fnv(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every field bit of one edge, in declaration order.
    fn fold_edge(h: &mut u64, e: &GraphEdge) {
        for d in e.offset.d {
            fnv(h, d as u64);
        }
        for w in [e.rank, e.node, e.hops as usize, e.peer_index] {
            fnv(h, w as u64);
        }
        for x in e.shift.iter().chain(&e.region.lo).chain(&e.region.hi) {
            fnv(h, x.to_bits());
        }
    }

    #[test]
    fn grid_edges_keep_their_recorded_bits() {
        // One digest per paper instance over every field bit (the sign of
        // a zero shift included) of every recv and send edge plus the
        // sub-box, for ranks {0, 7, last} of two machines on a
        // non-cubic, off-origin box. Engines key tags, address-book slots
        // and shifts off these fields, and Border selects by the send
        // regions, so a grid construction change must leave every digest
        // where it is.
        let instances = [
            (PlanConfig::NEWTON, 13),
            (PlanConfig::FULL, 26),
            (
                PlanConfig {
                    shells: 2,
                    half: true,
                },
                62,
            ),
            (
                PlanConfig {
                    shells: 2,
                    half: false,
                },
                124,
            ),
        ];
        let digests = instances.map(|(cfg, count)| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for mesh in [[2, 3, 2], [8, 12, 8]] {
                let map = RankMap::new(
                    CellGrid::from_node_mesh(mesh).unwrap(),
                    Placement::TopoAware,
                );
                let rg = map.rank_grid.map(f64::from);
                let global = Box3::new(
                    [-3.5, 1.25, 0.0],
                    [-3.5 + 9.0 * rg[0], 1.25 + 10.5 * rg[1], 11.75 * rg[2]],
                );
                for rank in [0, 7, map.nranks() - 1] {
                    let g = CommGraph::grid(rank, &map, &global, 2.8, cfg);
                    assert_eq!((g.recv.len(), g.send.len()), (count, count), "{cfg:?}");
                    for e in g.recv.iter().chain(&g.send) {
                        fold_edge(&mut h, e);
                    }
                    for x in g.sub.lo.iter().chain(&g.sub.hi) {
                        fnv(&mut h, x.to_bits());
                    }
                }
            }
            h
        });
        assert_eq!(
            digests,
            [
                0x800e_e4ee_24f3_8e1f,
                0x7c67_ea32_3391_68ee,
                0x1f96_ffc6_f5ad_ff3b,
                0x1b48_be87_063b_cdd6,
            ],
            "{digests:#018x?}"
        );
    }

    #[test]
    fn face_edges_match_the_face_construction() {
        // The oracle is the face edge the grid once built beside its recv
        // and send edges: the neighbor one step along ±e_d, with the
        // periodic shift of that step. The looked-up send/recv edges must
        // carry its rank, node, hops and shift bits, in the four paper
        // instances, on every rank of meshes with 1- and 2-rank periodic
        // axes (where a face peer is the rank itself or both faces' peer).
        let mut map = RankMap::new(CellGrid::new([1, 1, 1]), Placement::TopoAware);
        for rg in [[1, 2, 4], [2, 1, 1], [2, 6, 4]] {
            map.rank_grid = rg;
            let global = Box3::new(
                [-3.5, 1.25, 0.0],
                [
                    -3.5 + 9.0 * f64::from(rg[0]),
                    1.25 + 10.5 * f64::from(rg[1]),
                    11.75 * f64::from(rg[2]),
                ],
            );
            let l = global.lengths();
            for (shells, half) in [(1, true), (1, false), (2, true), (2, false)] {
                let cfg = PlanConfig { shells, half };
                for rank in 0..(rg[0] * rg[1] * rg[2]) as usize {
                    let g = CommGraph::grid(rank, &map, &global, 2.8, cfg);
                    let c = map.rank_coord(rank).map(i64::from);
                    let face = |d: usize, dir: i64| {
                        let mut target = c;
                        target[d] += dir;
                        let peer = map.rank_at(target);
                        let shift = [0, 1, 2]
                            .map(|e| -(target[e].div_euclid(i64::from(rg[e])) as f64) * l[e]);
                        (
                            peer,
                            map.node_of(peer),
                            map.hops(rank, peer),
                            shift.map(f64::to_bits),
                        )
                    };
                    for d in 0..3 {
                        let got = g
                            .face_edges(d)
                            .unwrap()
                            .map(|(.., e)| (e.rank, e.node, e.hops, e.shift.map(f64::to_bits)));
                        assert_eq!(got, [face(d, -1), face(d, 1)], "{rg:?} {cfg:?} rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn shell_instances_have_paper_neighbor_counts() {
        // 13/26/62/124: the four regimes of the paper as graph instances.
        for (shells, half, expect) in [
            (1, true, 13),
            (1, false, 26),
            (2, true, 62),
            (2, false, 124),
        ] {
            let g = grid_graph(0, PlanConfig { shells, half });
            assert_eq!(g.neighbor_count(), expect);
            assert_eq!(g.send.len(), expect);
            assert!(g.is_grid());
            assert!(g.migrate_peers().is_empty());
        }
    }

    #[test]
    fn grid_send_and_recv_edges_are_opposite() {
        for (shells, half) in [(1, true), (1, false), (2, true), (2, false)] {
            let g = grid_graph(5, PlanConfig { shells, half });
            for (r, s) in g.recv.iter().zip(&g.send) {
                assert_eq!(r.offset.opposite(), s.offset);
                assert_eq!(
                    r.rank,
                    g_peer_of(&g, s),
                    "mirror edges share a peer only via offsets"
                );
            }
        }
    }

    /// The rank a send edge's mirror recv edge points at (same index).
    fn g_peer_of(g: &CommGraph, s: &GraphEdge) -> usize {
        g.recv[g.send.iter().position(|e| std::ptr::eq(e, s)).unwrap()].rank
    }

    #[test]
    fn grid_regions_sit_adjacent_per_offset() {
        let g = grid_graph(0, PlanConfig::FULL);
        let len = g.sub.lengths();
        for e in &g.recv {
            for d in 0..3 {
                let t = f64::from(e.offset.d[d]) * len[d];
                assert!((e.region.lo[d] - (g.sub.lo[d] + t)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn plan_is_globally_consistent() {
        // If rank A receives from B at offset o, then B must send to the
        // rank at offset -o from itself — which is A.
        let (map, global) = grid_setup();
        let a = 123;
        for (shells, half) in [(1, true), (1, false), (2, true), (2, false)] {
            let cfg = PlanConfig { shells, half };
            let ga = CommGraph::grid(a, &map, &global, 2.8, cfg);
            for e in &ga.recv {
                let gb = CommGraph::grid(e.rank, &map, &global, 2.8, cfg);
                assert!(
                    gb.send.iter().any(|s| s.rank == a),
                    "{cfg:?}: neighbor {} does not send to {a}",
                    e.rank
                );
            }
        }
    }

    #[test]
    fn shifts_are_zero_in_the_interior() {
        let (map, global) = grid_setup();
        // An interior rank: grid coord (4, 12, 8).
        let r = map.rank_at([4, 12, 8]);
        let g = CommGraph::grid(r, &map, &global, 2.8, PlanConfig::NEWTON);
        for e in g.recv.iter().chain(&g.send) {
            assert_eq!(e.shift, [0.0; 3], "interior rank must not shift");
        }
    }

    #[test]
    fn shifts_wrap_at_the_boundary() {
        let (map, global) = grid_setup();
        let r = map.rank_at([0, 0, 0]); // corner rank
        let g = CommGraph::grid(r, &map, &global, 2.8, PlanConfig::NEWTON);
        let l = global.lengths();
        // Sending to the (-1,-1,-1) neighbor wraps all three dims: my atoms
        // shift by -(-1)*L = +L per dim to appear below that neighbor.
        let s = g
            .send
            .iter()
            .find(|s| s.offset.d == [-1, -1, -1])
            .expect("corner send edge");
        assert_eq!(s.shift, [l[0], l[1], l[2]]);
    }

    #[test]
    fn table1_volume_shapes() {
        let (map, global) = grid_setup();
        let g = CommGraph::grid(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let a = 10.0;
        let r = 2.0;
        // Face: a^2 r, edge: a r^2, corner: r^3 (Table 1 p2p rows).
        let face = g.slab_volume(NeighborOffset { d: [1, 0, 0] });
        let edge = g.slab_volume(NeighborOffset { d: [1, 1, 0] });
        let corner = g.slab_volume(NeighborOffset { d: [1, 1, 1] });
        assert!((face - a * a * r).abs() < 1e-9);
        assert!((edge - a * r * r).abs() < 1e-9);
        assert!((corner - r * r * r).abs() < 1e-9);
        // Total over 13 half neighbors = (6 a^2 r + 12 a r^2 + 8 r^3)/2.
        let total: f64 = g.recv.iter().map(|e| g.slab_volume(e.offset)).sum();
        let expect = 0.5 * (6.0 * a * a * r + 12.0 * a * r * r + 8.0 * r * r * r);
        assert!((total - expect).abs() < 1e-9, "{total} vs {expect}");
    }

    #[test]
    fn second_shell_volume_vanishes_when_cutoff_small() {
        let (map, global) = grid_setup();
        let g = CommGraph::grid(0, &map, &global, 2.0, PlanConfig::NEWTON);
        // r = 2 < a = 10: second-shell slabs are empty.
        assert_eq!(g.slab_volume(NeighborOffset { d: [2, 0, 0] }), 0.0);
    }

    #[test]
    fn buffer_estimates_have_headroom() {
        let (map, global) = grid_setup();
        let g = CommGraph::grid(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let density = 0.8442;
        let face = NeighborOffset { d: [1, 0, 0] };
        let est = g.max_atoms_estimate(face, density);
        let mean = density * g.slab_volume(face);
        assert!(est as f64 >= 1.5 * mean);
    }

    fn rcb_fixture(nranks: usize) -> (Arc<RcbDecomposition>, RankMap, Vec<[f64; 3]>) {
        let grid = CellGrid::new([1, 1, 1]);
        let map = RankMap::new(grid, Placement::TopoAware);
        assert!(nranks <= map.nranks());
        let global = Box3::from_lengths([20.0, 16.0, 12.0]);
        // Deterministic skewed scatter.
        let l = global.lengths();
        let pts: Vec<[f64; 3]> = (0..800)
            .filter_map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                let p = [u(0) * l[0], u(16) * l[1], u(32) * l[2]];
                // Ramp: denser at low x.
                if u(48) < 1.0 - 0.8 * (p[0] / l[0]) {
                    Some(p)
                } else {
                    None
                }
            })
            .collect();
        (
            Arc::new(RcbDecomposition::build(nranks, &pts, &global)),
            map,
            pts,
        )
    }

    #[test]
    fn rcb_edges_mirror_at_equal_indices() {
        let (rcb, map, _) = rcb_fixture(8);
        for rank in 0..8 {
            let g = CommGraph::from_rcb(rank, &rcb, &map, 2.5);
            assert!(!g.is_grid());
            assert_eq!(g.recv.len(), g.send.len());
            for (r, s) in g.recv.iter().zip(&g.send) {
                assert_eq!(r.rank, s.rank);
                for d in 0..3 {
                    assert!((r.shift[d] + s.shift[d]).abs() < 1e-12, "shifts negate");
                }
            }
        }
    }

    #[test]
    fn rcb_graph_is_globally_consistent() {
        // My send[k] must be the peer's recv[send[k].peer_index], with the
        // peer agreeing on rank, shift and pairing back to me.
        let (rcb, map, _) = rcb_fixture(8);
        let graphs: Vec<CommGraph> = (0..8)
            .map(|r| CommGraph::from_rcb(r, &rcb, &map, 2.5))
            .collect();
        for g in &graphs {
            for (k, s) in g.send.iter().enumerate() {
                let peer = &graphs[s.rank];
                let mirror = &peer.recv[s.peer_index];
                assert_eq!(mirror.rank, g.me, "peer's recv edge must point back");
                assert_eq!(mirror.peer_index, k, "pairing is an involution");
                for d in 0..3 {
                    // The shift I apply sending is the shift the peer
                    // records as applied by its sender.
                    assert!((mirror.shift[d] - s.shift[d]).abs() < 1e-12);
                }
            }
            for (k, r) in g.recv.iter().enumerate() {
                let peer = &graphs[r.rank];
                let mirror = &peer.send[r.peer_index];
                assert_eq!(mirror.rank, g.me);
                assert_eq!(mirror.peer_index, k);
            }
        }
    }

    #[test]
    fn rcb_migrate_tags_are_consistent() {
        let (rcb, map, _) = rcb_fixture(6);
        let graphs: Vec<CommGraph> = (0..6)
            .map(|r| CommGraph::from_rcb(r, &rcb, &map, 2.5))
            .collect();
        for g in &graphs {
            for p in g.migrate_peers() {
                let back = graphs[p.rank].migrate_peers();
                assert_eq!(back[p.tag_index].rank, g.me, "peer expects me at tag_index");
            }
        }
    }

    #[test]
    fn mapped_rcb_graphs_address_survivors_and_stay_consistent() {
        // Rank 2 of 6 died: five survivor parts map onto physical ranks
        // {0, 1, 3, 4, 5}. Edges, pairing, migrate tags, and owner lookup
        // must all answer in physical-rank space while staying mutually
        // consistent across the survivor set.
        let (_, map, pts) = rcb_fixture(6);
        let global = Box3::from_lengths([20.0, 16.0, 12.0]);
        let rcb = Arc::new(RcbDecomposition::build(5, &pts, &global));
        let rank_of: Vec<usize> = vec![0, 1, 3, 4, 5];
        let graphs = CommGraph::from_rcb_parts(&rcb, &map, 2.5, &rank_of);
        let part_of = |rank: usize| rank_of.iter().position(|&r| r == rank).unwrap();
        for (part, g) in graphs.iter().enumerate() {
            assert_eq!(g.me, rank_of[part]);
            assert!(g.rcb().is_some());
            for (k, s) in g.send.iter().enumerate() {
                assert_ne!(s.rank, 2, "dead rank must never be addressed");
                assert_eq!(s.node, map.node_of(s.rank));
                let peer = &graphs[part_of(s.rank)];
                let mirror = &peer.recv[s.peer_index];
                assert_eq!(mirror.rank, g.me, "peer's recv edge must point back");
                assert_eq!(mirror.peer_index, k, "pairing is an involution");
            }
            for p in g.migrate_peers() {
                assert_ne!(p.rank, 2);
                let back = graphs[part_of(p.rank)].migrate_peers();
                assert_eq!(back[p.tag_index].rank, g.me, "peer expects me at tag_index");
            }
        }
        // Owner lookup answers in physical-rank space.
        for p in pts.iter().take(64) {
            let owner = graphs[0].owner_of(p);
            assert_ne!(owner, 2);
            assert_eq!(owner, rank_of[rcb.owner_of(p)]);
        }
        // Identity mapping reproduces from_rcb exactly.
        let plain = CommGraph::from_rcb(3, &rcb, &map, 2.5);
        let ident: Vec<usize> = (0..5).collect();
        let mapped = &CommGraph::from_rcb_parts(&rcb, &map, 2.5, &ident)[3];
        assert_eq!(plain.me, mapped.me);
        assert_eq!(plain.recv, mapped.recv);
        assert_eq!(plain.send, mapped.send);
        assert_eq!(plain.migrate_peers(), mapped.migrate_peers());
    }

    #[test]
    fn rebalance_peer_lists_are_symmetric_and_tag_consistent() {
        let (_, map, _) = rcb_fixture(6);
        // Asymmetric needs: 0 ships to 3, 3 ships to nobody, 5 ships to 0
        // and 1; rank 2 ships only to itself (resolved locally).
        let needs = vec![vec![3], vec![], vec![2], vec![], vec![], vec![0, 1]];
        let lists = rebalance_migrate_peers(&needs, &map);
        assert_eq!(lists.len(), 6);
        // Symmetric closure: 3 lists 0 even though it ships nothing.
        assert_eq!(lists[3].iter().map(|p| p.rank).collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            lists[0].iter().map(|p| p.rank).collect::<Vec<_>>(),
            vec![3, 5]
        );
        // Self-needs never become peers.
        assert!(lists[2].is_empty());
        assert!(lists[4].is_empty());
        for (r, list) in lists.iter().enumerate() {
            for p in list {
                assert_eq!(p.node, map.node_of(p.rank));
                let back = &lists[p.rank];
                assert_eq!(back[p.tag_index].rank, r, "peer expects me at tag_index");
            }
        }
    }

    #[test]
    fn with_migrate_peers_swaps_the_list_and_keeps_edges() {
        let (rcb, map, _) = rcb_fixture(4);
        let g = CommGraph::from_rcb(1, &rcb, &map, 2.5);
        let swapped = g.clone().with_migrate_peers(vec![MigratePeer {
            rank: 3,
            node: map.node_of(3),
            tag_index: 0,
        }]);
        assert_eq!(swapped.migrate_peers().len(), 1);
        assert_eq!(swapped.migrate_peers()[0].rank, 3);
        assert_eq!(swapped.recv, g.recv, "halo edges untouched by the swap");
        assert_eq!(swapped.send, g.send);
        // Restoring is just another swap back to the halo-derived list.
        let restored = swapped.with_migrate_peers(g.migrate_peers().to_vec());
        assert_eq!(restored.migrate_peers(), g.migrate_peers());
    }

    #[test]
    #[should_panic(expected = "irregular")]
    fn grid_graphs_reject_migrate_peer_swaps() {
        let g = grid_graph(0, PlanConfig::NEWTON);
        let _ = g.with_migrate_peers(Vec::new());
    }

    /// Rank 0's grid graph over cubic sub-boxes of edge `edge`: its
    /// sub-box is `[0, edge)³`.
    fn cube_graph(edge: f64, r_ghost: f64, shells: usize, half: bool) -> CommGraph {
        let map = RankMap::new(CellGrid::new([1, 1, 1]), Placement::TopoAware);
        let global = Box3::from_lengths(map.rank_grid.map(|n| edge * f64::from(n)));
        let g = CommGraph::grid(0, &map, &global, r_ghost, PlanConfig { shells, half });
        assert_eq!(g.sub, Box3::from_lengths([edge; 3]));
        g
    }

    /// The send edges toward the offsets `keep` accepts, in edge order.
    fn sends_where(g: &CommGraph, keep: impl Fn([i8; 3]) -> bool) -> Vec<u16> {
        (0..g.send.len())
            .filter(|&k| keep(g.send[k].offset.d))
            .map(|k| k as u16)
            .collect()
    }

    #[test]
    fn interior_atom_goes_nowhere() {
        let g = cube_graph(10.0, 2.0, 1, false);
        assert!(targets(&g.selector(), &[5.0; 3]).is_empty());
    }

    #[test]
    fn face_atom_goes_to_one_neighbor() {
        let g = cube_graph(10.0, 2.0, 1, false);
        let want = sends_where(&g, |d| d == [-1, 0, 0]);
        assert_eq!(want.len(), 1);
        assert_eq!(targets(&g.selector(), &[0.5, 5.0, 5.0]), want); // low-x face only
    }

    #[test]
    fn corner_atom_goes_to_seven_neighbors() {
        // Corner bin: 3 faces + 3 edges + 1 corner = 7 targets.
        let g = cube_graph(10.0, 2.0, 1, false);
        let want = sends_where(&g, |d| d.iter().all(|&o| o >= 0));
        assert_eq!(want.len(), 7);
        assert_eq!(targets(&g.selector(), &[9.9; 3]), want);
    }

    #[test]
    fn half_neighbor_set_respected() {
        // The half set sends toward the lower half: the --- corner reaches
        // its 7 all-non-positive offsets, the +++ corner none.
        let g = cube_graph(10.0, 2.0, 1, true);
        assert_eq!(g.send.len(), 13);
        let sel = g.selector();
        let want = sends_where(&g, |d| d.iter().all(|&o| o <= 0));
        assert_eq!(want.len(), 7);
        assert_eq!(targets(&sel, &[0.1; 3]), want);
        assert!(targets(&sel, &[9.9; 3]).is_empty());
    }

    #[test]
    fn oversized_cutoff_selects_every_neighbor() {
        // Cutoff exceeds the box: every atom is needed by every 1-shell
        // neighbor.
        let g = cube_graph(2.0, 5.0, 1, false);
        assert_eq!(targets(&g.selector(), &[1.0; 3]).len(), 26);
    }

    #[test]
    fn two_shell_slabs_are_exact() {
        // Sub-box edge 2, cutoff 3: shell-2 neighbors need atoms within
        // 3 - 2 = 1 of the matching face.
        let g = cube_graph(2.0, 3.0, 2, false);
        let sel = g.selector();
        let k_pp = sends_where(&g, |d| d == [2, 0, 0])[0];
        // x = 1.5: within 1 of the high face -> the (2,0,0) neighbor needs it.
        assert!(targets(&sel, &[1.5, 1.0, 1.0]).contains(&k_pp));
        // x = 0.5: 2*a - r = 1.0 above it -> not needed by (2,0,0).
        assert!(!targets(&sel, &[0.5, 1.0, 1.0]).contains(&k_pp));
        // But the (1,0,0) neighbor needs everything (cutoff > edge).
        let k_p = sends_where(&g, |d| d == [1, 0, 0])[0];
        assert!(targets(&sel, &[0.5, 1.0, 1.0]).contains(&k_p));
    }

    #[test]
    fn overlapping_shells_select_every_face() {
        // r > edge/2: an atom in the middle belongs to both face slabs of
        // every axis; the center atom is within 6.0 of all six faces.
        let g = cube_graph(10.0, 6.0, 1, false);
        assert_eq!(targets(&g.selector(), &[5.0; 3]).len(), 26);
    }

    #[test]
    fn matches_naive_scan_everywhere() {
        // The naive scan tests the atom against every send edge's slab:
        // the neighbor at offset o needs the atoms within r of the face it
        // shares with me, x >= hi - r for o = +1 and x < lo + r for o = -1.
        let (r, g) = (2.0, cube_graph(10.0, 2.0, 1, false));
        let sel = g.selector();
        let naive = |x: &[f64; 3]| -> Vec<u16> {
            let needs = |e: &GraphEdge| {
                (0..3).all(|d| match e.offset.d[d] {
                    1 => x[d] >= g.sub.hi[d] - r,
                    -1 => x[d] < g.sub.lo[d] + r,
                    _ => true,
                })
            };
            (0..g.send.len())
                .filter(|&k| needs(&g.send[k]))
                .map(|k| k as u16)
                .collect()
        };
        for &x in &[0.1, 1.9, 2.1, 5.0, 7.9, 8.1, 9.9] {
            for &y in &[0.5, 5.0, 9.5] {
                for z in [0.3, 5.0, 9.7] {
                    let p = [x, y, z];
                    assert_eq!(targets(&sel, &p), naive(&p), "mismatch at {p:?}");
                }
            }
        }
    }

    #[test]
    fn rcb_selector_matches_brute_force_membership() {
        // An atom must be selected for edge k exactly when it lies within
        // r_ghost of the peer's (translated) box.
        let (rcb, map, pts) = rcb_fixture(8);
        let r = 2.5;
        for rank in [0, 3, 7] {
            let g = CommGraph::from_rcb(rank, &rcb, &map, r);
            let sel = g.selector();
            for p in pts.iter().filter(|p| g.sub.contains(p)) {
                let want: Vec<u16> = g
                    .send
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| expand(&e.region, r).contains(p))
                    .map(|(k, _)| k as u16)
                    .collect();
                assert_eq!(targets(&sel, p), want, "atom {p:?} on rank {rank}");
            }
        }
    }

    #[test]
    fn rcb_ghost_regions_cover_the_cutoff_sphere() {
        // Union coverage: every position within r of my box but outside it
        // belongs to some recv edge's arrival region (no lost ghosts).
        let (rcb, map, pts) = rcb_fixture(8);
        let r = 2.5;
        let g = CommGraph::from_rcb(2, &rcb, &map, r);
        let exp = expand(&g.sub, r);
        let global = rcb.global;
        for p in &pts {
            // Try all images of p that land in my expanded shell.
            let l = global.lengths();
            for img in images() {
                let q = [
                    p[0] + f64::from(img[0]) * l[0],
                    p[1] + f64::from(img[1]) * l[1],
                    p[2] + f64::from(img[2]) * l[2],
                ];
                if !exp.contains(&q) || g.sub.contains(&q) {
                    continue;
                }
                let covered = g.recv.iter().any(|e| e.region.contains(&q));
                assert!(covered, "ghost at {q:?} (image {img:?}) uncovered");
            }
        }
    }

    #[test]
    fn edge_fault_rules_address_edges_not_offsets() {
        let (rcb, map, _) = rcb_fixture(4);
        let g = CommGraph::from_rcb(1, &rcb, &map, 2.5);
        let rule = g.edge_fault_rule(0, FaultKind::Drop { times: 1 });
        assert_eq!(rule.src, Some(1));
        assert_eq!(rule.dst, Some(g.send[0].node as u32));
        let g2 = grid_graph(1, PlanConfig::NEWTON);
        let rule2 = g2.edge_fault_rule(3, FaultKind::Duplicate);
        assert_eq!(rule2.dst, Some(g2.send[3].node as u32));
    }

    /// The 27 periodic image vectors in a fixed lexicographic order.
    fn images() -> impl Iterator<Item = [i32; 3]> {
        (-1..=1).flat_map(|sx| (-1..=1).flat_map(move |sy| (-1..=1).map(move |sz| [sx, sy, sz])))
    }

    /// The oracle's receive pairs of `rank`: every `(peer, image)` whose
    /// box, shifted by the image, comes strictly within `r_ghost` of mine
    /// on every axis, by a scan of all 27 images of every peer, then
    /// sorted. Each gap is the mine-minus-peer difference, then the shift.
    fn oracle_pairs(rcb: &RcbDecomposition, rank: usize, r_ghost: f64) -> Vec<(usize, [i32; 3])> {
        let l = rcb.global.lengths();
        let mine = rcb.boxes[rank];
        let mut out = Vec::new();
        for (peer, pb) in rcb.boxes.iter().enumerate() {
            for img in images() {
                if peer == rank && img == [0, 0, 0] {
                    continue;
                }
                let s = [0, 1, 2].map(|d| f64::from(img[d]) * l[d]);
                let near = |d: usize| {
                    let below = mine.lo[d] - pb.hi[d] - s[d];
                    let above = pb.lo[d] - mine.hi[d] + s[d];
                    below < r_ghost && above < r_ghost
                };
                if (0..3).all(near) {
                    out.push((peer, img));
                }
            }
        }
        out.sort_unstable_by_key(|&(p, img)| (p, img));
        out
    }

    /// The oracle's migrate partners: the deduplicated peers of `pairs`
    /// but `rank` itself, sorted.
    fn oracle_migrate(pairs: &[(usize, [i32; 3])], rank: usize) -> Vec<usize> {
        let mut ranks: Vec<usize> = pairs
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| p != rank)
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Part `part`'s recv edges, send edges and migrate peers built one
    /// part at a time: every pairing index and migrate tag found by a
    /// linear search of the peer's re-derived lists (`all` holds
    /// `oracle_pairs` of every part).
    fn oracle_graph(
        part: usize,
        rcb: &RcbDecomposition,
        all: &[Vec<(usize, [i32; 3])>],
        map: &RankMap,
        rank_of: &[usize],
    ) -> (Vec<GraphEdge>, Vec<GraphEdge>, Vec<MigratePeer>) {
        let l = rcb.global.lengths();
        let shift_of = |img: [i32; 3]| -> [f64; 3] {
            [
                f64::from(img[0]) * l[0],
                f64::from(img[1]) * l[1],
                f64::from(img[2]) * l[2],
            ]
        };
        let translated = |peer: usize, img: [i32; 3]| -> Box3 {
            let s = shift_of(img);
            let pb = rcb.boxes[peer];
            Box3 {
                lo: [pb.lo[0] + s[0], pb.lo[1] + s[1], pb.lo[2] + s[2]],
                hi: [pb.hi[0] + s[0], pb.hi[1] + s[1], pb.hi[2] + s[2]],
            }
        };
        let index_in = |peer: usize, target: (usize, [i32; 3])| -> usize {
            all[peer]
                .iter()
                .position(|&p| p == target)
                .expect("mirror edge")
        };
        let (mut recv, mut send) = (Vec::new(), Vec::new());
        for &(peer, img) in &all[part] {
            let node = map.node_of(rank_of[peer]);
            let hops = map.hops(rank_of[part], rank_of[peer]);
            let neg = [-img[0], -img[1], -img[2]];
            recv.push(GraphEdge {
                offset: NeighborOffset { d: [0; 3] },
                rank: rank_of[peer],
                node,
                hops,
                shift: shift_of(img),
                region: translated(peer, img),
                peer_index: index_in(peer, (part, neg)),
            });
            send.push(GraphEdge {
                offset: NeighborOffset { d: [0; 3] },
                rank: rank_of[peer],
                node,
                hops,
                shift: shift_of(neg),
                region: translated(peer, img),
                peer_index: index_in(peer, (part, neg)),
            });
        }
        let migrate = oracle_migrate(&all[part], part)
            .into_iter()
            .map(|peer| MigratePeer {
                rank: rank_of[peer],
                node: map.node_of(rank_of[peer]),
                tag_index: oracle_migrate(&all[peer], peer)
                    .iter()
                    .position(|&p| p == part)
                    .unwrap_or(usize::MAX),
            })
            .collect();
        (recv, send, migrate)
    }

    /// `n` points in `global`: uniform, or tied to a coarse lattice whose
    /// planes RCB cuts then fall on, so neighboring boxes share faces
    /// bit for bit.
    fn scatter(n: usize, global: &Box3, seed: u64, lattice: bool) -> Vec<[f64; 3]> {
        let l = global.lengths();
        (0..n as u64)
            .map(|i| {
                let h = (i ^ seed.rotate_left(17)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed;
                let h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                [0, 1, 2].map(|d| {
                    let f = if lattice {
                        (u(16 * d as u32) * 8.0).floor() / 8.0
                    } else {
                        u(16 * d as u32)
                    };
                    global.lo[d] + f * l[d]
                })
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every field of every edge and migrate peer of every part, on
        /// the full rank set and on one with a rank gone, is the oracle's,
        /// bit for bit (`{:?}` prints each f64 so that it reads back to
        /// the same bits); on the full rank set, one part alone through
        /// `from_rcb` too.
        #[test]
        fn rcb_forest_matches_the_per_part_oracle(
            nparts in 2usize..65,
            seed in any::<u64>(),
            lattice in any::<bool>(),
            reach in 0.1f64..0.9,
            dead in 0usize..66,
        ) {
            let map = RankMap::new(CellGrid::new([2, 1, 1]), Placement::TopoAware);
            let global = Box3::new([-3.5, 1.25, 0.0], [16.5, 17.25, 12.0]);
            let pts = scatter(12 * nparts, &global, seed, lattice);
            let rcb = Arc::new(RcbDecomposition::build(nparts, &pts, &global));
            // Up to 0.9 of the shortest axis: deep into periodic images.
            let r_ghost = reach * 12.0;
            let all: Vec<_> = (0..nparts).map(|p| oracle_pairs(&rcb, p, r_ghost)).collect();
            let identity: Vec<usize> = (0..nparts).collect();
            let shrunk: Vec<usize> = (0..=nparts).filter(|&r| r != dead % (nparts + 1)).collect();
            for rank_of in [identity, shrunk] {
                let forest = CommGraph::from_rcb_parts(&rcb, &map, r_ghost, &rank_of);
                prop_assert_eq!(forest.len(), nparts);
                for (part, g) in forest.iter().enumerate() {
                    let want = oracle_graph(part, &rcb, &all, &map, &rank_of);
                    let got = (g.recv.clone(), g.send.clone(), g.migrate_peers().to_vec());
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "part {}", part);
                    prop_assert_eq!(g.me, rank_of[part]);
                }
                if rank_of.iter().copied().eq(0..nparts) {
                    let part = seed as usize % nparts;
                    let one = CommGraph::from_rcb(part, &rcb, &map, r_ghost);
                    prop_assert_eq!(format!("{:?}", one.recv), format!("{:?}", forest[part].recv));
                    prop_assert_eq!(format!("{:?}", one.send), format!("{:?}", forest[part].send));
                    prop_assert_eq!(one.migrate_peers(), forest[part].migrate_peers());
                }
            }
        }

        /// The slab bit sets pick the boxes `Box3::contains` picks, in
        /// ascending order: at random points, on every face, one ulp either
        /// side of it, and at NaN — over up to 150 boxes (three words),
        /// some sharing faces, some empty along an axis.
        #[test]
        fn region_slabs_match_the_per_region_test(
            boxes in prop::collection::vec(
                (prop::array::uniform3(0u8..12), prop::array::uniform3(0u8..6), prop::array::uniform3(-1.0f64..1.0)),
                1..150,
            ),
            probes in prop::collection::vec(prop::array::uniform3(-2.0f64..14.0), 16),
        ) {
            // Faces on a half-unit lattice (ties) or off it by a random
            // fraction; a zero extent leaves the box empty along that axis.
            let boxes: Vec<Box3> = boxes
                .iter()
                .map(|(lo, ext, jitter)| {
                    let lo = [0, 1, 2].map(|d| f64::from(lo[d]) * 0.5 + if jitter[d] > 0.5 { jitter[d] } else { 0.0 });
                    Box3 { lo, hi: [0, 1, 2].map(|d| lo[d] + f64::from(ext[d])) }
                })
                .collect();
            let sel = SendSelector::new(&boxes);
            let check = |x: [f64; 3]| {
                let want: Vec<u16> = (0..boxes.len())
                    .filter(|&k| boxes[k].contains(&x))
                    .map(|k| k as u16)
                    .collect();
                assert_eq!(targets(&sel, &x), want, "at {x:?}");
            };
            let mut faces: Vec<f64> = boxes.iter().flat_map(|b| b.lo.into_iter().chain(b.hi)).collect();
            faces.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0]);
            for (i, p) in probes.iter().enumerate() {
                check(*p);
                for d in 0..3 {
                    for &f in faces.iter().skip(i).step_by(16) {
                        for v in [f, f.next_up(), f.next_down()] {
                            let mut x = *p;
                            x[d] = v;
                            check(x);
                        }
                    }
                }
            }
            check([f64::NAN; 3]);
        }
    }

    #[test]
    fn rcb_pairs_at_an_exact_periodic_gap_match_the_oracle() {
        // Three slabs along x of an off-origin box; part 1 shifted up by
        // one box length sits a gap above part 2's hi face, which
        // `c1 + l - hi` and `c1 - hi + l` round apart. For r_ghost on
        // every float from 8 ulps below the one to 8 above the other,
        // where the spellings of the pair test disagree about the face
        // (and so would part 1 and part 2 about their pair), the forest
        // builds with every mirror and matches the oracle edge for edge.
        let map = RankMap::new(CellGrid::new([1, 1, 1]), Placement::TopoAware);
        let global = Box3::new([-3.5, 0.0, 0.0], [15.9, 4.0, 4.0]);
        let pts = [-3.0, -2.27754, 10.0].map(|x| [x, 2.0, 2.0]);
        let rcb = Arc::new(RcbDecomposition::build(3, &pts, &global));
        let (l, hi, c1) = (global.lengths()[0], global.hi[0], rcb.boxes[1].lo[0]);
        assert_eq!((rcb.boxes[2].hi[0], rcb.boxes[0].hi[0]), (hi, c1));
        let (g1, g2) = (c1 + l - hi, c1 - hi + l);
        assert_ne!(g1, g2);
        let (mut r, mut end) = (g1.min(g2), g1.max(g2));
        for _ in 0..8 {
            (r, end) = (r.next_down(), end.next_up());
        }
        let (identity, mut reached) = ([0, 1, 2], Vec::new());
        while r <= end {
            let all: Vec<_> = (0..3).map(|p| oracle_pairs(&rcb, p, r)).collect();
            let forest = CommGraph::from_rcb_parts(&rcb, &map, r, &identity);
            for (part, g) in forest.iter().enumerate() {
                let want = oracle_graph(part, &rcb, &all, &map, &identity);
                let got = (g.recv.clone(), g.send.clone(), g.migrate_peers().to_vec());
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "part {part}, r {r:?}"
                );
            }
            let spellings = (c1 + l - r < hi, c1 - r + l < hi);
            reached.push((forest[2].send.len(), spellings.0 != spellings.1));
            r = r.next_up();
        }
        // The window crosses the gap, and the spellings part ways in it.
        assert_ne!(reached.first().map(|t| t.0), reached.last().map(|t| t.0));
        assert!(reached.iter().any(|t| t.1), "{reached:?}");
    }

    #[test]
    fn a_384_part_forest_pairs_every_edge_with_its_mirror() {
        // The paper-scale RCB cut: 384 parts of a ramped scatter. Every
        // edge's `peer_index` names the peer's edge that points back at
        // me, under the same pairing index, carrying the same shift (the
        // one my atoms take toward it), the opposite of the shift its own
        // atoms take toward me.
        let map = RankMap::new(CellGrid::new([2, 2, 2]), Placement::TopoAware);
        let global = Box3::from_lengths([64.0, 48.0, 40.0]);
        let pts: Vec<[f64; 3]> = scatter(20_000, &global, 7, false)
            .into_iter()
            .filter(|p| (p[0] * 31.0).fract() < 1.0 - 0.6 * p[0] / 64.0)
            .collect();
        let rcb = Arc::new(RcbDecomposition::build(384, &pts, &global));
        let identity: Vec<usize> = (0..384).collect();
        let graphs = CommGraph::from_rcb_parts(&rcb, &map, 2.8, &identity);
        let mut edges = 0;
        for g in &graphs {
            assert!(!g.send.is_empty());
            for (k, (r, s)) in g.recv.iter().zip(&g.send).enumerate() {
                let back = &graphs[s.rank].recv[s.peer_index];
                assert_eq!((back.rank, back.peer_index), (g.me, k), "recv mirror");
                assert_eq!(back.shift, s.shift);
                let out = &graphs[r.rank].send[r.peer_index];
                assert_eq!((out.rank, out.peer_index), (g.me, k), "send mirror");
                assert_eq!(out.shift, r.shift);
                assert_eq!(r.shift.map(|v| -v), s.shift);
                edges += 1;
            }
            for p in g.migrate_peers() {
                assert_eq!(graphs[p.rank].migrate_peers()[p.tag_index].rank, g.me);
            }
        }
        assert!(edges > 384 * 13, "{edges} edges");
    }
}
