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

use crate::border_bin::BorderBins;
use crate::engine::Op;
use crate::topo_map::RankMap;
use std::cell::OnceCell;
use std::sync::Arc;
use tofumd_md::domain::{neighbor_offsets, NeighborOffset, RcbDecomposition};
use tofumd_md::region::Box3;
use tofumd_tofu::{FaultKind, FaultRule};

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
    /// Grid offset to the peer (zero for irregular graphs, where the edge
    /// geometry lives in `region` instead).
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
    /// region whose `r_ghost`-expansion selects my border atoms; for recv
    /// edges the region arriving ghosts land in.
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
        face_links: Box<[[GraphEdge; 2]; 3]>,
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
                // `within`, an axis at a time: the shifts s along d whose
                // image of the peer's box comes close enough.
                let at = |d: usize| {
                    (-1..=1).filter(move |&s| {
                        let o = f64::from(s) * l[d];
                        me.lo[d] - r < pb.hi[d] + o && pb.lo[d] + o - r < me.hi[d]
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
    /// at its opposite offset (so `peer_index == k` on both sides), and
    /// the six face edges (`peer_index` 0) carry the staged migration.
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
        let offsets = neighbor_offsets(config.shells, config.half);
        let recv = offsets
            .iter()
            .enumerate()
            .map(|(k, &o)| edge(o, k))
            .collect();
        let send = offsets
            .iter()
            .enumerate()
            .map(|(k, o)| edge(o.opposite(), k))
            .collect();
        let face = |d: usize, dir: i8| {
            let mut off = [0; 3];
            off[d] = dir;
            edge(NeighborOffset { d: off }, 0)
        };
        let face_links = Box::new([0, 1, 2].map(|d| [face(d, -1), face(d, 1)]));
        CommGraph {
            me: rank,
            sub,
            r_ghost,
            recv,
            send,
            topology: Topology::Grid { config, face_links },
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

    /// Part `part`'s graph of [`CommGraph::from_rcb_parts`]: only its own
    /// pairs and its peers' are computed.
    #[must_use]
    pub fn from_rcb_mapped(
        part: usize,
        rcb: &Arc<RcbDecomposition>,
        map: &RankMap,
        r_ghost: f64,
        rank_of: &[usize],
    ) -> Self {
        RcbForest::new(rcb, r_ghost, rank_of).graph(part, map)
    }

    /// [`CommGraph::from_rcb_mapped`] with every part on its own rank.
    #[must_use]
    pub fn from_rcb(rank: usize, rcb: &Arc<RcbDecomposition>, map: &RankMap, r_ghost: f64) -> Self {
        let identity: Vec<usize> = (0..rcb.boxes.len()).collect();
        Self::from_rcb_mapped(rank, rcb, map, r_ghost, &identity)
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

    /// The edges `op`'s payloads leave along: `send` edges toward the
    /// ghosts, `recv` edges back toward the owners. A message on edge `e`
    /// lands in the peer's [`CommGraph::in_edges`] slot `e.peer_index`.
    #[must_use]
    pub fn out_edges(&self, op: Op) -> &[GraphEdge] {
        if op.toward_ghosts() {
            &self.send
        } else {
            &self.recv
        }
    }

    /// The edges `op`'s payloads arrive along (the mirror of
    /// [`CommGraph::out_edges`]).
    #[must_use]
    pub fn in_edges(&self, op: Op) -> &[GraphEdge] {
        if op.toward_ghosts() {
            &self.recv
        } else {
            &self.send
        }
    }

    /// The grid face neighbor toward `dim`/`dir` (staged migration only
    /// runs on grid graphs).
    #[must_use]
    pub fn face_link(&self, dim: usize, dir: usize) -> &GraphEdge {
        match &self.topology {
            Topology::Grid { face_links, .. } => &face_links[dim][dir],
            Topology::Irregular { .. } => {
                panic!("face links exist only on grid graphs; migrate via migrate_peers()")
            }
        }
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

    /// Build the border-atom selector for this graph's send edges: the
    /// O(1) bin table (or exact slab test) on grid graphs, the expanded
    /// regions' slab bit sets on irregular graphs.
    #[must_use]
    pub fn selector(&self) -> SendSelector {
        match &self.topology {
            Topology::Grid { .. } => {
                let offsets: Vec<_> = self.send.iter().map(|e| e.offset).collect();
                SendSelector::Grid(BorderBins::new(self.sub, self.r_ghost, &offsets))
            }
            Topology::Irregular { .. } => {
                let regions: Vec<Box3> = self
                    .send
                    .iter()
                    .map(|e| expand(&e.region, self.r_ghost))
                    .collect();
                SendSelector::Regions(RegionSlabs::new(&regions))
            }
        }
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

/// Which send edges need a given atom: the per-graph strategy behind
/// border packing.
#[derive(Debug, Clone)]
pub enum SendSelector {
    /// Grid graphs: the §3.5.2 bin table / exact slab test.
    Grid(BorderBins),
    /// Irregular graphs: one expanded peer region per send edge, already
    /// translated into my frame.
    Regions(RegionSlabs),
}

/// Which of a set of boxes hold a point, as per-axis slab bit sets: the
/// sorted faces of the boxes cut each axis into slabs, and each axis holds
/// its cuts and, `words` u64s per slab, bit k set where box k spans that
/// slab. A point's boxes are the AND of its three slabs' sets, in
/// ascending order — [`Box3::contains`]'s half-open verdicts (NaN in no
/// box) at one binary search per axis.
#[derive(Debug, Clone)]
pub struct RegionSlabs {
    axes: [(Vec<f64>, Vec<u64>); 3],
    words: usize,
}

impl RegionSlabs {
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
        RegionSlabs { axes, words }
    }
}

impl SendSelector {
    /// Visit the indices of send edges that need an atom at `x`.
    #[inline]
    pub fn for_each_target(&self, x: &[f64; 3], mut f: impl FnMut(u16)) {
        match self {
            SendSelector::Grid(bins) => bins.for_each_target(x, f),
            SendSelector::Regions(RegionSlabs { axes, words }) => {
                let slab = |d: usize| {
                    let (cuts, cover) = &axes[d];
                    &cover[cuts.partition_point(|&c| c <= x[d]) * words..]
                };
                let [a, b, c] = [0, 1, 2].map(slab);
                for w in 0..*words {
                    let mut bits = a[w] & b[w] & c[w];
                    while bits != 0 {
                        f((w * 64 + bits.trailing_zeros() as usize) as u16);
                        bits &= bits - 1;
                    }
                }
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
        // a zero shift included) of every recv, send and face edge plus
        // the sub-box, for ranks {0, 7, last} of two machines on a
        // non-cubic, off-origin box. Engines key tags, address-book slots
        // and shifts off these fields, so a grid construction change must
        // leave every digest where it is.
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
                    for dim in 0..3 {
                        for dir in 0..2 {
                            fold_edge(&mut h, g.face_link(dim, dir));
                        }
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
                0xbf82_511e_1868_3215,
                0xb804_3152_712f_dbf1,
                0x6729_936f_31f6_2238,
                0x6fe3_9f00_309c_e91d,
            ],
            "{digests:#018x?}"
        );
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
        let graphs: Vec<CommGraph> = (0..5)
            .map(|p| CommGraph::from_rcb_mapped(p, &rcb, &map, 2.5, &rank_of))
            .collect();
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
        let mapped = CommGraph::from_rcb_mapped(3, &rcb, &map, 2.5, &ident);
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

    /// Do two boxes come strictly within `r` of each other?
    fn within(a: &Box3, b: &Box3, r: f64) -> bool {
        (0..3).all(|d| a.lo[d] - r < b.hi[d] && b.lo[d] - r < a.hi[d])
    }

    /// The oracle's receive pairs of `rank`: every `(peer, image)` whose
    /// shifted box comes within `r_ghost` of mine, by a scan of all 27
    /// images of every peer, then sorted.
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
                let shifted = Box3 {
                    lo: [pb.lo[0] + s[0], pb.lo[1] + s[1], pb.lo[2] + s[2]],
                    hi: [pb.hi[0] + s[0], pb.hi[1] + s[1], pb.hi[2] + s[2]],
                };
                if within(&mine, &shifted, r_ghost) {
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
        /// the same bits); one part alone through `from_rcb_mapped` too.
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
                let part = seed as usize % nparts;
                let one = CommGraph::from_rcb_mapped(part, &rcb, &map, r_ghost, &rank_of);
                prop_assert_eq!(format!("{:?}", one.recv), format!("{:?}", forest[part].recv));
                prop_assert_eq!(format!("{:?}", one.send), format!("{:?}", forest[part].send));
                prop_assert_eq!(one.migrate_peers(), forest[part].migrate_peers());
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
            let sel = SendSelector::Regions(RegionSlabs::new(&boxes));
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
