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
//! * [`CommGraph::from_rcb`] derives the edge set from a
//!   recursive-coordinate-bisection decomposition: an edge exists for each
//!   `(peer, periodic image)` whose box comes within `r_ghost` of mine.
//!
//! Determinism contract: edge lists are ordered by `(peer rank, image
//! vector)`, pairing indices are computed by reconstructing the peer's
//! edge list with the same pure function, and the lockstep driver
//! completes receives in edge order — so completion order (and the
//! virtual clock) is a pure function of the decomposition, never of
//! thread scheduling.

use crate::border_bin::BorderBins;
use crate::engine::Op;
use crate::topo_map::RankMap;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tofumd_md::domain::{neighbor_offsets, NeighborOffset, RcbDecomposition};
use tofumd_md::region::Box3;
use tofumd_tofu::{FaultKind, FaultRule};

/// Which neighbor set a grid graph spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
        rank_of: Vec<usize>,
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

/// Volume of the intersection of two boxes (0 when disjoint).
#[must_use]
pub fn overlap_volume(a: &Box3, b: &Box3) -> f64 {
    let mut v = 1.0;
    for d in 0..3 {
        let lo = a.lo[d].max(b.lo[d]);
        let hi = a.hi[d].min(b.hi[d]);
        if hi <= lo {
            return 0.0;
        }
        v *= hi - lo;
    }
    v
}

/// Do two boxes come strictly within `r` of each other?
fn within(a: &Box3, b: &Box3, r: f64) -> bool {
    (0..3).all(|d| a.lo[d] - r < b.hi[d] && b.lo[d] - r < a.hi[d])
}

/// The 27 periodic image vectors in a fixed lexicographic order.
fn images() -> impl Iterator<Item = [i32; 3]> {
    (-1..=1).flat_map(|sx| (-1..=1).flat_map(move |sy| (-1..=1).map(move |sz| [sx, sy, sz])))
}

/// Receive pairs of `rank` under an RCB decomposition: every
/// `(peer, image)` whose shifted box comes within `r_ghost` of mine,
/// ordered by `(peer, image)`. Pure function of the decomposition — both
/// sides of every edge recompute it to agree on pairing indices.
fn rcb_recv_pairs(rcb: &RcbDecomposition, rank: usize, r_ghost: f64) -> Vec<(usize, [i32; 3])> {
    let l = rcb.global.lengths();
    let mine = rcb.boxes[rank];
    let mut out = Vec::new();
    for (peer, pb) in rcb.boxes.iter().enumerate() {
        for img in images() {
            if peer == rank && img == [0, 0, 0] {
                continue;
            }
            let shifted = Box3 {
                lo: [
                    pb.lo[0] + f64::from(img[0]) * l[0],
                    pb.lo[1] + f64::from(img[1]) * l[1],
                    pb.lo[2] + f64::from(img[2]) * l[2],
                ],
                hi: [
                    pb.hi[0] + f64::from(img[0]) * l[0],
                    pb.hi[1] + f64::from(img[1]) * l[1],
                    pb.hi[2] + f64::from(img[2]) * l[2],
                ],
            };
            if within(&mine, &shifted, r_ghost) {
                out.push((peer, img));
            }
        }
    }
    out.sort_unstable_by_key(|&(p, img)| (p, img));
    out
}

/// Migrate partners of `rank`: the deduplicated rank set of its edges
/// (excluding itself — self-wraps are resolved locally), sorted.
fn rcb_migrate_ranks(rcb: &RcbDecomposition, rank: usize, r_ghost: f64) -> Vec<usize> {
    let mut ranks: Vec<usize> = rcb_recv_pairs(rcb, rank, r_ghost)
        .iter()
        .map(|&(p, _)| p)
        .filter(|&p| p != rank)
        .collect();
    ranks.sort_unstable();
    ranks.dedup();
    ranks
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

    /// Build the star forest of `rank` over an RCB decomposition: one edge
    /// per `(peer, periodic image)` whose box comes within `r_ghost` of
    /// mine. Pairing indices are cross-computed deterministically, so all
    /// ranks agree without any negotiation round.
    #[must_use]
    pub fn from_rcb(rank: usize, rcb: &Arc<RcbDecomposition>, map: &RankMap, r_ghost: f64) -> Self {
        let identity: Vec<usize> = (0..rcb.boxes.len()).collect();
        Self::from_rcb_mapped(rank, rcb, map, r_ghost, &identity)
    }

    /// [`CommGraph::from_rcb`] with an explicit part → physical-rank map:
    /// the graph of *part* `part` whose peers live at `rank_of[p]`. Edge
    /// lists, pairing indices, and migrate tags are all computed in part
    /// space (every survivor reconstructs the same lists, so they stay
    /// cross-consistent), then rank and node fields are remapped so the
    /// transport addresses real ranks. Shrinking recovery uses this to
    /// rebuild an N−1 decomposition over the survivors of a dead rank.
    ///
    /// `rank_of` must assign each part a distinct physical rank.
    #[must_use]
    pub fn from_rcb_mapped(
        part: usize,
        rcb: &Arc<RcbDecomposition>,
        map: &RankMap,
        r_ghost: f64,
        rank_of: &[usize],
    ) -> Self {
        assert_eq!(
            rank_of.len(),
            rcb.boxes.len(),
            "rank_of must cover every RCB part"
        );
        let rank = part;
        let l = rcb.global.lengths();
        let sub = rcb.boxes[rank];
        assert!(
            (0..3).all(|d| r_ghost < l[d]),
            "ghost cutoff must stay below the global box"
        );
        let pairs = rcb_recv_pairs(rcb, rank, r_ghost);
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
            rcb_recv_pairs(rcb, peer, r_ghost)
                .iter()
                .position(|&p| p == target)
                .unwrap_or_else(|| {
                    // Mirror-edge existence is a theorem of the symmetric
                    // `within` test; failure means the decomposition is
                    // inconsistent across ranks.
                    panic!("rank {peer} is missing the mirror edge {target:?} of rank {rank}")
                })
        };
        let mut recv = Vec::with_capacity(pairs.len());
        let mut send = Vec::with_capacity(pairs.len());
        for &(peer, img) in &pairs {
            let node = map.node_of(rank_of[peer]);
            let hops = map.hops(rank_of[rank], rank_of[peer]);
            let neg = [-img[0], -img[1], -img[2]];
            // recv[k]: the peer's atoms arrive shifted by +img·L into my
            // frame. Mirrors the peer's send edge (me, img), which sits
            // where (me, -img) sits in the peer's recv list.
            recv.push(GraphEdge {
                offset: NeighborOffset { d: [0; 3] },
                rank: rank_of[peer],
                node,
                hops,
                shift: shift_of(img),
                region: translated(peer, img),
                peer_index: index_in(peer, (rank, neg)),
            });
            // send[k]: I ship my atoms shifted by -img·L toward the peer.
            // Mirrors the peer's recv edge (me, -img).
            send.push(GraphEdge {
                offset: NeighborOffset { d: [0; 3] },
                rank: rank_of[peer],
                node,
                hops,
                shift: shift_of(neg),
                region: translated(peer, img),
                peer_index: index_in(peer, (rank, neg)),
            });
        }
        let migrate = rcb_migrate_ranks(rcb, rank, r_ghost)
            .into_iter()
            .map(|peer| MigratePeer {
                rank: rank_of[peer],
                node: map.node_of(rank_of[peer]),
                tag_index: rcb_migrate_ranks(rcb, peer, r_ghost)
                    .iter()
                    .position(|&p| p == rank)
                    .unwrap_or(usize::MAX),
            })
            .collect();
        CommGraph {
            me: rank_of[rank],
            sub,
            r_ghost,
            recv,
            send,
            topology: Topology::Irregular {
                rcb: rcb.clone(),
                migrate,
                rank_of: rank_of.to_vec(),
            },
        }
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
    /// O(1) bin table (or exact slab test) on grid graphs, the per-edge
    /// expanded-region test on irregular graphs.
    #[must_use]
    pub fn selector(&self) -> SendSelector {
        match &self.topology {
            Topology::Grid { .. } => {
                let offsets: Vec<_> = self.send.iter().map(|e| e.offset).collect();
                SendSelector::Grid(BorderBins::new(self.sub, self.r_ghost, &offsets))
            }
            Topology::Irregular { .. } => SendSelector::Regions(
                self.send
                    .iter()
                    .map(|e| expand(&e.region, self.r_ghost))
                    .collect(),
            ),
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

    /// Total expected ghost atoms received per exchange.
    #[must_use]
    pub fn total_ghost_estimate(&self, density: f64) -> f64 {
        match &self.topology {
            Topology::Grid { .. } => self
                .recv
                .iter()
                .map(|e| density * self.slab_volume(e.offset))
                .sum(),
            Topology::Irregular { .. } => self
                .recv
                .iter()
                .map(|e| density * overlap_volume(&expand(&self.sub, self.r_ghost), &e.region))
                .sum(),
        }
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
    Regions(Vec<Box3>),
}

impl SendSelector {
    /// Visit the indices of send edges that need an atom at `x`.
    #[inline]
    pub fn for_each_target(&self, x: &[f64; 3], mut f: impl FnMut(u16)) {
        match self {
            SendSelector::Grid(bins) => bins.for_each_target(x, f),
            SendSelector::Regions(regions) => {
                for (k, r) in regions.iter().enumerate() {
                    if r.contains(x) {
                        f(k as u16);
                    }
                }
            }
        }
    }

    /// Collected targets of an atom (convenience for tests).
    #[must_use]
    pub fn targets_of(&self, x: &[f64; 3]) -> Vec<u16> {
        let mut out = Vec::new();
        self.for_each_target(x, |k| out.push(k));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_map::Placement;
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
                assert_eq!(sel.targets_of(p), want, "atom {p:?} on rank {rank}");
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

    #[test]
    fn overlap_volume_basics() {
        let a = Box3::from_lengths([2.0; 3]);
        let b = Box3::new([1.0, 0.0, 0.0], [3.0, 2.0, 2.0]);
        assert!((overlap_volume(&a, &b) - 4.0).abs() < 1e-12);
        let c = Box3::new([5.0; 3], [6.0; 3]);
        assert_eq!(overlap_volume(&a, &c), 0.0);
    }
}
