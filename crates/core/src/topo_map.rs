//! Rank-to-node placement (§3.5.3 "topo map").
//!
//! The 3D domain decomposition is mapped onto the folded TofuD node mesh so
//! grid-adjacent MPI ranks land on physically adjacent nodes. With 4 ranks
//! per node, the rank grid is the node mesh refined by (1, 2, 2): the four
//! sub-boxes sharing a node form a 1x2x2 block, keeping every ghost
//! exchange within 0 hops (same node) or a small constant. The ablation
//! alternative is a shuffled placement that destroys locality.

use tofumd_tofu::CellGrid;

/// Refinement of the node mesh into the rank grid: 4 ranks/node as a
/// 1 x 2 x 2 block (§3.2 launches 4 ranks per node, one per CMG).
pub const RANKS_PER_NODE_SPLIT: [u32; 3] = [1, 2, 2];

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Topology-aware: decomposition grid == refined node mesh (the
    /// paper's topo-map optimization).
    TopoAware,
    /// Locality-destroying deterministic shuffle (ablation baseline).
    Shuffled {
        /// Shuffle seed.
        seed: u64,
    },
}

/// Mapping between decomposition ranks and (node, slot) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMap {
    grid: CellGrid,
    /// Rank grid dimensions (node mesh x split).
    pub rank_grid: [u32; 3],
    /// rank -> node id.
    node_of_rank: Vec<usize>,
}

impl RankMap {
    /// Build the map for a cell grid and placement policy.
    #[must_use]
    pub fn new(grid: CellGrid, placement: Placement) -> Self {
        let mesh = grid.node_mesh();
        let rank_grid = [
            mesh[0] * RANKS_PER_NODE_SPLIT[0],
            mesh[1] * RANKS_PER_NODE_SPLIT[1],
            mesh[2] * RANKS_PER_NODE_SPLIT[2],
        ];
        let nranks = (rank_grid[0] * rank_grid[1] * rank_grid[2]) as usize;
        let mut node_of_rank = Vec::with_capacity(nranks);
        for r in 0..nranks {
            let c = Self::coord_of(rank_grid, r);
            let m = [
                c[0] / RANKS_PER_NODE_SPLIT[0],
                c[1] / RANKS_PER_NODE_SPLIT[1],
                c[2] / RANKS_PER_NODE_SPLIT[2],
            ];
            node_of_rank.push(grid.node_id(m));
        }
        if let Placement::Shuffled { seed } = placement {
            // Fisher-Yates with a splitmix-style generator: deterministic,
            // dependency-free, uniform enough to destroy locality.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..node_of_rank.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                node_of_rank.swap(i, j);
            }
        }
        RankMap {
            grid,
            rank_grid,
            node_of_rank,
        }
    }

    fn coord_of(grid: [u32; 3], rank: usize) -> [u32; 3] {
        let r = rank as u32;
        [
            r % grid[0],
            (r / grid[0]) % grid[1],
            r / (grid[0] * grid[1]),
        ]
    }

    /// Total rank count (4 x node count).
    #[must_use]
    pub fn nranks(&self) -> usize {
        self.node_of_rank.len()
    }

    /// Decomposition-grid coordinate of a rank (x fastest).
    #[must_use]
    pub fn rank_coord(&self, rank: usize) -> [u32; 3] {
        Self::coord_of(self.rank_grid, rank)
    }

    /// Rank at a (wrapping) grid coordinate.
    #[must_use]
    pub fn rank_at(&self, coord: [i64; 3]) -> usize {
        let mut c = [0u32; 3];
        for d in 0..3 {
            c[d] = coord[d].rem_euclid(i64::from(self.rank_grid[d])) as u32;
        }
        (c[0] + self.rank_grid[0] * (c[1] + self.rank_grid[1] * c[2])) as usize
    }

    /// Node hosting a rank.
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of_rank[rank]
    }

    /// Network hops between two ranks.
    #[must_use]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.grid.hops(
            self.grid.mesh_of_id(self.node_of_rank[a]),
            self.grid.mesh_of_id(self.node_of_rank[b]),
        )
    }

    /// Mean hop distance from a rank to its 26 grid neighbors — the
    /// quantity the topo map minimizes (ablation observable).
    #[must_use]
    pub fn mean_neighbor_hops(&self, rank: usize) -> f64 {
        let c = self.rank_coord(rank);
        let mut sum = 0u32;
        let mut n = 0u32;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let nb = self.rank_at([
                        i64::from(c[0]) + dx,
                        i64::from(c[1]) + dy,
                        i64::from(c[2]) + dz,
                    ]);
                    sum += self.hops(rank, nb);
                    n += 1;
                }
            }
        }
        f64::from(sum) / f64::from(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_768() -> CellGrid {
        CellGrid::from_node_mesh([8, 12, 8]).unwrap()
    }

    #[test]
    fn rank_count_is_4x_nodes() {
        let m = RankMap::new(grid_768(), Placement::TopoAware);
        assert_eq!(m.nranks(), 4 * 768);
        assert_eq!(m.rank_grid, [8, 24, 16]);
    }

    #[test]
    fn four_ranks_share_each_node() {
        let m = RankMap::new(grid_768(), Placement::TopoAware);
        let mut counts = vec![0u32; 768];
        for r in 0..m.nranks() {
            counts[m.node_of(r)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4));
    }

    #[test]
    fn topo_aware_neighbors_are_close() {
        let m = RankMap::new(grid_768(), Placement::TopoAware);
        // A rank's grid neighbors are at most 3 hops away (one mesh step
        // per dimension).
        let hops = m.mean_neighbor_hops(0);
        assert!(hops <= 2.0, "topo-aware mean neighbor hops = {hops}");
    }

    #[test]
    fn shuffled_placement_inflates_hops() {
        let topo = RankMap::new(grid_768(), Placement::TopoAware);
        let rand = RankMap::new(grid_768(), Placement::Shuffled { seed: 1 });
        let h_topo = topo.mean_neighbor_hops(100);
        let h_rand = rand.mean_neighbor_hops(100);
        assert!(
            h_rand > 2.0 * h_topo,
            "shuffle must inflate hops: {h_rand} vs {h_topo}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let m = RankMap::new(grid_768(), Placement::Shuffled { seed: 7 });
        let mut counts = vec![0u32; 768];
        for r in 0..m.nranks() {
            counts[m.node_of(r)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 4), "each node still hosts 4");
    }

    #[test]
    fn rank_at_wraps() {
        let m = RankMap::new(grid_768(), Placement::TopoAware);
        assert_eq!(m.rank_at([-1, 0, 0]), m.rank_at([7, 0, 0]));
        assert_eq!(m.rank_at([8, 24, 16]), m.rank_at([0, 0, 0]));
    }

    #[test]
    fn same_node_ranks_have_zero_hops() {
        let m = RankMap::new(grid_768(), Placement::TopoAware);
        // Ranks (0,0,0) and (0,1,0) share a node under the 1x2x2 split.
        let a = m.rank_at([0, 0, 0]);
        let b = m.rank_at([0, 1, 0]);
        assert_eq!(m.node_of(a), m.node_of(b));
        assert_eq!(m.hops(a, b), 0);
    }
}
