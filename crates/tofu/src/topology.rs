//! The TofuD 6D mesh/torus topology (§2.2, Fig. 3 of the paper).
//!
//! Fugaku nodes carry six-dimensional coordinates `(x, y, z, a, b, c)`:
//! cells of 12 nodes (organized as a 2 x 3 x 2 block in `a, b, c`) are
//! themselves arranged in an `X x Y x Z` torus. Job allocations fold the six
//! dimensions into a *virtual 3D torus* of shape `(2X, 3Y, 2Z)` — this is
//! how the paper's node meshes (8x12x8 for 768 nodes ... 32x36x32 for
//! 36,864) arise, and how MPI ranks are mapped onto physical neighbors by
//! the topo-map optimization (§3.5.3).

/// Intra-cell extents of the a/b/c dimensions: 2 x 3 x 2 = 12 nodes/cell.
pub const CELL_DIMS: [u32; 3] = [2, 3, 2];

/// A rectangular allocation of TofuD cells (what the Fugaku job manager
/// hands out; always whole cells).
///
/// `intra` records which intra-cell dimension (2, 3 or 2 nodes) is folded
/// onto each mesh axis: the scheduler is free to permute the assignment, and
/// the paper's 24 x 32 x 24 mesh for 18,432 nodes requires the "3" on the
/// first axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellGrid {
    /// Number of cells along X, Y, Z.
    pub cells: [u32; 3],
    /// Intra-cell extent folded onto each axis (a permutation of 2, 3, 2).
    pub intra: [u32; 3],
}

impl CellGrid {
    /// Grid from cell counts with the canonical (2, 3, 2) fold.
    #[must_use]
    pub fn new(cells: [u32; 3]) -> Self {
        Self::with_intra(cells, CELL_DIMS)
    }

    /// Grid with an explicit fold permutation.
    #[must_use]
    pub fn with_intra(cells: [u32; 3], intra: [u32; 3]) -> Self {
        assert!(cells.iter().all(|&c| c > 0), "empty cell grid");
        assert_eq!(
            intra.iter().product::<u32>(),
            12,
            "intra dims must cover a cell"
        );
        let mut sorted = intra;
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [2, 2, 3],
            "intra dims must be a permutation of (2,3,2)"
        );
        Self { cells, intra }
    }

    /// The smallest cell grid whose folded node mesh matches the given node
    /// mesh, trying each placement of the 3-wide intra-cell dimension
    /// (canonical (2, 3, 2) first).
    #[must_use]
    pub fn from_node_mesh(mesh: [u32; 3]) -> Option<Self> {
        for intra in [[2u32, 3, 2], [3, 2, 2], [2, 2, 3]] {
            if (0..3).all(|d| mesh[d].is_multiple_of(intra[d])) {
                let cells = [mesh[0] / intra[0], mesh[1] / intra[1], mesh[2] / intra[2]];
                return Some(Self::with_intra(cells, intra));
            }
        }
        None
    }

    /// Total node count: 12 per cell.
    #[must_use]
    pub fn node_count(&self) -> usize {
        12 * self.cells.iter().product::<u32>() as usize
    }

    /// Folded virtual-3D-torus node mesh (e.g. `(2X, 3Y, 2Z)` for the
    /// canonical fold).
    #[must_use]
    pub fn node_mesh(&self) -> [u32; 3] {
        [
            self.intra[0] * self.cells[0],
            self.intra[1] * self.cells[1],
            self.intra[2] * self.cells[2],
        ]
    }

    /// Linear node id of a folded-mesh coordinate (x fastest).
    #[must_use]
    pub fn node_id(&self, m: [u32; 3]) -> usize {
        let mesh = self.node_mesh();
        (m[0] + mesh[0] * (m[1] + mesh[1] * m[2])) as usize
    }

    /// Folded-mesh coordinate of a linear node id.
    #[must_use]
    pub fn mesh_of_id(&self, id: usize) -> [u32; 3] {
        let mesh = self.node_mesh();
        let id = id as u32;
        [
            id % mesh[0],
            (id / mesh[0]) % mesh[1],
            id / (mesh[0] * mesh[1]),
        ]
    }

    /// Hop count between two nodes: per-axis torus distance on the folded
    /// mesh (the "logical topology" of Table 1's hop column).
    ///
    /// TofuD routes each dimension independently; adjacent folded-mesh
    /// coordinates are physically cabled (the 2x3x2 intra-cell block plus
    /// the cell tori), so torus distance on the folded mesh is the shortest
    /// path length.
    #[must_use]
    pub fn hops(&self, a: [u32; 3], b: [u32; 3]) -> u32 {
        let mesh = self.node_mesh();
        let mut h = 0;
        for d in 0..3 {
            let diff = a[d].abs_diff(b[d]);
            h += diff.min(mesh[d] - diff);
        }
        h
    }
}

/// The node-mesh shapes used by the paper's scaling study (§4.3.1):
/// (nodes, mesh) pairs for 768 ... 36,864 nodes plus the weak-scaling
/// 20,736-node point. The one table of the paper's machine sizes: the
/// figures' strong- and weak-scaling lists are picked from it.
pub const PAPER_NODE_MESHES: [(usize, [u32; 3]); 6] = [
    (768, [8, 12, 8]),
    (2160, [12, 15, 12]),
    (6144, [16, 24, 16]),
    (18432, [24, 32, 24]),
    (20736, [24, 36, 24]),
    (36864, [32, 36, 32]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_meshes_fold_exactly() {
        for (nodes, mesh) in PAPER_NODE_MESHES {
            let grid = CellGrid::from_node_mesh(mesh)
                .unwrap_or_else(|| panic!("mesh {mesh:?} does not fold"));
            assert_eq!(grid.node_count(), nodes, "node count for {mesh:?}");
            assert_eq!(grid.node_mesh(), mesh);
        }
    }

    #[test]
    fn fugaku_scale() {
        // Full Fugaku: 24 x 23 x 24 cells = 158,976 nodes (§2.2).
        let grid = CellGrid::new([24, 23, 24]);
        assert_eq!(grid.node_count(), 158_976);
    }

    #[test]
    fn coord_mesh_roundtrip() {
        let grid = CellGrid::new([2, 2, 2]);
        for id in 0..grid.node_count() {
            let m = grid.mesh_of_id(id);
            assert_eq!(grid.node_id(m), id);
            assert_eq!(grid.intra, CELL_DIMS);
        }
    }

    #[test]
    fn hops_are_torus_distances() {
        let grid = CellGrid::new([4, 4, 4]); // mesh 8 x 12 x 8
        assert_eq!(grid.hops([0, 0, 0], [0, 0, 0]), 0);
        assert_eq!(grid.hops([0, 0, 0], [1, 0, 0]), 1);
        assert_eq!(grid.hops([0, 0, 0], [7, 0, 0]), 1, "x wraps at 8");
        assert_eq!(grid.hops([0, 0, 0], [4, 0, 0]), 4);
        assert_eq!(grid.hops([0, 0, 0], [1, 1, 1]), 3);
        assert_eq!(grid.hops([0, 0, 0], [0, 11, 0]), 1, "y wraps at 12");
        assert_eq!(grid.hops([0, 0, 0], [0, 6, 0]), 6);
    }

    #[test]
    fn hops_symmetric_and_triangle() {
        let grid = CellGrid::new([3, 2, 2]);
        let pts = [[0u32, 0, 0], [5, 3, 1], [2, 5, 3], [1, 1, 2]];
        for &p in &pts {
            for &q in &pts {
                assert_eq!(grid.hops(p, q), grid.hops(q, p));
                for &r in &pts {
                    assert!(grid.hops(p, q) <= grid.hops(p, r) + grid.hops(r, q));
                }
            }
        }
    }

    #[test]
    fn non_foldable_mesh_rejected() {
        assert!(CellGrid::from_node_mesh([8, 13, 8]).is_none());
        assert!(CellGrid::from_node_mesh([7, 11, 5]).is_none());
    }

    #[test]
    fn fold_permutes_when_needed() {
        // 24 x 32 x 24 (18,432 nodes): the 3-wide dim must fold onto x.
        let g = CellGrid::from_node_mesh([24, 32, 24]).unwrap();
        assert_eq!(g.intra, [3, 2, 2]);
        assert_eq!(g.cells, [8, 16, 12]);
        assert_eq!(g.node_count(), 18_432);
        // Canonical fold is preferred when possible.
        let g2 = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        assert_eq!(g2.intra, [2, 3, 2]);
    }
}
