//! Spatial cell bins used to build Verlet neighbor lists in O(N).

use crate::kernels::LANE_WIDTH;
use std::ops::Range;

/// The geometry of a uniform bin grid over `[lo, hi]`: which cell a
/// coordinate falls in, and how far a coordinate is from the cells beside
/// its own. Plain data — building one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinGrid {
    lo: [f64; 3],
    nbin: [usize; 3],
    inv_size: [f64; 3],
    size: [f64; 3],
    /// Per-dimension bound on how far the computed face `lo + k * size`
    /// can sit from the coordinate at which `coord_of` actually switches
    /// cells (see [`BinGrid::gaps`]).
    slack: [f64; 3],
}

impl BinGrid {
    pub(crate) fn new(lo: [f64; 3], hi: [f64; 3], min_cell: f64) -> Self {
        assert!(min_cell > 0.0, "cell size must be positive");
        let mut nbin = [1usize; 3];
        let mut inv_size = [0.0; 3];
        let mut size = [0.0; 3];
        let mut slack = [0.0; 3];
        for d in 0..3 {
            let extent = hi[d] - lo[d];
            assert!(extent > 0.0, "degenerate bin region in dim {d}");
            nbin[d] = ((extent / min_cell).floor() as usize).max(1);
            inv_size[d] = nbin[d] as f64 / extent;
            size[d] = extent / nbin[d] as f64;
            slack[d] = 16.0 * f64::EPSILON * (lo[d].abs() + hi[d].abs());
        }
        BinGrid {
            lo,
            nbin,
            inv_size,
            size,
            slack,
        }
    }

    pub(crate) fn nbin(&self) -> [usize; 3] {
        self.nbin
    }

    pub(crate) fn nbins(&self) -> usize {
        self.nbin[0] * self.nbin[1] * self.nbin[2]
    }

    pub(crate) fn coord_of(&self, x: &[f64; 3]) -> [usize; 3] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            let idx = ((x[d] - self.lo[d]) * self.inv_size[d]).floor() as i64;
            c[d] = idx.clamp(0, self.nbin[d] as i64 - 1) as usize;
        }
        c
    }

    pub(crate) fn flat(&self, c: [usize; 3]) -> usize {
        c[0] + self.nbin[0] * (c[1] + self.nbin[1] * c[2])
    }

    pub(crate) fn bin_of(&self, x: &[f64; 3]) -> usize {
        self.flat(self.coord_of(x))
    }

    /// The counting pass of a counting sort by bin: append each position's
    /// flat bin index to `flats` and add it to `counts[bin + 1]`. Returns
    /// whether the bin indices were nondecreasing in position order.
    pub(crate) fn count(
        &self,
        positions: &[[f64; 3]],
        counts: &mut [u32],
        flats: &mut Vec<u32>,
    ) -> bool {
        let mut sorted = true;
        let mut prev = 0;
        for x in positions {
            let b = self.bin_of(x);
            flats.push(b as u32);
            counts[b + 1] += 1;
            sorted &= b >= prev;
            prev = b;
        }
        sorted
    }

    /// Lower bounds on the distance along dimension `d` from coordinate
    /// `x`, binned in cell `c`, to any atom binned in a cell below `c`
    /// (`[0]`) and in a cell above `c` (`[1]`).
    ///
    /// `coord_of` is monotone in the coordinate, so every atom binned
    /// below cell `c` (clamped ones included: they lie further out) sits
    /// below the coordinate where `coord_of` steps to `c`. That step and
    /// the face computed here, `lo + c * size`, differ only by rounding:
    /// three roundings in the cell index, three in the face, each
    /// relative to a magnitude of at most `|lo| + |hi|` — under
    /// `4 * EPSILON * (|lo| + |hi|)` in all, a quarter of `slack`. A
    /// negative or NaN gap reads as zero, i.e. as "cannot be pruned".
    pub(crate) fn gaps(&self, d: usize, c: usize, x: f64) -> [f64; 2] {
        let face_lo = self.lo[d] + c as f64 * self.size[d];
        let face_hi = self.lo[d] + (c + 1) as f64 * self.size[d];
        [
            (x - face_lo - self.slack[d]).max(0.0),
            (face_hi - x - self.slack[d]).max(0.0),
        ]
    }
}

/// A uniform grid of cells ("bins") covering an extended bounding region
/// (sub-box plus ghost margin), storing atom indices in a flat CSR layout:
/// one counting pass, one prefix sum, one scatter pass — no per-bin
/// allocation on rebuild, and each bin's atoms are contiguous in memory.
///
/// Because the scatter walks atoms in index order and local atoms precede
/// ghosts in [`crate::atom::Atoms`], every bin's slice is automatically
/// partitioned locals-first; `ghost_start` records the split so traversals
/// can visit only a bin's ghost segment.
///
/// **The stream.** Beside the index array the fill writes a bin-ordered
/// SoA copy of the coordinates: `xs[k]`, `ys[k]`, `zs[k]` are the position
/// of atom `atoms[k]`. Any run of bins that is contiguous in flat order —
/// one bin, one bin's ghost segment, or the three x-adjacent bins of a
/// stencil line — is therefore one contiguous range of four parallel
/// arrays, which the neighbor build reads [`LANE_WIDTH`] lanes at a time
/// with no index gather, whether or not the locals are sorted.
///
/// **Padding invariant.** All four arrays are `natoms + LANE_WIDTH` long.
/// A block may start at any `k < natoms` and read `LANE_WIDTH` lanes
/// without leaving the arrays; the pad coordinates are NaN, so a pad lane
/// fails every `r² < cutsq` test even if a caller forgets to mask it.
///
/// **Cost.** The fill is two passes plus the coordinate copy: 12–13 ns
/// per atom on a fresh grid per build with a ghost shell
/// (`md.bins_fill_ns_per_atom`; 19 ns at 22 atoms per rank, where the
/// three extra allocations show), of which the copy is 2–3 ns; and 24
/// bytes per binned atom that live only as long as the build that owns
/// the bins. A single-pass Vec-of-Vec scatter fills in about half the
/// time but can hand the build neither contiguous ranges nor
/// coordinates, and the build that consumes the bins costs 350–1 000 ns
/// per row.
#[derive(Debug, Clone)]
pub struct CellBins {
    grid: BinGrid,
    /// CSR row offsets into `atoms`, `nbins + 1` entries.
    starts: Vec<u32>,
    /// Absolute offset of the first ghost atom within each bin's slice.
    ghost_start: Vec<u32>,
    /// Atom indices, grouped by bin, ascending within each bin (padded).
    atoms: Vec<u32>,
    /// Coordinates of `atoms[k]`, one array per dimension (padded).
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    /// Per-atom flat bin index, kept between the counting and scatter
    /// passes (reused across fills).
    flat_scratch: Vec<u32>,
    /// Per-bin scatter cursors (reused across fills).
    cursor_scratch: Vec<u32>,
    /// True when the local atoms' flat bin indices were nondecreasing in
    /// index order at the last [`CellBins::fill`] — i.e. the caller has
    /// spatially sorted them on this exact grid.
    sorted_locals: bool,
}

/// The bin-ordered stream of a filled [`CellBins`]: four parallel arrays
/// of equal length, `LANE_WIDTH` longer than the atom count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinStream<'a> {
    pub(crate) idx: &'a [u32],
    pub(crate) xs: &'a [f64],
    pub(crate) ys: &'a [f64],
    pub(crate) zs: &'a [f64],
}

impl CellBins {
    /// Create bins covering `[lo, hi]` with cells no smaller than
    /// `min_cell` per dimension (callers pass the neighbor-list cutoff so a
    /// 27-bin stencil is sufficient).
    #[must_use]
    pub fn new(lo: [f64; 3], hi: [f64; 3], min_cell: f64) -> Self {
        let grid = BinGrid::new(lo, hi, min_cell);
        let total = grid.nbins();
        CellBins {
            grid,
            starts: vec![0; total + 1],
            ghost_start: vec![0; total],
            atoms: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            flat_scratch: Vec::new(),
            cursor_scratch: Vec::new(),
            sorted_locals: false,
        }
    }

    /// Bin grid dimensions.
    #[must_use]
    pub fn nbin(&self) -> [usize; 3] {
        self.grid.nbin()
    }

    /// Total number of bins.
    #[must_use]
    pub fn nbins(&self) -> usize {
        self.grid.nbins()
    }

    /// Grid coordinate of the cell containing `x` (clamped to the grid so
    /// ghost atoms slightly outside the region land in border bins).
    #[must_use]
    pub fn coord_of(&self, x: &[f64; 3]) -> [usize; 3] {
        self.grid.coord_of(x)
    }

    /// Flat (row-major) index of grid coordinate `c`.
    #[must_use]
    pub fn flat(&self, c: [usize; 3]) -> usize {
        self.grid.flat(c)
    }

    /// Index of the bin containing `x`.
    #[must_use]
    pub fn bin_of(&self, x: &[f64; 3]) -> usize {
        self.grid.bin_of(x)
    }

    /// Clear and re-populate the bins from atom positions; the first
    /// `nlocal` positions are local atoms, the rest ghosts.
    pub fn fill(&mut self, positions: &[[f64; 3]], nlocal: usize) {
        let nbins = self.nbins();
        // Counting pass (starts[b + 1] accumulates bin b's population);
        // only the locals' order decides the sorted-locals verdict.
        self.starts.iter_mut().for_each(|s| *s = 0);
        let mut flats = std::mem::take(&mut self.flat_scratch);
        flats.clear();
        flats.reserve(positions.len());
        let (locals, ghosts) = positions.split_at(nlocal);
        self.sorted_locals = self.grid.count(locals, &mut self.starts, &mut flats);
        self.grid.count(ghosts, &mut self.starts, &mut flats);
        // Prefix sum.
        for b in 0..nbins {
            self.starts[b + 1] += self.starts[b];
        }
        // Scatter pass in index order: within a bin, indices ascend and
        // locals (smaller indices) precede ghosts. Scattering the locals
        // first means the cursors *are* the local/ghost boundary when that
        // loop finishes — one bulk snapshot instead of a per-atom store —
        // and the ghosts then continue from the same cursors.
        let mut cursor = std::mem::take(&mut self.cursor_scratch);
        cursor.clear();
        cursor.extend_from_slice(&self.starts[..nbins]);
        // Every atom slot is overwritten by the scatter (the counts sum to
        // the atom total) and the pad is rewritten below, so steady-state
        // rebuilds at the same size skip the resize's memset entirely.
        let n = positions.len();
        if self.atoms.len() != n + LANE_WIDTH {
            self.atoms.resize(n + LANE_WIDTH, 0);
            for s in [&mut self.xs, &mut self.ys, &mut self.zs] {
                s.resize(n + LANE_WIDTH, 0.0);
            }
        }
        for (i, &b) in flats[..nlocal].iter().enumerate() {
            let b = b as usize;
            self.atoms[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }
        self.ghost_start.copy_from_slice(&cursor);
        for (i, &b) in flats.iter().enumerate().skip(nlocal) {
            let b = b as usize;
            self.atoms[cursor[b] as usize] = i as u32;
            cursor[b] += 1;
        }
        self.flat_scratch = flats;
        self.cursor_scratch = cursor;
        // Coordinate copy in stream order: sequential writes, and reads
        // that are themselves near-sequential once the locals are sorted.
        let (atoms, pad) = self.atoms.split_at_mut(n);
        pad.fill(0);
        for (((&a, x), y), z) in atoms
            .iter()
            .zip(&mut self.xs)
            .zip(&mut self.ys)
            .zip(&mut self.zs)
        {
            [*x, *y, *z] = positions[a as usize];
        }
        for s in [&mut self.xs, &mut self.ys, &mut self.zs] {
            s[n..].fill(f64::NAN);
        }
    }

    /// Atoms in the bin with flat index `b` (locals first, then ghosts).
    #[must_use]
    pub fn bin(&self, b: usize) -> &[u32] {
        &self.atoms[self.span(b, b)]
    }

    /// Only the ghost atoms of bin `b`.
    #[must_use]
    pub fn ghosts(&self, b: usize) -> &[u32] {
        &self.atoms[self.ghost_span(b)]
    }

    /// The grid geometry.
    pub(crate) fn grid(&self) -> &BinGrid {
        &self.grid
    }

    /// The bin-ordered index and coordinate arrays.
    pub(crate) fn stream(&self) -> BinStream<'_> {
        BinStream {
            idx: &self.atoms,
            xs: &self.xs,
            ys: &self.ys,
            zs: &self.zs,
        }
    }

    /// Stream range of the flat-adjacent bins `b_lo..=b_hi`.
    pub(crate) fn span(&self, b_lo: usize, b_hi: usize) -> Range<usize> {
        self.starts[b_lo] as usize..self.starts[b_hi + 1] as usize
    }

    /// Stream range of bin `b`'s ghost segment.
    pub(crate) fn ghost_span(&self, b: usize) -> Range<usize> {
        self.ghost_start[b] as usize..self.starts[b + 1] as usize
    }

    /// Were the local atoms sorted by this grid's flat bin index at the
    /// last fill? When true, every local atom in a strictly lower bin has
    /// a strictly lower index — the precondition for the half-stencil
    /// neighbor traversal.
    #[must_use]
    pub fn sorted_locals(&self) -> bool {
        self.sorted_locals
    }

    /// Visit every atom in the 27-bin stencil around the bin containing `x`
    /// (clamped at region edges — no periodic wrap here: ghost atoms make
    /// the region self-contained).
    pub fn for_each_candidate(&self, x: &[f64; 3], mut f: impl FnMut(u32)) {
        let c = self.coord_of(x);
        let nbin = self.nbin();
        let c = [c[0] as i64, c[1] as i64, c[2] as i64];
        for dz in -1..=1i64 {
            let z = c[2] + dz;
            if z < 0 || z >= nbin[2] as i64 {
                continue;
            }
            for dy in -1..=1i64 {
                let y = c[1] + dy;
                if y < 0 || y >= nbin[1] as i64 {
                    continue;
                }
                for dx in -1..=1i64 {
                    let xx = c[0] + dx;
                    if xx < 0 || xx >= nbin[0] as i64 {
                        continue;
                    }
                    let b = self.flat([xx as usize, y as usize, z as usize]);
                    for &a in self.bin(b) {
                        f(a);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_dimensions_respect_min_cell() {
        let b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        assert_eq!(b.nbin(), [4, 4, 4]);
        // Cells must be at least min_cell wide.
        let b2 = CellBins::new([0.0; 3], [10.0; 3], 3.0);
        assert_eq!(b2.nbin(), [3, 3, 3]);
    }

    #[test]
    fn tiny_region_gets_one_bin() {
        let b = CellBins::new([0.0; 3], [1.0; 3], 5.0);
        assert_eq!(b.nbin(), [1, 1, 1]);
    }

    #[test]
    fn fill_and_lookup() {
        let mut b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        let pos = vec![[1.0, 1.0, 1.0], [9.0, 9.0, 9.0], [1.2, 1.1, 0.9]];
        b.fill(&pos, pos.len());
        let bin0 = b.bin_of(&pos[0]);
        assert_eq!(b.bin(bin0), &[0, 2]);
        assert_ne!(b.bin_of(&pos[1]), bin0);
    }

    #[test]
    fn out_of_region_points_clamp() {
        let mut b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        b.fill(&[[-0.5, 11.0, 5.0]], 1);
        // Should not panic; the atom lands in an edge bin.
        let idx = b.bin_of(&[-0.5, 11.0, 5.0]);
        assert_eq!(b.bin(idx), &[0]);
    }

    #[test]
    fn stencil_finds_all_nearby() {
        let mut b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        let pos = vec![[4.9, 5.0, 5.0], [5.1, 5.0, 5.0], [0.1, 0.1, 0.1]];
        b.fill(&pos, pos.len());
        let mut seen = Vec::new();
        b.for_each_candidate(&pos[0], |i| seen.push(i));
        assert!(seen.contains(&0) && seen.contains(&1));
        assert!(!seen.contains(&2), "far atom must not appear in stencil");
    }

    #[test]
    fn ghost_segments_split_each_bin() {
        let mut b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        // Atoms 0-1 local, 2-3 ghosts; 0 and 2 share a bin, 1 and 3 share
        // another.
        let pos = vec![
            [1.0, 1.0, 1.0],
            [9.0, 9.0, 9.0],
            [1.1, 1.0, 1.0],
            [9.1, 9.0, 9.0],
        ];
        b.fill(&pos, 2);
        let b0 = b.bin_of(&pos[0]);
        let b1 = b.bin_of(&pos[1]);
        assert_eq!(b.bin(b0), &[0, 2]);
        assert_eq!(b.ghosts(b0), &[2]);
        assert_eq!(b.bin(b1), &[1, 3]);
        assert_eq!(b.ghosts(b1), &[3]);
        // An empty bin has an empty ghost segment.
        let empty = (0..b.nbins()).find(|&k| b.bin(k).is_empty()).unwrap();
        assert!(b.ghosts(empty).is_empty());
    }

    #[test]
    fn sorted_detection_tracks_local_order() {
        let mut b = CellBins::new([0.0; 3], [10.0; 3], 2.5);
        // Ascending flat bins: sorted.
        let sorted = vec![[1.0, 1.0, 1.0], [4.0, 1.0, 1.0], [1.0, 4.0, 1.0]];
        b.fill(&sorted, 3);
        assert!(b.sorted_locals());
        // Swap two locals: unsorted.
        let unsorted = vec![[4.0, 1.0, 1.0], [1.0, 1.0, 1.0]];
        b.fill(&unsorted, 2);
        assert!(!b.sorted_locals());
        // Ghost order must not affect the verdict.
        let ghost_tail = vec![[1.0, 1.0, 1.0], [4.0, 1.0, 1.0], [1.0, 1.0, 1.0]];
        b.fill(&ghost_tail, 2);
        assert!(b.sorted_locals());
    }

    /// The bound the neighbor build prunes with: for any two coordinates
    /// binned in different cells, the gap reported for the one never
    /// exceeds its distance to the other — on grids whose offset makes the
    /// face rounding matter, at coordinates within ulps of every face.
    #[test]
    fn gaps_never_exceed_the_distance_to_another_cell() {
        for (lo, hi, cell) in [
            (-1.7, 5.1, 1.3),
            (1.0e6 + 0.3, 1.0e6 + 9.7, 1.1),
            (-3.0e9, -3.0e9 + 64.0, 2.8),
            (0.1, 0.7, 0.1),
        ] {
            let g = BinGrid::new([lo; 3], [hi; 3], cell);
            let n = g.nbin()[0];
            let mut pts = Vec::new();
            for k in 0..=n {
                let face = lo + k as f64 * ((hi - lo) / n as f64);
                let mut p = face;
                for _ in 0..4 {
                    p = p.next_down();
                }
                for _ in 0..9 {
                    pts.push(p);
                    p = p.next_up();
                }
                pts.push(face + 0.37 * cell);
            }
            let cell_of = |x: f64| g.coord_of(&[x, lo, lo])[0];
            for &x in &pts {
                let cx = cell_of(x);
                let [below, above] = g.gaps(0, cx, x);
                for &y in &pts {
                    let cy = cell_of(y);
                    if cy < cx {
                        assert!(below <= x - y, "below: x {x:e} y {y:e} lo {lo:e}");
                    }
                    if cy > cx {
                        assert!(above <= y - x, "above: x {x:e} y {y:e} lo {lo:e}");
                    }
                }
            }
        }
    }
}
