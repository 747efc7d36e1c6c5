//! Verlet neighbor lists (half/Newton and full variants) with skin and
//! the two rebuild policies of Table 2 (`check no` / `check yes`).

use super::bins::{BinStream, CellBins};
use crate::atom::Atoms;
use crate::kernels::{KernelMode, CHUNK_ROWS, LANE_WIDTH};
use std::cmp::Ordering;
use std::ops::Range;
use tofumd_threadpool::ChunkExec;

/// Which pairs a list stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Each pair appears once. For local j, stored under i < j; for ghost j,
    /// stored under the local atom per LAMMPS's coordinate-ordering rule.
    /// Requires Newton's 3rd law (ghost forces are reverse-communicated).
    HalfNewton,
    /// Every neighbor j != i of each local atom i. Needed by potentials
    /// like Tersoff/DeePMD (Fig. 15's 26-neighbor regime).
    Full,
    /// Half list for *one-sided half ghost shells* (the paper's p2p
    /// pattern, Fig. 5): ghosts exist only from upper-half neighbors, so
    /// every in-range local-ghost pair belongs to this rank; local-local
    /// pairs are stored once (i < j). Using the coordinate rule here would
    /// silently drop pairs — and using this rule with a full ghost shell
    /// would double-count them.
    HalfOneSided,
}

/// A built neighbor list in CSR layout.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// Which pairs the list stores.
    pub kind: ListKind,
    /// CSR row offsets, `nlocal + 1` entries.
    offsets: Vec<u32>,
    /// Flattened neighbor indices (may point at ghost atoms).
    neigh: Vec<u32>,
    /// Force cutoff + skin used when the list was built.
    pub cutoff_list: f64,
    /// Local atom positions at build time (drives `check yes` rebuilds).
    x_at_build: Vec<[f64; 3]>,
}

/// LAMMPS's half-list ordering rule for a local/ghost candidate pair:
/// the pair belongs to atom i if j is "above" i in (z, y, x) coordinate
/// order. Exactly one side of each cross-rank pair satisfies this, so every
/// pair is computed exactly once across the whole machine.
#[inline]
#[must_use]
pub fn ghost_pair_belongs_to_i(xi: &[f64; 3], xj: &[f64; 3]) -> bool {
    if xj[2] != xi[2] {
        return xj[2] > xi[2];
    }
    if xj[1] != xi[1] {
        return xj[1] > xi[1];
    }
    xj[0] > xi[0]
}

// The lane table and the byte-gathering multiply are written for 8 lanes.
const _: () = assert!(LANE_WIDTH == 8);

/// Lane table of the left-pack: `PACK[m]` lists the set bits of the 8-bit
/// acceptance mask `m` in ascending order (unused tail entries 0).
const PACK: [[u8; LANE_WIDTH]; 256] = {
    let mut table = [[0u8; LANE_WIDTH]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut n, mut k) = (0, 0);
        while k < LANE_WIDTH {
            if (m >> k) & 1 == 1 {
                table[m][n] = k as u8;
                n += 1;
            }
            k += 1;
        }
        m += 1;
    }
    table
};

/// Most stream ranges one row scans: nine stencil lines, or — with the
/// lower-half skip — twelve ghost segments below the center line, one
/// ghost segment and one range on it, four ranges above.
const MAX_SPANS: usize = 18;

/// Neighbor rows under construction. Every block of the compaction
/// stores all [`LANE_WIDTH`] left-packed lanes and then advances by the
/// number accepted, so `buf` runs ahead of `len` by whatever the row
/// reserved; `lens` records each finished row; `flags` is the distance
/// pass's per-candidate verdict, reused from range to range.
#[derive(Default)]
struct RowChunk {
    buf: Vec<u32>,
    len: usize,
    lens: Vec<u32>,
    flags: Vec<u8>,
}

impl RowChunk {
    /// The window past `len` that `blocks` full-width stores can touch,
    /// and `widest` verdict bytes.
    #[inline]
    fn scratch(&mut self, blocks: usize, widest: usize) -> (&mut [u32], &mut [u8]) {
        let need = self.len + blocks * LANE_WIDTH;
        if self.buf.len() < need {
            self.buf.resize(need.max(2 * self.buf.len()), 0);
        }
        if self.flags.len() < widest {
            self.flags.resize(widest, 0);
        }
        (&mut self.buf[self.len..need], &mut self.flags[..widest])
    }

    /// The stored neighbors (rows back to back).
    fn neigh(&self) -> &[u32] {
        &self.buf[..self.len]
    }
}

/// What one row scan needs to know about its row.
#[derive(Clone, Copy)]
struct Row {
    i: u32,
    xi: [f64; 3],
    nlocal: u32,
    cutsq: f64,
}

/// Scan one contiguous stream range for row `row`, appending the *stream
/// positions* of the accepted candidates to `dst[n..]`; returns the new
/// `n`. Two passes, neither with a branch that depends on a candidate:
///
/// 1. the distance pass writes one verdict byte per candidate — `r²` with
///    the op sequence `d0*d0 + d1*d1 + d2*d2` (left to right), `r² <
///    cutsq`, and the list-kind rule — a flat loop over four parallel
///    arrays, which is what the vectorizer wants;
/// 2. the compaction gathers each block's eight verdicts into an 8-bit
///    mask and left-packs the block's positions through [`PACK`].
///
/// `NEWTON` selects the ghost rule: the `(z, y, x)` coordinate rule of
/// [`ghost_pair_belongs_to_i`] when set, "always" when clear. `HALF`
/// selects the local rule: `j > i` when set, `j != i` when clear. (A
/// ghost's index is above every local's, so HalfOneSided is `HALF` alone.)
#[inline(always)]
fn scan_span<const HALF: bool, const NEWTON: bool>(
    s: &BinStream<'_>,
    span: Range<usize>,
    row: &Row,
    flags: &mut [u8],
    dst: &mut [u32],
    mut n: usize,
) -> usize {
    let len = span.len();
    // The stream's pad makes the rounded-up range readable.
    let padded = span.start..span.start + len.next_multiple_of(LANE_WIDTH);
    let flags = &mut flags[..padded.len()];
    let [xi0, xi1, xi2] = row.xi;
    let candidates = s.xs[padded.clone()]
        .iter()
        .zip(&s.ys[padded.clone()])
        .zip(&s.zs[padded.clone()])
        .zip(&s.idx[padded]);
    for ((((&xj, &yj), &zj), &j), keep) in candidates.zip(flags.iter_mut()) {
        let d0 = xi0 - xj;
        let d1 = xi1 - yj;
        let d2 = xi2 - zj;
        let r2 = d0 * d0 + d1 * d1 + d2 * d2;
        let local_rule = if HALF { j > row.i } else { j != row.i };
        let rule = if NEWTON {
            let above = (zj > xi2) | ((zj == xi2) & ((yj > xi1) | ((yj == xi1) & (xj > xi0))));
            let ghost = j >= row.nlocal;
            (ghost & above) | (!ghost & local_rule)
        } else {
            local_rule
        };
        *keep = u8::from((r2 < row.cutsq) & rule);
    }
    // Lanes past the range end belong to the next bin.
    flags[len..].fill(0);
    let (blocks, _) = flags.as_chunks::<LANE_WIDTH>();
    for (q, keep) in blocks.iter().enumerate() {
        // Gather the eight 0/1 bytes into one 8-bit mask: the multiplier
        // moves byte k's bit 0 to bit 56 + k, and no two partial products
        // collide, so nothing carries.
        let mask = u64::from_le_bytes(*keep).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        let base = (span.start + q * LANE_WIDTH) as u32;
        let lanes = &PACK[mask as usize];
        for (d, &lane) in dst[n..n + LANE_WIDTH].iter_mut().zip(lanes) {
            *d = base + u32::from(lane);
        }
        n += mask.count_ones() as usize;
    }
    n
}

/// The stream ranges row `row` scans, in stencil order — bins in
/// ascending `(dz, dy, dx)`, which with atoms in ascending index order
/// inside each bin (locals, then ghosts) is the row's neighbor order.
/// Returns how many entries of `spans` were written; none is empty.
///
/// The three x-adjacent bins of a `(dz, dy)` stencil line are adjacent in
/// flat order, hence one range, scanned left to right — the same order as
/// bin by bin. A line, or an end bin of a line, is dropped when a lower
/// bound on its distance from `xi` ([`BinGrid::gaps`]) already exceeds
/// the cutoff: it holds no accepted neighbor, so dropping it removes
/// nothing from the row and reorders nothing.
///
/// When `skip_lower` is set (local atoms sorted by flat bin index, half
/// list), the *local* segments of the 13 lexicographically lower stencil
/// bins are skipped: a lex-lower in-range bin has a strictly lower flat
/// index, so with bin-sorted locals every local atom there has `j < i`
/// and the half-list rule would reject it. Their ghost segments are still
/// scanned, bin by bin — the HalfNewton coordinate rule can assign a pair
/// to `i` even when the ghost sits in a lower bin.
fn row_spans(
    bins: &CellBins,
    xi: &[f64; 3],
    cutsq_prune: f64,
    skip_lower: bool,
    spans: &mut [Range<usize>; MAX_SPANS],
) -> usize {
    let grid = bins.grid();
    let c = grid.coord_of(xi);
    let nb = grid.nbin();
    // Squared gap to the cells below / in / above `c`, per dimension.
    let gap2 = |d: usize| {
        let [below, above] = grid.gaps(d, c[d], xi[d]);
        [below * below, 0.0, above * above]
    };
    let (gx2, gy2, gz2) = (gap2(0), gap2(1), gap2(2));
    // Stencil offsets run 0..3 for -1..=1; an offset is in the grid when
    // `c + o` lies in 1..=nbin.
    let in_grid = |d: usize, o: usize| (1..=nb[d]).contains(&(c[d] + o));
    let mut count = 0;
    let mut push = |span: Range<usize>| {
        if !span.is_empty() {
            spans[count] = span;
            count += 1;
        }
    };
    for oz in 0..3 {
        if !in_grid(2, oz) {
            continue;
        }
        for oy in 0..3 {
            let line2 = gz2[oz] + gy2[oy];
            if !in_grid(1, oy) || line2 > cutsq_prune {
                continue;
            }
            let x_lo = c[0] - usize::from(in_grid(0, 0) && line2 + gx2[0] <= cutsq_prune);
            let x_hi = c[0] + usize::from(in_grid(0, 2) && line2 + gx2[2] <= cutsq_prune);
            let base = grid.flat([0, c[1] + oy - 1, c[2] + oz - 1]);
            // First bin of the line whose locals are scanned.
            let first_full = match (skip_lower, (oz, oy).cmp(&(1, 1))) {
                (false, _) | (true, Ordering::Greater) => x_lo,
                (true, Ordering::Equal) => c[0],
                (true, Ordering::Less) => x_hi + 1,
            };
            for x in x_lo..first_full {
                push(bins.ghost_span(base + x));
            }
            if first_full <= x_hi {
                push(bins.span(base + first_full, base + x_hi));
            }
        }
    }
    count
}

/// Append row `row`'s accepted neighbors to `out`: scan the row's stream
/// ranges in order, then turn the packed stream positions into atom
/// indices.
fn append_row_neighbors<const HALF: bool, const NEWTON: bool>(
    bins: &CellBins,
    row: &Row,
    cutsq_prune: f64,
    skip_lower: bool,
    out: &mut RowChunk,
) {
    let mut spans = [const { 0..0 }; MAX_SPANS];
    let count = row_spans(bins, &row.xi, cutsq_prune, skip_lower, &mut spans);
    let spans = &spans[..count];
    let blocks = spans.iter().map(|s| s.len().div_ceil(LANE_WIDTH)).sum();
    let widest = spans.iter().map(Range::len).max().unwrap_or(0);
    let s = bins.stream();
    let (dst, flags) = out.scratch(blocks, widest.next_multiple_of(LANE_WIDTH));
    let mut n = 0;
    for span in spans {
        n = scan_span::<HALF, NEWTON>(&s, span.clone(), row, flags, dst, n);
    }
    for e in &mut dst[..n] {
        *e = s.idx[*e as usize];
    }
    out.len += n;
}

impl NeighborList {
    /// An empty placeholder list covering zero atoms (used before the
    /// first real build; any displacement check against it reports
    /// "moved" as soon as atoms exist).
    #[must_use]
    pub fn empty(kind: ListKind) -> Self {
        NeighborList {
            kind,
            offsets: vec![0],
            neigh: Vec::new(),
            cutoff_list: 0.0,
            x_at_build: Vec::new(),
        }
    }

    /// Bin `atoms` over `[lo, hi]` and scan the rows `want` selects, in
    /// [`CHUNK_ROWS`]-row chunks fanned out over `exec`. Unselected rows
    /// are present but empty.
    fn build_rows(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_list: f64,
        exec: &ChunkExec<'_>,
        want: &(dyn Fn(usize) -> bool + Sync),
    ) -> Vec<RowChunk> {
        let cutsq = cutoff_list * cutoff_list;
        // A pruned bin's lower-bound distance must exceed every distance
        // the `r² < cutsq` test can accept; the factor covers the rounding
        // of both sums.
        let cutsq_prune = cutsq * (1.0 + 16.0 * f64::EPSILON);
        let mut bins = CellBins::new(lo, hi, cutoff_list);
        bins.fill(&atoms.x, atoms.nlocal);
        let skip_lower = bins.sorted_locals() && !matches!(kind, ListKind::Full);

        let nlocal = atoms.nlocal;
        let mut chunks: Vec<RowChunk> = Vec::new();
        chunks.resize_with(nlocal.div_ceil(CHUNK_ROWS), RowChunk::default);
        let append = match kind {
            ListKind::HalfNewton => append_row_neighbors::<true, true>,
            ListKind::HalfOneSided => append_row_neighbors::<true, false>,
            ListKind::Full => append_row_neighbors::<false, false>,
        };
        let bins = &bins;
        let x = &atoms.x;
        let exec = &exec.floored(nlocal);
        exec.for_each_mut(&mut chunks, &|c, chunk| {
            let row_lo = c * CHUNK_ROWS;
            let row_hi = (row_lo + CHUNK_ROWS).min(nlocal);
            for i in row_lo..row_hi {
                let before = chunk.len;
                if want(i) {
                    let row = Row {
                        i: i as u32,
                        xi: x[i],
                        nlocal: nlocal as u32,
                        cutsq,
                    };
                    append(bins, &row, cutsq_prune, skip_lower, chunk);
                }
                chunk.lens.push((chunk.len - before) as u32);
            }
        });
        chunks
    }

    /// Build a list for the local atoms of `atoms`, binning local + ghost
    /// positions over the extended bounds `[lo, hi]`.
    ///
    /// `cutoff_force` is the potential cutoff; `skin` is the extra Verlet
    /// margin (Table 2: 0.3 for LJ, 1.0 for EAM).
    #[must_use]
    pub fn build(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
    ) -> Self {
        Self::build_chunked(atoms, lo, hi, kind, cutoff_force, skin, &ChunkExec::Serial)
    }

    /// Chunk-parallel [`NeighborList::build`]: rows are split into
    /// fixed-size chunks fanned out over `exec`, and the per-chunk results
    /// stitched back in chunk order — the produced list is identical to
    /// the serial build at any thread count.
    #[must_use]
    pub fn build_chunked(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
        exec: &ChunkExec<'_>,
    ) -> Self {
        let cutoff_list = cutoff_force + skin;
        let chunks = Self::build_rows(atoms, lo, hi, kind, cutoff_list, exec, &|_| true);
        Self::stitch(&chunks, kind, cutoff_list, atoms)
    }

    /// Alias of [`NeighborList::build_chunked`]: the list does not depend
    /// on the kernel mode (there is one row scan), and `_mode` is ignored.
    /// Kept because the benchmark package calls it by this name.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build_chunked_mode(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
        exec: &ChunkExec<'_>,
        _mode: KernelMode,
    ) -> Self {
        Self::build_chunked(atoms, lo, hi, kind, cutoff_force, skin, exec)
    }

    /// Build only the *interior* rows of a split rebuild: rows flagged
    /// `true` in `interior`, binned over the local atoms alone. Boundary
    /// rows are present but empty.
    ///
    /// Intended to run while the Border halo exchange is still in flight,
    /// i.e. **before any ghosts exist** (`atoms.nghost() == 0`). The grid
    /// is the same `[lo, hi]` grid the full build uses, and with no ghosts
    /// the fill, the sorted-locals detection and every interior row's
    /// 27-bin scan see exactly the candidates the full build would show
    /// them: an interior row's ghost candidates all sit beyond the
    /// classification shell and would be distance-rejected anyway. The
    /// produced rows are therefore bit-identical to the same rows of
    /// [`NeighborList::build_chunked`] after the halo lands — provided the
    /// flags are sound (no interior atom within `cutoff_force + skin` of a
    /// sub-box face).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn build_interior(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_force: f64,
        skin: f64,
        interior: &[bool],
        exec: &ChunkExec<'_>,
    ) -> Self {
        debug_assert_eq!(atoms.nghost(), 0, "interior build runs pre-ghost");
        let cutoff_list = cutoff_force + skin;
        let chunks = Self::build_rows(atoms, lo, hi, kind, cutoff_list, exec, &|i| interior[i]);
        Self::stitch(&chunks, kind, cutoff_list, atoms)
    }

    /// Complete a split rebuild: build the rows flagged `false` in
    /// `interior` against the full (locals + ghosts) bins and merge them
    /// with the interior rows built by [`NeighborList::build_interior`].
    ///
    /// Runs after the Border halo has landed. Local positions must not
    /// have moved since the interior half (nothing between the two halves
    /// integrates), so the merged list is bit-identical to one
    /// [`NeighborList::build_chunked`] pass over the same state.
    #[must_use]
    pub fn build_boundary(
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        interior_list: &NeighborList,
        interior: &[bool],
        exec: &ChunkExec<'_>,
    ) -> Self {
        let kind = interior_list.kind;
        let cutoff_list = interior_list.cutoff_list;
        let chunks = Self::build_rows(atoms, lo, hi, kind, cutoff_list, exec, &|i| !interior[i]);

        // Merge row-by-row: interior rows from the pre-ghost half,
        // boundary rows from this pass.
        let nlocal = atoms.nlocal;
        let mut offsets = Vec::with_capacity(nlocal + 1);
        offsets.push(0u32);
        let mut neigh = Vec::new();
        let mut cursors = vec![0usize; chunks.len()];
        for i in 0..nlocal {
            let c = i / CHUNK_ROWS;
            let len = chunks[c].lens[i - c * CHUNK_ROWS] as usize;
            if interior[i] {
                debug_assert_eq!(len, 0, "row {i} built on both sides");
                neigh.extend_from_slice(interior_list.neighbors(i));
            } else {
                let at = cursors[c];
                neigh.extend_from_slice(&chunks[c].neigh()[at..at + len]);
            }
            cursors[c] += len;
            offsets.push(neigh.len() as u32);
        }

        NeighborList {
            kind,
            offsets,
            neigh,
            cutoff_list,
            x_at_build: atoms.x[..nlocal].to_vec(),
        }
    }

    /// Stitch per-chunk rows into a CSR list (chunk order = row order).
    fn stitch(chunks: &[RowChunk], kind: ListKind, cutoff_list: f64, atoms: &Atoms) -> Self {
        let nlocal = atoms.nlocal;
        let mut offsets = Vec::with_capacity(nlocal + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for chunk in chunks {
            for &len in &chunk.lens {
                total += len;
                offsets.push(total);
            }
        }
        let mut neigh = Vec::with_capacity(total as usize);
        for chunk in chunks {
            neigh.extend_from_slice(chunk.neigh());
        }
        NeighborList {
            kind,
            offsets,
            neigh,
            cutoff_list,
            x_at_build: atoms.x[..nlocal].to_vec(),
        }
    }

    /// Flag every row whose stored neighbors are all local (`j < nlocal`).
    /// These rows never read ghost state, so their force/density
    /// contributions can be computed while a halo exchange is in flight —
    /// the *exact* (list-content) form of the interior classification,
    /// a superset of the geometric cutoff+skin shell test.
    #[must_use]
    pub fn local_only_rows(&self) -> Vec<bool> {
        let nl = self.nlocal() as u32;
        (0..self.nlocal())
            .map(|i| self.neighbors(i).iter().all(|&j| j < nl))
            .collect()
    }

    /// Stored pairs in the selected row class of a `flags` partition.
    #[must_use]
    pub fn pairs_in(&self, flags: &[bool], select: bool) -> usize {
        (0..self.nlocal())
            .filter(|&i| flags[i] == select)
            .map(|i| self.neighbors(i).len())
            .sum()
    }

    /// Neighbors of local atom `i`.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let a = self.offsets[i] as usize;
        let b = self.offsets[i + 1] as usize;
        &self.neigh[a..b]
    }

    /// Number of local atoms the list covers.
    #[must_use]
    pub fn nlocal(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored pairs.
    #[must_use]
    pub fn npairs(&self) -> usize {
        self.neigh.len()
    }

    /// `check yes` policy (Table 2, EAM): true if any local atom has moved
    /// more than half the skin since the list was built. LAMMPS combines
    /// this flag across ranks with an allreduce — the caller is responsible
    /// for that reduction.
    #[must_use]
    pub fn any_moved_beyond_half_skin(&self, atoms: &Atoms, skin: f64) -> bool {
        let lim2 = (0.5 * skin) * (0.5 * skin);
        let n = self.x_at_build.len().min(atoms.nlocal);
        for i in 0..n {
            let mut d2 = 0.0;
            for d in 0..3 {
                let dd = atoms.x[i][d] - self.x_at_build[i][d];
                d2 += dd * dd;
            }
            if d2 > lim2 {
                return true;
            }
        }
        // Migration changes local counts; treat that as "moved".
        atoms.nlocal != self.x_at_build.len()
    }
}

/// When the neighbor list should be rebuilt — LAMMPS `neigh_modify`
/// (Table 2: LJ uses `every 20 check no`, EAM `every 5 check yes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildPolicy {
    /// Consider rebuilding every this many steps.
    pub every: u32,
    /// If true, only rebuild when some atom moved > skin/2 (requires a
    /// global allreduce of the per-rank flags); if false, always rebuild at
    /// the interval.
    pub check: bool,
}

impl RebuildPolicy {
    /// The LJ benchmark policy from Table 2.
    pub const LJ: RebuildPolicy = RebuildPolicy {
        every: 20,
        check: false,
    };
    /// The EAM benchmark policy from Table 2.
    pub const EAM: RebuildPolicy = RebuildPolicy {
        every: 5,
        check: true,
    };

    /// Is `step` an inspection step for this policy? (Step numbering is
    /// 1-based like LAMMPS's: the first rebuild opportunity after setup is
    /// at `step == every`.)
    #[must_use]
    pub fn is_check_step(&self, step: u64) -> bool {
        self.every > 0 && step.is_multiple_of(u64::from(self.every))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two atoms within cutoff, one far away; no ghosts.
    fn tiny() -> Atoms {
        Atoms::from_positions(vec![[1.0, 1.0, 1.0], [2.0, 1.0, 1.0], [8.0, 8.0, 8.0]], 1)
    }

    #[test]
    fn half_list_stores_each_pair_once() {
        let a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::HalfNewton, 1.5, 0.3);
        assert_eq!(l.neighbors(0), &[1]);
        assert!(l.neighbors(1).is_empty());
        assert!(l.neighbors(2).is_empty());
        assert_eq!(l.npairs(), 1);
    }

    #[test]
    fn full_list_stores_both_directions() {
        let a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 1.5, 0.3);
        assert_eq!(l.neighbors(0), &[1]);
        assert_eq!(l.neighbors(1), &[0]);
        assert_eq!(l.npairs(), 2);
    }

    #[test]
    fn skin_extends_capture_radius() {
        let a = tiny(); // pair distance 1.0
        let no_skin = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 0.9, 0.0);
        assert_eq!(no_skin.npairs(), 0);
        let with_skin = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::Full, 0.9, 0.2);
        assert_eq!(with_skin.npairs(), 2);
    }

    #[test]
    fn ghost_pairs_use_coordinate_rule() {
        let mut a = Atoms::from_positions(vec![[1.0, 1.0, 1.0]], 1);
        // Ghost above in z: pair belongs to local atom.
        a.push_ghost([1.0, 1.0, 1.8], 1, 99);
        // Ghost below in z: pair belongs to the *other* rank's local atom.
        a.push_ghost([1.0, 1.0, 0.2], 1, 98);
        let l = NeighborList::build(&a, [0.0; 3], [3.0; 3], ListKind::HalfNewton, 1.0, 0.0);
        assert_eq!(l.neighbors(0), &[1]);
    }

    #[test]
    fn movement_check_triggers_at_half_skin() {
        let mut a = tiny();
        let l = NeighborList::build(&a, [0.0; 3], [10.0; 3], ListKind::HalfNewton, 1.5, 0.4);
        assert!(!l.any_moved_beyond_half_skin(&a, 0.4));
        a.x[0][0] += 0.19; // < skin/2 = 0.2
        assert!(!l.any_moved_beyond_half_skin(&a, 0.4));
        a.x[0][0] += 0.02; // now 0.21 > 0.2
        assert!(l.any_moved_beyond_half_skin(&a, 0.4));
    }

    #[test]
    fn one_sided_half_keeps_all_ghost_pairs() {
        let mut a = Atoms::from_positions(vec![[1.0, 1.0, 1.0]], 1);
        a.push_ghost([1.0, 1.0, 1.8], 1, 99); // "above" the local atom
        a.push_ghost([1.0, 1.0, 0.2], 1, 98); // "below" it
        let l = NeighborList::build(&a, [0.0; 3], [3.0; 3], ListKind::HalfOneSided, 1.0, 0.0);
        // Both ghost pairs belong to the local rank under one-sided shells.
        let mut n = l.neighbors(0).to_vec();
        n.sort_unstable();
        assert_eq!(n, vec![1, 2]);
    }

    #[test]
    fn rebuild_policies_match_table2() {
        assert_eq!(RebuildPolicy::LJ.every, 20);
        assert_eq!(RebuildPolicy::EAM.every, 5);
        let (lj, eam) = (RebuildPolicy::LJ, RebuildPolicy::EAM);
        assert!(!lj.check && eam.check);
        assert!(RebuildPolicy::LJ.is_check_step(20));
        assert!(!RebuildPolicy::LJ.is_check_step(21));
    }

    /// Split interior/boundary rebuild over a sub-box with a ghost shell
    /// must reproduce the one-pass chunked build bit-for-bit, sorted or
    /// not, for every list kind.
    #[test]
    fn split_build_matches_one_pass_build() {
        use crate::neighbor::sort_locals_by_bin;
        let (cut, skin) = (1.1, 0.3);
        let r = cut + skin;
        let (sub_lo, sub_hi) = ([0.0; 3], [6.0; 3]);
        let lo = [sub_lo[0] - r, sub_lo[1] - r, sub_lo[2] - r];
        let hi = [sub_hi[0] + r, sub_hi[1] + r, sub_hi[2] + r];
        // Deterministic jittered grid of locals inside the sub-box.
        let mut pos = Vec::new();
        let mut s = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for gz in 0..7 {
            for gy in 0..7 {
                for gx in 0..7 {
                    pos.push([
                        0.3 + 0.8 * f64::from(gx) + 0.2 * rnd(),
                        0.3 + 0.8 * f64::from(gy) + 0.2 * rnd(),
                        0.3 + 0.8 * f64::from(gz) + 0.2 * rnd(),
                    ]);
                }
            }
        }
        for sorted in [false, true] {
            for kind in [ListKind::HalfNewton, ListKind::HalfOneSided, ListKind::Full] {
                let mut bare = Atoms::from_positions(pos.clone(), 1);
                if sorted {
                    sort_locals_by_bin(&mut bare, lo, hi, r);
                }
                // Geometric interior flags against the cutoff+skin shell.
                let flags: Vec<bool> = (0..bare.nlocal)
                    .map(|i| {
                        (0..3).all(|d| bare.x[i][d] > sub_lo[d] + r && bare.x[i][d] < sub_hi[d] - r)
                    })
                    .collect();
                assert!(flags.iter().any(|&f| f), "test needs interior rows");
                assert!(flags.iter().any(|&f| !f), "test needs boundary rows");
                // Interior half runs pre-ghost.
                let int = NeighborList::build_interior(
                    &bare,
                    lo,
                    hi,
                    kind,
                    cut,
                    skin,
                    &flags,
                    &ChunkExec::Serial,
                );
                // The halo lands: ghosts in the shell just outside.
                let mut full = bare.clone();
                for (k, tag) in (0..160).zip(10_000u64..) {
                    let face = k % 6;
                    let off = 0.2 + 1.0 * rnd();
                    let mut g = [1.0 + 4.0 * rnd(), 1.0 + 4.0 * rnd(), 1.0 + 4.0 * rnd()];
                    if face < 3 {
                        g[face] = sub_lo[face] - off;
                    } else {
                        g[face - 3] = sub_hi[face - 3] + off;
                    }
                    full.push_ghost(g, 1, tag);
                }
                let split =
                    NeighborList::build_boundary(&full, lo, hi, &int, &flags, &ChunkExec::Serial);
                let one =
                    NeighborList::build_chunked(&full, lo, hi, kind, cut, skin, &ChunkExec::Serial);
                assert_eq!(split.npairs(), one.npairs(), "{kind:?} sorted={sorted}");
                for i in 0..one.nlocal() {
                    assert_eq!(
                        split.neighbors(i),
                        one.neighbors(i),
                        "row {i} {kind:?} sorted={sorted}"
                    );
                }
                // Interior rows of a sound partition contain no ghosts.
                let lor = one.local_only_rows();
                for (i, &f) in flags.iter().enumerate() {
                    if f {
                        assert!(lor[i], "geometric interior row {i} saw a ghost");
                    }
                }
                assert_eq!(
                    one.pairs_in(&flags, true) + one.pairs_in(&flags, false),
                    one.npairs()
                );
            }
        }
    }

    /// The prune never drops a bin holding an in-range atom: on grids
    /// whose cells are exactly one cutoff wide and sit at an offset where
    /// face rounding matters, with atoms within ulps of the faces (so a
    /// neighbor cell's atom can be exactly one cutoff away, give or take
    /// an ulp), every full-list row is the brute-force in-range set.
    #[test]
    fn prune_keeps_every_in_range_atom() {
        let cutoff = 1.1 + 0.3;
        let cutsq = cutoff * cutoff;
        for origin in [0.0, -4.2, 1.0e6 + 0.3, -3.0e9] {
            let lo = [origin; 3];
            let hi = [origin + 4.0 * cutoff; 3];
            let near = |face: f64| {
                let mut p = face;
                for _ in 0..3 {
                    p = p.next_down();
                }
                (0..7).map(move |_| {
                    let q = p;
                    p = p.next_up();
                    q
                })
            };
            let mut pos = Vec::new();
            for k in 0..=4 {
                let face = origin + f64::from(k) * cutoff;
                for (n, a) in near(face).enumerate() {
                    // Face-on, edge-on and corner-on approaches.
                    let mid = origin + (1.5 + 0.1 * n as f64) * cutoff;
                    pos.push([a, mid, mid]);
                    pos.push([mid, a, a]);
                    pos.push([a, a, a]);
                }
            }
            let atoms = Atoms::from_positions(pos, 1);
            let list = NeighborList::build(&atoms, lo, hi, ListKind::Full, 1.1, 0.3);
            for i in 0..atoms.nlocal {
                let xi = atoms.x[i];
                let want: Vec<u32> = (0..atoms.nlocal)
                    .filter(|&j| {
                        let xj = atoms.x[j];
                        let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                        j != i && d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutsq
                    })
                    .map(|j| j as u32)
                    .collect();
                let mut got = list.neighbors(i).to_vec();
                got.sort_unstable();
                assert_eq!(got, want, "row {i} origin {origin:e}");
            }
        }
    }

    #[test]
    fn ordering_rule_is_antisymmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 3.0];
        assert!(ghost_pair_belongs_to_i(&a, &b) ^ ghost_pair_belongs_to_i(&b, &a));
    }
}
