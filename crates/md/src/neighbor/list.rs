//! Verlet neighbor lists (half/Newton and full variants) with skin and
//! the two rebuild policies of Table 2 (`check no` / `check yes`).

use super::bins::{with_bins, BinStream, CellBins};
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

/// A built neighbor list. Its rows live in pages, one per
/// [`CHUNK_ROWS`]-row chunk, that the list keeps and rewrites in place on
/// every rebuild: once the pages have reached their high-water size a
/// rebuild allocates nothing.
#[derive(Debug, Clone)]
pub struct NeighborList {
    /// Which pairs the list stores.
    pub kind: ListKind,
    /// The rows; pages past the last row are kept for a later rebuild.
    pages: Vec<Page>,
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

/// Most stream ranges one row scans: with the lower-half skip but not the
/// lower-layer one (HalfOneSided), nine ghost segments below, three on the
/// center layer's lower line and one range for each line from the center.
const MAX_SPANS: usize = 17;

/// Most candidates one distance pass covers: the verdicts fit a stack
/// buffer, and a row reserves at most a piece past what it accepted.
const PIECE: usize = 128;

/// The rows of one chunk. Rows are stored back to back in the order they
/// were built — a split rebuild writes its interior rows, then its
/// boundary rows after them — and `rows[k]` locates row `k`. Every block
/// of the compaction stores all [`LANE_WIDTH`] left-packed lanes and then
/// advances by the number accepted, so `buf` runs ahead of `len` by up to
/// one piece. `local_rows` / `local_pairs` count, as rows are written, the
/// rows that list no ghost and their pairs.
#[derive(Debug, Clone, Default)]
struct Page {
    buf: Vec<u32>,
    len: usize,
    rows: Vec<[u32; 2]>,
    local_rows: usize,
    local_pairs: usize,
}

impl Page {
    /// Empty the page for `nrows` rows, every one empty until written.
    fn clear(&mut self, nrows: usize) {
        self.len = 0;
        self.rows.clear();
        self.rows.resize(nrows, [0, 0]);
        (self.local_rows, self.local_pairs) = (0, 0);
    }

    /// Make `buf` at least `need` long, doubling.
    #[inline]
    fn reserve(&mut self, need: usize) {
        if self.buf.len() < need {
            self.buf.resize(need.max(2 * self.buf.len()), 0);
        }
    }

    /// After a build, give back what the doubling over-reserved or the rows
    /// no longer use, keeping enough for the drift of a few rows.
    fn trim(&mut self) {
        let keep = self.len + self.len / 64 + 64 + PIECE;
        if self.buf.len() > keep + self.len / 32 {
            self.buf.truncate(keep);
            self.buf.shrink_to_fit();
        }
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

/// Scan one contiguous stream range of at most [`PIECE`] candidates for
/// row `row`, appending the *stream positions* of the accepted candidates
/// to `dst[n..]`; returns the new `n`. Two passes, neither with a branch
/// that depends on a candidate:
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
fn scan_piece<const HALF: bool, const NEWTON: bool>(
    s: &BinStream<'_>,
    span: Range<usize>,
    row: &Row,
    dst: &mut [u32],
    mut n: usize,
) -> usize {
    let len = span.len();
    // The stream's pad makes the rounded-up range readable.
    let padded = span.start..span.start + len.next_multiple_of(LANE_WIDTH);
    let mut verdicts = [0u8; PIECE];
    let flags = &mut verdicts[..padded.len()];
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
    let (blocks, _) = flags.as_chunks::<LANE_WIDTH>();
    for (q, keep) in blocks.iter().enumerate() {
        // Gather the eight 0/1 bytes into one 8-bit mask: the multiplier
        // moves byte k's bit 0 to bit 56 + k, and no two partial products
        // collide, so nothing carries.
        let mut mask = u64::from_le_bytes(*keep).wrapping_mul(0x0102_0408_1020_4080) >> 56;
        if q == len / LANE_WIDTH {
            // Lanes past the range end belong to the next bin.
            mask &= (1 << (len % LANE_WIDTH)) - 1;
        }
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
/// Returns how many entries of `spans` were written; none is empty, and
/// two that are adjacent in the stream are one.
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
/// and the half-list rule would reject it. Under `NEWTON` the lower
/// z-layer's ghost segments go too: `coord_of` is monotone, so a ghost
/// binned one layer below `xi` has `z < xi[2]` and fails the `(z, y, x)`
/// rule. The other lower bins' ghost segments are scanned — in the row's
/// own layer a ghost of a lower bin can still sit above `xi`.
fn row_spans<const NEWTON: bool>(
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
        if count > 0 && spans[count - 1].end == span.start {
            spans[count - 1].end = span.end;
        } else if !span.is_empty() {
            spans[count] = span;
            count += 1;
        }
    };
    for oz in usize::from(NEWTON && skip_lower)..3 {
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

/// Write row `row` into `page` as its row `k`: scan the row's stream
/// ranges in order, turn the packed stream positions into atom indices,
/// and count the row if it lists no ghost.
fn emit_row<const HALF: bool, const NEWTON: bool>(
    bins: &CellBins,
    row: &Row,
    cutsq_prune: f64,
    skip_lower: bool,
    page: &mut Page,
    k: usize,
) {
    let mut spans = [const { 0..0 }; MAX_SPANS];
    let count = row_spans::<NEWTON>(bins, &row.xi, cutsq_prune, skip_lower, &mut spans);
    let s = bins.stream();
    let (start, mut end) = (page.len, page.len);
    for span in &spans[..count] {
        let mut from = span.start;
        while from < span.end {
            let to = span.end.min(from + PIECE);
            page.reserve(end + (to - from).next_multiple_of(LANE_WIDTH));
            end = scan_piece::<HALF, NEWTON>(&s, from..to, row, &mut page.buf, end);
            from = to;
        }
    }
    let mut top = 0;
    for e in &mut page.buf[start..end] {
        *e = s.idx[*e as usize];
        top = top.max(*e);
    }
    page.len = end;
    page.rows[k] = [start as u32, end as u32];
    if top < row.nlocal {
        page.local_rows += 1;
        page.local_pairs += end - start;
    }
}

impl NeighborList {
    /// An empty placeholder list covering zero atoms (used before the
    /// first real build; any displacement check against it reports
    /// "moved" as soon as atoms exist).
    #[must_use]
    pub fn empty(kind: ListKind) -> Self {
        NeighborList {
            kind,
            pages: Vec::new(),
            cutoff_list: 0.0,
            x_at_build: Vec::new(),
        }
    }

    /// The pages holding rows.
    fn pages(&self) -> &[Page] {
        &self.pages[..self.nlocal().div_ceil(CHUNK_ROWS)]
    }

    /// Bin `atoms` over `[lo, hi]` in this thread's bins and write rows
    /// into the pages, [`CHUNK_ROWS`]-row chunks fanned out over `exec`:
    /// every row (`half` is `None`), the interior half of a split rebuild
    /// (`Some((flags, true))`: the rows flagged, into emptied pages, the
    /// others present but empty) or its boundary half (`Some((flags,
    /// false))`: the rows not flagged, after the rows already there).
    fn build_rows(
        &mut self,
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        exec: &ChunkExec<'_>,
        half: Option<(&[bool], bool)>,
    ) {
        let fresh = !matches!(half, Some((_, false)));
        let finished = !matches!(half, Some((_, true)));
        let (kind, cutoff_list, nlocal) = (self.kind, self.cutoff_list, atoms.nlocal);
        let cutsq = cutoff_list * cutoff_list;
        // A pruned bin's lower-bound distance must exceed every distance
        // the `r² < cutsq` test can accept; the factor covers the rounding
        // of both sums.
        let cutsq_prune = cutsq * (1.0 + 16.0 * f64::EPSILON);
        self.x_at_build.clear();
        self.x_at_build.reserve_exact(nlocal);
        self.x_at_build.extend_from_slice(&atoms.x[..nlocal]);
        let npages = nlocal.div_ceil(CHUNK_ROWS);
        if self.pages.len() < npages {
            self.pages.resize_with(npages, Page::default);
        }
        let emit = match kind {
            ListKind::HalfNewton => emit_row::<true, true>,
            ListKind::HalfOneSided => emit_row::<true, false>,
            ListKind::Full => emit_row::<false, false>,
        };
        let pages = &mut self.pages[..npages];
        with_bins(lo, hi, cutoff_list, |bins| {
            bins.fill(&atoms.x, nlocal);
            let skip_lower = bins.sorted_locals() && kind != ListKind::Full;
            let (bins, x) = (&*bins, &atoms.x);
            exec.floored(nlocal).for_each_mut(pages, &|c, page| {
                let rows = c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(nlocal);
                if fresh {
                    page.clear(rows.len());
                }
                let (nlocal, mut row) = (
                    nlocal as u32,
                    Row {
                        i: 0,
                        xi: [0.0; 3],
                        nlocal: 0,
                        cutsq,
                    },
                );
                for (k, i) in rows.enumerate() {
                    if half.is_none_or(|(flags, interior)| flags[i] == interior) {
                        (row.i, row.xi, row.nlocal) = (i as u32, x[i], nlocal);
                        emit(bins, &row, cutsq_prune, skip_lower, page, k);
                    }
                }
                if finished {
                    page.trim();
                }
            });
        });
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
    /// fixed-size chunks fanned out over `exec`, each chunk writing its
    /// own page — the produced list is identical to the serial build at
    /// any thread count.
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
        let mut list = Self::empty(kind);
        list.rebuild(atoms, lo, hi, kind, cutoff_force + skin, None, exec);
        list
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

    /// [`NeighborList::build_chunked`] in place, with list cutoff
    /// `cutoff_list` (force cutoff + skin), into this list's pages — or,
    /// given `interior` flags, the first half of a split rebuild: only the
    /// rows flagged `true`, the others present but empty.
    ///
    /// The split's first half runs while the Border halo is in flight,
    /// **before any ghosts exist** (`atoms.nghost() == 0`), on the same
    /// `[lo, hi]` grid: the fill, the sorted-locals detection and every
    /// interior row's scan see exactly the candidates the full build would
    /// show them, since an interior row's ghost candidates all sit beyond
    /// the classification shell and would be distance-rejected anyway. Its
    /// rows are therefore bit-identical to the same rows of a one-pass
    /// rebuild after the halo lands — provided the flags are sound (no
    /// interior atom within the list cutoff of a sub-box face).
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild(
        &mut self,
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        kind: ListKind,
        cutoff_list: f64,
        interior: Option<&[bool]>,
        exec: &ChunkExec<'_>,
    ) {
        debug_assert!(
            interior.is_none() || atoms.nghost() == 0,
            "interior half runs pre-ghost"
        );
        (self.kind, self.cutoff_list) = (kind, cutoff_list);
        self.build_rows(atoms, lo, hi, exec, interior.map(|flags| (flags, true)));
    }

    /// Complete a split rebuild: write the rows flagged `false` in
    /// `interior`, built against the full (locals + ghosts) bins, beside
    /// the interior rows the split's first half wrote.
    ///
    /// Runs after the Border halo has landed. Local positions must not
    /// have moved since the interior half (nothing between the two halves
    /// integrates), so the list is bit-identical to one
    /// [`NeighborList::rebuild`] over the same state.
    pub fn rebuild_boundary(
        &mut self,
        atoms: &Atoms,
        lo: [f64; 3],
        hi: [f64; 3],
        interior: &[bool],
        exec: &ChunkExec<'_>,
    ) {
        self.build_rows(atoms, lo, hi, exec, Some((interior, false)));
    }

    /// Does row `i` list no ghost (`j < nlocal`)? Such a row never reads
    /// ghost state, so its force/density contributions can be computed
    /// while a halo exchange is in flight — the *exact* (list-content) form
    /// of the interior classification, a superset of the geometric
    /// cutoff+skin shell test.
    #[must_use]
    pub fn local_only(&self, i: usize) -> bool {
        let nlocal = self.nlocal() as u32;
        self.neighbors(i).iter().all(|&j| j < nlocal)
    }

    /// The rows that list no ghost, and the pairs they store: counted as
    /// the rows were written.
    #[must_use]
    pub fn local_only_totals(&self) -> (usize, usize) {
        let pages = self.pages().iter();
        pages.fold((0, 0), |(r, p), g| (r + g.local_rows, p + g.local_pairs))
    }

    /// Neighbors of local atom `i`.
    #[must_use]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        let page = &self.pages[i / CHUNK_ROWS];
        let [a, b] = page.rows[i % CHUNK_ROWS];
        &page.buf[a as usize..b as usize]
    }

    /// Number of local atoms the list covers.
    #[must_use]
    pub fn nlocal(&self) -> usize {
        self.x_at_build.len()
    }

    /// Total stored pairs.
    #[must_use]
    pub fn npairs(&self) -> usize {
        self.pages().iter().map(|g| g.len).sum()
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

    impl NeighborList {
        /// Flag every row whose stored neighbors are all local, from the
        /// rows' content.
        fn local_only_rows(&self) -> Vec<bool> {
            let nl = self.nlocal() as u32;
            (0..self.nlocal())
                .map(|i| self.neighbors(i).iter().all(|&j| j < nl))
                .collect()
        }

        /// Stored pairs in the selected row class of a `flags` partition.
        fn pairs_in(&self, flags: &[bool], select: bool) -> usize {
            (0..self.nlocal())
                .filter(|&i| flags[i] == select)
                .map(|i| self.neighbors(i).len())
                .sum()
        }
    }

    /// The brute-force row `i` of a `kind` list over every atom of `atoms`:
    /// each `j != i` within `cutoff_list`, kept by the kind's rule, sorted.
    fn brute_force_row(atoms: &Atoms, kind: ListKind, cutoff_list: f64, i: usize) -> Vec<u32> {
        let xi = atoms.x[i];
        (0..atoms.ntotal())
            .filter(|&j| {
                let xj = atoms.x[j];
                let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let in_range = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutoff_list * cutoff_list;
                let kept = match kind {
                    ListKind::Full => j != i,
                    ListKind::HalfOneSided => j > i,
                    ListKind::HalfNewton if j < atoms.nlocal => j > i,
                    ListKind::HalfNewton => ghost_pair_belongs_to_i(&xi, &xj),
                };
                in_range && kept
            })
            .map(|j| j as u32)
            .collect()
    }

    /// Split interior/boundary rebuild over a sub-box with a ghost shell
    /// must reproduce the one-pass chunked build bit-for-bit, sorted or
    /// not, for every list kind, and every row must be the brute-force
    /// in-range set (so a prune both builds share cannot hide).
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
                let mut split = NeighborList::empty(kind);
                split.rebuild(&bare, lo, hi, kind, r, Some(&flags), &ChunkExec::Serial);
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
                split.rebuild_boundary(&full, lo, hi, &flags, &ChunkExec::Serial);
                let one =
                    NeighborList::build_chunked(&full, lo, hi, kind, cut, skin, &ChunkExec::Serial);
                assert_eq!(split.npairs(), one.npairs(), "{kind:?} sorted={sorted}");
                for i in 0..one.nlocal() {
                    assert_eq!(
                        split.neighbors(i),
                        one.neighbors(i),
                        "row {i} {kind:?} sorted={sorted}"
                    );
                    let mut got = split.neighbors(i).to_vec();
                    got.sort_unstable();
                    assert_eq!(
                        got,
                        brute_force_row(&full, kind, r, i),
                        "brute-force row {i} {kind:?} sorted={sorted}"
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
                // The partition recorded as rows were written is the
                // content partition, in either build.
                for list in [&one, &split] {
                    assert_eq!(
                        lor,
                        (0..list.nlocal())
                            .map(|i| list.local_only(i))
                            .collect::<Vec<_>>()
                    );
                    let lor_pairs = one.pairs_in(&lor, true);
                    let lor_rows = lor.iter().filter(|&&b| b).count();
                    assert_eq!(list.local_only_totals(), (lor_rows, lor_pairs));
                }
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
