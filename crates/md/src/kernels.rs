//! Deterministic chunk-parallel kernel support.
//!
//! The force and density passes parallelize by splitting a rank's neighbor
//! rows into fixed-size chunks, but their serial counterparts accumulate
//! with floating-point `+=` in one specific order — and this codebase
//! promises bit-identical results at any `--threads`. Per-thread partial
//! sums reduced afterwards would change the addition order, so the chunked
//! kernels never sum concurrently. Instead each chunk *logs* the updates
//! its rows would perform, in exactly the serial order, and the logs are
//! replayed afterwards:
//!
//! * **Force/density scatters** are bucketed by target-index range. Each
//!   bucket owns a disjoint slice of the output array, so buckets replay in
//!   parallel; within a bucket the chunks replay in ascending chunk order,
//!   making every individual element's update sequence exactly the serial
//!   kernel's. Since IEEE-754 addition is deterministic (just not
//!   associative), same sequence ⇒ same bits.
//! * **Energy/virial** contributions are logged per pair and folded on one
//!   thread in chunk/row/pair order — again the serial addition sequence.
//!
//! Every logged update carries its source row, so a pass may be logged in
//! two sittings — the *interior* rows while halo messages are in flight,
//! the *boundary* rows once they have arrived — and still replay in the
//! serial order: a row lives wholly on one side, each side's stream is
//! row-ascending, so a two-pointer merge by row restores the serial
//! interleaving. A pass logged in one sitting simply leaves the boundary
//! side empty.
//!
//! The row kernels that write the log share one inner-loop shape
//! (DESIGN.md §16): per `ROW_BLOCK`-wide slab of a neighbor row,
//! `Slab::filter` compacts the in-range pairs without a branch, the
//! potential runs a dense lane loop over those only, and a visitor logs
//! them pair by pair. LJ and both EAM passes call the same filter.
//!
//! No atomics anywhere: atomic float accumulation would make results
//! depend on thread interleaving, which is exactly the nondeterminism this
//! design exists to rule out. The chunk size and bucket count affect only
//! wall-clock, never results.

use serde::{Deserialize, Serialize};
use tofumd_threadpool::ChunkExec;

/// Rows per dispatch chunk for neighbor builds and force passes.
pub const CHUNK_ROWS: usize = 256;

/// Lanes per block of the neighbor build's stream scan: 8 × f64 fills one
/// 512-bit SVE vector (the paper's A64FX target). The stream is padded by
/// one block, so its lane loops have constant trip counts and no tail.
pub const LANE_WIDTH: usize = 8;

/// Selects nothing: the force and density passes have one blocked row
/// kernel each. Kept only because the benchmark package passes
/// `RunConfig::kernel` to [`crate::neighbor::NeighborList::build_chunked_mode`];
/// delete with the next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KernelMode;

/// Slab width of the blocked row kernels: long enough that the vectorized
/// lane loops dominate their setup and LLVM's own epilogue handles short
/// remainders, small enough that the slab buffers stay in L1.
pub(crate) const ROW_BLOCK: usize = 64;

/// Slab buffers of the blocked row kernels, one per chunk so they are
/// initialized once per chunk, not zeroed once per row: the accepted
/// pairs of the current slab ([`Slab::filter`]) and two per-pair outputs
/// of the potential's lane loop (force prefactor, pair energy).
pub(crate) struct Slab {
    pub j: [u32; ROW_BLOCK],
    pub r2: [f64; ROW_BLOCK],
    pub fp: [f64; ROW_BLOCK],
    pub en: [f64; ROW_BLOCK],
}

impl Slab {
    pub fn new() -> Self {
        Slab {
            j: [0; ROW_BLOCK],
            r2: [0.0; ROW_BLOCK],
            fp: [0.0; ROW_BLOCK],
            en: [0.0; ROW_BLOCK],
        }
    }

    /// Gather + filter one slab of a neighbor row (`blk`, at most
    /// [`ROW_BLOCK`] candidates): r² for every candidate (the scalar op
    /// sequence exactly), with neighbor index and r² compressed to the
    /// accepted lanes `..na`, in neighbor order; returns `na`. The cursor
    /// advances via a flag add, so the loop is branch-free — a rejected
    /// lane's slot is simply overwritten by the next candidate. The
    /// displacement is NOT buffered: the visit loop re-derives it from
    /// `x[j]`, still hot in L1 from this pass, with the same subtractions.
    #[inline]
    pub fn filter(&mut self, xi: [f64; 3], x: &[[f64; 3]], blk: &[u32], cutsq: f64) -> usize {
        let mut na = 0usize;
        for &j in blk {
            let xj = x[j as usize];
            let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
            let rr = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            self.j[na] = j;
            self.r2[na] = rr;
            na += usize::from(rr < cutsq);
        }
        na
    }
}

/// Number of disjoint target-index ranges the scatter replay splits the
/// output array into (the replay's parallelism ceiling).
pub const SCATTER_BUCKETS: usize = 16;

/// Width of each scatter bucket for an output array of `ntotal` elements.
#[must_use]
pub fn bucket_size(ntotal: usize) -> usize {
    // Rounded up to a power of two so the per-push bucket lookup is a
    // shift rather than a hardware division — the push sits on every
    // logged pair update, where an integer divide would be the single
    // most expensive instruction in the loop. The round-up can only
    // shrink the bucket count (never past the replay's slice count).
    ntotal.div_ceil(SCATTER_BUCKETS).max(1).next_power_of_two()
}

/// The rows one logging call covers, and with them the side of the
/// [`PairScratch`] they are logged to.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// Every row, in one sitting (the boundary side stays empty).
    All,
    /// The rows with `flags[i] == interior`, to that side.
    Side {
        /// Interior flag per local row.
        flags: &'a [bool],
        /// Which side this call logs.
        interior: bool,
    },
}

impl Rows<'_> {
    /// Does this call log row `i`?
    #[inline]
    #[must_use]
    pub fn covers(self, i: usize) -> bool {
        match self {
            Rows::All => true,
            Rows::Side { flags, interior } => flags[i] == interior,
        }
    }
}

/// One chunk's logged updates for one side of a pass: scatter entries
/// `(row, target, delta)` bucketed by target range, plus the per-pair
/// energy/virial stream with one `(row, start)` run per logged row.
#[derive(Debug, Default)]
pub struct RowLog {
    shift: u32,
    row: u32,
    vec_buckets: Vec<Vec<(u32, u32, [f64; 3])>>,
    scalar_buckets: Vec<Vec<(u32, u32, f64)>>,
    ev: Vec<(f64, f64)>,
    ev_rows: Vec<(u32, usize)>,
}

impl RowLog {
    /// Clear all logs, keeping their capacity for the next pass.
    fn reset(&mut self, shift: u32) {
        self.shift = shift;
        for b in &mut self.vec_buckets {
            b.clear();
        }
        for b in &mut self.scalar_buckets {
            b.clear();
        }
        self.ev.clear();
        self.ev_rows.clear();
    }

    /// Start logging neighbor row `row`; rows must arrive ascending.
    #[inline]
    pub fn begin_row(&mut self, row: u32) {
        self.row = row;
        self.ev_rows.push((row, self.ev.len()));
    }

    /// Bucket of `target`, growing the bucket list on demand: the width is
    /// fixed when the pass is prepared, but the boundary rows of a pass
    /// prepared before the ghost shell existed scatter to targets past it.
    #[inline]
    fn bucket<T>(buckets: &mut Vec<Vec<T>>, shift: u32, target: u32) -> &mut Vec<T> {
        let idx = (target >> shift) as usize;
        if buckets.len() <= idx {
            buckets.resize_with(idx + 1, Vec::new);
        }
        &mut buckets[idx]
    }

    /// Log `out[target] += delta` for a `[f64; 3]` output array.
    #[inline]
    pub fn push_force(&mut self, target: u32, delta: [f64; 3]) {
        Self::bucket(&mut self.vec_buckets, self.shift, target).push((self.row, target, delta));
    }

    /// Log `out[target] += delta` for a scalar output array.
    #[inline]
    pub fn push_scalar(&mut self, target: u32, delta: f64) {
        Self::bucket(&mut self.scalar_buckets, self.shift, target).push((self.row, target, delta));
    }

    /// Log a batch of pair energy/virial contributions in iteration order.
    /// One reservation for the whole batch instead of a capacity check per
    /// pair — the row kernels feed a slab at a time through this.
    #[inline]
    pub fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, evs: I) {
        self.ev.extend(evs);
    }

    /// The energy/virial entries of the `k`-th logged row.
    fn ev_run(&self, k: usize) -> &[(f64, f64)] {
        let end = self.ev_rows.get(k + 1).map_or(self.ev.len(), |r| r.1);
        &self.ev[self.ev_rows[k].1..end]
    }
}

/// Reusable per-rank scratch of the logging kernels: one interior and one
/// boundary [`RowLog`] per row chunk, retained across steps so
/// steady-state runs don't allocate.
#[derive(Debug, Default)]
pub struct PairScratch {
    nlocal: usize,
    bs: usize,
    nchunks: usize,
    interior: Vec<RowLog>,
    boundary: Vec<RowLog>,
}

impl PairScratch {
    /// Empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        PairScratch::default()
    }

    /// Reset for a pass over `nlocal` rows scattering into `ntotal`
    /// targets (both sides cleared, capacity retained). Call once per
    /// pass, before logging either side. A pass whose interior side is
    /// logged before the ghost shell exists passes the ghost-free count:
    /// ghost targets then land in buckets grown on demand. The bucket
    /// width only ever grows, so such a pass keeps the width the previous
    /// shell's targets fitted — one bucketing per scratch, which is what
    /// lets every bucket reuse its capacity from pass to pass.
    pub fn prepare(&mut self, nlocal: usize, ntotal: usize) {
        self.nlocal = nlocal;
        self.bs = self.bs.max(bucket_size(ntotal));
        self.nchunks = nlocal.div_ceil(CHUNK_ROWS);
        if self.interior.len() < self.nchunks {
            self.interior.resize_with(self.nchunks, RowLog::default);
            self.boundary.resize_with(self.nchunks, RowLog::default);
        }
        let shift = self.bs.trailing_zeros();
        for log in self.interior[..self.nchunks]
            .iter_mut()
            .chain(&mut self.boundary[..self.nchunks])
        {
            log.reset(shift);
        }
    }

    /// Chunk-parallel driver of a logging kernel: `chunk(log, range)` runs
    /// once per row chunk with the chunk's log on the side `rows` names
    /// and the chunk's row range; it logs the rows `rows` covers, in
    /// ascending order, each opened with [`RowLog::begin_row`].
    pub fn log_chunks(
        &mut self,
        rows: Rows<'_>,
        exec: &ChunkExec<'_>,
        chunk: &(dyn Fn(&mut RowLog, std::ops::Range<usize>) + Sync),
    ) {
        let nlocal = self.nlocal;
        let side = match rows {
            Rows::All | Rows::Side { interior: true, .. } => &mut self.interior,
            Rows::Side { .. } => &mut self.boundary,
        };
        exec.floored(nlocal)
            .for_each_mut(&mut side[..self.nchunks], &|c, log| {
                chunk(log, c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(nlocal));
            });
    }

    /// The two sides of every chunk, in chunk order.
    fn chunks(&self) -> impl Iterator<Item = (&RowLog, &RowLog)> {
        self.interior[..self.nchunks]
            .iter()
            .zip(&self.boundary[..self.nchunks])
    }
}

/// Split `out` into its scatter-bucket ranges: `(base, slice)` pairs of
/// disjoint sub-slices, each `bs` wide (last one shorter).
fn bucket_slices<T>(out: &mut [T], bs: usize) -> Vec<(usize, &mut [T])> {
    let n = out.len();
    let mut slices = Vec::with_capacity(n.div_ceil(bs.max(1)));
    let mut rest = out;
    let mut start = 0;
    while start < n {
        let len = bs.min(n - start);
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        slices.push((start, head));
        rest = tail;
        start += len;
    }
    slices
}

/// Merge one chunk's interior and boundary streams by ascending row tag
/// (ties impossible: a row lives wholly on one side) and apply each entry
/// through `f` — the serial kernel's exact visit order for that chunk.
#[inline]
fn merge_rows<T: Copy>(ia: &[(u32, u32, T)], ba: &[(u32, u32, T)], mut f: impl FnMut(u32, T)) {
    let (mut p, mut q) = (0, 0);
    while p < ia.len() && q < ba.len() {
        if ia[p].0 <= ba[q].0 {
            f(ia[p].1, ia[p].2);
            p += 1;
        } else {
            f(ba[q].1, ba[q].2);
            q += 1;
        }
    }
    for &(_, t, d) in &ia[p..] {
        f(t, d);
    }
    for &(_, t, d) in &ba[q..] {
        f(t, d);
    }
}

/// Replay one scatter stream (`buckets` picks it out of a log) into `out`.
/// Buckets run in parallel (disjoint target ranges); within each bucket
/// the chunks replay in ascending order with the two sides of each chunk
/// merged by row, so every element receives its updates in exactly the
/// serial kernel's sequence.
fn replay<T: Copy + Sync, O: Send>(
    scratch: &PairScratch,
    out: &mut [O],
    exec: &ChunkExec<'_>,
    buckets: impl Fn(&RowLog) -> &Vec<Vec<(u32, u32, T)>> + Sync,
    add: impl Fn(&mut O, T) + Sync,
) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices(out, scratch.bs);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        let side = |log| buckets(log).get(b).map_or(&[][..], |v| v);
        for (interior, boundary) in scratch.chunks() {
            merge_rows(side(interior), side(boundary), |t, d| {
                add(&mut slice[t as usize - *base], d);
            });
        }
    });
}

/// Replay a pass's `[f64; 3]` scatter log into `out` (see [`replay`]).
pub fn replay_forces(scratch: &PairScratch, out: &mut [[f64; 3]], exec: &ChunkExec<'_>) {
    replay(
        scratch,
        out,
        exec,
        |log| &log.vec_buckets,
        |o, d: [f64; 3]| {
            o[0] += d[0];
            o[1] += d[1];
            o[2] += d[2];
        },
    );
}

/// Scalar-array variant of [`replay_forces`] (EAM electron density).
pub fn replay_scalars(scratch: &PairScratch, out: &mut [f64], exec: &ChunkExec<'_>) {
    replay(
        scratch,
        out,
        exec,
        |log| &log.scalar_buckets,
        |o, d: f64| *o += d,
    );
}

/// Fold a pass's energy/virial streams on one thread: chunks in ascending
/// order, each chunk's rows merged across its two sides by row — the
/// serial kernel's exact addition sequence.
#[must_use]
pub fn fold_ev(scratch: &PairScratch) -> (f64, f64) {
    let mut energy = 0.0;
    let mut virial = 0.0;
    for (ia, ba) in scratch.chunks() {
        let (mut p, mut q) = (0, 0);
        while p < ia.ev_rows.len() || q < ba.ev_rows.len() {
            let interior = q == ba.ev_rows.len()
                || (p < ia.ev_rows.len() && ia.ev_rows[p].0 <= ba.ev_rows[q].0);
            let run = if interior {
                p += 1;
                ia.ev_run(p - 1)
            } else {
                q += 1;
                ba.ev_run(q - 1)
            };
            for &(de, dv) in run {
                energy += de;
                virial += dv;
            }
        }
    }
    (energy, virial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_threadpool::SpinPool;

    /// Updates per synthetic row.
    const PER_ROW: usize = 3;

    /// One logged update: target, force delta, energy, virial.
    type Update = (u32, [f64; 3], f64, f64);

    /// A row-ordered synthetic update stream, [`PER_ROW`] updates per row,
    /// with awkward magnitudes so any reordering of a target's updates
    /// changes the bits. Interior rows only hit local targets; boundary
    /// rows may scatter into the "ghost" range `nrows..ntotal` (mirrors
    /// the pair kernels).
    fn stream(interior: &[bool], ntotal: usize) -> Vec<Update> {
        let mut s = 0x243f6a8885a308d3u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut out = Vec::new();
        for (i, &int) in interior.iter().enumerate() {
            for _ in 0..PER_ROW {
                let range = if int { interior.len() } else { ntotal };
                let t = (rnd() as usize % range) as u32;
                let v = (rnd() as f64).sin() * 1e3 + 1e-7 * i as f64;
                out.push((t, [v, -0.5 * v, 1e-6 * v], v * 0.25, -v));
            }
        }
        out
    }

    /// Log the rows `rows` covers, as a logging kernel would.
    fn log(scratch: &mut PairScratch, stream: &[Update], rows: Rows<'_>, exec: &ChunkExec<'_>) {
        scratch.log_chunks(rows, exec, &|log, range| {
            for i in range.filter(|&i| rows.covers(i)) {
                log.begin_row(i as u32);
                for &(t, d, e, v) in &stream[PER_ROW * i..PER_ROW * (i + 1)] {
                    log.push_force(t, d);
                    log.push_scalar(t, d[0]);
                    log.extend_ev([(e, v)]);
                }
            }
        });
    }

    /// Drive the same row-ordered update stream through (a) direct serial
    /// application and (b) the log — in one sitting, and with the rows
    /// partitioned by a pseudo-random interior mask, the all-interior and
    /// all-boundary masks and alternating rows, the boundary side prepared
    /// before its "ghost" targets are known — then replay and fold.
    #[test]
    fn replay_matches_direct_application_bitwise() {
        let nrows = 700; // > 2 chunks of 256
        let ntotal = 900; // targets include a "ghost" range past nlocal
        let masks: [Vec<bool>; 4] = [
            (0..nrows)
                .map(|i| !(i * 2654435761usize).is_multiple_of(3))
                .collect(),
            vec![true; nrows],
            vec![false; nrows],
            (0..nrows).map(|i| i % 2 == 0).collect(),
        ];
        let pool = SpinPool::new(4);
        for flags in &masks {
            let stream = stream(flags, ntotal);
            let mut direct = vec![[0.0f64; 3]; ntotal];
            let mut dscalar = vec![0.0f64; ntotal];
            let (mut e_ref, mut v_ref) = (0.0, 0.0);
            for &(t, d, e, v) in &stream {
                for dim in 0..3 {
                    direct[t as usize][dim] += d[dim];
                }
                dscalar[t as usize] += d[0];
                e_ref += e;
                v_ref += v;
            }
            for exec in [ChunkExec::Serial, ChunkExec::Pool(&pool)] {
                for split in [false, true] {
                    let mut scratch = PairScratch::new();
                    if split {
                        scratch.prepare(nrows, nrows);
                        for interior in [true, false] {
                            log(&mut scratch, &stream, Rows::Side { flags, interior }, &exec);
                        }
                    } else {
                        scratch.prepare(nrows, ntotal);
                        log(&mut scratch, &stream, Rows::All, &exec);
                    }
                    let mut f = vec![[0.0f64; 3]; ntotal];
                    replay_forces(&scratch, &mut f, &exec);
                    assert_eq!(f, direct);
                    let mut sc = vec![0.0f64; ntotal];
                    replay_scalars(&scratch, &mut sc, &exec);
                    assert_eq!(sc, dscalar);
                    let (e, v) = fold_ev(&scratch);
                    assert_eq!(e.to_bits(), e_ref.to_bits());
                    assert_eq!(v.to_bits(), v_ref.to_bits());
                }
            }
        }
    }

    /// `prepare` must clear both sides, and an empty scratch replays as a
    /// no-op even over a non-empty output array.
    #[test]
    fn prepare_clears_both_sides() {
        let flags = vec![true; 300];
        let stream = stream(&flags, 300);
        let mut scratch = PairScratch::new();
        scratch.prepare(300, 300);
        for interior in [true, false] {
            let all = vec![interior; 300];
            let rows = Rows::Side {
                flags: &all,
                interior,
            };
            log(&mut scratch, &stream, rows, &ChunkExec::Serial);
        }
        scratch.prepare(300, 300);
        let mut out = vec![[0.0f64; 3]; 300];
        replay_forces(&scratch, &mut out, &ChunkExec::Serial);
        assert!(out.iter().all(|v| *v == [0.0; 3]));
        assert_eq!(fold_ev(&scratch), (0.0, 0.0));
    }

    #[test]
    fn tiny_output_arrays_bucket_safely() {
        // ntotal < SCATTER_BUCKETS: bucket width clamps to 1.
        let mut scratch = PairScratch::new();
        scratch.prepare(1, 3);
        scratch.log_chunks(Rows::All, &ChunkExec::Serial, &|log, _| {
            log.begin_row(0);
            log.push_force(2, [1.0, 0.0, 0.0]);
            log.push_force(0, [0.5, 0.0, 0.0]);
        });
        let mut out = vec![[0.0f64; 3]; 3];
        replay_forces(&scratch, &mut out, &ChunkExec::Serial);
        assert_eq!(out[2][0], 1.0);
        assert_eq!(out[0][0], 0.5);
        // Zero-length output: nothing logged, replay is a no-op.
        scratch.prepare(0, 0);
        replay_forces(&scratch, &mut [], &ChunkExec::Serial);
    }
}
