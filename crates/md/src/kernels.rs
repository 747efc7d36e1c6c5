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
//!   thread in chunk/pair order — again the serial addition sequence.
//!
//! No atomics anywhere: atomic float accumulation would make results
//! depend on thread interleaving, which is exactly the nondeterminism this
//! design exists to rule out. The chunk size and bucket count affect only
//! wall-clock, never results.

use serde::{Deserialize, Serialize};
use tofumd_threadpool::ChunkExec;

/// Rows per dispatch chunk for neighbor builds and force passes.
pub const CHUNK_ROWS: usize = 256;

/// Lanes per block in the blocked kernels: 8 × f64 fills one 512-bit SVE
/// vector (the paper's A64FX target). Blocks are full-width only — the
/// `len % LANE_WIDTH` remainder always runs the scalar tail — so the lane
/// loops have constant trip counts the compiler can keep branch-free.
/// (The neighbor build has no tail: its stream is padded by one block.)
pub const LANE_WIDTH: usize = 8;

/// Which inner-loop implementation the force/density kernels run (the
/// neighbor build has a single row scan and no mode).
///
/// Both modes are bit-identical at any `--threads`: the blocked path
/// batches only the *per-pair* arithmetic (each lane performs the same
/// IEEE-754 op sequence on its own pair's data as the scalar path), while
/// every accumulation into `f`/`rho`, every log push, and every
/// energy/virial fold still happens one pair at a time in neighbor order.
/// `Scalar` stays the lockstep anchor; `Blocked` is the perf path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelMode {
    /// One pair at a time — the original reference inner loops.
    #[default]
    Scalar,
    /// Fixed-width lane blocks (distance + cutoff mask per
    /// [`LANE_WIDTH`]-wide group, deterministic scalar tail).
    Blocked,
}

impl KernelMode {
    /// Parse a `--kernel` flag value.
    #[must_use]
    pub fn parse(s: &str) -> Option<KernelMode> {
        match s {
            "scalar" => Some(KernelMode::Scalar),
            "blocked" => Some(KernelMode::Blocked),
            _ => None,
        }
    }

    /// Stable lowercase name (bench row labels, report lines).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Blocked => "blocked",
        }
    }
}

/// Gather one [`LANE_WIDTH`]-wide block of candidate pairs: for each lane
/// `k`, the displacement `xi - x[idx[k]]` and its squared norm, computed
/// with exactly the scalar kernels' op sequence (`d0*d0 + d1*d1 + d2*d2`,
/// left-to-right) so an accepted lane's values are bit-identical to what
/// the scalar path would have produced for that pair.
#[inline]
pub fn gather_dx_r2(
    xi: [f64; 3],
    x: &[[f64; 3]],
    idx: &[u32],
    dx: &mut [[f64; 3]; LANE_WIDTH],
    r2: &mut [f64; LANE_WIDTH],
) {
    debug_assert_eq!(idx.len(), LANE_WIDTH);
    for k in 0..LANE_WIDTH {
        let xj = x[idx[k] as usize];
        let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
        dx[k] = d;
        r2[k] = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
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

/// One chunk's logged updates: scatter entries bucketed by target range,
/// plus the chunk's per-pair energy/virial stream.
#[derive(Debug, Default)]
pub struct ChunkLog {
    vec_buckets: Vec<Vec<(u32, [f64; 3])>>,
    scalar_buckets: Vec<Vec<(u32, f64)>>,
    ev: Vec<(f64, f64)>,
}

impl ChunkLog {
    /// Clear all logs, keeping their capacity for the next step.
    fn reset(&mut self) {
        self.vec_buckets.resize_with(SCATTER_BUCKETS, Vec::new);
        self.scalar_buckets.resize_with(SCATTER_BUCKETS, Vec::new);
        for b in &mut self.vec_buckets {
            b.clear();
        }
        for b in &mut self.scalar_buckets {
            b.clear();
        }
        self.ev.clear();
    }

    /// Log `out[target] += delta` for a `[f64; 3]` output array whose
    /// bucket width is `bs` (from [`bucket_size`] of the array length).
    #[inline]
    pub fn push_force(&mut self, bs: usize, target: u32, delta: [f64; 3]) {
        debug_assert!(bs.is_power_of_two());
        self.vec_buckets[target as usize >> bs.trailing_zeros()].push((target, delta));
    }

    /// Log `out[target] += delta` for a scalar output array.
    #[inline]
    pub fn push_scalar(&mut self, bs: usize, target: u32, delta: f64) {
        debug_assert!(bs.is_power_of_two());
        self.scalar_buckets[target as usize >> bs.trailing_zeros()].push((target, delta));
    }

    /// Log one pair's energy and virial contribution.
    #[inline]
    pub fn push_ev(&mut self, energy: f64, virial: f64) {
        self.ev.push((energy, virial));
    }

    /// Log a batch of pair energy/virial contributions in iteration order.
    /// One reservation for the whole batch instead of a capacity check per
    /// pair — the blocked kernels feed a slab at a time through this.
    #[inline]
    pub fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, evs: I) {
        self.ev.extend(evs);
    }
}

/// Reusable per-rank scratch for the chunked kernels: one [`ChunkLog`] per
/// row chunk, retained across steps so steady-state runs don't allocate.
#[derive(Debug, Default)]
pub struct PairScratch {
    chunks: Vec<ChunkLog>,
}

impl PairScratch {
    /// Empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        PairScratch::default()
    }

    /// Hand out `nchunks` cleared logs (capacity retained from prior steps).
    pub fn prepare(&mut self, nchunks: usize) -> &mut [ChunkLog] {
        if self.chunks.len() < nchunks {
            self.chunks.resize_with(nchunks, ChunkLog::default);
        }
        let slice = &mut self.chunks[..nchunks];
        for log in slice.iter_mut() {
            log.reset();
        }
        slice
    }
}

/// Split `out` into its scatter-bucket ranges: `(base, slice)` pairs of
/// disjoint sub-slices, each `bucket_size(out.len())` wide (last one
/// shorter).
fn bucket_slices<T>(out: &mut [T]) -> Vec<(usize, &mut [T])> {
    bucket_slices_with(out, bucket_size(out.len()))
}

/// [`bucket_slices`] with an explicit bucket width `bs` (the split logs
/// fix their width from `nlocal` before the ghost count is known).
fn bucket_slices_with<T>(out: &mut [T], bs: usize) -> Vec<(usize, &mut [T])> {
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

/// Replay every chunk's `[f64; 3]` scatter log into `out`. Buckets run in
/// parallel (disjoint target ranges); within each bucket, chunks replay in
/// ascending order, so each element receives its updates in exactly the
/// serial kernel's sequence.
pub fn replay_forces(chunks: &[ChunkLog], out: &mut [[f64; 3]], exec: &ChunkExec<'_>) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices(out);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        for log in chunks {
            for &(t, d) in &log.vec_buckets[b] {
                let k = t as usize - *base;
                slice[k][0] += d[0];
                slice[k][1] += d[1];
                slice[k][2] += d[2];
            }
        }
    });
}

/// Scalar-array variant of [`replay_forces`] (EAM electron density).
pub fn replay_scalars(chunks: &[ChunkLog], out: &mut [f64], exec: &ChunkExec<'_>) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices(out);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        for log in chunks {
            for &(t, d) in &log.scalar_buckets[b] {
                slice[t as usize - *base] += d;
            }
        }
    });
}

/// Fold the per-pair energy/virial streams on one thread, in chunk then
/// pair order — the serial kernel's exact addition sequence.
#[must_use]
pub fn fold_ev(chunks: &[ChunkLog]) -> (f64, f64) {
    let mut energy = 0.0;
    let mut virial = 0.0;
    for log in chunks {
        for &(de, dv) in &log.ev {
            energy += de;
            virial += dv;
        }
    }
    (energy, virial)
}

/// One chunk's updates for *one side* (interior or boundary) of a
/// row-partitioned pass, with every entry tagged by its source row.
///
/// The interior side of a pass is logged while halo messages are still in
/// flight and the boundary side only after they arrive, so the two sides
/// of a chunk are filled at different times — but the serial kernel
/// interleaves their rows. The row tags let the replay re-create that
/// interleaving exactly: a row lives wholly on one side, each side's
/// stream is row-ascending, so a two-pointer merge by row id restores the
/// serial per-target update sequence (and the serial energy/virial fold
/// order) bit-for-bit.
#[derive(Debug, Default)]
pub struct SplitLog {
    vec_buckets: Vec<Vec<(u32, u32, [f64; 3])>>,
    scalar_buckets: Vec<Vec<(u32, u32, f64)>>,
    ev: Vec<(u32, f64, f64)>,
}

impl SplitLog {
    fn reset(&mut self) {
        for b in &mut self.vec_buckets {
            b.clear();
        }
        for b in &mut self.scalar_buckets {
            b.clear();
        }
        self.ev.clear();
    }

    /// Bucket `idx`, growing the bucket list on demand: the width is fixed
    /// from `nlocal`, but boundary rows scatter to ghost targets past it.
    #[inline]
    fn bucket<T>(buckets: &mut Vec<Vec<T>>, idx: usize) -> &mut Vec<T> {
        if buckets.len() <= idx {
            buckets.resize_with(idx + 1, Vec::new);
        }
        &mut buckets[idx]
    }

    /// Log `out[target] += delta` from neighbor row `row`.
    #[inline]
    pub fn push_force(&mut self, bs: usize, row: u32, target: u32, delta: [f64; 3]) {
        debug_assert!(bs.is_power_of_two());
        Self::bucket(
            &mut self.vec_buckets,
            target as usize >> bs.trailing_zeros(),
        )
        .push((row, target, delta));
    }

    /// Scalar-array variant of [`SplitLog::push_force`].
    #[inline]
    pub fn push_scalar(&mut self, bs: usize, row: u32, target: u32, delta: f64) {
        debug_assert!(bs.is_power_of_two());
        Self::bucket(
            &mut self.scalar_buckets,
            target as usize >> bs.trailing_zeros(),
        )
        .push((row, target, delta));
    }

    /// Log one pair's energy/virial contribution from row `row`.
    #[inline]
    pub fn push_ev(&mut self, row: u32, energy: f64, virial: f64) {
        self.ev.push((row, energy, virial));
    }

    /// Batch variant of [`SplitLog::push_ev`]: log a slab of energy/virial
    /// contributions from one row, in iteration order.
    #[inline]
    pub fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, row: u32, evs: I) {
        self.ev.extend(evs.into_iter().map(|(e, v)| (row, e, v)));
    }
}

/// Reusable per-rank scratch for a row-partitioned pass: one interior and
/// one boundary [`SplitLog`] per row chunk.
///
/// The bucket width is derived from `nlocal` alone (not `ntotal`) so the
/// interior side can be logged before the ghost shell — and therefore the
/// final array length — is known; ghost targets land in buckets grown on
/// demand past the local range.
#[derive(Debug, Default)]
pub struct SplitScratch {
    bs: usize,
    nchunks: usize,
    interior: Vec<SplitLog>,
    boundary: Vec<SplitLog>,
}

impl SplitScratch {
    /// Empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        SplitScratch::default()
    }

    /// Reset for a pass over `nlocal` rows (both sides cleared, capacity
    /// retained). Call once per pass, before logging either side.
    pub fn prepare(&mut self, nlocal: usize) {
        self.bs = bucket_size(nlocal);
        self.nchunks = nlocal.div_ceil(CHUNK_ROWS);
        if self.interior.len() < self.nchunks {
            self.interior.resize_with(self.nchunks, SplitLog::default);
            self.boundary.resize_with(self.nchunks, SplitLog::default);
        }
        for log in &mut self.interior[..self.nchunks] {
            log.reset();
        }
        for log in &mut self.boundary[..self.nchunks] {
            log.reset();
        }
    }

    /// Bucket width fixed by the last [`SplitScratch::prepare`].
    #[must_use]
    pub fn bs(&self) -> usize {
        self.bs
    }

    /// The per-chunk logs of one side (`true` = interior).
    pub fn side_mut(&mut self, interior: bool) -> &mut [SplitLog] {
        if interior {
            &mut self.interior[..self.nchunks]
        } else {
            &mut self.boundary[..self.nchunks]
        }
    }
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

/// Replay a split pass's `[f64; 3]` scatter logs into `out`. Buckets run
/// in parallel; within each bucket the chunks replay in ascending order
/// with the two sides of each chunk merged by row, so every element's
/// update sequence is exactly the unpartitioned serial kernel's.
pub fn replay_forces_split(scratch: &SplitScratch, out: &mut [[f64; 3]], exec: &ChunkExec<'_>) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices_with(out, scratch.bs);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        for c in 0..scratch.nchunks {
            let ia = scratch.interior[c]
                .vec_buckets
                .get(b)
                .map_or(&[][..], |v| v);
            let ba = scratch.boundary[c]
                .vec_buckets
                .get(b)
                .map_or(&[][..], |v| v);
            merge_rows(ia, ba, |t, d: [f64; 3]| {
                let k = t as usize - *base;
                slice[k][0] += d[0];
                slice[k][1] += d[1];
                slice[k][2] += d[2];
            });
        }
    });
}

/// Scalar-array variant of [`replay_forces_split`] (EAM electron density).
pub fn replay_scalars_split(scratch: &SplitScratch, out: &mut [f64], exec: &ChunkExec<'_>) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices_with(out, scratch.bs);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        for c in 0..scratch.nchunks {
            let ia = scratch.interior[c]
                .scalar_buckets
                .get(b)
                .map_or(&[][..], |v| v);
            let ba = scratch.boundary[c]
                .scalar_buckets
                .get(b)
                .map_or(&[][..], |v| v);
            merge_rows(ia, ba, |t, d: f64| slice[t as usize - *base] += d);
        }
    });
}

/// Fold a split pass's energy/virial streams on one thread: chunks in
/// ascending order, each chunk's two sides merged by row — the serial
/// kernel's exact addition sequence.
#[must_use]
pub fn fold_ev_split(scratch: &SplitScratch) -> (f64, f64) {
    let mut energy = 0.0;
    let mut virial = 0.0;
    for c in 0..scratch.nchunks {
        let ia = &scratch.interior[c].ev;
        let ba = &scratch.boundary[c].ev;
        let (mut p, mut q) = (0, 0);
        let mut fold = |e: f64, v: f64| {
            energy += e;
            virial += v;
        };
        while p < ia.len() && q < ba.len() {
            if ia[p].0 <= ba[q].0 {
                fold(ia[p].1, ia[p].2);
                p += 1;
            } else {
                fold(ba[q].1, ba[q].2);
                q += 1;
            }
        }
        for &(_, e, v) in &ia[p..] {
            fold(e, v);
        }
        for &(_, e, v) in &ba[q..] {
            fold(e, v);
        }
    }
    (energy, virial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_threadpool::SpinPool;

    /// A synthetic update stream applied three ways: directly (serial
    /// reference), via serial replay, via pooled replay.
    fn updates(n: usize) -> Vec<(u32, [f64; 3])> {
        // Deterministic pseudo-random targets with awkward magnitudes so
        // any reordering of a target's updates changes the bits.
        let mut out = Vec::new();
        let mut s = 0x9e3779b97f4a7c15u64;
        for k in 0..4 * n {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = (s >> 33) as usize % n;
            let v = (k as f64).sin() * 1e3 + 1e-7 * k as f64;
            out.push((t as u32, [v, -v * 0.5, v * 1e-6]));
        }
        out
    }

    #[test]
    fn replay_matches_direct_application_bitwise() {
        let n = 103;
        let ups = updates(n);
        let mut direct = vec![[0.0f64; 3]; n];
        for &(t, d) in &ups {
            for dim in 0..3 {
                direct[t as usize][dim] += d[dim];
            }
        }

        // Log across 4 chunks in stream order, then replay.
        let bs = bucket_size(n);
        let mut scratch = PairScratch::new();
        let chunks = scratch.prepare(4);
        for (k, &(t, d)) in ups.iter().enumerate() {
            chunks[k * 4 / ups.len()].push_force(bs, t, d);
        }
        let mut serial = vec![[0.0f64; 3]; n];
        replay_forces(chunks, &mut serial, &ChunkExec::Serial);
        assert_eq!(serial, direct);

        let pool = SpinPool::new(4);
        let mut pooled = vec![[0.0f64; 3]; n];
        replay_forces(chunks, &mut pooled, &ChunkExec::Pool(&pool));
        assert_eq!(pooled, direct);
    }

    #[test]
    fn scalar_replay_and_ev_fold_match_serial() {
        let n = 57;
        let ups = updates(n);
        let mut direct = vec![0.0f64; n];
        let mut e_ref = 0.0;
        let mut v_ref = 0.0;
        for &(t, d) in &ups {
            direct[t as usize] += d[0];
            e_ref += d[1];
            v_ref += d[2];
        }
        let bs = bucket_size(n);
        let mut scratch = PairScratch::new();
        let chunks = scratch.prepare(3);
        for (k, &(t, d)) in ups.iter().enumerate() {
            let c = &mut chunks[k * 3 / ups.len()];
            c.push_scalar(bs, t, d[0]);
            c.push_ev(d[1], d[2]);
        }
        let pool = SpinPool::new(2);
        let mut replayed = vec![0.0f64; n];
        replay_scalars(chunks, &mut replayed, &ChunkExec::Pool(&pool));
        assert_eq!(replayed, direct);
        let (e, v) = fold_ev(chunks);
        assert_eq!(e.to_bits(), e_ref.to_bits());
        assert_eq!(v.to_bits(), v_ref.to_bits());
    }

    #[test]
    fn prepare_clears_previous_step() {
        let mut scratch = PairScratch::new();
        let chunks = scratch.prepare(2);
        chunks[0].push_ev(1.0, 2.0);
        chunks[1].push_force(bucket_size(8), 3, [1.0; 3]);
        let chunks = scratch.prepare(2);
        assert_eq!(fold_ev(chunks), (0.0, 0.0));
        let mut out = vec![[0.0f64; 3]; 8];
        replay_forces(chunks, &mut out, &ChunkExec::Serial);
        assert!(out.iter().all(|v| *v == [0.0; 3]));
    }

    /// Drive the same row-ordered update stream through (a) direct serial
    /// application and (b) a split log whose rows are partitioned by a
    /// pseudo-random interior mask and logged side-by-side, then merged.
    #[test]
    fn split_replay_matches_direct_application_bitwise() {
        let nrows = 700; // > 2 chunks of 256
        let ntotal = 900; // targets include a "ghost" range past nlocal
        let interior: Vec<bool> = (0..nrows)
            .map(|i| !(i * 2654435761usize).is_multiple_of(3))
            .collect();
        // Per row: a few scatter updates + one ev entry, serial row order.
        let mut s = 0x243f6a8885a308d3u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut stream: Vec<(u32, u32, [f64; 3], f64, f64)> = Vec::new();
        for i in 0..nrows {
            for _ in 0..3 {
                // Interior rows only hit local targets; boundary rows may
                // scatter into the ghost range (mirrors the pair kernels).
                let range = if interior[i] { nrows } else { ntotal };
                let t = (rnd() as usize % range) as u32;
                let v = (rnd() as f64).sin() * 1e3 + 1e-7 * i as f64;
                stream.push((i as u32, t, [v, -0.5 * v, 1e-6 * v], v * 0.25, -v));
            }
        }

        let mut direct = vec![[0.0f64; 3]; ntotal];
        let mut dscalar = vec![0.0f64; ntotal];
        let (mut e_ref, mut v_ref) = (0.0, 0.0);
        for &(_, t, d, e, v) in &stream {
            for dim in 0..3 {
                direct[t as usize][dim] += d[dim];
            }
            dscalar[t as usize] += d[0];
            e_ref += e;
            v_ref += v;
        }

        let mut scratch = SplitScratch::new();
        scratch.prepare(nrows);
        let bs = scratch.bs();
        // Log the two sides separately (as the partitioned passes do):
        // first every interior row in order, then every boundary row.
        for select in [true, false] {
            let logs = scratch.side_mut(select);
            for &(row, t, d, e, v) in &stream {
                if interior[row as usize] != select {
                    continue;
                }
                let log = &mut logs[row as usize / CHUNK_ROWS];
                log.push_force(bs, row, t, d);
                log.push_scalar(bs, row, t, d[0]);
                log.push_ev(row, e, v);
            }
        }
        // Each row pushed one ev entry per update; dedupe not needed —
        // the fold just replays the merged stream.
        for exec in [ChunkExec::Serial, ChunkExec::Pool(&SpinPool::new(4))] {
            let mut f = vec![[0.0f64; 3]; ntotal];
            replay_forces_split(&scratch, &mut f, &exec);
            assert_eq!(f, direct);
            let mut sc = vec![0.0f64; ntotal];
            replay_scalars_split(&scratch, &mut sc, &exec);
            assert_eq!(sc, dscalar);
        }
        let (e, v) = fold_ev_split(&scratch);
        assert_eq!(e.to_bits(), e_ref.to_bits());
        assert_eq!(v.to_bits(), v_ref.to_bits());
    }

    /// `prepare` must clear both sides, and an empty scratch replays as a
    /// no-op even over a non-empty output array.
    #[test]
    fn split_prepare_clears_both_sides() {
        let mut scratch = SplitScratch::new();
        scratch.prepare(300);
        let bs = scratch.bs();
        scratch.side_mut(true)[0].push_force(bs, 0, 1, [1.0; 3]);
        scratch.side_mut(false)[1].push_ev(256, 2.0, 3.0);
        scratch.prepare(300);
        let mut out = vec![[0.0f64; 3]; 300];
        replay_forces_split(&scratch, &mut out, &ChunkExec::Serial);
        assert!(out.iter().all(|v| *v == [0.0; 3]));
        assert_eq!(fold_ev_split(&scratch), (0.0, 0.0));
    }

    #[test]
    fn tiny_output_arrays_bucket_safely() {
        // ntotal < SCATTER_BUCKETS: bucket width clamps to 1.
        let mut scratch = PairScratch::new();
        let chunks = scratch.prepare(1);
        let bs = bucket_size(3);
        chunks[0].push_force(bs, 2, [1.0, 0.0, 0.0]);
        chunks[0].push_force(bs, 0, [0.5, 0.0, 0.0]);
        let mut out = vec![[0.0f64; 3]; 3];
        replay_forces(chunks, &mut out, &ChunkExec::Serial);
        assert_eq!(out[2][0], 1.0);
        assert_eq!(out[0][0], 0.5);
        // Zero-length output: nothing logged, replay is a no-op.
        let chunks = scratch.prepare(1);
        replay_forces(chunks, &mut [], &ChunkExec::Serial);
    }
}
