//! Deterministic scatter passes: one row body, two places to write.
//!
//! The force and density passes accumulate with floating-point `+=` in one
//! specific order — rows ascending, pairs in neighbor order, the row's own
//! share at row end — and this codebase promises those bits at any
//! `--threads`. Each pass therefore has ONE blocked row body that writes
//! through a [`Sink`], and the executor a rank is handed picks the sink:
//!
//! * **[`Direct`]** — a rank visited by one worker ([`ChunkExec::Serial`]:
//!   every run with `threads ≤ nodes`) walks its rows ascending and adds
//!   straight into `f` / `rho` and a running energy/virial. That *is* the
//!   serial oracle's order, so there is nothing to reorder and nothing is
//!   logged.
//! * **[`RowLog`]** — a rank several workers share ([`ChunkExec::Pool`]:
//!   `threads > nodes`) splits its rows into fixed-size chunks that run
//!   concurrently. Per-thread partial sums would change the addition
//!   order, so a chunk *logs* the updates its rows would perform and the
//!   logs are replayed afterwards: scatter entries `(target, Δ)` are
//!   bucketed by target-index range — buckets own disjoint slices of the
//!   output and replay in parallel, the chunks of one bucket in ascending
//!   order, so every element receives its updates in exactly the serial
//!   sequence — and energy/virial are folded on one thread in chunk, row,
//!   pair order. IEEE-754 addition is deterministic (just not
//!   associative): same sequence, same bits.
//!
//! The row bodies share one inner-loop shape (DESIGN.md §16): per
//! `ROW_BLOCK`-wide slab of a neighbor row, `Slab::filter` compacts the
//! in-range pairs without a branch, the potential runs a dense lane loop
//! over those only, and the pairs are handed to the sink one by one. LJ
//! and both EAM passes call the same filter.
//!
//! No atomics anywhere: atomic float accumulation would make results
//! depend on thread interleaving, which is exactly the nondeterminism this
//! design exists to rule out. The chunk size and bucket count affect only
//! wall-clock, never results.

use crate::potential::PairEnergyVirial;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Where a row body writes what its pairs contribute. Both implementations
/// see the same calls in the same order — scatters in neighbor order, the
/// row's own share last, energy/virial a slab at a time.
pub(crate) trait Sink {
    /// `f[target] += delta`.
    fn add_force(&mut self, target: u32, delta: [f64; 3]);

    /// `rho[target] += delta`.
    fn add_scalar(&mut self, target: u32, delta: f64);

    /// A batch of pair energy/virial contributions in iteration order.
    fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, evs: I);
}

/// The sink of a rank one worker owns: the output array itself plus the
/// running energy/virial. Rows are fed ascending, which is the serial
/// oracle's addition order element by element.
pub(crate) struct Direct<'a> {
    f: &'a mut [[f64; 3]],
    rho: &'a mut [f64],
    ev: PairEnergyVirial,
}

impl<'a> Direct<'a> {
    /// Sink of a force pass over `f`.
    pub fn forces(f: &'a mut [[f64; 3]]) -> Self {
        Direct {
            f,
            rho: &mut [],
            ev: PairEnergyVirial::default(),
        }
    }

    /// Sink of a density pass over `rho`.
    pub fn scalars(rho: &'a mut [f64]) -> Self {
        Direct {
            f: &mut [],
            rho,
            ev: PairEnergyVirial::default(),
        }
    }

    /// Energy/virial accumulated so far.
    pub fn ev(&self) -> PairEnergyVirial {
        self.ev
    }
}

impl Sink for Direct<'_> {
    #[inline]
    fn add_force(&mut self, target: u32, delta: [f64; 3]) {
        let o = &mut self.f[target as usize];
        o[0] += delta[0];
        o[1] += delta[1];
        o[2] += delta[2];
    }

    #[inline]
    fn add_scalar(&mut self, target: u32, delta: f64) {
        self.rho[target as usize] += delta;
    }

    #[inline]
    fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, evs: I) {
        for (de, dv) in evs {
            self.ev.energy += de;
            self.ev.virial += dv;
        }
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

/// One row chunk's logged updates: scatter entries `(target, delta)`
/// bucketed by target range (32 B per force entry, 16 B per density
/// entry) plus the per-pair energy/virial stream (16 B). Rows are logged
/// ascending, so each stream is already in serial order.
#[derive(Debug, Default)]
pub(crate) struct RowLog {
    shift: u32,
    vec_buckets: Vec<Vec<(u32, [f64; 3])>>,
    scalar_buckets: Vec<Vec<(u32, f64)>>,
    ev: Vec<(f64, f64)>,
}

impl RowLog {
    /// Clear all logs, keeping their capacity for the next pass, with
    /// `nbuckets` buckets of `1 << shift` targets each.
    fn reset(&mut self, shift: u32, nbuckets: usize) {
        self.shift = shift;
        if self.vec_buckets.len() < nbuckets {
            self.vec_buckets.resize_with(nbuckets, Vec::new);
            self.scalar_buckets.resize_with(nbuckets, Vec::new);
        }
        for b in &mut self.vec_buckets {
            b.clear();
        }
        for b in &mut self.scalar_buckets {
            b.clear();
        }
        self.ev.clear();
    }
}

impl Sink for RowLog {
    #[inline]
    fn add_force(&mut self, target: u32, delta: [f64; 3]) {
        self.vec_buckets[(target >> self.shift) as usize].push((target, delta));
    }

    #[inline]
    fn add_scalar(&mut self, target: u32, delta: f64) {
        self.scalar_buckets[(target >> self.shift) as usize].push((target, delta));
    }

    /// One reservation for the whole batch instead of a capacity check per
    /// pair — the row bodies feed a slab at a time through this.
    #[inline]
    fn extend_ev<I: IntoIterator<Item = (f64, f64)>>(&mut self, evs: I) {
        self.ev.extend(evs);
    }
}

/// The scatter log of a rank that several workers share: one [`RowLog`]
/// per row chunk, retained across passes and ranks so steady-state runs
/// don't allocate. A rank one worker owns never touches it.
#[derive(Debug, Default)]
pub struct PairScratch {
    bs: usize,
    nchunks: usize,
    logs: Vec<RowLog>,
}

impl PairScratch {
    /// Empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        PairScratch::default()
    }

    /// Log a pass over `nlocal` rows scattering into `ntotal` targets:
    /// clear the logs (capacity retained), then run `rows(log, range)`
    /// once per row chunk — concurrently under a pool — with the chunk's
    /// log and row range; it feeds the rows through the log in ascending
    /// order. The bucket width only ever grows, so ranks of different
    /// sizes share one bucketing per scratch and every bucket reuses its
    /// capacity from pass to pass.
    pub(crate) fn log(
        &mut self,
        nlocal: usize,
        ntotal: usize,
        exec: &ChunkExec<'_>,
        rows: &(dyn Fn(&mut RowLog, std::ops::Range<usize>) + Sync),
    ) {
        self.bs = self.bs.max(bucket_size(ntotal));
        self.nchunks = nlocal.div_ceil(CHUNK_ROWS);
        if self.logs.len() < self.nchunks {
            self.logs.resize_with(self.nchunks, RowLog::default);
        }
        let (shift, nbuckets) = (self.bs.trailing_zeros(), ntotal.div_ceil(self.bs));
        exec.floored(nlocal)
            .for_each_mut(&mut self.logs[..self.nchunks], &|c, log| {
                log.reset(shift, nbuckets);
                rows(log, c * CHUNK_ROWS..((c + 1) * CHUNK_ROWS).min(nlocal));
            });
    }

    /// The logs of the last pass, in chunk order.
    fn chunks(&self) -> &[RowLog] {
        &self.logs[..self.nchunks]
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

/// Replay one scatter stream (`buckets` picks it out of a log) into `out`.
/// Buckets run in parallel (disjoint target ranges); within each bucket
/// the chunks replay in ascending order, so every element receives its
/// updates in exactly the serial kernel's sequence.
fn replay<T: Copy + Sync, O: Send>(
    scratch: &PairScratch,
    out: &mut [O],
    exec: &ChunkExec<'_>,
    buckets: impl Fn(&RowLog) -> &Vec<Vec<(u32, T)>> + Sync,
    add: impl Fn(&mut O, T) + Sync,
) {
    let exec = &exec.floored(out.len());
    let mut slices = bucket_slices(out, scratch.bs);
    exec.for_each_mut(&mut slices, &|b, (base, slice)| {
        for log in scratch.chunks() {
            for &(t, d) in buckets(log).get(b).into_iter().flatten() {
                add(&mut slice[t as usize - *base], d);
            }
        }
    });
}

/// Replay a logged density pass into `out` (see [`replay`]).
pub(crate) fn replay_scalars(scratch: &PairScratch, out: &mut [f64], exec: &ChunkExec<'_>) {
    replay(
        scratch,
        out,
        exec,
        |log| &log.scalar_buckets,
        |o, d: f64| *o += d,
    );
}

/// Finish a logged force pass: replay the scatters into `f` (see
/// [`replay`]) and fold the energy/virial streams on one thread, chunks in
/// ascending order — the serial kernel's exact addition sequence.
pub(crate) fn replay_forces(
    scratch: &PairScratch,
    f: &mut [[f64; 3]],
    exec: &ChunkExec<'_>,
) -> PairEnergyVirial {
    replay(
        scratch,
        f,
        exec,
        |log| &log.vec_buckets,
        |o, d: [f64; 3]| {
            o[0] += d[0];
            o[1] += d[1];
            o[2] += d[2];
        },
    );
    let mut ev = PairEnergyVirial::default();
    for &(de, dv) in scratch.chunks().iter().flat_map(|log| &log.ev) {
        ev.energy += de;
        ev.virial += dv;
    }
    ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_threadpool::SpinPool;

    /// Updates per synthetic row.
    const PER_ROW: usize = 3;

    /// One update: target, force delta, energy, virial.
    type Update = (u32, [f64; 3], f64, f64);

    /// A row-ordered synthetic update stream, [`PER_ROW`] updates per row,
    /// with awkward magnitudes so any reordering of a target's updates
    /// changes the bits. Targets reach into the "ghost" range
    /// `nrows..ntotal` (mirrors the pair kernels).
    fn stream(nrows: usize, ntotal: usize) -> Vec<Update> {
        let mut s = 0x243f6a8885a308d3u64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut out = Vec::new();
        for i in 0..nrows {
            for _ in 0..PER_ROW {
                let t = (rnd() as usize % ntotal) as u32;
                let v = (rnd() as f64).sin() * 1e3 + 1e-7 * i as f64;
                out.push((t, [v, -0.5 * v, 1e-6 * v], v * 0.25, -v));
            }
        }
        out
    }

    /// Log `rows` of the stream, as a row body would.
    fn feed(log: &mut RowLog, stream: &[Update], rows: std::ops::Range<usize>) {
        for &(t, d, e, v) in &stream[PER_ROW * rows.start..PER_ROW * rows.end] {
            log.add_force(t, d);
            log.add_scalar(t, d[0]);
            log.extend_ev([(e, v)]);
        }
    }

    /// Drive the same row-ordered update stream through (a) a hand-written
    /// serial application, (b) the direct sinks and (c) the log, serial
    /// and pooled, on a fresh scratch and on one a larger pass has used —
    /// then replay and fold.
    #[test]
    fn replay_matches_direct_application_bitwise() {
        let nrows = 700; // > 2 chunks of 256
        let ntotal = 900; // targets include a "ghost" range past nlocal
        let stream = stream(nrows, ntotal);
        let mut want = vec![[0.0f64; 3]; ntotal];
        let mut wscalar = vec![0.0f64; ntotal];
        let (mut e_ref, mut v_ref) = (0.0, 0.0);
        for &(t, d, e, v) in &stream {
            for dim in 0..3 {
                want[t as usize][dim] += d[dim];
            }
            wscalar[t as usize] += d[0];
            e_ref += e;
            v_ref += v;
        }
        let same_ev = |ev: PairEnergyVirial| {
            assert_eq!(ev.energy.to_bits(), e_ref.to_bits());
            assert_eq!(ev.virial.to_bits(), v_ref.to_bits());
        };

        let mut f = vec![[0.0f64; 3]; ntotal];
        let mut sink = Direct::forces(&mut f);
        // The force sink has no density array; feed the two separately.
        for &(t, d, e, v) in &stream {
            sink.add_force(t, d);
            sink.extend_ev([(e, v)]);
        }
        same_ev(sink.ev());
        assert_eq!(f, want);
        let mut sc = vec![0.0f64; ntotal];
        let mut sink = Direct::scalars(&mut sc);
        for &(t, d, ..) in &stream {
            sink.add_scalar(t, d[0]);
        }
        assert_eq!(sc, wscalar);

        let pool = SpinPool::new(4);
        for exec in [ChunkExec::Serial, ChunkExec::Pool(&pool)] {
            for used in [false, true] {
                let mut scratch = PairScratch::new();
                if used {
                    // A wider bucketing and more chunks than this pass needs.
                    scratch.log(4 * nrows, 4 * ntotal, &exec, &|log, rows| {
                        log.add_force(rows.start as u32, [1.0; 3]);
                        log.extend_ev([(1.0, 1.0)]);
                    });
                }
                scratch.log(nrows, ntotal, &exec, &|log, rows| feed(log, &stream, rows));
                let mut f = vec![[0.0f64; 3]; ntotal];
                same_ev(replay_forces(&scratch, &mut f, &exec));
                assert_eq!(f, want);
                let mut sc = vec![0.0f64; ntotal];
                replay_scalars(&scratch, &mut sc, &exec);
                assert_eq!(sc, wscalar);
            }
        }
    }

    /// Preparing a pass must clear both sides of the log — the scatter
    /// buckets and the energy/virial stream — and an empty log replays as
    /// a no-op even over a non-empty output array.
    #[test]
    fn prepare_clears_both_sides() {
        let stream = stream(300, 300);
        let mut scratch = PairScratch::new();
        scratch.log(300, 300, &ChunkExec::Serial, &|log, rows| {
            feed(log, &stream, rows);
        });
        scratch.log(300, 300, &ChunkExec::Serial, &|_, _| {});
        let mut out = vec![[0.0f64; 3]; 300];
        let ev = replay_forces(&scratch, &mut out, &ChunkExec::Serial);
        assert!(out.iter().all(|v| *v == [0.0; 3]));
        assert_eq!(ev, PairEnergyVirial::default());
        let mut sc = vec![0.0f64; 300];
        replay_scalars(&scratch, &mut sc, &ChunkExec::Serial);
        assert!(sc.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tiny_output_arrays_bucket_safely() {
        // ntotal < SCATTER_BUCKETS: bucket width clamps to 1.
        let mut scratch = PairScratch::new();
        scratch.log(1, 3, &ChunkExec::Serial, &|log, _| {
            log.add_force(2, [1.0, 0.0, 0.0]);
            log.add_force(0, [0.5, 0.0, 0.0]);
        });
        let mut out = vec![[0.0f64; 3]; 3];
        replay_forces(&scratch, &mut out, &ChunkExec::Serial);
        assert_eq!(out[2][0], 1.0);
        assert_eq!(out[0][0], 0.5);
        // Zero-length output: nothing logged, replay is a no-op.
        scratch.log(0, 0, &ChunkExec::Serial, &|_, _| {});
        replay_forces(&scratch, &mut [], &ChunkExec::Serial);
    }
}
