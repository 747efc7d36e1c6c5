//! Intra-rank chunk dispatch over the spin pool.
//!
//! The MD kernels split a rank's rows into fixed-size chunks whose results
//! are combined in *chunk order*, so the outcome is independent of how the
//! chunks are distributed over threads. [`ChunkExec`] is the dispatch
//! handle the kernels receive: either a serial loop (when the caller's
//! parallelism budget is already spent at a coarser level) or the
//! persistent [`SpinPool`]. Both execute the same closures on the same
//! chunk ids — only wall-clock differs, never results.

use crate::SpinPool;

/// How a kernel's per-chunk closures run. The pool variant must never be
/// used from inside another pool region: the spin pool is not reentrant.
#[derive(Clone, Copy)]
pub enum ChunkExec<'a> {
    /// Run chunks one after another on the calling thread.
    Serial,
    /// Fan chunks out over the persistent spin pool.
    Pool(&'a SpinPool),
}

/// Raw-pointer wrapper so the pool's scoped closures can index into the
/// item slice.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced in `for_each_mut`, where
// `run_chunked` hands each index to exactly one thread; moving the wrapper
// there moves exclusive access to `T: Send` items and nothing else.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` shares only the address; no two threads form
// references to the same item (same disjointness), so no `&T` is shared
// and `T: Send` suffices.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    // Accessor (rather than direct field use) so closures capture the
    // `Sync` wrapper, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

impl<'a> ChunkExec<'a> {
    /// Minimum work items (atoms/rows) each pool thread must own before
    /// the fan-out pays for its synchronization; below this the dispatch
    /// latency exceeds the chunk compute time on small systems.
    pub const MIN_WORK_PER_THREAD: usize = 1024;

    /// Parallelism of this executor (1 for the serial variant).
    #[must_use]
    pub fn threads(&self) -> usize {
        match self {
            ChunkExec::Serial => 1,
            ChunkExec::Pool(p) => p.threads(),
        }
    }

    /// The executor a kernel touching `work` items should actually use:
    /// the pool engages only when every worker would own at least
    /// [`Self::MIN_WORK_PER_THREAD`] items, otherwise the serial loop
    /// wins. Serial and pooled execution combine per-chunk results in
    /// the same order, so the floor moves wall-clock only — results stay
    /// bit-identical at any thread count.
    #[must_use]
    pub fn floored(&self, work: usize) -> ChunkExec<'a> {
        match *self {
            ChunkExec::Serial => ChunkExec::Serial,
            ChunkExec::Pool(p) => {
                if work < p.threads().saturating_mul(Self::MIN_WORK_PER_THREAD) {
                    ChunkExec::Serial
                } else {
                    ChunkExec::Pool(p)
                }
            }
        }
    }

    /// Run `f(k, &mut items[k])` for every `k`, each item visited exactly
    /// once. Items must not depend on each other: the serial variant runs
    /// them in index order, the pool variant in contiguous per-thread
    /// blocks — callers get determinism by combining per-item results in
    /// index order afterwards, never from the execution order here.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], f: &(dyn Fn(usize, &mut T) + Sync)) {
        match self {
            ChunkExec::Serial => {
                for (k, item) in items.iter_mut().enumerate() {
                    f(k, item);
                }
            }
            ChunkExec::Pool(pool) => {
                let ptr = SendPtr(items.as_mut_ptr());
                pool.run_chunked(items.len(), &|_tid, range| {
                    for k in range {
                        // SAFETY: `run_chunked` ranges are disjoint, lie
                        // within `0..items.len()` and cover each index
                        // exactly once, so this is the only reference to
                        // item `k`; `run` joins all workers before
                        // returning, so it ends before the `&mut items`
                        // borrow does.
                        let item = unsafe { &mut *ptr.get().add(k) };
                        f(k, item);
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_visits_in_order() {
        let mut seen = vec![0usize; 7];
        ChunkExec::Serial.for_each_mut(&mut seen, &|k, v| *v = k + 1);
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(ChunkExec::Serial.threads(), 1);
    }

    #[test]
    fn pool_visits_every_item_once() {
        let pool = SpinPool::new(4);
        let exec = ChunkExec::Pool(&pool);
        assert_eq!(exec.threads(), 4);
        let mut hits = vec![0u32; 103];
        exec.for_each_mut(&mut hits, &|_k, v| *v += 1);
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn floor_falls_back_to_serial_on_small_work() {
        let pool = SpinPool::new(8);
        let exec = ChunkExec::Pool(&pool);
        // 2048 atoms over 8 threads is below the floor: serial wins.
        assert_eq!(exec.floored(2048).threads(), 1);
        // A large system keeps the pool.
        assert_eq!(exec.floored(16384).threads(), 8);
        // Serial stays serial regardless.
        assert_eq!(ChunkExec::Serial.floored(1 << 20).threads(), 1);
    }

    #[test]
    fn pool_and_serial_produce_identical_results() {
        let pool = SpinPool::new(3);
        let mut a = vec![0.0f64; 50];
        let mut b = vec![0.0f64; 50];
        let work = |k: usize, v: &mut f64| *v = (k as f64).sin() * 3.5;
        ChunkExec::Serial.for_each_mut(&mut a, &work);
        ChunkExec::Pool(&pool).for_each_mut(&mut b, &work);
        assert_eq!(a, b);
    }
}
