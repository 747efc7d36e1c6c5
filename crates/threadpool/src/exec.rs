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
/// slices of [`ChunkExec::for_each_mut`] and [`GroupFanout::for_each`].
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced in `ChunkExec::for_each_mut`
// and `GroupFanout::for_each`, which hand each index to exactly one thread
// per region; moving the wrapper there moves exclusive access to `T: Send`
// items and nothing else.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` shares only the address; no two threads form
// references to the same item (same disjointness), so no `&T` is shared
// and `T: Send` suffices.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to item `i`. A method (rather than direct field use) so
    /// closures capture the `Sync` wrapper, not the raw pointer field.
    fn slot(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
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
                        let item = unsafe { &mut *ptr.slot(k) };
                        f(k, item);
                    }
                });
            }
        }
    }
}

/// A static partition of items `0..n` into ordered groups (the driver's
/// ranks by node) and the fan-out that hands each pool worker a
/// contiguous range of whole groups.
pub struct GroupFanout {
    /// Item ids grouped: `order[starts[g]..starts[g + 1]]` are group `g`'s
    /// items in ascending order. A permutation of `0..n` by construction.
    order: Vec<usize>,
    starts: Vec<usize>,
}

impl GroupFanout {
    /// Group item `i` into group `group_of[i]`; groups are numbered
    /// `0..=max`, and a group no item names is empty.
    #[must_use]
    pub fn new(group_of: &[usize]) -> Self {
        let mut order: Vec<usize> = (0..group_of.len()).collect();
        // Stable, so each group's items stay ascending.
        order.sort_by_key(|&i| group_of[i]);
        let ngroups = group_of.iter().map(|&g| g + 1).max().unwrap_or(0);
        let starts = (0..=ngroups)
            .map(|g| order.partition_point(|&i| group_of[i] < g))
            .collect();
        GroupFanout { order, starts }
    }

    /// Number of groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// Every item, group by group.
    #[must_use]
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Group `g`'s items, ascending.
    #[must_use]
    pub fn group(&self, g: usize) -> &[usize] {
        &self.order[self.starts[g]..self.starts[g + 1]]
    }

    /// Run `f(i, &mut a[i], &mut b[i])` for every item on `pool`: worker
    /// `tid` walks its contiguous range of groups in ascending order and
    /// visits each of their items. With one thread this is the plain
    /// serial loop over [`Self::order`], so the 1-thread and N-thread
    /// schedules are the same per-group instruction streams.
    pub fn for_each<A: Send, B: Send>(
        &self,
        pool: &SpinPool,
        a: &mut [A],
        b: &mut [B],
        f: &(dyn Fn(usize, &mut A, &mut B) + Sync),
    ) {
        assert_eq!(a.len(), self.order.len());
        assert_eq!(b.len(), self.order.len());
        let ngroups = self.groups();
        let chunk = ngroups.div_ceil(pool.threads());
        let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
        pool.run(&|tid| {
            for g in (tid * chunk)..((tid + 1) * chunk).min(ngroups) {
                for &i in self.group(g) {
                    // SAFETY: the group ranges are disjoint across tids and
                    // `order` is a permutation of `0..a.len()` (asserted
                    // equal to `b.len()`), so each element of `a`/`b` is
                    // referenced by exactly one thread for the duration of
                    // this region; `run` does not return until all workers
                    // are done, so the references end before the `&mut`
                    // borrows of `a` and `b` do.
                    let (ea, eb) = unsafe { (&mut *pa.slot(i), &mut *pb.slot(i)) };
                    f(i, ea, eb);
                }
            }
        });
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
    fn groups_partition_the_items_and_fan_out_once_each() {
        let group_of = [2, 0, 2, 1, 0, 2, 4];
        let fan = GroupFanout::new(&group_of);
        assert_eq!(fan.groups(), 5);
        assert_eq!(fan.order(), &[1, 4, 3, 0, 2, 5, 6]);
        assert!(fan.group(3).is_empty());
        for threads in [1, 2, 5, 8] {
            let pool = SpinPool::new(threads);
            let mut hits = vec![0u32; group_of.len()];
            let mut ids = vec![0usize; group_of.len()];
            fan.for_each(&pool, &mut hits, &mut ids, &|i, h, id| {
                *h += 1;
                *id = i;
            });
            assert!(hits.iter().all(|&h| h == 1), "threads={threads}");
            assert!(ids.iter().enumerate().all(|(i, &id)| i == id));
        }
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
