//! A persistent spin-wait thread pool (the paper's §3.3 design).
//!
//! Workers are created once and busy-wait on an epoch counter; dispatching
//! a parallel region is a single atomic store, and joining is a spin on a
//! completion counter. No parking, no condvars, no per-region thread
//! creation — this is what buys the 1.1 us vs 5.8 us startup/sync gap the
//! paper measures against OpenMP.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Type-erased pointer to the scoped task closure.
///
/// The closure reference is only dereferenced between the epoch bump and
/// the completion count reaching the worker count, and `run` does not
/// return until completion — so the erased lifetime never escapes.
#[derive(Clone, Copy)]
struct TaskPtr {
    /// The two halves of a fat `&dyn Fn(usize) + Sync` reference; read
    /// only via transmute in the worker loop.
    #[allow(dead_code)]
    data: *const (),
    #[allow(dead_code)]
    vtable: *const (),
}

// SAFETY: the two words are the halves of a `&(dyn Fn(usize) + Sync)`; a
// shared reference to a `Sync` closure may be sent to another thread.
unsafe impl Send for TaskPtr {}
// SAFETY: `TaskPtr` is `Copy` plain data with no interior mutability, so
// sharing `&TaskPtr` exposes nothing but reads of those two words.
unsafe impl Sync for TaskPtr {}

struct Shared {
    /// Incremented to publish a new parallel region.
    epoch: AtomicUsize,
    /// Number of workers that finished the current region.
    done: AtomicUsize,
    /// The erased `&dyn Fn(usize)` for the current region.
    task: SpinSlot,
    /// Worker count (excluding the caller).
    workers: usize,
    shutdown: AtomicBool,
}

/// A task slot written only while workers are quiescent.
struct SpinSlot {
    ptr: std::cell::UnsafeCell<TaskPtr>,
}

// SAFETY: the cell is written only by `SpinPool::run`, before its epoch
// bump and while every worker spins on the epoch (none is inside a
// region), and read only by workers after they observe that bump with
// `Acquire`; the `Release`/`Acquire` pair on `epoch` orders the write
// before every read, and `run` does not write again until `done` shows
// every worker has finished reading. No access is concurrent with a write.
unsafe impl Sync for SpinSlot {}

/// The spin-wait pool. The calling thread participates in every region, so
/// a pool with `threads = n` runs regions at parallelism `n` with `n - 1`
/// spawned workers.
pub struct SpinPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl SpinPool {
    /// Create a pool that runs regions with `threads`-way parallelism
    /// (including the caller). `threads` must be at least 1.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one thread");
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            task: SpinSlot {
                ptr: std::cell::UnsafeCell::new(TaskPtr {
                    data: std::ptr::null(),
                    vtable: std::ptr::null(),
                }),
            },
            workers,
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for wid in 1..threads {
            let sh = shared.clone();
            handles.push(std::thread::spawn(move || worker_loop(&sh, wid)));
        }
        SpinPool {
            shared,
            handles,
            threads,
        }
    }

    /// Parallelism of the pool (caller + workers).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(tid)` on every thread of the pool (tid in `0..threads`),
    /// the caller executing tid 0. Returns when all threads finished.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.shared.workers == 0 {
            f(0);
            return;
        }
        // SAFETY: a `&dyn` reference is two pointer words, the layout of
        // `TaskPtr`. The transmute erases the borrow's lifetime: workers
        // dereference the copy only between the epoch bump below and their
        // `done` increment, and this call does not return (so `f` stays
        // borrowed and alive) until `done` reaches the worker count.
        let erased: TaskPtr = unsafe { std::mem::transmute(f) };
        // SAFETY: workers are quiescent between regions; the slot is only
        // written here and only read after the epoch bump below.
        unsafe {
            *self.shared.task.ptr.get() = erased;
        }
        self.shared.done.store(0, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        f(0);
        let mut spins = 0u32;
        while self.shared.done.load(Ordering::Acquire) < self.shared.workers {
            spin_or_yield(&mut spins);
        }
    }

    /// Split `0..n` into contiguous chunks, one per thread, and run `f`
    /// on each non-empty chunk: `f(tid, start..end)`.
    pub fn run_chunked(&self, n: usize, f: &(dyn Fn(usize, std::ops::Range<usize>) + Sync)) {
        let t = self.threads;
        self.run(&|tid| {
            let chunk = n.div_ceil(t);
            let start = tid * chunk;
            let end = ((tid + 1) * chunk).min(n);
            if start < end {
                f(tid, start..end);
            }
        });
    }
}

impl Drop for SpinPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Wake spinners: bump the epoch so they observe shutdown.
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Busy-wait hint that degrades to `yield_now` when a wait runs long.
///
/// On dedicated cores (the paper's deployment: one comm thread per core)
/// the yield path never triggers and the wakeup latency is the pure
/// spin-wait cost. On oversubscribed hosts the yield keeps the pool
/// functional instead of burning whole scheduler quanta.
#[inline]
fn spin_or_yield(spins: &mut u32) {
    if *spins < 1_000 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen = 0usize;
    loop {
        // Spin until a new epoch is published.
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spin_or_yield(&mut spins);
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the `Acquire` load that saw the new epoch happens-after
        // `run`'s slot write (its `Release` bump), so the slot holds the
        // words of a live `&(dyn Fn(usize) + Sync)`; `run` keeps that
        // closure borrowed until this worker's `done` increment below.
        let f: &(dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(*shared.task.ptr.get()) };
        f(tid);
        shared.done.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_threads_participate() {
        let pool = SpinPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(&|tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn many_regions_back_to_back() {
        let pool = SpinPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..1000 {
            pool.run(&|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 3000);
    }

    #[test]
    fn borrows_local_data() {
        let pool = SpinPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let partial = [const { AtomicU64::new(0) }; 4];
        pool.run_chunked(input.len(), &|tid, range| {
            let s: u64 = input[range].iter().sum();
            partial[tid].fetch_add(s, Ordering::Relaxed);
        });
        let sum: u64 = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(sum, 1000 * 999 / 2);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = SpinPool::new(1);
        let hit = AtomicUsize::new(0);
        // With one thread there are no workers; `run` must not hang.
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunking_covers_everything_once() {
        let pool = SpinPool::new(5);
        let n = 103; // deliberately not divisible
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run_chunked(n, &|_tid, range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn drop_terminates_workers() {
        let pool = SpinPool::new(4);
        pool.run(&|_| {});
        drop(pool); // must not hang
    }
}
