//! Fork-join execution: spawn threads per parallel region, join at the end.
//!
//! This is the "OpenMP-like" comparator of §3.3: correct, but every region
//! pays thread creation and join. The paper measures 5.8 us per region for
//! OpenMP against 1.1 us for the spin pool; the same ordering emerges when
//! timing [`fork_join`] against [`crate::SpinPool::run`] on any Linux
//! host ([`crate::measure_overheads`], printed by `tofumd-bench`'s
//! `overheads` command).

/// Run `f(tid)` on `threads` freshly spawned scoped threads (tid 0 runs on
/// the caller), joining before returning.
pub fn fork_join(threads: usize, f: &(dyn Fn(usize) + Sync)) {
    assert!(threads >= 1);
    if threads == 1 {
        f(0);
        return;
    }
    std::thread::scope(|s| {
        for tid in 1..threads {
            s.spawn(move || f(tid));
        }
        f(0);
    });
}

/// Chunked fork-join analogue of [`crate::SpinPool::run_chunked`].
pub fn fork_join_chunked(
    threads: usize,
    n: usize,
    f: &(dyn Fn(usize, std::ops::Range<usize>) + Sync),
) {
    fork_join(threads, &|tid| {
        let chunk = n.div_ceil(threads);
        let start = tid * chunk;
        let end = ((tid + 1) * chunk).min(n);
        if start < end {
            f(tid, start..end);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_tids_run_once() {
        let hits = [const { AtomicUsize::new(0) }; 6];
        fork_join(6, &|tid| {
            hits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let c = AtomicUsize::new(0);
        fork_join(1, &|tid| {
            assert_eq!(tid, 0);
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn chunked_partitions_exactly() {
        let n = 77;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        fork_join_chunked(4, n, &|_tid, range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn matches_pool_semantics() {
        // fork_join and SpinPool::run must produce identical work splits.
        let pool = crate::SpinPool::new(3);
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        fork_join_chunked(3, 100, &|_, r| {
            a.fetch_add(r.len(), Ordering::Relaxed);
        });
        pool.run_chunked(100, &|_, r| {
            b.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
    }
}
