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
    fn matches_pool_semantics() {
        // The overhead experiment times fork_join against SpinPool::run, so
        // both must run the region once on every tid.
        let pool = crate::SpinPool::new(3);
        let a = [const { AtomicUsize::new(0) }; 3];
        let b = [const { AtomicUsize::new(0) }; 3];
        fork_join(3, &|tid| {
            a[tid].fetch_add(1, Ordering::Relaxed);
        });
        pool.run(&|tid| {
            b[tid].fetch_add(1, Ordering::Relaxed);
        });
        let hits = |h: &[AtomicUsize; 3]| h.each_ref().map(|c| c.load(Ordering::Relaxed));
        assert_eq!(hits(&a), [1; 3]);
        assert_eq!(hits(&b), [1; 3]);
    }
}
