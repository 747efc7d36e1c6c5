//! Measurement of per-region threading overhead.
//!
//! Reproduces the §3.3 experiment that timed thread startup and
//! synchronization of OpenMP against a thread pool; the paper's two
//! readings are the model's `NetParams::omp_region_overhead` and
//! `pool_region_overhead`. The absolute numbers depend on the host; the
//! *ordering* (fork-join well above the spin pool) is the reproducible
//! claim.

use crate::{fork_join, SpinPool};
use std::time::Instant;

/// Measured per-region overheads, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Spin-pool dispatch+join cost per empty region.
    pub pool: f64,
    /// Fork-join (spawn+join) cost per empty region.
    pub fork_join: f64,
    /// Threads used.
    pub threads: usize,
    /// Regions timed.
    pub iterations: usize,
}

impl OverheadReport {
    /// fork_join / pool overhead ratio (the paper's is
    /// `NetParams::omp_region_overhead / pool_region_overhead`).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.fork_join / self.pool.max(1e-12)
    }
}

/// Time empty parallel regions through both mechanisms.
///
/// `iterations` regions are timed for the pool; fork-join gets
/// `iterations / 10` (it is much slower and the measurement converges
/// quickly).
#[must_use]
pub fn measure_overheads(threads: usize, iterations: usize) -> OverheadReport {
    assert!(threads >= 1 && iterations >= 10);
    let pool = SpinPool::new(threads);
    // Warm up: first dispatches touch cold caches and page in stacks.
    for _ in 0..100 {
        pool.run(&|_| {});
    }
    let t0 = Instant::now();
    for _ in 0..iterations {
        pool.run(&|_| {});
    }
    let pool_time = t0.elapsed().as_secs_f64() / iterations as f64;

    let fj_iters = (iterations / 10).max(5);
    fork_join(threads, &|_| {}); // warm-up spawn path
    let t1 = Instant::now();
    for _ in 0..fj_iters {
        fork_join(threads, &|_| {});
    }
    let fj_time = t1.elapsed().as_secs_f64() / fj_iters as f64;

    OverheadReport {
        pool: pool_time,
        fork_join: fj_time,
        threads,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §3.3 ordering (fork-join well above the spin pool) and the
    /// microsecond magnitudes are host wall-clock facts — `overheads`
    /// (tofumd-bench) reports them; a test can only hold the measurement
    /// itself to being well-formed.
    #[test]
    fn overheads_are_finite_and_positive() {
        for (threads, iterations) in [(4, 200), (2, 100)] {
            let r = measure_overheads(threads, iterations);
            assert!(r.pool.is_finite() && r.pool > 0.0, "pool {}", r.pool);
            assert!(
                r.fork_join.is_finite() && r.fork_join > 0.0,
                "fork-join {}",
                r.fork_join
            );
            assert!(r.ratio().is_finite() && r.ratio() > 0.0);
            assert_eq!((r.threads, r.iterations), (threads, iterations));
        }
    }
}
