//! Calibration-sensitivity analysis.
//!
//! The reproduction's conclusions should not hinge on a lucky constant.
//! This module sweeps the calibrated parameters the paper's own
//! measurements pinned down — MPI per-message cost, pool/OpenMP region
//! overheads, uTofu posting cost — and reports how the headline
//! strong-scaling speedup responds. The *directions* are the science:
//! a heavier MPI stack or a cheaper pool can only help the optimization,
//! while a heavier uTofu stack erodes it.

use crate::analytic::{opt_step_time, ref_step_time, AnalyticWorkload};
use crate::machine::Machine;
use tofumd_tofu::NetParams;

/// Which calibrated constant a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// Sender-side MPI per-message CPU cost.
    MpiPerMessage,
    /// uTofu descriptor-posting CPU cost.
    UtofuPerPut,
    /// Spin-pool parallel-region overhead.
    PoolRegion,
    /// OpenMP parallel-region overhead.
    OmpRegion,
}

impl Knob {
    /// All sweepable knobs.
    pub const ALL: [Knob; 4] = [
        Knob::MpiPerMessage,
        Knob::UtofuPerPut,
        Knob::PoolRegion,
        Knob::OmpRegion,
    ];

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Knob::MpiPerMessage => "MPI per-message CPU",
            Knob::UtofuPerPut => "uTofu per-put CPU",
            Knob::PoolRegion => "pool region overhead",
            Knob::OmpRegion => "OpenMP region overhead",
        }
    }

    /// This knob's constant in `net`.
    fn field(self, net: &mut NetParams) -> &mut f64 {
        match self {
            Knob::MpiPerMessage => &mut net.cpu_per_put_mpi,
            Knob::UtofuPerPut => &mut net.cpu_per_put_utofu,
            Knob::PoolRegion => &mut net.pool_region_overhead,
            Knob::OmpRegion => &mut net.omp_region_overhead,
        }
    }

    /// This knob's value in `m`.
    #[must_use]
    pub fn default_value(self, m: &Machine) -> f64 {
        *self.field(&mut { m.net })
    }

    /// A copy of `m` with this knob set to `value`.
    #[must_use]
    pub fn apply(self, m: &Machine, value: f64) -> Machine {
        let mut q = *m;
        *self.field(&mut q.net) = value;
        q
    }
}

/// Strong-scaling speedup (ref/opt) of the LJ last point on `m`.
#[must_use]
pub fn headline_speedup(m: &Machine) -> f64 {
    // 4,194,304 atoms over 147,456 ranks: the paper's last point.
    let w = AnalyticWorkload::lj(4_194_304.0 / 147_456.0);
    let r = ref_step_time(&w, 147_456.0, m).total();
    let o = opt_step_time(&w, 147_456.0, m).total();
    r / o
}

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Knob value (seconds).
    pub value: f64,
    /// Resulting headline speedup.
    pub speedup: f64,
}

/// Sweep a knob over `factors` x its value in `base`, every other
/// constant held at `base`'s.
#[must_use]
pub fn sweep(knob: Knob, factors: &[f64], base: &Machine) -> Vec<Sample> {
    let v0 = knob.default_value(base);
    factors
        .iter()
        .map(|&f| Sample {
            value: v0 * f,
            speedup: headline_speedup(&knob.apply(base, v0 * f)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups(knob: Knob) -> Vec<f64> {
        sweep(knob, &[0.5, 1.0, 2.0], &Machine::fugaku())
            .into_iter()
            .map(|s| s.speedup)
            .collect()
    }

    #[test]
    fn baseline_speedup_is_in_the_paper_band() {
        let s = headline_speedup(&Machine::fugaku());
        assert!((1.8..4.5).contains(&s), "headline speedup {s}");
    }

    #[test]
    fn sweep_honours_the_machine_it_is_given() {
        let fugaku = Machine::fugaku();
        let mut heavy_mpi = fugaku;
        heavy_mpi.net.cpu_per_put_mpi *= 2.0;
        for m in [fugaku, heavy_mpi] {
            let s = headline_speedup(&m);
            for knob in Knob::ALL {
                let got = sweep(knob, &[1.0], &m)[0].speedup;
                assert_eq!(got.to_bits(), s.to_bits(), "{}", knob.name());
            }
        }
        assert_ne!(headline_speedup(&heavy_mpi), headline_speedup(&fugaku));
    }

    #[test]
    fn heavier_mpi_stack_helps_the_optimization() {
        let s = speedups(Knob::MpiPerMessage);
        assert!(s[0] < s[1] && s[1] < s[2], "monotone in MPI cost: {s:?}");
    }

    #[test]
    fn heavier_utofu_stack_erodes_the_optimization() {
        let s = speedups(Knob::UtofuPerPut);
        assert!(s[0] > s[1] && s[1] > s[2], "monotone in uTofu cost: {s:?}");
    }

    #[test]
    fn cheaper_pool_helps_and_cheaper_openmp_hurts() {
        let pool = speedups(Knob::PoolRegion);
        assert!(pool[0] > pool[2], "cheaper pool -> larger speedup");
        let omp = speedups(Knob::OmpRegion);
        assert!(omp[0] < omp[2], "cheaper OpenMP -> smaller speedup");
    }

    #[test]
    fn conclusion_is_robust_to_2x_miscalibration() {
        // Even with every knob individually off by 2x in the unfavourable
        // direction, the optimization still wins clearly.
        let base = Machine::fugaku();
        for knob in Knob::ALL {
            let worst_factor = match knob {
                Knob::MpiPerMessage | Knob::OmpRegion => 0.5, // cheaper baseline
                Knob::UtofuPerPut | Knob::PoolRegion => 2.0,  // costlier opt
            };
            let m = knob.apply(&base, knob.default_value(&base) * worst_factor);
            let s = headline_speedup(&m);
            assert!(
                s > 1.3,
                "{}: speedup {s} collapses under 2x miscalibration",
                knob.name()
            );
        }
    }
}
