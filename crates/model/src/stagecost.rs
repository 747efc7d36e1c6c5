//! Calibrated per-stage compute-cost model (the non-communication side of
//! the Table 3 breakdown).
//!
//! Communication time comes from the simulated fabric; the remaining
//! stages — Pair, Neigh, Modify, Other — are CPU work whose absolute
//! values on A64FX we cannot measure. The [`StageCosts`] of
//! [`Machine::fugaku`](crate::Machine::fugaku) are calibrated so the
//! *shape* of the paper's results holds (Table 3 stage shares, Fig. 12's
//! step-by-step ordering, the 43 %/57 % pair-stage reduction from the
//! thread pool); each field notes its calibration anchor. See
//! EXPERIMENTS.md for the calibration narrative.
//!
//! The module also holds the ledger's types: [`Stage`], the bucket a charge
//! lands in; [`StageTimes`], a rank's time by bucket; and
//! [`StageBreakdown`], the Table 3 row both the simulated cluster and the
//! analytic model report.

/// The bucket a virtual-time charge lands in: LAMMPS's five stages, with
/// EAM's mid-pair comm kept apart from the Pair compute it counts into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Pair-stage compute.
    Pair,
    /// EAM's scalar-op comm, counted into the Pair stage (the paper's way).
    PairComm,
    /// Neighbor-list rebuild.
    Neigh,
    /// Ghost communication: border, forward, reverse and exchange.
    Comm,
    /// Integration.
    Modify,
    /// Collectives, checkpoints and bookkeeping.
    Other,
}

/// Where a rank's virtual time went: one bucket per [`Stage`], and the
/// comm time the overlap windows hid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimes {
    /// [`Stage::Pair`].
    pub pair: f64,
    /// [`Stage::PairComm`].
    pub pair_comm: f64,
    /// [`Stage::Neigh`].
    pub neigh: f64,
    /// [`Stage::Comm`].
    pub comm: f64,
    /// [`Stage::Modify`].
    pub modify: f64,
    /// [`Stage::Other`].
    pub other: f64,
    /// Comm time hidden behind interior compute: wait the rank never
    /// incurred, so it enters no stage sum.
    pub overlapped: f64,
}

impl StageTimes {
    /// The seven buckets in the checkpoint's byte order: comm, pair_comm,
    /// pair, neigh, modify, other, overlapped.
    pub fn buckets_mut(&mut self) -> [&mut f64; 7] {
        [
            &mut self.comm,
            &mut self.pair_comm,
            &mut self.pair,
            &mut self.neigh,
            &mut self.modify,
            &mut self.other,
            &mut self.overlapped,
        ]
    }

    /// The seven buckets by value, in [`Self::buckets_mut`]'s order.
    #[must_use]
    pub fn buckets(mut self) -> [f64; 7] {
        self.buckets_mut().map(|v| *v)
    }

    /// Table 3's five stages (EAM's mid-pair comm counts as Pair; the
    /// overlap credit as none).
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        StageBreakdown {
            pair: self.pair + self.pair_comm,
            neigh: self.neigh,
            comm: self.comm,
            modify: self.modify,
            other: self.other,
        }
    }
}

/// Per-step stage times (seconds), the Table 3 row format.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Pair stage (force kernels + EAM mid-stage comm).
    pub pair: f64,
    /// Neighbor-list rebuild (amortized per step).
    pub neigh: f64,
    /// Ghost communication: border + forward + reverse + exchange.
    pub comm: f64,
    /// Position/velocity updates.
    pub modify: f64,
    /// Collectives, output, bookkeeping.
    pub other: f64,
}

impl StageBreakdown {
    /// Stage names in Table 3's order, the order of [`Self::to_array`].
    pub const NAMES: [&'static str; 5] = ["Pair", "Neigh", "Comm", "Modify", "Other"];

    /// The stages in Table 3's order: the one place that order is written.
    #[must_use]
    pub fn to_array(self) -> [f64; 5] {
        [self.pair, self.neigh, self.comm, self.modify, self.other]
    }

    /// The inverse of [`Self::to_array`].
    #[must_use]
    pub fn from_array([pair, neigh, comm, modify, other]: [f64; 5]) -> Self {
        StageBreakdown {
            pair,
            neigh,
            comm,
            modify,
            other,
        }
    }

    /// Total per-step time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.to_array().iter().sum()
    }

    /// Stage shares in percent, Table 3's second rows.
    #[must_use]
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total().max(1e-300);
        self.to_array().map(|v| 100.0 * v / t)
    }
}

/// Which threading runtime executes the compute stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threading {
    /// OpenMP-style fork/join per parallel region (baseline LAMMPS and the
    /// non-pool uTofu variants; 5.8 us/region).
    OpenMp,
    /// The paper's spin-lock thread pool (1.1 us/region).
    SpinPool,
}

/// Per-stage cost constants, evaluated by [`Machine`](crate::Machine)'s
/// stage-time methods. Times in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCosts {
    /// Cost of one pair interaction on one core (LJ): ~10 ns covers the
    /// distance check, the 12-6 kernel and force scatter at short vector
    /// lengths.
    pub pair_interaction: f64,
    /// Per-atom traversal overhead in the pair stage (list walk, cache
    /// misses over the ghost-heavy array) per core-visit.
    pub pair_atom: f64,
    /// EAM work multiplier over LJ per interaction (spline lookups;
    /// anchored on Table 3's ref-EAM/ref-LJ pair ratio).
    pub eam_pair_factor: f64,
    /// EAM multiplier on the per-atom traversal (two passes over the
    /// list + the embedding pass).
    pub eam_atom_factor: f64,
    /// Serial per-step fixed cost of the pair stage (list bookkeeping,
    /// kernel setup) — dominates at the strong-scaling limit.
    pub pair_fixed: f64,
    /// Additional fixed pair-stage cost for EAM (table/spline machinery;
    /// anchored on Table 3's opt-EAM pair time at 23 atoms/rank).
    pub eam_fixed: f64,
    /// Parallel regions launched by the pair stage (anchored on the
    /// ref-vs-pool pair gap at the last scaling point: about 2 regions).
    pub pair_regions: f64,
    /// Neighbor-list rebuild cost per (local + ghost) atom per core.
    pub neigh_atom: f64,
    /// Per stored pair cost of the rebuild per core.
    pub neigh_pair: f64,
    /// Integration cost per local atom per core (one half-kick + drift).
    pub modify_atom: f64,
    /// Serial per-step fixed cost of the modify stage (fix dispatch).
    pub modify_fixed: f64,
    /// Per-step residual bookkeeping (output aggregation, timers) —
    /// Table 3's "Other" floor.
    pub other_base: f64,
    /// Computing cores per rank (12: one CMG).
    pub cores: f64,
    /// Fixed cost of one checkpoint on every live rank (barrier + metadata).
    pub checkpoint_base: f64,
    /// Checkpoint cost per container byte: a ~1 GB/s filesystem drain.
    pub checkpoint_per_byte: f64,
}

/// Workload numbers a stage-cost evaluation needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankWork {
    /// Local atoms on the rank.
    pub n_local: f64,
    /// Ghost atoms on the rank.
    pub n_ghost: f64,
    /// Half-list pair interactions computed per step.
    pub interactions: f64,
    /// Is the potential EAM-like (two-pass)?
    pub eam: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    fn small_work() -> RankWork {
        // The 36,864-node regime: ~28 locals, ghost-dominated.
        RankWork {
            n_local: 28.0,
            n_ghost: 280.0,
            interactions: 780.0,
            eam: false,
        }
    }

    #[test]
    fn array_form_percentages_and_names_share_one_order() {
        // Distinct powers of two: swapping any two stages breaks a check.
        let b = StageBreakdown {
            pair: 1.0,
            neigh: 2.0,
            comm: 4.0,
            modify: 8.0,
            other: 16.0,
        };
        let by_name = [
            ("Pair", b.pair),
            ("Neigh", b.neigh),
            ("Comm", b.comm),
            ("Modify", b.modify),
            ("Other", b.other),
        ];
        let (arr, pct) = (b.to_array(), b.percentages());
        for (i, (name, v)) in by_name.into_iter().enumerate() {
            assert_eq!(StageBreakdown::NAMES[i], name);
            assert_eq!(arr[i], v, "{name}");
            assert_eq!(pct[i], 100.0 * v / 31.0, "{name}");
        }
        assert_eq!(StageBreakdown::from_array(arr), b);
        assert_eq!(b.total(), 31.0);
    }

    #[test]
    fn breakdown_percentages_sum_to_100() {
        let b = StageBreakdown {
            pair: 2.0,
            neigh: 1.0,
            comm: 1.0,
            modify: 0.5,
            other: 0.5,
        };
        assert!((b.total() - 5.0).abs() < 1e-15);
        assert!((b.percentages().iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stage_times_fold_pair_comm_into_pair() {
        let mut t = StageTimes::default();
        for (i, v) in t.buckets_mut().into_iter().enumerate() {
            *v = (i + 1) as f64;
        }
        let want = StageTimes {
            comm: 1.0,
            pair_comm: 2.0,
            pair: 3.0,
            neigh: 4.0,
            modify: 5.0,
            other: 6.0,
            overlapped: 7.0,
        };
        assert_eq!(t, want);
        assert_eq!(t.buckets(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.breakdown().to_array(), [5.0, 4.0, 1.0, 5.0, 6.0]);
    }

    #[test]
    fn pool_reduces_pair_time_substantially_when_small() {
        let m = Machine::fugaku();
        let w = small_work();
        let omp = m.pair_time(&w, Threading::OpenMp);
        let pool = m.pair_time(&w, Threading::SpinPool);
        // Fig. 13b: pair time drops ~40% at the last point.
        let drop = 1.0 - pool / omp;
        assert!(
            (0.25..0.60).contains(&drop),
            "pool pair-stage reduction {drop:.2} out of the paper's band"
        );
    }

    #[test]
    fn modify_overhead_dominates_small_systems() {
        // "Enabling OpenMP causes the modify stage to take ten times
        // longer": with tiny n_local, region overhead >> integration work.
        let m = Machine::fugaku();
        let w = small_work();
        let omp = m.modify_time(&w, Threading::OpenMp);
        let compute_only = 2.0 * w.n_local * m.costs.modify_atom / m.costs.cores;
        assert!(omp > 10.0 * compute_only);
    }

    #[test]
    fn eam_pair_is_heavier_than_lj() {
        let m = Machine::fugaku();
        let mut w = small_work();
        let lj = m.pair_time(&w, Threading::OpenMp);
        w.eam = true;
        let eam = m.pair_time(&w, Threading::OpenMp);
        assert!(eam > lj);
    }

    #[test]
    fn large_systems_amortize_region_overhead() {
        // Fig. 12: for 1.7M atoms the pair stage dominates and the pool
        // advantage shrinks.
        let m = Machine::fugaku();
        let big = RankWork {
            n_local: 550.0,
            n_ghost: 900.0,
            interactions: 15_000.0,
            eam: false,
        };
        let omp = m.pair_time(&big, Threading::OpenMp);
        let pool = m.pair_time(&big, Threading::SpinPool);
        let drop = 1.0 - pool / omp;
        assert!(drop < 0.25, "large-system pool gain should shrink: {drop}");
    }
}
