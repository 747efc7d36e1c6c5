//! The modeled machine: one value carrying every virtual-time constant.
//!
//! A [`Machine`] is the TofuD fabric's [`NetParams`] (§2.2's constants and
//! §3.3's region overheads) beside the calibrated [`StageCosts`] (Table 3's
//! stage fits and the checkpoint drain). [`Machine::fugaku`] is the one
//! place the committed constants are put together; every figure, the
//! simulated cluster and the analytic model read the machine it returns.

use crate::stagecost::{RankWork, StageCosts, Threading};
use tofumd_tofu::NetParams;

/// Fabric timing constants and stage costs of one modeled machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Fabric, injection and parallel-region constants.
    pub net: NetParams,
    /// Per-stage compute and checkpoint costs.
    pub costs: StageCosts,
}

impl Machine {
    /// The calibrated Fugaku model every committed figure is drawn from.
    #[must_use]
    pub fn fugaku() -> Self {
        Machine {
            net: NetParams::default(),
            costs: StageCosts {
                pair_interaction: 10.0e-9,
                pair_atom: 330.0e-9,
                eam_pair_factor: 3.4,
                eam_atom_factor: 2.0,
                pair_fixed: 3.0e-6,
                eam_fixed: 28.0e-6,
                pair_regions: 2.0,
                neigh_atom: 550.0e-9,
                neigh_pair: 20.0e-9,
                modify_atom: 110.0e-9,
                modify_fixed: 2.5e-6,
                other_base: 7.0e-6,
                cores: 12.0,
                checkpoint_base: 1.0e-3,
                checkpoint_per_byte: 1.0e-9,
            },
        }
    }

    /// Per-region dispatch + join overhead (§3.3's 5.8 us vs 1.1 us).
    fn region_overhead(&self, threading: Threading) -> f64 {
        match threading {
            Threading::OpenMp => self.net.omp_region_overhead,
            Threading::SpinPool => self.net.pool_region_overhead,
        }
    }

    /// Pair-stage compute time (excluding mid-stage communication, which
    /// the fabric provides).
    #[must_use]
    pub fn pair_time(&self, w: &RankWork, threading: Threading) -> f64 {
        let c = &self.costs;
        let (f_int, f_atom, fixed) = if w.eam {
            (
                c.eam_pair_factor,
                c.eam_atom_factor,
                c.pair_fixed + c.eam_fixed,
            )
        } else {
            (1.0, 1.0, c.pair_fixed)
        };
        let work = (w.n_local + w.n_ghost) * c.pair_atom * f_atom
            + w.interactions * c.pair_interaction * f_int;
        c.pair_regions * self.region_overhead(threading) + fixed + work / c.cores
    }

    /// Neighbor-list rebuild time (charged on rebuild steps only).
    #[must_use]
    pub fn neigh_time(&self, w: &RankWork, threading: Threading) -> f64 {
        let c = &self.costs;
        let work = (w.n_local + w.n_ghost) * c.neigh_atom + w.interactions * c.neigh_pair;
        self.region_overhead(threading) + work / c.cores
    }

    /// Modify-stage time per step: two integration halves, each a parallel
    /// region (this is where the paper's "OpenMP makes modify 10x slower"
    /// shows up — for tiny n_local the region overhead dominates).
    #[must_use]
    pub fn modify_time(&self, w: &RankWork, threading: Threading) -> f64 {
        let c = &self.costs;
        c.modify_fixed
            + 2.0 * (self.region_overhead(threading) + w.n_local * c.modify_atom / c.cores)
    }

    /// "Other" floor per step (collective costs are added by the driver).
    #[must_use]
    pub fn other_time(&self) -> f64 {
        self.costs.other_base
    }
}
