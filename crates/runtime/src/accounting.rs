//! Virtual-time accounting: the LAMMPS stage breakdown and the global clock
//! alignment.
//!
//! Every charge lands in the rank's one ledger, [`RankState`]: its clock
//! and its [`tofumd_core::engine::StageTimes`]. The phase executor
//! ([`crate::driver`]), the physics kernels ([`crate::physics`]) and the
//! engines all book there. All clock alignment goes through
//! [`global_sync`], the single implementation of the "stall everyone to
//! the latest clock plus a cost" pattern.

use tofumd_core::engine::{Op, RankState};

/// Per-step mean stage times (seconds), the Table 3 row format.
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
    /// Total per-step time.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.pair + self.neigh + self.comm + self.modify + self.other
    }

    /// Stage shares in percent, Table 3's second rows.
    #[must_use]
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total().max(1e-300);
        [
            100.0 * self.pair / t,
            100.0 * self.neigh / t,
            100.0 * self.comm / t,
            100.0 * self.modify / t,
            100.0 * self.other / t,
        ]
    }
}

/// Where a [`global_sync`] books the stall time it creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncBucket {
    /// A communication barrier: stall lands in the comm bucket of `Op`
    /// (scalar ops charge `pair_comm`, everything else `comm`).
    Comm(Op),
    /// A collective (reneighbor allreduce, thermo reduction): stall lands
    /// in the Other stage.
    Other,
}

/// The latest of `states`' clocks (`-inf` for none). A max fold, so it is
/// independent of iteration order.
pub(crate) fn latest_clock<'a>(states: impl Iterator<Item = &'a RankState>) -> f64 {
    states.map(|s| s.clock).fold(f64::NEG_INFINITY, f64::max)
}

/// Align every rank's clock to the latest clock plus `cost`, booking the
/// per-rank stall into `bucket`. This is the one and only "global
/// synchronization" primitive: the 3-stage inter-round barrier, the
/// reneighbor-flag allreduce and the thermo reduction all route through
/// it.
///
/// The fold over clocks is a max, so the result is independent of rank
/// iteration order — part of the determinism contract (DESIGN.md §9).
pub fn global_sync(states: &mut [RankState], cost: f64, bucket: SyncBucket) {
    let done = latest_clock(states.iter()) + cost;
    for st in states {
        let dt = done - st.clock;
        match bucket {
            SyncBucket::Comm(op) => st.charge(dt, op),
            SyncBucket::Other => st.stages.other += dt,
        }
        // Exactly `done`, whatever `clock + dt` rounds to.
        st.clock = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_core::topo_map::{Placement, RankMap};
    use tofumd_core::{CommGraph, PlanConfig};
    use tofumd_md::atom::Atoms;
    use tofumd_md::region::Box3;
    use tofumd_tofu::CellGrid;

    fn states(n: usize) -> Vec<RankState> {
        let grid = CellGrid::from_node_mesh([2, 3, 2]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        let global = Box3::from_lengths([10.0; 3]);
        (0..n)
            .map(|r| {
                let graph = CommGraph::grid(r, &map, &global, 1.0, PlanConfig::FULL);
                RankState::new(Atoms::default(), graph)
            })
            .collect()
    }

    #[test]
    fn global_sync_aligns_to_latest_plus_cost() {
        let mut sts = states(3);
        sts[0].clock = 1.0;
        sts[1].clock = 5.0;
        sts[2].clock = 2.0;
        global_sync(&mut sts, 0.5, SyncBucket::Other);
        for st in &sts {
            assert!((st.clock - 5.5).abs() < 1e-15);
        }
        assert!((sts[0].stages.other - 4.5).abs() < 1e-15);
        assert!((sts[1].stages.other - 0.5).abs() < 1e-15);
        assert!((sts[2].stages.other - 3.5).abs() < 1e-15);
    }

    #[test]
    fn comm_bucket_routes_scalar_ops_to_pair_comm() {
        let mut sts = states(2);
        sts[1].clock = 3.0;
        global_sync(&mut sts, 0.0, SyncBucket::Comm(Op::ReverseScalar));
        assert!((sts[0].stages.pair_comm - 3.0).abs() < 1e-15);
        assert!(sts[0].stages.comm.abs() < 1e-15);
        let mut sts = states(2);
        sts[1].clock = 3.0;
        global_sync(&mut sts, 0.0, SyncBucket::Comm(Op::Forward));
        assert!((sts[0].stages.comm - 3.0).abs() < 1e-15);
        assert!(sts.iter().all(|s| s.stages.other == 0.0));
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
}
