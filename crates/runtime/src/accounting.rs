//! Virtual-time accounting: the global clock alignment over the ranks'
//! ledgers.
//!
//! Every charge lands in the rank's one ledger, [`RankState`]: its clock
//! and its [`tofumd_model::StageTimes`]. The phase executor
//! ([`crate::driver`]), the physics kernels ([`crate::physics`]), the
//! checkpoint and the engines all book there through one call,
//! [`RankState::charge`], naming the [`Stage`] the time belongs to (an
//! engine names its op, which converts to its comm stage). All clock
//! alignment goes through [`global_sync`], the single implementation of
//! the "stall everyone to the latest clock plus a cost" pattern.

use tofumd_core::engine::{RankState, Stage};

/// The latest of `states`' clocks (`-inf` for none). A max fold, so it is
/// independent of iteration order.
pub(crate) fn latest_clock<'a>(states: impl Iterator<Item = &'a RankState>) -> f64 {
    states.map(|s| s.clock).fold(f64::NEG_INFINITY, f64::max)
}

/// Align every rank's clock to the latest clock plus `cost`, booking the
/// per-rank stall into `stage` (a barrier books its op's comm bucket, a
/// collective [`Stage::Other`]). This is the one and only "global
/// synchronization" primitive: the 3-stage inter-round barrier, the
/// reneighbor-flag allreduce and the thermo reduction all route through
/// it.
///
/// The fold over clocks is a max, so the result is independent of rank
/// iteration order — part of the determinism contract (DESIGN.md §9).
pub fn global_sync(states: &mut [RankState], cost: f64, stage: Stage) {
    let done = latest_clock(states.iter()) + cost;
    for st in states {
        st.charge(done - st.clock, stage);
        // Exactly `done`, whatever `clock + dt` rounds to.
        st.clock = done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_core::engine::Op;
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
        global_sync(&mut sts, 0.5, Stage::Other);
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
        global_sync(&mut sts, 0.0, Op::ReverseScalar.into());
        assert!((sts[0].stages.pair_comm - 3.0).abs() < 1e-15);
        assert!(sts[0].stages.comm.abs() < 1e-15);
        let mut sts = states(2);
        sts[1].clock = 3.0;
        global_sync(&mut sts, 0.0, Op::Forward.into());
        assert!((sts[0].stages.comm - 3.0).abs() < 1e-15);
        assert!(sts.iter().all(|s| s.stages.other == 0.0));
    }
}
