//! Collective cost model: allreduce.
//!
//! The cost is the fabric's one recursive-doubling model,
//! `NetParams::allreduce_time`. The lockstep driver charges collectives to
//! rank clocks itself (`tofumd-runtime`'s `Cluster`, which runs the same
//! model at the target mesh); what stays here is the per-communicator form
//! the benchmark's `mpi.allreduce_sum_us` row times.

use crate::Communicator;

impl Communicator {
    /// Modeled cost of an allreduce of `bytes` per rank over this
    /// communicator's ranks and mesh ([`tofumd_tofu::NetParams::allreduce_time`]).
    #[must_use]
    pub fn allreduce_cost(&self, bytes: usize) -> f64 {
        let p = self.net().params();
        let hop = p.mean_hop_latency(self.net().grid().node_mesh());
        p.allreduce_time(self.nranks() as f64, hop, bytes)
    }

    /// Sum allreduce of per-rank f64 values (thermo reductions), advancing
    /// all clocks.
    #[must_use]
    pub fn allreduce_sum(&self, values: &[f64], clocks: &mut [f64]) -> f64 {
        assert_eq!(values.len(), self.nranks());
        let latest = clocks.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let done = latest + self.allreduce_cost(std::mem::size_of::<f64>());
        clocks.fill(done);
        values.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::Communicator;
    use std::sync::Arc;
    use tofumd_tofu::{CellGrid, NetParams, TofuNet};

    fn comm(nranks: usize, cells: [u32; 3]) -> Communicator {
        let net = Arc::new(TofuNet::new(CellGrid::new(cells), NetParams::default()));
        Communicator::new(net, nranks, 4)
    }

    #[test]
    fn collective_costs_grow_with_rank_count() {
        let small = comm(8, [2, 2, 2]);
        let large = comm(96, [2, 2, 2]);
        assert!(large.allreduce_cost(8) > small.allreduce_cost(8));
    }

    #[test]
    fn allreduce_sum_reduces_correctly() {
        let c = comm(4, [1, 1, 1]);
        let mut clocks = vec![0.0; 4];
        let s = c.allreduce_sum(&[1.0, 2.0, 3.0, 4.0], &mut clocks);
        assert_eq!(s, 10.0);
    }
}
