//! Collective cost model: allreduce.
//!
//! The costs follow the standard recursive-doubling model (log2(P) rounds,
//! each a latency + software + bandwidth term). The lockstep driver charges
//! collectives to rank clocks itself (`tofumd-runtime`'s `accounting`, which
//! scales the same model to the target mesh); what stays here is the
//! per-communicator form the benchmark's `mpi.allreduce_sum_us` row times.

use crate::Communicator;

impl Communicator {
    /// Modeled cost of an allreduce of `bytes` per rank: 2 log2(P) rounds
    /// (reduce-scatter + allgather equivalent), each moving `bytes`.
    #[must_use]
    pub fn allreduce_cost(&self, bytes: usize) -> f64 {
        let p = self.net().params();
        let rounds = 2.0 * (self.nranks() as f64).log2().ceil().max(1.0);
        rounds
            * (p.base_latency
                + p.cpu_per_put_mpi
                + p.mpi_match_cost
                + self.average_hop_latency()
                + bytes as f64 / p.link_bandwidth)
    }

    /// Mean per-round hop latency: recursive doubling partners are spread
    /// across the mesh; use half the mesh diameter as the expected hop
    /// count per round.
    fn average_hop_latency(&self) -> f64 {
        let mesh = self.net().grid().node_mesh();
        let diameter: u32 = mesh.iter().map(|&d| d / 2).sum();
        f64::from(diameter) * 0.5 * self.net().params().hop_latency
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
