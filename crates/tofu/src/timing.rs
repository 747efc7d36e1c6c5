//! Network timing model.
//!
//! Every constant is calibrated to a number stated in the paper or the
//! TofuD paper (Ajima et al., CLUSTER'18) and is documented with its
//! source. The model is deliberately simple — the paper's own analysis
//! (§3.1) uses exactly these ingredients: a per-message injection interval
//! `T_inj` (CPU-dominated), a hop-proportional wire latency, and a
//! bandwidth term. Message blocking inside the network is ignored for
//! small messages, as the paper assumes.

/// Timing constants of the simulated TofuD network + software stacks.
///
/// All times in seconds, bandwidths in bytes/second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetParams {
    /// Zero-hop RDMA put latency: 0.49 us ("communication functions of
    /// RDMA PUT/GET with minimal latency of 0.49us", §2.2).
    pub base_latency: f64,
    /// Additional latency per network hop (~0.1 us, derived from TofuD's
    /// switch traversal times).
    pub hop_latency: f64,
    /// Per-TNI injection bandwidth: 6.8 GB/s (§2.2 "directly connect with
    /// 10 CPU nodes with a bandwidth of 6.8GB/s").
    pub link_bandwidth: f64,
    /// Minimum spacing between two messages entering the network from one
    /// TNI (hardware pipeline gap; the bandwidth term dominates for large
    /// messages).
    pub tni_gap: f64,
    /// CPU time to post one uTofu put/get: the uTofu share of `T_inj`.
    /// uTofu is "a low-overhead one-sided interface" — sub-microsecond.
    pub cpu_per_put_utofu: f64,
    /// CPU time to post one MPI message: fragmentation, tag generation,
    /// matching bookkeeping ("heavy software stack, such as message
    /// fragmentation and tag-matching", §3.2). Order 1-2 us per Zambre et
    /// al. \[33\].
    pub cpu_per_put_mpi: f64,
    /// Receiver-side CPU cost per matched MPI message (tag matching +
    /// unexpected-queue handling).
    pub mpi_match_cost: f64,
    /// MPI eager/rendezvous threshold; larger messages pay an extra
    /// round-trip handshake.
    pub mpi_eager_limit: usize,
    /// Per-VCQ software overhead a single thread pays when it must drive
    /// and poll one more VCQ in a communication stage (the §4.2 explanation
    /// for 6TNI-single-thread being slower than 4TNI).
    pub vcq_drive_overhead: f64,
    /// One-time memory-registration cost (kernel transition + pinning),
    /// §3.4: "incurs significant overhead for the requirement of falling
    /// into the kernel state".
    pub mem_reg_base: f64,
    /// Additional registration cost per page (4 KiB) pinned.
    pub mem_reg_per_page: f64,
    /// Latency saved by TofuD cache injection on the receive side (§2.2).
    pub cache_injection_saving: f64,
    /// Receiver-side software cost to match one MRQ completion against one
    /// posted receive buffer. Matching is a linear scan, so an exchange
    /// with N neighbors pays O(N^2) of this — the paper's "p2p is an
    /// n-squared extension" (Fig. 15), irrelevant at 13 neighbors but
    /// decisive at 124.
    pub mrq_match_per_buffer: f64,
    /// CPU cost to pack or unpack one byte of ghost data (SoA gather /
    /// scatter on A64FX-class cores).
    pub pack_per_byte: f64,
    /// Spin-pool parallel-region dispatch+join overhead: 1.1 us (§3.3,
    /// measured by the paper on A64FX; `tofumd-threadpool` measures the
    /// host-local equivalent).
    pub pool_region_overhead: f64,
    /// OpenMP parallel-region fork/join overhead: 5.8 us (§3.3).
    pub omp_region_overhead: f64,
    /// Base sender-side backoff before retransmitting a failed put (TCQ
    /// error observed; doubled per attempt). Order of ten descriptor
    /// postings.
    pub retry_backoff: f64,
    /// One-time penalty for handing a message to the reliable software
    /// stack after the retry budget is exhausted (protocol switch +
    /// heavy-stack posting; order of one MPI rendezvous).
    pub fallback_penalty: f64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            base_latency: 0.49e-6,
            hop_latency: 0.1e-6,
            link_bandwidth: 6.8e9,
            tni_gap: 0.10e-6,
            cpu_per_put_utofu: 0.20e-6,
            cpu_per_put_mpi: 2.50e-6,
            mpi_match_cost: 0.80e-6,
            mpi_eager_limit: 1 << 14, // 16 KiB, typical for Fujitsu MPI
            vcq_drive_overhead: 0.50e-6,
            mem_reg_base: 10.0e-6,
            mem_reg_per_page: 0.05e-6,
            cache_injection_saving: 0.05e-6,
            mrq_match_per_buffer: 8.0e-9,
            pack_per_byte: 0.06e-9,
            pool_region_overhead: 1.1e-6,
            omp_region_overhead: 5.8e-6,
            retry_backoff: 2.0e-6,
            fallback_penalty: 20.0e-6,
        }
    }
}

impl NetParams {
    /// Pure wire time of a message: latency + serialization.
    #[must_use]
    pub fn wire_time(&self, bytes: usize, hops: u32) -> f64 {
        self.base_latency + f64::from(hops) * self.hop_latency + bytes as f64 / self.link_bandwidth
    }

    /// TNI occupancy of one injected message (gap or serialization,
    /// whichever is longer).
    #[must_use]
    pub fn tni_occupancy(&self, bytes: usize) -> f64 {
        self.tni_gap.max(bytes as f64 / self.link_bandwidth)
    }

    /// Memory registration cost for a buffer of `bytes`.
    #[must_use]
    pub fn registration_cost(&self, bytes: usize) -> f64 {
        let pages = bytes.div_ceil(4096);
        self.mem_reg_base + pages as f64 * self.mem_reg_per_page
    }

    /// CPU cost to pack/unpack `bytes` of ghost data.
    #[must_use]
    pub fn pack_cost(&self, bytes: usize) -> f64 {
        bytes as f64 * self.pack_per_byte
    }

    /// Recursive-doubling allreduce of `bytes` per rank over `ranks`
    /// participants: 2 ⌈log2 P⌉ rounds (reduce-scatter + allgather
    /// equivalent), each paying latency, MPI posting and matching, one
    /// mean hop (`hop_latency`, see [`Self::mean_hop_latency`]) and the
    /// wire time of `bytes`. The one collective cost of the tree: the MPI
    /// communicator, the runtime's target-scale charges and the analytic
    /// model (hop 0, no payload) all call it.
    #[must_use]
    pub fn allreduce_time(&self, ranks: f64, hop_latency: f64, bytes: usize) -> f64 {
        let rounds = 2.0 * f64::from(allreduce_depth(ranks));
        rounds
            * (self.base_latency
                + self.cpu_per_put_mpi
                + self.mpi_match_cost
                + hop_latency
                + bytes as f64 / self.link_bandwidth)
    }

    /// Mean per-round hop latency of a collective on a node `mesh`:
    /// recursive-doubling partners are spread across the mesh, so a round
    /// costs half the mesh diameter in hops.
    #[must_use]
    pub fn mean_hop_latency(&self, mesh: [u32; 3]) -> f64 {
        let diameter: u32 = mesh.iter().map(|&d| d / 2).sum();
        f64::from(diameter) * 0.5 * self.hop_latency
    }
}

/// Recursive-doubling depth over `ranks` participants, an integral
/// count: ⌈log2 P⌉, and at least one round.
fn allreduce_depth(ranks: f64) -> u32 {
    debug_assert!(
        ranks >= 0.0 && ranks.fract() == 0.0,
        "rank count {ranks} is not integral"
    );
    (ranks as u64).next_power_of_two().trailing_zeros().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_NODE_MESHES;

    #[test]
    fn wire_time_components() {
        let p = NetParams::default();
        let t0 = p.wire_time(0, 0);
        assert!((t0 - 0.49e-6).abs() < 1e-12, "zero-hop latency is 0.49us");
        // One more hop adds hop_latency.
        assert!((p.wire_time(0, 3) - t0 - 3.0 * p.hop_latency).abs() < 1e-15);
        // 6.8 KB takes ~1 us of serialization on a 6.8 GB/s link.
        let t = p.wire_time(6800, 0) - t0;
        assert!((t - 1e-6).abs() < 1e-9);
    }

    #[test]
    fn tni_occupancy_switches_regimes() {
        let p = NetParams::default();
        // Small message: fixed gap dominates.
        assert_eq!(p.tni_occupancy(64), p.tni_gap);
        // 1 MB: serialization dominates.
        let big = p.tni_occupancy(1 << 20);
        assert!(big > 100.0 * p.tni_gap);
    }

    #[test]
    fn registration_scales_with_pages() {
        let p = NetParams::default();
        let small = p.registration_cost(100);
        let large = p.registration_cost(4096 * 1000);
        assert!(large > small);
        assert!((large - small - 999.0 * p.mem_reg_per_page).abs() < 1e-12);
    }

    #[test]
    fn threading_overheads_match_paper() {
        let p = NetParams::default();
        assert!((p.pool_region_overhead - 1.1e-6).abs() < 1e-12);
        assert!((p.omp_region_overhead - 5.8e-6).abs() < 1e-12);
    }

    #[test]
    fn allreduce_cost_grows_with_ranks_and_bytes() {
        let p = NetParams::default();
        let hop = p.mean_hop_latency([8, 12, 8]);
        let small = p.allreduce_time(3072.0, hop, 8);
        assert!(p.allreduce_time(147_456.0, hop, 8) > small);
        assert!(p.allreduce_time(3072.0, hop, 1 << 20) > small);
    }

    #[test]
    fn allreduce_cost_grows_logarithmically() {
        let p = NetParams::default();
        let c1 = p.allreduce_time(1024.0, 0.0, 0);
        let c2 = p.allreduce_time(1_048_576.0, 0.0, 0);
        assert!((c2 / c1 - 2.0).abs() < 1e-9, "2^10 -> 2^20 doubles rounds");
    }

    #[test]
    fn integer_allreduce_depth_matches_the_float_ceiling() {
        let paper = PAPER_NODE_MESHES.iter().map(|&(nodes, _)| 4 * nodes as u64);
        for n in (1..=1u64 << 18).chain(paper) {
            let ranks = n as f64;
            let float = ranks.log2().ceil().max(1.0);
            assert_eq!(f64::from(allreduce_depth(ranks)), float, "{n} ranks");
        }
    }

    #[test]
    fn mpi_stack_is_heavier_than_utofu() {
        // The core premise of §3.2 must hold in the defaults.
        let p = NetParams::default();
        assert!(p.cpu_per_put_mpi > 5.0 * p.cpu_per_put_utofu);
    }
}
