//! End-to-end analytic step-time model.
//!
//! Composes the stage-cost model with the pattern-time equations into a
//! closed-form per-step prediction for the optimized (pool p2p) and
//! baseline (MPI 3-stage) configurations. This is the path the weak-scaling
//! study (Fig. 14) uses — per-rank workloads of ~10^6 atoms cannot be
//! instantiated as real atoms — and a fast cross-check for the proxy-torus
//! simulations elsewhere.

use crate::equations::{pattern_times, Transport};
use crate::stagecost::{RankWork, StageCosts, Threading};
use crate::table1::Geometry;
use tofumd_tofu::NetParams;

/// A self-contained analytic workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticWorkload {
    /// Local atoms per rank.
    pub n_local: f64,
    /// Number density.
    pub density: f64,
    /// Force cutoff.
    pub cutoff: f64,
    /// Ghost cutoff (cutoff + skin).
    pub r_ghost: f64,
    /// EAM-like two-pass potential?
    pub eam: bool,
    /// Mean steps between neighbor rebuilds.
    pub rebuild_every: f64,
    /// Steps between the EAM displacement-check allreduce (0 = never).
    pub allreduce_every: f64,
}

impl AnalyticWorkload {
    /// The LJ benchmark geometry at a given per-rank atom count.
    #[must_use]
    pub fn lj(n_local: f64) -> Self {
        AnalyticWorkload {
            n_local,
            density: 0.8442,
            cutoff: 2.5,
            r_ghost: 2.8,
            eam: false,
            rebuild_every: 20.0,
            allreduce_every: 0.0,
        }
    }

    /// The EAM benchmark geometry.
    #[must_use]
    pub fn eam(n_local: f64) -> Self {
        AnalyticWorkload {
            n_local,
            density: 4.0 / 3.615f64.powi(3),
            cutoff: 4.95,
            r_ghost: 5.95,
            eam: true,
            rebuild_every: 10.0,
            allreduce_every: 5.0,
        }
    }

    /// Sub-box geometry (cubic, per the paper's Table-1 idealization).
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        Geometry::from_atoms_per_rank(self.n_local, self.density, self.r_ghost)
    }

    /// Derived per-rank work numbers under a half (Newton) ghost shell.
    #[must_use]
    pub fn work_half_shell(&self) -> RankWork {
        let geom = self.geometry();
        let neigh_per_atom =
            0.5 * self.density * (4.0 / 3.0) * std::f64::consts::PI * self.cutoff.powi(3);
        RankWork {
            n_local: self.n_local,
            n_ghost: self.density * geom.p2p_total(),
            interactions: self.n_local * neigh_per_atom,
            eam: self.eam,
        }
    }

    /// Same with the staged full shell (the baseline's ghost count).
    #[must_use]
    pub fn work_full_shell(&self) -> RankWork {
        let mut w = self.work_half_shell();
        w.n_ghost = self.density * self.geometry().three_stage_total();
        w
    }
}

/// Predicted per-step stage times (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticBreakdown {
    /// Pair stage (incl. EAM mid-stage comm under the chosen pattern).
    pub pair: f64,
    /// Amortized neighbor rebuild.
    pub neigh: f64,
    /// Forward + reverse ghost exchange (+ border amortized).
    pub comm: f64,
    /// Integration.
    pub modify: f64,
    /// Bookkeeping + collectives.
    pub other: f64,
}

impl AnalyticBreakdown {
    /// Total per-step seconds.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.pair + self.neigh + self.comm + self.modify + self.other
    }
}

/// Analytic step time for the **optimized** configuration (pool p2p,
/// Eq. 8 communication, spin-pool compute).
#[must_use]
pub fn opt_step_time(
    w: &AnalyticWorkload,
    ranks: f64,
    costs: &StageCosts,
    p: &NetParams,
) -> AnalyticBreakdown {
    let geom = w.geometry();
    let work = w.work_half_shell();
    let t = pattern_times(&geom, w.density, 24.0, Transport::Utofu, p);
    let pack = p.pack_cost((w.density * geom.p2p_total() * 24.0) as usize) / 6.0;
    let exchange = t.p2p_parallel + pack + p.pool_region_overhead;
    let mut pair = costs.pair_time(&work, Threading::SpinPool, p);
    if w.eam {
        // Two scalar mid-stage exchanges (8 B/atom payloads).
        let ts = pattern_times(&geom, w.density, 8.0, Transport::Utofu, p);
        pair += 2.0 * (ts.p2p_parallel + p.pool_region_overhead);
    }
    let mut other = costs.other_time();
    if w.allreduce_every > 0.0 {
        other += p.allreduce_time(ranks, 0.0, 0) / w.allreduce_every;
    }
    AnalyticBreakdown {
        pair,
        neigh: costs.neigh_time(&work, Threading::SpinPool, p) / w.rebuild_every,
        comm: 2.0 * exchange,
        modify: costs.modify_time(&work, Threading::SpinPool, p),
        other,
    }
}

/// Analytic step time for the **baseline** configuration (MPI 3-stage,
/// Eq. 5 communication with MPI software costs, OpenMP compute).
#[must_use]
pub fn ref_step_time(
    w: &AnalyticWorkload,
    ranks: f64,
    costs: &StageCosts,
    p: &NetParams,
) -> AnalyticBreakdown {
    let geom = w.geometry();
    let work = w.work_full_shell();
    let t = pattern_times(&geom, w.density, 24.0, Transport::Mpi, p);
    let bytes = (w.density * geom.three_stage_total() * 24.0) as usize;
    // Staged exchange: Eq. 5 wire path + receiver match/copy per message.
    let exchange = t.three_stage_opt + p.pack_cost(bytes) * 2.0 + 6.0 * p.mpi_match_cost;
    let mut pair = costs.pair_time(&work, Threading::OpenMp, p);
    if w.eam {
        let ts = pattern_times(&geom, w.density, 8.0, Transport::Mpi, p);
        pair += 2.0 * (ts.three_stage_opt + 6.0 * p.mpi_match_cost);
    }
    let mut other = costs.other_time();
    if w.allreduce_every > 0.0 {
        other += p.allreduce_time(ranks, 0.0, 0) / w.allreduce_every;
    }
    AnalyticBreakdown {
        pair,
        neigh: costs.neigh_time(&work, Threading::OpenMp, p) / w.rebuild_every,
        comm: 2.0 * exchange,
        modify: costs.modify_time(&work, Threading::OpenMp, p),
        other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> (StageCosts, NetParams) {
        (StageCosts::default(), NetParams::default())
    }

    #[test]
    fn opt_beats_ref_in_both_regimes() {
        let (c, p) = defaults();
        for n_local in [22.0, 550.0, 1365.0] {
            let w = AnalyticWorkload::lj(n_local);
            let opt = opt_step_time(&w, 3072.0, &c, &p).total();
            let r = ref_step_time(&w, 3072.0, &c, &p).total();
            assert!(r > opt, "ref {r} must exceed opt {opt} at n={n_local}");
        }
    }

    #[test]
    fn speedup_grows_as_workload_shrinks() {
        // The strong-scaling trend: smaller per-rank workloads are more
        // comm-bound, so the optimization buys more.
        let (c, p) = defaults();
        let s = |n: f64| {
            let w = AnalyticWorkload::lj(n);
            ref_step_time(&w, 147_456.0, &c, &p).total()
                / opt_step_time(&w, 147_456.0, &c, &p).total()
        };
        assert!(s(28.0) > s(280.0));
        assert!(s(280.0) > s(2800.0));
    }

    #[test]
    fn weak_scaling_is_flat_in_node_count() {
        // At 1.2M atoms/rank, collective growth is the only rank-count
        // dependence and it is negligible: Fig. 14's near-linearity.
        let (c, p) = defaults();
        let w = AnalyticWorkload::lj(1_200_000.0);
        let t_small = opt_step_time(&w, 3072.0, &c, &p).total();
        let t_large = opt_step_time(&w, 82_944.0, &c, &p).total();
        assert!((t_large / t_small - 1.0).abs() < 1e-3);
    }

    #[test]
    fn eam_pays_allreduce_and_midstage_comm() {
        let (c, p) = defaults();
        let eam = AnalyticWorkload::eam(23.0);
        let lj = AnalyticWorkload::lj(28.0);
        let be = opt_step_time(&eam, 147_456.0, &c, &p);
        let bl = opt_step_time(&lj, 147_456.0, &c, &p);
        assert!(be.other > bl.other, "EAM's every-5-step allreduce");
        assert!(be.pair > bl.pair, "EAM pair includes mid-stage comm");
    }

    #[test]
    fn full_shell_doubles_the_half_shell_ghosts() {
        let w = AnalyticWorkload::lj(1000.0);
        let half = w.work_half_shell().n_ghost;
        let full = w.work_full_shell().n_ghost;
        assert!((full / half - 2.0).abs() < 1e-9);
    }
}
