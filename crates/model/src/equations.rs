//! Equations (3)–(8): analytic exchange times of the two patterns.
//!
//! `T_0..T_2` are the 3-stage per-stage transfer times, `T_3..T_5` the p2p
//! per-class transfer times, and `T_inj` the interval between consecutive
//! injections from one node (CPU-dominated; very different for MPI vs
//! uTofu). The equations predict the ordering the paper measures:
//! naive p2p loses under MPI's heavy `T_inj` and wins under uTofu's light
//! one, and the parallel (multi-TNI) variants shave almost all of the
//! injection serialization.

use crate::table1::Geometry;
use tofumd_tofu::NetParams;

/// Which software stack injects the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// MPI two-sided (heavy per-message software cost).
    Mpi,
    /// uTofu one-sided (light descriptor post).
    Utofu,
}

impl Transport {
    /// The `T_inj` of this stack.
    #[must_use]
    pub fn t_inj(self, p: &NetParams) -> f64 {
        match self {
            Transport::Mpi => p.cpu_per_put_mpi,
            Transport::Utofu => p.cpu_per_put_utofu,
        }
    }
}

/// All six pattern-time predictions for one geometry/transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternTimes {
    /// Eq. (3): naive serial 3-stage.
    pub three_stage_naive: f64,
    /// Eq. (5): 3-stage with simultaneous per-stage sends.
    pub three_stage_opt: f64,
    /// Eq. (7): 3-stage with parallel injection (no `T_inj` serialization).
    pub three_stage_parallel: f64,
    /// Eq. (4): naive serial p2p (13 injections back-to-back).
    pub p2p_naive: f64,
    /// Eq. (6): p2p sending the shortest message last.
    pub p2p_opt: f64,
    /// Eq. (8): p2p over parallel interfaces.
    pub p2p_parallel: f64,
}

/// Evaluate Eqs. (3)–(8).
///
/// `density` converts slab volumes to atoms; `bytes_per_atom` to bytes
/// (24 for a forward/reverse xyz payload).
#[must_use]
pub fn pattern_times(
    geom: &Geometry,
    density: f64,
    bytes_per_atom: f64,
    transport: Transport,
    p: &NetParams,
) -> PatternTimes {
    let t_inj = transport.t_inj(p);
    let wire = |volume: f64, hops: u32| -> f64 {
        let bytes = (volume * density * bytes_per_atom).max(0.0);
        p.wire_time(bytes as usize, hops)
    };
    let s = geom.three_stage_rows();
    let t0 = wire(s[0].volume, s[0].hops);
    let t1 = wire(s[1].volume, s[1].hops);
    let t2 = wire(s[2].volume, s[2].hops);
    let q = geom.p2p_rows();
    let t3 = wire(q[0].volume, q[0].hops);
    let t4 = wire(q[1].volume, q[1].hops);
    let t5 = wire(q[2].volume, q[2].hops);
    let t_min = t3.min(t4).min(t5);
    // Eq. (4)'s T_last: the last of the 13 messages; the naive order ends
    // on whichever class is sent last — take the largest as worst case.
    let t_last = t3.max(t4).max(t5);
    PatternTimes {
        three_stage_naive: 2.0 * t0 + 2.0 * t1 + 2.0 * t2,
        three_stage_opt: 3.0 * t_inj + t0 + t1 + t2,
        three_stage_parallel: t0 + t1 + t2,
        p2p_naive: 12.0 * t_inj + t_last,
        p2p_opt: 12.0 * t_inj + t_min,
        p2p_parallel: 2.0 * t_inj + t_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_small() -> Geometry {
        // The strong-scaling regime: tiny sub-boxes, messages of ~hundreds
        // of bytes.
        Geometry::from_atoms_per_rank(22.0, 0.8442, 2.8)
    }

    fn geom_large() -> Geometry {
        Geometry::from_atoms_per_rank(140_000.0, 0.8442, 2.8)
    }

    #[test]
    fn utofu_p2p_beats_3stage_for_small_messages() {
        // §3.1's conclusion: with small T_inj (uTofu), p2p wins.
        let p = NetParams::default();
        let t = pattern_times(&geom_small(), 0.8442, 24.0, Transport::Utofu, &p);
        assert!(
            t.p2p_parallel < t.three_stage_parallel,
            "p2p-parallel {} should beat 3stage-parallel {}",
            t.p2p_parallel,
            t.three_stage_parallel
        );
        assert!(t.p2p_opt < t.three_stage_naive);
    }

    #[test]
    fn mpi_p2p_loses_to_mpi_3stage() {
        // §3.2: with MPI's heavy T_inj, 12 injections dominate and naive
        // p2p is slower than the 3-stage pattern.
        let p = NetParams::default();
        let t = pattern_times(&geom_small(), 0.8442, 24.0, Transport::Mpi, &p);
        assert!(
            t.p2p_naive > t.three_stage_opt,
            "MPI p2p naive {} should lose to MPI 3-stage {}",
            t.p2p_naive,
            t.three_stage_opt
        );
    }

    #[test]
    fn parallel_variants_improve_on_serial() {
        let p = NetParams::default();
        for transport in [Transport::Mpi, Transport::Utofu] {
            for geom in [geom_small(), geom_large()] {
                let t = pattern_times(&geom, 0.8442, 24.0, transport, &p);
                assert!(t.three_stage_parallel <= t.three_stage_opt);
                assert!(t.p2p_parallel <= t.p2p_opt);
                assert!(t.p2p_opt <= t.p2p_naive);
            }
        }
        // Eq. (5) <= Eq. (3) holds under the paper's premise that T_inj is
        // much smaller than the transfer times — true for uTofu always,
        // and for MPI only once messages are large.
        let t = pattern_times(&geom_large(), 0.8442, 24.0, Transport::Mpi, &p);
        assert!(t.three_stage_opt <= t.three_stage_naive);
        let t = pattern_times(&geom_small(), 0.8442, 24.0, Transport::Utofu, &p);
        assert!(t.three_stage_opt <= t.three_stage_naive + 1e-6);
    }

    #[test]
    fn t3_equals_t0() {
        // §3.1: "T_3 is equal to T_0" — both are the face-slab message over
        // one hop.
        let g = geom_small();
        let s = g.three_stage_rows();
        let q = g.p2p_rows();
        assert_eq!(s[0].volume, q[0].volume);
        assert_eq!(s[0].hops, q[0].hops);
    }

    #[test]
    fn injection_gap_drives_the_transport_contrast() {
        let p = NetParams::default();
        assert!(Transport::Mpi.t_inj(&p) > Transport::Utofu.t_inj(&p));
        let tm = pattern_times(&geom_small(), 0.8442, 24.0, Transport::Mpi, &p);
        let tu = pattern_times(&geom_small(), 0.8442, 24.0, Transport::Utofu, &p);
        // Switching to uTofu helps p2p far more than it helps 3-stage.
        let p2p_gain = tm.p2p_opt / tu.p2p_opt;
        let ts_gain = tm.three_stage_opt / tu.three_stage_opt;
        assert!(p2p_gain > ts_gain);
    }
}
