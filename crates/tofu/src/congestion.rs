//! Link-level congestion model (an *extension* beyond the paper).
//!
//! The paper's analysis assumes "in the case of small message sizes, we do
//! not consider message blocking in the network" (§3.1). The main fabric
//! ([`crate::net`]) adopts the same assumption — contention is modeled at
//! the injection TNIs only. This module adds a wormhole-routed,
//! dimension-ordered link-occupancy model so that assumption can be
//! *checked*: route every message of an exchange over the folded torus,
//! serialize on each directed link, and compare against the
//! contention-free prediction. `tofumd-bench congestion` validates it at
//! the paper's message sizes and at deliberately oversized ones.

use crate::timing::NetParams;
use crate::topology::CellGrid;

/// Directed link directions on the folded 3D torus.
const DIRS: usize = 6; // x+, x-, y+, y-, z+, z-

/// Physical rails per direction: TofuD gives the X-, Y-, Z- and B-axes two
/// ports each (§2.2), so each folded-torus direction carries two links.
const RAILS: usize = 2;

/// A wormhole-routing congestion model over a cell grid's folded mesh.
#[derive(Debug, Clone)]
pub struct CongestionModel {
    mesh: [u32; 3],
    params: NetParams,
    /// `link_free[node][dir][rail]`: when each outgoing rail becomes free.
    link_free: Vec<[[f64; RAILS]; DIRS]>,
    /// Total stall time accumulated by blocked headers.
    pub total_stall: f64,
    /// Messages routed.
    pub messages: u64,
}

impl CongestionModel {
    /// Build for a grid's folded mesh.
    #[must_use]
    pub fn new(grid: &CellGrid, params: NetParams) -> Self {
        let mesh = grid.node_mesh();
        let n = (mesh[0] * mesh[1] * mesh[2]) as usize;
        CongestionModel {
            mesh,
            params,
            link_free: vec![[[0.0; RAILS]; DIRS]; n],
            total_stall: 0.0,
            messages: 0,
        }
    }

    fn node_id(&self, m: [u32; 3]) -> usize {
        (m[0] + self.mesh[0] * (m[1] + self.mesh[1] * m[2])) as usize
    }

    /// Dimension-ordered shortest-torus route: the sequence of (node, dir)
    /// hops from `from` to `to`.
    #[must_use]
    pub fn route(&self, from: [u32; 3], to: [u32; 3]) -> Vec<(usize, usize)> {
        let mut hops = Vec::new();
        let mut cur = from;
        for d in 0..3 {
            let size = self.mesh[d];
            let fwd = (to[d] + size - cur[d]) % size;
            let bwd = (cur[d] + size - to[d]) % size;
            // Tie-break toward the positive direction.
            let (steps, dir_positive) = if fwd <= bwd {
                (fwd, true)
            } else {
                (bwd, false)
            };
            for _ in 0..steps {
                let dir = 2 * d + usize::from(!dir_positive);
                hops.push((self.node_id(cur), dir));
                cur[d] = if dir_positive {
                    (cur[d] + 1) % size
                } else {
                    (cur[d] + size - 1) % size
                };
            }
        }
        debug_assert_eq!(cur, to);
        hops
    }

    /// Transmit one message, serializing on every directed link of the
    /// route (wormhole: the header stalls on busy links; each link is then
    /// occupied for the message's serialization time). Returns the arrival
    /// time at the destination.
    pub fn transmit(&mut self, from: [u32; 3], to: [u32; 3], bytes: usize, depart: f64) -> f64 {
        let serialize = bytes as f64 / self.params.link_bandwidth;
        let mut t_head = depart;
        for (node, dir) in self.route(from, to) {
            // Take whichever physical rail frees first.
            let rails = &mut self.link_free[node][dir];
            let rail = if rails[0] <= rails[1] { 0 } else { 1 };
            if rails[rail] > t_head {
                self.total_stall += rails[rail] - t_head;
                t_head = rails[rail];
            }
            t_head += self.params.hop_latency;
            rails[rail] = t_head + serialize;
        }
        self.messages += 1;
        t_head + serialize + self.params.base_latency
    }

    /// Contention-free arrival prediction for the same path (the main
    /// fabric's model).
    #[must_use]
    pub fn free_flight(&self, from: [u32; 3], to: [u32; 3], bytes: usize, depart: f64) -> f64 {
        let grid_hops: u32 = (0..3)
            .map(|d| {
                let diff = from[d].abs_diff(to[d]);
                diff.min(self.mesh[d] - diff)
            })
            .sum();
        depart + self.params.wire_time(bytes, grid_hops)
    }

    /// Reset link schedules between experiments.
    pub fn reset(&mut self) {
        for l in &mut self.link_free {
            *l = [[0.0; RAILS]; DIRS];
        }
        self.total_stall = 0.0;
        self.messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CongestionModel {
        CongestionModel::new(&CellGrid::new([4, 4, 4]), NetParams::default())
    }

    #[test]
    fn route_lengths_match_torus_distance() {
        let m = model(); // mesh 8 x 12 x 8
        assert_eq!(m.route([0, 0, 0], [0, 0, 0]).len(), 0);
        assert_eq!(m.route([0, 0, 0], [1, 0, 0]).len(), 1);
        assert_eq!(m.route([0, 0, 0], [7, 0, 0]).len(), 1, "wraps");
        assert_eq!(m.route([0, 0, 0], [3, 5, 2]).len(), 3 + 5 + 2);
    }

    #[test]
    fn route_is_dimension_ordered() {
        let m = model();
        let r = m.route([0, 0, 0], [2, 2, 0]);
        // First two hops move in x (dirs 0/1), then two in y (dirs 2/3).
        assert!(r[0].1 < 2 && r[1].1 < 2);
        assert!(r[2].1 >= 2 && r[3].1 >= 2);
    }

    #[test]
    fn disjoint_paths_do_not_interact() {
        let mut m = model();
        let a = m.transmit([0, 0, 0], [1, 0, 0], 1024, 0.0);
        let b = m.transmit([0, 2, 0], [1, 2, 0], 1024, 0.0);
        assert!((a - b).abs() < 1e-15);
        assert_eq!(m.total_stall, 0.0);
    }

    #[test]
    fn shared_direction_serializes_beyond_two_rails() {
        let mut m = model();
        let big = 1 << 20;
        let a = m.transmit([0, 0, 0], [1, 0, 0], big, 0.0);
        // Second message takes the second rail — no stall.
        let b = m.transmit([0, 0, 0], [1, 0, 0], big, 0.0);
        assert!((b - a).abs() < 1e-12, "two rails absorb two messages");
        assert_eq!(m.total_stall, 0.0);
        // The third must queue.
        let c = m.transmit([0, 0, 0], [1, 0, 0], big, 0.0);
        assert!(c > a, "third message queues behind a rail");
        assert!(m.total_stall > 0.0);
    }

    #[test]
    fn congestion_matches_free_flight_when_alone() {
        let mut m = model();
        let t = m.transmit([0, 0, 0], [2, 3, 1], 4096, 0.0);
        let f = m.free_flight([0, 0, 0], [2, 3, 1], 4096, 0.0);
        // Same hop count and serialization; wormhole pays serialization
        // once, so the two models agree for a lone message.
        assert!((t - f).abs() < 1e-12, "{t} vs {f}");
    }

    #[test]
    fn paper_assumption_holds_for_small_exchanges() {
        // Every rank-pair of a 13-neighbor exchange at the 65K message
        // size (~500 B): negligible blocking relative to flight time.
        let mut m = model();
        let mesh = [8u32, 12, 8];
        let mut max_arrival_excess: f64 = 0.0;
        for x in 0..mesh[0] {
            for y in 0..mesh[1] {
                for z in 0..mesh[2] {
                    let from = [x, y, z];
                    for (dx, dy, dz) in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)] {
                        let to = [(x + dx) % mesh[0], (y + dy) % mesh[1], (z + dz) % mesh[2]];
                        let t = m.transmit(from, to, 522, 0.0);
                        let f = m.free_flight(from, to, 522, 0.0);
                        max_arrival_excess = max_arrival_excess.max(t - f);
                    }
                }
            }
        }
        // §3.1's assumption: blocking negligible for small messages.
        assert!(
            max_arrival_excess < 0.3e-6,
            "small-message blocking {max_arrival_excess} too large"
        );
    }
}
