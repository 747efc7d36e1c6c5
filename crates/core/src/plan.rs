//! Per-rank communication plans: who talks to whom, over how many hops,
//! with what expected message sizes (the concrete counterpart of Table 1).

use crate::topo_map::RankMap;
use serde::{Deserialize, Serialize};
use tofumd_md::domain::{neighbor_offsets, NeighborOffset};
use tofumd_md::region::Box3;

/// Which ghost pattern a plan serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanConfig {
    /// Neighbor shells: 1 for the common regime, 2 for the 62/124-neighbor
    /// extended experiment (Fig. 15).
    pub shells: usize,
    /// Newton's 3rd law halving: receive ghosts from the upper half only.
    pub half: bool,
}

impl PlanConfig {
    /// The paper's main configuration: 1 shell, Newton on (13 neighbors).
    pub const NEWTON: PlanConfig = PlanConfig {
        shells: 1,
        half: true,
    };
    /// Full-neighbor-list potentials: 1 shell, 26 neighbors.
    pub const FULL: PlanConfig = PlanConfig {
        shells: 1,
        half: false,
    };
}

/// One directed neighbor relationship of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborLink {
    /// Grid offset from me to the neighbor.
    pub offset: NeighborOffset,
    /// The neighbor's rank id.
    pub rank: usize,
    /// The neighbor's node id.
    pub node: usize,
    /// Network hops to the neighbor.
    pub hops: u32,
    /// Periodic shift to add to *my* atom positions when they are sent to
    /// this neighbor (non-zero only across global box boundaries).
    pub shift: [f64; 3],
}

/// A rank's ghost-communication plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommPlan {
    /// This rank.
    pub me: usize,
    /// This rank's sub-box.
    pub sub: Box3,
    /// Ghost cutoff (force cutoff + skin).
    pub r_ghost: f64,
    /// Neighbors I receive ghost atoms from (and send forces back to).
    /// Upper half under Newton; all neighbors otherwise.
    pub recv_from: Vec<NeighborLink>,
    /// Neighbors I send my border atoms to (and receive forces from).
    /// Exactly the opposite offsets of `recv_from`.
    pub send_to: Vec<NeighborLink>,
    /// The six face neighbors (`face_links[dim][0]` = -dim,
    /// `face_links[dim][1]` = +dim): the exchange (migration) stage sweeps
    /// these regardless of the ghost pattern, as LAMMPS does.
    pub face_links: [[NeighborLink; 2]; 3],
    config: PlanConfig,
}

impl CommPlan {
    /// Build the plan for `rank` given the machine mapping, the global box
    /// and the ghost cutoff.
    #[must_use]
    pub fn build(
        rank: usize,
        map: &RankMap,
        global: &Box3,
        r_ghost: f64,
        config: PlanConfig,
    ) -> Self {
        let rg = map.rank_grid;
        let c = map.rank_coord(rank);
        let sub = sub_box_of(global, rg, c);
        let recv_offsets = neighbor_offsets(config.shells, config.half);
        let link = |off: NeighborOffset| -> NeighborLink {
            let target = [
                i64::from(c[0]) + i64::from(off.d[0]),
                i64::from(c[1]) + i64::from(off.d[1]),
                i64::from(c[2]) + i64::from(off.d[2]),
            ];
            let nb = map.rank_at(target);
            // Shift my atoms so they appear adjacent to the neighbor's box
            // when the link wraps the global boundary.
            let l = global.lengths();
            let mut shift = [0.0; 3];
            for d in 0..3 {
                let wrapped = target[d].div_euclid(i64::from(rg[d]));
                shift[d] = -(wrapped as f64) * l[d];
            }
            NeighborLink {
                offset: off,
                rank: nb,
                node: map.node_of(nb),
                hops: map.hops(rank, nb),
                shift,
            }
        };
        // I receive ghosts from `recv_offsets`; I send my atoms to the
        // *opposite* offsets (for whom I sit in their recv set). The shift
        // attached to a send link applies to my outgoing atoms.
        let recv_from: Vec<NeighborLink> = recv_offsets.iter().map(|&o| link(o)).collect();
        let send_to: Vec<NeighborLink> = recv_offsets.iter().map(|&o| link(o.opposite())).collect();
        let face = |d: usize, dir: i8| -> NeighborLink {
            let mut off = [0i8; 3];
            off[d] = dir;
            link(NeighborOffset { d: off })
        };
        let face_links = [
            [face(0, -1), face(0, 1)],
            [face(1, -1), face(1, 1)],
            [face(2, -1), face(2, 1)],
        ];
        CommPlan {
            me: rank,
            sub,
            r_ghost,
            recv_from,
            send_to,
            face_links,
            config,
        }
    }

    /// The plan's configuration.
    #[must_use]
    pub fn config(&self) -> PlanConfig {
        self.config
    }

    /// Neighbor count per direction (13, 26, 62 or 124).
    #[must_use]
    pub fn neighbor_count(&self) -> usize {
        self.recv_from.len()
    }

    /// Expected ghost-slab volume sent to a neighbor at `offset`
    /// (Table 1's msg_size column, generalized to anisotropic sub-boxes
    /// and multiple shells).
    #[must_use]
    pub fn slab_volume(&self, offset: NeighborOffset) -> f64 {
        slab_volume(&self.sub, self.r_ghost, offset)
    }

    /// Estimated *maximum* atoms in the slab toward `offset` at the given
    /// number density (used by §3.4 to pre-size registered buffers: the
    /// "theoretical upper limit of atoms to be exchanged").
    #[must_use]
    pub fn max_atoms_estimate(&self, offset: NeighborOffset, density: f64) -> usize {
        max_atoms_in(self.slab_volume(offset), density)
    }

    /// Total expected ghost atoms received per exchange (the plan-level
    /// counterpart of Table 1's `total_atom`).
    #[must_use]
    pub fn total_ghost_estimate(&self, density: f64) -> f64 {
        self.recv_from
            .iter()
            .map(|l| density * self.slab_volume(l.offset))
            .sum()
    }
}

/// Volume of the ghost slab a `sub`-sized box sends toward grid `offset`
/// at ghost depth `r_ghost`: the one slab formula behind
/// [`CommPlan::slab_volume`] and `CommGraph::slab_volume`.
#[must_use]
pub fn slab_volume(sub: &Box3, r_ghost: f64, offset: NeighborOffset) -> f64 {
    let a = sub.lengths();
    let mut v = 1.0;
    for d in 0..3 {
        v *= match offset.d[d].unsigned_abs() {
            0 => a[d],
            1 => r_ghost.min(a[d]),
            // Shell s covers the band ((s-1)a, min(r, sa)] of ghost depth
            // beyond s-1 whole sub-boxes.
            s => (r_ghost - (f64::from(s) - 1.0) * a[d]).clamp(0.0, a[d]),
        };
    }
    v
}

/// Buffer pre-sizing bound for a slab of `volume` at number `density`: 2x
/// headroom over the mean absorbs density fluctuations plus the
/// skin-induced overcount; +8 covers tiny slabs.
#[must_use]
pub fn max_atoms_in(volume: f64, density: f64) -> usize {
    (2.0 * density * volume).ceil() as usize + 8
}

/// Sub-box of the rank at grid coordinate `c` in an `rg` decomposition.
#[must_use]
pub fn sub_box_of(global: &Box3, rg: [u32; 3], c: [u32; 3]) -> Box3 {
    let mut frac_lo = [0.0; 3];
    let mut frac_hi = [0.0; 3];
    for d in 0..3 {
        frac_lo[d] = f64::from(c[d]) / f64::from(rg[d]);
        frac_hi[d] = f64::from(c[d] + 1) / f64::from(rg[d]);
    }
    global.fractional_sub_box(frac_lo, frac_hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo_map::Placement;
    use tofumd_tofu::CellGrid;

    fn setup() -> (RankMap, Box3) {
        let grid = CellGrid::from_node_mesh([8, 12, 8]).unwrap();
        let map = RankMap::new(grid, Placement::TopoAware);
        // Global box scaled so each sub-box is 10 x 10 x 10.
        let rg = map.rank_grid;
        let global = Box3::from_lengths([
            10.0 * f64::from(rg[0]),
            10.0 * f64::from(rg[1]),
            10.0 * f64::from(rg[2]),
        ]);
        (map, global)
    }

    /// The four paper instances of the one graph family: Newton-halved
    /// and full neighbor sets at one and two halo shells.
    const INSTANCES: [(PlanConfig, usize); 4] = [
        (PlanConfig::NEWTON, 13),
        (
            PlanConfig {
                shells: 1,
                half: false,
            },
            26,
        ),
        (
            PlanConfig {
                shells: 2,
                half: true,
            },
            62,
        ),
        (
            PlanConfig {
                shells: 2,
                half: false,
            },
            124,
        ),
    ];

    #[test]
    fn plan_instances_have_paper_neighbor_counts() {
        let (map, global) = setup();
        for (cfg, expect) in INSTANCES {
            let p = CommPlan::build(0, &map, &global, 2.8, cfg);
            assert_eq!(p.neighbor_count(), expect, "{cfg:?}");
            assert_eq!(p.send_to.len(), expect, "{cfg:?}");
        }
    }

    #[test]
    fn send_and_recv_sets_are_opposite() {
        let (map, global) = setup();
        for (cfg, _) in INSTANCES {
            let p = CommPlan::build(5, &map, &global, 2.8, cfg);
            for (r, s) in p.recv_from.iter().zip(&p.send_to) {
                assert_eq!(r.offset.opposite(), s.offset, "{cfg:?}");
            }
        }
    }

    #[test]
    fn plan_is_globally_consistent() {
        // If rank A receives from B at offset o, then B must send to the
        // rank at offset -o from itself — which is A.
        let (map, global) = setup();
        let a = 123;
        for (cfg, _) in INSTANCES {
            let pa = CommPlan::build(a, &map, &global, 2.8, cfg);
            for l in &pa.recv_from {
                let pb = CommPlan::build(l.rank, &map, &global, 2.8, cfg);
                assert!(
                    pb.send_to.iter().any(|s| s.rank == a),
                    "{cfg:?}: neighbor {} does not send to {a}",
                    l.rank
                );
            }
        }
    }

    #[test]
    fn shifts_are_zero_in_the_interior() {
        let (map, global) = setup();
        // Pick an interior rank: grid coord (4, 12, 8).
        let r = map.rank_at([4, 12, 8]);
        let p = CommPlan::build(r, &map, &global, 2.8, PlanConfig::NEWTON);
        for l in p.recv_from.iter().chain(&p.send_to) {
            assert_eq!(l.shift, [0.0; 3], "interior rank must not shift");
        }
    }

    #[test]
    fn shifts_wrap_at_the_boundary() {
        let (map, global) = setup();
        let r = map.rank_at([0, 0, 0]); // corner rank
        let p = CommPlan::build(r, &map, &global, 2.8, PlanConfig::NEWTON);
        let l = global.lengths();
        // Sending to the (-1,-1,-1) neighbor wraps all three dims:
        // my atoms must shift by +L to appear below that neighbor... i.e.
        // by -(-1)*L = +L per dim.
        let s = p
            .send_to
            .iter()
            .find(|s| s.offset.d == [-1, -1, -1])
            .expect("corner send link");
        assert_eq!(s.shift, [l[0], l[1], l[2]]);
    }

    #[test]
    fn table1_volume_shapes() {
        let (map, global) = setup();
        let p = CommPlan::build(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let a = 10.0;
        let r = 2.0;
        // Face: a^2 r, edge: a r^2, corner: r^3 (Table 1 p2p rows).
        let face = p.slab_volume(NeighborOffset { d: [1, 0, 0] });
        let edge = p.slab_volume(NeighborOffset { d: [1, 1, 0] });
        let corner = p.slab_volume(NeighborOffset { d: [1, 1, 1] });
        assert!((face - a * a * r).abs() < 1e-9);
        assert!((edge - a * r * r).abs() < 1e-9);
        assert!((corner - r * r * r).abs() < 1e-9);
        // Total over 13 half neighbors = (6 a^2 r + 12 a r^2 + 8 r^3)/2.
        let total: f64 = p
            .recv_from
            .iter()
            .map(|link| p.slab_volume(link.offset))
            .sum();
        let expect = 0.5 * (6.0 * a * a * r + 12.0 * a * r * r + 8.0 * r * r * r);
        assert!((total - expect).abs() < 1e-9, "{total} vs {expect}");
    }

    #[test]
    fn second_shell_volume_vanishes_when_cutoff_small() {
        let (map, global) = setup();
        let p = CommPlan::build(0, &map, &global, 2.0, PlanConfig::NEWTON);
        // r = 2 < a = 10: second-shell slabs are empty.
        let v = p.slab_volume(NeighborOffset { d: [2, 0, 0] });
        assert_eq!(v, 0.0);
    }

    #[test]
    fn buffer_estimates_have_headroom() {
        let (map, global) = setup();
        let p = CommPlan::build(0, &map, &global, 2.0, PlanConfig::NEWTON);
        let density = 0.8442;
        let face = NeighborOffset { d: [1, 0, 0] };
        let est = p.max_atoms_estimate(face, density);
        let mean = density * p.slab_volume(face);
        assert!(est as f64 >= 1.5 * mean);
    }
}
