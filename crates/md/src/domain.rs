//! Spatial decomposition vocabulary (Fig. 1 of the paper).
//!
//! The uniform `px x py x pz` brick grid itself lives where it is used
//! (`tofumd-core`'s `RankMap` and `CommGraph::grid`); this module holds
//! what both decompositions share — the neighbor directions of the
//! paper's three regimes: 26 neighbors (1 shell, full), 13 (1 shell,
//! Newton half), and the extended-experiment 124/62 sets (2 shells, when
//! the cutoff exceeds the sub-box edge — Fig. 15) — and the
//! recursive-coordinate-bisection decomposition for density-skewed
//! systems.

use crate::region::Box3;
use crate::wirefmt;

/// One neighbor direction in the decomposition grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NeighborOffset {
    /// Grid offset per dimension, each in `[-shells, +shells]`.
    pub d: [i8; 3],
}

impl NeighborOffset {
    /// Number of non-zero components: 1 = face, 2 = edge, 3 = corner.
    /// This is also the hop count in a 3D-torus-mapped topology (Table 1).
    #[must_use]
    pub fn hops(&self) -> u8 {
        self.d.iter().filter(|&&v| v != 0).count() as u8
    }

    /// The opposite direction.
    #[must_use]
    pub fn opposite(&self) -> NeighborOffset {
        NeighborOffset {
            d: [-self.d[0], -self.d[1], -self.d[2]],
        }
    }

    /// True if this offset is in the "upper half" used with Newton's 3rd
    /// law: z > 0, or z == 0 and y > 0, or z == y == 0 and x > 0.
    /// With Newton on, a rank *receives ghosts from* the upper-half
    /// neighbors and *sends forces back* to them (Fig. 5).
    #[must_use]
    pub fn is_upper_half(&self) -> bool {
        let [x, y, z] = self.d;
        z > 0 || (z == 0 && (y > 0 || (y == 0 && x > 0)))
    }
}

/// Enumerate neighbor offsets for `shells` rings.
///
/// * `half = false`: all `(2s+1)^3 - 1` neighbors (26 for 1 shell, 124
///   for 2 shells).
/// * `half = true`: only the upper half (13 for 1 shell, 62 for 2 shells),
///   as used when Newton's 3rd law halves the ghost communication.
#[must_use]
pub fn neighbor_offsets(shells: usize, half: bool) -> Vec<NeighborOffset> {
    assert!(shells >= 1 && shells <= i8::MAX as usize);
    let s = shells as i8;
    let mut out = Vec::new();
    for dz in -s..=s {
        for dy in -s..=s {
            for dx in -s..=s {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let off = NeighborOffset { d: [dx, dy, dz] };
                if !half || off.is_upper_half() {
                    out.push(off);
                }
            }
        }
    }
    out
}

/// A node of the RCB split tree: either a final rank or a coordinate cut.
#[derive(Debug, Clone, PartialEq)]
enum RcbNode {
    /// Subtree is a single rank.
    Leaf(usize),
    /// Binary split: positions with `x[dim] < cut` descend into `below`,
    /// the rest into `above` (indices into the tree's node vector).
    Split {
        dim: usize,
        cut: f64,
        below: usize,
        above: usize,
    },
}

/// A recursive-coordinate-bisection decomposition: the global box is split
/// by weighted-median cuts along the longest axis until every rank owns one
/// half-open box. Unlike the uniform brick grid, sub-boxes are not
/// congruent — each holds (close to) the same number of atoms, which is
/// what balances density-skewed systems.
///
/// The construction is deterministic: cuts are exact order statistics of
/// the coordinates (`sort_by(total_cmp)`), so the same positions always
/// yield the same boxes on any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct RcbDecomposition {
    /// The global simulation box.
    pub global: Box3,
    /// Per-rank half-open sub-box; the boxes tile `global` exactly.
    pub boxes: Vec<Box3>,
    /// Split tree for `owner_of` descent; node 0 is the root.
    tree: Vec<RcbNode>,
}

/// Typed failure of an RCB build. The `split` partition tests
/// `p[dim] < cut`, which a NaN coordinate always fails — it would land on
/// the hi side of *every* cut and silently corrupt ownership. Matching the
/// lockstep bisector's NaN-is-divergence rule, a non-finite input is a
/// detected error, never a quietly mis-owned atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcbError {
    /// `positions[index]` has a NaN or infinite component along `dim`.
    NonFiniteCoordinate {
        /// Index into the positions slice handed to the build.
        index: usize,
        /// Offending dimension (0 = x, 1 = y, 2 = z).
        dim: usize,
    },
}

impl std::fmt::Display for RcbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RcbError::NonFiniteCoordinate { index, dim } => write!(
                f,
                "RCB input position {index} has a non-finite coordinate along dim {dim}"
            ),
        }
    }
}

impl std::error::Error for RcbError {}

impl RcbDecomposition {
    /// Build an RCB decomposition of `global` into `nranks` boxes balanced
    /// over `positions` (which need not be wrapped; they are wrapped here).
    ///
    /// # Panics
    /// On a non-finite coordinate; rebuilds from untrusted mid-run
    /// positions should use [`RcbDecomposition::try_build`].
    #[must_use]
    pub fn build(nranks: usize, positions: &[[f64; 3]], global: &Box3) -> Self {
        match Self::try_build(nranks, positions, global) {
            Ok(rcb) => rcb,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible build: rejects NaN/infinite coordinates with a typed
    /// error instead of letting them land hi-side of every cut.
    pub fn try_build(
        nranks: usize,
        positions: &[[f64; 3]],
        global: &Box3,
    ) -> Result<Self, RcbError> {
        assert!(nranks > 0, "RCB needs at least one rank");
        for (index, p) in positions.iter().enumerate() {
            for (dim, c) in p.iter().enumerate() {
                if !c.is_finite() {
                    return Err(RcbError::NonFiniteCoordinate { index, dim });
                }
            }
        }
        let mut pts: Vec<[f64; 3]> = positions.iter().map(|p| global.wrap(*p).0).collect();
        let mut boxes = vec![Box3::from_lengths([1.0; 3]); nranks];
        let mut tree = Vec::new();
        let n = pts.len();
        Self::split(&mut tree, &mut boxes, &mut pts, 0..n, *global, 0, nranks);
        Ok(RcbDecomposition {
            global: *global,
            boxes,
            tree,
        })
    }

    /// Recursively split `pts[range]` (in-place partitioned) over ranks
    /// `[rank0, rank0 + count)` inside `bounds`, appending tree nodes.
    /// Returns the index of the subtree's root node.
    #[allow(clippy::too_many_arguments)]
    fn split(
        tree: &mut Vec<RcbNode>,
        boxes: &mut [Box3],
        pts: &mut [[f64; 3]],
        range: std::ops::Range<usize>,
        bounds: Box3,
        rank0: usize,
        count: usize,
    ) -> usize {
        if count == 1 {
            boxes[rank0] = bounds;
            tree.push(RcbNode::Leaf(rank0));
            return tree.len() - 1;
        }
        let n_below = count / 2;
        let l = bounds.lengths();
        let slice = &mut pts[range.clone()];
        let npts = slice.len();
        // A coordinate cut can only fall *between* distinct values, and
        // lattices hold whole planes of tied coordinates, so the
        // achievable below-counts are quantized — differently per
        // dimension. Score every dimension by the tie boundary closest
        // to the ideal weighted split and keep the best (ties broken
        // toward the longest edge), cutting midway between the two
        // distinct values so owner_of never sits on an atom coordinate.
        let target = npts as f64 * n_below as f64 / count as f64;
        let mut best: Option<(f64, f64, usize, f64)> = None; // (err, -len, dim, cut)
        for d in 0..3 {
            let mut coords: Vec<f64> = slice.iter().map(|p| p[d]).collect();
            // `total_cmp` ties are equal bits: any sort gives this array.
            coords.sort_unstable_by(f64::total_cmp);
            for m in 1..npts {
                if coords[m] > coords[m - 1] {
                    let err = (m as f64 - target).abs();
                    let key = (err, -l[d], d, 0.5 * (coords[m - 1] + coords[m]));
                    if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                        best = Some(key);
                    }
                }
            }
        }
        let (dim, mut cut) = match best {
            Some((_, _, d, c)) => (d, c),
            None => {
                // Empty or fully degenerate point set: halve the longest
                // edge so the recursion still tiles the bounds.
                let d = (0..3).fold(0, |b, d| if l[d] > l[b] { d } else { b });
                (d, 0.5 * (bounds.lo[d] + bounds.hi[d]))
            }
        };
        let eps = 1e-9 * (bounds.hi[dim] - bounds.lo[dim]);
        cut = cut.clamp(bounds.lo[dim] + eps, bounds.hi[dim] - eps);
        // Stable in-place partition: everything `< cut` first.
        let mut lo_side: Vec<[f64; 3]> = Vec::with_capacity(npts);
        let mut hi_side: Vec<[f64; 3]> = Vec::with_capacity(npts);
        for p in slice.iter() {
            if p[dim] < cut {
                lo_side.push(*p);
            } else {
                hi_side.push(*p);
            }
        }
        let n_lo = lo_side.len();
        slice[..n_lo].copy_from_slice(&lo_side);
        slice[n_lo..].copy_from_slice(&hi_side);
        let mut below_bounds = bounds;
        below_bounds.hi[dim] = cut;
        let mut above_bounds = bounds;
        above_bounds.lo[dim] = cut;
        let here = tree.len();
        tree.push(RcbNode::Split {
            dim,
            cut,
            below: 0,
            above: 0,
        });
        let below = Self::split(
            tree,
            boxes,
            pts,
            range.start..range.start + n_lo,
            below_bounds,
            rank0,
            n_below,
        );
        let above = Self::split(
            tree,
            boxes,
            pts,
            range.start + n_lo..range.end,
            above_bounds,
            rank0 + n_below,
            count - n_below,
        );
        if let RcbNode::Split {
            below: b, above: a, ..
        } = &mut tree[here]
        {
            *b = below;
            *a = above;
        }
        here
    }

    /// Total rank count.
    #[must_use]
    pub fn nranks(&self) -> usize {
        self.boxes.len()
    }

    /// Which rank owns a wrapped global position (tree descent; positions
    /// outside the global box are wrapped first).
    #[must_use]
    pub fn owner_of(&self, x: &[f64; 3]) -> usize {
        let (w, _) = self.global.wrap(*x);
        let mut node = 0;
        loop {
            match self.tree[node] {
                RcbNode::Leaf(rank) => return rank,
                RcbNode::Split {
                    dim,
                    cut,
                    below,
                    above,
                } => node = if w[dim] < cut { below } else { above },
            }
        }
    }

    /// Append this decomposition (boxes *and* the private split tree) to a
    /// checkpoint payload in the [`crate::wirefmt`] format.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        wirefmt::put_f64x3(out, &self.global.lo);
        wirefmt::put_f64x3(out, &self.global.hi);
        wirefmt::put_usize(out, self.boxes.len());
        for b in &self.boxes {
            wirefmt::put_f64x3(out, &b.lo);
            wirefmt::put_f64x3(out, &b.hi);
        }
        wirefmt::put_usize(out, self.tree.len());
        for node in &self.tree {
            match node {
                RcbNode::Leaf(rank) => {
                    wirefmt::put_u8(out, 0);
                    wirefmt::put_usize(out, *rank);
                }
                RcbNode::Split {
                    dim,
                    cut,
                    below,
                    above,
                } => {
                    wirefmt::put_u8(out, 1);
                    wirefmt::put_usize(out, *dim);
                    wirefmt::put_f64(out, *cut);
                    wirefmt::put_usize(out, *below);
                    wirefmt::put_usize(out, *above);
                }
            }
        }
    }

    /// Decode a decomposition previously written by
    /// [`RcbDecomposition::wire_encode`]. Tree structure is validated
    /// (node indices in range, leaf ranks within the box count, child
    /// links strictly forward) so a corrupt payload can never send
    /// [`RcbDecomposition::owner_of`] out of bounds or into a cycle.
    pub fn wire_decode(r: &mut wirefmt::WireReader<'_>) -> Result<Self, wirefmt::WireError> {
        let global = Box3 {
            lo: r.f64x3()?,
            hi: r.f64x3()?,
        };
        let nboxes = r.usize_(true)?;
        let mut boxes = Vec::with_capacity(nboxes);
        for _ in 0..nboxes {
            boxes.push(Box3 {
                lo: r.f64x3()?,
                hi: r.f64x3()?,
            });
        }
        let nnodes = r.usize_(true)?;
        let mut tree = Vec::with_capacity(nnodes);
        let bad = |what: String| wirefmt::WireError { at: 0, what };
        for i in 0..nnodes {
            match r.u8_()? {
                0 => {
                    let rank = r.usize_(false)?;
                    if rank >= nboxes {
                        return Err(bad(format!("RCB leaf rank {rank} >= {nboxes} boxes")));
                    }
                    tree.push(RcbNode::Leaf(rank));
                }
                1 => {
                    let dim = r.usize_(false)?;
                    let cut = r.f64_()?;
                    let below = r.usize_(false)?;
                    let above = r.usize_(false)?;
                    if dim >= 3 {
                        return Err(bad(format!("RCB split dim {dim} out of range")));
                    }
                    // Children are appended after their parent by `split`,
                    // so strictly-forward links are both a format invariant
                    // and the cycle guard for `owner_of`'s descent.
                    if below <= i || above <= i || below >= nnodes || above >= nnodes {
                        return Err(bad(format!(
                            "RCB split node {i} has non-forward children {below}/{above} of {nnodes}"
                        )));
                    }
                    tree.push(RcbNode::Split {
                        dim,
                        cut,
                        below,
                        above,
                    });
                }
                t => return Err(bad(format!("unknown RCB node tag {t}"))),
            }
        }
        if tree.is_empty() && !boxes.is_empty() {
            return Err(bad("RCB tree empty but boxes present".to_owned()));
        }
        Ok(RcbDecomposition {
            global,
            boxes,
            tree,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_counts_match_paper() {
        // Paper: 26 neighbors full / 13 with Newton (1 shell);
        // 124 / 62 in the extended experiment (2 shells).
        assert_eq!(neighbor_offsets(1, false).len(), 26);
        assert_eq!(neighbor_offsets(1, true).len(), 13);
        assert_eq!(neighbor_offsets(2, false).len(), 124);
        assert_eq!(neighbor_offsets(2, true).len(), 62);
    }

    #[test]
    fn half_set_is_exact_complement() {
        let full = neighbor_offsets(1, false);
        let half = neighbor_offsets(1, true);
        for off in &full {
            let in_half = half.contains(off);
            let opp_in_half = half.contains(&off.opposite());
            assert!(in_half ^ opp_in_half, "offset {off:?} not split correctly");
        }
    }

    #[test]
    fn hops_classify_face_edge_corner() {
        // Table 1: faces (1 hop) x3, edges (2 hops) x6, corners (3 hops) x4
        // in the half set.
        let half = neighbor_offsets(1, true);
        let faces = half.iter().filter(|o| o.hops() == 1).count();
        let edges = half.iter().filter(|o| o.hops() == 2).count();
        let corners = half.iter().filter(|o| o.hops() == 3).count();
        assert_eq!((faces, edges, corners), (3, 6, 4));
    }

    /// Deterministic pseudo-uniform positions (no RNG dependency).
    fn scatter(n: usize, global: &Box3) -> Vec<[f64; 3]> {
        let l = global.lengths();
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let u = |s: u32| ((h >> s) & 0xffff) as f64 / 65536.0;
                [
                    global.lo[0] + u(0) * l[0],
                    global.lo[1] + u(16) * l[1],
                    global.lo[2] + u(32) * l[2],
                ]
            })
            .collect()
    }

    #[test]
    fn rcb_boxes_tile_the_global_box() {
        let global = Box3::from_lengths([12.0, 8.0, 6.0]);
        let pts = scatter(500, &global);
        for nranks in [1, 2, 3, 5, 8, 48] {
            let rcb = RcbDecomposition::build(nranks, &pts, &global);
            let vol: f64 = rcb.boxes.iter().map(Box3::volume).sum();
            assert!(
                (vol - global.volume()).abs() < 1e-6 * global.volume(),
                "{nranks} ranks: volume {vol} vs {}",
                global.volume()
            );
        }
    }

    #[test]
    fn rcb_owner_matches_boxes() {
        let global = Box3::from_lengths([10.0; 3]);
        let pts = scatter(300, &global);
        let rcb = RcbDecomposition::build(7, &pts, &global);
        for p in &pts {
            let r = rcb.owner_of(p);
            assert!(rcb.boxes[r].contains(p), "{p:?} not in box of rank {r}");
        }
    }

    #[test]
    fn rcb_balances_a_density_gradient() {
        // Density ramp along x: pile most atoms into low x. A uniform grid
        // leaves the high-x ranks nearly empty; RCB stays near 1.0.
        let global = Box3::from_lengths([16.0, 4.0, 4.0]);
        let mut pts = Vec::new();
        for p in scatter(2000, &global) {
            let frac = (p[0] - global.lo[0]) / global.lengths()[0];
            let h = ((pts.len() as u64 + 17).wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as f64
                / 4294967296.0;
            if h > 0.9 * frac {
                pts.push(p);
            }
        }
        let nranks = 8;
        let rcb = RcbDecomposition::build(nranks, &pts, &global);
        // Max-over-mean atom count under an ownership rule; the uniform
        // baseline is eight 2.0-wide slabs along x.
        let imbalance = |owner: &dyn Fn(&[f64; 3]) -> usize| {
            let mut counts = vec![0usize; nranks];
            for p in &pts {
                counts[owner(p)] += 1;
            }
            *counts.iter().max().unwrap() as f64 / (pts.len() as f64 / nranks as f64)
        };
        let grid_imb = imbalance(&|p| ((p[0] / 2.0) as usize).min(nranks - 1));
        let rcb_imb = imbalance(&|p| rcb.owner_of(p));
        assert!(rcb_imb < 1.15, "RCB imbalance {rcb_imb} should be near 1.0");
        assert!(
            rcb_imb < 0.75 * grid_imb,
            "RCB {rcb_imb} must clearly beat the grid {grid_imb}"
        );
    }

    #[test]
    fn rcb_is_deterministic() {
        let global = Box3::from_lengths([9.0; 3]);
        let pts = scatter(400, &global);
        let a = RcbDecomposition::build(6, &pts, &global);
        let b = RcbDecomposition::build(6, &pts, &global);
        assert_eq!(a, b);
    }

    #[test]
    fn rcb_rejects_non_finite_coordinates() {
        let global = Box3::from_lengths([8.0; 3]);
        let mut pts = scatter(50, &global);
        pts[13][1] = f64::NAN;
        assert_eq!(
            RcbDecomposition::try_build(4, &pts, &global),
            Err(RcbError::NonFiniteCoordinate { index: 13, dim: 1 })
        );
        pts[13][1] = f64::INFINITY;
        assert_eq!(
            RcbDecomposition::try_build(4, &pts, &global),
            Err(RcbError::NonFiniteCoordinate { index: 13, dim: 1 })
        );
        pts[13][1] = 2.0;
        assert!(RcbDecomposition::try_build(4, &pts, &global).is_ok());
        let msg = RcbError::NonFiniteCoordinate { index: 13, dim: 1 }.to_string();
        assert!(msg.contains("13") && msg.contains("dim 1"), "{msg}");
    }

    #[test]
    fn rcb_handles_empty_and_tiny_inputs() {
        let global = Box3::from_lengths([4.0; 3]);
        let rcb = RcbDecomposition::build(4, &[], &global);
        assert_eq!(rcb.nranks(), 4);
        let vol: f64 = rcb.boxes.iter().map(Box3::volume).sum();
        assert!((vol - global.volume()).abs() < 1e-9);
        // One atom, many ranks: every position still resolves to an owner.
        let rcb = RcbDecomposition::build(5, &[[1.0; 3]], &global);
        assert!(rcb.owner_of(&[3.9, 0.1, 2.0]) < 5);
    }

    #[test]
    fn rcb_wire_round_trip_is_lossless() {
        let global = Box3::from_lengths([9.0; 3]);
        let pts = scatter(300, &global);
        let rcb = RcbDecomposition::build(7, &pts, &global);
        let mut bytes = Vec::new();
        rcb.wire_encode(&mut bytes);
        let mut r = wirefmt::WireReader::new(&bytes);
        let back = RcbDecomposition::wire_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, rcb);
        for p in &pts {
            assert_eq!(back.owner_of(p), rcb.owner_of(p));
        }
    }

    #[test]
    fn rcb_wire_decode_rejects_malformed_trees() {
        let global = Box3::from_lengths([9.0; 3]);
        let pts = scatter(64, &global);
        let rcb = RcbDecomposition::build(4, &pts, &global);
        let mut bytes = Vec::new();
        rcb.wire_encode(&mut bytes);
        // Truncation is typed, not a panic.
        let mut r = wirefmt::WireReader::new(&bytes[..bytes.len() - 3]);
        assert!(RcbDecomposition::wire_decode(&mut r).is_err());
        // A self-referential split (cycle) is rejected before owner_of
        // could ever spin on it: re-encode with the root's children
        // pointing at itself.
        let mut hostile = Vec::new();
        wirefmt::put_f64x3(&mut hostile, &global.lo);
        wirefmt::put_f64x3(&mut hostile, &global.hi);
        wirefmt::put_usize(&mut hostile, 1);
        wirefmt::put_f64x3(&mut hostile, &global.lo);
        wirefmt::put_f64x3(&mut hostile, &global.hi);
        wirefmt::put_usize(&mut hostile, 1);
        wirefmt::put_u8(&mut hostile, 1);
        wirefmt::put_usize(&mut hostile, 0); // dim
        wirefmt::put_f64(&mut hostile, 4.5); // cut
        wirefmt::put_usize(&mut hostile, 0); // below -> itself
        wirefmt::put_usize(&mut hostile, 0); // above -> itself
        let mut r = wirefmt::WireReader::new(&hostile);
        let e = RcbDecomposition::wire_decode(&mut r).unwrap_err();
        assert!(e.to_string().contains("non-forward"), "{e}");
    }
}
