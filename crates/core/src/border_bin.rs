//! Border binning (§3.5.2).
//!
//! To decide which neighbor sub-boxes a local atom must be sent to, the
//! baseline scans every neighbor's ghost slab per atom. The paper instead
//! divides the sub-box into a 3x3x3 grid of bins once per setup — a border
//! shell of thickness `r_ghost` plus the interior — and precomputes, per
//! bin, the set of neighbors whose ghost region the bin intersects. Packing
//! then classifies each atom with three comparisons and a table lookup.
//!
//! The O(1) bin table is exact only while the border shells of opposite
//! faces do not overlap (`r_ghost <= edge/2`) and all neighbors are one
//! shell out. The long-cutoff regimes of Fig. 15 (62/124 neighbors, cutoff
//! larger than the sub-box) fall back to an exact per-neighbor slab test.

use tofumd_md::domain::NeighborOffset;
use tofumd_md::region::Box3;

/// Atom -> target-neighbor classifier for border packing.
#[derive(Debug, Clone)]
pub struct BorderBins {
    sub: Box3,
    r_ghost: f64,
    mode: Mode,
}

#[derive(Debug, Clone)]
enum Mode {
    /// 3x3x3 bin lookup (the paper's optimization).
    Bins { targets: Vec<Vec<u16>> },
    /// Exact per-neighbor slab test (long-cutoff fallback).
    Exact { offsets: Vec<NeighborOffset> },
}

/// Classify one coordinate against the sub-box border shell:
/// 0 = within `r` of the low face, 2 = within `r` of the high face,
/// 1 = interior.
#[inline]
fn side(x: f64, lo: f64, hi: f64, r: f64) -> usize {
    if x < lo + r {
        0
    } else if x >= hi - r {
        2
    } else {
        1
    }
}

/// Geometric interior classification for comm/compute overlap: flag the
/// local atoms strictly farther than `r` from every face of `sub` (the
/// `side() == 1` zone of the border bins in all three dims). With
/// `r >= cutoff + skin`, such an atom is not sent to any neighbor and no
/// incoming ghost can fall within the neighbor-list cutoff of it, so its
/// CSR row and pair updates are computable before the halo arrives.
/// Rewrites `flags` in place, one entry per local atom.
pub fn interior_flags(x: &[[f64; 3]], nlocal: usize, sub: &Box3, r: f64, flags: &mut Vec<bool>) {
    flags.clear();
    flags.extend(
        x[..nlocal]
            .iter()
            .map(|p| (0..3).all(|d| side(p[d], sub.lo[d], sub.hi[d], r) == 1)),
    );
}

/// Exact slab test: does the neighbor at `off` (possibly several shells
/// out) need an atom at `x`? The neighbor's box along dim d spans
/// `[lo + o*a, lo + (o+1)*a)`; it needs atoms within `r` of that box.
#[inline]
#[must_use]
pub fn slab_needs(x: &[f64; 3], sub: &Box3, r: f64, off: &NeighborOffset) -> bool {
    let a = sub.lengths();
    for d in 0..3 {
        let o = f64::from(off.d[d]);
        let ok = if off.d[d] > 0 {
            x[d] >= sub.hi[d] + (o - 1.0) * a[d] - r
        } else if off.d[d] < 0 {
            x[d] < sub.lo[d] + (o + 1.0) * a[d] + r
        } else {
            true
        };
        if !ok {
            return false;
        }
    }
    true
}

impl BorderBins {
    /// Build the classifier for the given neighbor offset set.
    ///
    /// Selects the O(1) bin table when it is exact (single-shell neighbors
    /// and non-overlapping border shells), otherwise the exact slab test.
    #[must_use]
    pub fn new(sub: Box3, r_ghost: f64, neighbors: &[NeighborOffset]) -> Self {
        assert!(r_ghost > 0.0);
        let min_edge = sub.lengths().iter().cloned().fold(f64::INFINITY, f64::min);
        let single_shell = neighbors.iter().all(|o| o.ring() <= 1);
        let mode = if single_shell && r_ghost <= 0.5 * min_edge {
            let mut targets = vec![Vec::new(); 27];
            for (bin, t) in targets.iter_mut().enumerate() {
                let b = [bin % 3, (bin / 3) % 3, bin / 9];
                'nb: for (k, off) in neighbors.iter().enumerate() {
                    for d in 0..3 {
                        let need = match off.d[d].signum() {
                            -1 => 0usize,
                            1 => 2,
                            _ => continue,
                        };
                        if b[d] != need {
                            continue 'nb;
                        }
                    }
                    t.push(k as u16);
                }
            }
            Mode::Bins { targets }
        } else {
            Mode::Exact {
                offsets: neighbors.to_vec(),
            }
        };
        BorderBins { sub, r_ghost, mode }
    }

    /// Visit the indices of neighbors that need an atom at `x`.
    #[inline]
    pub fn for_each_target(&self, x: &[f64; 3], mut f: impl FnMut(u16)) {
        match &self.mode {
            Mode::Bins { targets } => {
                let bx = side(x[0], self.sub.lo[0], self.sub.hi[0], self.r_ghost);
                let by = side(x[1], self.sub.lo[1], self.sub.hi[1], self.r_ghost);
                let bz = side(x[2], self.sub.lo[2], self.sub.hi[2], self.r_ghost);
                for &k in &targets[bx + 3 * by + 9 * bz] {
                    f(k);
                }
            }
            Mode::Exact { offsets } => {
                for (k, off) in offsets.iter().enumerate() {
                    if slab_needs(x, &self.sub, self.r_ghost, off) {
                        f(k as u16);
                    }
                }
            }
        }
    }

    /// Collected targets of an atom (convenience for tests).
    #[must_use]
    pub fn targets_of(&self, x: &[f64; 3]) -> Vec<u16> {
        let mut out = Vec::new();
        self.for_each_target(x, |k| out.push(k));
        out
    }

    /// The baseline per-atom scan (ablation comparator): tests the atom
    /// against every neighbor's slab directly, regardless of mode.
    #[must_use]
    pub fn targets_naive(&self, x: &[f64; 3], neighbors: &[NeighborOffset]) -> Vec<u16> {
        let mut out = Vec::new();
        for (k, off) in neighbors.iter().enumerate() {
            if slab_needs(x, &self.sub, self.r_ghost, off) {
                out.push(k as u16);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tofumd_md::domain::neighbor_offsets;

    fn setup(half: bool) -> (BorderBins, Vec<NeighborOffset>) {
        let neighbors = neighbor_offsets(1, half);
        let sub = Box3::new([0.0; 3], [10.0; 3]);
        (BorderBins::new(sub, 2.0, &neighbors), neighbors)
    }

    #[test]
    fn interior_atom_goes_nowhere() {
        let (bins, _) = setup(false);
        assert!(matches!(bins.mode, Mode::Bins { .. }));
        assert!(bins.targets_of(&[5.0, 5.0, 5.0]).is_empty());
    }

    #[test]
    fn face_atom_goes_to_one_neighbor() {
        let (bins, nbs) = setup(false);
        let t = bins.targets_of(&[0.5, 5.0, 5.0]); // low-x face only
        assert_eq!(t.len(), 1);
        assert_eq!(nbs[t[0] as usize].d, [-1, 0, 0]);
    }

    #[test]
    fn corner_atom_goes_to_seven_neighbors() {
        let (bins, _) = setup(false);
        // Corner bin: 3 faces + 3 edges + 1 corner = 7 targets.
        let t = bins.targets_of(&[9.9, 9.9, 9.9]);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn matches_naive_scan_everywhere() {
        let (bins, nbs) = setup(false);
        let mut probe = Vec::new();
        for &x in &[0.1, 1.9, 2.1, 5.0, 7.9, 8.1, 9.9] {
            for &y in &[0.5, 5.0, 9.5] {
                probe.push([x, y, 0.3]);
                probe.push([x, y, 5.0]);
                probe.push([x, y, 9.7]);
            }
        }
        for p in &probe {
            let mut fast = bins.targets_of(p);
            let mut slow = bins.targets_naive(p, &nbs);
            fast.sort_unstable();
            slow.sort_unstable();
            assert_eq!(fast, slow, "mismatch at {p:?}");
        }
    }

    #[test]
    fn half_neighbor_set_respected() {
        let (bins, nbs) = setup(true);
        assert_eq!(nbs.len(), 13);
        // +++ corner: the 7 all-non-negative offsets, all in the upper half.
        let t = bins.targets_of(&[9.9, 9.9, 9.9]);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn interior_flags_match_border_shell_complement() {
        let sub = Box3::new([0.0; 3], [10.0; 3]);
        let r = 2.0;
        let x = vec![
            [5.0, 5.0, 5.0],  // deep interior
            [2.0, 5.0, 5.0],  // exactly lo + r: interior (side uses x < lo + r)
            [1.99, 5.0, 5.0], // inside the low-x shell
            [5.0, 8.0, 5.0],  // exactly hi - r: in the shell (x >= hi - r)
            [5.0, 7.99, 5.0], // just inside
            [9.9, 9.9, 9.9],  // corner shell
            [3.0, 3.0, 3.0],  // ghost slot — must be ignored
        ];
        let mut flags = vec![false; 9];
        interior_flags(&x, 6, &sub, r, &mut flags);
        assert_eq!(flags, vec![true, true, false, false, true, false]);
        // Consistency with the bin classifier: interior atoms are exactly
        // the ones the border packer sends nowhere.
        let (bins, _) = setup(false);
        for (p, &f) in x[..6].iter().zip(&flags) {
            assert_eq!(bins.targets_of(p).is_empty(), f, "at {p:?}");
        }
    }

    #[test]
    fn oversized_cutoff_uses_exact_mode() {
        let neighbors = neighbor_offsets(1, false);
        let sub = Box3::new([0.0; 3], [2.0; 3]);
        let bins = BorderBins::new(sub, 5.0, &neighbors);
        assert!(matches!(bins.mode, Mode::Exact { .. }));
        // Cutoff exceeds the box: every atom is needed by every 1-shell
        // neighbor.
        assert_eq!(bins.targets_of(&[1.0, 1.0, 1.0]).len(), 26);
    }

    #[test]
    fn two_shell_slabs_are_exact() {
        // Sub-box edge 2, cutoff 3: shell-2 neighbors need atoms within
        // 3 - 2 = 1 of the matching face.
        let neighbors = neighbor_offsets(2, false);
        let sub = Box3::new([0.0; 3], [2.0; 3]);
        let bins = BorderBins::new(sub, 3.0, &neighbors);
        assert!(matches!(bins.mode, Mode::Exact { .. }));
        let k_pp = neighbors.iter().position(|o| o.d == [2, 0, 0]).unwrap() as u16;
        // x = 1.5: within 1 of the high face -> the (2,0,0) neighbor needs it.
        assert!(bins.targets_of(&[1.5, 1.0, 1.0]).contains(&k_pp));
        // x = 0.5: 2*a - r = 1.0 above it -> not needed by (2,0,0).
        assert!(!bins.targets_of(&[0.5, 1.0, 1.0]).contains(&k_pp));
        // But the (1,0,0) neighbor needs everything (cutoff > edge).
        let k_p = neighbors.iter().position(|o| o.d == [1, 0, 0]).unwrap() as u16;
        assert!(bins.targets_of(&[0.5, 1.0, 1.0]).contains(&k_p));
    }

    #[test]
    fn overlapping_shells_fall_back_to_exact() {
        // r > edge/2: an atom in the middle belongs to BOTH face slabs —
        // the 3-zone bin table cannot express that, so Exact mode must be
        // chosen and report both faces.
        let neighbors = neighbor_offsets(1, false);
        let sub = Box3::new([0.0; 3], [10.0; 3]);
        let bins = BorderBins::new(sub, 6.0, &neighbors);
        assert!(matches!(bins.mode, Mode::Exact { .. }));
        let t = bins.targets_of(&[5.0, 5.0, 5.0]);
        // The center atom is within 6.0 of all six faces.
        assert_eq!(t.len(), 26);
    }
}
