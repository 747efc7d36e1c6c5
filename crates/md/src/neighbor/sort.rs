//! Spatial sorting of local atoms by cell bin.
//!
//! Sorting locals into row-major bin order (on the *same* grid the
//! neighbor build bins over) does two things: it makes position reads
//! cache-friendly during force passes, and it establishes the
//! precondition for the half-stencil neighbor traversal — every local
//! atom in a strictly lower bin has a strictly lower index, detected by
//! [`super::CellBins::sorted_locals`] on the next fill. The sort is stable, so
//! atoms sharing a bin keep their relative order and repeating the sort
//! is a no-op.

use super::bins::BinGrid;
use crate::atom::Atoms;

/// Stable-sort the local atoms of `atoms` by flat bin index on the grid
/// covering `[lo, hi]` with cells at least `min_cell` wide. Callers must
/// pass the identical region and cell size the neighbor build uses, or
/// the sorted-order detection will not engage. Returns `true` if the
/// order changed. Must run while no ghosts are present.
pub fn sort_locals_by_bin(atoms: &mut Atoms, lo: [f64; 3], hi: [f64; 3], min_cell: f64) -> bool {
    let grid = BinGrid::new(lo, hi, min_cell);
    let n = atoms.nlocal;
    // Counting sort, as `CellBins::fill` bins: count per bin, prefix-sum
    // the counts into start slots, scatter in index order — atoms sharing
    // a bin keep their relative order.
    let mut slot = vec![0u32; grid.nbins() + 1];
    let mut keys = Vec::with_capacity(n);
    if grid.count(&atoms.x[..n], &mut slot, &mut keys) {
        return false;
    }
    for b in 1..slot.len() {
        slot[b] += slot[b - 1];
    }
    let mut perm = vec![0u32; n];
    for (i, &b) in keys.iter().enumerate() {
        let at = &mut slot[b as usize];
        perm[*at as usize] = i as u32;
        *at += 1;
    }
    atoms.reorder_locals(&mut perm);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::CellBins;

    #[test]
    fn sort_engages_the_bins_fast_path() {
        // Reverse-ordered positions: definitely unsorted.
        let pos: Vec<[f64; 3]> = (0..20)
            .rev()
            .map(|k| [0.25 + 0.49 * k as f64 % 10.0, 1.0, 1.0])
            .collect();
        let mut atoms = Atoms::from_positions(pos, 1);
        let lo = [0.0; 3];
        let hi = [10.0; 3];
        let mut bins = CellBins::new(lo, hi, 2.5);
        bins.fill(&atoms.x, atoms.nlocal);
        assert!(!bins.sorted_locals());

        assert!(sort_locals_by_bin(&mut atoms, lo, hi, 2.5));
        bins.fill(&atoms.x, atoms.nlocal);
        assert!(bins.sorted_locals(), "sort must match the build grid");
        // Idempotent: a second sort changes nothing.
        assert!(!sort_locals_by_bin(&mut atoms, lo, hi, 2.5));
    }

    #[test]
    fn sort_permutes_identity_not_content() {
        let pos = vec![[9.0, 9.0, 9.0], [1.0, 1.0, 1.0], [5.0, 5.0, 5.0]];
        let mut atoms = Atoms::from_positions(pos, 10);
        atoms.v[0] = [7.0; 3];
        sort_locals_by_bin(&mut atoms, [0.0; 3], [10.0; 3], 2.5);
        // Tag 10 (position 9,9,9, velocity 7) travels with its atom.
        let slot = atoms.tag.iter().position(|&t| t == 10).unwrap();
        assert_eq!(atoms.x[slot], [9.0, 9.0, 9.0]);
        assert_eq!(atoms.v[slot], [7.0; 3]);
        // Sorted ascending by bin along the diagonal.
        assert_eq!(atoms.tag, vec![11, 12, 10]);
    }

    #[test]
    fn counting_sort_is_the_stable_comparison_sort() {
        let (lo, hi, cell) = ([-1.0, 0.5, -2.0], [9.0, 7.5, 4.0], 1.3);
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pos: Vec<[f64; 3]> = (0..500)
            .map(|_| std::array::from_fn(|d| lo[d] + (hi[d] - lo[d]) * rnd()))
            .collect();
        let grid = CellBins::new(lo, hi, cell);
        let mut want: Vec<u64> = (0..500).collect();
        want.sort_by_key(|&t| grid.bin_of(&pos[t as usize]));
        let mut atoms = Atoms::from_positions(pos, 0);
        assert!(sort_locals_by_bin(&mut atoms, lo, hi, cell));
        assert_eq!(atoms.tag, want);
    }
}
