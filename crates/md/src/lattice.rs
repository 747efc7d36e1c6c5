//! FCC lattice builders matching the paper's initial configurations
//! (Table 2: `lattice 0.8442 FCC` for LJ, `lattice 3.615 FCC` for EAM Cu).

use crate::region::Box3;

/// The four basis sites of an FCC conventional cell, in cell fractions.
pub const FCC_BASIS: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5],
];

/// The eight basis sites of a diamond conventional cell (FCC plus the
/// tetrahedral sublattice) — silicon's structure, used by the
/// Stillinger-Weber workloads.
pub const DIAMOND_BASIS: [[f64; 3]; 8] = [
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5],
    [0.25, 0.25, 0.25],
    [0.75, 0.75, 0.25],
    [0.75, 0.25, 0.75],
    [0.25, 0.75, 0.75],
];

/// FCC lattice specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FccLattice {
    /// Conventional-cell edge length (distance units).
    pub cell: f64,
}

impl FccLattice {
    /// Lattice from an explicit conventional-cell edge (LAMMPS `metal`
    /// convention, e.g. 3.615 angstrom for Cu).
    #[must_use]
    pub fn from_cell(cell: f64) -> Self {
        assert!(cell > 0.0, "lattice constant must be positive");
        Self { cell }
    }

    /// Lattice from a reduced density rho* (LAMMPS `lj` convention:
    /// `lattice fcc 0.8442` means 4 atoms per cell at number density
    /// rho* = 4 / cell^3, so cell = (4/rho*)^(1/3)).
    #[must_use]
    pub fn from_reduced_density(rho: f64) -> Self {
        assert!(rho > 0.0, "reduced density must be positive");
        Self {
            cell: (4.0 / rho).cbrt(),
        }
    }

    /// Number density of this lattice (atoms per unit volume).
    #[must_use]
    pub fn density(&self) -> f64 {
        4.0 / self.cell.powi(3)
    }

    /// Build an `nx * ny * nz` block of conventional cells. Returns the
    /// periodic box and all atom positions (4 atoms per cell).
    #[must_use]
    pub fn build(&self, nx: usize, ny: usize, nz: usize) -> (Box3, Vec<[f64; 3]>) {
        assert!(nx > 0 && ny > 0 && nz > 0, "cell counts must be positive");
        let a = self.cell;
        let b = Box3::from_lengths([a * nx as f64, a * ny as f64, a * nz as f64]);
        let mut pos = Vec::with_capacity(4 * nx * ny * nz);
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let base = [ix as f64 * a, iy as f64 * a, iz as f64 * a];
                    for site in &FCC_BASIS {
                        pos.push([
                            base[0] + site[0] * a,
                            base[1] + site[1] * a,
                            base[2] + site[2] * a,
                        ]);
                    }
                }
            }
        }
        (b, pos)
    }

    /// Build an `nx * ny * nz` block of *diamond* cells (8 atoms per
    /// cell): the silicon structure for Stillinger-Weber runs.
    #[must_use]
    pub fn build_diamond(&self, nx: usize, ny: usize, nz: usize) -> (Box3, Vec<[f64; 3]>) {
        assert!(nx > 0 && ny > 0 && nz > 0, "cell counts must be positive");
        let a = self.cell;
        let b = Box3::from_lengths([a * nx as f64, a * ny as f64, a * nz as f64]);
        let mut pos = Vec::with_capacity(8 * nx * ny * nz);
        for iz in 0..nz {
            for iy in 0..ny {
                for ix in 0..nx {
                    let base = [ix as f64 * a, iy as f64 * a, iz as f64 * a];
                    for site in &DIAMOND_BASIS {
                        pos.push([
                            base[0] + site[0] * a,
                            base[1] + site[1] * a,
                            base[2] + site[2] * a,
                        ]);
                    }
                }
            }
        }
        (b, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_density_roundtrip() {
        let lat = FccLattice::from_reduced_density(0.8442);
        assert!((lat.density() - 0.8442).abs() < 1e-12);
        // LAMMPS prints 1.6796 for this lattice constant.
        assert!((lat.cell - 1.6796).abs() < 1e-4);
    }

    #[test]
    fn build_counts_and_bounds() {
        let lat = FccLattice::from_cell(3.615);
        let (b, pos) = lat.build(3, 4, 5);
        assert_eq!(pos.len(), 4 * 3 * 4 * 5);
        assert!((b.lengths()[0] - 3.0 * 3.615).abs() < 1e-12);
        for p in &pos {
            assert!(b.contains(p), "atom {p:?} escaped box");
        }
    }

    #[test]
    fn no_duplicate_sites() {
        let lat = FccLattice::from_cell(1.0);
        let (_, pos) = lat.build(2, 2, 2);
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                let d2: f64 = (0..3).map(|d| (pos[i][d] - pos[j][d]).powi(2)).sum();
                assert!(d2 > 1e-6, "duplicate lattice sites {i} {j}");
            }
        }
    }

    #[test]
    fn diamond_cell_has_tetrahedral_bonds() {
        // Silicon: a = 5.431; nearest neighbor at a*sqrt(3)/4.
        let lat = FccLattice::from_cell(5.431);
        let (b, pos) = lat.build_diamond(2, 2, 2);
        assert_eq!(pos.len(), 8 * 8);
        let expect = 5.431 * 3f64.sqrt() / 4.0;
        // Atom 0's nearest neighbor (across PBC) sits at the bond length.
        let mut min_d = f64::INFINITY;
        for j in 1..pos.len() {
            let dx = b.minimum_image(&pos[0], &pos[j]);
            let d = (dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2]).sqrt();
            min_d = min_d.min(d);
        }
        assert!((min_d - expect).abs() < 1e-9, "bond {min_d} vs {expect}");
    }
}
