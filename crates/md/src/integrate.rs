//! Velocity-Verlet NVE integration (LAMMPS `fix nve`, Table 2).

use crate::atom::Atoms;
use crate::units::UnitSystem;

/// Per-type atomic masses (LAMMPS `mass I value`; types are 1-based).
#[derive(Debug, Clone, PartialEq)]
pub struct Masses {
    per_type: Vec<f64>,
}

impl Masses {
    /// All species share one mass (the paper's benchmarks).
    #[must_use]
    pub fn uniform(mass: f64) -> Self {
        assert!(mass > 0.0);
        Masses {
            per_type: vec![mass],
        }
    }

    /// Explicit per-type masses, indexed by `type - 1`.
    #[must_use]
    pub fn per_type(masses: Vec<f64>) -> Self {
        assert!(!masses.is_empty() && masses.iter().all(|&m| m > 0.0));
        Masses { per_type: masses }
    }

    /// Mass of an atom of 1-based type `typ` (types beyond the table fall
    /// back to type 1, matching single-species setups).
    #[inline]
    #[must_use]
    pub fn of(&self, typ: u32) -> f64 {
        let idx = (typ as usize).saturating_sub(1);
        self.per_type[idx.min(self.per_type.len() - 1)]
    }
}

/// The microcanonical (NVE) velocity-Verlet integrator.
///
/// LAMMPS splits the update into `initial_integrate` (half kick + drift,
/// before forces are recomputed) and `final_integrate` (second half kick).
/// The paper's "Modify" stage is exactly these two updates.
#[derive(Debug, Clone)]
pub struct NveIntegrator {
    /// Timestep (tau or ps, per unit system).
    pub dt: f64,
    /// Atomic masses by type.
    pub masses: Masses,
    /// force*time/mass -> velocity conversion for the unit system.
    ftm2v: f64,
}

impl NveIntegrator {
    /// Single-species integrator (the benchmark configurations).
    #[must_use]
    pub fn new(dt: f64, mass: f64, units: UnitSystem) -> Self {
        Self::with_masses(dt, Masses::uniform(mass), units)
    }

    /// Integrator with per-type masses.
    #[must_use]
    pub fn with_masses(dt: f64, masses: Masses, units: UnitSystem) -> Self {
        assert!(dt > 0.0);
        NveIntegrator {
            dt,
            masses,
            ftm2v: 1.0 / units.mvv2e(),
        }
    }

    /// Half kick + full drift: v += (dt/2) f/m; x += dt v. Local atoms only.
    pub fn initial_integrate(&self, atoms: &mut Atoms) {
        let half = 0.5 * self.dt * self.ftm2v;
        for i in 0..atoms.nlocal {
            let dtf = half / self.masses.of(atoms.typ[i]);
            for d in 0..3 {
                atoms.v[i][d] += dtf * atoms.f[i][d];
                atoms.x[i][d] += self.dt * atoms.v[i][d];
            }
        }
    }

    /// Second half kick: v += (dt/2) f/m. Local atoms only.
    pub fn final_integrate(&self, atoms: &mut Atoms) {
        let half = 0.5 * self.dt * self.ftm2v;
        for i in 0..atoms.nlocal {
            let dtf = half / self.masses.of(atoms.typ[i]);
            for d in 0..3 {
                atoms.v[i][d] += dtf * atoms.f[i][d];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_particle_moves_linearly() {
        let mut a = Atoms::from_positions(vec![[0.0; 3]], 1);
        a.v[0] = [1.0, -2.0, 0.5];
        let integ = NveIntegrator::new(0.005, 1.0, UnitSystem::Lj);
        for _ in 0..100 {
            integ.initial_integrate(&mut a);
            integ.final_integrate(&mut a);
        }
        assert!((a.x[0][0] - 0.5).abs() < 1e-12);
        assert!((a.x[0][1] - -1.0).abs() < 1e-12);
        assert!((a.x[0][2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn constant_force_gives_quadratic_trajectory() {
        let mut a = Atoms::from_positions(vec![[0.0; 3]], 1);
        let integ = NveIntegrator::new(0.01, 2.0, UnitSystem::Lj);
        let steps = 1000;
        for _ in 0..steps {
            a.f[0] = [4.0, 0.0, 0.0]; // constant force
            integ.initial_integrate(&mut a);
            a.f[0] = [4.0, 0.0, 0.0];
            integ.final_integrate(&mut a);
        }
        let t = steps as f64 * 0.01;
        // x = 0.5 (f/m) t^2; velocity-Verlet is exact for constant force.
        let expect = 0.5 * (4.0 / 2.0) * t * t;
        assert!(
            (a.x[0][0] - expect).abs() < 1e-9,
            "{} vs {expect}",
            a.x[0][0]
        );
    }

    #[test]
    fn ghosts_are_not_integrated() {
        let mut a = Atoms::from_positions(vec![[0.0; 3]], 1);
        a.push_ghost([5.0; 3], 1, 9);
        a.f[1] = [100.0; 3];
        let integ = NveIntegrator::new(0.005, 1.0, UnitSystem::Lj);
        integ.initial_integrate(&mut a);
        integ.final_integrate(&mut a);
        assert_eq!(a.x[1], [5.0; 3]);
        assert_eq!(a.v[1], [0.0; 3]);
    }

    #[test]
    fn metal_units_use_ftm2v() {
        // In metal units a 1 eV/A force on 1 g/mol for 1 ps changes v by
        // ftm2v = 1/mvv2e ~ 9648.5 A/ps.
        let mut a = Atoms::from_positions(vec![[0.0; 3]], 1);
        a.f[0] = [1.0, 0.0, 0.0];
        let integ = NveIntegrator::new(2.0, 1.0, UnitSystem::Metal);
        integ.final_integrate(&mut a); // half kick: dt/2 * f/m * ftm2v
        let expect = 1.0 / UnitSystem::Metal.mvv2e();
        assert!((a.v[0][0] - expect).abs() < 1e-6);
    }

    #[test]
    fn per_type_masses_scale_acceleration() {
        // Same force, type-2 atom twice as heavy -> half the kick.
        let mut a = Atoms::from_positions(vec![[0.0; 3], [5.0; 3]], 1);
        a.typ[1] = 2;
        a.f[0] = [1.0, 0.0, 0.0];
        a.f[1] = [1.0, 0.0, 0.0];
        let integ =
            NveIntegrator::with_masses(0.01, Masses::per_type(vec![1.0, 2.0]), UnitSystem::Lj);
        integ.final_integrate(&mut a);
        assert!((a.v[0][0] / a.v[1][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mass_table_lookup_and_fallback() {
        let m = Masses::per_type(vec![1.5, 3.0]);
        assert_eq!(m.of(1), 1.5);
        assert_eq!(m.of(2), 3.0);
        assert_eq!(m.of(9), 3.0, "beyond-table types clamp to the last");
        assert_eq!(Masses::uniform(2.5).of(7), 2.5);
    }
}
