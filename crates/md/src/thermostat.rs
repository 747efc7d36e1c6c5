//! Temperature control: Berendsen weak coupling.
//!
//! The paper's benchmarks run pure NVE (Table 2), but preparing a melt or
//! holding a target temperature — what the silicon example does — needs a
//! thermostat. Berendsen scales velocities toward the target with a
//! relaxation time `tau`; `tau == dt` is a hard rescale.

use crate::atom::Atoms;
use crate::thermo;
use crate::units::UnitSystem;

/// Berendsen weak-coupling thermostat.
#[derive(Debug, Clone, Copy)]
pub struct Berendsen {
    /// Target temperature.
    pub t_target: f64,
    /// Relaxation time (same unit as the timestep).
    pub tau: f64,
}

impl Berendsen {
    /// Create a thermostat; `tau` should be >= the timestep (tau == dt
    /// degenerates to hard rescaling).
    #[must_use]
    pub fn new(t_target: f64, tau: f64) -> Self {
        assert!(t_target >= 0.0 && tau > 0.0);
        Berendsen { t_target, tau }
    }

    /// Apply one coupling step of length `dt`: scale local velocities by
    /// `sqrt(1 + dt/tau (T0/T - 1))`. Returns the scale factor used.
    pub fn apply(&self, atoms: &mut Atoms, mass: f64, units: UnitSystem, dt: f64) -> f64 {
        let ke = thermo::kinetic_energy(atoms, mass, units);
        let t_now = thermo::temperature(ke, atoms.nlocal, units);
        if t_now <= 0.0 {
            return 1.0;
        }
        let lambda2 = 1.0 + dt / self.tau * (self.t_target / t_now - 1.0);
        let scale = lambda2.max(0.0).sqrt();
        for i in 0..atoms.nlocal {
            for d in 0..3 {
                atoms.v[i][d] *= scale;
            }
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::velocity;

    fn hot_atoms(n: usize, t: f64) -> Atoms {
        let mut a = Atoms::from_positions((0..n).map(|i| [i as f64, 0.0, 0.0]).collect(), 1);
        velocity::finalize_velocities_serial(&mut a, 1.0, t, UnitSystem::Lj, 3);
        a
    }

    fn temp(a: &Atoms) -> f64 {
        thermo::temperature(
            thermo::kinetic_energy(a, 1.0, UnitSystem::Lj),
            a.nlocal,
            UnitSystem::Lj,
        )
    }

    #[test]
    fn berendsen_relaxes_toward_target() {
        let mut a = hot_atoms(200, 2.0);
        let th = Berendsen::new(1.0, 0.1);
        let mut prev_gap = (temp(&a) - 1.0).abs();
        for _ in 0..20 {
            th.apply(&mut a, 1.0, UnitSystem::Lj, 0.01);
            let gap = (temp(&a) - 1.0).abs();
            assert!(
                gap <= prev_gap + 1e-12,
                "must approach target monotonically"
            );
            prev_gap = gap;
        }
        assert!(prev_gap < 0.15, "after 20 couplings gap = {prev_gap}");
    }

    #[test]
    fn berendsen_with_tau_equals_dt_is_rescale() {
        let mut a = hot_atoms(100, 2.0);
        let th = Berendsen::new(0.7, 0.01);
        th.apply(&mut a, 1.0, UnitSystem::Lj, 0.01);
        assert!((temp(&a) - 0.7).abs() < 1e-10);
    }

    #[test]
    fn thermostat_at_target_is_identity() {
        let mut a = hot_atoms(100, 1.0);
        let before = a.v.clone();
        let th = Berendsen::new(1.0, 0.1);
        let s = th.apply(&mut a, 1.0, UnitSystem::Lj, 0.005);
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(a.v, before);
    }
}
