//! Thermodynamic observables: kinetic energy, temperature, pressure.
//!
//! Pressure is the observable the paper's accuracy experiment tracks
//! (Fig. 11: pressure of the 65K-atom system over 50K steps, reference vs
//! optimized code).

use crate::atom::Atoms;
use crate::units::UnitSystem;

/// A thermodynamic snapshot of the whole system (already reduced across
/// ranks where applicable).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThermoSnapshot {
    /// Timestep the snapshot was taken at.
    pub step: u64,
    /// Total potential energy.
    pub pe: f64,
    /// Total kinetic energy.
    pub ke: f64,
    /// Instantaneous temperature.
    pub temperature: f64,
    /// Scalar pressure in the unit system's pressure unit.
    pub pressure: f64,
}

impl ThermoSnapshot {
    /// Total energy (the conserved quantity in NVE).
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        self.pe + self.ke
    }
}

/// Kinetic energy of this rank's local atoms (single species).
#[must_use]
pub fn kinetic_energy(atoms: &Atoms, mass: f64, units: UnitSystem) -> f64 {
    let mut sum = 0.0;
    for i in 0..atoms.nlocal {
        let v = atoms.v[i];
        sum += v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
    }
    0.5 * units.mvv2e() * mass * sum
}

/// Kinetic energy with per-type masses.
#[must_use]
pub fn kinetic_energy_typed(
    atoms: &Atoms,
    masses: &crate::integrate::Masses,
    units: UnitSystem,
) -> f64 {
    let mut sum = 0.0;
    for i in 0..atoms.nlocal {
        let v = atoms.v[i];
        sum += masses.of(atoms.typ[i]) * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    }
    0.5 * units.mvv2e() * sum
}

/// Temperature from total kinetic energy with 3N - 3 degrees of freedom
/// (center-of-mass momentum removed, LAMMPS default for a periodic system).
#[must_use]
pub fn temperature(ke_total: f64, natoms: usize, units: UnitSystem) -> f64 {
    if natoms < 2 {
        return 0.0;
    }
    let dof = (3 * natoms - 3) as f64;
    2.0 * ke_total / (dof * units.boltzmann())
}

/// Scalar virial pressure: P = (2 KE + W) / (3 V), converted to the unit
/// system's pressure unit; `virial_total` is the machine-wide sum of
/// r_ij . f_ij over pairs.
#[must_use]
pub fn pressure(ke_total: f64, virial_total: f64, volume: f64, units: UnitSystem) -> f64 {
    assert!(volume > 0.0);
    (2.0 * ke_total + virial_total) / (3.0 * volume) * units.nktv2p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ke_of_known_velocities() {
        let mut a = Atoms::from_positions(vec![[0.0; 3], [1.0; 3]], 1);
        a.v[0] = [1.0, 0.0, 0.0];
        a.v[1] = [0.0, 2.0, 0.0];
        let ke = kinetic_energy(&a, 1.0, UnitSystem::Lj);
        assert!((ke - 0.5 * (1.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn ghosts_excluded_from_ke() {
        let mut a = Atoms::from_positions(vec![[0.0; 3]], 1);
        a.v[0] = [1.0, 0.0, 0.0];
        a.push_ghost([2.0; 3], 1, 5);
        a.v[1] = [100.0, 0.0, 0.0];
        assert!((kinetic_energy(&a, 1.0, UnitSystem::Lj) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn typed_ke_matches_uniform_for_one_species() {
        let mut a = Atoms::from_positions(vec![[0.0; 3], [1.0; 3]], 1);
        a.v[0] = [1.0, 0.0, 0.0];
        a.v[1] = [0.0, 2.0, 0.0];
        let uniform = kinetic_energy(&a, 2.5, UnitSystem::Lj);
        let typed =
            kinetic_energy_typed(&a, &crate::integrate::Masses::uniform(2.5), UnitSystem::Lj);
        assert!((uniform - typed).abs() < 1e-12);
        // A heavier second species raises the KE of that atom only.
        a.typ[1] = 2;
        let mixed = kinetic_energy_typed(
            &a,
            &crate::integrate::Masses::per_type(vec![2.5, 5.0]),
            UnitSystem::Lj,
        );
        assert!((mixed - (0.5 * 2.5 * 1.0 + 0.5 * 5.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn temperature_equipartition() {
        // KE = (3N-3)/2 kT  =>  T = 1 when KE = (3N-3)/2.
        let n = 100;
        let ke = (3 * n - 3) as f64 / 2.0;
        assert!((temperature(ke, n, UnitSystem::Lj) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_gas_pressure() {
        // With zero virial, P = 2 KE / 3V = N k T / V for 3N dof;
        // check the formula wiring rather than physics constants.
        let p = pressure(150.0, 0.0, 100.0, UnitSystem::Lj);
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metal_pressure_converts_to_bars() {
        let p_lj = pressure(1.0, 1.0, 1.0, UnitSystem::Lj);
        let p_metal = pressure(1.0, 1.0, 1.0, UnitSystem::Metal);
        assert!((p_metal / p_lj - UnitSystem::Metal.nktv2p()).abs() < 1.0);
    }

    #[test]
    fn snapshot_total_energy() {
        let s = ThermoSnapshot {
            step: 3,
            pe: -10.0,
            ke: 4.0,
            temperature: 1.0,
            pressure: 0.5,
        };
        assert_eq!(s.total_energy(), -6.0);
    }
}
