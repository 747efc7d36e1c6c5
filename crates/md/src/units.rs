//! Unit systems, mirroring LAMMPS `units lj` and `units metal`.
//!
//! The paper's two workloads (Table 2) use `lj` units for the Lennard-Jones
//! benchmark and `metal` units for the EAM (Cu) benchmark. Only the
//! conversion factors that feed thermodynamic output (temperature, pressure,
//! energy) are needed here; the force kernels are unit-agnostic.

/// Which LAMMPS-style unit system a simulation runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitSystem {
    /// Reduced Lennard-Jones units: sigma = epsilon = mass = k_B = 1.
    /// Time unit is "tau"; the paper reports LJ performance in tau/day.
    Lj,
    /// LAMMPS `metal` units: distance in angstroms, energy in eV, time in
    /// picoseconds, temperature in kelvin, pressure in bars.
    /// The paper reports EAM performance in microseconds (of physical
    /// time) per day.
    Metal,
}

impl UnitSystem {
    /// Boltzmann constant in this unit system's (energy / temperature).
    #[must_use]
    pub fn boltzmann(self) -> f64 {
        match self {
            UnitSystem::Lj => 1.0,
            // eV / K
            UnitSystem::Metal => 8.617_333_262e-5,
        }
    }

    /// Conversion from (energy / volume) to the unit system's pressure unit.
    ///
    /// * `lj`: pressure is already epsilon/sigma^3, factor 1.
    /// * `metal`: eV/angstrom^3 -> bar.
    #[must_use]
    pub fn nktv2p(self) -> f64 {
        match self {
            UnitSystem::Lj => 1.0,
            UnitSystem::Metal => 1.602_176_634e6,
        }
    }

    /// The "mvv2e" factor converting mass*velocity^2 to energy units.
    ///
    /// In `lj` units this is 1. In `metal` units mass is g/mol and velocity
    /// angstrom/ps, so m*v^2 must be scaled to eV.
    #[must_use]
    pub fn mvv2e(self) -> f64 {
        match self {
            UnitSystem::Lj => 1.0,
            UnitSystem::Metal => 1.036_426_9e-4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_units_are_reduced() {
        assert_eq!(UnitSystem::Lj.boltzmann(), 1.0);
        assert_eq!(UnitSystem::Lj.nktv2p(), 1.0);
        assert_eq!(UnitSystem::Lj.mvv2e(), 1.0);
    }

    #[test]
    fn metal_units_match_lammps_constants() {
        // Values as defined in LAMMPS update.cpp for metal units.
        assert!((UnitSystem::Metal.boltzmann() - 8.617333262e-5).abs() < 1e-12);
        assert!((UnitSystem::Metal.nktv2p() - 1.602176634e6).abs() < 1.0);
        assert!((UnitSystem::Metal.mvv2e() - 1.0364269e-4).abs() < 1e-9);
    }
}
