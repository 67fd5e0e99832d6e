//! Chip-level power context.
//!
//! The paper motivates the work with GPUWattch's breakdown: "the RF
//! consumes 13.4% and 17.2% of the GTX-480 and Quadro FX5600 chips power
//! respectively" (§I). This module translates register-file-level savings
//! into whole-chip savings under those published shares, and computes the
//! usual energy–delay figures of merit.

/// A GPU chip whose register-file power share is known.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipProfile {
    /// Chip name.
    pub name: &'static str,
    /// Fraction of total chip power consumed by the register files.
    pub rf_power_share: f64,
}

impl ChipProfile {
    /// NVIDIA GTX-480 (GPUWattch): RF = 13.4 % of chip power.
    pub fn gtx480() -> Self {
        ChipProfile {
            name: "GTX-480",
            rf_power_share: 0.134,
        }
    }

    /// NVIDIA Quadro FX5600 (GPUWattch): RF = 17.2 % of chip power.
    pub fn quadro_fx5600() -> Self {
        ChipProfile {
            name: "Quadro FX5600",
            rf_power_share: 0.172,
        }
    }

    /// Whole-chip power saving implied by a register-file-level saving,
    /// with everything else unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `rf_saving` is outside `[0, 1]`.
    pub fn chip_saving(&self, rf_saving: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&rf_saving),
            "saving must be a fraction"
        );
        self.rf_power_share * rf_saving
    }
}

/// Energy–delay figures of merit for comparing design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDelay {
    /// Total RF energy (dynamic + leakage) in picojoules.
    pub energy_pj: f64,
    /// Execution time in cycles.
    pub cycles: u64,
}

impl EnergyDelay {
    /// Energy × delay (pJ·cycles) — lower is better.
    pub fn edp(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }

    /// EDP of this design normalised to a baseline (values < 1 mean this
    /// design wins the energy-performance trade-off).
    pub fn edp_vs(&self, baseline: &EnergyDelay) -> f64 {
        self.edp() / baseline.edp().max(f64::MIN_POSITIVE)
    }
}

impl From<&crate::experiment::ExperimentResult> for EnergyDelay {
    fn from(r: &crate::experiment::ExperimentResult) -> Self {
        EnergyDelay {
            energy_pj: r.dynamic_energy_pj + r.leakage_energy_pj,
            cycles: r.cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_chip_shares() {
        assert!((ChipProfile::gtx480().rf_power_share - 0.134).abs() < 1e-12);
        assert!((ChipProfile::quadro_fx5600().rf_power_share - 0.172).abs() < 1e-12);
    }

    #[test]
    fn chip_saving_scales_by_share() {
        // A 54% RF saving on the GTX-480 is ~7.2% of chip power.
        let s = ChipProfile::gtx480().chip_saving(0.54);
        assert!((s - 0.07236).abs() < 1e-9);
        // ...and ~9.3% on the Quadro.
        let q = ChipProfile::quadro_fx5600().chip_saving(0.54);
        assert!((q - 0.09288).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_out_of_range_saving() {
        ChipProfile::gtx480().chip_saving(1.5);
    }

    #[test]
    fn edp_math() {
        let base = EnergyDelay {
            energy_pj: 100.0,
            cycles: 1000,
        };
        let improved = EnergyDelay {
            energy_pj: 50.0,
            cycles: 1020,
        };
        assert_eq!(base.edp(), 100_000.0);
        // Halving energy for 2% slowdown is a clear EDP win.
        let r = improved.edp_vs(&base);
        assert!(r < 0.52, "EDP ratio {r}");
    }
}
