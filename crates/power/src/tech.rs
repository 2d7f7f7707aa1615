//! Technology constants (TSMC 0.18 µm at 1 GHz, §3 of the paper).

/// Process/supply parameters used throughout the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// Nominal (high) supply voltage. Paper: 1.8 V for TSMC 0.18 µm.
    pub vddh: f64,
    /// Scaled (low) supply voltage. Paper: 1.2 V, chosen so the
    /// max clock at VDDL is half the clock at VDDH (§3.1).
    pub vddl: f64,
    /// Full-speed clock period in nanoseconds (1 GHz → 1 ns).
    pub full_clock_period_ns: u64,
    /// Supply ramp rate in volts per nanosecond. The paper derives a
    /// 0.2 V/ns stability limit and conservatively uses 0.05 V/ns
    /// (§3.2), giving a 12 ns ramp over the 0.6 V swing.
    pub ramp_rate_v_per_ns: f64,
    /// Energy dissipated by the dual-power-supply network per ramp,
    /// from the paper's HSPICE RLC simulation: 66 nJ (§5.2).
    pub ramp_energy_pj: f64,
}

impl TechParams {
    /// The paper's 0.18 µm / 1 GHz parameters.
    #[must_use]
    pub fn baseline() -> Self {
        TechParams {
            vddh: 1.8,
            vddl: 1.2,
            full_clock_period_ns: 1,
            ramp_rate_v_per_ns: 0.05,
            ramp_energy_pj: 66_000.0,
        }
    }

    /// Ramp duration in nanoseconds (paper: 12 ns / 12 cycles).
    ///
    /// # Panics
    ///
    /// Panics if the ramp rate is not positive.
    #[must_use]
    pub fn ramp_time_ns(&self) -> u64 {
        assert!(self.ramp_rate_v_per_ns > 0.0, "ramp rate must be positive");
        // Guard against float dust (0.6 / 0.05 = 12.000000000000002).
        (((self.vddh - self.vddl) / self.ramp_rate_v_per_ns) - 1e-9).ceil() as u64
    }

    /// Dynamic-energy scale factor at supply `v` relative to VDDH:
    /// `(v / VDDH)²` (dynamic power ∝ f·C·V², §1).
    #[must_use]
    pub fn energy_scale(&self, v: f64) -> f64 {
        let r = v / self.vddh;
        r * r
    }

    /// The voltage `fraction` of the way through a ramp from `from` to
    /// `to` (linear, per the constant dV/dt model).
    #[must_use]
    pub fn ramp_voltage(&self, from: f64, to: f64, fraction: f64) -> f64 {
        from + (to - from) * fraction.clamp(0.0, 1.0)
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (non-positive
    /// voltages, VDDL ≥ VDDH, zero period or rate).
    pub fn validate(&self) -> Result<(), String> {
        if self.vddh <= 0.0 || self.vddl <= 0.0 {
            return Err("supply voltages must be positive".into());
        }
        if self.vddl >= self.vddh {
            return Err("VDDL must be below VDDH".into());
        }
        if self.full_clock_period_ns == 0 {
            return Err("clock period must be nonzero".into());
        }
        if self.ramp_rate_v_per_ns <= 0.0 {
            return Err("ramp rate must be positive".into());
        }
        if self.ramp_energy_pj < 0.0 {
            return Err("ramp energy cannot be negative".into());
        }
        Ok(())
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_ramp_is_12ns() {
        assert_eq!(TechParams::baseline().ramp_time_ns(), 12);
    }

    #[test]
    fn energy_scale_is_quadratic() {
        let t = TechParams::baseline();
        assert!((t.energy_scale(1.8) - 1.0).abs() < 1e-12);
        let low = t.energy_scale(1.2);
        assert!((low - (1.2f64 / 1.8).powi(2)).abs() < 1e-12);
        assert!(low < 0.5, "VDDL should more than halve dynamic energy");
    }

    #[test]
    fn ramp_voltage_interpolates_and_clamps() {
        let t = TechParams::baseline();
        assert!((t.ramp_voltage(1.8, 1.2, 0.0) - 1.8).abs() < 1e-12);
        assert!((t.ramp_voltage(1.8, 1.2, 0.5) - 1.5).abs() < 1e-12);
        assert!((t.ramp_voltage(1.8, 1.2, 1.0) - 1.2).abs() < 1e-12);
        assert!((t.ramp_voltage(1.8, 1.2, 2.0) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut t = TechParams::baseline();
        assert!(t.validate().is_ok());
        t.vddl = 1.9;
        assert!(t.validate().is_err());
        t = TechParams::baseline();
        t.ramp_rate_v_per_ns = 0.0;
        assert!(t.validate().is_err());
    }
}
