//! Continuous voltage/frequency model and the N-level operating-point
//! ladder built on it.
//!
//! The paper's controller picks between exactly two rails (VDDH/VDDL,
//! §3.1). This module generalizes that pair into samples of a
//! continuous analytic backbone:
//!
//! * [`VoltageCurve`] — frequency-from-voltage (linear in the
//!   gate overdrive `V − Vth`, the classic alpha-power model with
//!   α = 1), the quadratic dynamic-energy scale, and an exponential
//!   leakage-vs-voltage law. The curve is *calibrated* from
//!   [`TechParams`] so the paper's two rails are exact samples:
//!   `f(VDDH)` is the full clock, `f(VDDL)` is exactly half of it
//!   (§3.1's VDDL choice), and the leakage at VDDL equals the
//!   `(V/VDDH)³` anchor the accounting layer uses.
//! * [`VoltageLadder`] — an ordered set of operating points between
//!   the rails, each with a per-step ramp latency derived from the
//!   Figure 2/3 constant-dV/dt timeline (`ΔV / ramp_rate`) and a
//!   per-step share of the 66 nJ dual-network ramp energy
//!   (proportional to the step's voltage swing).
//!
//! The two-rail paper configuration is the `depth = 2` special case:
//! its single step spans the full VDDH→VDDL swing, so its ramp takes
//! the full 12 ns and charges the full 66 nJ — bit-identical to the
//! pre-ladder constants.

use crate::tech::TechParams;

/// Hard cap on ladder depth, so ladders stay [`Copy`] (they travel
/// through sweep grids and job records by value).
pub const MAX_LADDER_DEPTH: usize = 8;

/// The continuous V/f/leakage backbone, calibrated so the paper's two
/// rails are exact samples (see the module docs).
///
/// # Examples
///
/// ```
/// use vsv_power::{TechParams, VoltageCurve};
///
/// let curve = VoltageCurve::from_tech(&TechParams::baseline());
/// assert_eq!(curve.clock_period_ns(1.8), 1); // 1 GHz at VDDH
/// assert_eq!(curve.clock_period_ns(1.2), 2); // 500 MHz at VDDL
/// assert!((curve.frequency_scale(1.5) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    vddh: f64,
    vddl: f64,
    full_clock_period_ns: u64,
    /// Effective threshold voltage of the linear frequency model,
    /// calibrated so `f(vddl) = f(vddh) / 2`.
    vth: f64,
    /// Exponent (per volt) of the leakage law
    /// `exp(leak_k · (V − VDDH))`, calibrated so the value at VDDL
    /// matches the cubic `(VDDL/VDDH)³` anchor.
    leak_k: f64,
}

impl VoltageCurve {
    /// Calibrates the curve from the technology constants. The
    /// frequency model is linear in the overdrive `V − Vth` with
    /// `Vth = 2·VDDL − VDDH` (the unique threshold that puts half the
    /// full clock exactly at VDDL); the leakage exponent is the unique
    /// one matching the cubic law at both rails.
    #[must_use]
    pub fn from_tech(t: &TechParams) -> Self {
        VoltageCurve {
            vddh: t.vddh,
            vddl: t.vddl,
            full_clock_period_ns: t.full_clock_period_ns,
            vth: 2.0 * t.vddl - t.vddh,
            leak_k: 3.0 * (t.vddl / t.vddh).ln() / (t.vddl - t.vddh),
        }
    }

    /// Maximum clock frequency at supply `v`, relative to the clock at
    /// VDDH: `(v − Vth) / (VDDH − Vth)`. Exactly `1.0` at VDDH and
    /// `0.5` at VDDL by calibration.
    #[must_use]
    pub fn frequency_scale(&self, v: f64) -> f64 {
        (v - self.vth) / (self.vddh - self.vth)
    }

    /// The integer-nanosecond clock period the pipeline can run at
    /// supply `v`: the full-speed period divided by
    /// [`VoltageCurve::frequency_scale`], rounded *up* (a faster clock
    /// than the voltage supports would be unsafe). For the paper's
    /// calibration this is 1 ns at VDDH and 2 ns everywhere below it
    /// down to VDDL.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is at or below the calibrated
    /// threshold, where no clock is sustainable.
    #[must_use]
    pub fn clock_period_ns(&self, v: f64) -> u64 {
        let scale = self.frequency_scale(v);
        debug_assert!(scale > 0.0, "no sustainable clock at {v} V");
        // Same float-dust guard as `TechParams::ramp_time_ns`.
        (self.full_clock_period_ns as f64 / scale - 1e-9).ceil() as u64
    }

    /// Dynamic-energy scale at supply `v` relative to VDDH:
    /// `(v/VDDH)²` — the same expression as
    /// [`TechParams::energy_scale`], so the rails sample it exactly.
    #[must_use]
    pub fn dynamic_energy_scale(&self, v: f64) -> f64 {
        let r = v / self.vddh;
        r * r
    }

    /// Dynamic-*power* scale at supply `v`: energy per op times the
    /// sustainable frequency, `(v/VDDH)² · f(v)/f(VDDH)` (the lumos
    /// `dp ∝ V²·f` model).
    #[must_use]
    pub fn dynamic_power_scale(&self, v: f64) -> f64 {
        self.dynamic_energy_scale(v) * self.frequency_scale(v)
    }

    /// Static (leakage) power scale at supply `v` relative to VDDH:
    /// `exp(k·(v − VDDH))` — exactly `1.0` at VDDH, and equal (to
    /// floating-point accuracy) to the accounting layer's cubic
    /// `(VDDL/VDDH)³` anchor at VDDL. Strictly increasing in `v`, so
    /// leakage strictly falls as the supply drops.
    #[must_use]
    pub fn leakage_scale(&self, v: f64) -> f64 {
        (self.leak_k * (v - self.vddh)).exp()
    }
}

/// An ordered ladder of operating points, from VDDH (level 0) down
/// toward VDDL (level `depth − 1`). Levels are *strictly descending*
/// voltages; adjacent levels are connected by constant-dV/dt ramp
/// steps.
///
/// The paper's two-rail configuration is
/// [`VoltageLadder::paper_rails`] (depth 2); deeper ladders
/// interpolate evenly between the same rails
/// ([`VoltageLadder::uniform`]). Depth 1 is the degenerate
/// always-VDDH ladder (no transition is ever possible).
///
/// # Examples
///
/// ```
/// use vsv_power::{TechParams, VoltageLadder};
///
/// let t = TechParams::baseline();
/// let ladder = VoltageLadder::uniform(&t, 4);
/// assert_eq!(ladder.depth(), 4);
/// assert_eq!(ladder.voltage(0), 1.8);
/// assert_eq!(ladder.voltage(3), 1.2);
/// assert_eq!(ladder.step_ramp_ns(0, &t), 4); // 0.2 V at 0.05 V/ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageLadder {
    depth: usize,
    volts: [f64; MAX_LADDER_DEPTH],
}

impl VoltageLadder {
    /// The paper's two rails as a depth-2 ladder: level 0 is exactly
    /// `t.vddh`, level 1 exactly `t.vddl` (bitwise — the two-rail
    /// machinery must remain an exact special case).
    #[must_use]
    pub fn paper_rails(t: &TechParams) -> Self {
        let mut volts = [0.0; MAX_LADDER_DEPTH];
        volts[0] = t.vddh;
        volts[1] = t.vddl;
        VoltageLadder { depth: 2, volts }
    }

    /// A ladder of `depth` evenly spaced points with the rails as
    /// exact endpoints. Depth 1 is the degenerate `[VDDH]` ladder;
    /// depth 2 equals [`VoltageLadder::paper_rails`].
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds [`MAX_LADDER_DEPTH`]
    /// (construction-time misuse; *configured* ladders are checked by
    /// [`VoltageLadder::validate`] instead).
    #[must_use]
    pub fn uniform(t: &TechParams, depth: usize) -> Self {
        assert!(
            (1..=MAX_LADDER_DEPTH).contains(&depth),
            "ladder depth must be in 1..={MAX_LADDER_DEPTH}, got {depth}"
        );
        let mut volts = [0.0; MAX_LADDER_DEPTH];
        volts[0] = t.vddh;
        if depth >= 2 {
            let span = t.vddl - t.vddh;
            for (k, v) in volts.iter_mut().enumerate().take(depth - 1).skip(1) {
                *v = t.vddh + span * (k as f64 / (depth - 1) as f64);
            }
            volts[depth - 1] = t.vddl;
        }
        VoltageLadder { depth, volts }
    }

    /// A ladder over explicit operating points (highest first), for
    /// tests and custom configurations. Points beyond
    /// [`MAX_LADDER_DEPTH`] are rejected by
    /// [`VoltageLadder::validate`], as is every other malformation —
    /// this constructor itself accepts anything, so negative tests can
    /// build bad ladders.
    #[must_use]
    pub fn from_points(points: &[f64]) -> Self {
        let mut volts = [0.0; MAX_LADDER_DEPTH];
        for (slot, v) in volts.iter_mut().zip(points.iter()) {
            *slot = *v;
        }
        VoltageLadder {
            depth: points.len(),
            volts,
        }
    }

    /// Number of operating points.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Index of the lowest level (`depth − 1`).
    ///
    /// # Panics
    ///
    /// Panics on a depth-0 ladder (rejected by
    /// [`VoltageLadder::validate`]).
    #[must_use]
    pub fn bottom(&self) -> usize {
        assert!(self.depth > 0, "empty ladder has no bottom");
        self.depth - 1
    }

    /// The supply voltage at `level` (0 = highest).
    ///
    /// # Panics
    ///
    /// Panics if `level >= depth`.
    #[must_use]
    pub fn voltage(&self, level: usize) -> f64 {
        assert!(level < self.depth, "level {level} out of {}", self.depth);
        self.volts[level]
    }

    /// The configured operating points, highest first.
    #[must_use]
    pub fn levels(&self) -> &[f64] {
        &self.volts[..self.depth]
    }

    /// The voltage swing of the step between `step` and `step + 1`
    /// (positive for a valid ladder).
    #[must_use]
    pub fn step_swing(&self, step: usize) -> f64 {
        self.voltage(step) - self.voltage(step + 1)
    }

    /// Ramp duration of one step at the constant-dV/dt rate (Figure
    /// 2/3 timeline): `ceil(ΔV / rate)`. The depth-2 ladder's single
    /// step reproduces [`TechParams::ramp_time_ns`] exactly.
    #[must_use]
    pub fn step_ramp_ns(&self, step: usize, t: &TechParams) -> u64 {
        ((self.step_swing(step) / t.ramp_rate_v_per_ns) - 1e-9).ceil() as u64
    }

    /// The step's share of the full-swing ramp energy:
    /// `ΔV / (VDDH − VDDL)`. Exactly `1.0` for the depth-2 ladder's
    /// single step (the paper's 66 nJ charge).
    #[must_use]
    pub fn step_energy_scale(&self, step: usize, t: &TechParams) -> f64 {
        self.step_swing(step) / (t.vddh - t.vddl)
    }

    /// Validates the ladder against the curve's calibrated range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformation: depth 0 or
    /// beyond [`MAX_LADDER_DEPTH`], a top level off the VDDH anchor,
    /// non-strictly-descending (unsorted or duplicate) points, or a
    /// point outside `[VDDL, VDDH]`.
    pub fn validate(&self, t: &TechParams) -> Result<(), String> {
        if self.depth == 0 {
            return Err("ladder depth must be at least 1".into());
        }
        if self.depth > MAX_LADDER_DEPTH {
            return Err(format!(
                "ladder depth {} exceeds the maximum {MAX_LADDER_DEPTH}",
                self.depth
            ));
        }
        if self.volts[0] != t.vddh {
            return Err(format!(
                "ladder level 0 must be VDDH ({} V), got {} V",
                t.vddh, self.volts[0]
            ));
        }
        for k in 1..self.depth {
            if self.volts[k] >= self.volts[k - 1] {
                return Err(format!(
                    "ladder levels must be strictly descending: level {k} \
                     ({} V) is not below level {} ({} V)",
                    self.volts[k],
                    k - 1,
                    self.volts[k - 1]
                ));
            }
        }
        for (k, &v) in self.levels().iter().enumerate() {
            if v < t.vddl || v > t.vddh {
                return Err(format!(
                    "ladder level {k} ({v} V) is outside the calibrated \
                     range [{}, {}] V",
                    t.vddl, t.vddh
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_exact_at_the_rails() {
        let t = TechParams::baseline();
        let c = VoltageCurve::from_tech(&t);
        assert_eq!(c.frequency_scale(t.vddh), 1.0, "exact at VDDH");
        assert!((c.frequency_scale(t.vddl) - 0.5).abs() < 1e-12);
        assert_eq!(c.clock_period_ns(t.vddh), t.full_clock_period_ns);
        assert_eq!(c.clock_period_ns(t.vddl), 2 * t.full_clock_period_ns);
        // The dynamic-energy scale is the same expression as the tech
        // constant's, so the rails sample it bit-identically.
        assert_eq!(c.dynamic_energy_scale(t.vddh), t.energy_scale(t.vddh));
        assert_eq!(c.dynamic_energy_scale(t.vddl), t.energy_scale(t.vddl));
        // Leakage: exactly 1 at VDDH, the cubic anchor at VDDL.
        assert_eq!(c.leakage_scale(t.vddh), 1.0);
        let cubic = (t.vddl / t.vddh).powi(3);
        assert!((c.leakage_scale(t.vddl) - cubic).abs() < 1e-12);
    }

    #[test]
    fn interior_periods_quantize_to_half_speed() {
        let t = TechParams::baseline();
        let c = VoltageCurve::from_tech(&t);
        // Every interior point sustains more than half the clock but
        // less than the full clock; integer-ns quantization rounds all
        // of them to the 2 ns period.
        for v in [1.25, 1.4, 1.5, 1.6, 1.75] {
            assert_eq!(c.clock_period_ns(v), 2, "{v} V");
        }
    }

    #[test]
    fn paper_rails_ladder_is_the_two_rail_special_case() {
        let t = TechParams::baseline();
        let l = VoltageLadder::paper_rails(&t);
        assert_eq!(l.depth(), 2);
        assert_eq!(l.voltage(0), t.vddh);
        assert_eq!(l.voltage(1), t.vddl);
        assert_eq!(l.step_ramp_ns(0, &t), t.ramp_time_ns());
        assert_eq!(l.step_energy_scale(0, &t), 1.0);
        assert!(l.validate(&t).is_ok());
        assert_eq!(l, VoltageLadder::uniform(&t, 2));
    }

    #[test]
    fn uniform_ladders_validate_at_every_depth() {
        let t = TechParams::baseline();
        for depth in 1..=MAX_LADDER_DEPTH {
            let l = VoltageLadder::uniform(&t, depth);
            assert!(l.validate(&t).is_ok(), "depth {depth}");
            assert_eq!(l.voltage(0), t.vddh);
            if depth >= 2 {
                assert_eq!(l.voltage(depth - 1), t.vddl);
                // Step ramps sum to at least the full-swing ramp
                // (per-step ceil can only add time).
                let total: u64 = (0..depth - 1).map(|s| l.step_ramp_ns(s, &t)).sum();
                assert!(total >= t.ramp_time_ns(), "depth {depth}: {total}");
            }
        }
    }

    #[test]
    fn validate_rejects_malformed_ladders() {
        let t = TechParams::baseline();
        let bad = [
            VoltageLadder::from_points(&[]),              // depth 0
            VoltageLadder::from_points(&[1.8, 1.4, 1.5]), // unsorted
            VoltageLadder::from_points(&[1.8, 1.5, 1.5]), // duplicate
            VoltageLadder::from_points(&[1.7, 1.2]),      // top off VDDH
            VoltageLadder::from_points(&[1.8, 1.0]),      // below VDDL
        ];
        for (i, l) in bad.iter().enumerate() {
            assert!(l.validate(&t).is_err(), "case {i} must fail");
        }
    }
}
