//! Voltage-dependent timing-error model for low-voltage SRAM reads.
//!
//! The paper treats the VDDL rail as free of correctness risk, but
//! real low-voltage SRAM is not: timing-speculative reads under
//! reduced supply pay a detect-and-retry tax (TS-Cache,
//! arxiv 1904.11200). [`ErrorCurve`] charges that tax: it maps an
//! operating point to a per-read error probability — exactly 0 at
//! VDDH, a configured rate at VDDL, and a quadratic interpolation at
//! intermediate ladder levels (timing slack shrinks roughly linearly
//! with voltage while the bit-flip likelihood of the marginal path
//! grows superlinearly, so a convex curve is the conservative shape).
//!
//! Randomness is *counter-based*: the consumer keeps a monotone draw
//! counter and evaluates [`counter_rng`] on `(seed, counter)` — a
//! stateless splitmix64-style hash — so a read's outcome depends only
//! on its ordinal position in the delivery stream, never on thread
//! count, fast-forward batching, or allocation order. Thresholds live
//! in u64 space ([`ErrorCurve::threshold`]): a draw errs iff
//! `counter_rng(seed, counter) < threshold`, which is exact for
//! probability 0 (threshold 0 → no draw can err) and saturates to
//! `u64::MAX` at probability ≥ 1.
//!
//! # Examples
//!
//! ```
//! use vsv_power::{counter_rng, ErrorCurve};
//!
//! let curve = ErrorCurve::new(1.8, 1.2, 1e-4);
//! assert_eq!(curve.threshold(1.8), 0);           // VDDH is error-free
//! assert!(curve.probability(1.2) > 0.0);         // VDDL pays the tax
//! let thr = curve.threshold(1.2);
//! let errs = counter_rng(42, 7) < thr;           // deterministic draw
//! assert_eq!(errs, counter_rng(42, 7) < thr);    // bit-identical replay
//! ```

/// Stateless counter-based PRNG: a splitmix64-style finalizer over
/// `seed + counter`. Uniform over `u64`, bit-identical everywhere —
/// the draw depends only on the pair, not on any hidden state.
#[must_use]
pub fn counter_rng(seed: u64, counter: u64) -> u64 {
    let mut z = seed.wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-read error probability as a function of the operating point.
///
/// `probability(v)` is exactly 0 for `v ≥ vddh`, `rate_at_vddl` at
/// `v = vddl`, and scales quadratically with the voltage deficit in
/// between (and beyond, for ladder levels below VDDL), clamped to
/// `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorCurve {
    /// Nominal supply: reads at (or above) this voltage never err.
    pub vddh: f64,
    /// Reference low supply where the configured rate applies.
    pub vddl: f64,
    /// Per-read error probability at `vddl`.
    pub rate_at_vddl: f64,
}

impl ErrorCurve {
    /// Builds a curve anchored at the two rails.
    #[must_use]
    pub fn new(vddh: f64, vddl: f64, rate_at_vddl: f64) -> Self {
        ErrorCurve {
            vddh,
            vddl,
            rate_at_vddl,
        }
    }

    /// Per-read error probability at supply `v`, in `[0, 1]`.
    /// Exactly `0.0` at or above VDDH (no float dust — the branch is
    /// taken before any arithmetic), `rate_at_vddl` at VDDL,
    /// quadratic in the normalized deficit elsewhere.
    #[must_use]
    pub fn probability(&self, v: f64) -> f64 {
        if v >= self.vddh || self.rate_at_vddl <= 0.0 {
            return 0.0;
        }
        let span = self.vddh - self.vddl;
        if span <= 0.0 {
            return self.rate_at_vddl.clamp(0.0, 1.0);
        }
        let deficit = (self.vddh - v) / span;
        (self.rate_at_vddl * deficit * deficit).clamp(0.0, 1.0)
    }

    /// The probability at `v` mapped into u64 threshold space: a draw
    /// `counter_rng(seed, counter) < threshold(v)` errs with the right
    /// probability. Probability 0 maps to threshold 0 (no u64 is below
    /// it); probability ≥ 1 saturates to `u64::MAX`.
    #[must_use]
    pub fn threshold(&self, v: f64) -> u64 {
        let p = self.probability(v);
        if p <= 0.0 {
            0
        } else if p >= 1.0 {
            u64::MAX
        } else {
            // 2^64 as f64; the cast saturates, so p just below 1
            // cannot overflow past u64::MAX.
            (p * 18_446_744_073_709_551_616.0) as u64
        }
    }

    /// Validates the curve parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (non-finite or
    /// out-of-range rate, non-positive rails, VDDL above VDDH).
    pub fn validate(&self) -> Result<(), String> {
        if !self.rate_at_vddl.is_finite() || !(0.0..=1.0).contains(&self.rate_at_vddl) {
            return Err(format!(
                "error rate must be a finite probability in [0, 1], got {}",
                self.rate_at_vddl
            ));
        }
        if self.vddh <= 0.0 || self.vddl <= 0.0 {
            return Err("error-curve rails must be positive".into());
        }
        if self.vddl > self.vddh {
            return Err("error-curve VDDL must not exceed VDDH".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vddh_is_exactly_error_free() {
        let c = ErrorCurve::new(1.8, 1.2, 0.5);
        assert_eq!(c.probability(1.8), 0.0);
        assert_eq!(c.probability(2.5), 0.0);
        assert_eq!(c.threshold(1.8), 0);
        // Threshold 0 means no draw errs, for any counter.
        for counter in 0..64 {
            assert!(counter_rng(99, counter) >= c.threshold(1.8));
        }
    }

    #[test]
    fn curve_hits_the_vddl_anchor_and_is_monotone() {
        let c = ErrorCurve::new(1.8, 1.2, 1e-3);
        assert!((c.probability(1.2) - 1e-3).abs() < 1e-15);
        let mid = c.probability(1.5);
        assert!(mid > 0.0 && mid < 1e-3, "got {mid}");
        // Quadratic: halfway in voltage is a quarter of the rate.
        assert!((mid - 2.5e-4).abs() < 1e-12);
        // Below VDDL keeps climbing, clamped at 1.
        assert!(c.probability(0.9) > c.probability(1.2));
        assert_eq!(ErrorCurve::new(1.8, 1.2, 1.0).probability(0.1), 1.0);
    }

    #[test]
    fn zero_rate_disables_the_curve_everywhere() {
        let c = ErrorCurve::new(1.8, 1.2, 0.0);
        assert_eq!(c.probability(1.2), 0.0);
        assert_eq!(c.probability(0.5), 0.0);
        assert_eq!(c.threshold(0.5), 0);
    }

    #[test]
    fn threshold_saturates_and_scales() {
        let c = ErrorCurve::new(1.8, 1.2, 1.0);
        assert_eq!(c.threshold(1.2), u64::MAX);
        let half = ErrorCurve::new(1.8, 1.2, 0.5).threshold(1.2);
        // 0.5 · 2^64 = 2^63.
        assert_eq!(half, 1u64 << 63);
    }

    #[test]
    fn counter_rng_is_deterministic_and_spread_out() {
        assert_eq!(counter_rng(1, 2), counter_rng(1, 2));
        assert_ne!(counter_rng(1, 2), counter_rng(1, 3));
        assert_ne!(counter_rng(1, 2), counter_rng(2, 2));
        // Empirical hit-rate sanity: p = 1/16 over 4096 draws lands
        // within a loose band (this is a fixed function — the check
        // can never flake).
        let thr = ErrorCurve::new(1.8, 1.2, 1.0 / 16.0).threshold(1.2);
        let hits = (0..4096u64).filter(|&i| counter_rng(7, i) < thr).count();
        assert!((150..=370).contains(&hits), "got {hits}");
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(ErrorCurve::new(1.8, 1.2, 0.5).validate().is_ok());
        assert!(ErrorCurve::new(1.8, 1.2, -0.1).validate().is_err());
        assert!(ErrorCurve::new(1.8, 1.2, f64::NAN).validate().is_err());
        assert!(ErrorCurve::new(1.8, 1.2, 1.5).validate().is_err());
        assert!(ErrorCurve::new(0.0, 1.2, 0.1).validate().is_err());
        assert!(ErrorCurve::new(1.2, 1.8, 0.1).validate().is_err());
    }
}
