//! A small deterministic PRNG (xorshift64*) so workload twins are
//! exactly reproducible across runs and platforms without pulling a
//! heavyweight dependency into the generator's hot loop.

/// Deterministic xorshift64* generator.
///
/// # Examples
///
/// ```
/// use vsv_workloads::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator. A zero seed is remapped (xorshift cannot
    /// leave the zero state).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        // Multiply-shift bounded sampling; bias is negligible for the
        // bounds used here (workload geometry, not cryptography).
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Bernoulli trial against a threshold fixed ahead of time: the
    /// same outcome, and the same state advance, as `chance(p)` for
    /// the `p` that `odds` was built from, without the float compare.
    pub(crate) fn hit(&mut self, odds: Odds) -> bool {
        (self.next_u64() >> 11) < odds.0
    }
}

/// A Bernoulli probability as an integer threshold on the raw 53-bit
/// draw `m = next_u64() >> 11`.
///
/// [`XorShift64::unit`] is `m · 2⁻⁵³`, which is exact, so
/// `m · 2⁻⁵³ < p ⟺ m < p · 2⁵³ ⟺ m < ⌈p · 2⁵³⌉` for integer `m`.
/// The scaling by a power of two is exact too, and the saturating cast
/// keeps the identity at the edges: 0, negative values and NaN give 0
/// (never hit), values of 1 and above give at least 2⁵³ (always hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Odds(u64);

impl Odds {
    /// The threshold equivalent to `chance(p)`.
    pub(crate) fn new(p: f64) -> Self {
        Odds((p * (1u64 << 53) as f64).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut r = XorShift64::new(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = XorShift64::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits}");
    }

    #[test]
    fn odds_hit_matches_chance_draw_for_draw() {
        // Every twin's parameter values that reach a Bernoulli draw,
        // the branch sites' 0.5, and the edges of the identity.
        let mut ps = vec![
            0.0,
            1e-300,
            f64::MIN_POSITIVE / 4.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2.0,
            -0.1,
            f64::NAN,
        ];
        for t in crate::spec2k_twins() {
            let mem_share = t.mem_fraction / (1.0 - t.branch_fraction);
            let burst_start = t.far_fraction / t.miss_burst as f64;
            ps.extend([
                mem_share,
                t.store_ratio,
                burst_start,
                t.chase_dependency,
                t.miss_dependency,
                t.sw_prefetch_coverage,
                t.fp_fraction,
                t.muldiv_fraction,
            ]);
        }
        for (i, &p) in ps.iter().enumerate() {
            let odds = Odds::new(p);
            let mut a = XorShift64::new(0x5EED + i as u64);
            let mut b = a.clone();
            for n in 0..100_000 {
                assert_eq!(a.hit(odds), b.chance(p), "p = {p:e}, draw {n}");
            }
            assert_eq!(a, b, "p = {p:e}: both RNGs end in the same state");
        }
    }

    #[test]
    fn odds_thresholds_at_the_edges() {
        assert_eq!(Odds::new(0.0), Odds(0));
        assert_eq!(Odds::new(-0.1), Odds(0));
        assert_eq!(Odds::new(f64::NAN), Odds(0));
        assert_eq!(Odds::new(1e-300), Odds(1));
        assert_eq!(Odds::new(0.5), Odds(1 << 52));
        assert_eq!(Odds::new(1.0), Odds(1 << 53));
        assert_eq!(Odds::new(f64::INFINITY), Odds(u64::MAX));
        // Around each threshold the integer compare agrees with the
        // float one draw value by draw value, where random draws would
        // almost never land.
        let scale = (1u64 << 53) as f64;
        for p in [1e-300, 0.3, 0.1 + 0.2, 0.5, 2.0 / 3.0, 1.0 - f64::EPSILON] {
            let t = Odds::new(p).0;
            for m in t.saturating_sub(3)..(t + 3).min(1 << 53) {
                assert_eq!(m < t, (m as f64) / scale < p, "p = {p:e}, m = {m}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn below_zero_bound_panics() {
        let mut r = XorShift64::new(1);
        let _ = r.below(0);
    }
}
