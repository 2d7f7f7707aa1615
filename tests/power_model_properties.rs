//! Property tests for the continuous V/f power model
//! ([`VoltageCurve`]) and the operating-point ladder
//! ([`VoltageLadder`]) against closed-form invariants: monotonicity of
//! frequency, dynamic power and leakage in the supply voltage; exact
//! agreement with the legacy two-rail constants at VDDH/VDDL; and
//! ladder geometry that never leaves the calibrated range. Each loop
//! draws voltages (and ladder shapes) from a seeded xorshift generator
//! so failures replay deterministically — print the loop's seed and
//! iteration to reproduce.

use vsv_power::{TechParams, VoltageCurve, VoltageLadder, MAX_LADDER_DEPTH};

/// Deterministic xorshift64* generator — no external crates, stable
/// across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[lo, hi)`.
    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Uniform draw in `1..=hi`.
    fn depth(&mut self, hi: usize) -> usize {
        1 + (self.next_u64() as usize) % hi
    }
}

const ITERATIONS: usize = 2_000;
const SEED: u64 = 0x5eed_1add_e12e_57ab;

fn curve() -> (TechParams, VoltageCurve) {
    let t = TechParams::baseline();
    let c = VoltageCurve::from_tech(&t);
    (t, c)
}

/// Frequency and dynamic power are strictly monotone in V over the
/// calibrated range: more voltage, more speed, more power — for every
/// randomly drawn ordered pair.
#[test]
fn frequency_and_dynamic_power_are_monotone_in_voltage() {
    let (t, c) = curve();
    let mut rng = Rng::new(SEED);
    for i in 0..ITERATIONS {
        let a = rng.in_range(t.vddl, t.vddh);
        let b = rng.in_range(t.vddl, t.vddh);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(
            c.frequency_scale(lo) <= c.frequency_scale(hi),
            "iteration {i}: f({lo}) > f({hi})"
        );
        assert!(
            c.dynamic_energy_scale(lo) <= c.dynamic_energy_scale(hi),
            "iteration {i}: e({lo}) > e({hi})"
        );
        assert!(
            c.dynamic_power_scale(lo) <= c.dynamic_power_scale(hi),
            "iteration {i}: p({lo}) > p({hi})"
        );
        // The clock can only get slower (a longer period) as V drops.
        assert!(
            c.clock_period_ns(lo) >= c.clock_period_ns(hi),
            "iteration {i}: period({lo}) < period({hi})"
        );
    }
}

/// Leakage strictly decreases as the supply drops: for every drawn
/// pair with `lo < hi`, `leak(lo) < leak(hi)` — the exponential law
/// has no flat spots.
#[test]
fn leakage_strictly_decreases_as_voltage_drops() {
    let (t, c) = curve();
    let mut rng = Rng::new(SEED ^ 0xbeef);
    for i in 0..ITERATIONS {
        let a = rng.in_range(t.vddl, t.vddh);
        let b = rng.in_range(t.vddl, t.vddh);
        if a == b {
            continue;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        assert!(
            c.leakage_scale(lo) < c.leakage_scale(hi),
            "iteration {i}: leak({lo}) >= leak({hi})"
        );
        // And the scale never leaves (0, 1] on the calibrated range.
        let s = c.leakage_scale(lo);
        assert!(s > 0.0 && s <= 1.0, "iteration {i}: leak({lo}) = {s}");
    }
}

/// The rails sample the continuous model *exactly* — bitwise, not just
/// approximately: frequency 1.0 / 0.5, the legacy `(V/VDDH)²` dynamic
/// energy-per-op constants, the cubic leakage anchor, the 1 ns / 2 ns
/// clock periods. This is the calibration contract that makes the
/// two-rail paper configuration a special case rather than a parallel
/// path.
#[test]
fn rails_sample_the_curve_at_the_legacy_constants() {
    let (t, c) = curve();
    assert_eq!(c.frequency_scale(t.vddh), 1.0);
    assert!((c.frequency_scale(t.vddl) - 0.5).abs() < 1e-12);
    assert_eq!(c.clock_period_ns(t.vddh), t.full_clock_period_ns);
    assert_eq!(c.clock_period_ns(t.vddl), 2 * t.full_clock_period_ns);
    // Energy per op: the identical expression, so bitwise equality.
    assert_eq!(c.dynamic_energy_scale(t.vddh), t.energy_scale(t.vddh));
    assert_eq!(c.dynamic_energy_scale(t.vddl), t.energy_scale(t.vddl));
    assert_eq!(c.dynamic_energy_scale(t.vddh), 1.0);
    assert_eq!(c.leakage_scale(t.vddh), 1.0);
    let cubic_anchor = (t.vddl / t.vddh).powi(3);
    assert!((c.leakage_scale(t.vddl) - cubic_anchor).abs() < 1e-12);
}

/// Every level of every uniform ladder stays inside `[VDDL, VDDH]`,
/// descends strictly, and pins the rails as exact endpoints; the
/// per-step geometry partitions the full swing (energy shares sum to
/// exactly 1 within float tolerance, ramp durations to at least the
/// full-swing ramp).
#[test]
fn uniform_ladder_interpolation_never_leaves_the_rails() {
    let t = TechParams::baseline();
    let mut rng = Rng::new(SEED ^ 0x1adde2);
    for i in 0..ITERATIONS {
        let depth = rng.depth(MAX_LADDER_DEPTH);
        let l = VoltageLadder::uniform(&t, depth);
        l.validate(&t).expect("uniform ladders always validate");
        assert_eq!(l.voltage(0), t.vddh, "iteration {i}");
        if depth >= 2 {
            assert_eq!(l.voltage(depth - 1), t.vddl, "iteration {i}");
        }
        for k in 0..depth {
            let v = l.voltage(k);
            assert!(
                (t.vddl..=t.vddh).contains(&v),
                "iteration {i}: level {k} at {v} V escapes the rails"
            );
            if k > 0 {
                assert!(v < l.voltage(k - 1), "iteration {i}: not descending");
            }
        }
        if depth >= 2 {
            let share: f64 = (0..depth - 1).map(|s| l.step_energy_scale(s, &t)).sum();
            assert!(
                (share - 1.0).abs() < 1e-9,
                "iteration {i}: step energies sum to {share}"
            );
            let ramp: u64 = (0..depth - 1).map(|s| l.step_ramp_ns(s, &t)).sum();
            assert!(
                ramp >= t.ramp_time_ns(),
                "iteration {i}: per-step ceil lost ramp time ({ramp} ns)"
            );
        }
    }
}

/// Randomly drawn in-range ladders validate and keep the same
/// invariants as the uniform family — the contract is about the
/// geometry, not the spacing.
#[test]
fn arbitrary_descending_ladders_validate_and_stay_in_range() {
    let t = TechParams::baseline();
    let mut rng = Rng::new(SEED ^ 0xf00d);
    for i in 0..500 {
        let depth = 2 + (rng.next_u64() as usize) % (MAX_LADDER_DEPTH - 1);
        // Draw depth − 2 strictly interior points, sort them
        // descending between the pinned rails.
        let mut interior: Vec<f64> = (0..depth - 2)
            .map(|_| rng.in_range(t.vddl + 1e-6, t.vddh - 1e-6))
            .collect();
        interior.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        interior.dedup();
        let mut points = vec![t.vddh];
        points.extend_from_slice(&interior);
        points.push(t.vddl);
        let l = VoltageLadder::from_points(&points);
        l.validate(&t)
            .unwrap_or_else(|e| panic!("iteration {i}: {e}"));
        let curve = VoltageCurve::from_tech(&t);
        for k in 0..l.depth() {
            let v = l.voltage(k);
            // Every configured point sustains a clock no faster than
            // VDDH's and no slower than VDDL's.
            let period = curve.clock_period_ns(v);
            assert!(
                (t.full_clock_period_ns..=2 * t.full_clock_period_ns).contains(&period),
                "iteration {i}: period {period} at {v} V"
            );
        }
    }
}

/// The accountant's per-cycle and per-nanosecond integration against
/// a straight-line copy of the model's formulas: for every structure,
/// `(accesses × access energy + clock energy) × scale`, with the clock
/// term chosen by the gating model and the scale by the structure's
/// supply domain; level-converter energy on the fixed-RAM accesses
/// below VDDH; and `(variable × (V/VDDH)³ + fixed) × 1000` pJ of
/// leakage per ns. Runs at VDDH, VDDL, the rails of a 4-deep ladder
/// and mid-ramp voltages, in a random order so the accountant's
/// per-voltage state is rebuilt often, under both gating models with
/// gating on and off. Every accumulator must match bit for bit.
#[test]
fn record_cycle_matches_reference_formula() {
    use vsv_power::{
        ActivitySample, DcgModel, PowerAccountant, PowerConfig, StructureId, VddDomain,
    };

    let t = TechParams::baseline();
    let ladder = VoltageLadder::uniform(&t, 4);
    let mut voltages = vec![t.vddh, t.vddl];
    voltages.extend((0..ladder.depth()).map(|i| ladder.voltage(i)));
    for w in 0..ladder.depth() - 1 {
        let (hi, lo) = (ladder.voltage(w), ladder.voltage(w + 1));
        for f in [0.125, 0.5, 0.875] {
            voltages.push(t.ramp_voltage(hi, lo, f));
        }
    }
    voltages.push((t.vddh + t.ramp_voltage(t.vddh, t.vddl, 1.0 / 12.0)) / 2.0);

    for model in [DcgModel::PerStructure, DcgModel::PerUnit] {
        for dcg in [true, false] {
            let mut cfg = PowerConfig::baseline().with_leakage(0.75);
            cfg.dcg_model = model;
            cfg.dcg_enabled = dcg;
            let mut acc = PowerAccountant::new(cfg);
            let mut per_structure = [0.0f64; StructureId::ALL.len()];
            let mut level_converter = 0.0f64;
            let mut leakage = 0.0f64;
            let mut rng = Rng::new(SEED ^ u64::from(dcg) ^ ((model as u64) << 1));
            for i in 0..20_000 {
                let vdd = voltages[(rng.next_u64() % voltages.len() as u64) as usize];
                let mut sample: ActivitySample = Default::default();
                for s in &mut sample {
                    // Mostly idle structures, some busy past their unit count.
                    let draw = rng.next_u64() % 16;
                    *s = if draw < 9 {
                        0
                    } else {
                        (draw - 8) as u32 * 2 - 1
                    };
                }
                acc.record_cycle(&sample, vdd);
                acc.record_leakage_ns(vdd);

                let scale_var = t.energy_scale(vdd);
                for (k, p) in cfg.catalog.iter().enumerate() {
                    let accesses = f64::from(sample[k]);
                    let access_e = accesses * p.access_energy_pj;
                    let gated_residue = p.clock_energy_pj * (1.0 - cfg.dcg_efficiency);
                    let clock_e = if !(cfg.dcg_enabled && p.gateable) {
                        p.clock_energy_pj
                    } else {
                        match cfg.dcg_model {
                            DcgModel::PerStructure => {
                                if sample[k] > 0 {
                                    p.clock_energy_pj
                                } else {
                                    gated_residue
                                }
                            }
                            DcgModel::PerUnit => {
                                let busy = (accesses / f64::from(cfg.units[k].max(1))).min(1.0);
                                busy * p.clock_energy_pj + (1.0 - busy) * gated_residue
                            }
                        }
                    };
                    let scale = match p.domain {
                        VddDomain::Variable => scale_var,
                        VddDomain::Fixed => 1.0,
                    };
                    per_structure[k] += (access_e + clock_e) * scale;
                }
                if vdd < t.vddh - 1e-9 {
                    let ram = u64::from(sample[StructureId::RegFile.index()])
                        + u64::from(sample[StructureId::IL1.index()])
                        + u64::from(sample[StructureId::DL1.index()]);
                    level_converter += ram as f64 * cfg.level_converter_energy_pj;
                }
                let ratio = vdd / t.vddh;
                let var = cfg.leakage_w * cfg.leakage_variable_fraction * ratio.powi(3);
                let fixed = cfg.leakage_w * (1.0 - cfg.leakage_variable_fraction);
                leakage += (var + fixed) * 1e3;

                let e = acc.breakdown();
                for (k, (got, want)) in e.per_structure_pj.iter().zip(&per_structure).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{model:?} dcg {dcg} cycle {i} at {vdd} V: structure {k}"
                    );
                }
                assert_eq!(
                    e.level_converter_pj.to_bits(),
                    level_converter.to_bits(),
                    "{model:?} dcg {dcg} cycle {i} at {vdd} V: level converter"
                );
                assert_eq!(
                    e.leakage_pj.to_bits(),
                    leakage.to_bits(),
                    "{model:?} dcg {dcg} cycle {i} at {vdd} V: leakage"
                );
            }
        }
    }
}
