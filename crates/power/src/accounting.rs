//! Energy integration across a run.
//!
//! The accountant consumes one [`ActivitySample`] per *pipeline* cycle
//! together with the effective supply voltage of the variable domain
//! during that cycle (the average of the cycle's start/end voltage
//! while ramping, per §5.2), and integrates per-structure energy.
//! Uncore energy (L2, bus, DRAM — always at VDDH) is added from event
//! counts, and each supply ramp contributes the 66 nJ network charge.

use crate::structures::{StructureId, StructureParams, VddDomain};
use crate::tech::TechParams;

/// Per-structure access counts for one pipeline cycle, indexed by
/// [`StructureId::index`]. The adapter from the core's activity vector
/// lives in the `vsv` system crate, keeping this crate standalone.
pub type ActivitySample = [u32; StructureId::ALL.len()];

/// How deterministic clock gating treats partially-busy structures.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DcgModel {
    /// A structure is either fully clocked (any access this cycle) or
    /// gated (idle). Matches Wattch's aggressive conditional-clocking
    /// style; the default, used for all paper-reproduction numbers.
    #[default]
    PerStructure,
    /// Clock energy scales with the fraction of a structure's units
    /// actually used this cycle (e.g. 3 of 8 ALUs busy → 3/8 of the
    /// clock energy plus the gated residue for the rest). Closer to
    /// the DCG paper's per-latch/per-unit gating; exposed for the
    /// ablation harness.
    PerUnit,
}

/// Full power-model configuration.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConfig {
    /// Technology/supply constants.
    pub tech: TechParams,
    /// The structure catalog.
    pub catalog: [StructureParams; StructureId::ALL.len()],
    /// Whether deterministic clock gating is modeled (the paper's
    /// baseline always gates; turning this off is an ablation).
    pub dcg_enabled: bool,
    /// Gating granularity (see [`DcgModel`]).
    pub dcg_model: DcgModel,
    /// Per-structure unit counts for [`DcgModel::PerUnit`], by
    /// [`StructureId::index`] (an access count equal to the unit count
    /// means "fully busy").
    pub units: [u32; StructureId::ALL.len()],
    /// Fraction of a gateable structure's clock energy removed when it
    /// is idle and gated.
    pub dcg_efficiency: f64,
    /// Extra energy per fixed-RAM access while the pipeline is at low
    /// VDD: the level-converting latches on the VDDL→VDDH paths
    /// (§3.6). At VDDH the regular latches are used instead.
    pub level_converter_energy_pj: f64,
    /// Energy per L2 access (fixed VDDH).
    pub l2_access_energy_pj: f64,
    /// Energy per DRAM access (off-chip; charged for completeness).
    pub dram_access_energy_pj: f64,
    /// Energy per memory-bus transaction.
    pub bus_transaction_energy_pj: f64,
    /// Static (leakage) power of the whole core at VDDH, in watts —
    /// charged per nanosecond and scaled by `(V/VDDH)³` on the
    /// variable domain (the paper cites a VDD³–VDD⁴ leakage
    /// dependence in §1 but models dynamic power only; `0.0`, the
    /// default, reproduces the paper. `leakage_variable_fraction` of
    /// it sits on the dual-supply network).
    pub leakage_w: f64,
    /// Fraction of `leakage_w` on the variable-VDD domain.
    pub leakage_variable_fraction: f64,
}

impl PowerConfig {
    /// The paper's setup: 0.18 µm tech constants, default catalog,
    /// DCG on.
    #[must_use]
    pub fn baseline() -> Self {
        PowerConfig {
            tech: TechParams::baseline(),
            catalog: crate::structures::default_catalog(),
            dcg_enabled: true,
            dcg_efficiency: 0.85,
            dcg_model: DcgModel::PerStructure,
            units: [
                8,  // fetch: slots
                8,  // rename: slots
                8,  // ruu: ports-worth of activity
                4,  // lsq
                12, // regfile ports
                1,  // il1
                2,  // dl1 ports
                2,  // bpred ports
                8,  // int alus
                2,  // int muldiv
                4,  // fp alus
                4,  // fp muldiv
                8,  // result bus lanes
                1,  // clock tree
            ],
            level_converter_energy_pj: 60.0,
            l2_access_energy_pj: 3_500.0,
            dram_access_energy_pj: 18_000.0,
            bus_transaction_energy_pj: 1_200.0,
            leakage_w: 0.0,
            leakage_variable_fraction: 0.6,
        }
    }

    /// The paper's configuration plus a leakage estimate typical of
    /// later nodes (an *extension*: the paper models dynamic power
    /// only). `leakage_w` is the whole-core static power at VDDH.
    #[must_use]
    pub fn with_leakage(mut self, leakage_w: f64) -> Self {
        self.leakage_w = leakage_w;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.tech.validate()?;
        if !(0.0..=1.0).contains(&self.dcg_efficiency) {
            return Err("dcg_efficiency must be in [0, 1]".into());
        }
        for p in &self.catalog {
            if p.access_energy_pj < 0.0 || p.clock_energy_pj < 0.0 {
                return Err(format!("negative energy for {}", p.id.name()));
            }
        }
        if self.leakage_w < 0.0 {
            return Err("leakage cannot be negative".into());
        }
        if !(0.0..=1.0).contains(&self.leakage_variable_fraction) {
            return Err("leakage_variable_fraction must be in [0, 1]".into());
        }
        Ok(())
    }
}

/// Integrated energy totals for a run.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Per-structure energy in picojoules, by [`StructureId::index`].
    pub per_structure_pj: [f64; StructureId::ALL.len()],
    /// Supply-ramp energy (66 nJ × ramps).
    pub ramp_pj: f64,
    /// Level-converter energy.
    pub level_converter_pj: f64,
    /// L2 + bus + DRAM energy.
    pub uncore_pj: f64,
    /// Static (leakage) energy, if the leakage extension is enabled.
    pub leakage_pj: f64,
    /// Pipeline cycles integrated.
    pub cycles: u64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.per_structure_pj.iter().sum::<f64>()
            + self.ramp_pj
            + self.level_converter_pj
            + self.uncore_pj
            + self.leakage_pj
    }
}

/// The run-long energy integrator.
///
/// # Examples
///
/// ```
/// use vsv_power::{ActivitySample, PowerAccountant, PowerConfig, StructureId};
///
/// let mut acc = PowerAccountant::new(PowerConfig::baseline());
/// let mut sample: ActivitySample = Default::default();
/// sample[StructureId::IntAlu.index()] = 4;
/// acc.record_cycle(&sample, 1.8);
/// acc.record_cycle(&sample, 1.2); // same work, lower voltage
/// let e = acc.breakdown();
/// assert!(e.total_pj() > 0.0);
/// assert_eq!(e.cycles, 2);
/// ```
#[derive(Debug, Clone)]
pub struct PowerAccountant {
    cfg: PowerConfig,
    per_structure_pj: [f64; StructureId::ALL.len()],
    ramp_pj: f64,
    level_converter_pj: f64,
    uncore_pj: f64,
    leakage_pj: f64,
    cycles: u64,
    ramps: u64,
    // Per-structure access energy and, under `DcgModel::PerStructure`,
    // the clock energy of an idle and a busy cycle: fixed by the
    // configuration.
    access_pj: [f64; StructureId::ALL.len()],
    idle_clock_pj: [f64; StructureId::ALL.len()],
    busy_clock_pj: [f64; StructureId::ALL.len()],
    // Per-voltage memo, rebuilt whenever the supply changes (rare:
    // mode transitions and ramp steps): each structure's energy scale
    // at `memo_vdd`, whether that is below VDDH, and the leakage
    // charged per nanosecond there.
    memo_vdd: f64,
    memo_scale: [f64; StructureId::ALL.len()],
    memo_low_mode: bool,
    memo_leakage_pj: f64,
}

impl PowerAccountant {
    /// Creates a zeroed accountant.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`PowerConfig::validate`].
    #[must_use]
    pub fn new(cfg: PowerConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid power configuration: {e}");
        }
        let access_pj = cfg.catalog.map(|p| p.access_energy_pj);
        let idle_clock_pj = cfg.catalog.map(|p| {
            if cfg.dcg_enabled && p.gateable {
                p.clock_energy_pj * (1.0 - cfg.dcg_efficiency)
            } else {
                p.clock_energy_pj
            }
        });
        let busy_clock_pj = cfg.catalog.map(|p| p.clock_energy_pj);
        PowerAccountant {
            cfg,
            per_structure_pj: [0.0; StructureId::ALL.len()],
            ramp_pj: 0.0,
            level_converter_pj: 0.0,
            uncore_pj: 0.0,
            leakage_pj: 0.0,
            cycles: 0,
            ramps: 0,
            access_pj,
            idle_clock_pj,
            busy_clock_pj,
            memo_vdd: f64::NAN,
            memo_scale: [f64::NAN; StructureId::ALL.len()],
            memo_low_mode: false,
            memo_leakage_pj: f64::NAN,
        }
    }

    /// Rebuilds the per-voltage memo if `vdd` differs from the memoised
    /// supply.
    fn memoise_vdd(&mut self, vdd: f64) {
        if vdd.to_bits() != self.memo_vdd.to_bits() {
            self.rebuild_memo(vdd);
        }
    }

    #[cold]
    fn rebuild_memo(&mut self, vdd: f64) {
        let scale_var = self.cfg.tech.energy_scale(vdd);
        self.memo_scale = self.cfg.catalog.map(|p| match p.domain {
            VddDomain::Variable => scale_var,
            VddDomain::Fixed => 1.0,
        });
        self.memo_low_mode = vdd < self.cfg.tech.vddh - 1e-9;
        self.memo_leakage_pj = self.leakage_delta_pj(vdd);
        self.memo_vdd = vdd;
    }

    /// Static energy of one nanosecond at `vdd`, in picojoules.
    /// Leakage on the variable domain scales as `(V/VDDH)³` (§1's
    /// cited dependence); the fixed-domain share does not scale.
    fn leakage_delta_pj(&self, vdd: f64) -> f64 {
        let ratio = vdd / self.cfg.tech.vddh;
        let var = self.cfg.leakage_w * self.cfg.leakage_variable_fraction * ratio.powi(3);
        let fixed = self.cfg.leakage_w * (1.0 - self.cfg.leakage_variable_fraction);
        // 1 W for 1 ns = 1000 pJ.
        (var + fixed) * 1e3
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PowerConfig {
        &self.cfg
    }

    /// Integrates one pipeline cycle of activity at effective supply
    /// `vdd` (volts) on the variable domain.
    ///
    /// Each structure is charged `(access_e + clock_e) * scale`: its
    /// accesses times the access energy, plus the clock energy the
    /// gating model leaves it this cycle, scaled by `(V/VDDH)²` on the
    /// variable domain.
    pub fn record_cycle(&mut self, sample: &ActivitySample, vdd: f64) {
        self.memoise_vdd(vdd);
        match self.cfg.dcg_model {
            DcgModel::PerStructure => {
                for (i, &accesses) in sample.iter().enumerate() {
                    let access_e = f64::from(accesses) * self.access_pj[i];
                    // A select, not a branch on the activity.
                    let clock_e = if accesses == 0 {
                        self.idle_clock_pj[i]
                    } else {
                        self.busy_clock_pj[i]
                    };
                    self.per_structure_pj[i] += (access_e + clock_e) * self.memo_scale[i];
                }
            }
            DcgModel::PerUnit => {
                for (i, p) in self.cfg.catalog.iter().enumerate() {
                    let accesses = f64::from(sample[i]);
                    let access_e = accesses * p.access_energy_pj;
                    let clock_e = if self.cfg.dcg_enabled && p.gateable {
                        let gated_residue = p.clock_energy_pj * (1.0 - self.cfg.dcg_efficiency);
                        let busy = (accesses / f64::from(self.cfg.units[i].max(1))).min(1.0);
                        busy * p.clock_energy_pj + (1.0 - busy) * gated_residue
                    } else {
                        p.clock_energy_pj
                    };
                    self.per_structure_pj[i] += (access_e + clock_e) * self.memo_scale[i];
                }
            }
        }
        if self.memo_low_mode {
            // Level-converting latches on the paths into the VDDH RAM
            // structures are selected instead of the regular latches.
            let ram_accesses = u64::from(sample[StructureId::RegFile.index()])
                + u64::from(sample[StructureId::IL1.index()])
                + u64::from(sample[StructureId::DL1.index()]);
            self.level_converter_pj += ram_accesses as f64 * self.cfg.level_converter_energy_pj;
        }
        self.cycles += 1;
    }

    /// Batch-integrates `cycles` pipeline cycles with **zero activity**
    /// at a constant effective supply `vdd`: bit-identical to `cycles`
    /// calls of [`PowerAccountant::record_cycle`] with an all-zero
    /// sample. The per-cycle energy delta is computed once, with the
    /// exact expression sequence `record_cycle` uses, then added to
    /// each accumulator once per cycle (repeated addition, not
    /// multiplication, because floating-point `x+d+d ≠ x+2d` in
    /// general).
    pub fn record_idle_cycles(&mut self, cycles: u64, vdd: f64) {
        if cycles == 0 {
            return;
        }
        // An idle structure's clock energy is the gated one under both
        // gating models (a zero `PerUnit` busy fraction leaves exactly
        // the gated residue).
        self.memoise_vdd(vdd);
        let mut delta = [0.0f64; StructureId::ALL.len()];
        for (i, d) in delta.iter_mut().enumerate() {
            let access_e = f64::from(0u32) * self.access_pj[i];
            *d = (access_e + self.idle_clock_pj[i]) * self.memo_scale[i];
        }
        for _ in 0..cycles {
            for (acc, d) in self.per_structure_pj.iter_mut().zip(delta.iter()) {
                *acc += *d;
            }
        }
        // The level converter sees zero RAM accesses, so `record_cycle`
        // would add exactly +0.0 — a bitwise no-op on the non-negative
        // accumulator. Nothing to do.
        self.cycles += cycles;
    }

    /// Batch-integrates `ns` nanoseconds of static (leakage) power at a
    /// constant voltage: bit-identical to `ns` calls of
    /// [`PowerAccountant::record_leakage_ns`] (the per-nanosecond delta
    /// is constant at constant `vdd`, and is added once per nanosecond).
    pub fn record_leakage_span(&mut self, ns: u64, vdd: f64) {
        if self.cfg.leakage_w == 0.0 {
            return;
        }
        let delta = self.leakage_delta_pj(vdd);
        for _ in 0..ns {
            self.leakage_pj += delta;
        }
    }

    /// Integrates one nanosecond of static (leakage) power at the
    /// given variable-domain voltage. No-op when the leakage extension
    /// is disabled (`leakage_w == 0`, the paper's model). Leakage on
    /// the variable domain scales as `(V/VDDH)³` (§1's cited
    /// dependence); the fixed-domain share does not scale.
    pub fn record_leakage_ns(&mut self, vdd: f64) {
        if self.cfg.leakage_w == 0.0 {
            return;
        }
        self.memoise_vdd(vdd);
        self.leakage_pj += self.memo_leakage_pj;
    }

    /// Charges one full-swing supply ramp (either direction): the
    /// 66 nJ dual-network transition energy.
    pub fn record_ramp(&mut self) {
        self.record_ramp_scaled(1.0);
    }

    /// Charges one supply-ramp step covering `scale` of the full
    /// VDDH↔VDDL swing. A ladder step between intermediate rails
    /// moves proportionally less charge between the networks, so it
    /// pays a proportional share of the 66 nJ; `scale = 1.0` is the
    /// full-swing [`PowerAccountant::record_ramp`].
    pub fn record_ramp_scaled(&mut self, scale: f64) {
        self.ramp_pj += self.cfg.tech.ramp_energy_pj * scale;
        self.ramps += 1;
    }

    /// Adds uncore energy from event counts (L2 accesses, DRAM
    /// accesses, bus transactions) — all at fixed VDDH.
    pub fn record_uncore(&mut self, l2_accesses: u64, dram_accesses: u64, bus_transactions: u64) {
        self.uncore_pj += l2_accesses as f64 * self.cfg.l2_access_energy_pj
            + dram_accesses as f64 * self.cfg.dram_access_energy_pj
            + bus_transactions as f64 * self.cfg.bus_transaction_energy_pj;
    }

    /// The integrated breakdown so far.
    #[must_use]
    pub fn breakdown(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            per_structure_pj: self.per_structure_pj,
            ramp_pj: self.ramp_pj,
            level_converter_pj: self.level_converter_pj,
            uncore_pj: self.uncore_pj,
            leakage_pj: self.leakage_pj,
            cycles: self.cycles,
        }
    }

    /// Total energy so far, picojoules.
    #[must_use]
    pub fn total_energy_pj(&self) -> f64 {
        self.breakdown().total_pj()
    }

    /// Number of ramps charged.
    #[must_use]
    pub fn ramps(&self) -> u64 {
        self.ramps
    }

    /// Average power over `elapsed_ns` of wall clock, in watts
    /// (1 pJ/ns = 1 mW).
    #[must_use]
    pub fn average_power_w(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.total_energy_pj() / elapsed_ns as f64 * 1e-3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_sample() -> ActivitySample {
        let mut s: ActivitySample = Default::default();
        for v in s.iter_mut() {
            *v = 2;
        }
        s
    }

    #[test]
    fn lower_vdd_costs_less_for_same_work() {
        let mut hi = PowerAccountant::new(PowerConfig::baseline());
        let mut lo = PowerAccountant::new(PowerConfig::baseline());
        let s = busy_sample();
        hi.record_cycle(&s, 1.8);
        lo.record_cycle(&s, 1.2);
        assert!(lo.total_energy_pj() < hi.total_energy_pj());
        // But not free: fixed-domain structures don't scale.
        assert!(lo.total_energy_pj() > hi.total_energy_pj() * 0.3);
    }

    #[test]
    fn voltage_scaling_is_monotonic() {
        let s = busy_sample();
        let mut last = f64::INFINITY;
        for v in [1.8, 1.6, 1.4, 1.2] {
            let mut acc = PowerAccountant::new(PowerConfig::baseline());
            acc.record_cycle(&s, v);
            let e = acc.total_energy_pj();
            assert!(e < last, "energy must fall with voltage");
            last = e;
        }
    }

    #[test]
    fn fixed_domain_unaffected_by_vdd() {
        let mut acc_hi = PowerAccountant::new(PowerConfig::baseline());
        let mut acc_lo = PowerAccountant::new(PowerConfig::baseline());
        let mut s: ActivitySample = Default::default();
        s[StructureId::RegFile.index()] = 5;
        acc_hi.record_cycle(&s, 1.8);
        acc_lo.record_cycle(&s, 1.2);
        let i = StructureId::RegFile.index();
        assert!(
            (acc_hi.breakdown().per_structure_pj[i] - acc_lo.breakdown().per_structure_pj[i]).abs()
                < 1e-9
        );
    }

    #[test]
    fn dcg_cuts_idle_clock_energy_only() {
        let mut gated = PowerConfig::baseline();
        gated.dcg_enabled = true;
        let mut ungated = PowerConfig::baseline();
        ungated.dcg_enabled = false;
        let idle: ActivitySample = Default::default();

        let mut a = PowerAccountant::new(gated);
        let mut b = PowerAccountant::new(ungated);
        a.record_cycle(&idle, 1.8);
        b.record_cycle(&idle, 1.8);
        assert!(a.total_energy_pj() < b.total_energy_pj());

        // With every structure busy, gating changes nothing.
        let mut a2 = PowerAccountant::new(gated);
        let mut b2 = PowerAccountant::new(ungated);
        let busy = busy_sample();
        a2.record_cycle(&busy, 1.8);
        b2.record_cycle(&busy, 1.8);
        assert!((a2.total_energy_pj() - b2.total_energy_pj()).abs() < 1e-9);
    }

    #[test]
    fn clock_tree_burns_even_when_idle() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_cycle(&Default::default(), 1.8);
        let e = acc.breakdown().per_structure_pj[StructureId::ClockTree.index()];
        assert!(e > 0.0, "clock tree is not gateable");
    }

    #[test]
    fn ramp_energy_accumulates() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_ramp();
        acc.record_ramp();
        assert_eq!(acc.ramps(), 2);
        assert!((acc.breakdown().ramp_pj - 132_000.0).abs() < 1e-6);
    }

    #[test]
    fn level_converters_charged_only_at_low_vdd() {
        let mut s: ActivitySample = Default::default();
        s[StructureId::DL1.index()] = 3;
        let mut hi = PowerAccountant::new(PowerConfig::baseline());
        hi.record_cycle(&s, 1.8);
        assert_eq!(hi.breakdown().level_converter_pj, 0.0);
        let mut lo = PowerAccountant::new(PowerConfig::baseline());
        lo.record_cycle(&s, 1.2);
        assert!((lo.breakdown().level_converter_pj - 180.0).abs() < 1e-9);
    }

    #[test]
    fn uncore_energy_from_counts() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_uncore(10, 2, 4);
        let expect = 10.0 * 3_500.0 + 2.0 * 18_000.0 + 4.0 * 1_200.0;
        assert!((acc.breakdown().uncore_pj - expect).abs() < 1e-6);
    }

    #[test]
    fn average_power_units() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        let busy = busy_sample();
        for _ in 0..1000 {
            acc.record_cycle(&busy, 1.8);
        }
        let w = acc.average_power_w(1000);
        // A fully-busy 8-wide core should land in tens of watts.
        assert!(w > 10.0 && w < 100.0, "got {w} W");
        assert_eq!(acc.average_power_w(0), 0.0);
    }

    #[test]
    fn busy_cycle_breakdown_shape_is_wattch_like() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_cycle(&busy_sample(), 1.8);
        let b = acc.breakdown();
        let total: f64 = b.per_structure_pj.iter().sum();
        let clock = b.per_structure_pj[StructureId::ClockTree.index()];
        let frac = clock / total;
        assert!(
            (0.1..0.4).contains(&frac),
            "clock tree should be a large-but-not-dominant slice, got {frac}"
        );
    }

    #[test]
    #[should_panic(expected = "invalid power configuration")]
    fn invalid_config_panics() {
        let mut cfg = PowerConfig::baseline();
        cfg.dcg_efficiency = 1.5;
        let _ = PowerAccountant::new(cfg);
    }
}

impl EnergyBreakdown {
    /// Renders a per-structure table: name, picojoules, percent of
    /// total — the Wattch-style breakdown view.
    ///
    /// # Examples
    ///
    /// ```
    /// use vsv_power::{ActivitySample, PowerAccountant, PowerConfig};
    ///
    /// let mut acc = PowerAccountant::new(PowerConfig::baseline());
    /// acc.record_cycle(&ActivitySample::default(), 1.8);
    /// let table = acc.breakdown().table();
    /// assert!(table.contains("clock-tree"));
    /// assert!(table.contains("total"));
    /// ```
    #[must_use]
    pub fn table(&self) -> String {
        use crate::structures::StructureId;
        use std::fmt::Write as _;

        let total = self.total_pj();
        let mut out = String::new();
        let mut row = |name: &str, pj: f64| {
            let pct = if total > 0.0 { pj / total * 100.0 } else { 0.0 };
            let _ = writeln!(out, "{name:<14} {pj:>14.0} pJ {pct:>6.1}%");
        };
        for id in StructureId::ALL {
            row(id.name(), self.per_structure_pj[id.index()]);
        }
        row("level-conv", self.level_converter_pj);
        row("ramps", self.ramp_pj);
        row("uncore", self.uncore_pj);
        row("leakage", self.leakage_pj);
        let _ = writeln!(out, "{:-<38}", "");
        let _ = writeln!(out, "{:<14} {:>14.0} pJ  100.0%", "total", total);
        out
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::structures::StructureId;

    #[test]
    fn table_lists_every_structure_and_sums() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        let mut s: ActivitySample = Default::default();
        s[StructureId::IntAlu.index()] = 3;
        acc.record_cycle(&s, 1.8);
        acc.record_ramp();
        acc.record_uncore(2, 1, 1);
        let b = acc.breakdown();
        let t = b.table();
        for id in StructureId::ALL {
            assert!(t.contains(id.name()), "missing {}", id.name());
        }
        assert!(t.contains("ramps"));
        assert!(t.contains("uncore"));
        // Components add to the total.
        let parts: f64 =
            b.per_structure_pj.iter().sum::<f64>() + b.ramp_pj + b.level_converter_pj + b.uncore_pj;
        assert!((parts - b.total_pj()).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_has_clean_table() {
        let acc = PowerAccountant::new(PowerConfig::baseline());
        let t = acc.breakdown().table();
        assert!(t.contains("total"));
    }
}

#[cfg(test)]
mod dcg_model_tests {
    use super::*;
    use crate::structures::StructureId;

    fn one_alu_sample() -> ActivitySample {
        let mut s: ActivitySample = Default::default();
        s[StructureId::IntAlu.index()] = 1;
        s
    }

    #[test]
    fn per_unit_gating_charges_partial_clock_energy() {
        let mut per_structure = PowerConfig::baseline();
        per_structure.dcg_model = DcgModel::PerStructure;
        let mut per_unit = PowerConfig::baseline();
        per_unit.dcg_model = DcgModel::PerUnit;

        // One of eight ALUs busy: per-unit gating must charge less
        // clock energy than all-or-nothing gating (which clocks the
        // whole pool because it saw an access).
        let mut a = PowerAccountant::new(per_structure);
        let mut b = PowerAccountant::new(per_unit);
        a.record_cycle(&one_alu_sample(), 1.8);
        b.record_cycle(&one_alu_sample(), 1.8);
        let i = StructureId::IntAlu.index();
        assert!(
            b.breakdown().per_structure_pj[i] < a.breakdown().per_structure_pj[i],
            "per-unit {} !< per-structure {}",
            b.breakdown().per_structure_pj[i],
            a.breakdown().per_structure_pj[i]
        );
    }

    #[test]
    fn per_unit_converges_to_full_clock_when_saturated() {
        let mut cfg = PowerConfig::baseline();
        cfg.dcg_model = DcgModel::PerUnit;
        let mut full: ActivitySample = Default::default();
        full[StructureId::IntAlu.index()] = 8; // all units busy
        let mut acc = PowerAccountant::new(cfg);
        acc.record_cycle(&full, 1.8);

        let mut reference = PowerAccountant::new(PowerConfig::baseline());
        reference.record_cycle(&full, 1.8);
        let i = StructureId::IntAlu.index();
        assert!(
            (acc.breakdown().per_structure_pj[i] - reference.breakdown().per_structure_pj[i]).abs()
                < 1e-9,
            "saturated per-unit equals per-structure"
        );
    }

    #[test]
    fn per_unit_idle_equals_gated_residue() {
        let mut cfg = PowerConfig::baseline();
        cfg.dcg_model = DcgModel::PerUnit;
        let mut a = PowerAccountant::new(cfg);
        a.record_cycle(&Default::default(), 1.8);
        let mut b = PowerAccountant::new(PowerConfig::baseline());
        b.record_cycle(&Default::default(), 1.8);
        assert!((a.total_energy_pj() - b.total_energy_pj()).abs() < 1e-9);
    }
}

#[cfg(test)]
mod leakage_tests {
    use super::*;

    #[test]
    fn leakage_off_by_default_matches_the_paper() {
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_leakage_ns(1.8);
        acc.record_leakage_ns(1.2);
        assert_eq!(acc.breakdown().leakage_pj, 0.0);
    }

    #[test]
    fn leakage_integrates_per_ns_and_scales_cubically() {
        let cfg = PowerConfig::baseline().with_leakage(10.0);
        let mut acc = PowerAccountant::new(cfg);
        acc.record_leakage_ns(1.8);
        // 10 W x 1 ns = 10_000 pJ at VDDH.
        assert!((acc.breakdown().leakage_pj - 10_000.0).abs() < 1e-6);

        let mut low = PowerAccountant::new(cfg);
        low.record_leakage_ns(1.2);
        // Variable 60% scales by (1.2/1.8)^3 ≈ 0.296; fixed 40% stays.
        let expect = 10_000.0 * (0.6 * (1.2f64 / 1.8).powi(3) + 0.4);
        assert!(
            (low.breakdown().leakage_pj - expect).abs() < 1e-6,
            "{} vs {}",
            low.breakdown().leakage_pj,
            expect
        );
        assert!(low.breakdown().leakage_pj < acc.breakdown().leakage_pj);
    }

    #[test]
    fn leakage_validation() {
        let mut cfg = PowerConfig::baseline();
        cfg.leakage_w = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = PowerConfig::baseline();
        cfg.leakage_variable_fraction = 1.5;
        assert!(cfg.validate().is_err());
    }
}
