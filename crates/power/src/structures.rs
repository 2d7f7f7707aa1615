//! The processor-structure catalog: per-access and per-cycle energies,
//! supply-domain membership, and clock-gateability.
//!
//! Energies are calibrated so a fully-busy 8-wide core dissipates on
//! the order of 40 W at 1.8 V / 1 GHz with a Wattch-like breakdown
//! (clock ~20 %, window ~18 %, FUs ~15 %, caches+regfile ~20 %, …).
//! VSV's results are *relative* to this same model, so only the
//! breakdown's shape matters, not its absolute scale.
//!
//! Domain membership follows Figure 1 of the paper: the register file,
//! the L1/L2 caches, the branch predictor's RAM arrays and the PLL stay
//! on the fixed VDDH network; everything else (front/back-end logic,
//! RUU, LSQ, execution units, result bus and the clock tree) is on the
//! dual-supply network and scales with VDD.

/// Which supply network a structure hangs off (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VddDomain {
    /// Dual-supply network: scaled between VDDH and VDDL by VSV.
    Variable,
    /// Fixed VDDH: large RAM structures and the PLL (§3.5).
    Fixed,
}

/// One power-modeled processor structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureId {
    /// Fetch and decode logic.
    Fetch,
    /// Rename/dispatch logic.
    Rename,
    /// The RUU: window RAM, selection and wakeup CAM.
    Ruu,
    /// Load/store queue.
    Lsq,
    /// Architectural register file (fixed VDD, §3.5).
    RegFile,
    /// L1 instruction cache (fixed VDD).
    IL1,
    /// L1 data cache (fixed VDD).
    DL1,
    /// Branch-predictor tables and BTB (large RAM: fixed VDD).
    Bpred,
    /// Integer ALUs.
    IntAlu,
    /// Integer multiplier/dividers.
    IntMulDiv,
    /// FP ALUs.
    FpAlu,
    /// FP multiplier/dividers.
    FpMulDiv,
    /// Result bus drivers.
    ResultBus,
    /// The global clock tree (variable VDD: §3.4).
    ClockTree,
}

impl StructureId {
    /// All structures, in catalog order.
    pub const ALL: [StructureId; 14] = [
        StructureId::Fetch,
        StructureId::Rename,
        StructureId::Ruu,
        StructureId::Lsq,
        StructureId::RegFile,
        StructureId::IL1,
        StructureId::DL1,
        StructureId::Bpred,
        StructureId::IntAlu,
        StructureId::IntMulDiv,
        StructureId::FpAlu,
        StructureId::FpMulDiv,
        StructureId::ResultBus,
        StructureId::ClockTree,
    ];

    /// Dense index into catalog arrays.
    #[must_use]
    pub fn index(self) -> usize {
        StructureId::ALL
            .iter()
            .position(|s| *s == self)
            .expect("StructureId::ALL is exhaustive")
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StructureId::Fetch => "fetch",
            StructureId::Rename => "rename",
            StructureId::Ruu => "ruu",
            StructureId::Lsq => "lsq",
            StructureId::RegFile => "regfile",
            StructureId::IL1 => "il1",
            StructureId::DL1 => "dl1",
            StructureId::Bpred => "bpred",
            StructureId::IntAlu => "int-alu",
            StructureId::IntMulDiv => "int-muldiv",
            StructureId::FpAlu => "fp-alu",
            StructureId::FpMulDiv => "fp-muldiv",
            StructureId::ResultBus => "result-bus",
            StructureId::ClockTree => "clock-tree",
        }
    }
}

/// Power parameters of one structure at VDDH.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructureParams {
    /// Which structure this is.
    pub id: StructureId,
    /// Energy per access, picojoules at VDDH.
    pub access_energy_pj: f64,
    /// Clock/latch energy per clock edge, picojoules at VDDH —
    /// dissipated every cycle the structure is *not* gated off.
    pub clock_energy_pj: f64,
    /// Supply-domain membership (Figure 1).
    pub domain: VddDomain,
    /// Whether deterministic clock gating can gate this structure when
    /// idle (the DCG paper gates FUs, pipeline latches, D-cache
    /// wordline decoders and result-bus drivers).
    pub gateable: bool,
}

/// The default catalog for the Table 1 core.
///
/// # Examples
///
/// ```
/// use vsv_power::{default_catalog, StructureId, VddDomain};
///
/// let cat = default_catalog();
/// let regfile = cat[StructureId::RegFile.index()];
/// assert_eq!(regfile.domain, VddDomain::Fixed);
/// let ruu = cat[StructureId::Ruu.index()];
/// assert_eq!(ruu.domain, VddDomain::Variable);
/// ```
#[must_use]
pub fn default_catalog() -> [StructureParams; 14] {
    use StructureId as S;
    use VddDomain::{Fixed, Variable};
    let p = |id, access, clock, domain, gateable| StructureParams {
        id,
        access_energy_pj: access,
        clock_energy_pj: clock,
        domain,
        gateable,
    };
    [
        // id            access  clock  domain   gateable
        p(S::Fetch, 400.0, 600.0, Variable, true),
        p(S::Rename, 350.0, 400.0, Variable, true),
        p(S::Ruu, 700.0, 1500.0, Variable, true),
        p(S::Lsq, 550.0, 500.0, Variable, true),
        p(S::RegFile, 550.0, 700.0, Fixed, false),
        p(S::IL1, 1400.0, 500.0, Fixed, false),
        p(S::DL1, 1400.0, 600.0, Fixed, true), // wordline decoders gated
        p(S::Bpred, 900.0, 400.0, Fixed, false),
        p(S::IntAlu, 900.0, 900.0, Variable, true),
        p(S::IntMulDiv, 2200.0, 300.0, Variable, true),
        p(S::FpAlu, 1700.0, 600.0, Variable, true),
        p(S::FpMulDiv, 2600.0, 600.0, Variable, true),
        p(S::ResultBus, 700.0, 700.0, Variable, true),
        p(S::ClockTree, 0.0, 7000.0, Variable, false),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_indexable_in_order() {
        for (i, id) in StructureId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert!(!id.name().is_empty());
        }
    }

    #[test]
    fn catalog_covers_every_structure_once() {
        let cat = default_catalog();
        assert_eq!(cat.len(), StructureId::ALL.len());
        for (i, p) in cat.iter().enumerate() {
            assert_eq!(p.id.index(), i, "catalog must be in ALL order");
            assert!(p.access_energy_pj >= 0.0);
            assert!(p.clock_energy_pj >= 0.0);
        }
    }

    #[test]
    fn ram_structures_are_fixed_domain() {
        let cat = default_catalog();
        for id in [
            StructureId::RegFile,
            StructureId::IL1,
            StructureId::DL1,
            StructureId::Bpred,
        ] {
            assert_eq!(cat[id.index()].domain, VddDomain::Fixed, "{}", id.name());
        }
    }

    #[test]
    fn pipeline_and_clock_are_variable_domain() {
        let cat = default_catalog();
        for id in [
            StructureId::Fetch,
            StructureId::Ruu,
            StructureId::IntAlu,
            StructureId::ResultBus,
            StructureId::ClockTree,
        ] {
            assert_eq!(cat[id.index()].domain, VddDomain::Variable, "{}", id.name());
        }
    }

    #[test]
    fn clock_tree_dominates_idle_power() {
        let cat = default_catalog();
        let clock = cat[StructureId::ClockTree.index()].clock_energy_pj;
        for p in &cat {
            if p.id != StructureId::ClockTree {
                assert!(clock > p.clock_energy_pj);
            }
        }
    }
}
