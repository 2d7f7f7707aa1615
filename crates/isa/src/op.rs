//! Functional operation classes.

use std::fmt;

/// Functional class of a micro-op.
///
/// The class determines which functional-unit pool an instruction
/// competes for in the 8-way core (Table 1 of the paper: 8 integer ALUs,
/// 2 integer mul/div units, 4 FP ALUs, 4 FP mul/div units) and which
/// pipeline structures it touches for power accounting.
///
/// # Examples
///
/// ```
/// use vsv_isa::OpClass;
///
/// assert!(OpClass::Load.is_mem());
/// assert!(OpClass::FpMulDiv.is_fp());
/// assert!(!OpClass::Branch.is_mem());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Single-cycle integer arithmetic/logic (also address generation).
    IntAlu,
    /// Long-latency integer multiply/divide.
    IntMulDiv,
    /// Pipelined floating-point add/compare/convert.
    FpAlu,
    /// Long-latency floating-point multiply/divide/sqrt.
    FpMulDiv,
    /// Memory read. Occupies the LSQ and accesses the D-cache.
    Load,
    /// Memory write. Occupies the LSQ; writes at commit.
    Store,
    /// Control transfer (conditional, jump, call, return).
    Branch,
    /// Software prefetch: a non-binding cache hint. Misses it causes in
    /// the L2 are *prefetch* misses and do not trigger VSV's down-FSM
    /// (paper §4.2).
    Prefetch,
    /// No-operation; consumes a slot, touches no FU.
    Nop,
}

impl OpClass {
    /// All classes, in a fixed order (useful for per-class tallies).
    pub const ALL: [OpClass; 9] = [
        OpClass::IntAlu,
        OpClass::IntMulDiv,
        OpClass::FpAlu,
        OpClass::FpMulDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Prefetch,
        OpClass::Nop,
    ];

    /// Returns `true` for classes that access data memory
    /// (loads, stores and software prefetches).
    #[must_use]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store | OpClass::Prefetch)
    }

    /// Returns `true` for floating-point classes.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpAlu | OpClass::FpMulDiv)
    }

    /// Returns `true` if the class produces a register result that other
    /// instructions can wait on.
    #[must_use]
    pub fn writes_reg(self) -> bool {
        matches!(
            self,
            OpClass::IntAlu
                | OpClass::IntMulDiv
                | OpClass::FpAlu
                | OpClass::FpMulDiv
                | OpClass::Load
        )
    }

    /// A dense index in `0..OpClass::ALL.len()`, stable across runs.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMulDiv => 1,
            OpClass::FpAlu => 2,
            OpClass::FpMulDiv => 3,
            OpClass::Load => 4,
            OpClass::Store => 5,
            OpClass::Branch => 6,
            OpClass::Prefetch => 7,
            OpClass::Nop => 8,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::IntAlu => "int-alu",
            OpClass::IntMulDiv => "int-muldiv",
            OpClass::FpAlu => "fp-alu",
            OpClass::FpMulDiv => "fp-muldiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Prefetch => "prefetch",
            OpClass::Nop => "nop",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_class_once() {
        for (i, op) in OpClass::ALL.iter().enumerate() {
            assert_eq!(op.index(), i, "ALL order must match index()");
        }
    }

    #[test]
    fn mem_classes() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(OpClass::Prefetch.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(!OpClass::Branch.is_mem());
        assert!(!OpClass::Nop.is_mem());
    }

    #[test]
    fn fp_classes() {
        assert!(OpClass::FpAlu.is_fp());
        assert!(OpClass::FpMulDiv.is_fp());
        assert!(!OpClass::IntMulDiv.is_fp());
        assert!(!OpClass::Load.is_fp());
    }

    #[test]
    fn register_writers() {
        assert!(OpClass::Load.writes_reg());
        assert!(OpClass::IntAlu.writes_reg());
        assert!(OpClass::FpMulDiv.writes_reg());
        assert!(!OpClass::Store.writes_reg());
        assert!(!OpClass::Branch.writes_reg());
        assert!(!OpClass::Prefetch.writes_reg());
        assert!(!OpClass::Nop.writes_reg());
    }

    #[test]
    fn display_is_nonempty_and_lowercase() {
        for op in OpClass::ALL {
            let s = op.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
