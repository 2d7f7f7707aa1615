//! Architectural register names.

use std::fmt;

/// A logical (architectural) register.
///
/// The synthetic ISA exposes an Alpha-like register file: 32 integer
/// registers and 32 floating-point registers, flattened into the range
/// `0..64`. Integer register 31 and FP register 31 are *not* special
/// (there is no hard-wired zero); generators simply avoid writing values
/// they never read.
///
/// # Examples
///
/// ```
/// use vsv_isa::ArchReg;
///
/// let r3 = ArchReg::int(3);
/// let f7 = ArchReg::fp(7);
/// assert!(!r3.is_fp());
/// assert!(f7.is_fp());
/// assert_ne!(r3, f7);
/// ```
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg(pub(crate) u8);

impl ArchReg {
    /// Number of integer registers.
    pub const NUM_INT: u8 = 32;
    /// Number of floating-point registers.
    pub const NUM_FP: u8 = 32;
    /// Total number of architectural registers.
    pub const COUNT: usize = (Self::NUM_INT + Self::NUM_FP) as usize;

    /// Names integer register `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn int(n: u8) -> Self {
        assert!(n < Self::NUM_INT, "integer register {n} out of range");
        ArchReg(n)
    }

    /// Names floating-point register `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    #[must_use]
    pub fn fp(n: u8) -> Self {
        assert!(n < Self::NUM_FP, "fp register {n} out of range");
        ArchReg(Self::NUM_INT + n)
    }

    /// Builds a register from its flat index in `0..64`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ArchReg::COUNT`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        assert!(index < Self::COUNT, "register index {index} out of range");
        ArchReg(index as u8)
    }

    /// The flat index in `0..64` (integer registers first).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if this is a floating-point register.
    #[must_use]
    pub fn is_fp(self) -> bool {
        self.0 >= Self::NUM_INT
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.0 - Self::NUM_INT)
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_spaces_are_disjoint() {
        for n in 0..32 {
            assert!(!ArchReg::int(n).is_fp());
            assert!(ArchReg::fp(n).is_fp());
            assert_ne!(ArchReg::int(n), ArchReg::fp(n));
        }
    }

    #[test]
    fn index_round_trips() {
        for i in 0..ArchReg::COUNT {
            assert_eq!(ArchReg::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArchReg::int(5).to_string(), "r5");
        assert_eq!(ArchReg::fp(5).to_string(), "f5");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_out_of_range_panics() {
        let _ = ArchReg::int(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_out_of_range_panics() {
        let _ = ArchReg::from_index(64);
    }
}
