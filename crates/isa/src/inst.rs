//! Dynamic micro-op records.

use std::fmt;

use crate::{ArchReg, OpClass};

/// A program-counter value, in bytes.
///
/// Instructions are 4 bytes wide (Alpha-like); generators advance the PC
/// by [`Pc::STEP`] per instruction on the fall-through path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pc(pub u64);

impl Pc {
    /// Byte distance between sequential instructions.
    pub const STEP: u64 = 4;

    /// The next sequential PC (fall-through successor).
    #[must_use]
    pub fn next(self) -> Pc {
        Pc(self.0.wrapping_add(Self::STEP))
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A byte address in the simulated data address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The address of the cache block containing this address, for a
    /// block of `block_bytes` (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_bytes` is not a power of two.
    #[must_use]
    pub fn block(self, block_bytes: u64) -> Addr {
        debug_assert!(block_bytes.is_power_of_two());
        Addr(self.0 & !(block_bytes - 1))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Flavor of a control-transfer instruction, as seen by the branch
/// predictor (conditional branches consult the direction predictor;
/// calls push and returns pop the return-address stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump.
    Jump,
    /// Subroutine call (pushes the return address).
    Call,
    /// Subroutine return (pops the return-address stack).
    Return,
}

/// Resolved outcome of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// What kind of branch this is.
    pub kind: BranchKind,
    /// Whether the branch is taken. Always `true` for jumps, calls and
    /// returns.
    pub taken: bool,
    /// The target if taken (the fall-through successor otherwise).
    pub target: Pc,
}

/// One dynamic micro-op.
///
/// An `Inst` carries everything the timing model needs: the op class,
/// up to two source registers, an optional destination register, the
/// effective address for memory ops, and the resolved outcome for
/// branches. Construction goes through the class-specific constructors
/// which enforce the fields each class requires.
///
/// The record is packed into 24 bytes, because the fetch queue, the
/// window and the stream hand it around by value every cycle: one
/// payload word holds the memory address (memory ops) or the branch
/// target (branches), registers are single bytes with `NO_REG` for
/// "none", and a flag byte holds the branch kind and direction. The
/// accessors and `Debug` present the logical fields.
///
/// # Examples
///
/// ```
/// use vsv_isa::{Inst, OpClass, ArchReg, Addr, Pc};
///
/// let st = Inst::store(Pc(0x40), Addr(0x1000), ArchReg::int(4));
/// assert_eq!(st.op(), OpClass::Store);
/// assert_eq!(st.mem_addr(), Some(Addr(0x1000)));
/// assert_eq!(st.dst(), None);
/// assert!(std::mem::size_of::<Inst>() <= 24);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    pc: Pc,
    // The memory address for loads/stores/prefetches, the target for
    // branches, zero otherwise.
    payload: u64,
    op: OpClass,
    srcs: [u8; 2],
    dst: u8,
    // Branches only: `FLAG_TAKEN` plus the kind in the low bits.
    flags: u8,
}

/// The register byte meaning "no register".
const NO_REG: u8 = u8::MAX;
/// Branch-flag bit: the branch is taken.
const FLAG_TAKEN: u8 = 0b100;
/// Branch-flag bits holding the [`BranchKind`].
const FLAG_KIND: u8 = 0b011;

fn reg_byte(reg: Option<ArchReg>) -> u8 {
    reg.map_or(NO_REG, |r| r.0)
}

fn byte_reg(b: u8) -> Option<ArchReg> {
    (b != NO_REG).then_some(ArchReg(b))
}

fn branch_flags(info: BranchInfo) -> u8 {
    let kind = match info.kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
    };
    kind | if info.taken { FLAG_TAKEN } else { 0 }
}

impl Inst {
    fn pack(
        pc: Pc,
        op: OpClass,
        srcs: [Option<ArchReg>; 2],
        dst: Option<ArchReg>,
        payload: u64,
        flags: u8,
    ) -> Self {
        Inst {
            pc,
            payload,
            op,
            srcs: [reg_byte(srcs[0]), reg_byte(srcs[1])],
            dst: reg_byte(dst),
            flags,
        }
    }

    /// A single-cycle integer ALU op reading up to two sources.
    ///
    /// # Panics
    ///
    /// Panics if more than two sources are given.
    #[must_use]
    pub fn alu(pc: Pc, dst: ArchReg, srcs: &[ArchReg]) -> Self {
        Self::compute(pc, OpClass::IntAlu, dst, srcs)
    }

    /// A compute op of class `op` (one of the four ALU/mul-div classes).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a compute class or more than two sources
    /// are given.
    #[must_use]
    pub fn compute(pc: Pc, op: OpClass, dst: ArchReg, srcs: &[ArchReg]) -> Self {
        assert!(
            matches!(
                op,
                OpClass::IntAlu | OpClass::IntMulDiv | OpClass::FpAlu | OpClass::FpMulDiv
            ),
            "{op} is not a compute class"
        );
        Self::pack(pc, op, pack_srcs(srcs), Some(dst), 0, 0)
    }

    /// A load producing `dst` from `addr`.
    #[must_use]
    pub fn load(pc: Pc, dst: ArchReg, addr: Addr) -> Self {
        Self::pack(pc, OpClass::Load, [None; 2], Some(dst), addr.0, 0)
    }

    /// A load whose address depends on `base` (pointer chasing).
    #[must_use]
    pub fn load_dep(pc: Pc, dst: ArchReg, base: ArchReg, addr: Addr) -> Self {
        Self::pack(pc, OpClass::Load, [Some(base), None], Some(dst), addr.0, 0)
    }

    /// A store of `data` to `addr`.
    #[must_use]
    pub fn store(pc: Pc, addr: Addr, data: ArchReg) -> Self {
        Self::pack(pc, OpClass::Store, [Some(data), None], None, addr.0, 0)
    }

    /// A software prefetch of `addr` (non-binding, no destination).
    #[must_use]
    pub fn prefetch(pc: Pc, addr: Addr) -> Self {
        Self::pack(pc, OpClass::Prefetch, [None; 2], None, addr.0, 0)
    }

    /// A branch with resolved outcome `info`, optionally reading a
    /// condition register.
    #[must_use]
    pub fn branch(pc: Pc, info: BranchInfo, cond_src: Option<ArchReg>) -> Self {
        Self::pack(
            pc,
            OpClass::Branch,
            [cond_src, None],
            None,
            info.target.0,
            branch_flags(info),
        )
    }

    /// A no-op.
    #[must_use]
    pub fn nop(pc: Pc) -> Self {
        Self::pack(pc, OpClass::Nop, [None; 2], None, 0, 0)
    }

    /// The same micro-op at `pc` (a generator plans an instruction
    /// before it knows where it will be emitted).
    #[must_use]
    pub fn at(self, pc: Pc) -> Self {
        Inst { pc, ..self }
    }

    /// The instruction's PC.
    #[must_use]
    pub fn pc(self) -> Pc {
        self.pc
    }

    /// The functional class.
    #[must_use]
    pub fn op(self) -> OpClass {
        self.op
    }

    /// Source registers (up to two).
    #[must_use]
    pub fn srcs(self) -> [Option<ArchReg>; 2] {
        [byte_reg(self.srcs[0]), byte_reg(self.srcs[1])]
    }

    /// Destination register, if the class produces one.
    #[must_use]
    pub fn dst(self) -> Option<ArchReg> {
        byte_reg(self.dst)
    }

    /// Effective memory address for loads/stores/prefetches.
    #[must_use]
    pub fn mem_addr(self) -> Option<Addr> {
        self.op.is_mem().then_some(Addr(self.payload))
    }

    /// Resolved branch outcome for branches.
    #[must_use]
    pub fn branch_info(self) -> Option<BranchInfo> {
        (self.op == OpClass::Branch).then_some(BranchInfo {
            kind: match self.flags & FLAG_KIND {
                0 => BranchKind::Conditional,
                1 => BranchKind::Jump,
                2 => BranchKind::Call,
                _ => BranchKind::Return,
            },
            taken: self.flags & FLAG_TAKEN != 0,
            target: Pc(self.payload),
        })
    }

    /// Returns `true` if the instruction reads register `reg`.
    #[must_use]
    pub fn reads(self, reg: ArchReg) -> bool {
        self.srcs.contains(&reg.0)
    }

    /// The PC of the instruction executed after this one
    /// (branch target if taken, else fall-through).
    #[must_use]
    pub fn next_pc(self) -> Pc {
        if self.op == OpClass::Branch && self.flags & FLAG_TAKEN != 0 {
            Pc(self.payload)
        } else {
            self.pc.next()
        }
    }
}

impl fmt::Debug for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inst")
            .field("pc", &self.pc)
            .field("op", &self.op)
            .field("srcs", &self.srcs())
            .field("dst", &self.dst())
            .field("mem_addr", &self.mem_addr())
            .field("branch", &self.branch_info())
            .finish()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pc, self.op)?;
        if let Some(d) = self.dst() {
            write!(f, " {d} <-")?;
        }
        for s in self.srcs().iter().flatten() {
            write!(f, " {s}")?;
        }
        if let Some(a) = self.mem_addr() {
            write!(f, " [{a}]")?;
        }
        if let Some(b) = self.branch_info() {
            write!(
                f,
                " {} -> {}",
                if b.taken { "taken" } else { "not-taken" },
                b.target
            )?;
        }
        Ok(())
    }
}

fn pack_srcs(srcs: &[ArchReg]) -> [Option<ArchReg>; 2] {
    assert!(srcs.len() <= 2, "at most two source registers");
    let mut out = [None; 2];
    for (slot, s) in out.iter_mut().zip(srcs.iter()) {
        *slot = Some(*s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_advances_by_step() {
        assert_eq!(Pc(0).next(), Pc(4));
        assert_eq!(Pc(u64::MAX - 3).next(), Pc(0));
    }

    #[test]
    fn addr_block_masks_low_bits() {
        assert_eq!(Addr(0x1234).block(32), Addr(0x1220));
        assert_eq!(Addr(0x1220).block(32), Addr(0x1220));
        assert_eq!(Addr(0x123f).block(64), Addr(0x1200));
    }

    #[test]
    fn alu_has_dst_and_srcs() {
        let i = Inst::alu(Pc(8), ArchReg::int(1), &[ArchReg::int(2), ArchReg::int(3)]);
        assert_eq!(i.dst(), Some(ArchReg::int(1)));
        assert!(i.reads(ArchReg::int(2)));
        assert!(i.reads(ArchReg::int(3)));
        assert!(!i.reads(ArchReg::int(1)));
        assert_eq!(i.mem_addr(), None);
    }

    #[test]
    fn load_dep_reads_base() {
        let i = Inst::load_dep(Pc(0), ArchReg::int(1), ArchReg::int(1), Addr(64));
        assert!(i.reads(ArchReg::int(1)));
        assert_eq!(i.op(), OpClass::Load);
    }

    #[test]
    fn store_has_no_dst() {
        let i = Inst::store(Pc(0), Addr(0x100), ArchReg::int(9));
        assert_eq!(i.dst(), None);
        assert!(i.reads(ArchReg::int(9)));
    }

    #[test]
    fn taken_branch_redirects_next_pc() {
        let info = BranchInfo {
            kind: BranchKind::Conditional,
            taken: true,
            target: Pc(0x100),
        };
        let b = Inst::branch(Pc(0x10), info, Some(ArchReg::int(1)));
        assert_eq!(b.next_pc(), Pc(0x100));
        let nt = Inst::branch(
            Pc(0x10),
            BranchInfo {
                taken: false,
                ..info
            },
            None,
        );
        assert_eq!(nt.next_pc(), Pc(0x14));
    }

    #[test]
    fn non_branch_next_pc_is_fallthrough() {
        assert_eq!(Inst::nop(Pc(0x20)).next_pc(), Pc(0x24));
    }

    #[test]
    #[should_panic(expected = "not a compute class")]
    fn compute_rejects_load_class() {
        let _ = Inst::compute(Pc(0), OpClass::Load, ArchReg::int(0), &[]);
    }

    #[test]
    fn packed_record_is_24_bytes() {
        assert!(std::mem::size_of::<Inst>() <= 24);
    }

    /// Every constructor, over every register, branch kind and
    /// direction and a spread of addresses: the accessors return
    /// exactly what went in.
    #[test]
    fn every_constructor_round_trips() {
        let regs: Vec<ArchReg> = (0..ArchReg::COUNT).map(ArchReg::from_index).collect();
        let words = [0, 4, 0x40, 0xdead_beef, u64::MAX - 3, u64::MAX];
        for &w in &words {
            let pc = Pc(w);
            for (k, &a) in regs.iter().enumerate() {
                let b = regs[(k * 7 + 3) % regs.len()];
                let addr = Addr(w ^ 0x5555);
                for op in [
                    OpClass::IntAlu,
                    OpClass::IntMulDiv,
                    OpClass::FpAlu,
                    OpClass::FpMulDiv,
                ] {
                    for srcs in [&[][..], &[b][..], &[a, b][..], &[a, a][..]] {
                        let i = Inst::compute(pc, op, a, srcs);
                        let mut want = [None; 2];
                        for (slot, s) in want.iter_mut().zip(srcs) {
                            *slot = Some(*s);
                        }
                        assert_eq!((i.pc(), i.op(), i.srcs(), i.dst()), (pc, op, want, Some(a)));
                        assert_eq!((i.mem_addr(), i.branch_info()), (None, None));
                        assert_eq!(i.next_pc(), pc.next());
                    }
                }
                let checks = [
                    (
                        Inst::load(pc, a, addr),
                        OpClass::Load,
                        [None, None],
                        Some(a),
                    ),
                    (
                        Inst::load_dep(pc, a, b, addr),
                        OpClass::Load,
                        [Some(b), None],
                        Some(a),
                    ),
                    (
                        Inst::store(pc, addr, b),
                        OpClass::Store,
                        [Some(b), None],
                        None,
                    ),
                    (
                        Inst::prefetch(pc, addr),
                        OpClass::Prefetch,
                        [None, None],
                        None,
                    ),
                ];
                for (i, op, srcs, dst) in checks {
                    assert_eq!((i.pc(), i.op(), i.srcs(), i.dst()), (pc, op, srcs, dst));
                    assert_eq!((i.mem_addr(), i.branch_info()), (Some(addr), None));
                    assert_eq!(i.next_pc(), pc.next());
                }
                for kind in [
                    BranchKind::Conditional,
                    BranchKind::Jump,
                    BranchKind::Call,
                    BranchKind::Return,
                ] {
                    for taken in [false, true] {
                        for cond in [None, Some(a)] {
                            let info = BranchInfo {
                                kind,
                                taken,
                                target: Pc(w.rotate_left(13)),
                            };
                            let i = Inst::branch(pc, info, cond);
                            assert_eq!(
                                (i.pc(), i.op(), i.srcs(), i.dst()),
                                (pc, OpClass::Branch, [cond, None], None)
                            );
                            assert_eq!((i.mem_addr(), i.branch_info()), (None, Some(info)));
                            let next = if taken { info.target } else { pc.next() };
                            assert_eq!(i.next_pc(), next);
                        }
                    }
                }
            }
            let n = Inst::nop(pc);
            assert_eq!(
                (n.pc(), n.op(), n.srcs(), n.dst()),
                (pc, OpClass::Nop, [None; 2], None)
            );
            assert_eq!(
                (n.mem_addr(), n.branch_info(), n.next_pc()),
                (None, None, pc.next())
            );
        }
    }

    #[test]
    fn debug_prints_the_logical_fields() {
        let i = Inst::load_dep(Pc(8), ArchReg::int(1), ArchReg::int(2), Addr(0x40));
        assert_eq!(
            format!("{i:?}"),
            "Inst { pc: Pc(8), op: Load, srcs: [Some(ArchReg(2)), None], dst: Some(ArchReg(1)), \
             mem_addr: Some(Addr(64)), branch: None }"
        );
    }

    #[test]
    fn display_mentions_fields() {
        let i = Inst::load(Pc(0x1000), ArchReg::int(7), Addr(0xbeef));
        let s = i.to_string();
        assert!(s.contains("load"));
        assert!(s.contains("r7"));
        assert!(s.contains("0xbeef"));
    }
}
