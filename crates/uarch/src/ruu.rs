//! The Register Update Unit: a combined instruction window / reorder
//! buffer with register renaming, as in SimpleScalar's `sim-outorder`
//! (the simulator family the paper's Wattch setup derives from).

use std::collections::VecDeque;

use vsv_isa::{Addr, ArchReg, Inst, OpClass, Pc};

/// A dynamic-instruction sequence number: dense, monotonically
/// increasing in program order.
pub type Seq = u64;

/// Lifecycle of an RUU entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting on source operands.
    Waiting,
    /// Operands ready; eligible for issue.
    Ready,
    /// Executing on a functional unit (or waiting on a cache miss).
    Issued,
    /// Result produced; eligible for in-order commit.
    Completed,
}

/// One in-flight instruction.
#[derive(Debug, Clone, Copy)]
pub struct RuuEntry {
    /// Program-order sequence number.
    pub seq: Seq,
    /// The instruction itself.
    pub inst: Inst,
    /// Current lifecycle state.
    pub state: EntryState,
    /// Unresolved source dependences.
    pub deps_outstanding: u8,
    /// Set at dispatch for branches whose fetch-time prediction was
    /// wrong; fetch resumes `penalty` cycles after this resolves.
    pub mispredicted: bool,
}

/// The register update unit plus LSQ occupancy accounting.
///
/// The window is a ring of `capacity.next_power_of_two()` slots; the
/// entry with sequence number `seq` lives in slot `seq & mask` from
/// dispatch until commit, so no entry ever moves. Per-slot bitmaps over
/// the same slots hold the ready set and each producer's consumers.
///
/// # Examples
///
/// ```
/// use vsv_isa::{ArchReg, Inst, Pc};
/// use vsv_uarch::{EntryState, Ruu};
///
/// let mut ruu = Ruu::new(4, 2);
/// let producer = ruu.dispatch(Inst::alu(Pc(0), ArchReg::int(1), &[]), false);
/// let consumer = ruu.dispatch(
///     Inst::alu(Pc(4), ArchReg::int(2), &[ArchReg::int(1)]),
///     false,
/// );
/// assert_eq!(ruu.entry(consumer).unwrap().state, EntryState::Waiting);
/// ruu.mark_issued(producer);
/// ruu.complete(producer);
/// assert_eq!(ruu.entry(consumer).unwrap().state, EntryState::Ready);
/// ```
#[derive(Debug, Clone)]
pub struct Ruu {
    slots: Box<[RuuEntry]>,
    mask: u64,
    head_seq: Seq,
    next_seq: Seq,
    capacity: usize,
    lsq_capacity: usize,
    lsq_occupancy: usize,
    // The in-flight producer of each register, `NO_PRODUCER` when the
    // value lives in the register file; indexed by `ArchReg::index`,
    // plus `NO_SRC` (never written) and `NO_DST` (written, never read).
    reg_producer: [Seq; ArchReg::COUNT + 2],
    peak_occupancy: usize,
    // Count of entries in `EntryState::Ready`, maintained at every
    // state transition so the issue stage can skip its window walk
    // (and the fast-forward path can test quiescence) in O(1).
    ready_count: usize,
    // In-flight stores' sequence numbers and addresses, oldest first.
    // Entries only leave the window through in-order commit, so this
    // stays sorted, which makes `has_older_store` O(1) and
    // `older_store_to_block` a scan over stores only instead of the
    // whole window.
    stores: VecDeque<(Seq, Addr)>,
    // Bit s set ⇔ the entry in slot s is Ready.
    ready_bits: Box<[u64]>,
    // `words` words per slot: bit c of a producer's row set ⇔ the
    // entry in slot c waits on it. `wake_twice` marks the consumers
    // that read the producer through both sources, so a wakeup still
    // counts (and discharges) one dependence per source.
    wake: Box<[u64]>,
    wake_twice: Box<[u64]>,
    words: usize,
}

/// `Ruu::reg_producer` value: no in-flight producer.
const NO_PRODUCER: Seq = Seq::MAX;
/// `Ruu::reg_producer` row looked up for an absent source register.
const NO_SRC: usize = ArchReg::COUNT;
/// `Ruu::reg_producer` row written for an absent destination register.
const NO_DST: usize = ArchReg::COUNT + 1;

impl Ruu {
    /// Creates an empty window of `capacity` entries with an LSQ of
    /// `lsq_capacity` memory slots.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(capacity: usize, lsq_capacity: usize) -> Self {
        assert!(capacity > 0, "RUU capacity must be nonzero");
        assert!(lsq_capacity > 0, "LSQ capacity must be nonzero");
        let ring = capacity.next_power_of_two();
        let words = ring.div_ceil(64);
        let vacant = RuuEntry {
            seq: 0,
            inst: Inst::nop(Pc(0)),
            state: EntryState::Completed,
            deps_outstanding: 0,
            mispredicted: false,
        };
        Ruu {
            slots: vec![vacant; ring].into_boxed_slice(),
            mask: ring as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            capacity,
            lsq_capacity,
            lsq_occupancy: 0,
            reg_producer: [NO_PRODUCER; ArchReg::COUNT + 2],
            peak_occupancy: 0,
            ready_count: 0,
            stores: VecDeque::new(),
            ready_bits: vec![0; words].into_boxed_slice(),
            wake: vec![0; ring * words].into_boxed_slice(),
            wake_twice: vec![0; ring * words].into_boxed_slice(),
            words,
        }
    }

    /// The ring slot of in-window `seq`, or `None` outside the window.
    fn slot(&self, seq: Seq) -> Option<usize> {
        (seq >= self.head_seq && seq < self.next_seq).then_some((seq & self.mask) as usize)
    }

    fn set_ready_bit(&mut self, slot: usize) {
        self.ready_bits[slot / 64] |= 1 << (slot % 64);
    }

    fn clear_ready_bit(&mut self, slot: usize) {
        self.ready_bits[slot / 64] &= !(1 << (slot % 64));
    }

    /// Whether the window has no free entry.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupancy() >= self.capacity
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.next_seq == self.head_seq
    }

    /// Live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// Live memory (LSQ) entries.
    #[must_use]
    pub fn lsq_occupancy(&self) -> usize {
        self.lsq_occupancy
    }

    /// High-water mark of window occupancy.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Whether dispatching `op` would exceed the LSQ.
    #[must_use]
    pub fn lsq_blocks(&self, op: OpClass) -> bool {
        op.is_mem() && self.lsq_occupancy >= self.lsq_capacity
    }

    /// Whether `inst` can be dispatched right now.
    #[must_use]
    pub fn can_dispatch(&self, inst: &Inst) -> bool {
        !self.is_full() && !self.lsq_blocks(inst.op())
    }

    /// Renames and allocates `inst`, returning its sequence number.
    /// `mispredicted` flags a branch whose prediction was wrong.
    ///
    /// # Panics
    ///
    /// Panics if the window or (for memory ops) the LSQ is full; call
    /// [`Ruu::can_dispatch`] first.
    pub fn dispatch(&mut self, inst: Inst, mispredicted: bool) -> Seq {
        assert!(!self.is_full(), "RUU full");
        let op = inst.op();
        assert!(!self.lsq_blocks(op), "LSQ full");
        let seq = self.next_seq;
        let slot = (seq & self.mask) as usize;
        self.lsq_occupancy += usize::from(op.is_mem());
        if op == OpClass::Store {
            let addr = inst.mem_addr().expect("store has an address");
            self.stores.push_back((seq, addr));
        }
        debug_assert!(
            self.wake[slot * self.words..(slot + 1) * self.words]
                .iter()
                .all(|&w| w == 0),
            "a reused slot starts with no consumers"
        );

        // Rename against the producers as they stand before this
        // instruction's own destination is recorded, so a
        // self-dependence like `r1 <- f(r1)` waits on the previous
        // writer.
        let (word, shift) = (slot / 64, slot % 64);
        let [src0, src1] = inst.srcs();
        let (p0, dep0) = self.producer(src0);
        let (p1, dep1) = self.producer(src1);
        self.wake[p0 * self.words + word] |= u64::from(dep0) << shift;
        self.wake[p1 * self.words + word] |= u64::from(dep1) << shift;
        if dep1 && p0 == p1 && dep0 {
            // Both sources read one producer: the consumer is marked
            // twice.
            self.wake_twice[p1 * self.words + word] |= 1 << shift;
        }
        let deps = u8::from(dep0) + u8::from(dep1);

        let ready = deps == 0;
        self.ready_count += usize::from(ready);
        self.ready_bits[word] |= u64::from(ready) << shift;
        self.slots[slot] = RuuEntry {
            seq,
            inst,
            state: if ready {
                EntryState::Ready
            } else {
                EntryState::Waiting
            },
            deps_outstanding: deps,
            mispredicted,
        };
        self.next_seq += 1;
        self.peak_occupancy = self.peak_occupancy.max(self.occupancy());
        self.reg_producer[inst.dst().map_or(NO_DST, ArchReg::index)] = seq;
        seq
    }

    /// The slot of `src`'s in-flight producer and whether it is a
    /// dependence. Only an in-flight, incomplete producer creates one
    /// (completed values forward from the regfile/bypass). An absent
    /// source reads `NO_PRODUCER`, so both sources are looked up the
    /// same way and the data, not a branch, decides the outcome.
    fn producer(&self, src: Option<ArchReg>) -> (usize, bool) {
        let prod = self.reg_producer[src.map_or(NO_SRC, ArchReg::index)];
        let p = (prod & self.mask) as usize;
        debug_assert!(prod == NO_PRODUCER || self.slot(prod).is_some());
        let dep = (prod != NO_PRODUCER) & (self.slots[p].state != EntryState::Completed);
        (p, dep)
    }

    /// Shared access to entry `seq`, if still in the window.
    #[must_use]
    pub fn entry(&self, seq: Seq) -> Option<&RuuEntry> {
        self.slot(seq).map(|s| &self.slots[s])
    }

    /// Whether any entry is issue-eligible. O(1).
    #[must_use]
    pub fn any_ready(&self) -> bool {
        self.ready_count > 0
    }

    /// The oldest issue-eligible entry at or after `from` in program
    /// order. Walks the ready bitmap a word at a time, starting at
    /// `from`'s slot and wrapping round the ring, so the issue stage
    /// visits only the entries it considers and stops when it is done.
    #[must_use]
    pub fn next_ready(&self, from: Seq) -> Option<Seq> {
        let from = from.max(self.head_seq);
        if self.ready_count == 0 || from >= self.next_seq {
            return None;
        }
        let ring = self.slots.len();
        let mut slot = (from & self.mask) as usize;
        let mut scanned = 0usize;
        let mut remaining = (self.next_seq - from) as usize;
        while remaining > 0 {
            let shift = slot % 64;
            let span = (64 - shift).min(remaining).min(ring - slot);
            let window = if span == 64 {
                u64::MAX
            } else {
                (1u64 << span) - 1
            };
            let bits = (self.ready_bits[slot / 64] >> shift) & window;
            if bits != 0 {
                let seq = from + (scanned + bits.trailing_zeros() as usize) as Seq;
                debug_assert_eq!(self.entry(seq).map(|e| e.state), Some(EntryState::Ready));
                return Some(seq);
            }
            scanned += span;
            remaining -= span;
            slot = (slot + span) & self.mask as usize;
        }
        None
    }

    /// Sequence numbers of up to `max` issue-eligible entries, oldest
    /// first.
    #[must_use]
    pub fn ready_seqs(&self, max: usize) -> Vec<Seq> {
        let mut out = Vec::new();
        let mut cursor = self.head_seq;
        while out.len() < max {
            let Some(seq) = self.next_ready(cursor) else {
                break;
            };
            out.push(seq);
            cursor = seq + 1;
        }
        out
    }

    /// Transitions `seq` to [`EntryState::Issued`].
    pub fn mark_issued(&mut self, seq: Seq) {
        if let Some(slot) = self.slot(seq) {
            let e = &mut self.slots[slot];
            debug_assert_eq!(e.state, EntryState::Ready);
            e.state = EntryState::Issued;
            self.ready_count -= 1;
            self.clear_ready_bit(slot);
        }
    }

    /// Completes `seq`, waking consumers. Returns the number of
    /// wakeups delivered (for wakeup-port activity accounting): one
    /// per consumer source operand the result feeds.
    pub fn complete(&mut self, seq: Seq) -> u32 {
        let Some(slot) = self.slot(seq) else {
            return 0;
        };
        let e = &mut self.slots[slot];
        let was_ready = e.state == EntryState::Ready;
        e.state = EntryState::Completed;
        if was_ready {
            // Defensive: completion of a never-issued entry.
            self.ready_count -= 1;
            self.clear_ready_bit(slot);
        }
        let mut woken = 0;
        let base = slot * self.words;
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.wake[base + w]);
            if bits == 0 {
                continue;
            }
            // (A consumer is only ever marked twice if marked once.)
            let twice = std::mem::take(&mut self.wake_twice[base + w]);
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let c = w * 64 + b as usize;
                let e = &mut self.slots[c];
                let n = 1 + ((twice >> b) & 1) as u8;
                woken += u32::from(n);
                e.deps_outstanding = e.deps_outstanding.saturating_sub(n);
                if e.deps_outstanding == 0 && e.state == EntryState::Waiting {
                    e.state = EntryState::Ready;
                    self.ready_count += 1;
                    self.set_ready_bit(c);
                }
            }
        }
        woken
    }

    /// The head entry, if it is completed and thus committable.
    #[must_use]
    pub fn commit_ready(&self) -> Option<&RuuEntry> {
        self.entry(self.head_seq)
            .filter(|e| e.state == EntryState::Completed)
    }

    /// Retires the head entry, which the caller has just read through
    /// [`Ruu::commit_ready`]: the head must be present and completed
    /// (checked in debug builds only). The slot keeps its contents
    /// until a later dispatch reuses it.
    pub fn pop_commit(&mut self) {
        let seq = self.head_seq;
        let head = &self.slots[(seq & self.mask) as usize];
        debug_assert!(seq < self.next_seq, "commit from empty RUU");
        debug_assert_eq!(
            head.state,
            EntryState::Completed,
            "commit of incomplete entry"
        );
        let inst = head.inst;
        self.head_seq += 1;
        let op = inst.op();
        self.lsq_occupancy -= usize::from(op.is_mem());
        if op == OpClass::Store {
            let front = self.stores.pop_front();
            debug_assert_eq!(front.map(|(s, _)| s), Some(seq), "stores commit in order");
        }
        // The architectural value now lives in the regfile.
        let dst = &mut self.reg_producer[inst.dst().map_or(NO_DST, ArchReg::index)];
        if *dst == seq {
            *dst = NO_PRODUCER;
        }
    }

    /// Whether *any* older store is still in flight ahead of `seq`
    /// (used by the conservative disambiguation mode, where loads may
    /// not issue past unretired stores). O(1): the oldest in-flight
    /// store is the front of the maintained store list.
    #[must_use]
    pub fn has_older_store(&self, seq: Seq) -> bool {
        self.stores.front().is_some_and(|&(s, _)| s < seq)
    }

    /// Whether an older, still-in-flight store writes the same block
    /// as `addr` (store-to-load forwarding opportunity for the load at
    /// `seq`). Scans only the in-flight stores, not the whole window.
    #[must_use]
    pub fn older_store_to_block(&self, seq: Seq, addr: Addr, block_bytes: u64) -> bool {
        let block = addr.block(block_bytes);
        self.stores
            .iter()
            .take_while(|&&(s, _)| s < seq)
            .any(|&(_, a)| a.block(block_bytes) == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_isa::Pc;

    fn alu(pc: u64, dst: u8, srcs: &[u8]) -> Inst {
        let regs: Vec<ArchReg> = srcs.iter().map(|&n| ArchReg::int(n)).collect();
        Inst::alu(Pc(pc), ArchReg::int(dst), &regs)
    }

    #[test]
    fn an_entry_is_40_bytes() {
        // A 24-byte instruction record, its sequence number and three
        // one-byte fields, padded to the sequence number's alignment.
        assert!(std::mem::size_of::<Inst>() <= 24);
        assert_eq!(std::mem::size_of::<RuuEntry>(), 40);
    }

    #[test]
    fn independent_insts_are_ready_at_dispatch() {
        let mut r = Ruu::new(8, 4);
        let s = r.dispatch(alu(0, 1, &[]), false);
        assert_eq!(r.entry(s).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn dependence_chain_wakes_in_order() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        let b = r.dispatch(alu(4, 2, &[1]), false);
        let c = r.dispatch(alu(8, 3, &[2]), false);
        assert_eq!(r.ready_seqs(8), vec![a]);
        r.mark_issued(a);
        assert_eq!(r.complete(a), 1);
        assert_eq!(r.ready_seqs(8), vec![b]);
        r.mark_issued(b);
        r.complete(b);
        assert_eq!(r.ready_seqs(8), vec![c]);
    }

    #[test]
    fn two_source_instruction_waits_for_both() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        let b = r.dispatch(alu(4, 2, &[]), false);
        let c = r.dispatch(alu(8, 3, &[1, 2]), false);
        r.mark_issued(a);
        r.complete(a);
        assert_eq!(r.entry(c).unwrap().state, EntryState::Waiting);
        r.mark_issued(b);
        r.complete(b);
        assert_eq!(r.entry(c).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn completed_producer_creates_no_dependence() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        r.mark_issued(a);
        r.complete(a);
        let b = r.dispatch(alu(4, 2, &[1]), false);
        assert_eq!(r.entry(b).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn rename_tracks_latest_producer() {
        let mut r = Ruu::new(8, 4);
        let _old = r.dispatch(alu(0, 1, &[]), false);
        let new = r.dispatch(alu(4, 1, &[]), false);
        let user = r.dispatch(alu(8, 2, &[1]), false);
        // user depends on `new`, not `old`.
        r.mark_issued(new);
        r.complete(new);
        assert_eq!(r.entry(user).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn self_dependence_uses_previous_producer() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        // r1 <- f(r1): depends on the previous writer of r1, not itself.
        let b = r.dispatch(alu(4, 1, &[1]), false);
        assert_eq!(r.entry(b).unwrap().state, EntryState::Waiting);
        r.mark_issued(a);
        r.complete(a);
        assert_eq!(r.entry(b).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn in_order_commit_only_when_head_completed() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        let b = r.dispatch(alu(4, 2, &[]), false);
        r.mark_issued(b);
        r.complete(b);
        assert!(r.commit_ready().is_none(), "head (a) not complete yet");
        r.mark_issued(a);
        r.complete(a);
        assert_eq!(r.commit_ready().unwrap().seq, a);
        r.pop_commit();
        assert_eq!(r.commit_ready().unwrap().seq, b);
        r.pop_commit();
        assert!(r.is_empty());
    }

    #[test]
    fn capacity_and_lsq_limits() {
        let mut r = Ruu::new(2, 1);
        let ld = Inst::load(Pc(0), ArchReg::int(1), Addr(0x40));
        assert!(r.can_dispatch(&ld));
        r.dispatch(ld, false);
        let ld2 = Inst::load(Pc(4), ArchReg::int(2), Addr(0x80));
        assert!(!r.can_dispatch(&ld2), "LSQ full");
        let a = alu(8, 3, &[]);
        assert!(r.can_dispatch(&a), "non-mem op unaffected by LSQ");
        r.dispatch(a, false);
        assert!(r.is_full());
        assert!(!r.can_dispatch(&alu(12, 4, &[])));
    }

    #[test]
    fn lsq_frees_at_commit() {
        let mut r = Ruu::new(4, 1);
        let s = r.dispatch(Inst::load(Pc(0), ArchReg::int(1), Addr(0x40)), false);
        assert_eq!(r.lsq_occupancy(), 1);
        r.mark_issued(s);
        r.complete(s);
        r.pop_commit();
        assert_eq!(r.lsq_occupancy(), 0);
    }

    #[test]
    fn store_forwarding_visibility() {
        let mut r = Ruu::new(8, 4);
        let _st = r.dispatch(Inst::store(Pc(0), Addr(0x44), ArchReg::int(1)), false);
        let ld = r.dispatch(Inst::load(Pc(4), ArchReg::int(2), Addr(0x40)), false);
        assert!(r.older_store_to_block(ld, Addr(0x40), 32), "same 32B block");
        assert!(!r.older_store_to_block(ld, Addr(0x80), 32));
        // A *younger* store must not forward to an older load.
        let st2 = r.dispatch(Inst::store(Pc(8), Addr(0xc0), ArchReg::int(1)), false);
        let _ = st2;
        assert!(!r.older_store_to_block(ld, Addr(0xc0), 32));
    }

    #[test]
    fn commit_clears_stale_rename_mapping() {
        let mut r = Ruu::new(8, 4);
        let a = r.dispatch(alu(0, 1, &[]), false);
        r.mark_issued(a);
        r.complete(a);
        r.pop_commit();
        // A new consumer of r1 sees no in-flight producer.
        let b = r.dispatch(alu(4, 2, &[1]), false);
        assert_eq!(r.entry(b).unwrap().state, EntryState::Ready);
    }

    #[test]
    fn peak_occupancy_high_water() {
        let mut r = Ruu::new(8, 8);
        for i in 0..5 {
            r.dispatch(alu(i * 4, 1, &[]), false);
        }
        assert_eq!(r.peak_occupancy(), 5);
    }

    #[test]
    #[should_panic(expected = "RUU full")]
    fn dispatch_into_full_window_panics() {
        let mut r = Ruu::new(1, 1);
        r.dispatch(alu(0, 1, &[]), false);
        r.dispatch(alu(4, 2, &[]), false);
    }
}
