//! The uncore: one L2, one memory bus, one DRAM and one L2-MSHR slot
//! pool, shared by every core of a machine.
//!
//! A machine replicates the *private* hierarchy slice — L1s, their
//! MSHR files, the prefetch buffer — once per core, while the L2, the
//! memory bus and DRAM are **shared** and arbitrated.
//! [`SharedFabric`] owns that shared slice; each per-core
//! [`Hierarchy`](crate::Hierarchy) routes its L2 probes, bus beats and
//! DRAM accesses through a [`SharedHandle`]. There is no other uncore:
//! a single-core machine ([`Hierarchy::new`](crate::Hierarchy::new))
//! is the only core on a fabric of its own.
//!
//! Design invariants:
//!
//! * **Arbitration is the caller order.** The fabric adds no policy of
//!   its own: the bus stays FIFO ([`Bus::schedule`]) and DRAM keeps
//!   its banked FIFO timing, so when the multicore driver steps cores
//!   in index order each nanosecond, contention resolves
//!   deterministically.
//! * **Private address spaces.** Each core's requests are tagged with
//!   the core index above the address bits before touching the shared
//!   L2, modeling a multiprogrammed (rate-style) workload: cores
//!   contend for L2 capacity, bus slots, DRAM banks and MSHR slots,
//!   but never share cache blocks, so no coherence protocol is
//!   modeled. The tag sits far above the L2 index bits, so it changes
//!   L2 tags only, never which set a block maps to.
//! * **Shared MSHRs as a slot pool.** Cores keep their private L2
//!   MSHR *files* (waiter bookkeeping is per-core), but the number of
//!   chip-wide outstanding L2 misses is capped by one shared pool of
//!   [`HierarchyConfig::l2_mshrs`](crate::HierarchyConfig) slots — the
//!   chip has one L2's worth of miss bandwidth, not one per core. On
//!   a one-core fabric the pool and the core's file have the same
//!   size and fill together.

use std::cell::RefCell;
use std::rc::Rc;

use vsv_isa::Addr;

use crate::bus::Bus;
use crate::cache::Cache;
use crate::dram::Dram;
use crate::HierarchyConfig;

/// Bit position of the per-core address-space tag. Generator address
/// streams live far below this, and the L2 index uses the low bits, so
/// tagging changes L2 *tags* only — never set indexing.
const CORE_TAG_SHIFT: u32 = 44;

/// One core's slice of the shared-fabric statistics, kept per core so
/// chip-level power accounting can charge uncore energy to the core
/// that caused it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FabricCoreStats {
    /// Bus transactions this core scheduled (request beats, response
    /// transfers and write-backs).
    pub bus_transactions: u64,
    /// Nanoseconds this core's transactions spent queued behind other
    /// traffic before winning the bus (0 on an idle bus; the fairness
    /// signal for asymmetric co-runners).
    pub bus_wait_ns: u64,
    /// DRAM accesses this core caused (refills + write-backs).
    pub dram_accesses: u64,
    /// Shared-L2 lookups this core made (hits + misses), the count
    /// per-core uncore energy is charged on.
    pub l2_accesses: u64,
    /// Refused starts of an L2 miss by this core because the shared
    /// MSHR pool was exhausted. A refused miss is retried once a tick,
    /// and each refusal counts.
    pub shared_mshr_stalls: u64,
}

/// The shared uncore: one L2, one bus, one DRAM and one L2-MSHR slot
/// pool, arbitrated among `cores` attached hierarchies.
#[derive(Debug)]
pub struct SharedFabric {
    l2: Cache,
    bus: Bus,
    dram: Dram,
    mshr_slots: usize,
    mshr_in_use: usize,
    per_core: Vec<FabricCoreStats>,
}

impl SharedFabric {
    /// Builds the shared fabric for `cores` cores from the same
    /// hierarchy configuration the per-core slices use. The shared L2,
    /// bus, DRAM and MSHR pool take the *single-core* capacities: a
    /// chip shares one L2, it does not grow one per core.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is 0 or the L2/bus/DRAM configuration is
    /// invalid.
    #[must_use]
    pub fn new(cfg: HierarchyConfig, cores: usize) -> Self {
        assert!(cores > 0, "a shared fabric needs at least one core");
        SharedFabric {
            l2: Cache::new(cfg.l2),
            bus: Bus::new(cfg.bus),
            dram: Dram::new(cfg.dram),
            mshr_slots: cfg.l2_mshrs,
            mshr_in_use: 0,
            per_core: vec![FabricCoreStats::default(); cores],
        }
    }

    /// Wraps the fabric for attachment, ready to hand one
    /// [`SharedHandle`] per core.
    #[must_use]
    pub fn into_shared(self) -> Rc<RefCell<SharedFabric>> {
        Rc::new(RefCell::new(self))
    }

    /// Number of attached cores.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// One core's fabric statistics.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> FabricCoreStats {
        self.per_core[core]
    }

    fn tag(core: usize, addr: Addr) -> Addr {
        Addr(addr.0 | ((core as u64 + 1) << CORE_TAG_SHIFT))
    }

    fn schedule(&mut self, core: usize, now: u64, bytes: u64) -> (u64, u64) {
        let (start, done) = self.bus.schedule(now, bytes);
        let stats = &mut self.per_core[core];
        stats.bus_transactions += 1;
        stats.bus_wait_ns += start - now;
        (start, done)
    }

    fn dram_access(&mut self, core: usize, start: u64) -> u64 {
        self.per_core[core].dram_accesses += 1;
        self.dram.access(start)
    }

    fn l2_access(&mut self, core: usize, block: Addr) -> bool {
        self.per_core[core].l2_accesses += 1;
        self.l2.access(Self::tag(core, block), false)
    }

    fn l2_fill(&mut self, core: usize, block: Addr) -> Option<Addr> {
        self.l2.fill(Self::tag(core, block))
    }

    fn l2_mark_dirty(&mut self, core: usize, block: Addr) -> bool {
        self.l2.mark_dirty(Self::tag(core, block))
    }

    fn l2_fill_with(&mut self, core: usize, block: Addr, dirty: bool) -> Option<Addr> {
        self.l2.fill_with(Self::tag(core, block), dirty)
    }

    fn try_acquire_mshr(&mut self, core: usize) -> bool {
        if self.mshr_in_use >= self.mshr_slots {
            self.per_core[core].shared_mshr_stalls += 1;
            return false;
        }
        self.mshr_in_use += 1;
        true
    }

    fn release_mshr(&mut self) {
        debug_assert!(self.mshr_in_use > 0, "released an unheld MSHR slot");
        self.mshr_in_use = self.mshr_in_use.saturating_sub(1);
    }
}

/// One core's handle onto the [`SharedFabric`]: the fabric pointer
/// plus this core's index, used for address tagging and per-core stat
/// attribution. Cheap to clone; clones alias the same fabric.
///
/// Handles are `!Send` by construction (`Rc`), and so is every
/// [`Hierarchy`](crate::Hierarchy): a machine, one core or a chip, is
/// built and stepped on one thread, which is also what makes a chip's
/// lockstep arbitration deterministic.
#[derive(Debug, Clone)]
pub struct SharedHandle {
    fabric: Rc<RefCell<SharedFabric>>,
    core: usize,
}

impl SharedHandle {
    /// Builds core `core`'s handle onto `fabric`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the fabric.
    #[must_use]
    pub fn new(fabric: Rc<RefCell<SharedFabric>>, core: usize) -> Self {
        assert!(
            core < fabric.borrow().cores(),
            "core index {core} out of range for the shared fabric"
        );
        SharedHandle { fabric, core }
    }

    /// This handle's core index.
    #[must_use]
    pub fn core(&self) -> usize {
        self.core
    }

    /// This core's fabric statistics.
    #[must_use]
    pub fn stats(&self) -> FabricCoreStats {
        self.fabric.borrow().core_stats(self.core)
    }

    /// Number of cores attached to the fabric (1 for a single-core
    /// machine).
    #[must_use]
    pub fn fabric_cores(&self) -> usize {
        self.fabric.borrow().cores()
    }

    pub(crate) fn schedule(&self, now: u64, bytes: u64) -> (u64, u64) {
        self.fabric.borrow_mut().schedule(self.core, now, bytes)
    }

    pub(crate) fn dram_access(&self, start: u64) -> u64 {
        self.fabric.borrow_mut().dram_access(self.core, start)
    }

    pub(crate) fn l2_access(&self, block: Addr) -> bool {
        self.fabric.borrow_mut().l2_access(self.core, block)
    }

    pub(crate) fn l2_fill(&self, block: Addr) -> Option<Addr> {
        self.fabric.borrow_mut().l2_fill(self.core, block)
    }

    pub(crate) fn l2_mark_dirty(&self, block: Addr) -> bool {
        self.fabric.borrow_mut().l2_mark_dirty(self.core, block)
    }

    pub(crate) fn l2_fill_with(&self, block: Addr, dirty: bool) -> Option<Addr> {
        self.fabric
            .borrow_mut()
            .l2_fill_with(self.core, block, dirty)
    }

    pub(crate) fn try_acquire_mshr(&self) -> bool {
        self.fabric.borrow_mut().try_acquire_mshr(self.core)
    }

    pub(crate) fn release_mshr(&self) {
        self.fabric.borrow_mut().release_mshr()
    }

    /// Whether the shared L2 holds this core's `block`. A tag check
    /// only: it counts no access and leaves the replacement order alone.
    pub(crate) fn l2_probe(&self, block: Addr) -> bool {
        self.fabric
            .borrow()
            .l2
            .probe(SharedFabric::tag(self.core, block))
    }
}
