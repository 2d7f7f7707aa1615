//! Miss Status Holding Registers.
//!
//! An MSHR file tracks outstanding misses per block so that secondary
//! misses to an in-flight block merge instead of issuing duplicate
//! refills, and so the structure can exert back-pressure when full —
//! both effects matter for the timing VSV exploits. (The paper calls
//! this structure the "Miss Status History Register" it added to
//! Wattch, §5.)

use vsv_isa::Addr;

/// Result of attempting to allocate an MSHR for a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss to this block: a refill must be issued downstream.
    Primary,
    /// The block is already in flight; the target was merged.
    Merged,
    /// No free entry (primary) or target slot (secondary); retry later.
    Full,
}

#[derive(Debug, Clone)]
struct Entry {
    block: Addr,
    targets: Vec<u64>,
    /// True if any merged target is a demand (non-prefetch) access.
    demand: bool,
}

/// A file of miss status holding registers, keyed by block address.
///
/// Targets are opaque `u64` tokens supplied by the caller; they are
/// returned in FIFO order when the block's refill
/// [`completes`](MshrFile::complete).
///
/// # Examples
///
/// ```
/// use vsv_isa::Addr;
/// use vsv_mem::{MshrFile, MshrOutcome};
///
/// let mut mshrs = MshrFile::new(2, 4);
/// assert_eq!(mshrs.allocate(Addr(0x40), 1, true), MshrOutcome::Primary);
/// assert_eq!(mshrs.allocate(Addr(0x40), 2, true), MshrOutcome::Merged);
/// let (targets, demand) = mshrs.complete(Addr(0x40)).unwrap();
/// assert_eq!(targets, vec![1, 2]);
/// assert!(demand);
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    targets_per_entry: usize,
    peak_occupancy: usize,
    merges: u64,
    full_rejections: u64,
    // Live entries with a demand target, kept at every allocate,
    // merge, promotion and completion so the per-nanosecond
    // `demand_occupancy` poll is O(1).
    demand_entries: usize,
}

impl MshrFile {
    /// Creates a file with `capacity` entries, each holding at most
    /// `targets_per_entry` merged targets.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn new(capacity: usize, targets_per_entry: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        assert!(
            targets_per_entry > 0,
            "MSHR target capacity must be nonzero"
        );
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            targets_per_entry,
            peak_occupancy: 0,
            merges: 0,
            full_rejections: 0,
            demand_entries: 0,
        }
    }

    /// Attempts to register a miss on `block` for `target`.
    ///
    /// `demand` is `false` for prefetch-initiated misses; an entry is
    /// *demand* if any of its merged targets is demand (used by the VSV
    /// controller, which must ignore prefetch-only misses, §4.2).
    pub fn allocate(&mut self, block: Addr, target: u64, demand: bool) -> MshrOutcome {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.block == block) {
            if entry.targets.len() >= self.targets_per_entry {
                self.full_rejections += 1;
                return MshrOutcome::Full;
            }
            entry.targets.push(target);
            if demand && !entry.demand {
                entry.demand = true;
                self.demand_entries += 1;
            }
            self.merges += 1;
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            self.full_rejections += 1;
            return MshrOutcome::Full;
        }
        self.entries.push(Entry {
            block,
            targets: vec![target],
            demand,
        });
        self.demand_entries += usize::from(demand);
        self.peak_occupancy = self.peak_occupancy.max(self.entries.len());
        MshrOutcome::Primary
    }

    /// Retires the entry for `block`, returning its merged targets in
    /// arrival order and whether any of them was a demand access.
    /// Returns `None` if no entry exists for `block`.
    pub fn complete(&mut self, block: Addr) -> Option<(Vec<u64>, bool)> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        let entry = self.entries.swap_remove(idx);
        self.demand_entries -= usize::from(entry.demand);
        Some((entry.targets, entry.demand))
    }

    /// Whether `block` currently has an in-flight entry.
    #[must_use]
    pub fn contains(&self, block: Addr) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// Whether the entry for `block` (if any) has a demand target.
    #[must_use]
    pub fn is_demand(&self, block: Addr) -> bool {
        self.entries.iter().any(|e| e.block == block && e.demand)
    }

    /// Promotes the entry for `block` to demand status (a demand access
    /// merged into a prefetch-initiated miss). Returns `false` if the
    /// block is not in flight.
    pub fn promote_to_demand(&mut self, block: Addr) -> bool {
        match self.entries.iter_mut().find(|e| e.block == block) {
            Some(e) => {
                if !e.demand {
                    e.demand = true;
                    self.demand_entries += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Number of live entries with at least one demand target.
    #[must_use]
    pub fn demand_occupancy(&self) -> usize {
        debug_assert_eq!(
            self.demand_entries,
            self.entries.iter().filter(|e| e.demand).count(),
            "demand-entry count out of sync"
        );
        self.demand_entries
    }

    /// High-water mark of occupancy since construction.
    #[must_use]
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Count of merged (secondary) allocations.
    #[must_use]
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Count of allocations rejected because the file or an entry's
    /// target list was full.
    #[must_use]
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Whether the file has no free entries.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_merge_then_complete_in_order() {
        let mut m = MshrFile::new(4, 8);
        assert_eq!(m.allocate(Addr(0x100), 10, true), MshrOutcome::Primary);
        assert_eq!(m.allocate(Addr(0x100), 11, false), MshrOutcome::Merged);
        assert_eq!(m.allocate(Addr(0x100), 12, true), MshrOutcome::Merged);
        assert_eq!(m.occupancy(), 1);
        let (targets, demand) = m.complete(Addr(0x100)).unwrap();
        assert_eq!(targets, vec![10, 11, 12]);
        assert!(demand);
        assert_eq!(m.occupancy(), 0);
        assert!(m.complete(Addr(0x100)).is_none());
    }

    #[test]
    fn capacity_exerts_backpressure() {
        let mut m = MshrFile::new(2, 2);
        assert_eq!(m.allocate(Addr(0x000), 0, true), MshrOutcome::Primary);
        assert_eq!(m.allocate(Addr(0x040), 1, true), MshrOutcome::Primary);
        assert_eq!(m.allocate(Addr(0x080), 2, true), MshrOutcome::Full);
        assert!(m.is_full());
        assert_eq!(m.full_rejections(), 1);
        // Merging into an existing entry still works when full...
        assert_eq!(m.allocate(Addr(0x000), 3, true), MshrOutcome::Merged);
        // ...until the entry's target list fills.
        assert_eq!(m.allocate(Addr(0x000), 4, true), MshrOutcome::Full);
    }

    #[test]
    fn prefetch_only_entries_are_not_demand() {
        let mut m = MshrFile::new(4, 4);
        m.allocate(Addr(0x40), 1, false);
        assert!(!m.is_demand(Addr(0x40)));
        assert_eq!(m.demand_occupancy(), 0);
        // A merged demand access upgrades the entry.
        m.allocate(Addr(0x40), 2, true);
        assert!(m.is_demand(Addr(0x40)));
        assert_eq!(m.demand_occupancy(), 1);
    }

    #[test]
    fn promote_to_demand() {
        let mut m = MshrFile::new(4, 4);
        m.allocate(Addr(0x40), 1, false);
        assert!(m.promote_to_demand(Addr(0x40)));
        assert!(m.is_demand(Addr(0x40)));
        assert!(!m.promote_to_demand(Addr(0x80)));
    }

    #[test]
    fn peak_occupancy_tracks_high_water() {
        let mut m = MshrFile::new(4, 4);
        m.allocate(Addr(0x00), 0, true);
        m.allocate(Addr(0x40), 1, true);
        m.complete(Addr(0x00));
        m.complete(Addr(0x40));
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.peak_occupancy(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0, 4);
    }
}
