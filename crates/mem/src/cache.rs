//! Set-associative, write-back, LRU caches (tag arrays only).
//!
//! The simulator is trace driven, so caches track tags, valid and dirty
//! bits but no data. Replacement is true LRU via per-way timestamps.

use vsv_isa::Addr;

/// Geometry and latency of one cache level.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `assoc * block_bytes * sets`.
    pub capacity_bytes: u64,
    /// Associativity (ways per set). Must be ≥ 1.
    pub assoc: usize,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_bytes: u64,
    /// Hit latency, in the clock domain of whoever owns the cache
    /// (pipeline cycles for the L1s, nanoseconds for the L2).
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's 64 KB, 2-way, 32-byte-block, 2-cycle L1 (Table 1;
    /// the 32-byte block size comes from eq. 4).
    #[must_use]
    pub fn l1_baseline() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 2,
        }
    }

    /// The paper's 2 MB, 8-way, 12-cycle L2 (Table 1), with 64-byte
    /// blocks (the SimpleScalar-family default the paper builds on).
    #[must_use]
    pub fn l2_baseline() -> Self {
        CacheConfig {
            capacity_bytes: 2 * 1024 * 1024,
            assoc: 8,
            block_bytes: 64,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`Cache::new`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        let ways_bytes = self.block_bytes * self.assoc as u64;
        assert!(ways_bytes > 0, "cache must have nonzero ways");
        assert!(
            self.capacity_bytes.is_multiple_of(ways_bytes),
            "capacity {} not divisible by assoc*block {}",
            self.capacity_bytes,
            ways_bytes
        );
        let sets = self.capacity_bytes / ways_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        sets as usize
    }
}

/// Hit/miss/eviction counters for one cache.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Blocks filled.
    pub fills: u64,
    /// Valid blocks evicted by fills.
    pub evictions: u64,
    /// Dirty blocks evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; `0` when no accesses were made.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Replacement policy for a [`Cache`].
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used: hits refresh recency.
    #[default]
    Lru,
    /// First-in-first-out: only fills set recency, so the oldest
    /// *filled* block is evicted (used by the Time-Keeping prefetch
    /// buffer, paper §5.1).
    Fifo,
}

/// One way of a set, packed into 16 bytes. `key` is the block's tag
/// plus one, so the all-zero way is invalid and a fresh tag array is
/// zeroed memory. `stamp` is the replacement stamp (the use counter of
/// the last fill, or of the last hit under LRU) with the dirty flag in
/// its top bit; the counter never gets near 2^63.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    key: u64,
    stamp: u64,
}

/// The dirty flag's bit in [`Line::stamp`].
const DIRTY: u64 = 1 << 63;

impl Line {
    fn valid(self) -> bool {
        self.key != 0
    }

    fn dirty(self) -> bool {
        self.stamp & DIRTY != 0
    }

    fn last_use(self) -> u64 {
        self.stamp & !DIRTY
    }
}

/// A block displaced by a fill.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Address of the evicted block.
    pub addr: Addr,
    /// Whether it was dirty (owes a write-back).
    pub dirty: bool,
}

/// A set-associative, write-back, write-allocate, true-LRU tag array.
///
/// # Examples
///
/// ```
/// use vsv_isa::Addr;
/// use vsv_mem::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_baseline());
/// assert!(!l1.access(Addr(0x40), false)); // cold miss
/// l1.fill(Addr(0x40));
/// assert!(l1.access(Addr(0x40), false)); // now a hit
/// assert!(l1.access(Addr(0x5c), false)); // same 32-byte block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    policy: ReplacementPolicy,
    // All lines in one flat allocation, `assoc` consecutive ways per
    // set, so the per-access set lookup is one bounds check and no
    // pointer chase.
    lines: Vec<Line>,
    set_mask: u64,
    // log2 of the set count: the tag is the block number above it.
    set_bits: u32,
    block_shift: u32,
    use_counter: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty LRU cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two, `assoc` is zero,
    /// or the capacity is not an integer power-of-two number of sets.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::with_policy(cfg, ReplacementPolicy::Lru)
    }

    /// Builds an empty FIFO-replacement cache (see
    /// [`ReplacementPolicy::Fifo`]).
    ///
    /// # Panics
    ///
    /// As for [`Cache::new`].
    #[must_use]
    pub fn fifo(cfg: CacheConfig) -> Self {
        Cache::with_policy(cfg, ReplacementPolicy::Fifo)
    }

    /// Builds an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// As for [`Cache::new`].
    #[must_use]
    pub fn with_policy(cfg: CacheConfig, policy: ReplacementPolicy) -> Self {
        assert!(
            cfg.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(cfg.assoc >= 1, "associativity must be at least 1");
        let sets = cfg.sets();
        assert!(
            sets > 1 || cfg.block_bytes > 1,
            "a single set of one-byte blocks leaves no room for the invalid-way key"
        );
        Cache {
            cfg,
            policy,
            lines: vec![Line::default(); cfg.assoc * sets],
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            block_shift: cfg.block_bytes.trailing_zeros(),
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// A cache of `cfg`'s geometry with no tag array: it reports empty
    /// statistics and must never be accessed. A chip core's private L2
    /// takes this form, since the shared fabric's L2 serves every core.
    #[must_use]
    pub(crate) fn unallocated(cfg: CacheConfig) -> Self {
        Cache {
            cfg,
            policy: ReplacementPolicy::Lru,
            lines: Vec::new(),
            set_mask: 0,
            set_bits: 0,
            block_shift: 0,
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    /// The ways of `set`, in way order.
    fn set_lines(&self, set: usize) -> &[Line] {
        let a = self.cfg.assoc;
        &self.lines[set * a..set * a + a]
    }

    /// Exclusive access to the ways of `set`, in way order.
    fn set_lines_mut(&mut self, set: usize) -> &mut [Line] {
        let a = self.cfg.assoc;
        &mut self.lines[set * a..set * a + a]
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (e.g. after cache warm-up), keeping contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set of `addr` and its block's [`Line::key`] (tag plus one:
    /// the set or block bits shifted off keep the tag below `u64::MAX`).
    fn index(&self, addr: Addr) -> (usize, u64) {
        let block = addr.0 >> self.block_shift;
        (
            (block & self.set_mask) as usize,
            (block >> self.set_bits) + 1,
        )
    }

    /// Looks up `addr`, updating LRU and the dirty bit on a hit.
    /// Returns `true` on hit. Does not allocate on miss (callers fill
    /// via [`Cache::fill`] when the refill arrives).
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        let (set, key) = self.index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        let lru = self.policy == ReplacementPolicy::Lru;
        match self.set_lines_mut(set).iter_mut().find(|l| l.key == key) {
            Some(line) => {
                if lru {
                    line.stamp = counter | (line.stamp & DIRTY);
                }
                if write {
                    line.stamp |= DIRTY;
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks residency without touching LRU state or statistics.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        self.set_lines(set).iter().any(|l| l.key == key)
    }

    /// Installs the block containing `addr`, evicting the LRU way if
    /// the set is full. Returns the evicted block's address when a
    /// *dirty* block was displaced (the caller owes a write-back).
    ///
    /// Filling a block that is already resident refreshes its LRU
    /// position and returns `None`. Use [`Cache::fill_evicting`] to
    /// observe clean evictions too (dead-block predictors need them).
    pub fn fill(&mut self, addr: Addr) -> Option<Addr> {
        self.fill_with(addr, false)
    }

    /// Like [`Cache::fill`] but installs the block already dirty
    /// (used when a write-back from an upper level allocates here).
    pub fn fill_with(&mut self, addr: Addr, dirty: bool) -> Option<Addr> {
        self.fill_evicting(addr, dirty)
            .filter(|e| e.dirty)
            .map(|e| e.addr)
    }

    /// Installs the block containing `addr` (dirty if `dirty`),
    /// reporting *any* displaced block — clean or dirty.
    pub fn fill_evicting(&mut self, addr: Addr, dirty: bool) -> Option<Eviction> {
        let (set, key) = self.index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        self.stats.fills += 1;
        let dirty_bit = if dirty { DIRTY } else { 0 };

        // Already resident (e.g. two merged misses racing): refresh.
        if let Some(line) = self.set_lines_mut(set).iter_mut().find(|l| l.key == key) {
            line.stamp = counter | (line.stamp & DIRTY) | dirty_bit;
            return None;
        }

        // Prefer an invalid way; otherwise evict LRU.
        let victim_idx = match self.set_lines(set).iter().position(|l| !l.valid()) {
            Some(i) => i,
            None => self
                .set_lines(set)
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use())
                .map(|(i, _)| i)
                .expect("assoc >= 1"),
        };

        let victim = self.set_lines(set)[victim_idx];
        let mut evicted = None;
        if victim.valid() {
            self.stats.evictions += 1;
            if victim.dirty() {
                self.stats.writebacks += 1;
            }
            evicted = Some(Eviction {
                addr: self.rebuild_addr(set, victim.key - 1),
                dirty: victim.dirty(),
            });
        }
        self.set_lines_mut(set)[victim_idx] = Line {
            key,
            stamp: counter | dirty_bit,
        };
        evicted
    }

    /// Drops the block containing `addr` if present; returns whether a
    /// block was invalidated.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.set_lines_mut(set).iter_mut().find(|l| l.key == key) {
            Some(line) => {
                line.key = 0;
                line.stamp &= !DIRTY;
                true
            }
            None => false,
        }
    }

    /// Marks the resident block containing `addr` dirty (write hit from
    /// a write-back arriving from above). Returns `false` if absent.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.set_lines_mut(set).iter_mut().find(|l| l.key == key) {
            Some(line) => {
                line.stamp |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Number of valid blocks currently resident.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }

    fn rebuild_addr(&self, set: usize, tag: u64) -> Addr {
        Addr(((tag << self.set_bits) | set as u64) << self.block_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32B = 256B.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 2,
        })
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr(0x100), false));
        assert!(c.fill(Addr(0x100)).is_none());
        assert!(c.access(Addr(0x100), false));
        assert!(c.access(Addr(0x11f), false), "same 32B block hits");
        assert!(!c.access(Addr(0x120), false), "next block misses");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Three blocks mapping to set 0 (stride = sets*block = 128B).
        let a = Addr(0x000);
        let b = Addr(0x080);
        let d = Addr(0x100);
        c.fill(a);
        c.fill(b);
        c.access(a, false); // make b the LRU way
        c.fill(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = tiny();
        c.fill(Addr(0x000));
        c.access(Addr(0x000), true); // dirty it
        c.fill(Addr(0x080));
        let wb = c.fill(Addr(0x100)); // evicts 0x000 (LRU, dirty)
        assert_eq!(wb, Some(Addr(0x000)));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_reports_none() {
        let mut c = tiny();
        c.fill(Addr(0x000));
        c.fill(Addr(0x080));
        assert_eq!(c.fill(Addr(0x100)), None);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn refill_of_resident_block_does_not_evict() {
        let mut c = tiny();
        c.fill(Addr(0x000));
        c.fill(Addr(0x080));
        assert_eq!(c.fill(Addr(0x000)), None);
        assert!(c.probe(Addr(0x080)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = tiny();
        c.fill(Addr(0x000));
        c.fill(Addr(0x080));
        // Probing 0x000 must NOT refresh it...
        assert!(c.probe(Addr(0x000)));
        // ...so it is still the LRU victim.
        c.fill(Addr(0x100));
        assert!(!c.probe(Addr(0x000)));
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.fill(Addr(0x40));
        assert!(c.invalidate(Addr(0x40)));
        assert!(!c.probe(Addr(0x40)));
        assert!(!c.invalidate(Addr(0x40)));
    }

    #[test]
    fn fill_with_dirty_writes_back_on_eviction() {
        let mut c = tiny();
        c.fill_with(Addr(0x000), true);
        c.fill(Addr(0x080));
        assert_eq!(c.fill(Addr(0x100)), Some(Addr(0x000)));
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = tiny();
        assert!(!c.mark_dirty(Addr(0x40)));
        c.fill(Addr(0x40));
        assert!(c.mark_dirty(Addr(0x40)));
        c.fill(Addr(0x40 + 128));
        let wb = c.fill(Addr(0x40 + 256));
        assert_eq!(wb, Some(Addr(0x40)));
    }

    #[test]
    fn a_way_packs_into_16_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn baseline_geometries_are_consistent() {
        assert_eq!(CacheConfig::l1_baseline().sets(), 1024);
        assert_eq!(CacheConfig::l2_baseline().sets(), 4096);
        let l1 = Cache::new(CacheConfig::l1_baseline());
        assert_eq!(l1.resident_blocks(), 0);
    }

    #[test]
    fn eviction_address_round_trips_through_geometry() {
        let mut c = tiny();
        let victim = Addr(0x7c0); // set = (0x7c0>>5)&3 = 2
        c.fill(victim);
        c.access(victim, true);
        let same_set1 = Addr(victim.0 + 128);
        let same_set2 = Addr(victim.0 + 256);
        c.fill(same_set1);
        let wb = c.fill(same_set2);
        assert_eq!(wb, Some(victim));
    }

    #[test]
    fn fill_evicting_reports_clean_victims_too() {
        let mut c = tiny();
        c.fill(Addr(0x000));
        c.fill(Addr(0x080));
        let ev = c.fill_evicting(Addr(0x100), false).unwrap();
        assert_eq!(ev.addr, Addr(0x000));
        assert!(!ev.dirty, "victim was never written");
        // No eviction when a free way exists.
        assert!(c.fill_evicting(Addr(0x020), false).is_none());
    }

    #[test]
    fn fifo_policy_ignores_hits_for_replacement() {
        let mut c = Cache::fifo(CacheConfig {
            capacity_bytes: 256,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 2,
        });
        let a = Addr(0x000);
        let b = Addr(0x080);
        let d = Addr(0x100);
        c.fill(a);
        c.fill(b);
        // Hitting `a` must NOT save it under FIFO: it was filled first.
        assert!(c.access(a, false));
        c.fill(d);
        assert!(!c.probe(a), "FIFO evicts oldest fill despite recent hit");
        assert!(c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = tiny();
        c.access(Addr(0), false);
        c.fill(Addr(0));
        c.access(Addr(0), false);
        let s = c.stats();
        assert_eq!(s.accesses(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }
}
