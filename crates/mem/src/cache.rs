//! Set-associative, write-back, LRU caches (tag arrays only).
//!
//! The simulator is trace driven, so caches track tags, valid and dirty
//! bits but no data. Replacement is true LRU via per-way recency ranks
//! (see [`crate::recency`]).

use vsv_isa::Addr;

use crate::recency::{self, RANK};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `assoc * block_bytes * sets`.
    pub capacity_bytes: u64,
    /// Associativity (ways per set). Must be in `1..=128`.
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

    /// Checks the geometry: a power-of-two block size, an
    /// associativity in `1..=`[`recency::MAX_ASSOC`], and a capacity
    /// that is a power-of-two number of sets. A single set of one-byte
    /// blocks is refused too: its tags would reach the invalid way's
    /// key.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "block size {} is not a power of two",
                self.block_bytes
            ));
        }
        if !(1..=recency::MAX_ASSOC).contains(&self.assoc) {
            return Err(format!(
                "associativity {} outside 1..={}",
                self.assoc,
                recency::MAX_ASSOC
            ));
        }
        let sets = (self.block_bytes.checked_mul(self.assoc as u64))
            .filter(|&set_bytes| self.capacity_bytes.is_multiple_of(set_bytes))
            .map_or(0, |set_bytes| self.capacity_bytes / set_bytes);
        if !sets.is_power_of_two() {
            return Err(format!(
                "capacity {} is not a power-of-two number of {}-way sets of {}-byte blocks",
                self.capacity_bytes, self.assoc, self.block_bytes
            ));
        }
        if sets == 1 && self.block_bytes == 1 {
            return Err(
                "a single set of one-byte blocks leaves no room for the invalid-way key".to_owned(),
            );
        }
        Ok(())
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    #[must_use]
    pub fn sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        (self.capacity_bytes / (self.block_bytes * self.assoc as u64)) as usize
    }
}

/// Hit/miss/eviction counters for one cache.
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

/// The dirty flag's bit in a way's rank byte.
const DIRTY: u8 = !RANK;

/// A block displaced by a fill.
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
    // Two flat arrays, `assoc` consecutive ways per set. `keys` holds
    // each way's block tag plus one, so 0 is an invalid way and a
    // fresh tag array is zeroed memory. `ranks` holds each way's
    // recency rank within its set (0 = most recent; the last fill, or
    // under LRU the last hit) with the dirty flag in its top bit.
    keys: Vec<u64>,
    ranks: Vec<u8>,
    set_mask: u64,
    // log2 of the set count: the tag is the block number above it.
    set_bits: u32,
    block_shift: u32,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty LRU cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
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
        let sets = cfg.sets();
        Cache {
            cfg,
            policy,
            keys: vec![0; cfg.assoc * sets],
            ranks: recency::fresh(cfg.assoc, sets),
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            block_shift: cfg.block_bytes.trailing_zeros(),
            stats: CacheStats::default(),
        }
    }

    /// The index range of `set`'s ways in `keys` and `ranks`.
    fn ways(&self, set: usize) -> std::ops::Range<usize> {
        let a = self.cfg.assoc;
        set * a..set * a + a
    }

    /// The index in `keys` and `ranks` of the way of `set` holding
    /// `key`, if any.
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        let ways = self.ways(set);
        let start = ways.start;
        self.keys[ways]
            .iter()
            .position(|&k| k == key)
            .map(|w| start + w)
    }

    /// Makes way `i` (an index into `keys`) the most recent of `set`.
    fn promote(&mut self, set: usize, i: usize) {
        let ways = self.ways(set);
        let way = i - ways.start;
        recency::promote(&mut self.ranks[ways], way);
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

    /// The set of `addr` and its block's key (tag plus one: the set or
    /// block bits shifted off keep the tag below `u64::MAX`).
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
        match self.find(set, key) {
            Some(i) => {
                if self.policy == ReplacementPolicy::Lru {
                    self.promote(set, i);
                }
                if write {
                    self.ranks[i] |= DIRTY;
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
        self.find(set, key).is_some()
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
        self.stats.fills += 1;
        let dirty_bit = if dirty { DIRTY } else { 0 };

        // Already resident (e.g. two merged misses racing): refresh.
        if let Some(i) = self.find(set, key) {
            self.promote(set, i);
            self.ranks[i] |= dirty_bit;
            return None;
        }

        // Prefer an invalid way (key 0); otherwise evict the least
        // recent.
        let i = self.find(set, 0).unwrap_or_else(|| {
            let ways = self.ways(set);
            ways.start + recency::least_recent(&self.ranks[ways])
        });

        let victim_key = self.keys[i];
        let mut evicted = None;
        if victim_key != 0 {
            let victim_dirty = self.ranks[i] & DIRTY != 0;
            self.stats.evictions += 1;
            if victim_dirty {
                self.stats.writebacks += 1;
            }
            evicted = Some(Eviction {
                addr: self.rebuild_addr(set, victim_key - 1),
                dirty: victim_dirty,
            });
        }
        self.keys[i] = key;
        self.promote(set, i);
        self.ranks[i] = dirty_bit;
        evicted
    }

    /// Drops the block containing `addr` if present; returns whether a
    /// block was invalidated.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.find(set, key) {
            Some(i) => {
                self.keys[i] = 0;
                self.ranks[i] &= RANK;
                true
            }
            None => false,
        }
    }

    /// Marks the resident block containing `addr` dirty (write hit from
    /// a write-back arriving from above). Returns `false` if absent.
    pub fn mark_dirty(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.find(set, key) {
            Some(i) => {
                self.ranks[i] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Number of valid blocks currently resident.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
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
    fn a_way_is_an_8_byte_key_and_a_rank_byte() {
        // Table 1's tag arrays: 288 KiB for the L2, 18 KiB per L1.
        let table1 = [
            (CacheConfig::l2_baseline(), 288),
            (CacheConfig::l1_baseline(), 18),
        ];
        for (cfg, kib) in table1 {
            let c = Cache::new(cfg);
            let ways = cfg.sets() * cfg.assoc;
            assert_eq!(std::mem::size_of_val(&c.keys[..]), 8 * ways);
            assert_eq!(std::mem::size_of_val(&c.ranks[..]), ways);
            assert_eq!((c.keys.capacity(), c.ranks.capacity()), (ways, ways));
            assert_eq!(9 * ways, kib * 1024);
        }
    }

    #[test]
    fn validate_names_each_malformed_geometry() {
        let ok = CacheConfig::l1_baseline();
        assert_eq!(ok.validate(), Ok(()));
        let bad = |edit: fn(&mut CacheConfig), want: &str| {
            let mut c = ok;
            edit(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(want), "{err}");
        };
        bad(|c| c.block_bytes = 24, "block size 24");
        bad(|c| c.assoc = 0, "associativity 0 outside 1..=128");
        bad(|c| c.assoc = 256, "associativity 256");
        bad(|c| c.capacity_bytes = 3 << 20, "power-of-two number");
        bad(|c| c.capacity_bytes = 100, "power-of-two number");
        bad(|c| c.capacity_bytes = 0, "power-of-two number");
        bad(
            |c| {
                *c = CacheConfig {
                    capacity_bytes: 4,
                    assoc: 4,
                    block_bytes: 1,
                    hit_latency: 1,
                }
            },
            "invalid-way key",
        );
        let widest = CacheConfig {
            capacity_bytes: 128 * 32,
            assoc: 128,
            block_bytes: 32,
            hit_latency: 2,
        };
        assert_eq!(widest.validate(), Ok(()));
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
