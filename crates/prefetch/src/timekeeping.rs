//! The composed Time-Keeping prefetch engine.

use vsv_isa::Addr;

use crate::decay::DecayTable;
use crate::predictor::AddressPredictor;

/// Parameters of the Time-Keeping engine (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeKeepingConfig {
    /// Decay-counter resolution in nanoseconds (paper: 16 cycles).
    pub resolution_ns: u64,
    /// Address-predictor entries (2048 × ~8 B ≈ the paper's 16 KB).
    pub predictor_entries: usize,
    /// L1-D block size, for set/tag extraction.
    pub l1_block_bytes: u64,
    /// L1-D set count, for per-set history traces.
    pub l1_sets: u64,
    /// Assumed live time for blocks in sets with no learned history
    /// (`None` disables first-generation dead prediction). A fixed
    /// decay interval, as in cache-decay schemes, so the engine is
    /// productive before every set has seen an eviction.
    pub default_live_ns: Option<u64>,
}

impl TimeKeepingConfig {
    /// The paper's configuration for the baseline 64 KB 2-way L1.
    #[must_use]
    pub fn baseline() -> Self {
        TimeKeepingConfig {
            resolution_ns: 16,
            predictor_entries: 2048,
            l1_block_bytes: 32,
            l1_sets: 1024,
            default_live_ns: Some(256),
        }
    }
}

/// Counters exposed by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeKeepingStats {
    /// Dead-block predictions made.
    pub dead_predictions: u64,
    /// Prefetch addresses proposed (dead prediction × predictor hit).
    pub prefetches_proposed: u64,
    /// Proposals that came from an exact trained successor entry.
    pub exact_proposals: u64,
    /// Proposals that came from the per-set stride fallback.
    pub stride_proposals: u64,
    /// Per-set history trainings recorded.
    pub trainings: u64,
}

/// The Time-Keeping prefetch engine.
///
/// The owner (the pipeline's memory interface) feeds it L1-D events —
/// [`on_miss`](TimeKeeping::on_miss), [`on_fill`](TimeKeeping::on_fill),
/// [`on_access`](TimeKeeping::on_access), [`on_evict`](TimeKeeping::on_evict)
/// — and polls [`tick`](TimeKeeping::tick) at the decay resolution for
/// prefetch addresses to inject into the hierarchy
/// (`Hierarchy::hw_prefetch`).
///
/// See the crate docs for a worked example.
#[derive(Debug, Clone)]
pub struct TimeKeeping {
    cfg: TimeKeepingConfig,
    decay: DecayTable,
    predictor: AddressPredictor,
    /// Last missing block observed per L1 set ("per-set history").
    set_history: Vec<Option<Addr>>,
    /// Last observed miss-to-miss block delta per L1 set: the stride
    /// fallback when no exact successor entry survives (the aliased
    /// 16 KB table turns over long before a large working set laps).
    set_delta: Vec<Option<i64>>,
    /// Global miss-stride detector: when the whole miss stream
    /// advances by (multiples of) a constant stride — streaming
    /// sweeps, with or without software-prefetch gaps — the per-set
    /// successor is `stride × l1_sets` away even before the set
    /// itself has two misses of history.
    global_last: Option<Addr>,
    /// Current stride candidate (the smallest positive delta seen).
    global_stride: i64,
    global_confidence: u32,
    last_harvest: u64,
    stats: TimeKeepingStats,
}

impl TimeKeeping {
    /// Builds an idle engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero resolution,
    /// non-power-of-two table sizes).
    #[must_use]
    pub fn new(cfg: TimeKeepingConfig) -> Self {
        TimeKeeping {
            decay: DecayTable::with_default_live(cfg.resolution_ns, cfg.default_live_ns),
            predictor: AddressPredictor::new(
                cfg.predictor_entries,
                cfg.l1_block_bytes,
                cfg.l1_sets,
            ),
            set_history: vec![None; cfg.l1_sets as usize],
            set_delta: vec![None; cfg.l1_sets as usize],
            global_last: None,
            global_stride: 0,
            global_confidence: 0,
            last_harvest: 0,
            stats: TimeKeepingStats::default(),
            cfg,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> TimeKeepingConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TimeKeepingStats {
        self.stats
    }

    /// The earliest time (ns) at which [`TimeKeeping::tick`] will next
    /// run its harvest scan. Calls strictly before this time are pure
    /// no-ops, so an owner fast-forwarding through an idle window must
    /// not skip past it.
    #[must_use]
    pub fn next_harvest_at(&self) -> u64 {
        self.last_harvest + self.cfg.resolution_ns
    }

    fn set_of(&self, block: Addr) -> usize {
        ((block.0 >> self.cfg.l1_block_bytes.trailing_zeros()) & (self.cfg.l1_sets - 1)) as usize
    }

    fn block_of(&self, addr: Addr) -> Addr {
        addr.block(self.cfg.l1_block_bytes)
    }

    /// Records a demand L1-D miss to `addr`: trains the per-set trace
    /// (previous miss in this set → this block).
    pub fn on_miss(&mut self, _now: u64, addr: Addr) {
        let block = self.block_of(addr);
        let set = self.set_of(block);
        if let Some(prev) = self.set_history[set] {
            if prev != block {
                self.predictor.train(prev, block);
                self.set_delta[set] = Some(block.0 as i64 - prev.0 as i64);
                self.stats.trainings += 1;
            }
        }
        self.set_history[set] = Some(block);
        if let Some(prev) = self.global_last {
            let d = block.0 as i64 - prev.0 as i64;
            if d > 0 {
                // Deltas that are small positive multiples of the
                // candidate confirm it (covered loads punch holes in a
                // strided stream, so exact repetition is too strict);
                // anything else re-seeds the candidate.
                if self.global_stride > 0
                    && d % self.global_stride == 0
                    && d / self.global_stride <= 16
                {
                    if d < self.global_stride {
                        self.global_stride = d;
                    }
                    self.global_confidence = self.global_confidence.saturating_add(1);
                } else {
                    self.global_stride = d;
                    self.global_confidence = 0;
                }
            } else if d < 0 {
                self.global_confidence = 0;
            }
        }
        self.global_last = Some(block);
    }

    /// The confident global miss stride, if any.
    fn confident_global_stride(&self) -> Option<i64> {
        (self.global_confidence >= 4 && self.global_stride > 0).then_some(self.global_stride)
    }

    /// Records an L1-D fill of `addr` (a new block generation begins).
    pub fn on_fill(&mut self, now: u64, addr: Addr) {
        let block = self.block_of(addr);
        self.decay.fill(now, block);
    }

    /// Records a demand L1-D hit to `addr` (resets the block's decay).
    pub fn on_access(&mut self, now: u64, addr: Addr) {
        let block = self.block_of(addr);
        self.decay.touch(now, block);
    }

    /// Records the eviction of `addr` from the L1-D (closes the
    /// generation and learns its live time).
    pub fn on_evict(&mut self, now: u64, addr: Addr) {
        let block = self.block_of(addr);
        let _ = self.decay.evict(now, block);
    }

    /// Advances the decay counters to `now` and returns prefetch
    /// addresses for blocks newly predicted dead. Runs its scan at the
    /// configured resolution; calling more often is free.
    pub fn tick(&mut self, now: u64) -> Vec<Addr> {
        if now < self.last_harvest + self.cfg.resolution_ns {
            return Vec::new();
        }
        self.last_harvest = now;
        let dead = self.decay.harvest_dead(now);
        let mut proposals = Vec::new();
        for block in dead {
            self.stats.dead_predictions += 1;
            if let Some(next) = self.predictor.predict(block) {
                self.stats.prefetches_proposed += 1;
                self.stats.exact_proposals += 1;
                proposals.push(next);
            } else if let Some(delta) = self
                .confident_global_stride()
                // Streaming sweeps: the per-set successor is the
                // global stride times the number of sets away. The
                // global detector regains confidence within one miss
                // burst, so it outranks the per-set delta, which a
                // single unrelated (e.g. hot-set) miss can poison.
                .map(|d| d.saturating_mul(self.cfg.l1_sets as i64))
                .or(self.set_delta[self.set_of(block)])
            {
                // Stride fallback: the set's recent miss-to-miss delta
                // applied to the dying block. Exact for streaming
                // walks; noisy (pollution, as the paper observes for
                // art) for irregular ones.
                if let Some(next) = block.0.checked_add_signed(delta) {
                    self.stats.prefetches_proposed += 1;
                    self.stats.stride_proposals += 1;
                    proposals.push(Addr(next));
                }
            }
        }
        proposals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TimeKeeping {
        TimeKeeping::new(TimeKeepingConfig::baseline())
    }

    /// Drives one full generation: miss+fill, accesses, evict.
    fn generation(tk: &mut TimeKeeping, t0: u64, block: Addr, live: u64) {
        tk.on_miss(t0, block);
        tk.on_fill(t0, block);
        tk.on_access(t0 + live, block);
        tk.on_evict(t0 + live + 200, block);
    }

    #[test]
    fn predicts_successor_after_learned_live_time() {
        let mut tk = engine();
        let a = Addr(0x1000);
        let b = Addr(0x11000); // same set (stride = sets*block = 32 KB)
        generation(&mut tk, 0, a, 64);
        tk.on_miss(300, b);
        tk.on_fill(300, b);
        // Second generation of `a`.
        tk.on_miss(1000, a);
        tk.on_fill(1000, a);
        tk.on_access(1010, a);
        let mut got = Vec::new();
        for now in (1000..1400).step_by(16) {
            got.extend(tk.tick(now));
        }
        // Two dead predictions: `b` (first generation, but its set has
        // history thanks to per-set learning) proposes its trained
        // successor `a`; then `a`'s second generation proposes `b`.
        assert_eq!(got, vec![a, b]);
        assert_eq!(tk.stats().dead_predictions, 2);
        assert_eq!(tk.stats().prefetches_proposed, 2);
    }

    #[test]
    fn no_prediction_without_history() {
        let mut tk = engine();
        generation(&mut tk, 0, Addr(0x1000), 64);
        tk.on_miss(1000, Addr(0x1000));
        tk.on_fill(1000, Addr(0x1000));
        let mut got = Vec::new();
        for now in (1000..1400).step_by(16) {
            got.extend(tk.tick(now));
        }
        // Dead prediction fires but the predictor has no successor
        // trace for this signature (only a->? trained... a was trained
        // as the *first* miss; no prev->a, and no a->next yet).
        assert!(got.is_empty());
    }

    #[test]
    fn tick_respects_resolution() {
        let mut tk = engine();
        // Sub-resolution ticks do nothing (cheap early-out).
        assert!(tk.tick(1).is_empty());
        assert!(tk.tick(15).is_empty());
        assert!(tk.tick(16).is_empty()); // scan runs, nothing dead
    }

    #[test]
    fn per_set_histories_are_independent() {
        let mut tk = engine();
        let set0_a = Addr(0x0000);
        let set1_b = Addr(0x0020); // next set
        let set0_c = Addr(0x8000); // same set as set0_a
        tk.on_miss(0, set0_a);
        tk.on_miss(1, set1_b);
        tk.on_miss(2, set0_c);
        // set0: a -> c trained; set1: only b seen.
        assert_eq!(tk.stats().trainings, 1);
    }

    #[test]
    fn repeated_miss_to_same_block_does_not_self_train() {
        let mut tk = engine();
        tk.on_miss(0, Addr(0x40));
        tk.on_miss(10, Addr(0x40));
        assert_eq!(tk.stats().trainings, 0);
    }
}
