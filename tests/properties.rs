//! Property-style tests over the public APIs of the substrate crates:
//! invariants that must hold for *any* input, not just the scripted
//! cases in the unit tests.
//!
//! These originally ran under proptest. The workspace must build with
//! no network access (see DESIGN.md), so the properties are now driven
//! by the in-repo `XorShift64` PRNG over fixed seeds: every property
//! is checked against `CASES` independently-seeded random inputs.
//! This trades proptest's shrinking for determinism — a failure
//! reports the case seed, which reproduces the exact input.

use vsv::{Comparison, DownFsm, DownPolicy, ModeStats, RunResult, UpFsm, UpPolicy};
use vsv_isa::{Addr, ArchReg, BranchKind, Inst, Pc};
use vsv_mem::{
    Bus, BusConfig, Cache, CacheConfig, CacheStats, EventQueue, Eviction, MshrFile, MshrOutcome,
    ReplacementPolicy,
};
use vsv_power::{ActivitySample, PowerAccountant, PowerConfig};
use vsv_uarch::{BranchPredictor, BranchPredictorConfig, EntryState, Ruu};
use vsv_workloads::{Generator, WorkloadParams, XorShift64};

/// Random cases per property. Each case derives its own seed so a
/// failure message identifies the reproducing input.
const CASES: u64 = 64;

/// Deterministic per-(property, case) PRNG.
fn rng(property: &str, case: u64) -> XorShift64 {
    // FNV-1a over the property name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in property.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    XorShift64::new(h ^ (case.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1)
}

// ---------- caches ---------------------------------------------------

/// A fill makes the block resident; residency only leaves via a
/// conflicting fill or invalidation. Model-checked against a naive
/// set model.
#[test]
fn cache_matches_naive_lru_model() {
    for case in 0..CASES {
        let mut r = rng("cache_matches_naive_lru_model", case);
        let n_ops = 1 + r.below(199) as usize;
        // 2 sets x 2 ways x 32B blocks.
        let cfg = CacheConfig {
            capacity_bytes: 128,
            assoc: 2,
            block_bytes: 32,
            hit_latency: 1,
        };
        let mut cache = Cache::new(cfg);
        // Naive model: per set, a vec of blocks, most recently used last.
        let mut model: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..n_ops {
            let block_idx = r.below(64);
            let is_fill = r.chance(0.5);
            let addr = Addr(block_idx * 32);
            let set = (block_idx % 2) as usize;
            if is_fill {
                cache.fill(addr);
                if let Some(pos) = model[set].iter().position(|b| *b == block_idx) {
                    model[set].remove(pos);
                } else if model[set].len() == 2 {
                    model[set].remove(0); // evict LRU
                }
                model[set].push(block_idx);
            } else {
                let hit = cache.access(addr, false);
                let model_hit = model[set].contains(&block_idx);
                assert_eq!(hit, model_hit, "case {case}: access {block_idx} mismatch");
                if model_hit {
                    let pos = model[set]
                        .iter()
                        .position(|b| *b == block_idx)
                        .expect("hit");
                    let b = model[set].remove(pos);
                    model[set].push(b); // refresh LRU
                }
            }
        }
    }
}

/// Occupancy never exceeds capacity, and the fill/eviction ledger
/// balances: every fill either made a block resident, displaced a
/// victim, or refreshed an already-resident block.
#[test]
fn cache_occupancy_and_stat_balance() {
    for case in 0..CASES {
        let mut r = rng("cache_occupancy_and_stat_balance", case);
        let n = 1 + r.below(299);
        let cfg = CacheConfig {
            capacity_bytes: 1024,
            assoc: 4,
            block_bytes: 32,
            hit_latency: 1,
        };
        let mut cache = Cache::new(cfg);
        for _ in 0..n {
            cache.fill(Addr(r.below(4096) * 32));
        }
        let s = cache.stats();
        assert!(cache.resident_blocks() <= 32, "case {case}");
        assert_eq!(s.fills, n, "case {case}");
        assert!(
            cache.resident_blocks() as u64 + s.evictions <= s.fills,
            "case {case}: resident {} + evictions {} must not exceed fills {}",
            cache.resident_blocks(),
            s.evictions,
            s.fills
        );
        assert!(s.writebacks <= s.evictions, "case {case}");
    }
}

/// A reference tag array that orders recency with per-way use stamps:
/// every access, fill and (under LRU) hit draws the next value of one
/// cache-wide use counter, the dirty flag rides in the stamp's top bit
/// and the victim is the first invalid way, else the smallest stamp.
struct StampCache {
    assoc: usize,
    lru: bool,
    set_mask: u64,
    set_bits: u32,
    block_shift: u32,
    // (tag plus one, stamp with the dirty flag in its top bit).
    lines: Vec<(u64, u64)>,
    use_counter: u64,
    stats: CacheStats,
}

const STAMP_DIRTY: u64 = 1 << 63;

impl StampCache {
    fn new(cfg: CacheConfig, policy: ReplacementPolicy) -> Self {
        let sets = cfg.sets();
        StampCache {
            assoc: cfg.assoc,
            lru: policy == ReplacementPolicy::Lru,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            block_shift: cfg.block_bytes.trailing_zeros(),
            lines: vec![(0, 0); cfg.assoc * sets],
            use_counter: 0,
            stats: CacheStats::default(),
        }
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let block = addr.0 >> self.block_shift;
        (
            (block & self.set_mask) as usize,
            (block >> self.set_bits) + 1,
        )
    }

    fn set(&mut self, set: usize) -> &mut [(u64, u64)] {
        &mut self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    fn access(&mut self, addr: Addr, write: bool) -> bool {
        let (set, key) = self.index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        let lru = self.lru;
        match self.set(set).iter_mut().find(|l| l.0 == key) {
            Some(line) => {
                if lru {
                    line.1 = counter | (line.1 & STAMP_DIRTY);
                }
                if write {
                    line.1 |= STAMP_DIRTY;
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

    fn probe(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        self.set(set).iter().any(|l| l.0 == key)
    }

    fn fill_evicting(&mut self, addr: Addr, dirty: bool) -> Option<Eviction> {
        let (set, key) = self.index(addr);
        self.use_counter += 1;
        let counter = self.use_counter;
        self.stats.fills += 1;
        let dirty_bit = if dirty { STAMP_DIRTY } else { 0 };
        if let Some(line) = self.set(set).iter_mut().find(|l| l.0 == key) {
            line.1 = counter | (line.1 & STAMP_DIRTY) | dirty_bit;
            return None;
        }
        let ways = self.set(set);
        let victim_idx = match ways.iter().position(|l| l.0 == 0) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.1 & !STAMP_DIRTY)
                .map(|(i, _)| i)
                .expect("assoc >= 1"),
        };
        let victim = ways[victim_idx];
        ways[victim_idx] = (key, counter | dirty_bit);
        (victim.0 != 0).then(|| {
            let victim_dirty = victim.1 & STAMP_DIRTY != 0;
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(victim_dirty);
            let block = ((victim.0 - 1) << self.set_bits) | set as u64;
            Eviction {
                addr: Addr(block << self.block_shift),
                dirty: victim_dirty,
            }
        })
    }

    fn invalidate(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.set(set).iter_mut().find(|l| l.0 == key) {
            Some(line) => {
                line.0 = 0;
                line.1 &= !STAMP_DIRTY;
                true
            }
            None => false,
        }
    }

    fn mark_dirty(&mut self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        match self.set(set).iter_mut().find(|l| l.0 == key) {
            Some(line) => {
                line.1 |= STAMP_DIRTY;
                true
            }
            None => false,
        }
    }
}

/// `Cache` against the use-stamp reference model: under LRU and FIFO
/// at associativity 1, 2, 8 and 128, every access (read and write),
/// probe, fill, dirty fill, evicting fill, invalidation and dirty mark
/// agrees on the hit, the eviction (address and dirty flag) and the
/// statistics, step by step. Blocks come from a pool half again the
/// cache's size, so sets fill, hit, refill resident blocks and evict.
#[test]
fn cache_recency_matches_use_stamp_model() {
    for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Fifo] {
        for assoc in [1usize, 2, 8, 128] {
            let sets = if assoc == 128 { 2 } else { 4 };
            let cfg = CacheConfig {
                capacity_bytes: (assoc * sets) as u64 * 32,
                assoc,
                block_bytes: 32,
                hit_latency: 1,
            };
            let blocks = (assoc * sets) as u64;
            for case in 0..8 {
                let what = format!("{policy:?} assoc {assoc} case {case}");
                let mut r = rng(
                    "cache_recency_matches_use_stamp_model",
                    case ^ (blocks << 8) ^ ((policy == ReplacementPolicy::Fifo) as u64) << 32,
                );
                let mut cache = Cache::with_policy(cfg, policy);
                let mut model = StampCache::new(cfg, policy);
                for step in 0..20 * blocks + 200 {
                    let addr = Addr(r.below(blocks * 3 / 2 + 1) * 32 + r.below(32));
                    let dirty = r.chance(0.3);
                    match r.below(9) {
                        0 => assert_eq!(cache.access(addr, false), model.access(addr, false)),
                        1 => assert_eq!(cache.access(addr, true), model.access(addr, true)),
                        2 => assert_eq!(cache.probe(addr), model.probe(addr)),
                        3 => assert_eq!(
                            cache.fill(addr),
                            model
                                .fill_evicting(addr, false)
                                .filter(|e| e.dirty)
                                .map(|e| e.addr),
                            "{what} step {step}"
                        ),
                        4 => assert_eq!(
                            cache.fill_with(addr, dirty),
                            model
                                .fill_evicting(addr, dirty)
                                .filter(|e| e.dirty)
                                .map(|e| e.addr),
                            "{what} step {step}"
                        ),
                        5 | 6 => assert_eq!(
                            cache.fill_evicting(addr, dirty),
                            model.fill_evicting(addr, dirty),
                            "{what} step {step}"
                        ),
                        7 => assert_eq!(cache.invalidate(addr), model.invalidate(addr)),
                        _ => assert_eq!(cache.mark_dirty(addr), model.mark_dirty(addr)),
                    }
                    assert_eq!(cache.stats(), model.stats, "{what} step {step}");
                }
                assert_eq!(
                    cache.resident_blocks(),
                    model.lines.iter().filter(|l| l.0 != 0).count(),
                    "{what}"
                );
                let s = model.stats;
                assert!(s.hits > 0 && s.writebacks > 0, "{what}: {s:?}");
            }
        }
    }
}

/// A reference BTB that orders recency with per-way use stamps: every
/// lookup and fill draws the next use-counter value, a hit or a fill
/// stamps its way, and the victim is the first invalid way, else the
/// smallest stamp.
struct StampBtb {
    assoc: usize,
    sets: usize,
    // (tag plus one, target, last use).
    lines: Vec<(u64, Pc, u64)>,
    use_counter: u64,
    hits: u64,
}

impl StampBtb {
    fn index(&self, pc: Pc) -> (usize, u64) {
        let set = ((pc.0 >> 2) as usize) & (self.sets - 1);
        (set, (pc.0 >> 2 >> self.sets.trailing_zeros()) + 1)
    }

    fn set(&mut self, set: usize) -> &mut [(u64, Pc, u64)] {
        &mut self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        let (set, key) = self.index(pc);
        self.use_counter += 1;
        let counter = self.use_counter;
        let hit = self.set(set).iter_mut().find(|l| l.0 == key).map(|l| {
            l.2 = counter;
            l.1
        });
        self.hits += u64::from(hit.is_some());
        hit
    }

    fn fill(&mut self, pc: Pc, target: Pc) {
        let (set, key) = self.index(pc);
        self.use_counter += 1;
        let counter = self.use_counter;
        let ways = self.set(set);
        if let Some(line) = ways.iter_mut().find(|l| l.0 == key) {
            line.1 = target;
            line.2 = counter;
            return;
        }
        let victim = match ways.iter().position(|l| l.0 == 0) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.2)
                .map(|(i, _)| i)
                .expect("assoc >= 1"),
        };
        ways[victim] = (key, target, counter);
    }
}

/// The BTB against the use-stamp reference model, through the
/// predictor's public `predict`/`update`: at associativity 1, 2, 4 and
/// 128, every jump or call lookup returns the model's target and the
/// BTB hit count agrees step by step, while taken and not-taken
/// conditional, jump and return updates train both.
#[test]
fn btb_recency_matches_use_stamp_model() {
    for assoc in [1usize, 2, 4, 128] {
        let sets = if assoc == 128 { 2 } else { 8 };
        let mut cfg = BranchPredictorConfig::baseline();
        cfg.btb_entries = assoc * sets;
        cfg.btb_assoc = assoc;
        let entries = (assoc * sets) as u64;
        for case in 0..8 {
            let what = format!("assoc {assoc} case {case}");
            let mut r = rng("btb_recency_matches_use_stamp_model", case ^ (entries << 8));
            let mut bp = BranchPredictor::new(cfg);
            let mut model = StampBtb {
                assoc,
                sets,
                lines: vec![(0, Pc(0), 0); assoc * sets],
                use_counter: 0,
                hits: 0,
            };
            for step in 0..20 * entries + 200 {
                let pc = Pc(r.below(entries * 3 / 2 + 1) * 4);
                let target = Pc(r.below(1 << 20) * 4);
                match r.below(6) {
                    0 | 1 => {
                        let kind = [BranchKind::Jump, BranchKind::Call][r.below(2) as usize];
                        assert_eq!(
                            bp.predict(pc, kind).target,
                            model.lookup(pc),
                            "{what} step {step}"
                        );
                    }
                    2 => {
                        let taken = r.chance(0.6);
                        bp.update(pc, BranchKind::Conditional, taken, target);
                        if taken {
                            model.fill(pc, target);
                        }
                    }
                    3 | 4 => {
                        bp.update(pc, BranchKind::Jump, true, target);
                        model.fill(pc, target);
                    }
                    _ => bp.update(pc, BranchKind::Return, true, target),
                }
                assert_eq!(bp.stats().btb_hits, model.hits, "{what} step {step}");
            }
            assert!(model.hits > 0, "{what}");
        }
    }
}

// ---------- MSHRs ----------------------------------------------------

/// Every allocated target is returned exactly once by complete(),
/// in FIFO order per block, and occupancy tracks live entries.
#[test]
fn mshr_targets_conserved() {
    for case in 0..CASES {
        let mut r = rng("mshr_targets_conserved", case);
        let n_reqs = 1 + r.below(99) as usize;
        let mut mshrs = MshrFile::new(4, 4);
        let mut expected: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for _ in 0..n_reqs {
            let block_idx = r.below(8);
            let target = r.below(1000);
            let block = Addr(block_idx * 64);
            match mshrs.allocate(block, target, true) {
                MshrOutcome::Primary | MshrOutcome::Merged => {
                    expected.entry(block_idx).or_default().push(target);
                }
                MshrOutcome::Full => {}
            }
        }
        assert_eq!(mshrs.occupancy(), expected.len(), "case {case}");
        for (block_idx, targets) in expected {
            let (got, demand) = mshrs.complete(Addr(block_idx * 64)).expect("entry exists");
            assert_eq!(got, targets, "case {case}: FIFO order per block");
            assert!(demand, "case {case}");
        }
        assert_eq!(mshrs.occupancy(), 0, "case {case}");
    }
}

// ---------- bus -------------------------------------------------------

/// Grants never overlap and never start before the request time;
/// total busy time equals the sum of grant durations.
#[test]
fn bus_grants_are_serialised() {
    for case in 0..CASES {
        let mut r = rng("bus_grants_are_serialised", case);
        let n_reqs = 1 + r.below(99) as usize;
        let mut bus = Bus::new(BusConfig::baseline());
        let mut last_end = 0u64;
        let mut busy = 0u64;
        let mut now = 0u64;
        for _ in 0..n_reqs {
            now += r.below(500);
            let bytes = r.below(256);
            let (start, end) = bus.schedule(now, bytes);
            assert!(start >= now, "case {case}");
            assert!(start >= last_end, "case {case}: grants must not overlap");
            assert!(end > start, "case {case}");
            busy += end - start;
            last_end = end;
        }
        assert_eq!(bus.busy_ns(), busy, "case {case}");
    }
}

// ---------- event queue ----------------------------------------------

/// Events pop in (time, insertion) order regardless of push order.
#[test]
fn event_queue_is_stable_priority() {
    for case in 0..CASES {
        let mut r = rng("event_queue_is_stable_priority", case);
        let n_events = 1 + r.below(199) as usize;
        let events: Vec<u64> = (0..n_events).map(|_| r.below(100)).collect();
        let mut q = EventQueue::new();
        for (i, t) in events.iter().enumerate() {
            q.push(*t, (*t, i));
        }
        let popped = q.pop_ready(100);
        assert_eq!(popped.len(), events.len(), "case {case}");
        for w in popped.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "case {case}"
            );
        }
    }
}

// ---------- RUU -------------------------------------------------------

/// Any interleaving of dispatch/complete keeps in-order commit:
/// popped sequence numbers are dense and increasing, and occupancy
/// never exceeds capacity.
#[test]
fn ruu_commits_in_order() {
    for case in 0..CASES {
        let mut r = rng("ruu_commits_in_order", case);
        let n_steps = 1 + r.below(299) as usize;
        let mut ruu = Ruu::new(16, 8);
        let mut issued: Vec<u64> = Vec::new();
        let mut next_commit = 0u64;
        let mut pc = 0u64;
        for _ in 0..n_steps {
            if r.chance(0.5) {
                let inst = Inst::alu(Pc(pc), ArchReg::int((pc % 30) as u8 + 1), &[]);
                pc += 4;
                if ruu.can_dispatch(&inst) {
                    let seq = ruu.dispatch(inst, false);
                    issued.push(seq);
                }
            } else if let Some(seq) = issued.pop() {
                ruu.mark_issued(seq);
                ruu.complete(seq);
            }
            assert!(ruu.occupancy() <= 16, "case {case}");
            while let Some(e) = ruu.commit_ready() {
                assert_eq!(
                    e.seq, next_commit,
                    "case {case}: commit order must be program order"
                );
                ruu.pop_commit();
                next_commit += 1;
            }
        }
    }
}

/// A naive reference model of the register update unit: every entry
/// ever dispatched, scanned linearly, with wakeup lists kept as plain
/// vectors (a consumer whose two sources share one producer appears
/// twice, once per source).
struct RuuModel {
    states: Vec<EntryState>,
    deps: Vec<u8>,
    consumers: Vec<Vec<u64>>,
    dst: Vec<Option<ArchReg>>,
    reg_producer: [Option<u64>; ArchReg::COUNT],
    head: u64,
}

impl RuuModel {
    fn new() -> Self {
        RuuModel {
            states: Vec::new(),
            deps: Vec::new(),
            consumers: Vec::new(),
            dst: Vec::new(),
            reg_producer: [None; ArchReg::COUNT],
            head: 0,
        }
    }

    fn live(&self) -> std::ops::Range<u64> {
        self.head..self.states.len() as u64
    }

    fn dispatch(&mut self, inst: Inst) -> u64 {
        let seq = self.states.len() as u64;
        let mut producers = Vec::new();
        for reg in inst.srcs().into_iter().flatten() {
            if let Some(p) = self.reg_producer[reg.index()] {
                if self.states[p as usize] != EntryState::Completed {
                    producers.push(p);
                }
            }
        }
        self.states.push(if producers.is_empty() {
            EntryState::Ready
        } else {
            EntryState::Waiting
        });
        self.deps.push(producers.len() as u8);
        self.consumers.push(Vec::new());
        self.dst.push(inst.dst());
        for p in producers {
            self.consumers[p as usize].push(seq);
        }
        if let Some(d) = inst.dst() {
            self.reg_producer[d.index()] = Some(seq);
        }
        seq
    }

    fn ready(&self, max: usize) -> Vec<u64> {
        self.live()
            .filter(|&s| self.states[s as usize] == EntryState::Ready)
            .take(max)
            .collect()
    }

    fn issued(&self) -> Vec<u64> {
        self.live()
            .filter(|&s| self.states[s as usize] == EntryState::Issued)
            .collect()
    }

    fn complete(&mut self, seq: u64) -> u32 {
        self.states[seq as usize] = EntryState::Completed;
        let consumers = std::mem::take(&mut self.consumers[seq as usize]);
        for &c in &consumers {
            let c = c as usize;
            self.deps[c] = self.deps[c].saturating_sub(1);
            if self.deps[c] == 0 && self.states[c] == EntryState::Waiting {
                self.states[c] = EntryState::Ready;
            }
        }
        consumers.len() as u32
    }

    fn commit(&mut self) -> Option<u64> {
        let seq = self.head;
        if self.states.get(seq as usize) != Some(&EntryState::Completed) {
            return None;
        }
        self.head += 1;
        if let Some(d) = self.dst[seq as usize] {
            if self.reg_producer[d.index()] == Some(seq) {
                self.reg_producer[d.index()] = None;
            }
        }
        Some(seq)
    }
}

/// The window against the naive model on random dependent streams —
/// including an op whose two sources share one producer and the
/// self-dependence `r1 <- f(r1)` — with random issue and completion
/// order, at capacities from 1 to 128 and with enough dispatches that
/// the window wraps at least ten times. Checks the oldest-first ready
/// order, the wake counts `complete` returns, every live entry's state
/// and the commit order.
#[test]
fn ruu_matches_naive_wakeup_model() {
    for capacity in [1usize, 12, 16, 128] {
        for case in 0..8 {
            let mut r = rng(
                "ruu_matches_naive_wakeup_model",
                case ^ ((capacity as u64) << 8),
            );
            let mut ruu = Ruu::new(capacity, capacity);
            let mut model = RuuModel::new();
            let target = 10 * capacity as u64 + 40;
            let mut pc = 0u64;
            let mut steps = 0u64;
            while (model.states.len() as u64) < target || model.head < model.states.len() as u64 {
                steps += 1;
                assert!(
                    steps < 200 * target,
                    "cap {capacity} case {case}: no progress"
                );
                let dispatching = (model.states.len() as u64) < target;
                let choice = r.below(8);
                if dispatching && choice < 3 {
                    // Four registers keep producers live and shared.
                    let reg = |r: &mut XorShift64| ArchReg::int(1 + r.below(4) as u8);
                    let dst = reg(&mut r);
                    let inst = match r.below(5) {
                        0 => Inst::alu(Pc(pc), dst, &[]),
                        1 => Inst::alu(Pc(pc), dst, &[reg(&mut r)]),
                        2 => {
                            let src = reg(&mut r);
                            Inst::alu(Pc(pc), dst, &[src, src])
                        }
                        3 => Inst::alu(Pc(pc), dst, &[dst]),
                        _ => Inst::alu(Pc(pc), dst, &[reg(&mut r), reg(&mut r)]),
                    };
                    pc += 4;
                    if ruu.can_dispatch(&inst) {
                        let seq = ruu.dispatch(inst, false);
                        assert_eq!(seq, model.dispatch(inst), "cap {capacity} case {case}");
                    }
                } else if choice < 5 {
                    let ready = model.ready(capacity);
                    if !ready.is_empty() {
                        let seq = ready[r.below(ready.len() as u64) as usize];
                        ruu.mark_issued(seq);
                        model.states[seq as usize] = EntryState::Issued;
                    }
                } else if choice < 7 {
                    let issued = model.issued();
                    if !issued.is_empty() {
                        let seq = issued[r.below(issued.len() as u64) as usize];
                        assert_eq!(
                            ruu.complete(seq),
                            model.complete(seq),
                            "cap {capacity} case {case}: wake count of seq {seq}"
                        );
                    }
                } else {
                    while let Some(seq) = model.commit() {
                        assert_eq!(
                            ruu.commit_ready().map(|e| e.seq),
                            Some(seq),
                            "cap {capacity} case {case}"
                        );
                        ruu.pop_commit();
                    }
                    assert!(ruu.commit_ready().is_none(), "cap {capacity} case {case}");
                }
                assert_eq!(
                    ruu.ready_seqs(capacity),
                    model.ready(capacity),
                    "cap {capacity} case {case}: ready order"
                );
                assert_eq!(ruu.any_ready(), !model.ready(1).is_empty());
                assert_eq!(
                    ruu.occupancy() as u64,
                    model.live().end - model.live().start
                );
                for seq in model.live() {
                    assert_eq!(
                        ruu.entry(seq).map(|e| e.state),
                        Some(model.states[seq as usize]),
                        "cap {capacity} case {case}: state of seq {seq}"
                    );
                }
                assert!(ruu.entry(model.live().end).is_none());
                if model.head > 0 {
                    assert!(ruu.entry(model.head - 1).is_none());
                }
            }
            assert!(ruu.is_empty(), "cap {capacity} case {case}");
        }
    }
}

// ---------- FSMs ------------------------------------------------------

/// A higher down-threshold never triggers earlier than a lower one
/// on the same issue trace.
#[test]
fn down_threshold_monotonicity() {
    for case in 0..CASES {
        let mut r = rng("down_threshold_monotonicity", case);
        let n = 10 + r.below(50) as usize;
        let trace: Vec<u32> = (0..n).map(|_| r.below(4) as u32).collect();
        let fire_index = |threshold: u32| {
            let mut f = DownFsm::new(DownPolicy::Monitor {
                threshold,
                period: 10,
            });
            f.arm();
            trace.iter().position(|&i| {
                f.refresh();
                f.on_cycle(i)
            })
        };
        let t1 = fire_index(1);
        let t3 = fire_index(3);
        match (t1, t3) {
            (Some(a), Some(b)) => assert!(a <= b, "case {case}"),
            (None, Some(_)) => panic!("case {case}: t3 fired but t1 did not"),
            _ => {}
        }
    }
}

/// The up-FSM never fires while the pipeline stays fully idle with
/// misses outstanding; Last-R never fires before outstanding hits 0.
#[test]
fn up_policies_respect_their_definitions() {
    for case in 0..CASES {
        let mut r = rng("up_policies_respect_their_definitions", case);
        let n = 1 + r.below(29) as usize;
        let outs: Vec<usize> = (0..n).map(|_| 1 + r.below(4) as usize).collect();
        let mut monitor = UpFsm::new(UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        });
        let mut last_r = UpFsm::new(UpPolicy::LastReturn);
        for &o in &outs {
            assert!(
                !last_r.on_return(o),
                "case {case}: Last-R with outstanding {o}"
            );
            assert!(
                !monitor.on_return(o),
                "case {case}: monitor cannot fire straight from a return with outstanding > 0"
            );
            // Idle cycles: monitor must not fire.
            for _ in 0..12 {
                assert!(!monitor.on_cycle(0), "case {case}");
            }
        }
        assert!(last_r.on_return(0), "case {case}");
    }
}

// ---------- power model ----------------------------------------------

/// Energy is finite, non-negative, and monotone in both activity
/// and voltage.
#[test]
fn power_energy_monotonicity() {
    for case in 0..CASES {
        let mut r = rng("power_energy_monotonicity", case);
        let volts = [1.2, 1.4, 1.6, 1.8];
        let v = volts[r.below(4) as usize];
        let mut sample: ActivitySample = Default::default();
        for slot in sample.iter_mut() {
            *slot = r.below(32) as u32;
        }
        let mut acc = PowerAccountant::new(PowerConfig::baseline());
        acc.record_cycle(&sample, v);
        let e = acc.total_energy_pj();
        assert!(e.is_finite() && e >= 0.0, "case {case}");

        // More activity can only cost more.
        let mut bigger = sample;
        bigger[0] += 1;
        let mut acc2 = PowerAccountant::new(PowerConfig::baseline());
        acc2.record_cycle(&bigger, v);
        assert!(acc2.total_energy_pj() >= e, "case {case}");

        // Higher voltage can only cost more.
        if v < 1.8 {
            let mut acc3 = PowerAccountant::new(PowerConfig::baseline());
            acc3.record_cycle(&sample, v + 0.2);
            assert!(acc3.total_energy_pj() + 1e-9 >= e, "case {case}");
        }
    }
}

// ---------- workload generator ----------------------------------------

/// For any valid parameter point, the generated trace respects
/// control flow (each instruction sits at its predecessor's next
/// PC) and PCs stay inside the code footprint.
#[test]
fn generator_traces_follow_control_flow() {
    use vsv_isa::InstStream;
    let mut checked = 0;
    for case in 0..CASES {
        let mut r = rng("generator_traces_follow_control_flow", case);
        let mut p = WorkloadParams::compute_bound("prop");
        p.seed = r.next_u64();
        p.far_fraction = 0.3 * r.unit();
        p.branch_fraction = 0.25 * r.unit();
        p.ilp_chains = 1 + r.below(8) as usize;
        p.miss_burst = 1 + r.below(16) as usize;
        if p.validate().is_err() {
            continue; // proptest's prop_assume!: skip invalid points
        }
        checked += 1;
        let mut g = Generator::new(p);
        let mut prev: Option<Inst> = None;
        for _ in 0..2_000 {
            let inst = g.next_inst().expect("infinite stream");
            assert!(inst.pc().0 < p.code_footprint_bytes, "case {case}");
            if let Some(prev) = prev {
                assert_eq!(inst.pc(), prev.next_pc(), "case {case}: {prev} then {inst}");
            }
            prev = Some(inst);
        }
    }
    assert!(checked > CASES / 2, "too many invalid parameter points");
}

/// The PRNG's bounded sampler stays in range for any bound.
#[test]
fn rng_below_stays_in_range() {
    for case in 0..CASES {
        let mut r = rng("rng_below_stays_in_range", case);
        let seed = r.next_u64();
        let bound = 1 + r.below(999_999);
        let mut s = XorShift64::new(seed);
        for _ in 0..100 {
            assert!(s.below(bound) < bound, "case {case}");
        }
    }
}

// ---------- report maths ----------------------------------------------

/// Comparison percentages are consistent with their definitions.
#[test]
fn comparison_math() {
    for case in 0..CASES {
        let mut r = rng("comparison_math", case);
        let base_ns = 1_000 + r.below(999_000);
        let vsv_ns = 1_000 + r.below(999_000);
        let base_w = 1.0 + 99.0 * r.unit();
        let vsv_w = 1.0 + 99.0 * r.unit();
        let mk = |ns: u64, w: f64| RunResult {
            workload: String::new(),
            instructions: 1,
            elapsed_ns: ns,
            pipeline_cycles: ns,
            ipc: 0.0,
            mpki: 0.0,
            prefetch_mpki: 0.0,
            energy_pj: w * ns as f64 * 1e3,
            energy: vsv_power::EnergyBreakdown {
                per_structure_pj: [0.0; 14],
                ramp_pj: 0.0,
                level_converter_pj: 0.0,
                uncore_pj: 0.0,
                leakage_pj: 0.0,
                cycles: 0,
            },
            avg_power_w: w,
            mode: ModeStats::default(),
            down_triggers: 0,
            down_expiries: 0,
            up_triggers: 0,
            up_expiries: 0,
            zero_issue_cycles: 0,
            mispredicts: 0,
            branches: 0,
            issue_histogram: Default::default(),
            read_errors: 0,
            read_retries: 0,
            requests_arrived: 0,
            requests_completed: 0,
            request_backlog: 0,
            request_p50_ns: 0,
            request_p99_ns: 0,
            request_p999_ns: 0,
            slo: None,
            core_results: Vec::new(),
        };
        let c = Comparison::of(&mk(base_ns, base_w), &mk(vsv_ns, vsv_w));
        assert!(
            (c.perf_degradation_pct > 0.0) == (vsv_ns > base_ns),
            "case {case}"
        );
        assert!(
            (c.power_saving_pct > 0.0) == (vsv_w < base_w),
            "case {case}"
        );
    }
}
