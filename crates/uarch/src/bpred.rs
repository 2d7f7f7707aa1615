//! Hybrid branch predictor, BTB and return-address stack.
//!
//! Table 1: "8K/8K/8K hybrid predictor; 32-entry RAS, 8192-entry 4-way
//! BTB, 8 cycle misprediction penalty". The hybrid combines an 8K-entry
//! bimodal table and an 8K-entry gshare table through an 8K-entry meta
//! (chooser) table, as in the Alpha 21264 tournament scheme.

use vsv_isa::{BranchKind, Pc};
use vsv_mem::recency;

/// A table of saturating 2-bit counters, packed four to a byte.
#[derive(Debug, Clone)]
struct Counters2(Vec<u8>);

impl Counters2 {
    /// `entries` counters, each weakly not-taken (1).
    fn new(entries: usize) -> Self {
        Counters2(vec![0b0101_0101; entries.div_ceil(4)])
    }

    /// The byte holding counter `i` and the counter's shift within it.
    fn slot(i: usize) -> (usize, u32) {
        (i / 4, 2 * (i % 4) as u32)
    }

    fn taken(&self, i: usize) -> bool {
        let (byte, shift) = Self::slot(i);
        (self.0[byte] >> shift) & 3 >= 2
    }

    fn update(&mut self, i: usize, taken: bool) {
        let (byte, shift) = Self::slot(i);
        let c = (self.0[byte] >> shift) & 3;
        let c = if taken {
            (c + 1).min(3)
        } else {
            c.saturating_sub(1)
        };
        self.0[byte] = (self.0[byte] & !(3 << shift)) | (c << shift);
    }
}

/// Which direction-prediction scheme the predictor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PredictorKind {
    /// Bimodal + gshare selected by a meta chooser (Table 1; the
    /// Alpha 21264 tournament scheme).
    #[default]
    Hybrid,
    /// Bimodal only: per-PC 2-bit counters.
    Bimodal,
    /// Gshare only: global-history-xor-PC 2-bit counters.
    Gshare,
}

/// Predictor table sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPredictorConfig {
    /// Direction scheme.
    pub kind: PredictorKind,
    /// Bimodal-table entries.
    pub bimodal_entries: usize,
    /// Gshare-table entries (also sets the history length).
    pub gshare_entries: usize,
    /// Meta-chooser entries.
    pub meta_entries: usize,
    /// BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_assoc: usize,
    /// Return-address-stack depth.
    pub ras_entries: usize,
}

impl BranchPredictorConfig {
    /// Table 1's 8K/8K/8K hybrid, 8192×4-way BTB, 32-entry RAS.
    #[must_use]
    pub fn baseline() -> Self {
        BranchPredictorConfig {
            kind: PredictorKind::Hybrid,
            bimodal_entries: 8192,
            gshare_entries: 8192,
            meta_entries: 8192,
            btb_entries: 8192,
            btb_assoc: 4,
            ras_entries: 32,
        }
    }

    /// Checks the table sizes: power-of-two counter tables, a BTB
    /// associativity in `1..=128` dividing its entries into a
    /// power-of-two number of sets, and a nonempty RAS.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        for (name, n) in [
            ("bimodal_entries", self.bimodal_entries),
            ("gshare_entries", self.gshare_entries),
            ("meta_entries", self.meta_entries),
        ] {
            if !n.is_power_of_two() {
                return Err(format!("{name} {n} is not a power of two"));
            }
        }
        if !(1..=recency::MAX_ASSOC).contains(&self.btb_assoc) {
            return Err(format!(
                "btb_assoc {} outside 1..={}",
                self.btb_assoc,
                recency::MAX_ASSOC
            ));
        }
        let sets = self.btb_entries / self.btb_assoc;
        if !sets.is_power_of_two() || sets * self.btb_assoc != self.btb_entries {
            return Err(format!(
                "btb_entries {} is not a power-of-two number of {}-way sets",
                self.btb_entries, self.btb_assoc
            ));
        }
        if self.ras_entries == 0 {
            return Err("ras_entries must be nonzero".to_owned());
        }
        Ok(())
    }
}

/// A direction + target prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Predicted target, when one is available (BTB or RAS hit).
    pub target: Option<Pc>,
}

/// Counters for predictor accuracy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchPredictorStats {
    /// Predictions made.
    pub lookups: u64,
    /// Updates applied.
    pub updates: u64,
    /// BTB lookups that found a target.
    pub btb_hits: u64,
}

/// One BTB way. `key` is the tag plus one, so the all-zero way is
/// invalid (the PC's two alignment bits shifted off keep the tag below
/// `u64::MAX`).
#[derive(Debug, Clone, Copy, Default)]
struct BtbWay {
    key: u64,
    target: Pc,
}

/// The tournament predictor with BTB and RAS.
///
/// # Examples
///
/// ```
/// use vsv_isa::{BranchKind, Pc};
/// use vsv_uarch::{BranchPredictor, BranchPredictorConfig};
///
/// let mut bp = BranchPredictor::new(BranchPredictorConfig::baseline());
/// // Train a strongly-taken branch.
/// for _ in 0..4 {
///     bp.update(Pc(0x40), BranchKind::Conditional, true, Pc(0x100));
/// }
/// let p = bp.predict(Pc(0x40), BranchKind::Conditional);
/// assert!(p.taken);
/// assert_eq!(p.target, Some(Pc(0x100)));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BranchPredictorConfig,
    bimodal: Counters2,
    gshare: Counters2,
    /// Meta counter: high means "trust gshare".
    meta: Counters2,
    history: u64,
    // Flat BTB: `btb_assoc` consecutive ways per set, and beside it
    // each way's recency rank within its set (0 = most recent).
    btb: Vec<BtbWay>,
    btb_ranks: Vec<u8>,
    btb_sets: usize,
    ras: Vec<Pc>,
    stats: BranchPredictorStats,
}

impl BranchPredictor {
    /// Builds a predictor with all counters weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if the sizes fail [`BranchPredictorConfig::validate`].
    #[must_use]
    pub fn new(cfg: BranchPredictorConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let btb_sets = cfg.btb_entries / cfg.btb_assoc;
        BranchPredictor {
            bimodal: Counters2::new(cfg.bimodal_entries),
            gshare: Counters2::new(cfg.gshare_entries),
            meta: Counters2::new(cfg.meta_entries),
            history: 0,
            btb: vec![BtbWay::default(); cfg.btb_entries],
            btb_ranks: recency::fresh(cfg.btb_assoc, btb_sets),
            btb_sets,
            ras: Vec::with_capacity(cfg.ras_entries),
            stats: BranchPredictorStats::default(),
            cfg,
        }
    }

    /// The predictor configuration.
    #[must_use]
    pub fn config(&self) -> BranchPredictorConfig {
        self.cfg
    }

    /// Accuracy counters.
    #[must_use]
    pub fn stats(&self) -> BranchPredictorStats {
        self.stats
    }

    fn pc_index(pc: Pc, entries: usize) -> usize {
        ((pc.0 >> 2) as usize) & (entries - 1)
    }

    fn gshare_index(&self, pc: Pc) -> usize {
        (((pc.0 >> 2) ^ self.history) as usize) & (self.cfg.gshare_entries - 1)
    }

    /// Predicts the branch at `pc`. Calls (`BranchKind::Call`) push the
    /// fall-through PC on the RAS; returns pop it.
    pub fn predict(&mut self, pc: Pc, kind: BranchKind) -> Prediction {
        self.stats.lookups += 1;
        match kind {
            BranchKind::Conditional => {
                let b = self
                    .bimodal
                    .taken(Self::pc_index(pc, self.cfg.bimodal_entries));
                let g = self.gshare.taken(self.gshare_index(pc));
                let taken = match self.cfg.kind {
                    PredictorKind::Bimodal => b,
                    PredictorKind::Gshare => g,
                    PredictorKind::Hybrid => {
                        if self.meta.taken(Self::pc_index(pc, self.cfg.meta_entries)) {
                            g
                        } else {
                            b
                        }
                    }
                };
                let target = if taken { self.btb_lookup(pc) } else { None };
                Prediction { taken, target }
            }
            BranchKind::Jump => Prediction {
                taken: true,
                target: self.btb_lookup(pc),
            },
            BranchKind::Call => {
                let target = self.btb_lookup(pc);
                if self.ras.len() == self.cfg.ras_entries {
                    self.ras.remove(0);
                }
                self.ras.push(pc.next());
                Prediction {
                    taken: true,
                    target,
                }
            }
            BranchKind::Return => Prediction {
                taken: true,
                target: self.ras.pop(),
            },
        }
    }

    /// Trains the tables with the resolved outcome. `target` is the
    /// actual taken-target (used to fill the BTB for taken branches).
    pub fn update(&mut self, pc: Pc, kind: BranchKind, taken: bool, target: Pc) {
        self.stats.updates += 1;
        if kind == BranchKind::Conditional {
            let bi = Self::pc_index(pc, self.cfg.bimodal_entries);
            let gi = self.gshare_index(pc);
            let mi = Self::pc_index(pc, self.cfg.meta_entries);
            let b_correct = self.bimodal.taken(bi) == taken;
            let g_correct = self.gshare.taken(gi) == taken;
            // Meta trains toward whichever component was right.
            if b_correct != g_correct {
                self.meta.update(mi, g_correct);
            }
            self.bimodal.update(bi, taken);
            self.gshare.update(gi, taken);
            self.history = (self.history << 1) | u64::from(taken);
        }
        if taken && kind != BranchKind::Return {
            self.btb_fill(pc, target);
        }
    }

    /// The index range of `pc`'s BTB set in `btb` and `btb_ranks`,
    /// and its key.
    fn btb_index(&self, pc: Pc) -> (std::ops::Range<usize>, u64) {
        let set = ((pc.0 >> 2) as usize) & (self.btb_sets - 1);
        let key = (pc.0 >> 2 >> self.btb_sets.trailing_zeros()) + 1;
        let a = self.cfg.btb_assoc;
        (set * a..set * a + a, key)
    }

    fn btb_lookup(&mut self, pc: Pc) -> Option<Pc> {
        let (ways, key) = self.btb_index(pc);
        let way = self.btb[ways.clone()].iter().position(|l| l.key == key)?;
        self.stats.btb_hits += 1;
        let target = self.btb[ways.start + way].target;
        recency::promote(&mut self.btb_ranks[ways], way);
        Some(target)
    }

    fn btb_fill(&mut self, pc: Pc, target: Pc) {
        let (ways, key) = self.btb_index(pc);
        let set = &self.btb[ways.clone()];
        let way = set
            .iter()
            .position(|l| l.key == key)
            .or_else(|| set.iter().position(|l| l.key == 0))
            .unwrap_or_else(|| recency::least_recent(&self.btb_ranks[ways.clone()]));
        self.btb[ways.start + way] = BtbWay { key, target };
        recency::promote(&mut self.btb_ranks[ways], way);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_btb_way_is_16_bytes_and_a_rank_byte() {
        let p = bp();
        assert_eq!(std::mem::size_of::<BtbWay>(), 16);
        assert_eq!(std::mem::size_of_val(&p.btb[..]), 16 * 8192);
        assert_eq!(p.btb_ranks.len(), 8192);
        // Table 1's BTB is 136 KiB and its three counter tables 6 KiB.
        assert_eq!(17 * 8192, 136 * 1024);
        let counters = [&p.bimodal, &p.gshare, &p.meta].map(|t| t.0.len());
        assert_eq!(counters, [2048; 3]);
    }

    #[test]
    fn packed_counters_saturate_independently() {
        let mut t = Counters2::new(8);
        assert_eq!(t.0, [0x55, 0x55]);
        for _ in 0..5 {
            t.update(5, true);
        }
        t.update(6, false);
        t.update(6, false);
        assert!(t.taken(5) && !t.taken(4) && !t.taken(6));
        assert_eq!(t.0, [0x55, 0b0100_1101]);
        t.update(5, false);
        assert!(t.taken(5), "3 steps down to 2, still taken");
        t.update(5, false);
        assert!(!t.taken(5));
        assert_eq!(Counters2::new(1).0.len(), 1);
    }

    #[test]
    fn validate_names_each_malformed_size() {
        let ok = BranchPredictorConfig::baseline();
        assert_eq!(ok.validate(), Ok(()));
        let bad = |edit: fn(&mut BranchPredictorConfig), want: &str| {
            let mut c = ok;
            edit(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains(want), "{err}");
        };
        bad(|c| c.gshare_entries = 0, "gshare_entries 0");
        bad(|c| c.meta_entries = 6000, "meta_entries 6000");
        bad(|c| c.btb_assoc = 0, "btb_assoc 0 outside 1..=128");
        bad(|c| c.btb_assoc = 256, "btb_assoc 256");
        bad(|c| c.btb_entries = 1000, "btb_entries 1000");
        bad(|c| c.btb_entries = 0, "btb_entries 0");
        bad(|c| c.ras_entries = 0, "ras_entries");
    }

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BranchPredictorConfig::baseline())
    }

    #[test]
    fn learns_always_taken() {
        let mut p = bp();
        let pc = Pc(0x100);
        for _ in 0..4 {
            p.update(pc, BranchKind::Conditional, true, Pc(0x200));
        }
        let pred = p.predict(pc, BranchKind::Conditional);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(Pc(0x200)));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = bp();
        let pc = Pc(0x100);
        for _ in 0..4 {
            p.update(pc, BranchKind::Conditional, false, Pc(0x200));
        }
        let pred = p.predict(pc, BranchKind::Conditional);
        assert!(!pred.taken);
        assert_eq!(pred.target, None, "not-taken predictions carry no target");
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = bp();
        let pc = Pc(0x40);
        // Alternating T/N/T/N: bimodal dithers, gshare nails it.
        let mut correct = 0;
        for i in 0..200u32 {
            let actual = i % 2 == 0;
            let pred = p.predict(pc, BranchKind::Conditional);
            if pred.taken == actual {
                correct += 1;
            }
            p.update(pc, BranchKind::Conditional, actual, Pc(0x80));
        }
        assert!(
            correct > 150,
            "hybrid should learn alternation, got {correct}/200"
        );
    }

    #[test]
    fn ras_predicts_matching_return() {
        let mut p = bp();
        let call_pc = Pc(0x1000);
        let pred_call = p.predict(call_pc, BranchKind::Call);
        assert!(pred_call.taken);
        let pred_ret = p.predict(Pc(0x2000), BranchKind::Return);
        assert_eq!(pred_ret.target, Some(call_pc.next()));
        // Stack now empty: next return has no target.
        assert_eq!(p.predict(Pc(0x2000), BranchKind::Return).target, None);
    }

    #[test]
    fn ras_handles_nesting_and_overflow() {
        let mut p = bp();
        for i in 0..40u64 {
            p.predict(Pc(0x100 + 4 * i), BranchKind::Call);
        }
        // Depth capped at 32: the 8 oldest were dropped.
        let mut targets = Vec::new();
        for _ in 0..40 {
            targets.push(p.predict(Pc(0), BranchKind::Return).target);
        }
        let valid = targets.iter().filter(|t| t.is_some()).count();
        assert_eq!(valid, 32);
        // Returns come in LIFO order.
        assert_eq!(targets[0], Some(Pc(0x100 + 4 * 39).next()));
    }

    #[test]
    fn jumps_predict_taken_with_btb_target() {
        let mut p = bp();
        let pc = Pc(0x500);
        assert_eq!(p.predict(pc, BranchKind::Jump).target, None);
        p.update(pc, BranchKind::Jump, true, Pc(0x900));
        let pred = p.predict(pc, BranchKind::Jump);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(Pc(0x900)));
    }

    #[test]
    fn btb_replaces_lru_within_set() {
        let mut cfg = BranchPredictorConfig::baseline();
        cfg.btb_entries = 8;
        cfg.btb_assoc = 2;
        let mut p = BranchPredictor::new(cfg);
        // Three taken branches mapping to the same BTB set (4 sets).
        let a = Pc(0x00);
        let b = Pc(0x40);
        let c = Pc(0x80);
        p.update(a, BranchKind::Jump, true, Pc(0x1000));
        p.update(b, BranchKind::Jump, true, Pc(0x2000));
        let _ = p.predict(a, BranchKind::Jump); // refresh a
        p.update(c, BranchKind::Jump, true, Pc(0x3000)); // evicts b
        assert_eq!(p.predict(a, BranchKind::Jump).target, Some(Pc(0x1000)));
        assert_eq!(p.predict(b, BranchKind::Jump).target, None);
        assert_eq!(p.predict(c, BranchKind::Jump).target, Some(Pc(0x3000)));
    }

    #[test]
    fn stats_count() {
        let mut p = bp();
        p.update(Pc(0), BranchKind::Conditional, true, Pc(8));
        let _ = p.predict(Pc(0), BranchKind::Conditional);
        assert_eq!(p.stats().updates, 1);
        assert_eq!(p.stats().lookups, 1);
    }
}

#[cfg(test)]
mod kind_tests {
    use super::*;

    fn accuracy(kind: PredictorKind, outcomes: impl Iterator<Item = bool>) -> f64 {
        let mut cfg = BranchPredictorConfig::baseline();
        cfg.kind = kind;
        let mut p = BranchPredictor::new(cfg);
        let pc = Pc(0x40);
        let (mut total, mut right) = (0u64, 0u64);
        for (i, actual) in outcomes.enumerate() {
            let pred = p.predict(pc, BranchKind::Conditional);
            if i > 50 {
                total += 1;
                if pred.taken == actual {
                    right += 1;
                }
            }
            p.update(pc, BranchKind::Conditional, actual, Pc(0x80));
        }
        right as f64 / total as f64
    }

    #[test]
    fn gshare_beats_bimodal_on_alternation() {
        let alt = |n: usize| (0..n).map(|i| i % 2 == 0);
        let bimodal = accuracy(PredictorKind::Bimodal, alt(400));
        let gshare = accuracy(PredictorKind::Gshare, alt(400));
        let hybrid = accuracy(PredictorKind::Hybrid, alt(400));
        assert!(gshare > 0.95, "gshare learns alternation: {gshare}");
        assert!(bimodal < 0.7, "bimodal dithers on alternation: {bimodal}");
        assert!(hybrid > 0.9, "the chooser routes to gshare: {hybrid}");
    }

    #[test]
    fn all_kinds_learn_a_constant_direction() {
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::Hybrid,
        ] {
            let acc = accuracy(kind, (0..300).map(|_| true));
            assert!(acc > 0.98, "{kind:?}: {acc}");
        }
    }
}
