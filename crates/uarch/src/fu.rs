//! Functional-unit pools.

use vsv_isa::OpClass;

use crate::config::CoreConfig;

/// One pool of identical functional units.
///
/// ALU pools are fully pipelined (a unit accepts a new op every cycle);
/// mul/div pools are unpipelined (a unit is busy for the op's full
/// latency). A pipelined unit is busy only in the cycle it accepts an
/// op, so such a pool is just a count of the ops it accepted this
/// cycle. Issue cycles must not decrease from one call to the next.
#[derive(Debug, Clone)]
pub struct FuPool {
    units: usize,
    busy: Busy,
    issued: u64,
    structural_stalls: u64,
}

#[derive(Debug, Clone)]
enum Busy {
    /// Ops accepted in `cycle`; a unit is free while fewer than
    /// `units` were.
    Pipelined { cycle: u64, accepted: usize },
    /// Cycle at which each unit becomes free.
    Unpipelined { free_at: Vec<u64> },
}

impl FuPool {
    /// Creates a pool of `units` units.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    #[must_use]
    pub fn new(units: usize, pipelined: bool) -> Self {
        assert!(units > 0, "a functional-unit pool needs at least one unit");
        FuPool {
            units,
            busy: if pipelined {
                Busy::Pipelined {
                    cycle: 0,
                    accepted: 0,
                }
            } else {
                Busy::Unpipelined {
                    free_at: vec![0; units],
                }
            },
            issued: 0,
            structural_stalls: 0,
        }
    }

    /// Tries to start an op of `latency` cycles at `cycle`.
    /// Returns the completion cycle, or `None` if no unit is free
    /// (a structural hazard).
    pub fn try_issue(&mut self, cycle: u64, latency: u32) -> Option<u64> {
        let done = cycle + u64::from(latency.max(1));
        let free = match &mut self.busy {
            Busy::Pipelined {
                cycle: at,
                accepted,
            } => {
                debug_assert!(cycle >= *at, "issue cycles must not decrease");
                if *at != cycle {
                    *at = cycle;
                    *accepted = 0;
                }
                let free = *accepted < self.units;
                *accepted += usize::from(free);
                free
            }
            Busy::Unpipelined { free_at } => match free_at.iter_mut().find(|f| **f <= cycle) {
                Some(slot) => {
                    *slot = done;
                    true
                }
                None => false,
            },
        };
        if free {
            self.issued += 1;
            Some(done)
        } else {
            self.structural_stalls += 1;
            None
        }
    }

    /// Ops issued to this pool.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Issue attempts rejected for lack of a free unit.
    #[must_use]
    pub fn structural_stalls(&self) -> u64 {
        self.structural_stalls
    }

    /// Number of units in the pool.
    #[must_use]
    pub fn units(&self) -> usize {
        self.units
    }
}

/// The full set of pools from Table 1.
#[derive(Debug, Clone)]
pub struct FuSet {
    // By `POOL_*` index.
    pools: [FuPool; 4],
}

const POOL_INT_ALU: usize = 0;
const POOL_INT_MULDIV: usize = 1;
const POOL_FP_ALU: usize = 2;
const POOL_FP_MULDIV: usize = 3;
/// No pool: NOPs consume no unit.
const POOL_NONE: usize = 4;

/// The pool each op class executes on, by [`OpClass::index`]. Loads,
/// stores and prefetches use an integer ALU for address generation;
/// branches resolve on an integer ALU.
const POOL_OF: [usize; OpClass::ALL.len()] = {
    let mut t = [POOL_INT_ALU; OpClass::ALL.len()];
    t[OpClass::IntMulDiv as usize] = POOL_INT_MULDIV;
    t[OpClass::FpAlu as usize] = POOL_FP_ALU;
    t[OpClass::FpMulDiv as usize] = POOL_FP_MULDIV;
    t[OpClass::Nop as usize] = POOL_NONE;
    t
};

impl FuSet {
    /// Builds the pools described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if any pool size is zero.
    #[must_use]
    pub fn new(cfg: &CoreConfig) -> Self {
        FuSet {
            pools: [
                FuPool::new(cfg.int_alu_units, true),
                FuPool::new(cfg.int_muldiv_units, false),
                FuPool::new(cfg.fp_alu_units, true),
                FuPool::new(cfg.fp_muldiv_units, false),
            ],
        }
    }

    /// Integer ALUs (8, pipelined). Also execute branches, stores'
    /// address generation and software prefetches.
    #[must_use]
    pub fn int_alu(&self) -> &FuPool {
        &self.pools[POOL_INT_ALU]
    }

    /// Integer mul/div (2, unpipelined).
    #[must_use]
    pub fn int_muldiv(&self) -> &FuPool {
        &self.pools[POOL_INT_MULDIV]
    }

    /// FP ALUs (4, pipelined).
    #[must_use]
    pub fn fp_alu(&self) -> &FuPool {
        &self.pools[POOL_FP_ALU]
    }

    /// FP mul/div (4, unpipelined).
    #[must_use]
    pub fn fp_muldiv(&self) -> &FuPool {
        &self.pools[POOL_FP_MULDIV]
    }

    /// The pool an op class executes on. Loads/stores/prefetches use
    /// an integer ALU for address generation; branches resolve on an
    /// integer ALU; NOPs consume no unit (`None`).
    pub fn pool_for(&mut self, op: OpClass) -> Option<&mut FuPool> {
        self.pools.get_mut(POOL_OF[op.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_pool_accepts_back_to_back() {
        let mut p = FuPool::new(1, true);
        assert_eq!(p.try_issue(0, 3), Some(3));
        assert_eq!(p.try_issue(1, 3), Some(4), "pipelined: next cycle OK");
        assert_eq!(p.try_issue(1, 3), None, "but only one per cycle per unit");
        assert_eq!(p.structural_stalls(), 1);
        assert_eq!(p.try_issue(9, 3), Some(12), "a later cycle starts afresh");
        assert_eq!(p.issued(), 3);
    }

    #[test]
    fn pipelined_pool_takes_one_op_per_unit_per_cycle() {
        let mut p = FuPool::new(3, true);
        for cycle in [0, 1, 5] {
            for _ in 0..3 {
                assert_eq!(p.try_issue(cycle, 2), Some(cycle + 2));
            }
            assert_eq!(p.try_issue(cycle, 2), None);
        }
        assert_eq!((p.issued(), p.structural_stalls()), (9, 3));
    }

    #[test]
    fn unpipelined_pool_blocks_until_done() {
        let mut p = FuPool::new(1, false);
        assert_eq!(p.try_issue(0, 8), Some(8));
        assert_eq!(p.try_issue(4, 8), None);
        assert_eq!(p.structural_stalls(), 1);
        assert_eq!(p.try_issue(8, 8), Some(16));
    }

    #[test]
    fn multiple_units_issue_same_cycle() {
        let mut p = FuPool::new(2, false);
        assert!(p.try_issue(0, 8).is_some());
        assert!(p.try_issue(0, 8).is_some());
        assert!(p.try_issue(0, 8).is_none());
        assert_eq!(p.issued(), 2);
    }

    #[test]
    fn zero_latency_clamps_to_one() {
        let mut p = FuPool::new(1, true);
        assert_eq!(p.try_issue(5, 0), Some(6));
    }

    #[test]
    fn pool_routing() {
        let mut set = FuSet::new(&CoreConfig::baseline());
        assert_eq!(set.pool_for(OpClass::Load).unwrap().units(), 8);
        assert_eq!(set.pool_for(OpClass::IntMulDiv).unwrap().units(), 2);
        assert_eq!(set.pool_for(OpClass::FpAlu).unwrap().units(), 4);
        assert_eq!(set.pool_for(OpClass::FpMulDiv).unwrap().units(), 4);
        assert!(set.pool_for(OpClass::Nop).is_none());
        assert_eq!(set.pool_for(OpClass::Branch).unwrap().units(), 8);
        assert_eq!(set.pool_for(OpClass::Store).unwrap().units(), 8);
        assert_eq!(set.pool_for(OpClass::Prefetch).unwrap().units(), 8);
        assert_eq!(set.pool_for(OpClass::IntAlu).unwrap().units(), 8);
        set.pool_for(OpClass::FpMulDiv).unwrap().try_issue(0, 4);
        assert_eq!(set.fp_muldiv().issued(), 1);
        assert_eq!(set.int_alu().issued() + set.int_muldiv().issued(), 0);
        assert_eq!(set.fp_alu().issued(), 0);
    }
}
