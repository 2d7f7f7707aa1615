//! Split-transaction, pipelined memory bus.
//!
//! Table 1: "32-byte wide, pipelined, split transaction, 4-cycle
//! occupancy". Requests (address beats) and responses (data beats)
//! arbitrate for the same bus; each 32-byte beat occupies it for 4 ns.
//! Split transactions mean the bus is free between a request beat and
//! its response beats — the DRAM latency does not hold the bus.

/// Bus geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Width of one beat in bytes.
    pub width_bytes: u64,
    /// Bus occupancy per beat, in nanoseconds.
    pub occupancy_ns: u64,
}

impl BusConfig {
    /// The paper's 32-byte, 4-cycle-occupancy bus at 1 GHz.
    #[must_use]
    pub fn baseline() -> Self {
        BusConfig {
            width_bytes: 32,
            occupancy_ns: 4,
        }
    }
}

/// A FIFO-arbitrated split-transaction bus.
///
/// Transactions are scheduled with [`Bus::schedule`], which returns the
/// interval the bus is held; back-to-back transactions queue behind one
/// another (the "pipelined" property means a multi-beat transfer
/// streams continuously at one beat per occupancy window).
///
/// # Examples
///
/// ```
/// use vsv_mem::{Bus, BusConfig};
///
/// let mut bus = Bus::new(BusConfig::baseline());
/// let (s1, e1) = bus.schedule(0, 32);  // one beat: 4 ns
/// assert_eq!((s1, e1), (0, 4));
/// let (s2, e2) = bus.schedule(0, 64);  // queues behind, two beats
/// assert_eq!((s2, e2), (4, 12));
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    cfg: BusConfig,
    free_at: u64,
    busy_ns: u64,
}

impl Bus {
    /// Creates an idle bus.
    ///
    /// # Panics
    ///
    /// Panics if the width or occupancy is zero.
    #[must_use]
    pub fn new(cfg: BusConfig) -> Self {
        assert!(cfg.width_bytes > 0, "bus width must be nonzero");
        assert!(cfg.occupancy_ns > 0, "bus occupancy must be nonzero");
        Bus {
            cfg,
            free_at: 0,
            busy_ns: 0,
        }
    }

    /// The bus configuration.
    #[must_use]
    pub fn config(&self) -> BusConfig {
        self.cfg
    }

    /// Reserves the bus for a `bytes`-sized transfer requested at time
    /// `now` (ns). Returns `(start, end)`: the transfer holds the bus
    /// for `[start, end)` and the payload is fully delivered at `end`.
    ///
    /// A zero-byte transfer (pure address/command beat) still takes one
    /// beat.
    pub fn schedule(&mut self, now: u64, bytes: u64) -> (u64, u64) {
        let beats = (bytes.max(1)).div_ceil(self.cfg.width_bytes).max(1);
        let duration = beats * self.cfg.occupancy_ns;
        let start = now.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy_ns += duration;
        (start, end)
    }

    /// Earliest time a new transaction could start.
    #[must_use]
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Total nanoseconds of bus occupancy scheduled.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Utilisation over `elapsed_ns` of wall-clock, in `[0, 1]`
    /// (may exceed 1 transiently if work is queued past `elapsed_ns`).
    #[must_use]
    pub fn utilisation(&self, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / elapsed_ns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_beat_cmd() {
        let mut bus = Bus::new(BusConfig::baseline());
        assert_eq!(bus.schedule(10, 0), (10, 14));
    }

    #[test]
    fn multi_beat_transfer_streams() {
        let mut bus = Bus::new(BusConfig::baseline());
        // 64B over a 32B bus = 2 beats = 8 ns.
        assert_eq!(bus.schedule(0, 64), (0, 8));
    }

    #[test]
    fn fifo_arbitration_queues() {
        let mut bus = Bus::new(BusConfig::baseline());
        bus.schedule(0, 32);
        let (s, e) = bus.schedule(1, 32);
        assert_eq!((s, e), (4, 8));
        // Idle gap: a late arrival starts immediately.
        let (s, e) = bus.schedule(100, 32);
        assert_eq!((s, e), (100, 104));
    }

    #[test]
    fn split_transactions_do_not_hold_bus_through_memory() {
        let mut bus = Bus::new(BusConfig::baseline());
        let (_, req_end) = bus.schedule(0, 0); // request beat
        assert_eq!(req_end, 4);
        // Another requester can use the bus while DRAM is busy.
        let (s, _) = bus.schedule(4, 0);
        assert_eq!(s, 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = Bus::new(BusConfig::baseline());
        bus.schedule(0, 64);
        bus.schedule(0, 32);
        assert_eq!(bus.busy_ns(), 12);
        assert!((bus.utilisation(24) - 0.5).abs() < 1e-12);
        assert_eq!(bus.utilisation(0), 0.0);
    }

    #[test]
    fn odd_sizes_round_up_to_beats() {
        let mut bus = Bus::new(BusConfig::baseline());
        assert_eq!(bus.schedule(0, 33), (0, 8));
        assert_eq!(bus.schedule(8, 1), (8, 12));
    }
}
