//! Main memory: infinite capacity, fixed latency (Table 1).

/// Main-memory timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Access latency in nanoseconds (address-in to data-ready).
    pub latency_ns: u64,
    /// Number of independent banks; accesses beyond this many
    /// concurrently in flight serialise. `0` means unlimited.
    pub banks: usize,
}

impl DramConfig {
    /// The paper's infinite-capacity, 100-cycle (100 ns at 1 GHz)
    /// memory with no bank conflicts modeled.
    #[must_use]
    pub fn baseline() -> Self {
        DramConfig {
            latency_ns: 100,
            banks: 0,
        }
    }
}

/// A fixed-latency main-memory model.
///
/// With `banks == 0` (the paper's configuration) every access completes
/// `latency_ns` after it starts, with unlimited concurrency. With a
/// finite bank count, at most `banks` accesses overlap; excess accesses
/// queue FIFO. The bank-conflict mode exists for sensitivity studies.
///
/// # Examples
///
/// ```
/// use vsv_mem::{Dram, DramConfig};
///
/// let mut dram = Dram::new(DramConfig::baseline());
/// assert_eq!(dram.access(5), 105);
/// assert_eq!(dram.access(5), 105); // unlimited concurrency
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    bank_free: Vec<u64>,
    accesses: u64,
}

impl Dram {
    /// Creates an idle memory.
    ///
    /// # Panics
    ///
    /// Panics if `latency_ns` is zero.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.latency_ns > 0, "DRAM latency must be nonzero");
        Dram {
            cfg,
            bank_free: vec![0; cfg.banks],
            accesses: 0,
        }
    }

    /// The memory configuration.
    #[must_use]
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Starts an access at time `start` (ns) and returns its completion
    /// time.
    pub fn access(&mut self, start: u64) -> u64 {
        self.accesses += 1;
        if self.bank_free.is_empty() {
            return start + self.cfg.latency_ns;
        }
        // Assign to the earliest-free bank (idealised open scheduling).
        let bank = self.bank_free.iter_mut().min().expect("banks is nonempty");
        let begin = start.max(*bank);
        let done = begin + self.cfg.latency_ns;
        *bank = done;
        done
    }

    /// Number of accesses served.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_concurrency_when_bankless() {
        let mut d = Dram::new(DramConfig::baseline());
        for _ in 0..10 {
            assert_eq!(d.access(0), 100);
        }
        assert_eq!(d.accesses(), 10);
    }

    #[test]
    fn banked_mode_serialises_excess() {
        let mut d = Dram::new(DramConfig {
            latency_ns: 100,
            banks: 2,
        });
        assert_eq!(d.access(0), 100);
        assert_eq!(d.access(0), 100);
        assert_eq!(d.access(0), 200, "third access waits for a bank");
        assert_eq!(d.access(250), 350, "idle banks serve immediately");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_latency_panics() {
        let _ = Dram::new(DramConfig {
            latency_ns: 0,
            banks: 0,
        });
    }
}
