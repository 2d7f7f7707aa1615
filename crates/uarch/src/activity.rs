//! Per-cycle activity vectors consumed by the power model.

/// Structure-access counts for one pipeline cycle.
///
/// The power model (`vsv-power`) multiplies these by per-access
/// energies, applies clock gating to idle structures, and scales
/// variable-VDD structures by the square of the instantaneous supply
/// voltage (paper §5.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Instructions fetched into the fetch queue.
    pub fetched: u32,
    /// Instructions renamed/dispatched into the RUU.
    pub dispatched: u32,
    /// Instructions issued to functional units.
    pub issued: u32,
    /// Instructions committed.
    pub committed: u32,
    /// I-L1 block accesses.
    pub il1_accesses: u32,
    /// D-L1 accesses (loads at issue, stores at commit, prefetches).
    pub dl1_accesses: u32,
    /// Branch-predictor lookups plus updates.
    pub bpred_accesses: u32,
    /// Architectural register-file reads (operand fetch at issue).
    pub regfile_reads: u32,
    /// Architectural register-file writes (at writeback).
    pub regfile_writes: u32,
    /// RUU writes (dispatch).
    pub ruu_writes: u32,
    /// RUU reads (issue selection).
    pub ruu_reads: u32,
    /// RUU wakeup-port broadcasts (consumers woken at writeback).
    pub ruu_wakeups: u32,
    /// LSQ associative searches and inserts.
    pub lsq_accesses: u32,
    /// Integer-ALU operations (includes address generation, branches).
    pub int_alu_ops: u32,
    /// Integer multiply/divide operations.
    pub int_muldiv_ops: u32,
    /// FP-ALU operations.
    pub fp_alu_ops: u32,
    /// FP multiply/divide operations.
    pub fp_muldiv_ops: u32,
    /// Result-bus transfers (writebacks).
    pub resultbus_ops: u32,
}

impl CycleActivity {
    /// Sums every counter — a crude "how busy was this cycle" figure
    /// used by tests and debugging output.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        let fields = [
            self.fetched,
            self.dispatched,
            self.issued,
            self.committed,
            self.il1_accesses,
            self.dl1_accesses,
            self.bpred_accesses,
            self.regfile_reads,
            self.regfile_writes,
            self.ruu_writes,
            self.ruu_reads,
            self.ruu_wakeups,
            self.lsq_accesses,
            self.int_alu_ops,
            self.int_muldiv_ops,
            self.fp_alu_ops,
            self.fp_muldiv_ops,
            self.resultbus_ops,
        ];
        fields.iter().map(|&f| u64::from(f)).sum()
    }
}

/// Histogram of instructions issued per cycle (0..=8 for the Table 1
/// core). This is exactly the statistic VSV's FSMs sample: bucket 0 is
/// the zero-issue evidence the down-FSM looks for, and the upper
/// buckets are the ILP the up-FSM looks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IssueHistogram {
    /// `buckets[n]` counts cycles that issued exactly `n` instructions;
    /// `buckets[8]` also absorbs anything wider.
    pub buckets: [u64; 9],
}

impl IssueHistogram {
    /// Records one cycle's issue count.
    pub fn record(&mut self, issued: u32) {
        let i = (issued as usize).min(self.buckets.len() - 1);
        self.buckets[i] += 1;
    }

    /// Total cycles recorded.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of cycles issuing exactly `n`, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is outside the histogram (n > 8).
    #[must_use]
    pub fn fraction(&self, n: usize) -> f64 {
        let total = self.cycles();
        if total == 0 {
            0.0
        } else {
            self.buckets[n] as f64 / total as f64
        }
    }

    /// Mean issue rate over the recorded cycles.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let total = self.cycles();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(n, c)| n as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Whole-run counters maintained by the core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Pipeline cycles executed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched.
    pub fetched: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Branches committed.
    pub branches: u64,
    /// Mispredicted branches committed.
    pub mispredicts: u64,
    /// Software prefetches committed.
    pub sw_prefetches: u64,
    /// Cycles in which no instruction issued.
    pub zero_issue_cycles: u64,
    /// Issue attempts blocked by a full MSHR.
    pub mshr_blocked_issues: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Instructions issued per cycle, bucketed.
    pub issue_histogram: IssueHistogram,
}

impl CoreStats {
    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Branch misprediction rate in `[0, 1]`.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_accesses_sums_fields() {
        let mut a = CycleActivity::default();
        assert_eq!(a.total_accesses(), 0);
        a.fetched = 2;
        a.int_alu_ops = 3;
        assert_eq!(a.total_accesses(), 5);
    }

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        let s = CoreStats {
            cycles: 100,
            committed: 250,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn issue_histogram_records_and_summarises() {
        let mut h = IssueHistogram::default();
        h.record(0);
        h.record(0);
        h.record(4);
        h.record(12); // clamps into the top bucket
        assert_eq!(h.cycles(), 4);
        assert!((h.fraction(0) - 0.5).abs() < 1e-12);
        assert_eq!(h.buckets[8], 1);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(IssueHistogram::default().mean(), 0.0);
    }

    #[test]
    fn mispredict_rate() {
        let s = CoreStats {
            branches: 10,
            mispredicts: 3,
            ..CoreStats::default()
        };
        assert!((s.mispredict_rate() - 0.3).abs() < 1e-12);
        assert_eq!(CoreStats::default().mispredict_rate(), 0.0);
    }
}
