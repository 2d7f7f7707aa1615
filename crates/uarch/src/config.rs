//! Core configuration (Table 1 of the paper).

/// Execution latencies per op class, in pipeline cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLatencies {
    /// Integer ALU (single cycle).
    pub int_alu: u32,
    /// Integer multiply/divide (blended; unpipelined).
    pub int_muldiv: u32,
    /// FP add/compare/convert (pipelined).
    pub fp_alu: u32,
    /// FP multiply/divide (blended; unpipelined).
    pub fp_muldiv: u32,
    /// Branch resolution latency.
    pub branch: u32,
}

impl OpLatencies {
    /// SimpleScalar-flavoured defaults for a 1 GHz 0.18 µm core.
    #[must_use]
    pub fn baseline() -> Self {
        OpLatencies {
            int_alu: 1,
            int_muldiv: 8,
            fp_alu: 2,
            fp_muldiv: 12,
            branch: 1,
        }
    }
}

/// Configuration of the out-of-order core.
///
/// Defaults ([`CoreConfig::baseline`]) reproduce Table 1: an 8-way
/// issue core with a 128-entry RUU, 64-entry LSQ, 8 integer ALUs, 2
/// integer mul/div units, 4 FP ALUs, 4 FP mul/div units, and an
/// 8-cycle branch-misprediction penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub decode_width: usize,
    /// Instructions issued to functional units per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Register-update-unit (instruction window + ROB) entries.
    pub ruu_entries: usize,
    /// Load/store-queue entries.
    pub lsq_entries: usize,
    /// Fetch-queue entries decoupling fetch from dispatch.
    pub fetch_queue: usize,
    /// Integer ALU count.
    pub int_alu_units: usize,
    /// Integer multiplier/divider count.
    pub int_muldiv_units: usize,
    /// FP ALU count.
    pub fp_alu_units: usize,
    /// FP multiplier/divider count.
    pub fp_muldiv_units: usize,
    /// Branch-misprediction penalty in cycles (fetch-redirect bubble
    /// charged after the mispredicted branch resolves).
    pub mispredict_penalty: u32,
    /// L1 hit latency in *pipeline* cycles (the L1s are clocked with
    /// the pipeline; §4.3).
    pub l1_hit_latency: u32,
    /// Prefetch-buffer hit latency in pipeline cycles.
    pub pb_hit_latency: u32,
    /// Memory-disambiguation policy: `false` (default, the paper's
    /// aggressive baseline) lets loads issue past older stores to
    /// other blocks; `true` makes loads wait for every older store to
    /// leave the window — the conservative in-order-memory model, as
    /// an ablation axis.
    pub conservative_mem_disambiguation: bool,
    /// Execution latencies.
    pub latencies: OpLatencies,
    /// Branch predictor organisation (Table 1's hybrid by default).
    pub bpred: crate::bpred::BranchPredictorConfig,
}

impl CoreConfig {
    /// The paper's Table 1 core.
    #[must_use]
    pub fn baseline() -> Self {
        CoreConfig {
            fetch_width: 8,
            decode_width: 8,
            issue_width: 8,
            commit_width: 8,
            ruu_entries: 128,
            lsq_entries: 64,
            fetch_queue: 16,
            int_alu_units: 8,
            int_muldiv_units: 2,
            fp_alu_units: 4,
            fp_muldiv_units: 4,
            mispredict_penalty: 8,
            l1_hit_latency: 2,
            pb_hit_latency: 2,
            conservative_mem_disambiguation: false,
            latencies: OpLatencies::baseline(),
            bpred: crate::bpred::BranchPredictorConfig::baseline(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency
    /// found (zero widths, empty structures or malformed predictor
    /// tables).
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("fetch_width", self.fetch_width),
            ("decode_width", self.decode_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("ruu_entries", self.ruu_entries),
            ("lsq_entries", self.lsq_entries),
            ("fetch_queue", self.fetch_queue),
            ("int_alu_units", self.int_alu_units),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(format!("{name} must be nonzero"));
            }
        }
        if self.lsq_entries > self.ruu_entries {
            return Err("lsq_entries cannot exceed ruu_entries".to_owned());
        }
        self.bpred.validate().map_err(|e| format!("bpred: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let c = CoreConfig::baseline();
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.ruu_entries, 128);
        assert_eq!(c.lsq_entries, 64);
        assert_eq!(c.int_alu_units, 8);
        assert_eq!(c.int_muldiv_units, 2);
        assert_eq!(c.fp_alu_units, 4);
        assert_eq!(c.fp_muldiv_units, 4);
        assert_eq!(c.mispredict_penalty, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_widths() {
        let mut c = CoreConfig::baseline();
        c.issue_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_lsq_bigger_than_ruu() {
        let mut c = CoreConfig::baseline();
        c.lsq_entries = c.ruu_entries + 1;
        assert!(c.validate().is_err());
    }
}
