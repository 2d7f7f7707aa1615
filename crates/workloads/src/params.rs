//! Workload-twin parameter space.

/// The largest accepted [`WorkloadParams::code_footprint_bytes`]. The
/// SPEC2K twins' footprints are tens of KB.
pub const MAX_CODE_FOOTPRINT_BYTES: u64 = 4 << 20;

/// How a twin's far (working-set) loads choose their addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Sequential 32-byte-block walk over the working set: maximal
    /// spatial locality, perfectly learnable by Time-Keeping's per-set
    /// traces (the applu/swim/mgrid flavour).
    Streaming,
    /// A fixed pseudo-random permutation cycle over blocks: no spatial
    /// locality, but the successor of every block is stable across
    /// laps, so dead-block prediction can partially learn it (the
    /// mcf/ammp pointer-chasing flavour).
    PermutationChase,
    /// Fresh uniform-random blocks every time: neither spatial
    /// locality nor a learnable successor (the art flavour, where
    /// Time-Keeping does not help).
    Random,
    /// A constant-stride walk of `blocks` L1 blocks per step (column
    /// sweeps over row-major matrices): no L2 spatial locality when
    /// the stride clears the L2 block, but perfectly learnable by
    /// stride prefetching.
    Strided {
        /// Stride between consecutive far accesses, in 32-byte blocks.
        blocks: u64,
    },
}

/// Generator parameters for one synthetic SPEC2K twin.
///
/// The fields are the axes VSV's behaviour actually depends on: how
/// often the working set is touched (→ L2 MPKI), how serialised those
/// touches are and whether their results feed the critical chains
/// (→ ILP around misses), prefetch coverage (→ demand-miss removal),
/// and branch predictability (→ front-end bubbles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Twin name (matches the SPEC2K benchmark it mimics). Static so
    /// parameter tables stay allocation-free.
    pub name: &'static str,
    /// PRNG seed; fixed per twin for reproducibility.
    pub seed: u64,
    /// Bytes of data touched by far loads. Working sets far beyond the
    /// 2 MB L2 make nearly every far access an L2 miss.
    pub working_set_bytes: u64,
    /// Bytes of the hot data set (L1-resident after warm-up).
    pub hot_set_bytes: u64,
    /// Loads + stores per instruction.
    pub mem_fraction: f64,
    /// Of memory ops, the fraction that are stores (stores go to the
    /// hot set).
    pub store_ratio: f64,
    /// Of loads, the fraction that touch the working set.
    pub far_fraction: f64,
    /// How far loads pick addresses.
    pub pattern: AccessPattern,
    /// Of far loads, the fraction whose address depends on the
    /// previous far load's value (true pointer chasing: serialises
    /// misses).
    pub chase_dependency: f64,
    /// Of far loads, the fraction whose *result* feeds the main
    /// compute chains (1.0 = every miss stalls the program; 0.0 =
    /// misses are pure bandwidth).
    pub miss_dependency: f64,
    /// Number of independent compute dependence chains (the twin's
    /// intrinsic ILP; 8 saturates the 8-wide core).
    pub ilp_chains: usize,
    /// Far loads arrive in clusters of about this many (1 = evenly
    /// spread). Clustered misses overlap in the MSHRs (high MLP), as
    /// in array-sweep FP codes; spread misses serialise against the
    /// 128-entry window.
    pub miss_burst: usize,
    /// Of compute ops, the fraction that are floating point.
    pub fp_fraction: f64,
    /// Of compute ops, the fraction that are long-latency mul/div.
    pub muldiv_fraction: f64,
    /// Branches per instruction.
    pub branch_fraction: f64,
    /// Probability that a conditional branch's direction is random
    /// (unpredictable); the rest follow a fixed, learnable bias.
    pub branch_entropy: f64,
    /// Static code footprint in bytes (loops back to PC 0 at the end).
    pub code_footprint_bytes: u64,
    /// Fraction of far loads that are covered by a timely software
    /// prefetch (SPEC peak binaries include software prefetching, §5).
    pub sw_prefetch_coverage: f64,
    /// Instructions of lead the software prefetch gets.
    pub sw_prefetch_distance: usize,
}

impl WorkloadParams {
    /// A neutral, compute-bound starting point: modest ILP, small
    /// working set, predictable branches. Used as the base for the
    /// per-benchmark tables and for custom workloads.
    #[must_use]
    pub fn compute_bound(name: &'static str) -> Self {
        WorkloadParams {
            name,
            seed: 0xC0FFEE,
            working_set_bytes: 512 * 1024,
            hot_set_bytes: 16 * 1024,
            mem_fraction: 0.30,
            store_ratio: 0.30,
            far_fraction: 0.02,
            pattern: AccessPattern::Streaming,
            chase_dependency: 0.0,
            miss_dependency: 0.3,
            ilp_chains: 4,
            miss_burst: 1,
            fp_fraction: 0.0,
            muldiv_fraction: 0.02,
            branch_fraction: 0.12,
            branch_entropy: 0.04,
            code_footprint_bytes: 8 * 1024,
            sw_prefetch_coverage: 0.0,
            sw_prefetch_distance: 64,
        }
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let fractions = [
            ("mem_fraction", self.mem_fraction),
            ("store_ratio", self.store_ratio),
            ("far_fraction", self.far_fraction),
            ("chase_dependency", self.chase_dependency),
            ("miss_dependency", self.miss_dependency),
            ("fp_fraction", self.fp_fraction),
            ("muldiv_fraction", self.muldiv_fraction),
            ("branch_fraction", self.branch_fraction),
            ("branch_entropy", self.branch_entropy),
            ("sw_prefetch_coverage", self.sw_prefetch_coverage),
        ];
        for (name, v) in fractions {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if self.mem_fraction + self.branch_fraction > 0.9 {
            return Err("mem + branch fractions leave no room for compute".into());
        }
        if self.ilp_chains == 0 || self.ilp_chains > 8 {
            return Err("ilp_chains must be in 1..=8".into());
        }
        if self.miss_burst == 0 || self.miss_burst > 64 {
            return Err("miss_burst must be in 1..=64".into());
        }
        if self.working_set_bytes < 4096 || self.hot_set_bytes < 1024 {
            return Err("working/hot sets too small".into());
        }
        if self.code_footprint_bytes < 256 {
            return Err("code footprint too small".into());
        }
        // The generator keeps one flag byte per 4-byte instruction slot.
        if self.code_footprint_bytes > MAX_CODE_FOOTPRINT_BYTES
            || !self.code_footprint_bytes.is_multiple_of(4)
        {
            return Err(format!(
                "code footprint must be a multiple of 4 bytes and at most {} MiB",
                MAX_CODE_FOOTPRINT_BYTES >> 20
            ));
        }
        if self.sw_prefetch_distance == 0 || self.sw_prefetch_distance > 4096 {
            return Err("sw_prefetch_distance must be in 1..=4096".into());
        }
        if let AccessPattern::Strided { blocks } = self.pattern {
            if blocks == 0 {
                return Err("stride must be nonzero".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_bound_is_valid() {
        assert!(WorkloadParams::compute_bound("test").validate().is_ok());
    }

    #[test]
    fn rejects_out_of_range_fraction() {
        let mut p = WorkloadParams::compute_bound("bad");
        p.far_fraction = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_zero_chains() {
        let mut p = WorkloadParams::compute_bound("bad");
        p.ilp_chains = 0;
        assert!(p.validate().is_err());
        p.ilp_chains = 9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_zero_stride() {
        let mut p = WorkloadParams::compute_bound("bad");
        p.pattern = AccessPattern::Strided { blocks: 0 };
        assert!(p.validate().is_err());
        p.pattern = AccessPattern::Strided { blocks: 4 };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rejects_unaligned_or_huge_code_footprint() {
        let mut p = WorkloadParams::compute_bound("bad");
        p.code_footprint_bytes = 8 * 1024 + 2;
        assert!(p.validate().is_err());
        p.code_footprint_bytes = MAX_CODE_FOOTPRINT_BYTES + 4;
        assert!(p.validate().is_err());
        p.code_footprint_bytes = MAX_CODE_FOOTPRINT_BYTES;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rejects_overfull_mix() {
        let mut p = WorkloadParams::compute_bound("bad");
        p.mem_fraction = 0.6;
        p.branch_fraction = 0.5;
        assert!(p.validate().is_err());
    }
}
