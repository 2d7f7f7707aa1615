//! Calibrated parameter points for the 26 SPEC2K twins.
//!
//! Each twin targets the corresponding row of the paper's Table 2:
//! baseline IPC and L2 demand misses per 1000 instructions (MR), with
//! and without Time-Keeping prefetching. Absolute agreement is not the
//! goal (our substrate is synthetic); the twins preserve the *shape*:
//! which benchmarks are memory-bound, how much ILP surrounds their
//! misses, and whether Time-Keeping can learn their miss streams.
//!
//! The key axes per twin:
//! * `far rate` (mem × (1−store) × far_fraction) sets MR;
//! * `pattern` sets Time-Keeping learnability (streaming/permutation
//!   learnable, random not);
//! * `miss_dependency`/`chase_dependency`/`ilp_chains` set how much
//!   independent work overlaps a miss (the FSMs' decision axis);
//! * `sw_prefetch_coverage` models the peak-compiled binaries'
//!   software prefetching.

use crate::params::{AccessPattern, WorkloadParams};

/// Table 2 reference numbers for one benchmark (from the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Baseline IPC reported in Table 2.
    pub ipc_base: f64,
    /// Baseline L2 demand misses per 1000 instructions.
    pub mr_base: f64,
    /// MR with Time-Keeping prefetching.
    pub mr_tk: f64,
}

/// The paper's Table 2, verbatim.
#[must_use]
pub fn table2_reference() -> Vec<Table2Row> {
    let r = |name, ipc_base, mr_base, mr_tk| Table2Row {
        name,
        ipc_base,
        mr_base,
        mr_tk,
    };
    vec![
        r("ammp", 0.59, 11.0, 0.5),
        r("applu", 2.32, 10.1, 4.1),
        r("apsi", 2.51, 1.4, 0.7),
        r("art", 1.36, 10.3, 11.7),
        r("bzip2", 2.38, 0.5, 0.4),
        r("crafty", 2.68, 0.0, 0.0),
        r("eon", 3.13, 0.0, 0.0),
        r("equake", 4.51, 0.0, 0.0),
        r("facerec", 3.02, 4.7, 2.3),
        r("fma3d", 4.35, 0.0, 0.0),
        r("galgel", 2.21, 0.0, 0.0),
        r("gap", 3.00, 0.5, 0.3),
        r("gcc", 2.27, 0.1, 0.1),
        r("gzip", 2.31, 0.1, 0.1),
        r("lucas", 1.34, 10.2, 4.2),
        r("mcf", 0.29, 67.4, 48.2),
        r("mesa", 3.64, 0.3, 0.2),
        r("mgrid", 4.17, 1.5, 0.8),
        r("parser", 1.68, 0.6, 0.7),
        r("perlbmk", 1.41, 1.3, 0.6),
        r("sixtrack", 3.64, 0.0, 0.0),
        r("swim", 3.81, 5.8, 1.4),
        r("twolf", 1.42, 0.0, 0.0),
        r("vortex", 2.31, 0.2, 0.2),
        r("vpr", 1.25, 2.0, 2.1),
        r("wupwise", 4.58, 0.5, 0.4),
    ]
}

/// The parameter points for all 26 twins, in Table 2's alphabetical
/// order.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn spec2k_twins() -> Vec<WorkloadParams> {
    use AccessPattern::{PermutationChase, Random, Streaming};

    struct T {
        name: &'static str,
        ws_mb: u64,
        far: f64,
        pattern: AccessPattern,
        chase: f64,
        miss_dep: f64,
        ilp: usize,
        burst: usize,
        fp: f64,
        branch: f64,
        entropy: f64,
        cov: f64,
        code_kb: u64,
    }
    #[allow(clippy::too_many_arguments)]
    fn t(
        name: &'static str,
        ws_mb: u64,
        far: f64,
        pattern: AccessPattern,
        chase: f64,
        miss_dep: f64,
        ilp: usize,
        burst: usize,
        fp: f64,
        branch: f64,
        entropy: f64,
        cov: f64,
        code_kb: u64,
    ) -> T {
        T {
            name,
            ws_mb,
            far,
            pattern,
            chase,
            miss_dep,
            ilp,
            burst,
            fp,
            branch,
            entropy,
            cov,
            code_kb,
        }
    }

    // far = fraction of loads touching the working set; with
    // mem_fraction 0.3 and store_ratio 0.3, loads/inst ≈ 0.21, so
    // MR/1000 ≈ 0.21 × far × P(L2 miss) (halved for streaming by L2
    // spatial locality, reduced further by prefetch coverage).
    let rows = vec![
        //          ws    far     pattern           chase dep   ilp bst  fp    br    ent   cov  code
        t(
            "ammp", 32, 0.0524, Streaming, 0.95, 1.00, 1, 1, 0.30, 0.08, 0.02, 0.00, 8,
        ),
        t(
            "applu", 16, 0.100, Streaming, 0.00, 1.00, 8, 1, 0.60, 0.04, 0.01, 0.30, 16,
        ),
        t(
            "apsi", 16, 0.0074, Streaming, 0.00, 0.30, 3, 2, 0.50, 0.08, 0.02, 0.10, 16,
        ),
        t(
            "art", 24, 0.054, Random, 0.00, 1.00, 2, 2, 0.40, 0.08, 0.02, 0.00, 8,
        ),
        t(
            "bzip2", 16, 0.0024, Random, 0.00, 0.50, 2, 1, 0.00, 0.12, 0.05, 0.00, 16,
        ),
        t(
            "crafty", 1, 0.000, Random, 0.00, 0.50, 3, 1, 0.00, 0.14, 0.05, 0.00, 48,
        ),
        t(
            "eon", 1, 0.000, Random, 0.00, 0.30, 2, 1, 0.30, 0.10, 0.02, 0.00, 32,
        ),
        t(
            "equake", 1, 0.000, Streaming, 0.00, 0.10, 3, 1, 0.50, 0.05, 0.01, 0.00, 16,
        ),
        t(
            "facerec", 16, 0.030, Streaming, 0.00, 0.90, 8, 2, 0.50, 0.06, 0.01, 0.20, 16,
        ),
        t(
            "fma3d", 1, 0.000, Streaming, 0.00, 0.10, 5, 1, 0.60, 0.05, 0.01, 0.00, 32,
        ),
        t(
            "galgel", 1, 0.000, Streaming, 0.00, 0.30, 2, 1, 0.50, 0.08, 0.02, 0.00, 16,
        ),
        t(
            "gap", 8, 0.0024, Random, 0.00, 0.40, 3, 1, 0.00, 0.10, 0.02, 0.00, 16,
        ),
        t(
            "gcc", 8, 0.0005, Random, 0.00, 0.40, 2, 1, 0.00, 0.14, 0.04, 0.00, 48,
        ),
        t(
            "gzip", 8, 0.0005, Random, 0.00, 0.40, 2, 1, 0.00, 0.12, 0.03, 0.00, 8,
        ),
        t(
            "lucas", 16, 0.112, Streaming, 0.00, 1.00, 3, 1, 0.60, 0.04, 0.01, 0.30, 8,
        ),
        t(
            "mcf",
            64,
            0.361,
            PermutationChase,
            0.55,
            1.00,
            1,
            2,
            0.00,
            0.16,
            0.06,
            0.00,
            8,
        ),
        t(
            "mesa", 4, 0.0014, Random, 0.00, 0.30, 2, 1, 0.40, 0.08, 0.02, 0.00, 32,
        ),
        t(
            "mgrid", 16, 0.0143, Streaming, 0.00, 0.80, 8, 2, 0.70, 0.03, 0.01, 0.50, 8,
        ),
        t(
            "parser", 8, 0.0029, Random, 0.00, 0.60, 1, 1, 0.00, 0.14, 0.06, 0.00, 32,
        ),
        t(
            "perlbmk",
            8,
            0.0062,
            PermutationChase,
            0.20,
            0.60,
            1,
            1,
            0.00,
            0.13,
            0.05,
            0.00,
            48,
        ),
        t(
            "sixtrack", 1, 0.000, Streaming, 0.00, 0.20, 3, 1, 0.50, 0.06, 0.01, 0.00, 32,
        ),
        t(
            "swim", 16, 0.052, Streaming, 0.00, 0.90, 8, 2, 0.65, 0.03, 0.01, 0.40, 8,
        ),
        t(
            "twolf", 1, 0.000, Random, 0.00, 0.80, 1, 1, 0.10, 0.14, 0.06, 0.00, 16,
        ),
        t(
            "vortex", 8, 0.0010, Random, 0.00, 0.40, 2, 1, 0.00, 0.11, 0.02, 0.00, 48,
        ),
        t(
            "vpr", 16, 0.0095, Random, 0.00, 0.90, 1, 1, 0.10, 0.13, 0.05, 0.00, 16,
        ),
        t(
            "wupwise", 16, 0.0030, Streaming, 0.00, 0.10, 4, 4, 0.60, 0.04, 0.01, 0.20, 16,
        ),
    ];

    rows.into_iter()
        .enumerate()
        .map(|(i, r)| {
            let mut p = WorkloadParams::compute_bound(r.name);
            p.seed = 0x5EED_0000 + i as u64;
            p.working_set_bytes = r.ws_mb * 1024 * 1024;
            p.far_fraction = r.far;
            p.pattern = r.pattern;
            p.chase_dependency = r.chase;
            p.miss_dependency = r.miss_dep;
            p.ilp_chains = r.ilp;
            p.miss_burst = r.burst;
            p.fp_fraction = r.fp;
            p.branch_fraction = r.branch;
            p.branch_entropy = r.entropy;
            p.sw_prefetch_coverage = r.cov;
            // Timely prefetching needs the lead to exceed the ~124 ns
            // memory latency at the twin's IPC.
            p.sw_prefetch_distance = if r.cov > 0.0 { 400 } else { 64 };
            p.code_footprint_bytes = r.code_kb * 1024;
            p
        })
        .collect()
}

/// Looks up one twin by benchmark name.
///
/// # Examples
///
/// ```
/// use vsv_workloads::twin;
///
/// let mcf = twin("mcf").expect("mcf is in the suite");
/// assert!(mcf.chase_dependency > 0.5, "mcf is a pointer chaser");
/// assert!(twin("doom").is_none());
/// ```
#[must_use]
pub fn twin(name: &str) -> Option<WorkloadParams> {
    spec2k_twins().into_iter().find(|p| p.name == name)
}

/// The benchmarks the paper classifies as high-MR (> 4 L2 demand
/// misses per 1000 instructions, Table 2 base column).
#[must_use]
pub fn high_mr_names() -> Vec<&'static str> {
    table2_reference()
        .into_iter()
        .filter(|r| r.mr_base > 4.0)
        .map(|r| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_26_valid_twins() {
        let twins = spec2k_twins();
        assert_eq!(twins.len(), 26);
        for t in &twins {
            t.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", t.name));
        }
    }

    #[test]
    fn names_match_table2_rows() {
        let twins = spec2k_twins();
        let refs = table2_reference();
        assert_eq!(twins.len(), refs.len());
        for (t, r) in twins.iter().zip(&refs) {
            assert_eq!(t.name, r.name);
        }
    }

    #[test]
    fn high_mr_set_matches_paper() {
        // Figure 4's left section: MR > 4.
        let names = high_mr_names();
        assert_eq!(
            names,
            vec!["ammp", "applu", "art", "facerec", "lucas", "mcf", "swim"]
        );
    }

    #[test]
    fn twin_lookup() {
        assert!(twin("swim").is_some());
        assert!(twin("nonexistent").is_none());
    }

    #[test]
    fn memory_bound_twins_have_bigger_far_rates_than_compute_twins() {
        let far_rate = |n: &str| {
            let p = twin(n).unwrap();
            p.mem_fraction * (1.0 - p.store_ratio) * p.far_fraction
        };
        assert!(far_rate("mcf") > far_rate("ammp"));
        assert!(far_rate("ammp") > far_rate("gcc"));
        assert!(far_rate("gcc") >= far_rate("crafty"));
    }

    #[test]
    fn seeds_are_unique() {
        let twins = spec2k_twins();
        let mut seeds: Vec<u64> = twins.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), twins.len());
    }
}
