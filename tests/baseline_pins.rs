//! Pins the cells whose supply never leaves VDDH: `disabled` and
//! `always-high`, on one core and on a 2-core chip with service
//! traffic and low-voltage read errors.
//!
//! Such a cell runs at VDDH through warm-up and measurement alike, so
//! its bytes do not depend on which controller drives the warm-up.
//! Each pin is the FNV-1a digest of the cell's [`RunResult`] (its
//! `Debug` form prints every float exactly), of its window
//! [`MetricsRegistry`], and of its events-level JSONL trace, all taken
//! through [`Experiment::try_run_traced`]. A change to how warm-up,
//! the measurement anchor or the fork of a warmed machine works must
//! leave every value here untouched.

use vsv::{Experiment, PolicySpec, SystemConfig, TraceLevel};
use vsv_workloads::{twin, TrafficSpec};

fn experiment(cores: usize) -> Experiment {
    if cores == 1 {
        Experiment {
            warmup_instructions: 10_000,
            instructions: 30_000,
        }
    } else {
        Experiment {
            warmup_instructions: 5_000,
            instructions: 15_000,
        }
    }
}

/// FNV-1a, the digest the sweep-report golden uses.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cell's configuration: `policy` (`None` is `disabled`), alone
/// on one core, or on a 2-core chip with MMPP traffic and read errors.
fn config(policy: Option<PolicySpec>, cores: usize) -> SystemConfig {
    let cfg = policy.map_or_else(SystemConfig::baseline, SystemConfig::with_policy);
    if cores == 1 {
        return cfg;
    }
    cfg.with_cores(cores)
        .with_error_rate(0.005)
        .with_error_seed(11)
        .with_traffic(Some(
            TrafficSpec::mmpp(0.01, 0.05, 30_000, 10_000, 1_000).with_seed(11),
        ))
}

/// `[result, metrics, trace]` digests of one cell.
fn observe(name: &str, policy: Option<PolicySpec>, cores: usize) -> [u64; 3] {
    let params = twin(name).expect("twin exists");
    let (result, metrics, trace) = experiment(cores)
        .try_run_traced(&params, config(policy, cores), TraceLevel::Events, None)
        .expect("cell runs");
    assert!(!trace.is_empty(), "{name}: empty trace");
    [
        fnv(format!("{result:?}").as_bytes()),
        fnv(format!("{metrics:?}").as_bytes()),
        fnv(&trace),
    ]
}

/// (twin, policy, cores, pinned `[result, metrics, trace]`).
#[rustfmt::skip]
const PINS: [(&str, Option<PolicySpec>, usize, [u64; 3]); 8] = [
    ("mcf", None, 1, [0xb538a13c5858d177, 0x54c10ed60a2c81d0, 0x7f86b1b1695694f5]),
    ("mcf", Some(PolicySpec::AlwaysHigh), 1, [0xb538a13c5858d177, 0x54c10ed60a2c81d0, 0x7f86b1b1695694f5]),
    ("gzip", None, 1, [0x1721a68acb7d2b06, 0x1f21bd5fc7873db1, 0x68b5a37dea2ff7fd]),
    ("gzip", Some(PolicySpec::AlwaysHigh), 1, [0x1721a68acb7d2b06, 0x1f21bd5fc7873db1, 0x68b5a37dea2ff7fd]),
    ("mcf", None, 2, [0xc88e7aa5627fb9c4, 0xab4a5d4c329ddb5b, 0xfef04c5665217749]),
    ("mcf", Some(PolicySpec::AlwaysHigh), 2, [0xc88e7aa5627fb9c4, 0xab4a5d4c329ddb5b, 0xfef04c5665217749]),
    ("art", None, 2, [0xb49b1224d8c6107a, 0x7c0c2304d37fca09, 0x24a272624d787185]),
    ("art", Some(PolicySpec::AlwaysHigh), 2, [0xb49b1224d8c6107a, 0x7c0c2304d37fca09, 0x24a272624d787185]),
];

/// Every pinned cell reproduces exactly. Mismatches are collected and
/// reported together, with the observed values, before failing.
#[test]
fn vddh_cells_are_pinned() {
    let mut diverged = Vec::new();
    for (name, policy, cores, pinned) in PINS {
        let seen = observe(name, policy, cores);
        if seen != pinned {
            diverged.push(format!(
                "(\"{name}\", {policy:?}, {cores}, [{:#x}, {:#x}, {:#x}]),",
                seen[0], seen[1], seen[2]
            ));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}
