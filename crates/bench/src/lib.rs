//! Shared harness utilities for the two host-timing binaries,
//! `throughput` and `campaign_scale` (every committed result without a
//! host timing in it is `vsv-cli reproduce NAME`).
//!
//! Both binaries honour three environment variables so the same code
//! serves quick smoke runs and full runs:
//!
//! * `VSV_INSTS` — measured instructions per run (default 300 000);
//! * `VSV_WARMUP` — warm-up instructions per run (default 100 000);
//! * `VSV_WORKERS` — worker threads for the experiment grid (default:
//!   the host's available parallelism; see [`vsv::default_workers`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vsv::Experiment;

/// Reads the experiment scale from the environment (see crate docs).
#[must_use]
pub fn experiment_from_env() -> Experiment {
    let get = |name: &str, default: u64| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    Experiment {
        warmup_instructions: get("VSV_WARMUP", 100_000),
        instructions: get("VSV_INSTS", 300_000),
    }
}

/// Prints a rule line of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        let e = experiment_from_env();
        assert!(e.instructions > 0);
        assert!(e.warmup_instructions > 0);
    }
}
