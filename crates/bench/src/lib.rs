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
//!
//! A set `VSV_INSTS` or `VSV_WARMUP` must be a positive integer: both
//! binaries reject anything else with exit code 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vsv::Experiment;

/// Reads the experiment scale from the environment (see crate docs).
///
/// # Errors
///
/// A message naming the variable when `VSV_INSTS` or `VSV_WARMUP` is
/// set but not a positive integer.
pub fn experiment_from_env() -> Result<Experiment, String> {
    let get =
        |name: &str, default: u64| parse_scale(name, std::env::var(name).ok().as_deref(), default);
    Ok(Experiment {
        warmup_instructions: get("VSV_WARMUP", 100_000)?,
        instructions: get("VSV_INSTS", 300_000)?,
    })
}

/// One scale variable's value: `default` when unset, else a positive
/// integer. An empty, unparsable or zero value is an error naming
/// `name`, never a silent fall back to the default.
///
/// # Errors
///
/// A message naming `name` and the rejected value.
fn parse_scale(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    let Some(value) = value else {
        return Ok(default);
    };
    match value.parse() {
        Ok(0) | Err(_) => Err(format!(
            "{name}={value:?} is not a positive instruction count"
        )),
        Ok(n) => Ok(n),
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
        assert_eq!(parse_scale("VSV_INSTS", None, 300_000), Ok(300_000));
    }

    #[test]
    fn a_positive_scale_is_taken_as_is() {
        assert_eq!(parse_scale("VSV_INSTS", Some("3000"), 300_000), Ok(3000));
        assert_eq!(parse_scale("VSV_WARMUP", Some("1"), 100_000), Ok(1));
    }

    #[test]
    fn a_bad_scale_is_an_error_naming_the_variable() {
        for bad in ["", "3k", "0", "-5", " 3000", "1e5"] {
            let err = parse_scale("VSV_WARMUP", Some(bad), 100_000).expect_err(bad);
            assert!(err.starts_with("VSV_WARMUP="), "{bad:?}: {err}");
        }
    }
}
