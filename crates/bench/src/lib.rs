//! Shared harness utilities for the host-timing binary
//! `campaign_scale` (every committed result without a host timing in
//! it is `vsv-cli reproduce NAME`; simulator speed is `perfbench/`).
//!
//! The binary honours three environment variables so the same code
//! serves quick smoke runs and full runs:
//!
//! * `VSV_INSTS` — measured instructions per run (default 300 000);
//! * `VSV_WARMUP` — warm-up instructions per run (default 100 000);
//! * `VSV_WORKERS` — worker threads for the experiment grid (default:
//!   the host's available parallelism; see [`vsv::default_workers`]).
//!
//! Every number the binary reads from its environment goes through
//! [`env_value`]: a set value that does not parse, or is zero where
//! zero means nothing (every count and scale but a shard index), makes
//! the binary exit with code 2 naming the variable, before anything is
//! simulated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;

use vsv::Experiment;

/// Reads the experiment scale from the environment (see crate docs).
///
/// # Errors
///
/// A message naming the variable when `VSV_INSTS` or `VSV_WARMUP` is
/// set but not a positive integer.
pub fn experiment_from_env() -> Result<Experiment, String> {
    Ok(Experiment {
        warmup_instructions: env_value("VSV_WARMUP", true)?.unwrap_or(100_000),
        instructions: env_value("VSV_INSTS", true)?.unwrap_or(300_000),
    })
}

/// The environment variable `name` parsed as a `T`: `None` when unset.
/// With `positive`, the value must also be above zero.
///
/// # Errors
///
/// A message naming `name` and the rejected value when it is set but
/// empty, unparsable or (with `positive`) not above zero — never a
/// silent fall back to the caller's default.
pub fn env_value<T: FromStr + PartialOrd + Default>(
    name: &str,
    positive: bool,
) -> Result<Option<T>, String> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_value(name, value.as_deref(), positive)
}

/// [`env_value`] on an explicit `value` (`None` = unset).
fn parse_value<T: FromStr + PartialOrd + Default>(
    name: &str,
    value: Option<&str>,
    positive: bool,
) -> Result<Option<T>, String> {
    let Some(value) = value else {
        return Ok(None);
    };
    match value.parse::<T>() {
        Ok(v) if !positive || v > T::default() => Ok(Some(v)),
        _ => Err(format!(
            "{name}={value:?} is not a {}number",
            if positive { "positive " } else { "" }
        )),
    }
}

/// `read`'s value, or — on an error — the message on stderr as
/// `bin: message` and exit code 2.
pub fn or_exit<T>(bin: &str, read: Result<T, String>) -> T {
    read.unwrap_or_else(|msg| {
        eprintln!("{bin}: {msg}");
        std::process::exit(2)
    })
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
        assert_eq!(parse_value::<u64>("VSV_INSTS", None, true), Ok(None));
    }

    #[test]
    fn a_positive_scale_is_taken_as_is() {
        assert_eq!(
            parse_value("VSV_INSTS", Some("3000"), true),
            Ok(Some(3000u64))
        );
        assert_eq!(parse_value("VSV_WARMUP", Some("1"), true), Ok(Some(1u64)));
        assert_eq!(
            parse_value("VSV_CAMPAIGN_SHARDS", Some("4"), true),
            Ok(Some(4usize))
        );
        assert_eq!(
            parse_value("VSV_CAMPAIGN_SHARD", Some("0"), false),
            Ok(Some(0usize)),
            "a shard index may be zero"
        );
    }

    #[test]
    fn a_bad_scale_is_an_error_naming_the_variable() {
        let bad_counts = ["", "3k", "2x", "0", "-5", " 3000", "1e5"];
        for name in ["VSV_WARMUP", "VSV_INSTS"] {
            for bad in bad_counts {
                let err = parse_value::<u64>(name, Some(bad), true).expect_err(bad);
                assert!(err.starts_with(&format!("{name}=")), "{bad:?}: {err}");
            }
        }
        for bad in bad_counts {
            let err = parse_value::<usize>("VSV_CAMPAIGN_SHARDS", Some(bad), true).expect_err(bad);
            assert!(err.starts_with("VSV_CAMPAIGN_SHARDS="), "{bad:?}: {err}");
        }
        for bad in ["", "x", "-1", "1.5"] {
            let err = parse_value::<usize>("VSV_CAMPAIGN_SHARD", Some(bad), false).expect_err(bad);
            assert!(err.starts_with("VSV_CAMPAIGN_SHARD="), "{bad:?}: {err}");
        }
    }
}
