//! Shared harness utilities for the frontier, scaling and throughput
//! binaries (the paper's tables and figures are `vsv-cli reproduce`).
//!
//! Every binary honours four environment variables so the same code
//! serves quick smoke runs and full runs:
//!
//! * `VSV_INSTS` — measured instructions per run (default 300 000);
//! * `VSV_WARMUP` — warm-up instructions per run (default 100 000);
//! * `VSV_WORKERS` — worker threads for the experiment grid (default:
//!   the host's available parallelism; see [`vsv::default_workers`]);
//! * `VSV_CSV_DIR` — if set, the frontier binaries also write their
//!   data as `<dir>/<experiment>.csv` for plotting.
//!
//! Each binary assembles its grid as a [`vsv::Sweep`], so results are
//! in deterministic grid order regardless of scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;

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

/// A tiny CSV writer for the experiment binaries: created only when
/// `VSV_CSV_DIR` is set, it mirrors each printed table into
/// `<dir>/<experiment>.csv` so results can be plotted directly.
#[derive(Debug)]
pub struct CsvSink {
    file: Option<std::io::BufWriter<std::fs::File>>,
    path: Option<PathBuf>,
}

impl CsvSink {
    /// Opens `<VSV_CSV_DIR>/<experiment>.csv` if the variable is set;
    /// otherwise returns a no-op sink.
    ///
    /// # Panics
    ///
    /// Panics if the directory or file cannot be created (a CSV path
    /// was explicitly requested, so failing silently would lose data).
    #[must_use]
    pub fn from_env(experiment: &str) -> Self {
        Self::in_dir(
            std::env::var_os("VSV_CSV_DIR").map(PathBuf::from),
            experiment,
        )
    }

    /// Opens `<dir>/<experiment>.csv` when `dir` is given (creating the
    /// directory); otherwise returns a no-op sink. [`CsvSink::from_env`]
    /// passes `VSV_CSV_DIR`.
    ///
    /// # Panics
    ///
    /// As for [`CsvSink::from_env`].
    #[must_use]
    pub fn in_dir(dir: Option<PathBuf>, experiment: &str) -> Self {
        let Some(dir) = dir else {
            return CsvSink {
                file: None,
                path: None,
            };
        };
        std::fs::create_dir_all(&dir).expect("create the CSV directory");
        let path = dir.join(format!("{experiment}.csv"));
        let file = std::fs::File::create(&path).expect("create csv file");
        CsvSink {
            file: Some(std::io::BufWriter::new(file)),
            path: Some(path),
        }
    }

    /// Writes one CSV row. Fields containing commas or quotes are
    /// quoted.
    pub fn row(&mut self, fields: &[&str]) {
        let Some(f) = self.file.as_mut() else { return };
        let mut first = true;
        for field in fields {
            if !first {
                let _ = write!(f, ",");
            }
            first = false;
            if field.contains(',') || field.contains('"') {
                let _ = write!(f, "\"{}\"", field.replace('"', "\"\""));
            } else {
                let _ = write!(f, "{field}");
            }
        }
        let _ = writeln!(f);
    }

    /// Where the CSV is being written, if anywhere.
    #[must_use]
    pub fn path(&self) -> Option<&std::path::Path> {
        self.path.as_deref()
    }
}

/// Spawns the simulation grid behind every binary. Parallel execution
/// with deterministic, grid-ordered results lives in [`vsv::Sweep`];
/// the binaries build their grids with [`vsv::Sweep::over_grid`] (or
/// [`vsv::Sweep::new`] for irregular job lists) and pick the worker
/// count with [`vsv::default_workers`] (`VSV_WORKERS` overrides the
/// host's parallelism).
///
/// Prints a one-line banner on stderr so runs record how they were
/// scheduled; stdout stays the same bytes whatever the host.
pub fn announce_workers(workers: usize) {
    eprintln!(
        "({workers} worker thread{})",
        if workers == 1 { "" } else { "s" }
    );
}

/// Unwraps a sweep report into its grid-ordered results, printing
/// every failed cell to stderr and exiting with status 1 if any cell
/// failed. The experiment binaries regenerate whole tables/figures,
/// so a partial grid would silently misalign rows — dying loudly with
/// the per-cell diagnostics is the right behaviour for them (the CLI
/// and library callers get the partial report instead).
#[must_use]
pub fn results_or_die(report: vsv::SweepReport) -> Vec<vsv::RunResult> {
    let failed = report.failed_jobs();
    if failed > 0 {
        eprintln!("error: {failed} of {} sweep cells failed:", report.jobs);
        for r in report.failures() {
            if let Some(err) = r.outcome.error() {
                eprintln!("  cell #{} ({}): {err}", r.job, r.workload);
            }
        }
        std::process::exit(1);
    }
    report.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_or_die_passes_through_a_clean_report() {
        use vsv::{Sweep, SystemConfig};
        let e = Experiment {
            warmup_instructions: 1_000,
            instructions: 3_000,
        };
        let p = vsv_workloads::twin("gzip").expect("gzip exists");
        let report = Sweep::over_grid(e, &[p], &[SystemConfig::baseline()]).report(1);
        let runs = results_or_die(report);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "gzip");
    }

    #[test]
    fn env_defaults() {
        let e = experiment_from_env();
        assert!(e.instructions > 0);
        assert!(e.warmup_instructions > 0);
    }

    // These tests never touch the process environment: tests run in
    // parallel threads of one process, so a test that set `VSV_CSV_DIR`
    // would leak it into every other.

    #[test]
    fn csv_sink_without_a_dir_is_noop() {
        let mut sink = CsvSink::in_dir(None, "unit-test");
        assert!(sink.path().is_none());
        sink.row(&["a", "b"]); // must not panic
    }

    #[test]
    fn csv_quoting() {
        // Exercise the quoting path through a real temp file.
        let dir = std::env::temp_dir().join("vsv-csv-test");
        let mut sink = CsvSink::in_dir(Some(dir), "quoting");
        sink.row(&["plain", "with,comma", "with\"quote"]);
        let path = sink.path().expect("csv requested").to_owned();
        drop(sink);
        let contents = std::fs::read_to_string(path).expect("csv written");
        assert_eq!(contents.trim(), "plain,\"with,comma\",\"with\"\"quote\"");
    }
}
