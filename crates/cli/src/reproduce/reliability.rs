//! **reliability**: the reliability-vs-energy frontier under the
//! low-voltage timing-error model. `error-backoff` against
//! `always-high` (the reliability ceiling) and `dual-fsm` (the savings
//! ceiling) over the SPEC2K twin mix, all at a 5 % per-read error rate
//! at VDDL (`BENCH_reliability.json`).
//!
//! The question: how much of `always-high`'s SLO compliance can an
//! error-aware governor recover while keeping how much of `dual-fsm`'s
//! energy savings? The verdict per memory-bound twin:
//!
//! * `recovers_reliability` — `error-backoff` closes at least half of
//!   the `dual-fsm` → `always-high` retry-rate gap;
//! * `keeps_savings` — `error-backoff` keeps at least half of
//!   `dual-fsm`'s power saving over the disabled baseline;
//! * `frontier_holds` — both at once.

use std::fmt::{self, Write as _};

use vsv::{Experiment, PolicySpec, RunResult, SloSpec, Sweep, SystemConfig};
use vsv_workloads::spec2k_twins;

use super::{Artifact, ERROR_SEED, MEMORY_BOUND_MPKI};
use crate::compare::Cost;

/// Per-read error probability at VDDL.
const ERROR_RATE: f64 = 0.05;

/// The SLO every cell is judged against: at most 10 000 retries per
/// million fills and at most 8 ns of p99 added read latency (one
/// detect + reissue round).
const SLO: SloSpec = SloSpec {
    max_retry_rate_ppm: 10_000,
    max_added_latency_p99_ns: 8,
    max_request_p99_ns: None,
    max_request_p999_ns: None,
};

/// The config labels, in grid order.
const LABELS: [&str; 4] = ["disabled", "always-high", "dual-fsm", "error-backoff"];

/// One (twin, config) cell, relative to the same twin's baseline run.
#[derive(Debug, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Config label (`"disabled"` or a policy name).
    config: String,
    /// The baseline's demand MPKI (to identify memory-bound twins).
    mpki: f64,
    /// Total energy in the measured window (mJ).
    energy_mj: f64,
    /// Execution-time increase vs. the baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the baseline (%).
    power_saving_pct: f64,
    /// Erroneous read deliveries in the window.
    read_errors: u64,
    /// Read retries in the window.
    read_retries: u64,
    /// Observed retry rate (retries per million fills).
    retry_rate_ppm: u64,
    /// Observed p99 added read latency (ns).
    added_latency_p99_ns: u64,
    /// Whether the cell met the SLO.
    slo_compliant: bool,
}

/// The frontier verdict for one memory-bound twin.
#[derive(Debug, serde::Serialize)]
struct FrontierPoint {
    /// Workload name.
    workload: String,
    /// `dual-fsm` retry rate (ppm) — the exposure ceiling.
    dual_retry_ppm: u64,
    /// `always-high` retry rate (ppm) — the reliability reference
    /// (structurally 0: it never leaves VDDH).
    high_retry_ppm: u64,
    /// `error-backoff` retry rate (ppm).
    backoff_retry_ppm: u64,
    /// `dual-fsm` power saving (%) — the savings ceiling.
    dual_saving_pct: f64,
    /// `error-backoff` power saving (%).
    backoff_saving_pct: f64,
    /// `error-backoff` closes >= half of the retry-rate gap between
    /// `dual-fsm` and `always-high`.
    recovers_reliability: bool,
    /// `error-backoff` keeps >= half of `dual-fsm`'s power saving.
    keeps_savings: bool,
    /// Both at once: the graceful-degradation frontier claim.
    frontier_holds: bool,
}

/// The `BENCH_reliability.json` report.
#[derive(Debug, serde::Serialize)]
struct Report {
    /// Measured instructions per run.
    instructions_per_run: u64,
    /// Warm-up instructions per run.
    warmup_per_run: u64,
    /// Per-read error probability at VDDL.
    error_rate: f64,
    /// Error-model counter-PRNG seed.
    error_seed: u64,
    /// The SLO every cell was judged against.
    slo: SloSpec,
    /// Every (twin, config) cell, twin-major in grid order.
    records: Vec<Record>,
    /// Per memory-bound twin: the reliability/savings verdict.
    frontier: Vec<FrontierPoint>,
    /// True when at least one memory-bound twin holds the frontier
    /// claim (half the compliance recovered, half the savings kept).
    frontier_holds_somewhere: bool,
}

/// Every twin under the baseline, `always-high`, `dual-fsm` and
/// `error-backoff`, each with the error model and the SLO.
pub(super) fn grid(e: Experiment) -> Sweep {
    let reliability = |c: SystemConfig| {
        c.with_error_rate(ERROR_RATE)
            .with_error_seed(ERROR_SEED)
            .with_slo(Some(SLO))
    };
    // `error-backoff` runs on a depth-4 ladder so its midpoint engage
    // rung exists (on the paper's two rails the midpoint degenerates
    // to VDDH and the engaged policy saves nothing); the ceilings it
    // is judged against stay on the paper's two-rail configuration.
    let configs = [
        reliability(SystemConfig::baseline()),
        reliability(SystemConfig::with_policy(PolicySpec::AlwaysHigh)),
        reliability(SystemConfig::with_policy(PolicySpec::DualFsm)),
        reliability(SystemConfig::with_policy(PolicySpec::ErrorBackoff).with_ladder_depth(4)),
    ];
    Sweep::over_grid(e, &spec2k_twins(), &configs)
}

/// Builds the report from [`grid`]'s results.
pub(super) fn build(e: &Experiment, runs: Vec<RunResult>, _: usize) -> Result<Artifact, String> {
    let mut records: Vec<Record> = Vec::new();
    for (twin, chunk) in spec2k_twins().iter().zip(runs.chunks(LABELS.len())) {
        let base = &chunk[0];
        for (label, r) in LABELS.iter().zip(chunk) {
            let cost = Cost::of(base, r);
            let slo = r.slo.ok_or("a reliability cell ran without its SLO")?;
            records.push(Record {
                workload: twin.name.to_owned(),
                config: (*label).to_owned(),
                mpki: base.mpki,
                energy_mj: cost.energy_mj,
                slowdown_pct: cost.slowdown_pct,
                power_saving_pct: cost.power_saving_pct,
                read_errors: r.read_errors,
                read_retries: r.read_retries,
                retry_rate_ppm: slo.retry_rate_ppm,
                added_latency_p99_ns: slo.added_latency_p99_ns,
                slo_compliant: slo.compliant,
            });
        }
    }

    // The verdict over the memory-bound twins, where DVS (and thus
    // low-voltage exposure) actually bites.
    let mut frontier = Vec::new();
    for chunk in records.chunks(LABELS.len()) {
        if chunk[0].mpki <= MEMORY_BOUND_MPKI {
            continue;
        }
        let (high, dual, backoff) = (&chunk[1], &chunk[2], &chunk[3]);
        // Half the retry-rate gap to always-high closed, half the
        // savings kept: the graceful-degradation frontier claim.
        let gap_midpoint = high
            .retry_rate_ppm
            .saturating_add(dual.retry_rate_ppm.saturating_sub(high.retry_rate_ppm) / 2);
        let recovers_reliability =
            dual.retry_rate_ppm > high.retry_rate_ppm && backoff.retry_rate_ppm <= gap_midpoint;
        let keeps_savings =
            dual.power_saving_pct > 0.0 && backoff.power_saving_pct >= dual.power_saving_pct / 2.0;
        frontier.push(FrontierPoint {
            workload: chunk[0].workload.clone(),
            dual_retry_ppm: dual.retry_rate_ppm,
            high_retry_ppm: high.retry_rate_ppm,
            backoff_retry_ppm: backoff.retry_rate_ppm,
            dual_saving_pct: dual.power_saving_pct,
            backoff_saving_pct: backoff.power_saving_pct,
            recovers_reliability,
            keeps_savings,
            frontier_holds: recovers_reliability && keeps_savings,
        });
    }
    let report = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        error_rate: ERROR_RATE,
        error_seed: ERROR_SEED,
        slo: SLO,
        records,
        frontier_holds_somewhere: frontier.iter().any(|f| f.frontier_holds),
        frontier,
    };
    Artifact::of(&report, render)
}

/// Every cell with its SLO verdict, then the memory-bound frontier.
fn render(report: &Report, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Reliability frontier: {} configs × {} twins ({} insts/run, \
         error rate {} at VDDL, SLO {}/{} ppm/ns)",
        LABELS.len(),
        report.records.len() / LABELS.len(),
        report.instructions_per_run,
        report.error_rate,
        report.slo.max_retry_rate_ppm,
        report.slo.max_added_latency_p99_ns,
    )?;
    writeln!(
        out,
        "{:<10} {:<14} | {:>9} {:>7} | {:>9} {:>7} {:>5}",
        "twin", "config", "slowdown%", "saved%", "retry ppm", "p99 ns", "SLO"
    )?;
    writeln!(out, "{:-<72}", "")?;
    for r in &report.records {
        writeln!(
            out,
            "{:<10} {:<14} | {:>9.2} {:>7.2} | {:>9} {:>7} {:>5}",
            r.workload,
            r.config,
            r.slowdown_pct,
            r.power_saving_pct,
            r.retry_rate_ppm,
            r.added_latency_p99_ns,
            if r.slo_compliant { "ok" } else { "VIOL" },
        )?;
    }
    writeln!(out, "{:-<72}", "")?;
    writeln!(
        out,
        "{:<10} | {:>9} {:>9} {:>9} | {:>7} {:>7}  (memory-bound, MPKI > {MEMORY_BOUND_MPKI})",
        "twin", "dual ppm", "bkff ppm", "high ppm", "dual s%", "bkff s%"
    )?;
    for f in &report.frontier {
        writeln!(
            out,
            "{:<10} | {:>9} {:>9} {:>9} | {:>7.2} {:>7.2}{}",
            f.workload,
            f.dual_retry_ppm,
            f.backoff_retry_ppm,
            f.high_retry_ppm,
            f.dual_saving_pct,
            f.backoff_saving_pct,
            if f.frontier_holds {
                "  << frontier holds"
            } else {
                ""
            }
        )?;
    }
    writeln!(
        out,
        "frontier holds somewhere: {}",
        report.frontier_holds_somewhere
    )
}
