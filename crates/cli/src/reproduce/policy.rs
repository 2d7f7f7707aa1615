//! **policy**: every built-in [`PolicySpec`] against the disabled
//! baseline over the SPEC2K twin mix, reporting energy, energy-delay
//! product, slowdown and power saving per policy, and per-policy means
//! (`BENCH_policy.json`).

use std::fmt::{self, Write as _};

use vsv::{Experiment, PolicySpec, RunResult, Sweep, SystemConfig};
use vsv_workloads::spec2k_twins;

use super::{Artifact, MEMORY_BOUND_MPKI};
use crate::compare::Cost;

/// One (twin, policy) cell, relative to the same twin's baseline run.
#[derive(Debug, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Policy name (`"disabled"` for the baseline row).
    policy: String,
    /// Simulated nanoseconds in the measured window.
    elapsed_ns: u64,
    /// Demand MPKI (to identify memory-bound twins).
    mpki: f64,
    /// Total energy in the measured window (mJ).
    energy_mj: f64,
    /// Energy-delay product (mJ·ms).
    edp_mj_ms: f64,
    /// Fraction of time at VDDL.
    low_residency: f64,
    /// Execution-time increase vs. the baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the baseline (%).
    power_saving_pct: f64,
}

/// Means of one policy's per-twin metrics.
#[derive(Debug, serde::Serialize)]
struct PolicySummary {
    /// Policy name.
    policy: String,
    /// Twins aggregated.
    twins: usize,
    /// Mean slowdown vs. baseline (%).
    mean_slowdown_pct: f64,
    /// Mean average-power saving vs. baseline (%).
    mean_power_saving_pct: f64,
    /// Mean EDP relative to baseline (1.0 = no change; < 1 better).
    mean_edp_ratio: f64,
    /// Mean low-mode residency.
    mean_low_residency: f64,
}

/// The `BENCH_policy.json` report.
#[derive(Debug, serde::Serialize)]
struct Report {
    /// Measured instructions per run.
    instructions_per_run: u64,
    /// Warm-up instructions per run.
    warmup_per_run: u64,
    /// Every (twin, policy) cell, twin-major in grid order.
    records: Vec<Record>,
    /// Per-policy means over all twins.
    summaries: Vec<PolicySummary>,
    /// Per-policy means restricted to memory-bound twins (baseline
    /// MPKI > 4), where the policies actually differ.
    memory_bound_summaries: Vec<PolicySummary>,
}

/// The row labels, in grid order: the baseline, then each policy.
fn labels() -> Vec<&'static str> {
    std::iter::once("disabled")
        .chain(PolicySpec::ALL.iter().map(|p| p.name()))
        .collect()
}

/// Every twin under the baseline and each built-in policy.
pub(super) fn grid(e: Experiment) -> Sweep {
    let mut configs = vec![SystemConfig::baseline()];
    configs.extend(
        PolicySpec::ALL
            .iter()
            .map(|p| SystemConfig::with_policy(*p)),
    );
    Sweep::over_grid(e, &spec2k_twins(), &configs)
}

/// Each label's means over the twins of `rows` (each twin's cells,
/// baseline first) whose baseline passes `keep`.
fn summaries(rows: &[Record], labels: &[&str], keep: fn(&Record) -> bool) -> Vec<PolicySummary> {
    let twins: Vec<&[Record]> = rows.chunks(labels.len()).filter(|c| keep(&c[0])).collect();
    let n = twins.len().max(1) as f64;
    let mean = |slot: usize, metric: &dyn Fn(&Record, &Record) -> f64| {
        twins.iter().map(|c| metric(&c[slot], &c[0])).sum::<f64>() / n
    };
    (0..labels.len())
        .map(|slot| PolicySummary {
            policy: labels[slot].to_owned(),
            twins: twins.len(),
            mean_slowdown_pct: mean(slot, &|r, _| r.slowdown_pct),
            mean_power_saving_pct: mean(slot, &|r, _| r.power_saving_pct),
            mean_edp_ratio: mean(slot, &|r, base| r.edp_mj_ms / base.edp_mj_ms),
            mean_low_residency: mean(slot, &|r, _| r.low_residency),
        })
        .collect()
}

/// Builds the report from [`grid`]'s results.
pub(super) fn build(e: &Experiment, runs: Vec<RunResult>, _: usize) -> Result<Artifact, String> {
    let labels = labels();
    let mut records = Vec::new();
    for (twin, chunk) in spec2k_twins().iter().zip(runs.chunks(labels.len())) {
        let base = &chunk[0];
        for (label, r) in labels.iter().zip(chunk) {
            let Cost {
                energy_mj,
                edp_mj_ms,
                slowdown_pct,
                power_saving_pct,
            } = Cost::of(base, r);
            records.push(Record {
                workload: twin.name.to_owned(),
                policy: (*label).to_owned(),
                elapsed_ns: r.elapsed_ns,
                mpki: r.mpki,
                energy_mj,
                edp_mj_ms,
                low_residency: r.mode.low_residency(),
                slowdown_pct,
                power_saving_pct,
            });
        }
    }
    let report = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        summaries: summaries(&records, &labels, |_| true),
        memory_bound_summaries: summaries(&records, &labels, |base| base.mpki > MEMORY_BOUND_MPKI),
        records,
    };
    Artifact::of(&report, render)
}

/// Every cell, then the memory-bound means.
fn render(report: &Report, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Policy compare: baseline + {} policies × {} twins ({} insts/run)",
        PolicySpec::ALL.len(),
        report.records.len() / labels().len(),
        report.instructions_per_run
    )?;
    writeln!(
        out,
        "{:<10} {:<15} | {:>10} {:>11} | {:>9} {:>7} {:>6}",
        "twin", "policy", "energy_mJ", "EDP(mJ·ms)", "slowdown%", "saved%", "low%"
    )?;
    writeln!(out, "{:-<78}", "")?;
    for r in &report.records {
        writeln!(
            out,
            "{:<10} {:<15} | {:>10.4} {:>11.4} | {:>9.2} {:>7.2} {:>6.1}",
            r.workload,
            r.policy,
            r.energy_mj,
            r.edp_mj_ms,
            r.slowdown_pct,
            r.power_saving_pct,
            r.low_residency * 100.0,
        )?;
    }
    writeln!(out, "{:-<78}", "")?;
    writeln!(
        out,
        "{:<15} | {:>9} {:>7} {:>9} {:>6}  (means over memory-bound twins)",
        "policy", "slowdown%", "saved%", "EDPratio", "low%"
    )?;
    for s in &report.memory_bound_summaries {
        writeln!(
            out,
            "{:<15} | {:>9.2} {:>7.2} {:>9.3} {:>6.1}",
            s.policy,
            s.mean_slowdown_pct,
            s.mean_power_saving_pct,
            s.mean_edp_ratio,
            s.mean_low_residency * 100.0,
        )?;
    }
    Ok(())
}
