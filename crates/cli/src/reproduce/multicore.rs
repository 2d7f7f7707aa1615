//! **multicore**: per-core voltage domains over a shared L2 at
//! N ∈ {1, 2, 4} on the memory-bound twins (`BENCH_multicore.json`).
//!
//! Three questions the single-core paper cannot ask:
//!
//! 1. **Does the saving survive contention?** Each VSV row compares
//!    against the *equally contended* baseline at the same core
//!    count, so the saving isolates the policy from the shared-L2
//!    slowdown.
//! 2. **Do per-domain rails amortize ramp energy?** A chip-wide rail
//!    ramps the whole chip per decision; N independent domains each
//!    ramp a 1/N-sized core. We report per-core ramp energy at N
//!    against the N=1 reference, plus the trace-level opportunity
//!    gap: a chip-wide rail could only sit low while *every* domain
//!    is low (the joint all-low residency), whereas per-domain rails
//!    harvest each core's own low residency.
//! 3. **Do miss storms correlate across cores?** Homogeneous co-runners
//!    share DRAM and the L2, so one core's storm queues behind
//!    another's. We compare the observed all-low residency with the
//!    independence prediction (the product of per-core residencies).
//!
//! Plus a shared-L2 fairness probe: an asymmetric mcf+gzip pair,
//! where only the memory-bound core spends time at VDDL, and each
//! core's throughput is judged against its solo run.
//!
//! The grid is the (twin, cores) sweep; the correlation chips (one
//! per-ns `ModeTrace` per core) and the fairness pair run after it.

use std::fmt::{self, Write as _};

use vsv::{
    Experiment, Mode, ModeStats, ModeTrace, MulticoreSystem, RunResult, SimError, Sweep,
    SystemConfig, TraceLevel,
};
use vsv_workloads::{twin, WorkloadParams};

use super::Artifact;
use crate::compare::Cost;

/// Core counts on the scaling axis (1 = the paper's machine).
const CORE_COUNTS: [usize; 3] = [1, 2, 4];

/// The memory-bound twins (high-MPKI; where VSV bites).
const TWINS: [&str; 3] = ["mcf", "art", "ammp"];

/// The fairness probe's asymmetric pair: memory-bound mcf (lives at
/// VDDL) against compute-bound gzip (stays at VDDH).
const PAIR: [&str; 2] = ["mcf", "gzip"];

/// Per-ns mode samples retained per core for the correlation probe.
const TRACE_CAPACITY: usize = 1 << 20;

/// One (twin, cores) cell: chip-wide dual-fsm vs. the equally
/// contended baseline.
#[derive(Debug, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Core count (voltage domains).
    cores: usize,
    /// Chip-wide demand MPKI of the contended baseline.
    baseline_mpki: f64,
    /// Chip-wide simulated window of the dual-fsm run (ns, longest
    /// core).
    elapsed_ns: u64,
    /// Chip-wide dual-fsm energy (mJ).
    energy_mj: f64,
    /// Chip-wide ramp energy (pJ) across all domains.
    ramp_pj: f64,
    /// Ramp energy per domain (pJ): `ramp_pj / cores`.
    ramp_pj_per_domain: f64,
    /// Mean low-mode residency over the domains (%, from summed
    /// per-core mode counters).
    low_residency_pct: f64,
    /// Execution-time increase vs. the contended baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the contended baseline (%).
    power_saving_pct: f64,
    /// Per-core power savings (%), core-indexed: each core's domain
    /// vs. the same core of the baseline run.
    per_core_saving_pct: Vec<f64>,
}

/// Ramp-energy amortization at one core count, against the twin's
/// N=1 reference.
#[derive(Debug, serde::Serialize)]
struct Amortization {
    /// Workload name.
    workload: String,
    /// Core count.
    cores: usize,
    /// `ramp_pj(N) / N` over `ramp_pj(1)`: < 1 means each domain
    /// ramps less than the solo core did (contention stretches the
    /// window, so each domain makes fewer dive decisions per
    /// instruction); > 1 means domains ramp more often.
    per_domain_vs_solo: f64,
}

/// Cross-core miss-storm correlation for one homogeneous pair.
#[derive(Debug, serde::Serialize)]
struct Correlation {
    /// Workload name (both cores run phase-decorrelated copies).
    workload: String,
    /// Core count of the probe.
    cores: usize,
    /// Each domain's settled-low residency over the traced window
    /// (fraction of ns).
    per_core_low: Vec<f64>,
    /// Observed fraction of ns with *every* domain settled low — the
    /// only time a chip-wide rail could be low.
    all_low_observed: f64,
    /// Independence prediction: the product of `per_core_low`.
    all_low_if_independent: f64,
    /// `observed / predicted` (> 1: storms correlate across cores —
    /// shared-fabric queueing synchronizes them).
    correlation_ratio: f64,
    /// What per-domain rails harvest that a chip-wide rail cannot:
    /// mean per-core low residency minus the all-low residency
    /// (fraction of ns).
    per_domain_advantage: f64,
}

/// Shared-L2 fairness under asymmetric low-mode residency.
#[derive(Debug, serde::Serialize)]
struct Fairness {
    /// Co-runner twin names, core-indexed.
    workloads: Vec<String>,
    /// Each core's IPC in the shared run over its solo IPC
    /// (1 = no interference), core-indexed.
    relative_progress: Vec<f64>,
    /// Each core's settled-low residency in the shared run (%),
    /// core-indexed — the asymmetry driver.
    low_residency_pct: Vec<f64>,
    /// `min(relative_progress) / max(relative_progress)`: 1 = fair.
    fairness_index: f64,
}

/// The `BENCH_multicore.json` report.
#[derive(Debug, serde::Serialize)]
struct Report {
    /// Measured instructions per run, per core.
    instructions_per_run: u64,
    /// Warm-up instructions per run, per core.
    warmup_per_run: u64,
    /// Core counts swept.
    core_counts: Vec<usize>,
    /// Every (twin, cores) dual-fsm cell vs. its contended baseline.
    records: Vec<Record>,
    /// Per-domain ramp energy at each N > 1 vs. the N=1 reference.
    amortization: Vec<Amortization>,
    /// Cross-core miss-storm correlation probes (N=2, dual-fsm).
    correlation: Vec<Correlation>,
    /// The asymmetric mcf+gzip fairness probe.
    fairness: Fairness,
    /// True when every (twin, cores) cell saves chip-wide power
    /// against its equally contended baseline — the CI gate.
    chip_saving_positive_everywhere: bool,
}

/// Looks up suite twins by name.
fn twins<const N: usize>(names: [&str; N]) -> [WorkloadParams; N] {
    names.map(|name| twin(name).expect("the multicore twins are in the suite"))
}

/// Settled-low residency of one mode-stats vector, in percent.
fn low_pct(mode: &ModeStats) -> f64 {
    let total: u64 = mode.ns_in_mode.iter().sum();
    if total == 0 {
        return 0.0;
    }
    mode.ns_in_mode[Mode::Low.index()] as f64 * 100.0 / total as f64
}

/// A failed chip run as a failure summary.
fn chip_failed(what: &'static str, workload: &'static str) -> impl FnOnce(SimError) -> String {
    move |err| format!("the {what} chip run failed:\n  {workload}: {err}\n")
}

/// Every twin at each core count under the baseline and dual-fsm.
pub(super) fn grid(e: Experiment) -> Sweep {
    let configs: Vec<SystemConfig> = CORE_COUNTS
        .iter()
        .flat_map(|&n| {
            [
                SystemConfig::baseline().with_cores(n),
                SystemConfig::vsv_with_fsms().with_cores(n),
            ]
        })
        .collect();
    Sweep::over_grid(e, &twins(TWINS), &configs)
}

/// Builds the report from [`grid`]'s results, running the correlation
/// chips and the fairness pair.
pub(super) fn build(e: &Experiment, runs: Vec<RunResult>, _: usize) -> Result<Artifact, String> {
    let mut records: Vec<Record> = Vec::new();
    for (name, chunk) in TWINS.iter().zip(runs.chunks(2 * CORE_COUNTS.len())) {
        for (&n, pair) in CORE_COUNTS.iter().zip(chunk.chunks(2)) {
            let (base, vsv_run) = (&pair[0], &pair[1]);
            let cost = Cost::of(base, vsv_run);
            // Core i of the VSV run against core i of the baseline
            // run: both saw the same per-core stream, both contended.
            let per_core_saving_pct: Vec<f64> = vsv_run
                .core_results
                .iter()
                .zip(&base.core_results)
                .map(|(v, b)| Cost::of(b, v).power_saving_pct)
                .collect();
            records.push(Record {
                workload: (*name).to_owned(),
                cores: n,
                baseline_mpki: base.mpki,
                elapsed_ns: vsv_run.elapsed_ns,
                energy_mj: cost.energy_mj,
                ramp_pj: vsv_run.energy.ramp_pj,
                ramp_pj_per_domain: vsv_run.energy.ramp_pj / n as f64,
                low_residency_pct: low_pct(&vsv_run.mode),
                slowdown_pct: cost.slowdown_pct,
                power_saving_pct: cost.power_saving_pct,
                per_core_saving_pct,
            });
        }
    }

    // Ramp amortization: each twin's per-domain ramp energy at N
    // against its own N=1 reference.
    let mut amortization = Vec::new();
    for chunk in records.chunks(CORE_COUNTS.len()) {
        let solo = &chunk[0];
        for rec in &chunk[1..] {
            amortization.push(Amortization {
                workload: rec.workload.clone(),
                cores: rec.cores,
                per_domain_vs_solo: if solo.ramp_pj > 0.0 {
                    rec.ramp_pj_per_domain / solo.ramp_pj
                } else {
                    0.0
                },
            });
        }
    }

    let correlation = twins(TWINS)
        .iter()
        .map(|params| correlate(e, params))
        .collect::<Result<_, _>>()?;
    let report = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        core_counts: CORE_COUNTS.to_vec(),
        chip_saving_positive_everywhere: records.iter().all(|r| r.power_saving_pct > 0.0),
        records,
        amortization,
        correlation,
        fairness: fairness(e)?,
    };
    Artifact::of(&report, render)
}

/// Miss-storm correlation: traces every domain of an N=2 dual-fsm
/// chip per ns and compares the joint all-low residency with the
/// independence prediction.
fn correlate(e: &Experiment, params: &WorkloadParams) -> Result<Correlation, String> {
    let failed = || chip_failed("correlation", params.name);
    let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
    let mut chip = MulticoreSystem::try_new(cfg, params).map_err(failed())?;
    chip.try_warm_up(e.warmup_instructions).map_err(failed())?;
    let traces: Vec<ModeTrace> = (0..chip.cores())
        .map(|core| {
            let trace = ModeTrace::new(TRACE_CAPACITY);
            chip.set_event_sink(core, TraceLevel::Full, Box::new(trace.clone()));
            trace
        })
        .collect();
    chip.try_run(e.instructions).map_err(failed())?;
    // Lockstep means every core records one sample per ns, so the
    // retained windows line up sample-for-sample even when the ring
    // dropped old entries.
    let samples: Vec<_> = traces.iter().map(ModeTrace::samples).collect();
    let len = samples.iter().map(Vec::len).min().unwrap_or(0);
    let low_flags: Vec<Vec<bool>> = samples
        .iter()
        .map(|t| {
            let skip = t.len() - len;
            t.iter().skip(skip).map(|s| s.mode == Mode::Low).collect()
        })
        .collect();
    let per_core_low: Vec<f64> = low_flags
        .iter()
        .map(|flags| flags.iter().filter(|l| **l).count() as f64 / len.max(1) as f64)
        .collect();
    let all_low = (0..len)
        .filter(|&i| low_flags.iter().all(|flags| flags[i]))
        .count() as f64
        / len.max(1) as f64;
    let independent: f64 = per_core_low.iter().product();
    let mean_low = per_core_low.iter().sum::<f64>() / per_core_low.len().max(1) as f64;
    Ok(Correlation {
        workload: params.name.to_owned(),
        cores: 2,
        all_low_observed: all_low,
        all_low_if_independent: independent,
        correlation_ratio: if independent > 0.0 {
            all_low / independent
        } else {
            0.0
        },
        per_domain_advantage: mean_low - all_low,
        per_core_low,
    })
}

/// Fairness: the asymmetric pair on one shared L2, each core's IPC
/// against its solo run.
fn fairness(e: &Experiment) -> Result<Fairness, String> {
    let pair = twins(PAIR);
    let solo = pair
        .iter()
        .map(|p| {
            let run = e.try_run(p, SystemConfig::vsv_with_fsms());
            run.map(|r| r.ipc).map_err(chip_failed("solo", p.name))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    let failed = || chip_failed("fairness", "mcf+gzip");
    let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
    let mut chip = MulticoreSystem::try_new_heterogeneous(cfg, &pair).map_err(failed())?;
    chip.try_warm_up(e.warmup_instructions).map_err(failed())?;
    let shared = chip.try_run(e.instructions).map_err(failed())?;
    let relative_progress: Vec<f64> = shared
        .core_results
        .iter()
        .zip(&solo)
        .map(|(core, solo_ipc)| core.ipc / solo_ipc)
        .collect();
    let (min_p, max_p) = relative_progress
        .iter()
        .fold((f64::MAX, 0.0f64), |acc, p| (acc.0.min(*p), acc.1.max(*p)));
    Ok(Fairness {
        workloads: PAIR.map(str::to_owned).to_vec(),
        relative_progress,
        low_residency_pct: shared
            .core_results
            .iter()
            .map(|c| low_pct(&c.mode))
            .collect(),
        fairness_index: if max_p > 0.0 { min_p / max_p } else { 0.0 },
    })
}

/// Every cell, then the correlation and fairness probes.
fn render(report: &Report, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Multicore scaling: {} twins × N ∈ {:?} ({} insts/run/core)",
        TWINS.len(),
        report.core_counts,
        report.instructions_per_run
    )?;
    writeln!(
        out,
        "{:<10} {:>5} | {:>12} {:>8} | {:>9} {:>7}",
        "twin", "cores", "ramp pJ/dom", "low%", "slowdown%", "saved%"
    )?;
    writeln!(out, "{:-<64}", "")?;
    for r in &report.records {
        writeln!(
            out,
            "{:<10} {:>5} | {:>12.1} {:>8.1} | {:>9.2} {:>7.2}",
            r.workload,
            r.cores,
            r.ramp_pj_per_domain,
            r.low_residency_pct,
            r.slowdown_pct,
            r.power_saving_pct,
        )?;
    }
    writeln!(out, "{:-<64}", "")?;
    for c in &report.correlation {
        writeln!(
            out,
            "{:<10} storms: all-low {:.1}% vs independent {:.1}% (×{:.2}); \
             per-domain advantage {:.1}% of ns",
            c.workload,
            c.all_low_observed * 100.0,
            c.all_low_if_independent * 100.0,
            c.correlation_ratio,
            c.per_domain_advantage * 100.0,
        )?;
    }
    let f = &report.fairness;
    let fixed = |xs: &[f64], digits: usize| -> Vec<String> {
        xs.iter().map(|x| format!("{x:.digits$}")).collect()
    };
    writeln!(
        out,
        "fairness {}: progress {:?} low% {:?} index {:.3}",
        f.workloads.join("+"),
        fixed(&f.relative_progress, 3),
        fixed(&f.low_residency_pct, 1),
        f.fairness_index,
    )?;
    writeln!(out, "{:-<64}", "")?;
    writeln!(
        out,
        "chip saving positive on every (twin, cores) cell: {}",
        report.chip_saving_positive_everywhere
    )
}
