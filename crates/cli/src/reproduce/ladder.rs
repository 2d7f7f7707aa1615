//! **ladder**: the EDP-vs-ladder-depth frontier. `ladder-fsm` at
//! increasing voltage-ladder depths against the disabled baseline,
//! `immediate-down` and the paper's `dual-fsm`, over the SPEC2K twin
//! mix (`BENCH_ladder.json`).
//!
//! The question: does a ladder deeper than the paper's two rails buy
//! anything? Deeper ladders trade less energy saving per step for much
//! cheaper steps (a depth-4 step ramps in 4 ns instead of 12 ns and
//! charges a third of the dual-rail ramp energy), so marginal stalls
//! that the two-rail policy cannot profitably chase become worth a
//! partial descent.

use std::fmt::{self, Write as _};

use vsv::{Experiment, PolicySpec, RunResult, Sweep, SystemConfig};
use vsv_workloads::spec2k_twins;

use super::{Artifact, MEMORY_BOUND_MPKI};
use crate::compare::Cost;

/// Ladder depths on the frontier axis (2 = the paper's rails).
const DEPTHS: [usize; 5] = [2, 3, 4, 6, 8];

/// One (twin, config) cell, relative to the same twin's baseline run.
#[derive(Debug, serde::Serialize)]
struct Record {
    /// Workload (SPEC2K twin) name.
    workload: String,
    /// Config label (`"disabled"`, a policy name, or `ladder-fsm@dN`).
    config: String,
    /// Voltage-ladder depth of the config.
    ladder: usize,
    /// The baseline's demand MPKI (to identify memory-bound twins).
    mpki: f64,
    /// Simulated nanoseconds in the measured window.
    elapsed_ns: u64,
    /// Total energy in the measured window (mJ).
    energy_mj: f64,
    /// Energy-delay product (mJ·ms).
    edp_mj_ms: f64,
    /// EDP relative to the twin's baseline (< 1 is a net win).
    edp_ratio: f64,
    /// Execution-time increase vs. the baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the baseline (%).
    power_saving_pct: f64,
}

/// The frontier verdict for one memory-bound twin.
#[derive(Debug, serde::Serialize)]
struct FrontierPoint {
    /// Workload name.
    workload: String,
    /// `dual-fsm` EDP (mJ·ms) — the two-rail reference.
    dual_edp_mj_ms: f64,
    /// Depth minimizing `ladder-fsm` EDP on this twin.
    best_depth: usize,
    /// That minimum EDP (mJ·ms).
    best_edp_mj_ms: f64,
    /// True when some depth > 2 beats `dual-fsm` EDP strictly.
    deep_ladder_wins: bool,
}

/// The `BENCH_ladder.json` report.
#[derive(Debug, serde::Serialize)]
struct Report {
    /// Measured instructions per run.
    instructions_per_run: u64,
    /// Warm-up instructions per run.
    warmup_per_run: u64,
    /// Ladder depths swept.
    depths: Vec<usize>,
    /// Every (twin, config) cell, twin-major in grid order.
    records: Vec<Record>,
    /// Per memory-bound twin: the best depth and whether it beats the
    /// paper's two rails.
    frontier: Vec<FrontierPoint>,
    /// True when some memory-bound twin has a depth > 2 with strictly
    /// lower EDP than `dual-fsm`.
    deep_ladder_wins_somewhere: bool,
    /// Mean power saving (%) over memory-bound twins for the
    /// best-EDP-depth ladder, `dual-fsm`, and `immediate-down`.
    mean_saving_pct: OrderingMeans,
    /// Mean slowdown (%) over memory-bound twins for the same three.
    mean_slowdown_pct: OrderingMeans,
    /// The `ladder >= dual >= immediate` refinement ordering, each
    /// policy dominating the cruder one on its own axis: the ladder
    /// saves at least as much mean power as `dual-fsm` (it can chase
    /// stalls the two-rail monitors decline), while `dual-fsm` costs
    /// at most `immediate-down`'s mean slowdown (its evidence windows
    /// protect performance). `immediate-down` out-*saves* `dual-fsm`
    /// outright here — long uniform DRAM stalls mean every dive pays —
    /// so a single-metric chain cannot hold; the raw means above let
    /// readers audit both axes.
    savings_ordering_holds: bool,
}

/// The three policies' means on one axis, for the ordering check.
#[derive(Debug, serde::Serialize)]
struct OrderingMeans {
    /// `ladder-fsm` at each twin's best-EDP depth.
    best_ladder: f64,
    /// `dual-fsm` (the paper's two-rail policy).
    dual_fsm: f64,
    /// `immediate-down` (no evidence gating).
    immediate_down: f64,
}

/// Each config with its label and ladder depth, in grid order.
fn configs() -> Vec<(String, usize, SystemConfig)> {
    let policy = |p: PolicySpec| (p.name().to_owned(), 2, SystemConfig::with_policy(p));
    let mut configs = vec![
        ("disabled".to_owned(), 2, SystemConfig::baseline()),
        policy(PolicySpec::ImmediateDown),
        policy(PolicySpec::DualFsm),
    ];
    let ladder = SystemConfig::with_policy(PolicySpec::LadderFsm);
    configs.extend(DEPTHS.map(|d| (format!("ladder-fsm@d{d}"), d, ladder.with_ladder_depth(d))));
    configs
}

/// Every twin under the baseline, `immediate-down`, `dual-fsm` and
/// `ladder-fsm` at each depth.
pub(super) fn grid(e: Experiment) -> Sweep {
    let configs: Vec<SystemConfig> = configs().into_iter().map(|(.., c)| c).collect();
    Sweep::over_grid(e, &spec2k_twins(), &configs)
}

/// Builds the report from [`grid`]'s results.
pub(super) fn build(e: &Experiment, runs: Vec<RunResult>, _: usize) -> Result<Artifact, String> {
    let configs = configs();
    let mut records: Vec<Record> = Vec::new();
    for (twin, chunk) in spec2k_twins().iter().zip(runs.chunks(configs.len())) {
        let base = &chunk[0];
        let base_edp = Cost::of(base, base).edp_mj_ms;
        for ((label, depth, _), r) in configs.iter().zip(chunk) {
            let Cost {
                energy_mj,
                edp_mj_ms,
                slowdown_pct,
                power_saving_pct,
            } = Cost::of(base, r);
            records.push(Record {
                workload: twin.name.to_owned(),
                config: label.clone(),
                ladder: *depth,
                mpki: base.mpki,
                elapsed_ns: r.elapsed_ns,
                energy_mj,
                edp_mj_ms,
                edp_ratio: edp_mj_ms / base_edp,
                slowdown_pct,
                power_saving_pct,
            });
        }
    }

    // Frontier over the memory-bound twins, where DVS actually bites.
    let mut frontier = Vec::new();
    let mut sum = [(0.0f64, 0.0f64); 3]; // (saving, slowdown) × best/dual/immediate
    for chunk in records.chunks(configs.len()) {
        if chunk[0].mpki <= MEMORY_BOUND_MPKI {
            continue;
        }
        let (immediate, dual, ladder_rows) = (&chunk[1], &chunk[2], &chunk[3..]);
        let best = ladder_rows
            .iter()
            .min_by(|a, b| a.edp_mj_ms.total_cmp(&b.edp_mj_ms))
            .expect("DEPTHS is non-empty");
        frontier.push(FrontierPoint {
            workload: chunk[0].workload.clone(),
            dual_edp_mj_ms: dual.edp_mj_ms,
            best_depth: best.ladder,
            best_edp_mj_ms: best.edp_mj_ms,
            deep_ladder_wins: ladder_rows
                .iter()
                .any(|r| r.ladder > 2 && r.edp_mj_ms < dual.edp_mj_ms),
        });
        for (slot, r) in sum.iter_mut().zip([best, dual, immediate]) {
            slot.0 += r.power_saving_pct;
            slot.1 += r.slowdown_pct;
        }
    }
    let n = frontier.len().max(1) as f64;
    let means = |axis: fn(&(f64, f64)) -> f64| OrderingMeans {
        best_ladder: axis(&sum[0]) / n,
        dual_fsm: axis(&sum[1]) / n,
        immediate_down: axis(&sum[2]) / n,
    };
    let (mean_saving_pct, mean_slowdown_pct) = (means(|s| s.0), means(|s| s.1));
    // Each refinement dominates the cruder policy on its own axis:
    // the ladder out-saves the two-rail FSMs; the FSMs out-protect
    // the ungated dive (see the `savings_ordering_holds` field docs).
    let savings_ordering_holds = mean_saving_pct.best_ladder >= mean_saving_pct.dual_fsm
        && mean_slowdown_pct.dual_fsm <= mean_slowdown_pct.immediate_down;
    let report = Report {
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        depths: DEPTHS.to_vec(),
        records,
        deep_ladder_wins_somewhere: frontier.iter().any(|f| f.deep_ladder_wins),
        frontier,
        mean_saving_pct,
        mean_slowdown_pct,
        savings_ordering_holds,
    };
    Artifact::of(&report, render)
}

/// Every cell, then the memory-bound frontier and its verdicts.
fn render(report: &Report, out: &mut String) -> fmt::Result {
    let configs = configs().len();
    writeln!(
        out,
        "Ladder frontier: {configs} configs × {} twins ({} insts/run)",
        report.records.len() / configs,
        report.instructions_per_run
    )?;
    writeln!(
        out,
        "{:<10} {:<15} | {:>11} {:>9} | {:>9} {:>7}",
        "twin", "config", "EDP(mJ·ms)", "EDPratio", "slowdown%", "saved%"
    )?;
    writeln!(out, "{:-<72}", "")?;
    for r in &report.records {
        writeln!(
            out,
            "{:<10} {:<15} | {:>11.4} {:>9.3} | {:>9.2} {:>7.2}",
            r.workload, r.config, r.edp_mj_ms, r.edp_ratio, r.slowdown_pct, r.power_saving_pct,
        )?;
    }
    writeln!(out, "{:-<72}", "")?;
    writeln!(
        out,
        "{:<10} | {:>11} {:>6} {:>11}  (memory-bound frontier, MPKI > {MEMORY_BOUND_MPKI})",
        "twin", "dual EDP", "best d", "best EDP"
    )?;
    for f in &report.frontier {
        writeln!(
            out,
            "{:<10} | {:>11.4} {:>6} {:>11.4}{}",
            f.workload,
            f.dual_edp_mj_ms,
            f.best_depth,
            f.best_edp_mj_ms,
            if f.deep_ladder_wins {
                "  << depth > 2 beats the paper's rails"
            } else {
                ""
            }
        )?;
    }
    let (saving, slowdown) = (&report.mean_saving_pct, &report.mean_slowdown_pct);
    writeln!(
        out,
        "mean over memory-bound twins: saved% ladder {:.2} / dual {:.2} / immediate {:.2}; \
         slowdown% ladder {:.2} / dual {:.2} / immediate {:.2}",
        saving.best_ladder,
        saving.dual_fsm,
        saving.immediate_down,
        slowdown.best_ladder,
        slowdown.dual_fsm,
        slowdown.immediate_down,
    )?;
    writeln!(
        out,
        "deep ladder wins somewhere: {}; \
         savings ordering (ladder >= dual on saving, dual <= immediate on slowdown): {}",
        report.deep_ladder_wins_somewhere, report.savings_ordering_holds
    )
}
