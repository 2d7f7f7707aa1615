//! **traffic**: the offered-load vs tail-latency vs power-saving
//! frontier under open-loop service traffic (`BENCH_traffic.json`).
//!
//! The question: DVS power savings are free in closed loop (the twin
//! just takes a little longer), but under an open-loop request stream
//! the lost capacity surfaces as queueing — so at what offered load
//! does `dual-fsm`'s tail latency part ways with `always-high`'s? Two
//! phases, on `mcf` with 1000-instruction requests and a 2 % per-read
//! error rate at VDDL (which exercises `error-backoff`):
//!
//! 1. **Closed loop** — the grid: one traffic-free cell per policy
//!    measures IPC (→ service capacity in requests/µs) and the power
//!    saving each policy earns on the twin.
//! 2. **Load scan** — a second sweep, sized from that capacity: MMPP
//!    burst trains whose ON-phase rate sweeps across the capacity band.
//!    Per point and policy: request p50/p99/p999, backlog, power
//!    saving. The point's SLO ceilings are the midpoints of the
//!    `always-high` and `dual-fsm` p99s and p999s — `tension` marks
//!    the points where `always-high` meets a ceiling that `dual-fsm`
//!    violates (p99 or p999) while `dual-fsm` still keeps at least half
//!    of its closed-loop saving (traffic is pure accounting, so the
//!    saving is retained exactly; the report measures rather than
//!    assumes it). DVS capacity loss is a few percent, so the gap
//!    surfaces first at the extreme tail: the deepest-burst victims pay
//!    the slower drain, and the p999 ceiling is where the policies part
//!    ways.

use std::fmt::{self, Write as _};

use vsv::{Comparison, Experiment, PolicySpec, RunResult, Sweep, SystemConfig, TrafficSpec};
use vsv_workloads::twin;

use super::{Artifact, ERROR_SEED};
use crate::sweep::failure_summary;

/// The twin under load.
const TWIN: &str = "mcf";

/// Per-read error probability at VDDL.
const ERROR_RATE: f64 = 0.02;

/// Committed instructions per request.
const REQUEST_SIZE: u64 = 1_000;

/// ON-phase rate as a multiple of `always-high`'s measured capacity:
/// the scan brackets the band where `dual-fsm` saturates first.
const LOAD_MULTIPLIERS: [f64; 5] = [0.70, 0.85, 0.95, 1.05, 1.25];

/// MMPP phase lengths: long ON phases let the capacity shortfall
/// accumulate into queueing; OFF phases drain the queue so every
/// burst restarts from the same state.
const ON_NS: u64 = 30_000;
const OFF_NS: u64 = 10_000;

/// The policy labels, in grid order.
const LABELS: [&str; 5] = [
    "disabled",
    "always-high",
    "dual-fsm",
    "ladder-fsm",
    "error-backoff",
];

/// One policy's measurement at one load point.
#[derive(Debug, serde::Serialize)]
struct PolicyAtLoad {
    /// Policy label (`"disabled"`, `"always-high"`, ...).
    policy: String,
    /// Requests arrived / completed in the measured window.
    arrived: u64,
    completed: u64,
    /// Requests still queued when the window closed.
    backlog: u64,
    /// Request end-to-end latency percentiles (log2-bucket upper
    /// edges, ns).
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    /// Average-power saving vs. the in-point disabled baseline (%).
    power_saving_pct: f64,
    /// `power_saving_pct` over the policy's closed-loop saving
    /// (1.0 = fully retained; traffic is pure accounting so this is
    /// exact, not approximate).
    saving_retention: f64,
}

/// One offered-load point of the scan.
#[derive(Debug, serde::Serialize)]
struct LoadPoint {
    /// ON-phase rate as a multiple of `always-high` capacity.
    load_multiplier: f64,
    /// ON-phase arrival rate (requests/µs).
    burst_rate_per_us: f64,
    /// OFF-phase arrival rate (requests/µs).
    off_rate_per_us: f64,
    /// The point's tail-latency SLO ceilings: midpoints of the
    /// `always-high` and `dual-fsm` p99s / p999s (ns).
    slo_p99_ns: u64,
    slo_p999_ns: u64,
    /// `always-high` meets a ceiling (p99 or p999) that `dual-fsm`
    /// violates, and `dual-fsm` keeps >= half its closed-loop power
    /// saving.
    tension: bool,
    /// Per-policy measurements, in `LABELS` order.
    policies: Vec<PolicyAtLoad>,
}

/// One policy's closed-loop (traffic-free) reference run.
#[derive(Debug, serde::Serialize)]
struct ClosedLoop {
    /// Policy label.
    policy: String,
    /// Measured IPC (instructions per ns).
    ipc: f64,
    /// Service capacity for `request_size`-instruction requests
    /// (requests/µs).
    capacity_per_us: f64,
    /// Average-power saving vs. the disabled baseline (%).
    power_saving_pct: f64,
}

/// The `BENCH_traffic.json` report.
#[derive(Debug, serde::Serialize)]
struct Report {
    /// Twin under load.
    workload: String,
    /// Measured instructions per run.
    instructions_per_run: u64,
    /// Warm-up instructions per run.
    warmup_per_run: u64,
    /// Per-read error probability at VDDL.
    error_rate: f64,
    /// Committed instructions per request.
    request_size: u64,
    /// MMPP phase lengths (ns).
    on_ns: u64,
    off_ns: u64,
    /// Phase-1 traffic-free reference runs.
    closed_loop: Vec<ClosedLoop>,
    /// Phase-2 offered-load scan.
    points: Vec<LoadPoint>,
    /// True when at least one load point shows the SLO tension:
    /// `always-high` compliant, `dual-fsm` in violation with >= half
    /// its closed-loop saving intact.
    tension_holds_somewhere: bool,
}

/// The policies, each with the error model. `ladder-fsm` and
/// `error-backoff` run on a depth-4 ladder, as in `reliability` (two
/// rails degenerate the backoff rung).
fn configs() -> [SystemConfig; 5] {
    [
        SystemConfig::baseline(),
        SystemConfig::with_policy(PolicySpec::AlwaysHigh),
        SystemConfig::with_policy(PolicySpec::DualFsm),
        SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4),
        SystemConfig::with_policy(PolicySpec::ErrorBackoff).with_ladder_depth(4),
    ]
    .map(|c| c.with_error_rate(ERROR_RATE).with_error_seed(ERROR_SEED))
}

/// Phase 1: every policy on the twin, traffic-free.
pub(super) fn grid(e: Experiment) -> Sweep {
    let params = twin(TWIN).expect("the traffic twin is in the suite");
    Sweep::over_grid(e, &[params], &configs())
}

/// Runs phase 2, sized from [`grid`]'s closed-loop capacities, and
/// builds the report.
pub(super) fn build(
    e: &Experiment,
    closed: Vec<RunResult>,
    workers: usize,
) -> Result<Artifact, String> {
    let base = &closed[0];
    let closed_loop: Vec<ClosedLoop> = LABELS
        .iter()
        .zip(&closed)
        .map(|(label, r)| ClosedLoop {
            policy: (*label).to_owned(),
            ipc: r.ipc,
            capacity_per_us: r.ipc * 1_000.0 / REQUEST_SIZE as f64,
            power_saving_pct: Comparison::of(base, r).power_saving_pct,
        })
        .collect();
    let cap_high = closed_loop[1].capacity_per_us;

    // Phase 2: every point's policies on the identical arrival train
    // (the stream is config-independent and re-anchored at measurement
    // start), all points as one sweep.
    let trains = LOAD_MULTIPLIERS.map(|mult| {
        let burst = cap_high * mult;
        (mult, burst, burst / 8.0)
    });
    let loaded: Vec<SystemConfig> = trains
        .iter()
        .flat_map(|&(_, burst, off_rate)| {
            let spec = TrafficSpec::mmpp(off_rate, burst, ON_NS, OFF_NS, REQUEST_SIZE);
            configs().map(|c| c.with_traffic(Some(spec)))
        })
        .collect();
    let params = twin(TWIN).expect("the traffic twin is in the suite");
    let report = Sweep::over_grid(*e, &[params], &loaded).report(workers);
    if let Some(summary) = failure_summary(&report) {
        return Err(summary);
    }
    let runs = report.into_results();
    let mut points: Vec<LoadPoint> = Vec::new();
    for (&(mult, burst, off_rate), results) in trains.iter().zip(runs.chunks(LABELS.len())) {
        let pbase = &results[0];
        let policies: Vec<PolicyAtLoad> = LABELS
            .iter()
            .zip(results)
            .zip(&closed_loop)
            .map(|((label, r), c)| {
                let saving = Comparison::of(pbase, r).power_saving_pct;
                PolicyAtLoad {
                    policy: (*label).to_owned(),
                    arrived: r.requests_arrived,
                    completed: r.requests_completed,
                    backlog: r.request_backlog,
                    p50_ns: r.request_p50_ns,
                    p99_ns: r.request_p99_ns,
                    p999_ns: r.request_p999_ns,
                    power_saving_pct: saving,
                    saving_retention: if c.power_saving_pct.abs() > f64::EPSILON {
                        saving / c.power_saving_pct
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let (high, dual) = (&policies[1], &policies[2]);
        let slo_p99_ns = high.p99_ns.saturating_add(dual.p99_ns) / 2;
        let slo_p999_ns = high.p999_ns.saturating_add(dual.p999_ns) / 2;
        let separated_p99 = high.p99_ns <= slo_p99_ns && dual.p99_ns > slo_p99_ns;
        let separated_p999 = high.p999_ns <= slo_p999_ns && dual.p999_ns > slo_p999_ns;
        points.push(LoadPoint {
            load_multiplier: mult,
            burst_rate_per_us: burst,
            off_rate_per_us: off_rate,
            slo_p99_ns,
            slo_p999_ns,
            tension: (separated_p99 || separated_p999) && dual.saving_retention >= 0.5,
            policies,
        });
    }
    let report = Report {
        workload: TWIN.to_owned(),
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        error_rate: ERROR_RATE,
        request_size: REQUEST_SIZE,
        on_ns: ON_NS,
        off_ns: OFF_NS,
        closed_loop,
        tension_holds_somewhere: points.iter().any(|p| p.tension),
        points,
    };
    Artifact::of(&report, render)
}

/// The closed-loop capacities, then each load point's policies and SLO
/// verdict.
fn render(report: &Report, out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "Traffic SLO frontier: {} policies × (1 + {} load points) on {} \
         ({} insts/run, {} insts/request, error rate {})",
        LABELS.len(),
        report.points.len(),
        report.workload,
        report.instructions_per_run,
        report.request_size,
        report.error_rate,
    )?;
    writeln!(
        out,
        "{:<14} {:>6} {:>9} {:>7}",
        "policy", "IPC", "cap r/µs", "saved%"
    )?;
    writeln!(out, "{:-<40}", "")?;
    for c in &report.closed_loop {
        writeln!(
            out,
            "{:<14} {:>6.3} {:>9.3} {:>7.2}",
            c.policy, c.ipc, c.capacity_per_us, c.power_saving_pct
        )?;
    }
    writeln!(out, "{:-<78}", "")?;
    writeln!(
        out,
        "{:<6} {:<14} | {:>7} {:>9} {:>9} {:>7} | {:>7} {:>6}",
        "load", "policy", "p50 ns", "p99 ns", "p999 ns", "backlog", "saved%", "keep"
    )?;
    let verdict = |violated: bool| if violated { "VIOL" } else { "ok" };
    for point in &report.points {
        for p in &point.policies {
            writeln!(
                out,
                "{:<6.2} {:<14} | {:>7} {:>9} {:>9} {:>7} | {:>7.2} {:>6.2}",
                point.load_multiplier,
                p.policy,
                p.p50_ns,
                p.p99_ns,
                p.p999_ns,
                p.backlog,
                p.power_saving_pct,
                p.saving_retention
            )?;
        }
        let (high, dual) = (&point.policies[1], &point.policies[2]);
        let (p99, p999) = (point.slo_p99_ns, point.slo_p999_ns);
        writeln!(
            out,
            "       => SLO p99 <= {p99} / p999 <= {p999} ns: \
             always-high {}/{}, dual-fsm {}/{}{}",
            verdict(high.p99_ns > p99),
            verdict(high.p999_ns > p999),
            verdict(dual.p99_ns > p99),
            verdict(dual.p999_ns > p999),
            if point.tension { "  << tension" } else { "" }
        )?;
    }
    writeln!(out, "{:-<78}", "")?;
    writeln!(
        out,
        "tension holds somewhere: {}",
        report.tension_holds_somewhere
    )
}
