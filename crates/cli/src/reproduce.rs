//! `reproduce NAME`: every experiment whose output the repository
//! commits, each a name, its committed scale, a grid and what it prints
//! from the grid's results. The paper's Table 2, Figures 4–7, headline
//! and ablations print `results/NAME.txt`; the data artifacts `policy`,
//! `ladder`, `reliability`, `traffic` and `multicore` print a table,
//! and with `--json` the committed `BENCH_NAME.json`.

mod ladder;
mod multicore;
mod policy;
mod reliability;
mod traffic;

use std::fmt::{self, Write as _};

use vsv::{
    mean_comparison, resolve_workers, Comparison, DownPolicy, Experiment, RunResult, Sweep,
    SweepJob, SweepReport, SystemConfig, UpPolicy, VoltageLadder, VsvConfig,
};
use vsv_power::DcgModel;
use vsv_workloads::{
    high_mr_names, spec2k_twins, table2_reference, twin, AccessPattern, WorkloadParams,
};

use crate::sweep::failure_summary;
use crate::Command;

/// Renders an experiment's grid-ordered results as its text.
type Render = fn(&Experiment, &[RunResult], &mut String) -> fmt::Result;

/// Builds a data artifact from its grid's results, making any further
/// runs it needs on the given worker count; `Err` is the failure
/// summary of a run that failed.
type Build = fn(&Experiment, Vec<RunResult>, usize) -> Result<Artifact, String>;

/// What an experiment prints from its grid's results.
enum Output {
    /// A paper table; `--json` prints the grid's `SweepReport`.
    Paper(Render),
    /// A data artifact; `--json` prints its `BENCH_NAME.json`.
    Data(Build),
}

/// One experiment: its committed scale, the grid it runs and what it
/// prints.
pub(crate) struct Reproduction {
    /// The `reproduce NAME` name, and the `results/NAME.txt` or
    /// `BENCH_NAME.json` file.
    pub(crate) name: &'static str,
    /// The committed scale, which `--insts` and `--warmup` override.
    pub(crate) scale: Experiment,
    grid: fn(Experiment) -> Sweep,
    output: Output,
}

/// The scale of every committed result but `traffic`'s.
const STANDARD: Experiment = Experiment {
    warmup_instructions: 100_000,
    instructions: 300_000,
};

/// `traffic`'s scale: enough requests per window for a p999 to
/// separate the policies.
const TRAFFIC: Experiment = Experiment {
    warmup_instructions: 60_000,
    instructions: 240_000,
};

/// Every experiment: the paper's, in its order, then the data
/// artifacts.
#[rustfmt::skip]
static EXPERIMENTS: [Reproduction; 12] = [
    Reproduction { name: "table2", scale: STANDARD, grid: table2_grid, output: Output::Paper(table2) },
    Reproduction { name: "figure4", scale: STANDARD, grid: figure4_grid, output: Output::Paper(figure4) },
    Reproduction { name: "figure5", scale: STANDARD, grid: figure5_grid, output: Output::Paper(figure5) },
    Reproduction { name: "figure6", scale: STANDARD, grid: figure6_grid, output: Output::Paper(figure6) },
    Reproduction { name: "figure7", scale: STANDARD, grid: tk_grid, output: Output::Paper(figure7) },
    Reproduction { name: "headline", scale: STANDARD, grid: tk_grid, output: Output::Paper(headline) },
    Reproduction { name: "ablations", scale: STANDARD, grid: ablations_grid, output: Output::Paper(ablations) },
    Reproduction { name: "policy", scale: STANDARD, grid: policy::grid, output: Output::Data(policy::build) },
    Reproduction { name: "ladder", scale: STANDARD, grid: ladder::grid, output: Output::Data(ladder::build) },
    Reproduction { name: "reliability", scale: STANDARD, grid: reliability::grid, output: Output::Data(reliability::build) },
    Reproduction { name: "traffic", scale: TRAFFIC, grid: traffic::grid, output: Output::Data(traffic::build) },
    Reproduction { name: "multicore", scale: STANDARD, grid: multicore::grid, output: Output::Data(multicore::build) },
];

/// Looks an experiment up by name; an unknown name is a usage error
/// that lists the known ones.
pub(crate) fn find(name: &str) -> Result<&'static Reproduction, String> {
    EXPERIMENTS.iter().find(|r| r.name == name).ok_or_else(|| {
        let names = EXPERIMENTS.iter().map(|r| r.name).collect::<Vec<_>>();
        format!(
            "unknown experiment '{name}'; experiments: {}",
            names.join(", ")
        )
    })
}

/// Executes `reproduce NAME` (dispatched by
/// [`crate::execute_with_exit`]).
pub(crate) fn execute(cmd: Command) -> Result<(String, i32), String> {
    let Command::Reproduce {
        name,
        insts,
        warmup,
        workers,
        json,
        svg,
    } = cmd
    else {
        unreachable!("execute_with_exit dispatches only reproduce here");
    };
    let e = Experiment {
        warmup_instructions: warmup,
        instructions: insts,
    };
    let experiment = find(&name).expect("Command::parse validated the name");
    let workers = resolve_workers(workers);
    let report = (experiment.grid)(e).report(workers);
    experiment.finish(&e, report, workers, json, svg.as_deref())
}

/// A data artifact's two printed forms.
pub(crate) struct Artifact {
    text: String,
    json: String,
}

impl Artifact {
    /// `report` rendered as text and as pretty JSON (no trailing
    /// newline, the form of the committed `BENCH_NAME.json`).
    fn of<R: serde::Serialize>(
        report: &R,
        render: fn(&R, &mut String) -> fmt::Result,
    ) -> Result<Self, String> {
        let mut text = String::new();
        render(report, &mut text).expect("formatting into a String cannot fail");
        let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
        Ok(Artifact { text, json })
    }
}

/// Baseline MPKI above which a twin counts as memory-bound in the data
/// artifacts.
const MEMORY_BOUND_MPKI: f64 = 4.0;

/// Counter-PRNG seed of the error model in the data artifacts (fixed:
/// each is a deterministic artifact).
const ERROR_SEED: u64 = 42;

impl Reproduction {
    /// Turns a finished report into the printed text and exit code: a
    /// paper experiment's `--json` report, else the failure summary
    /// (exit 1) when a cell failed, else the experiment's text (or a
    /// data artifact's JSON), after writing figure 4's charts into
    /// `svg` (which `Command::parse` accepts for figure4 alone). A data
    /// artifact's SLO verdicts are its data, not an exit code.
    fn finish(
        &self,
        e: &Experiment,
        report: SweepReport,
        workers: usize,
        json: bool,
        svg: Option<&str>,
    ) -> Result<(String, i32), String> {
        let code = i32::from(report.failed_jobs() > 0);
        let render = match self.output {
            Output::Paper(_) if json => {
                let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
                return Ok((text, code));
            }
            Output::Paper(render) => render,
            Output::Data(build) => {
                let built = failure_summary(&report)
                    .map_or_else(|| build(e, report.into_results(), workers), Err);
                return Ok(match built {
                    Ok(artifact) if json => (artifact.json, 0),
                    Ok(artifact) => (artifact.text, 0),
                    Err(summary) => (summary, 1),
                });
            }
        };
        if let Some(summary) = failure_summary(&report) {
            return Ok((summary, code));
        }
        let runs = report.into_results();
        let mut out = String::new();
        render(e, &runs, &mut out).expect("formatting into a String cannot fail");
        if let Some(dir) = svg {
            debug_assert_eq!(self.name, "figure4", "--svg draws figure4 only");
            std::fs::create_dir_all(dir).map_err(|e| format!("--svg {dir}: {e}"))?;
            for (file, chart) in figure4_charts(&runs) {
                let path = std::path::Path::new(dir).join(file);
                std::fs::write(&path, chart).map_err(|e| format!("{}: {e}", path.display()))?;
            }
            out.push_str(&format!("(svg written to {dir}/figure4_*.svg)\n"));
        }
        Ok((out, code))
    }
}

/// The high-MR twins (Table 2 MR above 4), in suite order.
fn high_mr_twins() -> Vec<WorkloadParams> {
    let lookup = |name: &&str| twin(name).expect("high-MR name is in the suite");
    high_mr_names().iter().map(lookup).collect()
}

/// Each variant cell of a grid row compared against the row's first,
/// baseline cell.
fn against_baseline(row: &[RunResult]) -> Vec<Comparison> {
    let base = &row[0];
    row[1..].iter().map(|r| Comparison::of(base, r)).collect()
}

/// Mean comparisons of two columns over the high-MR (MR > 4) rows and
/// over all rows: `[high a, high b, all a, all b]`.
fn means(rows: impl Iterator<Item = (f64, Comparison, Comparison)>) -> [Comparison; 4] {
    let mut columns: [Vec<Comparison>; 4] = Default::default();
    for (mr, a, b) in rows {
        if mr > 4.0 {
            columns[0].push(a);
            columns[1].push(b);
        }
        columns[2].push(a);
        columns[3].push(b);
    }
    columns.map(|cs| mean_comparison(&cs))
}

/// **Table 2**: every twin under { baseline, baseline + Time-Keeping }.
fn table2_grid(e: Experiment) -> Sweep {
    let base = SystemConfig::baseline();
    Sweep::over_grid(e, &spec2k_twins(), &[base, base.with_timekeeping(true)])
}

/// Baseline IPC and L2 demand misses per 1000 instructions (MR), with
/// and without Time-Keeping prefetching, for all 26 SPEC2K twins.
fn table2(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let (insts, warmup) = (e.instructions, e.warmup_instructions);
    writeln!(
        out,
        "Table 2: baseline statistics ({insts} insts measured, {warmup} warm-up)\n\
         bench           IPC     IPC* |       MR      MR* |   MR(TK)  MR(TK)*"
    )?;
    writeln!(
        out,
        "              (sim)  (paper) |    (sim)  (paper) |    (sim)  (paper)"
    )?;
    writeln!(out, "{:-<72}", "")?;
    let refs = table2_reference();
    for ((params, paper), pair) in spec2k_twins().iter().zip(&refs).zip(runs.chunks(2)) {
        let (base, tk) = (&pair[0], &pair[1]);
        writeln!(
            out,
            "{:<10} {:>8.2} {:>8.2} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1}",
            params.name, base.ipc, paper.ipc_base, base.mpki, paper.mr_base, tk.mpki, paper.mr_tk
        )?;
    }
    writeln!(out, "{:-<72}", "")?;
    writeln!(
        out,
        "* = paper's Table 2 value. Shape, not absolute match, is the goal."
    )
}

/// **Figure 4**: every twin under baseline / VSV-no-FSM / VSV-FSM.
fn figure4_grid(e: Experiment) -> Sweep {
    let configs = [
        SystemConfig::baseline(),
        SystemConfig::vsv_without_fsms(),
        SystemConfig::vsv_with_fsms(),
    ];
    Sweep::over_grid(e, &spec2k_twins(), &configs)
}

/// Figure 4's rows, sorted by decreasing MR as in the paper: twin and
/// (baseline MR, VSV without the FSMs, VSV with them).
fn figure4_rows(runs: &[RunResult]) -> Vec<(&'static str, (f64, Comparison, Comparison))> {
    let row = |(params, triple): (&WorkloadParams, &[RunResult])| {
        let (base, no_fsm, fsm) = (&triple[0], &triple[1], &triple[2]);
        let cs = (Comparison::of(base, no_fsm), Comparison::of(base, fsm));
        (params.name, (base.mpki, cs.0, cs.1))
    };
    let mut rows: Vec<_> = spec2k_twins().iter().zip(runs.chunks(3)).map(row).collect();
    rows.sort_by(|(_, (a, ..)), (_, (b, ..))| b.partial_cmp(a).expect("MR is finite"));
    rows
}

/// VSV's performance degradation and total CPU power savings, with and
/// without the FSMs, for all 26 twins sorted by decreasing MR.
fn figure4(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let insts = e.instructions;
    writeln!(
        out,
        "Figure 4: VSV with vs. without the FSMs ({insts} insts measured)\n\
         bench          MR | perf% noFSM   perf% FSM | power% noFSM  power% FSM"
    )?;
    writeln!(out, "{:-<72}", "")?;
    let rows = figure4_rows(runs);
    for (name, (mr, no, fsm)) in &rows {
        let (p_no, p_fsm) = (no.perf_degradation_pct, fsm.perf_degradation_pct);
        let (w_no, w_fsm) = (no.power_saving_pct, fsm.power_saving_pct);
        writeln!(
            out,
            "{name:<10} {mr:>6.1} | {p_no:>11.1} {p_fsm:>11.1} | {w_no:>11.1} {w_fsm:>11.1}"
        )?;
    }
    writeln!(out, "{:-<72}", "")?;
    let [no_high, fsm_high, no_all, fsm_all] = means(rows.iter().map(|r| r.1));
    for (label, no, fsm) in [
        ("high-MR (>4) means", no_high, fsm_high),
        ("all-suite means   ", no_all, fsm_all),
    ] {
        writeln!(
            out,
            "{label} : noFSM {:.1}% perf / {:.1}% power ; FSM {:.1}% perf / {:.1}% power",
            no.perf_degradation_pct,
            no.power_saving_pct,
            fsm.perf_degradation_pct,
            fsm.power_saving_pct
        )?;
    }
    writeln!(
        out,
        "paper (Fig.4/§6.1) : noFSM ~12% perf / ~33% power (high-MR); \
         FSM ~2% perf / ~21% power (high-MR), ~1% / ~7% (all)"
    )
}

/// Figure 4's two bar charts: power savings (bottom) and performance
/// degradation (top), without and with the FSMs.
fn figure4_charts(runs: &[RunResult]) -> Vec<(&'static str, String)> {
    let rows = figure4_rows(runs);
    let chart = |title: &str, metric: fn(&Comparison) -> f64| {
        let no: Vec<_> = rows.iter().map(|(n, r)| (*n, metric(&r.1))).collect();
        let fsm: Vec<_> = rows.iter().map(|(n, r)| (*n, metric(&r.2))).collect();
        let chart = vsv_viz::GroupedBarChart::new(title).series("without FSMs", &no);
        chart.series("with FSMs", &fsm).render()
    };
    let power = chart("CPU power savings (%) — Figure 4 bottom", |c| {
        c.power_saving_pct
    });
    let perf = chart("performance degradation (%) — Figure 4 top", |c| {
        c.perf_degradation_pct
    });
    vec![("figure4_power.svg", power), ("figure4_perf.svg", perf)]
}

/// The high-MR twins under baseline + VSV with the FSMs at each
/// (down, up) policy pair (`vsv_with_fsms` monitors both at 3/10).
fn high_mr_grid(e: Experiment, policies: &[(DownPolicy, UpPolicy)]) -> Sweep {
    let mut configs = vec![SystemConfig::baseline()];
    for &(down, up) in policies {
        let mut cfg = SystemConfig::vsv_with_fsms();
        (cfg.vsv.down, cfg.vsv.up) = (down, up);
        configs.push(cfg);
    }
    Sweep::over_grid(e, &high_mr_twins(), &configs)
}

/// **Figure 5**: the high-to-low threshold at 0 (transition on the
/// detection event itself), 1, 3 and 5 zero-issue cycles in a 10-cycle
/// window, with the up-FSM fixed at 3/10 as in §6.2.
fn figure5_grid(e: Experiment) -> Sweep {
    let down = |threshold| match threshold {
        0 => DownPolicy::Immediate,
        t => DownPolicy::Monitor {
            threshold: t,
            period: 10,
        },
    };
    let policies = [0, 1, 3, 5].map(|t| (down(t), UpPolicy::default_monitor()));
    high_mr_grid(e, &policies)
}

/// The effect of the high-to-low monitoring threshold on the high-MR
/// twins.
fn figure5(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let insts = e.instructions;
    writeln!(
        out,
        "Figure 5: down-FSM threshold sweep on high-MR twins ({insts} insts)\n\
         bench      |     perf degradation % |         power saving %"
    )?;
    writeln!(
        out,
        "           |  t=0   t=1   t=3   t=5 |  t=0   t=1   t=3   t=5"
    )?;
    writeln!(out, "{:-<64}", "")?;
    for (params, row) in high_mr_twins().iter().zip(runs.chunks(5)) {
        let cs = against_baseline(row);
        let perf: Vec<f64> = cs.iter().map(|c| c.perf_degradation_pct).collect();
        let power: Vec<f64> = cs.iter().map(|c| c.power_saving_pct).collect();
        writeln!(
            out,
            "{:<10} | {:>4.1} {:>5.1} {:>5.1} {:>5.1} | {:>4.1} {:>5.1} {:>5.1} {:>5.1}",
            params.name, perf[0], perf[1], perf[2], perf[3], power[0], power[1], power[2], power[3]
        )?;
    }
    writeln!(out, "{:-<64}", "")?;
    writeln!(
        out,
        "paper shape: low thresholds save more power but degrade more;\n\
         threshold 3 is the best trade-off (degradation <5%, most of the power)."
    )
}

/// **Figure 6**: the low-to-high policy — First-R, monitored thresholds
/// 1/3/5 (10 half-speed-cycle window), Last-R — with the down-FSM fixed
/// at 3/10 as in §6.3.
fn figure6_grid(e: Experiment) -> Sweep {
    let monitor = |threshold| UpPolicy::Monitor {
        threshold,
        period: 10,
    };
    let mut ups = vec![UpPolicy::FirstReturn];
    ups.extend([1, 3, 5].map(monitor));
    ups.push(UpPolicy::LastReturn);
    let down = DownPolicy::default_monitor();
    high_mr_grid(e, &ups.into_iter().map(|up| (down, up)).collect::<Vec<_>>())
}

/// The effect of the low-to-high policy on the high-MR twins.
fn figure6(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let insts = e.instructions;
    let labels = " First-R     t=1     t=3     t=5  Last-R";
    writeln!(
        out,
        "Figure 6: up-policy sweep on high-MR twins ({insts} insts)\n\
         bench      |{labels} |{labels}"
    )?;
    let (perf, power) = ("perf degradation %", "power saving %");
    writeln!(out, "{:<10} | {perf:^39} | {power:^39}", "")?;
    writeln!(out, "{:-<96}", "")?;
    for (params, row) in high_mr_twins().iter().zip(runs.chunks(6)) {
        let cs = against_baseline(row);
        let cells = |pct: fn(&Comparison) -> f64| -> String {
            cs.iter().map(|c| format!(" {:>7.1}", pct(c))).collect()
        };
        let perf = cells(|c| c.perf_degradation_pct);
        let power = cells(|c| c.power_saving_pct);
        writeln!(out, "{:<10} |{perf} |{power}", params.name)?;
    }
    writeln!(out, "{:-<96}", "")?;
    writeln!(
        out,
        "paper shape: Last-R saves the most power but degrades the most;\n\
         First-R the reverse; the monitor approaches Last-R's power at\n\
         First-R-like degradation, with threshold 3 the sweet spot."
    )
}

/// **Figure 7** and the **headline**: every twin under {baseline, VSV}
/// x {no TK, TK} (§6.4: TK goes on both the baseline and the VSV run).
fn tk_grid(e: Experiment) -> Sweep {
    let (base, vsv) = (SystemConfig::baseline(), SystemConfig::vsv_with_fsms());
    let tk = |c: SystemConfig| c.with_timekeeping(true);
    Sweep::over_grid(e, &spec2k_twins(), &[base, vsv, tk(base), tk(vsv)])
}

/// One twin's `tk_grid` cells as ((baseline MR, VSV without TK, VSV
/// with TK), baseline MR with TK).
fn tk_row(quad: &[RunResult]) -> ((f64, Comparison, Comparison), f64) {
    let (base, vsv, base_tk, vsv_tk) = (&quad[0], &quad[1], &quad[2], &quad[3]);
    let (plain, tk) = (Comparison::of(base, vsv), Comparison::of(base_tk, vsv_tk));
    ((base.mpki, plain, tk), base_tk.mpki)
}

/// VSV's savings with and without Time-Keeping prefetching, for all 26
/// twins sorted by decreasing MR.
fn figure7(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let insts = e.instructions;
    writeln!(
        out,
        "Figure 7: impact of Time-Keeping prefetching on VSV ({insts} insts)\n\
         bench          MR MR(TK) |      perf%  perf%(TK) |     power% power%(TK)"
    )?;
    writeln!(out, "{:-<72}", "")?;
    let mut rows: Vec<_> = spec2k_twins()
        .iter()
        .zip(runs.chunks(4))
        .map(|(params, quad)| (params.name, tk_row(quad)))
        .collect();
    rows.sort_by(|(_, ((a, ..), _)), (_, ((b, ..), _))| b.partial_cmp(a).expect("MR is finite"));
    for (name, ((mr, plain, tk), mr_tk)) in &rows {
        let (p, p_tk) = (plain.perf_degradation_pct, tk.perf_degradation_pct);
        let (w, w_tk) = (plain.power_saving_pct, tk.power_saving_pct);
        writeln!(
            out,
            "{name:<10} {mr:>6.1} {mr_tk:>6.1} | {p:>10.1} {p_tk:>10.1} | {w:>10.1} {w_tk:>10.1}"
        )?;
    }
    writeln!(out, "{:-<72}", "")?;
    let [plain_high, tk_high, plain_all, tk_all] = means(rows.iter().map(|(_, (r, _))| *r));
    for (label, plain, tk) in [
        ("high-MR means", plain_high, tk_high),
        ("all-suite    ", plain_all, tk_all),
    ] {
        writeln!(
            out,
            "{label}: no-TK {:.1}%p / {:.1}%w ; TK {:.1}%p / {:.1}%w",
            plain.perf_degradation_pct,
            plain.power_saving_pct,
            tk.perf_degradation_pct,
            tk.power_saving_pct
        )?;
    }
    writeln!(
        out,
        "paper (§6.4): high-MR 20.7%w → 12.1%w with TK (degradation ~2.1% both);\n\
         all-suite 7.0%w → 4.1%w. TK shrinks but does not remove VSV's opportunity."
    )
}

/// The paper's headline numbers (abstract / §6.1 / §6.4): the mean
/// power saving and degradation of VSV with the FSMs over the high-MR
/// twins and the suite, without and with Time-Keeping.
fn headline(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let [plain_high, tk_high, plain_all, tk_all] = means(runs.chunks(4).map(|q| tk_row(q).0));
    let insts = e.instructions;
    writeln!(
        out,
        "Headline reproduction ({insts} insts measured per run)\n\
         configuration                    power%      paper |      perf%      paper"
    )?;
    writeln!(out, "{:-<76}", "")?;
    for (label, got, paper_power, paper_perf) in [
        ("VSV (FSMs), high-MR", plain_high, 20.7, 2.0),
        ("VSV (FSMs), all", plain_all, 7.0, 0.9),
        ("VSV + TimeKeeping, high-MR", tk_high, 12.1, 2.1),
        ("VSV + TimeKeeping, all", tk_all, 4.1, 0.9),
    ] {
        let (power, perf) = (got.power_saving_pct, got.perf_degradation_pct);
        writeln!(
            out,
            "{label:<28} {power:>10.1} {paper_power:>10.1} | {perf:>10.1} {paper_perf:>10.1}"
        )?;
    }
    writeln!(out, "{:-<76}", "")
}

/// One ablation table: its title, the label columns' header and the
/// width of the rule under it, the workloads each row runs (a table
/// over one dedicated workload also prints its baseline MR), and its
/// (label columns, variant configuration) rows.
struct Ablation {
    title: &'static str,
    header: (&'static str, usize),
    workloads: Vec<WorkloadParams>,
    rows: Vec<(String, SystemConfig)>,
}

/// An ablation row: its label column and the paper's VSV-with-FSMs
/// configuration with one knob changed.
fn variant(
    label: impl fmt::Display,
    edit: impl FnOnce(&mut SystemConfig),
) -> (String, SystemConfig) {
    let mut cfg = SystemConfig::vsv_with_fsms();
    edit(&mut cfg);
    (format!("{label:>12}"), cfg)
}

/// The L2-capacity workload. The suite's high-MR working sets dwarf
/// any realistic L2 and never lap inside a measurement window, so the
/// capacity sweep uses a dedicated 1 MB stream re-visited every ~120 k
/// instructions: it fits the 2 MB and 8 MB L2s but not the 512 KB one.
fn l2_sweep() -> WorkloadParams {
    let mut p = WorkloadParams::compute_bound("l2-sweep");
    p.working_set_bytes = 1024 * 1024;
    p.mem_fraction = 0.5;
    p.store_ratio = 0.2;
    p.far_fraction = 0.8;
    p.pattern = AccessPattern::Streaming;
    p.miss_dependency = 1.0;
    p.ilp_chains = 2;
    p
}

/// The ablation tables, in print order: sensitivity sweeps the paper
/// motivates but does not plot.
fn ablation_tables() -> Vec<Ablation> {
    let high_mr = high_mr_twins();
    let table = |title, header, rows: &[_]| {
        let (workloads, rows) = (high_mr.clone(), rows.to_vec());
        Ablation {
            title,
            header,
            workloads,
            rows,
        }
    };
    // The paper derives a 0.2 V/ns stability limit and conservatively
    // uses 0.05 V/ns (12 ns ramps), §3.2.
    let ramp = [0.15, 0.05, 0.025, 0.0125].map(|rate| {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.tech.ramp_rate_v_per_ns = rate;
        cfg.power.tech.ramp_rate_v_per_ns = rate;
        (format!("{rate:>12} {:>9}", cfg.vsv.ramp_ns()), cfg)
    });
    let window = [5, 10, 20].map(|period| {
        variant(period, |c| {
            c.vsv.down = DownPolicy::Monitor {
                threshold: 3,
                period,
            };
            c.vsv.up = UpPolicy::Monitor {
                threshold: 3,
                period,
            };
        })
    });
    // The paper picks 1.2 V for a clean half-speed clock (§3.1). The
    // clock stays at half speed, so below ~1.1 V this is a power-only
    // what-if; the two rails are rebuilt so the controller really
    // dives to each VDDL.
    let vddl = [1.0, 1.2, 1.4, 1.6].map(|vddl| {
        variant(format!("{vddl:.1}"), |c| {
            (c.vsv.tech.vddl, c.power.tech.vddl) = (vddl, vddl);
            c.vsv.ladder = VoltageLadder::paper_rails(&c.vsv.tech);
        })
    });
    // Without DCG the baseline wastes more idle power, so VSV's
    // relative savings grow (§6.1).
    let dcg = [
        ("off", false, DcgModel::PerStructure),
        ("structure", true, DcgModel::PerStructure),
        ("per-unit", true, DcgModel::PerUnit),
    ]
    .map(|(label, on, model)| {
        variant(label, |c| {
            (c.power.dcg_enabled, c.power.dcg_model) = (on, model)
        })
    });
    let dram = [50, 100, 200, 400].map(|ns| variant(ns, |c| c.mem.dram.latency_ns = ns));
    let l2 = [("512 KB", 512), ("2 MB", 2048), ("8 MB", 8192)]
        .map(|(label, kb)| variant(label, |c| c.mem.l2.capacity_bytes = kb * 1024));
    let leakage = [("off", 0.0), ("4 W", 4.0), ("8 W", 8.0)]
        .map(|(label, w)| variant(label, |c| c.power = c.power.with_leakage(w)));
    vec![
        table(
            "ramp-rate sensitivity (paper: 0.05 V/ns -> 12 ns ramps)",
            ("  dV/dt V/ns   ramp ns", 44),
            &ramp,
        ),
        table(
            "monitoring-window sensitivity (paper: 10 cycles)",
            ("      window", 34),
            &window,
        ),
        table(
            "VDDL what-if (paper: 1.2 V; clock fixed at half speed)",
            ("    VDDL (V)", 34),
            &vddl,
        ),
        table(
            "deterministic clock gating interaction (§6.1)",
            ("         DCG", 34),
            &dcg,
        ),
        table(
            "memory-latency sensitivity (the memory wall deepens)",
            ("     DRAM ns", 34),
            &dram,
        ),
        Ablation {
            workloads: vec![l2_sweep()],
            ..table(
                "L2-capacity sensitivity (1 MB re-visited stream)",
                ("          L2 |     MR", 44),
                &l2,
            )
        },
        table(
            "leakage extension (paper models dynamic power only)",
            ("     leakage", 34),
            &leakage,
        ),
    ]
}

/// **Ablations**: every table's rows, each a (VSV off, variant) pair
/// per workload, as one job list.
fn ablations_grid(e: Experiment) -> Sweep {
    let mut jobs = Vec::new();
    for table in ablation_tables() {
        for (_, variant) in table.rows {
            let mut base = variant;
            base.vsv = VsvConfig::disabled();
            for &params in &table.workloads {
                jobs.extend([base, variant].map(|config| SweepJob { params, config }));
            }
        }
    }
    Sweep::new(e, jobs)
}

/// The ablation tables, each row the mean comparison of its pairs.
fn ablations(e: &Experiment, runs: &[RunResult], out: &mut String) -> fmt::Result {
    let insts = e.instructions;
    writeln!(
        out,
        "Ablations over the high-MR twins ({insts} insts measured per run)"
    )?;
    let mut pairs = runs.chunks(2);
    for table in ablation_tables() {
        let (header, width) = table.header;
        writeln!(
            out,
            "\n-- {} --\n{header} | {:>8} {:>8}",
            table.title, "power%", "perf%"
        )?;
        writeln!(out, "{:-<width$}", "")?;
        for (label, _) in &table.rows {
            let cells: Vec<&[RunResult]> = pairs.by_ref().take(table.workloads.len()).collect();
            let cs: Vec<_> = cells.iter().map(|p| Comparison::of(&p[0], &p[1])).collect();
            let c = mean_comparison(&cs);
            // A table over one dedicated workload also shows its MR.
            let mr = match cells[..] {
                [pair] => format!(" {:>6.1} |", pair[0].mpki),
                _ => String::new(),
            };
            let (power, perf) = (c.power_saving_pct, c.perf_degradation_pct);
            writeln!(out, "{label} |{mr} {power:>8.1} {perf:>8.1}")?;
        }
    }
    writeln!(
        out,
        "\nshapes: slower ramps spend longer at reduced voltage *and* at\n\
         half speed, so they raise both savings and degradation — the\n\
         paper's 12 ns point sits near the knee. The window barely\n\
         matters because the level-triggered miss signal keeps the\n\
         monitor armed while misses are outstanding (DESIGN.md §7.1).\n\
         Deeper VDDL saves more until timing would fail. Without DCG the\n\
         baseline wastes more idle power, so VSV's relative savings grow\n\
         — the paper's argument that VSV still pays on top of clock\n\
         gating, seen from the other side."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vddl_row_validates_and_dives_to_its_vddl() {
        let tables = ablation_tables();
        let vddl = tables
            .iter()
            .find(|t| t.title.starts_with("VDDL"))
            .expect("VDDL table");
        assert_eq!(vddl.rows.len(), 4);
        for ((_, cfg), want) in vddl.rows.iter().zip([1.0, 1.2, 1.4, 1.6]) {
            cfg.validate().expect("VDDL row validates");
            let ladder = cfg.vsv.ladder;
            assert_eq!(ladder.voltage(ladder.bottom()), want);
            assert_eq!(cfg.vsv.tech.vddl, want);
            assert_eq!(cfg.power.tech.vddl, want);
        }
    }

    #[test]
    fn a_failed_cell_prints_the_failure_summary_and_exits_1() {
        let e = Experiment {
            warmup_instructions: 1_000,
            instructions: 3_000,
        };
        let figure5 = find("figure5").expect("known experiment");
        let mut sweep = (figure5.grid)(e);
        let cells = sweep.len();
        sweep.jobs_mut()[1].config.inject_fault = Some(vsv::FaultKind::Deadlock);
        let report = sweep.report(2);
        let (json, code) = figure5
            .finish(&e, report.clone(), 2, true, None)
            .expect("json");
        assert_eq!(code, 1);
        assert!(json.contains("Deadlock"), "{json}");
        let (text, code) = figure5.finish(&e, report, 2, false, None).expect("text");
        assert_eq!(code, 1);
        assert!(
            text.contains(&format!("1 of {cells} sweep cells failed")),
            "{text}"
        );
        assert!(text.contains("cell #1"), "{text}");
    }

    #[test]
    fn a_data_artifact_with_a_failed_cell_prints_the_failure_summary_in_both_forms() {
        let e = Experiment {
            warmup_instructions: 1_000,
            instructions: 3_000,
        };
        let traffic = find("traffic").expect("known experiment");
        let mut sweep = (traffic.grid)(e);
        sweep.jobs_mut()[2].config.inject_fault = Some(vsv::FaultKind::Deadlock);
        let report = sweep.report(2);
        for json in [false, true] {
            let (out, code) = traffic
                .finish(&e, report.clone(), 2, json, None)
                .expect("a summary");
            assert_eq!(code, 1);
            assert!(out.starts_with("1 of 5 sweep cells failed:\n"), "{out}");
            assert!(out.contains("cell #2 (mcf)"), "{out}");
        }
    }

    #[test]
    fn figure4_svg_writes_both_charts_after_its_text() {
        let dir = std::env::temp_dir().join(format!("vsv-cli-figure4-svg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = Experiment {
            warmup_instructions: 1_000,
            instructions: 3_000,
        };
        let figure4 = find("figure4").expect("known experiment");
        let report = (figure4.grid)(e).report(2);
        let svg = dir.display().to_string();
        let (text, code) = figure4
            .finish(&e, report, 2, false, Some(&svg))
            .expect("text");
        assert_eq!(code, 0);
        assert!(
            text.ends_with(&format!("(svg written to {svg}/figure4_*.svg)\n")),
            "{text}"
        );
        for file in ["figure4_power.svg", "figure4_perf.svg"] {
            let chart = std::fs::read_to_string(dir.join(file)).expect("chart written");
            assert!(chart.starts_with("<svg"), "{file}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
