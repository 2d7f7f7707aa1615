//! Argument parsing and command execution for `vsv-cli`.
//!
//! Hand-rolled parsing (no CLI dependency): the grammar is small and
//! fixed. See [`Command::parse`] for the accepted forms and the
//! binary's `--help` output for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod grid;
mod reproduce;
mod sweep;
mod trace;

pub use grid::GridSpec;

use grid::{
    parse_cores, parse_fault, parse_ladder_depth, parse_number, parse_policy, parse_shard,
    parse_slo, parse_traffic,
};
use vsv::PolicySpec;
use vsv_workloads::{spec2k_twins, table2_reference};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the twins with their generator parameters alongside the
    /// paper's Table 2 targets.
    Workloads {
        /// Core count to describe: above 1, each twin row is followed
        /// by its per-core seed/stream breakdown (what a multicore
        /// run actually executes).
        cores: usize,
    },
    /// Run baseline vs. VSV-with-FSMs and print the paper metrics.
    /// With `--policies`, run baseline vs. each named DVS policy and
    /// print a per-policy energy/EDP/slowdown table.
    Compare {
        /// Twin name.
        twin: String,
        /// DVS policies to compare against the baseline (empty: the
        /// classic two-sided compare against `dual-fsm`).
        policies: Vec<PolicySpec>,
        /// Voltage-ladder depths to compare (one `ladder-fsm` row per
        /// depth; empty: no ladder axis). Mutually exclusive with
        /// `policies`.
        ladders: Vec<usize>,
        /// Core counts to compare (one baseline-vs-`dual-fsm` pair per
        /// count; empty: no multicore axis). Mutually exclusive with
        /// `policies` and `ladders`.
        cores: Vec<usize>,
        /// Attach Time-Keeping to both sides.
        timekeeping: bool,
        /// Measured instructions.
        insts: u64,
        /// Warm-up instructions.
        warmup: u64,
        /// Worker threads (0 = `VSV_WORKERS` / host parallelism).
        workers: usize,
        /// Emit JSON instead of text.
        json: bool,
    },
    /// Run baseline vs. VSV-with-FSMs over many twins in parallel.
    Sweep {
        /// The grid being swept.
        grid: GridSpec,
        /// Worker threads (0 = `VSV_WORKERS` / host parallelism).
        workers: usize,
        /// Emit the full `SweepReport` as JSON instead of text.
        json: bool,
        /// Append per-cell JSONL records to this file as jobs finish.
        checkpoint: Option<String>,
        /// Resume a checkpointed sweep, skipping completed cells.
        resume: Option<String>,
        /// Arm an injected fault of the given kind in grid cell N
        /// (testing/CI).
        inject_fault: Option<(usize, vsv::FaultKind)>,
        /// Write per-job structured JSONL event traces (concatenated
        /// in grid order) to this file.
        trace: Option<String>,
        /// Verbosity of the `--trace` stream.
        trace_level: vsv::TraceLevel,
    },
    /// Print a mode strip (one char per ns) around VSV activity.
    Trace {
        /// Twin name.
        twin: String,
        /// Nanoseconds of trace to keep (tail).
        ns: usize,
        /// Also write an SVG timeline to this path.
        svg: Option<String>,
    },
    /// Parse a JSONL event trace (from `sweep --trace`) and render
    /// per-job residency timelines and event counts.
    TraceSummarize {
        /// Path to the JSONL trace file.
        input: String,
    },
    /// Show how a campaign partitions the grid into shards.
    CampaignPlan {
        /// The grid being sharded.
        grid: GridSpec,
        /// Number of shards.
        shards: usize,
        /// Emit the plan as JSON instead of text.
        json: bool,
    },
    /// Run one shard of a campaign as a checkpoint-writing sweep
    /// process (the unit a fleet scheduler launches K times).
    CampaignRun {
        /// The grid being sharded (must match every other shard).
        grid: GridSpec,
        /// This process's shard index (0-based).
        shard: usize,
        /// Total shards in the campaign.
        shards: usize,
        /// Worker threads (0 = `VSV_WORKERS` / host parallelism).
        workers: usize,
        /// Shard checkpoint file to write (and resume from).
        out: String,
        /// Start over instead of resuming an existing shard file.
        fresh: bool,
        /// Arm an injected fault of the given kind in *global* grid
        /// cell N (a no-op unless the cell belongs to this shard).
        inject_fault: Option<(usize, vsv::FaultKind)>,
    },
    /// Stream-merge K finalized shard files into the full-grid
    /// report.
    CampaignMerge {
        /// The grid the shards were run against.
        grid: GridSpec,
        /// Total shards in the campaign.
        shards: usize,
        /// Worker count to stamp into the merged report (pass what a
        /// single-process run would have used to reproduce its bytes).
        workers: usize,
        /// The K shard files, in shard order.
        inputs: Vec<String>,
        /// Where to write the merged report JSON.
        out: String,
    },
    /// Regenerate one of the committed results: the paper's (Table 2,
    /// Figures 4–7, the headline aggregates, the ablations) or a data
    /// artifact (policy, ladder, reliability, traffic, multicore).
    Reproduce {
        /// Experiment name: the `results/NAME.txt` or `BENCH_NAME.json`
        /// it reproduces.
        name: String,
        /// Measured instructions (parsing defaults to the
        /// experiment's committed scale).
        insts: u64,
        /// Warm-up instructions (likewise).
        warmup: u64,
        /// Worker threads (0 = `VSV_WORKERS` / host parallelism).
        workers: usize,
        /// Emit JSON instead of text: a paper experiment's
        /// `SweepReport`, a data artifact's `BENCH_NAME.json`.
        json: bool,
        /// Also write the experiment's SVG charts into this directory.
        svg: Option<String>,
    },
    /// Print usage.
    Help,
}

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message when the arguments do not form a valid
    /// command.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        let Some(cmd) = it.next() else {
            return Ok(Command::Help);
        };
        // `trace summarize` and the `campaign` verbs are the two-word
        // commands: consume the subcommand word before the flag loop.
        let mut summarize = false;
        if cmd == "trace" {
            let mut peek = it.clone();
            if peek.next().map(String::as_str) == Some("summarize") {
                summarize = true;
                it = peek;
            }
        }
        // `reproduce` takes its experiment name as the first word.
        let mut experiment: Option<&'static reproduce::Reproduction> = None;
        if cmd == "reproduce" {
            let name = it.next().ok_or("reproduce needs an experiment name")?;
            experiment = Some(reproduce::find(name)?);
        }
        let mut campaign_sub: Option<String> = None;
        if cmd == "campaign" {
            match it.next() {
                Some(sub) if ["plan", "run", "merge"].contains(&sub.as_str()) => {
                    campaign_sub = Some(sub.clone());
                }
                Some(other) => {
                    return Err(format!(
                        "unknown campaign subcommand '{other}' (expected plan | run | merge)"
                    ))
                }
                None => return Err("campaign needs a subcommand: plan | run | merge".to_owned()),
            }
        }
        let mut twin_name: Option<String> = None;
        let mut timekeeping = false;
        let mut insts = 300_000u64;
        let mut warmup = 100_000u64;
        let mut json = false;
        let mut workers = 0usize;
        let mut ns = 2_000usize;
        let mut svg: Option<String> = None;
        let mut checkpoint: Option<String> = None;
        let mut resume: Option<String> = None;
        let mut inject_fault: Option<(usize, vsv::FaultKind)> = None;
        let mut error_rate = 0.0f64;
        let mut slo: Option<vsv::SloSpec> = None;
        let mut traffic: Option<vsv::TrafficSpec> = None;
        let mut policy: Option<PolicySpec> = None;
        let mut policies: Vec<PolicySpec> = Vec::new();
        let mut ladder: Option<usize> = None;
        let mut ladders: Vec<usize> = Vec::new();
        let mut cores_list: Vec<usize> = Vec::new();
        let mut trace: Option<String> = None;
        let mut trace_level: Option<vsv::TraceLevel> = None;
        let mut input: Option<String> = None;
        let mut shards: Option<usize> = None;
        let mut shard_raw: Option<String> = None;
        let mut out: Option<String> = None;
        let mut inputs: Vec<String> = Vec::new();
        let mut fresh = false;

        let next_value = |flag: &str, it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let mut seen: Vec<&str> = Vec::new();
        while let Some(arg) = it.next() {
            seen.push(arg);
            match arg.as_str() {
                "--twin" => twin_name = Some(next_value("--twin", &mut it)?),
                "--tk" => timekeeping = true,
                "--json" => json = true,
                "--insts" => insts = parse_number(arg, it.next())?,
                "--warmup" => warmup = parse_number(arg, it.next())?,
                "--workers" => workers = parse_number(arg, it.next())?,
                "--ns" => {
                    ns = parse_number(arg, it.next())?;
                    if ns == 0 {
                        return Err("--ns: the trace window must be at least 1 ns".to_owned());
                    }
                }
                "--policy" => policy = Some(parse_policy(&next_value("--policy", &mut it)?)?),
                "--policies" => {
                    policies = next_value("--policies", &mut it)?
                        .split(',')
                        .map(parse_policy)
                        .collect::<Result<_, _>>()?;
                }
                "--ladder" => {
                    ladder = Some(parse_ladder_depth(&next_value("--ladder", &mut it)?)?);
                }
                "--ladders" => {
                    ladders = next_value("--ladders", &mut it)?
                        .split(',')
                        .map(parse_ladder_depth)
                        .collect::<Result<_, _>>()?;
                }
                "--cores" => {
                    cores_list = next_value("--cores", &mut it)?
                        .split(',')
                        .map(parse_cores)
                        .collect::<Result<_, _>>()?;
                    if cores_list.is_empty() {
                        return Err("--cores needs at least one count".to_owned());
                    }
                }
                "--svg" => svg = Some(next_value("--svg", &mut it)?),
                "--checkpoint" => checkpoint = Some(next_value("--checkpoint", &mut it)?),
                "--resume" => resume = Some(next_value("--resume", &mut it)?),
                "--trace" => trace = Some(next_value("--trace", &mut it)?),
                "--trace-level" => {
                    let raw = next_value("--trace-level", &mut it)?;
                    trace_level = Some(vsv::TraceLevel::parse(&raw).ok_or_else(|| {
                        format!(
                            "unknown trace level '{raw}' (expected transitions | events | full)"
                        )
                    })?);
                }
                "--input" => input = Some(next_value("--input", &mut it)?),
                "--shards" => shards = Some(parse_number(arg, it.next())?),
                "--shard" => shard_raw = Some(next_value("--shard", &mut it)?),
                "--out" => out = Some(next_value("--out", &mut it)?),
                "--inputs" => {
                    inputs = next_value("--inputs", &mut it)?
                        .split(',')
                        .map(str::to_owned)
                        .collect();
                }
                "--fresh" => fresh = true,
                "--inject-fault" => {
                    inject_fault = Some(parse_fault(&next_value("--inject-fault", &mut it)?)?);
                }
                "--error-rate" => {
                    error_rate = parse_number(arg, it.next())?;
                    if !(0.0..=1.0).contains(&error_rate) {
                        return Err(format!(
                            "--error-rate {error_rate}: expected a probability in 0..=1"
                        ));
                    }
                }
                "--slo" => slo = Some(parse_slo(&next_value("--slo", &mut it)?)?),
                "--traffic" => traffic = Some(parse_traffic(&next_value("--traffic", &mut it)?)?),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        let verb = match (cmd.as_str(), campaign_sub.as_deref()) {
            ("trace", _) if summarize => "trace summarize".to_owned(),
            ("campaign", Some(sub)) => format!("campaign {sub}"),
            (verb, _) => verb.to_owned(),
        };
        if let Some(flags) = verb_flags(&verb) {
            if let Some(flag) = seen.iter().find(|f| !flags.contains(f)) {
                return Err(format!("{verb} does not take {flag}"));
            }
        }
        let need_twin = |t: Option<String>| t.ok_or_else(|| "--twin is required".to_owned());
        // Every command except `compare` takes at most one core count.
        let single_cores = |list: &[usize], cmd: &str| -> Result<Option<usize>, String> {
            match list {
                [] => Ok(None),
                [n] => Ok(Some(*n)),
                _ => Err(format!(
                    "{cmd} takes a single --cores value (the list form is for compare)"
                )),
            }
        };
        // The grid flags `sweep` and the `campaign` verbs share.
        let grid = |cmd: &str| -> Result<GridSpec, String> {
            Ok(GridSpec {
                twin: twin_name.clone(),
                policy,
                ladder,
                cores: single_cores(&cores_list, cmd)?,
                timekeeping,
                insts,
                warmup,
                error_rate,
                slo,
                traffic,
            })
        };
        match cmd.as_str() {
            "workloads" => Ok(Command::Workloads {
                cores: single_cores(&cores_list, "workloads")?.unwrap_or(1),
            }),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "compare" => {
                let axes = [
                    !policies.is_empty(),
                    !ladders.is_empty(),
                    !cores_list.is_empty(),
                ];
                if axes.iter().filter(|on| **on).count() > 1 {
                    return Err(
                        "--policies, --ladders and --cores are mutually exclusive".to_owned()
                    );
                }
                Ok(Command::Compare {
                    twin: need_twin(twin_name)?,
                    policies,
                    ladders,
                    cores: cores_list,
                    timekeeping,
                    insts,
                    warmup,
                    workers,
                    json,
                })
            }
            "sweep" => {
                if checkpoint.is_some() && resume.is_some() {
                    return Err("--checkpoint and --resume are mutually exclusive".to_owned());
                }
                if trace.is_some() && (checkpoint.is_some() || resume.is_some()) {
                    // Traces are produced whole per job; resuming from
                    // a checkpoint would leave holes in the stream.
                    return Err("--trace cannot be combined with --checkpoint/--resume".to_owned());
                }
                if trace_level.is_some() && trace.is_none() {
                    return Err("--trace-level requires --trace".to_owned());
                }
                Ok(Command::Sweep {
                    grid: grid("sweep")?,
                    workers,
                    json,
                    checkpoint,
                    resume,
                    inject_fault,
                    trace,
                    trace_level: trace_level.unwrap_or(vsv::TraceLevel::Events),
                })
            }
            "campaign" => {
                let grid = grid("campaign")?;
                match campaign_sub.as_deref() {
                    Some("plan") => Ok(Command::CampaignPlan {
                        grid,
                        shards: shards.ok_or_else(|| "--shards is required".to_owned())?,
                        json,
                    }),
                    Some("run") => {
                        let raw = shard_raw
                            .ok_or_else(|| "--shard is required (0-based, e.g. 1/3)".to_owned())?;
                        let (shard, inline_shards) = parse_shard(&raw)?;
                        let shards = match (shards, inline_shards) {
                            (Some(k), Some(n)) if k != n => {
                                return Err(format!("--shard {raw} disagrees with --shards {k}"))
                            }
                            (Some(k), _) => k,
                            (None, Some(n)) => n,
                            (None, None) => {
                                return Err(
                                    "total shard count is required: --shard I/N or --shards N"
                                        .to_owned(),
                                )
                            }
                        };
                        Ok(Command::CampaignRun {
                            grid,
                            shard,
                            shards,
                            workers,
                            out: out.ok_or_else(|| "--out is required".to_owned())?,
                            fresh,
                            inject_fault,
                        })
                    }
                    Some("merge") => {
                        if inputs.is_empty() {
                            return Err(
                                "--inputs is required (comma-separated, in shard order)".to_owned()
                            );
                        }
                        Ok(Command::CampaignMerge {
                            grid,
                            shards: shards.unwrap_or(inputs.len()),
                            workers,
                            inputs,
                            out: out.ok_or_else(|| "--out is required".to_owned())?,
                        })
                    }
                    _ => unreachable!("campaign subcommand validated above"),
                }
            }
            "reproduce" => {
                let experiment = experiment.expect("experiment parsed above");
                if svg.is_some() && (json || experiment.name != "figure4") {
                    return Err("--svg draws charts only for figure4, without --json".to_owned());
                }
                // The experiment's committed scale, unless overridden.
                let given = |flag| seen.contains(&flag);
                let scale = experiment.scale;
                Ok(Command::Reproduce {
                    name: experiment.name.to_owned(),
                    insts: if given("--insts") {
                        insts
                    } else {
                        scale.instructions
                    },
                    warmup: if given("--warmup") {
                        warmup
                    } else {
                        scale.warmup_instructions
                    },
                    workers,
                    json,
                    svg,
                })
            }
            "trace" if summarize => Ok(Command::TraceSummarize {
                input: input.ok_or_else(|| "--input is required".to_owned())?,
            }),
            "trace" => Ok(Command::Trace {
                twin: need_twin(twin_name)?,
                ns,
                svg,
            }),
            other => Err(format!("unknown command '{other}'")),
        }
    }
}

/// The flags that define a sweep grid, shared by `sweep` and the
/// `campaign` verbs.
const GRID_FLAGS: [&str; 10] = [
    "--twin",
    "--policy",
    "--ladder",
    "--cores",
    "--tk",
    "--insts",
    "--warmup",
    "--error-rate",
    "--slo",
    "--traffic",
];

/// The flags `verb` reads (`None` for an unknown verb): any other flag
/// on its command line is a usage error rather than silently ignored.
fn verb_flags(verb: &str) -> Option<Vec<&'static str>> {
    let (grid, own): (bool, &[&str]) = match verb {
        "help" | "--help" | "-h" => (false, &[]),
        "workloads" => (false, &["--cores"]),
        "compare" => (
            false,
            &[
                "--twin",
                "--policies",
                "--ladders",
                "--cores",
                "--tk",
                "--insts",
                "--warmup",
                "--workers",
                "--json",
            ],
        ),
        "sweep" => (
            true,
            &[
                "--workers",
                "--json",
                "--checkpoint",
                "--resume",
                "--trace",
                "--trace-level",
                "--inject-fault",
            ],
        ),
        "trace" => (false, &["--twin", "--ns", "--svg"]),
        "trace summarize" => (false, &["--input"]),
        "campaign plan" => (true, &["--shards", "--json"]),
        "campaign run" => (
            true,
            &[
                "--shard",
                "--shards",
                "--out",
                "--fresh",
                "--workers",
                "--inject-fault",
            ],
        ),
        "campaign merge" => (true, &["--inputs", "--out", "--shards", "--workers"]),
        "reproduce" => (
            false,
            &["--insts", "--warmup", "--workers", "--json", "--svg"],
        ),
        _ => return None,
    };
    let grid: &[&str] = if grid { &GRID_FLAGS } else { &[] };
    Some([grid, own].concat())
}

/// Usage text.
pub const USAGE: &str = "\
vsv-cli — run the VSV (MICRO-36 2003) reproduction from the command line

USAGE:
  vsv-cli workloads [--cores N]
  vsv-cli compare --twin NAME [--policies A,B,.. | --ladders D1,D2,..
                  | --cores C1,C2,..]
                  [--tk] [--insts N] [--warmup N] [--workers N] [--json]
  vsv-cli sweep   [--twin NAME] [--policy NAME] [--ladder N] [--cores N] [--tk]
                  [--error-rate F] [--slo KEY=VALUE,..]
                  [--traffic MODEL:KEY=VALUE,..]
                  [--insts N] [--warmup N] [--workers N] [--json]
                  [--checkpoint FILE | --resume FILE | --trace FILE]
                  [--trace-level transitions|events|full]
                  [--inject-fault CELL[:KIND]]
  vsv-cli trace   --twin NAME [--ns N] [--svg FILE]
  vsv-cli trace summarize --input FILE
  vsv-cli campaign plan  --shards K [grid flags]
  vsv-cli campaign run   --shard I/K --out FILE [--fresh] [--workers N]
                  [--inject-fault CELL[:KIND]] [grid flags]
  vsv-cli campaign merge --inputs A,B,.. --out FILE [--shards K]
                  [--workers N] [grid flags]
  vsv-cli reproduce NAME [--insts N] [--warmup N] [--workers N] [--json]
                  [--svg DIR]

Sweep-shaped commands (compare, sweep) execute on the parallel
deterministic sweep engine: results are in grid order and
bit-identical for any worker count. --workers 0 (the default) uses
VSV_WORKERS or the host's parallelism.

A sweep never dies with its worst cell: failed cells (deadlock,
invalid config, exhausted budget, panic, unrecoverable read) become
per-cell failure records and the exit code is 1 (0 = all cells ok,
2 = usage error, 3 = all cells ran but some violated the --slo).
--checkpoint FILE appends one JSONL record per finished cell;
--resume FILE skips the cells already recorded there (tolerating a
half-written final line from a crash) and re-runs only the rest.
The file is shard 0 of a one-shard campaign: once every cell is done
it is rewritten in grid order, and `campaign merge --shards 1` reads
it.
--inject-fault CELL[:KIND] arms a deterministic fault in grid cell
CELL for exercising these paths (testing/CI); KIND is deadlock (the
default), panic, or unrecoverable-read.

Reliability: --error-rate F enables the low-voltage timing-error
model — each cache-read delivery errs with probability F at VDDL,
scaling quadratically with undervolting and exactly 0 at VDDH, drawn
from a seeded counter PRNG (bit-identical for any worker count).
Errored reads retry after a fixed detect + reissue delay; a read
that exhausts its retry budget fails the cell with a typed
unrecoverable-read error. --slo KEY=VALUE,.. asserts an SLO on every
cell post-run, each key once: retry=PPM allows at most PPM retries
per million fills, fill_p99=NS at most NS nanoseconds of p99 added
read latency, and p99=NS/p999=NS are end-to-end request-latency
ceilings judged against the --traffic request histogram (vacuously
met without --traffic). An unspecified key is unbounded. Violations
are reported per cell and exit with code 3 (cell failures win: 1). The
error-backoff policy (--policy error-backoff) trades energy for
reliability: it wraps dual-fsm (or ladder-fsm with --ladder) and
climbs back to VDDH while the observed retry rate is high.

Service traffic: --traffic layers a deterministic open-loop request
stream over every sweep cell. A request is a SIZE-instruction slice
of the twin's committed stream, served FIFO from the arrival queue;
the stream itself is pure accounting — timing, energy, and every
other metric are bit-identical with traffic on or off, so the power
saving under load equals the closed-loop saving while tail latency
shows what that saving costs. poisson:rate=R,size=S[,seed=N] draws
arrivals at R requests/µs; mmpp:rate=R,burst=B,on=NS,off=NS,size=S
alternates OFF (rate R) and ON (rate B) phases of fixed lengths — an
ON/OFF burst train. Each cell reports arrivals, completions, backlog
and p50/p99/p999 request latency from an exact log2 histogram.
workloads lists the twins' generator parameters next to the paper's
Table 2 calibration targets.

Observability: sweep --trace FILE writes one structured JSONL event
per line (schema: docs/observability.md), per job in grid order —
byte-identical across runs and worker counts. --trace-level picks the
verbosity: transitions (mode changes + windows), events (adds FSM
arm/fire/expiry, L2 miss detect/return, fast-forward batches; the
default), full (adds one sample per simulated ns — large). trace
summarize renders a per-job residency timeline from such a file.

DVS policies (for --policy / --policies): dual-fsm (the paper's,
default), always-high (no-DVS control), always-low (static low
voltage), immediate-down (ramp on every L2 miss), oracle-down
(clairvoyant upper bound), ladder-fsm (the dual FSMs generalized to
step down an N-level voltage ladder), error-backoff (dual-fsm/
ladder-fsm wrapped in an error-aware governor that backs off to
VDDH under read-retry pressure). compare --policies runs the
baseline plus each named policy on the same twin and prints
per-policy energy, EDP, slowdown and power savings.

Voltage ladders: --ladder N runs the VSV side on a uniform N-level
ladder between VDDL and VDDH (depth 2 = the paper's two rails, the
default; depth 1 = always-VDDH). compare --ladders D1,D2,.. runs the
baseline plus one ladder-fsm row per depth — the EDP-vs-depth
frontier on one twin.

Multicore: --cores N replicates the core plus its private L1s N
times over one shared, arbitrated L2/bus/DRAM fabric, with an
independent VSV controller (voltage domain) per core. Each core runs
a phase-decorrelated copy of the twin (reseeded per core; `workloads
--cores N` shows the streams), stepped in nanosecond lockstep so
results stay bit-identical for any worker count; --cores 1 is the
paper's single-core machine, byte-for-byte. Chip-level rows report
summed work and energy over the longest core's window, with per-core
windows in the JSON `core_results`. compare --cores C1,C2,.. runs
one baseline-vs-dual-fsm pair per count — each VSV row judged
against the equally contended baseline — to show how per-domain
savings scale with core count.

Campaigns scale one sweep across K processes (or machines): the grid
flags (--twin/--policy/--ladder/--cores/--tk/--insts/--warmup/--error-rate/
--slo/--traffic) define the grid and must be identical in every subcommand. plan shows the
partition (cell g belongs to shard g mod K — interleaved, so K need
not divide the cell count). run executes one shard as an ordinary
checkpointed sweep: kill it and run again to resume (--fresh starts
over), exit codes match sweep. merge stream-reads the K shard files
in grid order, validates headers and per-cell digests, and writes a
SweepReport bit-identical (wall-clock fields aside) to the
single-process `sweep --json` run, in O(1) memory. Pass merge the
--workers the single-process run would use to reproduce its bytes.

Committed results: reproduce NAME prints one at its committed scale
(300000 measured / 100000 warm-up instructions; traffic 240000 /
60000), which --insts and --warmup override. The paper's (table2,
figure4..figure7, headline, ablations) print exactly results/NAME.txt,
--json their SweepReport, and figure4 --svg DIR also writes its two
bar charts. The data artifacts (policy, ladder, reliability, traffic,
multicore) print a table, and --json exactly BENCH_NAME.json. A
failed cell or chip run prints the failure summary (exit 1).

EXAMPLES:
  vsv-cli compare --twin mcf
  vsv-cli compare --twin mcf --policies dual-fsm,immediate-down,oracle-down
  vsv-cli compare --twin mcf --ladders 1,2,4
  vsv-cli compare --twin mcf --cores 1,2,4
  vsv-cli sweep --twin mcf --cores 2 --json
  vsv-cli sweep --policy ladder-fsm --ladder 4 --json
  vsv-cli sweep --policy always-high --json
  vsv-cli sweep --twin mcf --error-rate 0.02 --slo retry=50000,fill_p99=8
  vsv-cli sweep --twin mcf --policy error-backoff --error-rate 0.02 \\
                --slo retry=50000,fill_p99=8
  vsv-cli sweep --twin mcf --traffic poisson:rate=0.02,size=5000
  vsv-cli sweep --twin mcf --traffic mmpp:rate=0.01,burst=0.2,on=20000,off=40000,size=5000 \\
                --slo p99=60000,p999=120000
  vsv-cli sweep --twin mcf --inject-fault 1:unrecoverable-read
  vsv-cli sweep --twin applu --tk --json
  vsv-cli sweep --workers 4 --json
  vsv-cli sweep --checkpoint sweep.jsonl   # then, after a crash:
  vsv-cli sweep --resume sweep.jsonl
  vsv-cli trace --twin ammp --ns 500
  vsv-cli sweep --twin mcf --trace mcf.jsonl
  vsv-cli trace summarize --input mcf.jsonl
  vsv-cli campaign plan --shards 3
  vsv-cli campaign run --shard 0/3 --out shard-0.jsonl   # x3, any order
  vsv-cli campaign merge --inputs shard-0.jsonl,shard-1.jsonl,shard-2.jsonl \\
                         --out report.json
  vsv-cli reproduce headline
  vsv-cli reproduce figure4 --svg charts
  vsv-cli reproduce traffic --json > BENCH_traffic.json
";

/// Executes a parsed command; returns the text to print.
///
/// Equivalent to [`execute_with_exit`] with the exit code dropped —
/// convenient for tests and embedding.
///
/// # Errors
///
/// Returns a message for unknown twins and invalid flag combinations.
pub fn execute(cmd: Command) -> Result<String, String> {
    execute_with_exit(cmd).map(|(out, _)| out)
}

/// Executes a parsed command; returns the text to print plus the
/// process exit code (0 = success, 1 = the sweep completed but some
/// cells failed). Usage and I/O errors come back as `Err` and map to
/// exit code 2 in the binary.
///
/// # Errors
///
/// Returns a message for unknown twins, invalid flag combinations,
/// and checkpoint-file problems.
pub fn execute_with_exit(cmd: Command) -> Result<(String, i32), String> {
    match cmd {
        Command::Help => Ok((USAGE.to_owned(), 0)),
        Command::Workloads { cores } => {
            let mut out = format!(
                "{:<10} {:<12} {:>7} {:>6} {:>5} | {:>9} {:>8} {:>12}\n",
                "twin", "pattern", "ws_MB", "far%", "pf%", "paper IPC", "paper MR", "paper MR(TK)"
            );
            let refs = table2_reference();
            for p in spec2k_twins() {
                let pattern = match p.pattern {
                    vsv_workloads::AccessPattern::Streaming => "streaming".to_owned(),
                    vsv_workloads::AccessPattern::PermutationChase => "chase".to_owned(),
                    vsv_workloads::AccessPattern::Random => "random".to_owned(),
                    vsv_workloads::AccessPattern::Strided { blocks } => format!("strided:{blocks}"),
                };
                let target = refs.iter().find(|r| r.name == p.name).map_or_else(
                    || format!("{:>9} {:>8} {:>12}", "-", "-", "-"),
                    |r| format!("{:>9.2} {:>8.1} {:>12.1}", r.ipc_base, r.mr_base, r.mr_tk),
                );
                out.push_str(&format!(
                    "{:<10} {:<12} {:>7.1} {:>6.1} {:>5.0} | {target}\n",
                    p.name,
                    pattern,
                    p.working_set_bytes as f64 / (1u64 << 20) as f64,
                    p.far_fraction * 100.0,
                    p.sw_prefetch_coverage * 100.0,
                ));
                if cores > 1 {
                    // What a `--cores N` run actually executes: N
                    // phase-decorrelated copies of the twin, reseeded
                    // per core (matching MulticoreSystem::try_new).
                    let streams: Vec<String> = (0..cores)
                        .map(|i| format!("{}#{i} seed={}", p.name, p.seed.wrapping_add(i as u64)))
                        .collect();
                    out.push_str(&format!("           cores: {}\n", streams.join(", ")));
                }
            }
            out.push_str(
                "(pattern/ws/far drive L2 misses per kilo-inst; paper columns are the \
                 Table 2 calibration targets)\n",
            );
            if cores > 1 {
                out.push_str(&format!(
                    "(--cores {cores}: each twin runs as {cores} per-core streams over a \
                     shared L2, one voltage domain per core)\n"
                ));
            }
            Ok((out, 0))
        }
        cmd @ Command::Compare { .. } => compare::execute(cmd),
        cmd @ (Command::Sweep { .. }
        | Command::CampaignPlan { .. }
        | Command::CampaignRun { .. }
        | Command::CampaignMerge { .. }) => sweep::execute(cmd),
        cmd @ (Command::Trace { .. } | Command::TraceSummarize { .. }) => trace::execute(cmd),
        cmd @ Command::Reproduce { .. } => reproduce::execute(cmd),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn rejects_missing_twin_and_bad_flags() {
        assert!(Command::parse(&sv(&["compare"])).is_err());
        assert!(Command::parse(&sv(&["compare", "--twin", "mcf", "--bogus"])).is_err());
        assert!(Command::parse(&sv(&["compare", "--twin"])).is_err());
        assert!(Command::parse(&sv(&["frobnicate"])).is_err());
        let err = Command::parse(&sv(&["sweep", "--twin", "mcf", "--config", "vsv"]))
            .expect_err("--policy names the machine");
        assert!(err.contains("unknown flag '--config'"), "{err}");
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(Command::parse(&[]).expect("ok"), Command::Help);
        assert!(execute(Command::Help).expect("ok").contains("USAGE"));
    }

    #[test]
    fn unknown_twin_is_a_clean_error() {
        for verb in ["sweep", "compare", "trace"] {
            let cmd = Command::parse(&sv(&[verb, "--twin", "doom"])).expect("parses");
            let err = execute(cmd).expect_err("unknown twin");
            assert!(err.contains("doom"), "{verb}: {err}");
            assert!(err.contains("mcf"), "{verb}: {err}");
        }
    }

    #[test]
    fn parses_sweep_with_workers() {
        let cmd =
            Command::parse(&sv(&["sweep", "--workers", "4", "--tk", "--json"])).expect("valid");
        assert_eq!(
            cmd,
            Command::Sweep {
                grid: GridSpec {
                    twin: None,
                    policy: None,
                    ladder: None,
                    cores: None,
                    timekeeping: true,
                    insts: 300_000,
                    warmup: 100_000,
                    error_rate: 0.0,
                    slo: None,
                    traffic: None,
                },
                workers: 4,
                json: true,
                checkpoint: None,
                resume: None,
                inject_fault: None,
                trace: None,
                trace_level: vsv::TraceLevel::Events,
            }
        );
    }

    #[test]
    fn parses_sweep_checkpoint_and_fault_flags() {
        let cmd = Command::parse(&sv(&[
            "sweep",
            "--checkpoint",
            "/tmp/ck.jsonl",
            "--inject-fault",
            "1",
        ]))
        .expect("valid");
        let Command::Sweep {
            checkpoint,
            resume,
            inject_fault,
            ..
        } = cmd
        else {
            panic!("expected a sweep command");
        };
        assert_eq!(checkpoint.as_deref(), Some("/tmp/ck.jsonl"));
        assert_eq!(resume, None);
        assert_eq!(inject_fault, Some((1, vsv::FaultKind::Deadlock)));
    }

    #[test]
    fn parses_inject_fault_kinds() {
        for (raw, want) in [
            ("0", (0, vsv::FaultKind::Deadlock)),
            ("2:deadlock", (2, vsv::FaultKind::Deadlock)),
            ("1:panic", (1, vsv::FaultKind::Panic)),
            (
                "1:unrecoverable-read",
                (1, vsv::FaultKind::UnrecoverableRead),
            ),
        ] {
            let cmd = Command::parse(&sv(&["sweep", "--inject-fault", raw])).expect("valid");
            let Command::Sweep { inject_fault, .. } = cmd else {
                panic!("expected a sweep command");
            };
            assert_eq!(inject_fault, Some(want), "--inject-fault {raw}");
        }
        let err = Command::parse(&sv(&["sweep", "--inject-fault", "1:segfault"]))
            .expect_err("unknown kind");
        assert!(err.contains("unrecoverable-read"), "{err}");
        let err =
            Command::parse(&sv(&["sweep", "--inject-fault", "x:panic"])).expect_err("bad cell");
        assert!(err.contains("cell"), "{err}");
    }

    #[test]
    fn parses_reliability_flags() {
        let cmd = Command::parse(&sv(&[
            "sweep",
            "--twin",
            "mcf",
            "--error-rate",
            "0.02",
            "--slo",
            "retry=50000,fill_p99=8",
        ]))
        .expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.error_rate, 0.02);
        assert_eq!(grid.slo, Some(vsv::SloSpec::new(50_000, 8)));

        let err = Command::parse(&sv(&["sweep", "--error-rate", "1.5"])).expect_err("out of range");
        assert!(err.contains("probability"), "{err}");
    }

    #[test]
    fn parses_traffic_specs() {
        let cmd = Command::parse(&sv(&[
            "sweep",
            "--twin",
            "mcf",
            "--traffic",
            "poisson:rate=0.5,size=2000,seed=9",
        ]))
        .expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(
            grid.traffic,
            Some(vsv::TrafficSpec::poisson(0.5, 2_000).with_seed(9))
        );

        let cmd = Command::parse(&sv(&[
            "sweep",
            "--traffic",
            "mmpp:rate=0.01,burst=0.2,on=20000,off=40000,size=5000",
        ]))
        .expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(
            grid.traffic,
            Some(vsv::TrafficSpec::mmpp(0.01, 0.2, 20_000, 40_000, 5_000))
        );

        let err = Command::parse(&sv(&["sweep", "--traffic", "uniform:rate=1,size=10"]))
            .expect_err("unknown model");
        assert!(err.contains("poisson | mmpp"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--traffic", "poisson:rate=1"]))
            .expect_err("missing size");
        assert!(err.contains("missing size"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--traffic", "poisson:rate=1,size=10,on=5"]))
            .expect_err("mmpp-only key");
        assert!(err.contains("only apply to mmpp"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--traffic", "poisson:rate=0,size=10"]))
            .expect_err("zero rate");
        assert!(err.contains("--traffic"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--traffic", "poisson:pace=1,size=10"]))
            .expect_err("unknown key");
        assert!(
            err.contains("rate | burst | on | off | size | seed"),
            "{err}"
        );
        // A malformed value is reported before a later duplicate of
        // its key.
        let err = Command::parse(&sv(&[
            "sweep",
            "--traffic",
            "poisson:rate=abc,rate=1,size=200",
        ]))
        .expect_err("malformed then duplicate");
        assert!(err.contains("--traffic rate 'abc'"), "{err}");
        let err = Command::parse(&sv(&[
            "sweep",
            "--traffic",
            "poisson:rate=1,size=x,size=200",
        ]))
        .expect_err("malformed then duplicate");
        assert!(err.contains("--traffic size 'x'"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--traffic", "poisson:rate=1,rate=2,size=5"]))
            .expect_err("duplicate");
        assert!(err.contains("--traffic key 'rate' given twice"), "{err}");
    }

    #[test]
    fn parses_slo_key_value_form() {
        let cmd = Command::parse(&sv(&["sweep", "--slo", "p99=60000,p999=120000"])).expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(
            grid.slo,
            Some(
                vsv::SloSpec::new(u64::MAX, u64::MAX)
                    .with_request_p99(60_000)
                    .with_request_p999(120_000)
            )
        );

        let cmd =
            Command::parse(&sv(&["sweep", "--slo", "retry=50000,fill_p99=8"])).expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.slo, Some(vsv::SloSpec::new(50_000, 8)));

        let err = Command::parse(&sv(&["sweep", "--slo", "p50=10"])).expect_err("unknown key");
        assert!(err.contains("retry | fill_p99 | p99 | p999"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--slo", "p99=ten"])).expect_err("non-numeric");
        assert!(err.contains("p99 'ten'"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--slo", "50000,8"])).expect_err("positional");
        assert!(err.contains("--slo '50000': expected KEY=VALUE"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--slo", "retry=5,retry=6"])).expect_err("twice");
        assert!(err.contains("--slo key 'retry' given twice"), "{err}");
    }

    #[test]
    fn workloads_lists_params_and_paper_targets() {
        let (out, code) = execute_with_exit(Command::Workloads { cores: 1 }).expect("ok");
        assert_eq!(code, 0);
        for p in spec2k_twins() {
            assert!(out.contains(p.name), "missing {}", p.name);
        }
        assert!(out.contains("paper IPC"), "{out}");
        assert!(out.contains("chase"), "{out}");
        assert!(out.contains("streaming"), "{out}");
    }

    #[test]
    fn checkpoint_and_resume_are_mutually_exclusive() {
        let err = Command::parse(&sv(&[
            "sweep",
            "--checkpoint",
            "a.jsonl",
            "--resume",
            "b.jsonl",
        ]))
        .expect_err("conflicting flags");
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn parses_sweep_trace_flags() {
        let cmd = Command::parse(&sv(&[
            "sweep",
            "--twin",
            "gzip",
            "--trace",
            "/tmp/t.jsonl",
            "--trace-level",
            "full",
        ]))
        .expect("valid");
        let Command::Sweep {
            trace, trace_level, ..
        } = cmd
        else {
            panic!("expected a sweep command");
        };
        assert_eq!(trace.as_deref(), Some("/tmp/t.jsonl"));
        assert_eq!(trace_level, vsv::TraceLevel::Full);

        let err = Command::parse(&sv(&[
            "sweep",
            "--trace",
            "t.jsonl",
            "--checkpoint",
            "c.jsonl",
        ]))
        .expect_err("incompatible");
        assert!(err.contains("--trace cannot be combined"), "{err}");
        let err =
            Command::parse(&sv(&["sweep", "--trace-level", "events"])).expect_err("needs --trace");
        assert!(err.contains("--trace-level requires --trace"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--trace", "t", "--trace-level", "loud"]))
            .expect_err("bad level");
        assert!(err.contains("unknown trace level"), "{err}");
    }

    #[test]
    fn parses_trace_summarize() {
        let cmd =
            Command::parse(&sv(&["trace", "summarize", "--input", "t.jsonl"])).expect("valid");
        assert_eq!(
            cmd,
            Command::TraceSummarize {
                input: "t.jsonl".to_owned()
            }
        );
        let err = Command::parse(&sv(&["trace", "summarize"])).expect_err("needs input");
        assert!(err.contains("--input is required"), "{err}");
    }

    #[test]
    fn parses_trace_window_and_rejects_zero() {
        let cmd = Command::parse(&sv(&["trace", "--twin", "ammp", "--ns", "600"])).expect("valid");
        assert_eq!(
            cmd,
            Command::Trace {
                twin: "ammp".to_owned(),
                ns: 600,
                svg: None,
            }
        );
        let err = Command::parse(&sv(&["trace", "--twin", "ammp", "--ns", "0"]))
            .expect_err("empty window");
        assert!(err.contains("at least 1 ns"), "{err}");
    }

    #[test]
    fn parses_sweep_policy_and_compare_policies() {
        let cmd = Command::parse(&sv(&["sweep", "--policy", "oracle-down"])).expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.policy, Some(PolicySpec::OracleDown));

        let cmd = Command::parse(&sv(&[
            "compare",
            "--twin",
            "mcf",
            "--policies",
            "dual-fsm,immediate-down",
        ]))
        .expect("valid");
        let Command::Compare { policies, .. } = cmd else {
            panic!("expected a compare command");
        };
        assert_eq!(
            policies,
            vec![PolicySpec::DualFsm, PolicySpec::ImmediateDown]
        );
    }

    #[test]
    fn unknown_policy_is_a_usage_error_listing_the_valid_names() {
        for args in [
            sv(&["sweep", "--policy", "warp-speed"]),
            sv(&[
                "compare",
                "--twin",
                "mcf",
                "--policies",
                "dual-fsm,warp-speed",
            ]),
        ] {
            let err = Command::parse(&args).expect_err("unknown policy");
            assert!(err.contains("unknown policy 'warp-speed'"), "{err}");
            assert!(
                err.ends_with(
                    "valid policies: dual-fsm, always-high, always-low, immediate-down, \
                     oracle-down, ladder-fsm, error-backoff"
                ),
                "{err}"
            );
            for spec in PolicySpec::ALL {
                assert!(err.contains(spec.name()), "{err} missing {}", spec.name());
            }
        }
    }

    #[test]
    fn parses_ladder_flags() {
        let cmd = Command::parse(&sv(&["sweep", "--policy", "ladder-fsm", "--ladder", "4"]))
            .expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.policy, Some(PolicySpec::LadderFsm));
        assert_eq!(grid.ladder, Some(4));

        let cmd = Command::parse(&sv(&["compare", "--twin", "mcf", "--ladders", "1,2,4"]))
            .expect("valid");
        let Command::Compare { ladders, .. } = cmd else {
            panic!("expected a compare command");
        };
        assert_eq!(ladders, vec![1, 2, 4]);
    }

    #[test]
    fn ladder_depth_bounds_are_usage_errors() {
        for bad in ["0", "9", "two", ""] {
            let err = Command::parse(&sv(&["sweep", "--ladder", bad])).expect_err("bad depth");
            assert!(err.contains("ladder depth"), "{err}");
        }
        let err = Command::parse(&sv(&["compare", "--twin", "mcf", "--ladders", "2,0"]))
            .expect_err("bad depth in list");
        assert!(err.contains("expected 1..=8"), "{err}");
    }

    #[test]
    fn ladders_and_policies_are_mutually_exclusive() {
        let err = Command::parse(&sv(&[
            "compare",
            "--twin",
            "mcf",
            "--policies",
            "dual-fsm",
            "--ladders",
            "2,4",
        ]))
        .expect_err("conflicting axes");
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn parses_cores_flags() {
        let cmd = Command::parse(&sv(&["sweep", "--twin", "mcf", "--cores", "2"])).expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.cores, Some(2));

        let cmd =
            Command::parse(&sv(&["compare", "--twin", "mcf", "--cores", "1,2,4"])).expect("valid");
        let Command::Compare { cores, .. } = cmd else {
            panic!("expected a compare command");
        };
        assert_eq!(cores, vec![1, 2, 4]);

        let cmd = Command::parse(&sv(&["workloads", "--cores", "4"])).expect("valid");
        assert_eq!(cmd, Command::Workloads { cores: 4 });
    }

    #[test]
    fn core_count_bounds_are_usage_errors() {
        for bad in ["0", "17", "two", ""] {
            let err = Command::parse(&sv(&["sweep", "--cores", bad])).expect_err("bad count");
            assert!(err.contains("core count"), "{err}");
            if bad.parse::<usize>().is_ok() {
                assert!(err.contains("expected 1..=16"), "{err}");
            }
        }
        let err = Command::parse(&sv(&["compare", "--twin", "mcf", "--cores", "2,0"]))
            .expect_err("bad count in list");
        assert!(err.contains("expected 1..=16"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--cores", "1,2"])).expect_err("list on sweep");
        assert!(err.contains("single --cores"), "{err}");
    }

    #[test]
    fn cores_excludes_the_other_compare_axes() {
        let err = Command::parse(&sv(&[
            "compare",
            "--twin",
            "mcf",
            "--cores",
            "2",
            "--ladders",
            "2,4",
        ]))
        .expect_err("conflicting axes");
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn workloads_lists_per_core_streams() {
        let (out, _) = execute_with_exit(Command::Workloads { cores: 2 }).expect("runs");
        assert!(out.contains("mcf#0"), "{out}");
        assert!(out.contains("mcf#1"), "{out}");
        assert!(out.contains("shared L2"), "{out}");
    }

    pub(crate) fn mcf_grid() -> GridSpec {
        GridSpec {
            twin: Some("mcf".to_owned()),
            policy: None,
            ladder: None,
            cores: None,
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            error_rate: 0.0,
            slo: None,
            traffic: None,
        }
    }

    #[test]
    fn parses_campaign_run_with_inline_shard_syntax() {
        let cmd = Command::parse(&sv(&[
            "campaign", "run", "--twin", "mcf", "--shard", "1/3", "--insts", "3000", "--warmup",
            "1000", "--out", "s1.jsonl", "--fresh",
        ]))
        .expect("valid");
        assert_eq!(
            cmd,
            Command::CampaignRun {
                grid: mcf_grid(),
                shard: 1,
                shards: 3,
                workers: 0,
                out: "s1.jsonl".to_owned(),
                fresh: true,
                inject_fault: None,
            }
        );
        // `--shard I` with an explicit `--shards N` is the same thing.
        let split = Command::parse(&sv(&[
            "campaign", "run", "--twin", "mcf", "--shard", "1", "--shards", "3", "--insts", "3000",
            "--warmup", "1000", "--out", "s1.jsonl", "--fresh",
        ]))
        .expect("valid");
        assert_eq!(cmd, split);
    }

    #[test]
    fn parses_reproduce_and_its_usage_errors() {
        let cmd = Command::parse(&sv(&[
            "reproduce",
            "figure4",
            "--insts",
            "3000",
            "--svg",
            "d",
        ]))
        .expect("valid");
        assert_eq!(
            cmd,
            Command::Reproduce {
                name: "figure4".to_owned(),
                insts: 3000,
                warmup: 100_000,
                workers: 0,
                json: false,
                svg: Some("d".to_owned()),
            }
        );
        let err = Command::parse(&sv(&["reproduce"])).expect_err("needs a name");
        assert!(err.contains("experiment name"), "{err}");
        let err = Command::parse(&sv(&["reproduce", "figure9"])).expect_err("unknown name");
        assert!(err.contains("table2, figure4"), "{err}");
        // Each experiment defaults to its committed scale, and the
        // flags override it one at a time.
        let traffic = Command::parse(&sv(&["reproduce", "traffic", "--warmup", "500"]));
        assert!(
            matches!(
                traffic,
                Ok(Command::Reproduce {
                    insts: 240_000,
                    warmup: 500,
                    ..
                })
            ),
            "{traffic:?}"
        );
        for args in [
            sv(&["reproduce", "table2", "--svg", "d"]),
            sv(&["reproduce", "figure4", "--svg", "d", "--json"]),
            sv(&["reproduce", "multicore", "--svg", "d"]),
        ] {
            let err = Command::parse(&args).expect_err("no charts");
            assert!(err.contains("--svg"), "{err}");
        }
    }

    #[test]
    fn campaign_usage_errors() {
        // Subcommand is mandatory and closed.
        assert!(Command::parse(&sv(&["campaign"])).is_err());
        assert!(Command::parse(&sv(&["campaign", "frobnicate"])).is_err());
        // plan needs a shard count; run needs a shard position and an
        // output; merge needs inputs and an output.
        assert!(Command::parse(&sv(&["campaign", "plan"])).is_err());
        assert!(Command::parse(&sv(&["campaign", "run", "--out", "s.jsonl"])).is_err());
        assert!(Command::parse(&sv(&["campaign", "run", "--shard", "0"])).is_err());
        assert!(Command::parse(&sv(&["campaign", "merge", "--out", "m.json"])).is_err());
        assert!(
            Command::parse(&sv(&["campaign", "merge", "--inputs", "a.jsonl,b.jsonl"])).is_err()
        );
        // An inline total that disagrees with --shards is caught.
        let err = Command::parse(&sv(&[
            "campaign", "run", "--shard", "1/3", "--shards", "4", "--out", "s.jsonl",
        ]))
        .expect_err("conflicting totals");
        assert!(err.contains("disagrees"), "{err}");
        // Malformed shard positions are usage errors.
        for bad in ["", "x", "1/", "/3", "1/3/5"] {
            assert!(
                Command::parse(&sv(&[
                    "campaign", "run", "--shard", bad, "--out", "s.jsonl"
                ]))
                .is_err(),
                "--shard {bad:?} should be rejected"
            );
        }
    }
}
