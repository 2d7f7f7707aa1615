//! Argument parsing and command execution for `vsv-cli`.
//!
//! Hand-rolled parsing (no CLI dependency): the grammar is small and
//! fixed. See [`Command::parse`] for the accepted forms and the
//! binary's `--help` output for usage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// `resolve_workers` lives in the engine crate so the CLI, the bench
// binaries, and campaign shard processes share one `--workers`
// semantics.
use vsv::{
    resolve_workers, Campaign, Comparison, Experiment, MergeOptions, PolicySpec, Sweep, System,
    SystemConfig,
};
use vsv_workloads::{spec2k_twins, table2_reference, twin, Generator};

/// Which system configuration a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigKind {
    /// The Table 1 baseline (VSV off).
    Baseline,
    /// VSV with both FSMs at 3/10 (the paper's headline config).
    VsvFsm,
    /// VSV without the FSMs (down on detect, up on first return).
    VsvNoFsm,
}

impl ConfigKind {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "baseline" => Ok(ConfigKind::Baseline),
            "vsv-fsm" | "vsv" => Ok(ConfigKind::VsvFsm),
            "vsv-nofsm" => Ok(ConfigKind::VsvNoFsm),
            other => Err(format!(
                "unknown config '{other}' (expected baseline | vsv-fsm | vsv-nofsm)"
            )),
        }
    }

    /// Builds the [`SystemConfig`], optionally with Time-Keeping.
    #[must_use]
    pub fn to_config(self, timekeeping: bool) -> SystemConfig {
        let base = match self {
            ConfigKind::Baseline => SystemConfig::baseline(),
            ConfigKind::VsvFsm => SystemConfig::vsv_with_fsms(),
            ConfigKind::VsvNoFsm => SystemConfig::vsv_without_fsms(),
        };
        base.with_timekeeping(timekeeping)
    }
}

/// The grid-defining flags shared by `sweep` and every `campaign`
/// subcommand: the same flags must rebuild the same grid in every
/// shard process and in the merge, or the campaign's header/digest
/// validation rejects the files.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Twin name; `None` spans the whole suite.
    pub twin: Option<String>,
    /// DVS policy for the VSV side of the grid (`None`: `dual-fsm`).
    pub policy: Option<PolicySpec>,
    /// Voltage-ladder depth for the VSV side (`None`: two rails).
    pub ladder: Option<usize>,
    /// Core count for *both* sides of the grid (`None`: the paper's
    /// single core). N > 1 runs N per-core voltage domains over a
    /// shared L2 on each side, so the baseline is contended too.
    pub cores: Option<usize>,
    /// Attach Time-Keeping to both sides.
    pub timekeeping: bool,
    /// Measured instructions.
    pub insts: u64,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Per-read error probability at VDDL (0 disables the model).
    pub error_rate: f64,
    /// Reliability SLO checked against every cell post-run.
    pub slo: Option<vsv::SloSpec>,
    /// Open-loop service-traffic scenario layered over every cell.
    pub traffic: Option<vsv::TrafficSpec>,
}

impl GridSpec {
    /// Builds the baseline-vs-VSV sweep grid these flags describe
    /// (one twin or the whole suite, params-major).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown twin name.
    pub fn to_sweep(&self) -> Result<Sweep, String> {
        let params = match &self.twin {
            Some(name) => vec![twin(name).ok_or_else(|| unknown_twin(name))?],
            None => spec2k_twins(),
        };
        let e = Experiment {
            warmup_instructions: self.warmup,
            instructions: self.insts,
        };
        let mut vsv_side = match self.policy {
            Some(p) => SystemConfig::with_policy(p),
            None => SystemConfig::vsv_with_fsms(),
        };
        if let Some(depth) = self.ladder {
            vsv_side = vsv_side.with_ladder_depth(depth);
        }
        // The error model and SLO apply to both sides: the baseline
        // never leaves VDDH, where the error probability is exactly
        // zero, so it stays bit-identical while sharing the grid's
        // configuration digesting.
        let reliability = |c: SystemConfig| {
            c.with_error_rate(self.error_rate)
                .with_slo(self.slo)
                .with_traffic(self.traffic)
                .with_cores(self.cores.unwrap_or(1))
        };
        Ok(Sweep::over_grid(
            e,
            &params,
            &[
                reliability(SystemConfig::baseline().with_timekeeping(self.timekeeping)),
                reliability(vsv_side.with_timekeeping(self.timekeeping)),
            ],
        ))
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the twins and their Table 2 reference numbers.
    List,
    /// List the twins with their generator parameters alongside the
    /// paper's Table 2 targets.
    Workloads {
        /// Core count to describe: above 1, each twin row is followed
        /// by its per-core seed/stream breakdown (what a multicore
        /// run actually executes).
        cores: usize,
    },
    /// Run one twin under one configuration.
    Run {
        /// Twin name.
        twin: String,
        /// Configuration to run.
        config: ConfigKind,
        /// Attach Time-Keeping prefetching.
        timekeeping: bool,
        /// Measured instructions.
        insts: u64,
        /// Warm-up instructions.
        warmup: u64,
        /// Emit JSON instead of text.
        json: bool,
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
        let mut config = ConfigKind::Baseline;
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
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--twin" => twin_name = Some(next_value("--twin", &mut it)?),
                "--config" => config = ConfigKind::parse(&next_value("--config", &mut it)?)?,
                "--tk" => timekeeping = true,
                "--json" => json = true,
                "--insts" => {
                    insts = next_value("--insts", &mut it)?
                        .parse()
                        .map_err(|e| format!("--insts: {e}"))?;
                }
                "--warmup" => {
                    warmup = next_value("--warmup", &mut it)?
                        .parse()
                        .map_err(|e| format!("--warmup: {e}"))?;
                }
                "--workers" => {
                    workers = next_value("--workers", &mut it)?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?;
                }
                "--ns" => {
                    ns = next_value("--ns", &mut it)?
                        .parse()
                        .map_err(|e| format!("--ns: {e}"))?;
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
                "--shards" => {
                    shards = Some(
                        next_value("--shards", &mut it)?
                            .parse()
                            .map_err(|e| format!("--shards: {e}"))?,
                    );
                }
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
                    error_rate = next_value("--error-rate", &mut it)?
                        .parse()
                        .map_err(|e| format!("--error-rate: {e}"))?;
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
            "list" => Ok(Command::List),
            "workloads" => Ok(Command::Workloads {
                cores: single_cores(&cores_list, "workloads")?.unwrap_or(1),
            }),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "run" => Ok(Command::Run {
                twin: need_twin(twin_name)?,
                config,
                timekeeping,
                insts,
                warmup,
                json,
            }),
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

/// Usage text.
pub const USAGE: &str = "\
vsv-cli — run the VSV (MICRO-36 2003) reproduction from the command line

USAGE:
  vsv-cli list
  vsv-cli workloads [--cores N]
  vsv-cli run     --twin NAME [--config baseline|vsv-fsm|vsv-nofsm]
                  [--tk] [--insts N] [--warmup N] [--json]
  vsv-cli compare --twin NAME [--policies A,B,.. | --ladders D1,D2,..
                  | --cores C1,C2,..]
                  [--tk] [--insts N] [--warmup N] [--workers N] [--json]
  vsv-cli sweep   [--twin NAME] [--policy NAME] [--ladder N] [--cores N] [--tk]
                  [--error-rate F] [--slo PPM,NS | --slo KEY=VALUE,..]
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
--inject-fault CELL[:KIND] arms a deterministic fault in grid cell
CELL for exercising these paths (testing/CI); KIND is deadlock (the
default), panic, or unrecoverable-read.

Reliability: --error-rate F enables the low-voltage timing-error
model — each cache-read delivery errs with probability F at VDDL,
scaling quadratically with undervolting and exactly 0 at VDDH, drawn
from a seeded counter PRNG (bit-identical for any worker count).
Errored reads retry after a fixed detect + reissue delay; a read
that exhausts its retry budget fails the cell with a typed
unrecoverable-read error. --slo PPM,NS asserts a reliability SLO on
every cell post-run: at most PPM retries per million fills and at
most NS nanoseconds of p99 added read latency. The extended form
--slo KEY=VALUE,.. (keys: retry, fill_p99, p99, p999; unspecified
retry/fill_p99 are unbounded) adds end-to-end request-latency
ceilings p99/p999 in ns, judged against the --traffic request
histogram (vacuously met without --traffic). Violations are
reported per cell and exit with code 3 (cell failures win: 1). The
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

Multicore: --cores N replicates the core plus its private hierarchy
N times over one shared, arbitrated L2/bus/DRAM fabric, with an
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

EXAMPLES:
  vsv-cli compare --twin mcf
  vsv-cli compare --twin mcf --policies dual-fsm,immediate-down,oracle-down
  vsv-cli compare --twin mcf --ladders 1,2,4
  vsv-cli compare --twin mcf --cores 1,2,4
  vsv-cli sweep --twin mcf --cores 2 --json
  vsv-cli sweep --policy ladder-fsm --ladder 4 --json
  vsv-cli sweep --policy always-high --json
  vsv-cli sweep --twin mcf --error-rate 0.02 --slo 50000,8
  vsv-cli sweep --twin mcf --policy error-backoff --error-rate 0.02 --slo 50000,8
  vsv-cli sweep --twin mcf --traffic poisson:rate=0.02,size=5000
  vsv-cli sweep --twin mcf --traffic mmpp:rate=0.01,burst=0.2,on=20000,off=40000,size=5000 \\
                --slo p99=60000,p999=120000
  vsv-cli sweep --twin mcf --inject-fault 1:unrecoverable-read
  vsv-cli run --twin applu --config vsv-fsm --tk --json
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
        Command::List => {
            let mut out = String::new();
            out.push_str("twin       paper IPC  paper MR  paper MR(TK)\n");
            for r in table2_reference() {
                out.push_str(&format!(
                    "{:<10} {:>9.2} {:>9.1} {:>13.1}\n",
                    r.name, r.ipc_base, r.mr_base, r.mr_tk
                ));
            }
            Ok((out, 0))
        }
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
                 Table 2 calibration targets — see `list` for the compact form)\n",
            );
            if cores > 1 {
                out.push_str(&format!(
                    "(--cores {cores}: each twin runs as {cores} per-core streams over a \
                     shared L2, one voltage domain per core)\n"
                ));
            }
            Ok((out, 0))
        }
        Command::Run {
            twin: name,
            config,
            timekeeping,
            insts,
            warmup,
            json,
        } => {
            let params = twin(&name).ok_or_else(|| unknown_twin(&name))?;
            let e = Experiment {
                warmup_instructions: warmup,
                instructions: insts,
            };
            let result = e
                .try_run(&params, config.to_config(timekeeping))
                .map_err(|err| err.to_string())?;
            if json {
                serde_json::to_string_pretty(&result)
                    .map(|s| (s, 0))
                    .map_err(|e| e.to_string())
            } else {
                Ok((result.to_string(), 0))
            }
        }
        Command::Compare {
            twin: name,
            policies,
            ladders,
            cores,
            timekeeping,
            insts,
            warmup,
            workers,
            json,
        } => {
            let params = twin(&name).ok_or_else(|| unknown_twin(&name))?;
            let e = Experiment {
                warmup_instructions: warmup,
                instructions: insts,
            };
            let tk = |c: SystemConfig| c.with_timekeeping(timekeeping);
            let base = tk(SystemConfig::baseline());
            let disabled = ("disabled".to_owned(), base, base);
            // Each form is a list of labelled (baseline, variant) pairs;
            // the table forms name their first column.
            let (column, pairs): (Option<&str>, Vec<_>) = if !cores.is_empty() {
                // Each VSV row is judged against the *equally
                // contended* baseline at the same core count, so the
                // saving isolates the policy from the shared-L2
                // slowdown.
                let pairs = cores.iter().map(|&n| {
                    (
                        format!("dual-fsm@c{n}"),
                        base.with_cores(n),
                        tk(SystemConfig::vsv_with_fsms()).with_cores(n),
                    )
                });
                (Some("cores"), pairs.collect())
            } else if !ladders.is_empty() {
                let pairs = ladders.iter().map(|&d| {
                    let ladder = SystemConfig::with_policy(PolicySpec::LadderFsm);
                    (
                        format!("ladder-fsm@d{d}"),
                        base,
                        tk(ladder.with_ladder_depth(d)),
                    )
                });
                (
                    Some("ladder"),
                    std::iter::once(disabled).chain(pairs).collect(),
                )
            } else if !policies.is_empty() {
                let pairs = policies
                    .iter()
                    .map(|&p| (p.name().to_owned(), base, tk(SystemConfig::with_policy(p))));
                (
                    Some("policy"),
                    std::iter::once(disabled).chain(pairs).collect(),
                )
            } else {
                let vsv_side = tk(SystemConfig::vsv_with_fsms());
                (None, vec![("vsv".to_owned(), base, vsv_side)])
            };
            let mut out = compare(e, params, &pairs, column, resolve_workers(workers), json)?;
            if !cores.is_empty() && !json {
                out.push_str(
                    "(each row compares dual-fsm to the baseline at the same core count, \
                     both contended on the shared L2)\n",
                );
            }
            Ok((out, 0))
        }
        Command::Sweep {
            grid,
            workers,
            json,
            checkpoint,
            resume,
            inject_fault,
            trace,
            trace_level,
        } => {
            let mut sweep = grid.to_sweep()?;
            arm_fault(&mut sweep, inject_fault)?;
            let workers = resolve_workers(workers);
            let mut trace_note = None;
            let report = if let Some(path) = trace {
                let (report, traces) = sweep.report_traced(workers, trace_level);
                // Grid-order concatenation: identical bytes for any
                // worker count.
                let bytes: Vec<u8> = traces.concat();
                std::fs::write(&path, &bytes).map_err(|e| format!("--trace {path}: {e}"))?;
                trace_note = Some(format!(
                    "({} bytes of {} JSONL trace written to {path})\n",
                    bytes.len(),
                    trace_level.name()
                ));
                report
            } else if let Some(path) = resume {
                sweep
                    .resume(workers, std::path::Path::new(&path))
                    .map_err(|e| format!("--resume {path}: {e}"))?
            } else if let Some(path) = checkpoint {
                sweep
                    .report_with_checkpoint(workers, std::path::Path::new(&path))
                    .map_err(|e| format!("--checkpoint {path}: {e}"))?
            } else {
                sweep.report(workers)
            };
            let code = report_exit_code(&report);
            if json {
                serde_json::to_string_pretty(&report)
                    .map(|s| (s, code))
                    .map_err(|e| e.to_string())
            } else {
                let mut out = format!(
                    "{} jobs on {} workers ({:.1} ms wall)\n{:<10} {:>8} | {:>8} {:>8}\n",
                    report.jobs,
                    report.workers,
                    report.wall_ns as f64 / 1e6,
                    "twin",
                    "MR",
                    "perf%",
                    "power%"
                );
                for pair in report.records.chunks(2) {
                    match (pair[0].result(), pair.get(1).and_then(|r| r.result())) {
                        (Some(base), Some(vsv_run)) => {
                            let cmp = Comparison::of(base, vsv_run);
                            out.push_str(&format!(
                                "{:<10} {:>8.1} | {:>8.1} {:>8.1}\n",
                                base.workload,
                                base.mpki,
                                cmp.perf_degradation_pct,
                                cmp.power_saving_pct
                            ));
                        }
                        _ => {
                            out.push_str(&format!(
                                "{:<10} {:>8} | {:>8} {:>8}\n",
                                pair[0].workload, "FAILED", "-", "-"
                            ));
                        }
                    }
                }
                if let Some(note) = trace_note {
                    out.push_str(&note);
                }
                if let Some(summary) = failure_summary(&report) {
                    out.push_str(&summary);
                }
                if let Some(summary) = slo_summary(&report) {
                    out.push_str(&summary);
                }
                // A reliability-bounded SLO with the error model off is
                // judged against a retry rate that is trivially zero.
                if grid.error_rate == 0.0 && grid.slo.is_some_and(|s| s.bounds_reliability()) {
                    out.push_str(
                        "note: the --slo retry/fill ceilings are trivially met because \
                         --error-rate is 0 (no read ever errs); pass --error-rate to \
                         exercise them\n",
                    );
                }
                Ok((out, code))
            }
        }
        Command::CampaignPlan { grid, shards, json } => {
            let campaign = Campaign::new(grid.to_sweep()?, shards).map_err(|e| e.to_string())?;
            if json {
                #[derive(serde::Serialize)]
                struct PlanRow {
                    shard: usize,
                    cells: usize,
                    grid_cells: Vec<usize>,
                }
                let rows: Vec<PlanRow> = (0..shards)
                    .map(|s| PlanRow {
                        shard: s,
                        cells: campaign.shard_len(s),
                        grid_cells: campaign.shard_cells(s).collect(),
                    })
                    .collect();
                return serde_json::to_string_pretty(&rows)
                    .map(|s| (s, 0))
                    .map_err(|e| e.to_string());
            }
            let mut out = format!(
                "{} cells over {shards} shard(s), interleaved by grid index\n",
                campaign.sweep().len()
            );
            for s in 0..shards {
                let cells: Vec<String> = campaign.shard_cells(s).map(|c| c.to_string()).collect();
                out.push_str(&format!(
                    "shard {s}/{shards}: {:>3} cells  [{}]\n",
                    campaign.shard_len(s),
                    cells.join(",")
                ));
            }
            out.push_str(
                "run each shard with:  campaign run --shard I/N --out shard-I.jsonl (+ the \
                 same grid flags)\n",
            );
            Ok((out, 0))
        }
        Command::CampaignRun {
            grid,
            shard,
            shards,
            workers,
            out,
            fresh,
            inject_fault,
        } => {
            let mut sweep = grid.to_sweep()?;
            arm_fault(&mut sweep, inject_fault)?;
            let campaign = Campaign::new(sweep, shards).map_err(|e| e.to_string())?;
            let report = campaign
                .run_shard(
                    shard,
                    resolve_workers(workers),
                    std::path::Path::new(&out),
                    fresh,
                )
                .map_err(|e| format!("campaign run --out {out}: {e}"))?;
            let code = report_exit_code(&report);
            let mut text = format!(
                "shard {shard}/{shards}: {} cell(s) on {} worker(s) ({:.1} ms wall) -> {out}\n",
                report.jobs,
                report.workers,
                report.wall_ns as f64 / 1e6,
            );
            if let Some(summary) = failure_summary(&report) {
                text.push_str(&summary);
            }
            if let Some(summary) = slo_summary(&report) {
                text.push_str(&summary);
            }
            Ok((text, code))
        }
        Command::CampaignMerge {
            grid,
            shards,
            workers,
            inputs,
            out,
        } => {
            let campaign = Campaign::new(grid.to_sweep()?, shards).map_err(|e| e.to_string())?;
            let paths: Vec<std::path::PathBuf> =
                inputs.iter().map(std::path::PathBuf::from).collect();
            let summary = campaign
                .merge_files(
                    &paths,
                    &MergeOptions {
                        workers: resolve_workers(workers),
                    },
                    std::path::Path::new(&out),
                )
                .map_err(|e| format!("campaign merge --out {out}: {e}"))?;
            let code = if summary.failed > 0 { 1 } else { 0 };
            Ok((
                format!(
                    "merged {} shard(s): {} cell(s), {} failed ({:.1} ms wall) -> {out}\n",
                    summary.shards,
                    summary.cells,
                    summary.failed,
                    summary.wall_ns as f64 / 1e6,
                ),
                code,
            ))
        }
        Command::TraceSummarize { input } => {
            let data =
                std::fs::read_to_string(&input).map_err(|e| format!("--input {input}: {e}"))?;
            summarize_trace(&data).map(|out| (out, 0))
        }
        Command::Trace {
            twin: name,
            ns,
            svg,
        } => {
            let params = twin(&name).ok_or_else(|| unknown_twin(&name))?;
            let mut sys = System::try_new(SystemConfig::vsv_with_fsms(), Generator::new(params))
                .map_err(|e| e.to_string())?;
            let trace = vsv::ModeTrace::new(ns);
            sys.set_event_sink(vsv::TraceLevel::Full, Box::new(trace.clone()));
            sys.try_warm_up(20_000).map_err(|e| e.to_string())?;
            sys.try_run(30_000).map_err(|e| e.to_string())?;
            let mut out = String::new();
            out.push_str("H=high d=down-distribute D=ramp-down L=low u=up-distribute U=ramp-up\n");
            for chunk in trace.strip().into_bytes().chunks(100) {
                out.push_str(std::str::from_utf8(chunk).expect("ascii strip"));
                out.push('\n');
            }
            if let Some(path) = svg {
                let rendered = vsv_viz::TimelineChart::new(&trace).render();
                std::fs::write(&path, rendered).map_err(|e| format!("{path}: {e}"))?;
                out.push_str(&format!("(svg timeline written to {path})\n"));
            }
            Ok((out, 0))
        }
    }
}

/// One row of the cross-policy comparison: the paper's headline
/// metrics plus energy-delay product, relative to the same baseline
/// run.
#[derive(Debug, serde::Serialize)]
struct PolicyRow {
    /// Policy name (`"disabled"` for the baseline row).
    policy: String,
    /// Simulated time for the measured window (ns).
    elapsed_ns: u64,
    /// Total energy for the measured window (mJ).
    energy_mj: f64,
    /// Energy-delay product (mJ·ms): lower is better on both axes.
    edp_mj_ms: f64,
    /// Execution-time increase vs. the baseline (%).
    slowdown_pct: f64,
    /// Average-power saving vs. the baseline (%).
    power_saving_pct: f64,
}

/// Runs labelled (baseline, variant) configuration pairs on one twin
/// as one sweep grid and renders them: under a `column` heading, one
/// [`PolicyRow`] per pair (the `--policies`, `--ladders` and `--cores`
/// tables, or their JSON rows); with no heading, the classic
/// two-sided report of the sole pair. Identical configurations share
/// a grid cell, so a baseline common to every pair runs once.
fn compare(
    e: Experiment,
    params: vsv_workloads::WorkloadParams,
    pairs: &[(String, SystemConfig, SystemConfig)],
    column: Option<&str>,
    workers: usize,
    json: bool,
) -> Result<String, String> {
    let mut keys: Vec<String> = Vec::new();
    let mut configs: Vec<SystemConfig> = Vec::new();
    let mut cell = |c: SystemConfig| {
        let key = format!("{c:?}");
        keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            keys.push(key);
            configs.push(c);
            configs.len() - 1
        })
    };
    let cells: Vec<(usize, usize)> = pairs.iter().map(|&(_, b, v)| (cell(b), cell(v))).collect();
    let report = Sweep::over_grid(e, &[params], &configs).report(workers);
    if let Some(summary) = failure_summary(&report) {
        return Err(summary);
    }
    let results = report.into_results();
    let json_err = |e: serde_json::Error| e.to_string();
    let Some(column) = column else {
        let (b, v) = cells[0];
        let (base, vsv_run) = (&results[b], &results[v]);
        let cmp = Comparison::of(base, vsv_run);
        if json {
            #[derive(serde::Serialize)]
            struct Out {
                baseline: vsv::RunResult,
                vsv: vsv::RunResult,
                comparison: Comparison,
            }
            return serde_json::to_string_pretty(&Out {
                baseline: base.clone(),
                vsv: vsv_run.clone(),
                comparison: cmp,
            })
            .map_err(json_err);
        }
        return Ok(format!("baseline: {base}\nvsv     : {vsv_run}\n=> {cmp}\n"));
    };
    let rows: Vec<PolicyRow> = pairs
        .iter()
        .zip(cells)
        .map(|((label, _, _), (b, v))| {
            let (base, r) = (&results[b], &results[v]);
            let cmp = Comparison::of(base, r);
            let energy_mj = r.energy_pj / 1e9;
            PolicyRow {
                policy: label.clone(),
                elapsed_ns: r.elapsed_ns,
                energy_mj,
                edp_mj_ms: energy_mj * r.elapsed_ns as f64 / 1e6,
                slowdown_pct: cmp.perf_degradation_pct,
                power_saving_pct: cmp.power_saving_pct,
            }
        })
        .collect();
    if json {
        return serde_json::to_string_pretty(&rows).map_err(json_err);
    }
    let mut out = format!(
        "{:<15} {:>11} {:>10} {:>11} {:>10} {:>8}\n",
        column, "elapsed_ns", "energy_mJ", "EDP(mJ·ms)", "slowdown%", "saved%"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<15} {:>11} {:>10.4} {:>11.4} {:>10.2} {:>8.2}\n",
            r.policy, r.elapsed_ns, r.energy_mj, r.edp_mj_ms, r.slowdown_pct, r.power_saving_pct
        ));
    }
    Ok(out)
}

/// One job's accumulated state while summarizing a JSONL trace.
#[derive(Default)]
struct JobTraceSummary {
    /// `(job, workload, policy)` from the `job_start` header, if seen.
    header: Option<(u64, String, String)>,
    /// `(at, mode)` of every `mode_entered`, in stream order.
    timeline: Vec<(u64, vsv::Mode)>,
    /// Event counts by [`vsv::TraceEvent::kind`].
    counts: std::collections::BTreeMap<&'static str, u64>,
    /// `(at, instructions)` of the last `window_closed`, if any.
    window: Option<(u64, u64)>,
    /// `(completed, total latency ns, max latency ns)` accumulated
    /// over every `RequestCompleted`.
    requests: (u64, u64, u64),
    /// Core the stream is currently inside (set by `core_start`
    /// markers; `None` for single-core traces, which never carry
    /// one).
    current_core: Option<u64>,
    /// Per-core accumulation for multicore traces: event count,
    /// mode timeline, and last `window_closed`, by core index.
    cores: std::collections::BTreeMap<u64, CoreTraceSummary>,
}

/// One core's slice of a multicore job trace.
#[derive(Default)]
struct CoreTraceSummary {
    /// Events attributed to this core.
    events: u64,
    /// `(at, mode)` of every `mode_entered`, in stream order.
    timeline: Vec<(u64, vsv::Mode)>,
    /// `(at, instructions)` of the last `window_closed`, if any.
    window: Option<(u64, u64)>,
}

/// Mode-residency percentages over a `mode_entered` timeline: each
/// mode holds from its entry to the next entry; the final segment
/// ends at the window close (or the last entry, contributing nothing,
/// if the trace has no close). Returns `None` for an empty timeline
/// or zero span.
fn residency_line(timeline: &[(u64, vsv::Mode)], window: Option<(u64, u64)>) -> Option<String> {
    let (last, _) = timeline.last()?;
    let end = window.map_or(*last, |(at, _)| at);
    let mut ns_in_mode = [0u64; vsv::Mode::COUNT];
    for (i, (at, mode)) in timeline.iter().enumerate() {
        let next = timeline.get(i + 1).map_or(end, |(n, _)| *n).max(*at);
        ns_in_mode[mode.index()] += next - at;
    }
    let span: u64 = ns_in_mode.iter().sum();
    if span == 0 {
        return None;
    }
    let residency: Vec<String> = vsv::Mode::ALL
        .iter()
        .filter(|m| ns_in_mode[m.index()] > 0)
        .map(|m| {
            format!(
                "{} {:.1}%",
                m.strip_char(),
                ns_in_mode[m.index()] as f64 * 100.0 / span as f64
            )
        })
        .collect();
    Some(format!(
        "residency over {span} ns: {}",
        residency.join("  ")
    ))
}

/// Parses a JSONL event trace (the `sweep --trace` output format,
/// schema in `docs/observability.md`) and renders, per job, the event
/// counts, a `mode@ns` transition timeline, and mode-residency
/// percentages.
fn summarize_trace(data: &str) -> Result<String, String> {
    let mut jobs: Vec<JobTraceSummary> = Vec::new();
    for (lineno, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: vsv::TraceEvent = serde_json::from_str(line)
            .map_err(|e| format!("line {}: not a trace event: {e}", lineno + 1))?;
        if let vsv::TraceEvent::JobStart {
            job,
            workload,
            policy,
            ..
        } = &event
        {
            jobs.push(JobTraceSummary {
                header: Some((*job, workload.clone(), policy.clone())),
                ..JobTraceSummary::default()
            });
            continue;
        }
        if jobs.is_empty() {
            // Headerless stream (e.g. a hand-captured single run).
            jobs.push(JobTraceSummary::default());
        }
        let current = jobs.last_mut().expect("pushed above");
        *current.counts.entry(event.kind()).or_insert(0) += 1;
        if let vsv::TraceEvent::CoreStart { core } = &event {
            // Multicore traces are per-core streams behind core_start
            // markers; everything that follows belongs to that core.
            current.current_core = Some(*core);
            current.cores.entry(*core).or_default();
            continue;
        }
        if let vsv::TraceEvent::RequestCompleted { latency_ns, .. } = &event {
            current.requests.0 += 1;
            current.requests.1 += *latency_ns;
            current.requests.2 = current.requests.2.max(*latency_ns);
        }
        // In a multicore trace the per-core streams are concatenated,
        // so the chip-wide timeline would interleave unrelated time
        // axes — route mode/window state to the core's slice instead.
        if let Some(core) = current.current_core {
            let slot = current.cores.entry(core).or_default();
            slot.events += 1;
            match event {
                vsv::TraceEvent::ModeEntered { at, mode, .. } => slot.timeline.push((at, mode)),
                // A core segment closes twice (measured window, then
                // the background span up to the chip re-anchor); the
                // first close is the core's own result.
                vsv::TraceEvent::WindowClosed {
                    at, instructions, ..
                } if slot.window.is_none() => slot.window = Some((at, instructions)),
                _ => {}
            }
            continue;
        }
        match event {
            vsv::TraceEvent::ModeEntered { at, mode, .. } => current.timeline.push((at, mode)),
            vsv::TraceEvent::WindowClosed {
                at, instructions, ..
            } => current.window = Some((at, instructions)),
            _ => {}
        }
    }
    if jobs.is_empty() {
        return Err("trace contains no events".to_owned());
    }

    const TIMELINE_CAP: usize = 24;
    let mut out = String::new();
    out.push_str("H=high d=down-distribute D=ramp-down L=low u=up-distribute U=ramp-up\n");
    for summary in &jobs {
        match &summary.header {
            Some((job, workload, policy)) => {
                out.push_str(&format!("job {job}  {workload}  policy={policy}\n"));
            }
            None => out.push_str("job ?  (no job_start header)\n"),
        }
        let total: u64 = summary.counts.values().sum();
        let by_kind: Vec<String> = summary
            .counts
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect();
        out.push_str(&format!("  events: {total}  ({})\n", by_kind.join(", ")));
        let count = |kind: &str| summary.counts.get(kind).copied().unwrap_or(0);
        let (errors, exhausted, backoffs) = (
            count("ReadError"),
            count("RetryExhausted"),
            count("BackoffEngaged"),
        );
        if errors + exhausted + backoffs > 0 {
            out.push_str(&format!(
                "  reliability: {errors} read errors, {exhausted} retry budgets exhausted, \
                 {backoffs} backoffs\n"
            ));
        }
        let (arrived, bursts) = (count("RequestArrived"), count("BurstStart"));
        let (completed, total_latency, max_latency) = summary.requests;
        if arrived + completed > 0 {
            let latency = total_latency
                .checked_div(completed)
                .map_or_else(String::new, |mean| {
                    format!(", latency mean {mean} / max {max_latency} ns")
                });
            out.push_str(&format!(
                "  requests: {arrived} arrived, {completed} completed, {bursts} bursts{latency}\n"
            ));
        }
        if !summary.cores.is_empty() {
            // Multicore job: one voltage domain per core, so the
            // residency story is per core, not chip-wide.
            for (core, slot) in &summary.cores {
                let window = slot
                    .window
                    .map(|(_, insts)| format!("  ({insts} instructions)"))
                    .unwrap_or_default();
                let residency = residency_line(&slot.timeline, slot.window)
                    .unwrap_or_else(|| "no mode activity".to_owned());
                out.push_str(&format!(
                    "  core {core}: {} events, {} mode entries, {residency}{window}\n",
                    slot.events,
                    slot.timeline.len()
                ));
            }
            continue;
        }
        if summary.timeline.is_empty() {
            continue;
        }
        let shown = summary.timeline.len().min(TIMELINE_CAP);
        let strip: Vec<String> = summary.timeline[..shown]
            .iter()
            .map(|(at, mode)| format!("{}@{at}", mode.strip_char()))
            .collect();
        let more = summary.timeline.len() - shown;
        out.push_str(&format!(
            "  timeline: {}{}\n",
            strip.join(" "),
            if more > 0 {
                format!(" … (+{more} more)")
            } else {
                String::new()
            }
        ));
        if let Some(residency) = residency_line(&summary.timeline, summary.window) {
            let window = summary
                .window
                .map(|(_, insts)| format!("  ({insts} instructions)"))
                .unwrap_or_default();
            out.push_str(&format!("  {residency}{window}\n"));
        }
    }
    Ok(out)
}

/// Arms a deterministic fault of the given kind in global grid cell
/// `cell` (the `--inject-fault` flag, testing/CI).
fn arm_fault(sweep: &mut Sweep, fault: Option<(usize, vsv::FaultKind)>) -> Result<(), String> {
    let Some((cell, kind)) = fault else {
        return Ok(());
    };
    let jobs = sweep.jobs_mut();
    let cells = jobs.len();
    let job = jobs
        .get_mut(cell)
        .ok_or_else(|| format!("--inject-fault {cell}: grid has only {cells} cells"))?;
    job.config.inject_fault = Some(kind);
    Ok(())
}

/// Maps a finished report to the process exit code: `1` when any
/// cell failed, else `3` when any cell violated its reliability SLO,
/// else `0` (failures win over SLO violations — a failed cell has no
/// SLO judgment at all).
fn report_exit_code(report: &vsv::SweepReport) -> i32 {
    if report.failed_jobs() > 0 {
        1
    } else if report
        .records
        .iter()
        .any(|r| r.slo.is_some_and(|s| !s.compliant))
    {
        3
    } else {
        0
    }
}

/// Renders a human-readable list of a report's SLO-violating cells,
/// or `None` when no cell carries a violated SLO judgment.
fn slo_summary(report: &vsv::SweepReport) -> Option<String> {
    let violations: Vec<&vsv::JobRecord> = report
        .records
        .iter()
        .filter(|r| r.slo.is_some_and(|s| !s.compliant))
        .collect();
    if violations.is_empty() {
        return None;
    }
    let mut out = format!(
        "{} of {} sweep cells violated the SLO:\n",
        violations.len(),
        report.jobs
    );
    for r in violations {
        if let Some(slo) = r.slo {
            out.push_str(&format!(
                "  cell #{} ({}, {}): {slo}\n",
                r.job, r.workload, r.policy
            ));
        }
    }
    Some(out)
}

/// Renders a human-readable list of a report's failed cells, or
/// `None` when every cell succeeded.
fn failure_summary(report: &vsv::SweepReport) -> Option<String> {
    let failed = report.failed_jobs();
    if failed == 0 {
        return None;
    }
    let mut out = format!("{failed} of {} sweep cells failed:\n", report.jobs);
    for r in report.failures() {
        if let Some(err) = r.outcome.error() {
            out.push_str(&format!("  cell #{} ({}): {err}\n", r.job, r.workload));
        }
    }
    Some(out)
}

/// Parses an `--inject-fault` value: `CELL` or `CELL:KIND` with KIND
/// one of `deadlock` (the default), `panic`, `unrecoverable-read`.
fn parse_fault(raw: &str) -> Result<(usize, vsv::FaultKind), String> {
    let (cell_raw, kind_raw) = match raw.split_once(':') {
        Some((c, k)) => (c, Some(k)),
        None => (raw, None),
    };
    let cell: usize = cell_raw
        .parse()
        .map_err(|e| format!("--inject-fault cell '{cell_raw}': {e}"))?;
    let kind = match kind_raw {
        None | Some("deadlock") => vsv::FaultKind::Deadlock,
        Some("panic") => vsv::FaultKind::Panic,
        Some("unrecoverable-read") => vsv::FaultKind::UnrecoverableRead,
        Some(other) => {
            return Err(format!(
                "--inject-fault kind '{other}': expected deadlock | panic | unrecoverable-read"
            ))
        }
    };
    Ok((cell, kind))
}

/// Parses a `--slo` value. Two forms:
///
/// * legacy `RATE_PPM,P99_NS`: max retry rate (retries per million
///   fills) and max p99 added read latency (ns);
/// * `KEY=VALUE,..` with keys `retry` (ppm), `fill_p99` (ns, added
///   read latency), `p99`/`p999` (ns, end-to-end request latency —
///   needs `--traffic` to be non-vacuous). Unspecified reliability
///   ceilings are unbounded.
fn parse_slo(raw: &str) -> Result<vsv::SloSpec, String> {
    if raw.contains('=') {
        let mut spec = vsv::SloSpec::new(u64::MAX, u64::MAX);
        for pair in raw.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(format!("--slo '{pair}': expected KEY=VALUE"));
            };
            let n: u64 = value
                .parse()
                .map_err(|e| format!("--slo {key} '{value}': {e}"))?;
            match key {
                "retry" => spec.max_retry_rate_ppm = n,
                "fill_p99" => spec.max_added_latency_p99_ns = n,
                "p99" => spec.max_request_p99_ns = Some(n),
                "p999" => spec.max_request_p999_ns = Some(n),
                other => {
                    return Err(format!(
                        "--slo key '{other}': expected retry | fill_p99 | p99 | p999"
                    ))
                }
            }
        }
        return Ok(spec);
    }
    let Some((rate_raw, p99_raw)) = raw.split_once(',') else {
        return Err(format!(
            "--slo '{raw}': expected RATE_PPM,P99_NS (e.g. --slo 50000,8) or KEY=VALUE,.. \
             (keys: retry, fill_p99, p99, p999)"
        ));
    };
    let max_retry_rate_ppm: u64 = rate_raw
        .parse()
        .map_err(|e| format!("--slo retry rate '{rate_raw}': {e}"))?;
    let max_added_latency_p99_ns: u64 = p99_raw
        .parse()
        .map_err(|e| format!("--slo p99 latency '{p99_raw}': {e}"))?;
    Ok(vsv::SloSpec::new(
        max_retry_rate_ppm,
        max_added_latency_p99_ns,
    ))
}

/// Parses a `--traffic` value: `poisson:rate=R,size=S[,seed=N]` or
/// `mmpp:rate=R,burst=B,on=NS,off=NS,size=S[,seed=N]`. Rates are in
/// requests per microsecond (`rate` is also the MMPP OFF-phase rate,
/// `burst` the ON-phase rate); `size` is committed instructions per
/// request.
fn parse_traffic(raw: &str) -> Result<vsv::TrafficSpec, String> {
    let Some((model, rest)) = raw.split_once(':') else {
        return Err(format!(
            "--traffic '{raw}': expected poisson:rate=R,size=S or \
             mmpp:rate=R,burst=B,on=NS,off=NS,size=S"
        ));
    };
    let mut rate: Option<f64> = None;
    let mut burst: Option<f64> = None;
    let mut on: Option<u64> = None;
    let mut off: Option<u64> = None;
    let mut size: Option<u64> = None;
    let mut seed: Option<u64> = None;
    for pair in rest.split(',') {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!("--traffic '{pair}': expected KEY=VALUE"));
        };
        match key {
            "rate" | "burst" => {
                let f: f64 = value
                    .parse()
                    .map_err(|e| format!("--traffic {key} '{value}': {e}"))?;
                if key == "rate" {
                    rate = Some(f);
                } else {
                    burst = Some(f);
                }
            }
            "on" | "off" | "size" | "seed" => {
                let n: u64 = value
                    .parse()
                    .map_err(|e| format!("--traffic {key} '{value}': {e}"))?;
                match key {
                    "on" => on = Some(n),
                    "off" => off = Some(n),
                    "size" => size = Some(n),
                    _ => seed = Some(n),
                }
            }
            other => {
                return Err(format!(
                    "--traffic key '{other}': expected rate | burst | on | off | size | seed"
                ))
            }
        }
    }
    let need_f = |o: Option<f64>, key: &str| {
        o.ok_or_else(|| format!("--traffic {model}: missing {key}=VALUE"))
    };
    let need_u = |o: Option<u64>, key: &str| {
        o.ok_or_else(|| format!("--traffic {model}: missing {key}=VALUE"))
    };
    let mut spec = match model {
        "poisson" => {
            if burst.is_some() || on.is_some() || off.is_some() {
                return Err("--traffic poisson: burst/on/off only apply to mmpp".to_owned());
            }
            vsv::TrafficSpec::poisson(need_f(rate, "rate")?, need_u(size, "size")?)
        }
        "mmpp" => vsv::TrafficSpec::mmpp(
            need_f(rate, "rate")?,
            need_f(burst, "burst")?,
            need_u(on, "on")?,
            need_u(off, "off")?,
            need_u(size, "size")?,
        ),
        other => {
            return Err(format!(
                "--traffic model '{other}': expected poisson | mmpp"
            ))
        }
    };
    if let Some(s) = seed {
        spec = spec.with_seed(s);
    }
    spec.validate().map_err(|e| format!("--traffic: {e}"))?;
    Ok(spec)
}

/// Parses a `--shard` value: `I` or `I/N` (0-based shard index,
/// total shard count).
fn parse_shard(raw: &str) -> Result<(usize, Option<usize>), String> {
    let parse_part = |part: &str, what: &str| {
        part.parse::<usize>()
            .map_err(|e| format!("--shard {what} '{part}': {e}"))
    };
    match raw.split_once('/') {
        Some((i, n)) => Ok((parse_part(i, "index")?, Some(parse_part(n, "total")?))),
        None => Ok((parse_part(raw, "index")?, None)),
    }
}

/// Parses a `--policy`/`--policies` value; an unknown name is a usage
/// error (exit code 2) that lists the valid spellings.
fn parse_policy(s: impl AsRef<str>) -> Result<PolicySpec, String> {
    let s = s.as_ref();
    PolicySpec::parse(s).ok_or_else(|| {
        let names: Vec<&str> = PolicySpec::ALL.iter().map(|p| p.name()).collect();
        format!("unknown policy '{s}'; valid policies: {}", names.join(", "))
    })
}

/// Parses a `--ladder`/`--ladders` value; depth bounds are checked
/// here so a typo is a usage error (exit code 2) rather than a failed
/// sweep cell.
fn parse_ladder_depth(s: impl AsRef<str>) -> Result<usize, String> {
    let s = s.as_ref();
    let depth: usize = s.parse().map_err(|e| format!("ladder depth '{s}': {e}"))?;
    if depth == 0 || depth > vsv::MAX_LADDER_DEPTH {
        return Err(format!(
            "ladder depth '{s}': expected 1..={}",
            vsv::MAX_LADDER_DEPTH
        ));
    }
    Ok(depth)
}

/// Parses a `--cores` value; count bounds are checked here so a typo
/// is a usage error (exit code 2) rather than a failed sweep cell.
fn parse_cores(s: impl AsRef<str>) -> Result<usize, String> {
    let s = s.as_ref();
    let cores: usize = s.parse().map_err(|e| format!("core count '{s}': {e}"))?;
    if cores == 0 || cores > vsv::MAX_CORES {
        return Err(format!("core count '{s}': expected 1..={}", vsv::MAX_CORES));
    }
    Ok(cores)
}

fn unknown_twin(name: &str) -> String {
    let names: Vec<&str> = spec2k_twins().iter().map(|p| p.name).collect();
    format!("unknown twin '{name}'; known twins: {}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = Command::parse(&sv(&[
            "run", "--twin", "mcf", "--config", "vsv-fsm", "--tk", "--insts", "5000", "--warmup",
            "1000", "--json",
        ]))
        .expect("valid");
        assert_eq!(
            cmd,
            Command::Run {
                twin: "mcf".to_owned(),
                config: ConfigKind::VsvFsm,
                timekeeping: true,
                insts: 5000,
                warmup: 1000,
                json: true,
            }
        );
    }

    #[test]
    fn rejects_missing_twin_and_bad_flags() {
        assert!(Command::parse(&sv(&["run"])).is_err());
        assert!(Command::parse(&sv(&["run", "--twin", "mcf", "--bogus"])).is_err());
        assert!(Command::parse(&sv(&["run", "--twin"])).is_err());
        assert!(Command::parse(&sv(&["frobnicate"])).is_err());
        assert!(Command::parse(&sv(&["run", "--twin", "mcf", "--config", "wat"])).is_err());
    }

    #[test]
    fn empty_args_mean_help() {
        assert_eq!(Command::parse(&[]).expect("ok"), Command::Help);
        assert!(execute(Command::Help).expect("ok").contains("USAGE"));
    }

    #[test]
    fn list_prints_all_twins() {
        let out = execute(Command::List).expect("ok");
        for p in spec2k_twins() {
            assert!(out.contains(p.name), "missing {}", p.name);
        }
    }

    #[test]
    fn run_unknown_twin_is_a_clean_error() {
        let err = execute(Command::Run {
            twin: "doom".to_owned(),
            config: ConfigKind::Baseline,
            timekeeping: false,
            insts: 1000,
            warmup: 100,
            json: false,
        })
        .expect_err("unknown twin");
        assert!(err.contains("doom"));
        assert!(err.contains("mcf"));
    }

    #[test]
    fn run_json_is_valid_json() {
        let out = execute(Command::Run {
            twin: "gzip".to_owned(),
            config: ConfigKind::Baseline,
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            json: true,
        })
        .expect("runs");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(v.get("avg_power_w").is_some());
    }

    #[test]
    fn compare_text_mentions_both_sides() {
        let out = execute(Command::Compare {
            twin: "gzip".to_owned(),
            policies: Vec::new(),
            ladders: Vec::new(),
            cores: Vec::new(),
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            workers: 2,
            json: false,
        })
        .expect("runs");
        assert!(out.contains("baseline:"));
        assert!(out.contains("power saved"));
    }

    fn sweep_cmd(twin: Option<&str>, workers: usize, json: bool) -> Command {
        Command::Sweep {
            grid: GridSpec {
                twin: twin.map(str::to_owned),
                policy: None,
                ladder: None,
                cores: None,
                timekeeping: false,
                insts: 3_000,
                warmup: 1_000,
                error_rate: 0.0,
                slo: None,
                traffic: None,
            },
            workers,
            json,
            checkpoint: None,
            resume: None,
            inject_fault: None,
            trace: None,
            trace_level: vsv::TraceLevel::Events,
        }
    }

    #[test]
    fn parses_sweep_with_workers() {
        let cmd = Command::parse(&sv(&["sweep", "--workers", "4", "--json"])).expect("valid");
        assert_eq!(
            cmd,
            Command::Sweep {
                grid: GridSpec {
                    twin: None,
                    policy: None,
                    ladder: None,
                    cores: None,
                    timekeeping: false,
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
            "50000,8",
        ]))
        .expect("valid");
        let Command::Sweep { grid, .. } = cmd else {
            panic!("expected a sweep command");
        };
        assert_eq!(grid.error_rate, 0.02);
        assert_eq!(grid.slo, Some(vsv::SloSpec::new(50_000, 8)));

        let err = Command::parse(&sv(&["sweep", "--error-rate", "1.5"])).expect_err("out of range");
        assert!(err.contains("probability"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--slo", "50000"])).expect_err("missing p99");
        assert!(err.contains("RATE_PPM,P99_NS"), "{err}");
        let err = Command::parse(&sv(&["sweep", "--slo", "a,b"])).expect_err("non-numeric");
        assert!(err.contains("retry rate"), "{err}");
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
    fn reliability_slo_without_error_model_notes_the_vacuous_ceilings() {
        // A retry-rate ceiling with --error-rate 0 is trivially met;
        // the text output says so (without crying wolf: exit 0, no
        // violation language).
        let mut cmd = sweep_cmd(Some("gzip"), 1, false);
        if let Command::Sweep { grid, .. } = &mut cmd {
            grid.slo = Some(vsv::SloSpec::new(50_000, u64::MAX));
        }
        let (out, code) = execute_with_exit(cmd).expect("runs");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("trivially met"), "{out}");
        assert!(!out.contains("violated"), "{out}");

        // A latency-only SLO has nothing reliability-bound: no note.
        let mut cmd = sweep_cmd(Some("gzip"), 1, false);
        if let Command::Sweep { grid, .. } = &mut cmd {
            grid.slo = Some(vsv::SloSpec::new(u64::MAX, u64::MAX).with_request_p99(u64::MAX - 1));
            grid.traffic = Some(vsv::TrafficSpec::poisson(0.05, 500));
        }
        let (out, code) = execute_with_exit(cmd).expect("runs");
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("trivially met"), "{out}");
    }

    #[test]
    fn sweep_with_traffic_reports_request_fields() {
        let mut cmd = sweep_cmd(Some("gzip"), 1, true);
        if let Command::Sweep { grid, .. } = &mut cmd {
            grid.traffic = Some(vsv::TrafficSpec::poisson(2.0, 200));
        }
        let (out, code) = execute_with_exit(cmd).expect("runs");
        assert_eq!(code, 0);
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(
            out.contains("requests_arrived"),
            "request fields in the report"
        );
        let _ = v;
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
    fn sweep_single_twin_text_has_one_row() {
        let (out, code) = execute_with_exit(sweep_cmd(Some("gzip"), 2, false)).expect("runs");
        assert_eq!(code, 0);
        assert!(out.contains("2 jobs"), "{out}");
        assert!(out.contains("gzip"), "{out}");
    }

    #[test]
    fn sweep_json_is_a_sweep_report() {
        let out = execute(sweep_cmd(Some("gzip"), 1, true)).expect("runs");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        let records = v.get("records").and_then(|r| r.as_seq()).expect("records");
        assert_eq!(records.len(), 2);
        assert!(records[0].get("config_digest").is_some());
    }

    #[test]
    fn injected_fault_yields_partial_report_and_exit_1() {
        let mut cmd = sweep_cmd(Some("gzip"), 2, false);
        if let Command::Sweep { inject_fault, .. } = &mut cmd {
            *inject_fault = Some((1, vsv::FaultKind::Deadlock));
        }
        let (out, code) = execute_with_exit(cmd).expect("sweep still completes");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("FAILED"), "{out}");
        assert!(out.contains("1 of 2 sweep cells failed"), "{out}");
        assert!(out.contains("deadlock"), "{out}");
    }

    #[test]
    fn injected_unrecoverable_read_fails_the_cell_with_exit_1() {
        let mut cmd = sweep_cmd(Some("mcf"), 2, false);
        if let Command::Sweep { inject_fault, .. } = &mut cmd {
            *inject_fault = Some((1, vsv::FaultKind::UnrecoverableRead));
        }
        let (out, code) = execute_with_exit(cmd).expect("sweep still completes");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unrecoverable"), "{out}");
    }

    #[test]
    fn slo_violation_exits_3_and_names_the_cell() {
        let mut cmd = sweep_cmd(Some("mcf"), 2, false);
        if let Command::Sweep { grid, .. } = &mut cmd {
            grid.error_rate = 0.05;
            grid.slo = Some(vsv::SloSpec::new(0, 0));
        }
        let (out, code) = execute_with_exit(cmd).expect("sweep completes");
        assert_eq!(code, 3, "{out}");
        assert!(out.contains("violated the SLO"), "{out}");
        assert!(out.contains("dual-fsm"), "{out}");

        // A generous SLO over the same run is compliant: exit 0.
        let mut cmd = sweep_cmd(Some("mcf"), 2, false);
        if let Command::Sweep { grid, .. } = &mut cmd {
            grid.error_rate = 0.05;
            grid.slo = Some(vsv::SloSpec::new(1_000_000, 1_000));
        }
        let (out, code) = execute_with_exit(cmd).expect("sweep completes");
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("violated"), "{out}");
    }

    #[test]
    fn injected_fault_out_of_range_is_a_usage_error() {
        let mut cmd = sweep_cmd(Some("gzip"), 1, false);
        if let Command::Sweep { inject_fault, .. } = &mut cmd {
            *inject_fault = Some((99, vsv::FaultKind::Deadlock));
        }
        let err = execute_with_exit(cmd).expect_err("out of range");
        assert!(err.contains("grid has only 2 cells"), "{err}");
    }

    #[test]
    fn checkpoint_then_resume_reproduces_the_report() {
        let path = std::env::temp_dir().join("vsv-cli-checkpoint-roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let file = path.display().to_string();

        let mut cmd = sweep_cmd(Some("gzip"), 1, true);
        if let Command::Sweep { checkpoint, .. } = &mut cmd {
            *checkpoint = Some(file.clone());
        }
        let (first, code) = execute_with_exit(cmd).expect("checkpointed sweep runs");
        assert_eq!(code, 0);

        // Resuming from the now-complete checkpoint re-runs nothing
        // and reproduces the same records.
        let mut cmd = sweep_cmd(Some("gzip"), 1, true);
        if let Command::Sweep { resume, .. } = &mut cmd {
            *resume = Some(file);
        }
        let (second, code) = execute_with_exit(cmd).expect("resume runs");
        assert_eq!(code, 0);

        let a: serde_json::Value = serde_json::from_str(&first).expect("json");
        let b: serde_json::Value = serde_json::from_str(&second).expect("json");
        assert_eq!(a.get("records"), b.get("records"));
        let _ = std::fs::remove_file(&path);
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
    fn sweep_trace_then_summarize_renders_a_timeline() {
        let path = std::env::temp_dir().join("vsv-cli-trace-summarize.jsonl");
        let _ = std::fs::remove_file(&path);
        let file = path.display().to_string();

        let mut cmd = sweep_cmd(Some("mcf"), 2, false);
        if let Command::Sweep { trace, .. } = &mut cmd {
            *trace = Some(file.clone());
        }
        let (out, code) = execute_with_exit(cmd).expect("traced sweep runs");
        assert_eq!(code, 0);
        assert!(out.contains("JSONL trace written"), "{out}");

        let (summary, code) =
            execute_with_exit(Command::TraceSummarize { input: file }).expect("summarize runs");
        assert_eq!(code, 0);
        // Both grid cells (baseline + vsv) are summarized, and the VSV
        // cell's timeline shows ramp activity on the mcf twin.
        assert!(summary.contains("policy=disabled"), "{summary}");
        assert!(summary.contains("policy=dual-fsm"), "{summary}");
        assert!(summary.contains("residency over"), "{summary}");
        assert!(summary.contains("L "), "expected Low residency: {summary}");
        let _ = std::fs::remove_file(&path);
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
            for spec in PolicySpec::ALL {
                assert!(err.contains(spec.name()), "{err} missing {}", spec.name());
            }
        }
    }

    #[test]
    fn cross_policy_compare_prints_one_row_per_policy() {
        let (out, code) = execute_with_exit(Command::Compare {
            twin: "gzip".to_owned(),
            policies: vec![PolicySpec::AlwaysHigh, PolicySpec::ImmediateDown],
            ladders: Vec::new(),
            cores: Vec::new(),
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            workers: 2,
            json: false,
        })
        .expect("runs");
        assert_eq!(code, 0);
        for name in ["disabled", "always-high", "immediate-down"] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("EDP"), "{out}");
    }

    #[test]
    fn cross_policy_compare_json_rows_carry_the_metrics() {
        let out = execute(Command::Compare {
            twin: "gzip".to_owned(),
            policies: vec![PolicySpec::DualFsm],
            ladders: Vec::new(),
            cores: Vec::new(),
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            workers: 1,
            json: true,
        })
        .expect("runs");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        let rows = v.as_seq().expect("array of rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("policy").and_then(|p| p.as_str()),
            Some("disabled")
        );
        assert_eq!(
            rows[1].get("policy").and_then(|p| p.as_str()),
            Some("dual-fsm")
        );
        assert!(rows[1].get("edp_mj_ms").is_some());
        assert!(rows[1].get("slowdown_pct").is_some());
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
    fn cross_ladder_compare_prints_one_row_per_depth() {
        let (out, code) = execute_with_exit(Command::Compare {
            twin: "mcf".to_owned(),
            policies: Vec::new(),
            ladders: vec![1, 2, 4],
            cores: Vec::new(),
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            workers: 2,
            json: false,
        })
        .expect("runs");
        assert_eq!(code, 0);
        for name in [
            "disabled",
            "ladder-fsm@d1",
            "ladder-fsm@d2",
            "ladder-fsm@d4",
        ] {
            assert!(out.contains(name), "{out}");
        }
        assert!(out.contains("EDP"), "{out}");
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
    fn cross_cores_compare_prints_one_row_per_count() {
        let (out, code) = execute_with_exit(Command::Compare {
            twin: "mcf".to_owned(),
            policies: Vec::new(),
            ladders: Vec::new(),
            cores: vec![1, 2],
            timekeeping: false,
            insts: 3_000,
            warmup: 1_000,
            workers: 2,
            json: false,
        })
        .expect("runs");
        assert_eq!(code, 0);
        for name in ["dual-fsm@c1", "dual-fsm@c2"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn workloads_lists_per_core_streams() {
        let (out, _) = execute_with_exit(Command::Workloads { cores: 2 }).expect("runs");
        assert!(out.contains("mcf#0"), "{out}");
        assert!(out.contains("mcf#1"), "{out}");
        assert!(out.contains("shared L2"), "{out}");
    }

    #[test]
    fn trace_emits_mode_strip() {
        let out = execute(Command::Trace {
            twin: "ammp".to_owned(),
            ns: 300,
            svg: None,
        })
        .expect("runs");
        assert!(out.contains('H') || out.contains('L'));
    }

    fn mcf_grid() -> GridSpec {
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

    #[test]
    fn campaign_plan_covers_the_grid_once() {
        // The 2-cell mcf grid over 3 shards: shard 2 is legitimately
        // empty, and the union of all shards is each cell exactly once.
        let (text, code) = execute_with_exit(Command::CampaignPlan {
            grid: mcf_grid(),
            shards: 3,
            json: false,
        })
        .expect("plans");
        assert_eq!(code, 0);
        assert!(text.contains("2 cells over 3 shard(s)"), "{text}");

        let (json, code) = execute_with_exit(Command::CampaignPlan {
            grid: mcf_grid(),
            shards: 3,
            json: true,
        })
        .expect("plans");
        assert_eq!(code, 0);
        let rows: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        let rows = rows.as_array().expect("array of shards");
        assert_eq!(rows.len(), 3);
        let mut cells: Vec<u64> = rows
            .iter()
            .flat_map(|r| r.get("grid_cells").and_then(|c| c.as_array()).unwrap())
            .map(|c| c.as_u64().unwrap())
            .collect();
        cells.sort_unstable();
        assert_eq!(cells, [0, 1]);
    }

    #[test]
    fn campaign_run_and_merge_round_trip() {
        let dir = std::env::temp_dir().join("vsv-cli-campaign-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let shard_paths: Vec<String> = (0..2)
            .map(|s| dir.join(format!("shard-{s}.jsonl")).display().to_string())
            .collect();
        for (s, path) in shard_paths.iter().enumerate() {
            let (text, code) = execute_with_exit(Command::CampaignRun {
                grid: mcf_grid(),
                shard: s,
                shards: 2,
                workers: 1,
                out: path.clone(),
                fresh: true,
                inject_fault: None,
            })
            .expect("shard runs");
            assert_eq!(code, 0, "{text}");
            assert!(text.contains(&format!("shard {s}/2")), "{text}");
        }
        let merged = dir.join("merged.json").display().to_string();
        let (text, code) = execute_with_exit(Command::CampaignMerge {
            grid: mcf_grid(),
            shards: 2,
            workers: 1,
            inputs: shard_paths,
            out: merged.clone(),
        })
        .expect("merges");
        assert_eq!(code, 0, "{text}");
        let report: vsv::SweepReport =
            serde_json::from_str(&std::fs::read_to_string(&merged).expect("merged report written"))
                .expect("merged report parses");
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed_jobs(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_run_reports_injected_faults_with_exit_1() {
        let dir = std::env::temp_dir().join("vsv-cli-campaign-fault");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        // Global cell 1 (mcf under VSV) belongs to shard 1 of 2.
        let (text, code) = execute_with_exit(Command::CampaignRun {
            grid: mcf_grid(),
            shard: 1,
            shards: 2,
            workers: 1,
            out: dir.join("shard-1.jsonl").display().to_string(),
            fresh: true,
            inject_fault: Some((1, vsv::FaultKind::Deadlock)),
        })
        .expect("shard runs to completion despite the fault");
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("deadlock"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
