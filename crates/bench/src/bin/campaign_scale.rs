//! Campaign **scaling** benchmark: multi-process sweep throughput and
//! streaming-merge memory. Emits `BENCH_campaign.json` via the
//! in-tree serde.
//!
//! Two experiments, both on real OS processes (the binary re-executes
//! itself in worker roles, so every number includes true process
//! isolation — separate heaps, page tables, and checkpoint files):
//!
//! 1. **Fleet wall-clock**: a memory-bound grid (high-MR twins × a
//!    down-FSM threshold axis) partitioned into K ∈ {1, 2, 4} shards,
//!    each run as a `campaign run` process whose sweep gets
//!    `VSV_WORKERS = max(1, host CPUs / K)` workers, so every K uses
//!    the same host CPUs rather than K times as many threads; records
//!    wall-clock, workers per shard and the shard processes' CPU
//!    seconds per K, and the speedup over K=1. The K=1 and K=4 merged
//!    reports must be byte-identical (wall-clock zeroed) — the run
//!    exits nonzero otherwise.
//! 2. **Merge memory**: a replicated-cell stress grid (default 1500
//!    cells; `VSV_CAMPAIGN_STRESS_CELLS` overrides) merged by the
//!    streaming path and by a deliberately buffered path
//!    (`Campaign::merge_report`), each in a fresh child process whose
//!    peak RSS (`VmHWM`) is recorded. The streaming merge of the
//!    stress grid must stay under 2× the 10-cell streaming merge —
//!    the O(1)-in-cells gate — while the buffered merge grows with
//!    the grid.
//!
//! Usage: `cargo run --release -p vsv-bench --bin campaign_scale`
//! Scale via `VSV_INSTS` / `VSV_WARMUP`. Extra environment:
//!
//! * `VSV_CAMPAIGN_JSON` — output path (default `BENCH_campaign.json`
//!   in the working directory);
//! * `VSV_CAMPAIGN_STRESS_CELLS` — stress-grid cell count (default
//!   1500; the shard files are synthesized from one simulated cell,
//!   so raising this scales the merge, not the simulation). The
//!   streaming merge still holds the campaign's own grid definition
//!   (`cells × size_of::<SweepJob>()` ≈ 1.2 kB/cell) — that is the
//!   *input*, not merge state — so the < 2× gate bounds the grid size
//!   this default is chosen to respect.
//!
//! The `VSV_CAMPAIGN_ROLE` / `VSV_CAMPAIGN_*` variables are the
//! parent↔child protocol, not user knobs. A set count that does not
//! parse, or is zero, exits with code 2 naming the variable before
//! anything is simulated.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vsv::{
    resolve_workers, Campaign, DownPolicy, Experiment, MergeOptions, Sweep, SweepJob, SystemConfig,
    UpPolicy,
};
use vsv_bench::{env_value, experiment_from_env, or_exit, rule};
use vsv_workloads::{high_mr_names, twin};

/// The name error messages start with.
const BIN: &str = "campaign_scale";

/// The fleet grid: every high-MR twin under baseline plus a down-FSM
/// threshold axis (the Figure 5 shape) — memory-bound, so shard
/// processes spend their time in simulation, not setup.
fn fleet_sweep(e: Experiment) -> Sweep {
    let mut configs = vec![SystemConfig::baseline()];
    for t in [1u32, 2, 3, 4, 5] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.down = DownPolicy::Monitor {
            threshold: t,
            period: 10,
        };
        cfg.vsv.up = UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        };
        configs.push(cfg);
    }
    let twins: Vec<_> = high_mr_names()
        .iter()
        .map(|name| twin(name).expect("high-MR name is in the suite"))
        .collect();
    Sweep::over_grid(e, &twins, &configs)
}

/// The stress grid: one memory-bound cell replicated `cells` times.
/// Identical cells keep synthesis cheap (one simulation, cloned
/// records) while the merge still streams `cells` full records.
fn stress_sweep(e: Experiment, cells: usize) -> Sweep {
    let params = twin("mcf").expect("mcf is in the suite");
    let job = SweepJob {
        params,
        config: SystemConfig::baseline(),
    };
    Sweep::new(e, vec![job; cells])
}

/// Shards used for the merge-memory experiment (both grid sizes, so
/// the reader-count term is held constant).
const STRESS_SHARDS: usize = 2;

/// Peak resident set of this process so far, from `/proc/self/status`
/// (`VmHWM`, in kB). Returns 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// CPU time (user + system) of this process's reaped children, in
/// clock ticks: `cutime` + `cstime` from `/proc/self/stat`. Returns 0
/// where procfs is unavailable.
fn children_cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name start at field 3
    // (`state`); `cutime` and `cstime` are fields 16 and 17.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ticks(16) + ticks(17)
}

/// Clock ticks per second in `/proc` CPU times (Linux's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// The host's available parallelism (1 if unknown).
fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The count or index `name` holds (`default` when unset; zero only
/// where `positive` is false), exiting with code 2 on anything else.
fn env_usize(name: &str, default: usize, positive: bool) -> usize {
    or_exit(BIN, env_value(name, positive)).unwrap_or(default)
}

/// Rewrites every `"wall_ns": <digits>` value to `0` — the textual
/// wall-clock scrub the equivalence tests use, applied before
/// comparing merged reports across shard counts.
fn zero_wall(json: &str) -> String {
    const KEY: &str = "\"wall_ns\": ";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(KEY) {
        let (head, tail) = rest.split_at(pos + KEY.len());
        out.push_str(head);
        out.push('0');
        let digits = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

// ---------------------------------------------------------------- roles

/// Child role: run one shard of the fleet grid as a checkpointed sweep
/// on `VSV_WORKERS` workers (the `campaign run` path).
fn role_shard(e: Experiment) {
    let shard = env_usize("VSV_CAMPAIGN_SHARD", 0, false);
    let shards = env_usize("VSV_CAMPAIGN_SHARDS", 1, true);
    let out = PathBuf::from(std::env::var("VSV_CAMPAIGN_OUT").expect("shard role needs OUT"));
    let campaign = Campaign::new(fleet_sweep(e), shards).expect("valid shard count");
    let report = campaign
        .run_shard(shard, resolve_workers(0), &out, true)
        .unwrap_or_else(|err| panic!("shard {shard}/{shards} failed: {err}"));
    assert_eq!(report.failed_jobs(), 0, "fleet grid has no faulty cells");
}

/// Child role: merge shard files and report peak RSS. The grid is
/// rebuilt from the same environment the parent used, so the shard
/// headers validate; `VSV_CAMPAIGN_MODE` picks the streaming writer
/// or the deliberately buffered `merge_report` contrast.
fn role_merge(e: Experiment) {
    let shards = env_usize("VSV_CAMPAIGN_SHARDS", 1, true);
    let inputs: Vec<PathBuf> = std::env::var("VSV_CAMPAIGN_INPUTS")
        .expect("merge role needs INPUTS")
        .split(',')
        .map(PathBuf::from)
        .collect();
    let grid = std::env::var("VSV_CAMPAIGN_GRID").unwrap_or_else(|_| "fleet".to_string());
    let sweep = match grid.as_str() {
        "fleet" => fleet_sweep(e),
        "stress" => stress_sweep(e, env_usize("VSV_CAMPAIGN_STRESS", 10, true)),
        other => panic!("unknown VSV_CAMPAIGN_GRID {other:?}"),
    };
    let campaign = Campaign::new(sweep, shards).expect("valid shard count");
    let opts = MergeOptions { workers: 1 };
    let mode = std::env::var("VSV_CAMPAIGN_MODE").unwrap_or_else(|_| "streaming".to_string());
    let start = Instant::now();
    let summary = match mode.as_str() {
        "streaming" => {
            let out =
                PathBuf::from(std::env::var("VSV_CAMPAIGN_OUT").expect("streaming needs OUT"));
            campaign
                .merge_files(&inputs, &opts, &out)
                .unwrap_or_else(|err| panic!("merge failed: {err}"))
        }
        "buffered" => {
            // The contrast case: parse the whole merged report back
            // into memory, the way a non-streaming aggregator would.
            let (report, summary) = campaign
                .merge_report(&inputs, &opts)
                .unwrap_or_else(|err| panic!("merge failed: {err}"));
            assert_eq!(report.records.len(), summary.cells);
            summary
        }
        other => panic!("unknown VSV_CAMPAIGN_MODE {other:?}"),
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("cells={}", summary.cells);
    println!("failed={}", summary.failed);
    println!("merge_wall_ms={wall_ms:.3}");
    println!("peak_rss_kb={}", peak_rss_kb());
}

// --------------------------------------------------------------- parent

/// One `key=value` line from a child's stdout.
fn child_value(stdout: &str, key: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child printed no {key}= line:\n{stdout}"))
}

/// Spawns this binary in a child role with the given protocol
/// environment, waits, and returns its stdout.
fn run_child(envs: &[(&str, String)]) -> String {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = std::process::Command::new(exe);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("child spawns");
    assert!(
        out.status.success(),
        "child {envs:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("child stdout is UTF-8")
}

/// One fleet measurement: K shard processes + a streaming merge.
#[derive(Debug, Clone, serde::Serialize)]
struct FleetPoint {
    /// Shard processes run in parallel.
    processes: usize,
    /// Sweep workers in each shard process: `max(1, host_cpus / K)`,
    /// passed as `VSV_WORKERS`.
    workers_per_shard: usize,
    /// Wall-clock of the slowest shard wave (spawn → last exit), ms.
    shards_wall_ms: f64,
    /// CPU seconds (user + system) the K shard processes used together.
    shards_core_s: f64,
    /// `shards_wall_ms(K=1) / shards_wall_ms(K)`.
    speedup_vs_1: f64,
    /// Streaming merge of the K shard files, ms (child-measured).
    merge_wall_ms: f64,
    /// Peak RSS of the merge child, kB.
    merge_peak_rss_kb: u64,
}

/// One merge-memory measurement.
#[derive(Debug, Clone, serde::Serialize)]
struct MergeRss {
    /// `streaming` or `buffered`.
    mode: String,
    /// Stress-grid cells merged.
    cells: usize,
    /// Peak RSS of the merge child, kB.
    peak_rss_kb: u64,
    /// Merge wall-clock, ms.
    wall_ms: f64,
}

/// The emitted report.
#[derive(Debug, Clone, serde::Serialize)]
struct Report {
    /// Fleet-grid cells.
    grid_cells: usize,
    /// The host's available parallelism, which the shard workers split.
    host_cpus: usize,
    /// Measured instructions per cell.
    instructions_per_run: u64,
    /// Warm-up instructions per cell.
    warmup_per_run: u64,
    /// Wall-clock scaling over K ∈ {1, 2, 4} shard processes.
    fleet: Vec<FleetPoint>,
    /// Whether the K=1 and K=4 merged reports were byte-identical
    /// after the wall-clock scrub (the run fails if not).
    merged_reports_identical: bool,
    /// Streaming vs buffered merge memory at 10 and `stress_cells`
    /// cells.
    merge_rss: Vec<MergeRss>,
    /// Stress-grid cells.
    stress_cells: usize,
    /// `streaming(stress) / streaming(10)` peak-RSS ratio — the
    /// O(1)-in-cells claim; must stay < 2.
    streaming_rss_growth: f64,
    /// `buffered(stress) / buffered(10)` peak-RSS ratio — the
    /// contrast the streaming writer avoids.
    buffered_rss_growth: f64,
}

/// Runs the fleet grid under K shard processes and returns the
/// measurement plus the merged report path.
fn fleet_point(k: usize, dir: &Path) -> (FleetPoint, PathBuf) {
    let shard_paths: Vec<PathBuf> = (0..k)
        .map(|s| dir.join(format!("fleet-k{k}-shard{s}.jsonl")))
        .collect();
    let workers_per_shard = (host_cpus() / k).max(1);
    let ticks_before = children_cpu_ticks();
    let start = Instant::now();
    let children: Vec<_> = (0..k)
        .map(|s| {
            let exe = std::env::current_exe().expect("own path");
            let mut cmd = std::process::Command::new(exe);
            cmd.env("VSV_CAMPAIGN_ROLE", "shard")
                .env("VSV_CAMPAIGN_SHARD", s.to_string())
                .env("VSV_CAMPAIGN_SHARDS", k.to_string())
                .env("VSV_CAMPAIGN_OUT", &shard_paths[s])
                .env("VSV_WORKERS", workers_per_shard.to_string());
            cmd.spawn().expect("shard child spawns")
        })
        .collect();
    for (s, mut child) in children.into_iter().enumerate() {
        let status = child.wait().expect("shard child reaped");
        assert!(status.success(), "shard {s}/{k} exited {status}");
    }
    let shards_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let shards_core_s = children_cpu_ticks().saturating_sub(ticks_before) as f64 / USER_HZ;

    let merged = dir.join(format!("fleet-k{k}-merged.json"));
    let inputs = shard_paths
        .iter()
        .map(|p| p.display().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let stdout = run_child(&[
        ("VSV_CAMPAIGN_ROLE", "merge".to_string()),
        ("VSV_CAMPAIGN_GRID", "fleet".to_string()),
        ("VSV_CAMPAIGN_MODE", "streaming".to_string()),
        ("VSV_CAMPAIGN_SHARDS", k.to_string()),
        ("VSV_CAMPAIGN_INPUTS", inputs),
        ("VSV_CAMPAIGN_OUT", merged.display().to_string()),
    ]);
    assert_eq!(child_value(&stdout, "failed") as u64, 0);
    let point = FleetPoint {
        processes: k,
        workers_per_shard,
        shards_wall_ms,
        shards_core_s,
        speedup_vs_1: 0.0, // filled in once K=1 is known
        merge_wall_ms: child_value(&stdout, "merge_wall_ms"),
        merge_peak_rss_kb: child_value(&stdout, "peak_rss_kb") as u64,
    };
    (point, merged)
}

/// Synthesizes the stress grid's shard files from one simulated cell
/// and measures a merge child in the given mode.
fn stress_merge(e: Experiment, cells: usize, mode: &str, dir: &Path) -> MergeRss {
    let sweep = stress_sweep(e, cells);
    let campaign = Campaign::new(sweep, STRESS_SHARDS).expect("valid shard count");
    // One real simulation; every stress cell is a clone of it with
    // the local grid index patched in (the cells are identical, so
    // the per-record digests validate).
    let template = stress_sweep(e, 1).report(1).records.swap_remove(0);
    let inputs: Vec<PathBuf> = (0..STRESS_SHARDS)
        .map(|s| {
            let path = dir.join(format!("stress-{cells}-shard{s}.jsonl"));
            let records: Vec<_> = (0..campaign.shard_len(s))
                .map(|j| {
                    let mut r = template.clone();
                    r.job = j;
                    r
                })
                .collect();
            campaign
                .write_shard_file(s, &records, &path, 0)
                .unwrap_or_else(|err| panic!("synthesize shard {s}: {err}"));
            path
        })
        .collect();
    let mut envs = vec![
        ("VSV_CAMPAIGN_ROLE", "merge".to_string()),
        ("VSV_CAMPAIGN_GRID", "stress".to_string()),
        ("VSV_CAMPAIGN_STRESS", cells.to_string()),
        ("VSV_CAMPAIGN_MODE", mode.to_string()),
        ("VSV_CAMPAIGN_SHARDS", STRESS_SHARDS.to_string()),
        (
            "VSV_CAMPAIGN_INPUTS",
            inputs
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    let out = dir.join(format!("stress-{cells}-{mode}.json"));
    if mode == "streaming" {
        envs.push(("VSV_CAMPAIGN_OUT", out.display().to_string()));
    }
    let stdout = run_child(&envs);
    assert_eq!(child_value(&stdout, "cells") as usize, cells);
    MergeRss {
        mode: mode.to_string(),
        cells,
        peak_rss_kb: child_value(&stdout, "peak_rss_kb") as u64,
        wall_ms: child_value(&stdout, "merge_wall_ms"),
    }
}

fn main() {
    let e = or_exit(BIN, experiment_from_env());
    match std::env::var("VSV_CAMPAIGN_ROLE").as_deref() {
        Ok("shard") => return role_shard(e),
        Ok("merge") => return role_merge(e),
        Ok(other) => panic!("unknown VSV_CAMPAIGN_ROLE {other:?}"),
        Err(_) => {}
    }

    let grid_cells = fleet_sweep(e).len();
    let stress_cells = env_usize("VSV_CAMPAIGN_STRESS_CELLS", 1_500, true);
    let dir = std::env::temp_dir().join(format!("vsv-campaign-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");

    println!(
        "Campaign scaling: {grid_cells}-cell fleet grid ({} insts/cell), \
         {stress_cells}-cell merge stress",
        e.instructions
    );
    println!(
        "{:<6} {:>7} | {:>14} {:>8} {:>7} | {:>12} {:>12}",
        "shards", "workers", "shards wall ms", "core s", "speedup", "merge ms", "merge kB"
    );
    rule(80);

    let mut fleet = Vec::new();
    let mut merged_paths = Vec::new();
    for k in [1usize, 2, 4] {
        let (point, merged) = fleet_point(k, &dir);
        merged_paths.push(merged);
        fleet.push(point);
    }
    let base_wall = fleet[0].shards_wall_ms;
    for p in &mut fleet {
        p.speedup_vs_1 = base_wall / p.shards_wall_ms;
        println!(
            "{:<6} {:>7} | {:>14.1} {:>8.2} {:>6.2}x | {:>12.3} {:>12}",
            p.processes,
            p.workers_per_shard,
            p.shards_wall_ms,
            p.shards_core_s,
            p.speedup_vs_1,
            p.merge_wall_ms,
            p.merge_peak_rss_kb
        );
    }

    // Determinism gate: K=1 and K=4 merged the same grid, so after the
    // wall-clock scrub the reports must match byte for byte.
    let k1 = zero_wall(&std::fs::read_to_string(&merged_paths[0]).expect("k=1 merged"));
    let k4 = zero_wall(&std::fs::read_to_string(&merged_paths[2]).expect("k=4 merged"));
    let merged_reports_identical = k1 == k4;

    let merge_rss: Vec<MergeRss> = [("streaming", 10), ("streaming", stress_cells)]
        .iter()
        .chain([("buffered", 10), ("buffered", stress_cells)].iter())
        .map(|&(mode, cells)| stress_merge(e, cells, mode, &dir))
        .collect();
    let rss = |mode: &str, cells: usize| {
        merge_rss
            .iter()
            .find(|m| m.mode == mode && m.cells == cells)
            .map(|m| m.peak_rss_kb as f64)
            .expect("measured above")
    };
    let streaming_rss_growth = rss("streaming", stress_cells) / rss("streaming", 10);
    let buffered_rss_growth = rss("buffered", stress_cells) / rss("buffered", 10);
    rule(80);
    for m in &merge_rss {
        println!(
            "merge {:<9} {:>6} cells: {:>8} kB peak, {:>10.3} ms",
            m.mode, m.cells, m.peak_rss_kb, m.wall_ms
        );
    }
    println!(
        "streaming RSS growth {streaming_rss_growth:.2}x (gate < 2), \
         buffered {buffered_rss_growth:.2}x"
    );

    let report = Report {
        grid_cells,
        host_cpus: host_cpus(),
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        fleet,
        merged_reports_identical,
        merge_rss,
        stress_cells,
        streaming_rss_growth,
        buffered_rss_growth,
    };
    let path =
        std::env::var("VSV_CAMPAIGN_JSON").unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("report written");
    println!("wrote {path}");
    let _ = std::fs::remove_dir_all(&dir);

    // The two gates CI relies on: cross-K byte identity, and flat
    // streaming-merge memory.
    if !merged_reports_identical {
        eprintln!("FAIL: K=1 and K=4 merged reports differ (beyond wall-clock)");
        std::process::exit(1);
    }
    if streaming_rss_growth >= 2.0 {
        eprintln!(
            "FAIL: streaming merge RSS grew {streaming_rss_growth:.2}x from 10 to \
             {stress_cells} cells (gate < 2x)"
        );
        std::process::exit(1);
    }
}
