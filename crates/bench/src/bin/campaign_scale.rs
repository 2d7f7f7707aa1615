//! Campaign **scaling** benchmark: the wall-clock of one sweep run as
//! K ∈ {1, 2, 4} shard processes. Emits `BENCH_campaign.json` via the
//! in-tree serde.
//!
//! The fleet grid (high-MR twins × a down-FSM threshold axis) is
//! partitioned into K shards, each run as a `campaign run` process —
//! this binary re-executed in its shard role, so every number includes
//! true process isolation (separate heaps, page tables and checkpoint
//! files). Each shard's sweep gets `VSV_WORKERS = max(1, host CPUs / K)`
//! workers, so every K splits the same host CPUs rather than using K
//! times as many threads. Each K records the shard wave's wall-clock,
//! the workers per shard, the shard processes' CPU seconds, the speedup
//! over K=1 and the streaming merge's wall-clock. The K=1 and K=4
//! merged reports must be byte-identical (wall-clock zeroed): the run
//! exits 1 otherwise. Merge memory is pinned by
//! `tests/campaign_merge_memory.rs`, not here.
//!
//! Usage: `cargo run --release -p vsv-bench --bin campaign_scale`
//! Scale via `VSV_INSTS` / `VSV_WARMUP`; `VSV_CAMPAIGN_JSON` sets the
//! output path (default `BENCH_campaign.json` in the working
//! directory).
//!
//! `VSV_CAMPAIGN_ROLE`, `VSV_CAMPAIGN_SHARD`, `VSV_CAMPAIGN_SHARDS` and
//! `VSV_CAMPAIGN_OUT` are the parent→child protocol, not user knobs. A
//! set count that does not parse, or is zero, exits with code 2 naming
//! the variable before anything is simulated.

use std::path::{Path, PathBuf};
use std::time::Instant;

use vsv::{
    resolve_workers, Campaign, DownPolicy, Experiment, MergeOptions, Sweep, SystemConfig, UpPolicy,
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

/// Child role: run one shard of the fleet grid as a checkpointed sweep
/// on `VSV_WORKERS` workers (the `campaign run` path).
fn role_shard(e: Experiment) {
    let shard = or_exit(BIN, env_value("VSV_CAMPAIGN_SHARD", false)).unwrap_or(0);
    let shards = or_exit(BIN, env_value("VSV_CAMPAIGN_SHARDS", true)).unwrap_or(1);
    let out = PathBuf::from(std::env::var("VSV_CAMPAIGN_OUT").expect("shard role needs OUT"));
    let campaign = Campaign::new(fleet_sweep(e), shards).expect("valid shard count");
    let report = campaign
        .run_shard(shard, resolve_workers(0), &out, true)
        .unwrap_or_else(|err| panic!("shard {shard}/{shards} failed: {err}"));
    assert_eq!(report.failed_jobs(), 0, "fleet grid has no faulty cells");
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
    /// Streaming merge of the K shard files, ms.
    merge_wall_ms: f64,
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
}

/// Runs the fleet grid under K shard processes, merges their files,
/// and returns the measurement plus the merged report path.
fn fleet_point(e: Experiment, k: usize, dir: &Path) -> (FleetPoint, PathBuf) {
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
    let campaign = Campaign::new(fleet_sweep(e), k).expect("valid shard count");
    let start = Instant::now();
    let summary = campaign
        .merge_files(&shard_paths, &MergeOptions { workers: 1 }, &merged)
        .unwrap_or_else(|err| panic!("merge of {k} shards failed: {err}"));
    let merge_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(summary.failed, 0, "fleet grid has no faulty cells");
    let point = FleetPoint {
        processes: k,
        workers_per_shard,
        shards_wall_ms,
        shards_core_s,
        speedup_vs_1: 0.0, // filled in once K=1 is known
        merge_wall_ms,
    };
    (point, merged)
}

fn main() {
    let e = or_exit(BIN, experiment_from_env());
    match std::env::var("VSV_CAMPAIGN_ROLE").as_deref() {
        Ok("shard") => return role_shard(e),
        Ok(other) => panic!("unknown VSV_CAMPAIGN_ROLE {other:?}"),
        Err(_) => {}
    }

    let grid_cells = fleet_sweep(e).len();
    let dir = std::env::temp_dir().join(format!("vsv-campaign-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");

    println!(
        "Campaign scaling: {grid_cells}-cell fleet grid ({} insts/cell)",
        e.instructions
    );
    println!(
        "{:<6} {:>7} | {:>14} {:>8} {:>7} | {:>12}",
        "shards", "workers", "shards wall ms", "core s", "speedup", "merge ms"
    );
    rule(67);

    let mut fleet = Vec::new();
    let mut merged_paths = Vec::new();
    for k in [1usize, 2, 4] {
        let (point, merged) = fleet_point(e, k, &dir);
        merged_paths.push(merged);
        fleet.push(point);
    }
    let base_wall = fleet[0].shards_wall_ms;
    for p in &mut fleet {
        p.speedup_vs_1 = base_wall / p.shards_wall_ms;
        println!(
            "{:<6} {:>7} | {:>14.1} {:>8.2} {:>6.2}x | {:>12.3}",
            p.processes,
            p.workers_per_shard,
            p.shards_wall_ms,
            p.shards_core_s,
            p.speedup_vs_1,
            p.merge_wall_ms
        );
    }

    // Determinism gate: K=1 and K=4 merged the same grid, so after the
    // wall-clock scrub the reports must match byte for byte.
    let k1 = zero_wall(&std::fs::read_to_string(&merged_paths[0]).expect("k=1 merged"));
    let k4 = zero_wall(&std::fs::read_to_string(&merged_paths[2]).expect("k=4 merged"));
    let merged_reports_identical = k1 == k4;

    let report = Report {
        grid_cells,
        host_cpus: host_cpus(),
        instructions_per_run: e.instructions,
        warmup_per_run: e.warmup_instructions,
        fleet,
        merged_reports_identical,
    };
    let path =
        std::env::var("VSV_CAMPAIGN_JSON").unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).expect("report written");
    println!("wrote {path}");
    let _ = std::fs::remove_dir_all(&dir);

    if !merged_reports_identical {
        eprintln!("FAIL: K=1 and K=4 merged reports differ (beyond wall-clock)");
        std::process::exit(1);
    }
}
