//! Integration tests for the campaign contract (ISSUE: fleet-scale
//! sweep campaigns): a grid partitioned into K interleaved shards,
//! each run as an ordinary checkpointed sweep process, stream-merged
//! back into a report **bit-identical** to the single-process
//! `Sweep::report` — for any K (including K that does not divide the
//! cell count), any worker count, fast-forward on or off, and with
//! failed cells surfacing exactly as they do in-process.
//!
//! Host wall-clock is the one non-deterministic field, so byte
//! comparisons run both sides through a textual `"wall_ns": N -> 0`
//! rewrite rather than a parse→re-serialize round trip (which would
//! mask encoder drift).

use std::path::{Path, PathBuf};

use vsv::{
    Campaign, Experiment, FaultKind, JobOutcome, MergeOptions, Sweep, SweepReport, SystemConfig,
};
use vsv_workloads::{twin, WorkloadParams};

fn twins(names: &[&str]) -> Vec<WorkloadParams> {
    names
        .iter()
        .map(|n| twin(n).unwrap_or_else(|| panic!("twin {n} exists")))
        .collect()
}

/// The 6-cell test grid: three twins × {baseline, VSV}, params-major.
/// `fault` optionally poisons one global cell with an injected
/// deadlock; `ff` toggles the quiescent-stall fast-forward.
fn grid(ff: bool, fault: Option<usize>) -> Sweep {
    let e = Experiment {
        warmup_instructions: 1_000,
        instructions: 3_000,
    };
    let params = twins(&["gzip", "ammp", "mcf"]);
    let configs = [
        SystemConfig::baseline().with_fast_forward(ff),
        SystemConfig::vsv_with_fsms().with_fast_forward(ff),
    ];
    let mut sweep = Sweep::over_grid(e, &params, &configs);
    if let Some(cell) = fault {
        sweep.jobs_mut()[cell].config.inject_fault = Some(FaultKind::Deadlock);
    }
    sweep
}

/// Rewrites every `"wall_ns": <digits>` value to `0` (pretty or
/// compact), leaving all other bytes untouched. Workload names never
/// contain the pattern, so this is safe on the report and shard file
/// wire formats.
fn zero_wall(json: &str) -> String {
    const KEY: &str = "\"wall_ns\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find(KEY) {
        let (head, tail) = rest.split_at(pos + KEY.len());
        out.push_str(head);
        let spaces = tail.len() - tail.trim_start_matches(' ').len();
        out.push_str(&tail[..spaces]);
        out.push('0');
        let tail = &tail[spaces..];
        let digits = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

/// FNV-1a — the same digest `tests/sweep_report_golden.rs` pins.
fn digest(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn strip_wall_clock(report: &mut SweepReport) {
    report.wall_ns = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
}

/// A fresh shard-file directory in the system temp dir.
fn shard_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vsv-campaign-eq-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create shard dir");
    dir
}

/// Runs every shard of a K-way campaign (workers=1 each, as separate
/// processes would) and returns the shard file paths in shard order.
fn run_shards(campaign: &Campaign, dir: &Path) -> Vec<PathBuf> {
    (0..campaign.shards())
        .map(|s| {
            let path = dir.join(format!("shard-{s}.jsonl"));
            campaign
                .run_shard(s, 1, &path, true)
                .unwrap_or_else(|e| panic!("shard {s} runs: {e}"));
            path
        })
        .collect()
}

#[test]
fn merged_campaign_is_bit_identical_to_the_single_process_report() {
    for ff in [true, false] {
        // One single-process reference per (ff, workers) pair.
        for workers in [1_usize, 4] {
            let mut reference = grid(ff, None).report(workers);
            strip_wall_clock(&mut reference);
            let reference_json =
                serde_json::to_string_pretty(&reference).expect("reference serializes");

            // K=3 divides the 6-cell grid; K=5 does not (shard 0 owns
            // cells {0,5}, shards 1–4 own one cell each).
            for shards in [1_usize, 2, 3, 5] {
                let dir = shard_dir(&format!("ff{ff}-w{workers}-k{shards}"));
                let campaign = Campaign::new(grid(ff, None), shards).expect("valid campaign");
                let inputs = run_shards(&campaign, &dir);

                let (merged_json, summary) = campaign
                    .merge_to_string(&inputs, &MergeOptions { workers })
                    .expect("merge succeeds");
                assert_eq!(summary.cells, 6);
                assert_eq!(summary.failed, 0);
                assert_eq!(summary.shards, shards);

                // Byte-level identity (wall-clock zeroed textually on
                // both sides) and therefore digest identity.
                let merged_zeroed = zero_wall(&merged_json);
                let reference_zeroed = zero_wall(&reference_json);
                assert_eq!(
                    merged_zeroed, reference_zeroed,
                    "ff={ff} workers={workers} K={shards}: merged bytes diverge"
                );
                assert_eq!(digest(&merged_zeroed), digest(&reference_zeroed));

                // Typed identity: the parsed report (records *and*
                // aggregated metrics) matches the in-process fold.
                let mut parsed: SweepReport =
                    serde_json::from_str(&merged_json).expect("merged report parses");
                strip_wall_clock(&mut parsed);
                assert_eq!(parsed, reference);
                assert_eq!(parsed.metrics, reference.metrics);

                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn failed_cells_surface_identically_through_a_campaign() {
    // Cell 2 (ammp under baseline, params-major) deadlocks. The
    // single-process sweep and the 3-shard campaign must agree on
    // the failure record byte-for-byte.
    const FAULTY_CELL: usize = 2;
    let mut reference = grid(true, Some(FAULTY_CELL)).report(2);
    strip_wall_clock(&mut reference);
    assert_eq!(reference.failed_jobs(), 1);

    let dir = shard_dir("fault");
    let campaign = Campaign::new(grid(true, Some(FAULTY_CELL)), 3).expect("valid campaign");
    let inputs = run_shards(&campaign, &dir);

    let (merged_json, summary) = campaign
        .merge_to_string(&inputs, &MergeOptions { workers: 2 })
        .expect("merge succeeds despite the failed cell");
    assert_eq!(
        summary.failed, 1,
        "merge reports the failure for exit codes"
    );

    let reference_json = serde_json::to_string_pretty(&reference).expect("serializes");
    assert_eq!(zero_wall(&merged_json), zero_wall(&reference_json));

    let mut parsed: SweepReport = serde_json::from_str(&merged_json).expect("parses");
    strip_wall_clock(&mut parsed);
    let failed = parsed.failures().next().expect("one failure");
    assert_eq!(failed.job, FAULTY_CELL);
    assert_eq!(failed.workload, "ammp");
    match &failed.outcome {
        JobOutcome::Failed { error, .. } => assert_eq!(error.kind(), "deadlock"),
        JobOutcome::Ok(_) => unreachable!("cell {FAULTY_CELL} failed"),
    }
    assert_eq!(
        parsed.failures().next().map(|r| &r.outcome),
        reference.failures().next().map(|r| &r.outcome),
        "the typed failure is preserved through the shard wire format"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rerunning_a_finished_shard_is_idempotent() {
    // A finalized shard file is itself a complete checkpoint: a
    // second (non-fresh) run re-simulates nothing and rewrites the
    // identical bytes — including the cached wall-clock fields.
    let dir = shard_dir("idempotent");
    let campaign = Campaign::new(grid(true, None), 2).expect("valid campaign");
    let path = dir.join("shard-0.jsonl");
    campaign.run_shard(0, 1, &path, true).expect("first run");
    let first = std::fs::read_to_string(&path).expect("shard file");
    campaign.run_shard(0, 1, &path, false).expect("resume run");
    let second = std::fs::read_to_string(&path).expect("shard file");
    assert_eq!(first, second, "resume of a complete shard is a no-op");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpointed_sweep_is_a_one_shard_campaign() {
    // `sweep --checkpoint` writes shard 0 of a one-shard campaign, so
    // the merge accepts its file as is and reproduces the in-process
    // report's bytes.
    let dir = shard_dir("one-shard");
    let sweep = grid(true, None);
    let campaign = Campaign::new(sweep.clone(), 1).expect("valid campaign");
    let path = dir.join("checkpoint.jsonl");
    campaign
        .run_shard(0, 2, &path, true)
        .expect("checkpointed run");
    let merged = dir.join("merged.json");
    let summary = campaign
        .merge_files(&[path], &MergeOptions { workers: 2 }, &merged)
        .expect("the checkpoint merges as a shard file");
    assert_eq!((summary.cells, summary.failed, summary.shards), (6, 0, 1));
    let reference = serde_json::to_string_pretty(&sweep.report(2)).expect("serializes");
    let merged = std::fs::read_to_string(&merged).expect("merged report");
    assert_eq!(zero_wall(&merged), zero_wall(&reference));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_completion_ordered_checkpoint_still_resumes() {
    // Before a checkpointed sweep was finalized, its file kept records
    // in completion order under a header stamped `wall_ns` 0. Such a
    // file, here missing cell 1, resumes: only the missing cell runs,
    // and the file is finalized into grid order.
    let dir = shard_dir("completion-order");
    let sweep = grid(true, None);
    let campaign = Campaign::new(sweep.clone(), 1).expect("valid campaign");
    let path = dir.join("checkpoint.jsonl");
    let mut uninterrupted = campaign
        .run_shard(0, 2, &path, true)
        .expect("checkpointed run");
    strip_wall_clock(&mut uninterrupted);

    let finalized = std::fs::read_to_string(&path).expect("checkpoint");
    let lines: Vec<&str> = finalized.lines().collect();
    assert_eq!(lines.len(), 7, "header + 6 records: {finalized}");
    let mut legacy = vec![zero_wall(lines[0])];
    legacy.extend(
        lines[1..]
            .iter()
            .rev()
            .filter(|l| !l.starts_with("{\"job\":1,"))
            .map(|l| (*l).to_owned()),
    );
    std::fs::write(&path, legacy.join("\n") + "\n").expect("rewrite checkpoint");

    let mut resumed = campaign.run_shard(0, 2, &path, false).expect("resume");
    strip_wall_clock(&mut resumed);
    assert_eq!(resumed, uninterrupted);
    let rewritten = std::fs::read_to_string(&path).expect("checkpoint");
    let records: Vec<&str> = rewritten.lines().skip(1).collect();
    assert_eq!(records.len(), 6);
    for (j, line) in records.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"job\":{j},")), "{line}");
    }
    assert_ne!(
        zero_wall(&rewritten),
        rewritten,
        "the finalized header and records carry wall clocks"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
