//! Integration tests for the fault-tolerant sweep contract
//! (ISSUE: typed simulation errors, per-job panic isolation, and
//! crash-recoverable checkpoint/resume).
//!
//! Pins the two acceptance criteria:
//!
//! 1. a sweep with one injected-deadlock cell completes every other
//!    cell and reports exactly one `Failed` record, in grid order;
//! 2. an interrupted checkpointed sweep (shard 0 of a one-shard
//!    `Campaign`), resumed through `Campaign::run_shard`, produces a
//!    `SweepReport` bit-identical (wall-clock fields zeroed) to an
//!    uninterrupted run — including when the interruption left a
//!    half-written final line.

use std::path::{Path, PathBuf};

use vsv::{
    Campaign, CampaignError, Experiment, FaultKind, Mode, ModeTransition, SimError, Sweep,
    SweepReport, SystemConfig,
};
use vsv_workloads::{twin, WorkloadParams};

fn quick() -> Experiment {
    Experiment {
        warmup_instructions: 1_000,
        instructions: 3_000,
    }
}

fn twins(names: &[&str]) -> Vec<WorkloadParams> {
    names
        .iter()
        .map(|n| twin(n).unwrap_or_else(|| panic!("twin {n} exists")))
        .collect()
}

/// Host timing is the only non-deterministic part of a report.
fn strip_wall_clock(report: &mut SweepReport) {
    report.wall_ns = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
}

/// Runs `sweep` as shard 0 of a one-shard campaign writing its shard
/// file at `path`: `fresh` starts the file over, otherwise an existing
/// file is resumed.
fn checkpointed(
    sweep: &Sweep,
    workers: usize,
    path: &Path,
    fresh: bool,
) -> Result<SweepReport, CampaignError> {
    Campaign::new(sweep.clone(), 1)?.run_shard(0, workers, path, fresh)
}

/// A fresh path in the system temp dir (tests run in one process, so
/// a per-test name suffices — no timestamps needed).
fn temp_checkpoint(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("vsv-fault-tolerance-{name}.jsonl"));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn injected_deadlock_is_a_typed_error_not_an_abort() {
    let e = quick();
    let p = twin("gzip").expect("gzip exists");
    let cfg = SystemConfig::baseline().with_injected_fault(FaultKind::Deadlock);
    let err = e.try_run(&p, cfg).expect_err("fault armed");
    assert_eq!(err.kind(), "deadlock");
    let rendered = err.to_string();
    assert!(rendered.contains("deadlock"), "{rendered}");
    // The diagnostic carries the recent mode-transition ring.
    assert!(rendered.contains("recent mode transitions"), "{rendered}");
}

#[test]
fn budget_exhaustion_is_a_typed_error() {
    let e = quick();
    let p = twin("gzip").expect("gzip exists");
    let cfg = SystemConfig::baseline().with_max_sim_ns(Some(50));
    let err = e.try_run(&p, cfg).expect_err("budget too small");
    assert_eq!(err.kind(), "budget-exhausted");
    assert!(err.to_string().contains("50"), "{err}");
}

/// Three malformed geometries that each panicked while the machine was
/// built, before the memory hierarchy and the predictor were validated:
/// a 3 MiB L2 (6144 sets), a zero-way L1D and a 1000-entry BTB.
fn malformed_geometries() -> [SystemConfig; 3] {
    let mut l2 = SystemConfig::baseline();
    l2.mem.l2.capacity_bytes = 3 << 20;
    let mut l1d = SystemConfig::baseline();
    l1d.mem.l1d.assoc = 0;
    let mut btb = SystemConfig::baseline();
    btb.core.bpred.btb_entries = 1000;
    [l2, l1d, btb]
}

#[test]
fn malformed_geometry_is_a_typed_invalid_config() {
    let p = twin("gzip").expect("gzip exists");
    let wants = [
        "mem.l2: capacity 3145728",
        "mem.l1d: associativity 0",
        "bpred: btb_entries 1000",
    ];
    for (cfg, want) in malformed_geometries().into_iter().zip(wants) {
        for cores in [1, 2] {
            let err = quick()
                .try_run(&p, cfg.with_cores(cores))
                .expect_err("malformed geometry");
            assert_eq!(err.kind(), "invalid-config", "{err}");
            assert!(err.to_string().contains(want), "{err}");
        }
    }
    let mut wide = SystemConfig::baseline().with_timekeeping(true);
    let pb = wide.mem.prefetch_buffer.as_mut().expect("TK has a buffer");
    pb.assoc = 256;
    pb.capacity_bytes = 256 * 32;
    let err = quick().try_run(&p, wide).expect_err("257+ ways");
    assert!(err.to_string().contains("mem.prefetch_buffer"), "{err}");
}

#[test]
fn a_sweep_cell_of_malformed_geometry_fails_once_without_a_retry() {
    let params = twins(&["gzip"]);
    let report = Sweep::over_grid(quick(), &params, &malformed_geometries()).report(2);
    assert_eq!(report.failed_jobs(), 3);
    for r in &report.records {
        match &r.outcome {
            vsv::JobOutcome::Failed { error, attempts } => {
                assert_eq!(error.kind(), "invalid-config", "{error}");
                assert_eq!(*attempts, 1, "a typed failure is not retried");
            }
            vsv::JobOutcome::Ok(_) => unreachable!("every cell is malformed"),
        }
    }
}

/// A 2-core `mcf` chip under the paper's controller: each core's
/// window is watched by the same rules as a single core's, and a
/// failure names the core (`mcf#<core>`) it happened on.
fn chip_run(cfg: SystemConfig) -> SimError {
    let p = twin("mcf").expect("mcf exists");
    quick()
        .try_run(&p, cfg.with_cores(2))
        .expect_err("the chip window fails")
}

#[test]
fn chip_injected_deadlock_fails_on_core_zero_before_stepping() {
    let err = chip_run(SystemConfig::vsv_with_fsms().with_injected_fault(FaultKind::Deadlock));
    assert_eq!(err.kind(), "deadlock");
    assert_eq!(
        err,
        SimError::Deadlock {
            at: 0,
            committed: 0,
            workload: "mcf#0".to_owned(),
            mode: Mode::High,
            recent_transitions: vec![ModeTransition {
                at_ns: 0,
                mode: Mode::High,
            }],
        }
    );
}

#[test]
fn chip_injected_unrecoverable_read_escalates_through_the_retry_path() {
    let err =
        chip_run(SystemConfig::vsv_with_fsms().with_injected_fault(FaultKind::UnrecoverableRead));
    assert_eq!(err.kind(), "unrecoverable-read");
    assert_eq!(
        err,
        SimError::UnrecoverableRead {
            at: 148,
            committed: 0,
            workload: "mcf#0".to_owned(),
            retries: 3,
            mode: Mode::High,
        }
    );
}

#[test]
fn chip_budget_is_per_window_and_names_the_core_that_ran_out() {
    // The cold warm-up window outlasts 12 µs on core 0.
    let err = chip_run(SystemConfig::vsv_with_fsms().with_max_sim_ns(Some(12_000)));
    assert_eq!(err.kind(), "budget-exhausted");
    assert_eq!(
        err,
        SimError::BudgetExhausted {
            limit_ns: 12_000,
            at: 12_000,
            committed: 679,
            workload: "mcf#0".to_owned(),
        }
    );
    // The measured window: core 0 closes after 18262 ns, so one more
    // ns of budget runs out on core 1 alone...
    let err = chip_run(SystemConfig::vsv_with_fsms().with_max_sim_ns(Some(18_263)));
    assert_eq!(
        err,
        SimError::BudgetExhausted {
            limit_ns: 18_263,
            at: 34_894,
            committed: 4_036,
            workload: "mcf#1".to_owned(),
        }
    );
    // ... while exactly 18262 ns runs out on core 0 in the very ns it
    // reaches its target: the budget is checked before the target.
    let err = chip_run(SystemConfig::vsv_with_fsms().with_max_sim_ns(Some(18_262)));
    assert_eq!(
        err,
        SimError::BudgetExhausted {
            limit_ns: 18_262,
            at: 34_893,
            committed: 4_001,
            workload: "mcf#0".to_owned(),
        }
    );
}

#[test]
fn chip_injected_panic_is_retried_once_under_sweep() {
    let params = twins(&["mcf"]);
    let configs = [
        SystemConfig::vsv_with_fsms().with_cores(2),
        SystemConfig::vsv_with_fsms()
            .with_cores(2)
            .with_injected_fault(FaultKind::Panic),
    ];
    let report = Sweep::over_grid(quick(), &params, &configs).report(2);
    assert_eq!(report.failed_jobs(), 1);
    assert!(report.records[0].outcome.is_ok());
    match &report.records[1].outcome {
        vsv::JobOutcome::Failed { error, attempts } => {
            assert_eq!(error.kind(), "panic");
            assert!(
                error.to_string().contains("injected panic fault"),
                "panic payload is preserved: {error}"
            );
            assert_eq!(*attempts, 2, "panicking cells are retried once");
        }
        vsv::JobOutcome::Ok(_) => unreachable!("the armed cell fails"),
    }
}

#[test]
fn one_poisoned_cell_leaves_the_other_records_ok_and_in_grid_order() {
    let e = quick();
    let params = twins(&["gzip", "mcf", "ammp"]);
    let configs = [
        SystemConfig::baseline(),
        SystemConfig::vsv_with_fsms().with_injected_fault(FaultKind::Panic),
    ];
    // Grid order is params-major: cell 3 = mcf under the poisoned
    // VSV config.
    let mut sweep = Sweep::over_grid(e, &params, &configs);
    for (i, job) in sweep.jobs_mut().iter_mut().enumerate() {
        if i != 3 {
            job.config.inject_fault = None;
        }
    }
    let report = sweep.report(4);
    assert_eq!(report.jobs, 6);
    assert_eq!(report.records.len(), 6);
    assert_eq!(report.failed_jobs(), 1);
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.job, i, "records must stay in grid order");
        assert_eq!(r.outcome.is_ok(), i != 3, "only cell 3 fails");
    }
    let failed = report.failures().next().expect("one failure");
    assert_eq!(failed.workload, "mcf");
    let err = failed.outcome.error().expect("failed cell has an error");
    assert_eq!(err.kind(), "panic");
    assert!(
        err.to_string().contains("injected panic fault"),
        "panic payload is preserved: {err}"
    );
    match &failed.outcome {
        vsv::JobOutcome::Failed { attempts, .. } => {
            assert_eq!(*attempts, 2, "panicking cells are retried once");
        }
        vsv::JobOutcome::Ok(_) => unreachable!("cell 3 failed"),
    }
}

#[test]
fn failed_sweep_matches_the_healthy_sweep_on_every_other_cell() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let healthy = Sweep::over_grid(e, &params, &configs).report(2);

    let mut sweep = Sweep::over_grid(e, &params, &configs);
    sweep.jobs_mut()[0].config.inject_fault = Some(FaultKind::Deadlock);
    let faulty = sweep.report(2);

    assert_eq!(faulty.failed_jobs(), 1);
    for (h, f) in healthy.records.iter().zip(&faulty.records).skip(1) {
        assert_eq!(
            h.outcome, f.outcome,
            "healthy cells are bit-identical to the all-success sweep"
        );
    }
}

#[test]
fn checkpoint_resume_after_truncation_is_bit_identical() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let sweep = Sweep::over_grid(e, &params, &configs);
    let path = temp_checkpoint("truncation");

    let mut uninterrupted =
        checkpointed(&sweep, 2, &path, true).expect("checkpointed run succeeds");
    strip_wall_clock(&mut uninterrupted);

    let full = std::fs::read_to_string(&path).expect("checkpoint written");
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 records: {full}");

    // Simulate a kill: drop the last two complete records and leave a
    // half-written line behind.
    let half = &lines[2][..lines[2].len() / 2];
    let truncated = format!("{}\n{}\n{half}", lines[0], lines[1]);
    std::fs::write(&path, truncated).expect("rewrite checkpoint");

    let mut resumed = checkpointed(&sweep, 2, &path, false).expect("resume succeeds");
    strip_wall_clock(&mut resumed);
    assert_eq!(
        resumed, uninterrupted,
        "resumed report must be bit-identical to the uninterrupted run"
    );

    // The repaired checkpoint is complete again: a second resume runs
    // nothing and still reproduces the report.
    let mut resumed_again = checkpointed(&sweep, 2, &path, false).expect("second resume succeeds");
    strip_wall_clock(&mut resumed_again);
    assert_eq!(resumed_again, uninterrupted);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_of_missing_file_degenerates_to_a_fresh_run() {
    let e = quick();
    let params = twins(&["gzip"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let sweep = Sweep::over_grid(e, &params, &configs);
    let path = temp_checkpoint("fresh");

    let mut resumed = checkpointed(&sweep, 2, &path, false).expect("fresh resume succeeds");
    strip_wall_clock(&mut resumed);
    let mut plain = sweep.report(2);
    strip_wall_clock(&mut plain);
    assert_eq!(resumed, plain);
    // ... and it wrote a complete checkpoint while doing so.
    let written = std::fs::read_to_string(&path).expect("checkpoint created");
    assert_eq!(written.lines().count(), 3, "header + 2 records");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_for_a_different_grid_is_rejected() {
    let e = quick();
    let params = twins(&["gzip"]);
    let path = temp_checkpoint("digest-mismatch");

    let original = Sweep::over_grid(e, &params, &[SystemConfig::baseline()]);
    checkpointed(&original, 1, &path, true).expect("checkpointed run succeeds");

    // Same shape, different configuration: the v4 header's grid
    // summary catches the divergence up front, before any per-record
    // digest check, and names the grid (not a job index).
    let other = Sweep::over_grid(e, &params, &[SystemConfig::vsv_with_fsms()]);
    let err = checkpointed(&other, 1, &path, false).expect_err("grid mismatch");
    assert!(matches!(err, CampaignError::GridMismatch { .. }), "{err}");

    // A tampered record line still trips the per-record digest check:
    // the header matches (same grid), but the cached cell does not.
    let full = std::fs::read_to_string(&path).expect("checkpoint exists");
    let mut lines: Vec<String> = full.lines().map(str::to_owned).collect();
    let expected = vsv::config_digest(&SystemConfig::baseline());
    assert!(lines[1].contains(&expected), "record line carries digest");
    lines[1] = lines[1].replace(&expected, "deadbeefdeadbeef");
    std::fs::write(&path, lines.join("\n")).expect("rewrite checkpoint");
    let err = checkpointed(&original, 1, &path, false).expect_err("digest mismatch");
    assert!(
        matches!(err, CampaignError::RecordMismatch { cell: 0, .. }),
        "{err}"
    );
    // Restore the intact checkpoint for the scale check below.
    checkpointed(&original, 1, &path, true).expect("rewrite intact checkpoint");

    // A different experiment scale is caught by the header.
    let bigger = Experiment {
        warmup_instructions: 2_000,
        instructions: 3_000,
    };
    let rescaled = Sweep::over_grid(bigger, &params, &[SystemConfig::baseline()]);
    let err = checkpointed(&rescaled, 1, &path, false).expect_err("header mismatch");
    assert!(matches!(err, CampaignError::HeaderMismatch { .. }), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_cells_are_checkpointed_and_survive_resume() {
    let e = quick();
    let params = twins(&["gzip", "mcf"]);
    let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
    let path = temp_checkpoint("failed-cells");

    let mut sweep = Sweep::over_grid(e, &params, &configs);
    sweep.jobs_mut()[1].config.inject_fault = Some(FaultKind::Deadlock);
    let mut first = checkpointed(&sweep, 2, &path, true)
        .expect("checkpointed run completes despite the failure");
    strip_wall_clock(&mut first);
    assert_eq!(first.failed_jobs(), 1);

    // Resume re-runs nothing: the failure record was cached too.
    let mut resumed = checkpointed(&sweep, 2, &path, false).expect("resume succeeds");
    strip_wall_clock(&mut resumed);
    assert_eq!(resumed, first);
    let _ = std::fs::remove_file(&path);
}
