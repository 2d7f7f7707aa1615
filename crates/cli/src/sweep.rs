//! `sweep`, the `campaign` verbs, and the shared exit-code helpers.

// `resolve_workers` lives in the engine crate so the CLI, the bench
// binaries, and campaign shard processes share one `--workers`
// semantics.
use vsv::{resolve_workers, Campaign, Comparison, MergeOptions, Sweep};

use crate::Command;

/// Executes `sweep` and `campaign plan | run | merge` (dispatched by
/// [`crate::execute_with_exit`]).
pub(crate) fn execute(cmd: Command) -> Result<(String, i32), String> {
    match cmd {
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
            } else if let Some((flag, path, fresh)) = resume
                .map(|path| ("--resume", path, false))
                .or(checkpoint.map(|path| ("--checkpoint", path, true)))
            {
                // A checkpointed sweep is shard 0 of a one-shard campaign.
                Campaign::new(sweep, 1)
                    .and_then(|c| c.run_shard(0, workers, std::path::Path::new(&path), fresh))
                    .map_err(|e| format!("{flag} {path}: {e}"))?
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
        _ => unreachable!("execute_with_exit dispatches only sweep and campaign here"),
    }
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
pub(crate) fn report_exit_code(report: &vsv::SweepReport) -> i32 {
    match (report.failed_jobs(), slo_summary(report)) {
        (0, None) => 0,
        (0, Some(_)) => 3,
        _ => 1,
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
pub(crate) fn failure_summary(report: &vsv::SweepReport) -> Option<String> {
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

#[cfg(test)]
pub(crate) mod tests {
    use crate::tests::mcf_grid;
    use crate::{execute, execute_with_exit, Command, GridSpec};

    pub(crate) fn sweep_cmd(twin: Option<&str>, workers: usize, json: bool) -> Command {
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
