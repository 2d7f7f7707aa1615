//! `compare`: labelled (baseline, variant) pairs on one twin, run as
//! one sweep grid and rendered as a two-sided report or a table.

use vsv::{resolve_workers, Comparison, Experiment, PolicySpec, Sweep, SystemConfig};
use vsv_workloads::twin;

use crate::grid::unknown_twin;
use crate::sweep::failure_summary;
use crate::Command;

/// Executes `compare` (dispatched by [`crate::execute_with_exit`]).
pub(crate) fn execute(cmd: Command) -> Result<(String, i32), String> {
    match cmd {
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
        _ => unreachable!("execute_with_exit dispatches only compare here"),
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

#[cfg(test)]
mod tests {
    use vsv::PolicySpec;

    use crate::{execute, execute_with_exit, Command};

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
}
