//! `trace` (a mode strip) and `trace summarize` (per-job timelines).

use vsv::{System, SystemConfig};
use vsv_workloads::{twin, Generator};

use crate::grid::unknown_twin;
use crate::Command;

/// Executes `trace` and `trace summarize` (dispatched by
/// [`crate::execute_with_exit`]).
pub(crate) fn execute(cmd: Command) -> Result<(String, i32), String> {
    match cmd {
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
        _ => unreachable!("execute_with_exit dispatches only trace here"),
    }
}

/// One job's accumulated state while summarizing a JSONL trace.
#[derive(Default)]
struct JobTraceSummary {
    /// `(job, workload, policy)` from the `job_start` header, if seen.
    header: Option<(u64, String, String)>,
    /// Event counts by [`vsv::TraceEvent::kind`].
    counts: std::collections::BTreeMap<&'static str, u64>,
    /// `(completed, total latency ns, max latency ns)` accumulated
    /// over every `RequestCompleted`.
    requests: (u64, u64, u64),
    /// Core the stream is currently inside (set by `core_start`
    /// markers; `None` for single-core traces, which never carry
    /// one).
    current_core: Option<u64>,
    /// Per-core accumulation, by core index: `None` is the stream
    /// outside any `core_start` marker, all of a single-core trace.
    cores: std::collections::BTreeMap<Option<u64>, CoreTraceSummary>,
}

/// One core's slice of a job trace.
#[derive(Default)]
struct CoreTraceSummary {
    /// Events attributed to this core.
    events: u64,
    /// `(at, mode)` of every `mode_entered`, in stream order.
    timeline: Vec<(u64, vsv::Mode)>,
    /// `(at, instructions)` of the core's `window_closed`, if any.
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
            current.cores.entry(Some(*core)).or_default();
            continue;
        }
        if let vsv::TraceEvent::RequestCompleted { latency_ns, .. } = &event {
            current.requests.0 += 1;
            current.requests.1 += *latency_ns;
            current.requests.2 = current.requests.2.max(*latency_ns);
        }
        // In a multicore trace the per-core streams are concatenated,
        // so a chip-wide timeline would interleave unrelated time axes:
        // mode/window state goes to the core's slice instead.
        let core = current.current_core;
        let slot = current.cores.entry(core).or_default();
        slot.events += 1;
        match event {
            vsv::TraceEvent::ModeEntered { at, mode, .. } => slot.timeline.push((at, mode)),
            // A core segment closes twice (measured window, then the
            // background span up to the chip re-anchor); the first close
            // is the core's own result. A single-core stream keeps its
            // last close.
            vsv::TraceEvent::WindowClosed {
                at, instructions, ..
            } if core.is_none() || slot.window.is_none() => slot.window = Some((at, instructions)),
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
        let chip: Vec<_> = summary
            .cores
            .iter()
            .filter_map(|(c, s)| Some((c.as_ref()?, s)))
            .collect();
        if !chip.is_empty() {
            // Multicore job: one voltage domain per core, so the
            // residency story is per core, not chip-wide.
            for (core, slot) in chip {
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
        let Some(CoreTraceSummary {
            timeline, window, ..
        }) = summary.cores.get(&None).filter(|s| !s.timeline.is_empty())
        else {
            continue;
        };
        let shown = timeline.len().min(TIMELINE_CAP);
        let strip: Vec<String> = timeline[..shown]
            .iter()
            .map(|(at, mode)| format!("{}@{at}", mode.strip_char()))
            .collect();
        let more = timeline.len() - shown;
        out.push_str(&format!(
            "  timeline: {}{}\n",
            strip.join(" "),
            if more > 0 {
                format!(" … (+{more} more)")
            } else {
                String::new()
            }
        ));
        if let Some(residency) = residency_line(timeline, *window) {
            let window = window
                .map(|(_, insts)| format!("  ({insts} instructions)"))
                .unwrap_or_default();
            out.push_str(&format!("  {residency}{window}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::sweep::tests::sweep_cmd;
    use crate::{execute, execute_with_exit, Command};

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
    fn trace_emits_mode_strip() {
        let out = execute(Command::Trace {
            twin: "ammp".to_owned(),
            ns: 300,
            svg: None,
        })
        .expect("runs");
        assert!(out.contains('H') || out.contains('L'));
    }
}
