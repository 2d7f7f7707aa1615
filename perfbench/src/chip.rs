//! The `chip-sweep` workload: 2-core chips through the parallel sweep
//! engine with traces at the `events` level, then split into campaign
//! shard files and merged back.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsv::{
    config_digest, Campaign, CounterId, Experiment, JobRecord, JsonlSink, MergeOptions,
    MulticoreSystem, PolicySpec, SharedBuf, Sweep, SweepJob, SweepReport, SystemConfig, TraceEvent,
    TraceLevel, TraceSink, TrafficSpec,
};

use crate::single::Span;
use crate::stats::{scrub_wall_clocks, Digest};

/// Cores per chip.
pub const CORES: usize = 2;
/// Campaign shards the report is split into.
pub const SHARDS: usize = 2;
/// Per-read error probability at VDDL. Low enough that no read
/// exhausts its retry budget, so no cell fails.
pub const ERROR_RATE: f64 = 0.005;

/// The chip configurations: the three policies with MMPP burst traffic
/// and the error model on. `error-backoff` runs on a depth-4 ladder, as
/// in the reliability and traffic benches, where backing off has rungs
/// to climb.
#[must_use]
pub fn configs(seed: u64) -> Vec<SystemConfig> {
    let traffic = TrafficSpec::mmpp(0.01, 0.05, 30_000, 10_000, 1_000).with_seed(seed);
    [
        SystemConfig::with_policy(PolicySpec::AlwaysHigh),
        SystemConfig::with_policy(PolicySpec::DualFsm),
        SystemConfig::with_policy(PolicySpec::ErrorBackoff).with_ladder_depth(4),
    ]
    .into_iter()
    .map(|c| {
        c.with_cores(CORES)
            .with_error_rate(ERROR_RATE)
            .with_error_seed(seed)
            .with_traffic(Some(traffic))
    })
    .collect()
}

/// The chip's digest: every record's simulated window and metrics,
/// then every trace byte, in grid order.
#[must_use]
pub fn digest(report: &SweepReport, traces: &[Vec<u8>]) -> String {
    let mut d = Digest::default();
    for r in &report.records {
        if let Some(result) = r.result() {
            d.cell(result, &r.metrics);
        }
    }
    for t in traces {
        d.update(t);
    }
    d.hex()
}

/// Lines of a chip's JSONL trace that its `TraceEvents` counter
/// covers. The runner writes the `JobStart` header and each
/// `CoreStart` marker itself, and a core segment's events after its
/// first `WindowClosed` belong to the background span that runs until
/// the slowest core finishes, outside the measured window; none of
/// those are counted.
#[must_use]
pub fn counted_lines(trace: &[u8]) -> u64 {
    let mut counted = 0;
    let mut in_window = false;
    for line in trace.split(|&b| b == b'\n') {
        if line.starts_with(b"{\"CoreStart\"") {
            in_window = true;
        } else if in_window {
            counted += 1;
            in_window = !line.starts_with(b"{\"WindowClosed\"");
        }
    }
    counted
}

/// Checks that each job's counted trace lines equal its `TraceEvents`
/// counter; returns the first mismatch.
#[must_use]
pub fn check_trace_lines(report: &SweepReport, traces: &[Vec<u8>]) -> Option<String> {
    report.records.iter().zip(traces).find_map(|(r, t)| {
        let events = r.metrics.get(CounterId::TraceEvents);
        let lines = counted_lines(t);
        (lines != events || events == 0).then(|| {
            format!(
                "job {}: {lines} JSONL lines in measured windows, {events} counted trace events",
                r.job
            )
        })
    })
}

/// Host seconds spent writing the shard files and merging them, and
/// the bytes written.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignTimes {
    /// Writing both shard files.
    pub write_s: f64,
    /// Streaming them back into one report.
    pub merge_s: f64,
    /// Bytes of the shard files plus the merged report.
    pub bytes: u64,
}

/// Splits `report` into [`SHARDS`] shard files under `dir` and merges
/// them back, timing both. Records go out with their wall clocks
/// zeroed, so the merged document must equal the scrubbed report byte
/// for byte; a mismatch is returned as the error.
///
/// # Errors
///
/// A campaign or I/O failure, or merged bytes that differ.
pub fn shard_and_merge(
    sweep: &Sweep,
    report: &SweepReport,
    dir: &Path,
) -> Result<CampaignTimes, String> {
    let campaign = Campaign::new(sweep.clone(), SHARDS).map_err(|e| e.to_string())?;
    let mut scrubbed = report.clone();
    scrub_wall_clocks(&mut scrubbed);
    let shards: Vec<Vec<JobRecord>> = (0..SHARDS)
        .map(|s| {
            campaign
                .shard_cells(s)
                .enumerate()
                .map(|(local, cell)| JobRecord {
                    job: local,
                    ..scrubbed.records[cell].clone()
                })
                .collect()
        })
        .collect();
    let paths: Vec<PathBuf> = (0..SHARDS)
        .map(|s| dir.join(format!("shard-{s}.jsonl")))
        .collect();
    let merged = dir.join("merged.json");
    let start = Instant::now();
    for (s, (records, path)) in shards.iter().zip(&paths).enumerate() {
        campaign
            .write_shard_file(s, records, path, 0)
            .map_err(|e| e.to_string())?;
    }
    let written = Instant::now();
    campaign
        .merge_files(
            &paths,
            &MergeOptions {
                workers: report.workers,
            },
            &merged,
        )
        .map_err(|e| e.to_string())?;
    let merge_s = written.elapsed().as_secs_f64();
    let bytes = std::fs::read(&merged).map_err(|e| e.to_string())?;
    let expected = serde_json::to_string_pretty(&scrubbed).map_err(|e| e.to_string())?;
    if bytes != expected.as_bytes() {
        return Err("merged shard bytes differ from the in-memory report".to_owned());
    }
    let mut total = bytes.len() as u64;
    for p in &paths {
        total += std::fs::metadata(p).map_err(|e| e.to_string())?.len();
    }
    Ok(CampaignTimes {
        write_s: (written - start).as_secs_f64(),
        merge_s,
        bytes: total,
    })
}

/// Host seconds to construct and warm every chip of the grid, serially.
///
/// # Errors
///
/// The first construction or warm-up failure.
pub fn setup_s(e: &Experiment, jobs: &[SweepJob]) -> Result<f64, String> {
    let start = Instant::now();
    for job in jobs {
        let mut chip =
            MulticoreSystem::try_new(job.config, &job.params).map_err(|e| e.to_string())?;
        chip.try_warm_up(e.warmup_instructions)
            .map_err(|e| e.to_string())?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// A JSONL sink behind a timer: every `record` is timed into a span
/// the driver keeps a handle on (the runner owns the sink).
#[derive(Debug)]
struct TimedSink {
    inner: JsonlSink<SharedBuf>,
    span: Arc<Mutex<Span>>,
}

impl TraceSink for TimedSink {
    fn record(&mut self, event: &TraceEvent) {
        let t = Instant::now();
        self.inner.record(event);
        let ns = t.elapsed().as_nanos() as u64;
        let mut span = self.span.lock().expect("span lock: no holder panics");
        span.calls += 1;
        span.ns += ns;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// What the traced driver measured over the chip grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChipTrace {
    /// `TraceSink::record` on the JSONL sink.
    pub trace: Span,
    /// JSONL bytes written.
    pub trace_bytes: u64,
    /// Host nanoseconds of the traced cells, summed.
    pub wall_ns: u64,
    /// Shared-bus queueing, simulated ns, over all chips and cores.
    pub bus_wait_ns: u64,
    /// Shared-MSHR admission stalls over all chips and cores.
    pub shared_mshr_stalls: u64,
}

/// One traced chip: `Experiment::try_run_instrumented` with a timing
/// sink, checked against the sweep's record and trace of the same
/// cell, then the chip rebuilt as a `MulticoreSystem` for its fabric
/// counts (also checked against the record).
fn traced_chip(
    e: &Experiment,
    job: &SweepJob,
    index: usize,
    record: &JobRecord,
    expected_trace: &[u8],
) -> Result<ChipTrace, String> {
    let buf = SharedBuf::default();
    let span = Arc::new(Mutex::new(Span::default()));
    let sink = TimedSink {
        inner: JsonlSink::new(buf.clone()),
        span: Arc::clone(&span),
    };
    let header = TraceEvent::JobStart {
        job: index as u64,
        workload: job.params.name.to_owned(),
        policy: job.config.policy_name().to_owned(),
        config_digest: config_digest(&job.config),
    };
    let start = Instant::now();
    let (result, _) = e
        .try_run_instrumented(
            &job.params,
            job.config,
            Some((TraceLevel::Events, Box::new(sink), Some(header))),
        )
        .map_err(|err| err.to_string())?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let bytes = buf.take();
    if Some(&result) != record.result() || bytes != expected_trace {
        return Err(format!(
            "traced chip {index} differs from the sweep's record or trace"
        ));
    }
    let mut chip = MulticoreSystem::try_new(job.config, &job.params).map_err(|e| e.to_string())?;
    chip.try_warm_up(e.warmup_instructions)
        .map_err(|e| e.to_string())?;
    let plain = chip.try_run(e.instructions).map_err(|e| e.to_string())?;
    if Some(&plain) != record.result() {
        return Err(format!(
            "chip {index} rebuilt untraced differs from its record"
        ));
    }
    let fabric = chip.fabric_stats();
    let trace = *span.lock().expect("span lock: no holder panics");
    Ok(ChipTrace {
        trace,
        trace_bytes: bytes.len() as u64,
        wall_ns,
        bus_wait_ns: fabric.iter().map(|f| f.bus_wait_ns).sum(),
        shared_mshr_stalls: fabric.iter().map(|f| f.shared_mshr_stalls).sum(),
    })
}

/// Runs [`traced_chip`] over the grid on `workers` threads, as the
/// sweep engine would, and sums the cells.
///
/// # Errors
///
/// The first cell that failed or differed.
pub fn traced_grid(
    sweep: &Sweep,
    report: &SweepReport,
    traces: &[Vec<u8>],
    workers: usize,
) -> Result<ChipTrace, String> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Result<ChipTrace, String>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = sweep.jobs().get(i) else {
                    break;
                };
                let cell = traced_chip(&sweep.experiment, job, i, &report.records[i], &traces[i]);
                out.lock()
                    .expect("result lock: no holder panics")
                    .push(cell);
            });
        }
    });
    let mut sum = ChipTrace::default();
    for cell in out.into_inner().expect("result lock: no holder panics") {
        let c = cell?;
        sum.trace.calls += c.trace.calls;
        sum.trace.ns += c.trace.ns;
        sum.trace_bytes += c.trace_bytes;
        sum.wall_ns += c.wall_ns;
        sum.bus_wait_ns += c.bus_wait_ns;
        sum.shared_mshr_stalls += c.shared_mshr_stalls;
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_lines_stop_at_each_cores_first_window_close() {
        let trace = b"{\"JobStart\":{}}\n\
            {\"CoreStart\":{\"core\":0}}\n{\"ModeEntered\":{}}\n{\"WindowClosed\":{}}\n\
            {\"MissDetected\":{}}\n{\"WindowClosed\":{}}\n\
            {\"CoreStart\":{\"core\":1}}\n{\"ModeEntered\":{}}\n{\"MissDetected\":{}}\n\
            {\"WindowClosed\":{}}\n{\"WindowClosed\":{}}\n";
        assert_eq!(counted_lines(trace), 2 + 3);
        assert_eq!(counted_lines(b""), 0);
    }

    #[test]
    fn a_small_chip_grid_passes_every_check() {
        let e = Experiment {
            warmup_instructions: 500,
            instructions: 2_000,
        };
        let params = crate::twins(&["art"], 3, 2);
        let sweep = Sweep::over_grid(e, &params, &configs(3));
        let (report, traces) = sweep.report_traced(2, TraceLevel::Events);
        assert_eq!(report.failed_jobs(), 0);
        assert_eq!(check_trace_lines(&report, &traces), None);
        let (serial, serial_traces) = sweep.report_traced(1, TraceLevel::Events);
        assert_eq!(digest(&report, &traces), digest(&serial, &serial_traces));
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let merged = shard_and_merge(&sweep, &report, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(merged.expect("shards merge back").bytes > 0);
        let traced = traced_grid(&sweep, &report, &traces, 2).expect("traced chips match");
        assert!(traced.trace.calls > 0);
    }
}
