//! Parallel, deterministic, *fault-tolerant* experiment sweeps.
//!
//! Every table and figure of the paper is a *grid* of independent
//! simulations: workload twins × system configurations. Each run owns
//! its whole simulator, so the grid is embarrassingly parallel — but
//! tables, CSVs, and golden tests all need results in a stable order.
//! [`Sweep`] provides both: jobs execute on `std::thread::scope`
//! workers pulling from a shared atomic queue, and results come back
//! in **grid order** (the order jobs were supplied), bit-identical to
//! a serial loop over [`Experiment::try_run`] regardless of the worker
//! count or the scheduling interleaving. `tests/sweep_equivalence.rs`
//! pins that guarantee.
//!
//! # Fault tolerance
//!
//! A sweep never dies because one cell does. Each job runs behind
//! [`std::panic::catch_unwind`]; a panicking job is retried once
//! (bounded-retry policy for poisoned-state panics) and then recorded
//! as [`JobOutcome::Failed`], alongside typed [`SimError`]s from
//! [`Experiment::try_run`] (deadlocks, invalid configurations,
//! exhausted budgets). The report always covers the whole grid, with
//! per-cell failures as data — `tests/fault_tolerance.rs` pins that.
//!
//! # Checkpoint / resume
//!
//! [`Sweep::report_with_checkpoint`] appends one JSONL line per
//! finished job to a checkpoint file (after a header pinning the grid
//! shape, grid dimensions, and experiment scale); [`Sweep::resume`]
//! validates the header and each record's config digest, skips
//! completed cells (tolerating a half-written final line from a
//! crash), re-runs the rest, and returns a [`SweepReport`]
//! bit-identical — wall-clock fields aside — to an uninterrupted run.
//! A checkpoint whose grid *dimensions* (workloads × policies ×
//! ladders × FSM thresholds) disagree with the sweep is rejected with
//! the typed [`CheckpointError::GridMismatch`] before any per-record
//! digest check.
//!
//! The same checkpoint format (schema v4, which added the grid
//! summary and the `shard`/`shards` pair to the header) is the wire
//! format of multi-process campaigns: [`crate::campaign`] partitions
//! a grid into K interleaved shards, runs each as an ordinary
//! checkpointed sweep process, and stream-merges the K files back
//! into one [`SweepReport`] bit-identical to the single-process run.
//!
//! Worker count comes from the caller, the `VSV_WORKERS` environment
//! variable, or the host's available parallelism, in that order — see
//! [`default_workers`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vsv_workloads::WorkloadParams;

use crate::error::SimError;
use crate::metrics::MetricsRegistry;
use crate::report::{RunResult, SloOutcome};
use crate::runner::Experiment;
use crate::system::SystemConfig;
use crate::trace::TraceLevel;

/// One cell of an experiment grid: a workload under a configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepJob {
    /// The workload parameter point to simulate.
    pub params: WorkloadParams,
    /// The system configuration to simulate it under.
    pub config: SystemConfig,
}

/// How one grid cell ended: a measured result, or a typed failure.
// `Ok` is ~430 bytes larger than `Failed`, but boxing the result
// would push a heap indirection (and a non-derivable serde shape for
// the vendored stand-ins) onto the overwhelmingly common path to
// slim the rare one — not worth it for a per-job record.
#[allow(clippy::large_enum_variant)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The simulation completed; the deterministic measured window.
    Ok(RunResult),
    /// The simulation failed. The sweep still completed every other
    /// cell; this cell's failure is data, not a dead sweep.
    Failed {
        /// What went wrong.
        error: SimError,
        /// Run attempts made (2 when a panicking job was retried
        /// once — the bounded-retry policy; 1 otherwise).
        attempts: u32,
    },
}

impl JobOutcome {
    /// The measured result, if the cell succeeded.
    #[must_use]
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            JobOutcome::Ok(r) => Some(r),
            JobOutcome::Failed { .. } => None,
        }
    }

    /// The failure, if the cell failed.
    #[must_use]
    pub fn error(&self) -> Option<&SimError> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed { error, .. } => Some(error),
        }
    }

    /// Whether the cell succeeded.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }
}

/// Everything recorded about one finished job. This is the unit the
/// progress callback sees, the row type of [`SweepReport`], and the
/// line type of the JSONL checkpoint.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index of the job in the sweep's grid order.
    pub job: usize,
    /// Workload name (from the job's parameter point).
    pub workload: String,
    /// FNV-1a digest of the job's full `SystemConfig`, as 16 hex
    /// digits. Two jobs share a digest exactly when they share a
    /// configuration, so reports remain comparable across runs — and
    /// checkpoint resume validates it before trusting a cached cell.
    pub config_digest: String,
    /// DVS policy the job's configuration runs under
    /// ([`SystemConfig::policy_name`]: `"disabled"` for the baseline).
    pub policy: String,
    /// Voltage-ladder depth of the job's configuration (2 for the
    /// paper's two rails; 1 is the degenerate always-VDDH ladder).
    pub ladder: usize,
    /// Core count of the job's configuration
    /// ([`SystemConfig::cores`]: 1 is the paper's single-core
    /// machine; N > 1 ran N voltage domains over a shared L2).
    /// Defaults to 1 when absent so pre-multicore (v6) checkpoints
    /// still parse.
    #[cfg_attr(feature = "serde", serde(default = "default_cores"))]
    pub cores: usize,
    /// How the cell ended (deterministic: simulated time, energy,
    /// counters, or the typed failure).
    pub outcome: JobOutcome,
    /// The measured window's [`MetricsRegistry`] (deterministic;
    /// schema in `docs/observability.md`). Empty for failed cells.
    pub metrics: MetricsRegistry,
    /// The cell's SLO judgment ([`RunResult::slo`]) surfaced for
    /// report consumers: `None` when the cell failed or the run
    /// carried no [`SloSpec`](crate::report::SloSpec).
    #[cfg_attr(feature = "serde", serde(default))]
    pub slo: Option<SloOutcome>,
    /// Host wall-clock nanoseconds this job took. **Not**
    /// deterministic; consumers that digest reports must zero it
    /// first (see `tests/sweep_report_golden.rs`).
    pub wall_ns: u64,
}

/// Serde default for [`JobRecord::cores`]: pre-multicore checkpoints
/// (v6 and earlier) were all single-core.
#[cfg(feature = "serde")]
fn default_cores() -> usize {
    1
}

impl JobRecord {
    /// The measured result, if the job succeeded.
    #[must_use]
    pub fn result(&self) -> Option<&RunResult> {
        self.outcome.result()
    }
}

/// The serializable outcome of a whole sweep, in grid order.
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Number of jobs in the grid.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Host wall-clock nanoseconds for the whole sweep. Not
    /// deterministic (see [`JobRecord::wall_ns`]).
    pub wall_ns: u64,
    /// One record per job, in grid order.
    pub records: Vec<JobRecord>,
    /// Every record's [`JobRecord::metrics`] merged in grid order —
    /// bit-identical for any worker count (see
    /// [`MetricsRegistry::merge`]). Serialized *after* `records` so
    /// streaming producers — the in-process [`ReportAggregator`] fold
    /// and the campaign merge — can emit the aggregate once the
    /// record stream ends, holding one record at a time.
    pub metrics: MetricsRegistry,
}

impl SweepReport {
    /// The bare results in grid order, consuming the report.
    ///
    /// # Panics
    ///
    /// Panics if any cell failed — positional consumers (the figure
    /// binaries) would silently misalign on a gap. Check
    /// [`SweepReport::failures`] first when failures are survivable.
    #[must_use]
    pub fn into_results(self) -> Vec<RunResult> {
        let failed: Vec<String> = self
            .failures()
            .map(|r| format!("#{} {} ({})", r.job, r.workload, summarize(&r.outcome)))
            .collect();
        if !failed.is_empty() {
            panic!(
                "{} of {} sweep cells failed: {}",
                failed.len(),
                self.jobs,
                failed.join("; ")
            );
        }
        self.records
            .into_iter()
            .filter_map(|r| match r.outcome {
                JobOutcome::Ok(result) => Some(result),
                JobOutcome::Failed { .. } => None,
            })
            .collect()
    }

    /// The failed records, in grid order.
    pub fn failures(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| !r.outcome.is_ok())
    }

    /// Number of failed cells.
    #[must_use]
    pub fn failed_jobs(&self) -> usize {
        self.failures().count()
    }
}

/// Streaming fold of [`JobRecord`]s into the aggregate half of a
/// [`SweepReport`]: record and failure counts plus the grid-ordered
/// metrics merge, one record at a time — O(1) memory in cells.
///
/// Both the in-process sweep assembly ([`Sweep::report`] and
/// friends) and the multi-process campaign merge
/// ([`crate::campaign`]) aggregate through this same type, so a
/// merged K-shard report is guaranteed to aggregate bit-identically
/// to a single-process run: there is exactly one fold order (grid
/// order) and one fold implementation.
#[derive(Debug, Clone, Default)]
pub struct ReportAggregator {
    folded: usize,
    failed: usize,
    metrics: MetricsRegistry,
}

impl ReportAggregator {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the aggregate. Call in grid order: the
    /// counter sums are commutative, but grid order is the pinned
    /// convention (see `docs/observability.md`).
    pub fn fold(&mut self, record: &JobRecord) {
        self.folded += 1;
        if !record.outcome.is_ok() {
            self.failed += 1;
        }
        self.metrics.merge(&record.metrics);
    }

    /// Records folded so far.
    #[must_use]
    pub fn folded(&self) -> usize {
        self.folded
    }

    /// Failed records folded so far.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The running metrics merge.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Consumes the aggregate, yielding the merged metrics.
    #[must_use]
    pub fn into_metrics(self) -> MetricsRegistry {
        self.metrics
    }
}

fn summarize(outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Ok(_) => "ok".to_owned(),
        JobOutcome::Failed { error, attempts } => {
            format!("{} after {attempts} attempt(s)", error.kind())
        }
    }
}

/// FNV-1a over the `Debug` rendering of a [`SystemConfig`], as 16 hex
/// digits. `SystemConfig` derives `Debug` exhaustively, so any knob
/// change (policies, thresholds, cache geometry, power model) changes
/// the digest.
#[must_use]
pub fn config_digest(cfg: &SystemConfig) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Worker count policy: `VSV_WORKERS` if set to a positive integer,
/// otherwise the host's available parallelism (falling back to 1).
///
/// A set-but-unparsable `VSV_WORKERS` (empty, non-numeric, or zero)
/// emits a one-line stderr warning naming the bad value instead of
/// silently using host parallelism.
#[must_use]
pub fn default_workers() -> usize {
    match std::env::var("VSV_WORKERS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!(
                "warning: ignoring VSV_WORKERS={raw:?} (expected a positive \
                 integer); using host parallelism"
            ),
        },
        Err(std::env::VarError::NotPresent) => {}
        Err(e @ std::env::VarError::NotUnicode(_)) => {
            eprintln!("warning: ignoring VSV_WORKERS ({e}); using host parallelism")
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--workers N`-style flag value: `0` means "pick for
/// me" and defers to [`default_workers`] (the `VSV_WORKERS`-then-host
/// policy, including its stderr warning for unparsable values); any
/// positive value wins as-is.
///
/// This is the single worker-count policy shared by the CLI, the
/// bench binaries, and campaign shard processes — one place, one
/// semantics.
#[must_use]
pub fn resolve_workers(flag: usize) -> usize {
    if flag == 0 {
        default_workers()
    } else {
        flag
    }
}

/// A grid of independent simulation jobs plus the experiment scale to
/// run them at.
///
/// ```
/// use vsv::{Experiment, Sweep, SystemConfig};
/// use vsv_workloads::twin;
///
/// let twins = [twin("gzip").unwrap(), twin("ammp").unwrap()];
/// let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
/// let sweep = Sweep::over_grid(
///     Experiment { warmup_instructions: 500, instructions: 2_000 },
///     &twins,
///     &configs,
/// );
/// // 2 twins x 2 configs, params-major: gzip/base, gzip/vsv, ammp/base, ammp/vsv.
/// let results = sweep.run(2);
/// assert_eq!(results.len(), 4);
/// assert_eq!(results[0].workload, "gzip");
/// assert_eq!(results[2].workload, "ammp");
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Simulation-length policy shared by every job.
    pub experiment: Experiment,
    jobs: Vec<SweepJob>,
}

impl Sweep {
    /// A sweep over an explicit job list (grid order = list order).
    #[must_use]
    pub fn new(experiment: Experiment, jobs: Vec<SweepJob>) -> Self {
        Sweep { experiment, jobs }
    }

    /// The params-major cross product: for each parameter point, every
    /// configuration in order. Row `i` of the result corresponds to
    /// `params[i / configs.len()]` under `configs[i % configs.len()]`.
    #[must_use]
    pub fn over_grid(
        experiment: Experiment,
        params: &[WorkloadParams],
        configs: &[SystemConfig],
    ) -> Self {
        let jobs = params
            .iter()
            .flat_map(|p| {
                configs.iter().map(move |c| SweepJob {
                    params: *p,
                    config: *c,
                })
            })
            .collect();
        Sweep { experiment, jobs }
    }

    /// The core-count axis: for each parameter point, `base` rebuilt
    /// at every core count in `cores` (params-major, like
    /// [`Sweep::over_grid`]). Row `i` corresponds to
    /// `params[i / cores.len()]` at `cores[i % cores.len()]`. Counts
    /// above 1 run N voltage domains over a shared L2 (see
    /// [`crate::MulticoreSystem`]); 1 is the paper's single-core
    /// machine.
    #[must_use]
    pub fn over_cores(
        experiment: Experiment,
        params: &[WorkloadParams],
        base: SystemConfig,
        cores: &[usize],
    ) -> Self {
        let configs: Vec<SystemConfig> = cores.iter().map(|&n| base.with_cores(n)).collect();
        Self::over_grid(experiment, params, &configs)
    }

    /// The grid, in order.
    #[must_use]
    pub fn jobs(&self) -> &[SweepJob] {
        &self.jobs
    }

    /// Mutable access to the grid — used to arm per-cell knobs such
    /// as [`SystemConfig::inject_fault`] on a chosen cell.
    pub fn jobs_mut(&mut self) -> &mut [SweepJob] {
        &mut self.jobs
    }

    /// Number of jobs in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the grid on `workers` threads and returns the bare
    /// results in grid order. See [`Sweep::run_with_progress`] for
    /// the execution model.
    ///
    /// # Panics
    ///
    /// Panics if any cell failed (see [`SweepReport::into_results`]);
    /// use [`Sweep::report`] to handle per-cell failures as data.
    #[must_use]
    pub fn run(&self, workers: usize) -> Vec<RunResult> {
        self.run_with_progress(workers, |_| {}).into_results()
    }

    /// Runs the grid and returns the full [`SweepReport`] without
    /// progress reporting.
    #[must_use]
    pub fn report(&self, workers: usize) -> SweepReport {
        self.run_with_progress(workers, |_| {})
    }

    /// Runs the grid on `workers` scoped threads pulling jobs from a
    /// shared atomic counter, invoking `progress` once per finished
    /// job (from the worker that finished it, in completion — not
    /// grid — order), and returns records in grid order.
    ///
    /// Determinism: each job's [`RunResult`] depends only on its
    /// `(params, config)` and the experiment scale — every simulator
    /// is owned by exactly one job — so on an all-success grid the
    /// result vector is bit-identical for any `workers >= 1` and
    /// equal to a serial loop over [`Experiment::try_run`]. Only the
    /// `wall_ns` fields vary between runs.
    ///
    /// Fault isolation: a job that fails — typed [`SimError`] or a
    /// caught panic (retried once) — becomes a
    /// [`JobOutcome::Failed`] record; every other cell still runs.
    ///
    /// `workers` is clamped to `[1, len()]` (a degenerate clamp of 1
    /// for an empty grid).
    #[must_use]
    pub fn run_with_progress<F>(&self, workers: usize, progress: F) -> SweepReport
    where
        F: Fn(&JobRecord) + Sync,
    {
        let preloaded = std::iter::repeat_with(|| None)
            .take(self.jobs.len())
            .collect();
        self.run_grid(workers, preloaded, &|r| progress(r))
    }

    /// Runs the grid with per-job JSONL traces at `level`: alongside
    /// the report, returns one byte buffer per job in grid order,
    /// each holding that job's serialized [`crate::TraceEvent`]
    /// stream (headed by a `job_start` line). Buffers are
    /// deterministic and independent of the worker count —
    /// concatenating them in grid order yields the same bytes
    /// whether the sweep ran on 1 thread or 40. Failed cells get an
    /// empty buffer.
    #[cfg(feature = "serde")]
    #[must_use]
    pub fn report_traced(&self, workers: usize, level: TraceLevel) -> (SweepReport, Vec<Vec<u8>>) {
        let preloaded = std::iter::repeat_with(|| None)
            .take(self.jobs.len())
            .collect();
        self.run_grid_traced(workers, preloaded, &|_| {}, Some(level))
    }

    /// The shared execution engine: runs every grid index whose
    /// `preloaded` slot is `None`, invokes `on_record` for each newly
    /// finished job, and assembles the full grid-ordered report from
    /// cached plus fresh records.
    fn run_grid(
        &self,
        workers: usize,
        preloaded: Vec<Option<JobRecord>>,
        on_record: &(dyn Fn(&JobRecord) + Sync),
    ) -> SweepReport {
        self.run_grid_traced(workers, preloaded, on_record, None).0
    }

    /// [`Sweep::run_grid`] plus optional per-job JSONL tracing: with
    /// `trace` set, each freshly-run job also produces its trace
    /// bytes (grid-ordered, empty for preloaded or failed cells).
    fn run_grid_traced(
        &self,
        workers: usize,
        mut preloaded: Vec<Option<JobRecord>>,
        on_record: &(dyn Fn(&JobRecord) + Sync),
        trace: Option<TraceLevel>,
    ) -> (SweepReport, Vec<Vec<u8>>) {
        debug_assert_eq!(preloaded.len(), self.jobs.len());
        let workers = workers.max(1).min(self.jobs.len().max(1));
        let sweep_start = Instant::now();
        let done: Vec<bool> = preloaded.iter().map(Option::is_some).collect();
        let next = AtomicUsize::new(0);
        // One lock per slot: workers write disjoint indices, so there
        // is no contention — the Mutex exists only to hand each worker
        // a &mut to its own slot through the shared borrow.
        let slots: Vec<Mutex<&mut Option<JobRecord>>> =
            preloaded.iter_mut().map(Mutex::new).collect();
        let mut traces: Vec<Vec<u8>> = vec![Vec::new(); self.jobs.len()];
        let trace_slots: Vec<Mutex<&mut Vec<u8>>> = traces.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // The worker's trace growth buffer: each job's
                    // trace grows here and leaves as an exact-size copy.
                    let mut scratch = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = self.jobs.get(i) else { break };
                        if done[i] {
                            continue;
                        }
                        let job_start = Instant::now();
                        let (outcome, metrics, trace_bytes, _) =
                            execute_job(&self.experiment, job, i, trace, &mut scratch);
                        let record = JobRecord {
                            job: i,
                            workload: job.params.name.to_owned(),
                            config_digest: config_digest(&job.config),
                            policy: job.config.policy_name().to_owned(),
                            ladder: job.config.vsv.ladder.depth(),
                            cores: job.config.cores,
                            slo: outcome.result().and_then(|r| r.slo),
                            outcome,
                            metrics,
                            wall_ns: u64::try_from(job_start.elapsed().as_nanos())
                                .unwrap_or(u64::MAX),
                        };
                        on_record(&record);
                        match slots[i].lock() {
                            Ok(mut slot) => **slot = Some(record),
                            // A slot mutex can only be poisoned by a panic
                            // in on_record; the record is still ours to
                            // write.
                            Err(poisoned) => **poisoned.into_inner() = Some(record),
                        }
                        if !trace_bytes.is_empty() {
                            match trace_slots[i].lock() {
                                Ok(mut slot) => **slot = trace_bytes,
                                Err(poisoned) => **poisoned.into_inner() = trace_bytes,
                            }
                        }
                    }
                });
            }
        });
        drop(slots);
        drop(trace_slots);
        // Single streaming fold, in grid order: bit-identical for any
        // worker count, and the same fold the campaign merge uses.
        let mut aggregate = ReportAggregator::new();
        let records: Vec<JobRecord> = preloaded
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let record = r.unwrap_or_else(|| unreachable!("slot {i} unfilled"));
                aggregate.fold(&record);
                record
            })
            .collect();
        (
            SweepReport {
                jobs: self.jobs.len(),
                workers,
                wall_ns: u64::try_from(sweep_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                records,
                metrics: aggregate.into_metrics(),
            },
            traces,
        )
    }
}

/// Runs one job behind a panic boundary with the bounded-retry
/// policy: a typed [`SimError`] is final; a panic is retried exactly
/// once (in case transient host state — not the deterministic model —
/// poisoned the first attempt) and then recorded as
/// [`SimError::Panic`]. Returns the outcome and the attempt count.
fn execute_job(
    experiment: &Experiment,
    job: &SweepJob,
    index: usize,
    trace: Option<TraceLevel>,
    scratch: &mut Vec<u8>,
) -> (JobOutcome, MetricsRegistry, Vec<u8>, u32) {
    #[cfg(not(feature = "serde"))]
    let _ = (index, trace, scratch);
    const MAX_ATTEMPTS: u32 = 2;
    let mut attempts = 0;
    loop {
        attempts += 1;
        // A retried attempt rebuilds its trace buffer from scratch, so
        // a panic on the first attempt cannot leave half a trace.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "serde")]
            if let Some(level) = trace {
                let header = crate::trace::TraceEvent::JobStart {
                    job: index as u64,
                    workload: job.params.name.to_owned(),
                    policy: job.config.policy_name().to_owned(),
                    config_digest: config_digest(&job.config),
                };
                return experiment.try_run_traced_reusing(
                    &job.params,
                    job.config,
                    level,
                    Some(header),
                    scratch,
                );
            }
            experiment
                .try_run_with_metrics(&job.params, job.config)
                .map(|(result, metrics)| (result, metrics, Vec::new()))
        }));
        match caught {
            Ok(Ok((result, metrics, trace_bytes))) => {
                return (JobOutcome::Ok(result), metrics, trace_bytes, attempts)
            }
            Ok(Err(error)) => {
                return (
                    JobOutcome::Failed { error, attempts },
                    MetricsRegistry::default(),
                    Vec::new(),
                    attempts,
                )
            }
            Err(payload) => {
                if attempts >= MAX_ATTEMPTS {
                    let error = SimError::Panic {
                        // `&*` derefs the Box so the downcast sees the
                        // payload, not the Box itself.
                        message: panic_message(&*payload),
                    };
                    return (
                        JobOutcome::Failed { error, attempts },
                        MetricsRegistry::default(),
                        Vec::new(),
                        attempts,
                    );
                }
            }
        }
    }
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(feature = "serde")]
mod checkpoint {
    //! JSONL checkpointing: a header line pinning the grid shape and
    //! experiment scale, then one [`JobRecord`] line per finished
    //! job, appended as jobs complete so a killed sweep loses at most
    //! the in-flight cells.

    use std::io::{Seek, Write};
    use std::path::Path;
    use std::sync::Mutex;

    use super::{config_digest, JobRecord, Sweep, SweepJob, SweepReport};

    /// Dimension summary of a sweep grid, carried in every checkpoint
    /// header since schema v4. The human-readable axes (distinct
    /// workloads, policies, ladder depths, FSM policies) make a
    /// [`CheckpointError::GridMismatch`] explain *which* dimension
    /// drifted; `grid_digest` pins the exact per-cell
    /// (workload, config) sequence, so two grids summarize equal iff
    /// they are cell-for-cell identical.
    #[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
    pub(crate) struct GridSummary {
        /// Cell count (mirrors the header's `jobs`, keeping the
        /// summary self-contained).
        pub(crate) cells: usize,
        /// Distinct workload names, sorted, comma-joined.
        pub(crate) workloads: String,
        /// Distinct DVS policy names, sorted, comma-joined.
        pub(crate) policies: String,
        /// Distinct voltage-ladder depths, sorted, comma-joined.
        pub(crate) ladders: String,
        /// Distinct core counts, sorted, comma-joined. Defaults to
        /// `"1"` when absent (the multicore axis is newer than the
        /// summary itself).
        #[serde(default = "default_cores_axis")]
        pub(crate) cores: String,
        /// Distinct down/up FSM policy pairs (threshold × window),
        /// sorted, `;`-joined.
        pub(crate) fsm: String,
        /// FNV-1a over every cell's `workload:config_digest` pair in
        /// grid order, as 16 hex digits.
        pub(crate) grid_digest: String,
    }

    /// Serde default for [`GridSummary::cores`]: pre-multicore grids
    /// were all single-core.
    fn default_cores_axis() -> String {
        "1".to_owned()
    }

    /// First line of every checkpoint file: rejects resumes against a
    /// different grid or experiment scale before any digest check.
    /// Since v4 it also carries the [`GridSummary`] and the
    /// `shard`/`shards` pair placing the file inside a campaign
    /// (`0/1` for a plain single-process sweep).
    #[derive(serde::Serialize, serde::Deserialize, Debug, Clone, PartialEq)]
    pub(crate) struct CheckpointHeader {
        pub(crate) version: u32,
        pub(crate) jobs: usize,
        pub(crate) warmup_instructions: u64,
        pub(crate) instructions: u64,
        pub(crate) shard: usize,
        pub(crate) shards: usize,
        /// Host wall-clock nanoseconds of the run that produced the
        /// file: `0` while a sweep is still appending (the header is
        /// written before any cell runs), stamped with the shard's
        /// measured wall clock when a campaign finalizes the file.
        /// **Not** deterministic, and deliberately ignored by
        /// [`validate_header_against`].
        #[serde(default)]
        pub(crate) wall_ns: u64,
        pub(crate) grid: GridSummary,
    }

    // v2: `JobRecord` gained its `metrics` registry (PR 5); v3: the
    // `ladder` depth field (N-level voltage ladders); v4: the header
    // gained the grid-dimension summary and the campaign shard
    // contract, and `SweepReport` moved `metrics` after `records` for
    // single-pass streaming merges; v5: `JobRecord` gained the `slo`
    // outcome field and the header gained the finalized shard
    // `wall_ns`; v6: the service-traffic subsystem — `SystemConfig`
    // gained the `traffic` axis (part of the config digest),
    // `MetricsRegistry` the request counters and log2 latency
    // histogram, and `SloSpec`/`SloOutcome`/`RunResult` the
    // request-latency ceilings and percentiles; v7: multicore —
    // `SystemConfig` gained the `cores` axis (part of the config
    // digest, so every v6 digest changed), `JobRecord` the `cores`
    // field, the grid summary its `cores` dimension, and `RunResult`
    // the per-core `core_results` vector. Older files no longer
    // round-trip and are rejected by the version check.
    pub(crate) const CHECKPOINT_VERSION: u32 = 7;

    /// Why a checkpoint could not be written or resumed.
    #[derive(Debug)]
    pub enum CheckpointError {
        /// Filesystem failure (open, append, truncate).
        Io {
            /// The checkpoint path.
            path: String,
            /// The underlying error.
            error: String,
        },
        /// A non-final line failed to parse — the file is corrupt
        /// beyond the crash-truncation the format tolerates.
        Corrupt {
            /// 1-based line number.
            line: usize,
            /// Parse error.
            error: String,
        },
        /// The header does not match this sweep (different grid size,
        /// experiment scale, shard position, or format version).
        HeaderMismatch {
            /// What differed.
            reason: String,
        },
        /// The header's grid-dimension summary does not match this
        /// sweep: same cell count and scale, but a different
        /// workloads × policies × ladders × FSM-threshold grid. Caught
        /// at the header, before any per-record digest check, instead
        /// of producing a silently misaligned report.
        GridMismatch {
            /// Which dimension differed, checkpoint vs. sweep.
            reason: String,
        },
        /// A record's job index is outside this sweep's grid.
        JobOutOfRange {
            /// The out-of-range index.
            job: usize,
            /// The grid size.
            jobs: usize,
        },
        /// A record's config digest does not match the sweep's
        /// configuration for that cell — the checkpoint belongs to a
        /// different grid.
        DigestMismatch {
            /// The grid cell.
            job: usize,
            /// Digest of this sweep's configuration.
            expected: String,
            /// Digest recorded in the checkpoint.
            found: String,
        },
        /// A record's workload name does not match the sweep's
        /// parameter point for that cell.
        WorkloadMismatch {
            /// The grid cell.
            job: usize,
            /// This sweep's workload name.
            expected: String,
            /// Name recorded in the checkpoint.
            found: String,
        },
    }

    impl std::fmt::Display for CheckpointError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                CheckpointError::Io { path, error } => {
                    write!(f, "checkpoint io error at {path}: {error}")
                }
                CheckpointError::Corrupt { line, error } => {
                    write!(f, "checkpoint corrupt at line {line}: {error}")
                }
                CheckpointError::HeaderMismatch { reason } => {
                    write!(f, "checkpoint header mismatch: {reason}")
                }
                CheckpointError::GridMismatch { reason } => {
                    write!(f, "checkpoint grid mismatch: {reason}")
                }
                CheckpointError::JobOutOfRange { job, jobs } => {
                    write!(f, "checkpoint record for job {job} outside grid of {jobs}")
                }
                CheckpointError::DigestMismatch {
                    job,
                    expected,
                    found,
                } => write!(
                    f,
                    "checkpoint config digest mismatch for job {job}: \
                     sweep has {expected}, checkpoint has {found}"
                ),
                CheckpointError::WorkloadMismatch {
                    job,
                    expected,
                    found,
                } => write!(
                    f,
                    "checkpoint workload mismatch for job {job}: \
                     sweep has {expected:?}, checkpoint has {found:?}"
                ),
            }
        }
    }

    impl std::error::Error for CheckpointError {}

    /// The validated prefix of an existing checkpoint file.
    struct LoadedCheckpoint {
        /// Cached records by grid index.
        records: Vec<Option<JobRecord>>,
        /// Byte length of the valid prefix (everything after is a
        /// half-written crash tail to truncate away).
        valid_len: u64,
        /// Whether the valid prefix ends without a newline (a record
        /// fully written but unterminated — the next append must
        /// start on a fresh line).
        needs_newline: bool,
        /// Whether a valid header line was found.
        has_header: bool,
    }

    impl Sweep {
        /// The grid-dimension summary this sweep's checkpoints carry
        /// (and are validated against).
        pub(crate) fn grid_summary(&self) -> GridSummary {
            grid_summary_over(self.jobs().iter())
        }

        /// The header a checkpoint of this sweep must carry when it
        /// is shard `shard` of `shards` (`0`/`1` for a plain sweep).
        pub(crate) fn checkpoint_header(&self, shard: usize, shards: usize) -> CheckpointHeader {
            CheckpointHeader {
                version: CHECKPOINT_VERSION,
                jobs: self.len(),
                warmup_instructions: self.experiment.warmup_instructions,
                instructions: self.experiment.instructions,
                shard,
                shards,
                wall_ns: 0,
                grid: self.grid_summary(),
            }
        }

        /// Runs the grid like [`Sweep::report`] while appending one
        /// JSONL [`JobRecord`] line per finished job to a fresh
        /// checkpoint file at `path` (created or truncated).
        ///
        /// # Errors
        ///
        /// [`CheckpointError::Io`] if the file cannot be created or
        /// written.
        pub fn report_with_checkpoint(
            &self,
            workers: usize,
            path: &Path,
        ) -> Result<SweepReport, CheckpointError> {
            self.report_with_checkpoint_sharded(workers, path, 0, 1)
        }

        /// [`Sweep::report_with_checkpoint`] with an explicit campaign
        /// shard position stamped into the header.
        pub(crate) fn report_with_checkpoint_sharded(
            &self,
            workers: usize,
            path: &Path,
            shard: usize,
            shards: usize,
        ) -> Result<SweepReport, CheckpointError> {
            let file = std::fs::File::create(path).map_err(|e| io_err(path, &e))?;
            let preloaded = std::iter::repeat_with(|| None).take(self.len()).collect();
            self.run_checkpointed(workers, path, file, true, preloaded, shard, shards)
        }

        /// Resumes an interrupted checkpointed sweep: validates the
        /// header and every cached record's config digest against
        /// this grid, truncates away a half-written final line,
        /// re-runs only the missing cells (appending their records),
        /// and returns the complete grid-ordered report —
        /// bit-identical, wall-clock fields aside, to an
        /// uninterrupted [`Sweep::report_with_checkpoint`] run.
        ///
        /// A missing or empty checkpoint file degenerates to a fresh
        /// checkpointed run.
        ///
        /// # Errors
        ///
        /// [`CheckpointError`] on filesystem failures, a corrupt
        /// non-tail line, or any header/digest/workload mismatch
        /// (the checkpoint belongs to a different sweep).
        pub fn resume(&self, workers: usize, path: &Path) -> Result<SweepReport, CheckpointError> {
            self.resume_sharded(workers, path, 0, 1)
        }

        /// [`Sweep::resume`] with an explicit campaign shard position:
        /// the checkpoint's header must carry the same `shard`/`shards`
        /// pair, and fresh appends stamp it.
        pub(crate) fn resume_sharded(
            &self,
            workers: usize,
            path: &Path,
            shard: usize,
            shards: usize,
        ) -> Result<SweepReport, CheckpointError> {
            let content = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(io_err(path, &e)),
            };
            let loaded = self.parse_checkpoint(&content, shard, shards)?;
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .write(true)
                // Deliberately not `truncate(true)`: the valid prefix
                // must survive; `set_len` below trims only the crash
                // tail.
                .truncate(false)
                .open(path)
                .map_err(|e| io_err(path, &e))?;
            file.set_len(loaded.valid_len)
                .map_err(|e| io_err(path, &e))?;
            file.seek(std::io::SeekFrom::End(0))
                .map_err(|e| io_err(path, &e))?;
            if loaded.needs_newline {
                file.write_all(b"\n").map_err(|e| io_err(path, &e))?;
            }
            self.run_checkpointed(
                workers,
                path,
                file,
                !loaded.has_header,
                loaded.records,
                shard,
                shards,
            )
        }

        /// Parses and validates the readable prefix of a checkpoint
        /// file against this sweep's grid.
        fn parse_checkpoint(
            &self,
            content: &str,
            shard: usize,
            shards: usize,
        ) -> Result<LoadedCheckpoint, CheckpointError> {
            let mut loaded = LoadedCheckpoint {
                records: std::iter::repeat_with(|| None).take(self.len()).collect(),
                valid_len: 0,
                needs_newline: false,
                has_header: false,
            };
            let chunks: Vec<&str> = content.split_inclusive('\n').collect();
            for (idx, chunk) in chunks.iter().enumerate() {
                let terminated = chunk.ends_with('\n');
                let is_tail = idx + 1 == chunks.len() && !terminated;
                let line = chunk.trim_end_matches(['\n', '\r']);
                if line.is_empty() {
                    loaded.valid_len += chunk.len() as u64;
                    continue;
                }
                if !loaded.has_header {
                    match serde_json::from_str::<CheckpointHeader>(line) {
                        Ok(header) => {
                            self.validate_header(&header, shard, shards)?;
                            loaded.has_header = true;
                            loaded.valid_len += chunk.len() as u64;
                            loaded.needs_newline = !terminated;
                            continue;
                        }
                        Err(e) if is_tail => {
                            // A crash mid-header: drop it and start
                            // fresh.
                            let _ = e;
                            return Ok(loaded);
                        }
                        Err(e) => {
                            return Err(CheckpointError::Corrupt {
                                line: idx + 1,
                                error: e.to_string(),
                            })
                        }
                    }
                }
                match serde_json::from_str::<JobRecord>(line) {
                    Ok(record) => {
                        self.validate_record(&record)?;
                        // Duplicate lines for one job (possible after
                        // repeated crash/resume cycles): last wins.
                        let slot = record.job;
                        loaded.records[slot] = Some(record);
                        loaded.valid_len += chunk.len() as u64;
                        loaded.needs_newline = !terminated;
                    }
                    Err(_) if is_tail => {
                        // The half-written line a kill can leave
                        // behind; the cell simply re-runs.
                    }
                    Err(e) => {
                        return Err(CheckpointError::Corrupt {
                            line: idx + 1,
                            error: e.to_string(),
                        })
                    }
                }
            }
            Ok(loaded)
        }

        pub(crate) fn validate_header(
            &self,
            header: &CheckpointHeader,
            shard: usize,
            shards: usize,
        ) -> Result<(), CheckpointError> {
            validate_header_against(&self.checkpoint_header(shard, shards), header)
        }

        fn validate_record(&self, record: &JobRecord) -> Result<(), CheckpointError> {
            let Some(job) = self.jobs().get(record.job) else {
                return Err(CheckpointError::JobOutOfRange {
                    job: record.job,
                    jobs: self.len(),
                });
            };
            let expected = config_digest(&job.config);
            if record.config_digest != expected {
                return Err(CheckpointError::DigestMismatch {
                    job: record.job,
                    expected,
                    found: record.config_digest.clone(),
                });
            }
            if record.workload != job.params.name {
                return Err(CheckpointError::WorkloadMismatch {
                    job: record.job,
                    expected: job.params.name.to_owned(),
                    found: record.workload.clone(),
                });
            }
            Ok(())
        }

        /// Runs the missing cells, streaming each fresh record to the
        /// checkpoint file (flushed per line, so a kill loses at most
        /// the in-flight cells).
        #[allow(clippy::too_many_arguments)]
        fn run_checkpointed(
            &self,
            workers: usize,
            path: &Path,
            file: std::fs::File,
            write_header: bool,
            preloaded: Vec<Option<JobRecord>>,
            shard: usize,
            shards: usize,
        ) -> Result<SweepReport, CheckpointError> {
            let mut writer = std::io::BufWriter::new(file);
            if write_header {
                let header = self.checkpoint_header(shard, shards);
                append_line(&mut writer, &header).map_err(|e| io_string_err(path, &e))?;
            }
            let sink: Mutex<(std::io::BufWriter<std::fs::File>, Option<String>)> =
                Mutex::new((writer, None));
            let report = self.run_grid(workers, preloaded, &|record| {
                let mut guard = match sink.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let (writer, first_error) = &mut *guard;
                if first_error.is_none() {
                    if let Err(e) = append_line(writer, record) {
                        *first_error = Some(e);
                    }
                }
            });
            let (_, error) = match sink.into_inner() {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            match error {
                Some(e) => Err(io_string_err(path, &e)),
                None => Ok(report),
            }
        }
    }

    /// [`GridSummary`] of an arbitrary job sequence. Borrowing the
    /// jobs matters: the campaign merge validates one shard header
    /// per input file against a strided view of the full grid, and
    /// materializing each shard's sweep just to summarize it would
    /// spike merge memory by a full grid copy.
    pub(crate) fn grid_summary_over<'a>(jobs: impl Iterator<Item = &'a SweepJob>) -> GridSummary {
        use std::collections::BTreeSet;
        let mut cells = 0;
        let mut workloads = BTreeSet::new();
        let mut policies = BTreeSet::new();
        let mut ladders = BTreeSet::new();
        let mut cores = BTreeSet::new();
        let mut fsm = BTreeSet::new();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for job in jobs {
            cells += 1;
            workloads.insert(job.params.name.to_owned());
            policies.insert(job.config.policy_name().to_owned());
            ladders.insert(job.config.vsv.ladder.depth());
            cores.insert(job.config.cores);
            fsm.insert(format!("{:?}/{:?}", job.config.vsv.down, job.config.vsv.up));
            for b in job
                .params
                .name
                .bytes()
                .chain([b':'])
                .chain(config_digest(&job.config).bytes())
                .chain([b'\n'])
            {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let join = |set: BTreeSet<String>| set.into_iter().collect::<Vec<_>>().join(",");
        GridSummary {
            cells,
            workloads: join(workloads),
            policies: join(policies),
            ladders: ladders
                .into_iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(","),
            cores: cores
                .into_iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(","),
            fsm: fsm.into_iter().collect::<Vec<_>>().join(";"),
            grid_digest: format!("{h:016x}"),
        }
    }

    /// Checks a parsed checkpoint header against the one the owning
    /// sweep (or campaign shard) expects: version, job count, and
    /// experiment scale mismatches are [`CheckpointError::HeaderMismatch`];
    /// a grid-dimension divergence is the typed
    /// [`CheckpointError::GridMismatch`], naming the first differing
    /// axis.
    pub(crate) fn validate_header_against(
        expected: &CheckpointHeader,
        header: &CheckpointHeader,
    ) -> Result<(), CheckpointError> {
        let scalar_mismatch =
            |what: &str, found: &dyn std::fmt::Debug, want: &dyn std::fmt::Debug| {
                CheckpointError::HeaderMismatch {
                    reason: format!("checkpoint has {what} {found:?}, sweep expects {want:?}"),
                }
            };
        if header.version != expected.version {
            return Err(scalar_mismatch(
                "version",
                &header.version,
                &expected.version,
            ));
        }
        if header.jobs != expected.jobs {
            return Err(scalar_mismatch("jobs", &header.jobs, &expected.jobs));
        }
        if header.warmup_instructions != expected.warmup_instructions
            || header.instructions != expected.instructions
        {
            return Err(scalar_mismatch(
                "scale",
                &(header.warmup_instructions, header.instructions),
                &(expected.warmup_instructions, expected.instructions),
            ));
        }
        if (header.shard, header.shards) != (expected.shard, expected.shards) {
            return Err(scalar_mismatch(
                "shard",
                &format!("{}/{}", header.shard, header.shards),
                &format!("{}/{}", expected.shard, expected.shards),
            ));
        }
        if header.grid != expected.grid {
            return Err(CheckpointError::GridMismatch {
                reason: grid_diff(&header.grid, &expected.grid),
            });
        }
        Ok(())
    }

    /// First differing dimension of two grid summaries, checkpoint
    /// vs. sweep, for the [`CheckpointError::GridMismatch`] message.
    fn grid_diff(found: &GridSummary, expected: &GridSummary) -> String {
        let axes = [
            ("workloads", &found.workloads, &expected.workloads),
            ("policies", &found.policies, &expected.policies),
            ("ladder depths", &found.ladders, &expected.ladders),
            ("core counts", &found.cores, &expected.cores),
            ("fsm policies", &found.fsm, &expected.fsm),
            (
                "per-cell configuration digest chain",
                &found.grid_digest,
                &expected.grid_digest,
            ),
        ];
        for (axis, f, e) in axes {
            if f != e {
                return format!("checkpoint grid has {axis} [{f}], sweep expects [{e}]");
            }
        }
        format!("checkpoint grid summary {found:?}, sweep expects {expected:?}")
    }

    /// Serializes `value` as one JSONL line and flushes it.
    pub(crate) fn append_line<T: serde::Serialize>(
        writer: &mut std::io::BufWriter<std::fs::File>,
        value: &T,
    ) -> Result<(), String> {
        let json = serde_json::to_string(value).map_err(|e| e.to_string())?;
        writeln!(writer, "{json}").map_err(|e| e.to_string())?;
        writer.flush().map_err(|e| e.to_string())
    }

    fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
        CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        }
    }

    fn io_string_err(path: &Path, e: &str) -> CheckpointError {
        CheckpointError::Io {
            path: path.display().to_string(),
            error: e.to_owned(),
        }
    }
}

#[cfg(feature = "serde")]
pub use checkpoint::CheckpointError;
#[cfg(feature = "serde")]
pub(crate) use checkpoint::{
    append_line, grid_summary_over, validate_header_against, CheckpointHeader, CHECKPOINT_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use vsv_workloads::twin;

    fn tiny() -> Experiment {
        Experiment {
            warmup_instructions: 500,
            instructions: 2_000,
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let sweep = Sweep::new(tiny(), Vec::new());
        let report = sweep.report(4);
        assert_eq!(report.jobs, 0);
        assert!(report.records.is_empty());
        assert_eq!(report.failed_jobs(), 0);
    }

    #[test]
    fn grid_order_is_params_major() {
        let twins = [twin("gzip").expect("gzip"), twin("ammp").expect("ammp")];
        let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
        let sweep = Sweep::over_grid(tiny(), &twins, &configs);
        assert_eq!(sweep.len(), 4);
        let report = sweep.report(2);
        let names: Vec<&str> = report.records.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, ["gzip", "gzip", "ammp", "ammp"]);
        // Same config => same digest; different config => different.
        assert_eq!(
            report.records[0].config_digest,
            report.records[2].config_digest
        );
        assert_ne!(
            report.records[0].config_digest,
            report.records[1].config_digest
        );
        // Records carry their grid index and all succeeded.
        for (i, r) in report.records.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.outcome.is_ok());
        }
    }

    #[test]
    fn progress_fires_once_per_job() {
        let twins = [twin("gzip").expect("gzip")];
        let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
        let sweep = Sweep::over_grid(tiny(), &twins, &configs);
        let fired = AtomicUsize::new(0);
        let report = sweep.run_with_progress(2, |record| {
            assert!(record.job < 2);
            fired.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        assert_eq!(report.records.len(), 2);
    }

    #[test]
    fn worker_count_is_clamped() {
        let twins = [twin("gzip").expect("gzip")];
        let configs = [SystemConfig::baseline()];
        let sweep = Sweep::over_grid(tiny(), &twins, &configs);
        // 0 and 100 workers both work on a 1-job grid.
        assert_eq!(sweep.report(0).workers, 1);
        assert_eq!(sweep.report(100).workers, 1);
    }

    #[test]
    fn digest_is_stable_and_knob_sensitive() {
        let a = config_digest(&SystemConfig::baseline());
        let b = config_digest(&SystemConfig::baseline());
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        let mut cfg = SystemConfig::vsv_with_fsms();
        let before = config_digest(&cfg);
        cfg.mem.dram.latency_ns += 1;
        assert_ne!(before, config_digest(&cfg));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn typed_failure_is_recorded_not_propagated() {
        let twins = [twin("gzip").expect("gzip")];
        let mut sweep = Sweep::over_grid(
            tiny(),
            &twins,
            &[SystemConfig::baseline(), SystemConfig::vsv_with_fsms()],
        );
        sweep.jobs_mut()[1].config.inject_fault = Some(crate::FaultKind::Deadlock);
        let report = sweep.report(2);
        assert_eq!(report.records.len(), 2);
        assert!(report.records[0].outcome.is_ok());
        match &report.records[1].outcome {
            JobOutcome::Failed { error, attempts } => {
                assert_eq!(error.kind(), "deadlock");
                assert_eq!(*attempts, 1, "typed errors are final, not retried");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(report.failed_jobs(), 1);
    }

    #[test]
    fn panicking_cell_is_retried_once_then_recorded() {
        let twins = [twin("gzip").expect("gzip")];
        let mut sweep = Sweep::over_grid(tiny(), &twins, &[SystemConfig::baseline()]);
        sweep.jobs_mut()[0].config.inject_fault = Some(crate::FaultKind::Panic);
        let report = sweep.report(1);
        match &report.records[0].outcome {
            JobOutcome::Failed { error, attempts } => {
                assert_eq!(error.kind(), "panic");
                assert_eq!(*attempts, 2, "one bounded retry for panics");
                assert!(
                    error.to_string().contains("injected panic fault"),
                    "{error}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "sweep cells failed")]
    fn into_results_panics_on_failure() {
        let twins = [twin("gzip").expect("gzip")];
        let mut sweep = Sweep::over_grid(tiny(), &twins, &[SystemConfig::baseline()]);
        sweep.jobs_mut()[0].config.inject_fault = Some(crate::FaultKind::Deadlock);
        let _ = sweep.report(1).into_results();
    }
}
