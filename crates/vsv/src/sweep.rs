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
//! # Files
//!
//! A sweep runs in memory. Putting its records in a file is
//! [`crate::campaign`]'s job, in one JSONL format, the shard file: a
//! checkpointed sweep is shard 0 of a one-shard [`crate::Campaign`],
//! whose [`crate::Campaign::run_shard`] appends one record per finished
//! cell through this module's engine and resumes an interrupted run
//! bit-identically, wall-clock fields aside.
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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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

/// Everything recorded about one finished job: the row type of
/// [`SweepReport`] and the line type of a shard file (see
/// [`crate::campaign`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    #[serde(default = "default_cores")]
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
    #[serde(default)]
    pub slo: Option<SloOutcome>,
    /// Host wall-clock nanoseconds this job took. **Not**
    /// deterministic; consumers that digest reports must zero it
    /// first (see `tests/sweep_report_golden.rs`).
    pub wall_ns: u64,
}

/// Serde default for [`JobRecord::cores`]: pre-multicore checkpoints
/// (v6 and earlier) were all single-core.
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
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
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
    /// results in grid order. See [`Sweep::report`] for the execution
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if any cell failed (see [`SweepReport::into_results`]);
    /// use [`Sweep::report`] to handle per-cell failures as data.
    #[must_use]
    pub fn run(&self, workers: usize) -> Vec<RunResult> {
        self.report(workers).into_results()
    }

    /// Runs the grid on `workers` scoped threads pulling jobs from a
    /// shared atomic counter and returns the full [`SweepReport`],
    /// records in grid order.
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
    pub fn report(&self, workers: usize) -> SweepReport {
        self.run_grid(workers, vec![None; self.len()], &|_| {}, None)
            .0
    }

    /// Runs the grid with per-job JSONL traces at `level`: alongside
    /// the report, returns one byte buffer per job in grid order,
    /// each holding that job's serialized [`crate::TraceEvent`]
    /// stream (headed by a `job_start` line). Buffers are
    /// deterministic and independent of the worker count —
    /// concatenating them in grid order yields the same bytes
    /// whether the sweep ran on 1 thread or 40. Failed cells get an
    /// empty buffer.
    #[must_use]
    pub fn report_traced(&self, workers: usize, level: TraceLevel) -> (SweepReport, Vec<Vec<u8>>) {
        self.run_grid(workers, vec![None; self.len()], &|_| {}, Some(level))
    }

    /// The execution engine: runs every grid index whose `preloaded`
    /// slot is `None`, invokes `on_record` for each newly finished job
    /// (from the worker that finished it, in completion order — how a
    /// shard file appends), and assembles the full grid-ordered report
    /// from cached plus fresh records. With `trace` set, each freshly
    /// run job also produces its trace bytes (grid-ordered, empty for
    /// preloaded or failed cells).
    pub(crate) fn run_grid(
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
                        let (outcome, metrics, trace_bytes) =
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
/// [`SimError::Panic`]. A failed outcome carries the attempt count.
fn execute_job(
    experiment: &Experiment,
    job: &SweepJob,
    index: usize,
    trace: Option<TraceLevel>,
    scratch: &mut Vec<u8>,
) -> (JobOutcome, MetricsRegistry, Vec<u8>) {
    const MAX_ATTEMPTS: u32 = 2;
    let mut attempts = 0;
    loop {
        attempts += 1;
        // A retried attempt rebuilds its trace buffer from scratch, so
        // a panic on the first attempt cannot leave half a trace.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
        let error = match caught {
            Ok(Ok((result, metrics, trace_bytes))) => {
                return (JobOutcome::Ok(result), metrics, trace_bytes)
            }
            Ok(Err(error)) => error,
            Err(_) if attempts < MAX_ATTEMPTS => continue,
            // `&*` derefs the Box so the downcast sees the payload, not
            // the Box itself.
            Err(payload) => SimError::Panic {
                message: panic_message(&*payload),
            },
        };
        return (
            JobOutcome::Failed { error, attempts },
            MetricsRegistry::default(),
            Vec::new(),
        );
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
    fn on_record_fires_once_per_fresh_cell() {
        let twins = [twin("gzip").expect("gzip")];
        let configs = [SystemConfig::baseline(), SystemConfig::vsv_with_fsms()];
        let sweep = Sweep::over_grid(tiny(), &twins, &configs);
        let full = sweep.report(1);
        // Cell 0 is cached: only cell 1 runs, and only it is reported.
        let preloaded = vec![Some(full.records[0].clone()), None];
        let fired = AtomicUsize::new(0);
        let (report, _) = sweep.run_grid(
            2,
            preloaded,
            &|record| {
                assert_eq!(record.job, 1);
                fired.fetch_add(1, Ordering::Relaxed);
            },
            None,
        );
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0], full.records[0]);
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
