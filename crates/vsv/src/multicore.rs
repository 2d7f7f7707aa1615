//! Multicore VSV: N per-core voltage domains over one shared fabric.
//!
//! The paper's controller is single-core; this module lifts the
//! [`System`] — one core plus its private hierarchy slice — into a
//! replicated unit behind an arbitrated shared uncore
//! ([`vsv_mem::SharedFabric`]: one L2, one bus, one DRAM, one L2-MSHR
//! slot pool). Every core keeps its **own**
//! [`VsvController`](crate::VsvController) and policy instance, so
//! each is an independent voltage domain: core 0 can sit at VDDL
//! riding out a miss storm while core 1 runs flat out at VDDH.
//!
//! # Lockstep determinism
//!
//! The driver advances all cores by exactly one nanosecond per
//! iteration, in core-index order. Shared-fabric arbitration (bus
//! FIFO, DRAM banking, MSHR admission) therefore resolves identically
//! on every run: same configuration, same streams, same interleaving
//! — bit for bit. Quiescent-stall fast-forward is *not* used here
//! (a core can only skip when the whole chip is provably inert, which
//! contention makes rare and correlated); multicore runs are always
//! ns-stepped. Single-core runs never construct a [`MulticoreSystem`]
//! at all — the runner dispatches here only when
//! [`SystemConfig::cores`] > 1 — so the N=1 path stays bit-identical
//! to the pre-multicore simulator.
//!
//! # Windows
//!
//! Warm-up and measurement mirror the single-core contract per core:
//! each core warms until *it* has committed the warm-up target, keeps
//! executing (to preserve contention) until every core has, and then
//! all measurement anchors reset at the same instant. In the measured
//! window each core's result is captured the moment it reaches its
//! own commit target — its window, its elapsed time — while it keeps
//! running as background load until the last core finishes. The
//! chip-level [`RunResult`] aggregates per-core windows (summed work
//! and energy over the longest window) and carries them in
//! [`RunResult::core_results`].

use std::cell::RefCell;
use std::rc::Rc;

use vsv_mem::{FabricCoreStats, SharedFabric, SharedHandle};
use vsv_workloads::{Generator, WorkloadParams};

use crate::error::SimError;
use crate::metrics::MetricsRegistry;
use crate::report::{RunResult, SloOutcome};
use crate::system::{System, SystemConfig, DEADLOCK_WINDOW_NS};
use crate::trace::ModeTrace;

/// N replicated cores — private L1s, prefetcher, controller, policy —
/// over one shared, arbitrated L2/bus/DRAM fabric, stepped in
/// nanosecond lockstep. See the module docs for the determinism and
/// window contracts.
#[derive(Debug)]
pub struct MulticoreSystem {
    cores: Vec<System<Generator>>,
    names: Vec<String>,
    workload: String,
    fabric: Rc<RefCell<SharedFabric>>,
}

impl MulticoreSystem {
    /// Builds a homogeneous chip: every core runs `params`' twin,
    /// reseeded per core (`seed + core`) so the streams are
    /// phase-decorrelated copies of the same program — the rate-style
    /// multiprogrammed setup the multicore bench measures. Core 0
    /// keeps the original seed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cfg` fails
    /// [`SystemConfig::validate`].
    pub fn try_new(cfg: SystemConfig, params: &WorkloadParams) -> Result<Self, SimError> {
        cfg.validate()?;
        let per_core: Vec<WorkloadParams> = (0..cfg.cores)
            .map(|i| {
                let mut p = *params;
                p.seed = p.seed.wrapping_add(i as u64);
                p
            })
            .collect();
        Self::try_new_heterogeneous(cfg, &per_core)
    }

    /// Builds a chip with one explicit parameter point per core
    /// (`params.len()` must equal [`SystemConfig::cores`]) — the
    /// asymmetric co-runner setup used for shared-L2 fairness studies.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `cfg` fails validation
    /// or the parameter count does not match the core count.
    pub fn try_new_heterogeneous(
        cfg: SystemConfig,
        params: &[WorkloadParams],
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if params.len() != cfg.cores {
            return Err(SimError::invalid_config(format!(
                "multicore needs one parameter point per core: {} cores, {} points",
                cfg.cores,
                params.len()
            )));
        }
        let fabric = SharedFabric::new(cfg.mem, cfg.cores).into_shared();
        let mut cores = Vec::with_capacity(cfg.cores);
        let mut names = Vec::with_capacity(cfg.cores);
        for (i, p) in params.iter().enumerate() {
            let handle = SharedHandle::new(Rc::clone(&fabric), i);
            let mut sys = System::try_new_on_fabric(cfg, Generator::new(*p), handle)?;
            let name = format!("{}#{i}", p.name);
            sys.set_workload_name(name.clone());
            cores.push(sys);
            names.push(name);
        }
        let workload = params.first().map_or("", |p| p.name).to_owned();
        Ok(MulticoreSystem {
            cores,
            names,
            workload,
            fabric,
        })
    }

    /// Number of cores (voltage domains).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Current simulated time, ns (identical on every core — the
    /// lockstep invariant).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.cores.first().map_or(0, System::now)
    }

    /// Starts per-nanosecond mode/voltage tracing on every core (see
    /// [`System::enable_trace`]); the traces are what cross-core
    /// miss-storm correlation is computed from.
    pub fn enable_traces(&mut self, capacity: usize) {
        for sys in &mut self.cores {
            sys.enable_trace(capacity);
        }
    }

    /// Stops tracing and returns each core's trace, by core index.
    pub fn take_traces(&mut self) -> Vec<Option<ModeTrace>> {
        self.cores.iter_mut().map(System::take_trace).collect()
    }

    /// Each core's shared-fabric statistics (bus transactions and
    /// queueing, DRAM accesses, shared-MSHR admission stalls), by core
    /// index.
    #[must_use]
    pub fn fabric_stats(&self) -> Vec<FabricCoreStats> {
        let fabric = self.fabric.borrow();
        (0..self.cores.len())
            .map(|i| fabric.core_stats(i))
            .collect()
    }

    /// Mutable access to the per-core systems, for the runner to
    /// attach trace sinks. Stepping a core directly would break the
    /// lockstep invariant — keep this inside the crate.
    pub(crate) fn systems_mut(&mut self) -> &mut [System<Generator>] {
        &mut self.cores
    }

    /// Runs every core for `instructions` committed instructions (per
    /// core) to warm caches, predictors and the shared L2, then
    /// re-anchors all measurement counters at the same instant.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] any core raises (deadlock,
    /// exhausted budget, injected fault, unrecoverable read).
    pub fn try_warm_up(&mut self, instructions: u64) -> Result<(), SimError> {
        let _ = self.run_lockstep(instructions)?;
        // Early finishers kept executing until the slowest core hit
        // the target, accruing into a partial window; close and
        // discard it so every core's anchors sit at the same "now".
        for sys in &mut self.cores {
            let _ = sys.finish_window_now();
        }
        Ok(())
    }

    /// Runs every core for `instructions` committed instructions and
    /// reports the chip-wide measured window (per-core windows in
    /// [`RunResult::core_results`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] any core raises.
    pub fn try_run(&mut self, instructions: u64) -> Result<RunResult, SimError> {
        self.try_run_with_metrics(instructions).map(|(r, _)| r)
    }

    /// [`MulticoreSystem::try_run`] plus the chip-wide metrics
    /// registry (every core's measured-window registry merged in core
    /// order).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] any core raises.
    pub fn try_run_with_metrics(
        &mut self,
        instructions: u64,
    ) -> Result<(RunResult, MetricsRegistry), SimError> {
        let windows = self.run_lockstep(instructions)?;
        // Re-anchor the early finishers' background spans (mirrors
        // `try_warm_up`) so a subsequent window starts clean.
        for sys in &mut self.cores {
            let _ = sys.finish_window_now();
        }
        let mut metrics = MetricsRegistry::default();
        let mut per_core = Vec::with_capacity(windows.len());
        for (result, window) in windows {
            metrics.merge(&window);
            per_core.push(result);
        }
        Ok((aggregate(&self.workload, per_core), metrics))
    }

    /// The lockstep engine: advances all cores one nanosecond at a
    /// time (core-index order) until every core has committed its
    /// target, capturing each core's window — result plus metrics
    /// registry — the moment that core finishes. Finished cores keep
    /// stepping as background load so contention on the shared fabric
    /// persists until the last core is done.
    fn run_lockstep(
        &mut self,
        instructions: u64,
    ) -> Result<Vec<(RunResult, MetricsRegistry)>, SimError> {
        let n = self.cores.len();
        for sys in &mut self.cores {
            sys.begin_window_faults()?;
        }
        let window_start = self.now();
        let targets: Vec<u64> = self
            .cores
            .iter()
            .map(|s| s.core().committed() + instructions)
            .collect();
        let mut open = vec![true; n];
        let mut windows: Vec<Option<(RunResult, MetricsRegistry)>> = (0..n).map(|_| None).collect();
        let mut last_committed: Vec<u64> =
            self.cores.iter().map(|s| s.core().committed()).collect();
        let mut last_progress_at = vec![window_start; n];
        let mut remaining = n;
        while remaining > 0 {
            for sys in &mut self.cores {
                sys.step_ns();
            }
            let now = self.now();
            for i in 0..n {
                let sys = &mut self.cores[i];
                if let Some(err) = sys.take_unrecoverable_error() {
                    return Err(err);
                }
                if !open[i] {
                    continue;
                }
                if let Some(limit) = sys.sim_budget_ns() {
                    if now - window_start >= limit {
                        return Err(SimError::BudgetExhausted {
                            limit_ns: limit,
                            at: now,
                            committed: sys.core().committed(),
                            workload: self.names[i].clone(),
                        });
                    }
                }
                let committed = sys.core().committed();
                if committed != last_committed[i] {
                    last_committed[i] = committed;
                    last_progress_at[i] = now;
                } else if now - last_progress_at[i] >= DEADLOCK_WINDOW_NS {
                    return Err(sys.deadlock_err());
                }
                if committed >= targets[i] || sys.core().done() {
                    let result = sys.finish_window_now();
                    let window = sys.window_metrics().clone();
                    windows[i] = Some((result, window));
                    open[i] = false;
                    remaining -= 1;
                }
            }
        }
        // Every slot was filled exactly when its core closed
        // (`remaining` reaches 0 only once all windows are `Some`).
        let mut closed = Vec::with_capacity(windows.len());
        for (i, w) in windows.into_iter().enumerate() {
            match w {
                Some(v) => closed.push(v),
                None => {
                    return Err(SimError::Panic {
                        message: format!("core {i} window never closed"),
                    })
                }
            }
        }
        Ok(closed)
    }
}

/// Folds per-core windows into the chip-wide [`RunResult`]: work,
/// energy and event counts sum; time is the longest core's window;
/// rates (IPC, MPKI, average power) are recomputed from the summed
/// numerators over that longest window; SLO outcomes AND together
/// with worst-case observed values.
fn aggregate(workload: &str, per_core: Vec<RunResult>) -> RunResult {
    assert!(!per_core.is_empty(), "aggregate needs at least one core");
    let elapsed_ns = per_core.iter().map(|r| r.elapsed_ns).max().unwrap_or(0);
    let instructions: u64 = per_core.iter().map(|r| r.instructions).sum();
    let demand_misses: f64 = per_core
        .iter()
        .map(|r| r.mpki * r.instructions as f64 / 1000.0)
        .sum();
    let prefetch_misses: f64 = per_core
        .iter()
        .map(|r| r.prefetch_mpki * r.instructions as f64 / 1000.0)
        .sum();
    let energy_pj: f64 = per_core.iter().map(|r| r.energy_pj).sum();
    let mut energy = per_core[0].energy;
    for r in &per_core[1..] {
        for (acc, v) in energy
            .per_structure_pj
            .iter_mut()
            .zip(r.energy.per_structure_pj)
        {
            *acc += v;
        }
        energy.ramp_pj += r.energy.ramp_pj;
        energy.level_converter_pj += r.energy.level_converter_pj;
        energy.uncore_pj += r.energy.uncore_pj;
        energy.leakage_pj += r.energy.leakage_pj;
        energy.cycles += r.energy.cycles;
    }
    let mut mode = per_core[0].mode;
    for r in &per_core[1..] {
        for (acc, v) in mode.ns_in_mode.iter_mut().zip(r.mode.ns_in_mode) {
            *acc += v;
        }
        mode.down_transitions += r.mode.down_transitions;
        mode.up_transitions += r.mode.up_transitions;
    }
    let mut issue_histogram = per_core[0].issue_histogram;
    for r in &per_core[1..] {
        for (acc, v) in issue_histogram
            .buckets
            .iter_mut()
            .zip(r.issue_histogram.buckets)
        {
            *acc += v;
        }
    }
    let slo = per_core.iter().any(|r| r.slo.is_some()).then(|| {
        let outcomes: Vec<&SloOutcome> = per_core.iter().filter_map(|r| r.slo.as_ref()).collect();
        SloOutcome {
            retry_rate_ppm: outcomes.iter().map(|o| o.retry_rate_ppm).max().unwrap_or(0),
            added_latency_p99_ns: outcomes
                .iter()
                .map(|o| o.added_latency_p99_ns)
                .max()
                .unwrap_or(0),
            request_p99_ns: outcomes.iter().filter_map(|o| o.request_p99_ns).max(),
            request_p999_ns: outcomes.iter().filter_map(|o| o.request_p999_ns).max(),
            compliant: outcomes.iter().all(|o| o.compliant),
        }
    });
    let sum = |f: &dyn Fn(&RunResult) -> u64| per_core.iter().map(f).sum::<u64>();
    RunResult {
        workload: workload.to_owned(),
        instructions,
        elapsed_ns,
        pipeline_cycles: sum(&|r| r.pipeline_cycles),
        ipc: if elapsed_ns == 0 {
            0.0
        } else {
            instructions as f64 / elapsed_ns as f64
        },
        mpki: if instructions == 0 {
            0.0
        } else {
            demand_misses * 1000.0 / instructions as f64
        },
        prefetch_mpki: if instructions == 0 {
            0.0
        } else {
            prefetch_misses * 1000.0 / instructions as f64
        },
        energy_pj,
        energy,
        // pJ / ns = mW; the chip burns the summed energy over the
        // longest core's window. Same expression as
        // `PowerAccountant::average_power_w` so N = 1 is bit-identical.
        avg_power_w: if elapsed_ns == 0 {
            0.0
        } else {
            energy_pj / elapsed_ns as f64 * 1e-3
        },
        mode,
        down_triggers: sum(&|r| r.down_triggers),
        down_expiries: sum(&|r| r.down_expiries),
        up_triggers: sum(&|r| r.up_triggers),
        up_expiries: sum(&|r| r.up_expiries),
        zero_issue_cycles: sum(&|r| r.zero_issue_cycles),
        mispredicts: sum(&|r| r.mispredicts),
        branches: sum(&|r| r.branches),
        issue_histogram,
        read_errors: sum(&|r| r.read_errors),
        read_retries: sum(&|r| r.read_retries),
        requests_arrived: sum(&|r| r.requests_arrived),
        requests_completed: sum(&|r| r.requests_completed),
        request_backlog: sum(&|r| r.request_backlog),
        request_p50_ns: per_core.iter().map(|r| r.request_p50_ns).max().unwrap_or(0),
        request_p99_ns: per_core.iter().map(|r| r.request_p99_ns).max().unwrap_or(0),
        request_p999_ns: per_core
            .iter()
            .map(|r| r.request_p999_ns)
            .max()
            .unwrap_or(0),
        slo,
        core_results: per_core,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_workloads::twin;

    fn quick(cores: usize) -> SystemConfig {
        SystemConfig::vsv_with_fsms().with_cores(cores)
    }

    #[test]
    fn lockstep_is_deterministic() {
        let p = twin("mcf").expect("mcf exists");
        let run = || {
            let mut sys = MulticoreSystem::try_new(quick(2), &p).expect("valid");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(15_000).expect("run")
        };
        assert_eq!(run(), run(), "lockstep multicore must be bit-identical");
    }

    #[test]
    fn chip_aggregates_per_core_windows() {
        let p = twin("ammp").expect("ammp exists");
        let mut sys = MulticoreSystem::try_new(quick(2), &p).expect("valid");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(15_000).expect("run");
        assert_eq!(r.core_results.len(), 2);
        assert_eq!(
            r.instructions,
            r.core_results.iter().map(|c| c.instructions).sum::<u64>()
        );
        assert_eq!(
            r.elapsed_ns,
            r.core_results.iter().map(|c| c.elapsed_ns).max().unwrap()
        );
        assert!(r.core_results.iter().all(|c| c.avg_power_w > 0.0));
        assert_eq!(r.core_results[0].workload, "ammp#0");
    }

    #[test]
    fn heterogeneous_needs_one_point_per_core() {
        let p = twin("mcf").expect("mcf exists");
        let err =
            MulticoreSystem::try_new_heterogeneous(quick(2), &[p]).expect_err("count mismatch");
        assert_eq!(err.kind(), "invalid-config");
    }
}
