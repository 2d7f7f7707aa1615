//! The full-system simulator: core + hierarchy + prefetcher + power
//! model + VSV controller, advanced on a shared nanosecond clock.

use vsv_isa::InstStream;
use vsv_mem::{
    Hierarchy, HierarchyConfig, HierarchyStats, ReadErrorEvent, SharedFabric, SharedHandle,
    VsvSignal, READ_ERROR_DETECT_NS, READ_ERROR_RETRY_NS,
};
use vsv_power::{ActivitySample, ErrorCurve, PowerAccountant, PowerConfig, StructureId};
use vsv_prefetch::{TimeKeeping, TimeKeepingConfig};
use vsv_uarch::{Core, CoreConfig, CoreStats, CycleActivity};
use vsv_workloads::{TrafficEventKind, TrafficSpec, TrafficStream};

use crate::controller::{Mode, ModeStats, VsvConfig, VsvController};
use crate::error::{FaultKind, ModeTransition, SimError};
use crate::metrics::{CounterId, MetricsRegistry};
use crate::policy::{PolicySpec, PolicyStats};
use crate::report::{RunResult, SloSpec};
use crate::trace::{vdd_mv, TraceEvent, TraceLevel, TraceSink};

/// Simulated nanoseconds without a commit before the watchdog
/// declares a model deadlock (2 ms of simulated time).
const DEADLOCK_WINDOW_NS: u64 = 2_000_000;

/// One core's measured-window watch: the commit target and the
/// watchdog's anchors. [`System::try_run`] drives one; the chip's
/// lockstep drives one per core. Opened by `System::open_window`,
/// checked by `System::window_reached` and `System::watch`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowWatch {
    /// Simulated time the window opened (the budget's origin).
    start: u64,
    /// Commit count that closes the window.
    target: u64,
    /// Commit count at the last observed progress.
    last_committed: u64,
    /// Simulated time of the last observed progress.
    last_progress_at: u64,
}

/// How many controller mode transitions the always-on diagnostic ring
/// retains for deadlock reports.
const TRANSITION_RING_LEN: usize = 8;

/// Configuration of the whole simulated system.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Out-of-order core parameters (Table 1).
    pub core: CoreConfig,
    /// Memory-hierarchy parameters (Table 1).
    pub mem: HierarchyConfig,
    /// Power-model parameters (§5.2).
    pub power: PowerConfig,
    /// VSV parameters (§4).
    pub vsv: VsvConfig,
    /// Whether the Time-Keeping prefetcher is attached (§5.1).
    pub timekeeping: bool,
    /// Quiescent-stall fast-forward: when the core is provably unable
    /// to do any work until the next scheduled memory event, advance
    /// time in one batch instead of nanosecond by nanosecond. Results
    /// are bit-identical either way (the equivalence suite proves it);
    /// the flag exists so tests can pin the ns-stepped reference path.
    pub fast_forward: bool,
    /// Watchdog budget: hard ceiling on *simulated* nanoseconds per
    /// [`System::try_run`]/[`System::try_warm_up`] window. A window that
    /// exceeds it fails with [`SimError::BudgetExhausted`] instead of
    /// simulating forever. `None` (the default) means unlimited;
    /// `Some(0)` is rejected by [`SystemConfig::validate`].
    pub max_sim_ns: Option<u64>,
    /// Test-only fault injection: forces the next run window to fail
    /// with the given [`FaultKind`], so sweep-engine error paths can
    /// be exercised deterministically and end to end. `None` (the
    /// default) in production.
    pub inject_fault: Option<FaultKind>,
    /// Per-read error probability at VDDL — the anchor of the
    /// low-voltage timing-error model ([`ErrorCurve`]). The
    /// probability is exactly 0 at VDDH and scales quadratically with
    /// the undervolt toward this value at VDDL, so a rate of `0.0`
    /// (the default) keeps every run bit-identical to the model being
    /// absent.
    pub error_rate: f64,
    /// Seed of the error model's counter-based draw stream. Runs with
    /// the same seed (and configuration) err on exactly the same
    /// reads, independent of worker count or fast-forward.
    pub error_seed: u64,
    /// Reliability service-level objective, checked per measurement
    /// window ([`RunResult::slo`]). `None` (the default) reports no
    /// outcome and counts no violations.
    pub slo: Option<SloSpec>,
    /// Open-loop service-traffic scenario: requests arrive on the
    /// spec's deterministic train and are served as bounded slices of
    /// the twin's committed-instruction stream, queueing while the
    /// core works off earlier requests. Pure accounting on top of the
    /// simulation — the instruction stream, timing, and energy are
    /// bit-identical with the scenario on or off. `None` (the
    /// default) runs closed-loop, exactly as before the subsystem
    /// existed. The arrival clock re-anchors at every measurement
    /// reset, so each measured window sees the same train relative to
    /// its own start regardless of warm-up length or policy.
    pub traffic: Option<TrafficSpec>,
    /// Number of cores (voltage domains) the configuration simulates.
    /// `1` (the default) is the paper's single-core machine: a plain
    /// [`System`], alone on a one-core fabric. For `N > 1` the run layer
    /// builds a [`MulticoreSystem`](crate::MulticoreSystem): N
    /// replicated cores — each with its private L1s, prefetcher,
    /// controller and [`DvsPolicy`](crate::DvsPolicy) instance — over
    /// one shared, arbitrated L2/bus/DRAM fabric, stepped in
    /// nanosecond lockstep. A [`System`] itself always simulates one
    /// core; this field is consumed by the runner/sweep layers.
    pub cores: usize,
}

/// Hard ceiling on [`SystemConfig::cores`] — far above anything the
/// lockstep driver simulates in reasonable time, low enough to catch
/// typos (`--cores 100`) at validation instead of after an OOM.
pub const MAX_CORES: usize = 16;

impl SystemConfig {
    /// The paper's baseline: Table 1 core with DCG and software
    /// prefetching (in the workloads), VSV disabled.
    #[must_use]
    pub fn baseline() -> Self {
        SystemConfig {
            core: CoreConfig::baseline(),
            mem: HierarchyConfig::baseline(),
            power: PowerConfig::baseline(),
            vsv: VsvConfig::disabled(),
            timekeeping: false,
            fast_forward: true,
            max_sim_ns: None,
            inject_fault: None,
            error_rate: 0.0,
            error_seed: 0,
            slo: None,
            traffic: None,
            cores: 1,
        }
    }

    /// Baseline plus VSV with both FSMs (the paper's headline
    /// configuration, black bars in Figure 4):
    /// `with_policy(PolicySpec::DualFsm)`.
    #[must_use]
    pub fn vsv_with_fsms() -> Self {
        Self::with_policy(PolicySpec::DualFsm)
    }

    /// Baseline plus VSV under a named decision policy (FSM
    /// thresholds and circuit timing at the defaults).
    #[must_use]
    pub fn with_policy(policy: PolicySpec) -> Self {
        SystemConfig {
            vsv: VsvConfig::with_policy(policy),
            ..Self::baseline()
        }
    }

    /// The policy name this configuration runs under, for report
    /// schemas: `"disabled"` for the baseline, the
    /// [`PolicySpec::name`] otherwise.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        if self.vsv.enabled {
            self.vsv.policy.name()
        } else {
            "disabled"
        }
    }

    /// Enables or disables Time-Keeping prefetching (§6.4), adjusting
    /// the hierarchy's prefetch buffer to match.
    #[must_use]
    pub fn with_timekeeping(mut self, on: bool) -> Self {
        self.timekeeping = on;
        self.mem = if on {
            HierarchyConfig::with_prefetch_buffer()
        } else {
            HierarchyConfig::baseline()
        };
        self
    }

    /// Enables or disables the quiescent-stall fast-forward (on by
    /// default; the ns-stepped path is the reference for equivalence
    /// testing).
    #[must_use]
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Sets the per-window simulated-time watchdog budget (`None`
    /// disables it — the default).
    #[must_use]
    pub fn with_max_sim_ns(mut self, limit: Option<u64>) -> Self {
        self.max_sim_ns = limit;
        self
    }

    /// Arms the test-only fault-injection hook: the next run window
    /// fails with `kind` (see [`SystemConfig::inject_fault`]).
    #[must_use]
    pub fn with_injected_fault(mut self, kind: FaultKind) -> Self {
        self.inject_fault = Some(kind);
        self
    }

    /// Sets the low-voltage read-error probability at VDDL (see
    /// [`SystemConfig::error_rate`]; `0.0` disables the model).
    #[must_use]
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_rate = rate;
        self
    }

    /// Seeds the error model's deterministic draw stream (see
    /// [`SystemConfig::error_seed`]).
    #[must_use]
    pub fn with_error_seed(mut self, seed: u64) -> Self {
        self.error_seed = seed;
        self
    }

    /// Sets (or clears) the per-window reliability SLO (see
    /// [`SystemConfig::slo`]).
    #[must_use]
    pub fn with_slo(mut self, slo: Option<SloSpec>) -> Self {
        self.slo = slo;
        self
    }

    /// Sets (or clears) the open-loop traffic scenario (see
    /// [`SystemConfig::traffic`]).
    #[must_use]
    pub fn with_traffic(mut self, traffic: Option<TrafficSpec>) -> Self {
        self.traffic = traffic;
        self
    }

    /// The error curve this configuration runs under, if the model is
    /// enabled: anchored at the VSV technology's rails, reaching
    /// [`SystemConfig::error_rate`] at VDDL.
    #[must_use]
    pub fn error_curve(&self) -> Option<ErrorCurve> {
        (self.error_rate > 0.0)
            .then(|| ErrorCurve::new(self.vsv.tech.vddh, self.vsv.tech.vddl, self.error_rate))
    }

    /// Replaces the VSV voltage ladder with a uniform `depth`-level
    /// one between the technology's rails (depth 2 is the paper's
    /// two-rail configuration; see [`vsv_power::VoltageLadder`]).
    #[must_use]
    pub fn with_ladder_depth(mut self, depth: usize) -> Self {
        self.vsv = self.vsv.with_ladder_depth(depth);
        self
    }

    /// Sets the number of cores (voltage domains); see
    /// [`SystemConfig::cores`]. Values outside `1..=MAX_CORES` are
    /// rejected by [`SystemConfig::validate`].
    #[must_use]
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Validates the whole configuration tree.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] describing the first
    /// inconsistency (core widths/structures, predictor tables, cache
    /// geometries and the rest of the hierarchy, power-model ranges, a
    /// malformed voltage ladder, a zero watchdog budget).
    pub fn validate(&self) -> Result<(), SimError> {
        self.core.validate().map_err(SimError::invalid_config)?;
        self.mem.validate().map_err(SimError::invalid_config)?;
        self.power.validate().map_err(SimError::invalid_config)?;
        self.vsv
            .ladder
            .validate(&self.vsv.tech)
            .map_err(SimError::invalid_config)?;
        if self.max_sim_ns == Some(0) {
            return Err(SimError::invalid_config(
                "max_sim_ns must be nonzero when set (Some(0) exhausts instantly)",
            ));
        }
        if self.error_rate != 0.0 {
            ErrorCurve::new(self.vsv.tech.vddh, self.vsv.tech.vddl, self.error_rate)
                .validate()
                .map_err(SimError::invalid_config)?;
        }
        if let Some(traffic) = self.traffic {
            traffic.validate().map_err(SimError::invalid_config)?;
        }
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(SimError::invalid_config(format!(
                "cores must be in 1..={MAX_CORES}, got {}",
                self.cores
            )));
        }
        Ok(())
    }
}

/// Runtime of one open-loop traffic scenario: the deterministic
/// arrival train plus the request FIFO and service-attribution state.
///
/// Service is pure accounting: the core always executes the twin
/// stream, and a request is the span of committed instructions between
/// its service start and completion. Commits while the queue is empty
/// are background work, attributed to no request — so latency is
/// genuine queueing plus service at the twin's measured throughput,
/// while the simulation itself (timing, energy, every existing
/// counter) is untouched by the scenario.
#[derive(Debug)]
struct TrafficState {
    spec: TrafficSpec,
    stream: TrafficStream,
    /// Simulation time the stream's relative clock is anchored to.
    origin: u64,
    /// Absolute time of the next un-processed train event.
    next_at: u64,
    next_kind: TrafficEventKind,
    /// Arrival timestamps of queued requests, oldest first (the front
    /// request is in service).
    queue: std::collections::VecDeque<u64>,
    /// When the front request's service began (its queue wait is
    /// `front_started_at - arrival`).
    front_started_at: u64,
    /// Committed instructions credited to the front request so far.
    served: u64,
    /// Core commit count at the last attribution, for delta tracking.
    last_committed: u64,
}

impl TrafficState {
    fn new(spec: TrafficSpec, origin: u64, committed: u64) -> Self {
        let mut stream = TrafficStream::new(spec);
        let first = stream.next_event();
        TrafficState {
            spec,
            origin,
            next_at: origin.saturating_add(first.at),
            next_kind: first.kind,
            stream,
            queue: std::collections::VecDeque::new(),
            front_started_at: 0,
            served: 0,
            last_committed: committed,
        }
    }

    /// Pulls the train's next event into `next_at`/`next_kind`.
    fn advance(&mut self) {
        let ev = self.stream.next_event();
        self.next_at = self.origin.saturating_add(ev.at);
        self.next_kind = ev.kind;
    }
}

/// Snapshot of every counter we difference across a measurement
/// window.
#[derive(Debug, Clone, Copy)]
struct Anchors {
    now: u64,
    core: CoreStats,
    mem: HierarchyStats,
    l2_accesses: u64,
    dram_accesses: u64,
    bus_transactions: u64,
    mode: ModeStats,
    policy: PolicyStats,
}

/// The composed simulator.
///
/// # Examples
///
/// ```
/// use vsv::{System, SystemConfig};
/// use vsv_workloads::{Generator, WorkloadParams};
///
/// let stream = Generator::new(WorkloadParams::compute_bound("demo"));
/// let mut sys = System::try_new(SystemConfig::baseline(), stream).expect("valid config");
/// let result = sys.try_run(5_000).expect("runs");
/// assert!(result.instructions >= 5_000); // 8-wide commit may overshoot
/// assert!(result.avg_power_w > 0.0);
/// ```
#[derive(Debug)]
pub struct System<S> {
    core: Core<S>,
    controller: VsvController,
    power: PowerAccountant,
    now: u64,
    anchors: Anchors,
    workload: String,
    // Structured observability (see `crate::trace` / `crate::metrics`):
    // the always-on registry plus an optional event sink. `metrics`
    // accumulates the in-progress window; `window_metrics` holds the
    // last closed window's registry (what reports consume). With no
    // sink attached, the whole layer costs one branch per step.
    metrics: MetricsRegistry,
    window_metrics: MetricsRegistry,
    event_sink: Option<(TraceLevel, Box<dyn TraceSink>)>,
    fast_forward: bool,
    max_sim_ns: Option<u64>,
    inject_fault: Option<FaultKind>,
    // Low-voltage reliability (see `vsv_power::ErrorCurve` and the
    // retry path in `vsv_mem`). `error_curve` is `None` — and the
    // whole layer costs one branch per step — unless
    // `SystemConfig::error_rate` is nonzero. `last_vdd` caches the
    // voltage whose threshold the hierarchy currently holds, so the
    // curve is re-evaluated only when the supply actually moves.
    error_curve: Option<ErrorCurve>,
    last_vdd: f64,
    slo: Option<SloSpec>,
    // An exhausted retry budget recorded by the hierarchy, awaiting
    // escalation to `SimError::UnrecoverableRead` at the window loop.
    pending_unrecoverable: Option<(u64, u8)>,
    read_error_scratch: Vec<ReadErrorEvent>,
    // Open-loop traffic scenario (see `TrafficState`); `None` — and
    // one branch per step — unless `SystemConfig::traffic` is set.
    traffic: Option<TrafficState>,
    // Always-on diagnostic ring: the last few controller mode
    // transitions, so a deadlock error is a self-contained bug report
    // even when full tracing is off. Bounded at TRANSITION_RING_LEN.
    last_mode: Mode,
    recent_transitions: std::collections::VecDeque<ModeTransition>,
}

impl<S: InstStream> System<S> {
    /// Builds the system over `stream`, validating the configuration
    /// first.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any sub-configuration
    /// fails [`SystemConfig::validate`].
    pub fn try_new(cfg: SystemConfig, stream: S) -> Result<Self, SimError> {
        cfg.validate()?;
        let fabric = SharedFabric::new(cfg.mem, 1).into_shared();
        Ok(Self::on_fabric(cfg, stream, SharedHandle::new(fabric, 0)))
    }

    /// Builds the core `handle` names on its fabric. `cfg` must have
    /// passed [`SystemConfig::validate`].
    pub(crate) fn on_fabric(cfg: SystemConfig, stream: S, handle: SharedHandle) -> Self {
        // A core that shares its fabric never skips alone: the chip
        // steps all its cores in nanosecond lockstep, and a lone skip
        // would run this core's clock ahead of the fabric's
        // arbitration. A core alone on its fabric has no one to race.
        let fast_forward = cfg.fast_forward && handle.fabric_cores() == 1;
        let mut core = Core::new(cfg.core, Hierarchy::on_fabric(cfg.mem, handle), stream);
        let error_curve = cfg.error_curve();
        if error_curve.is_some() {
            // The threshold starts at VDDH's (exactly 0) and follows
            // the supply from `step`.
            core.mem_mut().enable_read_error_model(cfg.error_seed);
        }
        if cfg.timekeeping {
            let l1d = cfg.mem.l1d;
            core.attach_prefetcher(TimeKeeping::new(TimeKeepingConfig {
                l1_block_bytes: l1d.block_bytes,
                l1_sets: l1d.sets() as u64,
                ..TimeKeepingConfig::baseline()
            }));
        }
        let controller = VsvController::new(cfg.vsv);
        let anchors = Anchors {
            now: 0,
            core: core.stats(),
            mem: core.mem().stats(),
            l2_accesses: 0,
            dram_accesses: 0,
            bus_transactions: 0,
            mode: controller.stats(),
            policy: controller.policy_stats(),
        };
        let last_mode = controller.mode();
        let mut recent_transitions = std::collections::VecDeque::with_capacity(TRANSITION_RING_LEN);
        recent_transitions.push_back(ModeTransition {
            at_ns: 0,
            mode: last_mode,
        });
        System {
            core,
            controller,
            power: PowerAccountant::new(cfg.power),
            now: 0,
            anchors,
            workload: String::new(),
            metrics: MetricsRegistry::default(),
            window_metrics: MetricsRegistry::default(),
            event_sink: None,
            fast_forward,
            max_sim_ns: cfg.max_sim_ns,
            inject_fault: cfg.inject_fault,
            error_curve,
            last_vdd: cfg.vsv.tech.vddh,
            slo: cfg.slo,
            pending_unrecoverable: None,
            read_error_scratch: Vec::new(),
            traffic: cfg.traffic.map(|spec| TrafficState::new(spec, 0, 0)),
            last_mode,
            recent_transitions,
        }
    }

    /// Names the workload in produced [`RunResult`]s.
    pub fn set_workload_name(&mut self, name: impl Into<String>) {
        self.workload = name.into();
    }

    /// Attaches a structured [`TraceSink`] at `level`: from now on the
    /// simulation delivers typed [`TraceEvent`]s to it (schema:
    /// `docs/observability.md`). The stream is seeded with a
    /// `mode_entered` event for the current mode. Replaces any sink
    /// already attached (discarding it unflushed); detach with
    /// [`System::take_event_sink`].
    pub fn set_event_sink(&mut self, level: TraceLevel, sink: Box<dyn TraceSink>) {
        self.controller.set_tracing(Some(level), self.now);
        self.event_sink = Some((level, sink));
        self.flush_trace_events();
    }

    /// Delivers `event` to the attached sink, if any — the hook
    /// callers use for out-of-band events such as
    /// [`TraceEvent::JobStart`] headers. A no-op with no sink.
    pub fn emit_trace_event(&mut self, event: &TraceEvent) {
        if let Some((_, sink)) = self.event_sink.as_mut() {
            self.metrics.inc(CounterId::TraceEvents);
            sink.record(event);
        }
    }

    /// Detaches and returns the structured event sink, flushing it and
    /// turning event emission off. `None` if no sink was attached.
    pub fn take_event_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.flush_trace_events();
        self.controller.set_tracing(None, self.now);
        self.event_sink.take().map(|(_, mut sink)| {
            sink.flush();
            sink
        })
    }

    /// The metrics registry of the last closed measurement window
    /// (what [`System::try_run`] measured); empty before the first window
    /// closes.
    #[must_use]
    pub fn window_metrics(&self) -> &MetricsRegistry {
        &self.window_metrics
    }

    /// The metrics registry of the window in progress (accumulating
    /// since the last window closed).
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Drains the controller's buffered structured events into the
    /// attached sink. A no-op with no sink; with one, called at every
    /// step and window boundary so sink output stays in emission
    /// order.
    fn flush_trace_events(&mut self) {
        let Some((_, sink)) = self.event_sink.as_mut() else {
            return;
        };
        if !self.controller.has_trace_events() {
            return;
        }
        for ev in self.controller.drain_trace_events() {
            self.metrics.inc(CounterId::TraceEvents);
            sink.record(&ev);
        }
    }

    /// Current simulated time (ns).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The core (stats, hierarchy access).
    #[must_use]
    pub fn core(&self) -> &Core<S> {
        &self.core
    }

    /// The VSV controller (mode, FSM stats).
    #[must_use]
    pub fn controller(&self) -> &VsvController {
        &self.controller
    }

    /// Runs `instructions` committed instructions to warm the caches
    /// and predictors, then re-anchors all measurement counters so the
    /// next [`System::try_run`] reports steady-state numbers (the paper
    /// warms caches during fast-forward, §5).
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] that ended the warm-up window early
    /// (deadlock, exhausted budget, injected fault).
    pub fn try_warm_up(&mut self, instructions: u64) -> Result<(), SimError> {
        // Closing the window re-anchors every measurement counter.
        let _ = self.try_run(instructions)?;
        Ok(())
    }

    /// Runs `instructions` committed instructions and reports the
    /// measured window.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no instruction commits for 2 ms of
    /// simulated time; [`SimError::BudgetExhausted`] if the window
    /// exceeds [`SystemConfig::max_sim_ns`]; the injected error when
    /// [`SystemConfig::inject_fault`] is armed.
    pub fn try_run(&mut self, instructions: u64) -> Result<RunResult, SimError> {
        let mut window = self.open_window(instructions)?;
        while !self.window_reached(&window) {
            self.advance_ns();
            self.watch(Some(&mut window))?;
        }
        Ok(self.finish_window())
    }

    /// Opens a measured window of `instructions` commits: dispatches an
    /// armed injected fault, then starts the window's watch. Terminal
    /// fault kinds fail here, before any step.
    pub(crate) fn open_window(&mut self, instructions: u64) -> Result<WindowWatch, SimError> {
        if let Some(kind) = self.inject_fault {
            match kind {
                // Same construction path as the real detector in
                // `watch`, so the injected error is shaped exactly like
                // a genuine one.
                FaultKind::Deadlock => return Err(self.deadlock_error()),
                FaultKind::Panic => panic!(
                    "injected panic fault (SystemConfig::inject_fault) at t={}",
                    self.now
                ),
                // Unlike the terminal kinds above, this one arms the
                // hierarchy and lets the window run: every delivery
                // errs until one read exhausts its budget, so the
                // escalation in `watch` is exercised through the real
                // retry machinery.
                FaultKind::UnrecoverableRead => self.core.mem_mut().arm_forced_read_error(),
            }
        }
        let committed = self.core.committed();
        Ok(WindowWatch {
            start: self.now,
            target: committed + instructions,
            last_committed: committed,
            last_progress_at: self.now,
        })
    }

    /// Whether `window` is over: its commit target is reached or the
    /// stream is done. Checked before every step, so a 0-instruction
    /// window closes empty.
    pub(crate) fn window_reached(&self, window: &WindowWatch) -> bool {
        self.core.committed() >= window.target || self.core.done()
    }

    /// The per-step window rules, applied after each nanosecond: a
    /// parked exhausted retry escalates to
    /// [`SimError::UnrecoverableRead`] whether or not a window is open;
    /// an open `window` also fails on its [`SystemConfig::max_sim_ns`]
    /// budget and on [`DEADLOCK_WINDOW_NS`] without a commit.
    pub(crate) fn watch(&mut self, window: Option<&mut WindowWatch>) -> Result<(), SimError> {
        if let Some((at, retries)) = self.pending_unrecoverable.take() {
            return Err(SimError::UnrecoverableRead {
                at,
                committed: self.core.committed(),
                workload: self.workload.clone(),
                retries,
                mode: self.controller.mode(),
            });
        }
        let Some(window) = window else {
            return Ok(());
        };
        if let Some(limit) = self.max_sim_ns {
            if self.now - window.start >= limit {
                return Err(SimError::BudgetExhausted {
                    limit_ns: limit,
                    at: self.now,
                    committed: self.core.committed(),
                    workload: self.workload.clone(),
                });
            }
        }
        let committed = self.core.committed();
        if committed != window.last_committed {
            window.last_committed = committed;
            window.last_progress_at = self.now;
        } else if self.now - window.last_progress_at >= DEADLOCK_WINDOW_NS {
            return Err(self.deadlock_error());
        }
        Ok(())
    }

    /// Builds a [`SimError::Deadlock`] for the current machine state,
    /// attaching the diagnostic transition ring.
    fn deadlock_error(&self) -> SimError {
        SimError::Deadlock {
            at: self.now,
            committed: self.core.committed(),
            workload: self.workload.clone(),
            mode: self.controller.mode(),
            recent_transitions: self.recent_transitions.iter().copied().collect(),
        }
    }

    /// Jumps `self.now` forward to the next scheduled memory event (or
    /// Time-Keeping harvest) if — and only if — every component is
    /// provably inert for the whole window, batch-applying the skipped
    /// zero-issue cycles so all counters match the ns-stepped path bit
    /// for bit. A no-op whenever any eligibility condition fails.
    fn try_fast_forward(&mut self) {
        let mem = self.core.mem();
        // Buffered work would be consumed by the very next step; an
        // empty event queue means the machine is either done or about
        // to be declared deadlocked — never skip over either.
        if mem.retry_pending()
            || mem.has_buffered_completions()
            || mem.has_buffered_vsv_signals()
            || mem.has_buffered_read_errors()
        {
            return;
        }
        let Some(event_at) = mem.next_event_time() else {
            return;
        };
        let outstanding = mem.outstanding_demand_misses();
        if !self.core.quiescent() || !self.controller.quiescent_skip_allowed(outstanding) {
            return;
        }
        // TimeKeeping::tick is a pure no-op strictly before its next
        // harvest time, so cap the skip there. Traffic events cap it
        // too: an arrival or burst boundary must be processed at its
        // exact nanosecond, never skipped over (no commits happen in a
        // skippable span, so landing on the event is exact).
        let target = event_at
            .min(self.core.prefetch_harvest_at().unwrap_or(u64::MAX))
            .min(self.traffic.as_ref().map_or(u64::MAX, |t| t.next_at));
        if target <= self.now {
            return;
        }
        let from = self.now;
        let ns = target - from;
        // Snapshot the edge schedule before the controller batches it,
        // so the trace replay below sees the pre-skip timeline.
        let mode = self.controller.mode();
        let period = self.controller.current_period_ns();
        let mut next_edge = self.controller.next_edge();
        let (edges, vdd) = self.controller.skip_quiescent(from, ns);
        self.metrics.inc(CounterId::FastForwardBatches);
        self.metrics.add(CounterId::FastForwardNs, ns);
        self.metrics.observe_ff_span(ns);
        self.power.record_leakage_span(ns, vdd);
        self.power.record_idle_cycles(edges, vdd);
        self.core.skip_idle_cycles(edges);
        if self.event_sink.is_some() {
            trace_event(
                &mut self.event_sink,
                &mut self.metrics,
                &TraceEvent::FastForward {
                    from,
                    to: target,
                    edges,
                },
            );
            // FSM windows that expired inside the batch were stamped at
            // the batch end by the controller; deliver them after the
            // batch marker.
            self.flush_trace_events();
            if let Some((TraceLevel::Full, sink)) = self.event_sink.as_mut() {
                // Replay the skipped span sample by sample.
                let vdd_mv = vdd_mv(vdd);
                for t in from..target {
                    let edge = t >= next_edge;
                    if edge {
                        next_edge += period;
                    }
                    self.metrics.inc(CounterId::TraceEvents);
                    sink.record(&TraceEvent::Sample {
                        at: t,
                        mode,
                        vdd_mv,
                        edge,
                    });
                }
            }
        }
        self.now = target;
    }

    /// One nanosecond of a window: first skips a quiescent stall in
    /// one batch when this core may fast-forward, then steps 1 ns.
    pub(crate) fn advance_ns(&mut self) {
        if self.fast_forward {
            self.try_fast_forward();
        }
        self.step_ns();
    }

    /// Advances the simulation by exactly one nanosecond without any
    /// completion criterion — the single-stepping primitive under
    /// [`System::try_run`], exposed for tools that want to observe the
    /// controller's mode trajectory cycle by cycle.
    pub fn step_ns(&mut self) {
        let now = self.now;
        if self.traffic.is_some() {
            self.traffic_arrivals(now);
        }
        self.core.tick_mem(now);
        if self.core.mem().has_buffered_read_errors() {
            self.drain_read_errors(now);
        }
        let controller = &mut self.controller;
        let metrics = &mut self.metrics;
        self.core.mem_mut().visit_vsv_signals(|sig| {
            match *sig {
                VsvSignal::L2MissDetected { demand, .. } => metrics.inc(if demand {
                    CounterId::DemandMissDetects
                } else {
                    CounterId::PrefetchMissDetects
                }),
                VsvSignal::L2MissReturned { .. } => metrics.inc(CounterId::MissReturns),
            }
            controller.observe(sig);
        });
        let outstanding = self.core.mem().outstanding_demand_misses();
        let plan = self.controller.tick(now, outstanding);
        if let Some(curve) = self.error_curve {
            // Follow the supply: deliveries at t use the voltage the
            // controller planned at t-1 (a fixed 1 ns sampling lag,
            // identical on the fast-forward and ns-stepped paths —
            // skippable spans hold the voltage constant).
            if plan.vdd != self.last_vdd {
                self.last_vdd = plan.vdd;
                self.core
                    .mem_mut()
                    .set_read_error_threshold(curve.threshold(plan.vdd));
            }
        }
        let mode = self.controller.mode();
        if mode != self.last_mode {
            self.last_mode = mode;
            if self.recent_transitions.len() == TRANSITION_RING_LEN {
                self.recent_transitions.pop_front();
            }
            self.recent_transitions
                .push_back(ModeTransition { at_ns: now, mode });
        }
        let ramps = self.controller.take_ramps();
        if ramps > 0 {
            self.metrics.add(CounterId::SupplyRamps, ramps);
            let power = &mut self.power;
            self.controller
                .drain_ramp_scales(|scale| power.record_ramp_scaled(scale));
        }
        self.power.record_leakage_ns(plan.vdd);
        if plan.pipeline_edge {
            let act = self.core.cycle(now);
            self.controller.on_cycle(now, act.issued);
            self.power.record_cycle(&sample_from(&act), plan.vdd);
            if self.traffic.is_some() {
                self.traffic_completions(now);
            }
        }
        if self.event_sink.is_some() {
            self.flush_trace_events();
            let mode = self.controller.mode();
            if let Some((TraceLevel::Full, sink)) = self.event_sink.as_mut() {
                self.metrics.inc(CounterId::TraceEvents);
                sink.record(&TraceEvent::Sample {
                    at: now,
                    mode,
                    vdd_mv: vdd_mv(plan.vdd),
                    edge: plan.pipeline_edge,
                });
            }
        }
        self.now += 1;
    }

    /// Consumes the read-error events the hierarchy recorded during
    /// `tick_mem`: counts them, emits trace events, feeds the retry
    /// stream to the policy (graceful degradation), and parks an
    /// exhausted budget for escalation at the window loop.
    fn drain_read_errors(&mut self, now: u64) {
        let mut events = std::mem::take(&mut self.read_error_scratch);
        self.core.mem_mut().take_read_error_events_into(&mut events);
        for ev in &events {
            self.metrics.inc(CounterId::ReadErrors);
            if ev.exhausted {
                trace_event(
                    &mut self.event_sink,
                    &mut self.metrics,
                    &TraceEvent::RetryExhausted {
                        at: ev.at,
                        retries: ev.attempt,
                    },
                );
                self.pending_unrecoverable = Some((ev.at, ev.attempt));
            } else {
                self.metrics.inc(CounterId::ReadRetries);
                trace_event(
                    &mut self.event_sink,
                    &mut self.metrics,
                    &TraceEvent::ReadError {
                        at: ev.at,
                        attempt: ev.attempt,
                    },
                );
                // After the event, so an engagement the retry causes
                // lands later in the stream than its cause.
                self.controller.on_read_retry(now);
            }
        }
        events.clear();
        self.read_error_scratch = events;
    }

    /// Processes every traffic-train event due by `now`: arrivals join
    /// the request FIFO (starting service immediately when it was
    /// empty), burst boundaries are counted and traced. Called at the
    /// top of every step; fast-forward caps its skips at the next
    /// train event, so events are always handled at their exact
    /// nanosecond.
    fn traffic_arrivals(&mut self, now: u64) {
        loop {
            let Some(tr) = self.traffic.as_mut() else {
                return;
            };
            if tr.next_at > now {
                return;
            }
            let at = tr.next_at;
            match tr.next_kind {
                TrafficEventKind::Arrival => {
                    if tr.queue.is_empty() {
                        tr.front_started_at = at;
                        tr.served = 0;
                    }
                    tr.queue.push_back(at);
                    let queued = tr.queue.len() as u64;
                    tr.advance();
                    self.metrics.inc(CounterId::RequestsArrived);
                    trace_event(
                        &mut self.event_sink,
                        &mut self.metrics,
                        &TraceEvent::RequestArrived { at, queued },
                    );
                }
                TrafficEventKind::BurstStart => {
                    tr.advance();
                    self.metrics.inc(CounterId::BurstStarts);
                    trace_event(
                        &mut self.event_sink,
                        &mut self.metrics,
                        &TraceEvent::BurstStart { at },
                    );
                }
            }
        }
    }

    /// Attributes this step's commit delta to the front request and
    /// completes every request whose instruction budget is now served.
    /// Commits with an empty queue are background work, credited to no
    /// request; leftover progress when the queue drains is discarded
    /// (an idle server banks nothing).
    fn traffic_completions(&mut self, now: u64) {
        let committed = self.core.committed();
        let Some(tr) = self.traffic.as_mut() else {
            return;
        };
        let delta = committed - tr.last_committed;
        tr.last_committed = committed;
        if delta == 0 || tr.queue.is_empty() {
            return;
        }
        tr.served += delta;
        while tr.served >= tr.spec.request_instructions {
            let Some(arrived) = tr.queue.pop_front() else {
                break;
            };
            tr.served -= tr.spec.request_instructions;
            let wait_ns = tr.front_started_at.saturating_sub(arrived);
            let latency_ns = now.saturating_sub(arrived);
            if tr.queue.is_empty() {
                tr.served = 0;
            } else {
                // The next queued request enters service now.
                tr.front_started_at = now;
            }
            self.metrics.inc(CounterId::RequestsCompleted);
            self.metrics.observe_request_latency(latency_ns);
            trace_event(
                &mut self.event_sink,
                &mut self.metrics,
                &TraceEvent::RequestCompleted {
                    at: now,
                    wait_ns,
                    latency_ns,
                },
            );
        }
    }

    /// Re-anchors every counter at "now" and zeroes the energy
    /// integrator.
    fn reset_measurement(&mut self) {
        let cfg = *self.power.config();
        self.power = PowerAccountant::new(cfg);
        // Re-anchor the traffic scenario too: a fresh arrival train
        // starting at "now" (and an empty queue), so every measured
        // window sees the same train relative to its own start,
        // regardless of how long warm-up ran under which policy.
        if let Some(tr) = self.traffic.as_mut() {
            *tr = TrafficState::new(tr.spec, self.now, self.core.committed());
        }
        self.anchors = Anchors {
            now: self.now,
            core: self.core.stats(),
            mem: self.core.mem().stats(),
            l2_accesses: self.core.mem().l2_accesses(),
            dram_accesses: self.core.mem().dram_accesses(),
            bus_transactions: self.core.mem().bus_transactions(),
            mode: self.controller.stats(),
            policy: self.controller.policy_stats(),
        };
    }

    /// Closes the measurement window: charges uncore energy for the
    /// window's L2/bus/DRAM events, builds the result and re-anchors.
    pub(crate) fn finish_window(&mut self) -> RunResult {
        let a = self.anchors;
        let l2_accesses = self.core.mem().l2_accesses() - a.l2_accesses;
        let dram = self.core.mem().dram_accesses() - a.dram_accesses;
        let bus = self.core.mem().bus_transactions() - a.bus_transactions;
        self.power.record_uncore(l2_accesses, dram, bus);

        let core = self.core.stats();
        let mem = self.core.mem().stats();
        let mode_now = self.controller.stats();
        let elapsed_ns = self.now - a.now;
        let committed = core.committed - a.core.committed;
        let demand_misses = mem.l2_demand_misses - a.mem.l2_demand_misses;

        let mut ns_in_mode = mode_now.ns_in_mode;
        for (cur, old) in ns_in_mode.iter_mut().zip(a.mode.ns_in_mode.iter()) {
            *cur -= old;
        }
        let mode = ModeStats {
            ns_in_mode,
            down_transitions: mode_now.down_transitions - a.mode.down_transitions,
            up_transitions: mode_now.up_transitions - a.mode.up_transitions,
        };

        let issue_histogram = {
            let mut h = core.issue_histogram;
            for (b, old) in h.buckets.iter_mut().zip(a.core.issue_histogram.buckets) {
                *b -= old;
            }
            h
        };

        // Fold the window's deltas into the metrics registry, then
        // close it out: the registry becomes this window's
        // `window_metrics` and a fresh one starts accumulating.
        let pstats = self.controller.policy_stats();
        let down_triggers = pstats.down_triggers - a.policy.down_triggers;
        let down_expiries = pstats.down_expiries - a.policy.down_expiries;
        let up_triggers = pstats.up_triggers - a.policy.up_triggers;
        let up_expiries = pstats.up_expiries - a.policy.up_expiries;
        self.metrics
            .add(CounterId::DownTransitions, mode.down_transitions);
        self.metrics
            .add(CounterId::UpTransitions, mode.up_transitions);
        self.metrics.add(CounterId::PolicyDownFires, down_triggers);
        self.metrics
            .add(CounterId::PolicyDownDeclines, down_expiries);
        self.metrics.add(CounterId::PolicyUpFires, up_triggers);
        self.metrics.add(CounterId::PolicyUpDeclines, up_expiries);
        self.metrics.add(
            CounterId::BackoffVetoes,
            pstats.backoff_vetoes - a.policy.backoff_vetoes,
        );
        let read_errors = mem.read_errors - a.mem.read_errors;
        let read_retries = mem.read_retries - a.mem.read_retries;
        // Request accounting, read off the in-progress registry before
        // it is taken below. `None` (traffic off) reports zeros and
        // judges tail-latency SLO ceilings vacuously satisfied.
        let traffic_window = self.traffic.as_ref().map(|tr| {
            (
                self.metrics.get(CounterId::RequestsArrived),
                self.metrics.get(CounterId::RequestsCompleted),
                tr.queue.len() as u64,
                self.metrics.request_latency_percentile(50, 100),
                self.metrics.request_latency_percentile(99, 100),
                self.metrics.request_latency_percentile(999, 1000),
            )
        });
        let slo = self.slo.map(|spec| {
            let mut hist = mem.fill_retry_hist;
            for (h, old) in hist.iter_mut().zip(a.mem.fill_retry_hist) {
                *h -= old;
            }
            let fills: u64 = hist.iter().sum();
            let (retry_rate_ppm, p99_ns) = if fills == 0 {
                (0, 0)
            } else {
                // Each retry adds one fixed detect + reissue delay to
                // its fill; the p99 added latency is the smallest
                // retry count covering ≥99% of successful fills.
                let step_ns = READ_ERROR_DETECT_NS + READ_ERROR_RETRY_NS;
                let need = (fills * 99).div_ceil(100);
                let mut cum = 0u64;
                let mut p99 = 0u64;
                for (attempts, n) in hist.iter().enumerate() {
                    cum += n;
                    if cum >= need {
                        p99 = attempts as u64 * step_ns;
                        break;
                    }
                }
                (read_retries.saturating_mul(1_000_000) / fills, p99)
            };
            let outcome = spec.evaluate_window(
                retry_rate_ppm,
                p99_ns,
                traffic_window.map(|t| t.4),
                traffic_window.map(|t| t.5),
            );
            if !outcome.compliant {
                self.metrics.inc(CounterId::SloViolations);
            }
            outcome
        });
        self.metrics.inc(CounterId::Windows);
        self.metrics.fold_issue_buckets(&issue_histogram.buckets);
        if self.event_sink.is_some() {
            self.flush_trace_events();
            self.emit_trace_event(&TraceEvent::WindowClosed {
                at: self.now,
                instructions: committed,
                issue_buckets: issue_histogram.buckets,
            });
        }
        self.window_metrics = std::mem::take(&mut self.metrics);

        let result = RunResult {
            workload: self.workload.clone(),
            instructions: committed,
            elapsed_ns,
            pipeline_cycles: core.cycles - a.core.cycles,
            ipc: if elapsed_ns == 0 {
                0.0
            } else {
                committed as f64 / elapsed_ns as f64
            },
            mpki: if committed == 0 {
                0.0
            } else {
                demand_misses as f64 * 1000.0 / committed as f64
            },
            prefetch_mpki: if committed == 0 {
                0.0
            } else {
                (mem.l2_prefetch_misses - a.mem.l2_prefetch_misses) as f64 * 1000.0
                    / committed as f64
            },
            energy_pj: self.power.total_energy_pj(),
            energy: self.power.breakdown(),
            avg_power_w: self.power.average_power_w(elapsed_ns),
            mode,
            down_triggers,
            down_expiries,
            up_triggers,
            up_expiries,
            zero_issue_cycles: core.zero_issue_cycles - a.core.zero_issue_cycles,
            mispredicts: core.mispredicts - a.core.mispredicts,
            branches: core.branches - a.core.branches,
            issue_histogram,
            read_errors,
            read_retries,
            requests_arrived: traffic_window.map_or(0, |t| t.0),
            requests_completed: traffic_window.map_or(0, |t| t.1),
            request_backlog: traffic_window.map_or(0, |t| t.2),
            request_p50_ns: traffic_window.map_or(0, |t| t.3),
            request_p99_ns: traffic_window.map_or(0, |t| t.4),
            request_p999_ns: traffic_window.map_or(0, |t| t.5),
            slo,
            core_results: Vec::new(),
        };
        self.reset_measurement();
        result
    }
}

/// Delivers an events-level `event` to `sink` when one is attached at
/// [`TraceLevel::Events`] or above, counting it in `metrics`. Takes
/// the two fields rather than the `System` so callers may hold other
/// borrows of it (the traffic state) across the call.
#[inline]
fn trace_event(
    sink: &mut Option<(TraceLevel, Box<dyn TraceSink>)>,
    metrics: &mut MetricsRegistry,
    event: &TraceEvent,
) {
    if let Some((level, sink)) = sink {
        if *level >= TraceLevel::Events {
            metrics.inc(CounterId::TraceEvents);
            sink.record(event);
        }
    }
}

/// Maps the core's activity vector onto the power model's structure
/// catalog.
fn sample_from(act: &CycleActivity) -> ActivitySample {
    let mut s: ActivitySample = Default::default();
    s[StructureId::Fetch.index()] = act.fetched;
    s[StructureId::Rename.index()] = act.dispatched;
    s[StructureId::Ruu.index()] = act.ruu_reads + act.ruu_writes + act.ruu_wakeups;
    s[StructureId::Lsq.index()] = act.lsq_accesses;
    s[StructureId::RegFile.index()] = act.regfile_reads + act.regfile_writes;
    s[StructureId::IL1.index()] = act.il1_accesses;
    s[StructureId::DL1.index()] = act.dl1_accesses;
    s[StructureId::Bpred.index()] = act.bpred_accesses;
    s[StructureId::IntAlu.index()] = act.int_alu_ops;
    s[StructureId::IntMulDiv.index()] = act.int_muldiv_ops;
    s[StructureId::FpAlu.index()] = act.fp_alu_ops;
    s[StructureId::FpMulDiv.index()] = act.fp_muldiv_ops;
    s[StructureId::ResultBus.index()] = act.resultbus_ops;
    // The clock tree toggles every cycle; its energy is the per-cycle
    // clock term, charged by the accountant regardless of this count.
    s[StructureId::ClockTree.index()] = 0;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_workloads::{Generator, WorkloadParams};

    fn memory_bound_params() -> WorkloadParams {
        let mut p = WorkloadParams::compute_bound("membound");
        p.working_set_bytes = 32 * 1024 * 1024;
        p.far_fraction = 0.25;
        p.miss_dependency = 1.0;
        p.ilp_chains = 1;
        p
    }

    #[test]
    fn config_constructors_report_their_policy() {
        assert_eq!(SystemConfig::baseline().policy_name(), "disabled");
        assert_eq!(SystemConfig::vsv_with_fsms().policy_name(), "dual-fsm");
        assert_eq!(
            SystemConfig::with_policy(PolicySpec::ImmediateDown).policy_name(),
            "immediate-down"
        );
    }

    #[test]
    fn baseline_run_reports_sane_numbers() {
        let mut sys = System::try_new(
            SystemConfig::baseline(),
            Generator::new(WorkloadParams::compute_bound("t")),
        )
        .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(20_000).expect("run");
        // Commit is 8-wide, so the window may overshoot by up to 7.
        assert!(
            (20_000..20_008).contains(&r.instructions),
            "{}",
            r.instructions
        );
        assert!(r.ipc > 0.5, "compute-bound twin should flow, got {}", r.ipc);
        assert!(
            r.avg_power_w > 1.0 && r.avg_power_w < 100.0,
            "{}",
            r.avg_power_w
        );
        assert_eq!(r.mode.down_transitions, 0, "VSV disabled");
    }

    #[test]
    fn baseline_cycles_equal_elapsed_ns() {
        let mut sys = System::try_new(
            SystemConfig::baseline(),
            Generator::new(WorkloadParams::compute_bound("t")),
        )
        .expect("valid config");
        let r = sys.try_run(10_000).expect("run");
        assert_eq!(
            r.pipeline_cycles, r.elapsed_ns,
            "full speed: 1 cycle per ns"
        );
    }

    #[test]
    fn vsv_saves_power_on_memory_bound_twin() {
        let params = memory_bound_params();
        let mut base = System::try_new(SystemConfig::baseline(), Generator::new(params))
            .expect("valid config");
        base.try_warm_up(10_000).expect("warm-up");
        let rb = base.try_run(30_000).expect("run");

        let mut vsv = System::try_new(SystemConfig::vsv_with_fsms(), Generator::new(params))
            .expect("valid config");
        vsv.try_warm_up(10_000).expect("warm-up");
        let rv = vsv.try_run(30_000).expect("run");

        assert!(rb.mpki > 4.0, "twin must be memory bound, MR {}", rb.mpki);
        assert!(rv.mode.down_transitions > 0, "VSV must engage");
        assert!(
            rv.avg_power_w < rb.avg_power_w * 0.95,
            "VSV should save >5% power: {} vs {}",
            rv.avg_power_w,
            rb.avg_power_w
        );
        let degradation = (rv.elapsed_ns as f64 / rb.elapsed_ns as f64 - 1.0) * 100.0;
        assert!(
            degradation < 15.0,
            "degradation should be bounded, got {degradation}%"
        );
    }

    #[test]
    fn vsv_leaves_compute_bound_twin_alone() {
        let mut p = WorkloadParams::compute_bound("cpu");
        p.far_fraction = 0.0;
        let mut base =
            System::try_new(SystemConfig::baseline(), Generator::new(p)).expect("valid config");
        base.try_warm_up(5_000).expect("warm-up");
        let rb = base.try_run(20_000).expect("run");
        let mut vsv = System::try_new(SystemConfig::vsv_with_fsms(), Generator::new(p))
            .expect("valid config");
        vsv.try_warm_up(5_000).expect("warm-up");
        let rv = vsv.try_run(20_000).expect("run");
        // A handful of first-touch hot-set blocks may still miss after
        // warm-up; the twin has no sustained miss traffic though.
        assert!(
            rv.mode.down_transitions <= 2,
            "essentially no transitions expected, got {}",
            rv.mode.down_transitions
        );
        let delta = (rv.elapsed_ns as f64 / rb.elapsed_ns as f64 - 1.0).abs();
        assert!(
            delta < 0.02,
            "near-identical timing expected, delta {delta}"
        );
    }

    #[test]
    fn mode_residency_sums_to_elapsed() {
        let mut sys = System::try_new(
            SystemConfig::with_policy(PolicySpec::ImmediateDown),
            Generator::new(memory_bound_params()),
        )
        .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(20_000).expect("run");
        let total: u64 = r.mode.ns_in_mode.iter().sum();
        assert_eq!(total, r.elapsed_ns);
        assert!(r.mode.low_residency() > 0.0, "memory-bound: some low time");
    }

    #[test]
    fn timekeeping_cuts_demand_misses_on_streaming_twin() {
        let mut p = WorkloadParams::compute_bound("stream");
        p.working_set_bytes = 8 * 1024 * 1024;
        p.far_fraction = 0.30;
        p.mem_fraction = 0.35;
        let cfg = SystemConfig::baseline();
        let mut base = System::try_new(cfg, Generator::new(p)).expect("valid config");
        base.try_warm_up(20_000).expect("warm-up");
        let rb = base.try_run(60_000).expect("run");

        let cfg_tk = SystemConfig::baseline().with_timekeeping(true);
        let mut tk = System::try_new(cfg_tk, Generator::new(p)).expect("valid config");
        tk.try_warm_up(20_000).expect("warm-up");
        let rt = tk.try_run(60_000).expect("run");

        assert!(rb.mpki > 5.0, "stream twin must miss: {}", rb.mpki);
        assert!(
            rt.mpki < rb.mpki * 0.8,
            "TK should cut streaming demand misses: {} -> {}",
            rb.mpki,
            rt.mpki
        );
    }

    #[test]
    fn warm_up_resets_measurement() {
        let mut sys = System::try_new(
            SystemConfig::baseline(),
            Generator::new(WorkloadParams::compute_bound("t")),
        )
        .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(1_000).expect("run");
        assert!(
            (1_000..1_008).contains(&r.instructions),
            "window counts only measured insts (8-wide commit may overshoot): {}",
            r.instructions
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut cfg = SystemConfig::baseline();
        cfg.core.issue_width = 0;
        let err = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect_err("invalid");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("issue_width"), "{err}");
        let zero_budget = SystemConfig::baseline().with_max_sim_ns(Some(0));
        assert!(zero_budget.validate().is_err());
    }

    #[test]
    fn budget_exhaustion_is_a_typed_error() {
        // A 50-ns budget cannot hold a 20k-instruction window.
        let cfg = SystemConfig::baseline().with_max_sim_ns(Some(50));
        let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect("valid config");
        sys.set_workload_name("budget");
        let err = sys.try_run(20_000).expect_err("budget too small");
        match err {
            SimError::BudgetExhausted {
                limit_ns, workload, ..
            } => {
                assert_eq!(limit_ns, 50);
                assert_eq!(workload, "budget");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // A generous budget changes nothing.
        let cfg = SystemConfig::baseline().with_max_sim_ns(Some(u64::MAX));
        let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect("valid config");
        assert!(sys.try_run(5_000).is_ok());
    }

    #[test]
    fn injected_deadlock_is_typed_and_carries_the_ring() {
        let cfg = SystemConfig::vsv_with_fsms().with_injected_fault(crate::FaultKind::Deadlock);
        let mut sys =
            System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
        sys.set_workload_name("membound");
        let err = sys.try_warm_up(5_000).expect_err("fault armed");
        match &err {
            SimError::Deadlock {
                workload,
                recent_transitions,
                ..
            } => {
                assert_eq!(workload, "membound");
                assert!(
                    !recent_transitions.is_empty(),
                    "ring seeds the initial mode"
                );
                assert!(recent_transitions.len() <= 8);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "injected panic fault")]
    fn injected_panic_panics() {
        let cfg = SystemConfig::baseline().with_injected_fault(crate::FaultKind::Panic);
        let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect("valid config");
        let _ = sys.try_run(1_000).expect("run");
    }

    #[test]
    fn transition_ring_tracks_mode_changes() {
        let mut sys = System::try_new(
            SystemConfig::vsv_with_fsms(),
            Generator::new(memory_bound_params()),
        )
        .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(20_000).expect("run");
        assert!(r.mode.down_transitions > 0, "memory-bound twin must dip");
        // Force a deadlock report and check the ring came along.
        sys.inject_fault = Some(crate::FaultKind::Deadlock);
        let err = sys.try_run(1_000).expect_err("fault armed");
        match err {
            SimError::Deadlock {
                recent_transitions, ..
            } => {
                assert!(
                    recent_transitions.len() >= 2,
                    "a run with mode activity fills the ring: {recent_transitions:?}"
                );
                assert!(recent_transitions.len() <= 8, "ring is bounded");
                for pair in recent_transitions.windows(2) {
                    assert!(pair[0].at_ns <= pair[1].at_ns, "oldest first");
                    assert_ne!(pair[0].mode, pair[1].mode, "entries are transitions");
                }
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn injected_unrecoverable_read_is_typed_and_counts_the_retries() {
        let cfg =
            SystemConfig::vsv_with_fsms().with_injected_fault(crate::FaultKind::UnrecoverableRead);
        let mut sys =
            System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
        sys.set_workload_name("membound");
        let err = sys.try_warm_up(5_000).expect_err("fault armed");
        match &err {
            SimError::UnrecoverableRead {
                workload, retries, ..
            } => {
                assert_eq!(workload, "membound");
                assert_eq!(
                    *retries,
                    vsv_mem::MAX_READ_RETRIES,
                    "the full budget was burned before escalation"
                );
            }
            other => panic!("expected UnrecoverableRead, got {other:?}"),
        }
        assert_eq!(err.kind(), "unrecoverable-read");
    }

    #[test]
    fn error_model_at_vddh_is_bit_identical_to_model_off() {
        // AlwaysHigh never leaves VDDH, where the error probability is
        // exactly 0: the enabled model must not perturb anything even
        // though its draw counter advances on every delivery.
        let run = |rate: f64| {
            let cfg = SystemConfig::with_policy(PolicySpec::AlwaysHigh)
                .with_error_rate(rate)
                .with_error_seed(7);
            let mut sys =
                System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(20_000).expect("run")
        };
        let off = run(0.0);
        let on = run(0.5);
        assert_eq!(off, on, "model-on at VDDH must match model-off exactly");
        assert_eq!(on.read_errors, 0);
    }

    #[test]
    fn slo_outcome_is_reported_and_violations_counted() {
        let cfg = SystemConfig::vsv_with_fsms()
            .with_error_rate(0.02)
            .with_error_seed(11)
            .with_slo(Some(crate::SloSpec::new(0, 0)));
        let mut sys =
            System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(20_000).expect("no escalation at this rate");
        assert!(
            r.read_retries > 0,
            "a memory-bound VSV run at 2% VDDL error rate must retry"
        );
        assert_eq!(r.read_errors, r.read_retries, "no budget exhausted");
        let slo = r.slo.expect("SLO configured");
        assert!(!slo.compliant, "a zero-tolerance SLO must be violated");
        assert!(slo.retry_rate_ppm > 0);
        assert_eq!(sys.window_metrics().get(CounterId::SloViolations), 1);
        assert_eq!(
            sys.window_metrics().get(CounterId::ReadRetries),
            r.read_retries
        );
        // A generous SLO on the same configuration is compliant.
        let cfg_ok = SystemConfig::vsv_with_fsms()
            .with_error_rate(0.02)
            .with_error_seed(11)
            .with_slo(Some(crate::SloSpec::new(1_000_000, 1_000)));
        let mut sys_ok =
            System::try_new(cfg_ok, Generator::new(memory_bound_params())).expect("valid config");
        sys_ok.try_warm_up(5_000).expect("warm-up");
        let r_ok = sys_ok.try_run(20_000).expect("no escalation");
        assert!(r_ok.slo.expect("SLO configured").compliant);
        assert_eq!(sys_ok.window_metrics().get(CounterId::SloViolations), 0);
    }

    #[test]
    fn invalid_error_rate_is_rejected() {
        let cfg = SystemConfig::baseline().with_error_rate(-0.1);
        assert!(cfg.validate().is_err());
        let cfg = SystemConfig::baseline().with_error_rate(1.5);
        assert!(cfg.validate().is_err());
        assert!(SystemConfig::baseline()
            .with_error_rate(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn results_are_deterministic() {
        let run = || {
            let mut sys = System::try_new(
                SystemConfig::vsv_with_fsms(),
                Generator::new(memory_bound_params()),
            )
            .expect("valid config");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(20_000).expect("run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert!((a.energy_pj - b.energy_pj).abs() < 1e-6);
        assert_eq!(a.mode.down_transitions, b.mode.down_transitions);
    }

    #[test]
    fn traffic_completes_requests_under_light_load() {
        let spec = crate::TrafficSpec::poisson(0.05, 2_000).with_seed(3);
        let cfg = SystemConfig::baseline().with_traffic(Some(spec));
        let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(100_000).expect("run");
        assert!(r.requests_arrived > 0, "arrivals expected over 100k insts");
        assert!(
            r.requests_completed > 0,
            "light load on a fast twin must drain: {r}"
        );
        assert!(
            r.request_backlog <= 2,
            "light load must not accumulate a queue: {}",
            r.request_backlog
        );
        assert!(r.request_p50_ns > 0 && r.request_p99_ns >= r.request_p50_ns);
        assert!(r.request_p999_ns >= r.request_p99_ns);
    }

    #[test]
    fn traffic_overload_builds_backlog() {
        // 2 req/µs of 50k-instruction requests vastly exceeds what an
        // 8-wide core can commit: the queue must grow, and latency must
        // be dominated by queueing (p99 far above a lone service time).
        let spec = crate::TrafficSpec::poisson(2.0, 50_000).with_seed(3);
        let cfg = SystemConfig::baseline().with_traffic(Some(spec));
        let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
            .expect("valid config");
        sys.try_warm_up(5_000).expect("warm-up");
        let r = sys.try_run(200_000).expect("run");
        assert!(r.request_backlog > 0, "overload must leave a backlog: {r}");
        assert!(r.requests_arrived > r.requests_completed);
    }

    #[test]
    fn traffic_is_pure_accounting_over_the_simulation() {
        // The request layer observes commits; it must not perturb the
        // simulation itself. Timing, energy, and microarchitectural
        // counters are bit-identical with traffic on or off.
        let run = |traffic: Option<crate::TrafficSpec>| {
            let cfg = SystemConfig::vsv_with_fsms().with_traffic(traffic);
            let mut sys =
                System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(20_000).expect("run")
        };
        let off = run(None);
        let on = run(Some(crate::TrafficSpec::mmpp(
            0.01, 0.2, 4_000, 8_000, 1_000,
        )));
        assert!(on.requests_arrived > 0, "traffic must actually run");
        assert_eq!(off.elapsed_ns, on.elapsed_ns);
        assert_eq!(off.pipeline_cycles, on.pipeline_cycles);
        assert_eq!(off.instructions, on.instructions);
        assert!((off.energy_pj - on.energy_pj).abs() < 1e-9);
        assert_eq!(off.mode, on.mode);
        assert_eq!(off.read_retries, on.read_retries);
    }

    #[test]
    fn traffic_fast_forward_equals_ns_stepping() {
        // Fast-forward capping at the next traffic event must make ff
        // invisible to the request ledger as well as to the core.
        let run = |ff: bool| {
            let spec = crate::TrafficSpec::mmpp(0.02, 0.5, 3_000, 6_000, 1_500).with_seed(9);
            let cfg = SystemConfig::vsv_with_fsms()
                .with_traffic(Some(spec))
                .with_fast_forward(ff);
            let mut sys =
                System::try_new(cfg, Generator::new(memory_bound_params())).expect("valid config");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(30_000).expect("run")
        };
        let stepped = run(false);
        let fast = run(true);
        assert!(fast.requests_arrived > 0, "traffic must actually run");
        assert_eq!(stepped, fast, "ff must not skip or reorder requests");
    }

    #[test]
    fn traffic_slo_ceilings_gate_the_outcome() {
        // An impossible request-latency ceiling flips the verdict even
        // when the reliability half of the SLO is untouched.
        let run = |slo: crate::SloSpec| {
            let spec = crate::TrafficSpec::poisson(0.05, 2_000).with_seed(3);
            let cfg = SystemConfig::baseline()
                .with_traffic(Some(spec))
                .with_slo(Some(slo));
            let mut sys = System::try_new(cfg, Generator::new(WorkloadParams::compute_bound("t")))
                .expect("valid config");
            sys.try_warm_up(5_000).expect("warm-up");
            sys.try_run(100_000).expect("run")
        };
        let strict = run(crate::SloSpec::new(u64::MAX, u64::MAX).with_request_p99(1));
        let slo = strict.slo.expect("SLO configured");
        assert!(!slo.compliant, "1-ns p99 ceiling must be violated");
        assert_eq!(slo.request_p99_ns, Some(strict.request_p99_ns));
        let generous = run(crate::SloSpec::new(u64::MAX, u64::MAX).with_request_p99(u64::MAX - 1));
        assert!(generous.slo.expect("SLO configured").compliant);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::controller::Mode;
    use crate::trace::ModeTrace;
    use vsv_workloads::{Generator, WorkloadParams};

    #[test]
    fn trace_records_modes_and_voltages() {
        let mut p = WorkloadParams::compute_bound("trace");
        p.working_set_bytes = 32 * 1024 * 1024;
        p.far_fraction = 0.25;
        p.miss_dependency = 1.0;
        p.ilp_chains = 1;
        let mut sys = System::try_new(SystemConfig::vsv_with_fsms(), Generator::new(p))
            .expect("valid config");
        let trace = ModeTrace::new(50_000);
        sys.set_event_sink(TraceLevel::Full, Box::new(trace.clone()));
        sys.try_warm_up(5_000).expect("warm-up");
        let _ = sys.try_run(20_000).expect("run");
        assert!(!trace.is_empty());
        let samples = trace.samples();
        let modes: std::collections::HashSet<_> = samples.iter().map(|s| s.mode).collect();
        assert!(modes.contains(&Mode::High));
        assert!(modes.contains(&Mode::Low), "memory-bound run must go low");
        // Voltage is always inside the rail band.
        for s in &samples {
            assert!((1200..=1800).contains(&s.vdd_mv));
        }
        // The strip renders one char per sample.
        assert_eq!(trace.strip().len(), trace.len());
    }

    #[test]
    fn trace_off_by_default_and_disablable() {
        let mut sys = System::try_new(
            SystemConfig::baseline(),
            Generator::new(WorkloadParams::compute_bound("t")),
        )
        .expect("valid config");
        assert!(sys.take_event_sink().is_none());
        let trace = ModeTrace::new(128);
        sys.set_event_sink(TraceLevel::Full, Box::new(trace.clone()));
        let _ = sys.try_run(1_000).expect("run");
        assert!(sys.take_event_sink().is_some());
        assert!(trace.len() <= 128);
        let dropped = trace.dropped();
        let _ = sys.try_run(1_000).expect("run");
        assert_eq!(
            trace.dropped(),
            dropped,
            "take_event_sink turns tracing off"
        );
    }
}
