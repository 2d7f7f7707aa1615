//! The VSV mode controller: the cycle-accurate state machine over
//! power modes and transitions (paper §4, Figures 2 and 3).
//!
//! Timeline of a high→low transition (Figure 2): after the policy
//! decides, the control signal travels 2 ns to the clock-tree root and
//! the slower clock propagates for 2 ns — the processor still runs at
//! full speed and VDDH during these 4 ns — then the 12 ns VDD ramp
//! runs with the processor at half speed and falling voltage.
//!
//! Timeline of a low→high transition (Figure 3): after the policy
//! decides, the control signal travels 2 ns (half speed, VDDL), the
//! 12 ns VDD ramp-up runs at half speed, and the full-speed clock
//! distribution overlaps the ramp's last 2 ns, so full speed resumes
//! exactly when VDDH is reached.
//!
//! *Which* transitions to take is delegated to a [`DvsPolicy`]
//! (selected by [`VsvConfig::policy`]); *how* they unfold — phase
//! boundaries, ramp voltages, the 66 nJ ramp charges — stays here, so
//! every policy pays the same honest circuit costs.
//!
//! # N-level ladders
//!
//! The supply runs on a [`VoltageLadder`]: an ordered set of operating
//! points from VDDH (level 0) down toward VDDL
//! ([`VsvConfig::ladder`]). The paper's two rails are the depth-2
//! ladder and remain a bit-identical special case
//! (`tests/ladder_equivalence.rs`). Transitions always move *one
//! adjacent step* at a time along the Figure 2/3 timeline — control
//! distribution, then a constant-dV/dt ramp sized to the step's
//! voltage swing — and the controller *sequences* multi-step moves:
//! a policy retargets (via [`Decision::Level`]) and the in-flight
//! step completes before the next one starts, so a descent can
//! reverse mid-ramp without ever leaving the timeline. [`Mode::High`]
//! means "settled at level 0", [`Mode::Low`] "settled at any lower
//! level"; clock periods per level come from the calibrated
//! [`VoltageCurve`].

use vsv_mem::VsvSignal;
use vsv_power::{TechParams, VoltageCurve, VoltageLadder, MAX_LADDER_DEPTH};

use crate::fsm::{DownPolicy, UpPolicy};
use crate::policy::{Decision, DvsPolicy, PolicySpec, PolicyStats};
use crate::trace::{vdd_mv, FsmId, TraceEvent, TraceLevel};

/// The controller's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Mode {
    /// Full speed, VDDH — settled at ladder level 0 (the default).
    High,
    /// Slower-clock distribution before a down-step: still at the
    /// departing level's speed and voltage (4 ns when leaving full
    /// speed — 2 ns control + 2 ns clock tree — else 2 ns control
    /// only).
    DownDistribute,
    /// VDD ramping down one ladder step: the destination level's
    /// speed, falling voltage (12 ns for the full 2-rail swing;
    /// proportionally less per ladder step).
    RampDown,
    /// Settled at a reduced rail (any ladder level below 0; VDDL on
    /// the 2-rail ladder). Half speed under the paper's calibration.
    Low,
    /// Control-signal distribution before an up-ramp: half speed,
    /// VDDL for 2 ns.
    UpDistribute,
    /// VDD ramping up: half speed, rising voltage (12 ns, the final
    /// 2 ns overlapped with full-clock distribution).
    RampUp,
}

impl Mode {
    /// All modes, for residency accounting.
    pub const ALL: [Mode; Mode::COUNT] = [
        Mode::High,
        Mode::DownDistribute,
        Mode::RampDown,
        Mode::Low,
        Mode::UpDistribute,
        Mode::RampUp,
    ];

    /// Number of modes (the residency-array length).
    pub const COUNT: usize = 6;

    /// Dense index into residency arrays: the declaration-order
    /// discriminant, which is also the position in [`Mode::ALL`]
    /// (pinned by a compile-time assertion below, so adding a mode
    /// cannot silently desync residency accounting).
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Pipeline clock period in this mode on the paper's 2-rail
    /// ladder, in nanoseconds. Deeper ladders have per-*level*
    /// periods ([`VsvController::current_period_ns`]); this
    /// mode-only view stays exact for depth 2 because every level
    /// below 0 quantizes to the half-speed clock.
    #[must_use]
    pub fn clock_period_ns(self) -> u64 {
        match self {
            Mode::High | Mode::DownDistribute => 1,
            _ => 2,
        }
    }

    /// The one-character rendering used in timeline strips: `H` high,
    /// `d`/`D` down-distribute/ramp-down, `L` low, `u`/`U`
    /// up-distribute/ramp-up.
    #[must_use]
    pub fn strip_char(self) -> char {
        match self {
            Mode::High => 'H',
            Mode::DownDistribute => 'd',
            Mode::RampDown => 'D',
            Mode::Low => 'L',
            Mode::UpDistribute => 'u',
            Mode::RampUp => 'U',
        }
    }
}

// `Mode::ALL` must enumerate every mode in index order.
const _: () = {
    let mut i = 0;
    while i < Mode::COUNT {
        assert!(Mode::ALL[i].index() == i, "Mode::ALL out of index order");
        i += 1;
    }
};

/// VSV configuration: decision policy plus circuit timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsvConfig {
    /// Master switch; `false` models the baseline processor (always
    /// full speed, VDDH).
    pub enabled: bool,
    /// Decision policy (which transitions to take, and when).
    pub policy: PolicySpec,
    /// High→low gating for [`PolicySpec::DualFsm`].
    pub down: DownPolicy,
    /// Low→high gating for [`PolicySpec::DualFsm`].
    pub up: UpPolicy,
    /// Technology constants (voltages, ramp rate, ramp energy).
    pub tech: TechParams,
    /// The supply's operating points (the paper's two rails by
    /// default). Validated against `tech` by
    /// [`crate::SystemConfig::validate`].
    pub ladder: VoltageLadder,
    /// Control-signal distribution latency (paper: 2 ns).
    pub ctrl_distribute_ns: u64,
    /// Clock-tree propagation latency (paper: 2 ns).
    pub clock_tree_ns: u64,
}

impl VsvConfig {
    /// The baseline processor: VSV disabled.
    #[must_use]
    pub fn disabled() -> Self {
        let tech = TechParams::baseline();
        VsvConfig {
            enabled: false,
            policy: PolicySpec::DualFsm,
            down: DownPolicy::default_monitor(),
            up: UpPolicy::default_monitor(),
            ladder: VoltageLadder::paper_rails(&tech),
            tech,
            ctrl_distribute_ns: 2,
            clock_tree_ns: 2,
        }
    }

    /// VSV under a named policy (FSM thresholds and circuit timing at
    /// the defaults): [`PolicySpec::DualFsm`] is the paper's FSMs at
    /// their best thresholds (3/10 down, 3/10 up), and
    /// [`PolicySpec::ImmediateDown`] its FSM-free machine (Figure 4's
    /// white bars).
    #[must_use]
    pub fn with_policy(policy: PolicySpec) -> Self {
        VsvConfig {
            enabled: true,
            policy,
            ..Self::disabled()
        }
    }

    /// The same configuration on `ladder` instead of the 2-rail
    /// default.
    #[must_use]
    pub fn with_ladder(self, ladder: VoltageLadder) -> Self {
        VsvConfig { ladder, ..self }
    }

    /// The same configuration on a uniform `depth`-level ladder
    /// between the technology's rails ([`VoltageLadder::uniform`]).
    #[must_use]
    pub fn with_ladder_depth(self, depth: usize) -> Self {
        let ladder = VoltageLadder::uniform(&self.tech, depth);
        VsvConfig { ladder, ..self }
    }

    /// The full-swing VDD ramp duration (12 ns for the paper's
    /// constants). Per-step ramps on deeper ladders are shorter
    /// ([`VoltageLadder::step_ramp_ns`]).
    #[must_use]
    pub fn ramp_ns(&self) -> u64 {
        self.tech.ramp_time_ns()
    }
}

/// What the system should do at one nanosecond tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickPlan {
    /// Whether a pipeline clock edge fires this nanosecond.
    pub pipeline_edge: bool,
    /// Effective variable-domain supply voltage for the cycle starting
    /// at this edge (the per-cycle average while ramping, §5.2).
    pub vdd: f64,
}

/// Residency and transition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ModeStats {
    /// Nanoseconds spent in each [`Mode`], by [`Mode::index`].
    pub ns_in_mode: [u64; Mode::COUNT],
    /// Downward ladder steps started (on the 2-rail ladder, high→low
    /// transitions).
    pub down_transitions: u64,
    /// Upward ladder steps started (on the 2-rail ladder, low→high
    /// transitions).
    pub up_transitions: u64,
}

impl ModeStats {
    /// Fraction of time in the low-power steady state.
    #[must_use]
    pub fn low_residency(&self) -> f64 {
        let total: u64 = self.ns_in_mode.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.ns_in_mode[Mode::Low.index()] as f64 / total as f64
        }
    }
}

/// The mode controller.
///
/// Drive it with, per nanosecond: [`VsvController::observe`] for each
/// hierarchy signal, then [`VsvController::tick`], then — if the plan
/// says an edge fired — [`VsvController::on_cycle`] with the cycle's
/// issue count. [`VsvController::take_ramps`] reports supply ramps for
/// energy accounting.
#[derive(Debug, Clone)]
pub struct VsvController {
    cfg: VsvConfig,
    mode: Mode,
    /// Last settled ladder level (stays at the departing level while a
    /// step is in flight; updated when the step's ramp completes).
    level: usize,
    /// Destination level of the in-flight step (`level ± 1`); only
    /// meaningful in transition modes.
    step_to: usize,
    /// Level the controller is sequencing toward. Policies retarget
    /// this at any time; steps chain one at a time until
    /// `level == target`.
    target: usize,
    /// Per-level pipeline clock periods, precomputed from the
    /// calibrated [`VoltageCurve`] at construction.
    periods: [u64; MAX_LADDER_DEPTH],
    phase_end: u64,
    ramp_start: u64,
    next_edge: u64,
    policy: Box<dyn DvsPolicy>,
    pending_ramps: u64,
    /// Energy share (fraction of the full-swing 66 nJ) of each ramp
    /// begun since the last drain, in start order.
    pending_ramp_scales: Vec<f64>,
    stats: ModeStats,
    // Structured-trace plumbing (see `crate::trace`). `trace_level`
    // is `None` — and everything below is dormant, costing one branch
    // per tick — unless `crate::System::set_event_sink` turned it on.
    trace_level: Option<TraceLevel>,
    events: Vec<TraceEvent>,
    traced_policy: PolicyStats,
    traced_armed: (bool, bool),
}

impl VsvController {
    /// Creates a controller in the high-power mode (ladder level 0).
    #[must_use]
    pub fn new(cfg: VsvConfig) -> Self {
        let curve = VoltageCurve::from_tech(&cfg.tech);
        let mut periods = [0u64; MAX_LADDER_DEPTH];
        for (k, p) in periods.iter_mut().enumerate().take(cfg.ladder.depth()) {
            *p = curve.clock_period_ns(cfg.ladder.voltage(k));
        }
        VsvController {
            mode: Mode::High,
            level: 0,
            step_to: 0,
            target: 0,
            periods,
            phase_end: 0,
            ramp_start: 0,
            next_edge: 0,
            policy: cfg.policy.build(&cfg),
            pending_ramps: 0,
            pending_ramp_scales: Vec::new(),
            stats: ModeStats::default(),
            trace_level: None,
            events: Vec::new(),
            traced_policy: PolicyStats::default(),
            traced_armed: (false, false),
            cfg,
        }
    }

    /// Turns structured event emission on (at `level`, with `now` the
    /// current simulated time) or off. Events accumulate in an
    /// internal buffer the owner drains with
    /// [`VsvController::drain_trace_events`]; turning tracing on
    /// re-baselines the FSM fire/expiry diffing so only activity after
    /// this call is reported, and seeds the stream with a
    /// [`TraceEvent::ModeEntered`] for the current mode so consumers
    /// can reconstruct residency from the first event.
    pub fn set_tracing(&mut self, level: Option<TraceLevel>, now: u64) {
        self.trace_level = level;
        self.events.clear();
        self.traced_policy = self.policy.stats();
        self.traced_armed = self.policy.armed();
        if level.is_some() {
            self.events.push(TraceEvent::ModeEntered {
                at: now,
                mode: self.mode,
                vdd_mv: self.mode_entry_mv(self.mode),
            });
        }
    }

    /// The structured-trace level in force, if tracing is on.
    #[must_use]
    pub fn trace_level(&self) -> Option<TraceLevel> {
        self.trace_level
    }

    /// Drains the buffered structured events (oldest first).
    pub fn drain_trace_events(&mut self) -> std::vec::Drain<'_, TraceEvent> {
        self.events.drain(..)
    }

    /// Whether any structured events are buffered.
    #[must_use]
    pub fn has_trace_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// The supply rail (mV) a mode starts at: the rail of the last
    /// settled ladder level. A step's distribute and ramp phases start
    /// at the departing level's rail; completions update `level`
    /// before the event is stamped, so settle events carry the
    /// arrival rail. On the 2-rail ladder this reproduces the old
    /// VDDH-for-the-high-side / VDDL-for-the-low-side rule exactly.
    fn mode_entry_mv(&self, _mode: Mode) -> u32 {
        vdd_mv(self.cfg.ladder.voltage(self.level))
    }

    /// Emits FSM fire/expiry/arm events by diffing the policy's
    /// cumulative [`PolicyStats`] (and armed flags) against the last
    /// synced snapshot — so every policy gets FSM-level tracing
    /// without implementing any trace hook. Called after each policy
    /// invocation while tracing at [`TraceLevel::Events`] or above.
    fn sync_policy_trace(&mut self, at: u64) {
        if self.trace_level >= Some(TraceLevel::Events) {
            self.emit_policy_trace(at);
        }
    }

    fn emit_policy_trace(&mut self, at: u64) {
        let armed = self.policy.armed();
        if armed.0 && !self.traced_armed.0 {
            self.events.push(TraceEvent::FsmArmed {
                at,
                fsm: FsmId::Down,
            });
        }
        if armed.1 && !self.traced_armed.1 {
            self.events
                .push(TraceEvent::FsmArmed { at, fsm: FsmId::Up });
        }
        self.traced_armed = armed;
        let stats = self.policy.stats();
        let deltas = [
            (
                stats.down_triggers - self.traced_policy.down_triggers,
                true,
                FsmId::Down,
            ),
            (
                stats.down_expiries - self.traced_policy.down_expiries,
                false,
                FsmId::Down,
            ),
            (
                stats.up_triggers - self.traced_policy.up_triggers,
                true,
                FsmId::Up,
            ),
            (
                stats.up_expiries - self.traced_policy.up_expiries,
                false,
                FsmId::Up,
            ),
        ];
        for (n, fired, fsm) in deltas {
            for _ in 0..n {
                self.events.push(if fired {
                    TraceEvent::FsmFired { at, fsm }
                } else {
                    TraceEvent::FsmExpired { at, fsm }
                });
            }
        }
        for _ in 0..stats.backoff_engagements - self.traced_policy.backoff_engagements {
            self.events.push(TraceEvent::BackoffEngaged { at });
        }
        self.traced_policy = stats;
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &VsvConfig {
        &self.cfg
    }

    /// The current mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The last settled ladder level (0 = VDDH). While a step is in
    /// flight this is still the departing level.
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// The pipeline clock period (ns) in force right now: the current
    /// level's period in steady and distribute modes, the destination
    /// level's during a down-ramp (the slower clock was distributed
    /// first, Figure 2), the departing level's during an up-ramp
    /// (full speed resumes only at VDDH, Figure 3). Reduces to
    /// [`Mode::clock_period_ns`] on the 2-rail ladder.
    #[must_use]
    pub fn current_period_ns(&self) -> u64 {
        match self.mode {
            Mode::High | Mode::Low | Mode::DownDistribute | Mode::UpDistribute => {
                self.periods[self.level]
            }
            Mode::RampDown => self.periods[self.step_to],
            Mode::RampUp => self.periods[self.level],
        }
    }

    /// Residency/transition counters.
    #[must_use]
    pub fn stats(&self) -> ModeStats {
        self.stats
    }

    /// The policy's trigger/decline counters.
    #[must_use]
    pub fn policy_stats(&self) -> PolicyStats {
        self.policy.stats()
    }

    /// The active policy's stable name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Consumes an L2 signal from the hierarchy, forwarding it to the
    /// policy.
    pub fn observe(&mut self, sig: &VsvSignal) {
        // Miss traffic is traced even with DVS disabled, so baseline
        // traces show the same L2 activity a VSV run would react to.
        if self.trace_level >= Some(TraceLevel::Events) {
            self.events.push(match *sig {
                VsvSignal::L2MissDetected {
                    demand,
                    at,
                    earliest_return,
                } => TraceEvent::MissDetected {
                    at,
                    demand,
                    earliest_return,
                },
                VsvSignal::L2MissReturned {
                    demand,
                    at,
                    outstanding_demand,
                } => TraceEvent::MissReturned {
                    at,
                    demand,
                    outstanding_demand: outstanding_demand as u64,
                },
            });
        }
        if !self.cfg.enabled {
            return;
        }
        let at = sig.at();
        let d = self.policy.on_signal(sig, self.mode);
        self.sync_policy_trace(at);
        self.apply(d, at);
    }

    /// Reports one low-voltage read retry to the policy (see
    /// [`DvsPolicy::on_read_retry`]). Error-aware policies use the
    /// retry stream to engage graceful degradation; every other policy
    /// inherits the default no-op, so runs without the error model —
    /// which never call this — are untouched.
    pub fn on_read_retry(&mut self, now: u64) {
        if !self.cfg.enabled {
            return;
        }
        let d = self.policy.on_read_retry(now);
        self.sync_policy_trace(now);
        self.apply(d, now);
    }

    /// Advances the controller to nanosecond `now` and plans the tick.
    /// `outstanding_demand` is the hierarchy's count of in-flight L2
    /// demand misses (forwarded to the policy).
    pub fn tick(&mut self, now: u64, outstanding_demand: usize) -> TickPlan {
        // Phase boundaries.
        let mut entered = None;
        while self.mode != Mode::High && self.mode != Mode::Low && now >= self.phase_end {
            let boundary = self.phase_end;
            match self.mode {
                Mode::DownDistribute => self.enter_ramp(Mode::RampDown, boundary),
                Mode::UpDistribute => self.enter_ramp(Mode::RampUp, boundary),
                Mode::RampDown | Mode::RampUp => {
                    // The step settles: the destination level becomes
                    // current before the event is stamped, so the
                    // settle event carries the arrival rail.
                    self.level = self.step_to;
                    self.mode = if self.level == 0 {
                        Mode::High
                    } else {
                        Mode::Low
                    };
                    entered = Some(self.mode);
                }
                Mode::High | Mode::Low => unreachable!("loop guard"),
            }
            if self.trace_level.is_some() {
                self.events.push(TraceEvent::ModeEntered {
                    at: boundary,
                    mode: self.mode,
                    vdd_mv: self.mode_entry_mv(self.mode),
                });
            }
        }

        if self.cfg.enabled {
            if let Some(m) = entered {
                self.policy.on_level(self.level);
                let d = self.policy.on_mode_entered(m, now, outstanding_demand);
                self.sync_policy_trace(now);
                self.apply(d, now);
            }
            if matches!(self.mode, Mode::High | Mode::Low) {
                let d = self.policy.on_tick(now, outstanding_demand, self.mode);
                self.sync_policy_trace(now);
                self.apply(d, now);
            }
            // Multi-step sequencing: if the policy's hooks left us
            // settled short of the target, chain the next step now —
            // the same tick the previous one completed on. A chained
            // step is the continuation of a decision that was already
            // distributed while the previous step was in flight, so it
            // skips the control latency (a fresh policy decision pays
            // it; see `start_down_step`/`start_up_step`).
            if matches!(self.mode, Mode::High | Mode::Low) && self.target != self.level {
                if self.target > self.level {
                    self.start_down_step(now, true);
                } else {
                    self.start_up_step(now, true);
                }
            }
        }

        self.stats.ns_in_mode[self.mode.index()] += 1;

        let pipeline_edge = now >= self.next_edge;
        if pipeline_edge {
            self.next_edge = now + self.current_period_ns();
        }
        TickPlan {
            pipeline_edge,
            vdd: self.cycle_voltage(now),
        }
    }

    /// Feeds the issue count of the pipeline cycle that just ran
    /// (only meaningful on edge ticks). May start a transition.
    pub fn on_cycle(&mut self, now: u64, issued: u32) {
        if !self.cfg.enabled {
            return;
        }
        if matches!(self.mode, Mode::High | Mode::Low) {
            let d = self.policy.on_cycle(issued, self.mode);
            self.sync_policy_trace(now);
            self.apply(d, now);
        }
    }

    /// Takes the number of supply ramps begun since the last call.
    /// Energy accounting should use
    /// [`VsvController::drain_ramp_scales`] instead, which also
    /// reports each ramp's share of the full-swing charge.
    pub fn take_ramps(&mut self) -> u64 {
        std::mem::take(&mut self.pending_ramps)
    }

    /// Drains the energy share (fraction of the full-swing 66 nJ
    /// charge; `1.0` per ramp on the 2-rail ladder) of every supply
    /// ramp begun since the last call, in start order.
    pub fn drain_ramp_scales(&mut self, mut f: impl FnMut(f64)) {
        for scale in self.pending_ramp_scales.drain(..) {
            f(scale);
        }
    }

    /// The time (ns) of the next pipeline clock edge.
    #[must_use]
    pub fn next_edge(&self) -> u64 {
        self.next_edge
    }

    /// Whether a window of zero-issue, signal-free nanoseconds may be
    /// batch-applied via [`VsvController::skip_quiescent`] without
    /// changing any observable behaviour. True exactly when every
    /// per-nanosecond [`VsvController::tick`] /
    /// [`VsvController::on_cycle`] pair in such a window reduces to
    /// counter updates:
    ///
    /// * disabled controller: always (the mode is pinned to
    ///   [`Mode::High`] and `on_cycle` is a no-op);
    /// * steady modes: the policy's [`DvsPolicy::idle_skip_allowed`]
    ///   verdict;
    /// * any transition mode: never (phase boundaries and ramp
    ///   voltages are per-nanosecond affairs).
    #[must_use]
    pub fn quiescent_skip_allowed(&self, outstanding_demand: usize) -> bool {
        if !self.cfg.enabled {
            return true;
        }
        match self.mode {
            Mode::High | Mode::Low => self.policy.idle_skip_allowed(self.mode, outstanding_demand),
            _ => false,
        }
    }

    /// Batch-applies `ns` nanoseconds starting at `from`, each of which
    /// would have been a zero-issue, signal-free tick (the caller must
    /// have checked [`VsvController::quiescent_skip_allowed`]). Updates
    /// mode residency, the edge schedule and the policy exactly as the
    /// per-nanosecond path would, and returns the number of pipeline
    /// edges in the window together with the (constant) effective
    /// supply voltage.
    pub fn skip_quiescent(&mut self, from: u64, ns: u64) -> (u64, f64) {
        debug_assert!(
            matches!(self.mode, Mode::High | Mode::Low),
            "skip in a transition mode"
        );
        debug_assert!(self.next_edge >= from, "edge schedule in the past");
        let period = self.current_period_ns();
        let end = from + ns;
        // Edges fire at next_edge, next_edge + period, ... < end.
        let edges = if self.next_edge >= end {
            0
        } else {
            (end - 1 - self.next_edge) / period + 1
        };
        self.stats.ns_in_mode[self.mode.index()] += ns;
        self.next_edge += edges * period;
        if self.cfg.enabled {
            self.policy.skip_idle_cycles(edges, self.mode);
            // FSM windows that expired inside the batch are stamped at
            // the batch end (the intra-window time is not observable).
            self.sync_policy_trace(from + ns);
        }
        (edges, self.cycle_voltage(from))
    }

    // ---- internals -------------------------------------------------

    /// The in-flight step's higher (shallower) endpoint — the step
    /// index into the ladder's per-step geometry.
    fn step_index(&self) -> usize {
        self.level.min(self.step_to)
    }

    /// The in-flight step's ramp duration (the full 12 ns on the
    /// 2-rail ladder; proportionally less per step on deeper ones).
    fn step_ramp_ns(&self) -> u64 {
        self.cfg
            .ladder
            .step_ramp_ns(self.step_index(), &self.cfg.tech)
    }

    /// The in-flight step's share of the full-swing ramp charge.
    fn step_energy_scale(&self) -> f64 {
        self.cfg
            .ladder
            .step_energy_scale(self.step_index(), &self.cfg.tech)
    }

    /// Applies a policy decision. In a steady mode the decision
    /// resolves to a target level (clamped to the ladder bottom) and
    /// the first step toward it starts immediately; mid-transition,
    /// only [`Decision::Level`] is meaningful — it *retargets* the
    /// sequencer (the in-flight step completes, then chains toward
    /// the new target: reversal mid-ramp), while the relative
    /// [`Decision::RampDown`] / [`Decision::RampUp`] are dropped
    /// exactly as before.
    fn apply(&mut self, decision: Decision, at: u64) {
        let steady = matches!(self.mode, Mode::High | Mode::Low);
        let desired = match decision {
            Decision::Hold => return,
            Decision::RampDown if steady => self.level + 1,
            Decision::RampUp if steady => 0,
            Decision::Level(l) => l as usize,
            Decision::RampDown | Decision::RampUp => return,
        };
        self.target = desired.min(self.cfg.ladder.bottom());
        if steady {
            if self.target > self.level {
                self.start_down_step(at, false);
            } else if self.target < self.level {
                self.start_up_step(at, false);
            }
        }
    }

    /// Enters a ramp phase at `at`: books the phase boundary and the
    /// ramp's energy accounting.
    fn enter_ramp(&mut self, mode: Mode, at: u64) {
        self.mode = mode;
        self.ramp_start = at;
        self.phase_end = at + self.step_ramp_ns();
        self.pending_ramps += 1;
        self.pending_ramp_scales.push(self.step_energy_scale());
    }

    /// Starts the one-level step down from the settled `level`
    /// (Figure 2 timeline). Leaving full speed pays control + clock
    /// tree distribution; steps between already-slow levels pay only
    /// the control latency (no clock retiming is needed when the
    /// quantized period does not change). A `chained` step — the
    /// sequencer continuing a decision distributed while the previous
    /// step was in flight — skips the control latency too, and with
    /// nothing left to distribute enters its ramp directly.
    fn start_down_step(&mut self, now: u64, chained: bool) {
        debug_assert!(matches!(self.mode, Mode::High | Mode::Low));
        debug_assert!(self.level < self.cfg.ladder.bottom());
        self.step_to = self.level + 1;
        let retime = if self.periods[self.level] == self.periods[self.step_to] {
            0
        } else {
            self.cfg.clock_tree_ns
        };
        let latency = if chained {
            retime
        } else {
            self.cfg.ctrl_distribute_ns + retime
        };
        self.stats.down_transitions += 1;
        self.policy.on_transition_start();
        if latency > 0 {
            self.mode = Mode::DownDistribute;
            self.phase_end = now + latency;
        } else {
            self.enter_ramp(Mode::RampDown, now);
        }
        if self.trace_level.is_some() {
            self.events.push(TraceEvent::ModeEntered {
                at: now,
                mode: self.mode,
                vdd_mv: self.mode_entry_mv(self.mode),
            });
        }
    }

    /// Starts the one-level step up from the settled `level` (Figure 3
    /// timeline: the faster clock's distribution overlaps the ramp's
    /// tail, so only the control latency precedes the ramp). A
    /// `chained` continuation step has already had its decision
    /// distributed and enters the ramp directly.
    fn start_up_step(&mut self, now: u64, chained: bool) {
        debug_assert!(matches!(self.mode, Mode::High | Mode::Low));
        debug_assert!(self.level > 0);
        self.step_to = self.level - 1;
        self.stats.up_transitions += 1;
        self.policy.on_transition_start();
        if chained {
            self.enter_ramp(Mode::RampUp, now);
        } else {
            self.mode = Mode::UpDistribute;
            self.phase_end = now + self.cfg.ctrl_distribute_ns;
        }
        if self.trace_level.is_some() {
            self.events.push(TraceEvent::ModeEntered {
                at: now,
                mode: self.mode,
                vdd_mv: self.mode_entry_mv(self.mode),
            });
        }
    }

    /// The per-cycle effective voltage at `now` (§5.2: the average of
    /// the supply at the beginning and end of the cycle while
    /// ramping). Steady and distribute modes sit on the settled
    /// level's rail; ramps interpolate between the step's endpoints.
    fn cycle_voltage(&self, now: u64) -> f64 {
        let lad = &self.cfg.ladder;
        match self.mode {
            Mode::High | Mode::Low | Mode::DownDistribute | Mode::UpDistribute => {
                lad.voltage(self.level)
            }
            Mode::RampDown | Mode::RampUp => {
                let ramp = self.step_ramp_ns() as f64;
                let mid = (now - self.ramp_start) as f64 + 1.0;
                self.cfg.tech.ramp_voltage(
                    lad.voltage(self.level),
                    lad.voltage(self.step_to),
                    mid / ramp,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_index_matches_all_ordering() {
        for (i, m) in Mode::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?}");
        }
    }

    fn detected(at: u64) -> VsvSignal {
        VsvSignal::L2MissDetected {
            demand: true,
            at,
            earliest_return: None,
        }
    }

    fn returned(at: u64, outstanding: usize) -> VsvSignal {
        VsvSignal::L2MissReturned {
            demand: true,
            at,
            outstanding_demand: outstanding,
        }
    }

    /// Drives `ctrl` for `ns` ticks with a fixed issue rate and a fixed
    /// outstanding-miss count; returns the modes seen.
    fn drive(
        ctrl: &mut VsvController,
        from: u64,
        ns: u64,
        issued: u32,
        outstanding: usize,
    ) -> Vec<Mode> {
        let mut modes = Vec::new();
        for now in from..from + ns {
            let plan = ctrl.tick(now, outstanding);
            modes.push(ctrl.mode());
            if plan.pipeline_edge {
                ctrl.on_cycle(now, issued);
            }
        }
        modes
    }

    #[test]
    fn disabled_controller_never_leaves_high() {
        let mut c = VsvController::new(VsvConfig::disabled());
        c.observe(&detected(5));
        let modes = drive(&mut c, 0, 100, 0, 3);
        assert!(modes.iter().all(|m| *m == Mode::High));
        assert_eq!(c.take_ramps(), 0);
    }

    #[test]
    fn immediate_policy_walks_the_figure2_timeline() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(10));
        // Next edge triggers the transition: 4 ns distribute at full
        // speed, then 12 ns ramp at half speed, then low.
        let modes = drive(&mut c, 10, 20, 0, 1);
        assert_eq!(modes[0], Mode::High); // the triggering cycle itself
        assert_eq!(modes[1], Mode::DownDistribute);
        assert_eq!(modes[3], Mode::DownDistribute); // 4 ns of distribution
        assert_eq!(modes[4], Mode::RampDown);
        assert_eq!(modes[15], Mode::RampDown); // 12 ns of ramp
        assert_eq!(modes[16], Mode::Low);
        assert_eq!(c.take_ramps(), 1);
        assert_eq!(c.stats().down_transitions, 1);
    }

    #[test]
    fn edges_halve_in_low_mode() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(0));
        // Run well into low mode.
        drive(&mut c, 0, 40, 0, 1);
        assert_eq!(c.mode(), Mode::Low);
        // Count edges over 20 ns of low mode.
        let mut edges = 0;
        for now in 40..60 {
            if c.tick(now, 1).pipeline_edge {
                edges += 1;
                c.on_cycle(now, 0);
            }
        }
        assert_eq!(edges, 10, "half-speed clock: one edge per 2 ns");
    }

    #[test]
    fn up_transition_follows_figure3_timeline() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(0));
        drive(&mut c, 0, 40, 0, 1);
        assert_eq!(c.mode(), Mode::Low);
        // The miss returns (sole outstanding): 2 ns distribute + 12 ns
        // ramp, then High.
        c.observe(&returned(40, 0));
        let modes = drive(&mut c, 40, 16, 0, 0);
        assert_eq!(modes[0], Mode::UpDistribute);
        assert_eq!(modes[1], Mode::UpDistribute);
        assert_eq!(modes[2], Mode::RampUp);
        assert_eq!(modes[13], Mode::RampUp);
        assert_eq!(modes[14], Mode::High);
        assert_eq!(c.stats().up_transitions, 1);
        assert_eq!(c.take_ramps(), 2, "one down-ramp + one up-ramp");
    }

    #[test]
    fn fsm_blocks_down_when_ilp_high() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::DualFsm));
        c.observe(&detected(0));
        // Pipeline keeps issuing 4/cycle: window expires, stays High.
        let modes = drive(&mut c, 0, 30, 4, 1);
        assert!(modes.iter().all(|m| *m == Mode::High));
        // The level-triggered miss signal keeps the window refreshed
        // while the miss is outstanding, so it does not expire — but
        // a busy pipeline must never trigger it either.
        assert_eq!(c.policy_stats().down_triggers, 0);
        assert_eq!(c.stats().down_transitions, 0);
        // Once the miss returns (signal de-asserts), the window runs
        // out and expires without triggering.
        drive(&mut c, 30, 15, 4, 0);
        assert_eq!(c.policy_stats().down_expiries, 1);
    }

    #[test]
    fn fsm_allows_down_when_pipeline_idles() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::DualFsm));
        c.observe(&detected(0));
        let modes = drive(&mut c, 0, 30, 0, 1);
        assert!(modes.contains(&Mode::Low), "idle pipeline must go low");
    }

    #[test]
    fn voltage_profile_during_ramp() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(0));
        let mut vs = Vec::new();
        for now in 0..40 {
            let plan = c.tick(now, 1);
            if plan.pipeline_edge {
                c.on_cycle(now, 0);
            }
            vs.push((c.mode(), plan.vdd));
        }
        // VDDH before/through distribution, monotone fall through the
        // ramp, VDDL in low mode.
        for (m, v) in &vs {
            match m {
                Mode::High | Mode::DownDistribute => assert!((*v - 1.8).abs() < 1e-9),
                Mode::Low => assert!((*v - 1.2).abs() < 1e-9),
                Mode::RampDown => assert!(*v < 1.8 + 1e-9 && *v > 1.2 - 1e-9),
                _ => {}
            }
        }
        let ramp_vs: Vec<f64> = vs
            .iter()
            .filter(|(m, _)| *m == Mode::RampDown)
            .map(|(_, v)| *v)
            .collect();
        assert!(ramp_vs.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn all_returned_during_rampdown_bounces_back_up() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(0));
        drive(&mut c, 0, 20, 0, 1); // into RampDown / Low
                                    // Now the hierarchy reports nothing outstanding: the controller
                                    // must not camp in low-power mode.
        let modes = drive(&mut c, 20, 40, 0, 0);
        assert_eq!(*modes.last().unwrap(), Mode::High);
    }

    #[test]
    fn prefetch_misses_never_arm() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&VsvSignal::L2MissDetected {
            demand: false,
            at: 0,
            earliest_return: None,
        });
        let modes = drive(&mut c, 0, 30, 0, 1);
        assert!(modes.iter().all(|m| *m == Mode::High));
    }

    #[test]
    fn up_fsm_holds_low_with_multiple_outstanding_and_no_ilp() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::DualFsm));
        c.observe(&detected(0));
        drive(&mut c, 0, 40, 0, 2);
        assert_eq!(c.mode(), Mode::Low);
        // A return leaves one more outstanding; pipeline stays idle:
        // the monitor expires and we stay low (saving power).
        c.observe(&returned(40, 1));
        let modes = drive(&mut c, 40, 40, 0, 1);
        assert!(modes.iter().all(|m| *m == Mode::Low));
        assert_eq!(c.policy_stats().up_expiries, 1);
    }

    #[test]
    fn up_fsm_ramps_up_when_ilp_returns() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::DualFsm));
        c.observe(&detected(0));
        drive(&mut c, 0, 40, 0, 2);
        c.observe(&returned(40, 1));
        // Pipeline starts issuing: 3 consecutive half-speed cycles.
        let modes = drive(&mut c, 40, 30, 2, 1);
        assert!(modes.contains(&Mode::UpDistribute));
        assert_eq!(*modes.last().unwrap(), Mode::High);
    }

    #[test]
    fn residency_accounting_sums_to_elapsed() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::ImmediateDown));
        c.observe(&detected(0));
        drive(&mut c, 0, 100, 0, 1);
        let total: u64 = c.stats().ns_in_mode.iter().sum();
        assert_eq!(total, 100);
        assert!(c.stats().low_residency() > 0.5);
    }

    #[test]
    fn oracle_policy_ignores_unprovable_misses_and_takes_long_ones() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::OracleDown));
        // No scheduled return known: the oracle declines every stall
        // cycle.
        c.observe(&detected(0));
        let modes = drive(&mut c, 0, 30, 0, 1);
        assert!(modes.iter().all(|m| *m == Mode::High));
        assert_eq!(c.policy_stats().down_triggers, 0);
        // A return provably beyond the 30 ns round trip: dive at once.
        c.observe(&VsvSignal::L2MissDetected {
            demand: true,
            at: 30,
            earliest_return: Some(200),
        });
        let modes = drive(&mut c, 30, 30, 0, 1);
        assert_eq!(*modes.last().unwrap(), Mode::Low);
        assert_eq!(c.policy_stats().down_triggers, 1);
    }

    #[test]
    fn always_low_policy_camps_low_even_with_nothing_outstanding() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::AlwaysLow));
        let modes = drive(&mut c, 0, 60, 4, 0);
        assert_eq!(modes[0], Mode::DownDistribute, "dives on the first tick");
        assert_eq!(*modes.last().unwrap(), Mode::Low);
        assert_eq!(c.stats().down_transitions, 1);
        assert_eq!(c.stats().up_transitions, 0);
    }

    #[test]
    fn always_high_policy_never_transitions() {
        let mut c = VsvController::new(VsvConfig::with_policy(PolicySpec::AlwaysHigh));
        c.observe(&detected(0));
        c.observe(&VsvSignal::L2MissDetected {
            demand: true,
            at: 1,
            earliest_return: Some(1000),
        });
        let modes = drive(&mut c, 0, 50, 0, 2);
        assert!(modes.iter().all(|m| *m == Mode::High));
        assert_eq!(c.take_ramps(), 0);
        assert_eq!(c.policy_stats(), PolicyStats::default());
    }
}
