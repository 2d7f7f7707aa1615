//! Pluggable DVS decision policies behind the [`DvsPolicy`] trait.
//!
//! The paper's contribution is one *point* in the DVS-policy design
//! space: issue-rate-monitoring dual FSMs (§4.2/§4.4). This module
//! makes that space explorable. A policy observes per-cycle evidence —
//! L2 miss signals, issue counts, the outstanding-miss count, the
//! current [`Mode`] — and emits [`Decision`]s; the
//! [`crate::VsvController`] keeps sole ownership of the circuit-level
//! transition timeline (2 ns control + 2 ns clock-tree distribution,
//! 12 ns supply ramps, the 66 nJ per-ramp charge), so every policy
//! pays honest transition costs.
//!
//! Five policies are built in, selectable by [`PolicySpec`]:
//!
//! | name             | down on                         | up on |
//! |------------------|---------------------------------|-------|
//! | `dual-fsm`       | zero-issue run after a miss     | issuing run / sole return |
//! | `always-high`    | never                           | — |
//! | `always-low`     | immediately, unconditionally    | never |
//! | `immediate-down` | every detected demand miss      | first return |
//! | `oracle-down`    | miss whose stall provably       | last return |
//! |                  | outlasts the round trip         |       |
//!
//! `dual-fsm` is the default and is bit-identical to the pre-policy
//! controller (`tests/policy_equivalence.rs` pins this).
//! `always-high` is the no-DVS control, `always-low` the static
//! low-voltage floor, `immediate-down` the naive scheme the FSMs
//! exist to beat, and `oracle-down` an upper bound that reads the
//! simulator's scheduled miss-return times — knowledge no hardware
//! policy has.

use vsv_mem::VsvSignal;

use crate::controller::Mode;
use crate::fsm::{DownFsm, DownPolicy, UpFsm, UpPolicy};

/// What a policy wants the controller to do right now. Steady-mode
/// decisions are applied immediately ([`Decision::RampDown`] /
/// [`Decision::RampUp`] move one ladder step, [`Decision::Level`]
/// retargets an absolute level and the controller sequences the
/// steps); a non-[`Decision::Hold`] decision arriving mid-transition
/// only *retargets* — the in-flight step completes, then the
/// controller chains toward the new target (reversal mid-ramp).
/// Policies need not track transition phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Decision {
    /// Stay on the current trajectory.
    #[default]
    Hold,
    /// Step one ladder level down (the full high→low transition on
    /// the paper's 2-rail ladder; Figure 2 timeline).
    RampDown,
    /// Return to level 0 (the low→high transition on the 2-rail
    /// ladder; Figure 3 timeline).
    RampUp,
    /// Target an absolute ladder level (0 = VDDH; clamped to the
    /// ladder bottom). `Level(0)` is equivalent to
    /// [`Decision::RampUp`]; on a 2-rail ladder `Level(1)` is
    /// equivalent to [`Decision::RampDown`].
    Level(u8),
}

/// Trigger/decline counters every policy reports, mirroring the dual
/// FSMs' bookkeeping so [`crate::RunResult`] keeps its shape across
/// policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Ramp-down decisions emitted.
    pub down_triggers: u64,
    /// Ramp-down opportunities examined and declined (for `dual-fsm`:
    /// monitoring windows that expired on a busy pipeline).
    pub down_expiries: u64,
    /// Ramp-up decisions emitted.
    pub up_triggers: u64,
    /// Ramp-up opportunities examined and declined (for `dual-fsm`:
    /// windows that expired on an idle pipeline).
    pub up_expiries: u64,
    /// Times `error-backoff` engaged (retry rate crossed its
    /// threshold); 0 for every other policy.
    pub backoff_engagements: u64,
    /// Ramp-down decisions `error-backoff` vetoed while engaged; 0
    /// for every other policy.
    pub backoff_vetoes: u64,
}

/// A DVS decision policy.
///
/// The controller drives a policy with, per nanosecond: one
/// [`DvsPolicy::on_signal`] call per hierarchy signal, one
/// [`DvsPolicy::on_tick`] while in a steady mode, and — on pipeline
/// clock edges — one [`DvsPolicy::on_cycle`] with the cycle's issue
/// count. [`DvsPolicy::on_mode_entered`] fires when a transition
/// completes. Policies must be deterministic: decisions may depend
/// only on the evidence fed through these hooks.
pub trait DvsPolicy: std::fmt::Debug + Send {
    /// Stable policy name (the `--policy` spelling).
    fn name(&self) -> &'static str;

    /// Consumes one L2 signal from the hierarchy. `at` inside the
    /// signal is the decision time the controller will apply any
    /// returned transition at.
    fn on_signal(&mut self, sig: &VsvSignal, mode: Mode) -> Decision;

    /// One nanosecond in a steady mode ([`Mode::High`] or
    /// [`Mode::Low`]; the controller owns transition phases).
    fn on_tick(&mut self, now: u64, outstanding_demand: usize, mode: Mode) -> Decision;

    /// The issue count of the pipeline cycle that just ran (edge
    /// ticks only, steady modes only).
    fn on_cycle(&mut self, issued: u32, mode: Mode) -> Decision;

    /// A transition completed and `mode` (always a steady mode) was
    /// entered at time `now` with `outstanding_demand` misses still
    /// in flight.
    fn on_mode_entered(&mut self, mode: Mode, now: u64, outstanding_demand: usize) -> Decision;

    /// A transition is starting (the controller accepted a decision).
    /// Policies drop any armed monitors here — evidence gathered in
    /// the old mode does not carry across a transition.
    fn on_transition_start(&mut self) {}

    /// A low-voltage read error triggered a retry at time `now` (one
    /// call per retry the hierarchy issues). Error-aware policies
    /// ([`ErrorBackoffPolicy`]) monitor the rate here; every other
    /// policy keeps the default no-op.
    fn on_read_retry(&mut self, now: u64) -> Decision {
        let _ = now;
        Decision::Hold
    }

    /// The supply settled at ladder `level` (0 = VDDH). Fires on every
    /// completed ramp step, just before the accompanying
    /// [`DvsPolicy::on_mode_entered`]. Ladder-aware policies track
    /// their position here; mode-only policies keep the default no-op.
    fn on_level(&mut self, level: usize) {
        let _ = level;
    }

    /// Whether a window of zero-issue, signal-free nanoseconds in
    /// `mode` may be batch-applied without consulting the policy per
    /// nanosecond — true exactly when every [`DvsPolicy::on_tick`] /
    /// [`DvsPolicy::on_cycle`] pair in such a window would return
    /// [`Decision::Hold`] and mutate nothing beyond what
    /// [`DvsPolicy::skip_idle_cycles`] batch-applies. Powers the
    /// quiescent-stall fast-forward; `tests/policy_equivalence.rs`
    /// cross-checks it against the stepped path for every built-in.
    fn idle_skip_allowed(&self, mode: Mode, outstanding_demand: usize) -> bool;

    /// Batch-applies `edges` idle (zero-issue) pipeline cycles in
    /// `mode` — the bulk counterpart of that many
    /// `on_cycle(0, mode)` calls (the caller has checked
    /// [`DvsPolicy::idle_skip_allowed`]).
    fn skip_idle_cycles(&mut self, edges: u64, mode: Mode) {
        let _ = (edges, mode);
    }

    /// Cumulative trigger/decline counters.
    fn stats(&self) -> PolicyStats;

    /// Whether the policy's (down, up) evidence monitors are currently
    /// armed — i.e. mid-window, gathering evidence toward a trigger.
    /// Structured tracing diffs this to emit
    /// [`crate::trace::TraceEvent::FsmArmed`]; policies without an
    /// arm/fire shape keep the default `(false, false)`.
    fn armed(&self) -> (bool, bool) {
        (false, false)
    }

    /// Clones the policy with its current state (the controller is
    /// [`Clone`]).
    fn clone_box(&self) -> Box<dyn DvsPolicy>;
}

impl Clone for Box<dyn DvsPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Selector for the built-in policies — the [`Copy`] handle that
/// travels through [`crate::SystemConfig`], sweep grids, and report
/// schemas. [`crate::VsvConfig::policy`] holds one;
/// [`PolicySpec::build`] instantiates the live policy at controller
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicySpec {
    /// The paper's dual issue-rate-monitoring FSMs (the default),
    /// parameterized by [`crate::VsvConfig::down`] /
    /// [`crate::VsvConfig::up`].
    #[default]
    DualFsm,
    /// Never leave [`Mode::High`]: the no-DVS baseline with the
    /// controller enabled (pins the policy layer's overhead to zero).
    AlwaysHigh,
    /// Ramp down immediately and never come back up: the static
    /// low-voltage floor.
    AlwaysLow,
    /// Ramp down on every detected demand miss, up on the first
    /// return — the paper's "without FSMs" scheme as a named policy.
    ImmediateDown,
    /// Ramp down only when the simulator's scheduled return time
    /// proves the stall outlasts the round-trip transition cost; ramp
    /// up when the last miss returns. An upper bound on achievable
    /// savings, not an implementable policy.
    OracleDown,
    /// The dual-FSM logic generalized to the N-level ladder: step
    /// down one level per expired-evidence window while a demand miss
    /// is outstanding, return to VDDH on miss-return pressure. On the
    /// 2-rail ladder this degenerates to [`PolicySpec::DualFsm`]-like
    /// behavior; at depth 1 it can never leave VDDH.
    LadderFsm,
    /// Error-aware graceful degradation: wraps the FSM policy for the
    /// configured ladder (`dual-fsm` on 2 rails, `ladder-fsm` when
    /// deeper), monitors the windowed read-retry rate, and — when the
    /// rate crosses its threshold — climbs straight to VDDH and
    /// vetoes further dives until a retry-free cool-down re-arms it.
    ErrorBackoff,
}

impl PolicySpec {
    /// Every built-in, in `--policy` listing order.
    pub const ALL: [PolicySpec; 7] = [
        PolicySpec::DualFsm,
        PolicySpec::AlwaysHigh,
        PolicySpec::AlwaysLow,
        PolicySpec::ImmediateDown,
        PolicySpec::OracleDown,
        PolicySpec::LadderFsm,
        PolicySpec::ErrorBackoff,
    ];

    /// The stable command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicySpec::DualFsm => "dual-fsm",
            PolicySpec::AlwaysHigh => "always-high",
            PolicySpec::AlwaysLow => "always-low",
            PolicySpec::ImmediateDown => "immediate-down",
            PolicySpec::OracleDown => "oracle-down",
            PolicySpec::LadderFsm => "ladder-fsm",
            PolicySpec::ErrorBackoff => "error-backoff",
        }
    }

    /// Parses a command-line name ([`PolicySpec::name`] spellings).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Instantiates the live policy for a configuration (`cfg`
    /// supplies the FSM thresholds for [`PolicySpec::DualFsm`] and
    /// the circuit timing for [`PolicySpec::OracleDown`]'s round-trip
    /// cost).
    #[must_use]
    pub fn build(self, cfg: &crate::controller::VsvConfig) -> Box<dyn DvsPolicy> {
        match self {
            PolicySpec::DualFsm => Box::new(LadderFsmPolicy::new("dual-fsm", cfg.down, cfg.up, 1)),
            PolicySpec::AlwaysHigh => Box::new(AlwaysHigh),
            PolicySpec::AlwaysLow => Box::new(AlwaysLow::new(cfg.ladder.bottom())),
            PolicySpec::ImmediateDown => Box::new(LadderFsmPolicy::new(
                "immediate-down",
                DownPolicy::Immediate,
                UpPolicy::FirstReturn,
                1,
            )),
            PolicySpec::OracleDown => Box::new(OracleDown::new(
                cfg.ctrl_distribute_ns + cfg.clock_tree_ns + cfg.ramp_ns() // down
                    + cfg.ctrl_distribute_ns + cfg.ramp_ns(), // up
            )),
            PolicySpec::LadderFsm => Box::new(LadderFsmPolicy::new(
                "ladder-fsm",
                cfg.down,
                cfg.up,
                cfg.ladder.bottom(),
            )),
            PolicySpec::ErrorBackoff => {
                // `dual-fsm` on two rails or fewer (floor 1), the
                // ladder walk on deeper ladders.
                let inner = LadderFsmPolicy::new(
                    "ladder-fsm",
                    cfg.down,
                    cfg.up,
                    cfg.ladder.bottom().max(1),
                );
                // Engage at the ladder midpoint: halving the
                // undervolt depth quarters the (quadratic) error
                // probability. Two rails degenerate to VDDH.
                Box::new(ErrorBackoffPolicy::new(
                    Box::new(inner),
                    (cfg.ladder.bottom() / 2) as u8,
                ))
            }
        }
    }
}

// ---- always-high ---------------------------------------------------

/// Never transitions: the enabled-but-inert control. A run under this
/// policy must be indistinguishable from the disabled baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysHigh;

impl DvsPolicy for AlwaysHigh {
    fn name(&self) -> &'static str {
        "always-high"
    }
    fn on_signal(&mut self, _sig: &VsvSignal, _mode: Mode) -> Decision {
        Decision::Hold
    }
    fn on_tick(&mut self, _now: u64, _outstanding: usize, _mode: Mode) -> Decision {
        Decision::Hold
    }
    fn on_cycle(&mut self, _issued: u32, _mode: Mode) -> Decision {
        Decision::Hold
    }
    fn on_mode_entered(&mut self, _mode: Mode, _now: u64, _outstanding: usize) -> Decision {
        Decision::Hold
    }
    fn idle_skip_allowed(&self, _mode: Mode, _outstanding: usize) -> bool {
        true
    }
    fn stats(&self) -> PolicyStats {
        PolicyStats::default()
    }
    fn clone_box(&self) -> Box<dyn DvsPolicy> {
        Box::new(*self)
    }
}

// ---- always-low ----------------------------------------------------

/// Dives to the ladder bottom on the first enabled tick and camps
/// there forever: the static half-speed, low-voltage floor (on
/// deeper ladders, the lowest configured rail). Maximum theoretical
/// supply savings, unbounded slowdown — the other end of the design
/// space from [`AlwaysHigh`].
#[derive(Debug, Clone, Copy)]
pub struct AlwaysLow {
    bottom: usize,
    downs: u64,
}

impl Default for AlwaysLow {
    /// The paper's 2-rail ladder: bottom is level 1 (VDDL).
    fn default() -> Self {
        AlwaysLow::new(1)
    }
}

impl AlwaysLow {
    /// Builds the policy targeting ladder level `bottom`.
    #[must_use]
    pub fn new(bottom: usize) -> Self {
        AlwaysLow { bottom, downs: 0 }
    }

    /// The bottom-of-ladder target decision (on a 2-rail ladder,
    /// `Level(1)` — exactly the old unconditional ramp-down).
    fn dive(&mut self) -> Decision {
        self.downs += 1;
        Decision::Level(self.bottom as u8)
    }
}

impl DvsPolicy for AlwaysLow {
    fn name(&self) -> &'static str {
        "always-low"
    }
    fn on_signal(&mut self, _sig: &VsvSignal, _mode: Mode) -> Decision {
        Decision::Hold
    }
    fn on_tick(&mut self, _now: u64, _outstanding: usize, mode: Mode) -> Decision {
        if mode == Mode::High && self.bottom > 0 {
            self.dive()
        } else {
            Decision::Hold
        }
    }
    fn on_cycle(&mut self, _issued: u32, _mode: Mode) -> Decision {
        Decision::Hold
    }
    fn on_mode_entered(&mut self, mode: Mode, _now: u64, _outstanding: usize) -> Decision {
        // Unreachable in practice (we never ramp up), but a policy
        // must be self-consistent under any controller state.
        if mode == Mode::High && self.bottom > 0 {
            self.dive()
        } else {
            Decision::Hold
        }
    }
    fn idle_skip_allowed(&self, mode: Mode, _outstanding: usize) -> bool {
        // High is never skippable (the very next tick dives) — except
        // on the degenerate depth-1 ladder, where there is nowhere to
        // dive to.
        mode == Mode::Low || self.bottom == 0
    }
    fn stats(&self) -> PolicyStats {
        PolicyStats {
            down_triggers: self.downs,
            ..PolicyStats::default()
        }
    }
    fn clone_box(&self) -> Box<dyn DvsPolicy> {
        Box::new(*self)
    }
}

// ---- the FSM policies: dual-fsm, immediate-down, ladder-fsm --------

/// The paper's [`DownFsm`]/[`UpFsm`] issue-rate monitors walking the
/// voltage ladder down to a *floor* level: each expired zero-issue
/// evidence window steps the supply down *one* level, so sustained
/// memory-bound stalls descend toward the floor step by step while
/// marginal stalls only pay a shallow, quickly-reversed dip;
/// miss-return pressure (the up-FSM's issuing-run or sole-return
/// rule) retargets straight back to VDDH, reversing a descent even
/// mid-ramp.
///
/// One type serves three built-ins ([`PolicySpec::build`]):
/// `dual-fsm` is floor 1 with the configured monitors (the paper's
/// controller: VDDH ↔ level 1 on any ladder), `immediate-down` is
/// floor 1 with [`DownPolicy::Immediate`] / [`UpPolicy::FirstReturn`],
/// and `ladder-fsm` floors at the ladder bottom. A floor of 0 (the
/// depth-1 ladder's `ladder-fsm`) leaves nowhere to step, so the
/// policy is inert (identical to [`AlwaysHigh`] — `tests/fsm_edges.rs`
/// pins this). A floor deeper than the ladder (`dual-fsm`'s floor 1
/// on a depth-1 ladder) is clamped by the controller, which drops the
/// ramp-downs the down-FSM still fires and counts.
#[derive(Debug, Clone)]
pub struct LadderFsmPolicy {
    name: &'static str,
    down: DownFsm,
    up: UpFsm,
    /// The unscaled down policy the ladder variants are derived from
    /// (see [`LadderFsmPolicy::scaled_down`]).
    base_down: DownPolicy,
    /// Last settled ladder level (kept current by
    /// [`DvsPolicy::on_level`]).
    level: usize,
    /// Deepest level the policy steps down to.
    floor: usize,
}

impl LadderFsmPolicy {
    /// Builds the policy `name` around the two monitors, stepping no
    /// deeper than level `floor`. `down` is the evidence rule for the
    /// *full* descent to the floor; per-step thresholds are scaled
    /// from it.
    #[must_use]
    pub fn new(name: &'static str, down: DownPolicy, up: UpPolicy, floor: usize) -> Self {
        let mut policy = LadderFsmPolicy {
            name,
            down: DownFsm::new(down),
            up: UpFsm::new(up),
            base_down: down,
            level: 0,
            floor,
        };
        policy.down = DownFsm::new(policy.scaled_down(0));
        policy
    }

    /// The down policy gating the step that leaves `level`: the base
    /// monitor threshold is scaled by the fraction of the descent the
    /// step commits to, `ceil(threshold · (level + 1) / floor)`, at
    /// least 1. Evidence is proportional to voltage commitment — the
    /// first step off a deep ladder risks little and fires almost
    /// immediately (chasing the stalls `immediate-down` captures),
    /// while the step onto the floor demands the full base threshold.
    /// At floor 1 the sole step *is* the full commitment, so this
    /// reduces to the base policy exactly and the paper configuration
    /// is untouched. [`DownPolicy::Immediate`] passes through
    /// unscaled.
    fn scaled_down(&self, level: usize) -> DownPolicy {
        match self.base_down {
            DownPolicy::Monitor { threshold, period } if self.floor > 0 => {
                let t = (threshold as usize * (level + 1)).div_ceil(self.floor);
                DownPolicy::Monitor {
                    threshold: t.max(1) as u32,
                    period,
                }
            }
            other => other,
        }
    }

    /// Whether another down step exists above the floor.
    fn can_descend(&self) -> bool {
        self.level < self.floor
    }
}

impl DvsPolicy for LadderFsmPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_signal(&mut self, sig: &VsvSignal, mode: Mode) -> Decision {
        match *sig {
            VsvSignal::L2MissDetected { demand, .. } => {
                // Prefetch-only misses never arm the monitors (§4.2).
                // Above the floor a detection at an intermediate level
                // (steady Low) also arms: more evidence can justify
                // another step down.
                if demand && self.can_descend() && matches!(mode, Mode::High | Mode::Low) {
                    self.down.arm();
                }
                Decision::Hold
            }
            VsvSignal::L2MissReturned {
                demand,
                outstanding_demand,
                ..
            } => {
                // Return pressure targets VDDH directly (not one step
                // up): the paper's up-FSM rules, applied from any
                // depth. The up-FSM is consulted whenever a `Level(0)`
                // retarget could change the outcome: settled below
                // VDDH, or mid-*descent* from a level already below
                // VDDH (the step in flight settles two or more levels
                // down — reversing it is the ladder's mid-ramp
                // escape). A descent leaving level 0 settles at
                // level 1, where the steady-state rules take over next
                // tick — exactly the paper's 2-rail behaviour, which
                // keeps the depth-2 ladder's FSM counters bit-identical
                // to `dual-fsm` (floor 1); and an in-flight *up* step
                // is already headed to VDDH, so a retarget is a no-op.
                let reversible = match mode {
                    Mode::Low => true,
                    Mode::DownDistribute | Mode::RampDown => self.level >= 1,
                    Mode::High | Mode::UpDistribute | Mode::RampUp => false,
                };
                if demand && self.level > 0 && reversible && self.up.on_return(outstanding_demand) {
                    Decision::Level(0)
                } else {
                    Decision::Hold
                }
            }
        }
    }

    fn on_tick(&mut self, _now: u64, outstanding_demand: usize, mode: Mode) -> Decision {
        // All misses returned: nothing left to overlap, go home.
        if mode == Mode::Low && outstanding_demand == 0 {
            return Decision::Level(0);
        }
        // The L2 miss signal (Figure 1) is a level: it stays asserted
        // while a demand miss is outstanding, so the down-FSM keeps
        // monitoring for a zero-issue run at every level that still
        // has a step above the floor.
        if outstanding_demand > 0 && self.can_descend() && matches!(mode, Mode::High | Mode::Low) {
            self.down.refresh();
        }
        Decision::Hold
    }

    fn on_cycle(&mut self, issued: u32, mode: Mode) -> Decision {
        match mode {
            Mode::High if self.down.on_cycle(issued) => Decision::RampDown,
            Mode::Low => {
                if self.up.on_cycle(issued) {
                    return Decision::Level(0);
                }
                if self.can_descend() && self.down.on_cycle(issued) {
                    return Decision::RampDown;
                }
                Decision::Hold
            }
            _ => Decision::Hold,
        }
    }

    fn on_mode_entered(&mut self, _mode: Mode, _now: u64, outstanding_demand: usize) -> Decision {
        // Misses detected mid-transition still deserve monitoring once
        // the supply settles — at any level with a step left below.
        if outstanding_demand > 0 && self.can_descend() {
            self.down.arm();
        }
        Decision::Hold
    }

    fn on_transition_start(&mut self) {
        self.down.disarm();
        self.up.disarm();
    }

    fn on_level(&mut self, level: usize) {
        if level != self.level {
            self.level = level;
            self.down.set_policy(self.scaled_down(level));
        }
    }

    fn idle_skip_allowed(&self, mode: Mode, outstanding_demand: usize) -> bool {
        match mode {
            // High: no outstanding miss (else every tick refreshes
            // the down-FSM) and the down-FSM unarmed (else idle edges
            // advance its zero-issue run).
            Mode::High => outstanding_demand == 0 && !self.down.is_armed(),
            // Low: a miss still outstanding (else on_tick ramps up),
            // the down-FSM unarmed (it can arm in Low while a step
            // remains above the floor), and
            // the up-FSM unable to trigger on an idle cycle (its
            // window, if open, merely drains — batched exactly by
            // `UpFsm::skip_idle_cycles`).
            Mode::Low => {
                outstanding_demand > 0 && !self.down.is_armed() && !self.up.would_trigger_on_idle()
            }
            _ => false,
        }
    }

    fn skip_idle_cycles(&mut self, edges: u64, mode: Mode) {
        if mode == Mode::Low {
            self.up.skip_idle_cycles(edges);
        }
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            down_triggers: self.down.triggers(),
            down_expiries: self.down.expiries(),
            up_triggers: self.up.triggers(),
            up_expiries: self.up.expiries(),
            ..PolicyStats::default()
        }
    }

    fn armed(&self) -> (bool, bool) {
        (self.down.is_armed(), self.up.is_armed())
    }

    fn clone_box(&self) -> Box<dyn DvsPolicy> {
        Box::new(self.clone())
    }
}

// ---- error-backoff -------------------------------------------------

/// Retries counted per engagement window: the rate estimator is a
/// bucketed counter (reset when a retry arrives ≥ window after the
/// bucket opened), cheap and deterministic.
pub const BACKOFF_WINDOW_NS: u64 = 4_000;

/// Retries within one window that trip the backoff.
pub const BACKOFF_RETRY_THRESHOLD: u32 = 2;

/// Retry-free nanoseconds after which an engaged backoff re-arms and
/// hands control back to the wrapped policy.
pub const BACKOFF_COOLDOWN_NS: u64 = 20_000;

/// Error-aware graceful degradation (the risk/reward governor): the
/// wrapped FSM policy chases energy savings as usual, while this
/// wrapper watches the read-retry rate undervolting is causing. When
/// retries cluster — [`BACKOFF_RETRY_THRESHOLD`] within
/// [`BACKOFF_WINDOW_NS`] — it climbs to its *engage level* (the
/// ladder's midpoint rung: VDDH on the paper's two rails) and clamps
/// every deeper move to that rung until [`BACKOFF_COOLDOWN_NS`]
/// retry-free nanoseconds pass, then re-arms. Clamping (rather than
/// blocking) the dives keeps the policy undervolting on every L2-miss
/// window — just never below the rung it deems safe.
///
/// The midpoint engage level is what makes the degradation graceful
/// on ladders deeper than two rails: the error probability falls
/// *quadratically* with undervolt depth, so halving the depth cuts
/// the error exposure to roughly a quarter while keeping well over
/// half of the rung's power saving. Two rails have no middle, so
/// there the backoff climbs all the way to the error-free VDDH.
#[derive(Debug, Clone)]
pub struct ErrorBackoffPolicy {
    inner: Box<dyn DvsPolicy>,
    engage_level: u8,
    window_start: u64,
    window_count: u32,
    last_retry_at: u64,
    engaged: bool,
    engagements: u64,
    vetoes: u64,
}

impl ErrorBackoffPolicy {
    /// Wraps `inner` (normally the FSM policy matching the ladder
    /// depth; see [`PolicySpec::ErrorBackoff`]). `engage_level` is
    /// the shallowest rung the policy retreats to while engaged
    /// (`0` = VDDH; [`PolicySpec::build`] uses the ladder midpoint,
    /// `bottom / 2`).
    #[must_use]
    pub fn new(inner: Box<dyn DvsPolicy>, engage_level: u8) -> Self {
        ErrorBackoffPolicy {
            inner,
            engage_level,
            window_start: 0,
            window_count: 0,
            last_retry_at: 0,
            engaged: false,
            engagements: 0,
            vetoes: 0,
        }
    }

    /// Whether the backoff is currently engaged (vetoing dives).
    #[must_use]
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Filters a wrapped decision: while engaged, any move below the
    /// engage level is clamped to the engage level (counted as a
    /// veto); everything else passes through. (`RampDown` always
    /// targets the ladder bottom, which is strictly below the engage
    /// level whenever the ladder has more than the engage rung.)
    fn gate(&mut self, d: Decision) -> Decision {
        if !self.engaged {
            return d;
        }
        match d {
            Decision::RampDown => {
                self.vetoes += 1;
                Decision::Level(self.engage_level)
            }
            Decision::Level(l) if l > self.engage_level => {
                self.vetoes += 1;
                Decision::Level(self.engage_level)
            }
            other => other,
        }
    }
}

impl DvsPolicy for ErrorBackoffPolicy {
    fn name(&self) -> &'static str {
        "error-backoff"
    }

    fn on_signal(&mut self, sig: &VsvSignal, mode: Mode) -> Decision {
        let d = self.inner.on_signal(sig, mode);
        self.gate(d)
    }

    fn on_tick(&mut self, now: u64, outstanding_demand: usize, mode: Mode) -> Decision {
        // Re-arm after a retry-free cool-down. (This check runs only
        // on stepped ticks; that is exact, because retries are events
        // and events both end fast-forward spans and are the only
        // source of non-Hold gating differences.)
        if self.engaged && now.saturating_sub(self.last_retry_at) >= BACKOFF_COOLDOWN_NS {
            self.engaged = false;
        }
        let d = self.inner.on_tick(now, outstanding_demand, mode);
        self.gate(d)
    }

    fn on_cycle(&mut self, issued: u32, mode: Mode) -> Decision {
        let d = self.inner.on_cycle(issued, mode);
        self.gate(d)
    }

    fn on_mode_entered(&mut self, mode: Mode, now: u64, outstanding_demand: usize) -> Decision {
        let d = self.inner.on_mode_entered(mode, now, outstanding_demand);
        self.gate(d)
    }

    fn on_transition_start(&mut self) {
        self.inner.on_transition_start();
    }

    fn on_read_retry(&mut self, now: u64) -> Decision {
        if now.saturating_sub(self.window_start) >= BACKOFF_WINDOW_NS {
            self.window_start = now;
            self.window_count = 0;
        }
        self.window_count += 1;
        self.last_retry_at = now;
        if !self.engaged && self.window_count >= BACKOFF_RETRY_THRESHOLD {
            self.engaged = true;
            self.engagements += 1;
            // Climb to the engage level (quadratically safer; VDDH
            // on two rails); in-flight descents are retargeted
            // (reversal mid-ramp).
            return Decision::Level(self.engage_level);
        }
        Decision::Hold
    }

    fn on_level(&mut self, level: usize) {
        self.inner.on_level(level);
    }

    fn idle_skip_allowed(&self, mode: Mode, outstanding_demand: usize) -> bool {
        // Sound to delegate: retries are events, events end
        // fast-forward spans, and within a retry-free span the gate
        // only ever sees the Holds the inner policy's own skip
        // contract guarantees. The cool-down check is time-based but
        // observable only through a gated non-Hold decision, which
        // cannot occur inside the span.
        self.inner.idle_skip_allowed(mode, outstanding_demand)
    }

    fn skip_idle_cycles(&mut self, edges: u64, mode: Mode) {
        self.inner.skip_idle_cycles(edges, mode);
    }

    fn stats(&self) -> PolicyStats {
        PolicyStats {
            backoff_engagements: self.engagements,
            backoff_vetoes: self.vetoes,
            ..self.inner.stats()
        }
    }

    fn armed(&self) -> (bool, bool) {
        self.inner.armed()
    }

    fn clone_box(&self) -> Box<dyn DvsPolicy> {
        Box::new(self.clone())
    }
}

// ---- oracle-down ---------------------------------------------------

/// The clairvoyant upper bound: ramps down on the first zero-issue
/// cycle during which some demand miss's already-scheduled DRAM
/// return time proves the stall will outlast the full round-trip
/// transition cost (down distribution + ramp + up distribution +
/// ramp ≈ 30 ns), and ramps up only when the last demand miss has
/// returned. It never dives while the pipeline still issues (unlike
/// `immediate-down`), never waits out a monitoring window (unlike
/// `dual-fsm`), and never pays a mispredicted round trip on a stall
/// too short to refund it — knowledge no hardware policy has.
#[derive(Debug, Clone, Copy)]
pub struct OracleDown {
    /// Round-trip transition cost (ns): a stall shorter than this
    /// cannot pay for its own transitions.
    round_trip_ns: u64,
    /// Latest scheduled demand-return time seen so far. With every
    /// demand miss returned this is ≤ now, so it cannot trigger.
    latest_known_return: u64,
    /// Time of the last steady-mode tick (the controller calls
    /// `on_tick` before any `on_cycle` of the same nanosecond).
    last_now: u64,
    stats: PolicyStats,
}

impl OracleDown {
    /// Builds the oracle for a given round-trip transition cost.
    #[must_use]
    pub fn new(round_trip_ns: u64) -> Self {
        OracleDown {
            round_trip_ns,
            latest_known_return: 0,
            last_now: 0,
            stats: PolicyStats::default(),
        }
    }

    /// Whether some known demand return is provably far enough out to
    /// refund a round trip started now.
    fn stall_pays(&self) -> bool {
        self.latest_known_return.saturating_sub(self.last_now) >= self.round_trip_ns
    }
}

impl DvsPolicy for OracleDown {
    fn name(&self) -> &'static str {
        "oracle-down"
    }

    fn on_signal(&mut self, sig: &VsvSignal, mode: Mode) -> Decision {
        match *sig {
            VsvSignal::L2MissDetected {
                demand,
                earliest_return,
                ..
            } => {
                // Prefetch misses never stall the pipeline; only
                // demand returns may justify a dive.
                if demand {
                    if let Some(ret) = earliest_return {
                        self.latest_known_return = self.latest_known_return.max(ret);
                    }
                }
                Decision::Hold
            }
            VsvSignal::L2MissReturned {
                demand,
                outstanding_demand,
                ..
            } => {
                if demand && mode == Mode::Low && outstanding_demand == 0 {
                    self.stats.up_triggers += 1;
                    Decision::RampUp
                } else {
                    Decision::Hold
                }
            }
        }
    }

    fn on_tick(&mut self, now: u64, outstanding_demand: usize, mode: Mode) -> Decision {
        self.last_now = now;
        // Safety rule shared with the paper's policy: nothing left to
        // wait for (e.g. the last miss returned mid-transition), so
        // go back up.
        if mode == Mode::Low && outstanding_demand == 0 {
            Decision::RampUp
        } else {
            Decision::Hold
        }
    }

    fn on_cycle(&mut self, issued: u32, mode: Mode) -> Decision {
        if mode != Mode::High || issued > 0 {
            return Decision::Hold;
        }
        if self.stall_pays() {
            self.stats.down_triggers += 1;
            Decision::RampDown
        } else {
            // A stalled cycle the oracle declines to convert: either
            // no demand return is scheduled (MSHR-full retry) or the
            // remaining stall is too short to refund the trip.
            if self.latest_known_return > self.last_now {
                self.stats.down_expiries += 1;
            }
            Decision::Hold
        }
    }

    fn on_mode_entered(&mut self, _mode: Mode, now: u64, _outstanding: usize) -> Decision {
        self.last_now = now;
        // Even with misses still in flight, wait for the pipeline to
        // actually run dry: the next zero-issue cycle dives.
        Decision::Hold
    }

    fn idle_skip_allowed(&self, mode: Mode, outstanding_demand: usize) -> bool {
        match mode {
            // High with a demand miss in flight: a zero-issue cycle
            // may dive, so every cycle must be stepped. With nothing
            // outstanding every known return is in the past and
            // `on_cycle` provably holds.
            Mode::High => outstanding_demand == 0,
            // Low: on_tick ramps up the moment nothing is
            // outstanding.
            Mode::Low => outstanding_demand > 0,
            _ => false,
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }

    fn clone_box(&self) -> Box<dyn DvsPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detected(at: u64, earliest_return: Option<u64>) -> VsvSignal {
        VsvSignal::L2MissDetected {
            demand: true,
            at,
            earliest_return,
        }
    }

    #[test]
    fn spec_names_round_trip() {
        for spec in PolicySpec::ALL {
            assert_eq!(PolicySpec::parse(spec.name()), Some(spec), "{spec:?}");
        }
        assert_eq!(PolicySpec::parse("bogus"), None);
        assert_eq!(PolicySpec::default(), PolicySpec::DualFsm);
    }

    #[test]
    fn built_policies_report_their_spec_name() {
        let cfg = crate::VsvConfig::with_policy(PolicySpec::DualFsm);
        for spec in PolicySpec::ALL {
            assert_eq!(spec.build(&cfg).name(), spec.name());
        }
    }

    #[test]
    fn oracle_declines_short_stalls_and_takes_long_ones() {
        let mut o = OracleDown::new(30);
        let _ = o.on_tick(100, 1, Mode::High);
        // Return in 10 ns: a zero-issue cycle is not worth the trip.
        let _ = o.on_signal(&detected(100, Some(110)), Mode::High);
        assert_eq!(o.on_cycle(0, Mode::High), Decision::Hold);
        assert_eq!(o.stats().down_expiries, 1);
        // Return in 80 ns: provably worth it — but never while the
        // pipeline still issues.
        let _ = o.on_signal(&detected(100, Some(180)), Mode::High);
        assert_eq!(o.on_cycle(4, Mode::High), Decision::Hold);
        assert_eq!(o.on_cycle(0, Mode::High), Decision::RampDown);
        assert_eq!(o.stats().down_triggers, 1);
        assert_eq!(o.stats().down_expiries, 1);
    }

    #[test]
    fn oracle_holds_on_unscheduled_stalls() {
        // MSHR-full retry: the miss has no scheduled return yet, so
        // nothing is provable and the oracle stays put.
        let mut o = OracleDown::new(30);
        let _ = o.on_tick(50, 1, Mode::High);
        let _ = o.on_signal(&detected(50, None), Mode::High);
        assert_eq!(o.on_cycle(0, Mode::High), Decision::Hold);
        assert_eq!(o.stats().down_triggers, 0);
    }

    #[test]
    fn oracle_waits_for_the_last_return() {
        let mut o = OracleDown::new(30);
        let ret = |outstanding| VsvSignal::L2MissReturned {
            demand: true,
            at: 0,
            outstanding_demand: outstanding,
        };
        assert_eq!(o.on_signal(&ret(2), Mode::Low), Decision::Hold);
        assert_eq!(o.on_signal(&ret(0), Mode::Low), Decision::RampUp);
        assert_eq!(o.stats().up_triggers, 1);
    }

    #[test]
    fn oracle_redips_on_the_next_stall_cycle_after_reaching_high() {
        let mut o = OracleDown::new(30);
        let _ = o.on_signal(&detected(0, Some(500)), Mode::High);
        // Reaching High with the miss still 400 ns out: the very next
        // zero-issue cycle dives again.
        assert_eq!(o.on_mode_entered(Mode::High, 100, 1), Decision::Hold);
        assert_eq!(o.on_cycle(0, Mode::High), Decision::RampDown);
        // Near the return the remaining stall no longer pays.
        let mut o = OracleDown::new(30);
        let _ = o.on_signal(&detected(0, Some(500)), Mode::High);
        assert_eq!(o.on_mode_entered(Mode::High, 490, 1), Decision::Hold);
        assert_eq!(o.on_cycle(0, Mode::High), Decision::Hold);
    }

    #[test]
    fn always_low_dives_and_stays() {
        let mut p = AlwaysLow::default();
        // On the default 2-rail ladder the dive targets level 1 —
        // exactly the old unconditional ramp-down.
        assert_eq!(p.on_tick(0, 0, Mode::High), Decision::Level(1));
        assert_eq!(p.on_tick(50, 0, Mode::Low), Decision::Hold);
        assert!(!p.idle_skip_allowed(Mode::High, 0));
        assert!(p.idle_skip_allowed(Mode::Low, 0));
        assert_eq!(p.stats().down_triggers, 1);
    }

    #[test]
    fn always_low_on_a_depth_one_ladder_is_inert() {
        let mut p = AlwaysLow::new(0);
        assert_eq!(p.on_tick(0, 0, Mode::High), Decision::Hold);
        assert!(p.idle_skip_allowed(Mode::High, 0), "nowhere to dive");
        assert_eq!(p.stats().down_triggers, 0);
    }

    #[test]
    fn ladder_fsm_steps_down_one_level_per_expired_window() {
        let mut p = LadderFsmPolicy::new(
            "ladder-fsm",
            crate::DownPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            crate::UpPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            3,
        );
        // A demand miss arms the monitor in High...
        let _ = p.on_signal(&detected(0, None), Mode::High);
        assert!(p.armed().0);
        // ...and the first step commits only a third of the swing, so
        // its scaled threshold is ceil(2·1/3) = 1: one zero-issue
        // cycle steps down exactly one level.
        assert_eq!(p.on_cycle(0, Mode::High), Decision::RampDown);
        p.on_transition_start();
        p.on_level(1);
        // At level 1 (steady Low) a fresh detection arms again — the
        // descent can continue one window at a time, now needing
        // ceil(2·2/3) = 2 cycles of evidence.
        let _ = p.on_signal(&detected(20, None), Mode::Low);
        assert_eq!(p.on_cycle(0, Mode::Low), Decision::Hold);
        assert_eq!(p.on_cycle(0, Mode::Low), Decision::RampDown);
        assert_eq!(p.stats().down_triggers, 2);
    }

    #[test]
    fn ladder_fsm_down_threshold_scales_with_commitment() {
        let thresholds = |bottom: usize| -> Vec<u32> {
            let p = LadderFsmPolicy::new(
                "ladder-fsm",
                crate::DownPolicy::default_monitor(),
                crate::UpPolicy::default_monitor(),
                bottom,
            );
            (0..bottom)
                .map(|k| match p.scaled_down(k) {
                    crate::DownPolicy::Monitor { threshold, .. } => threshold,
                    crate::DownPolicy::Immediate => unreachable!("monitor base stays a monitor"),
                })
                .collect()
        };
        // The 2-rail ladder's sole step is the full commitment: the
        // paper's threshold 3 survives exactly.
        assert_eq!(thresholds(1), [3]);
        assert_eq!(thresholds(2), [2, 3]);
        assert_eq!(thresholds(3), [1, 2, 3]);
        assert_eq!(thresholds(7), [1, 1, 2, 2, 3, 3, 3]);
        // Immediate has no threshold to scale.
        let p = LadderFsmPolicy::new(
            "ladder-fsm",
            crate::DownPolicy::Immediate,
            crate::UpPolicy::default_monitor(),
            3,
        );
        assert_eq!(p.scaled_down(1), crate::DownPolicy::Immediate);
    }

    #[test]
    fn ladder_fsm_return_pressure_targets_level_zero_from_any_depth() {
        let mut p = LadderFsmPolicy::new(
            "ladder-fsm",
            crate::DownPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            crate::UpPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            3,
        );
        p.on_level(2);
        let sole_return = VsvSignal::L2MissReturned {
            demand: true,
            at: 100,
            outstanding_demand: 0,
        };
        // Sole return two levels down: straight back to VDDH, not one
        // step up — and with no mode gate, so it also fires mid-ramp.
        assert_eq!(
            p.on_signal(&sole_return, Mode::RampDown),
            Decision::Level(0)
        );
    }

    #[test]
    fn ladder_fsm_is_inert_on_a_depth_one_ladder() {
        let mut p = LadderFsmPolicy::new(
            "ladder-fsm",
            crate::DownPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            crate::UpPolicy::Monitor {
                threshold: 2,
                period: 10,
            },
            0,
        );
        let _ = p.on_signal(&detected(0, None), Mode::High);
        assert_eq!(p.armed(), (false, false), "nowhere to step: never arms");
        for _ in 0..50 {
            assert_eq!(p.on_cycle(0, Mode::High), Decision::Hold);
        }
        assert_eq!(p.stats(), PolicyStats::default());
        assert!(p.idle_skip_allowed(Mode::High, 0));
    }

    #[test]
    fn error_backoff_engages_on_retry_bursts_and_vetoes_dives() {
        let cfg = crate::VsvConfig::with_policy(PolicySpec::DualFsm);
        let mut p = PolicySpec::ErrorBackoff.build(&cfg);
        assert_eq!(p.name(), "error-backoff");
        // Below the threshold: retries are tolerated.
        for i in 0..u64::from(BACKOFF_RETRY_THRESHOLD) - 1 {
            assert_eq!(p.on_read_retry(100 + i), Decision::Hold);
        }
        // The threshold-crossing retry climbs to VDDH.
        assert_eq!(
            p.on_read_retry(100 + u64::from(BACKOFF_RETRY_THRESHOLD)),
            Decision::Level(0)
        );
        assert_eq!(p.stats().backoff_engagements, 1);
        // While engaged, the wrapped policy's dives are clamped to
        // the engage rung (VDDH on two rails): arm the inner down-FSM
        // and run it to a trigger.
        let _ = p.on_signal(&detected(200, None), Mode::High);
        let mut vetoed = false;
        for _ in 0..100 {
            if p.stats().backoff_vetoes > 0 {
                vetoed = true;
                break;
            }
            let _ = p.on_tick(200, 1, Mode::High);
            let d = p.on_cycle(0, Mode::High);
            assert!(
                d == Decision::Hold || d == Decision::Level(0),
                "dive must be clamped to the engage rung, got {d:?}"
            );
        }
        assert!(vetoed, "inner dual-fsm never triggered a clampable dive");
    }

    #[test]
    fn error_backoff_rearms_after_cooldown() {
        let cfg = crate::VsvConfig::with_policy(PolicySpec::DualFsm);
        let mut p = PolicySpec::ErrorBackoff.build(&cfg);
        for i in 0..u64::from(BACKOFF_RETRY_THRESHOLD) {
            let _ = p.on_read_retry(i);
        }
        assert_eq!(p.stats().backoff_engagements, 1);
        // A retry-free cool-down hands control back to the inner FSM.
        let _ = p.on_tick(BACKOFF_COOLDOWN_NS + 10, 1, Mode::High);
        let _ = p.on_signal(&detected(BACKOFF_COOLDOWN_NS + 11, None), Mode::High);
        let mut dove = false;
        for _ in 0..100 {
            let _ = p.on_tick(BACKOFF_COOLDOWN_NS + 12, 1, Mode::High);
            if p.on_cycle(0, Mode::High) == Decision::RampDown {
                dove = true;
                break;
            }
        }
        assert!(dove, "after the cool-down the inner policy dives again");
        assert_eq!(p.stats().backoff_vetoes, 0);
    }

    #[test]
    fn error_backoff_windows_do_not_accumulate_sparse_retries() {
        let cfg = crate::VsvConfig::with_policy(PolicySpec::DualFsm);
        let mut p = PolicySpec::ErrorBackoff.build(&cfg);
        // One retry per 2 windows: the bucket resets every time, so
        // the threshold is never reached.
        for i in 0..50u64 {
            assert_eq!(
                p.on_read_retry(i * 2 * BACKOFF_WINDOW_NS),
                Decision::Hold,
                "sparse retries must not engage"
            );
        }
        assert_eq!(p.stats().backoff_engagements, 0);
    }

    #[test]
    fn error_backoff_wraps_ladder_fsm_on_deep_ladders() {
        let cfg = crate::VsvConfig::with_policy(PolicySpec::DualFsm).with_ladder_depth(4);
        let p = PolicySpec::ErrorBackoff.build(&cfg);
        // The wrapper reports its own name; behavior checks live in
        // the system-level tests.
        assert_eq!(p.name(), "error-backoff");
    }

    #[test]
    fn always_high_holds_everywhere() {
        let mut p = AlwaysHigh;
        assert_eq!(
            p.on_signal(&detected(0, Some(999)), Mode::High),
            Decision::Hold
        );
        assert_eq!(p.on_tick(0, 5, Mode::High), Decision::Hold);
        assert_eq!(p.on_cycle(0, Mode::High), Decision::Hold);
        assert!(p.idle_skip_allowed(Mode::High, 7));
        assert_eq!(p.stats(), PolicyStats::default());
    }
}
