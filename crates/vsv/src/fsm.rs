//! The issue-rate-monitoring finite state machines (paper §4.2, §4.4).
//!
//! * [`DownFsm`] guards the high→low transition: armed when an L2
//!   demand miss is detected, it watches the issue rate for a short
//!   window (10 full-speed cycles) and fires only if the pipeline
//!   shows a run of zero-issue cycles — i.e. there is no ILP to lose.
//! * [`UpFsm`] guards the low→high transition: armed when an L2 miss
//!   returns while more misses are outstanding, it fires only if the
//!   pipeline shows a run of issuing cycles — i.e. there is ILP worth
//!   speeding up for.

/// Policy for entering the low-power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DownPolicy {
    /// Transition as soon as an L2 demand miss is detected (the
    /// paper's "without FSMs" configuration, and threshold 0 in
    /// Figure 5).
    Immediate,
    /// Monitor the issue rate and transition only on a run of
    /// `threshold` consecutive zero-issue cycles within a
    /// `period`-cycle window (full-speed cycles).
    Monitor {
        /// Consecutive zero-issue cycles required (Figure 5: 1/3/5).
        threshold: u32,
        /// Monitoring window length (paper: 10 cycles).
        period: u32,
    },
}

impl DownPolicy {
    /// The paper's best configuration: threshold 3, window 10 (§6.2).
    #[must_use]
    pub fn default_monitor() -> Self {
        DownPolicy::Monitor {
            threshold: 3,
            period: 10,
        }
    }
}

/// Policy for returning to the high-power mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpPolicy {
    /// Return when the *first* outstanding miss returns ("First-R" in
    /// §6.3; also the "without FSMs" configuration).
    FirstReturn,
    /// Return only when the *last* outstanding miss returns ("Last-R").
    LastReturn,
    /// Monitor the issue rate after a return and transition on a run
    /// of `threshold` consecutive issuing cycles within a
    /// `period`-cycle window (half-speed cycles). A return that leaves
    /// no misses outstanding always transitions immediately.
    Monitor {
        /// Consecutive issuing cycles required (Figure 6: 1/3/5).
        threshold: u32,
        /// Monitoring window length (paper: 10 half-speed cycles).
        period: u32,
    },
}

impl UpPolicy {
    /// The paper's best configuration: threshold 3, window 10 (§6.3).
    #[must_use]
    pub fn default_monitor() -> Self {
        UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Window {
    cycles_left: u32,
    run: u32,
}

/// The high→low monitor.
///
/// # Examples
///
/// ```
/// use vsv::{DownFsm, DownPolicy};
///
/// let mut fsm = DownFsm::new(DownPolicy::Monitor { threshold: 2, period: 10 });
/// fsm.arm();
/// assert!(!fsm.on_cycle(3)); // issuing: no trigger
/// assert!(!fsm.on_cycle(0)); // first idle cycle
/// assert!(fsm.on_cycle(0));  // second consecutive idle: trigger
/// ```
#[derive(Debug, Clone)]
pub struct DownFsm {
    policy: DownPolicy,
    window: Option<Window>,
    pending_immediate: bool,
    triggers: u64,
    expiries: u64,
}

impl DownFsm {
    /// Creates an idle (unarmed) monitor.
    #[must_use]
    pub fn new(policy: DownPolicy) -> Self {
        DownFsm {
            policy,
            window: None,
            pending_immediate: false,
            triggers: 0,
            expiries: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> DownPolicy {
        self.policy
    }

    /// Replaces the gating policy (ladder policies scale the evidence
    /// threshold with the depth of the step being considered). Takes
    /// effect from the next monitored cycle; trigger/expiry counters
    /// persist. An open `Monitor` window keeps its remaining cycles
    /// and zero-issue run.
    pub fn set_policy(&mut self, policy: DownPolicy) {
        self.policy = policy;
        if !matches!(policy, DownPolicy::Monitor { .. }) {
            self.window = None;
        }
        if !matches!(policy, DownPolicy::Immediate) {
            self.pending_immediate = false;
        }
    }

    /// Arms the monitor (an L2 demand miss was detected). Re-arming
    /// restarts the window: fresh misses renew the evidence.
    pub fn arm(&mut self) {
        match self.policy {
            DownPolicy::Immediate => self.pending_immediate = true,
            DownPolicy::Monitor { period, .. } => {
                self.window = Some(Window {
                    cycles_left: period,
                    run: 0,
                });
            }
        }
    }

    /// Keeps an open monitoring window from expiring (the L2 miss
    /// *signal* is a level: it stays asserted while a miss is
    /// outstanding, so monitoring persists). Opens a window if none is
    /// open. Unlike [`DownFsm::arm`], an in-progress zero-issue run is
    /// preserved. No effect under [`DownPolicy::Immediate`], which is
    /// edge-triggered by definition.
    pub fn refresh(&mut self) {
        if let DownPolicy::Monitor { period, .. } = self.policy {
            match self.window.as_mut() {
                Some(w) => w.cycles_left = period,
                None => {
                    self.window = Some(Window {
                        cycles_left: period,
                        run: 0,
                    });
                }
            }
        }
    }

    /// Whether the monitor is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.window.is_some() || self.pending_immediate
    }

    /// Disarms without triggering (e.g. the mode changed under us).
    pub fn disarm(&mut self) {
        self.window = None;
        self.pending_immediate = false;
    }

    /// Feeds one full-speed pipeline cycle's issue count. Returns
    /// `true` when the low-power transition should start.
    pub fn on_cycle(&mut self, issued: u32) -> bool {
        if self.pending_immediate {
            self.pending_immediate = false;
            self.triggers += 1;
            return true;
        }
        let Some(w) = self.window.as_mut() else {
            return false;
        };
        if issued == 0 {
            w.run += 1;
        } else {
            w.run = 0;
        }
        let DownPolicy::Monitor { threshold, .. } = self.policy else {
            unreachable!("window implies Monitor policy");
        };
        // A threshold of 0 with a window means "trigger on the first
        // monitored cycle" — kept for completeness; Figure 5 models
        // threshold 0 as DownPolicy::Immediate.
        if w.run >= threshold {
            self.window = None;
            self.triggers += 1;
            return true;
        }
        w.cycles_left -= 1;
        if w.cycles_left == 0 {
            self.window = None;
            self.expiries += 1;
        }
        false
    }

    /// Number of transitions this FSM has signalled.
    #[must_use]
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Number of windows that expired without triggering (high ILP
    /// detected: power-saving opportunity declined).
    #[must_use]
    pub fn expiries(&self) -> u64 {
        self.expiries
    }
}

/// The low→high monitor.
///
/// # Examples
///
/// ```
/// use vsv::{UpFsm, UpPolicy};
///
/// let mut fsm = UpFsm::new(UpPolicy::Monitor { threshold: 2, period: 10 });
/// // A return that leaves misses outstanding arms the monitor...
/// assert!(!fsm.on_return(3));
/// assert!(!fsm.on_cycle(1));
/// assert!(fsm.on_cycle(2)); // two consecutive issuing cycles
/// // ...while a sole return transitions unconditionally.
/// let mut fsm = UpFsm::new(UpPolicy::Monitor { threshold: 2, period: 10 });
/// assert!(fsm.on_return(0));
/// ```
#[derive(Debug, Clone)]
pub struct UpFsm {
    policy: UpPolicy,
    window: Option<Window>,
    triggers: u64,
    expiries: u64,
}

impl UpFsm {
    /// Creates an idle monitor.
    #[must_use]
    pub fn new(policy: UpPolicy) -> Self {
        UpFsm {
            policy,
            window: None,
            triggers: 0,
            expiries: 0,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> UpPolicy {
        self.policy
    }

    /// Reports an L2 demand-miss return in low-power mode, with the
    /// number of demand misses still outstanding *after* the return.
    /// Returns `true` if the high-power transition should start now.
    pub fn on_return(&mut self, outstanding_after: usize) -> bool {
        match self.policy {
            UpPolicy::FirstReturn => {
                self.triggers += 1;
                true
            }
            UpPolicy::LastReturn => {
                if outstanding_after == 0 {
                    self.triggers += 1;
                    true
                } else {
                    false
                }
            }
            UpPolicy::Monitor { period, .. } => {
                if outstanding_after == 0 {
                    // Sole outstanding miss: nothing left to overlap
                    // with; ramp up unconditionally (§4.4).
                    self.window = None;
                    self.triggers += 1;
                    true
                } else {
                    self.window = Some(Window {
                        cycles_left: period,
                        run: 0,
                    });
                    false
                }
            }
        }
    }

    /// Whether a monitoring window is open.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.window.is_some()
    }

    /// Disarms without triggering.
    pub fn disarm(&mut self) {
        self.window = None;
    }

    /// Whether the next [`UpFsm::on_cycle`] with `issued == 0` would
    /// trigger the transition — only possible for an open window under
    /// a degenerate `threshold == 0` monitor (a zero-length run
    /// "completes" instantly).
    #[must_use]
    pub fn would_trigger_on_idle(&self) -> bool {
        self.window.is_some() && matches!(self.policy, UpPolicy::Monitor { threshold: 0, .. })
    }

    /// Batch-applies `cycles` consecutive idle (`issued == 0`)
    /// half-speed cycles: exactly what `cycles` calls to
    /// `on_cycle(0)` would do, provided none of them would trigger
    /// (guaranteed by the caller via
    /// [`UpFsm::would_trigger_on_idle`]). Idle cycles reset the run
    /// and drain the window toward expiry.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let Some(w) = self.window.as_mut() else {
            return;
        };
        debug_assert!(
            !matches!(self.policy, UpPolicy::Monitor { threshold: 0, .. }),
            "threshold-0 monitor would trigger, not expire"
        );
        if u64::from(w.cycles_left) <= cycles {
            self.window = None;
            self.expiries += 1;
        } else {
            w.cycles_left -= cycles as u32;
            w.run = 0;
        }
    }

    /// Feeds one half-speed pipeline cycle's issue count. Returns
    /// `true` when the high-power transition should start.
    pub fn on_cycle(&mut self, issued: u32) -> bool {
        let Some(w) = self.window.as_mut() else {
            return false;
        };
        if issued > 0 {
            w.run += 1;
        } else {
            w.run = 0;
        }
        let UpPolicy::Monitor { threshold, .. } = self.policy else {
            unreachable!("window implies Monitor policy");
        };
        if w.run >= threshold {
            self.window = None;
            self.triggers += 1;
            return true;
        }
        w.cycles_left -= 1;
        if w.cycles_left == 0 {
            self.window = None;
            self.expiries += 1;
        }
        false
    }

    /// Number of transitions this FSM has signalled.
    #[must_use]
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Number of windows that expired without triggering (no ILP
    /// found: stayed in low power).
    #[must_use]
    pub fn expiries(&self) -> u64 {
        self.expiries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_immediate_fires_on_next_cycle() {
        let mut f = DownFsm::new(DownPolicy::Immediate);
        assert!(!f.on_cycle(0), "unarmed: no trigger");
        f.arm();
        assert!(f.is_armed());
        assert!(f.on_cycle(5), "immediate fires regardless of issue rate");
        assert!(!f.on_cycle(0), "consumed");
        assert_eq!(f.triggers(), 1);
    }

    #[test]
    fn down_monitor_needs_consecutive_idle() {
        let mut f = DownFsm::new(DownPolicy::Monitor {
            threshold: 3,
            period: 10,
        });
        f.arm();
        assert!(!f.on_cycle(0));
        assert!(!f.on_cycle(0));
        assert!(!f.on_cycle(2), "issue breaks the run");
        assert!(!f.on_cycle(0));
        assert!(!f.on_cycle(0));
        assert!(f.on_cycle(0), "3 consecutive idle cycles");
    }

    #[test]
    fn down_monitor_expires_on_high_ilp() {
        let mut f = DownFsm::new(DownPolicy::Monitor {
            threshold: 3,
            period: 5,
        });
        f.arm();
        for _ in 0..5 {
            assert!(!f.on_cycle(4));
        }
        assert!(!f.is_armed(), "window expired");
        assert_eq!(f.expiries(), 1);
        assert!(!f.on_cycle(0), "expired window never fires");
    }

    #[test]
    fn down_rearm_restarts_window() {
        let mut f = DownFsm::new(DownPolicy::Monitor {
            threshold: 2,
            period: 3,
        });
        f.arm();
        assert!(!f.on_cycle(1));
        assert!(!f.on_cycle(1));
        f.arm(); // new miss: fresh window
        assert!(!f.on_cycle(0));
        assert!(f.on_cycle(0));
    }

    #[test]
    fn down_disarm() {
        let mut f = DownFsm::new(DownPolicy::default_monitor());
        f.arm();
        f.disarm();
        assert!(!f.is_armed());
        for _ in 0..20 {
            assert!(!f.on_cycle(0));
        }
    }

    #[test]
    fn up_first_return_always_fires() {
        let mut f = UpFsm::new(UpPolicy::FirstReturn);
        assert!(f.on_return(7));
        assert!(f.on_return(0));
        assert_eq!(f.triggers(), 2);
    }

    #[test]
    fn up_last_return_waits_for_zero() {
        let mut f = UpFsm::new(UpPolicy::LastReturn);
        assert!(!f.on_return(3));
        assert!(!f.on_return(1));
        assert!(f.on_return(0));
        assert_eq!(f.triggers(), 1);
    }

    #[test]
    fn up_monitor_sole_miss_fires_immediately() {
        let mut f = UpFsm::new(UpPolicy::default_monitor());
        assert!(f.on_return(0));
        assert!(!f.is_armed());
    }

    #[test]
    fn up_monitor_needs_consecutive_issue() {
        let mut f = UpFsm::new(UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        });
        assert!(!f.on_return(2));
        assert!(!f.on_cycle(1));
        assert!(!f.on_cycle(1));
        assert!(!f.on_cycle(0), "idle breaks the run");
        assert!(!f.on_cycle(1));
        assert!(!f.on_cycle(1));
        assert!(f.on_cycle(1));
    }

    #[test]
    fn up_monitor_expires_when_pipeline_stays_idle() {
        let mut f = UpFsm::new(UpPolicy::Monitor {
            threshold: 1,
            period: 4,
        });
        assert!(!f.on_return(5));
        for _ in 0..4 {
            assert!(!f.on_cycle(0));
        }
        assert!(!f.is_armed());
        assert_eq!(f.expiries(), 1);
    }

    #[test]
    fn thresholds_order_trigger_aggressiveness() {
        // Lower up-threshold fires earlier on the same issue trace.
        let trace = [1u32, 0, 1, 1, 0, 1, 1, 1, 1, 1];
        let fired_at = |threshold| {
            let mut f = UpFsm::new(UpPolicy::Monitor {
                threshold,
                period: 10,
            });
            f.on_return(4);
            trace.iter().position(|&i| f.on_cycle(i))
        };
        let t1 = fired_at(1).expect("threshold 1 fires");
        let t3 = fired_at(3).expect("threshold 3 fires");
        assert!(t1 < t3, "threshold 1 at {t1}, threshold 3 at {t3}");
        assert!(fired_at(5).is_none() || fired_at(5) > fired_at(3));
    }
}
