//! Edge cases of the issue-rate monitors (paper §4.2/§4.4) that the
//! unit tests in `crates/vsv/src/fsm.rs` skirt around: exact window
//! expiry, the threshold boundary, and the up-FSM's unconditional
//! sole-miss ramp-up — plus the ladder generalization's controller
//! edges: mid-ramp reversal from two levels down, chained multi-step
//! dives vs. back-to-back single-step decisions, and the degenerate
//! depth-1 ladder.

use vsv::{
    DownFsm, DownPolicy, Experiment, Mode, PolicySpec, SystemConfig, UpFsm, UpPolicy, VsvConfig,
    VsvController,
};
use vsv_mem::VsvSignal;
use vsv_workloads::twin;

// ---------- down-FSM window expiry at exactly 10 cycles ---------------

#[test]
fn down_window_survives_nine_cycles_and_expires_on_the_tenth() {
    let mut f = DownFsm::new(DownPolicy::Monitor {
        threshold: 3,
        period: 10,
    });
    f.arm();
    // Nine issuing cycles: the window is still open.
    for cycle in 0..9 {
        assert!(!f.on_cycle(4), "no trigger on issuing cycle {cycle}");
        assert!(f.is_armed(), "window open after cycle {cycle}");
    }
    assert_eq!(f.expiries(), 0, "not expired after 9 of 10 cycles");
    // The tenth monitored cycle exhausts the window.
    assert!(!f.on_cycle(4));
    assert!(!f.is_armed(), "window closes at exactly 10 cycles");
    assert_eq!(f.expiries(), 1);
    assert_eq!(f.triggers(), 0);
    // And a closed window never fires, even on a long idle run.
    for _ in 0..20 {
        assert!(!f.on_cycle(0));
    }
    assert_eq!(f.triggers(), 0);
}

#[test]
fn down_trigger_on_the_last_window_cycle_still_counts() {
    // A run that completes exactly on the window's final cycle is a
    // trigger, not an expiry: the threshold check precedes the
    // countdown.
    let mut f = DownFsm::new(DownPolicy::Monitor {
        threshold: 3,
        period: 10,
    });
    f.arm();
    for _ in 0..7 {
        assert!(!f.on_cycle(1));
    }
    assert!(!f.on_cycle(0)); // cycle 8: run = 1
    assert!(!f.on_cycle(0)); // cycle 9: run = 2
    assert!(f.on_cycle(0), "run of 3 lands on the 10th cycle");
    assert_eq!(f.triggers(), 1);
    assert_eq!(f.expiries(), 0);
}

// ---------- threshold boundary: 2 vs 3 consecutive zero-issue ---------

#[test]
fn two_zero_issue_cycles_do_not_reach_a_threshold_of_three() {
    let mut f = DownFsm::new(DownPolicy::Monitor {
        threshold: 3,
        period: 10,
    });
    f.arm();
    assert!(!f.on_cycle(0)); // run = 1
    assert!(!f.on_cycle(0)); // run = 2
    assert!(!f.on_cycle(1), "an issuing cycle resets the run");
    // Two more zeros still do not fire...
    assert!(!f.on_cycle(0));
    assert!(!f.on_cycle(0));
    // ...and the third consecutive zero does.
    assert!(f.on_cycle(0));
    assert_eq!(f.triggers(), 1);
}

#[test]
fn threshold_two_fires_where_threshold_three_does_not() {
    // The same trace distinguishes the two thresholds: exactly two
    // consecutive zero-issue cycles, then work returns.
    let trace = [1u32, 0, 0, 1, 1, 1];
    let fires = |threshold| {
        let mut f = DownFsm::new(DownPolicy::Monitor {
            threshold,
            period: 10,
        });
        f.arm();
        trace.iter().any(|&i| f.on_cycle(i))
    };
    assert!(fires(2), "threshold 2 triggers on a 2-cycle idle run");
    assert!(!fires(3), "threshold 3 holds through a 2-cycle idle run");
}

// ---------- up-FSM: sole outstanding miss returns => ramp up ----------

#[test]
fn sole_miss_return_ramps_up_unconditionally() {
    // §4.4: a return that leaves no misses outstanding transitions
    // immediately — there is nothing left to overlap with.
    let mut f = UpFsm::new(UpPolicy::Monitor {
        threshold: 3,
        period: 10,
    });
    assert!(f.on_return(0), "sole return fires with no monitoring");
    assert!(!f.is_armed());
    assert_eq!(f.triggers(), 1);
    assert_eq!(f.expiries(), 0);
}

#[test]
fn sole_miss_return_preempts_an_open_window() {
    // A monitoring window opened by an earlier return (misses still
    // outstanding) is cancelled — not completed — when the last miss
    // returns: the transition happens now.
    let mut f = UpFsm::new(UpPolicy::Monitor {
        threshold: 3,
        period: 10,
    });
    assert!(!f.on_return(2), "misses remain: monitor instead of firing");
    assert!(f.is_armed());
    assert!(!f.on_cycle(0), "idle: the window makes no progress");
    assert!(f.on_return(0), "last return fires regardless of the window");
    assert!(!f.is_armed(), "the pending window is gone");
    assert_eq!(f.triggers(), 1);
    // The dead window cannot fire afterwards.
    for _ in 0..10 {
        assert!(!f.on_cycle(4));
    }
    assert_eq!(f.triggers(), 1);
}

#[test]
fn sole_miss_rule_is_policy_independent_for_monitors() {
    // Whatever the threshold, on_return(0) is unconditional.
    for threshold in [1, 3, 5] {
        let mut f = UpFsm::new(UpPolicy::Monitor {
            threshold,
            period: 10,
        });
        assert!(f.on_return(0), "threshold {threshold}");
    }
}

// ---------- ladder controller edges -----------------------------------

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

/// Drives the controller for `ns` ticks with a fixed issue rate and
/// outstanding count; returns the per-nanosecond modes.
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

/// Number of distinct entries into `mode` along a per-nanosecond mode
/// sequence (maximal runs, not total residency).
fn entries(modes: &[Mode], mode: Mode) -> usize {
    let mut n = 0;
    let mut prev = None;
    for &m in modes {
        if m == mode && prev != Some(mode) {
            n += 1;
        }
        prev = Some(m);
    }
    n
}

/// A miss returning while the supply is ramping toward level 2 of a
/// depth-4 ladder reverses the descent mid-flight: the in-flight step
/// completes (the timeline is never abandoned), then the controller
/// climbs back to VDDH without ever touching the ladder's bottom.
#[test]
fn mid_ramp_reversal_two_levels_down_returns_to_high() {
    let cfg = VsvConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4);
    let mut c = VsvController::new(cfg);
    c.observe(&detected(0));
    // Idle pipeline, one outstanding miss: descend step by step until
    // the 1→2 step's ramp is in flight (mode RampDown with the settled
    // level still 1).
    let mut now = 0;
    while !(c.mode() == Mode::RampDown && c.level() == 1) {
        drive(&mut c, now, 1, 0, 1);
        now += 1;
        assert!(now < 100, "never reached the 1→2 ramp");
    }
    assert_eq!(c.stats().down_transitions, 2, "two steps started");
    // The sole outstanding miss returns mid-ramp: reversal.
    c.observe(&returned(now, 0));
    let modes = drive(&mut c, now, 40, 4, 0);
    assert_eq!(*modes.last().expect("nonempty"), Mode::High);
    assert_eq!(c.level(), 0, "settled back at VDDH");
    let stats = c.stats();
    assert_eq!(
        stats.down_transitions, 2,
        "the reversal must not start another down step"
    );
    assert_eq!(
        stats.up_transitions, 2,
        "two up steps climb back from level 2"
    );
    // The interrupted descent still paid for both of its ramps, and
    // the climb pays two more: four quarter-ish steps of the d4
    // ladder's per-step charges.
    let mut total = 0.0;
    c.drain_ramp_scales(|s| total += s);
    assert!(
        (total - 4.0 / 3.0).abs() < 1e-9,
        "4 one-step ramps on the uniform depth-4 ladder, got {total}"
    );
}

/// One `Level(bottom)` decision dives the whole depth-3 ladder as a
/// chained sequence — a single control-distribution phase, then
/// back-to-back ramps — while two independently-decided single-level
/// steps pay the control latency (and the evidence wait) per step.
/// Both routes charge the same total ramp energy: the full swing.
#[test]
fn chained_double_step_outruns_back_to_back_single_steps() {
    // Route A: `always-low` emits one Level(2) on the first tick.
    let mut chained =
        VsvController::new(VsvConfig::with_policy(PolicySpec::AlwaysLow).with_ladder_depth(3));
    let modes = drive(&mut chained, 0, 20, 0, 1);
    // 4 ns distribute (control + clock retiming off full speed), 6 ns
    // ramp, settle at level 1, then the chained step enters its ramp
    // directly: no second distribute phase.
    assert_eq!(modes[0], Mode::DownDistribute);
    assert_eq!(modes[3], Mode::DownDistribute);
    assert_eq!(modes[4], Mode::RampDown);
    assert_eq!(modes[15], Mode::RampDown);
    assert_eq!(modes[16], Mode::Low);
    assert_eq!(chained.level(), 2, "settled at the ladder bottom");
    let a = chained.stats();
    assert_eq!(a.down_transitions, 2);
    // The chained continuation never re-enters a distribute phase:
    // one decision, one distribution.
    assert_eq!(entries(&modes, Mode::DownDistribute), 1);
    assert_eq!(
        a.ns_in_mode[Mode::RampDown.index()],
        12,
        "6 + 6 ns of ramps"
    );

    // Route B: `ladder-fsm` re-earns each step with fresh evidence —
    // two separate decisions, two distribute phases.
    let mut stepped =
        VsvController::new(VsvConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(3));
    stepped.observe(&detected(0));
    let mut modes_b = Vec::new();
    let mut settle_b = None;
    for now in 0..60 {
        modes_b.extend(drive(&mut stepped, now, 1, 0, 1));
        if settle_b.is_none() && stepped.level() == 2 {
            settle_b = Some(now);
        }
    }
    let settle_b = settle_b.expect("ladder-fsm reaches the bottom");
    assert!(
        settle_b > 16,
        "independent decisions cannot beat the chained dive (settled at {settle_b} ns)"
    );
    let b = stepped.stats();
    assert_eq!(b.down_transitions, 2);
    assert_eq!(
        entries(&modes_b, Mode::DownDistribute),
        2,
        "each independent decision pays its own control distribution"
    );
    // Same destination, same total charge: two half-swing ramps.
    let (mut ea, mut eb) = (0.0, 0.0);
    chained.drain_ramp_scales(|s| ea += s);
    stepped.drain_ramp_scales(|s| eb += s);
    assert!((ea - 1.0).abs() < 1e-9, "route A charged {ea} of the swing");
    assert!((eb - 1.0).abs() < 1e-9, "route B charged {eb} of the swing");
}

/// On the degenerate depth-1 ladder there is nowhere to go:
/// `ladder-fsm` is exactly `always-high`, from the controller's mode
/// sequence up to a full simulated run.
#[test]
fn depth_1_ladder_fsm_is_identical_to_always_high() {
    // Controller level: same signals, same idle pipeline — never
    // leaves High, never charges a ramp.
    let mut c =
        VsvController::new(VsvConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(1));
    c.observe(&detected(0));
    let modes = drive(&mut c, 0, 50, 0, 2);
    assert!(modes.iter().all(|m| *m == Mode::High));
    assert_eq!(c.take_ramps(), 0);
    assert_eq!(c.stats().down_transitions, 0);

    // System level: bit-identical results on a memory-bound twin.
    let params = twin("mcf").expect("twin exists");
    let e = Experiment::quick();
    let ladder = e
        .try_run(
            &params,
            SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(1),
        )
        .expect("run");
    let high = e
        .try_run(&params, SystemConfig::with_policy(PolicySpec::AlwaysHigh))
        .expect("run");
    assert_eq!(
        ladder.elapsed_ns, high.elapsed_ns,
        "depth-1 ladder changed the execution time"
    );
    assert_eq!(
        ladder.energy_pj, high.energy_pj,
        "depth-1 ladder changed the energy"
    );
    assert_eq!(ladder.mode, high.mode, "depth-1 ladder left High");
}
