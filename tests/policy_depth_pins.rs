//! Pins `dual-fsm` and `immediate-down` on ladders other than the
//! paper's two rails.
//!
//! `sweep --ladder N` without `--policy` runs `dual-fsm` on a depth-N
//! ladder, where it only ever uses the top step (VDDH ↔ level 1) and,
//! on a depth-1 ladder, fires ramp-downs the controller drops because
//! there is nowhere to go. `tests/ladder_equivalence.rs` covers depth 2
//! only, so this suite fixes the simulated outcome at depths 1, 3 and
//! 4 on one memory-bound twin (mcf) and one compute-bound twin (gzip):
//! the [`RunResult`], the cumulative [`PolicyStats`], and the bytes of
//! an events-level trace of the measured window. `error-backoff` on a
//! depth-1 ladder wraps the same floor-1 FSM policy, so with the error
//! model off it is pinned to the depth-1 `dual-fsm` values. Any change
//! to how the policy layer builds these policies must leave every value
//! here untouched.

use vsv::{
    Experiment, JsonlSink, PolicySpec, PolicyStats, RunResult, SharedBuf, System, SystemConfig,
    TraceLevel,
};
use vsv_workloads::{twin, Generator};
use PolicySpec::{DualFsm, ErrorBackoff, ImmediateDown};

fn experiment() -> Experiment {
    Experiment {
        warmup_instructions: 10_000,
        instructions: 30_000,
    }
}

/// FNV-1a, the digest the sweep-report golden uses.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one cell pins: a digest of the `RunResult` (its `Debug` form
/// prints every float exactly), the cumulative policy counters
/// (down triggers, down expiries, up triggers, up expiries), and a
/// digest of the events-level JSONL trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    result: u64,
    stats: [u64; 4],
    trace: u64,
}

const fn pin(result: u64, stats: [u64; 4], trace: u64) -> Pin {
    Pin {
        result,
        stats,
        trace,
    }
}

/// Runs one cell with an events-level trace of the measured window.
fn observe(name: &str, policy: PolicySpec, depth: usize) -> Pin {
    let e = experiment();
    let params = twin(name).expect("twin exists");
    let cfg = SystemConfig::with_policy(policy).with_ladder_depth(depth);
    let mut sys = System::try_new(cfg, Generator::new(params)).expect("valid config");
    sys.set_workload_name(params.name);
    sys.try_warm_up(e.warmup_instructions).expect("warm-up");
    let buf = SharedBuf::default();
    sys.set_event_sink(TraceLevel::Events, Box::new(JsonlSink::new(buf.clone())));
    let result: RunResult = sys.try_run(e.instructions).expect("measured window");
    drop(sys.take_event_sink());
    let PolicyStats {
        down_triggers,
        down_expiries,
        up_triggers,
        up_expiries,
        backoff_engagements,
        backoff_vetoes,
    } = sys.controller().policy_stats();
    assert_eq!((backoff_engagements, backoff_vetoes), (0, 0));
    let trace = buf.take();
    assert!(
        !trace.is_empty(),
        "{name}/{}/d{depth}: empty trace",
        policy.name()
    );
    Pin {
        result: fnv(format!("{result:?}").as_bytes()),
        stats: [down_triggers, down_expiries, up_triggers, up_expiries],
        trace: fnv(&trace),
    }
}

/// (twin, policy, ladder depth, pinned outcome).
#[rustfmt::skip]
const PINS: [(&str, PolicySpec, usize, Pin); 14] = [
    ("mcf", DualFsm, 1, pin(0xda7997c980959146, [34717, 164, 0, 0], 0x6c0106d52ab7f0f6)),
    ("mcf", DualFsm, 3, pin(0xd155340ace93e3e0, [940, 23, 915, 331], 0x7fd92d71770879fc)),
    ("mcf", DualFsm, 4, pin(0xcd42800fbb542812, [958, 38, 935, 348], 0xdaa86993813cea22)),
    ("mcf", ImmediateDown, 1, pin(0x1e904ee1829003f5, [2687, 0, 0, 0], 0x477ba6a0fa98dff0)),
    ("mcf", ImmediateDown, 3, pin(0xd038a80cd94c9f36, [1761, 0, 1665, 0], 0xba0a43a4d9f7f1a0)),
    ("mcf", ImmediateDown, 4, pin(0xc2ee8499ec361b3c, [2061, 0, 1917, 0], 0x249cc0c8cf5e1fa1)),
    ("gzip", DualFsm, 1, pin(0x90e5b2f7badabf1e, [5821, 6, 0, 0], 0xa638803c21f59e3d)),
    ("gzip", DualFsm, 3, pin(0x52118f02e1818981, [139, 0, 138, 54], 0xd0a4fe3dfec65f27)),
    ("gzip", DualFsm, 4, pin(0xe14384e7f830f00d, [140, 1, 139, 53], 0xf61d008dff6c4c1e)),
    ("gzip", ImmediateDown, 1, pin(0xdb1448c8089f16d4, [337, 0, 0, 0], 0x965c5c4121f301a3)),
    ("gzip", ImmediateDown, 3, pin(0xd23fc29e26a7d426, [262, 0, 238, 0], 0xe98ede1393ec1620)),
    ("gzip", ImmediateDown, 4, pin(0x90a0d3713fdb3ebf, [297, 0, 263, 0], 0x9fe4c3e7638fdabc)),
    ("mcf", ErrorBackoff, 1, pin(0xda7997c980959146, [34717, 164, 0, 0], 0x6c0106d52ab7f0f6)),
    ("gzip", ErrorBackoff, 1, pin(0x90e5b2f7badabf1e, [5821, 6, 0, 0], 0xa638803c21f59e3d)),
];

/// Every pinned cell reproduces exactly. Mismatches are collected and
/// reported together, with the observed values, before failing.
#[test]
fn fsm_policies_are_pinned_off_depth_2() {
    let mut diverged = Vec::new();
    for (name, policy, depth, pinned) in PINS {
        let seen = observe(name, policy, depth);
        if seen != pinned {
            diverged.push(format!(
                "(\"{name}\", {policy:?}, {depth}, pin({:#x}, {:?}, {:#x})),",
                seen.result, seen.stats, seen.trace
            ));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

/// The depth-1 dual-fsm cells exercise the dropped ramp-downs: the
/// down-FSM fires on mcf, yet the supply never leaves VDDH.
#[test]
fn depth_1_dual_fsm_fires_without_moving_the_supply() {
    let pin = observe("mcf", DualFsm, 1);
    assert!(pin.stats[0] > 0, "down-FSM never fired on mcf: {pin:?}");
    let cfg = SystemConfig::with_policy(DualFsm).with_ladder_depth(1);
    let r = experiment()
        .try_run(&twin("mcf").expect("twin exists"), cfg)
        .expect("run");
    assert_eq!(
        (r.mode.down_transitions, r.mode.up_transitions),
        (0, 0),
        "a depth-1 ladder has no step"
    );
}
