//! The policy counters of a [`RunResult`] are window counts.
//!
//! `down_triggers`, `down_expiries`, `up_triggers` and `up_expiries`
//! count the FSM decisions of the measured window only, like every
//! other `RunResult` field and like the window's `PolicyDownFires` /
//! `PolicyDownDeclines` / `PolicyUpFires` / `PolicyUpDeclines`
//! metrics. A long warm-up under a diving policy must not leak its
//! decisions into them. mcf under `dual-fsm` with a 20 000-instruction
//! warm-up fires the down-FSM hundreds of times before a
//! 3 000-instruction window that fires it only a few dozen times.

use vsv::{CounterId, Experiment, MetricsRegistry, RunResult, SystemConfig};
use vsv_workloads::twin;

fn run(cores: usize) -> (RunResult, MetricsRegistry) {
    let e = Experiment {
        warmup_instructions: 20_000,
        instructions: 3_000,
    };
    let cfg = SystemConfig::vsv_with_fsms().with_cores(cores);
    e.try_run_with_metrics(&twin("mcf").expect("twin exists"), cfg)
        .expect("run")
}

fn assert_window_counts(cores: usize) -> RunResult {
    let (r, m) = run(cores);
    assert!(
        m.get(CounterId::PolicyDownFires) > 0,
        "{cores} core(s): the window never dives"
    );
    assert_eq!(
        [
            r.down_triggers,
            r.down_expiries,
            r.up_triggers,
            r.up_expiries
        ],
        [
            m.get(CounterId::PolicyDownFires),
            m.get(CounterId::PolicyDownDeclines),
            m.get(CounterId::PolicyUpFires),
            m.get(CounterId::PolicyUpDeclines),
        ],
        "{cores} core(s): RunResult policy counts are not the window's"
    );
    r
}

#[test]
fn single_core_policy_counts_are_window_counts() {
    assert_window_counts(1);
}

#[test]
fn chip_policy_counts_are_window_counts() {
    let r = assert_window_counts(2);
    let per_core: u64 = r.core_results.iter().map(|c| c.down_triggers).sum();
    assert_eq!(r.down_triggers, per_core);
}
