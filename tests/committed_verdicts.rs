//! The claims the committed data artifacts make hold in the committed
//! files themselves. Each `BENCH_NAME.json` records its verdicts as
//! booleans, and CI regenerates every file byte for byte with
//! `vsv-cli reproduce NAME --json`, so asserting the committed values
//! here gates each claim at the scale it is stated at:
//!
//! * reliability (DESIGN.md §13.5): on at least one memory-bound twin,
//!   `error-backoff` closes half the retry-rate gap and keeps half the
//!   saving;
//! * traffic (DESIGN.md §14.5): at some bursty load point `always-high`
//!   meets a tail SLO that `dual-fsm` violates while `dual-fsm` keeps
//!   half its closed-loop saving;
//! * multicore: every memory-bound twin saves power at 1, 2 and 4
//!   cores against the equally contended baseline;
//! * ladder: a depth above 2 beats `dual-fsm`'s EDP on some
//!   memory-bound twin; the ladder out-saves `dual-fsm` on average,
//!   and `dual-fsm` costs at most `immediate-down`'s mean slowdown.

use std::path::PathBuf;

use serde_json::Value;

fn artifact(name: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {name}: {e:?}"))
}

/// The boolean `key` of `report`; absence or another shape fails.
fn verdict(report: &Value, key: &str) -> bool {
    report
        .get(key)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("no boolean `{key}`"))
}

#[test]
fn committed_artifacts_hold_their_verdicts() {
    let reliability = artifact("reliability");
    assert!(
        verdict(&reliability, "frontier_holds_somewhere"),
        "reliability frontier: {:?}",
        reliability.get("frontier")
    );

    let traffic = artifact("traffic");
    assert!(
        verdict(&traffic, "tension_holds_somewhere"),
        "traffic tension: {:?}",
        traffic.get("points")
    );

    let multicore = artifact("multicore");
    assert!(
        verdict(&multicore, "chip_saving_positive_everywhere"),
        "multicore saving: {:?}",
        multicore.get("records")
    );
    let counts: Vec<u64> = multicore
        .get("core_counts")
        .and_then(Value::as_array)
        .expect("core_counts")
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    assert_eq!(counts, [1, 2, 4]);
    let correlation = multicore.get("correlation").and_then(Value::as_array);
    assert!(correlation.is_some_and(|c| !c.is_empty()), "no correlation");
    let fairness = multicore
        .get("fairness")
        .and_then(|f| f.get("fairness_index"))
        .and_then(Value::as_f64)
        .expect("fairness_index");
    assert!(fairness > 0.0, "fairness index {fairness}");

    let ladder = artifact("ladder");
    assert!(
        verdict(&ladder, "deep_ladder_wins_somewhere"),
        "ladder frontier: {:?}",
        ladder.get("frontier")
    );
    assert!(
        verdict(&ladder, "savings_ordering_holds"),
        "ladder savings: {:?}",
        ladder.get("mean_saving_pct")
    );
}
