//! The N-level voltage ladder's backward-compatibility contract: the
//! paper's two-rail configuration is the depth-2 ladder, *bit for
//! bit*. `ladder-fsm` on a depth-2 ladder must reproduce the dual-FSM
//! controller exactly — same cycles, same energy, same per-nanosecond
//! mode trace, same sweep-report digest — serially, under any worker
//! count, and with quiescent fast-forward on or off. There is no
//! legacy two-rail code path to fall back on, so this suite is what
//! keeps the generalization honest.
//!
//! Malformed ladders are rejected up front by
//! [`SystemConfig::validate`] as typed [`SimError::InvalidConfig`]
//! errors; the negative half of this suite pins that.

use vsv::{
    Experiment, ModeTrace, PolicySpec, RunResult, SimError, Sweep, SweepReport, System,
    SystemConfig, TraceLevel, VoltageLadder,
};
use vsv_workloads::{twin, Generator, WorkloadParams};

const TRACE_CAP: usize = 1 << 16;

/// Twins spanning memory-bound (mcf, art, ammp) to compute-bound
/// (gzip, mesa) behaviour — the same mix `tests/policy_equivalence.rs`
/// pins the policy layer on.
const TWIN_MIX: [&str; 5] = ["mcf", "art", "ammp", "gzip", "mesa"];

/// The dual-FSM reference configuration (the paper's controller).
fn dual_fsm() -> SystemConfig {
    SystemConfig::vsv_with_fsms()
}

/// `ladder-fsm` on the uniform depth-2 ladder — which *is* the paper's
/// two rails ([`VoltageLadder::uniform`] pins the endpoints exactly).
fn ladder_depth_2() -> SystemConfig {
    SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(2)
}

fn run(params: &WorkloadParams, cfg: SystemConfig) -> RunResult {
    Experiment::quick().try_run(params, cfg).expect("run")
}

/// Runs with mode tracing on and the given fast-forward setting.
fn run_traced(
    params: WorkloadParams,
    cfg: SystemConfig,
    fast_forward: bool,
) -> (RunResult, ModeTrace) {
    let e = Experiment::quick();
    let mut sys = System::try_new(cfg.with_fast_forward(fast_forward), Generator::new(params))
        .expect("valid config");
    sys.set_workload_name(params.name);
    let trace = ModeTrace::new(TRACE_CAP);
    sys.set_event_sink(TraceLevel::Full, Box::new(trace.clone()));
    sys.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = sys.try_run(e.instructions).expect("run");
    (result, trace)
}

/// Cycles and energy: the depth-2 ladder reproduces the dual-FSM
/// controller exactly on every twin in the mix.
#[test]
fn depth_2_ladder_is_bit_identical_to_dual_fsm() {
    for name in TWIN_MIX {
        let params = twin(name).expect("twin exists");
        let dual = run(&params, dual_fsm());
        let ladder = run(&params, ladder_depth_2());
        assert_eq!(
            dual, ladder,
            "depth-2 ladder diverged from dual-fsm on {name}"
        );
    }
}

/// The per-nanosecond mode trace matches too — the transitions happen
/// at the same instants, not merely with the same totals — with
/// fast-forward both on and off.
#[test]
fn depth_2_ladder_mode_trace_matches_dual_fsm() {
    for fast_forward in [true, false] {
        let params = twin("mcf").expect("twin exists");
        let (dual, dual_trace) = run_traced(params, dual_fsm(), fast_forward);
        let (ladder, ladder_trace) = run_traced(params, ladder_depth_2(), fast_forward);
        assert_eq!(
            dual, ladder,
            "RunResult diverged (fast_forward = {fast_forward})"
        );
        assert_eq!(
            dual_trace, ladder_trace,
            "ModeTrace diverged (fast_forward = {fast_forward})"
        );
    }
}

/// An explicitly-constructed two-rail ladder behaves identically to
/// the default ladder on the dual-FSM path (no parallel legacy path:
/// the default *is* a ladder).
#[test]
fn explicit_paper_rails_match_the_default_configuration() {
    let params = twin("ammp").expect("twin exists");
    let default_cfg = dual_fsm();
    let mut explicit = dual_fsm();
    explicit.vsv = explicit
        .vsv
        .with_ladder(VoltageLadder::from_points(&[1.8, 1.2]));
    assert_eq!(run(&params, default_cfg), run(&params, explicit));
}

// ---- sweep-report digest --------------------------------------------

/// FNV-1a over a serialized report (the digest
/// `tests/sweep_report_golden.rs` pins its golden with).
fn digest(json: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Normalizes a report for cross-policy comparison: host wall-clock
/// zeroed (non-deterministic), the worker count blanked (an input, not
/// a result), policy names and config digests blanked (they differ by
/// construction — `"ladder-fsm"` vs `"dual-fsm"` — while everything
/// *simulated* must not).
fn normalized_json(mut report: SweepReport) -> String {
    report.wall_ns = 0;
    report.workers = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
        r.policy = String::new();
        r.config_digest = String::new();
    }
    serde_json::to_string_pretty(&report).expect("report serializes")
}

fn mix_params() -> Vec<WorkloadParams> {
    TWIN_MIX
        .iter()
        .map(|n| twin(n).expect("twin exists"))
        .collect()
}

/// The full sweep report — outcomes, metrics registries, ladder depth
/// fields — digests identically for the two constructions, serially
/// and under four workers.
#[test]
fn sweep_report_digest_matches_dual_fsm_at_any_worker_count() {
    let params = mix_params();
    let dual = Sweep::over_grid(Experiment::quick(), &params, &[dual_fsm()]);
    let ladder = Sweep::over_grid(Experiment::quick(), &params, &[ladder_depth_2()]);
    let dual_serial = normalized_json(dual.report(1));
    let ladder_serial = normalized_json(ladder.report(1));
    assert_eq!(
        digest(&dual_serial),
        digest(&ladder_serial),
        "serial sweep reports diverged"
    );
    let ladder_parallel = normalized_json(ladder.report(4));
    assert_eq!(
        digest(&ladder_serial),
        digest(&ladder_parallel),
        "worker count changed the ladder sweep report"
    );
}

// ---- malformed ladders are typed configuration errors ---------------

/// Builds the dual-FSM configuration on an arbitrary (possibly bad)
/// ladder.
fn cfg_with_ladder(points: &[f64]) -> SystemConfig {
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv = cfg.vsv.with_ladder(VoltageLadder::from_points(points));
    cfg
}

#[test]
fn malformed_ladders_are_rejected_as_invalid_config() {
    let bad: [(&str, &[f64]); 5] = [
        ("depth 0", &[]),
        ("unsorted", &[1.8, 1.4, 1.6, 1.2]),
        ("duplicate", &[1.8, 1.5, 1.5, 1.2]),
        ("top off VDDH", &[1.7, 1.2]),
        ("below VDDL", &[1.8, 1.5, 0.9]),
    ];
    for (what, points) in bad {
        let cfg = cfg_with_ladder(points);
        let err = cfg.validate().expect_err(what);
        assert!(
            matches!(err, SimError::InvalidConfig { .. }),
            "{what}: expected InvalidConfig, got {err:?}"
        );
        // The fallible constructor surfaces the same typed error.
        let params = twin("gzip").expect("twin exists");
        let built = System::try_new(cfg, Generator::new(params));
        assert!(
            matches!(built, Err(SimError::InvalidConfig { .. })),
            "{what}: System::try_new must reject the ladder"
        );
    }
}

#[test]
fn well_formed_ladders_pass_validation_at_every_depth() {
    for depth in 1..=vsv::MAX_LADDER_DEPTH {
        let cfg = SystemConfig::vsv_with_fsms().with_ladder_depth(depth);
        cfg.validate().expect("uniform ladders are always valid");
    }
}
