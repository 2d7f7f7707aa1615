//! The multicore backward-compatibility contract: a one-core
//! [`MulticoreSystem`] — one voltage domain over the shared fabric —
//! reproduces the plain single-core [`System`] *bit for bit* (same
//! cycles, same energy, same per-nanosecond mode trace), and the
//! runner's `--cores 1` path is byte-identical to the pre-multicore
//! path with fast-forward on or off. There is no legacy single-core
//! fabric to fall back on when `cores == 1` reaches the shared code,
//! so this suite is what keeps the lift honest.
//!
//! The N = 2 half pins the new behaviour: lockstep runs are
//! deterministic, chip results carry one window per core, and two
//! memory-bound co-runners on one L2 really do contend (each core's
//! window is no shorter than its solo run).

use vsv::{
    Experiment, ModeTrace, MulticoreSystem, PolicySpec, RunResult, SimError, Sweep, SweepReport,
    System, SystemConfig,
};
use vsv_workloads::{twin, Generator, WorkloadParams};

const TRACE_CAP: usize = 1 << 16;

/// Memory-bound and compute-bound twins, the mix the policy and
/// ladder equivalence suites pin on.
const TWIN_MIX: [&str; 5] = ["mcf", "art", "ammp", "gzip", "mesa"];

/// The policies whose decision state must survive the lift untouched:
/// the paper's dual FSMs, the N-level generalization, and the oracle
/// upper bound.
fn policies() -> [SystemConfig; 3] {
    [
        SystemConfig::vsv_with_fsms(),
        SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(3),
        SystemConfig::with_policy(PolicySpec::OracleDown),
    ]
}

/// Plain single-core reference: trace on, nanosecond-stepped
/// (the multicore lockstep loop never fast-forwards, so the
/// bit-identity claim is against the stepped path).
fn run_plain(params: WorkloadParams, cfg: SystemConfig) -> (RunResult, ModeTrace) {
    let e = Experiment::quick();
    let mut sys = System::try_new(cfg.with_fast_forward(false), Generator::new(params))
        .expect("valid config");
    sys.set_workload_name(params.name);
    sys.enable_trace(TRACE_CAP);
    sys.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = sys.try_run(e.instructions).expect("run");
    let trace = sys.take_trace().expect("tracing was on");
    (result, trace)
}

/// The same run through a one-domain chip.
fn run_chip_of_1(params: &WorkloadParams, cfg: SystemConfig) -> (RunResult, ModeTrace) {
    let e = Experiment::quick();
    let mut chip = MulticoreSystem::try_new(cfg.with_fast_forward(false).with_cores(1), params)
        .expect("valid one-core config");
    chip.enable_traces(TRACE_CAP);
    chip.try_warm_up(e.warmup_instructions).expect("warm-up");
    let result = chip.try_run(e.instructions).expect("run");
    let trace = chip
        .take_traces()
        .pop()
        .flatten()
        .expect("tracing was on for core 0");
    (result, trace)
}

/// Strips the two fields that differ *by construction* at N = 1: the
/// chip aggregate carries the per-core window vector, and per-core
/// streams are suffixed `#0`. Everything simulated must match.
fn normalized(mut r: RunResult) -> RunResult {
    r.core_results.clear();
    r.workload = r.workload.replace("#0", "");
    r
}

/// Cycles, energy, mode residency, histograms: the one-core chip
/// reproduces the plain system exactly under every policy whose
/// decisions could have been perturbed by the shared fabric.
#[test]
fn one_core_chip_is_bit_identical_to_plain_system() {
    for cfg in policies() {
        for name in TWIN_MIX {
            let params = twin(name).expect("twin exists");
            let (plain, plain_trace) = run_plain(params, cfg);
            let (chip, chip_trace) = run_chip_of_1(&params, cfg);
            assert_eq!(chip.core_results.len(), 1, "one window per core");
            assert_eq!(
                normalized(chip.core_results[0].clone()),
                normalized(plain.clone()),
                "core-0 window diverged from the plain system on {name} ({:?})",
                cfg.vsv.policy
            );
            assert_eq!(
                normalized(chip),
                normalized(plain),
                "chip aggregate diverged from the plain system on {name} ({:?})",
                cfg.vsv.policy
            );
            assert_eq!(
                chip_trace, plain_trace,
                "per-nanosecond mode trace diverged on {name} ({:?})",
                cfg.vsv.policy
            );
        }
    }
}

/// The runner's dispatch: `--cores 1` takes the pre-multicore path,
/// so results are byte-identical with fast-forward on or off.
#[test]
fn runner_with_cores_1_is_byte_identical() {
    for fast_forward in [true, false] {
        for name in ["mcf", "gzip"] {
            let params = twin(name).expect("twin exists");
            let cfg = SystemConfig::vsv_with_fsms().with_fast_forward(fast_forward);
            let before = Experiment::quick().try_run(&params, cfg).expect("run");
            let after = Experiment::quick()
                .try_run(&params, cfg.with_cores(1))
                .expect("run");
            assert_eq!(
                before, after,
                "cores = 1 changed the runner output on {name} (fast_forward = {fast_forward})"
            );
        }
    }
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

/// Host wall-clock and the worker count are inputs, not results.
fn normalized_json(mut report: SweepReport) -> String {
    report.wall_ns = 0;
    report.workers = 0;
    for r in &mut report.records {
        r.wall_ns = 0;
    }
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// A multicore sweep — every record tagged with its `cores` — digests
/// identically serially and under four workers.
#[test]
fn multicore_sweep_digest_is_worker_count_independent() {
    let params: Vec<WorkloadParams> = TWIN_MIX
        .iter()
        .map(|n| twin(n).expect("twin exists"))
        .collect();
    let sweep = Sweep::over_cores(
        Experiment::quick(),
        &params,
        SystemConfig::vsv_with_fsms(),
        &[1, 2],
    );
    let serial = normalized_json(sweep.report(1));
    let parallel = normalized_json(sweep.report(4));
    assert_eq!(
        digest(&serial),
        digest(&parallel),
        "worker count changed the multicore sweep report"
    );
    assert!(
        serial.contains("\"cores\": 2"),
        "records must carry the cores axis"
    );
}

// ---- N = 2: determinism and real contention -------------------------

/// Two identical lockstep runs produce identical chips, and the chip
/// carries one window per core.
#[test]
fn two_core_runs_are_deterministic() {
    let params = twin("mcf").expect("twin exists");
    let e = Experiment::quick();
    let run = || -> RunResult {
        let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
        let mut chip = MulticoreSystem::try_new(cfg, &params).expect("valid config");
        chip.try_warm_up(e.warmup_instructions).expect("warm-up");
        chip.try_run(e.instructions).expect("run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "lockstep must be deterministic");
    assert_eq!(a.core_results.len(), 2, "one window per core");
    assert_eq!(
        a.instructions,
        a.core_results.iter().map(|c| c.instructions).sum::<u64>(),
        "chip instructions are the sum of the per-core windows"
    );
}

/// Sharing one L2 is not free: each memory-bound co-runner's measured
/// window is at least as long as its solo (one-core chip) run, and
/// the pair's combined L2 pressure shows somewhere (at least one core
/// strictly slower than solo).
#[test]
fn two_memory_bound_cores_contend_on_the_shared_l2() {
    let params = twin("mcf").expect("twin exists");
    let e = Experiment::quick();
    let cfg = SystemConfig::vsv_with_fsms().with_fast_forward(false);
    let (solo, _) = run_chip_of_1(&params, cfg);
    let mut chip =
        MulticoreSystem::try_new(cfg.with_cores(2), &params).expect("valid two-core config");
    chip.try_warm_up(e.warmup_instructions).expect("warm-up");
    let shared = chip.try_run(e.instructions).expect("run");
    // Core 0 of the pair runs the *same stream* as the solo chip
    // (per-core reseeding starts at the base seed), so its window is
    // directly comparable.
    let core0 = &shared.core_results[0];
    assert!(
        core0.elapsed_ns >= solo.elapsed_ns,
        "contended core finished faster than solo ({} < {} ns)",
        core0.elapsed_ns,
        solo.elapsed_ns
    );
    assert!(
        shared
            .core_results
            .iter()
            .any(|c| c.elapsed_ns > solo.elapsed_ns),
        "two mcf streams on one L2 showed no contention at all"
    );
}

/// The typed rejection: a heterogeneous chip needs exactly one
/// parameter point per core.
#[test]
fn heterogeneous_chip_rejects_mismatched_parameter_lists() {
    let cfg = SystemConfig::vsv_with_fsms().with_cores(2);
    let one = [twin("mcf").expect("twin exists")];
    let err = MulticoreSystem::try_new_heterogeneous(cfg, &one).expect_err("1 point, 2 cores");
    assert!(
        matches!(err, SimError::InvalidConfig { .. }),
        "expected InvalidConfig, got {err:?}"
    );
}
