//! Proves the quiescent-stall fast-forward is an *exact* optimisation:
//! with `SystemConfig::fast_forward` on or off, every workload in the
//! suite produces bit-identical [`RunResult`]s and bit-identical
//! per-nanosecond [`ModeTrace`]s, across the configuration grids of
//! all the bench bins (figure4/5/6/7, headline, table2, ablations) and
//! both FSM-threshold variants. Also pins the batch catch-up
//! primitives (FSM window drain, idle-cycle power accounting, leakage
//! span, controller edge math) against their per-cycle references.

use vsv::{
    DownPolicy, ModeTrace, PolicySpec, RunResult, System, SystemConfig, TraceLevel, UpPolicy,
    VsvController,
};
use vsv_power::{ActivitySample, PowerAccountant, PowerConfig};
use vsv_workloads::{high_mr_names, spec2k_twins, twin, WorkloadParams};

const WARMUP: u64 = 5_000;
const INSTS: u64 = 15_000;
const TRACE_CAP: usize = 1 << 16;

/// Runs `params` under `cfg` with the given fast-forward setting and
/// returns the measured window plus the full mode trace.
fn run_one(
    params: WorkloadParams,
    cfg: SystemConfig,
    fast_forward: bool,
) -> (RunResult, ModeTrace) {
    let mut sys = System::try_new(
        cfg.with_fast_forward(fast_forward),
        vsv_workloads::Generator::new(params),
    )
    .expect("valid config");
    sys.set_workload_name(params.name);
    let trace = ModeTrace::new(TRACE_CAP);
    sys.set_event_sink(TraceLevel::Full, Box::new(trace.clone()));
    sys.try_warm_up(WARMUP).expect("warm-up");
    let result = sys.try_run(INSTS).expect("run");
    (result, trace)
}

/// Asserts bit-identical results and traces for one (workload, config)
/// cell.
fn assert_equivalent(params: WorkloadParams, cfg: SystemConfig, label: &str) {
    let (on, trace_on) = run_one(params, cfg, true);
    let (off, trace_off) = run_one(params, cfg, false);
    assert_eq!(
        on, off,
        "RunResult diverged for {} under {label}",
        params.name
    );
    assert_eq!(
        trace_on, trace_off,
        "ModeTrace diverged for {} under {label}",
        params.name
    );
}

/// Figure 4 / headline / table2 grid: every SPEC2K twin under the
/// baseline and both FSM variants.
#[test]
fn all_twins_equivalent_under_core_configs() {
    for params in spec2k_twins() {
        assert_equivalent(params, SystemConfig::baseline(), "baseline");
        assert_equivalent(
            params,
            SystemConfig::with_policy(PolicySpec::ImmediateDown),
            "vsv-without-fsms",
        );
        assert_equivalent(params, SystemConfig::vsv_with_fsms(), "vsv-with-fsms");
    }
}

/// Figure 5 grid: down-policy thresholds 0/1/3/5 on high-MR twins.
#[test]
fn down_policy_grid_equivalent() {
    let twins: Vec<_> = high_mr_names()
        .iter()
        .take(3)
        .map(|n| twin(n).expect("high-MR twin exists"))
        .collect();
    let downs = [
        DownPolicy::Immediate,
        DownPolicy::Monitor {
            threshold: 1,
            period: 10,
        },
        DownPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        DownPolicy::Monitor {
            threshold: 5,
            period: 10,
        },
    ];
    for params in &twins {
        for down in downs {
            let mut cfg = SystemConfig::vsv_with_fsms();
            cfg.vsv.down = down;
            assert_equivalent(*params, cfg, &format!("down={down:?}"));
        }
    }
}

/// Figure 6 grid: up-policies First-R / Last-R / monitored 1/3/5 on
/// high-MR twins.
#[test]
fn up_policy_grid_equivalent() {
    let twins: Vec<_> = high_mr_names()
        .iter()
        .take(3)
        .map(|n| twin(n).expect("high-MR twin exists"))
        .collect();
    let ups = [
        UpPolicy::FirstReturn,
        UpPolicy::LastReturn,
        UpPolicy::Monitor {
            threshold: 1,
            period: 10,
        },
        UpPolicy::Monitor {
            threshold: 3,
            period: 10,
        },
        UpPolicy::Monitor {
            threshold: 5,
            period: 10,
        },
    ];
    for params in &twins {
        for up in ups {
            let mut cfg = SystemConfig::vsv_with_fsms();
            cfg.vsv.up = up;
            assert_equivalent(*params, cfg, &format!("up={up:?}"));
        }
    }
}

/// Figure 7 grid: Time-Keeping prefetching on, baseline and VSV. The
/// prefetch-harvest cap is what this exercises: skips must never jump
/// a decay-table scan.
#[test]
fn timekeeping_configs_equivalent() {
    let names = ["mcf", "art", "gzip"];
    for name in names {
        let params = twin(name).expect("twin exists");
        assert_equivalent(
            params,
            SystemConfig::baseline().with_timekeeping(true),
            "baseline+tk",
        );
        assert_equivalent(
            params,
            SystemConfig::vsv_with_fsms().with_timekeeping(true),
            "vsv+tk",
        );
    }
}

/// Ablations grid corners: nonzero leakage (per-ns accounting must
/// batch exactly) and DCG off (idle cycles charge full clock energy).
#[test]
fn ablation_configs_equivalent() {
    let params = twin("mcf").expect("twin exists");
    let mut leaky = SystemConfig::vsv_with_fsms();
    leaky.power = leaky.power.with_leakage(4.0);
    assert_equivalent(params, leaky, "leakage-4w");

    let mut no_dcg = SystemConfig::vsv_with_fsms();
    no_dcg.power.dcg_enabled = false;
    assert_equivalent(params, no_dcg, "dcg-off");

    let mut per_unit = SystemConfig::vsv_with_fsms();
    per_unit.power.dcg_model = vsv_power::DcgModel::PerUnit;
    assert_equivalent(params, per_unit, "dcg-per-unit");
}

// ---- batch catch-up primitives vs per-cycle references -------------

/// `UpFsm::skip_idle_cycles(n)` must equal `n` calls to `on_cycle(0)`
/// whenever the caller-side guard (`would_trigger_on_idle`) holds.
#[test]
fn up_fsm_batch_matches_loop() {
    use vsv::UpFsm;
    for threshold in [1u32, 3, 5] {
        for outstanding in [1usize, 4] {
            for n in [1u64, 5, 9, 10, 11, 200] {
                let policy = UpPolicy::Monitor {
                    threshold,
                    period: 10,
                };
                let mut batched = UpFsm::new(policy);
                let mut stepped = UpFsm::new(policy);
                assert!(!batched.on_return(outstanding));
                assert!(!stepped.on_return(outstanding));
                assert!(!batched.would_trigger_on_idle());
                batched.skip_idle_cycles(n);
                for _ in 0..n {
                    assert!(!stepped.on_cycle(0), "threshold>0 never fires on idle");
                }
                assert_eq!(
                    batched.is_armed(),
                    stepped.is_armed(),
                    "t={threshold} n={n}"
                );
                assert_eq!(
                    batched.expiries(),
                    stepped.expiries(),
                    "t={threshold} n={n}"
                );
                assert_eq!(batched.triggers(), stepped.triggers());
                // Post-skip behaviour must also agree: feed an issuing
                // burst and compare trigger decisions cycle by cycle.
                for issued in [1u32, 1, 1, 1, 1] {
                    assert_eq!(batched.on_cycle(issued), stepped.on_cycle(issued));
                }
            }
        }
    }
}

/// `PowerAccountant::record_idle_cycles(n, vdd)` must equal `n` calls
/// to `record_cycle` with an all-zero activity sample, bit for bit.
#[test]
fn idle_cycle_power_batch_matches_loop() {
    for vdd in [1.8f64, 1.2] {
        for n in [1u64, 7, 64, 1000] {
            let mut batched = PowerAccountant::new(PowerConfig::baseline());
            let mut stepped = PowerAccountant::new(PowerConfig::baseline());
            let zero: ActivitySample = Default::default();
            batched.record_idle_cycles(n, vdd);
            for _ in 0..n {
                stepped.record_cycle(&zero, vdd);
            }
            assert_eq!(
                batched.total_energy_pj().to_bits(),
                stepped.total_energy_pj().to_bits(),
                "vdd={vdd} n={n}"
            );
            assert_eq!(batched.breakdown(), stepped.breakdown());
        }
    }
    // DCG off: idle cycles charge the full clock energy.
    let mut cfg = PowerConfig::baseline();
    cfg.dcg_enabled = false;
    let mut batched = PowerAccountant::new(cfg);
    let mut stepped = PowerAccountant::new(cfg);
    let zero: ActivitySample = Default::default();
    batched.record_idle_cycles(500, 1.2);
    for _ in 0..500 {
        stepped.record_cycle(&zero, 1.2);
    }
    assert_eq!(
        batched.total_energy_pj().to_bits(),
        stepped.total_energy_pj().to_bits()
    );
}

/// `PowerAccountant::record_leakage_span(ns, vdd)` must equal `ns`
/// calls to `record_leakage_ns`, bit for bit — including the nonzero
/// leakage extension.
#[test]
fn leakage_span_batch_matches_loop() {
    for watts in [0.0f64, 4.0, 8.0] {
        for vdd in [1.8f64, 1.2, 1.456] {
            let cfg = PowerConfig::baseline().with_leakage(watts);
            let mut batched = PowerAccountant::new(cfg);
            let mut stepped = PowerAccountant::new(cfg);
            batched.record_leakage_span(777, vdd);
            for _ in 0..777 {
                stepped.record_leakage_ns(vdd);
            }
            assert_eq!(
                batched.total_energy_pj().to_bits(),
                stepped.total_energy_pj().to_bits(),
                "watts={watts} vdd={vdd}"
            );
        }
    }
}

/// `VsvController::skip_quiescent` must advance the edge schedule,
/// residency counters and (in low mode) the up-FSM window exactly as a
/// per-nanosecond tick/on-cycle loop over the same idle window would.
#[test]
fn controller_skip_matches_ticked_loop() {
    use vsv::VsvConfig;
    // A controller held in Low with one miss outstanding and an open
    // up window: drive both copies to the same state, then batch one
    // and step the other.
    let into_low = |cfg: VsvConfig| {
        let mut c = VsvController::new(cfg);
        c.observe(&vsv_mem::VsvSignal::L2MissDetected {
            demand: true,
            at: 0,
            earliest_return: None,
        });
        for now in 0..40 {
            let plan = c.tick(now, 2);
            if plan.pipeline_edge {
                c.on_cycle(now, 0);
            }
        }
        c.observe(&vsv_mem::VsvSignal::L2MissReturned {
            demand: true,
            at: 40,
            outstanding_demand: 1,
        });
        c
    };
    for ns in [1u64, 2, 3, 17, 40] {
        let mut batched = into_low(VsvConfig::with_policy(PolicySpec::DualFsm));
        let mut stepped = batched.clone();
        assert!(batched.quiescent_skip_allowed(1));
        let from = 40u64;
        let (edges, vdd) = batched.skip_quiescent(from, ns);
        let mut stepped_edges = 0u64;
        for now in from..from + ns {
            let plan = stepped.tick(now, 1);
            assert_eq!(plan.vdd.to_bits(), vdd.to_bits());
            if plan.pipeline_edge {
                stepped_edges += 1;
                stepped.on_cycle(now, 0);
            }
        }
        assert_eq!(edges, stepped_edges, "ns={ns}");
        assert_eq!(batched.next_edge(), stepped.next_edge(), "ns={ns}");
        assert_eq!(batched.stats(), stepped.stats(), "ns={ns}");
        assert_eq!(batched.mode(), stepped.mode());
        assert_eq!(
            batched.policy_stats().up_expiries,
            stepped.policy_stats().up_expiries
        );
    }
    // Disabled controller (the baseline): pure edge arithmetic.
    for ns in [1u64, 9, 100] {
        let mut batched = VsvController::new(VsvConfig::disabled());
        let mut stepped = VsvController::new(VsvConfig::disabled());
        // Consume a few ticks so next_edge is mid-schedule.
        for now in 0..5 {
            let _ = batched.tick(now, 0);
            let _ = stepped.tick(now, 0);
        }
        assert!(batched.quiescent_skip_allowed(0));
        let (edges, _) = batched.skip_quiescent(5, ns);
        let mut stepped_edges = 0u64;
        for now in 5..5 + ns {
            if stepped.tick(now, 0).pipeline_edge {
                stepped_edges += 1;
            }
        }
        assert_eq!(edges, stepped_edges, "ns={ns}");
        assert_eq!(batched.next_edge(), stepped.next_edge());
        assert_eq!(batched.stats(), stepped.stats());
    }
}
