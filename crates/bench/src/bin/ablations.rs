//! Ablation studies for the design choices DESIGN.md calls out —
//! sensitivity sweeps the paper motivates but does not plot:
//!
//! * **ramp rate** (§3.2): the paper derives a 0.2 V/ns stability limit
//!   and conservatively uses 0.05 V/ns (12 ns ramps). How much do
//!   slower/faster ramps matter?
//! * **monitoring window** (§4.2/§4.4): the paper uses 10 cycles.
//! * **VDDL choice** (§3.1): 1.2 V is chosen for a clean half-speed
//!   clock. What would other low voltages buy? (Clock stays at half
//!   speed — voltages below ~1.1 V would not meet timing; this is a
//!   power-only what-if.)
//! * **DCG interaction** (§6.1): with clock gating disabled, the
//!   baseline wastes more idle power, so VSV's *relative* savings grow.
//!
//! Usage: `cargo run --release -p vsv-bench --bin ablations`
//! Scale via `VSV_INSTS` / `VSV_WARMUP`; threads via `VSV_WORKERS`.

use vsv::{
    default_workers, mean_comparison, Comparison, DownPolicy, Sweep, SweepJob, SystemConfig,
    UpPolicy, VoltageLadder, VsvConfig,
};
use vsv_bench::{announce_workers, experiment_from_env, results_or_die, rule};
use vsv_workloads::{high_mr_names, twin};

/// Mean comparison over the high-MR twins for one variant
/// configuration. The baseline shares everything with the variant
/// except the VSV policy itself, so each sweep isolates one knob.
fn high_mr_mean(var_cfg: SystemConfig) -> Comparison {
    let e = experiment_from_env();
    let mut base_cfg = var_cfg;
    base_cfg.vsv = VsvConfig::disabled();
    let twins: Vec<_> = high_mr_names()
        .iter()
        .map(|name| twin(name).expect("suite twin"))
        .collect();
    let runs =
        results_or_die(Sweep::over_grid(e, &twins, &[base_cfg, var_cfg]).report(default_workers()));
    let cs: Vec<Comparison> = runs
        .chunks(2)
        .map(|pair| Comparison::of(&pair[0], &pair[1]))
        .collect();
    mean_comparison(&cs)
}

/// The VDDL what-if rows (V).
const VDDLS: [f64; 4] = [1.0, 1.2, 1.4, 1.6];

/// The VDDL what-if configuration: `vddl` in both the controller's and
/// the power model's technology, with the two-rail ladder rebuilt on
/// it so the controller really dives to `vddl`.
fn vddl_config(vddl: f64) -> SystemConfig {
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv.tech.vddl = vddl;
    cfg.power.tech.vddl = vddl;
    cfg.vsv.ladder = VoltageLadder::paper_rails(&cfg.vsv.tech);
    cfg
}

fn main() {
    let e = experiment_from_env();
    println!(
        "Ablations over the high-MR twins ({} insts measured per run)",
        e.instructions
    );
    announce_workers(default_workers());
    println!();

    println!("-- ramp-rate sensitivity (paper: 0.05 V/ns -> 12 ns ramps) --");
    println!(
        "{:>12} {:>9} | {:>8} {:>8}",
        "dV/dt V/ns", "ramp ns", "power%", "perf%"
    );
    rule(44);
    for rate in [0.15, 0.05, 0.025, 0.0125] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.tech.ramp_rate_v_per_ns = rate;
        cfg.power.tech.ramp_rate_v_per_ns = rate;
        let c = high_mr_mean(cfg);
        println!(
            "{:>12} {:>9} | {:>8.1} {:>8.1}",
            rate,
            cfg.vsv.ramp_ns(),
            c.power_saving_pct,
            c.perf_degradation_pct
        );
    }

    println!("\n-- monitoring-window sensitivity (paper: 10 cycles) --");
    println!("{:>12} | {:>8} {:>8}", "window", "power%", "perf%");
    rule(34);
    for period in [5u32, 10, 20] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.vsv.down = DownPolicy::Monitor {
            threshold: 3,
            period,
        };
        cfg.vsv.up = UpPolicy::Monitor {
            threshold: 3,
            period,
        };
        let c = high_mr_mean(cfg);
        println!(
            "{:>12} | {:>8.1} {:>8.1}",
            period, c.power_saving_pct, c.perf_degradation_pct
        );
    }

    println!("\n-- VDDL what-if (paper: 1.2 V; clock fixed at half speed) --");
    println!("{:>12} | {:>8} {:>8}", "VDDL (V)", "power%", "perf%");
    rule(34);
    for vddl in VDDLS {
        let c = high_mr_mean(vddl_config(vddl));
        println!(
            "{:>12.1} | {:>8.1} {:>8.1}",
            vddl, c.power_saving_pct, c.perf_degradation_pct
        );
    }

    println!("\n-- deterministic clock gating interaction (§6.1) --");
    println!("{:>12} | {:>8} {:>8}", "DCG", "power%", "perf%");
    rule(34);
    for (label, enabled, model) in [
        ("off", false, vsv_power::DcgModel::PerStructure),
        ("structure", true, vsv_power::DcgModel::PerStructure),
        ("per-unit", true, vsv_power::DcgModel::PerUnit),
    ] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.power.dcg_enabled = enabled;
        cfg.power.dcg_model = model;
        let c = high_mr_mean(cfg);
        println!(
            "{:>12} | {:>8.1} {:>8.1}",
            label, c.power_saving_pct, c.perf_degradation_pct
        );
    }
    println!("\n-- memory-latency sensitivity (the memory wall deepens) --");
    println!("{:>12} | {:>8} {:>8}", "DRAM ns", "power%", "perf%");
    rule(34);
    for latency in [50u64, 100, 200, 400] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.mem.dram.latency_ns = latency;
        let c = high_mr_mean(cfg);
        println!(
            "{:>12} | {:>8.1} {:>8.1}",
            latency, c.power_saving_pct, c.perf_degradation_pct
        );
    }

    // The suite's high-MR working sets dwarf any realistic L2 and
    // never lap inside a measurement window, so the capacity sweep
    // uses a dedicated 1 MB streaming sweep that is re-visited every
    // ~120 k instructions: it fits the 2 MB and 8 MB L2s but not the
    // 512 KB one.
    println!("\n-- L2-capacity sensitivity (1 MB re-visited stream) --");
    println!(
        "{:>12} | {:>6} | {:>8} {:>8}",
        "L2", "MR", "power%", "perf%"
    );
    rule(44);
    let capacities = [("512 KB", 512u64), ("2 MB", 2048), ("8 MB", 8192)];
    // Irregular grid (the workload is fixed but the config varies per
    // row), so assemble the (base, variant) job pairs by hand.
    let mut p = vsv_workloads::WorkloadParams::compute_bound("l2-sweep");
    p.working_set_bytes = 1024 * 1024;
    p.mem_fraction = 0.5;
    p.store_ratio = 0.2;
    p.far_fraction = 0.8;
    p.pattern = vsv_workloads::AccessPattern::Streaming;
    p.miss_dependency = 1.0;
    p.ilp_chains = 2;
    let jobs: Vec<SweepJob> = capacities
        .iter()
        .flat_map(|(_, kb)| {
            let mut var_cfg = SystemConfig::vsv_with_fsms();
            var_cfg.mem.l2.capacity_bytes = kb * 1024;
            let mut base_cfg = var_cfg;
            base_cfg.vsv = VsvConfig::disabled();
            [base_cfg, var_cfg].map(|config| SweepJob { params: p, config })
        })
        .collect();
    let runs = results_or_die(Sweep::new(e, jobs).report(default_workers()));
    for ((label, _), pair) in capacities.iter().zip(runs.chunks(2)) {
        let (base, run) = (&pair[0], &pair[1]);
        let c = Comparison::of(base, run);
        println!(
            "{:>12} | {:>6.1} | {:>8.1} {:>8.1}",
            label, base.mpki, c.power_saving_pct, c.perf_degradation_pct
        );
    }

    println!("\n-- leakage extension (paper models dynamic power only) --");
    println!("{:>12} | {:>8} {:>8}", "leakage", "power%", "perf%");
    rule(34);
    for (label, watts) in [("off", 0.0), ("4 W", 4.0), ("8 W", 8.0)] {
        let mut cfg = SystemConfig::vsv_with_fsms();
        cfg.power = cfg.power.with_leakage(watts);
        let c = high_mr_mean(cfg);
        println!(
            "{:>12} | {:>8.1} {:>8.1}",
            label, c.power_saving_pct, c.perf_degradation_pct
        );
    }

    println!(
        "\nshapes: slower ramps spend longer at reduced voltage *and* at\n\
         half speed, so they raise both savings and degradation — the\n\
         paper's 12 ns point sits near the knee. The window barely\n\
         matters because the level-triggered miss signal keeps the\n\
         monitor armed while misses are outstanding (DESIGN.md §7.1).\n\
         Deeper VDDL saves more until timing would fail. Without DCG the\n\
         baseline wastes more idle power, so VSV's relative savings grow\n\
         — the paper's argument that VSV still pays on top of clock\n\
         gating, seen from the other side."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_vddl_row_validates_and_dives_to_its_vddl() {
        for vddl in VDDLS {
            let cfg = vddl_config(vddl);
            cfg.validate().expect("VDDL row validates");
            let ladder = cfg.vsv.ladder;
            assert_eq!(ladder.voltage(ladder.bottom()), vddl);
        }
    }
}
