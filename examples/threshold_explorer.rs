//! Explore the FSM threshold space on one workload: every combination
//! of down-threshold × up-policy, printed as a power/performance grid.
//! This generalises the paper's Figures 5 and 6 into a single view.
//!
//! ```text
//! cargo run --release --example threshold_explorer [twin-name]
//! ```

use vsv::{Comparison, DownPolicy, Experiment, SystemConfig, UpPolicy};
use vsv_viz::{TradeoffChart, TradeoffPoint};
use vsv_workloads::twin;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "lucas".to_owned());
    let Some(params) = twin(&name) else {
        eprintln!("unknown twin '{name}'");
        std::process::exit(1);
    };
    let e = Experiment {
        warmup_instructions: 50_000,
        instructions: 150_000,
    };
    let base = e.try_run(&params, SystemConfig::baseline()).expect("run");
    println!(
        "threshold grid for '{name}' (baseline IPC {:.2}, MR {:.1})\n",
        base.ipc, base.mpki
    );

    let downs = [
        ("down=imm", DownPolicy::Immediate),
        (
            "down=1",
            DownPolicy::Monitor {
                threshold: 1,
                period: 10,
            },
        ),
        (
            "down=3",
            DownPolicy::Monitor {
                threshold: 3,
                period: 10,
            },
        ),
        (
            "down=5",
            DownPolicy::Monitor {
                threshold: 5,
                period: 10,
            },
        ),
    ];
    let ups = [
        ("up=First-R", UpPolicy::FirstReturn),
        (
            "up=1",
            UpPolicy::Monitor {
                threshold: 1,
                period: 10,
            },
        ),
        (
            "up=3",
            UpPolicy::Monitor {
                threshold: 3,
                period: 10,
            },
        ),
        (
            "up=5",
            UpPolicy::Monitor {
                threshold: 5,
                period: 10,
            },
        ),
        ("up=Last-R", UpPolicy::LastReturn),
    ];

    print!("{:>10} |", "");
    for (ul, _) in &ups {
        print!(" {ul:>14}");
    }
    println!("\n{}", "-".repeat(12 + 15 * ups.len()));
    let mut chart = TradeoffChart::new();
    for (dl, down) in &downs {
        print!("{dl:>10} |");
        let mut curve = Vec::new();
        for (ul, up) in &ups {
            let mut cfg = SystemConfig::vsv_with_fsms();
            cfg.vsv.down = *down;
            cfg.vsv.up = *up;
            let run = e.try_run(&params, cfg).expect("run");
            let c = Comparison::of(&base, &run);
            print!(
                " {:>6.1}w/{:>5.1}p",
                c.power_saving_pct, c.perf_degradation_pct
            );
            curve.push(TradeoffPoint {
                label: (*ul).to_owned(),
                perf_pct: c.perf_degradation_pct,
                power_pct: c.power_saving_pct,
            });
        }
        chart = chart.curve(*dl, curve);
        println!();
    }
    let svg_path = format!("target/{name}_tradeoff.svg");
    if std::fs::create_dir_all("target").is_ok()
        && std::fs::write(&svg_path, chart.render()).is_ok()
    {
        println!("\n(trade-off frontier written to {svg_path})");
    }
    println!(
        "\ncells are power-saving% / performance-degradation%. Expect power\n\
         to grow toward (down=imm, up=Last-R) and degradation to shrink\n\
         toward (down=5, up=First-R); the paper picks (3, 3)."
    );
}
