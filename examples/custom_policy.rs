//! Drive the simulator below the `Experiment` convenience layer: build
//! a [`System`] by hand over a hand-written instruction stream, single
//! -step the nanosecond clock, and watch the VSV controller's mode
//! trajectory around one L2 miss — the paper's Figure 2/3 timelines,
//! live.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use vsv::{Mode, System, SystemConfig, UpPolicy};
use vsv_isa::{Addr, ArchReg, FnStream, Inst, Pc};

fn main() {
    // A tiny kernel: one cold load to far memory, then a dependent
    // chain, looping over fresh far blocks so every lap misses the L2.
    let mut i: u64 = 0;
    let stream = FnStream::new(move || {
        let n = i;
        i += 1;
        let lap = n / 64;
        let slot = n % 64;
        let pc = Pc(slot * 4);
        Some(match slot {
            0 => Inst::load(pc, ArchReg::int(1), Addr(0x1000_0000 + lap * 4096)),
            63 => Inst::nop(pc),
            _ => Inst::alu(pc, ArchReg::int(1), &[ArchReg::int(1)]),
        })
    });

    // Last-R keeps the processor low until every miss returns —
    // maximum savings, the aggressive end of Figure 6's spectrum.
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv.up = UpPolicy::LastReturn;
    let mut sys = System::try_new(cfg, stream).expect("valid config");
    sys.set_workload_name("figure-2-3-live");

    // Warm the caches for a few laps, then single-step and narrate.
    sys.try_warm_up(2_000).expect("warm-up");
    println!("mode trajectory around one miss epoch (1 line per mode change):\n");
    let mut last_mode = sys.controller().mode();
    let t0 = sys.now();
    let mut changes = 0;
    while changes < 14 {
        sys.step_ns(); // one nanosecond at a time: no boundary is missed
        let mode = sys.controller().mode();
        if mode != last_mode {
            changes += 1;
            println!(
                "t = {:>5} ns : {:?} -> {:?}",
                sys.now() - t0,
                last_mode,
                mode
            );
            last_mode = mode;
        }
    }

    println!("\nFigure 2 says a down transition is: ≤10 cycles of monitoring,");
    println!("4 ns of control/clock-tree distribution (still full speed),");
    println!("then a 12 ns ramp at half speed; Figure 3's way up is 2 ns of");
    println!("distribution plus a 12 ns ramp, with the fast clock overlapped.");
    println!("The trajectory above walks exactly those states:");
    for m in Mode::ALL {
        println!("  {:?}: clock period {} ns", m, m.clock_period_ns());
    }
}
