//! End-to-end verification of the Figure 2 / Figure 3 transition
//! timelines through the public `System` API, by single-stepping the
//! nanosecond clock around an isolated L2 miss.

use vsv::{Mode, System, SystemConfig, UpPolicy};
use vsv_isa::{Addr, ArchReg, FnStream, Inst, Pc};

/// One cold far load per 64-instruction lap; everything else is a
/// dependent chain on the loaded value, so the pipeline truly stalls.
/// Each lap's load takes its address from the previous lap's chain, so
/// two laps' misses never overlap: every miss is alone, whether the
/// core runs at full speed or has already slowed down.
fn lonely_miss_stream() -> FnStream<impl FnMut() -> Option<Inst>> {
    let mut i: u64 = 0;
    FnStream::new(move || {
        let n = i;
        i += 1;
        let lap = n / 64;
        let slot = n % 64;
        let pc = Pc(slot * 4);
        Some(match slot {
            0 => Inst::load_dep(
                pc,
                ArchReg::int(1),
                ArchReg::int(1),
                Addr(0x1000_0000 + lap * 4096),
            ),
            _ => Inst::alu(pc, ArchReg::int(1), &[ArchReg::int(1)]),
        })
    })
}

/// Records (time, mode) changes over `ns` single-steps.
fn trajectory(
    sys: &mut System<FnStream<impl FnMut() -> Option<Inst>>>,
    ns: u64,
) -> Vec<(u64, Mode)> {
    let mut out = vec![(sys.now(), sys.controller().mode())];
    for _ in 0..ns {
        sys.step_ns();
        let m = sys.controller().mode();
        if m != out.last().expect("nonempty").1 {
            out.push((sys.now(), m));
        }
    }
    out
}

#[test]
fn down_transition_walks_distribute_then_ramp_then_low() {
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv.up = UpPolicy::LastReturn;
    let mut sys = System::try_new(cfg, lonely_miss_stream()).expect("valid config");
    sys.try_warm_up(1_000).expect("warm-up");
    let traj = trajectory(&mut sys, 2_000);

    // Find a High → DownDistribute → RampDown → Low run.
    let modes: Vec<Mode> = traj.iter().map(|(_, m)| *m).collect();
    let times: Vec<u64> = traj.iter().map(|(t, _)| *t).collect();
    let mut found = false;
    for w in 0..modes.len().saturating_sub(3) {
        if modes[w] == Mode::High
            && modes[w + 1] == Mode::DownDistribute
            && modes[w + 2] == Mode::RampDown
            && modes[w + 3] == Mode::Low
        {
            // Figure 2: 4 ns of distribution, 12 ns of ramp.
            assert_eq!(times[w + 2] - times[w + 1], 4, "ctrl+tree distribution");
            assert_eq!(times[w + 3] - times[w + 2], 12, "VDD ramp down");
            found = true;
            break;
        }
    }
    assert!(found, "no complete down transition observed in {modes:?}");
}

#[test]
fn up_transition_walks_distribute_then_ramp_then_high() {
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv.up = UpPolicy::LastReturn;
    let mut sys = System::try_new(cfg, lonely_miss_stream()).expect("valid config");
    sys.try_warm_up(1_000).expect("warm-up");
    let traj = trajectory(&mut sys, 2_000);

    let modes: Vec<Mode> = traj.iter().map(|(_, m)| *m).collect();
    let times: Vec<u64> = traj.iter().map(|(t, _)| *t).collect();
    let mut found = false;
    for w in 0..modes.len().saturating_sub(3) {
        if modes[w] == Mode::Low
            && modes[w + 1] == Mode::UpDistribute
            && modes[w + 2] == Mode::RampUp
            && modes[w + 3] == Mode::High
        {
            // Figure 3: 2 ns of distribution, 12 ns of ramp with the
            // fast-clock distribution overlapped in its last 2 ns.
            assert_eq!(times[w + 2] - times[w + 1], 2, "ctrl distribution");
            assert_eq!(times[w + 3] - times[w + 2], 12, "VDD ramp up");
            found = true;
            break;
        }
    }
    assert!(found, "no complete up transition observed in {modes:?}");
}

#[test]
fn miss_epochs_recur_every_lap() {
    let mut cfg = SystemConfig::vsv_with_fsms();
    cfg.vsv.up = UpPolicy::LastReturn;
    let mut sys = System::try_new(cfg, lonely_miss_stream()).expect("valid config");
    sys.try_warm_up(1_000).expect("warm-up");
    let traj = trajectory(&mut sys, 4_000);
    let lows = traj.iter().filter(|(_, m)| *m == Mode::Low).count();
    assert!(lows >= 3, "expected repeated low-power epochs, got {lows}");
}
