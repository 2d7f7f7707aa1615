//! The single-core workloads, `mem-bound` and `compute-bound`: an
//! untraced timed pass over the grid, and the traced driver that steps
//! each cell's layers itself and times every call into them.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use vsv::{
    Experiment, MetricsRegistry, PolicySpec, RunResult, SimError, Sweep, SweepJob, System,
    SystemConfig, VsvController,
};
use vsv_isa::{Inst, InstStream};
use vsv_mem::Hierarchy;
use vsv_power::{ActivitySample, PowerAccountant, StructureId};
use vsv_uarch::{Core, CycleActivity};
use vsv_workloads::{Generator, WorkloadParams};

use crate::stats::Digest;

/// Simulated nanoseconds without a commit after which a traced cell is
/// declared deadlocked — the simulator's own watchdog window.
const DEADLOCK_WINDOW_NS: u64 = 2_000_000;

/// The three policies every single-core cell runs under.
#[must_use]
pub fn policies() -> Vec<SystemConfig> {
    vec![
        SystemConfig::with_policy(PolicySpec::AlwaysHigh),
        SystemConfig::with_policy(PolicySpec::DualFsm),
        SystemConfig::with_policy(PolicySpec::LadderFsm).with_ladder_depth(4),
    ]
}

/// The params-major grid: each twin under each of [`policies`].
#[must_use]
pub fn grid(twins: &[WorkloadParams]) -> Vec<SweepJob> {
    let configs = policies();
    twins
        .iter()
        .flat_map(|p| {
            configs.iter().map(move |c| SweepJob {
                params: *p,
                config: *c,
            })
        })
        .collect()
}

/// One untraced cell: its simulated window and host times.
#[derive(Debug)]
pub struct CellRun {
    /// The measured window.
    pub result: RunResult,
    /// The window's metrics registry.
    pub metrics: MetricsRegistry,
    /// Host seconds for construction plus warm-up.
    pub setup_s: f64,
    /// Host seconds for the measured window.
    pub run_s: f64,
}

/// Builds, warms and measures one cell through the public `System`
/// API, timing set-up and the measured window apart.
///
/// # Errors
///
/// Any [`SimError`] of construction, warm-up or the window.
pub fn run_cell(e: &Experiment, job: &SweepJob) -> Result<CellRun, SimError> {
    let start = Instant::now();
    let mut sys = System::try_new(job.config, Generator::new(job.params))?;
    sys.set_workload_name(job.params.name);
    sys.try_warm_up(e.warmup_instructions)?;
    let warmed = Instant::now();
    let result = sys.try_run(e.instructions)?;
    let run_s = warmed.elapsed().as_secs_f64();
    Ok(CellRun {
        result,
        metrics: sys.window_metrics().clone(),
        setup_s: (warmed - start).as_secs_f64(),
        run_s,
    })
}

/// The digest of a grid run through the sweep engine on `workers`
/// threads, and its failed-cell count.
#[must_use]
pub fn sweep_digest(e: Experiment, jobs: &[SweepJob], workers: usize) -> (String, usize) {
    let report = Sweep::new(e, jobs.to_vec()).report(workers);
    let mut d = Digest::default();
    for r in &report.records {
        if let Some(result) = r.result() {
            d.cell(result, &r.metrics);
        }
    }
    (d.hex(), report.failed_jobs())
}

/// Call count and accumulated host nanoseconds of one timed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds inside them, timer cost included.
    pub ns: u64,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Seconds with `timer_ns` per call taken off: the clock read each
    /// span adds to what it measures (see [`timer_read_ns`]).
    #[must_use]
    pub fn self_s(&self, timer_ns: f64) -> f64 {
        ((self.ns as f64 - self.calls as f64 * timer_ns) / 1e9).max(0.0)
    }
}

/// The twin's instruction stream behind a timer: every `next_inst` the
/// pipeline's fetch stage makes is timed into a span shared with the
/// driver (the core owns the stream).
#[derive(Debug)]
struct TimedStream {
    inner: Generator,
    span: Rc<Cell<Span>>,
}

impl InstStream for TimedStream {
    fn next_inst(&mut self) -> Option<Inst> {
        let mut span = self.span.get();
        let inst = span.time(|| self.inner.next_inst());
        self.span.set(span);
        inst
    }
}

/// Per-layer spans and counts of one traced cell (or a sum of cells).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSpans {
    /// `InstStream::next_inst` on the generator (inside `uarch`).
    pub workloads: Span,
    /// `Core::cycle`, the generator's time included.
    pub uarch: Span,
    /// Pipeline cycles that issued nothing.
    pub zero_issue_cycles: u64,
    /// `Core::tick_mem`.
    pub mem: Span,
    /// `PowerAccountant::record_*`.
    pub power: Span,
    /// `VsvController::observe`/`tick`/`take_ramps`/`on_cycle`.
    pub controller: Span,
    /// Host nanoseconds of the whole traced cell.
    pub wall_ns: u64,
}

impl LayerSpans {
    /// Adds another cell's spans.
    pub fn add(&mut self, o: &LayerSpans) {
        for (a, b) in [
            (&mut self.workloads, o.workloads),
            (&mut self.uarch, o.uarch),
            (&mut self.mem, o.mem),
            (&mut self.power, o.power),
            (&mut self.controller, o.controller),
        ] {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        self.zero_issue_cycles += o.zero_issue_cycles;
        self.wall_ns += o.wall_ns;
    }
}

/// What the traced driver measured of one cell's window: the figures
/// checked against an untraced `System` run.
#[derive(Debug, Clone, Copy)]
pub struct TracedWindow {
    /// Simulated nanoseconds of the measured window.
    pub elapsed_ns: u64,
    /// Instructions committed in it.
    pub instructions: u64,
    /// Total energy charged in it, pJ.
    pub energy_pj: f64,
}

/// Maps the core's activity vector onto the power model's structure
/// catalog, as the simulator's own step does.
fn sample_from(act: &CycleActivity) -> ActivitySample {
    let mut s: ActivitySample = Default::default();
    s[StructureId::Fetch.index()] = act.fetched;
    s[StructureId::Rename.index()] = act.dispatched;
    s[StructureId::Ruu.index()] = act.ruu_reads + act.ruu_writes + act.ruu_wakeups;
    s[StructureId::Lsq.index()] = act.lsq_accesses;
    s[StructureId::RegFile.index()] = act.regfile_reads + act.regfile_writes;
    s[StructureId::IL1.index()] = act.il1_accesses;
    s[StructureId::DL1.index()] = act.dl1_accesses;
    s[StructureId::Bpred.index()] = act.bpred_accesses;
    s[StructureId::IntAlu.index()] = act.int_alu_ops;
    s[StructureId::IntMulDiv.index()] = act.int_muldiv_ops;
    s[StructureId::FpAlu.index()] = act.fp_alu_ops;
    s[StructureId::FpMulDiv.index()] = act.fp_muldiv_ops;
    s[StructureId::ResultBus.index()] = act.resultbus_ops;
    s
}

/// The traced driver: builds the cell's `Core`, `VsvController` and
/// `PowerAccountant` from its configuration and steps them one
/// simulated nanosecond at a time through their public functions, as
/// `System` does with fast-forward off, timing every call.
struct Traced {
    core: Core<TimedStream>,
    controller: VsvController,
    power: PowerAccountant,
    now: u64,
    spans: LayerSpans,
    stream_span: Rc<Cell<Span>>,
}

impl Traced {
    fn new(cfg: SystemConfig, params: WorkloadParams) -> Self {
        let stream_span = Rc::new(Cell::new(Span::default()));
        let stream = TimedStream {
            inner: Generator::new(params),
            span: Rc::clone(&stream_span),
        };
        Traced {
            core: Core::new(cfg.core, Hierarchy::new(cfg.mem), stream),
            controller: VsvController::new(cfg.vsv),
            power: PowerAccountant::new(cfg.power),
            now: 0,
            spans: LayerSpans::default(),
            stream_span,
        }
    }

    /// One simulated nanosecond.
    fn step(&mut self) {
        let now = self.now;
        let Traced {
            core,
            controller,
            power,
            spans,
            ..
        } = self;
        spans.mem.time(|| core.tick_mem(now));
        let (plan, ramp_scales) = spans.controller.time(|| {
            core.mem_mut()
                .visit_vsv_signals(|sig| controller.observe(sig));
            let plan = controller.tick(now, core.mem().outstanding_demand_misses());
            let mut scales = Vec::new();
            if controller.take_ramps() > 0 {
                controller.drain_ramp_scales(|s| scales.push(s));
            }
            (plan, scales)
        });
        spans.power.time(|| {
            for s in ramp_scales {
                power.record_ramp_scaled(s);
            }
            power.record_leakage_ns(plan.vdd);
        });
        if plan.pipeline_edge {
            let act = spans.uarch.time(|| core.cycle(now));
            if act.issued == 0 {
                spans.zero_issue_cycles += 1;
            }
            spans
                .controller
                .time(|| controller.on_cycle(now, act.issued));
            let sample = sample_from(&act);
            spans.power.time(|| power.record_cycle(&sample, plan.vdd));
        }
        self.now += 1;
    }

    /// Steps until `instructions` more have committed.
    fn run(&mut self, instructions: u64) -> Result<(), String> {
        let target = self.core.committed() + instructions;
        let mut last = self.core.committed();
        let mut progress_at = self.now;
        while self.core.committed() < target && !self.core.done() {
            self.step();
            let committed = self.core.committed();
            if committed != last {
                last = committed;
                progress_at = self.now;
            } else if self.now - progress_at >= DEADLOCK_WINDOW_NS {
                return Err(format!("traced driver deadlocked at {} ns", self.now));
            }
        }
        Ok(())
    }
}

/// Runs one cell under the traced driver: warm-up, a fresh power
/// accountant (the measurement reset), then the measured window with
/// its uncore energy charged at the close.
///
/// # Errors
///
/// A description of a stalled run.
pub fn traced_cell(e: &Experiment, job: &SweepJob) -> Result<(TracedWindow, LayerSpans), String> {
    let start = Instant::now();
    let mut t = Traced::new(job.config, job.params);
    t.run(e.warmup_instructions)?;
    t.power = PowerAccountant::new(job.config.power);
    let mem = t.core.mem();
    let (now0, committed0) = (t.now, t.core.committed());
    let (l2, dram, bus) = (
        mem.l2_accesses(),
        mem.dram_accesses(),
        mem.bus_transactions(),
    );
    t.run(e.instructions)?;
    let mem = t.core.mem();
    let (l2, dram, bus) = (
        mem.l2_accesses() - l2,
        mem.dram_accesses() - dram,
        mem.bus_transactions() - bus,
    );
    t.spans.power.time(|| t.power.record_uncore(l2, dram, bus));
    let window = TracedWindow {
        elapsed_ns: t.now - now0,
        instructions: t.core.committed() - committed0,
        energy_pj: t.power.total_energy_pj(),
    };
    let mut spans = t.spans;
    spans.workloads = t.stream_span.get();
    spans.wall_ns = start.elapsed().as_nanos() as u64;
    Ok((window, spans))
}

/// Host nanoseconds one clock read adds to a timed span: half the
/// mean cost of an `Instant::now()` and `elapsed()` pair, since a span
/// contains the end of its first read and the start of its second.
#[must_use]
pub fn timer_read_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        sink = sink.wrapping_add(std::hint::black_box(t.elapsed().as_nanos()));
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(N) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsv_workloads::twin;

    #[test]
    fn traced_driver_equals_system_with_fast_forward_off() {
        let e = Experiment {
            warmup_instructions: 2_000,
            instructions: 8_000,
        };
        for job in grid(&[twin("mcf").expect("twin"), twin("gzip").expect("twin")]) {
            let (window, spans) = traced_cell(&e, &job).expect("traced run");
            let off = SweepJob {
                config: job.config.with_fast_forward(false),
                ..job
            };
            let plain = run_cell(&e, &off).expect("plain run").result;
            assert_eq!(window.elapsed_ns, plain.elapsed_ns);
            assert_eq!(window.instructions, plain.instructions);
            assert_eq!(window.energy_pj.to_bits(), plain.energy_pj.to_bits());
            assert!(spans.uarch.calls > 0 && spans.workloads.calls > 0);
            assert_eq!(spans.mem.calls, spans.controller.calls - spans.uarch.calls);
        }
    }
}
