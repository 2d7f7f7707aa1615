//! End-to-end simulation throughput: wall-clock cost of simulating a
//! fixed instruction window under each major configuration. One
//! sample per (configuration × workload) pair; the experiment
//! binaries (table2/figure4/...) regenerate the paper's numbers, this
//! bench tracks how fast they run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vsv::{Experiment, SystemConfig};
use vsv_workloads::twin;

fn bench_configs(c: &mut Criterion) {
    let e = Experiment {
        warmup_instructions: 2_000,
        instructions: 10_000,
    };
    let mut g = c.benchmark_group("simulate-10k-insts");
    g.sample_size(10);
    for name in ["gzip", "ammp"] {
        let params = twin(name).expect("twin exists");
        g.bench_with_input(BenchmarkId::new("baseline", name), &params, |b, p| {
            b.iter(|| e.try_run(p, SystemConfig::baseline()).expect("runs"));
        });
        g.bench_with_input(BenchmarkId::new("vsv-fsm", name), &params, |b, p| {
            b.iter(|| e.try_run(p, SystemConfig::vsv_with_fsms()).expect("runs"));
        });
        g.bench_with_input(BenchmarkId::new("vsv-tk", name), &params, |b, p| {
            b.iter(|| {
                e.try_run(p, SystemConfig::vsv_with_fsms().with_timekeeping(true))
                    .expect("runs")
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_configs);
criterion_main!(benches);
