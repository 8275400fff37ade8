//! Figure 11: the register-allocation machine and the Flywheel machine at the
//! baseline clock, normalized to the baseline.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{Machine, Scenario, ScenarioCell};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig11(c: &mut Criterion) {
    let mut preset = Scenario::fig11(bench_budget());
    preset.benchmarks = vec![
        Benchmark::Ijpeg,
        Benchmark::Gzip,
        Benchmark::Vpr,
        Benchmark::Vortex,
    ];
    print!("{}", preset.run().fig11_table().expect("fig11 grid"));

    let mut group = c.benchmark_group("fig11_iso_clock");
    group.sample_size(10);
    let cell = ScenarioCell::paper(Machine::Flywheel, Benchmark::Micro);
    group.bench_function("flywheel_iso_micro", |b| {
        b.iter(|| criterion::black_box(cell.run(SimBudget::new(1_000, 5_000))))
    });
    group.finish();
}

criterion_group!(benches, fig11);
criterion_main!(benches);
