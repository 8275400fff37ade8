//! Figure 2: cost of stretching the Fetch/Mispredict loop vs the Wake-up/Select loop.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{Machine, Scenario, ScenarioCell};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig2(c: &mut Criterion) {
    let mut preset = Scenario::fig2(bench_budget());
    preset.benchmarks = vec![
        Benchmark::Gzip,
        Benchmark::Gcc,
        Benchmark::Mesa,
        Benchmark::Vortex,
    ];
    print!("{}", preset.run().fig2_table().expect("fig2 grid"));

    let mut group = c.benchmark_group("fig2_pipeline_loops");
    group.sample_size(10);
    let cell = ScenarioCell::paper(Machine::Baseline, Benchmark::Gzip);
    group.bench_function("baseline_gzip", |b| {
        b.iter(|| criterion::black_box(cell.run(SimBudget::new(1_000, 5_000))))
    });
    group.finish();
}

criterion_group!(benches, fig2);
criterion_main!(benches);
