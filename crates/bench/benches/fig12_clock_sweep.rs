//! Figure 12: relative performance of the Flywheel machine while sweeping the
//! front-end clock (back-end fixed at +50%).

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{ClockSweepMetric, Machine, Scenario, ScenarioCell};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig12(c: &mut Criterion) {
    let mut preset = Scenario::fig12(bench_budget());
    preset.benchmarks = vec![Benchmark::Ijpeg, Benchmark::Mesa, Benchmark::Vortex];
    let table = preset
        .run()
        .clock_sweep_table(ClockSweepMetric::Performance);
    print!("{}", table.expect("clock-sweep grid"));

    let mut group = c.benchmark_group("fig12_clock_sweep");
    group.sample_size(10);
    let cell = ScenarioCell {
        fe_pct: 50,
        be_pct: 50,
        ..ScenarioCell::paper(Machine::Flywheel, Benchmark::Micro)
    };
    group.bench_function("flywheel_fe50_be50_micro", |b| {
        b.iter(|| criterion::black_box(cell.run(SimBudget::new(1_000, 5_000))))
    });
    group.finish();
}

criterion_group!(benches, fig12);
criterion_main!(benches);
