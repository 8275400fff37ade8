//! Figure 14: relative power of the Flywheel machine over the clock sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{ClockSweepMetric, Machine, Scenario, ScenarioCell};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig14(c: &mut Criterion) {
    let mut preset = Scenario::fig12(bench_budget());
    preset.benchmarks = vec![Benchmark::Vpr, Benchmark::Parser, Benchmark::Turb3d];
    let table = preset.run().clock_sweep_table(ClockSweepMetric::Power);
    print!("{}", table.expect("clock-sweep grid"));

    let mut group = c.benchmark_group("fig14_power");
    group.sample_size(10);
    let cell = ScenarioCell {
        fe_pct: 100,
        be_pct: 50,
        ..ScenarioCell::paper(Machine::Flywheel, Benchmark::Micro)
    };
    group.bench_function("power_accounting_micro", |b| {
        b.iter(|| {
            criterion::black_box(cell.run(SimBudget::new(1_000, 5_000)).sim.average_power_w())
        })
    });
    group.finish();
}

criterion_group!(benches, fig14);
criterion_main!(benches);
