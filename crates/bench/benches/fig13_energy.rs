//! Figure 13: relative energy of the Flywheel machine over the clock sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{ClockSweepMetric, Machine, Scenario, ScenarioCell};
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig13(c: &mut Criterion) {
    let mut preset = Scenario::fig12(bench_budget());
    preset.benchmarks = vec![Benchmark::Gcc, Benchmark::Equake, Benchmark::Vortex];
    let table = preset.run().clock_sweep_table(ClockSweepMetric::Energy);
    print!("{}", table.expect("clock-sweep grid"));

    let mut group = c.benchmark_group("fig13_energy");
    group.sample_size(10);
    let cell = ScenarioCell {
        fe_pct: 0,
        be_pct: 50,
        ..ScenarioCell::paper(Machine::Flywheel, Benchmark::Micro)
    };
    group.bench_function("energy_accounting_micro", |b| {
        b.iter(|| {
            criterion::black_box(cell.run(SimBudget::new(1_000, 5_000)).sim.energy.total_pj())
        })
    });
    group.finish();
}

criterion_group!(benches, fig13);
criterion_main!(benches);
