//! Figure 15: relative energy of the Flywheel machine at 130, 90 and 60 nm.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::bench_budget;
use flywheel_bench::scenario::{Machine, Scenario, ScenarioCell};
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

fn fig15(c: &mut Criterion) {
    let mut preset = Scenario::fig15(bench_budget());
    preset.benchmarks = vec![Benchmark::Gcc, Benchmark::Bzip2, Benchmark::Equake];
    print!("{}", preset.run().fig15_table().expect("fig15 grid"));

    let mut group = c.benchmark_group("fig15_technology");
    group.sample_size(10);
    let cell = ScenarioCell {
        node: TechNode::N60,
        fe_pct: 100,
        be_pct: 50,
        ..ScenarioCell::paper(Machine::Flywheel, Benchmark::Micro)
    };
    group.bench_function("flywheel_60nm_micro", |b| {
        b.iter(|| criterion::black_box(cell.run(SimBudget::new(1_000, 5_000))))
    });
    group.finish();
}

criterion_group!(benches, fig15);
criterion_main!(benches);
