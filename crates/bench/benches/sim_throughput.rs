//! Simulator-kernel throughput: how many simulated instructions per wall-clock
//! second each machine model sustains.
//!
//! This is the bench guarding the hot-path optimisations (slab-indexed in-flight
//! table, ready-list wakeup, allocation-free cycle loop): any regression in the
//! per-cycle bookkeeping shows up directly as lower simulated-MIPS here.

use criterion::{criterion_group, criterion_main, Criterion};
use flywheel_bench::scenario::{Machine, ScenarioCell};
use flywheel_bench::simulated_mips;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;
use std::time::Instant;

fn sim_throughput(c: &mut Criterion) {
    let budget = SimBudget::new(10_000, 200_000);
    let base = |bench| ScenarioCell::paper(Machine::Baseline, bench);
    let fly = |bench| ScenarioCell::paper(Machine::Flywheel, bench);

    // Headline numbers: simulated MIPS for one representative run of each kernel.
    for (name, cell) in [
        ("baseline/gzip", base(Benchmark::Gzip)),
        ("flywheel/gzip", fly(Benchmark::Gzip)),
    ] {
        let start = Instant::now();
        let measured = cell.run(budget).sim.instructions;
        let wall = start.elapsed();
        println!(
            "sim_throughput {name}: {:.2} simulated MIPS ({} simulated instructions, {measured} \
             measured, in {:.3} s)",
            simulated_mips(budget.total(), wall),
            budget.total(),
            wall.as_secs_f64()
        );
    }

    let mut group = c.benchmark_group("sim_throughput");
    group.sample_size(10);
    for (name, cell) in [
        ("baseline_gzip_210k", base(Benchmark::Gzip)),
        ("baseline_equake_210k", base(Benchmark::Equake)),
        ("flywheel_iso_gzip_210k", fly(Benchmark::Gzip)),
        (
            "flywheel_fe50_be50_ijpeg_210k",
            ScenarioCell {
                fe_pct: 50,
                be_pct: 50,
                ..fly(Benchmark::Ijpeg)
            },
        ),
    ] {
        group.bench_function(name, |b| b.iter(|| criterion::black_box(cell.run(budget))));
    }
    group.finish();
}

criterion_group!(benches, sim_throughput);
criterion_main!(benches);
