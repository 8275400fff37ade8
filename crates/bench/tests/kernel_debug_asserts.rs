//! Every registered machine family over the stress and adversarial workloads
//! at a short budget.
//!
//! The kernels carry `debug_assert!`s for the invariants their hot paths rely
//! on — among them the issue scan's: `visible_at_ps` never decreases within an
//! issue lane, and every released entry's operands have arrived by the cycle
//! it is scanned in. Release builds (and with them `golden` and the benchmark)
//! compile those checks out, so this test exists to run them: a plain
//! `cargo test` builds in debug mode and drives every family through the
//! workloads that stress the scan most (miss waits, store-blocked loads,
//! squashes, Execution Cache thrash and replay).

use flywheel_bench::executor::{CellAxes, Machine};
use flywheel_bench::shared_trace;
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;

#[test]
fn every_family_runs_the_stress_and_adversarial_workloads_with_debug_asserts() {
    let budget = SimBudget::new(1_000, 10_000);
    let benches = Benchmark::stress_suite()
        .iter()
        .chain(Benchmark::adversarial_suite());
    for &bench in benches {
        let trace = shared_trace(bench, 7, budget);
        let axes = CellAxes {
            bench,
            seed: 7,
            node: TechNode::N130,
            fe_pct: 0,
            be_pct: 0,
            iw_entries: 128,
            rob_entries: 128,
            ec_kb: 128,
            mem_cycles: 100,
        };
        for &machine in Machine::all() {
            let exec = machine.family().builder.build(&axes);
            exec.validate()
                .unwrap_or_else(|e| panic!("{}/{bench}: invalid config: {e}", machine.name()));
            let stats = exec.replay(trace.cursor(), budget);
            assert_eq!(
                stats.sim.instructions,
                budget.measured_instructions,
                "{}/{bench}: the run stopped short of its budget",
                machine.name()
            );
        }
    }
}
