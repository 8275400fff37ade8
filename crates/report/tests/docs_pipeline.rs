//! End-to-end tests of the self-regenerating docs pipeline: populate a store,
//! render the documents, verify the `--check` logic accepts faithful docs and
//! catches tampered ones, and pin the store the renders read against the
//! kernel-named key derivation the committed `results.store` is filed under.

use flywheel_bench::store::{self, ResultStore};
use flywheel_core::FlywheelConfig;
use flywheel_report::{
    check_block, check_stored, diff_texts, experiments_block, patch_block, results_markdown,
    FigureRuns, BLOCK_BEGIN, BLOCK_END,
};
use flywheel_timing::TechNode;
use flywheel_uarch::{BaselineConfig, SimBudget};
use flywheel_workloads::Benchmark;

fn tiny_budget() -> SimBudget {
    SimBudget::new(150, 600)
}

#[test]
fn pipeline_regenerates_checks_and_catches_tampering() {
    let budget = tiny_budget();
    let mut store = ResultStore::in_memory();
    assert!(check_stored(&store, budget).is_err());

    // A cold run simulates every figure cell; a second run is free.
    let (runs, first) = FigureRuns::run(&mut store, budget).unwrap();
    assert!(first.simulated > 0);
    check_stored(&store, budget).unwrap();
    let (again, second) = FigureRuns::run(&mut store, budget).unwrap();
    assert_eq!(second.simulated, 0, "the figure runs must be incremental");
    assert_eq!(second.hits, first.hits + first.simulated);

    // Regeneration is deterministic: two renders are byte-identical, whether
    // the cells were simulated or recalled.
    let results = results_markdown(&runs, None).unwrap();
    let block = experiments_block(&runs).unwrap();
    assert_eq!(results, results_markdown(&again, None).unwrap());

    // A faithful document passes the check.
    let doc =
        format!("# Experiments\n\nprose\n\n{BLOCK_BEGIN}\nstale\n{BLOCK_END}\n\nmore prose\n");
    let published = patch_block(&doc, &block).unwrap();
    check_block(&published, &block, "EXPERIMENTS.md").unwrap();
    diff_texts(&results, &results, "RESULTS.md").unwrap();

    // Tamper with one digit inside a figure table: the check must fail and
    // point at the divergence.
    let digit = published
        .char_indices()
        .skip(published.find("== Figure 11").unwrap())
        .find(|(_, c)| c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap();
    let mut tampered = published.clone();
    let old = tampered.remove(digit);
    tampered.insert(digit, if old == '9' { '8' } else { '9' });
    let err = check_block(&tampered, &block, "EXPERIMENTS.md").unwrap_err();
    assert!(err.contains("out of sync"), "got: {err}");

    // Deleting a marker is reported as such, not as a silent pass.
    let headless = published.replace(BLOCK_END, "");
    assert!(check_block(&headless, &block, "EXPERIMENTS.md").is_err());

    // Tampering RESULTS.md is caught by the same diff.
    let tampered_results = results.replacen("average", "avg", 1);
    assert!(diff_texts(&tampered_results, &results, "RESULTS.md").is_err());
}

#[test]
fn figure_cells_are_filed_under_the_kernel_named_keys() {
    // The committed store files every figure cell under baseline_key /
    // flywheel_key of the paper configuration; the figure runs must look the
    // cells up there, or a warm check would find nothing.
    let budget = tiny_budget();
    let mut store = ResultStore::in_memory();
    FigureRuns::run(&mut store, budget).unwrap();
    let bench = Benchmark::Gzip;
    for node in TechNode::power_study_nodes().iter().copied() {
        for seed in flywheel_report::sensitivity_seeds().iter().copied() {
            let base = BaselineConfig::paper(node);
            assert!(store.contains(&store::baseline_key(&base, bench, seed, budget)));
            let fly = FlywheelConfig::paper(node, 100, 50);
            assert!(store.contains(&store::flywheel_key(&fly, bench, seed, budget)));
        }
    }
    let n130 = TechNode::N130;
    for cfg in [
        BaselineConfig::paper(n130).with_extra_frontend_stage(),
        BaselineConfig::paper(n130).with_pipelined_wakeup(),
    ] {
        assert!(store.contains(&store::baseline_key(&cfg, bench, 2005, budget)));
    }
    let regalloc = FlywheelConfig::register_allocation_only(n130);
    assert!(store.contains(&store::flywheel_key(&regalloc, bench, 2009, budget)));
}

#[test]
fn missing_records_name_the_populate_commands() {
    let store = ResultStore::in_memory();
    let err = check_stored(&store, tiny_budget()).unwrap_err();
    assert!(err.contains("baseline/ijpeg/s2005"), "got: {err}");
    assert!(err.contains("--populate"), "got: {err}");
    assert!(err.contains("--store results.store"), "got: {err}");
}
