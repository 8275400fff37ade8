//! Set-up and one timed pass over a plan's cells. Every cell goes through the
//! layers' public calls, each timed as a span:
//!
//! | span                     | call                                          |
//! |--------------------------|-----------------------------------------------|
//! | `scenario.expand`        | `Scenario::expand` (via [`Plan::cells`])      |
//! | `executor.build`         | `ScenarioCell::executor` + `Executor::validate` |
//! | `executor.key`           | `Executor::key`                               |
//! | `store.open`/`get`/`insert` | `ResultStore::open_recovering`/`get`/`insert` |
//! | `workloads.shared_trace` | `shared_trace` (set-up: `Benchmark::synthesize`, `RecordedTrace::record`) |
//! | `uarch.replay`/`core.replay` | `Executor::replay` on a trace cursor      |
//! | `scenario.check`         | `check_cell_invariants`                       |
//! | `scenario.aggregate`     | `ScenarioRun::seed_aggregates` + `check_aggregate_invariants` |
//! | `scenario.emit`          | `ScenarioRun::to_csv` + `to_json`             |
//! | `harness.sweep`          | `parallel_map_jobs` over the cells            |

use crate::calib::HostSpeed;
use crate::grid::{Plan, PlannedCell, Reference};
use crate::spans::{Recorder, Span};
use crate::stats::median;
use flywheel_bench::scenario::{
    check_cell_invariants, CellResult, FailCause, FailedCell, ScenarioCell, ScenarioRun,
};
use flywheel_bench::store::{ResultStore, RunStats, StoreKey};
use flywheel_bench::{parallel_map_jobs, shared_trace};
use flywheel_uarch::watchdog::{self, WatchdogConfig, WatchdogTimeout};
use flywheel_uarch::SimBudget;
use flywheel_workloads::RecordedTrace;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Set-up repeats until it has run at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median repetition.
pub const SETUP_MIN_REPS: usize = 5;

/// See [`SETUP_MIN_REPS`].
pub const SETUP_SECONDS: f64 = 2.0;

/// Set-up times a reference slice after each stretch of about this many
/// seconds, and scales the repetitions of the stretch by the host speed the
/// slices around it show (see [`crate::calib`]).
pub const SETUP_STRETCH_SECONDS: f64 = 0.25;

/// What set-up measured.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// Seconds of each repetition: store open plus every program's
    /// synthesis and trace capture.
    pub setup_s: Vec<f64>,
    /// How many times slower than nominal the host ran during each
    /// repetition.
    pub slowdown: Vec<f64>,
    /// Milliseconds spent in `Benchmark::synthesize`, per direct repetition.
    pub synthesize_ms: Vec<f64>,
    /// Milliseconds spent in `RecordedTrace::record`, per direct repetition.
    pub record_ms: Vec<f64>,
    /// Distinct `(benchmark, seed)` programs.
    pub programs: usize,
    /// Bytes of the recorded traces the passes replay.
    pub arena_bytes: usize,
}

impl Setup {
    /// The median of `per_rep`, host times of the first repetitions, each
    /// scaled to nominal host speed.
    pub fn nominal_median(&self, per_rep: &[f64]) -> f64 {
        let v: Vec<f64> = per_rep
            .iter()
            .zip(&self.slowdown)
            .map(|(t, s)| t / s)
            .collect();
        median(&v)
    }
}

/// Sets up `plan` repeatedly (see [`SETUP_MIN_REPS`]): each repetition opens
/// a fresh store, then synthesizes and records every program. All but the
/// last repetition call `Benchmark::synthesize` and `RecordedTrace::record`
/// directly, to time the two apart; the last goes through `shared_trace`,
/// whose cache the passes then replay from. Reference slices on `speed`
/// bracket every stretch of repetitions; `speed` must hold the slice timed
/// just before.
pub fn set_up(
    plan: &Plan,
    scratch: &Path,
    rec: &mut Recorder,
    speed: &mut HostSpeed,
) -> Result<Setup, String> {
    let programs = plan.programs();
    let mut out = Setup {
        programs: programs.len(),
        ..Setup::default()
    };
    let path = scratch.join("setup.store");
    let start = Instant::now();
    let mut stretch = Instant::now();
    let mut direct = true;
    while direct {
        direct =
            out.setup_s.len() + 1 < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS;
        let t0 = Instant::now();
        let root = rec.begin("harness.setup");
        rec.span("store.open", |_| ResultStore::open_recovering(&path))
            .map_err(|e| format!("set-up store open: {e}"))?;
        let (mut synth, mut record) = (Duration::ZERO, Duration::ZERO);
        for &(bench, seed, budget) in &programs {
            if direct {
                let t = Instant::now();
                let program = rec.span("workloads.synthesize", |_| bench.synthesize(seed));
                let t_mid = Instant::now();
                let need = RecordedTrace::capture_len_for(budget.total());
                black_box(rec.span("workloads.record", |_| {
                    RecordedTrace::record(&program, seed, need)
                }));
                record += t_mid.elapsed();
                synth += t_mid - t;
            } else {
                let trace = rec.span("workloads.shared_trace", |_| {
                    shared_trace(bench, seed, budget)
                });
                out.arena_bytes += trace.arena_bytes();
            }
        }
        rec.end(root);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if direct {
            out.synthesize_ms.push(synth.as_secs_f64() * 1e3);
            out.record_ms.push(record.as_secs_f64() * 1e3);
        }
        if !direct || stretch.elapsed().as_secs_f64() >= SETUP_STRETCH_SECONDS {
            speed.time_slice()?;
            out.slowdown
                .resize(out.setup_s.len(), speed.last_slowdown());
            stretch = Instant::now();
        }
    }
    Ok(out)
}

/// What one pass measured and found.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// Host seconds of the timed sweep.
    pub wall_s: f64,
    /// Instructions simulated (warm-up + measured) by the cells that
    /// completed.
    pub instructions: u64,
    /// Host milliseconds of each cell, in execution order.
    pub cell_ms: Vec<f64>,
    /// Each cell's result, in execution order (`None`: the cell failed).
    pub results: Vec<Option<RunStats>>,
    /// Failed cells by execution position, with the first reason found.
    pub failed: BTreeMap<usize, String>,
    /// Failures that belong to no single cell.
    pub errors: Vec<String>,
    /// Store lookups made, and how many of them hit.
    pub store_gets: u64,
    /// Store lookups that hit.
    pub store_hits: u64,
    /// Mean seconds a cell waited, from the sweep's start until a worker took
    /// it.
    pub queue_wait_s: f64,
    /// Seconds between the first and the last worker running out of cells.
    pub straggler_s: f64,
    /// The pass's spans in the recorder.
    pub spans: std::ops::Range<usize>,
    /// How many times slower than nominal the host ran during the pass
    /// (see [`crate::calib`]); 1 until the caller measures it.
    pub slowdown: f64,
}

impl PassOutcome {
    /// Simulated MIPS of the pass, scaled to nominal host speed.
    pub fn nominal_mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6 * self.slowdown
    }

    /// A host time measured during the pass, scaled to nominal host speed.
    pub fn nominal(&self, host_time: f64) -> f64 {
        host_time / self.slowdown
    }

    /// Whether this pass's spans were recorded.
    pub fn traced(&self) -> bool {
        !self.spans.is_empty()
    }
}

/// One cell as a worker ran it.
struct CellRun {
    outcome: Result<(StoreKey, RunStats), String>,
    start_ns: u64,
    end_ns: u64,
    worker: ThreadId,
    spans: Vec<Span>,
}

/// The watchdog a cell is armed with: the sweep engine's cycle cap, which no
/// healthy cell reaches.
fn watchdog_config(budget: SimBudget) -> WatchdogConfig {
    WatchdogConfig::cycles(
        budget
            .total()
            .saturating_mul(10_000)
            .saturating_add(10_000_000),
    )
}

/// The calls one cold cell makes, each timed as a span.
fn run_cell(
    cell: &ScenarioCell,
    budget: SimBudget,
    store: &ResultStore,
    rec: &mut Recorder,
) -> Result<(StoreKey, RunStats), String> {
    let exec = rec.span("executor.build", |_| {
        let exec = cell.executor();
        exec.validate().map(|()| exec)
    })?;
    let key = rec.span("executor.key", |_| exec.key(budget));
    if rec.span("store.get", |_| store.get(&key).is_some()) {
        return Err("the cold store already held the cell".to_owned());
    }
    let trace = rec.span("workloads.shared_trace", |_| {
        shared_trace(cell.bench, cell.seed, budget)
    });
    let kernel = if cell.machine.is_baseline() {
        "uarch.replay"
    } else {
        "core.replay"
    };
    let stats = {
        let _watchdog = watchdog::arm(watchdog_config(budget));
        rec.span(kernel, |_| exec.replay(trace.cursor(), budget))
    };
    let result = CellResult {
        sim: stats.sim.clone(),
        flywheel: stats.flywheel,
    };
    rec.span("scenario.check", |_| {
        check_cell_invariants(cell, budget, &result)
    })?;
    Ok((key, stats))
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(t) = payload.downcast_ref::<WatchdogTimeout>() {
        return format!("watchdog: {t}");
    }
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panic: {msg}")
}

/// Runs one timed pass: expands the plan, sweeps every cell cold into a
/// fresh store at `store_path`, appends the results, optionally reopens the
/// store and recalls every cell warm, then aggregates and emits each
/// scenario. Afterwards, outside the timed sweep, it checks every result
/// against `reference` and against `first` (the first pass's results).
///
/// A cell that panics, trips its watchdog, fails an invariant, differs from
/// its reference or is not recalled bit-identically is counted in `failed`;
/// the pass always completes. Only an I/O error on the store is an `Err`.
pub fn run_pass(
    plan: &Plan,
    reference: &Reference,
    first: Option<&[Option<RunStats>]>,
    store_path: &Path,
    pass_no: usize,
    rec: &mut Recorder,
) -> Result<PassOutcome, String> {
    let _ = std::fs::remove_file(store_path);
    let first_span = rec.spans().len();
    let t0 = Instant::now();
    let root = rec.begin("harness.pass");
    let cells: Vec<(usize, PlannedCell)> = rec.span("scenario.expand", |_| {
        plan.cells().into_iter().enumerate().collect()
    });
    let n = cells.len();
    let (mut store, _) = rec
        .span("store.open", |_| ResultStore::open_recovering(store_path))
        .map_err(|e| format!("cold store open: {e}"))?;

    let sweep = rec.begin("harness.sweep");
    let sweep_start = rec.now_ns();
    let (armed, epoch) = (rec.armed(), rec.epoch());
    let cell_base = (pass_no * n) as u64;
    let runs = parallel_map_jobs(&cells, plan.jobs, |&(i, (cell, budget, _))| {
        let mut cell_rec = Recorder::for_cell(armed, epoch, cell_base + i as u64);
        let start_ns = cell_rec.now_ns();
        let span = cell_rec.begin("harness.cell");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_cell(&cell, budget, &store, &mut cell_rec)
        }))
        .unwrap_or_else(|payload| Err(panic_message(payload)));
        cell_rec.end(span);
        CellRun {
            outcome,
            start_ns,
            end_ns: cell_rec.now_ns(),
            worker: std::thread::current().id(),
            spans: cell_rec.into_spans(),
        }
    });
    rec.end(sweep);

    let mut cell_ms = Vec::with_capacity(n);
    let mut worker_done: HashMap<ThreadId, u64> = HashMap::new();
    let mut waited_ns = 0u64;
    let mut failed = BTreeMap::new();
    let mut done: Vec<Option<(StoreKey, RunStats)>> = Vec::with_capacity(n);
    for (i, run) in runs.into_iter().enumerate() {
        rec.absorb(run.spans, sweep);
        cell_ms.push((run.end_ns - run.start_ns) as f64 / 1e6);
        waited_ns += run.start_ns.saturating_sub(sweep_start);
        let last = worker_done.entry(run.worker).or_insert(0);
        *last = (*last).max(run.end_ns);
        match run.outcome {
            Ok(r) => done.push(Some(r)),
            Err(e) => {
                failed.insert(i, e);
                done.push(None);
            }
        }
    }
    for (i, r) in done.iter().enumerate() {
        if let Some((key, stats)) = r {
            let label = cells[i].1 .0.label();
            if let Err(e) = rec.span("store.insert", |_| {
                store.insert(*key, &label, stats.clone())
            }) {
                failed.entry(i).or_insert(format!("store append: {e}"));
            }
        }
    }
    let mut store_gets = n as u64;
    let mut store_hits = 0;
    let mut recalled: Vec<Option<RunStats>> = Vec::new();
    if plan.warm_pass {
        drop(store);
        let (warm, report) = rec
            .span("store.open", |_| ResultStore::open_recovering(store_path))
            .map_err(|e| format!("warm store open: {e}"))?;
        if !report.is_clean() {
            return Err(format!(
                "warm store open repaired the store: {}",
                report.describe()
            ));
        }
        recalled = done
            .iter()
            .map(|r| {
                let (key, _) = r.as_ref()?;
                rec.span("store.get", |_| warm.get(key).cloned())
            })
            .collect();
        store_gets += done.iter().flatten().count() as u64;
        store_hits += recalled.iter().flatten().count() as u64;
    }

    let mut errors = Vec::new();
    let scenario_runs = scenario_runs(plan, &cells, &done, &failed);
    rec.span("scenario.aggregate", |_| {
        for run in &scenario_runs {
            black_box(run.seed_aggregates());
            if let Err(e) = run.check_aggregate_invariants() {
                errors.push(format!("scenario {}: {e}", run.scenario.name));
            }
        }
    });
    rec.span("scenario.emit", |_| {
        for run in &scenario_runs {
            black_box((run.to_csv(), run.to_json()));
        }
    });
    rec.end(root);
    let wall_s = t0.elapsed().as_secs_f64();

    let results: Vec<Option<RunStats>> = done.into_iter().map(|r| r.map(|(_, s)| s)).collect();
    for (i, r) in results.iter().enumerate() {
        let Some(stats) = r else { continue };
        let (cell, budget, _) = &cells[i].1;
        let mut fail = |msg: String| {
            failed
                .entry(i)
                .or_insert(format!("{}: {msg}", cell.label()));
        };
        if let Err(e) = reference.check(cell, *budget, stats) {
            fail(e);
        }
        let bits = format!("{stats:?}");
        if plan.warm_pass && recalled[i].as_ref().map(|s| format!("{s:?}")) != Some(bits.clone()) {
            fail("the warm store did not recall the cell bit-identically".to_owned());
        }
        if let Some(first) = first {
            if first[i].as_ref().map(|s| format!("{s:?}")) != Some(bits) {
                fail("the result differs from the first pass".to_owned());
            }
        }
    }
    let instructions = cells
        .iter()
        .zip(&results)
        .filter(|(_, r)| r.is_some())
        .map(|((_, (_, b, _)), _)| b.total())
        .sum();
    let done_ns: Vec<u64> = worker_done.into_values().collect();
    let straggler_ns = done_ns.iter().max().unwrap_or(&0) - done_ns.iter().min().unwrap_or(&0);
    Ok(PassOutcome {
        wall_s,
        instructions,
        cell_ms,
        results,
        failed,
        errors,
        store_gets,
        store_hits,
        queue_wait_s: waited_ns as f64 / n.max(1) as f64 / 1e9,
        straggler_s: straggler_ns as f64 / 1e9,
        spans: first_span..rec.spans().len(),
        slowdown: 1.0,
    })
}

/// One `ScenarioRun` per scenario of the plan, its cells in grid order, its
/// failed cells in the manifest.
fn scenario_runs(
    plan: &Plan,
    cells: &[(usize, PlannedCell)],
    done: &[Option<(StoreKey, RunStats)>],
    failed: &BTreeMap<usize, String>,
) -> Vec<ScenarioRun> {
    let mut runs: Vec<ScenarioRun> = plan
        .scenarios
        .iter()
        .map(|s| ScenarioRun {
            scenario: s.clone(),
            cells: Vec::new(),
            results: Vec::new(),
            failed: Vec::new(),
        })
        .collect();
    let mut by_grid: Vec<usize> = (0..cells.len()).collect();
    by_grid.sort_by_key(|&i| plan.order[i]);
    for i in by_grid {
        let (cell, _, s) = cells[i].1;
        match (&done[i], failed.get(&i)) {
            (Some((_, stats)), None) => {
                runs[s].cells.push(cell);
                runs[s].results.push(CellResult {
                    sim: stats.sim.clone(),
                    flywheel: stats.flywheel,
                });
            }
            (_, reason) => runs[s].failed.push(FailedCell {
                cell,
                cause: FailCause::Panic(reason.cloned().unwrap_or_default()),
                attempts: 1,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::golden_line;
    use flywheel_bench::executor::Machine;
    use flywheel_bench::scenario::Scenario;
    use flywheel_workloads::Benchmark;

    #[test]
    fn a_corrupted_reference_line_fails_its_cell_and_the_pass_completes() {
        let budget = SimBudget::new(100, 1_000);
        let mut s = Scenario::new("tiny", budget);
        s.benchmarks = vec![Benchmark::Micro];
        s.machines = vec![Machine::Baseline, Machine::Flywheel];
        s.seeds = vec![42];
        let plan = Plan::from_scenarios(vec![s], 3, 1, true);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("pass.store");
        let mut rec = Recorder::new(true, Instant::now());
        let mut pass = |reference: &Reference, first: Option<&[Option<RunStats>]>| {
            run_pass(&plan, reference, first, &store, 0, &mut rec).unwrap()
        };

        // A reference generated at another budget covers none of the cells.
        let clean = pass(&Reference::new("", 42, SimBudget::new(0, 1)), None);
        assert!(
            clean.failed.is_empty() && clean.errors.is_empty(),
            "{:?} {:?}",
            clean.failed,
            clean.errors
        );
        let lines: Vec<String> = plan
            .cells()
            .iter()
            .zip(&clean.results)
            .flat_map(|((c, b, _), r)| {
                let r = r.as_ref().unwrap();
                Reference::new("", 42, budget)
                    .labels_for(c, *b)
                    .into_iter()
                    .map(move |l| golden_line(&l, r))
            })
            .collect();
        assert_eq!(
            lines.len(),
            3,
            "baseline covers two golden lines, flywheel one"
        );
        let matching = pass(&Reference::new(&lines.join("\n"), 42, budget), None);
        assert!(matching.failed.is_empty());

        let corrupted: Vec<String> = lines
            .iter()
            .map(|l| match l.starts_with("flywheel/") {
                true => l.replacen("instructions: 1000", "instructions: 1001", 1),
                false => l.clone(),
            })
            .collect();
        assert_ne!(corrupted, lines);
        let p = pass(
            &Reference::new(&corrupted.join("\n"), 42, budget),
            Some(&clean.results),
        );
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(p.failed.len(), 1, "{:?}", p.failed);
        assert!(p.failed.values().all(|m| m.contains("golden.txt")));
        assert_eq!(
            p.results.iter().flatten().count(),
            2,
            "every cell still ran"
        );
        assert_eq!(
            (p.store_gets, p.store_hits),
            (4, 2),
            "cold misses, warm hits"
        );
    }
}
