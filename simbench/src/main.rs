//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! simbench --workload <ref-suite|stress-families|seed-sweep> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

use flywheel_bench::store::RunStats;
use flywheel_simbench::calib::{self, HostSpeed};
use flywheel_simbench::grid::{golden_budget, Plan, PlannedCell, Reference, Workload, GOLDEN_SEED};
use flywheel_simbench::host::{json_str, peak_rss_mib, Fingerprint};
use flywheel_simbench::pass::{self, PassOutcome, Setup};
use flywheel_simbench::spans::{self, Recorder};
use flywheel_simbench::stats::{median, tail};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Passes a run makes at least, however short `--seconds` is: two untraced
/// and two traced ones when tracing.
const MIN_PASSES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::from_name(&v).ok_or(format!(
                    "unknown workload '{v}' (expected one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A measured run: set-up, the passes, and the spans of both.
struct Measured {
    plan: Plan,
    setup: Setup,
    passes: Vec<PassOutcome>,
    recorder: Recorder,
    setup_spans: std::ops::Range<usize>,
    speed: HostSpeed,
}

fn measure(args: &Args, reference: &Reference, scratch: &Path) -> Result<Measured, String> {
    let plan = Plan::new(args.workload, args.seed);
    let mut rec = Recorder::new(args.trace, Instant::now());
    // Reference slices bracket set-up and every pass, to measure the host's
    // speed at each moment (see `calib`).
    let mut speed = HostSpeed::default();
    speed.time_slice()?;
    let setup = pass::set_up(&plan, scratch, &mut rec, &mut speed)?;
    let setup_spans = 0..rec.spans().len();
    let store = scratch.join("pass.store");
    let mut passes: Vec<PassOutcome> = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates untraced and traced passes, so it measures
        // its own tracing overhead.
        rec.set_armed(args.trace && passes.len() % 2 == 1);
        let first = passes.first().map(|p| p.results.as_slice());
        let mut p = pass::run_pass(&plan, reference, first, &store, passes.len(), &mut rec)?;
        speed.time_slice()?;
        p.slowdown = speed.last_slowdown();
        passes.push(p);
    }
    Ok(Measured {
        plan,
        setup,
        passes,
        recorder: rec,
        setup_spans,
        speed,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("the benchmark has no parent directory")?;
    let golden_path = root.join("golden.txt");
    let golden = std::fs::read_to_string(&golden_path)
        .map_err(|e| format!("cannot read {}: {e}", golden_path.display()))?;
    let reference = Reference::new(&golden, GOLDEN_SEED, golden_budget());
    let out_dir = bench_dir.join("out");
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let measured = measure(&args, &reference, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    report(&args, &reference, &measured?, root, &out_dir)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Median simulated MIPS of `passes`, scaled to nominal host speed.
fn sim_mips(passes: &[&PassOutcome]) -> f64 {
    median(&passes.iter().map(|p| p.nominal_mips()).collect::<Vec<_>>())
}

fn report(
    args: &Args,
    reference: &Reference,
    m: &Measured,
    root: &Path,
    out_dir: &Path,
) -> Result<(), String> {
    let host = Fingerprint::take(root);
    let plain: Vec<&PassOutcome> = m.passes.iter().filter(|p| !p.traced()).collect();
    let traced: Vec<&PassOutcome> = m.passes.iter().filter(|p| p.traced()).collect();
    let cells = m.plan.cells();

    // Every pass runs the same cells in the same order. A cell's time is its
    // median over the passes, so a host hiccup in one pass does not set the
    // tail; the slow cells do. `measured` is as timed, `nominal` scaled to
    // nominal host speed pass by pass.
    let cell_ms_by = |scale: fn(&PassOutcome, f64) -> f64| -> Vec<f64> {
        (0..cells.len())
            .map(|j| {
                median(
                    &plain
                        .iter()
                        .map(|p| scale(p, p.cell_ms[j]))
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let cell_ms = cell_ms_by(PassOutcome::nominal);
    let measured_cell_ms = cell_ms_by(|_, ms| ms);
    let (tail_pct, tail_ms) = tail(&cell_ms);
    let attempted: usize = m.passes.iter().map(|p| p.cell_ms.len()).sum();
    let failed: usize = m.passes.iter().map(|p| p.failed.len()).sum();
    let errors: Vec<&String> = m.passes.iter().flat_map(|p| &p.errors).collect();
    let correct = failed == 0 && errors.is_empty();
    let failures: Vec<&String> = m
        .passes
        .iter()
        .flat_map(|p| p.failed.values())
        .chain(errors)
        .collect();
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    // Host times as measured; the reported ones are scaled to nominal host
    // speed (see `calib`).
    let measured = [
        median(
            &plain
                .iter()
                .map(|p| p.instructions as f64 / p.wall_s / 1e6)
                .collect::<Vec<_>>(),
        ),
        median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        median(&m.setup.setup_s),
        median(&measured_cell_ms),
        tail(&measured_cell_ms).1,
    ];
    let end_to_end = vec![
        metric("sim_mips", "MIPS", sim_mips(&plain)),
        metric(
            "wall_s",
            "s",
            median(
                &plain
                    .iter()
                    .map(|p| p.nominal(p.wall_s))
                    .collect::<Vec<_>>(),
            ),
        ),
        metric("setup_s", "s", m.setup.nominal_median(&m.setup.setup_s)),
        metric("cell_ms.p50", "ms", median(&cell_ms)),
        metric("cell_ms.tail", "ms", tail_ms),
        metric("peak_rss_mib", "MiB", peak_rss_mib()),
    ];

    let golden_lines: usize = cells
        .iter()
        .map(|(c, b, _)| reference.labels_for(c, *b).len())
        .sum();
    println!(
        "simbench {} seed {}: {} passes of {} cells on {} worker(s); host nproc={} cpu={:?} {} commit={}",
        args.workload.name(),
        args.seed,
        m.passes.len(),
        cells.len(),
        m.plan.jobs,
        host.nproc,
        host.cpu,
        host.rustc,
        host.commit
    );
    let range = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        format!("{lo:.3}..{:.3}", v.iter().copied().fold(0.0, f64::max))
    };
    let pass_slowdown: Vec<f64> = m.passes.iter().map(|p| p.slowdown).collect();
    println!(
        "  host speed: reference slice median {:.2} ms over {} slices, nominal {:.2} ms; \
         slowdown {} in set-up, {} in passes",
        median(&m.speed.slice_s) * 1e3,
        m.speed.slice_s.len(),
        calib::NOMINAL_SLICE_S * 1e3,
        range(&m.setup.slowdown),
        range(&pass_slowdown),
    );
    println!(
        "  {:<14} {:>12} {:<5} {:>12}",
        "", "nominal", "", "measured"
    );
    for (i, e) in end_to_end.iter().enumerate() {
        let note = if e.name == "cell_ms.tail" {
            format!(
                "  (p{tail_pct} of {} cells, each its median over {} passes)",
                cell_ms.len(),
                plain.len()
            )
        } else {
            String::new()
        };
        let raw = measured.get(i).map_or(String::new(), |v| format!("{v:.4}"));
        println!(
            "  {:<14} {:>12.4} {:<5} {raw:>12}{note}",
            e.name, e.value, e.unit
        );
    }
    println!(
        "  {:<14} {:>12} ratio  ({failed} of {attempted} cells failed)",
        "fail_ratio", fail_ratio
    );
    println!("  golden.txt: {golden_lines} lines covered per pass, checked on every pass");
    let pass_mips: Vec<f64> = m
        .passes
        .iter()
        .map(|p| p.instructions as f64 / p.wall_s / 1e6)
        .collect();
    let marked: Vec<String> = pass_mips
        .iter()
        .zip(&m.passes)
        .map(|(v, p)| {
            format!(
                "{v:.3}/{:.3}{}",
                p.slowdown,
                if p.traced() { "t" } else { "" }
            )
        })
        .collect();
    println!(
        "  measured MIPS/slowdown per pass (t = traced): {}",
        marked.join(" ")
    );
    for (i, msg) in failures.iter().take(10).enumerate() {
        eprintln!("failure {}: {msg}", i + 1);
    }

    let mut per_layer = Vec::new();
    let mut self_s = BTreeMap::new();
    if args.trace {
        per_layer = layer_metrics(m, &plain, &traced, &cells);
        for p in &traced {
            for (layer, ns) in spans::layer_self_ns(m.recorder.spans(), p.spans.clone()) {
                self_s
                    .entry(layer)
                    .or_insert_with(Vec::new)
                    .push(ns as f64 / 1e9);
            }
        }
        let setup_self = spans::layer_self_ns(m.recorder.spans(), m.setup_spans.clone());
        println!(
            "  layer self time per traced pass (median of {}), and over all set-up repetitions:",
            traced.len()
        );
        for (layer, v) in &self_s {
            let setup = setup_self.get(layer).map_or(0.0, |&ns| ns as f64 / 1e9);
            println!(
                "    {layer:<10} {:>10.6} s   set-up {setup:>10.6} s",
                median(v)
            );
        }
        for e in &per_layer {
            println!("  {:<32} {:>14.6} {}", e.name, e.value, e.unit);
        }
        let spans_path = out_dir.join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        let header = format!(
            "{{\"workload\":{},\"seed\":{},\"host\":{}}}",
            json_str(args.workload.name()),
            args.seed,
            host.to_json()
        );
        spans::write_jsonl(&spans_path, &header, m.recorder.spans())
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        println!("  spans: {}", spans_path.display());
    }

    let self_json: Vec<String> = self_s
        .iter()
        .map(|(l, v)| format!("{}: {}", json_str(l), json_num(median(v))))
        .collect();
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host\": {}, \"passes\": {}, \"cells_per_pass\": {}, \
         \"workers\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"fail_ratio\": {}, \
         \"cell_ms_tail_percentile\": {tail_pct}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"pass_mips\": [{}], \"reference_slice_s\": [{}], \"pass_slowdown\": [{}], \
         \"layer_self_s\": {{{}}}, \"failures\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        host.to_json(),
        m.passes.len(),
        cells.len(),
        m.plan.jobs,
        json_num(fail_ratio),
        metrics_json(&end_to_end),
        metrics_json(&per_layer),
        pass_mips.iter().map(|&v| json_num(v)).collect::<Vec<_>>().join(", "),
        m.speed
            .slice_s
            .iter()
            .map(|&v| json_num(v))
            .collect::<Vec<_>>()
            .join(", "),
        pass_slowdown
            .iter()
            .map(|&v| json_num(v))
            .collect::<Vec<_>>()
            .join(", "),
        self_json.join(", "),
        failures.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(", ")
    );
    let result_path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&result_path, format!("{result}\n"))
        .map_err(|e| format!("cannot write {}: {e}", result_path.display()))?;
    println!("  result: {}", result_path.display());

    let reported = if args.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(reported)
    );
    Ok(())
}

/// Sums of the simulated-model counters over one kernel's cells.
#[derive(Default)]
struct Model {
    cells: usize,
    total_insts: u64,
    insts: u64,
    cycles: f64,
    be_cycles: u64,
    squashed: u64,
    ec_lookups: u64,
    ec_hits: u64,
    divergences: u64,
    pool_stalls: u64,
    residency: Vec<f64>,
}

impl Model {
    fn add(&mut self, stats: &RunStats, budget_total: u64, has_ec: bool) {
        let s = &stats.sim;
        self.cells += 1;
        self.total_insts += budget_total;
        self.insts += s.instructions;
        self.be_cycles += s.be_cycles;
        // Warm-up cycles are not reported; estimate them at the measured CPI.
        self.cycles += s.be_cycles as f64 * budget_total as f64 / s.instructions.max(1) as f64;
        self.squashed += s.squashed;
        if let Some(f) = &stats.flywheel {
            self.ec_lookups += f.ec_lookups;
            self.ec_hits += f.ec_hits;
            self.divergences += f.trace_divergences;
            self.pool_stalls += f.pool_stalls;
            if has_ec {
                self.residency.push(f.ec_residency);
            }
        }
    }

    fn per_kinst(&self, count: u64) -> f64 {
        count as f64 * 1e3 / self.insts as f64
    }
}

fn layer_metrics(
    m: &Measured,
    plain: &[&PassOutcome],
    traced: &[&PassOutcome],
    cells: &[PlannedCell],
) -> Vec<Metric> {
    let all = m.recorder.spans();
    // Every host time below is scaled to nominal host speed, pass by pass,
    // as the end-to-end times are.
    let totals: Vec<_> = traced
        .iter()
        .map(|p| (p, spans::totals(&all[p.spans.clone()])))
        .collect();
    // Median over traced passes of a span's total seconds per pass.
    let per_pass_s = |name: &str| {
        let v: Vec<f64> = totals
            .iter()
            .map(|(p, t)| p.nominal(t.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9)))
            .collect();
        median(&v)
    };
    // Mean seconds per call of a span, over every traced pass.
    let per_call_s = |name: &str| {
        let (s, n) = totals
            .iter()
            .filter_map(|(p, t)| t.get(name).map(|&(ns, n)| (p.nominal(ns as f64 / 1e9), n)))
            .fold((0.0, 0u64), |(a, b), (s, n)| (a + s, b + n));
        s / n.max(1) as f64
    };
    let pass_median = |f: fn(&PassOutcome) -> f64| {
        median(&traced.iter().map(|p| p.nominal(f(p))).collect::<Vec<_>>())
    };

    let (mut uarch, mut core) = (Model::default(), Model::default());
    let first = &m.passes[0].results;
    for ((cell, budget, _), stats) in cells.iter().zip(first) {
        let Some(stats) = stats else { continue };
        let kernel = if cell.machine.is_baseline() {
            &mut uarch
        } else {
            &mut core
        };
        kernel.add(stats, budget.total(), cell.machine.uses_ec_axis());
    }
    let uarch_busy = per_pass_s("uarch.replay");
    let core_busy = per_pass_s("core.replay");
    let gets: u64 = traced.iter().map(|p| p.store_gets).sum();
    let hits: u64 = traced.iter().map(|p| p.store_hits).sum();
    let plain_mips = sim_mips(plain);
    vec![
        metric(
            "workloads.synthesize_ms",
            "ms",
            m.setup.nominal_median(&m.setup.synthesize_ms),
        ),
        metric(
            "workloads.record_ms",
            "ms",
            m.setup.nominal_median(&m.setup.record_ms),
        ),
        metric("workloads.programs", "count", m.setup.programs as f64),
        metric(
            "workloads.arena_mib",
            "MiB",
            m.setup.arena_bytes as f64 / (1 << 20) as f64,
        ),
        metric("uarch.busy_s", "s", uarch_busy),
        metric("uarch.cells", "count", uarch.cells as f64),
        metric(
            "uarch.sim_mips",
            "MIPS",
            uarch.total_insts as f64 / uarch_busy / 1e6,
        ),
        metric(
            "uarch.host_ns_per_cycle",
            "ns",
            uarch_busy * 1e9 / uarch.cycles,
        ),
        metric(
            "uarch.ipc",
            "inst/cycle",
            uarch.insts as f64 / uarch.be_cycles as f64,
        ),
        metric(
            "uarch.squashed_per_kinst",
            "1/kinst",
            uarch.per_kinst(uarch.squashed),
        ),
        metric("core.busy_s", "s", core_busy),
        metric("core.cells", "count", core.cells as f64),
        metric(
            "core.sim_mips",
            "MIPS",
            core.total_insts as f64 / core_busy / 1e6,
        ),
        metric(
            "core.host_ns_per_cycle",
            "ns",
            core_busy * 1e9 / core.cycles,
        ),
        metric("core.ec_residency", "ratio", mean_or_zero(&core.residency)),
        metric(
            "core.ec_lookups_per_kinst",
            "1/kinst",
            core.per_kinst(core.ec_lookups),
        ),
        metric(
            "core.ec_hit_rate",
            "ratio",
            core.ec_hits as f64 / core.ec_lookups.max(1) as f64,
        ),
        metric(
            "core.divergences_per_kinst",
            "1/kinst",
            core.per_kinst(core.divergences),
        ),
        metric(
            "core.pool_stalls_per_kinst",
            "1/kinst",
            core.per_kinst(core.pool_stalls),
        ),
        metric(
            "executor.build_us",
            "us",
            per_call_s("executor.build") * 1e6,
        ),
        metric("executor.key_us", "us", per_call_s("executor.key") * 1e6),
        metric("store.open_ms", "ms", per_call_s("store.open") * 1e3),
        metric("store.insert_us", "us", per_call_s("store.insert") * 1e6),
        metric("store.get_us", "us", per_call_s("store.get") * 1e6),
        metric("store.hit_ratio", "ratio", hits as f64 / gets.max(1) as f64),
        metric(
            "scenario.expand_ms",
            "ms",
            per_pass_s("scenario.expand") * 1e3,
        ),
        metric(
            "scenario.check_us",
            "us",
            per_call_s("scenario.check") * 1e6,
        ),
        metric(
            "scenario.aggregate_ms",
            "ms",
            per_pass_s("scenario.aggregate") * 1e3,
        ),
        metric("scenario.emit_ms", "ms", per_pass_s("scenario.emit") * 1e3),
        metric(
            "scenario.queue_wait_s",
            "s",
            pass_median(|p| p.queue_wait_s),
        ),
        metric("scenario.straggler_s", "s", pass_median(|p| p.straggler_s)),
        metric(
            "trace.overhead_pct",
            "%",
            (plain_mips - sim_mips(traced)) / plain_mips * 100.0,
        ),
    ]
}

fn mean_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
