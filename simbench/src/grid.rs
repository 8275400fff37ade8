//! The three workloads: which scenario grids a run sweeps, in which order,
//! with how many workers, and which `golden.txt` lines each cell must
//! reproduce.

use flywheel_bench::executor::Machine;
use flywheel_bench::scenario::{Scenario, ScenarioCell};
use flywheel_bench::store::RunStats;
use flywheel_rng::SimRng;
use flywheel_timing::TechNode;
use flywheel_uarch::SimBudget;
use flywheel_workloads::Benchmark;
use std::collections::{BTreeSet, HashMap};

/// The program seed `golden.txt` was generated with.
pub const GOLDEN_SEED: u64 = 42;

/// The instruction budget `golden.txt` was generated with.
pub fn golden_budget() -> SimBudget {
    SimBudget::new(5_000, 40_000)
}

/// `golden.txt`'s seven original benchmarks: the pinned reference set.
pub const GOLDEN_BENCHES: [Benchmark; 7] = [
    Benchmark::Micro,
    Benchmark::Gzip,
    Benchmark::Ijpeg,
    Benchmark::Parser,
    Benchmark::Vortex,
    Benchmark::Equake,
    Benchmark::Mesa,
];

/// The paper benchmarks of `seed-sweep`: the highest (ijpeg) and lowest
/// (vortex) Execution Cache residency of the suite, plus one more integer and
/// one floating-point program.
pub const SWEEP_BENCHES: [Benchmark; 4] = [
    Benchmark::Ijpeg,
    Benchmark::Gzip,
    Benchmark::Vortex,
    Benchmark::Equake,
];

/// Program seeds per benchmark in `seed-sweep`.
pub const SWEEP_SEEDS: usize = 48;

/// The short per-cell budget of `seed-sweep`, where program synthesis costs
/// about as much as simulating the cell.
pub fn sweep_budget() -> SimBudget {
    SimBudget::new(500, 5_000)
}

/// A benchmark workload: a fixed set of scenario grids and how they are run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `golden.txt`'s nine configuration points x its seven benchmarks.
    RefSuite,
    /// The stress and adversarial benchmarks x every registered family.
    StressFamilies,
    /// fig11's machines x four paper benchmarks x many program seeds.
    SeedSweep,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::RefSuite,
        Workload::StressFamilies,
        Workload::SeedSweep,
    ];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RefSuite => "ref-suite",
            Workload::StressFamilies => "stress-families",
            Workload::SeedSweep => "seed-sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario grids this workload sweeps for workload seed `seed`.
    ///
    /// `ref-suite` and `stress-families` are pinned: their cells use golden's
    /// program seed at every workload seed, so `golden.txt` checks every run.
    /// Only `seed-sweep` draws its program seeds from `seed`.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        let pinned = |name: &str, benches: &[Benchmark], machines: Vec<Machine>| {
            let mut s = Scenario::new(name, golden_budget());
            s.benchmarks = benches.to_vec();
            s.machines = machines;
            s.seeds = vec![GOLDEN_SEED];
            s
        };
        match self {
            Workload::RefSuite => {
                // golden's `paper_default` and `paper_n130` lines are the same
                // configuration, so its nine points are eight distinct cells.
                let fig2 = pinned(
                    "ref-fig2",
                    &GOLDEN_BENCHES,
                    vec![
                        Machine::Baseline,
                        Machine::BaselineExtraFe,
                        Machine::BaselinePipedWakeup,
                    ],
                );
                let mut dual = pinned("ref-dual-clock", &GOLDEN_BENCHES, vec![Machine::Baseline]);
                dual.baseline_clock = (50, 0);
                let mut fly = pinned("ref-flywheel", &GOLDEN_BENCHES, vec![Machine::Flywheel]);
                fly.clocks = vec![(0, 0), (50, 50), (100, 50)];
                let regalloc = pinned("ref-regalloc", &GOLDEN_BENCHES, vec![Machine::RegAlloc]);
                vec![fig2, dual, fly, regalloc]
            }
            Workload::StressFamilies => {
                let mut benches = Benchmark::stress_suite().to_vec();
                benches.extend_from_slice(Benchmark::adversarial_suite());
                vec![pinned("stress-families", &benches, Machine::all().to_vec())]
            }
            Workload::SeedSweep => {
                let mut s = Scenario::new("seed-sweep", sweep_budget());
                s.benchmarks = SWEEP_BENCHES.to_vec();
                s.machines = vec![Machine::Baseline, Machine::RegAlloc, Machine::Flywheel];
                s.seeds = sweep_seeds(seed);
                vec![s]
            }
        }
    }

    /// Sweep worker threads: one for the kernel-bound workloads, every core
    /// for `seed-sweep`.
    pub fn jobs(self) -> usize {
        match self {
            Workload::SeedSweep => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }

    /// Whether a pass reopens its store and recalls every cell warm.
    pub fn warm_pass(self) -> bool {
        self == Workload::SeedSweep
    }
}

/// `SWEEP_SEEDS` distinct program seeds drawn from the workload seed, sorted
/// (the scenario's seed axis must be strictly increasing).
pub fn sweep_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut seeds = BTreeSet::new();
    while seeds.len() < SWEEP_SEEDS {
        seeds.insert(rng.next_u64() >> 40);
    }
    seeds.into_iter().collect()
}

/// One cell of a pass: the grid point, its budget and the index of the
/// scenario it came from.
pub type PlannedCell = (ScenarioCell, SimBudget, usize);

/// What one run of a workload sweeps: the scenarios, the seeded order their
/// expanded cells run in, and the worker count.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scenario grids, each expanded once per pass.
    pub scenarios: Vec<Scenario>,
    /// Execution order: `order[k]` indexes the concatenated expanded grids.
    pub order: Vec<usize>,
    /// Sweep worker threads.
    pub jobs: usize,
    /// Whether a pass ends with a warm recall of every cell.
    pub warm_pass: bool,
}

impl Plan {
    /// The plan of `workload` at workload seed `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan::from_scenarios(
            workload.scenarios(seed),
            seed,
            workload.jobs(),
            workload.warm_pass(),
        )
    }

    /// A plan over explicit scenarios, its cell order shuffled by `seed`.
    pub fn from_scenarios(
        scenarios: Vec<Scenario>,
        seed: u64,
        jobs: usize,
        warm_pass: bool,
    ) -> Plan {
        let n: usize = scenarios.iter().map(Scenario::cell_count).sum();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_0bde_12ce_11a5);
        for i in (1..n).rev() {
            order.swap(i, rng.range_usize(0, i + 1));
        }
        Plan {
            scenarios,
            order,
            jobs,
            warm_pass,
        }
    }

    /// Expands every scenario and returns the cells in execution order.
    pub fn cells(&self) -> Vec<PlannedCell> {
        let grid: Vec<PlannedCell> = self
            .scenarios
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.expand().into_iter().map(move |c| (c, s.budget, i)))
            .collect();
        self.order.iter().map(|&k| grid[k]).collect()
    }

    /// The distinct `(benchmark, program seed, budget)` triples the cells
    /// replay, in first-use order: the programs set-up synthesizes.
    pub fn programs(&self) -> Vec<(Benchmark, u64, SimBudget)> {
        let mut seen = BTreeSet::new();
        self.cells()
            .into_iter()
            .filter(|(c, _, _)| seen.insert((c.bench.name(), c.seed)))
            .map(|(c, b, _)| (c.bench, c.seed, b))
            .collect()
    }
}

/// `golden.txt`, indexed by line label, plus the program seed and budget its
/// lines were generated at.
#[derive(Debug, Clone)]
pub struct Reference {
    lines: HashMap<String, String>,
    seed: u64,
    budget: SimBudget,
}

impl Reference {
    /// Indexes `text` (one `label: result` line per run) generated at program
    /// seed `seed` and `budget`. Lines without a label separator are kept
    /// under their full text, so they match no cell.
    pub fn new(text: &str, seed: u64, budget: SimBudget) -> Reference {
        let lines = text
            .lines()
            .map(|l| {
                let label = l.split_once(": ").map_or(l, |(label, _)| label);
                (label.to_owned(), l.to_owned())
            })
            .collect();
        Reference {
            lines,
            seed,
            budget,
        }
    }

    /// The `golden.txt` labels `cell` must reproduce at `budget`: none unless
    /// the cell sits on golden's seed, budget and paper-default axes.
    pub fn labels_for(&self, cell: &ScenarioCell, budget: SimBudget) -> Vec<String> {
        let paper_axes = cell.node == TechNode::N130
            && (cell.iw_entries, cell.rob_entries) == (128, 128)
            && cell.ec_kb == 128
            && cell.mem_cycles == 100;
        if cell.seed != self.seed || budget != self.budget || !paper_axes {
            return Vec::new();
        }
        let points: &[&str] = match (cell.machine.name(), cell.fe_pct, cell.be_pct) {
            ("baseline", 0, 0) => &["baseline/paper_default", "baseline/paper_n130"],
            ("baseline", 50, 0) => &["baseline/dual_clock_fe50"],
            ("baseline-extra-fe", 0, 0) => &["baseline/extra_fe_stage"],
            ("baseline-piped-wakeup", 0, 0) => &["baseline/pipelined_wakeup"],
            ("flywheel", 0, 0) => &["flywheel/iso_clock"],
            ("flywheel", 50, 50) => &["flywheel/fe50_be50"],
            ("flywheel", 100, 50) => &["flywheel/fe100_be50"],
            ("regalloc", 0, 0) => &["flywheel/reg_alloc_only"],
            ("multidomain", 0, 0) => &["multidomain/paper_n130"],
            ("multidomain", 50, 0) => &["multidomain/fe50"],
            ("dvfs", 0, 0) => &["dvfs/iso_clock"],
            ("dvfs", 50, 50) => &["dvfs/fe50_be50"],
            _ => &[],
        };
        points
            .iter()
            .map(|p| {
                let (kernel, config) = p.split_once('/').expect("point is kernel/config");
                format!("{kernel}/{}/{config}", cell.bench)
            })
            .collect()
    }

    /// Checks `stats` against every golden line `cell` covers. A missing or
    /// differing line is an error naming the label.
    pub fn check(
        &self,
        cell: &ScenarioCell,
        budget: SimBudget,
        stats: &RunStats,
    ) -> Result<(), String> {
        for label in self.labels_for(cell, budget) {
            let want = self
                .lines
                .get(&label)
                .ok_or_else(|| format!("golden.txt has no line '{label}'"))?;
            if *want != golden_line(&label, stats) {
                return Err(format!("result differs from golden.txt line '{label}'"));
            }
        }
        Ok(())
    }
}

/// The line the `golden` binary prints for `stats` under `label`.
pub fn golden_line(label: &str, stats: &RunStats) -> String {
    match stats.to_flywheel_result() {
        Some(r) => format!("{label}: {r:?}"),
        None => format!("{label}: {:?}", stats.sim),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered(w: Workload, seed: u64) -> String {
        format!("{:?}", Plan::new(w, seed).cells())
    }

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        for w in Workload::ALL {
            assert_eq!(rendered(w, 7), rendered(w, 7), "{}", w.name());
            assert_ne!(rendered(w, 7), rendered(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn pinned_workloads_keep_their_cells_across_seeds() {
        for w in [Workload::RefSuite, Workload::StressFamilies] {
            let sorted = |seed| {
                let mut v: Vec<String> = Plan::new(w, seed)
                    .cells()
                    .iter()
                    .map(|(c, _, _)| c.label())
                    .collect();
                v.sort();
                v
            };
            assert_eq!(sorted(1), sorted(2), "{}", w.name());
        }
        assert_ne!(sweep_seeds(1), sweep_seeds(2));
    }

    #[test]
    fn ref_suite_covers_every_golden_point_of_the_seven_benchmarks() {
        let reference = Reference::new("", GOLDEN_SEED, golden_budget());
        let plan = Plan::new(Workload::RefSuite, 1);
        let mut labels: Vec<String> = plan
            .cells()
            .iter()
            .flat_map(|(c, b, _)| reference.labels_for(c, *b))
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(plan.cells().len(), 8 * 7);
        assert_eq!(labels.len(), 9 * 7);
    }

    #[test]
    fn stress_families_cells_are_all_golden_points() {
        let reference = Reference::new("", GOLDEN_SEED, golden_budget());
        let cells = Plan::new(Workload::StressFamilies, 1).cells();
        assert_eq!(cells.len(), 6 * Machine::all().len());
        for (c, b, _) in &cells {
            assert!(!reference.labels_for(c, *b).is_empty(), "{}", c.label());
        }
    }
}
