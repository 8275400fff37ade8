//! Stress workload family: profiles built to exercise machine paths the
//! SPEC-like suite barely touches.
//!
//! The paper's six-figure evaluation leans on workloads whose behaviour is
//! *representative*; the profiles here are deliberately *adversarial*. Each one
//! pushes a different corner of the two machine models:
//!
//! * [`ptr_chase`] — serialized pointer chasing over a working set far beyond
//!   L2. Nearly every load misses and depends on the previous load, so the
//!   Issue Window's consumers park on their registers until an arrival event
//!   on the scheduler's calendar, and the idle fast-forward path dominates
//!   (its bounds must never fire late).
//! * [`branch_storm`] — short blocks terminated by data-dependent branches that
//!   gshare cannot learn. Exercises mispredict recovery: `InflightTable` tail
//!   squashes, `IssueScheduler::squash_after`, redirect synchronization between
//!   the clock domains, and Execution Cache divergence handling.
//! * [`code_bloat`] — a static footprint far beyond the I-cache and the
//!   Execution Cache, with call-dominated control flow. Keeps the front end on
//!   the miss path and forces continuous EC eviction/re-creation (the paper's
//!   `vortex` pushed to the extreme).
//! * [`store_storm`] — every third instruction a memory access, stores
//!   rivalling loads, all landing in a tiny hot set. Exercises the LSQ's
//!   `StoreIndex`: loads blocked by older unresolved stores and store-to-load
//!   forwarding become the common case instead of the exception.
//!
//! Two further profiles were not written by hand but *discovered*: the
//! adversarial workload search (`flywheel-bench`'s `scenarios search`) mutates
//! the four hand-built profiles above toward the extremes of the
//! Flywheel-vs-baseline gap, and the frontier heads are frozen here as
//! [`ec_worst`] (the smallest gap found — the Execution Cache's worst case)
//! and [`fly_best`] (the largest gap found). Each carries its provenance in
//! its doc comment and is a first-class [`crate::Benchmark`] with golden
//! coverage, so a regression that moves either extreme is caught.
//!
//! The profiles reuse the calibrated-profile machinery (`BenchmarkProfile`,
//! synthesis, trace generation, recording) unchanged, so every stress workload
//! works everywhere a SPEC-like one does: golden digests, scenario grids,
//! benches and both simulators.

use crate::{BenchmarkProfile, BranchMixProfile, InstMixProfile, LoopProfile, MemoryProfile};

/// Pointer-chasing, memory-bound profile: dependent loads over a 64 MiB
/// working set. IPC is bounded by main-memory latency, not by any pipeline
/// width.
pub fn ptr_chase() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "ptrchase".to_owned(),
        mix: InstMixProfile {
            load: 0.40,
            store: 0.04,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.85,
            patterned: 0.10,
            random: 0.05,
            bias: 0.95,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.05,
            hot_set: 0.10,
            scattered: 0.85,
            hot_set_bytes: 16 * 1024,
            scattered_bytes: 64 * 1024 * 1024,
            stream_stride: 8,
        },
        loops: LoopProfile {
            mean_trip_count: 48.0,
            max_nesting: 2,
            nest_probability: 0.3,
        },
        functions: 8,
        avg_block_len: 8,
        // Each load feeds the next: almost no exploitable ILP.
        dependency_distance: 1.3,
        dest_register_span: 10,
        call_probability: 0.02,
    }
}

/// Misprediction-heavy profile: 70% of conditional branches are effectively
/// random, and blocks are short, so the front end spends most of its time
/// refilling after squashes.
pub fn branch_storm() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "brstorm".to_owned(),
        mix: InstMixProfile {
            load: 0.20,
            store: 0.08,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.15,
            patterned: 0.15,
            random: 0.70,
            bias: 0.80,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.30,
            hot_set: 0.60,
            scattered: 0.10,
            hot_set_bytes: 24 * 1024,
            scattered_bytes: 4 * 1024 * 1024,
            stream_stride: 4,
        },
        loops: LoopProfile {
            mean_trip_count: 5.0,
            max_nesting: 2,
            nest_probability: 0.15,
        },
        functions: 40,
        // Two-instruction blocks: maximal branch density.
        avg_block_len: 2,
        dependency_distance: 2.5,
        dest_register_span: 14,
        call_probability: 0.15,
    }
}

/// I-cache- and Execution-Cache-thrashing profile: 400 functions of rarely
/// repeated code driven by calls, so neither the 64 KiB I-cache nor the
/// 128 KiB EC can hold the working set.
pub fn code_bloat() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "codebloat".to_owned(),
        mix: InstMixProfile {
            load: 0.24,
            store: 0.12,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.60,
            patterned: 0.20,
            random: 0.20,
            bias: 0.90,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.20,
            hot_set: 0.55,
            scattered: 0.25,
            hot_set_bytes: 48 * 1024,
            scattered_bytes: 12 * 1024 * 1024,
            stream_stride: 8,
        },
        loops: LoopProfile {
            mean_trip_count: 3.0,
            max_nesting: 2,
            nest_probability: 0.1,
        },
        functions: 400,
        avg_block_len: 5,
        dependency_distance: 3.0,
        dest_register_span: 22,
        call_probability: 0.40,
    }
}

/// Store-forward-heavy profile: stores nearly as frequent as loads, all
/// hammering a 2 KiB hot set, so "load blocked by older unresolved store" and
/// store-to-load forwarding are the common case in the LSQ.
pub fn store_storm() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "ststorm".to_owned(),
        mix: InstMixProfile {
            load: 0.28,
            store: 0.30,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.80,
            patterned: 0.15,
            random: 0.05,
            bias: 0.94,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.10,
            hot_set: 0.85,
            scattered: 0.05,
            hot_set_bytes: 2 * 1024,
            scattered_bytes: 4 * 1024 * 1024,
            stream_stride: 4,
        },
        loops: LoopProfile {
            mean_trip_count: 32.0,
            max_nesting: 2,
            nest_probability: 0.3,
        },
        functions: 10,
        avg_block_len: 8,
        dependency_distance: 1.8,
        dest_register_span: 10,
        call_probability: 0.05,
    }
}

/// Promoted adversarial profile: the minimize-gap frontier head of the
/// deterministic workload search (`scenarios search --seed 2005 --insts
/// 250000`), frozen with lightly rounded knobs. Descended from [`ptr_chase`]:
/// the search pushed the scattered fraction to 0.85 over a 64 MiB set, thinned
/// stores to 2% and shortened the dependency distance, leaving a stream of
/// serialized far misses where the Execution Cache's issue-width advantage
/// buys nothing — the Flywheel-vs-baseline speedup collapses to ~0.15x at the
/// paper's 0.13 µm iso-clock configuration, the worst point the search found.
pub fn ec_worst() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "ecworst".to_owned(),
        mix: InstMixProfile {
            load: 0.40,
            store: 0.02,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.75,
            patterned: 0.10,
            random: 0.15,
            bias: 0.95,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.05,
            hot_set: 0.10,
            scattered: 0.85,
            hot_set_bytes: 16 * 1024,
            scattered_bytes: 64 * 1024 * 1024,
            stream_stride: 8,
        },
        loops: LoopProfile {
            mean_trip_count: 48.0,
            max_nesting: 2,
            nest_probability: 0.3,
        },
        functions: 4,
        avg_block_len: 8,
        dependency_distance: 1.3,
        dest_register_span: 10,
        call_probability: 0.02,
    }
}

/// Promoted adversarial profile: the maximize-gap frontier head of the same
/// search run, frozen with lightly rounded knobs. Descended from
/// [`store_storm`]: the search removed the patterned branches, eased loads
/// slightly and kept everything inside a 2 KiB hot set behind a tiny static
/// footprint, so the Execution Cache holds the entire working set and the
/// wide back end streams store-forwarded traffic — the largest
/// Flywheel-vs-baseline gap the search found (~1.04x at iso-clock, where most
/// workloads lose throughput to the narrow EC-miss path).
pub fn fly_best() -> BenchmarkProfile {
    BenchmarkProfile {
        name: "flybest".to_owned(),
        mix: InstMixProfile {
            load: 0.26,
            store: 0.30,
            int_muldiv: 0.01,
            fp_add: 0.0,
            fp_muldiv: 0.0,
        },
        branches: BranchMixProfile {
            biased: 0.80,
            patterned: 0.0,
            random: 0.20,
            bias: 0.94,
            random_taken: 0.5,
        },
        memory: MemoryProfile {
            streaming: 0.02,
            hot_set: 0.85,
            scattered: 0.13,
            hot_set_bytes: 2 * 1024,
            scattered_bytes: 4 * 1024 * 1024,
            stream_stride: 4,
        },
        loops: LoopProfile {
            mean_trip_count: 32.0,
            max_nesting: 2,
            nest_probability: 0.3,
        },
        functions: 10,
        avg_block_len: 8,
        dependency_distance: 1.8,
        dest_register_span: 10,
        call_probability: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use crate::{Benchmark, TraceGenerator, TraceStats};

    #[test]
    fn stress_profiles_validate() {
        for b in Benchmark::stress_suite() {
            b.profile().validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn stress_workloads_synthesize_and_generate() {
        for b in Benchmark::stress_suite() {
            let program = b.synthesize(11);
            let trace: Vec<_> = TraceGenerator::new(&program, 11).take(4_000).collect();
            assert_eq!(trace.len(), 4_000, "{b} trace too short");
            let again: Vec<_> = TraceGenerator::new(&program, 11).take(4_000).collect();
            assert_eq!(trace, again, "{b} must be deterministic");
        }
    }

    #[test]
    fn stress_workloads_stress_their_target_paths() {
        // Each profile must actually skew the dynamic stream towards the path
        // it claims to exercise, relative to the tame Micro workload.
        let stats_of = |b: Benchmark| {
            let program = b.synthesize(13);
            TraceStats::collect(TraceGenerator::new(&program, 13).take(30_000))
        };
        let micro = stats_of(Benchmark::Micro);
        let chase = stats_of(Benchmark::PtrChase);
        assert!(
            chase.loads as f64 / chase.total as f64 > 0.3,
            "ptrchase should be load-dominated, got {}/{}",
            chase.loads,
            chase.total
        );
        assert!(
            chase.data_working_set_bytes() > 4 * micro.data_working_set_bytes(),
            "ptrchase working set {} should dwarf micro {}",
            chase.data_working_set_bytes(),
            micro.data_working_set_bytes()
        );
        let storm = stats_of(Benchmark::BranchStorm);
        assert!(
            storm.ctrl_fraction() > micro.ctrl_fraction() * 1.3 && storm.ctrl_fraction() > 0.12,
            "brstorm branch density {} should clearly exceed micro {}",
            storm.ctrl_fraction(),
            micro.ctrl_fraction()
        );
        // 70% of its static conditional branches are random: the dynamic taken
        // rate must sit near a coin flip, unlike micro's strongly biased code.
        assert!(
            (storm.taken_rate() - 0.5).abs() < (micro.taken_rate() - 0.5).abs(),
            "brstorm taken rate {} should be closer to 0.5 than micro {}",
            storm.taken_rate(),
            micro.taken_rate()
        );
        let stores = stats_of(Benchmark::StoreStorm);
        assert!(
            stores.stores as f64 / stores.total as f64 > 0.2,
            "ststorm should be store-heavy, got {}/{}",
            stores.stores,
            stores.total
        );
        let bloat = Benchmark::CodeBloat.synthesize(13);
        let vortex = Benchmark::Vortex.synthesize(13);
        assert!(
            bloat.static_footprint() > vortex.static_footprint(),
            "codebloat footprint {} should exceed vortex {}",
            bloat.static_footprint(),
            vortex.static_footprint()
        );
    }
}
