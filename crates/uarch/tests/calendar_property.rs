//! Differential property test of [`Calendar`], the timing wheel both kernels
//! queue completions and operand arrivals on, against a plain `BinaryHeap`.
//!
//! Seeded (`flywheel-rng`) campaigns interleave pushes — keys already in the
//! past, near keys, far keys at least one wheel turn (256 cycles) ahead and
//! keys next to `u64::MAX` — with drains that step one cycle, jump ahead,
//! step backwards, or drain everything at `u64::MAX`. Every drained batch
//! must equal the model's due set as a multiset, and `next_due` must equal
//! the model's minimum after every operation.

use flywheel_rng::SimRng;
use flywheel_uarch::Calendar;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles one wheel turn spans.
const TURN: u64 = 256;

struct Model {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl Model {
    fn drain_due(&mut self, cycle: u64) -> Vec<(u64, u64)> {
        let mut due = Vec::new();
        while let Some(&Reverse((at, key))) = self.heap.peek() {
            if at > cycle {
                break;
            }
            self.heap.pop();
            due.push((at, key));
        }
        due
    }

    fn next_due(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((at, _))| at)
    }
}

/// A push cycle relative to `now`: in the past, near, far, or by `u64::MAX`.
fn pick_at(rng: &mut SimRng, now: u64) -> u64 {
    match rng.range_u64(0, 10) {
        0 | 1 => now.saturating_sub(rng.range_u64(0, 2 * TURN)),
        2..=5 => now.saturating_add(rng.range_u64(0, TURN)),
        6 | 7 => now.saturating_add(rng.range_u64(TURN, 6 * TURN)),
        8 => now.saturating_add(TURN * rng.range_inclusive_u64(1, 4) + rng.range_u64(0, 2)),
        _ => u64::MAX - rng.range_u64(0, 3 * TURN),
    }
}

/// A drain cycle relative to `now`: a step, a jump, a step back, or the end
/// of time.
fn pick_drain(rng: &mut SimRng, now: u64) -> u64 {
    match rng.range_u64(0, 40) {
        0..=21 => now.saturating_add(rng.range_u64(0, 3)),
        22..=29 => now.saturating_add(rng.range_u64(3, 3 * TURN)),
        30..=33 => now.saturating_add(TURN * rng.range_inclusive_u64(1, 3) - 1),
        34..=36 => now.saturating_sub(rng.range_u64(1, 4)),
        37 | 38 => u64::MAX - rng.range_u64(0, 2 * TURN),
        _ => u64::MAX,
    }
}

fn campaign(seed: u64, ops: usize, start: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cal = Calendar::new();
    let mut model = Model {
        heap: BinaryHeap::new(),
    };
    let mut batch = Vec::new();
    // Start the wheel at `start` (possibly right below `u64::MAX`).
    cal.drain_due(start, &mut batch);
    assert!(batch.is_empty());
    let mut now = start;
    let mut drained = 0usize;
    for op in 0..ops {
        if rng.range_u64(0, 5) < 3 {
            for _ in 0..rng.range_inclusive_u64(1, 6) {
                let at = pick_at(&mut rng, now);
                // Small key space: equal `(at, key)` pairs must survive as a
                // multiset.
                let key = rng.range_u64(0, 64);
                cal.push(at, key);
                model.heap.push(Reverse((at, key)));
            }
        } else {
            let cycle = pick_drain(&mut rng, now);
            batch.clear();
            cal.drain_due(cycle, &mut batch);
            batch.sort_unstable();
            let mut expected = model.drain_due(cycle);
            expected.sort_unstable();
            assert_eq!(
                batch, expected,
                "seed {seed} op {op}: drain_due({cycle}) after cycle {now}"
            );
            drained += batch.len();
            now = now.max(cycle);
            if now == u64::MAX {
                // Time has ended: keep pushing and draining at the end, then
                // start over near the beginning with a fresh wheel.
                for _ in 0..rng.range_u64(0, 4) {
                    let at = u64::MAX - rng.range_u64(0, 3);
                    cal.push(at, 1);
                    model.heap.push(Reverse((at, 1)));
                }
                batch.clear();
                cal.drain_due(u64::MAX, &mut batch);
                assert_eq!(batch.len(), model.drain_due(u64::MAX).len());
                assert_eq!(cal.next_due(), None);
                cal = Calendar::new();
                now = rng.range_u64(0, 1_000);
                cal.drain_due(now, &mut batch);
            }
        }
        assert_eq!(
            cal.next_due(),
            model.next_due(),
            "seed {seed} op {op}: next_due after cycle {now}"
        );
    }
    assert!(
        drained > ops / 4,
        "seed {seed}: only {drained} events drained"
    );
}

#[test]
fn calendar_drains_what_a_binary_heap_drains() {
    for seed in 1..=32 {
        campaign(seed, 4_000, seed * 977);
    }
}

#[test]
fn calendar_near_the_end_of_time_neither_overflows_nor_loses_events() {
    for seed in 100..=115 {
        campaign(seed, 2_000, u64::MAX - 2_000 - seed * 300);
    }
}
