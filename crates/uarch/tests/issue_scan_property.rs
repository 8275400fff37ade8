//! Differential property test of the lane-indexed issue scan of
//! [`IssueScheduler`] against the whole-list scan it replaced.
//!
//! The reference model keeps no lanes and no wakeup state: every cycle it
//! walks, in program order, every entry still in the Issue Window whose
//! sources all arrive by this cycle *according to the register file*
//! (`ready_at + wakeup_extra <= cycle`), and skips each one that is not yet
//! visible, whose port is full, or that is a load behind an older unresolved
//! store — the original kernels' issue loop. Randomized dispatch, issue,
//! store-resolve, retire and squash sequences under random functional-unit
//! mixes, issue widths and wake-up latencies (seeded by `flywheel-rng`, so
//! failures reproduce exactly) must make the lane scan issue exactly the same
//! sequence every cycle, and the lane-head bound
//! [`IssueScheduler::earliest_visible_ps`] must equal the minimum over the
//! whole list.
//!
//! In the small-pool campaigns registers are recycled through a free list,
//! so a squashed producer's register is reallocated — and read by new
//! consumers — while the arrival event of its squashed value is still
//! queued: the scheduler must recognise the event as stale.

use flywheel_isa::{ArchReg, DynInst, MemAccess, OpClass, Pc, StaticInst};
use flywheel_rng::SimRng;
use flywheel_uarch::{
    EntryState, FuConfig, FunctionalUnits, InflightEntry, InflightTable, IssueScheduler,
    PhysRegFile, RenameOutcome, StoreIndex,
};

/// Physical registers of the large-pool campaigns: each destination gets a
/// fresh one, so a register is never reallocated.
const LARGE_POOL: usize = 16_384;

/// Back-end clock period in picoseconds.
const PERIOD_PS: u64 = 1_000;

const OPS: [OpClass; 10] = [
    OpClass::IntAlu,
    OpClass::IntMul,
    OpClass::IntDiv,
    OpClass::Load,
    OpClass::Store,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::Ctrl,
    OpClass::Nop,
];

fn stat_of(op: OpClass) -> StaticInst {
    let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
    match op {
        OpClass::Load => StaticInst::load(r1, r2),
        OpClass::Store => StaticInst::store(r1, r2),
        OpClass::Ctrl => StaticInst::cond_branch(r1, Some(r2)),
        OpClass::Nop => StaticInst::nop(),
        op => StaticInst::compute(op, r1, r2, None),
    }
}

/// The released entries the whole-list scan walks: dispatched, still in the
/// Issue Window, every source's value arrived by `cycle` per the register
/// file.
fn released(
    table: &InflightTable,
    prf: &PhysRegFile,
    live: &[u64],
    wakeup_extra: u64,
    cycle: u64,
) -> Vec<u64> {
    live.iter()
        .copied()
        .filter(|&seq| {
            let e = &table[seq];
            e.state == EntryState::Waiting
                && e.in_iw
                && e.rename
                    .srcs
                    .as_slice()
                    .iter()
                    .all(|&src| prf.ready_at(src).saturating_add(wakeup_extra) <= cycle)
        })
        .collect()
}

/// Physical register allocation for a campaign. Register 0 is always ready
/// and never allocated. Fresh registers go first; once they run out, freed
/// ones are recycled. A register returns to the free list only once its
/// producer has left the machine, no live entry reads it and it is no longer
/// offered as a source — as a renamer frees a mapping only after its last
/// reader.
struct Regs {
    free: Vec<u16>,
    next_fresh: usize,
    pool: usize,
    /// Live entries reading each register, plus one while it is offered as
    /// a source.
    readers: Vec<u32>,
    /// Whether each register's producer has retired or been squashed.
    producer_gone: Vec<bool>,
}

impl Regs {
    fn new(pool: usize) -> Self {
        Regs {
            free: Vec::new(),
            next_fresh: 1,
            pool,
            readers: vec![0; pool],
            producer_gone: vec![false; pool],
        }
    }

    fn alloc(&mut self) -> Option<u16> {
        let reg = if self.next_fresh < self.pool {
            self.next_fresh += 1;
            (self.next_fresh - 1) as u16
        } else {
            self.free.pop()?
        };
        self.producer_gone[reg as usize] = false;
        Some(reg)
    }

    fn unpin(&mut self, reg: u16) {
        self.readers[reg as usize] -= 1;
        let r = reg as usize;
        if self.producer_gone[r] && self.readers[r] == 0 {
            self.producer_gone[r] = false;
            self.free.push(reg);
        }
    }

    /// An entry left the machine (retired or squashed).
    fn release_entry(&mut self, e: &InflightEntry) {
        for &src in &e.rename.srcs {
            if src != 0 {
                self.unpin(src);
            }
        }
        if let Some(dst) = e.rename.dst {
            // The producer's own pin keeps the register until this point.
            self.producer_gone[dst as usize] = true;
            self.unpin(dst);
        }
    }
}

/// The original issue loop: walk `ready` in program order, skipping entries
/// that cannot issue, until `width` have issued. Works on copies of the port
/// and store state, which it updates as it issues.
fn reference_scan(
    table: &InflightTable,
    ready: &[u64],
    mut fus: FunctionalUnits,
    mut stores: StoreIndex,
    width: usize,
    now: u64,
) -> Vec<u64> {
    let mut issued = Vec::new();
    for &seq in ready {
        if issued.len() >= width {
            break;
        }
        let e = &table[seq];
        let op = e.d.stat.op();
        if e.visible_at_ps > now
            || !fus.can_issue(op)
            || (op == OpClass::Load && stores.blocks_load(seq))
        {
            continue;
        }
        assert!(fus.try_issue(op));
        if op == OpClass::Store {
            stores.on_store_issue(seq, seq);
        }
        issued.push(seq);
    }
    issued
}

/// One campaign of `cycles` back-end cycles over `pool` physical registers.
/// Returns how many arrival events of reallocated registers were queued when
/// they came due.
fn campaign(seed: u64, cycles: u64, pool: usize) -> usize {
    let mut rng = SimRng::seed_from_u64(seed);
    let fu_cfg = FuConfig {
        int_alu: rng.range_inclusive_u64(1, 4) as u32,
        int_muldiv: rng.range_inclusive_u64(1, 2) as u32,
        mem_ports: rng.range_inclusive_u64(1, 3) as u32,
        fp_add: rng.range_inclusive_u64(1, 2) as u32,
        fp_muldiv: rng.range_inclusive_u64(1, 2) as u32,
    };
    let width = rng.range_inclusive_u64(1, 8) as usize;
    let wakeup_extra = rng.range_u64(0, 2);
    let max_sync_ps = rng.range_u64(0, 4) * PERIOD_PS;
    let window = rng.range_inclusive_u64(8, 96) as usize;

    let mut table = InflightTable::with_capacity(window);
    let mut prf = PhysRegFile::new(pool as u32);
    let mut sched = IssueScheduler::new(pool, wakeup_extra);
    let mut regs = Regs::new(pool);
    // Arrival cycles of squashed producers' values, by register, to count
    // the stale events the campaign provokes.
    let mut squashed_arrivals: Vec<(u16, u64)> = Vec::new();
    let mut stale_due = 0usize;
    let mut fus = FunctionalUnits::new(fu_cfg);
    let mut stores = StoreIndex::new();
    // Live entries in program order (the ROB).
    let mut live: Vec<u64> = Vec::new();
    // Destinations of recent instructions, the pool sources are drawn from.
    let mut recent_dsts: Vec<u16> = Vec::new();
    let recent_cap = (pool / 4).clamp(2, 12);
    let mut next_seq = 100u64;
    let mut last_visible_ps = 0u64;
    let mut issued_total = 0usize;

    for cycle in 1..=cycles {
        let now = cycle * PERIOD_PS;

        // Dispatch a burst in program order. Visibility never decreases in
        // dispatch order (the property the visibility rule relies on).
        for _ in 0..rng.range_inclusive_u64(0, 4) {
            if live.len() >= window {
                break;
            }
            let op = OPS[rng.range_usize(0, OPS.len())];
            let seq = next_seq;
            next_seq += 1;
            let mut srcs = Vec::new();
            for _ in 0..rng.range_inclusive_u64(0, 2) {
                let reg = if recent_dsts.is_empty() || rng.range_u64(0, 4) == 0 {
                    0
                } else {
                    recent_dsts[rng.range_usize(0, recent_dsts.len())]
                };
                srcs.push(reg);
            }
            let dst = if matches!(op, OpClass::Store | OpClass::Ctrl | OpClass::Nop) {
                None
            } else {
                match regs.alloc() {
                    Some(reg) => Some(reg),
                    None => break,
                }
            };
            for &src in &srcs {
                if src != 0 {
                    regs.readers[src as usize] += 1;
                }
            }
            if let Some(reg) = dst {
                regs.readers[reg as usize] += 1;
            }
            let d = DynInst {
                seq,
                pc: Pc::new(0x4000 + seq * 4),
                stat: stat_of(op),
                taken: false,
                next_pc: Pc::new(0x4000 + seq * 4 + 4),
                mem: op
                    .is_mem()
                    .then(|| MemAccess::new(rng.range_u64(0, 64) * 64, 8)),
            };
            let mut e = InflightEntry::new_frontend(d, 0, false);
            e.rename = RenameOutcome {
                srcs: srcs.into_iter().collect(),
                dst,
                ..RenameOutcome::default()
            };
            e.state = EntryState::Waiting;
            e.in_iw = true;
            last_visible_ps = last_visible_ps.max(now + rng.range_u64(0, max_sync_ps + 1));
            e.visible_at_ps = last_visible_ps;
            table.insert(e);
            live.push(seq);
            if let Some(reg) = dst {
                prf.mark_pending(reg);
                recent_dsts.push(reg);
                regs.readers[reg as usize] += 1;
                if recent_dsts.len() > recent_cap {
                    regs.unpin(recent_dsts.remove(0));
                }
            }
            sched.on_dispatch(&mut table, seq, &prf);
            if op == OpClass::Store {
                stores.on_dispatch_store(seq);
            }
        }

        // Mispredict recovery: squash everything younger than a random live
        // entry.
        if !live.is_empty() && rng.range_u64(0, 40) == 0 {
            let branch = live[rng.range_usize(0, live.len())];
            while live.last().is_some_and(|&s| s > branch) {
                let seq = live.pop().expect("non-empty");
                let e = table.remove(seq).expect("squashed entry is live");
                if let Some(dst) = e.rename.dst {
                    if e.state == EntryState::Issued {
                        squashed_arrivals.push((dst, prf.ready_at(dst) + wakeup_extra));
                    }
                }
                regs.release_entry(&e);
            }
            sched.squash_after(branch);
            stores.squash_after(branch);
            // Squashed producers never write their registers; later sources
            // come from producers dispatched after the recovery.
            for reg in recent_dsts.drain(..) {
                regs.unpin(reg);
            }
        }

        // Retire issued entries from the head.
        for _ in 0..rng.range_inclusive_u64(0, 4) {
            let Some(&head) = live.first() else { break };
            if table[head].state != EntryState::Issued {
                break;
            }
            live.remove(0);
            let e = table.remove(head).expect("retiring entry is live");
            regs.release_entry(&e);
            if e.d.stat.op() == OpClass::Store {
                stores.on_store_retire(head);
            }
        }

        // The cycle's issue scan, against the whole-list reference.
        fus.begin_cycle();
        squashed_arrivals.retain(|&(reg, at)| {
            let due = at <= cycle;
            if due && prf.ready_at(reg).saturating_add(wakeup_extra) != at {
                stale_due += 1;
            }
            !due
        });
        let ready = released(&table, &prf, &live, wakeup_extra, cycle);
        let expected = reference_scan(&table, &ready, fus.clone(), stores.clone(), width, now);
        sched.begin_scan(&mut table, &prf, cycle);
        let mut issued = Vec::new();
        while issued.len() < width {
            let Some(seq) = sched.next_issue(&table, &fus, &stores, now) else {
                break;
            };
            let e = &mut table[seq];
            let op = e.d.stat.op();
            assert!(
                fus.try_issue(op),
                "seed {seed} cycle {cycle}: port of {seq} full"
            );
            e.state = EntryState::Issued;
            e.in_iw = false;
            let latency = if rng.range_u64(0, 10) == 0 {
                rng.range_inclusive_u64(20, 200)
            } else {
                rng.range_inclusive_u64(1, 4)
            };
            if let Some(dst) = e.rename.dst {
                prf.mark_ready(dst, cycle + latency);
                sched.on_issue(dst, cycle + latency);
            }
            if op == OpClass::Store {
                stores.on_store_issue(seq, seq);
            }
            issued.push(seq);
        }
        sched.end_scan();
        assert_eq!(
            issued, expected,
            "seed {seed} cycle {cycle}: lane scan diverged from the whole-list scan"
        );
        issued_total += issued.len();

        // The event bound over lane heads equals the minimum over the list.
        let whole_list_min = released(&table, &prf, &live, wakeup_extra, cycle)
            .into_iter()
            .filter(|&seq| !(table[seq].d.stat.op() == OpClass::Load && stores.blocks_load(seq)))
            .map(|seq| table[seq].visible_at_ps)
            .min();
        assert_eq!(
            sched.earliest_visible_ps(&table, &stores),
            whole_list_min,
            "seed {seed} cycle {cycle}: lane-head bound differs from the list minimum"
        );
    }
    assert!(
        issued_total as u64 > cycles / 4,
        "seed {seed}: the campaign barely issued ({issued_total} in {cycles} cycles)"
    );
    stale_due
}

#[test]
fn lane_scan_issues_what_the_whole_list_scan_issues() {
    for seed in 1..=24 {
        campaign(seed, 3_000, LARGE_POOL);
    }
}

#[test]
fn long_campaigns_stay_equivalent() {
    for seed in [101, 102, 103] {
        campaign(seed, 20_000, LARGE_POOL);
    }
}

#[test]
fn small_register_pools_reallocate_under_queued_arrivals() {
    let mut stale = 0;
    for seed in 201..=224 {
        let pool = 24 + (seed as usize % 5) * 4;
        stale += campaign(seed, 3_000, pool);
    }
    // The campaigns must actually exercise the stale-arrival check.
    assert!(stale >= 20, "only {stale} stale arrival events came due");
}
