//! A fixed reference workload, timed beside every pass, so that the host's
//! speed can be divided out of the reported times.
//!
//! The benchmark runs on shared hosts whose speed drifts by more than half
//! over minutes, while the simulator's code stays the same. Timing a fixed
//! piece of work next to each pass measures that drift. The reference is a
//! small cycle-level out-of-order core of the benchmark's own: it does the
//! kind of work the simulator does (rename tables, a reorder buffer, an
//! issue-queue scan, set-associative caches, a gshare predictor, floating
//! point energy sums), so host contention slows it much as it slows the
//! simulator. A plain arithmetic loop tracks the simulator's slowdowns only
//! loosely. It depends on none of the repository's crates, so a change to
//! the simulator never changes the reference.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Instructions one reference slice simulates.
pub const SLICE_INSTS: u64 = 200_000;

/// The program seed of the reference slice.
const SLICE_SEED: u64 = 1;

/// The checksum of [`reference_core`]`(SLICE_INSTS, SLICE_SEED)`. A change
/// to the reference core changes it, and then [`NOMINAL_SLICE_S`] must be
/// measured again.
pub const SLICE_CHECKSUM: u64 = 0x4123_3449_6005_a440;

/// Seconds one reference slice takes at nominal host speed: its median on
/// the 2-vCPU Intel Xeon (Sapphire Rapids, 2.0 GHz nominal) virtual machine
/// the benchmark was tuned on, in a calm hour.
pub const NOMINAL_SLICE_S: f64 = 0.07;

/// The reference slices one run timed, and the host speed they show.
#[derive(Debug, Clone, Default)]
pub struct HostSpeed {
    /// Seconds of each slice, in the order they ran.
    pub slice_s: Vec<f64>,
}

impl HostSpeed {
    /// Runs and times one reference slice. An error if the slice's checksum
    /// is not [`SLICE_CHECKSUM`].
    pub fn time_slice(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let sum = black_box(reference_core(black_box(SLICE_INSTS), SLICE_SEED));
        self.slice_s.push(t.elapsed().as_secs_f64());
        if sum != SLICE_CHECKSUM {
            return Err(format!(
                "the reference slice's checksum is {sum:#x}, not {SLICE_CHECKSUM:#x}"
            ));
        }
        Ok(())
    }

    /// How many times slower than nominal the host ran since the slice
    /// before last: the mean of the last two slices over
    /// [`NOMINAL_SLICE_S`]. Slices bracket each timed stretch, so each
    /// stretch is scaled by the host speed of its own moment. Panics with
    /// fewer than two slices.
    pub fn last_slowdown(&self) -> f64 {
        let n = self.slice_s.len();
        (self.slice_s[n - 2] + self.slice_s[n - 1]) / 2.0 / NOMINAL_SLICE_S
    }
}

/// Architectural registers of the reference core.
const ARCH_REGS: usize = 32;
/// Physical registers.
const PHYS_REGS: usize = 128;
/// Reorder-buffer entries.
const ROB: usize = 96;
/// Issue-queue entries.
const IQ: usize = 32;
/// Dispatch, issue and retire width.
const WIDTH: usize = 4;

#[derive(Clone, Copy)]
enum Op {
    Alu,
    Mul,
    Load(u64),
    Store(u64),
    Branch(bool),
}

/// A set-associative cache with LRU replacement: true on a hit.
struct Cache {
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
}

impl Cache {
    fn new(sets: usize, ways: usize) -> Cache {
        Cache {
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let sets = self.tags.len() / self.ways;
        let base = (line as usize % sets) * self.ways;
        let set = base..base + self.ways;
        if let Some(w) = self.tags[set.clone()].iter().position(|&t| t == line) {
            self.stamps[base + w] = self.clock;
            return true;
        }
        let victim = set.min_by_key(|&i| self.stamps[i]).unwrap_or(base);
        self.tags[victim] = line;
        self.stamps[victim] = self.clock;
        false
    }
}

struct RobEntry {
    dst: usize,
    old: usize,
    done: u64,
    issued: bool,
    srcs: [usize; 2],
    op: Op,
}

/// Simulates `insts` instructions of a pseudo-random program drawn from
/// `seed` and returns a checksum of the run; the same arguments always give
/// the same checksum.
pub fn reference_core(insts: u64, seed: u64) -> u64 {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut map: Vec<usize> = (0..ARCH_REGS).collect();
    let mut free: VecDeque<usize> = (ARCH_REGS..PHYS_REGS).collect();
    let mut ready = vec![0u64; PHYS_REGS];
    let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(ROB);
    let mut iq: Vec<u64> = Vec::with_capacity(IQ);
    let (mut l1, mut l2) = (Cache::new(64, 4), Cache::new(1024, 8));
    let mut gshare = vec![1u8; 4096];
    let mut history = 0usize;
    let (mut now, mut fetched, mut retired, mut stall_until) = (0u64, 0u64, 0u64, 0u64);
    let (mut head_seq, mut energy) = (0u64, 0f64);
    let mut pc = 0u64;
    while retired < insts {
        now += 1;
        // Retire.
        for _ in 0..WIDTH {
            match rob.front() {
                Some(e) if e.issued && e.done <= now => {
                    free.push_back(e.old);
                    rob.pop_front();
                    head_seq += 1;
                    retired += 1;
                    energy += 0.75;
                }
                _ => break,
            }
        }
        // Issue: scan the queue oldest first.
        let mut issued = 0;
        iq.retain(|&seq| {
            let e = &mut rob[(seq - head_seq) as usize];
            if issued == WIDTH || e.srcs.iter().any(|&s| ready[s] > now) {
                return true;
            }
            let latency = match e.op {
                Op::Alu | Op::Branch(_) => 1,
                Op::Mul => 3,
                Op::Store(line) => {
                    l1.access(line);
                    1
                }
                Op::Load(line) => match (l1.access(line), l2.access(line)) {
                    (true, _) => 3,
                    (false, true) => 12,
                    (false, false) => 80,
                },
            };
            e.issued = true;
            e.done = now + latency;
            ready[e.dst] = e.done;
            energy += 1.25 + latency as f64 * 0.0625;
            issued += 1;
            false
        });
        // Fetch, rename and dispatch.
        if now < stall_until {
            continue;
        }
        for _ in 0..WIDTH {
            if fetched == insts || rob.len() == ROB || iq.len() == IQ || free.is_empty() {
                break;
            }
            let r = next();
            pc = pc.wrapping_add(4 + (r >> 60) * 4);
            let op = match r % 20 {
                0..=9 => Op::Alu,
                10 => Op::Mul,
                11..=14 => Op::Load(if r & 0x100 == 0 {
                    (pc >> 4) & 0x3ff
                } else {
                    (r >> 20) & 0xf_ffff
                }),
                15..=16 => Op::Store((r >> 24) & 0x3fff),
                _ => Op::Branch((r >> 32) % 7 < 5),
            };
            if let Op::Branch(taken) = op {
                let slot = ((pc >> 2) as usize ^ history) & (gshare.len() - 1);
                let predicted = gshare[slot] >= 2;
                gshare[slot] = if taken {
                    (gshare[slot] + 1).min(3)
                } else {
                    gshare[slot].saturating_sub(1)
                };
                history = ((history << 1) | usize::from(taken)) & 0xfff;
                if predicted != taken {
                    stall_until = now + 10;
                }
            }
            let srcs = [
                map[(r >> 8) as usize % ARCH_REGS],
                map[(r >> 16) as usize % ARCH_REGS],
            ];
            let arch = (r >> 40) as usize % ARCH_REGS;
            let dst = free.pop_front().unwrap_or(0);
            let old = std::mem::replace(&mut map[arch], dst);
            ready[dst] = u64::MAX;
            iq.push(head_seq + rob.len() as u64);
            rob.push_back(RobEntry {
                dst,
                old,
                done: u64::MAX,
                issued: false,
                srcs,
                op,
            });
            fetched += 1;
            energy += 0.5;
            if stall_until > now {
                break;
            }
        }
    }
    now ^ energy.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_core_is_deterministic_and_seeded() {
        let a = reference_core(5_000, 7);
        assert_eq!(a, reference_core(5_000, 7));
        assert_ne!(a, reference_core(5_000, 8));
        assert_eq!(reference_core(SLICE_INSTS, SLICE_SEED), SLICE_CHECKSUM);
    }

    #[test]
    fn the_slowdown_is_the_mean_of_the_last_two_slices() {
        let mut speed = HostSpeed::default();
        speed.slice_s.push(NOMINAL_SLICE_S);
        speed.slice_s.push(NOMINAL_SLICE_S * 3.0);
        assert_eq!(speed.last_slowdown(), 2.0);
        speed.slice_s.push(NOMINAL_SLICE_S * 2.0);
        assert_eq!(speed.last_slowdown(), 2.5);
    }
}
