//! Set-associative caches and the two-level memory hierarchy.

use crate::config::{BaselineConfig, CacheConfig};

/// A set-associative cache with LRU replacement.
///
/// Only tags are tracked (the simulator is trace driven and never needs data).
/// Tags and LRU stamps live in two flat arrays indexed `set * assoc + way`, and
/// the line, set and tag of an address come from shifts and masks (the
/// geometry is a power-of-two set count of power-of-two lines, see
/// [`CacheConfig::validate`]), so an access costs no division.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `tags[set * assoc + way]` — [`INVALID`] marks an empty way.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    assoc: usize,
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the set count.
    set_bits: u32,
    stamp: u64,
    accesses: u64,
    misses: u64,
}

/// Tag of an invalid way. Real tags are addresses shifted right by at least
/// one line-offset bit, so they never reach it.
const INVALID: u64 = u64::MAX;

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.validate().is_ok(), "cache geometry {cfg:?}");
        let (sets, assoc) = (cfg.sets(), cfg.assoc as usize);
        Cache {
            cfg,
            tags: vec![INVALID; sets * assoc],
            stamps: vec![0; sets * assoc],
            assoc,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The ways of `addr`'s set, as a range of `tags`/`stamps`, and its tag.
    fn ways_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let first = set * self.assoc;
        (first..first + self.assoc, line >> self.set_bits)
    }

    /// Accesses `addr`, allocating the line on a miss. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let (ways, tag) = self.ways_and_tag(addr);
        let first = ways.start;
        let tags = &mut self.tags[ways.clone()];
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            self.stamps[first + way] = self.stamp;
            return true;
        }
        self.misses += 1;
        // The first way with the oldest stamp: an invalid way if present (its
        // stamp is still 0, every filled way's is at least 1), otherwise the
        // LRU way.
        let victim = self.stamps[ways]
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| **s)
            .map(|(i, _)| i)
            .expect("cache must have at least one way");
        tags[victim] = tag;
        self.stamps[first + victim] = self.stamp;
        false
    }

    /// Checks whether `addr` is resident without updating any state.
    pub fn contains(&self, addr: u64) -> bool {
        let (ways, tag) = self.ways_and_tag(addr);
        self.tags[ways].contains(&tag)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Miss in both levels, served by main memory.
    Memory,
}

/// Statistics of one cache level plus the L2/memory traffic it generated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 instruction-cache accesses and misses.
    pub l1i: (u64, u64),
    /// L1 data-cache accesses and misses.
    pub l1d: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
}

/// The two-level memory hierarchy of the paper's machine: split 64 KB L1 caches and a
/// unified 512 KB L2 in front of a flat 100-cycle memory.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l2_latency_ps: u64,
    mem_latency_ps: u64,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &BaselineConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(cfg.icache),
            l1d: Cache::new(cfg.dcache),
            l2: Cache::new(cfg.l2),
            l2_latency_ps: cfg.l2_latency_ps(),
            mem_latency_ps: cfg.mem_latency_ps(),
        }
    }

    /// Performs an instruction fetch at `addr`.
    pub fn fetch(&mut self, addr: u64) -> AccessOutcome {
        if self.l1i.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Performs a data access at `addr`.
    pub fn data(&mut self, addr: u64) -> AccessOutcome {
        if self.l1d.access(addr) {
            AccessOutcome::L1
        } else if self.l2.access(addr) {
            AccessOutcome::L2
        } else {
            AccessOutcome::Memory
        }
    }

    /// Extra latency, in picoseconds, added beyond the pipelined L1 access for the
    /// given outcome.
    pub fn extra_latency_ps(&self, outcome: AccessOutcome) -> u64 {
        match outcome {
            AccessOutcome::L1 => 0,
            AccessOutcome::L2 => self.l2_latency_ps,
            AccessOutcome::Memory => self.l2_latency_ps + self.mem_latency_ps,
        }
    }

    /// Whether this outcome left the L1.
    pub fn is_l2_access(outcome: AccessOutcome) -> bool {
        outcome != AccessOutcome::L1
    }

    /// Current statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1i: (self.l1i.accesses(), self.l1i.misses()),
            l1d: (self.l1d.accesses(), self.l1d.misses()),
            l2: (self.l2.accesses(), self.l2.misses()),
        }
    }

    /// L1 data-cache miss rate.
    pub fn l1d_miss_rate(&self) -> f64 {
        self.l1d.miss_rate()
    }

    /// L1 instruction-cache miss rate.
    pub fn l1i_miss_rate(&self) -> f64 {
        self.l1i.miss_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 bytes.
        Cache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1010), "same line, different offset");
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        assert!(!c.access(a));
        assert!(!c.access(b));
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a));
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a), "a should still be resident");
        assert!(!c.access(b), "b should have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = small_cache();
        // 64 distinct lines in a 8-line cache: after warm-up, still mostly misses.
        for round in 0..4 {
            for i in 0..64u64 {
                c.access(i * 64);
            }
            let _ = round;
        }
        assert!(c.miss_rate() > 0.9);
    }

    #[test]
    fn small_working_set_fits() {
        let mut c = small_cache();
        for _ in 0..16 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        assert!(c.miss_rate() < 0.1);
    }

    #[test]
    fn contains_does_not_allocate() {
        let mut c = small_cache();
        assert!(!c.contains(0x40));
        c.access(0x40);
        assert!(c.contains(0x40));
        assert_eq!(c.accesses(), 1);
    }

    #[test]
    fn hierarchy_latencies_reflect_outcomes() {
        let cfg = BaselineConfig::paper_default();
        let mut h = MemoryHierarchy::new(&cfg);
        let first = h.data(0xdead_0000);
        assert_eq!(first, AccessOutcome::Memory);
        let second = h.data(0xdead_0000);
        assert_eq!(second, AccessOutcome::L1);
        assert_eq!(h.extra_latency_ps(AccessOutcome::L1), 0);
        assert!(h.extra_latency_ps(AccessOutcome::Memory) > h.extra_latency_ps(AccessOutcome::L2));
        assert_eq!(
            h.extra_latency_ps(AccessOutcome::Memory),
            cfg.l2_latency_ps() + cfg.mem_latency_ps()
        );
    }

    #[test]
    fn l2_catches_l1_victims() {
        let cfg = BaselineConfig::paper_default();
        let mut h = MemoryHierarchy::new(&cfg);
        // Touch a working set bigger than L1 (64KB) but smaller than L2 (512KB).
        let lines = 4096u64; // 256 KB
        for _ in 0..3 {
            for i in 0..lines {
                h.data(0x1000_0000 + i * 64);
            }
        }
        let stats = h.stats();
        assert!(stats.l1d.1 > 0, "L1 should miss");
        let l2_miss_rate = stats.l2.1 as f64 / stats.l2.0 as f64;
        assert!(
            l2_miss_rate < 0.5,
            "L2 should absorb most L1 misses, rate {l2_miss_rate}"
        );
    }
}
