//! Configuration of the baseline out-of-order machine.

use flywheel_isa::FuKind;
use flywheel_power::PowerConfig;
use flywheel_timing::{ClockPlan, LsqDomainPlan, TechNode};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// Creates a cache configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero or the line size is not a power of two.
    pub fn new(size_bytes: u64, assoc: u32, line_bytes: u32) -> Self {
        assert!(size_bytes > 0 && assoc > 0 && line_bytes.is_power_of_two());
        CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.assoc as u64 * self.line_bytes as u64)).max(1) as usize
    }

    /// Checks that the geometry can be indexed by shift and mask: a
    /// power-of-two line size of at least 2 B, at least one way, and a
    /// capacity of exactly a power-of-two number of sets.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 2 {
            return Err(format!(
                "line size {} B is not a power of two of at least 2 B",
                self.line_bytes
            ));
        }
        if self.assoc == 0 {
            return Err("associativity must be non-zero".into());
        }
        let set_bytes = self.assoc as u64 * self.line_bytes as u64;
        let sets = self.size_bytes / set_bytes;
        if !self.size_bytes.is_multiple_of(set_bytes) || !sets.is_power_of_two() {
            return Err(format!(
                "{} B / ({}-way x {} B lines) is not a power-of-two set count",
                self.size_bytes, self.assoc, self.line_bytes
            ));
        }
        Ok(())
    }
}

/// Number of functional units of each kind (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Integer ALUs.
    pub int_alu: u32,
    /// Integer multiply/divide units.
    pub int_muldiv: u32,
    /// Memory ports.
    pub mem_ports: u32,
    /// Floating-point adders.
    pub fp_add: u32,
    /// Floating-point multiply/divide units.
    pub fp_muldiv: u32,
}

impl FuConfig {
    /// The paper's Table 2 functional-unit mix.
    pub fn paper() -> Self {
        FuConfig {
            int_alu: 4,
            int_muldiv: 2,
            mem_ports: 2,
            fp_add: 2,
            fp_muldiv: 1,
        }
    }

    /// Number of units of `kind`.
    pub fn count(&self, kind: FuKind) -> u32 {
        match kind {
            FuKind::IntAlu => self.int_alu,
            FuKind::IntMulDiv => self.int_muldiv,
            FuKind::MemPort => self.mem_ports,
            FuKind::FpAdd => self.fp_add,
            FuKind::FpMulDiv => self.fp_muldiv,
        }
    }
}

/// Branch predictor configuration (gshare + BTB + return-address stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpredConfig {
    /// Global history length in bits.
    pub history_bits: u32,
    /// Number of two-bit counters in the pattern history table.
    pub pht_entries: u32,
    /// Number of BTB entries (direct mapped).
    pub btb_entries: u32,
    /// Return-address-stack depth.
    pub ras_entries: u32,
}

impl BpredConfig {
    /// The paper's predictor: gshare with 12 bits of history and 2048 entries.
    pub fn paper() -> Self {
        BpredConfig {
            history_bits: 12,
            pht_entries: 2048,
            btb_entries: 2048,
            ras_entries: 16,
        }
    }
}

/// Full configuration of the baseline superscalar, out-of-order machine
/// (paper Table 2), plus the knobs used by the Figure 2 pipeline-loop study and by
/// the Dual-Clock Issue Window.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// Process technology node (drives clock periods and the power model).
    pub node: TechNode,
    /// Clock-domain plan. The fully synchronous baseline uses the same period for
    /// every domain; the Dual-Clock Issue Window front-end uses a faster front-end
    /// period.
    pub clocks: ClockPlan,
    /// Instructions fetched per I-cache access (aligned group).
    pub fetch_width: u32,
    /// Instructions renamed/dispatched per front-end cycle.
    pub dispatch_width: u32,
    /// Instructions selected for execution per back-end cycle.
    pub issue_width: u32,
    /// Instructions retired per back-end cycle.
    pub commit_width: u32,
    /// Number of front-end stages between fetch and dispatch (fetch, decode, rename,
    /// dispatch = 4 in the nine-stage baseline). Figure 2's "extra front-end stage"
    /// experiment adds one.
    pub front_end_stages: u32,
    /// Issue Window entries.
    pub iw_entries: u32,
    /// Reorder-buffer entries.
    pub rob_entries: u32,
    /// Load/store queue entries.
    pub lsq_entries: u32,
    /// Physical registers (shared integer/FP pool in the R10000-style renamer).
    pub phys_regs: u32,
    /// Register-file read latency in back-end cycles.
    pub reg_read_cycles: u32,
    /// If true, Wake-up and Select are pipelined into two stages: dependent
    /// instructions can no longer issue back-to-back (Figure 2's second experiment).
    pub pipelined_wakeup: bool,
    /// Synchronization latency, in back-end cycles, before an instruction inserted in
    /// the Issue Window becomes visible to Wake-up/Select (0 for the fully
    /// synchronous machine, ≥1 for the Dual-Clock Issue Window).
    pub sync_latency_be_cycles: u32,
    /// Additional front-end cycles charged on a fetch redirect crossing the
    /// clock-domain boundary (mispredict recovery FIFO).
    pub redirect_sync_fe_cycles: u32,
    /// L1 instruction cache.
    pub icache: CacheConfig,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// L1 hit latency in consumer-domain cycles (pipelined).
    pub l1_hit_cycles: u32,
    /// L2 hit latency in baseline cycles.
    pub l2_hit_cycles: u32,
    /// Main-memory latency in baseline cycles ("scaled accordingly when clock speed
    /// is increased", i.e. constant in wall-clock time).
    pub mem_cycles: u32,
    /// Branch predictor.
    pub bpred: BpredConfig,
    /// Functional-unit mix.
    pub fus: FuConfig,
}

impl BaselineConfig {
    /// The paper's baseline machine (Table 2) at the given technology node, fully
    /// synchronous.
    pub fn paper(node: TechNode) -> Self {
        BaselineConfig {
            node,
            clocks: ClockPlan::synchronous(node),
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 6,
            commit_width: 4,
            front_end_stages: 4,
            iw_entries: 128,
            rob_entries: 128,
            lsq_entries: 64,
            phys_regs: 192,
            reg_read_cycles: 1,
            pipelined_wakeup: false,
            sync_latency_be_cycles: 0,
            redirect_sync_fe_cycles: 0,
            icache: CacheConfig::new(64 * 1024, 2, 64),
            dcache: CacheConfig::new(64 * 1024, 4, 64),
            l2: CacheConfig::new(512 * 1024, 4, 128),
            l1_hit_cycles: 2,
            l2_hit_cycles: 10,
            mem_cycles: 100,
            bpred: BpredConfig::paper(),
            fus: FuConfig::paper(),
        }
    }

    /// The paper default at 0.13 µm (the node used for the main performance/energy
    /// comparison).
    pub fn paper_default() -> Self {
        BaselineConfig::paper(TechNode::N130)
    }

    /// Returns a copy with one extra front-end stage (Figure 2, light bars).
    pub fn with_extra_frontend_stage(mut self) -> Self {
        self.front_end_stages += 1;
        self
    }

    /// Returns a copy with the Wake-up/Select loop pipelined over two cycles
    /// (Figure 2, dark bars).
    pub fn with_pipelined_wakeup(mut self) -> Self {
        self.pipelined_wakeup = true;
        self
    }

    /// Returns a copy configured as the front-end half of a Dual-Clock Issue Window:
    /// a faster front-end clock plus the synchronization latencies it requires.
    pub fn with_dual_clock_frontend(mut self, frontend_speedup_pct: u32) -> Self {
        self.clocks = ClockPlan::with_speedups(self.node, frontend_speedup_pct, 0);
        self.sync_latency_be_cycles = 1;
        self.redirect_sync_fe_cycles = 1;
        self
    }

    /// The structural power-model parameters this machine implies.
    ///
    /// This is the single construction point for the energy model's geometry:
    /// `BaselineSim` builds its `PowerModel` from it, and the scenario
    /// invariant layer rebuilds the identical model to cross-check the
    /// attributed leakage a run reports. Flywheel-only knobs (Execution Cache
    /// size, 512-entry register file) keep their paper defaults here; a
    /// baseline-kind energy account never reads them.
    pub fn power_config(&self) -> PowerConfig {
        PowerConfig {
            node: self.node,
            iw_entries: self.iw_entries,
            iw_width: self.issue_width,
            fetch_width: self.fetch_width,
            rf_entries: self.phys_regs,
            icache_bytes: self.icache.size_bytes,
            dcache_bytes: self.dcache.size_bytes,
            l2_bytes: self.l2.size_bytes,
            rob_entries: self.rob_entries,
            lsq_entries: self.lsq_entries,
            bpred_entries: self.bpred.pht_entries,
            ..PowerConfig::paper(self.node)
        }
    }

    /// L2 hit latency in picoseconds (constant across clock plans: it is set in
    /// baseline cycles).
    pub fn l2_latency_ps(&self) -> u64 {
        self.l2_hit_cycles as u64 * self.clocks.baseline_period_ps
    }

    /// Main-memory latency in picoseconds.
    pub fn mem_latency_ps(&self) -> u64 {
        self.mem_cycles as u64 * self.clocks.baseline_period_ps
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err("widths must be non-zero".into());
        }
        if self.iw_entries == 0 || self.rob_entries == 0 || self.lsq_entries == 0 {
            return Err("window/buffer sizes must be non-zero".into());
        }
        if (self.phys_regs as usize) < flywheel_isa::NUM_ARCH_REGS + 8 {
            return Err("physical register file must exceed the architected state".into());
        }
        if self.front_end_stages == 0 {
            return Err("the front end must have at least one stage".into());
        }
        for (name, cache) in [
            ("L1 instruction", &self.icache),
            ("L1 data", &self.dcache),
            ("L2", &self.l2),
        ] {
            cache
                .validate()
                .map_err(|e| format!("{name} cache geometry: {e}"))?;
        }
        Ok(())
    }
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig::paper_default()
    }
}

/// Configuration of the multi-domain machine: the baseline out-of-order core
/// with the LSQ + D-cache access pipeline split into its own, faster clock
/// domain (Table 1 gives the D-cache headroom over the Issue Window at every
/// node). Loads pay a synchronizer crossing in each direction but the cache
/// access itself completes in the faster domain.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDomainConfig {
    /// The underlying baseline machine (including its FE/BE clock plan).
    pub base: BaselineConfig,
    /// The LSQ/D-cache clock domain.
    pub lsq: LsqDomainPlan,
}

impl MultiDomainConfig {
    /// The paper-geometry multi-domain machine at `node`: the Table 2 baseline
    /// with the LSQ domain at the D-cache's Table 1 frequency.
    pub fn paper(node: TechNode) -> Self {
        MultiDomainConfig {
            base: BaselineConfig::paper(node),
            lsq: LsqDomainPlan::paper(node),
        }
    }

    /// Like [`MultiDomainConfig::paper`], with the dual-clock front-end speed-up
    /// applied on top (the clock axis of the scenario engine).
    pub fn paper_with_frontend(node: TechNode, frontend_pct: u32) -> Self {
        let mut cfg = MultiDomainConfig::paper(node);
        if frontend_pct > 0 {
            cfg.base = cfg.base.with_dual_clock_frontend(frontend_pct);
        }
        cfg
    }

    /// The structural power-model parameters this machine implies (identical to
    /// the underlying baseline: splitting a clock domain moves no geometry).
    pub fn power_config(&self) -> PowerConfig {
        self.base.power_config()
    }

    /// Validates internal consistency, including that the LSQ domain does not
    /// exceed the D-cache's achievable frequency at the configured node.
    pub fn validate(&self) -> Result<(), String> {
        self.base.validate()?;
        let violations = self.lsq.validate_against(self.base.node);
        if !violations.is_empty() {
            return Err(format!(
                "LSQ domain exceeds achievable module frequencies: {violations:?}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_table2() {
        let c = BaselineConfig::paper_default();
        c.validate().unwrap();
        assert_eq!(c.iw_entries, 128);
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.lsq_entries, 64);
        assert_eq!(c.phys_regs, 192);
        assert_eq!(c.icache.size_bytes, 64 * 1024);
        assert_eq!(c.icache.assoc, 2);
        assert_eq!(c.dcache.assoc, 4);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2_hit_cycles, 10);
        assert_eq!(c.mem_cycles, 100);
        assert_eq!(c.bpred.history_bits, 12);
        assert_eq!(c.bpred.pht_entries, 2048);
        assert_eq!(c.fus.count(flywheel_isa::FuKind::IntAlu), 4);
        assert_eq!(c.fus.count(flywheel_isa::FuKind::FpMulDiv), 1);
    }

    #[test]
    fn figure2_variants_modify_the_right_knobs() {
        let base = BaselineConfig::paper_default();
        let extra = base.clone().with_extra_frontend_stage();
        assert_eq!(extra.front_end_stages, base.front_end_stages + 1);
        let piped = base.clone().with_pipelined_wakeup();
        assert!(piped.pipelined_wakeup && !base.pipelined_wakeup);
    }

    #[test]
    fn dual_clock_frontend_speeds_up_only_the_front_end() {
        let c = BaselineConfig::paper_default().with_dual_clock_frontend(50);
        assert!(c.clocks.frontend_speedup() > 1.45);
        assert!((c.clocks.backend_speedup() - 1.0).abs() < 0.01);
        assert_eq!(c.sync_latency_be_cycles, 1);
    }

    #[test]
    fn memory_latencies_are_constant_in_wall_clock() {
        let sync = BaselineConfig::paper_default();
        let dual = BaselineConfig::paper_default().with_dual_clock_frontend(100);
        assert_eq!(sync.mem_latency_ps(), dual.mem_latency_ps());
        assert_eq!(sync.l2_latency_ps(), dual.l2_latency_ps());
    }

    #[test]
    fn cache_sets_are_computed_correctly() {
        let c = CacheConfig::new(64 * 1024, 2, 64);
        assert_eq!(c.sets(), 512);
        let l2 = CacheConfig::new(512 * 1024, 4, 128);
        assert_eq!(l2.sets(), 1024);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = BaselineConfig::paper_default();
        c.phys_regs = 32;
        assert!(c.validate().is_err());
        let mut c2 = BaselineConfig::paper_default();
        c2.front_end_stages = 0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn cache_geometries_without_shift_mask_indexing_are_rejected() {
        // 48 KB / (2 x 64 B) = 384 sets: not a power of two.
        let mut c = BaselineConfig::paper_default();
        c.dcache = CacheConfig::new(48 * 1024, 2, 64);
        let err = c.validate().unwrap_err();
        assert!(err.contains("L1 data cache"), "{err}");
        // A capacity that is not a whole number of sets.
        let mut c = BaselineConfig::paper_default();
        c.l2 = CacheConfig::new(512 * 1024 + 64, 4, 128);
        let err = c.validate().unwrap_err();
        assert!(err.contains("L2 cache"), "{err}");
        // A non-power-of-two line size (the fields are public).
        let mut c = BaselineConfig::paper_default();
        c.icache.line_bytes = 48;
        let err = c.validate().unwrap_err();
        assert!(err.contains("L1 instruction cache"), "{err}");
        // Associativity need not be a power of two.
        let mut c = BaselineConfig::paper_default();
        c.l2 = CacheConfig::new(384 * 1024, 3, 128);
        c.validate().unwrap();
    }

    #[test]
    fn multi_domain_paper_config_is_valid_and_faster_than_the_core() {
        let c = MultiDomainConfig::paper(TechNode::N130);
        c.validate().unwrap();
        assert!(c.lsq.period_ps < c.base.clocks.backend_period_ps);
        assert_eq!(c.power_config(), c.base.power_config());
        let fe = MultiDomainConfig::paper_with_frontend(TechNode::N130, 50);
        fe.validate().unwrap();
        assert!(fe.base.clocks.frontend_speedup() > 1.45);
        assert_eq!(fe.base.sync_latency_be_cycles, 1);
        let iso = MultiDomainConfig::paper_with_frontend(TechNode::N130, 0);
        assert_eq!(iso, MultiDomainConfig::paper(TechNode::N130));
    }

    #[test]
    fn multi_domain_rejects_overclocked_lsq_plans() {
        let mut c = MultiDomainConfig::paper(TechNode::N130);
        c.lsq.period_ps /= 2;
        assert!(c.validate().is_err());
    }
}
