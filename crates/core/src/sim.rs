//! The Flywheel pipeline: trace-creation and trace-execution modes.

use crate::config::{DvfsConfig, DvfsPolicy, FlywheelConfig};
use crate::ec::{ExecutionCache, Trace, TraceBuilder};
use crate::pools::PoolRenamer;
use crate::stats::{FlywheelResult, FlywheelStats};
use flywheel_isa::{DynInst, OpClass, Pc};
use flywheel_power::{EnergyAccumulator, MachineKind, PowerModel, Unit};
use flywheel_uarch::{
    AccessOutcome, BpredStats, Calendar, EntryState, GsharePredictor, HierarchyStats,
    InflightEntry, InflightTable, IssueScheduler, MemoryHierarchy, PhysRegFile, SimBudget,
    SimResult, StoreIndex,
};
use std::collections::VecDeque;

/// Operating mode of the machine (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Instructions flow through the normal front end; issued groups are recorded
    /// into the Execution Cache.
    Creation,
    /// The front end is clock gated; instructions are replayed from the Execution
    /// Cache and fed directly to the execution core at the fast back-end clock.
    Execution,
}

/// State of the DVFS governor (the DVFS-managed Flywheel machine).
#[derive(Debug, Clone)]
struct DvfsState {
    policy: DvfsPolicy,
    /// Back-end cycle at (or after) which the governor evaluates next.
    next_eval_cycle: u64,
    /// Per-mode time snapshots at the previous evaluation.
    last_exec_mode_ps: u64,
    last_creation_mode_ps: u64,
    /// Currently governed trace-execution back-end speed-up, in percent.
    current_pct: u32,
    /// Number of clock retunes performed.
    retunes: u64,
}

/// State of an in-progress trace replay.
#[derive(Debug, Clone)]
struct Replay {
    trace: Trace,
    /// Oracle instructions matched (program-order aligned with `trace.insts`).
    pulled: Vec<DynInst>,
    /// Set once the actual instruction stream departs from the recorded path.
    diverged: bool,
    /// Next program-order index to send to the execution core.
    next_idx: usize,
    /// Back-end cycle at which the first issue unit may leave the fill buffer.
    ready_at_cycle: u64,
    /// Instructions consumed so far (for data-array block accounting).
    consumed: u64,
}

/// The Flywheel machine: the paper's proposed microarchitecture, combining the
/// Dual-Clock Issue Window, the two-phase pool-based register renaming and the
/// Execution Cache with pre-scheduled execution.
///
/// With [`FlywheelConfig::execution_cache`] disabled this degenerates into the
/// "Register Allocation" machine of Figure 11 (dual-clock front end and new renaming,
/// no alternative execution path).
///
/// Like the baseline machine, the per-cycle hot loop is allocation-free: in-flight
/// bookkeeping lives in the shared slab-indexed
/// [`InflightTable`]/[`IssueScheduler`]/[`StoreIndex`] structures of
/// `flywheel-uarch`.
///
/// ```
/// use flywheel_core::{FlywheelConfig, FlywheelSim};
/// use flywheel_timing::TechNode;
/// use flywheel_uarch::SimBudget;
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// let budget = SimBudget::new(1_000, 5_000);
/// let program = Benchmark::Micro.synthesize(1);
/// // Both machine models replay the same recorded stream; fresh cursors restart
/// // it from the beginning at zero cost.
/// let trace = RecordedTrace::record(&program, 1, RecordedTrace::capture_len_for(budget.total()));
/// let mut sim = FlywheelSim::new(FlywheelConfig::paper_iso_clock(TechNode::N130), trace.cursor());
/// let result = sim.run(budget);
/// assert_eq!(result.sim.instructions, 5_000);
/// ```
pub struct FlywheelSim<I: Iterator<Item = DynInst>> {
    cfg: FlywheelConfig,
    trace: I,
    peeked: Option<DynInst>,
    /// Instructions fetched in creation mode but handed back when the machine
    /// switched to the Execution Cache path before dispatching them.
    pushback: VecDeque<DynInst>,
    trace_done: bool,

    // Shared structures.
    hierarchy: MemoryHierarchy,
    bpred: GsharePredictor,
    pools: PoolRenamer,
    prf: PhysRegFile,
    fus: flywheel_uarch::FunctionalUnits,
    ec: ExecutionCache,

    // In-flight bookkeeping (both modes share the ROB/LSQ and execution pipeline).
    inflight: InflightTable,
    frontend_q: VecDeque<u64>,
    rob: VecDeque<u64>,
    iw_len: usize,
    lsq: VecDeque<u64>,
    /// Executing instructions keyed by completion cycle; stale (squashed)
    /// entries are validated out when drained.
    completions: Calendar,
    sched: IssueScheduler,
    stores: StoreIndex,

    // Persistent scratch buffers (reused every cycle; never allocated in the loop).
    finished_scratch: Vec<(u64, u64)>,

    // Creation-mode fetch state.
    fetch_blocked_on_branch: Option<u64>,
    fetch_resume_at_ps: u64,
    builder: Option<TraceBuilder>,
    builder_start_seq: u64,
    builder_dispatched: u32,

    // Mode control.
    mode: Mode,
    replay: Option<Replay>,
    /// Register Update is blocked until this instruction retires (FRT checkpoint).
    checkpoint_wait_retire_of: Option<u64>,
    /// Back-end cycle from which Register Update may proceed.
    checkpoint_ready_cycle: u64,

    // Clocks.
    fe_period_ps: u64,
    be_period_creation_ps: u64,
    be_period_exec_ps: u64,
    fe_time_ps: u64,
    be_time_ps: u64,
    fe_cycles: u64,
    be_cycles: u64,
    exec_mode_ps: u64,
    creation_mode_ps: u64,

    // Register redistribution.
    next_redistribution_cycle: u64,
    stalled_until_cycle: u64,

    /// Optional DVFS governor retuning `be_period_exec_ps` at fixed intervals
    /// from observed trace-execution residency. `None` keeps the clock plan
    /// fixed for the run — bit-identical to the plain Flywheel machine.
    dvfs: Option<DvfsState>,

    // Energy.
    power_model: PowerModel,
    energy: EnergyAccumulator,

    // Counters.
    retired: u64,
    retire_limit: u64,
    squashed: u64,
    trace_switches: u64,
    trace_divergences: u64,
    last_progress_cycle: u64,
    /// Whether the edge being processed changed any machine state (gates the
    /// idle fast-forward in the run loop).
    tick_activity: bool,
    measure_start: Option<Snapshot>,
}

#[derive(Debug, Clone)]
struct Snapshot {
    retired: u64,
    squashed: u64,
    be_cycles: u64,
    fe_cycles: u64,
    time_ps: u64,
    exec_mode_ps: u64,
    creation_mode_ps: u64,
    trace_switches: u64,
    trace_divergences: u64,
    bpred: BpredStats,
    caches: HierarchyStats,
    ec: crate::ec::EcStats,
    pools: crate::pools::PoolStats,
}

impl<I: Iterator<Item = DynInst>> FlywheelSim<I> {
    /// Creates a Flywheel machine for `cfg` consuming instructions from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`FlywheelConfig::validate`].
    pub fn new(cfg: FlywheelConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let base = &cfg.base;
        let power_model = PowerModel::new(cfg.power_config());
        let fe_period_ps = base.clocks.frontend_period_ps;
        let be_period_creation_ps = base.clocks.baseline_period_ps;
        let be_period_exec_ps = base.clocks.backend_period_ps;
        let inflight_capacity = (base.rob_entries
            + base.front_end_stages * base.fetch_width
            + base.fetch_width) as usize;
        FlywheelSim {
            hierarchy: MemoryHierarchy::new(base),
            bpred: GsharePredictor::new(base.bpred),
            pools: PoolRenamer::new(cfg.pools),
            prf: PhysRegFile::new(cfg.pools.total_phys_regs),
            fus: flywheel_uarch::FunctionalUnits::new(base.fus),
            ec: ExecutionCache::new(cfg.ec),
            inflight: InflightTable::with_capacity(inflight_capacity),
            frontend_q: VecDeque::new(),
            rob: VecDeque::new(),
            iw_len: 0,
            lsq: VecDeque::new(),
            completions: Calendar::new(),
            sched: IssueScheduler::new(
                cfg.pools.total_phys_regs as usize,
                if cfg.base.pipelined_wakeup { 1 } else { 0 },
            ),
            stores: StoreIndex::new(),
            finished_scratch: Vec::new(),
            fetch_blocked_on_branch: None,
            fetch_resume_at_ps: 0,
            builder: None,
            builder_start_seq: 0,
            builder_dispatched: 0,
            mode: Mode::Creation,
            replay: None,
            checkpoint_wait_retire_of: None,
            checkpoint_ready_cycle: 0,
            fe_period_ps,
            be_period_creation_ps,
            be_period_exec_ps,
            fe_time_ps: fe_period_ps,
            be_time_ps: be_period_creation_ps,
            fe_cycles: 0,
            be_cycles: 0,
            exec_mode_ps: 0,
            creation_mode_ps: 0,
            next_redistribution_cycle: cfg.pools.redistribution_interval,
            stalled_until_cycle: 0,
            dvfs: None,
            power_model,
            energy: EnergyAccumulator::new(MachineKind::Flywheel),
            retired: 0,
            retire_limit: u64::MAX,
            squashed: 0,
            trace_switches: 0,
            trace_divergences: 0,
            last_progress_cycle: 0,
            tick_activity: false,
            measure_start: None,
            peeked: None,
            pushback: VecDeque::new(),
            trace_done: false,
            trace,
            cfg,
        }
    }

    /// Creates a DVFS-governed Flywheel machine for `cfg` consuming
    /// instructions from `trace`: identical to [`FlywheelSim::new`] on
    /// `cfg.fly`, plus a governor that retunes the trace-execution back-end
    /// clock every `cfg.policy.interval_be_cycles` core cycles from the
    /// Execution-Cache residency observed over the elapsed interval.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`DvfsConfig::validate`].
    pub fn new_dvfs(cfg: DvfsConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let policy = cfg.policy;
        let current_pct = cfg.fly.backend_speedup_pct;
        let mut sim = FlywheelSim::new(cfg.fly, trace);
        sim.dvfs = Some(DvfsState {
            policy,
            next_eval_cycle: policy.interval_be_cycles,
            last_exec_mode_ps: 0,
            last_creation_mode_ps: 0,
            current_pct,
            retunes: 0,
        });
        sim
    }

    /// The configuration of this machine.
    pub fn config(&self) -> &FlywheelConfig {
        &self.cfg
    }

    /// Number of clock retunes the DVFS governor has performed (0 without a
    /// governor).
    pub fn dvfs_retunes(&self) -> u64 {
        self.dvfs.as_ref().map_or(0, |d| d.retunes)
    }

    /// Runs the simulation for the given budget.
    pub fn run(&mut self, budget: SimBudget) -> FlywheelResult {
        let warm_target = budget.warmup_instructions;
        let total_target = budget.total();
        self.retire_limit = warm_target.max(1);
        let mut watchdog = flywheel_uarch::watchdog::armed();
        let mut telemetry = flywheel_uarch::telemetry::armed();
        let mut tel_executing = self.mode == Mode::Execution;
        let mut tel_pool_stalls = self.pools.stats().pool_stalls;
        while self.retired < total_target && !(self.trace_done && self.inflight.is_empty()) {
            if self.measure_start.is_none() && self.retired >= warm_target {
                self.begin_measurement();
                self.retire_limit = total_target;
            }
            self.tick_activity = false;
            if self.be_time_ps <= self.fe_time_ps {
                self.tick_backend();
            } else {
                self.tick_frontend();
            }
            if !self.tick_activity {
                self.fast_forward();
            }
            if self.be_cycles - self.last_progress_cycle > 500_000 {
                panic!(
                    "no retirement progress for 500k cycles (mode {:?}, retired {}, rob {}, \
                     iw {}, frontend {}, replay {})",
                    self.mode,
                    self.retired,
                    self.rob.len(),
                    self.iw_len,
                    self.frontend_q.len(),
                    self.replay.is_some(),
                );
            }
            if let Some(wd) = watchdog.as_mut() {
                wd.poll(self.be_cycles);
            }
            if let Some(t) = telemetry.as_mut() {
                let executing = self.mode == Mode::Execution;
                if executing != tel_executing {
                    tel_executing = executing;
                    t.mode_edge(executing, self.be_cycles, self.fe_cycles);
                }
                let stalls = self.pools.stats().pool_stalls;
                if stalls != tel_pool_stalls {
                    t.pool_stalls(self.be_cycles, stalls - tel_pool_stalls);
                    tel_pool_stalls = stalls;
                }
                t.sample_occupancy(
                    self.be_cycles,
                    self.iw_len,
                    self.rob.len(),
                    self.frontend_q.len(),
                    self.lsq.len(),
                );
            }
        }
        if let Some(t) = telemetry.as_mut() {
            t.finish(self.be_cycles, self.fe_cycles);
        }
        if self.measure_start.is_none() {
            self.begin_measurement();
        }
        self.finish()
    }

    fn be_period(&self) -> u64 {
        match self.mode {
            Mode::Creation => self.be_period_creation_ps,
            Mode::Execution => self.be_period_exec_ps,
        }
    }

    /// The back-end edge time at which cycle `c` executes (the edge at
    /// `be_time_ps` runs cycle `be_cycles + 1`). The mode — and with it the
    /// back-end period — is constant across the idle stretch being bounded: any
    /// mode switch is tick activity.
    fn be_cycle_time_ps(&self, c: u64) -> u64 {
        if c <= self.be_cycles + 1 {
            self.be_time_ps
        } else {
            self.be_time_ps
                .saturating_add((c - self.be_cycles - 1).saturating_mul(self.be_period()))
        }
    }

    /// The first back-end edge at or after time `ps`.
    fn be_edge_at_or_after(&self, ps: u64) -> u64 {
        if ps <= self.be_time_ps {
            self.be_time_ps
        } else {
            self.be_time_ps + (ps - self.be_time_ps).div_ceil(self.be_period()) * self.be_period()
        }
    }

    /// The first front-end edge at or after time `ps`.
    fn fe_edge_at_or_after(&self, ps: u64) -> u64 {
        if ps <= self.fe_time_ps {
            self.fe_time_ps
        } else {
            self.fe_time_ps + (ps - self.fe_time_ps).div_ceil(self.fe_period_ps) * self.fe_period_ps
        }
    }

    /// A conservative lower bound on the next time any machine state can
    /// change, or `None` when no event is safely boundable (then the machine
    /// single-steps as before). See `BaselineSim::next_event_ps` for the
    /// reasoning; the Flywheel machine adds the mode-specific gates (Register
    /// Update checkpoint, redistribution stalls, trace-replay startup and
    /// operand arrival).
    fn next_event_ps(&self) -> Option<u64> {
        // A completed ROB head retires at the next back-end edge — or is gated
        // only by the retire limit, which the run loop may lift between steps.
        if let Some(&head) = self.rob.front() {
            if self.inflight[head].state == EntryState::Completed {
                return None;
            }
        }
        let mut t = u64::MAX;
        if let Some(c) = self.completions.next_due() {
            t = t.min(self.be_cycle_time_ps(c));
        }
        if let Some(c) = self.sched.next_due() {
            t = t.min(self.be_cycle_time_ps(c));
        }
        // Released entries' operands have already arrived, so only their
        // visibility across the dual-clock window bounds them.
        if let Some(v) = self.sched.earliest_visible_ps(&self.inflight, &self.stores) {
            t = t.min(self.be_edge_at_or_after(v));
        }
        // Cycle-numbered gates that open in the future (past thresholds are
        // permanently inert).
        for c in [self.stalled_until_cycle, self.checkpoint_ready_cycle] {
            if c > self.be_cycles {
                t = t.min(self.be_cycle_time_ps(c));
            }
        }
        // The DVFS governor may change the back-end period at its next
        // evaluation: never bulk-advance past it (this keeps the back-end
        // period constant across every bounded idle stretch).
        if let Some(d) = &self.dvfs {
            t = t.min(self.be_cycle_time_ps(d.next_eval_cycle));
        }
        match self.mode {
            Mode::Creation => {
                // Pool redistribution is considered whenever the ROB drains.
                if self.rob.is_empty() {
                    t = t.min(self.be_cycle_time_ps(self.next_redistribution_cycle));
                }
                // Dispatch of the front-end queue head, when Register Update is
                // currently allowed (it can only open — never close — without
                // tick activity, and its opening edges are included above).
                let gate_open = self.checkpoint_wait_retire_of.is_none()
                    && self.be_cycles >= self.checkpoint_ready_cycle
                    && self.be_cycles >= self.stalled_until_cycle;
                if gate_open {
                    if let Some(&head) = self.frontend_q.front() {
                        let e = &self.inflight[head];
                        if e.dispatch_ready_ps > self.fe_time_ps {
                            t = t.min(self.fe_edge_at_or_after(e.dispatch_ready_ps));
                        } else {
                            let is_mem = e.d.stat.op().is_mem();
                            let blocked = self.rob.len() >= self.cfg.base.rob_entries as usize
                                || self.iw_len >= self.cfg.base.iw_entries as usize
                                || (is_mem && self.lsq.len() >= self.cfg.base.lsq_entries as usize);
                            if !blocked {
                                t = t.min(self.fe_time_ps);
                            }
                        }
                    }
                }
                // Fetch resuming (not checkpoint-gated).
                let queue_cap =
                    (self.cfg.base.front_end_stages * self.cfg.base.fetch_width) as usize;
                if self.fetch_blocked_on_branch.is_none()
                    && !self.trace_done
                    && self.frontend_q.len() < queue_cap
                {
                    t = t.min(self.fe_edge_at_or_after(self.fetch_resume_at_ps));
                }
            }
            Mode::Execution => {
                let Some(r) = &self.replay else {
                    // The next back-end tick falls back to creation mode.
                    return None;
                };
                if !r.diverged && r.pulled.len() < r.trace.len() && !self.trace_done {
                    // The next back-end tick pulls (and trains on) oracle
                    // instructions.
                    t = t.min(self.be_time_ps);
                } else if r.next_idx < r.pulled.len() {
                    // The machine is waiting to issue the next replay unit.
                    if self.rob.is_empty() && self.iw_len == 0 {
                        // The abandon-replay safety valve may fire next tick.
                        return None;
                    }
                    let unit = r.trace.insts[r.next_idx].unit;
                    let mut unit_end = r.next_idx;
                    while unit_end < r.trace.len() && r.trace.insts[unit_end].unit == unit {
                        unit_end += 1;
                    }
                    // Replay issues one unit per cycle: the next unit goes out
                    // at the first edge where the startup buffer, the Register
                    // Update checkpoint and all its source operands are due
                    // (capacity and pool blocks only delay it further, which a
                    // conservative bound may ignore). A checkpoint waiting on a
                    // retire is bounded by the completion events instead.
                    let issuable = unit_end.min(r.pulled.len()) == unit_end || r.diverged;
                    if issuable && self.checkpoint_wait_retire_of.is_none() {
                        let mut unit_time = self.be_time_ps;
                        for c in [r.ready_at_cycle, self.checkpoint_ready_cycle] {
                            if c > self.be_cycles {
                                unit_time = unit_time.max(self.be_cycle_time_ps(c));
                            }
                        }
                        let end = unit_end.min(r.pulled.len());
                        for i in r.next_idx..end {
                            for src in r.trace.insts[i].stat.srcs() {
                                let at = self.prf.ready_at(self.pools.mapping(src));
                                if at == u64::MAX {
                                    return None;
                                }
                                if at > self.be_cycles {
                                    unit_time = unit_time.max(self.be_cycle_time_ps(at));
                                }
                            }
                        }
                        t = t.min(unit_time);
                    }
                }
                // A fully drained replay transitions out with tick activity, so
                // no further events are needed here.
            }
        }
        // Never jump past the no-progress watchdog's firing point.
        t = t.min(self.be_cycle_time_ps(self.last_progress_cycle + 500_001));
        (t != u64::MAX).then_some(t)
    }

    /// Bulk-advances both clock domains over the edges strictly before the next
    /// possible event, charging exactly the per-cycle bookkeeping those idle
    /// edges would have performed (clock energy, gated-front-end accounting,
    /// per-mode time, and the Issue Window wake-up/select energy of occupied
    /// windows).
    fn fast_forward(&mut self) {
        let Some(t) = self.next_event_ps() else {
            return;
        };
        if self.fe_time_ps < t {
            let k = (t - 1 - self.fe_time_ps) / self.fe_period_ps + 1;
            self.fe_cycles += k;
            self.fe_time_ps += k * self.fe_period_ps;
            self.energy.tick_frontend_n(self.mode == Mode::Execution, k);
        }
        if self.be_time_ps < t {
            let period = self.be_period();
            let k = (t - 1 - self.be_time_ps) / period + 1;
            self.be_cycles += k;
            self.be_time_ps += k * period;
            match self.mode {
                Mode::Creation => self.creation_mode_ps += k * period,
                Mode::Execution => self.exec_mode_ps += k * period,
            }
            self.energy.tick_backend_n(k);
            // The skipped cycles lie entirely on one side of the stall window
            // (its end is an event above); only unstalled cycles pay the
            // per-cycle Issue Window energy of an occupied window.
            if self.iw_len > 0 && self.be_cycles >= self.stalled_until_cycle {
                self.energy.record(Unit::IssueWindowWakeup, k);
                self.energy.record(Unit::IssueWindowSelect, k);
            }
        }
    }

    fn now_ps(&self) -> u64 {
        (self.be_time_ps.saturating_sub(self.be_period()))
            .max(self.fe_time_ps.saturating_sub(self.fe_period_ps))
    }

    fn begin_measurement(&mut self) {
        self.energy = EnergyAccumulator::new(MachineKind::Flywheel);
        // Traces recorded during warm-up were built while the branch predictor and
        // the caches were still cold, so their schedules are unrepresentative.
        // Mirroring the paper's fast-forward discipline, measurement starts with warm
        // predictor/cache state but lets the Execution Cache refill with traces built
        // under that warm behaviour. A replay that is already in progress keeps its
        // (cloned) trace and simply runs to its end.
        self.ec.invalidate_all();
        self.builder = None;
        self.builder_dispatched = 0;
        self.measure_start = Some(Snapshot {
            retired: self.retired,
            squashed: self.squashed,
            be_cycles: self.be_cycles,
            fe_cycles: self.fe_cycles,
            time_ps: self.now_ps(),
            exec_mode_ps: self.exec_mode_ps,
            creation_mode_ps: self.creation_mode_ps,
            trace_switches: self.trace_switches,
            trace_divergences: self.trace_divergences,
            bpred: self.bpred.stats(),
            caches: self.hierarchy.stats(),
            ec: self.ec.stats(),
            pools: self.pools.stats(),
        });
    }

    fn finish(&mut self) -> FlywheelResult {
        let start = self.measure_start.clone().expect("measurement started");
        let elapsed_ps = self.now_ps().saturating_sub(start.time_ps).max(1);
        let bp = self.bpred.stats();
        let ch = self.hierarchy.stats();
        let exec_ps = self.exec_mode_ps - start.exec_mode_ps;
        let creation_ps = self.creation_mode_ps - start.creation_mode_ps;
        let residency = if exec_ps + creation_ps == 0 {
            0.0
        } else {
            exec_ps as f64 / (exec_ps + creation_ps) as f64
        };
        let ec_now = self.ec.stats();
        let pool_now = self.pools.stats();
        let energy = self.energy.finish(&self.power_model, elapsed_ps);
        let sim = SimResult {
            instructions: self.retired - start.retired,
            be_cycles: self.be_cycles - start.be_cycles,
            fe_cycles: self.fe_cycles - start.fe_cycles,
            elapsed_ps,
            squashed: self.squashed - start.squashed,
            bpred: BpredStats {
                cond_predictions: bp.cond_predictions - start.bpred.cond_predictions,
                cond_mispredicts: bp.cond_mispredicts - start.bpred.cond_mispredicts,
                target_mispredicts: bp.target_mispredicts - start.bpred.target_mispredicts,
                total_ctrl: bp.total_ctrl - start.bpred.total_ctrl,
            },
            caches: HierarchyStats {
                l1i: (ch.l1i.0 - start.caches.l1i.0, ch.l1i.1 - start.caches.l1i.1),
                l1d: (ch.l1d.0 - start.caches.l1d.0, ch.l1d.1 - start.caches.l1d.1),
                l2: (ch.l2.0 - start.caches.l2.0, ch.l2.1 - start.caches.l2.1),
            },
            energy,
            gated_frontend_fraction: residency,
        };
        let flywheel = FlywheelStats {
            exec_mode_ps: exec_ps,
            creation_mode_ps: creation_ps,
            ec_residency: residency,
            ec_lookups: ec_now.lookups - start.ec.lookups,
            ec_hits: ec_now.hits - start.ec.hits,
            traces_stored: ec_now.traces_stored - start.ec.traces_stored,
            ec_utilization: self.ec.utilization(),
            trace_switches: self.trace_switches - start.trace_switches,
            trace_divergences: self.trace_divergences - start.trace_divergences,
            pool_stalls: pool_now.pool_stalls - start.pools.pool_stalls,
            redistributions: pool_now.redistributions - start.pools.redistributions,
        };
        FlywheelResult { sim, flywheel }
    }

    // ------------------------------------------------------------------ oracle

    fn next_trace_inst(&mut self) -> Option<DynInst> {
        if let Some(d) = self.pushback.pop_front() {
            return Some(d);
        }
        if let Some(d) = self.peeked.take() {
            return Some(d);
        }
        match self.trace.next() {
            Some(d) => Some(d),
            None => {
                self.trace_done = true;
                None
            }
        }
    }

    fn peek_trace_inst(&mut self) -> Option<DynInst> {
        if let Some(d) = self.pushback.front() {
            return Some(d.clone());
        }
        if self.peeked.is_none() {
            self.peeked = self.trace.next();
            if self.peeked.is_none() {
                self.trace_done = true;
            }
        }
        self.peeked.clone()
    }

    // ------------------------------------------------------------------ front end

    fn tick_frontend(&mut self) {
        let now = self.fe_time_ps;
        self.fe_cycles += 1;
        self.fe_time_ps += self.fe_period_ps;
        match self.mode {
            Mode::Execution => {
                // Front end (including the Issue Window) is clock gated.
                self.energy.tick_frontend(true);
            }
            Mode::Creation => {
                self.energy.tick_frontend(false);
                self.dispatch(now);
                let queue_cap =
                    (self.cfg.base.front_end_stages * self.cfg.base.fetch_width) as usize;
                if self.fetch_blocked_on_branch.is_none()
                    && now >= self.fetch_resume_at_ps
                    && self.frontend_q.len() < queue_cap
                    && !self.trace_done
                {
                    // A fetch attempt always changes state: it inserts
                    // instructions, starts a line fill, or exhausts the trace.
                    self.tick_activity = true;
                    self.fetch(now);
                }
            }
        }
    }

    fn register_update_allowed(&self) -> bool {
        self.checkpoint_wait_retire_of.is_none() && self.be_cycles >= self.checkpoint_ready_cycle
    }

    fn dispatch(&mut self, now: u64) {
        if self.be_cycles < self.stalled_until_cycle || !self.register_update_allowed() {
            return;
        }
        let sync_ps = self.cfg.base.sync_latency_be_cycles as u64 * self.be_period_creation_ps;
        let mut dispatched = 0;
        while dispatched < self.cfg.base.dispatch_width {
            let Some(&seq) = self.frontend_q.front() else {
                break;
            };
            let (ready, op, stat, pc) = {
                let e = &self.inflight[seq];
                (e.dispatch_ready_ps <= now, e.d.stat.op(), e.d.stat, e.d.pc)
            };
            let is_mem = op.is_mem();
            if !ready
                || self.rob.len() >= self.cfg.base.rob_entries as usize
                || self.iw_len >= self.cfg.base.iw_entries as usize
                || (is_mem && self.lsq.len() >= self.cfg.base.lsq_entries as usize)
            {
                break;
            }
            // Everything past this point changes machine state: the EC lookup
            // charges tag energy, a failed pool rename counts a stall, and a
            // successful one dispatches.
            self.tick_activity = true;
            // Trace completion condition: if the current trace has grown to its
            // limit, look the next PC up in the EC before dispatching it — on a hit
            // the machine switches to the alternative execution path; on a miss the
            // finished trace is sealed into the EC and a new one starts here.
            if self.cfg.execution_cache && self.builder_dispatched >= self.cfg.ec.max_trace_insts {
                if self.try_switch_to_execution(pc, None) {
                    return;
                }
                self.store_current_trace();
            }
            let Some(rename) = self.pools.rename(&stat, &mut self.prf) else {
                break;
            };
            self.frontend_q.pop_front();
            {
                let entry = &mut self.inflight[seq];
                entry.rename = rename;
                entry.state = EntryState::Waiting;
                entry.visible_at_ps = now + sync_ps;
                entry.in_iw = true;
            }
            self.rob.push_back(seq);
            self.iw_len += 1;
            self.sched.on_dispatch(&mut self.inflight, seq, &self.prf);
            if is_mem {
                self.lsq.push_back(seq);
                if op == OpClass::Store {
                    self.stores.on_dispatch_store(seq);
                }
            }
            if self.builder.is_none() {
                self.builder = Some(TraceBuilder::new(pc));
                self.builder_start_seq = seq;
                self.builder_dispatched = 0;
            }
            self.builder_dispatched += 1;
            self.energy.record(Unit::Rename, 1);
            self.energy.record(Unit::RegisterUpdate, 1);
            self.energy.record(Unit::IssueWindowInsert, 1);
            self.energy.record(Unit::Rob, 1);
            dispatched += 1;
        }
    }

    fn fetch(&mut self, now: u64) {
        let Some(first) = self.peek_trace_inst() else {
            return;
        };
        let first_pc = first.pc;
        self.energy.record(Unit::ICache, 1);
        self.energy.record(Unit::BranchPredictor, 1);
        let outcome = self.hierarchy.fetch(first_pc.addr());
        if outcome != AccessOutcome::L1 {
            if outcome == AccessOutcome::Memory {
                self.energy.record(Unit::L2, 1);
            }
            self.fetch_resume_at_ps = now + self.hierarchy.extra_latency_ps(outcome);
            return;
        }
        let fetch_width = self.cfg.base.fetch_width as usize;
        let group_room = fetch_width - first_pc.fetch_group_offset(fetch_width);
        let dispatch_delay = self.cfg.base.front_end_stages as u64 * self.fe_period_ps;
        for _ in 0..group_room {
            let Some(d) = self.next_trace_inst() else {
                break;
            };
            let seq = d.seq;
            let correct = self.bpred.predict(&d);
            let redirects = d.redirects_fetch();
            self.energy.record(Unit::Decode, 1);
            self.inflight.insert(InflightEntry::new_frontend(
                d,
                now + dispatch_delay,
                !correct,
            ));
            self.frontend_q.push_back(seq);
            if !correct {
                self.fetch_blocked_on_branch = Some(seq);
                break;
            }
            if redirects {
                break;
            }
        }
    }

    // ------------------------------------------------------------------ back end

    fn tick_backend(&mut self) {
        self.maybe_retune_clock();
        let now = self.be_time_ps;
        let period = self.be_period();
        self.be_cycles += 1;
        self.be_time_ps += period;
        match self.mode {
            Mode::Creation => self.creation_mode_ps += period,
            Mode::Execution => self.exec_mode_ps += period,
        }
        self.energy.tick_backend();
        self.fus.begin_cycle();

        self.complete(now);
        self.retire();
        if self.be_cycles >= self.stalled_until_cycle {
            match self.mode {
                Mode::Creation => {
                    self.issue_creation(now);
                    if self.iw_len > 0 {
                        self.energy.record(Unit::IssueWindowWakeup, 1);
                        self.energy.record(Unit::IssueWindowSelect, 1);
                    }
                }
                Mode::Execution => {
                    // Instructions dispatched before the switch still drain through
                    // the Issue Window; the front end is only fully gated once it is
                    // empty.
                    if self.iw_len > 0 {
                        self.issue_creation(now);
                        self.energy.record(Unit::IssueWindowWakeup, 1);
                        self.energy.record(Unit::IssueWindowSelect, 1);
                    }
                    self.issue_execution();
                }
            }
        }
        self.maybe_redistribute();
    }

    /// DVFS governor evaluation, run at the top of every back-end tick (before
    /// the edge advances time, so a retuned period applies from this cycle on).
    ///
    /// The fast-forward bound in [`Self::next_event_ps`] never bulk-advances
    /// the back-end past `next_eval_cycle`, so the period stays constant across
    /// every bounded idle stretch — the invariant `be_cycle_time_ps` relies on.
    fn maybe_retune_clock(&mut self) {
        let Some(d) = &mut self.dvfs else { return };
        if self.be_cycles < d.next_eval_cycle {
            return;
        }
        d.next_eval_cycle = self.be_cycles + d.policy.interval_be_cycles;
        let exec = self.exec_mode_ps - d.last_exec_mode_ps;
        let creation = self.creation_mode_ps - d.last_creation_mode_ps;
        d.last_exec_mode_ps = self.exec_mode_ps;
        d.last_creation_mode_ps = self.creation_mode_ps;
        if exec + creation == 0 {
            return;
        }
        let residency = exec as f64 / (exec + creation) as f64;
        let p = d.policy;
        let new_pct = if residency >= p.hi_residency {
            d.current_pct
                .saturating_add(p.step_pct)
                .min(p.max_backend_pct)
        } else if residency <= p.lo_residency {
            d.current_pct
                .saturating_sub(p.step_pct)
                .max(p.min_backend_pct)
        } else {
            d.current_pct
        };
        if new_pct != d.current_pct {
            d.current_pct = new_pct;
            d.retunes += 1;
            // Same period derivation as `ClockPlan::with_speedups`, so a
            // governed plan settling on the starting speed-up reproduces the
            // static plan's period exactly.
            self.be_period_exec_ps =
                flywheel_timing::ClockPlan::with_speedups(self.cfg.base.node, 0, new_pct)
                    .backend_period_ps;
            // A clock change is machine activity: never fast-forward over it.
            self.tick_activity = true;
        }
    }

    fn maybe_redistribute(&mut self) {
        if self.be_cycles < self.next_redistribution_cycle
            || self.mode != Mode::Creation
            || !self.rob.is_empty()
        {
            return;
        }
        self.next_redistribution_cycle = self.be_cycles + self.cfg.pools.redistribution_interval;
        if self.pools.maybe_redistribute() {
            self.tick_activity = true;
            self.stalled_until_cycle = self.be_cycles + self.cfg.pools.redistribution_cost;
            self.ec.invalidate_all();
            // Renaming information stored in the current trace is obsolete too.
            self.builder = None;
        }
    }

    fn complete(&mut self, now: u64) {
        let cycle = self.be_cycles;
        // Drain the due completions; the per-cycle cost when nothing finishes
        // (the common case during a memory stall) is one bitmap test.
        self.finished_scratch.clear();
        self.completions
            .drain_due(cycle, &mut self.finished_scratch);
        if self.finished_scratch.is_empty() {
            return;
        }
        self.tick_activity = true;
        // Process in program order, as the original executing-list scan did.
        self.finished_scratch
            .sort_unstable_by_key(|&(at, seq)| (seq, at));
        for i in 0..self.finished_scratch.len() {
            let (at, seq) = self.finished_scratch[i];
            // An earlier completion in this very cycle may have squashed this
            // entry during mispredict recovery, and a squashed + re-issued
            // instruction (trace-replay hand-backs re-fetch the same sequence
            // numbers) leaves stale queue entries whose deadline no longer
            // matches the live schedule.
            let Some(e) = self.inflight.get_mut(seq) else {
                continue;
            };
            if e.state != EntryState::Issued || e.complete_at != at {
                continue;
            }
            e.state = EntryState::Completed;
            let (has_dst, mispredicted) = (e.rename.dst.is_some(), e.mispredicted);
            if has_dst {
                self.energy.record(Unit::RegFileWrite, 1);
            }
            self.energy.record(Unit::ResultBus, 1);
            if mispredicted && self.mode == Mode::Creation {
                self.handle_creation_mispredict(seq, now);
            }
        }
    }

    /// A mispredicted branch resolved in trace-creation mode: finish the trace being
    /// built, squash, and either restart the front end or switch to the Execution
    /// Cache path.
    fn handle_creation_mispredict(&mut self, branch_seq: u64, now: u64) {
        // Squash younger instructions (none exist when fetch stalls on the branch,
        // but keep the logic for robustness).
        while let Some(&tail) = self.rob.back() {
            if tail <= branch_seq {
                break;
            }
            self.rob.pop_back();
            let entry = self.inflight.remove(tail).expect("squashed entry exists");
            if entry.in_iw {
                self.iw_len -= 1;
            }
            self.pools.squash(&entry.rename);
            self.note_squashed(tail);
        }
        while let Some(&seq) = self.frontend_q.back() {
            if seq <= branch_seq {
                break;
            }
            self.frontend_q.pop_back();
            self.inflight.remove(seq);
            self.note_squashed(seq);
        }
        while self.lsq.back().is_some_and(|&s| s > branch_seq) {
            self.lsq.pop_back();
        }
        // Squashed executing instructions leave stale completion-queue entries;
        // `complete` validates them against the live table on pop.
        self.sched.squash_after(branch_seq);
        self.stores.squash_after(branch_seq);

        if self.fetch_blocked_on_branch == Some(branch_seq) {
            self.fetch_blocked_on_branch = None;
        }
        // The Rename Table checkpoint (FRT -> RT copy) cannot happen before the
        // mispredicted instruction retires.
        self.checkpoint_wait_retire_of = Some(branch_seq);

        // Store the trace built so far.
        self.store_current_trace();

        // Search the EC for a trace starting at the correct target.
        let target = self.inflight[branch_seq].d.next_pc;
        if self.cfg.execution_cache && self.try_switch_to_execution(target, Some(branch_seq)) {
            return;
        }
        // Miss: restart the front end at the correct target; a new trace starts with
        // the next dispatched instruction.
        let redirect_delay = self.fe_period_ps * (1 + self.cfg.base.redirect_sync_fe_cycles) as u64;
        self.fetch_resume_at_ps = self.fetch_resume_at_ps.max(now + redirect_delay);
        self.builder = None;
    }

    /// Counts a squashed instruction and clears any pipeline markers pointing at
    /// it. A younger mispredicted branch can be squashed by an older one
    /// resolving in the same cycle; leaving `fetch_blocked_on_branch` (or the
    /// FRT checkpoint) aimed at the dead instruction would stall the front end
    /// forever — the original HashMap kernel hit this as a "completing entry
    /// must exist" panic on long runs.
    fn note_squashed(&mut self, seq: u64) {
        self.squashed += 1;
        if self.fetch_blocked_on_branch == Some(seq) {
            self.fetch_blocked_on_branch = None;
        }
        if self.checkpoint_wait_retire_of == Some(seq) {
            self.checkpoint_wait_retire_of = None;
            self.checkpoint_ready_cycle = self.be_cycles + 1;
        }
    }

    fn store_current_trace(&mut self) {
        if let Some(builder) = self.builder.take() {
            if !builder.is_empty() && self.cfg.execution_cache {
                let trace = builder.finish();
                let blocks = self.ec.insert(trace);
                self.energy.record(Unit::EcDataWrite, blocks);
            }
        }
        self.builder_dispatched = 0;
    }

    /// Looks up `target` in the EC and, on a hit, switches to trace-execution mode.
    /// Any instructions still waiting in the front-end queue are handed back to the
    /// oracle stream (they will be replayed from the EC instead).
    fn try_switch_to_execution(&mut self, target: Pc, _after_branch: Option<u64>) -> bool {
        self.energy.record(Unit::EcTagLookup, 1);
        let Some(trace) = self.ec.lookup(target).cloned() else {
            return false;
        };
        self.store_current_trace();
        // Hand un-dispatched front-end instructions back to the oracle. The queue
        // is in program order, so popping from the back and pushing to the front
        // of the pushback queue preserves the stream order.
        while let Some(seq) = self.frontend_q.pop_back() {
            if let Some(entry) = self.inflight.remove(seq) {
                self.pushback.push_front(entry.d);
            }
        }
        self.fetch_blocked_on_branch = None;
        self.mode = Mode::Execution;
        self.trace_switches += 1;
        let ready_at_cycle = self.be_cycles + self.cfg.ec.hit_cycles as u64;
        self.replay = Some(Replay {
            trace,
            pulled: Vec::new(),
            diverged: false,
            next_idx: 0,
            ready_at_cycle,
            consumed: 0,
        });
        true
    }

    // -------------------------------------------------------- creation-mode issue

    fn issue_creation(&mut self, now: u64) {
        let cycle = self.be_cycles;
        let mut issued_count = 0;
        self.sched.begin_scan(&mut self.inflight, &self.prf, cycle);

        // Issue released entries (operands arrived) in program order; the
        // scan skips lanes whose head cannot issue this cycle.
        while issued_count < self.cfg.base.issue_width {
            let Some(seq) = self
                .sched
                .next_issue(&self.inflight, &self.fus, &self.stores, now)
            else {
                break;
            };
            let (op, srcs_len, mem_addr, pc, stat) = {
                let e = &self.inflight[seq];
                (
                    e.d.stat.op(),
                    e.rename.srcs.len(),
                    e.d.mem.map(|m| m.addr),
                    e.d.pc,
                    e.d.stat,
                )
            };
            assert!(self.fus.try_issue(op));
            let exec_cycles = self.execution_latency(seq, op, mem_addr, self.be_period_creation_ps);
            self.start_execution(seq, exec_cycles);
            self.iw_len -= 1;
            // Record the issued instruction into the trace being built.
            if self.cfg.execution_cache && seq >= self.builder_start_seq {
                if let Some(builder) = self.builder.as_mut() {
                    builder.record(seq, pc, stat);
                }
            }
            self.energy.record(Unit::RegFileRead, srcs_len as u64);
            self.energy.record(Self::fu_energy_unit(op), 1);
            if op.is_mem() {
                self.energy.record(Unit::Lsq, 1);
            }
            issued_count += 1;
        }
        if issued_count > 0 {
            self.tick_activity = true;
        }
        if let Some(builder) = self.builder.as_mut() {
            builder.close_unit();
        }
        self.sched.end_scan();
    }

    fn start_execution(&mut self, seq: u64, exec_cycles: u64) {
        let cycle = self.be_cycles;
        let wakeup_ready = cycle + exec_cycles;
        let complete_at = cycle + self.cfg.base.reg_read_cycles as u64 + exec_cycles;
        let (op, line) = {
            let e = &mut self.inflight[seq];
            e.state = EntryState::Issued;
            e.complete_at = complete_at;
            e.in_iw = false;
            if let Some(dst) = e.rename.dst {
                self.prf.mark_ready(dst, wakeup_ready);
                self.sched.on_issue(dst, wakeup_ready);
            }
            (e.d.stat.op(), e.d.mem.map(|m| m.addr & !63))
        };
        if op == OpClass::Store {
            self.stores
                .on_store_issue(seq, line.expect("stores carry an address"));
        }
        self.completions.push(complete_at, seq);
    }

    // -------------------------------------------------------- execution-mode issue

    fn issue_execution(&mut self) {
        let Some(mut replay) = self.replay.take() else {
            // Should not happen; fall back to creation mode.
            self.tick_activity = true;
            self.enter_creation_mode_at_next_oracle_pc();
            return;
        };

        // Pull oracle instructions that follow the recorded path.
        while !replay.diverged && replay.pulled.len() < replay.trace.len() {
            let expected_pc = replay.trace.insts[replay.pulled.len()].pc;
            match self.peek_trace_inst() {
                Some(d) if d.pc == expected_pc => {
                    let d = self.next_trace_inst().expect("peeked instruction exists");
                    // Retirement keeps sending branch-predictor updates even while
                    // the front end is gated, so the predictor stays coherent for
                    // the next trace-creation phase.
                    self.bpred.train(&d);
                    replay.pulled.push(d);
                    self.tick_activity = true;
                }
                Some(_) => {
                    replay.diverged = true;
                    self.trace_divergences += 1;
                    self.tick_activity = true;
                }
                None => break,
            }
        }

        let startup_done = self.be_cycles >= replay.ready_at_cycle;

        // Issue the next issue unit (in-order, VLIW-like).
        if startup_done && self.register_update_allowed() && replay.next_idx < replay.pulled.len() {
            let unit = replay.trace.insts[replay.next_idx].unit;
            // Full extent of the unit in the recorded trace.
            let mut unit_end = replay.next_idx;
            while unit_end < replay.trace.len() && replay.trace.insts[unit_end].unit == unit {
                unit_end += 1;
            }
            // Only instructions already verified against the actual stream can issue;
            // a partially verified unit waits unless the stream has diverged (the
            // unverified tail will never execute).
            let end = unit_end.min(replay.pulled.len());
            if end == unit_end || replay.diverged {
                let group = replay.next_idx..end;
                if !group.is_empty() && self.can_issue_replay_group(&replay, group.clone()) {
                    self.tick_activity = true;
                    for idx in group {
                        self.issue_replay_inst(&mut replay, idx);
                    }
                    replay.next_idx = end;
                } else if !group.is_empty() && self.rob.is_empty() && self.iw_len == 0 {
                    self.tick_activity = true;
                    // Safety valve: with nothing in flight the unit can only be
                    // blocked by state that will never change (e.g. a pool shrunk by
                    // a redistribution below what the recorded schedule assumed).
                    // Abandon the replay and rebuild the trace through the front end;
                    // instructions already verified but not yet issued go back to the
                    // oracle stream so the front end re-fetches them.
                    for d in replay.pulled[replay.next_idx..].iter().rev() {
                        self.pushback.push_front(d.clone());
                    }
                    self.ec.remove(replay.trace.start_pc);
                    self.replay = None;
                    self.checkpoint_ready_cycle = self.be_cycles + 1;
                    self.enter_creation_mode_at_next_oracle_pc();
                    return;
                }
            }
        }

        // Trace end conditions.
        let finished_all = replay.next_idx >= replay.trace.len();
        let finished_diverged = replay.diverged && replay.next_idx >= replay.pulled.len();
        if finished_all || finished_diverged {
            self.tick_activity = true;
            if replay.diverged {
                // The offending branch must retire before the next trace can pass
                // Register Update (FRT checkpoint).
                self.set_checkpoint_after(replay.pulled.last().map(|d| d.seq));
                // The recorded schedule no longer matches the program's behaviour;
                // drop it so the front end builds a fresh (longer) trace for this
                // path the next time it is reached.
                self.ec.remove(replay.trace.start_pc);
            } else if self.cfg.srt {
                // Natural trace end detected before Register Update: the SRT swap
                // costs a single cycle.
                self.checkpoint_ready_cycle = self.be_cycles + 1;
            } else {
                self.set_checkpoint_after(replay.pulled.last().map(|d| d.seq));
            }
            self.replay = None;
            self.next_trace_segment();
            return;
        }
        self.replay = Some(replay);
    }

    /// Blocks Register Update until `seq` retires; if it already left the machine,
    /// the checkpoint only costs the usual single cycle.
    fn set_checkpoint_after(&mut self, seq: Option<u64>) {
        match seq {
            Some(s) if self.inflight.contains(s) => {
                self.checkpoint_wait_retire_of = Some(s);
            }
            _ => self.checkpoint_ready_cycle = self.be_cycles + 1,
        }
    }

    fn can_issue_replay_group(&self, replay: &Replay, group: std::ops::Range<usize>) -> bool {
        if self.rob.len() + group.len() > self.cfg.base.rob_entries as usize {
            return false;
        }
        let mem_count = group
            .clone()
            .filter(|&i| replay.trace.insts[i].stat.op().is_mem())
            .count();
        if self.lsq.len() + mem_count > self.cfg.base.lsq_entries as usize {
            return false;
        }
        // Operand readiness: sources must be available (pre-scheduled VLIW-like
        // replay stalls on cache misses and long-latency producers). Destinations
        // must have a free entry in their register pool.
        for i in group {
            let stat = replay.trace.insts[i].stat;
            for src in stat.srcs() {
                let phys = self.pools.mapping(src);
                if !self.prf.is_ready(phys, self.be_cycles) {
                    return false;
                }
            }
            if let Some(dst) = stat.dst() {
                if !self.pools.can_allocate(dst) {
                    return false;
                }
            }
        }
        true
    }

    fn issue_replay_inst(&mut self, replay: &mut Replay, idx: usize) {
        let d = replay.pulled[idx].clone();
        let seq = d.seq;
        let op = d.stat.op();
        let mem_addr = d.mem.map(|m| m.addr);
        let rename = self
            .pools
            .rename(&d.stat, &mut self.prf)
            // Pool capacity cannot be exceeded during replay: the same allocation
            // pattern already succeeded during trace creation and the ROB bounds the
            // number of in-flight writes. If it does happen (after a redistribution
            // shrank a pool), fall back to reusing the current mapping.
            .unwrap_or_default();
        self.energy.record(Unit::RegisterUpdate, 1);
        self.energy
            .record(Unit::RegFileRead, d.stat.srcs().count() as u64);
        self.energy.record(Self::fu_energy_unit(op), 1);
        if op.is_mem() {
            self.energy.record(Unit::Lsq, 1);
        }
        // Data-array block accounting: one read per block of instructions consumed.
        if replay
            .consumed
            .is_multiple_of(self.cfg.ec.block_insts as u64)
        {
            self.energy.record(Unit::EcDataRead, 1);
        }
        replay.consumed += 1;

        self.inflight.insert(InflightEntry::new_replay(d, rename));
        self.rob.push_back(seq);
        if op.is_mem() {
            self.lsq.push_back(seq);
        }
        let exec_cycles = self.execution_latency(seq, op, mem_addr, self.be_period_exec_ps);
        self.start_execution(seq, exec_cycles);
    }

    /// After a trace ends, decide where execution continues: another trace from the
    /// EC, or the front end.
    fn next_trace_segment(&mut self) {
        let Some(next) = self.peek_trace_inst() else {
            self.mode = Mode::Creation;
            return;
        };
        if self.cfg.execution_cache {
            self.energy.record(Unit::EcTagLookup, 1);
            if let Some(trace) = self.ec.lookup(next.pc).cloned() {
                self.trace_switches += 1;
                // For natural trace-to-trace transitions the next look-up is started
                // ahead of time, so the data-array latency is hidden and only the
                // single-cycle SRT swap (already charged through
                // `checkpoint_ready_cycle`) is visible.
                let ready_at_cycle = self.be_cycles + 1;
                self.replay = Some(Replay {
                    trace,
                    pulled: Vec::new(),
                    diverged: false,
                    next_idx: 0,
                    ready_at_cycle,
                    consumed: 0,
                });
                self.mode = Mode::Execution;
                return;
            }
        }
        self.enter_creation_mode_at_next_oracle_pc();
    }

    fn enter_creation_mode_at_next_oracle_pc(&mut self) {
        self.mode = Mode::Creation;
        self.builder = None;
        self.builder_dispatched = 0;
        self.fetch_blocked_on_branch = None;
        // The front end needs a redirect-like restart before it can supply
        // instructions again.
        let redirect_delay = self.fe_period_ps * (1 + self.cfg.base.redirect_sync_fe_cycles) as u64;
        self.fetch_resume_at_ps = self.fetch_resume_at_ps.max(self.now_ps() + redirect_delay);
    }

    // ------------------------------------------------------------------ shared

    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.base.commit_width && self.retired < self.retire_limit {
            let Some(&head) = self.rob.front() else { break };
            if self.inflight[head].state != EntryState::Completed {
                break;
            }
            self.rob.pop_front();
            let entry = self.inflight.remove(head).expect("retiring entry exists");
            self.pools.commit(&entry.rename);
            let op = entry.d.stat.op();
            if op.is_mem() {
                // The ROB head is the oldest in-flight instruction, so a retiring
                // memory instruction is always the LSQ head.
                debug_assert_eq!(self.lsq.front(), Some(&head));
                self.lsq.pop_front();
                if op == OpClass::Store {
                    self.stores.on_store_retire(head);
                }
            }
            if self.checkpoint_wait_retire_of == Some(head) {
                // FRT -> RT copy can proceed on the next cycle.
                self.checkpoint_wait_retire_of = None;
                self.checkpoint_ready_cycle = self.be_cycles + 1;
            }
            self.energy.record(Unit::Retire, 1);
            self.retired += 1;
            self.last_progress_cycle = self.be_cycles;
            self.tick_activity = true;
            n += 1;
        }
    }

    fn fu_energy_unit(op: OpClass) -> Unit {
        match op {
            OpClass::IntMul | OpClass::IntDiv => Unit::FuIntMulDiv,
            OpClass::FpAdd => Unit::FuFpAdd,
            OpClass::FpMul | OpClass::FpDiv => Unit::FuFpMulDiv,
            _ => Unit::FuIntAlu,
        }
    }

    fn execution_latency(
        &mut self,
        seq: u64,
        op: OpClass,
        mem_addr: Option<u64>,
        be_period_ps: u64,
    ) -> u64 {
        let base = op.base_latency() as u64;
        match op {
            OpClass::Load => {
                let addr = mem_addr.expect("loads carry an address");
                if self.stores.forwards_to(seq, addr & !63) {
                    return base;
                }
                self.energy.record(Unit::DCache, 1);
                let outcome = self.hierarchy.data(addr);
                if outcome != AccessOutcome::L1 {
                    self.energy.record(Unit::L2, 1);
                }
                let extra_ps = self.hierarchy.extra_latency_ps(outcome);
                let extra_cycles = extra_ps.div_ceil(be_period_ps);
                base + self.cfg.base.l1_hit_cycles as u64 + extra_cycles
            }
            OpClass::Store => {
                self.energy.record(Unit::DCache, 1);
                let addr = mem_addr.expect("stores carry an address");
                let outcome = self.hierarchy.data(addr);
                if outcome != AccessOutcome::L1 {
                    self.energy.record(Unit::L2, 1);
                }
                base
            }
            _ => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_timing::TechNode;
    use flywheel_uarch::{BaselineConfig, BaselineSim};
    use flywheel_workloads::{Benchmark, TraceGenerator};

    fn run_flywheel(b: Benchmark, cfg: FlywheelConfig, budget: SimBudget) -> FlywheelResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        FlywheelSim::new(cfg, trace).run(budget)
    }

    fn run_baseline(b: Benchmark, budget: SimBudget) -> SimResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        BaselineSim::new(BaselineConfig::paper(TechNode::N130), trace).run(budget)
    }

    #[test]
    fn retires_the_requested_instruction_count() {
        let r = run_flywheel(
            Benchmark::Micro,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(1_000, 20_000),
        );
        assert_eq!(r.sim.instructions, 20_000);
        assert!(r.sim.elapsed_ps > 0);
    }

    #[test]
    fn execution_cache_path_is_used_most_of_the_time() {
        // The paper reports an average 88% residency on the alternative execution
        // path; loop-dominated benchmarks should comfortably exceed 50% even at the
        // small test scale.
        let r = run_flywheel(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(20_000, 60_000),
        );
        assert!(
            r.flywheel.ec_residency > 0.4,
            "EC residency {:.2} too low (switches {}, stored {}, hits {}/{})",
            r.flywheel.ec_residency,
            r.flywheel.trace_switches,
            r.flywheel.traces_stored,
            r.flywheel.ec_hits,
            r.flywheel.ec_lookups,
        );
        assert!(r.flywheel.traces_stored > 0);
        assert!(r.flywheel.trace_switches > 0);
        assert_eq!(
            r.sim.gated_frontend_fraction, r.flywheel.ec_residency,
            "residency must be reported consistently"
        );
    }

    #[test]
    fn disabling_the_ec_keeps_the_machine_in_creation_mode() {
        let r = run_flywheel(
            Benchmark::Gzip,
            FlywheelConfig::register_allocation_only(TechNode::N130),
            SimBudget::new(2_000, 20_000),
        );
        assert_eq!(r.flywheel.ec_residency, 0.0);
        assert_eq!(r.flywheel.traces_stored, 0);
        assert_eq!(r.sim.instructions, 20_000);
    }

    #[test]
    fn register_allocation_machine_is_slower_than_baseline() {
        // Figure 11: the Dual-Clock IW + pool renaming alone lose performance
        // against the baseline at the same clock (longer pipeline, rename stalls).
        let budget = SimBudget::new(5_000, 40_000);
        for bench in [Benchmark::Gzip, Benchmark::Parser] {
            let base = run_baseline(bench, budget);
            let regalloc = run_flywheel(
                bench,
                FlywheelConfig::register_allocation_only(TechNode::N130),
                budget,
            );
            let relative = base.elapsed_ps as f64 / regalloc.sim.elapsed_ps as f64;
            assert!(
                relative < 1.02,
                "{bench}: register-allocation machine should not beat the baseline ({relative:.3})"
            );
            // The paper reports >10% losses for the register-pressure benchmarks; the
            // synthetic stand-ins overshoot that somewhat at small scale, so only a
            // collapse (more than 2x) is treated as a failure.
            assert!(
                relative > 0.5,
                "{bench}: register-allocation machine should not collapse ({relative:.3})"
            );
            assert!(
                regalloc.flywheel.pool_stalls > 0,
                "{bench}: expected pool pressure"
            );
        }
    }

    #[test]
    fn faster_clocks_improve_flywheel_performance() {
        // Figure 12: raising the front-end and back-end clocks must increase
        // performance monotonically (roughly).
        let budget = SimBudget::new(10_000, 40_000);
        let iso = run_flywheel(
            Benchmark::Mesa,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let be50 = run_flywheel(
            Benchmark::Mesa,
            FlywheelConfig::paper(TechNode::N130, 0, 50),
            budget,
        );
        let fe50 = run_flywheel(
            Benchmark::Mesa,
            FlywheelConfig::paper(TechNode::N130, 50, 50),
            budget,
        );
        assert!(
            be50.sim.elapsed_ps < iso.sim.elapsed_ps,
            "BE+50% ({}) should beat iso-clock ({})",
            be50.sim.elapsed_ps,
            iso.sim.elapsed_ps
        );
        // A faster front end mostly helps by filling the Issue Window sooner; at
        // this small scale it may be offset by extra register-pool pressure, so a
        // modest tolerance is allowed.
        assert!(
            fe50.sim.elapsed_ps <= be50.sim.elapsed_ps * 110 / 100,
            "FE+50% should not cost more than 10% ({} vs {})",
            fe50.sim.elapsed_ps,
            be50.sim.elapsed_ps
        );
    }

    #[test]
    fn sped_up_flywheel_beats_the_baseline() {
        // The headline claim: with FE+50%/BE+50% the Flywheel machine is markedly
        // faster than the fully synchronous baseline.
        let budget = SimBudget::new(10_000, 50_000);
        let base = run_baseline(Benchmark::Ijpeg, budget);
        let iso = run_flywheel(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let fly = run_flywheel(
            Benchmark::Ijpeg,
            FlywheelConfig::paper(TechNode::N130, 50, 50),
            budget,
        );
        let speedup = fly.speedup_over(&base);
        // At the small test scale the reproduction undershoots the paper's 1.5x
        // (see EXPERIMENTS.md), but the sped-up Flywheel must stay competitive with
        // the baseline and clearly beat its own iso-clock configuration.
        assert!(
            speedup > 0.85,
            "expected a competitive result, got {speedup:.3} (residency {:.2})",
            fly.flywheel.ec_residency
        );
        assert!(
            fly.speedup_over(&iso.sim) > 1.1,
            "faster clocks must pay off: {:.3}",
            fly.speedup_over(&iso.sim)
        );
    }

    #[test]
    fn flywheel_saves_energy_through_front_end_gating() {
        // Figure 13: the Flywheel machine consumes less total energy than the
        // baseline because the front end is gated while replaying from the EC. At
        // the small unit-test scale the effect is evaluated at the baseline clock
        // where the residency is highest; EXPERIMENTS.md records the full sweep.
        let budget = SimBudget::new(10_000, 50_000);
        let base = run_baseline(Benchmark::Ijpeg, budget);
        let fly = run_flywheel(
            Benchmark::Ijpeg,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        let ratio = fly.energy_ratio_over(&base);
        assert!(
            ratio < 1.0,
            "expected energy savings, got ratio {ratio:.3} (residency {:.2})",
            fly.flywheel.ec_residency
        );
        assert!(
            ratio > 0.4,
            "savings should not be implausibly large ({ratio:.3})"
        );
        // The EC path spends energy on its own structures.
        assert!(fly.sim.energy.flywheel_pj > 0.0);
    }

    #[test]
    fn vortex_uses_the_front_end_more_than_loop_codes() {
        // The paper singles out vortex as the benchmark with the lowest EC
        // residency (~60%) because of its large instruction footprint.
        // The paper reports vortex as the benchmark with the lowest residency on the
        // alternative execution path (< 60%, against an 88% suite average), caused by
        // its large instruction footprint and call-dominated control flow.
        let budget = SimBudget::new(10_000, 40_000);
        let vortex = run_flywheel(
            Benchmark::Vortex,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        assert!(
            vortex.flywheel.ec_residency < 0.75,
            "vortex residency {:.2} should be on the low side",
            vortex.flywheel.ec_residency
        );
        assert!(
            vortex.flywheel.ec_residency > 0.1,
            "vortex should still use the EC path some of the time ({:.2})",
            vortex.flywheel.ec_residency
        );
    }

    #[test]
    fn trace_divergences_are_detected() {
        let r = run_flywheel(
            Benchmark::Parser,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            SimBudget::new(10_000, 40_000),
        );
        assert!(
            r.flywheel.trace_divergences > 0,
            "parser's irregular branches must cause replay divergences"
        );
    }

    #[test]
    fn dvfs_governor_retunes_and_beats_the_iso_clock_start() {
        // Starting at BE0 on a high-residency benchmark, the governor must
        // ratchet the trace-execution clock up and finish the measured run
        // faster than the static iso-clock machine, without touching committed
        // work.
        let budget = SimBudget::new(5_000, 40_000);
        let program = Benchmark::FlyBest.synthesize(42);
        let mut gov = FlywheelSim::new_dvfs(
            crate::DvfsConfig::paper(TechNode::N130, 0, 0),
            TraceGenerator::new(&program, 42),
        );
        let governed = gov.run(budget);
        assert!(gov.dvfs_retunes() > 0, "governor never retuned");
        let iso = run_flywheel(
            Benchmark::FlyBest,
            FlywheelConfig::paper_iso_clock(TechNode::N130),
            budget,
        );
        assert_eq!(governed.sim.instructions, iso.sim.instructions);
        assert!(
            governed.sim.elapsed_ps < iso.sim.elapsed_ps,
            "governed {} vs iso {}",
            governed.sim.elapsed_ps,
            iso.sim.elapsed_ps
        );
    }

    #[test]
    fn dvfs_runs_are_deterministic() {
        let budget = SimBudget::new(2_000, 10_000);
        let run = || {
            let program = Benchmark::Gzip.synthesize(42);
            FlywheelSim::new_dvfs(
                crate::DvfsConfig::paper(TechNode::N130, 50, 50),
                TraceGenerator::new(&program, 42),
            )
            .run(budget)
        };
        assert_eq!(run(), run());
    }
}
