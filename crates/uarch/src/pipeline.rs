//! The cycle-accurate baseline out-of-order pipeline.

use crate::bpred::GsharePredictor;
use crate::cache::{AccessOutcome, MemoryHierarchy};
use crate::config::{BaselineConfig, MultiDomainConfig};
use crate::fu::FunctionalUnits;
use crate::inflight::{
    Calendar, EntryState, InflightEntry, InflightTable, IssueScheduler, StoreIndex,
};
use crate::regs::{PhysRegFile, Renamer};
use crate::stats::{SimBudget, SimResult};
use flywheel_isa::{DynInst, OpClass};
use flywheel_power::{EnergyAccumulator, MachineKind, PowerModel, Unit};
use flywheel_timing::LsqDomainPlan;
use std::collections::VecDeque;

/// The baseline four-way superscalar, out-of-order machine of the paper (Table 2),
/// with the configuration knobs needed for the Figure 2 study and for the Dual-Clock
/// Issue Window front-end.
///
/// The simulator is trace driven: it consumes [`DynInst`]s from a
/// `flywheel_workloads::TraceGenerator`, a shared
/// `flywheel_workloads::RecordedTrace` cursor (the cheap option when many
/// configurations replay the same workload), or any other iterator; models fetch,
/// dispatch, wake-up/select, execution, memory and retirement cycle by cycle in two
/// clock domains (front-end and execution core); and reports performance plus a
/// Wattch-style energy breakdown.
///
/// The per-cycle hot loop is allocation-free and event-indexed: in-flight
/// instructions live in a slab-indexed [`InflightTable`]; issue visits only
/// entries whose operands have arrived, oldest first across the six per-port
/// lanes of the [`IssueScheduler`], and stops looking at a lane once its head
/// cannot issue this cycle for a reason every younger entry of the lane shares
/// (a full port, a head not yet visible across the dual-clock window, or a
/// load head behind an older unresolved store); executing instructions wait
/// in a [`Calendar`] keyed by completion cycle; load/store ordering
/// checks go through the [`StoreIndex`] instead of walking the LSQ; and
/// provably idle stretches (memory stalls) are fast-forwarded in bulk — all
/// bit-identical to single-stepped execution.
///
/// ```
/// use flywheel_uarch::{BaselineConfig, BaselineSim, SimBudget};
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// let budget = SimBudget::new(1_000, 5_000);
/// let program = Benchmark::Micro.synthesize(1);
/// // Capture the dynamic stream once; every configuration replays it through a
/// // zero-allocation cursor.
/// let trace = RecordedTrace::record(&program, 1, RecordedTrace::capture_len_for(budget.total()));
/// let mut sim = BaselineSim::new(BaselineConfig::paper_default(), trace.cursor());
/// let result = sim.run(budget);
/// assert_eq!(result.instructions, 5_000);
/// assert!(result.ipc() > 0.3);
/// ```
pub struct BaselineSim<I: Iterator<Item = DynInst>> {
    cfg: BaselineConfig,
    trace: I,
    peeked: Option<DynInst>,
    trace_done: bool,

    // Structures.
    hierarchy: MemoryHierarchy,
    bpred: GsharePredictor,
    renamer: Renamer,
    prf: PhysRegFile,
    fus: FunctionalUnits,

    // In-flight instruction bookkeeping.
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

    // Fetch state.
    fetch_blocked_on_branch: Option<u64>,
    fetch_resume_at_ps: u64,

    // Clocks (time of the *next* edge of each domain).
    fe_period_ps: u64,
    be_period_ps: u64,
    /// Optional third clock domain for the LSQ + D-cache pipeline (the
    /// multi-domain machine). `None` leaves the memory path fully synchronous
    /// with the execution core — bit-identical to the two-domain baseline.
    lsq_domain: Option<LsqDomainPlan>,
    fe_time_ps: u64,
    be_time_ps: u64,
    fe_cycles: u64,
    be_cycles: u64,

    // Energy.
    power_model: PowerModel,
    energy: EnergyAccumulator,

    // Counters.
    retired: u64,
    retire_limit: u64,
    squashed: u64,
    last_progress_cycle: u64,
    /// Whether the edge being processed changed any machine state (gates the
    /// idle fast-forward in [`Self::step`]).
    tick_activity: bool,

    // Measurement snapshot (set when warm-up ends).
    measure_start: Option<MeasureSnapshot>,
}

#[derive(Debug, Clone)]
struct MeasureSnapshot {
    retired: u64,
    squashed: u64,
    be_cycles: u64,
    fe_cycles: u64,
    time_ps: u64,
    bpred: crate::bpred::BpredStats,
    caches: crate::cache::HierarchyStats,
}

impl<I: Iterator<Item = DynInst>> BaselineSim<I> {
    /// Creates a simulator for `cfg` consuming instructions from `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BaselineConfig::validate`].
    pub fn new(cfg: BaselineConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let power_model = PowerModel::new(cfg.power_config());
        let fe_period_ps = cfg.clocks.frontend_period_ps;
        // The execution core of the baseline machine (and of the Flywheel machine in
        // trace-creation mode) is synchronous with the Issue Window.
        let be_period_ps = cfg.clocks.baseline_period_ps;
        let inflight_capacity =
            (cfg.rob_entries + cfg.front_end_stages * cfg.fetch_width + cfg.fetch_width) as usize;
        BaselineSim {
            hierarchy: MemoryHierarchy::new(&cfg),
            bpred: GsharePredictor::new(cfg.bpred),
            renamer: Renamer::new(cfg.phys_regs),
            prf: PhysRegFile::new(cfg.phys_regs),
            fus: FunctionalUnits::new(cfg.fus),
            inflight: InflightTable::with_capacity(inflight_capacity),
            frontend_q: VecDeque::new(),
            rob: VecDeque::new(),
            iw_len: 0,
            lsq: VecDeque::new(),
            completions: Calendar::new(),
            sched: IssueScheduler::new(
                cfg.phys_regs as usize,
                if cfg.pipelined_wakeup { 1 } else { 0 },
            ),
            stores: StoreIndex::new(),
            finished_scratch: Vec::new(),
            fetch_blocked_on_branch: None,
            fetch_resume_at_ps: 0,
            fe_period_ps,
            be_period_ps,
            lsq_domain: None,
            fe_time_ps: fe_period_ps,
            be_time_ps: be_period_ps,
            fe_cycles: 0,
            be_cycles: 0,
            power_model,
            energy: EnergyAccumulator::new(MachineKind::Baseline),
            retired: 0,
            retire_limit: u64::MAX,
            squashed: 0,
            last_progress_cycle: 0,
            tick_activity: false,
            measure_start: None,
            peeked: None,
            trace_done: false,
            trace,
            cfg,
        }
    }

    /// Creates a multi-domain simulator: the baseline machine of `cfg.base`
    /// with the LSQ + D-cache pipeline in its own clock domain.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MultiDomainConfig::validate`].
    pub fn new_multi_domain(cfg: MultiDomainConfig, trace: I) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        let mut sim = BaselineSim::new(cfg.base, trace);
        sim.lsq_domain = Some(cfg.lsq);
        sim
    }

    /// The configuration of this machine.
    pub fn config(&self) -> &BaselineConfig {
        &self.cfg
    }

    /// Runs the simulation for the given budget and returns the measured result.
    pub fn run(&mut self, budget: SimBudget) -> SimResult {
        let warm_target = budget.warmup_instructions;
        let total_target = budget.total();
        // Cap retirement at the warm-up boundary first so that measurement starts at
        // an exact instruction count, then at the total budget.
        self.retire_limit = warm_target.max(1);
        let mut watchdog = crate::watchdog::armed();
        let mut telemetry = crate::telemetry::armed();
        while self.retired < total_target && !(self.trace_done && self.inflight.is_empty()) {
            if self.measure_start.is_none() && self.retired >= warm_target {
                self.begin_measurement();
                self.retire_limit = total_target;
            }
            self.step();
            self.check_progress();
            if let Some(wd) = watchdog.as_mut() {
                wd.poll(self.be_cycles);
            }
            if let Some(t) = telemetry.as_mut() {
                t.sample_occupancy(
                    self.be_cycles,
                    self.iw_len,
                    self.rob.len(),
                    self.frontend_q.len(),
                    self.lsq.len(),
                );
            }
        }
        if self.measure_start.is_none() {
            self.begin_measurement();
        }
        self.finish()
    }

    /// Advances the machine by one clock edge (whichever domain fires next).
    ///
    /// After a fully idle edge the machine fast-forwards: it computes the
    /// earliest future time at which any state can change (next completion,
    /// operand arrival, front-end wake-up) and bulk-advances both clock domains
    /// over the provably idle edges in between, so memory-stall cycles cost a
    /// few event-queue peeks instead of a full tick each.
    fn step(&mut self) {
        self.tick_activity = false;
        if self.be_time_ps <= self.fe_time_ps {
            self.tick_backend();
        } else {
            self.tick_frontend();
        }
        if !self.tick_activity {
            self.fast_forward();
        }
    }

    /// The back-end edge time at which cycle `c` executes (the edge at
    /// `be_time_ps` runs cycle `be_cycles + 1`).
    fn be_cycle_time_ps(&self, c: u64) -> u64 {
        if c <= self.be_cycles + 1 {
            self.be_time_ps
        } else {
            self.be_time_ps
                .saturating_add((c - self.be_cycles - 1).saturating_mul(self.be_period_ps))
        }
    }

    /// The first back-end edge at or after time `ps`.
    fn be_edge_at_or_after(&self, ps: u64) -> u64 {
        if ps <= self.be_time_ps {
            self.be_time_ps
        } else {
            self.be_time_ps + (ps - self.be_time_ps).div_ceil(self.be_period_ps) * self.be_period_ps
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
    /// single-steps as before).
    ///
    /// Every state change of an idle machine is driven by one of: a scheduled
    /// completion, a woken instruction's operand arrival, a dispatched
    /// instruction leaving the front-end pipeline, or fetch resuming after a
    /// miss/redirect. Chains bottom out in one of those (a parked consumer's
    /// producer is issued or itself parked; a blocked load's store is dispatched
    /// or woken), so the minimum below can only fire early — never late —
    /// which keeps fast-forwarding bit-identical to single-stepped execution.
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
        // Dispatch of the front-end queue head.
        if let Some(&head) = self.frontend_q.front() {
            let e = &self.inflight[head];
            if e.dispatch_ready_ps > self.fe_time_ps {
                t = t.min(self.fe_edge_at_or_after(e.dispatch_ready_ps));
            } else {
                // Ready now: it dispatches at the next front-end edge unless
                // provably blocked on a back-end structure whose release is
                // covered by the back-end events above.
                let is_mem = e.d.stat.op().is_mem();
                let blocked = self.rob.len() >= self.cfg.rob_entries as usize
                    || self.iw_len >= self.cfg.iw_entries as usize
                    || (is_mem && self.lsq.len() >= self.cfg.lsq_entries as usize)
                    || (e.d.stat.dst().is_some() && self.renamer.free_regs() == 0);
                if !blocked {
                    t = t.min(self.fe_time_ps);
                }
            }
        }
        // Fetch resuming (after an I-cache fill or a mispredict redirect).
        let queue_cap = (self.cfg.front_end_stages * self.cfg.fetch_width) as usize;
        if self.fetch_blocked_on_branch.is_none()
            && !self.trace_done
            && self.frontend_q.len() < queue_cap
        {
            t = t.min(self.fe_edge_at_or_after(self.fetch_resume_at_ps));
        }
        // Never jump past the no-progress watchdog's firing point.
        t = t.min(self.be_cycle_time_ps(self.last_progress_cycle + 500_001));
        (t != u64::MAX).then_some(t)
    }

    /// Bulk-advances both clock domains over the edges strictly before the next
    /// possible event, charging exactly the per-cycle bookkeeping those idle
    /// edges would have performed.
    fn fast_forward(&mut self) {
        let Some(t) = self.next_event_ps() else {
            return;
        };
        if self.fe_time_ps < t {
            let k = (t - 1 - self.fe_time_ps) / self.fe_period_ps + 1;
            self.fe_cycles += k;
            self.fe_time_ps += k * self.fe_period_ps;
            self.energy.tick_frontend_n(false, k);
        }
        if self.be_time_ps < t {
            let k = (t - 1 - self.be_time_ps) / self.be_period_ps + 1;
            self.be_cycles += k;
            self.be_time_ps += k * self.be_period_ps;
            self.energy.tick_backend_n(k);
            if self.iw_len > 0 {
                self.energy.record(Unit::IssueWindowWakeup, k);
                self.energy.record(Unit::IssueWindowSelect, k);
            }
        }
    }

    fn check_progress(&mut self) {
        if self.be_cycles - self.last_progress_cycle > 500_000 {
            panic!(
                "no retirement progress for 500k cycles (retired {}, rob {}, iw {}, frontend {}); \
                 this indicates a simulator bug",
                self.retired,
                self.rob.len(),
                self.iw_len,
                self.frontend_q.len()
            );
        }
    }

    fn begin_measurement(&mut self) {
        self.energy = EnergyAccumulator::new(MachineKind::Baseline);
        self.measure_start = Some(MeasureSnapshot {
            retired: self.retired,
            squashed: self.squashed,
            be_cycles: self.be_cycles,
            fe_cycles: self.fe_cycles,
            time_ps: self.now_ps(),
            bpred: self.bpred.stats(),
            caches: self.hierarchy.stats(),
        });
    }

    fn now_ps(&self) -> u64 {
        // Time of the most recent edge processed in either domain.
        (self.be_time_ps - self.be_period_ps).max(self.fe_time_ps - self.fe_period_ps)
    }

    fn finish(&mut self) -> SimResult {
        let start = self
            .measure_start
            .clone()
            .expect("measurement must have started");
        let elapsed_ps = self.now_ps().saturating_sub(start.time_ps).max(1);
        let bp = self.bpred.stats();
        let ch = self.hierarchy.stats();
        let bpred = crate::bpred::BpredStats {
            cond_predictions: bp.cond_predictions - start.bpred.cond_predictions,
            cond_mispredicts: bp.cond_mispredicts - start.bpred.cond_mispredicts,
            target_mispredicts: bp.target_mispredicts - start.bpred.target_mispredicts,
            total_ctrl: bp.total_ctrl - start.bpred.total_ctrl,
        };
        let caches = crate::cache::HierarchyStats {
            l1i: (ch.l1i.0 - start.caches.l1i.0, ch.l1i.1 - start.caches.l1i.1),
            l1d: (ch.l1d.0 - start.caches.l1d.0, ch.l1d.1 - start.caches.l1d.1),
            l2: (ch.l2.0 - start.caches.l2.0, ch.l2.1 - start.caches.l2.1),
        };
        let energy = self.energy.finish(&self.power_model, elapsed_ps);
        SimResult {
            instructions: self.retired - start.retired,
            be_cycles: self.be_cycles - start.be_cycles,
            fe_cycles: self.fe_cycles - start.fe_cycles,
            elapsed_ps,
            squashed: self.squashed - start.squashed,
            bpred,
            caches,
            energy,
            gated_frontend_fraction: 0.0,
        }
    }

    // ------------------------------------------------------------------ front end

    fn tick_frontend(&mut self) {
        let now = self.fe_time_ps;
        self.fe_cycles += 1;
        self.fe_time_ps += self.fe_period_ps;
        self.energy.tick_frontend(false);

        self.dispatch(now);

        let queue_cap = (self.cfg.front_end_stages * self.cfg.fetch_width) as usize;
        if self.fetch_blocked_on_branch.is_none()
            && now >= self.fetch_resume_at_ps
            && self.frontend_q.len() < queue_cap
            && !self.trace_done
        {
            // A fetch attempt always changes state: it inserts instructions,
            // starts a line fill, or exhausts the trace.
            self.tick_activity = true;
            self.fetch(now);
        }
    }

    fn dispatch(&mut self, now: u64) {
        let sync_ps = self.cfg.sync_latency_be_cycles as u64 * self.be_period_ps;
        let mut dispatched = 0;
        while dispatched < self.cfg.dispatch_width {
            let Some(&seq) = self.frontend_q.front() else {
                break;
            };
            let (ready, op, stat) = {
                let e = &self.inflight[seq];
                (e.dispatch_ready_ps <= now, e.d.stat.op(), e.d.stat)
            };
            let is_mem = op.is_mem();
            if !ready
                || self.rob.len() >= self.cfg.rob_entries as usize
                || self.iw_len >= self.cfg.iw_entries as usize
                || (is_mem && self.lsq.len() >= self.cfg.lsq_entries as usize)
            {
                break;
            }
            let Some(rename) = self.renamer.rename(&stat, &mut self.prf) else {
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
            self.energy.record(Unit::Rename, 1);
            self.energy.record(Unit::IssueWindowInsert, 1);
            self.energy.record(Unit::Rob, 1);
            dispatched += 1;
            self.tick_activity = true;
        }
    }

    fn next_trace_inst(&mut self) -> Option<DynInst> {
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

    fn peek_trace_inst(&mut self) -> Option<&DynInst> {
        if self.peeked.is_none() {
            self.peeked = self.trace.next();
            if self.peeked.is_none() {
                self.trace_done = true;
            }
        }
        self.peeked.as_ref()
    }

    fn fetch(&mut self, now: u64) {
        let Some(first_pc) = self.peek_trace_inst().map(|d| d.pc) else {
            return;
        };

        // I-cache access for the fetch group.
        self.energy.record(Unit::ICache, 1);
        self.energy.record(Unit::BranchPredictor, 1);
        let outcome = self.hierarchy.fetch(first_pc.addr());
        if outcome != AccessOutcome::L1 {
            if outcome == AccessOutcome::Memory {
                self.energy.record(Unit::L2, 1);
            }
            // The line is being filled; fetch retries once it arrives.
            self.fetch_resume_at_ps = now + self.hierarchy.extra_latency_ps(outcome);
            return;
        }

        let fetch_width = self.cfg.fetch_width as usize;
        let group_room = fetch_width - first_pc.fetch_group_offset(fetch_width);
        let dispatch_delay = self.cfg.front_end_stages as u64 * self.fe_period_ps;

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
                // Wrong-path fetch is not modelled: fetch stalls until the branch
                // resolves and redirects the front end.
                self.fetch_blocked_on_branch = Some(seq);
                break;
            }
            if redirects {
                // Correctly predicted taken control transfer ends the fetch group;
                // fetch continues at the target next cycle.
                break;
            }
        }
    }

    // ------------------------------------------------------------------ back end

    fn tick_backend(&mut self) {
        let now = self.be_time_ps;
        self.be_cycles += 1;
        self.be_time_ps += self.be_period_ps;
        self.energy.tick_backend();
        self.fus.begin_cycle();

        self.complete(now);
        self.retire();
        self.issue(now);

        if self.iw_len > 0 {
            self.energy.record(Unit::IssueWindowWakeup, 1);
            self.energy.record(Unit::IssueWindowSelect, 1);
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
            // instruction leaves stale queue entries whose deadline no longer
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
            if mispredicted {
                self.recover_from(seq, now);
            }
        }
    }

    /// Mispredict recovery: squash everything younger than `branch_seq`, restore the
    /// rename map and redirect fetch.
    fn recover_from(&mut self, branch_seq: u64, now: u64) {
        // Squash younger instructions in reverse program order.
        while let Some(&tail) = self.rob.back() {
            if tail <= branch_seq {
                break;
            }
            self.rob.pop_back();
            let entry = self
                .inflight
                .remove(tail)
                .expect("squashed entry must exist");
            if entry.in_iw {
                self.iw_len -= 1;
            }
            self.renamer.squash(&entry.rename);
            self.squashed += 1;
        }
        // Anything still in the front-end queue is younger than the branch by
        // construction (fetch stopped at the mispredicted branch).
        while let Some(&seq) = self.frontend_q.back() {
            if seq <= branch_seq {
                break;
            }
            self.frontend_q.pop_back();
            self.inflight.remove(seq);
            self.squashed += 1;
            // A squashed instruction can itself be the branch fetch is blocked
            // on; the resolving branch redirects fetch anyway.
            if self.fetch_blocked_on_branch == Some(seq) {
                self.fetch_blocked_on_branch = None;
            }
        }
        while self.lsq.back().is_some_and(|&s| s > branch_seq) {
            self.lsq.pop_back();
        }
        // Squashed executing instructions leave stale completion-queue entries;
        // `complete` validates them against the live table on pop.
        self.sched.squash_after(branch_seq);
        self.stores.squash_after(branch_seq);

        // Redirect fetch: the new PC reaches the fetch stage one front-end cycle
        // later, plus the mixed-clock FIFO latency when the domains differ.
        if self.fetch_blocked_on_branch == Some(branch_seq) {
            self.fetch_blocked_on_branch = None;
        }
        let redirect_delay = self.fe_period_ps * (1 + self.cfg.redirect_sync_fe_cycles) as u64;
        self.fetch_resume_at_ps = self.fetch_resume_at_ps.max(now + redirect_delay);
    }

    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.commit_width && self.retired < self.retire_limit {
            let Some(&head) = self.rob.front() else { break };
            if self.inflight[head].state != EntryState::Completed {
                break;
            }
            self.rob.pop_front();
            let entry = self
                .inflight
                .remove(head)
                .expect("retiring entry must exist");
            self.renamer.commit(&entry.rename);
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
            self.energy.record(Unit::Retire, 1);
            self.retired += 1;
            self.last_progress_cycle = self.be_cycles;
            self.tick_activity = true;
            n += 1;
        }
    }

    fn issue(&mut self, now: u64) {
        let cycle = self.be_cycles;
        let mut issued_count = 0;
        self.sched.begin_scan(&mut self.inflight, &self.prf, cycle);

        // Issue released entries (operands arrived) in program order; the
        // scan skips lanes whose head cannot issue this cycle.
        while issued_count < self.cfg.issue_width {
            let Some(seq) = self
                .sched
                .next_issue(&self.inflight, &self.fus, &self.stores, now)
            else {
                break;
            };
            let (op, srcs_len, mem_addr) = {
                let e = &self.inflight[seq];
                (e.d.stat.op(), e.rename.srcs.len(), e.d.mem.map(|m| m.addr))
            };
            assert!(self.fus.try_issue(op));
            let exec_cycles = self.execution_latency(seq, op, mem_addr);
            let wakeup_ready = cycle + exec_cycles;
            let complete_at = cycle + self.cfg.reg_read_cycles as u64 + exec_cycles;
            {
                let e = &mut self.inflight[seq];
                e.state = EntryState::Issued;
                e.complete_at = complete_at;
                e.in_iw = false;
                if let Some(dst) = e.rename.dst {
                    self.prf.mark_ready(dst, wakeup_ready);
                    self.sched.on_issue(dst, wakeup_ready);
                }
            }
            self.completions.push(complete_at, seq);
            self.iw_len -= 1;
            self.energy.record(Unit::RegFileRead, srcs_len as u64);
            self.energy.record(self.fu_energy_unit(op), 1);
            if op.is_mem() {
                self.energy.record(Unit::Lsq, 1);
                if op == OpClass::Store {
                    let addr = mem_addr.expect("stores carry an address");
                    self.stores.on_store_issue(seq, addr & !63);
                }
            }
            issued_count += 1;
        }
        if issued_count > 0 {
            self.tick_activity = true;
        }
        self.sched.end_scan();
    }

    fn fu_energy_unit(&self, op: OpClass) -> Unit {
        match op {
            OpClass::IntMul | OpClass::IntDiv => Unit::FuIntMulDiv,
            OpClass::FpAdd => Unit::FuFpAdd,
            OpClass::FpMul | OpClass::FpDiv => Unit::FuFpMulDiv,
            _ => Unit::FuIntAlu,
        }
    }

    /// Execution latency in back-end cycles for an instruction issued this cycle.
    fn execution_latency(&mut self, seq: u64, op: OpClass, mem_addr: Option<u64>) -> u64 {
        let base = op.base_latency() as u64;
        match op {
            OpClass::Load => {
                let addr = mem_addr.expect("loads carry an address");
                if self.stores.forwards_to(seq, addr & !63) {
                    // Store-to-load forwarding inside the LSQ. When the LSQ is
                    // its own clock domain the load still pays the crossing
                    // into the queue and back.
                    return match self.lsq_domain {
                        Some(d) => base + 2 * d.sync_cycles as u64,
                        None => base,
                    };
                }
                self.energy.record(Unit::DCache, 1);
                let outcome = self.hierarchy.data(addr);
                if outcome != AccessOutcome::L1 {
                    self.energy.record(Unit::L2, 1);
                }
                let extra_ps = self.hierarchy.extra_latency_ps(outcome);
                match self.lsq_domain {
                    // Multi-domain machine: the L1 access pipeline runs in the
                    // faster LSQ/D-cache domain, the L2/memory portion is
                    // wall-clock constant, and the total is quantized back to
                    // the execution-core clock after a synchronizer crossing in
                    // each direction.
                    Some(d) => {
                        let lsq_ps = self.cfg.l1_hit_cycles as u64 * d.period_ps + extra_ps;
                        base + 2 * d.sync_cycles as u64 + lsq_ps.div_ceil(self.be_period_ps)
                    }
                    None => {
                        let extra_cycles = extra_ps.div_ceil(self.be_period_ps);
                        base + self.cfg.l1_hit_cycles as u64 + extra_cycles
                    }
                }
            }
            OpClass::Store => {
                // The store's data is written at retirement; the D-cache access is
                // charged here for energy purposes and the latency only covers
                // address generation.
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
    use crate::stats::SimBudget;
    use flywheel_workloads::{Benchmark, TraceGenerator};

    fn run_benchmark(b: Benchmark, cfg: BaselineConfig, budget: SimBudget) -> SimResult {
        let program = b.synthesize(42);
        let trace = TraceGenerator::new(&program, 42);
        BaselineSim::new(cfg, trace).run(budget)
    }

    #[test]
    fn retires_the_requested_instruction_count() {
        let r = run_benchmark(
            Benchmark::Micro,
            BaselineConfig::paper_default(),
            SimBudget::new(1_000, 20_000),
        );
        assert_eq!(r.instructions, 20_000);
        assert!(r.be_cycles > 0 && r.fe_cycles > 0);
        assert!(r.elapsed_ps > 0);
    }

    #[test]
    fn multi_domain_machine_runs_and_diverges_from_the_baseline() {
        use flywheel_timing::TechNode;
        let budget = SimBudget::new(1_000, 20_000);
        let program = Benchmark::PtrChase.synthesize(42);
        let base = BaselineSim::new(
            BaselineConfig::paper_default(),
            TraceGenerator::new(&program, 42),
        )
        .run(budget);
        let multi = BaselineSim::new_multi_domain(
            MultiDomainConfig::paper(TechNode::N130),
            TraceGenerator::new(&program, 42),
        )
        .run(budget);
        // Same committed work, different load timing: the LSQ domain must
        // change the cycle count without touching architectural progress.
        assert_eq!(multi.instructions, base.instructions);
        assert_ne!(multi.be_cycles, base.be_cycles);
        assert!(multi.elapsed_ps > 0);
    }

    #[test]
    fn ipc_is_plausible_for_a_four_wide_machine() {
        let r = run_benchmark(
            Benchmark::Ijpeg,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        let ipc = r.ipc();
        assert!(
            (0.4..4.0).contains(&ipc),
            "IPC {ipc} outside plausible range for the baseline"
        );
    }

    #[test]
    fn extra_frontend_stage_hurts_performance_slightly() {
        let budget = SimBudget::new(5_000, 40_000);
        let base = run_benchmark(Benchmark::Gzip, BaselineConfig::paper_default(), budget);
        let deeper = run_benchmark(
            Benchmark::Gzip,
            BaselineConfig::paper_default().with_extra_frontend_stage(),
            budget,
        );
        let slowdown = deeper.elapsed_ps as f64 / base.elapsed_ps as f64;
        assert!(
            slowdown > 0.999,
            "an extra front-end stage should not speed the machine up ({slowdown})"
        );
        assert!(slowdown < 1.25, "penalty should be moderate ({slowdown})");
    }

    #[test]
    fn pipelined_wakeup_hurts_more_than_extra_fetch_stage() {
        // This is the core claim of Figure 2.
        let budget = SimBudget::new(5_000, 40_000);
        for bench in [Benchmark::Gzip, Benchmark::Parser] {
            let base = run_benchmark(bench, BaselineConfig::paper_default(), budget);
            let deeper = run_benchmark(
                bench,
                BaselineConfig::paper_default().with_extra_frontend_stage(),
                budget,
            );
            let piped = run_benchmark(
                bench,
                BaselineConfig::paper_default().with_pipelined_wakeup(),
                budget,
            );
            let fetch_penalty = deeper.elapsed_ps as f64 / base.elapsed_ps as f64 - 1.0;
            let wakeup_penalty = piped.elapsed_ps as f64 / base.elapsed_ps as f64 - 1.0;
            assert!(
                wakeup_penalty > fetch_penalty,
                "{bench}: wake-up/select pipelining ({wakeup_penalty:.3}) should cost more than \
                 an extra fetch stage ({fetch_penalty:.3})"
            );
            assert!(
                wakeup_penalty > 0.05,
                "{bench}: pipelining wake-up/select should cost several percent ({wakeup_penalty:.3})"
            );
        }
    }

    #[test]
    fn branch_mispredicts_and_cache_misses_are_observed() {
        let r = run_benchmark(
            Benchmark::Parser,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        assert!(r.bpred.total_ctrl > 0);
        assert!(
            r.bpred.cond_mispredicts > 0,
            "parser should mispredict sometimes"
        );
        assert!(r.bpred.cond_mispredict_rate() < 0.5);
        assert!(r.caches.l1d.0 > 0);
        // Wrong-path fetch is not modelled (fetch stalls at a mispredicted branch),
        // so mispredict recovery never finds younger instructions to squash.
        assert_eq!(r.squashed, 0);
    }

    #[test]
    fn energy_breakdown_is_populated() {
        let r = run_benchmark(
            Benchmark::Micro,
            BaselineConfig::paper_default(),
            SimBudget::test(),
        );
        assert!(r.energy.frontend_pj > 0.0);
        assert!(r.energy.backend_pj > 0.0);
        assert!(r.energy.clock_pj > 0.0);
        assert!(r.energy.leakage_pj() > 0.0);
        assert_eq!(r.energy.flywheel_pj, 0.0, "baseline has no Execution Cache");
        assert_eq!(
            r.energy.leakage_flywheel_pj, 0.0,
            "baseline must not be charged Execution-Cache/Register-Update leakage"
        );
        assert!(r.average_power_w() > 0.1 && r.average_power_w() < 100.0);
    }

    #[test]
    fn dual_clock_frontend_does_not_break_correctness() {
        let budget = SimBudget::new(2_000, 20_000);
        let r = run_benchmark(
            Benchmark::Gcc,
            BaselineConfig::paper_default().with_dual_clock_frontend(50),
            budget,
        );
        assert_eq!(r.instructions, 20_000);
        // The faster front-end produces more front-end cycles than back-end cycles
        // over the same wall-clock interval.
        assert!(r.fe_cycles > r.be_cycles);
    }

    #[test]
    fn memory_bound_benchmark_is_slower_than_cache_friendly_one() {
        let budget = SimBudget::new(5_000, 30_000);
        let friendly = run_benchmark(Benchmark::Ijpeg, BaselineConfig::paper_default(), budget);
        let bound = run_benchmark(Benchmark::Equake, BaselineConfig::paper_default(), budget);
        assert!(
            bound.ipc() < friendly.ipc() * 1.2,
            "equake should not be dramatically faster"
        );
        assert!(
            bound.caches.l1d.1 as f64 / bound.caches.l1d.0 as f64
                > friendly.caches.l1d.1 as f64 / friendly.caches.l1d.0 as f64,
            "equake should miss more in the D-cache"
        );
    }
}
