//! Slab/ring-indexed in-flight instruction bookkeeping shared by both simulator
//! kernels.
//!
//! The hot loop of a cycle-accurate simulator touches its in-flight instructions
//! many times per cycle. The original kernels kept them in a
//! `HashMap<u64, Entry>` and rescanned whole structures every cycle; this module
//! replaces that with dense, allocation-free structures:
//!
//! * [`InflightTable`] — a ring of entries addressed by sequence number. All
//!   in-flight sequence numbers fall inside a window bounded by the ROB and the
//!   front-end queue, so `seq & mask` is a perfect slot index and every lookup is
//!   one array access instead of a hash probe.
//! * [`Calendar`] — the one timed queue of both kernels: a 256-slot timing
//!   wheel indexed by an occupancy bitmap, with a heap only for events 256 or
//!   more cycles ahead. It holds instruction completions and operand
//!   arrivals, and a cycle with nothing due costs a bitmap test.
//! * [`IssueScheduler`] — a wakeup network plus six per-port issue lanes.
//!   Instructions whose sources are still in flight park as waiters on those
//!   physical registers; when a value arrives (an event on the scheduler's
//!   arrival calendar), its waiters are counted off and each fully woken
//!   consumer enters the lane of its port class (loads, stores, integer
//!   ALU/control, integer multiply/divide, FP add, FP multiply/divide), each
//!   sorted by sequence number. The issue scan repeatedly takes the oldest
//!   head across the open lanes and closes a lane for the rest of the cycle
//!   when its head cannot issue for a reason shared by every younger entry of
//!   the lane: a full port, a head not yet visible across the dual-clock
//!   window, or a load head behind an older unresolved store. Store-blocked
//!   loads and port-starved entries therefore cost one look per cycle, not one
//!   per entry.
//! * [`StoreIndex`] — the earliest unresolved (not yet address-resolved) store
//!   and the set of resolved stores still in the LSQ, so the "is this load
//!   blocked by an older store" and store-to-load forwarding checks no longer
//!   walk the whole LSQ per load.
//!
//! The structures are deliberately policy-free: all scheduling decisions stay in
//! the pipeline drivers (`flywheel-uarch`'s baseline and `flywheel-core`'s
//! Flywheel machine), which keeps the refactor bit-identical with the original
//! HashMap-based kernels (verified with the `golden` binary in
//! `flywheel-bench`).

use crate::fu::FunctionalUnits;
use crate::regs::{PhysReg, PhysRegFile, RenameOutcome};
use flywheel_isa::{DynInst, OpClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lifecycle of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Fetched, travelling through the front-end pipeline stages.
    FrontEnd,
    /// Dispatched into the Issue Window, waiting for operands / a functional
    /// unit (or, for replayed instructions, the moment before they start
    /// executing).
    Waiting,
    /// Issued to the execution core.
    Issued,
    /// Result produced; waiting to retire.
    Completed,
}

/// One in-flight dynamic instruction, together with the scheduler bookkeeping
/// that lets the issue stage avoid rescanning it while its operands are pending.
#[derive(Debug, Clone)]
pub struct InflightEntry {
    /// The dynamic instruction.
    pub d: DynInst,
    /// Rename outcome (physical sources/destination), set at dispatch.
    pub rename: RenameOutcome,
    /// Pipeline lifecycle state.
    pub state: EntryState,
    /// Front-end time at which the instruction may leave the front-end pipeline.
    pub dispatch_ready_ps: u64,
    /// Back-end time from which the wake-up logic can see the instruction
    /// (dual-clock synchronization).
    pub visible_at_ps: u64,
    /// Back-end cycle at which the instruction completes (valid once issued).
    pub complete_at: u64,
    /// Whether the branch predictor got this control instruction wrong.
    pub mispredicted: bool,
    /// Number of source operands whose value has not arrived yet (the entry
    /// waits on those registers in the [`IssueScheduler`]).
    pub pending_srcs: u8,
    /// Back-end cycle at which all known sources are available (the max of the
    /// producers' wakeup cycles seen so far; only meaningful once
    /// `pending_srcs == 0`).
    pub ready_cycle: u64,
    /// Whether the entry currently occupies an Issue Window slot.
    pub in_iw: bool,
}

impl InflightEntry {
    /// An entry as created at fetch, before rename.
    pub fn new_frontend(d: DynInst, dispatch_ready_ps: u64, mispredicted: bool) -> Self {
        InflightEntry {
            d,
            rename: RenameOutcome::default(),
            state: EntryState::FrontEnd,
            dispatch_ready_ps,
            visible_at_ps: 0,
            complete_at: 0,
            mispredicted,
            pending_srcs: 0,
            ready_cycle: 0,
            in_iw: false,
        }
    }

    /// An entry injected directly into the execution core by trace replay
    /// (bypasses the Issue Window and the wakeup scheduler).
    pub fn new_replay(d: DynInst, rename: RenameOutcome) -> Self {
        InflightEntry {
            d,
            rename,
            state: EntryState::Waiting,
            dispatch_ready_ps: 0,
            visible_at_ps: 0,
            complete_at: 0,
            mispredicted: false,
            pending_srcs: 0,
            ready_cycle: 0,
            in_iw: false,
        }
    }
}

/// A ring of in-flight entries addressed by sequence number.
///
/// Sequence numbers of live entries always fall inside a window bounded by the
/// machine's in-flight capacity (ROB + front-end queue), so a power-of-two ring
/// indexed by `seq & mask` gives collision-free O(1) access. The table grows
/// automatically if a window ever exceeds the initial capacity hint.
///
/// # Example
///
/// ```
/// use flywheel_uarch::{InflightEntry, InflightTable};
/// use flywheel_workloads::{Benchmark, RecordedTrace};
///
/// // Instructions enter in fetch order and are addressed by sequence number.
/// let program = Benchmark::Micro.synthesize(7);
/// let trace = RecordedTrace::record(&program, 7, 32);
/// let mut table = InflightTable::with_capacity(8);
/// for d in trace.cursor().take(4) {
///     table.insert(InflightEntry::new_frontend(d, 0, false));
/// }
/// assert_eq!(table.len(), 4);
/// assert!(table.contains(0) && table.contains(3));
/// // Retirement pops the window head; the freed slot is reusable at once.
/// let retired = table.remove(0).unwrap();
/// assert_eq!(retired.d.seq, 0);
/// assert_eq!(table.len(), 3);
/// assert!(table.get(0).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct InflightTable {
    slots: Vec<Option<InflightEntry>>,
    mask: u64,
    /// Lower bound on every live sequence number.
    head_seq: u64,
    /// One past the largest sequence number ever inserted into the current
    /// window.
    tail_seq: u64,
    live: usize,
}

impl InflightTable {
    /// Creates a table able to hold at least `capacity` simultaneous entries
    /// without reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(16).next_power_of_two();
        InflightTable {
            slots: vec![None; cap],
            mask: cap as u64 - 1,
            head_seq: 0,
            tail_seq: 0,
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no instruction is in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether `seq` is in flight.
    pub fn contains(&self, seq: u64) -> bool {
        seq >= self.head_seq
            && seq < self.tail_seq
            && self.slots[(seq & self.mask) as usize]
                .as_ref()
                .is_some_and(|e| e.d.seq == seq)
    }

    /// The entry for `seq`, if it is in flight.
    pub fn get(&self, seq: u64) -> Option<&InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        self.slots[(seq & self.mask) as usize]
            .as_ref()
            .filter(|e| e.d.seq == seq)
    }

    /// Mutable access to the entry for `seq`, if it is in flight.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        self.slots[(seq & self.mask) as usize]
            .as_mut()
            .filter(|e| e.d.seq == seq)
    }

    /// Inserts `entry` (keyed by `entry.d.seq`).
    ///
    /// # Panics
    ///
    /// Panics if the sequence number is older than a live entry's window start
    /// or if its slot is already occupied (which would mean the in-flight window
    /// exceeded the table size — the table grows to prevent this).
    pub fn insert(&mut self, entry: InflightEntry) {
        let seq = entry.d.seq;
        if self.live == 0 {
            // Empty table: restart the window at the new sequence number. This
            // matters after trace-replay hand-backs, where sequence numbers can
            // step backwards relative to a drained window.
            self.head_seq = seq;
            self.tail_seq = seq;
        }
        assert!(
            seq >= self.head_seq,
            "insert of seq {seq} below live window start {}",
            self.head_seq
        );
        while seq - self.head_seq >= self.slots.len() as u64 {
            self.grow();
        }
        let slot = &mut self.slots[(seq & self.mask) as usize];
        assert!(slot.is_none(), "in-flight window overflow at seq {seq}");
        *slot = Some(entry);
        self.live += 1;
        self.tail_seq = self.tail_seq.max(seq + 1);
    }

    /// Removes and returns the entry for `seq`.
    pub fn remove(&mut self, seq: u64) -> Option<InflightEntry> {
        if seq < self.head_seq || seq >= self.tail_seq {
            return None;
        }
        let slot = &mut self.slots[(seq & self.mask) as usize];
        if slot.as_ref().is_some_and(|e| e.d.seq == seq) {
            let e = slot.take();
            self.live -= 1;
            if self.live == 0 {
                self.head_seq = self.tail_seq;
            } else if seq == self.head_seq {
                // Advance the window start past the freed prefix so the ring
                // never appears full just because retired slots linger.
                while self.head_seq < self.tail_seq
                    && self.slots[(self.head_seq & self.mask) as usize].is_none()
                {
                    self.head_seq += 1;
                }
            }
            e
        } else {
            None
        }
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let mut slots = vec![None; new_cap];
        let mask = new_cap as u64 - 1;
        for e in self.slots.drain(..).flatten() {
            let idx = (e.d.seq & mask) as usize;
            debug_assert!(slots[idx].is_none());
            slots[idx] = Some(e);
        }
        self.slots = slots;
        self.mask = mask;
    }
}

impl std::ops::Index<u64> for InflightTable {
    type Output = InflightEntry;

    fn index(&self, seq: u64) -> &InflightEntry {
        self.get(seq)
            .unwrap_or_else(|| panic!("seq {seq} not in flight"))
    }
}

impl std::ops::IndexMut<u64> for InflightTable {
    fn index_mut(&mut self, seq: u64) -> &mut InflightEntry {
        self.get_mut(seq)
            .unwrap_or_else(|| panic!("seq {seq} not in flight"))
    }
}

/// Number of issue lanes: one per port class an entry can issue to.
const LANES: usize = 6;

/// The lane holding loads, the only lane closed by an unresolved older store.
const LOAD_LANE: usize = 0;

/// The issue lane of `op`: loads, stores, integer ALU/control/nop, integer
/// multiply/divide, FP add, FP multiply/divide. Every lane maps onto a single
/// functional-unit kind, so a full port closes the whole lane.
fn lane_of(op: OpClass) -> usize {
    match op {
        OpClass::Load => LOAD_LANE,
        OpClass::Store => 1,
        OpClass::IntAlu | OpClass::Ctrl | OpClass::Nop => 2,
        OpClass::IntMul | OpClass::IntDiv => 3,
        OpClass::FpAdd => 4,
        OpClass::FpMul | OpClass::FpDiv => 5,
    }
}

/// Slots in a [`Calendar`]'s timing wheel (a power of two).
const WHEEL_SLOTS: usize = 256;

/// A time-indexed event queue: a 256-slot timing wheel with a heap for the
/// far future, the one timed queue both simulator kernels use (instruction
/// completions and operand arrivals).
///
/// Events are `(at, key)` pairs. The wheel covers the 256 cycles from
/// `base`, the first cycle not yet drained: an event due in that window sits
/// in slot `at % 256`, and a 256-bit occupancy bitmap finds the due slots
/// without visiting empty ones. An event due 256 or more cycles ahead waits in
/// the overflow heap and moves onto the wheel once the window reaches it. An
/// event pushed for a cycle already drained lands in the current slot but
/// keeps its original `at`, so it is due at once.
///
/// A drain hands over every due event in one batch, in no particular order;
/// callers that need an order sort the batch. Keys are opaque: stale events
/// (for squashed instructions or reallocated registers) are the caller's to
/// recognise and drop.
///
/// # Example
///
/// ```
/// use flywheel_uarch::Calendar;
///
/// let mut cal = Calendar::new();
/// cal.push(12, 7);
/// cal.push(3, 9);
/// cal.push(1_000, 1); // far ahead: waits in the overflow heap
/// assert_eq!(cal.next_due(), Some(3));
/// let mut due = Vec::new();
/// cal.drain_due(12, &mut due);
/// due.sort_unstable();
/// assert_eq!(due, vec![(3, 9), (12, 7)]);
/// assert_eq!(cal.next_due(), Some(1_000));
/// ```
#[derive(Debug, Clone)]
pub struct Calendar {
    /// `slots[at % 256]` holds the events due at `at` for `at` in
    /// `[base, base + 256)`; the slot of `base` also holds late pushes.
    slots: Box<[Vec<(u64, u64)>]>,
    /// Bit `i` is set while `slots[i]` is non-empty.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// The first cycle not yet drained.
    base: u64,
    /// Events due at `base + 256` or later.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    /// Events on the wheel.
    on_wheel: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar::new()
    }
}

impl Calendar {
    /// Creates an empty calendar whose first undrained cycle is 0.
    pub fn new() -> Self {
        Calendar {
            slots: vec![Vec::new(); WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; WHEEL_SLOTS / 64],
            base: 0,
            far: BinaryHeap::new(),
            on_wheel: 0,
        }
    }

    /// Schedules `key` at cycle `at`.
    pub fn push(&mut self, at: u64, key: u64) {
        if at >= self.base && at - self.base >= WHEEL_SLOTS as u64 {
            self.far.push(Reverse((at, key)));
        } else {
            self.put(at.max(self.base), (at, key));
        }
    }

    /// Moves every event due at or before `cycle` into `out` (appending, in
    /// no particular order) and advances the wheel past `cycle`.
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<(u64, u64)>) {
        if cycle < self.base {
            // Only late pushes, all in the current slot, can be due this
            // early.
            let idx = slot_of(self.base);
            let slot = &mut self.slots[idx];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].0 <= cycle {
                    out.push(slot.swap_remove(i));
                    self.on_wheel -= 1;
                } else {
                    i += 1;
                }
            }
            if slot.is_empty() {
                self.occupied[idx / 64] &= !(1 << (idx % 64));
            }
            return;
        }
        if self.on_wheel > 0 {
            // Slots `base ..= cycle`, cyclically; every slot once the span
            // covers the whole wheel.
            let span = (cycle - self.base).min(WHEEL_SLOTS as u64 - 1) as usize + 1;
            let from = slot_of(self.base);
            let wrapped = (from + span).saturating_sub(WHEEL_SLOTS);
            self.take_slots(from, from + span - wrapped, out);
            if wrapped > 0 {
                self.take_slots(0, wrapped, out);
            }
        }
        self.base = cycle.saturating_add(1);
        // Overflow events now inside the window move onto the wheel (or out,
        // when already due).
        while let Some(&Reverse((at, key))) = self.far.peek() {
            if at <= cycle {
                out.push((at, key));
            } else if at - self.base < WHEEL_SLOTS as u64 {
                self.put(at, (at, key));
            } else {
                break;
            }
            self.far.pop();
        }
    }

    /// The earliest queued cycle, if any.
    pub fn next_due(&self) -> Option<u64> {
        if self.on_wheel == 0 {
            return self.far.peek().map(|&Reverse((at, _))| at);
        }
        let from = slot_of(self.base);
        let idx = self.first_occupied_from(from);
        if idx == from {
            // The current slot may hold late pushes, due before `base`.
            self.slots[idx].iter().map(|&(at, _)| at).min()
        } else {
            Some(self.base + ((idx + WHEEL_SLOTS - from) % WHEEL_SLOTS) as u64)
        }
    }

    /// Files `event` in the slot of cycle `slot_cycle`.
    fn put(&mut self, slot_cycle: u64, event: (u64, u64)) {
        let idx = slot_of(slot_cycle);
        self.slots[idx].push(event);
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.on_wheel += 1;
    }

    /// Empties the occupied slots with index in `lo..hi` into `out`.
    fn take_slots(&mut self, lo: usize, hi: usize, out: &mut Vec<(u64, u64)>) {
        if hi == lo + 1 {
            // One cycle drained, the common case of a machine stepping.
            if self.occupied[lo / 64] & (1 << (lo % 64)) != 0 {
                self.occupied[lo / 64] &= !(1 << (lo % 64));
                let slot = &mut self.slots[lo];
                self.on_wheel -= slot.len();
                out.append(slot);
            }
            return;
        }
        for w in lo / 64..hi.div_ceil(64) {
            let (a, b) = (lo.max(w * 64) - w * 64, hi.min(w * 64 + 64) - w * 64);
            let range = if b - a == 64 {
                !0
            } else {
                ((1u64 << (b - a)) - 1) << a
            };
            let mut bits = self.occupied[w] & range;
            self.occupied[w] &= !bits;
            while bits != 0 {
                let slot = &mut self.slots[w * 64 + bits.trailing_zeros() as usize];
                self.on_wheel -= slot.len();
                out.append(slot);
                bits &= bits - 1;
            }
        }
    }

    /// The first occupied slot at or after `from`, cyclically (the wheel
    /// must not be empty).
    fn first_occupied_from(&self, from: usize) -> usize {
        let words = self.occupied.len();
        let (w0, b0) = (from / 64, from % 64);
        let ahead = self.occupied[w0] & (!0u64 << b0);
        if ahead != 0 {
            return w0 * 64 + ahead.trailing_zeros() as usize;
        }
        for i in 1..=words {
            let w = (w0 + i) % words;
            let bits = if i == words {
                self.occupied[w] & ((1u64 << b0) - 1)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied_from on an empty wheel")
    }
}

/// The wheel slot of cycle `at`.
fn slot_of(at: u64) -> usize {
    at as usize & (WHEEL_SLOTS - 1)
}

/// Wakeup network plus per-port issue lanes: the issue stage visits only
/// entries whose source operands have all arrived, oldest first, and stops
/// looking at a lane as soon as its head provably cannot issue this cycle.
///
/// Consumers wake when an operand *arrives*, not when its producer issues.
/// A dispatched entry whose source is still being produced parks on that
/// physical register's waiter list. When the producer issues
/// ([`Self::on_issue`]) and the register has waiters, one arrival event
/// `(ready_cycle + wakeup_extra, reg)` goes into a [`Calendar`]; a consumer
/// dispatched after its producer issued but before the value arrives parks
/// the same way, and the register's first such waiter pushes the event. The
/// start of each scan ([`Self::begin_scan`]) drains the due arrivals, counts
/// them off the waiters, and moves every fully woken consumer into its lane.
/// An entry whose operands all arrive by the next scan skips the waiter lists
/// and enters its lane at dispatch. So the per-cycle scan never revisits an
/// instruction whose operands are still in flight — a memory-miss producer's
/// consumers stay parked for hundreds of cycles at no per-cycle cost.
///
/// An arrival event outlives a squashed producer. If its register has been
/// reallocated since, the register file no longer says the value arrives at
/// the event's cycle, and the event is dropped unseen; squashed waiters are
/// skipped lazily (their sequence numbers are no longer in flight).
///
/// Released entries wait in one of six lanes — loads, stores, integer
/// ALU/control, integer multiply/divide, FP add, FP multiply/divide — each
/// sorted by sequence number. An issue scan ([`Self::begin_scan`],
/// [`Self::next_issue`], [`Self::end_scan`]) repeatedly takes the oldest head
/// across the open lanes, so entries issue in program order. A lane closes for
/// the rest of the cycle only for a reason that holds for every younger entry
/// in it too, so closing never skips an entry that could issue:
///
/// * **its port kind is full** — every entry of a lane uses the same
///   functional-unit kind, and ports only fill up within a cycle;
/// * **its head is not yet visible** across the dual-clock window —
///   `visible_at_ps` is set at dispatch and never decreases in dispatch
///   order, so every younger entry of the lane is invisible too;
/// * **the load lane's head is younger than the oldest unresolved store** —
///   every younger load is blocked by the same store, and that store cannot
///   issue later in this scan: it is older than the head, so it has either
///   had its turn already or sits in a lane that is itself closed for the
///   cycle. A store that issues earlier in the scan resolves before the load
///   head is looked at, so it unblocks younger loads in the same cycle.
///
/// A lane advances only past entries it issues, so the scan ends by draining
/// each lane's issued prefix.
#[derive(Debug, Clone)]
pub struct IssueScheduler {
    /// Per-physical-register list of waiting consumer sequence numbers.
    /// Squashed consumers are left in place and skipped lazily on wake (their
    /// sequence numbers are no longer in flight, so a stale entry can only
    /// miss).
    waiters: Vec<Vec<u64>>,
    /// Operand arrivals of registers with waiters, as
    /// `(ready_cycle + wakeup_extra, reg)`.
    arrivals: Calendar,
    /// Scratch buffer for the arrivals a scan drains.
    due: Vec<(u64, u64)>,
    /// Released entries (every operand arrived by the next scan), one list
    /// per lane, each sorted ascending by sequence number.
    lanes: [Vec<u64>; LANES],
    /// Per lane, how many entries the current scan has issued (a prefix).
    issued: [usize; LANES],
    /// Bit `l` is set while lane `l` may still issue in the current scan.
    open: u8,
    /// The back-end cycle of the latest scan.
    scan_cycle: u64,
    /// Extra wake-up latency in cycles (1 with pipelined Wake-up/Select, else
    /// 0), folded into every arrival.
    wakeup_extra: u64,
}

impl IssueScheduler {
    /// Creates a scheduler for a machine with `phys_regs` physical registers
    /// and `wakeup_extra` extra cycles of wake-up latency (pipelined
    /// Wake-up/Select).
    pub fn new(phys_regs: usize, wakeup_extra: u64) -> Self {
        IssueScheduler {
            waiters: vec![Vec::new(); phys_regs],
            arrivals: Calendar::new(),
            due: Vec::new(),
            lanes: Default::default(),
            issued: [0; LANES],
            open: 0,
            scan_cycle: 0,
            wakeup_extra,
        }
    }

    /// Registers a freshly dispatched entry: a source whose value arrives by
    /// the next scan counts as available, any other parks the entry on its
    /// register (pushing the register's arrival event if its producer has
    /// issued and the entry is the first waiter). An entry with every source
    /// available enters its lane at once.
    pub fn on_dispatch(&mut self, table: &mut InflightTable, seq: u64, prf: &PhysRegFile) {
        let next_scan = self.scan_cycle.saturating_add(1);
        let entry = &mut table[seq];
        let mut pending = 0u8;
        let mut ready_cycle = 0u64;
        for &src in &entry.rename.srcs {
            let at = prf.ready_at(src);
            let arrival = at.saturating_add(self.wakeup_extra);
            if arrival <= next_scan {
                ready_cycle = ready_cycle.max(at);
                continue;
            }
            pending += 1;
            let waiters = &mut self.waiters[src as usize];
            if at != u64::MAX && waiters.is_empty() {
                self.arrivals.push(arrival, u64::from(src));
            }
            waiters.push(seq);
        }
        entry.pending_srcs = pending;
        entry.ready_cycle = ready_cycle;
        if pending == 0 {
            self.release(table, seq);
        }
    }

    /// Records that the producer of `dst` issued and its value arrives at
    /// back-end cycle `ready_cycle`: schedules the register's arrival event
    /// if consumers wait on it.
    pub fn on_issue(&mut self, dst: PhysReg, ready_cycle: u64) {
        if !self.waiters[dst as usize].is_empty() {
            self.arrivals.push(
                ready_cycle.saturating_add(self.wakeup_extra),
                u64::from(dst),
            );
        }
    }

    /// Starts the issue scan of back-end cycle `cycle`: applies every operand
    /// arrival due by then (dropping events of reallocated registers, which
    /// `prf` no longer schedules at the event's cycle), moves fully woken
    /// consumers into their lanes and opens every non-empty lane.
    pub fn begin_scan(&mut self, table: &mut InflightTable, prf: &PhysRegFile, cycle: u64) {
        let mut due = std::mem::take(&mut self.due);
        self.arrivals.drain_due(cycle, &mut due);
        for &(at, reg) in &due {
            let reg = reg as PhysReg;
            if prf.ready_at(reg).saturating_add(self.wakeup_extra) == at {
                self.wake(table, reg, at - self.wakeup_extra);
            }
        }
        due.clear();
        self.due = due;
        self.scan_cycle = cycle;
        self.open = 0;
        for (l, lane) in self.lanes.iter().enumerate() {
            if !lane.is_empty() {
                self.open |= 1 << l;
            }
        }
    }

    /// The next entry the current scan issues — the oldest lane head that can
    /// issue at back-end time `now` — or `None` once every lane is closed.
    ///
    /// The caller must issue the returned entry before asking again: claim its
    /// port in `fus` and, for a store, resolve it in `stores`.
    pub fn next_issue(
        &mut self,
        table: &InflightTable,
        fus: &FunctionalUnits,
        stores: &StoreIndex,
        now: u64,
    ) -> Option<u64> {
        loop {
            let mut best: Option<(u64, usize)> = None;
            let mut open = self.open;
            while open != 0 {
                let l = open.trailing_zeros() as usize;
                open &= open - 1;
                let seq = self.lanes[l][self.issued[l]];
                if best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, l));
                }
            }
            let (seq, l) = best?;
            let e = &table[seq];
            debug_assert!(
                e.ready_cycle.saturating_add(self.wakeup_extra) <= self.scan_cycle,
                "released entry {seq} issues before its operands arrive"
            );
            if e.visible_at_ps > now
                || !fus.can_issue(e.d.stat.op())
                || (l == LOAD_LANE && stores.blocks_load(seq))
            {
                self.open &= !(1 << l);
                continue;
            }
            self.issued[l] += 1;
            if self.issued[l] == self.lanes[l].len() {
                self.open &= !(1 << l);
            }
            return Some(seq);
        }
    }

    /// Ends the current scan: drops every issued entry from its lane.
    pub fn end_scan(&mut self) {
        for (lane, issued) in self.lanes.iter_mut().zip(&mut self.issued) {
            lane.drain(..*issued);
            *issued = 0;
        }
        self.open = 0;
    }

    /// The earliest `visible_at_ps` among the lane heads that can issue once
    /// visible, or `None` if no released entry can. Outside a scan every lane
    /// entry's operands arrive by the next scan, and within a lane visibility
    /// never decreases, so only the heads matter. A load head behind an older
    /// unresolved store is skipped with its whole lane: that store wakes the
    /// machine through its own events (it is dispatched, waiting on an
    /// arrival or completing).
    pub fn earliest_visible_ps(&self, table: &InflightTable, stores: &StoreIndex) -> Option<u64> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| {
                let &seq = lane.first()?;
                (l != LOAD_LANE || !stores.blocks_load(seq)).then(|| table[seq].visible_at_ps)
            })
            .min()
    }

    /// The earliest queued operand arrival, if any (events may be stale; the
    /// value is a conservative lower bound for event scheduling).
    pub fn next_due(&self) -> Option<u64> {
        self.arrivals.next_due()
    }

    /// Applies the arrival of `reg`'s value (produced at `ready_cycle`) to its
    /// waiters; fully woken consumers enter their lanes.
    fn wake(&mut self, table: &mut InflightTable, reg: PhysReg, ready_cycle: u64) {
        // The list is drained even when some consumers are stale (squashed):
        // everything parked on the register is either woken now or dead.
        let mut waiters = std::mem::take(&mut self.waiters[reg as usize]);
        for seq in waiters.drain(..) {
            let Some(entry) = table.get_mut(seq) else {
                continue;
            };
            debug_assert!(entry.pending_srcs > 0);
            entry.pending_srcs -= 1;
            entry.ready_cycle = entry.ready_cycle.max(ready_cycle);
            if entry.pending_srcs == 0 {
                self.release(table, seq);
            }
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.waiters[reg as usize] = waiters;
    }

    /// Inserts `seq` into its lane, keeping the lane sorted and duplicate-free.
    fn release(&mut self, table: &InflightTable, seq: u64) {
        let lane = &mut self.lanes[lane_of(table[seq].d.stat.op())];
        let pos = if lane.last().is_none_or(|&last| last < seq) {
            // Appending, the common case: entries mostly wake in program
            // order.
            Err(lane.len())
        } else {
            lane.binary_search(&seq)
        };
        if let Err(pos) = pos {
            lane.insert(pos, seq);
            debug_assert!(
                lane_is_visibility_ordered(lane, pos, table),
                "visible_at decreases within an issue lane at seq {seq}"
            );
        }
    }

    /// Drops every released entry younger than `branch_seq` from every lane
    /// (mispredict recovery). Stale wakeup registrations and arrival events
    /// are skipped lazily.
    pub fn squash_after(&mut self, branch_seq: u64) {
        debug_assert_eq!(self.issued, [0; LANES], "squash inside an issue scan");
        for lane in &mut self.lanes {
            let cut = lane.partition_point(|&seq| seq <= branch_seq);
            lane.truncate(cut);
        }
    }
}

/// Whether the entry just inserted at `pos` keeps `visible_at_ps`
/// non-decreasing along `lane` (the invariant the visibility closing rule of
/// [`IssueScheduler::next_issue`] relies on).
fn lane_is_visibility_ordered(lane: &[u64], pos: usize, table: &InflightTable) -> bool {
    let v = |i: usize| table[lane[i]].visible_at_ps;
    (pos == 0 || v(pos - 1) <= v(pos)) && (pos + 1 == lane.len() || v(pos) <= v(pos + 1))
}

/// Index over the stores resident in the LSQ, replacing per-load walks of the
/// whole queue.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    /// Dispatched stores whose address is not resolved yet (state `Waiting`),
    /// sorted ascending.
    waiting: Vec<u64>,
    /// Issued/completed stores still in the LSQ as `(seq, cache line)`, sorted
    /// ascending by sequence number.
    resolved: Vec<(u64, u64)>,
}

impl StoreIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        StoreIndex::default()
    }

    /// Records a store entering the LSQ at dispatch (address still unresolved).
    pub fn on_dispatch_store(&mut self, seq: u64) {
        debug_assert!(self.waiting.last().is_none_or(|&s| s < seq));
        self.waiting.push(seq);
    }

    /// Moves a store from unresolved to resolved when it issues. Stores that
    /// never dispatched through the Issue Window (trace replay) enter the
    /// resolved set directly.
    pub fn on_store_issue(&mut self, seq: u64, line: u64) {
        if let Ok(pos) = self.waiting.binary_search(&seq) {
            self.waiting.remove(pos);
        }
        let pos = self.resolved.partition_point(|&(s, _)| s < seq);
        self.resolved.insert(pos, (seq, line));
    }

    /// Removes a store from the index when it retires.
    pub fn on_store_retire(&mut self, seq: u64) {
        if let Ok(pos) = self.resolved.binary_search_by_key(&seq, |&(s, _)| s) {
            self.resolved.remove(pos);
        }
    }

    /// Drops every store younger than `branch_seq` (mispredict recovery).
    pub fn squash_after(&mut self, branch_seq: u64) {
        let cut = self.waiting.partition_point(|&s| s <= branch_seq);
        self.waiting.truncate(cut);
        let cut = self.resolved.partition_point(|&(s, _)| s <= branch_seq);
        self.resolved.truncate(cut);
    }

    /// The oldest store whose address is still unresolved, if any.
    pub fn earliest_waiting(&self) -> Option<u64> {
        self.waiting.first().copied()
    }

    /// Whether a load at `load_seq` must wait for an older unresolved store.
    pub fn blocks_load(&self, load_seq: u64) -> bool {
        self.earliest_waiting().is_some_and(|s| s < load_seq)
    }

    /// Whether an older resolved store to the same cache line can forward its
    /// data to a load at `load_seq`.
    pub fn forwards_to(&self, load_seq: u64, line: u64) -> bool {
        self.resolved
            .iter()
            .take_while(|&&(s, _)| s < load_seq)
            .any(|&(_, l)| l == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flywheel_isa::{ArchReg, DynInst, Pc, StaticInst};

    fn entry(seq: u64) -> InflightEntry {
        let d = DynInst {
            seq,
            pc: Pc::new(0x1000 + seq * 4),
            stat: StaticInst::alu(ArchReg::int(1), ArchReg::int(2), None),
            taken: false,
            next_pc: Pc::new(0x1000 + seq * 4 + 4),
            mem: None,
        };
        InflightEntry::new_frontend(d, 0, false)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = InflightTable::with_capacity(8);
        assert!(t.is_empty());
        for seq in 10..20 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 10);
        for seq in 10..20 {
            assert!(t.contains(seq));
            assert_eq!(t[seq].d.seq, seq);
        }
        assert!(!t.contains(9));
        assert!(!t.contains(20));
        assert!(t.get(9).is_none());
        let removed = t.remove(15).expect("present");
        assert_eq!(removed.d.seq, 15);
        assert!(!t.contains(15));
        assert!(t.remove(15).is_none());
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn retire_from_head_advances_the_window() {
        let mut t = InflightTable::with_capacity(16);
        for seq in 0..12 {
            t.insert(entry(seq));
        }
        // Retire in program order, refill from the tail: the window slides and
        // the ring keeps wrapping without collisions.
        for round in 0..100u64 {
            t.remove(round).expect("head entry present");
            t.insert(entry(12 + round));
            assert_eq!(t.len(), 12);
        }
        for seq in 100..112 {
            assert!(t.contains(seq));
        }
    }

    #[test]
    fn squash_from_tail_then_reuse_window() {
        let mut t = InflightTable::with_capacity(16);
        for seq in 0..10 {
            t.insert(entry(seq));
        }
        // Squash the five youngest, then insert fresh (younger-than-squashed
        // never recurs; new seqs continue upward).
        for seq in (5..10).rev() {
            t.remove(seq).expect("squashed entry present");
        }
        assert_eq!(t.len(), 5);
        for seq in 10..18 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 13);
        assert!(t.contains(4) && !t.contains(7) && t.contains(17));
    }

    #[test]
    fn ring_wraparound_grows_on_demand() {
        let mut t = InflightTable::with_capacity(4);
        // Window wider than the initial capacity forces growth.
        for seq in 0..100 {
            t.insert(entry(seq));
        }
        assert_eq!(t.len(), 100);
        for seq in 0..100 {
            assert_eq!(t[seq].d.seq, seq);
        }
    }

    #[test]
    fn empty_table_resets_the_window_backwards() {
        let mut t = InflightTable::with_capacity(8);
        for seq in 50..54 {
            t.insert(entry(seq));
        }
        for seq in 50..54 {
            t.remove(seq);
        }
        assert!(t.is_empty());
        // Trace-replay hand-backs can re-inject older sequence numbers once the
        // machine has drained.
        t.insert(entry(40));
        assert!(t.contains(40));
    }

    /// A dispatched entry of class `stat` with no pending sources, released
    /// into its lane at the next scan.
    fn dispatch_ready(
        t: &mut InflightTable,
        sched: &mut IssueScheduler,
        prf: &PhysRegFile,
        seq: u64,
        stat: StaticInst,
        visible_at_ps: u64,
    ) {
        let mut e = entry(seq);
        e.d.stat = stat;
        e.state = EntryState::Waiting;
        e.in_iw = true;
        e.visible_at_ps = visible_at_ps;
        t.insert(e);
        sched.on_dispatch(t, seq, prf);
    }

    /// Every released entry, in program order.
    fn released(sched: &IssueScheduler) -> Vec<u64> {
        let mut all: Vec<u64> = sched.lanes.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    /// Runs one scan the way both kernels do, issuing everything the scan
    /// offers (claiming ports and resolving stores), and returns the issued
    /// sequence numbers in order.
    fn scan(
        sched: &mut IssueScheduler,
        t: &mut InflightTable,
        prf: &PhysRegFile,
        fus: &mut FunctionalUnits,
        stores: &mut StoreIndex,
        cycle: u64,
        now: u64,
    ) -> Vec<u64> {
        fus.begin_cycle();
        sched.begin_scan(t, prf, cycle);
        let mut issued = Vec::new();
        while let Some(seq) = sched.next_issue(t, fus, stores, now) {
            let op = t[seq].d.stat.op();
            assert!(fus.try_issue(op));
            t[seq].state = EntryState::Issued;
            t[seq].in_iw = false;
            if op == OpClass::Store {
                stores.on_store_issue(seq, 0);
            }
            issued.push(seq);
        }
        sched.end_scan();
        issued
    }

    #[test]
    fn scheduler_wakes_consumers_in_program_order() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let mut fus = FunctionalUnits::new(crate::FuConfig {
            int_alu: 2,
            ..crate::FuConfig::paper()
        });
        let mut stores = StoreIndex::new();
        prf.mark_pending(3);
        for seq in [5u64, 6, 7] {
            let mut e = entry(seq);
            e.rename.srcs = [3].into_iter().collect();
            e.state = EntryState::Waiting;
            e.in_iw = true;
            t.insert(e);
            sched.on_dispatch(&mut t, seq, &prf);
        }
        sched.begin_scan(&mut t, &prf, 10);
        assert!(
            released(&sched).is_empty(),
            "all parked on the pending producer"
        );
        sched.end_scan();
        prf.mark_ready(3, 17);
        sched.on_issue(3, 17);
        // The consumers stay parked until their operand arrives at cycle 17;
        // scanning earlier surfaces nothing.
        assert_eq!(sched.next_due(), Some(17));
        assert!(scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 16, 0).is_empty());
        assert_eq!(t[5].pending_srcs, 1);
        // Two integer ALUs: the two oldest issue, the youngest stays at the
        // head of its lane for the next cycle.
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 17, 0),
            vec![5, 6]
        );
        assert_eq!(t[7].ready_cycle, 17);
        assert_eq!(released(&sched), vec![7]);
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 18, 0),
            vec![7]
        );
        assert!(released(&sched).is_empty());
    }

    #[test]
    fn a_store_issued_earlier_in_the_scan_unblocks_a_younger_load() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let mut fus = FunctionalUnits::new(crate::FuConfig::paper());
        let mut stores = StoreIndex::new();
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        dispatch_ready(&mut t, &mut sched, &prf, 4, StaticInst::store(r1, r2), 0);
        stores.on_dispatch_store(4);
        dispatch_ready(&mut t, &mut sched, &prf, 5, StaticInst::load(r1, r2), 0);
        assert!(stores.blocks_load(5));
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 1, 0),
            vec![4, 5],
            "the store resolves before the load head is looked at"
        );
    }

    #[test]
    fn an_unresolved_older_store_closes_only_the_load_lane() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let mut fus = FunctionalUnits::new(crate::FuConfig::paper());
        let mut stores = StoreIndex::new();
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        // Store 2 never becomes ready this cycle (it is not released).
        stores.on_dispatch_store(2);
        dispatch_ready(&mut t, &mut sched, &prf, 3, StaticInst::load(r1, r2), 0);
        dispatch_ready(&mut t, &mut sched, &prf, 4, StaticInst::load(r1, r2), 0);
        dispatch_ready(
            &mut t,
            &mut sched,
            &prf,
            5,
            StaticInst::alu(r1, r2, None),
            0,
        );
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 1, 0),
            vec![5]
        );
        assert_eq!(released(&sched), vec![3, 4]);
        assert_eq!(sched.earliest_visible_ps(&t, &stores), None);
        stores.on_store_issue(2, 0);
        assert_eq!(sched.earliest_visible_ps(&t, &stores), Some(0));
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 2, 0),
            vec![3, 4]
        );
    }

    #[test]
    fn a_full_port_closes_its_own_lane_without_skipping_older_entries_elsewhere() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let mut fus = FunctionalUnits::new(crate::FuConfig::paper());
        let mut stores = StoreIndex::new();
        let (f1, f2) = (ArchReg::fp(1), ArchReg::fp(2));
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        let fmul = StaticInst::compute(OpClass::FpMul, f1, f2, None);
        // One FP multiply/divide unit: 10 issues, 11 and 13 wait; the ALU op
        // 12, older than 13, still issues in program order.
        dispatch_ready(&mut t, &mut sched, &prf, 10, fmul, 0);
        dispatch_ready(&mut t, &mut sched, &prf, 11, fmul, 0);
        dispatch_ready(
            &mut t,
            &mut sched,
            &prf,
            12,
            StaticInst::alu(r1, r2, None),
            0,
        );
        dispatch_ready(&mut t, &mut sched, &prf, 13, fmul, 0);
        dispatch_ready(
            &mut t,
            &mut sched,
            &prf,
            14,
            StaticInst::alu(r1, r2, None),
            0,
        );
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 1, 0),
            vec![10, 12, 14]
        );
        assert_eq!(released(&sched), vec![11, 13]);
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 2, 0),
            vec![11]
        );
    }

    #[test]
    fn a_head_not_yet_visible_closes_only_its_own_lane() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let mut fus = FunctionalUnits::new(crate::FuConfig::paper());
        let mut stores = StoreIndex::new();
        let (f1, f2) = (ArchReg::fp(1), ArchReg::fp(2));
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        let fadd = StaticInst::compute(OpClass::FpAdd, f1, f2, None);
        dispatch_ready(&mut t, &mut sched, &prf, 20, fadd, 500);
        dispatch_ready(
            &mut t,
            &mut sched,
            &prf,
            21,
            StaticInst::alu(r1, r2, None),
            400,
        );
        dispatch_ready(&mut t, &mut sched, &prf, 22, fadd, 600);
        // Operands arrive by the next scan, so dispatch releases all three.
        assert_eq!(sched.earliest_visible_ps(&t, &stores), Some(400));
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 1, 450),
            vec![21]
        );
        assert_eq!(sched.earliest_visible_ps(&t, &stores), Some(500));
        assert_eq!(
            scan(&mut sched, &mut t, &prf, &mut fus, &mut stores, 2, 600),
            vec![20, 22]
        );
    }

    #[test]
    fn squash_after_truncates_every_lane() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        let (f1, f2) = (ArchReg::fp(1), ArchReg::fp(2));
        let kinds = [
            StaticInst::load(r1, r2),
            StaticInst::store(r1, r2),
            StaticInst::alu(r1, r2, None),
            StaticInst::compute(OpClass::IntMul, r1, r2, None),
            StaticInst::compute(OpClass::FpAdd, f1, f2, None),
            StaticInst::compute(OpClass::FpDiv, f1, f2, None),
        ];
        for (i, &stat) in kinds.iter().chain(&kinds).enumerate() {
            dispatch_ready(&mut t, &mut sched, &prf, i as u64, stat, 0);
        }
        sched.begin_scan(&mut t, &prf, 1);
        sched.end_scan();
        assert!(sched.lanes.iter().all(|lane| lane.len() == 2));
        sched.squash_after(5);
        assert!(sched.lanes.iter().all(|lane| lane.len() == 1));
        assert_eq!(released(&sched), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn every_lane_maps_onto_one_port_kind() {
        let ops = [
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
        for a in ops {
            for b in ops {
                if lane_of(a) == lane_of(b) {
                    assert_eq!(a.fu_kind(), b.fu_kind(), "{a:?} and {b:?} share a lane");
                }
            }
        }
    }

    #[test]
    fn a_duplicate_dispatch_lands_in_its_lane_once() {
        let mut t = InflightTable::with_capacity(16);
        let prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        dispatch_ready(
            &mut t,
            &mut sched,
            &prf,
            9,
            StaticInst::alu(r1, r2, None),
            0,
        );
        // A re-dispatch with the same schedule releases the entry again.
        sched.on_dispatch(&mut t, 9, &prf);
        sched.begin_scan(&mut t, &prf, 3);
        sched.end_scan();
        assert_eq!(released(&sched), vec![9]);
        assert_eq!(sched.next_due(), None);
    }

    #[test]
    fn pipelined_wakeup_delays_the_release_by_one_cycle() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 1);
        prf.mark_pending(2);
        let mut e = entry(4);
        e.rename.srcs = [2].into_iter().collect();
        e.state = EntryState::Waiting;
        e.in_iw = true;
        t.insert(e);
        sched.on_dispatch(&mut t, 4, &prf);
        prf.mark_ready(2, 10);
        sched.on_issue(2, 10);
        sched.begin_scan(&mut t, &prf, 10);
        assert!(
            released(&sched).is_empty(),
            "pipelined wakeup adds one cycle"
        );
        sched.end_scan();
        sched.begin_scan(&mut t, &prf, 11);
        assert_eq!(released(&sched), vec![4]);
    }

    #[test]
    fn scheduler_skips_squashed_waiters() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(4);
        prf.mark_pending(1);
        let mut sched = IssueScheduler::new(4, 0);
        let mut e = entry(8);
        e.rename.srcs = [1].into_iter().collect();
        t.insert(e);
        sched.on_dispatch(&mut t, 8, &prf);
        // Released entries younger than the branch disappear; the parked
        // waiter is squashed from the table and must be skipped when its
        // operand arrives.
        sched.squash_after(7);
        t.remove(8);
        prf.mark_ready(1, 9);
        sched.on_issue(1, 9);
        sched.begin_scan(&mut t, &prf, 100);
        assert!(released(&sched).is_empty());
        assert_eq!(sched.next_due(), None);
    }

    #[test]
    fn a_consumer_of_an_issued_producer_parks_until_the_value_arrives() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        let (r1, r2) = (ArchReg::int(1), ArchReg::int(2));
        sched.begin_scan(&mut t, &prf, 5);
        sched.end_scan();
        // Register 3 arrives at cycle 6 (by the next scan), register 4 at 40.
        prf.mark_ready(3, 6);
        prf.mark_ready(4, 40);
        sched.on_issue(4, 40);
        assert_eq!(sched.next_due(), None, "no waiters, no arrival event");
        for (seq, src) in [(10u64, 3), (11, 4), (12, 4)] {
            let mut e = entry(seq);
            e.d.stat = StaticInst::alu(r1, r2, None);
            e.rename.srcs = [src].into_iter().collect();
            e.state = EntryState::Waiting;
            e.in_iw = true;
            t.insert(e);
            sched.on_dispatch(&mut t, seq, &prf);
        }
        assert_eq!(released(&sched), vec![10]);
        // Only the first waiter on register 4 queued its arrival.
        assert_eq!(sched.next_due(), Some(40));
        sched.begin_scan(&mut t, &prf, 39);
        sched.end_scan();
        assert_eq!(released(&sched), vec![10]);
        sched.begin_scan(&mut t, &prf, 40);
        sched.end_scan();
        assert_eq!(released(&sched), vec![10, 11, 12]);
        assert_eq!(sched.next_due(), None);
    }

    #[test]
    fn an_arrival_of_a_reallocated_register_is_dropped() {
        let mut t = InflightTable::with_capacity(16);
        let mut prf = PhysRegFile::new(8);
        let mut sched = IssueScheduler::new(8, 0);
        prf.mark_pending(2);
        fn consumer(
            t: &mut InflightTable,
            sched: &mut IssueScheduler,
            prf: &PhysRegFile,
            seq: u64,
        ) {
            let mut e = entry(seq);
            e.rename.srcs = [2].into_iter().collect();
            e.state = EntryState::Waiting;
            e.in_iw = true;
            t.insert(e);
            sched.on_dispatch(t, seq, prf);
        }
        consumer(&mut t, &mut sched, &prf, 5);
        // The producer issues (value at 30), then it and its consumer are
        // squashed and register 2 goes to a new, not yet issued producer
        // with a new consumer.
        prf.mark_ready(2, 30);
        sched.on_issue(2, 30);
        sched.squash_after(4);
        t.remove(5);
        prf.mark_pending(2);
        consumer(&mut t, &mut sched, &prf, 6);
        sched.begin_scan(&mut t, &prf, 30);
        sched.end_scan();
        assert!(
            released(&sched).is_empty(),
            "the stale arrival woke a waiter"
        );
        assert_eq!(t[6].pending_srcs, 1);
        // The new producer's own arrival wakes the consumer.
        prf.mark_ready(2, 35);
        sched.on_issue(2, 35);
        sched.begin_scan(&mut t, &prf, 35);
        assert_eq!(released(&sched), vec![6]);
    }

    #[test]
    fn completion_queue_pops_in_deadline_order() {
        let mut q = Calendar::new();
        let mut due = Vec::new();
        assert_eq!(q.next_due(), None);
        q.drain_due(0, &mut due);
        assert!(due.is_empty());
        q.push(30, 7);
        q.push(10, 9);
        q.push(10, 3);
        assert_eq!(q.next_due(), Some(10));
        q.drain_due(9, &mut due);
        assert!(due.is_empty(), "nothing due before cycle 10");
        q.drain_due(10, &mut due);
        due.sort_unstable();
        assert_eq!(due, vec![(10, 3), (10, 9)]);
        due.clear();
        q.drain_due(10, &mut due);
        assert!(due.is_empty());
        q.drain_due(u64::MAX, &mut due);
        assert_eq!(due, vec![(30, 7)]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn calendar_late_and_far_events_keep_their_cycle() {
        let mut q = Calendar::new();
        let mut due = Vec::new();
        q.drain_due(100, &mut due);
        // A late push is due at once, a far one moves onto the wheel as the
        // window reaches it.
        q.push(40, 1);
        q.push(101 + 600, 2);
        q.push(150, 3);
        assert_eq!(q.next_due(), Some(40));
        q.drain_due(99, &mut due);
        assert_eq!(due, vec![(40, 1)]);
        due.clear();
        assert_eq!(q.next_due(), Some(150));
        q.drain_due(500, &mut due);
        assert_eq!(due, vec![(150, 3)]);
        due.clear();
        assert_eq!(q.next_due(), Some(701));
        q.drain_due(700, &mut due);
        assert!(due.is_empty());
        q.drain_due(701, &mut due);
        assert_eq!(due, vec![(701, 2)]);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn store_index_tracks_blocking_and_forwarding() {
        let mut s = StoreIndex::new();
        assert!(!s.blocks_load(100));
        s.on_dispatch_store(10);
        s.on_dispatch_store(20);
        assert!(s.blocks_load(15), "unresolved store 10 blocks load 15");
        assert!(!s.blocks_load(5), "older load unaffected");
        s.on_store_issue(10, 0x40);
        assert!(!s.blocks_load(15), "store 10 resolved");
        assert!(s.blocks_load(25), "store 20 still unresolved");
        assert!(s.forwards_to(15, 0x40));
        assert!(!s.forwards_to(15, 0x80));
        assert!(
            !s.forwards_to(10, 0x40),
            "stores do not forward to older loads"
        );
        s.on_store_retire(10);
        assert!(!s.forwards_to(15, 0x40));
        s.squash_after(12);
        assert!(!s.blocks_load(25), "squash removed store 20");
    }
}
