//! # flywheel-uarch
//!
//! A cycle-accurate, trace-driven model of the paper's baseline machine: a nine-stage,
//! four-way superscalar, out-of-order processor with a monolithic 128-entry Issue
//! Window (Table 2), in the spirit of the authors' modified SimpleScalar simulator.
//!
//! The crate provides both the complete baseline simulator ([`BaselineSim`]) and the
//! individual structures it is built from, which `flywheel-core` reuses for the
//! Flywheel machine:
//!
//! * [`Cache`] / [`MemoryHierarchy`] — split L1s, unified L2, flat main memory.
//! * [`GsharePredictor`] — gshare + BTB + return-address stack.
//! * [`Renamer`] / [`PhysRegFile`] — R10000-style renaming and the ready scoreboard.
//! * [`FunctionalUnits`] — per-kind issue bandwidth (Table 2 mix).
//! * [`InflightTable`] / [`Calendar`] / [`IssueScheduler`] / [`StoreIndex`] — the slab-indexed,
//!   allocation-free in-flight bookkeeping both simulator kernels run their
//!   per-cycle hot loop on (see `ARCHITECTURE.md`).
//! * [`BaselineConfig`] — all structural and clocking knobs, including the Figure 2
//!   variations (extra front-end stage, pipelined Wake-up/Select) and the Dual-Clock
//!   Issue Window front-end.
//!
//! The simulator consumes [`flywheel_isa::DynInst`] streams (usually from
//! `flywheel_workloads::TraceGenerator`), models two clock domains with arbitrary
//! period ratios, and reports performance plus a Wattch-style energy breakdown
//! ([`SimResult`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpred;
mod cache;
mod config;
mod fu;
mod inflight;
mod pipeline;
mod regs;
mod stats;
pub mod telemetry;
pub mod watchdog;

pub use bpred::{BpredStats, GsharePredictor};
pub use cache::{AccessOutcome, Cache, HierarchyStats, MemoryHierarchy};
pub use config::{BaselineConfig, BpredConfig, CacheConfig, FuConfig, MultiDomainConfig};
pub use fu::FunctionalUnits;
pub use inflight::{
    Calendar, EntryState, InflightEntry, InflightTable, IssueScheduler, StoreIndex,
};
pub use pipeline::BaselineSim;
pub use regs::{PhysReg, PhysRegFile, RenameOutcome, Renamer, SrcList};
pub use stats::{SimBudget, SimResult};
