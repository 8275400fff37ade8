//! Pinned, per-layer host-performance benchmark of the Flywheel simulator.
//!
//! The benchmark drives the simulator's layers from outside, through their
//! public calls, over three workloads ([`grid::Workload`]); see `README.md`
//! for why each workload was chosen and which layer metric should move which
//! end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod grid;
pub mod host;
pub mod pass;
pub mod spans;
pub mod stats;
