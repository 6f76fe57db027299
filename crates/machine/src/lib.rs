//! # dirtree-machine — the simulated shared-memory multiprocessor
//!
//! Ties the pieces together into a cycle-level machine in the style of the
//! paper's Proteus setup (Table 5): one processor + cache + memory module
//! per node of a wormhole-routed binary n-cube, a directory coherence
//! protocol from `dirtree-core`, and per-node memory controllers that
//! serialize directory accesses (5 cycles each).
//!
//! Workloads drive the machine through the [`Driver`] trait: the machine
//! asks the driver for the next operation of a processor whenever that
//! processor becomes ready. `dirtree-workloads` implements an
//! execution-driven driver on top of `async` programs polled on the
//! machine's thread; [`ScriptDriver`] reads per-node operation lists:
//! scripts written by tests and microbenchmarks, or traces recorded once
//! and replayed across protocol configs.
//!
//! With [`MachineConfig::verify`] enabled, every completed operation is
//! checked against a sequential-consistency witness: writes assert the
//! single-writer invariant machine-wide, reads assert their copy is
//! current, and the final state asserts that no stale valid copy survived.

pub mod config;
pub mod core;
pub mod driver;
pub mod machine;
pub mod stats;
pub mod trace;

pub use config::{MachineConfig, TopologyKind};
pub use driver::{Driver, DriverOp, ScriptDriver};
pub use machine::{Machine, RunOutcome, StallError};
pub use stats::MachineStats;
pub use trace::{MsgTrace, TraceEvent};

pub use dirtree_sim::metrics::{ClassCounts, Metrics, MetricsSnapshot, MsgClass};
