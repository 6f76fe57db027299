//! # dirtree-sim — deterministic discrete-event simulation substrate
//!
//! This crate is the Proteus-style foundation underneath the multiprocessor
//! simulator: a deterministic event queue, cycle clock, statistics
//! primitives, a fast non-cryptographic hash, a grow-on-demand table indexed
//! by block address (for the hot per-block tables), and a seedable RNG.
//!
//! Everything here is deliberately free of external dependencies so the
//! whole reproduction is bit-deterministic: events with equal timestamps are
//! dequeued in insertion (FIFO) order, the RNG is SplitMix64-seeded
//! xorshift with explicit seeds, and hashing never observes pointer
//! addresses.

pub mod block_table;
pub mod event;
pub mod hash;
pub mod metrics;
pub mod rng;
pub mod stats;

pub use block_table::BlockTable;
pub use event::{Cycle, EventQueue};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use metrics::{ClassCounts, Metrics, MetricsSnapshot, MsgClass, NUM_MSG_CLASSES};
pub use rng::SimRng;
pub use stats::Histogram;
