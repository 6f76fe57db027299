//! Directory protocol implementations.
//!
//! * [`dir_tree`] — **the paper's contribution**, Dir<sub>i</sub>Tree<sub>k</sub>,
//!   with invalidate, update or per-block write policy;
//! * [`full_map`], [`limited`], [`limitless`] — bit-map family baselines;
//! * [`singly`], [`sci`] — linked-list baselines;
//! * [`stp`], [`sci_tree`] — tree-structured baselines;
//! * [`snoop`] — the §1 snooping-MSI bus baseline;
//! * [`util`] — shared building blocks (per-block transaction gate,
//!   invalidation-ack collector).

pub mod dir_tree;
pub mod full_map;
pub mod limited;
pub mod limitless;
pub mod sci;
pub mod sci_tree;
pub mod singly;
pub mod snoop;
pub mod stp;
pub mod util;
