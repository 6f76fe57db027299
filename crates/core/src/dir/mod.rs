//! Directory protocol implementations.
//!
//! * [`dir_tree`] — **the paper's contribution**, Dir<sub>i</sub>Tree<sub>k</sub>,
//!   with invalidate, update or per-block write policy;
//! * [`flat`] — the flat-directory baselines: full-map, Dir<sub>i</sub>NB,
//!   Dir<sub>i</sub>B and LimitLESS<sub>i</sub> as one state machine with
//!   an overflow policy;
//! * [`singly`], [`sci`] — linked-list baselines;
//! * [`stp`], [`sci_tree`] — tree-structured baselines;
//! * [`snoop`] — the §1 snooping-MSI bus baseline;
//! * [`util`] — shared building blocks: the block-major state every
//!   protocol keeps (a row per block: directory entry, transaction gate,
//!   per-node records sorted by node id), the invalidation-ack collector,
//!   the node bitset and the common cache-side steps.

pub mod dir_tree;
pub mod flat;
pub mod sci;
pub mod sci_tree;
pub mod singly;
pub mod snoop;
pub mod stp;
pub mod util;
