//! Directory protocol implementations.
//!
//! * [`home`] — the home transaction (admit, recall, resume, grant, close)
//!   of every directory that keeps an exclusive owner, written once for
//!   the three families below;
//! * [`dir_tree`] — **the paper's contribution**, Dir<sub>i</sub>Tree<sub>k</sub>,
//!   with invalidate, update or per-block write policy;
//! * [`flat`] — the flat-directory baselines: full-map, Dir<sub>i</sub>NB,
//!   Dir<sub>i</sub>B and LimitLESS<sub>i</sub> as one family with an
//!   overflow policy;
//! * [`home_tree`] — the tree-structured baselines, whose home holds the
//!   sharing tree: one family with two tree shapes, STP's arrival-order
//!   k-ary tree ([`stp`]) and the SCI tree extension's AVL tree
//!   ([`sci_tree`]);
//! * [`singly`], [`sci`] — linked-list baselines;
//! * [`util`] — shared building blocks: the block-major state every
//!   protocol keeps (a row per block: directory entry, transaction gate,
//!   per-node records sorted by node id), the home's record of a block's
//!   exclusive copy, the invalidation-ack collector, the node bitset and
//!   the common cache-side steps.

pub mod dir_tree;
pub mod flat;
pub mod home;
pub mod home_tree;
pub mod sci;
pub mod sci_tree;
pub mod singly;
pub mod stp;
pub mod util;
