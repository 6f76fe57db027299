//! The adaptive update/invalidate subsystem — the *hybrid* of the paper's
//! title.
//!
//! Dir<sub>i</sub>Tree<sub>k</sub> ([`crate::dir::dir_tree`]) runs either
//! write policy — invalidate or update — on one forest, with one bit per
//! block selecting the wave. This module adds the part that *sets* the bit:
//!
//! * [`detector`] — a per-block sharing-pattern classifier driven by the
//!   request stream the home directory already sees (plus read-hit notes
//!   from the machine, which keep update-mode blocks observable), with a
//!   Schmitt-trigger score so alternating patterns cannot flap the policy;
//! * [`adaptive`] — [`DirTreeAdaptive`], the detector and two drain
//!   counters around one per-block-policy `DirTree`: it flips a block's
//!   bit in place, and only when the block is *drained* (no in-flight
//!   messages, no unretired completion, no open home transaction or ack
//!   collection, clean directory entry) — the sharer forest, zombie edges
//!   included, never moves.
//!
//! See DESIGN.md system #24 for the state machine and the transition-drain
//! rule.

pub mod adaptive;
pub mod detector;

pub use adaptive::DirTreeAdaptive;
pub use detector::{PatternDetector, SharingPattern};
