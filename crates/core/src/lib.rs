//! # dirtree-core — cache coherence protocols
//!
//! The paper's contribution, **Dir<sub>i</sub>Tree<sub>k</sub>**
//! ([`dir::dir_tree`] — one implementation for the invalidate, update and
//! per-block write policies; [`adapt`] chooses the per-block policy at run
//! time), plus every baseline it is evaluated against or compared to:
//!
//! * [`dir::flat`] — the flat directories, one state machine with an
//!   overflow policy: Dir<sub>n</sub>NB full bit-map, Dir<sub>i</sub>NB
//!   (pointer replacement), Dir<sub>i</sub>B (broadcast-on-overflow) and
//!   the LimitLESS<sub>i</sub> software-extended directory,
//! * [`dir::singly`] — Stanford singly-linked-list protocol,
//! * [`dir::sci`] — IEEE 1596 SCI doubly-linked list,
//! * [`dir::stp`] — the Scalable Tree Protocol (balanced top-down trees),
//! * [`dir::sci_tree`] — the P1596.2 SCI tree extension (AVL-balanced).
//!
//! Protocols are written against the [`protocol::Protocol`] trait and the
//! [`ctx::ProtoCtx`] context, so they are independent of the event loop in
//! `dirtree-machine`: unit tests in this crate drive them with a mock
//! context, and the machine crate drives them with the real network.

pub mod adapt;
pub mod cache;
pub mod ctx;
pub mod dir;
pub mod fingerprint;
pub mod msg;
pub mod protocol;
pub mod types;
pub mod verify;

pub mod testkit;

#[cfg(test)]
pub(crate) use testkit as testutil;

pub use cache::{Cache, CacheConfig};
pub use ctx::ProtoCtx;
pub use msg::{Msg, MsgKind};
pub use protocol::{build_protocol, Protocol, ProtocolKind};
pub use types::{Addr, LineState, NodeId, OpKind};
