//! The context through which a protocol acts on the simulated machine.
//!
//! Protocols are pure message-driven state machines; everything with a cost
//! — sending messages, occupying the memory controller, completing a
//! processor's access — goes through [`ProtoCtx`], implemented by the real
//! machine in `dirtree-machine` and by a mock in unit tests.

use crate::msg::Msg;
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::Cycle;

/// Observable protocol-level happenings, counted by the machine's stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtoEvent {
    /// A sharer's copy was invalidated by a write.
    Invalidation,
    /// A copy was killed by a replacement (`Replace_INV` subtree kill, list
    /// unlink invalidation, Dir_iNB pointer-eviction, ...).
    ReplacementInvalidation,
    /// A LimitLESS-style software trap ran at the home.
    SoftwareTrap,
    /// A Dir_iB broadcast was issued.
    Broadcast,
    /// Two equal-level trees were merged under a new requester (Dir_iTree_k
    /// read-miss case 3).
    TreeMerge,
    /// A single lowest-level tree was pushed down under a new requester
    /// (Dir_iTree_k read-miss case 4).
    TreePushDown,
    /// The adaptive hybrid's home-side detector classified one write
    /// interval of a block ([`crate::adapt`]).
    PatternSample(crate::adapt::SharingPattern),
    /// The adaptive hybrid flipped a block's write policy.
    ModeFlip {
        /// `true`: invalidate → update; `false`: update → invalidate.
        to_update: bool,
    },
}

/// Machine services available to a protocol handler.
///
/// Handlers run *after* their controller occupancy has elapsed, so `now()`
/// already includes the memory / cache access latency and sends depart at
/// `now()`.
pub trait ProtoCtx {
    /// Current simulated cycle.
    fn now(&self) -> Cycle;

    /// Number of processors in the machine.
    fn num_nodes(&self) -> u32;

    /// Home memory module for a block (address-interleaved).
    fn home_of(&self, addr: Addr) -> NodeId;

    /// Send `msg` to `dst` over the network (arrival is scheduled by the
    /// machine; wire size and contention are derived from the message).
    fn send(&mut self, dst: NodeId, msg: Msg);

    /// Deliver `msg` to every node except the sender, one
    /// [`ProtoCtx::send`] each, and return `now()`. The original message is
    /// moved into the final send rather than cloned once more.
    ///
    /// No protocol calls this: Dir_iB's overflow write sends one `Inv` per
    /// node, so every message takes `send`'s path. The method stays because
    /// the benchmark's traced context (`benchmark/src/wrap.rs`) overrides
    /// it, and the benchmark changes only together with its expected
    /// digests.
    fn broadcast(&mut self, msg: Msg) -> Cycle {
        let last = (0..self.num_nodes()).rev().find(|&d| d != msg.src);
        for dst in 0..self.num_nodes() {
            if dst != msg.src && Some(dst) != last {
                self.send(dst, msg.clone());
            }
        }
        if let Some(dst) = last {
            self.send(dst, msg);
        }
        self.now()
    }

    /// Re-enqueue `msg` at `node`'s controller after `delay` cycles without
    /// network traffic — used to wake requests deferred by per-block
    /// transaction serialization.
    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle);

    /// Extend the current handler's controller occupancy (e.g. LimitLESS
    /// software traps, extra directory memory accesses).
    fn occupy(&mut self, node: NodeId, cycles: Cycle);

    /// State of a line in `node`'s cache (`NotPresent` if no tag).
    fn line_state(&self, node: NodeId, addr: Addr) -> LineState;

    /// Set the state of a *resident* line in `node`'s cache.
    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState);

    /// The processor's outstanding access at `node` for `addr` is resolved;
    /// the machine schedules the fill/completion.
    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind);

    /// Count a protocol-level event.
    fn note(&mut self, event: ProtoEvent);
}
