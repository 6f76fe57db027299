//! Outside-in instrumentation: wrappers around the three trait objects a
//! [`dirtree_machine::Machine`] talks to, so that every layer boundary is
//! timed from this crate and nothing is added under `crates/`.
//!
//! * [`TracedDriver`] brackets `Driver::next_op` (the `workloads` layer).
//! * [`TracedProtocol`] brackets `handle` / `start_miss` / `evict` /
//!   `note_read_hit` (the `core` layer) and hands the handler a
//!   [`TracedCtx`].
//! * [`TracedCtx`] brackets `send` / `broadcast` / `redeliver` / `complete`
//!   (the `machine` send path: credit check, `Network::send_vc`, metrics
//!   emission, queue push) and logs every send for the `net` replay.
//!
//! The wrappers change no simulated result: every `Protocol` method,
//! defaults included, is forwarded, and the traced pass asserts the wrapped
//! run's digest equals the plain one.

use crate::spans::Agg;
use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::msg::Msg;
use dirtree_core::protocol::{Protocol, ProtocolKind};
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_machine::{Driver, DriverOp, MachineConfig};
use dirtree_net::vc_for;
use dirtree_sim::Cycle;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans of the `core` layer, children of the run.
pub const CORE_SPANS: [&str; 4] = [
    "core.handle",
    "core.start_miss",
    "core.evict",
    "core.note_read_hit",
];
const HANDLE: usize = 0;
const START_MISS: usize = 1;
const EVICT: usize = 2;
const NOTE_READ_HIT: usize = 3;

/// Spans of the `machine` send path, children of a `core` span.
pub const CTX_SPANS: [&str; 4] = [
    "machine.ctx.send",
    "machine.ctx.broadcast",
    "machine.ctx.redeliver",
    "machine.ctx.complete",
];
const SEND: usize = 0;
const BROADCAST: usize = 1;
const REDELIVER: usize = 2;
const COMPLETE: usize = 3;

/// One message as the machine handed it to the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendRec {
    pub now: Cycle,
    pub src: NodeId,
    /// `None` for a broadcast.
    pub dst: Option<NodeId>,
    pub bytes: u32,
    pub vc: u32,
}

/// Everything the protocol-side wrappers collect during one run.
#[derive(Clone, Debug, Default)]
pub struct ProtoTrace {
    /// Indexed like [`CORE_SPANS`].
    pub core: [Agg; 4],
    /// `ctx[parent][kind]`: parent indexed like [`CORE_SPANS`], kind like
    /// [`CTX_SPANS`].
    pub ctx: [[Agg; 4]; 4],
    /// Every send in issue order, for the `net` replay.
    pub sends: Vec<SendRec>,
}

/// Where a [`TracedProtocol`] leaves its trace when the machine drops it
/// (`Machine` has no accessor for its protocol).
pub type Sink = Arc<Mutex<ProtoTrace>>;

/// The constants a send's wire size and channel derive from.
#[derive(Clone, Copy)]
struct Wire {
    header_bytes: u32,
    block_bytes: u32,
    vcs: u32,
}

pub struct TracedProtocol {
    inner: Box<dyn Protocol>,
    local: ProtoTrace,
    wire: Wire,
    sink: Sink,
}

impl TracedProtocol {
    pub fn new(inner: Box<dyn Protocol>, config: &MachineConfig, sink: Sink) -> Self {
        Self {
            inner,
            local: ProtoTrace::default(),
            wire: Wire {
                header_bytes: config.header_bytes,
                block_bytes: config.block_bytes,
                vcs: config.net.vcs,
            },
            sink,
        }
    }

    fn rewrap(&self, inner: Box<dyn Protocol>) -> Box<dyn Protocol> {
        Box::new(TracedProtocol {
            inner,
            local: ProtoTrace::default(),
            wire: self.wire,
            sink: self.sink.clone(),
        })
    }
}

impl Drop for TracedProtocol {
    fn drop(&mut self) {
        // A poisoned sink means the harness already panicked; nothing to add.
        if let Ok(mut sink) = self.sink.lock() {
            for (a, b) in sink.core.iter_mut().zip(&self.local.core) {
                a.merge(b);
            }
            for (row, local_row) in sink.ctx.iter_mut().zip(&self.local.ctx) {
                for (a, b) in row.iter_mut().zip(local_row) {
                    a.merge(b);
                }
            }
            sink.sends.append(&mut self.local.sends);
        }
    }
}

/// Run `call` against a [`TracedCtx`] over `ctx`, as one span of kind `span`.
fn core_span(
    local: &mut ProtoTrace,
    wire: Wire,
    ctx: &mut dyn ProtoCtx,
    span: usize,
    call: impl FnOnce(&mut dyn ProtoCtx),
) {
    let start = Instant::now();
    call(&mut TracedCtx {
        inner: ctx,
        aggs: &mut local.ctx[span],
        sends: &mut local.sends,
        wire,
    });
    local.core[span].stop(start);
}

impl Protocol for TracedProtocol {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        core_span(&mut self.local, self.wire, ctx, START_MISS, |t| {
            self.inner.start_miss(t, node, addr, op)
        });
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        core_span(&mut self.local, self.wire, ctx, HANDLE, |t| {
            self.inner.handle(t, node, msg)
        });
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        core_span(&mut self.local, self.wire, ctx, EVICT, |t| {
            self.inner.evict(t, node, addr, state)
        });
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        self.inner.dir_bits_per_mem_block(nodes)
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.inner.cache_bits_per_line(nodes)
    }

    fn is_update(&self) -> bool {
        self.inner.is_update()
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.inner.is_update_for(addr)
    }

    fn wants_read_hits(&self) -> bool {
        self.inner.wants_read_hits()
    }

    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        let start = Instant::now();
        self.inner.note_read_hit(node, addr);
        self.local.core[NOTE_READ_HIT].stop(start);
    }

    fn note_op_retired(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.inner.note_op_retired(node, addr, op);
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        self.rewrap(self.inner.boxed_clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.inner.fingerprint(h);
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        self.inner.relabeled(perm).map(|p| self.rewrap(p))
    }

    fn deliveries_commute(&self) -> bool {
        self.inner.deliveries_commute()
    }

    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        self.inner.check_invariants(ctx, addrs, quiescent)
    }
}

struct TracedCtx<'a> {
    inner: &'a mut dyn ProtoCtx,
    /// Indexed like [`CTX_SPANS`].
    aggs: &'a mut [Agg; 4],
    sends: &'a mut Vec<SendRec>,
    wire: Wire,
}

impl TracedCtx<'_> {
    fn log(&mut self, dst: Option<NodeId>, msg: &Msg) {
        self.sends.push(SendRec {
            now: self.inner.now(),
            src: msg.src,
            dst,
            bytes: msg
                .kind
                .wire_bytes(self.wire.header_bytes, self.wire.block_bytes),
            vc: vc_for(msg.kind.class(), self.wire.vcs),
        });
    }
}

impl ProtoCtx for TracedCtx<'_> {
    fn now(&self) -> Cycle {
        self.inner.now()
    }

    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }

    fn home_of(&self, addr: Addr) -> NodeId {
        self.inner.home_of(addr)
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.log(Some(dst), &msg);
        let start = Instant::now();
        self.inner.send(dst, msg);
        self.aggs[SEND].stop(start);
    }

    // Forwarded, not left to the default expansion: the machine's broadcast
    // is one network transaction, not n - 1 sends.
    fn broadcast(&mut self, msg: Msg) -> Cycle {
        self.log(None, &msg);
        let start = Instant::now();
        let arrival = self.inner.broadcast(msg);
        self.aggs[BROADCAST].stop(start);
        arrival
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        let start = Instant::now();
        self.inner.redeliver(node, msg, delay);
        self.aggs[REDELIVER].stop(start);
    }

    fn occupy(&mut self, node: NodeId, cycles: Cycle) {
        self.inner.occupy(node, cycles);
    }

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.inner.line_state(node, addr)
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.inner.set_line_state(node, addr, state);
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        let start = Instant::now();
        self.inner.complete(node, addr, op);
        self.aggs[COMPLETE].stop(start);
    }

    fn note(&mut self, event: ProtoEvent) {
        self.inner.note(event);
    }
}

/// Brackets `next_op`, the machine's only call into the `workloads` layer.
pub struct TracedDriver<D> {
    inner: D,
    pub next_op: Agg,
}

impl<D: Driver> TracedDriver<D> {
    pub fn new(inner: D) -> Self {
        Self {
            inner,
            next_op: Agg::default(),
        }
    }
}

impl<D: Driver> Driver for TracedDriver<D> {
    fn next_op(&mut self, node: NodeId, now: Cycle) -> DriverOp {
        let start = Instant::now();
        let op = self.inner.next_op(node, now);
        self.next_op.stop(start);
        op
    }
}
