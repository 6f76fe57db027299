//! The machine core: event queue, network, caches, memory controllers, and
//! the [`ProtoCtx`] implementation protocols act through.
//!
//! Split from [`crate::machine::Machine`] so the protocol (owned by the
//! machine) can borrow the rest of the state mutably while handling a
//! message.

use crate::config::{MachineConfig, CACHE_LATENCY};
use crate::stats::MachineStats;
use crate::trace::MsgTrace;
use dirtree_core::cache::{AllocOutcome, Cache};
use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::msg::{Msg, MsgKind};
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::verify::Verifier;
use dirtree_net::{vc_for, Network};
use dirtree_sim::metrics::{Metrics, MsgClass};
use dirtree_sim::{BlockTable, Cycle, EventQueue};
use std::collections::VecDeque;

/// A protocol send waiting for a `(node, VC)` injection credit (bounded
/// output buffering, `net.vc_credits > 0`). Parked sends hold no network
/// resources; they are dispatched FIFO per channel as credits free up (the
/// channel is the queue the send sits in, see `MachineCore::parked`).
struct ParkedSend {
    dst: NodeId,
    msg: Msg,
    /// Flit-granularity credit cost of the message
    /// ([`dirtree_net::NetworkConfig::flit_cost`]); the send dispatches
    /// only when the channel pool can cover all of it.
    cost: u32,
    /// Whether the send was issued by a controller handler (inside the
    /// `ctrl_take`/`ctrl_finish` bracket). A handler with parked output
    /// gates its controller: it holds its input message — and that
    /// message's credit — until the output is accepted, which is exactly
    /// the finite-buffer coupling that lets request/reply cycles deadlock
    /// on a single channel.
    from_handler: bool,
}

/// Machine events.
#[derive(Debug)]
pub enum Ev {
    /// Processor `n` is ready to issue (or retry) an operation.
    Proc(NodeId),
    /// A message reached node `n` (enqueue at its controller).
    Deliver(NodeId, Msg),
    /// Node `n`'s controller finished the occupancy of its queue head.
    CtrlExec(NodeId),
    /// The outstanding access of processor `n` completed.
    OpDone(NodeId, Addr, OpKind),
}

// Paid on every queue write, batch read and controller hand-off; see
// DESIGN.md §6, "Message layout".
const _: () = assert!(std::mem::size_of::<Ev>() <= 48);

pub struct MachineCore {
    pub config: MachineConfig,
    pub queue: EventQueue<Ev>,
    pub net: Network,
    /// One cache per node. Private: every change to a line's state goes
    /// through the methods below, which keep `readable` in step.
    caches: Vec<Cache>,
    /// Readable (`V` or `E`) copies of each block over all caches, adjusted
    /// wherever a line's `readable()` flips — what a write miss's sharer
    /// count reads instead of probing every cache.
    readable: BlockTable<u32>,
    pub stats: MachineStats,
    pub verifier: Option<Verifier>,
    /// Observability sink fed by the shared send hook below. A zero-sized
    /// no-op unless the `trace` feature is on.
    pub metrics: Metrics,
    /// Optional structured event trace (Chrome-trace export), also fed by
    /// the send hook.
    pub trace_sink: Option<MsgTrace>,
    /// Address and issue time of each node's outstanding miss (latency
    /// accounting). One slot per node: a processor blocks on its miss.
    pending_miss: Vec<Option<(Addr, Cycle)>>,
    ctrl_q: Vec<VecDeque<Msg>>,
    ctrl_free: Vec<Cycle>,
    ctrl_scheduled: Vec<bool>,
    /// Extra occupancy requested by the currently running handler.
    ctrl_extra: Cycle,
    /// Total busy cycles per controller (hot-spot diagnostics).
    ctrl_busy: Vec<Cycle>,
    /// Per-(node, VC) injection credits in *flits*, laid out
    /// `node * vcs + vc`; empty when sends are unbounded
    /// (`net.vc_credits == 0`, the default). A send debits its
    /// [`dirtree_net::NetworkConfig::flit_cost`], so a block-carrying
    /// packet occupies buffer space proportional to its length instead of
    /// counting as one unit like a header-only control message.
    credits: Vec<u32>,
    /// Sends parked per (node, VC), waiting for enough credit on their
    /// channel; laid out `node * vcs + vc` like `credits`, so each queue is
    /// one channel's FIFO.
    parked: Vec<VecDeque<ParkedSend>>,
    /// Handler-originated parked sends per node; while > 0 the node's
    /// controller is gated (see [`ParkedSend::from_handler`]).
    handler_parked: Vec<u32>,
    /// Credit release deferred by a gated controller: the
    /// `(src, vc, cost)` of the message whose handling finished while its
    /// output was parked.
    deferred_release: Vec<Option<(NodeId, u32, u32)>>,
    /// `(src, vc, cost)` of the message currently inside each node's
    /// `ctrl_take`/`ctrl_finish` bracket, credited back at finish.
    in_flight: Vec<Option<(NodeId, u32, u32)>>,
    /// Node whose controller handler is currently executing (distinguishes
    /// handler sends from processor-side sends for parking).
    current_ctrl: Option<NodeId>,
    /// Worklist of [`MachineCore::release_credit`]: one machine-lifetime
    /// buffer instead of one `Vec` per retired message. Empty between calls.
    release_scratch: Vec<(NodeId, u32, u32)>,
}

impl MachineCore {
    pub fn new(config: MachineConfig) -> Self {
        let n = config.nodes as usize;
        let pools = n * config.net.vc_count() as usize;
        Self {
            // One pending wake-up per processor plus about one message
            // each: the measured peak depth is P + 1 at P >= 512 and about
            // 5 P at P = 64, which the slab reaches by doubling.
            queue: EventQueue::with_capacity(2 * n),
            net: Network::new(config.topology.build(config.nodes), config.net),
            caches: (0..n).map(|_| Cache::new(config.cache)).collect(),
            readable: BlockTable::new(),
            stats: MachineStats::default(),
            verifier: config.verify.then(Verifier::new),
            metrics: Metrics::default(),
            trace_sink: None,
            pending_miss: vec![None; n],
            ctrl_q: (0..n).map(|_| VecDeque::new()).collect(),
            ctrl_free: vec![0; n],
            ctrl_scheduled: vec![false; n],
            ctrl_extra: 0,
            ctrl_busy: vec![0; n],
            // Empty (unbounded) unless the config bounds sends.
            credits: if config.net.vc_credits == 0 {
                Vec::new()
            } else {
                vec![config.net.vc_credits; pools]
            },
            parked: (0..pools).map(|_| VecDeque::new()).collect(),
            handler_parked: vec![0; n],
            deferred_release: vec![None; n],
            in_flight: vec![None; n],
            current_ctrl: None,
            release_scratch: Vec::new(),
            config,
        }
    }

    /// Controller occupancy for a message: directory-bound messages pay the
    /// memory access latency, cache-bound ones the cache latency.
    fn occupancy(&self, msg: &Msg) -> Cycle {
        if msg.kind.to_directory() {
            self.config.mem_latency
        } else {
            CACHE_LATENCY
        }
    }

    /// Enqueue a delivered message and make sure the controller will run.
    pub fn deliver(&mut self, node: NodeId, msg: Msg) {
        self.ctrl_q[node as usize].push_back(msg);
        self.schedule_ctrl(node);
    }

    fn schedule_ctrl(&mut self, node: NodeId) {
        let n = node as usize;
        if self.ctrl_scheduled[n] || self.ctrl_q[n].is_empty() {
            return;
        }
        if self.handler_parked[n] > 0 {
            // The controller's last output is still parked on a full
            // channel: it holds its input until the output is accepted
            // (re-scheduled by `release_credit` when the park drains).
            return;
        }
        let occ = self.occupancy(self.ctrl_q[n].front().unwrap());
        let start = self.queue.now().max(self.ctrl_free[n]);
        let done = start + occ;
        self.ctrl_busy[n] += occ;
        self.ctrl_free[n] = done;
        self.ctrl_scheduled[n] = true;
        self.queue.push(done, Ev::CtrlExec(node));
    }

    /// Pop the head message whose occupancy elapsed; the caller runs the
    /// protocol handler and then calls [`MachineCore::ctrl_finish`].
    pub fn ctrl_take(&mut self, node: NodeId) -> Msg {
        let n = node as usize;
        debug_assert!(self.ctrl_scheduled[n]);
        self.ctrl_scheduled[n] = false;
        self.ctrl_extra = 0;
        let msg = self.ctrl_q[n]
            .pop_front()
            .expect("CtrlExec with empty queue");
        if !self.credits.is_empty() {
            self.current_ctrl = Some(node);
            if msg.src != node {
                // Remember whose credit this message consumed; it is
                // released when the handler finishes (or deferred if the
                // handler's own output parks).
                let vc = vc_for(msg.kind.class(), self.config.net.vcs);
                self.in_flight[n] = Some((msg.src, vc, self.flit_cost(&msg)));
            }
        }
        msg
    }

    /// Flit-granularity credit cost of a message (only meaningful when
    /// sends are credit-bounded).
    fn flit_cost(&self, msg: &Msg) -> u32 {
        let bytes = msg
            .kind
            .wire_bytes(self.config.header_bytes, self.config.block_bytes);
        self.config.net.flit_cost(bytes)
    }

    /// Apply handler-requested extra occupancy and schedule the next
    /// message if any.
    pub fn ctrl_finish(&mut self, node: NodeId) {
        let n = node as usize;
        if self.ctrl_extra > 0 {
            self.ctrl_busy[n] += self.ctrl_extra;
            self.ctrl_free[n] = self.queue.now() + self.ctrl_extra;
            self.ctrl_extra = 0;
        }
        if !self.credits.is_empty() {
            self.current_ctrl = None;
            let release = self.in_flight[n].take();
            if self.handler_parked[n] > 0 {
                // The handler's output is parked: hold the input message's
                // credit (and the controller) until the channel accepts
                // it. With request and reply sharing one channel this is
                // the cyclic-wait edge of the request/reply deadlock.
                self.deferred_release[n] = release;
                return;
            }
            if let Some((src, vc, cost)) = release {
                self.release_credit(src, vc, cost);
            }
        }
        self.schedule_ctrl(node);
    }

    /// Return `cost` flits of `(node, vc)` credit, then drain that node's
    /// parked sends on the channel — oldest first, stopping at the first
    /// one the pool cannot cover, so per-channel FIFO order (and the
    /// per-(src, dst) delivery order protocols rely on) is preserved.
    /// Dispatching a parked handler send can un-gate its controller and
    /// trigger *its* deferred release, so the cascade runs on an explicit
    /// worklist.
    fn release_credit(&mut self, node: NodeId, vc: u32, cost: u32) {
        let vcs = self.config.net.vc_count() as usize;
        let mut work = std::mem::take(&mut self.release_scratch);
        work.push((node, vc, cost));
        while let Some((node, vc, cost)) = work.pop() {
            let n = node as usize;
            let channel = n * vcs + vc as usize;
            self.credits[channel] += cost;
            while let Some(front) = self.parked[channel].front() {
                if self.credits[channel] < front.cost {
                    break;
                }
                self.credits[channel] -= front.cost;
                let p = self.parked[channel].pop_front().expect("front() was Some");
                if p.from_handler {
                    self.handler_parked[n] -= 1;
                    if self.handler_parked[n] == 0 {
                        if let Some(r) = self.deferred_release[n].take() {
                            work.push(r);
                        }
                        self.schedule_ctrl(node);
                    }
                }
                self.dispatch_send(p.dst, p.msg, vc);
            }
        }
        self.release_scratch = work;
    }

    /// Put a message on the wire and schedule its delivery — the tail of
    /// [`ProtoCtx::send`], shared with credit-release dispatch of parked
    /// sends.
    fn dispatch_send(&mut self, dst: NodeId, msg: Msg, vc: u32) {
        let bytes = msg
            .kind
            .wire_bytes(self.config.header_bytes, self.config.block_bytes);
        let arrival = self.net.send_vc(self.queue.now(), msg.src, dst, bytes, vc);
        self.stats.messages += 1;
        if matches!(msg.kind, MsgKind::FillAck) {
            self.stats.fill_acks += 1;
        }
        self.stats.bytes += bytes as u64;
        self.record_msg(dst, &msg, bytes, arrival);
        self.queue.push(arrival, Ev::Deliver(dst, msg));
    }

    /// Parked sends as `(node, description)`, in node-then-channel order
    /// (oldest first within a channel) — actionable context for
    /// [`crate::machine::StallError::Deadlock`] reports.
    pub fn parked_summary(&self) -> Vec<(u32, String)> {
        let vcs = self.config.net.vc_count() as usize;
        self.parked
            .iter()
            .enumerate()
            .flat_map(|(channel, q)| {
                q.iter().map(move |p| {
                    (
                        (channel / vcs) as u32,
                        format!(
                            "{} -> node {} on vc {} ({})",
                            p.msg.kind.label(),
                            p.dst,
                            channel % vcs,
                            if p.from_handler {
                                "handler output, controller gated"
                            } else {
                                "processor request"
                            }
                        ),
                    )
                })
            })
            .collect()
    }

    /// Readable copies of `addr` held by nodes other than `except`,
    /// appended to the caller's scratch buffer — the write-verification
    /// paths reuse one buffer per machine instead of allocating a `Vec`
    /// per checked write (the [`Verifier`] consumes `&[NodeId]` views).
    pub fn other_holders_into(&self, addr: Addr, except: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            (0..self.config.nodes)
                .filter(|&m| m != except && self.caches[m as usize].state(addr).readable()),
        );
    }

    /// Number of readable copies of `addr` outside `except` (per-write
    /// sharer stats on the hot path): the block's readable-copy count less
    /// `except`'s own copy, O(1). Debug builds check it against a scan of
    /// every cache.
    pub fn count_other_holders(&self, addr: Addr, except: NodeId) -> u64 {
        let all = self.readable.get(addr).copied().unwrap_or(0);
        let own = self.caches[except as usize].state(addr).readable();
        let others = u64::from(all) - u64::from(own);
        debug_assert_eq!(
            others,
            (0..self.config.nodes)
                .filter(|&m| m != except && self.caches[m as usize].state(addr).readable())
                .count() as u64,
            "readable-copy count of block {addr:#x} drifted from the caches"
        );
        others
    }

    /// Keep `readable` in step with one line's state change.
    #[inline]
    fn note_readable(&mut self, addr: Addr, was: LineState, now: LineState) {
        match (was.readable(), now.readable()) {
            (false, true) => *self.readable.get_mut_or_grow(addr) += 1,
            (true, false) => *self.readable.get_mut_or_grow(addr) -= 1,
            _ => {}
        }
    }

    /// Processor `node` accesses `addr`: the line's state, marked
    /// most-recently-used iff the access hits ([`Cache::access`]).
    #[inline]
    pub fn access_line(&mut self, node: NodeId, addr: Addr, write: bool) -> LineState {
        self.caches[node as usize].access(addr, write)
    }

    /// Allocate a line for `addr` in `node`'s cache ([`Cache::allocate`]).
    /// A displaced readable victim stops counting as a copy here; the
    /// caller runs the protocol's replacement action for it.
    pub fn allocate_line(&mut self, node: NodeId, addr: Addr) -> AllocOutcome {
        let outcome = self.caches[node as usize].allocate(addr);
        if let AllocOutcome::Evicted { victim, state } = outcome {
            self.note_readable(victim, state, LineState::Iv);
        }
        outcome
    }

    /// Record that `node` blocks on a miss to `addr` issued now: the line
    /// enters `transient` and becomes most-recently-used (one lookup), and
    /// the miss is stamped for [`MachineCore::retire_miss`].
    ///
    /// # Panics
    /// Panics if the node already has a miss outstanding — a processor
    /// blocks on its miss, so a second one is a machine bug.
    pub fn enter_miss(&mut self, node: NodeId, addr: Addr, transient: LineState) {
        let slot = &mut self.pending_miss[node as usize];
        if let Some((blocked_on, _)) = *slot {
            panic!(
                "processor {node} began a miss on {addr:#x} while blocked on \
                 its miss on {blocked_on:#x}"
            );
        }
        *slot = Some((addr, self.queue.now()));
        let was = self.caches[node as usize].set_state_mru(addr, transient);
        self.note_readable(addr, was, transient);
    }

    /// Address and issue time of `node`'s outstanding miss, if any.
    pub fn pending_miss(&self, node: NodeId) -> Option<(Addr, Cycle)> {
        self.pending_miss[node as usize]
    }

    /// The outstanding miss of `node` completed: its latency in cycles.
    ///
    /// # Panics
    /// Panics unless the node's outstanding miss is the one on `addr`.
    pub fn retire_miss(&mut self, node: NodeId, addr: Addr) -> Cycle {
        match self.pending_miss[node as usize].take() {
            Some((missed, issued)) if missed == addr => self.queue.now() - issued,
            other => panic!(
                "access to {addr:#x} completed at processor {node}, whose \
                 outstanding miss is {other:?}"
            ),
        }
    }

    /// `(addr, copies)` for every block with a non-zero readable-copy
    /// count; must agree with a scan of [`MachineCore::survivors`].
    #[cfg(test)]
    pub(crate) fn readable_counts(&self) -> impl Iterator<Item = (Addr, u32)> + '_ {
        self.readable.iter_nonempty().map(|(a, c)| (a, *c))
    }

    /// Busy cycles per memory/cache controller (hot-spot diagnostics).
    pub fn controller_busy(&self) -> &[Cycle] {
        &self.ctrl_busy
    }

    /// The single observability hook: every protocol message flows
    /// through here (from [`ProtoCtx::send`]), so no protocol carries its
    /// own instrumentation. With the `trace` feature off, [`Metrics`] is a
    /// no-op ZST and `trace_sink` stays `None`, so this reduces to one
    /// untaken branch.
    fn record_msg(&mut self, dst: NodeId, msg: &Msg, bytes: u32, arrival: Cycle) {
        let class = msg.kind.class();
        self.metrics
            .on_msg(class, msg.addr, bytes as u64, msg.kind.to_directory());
        if class == MsgClass::Inv {
            // Wave-depth accounting: the tree level a message is received
            // at. Directory protocols flag home-originated waves
            // explicitly; list protocols start chains at the writer.
            let from_home = match &msg.kind {
                MsgKind::Inv { from_dir, .. } | MsgKind::Update { from_dir, .. } => *from_dir,
                _ => msg.src == (msg.addr % self.config.nodes as u64) as NodeId,
            };
            self.metrics.on_inv(msg.addr, msg.src, dst, from_home);
        }
        if matches!(
            msg.kind,
            MsgKind::InvAck { dir: true } | MsgKind::UpdateAck { dir: true }
        ) {
            self.metrics.on_home_ack(msg.addr);
        }
        let now = self.queue.now();
        if let Some(t) = self.trace_sink.as_mut() {
            t.record_timed(now, arrival, dst, msg);
        }
    }

    /// All surviving readable copies (for the final verification pass).
    /// Lazily iterated — no collection is materialized.
    pub fn survivors(&self) -> impl Iterator<Item = (NodeId, Addr)> + '_ {
        self.caches.iter().enumerate().flat_map(|(n, cache)| {
            cache
                .resident()
                .filter(|(_, st)| st.readable())
                .map(move |(addr, _)| (n as NodeId, addr))
        })
    }
}

impl ProtoCtx for MachineCore {
    fn now(&self) -> Cycle {
        self.queue.now()
    }

    fn num_nodes(&self) -> u32 {
        self.config.nodes
    }

    fn home_of(&self, addr: Addr) -> NodeId {
        // Shared memory is interleaved across the nodes' memory modules.
        (addr % self.config.nodes as u64) as NodeId
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        let vc = vc_for(msg.kind.class(), self.config.net.vcs);
        if !self.credits.is_empty() && msg.src != dst {
            // A send must park when the pool cannot cover its flit cost —
            // and also when older sends are already parked on the channel,
            // so a short message never overtakes a longer parked one
            // (per-channel FIFO keeps the (src, dst) delivery order
            // protocols rely on). A park from inside a handler
            // additionally gates the node's controller — the handler
            // cannot retire until its output is on the wire.
            let cost = self.flit_cost(&msg);
            let channel = msg.src as usize * self.config.net.vc_count() as usize + vc as usize;
            if !self.parked[channel].is_empty() || self.credits[channel] < cost {
                let from_handler = self.current_ctrl == Some(msg.src);
                if from_handler {
                    self.handler_parked[msg.src as usize] += 1;
                }
                self.parked[channel].push_back(ParkedSend {
                    dst,
                    msg,
                    cost,
                    from_handler,
                });
                return;
            }
            self.credits[channel] -= cost;
        }
        self.dispatch_send(dst, msg, vc);
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        self.queue
            .push(self.queue.now() + delay, Ev::Deliver(node, msg));
    }

    fn occupy(&mut self, _node: NodeId, cycles: Cycle) {
        self.ctrl_extra += cycles;
    }

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.caches[node as usize].state(addr)
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        let was = self.caches[node as usize].set_state(addr, state);
        self.note_readable(addr, was, state);
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        let fill = self.queue.now() + CACHE_LATENCY;
        self.queue.push(fill, Ev::OpDone(node, addr, op));
    }

    fn note(&mut self, event: ProtoEvent) {
        self.stats.note(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2-node core with 64-bit links so an 8-byte control header is one
    /// flit and a 16-byte data packet is two, and a `credits`-flit pool.
    fn core_with_credits(credits: u32) -> MachineCore {
        let mut cfg = MachineConfig::paper_default(2);
        cfg.net.link_width_bits = 64;
        cfg.net.vc_credits = credits;
        MachineCore::new(cfg)
    }

    fn control(src: NodeId) -> Msg {
        Msg {
            addr: 0,
            src,
            kind: MsgKind::ReadReq { requester: src },
        }
    }

    fn data(src: NodeId) -> Msg {
        Msg {
            addr: 0,
            src,
            kind: MsgKind::WbEvict,
        }
    }

    #[test]
    fn flit_cost_scales_with_length_and_clamps_to_pool() {
        let core = core_with_credits(2);
        assert_eq!(core.flit_cost(&control(0)), 1);
        assert_eq!(core.flit_cost(&data(0)), 2);
        // A packet longer than the whole pool takes the full pool.
        assert_eq!(core_with_credits(1).flit_cost(&data(0)), 1);
    }

    #[test]
    fn long_packet_cannot_overcommit_a_credited_channel() {
        // Pool of 2 flits: one control send leaves 1 flit, which cannot
        // cover a 2-flit data packet — under the old whole-message
        // accounting both would have been dispatched.
        let mut core = core_with_credits(2);
        core.send(1, control(0));
        assert_eq!(core.stats.messages, 1);
        core.send(1, data(0));
        assert_eq!(
            core.stats.messages, 1,
            "2-flit send into 1 free flit must park"
        );
        assert_eq!(core.parked_summary().len(), 1);
        // Returning the control flit makes the data packet affordable.
        core.release_credit(0, 0, 1);
        assert_eq!(core.stats.messages, 2);
        assert!(core.parked_summary().is_empty());
        assert_eq!(
            core.credits[0], 0,
            "pool exactly drained by the 2-flit packet"
        );
    }

    #[test]
    fn short_send_does_not_overtake_a_parked_long_one() {
        let mut core = core_with_credits(2);
        core.send(1, data(0)); // dispatched, pool 0
        core.send(1, data(0)); // parks (cost 2)
        core.send(1, control(0)); // must queue behind it, not sneak into a freed flit
        assert_eq!(core.stats.messages, 1);
        assert_eq!(core.parked_summary().len(), 2);
        core.release_credit(0, 0, 1);
        assert_eq!(
            core.stats.messages, 1,
            "1 free flit covers the control send but the older 2-flit park goes first"
        );
        core.release_credit(0, 0, 1);
        assert_eq!(
            core.stats.messages, 2,
            "2 free flits cover exactly the older data packet"
        );
        core.release_credit(0, 0, 1);
        assert_eq!(core.stats.messages, 3, "the control send drains last");
        assert_eq!(core.credits[0], 0);
    }

    /// Park queues are per (node, VC): two channels parked at one node
    /// drain independently, each on its own credit.
    #[test]
    fn returned_credit_drains_only_its_own_channel() {
        let mut cfg = MachineConfig::paper_default(2);
        cfg.net.link_width_bits = 64;
        cfg.net.vcs = 3;
        cfg.net.vc_credits = 1;
        let mut core = MachineCore::new(cfg);
        let ack = |src| Msg {
            addr: 0,
            src,
            kind: MsgKind::FillAck,
        };
        // One request (VC 0) and one ack (VC 2) take the single flit of
        // their pools; the second of each parks.
        core.send(1, control(0));
        core.send(1, control(0));
        core.send(1, ack(0));
        core.send(1, ack(0));
        assert_eq!(core.stats.messages, 2);
        let parked = core.parked_summary();
        assert_eq!(parked.len(), 2);
        assert!(parked[0].1.contains("on vc 0") && parked[1].1.contains("on vc 2"));
        // Credit back on the ack channel: the ack goes, the request stays.
        core.release_credit(0, 2, 1);
        assert_eq!(core.stats.messages, 3);
        assert_eq!(core.stats.fill_acks, 2);
        let parked = core.parked_summary();
        assert_eq!(parked.len(), 1);
        assert!(parked[0].1.contains("on vc 0"), "{parked:?}");
        core.release_credit(0, 0, 1);
        assert_eq!(core.stats.messages, 4);
        assert!(core.parked_summary().is_empty());
    }
}
