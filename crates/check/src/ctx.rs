//! The model checker's [`ProtoCtx`]: an abstract machine with explicit
//! nondeterminism.
//!
//! Where the cycle-level machine resolves every race by timestamp, the
//! checker keeps all pending work visible — per-(src,dst) FIFO network
//! channels, per-node local redelivery queues, and not-yet-retired
//! completions — and lets the explorer pick *which* pending event fires
//! next. The network model matches the simulator's ordering guarantee:
//! messages between one (src, dst) pair arrive in send order (protocols
//! rely on this, e.g. `WbEvict` vs. a later request), but channels are
//! mutually unordered.
//!
//! Timing is erased: `now` ticks once per applied choice (so replay traces
//! read chronologically) but is excluded from the state digest, `occupy`
//! is a no-op, and `redeliver` delays collapse to FIFO order.
//!
//! **Layout.** A state is cloned for every successor the explorer
//! computes, so the context is a few flat vectors rather than a
//! collection per queue and a tag map:
//!
//! * every message in flight sits in one `Vec<(queue, Msg)>`, sorted by
//!   queue and FIFO within a queue — queue `src·n + dst` is the (src, dst)
//!   channel and `n² + node` the node's local redelivery queue (the same
//!   numbering as the `Deliver`/`Local` sleep-mask bits). A push inserts
//!   behind the queue's run, a pop removes its head, and relabeling
//!   re-tags and sorts *stably*, so FIFO order survives all three;
//! * cache tags are one node-major `Vec<LineState>` over nodes × the
//!   blocks in play, `NotPresent` meaning no tag;
//! * each node's pending completion, outstanding miss and fuel are one
//!   `Proc`;
//! * the blocks in play are an `Arc<[Addr]>` shared by every state of a
//!   search.
//!
//! **Digest.** [`CheckCtx::digest`] feeds the hasher the byte stream of
//! the map-and-deque context it replaced: the resident-tag count and then
//! `(node, addr)` and state in key order (the sorted map digest), every
//! queue's length and messages (the n² channels, then the n local
//! queues), the three per-node sequences hashed as the `Vec`s they were,
//! then the witness. Digests — and so canonical representatives, the
//! visited set and every exploration counter — are unchanged by the
//! layout; the test-only copy of the old context in `reference.rs` checks
//! that in lock step.

use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::fingerprint::Relabel;
use dirtree_core::msg::Msg;
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::verify::Verifier;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::Cycle;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// One processor's side of the abstract machine.
#[derive(Clone, Copy)]
pub(crate) struct Proc {
    /// Completion announced by the protocol but not yet retired (≤ 1 per
    /// node: each processor has at most one outstanding access).
    pub(crate) completion: Option<(Addr, OpKind)>,
    /// Outstanding processor miss.
    pub(crate) outstanding: Option<(Addr, OpKind)>,
    /// Remaining processor operations (bounds the state space).
    pub(crate) fuel: u32,
}

/// Explicit-nondeterminism protocol context.
#[derive(Clone)]
pub struct CheckCtx {
    nodes: u32,
    /// Logical step counter (one per applied choice). Not digested: it
    /// never influences the protocols under check.
    pub(crate) now: Cycle,
    /// The blocks in play, strictly ascending.
    addrs: Arc<[Addr]>,
    /// Every message in flight as `(queue, message)`, sorted by queue and
    /// FIFO within one (see the module docs for the queue numbering).
    msgs: Vec<(u32, Msg)>,
    /// Cache tags, `tags[node · |addrs| + block]`; `NotPresent` = no tag.
    tags: Vec<LineState>,
    /// Per-node processor state.
    pub(crate) procs: Vec<Proc>,
    /// The shared sequential-consistency witness.
    pub(crate) verifier: Verifier,
    /// Protocol misbehavior detected inside a `ProtoCtx` callback (which
    /// cannot return an error); surfaced by the next post-choice check.
    pub(crate) flagged: Option<String>,
    /// Send log for counterexample replay (`None` during exploration).
    pub(crate) send_log: Option<Vec<(Cycle, NodeId, Msg)>>,
}

impl CheckCtx {
    /// A drained machine over the blocks `addrs`, which must be strictly
    /// ascending (the digest relies on node-major tag order being key
    /// order).
    pub fn new(nodes: u32, fuel: u32, addrs: Arc<[Addr]>) -> Self {
        assert!(
            addrs.windows(2).all(|w| w[0] < w[1]),
            "blocks in play must be strictly ascending: {addrs:?}"
        );
        let n = nodes as usize;
        Self {
            nodes,
            now: 0,
            tags: vec![LineState::NotPresent; n * addrs.len()],
            addrs,
            msgs: Vec::new(),
            procs: vec![
                Proc {
                    completion: None,
                    outstanding: None,
                    fuel,
                };
                n
            ],
            verifier: Verifier::new(),
            flagged: None,
            send_log: None,
        }
    }

    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The blocks in play.
    pub fn addrs(&self) -> &[Addr] {
        &self.addrs
    }

    #[inline]
    fn channel(&self, src: NodeId, dst: NodeId) -> u32 {
        src * self.nodes + dst
    }

    #[inline]
    fn local_queue(&self, node: NodeId) -> u32 {
        self.nodes * self.nodes + node
    }

    /// Queue `q`'s messages, oldest first.
    fn queue(&self, q: u32) -> &[(u32, Msg)] {
        let start = self.msgs.partition_point(|&(t, _)| t < q);
        let len = self.msgs[start..].partition_point(|&(t, _)| t == q);
        &self.msgs[start..start + len]
    }

    fn push(&mut self, q: u32, msg: Msg) {
        let at = self.msgs.partition_point(|&(t, _)| t <= q);
        self.msgs.insert(at, (q, msg));
    }

    fn pop(&mut self, q: u32) -> Option<Msg> {
        let at = self.msgs.partition_point(|&(t, _)| t < q);
        if self.msgs.get(at).is_some_and(|&(t, _)| t == q) {
            Some(self.msgs.remove(at).1)
        } else {
            None
        }
    }

    /// The non-empty queues, ascending: channels in (src, dst) order, then
    /// local queues by node.
    pub(crate) fn busy_queues(&self) -> impl Iterator<Item = u32> + '_ {
        self.msgs.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0)
    }

    pub fn channel_len(&self, src: NodeId, dst: NodeId) -> usize {
        self.queue(self.channel(src, dst)).len()
    }

    pub fn peek_channel(&self, src: NodeId, dst: NodeId) -> Option<&Msg> {
        self.queue(self.channel(src, dst)).first().map(|(_, m)| m)
    }

    pub fn pop_channel(&mut self, src: NodeId, dst: NodeId) -> Option<Msg> {
        self.pop(self.channel(src, dst))
    }

    pub fn local_len(&self, node: NodeId) -> usize {
        self.queue(self.local_queue(node)).len()
    }

    pub fn peek_local(&self, node: NodeId) -> Option<&Msg> {
        self.queue(self.local_queue(node)).first().map(|(_, m)| m)
    }

    pub fn pop_local(&mut self, node: NodeId) -> Option<Msg> {
        self.pop(self.local_queue(node))
    }

    fn tag_index(&self, node: NodeId, addr: Addr) -> Option<usize> {
        let block = self.addrs.iter().position(|&a| a == addr)?;
        Some(node as usize * self.addrs.len() + block)
    }

    /// `node`'s tags, one per block in play.
    fn node_tags(&self, node: NodeId) -> &[LineState] {
        let blocks = self.addrs.len();
        &self.tags[node as usize * blocks..][..blocks]
    }

    /// Every resident tag as `(node, addr, state)`, in `(node, addr)` order.
    fn resident(&self) -> impl Iterator<Item = (NodeId, Addr, LineState)> + '_ {
        let blocks = self.addrs.len();
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, st)| **st != LineState::NotPresent)
            .map(move |(i, &st)| ((i / blocks) as NodeId, self.addrs[i % blocks], st))
    }

    pub(crate) fn set_line(&mut self, node: NodeId, addr: Addr, state: LineState) {
        let i = self
            .tag_index(node, addr)
            .expect("line outside the blocks in play");
        self.tags[i] = state;
    }

    pub(crate) fn remove_line(&mut self, node: NodeId, addr: Addr) -> Option<LineState> {
        let i = self.tag_index(node, addr)?;
        let st = std::mem::replace(&mut self.tags[i], LineState::NotPresent);
        (st != LineState::NotPresent).then_some(st)
    }

    /// Is any message or un-retired completion pending anywhere?
    pub fn has_pending_event(&self) -> bool {
        !self.msgs.is_empty() || self.procs.iter().any(|p| p.completion.is_some())
    }

    /// Fully drained: no messages, no completions, no outstanding misses.
    pub fn quiescent(&self) -> bool {
        !self.has_pending_event() && self.procs.iter().all(|p| p.outstanding.is_none())
    }

    /// Nodes (≠ `except`) currently holding a readable copy of `addr`,
    /// ascending.
    pub fn other_holders(&self, addr: Addr, except: NodeId) -> Vec<NodeId> {
        let Some(block) = self.addrs.iter().position(|&a| a == addr) else {
            return Vec::new();
        };
        let blocks = self.addrs.len();
        (0..self.nodes)
            .filter(|&n| n != except && self.tags[n as usize * blocks + block].readable())
            .collect()
    }

    /// All `(node, addr)` pairs with a readable copy, in that order.
    pub fn survivors(&self) -> Vec<(NodeId, Addr)> {
        self.resident()
            .filter(|(_, _, st)| st.readable())
            .map(|(node, addr, _)| (node, addr))
            .collect()
    }

    pub fn enable_send_log(&mut self) {
        self.send_log = Some(Vec::new());
    }

    pub fn send_log(&self) -> &[(Cycle, NodeId, Msg)] {
        self.send_log.as_deref().unwrap_or(&[])
    }

    /// The context with every node id mapped through `perm`
    /// (`perm[old] = new`): channel `(s, d)` becomes `(perm[s], perm[d])`
    /// with its messages relabeled in order, per-node queues and arrays are
    /// reindexed, cache tags move with their node, and the witness maps its
    /// copy ownership. `flagged` and `send_log` are exploration-path
    /// metadata, not state, and start clear in the clone. Used by the model
    /// checker's symmetry reduction; only meaningful alongside
    /// [`dirtree_core::protocol::Protocol::relabeled`].
    pub fn relabeled(&self, perm: &[NodeId]) -> CheckCtx {
        let n = self.nodes;
        let mut msgs: Vec<(u32, Msg)> = self
            .msgs
            .iter()
            .map(|(q, m)| {
                let q = if *q < n * n {
                    perm[(q / n) as usize] * n + perm[(q % n) as usize]
                } else {
                    n * n + perm[(q - n * n) as usize]
                };
                (q, m.relabeled(perm))
            })
            .collect();
        // Stable: one queue's messages keep their FIFO order.
        msgs.sort_by_key(|&(q, _)| q);
        let blocks = self.addrs.len();
        let mut tags = vec![LineState::NotPresent; self.tags.len()];
        let mut procs = self.procs.clone();
        for node in 0..n {
            let to = perm[node as usize] as usize;
            tags[to * blocks..][..blocks].copy_from_slice(self.node_tags(node));
            procs[to] = self.procs[node as usize];
        }
        CheckCtx {
            nodes: n,
            now: self.now,
            addrs: Arc::clone(&self.addrs),
            msgs,
            tags,
            procs,
            verifier: self.verifier.relabeled(perm),
            flagged: None,
            send_log: None,
        }
    }

    /// A hash of what tells `node` apart from the other processors
    /// *without naming any node a symmetry permutation can move*:
    /// its fuel, outstanding miss and pending completion; its resident
    /// lines as a set of `(addr, state)`; its redelivery queue as
    /// a sequence of `(addr, message kind)`; for every node `f` with
    /// `fixed[f]`, in id order, the channels `node → f` and `f → node` as
    /// such sequences; and the traffic between `node` and the non-fixed
    /// nodes as an order-free sum over them of the same channel pair's
    /// hash (which free node is at the other end is exactly what may not
    /// go in). Message payloads and `src` carry node ids and stay out;
    /// addresses never move under the group and go in.
    ///
    /// That makes it equivariant under every `σ` that fixes the `fixed`
    /// nodes — `σ(s).node_signature(σ(i)) == s.node_signature(i)` — which
    /// is all [`CheckState::canonicalize`](crate::state::CheckState::canonicalize)
    /// needs to sort by it. A hash collision between two different nodes
    /// only makes them tie there.
    pub fn node_signature(&self, node: NodeId, fixed: &[bool]) -> u64 {
        fn shape(h: &mut FxHasher, q: &[(u32, Msg)]) {
            h.write_usize(q.len());
            for (_, m) in q {
                h.write_u64(m.addr);
                std::mem::discriminant(&m.kind).hash(h);
            }
        }
        let mut h = FxHasher::default();
        let p = &self.procs[node as usize];
        p.fuel.hash(&mut h);
        p.outstanding.hash(&mut h);
        p.completion.hash(&mut h);
        // Order-free over the lines, like `with_free`.
        let mut lines = 0u64;
        for (&addr, st) in self.addrs.iter().zip(self.node_tags(node)) {
            if *st != LineState::NotPresent {
                let mut g = FxHasher::default();
                (addr, st).hash(&mut g);
                lines = lines.wrapping_add(g.finish());
            }
        }
        h.write_u64(lines);
        shape(&mut h, self.queue(self.local_queue(node)));
        let mut with_free = 0u64;
        for other in 0..self.nodes {
            let out = self.queue(self.channel(node, other));
            let back = self.queue(self.channel(other, node));
            if fixed[other as usize] {
                shape(&mut h, out);
                shape(&mut h, back);
            } else {
                let mut g = FxHasher::default();
                shape(&mut g, out);
                shape(&mut g, back);
                with_free = with_free.wrapping_add(g.finish());
            }
        }
        h.write_u64(with_free);
        h.finish()
    }

    /// Canonical digest of everything that can influence future behavior.
    /// `now`, `flagged`, and `send_log` are deliberately excluded: the
    /// first never feeds back into the protocols under check, the other
    /// two exist only on already-failing or replaying states. The byte
    /// stream is the map-and-deque context's (module docs).
    pub fn digest(&self, h: &mut dyn Hasher) {
        let mut h = h;
        h.write_u32(self.nodes);
        // The (node, addr) → state map: the count, then the entries in key
        // order.
        h.write_usize(self.resident().count());
        for (node, addr, st) in self.resident() {
            (node, addr).hash(&mut h);
            st.hash(&mut h);
        }
        // Every queue, empty ones included: its length, then its messages.
        let n = self.nodes;
        let mut runs = self.msgs.chunk_by(|a, b| a.0 == b.0).peekable();
        for q in 0..n * n + n {
            let run = runs.next_if(|run| run[0].0 == q).unwrap_or(&[]);
            h.write_usize(run.len());
            for (_, m) in run {
                m.hash(&mut h);
            }
        }
        // The per-node sequences as `Vec<_>::hash` wrote them: the length,
        // then the elements — and, for the integer `fuel`, one `write` of
        // the raw slice.
        h.write_usize(self.procs.len());
        for p in &self.procs {
            p.completion.hash(&mut h);
        }
        h.write_usize(self.procs.len());
        for p in &self.procs {
            p.outstanding.hash(&mut h);
        }
        const STACK: usize = 16;
        if self.procs.len() <= STACK {
            let mut fuel = [0u32; STACK];
            for (f, p) in fuel.iter_mut().zip(&self.procs) {
                *f = p.fuel;
            }
            fuel[..self.procs.len()].hash(&mut h);
        } else {
            let fuel: Vec<u32> = self.procs.iter().map(|p| p.fuel).collect();
            fuel.hash(&mut h);
        }
        self.verifier.digest(h);
    }
}

impl ProtoCtx for CheckCtx {
    fn now(&self) -> Cycle {
        self.now
    }

    fn num_nodes(&self) -> u32 {
        self.nodes
    }

    fn home_of(&self, addr: Addr) -> NodeId {
        (addr % self.nodes as u64) as NodeId
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        if let Some(log) = &mut self.send_log {
            log.push((self.now, dst, msg.clone()));
        }
        self.push(self.channel(msg.src, dst), msg);
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, _delay: Cycle) {
        // Local wake-up: delays collapse to per-node FIFO order.
        self.push(self.local_queue(node), msg);
    }

    fn occupy(&mut self, _node: NodeId, _cycles: Cycle) {}

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.tag_index(node, addr)
            .map_or(LineState::NotPresent, |i| self.tags[i])
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        let resident = self
            .tag_index(node, addr)
            .filter(|&i| self.tags[i] != LineState::NotPresent);
        let Some(i) = resident else {
            self.flagged = Some(format!(
                "protocol set state {state:?} on non-resident line ({node}, {addr:#x})"
            ));
            return;
        };
        if state == LineState::NotPresent {
            // A tag holding `NotPresent` would read as no tag here.
            self.flagged = Some(format!(
                "protocol set state NotPresent on resident line ({node}, {addr:#x})"
            ));
            return;
        }
        self.tags[i] = state;
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        let p = &mut self.procs[node as usize];
        if let Some(prev) = p.completion {
            self.flagged = Some(format!(
                "protocol completed ({addr:#x}, {op:?}) at node {node} while \
                 completion {prev:?} was still pending"
            ));
            return;
        }
        p.completion = Some((addr, op));
    }

    fn note(&mut self, _event: ProtoEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::msg::MsgKind;

    fn msg(src: NodeId, addr: Addr) -> Msg {
        Msg {
            addr,
            src,
            kind: MsgKind::ReadReq { requester: src },
        }
    }

    fn ctx(nodes: u32) -> CheckCtx {
        CheckCtx::new(nodes, 2, vec![0].into())
    }

    #[test]
    fn channels_are_per_pair_fifo() {
        let mut c = ctx(3);
        c.send(1, msg(0, 10));
        c.send(1, msg(0, 11));
        c.send(1, msg(2, 12));
        assert_eq!(c.channel_len(0, 1), 2);
        assert_eq!(c.channel_len(2, 1), 1);
        assert_eq!(c.pop_channel(0, 1).unwrap().addr, 10);
        assert_eq!(c.pop_channel(0, 1).unwrap().addr, 11);
        assert_eq!(c.pop_channel(2, 1).unwrap().addr, 12);
        assert!(c.quiescent());
    }

    #[test]
    fn digest_ignores_now_but_not_messages() {
        fn d(c: &CheckCtx) -> u64 {
            let mut h = dirtree_sim::hash::FxHasher::default();
            c.digest(&mut h);
            h.finish()
        }
        let mut a = ctx(2);
        let mut b = ctx(2);
        a.now = 57;
        assert_eq!(d(&a), d(&b));
        b.send(1, msg(0, 5));
        assert_ne!(d(&a), d(&b));
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut c = ctx(2);
        c.complete(0, 1, OpKind::Read);
        assert!(c.flagged.is_none());
        c.complete(0, 1, OpKind::Read);
        assert!(c.flagged.is_some());
    }

    fn ctx_digest(digest: impl FnOnce(&mut dyn Hasher)) -> u64 {
        let mut h = FxHasher::default();
        digest(&mut h);
        h.finish()
    }

    /// Lock step against the map-and-deque context ([`reference`]) on
    /// seeded random walks (back to the root on a dead end) over the six
    /// `check_mix` shapes, FullMap at P=4 with two blocks homed at node 0,
    /// and LimitLESS2 at P=4, whose gate deferrals fill the local queues.
    /// Each side runs its own copy of the protocol through its own
    /// transition function. Before every step both must agree on the
    /// enabled choices, the context digest and the whole-state digest,
    /// every queue's length and head, `other_holders` for every
    /// `(addr, node)`, the survivors, every node signature, and the
    /// context digest of `relabeled(π)` for every `π` in the group.
    ///
    /// Fails when a push lands at the front of its queue's run
    /// (`partition_point(q' < q)`) and when `relabeled` does not keep each
    /// queue's order through the sort.
    #[test]
    fn flat_context_matches_the_map_and_deque_reference_in_lock_step() {
        use crate::explore::CheckConfig;
        use crate::state::CheckState;
        use dirtree_core::fingerprint::home_fixing_perms;
        use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
        use dirtree_sim::SimRng;
        use reference::{RefCtx, RefState};

        let tree = |pointers, arity| ProtocolKind::DirTree { pointers, arity };
        let update = |pointers, arity| ProtocolKind::DirTreeUpdate { pointers, arity };
        let adaptive = |pointers, arity| ProtocolKind::DirTreeAdaptive { pointers, arity };
        let shapes = [
            (ProtocolKind::FullMap, 2, 2, 1),
            (tree(2, 2), 2, 2, 1),
            (adaptive(2, 2), 2, 2, 1),
            (update(1, 2), 3, 1, 1),
            (update(3, 3), 5, 1, 1),
            (adaptive(3, 3), 5, 1, 1),
            (ProtocolKind::FullMap, 4, 2, 4),
            (ProtocolKind::LimitLess { pointers: 2 }, 4, 1, 1),
        ];
        let (mut longest_queue, mut local_steps) = (0usize, 0u32);
        for (seed, (kind, nodes, blocks, stride)) in shapes.into_iter().enumerate() {
            let name = format!("{} P={nodes} B={blocks}", kind.name());
            let cfg = CheckConfig {
                addr_stride: stride,
                ..CheckConfig::small(nodes, blocks)
            };
            let addrs = cfg.addrs();
            let root = CheckState::new(
                nodes,
                cfg.fuel,
                addrs.clone(),
                build_protocol(kind, ProtocolParams::default()),
            );
            let ref_root = RefState {
                ctx: RefCtx::new(nodes, cfg.fuel),
                proto: root.proto.boxed_clone(),
                addrs: addrs.clone(),
            };
            let homes: Vec<NodeId> = addrs.iter().map(|&a| root.ctx.home_of(a)).collect();
            let perms = home_fixing_perms(nodes, &homes);
            let fixed: Vec<bool> = (0..nodes).map(|i| homes.contains(&i)).collect();
            let mut rng = SimRng::new(1996 + seed as u64);
            let (mut flat, mut reference) = (root.clone(), ref_root.clone());
            for step in 0..2_000 {
                let (f, r) = (&flat.ctx, &reference.ctx);
                let at = format!("{name} step {step}");
                let choices = flat.enabled_choices();
                assert_eq!(choices, reference.enabled_choices(), "{at}: choices");
                assert_eq!(
                    ctx_digest(|h| f.digest(h)),
                    ctx_digest(|h| r.digest(h)),
                    "{at}: context digest"
                );
                assert_eq!(flat.digest(), reference.digest(), "{at}: state digest");
                for src in 0..nodes {
                    for dst in 0..nodes {
                        let len = f.channel_len(src, dst);
                        assert_eq!(len, r.channel_len(src, dst), "{at}: {src}->{dst} length");
                        assert_eq!(
                            f.peek_channel(src, dst),
                            r.peek_channel(src, dst),
                            "{at}: {src}->{dst} head"
                        );
                        longest_queue = longest_queue.max(len);
                    }
                }
                for node in 0..nodes {
                    let len = f.local_len(node);
                    assert_eq!(len, r.local_len(node), "{at}: local {node} length");
                    assert_eq!(
                        f.peek_local(node),
                        r.peek_local(node),
                        "{at}: local {node} head"
                    );
                    local_steps += u32::from(len > 0);
                    longest_queue = longest_queue.max(len);
                    assert_eq!(
                        f.node_signature(node, &fixed),
                        r.node_signature(node, &fixed),
                        "{at}: signature of {node}"
                    );
                    for &addr in &addrs {
                        assert_eq!(
                            f.other_holders(addr, node),
                            r.other_holders(addr, node),
                            "{at}: holders of {addr:#x} other than {node}"
                        );
                    }
                }
                let mut survivors = r.survivors();
                survivors.sort_unstable();
                assert_eq!(f.survivors(), survivors, "{at}: survivors");
                for perm in &perms {
                    assert_eq!(
                        ctx_digest(|h| f.relabeled(perm).digest(h)),
                        ctx_digest(|h| r.relabeled(perm).digest(h)),
                        "{at}: relabeled through {perm:?}"
                    );
                }
                if choices.is_empty() {
                    (flat, reference) = (root.clone(), ref_root.clone());
                    continue;
                }
                let choice = choices[rng.gen_index(choices.len())];
                let applied = flat.apply(choice);
                assert_eq!(applied, reference.apply(choice), "{at}: {choice:?}");
                applied.unwrap_or_else(|v| panic!("{at}: walk hit a violation: {v}"));
            }
        }
        assert!(
            longest_queue >= 2,
            "no queue ever held two messages: FIFO order went unchecked"
        );
        assert!(local_steps > 0, "no walk ever used a local queue");
    }

    /// The walks above never have more than a handful of messages in
    /// flight, and below 21 elements std's unstable sort is an insertion
    /// sort — as stable as the stable one. Here 48 messages, several per
    /// queue, go through every renaming of four nodes; the order within
    /// each queue must survive as it does in the reference.
    #[test]
    fn relabeling_keeps_long_queues_in_order() {
        use dirtree_core::fingerprint::home_fixing_perms;
        use dirtree_sim::SimRng;
        use reference::RefCtx;

        let mut flat = ctx(4);
        let mut reference = RefCtx::new(4, 2);
        let mut rng = SimRng::new(1996);
        for addr in 0..48 {
            let (src, dst) = (rng.gen_index(4) as NodeId, rng.gen_index(4) as NodeId);
            if addr % 5 == 0 {
                flat.redeliver(dst, msg(src, addr), 1);
                reference.redeliver(dst, msg(src, addr), 1);
            } else {
                flat.send(dst, msg(src, addr));
                reference.send(dst, msg(src, addr));
            }
        }
        for perm in home_fixing_perms(4, &[]) {
            assert_eq!(
                ctx_digest(|h| flat.relabeled(&perm).digest(h)),
                ctx_digest(|h| reference.relabeled(&perm).digest(h)),
                "relabeled through {perm:?}"
            );
        }
    }
}
