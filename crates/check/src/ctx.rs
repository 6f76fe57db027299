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

use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::fingerprint::digest_map;
use dirtree_core::msg::Msg;
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::verify::Verifier;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Explicit-nondeterminism protocol context.
#[derive(Clone)]
pub struct CheckCtx {
    nodes: u32,
    /// Logical step counter (one per applied choice). Not digested: it
    /// never influences the protocols under check.
    pub(crate) now: Cycle,
    /// Per-(src, dst) FIFO channels, indexed `src * nodes + dst`.
    channels: Vec<VecDeque<Msg>>,
    /// Per-node local redelivery queues (`ProtoCtx::redeliver`).
    local: Vec<VecDeque<Msg>>,
    /// All resident cache tags.
    lines: FxHashMap<(NodeId, Addr), LineState>,
    /// Completion announced by the protocol but not yet retired (≤ 1 per
    /// node: each processor has at most one outstanding access).
    pub(crate) completion: Vec<Option<(Addr, OpKind)>>,
    /// Outstanding processor miss per node.
    pub(crate) outstanding: Vec<Option<(Addr, OpKind)>>,
    /// Remaining processor operations per node (bounds the state space).
    pub(crate) fuel: Vec<u32>,
    /// The shared sequential-consistency witness.
    pub(crate) verifier: Verifier,
    /// Protocol misbehavior detected inside a `ProtoCtx` callback (which
    /// cannot return an error); surfaced by the next post-choice check.
    pub(crate) flagged: Option<String>,
    /// Send log for counterexample replay (`None` during exploration).
    pub(crate) send_log: Option<Vec<(Cycle, NodeId, Msg)>>,
}

impl CheckCtx {
    pub fn new(nodes: u32, fuel: u32) -> Self {
        let n = nodes as usize;
        Self {
            nodes,
            now: 0,
            channels: vec![VecDeque::new(); n * n],
            local: vec![VecDeque::new(); n],
            lines: FxHashMap::default(),
            completion: vec![None; n],
            outstanding: vec![None; n],
            fuel: vec![fuel; n],
            verifier: Verifier::new(),
            flagged: None,
            send_log: None,
        }
    }

    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    #[inline]
    fn ch(&self, src: NodeId, dst: NodeId) -> usize {
        src as usize * self.nodes as usize + dst as usize
    }

    pub fn channel_len(&self, src: NodeId, dst: NodeId) -> usize {
        self.channels[self.ch(src, dst)].len()
    }

    pub fn peek_channel(&self, src: NodeId, dst: NodeId) -> Option<&Msg> {
        self.channels[self.ch(src, dst)].front()
    }

    pub fn pop_channel(&mut self, src: NodeId, dst: NodeId) -> Option<Msg> {
        let i = self.ch(src, dst);
        self.channels[i].pop_front()
    }

    pub fn local_len(&self, node: NodeId) -> usize {
        self.local[node as usize].len()
    }

    pub fn peek_local(&self, node: NodeId) -> Option<&Msg> {
        self.local[node as usize].front()
    }

    pub fn pop_local(&mut self, node: NodeId) -> Option<Msg> {
        self.local[node as usize].pop_front()
    }

    pub(crate) fn set_line(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.lines.insert((node, addr), state);
    }

    pub(crate) fn remove_line(&mut self, node: NodeId, addr: Addr) -> Option<LineState> {
        self.lines.remove(&(node, addr))
    }

    /// Is any message or un-retired completion pending anywhere?
    pub fn has_pending_event(&self) -> bool {
        self.channels.iter().any(|q| !q.is_empty())
            || self.local.iter().any(|q| !q.is_empty())
            || self.completion.iter().any(Option::is_some)
    }

    /// Fully drained: no messages, no completions, no outstanding misses.
    pub fn quiescent(&self) -> bool {
        !self.has_pending_event() && self.outstanding.iter().all(Option::is_none)
    }

    /// Nodes (≠ `except`) currently holding a readable copy of `addr`.
    pub fn other_holders(&self, addr: Addr, except: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(&(n, a), st)| a == addr && n != except && st.readable())
            .map(|(&(n, _), _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    /// All `(node, addr)` pairs with a readable copy.
    pub fn survivors(&self) -> Vec<(NodeId, Addr)> {
        self.lines
            .iter()
            .filter(|(_, st)| st.readable())
            .map(|(&k, _)| k)
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
        let n = self.nodes as usize;
        let mut channels = vec![VecDeque::new(); n * n];
        for src in 0..n {
            for dst in 0..n {
                let q = &self.channels[src * n + dst];
                if !q.is_empty() {
                    channels[perm[src] as usize * n + perm[dst] as usize] =
                        q.iter().map(|m| m.relabeled(perm)).collect();
                }
            }
        }
        let mut local = vec![VecDeque::new(); n];
        let mut completion = vec![None; n];
        let mut outstanding = vec![None; n];
        let mut fuel = vec![0; n];
        for node in 0..n {
            let to = perm[node] as usize;
            local[to] = self.local[node].iter().map(|m| m.relabeled(perm)).collect();
            completion[to] = self.completion[node];
            outstanding[to] = self.outstanding[node];
            fuel[to] = self.fuel[node];
        }
        CheckCtx {
            nodes: self.nodes,
            now: self.now,
            channels,
            local,
            lines: self
                .lines
                .iter()
                .map(|(&(node, addr), &st)| ((perm[node as usize], addr), st))
                .collect(),
            completion,
            outstanding,
            fuel,
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
        fn shape(h: &mut FxHasher, q: &VecDeque<Msg>) {
            h.write_usize(q.len());
            for m in q {
                h.write_u64(m.addr);
                std::mem::discriminant(&m.kind).hash(h);
            }
        }
        let mut h = FxHasher::default();
        let i = node as usize;
        self.fuel[i].hash(&mut h);
        self.outstanding[i].hash(&mut h);
        self.completion[i].hash(&mut h);
        // Order-free over the tag map's iteration order, like `with_free`.
        let mut lines = 0u64;
        for (&(n, addr), st) in &self.lines {
            if n == node {
                let mut g = FxHasher::default();
                (addr, st).hash(&mut g);
                lines = lines.wrapping_add(g.finish());
            }
        }
        h.write_u64(lines);
        shape(&mut h, &self.local[i]);
        let mut with_free = 0u64;
        for other in 0..self.nodes {
            let (out, back) = (
                &self.channels[self.ch(node, other)],
                &self.channels[self.ch(other, node)],
            );
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
    /// two exist only on already-failing or replaying states.
    pub fn digest(&self, h: &mut dyn Hasher) {
        let mut h = h;
        h.write_u32(self.nodes);
        digest_map(h, &self.lines);
        for q in &self.channels {
            h.write_usize(q.len());
            for m in q {
                m.hash(&mut h);
            }
        }
        for q in &self.local {
            h.write_usize(q.len());
            for m in q {
                m.hash(&mut h);
            }
        }
        self.completion.hash(&mut h);
        self.outstanding.hash(&mut h);
        self.fuel.hash(&mut h);
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
        let i = self.ch(msg.src, dst);
        self.channels[i].push_back(msg);
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, _delay: Cycle) {
        // Local wake-up: delays collapse to per-node FIFO order.
        self.local[node as usize].push_back(msg);
    }

    fn occupy(&mut self, _node: NodeId, _cycles: Cycle) {}

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.lines
            .get(&(node, addr))
            .copied()
            .unwrap_or(LineState::NotPresent)
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        if !self.lines.contains_key(&(node, addr)) {
            self.flagged = Some(format!(
                "protocol set state {state:?} on non-resident line ({node}, {addr:#x})"
            ));
            return;
        }
        self.lines.insert((node, addr), state);
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        if let Some(prev) = self.completion[node as usize] {
            self.flagged = Some(format!(
                "protocol completed ({addr:#x}, {op:?}) at node {node} while \
                 completion {prev:?} was still pending"
            ));
            return;
        }
        self.completion[node as usize] = Some((addr, op));
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

    #[test]
    fn channels_are_per_pair_fifo() {
        let mut c = CheckCtx::new(3, 2);
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
        let mut a = CheckCtx::new(2, 2);
        let mut b = CheckCtx::new(2, 2);
        a.now = 57;
        assert_eq!(d(&a), d(&b));
        b.send(1, msg(0, 5));
        assert_ne!(d(&a), d(&b));
    }

    #[test]
    fn double_completion_is_flagged() {
        let mut c = CheckCtx::new(2, 2);
        c.complete(0, 1, OpKind::Read);
        assert!(c.flagged.is_none());
        c.complete(0, 1, OpKind::Read);
        assert!(c.flagged.is_some());
    }
}
