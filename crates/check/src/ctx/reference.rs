//! The map-and-deque [`CheckCtx`](super::CheckCtx) this crate had before
//! the flat layout, kept verbatim as the lock-step oracle (with the
//! transition function that drove it, `RefState`): n² + n `VecDeque`s, a
//! `(node, addr)` tag map and three per-node `Vec`s. Only the replay send
//! log, which is neither digested nor compared, is left out. Test-only.

use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::msg::Msg;
use dirtree_core::protocol::Protocol;
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::verify::Verifier;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use crate::state::{Choice, ProcOp};

#[derive(Clone)]
pub(crate) struct RefCtx {
    nodes: u32,
    pub(crate) now: Cycle,
    channels: Vec<VecDeque<Msg>>,
    local: Vec<VecDeque<Msg>>,
    lines: FxHashMap<(NodeId, Addr), LineState>,
    pub(crate) completion: Vec<Option<(Addr, OpKind)>>,
    pub(crate) outstanding: Vec<Option<(Addr, OpKind)>>,
    pub(crate) fuel: Vec<u32>,
    pub(crate) verifier: Verifier,
    pub(crate) flagged: Option<String>,
}

impl RefCtx {
    pub(crate) fn new(nodes: u32, fuel: u32) -> Self {
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
        }
    }

    pub(crate) fn nodes(&self) -> u32 {
        self.nodes
    }

    #[inline]
    fn ch(&self, src: NodeId, dst: NodeId) -> usize {
        src as usize * self.nodes as usize + dst as usize
    }

    pub(crate) fn channel_len(&self, src: NodeId, dst: NodeId) -> usize {
        self.channels[self.ch(src, dst)].len()
    }

    pub(crate) fn peek_channel(&self, src: NodeId, dst: NodeId) -> Option<&Msg> {
        self.channels[self.ch(src, dst)].front()
    }

    pub(crate) fn pop_channel(&mut self, src: NodeId, dst: NodeId) -> Option<Msg> {
        let i = self.ch(src, dst);
        self.channels[i].pop_front()
    }

    pub(crate) fn local_len(&self, node: NodeId) -> usize {
        self.local[node as usize].len()
    }

    pub(crate) fn peek_local(&self, node: NodeId) -> Option<&Msg> {
        self.local[node as usize].front()
    }

    pub(crate) fn pop_local(&mut self, node: NodeId) -> Option<Msg> {
        self.local[node as usize].pop_front()
    }

    pub(crate) fn set_line(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.lines.insert((node, addr), state);
    }

    pub(crate) fn remove_line(&mut self, node: NodeId, addr: Addr) -> Option<LineState> {
        self.lines.remove(&(node, addr))
    }

    pub(crate) fn has_pending_event(&self) -> bool {
        self.channels.iter().any(|q| !q.is_empty())
            || self.local.iter().any(|q| !q.is_empty())
            || self.completion.iter().any(Option::is_some)
    }

    pub(crate) fn quiescent(&self) -> bool {
        !self.has_pending_event() && self.outstanding.iter().all(Option::is_none)
    }

    pub(crate) fn other_holders(&self, addr: Addr, except: NodeId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .lines
            .iter()
            .filter(|(&(n, a), st)| a == addr && n != except && st.readable())
            .map(|(&(n, _), _)| n)
            .collect();
        v.sort_unstable();
        v
    }

    pub(crate) fn survivors(&self) -> Vec<(NodeId, Addr)> {
        self.lines
            .iter()
            .filter(|(_, st)| st.readable())
            .map(|(&k, _)| k)
            .collect()
    }

    pub(crate) fn relabeled(&self, perm: &[NodeId]) -> RefCtx {
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
        RefCtx {
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
        }
    }

    pub(crate) fn node_signature(&self, node: NodeId, fixed: &[bool]) -> u64 {
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

    pub(crate) fn digest(&self, h: &mut dyn Hasher) {
        let mut h = h;
        h.write_u32(self.nodes);
        // The tag map in key order: the count, then the entries.
        let mut lines: Vec<_> = self.lines.iter().collect();
        lines.sort_unstable_by_key(|(k, _)| **k);
        h.write_usize(lines.len());
        for (k, v) in lines {
            k.hash(&mut h);
            v.hash(&mut h);
        }
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

impl ProtoCtx for RefCtx {
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
        let i = self.ch(msg.src, dst);
        self.channels[i].push_back(msg);
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, _delay: Cycle) {
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

/// The transition function over [`RefCtx`]: `CheckState::{apply, retire,
/// issue, post_check}` as they read before the flat layout.
pub(crate) struct RefState {
    pub(crate) ctx: RefCtx,
    pub(crate) proto: Box<dyn Protocol>,
    pub(crate) addrs: Vec<Addr>,
}

impl Clone for RefState {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx.clone(),
            proto: self.proto.boxed_clone(),
            addrs: self.addrs.clone(),
        }
    }
}

impl RefState {
    pub(crate) fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        self.ctx.digest(&mut h);
        self.proto.fingerprint(&mut h);
        h.finish()
    }

    pub(crate) fn enabled_choices(&self) -> Vec<Choice> {
        let n = self.ctx.nodes();
        let mut out = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if self.ctx.channel_len(src, dst) > 0 {
                    out.push(Choice::Deliver { src, dst });
                }
            }
        }
        for node in 0..n {
            if self.ctx.local_len(node) > 0 {
                out.push(Choice::Local { node });
            }
        }
        for node in 0..n {
            if self.ctx.outstanding[node as usize].is_some() || self.ctx.fuel[node as usize] == 0 {
                continue;
            }
            for &addr in &self.addrs {
                let st = self.ctx.line_state(node, addr);
                if !st.transient() {
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Read(addr),
                    });
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Write(addr),
                    });
                }
                if matches!(st, LineState::V | LineState::E) {
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Evict(addr),
                    });
                }
            }
        }
        out
    }

    pub(crate) fn apply(&mut self, choice: Choice) -> Result<(), String> {
        self.ctx.now += 1;
        match choice {
            Choice::Deliver { src, dst } => {
                let msg = self
                    .ctx
                    .pop_channel(src, dst)
                    .expect("Deliver choice on an empty channel");
                self.proto.handle(&mut self.ctx, dst, msg);
            }
            Choice::Local { node } => {
                let msg = self
                    .ctx
                    .pop_local(node)
                    .expect("Local choice on an empty queue");
                self.proto.handle(&mut self.ctx, node, msg);
            }
            Choice::Op { node, op } => self.issue(node, op)?,
        }
        for node in 0..self.ctx.nodes() {
            if self.ctx.completion[node as usize].is_some() {
                self.retire(node)?;
            }
        }
        self.post_check()
    }

    fn retire(&mut self, node: NodeId) -> Result<(), String> {
        let (addr, op) = self.ctx.completion[node as usize]
            .take()
            .expect("retire without a pending completion");
        match self.ctx.outstanding[node as usize].take() {
            Some((a, o)) if a == addr && o == op => {}
            other => {
                return Err(format!(
                    "protocol completed ({addr:#x}, {op:?}) at node {node} but the \
                     outstanding access was {other:?}"
                ))
            }
        }
        match op {
            OpKind::Read => self.ctx.verifier.on_read_fill(node, addr),
            OpKind::Write => {
                let others = self.ctx.other_holders(addr, node);
                if self.proto.is_update_for(addr) {
                    self.ctx
                        .verifier
                        .on_write_complete_update(node, addr, &others);
                } else {
                    self.ctx
                        .verifier
                        .on_write_complete(node, addr, &others)
                        .map_err(|v| v.to_string())?;
                }
            }
        }
        self.proto.note_op_retired(node, addr, op);
        Ok(())
    }

    fn issue(&mut self, node: NodeId, op: ProcOp) -> Result<(), String> {
        self.ctx.fuel[node as usize] -= 1;
        match op {
            ProcOp::Read(addr) => {
                let st = self.ctx.line_state(node, addr);
                if st.readable() {
                    if self.proto.wants_read_hits() {
                        self.proto.note_read_hit(node, addr);
                    }
                    self.ctx
                        .verifier
                        .on_read_hit(node, addr)
                        .map_err(|v| v.to_string())?;
                } else {
                    self.ctx.set_line(node, addr, LineState::RmIp);
                    self.ctx.outstanding[node as usize] = Some((addr, OpKind::Read));
                    self.proto
                        .start_miss(&mut self.ctx, node, addr, OpKind::Read);
                }
            }
            ProcOp::Write(addr) => {
                let st = self.ctx.line_state(node, addr);
                if st.writable() {
                    let others = self.ctx.other_holders(addr, node);
                    if self.proto.is_update_for(addr) {
                        self.ctx
                            .verifier
                            .on_write_complete_update(node, addr, &others);
                    } else {
                        self.ctx
                            .verifier
                            .on_write_complete(node, addr, &others)
                            .map_err(|v| v.to_string())?;
                    }
                } else {
                    self.ctx.set_line(node, addr, LineState::WmIp);
                    self.ctx.outstanding[node as usize] = Some((addr, OpKind::Write));
                    self.proto
                        .start_miss(&mut self.ctx, node, addr, OpKind::Write);
                }
            }
            ProcOp::Evict(addr) => {
                let st = self
                    .ctx
                    .remove_line(node, addr)
                    .expect("Evict choice on a non-resident line");
                self.proto.evict(&mut self.ctx, node, addr, st);
            }
        }
        Ok(())
    }

    fn post_check(&mut self) -> Result<(), String> {
        if let Some(e) = self.ctx.flagged.take() {
            return Err(e);
        }
        let pending = self.ctx.has_pending_event();
        let quiescent = self.ctx.quiescent();
        if !pending && !quiescent {
            let blocked: Vec<(NodeId, (Addr, OpKind))> = self
                .ctx
                .outstanding
                .iter()
                .enumerate()
                .filter_map(|(n, o)| o.map(|o| (n as NodeId, o)))
                .collect();
            return Err(format!(
                "deadlock: processors {blocked:?} blocked with no message or \
                 completion in flight anywhere"
            ));
        }
        if quiescent {
            self.ctx
                .verifier
                .on_finish(self.ctx.survivors().into_iter())
                .map_err(|v| format!("at quiescence: {v}"))?;
        }
        self.proto
            .check_invariants(&self.ctx, &self.addrs, quiescent)
            .map_err(|e| format!("invariant violation: {e}"))
    }
}
