//! A mock [`ProtoCtx`] for driving protocols in tests without the
//! machine: zero-latency FIFO message delivery, plain map-backed caches,
//! and full logs of sends / completions / protocol events. Public so
//! downstream crates can unit-test custom [`Protocol`] implementations the
//! same way this crate tests its own.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::msg::Msg;
use crate::protocol::Protocol;
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;

pub struct MockCtx {
    pub nodes: u32,
    pub now: Cycle,
    lines: FxHashMap<(NodeId, Addr), LineState>,
    queue: VecDeque<(NodeId, Msg)>,
    pub sent: Vec<(NodeId, Msg)>,
    pub completed: Vec<(NodeId, Addr, OpKind)>,
    pub events: Vec<ProtoEvent>,
}

impl MockCtx {
    pub fn new(nodes: u32) -> Self {
        Self {
            nodes,
            now: 0,
            lines: FxHashMap::default(),
            queue: VecDeque::new(),
            sent: Vec::new(),
            completed: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Begin a miss exactly like the machine: allocate the tag in the
    /// transient state, then let the protocol send its request.
    pub fn begin_miss(&mut self, p: &mut dyn Protocol, node: NodeId, addr: Addr, op: OpKind) {
        let st = match op {
            OpKind::Read => LineState::RmIp,
            OpKind::Write => LineState::WmIp,
        };
        self.lines.insert((node, addr), st);
        p.start_miss(self, node, addr, op);
    }

    /// Deliver queued messages (FIFO) until quiescent.
    pub fn run(&mut self, p: &mut dyn Protocol) {
        let mut steps = 0;
        while let Some((node, msg)) = self.queue.pop_front() {
            self.now += 1;
            p.handle(self, node, msg);
            steps += 1;
            assert!(steps < 100_000, "protocol livelock: messages never quiesce");
        }
    }

    /// Issue a read at `node`: hit if readable, else run the miss to
    /// completion. Panics if the miss never completes.
    pub fn read(&mut self, p: &mut dyn Protocol, node: NodeId, addr: Addr) {
        if self.line_state(node, addr).readable() {
            return;
        }
        let before = self.completed.len();
        self.begin_miss(p, node, addr, OpKind::Read);
        self.run(p);
        assert!(
            self.completed[before..].contains(&(node, addr, OpKind::Read)),
            "read miss by {node} for {addr:#x} did not complete; completions: {:?}",
            &self.completed[before..]
        );
        assert!(
            self.line_state(node, addr).readable(),
            "line not readable after read completion"
        );
    }

    /// Issue a write at `node`; runs any required transaction to completion.
    pub fn write(&mut self, p: &mut dyn Protocol, node: NodeId, addr: Addr) {
        if self.line_state(node, addr).writable() {
            return;
        }
        let before = self.completed.len();
        self.begin_miss(p, node, addr, OpKind::Write);
        self.run(p);
        assert!(
            self.completed[before..].contains(&(node, addr, OpKind::Write)),
            "write miss by {node} for {addr:#x} did not complete"
        );
        assert_eq!(
            self.line_state(node, addr),
            LineState::E,
            "writer must end exclusive"
        );
    }

    /// Evict the line at `(node, addr)` exactly like the machine: drop the
    /// tag first, then notify the protocol, then drain resulting traffic.
    pub fn evict(&mut self, p: &mut dyn Protocol, node: NodeId, addr: Addr) {
        let st = self
            .lines
            .remove(&(node, addr))
            .expect("evicting a non-resident line");
        assert!(
            matches!(st, LineState::V | LineState::E),
            "only stable lines are evictable, got {st:?}"
        );
        p.evict(self, node, addr, st);
        self.run(p);
    }

    /// States of every node's copy of `addr` (length = `nodes`).
    pub fn states_of(&self, addr: Addr) -> Vec<LineState> {
        (0..self.nodes).map(|n| self.line_state(n, addr)).collect()
    }

    /// Nodes currently holding a readable copy of `addr`.
    pub fn holders(&self, addr: Addr) -> Vec<NodeId> {
        (0..self.nodes)
            .filter(|&n| self.line_state(n, addr).readable())
            .collect()
    }

    /// Assert the single-writer/multiple-reader invariant for `addr`.
    pub fn assert_swmr(&self, addr: Addr) {
        let exclusive: Vec<NodeId> = (0..self.nodes)
            .filter(|&n| self.line_state(n, addr) == LineState::E)
            .collect();
        let valid = self.holders(addr);
        if !exclusive.is_empty() {
            assert_eq!(
                valid.len(),
                1,
                "E copy at {exclusive:?} coexists with V copies {valid:?}"
            );
        }
        assert!(exclusive.len() <= 1, "two exclusive copies: {exclusive:?}");
    }

    /// Messages sent since index `mark`.
    pub fn sent_since(&self, mark: usize) -> &[(NodeId, Msg)] {
        &self.sent[mark..]
    }

    /// Critical-path messages sent since `mark`: excludes the bookkeeping
    /// `FillAck` (the paper's Table 1 counts the messages a miss waits on).
    pub fn critical_since(&self, mark: usize) -> usize {
        self.sent[mark..]
            .iter()
            .filter(|(_, m)| !matches!(m.kind, crate::msg::MsgKind::FillAck))
            .count()
    }

    pub fn mark(&self) -> usize {
        self.sent.len()
    }
}

impl ProtoCtx for MockCtx {
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
        self.sent.push((dst, msg.clone()));
        self.queue.push_back((dst, msg));
    }

    fn redeliver(&mut self, node: NodeId, msg: Msg, _delay: Cycle) {
        // Local wake-up: not network traffic, so not logged in `sent`.
        self.queue.push_back((node, msg));
    }

    fn occupy(&mut self, _node: NodeId, cycles: Cycle) {
        self.now += cycles;
    }

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.lines
            .get(&(node, addr))
            .copied()
            .unwrap_or(LineState::NotPresent)
    }

    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        assert!(
            self.lines.contains_key(&(node, addr)),
            "set_line_state on non-resident line ({node}, {addr:#x})"
        );
        self.lines.insert((node, addr), state);
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.completed.push((node, addr, op));
    }

    fn note(&mut self, event: ProtoEvent) {
        self.events.push(event);
    }
}
