//! SCI tree extension, IEEE P1596.2 (Johnson, 1993; §2.2 of the paper) —
//! Dir₂Tree₂ with an AVL-balanced sharing tree.
//!
//! Sharers form an AVL tree keyed by node id. A read miss descends the
//! tree hop-by-hop to the insertion point (the paper's "4 to 2·log P"
//! read-miss cost) and every rebalancing rotation costs pointer fix-up
//! messages; a write miss invalidates down the balanced tree in
//! logarithmic time; a replacement is an AVL delete with its own fix-up
//! traffic — the "high replacement overhead" of Table 2.
//!
//! As with STP, the home holds the authoritative tree as a simulation
//! convenience; all structural changes are still paid for in messages,
//! and structural fix-ups are acknowledged before the enclosing home
//! transaction closes so invalidation walks never observe a half-applied
//! rotation.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{ack, read_fill, send, send_home, wb_req, Collector, Rows};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::FxHashMap;

/// A node of the home-side AVL tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct AvlN {
    l: Option<NodeId>,
    r: Option<NodeId>,
    h: i32,
}

/// What [`Avl::insert`]/[`Avl::remove`] log per pointer write: the node
/// and its `(l, r)` just before the write (`None`: not in the tree). A
/// node written twice is logged twice; the first record is its state
/// before the whole operation.
pub type Touched = Vec<(NodeId, Option<(Option<NodeId>, Option<NodeId>)>)>;

/// An AVL tree of node ids (the sharing set).
#[derive(Default, Clone, PartialEq)]
pub struct Avl {
    nodes: FxHashMap<NodeId, AvlN>,
    root: Option<NodeId>,
}

// Canonical (sorted-key) hash so the model checker's state digest is
// independent of the map's insertion history.
impl std::hash::Hash for Avl {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut entries: Vec<(&NodeId, &AvlN)> = self.nodes.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        state.write_usize(entries.len());
        for (k, v) in entries {
            k.hash(state);
            v.hash(state);
        }
        self.root.hash(state);
    }
}

impl Avl {
    fn h(&self, n: Option<NodeId>) -> i32 {
        n.map_or(0, |id| self.nodes[&id].h)
    }

    fn update(&mut self, id: NodeId) {
        let n = self.nodes[&id];
        let h = 1 + self.h(n.l).max(self.h(n.r));
        self.nodes.get_mut(&id).unwrap().h = h;
    }

    fn balance_factor(&self, id: NodeId) -> i32 {
        let n = self.nodes[&id];
        self.h(n.l) - self.h(n.r)
    }

    /// The node whose child pointers are about to be written (or which is
    /// about to enter or leave the tree): log its current pointers.
    fn touch(&mut self, id: NodeId, log: &mut Touched) -> Option<&mut AvlN> {
        let n = self.nodes.get_mut(&id);
        log.push((id, n.as_ref().map(|n| (n.l, n.r))));
        n
    }

    fn set_l(&mut self, id: NodeId, l: Option<NodeId>, log: &mut Touched) {
        self.touch(id, log).expect("set_l on absent node").l = l;
    }

    fn set_r(&mut self, id: NodeId, r: Option<NodeId>, log: &mut Touched) {
        self.touch(id, log).expect("set_r on absent node").r = r;
    }

    fn rotate_right(&mut self, y: NodeId, log: &mut Touched) -> NodeId {
        let x = self.nodes[&y].l.expect("rotate_right without left child");
        let t2 = self.nodes[&x].r;
        self.set_l(y, t2, log);
        self.set_r(x, Some(y), log);
        self.update(y);
        self.update(x);
        x
    }

    fn rotate_left(&mut self, x: NodeId, log: &mut Touched) -> NodeId {
        let y = self.nodes[&x].r.expect("rotate_left without right child");
        let t2 = self.nodes[&y].l;
        self.set_r(x, t2, log);
        self.set_l(y, Some(x), log);
        self.update(x);
        self.update(y);
        y
    }

    fn rebalance(&mut self, id: NodeId, log: &mut Touched) -> NodeId {
        self.update(id);
        let bf = self.balance_factor(id);
        if bf > 1 {
            let l = self.nodes[&id].l.unwrap();
            if self.balance_factor(l) < 0 {
                let new_l = self.rotate_left(l, log);
                self.set_l(id, Some(new_l), log);
            }
            self.rotate_right(id, log)
        } else if bf < -1 {
            let r = self.nodes[&id].r.unwrap();
            if self.balance_factor(r) > 0 {
                let new_r = self.rotate_right(r, log);
                self.set_r(id, Some(new_r), log);
            }
            self.rotate_left(id, log)
        } else {
            id
        }
    }

    fn insert_at(&mut self, root: Option<NodeId>, id: NodeId, log: &mut Touched) -> NodeId {
        let Some(cur) = root else {
            self.touch(id, log);
            self.nodes.insert(
                id,
                AvlN {
                    l: None,
                    r: None,
                    h: 1,
                },
            );
            return id;
        };
        if id < cur {
            let new = self.insert_at(self.nodes[&cur].l, id, log);
            self.set_l(cur, Some(new), log);
        } else if id > cur {
            let new = self.insert_at(self.nodes[&cur].r, id, log);
            self.set_r(cur, Some(new), log);
        } else {
            return cur; // already present
        }
        self.rebalance(cur, log)
    }

    /// Insert `id`, appending every node whose pointers were written to
    /// `log` (O(log n) records).
    pub fn insert(&mut self, id: NodeId, log: &mut Touched) {
        self.root = Some(self.insert_at(self.root, id, log));
    }

    fn min_id(&self, mut cur: NodeId) -> NodeId {
        while let Some(l) = self.nodes[&cur].l {
            cur = l;
        }
        cur
    }

    fn remove_at(&mut self, root: Option<NodeId>, id: NodeId, log: &mut Touched) -> Option<NodeId> {
        let cur = root?;
        if id < cur {
            let new = self.remove_at(self.nodes[&cur].l, id, log);
            self.set_l(cur, new, log);
        } else if id > cur {
            let new = self.remove_at(self.nodes[&cur].r, id, log);
            self.set_r(cur, new, log);
        } else {
            let n = self.nodes[&cur];
            let replacement = match (n.l, n.r) {
                (None, None) => {
                    self.touch(cur, log);
                    self.nodes.remove(&cur);
                    return None;
                }
                (Some(only), None) | (None, Some(only)) => {
                    self.touch(cur, log);
                    self.nodes.remove(&cur);
                    return Some(self.rebalance(only, log));
                }
                (Some(_), Some(r)) => {
                    // Replace with the in-order successor's id.
                    let succ = self.min_id(r);
                    let new_r = self.remove_at(Some(r), succ, log);
                    self.touch(cur, log);
                    let old = self.nodes.remove(&cur).unwrap();
                    // `succ` was logged when it was unlinked just above.
                    self.nodes.insert(
                        succ,
                        AvlN {
                            l: old.l,
                            r: new_r,
                            h: old.h,
                        },
                    );
                    succ
                }
            };
            return Some(self.rebalance(replacement, log));
        }
        Some(self.rebalance(cur, log))
    }

    /// Remove `id`, logging like [`Avl::insert`].
    pub fn remove(&mut self, id: NodeId, log: &mut Touched) {
        self.root = self.remove_at(self.root, id, log);
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = None;
    }

    /// BST descent path from the root to the would-be parent of `id`.
    pub fn descent_path(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = self.root;
        while let Some(c) = cur {
            path.push(c);
            cur = if id < c {
                self.nodes[&c].l
            } else if id > c {
                self.nodes[&c].r
            } else {
                break;
            };
        }
        path
    }

    /// Given the log of one or more inserts/removes, call `emit(node, new
    /// children)` for every node whose child set differs from before them,
    /// in ascending node id order. A newcomer without children is skipped
    /// (its cache-side map starts empty anyway); a node that left gets an
    /// empty list. Only logged nodes are looked at: O(log n), not O(n).
    fn diff_touched(&self, log: &mut Touched, mut emit: impl FnMut(NodeId, Vec<NodeId>)) {
        // Stable sort + dedup keeps each node's first (oldest) record.
        log.sort_by_key(|&(id, _)| id);
        log.dedup_by_key(|&mut (id, _)| id);
        let kids = |(l, r): (Option<NodeId>, Option<NodeId>)| l.into_iter().chain(r);
        for &(id, before) in log.iter() {
            let after = self.nodes.get(&id).map(|n| (n.l, n.r));
            let changed = match (before, after) {
                (None, None) => false,
                (None, Some(a)) => kids(a).next().is_some(),
                (Some(_), None) => true,
                (Some(b), Some(a)) => !kids(b).eq(kids(a)),
            };
            if changed {
                emit(id, after.map(kids).into_iter().flatten().collect());
            }
        }
    }

    /// `(node → children)` snapshot of the whole tree: the oracle the
    /// touched-node diff is tested against.
    #[cfg(test)]
    fn children_snapshot(&self) -> FxHashMap<NodeId, Vec<NodeId>> {
        self.nodes
            .iter()
            .map(|(&id, n)| {
                let mut c = Vec::new();
                if let Some(l) = n.l {
                    c.push(l);
                }
                if let Some(r) = n.r {
                    c.push(r);
                }
                (id, c)
            })
            .collect()
    }

    /// Validate AVL invariants (tests/debug).
    pub fn validate(&self) {
        fn walk(t: &Avl, n: Option<NodeId>, lo: Option<NodeId>, hi: Option<NodeId>) -> i32 {
            let Some(id) = n else { return 0 };
            if let Some(lo) = lo {
                assert!(id > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(id < hi, "BST order violated");
            }
            let node = t.nodes[&id];
            let hl = walk(t, node.l, lo, Some(id));
            let hr = walk(t, node.r, Some(id), hi);
            assert!((hl - hr).abs() <= 1, "AVL balance violated at {id}");
            assert_eq!(node.h, 1 + hl.max(hr), "stale height at {id}");
            node.h
        }
        walk(self, self.root, None, None);
    }
}

#[derive(Clone, Default, PartialEq, Hash)]
struct Entry {
    dirty: bool,
    owner: NodeId,
    tree: Avl,
    pending: Option<(NodeId, OpKind)>,
    wait_wb: bool,
    wait_acks: u32,
    /// Outstanding structural fix-up acks + fill ack before txn close.
    wait_parts: u32,
}

/// One node's part in a block's tree.
#[derive(Clone, Default, PartialEq, Hash)]
struct Rec {
    /// Cache-side child pointers.
    children: Vec<NodeId>,
    collector: Option<Collector>,
}

/// The SCI tree extension protocol.
#[derive(Clone)]
pub struct SciTree {
    rows: Rows<Entry, Rec>,
    /// Scratch for `mutate_tree`, reused across calls; empty between them,
    /// so not part of the fingerprint.
    touched: Touched,
}

impl SciTree {
    pub fn new() -> Self {
        Self {
            rows: Rows::default(),
            touched: Touched::new(),
        }
    }

    pub fn tree(&self, addr: Addr) -> Option<&Avl> {
        self.rows.get(addr)?.entry.as_ref().map(|e| &e.tree)
    }

    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.children)
    }

    fn part_done(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("part ack without entry");
        debug_assert!(e.wait_parts > 0, "unexpected structural ack");
        e.wait_parts -= 1;
        if e.wait_parts == 0 {
            row.gate.finish_txn(ctx, home);
        }
    }

    /// Apply a structural mutation to the home tree and send each node
    /// whose child pointers it changed its new children, in ascending node
    /// id order. Returns the number of fix-ups sent.
    fn mutate_tree(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        mutate: impl FnOnce(&mut Avl, &mut Touched),
    ) -> u32 {
        let e = self.rows.row(addr).entry.as_mut().unwrap();
        mutate(&mut e.tree, &mut self.touched);
        #[cfg(debug_assertions)]
        e.tree.validate();
        let mut fixups = 0;
        e.tree.diff_touched(&mut self.touched, |id, children| {
            send(
                ctx,
                home,
                id,
                addr,
                MsgKind::SctFixup {
                    children: children.into(),
                },
            );
            fixups += 1;
        });
        self.touched.clear();
        fixups
    }

    fn handle_read_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.rows.row(addr).gate.admit(&msg) {
            return;
        }
        let e = self.rows.row(addr).entry.get_or_insert_default();
        if e.dirty {
            debug_assert_ne!(e.owner, requester);
            e.pending = Some((requester, OpKind::Read));
            e.wait_wb = true;
            let owner = e.owner;
            send(
                ctx,
                home,
                owner,
                addr,
                MsgKind::WbReq {
                    for_op: OpKind::Read,
                    requester,
                },
            );
            return;
        }
        if e.tree.is_empty() || e.tree.contains(requester) {
            // Root insertion (or a re-read by a still-recorded node whose
            // leave is queued): home supplies directly.
            e.wait_parts = 1; // the FillAck
            let fixups = self.mutate_tree(ctx, home, addr, |t, log| t.insert(requester, log));
            let e = self.rows.row(addr).entry.as_mut().unwrap();
            e.wait_parts += fixups;
            send(
                ctx,
                home,
                requester,
                addr,
                MsgKind::ReadReply {
                    adopt: NodeList::default(),
                },
            );
        } else {
            let path = e.tree.descent_path(requester);
            e.wait_parts = 1; // the FillAck
            let fixups = self.mutate_tree(ctx, home, addr, |t, log| t.insert(requester, log));
            let e = self.rows.row(addr).entry.as_mut().unwrap();
            e.wait_parts += fixups;
            let first = path[0];
            send(
                ctx,
                home,
                first,
                addr,
                MsgKind::SctDescend {
                    requester,
                    path: path[1..].to_vec().into(),
                },
            );
        }
    }

    fn grant_write(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, writer: NodeId) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().unwrap();
        e.dirty = true;
        e.owner = writer;
        e.tree.clear();
        send(
            ctx,
            home,
            writer,
            addr,
            MsgKind::WriteReply {
                kill_self_subtree: false,
            },
        );
        row.gate.finish_txn(ctx, home);
    }

    fn handle_write_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::WriteReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.rows.row(addr).gate.admit(&msg) {
            return;
        }
        let e = self.rows.row(addr).entry.get_or_insert_default();
        if e.dirty {
            e.pending = Some((requester, OpKind::Write));
            e.wait_wb = true;
            let owner = e.owner;
            send(
                ctx,
                home,
                owner,
                addr,
                MsgKind::WbReq {
                    for_op: OpKind::Write,
                    requester,
                },
            );
            return;
        }
        match e.tree.root() {
            None => self.grant_write(ctx, home, addr, requester),
            Some(root) => {
                e.pending = Some((requester, OpKind::Write));
                e.wait_acks = 1;
                e.tree.clear();
                send(
                    ctx,
                    home,
                    root,
                    addr,
                    MsgKind::Inv {
                        also: None,
                        from_dir: true,
                    },
                );
            }
        }
    }

    fn handle_wb(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, evict: bool) {
        let e = self.rows.row(addr).entry.get_or_insert_default();
        if e.wait_wb {
            e.wait_wb = false;
            let (requester, op) = e.pending.take().expect("wait_wb without pending");
            e.dirty = false;
            let old_owner = e.owner;
            match op {
                OpKind::Read => {
                    e.tree.clear();
                    e.wait_parts = 1;
                    let fixups = self.mutate_tree(ctx, home, addr, |t, log| {
                        if !evict {
                            t.insert(old_owner, log);
                        }
                        t.insert(requester, log);
                    });
                    let e = self.rows.row(addr).entry.as_mut().unwrap();
                    e.wait_parts += fixups;
                    send(
                        ctx,
                        home,
                        requester,
                        addr,
                        MsgKind::ReadReply {
                            adopt: NodeList::default(),
                        },
                    );
                }
                OpKind::Write => self.grant_write(ctx, home, addr, requester),
            }
        } else {
            debug_assert!(evict);
            e.dirty = false;
            e.tree.clear();
        }
    }

    fn handle_inv(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::Inv { from_dir, .. } = msg.kind else {
            unreachable!()
        };
        if self
            .rows
            .rec(node, addr)
            .is_some_and(|r| r.collector.is_some())
        {
            // Already collecting: the subtree is covered by the first
            // invalidation path; waiting here risks ack cycles. Answer
            // immediately (see dir_tree.rs for the acyclicity argument).
            ack(ctx, node, addr, msg.src, from_dir);
            return;
        }
        let state = ctx.line_state(node, addr);
        let kids = self
            .rows
            .edit(node, addr, |r| std::mem::take(&mut r.children));
        match state {
            LineState::V => {
                ctx.note(ProtoEvent::Invalidation);
                ctx.set_line_state(
                    node,
                    addr,
                    if kids.is_empty() {
                        LineState::Iv
                    } else {
                        LineState::InvIp
                    },
                );
            }
            LineState::E => unreachable!("Inv reached an exclusive owner"),
            _ => {}
        }
        if kids.is_empty() {
            ack(ctx, node, addr, msg.src, from_dir);
        } else {
            let remaining = kids.len() as u32;
            self.rows.edit(node, addr, |r| {
                Collector::open(&mut r.collector, msg.src, from_dir, remaining);
            });
            for k in kids {
                send(
                    ctx,
                    node,
                    k,
                    addr,
                    MsgKind::Inv {
                        also: None,
                        from_dir: false,
                    },
                );
            }
        }
    }

    fn handle_leave(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let leaver = msg.src;
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
        if !e.tree.contains(leaver) {
            row.gate.finish_txn(ctx, home);
            return;
        }
        ctx.note(ProtoEvent::ReplacementInvalidation);
        e.wait_parts = 0;
        let fixups = self.mutate_tree(ctx, home, addr, |t, log| t.remove(leaver, log));
        let row = self.rows.row(addr);
        row.entry.as_mut().unwrap().wait_parts = fixups;
        if fixups == 0 {
            row.gate.finish_txn(ctx, home);
        }
    }
}

impl Default for SciTree {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for SciTree {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::SciTree
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_read_req(ctx, node, msg),
            MsgKind::WriteReq { .. } => self.handle_write_req(ctx, node, msg),
            MsgKind::WbData { .. } => self.handle_wb(ctx, node, addr, false),
            MsgKind::WbEvict => self.handle_wb(ctx, node, addr, true),
            MsgKind::InvAck { dir: true } => {
                let e = self
                    .rows
                    .row(addr)
                    .entry
                    .as_mut()
                    .expect("ack without entry");
                debug_assert!(e.wait_acks > 0);
                e.wait_acks -= 1;
                if e.wait_acks == 0 {
                    let (requester, op) = e.pending.take().expect("acks without pending");
                    debug_assert_eq!(op, OpKind::Write);
                    self.grant_write(ctx, node, addr, requester);
                }
            }
            MsgKind::InvAck { dir: false } => {
                let done = self
                    .rows
                    .edit(node, addr, |r| Collector::ack(&mut r.collector));
                if let Some(targets) = done {
                    if ctx.line_state(node, addr) == LineState::InvIp {
                        ctx.set_line_state(node, addr, LineState::Iv);
                    }
                    for (to, dir) in targets {
                        ack(ctx, node, addr, to, dir);
                    }
                }
            }
            MsgKind::FillAck => self.part_done(ctx, node, addr),
            MsgKind::StpFixupAck { .. } => self.part_done(ctx, node, addr),
            MsgKind::SctFixup { children } => {
                self.rows
                    .edit(node, addr, |r| r.children = children.into_vec());
                send_home(ctx, node, addr, MsgKind::StpFixupAck { dir: true });
            }
            MsgKind::SctDescend { requester, path } => {
                if path.is_empty() {
                    send(ctx, node, requester, addr, MsgKind::SctInsertResp);
                } else {
                    send(
                        ctx,
                        node,
                        path[0],
                        addr,
                        MsgKind::SctDescend {
                            requester,
                            path: path[1..].to_vec().into(),
                        },
                    );
                }
            }
            MsgKind::SctInsertResp | MsgKind::ReadReply { .. } => read_fill(ctx, node, addr),
            MsgKind::WriteReply { .. } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                self.rows.edit(node, addr, |r| r.children.clear());
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
            }
            MsgKind::Inv { .. } => self.handle_inv(ctx, node, msg),
            MsgKind::SctLeave => self.handle_leave(ctx, node, msg),
            MsgKind::WbReq { for_op, requester } => wb_req(ctx, node, addr, for_op, requester),
            other => unreachable!("SCI tree extension received {other:?}"),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        let home = ctx.home_of(addr);
        match state {
            LineState::V => {
                send(ctx, node, home, addr, MsgKind::SctLeave);
            }
            LineState::E => {
                send(ctx, node, home, addr, MsgKind::WbEvict);
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // Root + head pointers (Dir₂Tree₂) + dirty.
        2 * ptr_bits(nodes) + 1
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        // Two child pointers + balance bits + state.
        2 * ptr_bits(nodes) + 2 + 3
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.rows.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockCtx;
    use dirtree_sim::SimRng;

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, SciTree) {
        (MockCtx::new(nodes), SciTree::new())
    }

    #[test]
    fn avl_insert_remove_keeps_invariants() {
        let mut t = Avl::default();
        let mut rng = SimRng::new(42);
        let mut present = Vec::new();
        let mut log = Touched::new();
        for _ in 0..200 {
            let id = rng.gen_range(64) as NodeId;
            if present.contains(&id) {
                t.remove(id, &mut log);
                present.retain(|&x| x != id);
            } else {
                t.insert(id, &mut log);
                present.push(id);
            }
            t.validate();
            assert_eq!(t.len(), present.len());
        }
    }

    /// The fix-up targets the whole-tree snapshot diff produced before the
    /// touched-node diff replaced it (ascending id order).
    fn snapshot_diff(
        before: &FxHashMap<NodeId, Vec<NodeId>>,
        after: &FxHashMap<NodeId, Vec<NodeId>>,
    ) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut targets: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for (&id, kids) in after {
            let newcomer_without_children = kids.is_empty() && !before.contains_key(&id);
            if before.get(&id) != Some(kids) && !newcomer_without_children {
                targets.push((id, kids.clone()));
            }
        }
        for (&id, _) in before.iter().filter(|(id, _)| !after.contains_key(*id)) {
            targets.push((id, Vec::new()));
        }
        targets.sort_by_key(|(id, _)| *id);
        targets
    }

    fn touched_diff(t: &Avl, log: &mut Touched) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut targets = Vec::new();
        t.diff_touched(log, |id, kids| targets.push((id, kids)));
        targets
    }

    #[test]
    fn touched_diff_equals_snapshot_diff_on_random_churn() {
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let range = [4, 8, 32, 64, 256][seed as usize % 5];
            let mut t = Avl::default();
            let mut fixups = 0;
            for _ in 0..400 {
                let before = t.children_snapshot();
                let mut log = Touched::new();
                // One to three operations per diff, like `handle_wb`'s
                // double insert; repeats hit the insert-then-remove and
                // already-present cases.
                for _ in 0..1 + rng.gen_range(3) {
                    let id = rng.gen_range(range) as NodeId;
                    if t.contains(id) && rng.gen_range(3) != 0 {
                        t.remove(id, &mut log);
                    } else {
                        t.insert(id, &mut log);
                    }
                }
                t.validate();
                let got = touched_diff(&t, &mut log);
                assert_eq!(got, snapshot_diff(&before, &t.children_snapshot()));
                fixups += got.len();
            }
            assert!(fixups > 100, "seed {seed}: churn produced too few fix-ups");
        }
    }

    #[test]
    fn touched_diff_compares_child_sets_not_slots() {
        // `(Some(a), None)` → `(None, Some(a))` is the same cache-side
        // child list, so (like the snapshot diff) it needs no fix-up; a
        // real change at the same node does.
        let node = |l, r| AvlN { l, r, h: 2 };
        let mut t = Avl::default();
        t.nodes.insert(5, node(None, Some(3)));
        t.nodes.insert(3, AvlN::default());
        let mut log: Touched = vec![(5, Some((Some(3), None)))];
        assert_eq!(touched_diff(&t, &mut log), vec![]);
        let mut log: Touched = vec![(5, Some((Some(4), None))), (5, Some((None, Some(3))))];
        assert_eq!(touched_diff(&t, &mut log), vec![(5, vec![3])]);
        // Entered without children: skipped. Left: told to forget its kids.
        let mut log: Touched = vec![(9, Some((None, None))), (3, None)];
        assert_eq!(touched_diff(&t, &mut log), vec![(9, vec![])]);
    }

    #[test]
    fn avl_height_is_logarithmic() {
        let mut t = Avl::default();
        let mut log = Touched::new();
        for id in 0..1024u32 {
            t.insert(id, &mut log); // adversarial (sorted) insertion order
        }
        t.validate();
        let root = t.root().unwrap();
        let h = t.nodes[&root].h;
        assert!(h <= 15, "AVL height {h} too large for 1024 nodes");
    }

    #[test]
    fn reads_descend_and_writes_invalidate_tree() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=10 {
            ctx.read(&mut p, n, A);
        }
        p.tree(A).unwrap().validate();
        assert_eq!(p.tree(A).unwrap().len(), 10);
        ctx.write(&mut p, 15, A);
        for n in 1..=10 {
            assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
        }
        ctx.assert_swmr(A);
        assert!(p.tree(A).unwrap().is_empty());
    }

    #[test]
    fn first_read_costs_two_messages_later_reads_descend() {
        let (mut ctx, mut p) = setup(32);
        let mark = ctx.mark();
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.critical_since(mark), 2);
        let mark = ctx.mark();
        ctx.read(&mut p, 3, A);
        // req + descend(1 hop: root=5) + insert resp = 3 critical, plus
        // possible fix-ups. Within the paper's "4 to 2 log P" ballpark.
        assert!(ctx.critical_since(mark) >= 3);
    }

    #[test]
    fn home_collects_exactly_one_inv_ack() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        let mark = ctx.mark();
        ctx.write(&mut p, 9, A);
        let dir_acks = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
            .count();
        assert_eq!(dir_acks, 1);
    }

    #[test]
    fn replacement_is_an_avl_delete_with_fixups() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        let before = p.tree(A).unwrap().len();
        ctx.evict(&mut p, 4, A); // interior node
        let t = p.tree(A).unwrap();
        t.validate();
        assert_eq!(t.len(), before - 1);
        assert!(!t.contains(4));
        // Invalidation still reaches everyone.
        ctx.write(&mut p, 20, A);
        for n in [1, 2, 3, 5, 6, 7] {
            assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn root_replacement_keeps_tree_reachable() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        let root = p.tree(A).unwrap().root().unwrap();
        ctx.evict(&mut p, root, A);
        p.tree(A).unwrap().validate();
        ctx.write(&mut p, 20, A);
        for n in (1..=7).filter(|&n| n != root) {
            assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn dirty_read_recalls_owner() {
        let (mut ctx, mut p) = setup(32);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(ctx.line_state(5, A), LineState::V);
        assert_eq!(p.tree(A).unwrap().len(), 2);
    }

    #[test]
    fn upgrade_write_from_inside_tree() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=5 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 3, A);
        assert_eq!(ctx.line_state(3, A), LineState::E);
        ctx.assert_swmr(A);
    }

    #[test]
    fn sequential_writers_chain_ownership() {
        let (mut ctx, mut p) = setup(8);
        for n in 0..8 {
            ctx.write(&mut p, n, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![n]);
        }
    }

    #[test]
    fn churn_storm_keeps_avl_and_caches_consistent() {
        let (mut ctx, mut p) = setup(32);
        let mut rng = SimRng::new(7);
        for round in 0..100 {
            let n = 1 + rng.gen_range(30) as NodeId;
            match rng.gen_range(10) {
                0..=5 => {
                    if !ctx.line_state(n, A).readable() {
                        ctx.read(&mut p, n, A);
                    }
                }
                6..=7 => {
                    if ctx.line_state(n, A) == LineState::V {
                        ctx.evict(&mut p, n, A);
                    }
                }
                _ => {
                    ctx.write(&mut p, n, A);
                    ctx.assert_swmr(A);
                }
            }
            if let Some(t) = p.tree(A) {
                t.validate();
            }
            let _ = round;
        }
    }
}
