//! Scalable Tree Protocol (Nilsson & Stenström, 1992; §2.2 of the paper)
//! — Dir₂Tree<sub>k</sub> with top-down balanced trees.
//!
//! Sharers occupy tree positions in arrival order: the `j`-th member's
//! parent is member `(j−1)/k`, so the tree is always balanced and
//! invalidations complete in `log_k P` time. The price (the paper's point)
//! is the read miss: joining costs an attach handshake on top of the data
//! reply (4–8 messages), and *replacement* needs a full repair — the last
//! member is moved into the hole, with fix-ups at both parents.
//!
//! The home keeps the arrival list as a simulation convenience (real STP
//! distributes this bookkeeping); every structural change still pays its
//! messages. Repairs run as home transactions through the same per-block
//! gate as misses, so an invalidation walk never races a half-applied
//! repair.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{ack, read_fill, send, send_home, wb_req, Collector, Rows};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};

#[derive(Clone, Default, PartialEq, Hash)]
struct Entry {
    dirty: bool,
    owner: NodeId,
    /// Members in arrival order; member `j`'s parent is member `(j−1)/k`.
    members: Vec<NodeId>,
    pending: Option<(NodeId, OpKind)>,
    wait_wb: bool,
    wait_acks: u32,
}

/// One node's part in a block's tree.
#[derive(Clone, Default, PartialEq, Hash)]
struct Rec {
    /// Cache-side child pointers.
    children: Vec<NodeId>,
    collector: Option<Collector>,
    /// Mover-side count of outstanding repair fix-up acks.
    fixups: u32,
}

/// The STP protocol with `arity`-ary trees.
#[derive(Clone)]
pub struct Stp {
    arity: u32,
    rows: Rows<Entry, Rec>,
}

impl Stp {
    pub fn new(arity: u32) -> Self {
        assert!(arity >= 2);
        Self {
            arity,
            rows: Rows::default(),
        }
    }

    /// Take `node`'s child list, leaving it empty.
    fn take_children(&mut self, node: NodeId, addr: Addr) -> Vec<NodeId> {
        self.rows
            .edit(node, addr, |r| std::mem::take(&mut r.children))
    }

    /// Edit `node`'s child list in place.
    fn edit_children(&mut self, node: NodeId, addr: Addr, f: impl FnOnce(&mut Vec<NodeId>)) {
        self.rows.edit(node, addr, |r| f(&mut r.children));
    }

    /// Every node other than `child` whose list for `addr` names `child`,
    /// in ascending node id order.
    fn parents_of(&self, child: NodeId, addr: Addr) -> Vec<NodeId> {
        self.rows.get(addr).map_or_else(Vec::new, |row| {
            row.nodes
                .iter()
                .filter(|(p, r)| *p != child && r.children.contains(&child))
                .map(|(p, _)| p)
                .collect()
        })
    }

    /// Arrival list (diagnostics).
    pub fn members(&self, addr: Addr) -> Vec<NodeId> {
        self.rows
            .get(addr)
            .and_then(|r| r.entry.as_ref())
            .map(|e| e.members.clone())
            .unwrap_or_default()
    }

    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.children)
    }

    fn handle_read_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReq { requester } = msg.kind else {
            unreachable!()
        };
        let arity = self.arity as usize;
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
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
        let parent = if let Some(j) = e.members.iter().position(|&m| m == requester) {
            // Re-read while a racing leave is still queued: keep the
            // existing position.
            if j == 0 {
                None
            } else {
                Some(e.members[(j - 1) / arity])
            }
        } else {
            e.members.push(requester);
            let j = e.members.len() - 1;
            if j == 0 {
                None
            } else {
                Some(e.members[(j - 1) / arity])
            }
        };
        send(ctx, home, requester, addr, MsgKind::StpJoinResp { parent });
        // Transaction stays open until the FillAck (sent after the attach
        // handshake completes).
    }

    fn grant_write(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, writer: NodeId) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().unwrap();
        e.dirty = true;
        e.owner = writer;
        e.members.clear();
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
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
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
        if e.members.is_empty() {
            self.grant_write(ctx, home, addr, requester);
        } else {
            let root = e.members[0];
            e.pending = Some((requester, OpKind::Write));
            e.wait_acks = 1;
            e.members.clear();
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

    fn handle_wb(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, evict: bool) {
        let e = self.rows.row(addr).entry.get_or_insert_default();
        if e.wait_wb {
            e.wait_wb = false;
            let (requester, op) = e.pending.take().expect("wait_wb without pending");
            e.dirty = false;
            let old_owner = e.owner;
            match op {
                OpKind::Read => {
                    e.members.clear();
                    if !evict {
                        e.members.push(old_owner);
                    }
                    let parent = e.members.first().copied();
                    e.members.push(requester);
                    send(ctx, home, requester, addr, MsgKind::StpJoinResp { parent });
                }
                OpKind::Write => self.grant_write(ctx, home, addr, requester),
            }
        } else {
            debug_assert!(evict);
            e.dirty = false;
            e.members.clear();
        }
    }

    /// Invalidation at a tree node: forward to the children map regardless
    /// of line state (eviction repairs, unlike Dir_iTree_k's silent kill,
    /// leave children alive).
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
        let kids = self.take_children(node, addr);
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

    fn handle_inv_ack_cache(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
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

    fn handle_inv_ack_home(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
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
            self.grant_write(ctx, home, addr, requester);
        }
    }

    /// A member left: repair the balanced tree by moving the last member
    /// into the hole (home transaction; see module docs).
    fn handle_leave(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let leaver = msg.src;
        let arity = self.arity as usize;
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
        let Some(j) = e.members.iter().position(|&m| m == leaver) else {
            // Already gone (a write transaction cleared the tree first).
            row.gate.finish_txn(ctx, home);
            return;
        };
        let last = e.members.len() - 1;
        ctx.note(ProtoEvent::ReplacementInvalidation);
        if j == last {
            e.members.pop();
            let parent = (j > 0).then(|| e.members[(j - 1) / arity]);
            row.nodes.edit(leaver, |r| r.children.clear());
            if let Some(parent) = parent {
                // Tell the parent to forget the leaver; its ack closes the
                // transaction.
                send(
                    ctx,
                    home,
                    parent,
                    addr,
                    MsgKind::StpFixup {
                        remove: Some(leaver),
                        add: None,
                        from_home: true,
                    },
                );
            } else {
                // Sole member: nothing to fix.
                row.gate.finish_txn(ctx, home);
            }
        } else {
            let mover = e.members[last];
            e.members[j] = mover;
            e.members.pop();
            let new_parent = if j == 0 {
                None
            } else {
                Some(e.members[(j - 1) / arity])
            };
            // The mover adopts the leaver's children (by position).
            let new_children: Vec<NodeId> = (1..=arity)
                .map(|c| arity * j + c)
                .filter(|&c| c < e.members.len())
                .map(|c| e.members[c])
                .collect();
            send(
                ctx,
                home,
                mover,
                addr,
                MsgKind::StpMove {
                    replacing: leaver,
                    new_parent: new_parent.filter(|&p| p != mover),
                    new_children: new_children.into(),
                },
            );
        }
    }

    fn handle_move(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::StpMove {
            replacing,
            new_parent,
            new_children,
        } = msg.kind
        else {
            unreachable!()
        };
        let home = ctx.home_of(addr);
        // Take over the leaver's children locally (we were the last member
        // so we had none of our own).
        let mut inherited = self.take_children(replacing, addr);
        inherited.retain(|&c| c != node);
        for &c in new_children.iter() {
            if !inherited.contains(&c) && c != node {
                inherited.push(c);
            }
        }
        self.edit_children(node, addr, |kids| *kids = inherited);
        // Fix both parents; their acks close the leave transaction. Our
        // old parent is whoever currently lists us as a child.
        let mut outstanding = 0;
        for p in self.parents_of(node, addr) {
            send(
                ctx,
                node,
                p,
                addr,
                MsgKind::StpFixup {
                    remove: Some(node),
                    add: None,
                    from_home: false,
                },
            );
            outstanding += 1;
        }
        if let Some(np) = new_parent {
            send(
                ctx,
                node,
                np,
                addr,
                MsgKind::StpFixup {
                    remove: Some(replacing),
                    add: Some(node),
                    from_home: false,
                },
            );
            outstanding += 1;
        }
        if outstanding == 0 {
            send(ctx, node, home, addr, MsgKind::StpLeaveDone);
        } else {
            self.rows.edit(node, addr, |r| r.fixups = outstanding);
        }
    }

    fn handle_fixup(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::StpFixup {
            remove,
            add,
            from_home,
        } = msg.kind
        else {
            unreachable!()
        };
        self.edit_children(node, addr, |kids| {
            if let Some(r) = remove {
                kids.retain(|&c| c != r);
            }
            if let Some(a) = add {
                if !kids.contains(&a) && a != node {
                    kids.push(a);
                }
            }
        });
        send(
            ctx,
            node,
            msg.src,
            addr,
            MsgKind::StpFixupAck { dir: from_home },
        );
    }

    fn handle_fixup_ack(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, dir: bool) {
        if dir {
            // Home-issued fix-up (leaver-was-last case): close the txn.
            self.rows.row(addr).gate.finish_txn(ctx, node);
        } else {
            let repaired = self.rows.edit(node, addr, |r| {
                assert!(r.fixups > 0, "fixup ack without pending repair");
                r.fixups -= 1;
                r.fixups == 0
            });
            if repaired {
                send_home(ctx, node, addr, MsgKind::StpLeaveDone);
            }
        }
    }

    fn handle_join_resp(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::StpJoinResp { parent } = msg.kind else {
            unreachable!()
        };
        debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
        match parent {
            Some(p) if p != node => {
                // Attach handshake before the miss completes.
                send(ctx, node, p, addr, MsgKind::StpAttach);
            }
            _ => read_fill(ctx, node, addr),
        }
    }
}

impl Protocol for Stp {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Stp { arity: self.arity }
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_read_req(ctx, node, msg),
            MsgKind::WriteReq { .. } => self.handle_write_req(ctx, node, msg),
            MsgKind::WbData { .. } => self.handle_wb(ctx, node, addr, false),
            MsgKind::WbEvict => self.handle_wb(ctx, node, addr, true),
            MsgKind::InvAck { dir: true } => self.handle_inv_ack_home(ctx, node, addr),
            MsgKind::InvAck { dir: false } => self.handle_inv_ack_cache(ctx, node, addr),
            MsgKind::FillAck => self.rows.row(addr).gate.finish_txn(ctx, node),
            MsgKind::StpJoinResp { .. } => self.handle_join_resp(ctx, node, msg),
            MsgKind::StpAttach => {
                let child = msg.src;
                self.edit_children(node, addr, |kids| {
                    if !kids.contains(&child) {
                        kids.push(child);
                    }
                });
                send(ctx, node, child, addr, MsgKind::StpAttachAck);
            }
            MsgKind::StpAttachAck => read_fill(ctx, node, addr),
            MsgKind::StpLeave => self.handle_leave(ctx, node, msg),
            MsgKind::StpLeaveDone => self.rows.row(addr).gate.finish_txn(ctx, node),
            MsgKind::StpMove { .. } => self.handle_move(ctx, node, msg),
            MsgKind::StpFixup { .. } => self.handle_fixup(ctx, node, msg),
            MsgKind::StpFixupAck { dir } => self.handle_fixup_ack(ctx, node, addr, dir),
            MsgKind::Inv { .. } => self.handle_inv(ctx, node, msg),
            MsgKind::WriteReply { .. } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                self.take_children(node, addr);
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
            }
            MsgKind::WbReq { for_op, requester } => wb_req(ctx, node, addr, for_op, requester),
            other => unreachable!("STP received {other:?}"),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        let home = ctx.home_of(addr);
        match state {
            LineState::V => {
                // The tree is repaired by the home; children survive.
                send(ctx, node, home, addr, MsgKind::StpLeave);
            }
            LineState::E => {
                send(ctx, node, home, addr, MsgKind::WbEvict);
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // Root + latest pointers (Dir₂Tree_k) + dirty.
        2 * ptr_bits(nodes) + 1
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.arity as u64 * ptr_bits(nodes) + 3
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.rows.digest(h);
    }

    /// STP structural invariants.
    ///
    /// Checked at **every** state: child lists hold ≤ `k` distinct valid
    /// nodes, never the node itself.
    ///
    /// Checked only at **quiescence**:
    /// * no ack collector, home transaction or repair is left open;
    /// * a dirty block has no members and no edges, and its owner is
    ///   exclusive;
    /// * a clean block has no exclusive copy, and its edges are exactly the
    ///   balanced tree of the home's arrival list (member `j`'s children
    ///   are members `k·j+1 … k·j+k`; non-members hold none).
    ///
    /// Deliberately absent: "every valid copy is a member". A leave queued
    /// behind a write and a re-read by the same node removes the rejoined
    /// member (the checker's P=2 counterexample; see ROADMAP), so that
    /// claim is false of the protocol as it stands.
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        let arity = self.arity as usize;
        let recs = || {
            self.rows
                .iter()
                .flat_map(|(addr, row)| row.nodes.iter().map(move |(n, r)| (addr, n, r)))
        };
        for (addr, node, rec) in recs() {
            let kids = &rec.children;
            if kids.len() > arity {
                return Err(format!(
                    "node {node} holds {} children for {addr:#x}, arity is {arity}",
                    kids.len()
                ));
            }
            let mut seen = kids.clone();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != kids.len() || kids.contains(&node) || kids.iter().any(|&k| k >= nodes)
            {
                return Err(format!(
                    "malformed child list {kids:?} at node {node} for {addr:#x}"
                ));
            }
        }
        if !quiescent {
            return Ok(());
        }
        let open = recs().filter(|(_, _, r)| r.collector.is_some()).count();
        if open != 0 {
            return Err(format!("{open} ack collector(s) still open at quiescence"));
        }
        let busy = self.rows.iter().filter(|(_, r)| r.gate.is_busy()).count();
        if busy != 0 {
            return Err(format!(
                "{busy} home transaction(s) still open at quiescence"
            ));
        }
        let repairs = recs().filter(|(_, _, r)| r.fixups != 0).count();
        if repairs != 0 {
            return Err(format!("{repairs} repair(s) still open at quiescence"));
        }
        for &addr in addrs {
            let row = self.rows.get(addr);
            let entry = row.and_then(|r| r.entry.as_ref());
            let members: &[NodeId] = entry.map_or(&[], |e| &e.members);
            let dirty = entry.filter(|e| e.dirty);
            if let Some(e) = dirty {
                if !members.is_empty() {
                    return Err(format!("dirty block {addr:#x} still records members"));
                }
                if ctx.line_state(e.owner, addr) != LineState::E {
                    return Err(format!(
                        "dirty block {addr:#x}: recorded owner {} is not exclusive",
                        e.owner
                    ));
                }
            }
            for (j, &m) in members.iter().enumerate() {
                let first = (arity * j + 1).min(members.len());
                let last = (arity * j + 1 + arity).min(members.len());
                let mut want = members[first..last].to_vec();
                let mut have = self.children_of(m, addr).to_vec();
                want.sort_unstable();
                have.sort_unstable();
                if want != have {
                    return Err(format!(
                        "member {m} of {addr:#x} lists children {have:?}, arrival order {members:?} implies {want:?}"
                    ));
                }
            }
            let stray = row.and_then(|r| {
                r.nodes
                    .iter()
                    .find(|(n, r)| !r.children.is_empty() && !members.contains(n))
            });
            if let Some((stray, _)) = stray {
                return Err(format!(
                    "non-member {stray} of {addr:#x} still holds child edges"
                ));
            }
            if let Some(n) = (0..nodes).find(|&n| ctx.line_state(n, addr) == LineState::E) {
                if dirty.is_none() {
                    return Err(format!(
                        "clean block {addr:#x} has an exclusive copy at node {n}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockCtx;

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, Stp) {
        (MockCtx::new(nodes), Stp::new(2))
    }

    #[test]
    fn first_read_two_messages_then_four() {
        let (mut ctx, mut p) = setup(16);
        let mark = ctx.mark();
        ctx.read(&mut p, 1, A);
        assert_eq!(ctx.critical_since(mark), 2, "root joins without attach");
        let mark = ctx.mark();
        ctx.read(&mut p, 2, A);
        assert_eq!(
            ctx.critical_since(mark),
            4,
            "paper Table 1: req + join + attach + ack"
        );
    }

    #[test]
    fn tree_is_balanced_by_arrival_order() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        assert_eq!(p.members(A), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p.children_of(1, A), &[2, 3]);
        assert_eq!(p.children_of(2, A), &[4, 5]);
        assert_eq!(p.children_of(3, A), &[6, 7]);
    }

    #[test]
    fn write_invalidates_via_the_tree_with_one_home_ack() {
        let (mut ctx, mut p) = setup(16);
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
        assert_eq!(dir_acks, 1, "only the root acks the home");
        for n in 1..=7 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn leaf_eviction_repairs_cheaply() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 7, A); // last member: parent fix-up only
        assert_eq!(p.members(A), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(p.children_of(3, A), &[6]);
        ctx.write(&mut p, 9, A);
        ctx.assert_swmr(A);
    }

    #[test]
    fn interior_eviction_moves_last_member_into_hole() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 2, A); // member 7 moves into position 1
        assert_eq!(p.members(A), vec![1, 7, 3, 4, 5, 6]);
        assert_eq!(p.children_of(1, A), &[3, 7]);
        assert_eq!(p.children_of(7, A), &[4, 5]);
        // 7's old parent (3) no longer lists it.
        assert_eq!(p.children_of(3, A), &[6]);
        // Everyone still reachable: a write kills all survivors.
        ctx.write(&mut p, 9, A);
        for n in [1, 3, 4, 5, 6, 7] {
            assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn root_eviction_promotes_last_member() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=5 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 1, A);
        assert_eq!(p.members(A), vec![5, 2, 3, 4]);
        assert_eq!(p.children_of(5, A), &[2, 3]);
        ctx.write(&mut p, 9, A);
        ctx.assert_swmr(A);
    }

    #[test]
    fn dirty_read_rebuilds_tree_from_owner() {
        let (mut ctx, mut p) = setup(16);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(p.members(A), vec![2, 5]);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(p.children_of(2, A), &[5]);
    }

    #[test]
    fn upgrade_write_from_interior_node() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=5 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 2, A);
        assert_eq!(ctx.line_state(2, A), LineState::E);
        for n in [1, 3, 4, 5] {
            assert!(!ctx.line_state(n, A).readable());
        }
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
    fn deep_tree_invalidation_reaches_all_leaves() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=20 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 25, A);
        for n in 1..=20 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    /// Build a 7-member tree on `A`, then repair it three ways (interior,
    /// last-member and root eviction); returns everything sent meanwhile.
    fn repairs_on_a(ctx: &mut MockCtx, p: &mut Stp) -> Vec<(NodeId, Msg)> {
        for n in 1..=7 {
            ctx.read(p, n, A);
        }
        let mark = ctx.mark();
        for leaver in [2, 6, 1] {
            ctx.evict(p, leaver, A);
            p.check_invariants(ctx, &[A], true).unwrap();
        }
        ctx.sent_since(mark).to_vec()
    }

    #[test]
    fn repair_traffic_is_independent_of_other_blocks_trees() {
        let (mut ctx, mut p) = setup(16);
        let alone = repairs_on_a(&mut ctx, &mut p);
        assert!(
            alone.iter().any(|(_, m)| matches!(
                m.kind,
                MsgKind::StpFixup {
                    from_home: false,
                    ..
                }
            )),
            "no mover-issued fix-up: the parent lookup was never exercised"
        );

        let (mut ctx, mut p) = setup(16);
        for block in 1..=4096u64 {
            // Trees that list the nodes `A`'s repairs move (7, 5, 4) as
            // children of other parents.
            for n in [8, 7, 5, 4, 3] {
                ctx.read(&mut p, n, block);
            }
        }
        assert_eq!(repairs_on_a(&mut ctx, &mut p), alone);
        assert_eq!(
            p.children_of(8, 4096),
            &[7, 5],
            "background trees untouched"
        );
    }

    #[test]
    fn interleaved_evictions_on_two_blocks_repair_each_tree_alone() {
        const B: Addr = 1;
        let (mut ctx, mut p) = setup(16);
        // Same members, opposite arrival order: every node's parent in one
        // tree differs from its parent in the other.
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
            ctx.read(&mut p, 8 - n, B);
        }
        ctx.evict(&mut p, 2, A); // 7 moves under 1 in A; it is B's root
        p.check_invariants(&ctx, &[A, B], true).unwrap();
        assert_eq!(p.members(A), vec![1, 7, 3, 4, 5, 6]);
        assert_eq!(p.members(B), vec![7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(p.children_of(7, A), &[4, 5]);
        assert_eq!(p.children_of(7, B), &[6, 5]);
        ctx.evict(&mut p, 6, B); // 1 moves under 7 in B; it is A's root
        p.check_invariants(&ctx, &[A, B], true).unwrap();
        assert_eq!(p.members(B), vec![7, 1, 5, 4, 3, 2]);
        assert_eq!(p.children_of(1, B), &[4, 3]);
        assert_eq!(p.children_of(1, A), &[3, 7]);
        ctx.evict(&mut p, 7, A);
        ctx.evict(&mut p, 7, B);
        p.check_invariants(&ctx, &[A, B], true).unwrap();
        assert_eq!(p.members(A), vec![1, 6, 3, 4, 5]);
        assert_eq!(p.members(B), vec![2, 1, 5, 4, 3]);
        for (addr, survivors) in [(A, [1, 3, 4, 5, 6]), (B, [1, 2, 3, 4, 5])] {
            ctx.write(&mut p, 9, addr);
            for n in survivors {
                assert!(!ctx.line_state(n, addr).readable(), "node {n} survived");
            }
            ctx.assert_swmr(addr);
        }
        p.check_invariants(&ctx, &[A, B], true).unwrap();
    }

    #[test]
    fn invariants_reject_misshapen_edge_tables() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        p.check_invariants(&ctx, &[A], true).unwrap();
        let mut self_loop = p.clone();
        self_loop.edit_children(3, A, |kids| kids.push(3));
        assert!(self_loop.check_invariants(&ctx, &[A], false).is_err());
        let mut wrong_shape = p.clone();
        wrong_shape.edit_children(2, A, |kids| kids.push(3));
        assert!(wrong_shape.check_invariants(&ctx, &[A], false).is_ok());
        assert!(wrong_shape.check_invariants(&ctx, &[A], true).is_err());
    }

    #[test]
    fn directory_is_two_pointers() {
        let p = Stp::new(2);
        assert_eq!(p.dir_bits_per_mem_block(32), 11);
        assert_eq!(p.cache_bits_per_line(32), 13);
    }
}
