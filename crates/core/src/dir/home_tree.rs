//! Home-held sharing trees: the shell of §2.2's two Dir₂Tree<sub>k</sub>
//! baselines, the Scalable Tree Protocol ([`super::stp`]) and the SCI tree
//! extension ([`super::sci_tree`]).
//!
//! In both, the home keeps the authoritative sharing tree as a simulation
//! convenience (the real protocols distribute this bookkeeping); every
//! structural change is still paid for in messages, and acknowledged
//! before the enclosing home transaction closes, so an invalidation walk
//! never observes a half-applied repair. The two differ only in the tree's
//! shape — arrival-order k-ary for STP, AVL for the SCI extension — and
//! that is all a [`Shape`] supplies: the root, the read-miss join, the
//! leave repair, the messages only it uses, and the child lists its tree
//! implies. Everything else is [`HomeTree`]:
//!
//! * at the home: recall of a dirty owner; a write answered with one `Inv`
//!   to the root (whose subtree collects every ack) or an immediate grant;
//!   writebacks; and transaction close through one count of outstanding
//!   parts, which `FillAck`, `StpLeaveDone` and `StpFixupAck` all retire;
//! * at the caches: `Inv` forwarding down the cache-side child lists with
//!   a [`Collector`], the ack, the write grant, `WbReq` and eviction.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{ack, send, send_home, wb_req, Collector, NodeRecs, Row, Rows};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use std::hash::Hash;

/// The home's directory entry for one block.
#[derive(Clone, Default, PartialEq, Hash)]
struct Entry<T> {
    dirty: bool,
    owner: NodeId,
    pending: Option<(NodeId, OpKind)>,
    wait_wb: bool,
    wait_acks: u32,
    /// Parts still owed before the home transaction closes: the reader's
    /// fill ack, structural fix-up acks, a repair's completion.
    wait_parts: u32,
    /// The sharing tree, in its shape's form; empty while dirty.
    tree: T,
}

/// One node's part in a block's tree.
#[derive(Clone, Default, PartialEq, Hash)]
pub struct Rec {
    /// Cache-side child pointers.
    pub(crate) children: Vec<NodeId>,
    collector: Option<Collector>,
    /// Mover-side count of outstanding repair fix-up acks (STP).
    pub(crate) fixups: u32,
}

/// What distinguishes one home-held tree protocol from the other.
pub trait Shape: Clone + Send + 'static {
    /// One block's tree as the home records it.
    type Tree: Clone + Default + PartialEq + Hash + Send;
    /// What a reader that evicts its copy sends the home.
    const LEAVE: MsgKind;

    fn kind(&self) -> ProtocolKind;
    /// The most children one node can hold.
    fn arity(&self) -> usize;
    fn cache_bits_per_line(&self, nodes: u32) -> u64;
    fn root(tree: &Self::Tree) -> Option<NodeId>;
    fn contains(tree: &Self::Tree, node: NodeId) -> bool;
    fn clear(tree: &mut Self::Tree);
    /// A read miss on a clean block: put `requester` into `tree` — after
    /// `keep`, the recalled owner when it kept a valid copy — and start its
    /// fill. Returns the parts owed besides the requester's `FillAck`.
    fn join(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        tree: &mut Self::Tree,
        keep: Option<NodeId>,
        requester: NodeId,
    ) -> u32;
    /// `leaver`, a member, evicted its copy: repair `tree`. Returns the
    /// parts owed before the transaction closes (none: it closes now).
    fn leave(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        tree: &mut Self::Tree,
        nodes: &mut NodeRecs<Rec>,
        leaver: NodeId,
    ) -> u32;
    /// A message only this shape sends, arriving at `node`.
    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg, nodes: &mut NodeRecs<Rec>);
    /// Every member of `tree` with the children the shape gives it.
    fn edges(&self, tree: &Self::Tree) -> Vec<(NodeId, Vec<NodeId>)>;
}

/// A home-held tree protocol of shape `S`.
#[derive(Clone)]
pub struct HomeTree<S: Shape> {
    shape: S,
    rows: Rows<Entry<S::Tree>, Rec>,
}

impl<S: Shape> HomeTree<S> {
    pub fn new(shape: S) -> Self {
        Self {
            shape,
            rows: Rows::default(),
        }
    }

    /// The home's tree for `addr` (diagnostics).
    pub fn tree(&self, addr: Addr) -> Option<&S::Tree> {
        self.rows.get(addr)?.entry.as_ref().map(|e| &e.tree)
    }

    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.children)
    }

    /// A read or write request at the home.
    fn request(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let (requester, op) = match msg.kind {
            MsgKind::ReadReq { requester } => (requester, OpKind::Read),
            MsgKind::WriteReq { requester } => (requester, OpKind::Write),
            _ => unreachable!(),
        };
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
        if e.dirty {
            // Recall the owner's copy; its writeback resumes the request.
            debug_assert!(op == OpKind::Write || e.owner != requester);
            e.pending = Some((requester, op));
            e.wait_wb = true;
            let recall = MsgKind::WbReq {
                for_op: op,
                requester,
            };
            send(ctx, home, e.owner, addr, recall);
            return;
        }
        match (op, S::root(&e.tree)) {
            (OpKind::Read, _) => {
                e.wait_parts = 1 + self
                    .shape
                    .join(ctx, home, addr, &mut e.tree, None, requester);
            }
            (OpKind::Write, None) => Self::grant_write(ctx, home, addr, row, requester),
            (OpKind::Write, Some(root)) => {
                e.pending = Some((requester, OpKind::Write));
                e.wait_acks = 1;
                S::clear(&mut e.tree);
                let inv = MsgKind::Inv {
                    also: None,
                    from_dir: true,
                };
                send(ctx, home, root, addr, inv);
            }
        }
    }

    /// Make `writer` the owner and answer it; the transaction closes.
    fn grant_write(
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut Row<Entry<S::Tree>, Rec>,
        writer: NodeId,
    ) {
        let e = row.entry.as_mut().expect("grant without entry");
        e.dirty = true;
        e.owner = writer;
        S::clear(&mut e.tree);
        let reply = MsgKind::WriteReply {
            kill_self_subtree: false,
        };
        send(ctx, home, writer, addr, reply);
        row.gate.finish_txn(ctx, home);
    }

    /// The owner's copy came back: recalled (`WbData`) or evicted
    /// (`WbEvict`, which may also answer a recall it crossed).
    fn writeback(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, evict: bool) {
        let row = self.rows.row(addr);
        let e = row.entry.get_or_insert_default();
        e.dirty = false;
        S::clear(&mut e.tree);
        if !e.wait_wb {
            debug_assert!(evict);
            return;
        }
        e.wait_wb = false;
        let (requester, op) = e.pending.take().expect("wait_wb without pending");
        match op {
            OpKind::Read => {
                let keep = (!evict).then_some(e.owner);
                e.wait_parts = 1 + self
                    .shape
                    .join(ctx, home, addr, &mut e.tree, keep, requester);
            }
            OpKind::Write => Self::grant_write(ctx, home, addr, row, requester),
        }
    }

    /// The root's ack: the whole tree is invalidated.
    fn home_ack(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("ack without entry");
        debug_assert!(e.wait_acks > 0);
        e.wait_acks -= 1;
        if e.wait_acks == 0 {
            let (requester, op) = e.pending.take().expect("acks without pending");
            debug_assert_eq!(op, OpKind::Write);
            Self::grant_write(ctx, home, addr, row, requester);
        }
    }

    /// One part of the open transaction arrived; the last one closes it.
    fn part_done(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("part ack without entry");
        debug_assert!(e.wait_parts > 0, "unexpected part ack");
        e.wait_parts -= 1;
        if e.wait_parts == 0 {
            row.gate.finish_txn(ctx, home);
        }
    }

    /// A reader evicted its copy: the shape repairs the tree, as a home
    /// transaction through the block's gate.
    fn leave(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let leaver = msg.src;
        let row = self.rows.row(addr);
        if !row.gate.admit(&msg) {
            return;
        }
        let e = row.entry.get_or_insert_default();
        if !S::contains(&e.tree, leaver) {
            // Already gone (a write transaction cleared the tree first).
            row.gate.finish_txn(ctx, home);
            return;
        }
        ctx.note(ProtoEvent::ReplacementInvalidation);
        let parts = self
            .shape
            .leave(ctx, home, addr, &mut e.tree, &mut row.nodes, leaver);
        e.wait_parts = parts;
        if parts == 0 {
            row.gate.finish_txn(ctx, home);
        }
    }

    /// Invalidation at a tree node: forward it down the node's child list
    /// whatever the line's state (a leave repairs the tree, so a departed
    /// node's children stay alive), and ack once every child has.
    fn inv(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::Inv { from_dir, .. } = msg.kind else {
            unreachable!()
        };
        let nodes = &mut self.rows.row(addr).nodes;
        if nodes.get(node).is_some_and(|r| r.collector.is_some()) {
            // Already collecting: the subtree is covered by the first
            // invalidation path; waiting here risks ack cycles. Answer
            // immediately (see dir_tree.rs for the acyclicity argument).
            ack(ctx, node, addr, msg.src, from_dir);
            return;
        }
        let kids = nodes.edit(node, |r| {
            let kids = std::mem::take(&mut r.children);
            if !kids.is_empty() {
                Collector::open(&mut r.collector, msg.src, from_dir, kids.len() as u32);
            }
            kids
        });
        match ctx.line_state(node, addr) {
            LineState::V => {
                ctx.note(ProtoEvent::Invalidation);
                let after = if kids.is_empty() {
                    LineState::Iv
                } else {
                    LineState::InvIp
                };
                ctx.set_line_state(node, addr, after);
            }
            LineState::E => unreachable!("Inv reached an exclusive owner"),
            _ => {}
        }
        if kids.is_empty() {
            ack(ctx, node, addr, msg.src, from_dir);
        }
        for k in kids {
            let inv = MsgKind::Inv {
                also: None,
                from_dir: false,
            };
            send(ctx, node, k, addr, inv);
        }
    }

    /// A child's ack at a collecting node.
    fn cache_ack(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
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
}

impl<S: Shape> Protocol for HomeTree<S> {
    fn kind(&self) -> ProtocolKind {
        self.shape.kind()
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } | MsgKind::WriteReq { .. } => self.request(ctx, node, msg),
            MsgKind::WbData { .. } => self.writeback(ctx, node, addr, false),
            MsgKind::WbEvict => self.writeback(ctx, node, addr, true),
            MsgKind::InvAck { dir: true } => self.home_ack(ctx, node, addr),
            MsgKind::InvAck { dir: false } => self.cache_ack(ctx, node, addr),
            MsgKind::FillAck | MsgKind::StpLeaveDone | MsgKind::StpFixupAck { dir: true } => {
                self.part_done(ctx, node, addr)
            }
            MsgKind::StpLeave | MsgKind::SctLeave => self.leave(ctx, node, msg),
            MsgKind::Inv { .. } => self.inv(ctx, node, msg),
            MsgKind::WriteReply { .. } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                self.rows.edit(node, addr, |r| r.children.clear());
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
            }
            MsgKind::WbReq { for_op, requester } => wb_req(ctx, node, addr, for_op, requester),
            _ => {
                let nodes = &mut self.rows.row(addr).nodes;
                self.shape.handle(ctx, node, msg, nodes);
            }
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        let kind = match state {
            // The home repairs the tree; children survive.
            LineState::V => S::LEAVE,
            LineState::E => MsgKind::WbEvict,
            other => unreachable!("evicting line in state {other:?}"),
        };
        send_home(ctx, node, addr, kind);
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // Root + latest (STP) or head (SCI) pointers, Dir₂Tree_k, + dirty.
        2 * ptr_bits(nodes) + 1
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.shape.cache_bits_per_line(nodes)
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.rows.digest(h);
    }

    /// The structural invariants of both shapes.
    ///
    /// Checked at **every** state: a child list holds at most
    /// [`Shape::arity`] distinct valid nodes, never the node itself.
    ///
    /// Checked only at **quiescence**:
    /// * no ack collector, home transaction or repair is left open;
    /// * a dirty block has an empty tree, and its owner is exclusive;
    /// * a clean block has no exclusive copy;
    /// * every member's child list is the one the home's tree gives it
    ///   ([`Shape::edges`]), and non-members hold none.
    ///
    /// Deliberately absent: "every valid copy is a member". A leave queued
    /// behind a write and a re-read by the same node removes the rejoined
    /// member (the checker's P=2 counterexample; see ROADMAP), so that
    /// claim is false of both protocols as they stand.
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        let arity = self.shape.arity();
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
        let empty = S::Tree::default();
        for &addr in addrs {
            let row = self.rows.get(addr);
            let entry = row.and_then(|r| r.entry.as_ref());
            let tree = entry.map_or(&empty, |e| &e.tree);
            let dirty = entry.filter(|e| e.dirty);
            if let Some(e) = dirty {
                if S::root(tree).is_some() {
                    return Err(format!("dirty block {addr:#x} still records a tree"));
                }
                if ctx.line_state(e.owner, addr) != LineState::E {
                    return Err(format!(
                        "dirty block {addr:#x}: recorded owner {} is not exclusive",
                        e.owner
                    ));
                }
            }
            for (m, mut want) in self.shape.edges(tree) {
                let mut have = self.children_of(m, addr).to_vec();
                want.sort_unstable();
                have.sort_unstable();
                if want != have {
                    return Err(format!(
                        "member {m} of {addr:#x} lists children {have:?}, the home's tree gives it {want:?}"
                    ));
                }
            }
            let stray = row.and_then(|r| {
                r.nodes
                    .iter()
                    .find(|&(n, r)| !r.children.is_empty() && !S::contains(tree, n))
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
    use crate::dir::sci_tree::AvlShape;
    use crate::dir::stp::Arrival;
    use crate::testutil::MockCtx;
    use dirtree_sim::SimRng;

    const A: Addr = 0;

    /// Tests run once per shape: the body is generic over `S`, and `p` is
    /// a fresh protocol — binary STP, then the SCI tree extension.
    macro_rules! on_both_shapes {
        ($(fn $name:ident($p:ident) $body:block)*) => {$(
            #[test]
            fn $name() {
                fn run<S: Shape>(mut $p: HomeTree<S>) $body
                run(HomeTree::new(Arrival::new(2)));
                run(HomeTree::new(AvlShape::default()));
            }
        )*};
    }

    fn holds<S: Shape>(p: &HomeTree<S>, node: NodeId) -> bool {
        p.tree(A).is_some_and(|t| S::contains(t, node))
    }

    on_both_shapes! {
        fn first_read_is_request_and_reply(p) {
            let mut ctx = MockCtx::new(16);
            ctx.read(&mut p, 5, A);
            assert_eq!(ctx.critical_since(0), 2, "the root joins without a walk");
            assert_eq!(p.tree(A).and_then(S::root), Some(5));
        }

        fn write_invalidates_the_tree_with_one_home_ack(p) {
            let mut ctx = MockCtx::new(32);
            for n in 1..=20 {
                ctx.read(&mut p, n, A);
            }
            p.check_invariants(&ctx, &[A], true).unwrap();
            let mark = ctx.mark();
            ctx.write(&mut p, 25, A);
            let dir_acks = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
                .count();
            assert_eq!(dir_acks, 1, "only the root acks the home");
            for n in 1..=20 {
                assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
            }
            ctx.assert_swmr(A);
            assert_eq!(p.tree(A).and_then(S::root), None);
            p.check_invariants(&ctx, &[A], true).unwrap();
        }

        fn dirty_read_recalls_owner(p) {
            let mut ctx = MockCtx::new(16);
            ctx.write(&mut p, 2, A);
            ctx.read(&mut p, 5, A);
            assert_eq!(ctx.line_state(2, A), LineState::V);
            assert_eq!(ctx.line_state(5, A), LineState::V);
            assert!(holds(&p, 2) && holds(&p, 5));
            assert_eq!(p.children_of(2, A), &[5], "the old owner is the root");
            p.check_invariants(&ctx, &[A], true).unwrap();
        }

        fn upgrade_write_from_inside_tree(p) {
            let mut ctx = MockCtx::new(16);
            for n in 1..=5 {
                ctx.read(&mut p, n, A);
            }
            ctx.write(&mut p, 3, A);
            assert_eq!(ctx.line_state(3, A), LineState::E);
            for n in [1, 2, 4, 5] {
                assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
            }
            ctx.assert_swmr(A);
        }

        fn sequential_writers_chain_ownership(p) {
            let mut ctx = MockCtx::new(8);
            for n in 0..8 {
                ctx.write(&mut p, n, A);
                ctx.assert_swmr(A);
                assert_eq!(ctx.holders(A), vec![n]);
            }
            p.check_invariants(&ctx, &[A], true).unwrap();
        }

        fn every_eviction_leaves_the_survivors_reachable(p) {
            // Leaf, interior and root leavers alike, on a fresh tree each.
            let fresh = p.clone();
            for leaver in 1..=7 {
                let mut ctx = MockCtx::new(32);
                p = fresh.clone();
                for n in 1..=7 {
                    ctx.read(&mut p, n, A);
                }
                ctx.evict(&mut p, leaver, A);
                assert!(!holds(&p, leaver));
                p.check_invariants(&ctx, &[A], true).unwrap();
                ctx.write(&mut p, 20, A);
                for n in (1..=7).filter(|&n| n != leaver) {
                    assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
                }
                ctx.assert_swmr(A);
            }
        }

        fn churn_storm_keeps_tree_and_caches_consistent(p) {
            let mut ctx = MockCtx::new(32);
            let mut rng = SimRng::new(7);
            for _ in 0..300 {
                let n = 1 + rng.gen_range(30) as NodeId;
                match rng.gen_range(10) {
                    0..=5 if !ctx.line_state(n, A).readable() => ctx.read(&mut p, n, A),
                    6..=7 if ctx.line_state(n, A) == LineState::V => ctx.evict(&mut p, n, A),
                    8..=9 => ctx.write(&mut p, n, A),
                    _ => continue,
                }
                ctx.assert_swmr(A);
                p.check_invariants(&ctx, &[A], true).unwrap();
            }
        }

        fn invariants_reject_misshapen_edge_tables(p) {
            let mut ctx = MockCtx::new(16);
            for n in 1..=3 {
                ctx.read(&mut p, n, A);
            }
            p.check_invariants(&ctx, &[A], true).unwrap();
            let mut self_loop = p.clone();
            self_loop.rows.edit(3, A, |r| r.children.push(3));
            assert!(self_loop.check_invariants(&ctx, &[A], false).is_err());
            // A well-formed list the tree does not imply: a leaf adopts
            // another member.
            let leaf = (1..=3).find(|&n| p.children_of(n, A).is_empty()).unwrap();
            let other = (1..=3).find(|&n| n != leaf).unwrap();
            let mut wrong_shape = p.clone();
            wrong_shape.rows.edit(leaf, A, |r| r.children.push(other));
            assert!(wrong_shape.check_invariants(&ctx, &[A], false).is_ok());
            assert!(wrong_shape.check_invariants(&ctx, &[A], true).is_err());
        }
    }
}
