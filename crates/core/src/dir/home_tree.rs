//! Home-held sharing trees: the family of §2.2's two Dir₂Tree<sub>k</sub>
//! baselines, the Scalable Tree Protocol ([`super::stp`]) and the SCI tree
//! extension ([`super::sci_tree`]), on the shared home transaction
//! ([`super::home`]: admission, recall, writeback, grant and close).
//!
//! In both, the home keeps the authoritative sharing tree as a simulation
//! convenience (the real protocols distribute this bookkeeping); every
//! structural change is still paid for in messages, and acknowledged
//! before the enclosing home transaction closes, so an invalidation walk
//! never observes a half-applied repair. The two differ only in the tree's
//! shape — arrival-order k-ary for STP, AVL for the SCI extension — and
//! that is all a [`Shape`] supplies: the root, the read-miss join, the
//! leave repair, the messages only it uses, and the child lists its tree
//! implies. The rest of the family is [`HeldTree`]:
//!
//! * at the home: a write's wave is one `Inv` to the root (whose subtree
//!   collects every ack), and a transaction closes through one count of
//!   outstanding parts, which `FillAck`, `StpLeaveDone` and `StpFixupAck`
//!   all retire; a leave is a transaction of its own;
//! * at the caches: every family's [`wave_step`] down the cache-side child
//!   lists, [`settle`] and [`write_fill`]; eviction.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::home::{close_part, Family, Home, HomeRow, HomeRows};
use crate::dir::util::{
    check_edges, send, send_home, settle, wave_msg, wave_step, write_fill, Collector, NodeRecs,
};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, ProtocolKind};
use crate::types::{Addr, LineState, NodeId};
use std::hash::Hash;

/// The home's record of one block's tree.
#[derive(Clone, Default, PartialEq, Hash)]
pub struct TreeEntry<T> {
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

/// The home-held tree family of shape `S`.
#[derive(Clone)]
pub struct HeldTree<S: Shape> {
    shape: S,
}

/// A home-held tree protocol of shape `S`.
pub type HomeTree<S> = Home<HeldTree<S>>;

impl<S: Shape> HomeTree<S> {
    pub fn new(shape: S) -> Self {
        Home::with(HeldTree { shape })
    }

    /// The home's tree for `addr` (diagnostics).
    pub fn tree(&self, addr: Addr) -> Option<&S::Tree> {
        self.rows.get(addr)?.entry.as_ref().map(|e| &e.fam.tree)
    }

    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.children)
    }
}

impl<S: Shape> Family for HeldTree<S> {
    type Entry = TreeEntry<S::Tree>;
    type Rec = Rec;
    type Mode = ();

    fn kind(&self) -> ProtocolKind {
        self.shape.kind()
    }

    fn serve_read(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        keep: Option<NodeId>,
        reader: NodeId,
    ) {
        let e = &mut row.entry.as_mut().expect("a request made the entry").fam;
        e.wait_parts = 1 + self.shape.join(ctx, home, addr, &mut e.tree, keep, reader);
    }

    /// One `Inv` to the root; its subtree collects every other ack.
    fn launch_write(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        _: NodeId,
    ) -> u32 {
        let e = &mut row.entry.as_mut().expect("a request made the entry").fam;
        let Some(root) = S::root(&e.tree) else {
            return 0;
        };
        S::clear(&mut e.tree);
        send(ctx, home, root, addr, wave_msg(false, None, true));
        1
    }

    fn clear(e: &mut TreeEntry<S::Tree>) -> bool {
        S::clear(&mut e.tree);
        false
    }

    fn part_done(e: &mut TreeEntry<S::Tree>) -> bool {
        debug_assert!(e.wait_parts > 0, "unexpected part ack");
        e.wait_parts -= 1;
        e.wait_parts == 0
    }

    fn handle(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        msg: Msg,
        rows: &mut HomeRows<Self>,
    ) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::InvAck { dir: false } => {
                rows.edit(node, addr, |r| {
                    settle(ctx, node, addr, false, &mut r.collector)
                });
            }
            MsgKind::StpLeaveDone | MsgKind::StpFixupAck { dir: true } => {
                close_part::<Self>(ctx, node, rows.row(addr))
            }
            // A reader evicted its copy: the shape repairs the tree, as a
            // home transaction through the block's gate.
            MsgKind::StpLeave | MsgKind::SctLeave => {
                let row = rows.row(addr);
                if !row.gate.admit(&msg) {
                    return;
                }
                let e = &mut row.entry.get_or_insert_default().fam;
                // A leaver a write transaction already cleared owes nothing.
                if S::contains(&e.tree, msg.src) {
                    ctx.note(ProtoEvent::ReplacementInvalidation);
                    let (tree, nodes) = (&mut e.tree, &mut row.nodes);
                    e.wait_parts = self.shape.leave(ctx, node, addr, tree, nodes, msg.src);
                }
                if e.wait_parts == 0 {
                    row.gate.finish_txn(ctx, node);
                }
            }
            // A wave goes down the node's child list whatever the line's
            // state: a leave repairs the tree, so a departed node's
            // children stay alive.
            MsgKind::Inv { .. } => rows.edit(node, addr, |r| {
                let kids = |_| std::mem::take(&mut r.children);
                wave_step(ctx, node, &msg, &mut r.collector, kids);
            }),
            MsgKind::WriteReply { .. } => rows.edit(node, addr, |r| {
                r.children.clear();
                write_fill(ctx, node, addr, &mut r.collector, &[]);
            }),
            _ => self.shape.handle(ctx, node, msg, &mut rows.row(addr).nodes),
        }
    }

    fn evict(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        state: LineState,
        _: &mut HomeRows<Self>,
    ) {
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

    fn collecting(r: &Rec) -> bool {
        r.collector.is_some()
    }

    /// The structural invariants of both shapes.
    ///
    /// Checked at **every** state: a child list holds at most
    /// [`Shape::arity`] distinct valid nodes, never the node itself.
    ///
    /// Checked only at **quiescence**:
    /// * no repair is left open;
    /// * a dirty block has an empty tree;
    /// * every member's child list is the one the home's tree gives it
    ///   ([`Shape::edges`]), and non-members hold none.
    ///
    /// Deliberately absent: "every valid copy is a member". A leave queued
    /// behind a write and a re-read by the same node removes the rejoined
    /// member (the checker's P=2 counterexample; see ROADMAP), so that
    /// claim is false of both protocols as they stand.
    fn check(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
        rows: &HomeRows<Self>,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        let arity = self.shape.arity();
        for (addr, row) in rows.iter() {
            for (node, rec) in row.nodes.iter() {
                check_edges(node, addr, &rec.children, "child pointer", arity, nodes)?;
                if quiescent && rec.fixups != 0 {
                    return Err(format!("quiescent but node {node} still repairs {addr:#x}"));
                }
            }
        }
        if !quiescent {
            return Ok(());
        }
        let empty = S::Tree::default();
        for &addr in addrs {
            let row = rows.get(addr);
            let entry = row.and_then(|r| r.entry.as_ref());
            let tree = entry.map_or(&empty, |e| &e.fam.tree);
            if entry.is_some_and(|e| e.own.dirty) && S::root(tree).is_some() {
                return Err(format!("dirty block {addr:#x} still records a tree"));
            }
            for (m, mut want) in self.shape.edges(tree) {
                let mut have = rows.rec(m, addr).map_or(vec![], |r| r.children.clone());
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
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::sci_tree::AvlShape;
    use crate::dir::stp::Arrival;
    use crate::protocol::Protocol;
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
