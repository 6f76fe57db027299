//! Scalable Tree Protocol (Nilsson & Stenström, 1992; §2.2 of the paper)
//! — Dir₂Tree<sub>k</sub> with top-down balanced trees: the arrival-order
//! [`Shape`] of a [`HomeTree`](super::home_tree::HomeTree).
//!
//! Sharers occupy tree positions in arrival order: the `j`-th member's
//! parent is member `(j−1)/k`, so the tree is always balanced and
//! invalidations complete in `log_k P` time. The price (the paper's point)
//! is the read miss: joining costs an attach handshake on top of the data
//! reply (4–8 messages), and *replacement* needs a full repair — the last
//! member is moved into the hole, with fix-ups at both parents.

use crate::ctx::ProtoCtx;
use crate::dir::home_tree::{Rec, Shape};
use crate::dir::util::{read_fill, send, send_home, NodeRecs};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, ProtocolKind};
use crate::types::{Addr, LineState, NodeId};

/// STP's shape: the members in arrival order, member `j`'s parent being
/// member `(j−1)/k`.
#[derive(Clone)]
pub struct Arrival {
    arity: u32,
}

impl Arrival {
    pub fn new(arity: u32) -> Self {
        assert!(arity >= 2);
        Self { arity }
    }

    /// The parent of the member at position `j`.
    fn parent(&self, members: &[NodeId], j: usize) -> Option<NodeId> {
        (j > 0).then(|| members[(j - 1) / self.arity as usize])
    }

    /// The children of the member at position `j`.
    fn children(&self, members: &[NodeId], j: usize) -> Vec<NodeId> {
        let k = self.arity as usize;
        members.iter().skip(k * j + 1).take(k).copied().collect()
    }

    /// `StpMove` at the last member: take the leaver's place — its
    /// children, and its parent — and fix up the old and the new parent;
    /// their acks, or none needed, end the repair with `StpLeaveDone`.
    fn take_place(
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        nodes: &mut NodeRecs<Rec>,
        replacing: NodeId,
        new_parent: Option<NodeId>,
        new_children: &[NodeId],
    ) {
        // The last member had no children of its own.
        let mut inherited = nodes.edit(replacing, |r| std::mem::take(&mut r.children));
        inherited.retain(|&c| c != node);
        for &c in new_children {
            if !inherited.contains(&c) && c != node {
                inherited.push(c);
            }
        }
        nodes.edit(node, |r| r.children = inherited);
        // Our old parent is whoever currently lists us as a child.
        let old_parents: Vec<NodeId> = nodes
            .iter()
            .filter(|(p, r)| *p != node && r.children.contains(&node))
            .map(|(p, _)| p)
            .collect();
        let fixups = old_parents
            .into_iter()
            .map(|p| (p, node, None))
            .chain(new_parent.map(|np| (np, replacing, Some(node))));
        let mut outstanding = 0;
        for (p, remove, add) in fixups {
            let fixup = MsgKind::StpFixup {
                remove: Some(remove),
                add,
                from_home: false,
            };
            send(ctx, node, p, addr, fixup);
            outstanding += 1;
        }
        if outstanding == 0 {
            send_home(ctx, node, addr, MsgKind::StpLeaveDone);
        } else {
            nodes.edit(node, |r| r.fixups = outstanding);
        }
    }
}

impl Shape for Arrival {
    type Tree = Vec<NodeId>;
    const LEAVE: MsgKind = MsgKind::StpLeave;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Stp { arity: self.arity }
    }

    fn arity(&self) -> usize {
        self.arity as usize
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.arity as u64 * ptr_bits(nodes) + 3
    }

    fn root(members: &Vec<NodeId>) -> Option<NodeId> {
        members.first().copied()
    }

    fn contains(members: &Vec<NodeId>, node: NodeId) -> bool {
        members.contains(&node)
    }

    fn clear(members: &mut Vec<NodeId>) {
        members.clear();
    }

    /// The requester takes the next position — or keeps its own, on a
    /// re-read while its racing leave is still queued — and attaches to
    /// its parent before the fill completes (the FillAck closes the
    /// transaction).
    fn join(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        members: &mut Vec<NodeId>,
        keep: Option<NodeId>,
        requester: NodeId,
    ) -> u32 {
        members.extend(keep);
        let j = members
            .iter()
            .position(|&m| m == requester)
            .unwrap_or_else(|| {
                members.push(requester);
                members.len() - 1
            });
        let parent = self.parent(members, j);
        send(ctx, home, requester, addr, MsgKind::StpJoinResp { parent });
        0
    }

    /// Repair the balanced tree by moving the last member into the hole.
    /// The mover's `StpLeaveDone` ends the repair; a leaver that was last
    /// needs only its parent told, and that fix-up's ack ends it.
    fn leave(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        members: &mut Vec<NodeId>,
        nodes: &mut NodeRecs<Rec>,
        leaver: NodeId,
    ) -> u32 {
        let j = members
            .iter()
            .position(|&m| m == leaver)
            .expect("the shell checked the leaver is a member");
        let mover = members.pop().expect("a member left, so there is one");
        if mover == leaver {
            nodes.edit(leaver, |r| r.children.clear());
            let Some(parent) = self.parent(members, j) else {
                return 0; // sole member: nothing to fix
            };
            let fixup = MsgKind::StpFixup {
                remove: Some(leaver),
                add: None,
                from_home: true,
            };
            send(ctx, home, parent, addr, fixup);
            return 1;
        }
        members[j] = mover;
        let new_parent = self.parent(members, j).filter(|&p| p != mover);
        let new_children = self.children(members, j).into();
        let take_place = MsgKind::StpMove {
            replacing: leaver,
            new_parent,
            new_children,
        };
        send(ctx, home, mover, addr, take_place);
        1
    }

    fn handle(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        msg: Msg,
        nodes: &mut NodeRecs<Rec>,
    ) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::StpJoinResp { parent } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
                match parent {
                    // Attach handshake before the miss completes.
                    Some(p) if p != node => send(ctx, node, p, addr, MsgKind::StpAttach),
                    _ => read_fill(ctx, node, addr),
                }
            }
            MsgKind::StpAttach => {
                let child = msg.src;
                nodes.edit(node, |r| {
                    if !r.children.contains(&child) {
                        r.children.push(child);
                    }
                });
                send(ctx, node, child, addr, MsgKind::StpAttachAck);
            }
            MsgKind::StpAttachAck => read_fill(ctx, node, addr),
            MsgKind::StpMove {
                replacing,
                new_parent,
                new_children,
            } => Self::take_place(ctx, node, addr, nodes, replacing, new_parent, &new_children),
            MsgKind::StpFixup {
                remove,
                add,
                from_home,
            } => {
                nodes.edit(node, |r| {
                    r.children.retain(|&c| Some(c) != remove);
                    if let Some(a) = add.filter(|&a| a != node && !r.children.contains(&a)) {
                        r.children.push(a);
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
            // A mover's fix-up acked (the home's own come to the shell).
            MsgKind::StpFixupAck { dir: false } => {
                let repaired = nodes.edit(node, |r| {
                    assert!(r.fixups > 0, "fixup ack without pending repair");
                    r.fixups -= 1;
                    r.fixups == 0
                });
                if repaired {
                    send_home(ctx, node, addr, MsgKind::StpLeaveDone);
                }
            }
            other => unreachable!("STP received {other:?}"),
        }
    }

    /// Member `j`'s children are members `k·j+1 … k·j+k`.
    fn edges(&self, members: &Vec<NodeId>) -> Vec<(NodeId, Vec<NodeId>)> {
        members
            .iter()
            .enumerate()
            .map(|(j, &m)| (m, self.children(members, j)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::home_tree::HomeTree;
    use crate::protocol::Protocol;
    use crate::testutil::MockCtx;

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, HomeTree<Arrival>) {
        (MockCtx::new(nodes), HomeTree::new(Arrival::new(2)))
    }

    fn members(p: &HomeTree<Arrival>, addr: Addr) -> Vec<NodeId> {
        p.tree(addr).cloned().unwrap_or_default()
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
        assert_eq!(members(&p, A), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(p.children_of(1, A), &[2, 3]);
        assert_eq!(p.children_of(2, A), &[4, 5]);
        assert_eq!(p.children_of(3, A), &[6, 7]);
    }

    #[test]
    fn leaf_eviction_repairs_cheaply() {
        let (mut ctx, mut p) = setup(16);
        for n in 1..=7 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 7, A); // last member: parent fix-up only
        assert_eq!(members(&p, A), vec![1, 2, 3, 4, 5, 6]);
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
        assert_eq!(members(&p, A), vec![1, 7, 3, 4, 5, 6]);
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
        assert_eq!(members(&p, A), vec![5, 2, 3, 4]);
        assert_eq!(p.children_of(5, A), &[2, 3]);
        ctx.write(&mut p, 9, A);
        ctx.assert_swmr(A);
    }

    #[test]
    fn dirty_read_rebuilds_tree_from_owner() {
        let (mut ctx, mut p) = setup(16);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(members(&p, A), vec![2, 5]);
    }

    /// Build a 7-member tree on `A`, then repair it three ways (interior,
    /// last-member and root eviction); returns everything sent meanwhile.
    fn repairs_on_a(ctx: &mut MockCtx, p: &mut HomeTree<Arrival>) -> Vec<(NodeId, Msg)> {
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
        assert_eq!(members(&p, A), vec![1, 7, 3, 4, 5, 6]);
        assert_eq!(members(&p, B), vec![7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(p.children_of(7, A), &[4, 5]);
        assert_eq!(p.children_of(7, B), &[6, 5]);
        ctx.evict(&mut p, 6, B); // 1 moves under 7 in B; it is A's root
        p.check_invariants(&ctx, &[A, B], true).unwrap();
        assert_eq!(members(&p, B), vec![7, 1, 5, 4, 3, 2]);
        assert_eq!(p.children_of(1, B), &[4, 3]);
        assert_eq!(p.children_of(1, A), &[3, 7]);
        ctx.evict(&mut p, 7, A);
        ctx.evict(&mut p, 7, B);
        p.check_invariants(&ctx, &[A, B], true).unwrap();
        assert_eq!(members(&p, A), vec![1, 6, 3, 4, 5]);
        assert_eq!(members(&p, B), vec![2, 1, 5, 4, 3]);
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
    fn directory_is_two_pointers() {
        let p = HomeTree::new(Arrival::new(2));
        assert_eq!(p.dir_bits_per_mem_block(32), 11);
        assert_eq!(p.cache_bits_per_line(32), 13);
    }
}
