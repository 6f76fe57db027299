//! Singly-linked-list protocol (Thapar, Delagi & Flynn; §2.2 of the
//! paper) — Dir₁Tree₁ with forward pointers only.
//!
//! The home keeps one pointer to the list *head* (the most recent reader);
//! each cache keeps a forward pointer to the next sharer; the tail points
//! back at the home (`next = None`). A read miss costs 3 messages (home
//! redirects the old head to supply); a write miss walks the chain
//! sequentially — the protocol's defining weakness.
//!
//! **Replacement** is under-specified in the original; forward-only
//! pointers cannot splice a node out locally. We invalidate the evicted
//! node's *tail* (everything downstream) with unacknowledged
//! `ReplaceInv`s, and let invalidation walks treat any dead node as the
//! end of the chain — every walk then terminates with exactly one
//! `SllChainDone`, even across stale pointers and re-insertions (see the
//! walk-termination tests).

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{read_fill, send, send_home, Rows};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};

#[derive(Clone, Default, PartialEq, Hash)]
struct Entry {
    head: Option<NodeId>,
    dirty: bool,
    /// Open-transaction bookkeeping.
    wait_fill: bool,
    wait_wbdata: bool,
    pending_writer: Option<NodeId>,
}

/// The singly-linked-list protocol.
#[derive(Clone)]
pub struct SinglyList {
    /// Per listed node, its cache-side forward pointer: `Some(None)` is
    /// the tail, `None` not listed.
    rows: Rows<Entry, Option<Option<NodeId>>>,
}

impl SinglyList {
    pub fn new() -> Self {
        Self {
            rows: Rows::default(),
        }
    }

    /// Unlink `node`, returning its forward pointer if it was listed.
    fn take_next(&mut self, node: NodeId, addr: Addr) -> Option<Option<NodeId>> {
        self.rows.edit(node, addr, Option::take)
    }

    /// The list as seen from the home (diagnostics; stops at dead ends).
    pub fn chain(&self, addr: Addr, max: usize) -> Vec<NodeId> {
        let mut out = Vec::new();
        let Some(row) = self.rows.get(addr) else {
            return out;
        };
        let mut cur = row.entry.as_ref().and_then(|e| e.head);
        while let Some(n) = cur {
            if out.contains(&n) || out.len() >= max {
                break;
            }
            out.push(n);
            cur = row.nodes.get(n).copied().flatten().flatten();
        }
        out
    }

    fn maybe_finish(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let row = self.rows.row(addr);
        let e = row.entry.as_ref().unwrap();
        if !e.wait_fill && !e.wait_wbdata {
            row.gate.finish_txn(ctx, home);
        }
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
        e.wait_fill = true;
        match e.head {
            None => {
                send(
                    ctx,
                    home,
                    requester,
                    addr,
                    MsgKind::ReadReply {
                        adopt: NodeList::default(),
                    },
                );
                e.head = Some(requester);
            }
            Some(old_head) if old_head == requester => {
                // Stale self-pointer: the requester was the head, silently
                // lost its copy (its tail died with it), and is re-reading.
                send(
                    ctx,
                    home,
                    requester,
                    addr,
                    MsgKind::ReadReply {
                        adopt: NodeList::default(),
                    },
                );
                e.dirty = false;
            }
            Some(old_head) => {
                // Redirect the old head to supply; requester becomes head.
                e.head = Some(requester);
                if e.dirty {
                    e.wait_wbdata = true;
                }
                send(ctx, home, old_head, addr, MsgKind::SllSupply { requester });
            }
        }
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
        match e.head {
            None => {
                e.head = Some(requester);
                e.dirty = true;
                send(
                    ctx,
                    home,
                    requester,
                    addr,
                    MsgKind::WriteReply {
                        kill_self_subtree: false,
                    },
                );
                row.gate.finish_txn(ctx, home);
            }
            Some(head) => {
                e.pending_writer = Some(requester);
                send(ctx, home, head, addr, MsgKind::SllInv { writer: requester });
            }
        }
    }

    fn handle_chain_done(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("chain done without entry");
        let writer = e.pending_writer.take().expect("chain done without writer");
        e.head = Some(writer);
        e.dirty = true;
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

    /// A node's slot in the chain has ended (invalidated or dead): either
    /// forward the walk or report completion to the home.
    fn walk_step(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, writer: NodeId) {
        let next = self.take_next(node, addr).flatten();
        match next {
            Some(nx) => send(ctx, node, nx, addr, MsgKind::SllInv { writer }),
            None => {
                send_home(ctx, node, addr, MsgKind::SllChainDone { writer });
            }
        }
    }

    fn handle_inv(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::SllInv { writer } = msg.kind else {
            unreachable!()
        };
        match ctx.line_state(node, addr) {
            // A dirty owner sits in the chain like any sharer: its copy
            // dies (ownership passes to the writer via the home's grant).
            LineState::V | LineState::E => {
                ctx.note(ProtoEvent::Invalidation);
                ctx.set_line_state(node, addr, LineState::Iv);
                self.walk_step(ctx, node, addr, writer);
            }
            LineState::WmIp | LineState::WmLip => {
                // The upgrading writer's old copy: dies, but the line stays
                // transient awaiting its own grant.
                self.walk_step(ctx, node, addr, writer);
            }
            // Dead end (evicted, or never served): the downstream tail was
            // killed by the eviction's ReplaceInv, so the walk ends here.
            _ => {
                send_home(ctx, node, addr, MsgKind::SllChainDone { writer });
            }
        }
    }

    fn handle_supply(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::SllSupply { requester } = msg.kind else {
            unreachable!()
        };
        let home = ctx.home_of(addr);
        match ctx.line_state(node, addr) {
            // A WmIp/WmLip holder still has its old (pre-upgrade) copy: the
            // redirected read is ordered before its queued write, so it
            // supplies normally and stays in the chain for the write's walk.
            LineState::V | LineState::E | LineState::WmIp | LineState::WmLip => {
                if ctx.line_state(node, addr) == LineState::E {
                    ctx.set_line_state(node, addr, LineState::V);
                    send(
                        ctx,
                        node,
                        home,
                        addr,
                        MsgKind::WbData {
                            for_op: OpKind::Read,
                            requester,
                        },
                    );
                }
                send(ctx, node, requester, addr, MsgKind::SllData);
            }
            _ => {
                // Dead head (silent replacement race): the home supplies.
                send(ctx, node, home, addr, MsgKind::SllSupplyFail { requester });
            }
        }
    }

    /// Dirty-read writeback from a live supplier: memory is fresh again.
    fn handle_wbdata(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        let e = self.rows.row(addr).entry.get_or_insert_default();
        e.dirty = false;
        e.wait_wbdata = false;
        self.maybe_finish(ctx, home, addr);
    }

    /// The redirected old head was dead: serve the requester from memory.
    fn handle_supply_fail(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        requester: NodeId,
    ) {
        let e = self.rows.row(addr).entry.get_or_insert_default();
        e.dirty = false;
        e.wait_wbdata = false;
        send(
            ctx,
            home,
            requester,
            addr,
            MsgKind::ReadReply {
                adopt: NodeList::default(),
            },
        );
        self.maybe_finish(ctx, home, addr);
    }

    fn fill(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, next: Option<NodeId>) {
        debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
        self.rows.edit(node, addr, |r| *r = Some(next));
        read_fill(ctx, node, addr);
    }
}

impl Default for SinglyList {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for SinglyList {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::SinglyList
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_read_req(ctx, node, msg),
            MsgKind::WriteReq { .. } => self.handle_write_req(ctx, node, msg),
            MsgKind::SllChainDone { .. } => self.handle_chain_done(ctx, node, addr),
            MsgKind::SllInv { .. } => self.handle_inv(ctx, node, msg),
            MsgKind::SllSupply { .. } => self.handle_supply(ctx, node, msg),
            MsgKind::SllData => {
                let supplier = msg.src;
                self.fill(ctx, node, addr, Some(supplier));
            }
            MsgKind::ReadReply { .. } => self.fill(ctx, node, addr, None),
            MsgKind::WriteReply { .. } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                self.rows.edit(node, addr, |r| *r = Some(None));
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
            }
            MsgKind::WbData { .. } => self.handle_wbdata(ctx, node, addr),
            MsgKind::SllSupplyFail { requester } => {
                self.handle_supply_fail(ctx, node, addr, requester)
            }
            MsgKind::WbEvict => {
                let e = self.rows.row(addr).entry.get_or_insert_default();
                if e.head == Some(msg.src) {
                    e.head = None;
                }
                e.dirty = false;
            }
            MsgKind::FillAck => {
                let e = self.rows.row(addr).entry.get_or_insert_default();
                e.wait_fill = false;
                self.maybe_finish(ctx, node, addr);
            }
            MsgKind::ReplaceInv => {
                if ctx.line_state(node, addr) == LineState::V {
                    ctx.note(ProtoEvent::ReplacementInvalidation);
                    ctx.set_line_state(node, addr, LineState::Iv);
                    if let Some(Some(nx)) = self.take_next(node, addr) {
                        send(ctx, node, nx, addr, MsgKind::ReplaceInv);
                    }
                }
            }
            other => unreachable!("singly-linked list received {other:?}"),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        match state {
            LineState::V => {
                // Forward pointers cannot splice: kill the tail downstream.
                if let Some(Some(nx)) = self.take_next(node, addr) {
                    send(ctx, node, nx, addr, MsgKind::ReplaceInv);
                }
            }
            LineState::E => {
                self.take_next(node, addr);
                send_home(ctx, node, addr, MsgKind::WbEvict);
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        ptr_bits(nodes) + 2 // head pointer + valid + dirty
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        ptr_bits(nodes) + 1 + 3 // next pointer + tail flag + state
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

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, SinglyList) {
        (MockCtx::new(nodes), SinglyList::new())
    }

    #[test]
    fn first_read_is_two_messages_then_three() {
        let (mut ctx, mut p) = setup(8);
        let mark = ctx.mark();
        ctx.read(&mut p, 1, A);
        assert_eq!(ctx.critical_since(mark), 2, "empty list: home supplies");
        let mark = ctx.mark();
        ctx.read(&mut p, 2, A);
        assert_eq!(
            ctx.critical_since(mark),
            3,
            "paper Table 1: req + supply-redirect + data"
        );
    }

    #[test]
    fn list_orders_newest_first() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=4 {
            ctx.read(&mut p, n, A);
        }
        assert_eq!(p.chain(A, 16), vec![4, 3, 2, 1]);
    }

    #[test]
    fn write_walks_the_whole_chain() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=4 {
            ctx.read(&mut p, n, A);
        }
        let mark = ctx.mark();
        ctx.write(&mut p, 6, A);
        // req + 4 chain hops + done + grant = P + 3 = 7.
        assert_eq!(ctx.critical_since(mark), 7);
        for n in 1..=4 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
        assert_eq!(p.chain(A, 16), vec![6]);
    }

    #[test]
    fn dirty_read_downgrades_owner_and_chains() {
        let (mut ctx, mut p) = setup(8);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(ctx.line_state(5, A), LineState::V);
        assert_eq!(p.chain(A, 16), vec![5, 2]);
        ctx.write(&mut p, 3, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![3]);
    }

    #[test]
    fn eviction_kills_the_tail_but_walk_still_terminates() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=4 {
            ctx.read(&mut p, n, A); // chain 4-3-2-1
        }
        ctx.evict(&mut p, 3, A); // kills 2 and 1 downstream
        assert!(!ctx.line_state(2, A).readable());
        assert!(!ctx.line_state(1, A).readable());
        assert!(ctx.line_state(4, A).readable(), "upstream survives");
        // The write walk crosses the dead zone and still completes.
        ctx.write(&mut p, 6, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![6]);
    }

    #[test]
    fn dead_head_read_falls_back_to_home_supply() {
        let (mut ctx, mut p) = setup(8);
        ctx.read(&mut p, 1, A);
        ctx.evict(&mut p, 1, A); // head dead, home pointer stale
        ctx.read(&mut p, 2, A); // supply fails; home serves
        assert!(ctx.line_state(2, A).readable());
        ctx.write(&mut p, 3, A);
        ctx.assert_swmr(A);
    }

    #[test]
    fn reinsertion_with_stale_pointer_walk_terminates_once() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3-2-1
        }
        ctx.evict(&mut p, 2, A); // kills 1; 3 still points at 2
        ctx.read(&mut p, 2, A); // 2 rejoins at head: 2-3-(dead 2...)
                                // Walk: 2 -> 3 -> 2(dead, Iv) -> done. Must not deadlock and must
                                // deliver exactly one grant.
        ctx.write(&mut p, 5, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![5]);
    }

    #[test]
    fn upgrade_write_from_inside_the_chain() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 2, A); // 2 is mid-chain
        assert_eq!(ctx.line_state(2, A), LineState::E);
        assert!(!ctx.line_state(1, A).readable());
        assert!(!ctx.line_state(3, A).readable());
        ctx.assert_swmr(A);
    }

    #[test]
    fn exclusive_eviction_resets_home() {
        let (mut ctx, mut p) = setup(8);
        ctx.write(&mut p, 3, A);
        ctx.evict(&mut p, 3, A);
        let mark = ctx.mark();
        ctx.read(&mut p, 4, A);
        assert_eq!(ctx.critical_since(mark), 2, "home supplies a clean block");
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
    fn head_upgrade_write_walks_from_its_next() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3-2-1, head 3
        }
        ctx.write(&mut p, 3, A); // head upgrades
        assert_eq!(ctx.line_state(3, A), LineState::E);
        assert!(!ctx.line_state(2, A).readable());
        assert!(!ctx.line_state(1, A).readable());
        ctx.assert_swmr(A);
    }

    #[test]
    fn double_eviction_and_rejoin_keeps_chain_sound() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=4 {
            ctx.read(&mut p, n, A); // 4-3-2-1
        }
        ctx.evict(&mut p, 2, A); // kills 1
        ctx.read(&mut p, 2, A); // rejoins at head
        ctx.evict(&mut p, 2, A); // leaves again (kills 4, 3 downstream!)
        assert!(!ctx.line_state(3, A).readable());
        assert!(!ctx.line_state(4, A).readable());
        ctx.read(&mut p, 5, A);
        ctx.write(&mut p, 6, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![6]);
    }

    #[test]
    fn memory_overhead_is_one_pointer_each_side() {
        let p = SinglyList::new();
        assert_eq!(p.dir_bits_per_mem_block(32), 7);
        assert_eq!(p.cache_bits_per_line(32), 9);
    }
}
