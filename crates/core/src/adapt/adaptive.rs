//! `DirTreeAdaptive` — Dir<sub>i</sub>Tree<sub>k</sub> with a per-block
//! write policy chosen at run time.
//!
//! The protocol is a [`PatternDetector`] and two drain counters around
//! *one* [`DirTree`] built with the per-block write policy: every block
//! carries one bit (invalidate by default) that decides which wave its next
//! write launches, and a flip sets that bit in place — roots, child edges
//! and zombie edges are meaningful to either wave and never move. Every
//! message goes to the one tree, whose handlers dispatch on the message
//! kind; that is well-defined because the bit cannot change while any
//! message for the block is in flight.
//!
//! **Transition-drain rule.** A block flips only when the home is about to
//! serve a fresh request for it and the block is *drained*: zero in-flight
//! messages (counted by wrapping the [`ProtoCtx`] the tree sees), zero
//! pending processor-op retirements (so a write completed under the old
//! policy also *retires* under it), and `DirTree::flip_idle` — no home
//! transaction or deferred request, no open ack collection, no deferred
//! kill, and a clean directory entry with no write in progress: an
//! exclusive owner must write back before its block can become an update
//! block. [`Protocol::check_invariants`] pins the forest's reachability
//! invariants under whichever policy each block currently has.

use crate::adapt::detector::{BlockPattern, PatternDetector};
use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::dir_tree::{DirTree, WritePolicy};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind, ProtocolParams};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::{BlockTable, Cycle};

/// One block's state outside the tree.
#[derive(Clone, Default, PartialEq, Hash)]
struct Row {
    /// In-flight message count: incremented when the tree sends or
    /// redelivers, decremented on every arrival. A block may only flip at
    /// zero.
    inflight: u32,
    /// Completions handed to the machine whose processor-side retirement
    /// has not been confirmed yet ([`Protocol::note_op_retired`]). A write
    /// that completed under update semantics must also retire under them,
    /// so a block may only flip at zero.
    pending_retire: u32,
    /// The detector's observations, once the home saw a request or a read
    /// hit was noted.
    pattern: Option<BlockPattern>,
}

/// The adaptive hybrid protocol (see module docs).
#[derive(Clone)]
pub struct DirTreeAdaptive {
    /// The forest, holding each block's write-policy bit.
    tree: DirTree,
    detector: PatternDetector,
    rows: BlockTable<Row>,
    /// Machine size, latched from the context (the detector sizes reader
    /// bitsets with it). Constant per machine, so not fingerprinted.
    nodes: u32,
}

/// The [`ProtoCtx`] the tree sees: counts sends/redeliveries and
/// completions per block so the outer protocol knows when a block is
/// drained; everything else passes through.
struct CountingCtx<'a> {
    inner: &'a mut dyn ProtoCtx,
    rows: &'a mut BlockTable<Row>,
}

impl ProtoCtx for CountingCtx<'_> {
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }
    fn home_of(&self, addr: Addr) -> NodeId {
        self.inner.home_of(addr)
    }
    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.rows.get_mut_or_grow(msg.addr).inflight += 1;
        self.inner.send(dst, msg);
    }
    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        self.rows.get_mut_or_grow(msg.addr).inflight += 1;
        self.inner.redeliver(node, msg, delay);
    }
    fn occupy(&mut self, node: NodeId, cycles: Cycle) {
        self.inner.occupy(node, cycles);
    }
    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.inner.line_state(node, addr)
    }
    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.inner.set_line_state(node, addr, state);
    }
    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.rows.get_mut_or_grow(addr).pending_retire += 1;
        self.inner.complete(node, addr, op);
    }
    fn note(&mut self, event: ProtoEvent) {
        self.inner.note(event);
    }
}

macro_rules! counting {
    ($self:ident, $ctx:ident) => {
        CountingCtx {
            inner: $ctx,
            rows: &mut $self.rows,
        }
    };
}

/// One counted message arrived / completion retired for `addr`.
fn count_down(count: &mut u32, addr: Addr, what: &str) {
    if *count == 0 {
        debug_assert!(false, "uncounted {what} for {addr:#x}");
    } else {
        *count -= 1;
    }
}

impl DirTreeAdaptive {
    pub fn new(pointers: u32, arity: u32, params: ProtocolParams) -> Self {
        Self {
            tree: DirTree::with_policy(pointers, arity, params, WritePolicy::PerBlock),
            detector: PatternDetector::new(
                params.adapt_flip_up,
                params.adapt_flip_down,
                params.adapt_saturation,
            ),
            rows: BlockTable::new(),
            nodes: 0,
        }
    }

    /// Is `addr` currently an update-mode block?
    pub fn in_update_mode(&self, addr: Addr) -> bool {
        self.tree.updates(addr)
    }

    /// Current detector score for `addr` (diagnostics / tests).
    pub fn score(&self, addr: Addr) -> i32 {
        self.pattern(addr).map_or(0, BlockPattern::score)
    }

    fn pattern(&self, addr: Addr) -> Option<&BlockPattern> {
        self.rows.get(addr)?.pattern.as_ref()
    }

    /// Force `addr`'s mode bit *without* the drain check. This is a fault
    /// injector for the mutation tests — flipping mid-wave makes a
    /// completing write retire under the wrong semantics, which the SWMR
    /// witness must catch. Never called by the protocol itself.
    #[doc(hidden)]
    pub fn force_mode(&mut self, addr: Addr, update: bool) {
        self.tree.set_update_bit(addr, update);
    }

    /// Flip `addr`'s mode if the detector wants the other policy and the
    /// block is drained (see module docs). Called while the home serves a
    /// fresh `ReadReq`/`WriteReq` for a block the tree reports idle,
    /// *before* the tree sees the request.
    fn maybe_flip(&mut self, ctx: &mut dyn ProtoCtx, addr: Addr) {
        debug_assert!(self.tree.flip_idle(addr));
        let in_update = self.tree.updates(addr);
        if self.detector.prefers_update(self.pattern(addr), in_update) == in_update {
            return;
        }
        let row = self.rows.get_mut_or_grow(addr);
        if row.inflight != 0 || row.pending_retire != 0 {
            return;
        }
        self.tree.flip(addr, !in_update);
        ctx.note(ProtoEvent::ModeFlip {
            to_update: !in_update,
        });
    }
}

impl Protocol for DirTreeAdaptive {
    fn kind(&self) -> ProtocolKind {
        self.tree.kind()
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.tree.updates(addr)
    }

    fn wants_read_hits(&self) -> bool {
        true
    }

    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        debug_assert!(self.nodes > 0, "read hit before any miss");
        let pattern = &mut self.rows.get_mut_or_grow(addr).pattern;
        self.detector.record_read(pattern, node, self.nodes);
    }

    fn note_op_retired(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        let _ = (node, op);
        let row = self.rows.get_mut_or_grow(addr);
        count_down(&mut row.pending_retire, addr, "retirement");
    }

    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        self.nodes = ctx.num_nodes();
        self.tree
            .start_miss(&mut counting!(self, ctx), node, addr, op);
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        self.nodes = ctx.num_nodes();
        let addr = msg.addr;
        let row = self.rows.get_mut_or_grow(addr);
        count_down(&mut row.inflight, addr, "arrival");
        // Fresh requests at the home: feed the detector and consider a mode
        // flip before the tree serves them under the (possibly new) mode.
        // Reads are recorded even when the request will be deferred by the
        // transaction gate (the reader set is idempotent); writes are
        // classified only when actually admitted, so each write transaction
        // closes exactly one interval.
        match msg.kind {
            MsgKind::ReadReq { requester } => {
                self.detector
                    .record_read(&mut row.pattern, requester, self.nodes);
                if self.tree.flip_idle(addr) {
                    self.maybe_flip(ctx, addr);
                }
            }
            MsgKind::WriteReq { requester } if self.tree.flip_idle(addr) => {
                let pattern = self
                    .detector
                    .record_write(&mut row.pattern, requester, self.nodes);
                ctx.note(ProtoEvent::PatternSample(pattern));
                self.maybe_flip(ctx, addr);
            }
            _ => {}
        }
        self.tree.handle(&mut counting!(self, ctx), node, msg);
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        self.nodes = ctx.num_nodes();
        self.tree
            .evict(&mut counting!(self, ctx), node, addr, state);
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // Tree directory + detector state: reader bitset, last-writer
        // pointer, 4-bit saturating score, and the mode bit.
        self.tree.dir_bits_per_mem_block(nodes) + nodes as u64 + ptr_bits(nodes) + 5
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.tree.cache_bits_per_line(nodes)
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.tree.fingerprint(h);
        crate::fingerprint::digest_rows(h, &self.rows);
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        // In-flight and retire counts are node-free; the node-bearing
        // state lives in the tree and the detector's observations, both of
        // which certify equivariance concretely.
        Some(Box::new(DirTreeAdaptive {
            tree: self.tree.relabeled_concrete(perm),
            rows: self.rows.map(|r| Row {
                pattern: r.pattern.as_ref().map(|b| b.relabeled(perm)),
                ..*r
            }),
            ..*self
        }))
    }

    fn deliveries_commute(&self) -> bool {
        true
    }

    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        self.tree.check_invariants(ctx, addrs, quiescent)?;
        if quiescent {
            for (addr, row) in self.rows.iter_nonempty() {
                if row.inflight != 0 {
                    return Err(format!(
                        "quiescent but {} in-flight messages counted for {addr:#x}",
                        row.inflight
                    ));
                }
                if row.pending_retire != 0 {
                    return Err(format!(
                        "quiescent but {} unretired completions counted for {addr:#x}",
                        row.pending_retire
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
    use crate::testkit::MockCtx;

    const A: Addr = 0;
    const P: u32 = 16;

    fn adaptive() -> DirTreeAdaptive {
        DirTreeAdaptive::new(4, 2, ProtocolParams::default())
    }

    /// Mirror the machine: confirm retirement of every completion the mock
    /// logged since `from` (MockCtx itself has no retirement notion).
    fn retire(ctx: &MockCtx, p: &mut DirTreeAdaptive, from: usize) {
        for (n, a, op) in ctx.completed[from..].iter().copied() {
            p.note_op_retired(n, a, op);
        }
    }

    /// A read that mirrors the machine's hit path: hits feed
    /// `note_read_hit`, misses run to completion and retire.
    fn do_read(ctx: &mut MockCtx, p: &mut DirTreeAdaptive, node: NodeId, addr: Addr) {
        if ctx.line_state(node, addr).readable() {
            p.note_read_hit(node, addr);
            return;
        }
        let m = ctx.completed.len();
        ctx.read(p, node, addr);
        retire(ctx, p, m);
    }

    /// A write that runs to completion under either mode and retires;
    /// returns the writer's final line state.
    fn do_write(ctx: &mut MockCtx, p: &mut DirTreeAdaptive, node: NodeId, addr: Addr) -> LineState {
        if ctx.line_state(node, addr).writable() {
            return ctx.line_state(node, addr);
        }
        let m = ctx.completed.len();
        ctx.begin_miss(p, node, addr, OpKind::Write);
        ctx.run(p);
        assert!(
            ctx.completed[m..].contains(&(node, addr, OpKind::Write)),
            "write by {node} did not complete"
        );
        retire(ctx, p, m);
        ctx.line_state(node, addr)
    }

    #[test]
    fn read_mostly_block_flips_to_update_and_keeps_copies_valid() {
        let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
        // Interval 1: eight readers (half the machine), then a write. The
        // score reaches +1 — still invalidate mode, so the write kills
        // every reader and leaves the writer exclusive.
        for n in 1..=8 {
            do_read(&mut ctx, &mut p, n, A);
        }
        assert_eq!(do_write(&mut ctx, &mut p, 0, A), LineState::E);
        assert!(!p.in_update_mode(A));
        assert_eq!(ctx.holders(A), vec![0]);
        // Interval 2: same pattern. Score reaches +2 = flip threshold; the
        // write is served in update mode and every copy stays valid.
        for n in 1..=8 {
            do_read(&mut ctx, &mut p, n, A);
        }
        assert_eq!(do_write(&mut ctx, &mut p, 0, A), LineState::V);
        assert!(p.in_update_mode(A));
        assert!(p.is_update_for(A));
        assert_eq!(ctx.holders(A).len(), 9, "8 readers + writer all valid");
        ctx.assert_swmr(A);
    }

    #[test]
    fn private_rmw_stays_invalidate_with_exclusive_owner() {
        let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
        assert_eq!(do_write(&mut ctx, &mut p, 3, A), LineState::E);
        for _ in 0..10 {
            // Write hits on the exclusive copy: no traffic at all.
            let mark = ctx.mark();
            assert_eq!(do_write(&mut ctx, &mut p, 3, A), LineState::E);
            assert_eq!(ctx.sent_since(mark).len(), 0);
        }
        assert!(!p.in_update_mode(A));
    }

    #[test]
    fn migratory_token_stays_invalidate() {
        let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
        do_write(&mut ctx, &mut p, 0, A);
        for hop in 1..8 {
            do_read(&mut ctx, &mut p, hop, A);
            assert_eq!(do_write(&mut ctx, &mut p, hop, A), LineState::E);
        }
        assert!(!p.in_update_mode(A));
        assert!(p.score(A) < 0);
    }

    #[test]
    fn update_block_flips_back_when_pattern_turns_write_shared() {
        let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
        for round in 0..2 {
            let _ = round;
            for n in 1..=8 {
                do_read(&mut ctx, &mut p, n, A);
            }
            do_write(&mut ctx, &mut p, 0, A);
        }
        assert!(p.in_update_mode(A));
        // Ping-pong writes with no reads: write-shared, score falls from
        // +2; at -2 the block flips back mid-stream and that write runs as
        // an invalidation wave over the carried-over tree.
        let mut final_state = LineState::V;
        for i in 0..4 {
            final_state = do_write(&mut ctx, &mut p, 5 + (i % 2), A);
        }
        assert!(!p.in_update_mode(A), "flipped back to invalidate");
        assert_eq!(final_state, LineState::E, "last write ran as invalidate");
        assert_eq!(ctx.holders(A).len(), 1, "carried tree was invalidated");
        ctx.assert_swmr(A);
    }

    #[test]
    fn flip_carries_the_whole_forest_updates_reach_every_sharer() {
        let (mut ctx, mut p) = (MockCtx::new(32), adaptive());
        // Figure-5 style forest: 15 sharers with real tree depth, built
        // under invalidate mode across two read-mostly intervals.
        for round in 0..2 {
            let _ = round;
            for n in 1..=15 {
                do_read(&mut ctx, &mut p, n, A);
            }
            do_write(&mut ctx, &mut p, 16, A);
        }
        assert!(p.in_update_mode(A));
        for n in 1..=15 {
            do_read(&mut ctx, &mut p, n, A);
        }
        // One more write in update mode: every one of the 15 sharers must
        // receive an Update — possible only if the child edges built by
        // the invalidate instance carried across the flip intact.
        let mark = ctx.mark();
        do_write(&mut ctx, &mut p, 16, A);
        let updates = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::Update { .. }))
            .count();
        assert!(updates >= 15, "updates reached {updates}/15+ sharers");
        assert!(ctx.holders(A).len() >= 16);
    }

    #[test]
    fn forced_mid_stream_mode_bit_is_what_the_mutant_tests_exploit() {
        let mut p = adaptive();
        assert!(!p.is_update_for(A));
        p.force_mode(A, true);
        assert!(p.is_update_for(A));
        p.force_mode(A, false);
        assert!(!p.is_update_for(A));
    }
}
