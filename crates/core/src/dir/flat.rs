//! Flat directories — full-map (Dir<sub>n</sub>NB), Dir<sub>i</sub>NB,
//! Dir<sub>i</sub>B and LimitLESS<sub>i</sub> (§2.1 of the paper, after
//! Agarwal et al.'s `Dir_iX` taxonomy).
//!
//! The four are one [`Family`] of the shared home transaction
//! ([`super::home`]): per block up to `i` sharer pointers (`n` presence
//! bits for full-map) beside the [`Owner`](super::util::Owner) every family keeps. A read miss
//! costs 2 messages; a write miss invalidating `P` sharers costs `2P + 2`,
//! all serialized through the home. They differ only in what happens when a
//! read finds every pointer in use — the `Overflow` policy, consulted at
//! exactly three points: that read admission, write-target enumeration, and
//! the directory-bits formula. The cache side is every family's — a
//! [`wave_step`] at a node with no children, [`read_fill`], [`write_fill`].

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::home::{Family, Home, HomeRow, HomeRows};
use crate::dir::util::{read_fill, send, send_home, wave_msg, wave_step, write_fill, NodeSet};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::Cycle;

/// LimitLESS software-handler occupancy per trap, in cycles. Chaiken et al.
/// report full-map-emulation traps of a few tens of cycles on Alewife.
pub const SW_TRAP_CYCLES: Cycle = 40;

/// What the home does with a new reader once every pointer is in use.
#[derive(Clone, Copy)]
enum Overflow {
    /// Full-map: a presence bit per node, nothing to overflow — at `n + 1`
    /// directory bits per block (`B·n²` machine-wide), the scalability
    /// problem the paper attacks.
    Never,
    /// Dir_iNB: invalidate the oldest pointed-to sharer and reuse its
    /// pointer — an "unnecessary invalidation" that hurts when the real
    /// sharing degree exceeds `i`.
    EvictOldest,
    /// Dir_iB: set an overflow bit and stop tracking precisely; the next
    /// write must broadcast invalidations to *every* node in the machine.
    Broadcast,
    /// LimitLESS_i (Chaiken, Kubiatowicz & Agarwal, ASPLOS 1991): trap into
    /// software and spill the pointer to ordinary memory, so sharing
    /// information is never lost — but every trap occupies the home for
    /// [`SW_TRAP_CYCLES`], and a write pays that per spilled pointer it
    /// walks: the "(P − i) software handler delay" of the paper's Table 1.
    Spill,
}

/// A block's recorded sharers, in the shape its policy needs: full-map's
/// ascending-id `Inv` order and O(1) membership at P=1024 come from the
/// bit-vector, the limited directories' FIFO victim choice from the
/// arrival-ordered pointer list.
#[derive(Clone, PartialEq, Hash)]
enum Sharers {
    /// Presence vector, allocated by the block's first reader. `None` and
    /// `Some(∅)` digest differently, and the pinned full-map state counts
    /// include that distinction (ROADMAP: canonicalise behind a
    /// `[benchmark]` re-baseline).
    Bits(Option<NodeSet>),
    /// Hardware pointers, oldest first.
    Ptrs(Vec<NodeId>),
}

impl Default for Sharers {
    fn default() -> Self {
        Sharers::Ptrs(Vec::new())
    }
}

impl Sharers {
    fn len(&self) -> usize {
        match self {
            Sharers::Bits(s) => s.as_ref().map_or(0, |s| s.len() as usize),
            Sharers::Ptrs(v) => v.len(),
        }
    }

    fn contains(&self, n: NodeId) -> bool {
        match self {
            Sharers::Bits(s) => s.as_ref().is_some_and(|s| s.contains(n)),
            Sharers::Ptrs(v) => v.contains(&n),
        }
    }

    /// Record `n`, which the caller knows is not recorded yet.
    fn push(&mut self, n: NodeId, nodes: u32) {
        match self {
            Sharers::Bits(s) => {
                s.get_or_insert_with(|| NodeSet::new(nodes)).insert(n);
            }
            Sharers::Ptrs(v) => v.push(n),
        }
    }

    fn clear(&mut self) {
        match self {
            Sharers::Bits(Some(s)) => s.clear(),
            Sharers::Bits(None) => {}
            Sharers::Ptrs(v) => v.clear(),
        }
    }

    /// Every recorded sharer but `except`, in invalidation order.
    fn others(&self, except: NodeId) -> Vec<NodeId> {
        match self {
            Sharers::Bits(None) => Vec::new(),
            Sharers::Bits(Some(s)) => s.iter().filter(|&n| n != except).collect(),
            Sharers::Ptrs(v) => v.iter().copied().filter(|&n| n != except).collect(),
        }
    }

    /// The pointer list, oldest first (Dir_iNB victim choice and reuse).
    fn ptrs(&mut self) -> &mut Vec<NodeId> {
        match self {
            Sharers::Ptrs(v) => v,
            Sharers::Bits(_) => unreachable!("a presence vector has no arrival order"),
        }
    }

    fn relabeled(&self, perm: &[NodeId]) -> Sharers {
        match self {
            Sharers::Bits(s) => Sharers::Bits(s.as_ref().map(|s| s.relabeled(perm))),
            Sharers::Ptrs(v) => Sharers::Ptrs(v.iter().map(|&n| perm[n as usize]).collect()),
        }
    }
}

/// One block's sharers. Fields a policy never touches stay at their
/// default and add a constant to the digest.
#[derive(Clone, Default, PartialEq, Hash)]
pub struct Sharing {
    sharers: Sharers,
    /// LimitLESS: pointers spilled to software, in arrival order.
    spill: Vec<NodeId>,
    /// Dir_iB: some reader is cached but untracked.
    overflow: bool,
    /// Dir_iNB: a read blocked on the pointer-victim's invalidation ack.
    victim_swap: Option<NodeId>,
}

/// The flat (non-tree) family: Dir_nNB, Dir_iNB, Dir_iB or LimitLESS_i.
#[derive(Clone)]
pub struct Flat {
    kind: ProtocolKind,
    /// Hardware pointer budget per block (`u32::MAX` for full-map's `n`).
    pointers: u32,
    overflow: Overflow,
    /// The empty sharer set in this policy's representation.
    blank: Sharers,
}

/// A flat directory.
pub type FlatDir = Home<Flat>;

impl FlatDir {
    /// The Dir_nNB full bit-map directory.
    pub fn full_map() -> Self {
        Self::flat(
            ProtocolKind::FullMap,
            u32::MAX,
            Overflow::Never,
            Sharers::Bits(None),
        )
    }

    /// Dir_iB if `broadcast`, else Dir_iNB.
    pub fn limited(pointers: u32, broadcast: bool) -> Self {
        let (kind, overflow) = if broadcast {
            (ProtocolKind::LimitedB { pointers }, Overflow::Broadcast)
        } else {
            (ProtocolKind::LimitedNB { pointers }, Overflow::EvictOldest)
        };
        Self::flat(kind, pointers, overflow, Sharers::default())
    }

    /// LimitLESS_i with [`SW_TRAP_CYCLES`] of software-handler occupancy
    /// per trap.
    pub fn limitless(pointers: u32) -> Self {
        Self::flat(
            ProtocolKind::LimitLess { pointers },
            pointers,
            Overflow::Spill,
            Sharers::default(),
        )
    }

    fn flat(kind: ProtocolKind, pointers: u32, overflow: Overflow, blank: Sharers) -> Self {
        assert!(pointers >= 1);
        Home::with(Flat {
            kind,
            pointers,
            overflow,
            blank,
        })
    }
}

impl Family for Flat {
    type Entry = Sharing;
    type Rec = ();
    type Mode = ();
    const SYMMETRIC: bool = true;

    fn kind(&self) -> ProtocolKind {
        self.kind
    }

    fn new_entry(&self) -> Sharing {
        Sharing {
            sharers: self.blank.clone(),
            ..Sharing::default()
        }
    }

    /// A recalled owner that kept its copy is recorded beside the reader,
    /// past the pointer budget if need be. A new reader takes a free
    /// pointer, or meets the overflow policy; Dir_iNB's reader waits for its
    /// victim's ack and resumes here to take the victim's pointer.
    fn serve_read(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        keep: Option<NodeId>,
        reader: NodeId,
    ) {
        let e = row.entry.as_mut().expect("a request made the entry");
        let s = &mut e.fam;
        if let Some(victim) = s.victim_swap.take() {
            // Keep FIFO order for future victim selection: drop the victim,
            // append the newcomer.
            let ptrs = s.sharers.ptrs();
            let pos = ptrs.iter().position(|&n| n == victim);
            ptrs.remove(pos.expect("victim disappeared"));
            ptrs.push(reader);
        } else if let Some(owner) = keep {
            s.sharers.push(owner, ctx.num_nodes());
            s.sharers.push(reader, ctx.num_nodes());
        } else if s.sharers.contains(reader) || s.spill.contains(&reader) {
            // Re-read by a recorded sharer (silent clean eviction).
        } else if s.sharers.len() < self.pointers as usize {
            s.sharers.push(reader, ctx.num_nodes());
        } else {
            match self.overflow {
                Overflow::Never => unreachable!("a bit per node cannot run out"),
                Overflow::EvictOldest => {
                    // The reply waits for the victim's ack so a subsequent
                    // write cannot leave a stale copy alive.
                    let victim = s.sharers.ptrs()[0];
                    s.victim_swap = Some(victim);
                    e.own.await_acks(reader, OpKind::Read, 1);
                    ctx.note(ProtoEvent::ReplacementInvalidation);
                    return send(ctx, home, victim, addr, wave_msg(false, None, true));
                }
                // The reader gets data but no pointer.
                Overflow::Broadcast => s.overflow = true,
                Overflow::Spill => {
                    s.spill.push(reader);
                    ctx.note(ProtoEvent::SoftwareTrap);
                    ctx.occupy(home, SW_TRAP_CYCLES);
                }
            }
        }
        let adopt = NodeList::default();
        send(ctx, home, reader, addr, MsgKind::ReadReply { adopt });
    }

    /// One `Inv` per recorded sharer but the writer — every other node
    /// under Dir_iB's overflow, the spilled pointers too under LimitLESS.
    fn launch_write(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        writer: NodeId,
    ) -> u32 {
        let s = &mut row.entry.as_mut().expect("a request made the entry").fam;
        let mut targets = s.sharers.others(writer);
        match self.overflow {
            Overflow::Never | Overflow::EvictOldest => {}
            Overflow::Broadcast => {
                if s.overflow {
                    ctx.note(ProtoEvent::Broadcast);
                    targets = (0..ctx.num_nodes()).filter(|&n| n != writer).collect();
                }
            }
            Overflow::Spill => {
                if !s.spill.is_empty() {
                    // Software walk over the spilled pointers: the paper's
                    // "(P − i) software handler delay".
                    targets.extend(s.spill.iter().copied().filter(|&n| n != writer));
                    ctx.note(ProtoEvent::SoftwareTrap);
                    ctx.occupy(home, SW_TRAP_CYCLES * s.spill.len() as u64);
                }
            }
        }
        if !targets.is_empty() {
            Self::clear(s);
        }
        for &t in &targets {
            send(ctx, home, t, addr, wave_msg(false, None, true));
        }
        targets.len() as u32
    }

    fn clear(s: &mut Sharing) -> bool {
        s.sharers.clear();
        s.spill.clear();
        s.overflow = false;
        false
    }

    /// The cache side keeps no records: a wave reaches a node with no
    /// children, and a writer has no subtree to kill.
    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg, _: &mut HomeRows<Self>) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReply { .. } => read_fill(ctx, node, addr),
            MsgKind::WriteReply { .. } => write_fill(ctx, node, addr, &mut None, &[]),
            MsgKind::Inv { .. } => wave_step(ctx, node, &msg, &mut None, |_| Vec::new()),
            other => unreachable!("flat directory received {other:?}"),
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
        match state {
            // Clean copies are dropped silently; the stale pointer costs at
            // most one harmless future invalidation.
            LineState::V => {}
            LineState::E => send_home(ctx, node, addr, MsgKind::WbEvict),
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        let ptrs = self.pointers as u64 * ptr_bits(nodes);
        match self.overflow {
            // presence bits + dirty bit
            Overflow::Never => nodes as u64 + 1,
            Overflow::EvictOldest => ptrs + 1,
            // + the overflow bit / the trap bit; the software spill lives
            // in ordinary memory.
            Overflow::Broadcast | Overflow::Spill => ptrs + 2,
        }
    }

    fn cache_bits_per_line(&self, _nodes: u32) -> u64 {
        3 // state encoding only
    }

    /// Every directory decision is a function of set membership, pointer
    /// *position* (victim choice, `hw`-then-`sw` walk order) and
    /// per-address metadata, never of node-id magnitude; trap occupancy is
    /// node-blind. Mapping elements while preserving list order is
    /// therefore an exact equivariance for all four policies.
    fn relabel_entry(s: &Sharing, perm: &[NodeId]) -> Sharing {
        let node = |n: NodeId| perm[n as usize];
        Sharing {
            sharers: s.sharers.relabeled(perm),
            spill: s.spill.iter().map(|&n| node(n)).collect(),
            victim_swap: s.victim_swap.map(node),
            ..*s
        }
    }

    fn relabel_rec(_: &(), _: &[NodeId]) {}
}

#[cfg(test)]
mod tests {
    mod full_map {
        use super::super::*;
        use crate::protocol::Protocol;
        use crate::testutil::MockCtx;

        fn setup(nodes: u32) -> (MockCtx, FlatDir) {
            (MockCtx::new(nodes), FlatDir::full_map())
        }

        #[test]
        fn read_miss_costs_two_messages() {
            let (mut ctx, mut p) = setup(8);
            let mark = ctx.mark();
            ctx.read(&mut p, 3, 100);
            assert_eq!(ctx.critical_since(mark), 2, "paper Table 1: read miss = 2");
            assert_eq!(ctx.line_state(3, 100), LineState::V);
        }

        #[test]
        fn write_miss_with_p_sharers_costs_2p_plus_2() {
            let (mut ctx, mut p) = setup(16);
            let addr = 200;
            for n in 0..5 {
                ctx.read(&mut p, n, addr);
            }
            let mark = ctx.mark();
            ctx.write(&mut p, 9, addr);
            // P = 5 sharers: req + 5 inv + 5 ack + grant = 2P + 2 = 12.
            assert_eq!(ctx.critical_since(mark), 12);
            ctx.assert_swmr(addr);
            assert_eq!(ctx.holders(addr), vec![9]);
        }

        #[test]
        fn writer_in_sharers_is_not_invalidated() {
            let (mut ctx, mut p) = setup(8);
            let addr = 8; // home = 0
            ctx.read(&mut p, 1, addr);
            ctx.read(&mut p, 2, addr);
            let mark = ctx.mark();
            ctx.write(&mut p, 1, addr); // upgrade
                                        // req + 1 inv + 1 ack + grant = 4 messages (P = 1 other sharer).
            assert_eq!(ctx.critical_since(mark), 4);
            assert_eq!(ctx.line_state(1, addr), LineState::E);
            assert_eq!(ctx.line_state(2, addr), LineState::Iv);
        }

        #[test]
        fn read_of_dirty_block_recalls_owner() {
            let (mut ctx, mut p) = setup(8);
            let addr = 17;
            ctx.write(&mut p, 2, addr);
            let mark = ctx.mark();
            ctx.read(&mut p, 5, addr);
            // req + wbreq + wbdata + reply = 4 messages.
            assert_eq!(ctx.critical_since(mark), 4);
            assert_eq!(ctx.line_state(2, addr), LineState::V, "owner downgrades");
            assert_eq!(ctx.line_state(5, addr), LineState::V);
            ctx.assert_swmr(addr);
        }

        #[test]
        fn write_of_dirty_block_transfers_ownership() {
            let (mut ctx, mut p) = setup(8);
            let addr = 33;
            ctx.write(&mut p, 2, addr);
            ctx.write(&mut p, 6, addr);
            assert_eq!(ctx.line_state(2, addr), LineState::Iv);
            assert_eq!(ctx.line_state(6, addr), LineState::E);
            ctx.assert_swmr(addr);
        }

        #[test]
        fn exclusive_eviction_writes_back() {
            let (mut ctx, mut p) = setup(8);
            let addr = 42;
            ctx.write(&mut p, 3, addr);
            ctx.evict(&mut p, 3, addr);
            // A later read must be served clean (2 messages, no recall).
            let mark = ctx.mark();
            ctx.read(&mut p, 4, addr);
            assert_eq!(ctx.critical_since(mark), 2);
        }

        #[test]
        fn silent_clean_eviction_then_stale_inv_is_harmless() {
            let (mut ctx, mut p) = setup(8);
            let addr = 50;
            ctx.read(&mut p, 1, addr);
            ctx.read(&mut p, 2, addr);
            ctx.evict(&mut p, 1, addr); // silent: home still thinks 1 shares
            ctx.write(&mut p, 5, addr); // sends inv to both 1 and 2
            assert_eq!(ctx.line_state(5, addr), LineState::E);
            ctx.assert_swmr(addr);
        }

        #[test]
        fn rereading_after_silent_eviction_works() {
            let (mut ctx, mut p) = setup(8);
            let addr = 60;
            ctx.read(&mut p, 1, addr);
            ctx.evict(&mut p, 1, addr);
            let mark = ctx.mark();
            ctx.read(&mut p, 1, addr);
            assert_eq!(ctx.critical_since(mark), 2);
            assert_eq!(ctx.line_state(1, addr), LineState::V);
        }

        #[test]
        fn many_sharers_all_invalidated() {
            let (mut ctx, mut p) = setup(32);
            let addr = 7;
            for n in 0..32 {
                ctx.read(&mut p, n, addr);
            }
            ctx.write(&mut p, 0, addr);
            for n in 1..32 {
                assert!(!ctx.line_state(n, addr).readable(), "node {n} kept a copy");
            }
            assert_eq!(ctx.line_state(0, addr), LineState::E);
        }

        #[test]
        fn directory_bits_are_n_plus_one() {
            let p = FlatDir::full_map();
            assert_eq!(p.dir_bits_per_mem_block(64), 65);
        }

        #[test]
        fn sequential_write_chain_is_coherent() {
            let (mut ctx, mut p) = setup(8);
            let addr = 11;
            for n in 0..8 {
                ctx.write(&mut p, n, addr);
                ctx.assert_swmr(addr);
                assert_eq!(ctx.holders(addr), vec![n]);
            }
        }

        /// A read whose `FillAck` never reaches the home leaves its home
        /// transaction open, and the quiescence check must say so.
        #[test]
        fn a_read_without_its_fill_ack_leaves_the_transaction_open() {
            let (mut ctx, mut p) = setup(8);
            let (addr, home, reader) = (16, 0, 3);
            ctx.begin_miss(&mut p, reader, addr, OpKind::Read);
            let request = MsgKind::ReadReq { requester: reader };
            let msg = |src, kind| Msg { addr, src, kind };
            p.handle(&mut ctx, home, msg(reader, request));
            let adopt = NodeList::default();
            p.handle(&mut ctx, reader, msg(home, MsgKind::ReadReply { adopt }));
            assert_eq!(ctx.line_state(reader, addr), LineState::V);
            assert_eq!(
                p.check_invariants(&ctx, &[addr], true),
                Err("1 home transaction(s) still open at quiescence".into())
            );
        }

        #[test]
        fn interleaved_read_write_mix_maintains_swmr() {
            let (mut ctx, mut p) = setup(8);
            let addr = 13;
            ctx.read(&mut p, 0, addr);
            ctx.read(&mut p, 1, addr);
            ctx.write(&mut p, 2, addr);
            ctx.read(&mut p, 3, addr);
            ctx.read(&mut p, 4, addr);
            ctx.write(&mut p, 0, addr);
            ctx.assert_swmr(addr);
            assert_eq!(ctx.holders(addr), vec![0]);
        }
    }

    mod limited {
        use super::super::*;
        use crate::protocol::Protocol;
        use crate::testutil::MockCtx;

        const A: Addr = 0;

        fn nb(nodes: u32, pointers: u32) -> (MockCtx, FlatDir) {
            (MockCtx::new(nodes), FlatDir::limited(pointers, false))
        }

        fn b(nodes: u32, pointers: u32) -> (MockCtx, FlatDir) {
            (MockCtx::new(nodes), FlatDir::limited(pointers, true))
        }

        #[test]
        fn read_within_pointer_budget_costs_two_messages() {
            let (mut ctx, mut p) = nb(8, 2);
            let mark = ctx.mark();
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            assert_eq!(ctx.critical_since(mark), 4);
        }

        #[test]
        fn nb_overflow_invalidates_a_pointer_victim() {
            let (mut ctx, mut p) = nb(8, 2);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            let mark = ctx.mark();
            ctx.read(&mut p, 3, A); // overflow: node 1 is invalidated
                                    // req + inv + ack + reply = 4 messages.
            assert_eq!(ctx.critical_since(mark), 4);
            assert!(!ctx.line_state(1, A).readable(), "victim invalidated");
            assert!(ctx.line_state(2, A).readable());
            assert!(ctx.line_state(3, A).readable());
        }

        #[test]
        fn nb_write_invalidates_only_pointed_sharers() {
            let (mut ctx, mut p) = nb(8, 2);
            for n in 1..=4 {
                ctx.read(&mut p, n, A); // 1 and 2 get evicted by overflow
            }
            ctx.write(&mut p, 5, A);
            for n in 1..=4 {
                assert!(!ctx.line_state(n, A).readable());
            }
            ctx.assert_swmr(A);
        }

        #[test]
        fn b_variant_sets_overflow_and_broadcasts_on_write() {
            let (mut ctx, mut p) = b(8, 2);
            for n in 1..=4 {
                ctx.read(&mut p, n, A);
            }
            // Nodes 3 and 4 are cached but untracked.
            assert!(ctx.line_state(3, A).readable());
            let mark = ctx.mark();
            ctx.write(&mut p, 5, A);
            // Broadcast: req + 7 inv + 7 ack + grant = 16 messages.
            assert_eq!(ctx.critical_since(mark), 16);
            assert!(ctx.events.contains(&ProtoEvent::Broadcast));
            for n in 1..=4 {
                assert!(
                    !ctx.line_state(n, A).readable(),
                    "node {n} survived broadcast"
                );
            }
            ctx.assert_swmr(A);
        }

        #[test]
        fn b_variant_clears_overflow_after_write() {
            let (mut ctx, mut p) = b(8, 1);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A); // overflow
            ctx.write(&mut p, 3, A); // broadcast, overflow cleared
            let mark = ctx.mark();
            ctx.read(&mut p, 4, A);
            ctx.write(&mut p, 5, A);
            // Non-broadcast write: req + wbreq + wbdata (dirty read for 4)
            // then write: req + 2 inv... count only asserts no broadcast blow-up.
            assert!(
                ctx.critical_since(mark) < 14,
                "overflow must not persist after the broadcast write"
            );
        }

        #[test]
        fn dirty_block_recall_works() {
            let (mut ctx, mut p) = nb(8, 4);
            ctx.write(&mut p, 2, A);
            ctx.read(&mut p, 5, A);
            assert_eq!(ctx.line_state(2, A), LineState::V);
            assert_eq!(ctx.line_state(5, A), LineState::V);
            ctx.write(&mut p, 6, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![6]);
        }

        #[test]
        fn rereading_tracked_sharer_is_cheap() {
            let (mut ctx, mut p) = nb(8, 2);
            ctx.read(&mut p, 1, A);
            ctx.evict(&mut p, 1, A);
            let mark = ctx.mark();
            ctx.read(&mut p, 1, A);
            assert_eq!(ctx.critical_since(mark), 2, "no pointer churn");
        }

        #[test]
        fn sequential_writers_stay_coherent() {
            let (mut ctx, mut p) = nb(8, 1);
            for n in 0..8 {
                ctx.write(&mut p, n, A);
                ctx.assert_swmr(A);
            }
        }

        #[test]
        fn directory_bits_formula() {
            let p = FlatDir::limited(4, false);
            assert_eq!(p.dir_bits_per_mem_block(32), 4 * 5 + 1);
            let pb = FlatDir::limited(4, true);
            assert_eq!(pb.dir_bits_per_mem_block(32), 4 * 5 + 2);
        }

        #[test]
        fn b_overflow_reads_stay_cheap() {
            // Once overflowed, further reads are 2 messages (data only, no
            // tracking) — the cost is deferred to the broadcast write.
            let (mut ctx, mut p) = b(8, 1);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A); // sets the overflow bit
            let mark = ctx.mark();
            ctx.read(&mut p, 3, A);
            assert_eq!(ctx.critical_since(mark), 2);
        }

        #[test]
        fn nb_upgrade_by_tracked_sharer() {
            let (mut ctx, mut p) = nb(8, 2);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            ctx.write(&mut p, 1, A); // tracked upgrade: invalidate only node 2
            assert_eq!(ctx.line_state(1, A), LineState::E);
            assert!(!ctx.line_state(2, A).readable());
            ctx.assert_swmr(A);
        }

        #[test]
        fn b_write_by_untracked_sharer_is_still_coherent() {
            let (mut ctx, mut p) = b(8, 1);
            for n in 1..=4 {
                ctx.read(&mut p, n, A); // 2..4 untracked
            }
            ctx.write(&mut p, 4, A); // untracked node writes: broadcast
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![4]);
        }

        #[test]
        fn nb_victim_selection_is_fifo() {
            let (mut ctx, mut p) = nb(8, 2);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            ctx.read(&mut p, 3, A); // victim = 1
            assert!(!ctx.line_state(1, A).readable());
            ctx.read(&mut p, 4, A); // victim = 2 (oldest remaining)
            assert!(!ctx.line_state(2, A).readable());
            assert!(ctx.line_state(3, A).readable());
            assert!(ctx.line_state(4, A).readable());
        }
    }

    mod limitless {
        use super::super::*;
        use crate::protocol::Protocol;
        use crate::testutil::MockCtx;

        const A: Addr = 0;

        fn setup(nodes: u32, pointers: u32) -> (MockCtx, FlatDir) {
            (MockCtx::new(nodes), FlatDir::limitless(pointers))
        }

        #[test]
        fn no_trap_within_hardware_pointers() {
            let (mut ctx, mut p) = setup(16, 4);
            for n in 1..=4 {
                ctx.read(&mut p, n, A);
            }
            assert!(!ctx.events.contains(&ProtoEvent::SoftwareTrap));
        }

        #[test]
        fn overflow_traps_but_keeps_precision() {
            let (mut ctx, mut p) = setup(16, 4);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let traps = ctx
                .events
                .iter()
                .filter(|e| **e == ProtoEvent::SoftwareTrap)
                .count();
            assert_eq!(traps, 4, "one trap per spilled pointer");
            // Precision retained: a write invalidates all 8.
            ctx.write(&mut p, 9, A);
            for n in 1..=8 {
                assert!(!ctx.line_state(n, A).readable());
            }
            ctx.assert_swmr(A);
        }

        #[test]
        fn write_with_spill_charges_handler_occupancy() {
            let (mut ctx, mut p) = setup(16, 4);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let t0 = ctx.now;
            ctx.write(&mut p, 9, A);
            // The mock adds occupancy to `now`: 4 spilled pointers * 40 cycles
            // must appear (plus message steps, each +1).
            assert!(ctx.now - t0 >= 160, "software walk not charged");
        }

        #[test]
        fn no_trap_on_rereads_of_tracked_sharers() {
            let (mut ctx, mut p) = setup(16, 2);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            ctx.read(&mut p, 3, A); // trap
            let traps_before = ctx.events.len();
            ctx.evict(&mut p, 3, A);
            ctx.read(&mut p, 3, A); // already in sw list: no new trap
            assert_eq!(ctx.events.len(), traps_before);
        }

        #[test]
        fn dirty_paths_match_full_map_semantics() {
            let (mut ctx, mut p) = setup(16, 2);
            ctx.write(&mut p, 1, A);
            ctx.read(&mut p, 2, A);
            assert_eq!(ctx.line_state(1, A), LineState::V);
            ctx.write(&mut p, 3, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![3]);
        }

        #[test]
        fn spilled_sharer_upgrade_invalidates_everyone_else() {
            let (mut ctx, mut p) = setup(16, 2);
            for n in 1..=6 {
                ctx.read(&mut p, n, A); // 3..6 spilled to software
            }
            ctx.write(&mut p, 5, A); // a spilled sharer upgrades
            assert_eq!(ctx.line_state(5, A), LineState::E);
            for n in [1, 2, 3, 4, 6] {
                assert!(!ctx.line_state(n, A).readable(), "node {n} survived");
            }
            ctx.assert_swmr(A);
        }

        #[test]
        fn eviction_then_reread_hits_software_list_without_new_trap() {
            let (mut ctx, mut p) = setup(16, 1);
            ctx.read(&mut p, 1, A);
            ctx.read(&mut p, 2, A); // trap: spill 2
            let traps_before = ctx
                .events
                .iter()
                .filter(|e| **e == ProtoEvent::SoftwareTrap)
                .count();
            ctx.evict(&mut p, 2, A);
            ctx.read(&mut p, 2, A); // already recorded in software
            let traps_after = ctx
                .events
                .iter()
                .filter(|e| **e == ProtoEvent::SoftwareTrap)
                .count();
            assert_eq!(traps_before, traps_after);
        }

        #[test]
        fn hardware_bits_exclude_software_spill() {
            let p = FlatDir::limitless(4);
            assert_eq!(p.dir_bits_per_mem_block(32), 4 * 5 + 2);
        }
    }
}
