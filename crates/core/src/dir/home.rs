//! The home transaction of every directory that keeps a block's exclusive
//! copy in an [`Owner`]: the flat directories ([`super::flat`]), the
//! home-held trees ([`super::home_tree`]) and Dir<sub>i</sub>Tree<sub>k</sub>
//! ([`super::dir_tree`]), which differ only in how the home records the
//! sharers. [`Home`] admits a request through the block's gate, recalls a
//! dirty owner, resumes the recalled request on the writeback, counts the
//! wave's acks, builds every grant, closes on `FillAck` and serves `WbReq`
//! at the owner, and answers the checker's hooks; a [`Family`] supplies
//! the rest.

use crate::ctx::ProtoCtx;
use crate::dir::util::{send, wb_req, Owner, Row, Rows};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use std::hash::Hash;

/// A block's directory entry: its exclusive copy, then the family's record
/// of the sharers (field by field, so it digests as one flat struct).
#[derive(Clone, Default, PartialEq, Hash)]
pub struct Entry<X> {
    pub(crate) own: Owner,
    pub(crate) fam: X,
}

/// One block's row of a family `F`.
pub type HomeRow<F> = Row<Entry<<F as Family>::Entry>, <F as Family>::Rec, <F as Family>::Mode>;
/// Every block's row of a family `F`.
pub type HomeRows<F> = Rows<Entry<<F as Family>::Entry>, <F as Family>::Rec, <F as Family>::Mode>;

/// What one directory family adds to the shared home transaction.
pub trait Family: Clone + Send + 'static {
    /// The home's record of a block's sharers.
    type Entry: Clone + Default + PartialEq + Hash + Send;
    /// One node's record for one block.
    type Rec: Clone + Default + PartialEq + Hash + Send;
    /// The per-block mode ([`Row::mode`]).
    type Mode: Copy + Default + PartialEq + Hash + Send;
    /// Certifies processor symmetry and commuting deliveries
    /// ([`Protocol::relabeled`], [`Protocol::deliveries_commute`]); the
    /// `relabel_*` methods then rename node ids (`perm[old] = new`).
    const SYMMETRIC: bool = false;

    fn kind(&self) -> ProtocolKind;
    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64;
    fn cache_bits_per_line(&self, nodes: u32) -> u64;

    /// The sharer record a block's first request creates.
    fn new_entry(&self) -> Self::Entry {
        Self::Entry::default()
    }

    /// [`Protocol::is_update`].
    fn is_update(&self) -> bool {
        false
    }

    /// Does a write to `addr` update the other copies, not invalidate them?
    fn updates(&self, _: &HomeRows<Self>, _: Addr) -> bool {
        false
    }

    /// Serve `reader`'s read of a clean block: record it — after `keep`,
    /// the recalled owner, when that kept a valid copy — and start its
    /// fill. A read that awaited acks ([`Owner::await_acks`]) resumes here.
    fn serve_read(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        keep: Option<NodeId>,
        reader: NodeId,
    );

    /// `writer`'s write found the block clean: send the wave. Returns the
    /// acks to await; with none the write is granted at once.
    fn launch_write(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        writer: NodeId,
    ) -> u32;

    /// Forget every sharer, for an exclusive grant or a writeback. Returns
    /// whether the writer granted next must kill its own subtree first.
    fn clear(e: &mut Self::Entry) -> bool;

    /// The reply that grants a write which updated the other copies.
    fn update_grant(&mut self, _: &mut dyn ProtoCtx, _: &mut HomeRow<Self>, _: NodeId) -> MsgKind {
        unreachable!("{:?} never updates", self.kind())
    }

    /// A part of the open transaction arrived — a reader's `FillAck`, or a
    /// message the family routes to `close_part`: does it close?
    fn part_done(_: &mut Self::Entry) -> bool {
        true
    }

    /// Keep a recall that reached a writer still killing its own subtree
    /// (`WmLip`) until the write completes.
    fn park_recall(_: &mut Self::Rec, _: OpKind, _: NodeId) {
        unreachable!("only a self-subtree kill leaves a writer in WmLip")
    }

    /// Every message the shell does not handle: the cache side and the
    /// family's own messages.
    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg, rows: &mut HomeRows<Self>);

    fn evict(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        state: LineState,
        rows: &mut HomeRows<Self>,
    );

    /// Is `r` collecting the acks of a wave it forwarded?
    fn collecting(_: &Self::Rec) -> bool {
        false
    }

    /// The family's own invariants, checked after the shared ones.
    fn check(
        &self,
        _: &dyn ProtoCtx,
        _: &[Addr],
        _: bool,
        _: &HomeRows<Self>,
    ) -> Result<(), String> {
        Ok(())
    }

    fn relabel_entry(_: &Self::Entry, _: &[NodeId]) -> Self::Entry {
        unreachable!("only a symmetric family is relabelled")
    }

    fn relabel_rec(_: &Self::Rec, _: &[NodeId]) -> Self::Rec {
        unreachable!("only a symmetric family is relabelled")
    }
}

/// One part of `row`'s open transaction arrived ([`Family::part_done`]);
/// the last one closes the transaction.
pub(crate) fn close_part<F: Family>(ctx: &mut dyn ProtoCtx, home: NodeId, row: &mut HomeRow<F>) {
    if row.entry.as_mut().is_none_or(|e| F::part_done(&mut e.fam)) {
        row.gate.finish_txn(ctx, home);
    }
}

/// A directory protocol of family `F`.
#[derive(Clone)]
pub struct Home<F: Family> {
    pub(crate) fam: F,
    pub(crate) rows: HomeRows<F>,
}

impl<F: Family> Home<F> {
    pub(crate) fn with(fam: F) -> Self {
        Self {
            fam,
            rows: Rows::default(),
        }
    }

    /// [`Family::updates`] of `addr`.
    pub(crate) fn updates(&self, addr: Addr) -> bool {
        self.fam.updates(&self.rows, addr)
    }

    /// The protocol with every node id mapped through `perm` (`perm[old] =
    /// new`): [`Protocol::relabeled`] of a symmetric family.
    pub(crate) fn permuted(&self, perm: &[NodeId]) -> Self {
        let entry = |e: &Entry<F::Entry>| Entry {
            own: e.own.relabeled(perm),
            fam: F::relabel_entry(&e.fam, perm),
        };
        let rec = |r: &F::Rec| F::relabel_rec(r, perm);
        Self {
            fam: self.fam.clone(),
            rows: self.rows.relabeled(perm, entry, rec),
        }
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
        let e = row.entry.get_or_insert_with(|| Entry {
            own: Owner::default(),
            fam: self.fam.new_entry(),
        });
        if e.own.dirty {
            // An owner re-reading would mean a lost WbEvict.
            debug_assert!(op == OpKind::Write || e.own.owner != requester);
            e.own.recall(ctx, home, addr, requester, op);
            return;
        }
        if op == OpKind::Read {
            return self.fam.serve_read(ctx, home, addr, row, None, requester);
        }
        match self.fam.launch_write(ctx, home, addr, row, requester) {
            0 => self.grant(ctx, home, addr, requester, self.updates(addr)),
            acks => {
                let e = row.entry.as_mut().expect("a request made the entry");
                e.own.await_acks(requester, OpKind::Write, acks);
            }
        }
    }

    /// The owner's copy came back ([`Owner::writeback`]).
    fn writeback(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let (addr, evict) = (msg.addr, msg.kind == MsgKind::WbEvict);
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("writeback without entry");
        F::clear(&mut e.fam);
        match e.own.writeback(msg.src, evict) {
            Some((reader, OpKind::Read, keep)) => {
                self.fam.serve_read(ctx, home, addr, row, keep, reader);
            }
            Some((writer, OpKind::Write, _)) => self.grant(ctx, home, addr, writer, false),
            None => {}
        }
    }

    /// An ack of the home's wave ([`Owner::ack`]), of an update wave if
    /// `update`; the last resumes the request.
    fn home_ack(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, update: bool) {
        let row = self.rows.row(addr);
        let e = row.entry.as_mut().expect("ack without entry");
        match e.own.ack() {
            Some((writer, OpKind::Write)) => self.grant(ctx, home, addr, writer, update),
            Some((reader, OpKind::Read)) => {
                self.fam.serve_read(ctx, home, addr, row, None, reader);
            }
            None => {}
        }
    }

    /// Grant `writer`'s write — an update write's, if `update` — and close
    /// the transaction. An invalidating write makes the writer the owner and
    /// forgets the sharers.
    fn grant(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        writer: NodeId,
        update: bool,
    ) {
        let row = self.rows.row(addr);
        let reply = if update {
            self.fam.update_grant(ctx, row, writer)
        } else {
            let e = row.entry.as_mut().expect("grant without entry");
            e.own.grant(writer);
            let kill_self_subtree = F::clear(&mut e.fam);
            MsgKind::WriteReply { kill_self_subtree }
        };
        send(ctx, home, writer, addr, reply);
        row.gate.finish_txn(ctx, home);
    }
}

impl<F: Family> Protocol for Home<F> {
    fn kind(&self) -> ProtocolKind {
        self.fam.kind()
    }

    fn is_update(&self) -> bool {
        self.fam.is_update()
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.updates(addr)
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } | MsgKind::WriteReq { .. } => self.request(ctx, node, msg),
            MsgKind::WbData { .. } | MsgKind::WbEvict => self.writeback(ctx, node, msg),
            MsgKind::InvAck { dir: true } => self.home_ack(ctx, node, addr, false),
            MsgKind::UpdateAck { dir: true } => self.home_ack(ctx, node, addr, true),
            MsgKind::FillAck => close_part::<F>(ctx, node, self.rows.row(addr)),
            MsgKind::WbReq { for_op, requester } => {
                if ctx.line_state(node, addr) == LineState::WmLip {
                    self.rows
                        .edit(node, addr, |r| F::park_recall(r, for_op, requester));
                } else {
                    wb_req(ctx, node, addr, for_op, requester);
                }
            }
            _ => self.fam.handle(ctx, node, msg, &mut self.rows),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        self.fam.evict(ctx, node, addr, state, &mut self.rows);
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        self.fam.dir_bits_per_mem_block(nodes)
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.fam.cache_bits_per_line(nodes)
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.rows.digest(h);
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        F::SYMMETRIC.then(|| Box::new(self.permuted(perm)) as Box<dyn Protocol>)
    }

    fn deliveries_commute(&self) -> bool {
        F::SYMMETRIC
    }

    /// Checked only at **quiescence**, for every family: no cache is still
    /// collecting acks, no home transaction is open, and [`Owner::check`]
    /// holds for every block. Then the family's own checks
    /// ([`Family::check`]).
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        if quiescent {
            let (mut open, mut busy) = (0, 0);
            for (_, row) in self.rows.iter() {
                open += row.nodes.iter().filter(|(_, r)| F::collecting(r)).count();
                busy += usize::from(row.gate.is_busy());
            }
            if open != 0 {
                return Err(format!("{open} ack collector(s) still open at quiescence"));
            }
            if busy != 0 {
                return Err(format!(
                    "{busy} home transaction(s) still open at quiescence"
                ));
            }
            for &addr in addrs {
                let entry = self.rows.get(addr).and_then(|r| r.entry.as_ref());
                entry.map_or(Owner::default(), |e| e.own).check(ctx, addr)?;
            }
        }
        self.fam.check(ctx, addrs, quiescent, &self.rows)
    }
}
