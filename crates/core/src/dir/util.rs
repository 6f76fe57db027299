//! Building blocks shared by the directory protocols.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::fingerprint::Relabel;
use crate::msg::{Msg, MsgKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::BlockTable;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Per-block transaction serialization at the home directory: one lives in
/// every block's row.
///
/// Real directory controllers (Alewife, DASH) process one transaction per
/// block at a time and NAK or defer the rest; we defer. A protocol calls
/// [`TxnGate::admit`] when a transaction-opening request arrives; if the
/// block is busy the request is queued and `admit` returns `false`. When the
/// transaction retires, [`TxnGate::finish`] releases the block and returns
/// the next queued request (if any) for the protocol to redeliver to itself.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TxnGate {
    busy: bool,
    waiting: VecDeque<Msg>,
}

impl TxnGate {
    /// Try to open a transaction. Returns `true` if the caller may
    /// proceed; otherwise the message is queued for later redelivery.
    pub fn admit(&mut self, msg: &Msg) -> bool {
        if self.busy {
            self.waiting.push_back(msg.clone());
            false
        } else {
            self.busy = true;
            true
        }
    }

    /// Retire the transaction. Returns the next deferred request to
    /// redeliver (its redelivery will call [`TxnGate::admit`] again).
    #[must_use]
    pub fn finish(&mut self) -> Option<Msg> {
        debug_assert!(self.busy, "finish without matching admit");
        self.busy = false;
        let next = self.waiting.pop_front();
        if self.waiting.is_empty() {
            // A drained queue gives its buffer back rather than keep one
            // for every block ever contended: kept, the buffers cost 0.5 to
            // 1.2 MB of peak RSS on the benchmark's lu_p32_families,
            // floyd_p64 and floyd_p1024_vc, for one allocation per
            // contended transaction.
            self.waiting = VecDeque::new();
        }
        next
    }

    /// Retire the transaction at `home` and hand the next deferred
    /// request, if any, back to the home for redelivery.
    pub fn finish_txn(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId) {
        if let Some(next) = self.finish() {
            ctx.redeliver(home, next, 0);
        }
    }

    /// Is a transaction in flight?
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Any traffic at all — an open transaction *or* deferred requests
    /// awaiting redelivery. This is the adaptive hybrid's drain check:
    /// between [`TxnGate::finish`] popping one deferred request and its
    /// redelivery re-admitting, `busy` is clear while later arrivals still
    /// sit in the queue; flipping the block's mode then would strand them
    /// in an instance that never retires another transaction.
    pub fn has_traffic(&self) -> bool {
        self.busy || !self.waiting.is_empty()
    }

    /// The gate with deferred requests relabeled through `perm`
    /// (`perm[old] = new`). Queue order is preserved — a relabeled
    /// execution defers in the same order.
    pub fn relabeled(&self, perm: &[NodeId]) -> TxnGate {
        TxnGate {
            busy: self.busy,
            waiting: self.waiting.iter().map(|m| m.relabeled(perm)).collect(),
        }
    }
}

/// Cache-side invalidation-ack collection of one tree node for one block.
///
/// When a tree node receives an `Inv`, it forwards the invalidation to its
/// children (and, for Dir_iTree_k even-numbered roots, to the paired odd
/// root) and must acknowledge its own parent only after every forwarded
/// invalidation has been acknowledged. Because silently-replaced nodes can
/// re-join the forest while stale parent edges still point at them, a node
/// can receive *several* `Inv`s for the same block concurrently; each one
/// deserves exactly one ack, so the collector keeps a list of ack targets.
/// It lives in the node's record of the block's row, as an `Option` that
/// is `Some` exactly while a collection is open.
///
/// The debt that opened the collection is kept inline and only absorbed
/// ones go to the heap, so a wave step that forwards allocates nothing.
/// Equality and the hash are those of the one list `[first, more..]`: the
/// hash feeds exactly what a `Vec<(NodeId, bool)>` of the debts followed
/// by `remaining` would, so state digests do not depend on the split.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Collector {
    /// `(target, dir)`: who to ack and whether the ack is directory-bound.
    first: (NodeId, bool),
    /// Debts absorbed after the first, in arrival order.
    more: Box<[(NodeId, bool)]>,
    remaining: u32,
}

impl Hash for Collector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `[T]::hash`: the length (as `write_length_prefix` does by
        // default), then each element.
        state.write_usize(1 + self.more.len());
        self.first.hash(state);
        for debt in &self.more {
            debt.hash(state);
        }
        self.remaining.hash(state);
    }
}

impl Collector {
    /// Open a collection in `slot` owing one ack to `target`, with
    /// `remaining` forwarded invalidations outstanding. `remaining` must be
    /// nonzero (acks with nothing outstanding should be sent immediately).
    pub fn open(slot: &mut Option<Collector>, target: NodeId, dir: bool, remaining: u32) {
        assert!(remaining > 0);
        assert!(slot.is_none(), "collector already open");
        *slot = Some(Collector {
            first: (target, dir),
            more: Box::default(),
            remaining,
        });
    }

    /// A second `Inv` arrived while collecting: owe its sender an ack too,
    /// and optionally add more outstanding forwards (e.g. a late `also`).
    pub fn absorb(&mut self, target: NodeId, dir: bool, extra_remaining: u32) {
        let mut more = std::mem::take(&mut self.more).into_vec();
        more.push((target, dir));
        self.more = more.into_boxed_slice();
        self.remaining += extra_remaining;
    }

    /// An ack arrived at `slot`. Returns the closed collection, whose
    /// [`Collector::debts`] are to be paid, when this was the last ack
    /// (`None` while still waiting, or if no collection is open).
    #[must_use]
    pub fn ack(slot: &mut Option<Collector>) -> Option<Collector> {
        let c = slot.as_mut()?;
        debug_assert!(c.remaining > 0);
        c.remaining -= 1;
        if c.remaining == 0 {
            slot.take()
        } else {
            None
        }
    }

    /// Every `(target, dir)` owed an ack, in the order they were taken on.
    pub fn debts(&self) -> impl Iterator<Item = (NodeId, bool)> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }

    /// The collector with every ack target mapped through `perm`
    /// (`perm[old] = new`). Target order is preserved.
    pub fn relabeled(&self, perm: &[NodeId]) -> Collector {
        let map = |&(t, d): &(NodeId, bool)| (perm[t as usize], d);
        Collector {
            first: map(&self.first),
            more: self.more.iter().map(map).collect(),
            remaining: self.remaining,
        }
    }
}

/// One block's per-node records (child lists, collectors, list links, ...),
/// kept sorted by node id.
///
/// A record equal to `R::default()` means "nothing recorded" and is
/// invisible: [`NodeRecs::get`], [`NodeRecs::iter`], equality and the hash
/// all skip it, so equal states compare and hash equal, and the derived
/// `Hash` of a row holding this is a canonical digest with no sorting. The
/// slot itself is kept for reuse rather than removed: tree and list
/// protocols empty and refill the same nodes' records on every write
/// wave, and shifting a sorted vector of a widely shared block on each of
/// those edits would cost O(sharers) per message.
#[derive(Clone, Debug)]
pub struct NodeRecs<R> {
    ids: Vec<NodeId>,
    recs: Vec<R>,
}

impl<R> Default for NodeRecs<R> {
    fn default() -> Self {
        Self {
            ids: Vec::new(),
            recs: Vec::new(),
        }
    }
}

impl<R: Default + PartialEq> NodeRecs<R> {
    /// `node`'s record, if it holds anything.
    pub fn get(&self, node: NodeId) -> Option<&R> {
        let i = self.ids.binary_search(&node).ok()?;
        Some(&self.recs[i]).filter(|r| **r != R::default())
    }

    /// Edit `node`'s record in place — a default one if it has none.
    pub fn edit<T>(&mut self, node: NodeId, f: impl FnOnce(&mut R) -> T) -> T {
        match self.ids.binary_search(&node) {
            Ok(i) => f(&mut self.recs[i]),
            Err(i) => {
                let mut rec = R::default();
                let out = f(&mut rec);
                if rec != R::default() {
                    self.ids.insert(i, node);
                    self.recs.insert(i, rec);
                }
                out
            }
        }
    }

    /// `(node, record)` for every record that holds anything, in
    /// ascending node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &R)> + '_ {
        let empty = R::default();
        self.ids
            .iter()
            .copied()
            .zip(&self.recs)
            .filter(move |(_, r)| **r != empty)
    }

    /// The records with every node id — the keys, and inside each record
    /// whatever `f` maps — taken through `perm` (`perm[old] = new`), then
    /// re-sorted by the new ids. Empty slots are dropped on the way.
    pub fn relabeled(&self, perm: &[NodeId], f: impl Fn(&R) -> R) -> NodeRecs<R> {
        let mut recs: Vec<(NodeId, R)> =
            self.iter().map(|(n, r)| (perm[n as usize], f(r))).collect();
        recs.sort_unstable_by_key(|&(n, _)| n);
        let (ids, recs) = recs.into_iter().unzip();
        NodeRecs { ids, recs }
    }
}

impl<R: Default + PartialEq> PartialEq for NodeRecs<R> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<R: Default + Eq> Eq for NodeRecs<R> {}

impl<R: Default + PartialEq + Hash> Hash for NodeRecs<R> {
    /// Every record that holds anything, then `NodeId::MAX` (never a node)
    /// to end the list.
    fn hash<H: Hasher>(&self, state: &mut H) {
        for (n, r) in self.iter() {
            n.hash(state);
            r.hash(state);
        }
        NodeId::MAX.hash(state);
    }
}

/// One block's row in a protocol's [`Rows`]: a per-block mode, the home's
/// directory entry — `None` until a request creates it, since a default
/// entry left behind by a late writeback is a different state from none —
/// its transaction gate, and the per-node records.
///
/// The mode is Dir_iTree_k's write-policy bit; every other protocol's `M`
/// is `()`, which hashes to nothing. `R`'s bounds sit on the type so that
/// the derives take them (`NodeRecs` skips records that hold nothing).
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct Row<E, R: Default + PartialEq, M = ()> {
    pub mode: M,
    pub entry: Option<E>,
    pub gate: TxnGate,
    pub nodes: NodeRecs<R>,
}

/// A protocol's state, block-major: one [`Row`] per block address.
#[derive(Clone, Debug)]
pub struct Rows<E, R: Default + PartialEq, M = ()>(BlockTable<Row<E, R, M>>);

impl<E: Default, R: Default + PartialEq, M: Default> Default for Rows<E, R, M> {
    fn default() -> Self {
        Self(BlockTable::new())
    }
}

impl<E, R, M> Rows<E, R, M>
where
    E: Default + PartialEq + Hash,
    R: Default + PartialEq + Hash,
    M: Copy + Default + PartialEq + Hash,
{
    pub fn get(&self, addr: Addr) -> Option<&Row<E, R, M>> {
        self.0.get(addr)
    }

    /// The row of `addr`, created empty if need be.
    pub fn row(&mut self, addr: Addr) -> &mut Row<E, R, M> {
        self.0.get_mut_or_grow(addr)
    }

    /// `node`'s record for `addr`, if it holds anything.
    pub fn rec(&self, node: NodeId, addr: Addr) -> Option<&R> {
        self.get(addr)?.nodes.get(node)
    }

    /// Edit `node`'s record for `addr` in place ([`NodeRecs::edit`]).
    pub fn edit<T>(&mut self, node: NodeId, addr: Addr, f: impl FnOnce(&mut R) -> T) -> T {
        self.row(addr).nodes.edit(node, f)
    }

    /// `(addr, row)` for every row that holds anything, in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Row<E, R, M>)> + '_ {
        self.0.iter_nonempty()
    }

    /// The rows with every node id mapped through `perm` (`perm[old] =
    /// new`): entries by `entry`, records by `rec`, deferred requests as
    /// messages. The mode names no node.
    pub fn relabeled(
        &self,
        perm: &[NodeId],
        entry: impl Fn(&E) -> E,
        rec: impl Fn(&R) -> R,
    ) -> Rows<E, R, M> {
        Rows(self.0.map(|r| Row {
            mode: r.mode,
            entry: r.entry.as_ref().map(&entry),
            gate: r.gate.relabeled(perm),
            nodes: r.nodes.relabeled(perm, &rec),
        }))
    }

    /// Canonical digest of every row ([`crate::fingerprint::digest_rows`]).
    pub fn digest(&self, h: &mut dyn Hasher) {
        crate::fingerprint::digest_rows(h, &self.0);
    }
}

/// Send `kind` about `addr` from `src` to `dst`.
pub fn send(ctx: &mut dyn ProtoCtx, src: NodeId, dst: NodeId, addr: Addr, kind: MsgKind) {
    ctx.send(dst, Msg { addr, src, kind });
}

/// Send `kind` about `addr` from `node` to the block's home.
pub fn send_home(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, kind: MsgKind) {
    let home = ctx.home_of(addr);
    send(ctx, node, home, addr, kind);
}

/// A read miss's data arrived: the line becomes valid, the processor
/// completes, and the home — which holds the read transaction open until
/// then, so no invalidation can race this fill — hears `FillAck`.
pub fn read_fill(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
    debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
    ctx.set_line_state(node, addr, LineState::V);
    ctx.complete(node, addr, OpKind::Read);
    send_home(ctx, node, addr, MsgKind::FillAck);
}

/// `WbReq` at the (possibly former) owner: an exclusive copy is written
/// back and downgraded (read) or invalidated (write). This is the cache
/// half of [`Owner::recall`].
pub fn wb_req(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, for_op: OpKind, requester: NodeId) {
    if ctx.line_state(node, addr) == LineState::E {
        let after = match for_op {
            OpKind::Read => LineState::V,
            OpKind::Write => LineState::Iv,
        };
        ctx.set_line_state(node, addr, after);
        send_home(ctx, node, addr, MsgKind::WbData { for_op, requester });
    }
    // Otherwise the line was evicted, and its `WbEvict` answers the home.
    // That holds under pair-FIFO channels, where the `WbEvict` is in
    // flight ahead of any new request from this node — also when the node
    // is back in `WmIp` (`a_stale_recall_meets_a_write_miss_and_is_dropped`).
    // It does not hold with two or more virtual channels: there a recall
    // can overtake its own write grant, find `WmIp`, and be dropped while
    // the home waits for `WbData` (`tests/vc_ordering.rs`).
}

/// The home's record of a block's one exclusive copy, which every
/// directory family keeps the same way whatever shape its sharers take:
/// recall the copy, take the writeback, count the acks of a write's
/// invalidations, grant the write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Owner {
    /// `owner` holds the block exclusive.
    pub dirty: bool,
    /// The last node granted the block. It outlives the writeback: a
    /// recalled owner that kept a copy is read back from here.
    pub owner: NodeId,
    /// The request resumed by the recall's writeback or by the last ack.
    pending: Option<(NodeId, OpKind)>,
    wait_wb: bool,
    wait_acks: u32,
}

impl Owner {
    /// A request found the block dirty: recall it from the owner for
    /// `requester`. The writeback resumes the request
    /// ([`Owner::writeback`]).
    pub fn recall(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        requester: NodeId,
        for_op: OpKind,
    ) {
        self.pending = Some((requester, for_op));
        self.wait_wb = true;
        let kind = MsgKind::WbReq { for_op, requester };
        send(ctx, home, self.owner, addr, kind);
    }

    /// The owner's copy came back from `src`: recalled (`WbData`), or
    /// evicted (`WbEvict`, which answers a recall it crossed just as
    /// well). The block is clean. Returns the recalled request to resume,
    /// with the old owner if it kept a valid copy — `None` if no recall
    /// was waiting.
    #[must_use]
    pub fn writeback(
        &mut self,
        src: NodeId,
        evict: bool,
    ) -> Option<(NodeId, OpKind, Option<NodeId>)> {
        debug_assert!(self.dirty && (self.wait_wb || (evict && self.owner == src)));
        self.dirty = false;
        if !std::mem::take(&mut self.wait_wb) {
            return None;
        }
        let (requester, op) = self.pending.take().expect("wait_wb without pending");
        Some((requester, op, (!evict).then_some(self.owner)))
    }

    /// Resume `requester`'s `op` once `acks` acknowledgements arrive.
    pub fn await_acks(&mut self, requester: NodeId, op: OpKind, acks: u32) {
        self.pending = Some((requester, op));
        self.wait_acks = acks;
    }

    /// One acknowledgement arrived; the last returns the request to resume.
    #[must_use]
    pub fn ack(&mut self) -> Option<(NodeId, OpKind)> {
        debug_assert!(self.wait_acks > 0, "unexpected ack");
        self.wait_acks -= 1;
        if self.wait_acks > 0 {
            return None;
        }
        Some(self.pending.take().expect("acks without pending"))
    }

    /// `writer` is granted the block exclusive.
    pub fn grant(&mut self, writer: NodeId) {
        self.dirty = true;
        self.owner = writer;
    }

    /// Is a recall's writeback outstanding?
    pub fn recalling(&self) -> bool {
        self.wait_wb
    }

    /// Is a recall or an ack count open?
    fn open(&self) -> bool {
        self.pending.is_some() || self.wait_wb || self.wait_acks != 0
    }

    /// Clean, with no recall and no ack count open.
    pub fn is_idle(&self) -> bool {
        !self.dirty && !self.open()
    }

    /// The record with its node ids mapped through `perm` (`perm[old] =
    /// new`).
    pub fn relabeled(&self, perm: &[NodeId]) -> Owner {
        Owner {
            owner: perm[self.owner as usize],
            pending: self.pending.map(|(n, op)| (perm[n as usize], op)),
            ..*self
        }
    }

    /// The ownership invariants at quiescence: no recall or ack count is
    /// left open, a dirty block's owner holds it `E`, and a clean block has
    /// no `E` copy.
    pub fn check(&self, ctx: &dyn ProtoCtx, addr: Addr) -> Result<(), String> {
        let exclusive = |n| ctx.line_state(n, addr) == LineState::E;
        if self.open() {
            Err(format!(
                "quiescent but a recall or write is open for {addr:#x}"
            ))
        } else if self.dirty && !exclusive(self.owner) {
            let owner = self.owner;
            Err(format!(
                "dirty block {addr:#x}: recorded owner {owner} is not exclusive"
            ))
        } else if let Some(n) = (0..ctx.num_nodes()).find(|&n| !self.dirty && exclusive(n)) {
            Err(format!(
                "clean block {addr:#x} has an exclusive copy at node {n}"
            ))
        } else {
            Ok(())
        }
    }
}

/// The message one wave step carries: an `Inv` kills the copy, an
/// `Update` refreshes it in place.
pub fn wave_msg(update: bool, also: Option<NodeId>, from_dir: bool) -> MsgKind {
    if update {
        MsgKind::Update { also, from_dir }
    } else {
        MsgKind::Inv { also, from_dir }
    }
}

/// Acknowledge one wave message to `to` (the home if `dir`), in the wave's
/// own ack kind.
fn wave_ack(
    ctx: &mut dyn ProtoCtx,
    node: NodeId,
    addr: Addr,
    update: bool,
    (to, dir): (NodeId, bool),
) {
    let kind = if update {
        MsgKind::UpdateAck { dir }
    } else {
        MsgKind::InvAck { dir }
    };
    send(ctx, node, to, addr, kind);
}

/// Forward the wave from `node` to `targets`, then to `also` (together
/// non-empty), and owe `debt` one acknowledgement once they have all
/// answered: in the collection open in `collector`, or in a new one. The
/// only place a cache opens a [`Collector`] or forwards a wave message.
#[allow(clippy::too_many_arguments)]
fn forward(
    ctx: &mut dyn ProtoCtx,
    node: NodeId,
    addr: Addr,
    update: bool,
    collector: &mut Option<Collector>,
    (to, dir): (NodeId, bool),
    targets: &[NodeId],
    also: Option<NodeId>,
) {
    let n = targets.len() as u32 + u32::from(also.is_some());
    match collector {
        Some(c) => c.absorb(to, dir, n),
        None => Collector::open(collector, to, dir, n),
    }
    for &t in targets.iter().chain(&also) {
        send(ctx, node, t, addr, wave_msg(update, None, false));
    }
}

/// One step of a write wave (`msg`, an `Inv` or an `Update`) at cache
/// `node`, whose ack collection for the block is `collector` — the cache
/// half of every directory family's write. A flat directory's cache is a
/// node with no children.
///
/// A node already collecting answers at once: its subtree is covered by
/// the first wave path, and waiting could deadlock on the child-pointer
/// cycles that Dir_iTree_k's silent replacement and rejoin create (A is
/// replaced, re-reads, and adopts its own ex-ancestor). Immediate acks make
/// every wait edge follow first-visit order, which is acyclic. A pairing
/// duty (`also`) is the one thing it still discharges and awaits.
///
/// Otherwise `targets`, given the line's state, takes from the node's
/// records what the wave reaches below it — an owned list, or one lent
/// from the records. The wave is forwarded there and to the `also`
/// partner, a valid copy dies under an `Inv` (`InvIp` while the forwarded
/// messages are answered, `Iv` when nothing was forwarded), and the sender
/// is acked at once when there is nothing to wait for. `targets` is called
/// only on this path, so a caller can tell from that whether it was taken.
pub fn wave_step<T: Deref<Target = [NodeId]>>(
    ctx: &mut dyn ProtoCtx,
    node: NodeId,
    msg: &Msg,
    collector: &mut Option<Collector>,
    targets: impl FnOnce(LineState) -> T,
) {
    let (update, also, dir) = match msg.kind {
        MsgKind::Inv { also, from_dir } => (false, also, from_dir),
        MsgKind::Update { also, from_dir } => (true, also, from_dir),
        ref other => unreachable!("{other:?} is not a wave message"),
    };
    let (addr, debt) = (msg.addr, (msg.src, dir));
    if collector.is_some() {
        match also {
            Some(partner) => forward(ctx, node, addr, update, collector, debt, &[], Some(partner)),
            None => wave_ack(ctx, node, addr, update, debt),
        }
        return;
    }
    let state = ctx.line_state(node, addr);
    match state {
        // Counted as "copies touched" for an update wave.
        LineState::V => ctx.note(ProtoEvent::Invalidation),
        // Every family recalls an exclusive copy with `WbReq` instead.
        LineState::E => unreachable!("wave reached exclusive owner {node} for {addr:#x}"),
        // A stale target has no copy: `Iv`, `NotPresent`, or `RmIp`, whose
        // fill cannot be in flight because the home holds a read open until
        // its `FillAck`. An upgrading writer (`WmIp`) keeps waiting for its
        // grant. `InvIp` is set exactly while a collection is open (above).
        other => debug_assert_ne!(other, LineState::InvIp),
    }
    let targets = targets(state);
    let dies = !update && state == LineState::V;
    if targets.is_empty() && also.is_none() {
        if dies {
            ctx.set_line_state(node, addr, LineState::Iv);
        }
        wave_ack(ctx, node, addr, update, debt);
    } else {
        if dies {
            ctx.set_line_state(node, addr, LineState::InvIp);
        }
        forward(ctx, node, addr, update, collector, debt, &targets, also);
    }
}

/// A wave message `node` forwarded was acknowledged. The last ack closes
/// the collection: an `InvIp` line becomes `Iv`, and every debt the
/// collection took on is paid — an ack to each wave's sender, or, for the
/// debt a [`write_fill`] owes its own node, the write completes. Returns
/// whether it did.
pub fn settle(
    ctx: &mut dyn ProtoCtx,
    node: NodeId,
    addr: Addr,
    update: bool,
    collector: &mut Option<Collector>,
) -> bool {
    let Some(closed) = Collector::ack(collector) else {
        return false;
    };
    if ctx.line_state(node, addr) == LineState::InvIp {
        ctx.set_line_state(node, addr, LineState::Iv);
    }
    let mut wrote = false;
    for debt in closed.debts() {
        if debt == (node, false) {
            // No wave reaches a writer between its grant and its
            // exclusivity (the block is dirty), so nothing joined this one.
            debug_assert_eq!(closed.debts().count(), 1);
            debug_assert_eq!(ctx.line_state(node, addr), LineState::WmLip);
            write_done(ctx, node, addr);
            wrote = true;
        } else {
            wave_ack(ctx, node, addr, update, debt);
        }
    }
    wrote
}

/// `WriteReply` at the writer. It becomes exclusive and its write
/// completes — unless it must first kill the subtree `kill` (Dir_iTree_k's
/// `kill_self_subtree` and zombie edges): then it waits in `WmLip`, owing
/// the ack to itself, and [`settle`] completes the write.
pub fn write_fill(
    ctx: &mut dyn ProtoCtx,
    node: NodeId,
    addr: Addr,
    collector: &mut Option<Collector>,
    kill: &[NodeId],
) {
    debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
    if kill.is_empty() {
        write_done(ctx, node, addr);
    } else {
        assert!(collector.is_none(), "collector already open");
        ctx.set_line_state(node, addr, LineState::WmLip);
        forward(ctx, node, addr, false, collector, (node, false), kill, None);
    }
}

/// The write is done: the line is exclusive.
fn write_done(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
    ctx.set_line_state(node, addr, LineState::E);
    ctx.complete(node, addr, OpKind::Write);
}

/// Shape check of one cache's edge list (tree children, or Dir_iTree_k's
/// zombie edges): at most `max` distinct in-range nodes, never `node`
/// itself.
pub fn check_edges(
    node: NodeId,
    addr: Addr,
    kids: &[NodeId],
    what: &str,
    max: usize,
    nodes: u32,
) -> Result<(), String> {
    if kids.len() > max {
        return Err(format!(
            "node {node} holds {} {what}s for {addr:#x}, limit is {max}",
            kids.len()
        ));
    }
    for (i, &k) in kids.iter().enumerate() {
        if k == node {
            return Err(format!("self-loop {what} at node {node} for {addr:#x}"));
        }
        if k >= nodes {
            return Err(format!("out-of-range {what} at node {node} for {addr:#x}"));
        }
        if kids[..i].contains(&k) {
            return Err(format!("duplicate {what} at node {node} for {addr:#x}"));
        }
    }
    Ok(())
}

/// A dense bitset of node ids (the full-map presence vector).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    words: Vec<u64>,
    len: u32,
}

impl NodeSet {
    pub fn new(nodes: u32) -> Self {
        Self {
            words: vec![0; nodes.div_ceil(64) as usize],
            len: 0,
        }
    }

    pub fn insert(&mut self, n: NodeId) -> bool {
        let (w, b) = (n as usize / 64, n % 64);
        let mask = 1u64 << b;
        let new = self.words[w] & mask == 0;
        if new {
            self.words[w] |= mask;
            self.len += 1;
        }
        new
    }

    pub fn remove(&mut self, n: NodeId) -> bool {
        let (w, b) = (n as usize / 64, n % 64);
        let mask = 1u64 << b;
        let had = self.words[w] & mask != 0;
        if had {
            self.words[w] &= !mask;
            self.len -= 1;
        }
        had
    }

    pub fn contains(&self, n: NodeId) -> bool {
        self.words[n as usize / 64] & (1u64 << (n % 64)) != 0
    }

    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// The set with every member mapped through `perm` (`perm[old] = new`).
    pub fn relabeled(&self, perm: &[NodeId]) -> NodeSet {
        let mut out = NodeSet::new(self.words.len() as u32 * 64);
        for n in self.iter() {
            out.insert(perm[n as usize]);
        }
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros();
                    w &= w - 1;
                    Some(wi as NodeId * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgKind;

    fn msg(addr: Addr) -> Msg {
        Msg {
            addr,
            src: 1,
            kind: MsgKind::ReadReq { requester: 1 },
        }
    }

    #[test]
    fn gate_admits_first_and_queues_rest() {
        let mut g = TxnGate::default();
        assert!(g.admit(&msg(5)));
        assert!(!g.admit(&msg(5)));
        assert!(!g.admit(&msg(5)));
        assert!(g.is_busy());
        assert!(
            TxnGate::default().admit(&msg(6)),
            "each block has its own gate"
        );
    }

    #[test]
    fn gate_finish_releases_and_pops_fifo() {
        let mut g = TxnGate::default();
        assert!(g.admit(&msg(5)));
        let m1 = Msg { src: 2, ..msg(5) };
        let m2 = Msg { src: 3, ..msg(5) };
        assert!(!g.admit(&m1));
        assert!(!g.admit(&m2));
        let next = g.finish().expect("queued request");
        assert_eq!(next.src, 2);
        assert!(!g.is_busy());
        assert!(g.has_traffic(), "the second request still waits");
        // The redelivered request re-admits.
        assert!(g.admit(&next));
        let next2 = g.finish().expect("second queued request");
        assert_eq!(next2.src, 3);
        assert!(g.admit(&next2));
        assert!(g.finish().is_none());
        assert_eq!(g, TxnGate::default(), "a drained gate is back at default");
    }

    #[test]
    fn a_drained_gate_is_the_idle_gate() {
        let mut g = TxnGate::default();
        assert!(g.admit(&msg(5)));
        for src in 2..6 {
            assert!(!g.admit(&Msg { src, ..msg(5) }));
        }
        while let Some(next) = g.finish() {
            assert!(g.admit(&next));
        }
        assert_eq!(g.waiting.capacity(), 0, "the buffer is given back");
        let idle = TxnGate::default();
        assert_eq!(g, idle);
        let digest = |g: &TxnGate| {
            let mut h = dirtree_sim::hash::FxHasher::default();
            g.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&g), digest(&idle));
        assert_eq!(g.relabeled(&[0, 1, 2, 3, 4, 5]), idle);
    }

    /// The collector as it was laid out before its first debt moved
    /// inline: one `Vec` of debts. Its derived `Hash` is what the checker's
    /// state digests were built from.
    #[derive(Hash)]
    struct VecCollector {
        targets: Vec<(NodeId, bool)>,
        remaining: u32,
    }

    /// The FxHash and the SipHash (std's default) of `x`.
    fn digests(x: &impl Hash) -> (u64, u64) {
        let mut fx = dirtree_sim::hash::FxHasher::default();
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut fx);
        x.hash(&mut sip);
        (fx.finish(), sip.finish())
    }

    /// Open on `debts[0]` with `remaining` forwards, absorb the rest with
    /// one more forward each: the collector and its `Vec` layout.
    fn collect(debts: &[(NodeId, bool)], remaining: u32) -> (Collector, VecCollector) {
        let mut slot = None;
        let (to, dir) = debts[0];
        Collector::open(&mut slot, to, dir, remaining);
        let c = slot.as_mut().unwrap();
        for &(to, dir) in &debts[1..] {
            c.absorb(to, dir, 1);
        }
        let remaining = remaining + debts.len() as u32 - 1;
        let old = VecCollector {
            targets: debts.to_vec(),
            remaining,
        };
        (slot.unwrap(), old)
    }

    #[test]
    fn collector_pays_one_ack_per_debt_first_then_absorbed_in_order() {
        let debts = [(9, true), (7, false), (3, true), (7, true)];
        let (c, old) = collect(&debts, 2);
        let mut slot = Some(c);
        for _ in 1..old.remaining {
            assert!(Collector::ack(&mut slot).is_none(), "still waiting");
        }
        let closed = Collector::ack(&mut slot).expect("the last ack closes it");
        assert!(slot.is_none());
        assert!(Collector::ack(&mut slot).is_none(), "nothing open");
        assert_eq!(closed.debts().collect::<Vec<_>>(), old.targets);
        // Settled at a node: exactly one ack per debt, in the same order.
        let mut ctx = crate::testutil::MockCtx::new(16);
        let (c, _) = collect(&debts, 1);
        let mut slot = Some(c);
        for _ in 0..debts.len() - 1 {
            assert!(!settle(&mut ctx, 5, 0, false, &mut slot));
        }
        assert!(
            ctx.sent.is_empty(),
            "no ack before the last forward answers"
        );
        assert!(!settle(&mut ctx, 5, 0, false, &mut slot));
        let acks: Vec<(NodeId, bool)> = ctx
            .sent
            .iter()
            .map(|(dst, m)| match m.kind {
                MsgKind::InvAck { dir } => (*dst, dir),
                ref other => panic!("{other:?} is not an ack"),
            })
            .collect();
        assert_eq!(acks, debts);
    }

    #[test]
    fn collector_hashes_and_relabels_like_the_vec_of_its_debts() {
        let perm: Vec<NodeId> = (0..10).map(|n| [4, 9, 2, 0, 8, 1, 3, 5, 6, 7][n]).collect();
        for debts in [
            &[(9, true)][..],
            &[(0, false)],
            &[(9, true), (7, false)],
            &[(1, false), (1, true), (6, false), (2, true)],
        ] {
            let (c, old) = collect(debts, 3);
            assert_eq!(digests(&c), digests(&old), "{debts:?}");
            assert_eq!(digests(&Some(c.clone())), digests(&Some(old)), "{debts:?}");
            let moved = c.relabeled(&perm);
            let mapped: Vec<(NodeId, bool)> =
                debts.iter().map(|&(t, d)| (perm[t as usize], d)).collect();
            assert_eq!(moved.debts().collect::<Vec<_>>(), mapped, "{debts:?}");
            let (again, old_moved) = collect(&mapped, 3);
            assert_eq!(moved, again, "{debts:?}");
            assert_eq!(digests(&moved), digests(&old_moved), "{debts:?}");
        }
        // A debt more or less, or a different count, is a different state.
        let (one, _) = collect(&[(9, true)], 3);
        let (two, _) = collect(&[(9, true), (9, true)], 2);
        assert_ne!(one, two);
        assert_ne!(digests(&one), digests(&two));
    }

    #[test]
    fn collector_ack_on_closed_is_none() {
        assert!(Collector::ack(&mut None).is_none());
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn collector_double_open_panics() {
        let mut c = None;
        Collector::open(&mut c, 2, false, 1);
        Collector::open(&mut c, 3, false, 1);
    }

    #[test]
    fn node_records_stay_sorted_and_hide_defaults() {
        let mut r: NodeRecs<u32> = NodeRecs::default();
        r.edit(7, |v| *v = 70);
        r.edit(2, |v| *v = 20);
        r.edit(5, |v| *v = 0); // stays default: never stored
        r.edit(4, |v| *v = 40);
        let got: Vec<(NodeId, u32)> = r.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(got, vec![(2, 20), (4, 40), (7, 70)]);
        assert_eq!(r.get(4), Some(&40));
        assert_eq!(r.get(5), None);
        assert_eq!(
            r.edit(4, std::mem::take),
            40,
            "edit returns the closure's value"
        );
        assert_eq!(r.get(4), None, "a record edited back to default is empty");
        let mut fresh: NodeRecs<u32> = NodeRecs::default();
        fresh.edit(7, |v| *v = 70);
        fresh.edit(2, |v| *v = 20);
        assert_eq!(r, fresh, "an emptied slot is invisible to equality");
        let digest = |recs: &NodeRecs<u32>| {
            let mut h = dirtree_sim::hash::FxHasher::default();
            recs.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&r), digest(&fresh), "and to the hash");
        // Relabeling maps the keys and re-sorts: 2 -> 9, 7 -> 1.
        let perm: Vec<NodeId> = (0..10).map(|n| [0, 7, 9, 3, 4, 5, 6, 1, 8, 2][n]).collect();
        let moved = r.relabeled(&perm, |v| v + 1);
        let got: Vec<(NodeId, u32)> = moved.iter().map(|(n, v)| (n, *v)).collect();
        assert_eq!(got, vec![(1, 71), (9, 21)]);
        r.edit(2, |v| *v = 0);
        r.edit(7, |v| *v = 0);
        assert_eq!(r, NodeRecs::default());
    }

    #[test]
    fn nodeset_insert_remove_iter() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert");
        assert_eq!(s.len(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(1));
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 64, 129]);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        s.clear();
        assert!(s.is_empty());
    }
}
