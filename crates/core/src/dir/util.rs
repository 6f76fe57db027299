//! Building blocks shared by the directory protocols.

use crate::ctx::ProtoCtx;
use crate::fingerprint::Relabel;
use crate::msg::{Msg, MsgKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::BlockTable;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

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
            // A hot block can queue a deferral per node; give the buffer
            // back rather than keep it for every block ever contended.
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Collector {
    /// `(target, dir)` pairs: who to ack and whether the ack is
    /// directory-bound.
    targets: Vec<(NodeId, bool)>,
    remaining: u32,
}

impl Collector {
    /// Open a collection in `slot` owing one ack to `target`, with
    /// `remaining` forwarded invalidations outstanding. `remaining` must be
    /// nonzero (acks with nothing outstanding should be sent immediately).
    pub fn open(slot: &mut Option<Collector>, target: NodeId, dir: bool, remaining: u32) {
        assert!(remaining > 0);
        assert!(slot.is_none(), "collector already open");
        *slot = Some(Collector {
            targets: vec![(target, dir)],
            remaining,
        });
    }

    /// A second `Inv` arrived while collecting: owe its sender an ack too,
    /// and optionally add more outstanding forwards (e.g. a late `also`).
    pub fn absorb(&mut self, target: NodeId, dir: bool, extra_remaining: u32) {
        self.targets.push((target, dir));
        self.remaining += extra_remaining;
    }

    /// An ack arrived at `slot`. Returns the targets to acknowledge when
    /// the collection completes (`None` while still waiting, or if no
    /// collection is open).
    #[must_use]
    pub fn ack(slot: &mut Option<Collector>) -> Option<Vec<(NodeId, bool)>> {
        let c = slot.as_mut()?;
        debug_assert!(c.remaining > 0);
        c.remaining -= 1;
        if c.remaining == 0 {
            slot.take().map(|c| c.targets)
        } else {
            None
        }
    }

    /// The collector with every ack target mapped through `perm`
    /// (`perm[old] = new`). Target order is preserved.
    pub fn relabeled(&self, perm: &[NodeId]) -> Collector {
        Collector {
            targets: self
                .targets
                .iter()
                .map(|&(t, d)| (perm[t as usize], d))
                .collect(),
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

/// One block's row in a protocol's [`Rows`]: the home's directory entry —
/// `None` until a request creates it, since a default entry left behind by
/// a late writeback is a different state from none — its transaction gate,
/// and the per-node records.
#[derive(Clone, Debug, Default)]
pub struct Row<E, R> {
    pub entry: Option<E>,
    pub gate: TxnGate,
    pub nodes: NodeRecs<R>,
}

// By hand: `NodeRecs` compares and hashes only records that hold
// something, which needs `R: Default` — a bound the derives would not add.
impl<E: PartialEq, R: Default + PartialEq> PartialEq for Row<E, R> {
    fn eq(&self, other: &Self) -> bool {
        self.entry == other.entry && self.gate == other.gate && self.nodes == other.nodes
    }
}

impl<E: Hash, R: Default + PartialEq + Hash> Hash for Row<E, R> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entry.hash(state);
        self.gate.hash(state);
        self.nodes.hash(state);
    }
}

/// A protocol's state, block-major: one [`Row`] per block address.
#[derive(Clone, Debug)]
pub struct Rows<E, R>(BlockTable<Row<E, R>>);

impl<E: Default, R: Default> Default for Rows<E, R> {
    fn default() -> Self {
        Self(BlockTable::new())
    }
}

impl<E: Default + PartialEq, R: Default + PartialEq> Rows<E, R> {
    pub fn get(&self, addr: Addr) -> Option<&Row<E, R>> {
        self.0.get(addr)
    }

    /// The row of `addr`, created empty if need be.
    pub fn row(&mut self, addr: Addr) -> &mut Row<E, R> {
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
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &Row<E, R>)> + '_ {
        self.0.iter_nonempty()
    }

    /// The rows with every node id mapped through `perm` (`perm[old] =
    /// new`): entries by `entry`, records by `rec`, deferred requests as
    /// messages.
    pub fn relabeled(
        &self,
        perm: &[NodeId],
        entry: impl Fn(&E) -> E,
        rec: impl Fn(&R) -> R,
    ) -> Rows<E, R> {
        Rows(self.0.map(|r| Row {
            entry: r.entry.as_ref().map(&entry),
            gate: r.gate.relabeled(perm),
            nodes: r.nodes.relabeled(perm, &rec),
        }))
    }
}

impl<E: Default + PartialEq + Hash, R: Default + PartialEq + Hash> Rows<E, R> {
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

/// Send an invalidation acknowledgement.
pub fn ack(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, to: NodeId, dir: bool) {
    send(ctx, node, to, addr, MsgKind::InvAck { dir });
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
    fn collector_completes_after_all_acks() {
        let mut c = None;
        Collector::open(&mut c, 9, true, 2);
        assert!(c.is_some());
        assert!(Collector::ack(&mut c).is_none());
        let targets = Collector::ack(&mut c).expect("complete");
        assert_eq!(targets, vec![(9, true)]);
        assert!(c.is_none());
    }

    #[test]
    fn collector_absorbs_concurrent_invs() {
        let mut c = None;
        Collector::open(&mut c, 9, true, 1);
        // A stale-parent Inv arrives mid-collection with one extra forward.
        c.as_mut().unwrap().absorb(7, false, 1);
        assert!(Collector::ack(&mut c).is_none());
        let targets = Collector::ack(&mut c).expect("complete");
        assert_eq!(targets, vec![(9, true), (7, false)]);
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
