//! Building blocks shared by the directory protocols.

use crate::ctx::ProtoCtx;
use crate::msg::{Msg, MsgKind};
use crate::types::{Addr, NodeId};
use dirtree_sim::FxHashMap;
use std::collections::VecDeque;

/// Per-block transaction serialization at the home directory.
///
/// Real directory controllers (Alewife, DASH) process one transaction per
/// block at a time and NAK or defer the rest; we defer. A protocol calls
/// [`TxnGate::admit`] when a transaction-opening request arrives; if the
/// block is busy the request is queued and `admit` returns `false`. When the
/// transaction retires, [`TxnGate::finish`] releases the block and returns
/// the next queued request (if any) for the protocol to redeliver to itself.
#[derive(Clone, Default)]
pub struct TxnGate {
    waiting: FxHashMap<Addr, VecDeque<Msg>>,
    busy: dirtree_sim::FxHashSet<Addr>,
}

impl TxnGate {
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to open a transaction for `addr`. Returns `true` if the caller
    /// may proceed; otherwise the message is queued for later redelivery.
    pub fn admit(&mut self, addr: Addr, msg: &Msg) -> bool {
        if self.busy.contains(&addr) {
            self.waiting.entry(addr).or_default().push_back(msg.clone());
            false
        } else {
            self.busy.insert(addr);
            true
        }
    }

    /// Retire the transaction for `addr`. Returns the next deferred request
    /// to redeliver (its redelivery will call [`TxnGate::admit`] again).
    #[must_use]
    pub fn finish(&mut self, addr: Addr) -> Option<Msg> {
        let was_busy = self.busy.remove(&addr);
        debug_assert!(was_busy, "finish without matching admit for {addr:#x}");
        let q = self.waiting.get_mut(&addr)?;
        let next = q.pop_front();
        if q.is_empty() {
            self.waiting.remove(&addr);
        }
        next
    }

    /// Retire the transaction for `addr` at `home` and hand the next
    /// deferred request, if any, back to the home for redelivery.
    pub fn finish_txn(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        if let Some(next) = self.finish(addr) {
            ctx.redeliver(home, next, 0);
        }
    }

    /// Is a transaction in flight for `addr`?
    pub fn is_busy(&self, addr: Addr) -> bool {
        self.busy.contains(&addr)
    }

    /// Any traffic for `addr` at all — an open transaction *or* deferred
    /// requests awaiting redelivery. This is the adaptive hybrid's drain
    /// check: between [`TxnGate::finish`] popping one deferred request and
    /// its redelivery re-admitting, `busy` is clear while later arrivals
    /// still sit in the queue; flipping the block's mode then would strand
    /// them in an instance that never retires another transaction.
    pub fn has_traffic(&self, addr: Addr) -> bool {
        self.busy.contains(&addr) || self.waiting.contains_key(&addr)
    }

    /// Number of blocks with open transactions (diagnostics / quiescence).
    pub fn open_transactions(&self) -> usize {
        self.busy.len()
    }

    /// Canonical digest of the gate state (model-checker support).
    pub fn digest(&self, h: &mut dyn std::hash::Hasher) {
        crate::fingerprint::digest_map(h, &self.waiting);
        crate::fingerprint::digest_set(h, &self.busy);
    }

    /// The gate with deferred requests relabeled through `perm`
    /// (`perm[old] = new`); per-block busy flags are node-free. Queue order
    /// is preserved — a relabeled execution defers in the same order.
    pub fn relabeled(&self, perm: &[NodeId]) -> TxnGate {
        TxnGate {
            waiting: self
                .waiting
                .iter()
                .map(|(&a, q)| (a, q.iter().map(|m| m.relabeled(perm)).collect()))
                .collect(),
            busy: self.busy.clone(),
        }
    }
}

/// Cache-side invalidation-ack collector for tree protocols.
///
/// When a tree node receives an `Inv`, it forwards the invalidation to its
/// children (and, for Dir_iTree_k even-numbered roots, to the paired odd
/// root) and must acknowledge its own parent only after every forwarded
/// invalidation has been acknowledged. Because silently-replaced nodes can
/// re-join the forest while stale parent edges still point at them, a node
/// can receive *several* `Inv`s for the same block concurrently; each one
/// deserves exactly one ack, so the collector keeps a list of ack targets.
#[derive(Clone, Default)]
pub struct AckCollectors {
    map: FxHashMap<(NodeId, Addr), Collector>,
}

#[derive(Clone, Hash)]
struct Collector {
    /// `(target, dir)` pairs: who to ack and whether the ack is
    /// directory-bound.
    targets: Vec<(NodeId, bool)>,
    remaining: u32,
}

impl AckCollectors {
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a collection at `(node, addr)` owing one ack to `target`, with
    /// `remaining` forwarded invalidations outstanding. `remaining` must be
    /// nonzero (acks with nothing outstanding should be sent immediately).
    pub fn open(&mut self, node: NodeId, addr: Addr, target: NodeId, dir: bool, remaining: u32) {
        assert!(remaining > 0);
        let prev = self.map.insert(
            (node, addr),
            Collector {
                targets: vec![(target, dir)],
                remaining,
            },
        );
        assert!(
            prev.is_none(),
            "collector already open at ({node}, {addr:#x})"
        );
    }

    /// Is a collection in progress at `(node, addr)`?
    pub fn is_open(&self, node: NodeId, addr: Addr) -> bool {
        self.map.contains_key(&(node, addr))
    }

    /// A second `Inv` arrived while collecting: owe its sender an ack too,
    /// and optionally add more outstanding forwards (e.g. a late `also`).
    pub fn absorb(
        &mut self,
        node: NodeId,
        addr: Addr,
        target: NodeId,
        dir: bool,
        extra_remaining: u32,
    ) {
        let c = self
            .map
            .get_mut(&(node, addr))
            .expect("absorb on closed collector");
        c.targets.push((target, dir));
        c.remaining += extra_remaining;
    }

    /// An ack arrived. Returns the targets to acknowledge when the
    /// collection completes (empty `None` while still waiting).
    #[must_use]
    pub fn ack(&mut self, node: NodeId, addr: Addr) -> Option<Vec<(NodeId, bool)>> {
        let c = self.map.get_mut(&(node, addr))?;
        debug_assert!(c.remaining > 0);
        c.remaining -= 1;
        if c.remaining == 0 {
            let c = self.map.remove(&(node, addr)).unwrap();
            Some(c.targets)
        } else {
            None
        }
    }

    pub fn open_count(&self) -> usize {
        self.map.len()
    }

    /// Is a collection in progress for `addr` at *any* node? (Used by the
    /// adaptive hybrid's transition-drain check.)
    pub fn open_at_addr(&self, addr: Addr) -> bool {
        self.map.keys().any(|&(_, a)| a == addr)
    }

    /// Canonical digest of all open collections (model-checker support).
    pub fn digest(&self, h: &mut dyn std::hash::Hasher) {
        crate::fingerprint::digest_map(h, &self.map);
    }

    /// The collectors with every node id (keys and ack targets) mapped
    /// through `perm` (`perm[old] = new`). Target order is preserved.
    pub fn relabeled(&self, perm: &[NodeId]) -> AckCollectors {
        AckCollectors {
            map: self
                .map
                .iter()
                .map(|(&(n, a), c)| {
                    (
                        (perm[n as usize], a),
                        Collector {
                            targets: c
                                .targets
                                .iter()
                                .map(|&(t, d)| (perm[t as usize], d))
                                .collect(),
                            remaining: c.remaining,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Send an invalidation acknowledgement.
pub fn ack(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, to: NodeId, dir: bool) {
    ctx.send(
        to,
        Msg {
            addr,
            src: node,
            kind: MsgKind::InvAck { dir },
        },
    );
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
        let mut g = TxnGate::new();
        assert!(g.admit(5, &msg(5)));
        assert!(!g.admit(5, &msg(5)));
        assert!(!g.admit(5, &msg(5)));
        assert!(g.admit(6, &msg(6)), "different blocks are independent");
        assert!(g.is_busy(5));
        assert_eq!(g.open_transactions(), 2);
    }

    #[test]
    fn gate_finish_releases_and_pops_fifo() {
        let mut g = TxnGate::new();
        assert!(g.admit(5, &msg(5)));
        let m1 = Msg { src: 2, ..msg(5) };
        let m2 = Msg { src: 3, ..msg(5) };
        g.admit(5, &m1);
        g.admit(5, &m2);
        let next = g.finish(5).expect("queued request");
        assert_eq!(next.src, 2);
        assert!(!g.is_busy(5));
        // The redelivered request re-admits.
        assert!(g.admit(5, &next));
        let next2 = g.finish(5).expect("second queued request");
        assert_eq!(next2.src, 3);
        assert!(g.admit(5, &next2));
        assert!(g.finish(5).is_none());
    }

    #[test]
    fn collector_completes_after_all_acks() {
        let mut c = AckCollectors::new();
        c.open(4, 100, 9, true, 2);
        assert!(c.is_open(4, 100));
        assert!(c.ack(4, 100).is_none());
        let targets = c.ack(4, 100).expect("complete");
        assert_eq!(targets, vec![(9, true)]);
        assert!(!c.is_open(4, 100));
    }

    #[test]
    fn collector_absorbs_concurrent_invs() {
        let mut c = AckCollectors::new();
        c.open(4, 100, 9, true, 1);
        // A stale-parent Inv arrives mid-collection with one extra forward.
        c.absorb(4, 100, 7, false, 1);
        assert!(c.ack(4, 100).is_none());
        let targets = c.ack(4, 100).expect("complete");
        assert_eq!(targets, vec![(9, true), (7, false)]);
    }

    #[test]
    fn collector_ack_on_closed_is_none() {
        let mut c = AckCollectors::new();
        assert!(c.ack(1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn collector_double_open_panics() {
        let mut c = AckCollectors::new();
        c.open(1, 1, 2, false, 1);
        c.open(1, 1, 3, false, 1);
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
