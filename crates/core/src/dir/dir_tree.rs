//! **Dir<sub>i</sub>Tree<sub>k</sub>** — the paper's contribution (§3).
//!
//! The home directory keeps `i` pointers per memory block, each with a
//! *level* counter recording the height of the tree it points at; cache
//! blocks keep up to `k` child pointers (forward pointers only). Sharers
//! form a forest of at most `i` near-balanced trees.
//!
//! **Read miss** (Figure 6), always 2 messages:
//! 1. requester already pointed at by a directory pointer → just resupply;
//! 2. a free pointer exists → point it at the requester, level 1;
//! 3. two pointers have trees of equal height → both are handed to the
//!    requester, whose cache adopts the two roots as children; the first
//!    pointer now points at the requester (level + 1) and the second
//!    becomes free (*tree merge*);
//! 4. otherwise the pointer with the smallest level is handed over; its
//!    root becomes the requester's only child (*push down*).
//!
//! When several equal-height pairs exist we merge the pair of **maximal**
//! equal level: this reproduces the paper's Figure 5, where the 15th read
//! miss adopts processors 11 and 13.
//!
//! **Write miss** (~log P latency): the home sends invalidations to the
//! roots; each node forwards to its children and acknowledges its parent
//! after its subtree acks. Even-numbered pointers additionally invalidate
//! their odd-numbered partners, so the home collects at most `⌈i/2⌉` acks.
//!
//! **Write policy.** §3 allows "either an invalidation or an update
//! protocol", and both run on this one forest. An *update* write pushes the
//! new value down the trees with `Update` messages (fanned out and paired
//! exactly like the invalidations); every copy stays valid and the writer
//! joins the forest through the Figure-6 insertion. There is no exclusive
//! state, so every write — including repeated writes by one processor — is
//! a full home transaction; the home applies the value to memory when it
//! processes the write, so memory is always current and there are no dirty
//! recalls. Good for producer/consumer sharing, terrible for private
//! read-modify-write data (measurable with the `ablation_update` binary).
//! The policy is fixed by the [`ProtocolKind`] that built the instance —
//! `DirTree` invalidates, `DirTreeUpdate` updates, `DirTreeAdaptive` keeps
//! one bit per block that [`crate::adapt`] sets — and the handlers consult
//! it in exactly four places: which wave a `WriteReq` launches, what a
//! `Replace_INV` landing on a `WmIp` line does, the merge width of the
//! Figure-6 insertion, and whether an exclusive line can be evicted.
//! Everything else dispatches on the message kind, which names its wave.
//!
//! **Replacement**: the evicted block silently kills its subtree with
//! unacknowledged `Replace_INV` messages and never informs the home —
//! directory pointers may go stale; wave handling is idempotent so every
//! `Inv`/`Update` still produces exactly one ack.
//!
//! Because `Replace_INV` is unacknowledged, nothing orders the silent kill
//! before a later write grant: if the disbanding node forgot its child
//! edges, a write could complete (all *recorded* sharers acked) while a
//! `Replace_INV` is still in flight toward a live copy. The disbanded
//! edges are therefore remembered as **zombie edges** and every
//! acknowledged wave — invalidate or update — re-traverses them;
//! per-channel FIFO delivery guarantees the wave's message reaches each
//! ex-child after the `Replace_INV` did, so its acknowledgement proves the
//! copy is dead (or has independently re-joined the forest). (The model
//! checker in `crates/check` finds the 12-step counterexample at P=2 if
//! the edges are dropped instead.)
//!
//! ```
//! use dirtree_core::dir::dir_tree::DirTree;
//! use dirtree_core::protocol::{Protocol, ProtocolParams};
//! use dirtree_core::testkit::MockCtx;
//!
//! // Reproduce Figure 5: after 14 read misses, the 15th requester adopts
//! // processors 11 and 13 (the maximal equal-height pair).
//! let mut ctx = MockCtx::new(32);
//! let mut proto = DirTree::new(4, 2, ProtocolParams::default());
//! for reader in 1..=15 {
//!     ctx.read(&mut proto, reader, 0);
//! }
//! assert_eq!(proto.children_of(15, 0), &[11, 13]);
//! ```

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{read_fill, send, send_home, wb_req, Collector, NodeRecs, Owner, TxnGate};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind, ProtocolParams};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::BlockTable;

/// A directory pointer: the root of one sharer tree and its recorded level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    pub node: NodeId,
    pub level: u32,
}

/// What a write does to the other copies (see the module docs). Static
/// policies answer [`DirTree::updates`] from this enum alone; only
/// `PerBlock` looks at the per-block bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WritePolicy {
    Invalidate,
    Update,
    PerBlock,
}

#[derive(Clone, Default, PartialEq, Hash)]
struct Entry {
    own: Owner,
    ptrs: Vec<Option<Ptr>>,
    /// The pending writer was itself a recorded root: the grant will tell
    /// it to kill its own subtree locally.
    grant_self_root: bool,
}

impl Entry {
    fn relabeled(&self, perm: &[NodeId]) -> Entry {
        let node = |n: NodeId| perm[n as usize];
        Entry {
            own: self.own.relabeled(perm),
            ptrs: self
                .ptrs
                .iter()
                .map(|p| {
                    p.map(|p| Ptr {
                        node: node(p.node),
                        ..p
                    })
                })
                .collect(),
            ..*self
        }
    }
}

/// One node's records for one block.
#[derive(Clone, Default, PartialEq, Hash)]
struct Rec {
    /// Cache-side child pointers (up to `arity`).
    children: Vec<NodeId>,
    /// Edges of a disbanded subtree: children this node has already sent
    /// an *unacknowledged* `ReplaceInv`, remembered until an acknowledged
    /// wave re-traverses them. Nothing orders a silent kill before a later
    /// write grant except per-channel FIFO — so the wave's message must
    /// follow the same channels the `ReplaceInv` took. Dropping these
    /// edges at replacement time lets a write complete while the kill is
    /// still in flight (the model checker finds the race in 12 steps at
    /// P=2).
    zombies: Vec<NodeId>,
    collector: Option<Collector>,
    /// A writeback request that arrived while this owner was still killing
    /// its own subtree (`WmLip`); served when it becomes exclusive.
    pending_wb: Option<(OpKind, NodeId)>,
    /// A `Replace_INV` that landed on an update block while this node's
    /// update grant was in flight (state `WmIp`): the kill is deferred to
    /// grant time, because the edge that led here is already gone — a copy
    /// the grant made valid would be unreachable from the roots forever.
    kill: bool,
}

impl Rec {
    fn relabeled(&self, perm: &[NodeId]) -> Rec {
        let nodes = |v: &[NodeId]| v.iter().map(|&n| perm[n as usize]).collect();
        Rec {
            children: nodes(&self.children),
            zombies: nodes(&self.zombies),
            collector: self.collector.as_ref().map(|c| c.relabeled(perm)),
            pending_wb: self.pending_wb.map(|(op, req)| (op, perm[req as usize])),
            kill: self.kill,
        }
    }
}

/// One block's row.
#[derive(Clone, Default, PartialEq, Hash)]
struct Row {
    /// The per-block write-policy bit: set while a `PerBlock` instance
    /// writes this block with updates (clear = invalidate, the default).
    /// Always clear under the two static policies.
    update: bool,
    /// The directory entry, once a request created it.
    entry: Option<Entry>,
    gate: TxnGate,
    nodes: NodeRecs<Rec>,
}

impl Row {
    fn relabeled(&self, perm: &[NodeId]) -> Row {
        Row {
            update: self.update,
            entry: self.entry.as_ref().map(|e| e.relabeled(perm)),
            gate: self.gate.relabeled(perm),
            nodes: self.nodes.relabeled(perm, |r| r.relabeled(perm)),
        }
    }
}

/// The Dir_iTree_k protocol.
#[derive(Clone)]
pub struct DirTree {
    pointers: u32,
    arity: u32,
    params: ProtocolParams,
    policy: WritePolicy,
    rows: BlockTable<Row>,
    /// Reusable scratch for one wave's `(target, partner)` root fan-out —
    /// cleared before every use, so its carry-over contents are *not*
    /// protocol state: it is excluded from [`Protocol::fingerprint`] (the
    /// model checker must never observe scratch reuse; a mutant that
    /// aliases this buffer across waves is caught by the witness — see
    /// `dirtree-check`'s `MutantKind::StaleWaveScratch`).
    wave_scratch: Vec<(NodeId, Option<NodeId>)>,
}

/// The message one wave step carries.
fn wave_msg(update: bool, also: Option<NodeId>, from_dir: bool) -> MsgKind {
    if update {
        MsgKind::Update { also, from_dir }
    } else {
        MsgKind::Inv { also, from_dir }
    }
}

/// Acknowledge one wave message, in the wave's own ack kind.
fn send_ack(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, to: NodeId, dir: bool, update: bool) {
    let kind = if update {
        MsgKind::UpdateAck { dir }
    } else {
        MsgKind::InvAck { dir }
    };
    send(ctx, node, to, addr, kind);
}

impl DirTree {
    /// Dir_iTree_k with invalidating writes, as the paper evaluates it.
    pub fn new(pointers: u32, arity: u32, params: ProtocolParams) -> Self {
        Self::with_policy(pointers, arity, params, WritePolicy::Invalidate)
    }

    pub(crate) fn with_policy(
        pointers: u32,
        arity: u32,
        params: ProtocolParams,
        policy: WritePolicy,
    ) -> Self {
        assert!(pointers >= 1, "need at least one directory pointer");
        assert!(arity >= 2, "cache blocks need at least two child pointers");
        Self {
            pointers,
            arity,
            params,
            policy,
            rows: BlockTable::new(),
            wave_scratch: Vec::new(),
        }
    }

    fn row(&mut self, addr: Addr) -> &mut Row {
        self.rows.get_mut_or_grow(addr)
    }

    fn rec(&self, node: NodeId, addr: Addr) -> Option<&Rec> {
        self.rows.get(addr)?.nodes.get(node)
    }

    fn edit<T>(&mut self, node: NodeId, addr: Addr, f: impl FnOnce(&mut Rec) -> T) -> T {
        self.row(addr).nodes.edit(node, f)
    }

    /// Does a write to `addr` update the other copies (rather than
    /// invalidate them)? No map lookup under a static policy.
    pub(crate) fn updates(&self, addr: Addr) -> bool {
        match self.policy {
            WritePolicy::Invalidate => false,
            WritePolicy::Update => true,
            WritePolicy::PerBlock => self.rows.get(addr).is_some_and(|r| r.update),
        }
    }

    /// Set `addr`'s write-policy bit and nothing else — no drain check, no
    /// canonicalisation. [`Self::flip`] is the protocol's path; on its own
    /// this is the fault injector behind `DirTreeAdaptive::force_mode`.
    pub(crate) fn set_update_bit(&mut self, addr: Addr, update: bool) {
        debug_assert_eq!(self.policy, WritePolicy::PerBlock);
        self.row(addr).update = update;
    }

    /// Flip a drained block ([`Self::flip_idle`]) to the other write
    /// policy, in place: roots, child edges and zombie edges are meaningful
    /// to either wave and stay exactly where they are. The directory entry
    /// is put in canonical form — dropped if it records no roots, else its
    /// only non-forest residue, the stale `owner` of the last exclusive
    /// grant, is reset — so two histories that drained to the same forest
    /// are one state to the model checker (its pinned state counts assume
    /// it).
    pub(crate) fn flip(&mut self, addr: Addr, to_update: bool) {
        debug_assert!(self.flip_idle(addr));
        let row = self.row(addr);
        if let Some(e) = &mut row.entry {
            if e.ptrs.iter().all(Option::is_none) {
                row.entry = None;
            } else {
                e.own.owner = NodeId::default();
            }
        }
        self.set_update_bit(addr, to_update);
    }

    fn entry(&mut self, addr: Addr) -> &mut Entry {
        let i = self.pointers as usize;
        self.row(addr).entry.get_or_insert_with(|| Entry {
            ptrs: vec![None; i],
            ..Entry::default()
        })
    }

    /// The current forest for `addr`: `(root, level)` per non-null pointer,
    /// in pointer-index order (for tests, analysis cross-checks, and the
    /// tree-shape experiment).
    pub fn forest(&self, addr: Addr) -> Vec<Option<Ptr>> {
        self.rows
            .get(addr)
            .and_then(|r| r.entry.as_ref())
            .map(|e| e.ptrs.clone())
            .unwrap_or_else(|| vec![None; self.pointers as usize])
    }

    /// Cache-side children of `(node, addr)`.
    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rec(node, addr).map_or(&[], |r| &r.children)
    }

    /// Disbanded-subtree edges of `(node, addr)` still awaiting an
    /// acknowledged re-traversal (see `Rec::zombies`).
    pub fn zombies_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rec(node, addr).map_or(&[], |r| &r.zombies)
    }

    /// The drain predicate of a policy flip: no home transaction or
    /// deferred request, no ack collection, no deferred kill, and an entry
    /// with no write in progress and no exclusive owner — a dirty block is
    /// *not* idle, because update blocks have no exclusive state and the
    /// owner must write back first. (A recall parked in `pending_wb` needs
    /// no clause of its own: the home is recalling for as long as it
    /// exists, which [`Protocol::check_invariants`] pins.) The adaptive
    /// hybrid additionally requires zero in-flight messages.
    pub(crate) fn flip_idle(&self, addr: Addr) -> bool {
        let Some(row) = self.rows.get(addr) else {
            return true;
        };
        !row.gate.has_traffic()
            && row
                .nodes
                .iter()
                .all(|(_, r)| r.collector.is_none() && !r.kill)
            && row
                .entry
                .as_ref()
                .is_none_or(|e| e.own.is_idle() && !e.grant_self_root)
    }

    /// Silently disband `(node, addr)`'s subtree: one unacknowledged
    /// `ReplaceInv` per child, with the edges moved to the zombie set so
    /// the next acknowledged wave still covers them.
    fn disband(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
        let kids = self.edit(node, addr, |r| {
            let kids = std::mem::take(&mut r.children);
            for &k in &kids {
                if !r.zombies.contains(&k) {
                    r.zombies.push(k);
                }
            }
            kids
        });
        for k in kids {
            send(ctx, node, k, addr, MsgKind::ReplaceInv);
        }
    }

    /// Collect the whole tree rooted at `root` by following child pointers
    /// (diagnostics; cycles are guarded against).
    pub fn subtree(&self, root: NodeId, addr: Addr) -> Vec<NodeId> {
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() && out.len() < 100_000 {
            let n = out[i];
            for &c in self.children_of(n, addr) {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            i += 1;
        }
        out
    }

    /// Figure 6: insert `requester` into the forest, returning the roots it
    /// must adopt as children (empty for cases 1 and 2).
    fn insert_sharer(&mut self, ctx: &mut dyn ProtoCtx, addr: Addr, requester: NodeId) -> NodeList {
        // Policy point 3 of 4. Update blocks merge pairs only: the k > 2
        // generalisation below never reached the update variant while it
        // was a file of its own, and `benchmark/expected.json` pins the
        // state counts that drift produces (Dir3Tree3U/P5B1, Dir3Tree3A/
        // P5B1). Unify the width only together with a re-baseline (ROADMAP).
        let width = if self.updates(addr) {
            2
        } else {
            self.arity as usize
        };
        let e = self.entry(addr);
        // Case 1: already recorded (e.g. silently replaced, now re-reading).
        if e.ptrs.iter().flatten().any(|p| p.node == requester) {
            return NodeList::default();
        }
        // Case 2: a free pointer.
        if let Some(slot) = e.ptrs.iter().position(Option::is_none) {
            e.ptrs[slot] = Some(Ptr {
                node: requester,
                level: 1,
            });
            return NodeList::default();
        }
        // Case 3: merge equal-height trees of maximal equal height. The
        // paper always merges exactly two ("two pointers are selected");
        // with arity k > 2 we generalize and adopt up to k equal-height
        // roots at once (an extension; k = 2 reproduces the paper).
        let mut best: Option<(u32, Vec<usize>)> = None; // (level, slots)
        for a in 0..e.ptrs.len() {
            let la = e.ptrs[a].unwrap().level;
            if best.as_ref().is_some_and(|(l, _)| *l >= la) {
                continue;
            }
            let slots: Vec<usize> = (a..e.ptrs.len())
                .filter(|&b| e.ptrs[b].unwrap().level == la)
                .take(width)
                .collect();
            if slots.len() >= 2 {
                best = Some((la, slots));
            }
        }
        if let Some((level, slots)) = best {
            let adopt: Vec<NodeId> = slots.iter().map(|&i| e.ptrs[i].unwrap().node).collect();
            e.ptrs[slots[0]] = Some(Ptr {
                node: requester,
                level: level + 1,
            });
            for &i in &slots[1..] {
                e.ptrs[i] = None;
            }
            ctx.note(ProtoEvent::TreeMerge);
            return adopt.into();
        }
        // Case 4: all levels distinct — push down the smallest tree.
        let (slot, ptr) = e
            .ptrs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .min_by_key(|&(_, p)| p.level)
            .expect("no pointers despite full directory");
        e.ptrs[slot] = Some(Ptr {
            node: requester,
            level: ptr.level + 1,
        });
        ctx.note(ProtoEvent::TreePushDown);
        vec![ptr.node].into()
    }

    fn handle_read_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.row(addr).gate.admit(&msg) {
            return;
        }
        let e = self.entry(addr);
        if e.own.dirty {
            debug_assert_ne!(e.own.owner, requester);
            e.own.recall(ctx, home, addr, requester, OpKind::Read);
        } else {
            self.serve_read(ctx, home, addr, requester);
        }
    }

    /// Insert a reader into the forest and send it the data; the
    /// transaction stays open until its `FillAck`.
    fn serve_read(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, reader: NodeId) {
        let adopt = self.insert_sharer(ctx, addr, reader);
        send(ctx, home, reader, addr, MsgKind::ReadReply { adopt });
    }

    /// Launch one write wave from the home: a message to every forest root
    /// except `skip`, even-numbered roots carrying their odd partner when
    /// pairing is on. Returns the number of acknowledgements the home must
    /// collect.
    fn wave_roots(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        skip: Option<NodeId>,
        update: bool,
    ) -> u32 {
        // Reuse the wave scratch buffer (taken, cleared, and put back) so a
        // write's fan-out list never allocates on the hot path.
        let mut sends = std::mem::take(&mut self.wave_scratch);
        sends.clear();
        let ptrs = &self
            .rows
            .get(addr)
            .and_then(|r| r.entry.as_ref())
            .expect("a wave for a block with no directory entry")
            .ptrs;
        let root = |slot: usize| {
            let node = ptrs.get(slot).copied().flatten()?.node;
            (Some(node) != skip).then_some(node)
        };
        if self.params.dir_tree_pairing {
            // Even-numbered roots forward to their odd partners: the home
            // receives at most ceil(i/2) acknowledgements.
            for slot in (0..ptrs.len()).step_by(2) {
                match (root(slot), root(slot + 1)) {
                    (Some(a), also) => sends.push((a, also)),
                    (None, Some(b)) => sends.push((b, None)),
                    (None, None) => {}
                }
            }
        } else {
            sends.extend((0..ptrs.len()).filter_map(root).map(|n| (n, None)));
        }
        for &(dst, also) in &sends {
            send(ctx, home, dst, addr, wave_msg(update, also, true));
        }
        let expected = sends.len() as u32;
        self.wave_scratch = sends;
        expected
    }

    fn grant_write(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, writer: NodeId) {
        let row = self.row(addr);
        let e = row.entry.as_mut().unwrap();
        e.own.grant(writer);
        e.ptrs.iter_mut().for_each(|p| *p = None);
        let kill_self_subtree = e.grant_self_root;
        e.grant_self_root = false;
        send(
            ctx,
            home,
            writer,
            addr,
            MsgKind::WriteReply { kill_self_subtree },
        );
        row.gate.finish_txn(ctx, home);
    }

    fn handle_write_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::WriteReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.row(addr).gate.admit(&msg) {
            return;
        }
        // Policy point 1 of 4: which wave this write launches.
        let update = self.updates(addr);
        let e = self.entry(addr);
        let expected = if update {
            // Every recorded copy is refreshed, the writer's included.
            self.wave_roots(ctx, home, addr, None, true)
        } else if e.own.dirty {
            e.own.recall(ctx, home, addr, requester, OpKind::Write);
            return;
        } else {
            // The wave consumes the forest. A root that is the writer
            // itself is skipped: the grant tells it to kill its own subtree
            // locally (it holds the child pointers; an `Inv` would only
            // bounce back to it).
            e.grant_self_root = e.ptrs.iter().flatten().any(|p| p.node == requester);
            let expected = self.wave_roots(ctx, home, addr, Some(requester), false);
            self.entry(addr).ptrs.fill(None);
            expected
        };
        if expected == 0 {
            self.grant(ctx, home, addr, requester, update);
        } else {
            let own = &mut self.entry(addr).own;
            own.await_acks(requester, OpKind::Write, expected);
        }
    }

    /// Grant a write. An update writer keeps a valid copy, so it joins the
    /// forest like any other sharer.
    fn grant(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        writer: NodeId,
        update: bool,
    ) {
        if !update {
            return self.grant_write(ctx, home, addr, writer);
        }
        let adopt = self.insert_sharer(ctx, addr, writer);
        send(ctx, home, writer, addr, MsgKind::UpdateGrant { adopt });
        self.row(addr).gate.finish_txn(ctx, home);
    }

    fn handle_wb(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        src: NodeId,
        evict: bool,
    ) {
        let e = self.entry(addr);
        let Some((requester, op, keep)) = e.own.writeback(src, evict) else {
            return;
        };
        match op {
            OpKind::Read => {
                // The downgraded owner becomes the first root; then the
                // requester joins through the normal insertion path.
                if let Some(node) = keep {
                    e.ptrs[0] = Some(Ptr { node, level: 1 });
                }
                self.serve_read(ctx, home, addr, requester);
            }
            OpKind::Write => self.grant_write(ctx, home, addr, requester),
        }
    }

    /// A root acknowledged the home's wave; the last ack grants the write.
    fn handle_ack_home(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, update: bool) {
        let e = self.row(addr).entry.as_mut().expect("ack without entry");
        if let Some((requester, op)) = e.own.ack() {
            debug_assert_eq!(op, OpKind::Write);
            self.grant(ctx, home, addr, requester, update);
        }
    }

    /// One step of a write wave at a cache: forward to the subtree and any
    /// `also` partner, then acknowledge the sender — immediately, or
    /// through a collector once everything forwarded has acked. An `Inv`
    /// kills the copy and consumes its child edges; an `Update` refreshes
    /// the copy in place and keeps them. Both consume the zombie edges:
    /// FIFO puts this message behind the `Replace_INV` on the same pair, so
    /// its ack proves the disbanded subtree processed its kill.
    fn handle_wave(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let (update, also, dir) = match msg.kind {
            MsgKind::Inv { also, from_dir } => (false, also, from_dir),
            MsgKind::Update { also, from_dir } => (true, also, from_dir),
            _ => unreachable!(),
        };
        let forward = || Msg {
            addr,
            src: node,
            kind: wave_msg(update, None, false),
        };
        // A node already collecting acknowledgements answers immediately:
        // its subtree is covered by the first wave path, and waiting here
        // could deadlock on child-pointer *cycles* created by silent
        // replacement + rejoin (A is replaced, re-reads, and adopts its own
        // ex-ancestor). Immediate acks make every wait edge follow
        // first-visit order, which is acyclic. A pairing duty ('also') is
        // the one thing that must still be discharged and awaited.
        if self.rec(node, addr).is_some_and(|r| r.collector.is_some()) {
            if let Some(partner) = also {
                ctx.send(partner, forward());
                self.edit(node, addr, |r| {
                    let c = r.collector.as_mut().expect("absorb on closed collector");
                    c.absorb(msg.src, dir, 1);
                });
            } else {
                send_ack(ctx, node, addr, msg.src, dir, update);
            }
            return;
        }
        // `InvIp` is set exactly while a collector is open (handled above),
        // and no wave reaches an exclusive owner (see the module docs).
        let state = ctx.line_state(node, addr);
        debug_assert!(!matches!(state, LineState::InvIp | LineState::E));
        debug_assert!(
            matches!(state, LineState::V | LineState::WmIp | LineState::WmLip)
                || self.children_of(node, addr).is_empty(),
            "a dead copy still owns children"
        );
        if state == LineState::V {
            // Counted as "copies touched" for an update wave.
            ctx.note(ProtoEvent::Invalidation);
        }
        // A stale target (`Iv`/`NotPresent`, or `RmIp` — the home holds
        // read transactions open until the FillAck, so no fill can be in
        // flight) has no copy and no children, but its zombie edges and its
        // pairing duty are still owed. An upgrading writer (`WmIp`) loses
        // its old copy's subtree to an `Inv` and keeps it under an `Update`;
        // its line stays transient awaiting the grant either way. The
        // collector, if anything was forwarded, opens in the same edit.
        let keeps_copy = matches!(state, LineState::V | LineState::WmIp);
        let targets = self.edit(node, addr, |r| {
            let mut targets = if !update {
                std::mem::take(&mut r.children)
            } else if keeps_copy {
                r.children.clone()
            } else {
                Vec::new()
            };
            for z in std::mem::take(&mut r.zombies) {
                if !targets.contains(&z) {
                    targets.push(z);
                }
            }
            targets.extend(also);
            if !targets.is_empty() {
                Collector::open(&mut r.collector, msg.src, dir, targets.len() as u32);
            }
            targets
        });
        for &t in &targets {
            ctx.send(t, forward());
        }
        let dies = !update && state == LineState::V;
        if targets.is_empty() {
            if dies {
                ctx.set_line_state(node, addr, LineState::Iv);
            }
            send_ack(ctx, node, addr, msg.src, dir, update);
        } else if dies {
            ctx.set_line_state(node, addr, LineState::InvIp);
        }
    }

    /// A forwarded wave message was acknowledged; the last ack settles
    /// every debt the collector absorbed.
    fn handle_ack_cache(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, update: bool) {
        let done = self.edit(node, addr, |r| Collector::ack(&mut r.collector));
        let Some(targets) = done else {
            return;
        };
        if ctx.line_state(node, addr) == LineState::InvIp {
            ctx.set_line_state(node, addr, LineState::Iv);
        }
        for (to, dir) in targets {
            if to == node && !dir {
                // Self-subtree kill finished: the write completes.
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmLip);
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
                let parked = self.edit(node, addr, |r| r.pending_wb.take());
                if let Some((for_op, requester)) = parked {
                    self.serve_wb_req(ctx, node, addr, for_op, requester);
                }
            } else {
                send_ack(ctx, node, addr, to, dir, update);
            }
        }
    }

    /// Serve a home recall at the exclusive owner.
    fn serve_wb_req(
        &self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        for_op: OpKind,
        requester: NodeId,
    ) {
        debug_assert_eq!(ctx.line_state(node, addr), LineState::E);
        debug_assert!(self.children_of(node, addr).is_empty());
        wb_req(ctx, node, addr, for_op, requester);
    }

    fn handle_read_reply(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReply { adopt } = msg.kind else {
            unreachable!()
        };
        debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
        debug_assert!(
            self.children_of(node, addr).is_empty(),
            "filling a line that still owns children"
        );
        debug_assert!(adopt.len() <= self.arity as usize);
        if !adopt.is_empty() {
            self.edit(node, addr, |r| r.children = adopt.into_vec());
        }
        read_fill(ctx, node, addr);
    }

    /// The update writer's grant: adopt the roots the home handed over and
    /// keep a *valid* (not exclusive) copy.
    fn handle_update_grant(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::UpdateGrant { adopt } = msg.kind else {
            unreachable!()
        };
        debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
        let killed = self.edit(node, addr, |r| {
            for &a in adopt.iter() {
                if !r.children.contains(&a) && a != node {
                    r.children.push(a);
                }
            }
            std::mem::take(&mut r.kill)
        });
        if killed {
            // A `Replace_INV` raced this grant (see `handle_replace_inv`).
            // The write itself is done — the home applied the value when it
            // processed the request — but the local copy must go the way
            // the kill intended, or it stays valid yet unreachable from the
            // roots. Adoption came first so adopted subtrees get their own
            // kills.
            self.replaced(ctx, node, addr);
        } else {
            ctx.set_line_state(node, addr, LineState::V);
        }
        ctx.complete(node, addr, OpKind::Write);
    }

    /// A parent's replacement kills this live copy and, silently, its
    /// subtree.
    fn replaced(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
        ctx.note(ProtoEvent::ReplacementInvalidation);
        self.disband(ctx, node, addr);
        ctx.set_line_state(node, addr, LineState::Iv);
    }

    fn handle_replace_inv(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
        match ctx.line_state(node, addr) {
            LineState::V => self.replaced(ctx, node, addr),
            // Policy point 2 of 4. On an update block the kill crossed our
            // in-flight grant: the parent edge that led here is gone (an
            // update wave consumes it as a zombie), so the copy the grant
            // is about to validate would be unreachable from the roots.
            // Ignoring the kill would leak a live orphan; defer it to grant
            // time instead. An invalidate grant makes the line exclusive,
            // which is no longer the copy the stale parent meant.
            LineState::WmIp if self.updates(addr) => {
                self.edit(node, addr, |r| r.kill = true);
            }
            // Any other transient, invalid or exclusive line is not the
            // copy the stale parent thought it was killing.
            _ => {}
        }
    }

    fn handle_repl_notify(&mut self, _ctx: &mut dyn ProtoCtx, addr: Addr, src: NodeId) {
        // Ablation policy E12: clear a stale root pointer eagerly.
        if let Some(e) = self.rows.get_mut(addr).and_then(|r| r.entry.as_mut()) {
            for p in e.ptrs.iter_mut() {
                if p.map(|q| q.node) == Some(src) {
                    *p = None;
                }
            }
        }
    }
}

impl Protocol for DirTree {
    fn kind(&self) -> ProtocolKind {
        let (pointers, arity) = (self.pointers, self.arity);
        match self.policy {
            WritePolicy::Invalidate => ProtocolKind::DirTree { pointers, arity },
            WritePolicy::Update => ProtocolKind::DirTreeUpdate { pointers, arity },
            WritePolicy::PerBlock => ProtocolKind::DirTreeAdaptive { pointers, arity },
        }
    }

    fn is_update(&self) -> bool {
        self.policy == WritePolicy::Update
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.updates(addr)
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_read_req(ctx, node, msg),
            MsgKind::WriteReq { .. } => self.handle_write_req(ctx, node, msg),
            MsgKind::WbData { .. } => self.handle_wb(ctx, node, addr, msg.src, false),
            MsgKind::WbEvict => self.handle_wb(ctx, node, addr, msg.src, true),
            MsgKind::InvAck { dir: true } => self.handle_ack_home(ctx, node, addr, false),
            MsgKind::UpdateAck { dir: true } => self.handle_ack_home(ctx, node, addr, true),
            MsgKind::FillAck => self.row(addr).gate.finish_txn(ctx, node),
            MsgKind::InvAck { dir: false } => self.handle_ack_cache(ctx, node, addr, false),
            MsgKind::UpdateAck { dir: false } => self.handle_ack_cache(ctx, node, addr, true),
            MsgKind::ReadReply { .. } => self.handle_read_reply(ctx, node, msg),
            MsgKind::UpdateGrant { .. } => self.handle_update_grant(ctx, node, msg),
            MsgKind::WriteReply { kill_self_subtree } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                // Without `kill_self_subtree`, any children the writer had
                // were killed when the invalidation reached it through the
                // forest (before its subtree acked, hence before this
                // grant).
                debug_assert!(kill_self_subtree || self.children_of(node, addr).is_empty());
                let kids = self.edit(node, addr, |r| {
                    let mut kids = if kill_self_subtree {
                        std::mem::take(&mut r.children)
                    } else {
                        Vec::new()
                    };
                    // A subtree this writer disbanded earlier (silent
                    // replacement, then re-miss) may still have its
                    // `ReplaceInv`s in flight: re-kill it with acknowledged
                    // invalidations so the write cannot complete first.
                    for z in std::mem::take(&mut r.zombies) {
                        if !kids.contains(&z) {
                            kids.push(z);
                        }
                    }
                    if !kids.is_empty() {
                        // Kill our own subtree before the write completes.
                        Collector::open(&mut r.collector, node, false, kids.len() as u32);
                    }
                    kids
                });
                if kids.is_empty() {
                    ctx.set_line_state(node, addr, LineState::E);
                    ctx.complete(node, addr, OpKind::Write);
                } else {
                    ctx.set_line_state(node, addr, LineState::WmLip);
                    for k in kids {
                        send(ctx, node, k, addr, wave_msg(false, None, false));
                    }
                }
            }
            MsgKind::Inv { .. } | MsgKind::Update { .. } => self.handle_wave(ctx, node, msg),
            MsgKind::ReplaceInv => self.handle_replace_inv(ctx, node, addr),
            MsgKind::ReplNotify => self.handle_repl_notify(ctx, addr, msg.src),
            MsgKind::WbReq { for_op, requester } => {
                use crate::types::LineState as S;
                match ctx.line_state(node, addr) {
                    S::E => self.serve_wb_req(ctx, node, addr, for_op, requester),
                    // Still killing our own subtree after the grant: serve
                    // the recall once exclusive.
                    S::WmLip => {
                        let parked = Some((for_op, requester));
                        self.edit(node, addr, |r| r.pending_wb = parked);
                    }
                    // Evicted: the WbEvict in flight satisfies the home.
                    _ => {}
                }
            }
            other => unreachable!("Dir_iTree_k received {other:?}"),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        match state {
            LineState::V => {
                self.disband(ctx, node, addr);
                if !self.params.dir_tree_silent_replace {
                    send_home(ctx, node, addr, MsgKind::ReplNotify);
                }
            }
            // Policy point 4 of 4: an update block has no exclusive state
            // (memory is always current), so only an invalidate block can
            // be evicting one.
            LineState::E if !self.updates(addr) => {
                send_home(ctx, node, addr, MsgKind::WbEvict);
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // i pointers, each (node id + level) ≈ 2·log n bits, plus the dirty
        // bit unless every block is an update block.
        2 * self.pointers as u64 * ptr_bits(nodes) + u64::from(!self.is_update())
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        // k child pointers of log n bits, plus state.
        self.arity as u64 * ptr_bits(nodes) + 3
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        crate::fingerprint::digest_rows(h, &self.rows);
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        Some(Box::new(self.relabeled_concrete(perm)))
    }

    fn deliveries_commute(&self) -> bool {
        true
    }

    /// Dir_iTree_k structural invariants (§3 well-formedness).
    ///
    /// Checked at **every** state:
    /// * every directory entry keeps exactly `i` pointer slots (≤ i roots);
    /// * pointers reference valid nodes with level ≥ 1;
    /// * no two pointers of one block reference the same root;
    /// * cache-side child lists hold ≤ `k` distinct children, never the
    ///   node itself;
    /// * zombie (disbanded-subtree) edge lists hold distinct valid nodes,
    ///   never the node itself;
    /// * a recall parked at a self-killing owner (`pending_wb`) has the
    ///   home waiting for it ([`Owner::recalling`]) — what lets
    ///   `Self::flip_idle` read the entry alone;
    /// * an update block has no exclusive copy.
    ///
    /// Checked only at **quiescence** (no message in flight — mid-
    /// transaction these are legitimately violated, e.g. while a recalled
    /// owner's data is on the wire):
    /// * no ack collector, home transaction or deferred kill is left open;
    /// * [`Owner::check`];
    /// * `dirty` entries have an empty forest and no child or zombie edges
    ///   (the granting wave drains both);
    /// * on a clean block every valid copy is reachable from the recorded
    ///   roots through child and zombie pointers — a sharer the forest
    ///   cannot see would silently survive the next write wave.
    ///
    /// Note the *absence* of a height-vs-level claim: recorded levels are
    /// upper bounds at insertion time, and silent replacement + rejoin can
    /// leave stale cross-tree edges that make a traversal longer than any
    /// recorded level, so levels are deliberately only sanity-checked.
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        for (addr, row) in self.rows.iter_nonempty() {
            let recalling = row.entry.as_ref().is_some_and(|e| e.own.recalling());
            for (node, r) in row.nodes.iter() {
                let arity = self.arity as usize;
                check_edges(node, addr, &r.children, "child pointer", arity, nodes)?;
                check_edges(node, addr, &r.zombies, "zombie edge", nodes as usize, nodes)?;
                if r.pending_wb.is_some() && !recalling {
                    return Err(format!(
                        "recall parked at node {node} for {addr:#x} but the home is not waiting for it"
                    ));
                }
            }
            let Some(e) = &row.entry else {
                continue;
            };
            if e.ptrs.len() != self.pointers as usize {
                return Err(format!(
                    "directory entry for {addr:#x} has {} pointer slots, expected {}",
                    e.ptrs.len(),
                    self.pointers
                ));
            }
            let roots: Vec<Ptr> = e.ptrs.iter().flatten().copied().collect();
            for (i, p) in roots.iter().enumerate() {
                if p.node >= nodes {
                    return Err(format!("pointer at {addr:#x} references node {}", p.node));
                }
                if p.level == 0 {
                    return Err(format!("pointer at {addr:#x} has level 0"));
                }
                if roots[..i].iter().any(|q| q.node == p.node) {
                    return Err(format!("duplicate root pointer at {addr:#x}"));
                }
            }
        }
        for &addr in addrs {
            if self.updates(addr) {
                if let Some(n) = (0..nodes).find(|&n| ctx.line_state(n, addr) == LineState::E) {
                    return Err(format!(
                        "update block {addr:#x} has an exclusive copy at node {n}"
                    ));
                }
            }
        }
        if !quiescent {
            return Ok(());
        }
        let recs = || {
            self.rows
                .iter_nonempty()
                .flat_map(|(addr, row)| row.nodes.iter().map(move |(n, r)| (addr, n, r)))
        };
        let open = recs().filter(|(_, _, r)| r.collector.is_some()).count();
        if open != 0 {
            return Err(format!("{open} ack collector(s) still open at quiescence"));
        }
        let busy = self
            .rows
            .iter_nonempty()
            .filter(|(_, r)| r.gate.is_busy())
            .count();
        if busy != 0 {
            return Err(format!(
                "{busy} home transaction(s) still open at quiescence"
            ));
        }
        if let Some((addr, node, _)) = recs().find(|(_, _, r)| r.kill) {
            return Err(format!(
                "quiescent but deferred kill at {node} for {addr:#x}"
            ));
        }
        for &addr in addrs {
            let row = self.rows.get(addr);
            let e = row.and_then(|r| r.entry.as_ref());
            e.map_or(Owner::default(), |e| e.own).check(ctx, addr)?;
            if let Some(e) = e.filter(|e| e.own.dirty) {
                if e.ptrs.iter().any(Option::is_some) {
                    return Err(format!("dirty block {addr:#x} still records roots"));
                }
                let has_edges = |edges: fn(&Rec) -> &Vec<NodeId>| {
                    row.is_some_and(|r| r.nodes.iter().any(|(_, r)| !edges(r).is_empty()))
                };
                if has_edges(|r| &r.children) {
                    return Err(format!("dirty block {addr:#x} still has child edges"));
                }
                if has_edges(|r| &r.zombies) {
                    return Err(format!("dirty block {addr:#x} still has zombie edges"));
                }
                continue;
            }
            // Clean block: every valid copy must be reachable from the
            // recorded roots.
            let mut reachable = vec![false; nodes as usize];
            let mut frontier: Vec<NodeId> = e
                .map(|e| e.ptrs.iter().flatten().map(|p| p.node).collect())
                .unwrap_or_default();
            while let Some(n) = frontier.pop() {
                if std::mem::replace(&mut reachable[n as usize], true) {
                    continue;
                }
                frontier.extend_from_slice(self.children_of(n, addr));
                frontier.extend_from_slice(self.zombies_of(n, addr));
            }
            if let Some(n) = (0..nodes)
                .find(|&n| ctx.line_state(n, addr) == LineState::V && !reachable[n as usize])
            {
                return Err(format!(
                    "valid copy at node {n} for {addr:#x} unreachable from the forest"
                ));
            }
        }
        Ok(())
    }
}

/// Shape check shared by child and zombie lists: `node`'s list holds at
/// most `max` distinct in-range nodes, never `node` itself.
fn check_edges(
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

impl DirTree {
    /// Node-relabeled clone ([`Protocol::relabeled`]). Every decision the
    /// protocol makes — slot selection, level comparison, wave pairing
    /// (even/odd slots), push-down target — is a function of slot indices
    /// and levels, never of node-id magnitude, so element-wise mapping of
    /// ids (preserving slot and edge-list order) is an exact equivariance.
    /// `wave_scratch` is cleared before every use and is not protocol
    /// state, so the clone starts with it empty.
    pub(crate) fn relabeled_concrete(&self, perm: &[NodeId]) -> DirTree {
        DirTree {
            rows: self.rows.map(|r| r.relabeled(perm)),
            wave_scratch: Vec::new(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolParams;
    use crate::testutil::MockCtx;

    fn setup(nodes: u32, pointers: u32) -> (MockCtx, DirTree) {
        (
            MockCtx::new(nodes),
            DirTree::new(pointers, 2, ProtocolParams::default()),
        )
    }

    /// Home of every address used below is node 0 (addr % nodes == 0), so
    /// requesters 1..=15 never collide with the home.
    const A: Addr = 0;

    #[test]
    fn read_miss_is_always_two_messages() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=20 {
            let mark = ctx.mark();
            ctx.read(&mut p, n, A);
            assert_eq!(
                ctx.critical_since(mark),
                2,
                "read miss #{n} must cost exactly 2 messages (paper Table 1)"
            );
        }
    }

    #[test]
    fn paper_figure5_fifteenth_request_adopts_11_and_13() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=14 {
            ctx.read(&mut p, n, A);
        }
        // After 14 requests the maximal-equal-level pair is (11, 13).
        ctx.read(&mut p, 15, A);
        assert_eq!(p.children_of(15, A), &[11, 13]);
    }

    #[test]
    fn forest_levels_follow_figure6() {
        let (mut ctx, mut p) = setup(32, 2);
        // Dir2Tree2 trace from Table 3: levels evolve 1,1 -> merge.
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        assert_eq!(
            p.forest(A),
            vec![
                Some(Ptr { node: 1, level: 1 }),
                Some(Ptr { node: 2, level: 1 })
            ]
        );
        ctx.read(&mut p, 3, A); // merge: 3 adopts 1 and 2
        assert_eq!(p.forest(A), vec![Some(Ptr { node: 3, level: 2 }), None]);
        assert_eq!(p.children_of(3, A), &[1, 2]);
        ctx.read(&mut p, 4, A); // free slot
        ctx.read(&mut p, 5, A); // push down: 5 adopts 4 (levels 2 and 1 differ)
        assert_eq!(
            p.forest(A),
            vec![
                Some(Ptr { node: 3, level: 2 }),
                Some(Ptr { node: 5, level: 2 })
            ]
        );
        assert_eq!(p.children_of(5, A), &[4]);
        ctx.read(&mut p, 6, A); // merge 3 and 5 under 6
        assert_eq!(p.forest(A), vec![Some(Ptr { node: 6, level: 3 }), None]);
        assert_eq!(p.children_of(6, A), &[3, 5]);
    }

    #[test]
    fn rereading_when_already_recorded_does_not_restructure() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=4 {
            ctx.read(&mut p, n, A);
        }
        let forest = p.forest(A);
        ctx.evict(&mut p, 2, A); // silent
        ctx.read(&mut p, 2, A); // case 1: still recorded
        assert_eq!(p.forest(A), forest, "forest unchanged by re-read");
    }

    #[test]
    fn write_invalidates_entire_forest() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=15 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 20, A);
        for n in 1..=15 {
            assert!(
                !ctx.line_state(n, A).readable(),
                "node {n} survived the write"
            );
        }
        assert_eq!(ctx.line_state(20, A), LineState::E);
        ctx.assert_swmr(A);
        // Forest is empty and dirty.
        assert!(p.forest(A).iter().all(Option::is_none));
    }

    #[test]
    fn pairing_halves_home_acks() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=8 {
            ctx.read(&mut p, n, A); // fills 4 pointers, then merges
        }
        let mark = ctx.mark();
        ctx.write(&mut p, 9, A);
        let dir_acks = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
            .count();
        let live_roots = 4; // after 8 inserts all four pointers are live
        assert!(
            dir_acks <= live_roots / 2 + 1,
            "home saw {dir_acks} acks, pairing should bound it by ceil(roots/2)"
        );
    }

    #[test]
    fn no_pairing_ablation_sends_ack_per_root() {
        let params = ProtocolParams {
            dir_tree_pairing: false,
            ..Default::default()
        };
        let mut p = DirTree::new(4, 2, params);
        let mut ctx = MockCtx::new(32);
        for n in 1..=8 {
            ctx.read(&mut p, n, A);
        }
        let roots = p.forest(A).iter().flatten().count();
        let mark = ctx.mark();
        ctx.write(&mut p, 9, A);
        let dir_acks = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
            .count();
        assert_eq!(dir_acks, roots);
    }

    #[test]
    fn silent_replacement_kills_subtree_only() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3 is root with children {1, 2}
        }
        ctx.read(&mut p, 4, A);
        ctx.evict(&mut p, 3, A); // Replace_INV kills 1 and 2 silently
        assert!(!ctx.line_state(1, A).readable());
        assert!(!ctx.line_state(2, A).readable());
        assert!(ctx.line_state(4, A).readable(), "other tree untouched");
        // Home still (staleley) points at 3; a write must still work.
        ctx.write(&mut p, 5, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![5]);
    }

    #[test]
    fn stale_root_rejoin_with_duplicate_invs_is_coherent() {
        let (mut ctx, mut p) = setup(32, 2);
        // Build: 3 -> {1, 2}; evict 1 silently (leaf). Home pointer still
        // references the tree; 1 re-reads and is re-inserted elsewhere,
        // creating a stale 3 -> 1 edge plus a fresh position for 1.
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 1, A);
        ctx.read(&mut p, 4, A); // occupies second pointer
        ctx.read(&mut p, 1, A); // 1 rejoins: push-down of tree 4 (levels 2 vs 1)
        assert_eq!(p.children_of(1, A), &[4]);
        // Now the write's invalidation visits 1 once from home (root) and
        // once via the stale edge from 3.
        ctx.write(&mut p, 9, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![9]);
    }

    #[test]
    fn dirty_read_recall_keeps_owner_as_root() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(ctx.line_state(5, A), LineState::V);
        let forest = p.forest(A);
        assert_eq!(forest[0], Some(Ptr { node: 2, level: 1 }));
        assert_eq!(forest[1], Some(Ptr { node: 5, level: 1 }));
    }

    #[test]
    fn upgrade_write_from_inside_the_forest() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=5 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 3, A); // 3 is inside the forest (has children)
        assert_eq!(ctx.line_state(3, A), LineState::E);
        for n in [1, 2, 4, 5] {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
        assert!(p.children_of(3, A).is_empty(), "writer's children cleared");
    }

    #[test]
    fn exclusive_eviction_cleans_dirty_state() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.write(&mut p, 3, A);
        ctx.evict(&mut p, 3, A);
        let mark = ctx.mark();
        ctx.read(&mut p, 4, A);
        assert_eq!(ctx.critical_since(mark), 2, "clean read after writeback");
    }

    #[test]
    fn repl_notify_ablation_clears_stale_pointer() {
        let params = ProtocolParams {
            dir_tree_silent_replace: false,
            ..Default::default()
        };
        let mut p = DirTree::new(4, 2, params);
        let mut ctx = MockCtx::new(32);
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        ctx.evict(&mut p, 1, A);
        assert_eq!(p.forest(A)[0], None, "notify cleared the pointer");
        assert_eq!(p.forest(A)[1], Some(Ptr { node: 2, level: 1 }));
    }

    #[test]
    fn deep_forest_write_storm_many_nodes() {
        let (mut ctx, mut p) = setup(32, 1);
        // Dir1Tree2 degenerates to a single (chain-heavy) tree.
        for n in 1..=25 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 30, A);
        for n in 1..=25 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn sequential_writers_chain_ownership() {
        let (mut ctx, mut p) = setup(16, 4);
        for n in 0..16 {
            ctx.write(&mut p, n, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![n]);
        }
    }

    #[test]
    fn subtree_inspection_walks_children() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        let t = p.subtree(3, A);
        assert_eq!(t, vec![3, 1, 2]);
    }

    #[test]
    fn memory_formula_matches_section3() {
        let p = DirTree::new(4, 2, ProtocolParams::default());
        // 2·i·log n + dirty = 2·4·5 + 1 for n = 32.
        assert_eq!(p.dir_bits_per_mem_block(32), 41);
        // k·log n + state = 2·5 + 3.
        assert_eq!(p.cache_bits_per_line(32), 13);
    }

    #[test]
    fn upgrade_by_sole_sharer_costs_two_messages() {
        // Migratory pattern: read then write by the same node. The home
        // skips the self-invalidation (the grant carries the subtree-kill
        // instruction), so the upgrade costs req + grant only.
        let (mut ctx, mut p) = setup(32, 4);
        ctx.read(&mut p, 3, A);
        let mark = ctx.mark();
        ctx.write(&mut p, 3, A);
        assert_eq!(ctx.critical_since(mark), 2, "upgrade must match full-map");
        assert_eq!(ctx.line_state(3, A), LineState::E);
    }

    #[test]
    fn upgrade_by_root_with_children_kills_subtree_locally() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3 -> {1, 2}
        }
        assert_eq!(p.children_of(3, A), &[1, 2]);
        let mark = ctx.mark();
        ctx.write(&mut p, 3, A); // 3 is the sole root
                                 // req + grant + 2 self-issued invs + 2 acks = 6, still cheaper
                                 // than bouncing an Inv off the home.
        assert_eq!(ctx.critical_since(mark), 6);
        assert!(!ctx.line_state(1, A).readable());
        assert!(!ctx.line_state(2, A).readable());
        assert_eq!(ctx.line_state(3, A), LineState::E);
        assert!(p.children_of(3, A).is_empty());
        ctx.assert_swmr(A);
    }

    #[test]
    fn writer_as_odd_partner_is_skipped_in_pairing() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.read(&mut p, 5, A); // ptr0
        ctx.read(&mut p, 7, A); // ptr1
        let mark = ctx.mark();
        ctx.write(&mut p, 7, A); // the odd partner upgrades
                                 // Home invalidates only node 5 (no `also` back to the writer):
                                 // req + inv(5) + ack + grant = 4.
        assert_eq!(ctx.critical_since(mark), 4);
        assert!(!ctx.line_state(5, A).readable());
        assert_eq!(ctx.line_state(7, A), LineState::E);
    }

    #[test]
    fn recall_during_self_subtree_kill_is_deferred() {
        // Build 3 -> {1, 2}; 3 upgrades (self-kill in progress keeps it
        // WmLip briefly); a reader's recall must wait for exclusivity.
        // With the mock's synchronous delivery the window closes inside
        // run(), so this exercises the pending_wb bookkeeping end-to-end.
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 3, A);
        ctx.read(&mut p, 9, A); // dirty recall from 3
        assert_eq!(ctx.line_state(3, A), LineState::V);
        assert_eq!(ctx.line_state(9, A), LineState::V);
        ctx.assert_swmr(A);
    }

    #[test]
    fn arity_four_merges_up_to_four_trees() {
        let mut p = DirTree::new(4, 4, ProtocolParams::default());
        let mut ctx = MockCtx::new(32);
        for n in 1..=4 {
            ctx.read(&mut p, n, A); // fill the four pointers, level 1 each
        }
        ctx.read(&mut p, 5, A); // 4-way merge: 5 adopts all four
        assert_eq!(p.children_of(5, A), &[1, 2, 3, 4]);
        let forest = p.forest(A);
        assert_eq!(forest[0], Some(Ptr { node: 5, level: 2 }));
        assert!(forest[1..].iter().all(Option::is_none));
        // Coherence still holds through the wider tree.
        ctx.write(&mut p, 9, A);
        for n in 1..=5 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn arity_two_merge_is_unchanged_by_the_generalization() {
        // The k = 2 behaviour must stay exactly the paper's (Figure 5).
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=15 {
            ctx.read(&mut p, n, A);
        }
        assert_eq!(p.children_of(15, A), &[11, 13]);
    }

    #[test]
    fn interleaved_reads_and_writes_converge() {
        let (mut ctx, mut p) = setup(32, 4);
        for round in 0..4 {
            for n in 1..=10 {
                ctx.read(&mut p, n, A);
            }
            ctx.write(&mut p, round, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![round]);
        }
    }

    /// The update write policy on the same forest (the tests of the former
    /// update-variant file, on the merged type).
    mod update {
        use super::*;

        fn update_tree(pointers: u32) -> DirTree {
            DirTree::with_policy(pointers, 2, ProtocolParams::default(), WritePolicy::Update)
        }

        fn setup(nodes: u32) -> (MockCtx, DirTree) {
            (MockCtx::new(nodes), update_tree(4))
        }

        /// An update-protocol write via the mock (the MockCtx `write` helper
        /// asserts E, which does not exist here).
        fn do_write(ctx: &mut MockCtx, p: &mut DirTree, node: u32) {
            let before = ctx.completed.len();
            ctx.begin_miss(p, node, A, OpKind::Write);
            ctx.run(p);
            assert!(
                ctx.completed[before..].contains(&(node, A, OpKind::Write)),
                "write by {node} did not complete"
            );
            assert_eq!(ctx.line_state(node, A), LineState::V, "writer stays valid");
        }

        #[test]
        fn read_misses_cost_two_messages_like_invalidate_variant() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=10 {
                let mark = ctx.mark();
                ctx.read(&mut p, n, A);
                assert_eq!(ctx.critical_since(mark), 2);
            }
        }

        #[test]
        fn writes_leave_all_copies_valid() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=6 {
                ctx.read(&mut p, n, A);
            }
            do_write(&mut ctx, &mut p, 9);
            for n in 1..=6 {
                assert_eq!(
                    ctx.line_state(n, A),
                    LineState::V,
                    "update must not kill node {n}"
                );
            }
            assert_eq!(ctx.holders(A).len(), 7, "writer joins the sharers");
        }

        #[test]
        fn forest_shape_matches_invalidation_variant() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=14 {
                ctx.read(&mut p, n, A);
            }
            ctx.read(&mut p, 15, A);
            assert_eq!(p.children_of(15, A), &[11, 13], "Figure 5 shape preserved");
        }

        #[test]
        fn every_sharer_receives_every_update() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 4); // writer inside the forest
            let updates = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::Update { .. }))
                .count();
            assert_eq!(updates, 8, "one update per recorded sharer");
        }

        #[test]
        fn repeated_writes_by_same_node_each_pay_a_transaction() {
            let (mut ctx, mut p) = setup(32);
            do_write(&mut ctx, &mut p, 3);
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 3);
            // req + self-update + ack + grant: the no-E price.
            assert!(ctx.critical_since(mark) >= 4);
        }

        #[test]
        fn silent_replacement_then_update_is_safe() {
            // Two pointers so the third read merges: 3 -> {1, 2}.
            let mut p = update_tree(2);
            let mut ctx = MockCtx::new(32);
            for n in 1..=3 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(3, A), &[1, 2]);
            ctx.evict(&mut p, 3, A); // kills 1 and 2 silently
            do_write(&mut ctx, &mut p, 5);
            assert!(!ctx.line_state(1, A).readable());
            assert!(!ctx.line_state(2, A).readable());
            assert_eq!(ctx.line_state(5, A), LineState::V);
        }

        #[test]
        fn disband_retains_zombie_edges_until_wave_retraverses() {
            let mut p = update_tree(2);
            let mut ctx = MockCtx::new(32);
            for n in 1..=3 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(3, A), &[1, 2]);
            ctx.evict(&mut p, 3, A);
            assert_eq!(
                p.zombies_of(3, A),
                &[1, 2],
                "disbanded edges are retained as zombies"
            );
            do_write(&mut ctx, &mut p, 5);
            assert!(
                (0..32).all(|n| p.zombies_of(n, A).is_empty()),
                "the acked update wave consumes zombie edges"
            );
            assert!(!ctx.line_state(1, A).readable());
            assert!(!ctx.line_state(2, A).readable());
        }

        #[test]
        fn pairing_bounds_home_acks() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 9);
            let home_acks = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::UpdateAck { dir: true }))
                .count();
            assert!(
                home_acks <= 2,
                "pairing should bound home acks, got {home_acks}"
            );
        }
    }

    /// The per-block policy bit: a `PerBlock` tree is the static policy its
    /// bit names, and a flip moves nothing.
    mod per_block {
        use super::*;
        use dirtree_sim::SimRng;

        const NODES: u32 = 16;
        const BLOCKS: [Addr; 2] = [0, 1];

        fn tree(pointers: u32, policy: WritePolicy) -> DirTree {
            DirTree::with_policy(pointers, 2, ProtocolParams::default(), policy)
        }

        /// Play a seeded random read/write/evict sequence over two blocks
        /// and return everything observable: the message log, the
        /// completions, the protocol events and the final line states.
        fn play(p: &mut DirTree, seed: u64) -> impl PartialEq + std::fmt::Debug {
            let mut ctx = MockCtx::new(NODES);
            let mut rng = SimRng::new(seed);
            for _ in 0..300 {
                let node = rng.gen_range(NODES as u64) as NodeId;
                let addr = BLOCKS[rng.gen_index(BLOCKS.len())];
                let state = ctx.line_state(node, addr);
                match rng.gen_range(4) {
                    0 | 1 => ctx.read(p, node, addr),
                    2 if !state.writable() => {
                        let before = ctx.completed.len();
                        ctx.begin_miss(p, node, addr, OpKind::Write);
                        ctx.run(p);
                        assert!(ctx.completed[before..].contains(&(node, addr, OpKind::Write)));
                    }
                    3 if matches!(state, LineState::V | LineState::E) => ctx.evict(p, node, addr),
                    _ => {}
                }
            }
            let states: Vec<_> = BLOCKS.iter().map(|&a| ctx.states_of(a)).collect();
            (ctx.sent, ctx.completed, ctx.events, states)
        }

        #[test]
        fn unset_bit_is_static_invalidate_and_set_bit_is_static_update() {
            for pointers in [1, 2, 4] {
                for seed in 0..24 {
                    let unset = play(&mut tree(pointers, WritePolicy::PerBlock), seed);
                    let invalidate = play(&mut tree(pointers, WritePolicy::Invalidate), seed);
                    assert!(
                        unset == invalidate,
                        "i={pointers} seed={seed}: bit never set diverges from Invalidate"
                    );
                    let mut set = tree(pointers, WritePolicy::PerBlock);
                    for addr in BLOCKS {
                        set.set_update_bit(addr, true);
                    }
                    let update = play(&mut tree(pointers, WritePolicy::Update), seed);
                    assert!(
                        play(&mut set, seed) == update,
                        "i={pointers} seed={seed}: bit set from the start diverges from Update"
                    );
                    assert!(invalidate != update, "the two policies must differ");
                }
            }
        }

        #[test]
        fn flip_is_in_place() {
            let mut ctx = MockCtx::new(NODES);
            let mut p = tree(2, WritePolicy::PerBlock);
            for n in 1..=9 {
                ctx.read(&mut p, n, A);
            }
            // Evict an interior node so the block also carries zombie edges.
            let interior = (1..=9)
                .find(|&n| {
                    !p.children_of(n, A).is_empty()
                        && p.forest(A).iter().flatten().all(|r| r.node != n)
                })
                .expect("nine sharers under two pointers have an interior node");
            ctx.evict(&mut p, interior, A);
            assert!(!p.zombies_of(interior, A).is_empty());
            let snapshot = |p: &DirTree| {
                let edges: Vec<_> = (0..NODES)
                    .map(|n| (p.children_of(n, A).to_vec(), p.zombies_of(n, A).to_vec()))
                    .collect();
                (p.forest(A), edges)
            };
            let before = snapshot(&p);
            for to_update in [true, false] {
                assert!(p.flip_idle(A));
                p.flip(A, to_update);
                assert_eq!(p.updates(A), to_update);
                assert_eq!(snapshot(&p), before, "flip moved tree state");
            }
            p.check_invariants(&ctx, &[A], true).unwrap();
        }
    }
}
