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
//! **Home side.** Admission, the dirty recall, the resumed request, the
//! grant and the close are the transaction every owner-keeping directory
//! shares ([`super::home`]); this module is its Dir_iTree_k [`Family`],
//! [`Forest`].
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
use crate::dir::home::{Family, Home, HomeRow, HomeRows};
use crate::dir::util::{
    check_edges, read_fill, send, send_home, settle, wave_msg, wave_step, wb_req, write_fill,
    Collector,
};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, ProtocolKind, ProtocolParams};
use crate::types::{Addr, LineState, NodeId, OpKind};

/// A directory pointer: the root of one sharer tree and its recorded level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    pub node: NodeId,
    pub level: u32,
}

/// What a write does to the other copies (see the module docs). Static
/// policies answer [`Home::updates`] from this enum alone; only `PerBlock`
/// looks at the block's mode bit ([`Row::mode`](crate::dir::util::Row)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WritePolicy {
    Invalidate,
    Update,
    PerBlock,
}

/// The home's record of one block's forest.
#[derive(Clone, Default, PartialEq, Hash)]
pub struct Roots {
    ptrs: Vec<Option<Ptr>>,
    /// The pending writer was itself a recorded root: the grant will tell
    /// it to kill its own subtree locally.
    grant_self_root: bool,
}

/// One node's records for one block.
#[derive(Clone, Default, PartialEq, Hash)]
pub struct Rec {
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

/// The Dir_iTree_k family.
pub struct Forest {
    pointers: u32,
    arity: u32,
    params: ProtocolParams,
    policy: WritePolicy,
    /// Buffers reused instead of allocated: not protocol state, so not
    /// fingerprinted. Only the instance that was built keeps them: a
    /// clone — the model checker's copy of one state, which applies one
    /// transition and is stored — has none, so no stored state carries
    /// buffers, and one pointer is all a state pays for them.
    spares: Option<Box<Spares>>,
}

/// Emptied buffers a [`Forest`] reuses instead of allocating.
#[derive(Default)]
struct Spares {
    /// One wave's `(target, partner)` root fan-out, emptied after every
    /// use (a mutant that aliases it across waves is caught by the
    /// witness: `dirtree-check`'s `StaleWaveScratch`).
    wave: Vec<(NodeId, Option<NodeId>)>,
    /// Boxed lists for the next adopt hand-offs: a cache copies the roots
    /// it adopts into its child list and gives the message's box back
    /// here, so a read miss allocates nothing at the home once there is
    /// one box per hand-off in flight.
    // The boxes are `NodeList`'s own storage, kept whole for reuse.
    #[allow(clippy::vec_box)]
    lists: Vec<Box<Vec<NodeId>>>,
    /// Child-list buffers. A wave or a replacement that consumes a node's
    /// child edges puts the buffer here and the next node to adopt takes
    /// it, so a record holds a buffer only while it has children.
    buffers: Vec<Vec<NodeId>>,
}

impl Clone for Forest {
    fn clone(&self) -> Self {
        Forest {
            pointers: self.pointers,
            arity: self.arity,
            params: self.params,
            policy: self.policy,
            spares: None,
        }
    }
}

/// The Dir_iTree_k protocol.
pub type DirTree = Home<Forest>;

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
        Home::with(Forest {
            pointers,
            arity,
            params,
            policy,
            spares: Some(Box::default()),
        })
    }

    /// Set `addr`'s write-policy bit and nothing else — no drain check, no
    /// canonicalisation. [`Self::flip`] is the protocol's path; on its own
    /// this is the fault injector behind `DirTreeAdaptive::force_mode`.
    pub(crate) fn set_update_bit(&mut self, addr: Addr, update: bool) {
        debug_assert_eq!(self.fam.policy, WritePolicy::PerBlock);
        self.rows.row(addr).mode = update;
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
        let row = self.rows.row(addr);
        if let Some(e) = &mut row.entry {
            if e.fam.ptrs.iter().all(Option::is_none) {
                row.entry = None;
            } else {
                e.own.owner = NodeId::default();
            }
        }
        self.set_update_bit(addr, to_update);
    }

    /// The current forest for `addr`: `(root, level)` per non-null pointer,
    /// in pointer-index order (for tests, analysis cross-checks, and the
    /// tree-shape experiment).
    pub fn forest(&self, addr: Addr) -> Vec<Option<Ptr>> {
        self.rows
            .get(addr)
            .and_then(|r| r.entry.as_ref())
            .map(|e| e.fam.ptrs.clone())
            .unwrap_or_else(|| vec![None; self.fam.pointers as usize])
    }

    /// Cache-side children of `(node, addr)`.
    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.children)
    }

    /// Disbanded-subtree edges of `(node, addr)` still awaiting an
    /// acknowledged re-traversal (see `Rec::zombies`).
    pub fn zombies_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.rows.rec(node, addr).map_or(&[], |r| &r.zombies)
    }

    /// The drain predicate of a policy flip: no home transaction or
    /// deferred request, no ack collection, no deferred kill, and an entry
    /// with no write in progress and no exclusive owner — a dirty block is
    /// *not* idle, because update blocks have no exclusive state and the
    /// owner must write back first. (A recall parked in `pending_wb` needs
    /// no clause of its own: the home is recalling for as long as it
    /// exists, which [`Family::check`] pins.) The adaptive hybrid
    /// additionally requires zero in-flight messages.
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
                .is_none_or(|e| e.own.is_idle() && !e.fam.grant_self_root)
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
}

impl Forest {
    /// The write policy of a block whose mode bit `bit` reads; no lookup
    /// under a static policy.
    fn updates_if(&self, bit: impl FnOnce() -> bool) -> bool {
        let policy = self.policy;
        policy == WritePolicy::Update || policy == WritePolicy::PerBlock && bit()
    }

    /// Figure 6: insert `requester` into the forest `e`, returning the
    /// roots it must adopt as children (empty for cases 1 and 2).
    fn insert_sharer(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        e: &mut Roots,
        update: bool,
        requester: NodeId,
    ) -> NodeList {
        // Policy point 3 of 4. Update blocks merge pairs only: the k > 2
        // generalisation below never reached the update variant while it
        // was a file of its own, and `benchmark/expected.json` pins the
        // state counts that drift produces (Dir3Tree3U/P5B1, Dir3Tree3A/
        // P5B1). Unify the width only together with a re-baseline (ROADMAP).
        let width = if update { 2 } else { self.arity as usize };
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
        // roots at once (an extension; k = 2 reproduces the paper). The
        // merge starts at the first slot of the highest level that two
        // slots share.
        let level = |p: &Option<Ptr>| p.expect("a full directory").level;
        let mut merge: Option<(usize, u32)> = None; // (first slot, level)
        for (a, p) in e.ptrs.iter().enumerate() {
            let la = level(p);
            if merge.is_some_and(|(_, l)| l >= la) {
                continue;
            }
            if e.ptrs[a + 1..].iter().any(|q| level(q) == la) {
                merge = Some((a, la));
            }
        }
        let spare = self.spares.as_mut().and_then(|s| s.lists.pop());
        let mut adopt = spare.unwrap_or_default();
        if let Some((first, l)) = merge {
            let same = e.ptrs[first..].iter_mut().filter(|p| level(p) == l);
            for p in same.take(width) {
                adopt.push(p.take().expect("a full directory").node);
            }
            e.ptrs[first] = Some(Ptr {
                node: requester,
                level: l + 1,
            });
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
        adopt.push(ptr.node);
        adopt.into()
    }

    /// A received adopt list's box, emptied, back to the spares for the
    /// next hand-off.
    fn reuse(&mut self, list: NodeList) {
        if let (Some(spares), Some(mut boxed)) = (&mut self.spares, list.into_box()) {
            boxed.clear();
            spares.lists.push(boxed);
        }
    }

    /// Give a node with no child list a spare one before it adopts.
    fn lend_buffer(&mut self, children: &mut Vec<NodeId>) {
        if children.capacity() == 0 {
            if let Some(buffer) = self.spares.as_mut().and_then(|s| s.buffers.pop()) {
                *children = buffer;
            }
        }
    }

    /// A node's child edges are consumed: the list is emptied and its
    /// buffer goes to the spares.
    fn consume(&mut self, children: &mut Vec<NodeId>) {
        let mut buffer = std::mem::take(children);
        if let Some(spares) = self.spares.as_mut().filter(|_| buffer.capacity() > 0) {
            buffer.clear();
            spares.buffers.push(buffer);
        }
    }

    /// Launch one write wave from the home: a message to every root in
    /// `ptrs` except `skip`, even-numbered roots carrying their odd partner
    /// when pairing is on. Returns the number of acknowledgements the home
    /// must collect.
    fn wave_roots(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        ptrs: &[Option<Ptr>],
        skip: Option<NodeId>,
        update: bool,
    ) -> u32 {
        // The spare buffer keeps its capacity, so a write's fan-out list
        // never allocates on the hot path.
        let mut own = Vec::new();
        let sends = self.spares.as_mut().map_or(&mut own, |s| &mut s.wave);
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
        for &(dst, also) in sends.iter() {
            send(ctx, home, dst, addr, wave_msg(update, also, true));
        }
        let expected = sends.len() as u32;
        sends.clear();
        expected
    }

    /// Silently disband `(node, addr)`'s subtree: one unacknowledged
    /// `ReplaceInv` per child, with the edges moved to the zombie set so
    /// the next acknowledged wave still covers them.
    fn disband(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        rows: &mut HomeRows<Self>,
    ) {
        rows.edit(node, addr, |r| {
            for &k in &r.children {
                if !r.zombies.contains(&k) {
                    r.zombies.push(k);
                }
                send(ctx, node, k, addr, MsgKind::ReplaceInv);
            }
            self.consume(&mut r.children);
        });
    }

    /// A parent's replacement kills this live copy and, silently, its
    /// subtree.
    fn replaced(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        rows: &mut HomeRows<Self>,
    ) {
        ctx.note(ProtoEvent::ReplacementInvalidation);
        self.disband(ctx, node, addr, rows);
        ctx.set_line_state(node, addr, LineState::Iv);
    }
}

impl Family for Forest {
    type Entry = Roots;
    type Rec = Rec;
    /// The per-block write-policy bit: set while a `PerBlock` instance
    /// writes the block with updates (clear = invalidate, the default).
    /// Always clear under the two static policies.
    type Mode = bool;
    const SYMMETRIC: bool = true;

    fn kind(&self) -> ProtocolKind {
        let (pointers, arity) = (self.pointers, self.arity);
        match self.policy {
            WritePolicy::Invalidate => ProtocolKind::DirTree { pointers, arity },
            WritePolicy::Update => ProtocolKind::DirTreeUpdate { pointers, arity },
            WritePolicy::PerBlock => ProtocolKind::DirTreeAdaptive { pointers, arity },
        }
    }

    fn new_entry(&self) -> Roots {
        Roots {
            ptrs: vec![None; self.pointers as usize],
            ..Roots::default()
        }
    }

    fn is_update(&self) -> bool {
        self.policy == WritePolicy::Update
    }

    fn updates(&self, rows: &HomeRows<Self>, addr: Addr) -> bool {
        self.updates_if(|| rows.get(addr).is_some_and(|r| r.mode))
    }

    /// A recalled owner that kept its copy becomes the first root; then the
    /// reader joins through the Figure-6 insertion.
    fn serve_read(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        keep: Option<NodeId>,
        reader: NodeId,
    ) {
        let update = self.updates_if(|| row.mode);
        let e = &mut row.entry.as_mut().expect("a request made the entry").fam;
        if let Some(node) = keep {
            e.ptrs[0] = Some(Ptr { node, level: 1 });
        }
        let adopt = self.insert_sharer(ctx, e, update, reader);
        send(ctx, home, reader, addr, MsgKind::ReadReply { adopt });
    }

    fn launch_write(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        row: &mut HomeRow<Self>,
        writer: NodeId,
    ) -> u32 {
        // Policy point 1 of 4: which wave this write launches.
        let update = self.updates_if(|| row.mode);
        let e = &mut row.entry.as_mut().expect("a request made the entry").fam;
        if update {
            // Every recorded copy is refreshed, the writer's included.
            return self.wave_roots(ctx, home, addr, &e.ptrs, None, true);
        }
        // The wave consumes the forest. A root that is the writer itself is
        // skipped: the grant tells it to kill its own subtree locally (it
        // holds the child pointers; an `Inv` would only bounce back to it).
        e.grant_self_root = e.ptrs.iter().flatten().any(|p| p.node == writer);
        let acks = self.wave_roots(ctx, home, addr, &e.ptrs, Some(writer), false);
        e.ptrs.fill(None);
        acks
    }

    fn clear(e: &mut Roots) -> bool {
        e.ptrs.fill(None);
        std::mem::take(&mut e.grant_self_root)
    }

    /// An update writer keeps a valid copy, so it joins the forest like
    /// any other sharer.
    fn update_grant(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        row: &mut HomeRow<Self>,
        writer: NodeId,
    ) -> MsgKind {
        let e = &mut row.entry.as_mut().expect("grant without entry").fam;
        let adopt = self.insert_sharer(ctx, e, true, writer);
        MsgKind::UpdateGrant { adopt }
    }

    fn park_recall(r: &mut Rec, for_op: OpKind, requester: NodeId) {
        r.pending_wb = Some((for_op, requester));
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
            // A forwarded wave message was acknowledged ([`settle`]). A
            // write that finished killing its own subtree serves the recall
            // it parked.
            MsgKind::InvAck { dir: false } | MsgKind::UpdateAck { dir: false } => {
                let update = matches!(msg.kind, MsgKind::UpdateAck { .. });
                let parked = rows.edit(node, addr, |r| {
                    let wrote = settle(ctx, node, addr, update, &mut r.collector);
                    r.pending_wb.take_if(|_| wrote)
                });
                if let Some((for_op, requester)) = parked {
                    debug_assert_eq!(ctx.line_state(node, addr), LineState::E);
                    debug_assert!(rows.rec(node, addr).is_none_or(|r| r.children.is_empty()));
                    wb_req(ctx, node, addr, for_op, requester);
                }
            }
            MsgKind::ReadReply { adopt } => {
                debug_assert!(
                    rows.rec(node, addr).is_none_or(|r| r.children.is_empty()),
                    "filling a line that still owns children"
                );
                debug_assert!(adopt.len() <= self.arity as usize);
                if !adopt.is_empty() {
                    rows.edit(node, addr, |r| {
                        self.lend_buffer(&mut r.children);
                        r.children.extend_from_slice(&adopt);
                    });
                    self.reuse(adopt);
                }
                read_fill(ctx, node, addr);
            }
            // The update writer's grant: adopt the roots the home handed
            // over and keep a *valid* (not exclusive) copy.
            MsgKind::UpdateGrant { adopt } => {
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
                let killed = rows.edit(node, addr, |r| {
                    if !adopt.is_empty() {
                        self.lend_buffer(&mut r.children);
                    }
                    for &a in adopt.iter() {
                        if !r.children.contains(&a) && a != node {
                            r.children.push(a);
                        }
                    }
                    std::mem::take(&mut r.kill)
                });
                self.reuse(adopt);
                if killed {
                    // A `Replace_INV` raced this grant (below). The write
                    // itself is done — the home applied the value when it
                    // processed the request — but the local copy must go the
                    // way the kill intended, or it stays valid yet
                    // unreachable from the roots. Adoption came first so
                    // adopted subtrees get their own kills.
                    self.replaced(ctx, node, addr, rows);
                } else {
                    ctx.set_line_state(node, addr, LineState::V);
                }
                ctx.complete(node, addr, OpKind::Write);
            }
            MsgKind::WriteReply { kill_self_subtree } => rows.edit(node, addr, |r| {
                // Without `kill_self_subtree`, any children the writer had
                // were killed when the invalidation reached it through the
                // forest (before its subtree acked, hence before this
                // grant).
                debug_assert!(kill_self_subtree || r.children.is_empty());
                // A subtree this writer disbanded earlier (silent
                // replacement, then re-miss) may still have its
                // `ReplaceInv`s in flight: re-kill it with acknowledged
                // invalidations so the write cannot complete first. The
                // edges are killed from where they are kept, then dropped.
                if kill_self_subtree {
                    with_zombies(&mut r.children, &mut r.zombies);
                    write_fill(ctx, node, addr, &mut r.collector, &r.children);
                    self.consume(&mut r.children);
                } else {
                    write_fill(ctx, node, addr, &mut r.collector, &r.zombies);
                    r.zombies.clear();
                }
            }),
            // One step of a write wave at a cache ([`wave_step`]). An `Inv`
            // kills the copy and consumes its child edges; an `Update`
            // refreshes the copy in place and keeps them. Both consume the
            // zombie edges: FIFO puts this message behind the `Replace_INV`
            // on the same pair, so its ack proves the disbanded subtree
            // processed its kill.
            MsgKind::Inv { .. } | MsgKind::Update { .. } => rows.edit(node, addr, |r| {
                let update = matches!(msg.kind, MsgKind::Update { .. });
                // A stale target (no copy) has no children, but its zombie
                // edges and its pairing duty are still owed. An upgrading
                // writer (`WmIp`) loses its old copy's subtree to an `Inv`
                // and keeps it under an `Update`. The wave goes down the
                // child list itself, lent with the zombie edges appended;
                // afterwards the list is cut back to the children it keeps.
                let Rec {
                    children,
                    zombies,
                    collector,
                    ..
                } = r;
                let mut own = None;
                let (lent, own_len) = (&mut *children, &mut own);
                wave_step(ctx, node, &msg, collector, move |state| {
                    // Moved out of the closure, so the slice it returns
                    // borrows the list itself, not the closure.
                    let lent: &mut Vec<NodeId> = lent;
                    debug_assert!(
                        matches!(state, LineState::V | LineState::WmIp | LineState::WmLip)
                            || lent.is_empty(),
                        "a dead copy still owns children"
                    );
                    *own_len = Some(lent.len());
                    with_zombies(lent, zombies);
                    &lent[..]
                });
                match own {
                    Some(own) if update => children.truncate(own),
                    Some(_) => self.consume(children),
                    None => {}
                }
            }),
            MsgKind::ReplaceInv => match ctx.line_state(node, addr) {
                LineState::V => self.replaced(ctx, node, addr, rows),
                // Policy point 2 of 4. On an update block the kill crossed
                // our in-flight grant: the parent edge that led here is gone
                // (an update wave consumes it as a zombie), so the copy the
                // grant is about to validate would be unreachable from the
                // roots. Ignoring the kill would leak a live orphan; defer
                // it to grant time instead. An invalidate grant makes the
                // line exclusive, which is no longer the copy the stale
                // parent meant.
                LineState::WmIp if self.updates(rows, addr) => {
                    rows.edit(node, addr, |r| r.kill = true);
                }
                // Any other transient, invalid or exclusive line is not the
                // copy the stale parent thought it was killing.
                _ => {}
            },
            MsgKind::ReplNotify => {
                // Ablation policy E12: clear a stale root pointer eagerly.
                if let Some(e) = &mut rows.row(addr).entry {
                    for p in e.fam.ptrs.iter_mut() {
                        if p.map(|q| q.node) == Some(msg.src) {
                            *p = None;
                        }
                    }
                }
            }
            other => unreachable!("Dir_iTree_k received {other:?}"),
        }
    }

    fn evict(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        state: LineState,
        rows: &mut HomeRows<Self>,
    ) {
        match state {
            LineState::V => {
                self.disband(ctx, node, addr, rows);
                if !self.params.dir_tree_silent_replace {
                    send_home(ctx, node, addr, MsgKind::ReplNotify);
                }
            }
            // Policy point 4 of 4: an update block has no exclusive state
            // (memory is always current), so only an invalidate block can
            // be evicting one.
            LineState::E if !self.updates(rows, addr) => {
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

    fn collecting(r: &Rec) -> bool {
        r.collector.is_some()
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
    ///   home waiting for it ([`Owner::recalling`](crate::dir::util::Owner::recalling))
    ///   — what lets `DirTree::flip_idle` read the entry alone;
    /// * an update block has no exclusive copy.
    ///
    /// Checked only at **quiescence** (no message in flight — mid-
    /// transaction these are legitimately violated, e.g. while a recalled
    /// owner's data is on the wire):
    /// * no deferred kill is left open;
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
    fn check(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
        rows: &HomeRows<Self>,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        for (addr, row) in rows.iter() {
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
                if quiescent && r.kill {
                    return Err(format!(
                        "quiescent but deferred kill at {node} for {addr:#x}"
                    ));
                }
            }
            let Some(e) = &row.entry else {
                continue;
            };
            if e.fam.ptrs.len() != self.pointers as usize {
                return Err(format!(
                    "directory entry for {addr:#x} has {} pointer slots, expected {}",
                    e.fam.ptrs.len(),
                    self.pointers
                ));
            }
            let roots: Vec<Ptr> = e.fam.ptrs.iter().flatten().copied().collect();
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
            if self.updates(rows, addr) {
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
        for &addr in addrs {
            let row = rows.get(addr);
            let e = row.and_then(|r| r.entry.as_ref());
            if let Some(e) = e.filter(|e| e.own.dirty) {
                if e.fam.ptrs.iter().any(Option::is_some) {
                    return Err(format!("dirty block {addr:#x} still records roots"));
                }
                let has_edges = |pick: fn(&Rec) -> &Vec<NodeId>| {
                    row.is_some_and(|r| r.nodes.iter().any(|(_, r)| !pick(r).is_empty()))
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
                .map(|e| e.fam.ptrs.iter().flatten().map(|p| p.node).collect())
                .unwrap_or_default();
            while let Some(n) = frontier.pop() {
                if std::mem::replace(&mut reachable[n as usize], true) {
                    continue;
                }
                if let Some(r) = rows.rec(n, addr) {
                    frontier.extend_from_slice(&r.children);
                    frontier.extend_from_slice(&r.zombies);
                }
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

    /// Every decision the protocol makes — slot selection, level
    /// comparison, wave pairing (even/odd slots), push-down target — is a
    /// function of slot indices and levels, never of node-id magnitude, so
    /// element-wise mapping of ids (preserving slot and edge-list order) is
    /// an exact equivariance.
    fn relabel_entry(e: &Roots, perm: &[NodeId]) -> Roots {
        let node = |n: NodeId| perm[n as usize];
        let ptrs = e.ptrs.iter().map(|p| {
            p.map(|p| Ptr {
                node: node(p.node),
                ..p
            })
        });
        Roots {
            ptrs: ptrs.collect(),
            ..*e
        }
    }

    fn relabel_rec(r: &Rec, perm: &[NodeId]) -> Rec {
        let nodes = |v: &[NodeId]| v.iter().map(|&n| perm[n as usize]).collect();
        Rec {
            children: nodes(&r.children),
            zombies: nodes(&r.zombies),
            collector: r.collector.as_ref().map(|c| c.relabeled(perm)),
            pending_wb: r.pending_wb.map(|(op, req)| (op, perm[req as usize])),
            kill: r.kill,
        }
    }
}

/// Append to `kids` every zombie edge not among them; the zombie edges
/// are consumed (an acknowledged wave is about to re-traverse them).
fn with_zombies(kids: &mut Vec<NodeId>, zombies: &mut Vec<NodeId>) {
    for z in zombies.drain(..) {
        if !kids.contains(&z) {
            kids.push(z);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, ProtocolParams};
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
        fn update_wave_keeps_child_lists_in_order_and_consumes_only_zombies() {
            let mut p = update_tree(2);
            let mut ctx = MockCtx::new(32);
            // 6 -> {3, 5}, 3 -> {1, 2}, 5 -> {4}, then a seventh root.
            for n in 1..=7 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(6, A), &[3, 5]);
            // 3 is replaced (its edges to 1 and 2 become zombie edges) and
            // re-reads: the push-down hands it 7, so it holds child and
            // zombie edges at once, and 6 keeps a stale edge to it.
            ctx.evict(&mut p, 3, A);
            ctx.read(&mut p, 3, A);
            assert_eq!(
                (p.children_of(3, A), p.zombies_of(3, A)),
                (&[7][..], &[1, 2][..])
            );
            let children = |p: &DirTree| -> Vec<Vec<NodeId>> {
                (0..32).map(|n| p.children_of(n, A).to_vec()).collect()
            };
            let before = children(&p);
            do_write(&mut ctx, &mut p, 9);
            let after = children(&p);
            for n in (0..32).filter(|&n| n != 9) {
                assert_eq!(after[n as usize], before[n as usize], "children of {n}");
            }
            assert!((0..32).all(|n| p.zombies_of(n, A).is_empty()));
            for n in [3, 4, 5, 6, 7] {
                assert_eq!(ctx.line_state(n, A), LineState::V, "node {n} refreshed");
            }
            p.check_invariants(&ctx, &[A], true).unwrap();
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
