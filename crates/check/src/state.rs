//! One explored state: a protocol instance plus its [`CheckCtx`], with the
//! enabled-choice enumeration and the transition function.
//!
//! A **choice** is one atomic step of the abstract machine:
//!
//! * `Deliver { src, dst }` — pop the head of one network channel and run
//!   the protocol handler at the destination.
//! * `Local { node }` — pop the head of a node's redelivery queue (gate
//!   wake-ups, self-messages).
//! * `Op { node, op }` — a processor issues a read, write, or replacement.
//!
//! Completions the protocol announces (`ProtoCtx::complete`) retire
//! *synchronously* at the end of the triggering choice — this is where
//! the witness checks fire. The simulator schedules `OpDone` only
//! `CACHE_LATENCY` after the fill, before any causally-subsequent
//! network delivery can land at the node; modeling retirement as a
//! separate, arbitrarily-delayed choice would explore interleavings the
//! event queue cannot produce (e.g. a `WbReq` downgrading a just-granted
//! writer before its completion check) and false-positive the witness.
//!
//! The witness is copy-on-write. A clone shares its original's
//! [`Verifier`](dirtree_core::verify::Verifier) behind an `Arc`, and the
//! only steps that change it — retiring a completion, and a write hit —
//! copy it first with `Arc::make_mut` (`retire`, `write_completed`). So the
//! successors of one state share one witness until one of them completes
//! an operation, and a delivery that retires nothing copies none.
//!
//! Every applied choice ends with [`CheckState::post_check`]: witness
//! errors, protocol-flagged misbehavior, deadlock (a blocked processor
//! with nothing in flight anywhere), protocol structural invariants, and —
//! at quiescence — the stale-survivor sweep.

use crate::ctx::CheckCtx;
use dirtree_core::protocol::Protocol;
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use std::sync::Arc;

/// A processor action at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcOp {
    Read(Addr),
    Write(Addr),
    /// Voluntary replacement of a stable (`V`/`E`) line — the checker has
    /// no cache capacity, so replacement is an explicit choice.
    Evict(Addr),
}

/// One atomic transition of the abstract machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Choice {
    Deliver { src: NodeId, dst: NodeId },
    Local { node: NodeId },
    Op { node: NodeId, op: ProcOp },
}

/// The most nodes a symmetry group may move. A group that moves `m` nodes
/// has `m!` elements, each listed as its own table, so no group the
/// explorer can build comes near this.
const MAX_FREE_NODES: usize = 16;

/// Which nodes a symmetry group moves — a property of the group, found once
/// per exploration beside its permutations rather than once per
/// canonicalization.
#[derive(Default)]
pub(crate) struct FreeNodes {
    /// `fixed[i]`: every permutation leaves node `i` in place.
    fixed: Vec<bool>,
    /// The nodes some permutation moves, ascending.
    nodes: Vec<NodeId>,
    /// `slot[i]`: the index of free node `i` in `nodes` (0 for fixed ones).
    slot: Vec<usize>,
}

impl FreeNodes {
    /// The split of `perms`; empty for the trivial group, whose
    /// canonicalization is the plain digest and never reads it.
    pub(crate) fn of(perms: &[Vec<NodeId>]) -> Self {
        if perms.len() == 1 {
            return Self::default();
        }
        let n = perms[0].len();
        let fixed: Vec<bool> = (0..n)
            .map(|i| perms.iter().all(|p| p[i] as usize == i))
            .collect();
        let nodes: Vec<NodeId> = (0..n as NodeId).filter(|&i| !fixed[i as usize]).collect();
        assert!(
            nodes.len() <= MAX_FREE_NODES,
            "a symmetry group moving {} nodes cannot have been listed",
            nodes.len()
        );
        let mut slot = vec![0; n];
        for (k, &i) in nodes.iter().enumerate() {
            slot[i as usize] = k;
        }
        Self { fixed, nodes, slot }
    }
}

/// A protocol instance embedded in the abstract machine.
pub struct CheckState {
    pub ctx: CheckCtx,
    pub proto: Box<dyn Protocol>,
}

impl Clone for CheckState {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx.clone(),
            proto: self.proto.boxed_clone(),
        }
    }
}

impl CheckState {
    /// The initial state over the blocks `addrs` (strictly ascending, as
    /// [`CheckConfig::addrs`](crate::explore::CheckConfig::addrs) makes
    /// them); every state derived from it shares the one copy.
    pub fn new(nodes: u32, fuel: u32, addrs: Vec<Addr>, proto: Box<dyn Protocol>) -> Self {
        Self {
            ctx: CheckCtx::new(nodes, fuel, addrs.into()),
            proto,
        }
    }

    pub fn addrs(&self) -> &[Addr] {
        self.ctx.addrs()
    }

    /// Canonical digest of the complete state (context + protocol).
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = dirtree_sim::hash::FxHasher::default();
        self.ctx.digest(&mut h);
        self.proto.fingerprint(&mut h);
        h.finish()
    }

    /// The state with every node id mapped through `perm`, or `None` if
    /// the protocol does not certify equivariance
    /// ([`Protocol::relabeled`]). Symmetry-reduction support.
    pub fn relabeled(&self, perm: &[NodeId]) -> Option<CheckState> {
        let proto = self.proto.relabeled(perm)?;
        Some(CheckState {
            ctx: self.ctx.relabeled(perm),
            proto,
        })
    }

    /// Canonicalize this state (and a concrete-coordinates sleep mask)
    /// over a symmetry group by **sorting, not by trying every
    /// permutation**. `perms` is what
    /// [`home_fixing_perms`](dirtree_core::fingerprint::home_fixing_perms)
    /// returns: the identity first, then every other permutation of the
    /// nodes the group moves (the *free* nodes; a node is *fixed* when
    /// every element of `perms` leaves it in place). Returns `(digest,
    /// argmin index, canonical mask)`.
    ///
    /// Every free node gets a node-id-free signature
    /// ([`CheckCtx::node_signature`]). A permutation `π` is *admissible*
    /// when the relabeled state's signatures come out sorted over the free
    /// positions — for all free `a`, `b`: `π[a] < π[b] ⇒ sig[a] ≤ sig[b]`.
    /// A sorting permutation always exists, and nodes with equal
    /// signatures can be ordered either way, so there is one admissible
    /// permutation per ordering of the ties. Only those are relabeled and
    /// digested: the canonical digest is the minimum ordinary digest over
    /// the admissible permutations, `argmin` indexes the first one in
    /// `perms` that achieves it, and the canonical mask is the
    /// **intersection** of the mask's images under *every* admissible
    /// permutation achieving it.
    ///
    /// Why this is the same quotient and the same sleep sets as taking the
    /// minimum over the whole group:
    ///
    /// * *Exact orbit representative.* The signature is equivariant:
    ///   `sig_{σ(s)}(σ(i)) = sig_s(i)` for every `σ` in the group. So `π`
    ///   is admissible for `σ(s)` iff `π∘σ` is admissible for `s`, both
    ///   give the same image, and `s` and `σ(s)` have the same *set* of
    ///   admissible images — hence the same minimum. Two states get equal
    ///   canonical digests iff they are in one orbit (64-bit digest
    ///   collisions aside), exactly as before; only which member of the
    ///   orbit represents it changed.
    /// * *The minimisers are still a whole coset.* Let `π₀` be an
    ///   admissible minimiser with image `c`. Any `π` with `π(s) = c` is
    ///   `α∘π₀` for an automorphism `α` of `c`; its image is `c`, whose
    ///   signatures are sorted, so it is admissible too. The permutations
    ///   tying at the minimum are therefore all of `{π : π(s) = c}`, as
    ///   they were when every permutation was tried.
    /// * *Same concrete sleep mask.* Intersecting the mask's images over
    ///   that coset is invariant under `c`'s automorphisms — so *any*
    ///   arrival at this canonical class can translate the stored mask
    ///   back through its own `argmin` inverse and get a consistent (and,
    ///   being an intersection, conservative) sleep set — and mapping it
    ///   back through any minimiser's inverse gives the intersection of
    ///   the mask's images under the automorphisms of `s` itself, which
    ///   does not depend on the representative. Without the intersection,
    ///   automorphic states would have to fall back to a full expansion,
    ///   which guts the sleep-set reduction at P = 4 where
    ///   lightly-differentiated states (several idle, interchangeable
    ///   processors) dominate.
    ///
    /// A signature collision between two different nodes only adds a tie
    /// (one more permutation tried), never unsoundness; a signature that
    /// distinguishes nothing degrades to the full enumeration.
    ///
    /// Panics if the protocol does not certify [`Protocol::relabeled`]
    /// and `perms` has more than the identity (the explorer only builds a
    /// nontrivial group after probing the protocol), or if `perms` is not
    /// the full symmetric group on the nodes it moves (no permutation
    /// sorts).
    pub fn canonicalize(&self, perms: &[Vec<NodeId>], mask: u64) -> (u64, usize, u64) {
        let (canonical, _tried) = self.canonicalize_counted(perms, &FreeNodes::of(perms), mask);
        canonical
    }

    /// [`canonicalize`](Self::canonicalize) over a group whose free nodes
    /// `free` has already found, plus the number of permutations it
    /// relabeled and digested (the identity counts). Allocates nothing but
    /// the relabeled copies.
    pub(crate) fn canonicalize_counted(
        &self,
        perms: &[Vec<NodeId>],
        free: &FreeNodes,
        mask: u64,
    ) -> ((u64, usize, u64), u64) {
        if perms.len() == 1 {
            return ((self.digest(), 0, mask), 1);
        }
        // Signatures and their images by slot in `free.nodes`: the group
        // maps free nodes to free nodes, and the slots are in node order.
        let m = free.nodes.len();
        let mut sig = [0u64; MAX_FREE_NODES];
        for (s, &i) in sig.iter_mut().zip(&free.nodes) {
            *s = self.ctx.node_signature(i, &free.fixed);
        }
        let mut image = [0u64; MAX_FREE_NODES];
        let mut best = u64::MAX;
        let mut argmin = usize::MAX;
        let mut canon_mask = u64::MAX;
        let mut tried = 0u64;
        for (i, perm) in perms.iter().enumerate() {
            for (&s, &from) in sig.iter().zip(&free.nodes) {
                image[free.slot[perm[from as usize] as usize]] = s;
            }
            let admissible = image[..m].windows(2).all(|w| w[0] <= w[1]);
            if !admissible {
                continue;
            }
            tried += 1;
            let d = if i == 0 {
                self.digest()
            } else {
                self.relabeled(perm)
                    .expect("symmetry group built for a protocol without relabeled()")
                    .digest()
            };
            if argmin == usize::MAX || d < best {
                best = d;
                argmin = i;
                canon_mask = self.map_mask(mask, perm);
            } else if d == best {
                canon_mask &= self.map_mask(mask, perm);
            }
        }
        assert!(
            tried > 0,
            "no permutation sorts the node signatures: `perms` is not the full \
             symmetric group on the nodes it moves"
        );
        ((best, argmin, canon_mask), tried)
    }

    /// The `(executing node, block)` footprint of a choice in this state:
    /// the node whose controller runs and the single address whose
    /// protocol/witness state the step may touch. Two choices with
    /// different nodes *and* different blocks commute for protocols that
    /// certify [`Protocol::deliveries_commute`].
    pub fn choice_footprint(&self, choice: Choice) -> (NodeId, Addr) {
        match choice {
            Choice::Deliver { src, dst } => {
                let m = self
                    .ctx
                    .peek_channel(src, dst)
                    .expect("footprint of a Deliver on an empty channel");
                (dst, m.addr)
            }
            Choice::Local { node } => {
                let m = self
                    .ctx
                    .peek_local(node)
                    .expect("footprint of a Local on an empty queue");
                (node, m.addr)
            }
            Choice::Op { node, op } => match op {
                ProcOp::Read(a) | ProcOp::Write(a) | ProcOp::Evict(a) => (node, a),
            },
        }
    }

    /// Total number of distinct sleep-mask bit positions for this shape
    /// (`n²` channels + `n` local queues + `n·|addrs|·3` processor ops).
    /// The explorer disables the sleep-set reduction when this exceeds
    /// [`SLEEP_MASK_BITS`](crate::explore::SLEEP_MASK_BITS).
    pub fn sleep_bits(&self) -> u32 {
        let n = self.ctx.nodes();
        n * n + n + n * self.addrs().len() as u32 * 3
    }

    /// Stable bit position identifying a choice in a sleep mask. The
    /// encoding names the *queue or op slot*, not the message: a sleeping
    /// `Deliver{src,dst}` bit keeps denoting the same head message because
    /// only that very choice can pop the channel (appends land behind the
    /// head), and likewise for `Local`.
    pub fn choice_bit(&self, choice: Choice) -> u32 {
        let n = self.ctx.nodes();
        match choice {
            Choice::Deliver { src, dst } => src * n + dst,
            Choice::Local { node } => n * n + node,
            Choice::Op { node, op } => {
                let (addr, kind) = match op {
                    ProcOp::Read(a) => (a, 0),
                    ProcOp::Write(a) => (a, 1),
                    ProcOp::Evict(a) => (a, 2),
                };
                let a_idx = self
                    .addrs()
                    .iter()
                    .position(|&a| a == addr)
                    .expect("op on an address outside the configured set")
                    as u32;
                n * n + n + (node * self.addrs().len() as u32 + a_idx) * 3 + kind
            }
        }
    }

    /// Map a sleep mask through a node relabeling: each set bit is decoded
    /// to its choice slot, the slot's node ids are mapped through `perm`,
    /// and the bit is re-encoded. Block indices and op kinds are fixed
    /// points (the symmetry group never moves addresses).
    pub fn map_mask(&self, mask: u64, perm: &[NodeId]) -> u64 {
        if mask == 0 {
            return 0;
        }
        let n = self.ctx.nodes();
        let na = self.addrs().len() as u32;
        let mut out = 0u64;
        let mut rest = mask;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            let new_bit = if bit < n * n {
                let (src, dst) = (bit / n, bit % n);
                perm[src as usize] * n + perm[dst as usize]
            } else if bit < n * n + n {
                n * n + perm[(bit - n * n) as usize]
            } else {
                let idx = bit - n * n - n;
                let (slot, kind) = (idx / 3, idx % 3);
                let (node, a_idx) = (slot / na, slot % na);
                n * n + n + (perm[node as usize] * na + a_idx) * 3 + kind
            };
            out |= 1u64 << new_bit;
        }
        out
    }

    /// Every choice enabled in this state, in a fixed deterministic order
    /// (channels by (src, dst), then locals, and processor ops by node and
    /// block).
    pub fn enabled_choices(&self) -> Vec<Choice> {
        let n = self.ctx.nodes();
        let mut out = Vec::new();
        // One walk over the messages in flight: a queue's number is its
        // choice's sleep-mask bit, channels first.
        for q in self.ctx.busy_queues() {
            out.push(if q < n * n {
                Choice::Deliver {
                    src: q / n,
                    dst: q % n,
                }
            } else {
                Choice::Local { node: q - n * n }
            });
        }
        for (node, p) in (0..n).zip(&self.ctx.procs) {
            if p.outstanding.is_some() || p.fuel == 0 {
                continue;
            }
            for &addr in self.addrs() {
                let st = self.line_state(node, addr);
                // A transient line would only make the machine retry the
                // op — a no-op loop the exploration can skip.
                if !st.transient() {
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Read(addr),
                    });
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Write(addr),
                    });
                }
                if matches!(st, LineState::V | LineState::E) {
                    out.push(Choice::Op {
                        node,
                        op: ProcOp::Evict(addr),
                    });
                }
            }
        }
        out
    }

    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        use dirtree_core::ctx::ProtoCtx;
        self.ctx.line_state(node, addr)
    }

    /// Apply one choice. `Err` carries the violation that makes the
    /// resulting state a counterexample endpoint.
    pub fn apply(&mut self, choice: Choice) -> Result<(), String> {
        self.ctx.now += 1;
        match choice {
            Choice::Deliver { src, dst } => {
                let msg = self
                    .ctx
                    .pop_channel(src, dst)
                    .expect("Deliver choice on an empty channel");
                self.proto.handle(&mut self.ctx, dst, msg);
            }
            Choice::Local { node } => {
                let msg = self
                    .ctx
                    .pop_local(node)
                    .expect("Local choice on an empty queue");
                self.proto.handle(&mut self.ctx, node, msg);
            }
            Choice::Op { node, op } => self.issue(node, op)?,
        }
        // Retire whatever the handler completed before anything else can
        // happen (see the module docs on why this is synchronous).
        for node in 0..self.ctx.nodes() {
            if self.ctx.procs[node as usize].completion.is_some() {
                self.retire(node)?;
            }
        }
        self.post_check()
    }

    /// Retire a completion the protocol announced — the checker's
    /// equivalent of the simulator's `OpDone` event.
    fn retire(&mut self, node: NodeId) -> Result<(), String> {
        let p = &mut self.ctx.procs[node as usize];
        let (addr, op) = p
            .completion
            .take()
            .expect("retire without a pending completion");
        match p.outstanding.take() {
            Some((a, o)) if a == addr && o == op => {}
            other => {
                return Err(format!(
                    "protocol completed ({addr:#x}, {op:?}) at node {node} but the \
                     outstanding access was {other:?}"
                ))
            }
        }
        match op {
            OpKind::Read => Arc::make_mut(&mut self.ctx.verifier).on_read_fill(node, addr),
            OpKind::Write => self.write_completed(node, addr)?,
        }
        self.proto.note_op_retired(node, addr, op);
        Ok(())
    }

    /// Tell the witness a write by `node` completed — a retired miss or a
    /// write hit. The witness is shared with the parent state and the
    /// siblings until here: `Arc::make_mut` copies it for this state alone.
    fn write_completed(&mut self, node: NodeId, addr: Addr) -> Result<(), String> {
        let others = self.ctx.other_holders(addr, node);
        let update = self.proto.is_update_for(addr);
        let witness = Arc::make_mut(&mut self.ctx.verifier);
        if update {
            witness.on_write_complete_update(node, addr, &others);
            Ok(())
        } else {
            witness
                .on_write_complete(node, addr, &others)
                .map_err(|v| v.to_string())
        }
    }

    /// A processor issues one operation, mirroring the machine's
    /// `issue_access` hit/upgrade/miss split.
    fn issue(&mut self, node: NodeId, op: ProcOp) -> Result<(), String> {
        debug_assert!(self.ctx.procs[node as usize].outstanding.is_none());
        self.ctx.procs[node as usize].fuel -= 1;
        match op {
            ProcOp::Read(addr) => {
                let st = self.line_state(node, addr);
                if st.readable() {
                    if self.proto.wants_read_hits() {
                        self.proto.note_read_hit(node, addr);
                    }
                    self.ctx
                        .verifier
                        .on_read_hit(node, addr)
                        .map_err(|v| v.to_string())?;
                } else {
                    self.ctx.set_line(node, addr, LineState::RmIp);
                    self.ctx.procs[node as usize].outstanding = Some((addr, OpKind::Read));
                    self.proto
                        .start_miss(&mut self.ctx, node, addr, OpKind::Read);
                }
            }
            ProcOp::Write(addr) => {
                let st = self.line_state(node, addr);
                if st.writable() {
                    self.write_completed(node, addr)?;
                } else {
                    // Upgrade (V) and genuine miss share the same entry
                    // point, exactly like the machine.
                    self.ctx.set_line(node, addr, LineState::WmIp);
                    self.ctx.procs[node as usize].outstanding = Some((addr, OpKind::Write));
                    self.proto
                        .start_miss(&mut self.ctx, node, addr, OpKind::Write);
                }
            }
            ProcOp::Evict(addr) => {
                let st = self
                    .ctx
                    .remove_line(node, addr)
                    .expect("Evict choice on a non-resident line");
                debug_assert!(matches!(st, LineState::V | LineState::E));
                self.proto.evict(&mut self.ctx, node, addr, st);
            }
        }
        Ok(())
    }

    /// Checks that run after every transition (and once on the root).
    pub fn post_check(&mut self) -> Result<(), String> {
        if let Some(e) = self.ctx.flagged.take() {
            return Err(e);
        }
        let pending = self.ctx.has_pending_event();
        let quiescent = self.ctx.quiescent();
        if !pending && !quiescent {
            let blocked: Vec<(NodeId, (Addr, OpKind))> = self
                .ctx
                .procs
                .iter()
                .enumerate()
                .filter_map(|(n, p)| p.outstanding.map(|o| (n as NodeId, o)))
                .collect();
            return Err(format!(
                "deadlock: processors {blocked:?} blocked with no message or \
                 completion in flight anywhere"
            ));
        }
        if quiescent {
            self.ctx
                .verifier
                .on_finish(self.ctx.survivors().into_iter())
                .map_err(|v| format!("at quiescence: {v}"))?;
        }
        self.proto
            .check_invariants(&self.ctx, self.ctx.addrs(), quiescent)
            .map_err(|e| format!("invariant violation: {e}"))
    }

    /// Human-readable description of `choice` as it would apply to *this*
    /// state (peeks at channel heads to name the message involved).
    pub fn describe(&self, choice: Choice) -> String {
        match choice {
            Choice::Deliver { src, dst } => match self.ctx.peek_channel(src, dst) {
                Some(m) => format!(
                    "deliver {src} -> {dst}: {} addr {:#x}",
                    m.kind.label(),
                    m.addr
                ),
                None => format!("deliver {src} -> {dst}: <empty>"),
            },
            Choice::Local { node } => match self.ctx.peek_local(node) {
                Some(m) => format!(
                    "local wake-up at {node}: {} addr {:#x}",
                    m.kind.label(),
                    m.addr
                ),
                None => format!("local wake-up at {node}: <empty>"),
            },
            Choice::Op { node, op } => match op {
                ProcOp::Read(a) => format!("proc {node} read {a:#x}"),
                ProcOp::Write(a) => format!("proc {node} write {a:#x}"),
                ProcOp::Evict(a) => format!("proc {node} evict {a:#x}"),
            },
        }
    }
}

/// The canonicalization this module used to have — the minimum ordinary
/// digest over *every* permutation of the group — kept as the oracle the
/// sorting rule is checked against.
#[cfg(test)]
impl CheckState {
    fn canonicalize_min_over_group(&self, perms: &[Vec<NodeId>], mask: u64) -> (u64, usize, u64) {
        if perms.len() == 1 {
            return (self.digest(), 0, mask);
        }
        let mut digests = Vec::with_capacity(perms.len());
        digests.push(self.digest());
        for perm in &perms[1..] {
            digests.push(
                self.relabeled(perm)
                    .expect("symmetry group built for a protocol without relabeled()")
                    .digest(),
            );
        }
        let best = *digests.iter().min().expect("identity is always present");
        let mut argmin = usize::MAX;
        let mut canon_mask = u64::MAX;
        for (i, &d) in digests.iter().enumerate() {
            if d == best {
                if argmin == usize::MAX {
                    argmin = i;
                }
                canon_mask &= self.map_mask(mask, &perms[i]);
            }
        }
        (best, argmin, canon_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::CheckConfig;
    use dirtree_core::ctx::ProtoCtx;
    use dirtree_core::fingerprint::{home_fixing_perms, invert_perm};
    use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
    use dirtree_sim::{FxHashMap, SimRng};

    /// Lock step against the min-over-group oracle on seeded random walks
    /// (back to the root on quiescence) over the symmetric `check_mix`
    /// shapes, a two-block P=4 shape where sleep masks are not empty, and
    /// LimitLESS. At every step:
    ///
    /// * **orbit invariance** — every `σ(s)` canonicalizes to the digest
    ///   `s` does;
    /// * **same partition** — two visited states get equal new canonical
    ///   digests iff they got equal old ones;
    /// * **same concrete sleep mask** — a random non-empty mask, made
    ///   canonical and mapped back through `argmin`'s inverse, reads the
    ///   same under both rules.
    ///
    /// Fails when `node_signature` mixes in the node's own id (the first
    /// and the third) and when the mask is intersected over the first
    /// minimiser only (the third).
    #[test]
    fn sorting_canonicalization_matches_min_over_group_in_lock_step() {
        let tree = |pointers, arity| ProtocolKind::DirTreeUpdate { pointers, arity };
        let shapes = [
            (tree(1, 2), 3, 1, 1),
            (tree(3, 3), 5, 1, 1),
            (
                ProtocolKind::DirTreeAdaptive {
                    pointers: 3,
                    arity: 3,
                },
                5,
                1,
                1,
            ),
            (ProtocolKind::FullMap, 4, 2, 4),
            (ProtocolKind::LimitLess { pointers: 2 }, 4, 1, 1),
        ];
        for (seed, (kind, nodes, blocks, stride)) in shapes.into_iter().enumerate() {
            let name = format!("{} P={nodes} B={blocks}", kind.name());
            let cfg = CheckConfig {
                addr_stride: stride,
                ..CheckConfig::small(nodes, blocks)
            };
            let root = CheckState::new(
                nodes,
                cfg.fuel,
                cfg.addrs(),
                build_protocol(kind, ProtocolParams::default()),
            );
            let homes: Vec<NodeId> = root.addrs().iter().map(|&a| root.ctx.home_of(a)).collect();
            let perms = home_fixing_perms(nodes, &homes);
            assert!(perms.len() > 1, "{name}: trivial group");
            let inverses: Vec<Vec<NodeId>> = perms.iter().map(|p| invert_perm(p)).collect();
            let slots = (1u64 << root.sleep_bits()) - 1;
            let mut rng = SimRng::new(1996 + seed as u64);
            let mut new_of_old: FxHashMap<u64, u64> = FxHashMap::default();
            let mut old_of_new: FxHashMap<u64, u64> = FxHashMap::default();
            let mut ties = 0u32;
            let mut cur = root.clone();
            for step in 0..2_000 {
                let choices = cur.enabled_choices();
                if choices.is_empty() {
                    cur = root.clone();
                    continue;
                }
                cur.apply(choices[rng.gen_index(choices.len())])
                    .unwrap_or_else(|v| panic!("{name}: walk hit a violation: {v}"));
                let mask = (rng.next_u64() & slots).max(1);
                let (new, new_arg, new_mask) = cur.canonicalize(&perms, mask);
                let (old, old_arg, old_mask) = cur.canonicalize_min_over_group(&perms, mask);
                for sigma in &perms[1..] {
                    let moved = cur.relabeled(sigma).expect("certified protocol");
                    assert_eq!(
                        moved.canonicalize(&perms, 0).0,
                        new,
                        "{name} step {step}: orbit split under {sigma:?}"
                    );
                }
                assert_eq!(
                    *new_of_old.entry(old).or_insert(new),
                    new,
                    "{name} step {step}: one old class, two new ones"
                );
                assert_eq!(
                    *old_of_new.entry(new).or_insert(old),
                    old,
                    "{name} step {step}: two old classes merged"
                );
                assert_eq!(
                    cur.map_mask(new_mask, &inverses[new_arg]),
                    cur.map_mask(old_mask, &inverses[old_arg]),
                    "{name} step {step}: concrete sleep masks differ"
                );
                ties += u32::from(old_mask != cur.map_mask(mask, &perms[old_arg]));
            }
            assert!(
                new_of_old.len() > 50,
                "{name}: the walk saw only {} classes",
                new_of_old.len()
            );
            assert!(
                ties > 0,
                "{name}: no automorphism ever shrank a mask; the third check is vacuous"
            );
        }
    }

    /// The witness is copy-on-write: a successor shares its parent's until
    /// it completes an operation. On FullMap at P=2, node 1 write-misses on block
    /// 0 (homed at node 0): the home taking the request retires nothing,
    /// so that successor still shares the parent's witness. The grant's
    /// delivery completes the write in one successor; the parent and a
    /// sibling (node 0 issuing a read) keep version 0 and the old witness
    /// digest. A write hit after that bumps its own successor alone.
    #[test]
    fn successors_share_the_witness_until_one_writes() {
        fn witness_digest(s: &CheckState) -> u64 {
            use std::hash::Hasher;
            let mut h = dirtree_sim::hash::FxHasher::default();
            s.ctx.verifier.digest(&mut h);
            h.finish()
        }
        let write = |node| Choice::Op {
            node,
            op: ProcOp::Write(0),
        };
        let mut miss = CheckState::new(
            2,
            3,
            vec![0],
            build_protocol(ProtocolKind::FullMap, ProtocolParams::default()),
        );
        miss.apply(write(1)).unwrap();
        let mut parent = miss.clone();
        parent.apply(Choice::Deliver { src: 1, dst: 0 }).unwrap();
        assert!(
            Arc::ptr_eq(&miss.ctx.verifier, &parent.ctx.verifier),
            "a delivery that retired nothing copied the witness"
        );

        let mut writer = parent.clone();
        writer.apply(Choice::Deliver { src: 0, dst: 1 }).unwrap();
        assert_eq!(writer.ctx.verifier.version_of(0), 1);
        let mut sibling = parent.clone();
        sibling
            .apply(Choice::Op {
                node: 0,
                op: ProcOp::Read(0),
            })
            .unwrap();
        assert!(Arc::ptr_eq(&parent.ctx.verifier, &sibling.ctx.verifier));
        for (name, s) in [("parent", &parent), ("sibling", &sibling)] {
            assert_eq!(s.ctx.verifier.version_of(0), 0, "{name} saw the write");
            assert_ne!(witness_digest(s), witness_digest(&writer), "{name}");
        }

        let mut hit = writer.clone();
        hit.apply(write(1)).unwrap();
        assert_eq!(hit.ctx.verifier.version_of(0), 2, "a write hit");
        assert_eq!(writer.ctx.verifier.version_of(0), 1, "the hit's parent");
    }
}
