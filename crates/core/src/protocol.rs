//! The [`Protocol`] trait and the protocol registry.

use crate::ctx::ProtoCtx;
use crate::dir::flat::FlatDir;
use crate::dir::home_tree::HomeTree;
use crate::dir::sci_tree::AvlShape;
use crate::dir::stp::Arrival;
use crate::msg::{Msg, MsgKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::Cycle;

/// Tunable constants shared by protocol implementations.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolParams {
    /// LimitLESS software-handler occupancy per trap, in cycles. Chaiken et
    /// al. report full-map-emulation traps of a few tens of cycles on
    /// Alewife; 40 is our default.
    pub sw_trap_cycles: Cycle,
    /// Dir_iTree_k: even-numbered roots forward the invalidation to their
    /// paired odd-numbered roots (the paper's optimization). Disabling it
    /// makes the home send every root its own invalidation (ablation E13).
    pub dir_tree_pairing: bool,
    /// Dir_iTree_k: replacements silently kill the subtree with
    /// `Replace_INV` (the paper's policy). When false, the evicting node
    /// additionally notifies the home, which clears a matching root pointer
    /// (ablation E12).
    pub dir_tree_silent_replace: bool,
    /// DirTreeAdaptive: per-block pattern score at which a block flips to
    /// update mode (Schmitt trigger upper threshold).
    pub adapt_flip_up: i32,
    /// DirTreeAdaptive: per-block pattern score at which an update-mode
    /// block flips back to invalidate mode (Schmitt trigger lower
    /// threshold). Must be below `adapt_flip_up` or the detector flaps.
    pub adapt_flip_down: i32,
    /// DirTreeAdaptive: pattern score saturation bound (scores are clamped
    /// to `[-adapt_saturation, +adapt_saturation]` so a long-established
    /// pattern can still be unlearned in bounded time).
    pub adapt_saturation: i32,
}

impl ProtocolParams {
    /// Do the adaptive-protocol fields differ from their defaults? Sweep
    /// record keys (`SweepConfig::key` in `dirtree-bench`) and config
    /// fingerprints only include them when they do, so records written
    /// before the adaptive protocol existed keep their identity (same
    /// conditional-extension idiom as the VC fields).
    pub fn adapt_nondefault(&self) -> bool {
        self.adapt_flip_up != 2 || self.adapt_flip_down != -2 || self.adapt_saturation != 4
    }
}

impl Default for ProtocolParams {
    fn default() -> Self {
        Self {
            sw_trap_cycles: 40,
            dir_tree_pairing: true,
            dir_tree_silent_replace: true,
            adapt_flip_up: 2,
            adapt_flip_down: -2,
            adapt_saturation: 4,
        }
    }
}

/// Which coherence protocol a machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Dir_nNB full bit-map directory.
    FullMap,
    /// Dir_iNB: `i` pointers, evict-a-pointer on overflow.
    LimitedNB { pointers: u32 },
    /// Dir_iB: `i` pointers, broadcast invalidation after overflow.
    LimitedB { pointers: u32 },
    /// LimitLESS_i: `i` hardware pointers, software-extended overflow.
    LimitLess { pointers: u32 },
    /// Stanford singly-linked-list protocol (Dir₁Tree₁, forward only).
    SinglyList,
    /// IEEE 1596 SCI doubly-linked list (Dir₁Tree₁).
    Sci,
    /// Scalable Tree Protocol with `arity`-ary balanced trees (Dir₂Tree_k).
    Stp { arity: u32 },
    /// SCI tree extension P1596.2 (AVL-balanced binary tree, Dir₂Tree₂).
    SciTree,
    /// The paper's contribution: Dir_iTree_k with `pointers` directory
    /// pointers and `arity`-ary trees.
    DirTree { pointers: u32, arity: u32 },
    /// Extension: Dir_iTree_k with *update* writes instead of
    /// invalidations (§3 mentions the option; the paper evaluates only
    /// the invalidation variant).
    DirTreeUpdate { pointers: u32, arity: u32 },
    /// Extension: the hybrid of the title — Dir_iTree_k with a per-block
    /// sharing-pattern detector at the home that flips individual blocks
    /// between invalidate and update write policy ([`crate::adapt`]).
    DirTreeAdaptive { pointers: u32, arity: u32 },
}

impl ProtocolKind {
    /// The short label used in the paper's figures: `fm`, `L1..L8` for
    /// Dir_iNB and bare `1..8` for Dir_iTree₂.
    pub fn figure_label(&self) -> String {
        match self {
            ProtocolKind::FullMap => "fm".into(),
            ProtocolKind::LimitedNB { pointers } => format!("L{pointers}"),
            ProtocolKind::LimitedB { pointers } => format!("B{pointers}"),
            ProtocolKind::LimitLess { pointers } => format!("LL{pointers}"),
            ProtocolKind::SinglyList => "sll".into(),
            ProtocolKind::Sci => "sci".into(),
            ProtocolKind::Stp { .. } => "stp".into(),
            ProtocolKind::SciTree => "scit".into(),
            ProtocolKind::DirTree { pointers, .. } => format!("{pointers}"),
            ProtocolKind::DirTreeUpdate { pointers, .. } => format!("U{pointers}"),
            ProtocolKind::DirTreeAdaptive { pointers, .. } => format!("A{pointers}"),
        }
    }

    /// A descriptive name (`Dir4Tree2`, `LimitLESS4`, ...).
    pub fn name(&self) -> String {
        match self {
            ProtocolKind::FullMap => "FullMap".into(),
            ProtocolKind::LimitedNB { pointers } => format!("Dir{pointers}NB"),
            ProtocolKind::LimitedB { pointers } => format!("Dir{pointers}B"),
            ProtocolKind::LimitLess { pointers } => format!("LimitLESS{pointers}"),
            ProtocolKind::SinglyList => "SinglyLinkedList".into(),
            ProtocolKind::Sci => "SCI".into(),
            ProtocolKind::Stp { arity } => format!("STP{arity}"),
            ProtocolKind::SciTree => "SCITreeExt".into(),
            ProtocolKind::DirTree { pointers, arity } => format!("Dir{pointers}Tree{arity}"),
            ProtocolKind::DirTreeUpdate { pointers, arity } => {
                format!("Dir{pointers}Tree{arity}U")
            }
            ProtocolKind::DirTreeAdaptive { pointers, arity } => {
                format!("Dir{pointers}Tree{arity}A")
            }
        }
    }

    /// The nine configurations of the paper's figures: `fm`, `L8 L4 L2 L1`,
    /// and Dir_iTree₂ for i ∈ {8,4,2,1}.
    pub fn figure_set() -> Vec<ProtocolKind> {
        let mut v = vec![ProtocolKind::FullMap];
        for i in [8, 4, 2, 1] {
            v.push(ProtocolKind::LimitedNB { pointers: i });
        }
        for i in [8, 4, 2, 1] {
            v.push(ProtocolKind::DirTree {
                pointers: i,
                arity: 2,
            });
        }
        v
    }
}

/// A coherence protocol: a distributed state machine over directory and
/// cache controllers, driven by processor misses and network messages.
pub trait Protocol: Send {
    fn kind(&self) -> ProtocolKind;

    /// A read or write miss began at `node` for `addr`. The machine has
    /// already allocated the line and set it to `RmIp`/`WmIp`; the protocol
    /// sends the request to the home. For a write to a `V` line (upgrade),
    /// `op == Write` and the old state was `V`. Every protocol opens a miss
    /// this way, so it is the default.
    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        let home = ctx.home_of(addr);
        let kind = match op {
            OpKind::Read => MsgKind::ReadReq { requester: node },
            OpKind::Write => MsgKind::WriteReq { requester: node },
        };
        ctx.send(
            home,
            Msg {
                addr,
                src: node,
                kind,
            },
        );
    }

    /// A message arrived at `node` (directory side if it is the home and
    /// the kind is directory-bound, cache side otherwise).
    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg);

    /// `node` evicted a line for `addr` that was in `state` (`V` or `E`).
    /// The tag is already gone; the protocol must restore metadata
    /// consistency (writeback, unlink, subtree kill, ...).
    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState);

    /// Directory overhead per memory block, in bits, for an `nodes`-node
    /// machine (Section 2 formulas; used by the memory-overhead table).
    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64;

    /// Coherence metadata per cache line, in bits.
    fn cache_bits_per_line(&self, nodes: u32) -> u64;

    /// Update-based protocols have no exclusive state: every write is a
    /// home transaction and completed writes leave all copies valid (the
    /// machine adjusts its write-hit policy and its witness accordingly).
    fn is_update(&self) -> bool {
        false
    }

    /// Per-block write policy: does `addr` currently complete writes with
    /// update semantics? Static protocols answer uniformly ([`is_update`](Protocol::is_update));
    /// the adaptive hybrid answers per block, and the machine/checker
    /// consult this at every write retirement.
    fn is_update_for(&self, addr: Addr) -> bool {
        let _ = addr;
        self.is_update()
    }

    /// Does this protocol want [`note_read_hit`](Protocol::note_read_hit)
    /// callbacks? Update-mode blocks satisfy reads locally forever, so a
    /// home-side pattern detector is blind to them unless the machine
    /// reports read hits. The machine caches this flag and keeps the read
    /// hit path callback-free when it is false.
    fn wants_read_hits(&self) -> bool {
        false
    }

    /// A processor read hit a valid line in its cache (no message was
    /// generated). Only called when [`wants_read_hits`](Protocol::wants_read_hits)
    /// is true. Must not send messages or mutate coherence state — it only
    /// feeds passive observers such as the sharing-pattern detector.
    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        let _ = (node, addr);
    }

    /// The processor-side operation whose completion the protocol signalled
    /// via [`ProtoCtx::complete`] has now retired (the machine's `OpDone`,
    /// the checker's retire step). Between completion and retirement the
    /// write's semantics are still being applied, so a mode-switching protocol must not change the block's
    /// policy in that window; this callback closes it.
    fn note_op_retired(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        let _ = (node, addr, op);
    }

    /// Snapshot the complete internal protocol state, so the model checker
    /// (`dirtree-check`) can branch an exploration from it.
    fn boxed_clone(&self) -> Box<dyn Protocol>;

    /// Feed a canonical digest of the internal state to `h`, for the model
    /// checker's visited-set dedup. The digest must be a function of the
    /// state's content, never of its history (the bundled protocols hash
    /// their per-block rows with [`crate::fingerprint::digest_rows`]), and
    /// must cover *every* field that can influence future behavior: two
    /// states with equal digests are assumed to behave identically and one
    /// of them is pruned.
    fn fingerprint(&self, h: &mut dyn std::hash::Hasher);

    /// A clone of the complete protocol state with every node id mapped
    /// through `perm` (`perm[old] = new`), or `None` if this protocol does
    /// not certify *equivariance* — the property that handling a relabeled
    /// message in the relabeled state does exactly what relabeling the
    /// original execution would. The model checker's processor-permutation
    /// symmetry reduction canonicalizes state digests over the orbit of
    /// home-fixing renamings, which is only sound for equivariant
    /// protocols; the answer must therefore depend only on the protocol
    /// *type*, never on its current state. The default opts out and leaves
    /// the reduction inert (group = identity), which is also what keeps the
    /// checker sound for deliberately asymmetric fault-injection mutants.
    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        let _ = perm;
        None
    }

    /// Certifies that delivering a message only reads and writes state
    /// belonging to the handling node or keyed by the message's block
    /// (per-address directory entries, gates, collectors, trees), so that
    /// two deliveries at different nodes for different blocks commute. This
    /// enables the model checker's sleep-set partial-order reduction; the
    /// default opts out and leaves it inert.
    fn deliveries_commute(&self) -> bool {
        false
    }

    /// Protocol-specific structural invariants, checked by the model
    /// checker at every explored state. `ctx` exposes cache line states,
    /// `addrs` is the blocks in play, and `quiescent` is true when no
    /// message or completion is pending (some invariants — e.g. "readable
    /// copies are reachable from recorded roots" — only hold between
    /// transactions). Default: nothing protocol-specific to check.
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        let _ = (ctx, addrs, quiescent);
        Ok(())
    }
}

/// Number of bits in a node pointer for an `n`-node machine.
pub(crate) fn ptr_bits(nodes: u32) -> u64 {
    (32 - (nodes.max(2) - 1).leading_zeros()) as u64
}

/// Instantiate a protocol implementation.
pub fn build_protocol(kind: ProtocolKind, params: ProtocolParams) -> Box<dyn Protocol> {
    match kind {
        ProtocolKind::FullMap => Box::new(FlatDir::full_map()),
        ProtocolKind::LimitedNB { pointers } => Box::new(FlatDir::limited(pointers, false)),
        ProtocolKind::LimitedB { pointers } => Box::new(FlatDir::limited(pointers, true)),
        ProtocolKind::LimitLess { pointers } => {
            Box::new(FlatDir::limitless(pointers, params.sw_trap_cycles))
        }
        ProtocolKind::SinglyList => Box::new(crate::dir::singly::SinglyList::new()),
        ProtocolKind::Sci => Box::new(crate::dir::sci::Sci::new()),
        ProtocolKind::Stp { arity } => Box::new(HomeTree::new(Arrival::new(arity))),
        ProtocolKind::SciTree => Box::new(HomeTree::new(AvlShape::default())),
        ProtocolKind::DirTree { pointers, arity } => {
            Box::new(crate::dir::dir_tree::DirTree::new(pointers, arity, params))
        }
        ProtocolKind::DirTreeUpdate { pointers, arity } => {
            Box::new(crate::dir::dir_tree::DirTree::with_policy(
                pointers,
                arity,
                params,
                crate::dir::dir_tree::WritePolicy::Update,
            ))
        }
        ProtocolKind::DirTreeAdaptive { pointers, arity } => {
            Box::new(crate::adapt::DirTreeAdaptive::new(pointers, arity, params))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(ProtocolKind::FullMap.figure_label(), "fm");
        assert_eq!(ProtocolKind::LimitedNB { pointers: 4 }.figure_label(), "L4");
        assert_eq!(
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2
            }
            .figure_label(),
            "4"
        );
        assert_eq!(
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2
            }
            .name(),
            "Dir4Tree2"
        );
    }

    #[test]
    fn figure_set_has_nine_members() {
        let set = ProtocolKind::figure_set();
        assert_eq!(set.len(), 9);
        assert_eq!(set[0], ProtocolKind::FullMap);
    }

    #[test]
    fn ptr_bits_is_ceil_log2() {
        assert_eq!(ptr_bits(2), 1);
        assert_eq!(ptr_bits(8), 3);
        assert_eq!(ptr_bits(9), 4);
        assert_eq!(ptr_bits(1024), 10);
    }

    #[test]
    fn builder_constructs_every_kind() {
        let params = ProtocolParams::default();
        for kind in [
            ProtocolKind::FullMap,
            ProtocolKind::LimitedNB { pointers: 2 },
            ProtocolKind::LimitedB { pointers: 2 },
            ProtocolKind::LimitLess { pointers: 4 },
            ProtocolKind::SinglyList,
            ProtocolKind::Sci,
            ProtocolKind::Stp { arity: 2 },
            ProtocolKind::SciTree,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            ProtocolKind::DirTreeUpdate {
                pointers: 4,
                arity: 2,
            },
            ProtocolKind::DirTreeAdaptive {
                pointers: 4,
                arity: 2,
            },
        ] {
            let p = build_protocol(kind, params);
            assert_eq!(p.kind(), kind);
        }
    }
}
