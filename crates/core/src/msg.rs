//! The protocol message vocabulary.
//!
//! One shared enum covers all nine protocols; each protocol uses a subset.
//! Every message knows whether it is bound for a **directory controller**
//! (charged the 5-cycle memory access latency at the home) or a **cache
//! controller** (charged the 1-cycle cache latency), and how many bytes it
//! occupies on the wire (control header vs. header + data block).

use crate::fingerprint::Relabel;
use crate::types::{Addr, NodeId, OpKind};
use dirtree_sim::metrics::MsgClass;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// A protocol message in flight.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Msg {
    /// Block this message concerns.
    pub addr: Addr,
    /// Sender (acknowledgements go back to `src` unless the kind says
    /// otherwise).
    pub src: NodeId,
    pub kind: MsgKind,
}

// Every message is moved several times between its send and its handler
// (queue slab, batch, controller queue, handler), so its size is paid per
// event; see DESIGN.md §6, "Message layout".
const _: () = assert!(std::mem::size_of::<Msg>() <= 40);

/// A node list carried by a message (tree hand-offs, descent paths, fix-up
/// child sets), kept out of line: one pointer wide, and no allocation when
/// empty, so the common message that carries none stays small. Hashes,
/// compares and prints exactly like the `Vec<NodeId>` it replaces, which
/// keeps the checker's state digests unchanged.
#[derive(Clone, Default, PartialEq, Eq)]
// The box is the point: `Vec` is three words inline and `Box<[NodeId]>` two.
// Never `Some` of an empty `Vec`, so the derived `Eq` is the `Vec`'s.
#[allow(clippy::box_collection)]
pub struct NodeList(Option<Box<Vec<NodeId>>>);

impl NodeList {
    /// The list as an owned `Vec`, reusing its allocation.
    pub fn into_vec(self) -> Vec<NodeId> {
        self.0.map_or_else(Vec::new, |v| *v)
    }
}

impl From<Vec<NodeId>> for NodeList {
    fn from(v: Vec<NodeId>) -> Self {
        NodeList((!v.is_empty()).then(|| Box::new(v)))
    }
}

impl Deref for NodeList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl Hash for NodeList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl Relabel for NodeList {
    fn relabel(&mut self, perm: &[NodeId]) {
        if let Some(v) = &mut self.0 {
            v.relabel(perm);
        }
    }
}

/// The message with every node id (sender and kind payload) mapped
/// through `perm` (`perm[old] = new`); the address is untouched.
impl Relabel for Msg {
    fn relabel(&mut self, perm: &[NodeId]) {
        self.src.relabel(perm);
        self.kind.relabel(perm);
    }
}

/// Wire size of a kind: a control header, or a header plus the data block.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Size {
    Ctrl,
    Data,
}

/// The controller a kind is handled by at its destination node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Bound {
    Dir,
    Cache,
}

/// What the simulator and the checker need to know about one kind.
struct Facts {
    label: &'static str,
    class: MsgClass,
    size: Size,
    bound: Bound,
}

/// Declares [`MsgKind`] from one table, one entry per kind:
/// `Kind { field: Type, .. } => "label", class, size, bound;`. Entry order
/// is variant order, so it fixes the discriminant that the derived `Hash`
/// feeds the checker's state digests. The class (a [`MsgClass`] variant)
/// and the bound (`Dir` or `Cache`) are expressions over the kind's own
/// fields, bound by reference; the size is `Ctrl` or `Data`. The enum, the facts behind `label`, `class`,
/// `carries_data` and `to_directory`, and the [`Relabel`] impl all follow
/// from the table, so a new kind or field is one line here, and the type
/// of a field decides how the checker's symmetry reduction renames it.
macro_rules! msg_kinds {
    ($($(#[$doc:meta])*
       $kind:ident $({ $($field:ident: $ty:ty),* $(,)? })?
       => $label:literal, $class:expr, $size:ident, $bound:expr;)*) => {
        /// Every message kind used by any of the nine protocols.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        pub enum MsgKind {
            $($(#[$doc])* $kind $({ $($field: $ty),* })?,)*
        }

        impl MsgKind {
            // Inlined into each accessor, so each compiles to a switch over
            // its own field alone rather than a call that builds all four.
            #[inline(always)]
            #[allow(unused_variables)]
            fn facts(&self) -> Facts {
                use Bound::*;
                use MsgClass::*;
                match self {
                    $(MsgKind::$kind { $($($field,)*)? .. } => Facts {
                        label: $label,
                        class: $class,
                        size: Size::$size,
                        bound: $bound,
                    },)*
                }
            }
        }

        /// Every embedded node id mapped through `perm`; flags and
        /// operation kinds are untouched. This is the message half of the
        /// model checker's processor-permutation symmetry: relabeling a
        /// state must relabel the in-flight traffic too.
        impl Relabel for MsgKind {
            fn relabel(&mut self, perm: &[NodeId]) {
                match self {
                    $(MsgKind::$kind { $($($field,)*)? .. } => {
                        $($($field.relabel(perm);)*)?
                    })*
                }
            }
        }
    };
}

msg_kinds! {
    // ---- bit-map family (full-map, Dir_iNB, Dir_iB, LimitLESS, DirTree) ----
    /// Cache → home: read miss request.
    ReadReq { requester: NodeId } => "read_req", ReadReq, Ctrl, Dir;
    /// Cache → home: write miss (or upgrade) request.
    WriteReq { requester: NodeId } => "write_req", WriteReq, Ctrl, Dir;
    /// Home → cache: read data. `adopt` carries the Dir_iTree_k pointer
    /// hand-off: the listed nodes become children of the requester (empty
    /// for non-tree protocols).
    ReadReply { adopt: NodeList } => "read_reply",
        if adopt.is_empty() { DataReply } else { Adopt }, Data, Cache;
    /// Home → cache: write grant + data (sent after invalidations finish).
    /// `kill_self_subtree` tells a writer that was itself a recorded tree
    /// root to invalidate its own children locally before completing
    /// (Dir_iTree_k only; the home skips sending the writer an `Inv` it
    /// would only bounce back).
    WriteReply { kill_self_subtree: bool } => "write_reply", DataReply, Data, Cache;
    /// Invalidate. Acknowledge to `src`. In Dir_iTree_k, `also` carries the
    /// paired odd-numbered root that this (even-numbered) root must also
    /// invalidate on the home's behalf. `from_dir` is true when the home
    /// directory originated the message (the ack must go to the directory
    /// controller, not to a cache collector on the same node).
    Inv { also: Option<NodeId>, from_dir: bool } => "inv", Inv, Ctrl, Cache;
    /// Invalidation acknowledgement (aggregated: one per subtree). `dir`
    /// mirrors the `from_dir` flag of the `Inv` being answered.
    InvAck { dir: bool } => "inv_ack", Ack, Ctrl, if *dir { Dir } else { Cache };
    /// Silent subtree invalidation on replacement; never acknowledged.
    ReplaceInv => "replace_inv", ReplaceInv, Ctrl, Cache;
    /// Optional (ablation E12) replacement notification to the home: clear
    /// any directory pointer at the evicting node.
    ReplNotify => "repl_notify", ReplaceInv, Ctrl, Dir;
    /// Update-protocol variant: carry a freshly-written block down the
    /// sharing trees (paired like `Inv`); copies stay valid.
    Update { also: Option<NodeId>, from_dir: bool } => "update", Inv, Data, Cache;
    /// Acknowledgement for [`MsgKind::Update`] (aggregated per subtree).
    UpdateAck { dir: bool } => "update_ack", Ack, Ctrl, if *dir { Dir } else { Cache };
    /// Update-protocol write grant: data + any tree hand-off for a writer
    /// that was not yet recorded (mirrors `ReadReply`'s `adopt`).
    UpdateGrant { adopt: NodeList } => "update_grant",
        if adopt.is_empty() { DataReply } else { Adopt }, Data, Cache;
    /// Home → exclusive owner: write the block back for a pending `for_op`
    /// by `requester` (downgrade to V on read, invalidate on write).
    WbReq { for_op: OpKind, requester: NodeId } => "wb_req", Writeback, Ctrl, Cache;
    /// Owner → home: writeback data in reply to [`MsgKind::WbReq`].
    WbData { for_op: OpKind, requester: NodeId } => "wb_data", Writeback, Data, Dir;
    /// Cache → home: eviction writeback of an exclusive line (no reply).
    WbEvict => "wb_evict", Writeback, Data, Dir;
    /// Requester → home: a read fill landed; the home may retire the read
    /// transaction. Off the processor's critical path (the miss completes
    /// at the fill); exists to close the fill/invalidation race — see
    /// DESIGN.md §6.
    FillAck => "fill_ack", FillAck, Ctrl, Dir;

    // ---- singly linked list ----
    /// Home → old head: supply data to `requester`, who becomes the new
    /// head and will point at you.
    SllSupply { requester: NodeId } => "sll_supply", ReadReq, Ctrl, Cache;
    /// Old head → requester: data (requester sets `next = src`).
    SllData => "sll_data", DataReply, Data, Cache;
    /// Chain invalidation for a write by `writer`; forwarded `next`-wise.
    SllInv { writer: NodeId } => "sll_inv", Inv, Ctrl, Cache;
    /// Tail → home: the chain is fully invalidated.
    SllChainDone { writer: NodeId } => "sll_chain_done", Ack, Ctrl, Dir;
    /// Dead old head → home: cannot supply; home must serve `requester`
    /// from memory.
    SllSupplyFail { requester: NodeId } => "sll_supply_fail", Mgmt, Ctrl, Dir;

    // ---- SCI doubly linked list ----
    /// Home → requester: read response. If `old_head` is `None` the data
    /// comes straight from memory; otherwise attach to the old head.
    SciReadResp { old_head: Option<NodeId> } => "sci_read_resp", DataReply, Data, Cache;
    /// Home → writer: write response (same shape as the read response; the
    /// writer purges the list afterwards).
    SciWriteResp { old_head: Option<NodeId> } => "sci_write_resp", DataReply, Data, Cache;
    /// New head → old head: set `prev = src`, send me the data.
    SciAttachReq => "sci_attach_req", ReadReq, Ctrl, Cache;
    /// Old head → new head: data + attach acknowledgement.
    SciAttachResp => "sci_attach_resp", DataReply, Data, Cache;
    /// Writer → successor: invalidate yourself, reply with your `next`.
    SciPurgeReq => "sci_purge_req", Inv, Ctrl, Cache;
    /// Purged node → writer: done; continue with `next`.
    SciPurgeResp { next: Option<NodeId> } => "sci_purge_resp", Ack, Ctrl, Cache;
    /// Writer → home: purge finished (home can retire the transaction).
    SciPurgeDone { writer: NodeId } => "sci_purge_done", Ack, Ctrl, Dir;
    /// Roll-out: tell `src`'s predecessor its new successor.
    SciUnlinkPrev { new_next: Option<NodeId> } => "sci_unlink_prev", Mgmt, Ctrl, Cache;
    /// Roll-out: tell `src`'s successor its new predecessor.
    SciUnlinkNext { new_prev: Option<NodeId> } => "sci_unlink_next", Mgmt, Ctrl, Cache;
    /// Evicting head → home: the list head changed.
    SciNewHead { new_head: Option<NodeId> } => "sci_new_head", Mgmt, Ctrl, Dir;

    // ---- STP (scalable tree protocol) ----
    /// Home → requester: data + the tree position to attach under
    /// (`None` = you are the root).
    StpJoinResp { parent: Option<NodeId> } => "stp_join_resp", DataReply, Data, Cache;
    /// Requester → parent: record me as your child.
    StpAttach => "stp_attach", Mgmt, Ctrl, Cache;
    /// Parent → requester: attach acknowledged (miss completes).
    StpAttachAck => "stp_attach_ack", Ack, Ctrl, Cache;
    /// Evicted node → home: leave the tree (triggers repair).
    StpLeave => "stp_leave", Mgmt, Ctrl, Dir;
    /// Home → mover: take over the place of `replacing` (adopting its
    /// children and parent).
    StpMove { replacing: NodeId, new_parent: Option<NodeId>, new_children: NodeList }
        => "stp_move", Mgmt, Ctrl, Cache;
    /// Mover (or home) → affected node: children-map fix-up (`remove`,
    /// then `add`). `from_home` routes the ack to the home's directory
    /// controller rather than to the mover's repair collector.
    StpFixup { remove: Option<NodeId>, add: Option<NodeId>, from_home: bool }
        => "stp_fixup", Mgmt, Ctrl, Cache;
    /// Fix-up applied; `dir` routes the ack to the home's controller when
    /// the home itself issued the fix-up.
    StpFixupAck { dir: bool } => "stp_fixup_ack", Ack, Ctrl, if *dir { Dir } else { Cache };
    /// Mover → home: the repair finished; the leave transaction may close.
    StpLeaveDone => "stp_leave_done", Mgmt, Ctrl, Dir;

    // ---- SCI tree extension (AVL) ----
    /// Hop-by-hop descent toward the insertion point for `requester`;
    /// `path` is the remaining route (the final node supplies the data).
    SctDescend { requester: NodeId, path: NodeList } => "sct_descend", ReadReq, Ctrl, Cache;
    /// Insertion-point parent → requester: data + inserted.
    SctInsertResp => "sct_insert_resp", DataReply, Data, Cache;
    /// Rotation / deletion pointer fix-up: the node's new (absolute)
    /// children set. Acknowledged to the home with `StpFixupAck`.
    SctFixup { children: NodeList } => "sct_fixup", Mgmt, Ctrl, Cache;
    /// Evicted node → home: AVL delete me (triggers fix-up traffic).
    SctLeave => "sct_leave", Mgmt, Ctrl, Dir;
}

// The machine calls `carries_data`, `to_directory` and `class` on every
// message; `#[inline]` lets them inline across crates, as the small
// matches they replaced did unasked.
impl MsgKind {
    /// Does this message carry the data block (header + block bytes on the
    /// wire) rather than just a control header?
    #[inline]
    pub fn carries_data(&self) -> bool {
        self.facts().size == Size::Data
    }

    /// Is this message handled by the home's directory controller (true) or
    /// by a cache controller (false)? Directory-bound messages are charged
    /// the memory access latency.
    #[inline]
    pub fn to_directory(&self) -> bool {
        self.facts().bound == Bound::Dir
    }

    /// Wire size in bytes given the control-header and block sizes.
    #[inline]
    pub fn wire_bytes(&self, header: u32, block: u32) -> u32 {
        if self.carries_data() {
            header + block
        } else {
            header
        }
    }

    /// Coarse observability class ([`MsgClass`]) for the metrics layer.
    ///
    /// This is the single mapping from the full 42-kind wire vocabulary
    /// onto the paper's 10-class accounting; every protocol's messages
    /// classify through it (the machine's shared send hook calls it), so
    /// no protocol carries its own instrumentation.
    #[inline]
    pub fn class(&self) -> MsgClass {
        self.facts().class
    }

    /// Short label for statistics.
    pub fn label(&self) -> &'static str {
        self.facts().label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_messages_are_bigger() {
        let data = MsgKind::ReadReply {
            adopt: NodeList::default(),
        };
        let ctrl = MsgKind::InvAck { dir: false };
        assert_eq!(data.wire_bytes(8, 8), 16);
        assert_eq!(ctrl.wire_bytes(8, 8), 8);
    }

    #[test]
    fn requests_go_to_directory_and_replies_to_caches() {
        assert!(MsgKind::ReadReq { requester: 1 }.to_directory());
        assert!(MsgKind::WriteReq { requester: 1 }.to_directory());
        assert!(MsgKind::InvAck { dir: true }.to_directory());
        assert!(!MsgKind::InvAck { dir: false }.to_directory());
        assert!(!MsgKind::ReadReply {
            adopt: NodeList::default()
        }
        .to_directory());
        assert!(!MsgKind::Inv {
            also: None,
            from_dir: true
        }
        .to_directory());
        assert!(!MsgKind::SciPurgeReq.to_directory());
    }

    /// One instance of every kind, in declaration order.
    fn one_of_each() -> Vec<MsgKind> {
        use MsgKind::*;
        let list = || NodeList::from(vec![1, 2, 5]);
        vec![
            ReadReq { requester: 1 },
            WriteReq { requester: 1 },
            ReadReply { adopt: list() },
            WriteReply {
                kill_self_subtree: true,
            },
            Inv {
                also: Some(1),
                from_dir: true,
            },
            InvAck { dir: true },
            ReplaceInv,
            ReplNotify,
            Update {
                also: Some(1),
                from_dir: true,
            },
            UpdateAck { dir: true },
            UpdateGrant { adopt: list() },
            WbReq {
                for_op: OpKind::Write,
                requester: 1,
            },
            WbData {
                for_op: OpKind::Write,
                requester: 1,
            },
            WbEvict,
            FillAck,
            SllSupply { requester: 1 },
            SllData,
            SllInv { writer: 1 },
            SllChainDone { writer: 1 },
            SllSupplyFail { requester: 1 },
            SciReadResp { old_head: Some(1) },
            SciWriteResp { old_head: Some(1) },
            SciAttachReq,
            SciAttachResp,
            SciPurgeReq,
            SciPurgeResp { next: Some(1) },
            SciPurgeDone { writer: 1 },
            SciUnlinkPrev { new_next: Some(1) },
            SciUnlinkNext { new_prev: Some(1) },
            SciNewHead { new_head: Some(1) },
            StpJoinResp { parent: Some(1) },
            StpAttach,
            StpAttachAck,
            StpLeave,
            StpMove {
                replacing: 0,
                new_parent: Some(3),
                new_children: list(),
            },
            StpFixup {
                remove: Some(1),
                add: Some(2),
                from_home: true,
            },
            StpFixupAck { dir: true },
            StpLeaveDone,
            SctDescend {
                requester: 4,
                path: list(),
            },
            SctInsertResp,
            SctFixup { children: list() },
            SctLeave,
        ]
    }

    #[test]
    fn labels_are_distinct_for_core_kinds() {
        let kinds = one_of_each();
        assert_eq!(kinds.len(), 42);
        let labels: std::collections::HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn classes_follow_table1_accounting() {
        assert_eq!(MsgKind::ReadReq { requester: 1 }.class(), MsgClass::ReadReq);
        assert_eq!(
            MsgKind::WriteReq { requester: 1 }.class(),
            MsgClass::WriteReq
        );
        // A read reply without tree hand-off is plain data; with a
        // non-empty adopt list it is the Dir_iTree_k adoption message.
        assert_eq!(
            MsgKind::ReadReply {
                adopt: NodeList::default()
            }
            .class(),
            MsgClass::DataReply
        );
        assert_eq!(
            MsgKind::ReadReply {
                adopt: vec![3, 5].into()
            }
            .class(),
            MsgClass::Adopt
        );
        assert_eq!(
            MsgKind::UpdateGrant {
                adopt: vec![3].into()
            }
            .class(),
            MsgClass::Adopt
        );
        // Both ablation flavors of replacement traffic share a class, so
        // the silent-replacement claim ("zero replacement messages reach
        // the home") is one per-class to_dir assertion.
        assert_eq!(MsgKind::ReplaceInv.class(), MsgClass::ReplaceInv);
        assert_eq!(MsgKind::ReplNotify.class(), MsgClass::ReplaceInv);
        assert_eq!(
            MsgKind::Inv {
                also: None,
                from_dir: true
            }
            .class(),
            MsgClass::Inv
        );
        assert_eq!(MsgKind::SllInv { writer: 0 }.class(), MsgClass::Inv);
        assert_eq!(MsgKind::InvAck { dir: true }.class(), MsgClass::Ack);
        assert_eq!(MsgKind::FillAck.class(), MsgClass::FillAck);
        assert_eq!(MsgKind::WbEvict.class(), MsgClass::Writeback);
        assert_eq!(MsgKind::StpLeave.class(), MsgClass::Mgmt);
    }

    #[test]
    fn write_reply_carries_data() {
        assert!(MsgKind::WriteReply {
            kill_self_subtree: false
        }
        .carries_data());
        assert!(MsgKind::WbData {
            for_op: OpKind::Read,
            requester: 0
        }
        .carries_data());
        assert!(!MsgKind::ReplaceInv.carries_data());
    }

    // The checker digests in-flight messages with the derived `Hash`, so a
    // list must feed the hasher exactly what the `Vec` it replaced did.
    #[test]
    fn node_list_hashes_like_its_vec() {
        use dirtree_sim::hash::FxHasher;
        fn fx(x: &impl Hash) -> u64 {
            let mut h = FxHasher::default();
            x.hash(&mut h);
            h.finish()
        }
        for v in [vec![], vec![3], vec![3, 5, 7]] {
            assert_eq!(fx(&NodeList::from(v.clone())), fx(&v), "{v:?}");
        }
    }

    #[test]
    fn empty_node_list_is_unallocated_and_equal_to_an_empty_vec() {
        let empty = NodeList::from(Vec::with_capacity(8));
        assert!(empty.0.is_none());
        assert_eq!(empty, NodeList::default());
        assert_eq!(empty, Vec::new().into());
        assert_ne!(empty, vec![3].into());
        assert_eq!(empty.into_vec().capacity(), 0);
    }

    #[test]
    fn node_list_debug_prints_like_a_vec() {
        assert_eq!(format!("{:?}", NodeList::from(vec![3, 5])), "[3, 5]");
        assert_eq!(
            format!(
                "{:?}",
                MsgKind::ReadReply {
                    adopt: vec![3, 5].into()
                }
            ),
            "ReadReply { adopt: [3, 5] }"
        );
    }

    // One case per kind under a fixed-point-free permutation: a node field
    // the relabeling skips, or a non-node field it maps, fails here.
    #[test]
    fn relabeled_maps_every_node_list_in_order() {
        use MsgKind::*;
        let perm: Vec<NodeId> = (0..8).rev().collect(); // n -> 7 - n
        let mapped = || NodeList::from(vec![6, 5, 2]);
        let want = vec![
            ReadReq { requester: 6 },
            WriteReq { requester: 6 },
            ReadReply { adopt: mapped() },
            WriteReply {
                kill_self_subtree: true,
            },
            Inv {
                also: Some(6),
                from_dir: true,
            },
            InvAck { dir: true },
            ReplaceInv,
            ReplNotify,
            Update {
                also: Some(6),
                from_dir: true,
            },
            UpdateAck { dir: true },
            UpdateGrant { adopt: mapped() },
            WbReq {
                for_op: OpKind::Write,
                requester: 6,
            },
            WbData {
                for_op: OpKind::Write,
                requester: 6,
            },
            WbEvict,
            FillAck,
            SllSupply { requester: 6 },
            SllData,
            SllInv { writer: 6 },
            SllChainDone { writer: 6 },
            SllSupplyFail { requester: 6 },
            SciReadResp { old_head: Some(6) },
            SciWriteResp { old_head: Some(6) },
            SciAttachReq,
            SciAttachResp,
            SciPurgeReq,
            SciPurgeResp { next: Some(6) },
            SciPurgeDone { writer: 6 },
            SciUnlinkPrev { new_next: Some(6) },
            SciUnlinkNext { new_prev: Some(6) },
            SciNewHead { new_head: Some(6) },
            StpJoinResp { parent: Some(6) },
            StpAttach,
            StpAttachAck,
            StpLeave,
            StpMove {
                replacing: 7,
                new_parent: Some(4),
                new_children: mapped(),
            },
            StpFixup {
                remove: Some(6),
                add: Some(5),
                from_home: true,
            },
            StpFixupAck { dir: true },
            StpLeaveDone,
            SctDescend {
                requester: 3,
                path: mapped(),
            },
            SctInsertResp,
            SctFixup { children: mapped() },
            SctLeave,
        ];
        let kinds = one_of_each();
        assert_eq!(kinds.len(), want.len());
        for (kind, want) in kinds.iter().zip(want) {
            assert_eq!(kind.relabeled(&perm), want);
        }
        let empty = ReadReply {
            adopt: NodeList::default(),
        };
        assert_eq!(empty.relabeled(&perm), empty);
        let msg = Msg {
            addr: 9,
            src: 2,
            kind: SciPurgeReq,
        };
        assert_eq!(msg.relabeled(&perm).src, 5);
    }
}
