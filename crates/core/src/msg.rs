//! The protocol message vocabulary.
//!
//! One shared enum covers all nine protocols; each protocol uses a subset.
//! Every message knows whether it is bound for a **directory controller**
//! (charged the 5-cycle memory access latency at the home) or a **cache
//! controller** (charged the 1-cycle cache latency), and how many bytes it
//! occupies on the wire (control header vs. header + data block).

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

impl Msg {
    /// The message with every node id (sender and kind payload) mapped
    /// through `perm` (`perm[old] = new`). See [`MsgKind::relabeled`].
    pub fn relabeled(&self, perm: &[NodeId]) -> Msg {
        Msg {
            addr: self.addr,
            src: perm[self.src as usize],
            kind: self.kind.relabeled(perm),
        }
    }
}

/// Every message kind used by any of the nine protocols.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MsgKind {
    // ---- bit-map family (full-map, Dir_iNB, Dir_iB, LimitLESS, DirTree) ----
    /// Cache → home: read miss request.
    ReadReq { requester: NodeId },
    /// Cache → home: write miss (or upgrade) request.
    WriteReq { requester: NodeId },
    /// Home → cache: read data. `adopt` carries the Dir_iTree_k pointer
    /// hand-off: the listed nodes become children of the requester (empty
    /// for non-tree protocols).
    ReadReply { adopt: NodeList },
    /// Home → cache: write grant + data (sent after invalidations finish).
    /// `kill_self_subtree` tells a writer that was itself a recorded tree
    /// root to invalidate its own children locally before completing
    /// (Dir_iTree_k only; the home skips sending the writer an `Inv` it
    /// would only bounce back).
    WriteReply { kill_self_subtree: bool },
    /// Invalidate. Acknowledge to `src`. In Dir_iTree_k, `also` carries the
    /// paired odd-numbered root that this (even-numbered) root must also
    /// invalidate on the home's behalf. `from_dir` is true when the home
    /// directory originated the message (the ack must go to the directory
    /// controller, not to a cache collector on the same node).
    Inv {
        also: Option<NodeId>,
        from_dir: bool,
    },
    /// Invalidation acknowledgement (aggregated: one per subtree). `dir`
    /// mirrors the `from_dir` flag of the `Inv` being answered.
    InvAck { dir: bool },
    /// Silent subtree invalidation on replacement; never acknowledged.
    ReplaceInv,
    /// Optional (ablation E12) replacement notification to the home: clear
    /// any directory pointer at the evicting node.
    ReplNotify,
    /// Update-protocol variant: carry a freshly-written block down the
    /// sharing trees (paired like `Inv`); copies stay valid.
    Update {
        also: Option<NodeId>,
        from_dir: bool,
    },
    /// Acknowledgement for [`MsgKind::Update`] (aggregated per subtree).
    UpdateAck { dir: bool },
    /// Update-protocol write grant: data + any tree hand-off for a writer
    /// that was not yet recorded (mirrors `ReadReply`'s `adopt`).
    UpdateGrant { adopt: NodeList },
    /// Home → exclusive owner: write the block back for a pending `for_op`
    /// by `requester` (downgrade to V on read, invalidate on write).
    WbReq { for_op: OpKind, requester: NodeId },
    /// Owner → home: writeback data in reply to [`MsgKind::WbReq`].
    WbData { for_op: OpKind, requester: NodeId },
    /// Cache → home: eviction writeback of an exclusive line (no reply).
    WbEvict,
    /// Requester → home: a read fill landed; the home may retire the read
    /// transaction. Off the processor's critical path (the miss completes
    /// at the fill); exists to close the fill/invalidation race — see
    /// DESIGN.md §6.
    FillAck,

    // ---- snooping MSI (bus fabric) ----
    /// Broadcast: a reader wants the block (owners downgrade and flush).
    BusRead { requester: NodeId },
    /// Broadcast: a writer wants exclusivity (everyone else invalidates).
    BusReadX { requester: NodeId },
    /// Memory (or the previous owner) → requester: the data response.
    BusData { exclusive: bool },
    /// Home self-message: the snoop window elapsed; supply the data.
    BusWindow { requester: NodeId, exclusive: bool },

    // ---- singly linked list ----
    /// Home → old head: supply data to `requester`, who becomes the new
    /// head and will point at you.
    SllSupply { requester: NodeId },
    /// Old head → requester: data (requester sets `next = src`).
    SllData,
    /// Chain invalidation for a write by `writer`; forwarded `next`-wise.
    SllInv { writer: NodeId },
    /// Tail → home: the chain is fully invalidated.
    SllChainDone { writer: NodeId },
    /// Dead old head → home: cannot supply; home must serve `requester`
    /// from memory.
    SllSupplyFail { requester: NodeId },

    // ---- SCI doubly linked list ----
    /// Home → requester: read response. If `old_head` is `None` the data
    /// comes straight from memory; otherwise attach to the old head.
    SciReadResp { old_head: Option<NodeId> },
    /// Home → writer: write response (same shape as the read response; the
    /// writer purges the list afterwards).
    SciWriteResp { old_head: Option<NodeId> },
    /// New head → old head: set `prev = src`, send me the data.
    SciAttachReq,
    /// Old head → new head: data + attach acknowledgement.
    SciAttachResp,
    /// Writer → successor: invalidate yourself, reply with your `next`.
    SciPurgeReq,
    /// Purged node → writer: done; continue with `next`.
    SciPurgeResp { next: Option<NodeId> },
    /// Writer → home: purge finished (home can retire the transaction).
    SciPurgeDone { writer: NodeId },
    /// Roll-out: tell `src`'s predecessor its new successor.
    SciUnlinkPrev { new_next: Option<NodeId> },
    /// Roll-out: tell `src`'s successor its new predecessor.
    SciUnlinkNext { new_prev: Option<NodeId> },
    /// Evicting head → home: the list head changed.
    SciNewHead { new_head: Option<NodeId> },

    // ---- STP (scalable tree protocol) ----
    /// Home → requester: data + the tree position to attach under
    /// (`None` = you are the root).
    StpJoinResp { parent: Option<NodeId> },
    /// Requester → parent: record me as your child.
    StpAttach,
    /// Parent → requester: attach acknowledged (miss completes).
    StpAttachAck,
    /// Evicted node → home: leave the tree (triggers repair).
    StpLeave,
    /// Home → mover: take over the place of `replacing` (adopting its
    /// children and parent).
    StpMove {
        replacing: NodeId,
        new_parent: Option<NodeId>,
        new_children: NodeList,
    },
    /// Mover (or home) → affected node: children-map fix-up (`remove`,
    /// then `add`). `from_home` routes the ack to the home's directory
    /// controller rather than to the mover's repair collector.
    StpFixup {
        remove: Option<NodeId>,
        add: Option<NodeId>,
        from_home: bool,
    },
    /// Fix-up applied; `dir` routes the ack to the home's controller when
    /// the home itself issued the fix-up.
    StpFixupAck { dir: bool },
    /// Mover → home: the repair finished; the leave transaction may close.
    StpLeaveDone,

    // ---- SCI tree extension (AVL) ----
    /// Hop-by-hop descent toward the insertion point for `requester`;
    /// `path` is the remaining route (the final node supplies the data).
    SctDescend { requester: NodeId, path: NodeList },
    /// Insertion-point parent → requester: data + inserted.
    SctInsertResp,
    /// Rotation / deletion pointer fix-up: the node's new (absolute)
    /// children set. Acknowledged to the home with `StpFixupAck`.
    SctFixup { children: NodeList },
    /// Evicted node → home: AVL delete me (triggers fix-up traffic).
    SctLeave,
}

impl MsgKind {
    /// Does this message carry the data block (header + block bytes on the
    /// wire) rather than just a control header?
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            MsgKind::ReadReply { .. }
                | MsgKind::WriteReply { .. }
                | MsgKind::WbData { .. }
                | MsgKind::WbEvict
                | MsgKind::SllData
                | MsgKind::BusData { .. }
                | MsgKind::SciReadResp { .. }
                | MsgKind::SciWriteResp { .. }
                | MsgKind::SciAttachResp
                | MsgKind::StpJoinResp { .. }
                | MsgKind::SctInsertResp
                | MsgKind::Update { .. }
                | MsgKind::UpdateGrant { .. }
        )
    }

    /// Is this message handled by the home's directory controller (true) or
    /// by a cache controller (false)? Directory-bound messages are charged
    /// the memory access latency.
    pub fn to_directory(&self) -> bool {
        matches!(
            self,
            MsgKind::ReadReq { .. }
                | MsgKind::WriteReq { .. }
                | MsgKind::WbData { .. }
                | MsgKind::WbEvict
                | MsgKind::FillAck
                | MsgKind::SllChainDone { .. }
                | MsgKind::SllSupplyFail { .. }
                | MsgKind::SciPurgeDone { .. }
                | MsgKind::SciNewHead { .. }
                | MsgKind::StpLeave
                | MsgKind::StpLeaveDone
                | MsgKind::SctLeave
                | MsgKind::ReplNotify
        ) || matches!(
            self,
            MsgKind::InvAck { dir: true }
                | MsgKind::StpFixupAck { dir: true }
                | MsgKind::UpdateAck { dir: true }
        )
    }

    /// Snoop broadcasts are handled by a dedicated snoop port (dual-tag
    /// caches): the machine processes them at delivery without queueing
    /// behind the regular controller, so invalidations retire within the
    /// snoop window even under backlog.
    pub fn is_snoop(&self) -> bool {
        matches!(self, MsgKind::BusRead { .. } | MsgKind::BusReadX { .. })
    }

    /// Wire size in bytes given the control-header and block sizes.
    pub fn wire_bytes(&self, header: u32, block: u32) -> u32 {
        if self.carries_data() {
            header + block
        } else {
            header
        }
    }

    /// Coarse observability class ([`MsgClass`]) for the metrics layer.
    ///
    /// This is the single mapping from the full 46-kind wire vocabulary
    /// onto the paper's 10-class accounting; every protocol's messages
    /// classify through it (the machine's shared send hook calls it), so
    /// no protocol carries its own instrumentation.
    pub fn class(&self) -> MsgClass {
        match self {
            // Read-miss requests, including their protocol-specific
            // forwards (bus snoop reads, list supplies, tree descents).
            MsgKind::ReadReq { .. }
            | MsgKind::BusRead { .. }
            | MsgKind::SllSupply { .. }
            | MsgKind::SciAttachReq
            | MsgKind::SctDescend { .. } => MsgClass::ReadReq,
            // Write-miss / upgrade requests.
            MsgKind::WriteReq { .. } | MsgKind::BusReadX { .. } => MsgClass::WriteReq,
            // Data replies that also hand off sharing-tree pointers.
            MsgKind::ReadReply { adopt } | MsgKind::UpdateGrant { adopt } if !adopt.is_empty() => {
                MsgClass::Adopt
            }
            MsgKind::ReadReply { .. }
            | MsgKind::UpdateGrant { .. }
            | MsgKind::WriteReply { .. }
            | MsgKind::BusData { .. }
            | MsgKind::SllData
            | MsgKind::SciReadResp { .. }
            | MsgKind::SciWriteResp { .. }
            | MsgKind::SciAttachResp
            | MsgKind::StpJoinResp { .. }
            | MsgKind::SctInsertResp => MsgClass::DataReply,
            // The write-propagation wave (invalidate or update flavor).
            MsgKind::Inv { .. }
            | MsgKind::Update { .. }
            | MsgKind::SllInv { .. }
            | MsgKind::SciPurgeReq => MsgClass::Inv,
            MsgKind::InvAck { .. }
            | MsgKind::UpdateAck { .. }
            | MsgKind::SllChainDone { .. }
            | MsgKind::SciPurgeResp { .. }
            | MsgKind::SciPurgeDone { .. }
            | MsgKind::StpAttachAck
            | MsgKind::StpFixupAck { .. } => MsgClass::Ack,
            MsgKind::ReplaceInv | MsgKind::ReplNotify => MsgClass::ReplaceInv,
            MsgKind::WbReq { .. } | MsgKind::WbData { .. } | MsgKind::WbEvict => {
                MsgClass::Writeback
            }
            MsgKind::FillAck => MsgClass::FillAck,
            // Sharing-structure management and fabric bookkeeping.
            MsgKind::BusWindow { .. }
            | MsgKind::SllSupplyFail { .. }
            | MsgKind::SciUnlinkPrev { .. }
            | MsgKind::SciUnlinkNext { .. }
            | MsgKind::SciNewHead { .. }
            | MsgKind::StpAttach
            | MsgKind::StpLeave
            | MsgKind::StpMove { .. }
            | MsgKind::StpFixup { .. }
            | MsgKind::StpLeaveDone
            | MsgKind::SctFixup { .. }
            | MsgKind::SctLeave => MsgClass::Mgmt,
        }
    }

    /// The same message with every embedded node id mapped through `perm`
    /// (`perm[old] = new`); addresses and flags are untouched. This is the
    /// message half of the model checker's processor-permutation symmetry:
    /// relabeling a state must relabel the in-flight traffic too.
    pub fn relabeled(&self, perm: &[NodeId]) -> MsgKind {
        let p = |n: NodeId| perm[n as usize];
        let po = |n: Option<NodeId>| n.map(|n| perm[n as usize]);
        let pv = |v: &NodeList| -> NodeList {
            v.iter()
                .map(|&n| perm[n as usize])
                .collect::<Vec<_>>()
                .into()
        };
        match self {
            MsgKind::ReadReq { requester } => MsgKind::ReadReq {
                requester: p(*requester),
            },
            MsgKind::WriteReq { requester } => MsgKind::WriteReq {
                requester: p(*requester),
            },
            MsgKind::ReadReply { adopt } => MsgKind::ReadReply { adopt: pv(adopt) },
            MsgKind::Inv { also, from_dir } => MsgKind::Inv {
                also: po(*also),
                from_dir: *from_dir,
            },
            MsgKind::Update { also, from_dir } => MsgKind::Update {
                also: po(*also),
                from_dir: *from_dir,
            },
            MsgKind::UpdateGrant { adopt } => MsgKind::UpdateGrant { adopt: pv(adopt) },
            MsgKind::WbReq { for_op, requester } => MsgKind::WbReq {
                for_op: *for_op,
                requester: p(*requester),
            },
            MsgKind::WbData { for_op, requester } => MsgKind::WbData {
                for_op: *for_op,
                requester: p(*requester),
            },
            MsgKind::BusRead { requester } => MsgKind::BusRead {
                requester: p(*requester),
            },
            MsgKind::BusReadX { requester } => MsgKind::BusReadX {
                requester: p(*requester),
            },
            MsgKind::BusWindow {
                requester,
                exclusive,
            } => MsgKind::BusWindow {
                requester: p(*requester),
                exclusive: *exclusive,
            },
            MsgKind::SllSupply { requester } => MsgKind::SllSupply {
                requester: p(*requester),
            },
            MsgKind::SllInv { writer } => MsgKind::SllInv { writer: p(*writer) },
            MsgKind::SllChainDone { writer } => MsgKind::SllChainDone { writer: p(*writer) },
            MsgKind::SllSupplyFail { requester } => MsgKind::SllSupplyFail {
                requester: p(*requester),
            },
            MsgKind::SciReadResp { old_head } => MsgKind::SciReadResp {
                old_head: po(*old_head),
            },
            MsgKind::SciWriteResp { old_head } => MsgKind::SciWriteResp {
                old_head: po(*old_head),
            },
            MsgKind::SciPurgeResp { next } => MsgKind::SciPurgeResp { next: po(*next) },
            MsgKind::SciPurgeDone { writer } => MsgKind::SciPurgeDone { writer: p(*writer) },
            MsgKind::SciUnlinkPrev { new_next } => MsgKind::SciUnlinkPrev {
                new_next: po(*new_next),
            },
            MsgKind::SciUnlinkNext { new_prev } => MsgKind::SciUnlinkNext {
                new_prev: po(*new_prev),
            },
            MsgKind::SciNewHead { new_head } => MsgKind::SciNewHead {
                new_head: po(*new_head),
            },
            MsgKind::StpJoinResp { parent } => MsgKind::StpJoinResp {
                parent: po(*parent),
            },
            MsgKind::StpMove {
                replacing,
                new_parent,
                new_children,
            } => MsgKind::StpMove {
                replacing: p(*replacing),
                new_parent: po(*new_parent),
                new_children: pv(new_children),
            },
            MsgKind::StpFixup {
                remove,
                add,
                from_home,
            } => MsgKind::StpFixup {
                remove: po(*remove),
                add: po(*add),
                from_home: *from_home,
            },
            MsgKind::SctDescend { requester, path } => MsgKind::SctDescend {
                requester: p(*requester),
                path: pv(path),
            },
            MsgKind::SctFixup { children } => MsgKind::SctFixup {
                children: pv(children),
            },
            // Kinds with no embedded node ids.
            MsgKind::WriteReply { .. }
            | MsgKind::InvAck { .. }
            | MsgKind::UpdateAck { .. }
            | MsgKind::ReplaceInv
            | MsgKind::ReplNotify
            | MsgKind::WbEvict
            | MsgKind::FillAck
            | MsgKind::BusData { .. }
            | MsgKind::SllData
            | MsgKind::SciAttachReq
            | MsgKind::SciAttachResp
            | MsgKind::SciPurgeReq
            | MsgKind::StpAttach
            | MsgKind::StpAttachAck
            | MsgKind::StpLeave
            | MsgKind::StpFixupAck { .. }
            | MsgKind::StpLeaveDone
            | MsgKind::SctInsertResp
            | MsgKind::SctLeave => self.clone(),
        }
    }

    /// Short label for statistics.
    pub fn label(&self) -> &'static str {
        match self {
            MsgKind::ReadReq { .. } => "read_req",
            MsgKind::WriteReq { .. } => "write_req",
            MsgKind::ReadReply { .. } => "read_reply",
            MsgKind::WriteReply { .. } => "write_reply",
            MsgKind::Inv { .. } => "inv",
            MsgKind::InvAck { .. } => "inv_ack",
            MsgKind::ReplaceInv => "replace_inv",
            MsgKind::ReplNotify => "repl_notify",
            MsgKind::Update { .. } => "update",
            MsgKind::UpdateAck { .. } => "update_ack",
            MsgKind::UpdateGrant { .. } => "update_grant",
            MsgKind::WbReq { .. } => "wb_req",
            MsgKind::WbData { .. } => "wb_data",
            MsgKind::WbEvict => "wb_evict",
            MsgKind::FillAck => "fill_ack",
            MsgKind::BusRead { .. } => "bus_read",
            MsgKind::BusReadX { .. } => "bus_readx",
            MsgKind::BusData { .. } => "bus_data",
            MsgKind::BusWindow { .. } => "bus_window",
            MsgKind::SllSupply { .. } => "sll_supply",
            MsgKind::SllData => "sll_data",
            MsgKind::SllInv { .. } => "sll_inv",
            MsgKind::SllChainDone { .. } => "sll_chain_done",
            MsgKind::SllSupplyFail { .. } => "sll_supply_fail",
            MsgKind::SciReadResp { .. } => "sci_read_resp",
            MsgKind::SciWriteResp { .. } => "sci_write_resp",
            MsgKind::SciAttachReq => "sci_attach_req",
            MsgKind::SciAttachResp => "sci_attach_resp",
            MsgKind::SciPurgeReq => "sci_purge_req",
            MsgKind::SciPurgeResp { .. } => "sci_purge_resp",
            MsgKind::SciPurgeDone { .. } => "sci_purge_done",
            MsgKind::SciUnlinkPrev { .. } => "sci_unlink_prev",
            MsgKind::SciUnlinkNext { .. } => "sci_unlink_next",
            MsgKind::SciNewHead { .. } => "sci_new_head",
            MsgKind::StpJoinResp { .. } => "stp_join_resp",
            MsgKind::StpAttach => "stp_attach",
            MsgKind::StpAttachAck => "stp_attach_ack",
            MsgKind::StpLeave => "stp_leave",
            MsgKind::StpMove { .. } => "stp_move",
            MsgKind::StpFixup { .. } => "stp_fixup",
            MsgKind::StpFixupAck { .. } => "stp_fixup_ack",
            MsgKind::StpLeaveDone => "stp_leave_done",
            MsgKind::SctDescend { .. } => "sct_descend",
            MsgKind::SctInsertResp => "sct_insert_resp",
            MsgKind::SctFixup { .. } => "sct_fixup",
            MsgKind::SctLeave => "sct_leave",
        }
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

    #[test]
    fn labels_are_distinct_for_core_kinds() {
        let kinds = [
            MsgKind::ReadReq { requester: 0 },
            MsgKind::WriteReq { requester: 0 },
            MsgKind::ReadReply {
                adopt: NodeList::default(),
            },
            MsgKind::WriteReply {
                kill_self_subtree: false,
            },
            MsgKind::Inv {
                also: None,
                from_dir: true,
            },
            MsgKind::InvAck { dir: true },
            MsgKind::ReplaceInv,
        ];
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

    #[test]
    fn relabeled_maps_every_node_list_in_order() {
        let perm: Vec<NodeId> = (0..8).rev().collect(); // n -> 7 - n
        let list = || NodeList::from(vec![1, 2, 5]);
        let mapped = || NodeList::from(vec![6, 5, 2]);
        let cases = [
            (
                MsgKind::ReadReply { adopt: list() },
                MsgKind::ReadReply { adopt: mapped() },
            ),
            (
                MsgKind::UpdateGrant { adopt: list() },
                MsgKind::UpdateGrant { adopt: mapped() },
            ),
            (
                MsgKind::StpMove {
                    replacing: 0,
                    new_parent: Some(3),
                    new_children: list(),
                },
                MsgKind::StpMove {
                    replacing: 7,
                    new_parent: Some(4),
                    new_children: mapped(),
                },
            ),
            (
                MsgKind::SctDescend {
                    requester: 4,
                    path: list(),
                },
                MsgKind::SctDescend {
                    requester: 3,
                    path: mapped(),
                },
            ),
            (
                MsgKind::SctFixup { children: list() },
                MsgKind::SctFixup { children: mapped() },
            ),
        ];
        for (kind, want) in cases {
            assert_eq!(kind.relabeled(&perm), want);
        }
        let empty = MsgKind::ReadReply {
            adopt: NodeList::default(),
        };
        assert_eq!(empty.relabeled(&perm), empty);
    }
}
