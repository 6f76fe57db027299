//! SCI tree extension, IEEE P1596.2 (Johnson, 1993; §2.2 of the paper) —
//! Dir₂Tree₂ with an AVL-balanced sharing tree: the AVL [`Shape`] of a
//! [`HomeTree`](super::home_tree::HomeTree).
//!
//! Sharers form an AVL tree keyed by node id. A read miss descends the
//! tree hop-by-hop to the insertion point (the paper's "4 to 2·log P"
//! read-miss cost) and every rebalancing rotation costs pointer fix-up
//! messages; a write miss invalidates down the balanced tree in
//! logarithmic time; a replacement is an AVL delete with its own fix-up
//! traffic — the "high replacement overhead" of Table 2.

use crate::ctx::ProtoCtx;
use crate::dir::home_tree::{Rec, Shape};
use crate::dir::util::{read_fill, send, send_home, NodeRecs};
use crate::msg::{Msg, MsgKind, NodeList};
use crate::protocol::{ptr_bits, ProtocolKind};
use crate::types::{Addr, NodeId};
use dirtree_sim::FxHashMap;

/// A node of the home-side AVL tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct AvlN {
    l: Option<NodeId>,
    r: Option<NodeId>,
    h: i32,
}

/// What [`Avl::insert`]/[`Avl::remove`] log per pointer write: the node
/// and its `(l, r)` just before the write (`None`: not in the tree). A
/// node written twice is logged twice; the first record is its state
/// before the whole operation.
pub type Touched = Vec<(NodeId, Option<(Option<NodeId>, Option<NodeId>)>)>;

/// An AVL tree of node ids (the sharing set).
#[derive(Default, Clone, PartialEq)]
pub struct Avl {
    nodes: FxHashMap<NodeId, AvlN>,
    root: Option<NodeId>,
}

// Canonical (sorted-key) hash so the model checker's state digest is
// independent of the map's insertion history.
impl std::hash::Hash for Avl {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let mut entries: Vec<(&NodeId, &AvlN)> = self.nodes.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        state.write_usize(entries.len());
        for (k, v) in entries {
            k.hash(state);
            v.hash(state);
        }
        self.root.hash(state);
    }
}

impl Avl {
    fn h(&self, n: Option<NodeId>) -> i32 {
        n.map_or(0, |id| self.nodes[&id].h)
    }

    fn update(&mut self, id: NodeId) {
        let n = self.nodes[&id];
        let h = 1 + self.h(n.l).max(self.h(n.r));
        self.nodes.get_mut(&id).unwrap().h = h;
    }

    fn balance_factor(&self, id: NodeId) -> i32 {
        let n = self.nodes[&id];
        self.h(n.l) - self.h(n.r)
    }

    /// The node whose child pointers are about to be written (or which is
    /// about to enter or leave the tree): log its current pointers.
    fn touch(&mut self, id: NodeId, log: &mut Touched) -> Option<&mut AvlN> {
        let n = self.nodes.get_mut(&id);
        log.push((id, n.as_ref().map(|n| (n.l, n.r))));
        n
    }

    fn set_l(&mut self, id: NodeId, l: Option<NodeId>, log: &mut Touched) {
        self.touch(id, log).expect("set_l on absent node").l = l;
    }

    fn set_r(&mut self, id: NodeId, r: Option<NodeId>, log: &mut Touched) {
        self.touch(id, log).expect("set_r on absent node").r = r;
    }

    fn rotate_right(&mut self, y: NodeId, log: &mut Touched) -> NodeId {
        let x = self.nodes[&y].l.expect("rotate_right without left child");
        let t2 = self.nodes[&x].r;
        self.set_l(y, t2, log);
        self.set_r(x, Some(y), log);
        self.update(y);
        self.update(x);
        x
    }

    fn rotate_left(&mut self, x: NodeId, log: &mut Touched) -> NodeId {
        let y = self.nodes[&x].r.expect("rotate_left without right child");
        let t2 = self.nodes[&y].l;
        self.set_r(x, t2, log);
        self.set_l(y, Some(x), log);
        self.update(x);
        self.update(y);
        y
    }

    fn rebalance(&mut self, id: NodeId, log: &mut Touched) -> NodeId {
        self.update(id);
        let bf = self.balance_factor(id);
        if bf > 1 {
            let l = self.nodes[&id].l.unwrap();
            if self.balance_factor(l) < 0 {
                let new_l = self.rotate_left(l, log);
                self.set_l(id, Some(new_l), log);
            }
            self.rotate_right(id, log)
        } else if bf < -1 {
            let r = self.nodes[&id].r.unwrap();
            if self.balance_factor(r) > 0 {
                let new_r = self.rotate_right(r, log);
                self.set_r(id, Some(new_r), log);
            }
            self.rotate_left(id, log)
        } else {
            id
        }
    }

    fn insert_at(&mut self, root: Option<NodeId>, id: NodeId, log: &mut Touched) -> NodeId {
        let Some(cur) = root else {
            self.touch(id, log);
            self.nodes.insert(
                id,
                AvlN {
                    l: None,
                    r: None,
                    h: 1,
                },
            );
            return id;
        };
        if id < cur {
            let new = self.insert_at(self.nodes[&cur].l, id, log);
            self.set_l(cur, Some(new), log);
        } else if id > cur {
            let new = self.insert_at(self.nodes[&cur].r, id, log);
            self.set_r(cur, Some(new), log);
        } else {
            return cur; // already present
        }
        self.rebalance(cur, log)
    }

    /// Insert `id`, appending every node whose pointers were written to
    /// `log` (O(log n) records).
    pub fn insert(&mut self, id: NodeId, log: &mut Touched) {
        self.root = Some(self.insert_at(self.root, id, log));
    }

    fn min_id(&self, mut cur: NodeId) -> NodeId {
        while let Some(l) = self.nodes[&cur].l {
            cur = l;
        }
        cur
    }

    fn remove_at(&mut self, root: Option<NodeId>, id: NodeId, log: &mut Touched) -> Option<NodeId> {
        let cur = root?;
        if id < cur {
            let new = self.remove_at(self.nodes[&cur].l, id, log);
            self.set_l(cur, new, log);
        } else if id > cur {
            let new = self.remove_at(self.nodes[&cur].r, id, log);
            self.set_r(cur, new, log);
        } else {
            let n = self.nodes[&cur];
            let replacement = match (n.l, n.r) {
                (None, None) => {
                    self.touch(cur, log);
                    self.nodes.remove(&cur);
                    return None;
                }
                (Some(only), None) | (None, Some(only)) => {
                    self.touch(cur, log);
                    self.nodes.remove(&cur);
                    return Some(self.rebalance(only, log));
                }
                (Some(_), Some(r)) => {
                    // Replace with the in-order successor's id.
                    let succ = self.min_id(r);
                    let new_r = self.remove_at(Some(r), succ, log);
                    self.touch(cur, log);
                    let old = self.nodes.remove(&cur).unwrap();
                    // `succ` was logged when it was unlinked just above.
                    self.nodes.insert(
                        succ,
                        AvlN {
                            l: old.l,
                            r: new_r,
                            h: old.h,
                        },
                    );
                    succ
                }
            };
            return Some(self.rebalance(replacement, log));
        }
        Some(self.rebalance(cur, log))
    }

    /// Remove `id`, logging like [`Avl::insert`].
    pub fn remove(&mut self, id: NodeId, log: &mut Touched) {
        self.root = self.remove_at(self.root, id, log);
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = None;
    }

    /// BST descent path from the root to the would-be parent of `id`.
    pub fn descent_path(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        let mut cur = self.root;
        while let Some(c) = cur {
            path.push(c);
            cur = if id < c {
                self.nodes[&c].l
            } else if id > c {
                self.nodes[&c].r
            } else {
                break;
            };
        }
        path
    }

    /// Given the log of one or more inserts/removes, call `emit(node, new
    /// children)` for every node whose child set differs from before them,
    /// in ascending node id order. A newcomer without children is skipped
    /// (its cache-side map starts empty anyway); a node that left gets an
    /// empty list. Only logged nodes are looked at: O(log n), not O(n).
    fn diff_touched(&self, log: &mut Touched, mut emit: impl FnMut(NodeId, Vec<NodeId>)) {
        // Stable sort + dedup keeps each node's first (oldest) record.
        log.sort_by_key(|&(id, _)| id);
        log.dedup_by_key(|&mut (id, _)| id);
        let kids = |(l, r): (Option<NodeId>, Option<NodeId>)| l.into_iter().chain(r);
        for &(id, before) in log.iter() {
            let after = self.nodes.get(&id).map(|n| (n.l, n.r));
            let changed = match (before, after) {
                (None, None) => false,
                (None, Some(a)) => kids(a).next().is_some(),
                (Some(_), None) => true,
                (Some(b), Some(a)) => !kids(b).eq(kids(a)),
            };
            if changed {
                emit(id, after.map(kids).into_iter().flatten().collect());
            }
        }
    }

    /// `(node → children)` snapshot of the whole tree: the cache-side
    /// child lists at quiescence, and the oracle the touched-node diff is
    /// tested against.
    pub fn children_snapshot(&self) -> FxHashMap<NodeId, Vec<NodeId>> {
        self.nodes
            .iter()
            .map(|(&id, n)| {
                let mut c = Vec::new();
                if let Some(l) = n.l {
                    c.push(l);
                }
                if let Some(r) = n.r {
                    c.push(r);
                }
                (id, c)
            })
            .collect()
    }

    /// Validate AVL invariants (tests/debug).
    pub fn validate(&self) {
        fn walk(t: &Avl, n: Option<NodeId>, lo: Option<NodeId>, hi: Option<NodeId>) -> i32 {
            let Some(id) = n else { return 0 };
            if let Some(lo) = lo {
                assert!(id > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(id < hi, "BST order violated");
            }
            let node = t.nodes[&id];
            let hl = walk(t, node.l, lo, Some(id));
            let hr = walk(t, node.r, Some(id), hi);
            assert!((hl - hr).abs() <= 1, "AVL balance violated at {id}");
            assert_eq!(node.h, 1 + hl.max(hr), "stale height at {id}");
            node.h
        }
        walk(self, self.root, None, None);
    }
}

/// The SCI tree extension's shape: an AVL tree keyed by node id.
#[derive(Clone, Default)]
pub struct AvlShape {
    /// Scratch for [`AvlShape::mutate`], reused across calls; empty
    /// between them, so not part of the fingerprint.
    touched: Touched,
}

impl AvlShape {
    /// Apply a structural mutation to the home's tree and send each node
    /// whose child pointers it changed its new children, in ascending node
    /// id order. Returns the number of fix-ups sent; each is acked to the
    /// home.
    fn mutate(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        tree: &mut Avl,
        mutate: impl FnOnce(&mut Avl, &mut Touched),
    ) -> u32 {
        mutate(tree, &mut self.touched);
        #[cfg(debug_assertions)]
        tree.validate();
        let mut fixups = 0;
        tree.diff_touched(&mut self.touched, |id, children| {
            let children = children.into();
            send(ctx, home, id, addr, MsgKind::SctFixup { children });
            fixups += 1;
        });
        self.touched.clear();
        fixups
    }
}

impl Shape for AvlShape {
    type Tree = Avl;
    const LEAVE: MsgKind = MsgKind::SctLeave;

    fn kind(&self) -> ProtocolKind {
        ProtocolKind::SciTree
    }

    fn arity(&self) -> usize {
        2
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        // Two child pointers + balance bits + state.
        2 * ptr_bits(nodes) + 2 + 3
    }

    fn root(tree: &Avl) -> Option<NodeId> {
        tree.root()
    }

    fn contains(tree: &Avl, node: NodeId) -> bool {
        tree.contains(node)
    }

    fn clear(tree: &mut Avl) {
        tree.clear();
    }

    /// The home inserts the requester and sends the fix-ups its rotations
    /// need. A requester that becomes the root (or re-reads while its
    /// leave is still queued) gets the data from the home; any other
    /// descends the tree hop by hop to its insertion point.
    fn join(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        tree: &mut Avl,
        keep: Option<NodeId>,
        requester: NodeId,
    ) -> u32 {
        let path = if tree.is_empty() || tree.contains(requester) {
            Vec::new()
        } else {
            tree.descent_path(requester)
        };
        let fixups = self.mutate(ctx, home, addr, tree, |t, log| {
            if let Some(keep) = keep {
                t.insert(keep, log);
            }
            t.insert(requester, log);
        });
        match path.split_first() {
            None => {
                let adopt = NodeList::default();
                send(ctx, home, requester, addr, MsgKind::ReadReply { adopt });
            }
            Some((&first, rest)) => {
                let path = rest.to_vec().into();
                send(
                    ctx,
                    home,
                    first,
                    addr,
                    MsgKind::SctDescend { requester, path },
                );
            }
        }
        fixups
    }

    /// An AVL delete, paid for in fix-ups.
    fn leave(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        tree: &mut Avl,
        _nodes: &mut NodeRecs<Rec>,
        leaver: NodeId,
    ) -> u32 {
        self.mutate(ctx, home, addr, tree, |t, log| t.remove(leaver, log))
    }

    fn handle(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        msg: Msg,
        nodes: &mut NodeRecs<Rec>,
    ) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::SctFixup { children } => {
                nodes.edit(node, |r| r.children = children.into_vec());
                send_home(ctx, node, addr, MsgKind::StpFixupAck { dir: true });
            }
            MsgKind::SctDescend { requester, path } => match path.split_first() {
                None => send(ctx, node, requester, addr, MsgKind::SctInsertResp),
                Some((&next, rest)) => {
                    let path = rest.to_vec().into();
                    send(
                        ctx,
                        node,
                        next,
                        addr,
                        MsgKind::SctDescend { requester, path },
                    );
                }
            },
            MsgKind::SctInsertResp | MsgKind::ReadReply { .. } => read_fill(ctx, node, addr),
            other => unreachable!("SCI tree extension received {other:?}"),
        }
    }

    fn edges(&self, tree: &Avl) -> Vec<(NodeId, Vec<NodeId>)> {
        tree.children_snapshot().into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::home_tree::HomeTree;
    use crate::testutil::MockCtx;
    use dirtree_sim::SimRng;

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, HomeTree<AvlShape>) {
        (MockCtx::new(nodes), HomeTree::new(AvlShape::default()))
    }

    #[test]
    fn avl_insert_remove_keeps_invariants() {
        let mut t = Avl::default();
        let mut rng = SimRng::new(42);
        let mut present = Vec::new();
        let mut log = Touched::new();
        for _ in 0..200 {
            let id = rng.gen_range(64) as NodeId;
            if present.contains(&id) {
                t.remove(id, &mut log);
                present.retain(|&x| x != id);
            } else {
                t.insert(id, &mut log);
                present.push(id);
            }
            t.validate();
            assert_eq!(t.len(), present.len());
        }
    }

    /// The fix-up targets the whole-tree snapshot diff produced before the
    /// touched-node diff replaced it (ascending id order).
    fn snapshot_diff(
        before: &FxHashMap<NodeId, Vec<NodeId>>,
        after: &FxHashMap<NodeId, Vec<NodeId>>,
    ) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut targets: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for (&id, kids) in after {
            let newcomer_without_children = kids.is_empty() && !before.contains_key(&id);
            if before.get(&id) != Some(kids) && !newcomer_without_children {
                targets.push((id, kids.clone()));
            }
        }
        for (&id, _) in before.iter().filter(|(id, _)| !after.contains_key(*id)) {
            targets.push((id, Vec::new()));
        }
        targets.sort_by_key(|(id, _)| *id);
        targets
    }

    fn touched_diff(t: &Avl, log: &mut Touched) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut targets = Vec::new();
        t.diff_touched(log, |id, kids| targets.push((id, kids)));
        targets
    }

    #[test]
    fn touched_diff_equals_snapshot_diff_on_random_churn() {
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let range = [4, 8, 32, 64, 256][seed as usize % 5];
            let mut t = Avl::default();
            let mut fixups = 0;
            for _ in 0..400 {
                let before = t.children_snapshot();
                let mut log = Touched::new();
                // One to three operations per diff, like `handle_wb`'s
                // double insert; repeats hit the insert-then-remove and
                // already-present cases.
                for _ in 0..1 + rng.gen_range(3) {
                    let id = rng.gen_range(range) as NodeId;
                    if t.contains(id) && rng.gen_range(3) != 0 {
                        t.remove(id, &mut log);
                    } else {
                        t.insert(id, &mut log);
                    }
                }
                t.validate();
                let got = touched_diff(&t, &mut log);
                assert_eq!(got, snapshot_diff(&before, &t.children_snapshot()));
                fixups += got.len();
            }
            assert!(fixups > 100, "seed {seed}: churn produced too few fix-ups");
        }
    }

    #[test]
    fn touched_diff_compares_child_sets_not_slots() {
        // `(Some(a), None)` → `(None, Some(a))` is the same cache-side
        // child list, so (like the snapshot diff) it needs no fix-up; a
        // real change at the same node does.
        let node = |l, r| AvlN { l, r, h: 2 };
        let mut t = Avl::default();
        t.nodes.insert(5, node(None, Some(3)));
        t.nodes.insert(3, AvlN::default());
        let mut log: Touched = vec![(5, Some((Some(3), None)))];
        assert_eq!(touched_diff(&t, &mut log), vec![]);
        let mut log: Touched = vec![(5, Some((Some(4), None))), (5, Some((None, Some(3))))];
        assert_eq!(touched_diff(&t, &mut log), vec![(5, vec![3])]);
        // Entered without children: skipped. Left: told to forget its kids.
        let mut log: Touched = vec![(9, Some((None, None))), (3, None)];
        assert_eq!(touched_diff(&t, &mut log), vec![(9, vec![])]);
    }

    #[test]
    fn avl_height_is_logarithmic() {
        let mut t = Avl::default();
        let mut log = Touched::new();
        for id in 0..1024u32 {
            t.insert(id, &mut log); // adversarial (sorted) insertion order
        }
        t.validate();
        let root = t.root().unwrap();
        let h = t.nodes[&root].h;
        assert!(h <= 15, "AVL height {h} too large for 1024 nodes");
    }

    #[test]
    fn later_reads_descend_to_their_insertion_point() {
        let (mut ctx, mut p) = setup(32);
        ctx.read(&mut p, 5, A);
        let mark = ctx.mark();
        ctx.read(&mut p, 3, A);
        // req + descend(1 hop: root=5) + insert resp = 3 critical, plus
        // possible fix-ups. Within the paper's "4 to 2 log P" ballpark.
        assert!(ctx.critical_since(mark) >= 3);
    }

    #[test]
    fn reads_and_leaves_keep_the_avl_balanced() {
        let (mut ctx, mut p) = setup(32);
        for n in 1..=10 {
            ctx.read(&mut p, n, A);
        }
        p.tree(A).unwrap().validate();
        assert_eq!(p.tree(A).unwrap().len(), 10);
        let mark = ctx.mark();
        ctx.evict(&mut p, 4, A); // interior node
        let t = p.tree(A).unwrap();
        t.validate();
        assert_eq!(t.len(), 9);
        assert!(!t.contains(4));
        let fixups = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::SctFixup { .. }))
            .count();
        assert!(fixups > 0, "the delete pays in fix-ups");
    }
}
