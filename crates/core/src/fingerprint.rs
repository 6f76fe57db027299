//! Canonical state digests for model checking, and the node renaming
//! ([`Relabel`]) its symmetry reduction applies to messages.
//!
//! The model checker (`dirtree-check`) dedups explored states by a single
//! `u64` digest of the *complete* machine + protocol state, so the digest
//! must be a pure function of the state's *content*, never of its history.
//! Protocol state is block-major — one [`BlockTable`] row per block, with
//! per-node records sorted by node id — so walking the rows in address
//! order ([`digest_rows`]) is canonical as it stands.

use crate::types::{NodeId, OpKind};
use dirtree_sim::BlockTable;
use std::hash::{Hash, Hasher};

/// A value whose node ids can be renamed through a relabeling table
/// (`perm[old] = new`) — the checker's processor-permutation symmetry.
///
/// Implemented for [`NodeId`], for `Option`s and `Vec`s of relabelable
/// values, and as a no-op for `bool` and [`OpKind`], so a value of any
/// other type does not relabel until someone decides whether it names a
/// node. [`NodeId`] is a `u32`: an integer that is *not* a node (a count,
/// a generation) needs a newtype with a no-op impl, or it is renamed as one.
pub trait Relabel: Clone {
    /// Rename every node id inside `self` in place.
    fn relabel(&mut self, perm: &[NodeId]);

    /// A copy of `self` with every node id renamed.
    fn relabeled(&self, perm: &[NodeId]) -> Self {
        let mut copy = self.clone();
        copy.relabel(perm);
        copy
    }
}

impl Relabel for NodeId {
    fn relabel(&mut self, perm: &[NodeId]) {
        *self = perm[*self as usize];
    }
}

impl<T: Relabel> Relabel for Option<T> {
    fn relabel(&mut self, perm: &[NodeId]) {
        if let Some(x) = self {
            x.relabel(perm);
        }
    }
}

impl<T: Relabel> Relabel for Vec<T> {
    fn relabel(&mut self, perm: &[NodeId]) {
        for x in self {
            x.relabel(perm);
        }
    }
}

impl Relabel for bool {
    fn relabel(&mut self, _: &[NodeId]) {}
}

impl Relabel for OpKind {
    fn relabel(&mut self, _: &[NodeId]) {}
}

/// All permutations of `0..nodes` that fix every node in `fixed`
/// pointwise, as relabeling tables (`perm[old] = new`), in lexicographic
/// order of the table — so the identity is always first.
///
/// This is the model checker's processor-permutation symmetry group: home
/// nodes are structural (`home_of(addr) = addr % nodes` pins each block's
/// directory to a node), so only renamings that keep every in-play home in
/// place map reachable states to reachable states. The checker's canonical
/// state digest is that of one member of the state's orbit under this group.
pub fn home_fixing_perms(nodes: u32, fixed: &[NodeId]) -> Vec<Vec<NodeId>> {
    let n = nodes as usize;
    let mut is_fixed = vec![false; n];
    for &f in fixed {
        is_fixed[f as usize] = true;
    }
    let free: Vec<NodeId> = (0..nodes).filter(|&i| !is_fixed[i as usize]).collect();
    let mut perms = Vec::new();
    let mut current: Vec<NodeId> = Vec::with_capacity(free.len());
    let mut used = vec![false; free.len()];
    fn rec(
        free: &[NodeId],
        used: &mut Vec<bool>,
        current: &mut Vec<NodeId>,
        nodes: u32,
        is_fixed: &[bool],
        perms: &mut Vec<Vec<NodeId>>,
    ) {
        if current.len() == free.len() {
            let mut perm: Vec<NodeId> = (0..nodes).collect();
            for (slot, &img) in free.iter().zip(current.iter()) {
                perm[*slot as usize] = img;
            }
            debug_assert!(is_fixed
                .iter()
                .enumerate()
                .all(|(i, &f)| !f || perm[i] == i as NodeId));
            perms.push(perm);
            return;
        }
        for i in 0..free.len() {
            if !used[i] {
                used[i] = true;
                current.push(free[i]);
                rec(free, used, current, nodes, is_fixed, perms);
                current.pop();
                used[i] = false;
            }
        }
    }
    rec(&free, &mut used, &mut current, nodes, &is_fixed, &mut perms);
    perms
}

/// The inverse relabeling table of `perm`.
pub fn invert_perm(perm: &[NodeId]) -> Vec<NodeId> {
    let mut inv = vec![0; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as NodeId;
    }
    inv
}

/// Digest a per-block table canonically: every row that differs from the
/// default, as `(addr, row)` in address order, then `u64::MAX` — which no
/// block address reaches (`BlockTable` refuses addresses of 2³² and up), so
/// the stream stays uniquely decodable when more state follows it. A row's
/// derived `Hash` is already canonical when its per-node records are kept
/// sorted ([`crate::dir::util::NodeRecs`]), so nothing is sorted here.
/// Generic over the hasher so a concrete one is called directly; a
/// protocol's `&mut dyn Hasher` feeds it the same bytes.
pub fn digest_rows<H: Hasher + ?Sized, T: Hash + Default + PartialEq>(
    h: &mut H,
    rows: &BlockTable<T>,
) {
    let mut h = h;
    for (addr, row) in rows.iter_nonempty() {
        addr.hash(&mut h);
        row.hash(&mut h);
    }
    h.write_u64(u64::MAX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_sim::hash::FxHasher;

    fn run<F: Fn(&mut dyn Hasher)>(f: F) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn row_digest_skips_default_rows_and_terminates() {
        let mut a: BlockTable<u32> = BlockTable::new();
        let mut b: BlockTable<u32> = BlockTable::new();
        *a.get_mut_or_grow(3) = 7;
        *b.get_mut_or_grow(9) = 0; // grown but default: invisible
        *b.get_mut_or_grow(3) = 7;
        assert_eq!(run(|h| digest_rows(h, &a)), run(|h| digest_rows(h, &b)));
        *b.get_mut_or_grow(9) = 1;
        assert_ne!(run(|h| digest_rows(h, &a)), run(|h| digest_rows(h, &b)));
        // The terminator keeps two tables in a row from running together.
        let empty: BlockTable<u32> = BlockTable::new();
        assert_ne!(
            run(|h| {
                digest_rows(h, &a);
                digest_rows(h, &empty);
            }),
            run(|h| {
                digest_rows(h, &empty);
                digest_rows(h, &a);
            })
        );
    }

    #[test]
    fn home_fixing_perms_enumerate_the_stabilizer() {
        // P=4, one block homed at node 0: all 3! renamings of {1,2,3}.
        let perms = home_fixing_perms(4, &[0]);
        assert_eq!(perms.len(), 6);
        assert_eq!(perms[0], vec![0, 1, 2, 3], "identity must come first");
        for p in &perms {
            assert_eq!(p[0], 0);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
        // All distinct.
        let set: std::collections::HashSet<_> = perms.iter().cloned().collect();
        assert_eq!(set.len(), 6);

        // P=4, homes {0,1}: only swapping 2<->3 remains (plus identity).
        let perms = home_fixing_perms(4, &[0, 1]);
        assert_eq!(perms, vec![vec![0, 1, 2, 3], vec![0, 1, 3, 2]]);

        // P=2, home {0}: the group is trivial.
        assert_eq!(home_fixing_perms(2, &[0]), vec![vec![0, 1]]);
    }

    #[test]
    fn invert_perm_roundtrips() {
        let p = vec![0u32, 3, 1, 2];
        let inv = invert_perm(&p);
        assert_eq!(inv, vec![0, 2, 3, 1]);
        for i in 0..4 {
            assert_eq!(inv[p[i] as usize], i as u32);
        }
    }
}
