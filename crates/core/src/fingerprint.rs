//! Canonical state digests for model checking.
//!
//! The model checker (`dirtree-check`) dedups explored states by a single
//! `u64` digest of the *complete* machine + protocol state. Protocol
//! metadata lives in hash maps whose iteration order is unspecified, so a
//! naive `for (k, v) in map` hash would make the digest depend on insertion
//! history — two identical states could digest differently and the visited
//! set would leak. These helpers sort by key first, making the digest a
//! pure function of the state's *content*.

use crate::types::NodeId;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// Digest a map canonically: length, then `(key, value)` pairs in key order.
pub fn digest_map<K, V, S>(h: &mut dyn Hasher, map: &HashMap<K, V, S>)
where
    K: Ord + Hash,
    V: Hash,
{
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    h.write_usize(entries.len());
    let mut h = h;
    for (k, v) in entries {
        k.hash(&mut h);
        v.hash(&mut h);
    }
}

/// Digest a set canonically: length, then elements in order.
pub fn digest_set<K, S>(h: &mut dyn Hasher, set: &std::collections::HashSet<K, S>)
where
    K: Ord + Hash,
{
    let mut keys: Vec<&K> = set.iter().collect();
    keys.sort();
    h.write_usize(keys.len());
    let mut h = h;
    for k in keys {
        k.hash(&mut h);
    }
}

/// Digest any `Hash` value (slices, tuples, options, ...) through the
/// object-safe hasher.
pub fn digest<T: Hash + ?Sized>(h: &mut dyn Hasher, value: &T) {
    let mut h = h;
    value.hash(&mut h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_sim::hash::{FxHashMap, FxHashSet, FxHasher};

    fn run<F: Fn(&mut dyn Hasher)>(f: F) -> u64 {
        let mut h = FxHasher::default();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn map_digest_ignores_insertion_order() {
        let mut a = FxHashMap::<u64, u32>::default();
        let mut b = FxHashMap::<u64, u32>::default();
        for i in 0..100 {
            a.insert(i, (i * 7) as u32);
        }
        for i in (0..100).rev() {
            b.insert(i, (i * 7) as u32);
        }
        assert_eq!(run(|h| digest_map(h, &a)), run(|h| digest_map(h, &b)));
        b.insert(3, 999);
        assert_ne!(run(|h| digest_map(h, &a)), run(|h| digest_map(h, &b)));
    }

    #[test]
    fn set_digest_ignores_insertion_order() {
        let mut a = FxHashSet::<u32>::default();
        let mut b = FxHashSet::<u32>::default();
        for i in 0..50 {
            a.insert(i);
            b.insert(49 - i);
        }
        assert_eq!(run(|h| digest_set(h, &a)), run(|h| digest_set(h, &b)));
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

    #[test]
    fn empty_and_missing_differ_from_present() {
        let empty = FxHashMap::<u64, u32>::default();
        let mut one = FxHashMap::<u64, u32>::default();
        one.insert(0, 0);
        assert_ne!(run(|h| digest_map(h, &empty)), run(|h| digest_map(h, &one)));
    }
}
