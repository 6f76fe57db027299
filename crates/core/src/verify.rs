//! Sequential-consistency witness, shared by the simulator and the model
//! checker.
//!
//! The simulator enforces strong consistency (a writer stalls until all
//! invalidation acks arrive), so at every *completed* operation these
//! invariants must hold machine-wide:
//!
//! * **Write completion**: no other cache holds a readable copy — the
//!   single-writer invariant. A protocol that loses an invalidation (stale
//!   pointer, miscounted ack) fails here.
//! * **Read (hit or completed miss)**: the copy being read carries the
//!   latest global version of the block — i.e. no write completed since
//!   this copy was filled. A protocol that acks an invalidation without
//!   actually killing the copy fails here.
//! * **Final state**: every surviving readable copy is current.
//!
//! Versions are per-block write counters maintained by the harness itself
//! (the machine in `dirtree-machine`, the explorer in `dirtree-check`),
//! independent of the protocol under test. Keeping one implementation here
//! means the execution witness and the exhaustive checker can never drift.

use crate::dir::util::NodeRecs;
use crate::fingerprint::digest_rows;
use crate::types::{Addr, NodeId};
use dirtree_sim::BlockTable;
use std::hash::Hasher;

/// The witness state, one row per block.
#[derive(Default, Clone)]
pub struct Verifier {
    blocks: BlockTable<Block>,
}

#[derive(Clone, Default, PartialEq, Hash)]
struct Block {
    /// Global write counter.
    version: u64,
    /// Version each cached copy was filled/written at (`Some(0)`: filled
    /// before the first write, which is not the same as never filled).
    copies: NodeRecs<Option<u64>>,
}

impl Block {
    fn copy_version(&self, node: NodeId) -> u64 {
        self.copies.get(node).copied().flatten().unwrap_or(0)
    }

    /// Bump the write counter and return the new version.
    fn write(&mut self) -> u64 {
        self.version += 1;
        self.version
    }

    fn record(&mut self, node: NodeId, version: u64) {
        self.copies.edit(node, |c| *c = Some(version));
    }
}

/// A detected coherence violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub node: NodeId,
    pub addr: Addr,
    pub kind: ViolationKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A write completed while another readable copy survived at `other`.
    WriterNotExclusive { other: NodeId },
    /// A read observed version `seen` but the block is at `current`.
    StaleRead { seen: u64, current: u64 },
    /// A readable copy at end-of-run is stale.
    StaleSurvivor { seen: u64, current: u64 },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "coherence violation at node {} addr {:#x}: {:?}",
            self.node, self.addr, self.kind
        )
    }
}

impl Verifier {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn version_of(&self, addr: Addr) -> u64 {
        self.blocks.get(addr).map_or(0, |b| b.version)
    }

    /// Version the copy at `node` was filled/written at (0 if never).
    fn copy_version(&self, node: NodeId, addr: Addr) -> u64 {
        self.blocks.get(addr).map_or(0, |b| b.copy_version(node))
    }

    /// A write by `node` completed. `other_holders` must be the nodes (≠
    /// writer) whose caches currently hold a readable copy.
    pub fn on_write_complete(
        &mut self,
        node: NodeId,
        addr: Addr,
        other_holders: &[NodeId],
    ) -> Result<(), Violation> {
        if let Some(&other) = other_holders.first() {
            return Err(Violation {
                node,
                addr,
                kind: ViolationKind::WriterNotExclusive { other },
            });
        }
        let b = self.blocks.get_mut_or_grow(addr);
        let v = b.write();
        b.record(node, v);
        Ok(())
    }

    /// A write by `node` completed under an *update* protocol: all listed
    /// holders received the new value synchronously within the transaction.
    pub fn on_write_complete_update(&mut self, node: NodeId, addr: Addr, holders: &[NodeId]) {
        let b = self.blocks.get_mut_or_grow(addr);
        let v = b.write();
        b.record(node, v);
        for &h in holders {
            b.record(h, v);
        }
    }

    /// A read by `node` completed (miss fill) — the filled copy carries the
    /// current version by construction of the strong-consistency ordering.
    pub fn on_read_fill(&mut self, node: NodeId, addr: Addr) {
        let b = self.blocks.get_mut_or_grow(addr);
        b.record(node, b.version);
    }

    /// A read hit at `node`: its copy must be current.
    pub fn on_read_hit(&self, node: NodeId, addr: Addr) -> Result<(), Violation> {
        let current = self.version_of(addr);
        let seen = self.copy_version(node, addr);
        if seen != current {
            return Err(Violation {
                node,
                addr,
                kind: ViolationKind::StaleRead { seen, current },
            });
        }
        Ok(())
    }

    /// End-of-run check over all surviving readable copies.
    pub fn on_finish<'a>(
        &self,
        survivors: impl Iterator<Item = (NodeId, Addr)> + 'a,
    ) -> Result<(), Violation> {
        for (node, addr) in survivors {
            let current = self.version_of(addr);
            let seen = self.copy_version(node, addr);
            if seen != current {
                return Err(Violation {
                    node,
                    addr,
                    kind: ViolationKind::StaleSurvivor { seen, current },
                });
            }
        }
        Ok(())
    }

    /// Canonical (iteration-order independent) digest of the witness state,
    /// for the model checker's visited-set hashing.
    pub fn digest<H: Hasher + ?Sized>(&self, h: &mut H) {
        digest_rows(h, &self.blocks);
    }

    /// The witness with every node id mapped through `perm`
    /// (`perm[old] = new`), for the checker's symmetry reduction. Versions
    /// are per-block and unaffected; only copy ownership moves.
    pub fn relabeled(&self, perm: &[NodeId]) -> Verifier {
        Verifier {
            blocks: self.blocks.map(|b| Block {
                version: b.version,
                copies: b.copies.relabeled(perm, |&v| v),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_bumps_version_and_requires_exclusivity() {
        let mut v = Verifier::new();
        assert!(v.on_write_complete(1, 10, &[]).is_ok());
        assert_eq!(v.version_of(10), 1);
        let err = v.on_write_complete(2, 10, &[5]).unwrap_err();
        assert!(matches!(
            err.kind,
            ViolationKind::WriterNotExclusive { other: 5 }
        ));
    }

    #[test]
    fn stale_read_detected() {
        let mut v = Verifier::new();
        v.on_read_fill(3, 7);
        assert!(v.on_read_hit(3, 7).is_ok());
        v.on_write_complete(1, 7, &[]).unwrap();
        let err = v.on_read_hit(3, 7).unwrap_err();
        assert!(matches!(
            err.kind,
            ViolationKind::StaleRead {
                seen: 0,
                current: 1
            }
        ));
    }

    #[test]
    fn refetched_copy_is_current_again() {
        let mut v = Verifier::new();
        v.on_read_fill(3, 7);
        v.on_write_complete(1, 7, &[]).unwrap();
        v.on_read_fill(3, 7);
        assert!(v.on_read_hit(3, 7).is_ok());
    }

    #[test]
    fn final_check_flags_stale_survivors() {
        let mut v = Verifier::new();
        v.on_read_fill(3, 7);
        v.on_write_complete(1, 7, &[]).unwrap();
        // Node 3's copy should have been invalidated; pretend it survived.
        let err = v.on_finish([(3u32, 7u64)].into_iter()).unwrap_err();
        assert!(matches!(err.kind, ViolationKind::StaleSurvivor { .. }));
        // Writer's own copy is fine.
        assert!(v.on_finish([(1u32, 7u64)].into_iter()).is_ok());
    }

    #[test]
    fn digest_is_canonical_and_state_sensitive() {
        fn digest_of(v: &Verifier) -> u64 {
            let mut h = dirtree_sim::hash::FxHasher::default();
            v.digest(&mut h);
            std::hash::Hasher::finish(&h)
        }
        let mut a = Verifier::new();
        let mut b = Verifier::new();
        // Same facts inserted in different orders must digest identically.
        for addr in 0..20 {
            a.on_read_fill(1, addr);
        }
        for addr in (0..20).rev() {
            b.on_read_fill(1, addr);
        }
        assert_eq!(digest_of(&a), digest_of(&b));
        a.on_write_complete(2, 3, &[]).unwrap();
        assert_ne!(digest_of(&a), digest_of(&b));
    }
}
