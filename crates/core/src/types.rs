//! Shared scalar types for the coherence layer.

pub use dirtree_net::NodeId;

/// Block-granular memory address. The paper's block size is 8 bytes — one
/// 64-bit word per block — so an `Addr` is simply a word index into the
/// global shared address space.
pub type Addr = u64;

/// Cache line states, exactly the set from Figure 3 of the paper.
///
/// `E` (exclusive/dirty), `V` (valid/shared), `Iv` (invalid) are stable.
/// `RmIp`/`WmIp` mark an outstanding read/write miss, `WmLip` marks a writer
/// collecting invalidation acknowledgements, and `InvIp` marks a tree node
/// that has been told to invalidate and is still collecting acks from its
/// subtree before acknowledging its parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Exclusive: the only cached copy; may differ from home memory.
    E,
    /// Valid: a read-only shared copy.
    V,
    /// Invalid (tag may still be resident).
    Iv,
    /// Read Miss In Progress.
    RmIp,
    /// Write Miss In Progress (waiting for the grant from home).
    WmIp,
    /// Write Miss — Local Invalidation in Progress (writer granted, home or
    /// writer collecting acks; writer stalls until acks complete).
    WmLip,
    /// Invalidation In Progress: invalidated locally, waiting for subtree
    /// acknowledgements before acking the parent.
    InvIp,
    /// The tag is not resident at all. Never stored in a cache; returned by
    /// lookups for absent lines.
    NotPresent,
}

impl LineState {
    /// Can a processor read from this line without a transaction?
    #[inline]
    pub fn readable(self) -> bool {
        matches!(self, LineState::V | LineState::E)
    }

    /// Can a processor write to this line without a transaction?
    #[inline]
    pub fn writable(self) -> bool {
        matches!(self, LineState::E)
    }

    /// Is a transaction in flight (line must not be chosen as a victim)?
    #[inline]
    pub fn transient(self) -> bool {
        matches!(
            self,
            LineState::RmIp | LineState::WmIp | LineState::WmLip | LineState::InvIp
        )
    }
}

/// Processor operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Read,
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readability_matrix() {
        assert!(LineState::V.readable());
        assert!(LineState::E.readable());
        assert!(!LineState::Iv.readable());
        assert!(!LineState::RmIp.readable());
        assert!(!LineState::NotPresent.readable());
    }

    #[test]
    fn writability_matrix() {
        assert!(LineState::E.writable());
        assert!(!LineState::V.writable());
        assert!(!LineState::WmIp.writable());
    }

    #[test]
    fn transient_lines_are_not_victims() {
        for st in [
            LineState::RmIp,
            LineState::WmIp,
            LineState::WmLip,
            LineState::InvIp,
        ] {
            assert!(st.transient());
        }
        for st in [
            LineState::E,
            LineState::V,
            LineState::Iv,
            LineState::NotPresent,
        ] {
            assert!(!st.transient());
        }
    }
}
