//! The protocols `check_all` explores, and the ones it leaves out with the
//! test that pins why.

use dirtree_core::protocol::{ProtocolKind, ProtocolParams};

/// One protocol configuration on the roster.
#[derive(Clone, Debug)]
pub struct RosterEntry {
    /// The name `check_all` prints (the kind's name, plus a suffix when
    /// the parameters are not the defaults).
    pub name: String,
    pub kind: ProtocolKind,
    pub params: ProtocolParams,
    /// Also explored at P=5 (the ternary i=3 entries).
    pub p5: bool,
}

impl RosterEntry {
    fn new(kind: ProtocolKind) -> Self {
        Self {
            name: kind.name(),
            kind,
            params: ProtocolParams::default(),
            p5: false,
        }
    }
}

/// Every roster entry, in the order `check_all` runs and prints them: the
/// figure-set protocols under default parameters, plus the shapes the
/// figure set does not cover — Dir2B and LimitLESS2, the update protocol
/// at both pointer counts, the adaptive hybrid and the ternary trees.
pub fn roster() -> Vec<RosterEntry> {
    // The aggressive Schmitt thresholds (flip up at +1, back down below 0)
    // force mode flips in the middle of explored histories, so the
    // drained-transition machinery itself — not just each inner protocol —
    // is model-checked.
    let aggressive = |kind: ProtocolKind| RosterEntry {
        name: format!("{} up1/dn0", kind.name()),
        params: ProtocolParams {
            adapt_flip_up: 1,
            adapt_flip_down: 0,
            ..ProtocolParams::default()
        },
        ..RosterEntry::new(kind)
    };
    let mut roster: Vec<RosterEntry> = ProtocolKind::figure_set()
        .into_iter()
        .map(RosterEntry::new)
        .collect();
    // The two flat-directory overflow policies the figure set leaves out
    // (it carries full-map and Dir_iNB): broadcast and software spill, at
    // i = 2 so that P=3 already overflows the pointers. LimitLESS4 is in
    // the benchmark's and `crates/bench`'s published comparisons.
    roster.push(RosterEntry::new(ProtocolKind::LimitedB { pointers: 2 }));
    roster.push(RosterEntry::new(ProtocolKind::LimitLess { pointers: 2 }));
    for pointers in [1u32, 2] {
        roster.push(RosterEntry::new(ProtocolKind::DirTreeUpdate {
            pointers,
            arity: 2,
        }));
    }
    let adp2 = ProtocolKind::DirTreeAdaptive {
        pointers: 2,
        arity: 2,
    };
    roster.push(RosterEntry::new(adp2));
    roster.push(aggressive(adp2));
    roster.push(aggressive(ProtocolKind::DirTreeAdaptive {
        pointers: 1,
        arity: 2,
    }));
    // Ternary (k=3) tree shapes. Arity only binds at the Figure-6 case-3
    // merge, which fires when all `i` pointers are full and a new
    // requester arrives — so it takes i ≥ 3 for a k=3 tree to behave
    // differently from k=2 at all (for i ≤ 2 at most two equal-height
    // roots ever merge, and the state graphs are identical). The i=3
    // entries below are the smallest shapes where a P=4 frontier adopts
    // *three* equal-height roots in one merge, covering the generalized
    // wave/adoption fan-out the arity-2 sweep cannot reach. That holds for
    // Dir3Tree3 and for the invalidate-mode blocks of Dir3Tree3A only:
    // update blocks merge pairs whatever the arity
    // (`DirTree::insert_sharer`), so Dir3Tree3U explores exactly the k=2
    // graph — pinned by `exhaustive.rs`'s
    // `ternary_update_merge_does_not_diverge_from_binary_at_p5` — and
    // stays on the roster as the shape to re-baseline when the merge width
    // is unified (ROADMAP).
    //
    // The home node holds no pointer for itself, so an i=3 merge needs
    // four *remote* requesters — the ternary entries additionally run at
    // P=5, the smallest population where the three-way adoption is
    // reachable at all.
    let (pointers, arity) = (3, 3);
    let adp3 = ProtocolKind::DirTreeAdaptive { pointers, arity };
    for entry in [
        RosterEntry::new(ProtocolKind::DirTree { pointers, arity }),
        RosterEntry::new(ProtocolKind::DirTreeUpdate { pointers, arity }),
        RosterEntry::new(adp3),
        aggressive(adp3),
    ] {
        roster.push(RosterEntry { p5: true, ..entry });
    }
    roster
}

/// Why a protocol family is not on the [`roster`], naming the test that
/// pins the reason; `None` for the families that are.
pub fn exclusion(kind: ProtocolKind) -> Option<&'static str> {
    match kind {
        ProtocolKind::SinglyList => Some(
            "deadlocks at P=2 and loses SWMR at P=3 \
             (exhaustive.rs: list_and_snoop_counterexamples_are_pinned)",
        ),
        ProtocolKind::Snoop => Some(
            "loses SWMR at P=2 because the checker delivers a bus broadcast point to point \
             (exhaustive.rs: list_and_snoop_counterexamples_are_pinned)",
        ),
        ProtocolKind::Stp { .. } | ProtocolKind::SciTree => Some(
            "loses SWMR to a stale leave at P=2 \
             (exhaustive.rs: baseline_tree_protocols_lose_swmr_to_a_stale_leave)",
        ),
        ProtocolKind::Sci => Some(
            "loses SWMR under eviction pressure at P=8 in simulation \
             (protocol_differential.rs: list_protocols_lose_swmr_under_eviction_pressure)",
        ),
        _ => None,
    }
}
