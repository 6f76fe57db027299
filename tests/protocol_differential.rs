//! Cross-protocol differential test on a *seeded random* operation trace.
//!
//! The application tests in `protocol_equivalence.rs` compare real
//! algorithms whose access patterns are highly structured. This suite
//! drives the protocols with a randomized (but seeded and phase-structured)
//! trace instead — see [`dirtree::workloads::phases::PhasedTrace`] for the
//! generator: per phase, a deterministic owner writes each block, a barrier
//! orders the phase, then every processor reads a private random subset of
//! blocks and folds the loaded values into a running checksum. The
//! checksums are the *per-processor read values* — any protocol that ever
//! serves one stale load diverges.
//!
//! Dir_nNB (full-map) is the oracle: its final memory image, including
//! every processor's checksum word, must be matched bit-for-bit by all
//! eight other members of [`ProtocolKind::figure_set`], by the update-write
//! variant, and by the adaptive hybrid (whose per-block mode flips must be
//! architecturally invisible).
//!
//! With the default 64-line caches the trace never evicts. The small-cache
//! test below shrinks the caches until every run replaces hundreds of
//! lines, so the eviction writeback and the recall it may cross are on the
//! compared path too.

use dirtree::coherence::cache::CacheConfig;
use dirtree::machine::{Machine, MachineConfig, StallError};
use dirtree::prelude::*;
use dirtree::workloads::phases::PhasedTrace;

fn trace(seed: u64) -> PhasedTrace {
    PhasedTrace {
        nodes: 8,
        blocks: 24,
        phases: 4,
        reads_per_phase: 12,
        seed,
    }
}

/// Final architectural memory (blocks + per-processor checksum words)
/// after running the seeded trace under `kind`, with the witness on.
fn final_memory(kind: ProtocolKind, seed: u64) -> Vec<u64> {
    let t = trace(seed);
    let mut workload = t.build();
    let mut machine = Machine::new(MachineConfig::test_default(t.nodes), kind);
    machine.run(&mut workload);
    workload.values().to_vec()
}

/// The seeded trace under `kind` with fully associative `lines`-line
/// caches, witness on: the final memory and the number of evictions, or
/// how the run stalled.
fn small_cache_run(
    kind: ProtocolKind,
    seed: u64,
    lines: usize,
) -> Result<(Vec<u64>, u64), StallError> {
    let t = trace(seed);
    let mut workload = t.build();
    let mut cfg = MachineConfig::test_default(t.nodes);
    cfg.cache = CacheConfig {
        lines,
        associativity: lines,
    };
    let mut machine = Machine::new(cfg, kind);
    machine.try_run(&mut workload)?;
    Ok((workload.values().to_vec(), machine.stats().evictions))
}

/// The figure set plus the write-policy variants this repo adds: the
/// update-write tree and the adaptive hybrid.
fn compared_set() -> Vec<ProtocolKind> {
    let mut kinds = ProtocolKind::figure_set();
    kinds.push(ProtocolKind::DirTreeUpdate {
        pointers: 4,
        arity: 2,
    });
    kinds.push(ProtocolKind::DirTreeAdaptive {
        pointers: 4,
        arity: 2,
    });
    kinds
}

/// Seeds 1996, `0xdead_beef` and 0..16, the small-cache test's range.
#[test]
fn all_protocols_agree_on_a_seeded_random_trace() {
    for seed in [1996, 0xdead_beef].into_iter().chain(0..16) {
        let t = trace(seed);
        let oracle = final_memory(ProtocolKind::FullMap, seed);
        // Sanity on the oracle itself: the last phase's published values
        // are in memory and every processor produced a checksum.
        for block in 0..t.blocks {
            assert_eq!(oracle[block as usize], t.published(t.phases - 1, block));
        }
        for tid in 0..t.nodes as u64 {
            assert_ne!(
                oracle[t.checksum_addr(tid) as usize],
                0,
                "tid {tid} read nothing"
            );
        }
        for kind in compared_set() {
            assert_eq!(
                final_memory(kind, seed),
                oracle,
                "{} diverged from the full-map oracle (seed {seed})",
                kind.name()
            );
        }
    }
}

/// The same oracle under eviction pressure: seeds 0..16 with 8-line and
/// 4-line caches, for the figure set, the other flat overflow policies,
/// the two home-held trees and the update and adaptive Dir_iTree_k. SCI
/// and SinglyLinkedList are left out: both lose SWMR on some of these runs
/// (`list_protocols_lose_swmr_under_eviction_pressure`).
#[test]
fn all_protocols_agree_with_small_caches() {
    let mut kinds = compared_set();
    kinds.extend([
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
    ]);
    for lines in [8, 4] {
        for seed in 0..16 {
            let run = |kind: ProtocolKind| {
                small_cache_run(kind, seed, lines).unwrap_or_else(|e| {
                    panic!("{} stalled (seed {seed}, {lines} lines): {e}", kind.name())
                })
            };
            let (oracle, evictions) = run(ProtocolKind::FullMap);
            assert!(
                evictions >= 100,
                "seed {seed}, {lines} lines: only {evictions} evictions"
            );
            for &kind in &kinds {
                assert_eq!(
                    run(kind).0,
                    oracle,
                    "{} diverged from the full-map oracle (seed {seed}, {lines} lines)",
                    kind.name()
                );
            }
        }
    }
}

/// What the small-cache oracle found in the two list protocols: at P = 8
/// with evictions, each grants a writer the block while another copy
/// survives. SCI passes the checker's small shapes, so this is its only
/// counterexample; SinglyLinkedList also fails the checker at P = 2 and 3
/// (`crates/check/tests/exhaustive.rs`, ROADMAP item 3). A fix flips these
/// runs to passes, and the protocol then joins the test above.
#[test]
fn list_protocols_lose_swmr_under_eviction_pressure() {
    for (kind, seed, lines) in [
        (ProtocolKind::Sci, 3, 8),
        (ProtocolKind::Sci, 27, 4),
        (ProtocolKind::SinglyList, 12, 8),
        (ProtocolKind::SinglyList, 23, 8),
    ] {
        let at = format!("{} seed {seed}, {lines} lines", kind.name());
        match small_cache_run(kind, seed, lines) {
            Err(StallError::Witness { violation, .. }) => {
                assert!(
                    violation.contains("WriterNotExclusive"),
                    "{at}: {violation}"
                )
            }
            Err(e) => panic!("{at}: expected a witness violation, got {e}"),
            Ok(_) => panic!("{at}: expected a witness violation, the run passed"),
        }
    }
}
