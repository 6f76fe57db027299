//! A pinned witness for ROADMAP's first correctness item, "The
//! virtual-channel fabric breaks an ordering the protocols rely on".
//!
//! DESIGN.md's pairwise-FIFO network holds only at `vcs = 1`. With more
//! channels a home's grant (`WriteReply`, reply class) and its next recall
//! of the same block (`WbReq`, request class) can overtake each other on
//! the way to one cache; the recall then finds the line still `WmIp` and
//! is dropped, and the home waits for write-back data forever.
//!
//! The smallest reproducer known is the bundled `Storm` workload at P = 4
//! on the paper's machine (16 KB caches, so no evictions, and no channel
//! credits), witness on. At `vcs = 1` with deterministic routing all nine
//! protocols below finish. At `vcs` ∈ {2, 3}, under deterministic and
//! adaptive routing alike, seven of them deadlock with all four processors
//! blocked — two on a miss on the storm's block, two at the barrier
//! waiting for them — and no send parked on a full channel: a
//! protocol-level hang, not a buffer cycle. Only SCI and Dir4Tree2U
//! finish.
//!
//! At P = 16 adaptive routing also hangs SinglyLinkedList and Dir4Tree2A
//! at `vcs = 1`. Adaptive routing may send two messages between one pair
//! along different routes, so even one channel no longer keeps them in
//! order; that is the likely cause. [`P16_GRID`] pins every cell of that
//! grid, with the cycle count of each run that finishes.
//!
//! These tests pin that behaviour as it stands. The protocol fix (a
//! forwarded request that finds its line transient waits for the
//! outstanding grant instead of being dropped) turns the seven
//! `Deadlock`s into `Ok`, and must update [`FINISH_ON_MANY_VCS`] and
//! [`P16_GRID`] here.

use dirtree::machine::{Machine, MachineConfig, RunOutcome, StallError};
use dirtree::prelude::{ProtocolKind, WorkloadKind};

fn protocols() -> [ProtocolKind; 9] {
    [
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 4 },
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTreeAdaptive {
            pointers: 4,
            arity: 2,
        },
    ]
}

/// The protocols that finish with more than one virtual channel.
const FINISH_ON_MANY_VCS: [&str; 2] = ["SCI", "Dir4Tree2U"];

fn storm(kind: ProtocolKind, vcs: u32, adaptive: bool) -> Result<RunOutcome, StallError> {
    let mut config = MachineConfig::paper_default(4);
    config.verify = true;
    config.net.vcs = vcs;
    config.net.adaptive = adaptive;
    let mut machine = Machine::new(config, kind);
    let mut driver = WorkloadKind::Storm {
        words: 64,
        passes: 1,
    }
    .build(4);
    machine.try_run(&mut driver)
}

#[test]
fn one_channel_keeps_pair_order_and_every_protocol_finishes() {
    for kind in protocols() {
        match storm(kind, 1, false) {
            Ok(out) => assert_eq!(out.stats.evictions, 0, "{}", kind.name()),
            Err(e) => panic!("{} at vcs = 1: {e}", kind.name()),
        }
    }
}

#[test]
fn more_channels_deadlock_seven_protocols_with_every_processor_blocked() {
    for vcs in [2, 3] {
        for adaptive in [false, true] {
            for kind in protocols() {
                let name = kind.name();
                let at = format!("{name} at vcs = {vcs}, adaptive = {adaptive}");
                let finishes = FINISH_ON_MANY_VCS.contains(&name.as_str());
                match storm(kind, vcs, adaptive) {
                    Ok(out) if finishes => assert_eq!(out.stats.evictions, 0, "{at}"),
                    Err(StallError::Deadlock {
                        finished,
                        nodes,
                        blocked,
                        parked_sends,
                        ..
                    }) if !finishes => {
                        assert_eq!((finished, nodes), (0, 4), "{at}");
                        // Each names what it waits on: two hang on a miss
                        // on the storm's block, two wait for them at the
                        // barrier.
                        let on_miss = |on: &str| on.starts_with("miss on 0x0 (");
                        let misses = blocked.iter().filter(|(_, on)| on_miss(on)).count();
                        let at_barrier = blocked.iter().filter(|(_, on)| on == "barrier 0").count();
                        assert_eq!((misses, at_barrier), (2, 2), "{at}: {blocked:?}");
                        assert!(parked_sends.is_empty(), "{at}: {parked_sends:?}");
                    }
                    other => panic!("{at}: unexpected {other:?}"),
                }
            }
        }
    }
}

/// The P = 16 storm over `vcs` × adaptive routing, one row per setting and
/// one column per protocol, in [`protocols`] order: `Some(cycles)` for a
/// run that finishes, `None` for a deadlock with all sixteen processors
/// blocked, none finished and no send parked on a full channel.
#[rustfmt::skip]
const P16_GRID: [(u32, bool, [Option<u64>; 9]); 6] = [
    //          FullMap      Dir4NB       Dir4Tree2    SinglyList   SCI           STP2         SCITreeExt    Dir4Tree2U   Dir4Tree2A
    (1, false, [Some(6507), Some(8090), Some(6517), Some(7881), Some(10944), Some(9003), Some(12503), Some(8763), Some(6521)]),
    (1, true,  [Some(6525), Some(8201), Some(6020), None,       Some(10074), Some(8905), Some(12111), Some(8646), None]),
    (2, false, [None,       None,       None,       None,       Some(8934),  None,       None,        Some(6941), None]),
    (2, true,  [None,       None,       None,       None,       Some(8681),  None,       None,        Some(6823), None]),
    (3, false, [None,       None,       None,       None,       Some(8340),  None,       None,        Some(6365), None]),
    (3, true,  [None,       None,       None,       None,       Some(8091),  None,       None,        Some(6020), None]),
];

#[test]
fn p16_storm_outcomes_are_pinned_for_every_channel_count_and_routing() {
    const P: u32 = 16;
    for (vcs, adaptive, row) in P16_GRID {
        for (kind, want) in protocols().into_iter().zip(row) {
            let at = format!(
                "{} at P = {P}, vcs = {vcs}, adaptive = {adaptive}",
                kind.name()
            );
            let mut config = MachineConfig::paper_default(P);
            config.verify = true;
            // Every cell ends in under 20 000 events; a livelock fails here
            // instead of running to the default cap of 20 billion.
            config.max_events = 1_000_000;
            config.net.vcs = vcs;
            config.net.adaptive = adaptive;
            let mut machine = Machine::new(config, kind);
            let mut driver = WorkloadKind::Storm {
                words: 64,
                passes: 1,
            }
            .build(P);
            match (machine.try_run(&mut driver), want) {
                (Ok(out), Some(cycles)) => {
                    assert_eq!((out.cycles, out.stats.evictions), (cycles, 0), "{at}")
                }
                (
                    Err(StallError::Deadlock {
                        finished,
                        blocked,
                        parked_sends,
                        ..
                    }),
                    None,
                ) => {
                    assert_eq!((finished, blocked.len()), (0, P as usize), "{at}");
                    assert!(parked_sends.is_empty(), "{at}: {parked_sends:?}");
                }
                (other, _) => panic!("{at}: expected {want:?}, got {other:?}"),
            }
        }
    }
}
