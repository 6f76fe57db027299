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
//! credits), witness on. At `vcs = 1` all nine protocols below finish. At
//! `vcs` ∈ {2, 3}, under deterministic and adaptive routing alike, seven
//! of them deadlock with all four processors blocked and no send parked on
//! a full channel — a protocol-level hang, not a buffer cycle. Only SCI
//! and Dir4Tree2U finish.
//!
//! This test pins that behaviour as it stands. The protocol fix (a
//! forwarded request that finds its line transient waits for the
//! outstanding grant instead of being dropped) turns the seven
//! `Deadlock`s into `Ok`, and must update [`FINISH_ON_MANY_VCS`] here.

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
                        assert!(
                            blocked.iter().all(|(_, state)| state == "Blocked"),
                            "{at}: {blocked:?}"
                        );
                        assert!(parked_sends.is_empty(), "{at}: {parked_sends:?}");
                    }
                    other => panic!("{at}: unexpected {other:?}"),
                }
            }
        }
    }
}
