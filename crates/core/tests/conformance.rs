//! Protocol conformance battery: one standard scenario suite executed
//! against every protocol implementation through the public
//! [`dirtree_core::testkit::MockCtx`]. Each scenario asserts the
//! single-writer/multiple-reader invariant and the expected survivor set,
//! so any new protocol gets the same baseline scrutiny for free.

use dirtree_core::msg::{Msg, MsgKind};
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree_core::testkit::MockCtx;
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::ProtoCtx;

const A: Addr = 0; // home = node 0 for every machine size used here

fn kinds() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 1 },
        ProtocolKind::LimitedNB { pointers: 4 },
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::Stp { arity: 3 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree {
            pointers: 1,
            arity: 2,
        },
        ProtocolKind::DirTree {
            pointers: 2,
            arity: 2,
        },
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTree {
            pointers: 8,
            arity: 2,
        },
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 4,
        },
        ProtocolKind::Snoop,
    ]
}

fn fresh(kind: ProtocolKind) -> (MockCtx, Box<dyn Protocol>) {
    (
        MockCtx::new(16),
        build_protocol(kind, ProtocolParams::default()),
    )
}

/// An update-protocol-aware write helper (writers end V, not E, there).
fn write(ctx: &mut MockCtx, p: &mut dyn Protocol, node: u32) {
    if p.is_update() {
        let before = ctx.completed.len();
        ctx.begin_miss(p, node, A, OpKind::Write);
        ctx.run(p);
        assert!(ctx.completed[before..].contains(&(node, A, OpKind::Write)));
    } else {
        ctx.write(p, node, A);
    }
}

#[test]
fn scenario_single_reader_then_writer() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        ctx.read(&mut *p, 1, A);
        write(&mut ctx, &mut *p, 2);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![2], "{}", kind.name());
    }
}

#[test]
fn scenario_wide_sharing_then_writer() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for n in 1..=12 {
            ctx.read(&mut *p, n, A);
        }
        write(&mut ctx, &mut *p, 14);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![14], "{}", kind.name());
    }
}

#[test]
fn scenario_migratory_chain() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for n in 0..8 {
            ctx.read(&mut *p, n, A);
            write(&mut ctx, &mut *p, n);
            ctx.assert_swmr(A);
        }
        assert_eq!(ctx.holders(A), vec![7], "{}", kind.name());
    }
}

#[test]
fn scenario_upgrade_from_inside_sharers() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for n in 1..=5 {
            ctx.read(&mut *p, n, A);
        }
        write(&mut ctx, &mut *p, 3);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![3], "{}", kind.name());
    }
}

#[test]
fn scenario_evict_middle_then_write() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for n in 1..=6 {
            ctx.read(&mut *p, n, A);
        }
        if ctx.line_state(3, A) == LineState::V {
            ctx.evict(&mut *p, 3, A);
        }
        write(&mut ctx, &mut *p, 9);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![9], "{}", kind.name());
    }
}

#[test]
fn scenario_evict_rejoin_write_storm() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for round in 0..3 {
            for n in 1..=6 {
                ctx.read(&mut *p, n, A);
            }
            // Evict two members (one possibly structural), re-read one.
            if ctx.line_state(2, A) == LineState::V {
                ctx.evict(&mut *p, 2, A);
            }
            if ctx.line_state(5, A) == LineState::V {
                ctx.evict(&mut *p, 5, A);
            }
            ctx.read(&mut *p, 2, A);
            write(&mut ctx, &mut *p, round);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![round], "{} round {round}", kind.name());
        }
    }
}

#[test]
fn scenario_owner_eviction_then_read() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        write(&mut ctx, &mut *p, 4);
        if ctx.line_state(4, A) == LineState::E {
            ctx.evict(&mut *p, 4, A);
        }
        ctx.read(&mut *p, 6, A);
        assert!(ctx.line_state(6, A).readable(), "{}", kind.name());
        ctx.assert_swmr(A);
    }
}

#[test]
fn scenario_alternating_read_write_pairs() {
    for kind in kinds() {
        let (mut ctx, mut p) = fresh(kind);
        for i in 0..10u32 {
            let reader = 1 + (i % 5);
            let writer = 8 + (i % 3);
            ctx.read(&mut *p, reader, A);
            write(&mut ctx, &mut *p, writer);
            ctx.assert_swmr(A);
        }
    }
}

/// A directory `Inv` that finds nothing to kill — its target never read,
/// was invalidated already, or still waits for its own miss to be served —
/// is answered with exactly one `InvAck { dir: true }` to its sender and
/// leaves the line alone; one that finds a valid copy also kills it. Every
/// kind whose caches take `Inv`, at a node holding no child records.
#[test]
fn scenario_stale_invalidation_is_acked_once() {
    use LineState::{Iv, NotPresent, RmIp, WmIp, V};
    const NODE: NodeId = 5;
    for kind in owner_kinds() {
        for before in [NotPresent, Iv, RmIp, WmIp, V] {
            let (mut ctx, mut p) = fresh(kind);
            match before {
                RmIp => ctx.begin_miss(&mut *p, NODE, A, OpKind::Read),
                WmIp => ctx.begin_miss(&mut *p, NODE, A, OpKind::Write),
                V => ctx.read(&mut *p, NODE, A),
                Iv => {
                    ctx.read(&mut *p, NODE, A);
                    write(&mut ctx, &mut *p, NODE + 1);
                }
                _ => {}
            }
            assert_eq!(ctx.line_state(NODE, A), before, "{}", kind.name());
            let mark = ctx.mark();
            let inv = MsgKind::Inv {
                also: None,
                from_dir: true,
            };
            let home = ctx.home_of(A);
            p.handle(
                &mut ctx,
                NODE,
                Msg {
                    addr: A,
                    src: home,
                    kind: inv,
                },
            );
            let ack = MsgKind::InvAck { dir: true };
            let sent: Vec<_> = ctx
                .sent_since(mark)
                .iter()
                .map(|(dst, m)| (*dst, m.src, m.kind.clone()))
                .collect();
            let shape = format!("{} at {before:?}", kind.name());
            assert_eq!(sent, vec![(home, NODE, ack)], "{shape}");
            let after = if before == V { Iv } else { before };
            assert_eq!(ctx.line_state(NODE, A), after, "{shape}");
        }
    }
}

#[test]
fn update_variant_keeps_copies_valid() {
    let kind = ProtocolKind::DirTreeUpdate {
        pointers: 4,
        arity: 2,
    };
    let (mut ctx, mut p) = fresh(kind);
    for n in 1..=6 {
        ctx.read(&mut *p, n, A);
    }
    write(&mut ctx, &mut *p, 9);
    for n in 1..=6 {
        assert!(ctx.line_state(n, A).readable(), "update killed node {n}");
    }
    assert!(ctx.holders(A).len() >= 7);
}

/// The kinds whose home keeps an exclusive copy in an ownership record and
/// recalls it with `WbReq`: every directory family but the two lists and
/// the bus.
fn owner_kinds() -> impl Iterator<Item = ProtocolKind> {
    kinds().into_iter().filter(|k| {
        !matches!(
            k,
            ProtocolKind::SinglyList | ProtocolKind::Sci | ProtocolKind::Snoop
        )
    })
}

/// A dirty block's recall, for every kind with an ownership record: node 2
/// writes, then node 5 reads or writes. The exact messages, in order, and
/// the end states pin the recall, the writeback and the resumed request
/// of every family at once. A recalled read leaves both copies valid; a
/// recalled write moves the one exclusive copy.
#[test]
fn scenario_dirty_recall_resumes_the_request() {
    const OLD: NodeId = 2;
    const NEW: NodeId = 5;
    const HOME: NodeId = 0;
    for kind in owner_kinds() {
        // (sender, label) after the request reaches the home: the home
        // recalls, the owner writes back, and the home resumes.
        let read_tail: &[(NodeId, &str)] = match kind {
            ProtocolKind::Stp { .. } => &[
                (HOME, "stp_join_resp"),
                (NEW, "stp_attach"),
                (OLD, "stp_attach_ack"),
                (NEW, "fill_ack"),
            ],
            ProtocolKind::SciTree => &[
                (HOME, "sct_fixup"),
                (HOME, "read_reply"),
                (OLD, "stp_fixup_ack"),
                (NEW, "fill_ack"),
            ],
            _ => &[(HOME, "read_reply"), (NEW, "fill_ack")],
        };
        for op in [OpKind::Read, OpKind::Write] {
            let (mut ctx, mut p) = fresh(kind);
            ctx.write(&mut *p, OLD, A);
            let mark = ctx.mark();
            let (request, tail, old_after, new_after) = match op {
                OpKind::Read => {
                    ctx.read(&mut *p, NEW, A);
                    ("read_req", read_tail, LineState::V, LineState::V)
                }
                OpKind::Write => {
                    ctx.write(&mut *p, NEW, A);
                    let tail = &[(HOME, "write_reply")][..];
                    ("write_req", tail, LineState::Iv, LineState::E)
                }
            };
            let mut want = vec![(NEW, request), (HOME, "wb_req"), (OLD, "wb_data")];
            want.extend_from_slice(tail);
            let sent: Vec<_> = ctx
                .sent_since(mark)
                .iter()
                .map(|(_, m)| (m.src, m.kind.label()))
                .collect();
            let shape = format!("{} {op:?}", kind.name());
            assert_eq!(sent, want, "{shape}");
            assert_eq!(ctx.line_state(OLD, A), old_after, "{shape}: old owner");
            assert_eq!(ctx.line_state(NEW, A), new_after, "{shape}: requester");
            ctx.assert_swmr(A);
        }
    }
}
