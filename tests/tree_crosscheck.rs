//! Cross-check the two independent implementations of the Figure 6
//! insertion algorithm: the analytic replay in `dirtree-analysis` and the
//! real protocol in `dirtree-core`, driven by the zero-latency
//! `testkit::MockCtx`.

use dirtree::analysis::tree_capacity::TreeBuilder;
use dirtree::coherence::dir::dir_tree::DirTree;
use dirtree::coherence::protocol::ProtocolParams;
use dirtree::coherence::testkit::MockCtx;
use dirtree::coherence::types::{Addr, NodeId};

fn drive_reads(pointers: u32, count: u32) -> DirTree {
    let mut ctx = MockCtx::new(1024);
    let mut proto = DirTree::new(pointers, 2, ProtocolParams::default());
    const A: Addr = 0;
    for reader in 1..=count {
        ctx.read(&mut proto, reader, A);
    }
    proto
}

#[test]
fn protocol_and_replay_agree_on_forest_shape() {
    for pointers in [1u32, 2, 4, 8] {
        for count in [3u32, 7, 14, 15, 40, 100] {
            let proto = drive_reads(pointers, count);
            let mut replay = TreeBuilder::new(pointers);
            for _ in 0..count {
                replay.insert();
            }
            let proto_roots: Vec<Option<(u32, u32)>> = proto
                .forest(0)
                .iter()
                .map(|p| p.map(|q| (q.node, q.level)))
                .collect();
            let replay_roots: Vec<Option<(u32, u32)>> = replay
                .pointers()
                .iter()
                .map(|p| p.map(|(r, l, _)| (r, l)))
                .collect();
            assert_eq!(
                proto_roots, replay_roots,
                "Dir{pointers}Tree2 diverged after {count} reads"
            );
        }
    }
}

#[test]
fn protocol_subtree_sizes_match_replay() {
    for count in [7u32, 15, 31] {
        let proto = drive_reads(4, count);
        let mut replay = TreeBuilder::new(4);
        for _ in 0..count {
            replay.insert();
        }
        for (pp, rp) in proto.forest(0).iter().zip(replay.pointers()) {
            match (pp, rp) {
                (Some(p), Some((root, _, size))) => {
                    assert_eq!(p.node, *root);
                    assert_eq!(
                        proto.subtree(p.node, 0).len() as u64,
                        *size,
                        "subtree size mismatch at root {root} ({count} reads)"
                    );
                }
                (None, None) => {}
                other => panic!("pointer shape mismatch: {other:?}"),
            }
        }
    }
}

#[test]
fn every_sharer_is_reachable_from_some_root() {
    for count in [5u32, 14, 15, 50] {
        let proto = drive_reads(4, count);
        let mut reachable: Vec<NodeId> = proto
            .forest(0)
            .iter()
            .flatten()
            .flat_map(|p| proto.subtree(p.node, 0))
            .collect();
        reachable.sort_unstable();
        reachable.dedup();
        assert_eq!(
            reachable,
            (1..=count).collect::<Vec<_>>(),
            "not every reader is in the forest after {count} reads"
        );
    }
}
