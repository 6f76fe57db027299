//! Hot-block stress: one block read by hundreds of processors and then
//! written, round after round, on the single-channel machine with the
//! sequential-consistency witness on — for every protocol whose home keeps
//! the block's exclusive copy in an ownership record (the flat
//! directories, the home-held trees and Dir_iTree_k). Every home
//! transaction of the block queues behind one gate, every write sends the
//! widest wave its family builds, and every recall resumes a request that
//! waited behind hundreds of others. A violation or a deadlock panics
//! inside `Machine::run`.
//!
//! The P=256 run is part of the default test suite. The P=1024 run takes
//! about 10 s in a debug build on a 2-CPU Xeon host (3 s in release), so
//! it is `#[ignore]`d here and `ci.sh` runs it in release:
//! `cargo test --release --test hot_block_stress -- --ignored`.

use dirtree::machine::{DriverOp, Machine, MachineConfig, ScriptDriver};
use dirtree::prelude::*;

/// The hot block; its home is node 0.
const HOT: u64 = 0;
const ROUNDS: u32 = 3;

fn owner_kinds() -> Vec<ProtocolKind> {
    let (pointers, arity) = (4, 2);
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers },
        ProtocolKind::LimitedB { pointers },
        ProtocolKind::LimitLess { pointers },
        ProtocolKind::Stp { arity },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree { pointers, arity },
        ProtocolKind::DirTreeUpdate { pointers, arity },
        ProtocolKind::DirTreeAdaptive { pointers, arity },
    ]
}

/// Each round, processors `0..readers` read the hot block, then one
/// processor writes it: a reader in odd rounds (an upgrade), the last
/// processor, which never reads, in even ones (a cold write miss). The
/// next round's reads recall the written copy.
fn scripts(nodes: u32, readers: u32) -> Vec<Vec<DriverOp>> {
    (0..nodes)
        .map(|n| {
            let mut ops = Vec::new();
            for round in 0..ROUNDS {
                if n < readers {
                    ops.push(DriverOp::Read(HOT));
                }
                ops.push(DriverOp::Barrier(2 * round));
                let writer = if round % 2 == 1 {
                    round * 37 % readers
                } else {
                    nodes - 1
                };
                if n == writer {
                    ops.push(DriverOp::Write(HOT));
                }
                ops.push(DriverOp::Barrier(2 * round + 1));
            }
            ops
        })
        .collect()
}

fn stress(nodes: u32, readers: u32) {
    assert!(readers < nodes);
    for kind in owner_kinds() {
        let mut config = MachineConfig::paper_default(nodes);
        config.verify = true;
        assert_eq!(config.net.vcs, 1, "the single-channel machine");
        let mut m = Machine::new(config, kind);
        let out = m.run(&mut ScriptDriver::new(scripts(nodes, readers)));
        let ops = u64::from(ROUNDS) * u64::from(readers + 1);
        assert_eq!(out.stats.total_ops(), ops, "{}", kind.name());
    }
}

#[test]
fn hot_block_with_255_sharers_at_p256() {
    stress(256, 255);
}

#[test]
#[ignore = "slow in a debug build; ci.sh runs it in release"]
fn hot_block_with_1000_sharers_at_p1024() {
    stress(1024, 1000);
}
