//! Cross-crate integration: every protocol must keep the machine coherent
//! (single-writer, no stale reads, no stale survivors) under contended,
//! eviction-heavy workloads, with the sequential-consistency witness
//! enabled. A violation or deadlock panics inside `Machine::run`.

use dirtree::machine::{Driver, DriverOp, Machine, MachineConfig};
use dirtree::prelude::*;
use dirtree::sim::SimRng;
use dirtree_core::cache::CacheConfig;
use dirtree_core::types::NodeId;

fn all_protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 1 },
        ProtocolKind::LimitedNB { pointers: 4 },
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 4 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
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
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
    ]
}

/// A driver that replays a deterministic random access mix.
struct RandomMix {
    ops: Vec<std::vec::IntoIter<DriverOp>>,
}

impl RandomMix {
    fn new(nodes: u32, seed: u64, ops_per_node: usize, addr_space: u64, write_pct: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let ops = (0..nodes)
            .map(|n| {
                let mut rng = rng.fork(n as u64);
                let mut v = Vec::with_capacity(ops_per_node + 2);
                for i in 0..ops_per_node {
                    let addr = rng.gen_range(addr_space);
                    if rng.gen_range(100) < write_pct {
                        v.push(DriverOp::Write(addr));
                    } else {
                        v.push(DriverOp::Read(addr));
                    }
                    if i % 50 == 49 {
                        v.push(DriverOp::Barrier(0));
                    }
                }
                // Everyone must reach the same number of barriers.
                let barriers = ops_per_node / 50;
                let mine = v
                    .iter()
                    .filter(|o| matches!(o, DriverOp::Barrier(_)))
                    .count();
                for _ in mine..barriers {
                    v.push(DriverOp::Barrier(0));
                }
                v.into_iter()
            })
            .collect();
        Self { ops }
    }
}

impl Driver for RandomMix {
    fn next_op(&mut self, node: NodeId, _now: u64) -> DriverOp {
        self.ops[node as usize].next().unwrap_or(DriverOp::Done)
    }
}

fn config_with_cache(nodes: u32, lines: usize) -> MachineConfig {
    let mut c = MachineConfig::paper_default(nodes);
    c.verify = true;
    c.cache = CacheConfig { lines };
    c
}

#[test]
fn random_mix_no_evictions() {
    // Address space fits in the cache: pure sharing behaviour.
    for kind in all_protocols() {
        for seed in [1u64, 2, 3] {
            let mut m = Machine::new(config_with_cache(8, 256), kind);
            let mut d = RandomMix::new(8, seed, 150, 64, 20);
            let out = m.run(&mut d);
            assert!(out.stats.total_ops() > 0, "{kind:?} seed {seed}");
        }
    }
}

#[test]
fn random_mix_with_heavy_evictions() {
    // Address space 4× the cache: constant replacement traffic, which is
    // where the silent-replacement / roll-out / repair paths live.
    for kind in all_protocols() {
        let mut m = Machine::new(config_with_cache(4, 32), kind);
        let mut d = RandomMix::new(4, 99, 300, 128, 25);
        let out = m.run(&mut d);
        assert!(
            out.stats.evictions > 0,
            "{kind:?}: eviction pressure failed to materialize"
        );
    }
}

#[test]
fn write_heavy_contention() {
    // 60% writes to a tiny address space: ownership migrates constantly.
    for kind in all_protocols() {
        let mut m = Machine::new(config_with_cache(8, 128), kind);
        let mut d = RandomMix::new(8, 7, 120, 8, 60);
        m.run(&mut d);
    }
}

#[test]
fn single_block_stress() {
    // All processors hammer one block (reads + upgrades): maximal
    // transaction queueing at one home.
    for kind in all_protocols() {
        let scripts: Vec<Vec<DriverOp>> = (0..8u64)
            .map(|n| {
                let mut v = Vec::new();
                for i in 0..40u64 {
                    v.push(DriverOp::Read(0));
                    if (i + n) % 3 == 0 {
                        v.push(DriverOp::Write(0));
                    }
                }
                v
            })
            .collect();
        let mut m = Machine::new(config_with_cache(8, 64), kind);
        let mut d = dirtree::machine::ScriptDriver::new(scripts);
        m.run(&mut d);
    }
}

#[test]
fn larger_machine_smoke() {
    // 32 processors, the paper's largest configuration.
    for kind in [
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 4 },
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
    ] {
        let mut m = Machine::new(config_with_cache(32, 128), kind);
        let mut d = RandomMix::new(32, 5, 80, 96, 25);
        let out = m.run(&mut d);
        assert!(out.cycles > 0);
    }
}
