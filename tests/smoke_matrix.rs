//! Smoke matrix: every workload kind × a representative protocol set at
//! tiny scale, verification on. Breadth over depth — catches wiring
//! regressions anywhere in the stack.

use dirtree::machine::{DriverOp, Machine, MachineConfig, ScriptDriver};
use dirtree::prelude::*;

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 2 },
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTree {
            pointers: 1,
            arity: 2,
        },
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
    ]
}

/// Every `WorkloadKind` once, at smoke size, as a chain through one
/// wildcard-free `match`: each arm names the row after its own variant's.
/// A new variant fails to compile here until it gets an arm, and that arm
/// is where its row goes.
fn workloads() -> Vec<WorkloadKind> {
    use WorkloadKind::*;
    let next = |w: &WorkloadKind| match w {
        Mp3d { .. } => Some(Lu { n: 8 }),
        Lu { .. } => Some(Floyd {
            vertices: 8,
            seed: 5,
        }),
        Floyd { .. } => Some(Fft { points: 32 }),
        Fft { .. } => Some(Sharing {
            blocks: 4,
            rounds: 3,
        }),
        Sharing { .. } => Some(Migratory {
            blocks: 4,
            rounds: 8,
        }),
        Migratory { .. } => Some(Storm {
            words: 96,
            passes: 1,
        }),
        Storm { .. } => Some(PcPipeline {
            buffers: 4,
            rounds: 3,
        }),
        PcPipeline { .. } => Some(TokenRing { tokens: 3, laps: 2 }),
        TokenRing { .. } => Some(Broadcast {
            blocks: 4,
            rounds: 2,
            scans: 2,
        }),
        Broadcast { .. } => Some(FalseShare {
            blocks: 4,
            rounds: 4,
        }),
        FalseShare { .. } => None,
    };
    let first = Mp3d {
        particles: 30,
        steps: 2,
    };
    let rows: Vec<WorkloadKind> = std::iter::successors(Some(first), next).take(64).collect();
    let kinds: std::collections::HashSet<_> = rows.iter().map(std::mem::discriminant).collect();
    assert_eq!(kinds.len(), rows.len(), "the chain visits a variant twice");
    rows
}

#[test]
fn every_workload_runs_on_every_protocol() {
    let mut config = MachineConfig::test_default(4);
    config.cache = dirtree_core::cache::CacheConfig { lines: 48 };
    for w in workloads() {
        for kind in protocols() {
            let mut machine = Machine::new(config, kind);
            let mut driver = w.build(4);
            let out = machine.run(&mut driver);
            assert!(
                out.stats.total_ops() > 0,
                "{} on {} made no progress",
                w.name(),
                kind.name()
            );
        }
    }
}

#[test]
fn stats_are_internally_consistent() {
    for kind in protocols() {
        let out = run_workload(
            &MachineConfig::test_default(4),
            kind,
            WorkloadKind::Floyd {
                vertices: 10,
                seed: 2,
            },
        );
        let s = &out.stats;
        assert_eq!(s.reads, s.read_hits + s.read_misses, "{}", kind.name());
        assert_eq!(s.writes, s.write_hits + s.write_misses, "{}", kind.name());
        assert!(s.fill_acks <= s.messages);
        assert_eq!(s.read_miss_latency.count(), s.read_misses);
        assert_eq!(s.write_miss_latency.count(), s.write_misses);
        assert_eq!(s.sharers_at_write.count(), s.writes);
        assert!(out.net.messages >= s.messages);
    }
}

#[test]
fn torus_topology_end_to_end() {
    // 4-ary 2-cube (16 nodes) instead of the hypercube.
    let mut config = MachineConfig::test_default(16);
    config.topology = dirtree::machine::TopologyKind::KaryNcube { radix: 4 };
    for kind in [
        ProtocolKind::FullMap,
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
    ] {
        let mut machine = Machine::new(config, kind);
        let mut driver = WorkloadKind::Floyd {
            vertices: 12,
            seed: 4,
        }
        .build(16);
        let out = machine.run(&mut driver);
        assert!(out.cycles > 0);
    }
}

/// The shared bus runs directory protocols too (§1's premise is measured
/// with full-map on it): a sharing workload, and eight processors reading
/// eight blocks round-robin while each writes every fourth step, with the
/// witness on.
#[test]
fn bus_fabric_end_to_end() {
    let mut config = MachineConfig::test_default(8);
    config.net = dirtree::net::NetworkConfig::bus();
    config.verify = true;
    let contention = || -> Vec<Vec<DriverOp>> {
        (0..8u64)
            .map(|n| {
                let mut v = Vec::new();
                for i in 0..30u64 {
                    v.push(DriverOp::Read((i + n) % 8));
                    if i % 4 == n % 4 {
                        v.push(DriverOp::Write(i % 8));
                    }
                }
                v
            })
            .collect()
    };
    let tree = ProtocolKind::DirTree {
        pointers: 4,
        arity: 2,
    };
    for kind in [ProtocolKind::FullMap, tree] {
        let mut driver = WorkloadKind::Sharing {
            blocks: 4,
            rounds: 4,
        }
        .build(8);
        Machine::new(config, kind).run(&mut driver);
        let out = Machine::new(config, kind).run(&mut ScriptDriver::new(contention()));
        assert!(out.stats.total_ops() > 0, "{}", kind.name());
    }
}

#[test]
fn eight_processor_matrix_on_trees() {
    for w in [
        WorkloadKind::Floyd {
            vertices: 10,
            seed: 9,
        },
        WorkloadKind::Fft { points: 64 },
    ] {
        for pointers in [1u32, 2, 4, 8] {
            let mut machine = Machine::new(
                MachineConfig::test_default(8),
                ProtocolKind::DirTree { pointers, arity: 2 },
            );
            let mut driver = w.build(8);
            machine.run(&mut driver);
        }
    }
}
