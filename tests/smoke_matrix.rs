//! Smoke matrix: every workload kind × a representative protocol set at
//! tiny scale, verification on. Breadth over depth — catches wiring
//! regressions anywhere in the stack.

use dirtree::machine::{Machine, MachineConfig};
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
        ProtocolKind::Snoop,
    ]
}

fn workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Mp3d {
            particles: 30,
            steps: 2,
        },
        WorkloadKind::Lu { n: 8 },
        WorkloadKind::Floyd {
            vertices: 8,
            seed: 5,
        },
        WorkloadKind::Fft { points: 32 },
        WorkloadKind::Jacobi { grid: 8, sweeps: 2 },
        WorkloadKind::Sharing {
            blocks: 4,
            rounds: 3,
        },
        WorkloadKind::Migratory {
            blocks: 4,
            rounds: 8,
        },
        WorkloadKind::Storm {
            words: 96,
            passes: 1,
        },
    ]
}

#[test]
fn every_workload_runs_on_every_protocol() {
    let mut config = MachineConfig::test_default(4);
    config.cache = dirtree_core::cache::CacheConfig {
        lines: 48,
        associativity: 48,
    };
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

#[test]
fn bus_fabric_end_to_end() {
    let mut config = MachineConfig::test_default(8);
    config.net = dirtree::net::NetworkConfig::bus();
    for kind in [ProtocolKind::Snoop, ProtocolKind::FullMap] {
        let mut machine = Machine::new(config, kind);
        let mut driver = WorkloadKind::Sharing {
            blocks: 4,
            rounds: 4,
        }
        .build(8);
        machine.run(&mut driver);
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
