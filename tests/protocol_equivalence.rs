//! The applications compute *real results* through the simulated memory;
//! their data-flow is phase-structured, so the final architectural memory
//! must be bit-identical across every protocol — any divergence means a
//! protocol delivered stale data somewhere.

use dirtree::machine::{Machine, MachineConfig};
use dirtree::prelude::*;

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::FullMap,
        ProtocolKind::LimitedNB { pointers: 1 },
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
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
    ]
}

fn final_memory(kind: ProtocolKind, workload: WorkloadKind, nodes: u32) -> Vec<u64> {
    let mut config = MachineConfig::paper_default(nodes);
    config.verify = true;
    let mut machine = Machine::new(config, kind);
    let mut driver = workload.build(nodes);
    machine.run(&mut driver);
    driver.values().to_vec()
}

#[test]
fn floyd_identical_across_protocols() {
    let w = WorkloadKind::Floyd {
        vertices: 16,
        seed: 11,
    };
    let reference = final_memory(ProtocolKind::FullMap, w, 4);
    for kind in protocols() {
        assert_eq!(
            final_memory(kind, w, 4),
            reference,
            "{} diverged on {}",
            kind.name(),
            w.name()
        );
    }
}

#[test]
fn fft_identical_across_protocols() {
    let w = WorkloadKind::Fft { points: 64 };
    let reference = final_memory(ProtocolKind::FullMap, w, 4);
    for kind in protocols() {
        assert_eq!(final_memory(kind, w, 4), reference, "{}", kind.name());
    }
}

#[test]
fn lu_identical_across_protocols() {
    let w = WorkloadKind::Lu { n: 12 };
    let reference = final_memory(ProtocolKind::FullMap, w, 4);
    for kind in protocols() {
        assert_eq!(final_memory(kind, w, 4), reference, "{}", kind.name());
    }
}

#[test]
fn mp3d_identical_across_protocols() {
    let w = WorkloadKind::Mp3d {
        particles: 60,
        steps: 3,
    };
    let reference = final_memory(ProtocolKind::FullMap, w, 4);
    for kind in protocols() {
        assert_eq!(final_memory(kind, w, 4), reference, "{}", kind.name());
    }
}

#[test]
fn eight_processors_floyd_equivalence() {
    let w = WorkloadKind::Floyd {
        vertices: 12,
        seed: 23,
    };
    let reference = final_memory(ProtocolKind::FullMap, w, 8);
    for kind in [
        ProtocolKind::DirTree {
            pointers: 2,
            arity: 2,
        },
        ProtocolKind::SinglyList,
        ProtocolKind::SciTree,
    ] {
        assert_eq!(final_memory(kind, w, 8), reference, "{}", kind.name());
    }
}
