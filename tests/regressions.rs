//! Deterministic replays of inputs that property testing has caught in
//! the past (from the checked-in `.proptest-regressions` files). The
//! vendored proptest shim does not read those files, so the cases are
//! pinned here as ordinary tests.

use dirtree::machine::{DriverOp, Machine, MachineConfig, ScriptDriver};
use dirtree::prelude::*;
use dirtree_core::cache::CacheConfig;

use DriverOp::{Read, Work, Write};

/// The shrunken counterexample recorded in tests/proptests.proptest-regressions.
fn recorded_scripts() -> Vec<Vec<DriverOp>> {
    vec![
        vec![
            Read(3),
            Read(9),
            Read(8),
            Read(14),
            Read(1),
            Read(0),
            Write(19),
            Read(15),
        ],
        vec![
            Write(7),
            Read(3),
            Read(19),
            Write(16),
            Read(15),
            Read(2),
            Read(22),
            Write(15),
            Read(19),
            Work(19),
            Read(9),
            Read(10),
            Write(21),
            Write(8),
            Read(6),
            Read(13),
            Work(8),
            Read(16),
            Write(2),
            Work(17),
            Read(19),
            Read(5),
            Write(8),
            Read(16),
            Read(1),
            Write(0),
            Read(2),
            Read(16),
            Read(23),
            Work(6),
            Read(7),
            Write(16),
            Read(16),
        ],
        vec![
            Read(23),
            Write(19),
            Write(19),
            Write(0),
            Work(15),
            Write(21),
            Read(18),
            Read(17),
            Write(15),
            Work(9),
            Read(15),
            Read(18),
            Read(12),
            Read(8),
            Read(4),
            Read(23),
            Read(5),
            Write(16),
            Read(8),
            Work(4),
            Read(7),
            Write(2),
            Read(8),
            Read(17),
            Write(21),
            Read(20),
            Work(14),
            Read(21),
            Write(0),
            Read(17),
            Work(4),
            Read(22),
            Read(18),
            Read(5),
            Read(14),
            Write(20),
            Read(10),
            Write(17),
            Read(20),
            Read(9),
            Write(16),
            Read(9),
            Write(3),
            Read(11),
            Work(5),
            Write(18),
            Write(22),
            Work(8),
            Write(11),
            Read(1),
        ],
        vec![
            Write(9),
            Work(2),
            Read(23),
            Write(11),
            Read(7),
            Write(4),
            Read(19),
            Read(19),
            Work(17),
            Write(3),
            Read(13),
            Write(8),
            Read(1),
            Write(0),
            Read(2),
            Read(4),
            Write(11),
            Write(4),
            Write(19),
            Read(3),
            Write(17),
            Work(7),
            Read(7),
            Write(6),
            Read(21),
            Read(10),
            Read(21),
            Read(22),
            Read(7),
            Work(6),
            Read(10),
            Write(11),
            Write(23),
            Write(0),
            Write(21),
            Read(18),
            Read(7),
            Write(20),
            Write(8),
            Work(8),
            Read(4),
            Work(16),
            Work(3),
            Work(7),
            Read(2),
            Read(10),
            Write(3),
            Read(17),
            Read(18),
            Write(12),
            Read(16),
        ],
    ]
}

fn run(kind: ProtocolKind, scripts: Vec<Vec<DriverOp>>, cache_lines: usize) -> u64 {
    let mut config = MachineConfig::paper_default(4);
    config.verify = true;
    config.cache = CacheConfig { lines: cache_lines };
    let mut machine = Machine::new(config, kind);
    let mut driver = ScriptDriver::new(scripts);
    machine.run(&mut driver).cycles
}

/// The recorded mix must stay coherent on every protocol that the
/// original property covered (all the addr-space-24 properties).
#[test]
fn recorded_counterexample_is_coherent_on_every_protocol() {
    for kind in [
        ProtocolKind::LimitedNB { pointers: 1 },
        ProtocolKind::LimitedB { pointers: 2 },
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
        ProtocolKind::FullMap,
        ProtocolKind::LimitLess { pointers: 4 },
    ] {
        run(kind, recorded_scripts(), 32);
    }
}

/// The same mix under eviction pressure (16-line cache, 24 addresses).
#[test]
fn recorded_counterexample_survives_eviction_pressure() {
    for kind in [
        ProtocolKind::DirTree {
            pointers: 2,
            arity: 2,
        },
        ProtocolKind::Sci,
        ProtocolKind::SinglyList,
    ] {
        run(kind, recorded_scripts(), 16);
    }
}
