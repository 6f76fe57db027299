//! Property-based tests: arbitrary access mixes must never violate
//! coherence on any protocol, and the machine must stay deterministic.

use dirtree::machine::{DriverOp, Machine, MachineConfig, ScriptDriver};
use dirtree::prelude::*;
use dirtree_core::cache::CacheConfig;
use proptest::prelude::*;

fn arb_op(addr_space: u64) -> impl Strategy<Value = DriverOp> {
    prop_oneof![
        4 => (0..addr_space).prop_map(DriverOp::Read),
        2 => (0..addr_space).prop_map(DriverOp::Write),
        1 => (1u64..20).prop_map(DriverOp::Work),
    ]
}

fn arb_scripts(nodes: usize, addr_space: u64) -> impl Strategy<Value = Vec<Vec<DriverOp>>> {
    proptest::collection::vec(
        proptest::collection::vec(arb_op(addr_space), 0..60),
        nodes..=nodes,
    )
}

fn run(kind: ProtocolKind, scripts: Vec<Vec<DriverOp>>, cache_lines: usize) -> u64 {
    let mut config = MachineConfig::paper_default(4);
    config.verify = true;
    config.cache = CacheConfig { lines: cache_lines };
    let mut machine = Machine::new(config, kind);
    let mut driver = ScriptDriver::new(scripts);
    machine.run(&mut driver).cycles
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn dir_tree_is_coherent_on_arbitrary_mixes(scripts in arb_scripts(4, 32)) {
        run(ProtocolKind::DirTree { pointers: 4, arity: 2 }, scripts, 64);
    }

    #[test]
    fn dir1_tree_is_coherent_on_arbitrary_mixes(scripts in arb_scripts(4, 16)) {
        run(ProtocolKind::DirTree { pointers: 1, arity: 2 }, scripts, 64);
    }

    #[test]
    fn dir_tree_survives_eviction_pressure(scripts in arb_scripts(4, 64)) {
        // Cache of 16 lines vs 64 addresses: constant Replace_INV traffic.
        run(ProtocolKind::DirTree { pointers: 2, arity: 2 }, scripts, 16);
    }

    #[test]
    fn limited_nb_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::LimitedNB { pointers: 1 }, scripts, 32);
    }

    #[test]
    fn limited_b_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::LimitedB { pointers: 2 }, scripts, 32);
    }

    #[test]
    fn singly_list_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::SinglyList, scripts, 32);
    }

    #[test]
    fn sci_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::Sci, scripts, 32);
    }

    #[test]
    fn stp_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::Stp { arity: 2 }, scripts, 32);
    }

    #[test]
    fn sci_tree_is_coherent(scripts in arb_scripts(4, 24)) {
        run(ProtocolKind::SciTree, scripts, 32);
    }

    #[test]
    fn machine_is_deterministic(scripts in arb_scripts(4, 16)) {
        let a = run(ProtocolKind::DirTree { pointers: 4, arity: 2 }, scripts.clone(), 64);
        let b = run(ProtocolKind::DirTree { pointers: 4, arity: 2 }, scripts, 64);
        prop_assert_eq!(a, b);
    }
}
