//! Machine driver semantics: synchronization primitives, retry paths, and
//! scheduling determinism.

use dirtree_core::protocol::ProtocolKind;
use dirtree_core::types::NodeId;
use dirtree_machine::{Driver, DriverOp, Machine, MachineConfig, ScriptDriver};

fn machine(nodes: u32) -> Machine {
    Machine::new(MachineConfig::test_default(nodes), ProtocolKind::FullMap)
}

#[test]
fn locks_are_fifo_fair() {
    // Node 0 takes the lock first (everyone else staggers in later);
    // release order must follow arrival order, observable through the
    // per-node completion order of the post-lock write.
    struct Fifo {
        step: Vec<u8>,
        order: std::rc::Rc<std::cell::RefCell<Vec<NodeId>>>,
    }
    impl Driver for Fifo {
        fn next_op(&mut self, node: NodeId, _now: u64) -> DriverOp {
            let s = self.step[node as usize];
            self.step[node as usize] += 1;
            match s {
                0 => DriverOp::Work(1 + node as u64 * 40), // stagger arrivals
                1 => DriverOp::Lock(1),
                2 => {
                    self.order.borrow_mut().push(node);
                    DriverOp::Work(120) // hold long enough to queue everyone
                }
                3 => DriverOp::Unlock(1),
                _ => DriverOp::Done,
            }
        }
    }
    let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut d = Fifo {
        step: vec![0; 4],
        order: order.clone(),
    };
    machine(4).run(&mut d);
    assert_eq!(
        *order.borrow(),
        vec![0, 1, 2, 3],
        "lock grants must be FIFO"
    );
}

#[test]
fn barriers_are_reusable_across_epochs() {
    let scripts: Vec<Vec<DriverOp>> = (0..4u64)
        .map(|n| {
            let mut v = Vec::new();
            for epoch in 0..5u32 {
                v.push(DriverOp::Work(1 + n * 7));
                v.push(DriverOp::Barrier(epoch));
            }
            v
        })
        .collect();
    let mut m = machine(4);
    let out = m.run(&mut ScriptDriver::new(scripts));
    assert_eq!(out.stats.barriers, 5);
}

#[test]
fn same_barrier_id_can_repeat() {
    let scripts: Vec<Vec<DriverOp>> = (0..4u64)
        .map(|_| {
            vec![
                DriverOp::Barrier(0),
                DriverOp::Barrier(0),
                DriverOp::Barrier(0),
            ]
        })
        .collect();
    let out = machine(4).run(&mut ScriptDriver::new(scripts));
    assert_eq!(out.stats.barriers, 3);
}

#[test]
fn zero_cycle_work_still_makes_progress() {
    let out = machine(2).run(&mut ScriptDriver::new(vec![
        vec![DriverOp::Work(0), DriverOp::Work(0), DriverOp::Read(0)],
        vec![],
    ]));
    assert_eq!(out.stats.reads, 1);
}

#[test]
fn nested_locks_do_not_interfere() {
    let scripts: Vec<Vec<DriverOp>> = (0..4u64)
        .map(|n| {
            vec![
                DriverOp::Lock(n as u32 % 2),
                DriverOp::Write(n % 2),
                DriverOp::Unlock(n as u32 % 2),
                DriverOp::Lock(2),
                DriverOp::Read(5),
                DriverOp::Unlock(2),
            ]
        })
        .collect();
    let out = machine(4).run(&mut ScriptDriver::new(scripts));
    assert_eq!(out.stats.lock_acquires, 8);
}

#[test]
#[should_panic(expected = "unlock of unknown lock")]
fn unlock_without_lock_panics() {
    machine(2).run(&mut ScriptDriver::new(vec![
        vec![DriverOp::Unlock(9)],
        vec![],
    ]));
}

#[test]
#[should_panic(expected = "non-owner")]
fn unlock_by_non_owner_panics() {
    machine(2).run(&mut ScriptDriver::new(vec![
        vec![DriverOp::Lock(3), DriverOp::Work(50)],
        vec![DriverOp::Work(10), DriverOp::Unlock(3)],
    ]));
}

#[test]
fn per_node_cycle_accounting_is_plausible() {
    // One hit = CACHE_LATENCY; a miss costs far more.
    let out = machine(2).run(&mut ScriptDriver::new(vec![
        vec![DriverOp::Read(0), DriverOp::Read(0)],
        vec![],
    ]));
    assert_eq!(out.stats.read_hits, 1);
    assert_eq!(out.stats.read_misses, 1);
    assert!(out.stats.read_miss_latency.mean() > 5.0);
}

#[test]
fn deterministic_under_many_equal_time_events() {
    let mk = || {
        let scripts: Vec<Vec<DriverOp>> = (0..8u64)
            .map(|_| (0..30).map(|i| DriverOp::Read(i % 4)).collect())
            .collect();
        Machine::new(
            MachineConfig::test_default(8),
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
        )
        .run(&mut ScriptDriver::new(scripts))
        .cycles
    };
    assert_eq!(mk(), mk());
}
