//! Heap allocations per simulated event, counted by this test binary's own
//! global allocator — a clock-free gate on what the simulator's event path
//! costs.
//!
//! Each case records one small application trace, builds a machine, and
//! counts the allocations of `Machine::try_run` replaying it, on the
//! test's own thread (the counter is per thread, so nothing the harness or
//! another test does is counted). The counts are pinned exactly, with the
//! run's event count beside them: the simulation is deterministic, so any
//! change to either number is a change to the program. A copy or a buffer
//! brought back onto a per-message path moves the allocation count by
//! whole percents, which no timing gate on this host resolves; a change
//! that alters what is simulated moves the event count.
//!
//! The workspace's dev-dependencies turn the `trace` feature on, so the
//! metrics sink's own allocations are counted too. The counts are the same
//! in debug and release builds (`ci.sh` runs this file in both).

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{DriverOp, Machine, MachineConfig};
use dirtree_workloads::{record_ops, ReplayDriver, WorkloadKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting `alloc` and `realloc` calls per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its own arguments, so
// the caller's `GlobalAlloc` guarantees are the ones `System` needs, and
// every block is allocated and freed by `System`. Counting touches only a
// const-initialized thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as called (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as called (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout` (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NODES: u32 = 16;

/// The three replayed applications: a read-mostly table rewritten each
/// round (wide write waves), a migratory token ring (one-sharer upgrades),
/// and a small Floyd (read misses into growing forests).
const WORKLOADS: [WorkloadKind; 3] = [
    WorkloadKind::Broadcast {
        blocks: 4,
        rounds: 12,
        scans: 2,
    },
    WorkloadKind::TokenRing { tokens: 4, laps: 4 },
    WorkloadKind::Floyd {
        vertices: 16,
        seed: 1996,
    },
];

const fn tree(pointers: u32) -> ProtocolKind {
    ProtocolKind::DirTree { pointers, arity: 2 }
}

/// The flat baselines (full map, Dir₄NB), Dir_iTree_k at two pointer
/// counts and under the update and adaptive policies, and the two other
/// tree protocols (STP, the SCI tree extension).
const PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::FullMap,
    ProtocolKind::LimitedNB { pointers: 4 },
    tree(2),
    tree(4),
    ProtocolKind::DirTreeUpdate {
        pointers: 4,
        arity: 2,
    },
    ProtocolKind::DirTreeAdaptive {
        pointers: 4,
        arity: 2,
    },
    ProtocolKind::Stp { arity: 2 },
    ProtocolKind::SciTree,
];

/// What one replay cost: allocations inside `try_run`, and events.
type Cost = (u64, u64);

/// `(allocations, events)` per workload (rows, [`WORKLOADS`] order) and
/// protocol (columns, [`PROTOCOLS`] order).
#[rustfmt::skip]
const PINNED: [[Cost; 8]; 3] = [
    // FullMap      Dir4NB         Dir2Tree2      Dir4Tree2      Dir4Tree2U     Dir4Tree2A     STP2           SCITreeExt
    [(776, 11552),  (1150, 20416), (723, 11728),  (696, 11728),  (227, 5902),   (348, 6978),   (1043, 14664), (7610, 22680)],
    [(559, 6640),   (559, 6640),   (308, 6640),   (308, 6640),   (367, 36624),  (313, 6640),   (583, 8672),   (851, 8702)],
    [(2683, 51540), (2864, 59468), (5498, 51876), (4421, 51918), (4359, 53552), (4682, 51918), (6461, 67100), (36849, 102560)],
];

/// Driver ops per workload: the denominator of events per op.
const OPS: [u64; 3] = [2160, 1536, 9545];

/// Replay `workload`'s trace on `kind`, counting only `try_run`.
fn replay(workload: WorkloadKind, kind: ProtocolKind) -> (Cost, u64) {
    let trace = Arc::new(record_ops(&mut workload.build(NODES)));
    let ops = trace.iter().map(|s| s.len() as u64).sum();
    let mem_ops = trace
        .iter()
        .flatten()
        .filter(|op| matches!(op, DriverOp::Read(_) | DriverOp::Write(_)))
        .count() as u64;
    let mut machine = Machine::new(MachineConfig::paper_default(NODES), kind);
    let mut driver = ReplayDriver::new(trace);
    let before = ALLOCATIONS.with(Cell::get);
    let out = machine.try_run(&mut driver);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let out = out.unwrap_or_else(|e| panic!("{} on {}: {e}", kind.name(), workload.name()));
    assert_eq!(out.stats.reads + out.stats.writes, mem_ops);
    ((allocations, out.stats.events), ops)
}

/// Every count is exact: a change to the event path moves allocations, a
/// change to what is simulated moves events. On a mismatch the whole
/// measured table is printed in `PINNED`'s layout.
#[test]
fn event_path_allocations_are_pinned() {
    let mut got = [[(0, 0); 8]; 3];
    for (w, workload) in WORKLOADS.into_iter().enumerate() {
        for (p, kind) in PROTOCOLS.into_iter().enumerate() {
            let ((allocations, events), ops) = replay(workload, kind);
            assert_eq!(ops, OPS[w], "{}: driver ops", workload.name());
            println!(
                "{:<22} {:<11} {allocations:>6} allocations {events:>7} events: \
                 {:.4} per event, {:.3} events per op",
                workload.name(),
                kind.name(),
                allocations as f64 / events as f64,
                events as f64 / ops as f64,
            );
            got[w][p] = (allocations, events);
        }
    }
    let table: String = got.iter().map(|row| format!("    {row:?},\n")).collect();
    assert!(got == PINNED, "measured (allocations, events):\n{table}");
}
