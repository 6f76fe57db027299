//! Heap allocations per explored successor, counted by this test binary's
//! own global allocator — a clock-free guard on what a successor costs.
//!
//! A successor is a clone of its parent (or the parent itself), one
//! `apply` and one canonicalization. Its allocations are what that copies
//! and builds: the message vector, the cache tags, the per-node processor
//! records, the protocol's boxed rows, the relabeled copies a symmetric
//! shape digests. A change that brings a copy back — a witness cloned with
//! every successor, a parent cloned for the last successor too, a buffer
//! allocated per canonicalization — moves these counts by 10–50 %, which
//! no timing gate resolves.
//!
//! The counter is per thread and the exploration runs at `jobs: 1`, on the
//! test's own thread, so nothing else the harness does is counted.

use dirtree_check::{explore, CheckConfig};
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations per explored successor on four shapes, each under a bound
/// about 10 % above what the explorer needed when it was set (5.4, 6.2,
/// 11.9 and 13.8; the two tree shapes need 6.1 and 13.4 since their
/// collectors keep the first debt inline), so a 20 % drift fails. The trivial-group P=2 shapes measure the
/// clone and the transition; the P=3 shapes (|G| = 2) add the
/// canonicalization's relabeled copies.
#[test]
fn successors_stay_within_their_allocation_budget() {
    let tree = ProtocolKind::DirTree {
        pointers: 2,
        arity: 2,
    };
    for (kind, nodes, group, budget) in [
        (ProtocolKind::FullMap, 2, 1, 5.9),
        (tree, 2, 1, 6.8),
        (ProtocolKind::FullMap, 3, 2, 13.0),
        (tree, 3, 2, 15.2),
    ] {
        let cfg = CheckConfig {
            jobs: 1,
            ..CheckConfig::small(nodes, 1)
        };
        let before = ALLOCATIONS.with(Cell::get);
        let outcome = explore(&cfg, || build_protocol(kind, ProtocolParams::default()));
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        let name = format!("{} P={nodes} B=1", kind.name());
        assert!(outcome.is_pass(), "{name}: {outcome:?}");
        let stats = outcome.stats().unwrap();
        assert_eq!(stats.sym_group, group, "{name}");
        let per_successor = allocations as f64 / stats.explored as f64;
        println!("{name}: {per_successor:.2} allocations per explored successor");
        assert!(
            per_successor <= budget,
            "{name}: {per_successor:.2} allocations per explored successor, budget {budget}"
        );
    }
}
