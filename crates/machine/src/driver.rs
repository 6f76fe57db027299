//! The workload interface: the machine pulls operations from a [`Driver`].

use dirtree_core::types::{Addr, NodeId};
use dirtree_sim::Cycle;
use std::sync::Arc;

/// One processor operation, as issued by a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverOp {
    /// Load from a shared address (block-granular).
    Read(Addr),
    /// Store to a shared address.
    Write(Addr),
    /// Local computation for the given number of cycles.
    Work(Cycle),
    /// Global barrier (all processors participate; ids distinguish
    /// textually different barriers for debugging only).
    Barrier(u32),
    /// Acquire a lock.
    Lock(u32),
    /// Release a lock (must be held by this processor).
    Unlock(u32),
    /// This processor has finished its program.
    Done,
}

/// Source of processor operations.
///
/// `next_op` is called exactly once per issued operation, when the
/// processor is ready to issue: after the previous operation completed
/// (memory ops), elapsed (work), or was granted (sync ops).
pub trait Driver {
    fn next_op(&mut self, node: NodeId, now: Cycle) -> DriverOp;
}

/// A scripted driver: a fixed operation list per node, read from
/// per-node positions. The lists sit behind an `Arc`, so a sweep replays
/// one recorded trace (`dirtree_workloads::trace`) across many protocol
/// configs without cloning megabytes of ops per simulation. Tests and the
/// microbenchmark harnesses (Table 1, tree shapes) pass plain `Vec`s.
pub struct ScriptDriver {
    scripts: Arc<Vec<Vec<DriverOp>>>,
    pos: Vec<usize>,
}

impl ScriptDriver {
    pub fn new(scripts: impl Into<Arc<Vec<Vec<DriverOp>>>>) -> Self {
        let scripts = scripts.into();
        let pos = vec![0; scripts.len()];
        Self { scripts, pos }
    }

    /// A driver for `nodes` processors where only the listed nodes do
    /// anything.
    pub fn sparse(nodes: u32, active: Vec<(NodeId, Vec<DriverOp>)>) -> Self {
        let mut scripts = vec![Vec::new(); nodes as usize];
        for (n, ops) in active {
            scripts[n as usize] = ops;
        }
        Self::new(scripts)
    }
}

impl Driver for ScriptDriver {
    fn next_op(&mut self, node: NodeId, _now: Cycle) -> DriverOp {
        let n = node as usize;
        match self.scripts[n].get(self.pos[n]) {
            Some(&op) => {
                self.pos[n] += 1;
                op
            }
            None => DriverOp::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_driver_yields_in_order_then_done() {
        let mut d = ScriptDriver::new(vec![vec![DriverOp::Read(1), DriverOp::Work(5)]]);
        assert_eq!(d.next_op(0, 0), DriverOp::Read(1));
        assert_eq!(d.next_op(0, 0), DriverOp::Work(5));
        assert_eq!(d.next_op(0, 0), DriverOp::Done);
        assert_eq!(d.next_op(0, 0), DriverOp::Done);
    }

    #[test]
    fn sparse_fills_inactive_nodes_with_done() {
        let mut d = ScriptDriver::sparse(4, vec![(2, vec![DriverOp::Write(9)])]);
        assert_eq!(d.next_op(0, 0), DriverOp::Done);
        assert_eq!(d.next_op(2, 0), DriverOp::Write(9));
        assert_eq!(d.next_op(2, 0), DriverOp::Done);
    }
}
