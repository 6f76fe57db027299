//! # dirtree — Dir<sub>i</sub>Tree<sub>k</sub> hybrid cache coherence
//!
//! A from-scratch reproduction of *"An Efficient Hybrid Cache Coherence
//! Protocol for Shared Memory Multiprocessors"* (Chang & Bhuyan, ICPP 1996):
//! the Dir<sub>i</sub>Tree<sub>k</sub> protocol, eight baseline directory /
//! linked-list / tree protocols, a cycle-level multiprocessor simulator over
//! a wormhole-routed binary n-cube, and the execution-driven workloads
//! (MP3D, LU, Floyd-Warshall, FFT) used in the paper's evaluation.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event substrate,
//! * [`net`] — k-ary n-cube network with wormhole timing,
//! * [`coherence`] — the protocols themselves (the paper's contribution
//!   lives in [`coherence::dir::dir_tree`]),
//! * [`machine`] — the simulated multiprocessor,
//! * [`workloads`] — execution-driven applications,
//! * [`analysis`] — analytic models of the paper's tables.
//!
//! [`run_workload`] runs one workload on one protocol at one machine size;
//! the parallel figure harness is `dirtree-bench`.
//!
//! ## Quickstart
//!
//! ```
//! use dirtree::prelude::*;
//!
//! // A 8-processor machine running Dir4Tree2 on the paper's parameters.
//! let config = MachineConfig::paper_default(8);
//! let outcome = run_workload(
//!     &config,
//!     ProtocolKind::DirTree { pointers: 4, arity: 2 },
//!     WorkloadKind::Floyd { vertices: 16, seed: 1 },
//! );
//! assert!(outcome.cycles > 0);
//! ```

pub use dirtree_analysis as analysis;
pub use dirtree_core as coherence;
pub use dirtree_machine as machine;
pub use dirtree_net as net;
pub use dirtree_sim as sim;
pub use dirtree_workloads as workloads;

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{Machine, MachineConfig, RunOutcome};
use dirtree_workloads::WorkloadKind;

/// Run one workload on one protocol at one machine size.
pub fn run_workload(
    config: &MachineConfig,
    protocol: ProtocolKind,
    workload: WorkloadKind,
) -> RunOutcome {
    let mut machine = Machine::new(*config, protocol);
    let mut driver = workload.build(config.nodes);
    machine.run(&mut driver)
}

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::run_workload;
    pub use dirtree_core::protocol::ProtocolKind;
    pub use dirtree_machine::{Machine, MachineConfig};
    pub use dirtree_net::{Network, NetworkConfig, Topology};
    pub use dirtree_sim::SimRng;
    pub use dirtree_workloads::WorkloadKind;
}
