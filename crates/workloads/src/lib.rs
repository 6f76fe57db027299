//! # dirtree-workloads — execution-driven applications
//!
//! The paper evaluates coherence protocols by running four applications on
//! the Proteus execution-driven simulator. This crate reproduces that
//! methodology: the *real algorithms* (LU decomposition, FFT,
//! Floyd-Warshall, an MP3D-style particle-in-cell code) run as Rust
//! `async` programs, one per simulated processor, polled on the caller's
//! thread. Run live under the machine, a program yields at every shared
//! memory reference, barrier, and lock, and resumes when the machine has
//! simulated it, so the interleaving of references depends on simulated
//! protocol latencies. The bundled apps are data-race-free with
//! interleaving-independent op streams, which [`trace`] exploits to record
//! each stream once — without a machine, at one poll per barrier or
//! contended lock rather than per operation — and replay it across
//! protocol configs.
//!
//! * [`rendezvous`] — the programs and their two modes: live as a
//!   [`dirtree_machine::Driver`], or recording, where a polled program
//!   performs its own operations on the architectural memory;
//! * [`trace`] — record-once / replay-many op traces for sweeps: the
//!   recording scheduler and the replay driver;
//! * [`layout`] — a bump allocator + typed views over the shared address
//!   space;
//! * [`apps`] — the four paper applications plus synthetic
//!   microbenchmarks;
//! * [`WorkloadKind`] — a uniform constructor used by the experiment
//!   harness.

pub mod apps;
pub mod kind;
pub mod layout;
pub mod phases;
pub mod rendezvous;
pub mod trace;

pub use kind::WorkloadKind;
pub use layout::{Alloc, SharedArray};
pub use rendezvous::{Env, Program, ThreadedWorkload};
pub use trace::{record_ops, OpTrace, ReplayDriver};
