//! The paper's four applications plus synthetic microbenchmarks.
//!
//! Each application module provides a parameter struct with:
//! * `build(nprocs) -> ThreadedWorkload` — the execution-driven parallel
//!   program: one `async` block per processor, every shared reference,
//!   barrier and lock an `.await` on its `Env`,
//! * a sequential reference used by tests to validate the parallel result,
//! * unit tests running the app on small configurations under several
//!   protocols with coherence verification enabled.

pub mod fft;
pub mod floyd;
pub mod lu;
pub mod mp3d;
pub mod patterns;
pub mod synthetic;
