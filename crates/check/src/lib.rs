//! # dirtree-check — exhaustive protocol model checker
//!
//! Drives any [`dirtree_core::protocol::Protocol`] through **all**
//! interleavings of pending messages and processor actions for small
//! configurations (2–5 processors, 1–2 blocks, a few operations per
//! processor), checking at every reachable state:
//!
//! * the **single-writer / data-freshness witness** shared with the
//!   simulator ([`dirtree_core::verify`]),
//! * **deadlock-freedom** (a blocked processor with nothing in flight),
//! * the protocol's own **structural invariants**
//!   ([`Protocol::check_invariants`](dirtree_core::protocol::Protocol::check_invariants)
//!   — e.g. Dir_iTree_k's "every valid copy is reachable from the
//!   recorded forest roots" at quiescence),
//! * **bounded progress** — exploration that outruns its depth or state
//!   budget stops with a structured resource report, never a hang.
//!
//! The cycle-level simulator in `dirtree-machine` executes one
//! interleaving per run — the one its timing model produces. The checker
//! complements it: timing is erased and *every* delivery order the
//! network model permits (per-(src,dst) FIFO channels, racing local
//! wake-ups and completions) is explored, so protocol races survive no
//! matter how the latencies land. Violations come back as a minimal
//! counterexample (BFS = shortest choice sequence) that
//! [`replay`](replay::replay) re-executes deterministically into a
//! message-level trace.
//!
//! Two sound reductions keep the larger shapes tractable (see
//! [`explore`] for the soundness arguments): a **processor-permutation
//! symmetry reduction** that canonicalizes each state digest over the
//! home-fixing renamings of certified-equivariant protocols — by sorting
//! the processors on what the checker sees of them and digesting only the
//! renamings that sort, not the whole group — and a
//! **sleep-set partial-order reduction** that skips commuting delivery
//! orders (different executing node *and* different block) without
//! losing any reachable state. Both are per-protocol opt-in
//! ([`dirtree_core::protocol::Protocol::relabeled`] /
//! [`deliveries_commute`](dirtree_core::protocol::Protocol::deliveries_commute)),
//! so uncertified protocols — including the deliberately buggy
//! [`mutants::Mutated`] wrappers — are explored unreduced.
//!
//! Entry points: [`explore::explore`] for one protocol/configuration,
//! the `check_all` binary for the full figure-set sweep
//! (`cargo run -p dirtree-check --bin check_all`) over [`roster::roster`],
//! and
//! [`mutants::Mutated`] for the checker's own mutation tests.

pub mod ctx;
pub mod explore;
pub mod mutants;
pub mod replay;
pub mod report;
pub mod roster;
pub mod state;

pub use ctx::CheckCtx;
pub use explore::{explore, CheckConfig, CheckOutcome, Counterexample};
pub use mutants::{MutantKind, Mutated};
pub use replay::{replay, ReplayReport};
pub use state::{CheckState, Choice, ProcOp};
