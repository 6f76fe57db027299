//! Deterministic counterexample replay.
//!
//! Re-executes an explorer counterexample step by step on a fresh state,
//! recording every network send into a [`MsgTrace`] and describing each
//! applied choice. The replay is pure recomputation — same initial state,
//! same choice sequence — so it must reproduce the exact violation the
//! explorer reported; a mismatch means the protocol's `boxed_clone` /
//! `fingerprint` miss state (the checker's own mutation tests assert the
//! round trip).

use crate::explore::CheckConfig;
use crate::state::{CheckState, Choice};
use dirtree_core::protocol::Protocol;
use dirtree_machine::MsgTrace;

/// The result of replaying a choice sequence.
pub struct ReplayReport {
    /// The violation the final step produced (`None` if the sequence
    /// replayed clean — which for an explorer counterexample is a bug).
    pub violation: Option<String>,
    /// Human-readable description of each applied choice, in order.
    pub steps: Vec<String>,
    /// Message-level trace of the replay, via [`MsgTrace::render`].
    pub trace: String,
    /// Events evicted from the trace ring (see [`MsgTrace::dropped`]);
    /// non-zero means `trace` shows only the tail of the traffic.
    pub trace_dropped: u64,
}

/// Replay `choices` against a fresh `factory()` protocol under `cfg`,
/// tracing up to `trace_capacity` message sends.
pub fn replay<F>(
    cfg: &CheckConfig,
    factory: F,
    choices: &[Choice],
    trace_capacity: usize,
) -> ReplayReport
where
    F: Fn() -> Box<dyn Protocol>,
{
    let mut state = CheckState::new(cfg.nodes, cfg.fuel, cfg.addrs(), factory());
    state.ctx.enable_send_log();
    let mut steps = Vec::with_capacity(choices.len());
    let mut violation = state.post_check().err();
    for &choice in choices {
        if violation.is_some() {
            break;
        }
        steps.push(state.describe(choice));
        violation = state.apply(choice).err();
    }
    let mut trace = MsgTrace::new(trace_capacity.max(1));
    for (at, dst, msg) in state.ctx.send_log() {
        trace.record(*at, *dst, msg);
    }
    ReplayReport {
        violation,
        steps,
        trace: trace.render(),
        trace_dropped: trace.dropped(),
    }
}
