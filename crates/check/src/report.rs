//! Human-readable rendering of exploration results.

use crate::explore::{CheckConfig, CheckOutcome, Counterexample, ExploreStats, SLEEP_MASK_BITS};
use crate::replay::ReplayReport;

/// One-line summary for a pass/limit result, or the full counterexample
/// report (steps, message trace, trace-ring drop count, replay verdict)
/// for a violation.
pub fn render(
    name: &str,
    cfg: &CheckConfig,
    outcome: &CheckOutcome,
    replay: Option<&ReplayReport>,
) -> String {
    let shape = format!("{name} P={} B={} fuel={}", cfg.nodes, cfg.blocks, cfg.fuel);
    match outcome {
        CheckOutcome::Pass {
            states,
            depth,
            stats,
        } => {
            format!(
                "PASS  {shape}: {states} states exhausted, max depth {depth} ({})",
                counters(stats)
            )
        }
        CheckOutcome::ResourceLimit {
            states,
            depth,
            reason,
            stats,
        } => format!(
            "LIMIT {shape}: {reason} (visited {states} states, depth {depth}, {})",
            counters(stats)
        ),
        CheckOutcome::Violation(cx) => {
            let mut out = format!("FAIL  {shape}: {}\n", cx.violation);
            out.push_str(&render_counterexample(cx, replay));
            out
        }
    }
}

/// The work counters of one exploration: successor computations, the two
/// reductions' savings, the symmetry group's order with the mean number of
/// its permutations a canonicalization tried, and — loudly — a sleep-set
/// reduction that was asked for but did not fit the mask.
fn counters(stats: &ExploreStats) -> String {
    let mut out = format!(
        "explored {} dedup {} sleep-pruned {} |G|={} tried {:.2}",
        stats.explored,
        stats.deduped,
        stats.sleep_pruned,
        stats.sym_group,
        stats.mean_perms_tried()
    );
    if stats.por_off_slots > 0 {
        out.push_str(&format!(
            ", POR off: {} choice slots > {SLEEP_MASK_BITS}",
            stats.por_off_slots
        ));
    }
    out
}

/// Render a counterexample, including the replay's per-step narration,
/// message trace, and [`MsgTrace::dropped`](dirtree_machine::MsgTrace::dropped)
/// count when a replay is supplied.
pub fn render_counterexample(cx: &Counterexample, replay: Option<&ReplayReport>) -> String {
    let mut out = format!(
        "  minimal counterexample: {} steps ({} states explored)\n",
        cx.choices.len(),
        cx.states
    );
    match replay {
        Some(r) => {
            for (i, step) in r.steps.iter().enumerate() {
                out.push_str(&format!("    {:>3}. {step}\n", i + 1));
            }
            match &r.violation {
                Some(v) if *v == cx.violation => {
                    out.push_str("  replay: reproduces the violation deterministically\n");
                }
                Some(v) => {
                    out.push_str(&format!(
                        "  replay: DIVERGED — replayed violation was: {v}\n"
                    ));
                }
                None => out.push_str(
                    "  replay: DIVERGED — choice sequence replayed clean (protocol \
                     clone/fingerprint is missing state)\n",
                ),
            }
            out.push_str(&format!(
                "  message trace ({} events dropped from the ring):\n",
                r.trace_dropped
            ));
            for line in r.trace.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
        None => {
            for (i, c) in cx.choices.iter().enumerate() {
                out.push_str(&format!("    {:>3}. {c:?}\n", i + 1));
            }
        }
    }
    out
}
