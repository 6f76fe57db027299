//! The correctness side of the benchmark: a digest over everything a run
//! reports, compared against `expected.json` (seed 1996) and against the
//! other runs of the same config (any seed).

use crate::json::{self, Value};
use dirtree_check::CheckOutcome;
use dirtree_machine::RunOutcome;
use std::hash::Hasher;
use std::sync::OnceLock;

/// The seed `expected.json` was written for.
pub const EXPECTED_SEED: u64 = 1996;

fn hash_debug(parts: &[&dyn std::fmt::Debug]) -> String {
    let mut h = dirtree_sim::hash::FxHasher::default();
    for part in parts {
        h.write(format!("{part:?}").as_bytes());
    }
    format!("{:016x}", h.finish())
}

/// Digest of one simulation. `sim` covers `stats` and `NetworkStats`;
/// `full` adds the `MetricsSnapshot`, which is all-zero without the `trace`
/// feature, so only `sim` is comparable across the two builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimDigest {
    pub cycles: u64,
    pub events: u64,
    pub sim: String,
    pub full: String,
}

impl SimDigest {
    pub fn of(out: &RunOutcome) -> Self {
        Self {
            cycles: out.cycles,
            events: out.stats.events,
            sim: hash_debug(&[&out.stats, &out.net]),
            full: hash_debug(&[&out.stats, &out.net, &out.metrics]),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("cycles", self.cycles)
            .with("events", self.events)
            .with("sim", self.sim.as_str())
            .with("full", self.full.as_str())
    }

    /// Why this digest differs from the committed one, if it does.
    pub fn mismatch(&self, workload: &str, label: &str) -> Option<String> {
        let Some(want) = expected(workload, label) else {
            return Some(format!("{label}: no entry in expected.json"));
        };
        let field = |k: &str| want.get(k).and_then(Value::as_str).unwrap_or("");
        let count = |k: &str| want.get(k).and_then(Value::as_f64).unwrap_or(-1.0) as u64;
        if count("cycles") != self.cycles || count("events") != self.events {
            return Some(format!(
                "{label}: cycles/events {}/{} differ from expected {}/{}",
                self.cycles,
                self.events,
                count("cycles"),
                count("events")
            ));
        }
        if field("sim") != self.sim {
            return Some(format!("{label}: stats/net digest differs from expected"));
        }
        if cfg!(feature = "trace") && field("full") != self.full {
            return Some(format!("{label}: metrics digest differs from expected"));
        }
        None
    }
}

/// What one exploration must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckDigest {
    pub states: u64,
    pub explored: u64,
    pub deduped: u64,
    pub sleep_pruned: u64,
    pub pass: bool,
}

impl CheckDigest {
    pub fn of(out: &CheckOutcome) -> Self {
        let stats = out.stats().unwrap_or_default();
        Self {
            states: out.states(),
            explored: stats.explored,
            deduped: stats.deduped,
            sleep_pruned: stats.sleep_pruned,
            pass: out.is_pass(),
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("states", self.states)
            .with("explored", self.explored)
            .with("deduped", self.deduped)
            .with("sleep_pruned", self.sleep_pruned)
            .with("pass", self.pass)
    }

    pub fn mismatch(&self, workload: &str, label: &str) -> Option<String> {
        let Some(want) = expected(workload, label) else {
            return Some(format!("{label}: no entry in expected.json"));
        };
        let count = |k: &str| want.get(k).and_then(Value::as_f64).map(|v| v as u64);
        let same = count("states") == Some(self.states)
            && count("explored") == Some(self.explored)
            && count("deduped") == Some(self.deduped)
            && count("sleep_pruned") == Some(self.sleep_pruned)
            && want.get("pass").and_then(Value::as_bool) == Some(self.pass);
        (!same).then(|| format!("{label}: exploration counters differ from expected"))
    }
}

fn expected(workload: &str, label: &str) -> Option<&'static Value> {
    static DOC: OnceLock<Value> = OnceLock::new();
    DOC.get_or_init(|| {
        json::parse(include_str!("../expected.json")).expect("expected.json is valid JSON")
    })
    .get(workload)?
    .get(label)
}
