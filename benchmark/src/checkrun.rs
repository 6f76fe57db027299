//! The `check_mix` workload: exhaustive explorations of six small shapes,
//! and the traced pass's random walk that brackets each `CheckState` call.

use crate::digest::{CheckDigest, EXPECTED_SEED};
use crate::json::Value;
use crate::spans::{Agg, Clock};
use crate::stats::{gmean, median, ratio};
use crate::table::CheckShape;
use crate::{Metrics, Tally};
use dirtree_check::{explore, CheckConfig, CheckState};
use dirtree_core::fingerprint::home_fixing_perms;
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree_core::types::NodeId;
use dirtree_sim::SimRng;
use std::time::Instant;

fn config(nodes: u32, blocks: u64) -> CheckConfig {
    CheckConfig {
        jobs: 1,
        ..CheckConfig::small(nodes, blocks)
    }
}

fn protocol(kind: ProtocolKind) -> Box<dyn Protocol> {
    build_protocol(kind, ProtocolParams::default())
}

/// The initial state of a shape and its symmetry group, built the way
/// `explore` builds them.
fn root_and_group(shape: &CheckShape) -> (CheckState, Vec<Vec<NodeId>>) {
    let cfg = config(shape.nodes, shape.blocks);
    let root = CheckState::new(cfg.nodes, cfg.fuel, cfg.addrs(), protocol(shape.protocol));
    let identity: Vec<NodeId> = (0..cfg.nodes).collect();
    let perms = if cfg.symmetry && root.proto.relabeled(&identity).is_some() {
        let homes: Vec<NodeId> = cfg
            .addrs()
            .iter()
            .map(|&a| (a % cfg.nodes as u64) as NodeId)
            .collect();
        home_fixing_perms(cfg.nodes, &homes)
    } else {
        vec![identity]
    };
    (root, perms)
}

/// What precedes the timed explorations: every shape's root state and
/// symmetry group, and one exploration of the smallest graph there is
/// (FullMap, P=2, one block) so the allocator and caches are warm.
/// Returns the seconds it took.
pub fn setup(shapes: &[CheckShape]) -> f64 {
    let start = Instant::now();
    for shape in shapes {
        std::hint::black_box(root_and_group(shape));
    }
    let warm = explore(&config(2, 1), || protocol(ProtocolKind::FullMap));
    assert!(warm.is_pass(), "warm-up exploration failed: {warm:?}");
    start.elapsed().as_secs_f64()
}

/// One shape's results from the timed pass.
pub struct ShapeRun {
    pub samples_s: Vec<f64>,
    pub digest: CheckDigest,
}

impl ShapeRun {
    pub fn median_s(&self) -> f64 {
        median(&self.samples_s)
    }
}

/// The timed pass: `reps` explorations of every shape.
pub fn plain_pass(
    shapes: &[CheckShape],
    name: &str,
    seed: u64,
    reps: u32,
    tally: &mut Tally,
) -> Vec<ShapeRun> {
    let mut results: Vec<Option<ShapeRun>> = shapes.iter().map(|_| None).collect();
    for _ in 0..reps {
        for (shape, slot) in shapes.iter().zip(results.iter_mut()) {
            let cfg = config(shape.nodes, shape.blocks);
            let start = Instant::now();
            let outcome = explore(&cfg, || protocol(shape.protocol));
            let seconds = start.elapsed().as_secs_f64();
            let digest = CheckDigest::of(&outcome);
            let mut problems = Vec::new();
            if !digest.pass {
                problems.push(format!("{}: outcome is not Pass", shape.label));
            }
            match slot {
                Some(first) if first.digest != digest => problems.push(format!(
                    "{}: counters differ between explorations",
                    shape.label
                )),
                Some(_) => {}
                None if seed == EXPECTED_SEED => {
                    problems.extend(digest.mismatch(name, &shape.label))
                }
                None => {}
            }
            tally.judge(problems);
            slot.get_or_insert(ShapeRun {
                samples_s: Vec::new(),
                digest,
            })
            .samples_s
            .push(seconds);
        }
    }
    results.into_iter().flatten().collect()
}

/// Geometric mean over shapes of successor computations per second.
fn explored_per_s(runs: &[ShapeRun]) -> f64 {
    let per_shape: Vec<f64> = runs
        .iter()
        .map(|r| r.digest.explored as f64 / r.median_s())
        .collect();
    gmean(&per_shape)
}

pub fn end_to_end(runs: &[ShapeRun], m: &mut Metrics) {
    m.set("host_s", runs.iter().map(ShapeRun::median_s).sum());
    // One successor computation is the checker's operation.
    m.set("ops_per_s_gmean", explored_per_s(runs));
}

/// Per-layer metrics that come straight from `ExploreStats`.
pub fn exact_layers(runs: &[ShapeRun], m: &mut Metrics) {
    let sum = |f: &dyn Fn(&CheckDigest) -> u64| runs.iter().map(|r| f(&r.digest) as f64).sum();
    let explored: f64 = sum(&|d| d.explored);
    let sleep_pruned: f64 = sum(&|d| d.sleep_pruned);
    m.set("explored_per_s", explored_per_s(runs));
    m.set("check.explored", explored);
    m.set("check.states", sum(&|d| d.states));
    m.set("check.dedup_frac", ratio(sum(&|d| d.deduped), explored));
    m.set(
        "check.sleep_pruned_frac",
        ratio(sleep_pruned, explored + sleep_pruned),
    );
}

/// Spans of one random walk, one [`Agg`] per bracketed `CheckState` call.
#[derive(Default)]
pub struct Walk {
    pub clone: Agg,
    pub enabled: Agg,
    pub apply: Agg,
    pub post_check: Agg,
    pub digest: Agg,
    pub canon: Agg,
    /// Permutations tried over all `canonicalize` calls.
    pub perms: u64,
}

impl Walk {
    fn named(&self) -> [(&'static str, &Agg); 6] {
        [
            ("check.clone", &self.clone),
            ("check.enabled_choices", &self.enabled),
            ("check.apply", &self.apply),
            ("check.post_check", &self.post_check),
            ("check.digest", &self.digest),
            ("check.canonicalize", &self.canon),
        ]
    }

    pub fn merge(&mut self, other: &Walk) {
        self.clone.merge(&other.clone);
        self.enabled.merge(&other.enabled);
        self.apply.merge(&other.apply);
        self.post_check.merge(&other.post_check);
        self.digest.merge(&other.digest);
        self.canon.merge(&other.canon);
        self.perms += other.perms;
    }

    pub fn edges(&self, clock: &Clock) -> Vec<Value> {
        self.named()
            .iter()
            .map(|(name, agg)| agg.to_json(name, "walk", clock.inside(agg)))
            .collect()
    }
}

/// A seeded random walk over the shape's choice graph (back to the root on
/// a dead end), doing per step what `explore` does per successor: clone,
/// apply, canonicalize, plus `post_check` and `digest` on their own.
pub fn walk(shape: &CheckShape, seed: u64, tally: &mut Tally) -> Walk {
    let (root, perms) = root_and_group(shape);
    let mut rng = SimRng::new(seed);
    let mut w = Walk::default();
    let mut problems = Vec::new();
    let mut cur = root.clone();
    for _ in 0..shape.walk_steps {
        let t = Instant::now();
        let choices = cur.enabled_choices();
        w.enabled.stop(t);
        if choices.is_empty() {
            cur = root.clone();
            continue;
        }
        let choice = choices[rng.gen_index(choices.len())];
        let t = Instant::now();
        let mut next = cur.clone();
        w.clone.stop(t);
        let t = Instant::now();
        let applied = next.apply(choice);
        w.apply.stop(t);
        if let Err(violation) = applied {
            problems.push(format!(
                "{}: walk hit a violation: {violation}",
                shape.label
            ));
            cur = root.clone();
            continue;
        }
        let t = Instant::now();
        let checked = next.post_check();
        w.post_check.stop(t);
        if let Err(violation) = checked {
            problems.push(format!("{}: post_check failed: {violation}", shape.label));
        }
        let t = Instant::now();
        std::hint::black_box(next.digest());
        w.digest.stop(t);
        let t = Instant::now();
        std::hint::black_box(next.canonicalize(&perms, 0));
        w.canon.stop(t);
        w.perms += perms.len() as u64;
        cur = next;
    }
    tally.judge(problems);
    w
}

/// Per-layer metrics of the walks, over all shapes.
pub fn traced_layers(total: &Walk, clock: &Clock, m: &mut Metrics) {
    let per_call = |agg: &Agg| ratio(clock.inside(agg), agg.count as f64);
    m.set("check.apply_ns", per_call(&total.apply));
    m.set("check.clone_ns", per_call(&total.clone));
    m.set("check.enabled_ns", per_call(&total.enabled));
    m.set("check.post_check_ns", per_call(&total.post_check));
    m.set("check.digest_ns", per_call(&total.digest));
    m.set(
        "check.canon_ns_per_perm",
        ratio(clock.inside(&total.canon), total.perms as f64),
    );
    m.set("trace.clock_pair_ns", clock.pair_ns);
}

pub fn shape_rows(shapes: &[CheckShape], runs: &[ShapeRun]) -> Vec<Value> {
    shapes
        .iter()
        .zip(runs)
        .map(|(s, r)| {
            Value::obj()
                .with("label", s.label.as_str())
                .with("median_s", r.median_s())
                .with("samples_s", &r.samples_s)
                .with(
                    "explored_per_s",
                    ratio(r.digest.explored as f64, r.median_s()),
                )
                .with("digest", r.digest.to_json())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CheckShape {
        CheckShape {
            label: "Dir2Tree2/P2B1".into(),
            protocol: ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            nodes: 2,
            blocks: 1,
            walk_steps: 500,
        }
    }

    #[test]
    fn exploration_counters_repeat_exactly() {
        let mut tally = Tally::default();
        let runs = plain_pass(&[tiny()], "test", 7, 2, &mut tally);
        assert_eq!(tally.attempted, 2);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert_eq!(runs[0].samples_s.len(), 2);
        assert!(runs[0].digest.pass && runs[0].digest.explored > 0);
    }

    #[test]
    fn walk_is_seeded_and_brackets_every_call() {
        let mut tally = Tally::default();
        let a = walk(&tiny(), 11, &mut tally);
        let b = walk(&tiny(), 11, &mut tally);
        assert!(tally.failures.is_empty(), "{:?}", tally.failures);
        assert_eq!(a.apply.count, b.apply.count);
        assert_eq!(a.enabled.count, 500);
        assert!(a.apply.count > 0 && a.apply.count == a.canon.count);
        assert_eq!(
            a.perms, a.canon.count,
            "P=2 with home 0 fixed: identity only"
        );
    }

    #[test]
    fn symmetry_group_matches_the_explorer() {
        let shape = CheckShape {
            protocol: ProtocolKind::DirTreeUpdate {
                pointers: 3,
                arity: 3,
            },
            nodes: 5,
            ..tiny()
        };
        let (_, perms) = root_and_group(&shape);
        assert_eq!(perms.len(), 24);
        let outcome = explore(&config(2, 1), || protocol(ProtocolKind::FullMap));
        assert_eq!(outcome.stats().unwrap().sym_group, 1);
    }
}
