//! Exhaustively model-check every protocol of the paper's figure set, the
//! other two flat directories (Dir2B, LimitLESS2) and the update, adaptive
//! and ternary Dir_iTree_k shapes.
//!
//! Usage:
//!   cargo run --release -p dirtree-check --bin check_all [-- FLAGS]
//!
//! Flags:
//!   --fast          only P=2 / 1 block (the CI fast tier)
//!   --deep          additionally P=2/P=3 with 2 blocks and the *full*
//!                   P=4 + ternary-P=5 sweep (no time budget)
//!   --budget SECS   time budget for the default tier's P>=4 slice
//!                   (default 60; ignored under --fast/--deep)
//!   --no-sym        disable the processor-permutation symmetry reduction
//!   --no-por        disable the sleep-set partial-order reduction
//!   --jobs N        worker threads per exploration (default: all cores)
//!   --filter STR    only protocols whose name contains STR
//!   --fuel N        override operations per processor
//!
//! The default tier runs every roster entry at P=2 and P=3, then as many
//! P=4 explorations (plus the ternary i=3 entries at P=5) as fit in the
//! time budget (in roster order, so the slice is deterministic for a
//! given machine speed); `--deep` runs the whole P>=4 roster. Each line
//! reports the reduction statistics: states
//! actually explored (`apply()` calls), canonical-duplicate hits, sleep-
//! set-pruned transitions, the symmetry group size with the mean number
//! of its permutations a canonicalization tried, and `POR off: …` if the
//! shape has more choice slots than a sleep mask has bits.
//!
//! Exit status: 0 all pass, 1 a violation was found, 2 a resource limit
//! stopped an exploration before exhaustion.

use dirtree_check::{explore, replay, report, CheckConfig, CheckOutcome};
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};
use dirtree_machine::{Driver, DriverOp, Machine, MachineConfig, ScriptDriver, StallError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut deep = false;
    let mut jobs: Option<usize> = None;
    let mut fuel: Option<u32> = None;
    let mut filter: Option<String> = None;
    let mut budget_secs: u64 = 60;
    let mut symmetry = true;
    let mut por = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => fast = true,
            "--deep" => deep = true,
            "--budget" => budget_secs = expect_arg(&mut it, "--budget"),
            "--no-sym" => symmetry = false,
            "--no-por" => por = false,
            "--jobs" => jobs = Some(expect_arg(&mut it, "--jobs")),
            "--fuel" => fuel = Some(expect_arg(&mut it, "--fuel")),
            "--filter" => {
                filter = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--filter needs a value"))
                        .clone(),
                )
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if fast && deep {
        usage("--fast and --deep are mutually exclusive");
    }

    let mut shapes: Vec<(u32, u64)> = vec![(2, 1)];
    if !fast {
        shapes.push((3, 1));
    }
    if deep {
        shapes.push((2, 2));
        shapes.push((3, 2));
    }

    // The figure-set protocols under default parameters, plus the shapes
    // the figure set does not cover: Dir2B and LimitLESS2 (below), the
    // update protocol at both pointer counts and the adaptive hybrid. The
    // aggressive Schmitt thresholds (flip up at +1, back down below 0)
    // force mode flips in the middle of explored histories, so the
    // drained-transition machinery itself — not just each inner protocol —
    // is model-checked.
    let aggressive = ProtocolParams {
        adapt_flip_up: 1,
        adapt_flip_down: 0,
        ..ProtocolParams::default()
    };
    let mut roster: Vec<(String, ProtocolKind, ProtocolParams)> = ProtocolKind::figure_set()
        .into_iter()
        .map(|kind| (kind.name(), kind, ProtocolParams::default()))
        .collect();
    // The two flat-directory overflow policies the figure set leaves out
    // (it carries full-map and Dir_iNB): broadcast and software spill, at
    // i = 2 so that P=3 already overflows the pointers. LimitLESS4 is in
    // the benchmark's and `crates/bench`'s published comparisons.
    for kind in [
        ProtocolKind::LimitedB { pointers: 2 },
        ProtocolKind::LimitLess { pointers: 2 },
    ] {
        roster.push((kind.name(), kind, ProtocolParams::default()));
    }
    for pointers in [1u32, 2] {
        let kind = ProtocolKind::DirTreeUpdate { pointers, arity: 2 };
        roster.push((kind.name(), kind, ProtocolParams::default()));
    }
    let adp2 = ProtocolKind::DirTreeAdaptive {
        pointers: 2,
        arity: 2,
    };
    roster.push((adp2.name(), adp2, ProtocolParams::default()));
    roster.push((format!("{} up1/dn0", adp2.name()), adp2, aggressive));
    let adp1 = ProtocolKind::DirTreeAdaptive {
        pointers: 1,
        arity: 2,
    };
    roster.push((format!("{} up1/dn0", adp1.name()), adp1, aggressive));
    // Ternary (k=3) tree shapes. Arity only binds at the Figure-6 case-3
    // merge, which fires when all `i` pointers are full and a new
    // requester arrives — so it takes i ≥ 3 for a k=3 tree to behave
    // differently from k=2 at all (for i ≤ 2 at most two equal-height
    // roots ever merge, and the state graphs are identical). The i=3
    // entries below are the smallest shapes where a P=4 frontier adopts
    // *three* equal-height roots in one merge, covering the generalized
    // wave/adoption fan-out the arity-2 sweep cannot reach. That holds for
    // `tree3` and for the invalidate-mode blocks of `adp3` only: update
    // blocks merge pairs whatever the arity (`DirTree::insert_sharer`), so
    // `upd3` explores exactly the k=2 graph — pinned by `exhaustive.rs`'s
    // `ternary_update_merge_does_not_diverge_from_binary_at_p5` — and
    // stays on the roster as the shape to re-baseline when the merge width
    // is unified (ROADMAP).
    let tree3 = ProtocolKind::DirTree {
        pointers: 3,
        arity: 3,
    };
    roster.push((tree3.name(), tree3, ProtocolParams::default()));
    let upd3 = ProtocolKind::DirTreeUpdate {
        pointers: 3,
        arity: 3,
    };
    roster.push((upd3.name(), upd3, ProtocolParams::default()));
    let adp3 = ProtocolKind::DirTreeAdaptive {
        pointers: 3,
        arity: 3,
    };
    roster.push((adp3.name(), adp3, ProtocolParams::default()));
    roster.push((format!("{} up1/dn0", adp3.name()), adp3, aggressive));
    // The home node holds no pointer for itself, so an i=3 merge needs
    // four *remote* requesters — the ternary entries additionally run at
    // P=5 (below), the smallest population where the three-way adoption
    // is reachable at all.
    let p5_names: Vec<String> = vec![
        tree3.name(),
        upd3.name(),
        adp3.name(),
        format!("{} up1/dn0", adp3.name()),
    ];

    let roster: Vec<(String, ProtocolKind, ProtocolParams)> = roster
        .into_iter()
        .filter(|(name, _, _)| match &filter {
            Some(f) => name.to_lowercase().contains(&f.to_lowercase()),
            None => true,
        })
        .collect();

    let mut passed = 0u32;
    let mut failed = 0u32;
    let mut limited = 0u32;
    let mut run_one = |name: &str, kind: ProtocolKind, params: ProtocolParams, nodes, blocks| {
        let mut cfg = CheckConfig::small(nodes, blocks);
        cfg.symmetry = symmetry;
        cfg.por = por;
        if let Some(j) = jobs {
            cfg.jobs = j.max(1);
        }
        if let Some(f) = fuel {
            cfg.fuel = f;
        }
        let factory = || build_protocol(kind, params);
        let start = std::time::Instant::now();
        let outcome = explore(&cfg, factory);
        let elapsed = start.elapsed();
        let rep = match &outcome {
            CheckOutcome::Violation(cx) => {
                failed += 1;
                Some(replay(&cfg, factory, &cx.choices, 256))
            }
            CheckOutcome::Pass { .. } => {
                passed += 1;
                None
            }
            CheckOutcome::ResourceLimit { .. } => {
                limited += 1;
                None
            }
        };
        println!(
            "{}  [{:.2?}]",
            report::render(name, &cfg, &outcome, rep.as_ref()).trim_end(),
            elapsed
        );
    };
    for (name, kind, params) in &roster {
        for &(nodes, blocks) in &shapes {
            run_one(name, *kind, *params, nodes, blocks);
        }
    }
    // The P≥4 tier: the order-6 (P=4) / order-24 (P=5) home-fixing
    // symmetry groups make single-block exhaustion tractable, but the
    // tier can still cost minutes on a slow machine, so the default run
    // takes the slice that fits a wall-clock budget (in roster order — a
    // stable prefix) and defers the rest to --deep. The P=5 leg covers
    // only the ternary i=3 entries: that is the smallest population
    // where a directory merge adopts three equal-height roots.
    if !fast {
        let slice_start = std::time::Instant::now();
        let budget = std::time::Duration::from_secs(budget_secs);
        let mut skipped = 0u32;
        let mut budgeted = |run: &mut dyn FnMut()| {
            if !deep && slice_start.elapsed() > budget {
                skipped += 1;
            } else {
                run();
            }
        };
        for (name, kind, params) in &roster {
            budgeted(&mut || run_one(name, *kind, *params, 4, 1));
        }
        for (name, kind, params) in &roster {
            if p5_names.contains(name) {
                budgeted(&mut || run_one(name, *kind, *params, 5, 1));
            }
        }
        if skipped > 0 {
            println!(
                "P>=4 slice: {budget_secs}s budget exhausted, {skipped} shape(s) \
                 deferred to --deep"
            );
        }
    }
    // Network-shape check: the request/reply channel deadlock is a
    // machine-level property (bounded channel buffers), invisible to the
    // protocol-state exploration above, so it gets its own timed run.
    if filter.is_none() {
        match net_shape_deadlock_check() {
            Ok(line) => {
                passed += 1;
                println!("{line}");
            }
            Err(line) => {
                failed += 1;
                println!("{line}");
            }
        }
    }

    println!("\n{passed} passed, {failed} violated, {limited} resource-limited");
    if failed > 0 {
        std::process::exit(1);
    }
    if limited > 0 {
        std::process::exit(2);
    }
}

/// Pin the request/reply cyclic wait: crossed remote reads on a 2-node
/// machine with one buffer per (node, channel) must deadlock — reported
/// structurally, not as a hang or livelock — on a single channel, and
/// must complete once request/reply/ack ride separate virtual channels.
fn net_shape_deadlock_check() -> Result<String, String> {
    let crossed_reads = || -> Box<dyn Driver> {
        Box::new(ScriptDriver::new(vec![
            vec![DriverOp::Read(1)],
            vec![DriverOp::Read(2)],
        ]))
    };
    let mut cfg = MachineConfig::test_default(2);
    cfg.net.vc_credits = 1;
    let start = std::time::Instant::now();
    let single = Machine::new(cfg, ProtocolKind::FullMap).try_run(crossed_reads().as_mut());
    let parked = match single {
        Err(StallError::Deadlock { parked_sends, .. }) if !parked_sends.is_empty() => {
            parked_sends.len()
        }
        other => {
            return Err(format!(
                "net-shape request/reply cycle    FAIL: expected a structured deadlock \
                 on one channel, got {other:?}"
            ))
        }
    };
    cfg.net.vcs = 3;
    match Machine::new(cfg, ProtocolKind::FullMap).try_run(crossed_reads().as_mut()) {
        Ok(_) => Ok(format!(
            "net-shape request/reply cycle    PASS: 1 VC deadlocks ({parked} parked \
             sends), 3 VCs complete  [{:.2?}]",
            start.elapsed()
        )),
        Err(e) => Err(format!(
            "net-shape request/reply cycle    FAIL: still stalls with 3 VCs: {e}"
        )),
    }
}

fn expect_arg<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a numeric value")))
}

fn usage(err: &str) -> ! {
    eprintln!("check_all: {err}");
    eprintln!(
        "usage: check_all [--fast | --deep] [--budget SECS] [--no-sym] [--no-por] \
         [--jobs N] [--fuel N] [--filter STR]"
    );
    std::process::exit(64);
}
