//! Exhaustively model-check every protocol of the paper's figure set, the
//! other flat directories (Dir2B, LimitLESS2, LimitLESS1) and the update,
//! adaptive and ternary Dir_iTree_k shapes — the roster of
//! [`dirtree_check::roster`], which also names the protocols left off it
//! and why.
//!
//! Usage:
//!   cargo run --release -p dirtree-check --bin check_all [-- FLAGS]
//!
//! Flags:
//!   --fast          only P=2 / 1 block (a quick local pass)
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
//! given machine speed); `--deep` runs the whole P>=4 roster. `ci.sh`
//! runs the default tier with `--budget 60`, then the P=2/P=3 roster again
//! with `--jobs 1 --budget 0`. Each line reports the reduction statistics:
//! states actually explored (`apply()` calls), canonical-duplicate hits,
//! sleep-set-pruned transitions, the symmetry group size with the mean number
//! of its permutations a canonicalization tried, and `POR off: …` if the
//! shape has more choice slots than a sleep mask has bits.
//!
//! Exit status: 0 all pass, 1 a violation was found, 2 a resource limit
//! stopped an exploration before exhaustion.

use dirtree_check::roster::{roster, RosterEntry};
use dirtree_check::{explore, replay, report, CheckConfig, CheckOutcome};
use dirtree_core::protocol::{build_protocol, ProtocolKind, ProtocolParams};

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

    let roster: Vec<RosterEntry> = roster()
        .into_iter()
        .filter(|e| match &filter {
            Some(f) => e.name.to_lowercase().contains(&f.to_lowercase()),
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
    for e in &roster {
        for &(nodes, blocks) in &shapes {
            run_one(&e.name, e.kind, e.params, nodes, blocks);
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
        for e in &roster {
            budgeted(&mut || run_one(&e.name, e.kind, e.params, 4, 1));
        }
        for e in roster.iter().filter(|e| e.p5) {
            budgeted(&mut || run_one(&e.name, e.kind, e.params, 5, 1));
        }
        if skipped > 0 {
            println!(
                "P>=4 slice: {budget_secs}s budget exhausted, {skipped} shape(s) \
                 deferred to --deep"
            );
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
