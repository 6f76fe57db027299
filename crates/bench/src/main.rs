//! `dirtree-bench <experiment|all|list> [flags]` — the one front end to
//! every table, figure and ablation of the reproduction (see `cli` for
//! the flags and DESIGN.md §5 for the experiment index).
//!
//! `<experiment>` runs one [`REGISTRY`] entry and prints its report;
//! `list` prints the names. `all` is the one-command reproduction of the
//! whole paper: every `in_all` entry in-process, a combined report on
//! stdout and in `<out-dir>/reproduction_report.txt`. A panic in one
//! experiment — or any failed simulation or unwritable output file inside
//! one — is caught, the remaining experiments still run, and the process
//! exits non-zero with a final `FAILED: [...]` summary; so does a report
//! that cannot be written. A single experiment exits non-zero on the same
//! failures.
//!
//! All simulations go through the one sweep runner: they execute on a
//! worker pool (`--jobs`, default: all cores), each distinct config once
//! per process however many experiments name it; nothing is kept between
//! runs but the `<out-dir>/*.jsonl` records it writes.
//!
//! Run: `cargo run --release -p dirtree-bench -- all
//!       [--jobs N] [--filter SUBSTR]`

use dirtree_bench::cli::{self, Cli, Target};
use dirtree_bench::experiments::{Experiment, REGISTRY};
use dirtree_bench::runner::{panic_message, Runner};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

fn main() {
    let cli = Cli::from_args(std::env::args().skip(1)).unwrap_or_else(|reason| {
        eprint!("error: {reason}\n{}", cli::usage());
        std::process::exit(64);
    });
    let runner = Runner::new(cli.sweep_options());
    let t0 = Instant::now();
    match cli.target {
        Target::List => print!("{}", cli::list()),
        Target::All => run_all(&runner, &cli, t0),
        Target::One(exp) => {
            print!("{}", (exp.run)(&runner, &cli));
            eprintln!("{} {}", exp.name, totals(&runner, t0));
            let failures = runner.failures();
            for f in &failures {
                eprintln!("FAILED: {}: {}", f.key, f.message);
            }
            if !failures.is_empty() {
                std::process::exit(1);
            }
        }
    }
}

/// The end-of-run summary: wall time and what the runner did.
fn totals(runner: &Runner, t0: Instant) -> String {
    format!(
        "in {:.1?}: {} simulations run ({} jobs)",
        t0.elapsed(),
        runner.totals(),
        runner.options().jobs,
    )
}

fn run_all(runner: &Runner, cli: &Cli, t0: Instant) {
    let selected: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|e| e.in_all && cli.filter.as_deref().is_none_or(|f| e.name.contains(f)))
        .collect();
    let mut report = String::new();
    let mut failed: Vec<&'static str> = Vec::new();
    for exp in &selected {
        eprintln!("==> {}", exp.name);
        let failures_before = runner.failures().len();
        let result = catch_unwind(AssertUnwindSafe(|| (exp.run)(runner, cli)));
        let _ = writeln!(
            report,
            "==================== {} ====================",
            exp.name
        );
        match result {
            Ok(text) => {
                report.push_str(&text);
                // Simulations that panicked inside the runner are caught
                // there and excluded from the report tables; they, and
                // output files that could not be written, still fail the
                // experiment.
                let all_failures = runner.failures();
                let run_failures = &all_failures[failures_before..];
                if !run_failures.is_empty() {
                    failed.push(exp.name);
                    let _ = writeln!(
                        report,
                        "[{} FAILED: {} simulation(s) panicked or output(s) unwritten]",
                        exp.name,
                        run_failures.len()
                    );
                    for f in run_failures {
                        let _ = writeln!(report, "  {}: {}", f.key, f.message);
                    }
                }
            }
            Err(payload) => {
                failed.push(exp.name);
                let msg = panic_message(payload);
                let _ = writeln!(report, "[{} FAILED] {msg}", exp.name);
            }
        }
        report.push('\n');
    }

    let path = runner.options().out_dir.join("reproduction_report.txt");
    let written = runner.write_output(&path, &report);
    println!("{report}");
    let ran = format!("{} experiments {}", selected.len(), totals(runner, t0));
    if written {
        eprintln!("{ran}; report written to {}", path.display());
    } else {
        eprintln!("{ran}");
        if let Some(f) = runner.failures().last() {
            eprintln!("FAILED: {}: {}", f.key, f.message);
        }
        failed.push("reproduction_report");
    }
    if selected.is_empty() {
        eprintln!(
            "no experiment matches --filter {:?}",
            cli.filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }
    if !failed.is_empty() {
        println!("FAILED: [{}]", failed.join(", "));
        std::process::exit(1);
    }
}
