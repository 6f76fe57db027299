//! Compare all nine protocol configurations of the paper's figures on one
//! workload — a miniature Figure 10, drawn by the same sweep runner as the
//! `dirtree-bench` figure experiments (records land in
//! `target/sweep/protocol_comparison.jsonl`).
//!
//! Run: `cargo run --release --example protocol_comparison`

use dirtree::machine::MachineConfig;
use dirtree::prelude::*;
use dirtree_bench::figures::{record_grid, render_record_grid};
use dirtree_bench::runner::{Runner, SweepOptions};

fn main() {
    let workload = WorkloadKind::Floyd {
        vertices: 24,
        seed: 7,
    };
    let sizes = [8u32, 16];
    let protocols = ProtocolKind::figure_set();
    let runner = Runner::new(SweepOptions::default());
    let cells = record_grid(
        &runner,
        "protocol_comparison",
        workload,
        &sizes,
        &protocols,
        MachineConfig::paper_default,
    );
    println!(
        "{}",
        render_record_grid("Protocol comparison (full-map = 1.000)", &cells, &sizes)
    );
    println!("Lower is better. The paper's headline: Dir4Tree2 stays within a few");
    println!("percent of full-map while using far less directory memory, and the");
    println!("limited directories (L1/L2) degrade when sharing exceeds their pointers.");
}
