//! Record-based figure grids on top of the sweep runner.
//!
//! The Figures 8–11 presentation (protocols × machine sizes, execution
//! time normalized to full-map per size) is one [`record_grid`] call
//! that the parallel [`Runner`] serves.

use crate::runner::Runner;
use crate::sweep::{RunRecord, SweepConfig, SweepSpec};
use dirtree_analysis::tables::{norm, AsciiTable};
use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::MachineConfig;
use dirtree_sim::FxHashMap;
use dirtree_workloads::WorkloadKind;
use std::fmt::Write as _;

/// Node counts used in the paper's figures.
pub const PAPER_SIZES: [u32; 3] = [8, 16, 32];

/// One cell of a figure grid: the run's record plus its execution time
/// relative to full-map at the same node count.
#[derive(Clone, Debug)]
pub struct RecordCell {
    pub protocol: ProtocolKind,
    pub nodes: u32,
    pub normalized: f64,
    pub record: RunRecord,
}

/// Run `protocols × node_counts` of one workload through the runner and
/// normalize to the full-map baseline per node count. Full-map is
/// simulated for the baseline even when it is not in `protocols`.
pub fn record_grid(
    runner: &Runner,
    spec_name: &str,
    workload: WorkloadKind,
    node_counts: &[u32],
    protocols: &[ProtocolKind],
    configure: impl Fn(u32) -> MachineConfig,
) -> Vec<RecordCell> {
    let mut simulated = protocols.to_vec();
    if !simulated.contains(&ProtocolKind::FullMap) {
        simulated.insert(0, ProtocolKind::FullMap);
    }
    let spec = SweepSpec::grid(spec_name, workload, node_counts, &simulated, &configure);
    let outcome = runner.run(&spec);
    let by_key: FxHashMap<&str, &RunRecord> = outcome
        .records
        .iter()
        .map(|r| (r.key.as_str(), r))
        .collect();
    let record_for = |nodes: u32, protocol: ProtocolKind| -> &RunRecord {
        let key = SweepConfig::new(configure(nodes), protocol, workload).key();
        by_key.get(key.as_str()).unwrap_or_else(|| {
            panic!(
                "no record for {key} — the simulation failed: {:?}",
                outcome
                    .failures
                    .iter()
                    .map(|f| f.message.as_str())
                    .collect::<Vec<_>>()
            )
        })
    };
    let mut cells = Vec::new();
    for &nodes in node_counts {
        let base_cycles = record_for(nodes, ProtocolKind::FullMap).cycles.max(1);
        for &protocol in protocols {
            let record = record_for(nodes, protocol).clone();
            cells.push(RecordCell {
                protocol,
                nodes,
                normalized: record.cycles as f64 / base_cycles as f64,
                record,
            });
        }
    }
    cells
}

/// Render a grid as the paper presents it: one row per protocol, one
/// column per machine size, normalized execution time.
pub fn render_record_grid(title: &str, cells: &[RecordCell], node_counts: &[u32]) -> String {
    let mut header: Vec<String> = vec!["protocol".into()];
    header.extend(node_counts.iter().map(|n| format!("{n} procs")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = AsciiTable::new(&header_refs);
    let mut protocols: Vec<ProtocolKind> = Vec::new();
    for c in cells {
        if !protocols.contains(&c.protocol) {
            protocols.push(c.protocol);
        }
    }
    for p in protocols {
        let mut row = vec![p.name()];
        for &n in node_counts {
            let cell = cells
                .iter()
                .find(|c| c.protocol == p && c.nodes == n)
                .expect("missing grid cell");
            row.push(norm(cell.normalized));
        }
        t.row(&row);
    }
    format!("{title}\n{}", t.render())
}

/// Machine-readable companion CSV: one row per cell with the headline
/// counters of its record.
pub fn records_to_csv(cells: &[RecordCell]) -> String {
    let mut out = String::from(
        "protocol,figure_label,nodes,cycles,normalized,messages,fill_acks,\
         invalidations,replacement_invalidations,read_misses,write_misses,\
         read_miss_latency_mean,write_miss_latency_mean,net_bytes,\
         max_controller_busy\n",
    );
    for c in cells {
        let r = &c.record;
        let _ = writeln!(
            out,
            "{},{},{},{},{:.6},{},{},{},{},{},{},{:.3},{:.3},{},{}",
            r.protocol,
            c.protocol.figure_label(),
            r.nodes,
            r.cycles,
            c.normalized,
            r.messages,
            r.fill_acks,
            r.invalidations,
            r.replacement_invalidations,
            r.read_misses,
            r.write_misses,
            r.read_miss_latency.mean(),
            r.write_miss_latency.mean(),
            r.net_bytes,
            r.max_controller_busy,
        );
    }
    out
}

/// Run one figure: the workload across the paper's nine protocol
/// configurations and three machine sizes. Returns the report text
/// (normalized grid + companion stats) and writes the CSV companion
/// under `<out_dir>/figures/`.
pub fn run_figure(runner: &Runner, title: &str, workload: WorkloadKind) -> String {
    let protocols: Vec<ProtocolKind> = ProtocolKind::figure_set();
    let slug = workload.name().replace(['(', ')', ',', 'x'], "_");
    eprintln!(
        "running {} × {} machine sizes of {} ...",
        protocols.len(),
        PAPER_SIZES.len(),
        workload.name(),
    );
    let t0 = std::time::Instant::now();
    let cells = record_grid(
        runner,
        &format!("figure-{slug}"),
        workload,
        &PAPER_SIZES,
        &protocols,
        MachineConfig::paper_default,
    );
    let mut report = render_record_grid(
        &format!("{title} — normalized execution time ({})", workload.name()),
        &cells,
        &PAPER_SIZES,
    );
    report.push('\n');
    // Machine-readable companion (for external plotting).
    let csv_path = runner
        .options()
        .out_dir
        .join("figures")
        .join(format!("{slug}.csv"));
    if runner.write_output(&csv_path, &records_to_csv(&cells)) {
        eprintln!("wrote {}", csv_path.display());
    }
    // Companion statistics the paper discusses qualitatively.
    let _ = writeln!(
        report,
        "protocol @32 procs: misses, msgs/op, invalidations, repl-invs, mean write-miss latency"
    );
    for c in cells.iter().filter(|c| c.nodes == 32) {
        let r = &c.record;
        let _ = writeln!(
            report,
            "  {:<12} misses={:<8} msgs/op={:<6.2} invs={:<7} repl={:<6} wlat={:.0}",
            r.protocol,
            r.read_misses + r.write_misses,
            r.critical_messages() as f64 / r.total_ops().max(1) as f64,
            r.invalidations,
            r.replacement_invalidations,
            r.write_miss_latency.mean(),
        );
    }
    eprintln!("done in {:.1?}", t0.elapsed());
    report
}
