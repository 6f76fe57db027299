//! The workload table: what each of the five named workloads runs.
//!
//! Every size, protocol list and repeat count here is a committed constant;
//! nothing adapts to the host, so two runs of one commit do the same work.
//! Only `--seed` changes the inputs (Floyd's graph, the phased trace).

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::MachineConfig;
use dirtree_workloads::phases::PhasedTrace;
use dirtree_workloads::{ThreadedWorkload, WorkloadKind};

pub const NAMES: [&str; 5] = [
    "floyd_p64",
    "floyd_p1024_vc",
    "lu_p32_families",
    "policies_p256",
    "check_mix",
];

/// An application whose per-node operation streams are recorded once.
#[derive(Clone, Copy, Debug)]
pub enum TraceSpec {
    App { kind: WorkloadKind, nodes: u32 },
    Phased(PhasedTrace),
}

impl TraceSpec {
    pub fn build(&self) -> ThreadedWorkload {
        match self {
            TraceSpec::App { kind, nodes } => kind.build(*nodes),
            TraceSpec::Phased(t) => t.build(),
        }
    }

    /// Short name used in config labels of multi-trace workloads.
    pub fn label(&self) -> &'static str {
        match self {
            TraceSpec::App { kind, .. } => match kind {
                WorkloadKind::Floyd { .. } => "Floyd",
                WorkloadKind::Lu { .. } => "LU",
                WorkloadKind::Broadcast { .. } => "Broadcast",
                WorkloadKind::TokenRing { .. } => "TokenRing",
                WorkloadKind::FalseShare { .. } => "FalseShare",
                other => panic!("no label for {other:?}: not in the workload table"),
            },
            TraceSpec::Phased(_) => "Phased",
        }
    }
}

/// One simulation: a recorded trace replayed on one machine and protocol.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Unique within the workload; the key in `expected.json`.
    pub label: String,
    /// Index into [`SimWorkload::traces`].
    pub trace: usize,
    pub machine: MachineConfig,
    pub protocol: ProtocolKind,
    /// Back-to-back runs per repetition. More than one where a single run
    /// is under a quarter second on the reference box; a run's time is the
    /// batch total divided by this.
    pub runs: u32,
}

#[derive(Clone, Debug)]
pub struct SimWorkload {
    pub traces: Vec<TraceSpec>,
    pub configs: Vec<SimConfig>,
}

/// One exhaustive exploration of the checker.
#[derive(Clone, Debug)]
pub struct CheckShape {
    pub label: String,
    pub protocol: ProtocolKind,
    pub nodes: u32,
    pub blocks: u64,
    /// Steps of the traced pass's random walk over this shape's graph.
    pub walk_steps: u32,
}

#[derive(Clone, Debug)]
pub enum Body {
    Sim(SimWorkload),
    Check(Vec<CheckShape>),
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Seconds one repetition takes on the reference box (2-core Xeon
    /// 2.1 GHz, pinned). `--seconds` divided by this, rounded, is the
    /// number of repetitions: fixed by the command line, not by the clock.
    pub rep_seconds: f64,
    pub body: Body,
}

impl Workload {
    pub fn repetitions(&self, seconds: f64) -> u32 {
        ((seconds / self.rep_seconds).round() as u32).max(1)
    }
}

const FULL_MAP: ProtocolKind = ProtocolKind::FullMap;
const DIR4_NB: ProtocolKind = ProtocolKind::LimitedNB { pointers: 4 };

const fn tree(pointers: u32, arity: u32) -> ProtocolKind {
    ProtocolKind::DirTree { pointers, arity }
}
const fn tree_u(pointers: u32, arity: u32) -> ProtocolKind {
    ProtocolKind::DirTreeUpdate { pointers, arity }
}
const fn tree_a(pointers: u32, arity: u32) -> ProtocolKind {
    ProtocolKind::DirTreeAdaptive { pointers, arity }
}

/// Every protocol the table runs, for the per-protocol handler metrics.
pub fn protocol_names() -> Vec<String> {
    [
        FULL_MAP,
        DIR4_NB,
        ProtocolKind::LimitLess { pointers: 4 },
        ProtocolKind::SinglyList,
        ProtocolKind::Sci,
        ProtocolKind::Stp { arity: 2 },
        ProtocolKind::SciTree,
        tree(2, 2),
        tree(4, 2),
        tree_u(4, 2),
        tree_a(4, 2),
    ]
    .iter()
    .map(ProtocolKind::name)
    .collect()
}

fn single_trace(
    spec: TraceSpec,
    machine: MachineConfig,
    protocols: &[(ProtocolKind, u32)],
) -> SimWorkload {
    SimWorkload {
        traces: vec![spec],
        configs: protocols
            .iter()
            .map(|&(protocol, runs)| SimConfig {
                label: protocol.name(),
                trace: 0,
                machine,
                protocol,
                runs,
            })
            .collect(),
    }
}

fn floyd_p64(seed: u64) -> SimWorkload {
    let floyd = WorkloadKind::Floyd { vertices: 64, seed };
    single_trace(
        TraceSpec::App {
            kind: floyd,
            nodes: 64,
        },
        MachineConfig::paper_default(64),
        &[
            (FULL_MAP, 1),
            (tree(2, 2), 1),
            (tree(4, 2), 1),
            (DIR4_NB, 1),
        ],
    )
}

fn floyd_p1024_vc(seed: u64) -> SimWorkload {
    let floyd = WorkloadKind::Floyd { vertices: 64, seed };
    let mut configs = Vec::new();
    for credits in [0, 64] {
        let mut machine = MachineConfig::paper_default(1024);
        machine.net.vcs = 3;
        machine.net.adaptive = true;
        machine.net.vc_credits = credits;
        for protocol in [FULL_MAP, tree(4, 2)] {
            configs.push(SimConfig {
                label: if credits == 0 {
                    protocol.name()
                } else {
                    format!("{}/credits{credits}", protocol.name())
                },
                trace: 0,
                machine,
                protocol,
                runs: 1,
            });
        }
    }
    SimWorkload {
        traces: vec![TraceSpec::App {
            kind: floyd,
            nodes: 1024,
        }],
        configs,
    }
}

fn lu_p32_families() -> SimWorkload {
    single_trace(
        TraceSpec::App {
            kind: WorkloadKind::Lu { n: 80 },
            nodes: 32,
        },
        MachineConfig::paper_default(32),
        &[
            (FULL_MAP, 2),
            (DIR4_NB, 2),
            (ProtocolKind::LimitLess { pointers: 4 }, 2),
            (ProtocolKind::SinglyList, 2),
            (ProtocolKind::Sci, 1),
            (ProtocolKind::Stp { arity: 2 }, 1),
            (ProtocolKind::SciTree, 1),
            (tree(4, 2), 2),
        ],
    )
}

fn policies_p256(seed: u64) -> SimWorkload {
    let nodes = 256;
    let app = |kind| TraceSpec::App { kind, nodes };
    // (trace, back-to-back runs under invalidate / update / adaptive)
    let traces = [
        (
            app(WorkloadKind::Broadcast {
                blocks: 8,
                rounds: 120,
                scans: 2,
            }),
            [1, 2, 1],
        ),
        (
            app(WorkloadKind::TokenRing { tokens: 4, laps: 4 }),
            [6, 1, 6],
        ),
        (
            app(WorkloadKind::FalseShare {
                blocks: 8,
                rounds: 600,
            }),
            [8, 1, 8],
        ),
        (
            TraceSpec::Phased(PhasedTrace {
                nodes,
                blocks: 64,
                phases: 24,
                reads_per_phase: 96,
                seed,
            }),
            [1, 1, 1],
        ),
    ];
    let mut configs = Vec::new();
    for (t, (spec, runs)) in traces.iter().enumerate() {
        for (protocol, &runs) in [tree(4, 2), tree_u(4, 2), tree_a(4, 2)].iter().zip(runs) {
            configs.push(SimConfig {
                label: format!("{}/{}", spec.label(), protocol.name()),
                trace: t,
                machine: MachineConfig::paper_default(nodes),
                protocol: *protocol,
                runs,
            });
        }
    }
    SimWorkload {
        traces: traces.iter().map(|(spec, _)| *spec).collect(),
        configs,
    }
}

fn check_mix() -> Vec<CheckShape> {
    [
        (FULL_MAP, 2, 2, 20_000),
        (tree(2, 2), 2, 2, 20_000),
        (tree_a(2, 2), 2, 2, 20_000),
        (tree_u(1, 2), 3, 1, 20_000),
        (tree_u(3, 3), 5, 1, 5_000),
        (tree_a(3, 3), 5, 1, 5_000),
    ]
    .into_iter()
    .map(|(protocol, nodes, blocks, walk_steps)| CheckShape {
        label: format!("{}/P{nodes}B{blocks}", protocol.name()),
        protocol,
        nodes,
        blocks,
        walk_steps,
    })
    .collect()
}

pub fn workload(name: &str, seed: u64) -> Option<Workload> {
    let (name, rep_seconds, body) = match name {
        "floyd_p64" => ("floyd_p64", 2.55, Body::Sim(floyd_p64(seed))),
        "floyd_p1024_vc" => ("floyd_p1024_vc", 5.2, Body::Sim(floyd_p1024_vc(seed))),
        "lu_p32_families" => ("lu_p32_families", 7.5, Body::Sim(lu_p32_families())),
        "policies_p256" => ("policies_p256", 8.2, Body::Sim(policies_p256(seed))),
        "check_mix" => ("check_mix", 14.5, Body::Check(check_mix())),
        _ => return None,
    };
    Some(Workload {
        name,
        rep_seconds,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_labels_are_unique() {
        for name in NAMES {
            let w = workload(name, 1996).expect(name);
            assert_eq!(w.name, name);
            let labels: Vec<String> = match &w.body {
                Body::Sim(s) => s.configs.iter().map(|c| c.label.clone()).collect(),
                Body::Check(shapes) => shapes.iter().map(|s| s.label.clone()).collect(),
            };
            let mut unique = labels.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), labels.len(), "{name}: {labels:?}");
        }
        assert!(workload("nope", 1).is_none());
    }

    #[test]
    fn every_table_protocol_has_a_metric_name() {
        let names = protocol_names();
        for name in NAMES {
            if let Body::Sim(s) = workload(name, 1).unwrap().body {
                for c in &s.configs {
                    assert!(names.contains(&c.protocol.name()), "{}", c.label);
                }
            }
        }
    }

    #[test]
    fn repetitions_follow_the_command_line_only() {
        let w = workload("floyd_p64", 1).unwrap();
        assert_eq!(w.repetitions(10.0), 4);
        assert_eq!(w.repetitions(0.1), 1);
        assert_eq!(workload("check_mix", 1).unwrap().repetitions(10.0), 1);
    }
}
