//! Uniform workload construction for the experiment harness.

use crate::apps::{fft::Fft, floyd::Floyd, lu::Lu, mp3d::Mp3d, patterns, synthetic};
use crate::rendezvous::ThreadedWorkload;

/// A workload selector with its parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadKind {
    /// MP3D-style particle simulation (Figure 8).
    Mp3d { particles: u64, steps: u64 },
    /// Dense LU factorization, column variant (Figure 9).
    Lu { n: u64 },
    /// Floyd-Warshall all-pairs shortest paths (Figure 10).
    Floyd { vertices: u64, seed: u64 },
    /// Radix-2 FFT (Figure 11).
    Fft { points: u64 },
    /// Synthetic: cache-thrashing replacement storm.
    Storm { words: u64, passes: u64 },
    /// Pattern: producer–consumer pipeline (best served by updates).
    PcPipeline { buffers: u64, rounds: u64 },
    /// Pattern: migratory token ring (best served by invalidation).
    TokenRing { tokens: u64, laps: u64 },
    /// Pattern: read-mostly broadcast table (best served by updates).
    Broadcast {
        blocks: u64,
        rounds: u64,
        scans: u64,
    },
    /// Pattern: write-shared ping-pong over once-shared blocks (the update
    /// protocol's stale-sharer pathology; best served by invalidation).
    FalseShare { blocks: u64, rounds: u64 },
}

impl WorkloadKind {
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::Mp3d { particles, steps } => format!("MP3D({particles}p,{steps}s)"),
            WorkloadKind::Lu { n } => format!("LU({n}x{n})"),
            WorkloadKind::Floyd { vertices, .. } => format!("Floyd({vertices}v)"),
            WorkloadKind::Fft { points } => format!("FFT({points})"),
            WorkloadKind::Storm { words, passes } => format!("Storm({words}w,{passes}p)"),
            WorkloadKind::PcPipeline { buffers, rounds } => {
                format!("PcPipeline({buffers}b,{rounds}r)")
            }
            WorkloadKind::TokenRing { tokens, laps } => format!("TokenRing({tokens}t,{laps}l)"),
            WorkloadKind::Broadcast {
                blocks,
                rounds,
                scans,
            } => format!("Broadcast({blocks}b,{rounds}r,{scans}s)"),
            WorkloadKind::FalseShare { blocks, rounds } => {
                format!("FalseShare({blocks}b,{rounds}r)")
            }
        }
    }

    /// Derive the workload variant for a non-default sweep seed: workloads
    /// that consume an RNG (Floyd's random graph) fold the salt into their
    /// seed; deterministic-layout workloads are unchanged. Salt 0 is the
    /// identity, so seed-0 sweep configs reproduce the paper's published
    /// inputs exactly.
    pub fn with_seed(self, salt: u64) -> WorkloadKind {
        if salt == 0 {
            return self;
        }
        match self {
            WorkloadKind::Floyd { vertices, seed } => WorkloadKind::Floyd {
                vertices,
                seed: seed ^ salt,
            },
            other => other,
        }
    }

    /// Build the execution-driven workload for `nprocs` processors.
    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        match *self {
            WorkloadKind::Mp3d { particles, steps } => Mp3d {
                particles,
                steps,
                grid: 8,
                seed: 1996,
            }
            .build(nprocs),
            WorkloadKind::Lu { n } => Lu { n }.build(nprocs),
            WorkloadKind::Floyd { vertices, seed } => Floyd { vertices, seed }.build(nprocs),
            WorkloadKind::Fft { points } => Fft { points }.build(nprocs),
            WorkloadKind::Storm { words, passes } => {
                synthetic::Storm { words, passes }.build(nprocs)
            }
            WorkloadKind::PcPipeline { buffers, rounds } => {
                patterns::PcPipeline { buffers, rounds }.build(nprocs)
            }
            WorkloadKind::TokenRing { tokens, laps } => {
                patterns::TokenRing { tokens, laps }.build(nprocs)
            }
            WorkloadKind::Broadcast {
                blocks,
                rounds,
                scans,
            } => patterns::Broadcast {
                blocks,
                rounds,
                scans,
            }
            .build(nprocs),
            WorkloadKind::FalseShare { blocks, rounds } => {
                patterns::FalseShare { blocks, rounds }.build(nprocs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    #[test]
    fn names_are_informative() {
        assert_eq!(WorkloadKind::Lu { n: 128 }.name(), "LU(128x128)");
        assert_eq!(
            WorkloadKind::Mp3d {
                particles: 3000,
                steps: 10
            }
            .name(),
            "MP3D(3000p,10s)"
        );
    }

    #[test]
    fn every_small_app_runs_verified_on_dirtree() {
        // The four applications, shrunk for unit-test time.
        let tiny = [
            WorkloadKind::Mp3d {
                particles: 40,
                steps: 2,
            },
            WorkloadKind::Lu { n: 10 },
            WorkloadKind::Floyd {
                vertices: 8,
                seed: 1996,
            },
            WorkloadKind::Fft { points: 32 },
        ];
        for app in tiny {
            let mut w = app.build(4);
            let mut m = Machine::new(
                MachineConfig::test_default(4),
                ProtocolKind::DirTree {
                    pointers: 4,
                    arity: 2,
                },
            );
            let out = m.run(&mut w);
            assert!(out.stats.total_ops() > 0, "{} did nothing", app.name());
        }
    }
}
