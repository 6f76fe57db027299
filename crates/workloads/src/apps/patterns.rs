//! Sharing-pattern microbenchmarks for the adaptive update/invalidate
//! protocol: each workload exhibits one canonical pattern in pure form, so
//! the `adaptive_ablation` experiment can measure how close the adaptive
//! policy gets to the better static protocol on each — and how far the
//! worse static protocol falls behind.
//!
//! | workload      | pattern           | best static policy |
//! |---------------|-------------------|--------------------|
//! | [`PcPipeline`]| producer–consumer | update             |
//! | [`TokenRing`] | migratory         | invalidate         |
//! | [`Broadcast`] | read-mostly       | update             |
//! | [`FalseShare`]| write-shared      | invalidate         |

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// Producer–consumer pipeline: processor `s` publishes into buffer `s`
/// each round, and processor `s+1` consumes it. One stable writer and one
/// stable (non-migrating) reader per block: invalidation makes every
/// consume a remote miss; updates turn them all into hits.
#[derive(Clone, Copy, Debug)]
pub struct PcPipeline {
    /// Pipeline stages (buffers); capped at the processor count.
    pub buffers: u64,
    pub rounds: u64,
}

impl PcPipeline {
    pub fn shared_words(&self) -> u64 {
        self.buffers
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let stages = self.buffers.min(nprocs as u64);
        let mut alloc = Alloc::new();
        let bufs = alloc.array(self.buffers);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let t = tid as u64;
                for round in 0..params.rounds {
                    if t < stages {
                        env.write(bufs.at(t), round * stages + t + 1).await;
                    }
                    env.barrier().await;
                    if t < stages {
                        // Consume the upstream stage's buffer.
                        let up = (t + stages - 1) % stages;
                        let v = env.read(bufs.at(up)).await;
                        env.work(1 + v % 3).await;
                    }
                    env.barrier().await;
                }
            })
        })
    }
}

/// Migratory token ring: each token block is read-modified-written by
/// every processor in turn. Exactly one copy is ever useful; updates to
/// the previous holders are pure waste, so invalidation wins.
#[derive(Clone, Copy, Debug)]
pub struct TokenRing {
    pub tokens: u64,
    /// Full trips of every token around the ring.
    pub laps: u64,
}

impl TokenRing {
    pub fn shared_words(&self) -> u64 {
        self.tokens
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let toks = alloc.array(self.tokens);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                for lap in 0..params.laps {
                    for holder in 0..nprocs as u64 {
                        if tid as u64 == holder {
                            for t in 0..params.tokens {
                                let v = env.read(toks.at(t)).await;
                                env.write(toks.at(t), v + 1).await;
                            }
                        }
                        env.barrier().await;
                    }
                    let _ = lap;
                }
            })
        })
    }
}

/// Read-mostly broadcast table: every processor re-reads the whole table
/// several times per round; a single writer refreshes it between rounds.
/// The strongest case for updates — one write wave keeps `P` copies warm.
#[derive(Clone, Copy, Debug)]
pub struct Broadcast {
    pub blocks: u64,
    pub rounds: u64,
    /// Table scans per processor per round (re-reads after the first scan
    /// hit in update mode but miss after each invalidation).
    pub scans: u64,
}

impl Broadcast {
    pub fn shared_words(&self) -> u64 {
        self.blocks
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let table = alloc.array(self.blocks);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                for round in 0..params.rounds {
                    if tid == 0 {
                        for b in 0..params.blocks {
                            env.write(table.at(b), round * params.blocks + b).await;
                        }
                    }
                    env.barrier().await;
                    let mut acc = 0u64;
                    for _ in 0..params.scans {
                        for b in 0..params.blocks {
                            acc = acc.wrapping_add(env.read(table.at(b)).await);
                        }
                    }
                    env.work(1 + acc % 3).await; // keep `acc` live
                    env.barrier().await;
                }
            })
        })
    }
}

/// Write-shared stress (the update protocol's pathology): every processor
/// reads the table once — seeding `P` sharers — then writers ping-pong
/// over it with no intervening reads. An update protocol pushes every
/// write to `P` stale copies forever; invalidation pays one wave and then
/// writes locally. (With the paper's one-word blocks true false sharing
/// cannot occur, so this models the same stale-sharer cost directly.)
#[derive(Clone, Copy, Debug)]
pub struct FalseShare {
    pub blocks: u64,
    pub rounds: u64,
}

impl FalseShare {
    pub fn shared_words(&self) -> u64 {
        self.blocks
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let data = alloc.array(self.blocks);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                // Seed wide sharing once.
                let mut acc = 0u64;
                for b in 0..params.blocks {
                    acc = acc.wrapping_add(env.read(data.at(b)).await);
                }
                env.work(1 + acc % 3).await;
                env.barrier().await;
                // Then pure writer ping-pong: round r's writer rewrites the
                // whole table, nobody reads it again.
                for round in 0..params.rounds {
                    if tid as u64 == round % nprocs.min(4) as u64 {
                        for b in 0..params.blocks {
                            env.write(data.at(b), round * params.blocks + b).await;
                        }
                    }
                    env.barrier().await;
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig, RunOutcome};

    fn run(
        nodes: u32,
        kind: ProtocolKind,
        build: impl FnOnce(u32) -> ThreadedWorkload,
    ) -> RunOutcome {
        let mut w = build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w)
    }

    const KINDS: [ProtocolKind; 3] = [
        ProtocolKind::DirTree {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTreeUpdate {
            pointers: 4,
            arity: 2,
        },
        ProtocolKind::DirTreeAdaptive {
            pointers: 4,
            arity: 2,
        },
    ];

    #[test]
    fn pipeline_runs_verified_under_all_three_policies() {
        for kind in KINDS {
            let out = run(8, kind, |n| {
                PcPipeline {
                    buffers: 8,
                    rounds: 6,
                }
                .build(n)
            });
            assert_eq!(out.stats.writes, 8 * 6, "{kind:?}");
        }
    }

    #[test]
    fn token_ring_counts_every_hop() {
        for kind in KINDS {
            let mut w = TokenRing { tokens: 3, laps: 2 }.build(4);
            let mut m = Machine::new(MachineConfig::test_default(4), kind);
            m.run(&mut w);
            for t in 0..3 {
                assert_eq!(w.value_at(t), 2 * 4, "{kind:?}: token {t} lost a hop");
            }
        }
    }

    #[test]
    fn broadcast_reads_dominate() {
        for kind in KINDS {
            let out = run(8, kind, |n| {
                Broadcast {
                    blocks: 6,
                    rounds: 4,
                    scans: 3,
                }
                .build(n)
            });
            assert!(out.stats.reads > 10 * out.stats.writes, "{kind:?}");
        }
    }

    #[test]
    fn false_share_verifies_and_update_pays_more_traffic() {
        let inv = run(8, KINDS[0], |n| {
            FalseShare {
                blocks: 6,
                rounds: 12,
            }
            .build(n)
        });
        let upd = run(8, KINDS[1], |n| {
            FalseShare {
                blocks: 6,
                rounds: 12,
            }
            .build(n)
        });
        let _ = run(8, KINDS[2], |n| {
            FalseShare {
                blocks: 6,
                rounds: 12,
            }
            .build(n)
        });
        assert!(
            upd.stats.messages > inv.stats.messages,
            "update ({}) must out-message invalidate ({}) on writer ping-pong",
            upd.stats.messages,
            inv.stats.messages
        );
    }

    #[test]
    fn adaptive_flips_where_it_should() {
        // Broadcast should push blocks to update mode; the token ring and
        // the write-shared stress should leave (or bring) them invalidate.
        let b = run(8, KINDS[2], |n| {
            Broadcast {
                blocks: 6,
                rounds: 6,
                scans: 2,
            }
            .build(n)
        });
        assert!(
            b.stats.mode_flips_to_update >= 1,
            "broadcast produced no update flips"
        );
        assert!(b.stats.pattern_read_mostly > 0);
        let t = run(8, KINDS[2], |n| TokenRing { tokens: 3, laps: 4 }.build(n));
        assert_eq!(t.stats.mode_flips_to_update, 0, "migratory must not flip");
        assert!(t.stats.pattern_migratory > 0);
    }
}
