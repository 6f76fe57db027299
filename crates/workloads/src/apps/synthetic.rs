//! Synthetic microbenchmarks: controlled sharing patterns used by the
//! ablation experiments and stress tests.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// `readers` processors repeatedly read a window of shared blocks; one
/// writer periodically overwrites them. Controls the sharing degree seen
/// by write invalidations (the knob behind Table 1's `P`).
#[derive(Clone, Copy, Debug)]
pub struct Sharing {
    pub blocks: u64,
    pub rounds: u64,
}

impl Sharing {
    pub fn shared_words(&self) -> u64 {
        self.blocks
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let data = alloc.array(self.blocks);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                for round in 0..params.rounds {
                    if tid == 0 {
                        // The writer invalidates every reader each round.
                        for b in 0..params.blocks {
                            env.write(data.at(b), round * params.blocks + b).await;
                        }
                    }
                    env.barrier().await;
                    let mut acc = 0u64;
                    for b in 0..params.blocks {
                        acc = acc.wrapping_add(env.read(data.at(b)).await);
                    }
                    env.work(1 + acc % 3).await; // keep `acc` live
                    env.barrier().await;
                }
            })
        })
    }
}

/// Migratory pattern: a token of blocks is read-modified-written by each
/// processor in turn. Exercises dirty-block recalls (`WbReq`/`WbData`).
#[derive(Clone, Copy, Debug)]
pub struct Migratory {
    pub blocks: u64,
    pub rounds: u64,
}

impl Migratory {
    pub fn shared_words(&self) -> u64 {
        self.blocks
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let data = alloc.array(self.blocks);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let p = nprocs as u64;
                for round in 0..params.rounds {
                    // Token passing by turn: proc (round % p) owns this round.
                    if round % p == tid as u64 {
                        for b in 0..params.blocks {
                            let v = env.read(data.at(b)).await;
                            env.write(data.at(b), v + 1).await;
                        }
                    }
                    env.barrier().await;
                }
            })
        })
    }
}

/// Replacement storm: every processor streams over a working set far
/// larger than its cache, forcing continuous evictions — the worst case
/// for Dir_iTree_k's silent subtree replacement.
#[derive(Clone, Copy, Debug)]
pub struct Storm {
    pub words: u64,
    pub passes: u64,
}

impl Storm {
    pub fn shared_words(&self) -> u64 {
        self.words
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let data = alloc.array(self.words);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let stride = 1 + tid as u64;
                for pass in 0..params.passes {
                    for i in 0..params.words {
                        let a = (i * stride + pass) % params.words;
                        if (i + pass) % 13 == 0 {
                            let v = env.read(data.at(a)).await;
                            env.write(data.at(a), v ^ 1).await;
                        } else {
                            env.read(data.at(a)).await;
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

    fn run<BuildFn: FnOnce(u32) -> ThreadedWorkload>(
        nodes: u32,
        kind: ProtocolKind,
        build: BuildFn,
    ) -> (RunOutcome, ThreadedWorkload) {
        let mut w = build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        let out = m.run(&mut w);
        (out, w)
    }

    #[test]
    fn sharing_invalidates_readers_every_round() {
        let s = Sharing {
            blocks: 4,
            rounds: 3,
        };
        let (out, w) = run(8, ProtocolKind::FullMap, |n| s.build(n));
        // 7 readers × 4 blocks × (rounds-1) writes-after-share at least.
        assert!(out.stats.invalidations >= 7 * 4 * 2);
        assert_eq!(w.value_at(3), 2 * 4 + 3);
    }

    #[test]
    fn migratory_counts_exactly() {
        let mg = Migratory {
            blocks: 3,
            rounds: 8,
        };
        let (_, w) = run(
            4,
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            |n| mg.build(n),
        );
        for b in 0..3 {
            assert_eq!(w.value_at(b), 8, "block {b} missed an increment");
        }
    }

    #[test]
    fn storm_forces_evictions_under_tiny_cache() {
        let st = Storm {
            words: 512,
            passes: 2,
        };
        let (out, _) = run(
            4,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            |n| st.build(n),
        );
        assert!(
            out.stats.evictions > 100,
            "storm failed to thrash the cache"
        );
    }

    #[test]
    fn storm_passes_verification_on_every_family() {
        // The storm's writes race intentionally (values are not compared);
        // what matters is that the coherence witness stays silent.
        let st = Storm {
            words: 256,
            passes: 2,
        };
        for kind in [
            ProtocolKind::FullMap,
            ProtocolKind::LimitedB { pointers: 2 },
            ProtocolKind::LimitLess { pointers: 2 },
            ProtocolKind::DirTree {
                pointers: 1,
                arity: 2,
            },
        ] {
            let (out, _) = run(4, kind, |n| st.build(n));
            assert!(out.stats.writes > 0, "{kind:?} made no progress");
        }
    }
}
