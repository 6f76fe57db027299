//! The replacement storm: a synthetic microbenchmark that thrashes every
//! cache. The one-writer/many-readers and migratory patterns the ablations
//! run are the `Broadcast` and `TokenRing` kernels of
//! [`crate::apps::patterns`].

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

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
