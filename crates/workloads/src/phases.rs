//! Phase-structured seeded random traces.
//!
//! The differential tests drive every protocol with the same randomized
//! (but seeded) operation trace: per phase, a deterministic owner writes
//! each block, a barrier orders the phase, then every processor reads a
//! private random subset of blocks and folds the loaded values into a
//! running checksum, published to a per-processor checksum word at the
//! end. The checksums are the *per-processor read values* — any protocol
//! that ever serves one stale load diverges from the full-map oracle.
//!
//! The generator lives here (rather than inline in the test) so the
//! integration tests, the model-checker harnesses, and future fuzz drivers
//! all stress protocols with the same trace family.

use crate::rendezvous::ThreadedWorkload;
use dirtree_sim::SimRng;

/// Parameters of one phase-structured trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhasedTrace {
    pub nodes: u32,
    /// Shared data blocks (checksum words are allocated after them).
    pub blocks: u64,
    pub phases: u64,
    /// Random reads each processor performs per phase.
    pub reads_per_phase: u64,
    pub seed: u64,
}

impl PhasedTrace {
    /// Which processor writes `block` during `phase` (deterministic,
    /// spread across all processors so ownership migrates between phases).
    pub fn owner(&self, phase: u64, block: u64) -> u64 {
        (block.wrapping_mul(7).wrapping_add(phase.wrapping_mul(13))) % self.nodes as u64
    }

    /// The value the owner publishes (protocol-independent by construction).
    pub fn published(&self, phase: u64, block: u64) -> u64 {
        phase * 1_000_003 + block * 97 + self.owner(phase, block)
    }

    /// Shared words: the data blocks plus one checksum word per processor.
    pub fn shared_words(&self) -> u64 {
        self.blocks + self.nodes as u64
    }

    /// Address of processor `tid`'s checksum word.
    pub fn checksum_addr(&self, tid: u64) -> u64 {
        self.blocks + tid
    }

    pub fn build(&self) -> ThreadedWorkload {
        let t = *self;
        ThreadedWorkload::new(self.nodes, self.shared_words(), move |tid, mut env| {
            Box::pin(async move {
                // Each processor draws its read pattern from a private stream,
                // so the trace is random but identical across protocols.
                let mut rng = SimRng::new(t.seed ^ (tid as u64).wrapping_mul(0x9e37_79b9));
                let mut acc = 0u64;
                for phase in 0..t.phases {
                    for block in 0..t.blocks {
                        if t.owner(phase, block) == tid as u64 {
                            env.write(block, t.published(phase, block)).await;
                        }
                    }
                    env.barrier().await;
                    for _ in 0..t.reads_per_phase {
                        let block = rng.gen_range(t.blocks);
                        acc = acc.wrapping_mul(31).wrapping_add(env.read(block).await);
                    }
                    env.barrier().await;
                }
                env.write(t.checksum_addr(tid as u64), acc).await;
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    #[test]
    fn trace_is_deterministic_and_checksums_are_produced() {
        let t = PhasedTrace {
            nodes: 4,
            blocks: 8,
            phases: 2,
            reads_per_phase: 6,
            seed: 42,
        };
        let run = || {
            let mut w = t.build();
            let mut m = Machine::new(MachineConfig::test_default(t.nodes), ProtocolKind::FullMap);
            m.run(&mut w);
            w.values().to_vec()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must reproduce the same memory image");
        for block in 0..t.blocks {
            assert_eq!(a[block as usize], t.published(t.phases - 1, block));
        }
        for tid in 0..t.nodes as u64 {
            assert_ne!(
                a[t.checksum_addr(tid) as usize],
                0,
                "tid {tid} read nothing"
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| PhasedTrace {
            nodes: 4,
            blocks: 8,
            phases: 2,
            reads_per_phase: 6,
            seed,
        };
        let run = |t: PhasedTrace| {
            let mut w = t.build();
            let mut m = Machine::new(MachineConfig::test_default(t.nodes), ProtocolKind::FullMap);
            m.run(&mut w);
            w.values().to_vec()
        };
        assert_ne!(run(mk(1)), run(mk(2)), "checksums must depend on the seed");
    }
}
