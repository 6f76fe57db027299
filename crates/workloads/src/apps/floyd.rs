//! Floyd-Warshall all-pairs shortest paths (§4 of the paper).
//!
//! The paper runs a 32-vertex random graph. The distance matrix is a
//! shared 2-D array; each processor owns an interleaved set of rows. In
//! iteration `k` every processor reads the whole of row `k` — the *entire
//! matrix is read by everyone over the run*, the "large degree of data
//! sharing" the paper highlights for this workload.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;
use dirtree_sim::SimRng;

/// Edge-absent marker (saturating adds keep it below overflow).
pub const INF: u64 = 1 << 40;

/// Parameters for the Floyd-Warshall workload.
#[derive(Clone, Copy, Debug)]
pub struct Floyd {
    pub vertices: u64,
    pub seed: u64,
}

impl Floyd {
    /// Deterministic random adjacency matrix (row-major, `INF` = absent).
    pub fn graph(&self) -> Vec<u64> {
        let v = self.vertices as usize;
        let mut rng = SimRng::new(self.seed);
        let mut g = vec![INF; v * v];
        for i in 0..v {
            g[i * v + i] = 0;
            for j in 0..v {
                if i != j && rng.gen_bool(0.3) {
                    g[i * v + j] = 1 + rng.gen_range(9);
                }
            }
        }
        g
    }

    /// Sequential reference solution.
    pub fn reference(&self) -> Vec<u64> {
        let v = self.vertices as usize;
        let mut d = self.graph();
        for k in 0..v {
            for i in 0..v {
                let dik = d[i * v + k];
                for j in 0..v {
                    let alt = dik.saturating_add(d[k * v + j]);
                    if alt < d[i * v + j] {
                        d[i * v + j] = alt;
                    }
                }
            }
        }
        d
    }

    /// Total shared words.
    pub fn shared_words(&self) -> u64 {
        self.vertices * self.vertices
    }

    /// Build the execution-driven workload for `nprocs` processors.
    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let graph = std::sync::Arc::new(self.graph());
        let mut alloc = Alloc::new();
        let dist = alloc.matrix(self.vertices, self.vertices);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            let graph = graph.clone();
            Box::pin(async move {
                let v = params.vertices;
                let p = nprocs as u64;
                let mine = |row: u64| row % p == tid as u64;

                // Initialize owned rows.
                for i in (0..v).filter(|&i| mine(i)) {
                    for j in 0..v {
                        env.write(dist.at(i, j), graph[(i * v + j) as usize]).await;
                    }
                }
                env.barrier().await;

                for k in 0..v {
                    // The classic triple loop: row k is re-read through the
                    // cache for every owned row — cache hits normally, but
                    // repeated misses when a limited directory keeps
                    // victim-invalidating the sharers (the paper's "large
                    // degree of data sharing" stressor).
                    for i in (0..v).filter(|&i| mine(i)) {
                        let dik = if i == k {
                            0
                        } else {
                            env.read(dist.at(i, k)).await
                        };
                        for j in 0..v {
                            let dij = env.read(dist.at(i, j)).await;
                            let dkj = env.read(dist.at(k, j)).await;
                            let alt = dik.saturating_add(dkj);
                            if alt < dij {
                                env.write(dist.at(i, j), alt).await;
                            }
                        }
                        env.work(v / 4 + 1).await;
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
    use dirtree_machine::{Machine, MachineConfig};

    fn run(params: Floyd, nodes: u32, kind: ProtocolKind) -> Vec<u64> {
        let mut w = params.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        w.values().to_vec()
    }

    #[test]
    fn matches_sequential_reference_fullmap() {
        let p = Floyd {
            vertices: 12,
            seed: 7,
        };
        assert_eq!(run(p, 4, ProtocolKind::FullMap), p.reference());
    }

    #[test]
    fn matches_sequential_reference_dirtree() {
        let p = Floyd {
            vertices: 12,
            seed: 7,
        };
        assert_eq!(
            run(
                p,
                4,
                ProtocolKind::DirTree {
                    pointers: 4,
                    arity: 2
                }
            ),
            p.reference()
        );
    }

    #[test]
    fn matches_reference_under_pointer_thrashing() {
        // Dir1NB constantly steals pointers at this sharing degree.
        let p = Floyd {
            vertices: 10,
            seed: 3,
        };
        assert_eq!(
            run(p, 8, ProtocolKind::LimitedNB { pointers: 1 }),
            p.reference()
        );
    }

    #[test]
    fn reference_satisfies_triangle_inequality() {
        let p = Floyd {
            vertices: 16,
            seed: 5,
        };
        let v = p.vertices as usize;
        let d = p.reference();
        for i in 0..v {
            for j in 0..v {
                for k in 0..v {
                    assert!(
                        d[i * v + j] <= d[i * v + k].saturating_add(d[k * v + j]),
                        "triangle inequality violated at ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn graph_is_deterministic_per_seed() {
        let p = Floyd {
            vertices: 8,
            seed: 42,
        };
        assert_eq!(p.graph(), p.graph());
        let q = Floyd {
            vertices: 8,
            seed: 43,
        };
        assert_ne!(p.graph(), q.graph());
    }
}
