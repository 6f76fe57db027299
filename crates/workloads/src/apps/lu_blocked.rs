//! SPLASH-style *blocked* dense LU factorization (§4: "a parallel version
//! of dense blocked LU factorization without pivoting. The data structure
//! includes two dimensional arrays in which the first dimension is the
//! block to be operated on").
//!
//! The matrix is partitioned into B×B blocks, each owned by a processor
//! (2-D scatter). Step k: the owner factorizes the diagonal block; owners
//! of perimeter blocks solve against it (reading the diagonal block —
//! read-shared); owners of interior blocks update against their row/column
//! perimeter blocks (read-shared along rows and columns). This is the
//! working-set- and sharing-faithful version of the kernel; `lu.rs` keeps
//! the simpler column variant.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// Parameters for the blocked LU workload.
#[derive(Clone, Copy, Debug)]
pub struct LuBlocked {
    /// Matrix dimension (multiple of `block`).
    pub n: u64,
    /// Block side length.
    pub block: u64,
}

impl LuBlocked {
    /// The paper's 128×128 with SPLASH's canonical 16×16 blocks.
    pub fn paper() -> Self {
        Self { n: 128, block: 16 }
    }

    fn nb(&self) -> u64 {
        self.n / self.block
    }

    /// Deterministic diagonally-dominant input.
    pub fn input(&self, i: u64, j: u64) -> f64 {
        let base = ((i * 7 + j * 13) % 17) as f64 / 17.0 - 0.5;
        if i == j {
            base + self.n as f64
        } else {
            base
        }
    }

    /// Sequential reference (identical operation order to the parallel
    /// version: unblocked elimination is arithmetic-identical to blocked
    /// elimination done in the k, i, j order used below).
    pub fn reference(&self) -> Vec<f64> {
        let n = self.n as usize;
        let mut a: Vec<f64> = (0..n * n)
            .map(|x| self.input((x / n) as u64, (x % n) as u64))
            .collect();
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                a[i * n + k] /= pivot;
            }
            for i in k + 1..n {
                let l = a[i * n + k];
                for j in k + 1..n {
                    a[i * n + j] -= l * a[k * n + j];
                }
            }
        }
        a
    }

    pub fn shared_words(&self) -> u64 {
        self.n * self.n
    }

    /// 2-D scatter ownership of blocks.
    fn owner(&self, bi: u64, bj: u64, nprocs: u64) -> u64 {
        (bi * self.nb() + bj) % nprocs
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        assert_eq!(self.n % self.block, 0, "n must be a multiple of block");
        let params = *self;
        let mut alloc = Alloc::new();
        let a = alloc.matrix(self.n, self.n);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let _n = params.n;
                let b = params.block;
                let nb = params.nb();
                let p = nprocs as u64;
                let me = tid as u64;
                let mine = |bi: u64, bj: u64| params.owner(bi, bj, p) == me;

                // Initialize owned blocks.
                for bi in 0..nb {
                    for bj in 0..nb {
                        if mine(bi, bj) {
                            for i in bi * b..(bi + 1) * b {
                                for j in bj * b..(bj + 1) * b {
                                    env.write_f(a.at(i, j), params.input(i, j)).await;
                                }
                            }
                        }
                    }
                }
                env.barrier().await;

                for bk in 0..nb {
                    let k0 = bk * b;
                    // Phase 1: factorize the diagonal block (its owner).
                    if mine(bk, bk) {
                        for k in k0..k0 + b {
                            let pivot = env.read_f(a.at(k, k)).await;
                            for i in k + 1..k0 + b {
                                let v = env.read_f(a.at(i, k)).await;
                                env.write_f(a.at(i, k), v / pivot).await;
                            }
                            for i in k + 1..k0 + b {
                                let l = env.read_f(a.at(i, k)).await;
                                for j in k + 1..k0 + b {
                                    let akj = env.read_f(a.at(k, j)).await;
                                    let v = env.read_f(a.at(i, j)).await;
                                    env.write_f(a.at(i, j), v - l * akj).await;
                                }
                            }
                            env.work(b / 2 + 1).await;
                        }
                    }
                    env.barrier().await;
                    // Phase 2: perimeter blocks solve against the diagonal
                    // block (read-shared by every perimeter owner).
                    for bi in bk + 1..nb {
                        if mine(bi, bk) {
                            // Column perimeter: A(bi,bk) := A(bi,bk) U⁻¹,
                            // with the division by the pivot folded in.
                            for k in k0..k0 + b {
                                let pivot = env.read_f(a.at(k, k)).await;
                                for i in bi * b..(bi + 1) * b {
                                    let v = env.read_f(a.at(i, k)).await;
                                    env.write_f(a.at(i, k), v / pivot).await;
                                }
                                for i in bi * b..(bi + 1) * b {
                                    let l = env.read_f(a.at(i, k)).await;
                                    for j in k + 1..k0 + b {
                                        let akj = env.read_f(a.at(k, j)).await;
                                        let v = env.read_f(a.at(i, j)).await;
                                        env.write_f(a.at(i, j), v - l * akj).await;
                                    }
                                }
                            }
                            env.work(b + 1).await;
                        }
                        if mine(bk, bi) {
                            // Row perimeter: A(bk,bi) := L⁻¹ A(bk,bi).
                            for k in k0..k0 + b {
                                for i in k + 1..k0 + b {
                                    let l = env.read_f(a.at(i, k)).await;
                                    for j in bi * b..(bi + 1) * b {
                                        let akj = env.read_f(a.at(k, j)).await;
                                        let v = env.read_f(a.at(i, j)).await;
                                        env.write_f(a.at(i, j), v - l * akj).await;
                                    }
                                }
                            }
                            env.work(b + 1).await;
                        }
                    }
                    env.barrier().await;
                    // Phase 3: interior update — each interior owner reads
                    // its row and column perimeter blocks (read-shared).
                    for bi in bk + 1..nb {
                        for bj in bk + 1..nb {
                            if mine(bi, bj) {
                                for k in k0..k0 + b {
                                    for i in bi * b..(bi + 1) * b {
                                        let l = env.read_f(a.at(i, k)).await;
                                        for j in bj * b..(bj + 1) * b {
                                            let akj = env.read_f(a.at(k, j)).await;
                                            let v = env.read_f(a.at(i, j)).await;
                                            env.write_f(a.at(i, j), v - l * akj).await;
                                        }
                                    }
                                }
                                env.work(b + 1).await;
                            }
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
    use crate::layout::w2f;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    fn run(params: LuBlocked, nodes: u32, kind: ProtocolKind) -> Vec<f64> {
        let mut w = params.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        w.values().iter().map(|&v| w2f(v)).collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-8 * (1.0 + y.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_sequential_reference_fullmap() {
        let p = LuBlocked { n: 12, block: 4 };
        assert_close(&run(p, 4, ProtocolKind::FullMap), &p.reference());
    }

    #[test]
    fn matches_sequential_reference_dirtree() {
        let p = LuBlocked { n: 12, block: 4 };
        assert_close(
            &run(
                p,
                4,
                ProtocolKind::DirTree {
                    pointers: 4,
                    arity: 2,
                },
            ),
            &p.reference(),
        );
    }

    #[test]
    fn blocked_and_unblocked_references_agree() {
        let blocked = LuBlocked { n: 16, block: 4 };
        let plain = crate::apps::lu::Lu { n: 16 };
        // Same input function => same factorization.
        for i in 0..16u64 {
            for j in 0..16u64 {
                assert_eq!(blocked.input(i, j), plain.input(i, j));
            }
        }
        let a = blocked.reference();
        let b = plain.reference();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn single_block_degenerates_to_sequential() {
        let p = LuBlocked { n: 8, block: 8 };
        assert_close(&run(p, 2, ProtocolKind::FullMap), &p.reference());
    }
}
