//! Dense LU factorization without pivoting (§4 of the paper, after the
//! SPLASH LU kernel; the paper uses a 128×128 matrix).
//!
//! Columns are interleaved across processors (owner-computes). At step
//! `k` the owner of column `k` scales the subcolumn, then every processor
//! reads that pivot column to update its own columns — the pivot column is
//! the read-shared hot data.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// Parameters for the LU workload.
#[derive(Clone, Copy, Debug)]
pub struct Lu {
    pub n: u64,
}

impl Lu {
    /// Deterministic diagonally-dominant input matrix.
    pub fn input(&self, i: u64, j: u64) -> f64 {
        let n = self.n as f64;
        let base = ((i * 7 + j * 13) % 17) as f64 / 17.0 - 0.5;
        if i == j {
            base + n
        } else {
            base
        }
    }

    /// Sequential in-place LU (no pivoting): returns the factored matrix
    /// (L below the diagonal, U on and above).
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
            for j in k + 1..n {
                let akj = a[k * n + j];
                for i in k + 1..n {
                    let l = a[i * n + k];
                    a[i * n + j] -= l * akj;
                }
            }
        }
        a
    }

    pub fn shared_words(&self) -> u64 {
        self.n * self.n
    }

    /// Build the execution-driven workload (column-interleaved ownership).
    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let a = alloc.matrix(self.n, self.n);
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let n = params.n;
                let p = nprocs as u64;
                let me = tid as u64;
                let mine = |col: u64| col % p == me;

                // Initialize owned columns.
                for j in (0..n).filter(|&j| mine(j)) {
                    for i in 0..n {
                        env.write_f(a.at(i, j), params.input(i, j)).await;
                    }
                }
                env.barrier().await;

                for k in 0..n {
                    if mine(k) {
                        // Scale the pivot subcolumn.
                        let pivot = env.read_f(a.at(k, k)).await;
                        for i in k + 1..n {
                            let v = env.read_f(a.at(i, k)).await;
                            env.write_f(a.at(i, k), v / pivot).await;
                        }
                    }
                    env.barrier().await;
                    // Everyone reads the pivot column once (read-shared),
                    // then updates its own trailing columns.
                    let owned_trailing: Vec<u64> = (k + 1..n).filter(|&j| mine(j)).collect();
                    if !owned_trailing.is_empty() {
                        let mut col_k = Vec::with_capacity((n - k - 1) as usize);
                        for i in k + 1..n {
                            col_k.push(env.read_f(a.at(i, k)).await);
                        }
                        for &j in &owned_trailing {
                            let akj = env.read_f(a.at(k, j)).await;
                            for i in k + 1..n {
                                let aij = env.read_f(a.at(i, j)).await;
                                env.write_f(a.at(i, j), aij - col_k[(i - k - 1) as usize] * akj)
                                    .await;
                            }
                            env.work((n - k) / 8 + 1).await;
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

    fn run(params: Lu, nodes: u32, kind: ProtocolKind) -> Vec<f64> {
        let mut w = params.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        w.values().iter().map(|&v| w2f(v)).collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_sequential_reference_fullmap() {
        let p = Lu { n: 12 };
        assert_close(&run(p, 4, ProtocolKind::FullMap), &p.reference());
    }

    #[test]
    fn matches_sequential_reference_dirtree() {
        let p = Lu { n: 12 };
        assert_close(
            &run(
                p,
                4,
                ProtocolKind::DirTree {
                    pointers: 2,
                    arity: 2,
                },
            ),
            &p.reference(),
        );
    }

    #[test]
    fn factorization_reconstructs_input() {
        // Multiply L*U back and compare to the input matrix.
        let p = Lu { n: 10 };
        let n = p.n as usize;
        let lu = p.reference();
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0;
                for k in 0..=i.min(j) {
                    let l = if k == i { 1.0 } else { lu[i * n + k] };
                    sum += l * lu[k * n + j];
                }
                let want = p.input(i as u64, j as u64);
                assert!(
                    (sum - want).abs() < 1e-8 * (1.0 + want.abs()),
                    "A[{i}][{j}] = {want}, L·U = {sum}"
                );
            }
        }
    }

    #[test]
    fn single_processor_degenerate_case() {
        let p = Lu { n: 8 };
        assert_close(&run(p, 2, ProtocolKind::FullMap), &p.reference());
    }
}
