//! Jacobi stencil relaxation (extension workload).
//!
//! A `g × g` grid, row-block partitioned, ping-pong buffers, barrier per
//! sweep. Sharing is *nearest-neighbour only* — each processor reads just
//! the boundary rows of its two neighbours — the opposite extreme from
//! Floyd-Warshall's all-read-row-k pattern, and a regime where limited
//! directories never overflow (sharing degree ≤ 2). Useful as a control
//! workload: the paper's protocols should all tie here.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// Parameters for the Jacobi workload.
#[derive(Clone, Copy, Debug)]
pub struct Jacobi {
    pub grid: u64,
    pub sweeps: u64,
}

impl Jacobi {
    /// Deterministic input field.
    pub fn input(&self, r: u64, c: u64) -> f64 {
        if r == 0 || c == 0 || r == self.grid - 1 || c == self.grid - 1 {
            // Fixed boundary.
            ((r * 31 + c * 17) % 100) as f64 / 10.0
        } else {
            0.0
        }
    }

    /// Sequential reference: the field after `sweeps` Jacobi iterations.
    pub fn reference(&self) -> Vec<f64> {
        let g = self.grid as usize;
        let mut a: Vec<f64> = (0..g * g)
            .map(|i| self.input((i / g) as u64, (i % g) as u64))
            .collect();
        let mut b = a.clone();
        for _ in 0..self.sweeps {
            for r in 1..g - 1 {
                for c in 1..g - 1 {
                    b[r * g + c] = 0.25
                        * (a[(r - 1) * g + c]
                            + a[(r + 1) * g + c]
                            + a[r * g + c - 1]
                            + a[r * g + c + 1]);
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// Two ping-pong grids.
    pub fn shared_words(&self) -> u64 {
        2 * self.grid * self.grid
    }

    /// Which buffer holds the result.
    pub fn result_buffer(&self) -> u64 {
        self.sweeps % 2
    }

    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        assert!(self.grid >= 4);
        let params = *self;
        let mut alloc = Alloc::new();
        let buf = [
            alloc.matrix(self.grid, self.grid),
            alloc.matrix(self.grid, self.grid),
        ];
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let g = params.grid;
                let p = nprocs as u64;
                let me = tid as u64;
                // Row-block partition of interior rows 1..g-1.
                let interior = g - 2;
                let per = interior.div_ceil(p);
                let lo = 1 + me * per;
                let hi = (1 + (me + 1) * per).min(g - 1);

                // Initialize owned rows (plus boundary rows by proc 0).
                let mut init_rows: Vec<u64> = (lo..hi).collect();
                if tid == 0 {
                    init_rows.push(0);
                    init_rows.push(g - 1);
                }
                for &r in &init_rows {
                    for c in 0..g {
                        let v = params.input(r, c);
                        env.write_f(buf[0].at(r, c), v).await;
                        env.write_f(buf[1].at(r, c), v).await;
                    }
                }
                env.barrier().await;

                let mut cur = 0usize;
                for _sweep in 0..params.sweeps {
                    let nxt = cur ^ 1;
                    for r in lo..hi.max(lo) {
                        // Read the row above once (may belong to a
                        // neighbour processor), then stream.
                        for c in 1..g - 1 {
                            let up = env.read_f(buf[cur].at(r - 1, c)).await;
                            let down = env.read_f(buf[cur].at(r + 1, c)).await;
                            let left = env.read_f(buf[cur].at(r, c - 1)).await;
                            let right = env.read_f(buf[cur].at(r, c + 1)).await;
                            env.write_f(buf[nxt].at(r, c), 0.25 * (up + down + left + right))
                                .await;
                        }
                        env.work(g / 4 + 1).await;
                    }
                    env.barrier().await;
                    cur = nxt;
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

    fn run(params: Jacobi, nodes: u32, kind: ProtocolKind) -> Vec<f64> {
        let mut w = params.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        let g = params.grid;
        let base = params.result_buffer() * g * g;
        (0..g * g).map(|i| w2f(w.value_at(base + i))).collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((x - y).abs() < 1e-12, "cell {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_sequential_reference() {
        let p = Jacobi {
            grid: 10,
            sweeps: 4,
        };
        assert_close(&run(p, 4, ProtocolKind::FullMap), &p.reference());
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
    fn relaxation_smooths_toward_boundary_values() {
        let p = Jacobi {
            grid: 8,
            sweeps: 40,
        };
        let field = p.reference();
        let g = p.grid as usize;
        // After many sweeps every interior cell is within the boundary
        // value range (discrete maximum principle).
        let boundary: Vec<f64> = (0..g)
            .flat_map(|i| {
                [
                    p.input(0, i as u64),
                    p.input((g - 1) as u64, i as u64),
                    p.input(i as u64, 0),
                    p.input(i as u64, (g - 1) as u64),
                ]
            })
            .collect();
        let (lo, hi) = boundary
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        for r in 1..g - 1 {
            for c in 1..g - 1 {
                let v = field[r * g + c];
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "cell ({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn sharing_degree_stays_tiny() {
        // Nearest-neighbour sharing: even Dir1NB should not thrash.
        let p = Jacobi {
            grid: 10,
            sweeps: 3,
        };
        let mut w = p.build(4);
        let mut m = Machine::new(
            MachineConfig::test_default(4),
            ProtocolKind::LimitedNB { pointers: 2 },
        );
        let out = m.run(&mut w);
        // With <= 2 sharers per block, Dir2NB never evicts pointers.
        assert_eq!(out.stats.replacement_invalidations, 0);
    }
}
