//! 1-D radix-2 FFT (§4 of the paper).
//!
//! A Stockham autosort formulation: every stage reads two (possibly
//! remote) source elements and writes one *owned* destination element into
//! a ping-pong buffer, with a barrier between stages — the classic
//! binary-exchange parallel FFT. Early stages pull data from distant
//! processors (cross-machine read sharing); late stages are local. No
//! bit-reversal pass is needed.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;

/// One butterfly assignment: `dst[o] = src[a] ± src[b]`, the `-` branch
/// additionally multiplied by the twiddle `w`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ButterflyMap {
    pub a: u64,
    pub b: u64,
    pub w: (f64, f64),
    pub subtract: bool,
}

/// Stockham decimation-in-frequency stage mapping: where output index `o`
/// of stage `stage` (0-based) comes from. Pure so the parallel program and
/// the sequential reference share it exactly.
pub fn stockham_map(n: u64, stage: u32, o: u64) -> ButterflyMap {
    let s = 1u64 << stage; // stride (already-combined sub-transforms)
    let nt = n >> stage; // remaining transform size
    let m = nt / 2;
    let q = o % s;
    let r = o / s;
    let p = r / 2;
    let a = q + s * p;
    let b = q + s * (p + m);
    if r.is_multiple_of(2) {
        ButterflyMap {
            a,
            b,
            w: (1.0, 0.0),
            subtract: false,
        }
    } else {
        let theta = -2.0 * std::f64::consts::PI * p as f64 / nt as f64;
        ButterflyMap {
            a,
            b,
            w: (theta.cos(), theta.sin()),
            subtract: true,
        }
    }
}

/// Apply one stage sequentially (reference path).
fn stage_seq(n: u64, stage: u32, src: &[(f64, f64)], dst: &mut [(f64, f64)]) {
    for o in 0..n {
        let m = stockham_map(n, stage, o);
        let (ar, ai) = src[m.a as usize];
        let (br, bi) = src[m.b as usize];
        dst[o as usize] = if m.subtract {
            let (dr, di) = (ar - br, ai - bi);
            (dr * m.w.0 - di * m.w.1, dr * m.w.1 + di * m.w.0)
        } else {
            (ar + br, ai + bi)
        };
    }
}

/// Parameters for the FFT workload.
#[derive(Clone, Copy, Debug)]
pub struct Fft {
    pub points: u64,
}

impl Fft {
    fn stages(&self) -> u32 {
        self.points.trailing_zeros()
    }

    /// Deterministic input signal.
    pub fn input(&self, i: u64) -> (f64, f64) {
        let x = i as f64;
        (
            (x * 0.37).sin() + 0.5 * (x * 0.11).cos(),
            0.25 * (x * 0.53).sin(),
        )
    }

    /// Sequential reference FFT via the same Stockham stages.
    pub fn reference(&self) -> Vec<(f64, f64)> {
        let n = self.points;
        let mut a: Vec<(f64, f64)> = (0..n).map(|i| self.input(i)).collect();
        let mut b = vec![(0.0, 0.0); n as usize];
        for stage in 0..self.stages() {
            stage_seq(n, stage, &a, &mut b);
            std::mem::swap(&mut a, &mut b);
        }
        a
    }

    /// Naive O(n²) DFT, for validating the Stockham formulation itself.
    pub fn naive_dft(&self) -> Vec<(f64, f64)> {
        let n = self.points;
        (0..n)
            .map(|k| {
                let mut acc = (0.0, 0.0);
                for t in 0..n {
                    let (xr, xi) = self.input(t);
                    let th = -2.0 * std::f64::consts::PI * (k * t % n) as f64 / n as f64;
                    let (c, s) = (th.cos(), th.sin());
                    acc.0 += xr * c - xi * s;
                    acc.1 += xr * s + xi * c;
                }
                acc
            })
            .collect()
    }

    /// Shared layout: two ping-pong complex buffers (re and im planes).
    pub fn shared_words(&self) -> u64 {
        4 * self.points
    }

    /// Build the execution-driven workload (block-distributed outputs).
    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        assert!(self.points.is_power_of_two());
        assert!(self.points >= nprocs as u64 * 2);
        let params = *self;
        let mut alloc = Alloc::new();
        let re = [alloc.array(self.points), alloc.array(self.points)];
        let im = [alloc.array(self.points), alloc.array(self.points)];
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let n = params.points;
                let p = nprocs as u64;
                let chunk = n / p;
                let me = tid as u64;
                let lo = me * chunk;
                let hi = if me + 1 == p { n } else { lo + chunk };

                // Initialize owned slice of buffer 0.
                for i in lo..hi {
                    let (xr, xi) = params.input(i);
                    env.write_f(re[0].at(i), xr).await;
                    env.write_f(im[0].at(i), xi).await;
                }
                env.barrier().await;

                let mut cur = 0usize;
                for stage in 0..params.stages() {
                    let nxt = cur ^ 1;
                    for o in lo..hi {
                        let m = stockham_map(n, stage, o);
                        let ar = env.read_f(re[cur].at(m.a)).await;
                        let ai = env.read_f(im[cur].at(m.a)).await;
                        let br = env.read_f(re[cur].at(m.b)).await;
                        let bi = env.read_f(im[cur].at(m.b)).await;
                        let (or_, oi) = if m.subtract {
                            let (dr, di) = (ar - br, ai - bi);
                            (dr * m.w.0 - di * m.w.1, dr * m.w.1 + di * m.w.0)
                        } else {
                            (ar + br, ai + bi)
                        };
                        env.write_f(re[nxt].at(o), or_).await;
                        env.write_f(im[nxt].at(o), oi).await;
                        env.work(2).await;
                    }
                    cur = nxt;
                    env.barrier().await;
                }
            })
        })
    }

    /// Which ping-pong buffer holds the result (0 or 1).
    pub fn result_buffer(&self) -> usize {
        (self.stages() % 2) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::w2f;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    fn close(a: (f64, f64), b: (f64, f64), tol: f64) -> bool {
        (a.0 - b.0).abs() < tol && (a.1 - b.1).abs() < tol
    }

    #[test]
    fn stockham_matches_naive_dft() {
        for n in [8u64, 16, 64] {
            let f = Fft { points: n };
            let fast = f.reference();
            let slow = f.naive_dft();
            for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
                assert!(
                    close(*a, *b, 1e-6 * n as f64),
                    "n={n} bin {i}: {a:?} vs {b:?}"
                );
            }
        }
    }

    fn run_parallel(points: u64, nodes: u32, kind: ProtocolKind) -> Vec<(f64, f64)> {
        let f = Fft { points };
        let mut w = f.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        let buf = f.result_buffer() as u64;
        (0..points)
            .map(|i| {
                (
                    w2f(w.value_at(buf * points + i)),
                    w2f(w.value_at(2 * points + buf * points + i)),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_matches_reference_fullmap() {
        let f = Fft { points: 64 };
        let want = f.reference();
        let got = run_parallel(64, 4, ProtocolKind::FullMap);
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert!(close(*a, *b, 1e-9), "bin {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn parallel_matches_reference_dirtree() {
        let f = Fft { points: 64 };
        let want = f.reference();
        let got = run_parallel(
            64,
            8,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
        );
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert!(close(*a, *b, 1e-9), "bin {i}: {a:?} vs {b:?}");
        }
    }

    #[test]
    fn stage_mapping_is_a_permutation_of_sources() {
        // Every stage must read each source index exactly twice (each
        // element feeds two butterflies) and write each output once.
        let n = 32u64;
        for stage in 0..5 {
            let mut reads = vec![0u32; n as usize];
            for o in 0..n {
                let m = stockham_map(n, stage, o);
                reads[m.a as usize] += 1;
                reads[m.b as usize] += 1;
            }
            assert!(
                reads.iter().all(|&c| c == 2),
                "stage {stage}: uneven source fan-out {reads:?}"
            );
        }
    }
}
