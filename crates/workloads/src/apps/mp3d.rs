//! MP3D-style rarefied-flow particle simulation (§4 of the paper; the
//! paper runs the SPLASH MP3D with 3000 particles for 10 steps).
//!
//! We reproduce the *sharing structure* that makes MP3D notorious for low
//! speedups: particles are partitioned across processors, but every
//! particle move performs a read-modify-write on a shared 3-D space-cell
//! array — fine-grained write sharing with essentially random cell owners,
//! plus per-step global phases. Collisions read the *previous* step's cell
//! occupancy (ping-pong arrays), which keeps results deterministic across
//! protocols while still exercising migratory data.
//!
//! Positions and velocities use a fixed-point representation (1/1024
//! units) stored in shared words.

use crate::layout::Alloc;
use crate::rendezvous::ThreadedWorkload;
use dirtree_sim::SimRng;

/// Fixed-point scale: 1024 units per cell side.
const FP: i64 = 1024;

/// Parameters for the MP3D-style workload.
#[derive(Clone, Copy, Debug)]
pub struct Mp3d {
    pub particles: u64,
    pub steps: u64,
    /// Space is a `grid × grid × grid` torus of unit cells.
    pub grid: u64,
    pub seed: u64,
}

/// One particle's state: position and velocity in fixed point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Particle {
    pub pos: [i64; 3],
    pub vel: [i64; 3],
}

impl Mp3d {
    fn extent(&self) -> i64 {
        self.grid as i64 * FP
    }

    /// Deterministic initial particle state.
    pub fn initial(&self, id: u64) -> Particle {
        let mut rng = SimRng::new(self.seed ^ id.wrapping_mul(0x9e37_79b9));
        let mut pos = [0i64; 3];
        for d in &mut pos {
            *d = rng.gen_range(self.extent() as u64) as i64;
        }
        let mut vel = [0i64; 3];
        for d in &mut vel {
            *d = (rng.gen_range(2 * FP as u64) as i64) - FP;
        }
        Particle { pos, vel }
    }

    fn cell_of(&self, pos: &[i64; 3]) -> u64 {
        let g = self.grid as i64;
        let cx = pos[0] / FP;
        let cy = pos[1] / FP;
        let cz = pos[2] / FP;
        ((cx * g + cy) * g + cz) as u64
    }

    fn cells(&self) -> u64 {
        self.grid * self.grid * self.grid
    }

    /// Advance one particle one step, given the previous-step occupancy of
    /// its cell (the deterministic collision surrogate: dense cells
    /// scatter the particle).
    pub fn advance(&self, p: &mut Particle, prev_occupancy: u64) {
        let ext = self.extent();
        if prev_occupancy >= 3 {
            // "Collision": reflect and damp, deterministically.
            for v in p.vel.iter_mut() {
                *v = -*v + (*v >> 3);
            }
        }
        for d in 0..3 {
            p.pos[d] = (p.pos[d] + p.vel[d]).rem_euclid(ext);
        }
    }

    /// Sequential reference: final particle states.
    pub fn reference(&self) -> Vec<Particle> {
        let mut parts: Vec<Particle> = (0..self.particles).map(|i| self.initial(i)).collect();
        let mut prev = vec![0u64; self.cells() as usize];
        for _ in 0..self.steps {
            let mut cur = vec![0u64; self.cells() as usize];
            for p in parts.iter_mut() {
                let cell = self.cell_of(&p.pos) as usize;
                cur[cell] += 1;
                self.advance(p, prev[cell]);
            }
            prev = cur;
        }
        parts
    }

    /// Layout: 6 words per particle, then two cell arrays (ping-pong).
    pub fn shared_words(&self) -> u64 {
        6 * self.particles + 2 * self.cells()
    }

    pub fn particle_base(&self, id: u64) -> u64 {
        6 * id
    }

    fn enc(v: i64) -> u64 {
        v as u64
    }

    fn dec(w: u64) -> i64 {
        w as i64
    }

    /// Build the execution-driven workload (particles block-partitioned).
    pub fn build(&self, nprocs: u32) -> ThreadedWorkload {
        let params = *self;
        let mut alloc = Alloc::new();
        let pstate = alloc.array(6 * self.particles);
        let cells = [alloc.array(self.cells()), alloc.array(self.cells())];
        ThreadedWorkload::new(nprocs, alloc.used(), move |tid, mut env| {
            Box::pin(async move {
                let p = nprocs as u64;
                let me = tid as u64;
                let per = params.particles.div_ceil(p);
                let lo = me * per;
                let hi = ((me + 1) * per).min(params.particles);
                let ncells = params.cells();

                // Initialize owned particles.
                for id in lo..hi {
                    let st = params.initial(id);
                    let base = pstate.at(6 * id);
                    for d in 0..3 {
                        env.write(base + d as u64, Mp3d::enc(st.pos[d])).await;
                        env.write(base + 3 + d as u64, Mp3d::enc(st.vel[d])).await;
                    }
                }
                // Zero owned slice of both cell arrays.
                for c in (0..ncells).filter(|c| c % p == me) {
                    env.write(cells[0].at(c), 0).await;
                    env.write(cells[1].at(c), 0).await;
                }
                env.barrier().await;

                let mut cur = 0usize;
                for _step in 0..params.steps {
                    let prev = cur ^ 1;
                    for id in lo..hi {
                        let base = pstate.at(6 * id);
                        let mut part = Particle {
                            pos: [0; 3],
                            vel: [0; 3],
                        };
                        for d in 0..3 {
                            part.pos[d] = Mp3d::dec(env.read(base + d as u64).await);
                            part.vel[d] = Mp3d::dec(env.read(base + 3 + d as u64).await);
                        }
                        let cell = params.cell_of(&part.pos);
                        // The notorious shared read-modify-write, locked
                        // per cell as in the original MP3D.
                        env.lock(cell as u32).await;
                        let occ = env.read(cells[cur].at(cell)).await;
                        env.write(cells[cur].at(cell), occ + 1).await;
                        env.unlock(cell as u32).await;
                        let prev_occ = env.read(cells[prev].at(cell)).await;
                        params.advance(&mut part, prev_occ);
                        for d in 0..3 {
                            env.write(base + d as u64, Mp3d::enc(part.pos[d])).await;
                            env.write(base + 3 + d as u64, Mp3d::enc(part.vel[d])).await;
                        }
                        env.work(4).await;
                    }
                    env.barrier().await;
                    // Clear the previous-step array for reuse next step.
                    for c in (0..ncells).filter(|c| c % p == me) {
                        env.write(cells[prev].at(c), 0).await;
                    }
                    env.barrier().await;
                    cur = prev;
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

    fn small() -> Mp3d {
        Mp3d {
            particles: 60,
            steps: 4,
            grid: 4,
            seed: 11,
        }
    }

    fn run(params: Mp3d, nodes: u32, kind: ProtocolKind) -> Vec<Particle> {
        let mut w = params.build(nodes);
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        m.run(&mut w);
        (0..params.particles)
            .map(|id| {
                let b = params.particle_base(id);
                Particle {
                    pos: [
                        Mp3d::dec(w.value_at(b)),
                        Mp3d::dec(w.value_at(b + 1)),
                        Mp3d::dec(w.value_at(b + 2)),
                    ],
                    vel: [
                        Mp3d::dec(w.value_at(b + 3)),
                        Mp3d::dec(w.value_at(b + 4)),
                        Mp3d::dec(w.value_at(b + 5)),
                    ],
                }
            })
            .collect()
    }

    #[test]
    fn positions_stay_in_the_torus() {
        let p = small();
        for part in p.reference() {
            for d in 0..3 {
                assert!(part.pos[d] >= 0 && part.pos[d] < p.extent());
            }
        }
    }

    #[test]
    fn parallel_matches_reference_fullmap() {
        let p = small();
        assert_eq!(run(p, 4, ProtocolKind::FullMap), p.reference());
    }

    #[test]
    fn parallel_matches_reference_dirtree() {
        let p = small();
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
    fn initial_state_is_deterministic() {
        let p = small();
        assert_eq!(p.initial(5), p.initial(5));
        assert_ne!(p.initial(5), p.initial(6));
    }

    #[test]
    fn collisions_change_trajectories() {
        // A dense configuration must trigger the collision branch.
        let p = Mp3d {
            particles: 40,
            steps: 3,
            grid: 2,
            seed: 2,
        };
        let with = p.reference();
        // Rerun with collision disabled by spreading over a huge grid
        // (same velocities, no dense cells).
        let sparse = Mp3d { grid: 16, ..p };
        let without = sparse.reference();
        let changed = with
            .iter()
            .zip(without.iter())
            .filter(|(a, b)| a.vel != b.vel)
            .count();
        assert!(changed > 0, "no collision ever fired in the dense case");
    }
}
