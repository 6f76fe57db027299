//! Outside estimates of the layers the wrappers cannot bracket: the `net`
//! send path, the `sim` event queue and the `core` cache sit *inside* the
//! machine's event loop and send path, so each is exercised on its own here
//! with the traffic the workload really produced. These are the numbers the
//! report labels `_est`.

use crate::wrap::SendRec;
use dirtree_core::cache::{AllocOutcome, Cache, CacheConfig};
use dirtree_core::msg::{Msg, MsgKind};
use dirtree_core::types::LineState;
use dirtree_machine::core::Ev;
use dirtree_machine::{DriverOp, MachineConfig};
use dirtree_net::{Network, NetworkStats};
use dirtree_sim::{EventQueue, SimRng};
use dirtree_workloads::OpTrace;
use std::time::Instant;

/// Replay a run's sends into a fresh network. Returns the wall time in
/// nanoseconds and the replayed network's statistics, which must equal the
/// run's own (they do whenever no send was parked, i.e. without credits).
pub fn net_replay(sends: &[SendRec], config: &MachineConfig) -> (f64, NetworkStats) {
    let mut net = Network::new(config.topology.build(config.nodes), config.net);
    let start = Instant::now();
    for s in sends {
        let arrival = match s.dst {
            Some(dst) => net.send_vc(s.now, s.src, dst, s.bytes, s.vc),
            None => net.broadcast_vc(s.now, s.src, s.bytes, s.vc),
        };
        std::hint::black_box(arrival);
    }
    let ns = start.elapsed().as_nanos() as f64;
    (ns, net.stats().clone())
}

/// Replay every node's recorded address stream into a cache of its own,
/// through the calls `Machine::issue_access` makes. No coherence traffic
/// reaches these caches, so the hit rate is an upper bound; the figure is
/// the cost of the tag store per access. Returns (nanoseconds, accesses).
pub fn cache_replay(trace: &OpTrace, config: CacheConfig) -> (f64, u64) {
    let mut ns = 0.0;
    let mut accesses = 0u64;
    for stream in trace {
        let mut cache = Cache::new(config);
        let start = Instant::now();
        for op in stream {
            let (addr, want) = match *op {
                DriverOp::Read(a) => (a, LineState::V),
                DriverOp::Write(a) => (a, LineState::E),
                _ => continue,
            };
            accesses += 1;
            let state = cache.state(addr);
            let hit = match want {
                LineState::E => state.writable(),
                _ => state.readable(),
            };
            if !hit {
                if state != LineState::V {
                    let outcome = cache.allocate(addr);
                    debug_assert_ne!(outcome, AllocOutcome::Stalled);
                }
                cache.set_state(addr, want);
            }
            cache.touch(addr);
        }
        ns += start.elapsed().as_nanos() as f64;
        std::hint::black_box(&cache);
    }
    (ns, accesses)
}

/// Holds timed per model run. Enough for a steady figure at 60-80 ns each.
pub const QUEUE_HOLDS: u64 = 1_000_000;

/// What one run of the hold model did; equal for equal arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HoldTrace {
    pub holds: u64,
    pub final_cycle: u64,
    pub final_len: usize,
}

/// The classic hold model on the machine's own queue and payload type:
/// pre-fill to `depth`, then drain one timestamp at a time and push every
/// drained event back `d` cycles ahead, `d = 0` with probability 1/4, else
/// `1 + U[0, 2g)` where `g = depth * cycles / events` keeps the model's
/// event rate at the simulated run's. Returns nanoseconds per hold (one pop
/// plus one push) and a trace of the work for the determinism test.
pub fn queue_hold(depth: u64, cycles: u64, events: u64, holds: u64, seed: u64) -> (f64, HoldTrace) {
    let depth = depth.max(1);
    let gap = (depth as f64 * cycles as f64 / events.max(1) as f64).max(1.0);
    let spread = (2.0 * gap).ceil() as u64;
    let mut rng = SimRng::new(seed);
    let mut delay = move || {
        if rng.next_u64() & 3 == 0 {
            0
        } else {
            1 + rng.gen_range(spread)
        }
    };
    let mut queue: EventQueue<Ev> = EventQueue::with_capacity(depth as usize * 2);
    for i in 0..depth {
        let node = i as u32;
        let msg = Msg {
            addr: i,
            src: node,
            kind: MsgKind::ReadReq { requester: node },
        };
        queue.push(delay(), Ev::Deliver(node, msg));
    }
    let mut batch = Vec::new();
    let mut done = 0u64;
    let start = Instant::now();
    while done < holds {
        done += queue.pop_batch(&mut batch) as u64;
        for (_, ev) in batch.drain(..) {
            queue.push_after(delay(), ev);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    let trace = HoldTrace {
        holds: done,
        final_cycle: queue.now(),
        final_len: queue.len(),
    };
    (ns / done as f64, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_is_deterministic_for_a_fixed_seed() {
        let (_, a) = queue_hold(335, 1_175_847, 3_202_978, 50_000, 1996);
        let (_, b) = queue_hold(335, 1_175_847, 3_202_978, 50_000, 1996);
        assert_eq!(a, b);
        assert!(a.holds >= 50_000);
        let (_, c) = queue_hold(335, 1_175_847, 3_202_978, 50_000, 7);
        assert_ne!(a.final_cycle, c.final_cycle, "the seed must matter");
    }

    #[test]
    fn hold_model_pins_the_queue_depth() {
        let (_, t) = queue_hold(1025, 1_000_000, 4_000_000, 100_000, 3);
        assert_eq!(t.final_len, 1025);
    }

    #[test]
    fn cache_replay_counts_memory_ops_only() {
        let trace: OpTrace = vec![
            vec![
                DriverOp::Read(1),
                DriverOp::Work(5),
                DriverOp::Write(1),
                DriverOp::Barrier(0),
            ],
            vec![DriverOp::Read(2)],
        ];
        let (_, accesses) = cache_replay(&trace, CacheConfig::paper_default());
        assert_eq!(accesses, 3);
    }

    #[test]
    fn net_replay_reproduces_message_and_byte_counts() {
        let config = MachineConfig::paper_default(4);
        let sends = [
            SendRec {
                now: 0,
                src: 0,
                dst: Some(3),
                bytes: 8,
                vc: 0,
            },
            SendRec {
                now: 2,
                src: 1,
                dst: Some(1),
                bytes: 16,
                vc: 0,
            },
        ];
        let (_, stats) = net_replay(&sends, &config);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 24);
        assert_eq!(stats.total_hops, 2);
    }
}
