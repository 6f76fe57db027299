//! Record-once / replay-many operation traces.
//!
//! A sweep runs the *same* application under many protocol configs. This
//! module exploits a structural property of the bundled applications: a
//! [`DriverOp`] carries addresses and sync ids but never data values, and
//! every app's control flow and addressing depend only on values ordered
//! by barriers (data-race-free), never on lock-grant order — MP3D's
//! lock-protected occupancy increment is commutative and the value it
//! reads back feeds no branch or address. Each node's operation stream is
//! therefore independent of the machine's interleaving, so a stream
//! recorded once under *any* correct schedule drives every protocol config
//! to a bit-identical simulation.
//!
//! [`record_ops`] polls a workload's programs under a deterministic
//! round-robin scheduler (no machine, no simulated timing) and returns the
//! per-node streams; [`ReplayDriver`] feeds them back. Recording costs one
//! poll per *blocking point* (barrier arrival, contended lock, program
//! end), on the caller's thread: a polled program performs its own
//! operations on the recorder of [`crate::rendezvous`] until it has to
//! wait. The four `policies_p256` traces (1.62 M operations, ~490 k
//! barrier arrivals at P=256) record in ~0.08 s on a 2-CPU x86-64 host,
//! where one OS thread per program took 3.9–4.5 s.
//!
//! The `replay_matches_execution_driven` tests below pin the equivalence
//! of replay and live execution for every application family, including
//! the lock-heavy MP3D; `matches_reference_recorder` pins `record_ops`
//! op for op against a per-operation recorder built on the live path.

use crate::rendezvous::{Blocked, LockTable, ThreadedWorkload};
use dirtree_core::types::NodeId;
use dirtree_machine::{Driver, DriverOp};
use dirtree_sim::Cycle;
use std::sync::Arc;

/// Per-node operation streams recorded from one workload run.
pub type OpTrace = Vec<Vec<DriverOp>>;

#[derive(Clone, Copy, PartialEq)]
enum St {
    Run,
    AtBarrier,
    WaitLock,
    Done,
}

/// Run `w`'s programs to completion under a deterministic round-robin
/// scheduler, recording each node's operation stream. `w` must not have
/// started running.
///
/// Sync semantics mirror the machine's: barriers release when every
/// node has arrived, locks grant FIFO. The schedule differs from any
/// simulated one, but per-node streams do not (see module docs), and the
/// round-robin is fixed — each runnable node in turn runs until it blocks,
/// alone, on the caller's thread — so the returned trace is a pure
/// function of the workload: safe to share across protocol configs and
/// `--jobs` levels.
///
/// # Panics
/// With the program's own payload if one panics (an unlock by a node that
/// does not own the lock is one), and with a report of who waits for what
/// if the program deadlocks.
pub fn record_ops(w: &mut ThreadedWorkload) -> OpTrace {
    let n = w.nprocs();
    let mut st = vec![St::Run; n];
    w.start_recording();
    let (mut at_barrier, mut done) = (0usize, 0usize);
    while done < n {
        let mut progressed = false;
        for i in 0..n {
            if st[i] != St::Run {
                continue;
            }
            progressed = true;
            match w.run_slice(i) {
                Blocked::Barrier => {
                    st[i] = St::AtBarrier;
                    at_barrier += 1;
                }
                Blocked::Lock => st[i] = St::WaitLock,
                Blocked::Done => {
                    st[i] = St::Done;
                    done += 1;
                }
            }
            for next in w.recorder().woken.drain(..) {
                st[next] = St::Run;
            }
        }
        // A barrier releases only when every node has arrived (the
        // machine's rule: finished processors never satisfy a barrier).
        if at_barrier > 0 && at_barrier == n - done {
            at_barrier = 0;
            for s in st.iter_mut() {
                if *s == St::AtBarrier {
                    *s = St::Run;
                }
            }
            progressed = true;
        }
        assert!(
            progressed || done == n,
            "workload deadlocked during trace recording ({done}/{n} done): {}",
            blocked_report(&st, &w.recorder().locks)
        );
    }
    w.finish_recording()
}

/// Who waits for what, for the deadlock panic: the nodes at the barrier,
/// then every held lock with its owner and FIFO waiters, by lock id.
fn blocked_report(st: &[St], locks: &LockTable) -> String {
    let at_barrier: Vec<usize> = (0..st.len()).filter(|&i| st[i] == St::AtBarrier).collect();
    let mut report = format!("nodes at the barrier: {at_barrier:?}");
    let mut held: Vec<_> = locks.iter().collect();
    held.sort_by_key(|(id, _)| **id);
    for (id, (owner, waiters)) in held {
        if let Some(owner) = owner {
            report += &format!("; lock {id} held by node {owner}, waited for by {waiters:?}");
        }
    }
    report
}

/// Replays a recorded [`OpTrace`]. The trace is behind an `Arc` so a
/// sweep replays one recording across many protocol configs without
/// cloning megabytes of ops per simulation — and without polling a
/// single program.
pub struct ReplayDriver {
    trace: Arc<OpTrace>,
    pos: Vec<usize>,
}

impl ReplayDriver {
    pub fn new(trace: Arc<OpTrace>) -> Self {
        let n = trace.len();
        Self {
            trace,
            pos: vec![0; n],
        }
    }
}

impl Driver for ReplayDriver {
    fn next_op(&mut self, node: NodeId, _now: Cycle) -> DriverOp {
        let n = node as usize;
        match self.trace[n].get(self.pos[n]) {
            Some(&op) => {
                self.pos[n] += 1;
                op
            }
            None => DriverOp::Done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::PhasedTrace;
    use crate::rendezvous::{Env, Program};
    use crate::WorkloadKind;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig, RunOutcome};
    use std::collections::{HashMap, VecDeque};

    /// The recorder `record_ops` replaced, kept verbatim as the oracle: the
    /// same scheduler, but driving the execution-driven path one
    /// `next_op` per operation.
    fn reference_record_ops(w: &mut ThreadedWorkload) -> OpTrace {
        let n = w.nprocs();
        let mut st = vec![St::Run; n];
        let mut ops: OpTrace = vec![Vec::new(); n];
        // Lock id → (owner, FIFO waiters); matches the machine's grant order.
        let mut locks: HashMap<u32, (Option<usize>, VecDeque<usize>)> = HashMap::new();
        let (mut at_barrier, mut done) = (0usize, 0usize);
        while done < n {
            let mut progressed = false;
            for i in 0..n {
                while st[i] == St::Run {
                    progressed = true;
                    let op = w.next_op(i as NodeId, 0);
                    if op != DriverOp::Done {
                        ops[i].push(op);
                    }
                    match op {
                        DriverOp::Read(_) | DriverOp::Write(_) | DriverOp::Work(_) => {}
                        DriverOp::Barrier(_) => {
                            st[i] = St::AtBarrier;
                            at_barrier += 1;
                        }
                        DriverOp::Lock(id) => {
                            let l = locks.entry(id).or_default();
                            if l.0.is_none() {
                                l.0 = Some(i);
                            } else {
                                l.1.push_back(i);
                                st[i] = St::WaitLock;
                            }
                        }
                        DriverOp::Unlock(id) => {
                            let l = locks.get_mut(&id).expect("unlock of unknown lock");
                            debug_assert_eq!(l.0, Some(i), "unlock by non-owner");
                            l.0 = l.1.pop_front();
                            if let Some(next) = l.0 {
                                st[next] = St::Run;
                            }
                        }
                        DriverOp::Done => {
                            st[i] = St::Done;
                            done += 1;
                        }
                    }
                }
            }
            // A barrier releases only when every node has arrived (the
            // machine's rule: finished processors never satisfy a barrier).
            if at_barrier > 0 && at_barrier == n - done {
                at_barrier = 0;
                for s in st.iter_mut() {
                    if *s == St::AtBarrier {
                        *s = St::Run;
                    }
                }
                progressed = true;
            }
            assert!(
                progressed || done == n,
                "workload deadlocked during trace recording \
                 ({done}/{n} done, {at_barrier} at barrier)"
            );
        }
        ops
    }

    /// Record two fresh copies of a workload, one per recorder, and demand
    /// the same streams and the same final memory. Returns the op count.
    fn assert_recorders_agree(what: &str, build: impl Fn() -> ThreadedWorkload) -> usize {
        let (mut old, mut new) = (build(), build());
        let reference = reference_record_ops(&mut old);
        let trace = record_ops(&mut new);
        assert_eq!(reference, trace, "{what}: streams differ");
        assert_eq!(old.values(), new.values(), "{what}: final memory differs");
        trace.iter().map(Vec::len).sum()
    }

    /// A hand-written program: name, nodes, per-processor code.
    type Shape = (&'static str, u32, fn(usize, Env) -> Program);

    /// Small programs with the shapes the recording fast path makes special.
    fn special_shapes() -> Vec<Shape> {
        async fn bump(env: &mut Env, addr: u64) {
            let v = env.read(addr).await;
            env.write(addr, v * 3 + env.tid() as u64 + 1).await;
        }
        vec![
            ("lock held across a barrier", 4, |tid, mut env| {
                Box::pin(async move {
                    if tid == 1 {
                        env.lock(7).await;
                    }
                    env.barrier().await;
                    if tid != 1 {
                        env.lock(7).await;
                    }
                    bump(&mut env, 0).await;
                    env.unlock(7).await;
                    env.barrier().await;
                    bump(&mut env, 1 + tid as u64).await;
                })
            }),
            // Node 3 takes both locks before the barrier, so nodes 0, 1
            // and 2 queue on lock 1 in that order before it releases.
            ("nested locks, three FIFO waiters", 4, |tid, mut env| {
                Box::pin(async move {
                    if tid == 3 {
                        env.lock(1).await;
                        env.lock(2).await;
                    }
                    env.barrier().await;
                    if tid != 3 {
                        env.lock(1).await;
                        env.lock(2).await;
                    }
                    bump(&mut env, 0).await;
                    env.unlock(2).await;
                    bump(&mut env, 1).await;
                    env.unlock(1).await;
                    env.barrier().await;
                    bump(&mut env, 2 + tid as u64).await;
                })
            }),
            (
                "a node exits while others are at a barrier",
                4,
                |tid, mut env| {
                    Box::pin(async move {
                        bump(&mut env, tid as u64).await;
                        if tid == 2 {
                            return;
                        }
                        env.barrier().await;
                        bump(&mut env, 2).await;
                        env.work(5).await;
                        env.barrier().await;
                    })
                },
            ),
            ("a node with an empty program", 3, |tid, mut env| {
                Box::pin(async move {
                    if tid == 1 {
                        return;
                    }
                    for round in 0..3 {
                        bump(&mut env, round).await;
                        env.barrier().await;
                    }
                })
            }),
        ]
    }

    /// `record_ops` against the per-operation recorder it replaced, for
    /// every application family, the phased trace and the special shapes.
    #[test]
    fn matches_reference_recorder() {
        let apps = [
            (
                WorkloadKind::Mp3d {
                    particles: 60,
                    steps: 3,
                },
                4,
            ),
            (WorkloadKind::Lu { n: 12 }, 4),
            (
                WorkloadKind::Floyd {
                    vertices: 10,
                    seed: 1996,
                },
                4,
            ),
            // P larger than the work: nodes 10..15 own no rows.
            (
                WorkloadKind::Floyd {
                    vertices: 10,
                    seed: 7,
                },
                16,
            ),
            (WorkloadKind::Fft { points: 64 }, 4),
            (
                WorkloadKind::Sharing {
                    blocks: 8,
                    rounds: 4,
                },
                4,
            ),
            (
                WorkloadKind::Migratory {
                    blocks: 4,
                    rounds: 6,
                },
                8,
            ),
            (
                WorkloadKind::Storm {
                    words: 96,
                    passes: 2,
                },
                4,
            ),
            (
                WorkloadKind::PcPipeline {
                    buffers: 4,
                    rounds: 6,
                },
                8,
            ),
            (WorkloadKind::TokenRing { tokens: 2, laps: 2 }, 8),
            (
                WorkloadKind::Broadcast {
                    blocks: 4,
                    rounds: 6,
                    scans: 2,
                },
                8,
            ),
            (
                WorkloadKind::FalseShare {
                    blocks: 4,
                    rounds: 12,
                },
                8,
            ),
        ];
        let mut total = 0;
        for (kind, nodes) in apps {
            total +=
                assert_recorders_agree(&format!("{} P={nodes}", kind.name()), || kind.build(nodes));
        }
        let phased = PhasedTrace {
            nodes: 8,
            blocks: 16,
            phases: 4,
            reads_per_phase: 12,
            seed: 1996,
        };
        total += assert_recorders_agree("phased", || phased.build());
        for (what, nodes, program) in special_shapes() {
            let ops = assert_recorders_agree(what, || ThreadedWorkload::new(nodes, 8, program));
            assert!(ops > 0, "{what}: recorded nothing");
            total += ops;
        }
        assert!(
            total < 50_000,
            "{total} ops: too many for the per-op reference on an unpinned host"
        );
    }

    /// FNV-1a over the whole trace: per node its length, then per op a
    /// tag byte and the operand, little-endian.
    fn fnv1a(trace: &OpTrace) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for stream in trace {
            eat(&(stream.len() as u64).to_le_bytes());
            for op in stream {
                let (tag, x) = match *op {
                    DriverOp::Read(a) => (0u8, a),
                    DriverOp::Write(a) => (1, a),
                    DriverOp::Work(c) => (2, c),
                    DriverOp::Barrier(s) => (3, s as u64),
                    DriverOp::Lock(id) => (4, id as u64),
                    DriverOp::Unlock(id) => (5, id as u64),
                    DriverOp::Done => (6, 0),
                };
                eat(&[tag]);
                eat(&x.to_le_bytes());
            }
        }
        h
    }

    /// The traces `benchmark/` replays (seed 1996), hashed. The constants
    /// were computed with the per-operation recorder on the commit before
    /// recording moved to barrier granularity; `benchmark/expected.json`'s
    /// digests hold only while these do.
    #[test]
    fn benchmark_traces_hash_as_recorded_per_op() {
        let nodes = 256;
        let app = |kind: WorkloadKind, nodes| record_ops(&mut kind.build(nodes));
        let floyd = WorkloadKind::Floyd {
            vertices: 64,
            seed: 1996,
        };
        let broadcast = WorkloadKind::Broadcast {
            blocks: 8,
            rounds: 120,
            scans: 2,
        };
        let token_ring = WorkloadKind::TokenRing { tokens: 4, laps: 4 };
        let false_share = WorkloadKind::FalseShare {
            blocks: 8,
            rounds: 600,
        };
        let phased = PhasedTrace {
            nodes,
            blocks: 64,
            phases: 24,
            reads_per_phase: 96,
            seed: 1996,
        };
        let cases = [
            (
                "Floyd 64v P=64",
                app(floyd, 64),
                553_556,
                0x1f54_00b4_a6c5_e43e,
            ),
            (
                "LU 80 P=32",
                app(WorkloadKind::Lu { n: 80 }, 32),
                454_896,
                0x7ec5_85c0_402b_d5e6,
            ),
            (
                "Broadcast P=256",
                app(broadcast, nodes),
                584_640,
                0x3346_95d5_8aed_d769,
            ),
            (
                "TokenRing P=256",
                app(token_ring, nodes),
                270_336,
                0x49ab_d9fa_6723_0125,
            ),
            (
                "FalseShare P=256",
                app(false_share, nodes),
                160_960,
                0xfc46_3e73_cbe2_9315,
            ),
            (
                "Phased P=256",
                record_ops(&mut phased.build()),
                603_904,
                0xab56_cafa_f1a4_5b6a,
            ),
        ];
        for (what, trace, ops, hash) in cases {
            assert_eq!(
                trace.iter().map(Vec::len).sum::<usize>(),
                ops,
                "{what}: op count"
            );
            let got = fnv1a(&trace);
            assert_eq!(got, hash, "{what}: trace hash {got:#018x}");
        }
    }

    /// A panicking program fails the recording with its own message
    /// instead of truncating that node's stream.
    #[test]
    #[should_panic(expected = "node 2 fell over")]
    fn app_panic_fails_the_recording() {
        let mut w = ThreadedWorkload::new(4, 4, |tid, mut env| {
            Box::pin(async move {
                env.write(tid as u64, 1).await;
                env.barrier().await;
                assert!(tid != 2, "node {tid} fell over");
                env.barrier().await;
            })
        });
        record_ops(&mut w);
    }

    /// An unlock by a node that does not own the lock fails the recording,
    /// with the machine's message, instead of recording a trace the
    /// machine would reject at replay.
    #[test]
    #[should_panic(expected = "unlock by non-owner 1 of lock 5")]
    fn unlock_by_non_owner_fails_the_recording() {
        let mut w = ThreadedWorkload::new(2, 1, |tid, mut env| {
            Box::pin(async move {
                if tid == 0 {
                    env.lock(5).await;
                }
                env.barrier().await;
                if tid == 1 {
                    env.unlock(5).await;
                }
            })
        });
        record_ops(&mut w);
    }

    /// The deadlock panic says who waits for what: an ABBA pair (each node
    /// takes its first lock before the barrier, the other's after it).
    #[test]
    fn deadlock_report_names_owners_and_waiters() {
        let mut w = ThreadedWorkload::new(3, 1, |tid, mut env| {
            Box::pin(async move {
                let (first, second) = [(1, 2), (2, 1), (3, 3)][tid];
                env.lock(first).await;
                env.barrier().await;
                if tid < 2 {
                    env.lock(second).await;
                }
                env.barrier().await;
            })
        });
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| record_ops(&mut w)))
            .expect_err("an ABBA program must not record");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        for part in [
            "(0/3 done)",
            "nodes at the barrier: [2]",
            "lock 1 held by node 0, waited for by [1]",
            "lock 2 held by node 1, waited for by [0]",
            "lock 3 held by node 2, waited for by []",
        ] {
            assert!(message.contains(part), "{part:?} missing from {message:?}");
        }
    }

    fn run_live(build: impl Fn() -> ThreadedWorkload, proto: ProtocolKind) -> RunOutcome {
        let mut w = build();
        let mut m = Machine::new(MachineConfig::test_default(w.nprocs() as u32), proto);
        m.run(&mut w)
    }

    fn run_replayed(build: impl Fn() -> ThreadedWorkload, proto: ProtocolKind) -> RunOutcome {
        let trace = Arc::new(record_ops(&mut build()));
        let mut d = ReplayDriver::new(trace.clone());
        let mut m = Machine::new(MachineConfig::test_default(trace.len() as u32), proto);
        m.run(&mut d)
    }

    /// The load-bearing property: a replayed trace produces the same
    /// simulation — cycles, stats, histograms, network counters — as the
    /// live programs, for every application family, the sharing patterns
    /// and the phased trace, under invalidate, update and adaptive
    /// protocols.
    #[test]
    fn replay_matches_execution_driven() {
        let kinds = [
            // Lock-heavy, migratory sharing: exercises the recorder's
            // FIFO lock grant against the machine's.
            WorkloadKind::Mp3d {
                particles: 60,
                steps: 3,
            },
            WorkloadKind::Lu { n: 12 },
            WorkloadKind::Floyd {
                vertices: 10,
                seed: 1996,
            },
            WorkloadKind::Fft { points: 64 },
            WorkloadKind::Sharing {
                blocks: 8,
                rounds: 4,
            },
            WorkloadKind::Migratory {
                blocks: 4,
                rounds: 6,
            },
            WorkloadKind::Storm {
                words: 96,
                passes: 2,
            },
            WorkloadKind::PcPipeline {
                buffers: 4,
                rounds: 6,
            },
            WorkloadKind::TokenRing { tokens: 2, laps: 2 },
            WorkloadKind::Broadcast {
                blocks: 4,
                rounds: 6,
                scans: 2,
            },
            WorkloadKind::FalseShare {
                blocks: 4,
                rounds: 12,
            },
        ];
        let phased = PhasedTrace {
            nodes: 4,
            blocks: 16,
            phases: 4,
            reads_per_phase: 12,
            seed: 1996,
        };
        let mut cases: Vec<(String, Box<dyn Fn() -> ThreadedWorkload>)> = kinds
            .into_iter()
            .map(|kind| (kind.name(), Box::new(move || kind.build(4)) as Box<_>))
            .collect();
        cases.push(("phased".into(), Box::new(move || phased.build())));
        for (what, build) in cases {
            for proto in [
                ProtocolKind::FullMap,
                ProtocolKind::DirTree {
                    pointers: 2,
                    arity: 2,
                },
                ProtocolKind::LimitedNB { pointers: 1 },
                ProtocolKind::DirTreeUpdate {
                    pointers: 4,
                    arity: 2,
                },
                ProtocolKind::DirTreeAdaptive {
                    pointers: 4,
                    arity: 2,
                },
            ] {
                let live = run_live(&build, proto);
                let replay = run_replayed(&build, proto);
                assert_eq!(
                    format!("{live:?}"),
                    format!("{replay:?}"),
                    "{what} under {proto:?}: replay diverged from execution-driven"
                );
            }
        }
    }

    /// Recording is a pure function of the workload: two recordings of
    /// the same app are identical op-for-op.
    #[test]
    fn recording_is_deterministic() {
        let kind = WorkloadKind::Mp3d {
            particles: 80,
            steps: 2,
        };
        let a = record_ops(&mut kind.build(8));
        let b = record_ops(&mut kind.build(8));
        assert_eq!(a, b);
    }

    /// The recorder's lock queue must not starve or deadlock when every
    /// node hammers one lock.
    #[test]
    fn contended_lock_records_and_replays() {
        let kind = WorkloadKind::Migratory {
            blocks: 1,
            rounds: 8,
        };
        let trace = record_ops(&mut kind.build(8));
        let locks = trace
            .iter()
            .flatten()
            .filter(|op| matches!(op, DriverOp::Lock(_)))
            .count();
        assert!(locks > 0 || trace.iter().flatten().count() > 0);
        let live = run_live(|| kind.build(8), ProtocolKind::FullMap);
        let replay = run_replayed(|| kind.build(8), ProtocolKind::FullMap);
        assert_eq!(format!("{live:?}"), format!("{replay:?}"));
    }

    /// A node finishing while others still run must not wedge the
    /// recorder (sparse work distributions at large P).
    #[test]
    fn early_finishers_do_not_block_recording() {
        // 10 vertices on 16 nodes: nodes 10..15 own no rows and issue
        // only barriers; every node still arrives at every barrier.
        let kind = WorkloadKind::Floyd {
            vertices: 10,
            seed: 7,
        };
        let trace = record_ops(&mut kind.build(16));
        assert_eq!(trace.len(), 16);
        let live = run_live(|| kind.build(16), ProtocolKind::FullMap);
        let replay = run_replayed(|| kind.build(16), ProtocolKind::FullMap);
        assert_eq!(format!("{live:?}"), format!("{replay:?}"));
    }
}
