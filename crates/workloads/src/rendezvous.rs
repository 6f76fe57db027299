//! Application threads, and the two ways the rest of the system runs them.
//!
//! Each simulated processor's program ([`AppFn`]) runs on a real OS thread
//! and touches the simulated machine only through its [`Env`]. A thread
//! starts by waiting to be told which of two modes it is in:
//!
//! * **Execution-driven** (`impl Driver for ThreadedWorkload`, used by
//!   `Machine::run`). The thread blocks at every shared-memory reference
//!   and synchronization point and hands a request to the machine through
//!   its own rendezvous channel; the machine turns it into a [`DriverOp`],
//!   simulates it, and resumes the thread with the result (the loaded
//!   value, for reads) when the operation completes in simulated time. A
//!   read's value is sampled — and a write's applied — at that point, so
//!   values observe exactly the simulated strong-consistency order. This
//!   costs two OS context switches per operation.
//!
//! * **Recording** ([`crate::trace::record_ops`]). No machine and no
//!   simulated time: the scheduler *moves* a [`Baton`] — the architectural
//!   memory, the lock table and a list of lock waiters woken since the
//!   slice began — into one thread through the same resume channel, and
//!   the thread runs on its own until it has to wait for somebody else.
//!   `read`/`write`/`work` touch the memory directly and push the
//!   `DriverOp` onto a thread-local `Vec`; an uncontended `lock` takes the
//!   lock and continues; `unlock` pops the next waiter into the woken list
//!   and continues. Only `barrier`, a contended `lock` and the end of the
//!   program send the baton back ([`Blocked`]). That is one hand-off per
//!   blocking point instead of one rendezvous per operation.
//!
//! In both modes exactly one party runs at a time, so runs are fully
//! deterministic even though real threads are involved. In recording mode
//! that holds by ownership rather than by protocol: the memory is a plain
//! `Vec<u64>` that only the holder of the baton can reach (no `unsafe`, no
//! atomics, no `Arc<Mutex>`), so the interleaving is exactly the
//! scheduler's slice order and the recorded streams and the final memory
//! image do not depend on host timing.
//!
//! Data values live here (`values`), not in the protocol: the machine
//! enforces coherence *timing* and verifies coherence *invariants*, while
//! this array is the architectural memory that makes the applications
//! compute real results (checked against sequential references in the
//! integration tests).
//!
//! Rejected: direct thread-to-thread hand-off, where the scheduler's state
//! travels with the baton and a blocking thread wakes its successor
//! itself. Measured on the reference host it is 3.9 µs against 5.7 µs per
//! slice (1.45×); it helps only the barrier-dominated traces (TokenRing
//! P=256 is 262 144 barrier arrivals out of 270 336 ops, FalseShare
//! 153 856 of 160 960) and costs a second copy of the scheduler inside
//! the threads. Do not retry it without a workload that needs it.

use crate::layout::{f2w, w2f};
use crossbeam::channel::{bounded, Receiver, Sender};
use dirtree_core::types::{Addr, NodeId};
use dirtree_machine::{Driver, DriverOp};
use dirtree_sim::Cycle;
use std::collections::{HashMap, VecDeque};
use std::thread::JoinHandle;

/// Requests an application thread makes in execution-driven mode.
#[derive(Clone, Copy, Debug)]
enum Request {
    Read(Addr),
    Write(Addr, u64),
    Work(Cycle),
    Barrier(u32),
    Lock(u32),
    Unlock(u32),
    Finished,
}

impl Request {
    /// The operation the machine (or the trace) sees: no data values.
    fn driver_op(self) -> DriverOp {
        match self {
            Request::Read(a) => DriverOp::Read(a),
            Request::Write(a, _) => DriverOp::Write(a),
            Request::Work(c) => DriverOp::Work(c),
            Request::Barrier(seq) => DriverOp::Barrier(seq),
            Request::Lock(id) => DriverOp::Lock(id),
            Request::Unlock(id) => DriverOp::Unlock(id),
            Request::Finished => DriverOp::Done,
        }
    }
}

/// What travels down a thread's resume channel. The first message tells
/// the thread its mode.
enum Resume {
    /// Execution-driven: the previous request completed with this value
    /// (the first one just starts the program).
    Value(u64),
    /// Recording: run until you block, then send this back.
    Baton(Baton),
}

/// Everything application threads share while a trace is recorded. Exactly
/// one party — the scheduler or one thread — owns it at any time.
#[derive(Default)]
pub(crate) struct Baton {
    /// The architectural memory.
    pub(crate) values: Vec<u64>,
    /// Lock id → (owner, FIFO waiters); matches the machine's grant order.
    pub(crate) locks: HashMap<u32, (Option<usize>, VecDeque<usize>)>,
    /// Waiters that became lock owners during this slice, for the
    /// scheduler to mark runnable.
    pub(crate) woken: Vec<usize>,
}

/// Why a recording thread gave the baton back.
pub(crate) enum Blocked {
    Barrier,
    /// Queued behind a lock's owner (the lock table says which); the
    /// thread owns the lock when it is next resumed.
    Lock,
    /// The program ended; this is its whole operation stream.
    Done(Vec<DriverOp>),
}

enum Mode {
    Live,
    Recording {
        baton: Baton,
        ops: Vec<DriverOp>,
    },
    /// The other side went away (e.g. a test aborted the run): finish the
    /// program locally, every operation a no-op.
    Dead,
}

/// The per-thread handle through which application code touches the
/// simulated machine.
pub struct Env {
    tid: usize,
    req: Sender<Request>,
    slice: Sender<(Baton, Blocked)>,
    resume: Receiver<Resume>,
    mode: Mode,
    barriers: u32,
}

impl Env {
    /// Perform one operation: a rendezvous with the machine when live, on
    /// the baton when recording. Returns the loaded value for reads.
    #[inline]
    fn rpc(&mut self, r: Request) -> u64 {
        match &mut self.mode {
            Mode::Live => {
                if self.req.send(r).is_ok() {
                    if let Ok(Resume::Value(v)) = self.resume.recv() {
                        return v;
                    }
                }
                self.mode = Mode::Dead;
            }
            Mode::Recording { baton, ops } => {
                ops.push(r.driver_op());
                match r {
                    Request::Read(a) => return baton.values[a as usize],
                    Request::Write(a, v) => baton.values[a as usize] = v,
                    Request::Work(_) => {}
                    Request::Barrier(_) => self.block(Blocked::Barrier),
                    Request::Lock(id) => {
                        let (owner, waiters) = baton.locks.entry(id).or_default();
                        if owner.is_none() {
                            *owner = Some(self.tid);
                        } else {
                            waiters.push_back(self.tid);
                            self.block(Blocked::Lock);
                        }
                    }
                    Request::Unlock(id) => {
                        let (owner, waiters) =
                            baton.locks.get_mut(&id).expect("unlock of unknown lock");
                        debug_assert_eq!(*owner, Some(self.tid), "unlock by non-owner");
                        *owner = waiters.pop_front();
                        baton.woken.extend(*owner);
                    }
                    Request::Finished => unreachable!("sent when the program returns"),
                }
            }
            Mode::Dead => {}
        }
        0
    }

    /// Recording: give the baton back and wait until the scheduler
    /// returns it.
    fn block(&mut self, why: Blocked) {
        let Mode::Recording { baton, .. } = &mut self.mode else {
            unreachable!("only a recording thread blocks");
        };
        if self.slice.send((std::mem::take(baton), why)).is_ok() {
            if let Ok(Resume::Baton(b)) = self.resume.recv() {
                *baton = b;
                return;
            }
        }
        self.mode = Mode::Dead;
    }

    /// Processor id of this thread.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Shared load (one simulated memory reference).
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.rpc(Request::Read(addr))
    }

    /// Shared store (one simulated memory reference).
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.rpc(Request::Write(addr, value));
    }

    /// Shared load of a float.
    pub fn read_f(&mut self, addr: Addr) -> f64 {
        w2f(self.read(addr))
    }

    /// Shared store of a float.
    pub fn write_f(&mut self, addr: Addr, value: f64) {
        self.write(addr, f2w(value));
    }

    /// Local computation for `cycles` cycles.
    pub fn work(&mut self, cycles: Cycle) {
        self.rpc(Request::Work(cycles));
    }

    /// Global barrier across all processors.
    pub fn barrier(&mut self) {
        let seq = self.barriers;
        self.barriers += 1;
        self.rpc(Request::Barrier(seq));
    }

    /// Acquire lock `id`.
    pub fn lock(&mut self, id: u32) {
        self.rpc(Request::Lock(id));
    }

    /// Release lock `id`.
    pub fn unlock(&mut self, id: u32) {
        self.rpc(Request::Unlock(id));
    }
}

/// Per-application-thread program.
pub type AppFn = Box<dyn FnOnce(&mut Env) + Send + 'static>;

enum ThreadState {
    /// Thread spawned and waiting to be told its mode.
    Fresh,
    /// The machine owes the thread a resume for this completed request.
    Completing(Request),
    Finished,
}

struct ThreadCtl {
    resume: Sender<Resume>,
    req: Receiver<Request>,
    slice: Receiver<(Baton, Blocked)>,
    state: ThreadState,
    /// Taken when the thread is joined early to surface its panic.
    handle: Option<JoinHandle<()>>,
}

/// An execution-driven workload: one OS thread per simulated processor.
pub struct ThreadedWorkload {
    threads: Vec<ThreadCtl>,
    values: Vec<u64>,
}

impl ThreadedWorkload {
    /// Spawn `nprocs` application threads; `program(tid)` builds each
    /// thread's code. `shared_words` sizes the architectural memory.
    pub fn new(nprocs: u32, shared_words: u64, mut program: impl FnMut(usize) -> AppFn) -> Self {
        let threads = (0..nprocs as usize)
            .map(|tid| {
                let (resume_tx, resume) = bounded::<Resume>(1);
                let (req, req_rx) = bounded::<Request>(1);
                let (slice, slice_rx) = bounded::<(Baton, Blocked)>(1);
                let app = program(tid);
                let handle = std::thread::Builder::new()
                    .name(format!("sim-proc-{tid}"))
                    .spawn(move || {
                        let mode = match resume.recv() {
                            Ok(Resume::Value(_)) => Mode::Live,
                            Ok(Resume::Baton(baton)) => Mode::Recording {
                                baton,
                                ops: Vec::new(),
                            },
                            Err(_) => Mode::Dead,
                        };
                        let mut env = Env {
                            tid,
                            req,
                            slice,
                            resume,
                            mode,
                            barriers: 0,
                        };
                        app(&mut env);
                        match env.mode {
                            Mode::Live => drop(env.req.send(Request::Finished)),
                            Mode::Recording { baton, ops } => {
                                drop(env.slice.send((baton, Blocked::Done(ops))))
                            }
                            Mode::Dead => {}
                        }
                    })
                    .expect("spawn workload thread");
                ThreadCtl {
                    resume: resume_tx,
                    req: req_rx,
                    slice: slice_rx,
                    state: ThreadState::Fresh,
                    handle: Some(handle),
                }
            })
            .collect();
        Self {
            threads,
            values: vec![0; shared_words as usize],
        }
    }

    /// Number of simulated processors (application threads).
    pub fn nprocs(&self) -> usize {
        self.threads.len()
    }

    /// Architectural memory contents after (or during) a run.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    pub fn value_at(&self, addr: Addr) -> u64 {
        self.values[addr as usize]
    }

    pub fn float_at(&self, addr: Addr) -> f64 {
        w2f(self.values[addr as usize])
    }

    /// Start a recording: the baton, holding the architectural memory
    /// until [`Self::finish_recording`] puts it back. The threads must not
    /// have been told a mode yet; to the machine their programs are over.
    pub(crate) fn start_recording(&mut self) -> Baton {
        for t in &mut self.threads {
            assert!(
                matches!(t.state, ThreadState::Fresh),
                "record_ops needs a workload that has not started running"
            );
            t.state = ThreadState::Finished;
        }
        Baton {
            values: std::mem::take(&mut self.values),
            ..Baton::default()
        }
    }

    /// Run `node`'s thread, which must be runnable, until it blocks.
    ///
    /// # Panics
    /// With the thread's own panic payload if its program panicked.
    pub(crate) fn run_slice(&mut self, node: usize, baton: Baton) -> (Baton, Blocked) {
        let t = &mut self.threads[node];
        if t.resume.send(Resume::Baton(baton)).is_ok() {
            if let Ok(back) = t.slice.recv() {
                return back;
            }
        }
        // The thread dropped its channels without finishing: it panicked
        // (and the baton died with it). Fail the recording with its payload.
        match t.handle.take().expect("joined once").join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("application thread {node} exited while recording"),
        }
    }

    /// End a recording: the memory the threads left behind is this
    /// workload's again.
    pub(crate) fn finish_recording(&mut self, baton: Baton) {
        self.values = baton.values;
    }
}

impl Driver for ThreadedWorkload {
    fn next_op(&mut self, node: NodeId, _now: Cycle) -> DriverOp {
        let n = node as usize;
        // Settle the completed request: apply its architectural effect and
        // resume the thread with the result.
        let value = match std::mem::replace(&mut self.threads[n].state, ThreadState::Finished) {
            ThreadState::Finished => return DriverOp::Done,
            ThreadState::Fresh => 0,
            ThreadState::Completing(Request::Read(a)) => self.values[a as usize],
            ThreadState::Completing(Request::Write(a, v)) => {
                self.values[a as usize] = v;
                0
            }
            ThreadState::Completing(_) => 0,
        };
        // Collect the thread's next request (it is the only runnable
        // thread, so this recv is a deterministic rendezvous). A thread
        // that panicked has dropped its channels; its stream ends here.
        let t = &mut self.threads[n];
        let req = match t.resume.send(Resume::Value(value)) {
            Ok(()) => t.req.recv().unwrap_or(Request::Finished),
            Err(_) => Request::Finished,
        };
        if !matches!(req, Request::Finished) {
            t.state = ThreadState::Completing(req);
        }
        req.driver_op()
    }
}

impl Drop for ThreadedWorkload {
    fn drop(&mut self) {
        // Close all channels so blocked threads observe disconnection and
        // run to completion locally, then join them. A panic payload is
        // dropped here, not re-raised: Drop may run during an unwind.
        let handles: Vec<_> = self.threads.drain(..).filter_map(|t| t.handle).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    fn run(
        nodes: u32,
        kind: ProtocolKind,
        words: u64,
        program: impl FnMut(usize) -> AppFn,
    ) -> (dirtree_machine::RunOutcome, ThreadedWorkload) {
        let mut workload = ThreadedWorkload::new(nodes, words, program);
        let mut machine = Machine::new(MachineConfig::test_default(nodes), kind);
        let out = machine.run(&mut workload);
        (out, workload)
    }

    #[test]
    fn single_thread_counts_in_shared_memory() {
        let (_, w) = run(2, ProtocolKind::FullMap, 4, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    for i in 0..10u64 {
                        let v = env.read(0);
                        env.write(0, v + i);
                    }
                }
            })
        });
        assert_eq!(w.value_at(0), (0..10).sum::<u64>());
    }

    #[test]
    fn producer_consumer_through_barrier() {
        let (_, w) = run(
            4,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            8,
            |tid| {
                Box::new(move |env| {
                    if tid == 0 {
                        env.write(3, 42);
                    }
                    env.barrier();
                    let v = env.read(3);
                    env.write(4 + tid as u64, v * 2);
                })
            },
        );
        for tid in 0..4u64 {
            assert_eq!(w.value_at(4 + tid), 84, "tid {tid} read a stale value");
        }
    }

    #[test]
    fn lock_protected_increments_do_not_race() {
        let (_, w) = run(8, ProtocolKind::FullMap, 2, |_| {
            Box::new(move |env| {
                for _ in 0..5 {
                    env.lock(1);
                    let v = env.read(0);
                    env.work(3);
                    env.write(0, v + 1);
                    env.unlock(1);
                }
            })
        });
        assert_eq!(w.value_at(0), 40);
    }

    /// Dropping a workload whose threads are blocked mid-program (or were
    /// never started) disconnects them; they finish locally and are joined.
    #[test]
    fn dropping_a_half_run_workload_returns() {
        let program = |_| -> AppFn {
            Box::new(|env| {
                for a in 0..4 {
                    env.write(a, 1);
                    env.barrier();
                }
            })
        };
        let mut w = ThreadedWorkload::new(3, 4, program);
        assert_eq!(w.next_op(0, 0), DriverOp::Write(0));
        assert_eq!(w.next_op(0, 0), DriverOp::Barrier(0));
        assert_eq!(w.next_op(1, 0), DriverOp::Write(0));
        drop(w);
        drop(ThreadedWorkload::new(3, 4, program));
    }

    #[test]
    fn floats_roundtrip_through_shared_memory() {
        let (_, w) = run(2, ProtocolKind::FullMap, 2, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    env.write_f(1, -2.5);
                }
                env.barrier();
                let x = env.read_f(1);
                if tid == 1 {
                    env.write_f(0, x * 2.0);
                }
            })
        });
        assert_eq!(w.float_at(0), -5.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            run(
                4,
                ProtocolKind::DirTree {
                    pointers: 2,
                    arity: 2,
                },
                64,
                |tid| {
                    Box::new(move |env| {
                        for i in 0..20u64 {
                            let a = (i * 7 + tid as u64) % 32;
                            let v = env.read(a);
                            env.write((a + 1) % 32, v + 1);
                        }
                        env.barrier();
                    })
                },
            )
            .0
        };
        let a = go();
        let b = go();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.messages, b.stats.messages);
    }

    #[test]
    fn same_program_same_result_across_protocols() {
        // Phase-structured so the data-flow (not the interleaving) fixes
        // the result: thread 0 publishes, a barrier orders, all consume.
        let program = |tid: usize| -> AppFn {
            Box::new(move |env| {
                let mut acc = 0u64;
                for phase in 0..4u64 {
                    if tid == 0 {
                        for a in 0..8u64 {
                            env.write(a, phase * 10 + a);
                        }
                    }
                    env.barrier();
                    for a in 0..8u64 {
                        acc += env.read(a);
                    }
                    env.barrier();
                }
                env.write(8 + tid as u64, acc);
            })
        };
        let (_, w1) = run(4, ProtocolKind::FullMap, 16, program);
        let (_, w2) = run(
            4,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            16,
            program,
        );
        let (_, w3) = run(4, ProtocolKind::LimitedNB { pointers: 1 }, 16, program);
        assert_eq!(w1.values(), w2.values());
        assert_eq!(w1.values(), w3.values());
    }
}
