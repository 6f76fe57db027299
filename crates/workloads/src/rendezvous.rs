//! Application programs, and the two ways the rest of the system runs them.
//!
//! Each simulated processor's program ([`Program`]) is an `async` block that
//! touches the simulated machine only through its [`Env`], whose operations
//! are `async fn`s. A program is a stackless state machine: whoever needs
//! its next operation polls it on its own thread with a no-op waker, and a
//! program that has to wait returns `Pending` to that caller and resumes
//! where it left off on the next poll. Nothing is spawned, nothing crosses
//! a channel and nothing context-switches. Two callers poll programs.
//!
//! Either way the workload lends the architectural memory to the shared
//! state for the length of one poll, and an operation takes effect on it
//! (a read samples the word, a write stores it) at the moment it completes:
//!
//! * **Execution-driven** (`impl Driver for ThreadedWorkload`, used by
//!   `Machine::run`). Every operation parks its request in the shared state
//!   and yields once. `next_op` polls the node's program, takes the parked
//!   request and hands the machine its [`DriverOp`]. The machine asks that
//!   node for its next operation when the previous one has completed in
//!   simulated time; the poll then resumes the program, which applies the
//!   completed operation and runs on to its next request. Values therefore
//!   observe exactly the simulated strong-consistency order.
//!
//! * **Recording** ([`crate::trace::record_ops`]). No machine and no
//!   simulated time. A `Recorder` in the shared state holds the lock
//!   table and the per-node operation streams. `read`/`write`/`work` push
//!   the `DriverOp`, take effect and are ready at once; an uncontended
//!   `lock` takes the lock and continues; `unlock` hands the lock to its
//!   next FIFO waiter and continues. Only `barrier`, a contended `lock` and
//!   the end of the program return `Pending`, so one poll runs a program
//!   until it has to wait for somebody else.
//!
//! Exactly one program runs at a time, on the caller's thread, so runs are
//! deterministic by construction. The shared state is an `Rc<RefCell<…>>`
//! borrowed inside one operation and never across an `.await`. A program
//! that panics panics out of whoever polled it: out of `record_ops`, or out
//! of `Machine::run`.
//!
//! Data values live here (`values`), not in the protocol: the machine
//! enforces coherence *timing* and verifies coherence *invariants*, while
//! this array is the architectural memory that makes the applications
//! compute real results (checked against sequential references in the
//! integration tests).
//!
//! Cost. Programs used to be OS threads: recording paid one thread
//! hand-off (about 6 µs pinned) per barrier arrival or contended lock, and
//! live execution two context switches per operation. Recording the four
//! `policies_p256` traces at P=256 (1.62 M operations, ~490 k barrier
//! arrivals) took 3.9–4.5 s (2.75 µs/op) pinned on a 2-CPU x86-64 host; as
//! state machines it takes ~0.08 s (0.049 µs/op), and every trace is
//! element-identical.
//!
//! Rejected before this design: direct thread-to-thread hand-off, where a
//! blocking thread wakes its successor itself (1.45× per slice, and a
//! second copy of the scheduler inside the threads). Not taken:
//! per-pattern generators that emit an `OpTrace` directly. Each would be a
//! second code path beside its program, with its own equivalence test, to
//! save what one poll per blocking point now costs.

use crate::layout::{f2w, w2f};
use crate::trace::OpTrace;
use dirtree_core::types::{Addr, NodeId};
use dirtree_machine::{Driver, DriverOp};
use dirtree_sim::Cycle;
use std::cell::{RefCell, RefMut};
use std::collections::{HashMap, VecDeque};
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One operation of a program.
#[derive(Clone, Copy, Debug)]
enum Request {
    Read(Addr),
    Write(Addr, u64),
    Work(Cycle),
    Barrier(u32),
    Lock(u32),
    Unlock(u32),
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
        }
    }

    /// The architectural effect: a read returns the word, a write stores
    /// it, anything else returns 0.
    fn apply(self, values: &mut [u64]) -> u64 {
        match self {
            Request::Read(a) => values[a as usize],
            Request::Write(a, v) => {
                values[a as usize] = v;
                0
            }
            _ => 0,
        }
    }
}

/// Lock id → (owner, FIFO waiters); matches the machine's grant order.
pub(crate) type LockTable = HashMap<u32, (Option<usize>, VecDeque<usize>)>;

/// The sync state and the streams of a recording in progress.
#[derive(Default)]
pub(crate) struct Recorder {
    pub(crate) locks: LockTable,
    /// Waiters that became lock owners since the scheduler last looked.
    pub(crate) woken: Vec<usize>,
    /// Per-node operation streams.
    ops: OpTrace,
}

impl Recorder {
    /// Record `r` for node `tid`; false if the program has to wait for it
    /// (a barrier, a contended lock).
    ///
    /// # Panics
    /// On an unlock of a lock `tid` does not own, with the machine's
    /// message, so a bad program fails here rather than at replay.
    fn record(&mut self, tid: usize, r: Request) -> bool {
        self.ops[tid].push(r.driver_op());
        match r {
            Request::Barrier(_) => return false,
            Request::Lock(id) => {
                let (owner, waiters) = self.locks.entry(id).or_default();
                if owner.is_some() {
                    waiters.push_back(tid);
                    return false;
                }
                *owner = Some(tid);
            }
            Request::Unlock(id) => {
                let (owner, waiters) = self
                    .locks
                    .get_mut(&id)
                    .unwrap_or_else(|| panic!("unlock of unknown lock {id}"));
                assert_eq!(*owner, Some(tid), "unlock by non-owner {tid} of lock {id}");
                *owner = waiters.pop_front();
                self.woken.extend(*owner);
            }
            Request::Read(_) | Request::Write(..) | Request::Work(_) => {}
        }
        true
    }
}

/// What a workload's programs share with whoever polls them.
#[derive(Default)]
struct Shared {
    /// The architectural memory, lent by the workload while it polls.
    values: Vec<u64>,
    /// `Some` while a trace is recorded; execution-driven otherwise.
    recorder: Option<Recorder>,
    /// The request the program just polled waits on.
    parked: Option<Request>,
}

/// Why a recording program returned `Pending`, or that it returned.
pub(crate) enum Blocked {
    Barrier,
    /// Queued behind a lock's owner (the lock table says which); the
    /// program owns the lock when it is next polled.
    Lock,
    Done,
}

/// The per-processor handle through which a program touches the simulated
/// machine.
pub struct Env {
    tid: usize,
    shared: Rc<RefCell<Shared>>,
    barriers: u32,
}

impl Env {
    /// Perform one operation. Recording, it is done at once unless it has
    /// to wait. Otherwise it is parked for the poller and the program
    /// yields once; when next polled, the operation has completed (in
    /// simulated time, or the wait is over) and takes effect then.
    /// Returns the loaded value for reads.
    async fn op(&self, r: Request) -> u64 {
        {
            let mut shared = self.shared.borrow_mut();
            let shared = &mut *shared;
            if let Some(rec) = &mut shared.recorder {
                if rec.record(self.tid, r) {
                    return r.apply(&mut shared.values);
                }
            }
            shared.parked = Some(r);
        }
        let mut parked = true;
        poll_fn(|_| {
            if std::mem::take(&mut parked) {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
        .await;
        r.apply(&mut self.shared.borrow_mut().values)
    }

    /// Processor id of this program.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Shared load (one simulated memory reference).
    pub async fn read(&mut self, addr: Addr) -> u64 {
        self.op(Request::Read(addr)).await
    }

    /// Shared store (one simulated memory reference).
    pub async fn write(&mut self, addr: Addr, value: u64) {
        self.op(Request::Write(addr, value)).await;
    }

    /// Shared load of a float.
    pub async fn read_f(&mut self, addr: Addr) -> f64 {
        w2f(self.read(addr).await)
    }

    /// Shared store of a float.
    pub async fn write_f(&mut self, addr: Addr, value: f64) {
        self.write(addr, f2w(value)).await;
    }

    /// Local computation for `cycles` cycles.
    pub async fn work(&mut self, cycles: Cycle) {
        self.op(Request::Work(cycles)).await;
    }

    /// Global barrier across all processors.
    pub async fn barrier(&mut self) {
        let seq = self.barriers;
        self.barriers += 1;
        self.op(Request::Barrier(seq)).await;
    }

    /// Acquire lock `id`.
    pub async fn lock(&mut self, id: u32) {
        self.op(Request::Lock(id)).await;
    }

    /// Release lock `id`.
    pub async fn unlock(&mut self, id: u32) {
        self.op(Request::Unlock(id)).await;
    }
}

/// One simulated processor's program: an `async` block that owns its
/// [`Env`].
pub type Program = Pin<Box<dyn Future<Output = ()>>>;

/// An execution-driven workload: one program per simulated processor, each
/// a state machine polled on the caller's thread (the name predates that;
/// no thread is involved).
pub struct ThreadedWorkload {
    /// `None` once the program has returned.
    programs: Vec<Option<Program>>,
    shared: Rc<RefCell<Shared>>,
    values: Vec<u64>,
    /// Whether a program has been polled, live or recording.
    started: bool,
}

impl ThreadedWorkload {
    /// Build `nprocs` programs; `program(tid, env)` returns processor
    /// `tid`'s, which performs every operation through `env`.
    /// `shared_words` sizes the architectural memory.
    pub fn new(
        nprocs: u32,
        shared_words: u64,
        mut program: impl FnMut(usize, Env) -> Program,
    ) -> Self {
        let shared = Rc::new(RefCell::new(Shared::default()));
        let programs = (0..nprocs as usize)
            .map(|tid| {
                let env = Env {
                    tid,
                    shared: shared.clone(),
                    barriers: 0,
                };
                Some(program(tid, env))
            })
            .collect();
        Self {
            programs,
            shared,
            values: vec![0; shared_words as usize],
            started: false,
        }
    }

    /// Number of simulated processors (programs).
    pub fn nprocs(&self) -> usize {
        self.programs.len()
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

    /// Poll `node`'s program once, with the memory lent to it and a waker
    /// nobody calls (a program waits only on its `Env`, and the poller
    /// knows when to poll again). Returns the request it waits on, or
    /// `None` once it has returned.
    fn poll_node(&mut self, node: usize) -> Option<Request> {
        let program = self.programs[node].as_mut()?;
        std::mem::swap(&mut self.shared.borrow_mut().values, &mut self.values);
        let polled = program
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()));
        let mut shared = self.shared.borrow_mut();
        std::mem::swap(&mut shared.values, &mut self.values);
        if polled.is_ready() {
            self.programs[node] = None;
            return None;
        }
        Some(
            shared
                .parked
                .take()
                .expect("a program waits only on its Env"),
        )
    }

    /// Start a recording. No program may have been polled yet.
    pub(crate) fn start_recording(&mut self) {
        assert!(
            !self.started,
            "record_ops needs a workload that has not started running"
        );
        self.started = true;
        self.shared.borrow_mut().recorder = Some(Recorder {
            ops: vec![Vec::new(); self.programs.len()],
            ..Recorder::default()
        });
    }

    /// Run `node`'s program, which must be runnable, until it blocks or
    /// returns.
    pub(crate) fn run_slice(&mut self, node: usize) -> Blocked {
        match self.poll_node(node) {
            None => Blocked::Done,
            Some(Request::Barrier(_)) => Blocked::Barrier,
            Some(Request::Lock(_)) => Blocked::Lock,
            Some(other) => unreachable!("node {node} waits on {other:?} while recording"),
        }
    }

    /// The recorder of the recording in progress.
    pub(crate) fn recorder(&self) -> RefMut<'_, Recorder> {
        RefMut::map(self.shared.borrow_mut(), |s| {
            s.recorder.as_mut().expect("a recording in progress")
        })
    }

    /// End a recording, returning the per-node streams.
    pub(crate) fn finish_recording(&mut self) -> OpTrace {
        let rec = self.shared.borrow_mut().recorder.take();
        rec.expect("a recording in progress").ops
    }
}

impl Driver for ThreadedWorkload {
    fn next_op(&mut self, node: NodeId, _now: Cycle) -> DriverOp {
        // The node's previous request, if any, has completed: the poll
        // applies it (a read samples its value now) and runs the program
        // to its next request.
        self.started = true;
        self.poll_node(node as usize)
            .map_or(DriverOp::Done, Request::driver_op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::record_ops;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};
    use std::cell::Cell;

    fn run(
        nodes: u32,
        kind: ProtocolKind,
        words: u64,
        program: impl FnMut(usize, Env) -> Program,
    ) -> (dirtree_machine::RunOutcome, ThreadedWorkload) {
        let mut workload = ThreadedWorkload::new(nodes, words, program);
        let mut machine = Machine::new(MachineConfig::test_default(nodes), kind);
        let out = machine.run(&mut workload);
        (out, workload)
    }

    #[test]
    fn single_thread_counts_in_shared_memory() {
        let (_, w) = run(2, ProtocolKind::FullMap, 4, |tid, mut env| {
            Box::pin(async move {
                if tid == 0 {
                    for i in 0..10u64 {
                        let v = env.read(0).await;
                        env.write(0, v + i).await;
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
            |tid, mut env| {
                Box::pin(async move {
                    if tid == 0 {
                        env.write(3, 42).await;
                    }
                    env.barrier().await;
                    let v = env.read(3).await;
                    env.write(4 + tid as u64, v * 2).await;
                })
            },
        );
        for tid in 0..4u64 {
            assert_eq!(w.value_at(4 + tid), 84, "tid {tid} read a stale value");
        }
    }

    #[test]
    fn lock_protected_increments_do_not_race() {
        let (_, w) = run(8, ProtocolKind::FullMap, 2, |_, mut env| {
            Box::pin(async move {
                for _ in 0..5 {
                    env.lock(1).await;
                    let v = env.read(0).await;
                    env.work(3).await;
                    env.write(0, v + 1).await;
                    env.unlock(1).await;
                }
            })
        });
        assert_eq!(w.value_at(0), 40);
    }

    /// Dropping a workload whose programs are parked mid-operation (or
    /// were never polled) drops their state machines and returns.
    #[test]
    fn dropping_a_half_run_workload_returns() {
        let program = |_, mut env: Env| -> Program {
            Box::pin(async move {
                for a in 0..4 {
                    env.write(a, 1).await;
                    env.barrier().await;
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
        let (_, w) = run(2, ProtocolKind::FullMap, 2, |tid, mut env| {
            Box::pin(async move {
                if tid == 0 {
                    env.write_f(1, -2.5).await;
                }
                env.barrier().await;
                let x = env.read_f(1).await;
                if tid == 1 {
                    env.write_f(0, x * 2.0).await;
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
                |tid, mut env| {
                    Box::pin(async move {
                        for i in 0..20u64 {
                            let a = (i * 7 + tid as u64) % 32;
                            let v = env.read(a).await;
                            env.write((a + 1) % 32, v + 1).await;
                        }
                        env.barrier().await;
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
        // the result: processor 0 publishes, a barrier orders, all consume.
        let program = |tid: usize, mut env: Env| -> Program {
            Box::pin(async move {
                let mut acc = 0u64;
                for phase in 0..4u64 {
                    if tid == 0 {
                        for a in 0..8u64 {
                            env.write(a, phase * 10 + a).await;
                        }
                    }
                    env.barrier().await;
                    for a in 0..8u64 {
                        acc += env.read(a).await;
                    }
                    env.barrier().await;
                }
                env.write(8 + tid as u64, acc).await;
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

    thread_local! {
        /// Set by a test on its own thread; false on any other.
        static ON_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
        /// Operations that completed on this thread.
        static COMPLETED: Cell<u64> = const { Cell::new(0) };
    }

    const ROUNDS: u64 = 3;

    /// Three rounds of write-then-barrier, checking after every operation
    /// that it runs on the thread that set `ON_TEST_THREAD`, and counting
    /// the operations there.
    fn pinned_to_the_poller(tid: usize, mut env: Env) -> Program {
        Box::pin(async move {
            let here = || {
                assert!(
                    ON_TEST_THREAD.get(),
                    "node {tid} ran off the polling thread"
                );
                COMPLETED.set(COMPLETED.get() + 1);
            };
            for round in 0..ROUNDS {
                env.write(tid as u64, round).await;
                here();
                env.barrier().await;
                here();
            }
        })
    }

    /// The structural pin that no program runs on a thread of its own: an
    /// assertion inside every program, and a count of completed operations
    /// that only the polling thread can see. A spawned thread would fail
    /// the assertion, or (live, where a panic ends a stream) the count.
    #[test]
    fn programs_run_on_the_polling_thread() {
        ON_TEST_THREAD.set(true);
        let nodes = 1024;
        let trace = record_ops(&mut ThreadedWorkload::new(
            nodes,
            1024,
            pinned_to_the_poller,
        ));
        assert_eq!(
            trace.iter().map(Vec::len).sum::<usize>() as u64,
            2 * nodes as u64 * ROUNDS
        );
        assert_eq!(COMPLETED.get(), 2 * nodes as u64 * ROUNDS);

        COMPLETED.set(0);
        let (_, w) = run(8, ProtocolKind::FullMap, 8, pinned_to_the_poller);
        assert_eq!(COMPLETED.get(), 2 * 8 * ROUNDS);
        assert!(w.values().iter().all(|&v| v == ROUNDS - 1));
    }
}
