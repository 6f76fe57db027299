//! The top-level machine: processors, synchronization, and the event loop.

use crate::config::{MachineConfig, CACHE_LATENCY, SYNC_LATENCY};
use crate::core::{Ev, MachineCore};
use crate::driver::{Driver, DriverOp};
use crate::stats::MachineStats;
use crate::trace::MsgTrace;
use dirtree_core::cache::AllocOutcome;
use dirtree_core::ctx::ProtoCtx;
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind};
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_core::verify::Violation;
use dirtree_net::NetworkStats;
use dirtree_sim::metrics::{Metrics, MetricsSnapshot};
use dirtree_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProcState {
    /// Ready for (or waiting on) the next driver op; a `Proc` event exists.
    Running,
    /// An operation is being retried (allocation stall / transient line).
    Retrying,
    /// Blocked on a memory access, a barrier, or a lock.
    Blocked,
    Done,
}

#[derive(Default)]
struct BarrierState {
    waiting: Vec<NodeId>,
}

#[derive(Default)]
struct LockState {
    owner: Option<NodeId>,
    waiters: VecDeque<NodeId>,
}

/// The result of a completed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub cycles: Cycle,
    pub stats: MachineStats,
    pub net: NetworkStats,
    /// Observability export (all-zero unless the `trace` feature is on).
    pub metrics: MetricsSnapshot,
}

/// The machine failed to reach quiescence: a structured progress/stall
/// report, so programmatic harnesses (the sweep runner, the model checker)
/// can classify the failure instead of parsing a panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StallError {
    /// The bounded-step cap fired: the event loop processed `events`
    /// events without every processor finishing — a livelock or an
    /// unproductive retry storm.
    Livelock { events: u64, protocol: ProtocolKind },
    /// The event queue drained with processors still blocked.
    Deadlock {
        finished: u32,
        nodes: u32,
        /// `(node, what it waits on)` for every unfinished processor: its
        /// outstanding miss (`miss on 0x40 (Write, issued at cycle 812,
        /// line WmIp)`), the barrier or lock it queues at, or else its
        /// scheduling state.
        blocked: Vec<(u32, String)>,
        /// `(node, description)` for every send parked on a full virtual
        /// channel — non-empty exactly when the stall is a channel
        /// cyclic-wait (the request/reply deadlock) rather than a
        /// protocol-level hang.
        parked_sends: Vec<(u32, String)>,
        protocol: ProtocolKind,
    },
    /// The sequential-consistency witness (`MachineConfig::verify`)
    /// caught a coherence violation: the protocol is broken, the run
    /// stopped at the offending operation.
    Witness {
        /// The rendered [`Violation`].
        violation: String,
        protocol: ProtocolKind,
    },
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallError::Livelock { events, protocol } => write!(
                f,
                "livelock: no quiescence after {events} events (protocol {protocol:?})"
            ),
            StallError::Deadlock {
                finished,
                nodes,
                blocked,
                parked_sends,
                protocol,
            } => {
                let unfinished = nodes - finished;
                write!(
                    f,
                    "deadlock: event queue drained with {unfinished} of {nodes} processors \
                     unfinished (blocked procs: {blocked:?}, protocol {protocol:?})"
                )?;
                if !parked_sends.is_empty() {
                    write!(
                        f,
                        "; sends parked on full virtual channels: {parked_sends:?} — \
                         a request/reply cyclic wait; separate the classes onto \
                         distinct VCs (net.vcs >= 3) to break it"
                    )?;
                }
                Ok(())
            }
            StallError::Witness {
                violation,
                protocol,
            } => write!(f, "{violation} (protocol {protocol:?})"),
        }
    }
}

impl std::error::Error for StallError {}

/// A simulated multiprocessor running one coherence protocol.
pub struct Machine {
    core: MachineCore,
    protocol: Box<dyn Protocol>,
    /// Cached [`Protocol::wants_read_hits`] so the read-hit fast path pays
    /// one bool test, not a virtual call, for the common (false) case.
    wants_read_hits: bool,
    procs: Vec<ProcState>,
    /// Op being retried per processor (allocation stall, transient line).
    retry_op: Vec<Option<DriverOp>>,
    barriers: FxHashMap<u32, BarrierState>,
    locks: FxHashMap<u32, LockState>,
    done_count: u32,
    /// Scratch for holder queries on the write-verification paths: one
    /// machine-lifetime buffer instead of one `Vec` per checked write.
    holders_scratch: Vec<NodeId>,
    /// Whether an `Ev::Proc(n)` is in the queue, per node: a processor has
    /// at most one wake-up pending (checked in debug builds only).
    #[cfg(debug_assertions)]
    proc_pending: Vec<bool>,
}

impl Machine {
    pub fn new(config: MachineConfig, kind: ProtocolKind) -> Self {
        Self::with_protocol(config, build_protocol(kind, config.protocol))
    }

    /// Build a machine around a custom [`Protocol`] implementation (e.g.
    /// an experimental protocol, or an instrumented wrapper in tests).
    pub fn with_protocol(config: MachineConfig, protocol: Box<dyn Protocol>) -> Self {
        let n = config.nodes as usize;
        Self {
            core: MachineCore::new(config),
            wants_read_hits: protocol.wants_read_hits(),
            protocol,
            procs: vec![ProcState::Running; n],
            retry_op: vec![None; n],
            barriers: FxHashMap::default(),
            locks: FxHashMap::default(),
            done_count: 0,
            holders_scratch: Vec::new(),
            #[cfg(debug_assertions)]
            proc_pending: vec![false; n],
        }
    }

    pub fn stats(&self) -> &MachineStats {
        &self.core.stats
    }

    /// The live observability sink (a no-op ZST unless the `trace` feature
    /// is enabled; see `dirtree_sim::metrics`).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Events this run scheduled beyond the event queue's ring window
    /// (`dirtree_sim::EventQueue::total_overflowed`; diagnostic).
    pub fn queue_overflowed(&self) -> u64 {
        self.core.queue.total_overflowed()
    }

    /// Install a structured message trace; every subsequent protocol send
    /// is recorded through the shared hook (for Chrome-trace export).
    pub fn set_trace(&mut self, trace: MsgTrace) {
        self.core.trace_sink = Some(trace);
    }

    /// Remove and return the installed message trace, if any.
    pub fn take_trace(&mut self) -> Option<MsgTrace> {
        self.core.trace_sink.take()
    }

    /// Run the machine to completion under `driver`.
    ///
    /// # Panics
    /// Panics on coherence violations (when verification is enabled) and on
    /// stalls (livelock or deadlock), with the [`StallError`]'s text; see
    /// [`Machine::try_run`] for the non-panicking variant.
    pub fn run(&mut self, driver: &mut dyn Driver) -> RunOutcome {
        match self.try_run(driver) {
            Ok(out) => out,
            Err(stall) => panic!("{stall}"),
        }
    }

    /// Run the machine to completion under `driver`, reporting stalls
    /// (livelock: bounded-step cap exceeded without quiescence; deadlock:
    /// event queue drained with processors still blocked) and, when
    /// verification is enabled, the witness's first coherence violation as
    /// a structured [`StallError`] instead of panicking.
    pub fn try_run(&mut self, driver: &mut dyn Driver) -> Result<RunOutcome, StallError> {
        for n in 0..self.core.config.nodes {
            self.reschedule(n, 0);
        }
        let mut events: u64 = 0;
        // Same-cycle events are drained in one batch (reusing `batch`
        // across iterations); `pop_batch` preserves the exact (time, push
        // order) delivery of one-at-a-time popping.
        let mut batch: Vec<(Cycle, Ev)> = Vec::new();
        while self.core.queue.pop_batch(&mut batch) > 0 {
            for (_, ev) in batch.drain(..) {
                events += 1;
                if events > self.core.config.max_events {
                    return Err(StallError::Livelock {
                        events,
                        protocol: self.protocol.kind(),
                    });
                }
                match ev {
                    Ev::Proc(n) => self.step_processor(n, driver)?,
                    Ev::Deliver(n, msg) => self.core.deliver(n, msg),
                    Ev::CtrlExec(n) => {
                        let msg = self.core.ctrl_take(n);
                        self.protocol.handle(&mut self.core, n, msg);
                        self.core.ctrl_finish(n);
                    }
                    Ev::OpDone(n, addr, op) => self.op_done(n, addr, op)?,
                }
            }
        }
        if self.done_count != self.core.config.nodes {
            return Err(StallError::Deadlock {
                finished: self.done_count,
                nodes: self.core.config.nodes,
                blocked: self
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != ProcState::Done)
                    .map(|(i, &s)| (i as u32, self.waiting_on(i as NodeId, s)))
                    .collect(),
                parked_sends: self.core.parked_summary(),
                protocol: self.protocol.kind(),
            });
        }
        if let Some(v) = &self.core.verifier {
            v.on_finish(self.core.survivors())
                .map_err(|viol| self.witness(viol))?;
        }
        self.core.stats.cycles = self.core.queue.now();
        let (busy_max, busy_sum, nodes) = {
            let busy = self.core.controller_busy();
            (
                busy.iter().copied().max().unwrap_or(0),
                busy.iter().sum::<u64>(),
                busy.len().max(1),
            )
        };
        self.core.stats.max_controller_busy = busy_max;
        self.core.stats.mean_controller_busy = busy_sum as f64 / nodes as f64;
        self.core.stats.events = self.core.queue.total_popped();
        self.core.stats.peak_queue_depth = self.core.queue.peak_len() as u64;
        let mut metrics = self.core.metrics.snapshot();
        let links = self.core.net.link_metrics();
        metrics.links = links.links;
        metrics.max_link_busy = links.max_link_busy;
        metrics.total_link_busy = links.total_link_busy;
        metrics.inject_queue = links.inject_queue;
        metrics.link_queue = links.link_queue;
        metrics.vc_queue = links.vc_queue;
        Ok(RunOutcome {
            cycles: self.core.stats.cycles,
            stats: self.core.stats.clone(),
            net: self.core.net.stats().clone(),
            metrics,
        })
    }

    /// The run-ending error for a witness violation.
    fn witness(&self, violation: Violation) -> StallError {
        StallError::Witness {
            violation: violation.to_string(),
            protocol: self.protocol.kind(),
        }
    }

    fn reschedule(&mut self, n: NodeId, delay: Cycle) {
        #[cfg(debug_assertions)]
        {
            let pending = &mut self.proc_pending[n as usize];
            assert!(!*pending, "processor {n} already has a wake-up pending");
            *pending = true;
        }
        self.core
            .queue
            .push(self.core.queue.now() + delay, Ev::Proc(n));
    }

    fn step_processor(&mut self, n: NodeId, driver: &mut dyn Driver) -> Result<(), StallError> {
        #[cfg(debug_assertions)]
        {
            self.proc_pending[n as usize] = false;
        }
        let op = match self.retry_op[n as usize].take() {
            Some(op) => op,
            None => driver.next_op(n, self.core.queue.now()),
        };
        self.procs[n as usize] = ProcState::Running;
        match op {
            DriverOp::Read(addr) => return self.issue_access(n, addr, OpKind::Read, op),
            DriverOp::Write(addr) => return self.issue_access(n, addr, OpKind::Write, op),
            DriverOp::Work(c) => self.reschedule(n, c.max(1)),
            DriverOp::Barrier(id) => self.arrive_barrier(n, id),
            DriverOp::Lock(id) => self.acquire_lock(n, id),
            DriverOp::Unlock(id) => self.release_lock(n, id),
            DriverOp::Done => {
                self.procs[n as usize] = ProcState::Done;
                self.done_count += 1;
            }
        }
        Ok(())
    }

    fn retry(&mut self, n: NodeId, op: DriverOp) {
        self.retry_op[n as usize] = Some(op);
        self.procs[n as usize] = ProcState::Retrying;
        self.reschedule(n, 1);
    }

    fn issue_access(
        &mut self,
        n: NodeId,
        addr: Addr,
        kind: OpKind,
        op: DriverOp,
    ) -> Result<(), StallError> {
        // One tag lookup: the state, and the MRU mark if this is a hit.
        let state = self.core.access_line(n, addr, kind == OpKind::Write);

        match kind {
            OpKind::Read => {
                self.core.stats.reads += 1;
                if state.readable() {
                    self.core.stats.read_hits += 1;
                    if self.wants_read_hits {
                        self.protocol.note_read_hit(n, addr);
                    }
                    if let Some(v) = &self.core.verifier {
                        v.on_read_hit(n, addr).map_err(|viol| self.witness(viol))?;
                    }
                    self.reschedule(n, CACHE_LATENCY);
                    return Ok(());
                }
                self.core.stats.reads -= 1; // re-counted on the miss path
            }
            OpKind::Write => {
                self.core.stats.writes += 1;
                if state.writable() {
                    self.core.stats.write_hits += 1;
                    self.core.stats.sharers_at_write.record(0);
                    // (is_some + unwrap rather than if-let: `other_holders_into`
                    // needs an immutable borrow of the core in between.)
                    #[allow(clippy::unnecessary_unwrap)]
                    if self.core.verifier.is_some() {
                        self.core
                            .other_holders_into(addr, n, &mut self.holders_scratch);
                        let v = self.core.verifier.as_mut().unwrap();
                        v.on_write_complete(n, addr, &self.holders_scratch)
                            .map_err(|viol| self.witness(viol))?;
                    }
                    self.reschedule(n, CACHE_LATENCY);
                    return Ok(());
                }
                self.core.stats.writes -= 1;
            }
        }

        // A transient line (incoming invalidation collection, or an
        // upgrade in progress) cannot accept a new transaction yet.
        if state.transient() {
            self.retry(n, op);
            return Ok(());
        }

        // Upgrade: write to a valid shared copy — no allocation needed.
        if kind == OpKind::Write && state == LineState::V {
            self.begin_miss(n, addr, OpKind::Write);
            return Ok(());
        }

        // Genuine miss: allocate a line (possibly evicting a victim).
        match self.core.allocate_line(n, addr) {
            AllocOutcome::Stalled => {
                self.retry(n, op);
                return Ok(());
            }
            AllocOutcome::Evicted { victim, state } => {
                self.core.stats.evictions += 1;
                self.protocol.evict(&mut self.core, n, victim, state);
            }
            AllocOutcome::Fresh | AllocOutcome::AlreadyResident => {}
        }
        self.begin_miss(n, addr, kind);
        Ok(())
    }

    /// What unfinished processor `n`, in `state`, waits on — read off the
    /// outstanding miss, the cache and the synchronization wait lists when
    /// a deadlock is reported, so the event loop keeps no extra record.
    fn waiting_on(&self, n: NodeId, state: ProcState) -> String {
        if let Some((addr, issued)) = self.core.pending_miss(n) {
            let line = self.core.line_state(n, addr);
            let op = match line {
                LineState::RmIp => "Read, ",
                LineState::WmIp => "Write, ",
                _ => "",
            };
            return format!("miss on {addr:#x} ({op}issued at cycle {issued}, line {line:?})");
        }
        if let Some((id, _)) = self.barriers.iter().find(|(_, b)| b.waiting.contains(&n)) {
            return format!("barrier {id}");
        }
        if let Some((id, l)) = self.locks.iter().find(|(_, l)| l.waiters.contains(&n)) {
            let owner = l.owner.map_or("nobody".to_string(), |o| o.to_string());
            return format!("lock {id} (held by {owner})");
        }
        format!("{state:?}")
    }

    fn begin_miss(&mut self, n: NodeId, addr: Addr, kind: OpKind) {
        match kind {
            OpKind::Read => {
                self.core.stats.reads += 1;
                self.core.stats.read_misses += 1;
                self.core.enter_miss(n, addr, LineState::RmIp);
            }
            OpKind::Write => {
                self.core.stats.writes += 1;
                self.core.stats.write_misses += 1;
                let sharers = self.core.count_other_holders(addr, n);
                self.core.stats.sharers_at_write.record(sharers);
                self.core.enter_miss(n, addr, LineState::WmIp);
            }
        }
        self.procs[n as usize] = ProcState::Blocked;
        self.protocol.start_miss(&mut self.core, n, addr, kind);
    }

    fn op_done(&mut self, n: NodeId, addr: Addr, op: OpKind) -> Result<(), StallError> {
        let lat = self.core.retire_miss(n, addr);
        match op {
            OpKind::Read => {
                self.core.stats.read_miss_latency.record(lat);
                self.core.metrics.on_read_done(addr, lat);
            }
            OpKind::Write => {
                self.core.stats.write_miss_latency.record(lat);
                self.core.metrics.on_write_done(addr, lat);
            }
        }
        // (see note above about the split borrow)
        #[allow(clippy::unnecessary_unwrap)]
        if self.core.verifier.is_some() {
            match op {
                OpKind::Read => self.core.verifier.as_mut().unwrap().on_read_fill(n, addr),
                OpKind::Write => {
                    self.core
                        .other_holders_into(addr, n, &mut self.holders_scratch);
                    let v = self.core.verifier.as_mut().unwrap();
                    if self.protocol.is_update_for(addr) {
                        v.on_write_complete_update(n, addr, &self.holders_scratch);
                    } else {
                        v.on_write_complete(n, addr, &self.holders_scratch)
                            .map_err(|viol| self.witness(viol))?;
                    }
                }
            }
        }
        self.protocol.note_op_retired(n, addr, op);
        self.procs[n as usize] = ProcState::Running;
        self.reschedule(n, 0);
        Ok(())
    }

    fn arrive_barrier(&mut self, n: NodeId, id: u32) {
        let nodes = self.core.config.nodes;
        let b = self.barriers.entry(id).or_default();
        b.waiting.push(n);
        self.procs[n as usize] = ProcState::Blocked;
        if b.waiting.len() as u32 == nodes {
            let waiting = std::mem::take(&mut b.waiting);
            self.core.stats.barriers += 1;
            for w in waiting {
                self.procs[w as usize] = ProcState::Running;
                self.reschedule(w, SYNC_LATENCY);
            }
        }
    }

    fn acquire_lock(&mut self, n: NodeId, id: u32) {
        let l = self.locks.entry(id).or_default();
        if l.owner.is_none() {
            l.owner = Some(n);
            self.core.stats.lock_acquires += 1;
            self.reschedule(n, SYNC_LATENCY);
        } else {
            l.waiters.push_back(n);
            self.procs[n as usize] = ProcState::Blocked;
        }
    }

    fn release_lock(&mut self, n: NodeId, id: u32) {
        let l = self
            .locks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unlock of unknown lock {id}"));
        assert_eq!(l.owner, Some(n), "unlock by non-owner {n} of lock {id}");
        if let Some(next) = l.waiters.pop_front() {
            l.owner = Some(next);
            self.core.stats.lock_acquires += 1;
            self.procs[next as usize] = ProcState::Running;
            self.reschedule(next, SYNC_LATENCY);
        } else {
            l.owner = None;
        }
        self.reschedule(n, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ScriptDriver;

    fn run_script(
        nodes: u32,
        kind: ProtocolKind,
        scripts: Vec<Vec<DriverOp>>,
    ) -> (RunOutcome, Machine) {
        let mut m = Machine::new(MachineConfig::test_default(nodes), kind);
        let mut d = ScriptDriver::new(scripts);
        let out = m.run(&mut d);
        (out, m)
    }

    #[test]
    fn single_channel_credit_limit_reproduces_request_reply_deadlock() {
        // Crossed remote reads: node 0 fetches an address homed at node 1
        // and vice versa. With one buffer per (node, channel) and request
        // and reply sharing the channel, each home's ReadReply waits on a
        // credit held by its own outstanding ReadReq — a cyclic wait.
        let mut cfg = MachineConfig::test_default(2);
        cfg.net.vc_credits = 1;
        let scripts = vec![vec![DriverOp::Read(1)], vec![DriverOp::Read(2)]];
        let mut m = Machine::new(cfg, ProtocolKind::FullMap);
        let mut d = ScriptDriver::new(scripts.clone());
        match m.try_run(&mut d) {
            Err(StallError::Deadlock { parked_sends, .. }) => {
                assert!(
                    !parked_sends.is_empty(),
                    "deadlock report must name the parked sends"
                );
                assert!(
                    parked_sends
                        .iter()
                        .any(|(_, s)| s.contains("controller gated")),
                    "the cycle runs through gated controllers: {parked_sends:?}"
                );
            }
            other => panic!("expected request/reply deadlock on one channel, got {other:?}"),
        }
        // Separate request/reply/ack virtual channels break the cycle:
        // the same trace under the same buffer bound completes.
        cfg.net.vcs = 3;
        let mut m = Machine::new(cfg, ProtocolKind::FullMap);
        let mut d = ScriptDriver::new(scripts);
        let out = m
            .try_run(&mut d)
            .expect("virtual channels must break the cyclic wait");
        assert_eq!(out.stats.reads, 2);
    }

    #[test]
    fn long_work_takes_the_queue_overflow_path_and_keeps_its_time() {
        // The event queue's ring covers 1024 cycles: `Work(1023)` is the
        // last delay that stays in it, `Work(1024)` and `Work(5000)` go
        // through its overflow heap. Node 1 does nothing.
        let (out, m) = run_script(
            2,
            ProtocolKind::FullMap,
            vec![
                vec![
                    DriverOp::Work(1023),
                    DriverOp::Work(1024),
                    DriverOp::Work(5000),
                    DriverOp::Read(0),
                ],
                vec![],
            ],
        );
        assert_eq!(m.queue_overflowed(), 2);
        // The read issues at 1023 + 1024 + 5000 = 7047 to its own home:
        // request loopback 1 + memory 5 + reply loopback 1 + cache 1 hands
        // the line over at 7055, the fill completes one cache access later,
        // and the FillAck sent at 7055 (loopback 1, memory 5) is the last
        // event of the run.
        assert_eq!(out.stats.read_miss_latency.mean(), 9.0);
        assert_eq!(out.cycles, 7047 + 1 + 5 + 1 + 1 + 1 + 5);
        // Six processor wake-ups, three deliveries, three controller
        // executions, one fill.
        assert_eq!(out.stats.events, 13);
    }

    #[test]
    fn single_processor_read_write_roundtrip() {
        let (out, _) = run_script(
            2,
            ProtocolKind::FullMap,
            vec![
                vec![
                    DriverOp::Read(0),
                    DriverOp::Write(0),
                    DriverOp::Read(0),
                    DriverOp::Read(2),
                ],
                vec![],
            ],
        );
        assert_eq!(out.stats.reads, 3);
        assert_eq!(out.stats.writes, 1);
        assert_eq!(out.stats.read_misses, 2);
        assert_eq!(out.stats.write_misses, 1); // V -> E upgrade
        assert_eq!(out.stats.read_hits, 1);
        assert!(out.cycles > 0);
    }

    #[test]
    fn read_miss_latency_includes_network_and_memory() {
        // Node 1 reads address 0 (home node 0): req (1 hop) + 5-cycle
        // memory + reply (1 hop, 16 bytes) + fill.
        let (out, _) = run_script(
            2,
            ProtocolKind::FullMap,
            vec![vec![], vec![DriverOp::Read(0)]],
        );
        let lat = out.stats.read_miss_latency.mean();
        assert!(lat >= 15.0, "latency {lat} too small to be physical");
        assert!(lat <= 60.0, "latency {lat} implausibly large");
    }

    #[test]
    fn hits_are_one_cycle() {
        let (out, _) = run_script(
            2,
            ProtocolKind::FullMap,
            vec![
                vec![DriverOp::Read(0), DriverOp::Read(0), DriverOp::Read(0)],
                vec![],
            ],
        );
        assert_eq!(out.stats.read_hits, 2);
    }

    #[test]
    fn barrier_synchronizes_all_processors() {
        let scripts = (0..4)
            .map(|n| {
                vec![
                    DriverOp::Work(n * 50 + 1),
                    DriverOp::Barrier(0),
                    DriverOp::Read(0),
                ]
            })
            .collect();
        let (out, _) = run_script(4, ProtocolKind::FullMap, scripts);
        assert_eq!(out.stats.barriers, 1);
        assert_eq!(out.stats.reads, 4);
    }

    #[test]
    fn locks_are_mutually_exclusive_and_fair() {
        let scripts = (0..4)
            .map(|_| vec![DriverOp::Lock(7), DriverOp::Write(0), DriverOp::Unlock(7)])
            .collect();
        let (out, _) = run_script(4, ProtocolKind::FullMap, scripts);
        assert_eq!(out.stats.lock_acquires, 4);
        assert_eq!(out.stats.writes, 4);
    }

    #[test]
    fn contended_writes_verify_for_every_protocol() {
        for kind in [
            ProtocolKind::FullMap,
            ProtocolKind::LimitedNB { pointers: 2 },
            ProtocolKind::LimitedB { pointers: 2 },
            ProtocolKind::LimitLess { pointers: 2 },
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            ProtocolKind::DirTree {
                pointers: 1,
                arity: 2,
            },
        ] {
            let scripts = (0..8u64)
                .map(|n| {
                    vec![
                        DriverOp::Read(0),
                        DriverOp::Read(8),
                        DriverOp::Write((n % 4) * 2),
                        DriverOp::Read(0),
                        DriverOp::Write(0),
                    ]
                })
                .collect();
            let (out, _) = run_script(8, kind, scripts);
            assert!(out.stats.writes > 0, "{kind:?} made no progress");
        }
    }

    #[test]
    fn replacement_storm_with_tiny_cache() {
        // 64-line cache, touch 256 addresses: every protocol must survive
        // constant evictions with verification on.
        for kind in [
            ProtocolKind::FullMap,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
        ] {
            let scripts = (0..4u64)
                .map(|n| {
                    let mut ops = Vec::new();
                    for i in 0..256u64 {
                        ops.push(DriverOp::Read((i * 4 + n) % 300));
                        if i % 7 == 0 {
                            ops.push(DriverOp::Write((i * 4 + n) % 300));
                        }
                    }
                    ops
                })
                .collect();
            let (out, _) = run_script(4, kind, scripts);
            assert!(
                out.stats.evictions > 0,
                "{kind:?}: storm caused no evictions"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            run_script(
                8,
                ProtocolKind::DirTree {
                    pointers: 4,
                    arity: 2,
                },
                (0..8u64)
                    .map(|n| {
                        vec![
                            DriverOp::Read(0),
                            DriverOp::Work(n + 1),
                            DriverOp::Write(n % 3),
                            DriverOp::Barrier(1),
                            DriverOp::Read(1),
                        ]
                    })
                    .collect(),
            )
            .0
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.messages, b.stats.messages);
    }

    #[test]
    #[should_panic(expected = "processor 1 began a miss on 0x8 while blocked")]
    fn second_miss_on_a_blocked_processor_panics() {
        let mut m = Machine::new(MachineConfig::test_default(2), ProtocolKind::FullMap);
        for addr in [4, 8] {
            m.core.allocate_line(1, addr);
            m.begin_miss(1, addr, OpKind::Read);
        }
    }

    /// The O(1) sharer count against the caches, on every protocol the
    /// benchmark runs: P=8 with a 16-line cache forces evictions, upgrades,
    /// update-mode writes and list unlinks, every write miss checks the
    /// count against a scan (`count_other_holders`' debug assertion), and
    /// at quiescence every block's count must equal a scan of all caches.
    #[test]
    fn readable_copy_counts_track_the_caches_on_every_protocol() {
        use dirtree_sim::SimRng;
        let tree = |pointers| ProtocolKind::DirTree { pointers, arity: 2 };
        let (pointers, arity) = (4, 2);
        let kinds = [
            ProtocolKind::FullMap,
            ProtocolKind::LimitedNB { pointers },
            ProtocolKind::LimitLess { pointers },
            ProtocolKind::SinglyList,
            ProtocolKind::Sci,
            ProtocolKind::Stp { arity },
            ProtocolKind::SciTree,
            tree(2),
            tree(4),
            ProtocolKind::DirTreeUpdate { pointers, arity },
            ProtocolKind::DirTreeAdaptive { pointers, arity },
        ];
        let mut config = MachineConfig::test_default(8);
        config.cache = dirtree_core::cache::CacheConfig { lines: 16 };
        for kind in kinds {
            for seed in [1996, 31337] {
                let mut rng = SimRng::new(seed);
                let scripts: Vec<Vec<DriverOp>> = (0..8)
                    .map(|_| {
                        let mut ops = Vec::new();
                        for phase in 0..4 {
                            for _ in 0..60 {
                                // Half the accesses on 6 hot blocks (sharing,
                                // upgrades), half over 48 (evictions).
                                let addr = if rng.gen_bool(0.5) {
                                    rng.gen_range(6)
                                } else {
                                    rng.gen_range(48)
                                };
                                ops.push(if rng.gen_bool(0.3) {
                                    DriverOp::Write(addr)
                                } else {
                                    DriverOp::Read(addr)
                                });
                            }
                            ops.push(DriverOp::Barrier(phase));
                        }
                        ops
                    })
                    .collect();
                let mut m = Machine::new(config, kind);
                let out = m.run(&mut ScriptDriver::new(scripts));
                assert!(out.stats.evictions > 0, "{kind:?}: no evictions");
                assert!(out.stats.write_misses > 0, "{kind:?}: no write misses");
                let mut scanned = std::collections::BTreeMap::new();
                for (_, addr) in m.core.survivors() {
                    *scanned.entry(addr).or_insert(0u32) += 1;
                }
                let counted: std::collections::BTreeMap<_, _> = m.core.readable_counts().collect();
                assert_eq!(counted, scanned, "{kind:?}, seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn missing_barrier_participant_is_a_deadlock() {
        run_script(
            2,
            ProtocolKind::FullMap,
            vec![vec![DriverOp::Barrier(0)], vec![]],
        );
    }

    #[test]
    fn try_run_reports_deadlock_structurally() {
        // Node 0 waits at a barrier the other three never reach: three of
        // four finish, so "3 of 4 unfinished" would be the wrong count.
        let mut m = Machine::new(MachineConfig::test_default(4), ProtocolKind::FullMap);
        let mut d = ScriptDriver::new(vec![vec![DriverOp::Barrier(0)], vec![], vec![], vec![]]);
        let err = m.try_run(&mut d).unwrap_err();
        let text = err.to_string();
        match err {
            StallError::Deadlock {
                finished,
                nodes,
                blocked,
                ..
            } => {
                assert_eq!((finished, nodes), (3, 4));
                assert_eq!(blocked, vec![(0, "barrier 0".to_string())]);
                assert!(
                    text.starts_with(
                        "deadlock: event queue drained with 1 of 4 processors unfinished"
                    ),
                    "{text}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_report_names_the_lock_a_processor_queues_at() {
        // Node 0 finishes still holding lock 3; node 1 waits for it forever.
        let mut m = Machine::new(MachineConfig::test_default(2), ProtocolKind::FullMap);
        let mut d = ScriptDriver::new(vec![
            vec![DriverOp::Lock(3)],
            vec![DriverOp::Work(50), DriverOp::Lock(3)],
        ]);
        match m.try_run(&mut d) {
            Err(StallError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked, vec![(1, "lock 3 (held by 0)".to_string())]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn try_run_reports_livelock_at_the_step_cap() {
        let mut cfg = MachineConfig::test_default(2);
        cfg.max_events = 3;
        let mut m = Machine::new(cfg, ProtocolKind::FullMap);
        let mut d = ScriptDriver::new(vec![
            vec![DriverOp::Read(0), DriverOp::Write(0)],
            vec![DriverOp::Read(0)],
        ]);
        match m.try_run(&mut d) {
            Err(StallError::Livelock { events, .. }) => assert!(events > 3),
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn controller_utilization_is_tracked() {
        let (out, _) = run_script(
            4,
            ProtocolKind::FullMap,
            vec![
                vec![DriverOp::Read(0), DriverOp::Write(0)],
                vec![DriverOp::Read(0)],
                vec![DriverOp::Read(0)],
                vec![],
            ],
        );
        // The home of address 0 (node 0) must be the busiest controller.
        assert!(out.stats.max_controller_busy > 0);
        assert!(out.stats.max_controller_busy as f64 >= out.stats.mean_controller_busy);
    }

    #[test]
    fn trace_sink_records_sends_with_arrival_times() {
        let mut m = Machine::new(
            MachineConfig::test_default(2),
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
        );
        m.set_trace(MsgTrace::new(64));
        let mut d = ScriptDriver::new(vec![vec![], vec![DriverOp::Read(0)]]);
        m.run(&mut d);
        let t = m.take_trace().expect("trace was installed");
        let events: Vec<_> = t.events().cloned().collect();
        assert!(!events.is_empty(), "a read miss sends messages");
        assert!(events.iter().any(|e| e.label == "read_req"));
        assert!(
            events.iter().all(|e| e.arrival > e.at),
            "network delivery takes time"
        );
        assert!(t.chrome_trace_json().contains("read_req"));
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn metrics_are_empty_when_trace_feature_is_off() {
        let (out, m) = run_script(
            2,
            ProtocolKind::FullMap,
            vec![vec![DriverOp::Read(0), DriverOp::Write(0)], vec![]],
        );
        assert_eq!(out.metrics.total_messages(), 0);
        assert_eq!(out.metrics.read_tx_latency.count(), 0);
        assert_eq!(out.metrics.links, 0);
        assert_eq!(std::mem::size_of_val(m.metrics()), 0, "no-op ZST sink");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn metrics_classify_messages_and_latencies() {
        use dirtree_sim::metrics::MsgClass;
        // Node 1 read-misses on 0 (clean at home 0): ReadReq + DataReply
        // (+ off-critical-path FillAck).
        let (out, _) = run_script(
            2,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            vec![vec![], vec![DriverOp::Read(0)]],
        );
        let m = &out.metrics;
        assert_eq!(m.class(MsgClass::ReadReq).count, 1);
        assert_eq!(m.class(MsgClass::ReadReq).to_dir, 1);
        assert_eq!(m.class(MsgClass::DataReply).count, 1);
        assert_eq!(m.class(MsgClass::FillAck).count, 1);
        assert_eq!(m.total_messages(), out.stats.messages);
        // Transaction latency mirrors the stats histogram.
        assert_eq!(
            m.read_tx_latency.count(),
            out.stats.read_miss_latency.count()
        );
        assert_eq!(m.read_tx_latency.sum(), out.stats.read_miss_latency.sum());
        // Link occupancy was observed.
        assert!(m.links > 0);
        assert!(m.total_link_busy > 0);
        assert!(m.max_link_busy <= m.total_link_busy);
        assert_eq!(m.top_blocks[0].0, 0, "block 0 is the only traffic");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn metrics_see_invalidation_waves() {
        use dirtree_sim::metrics::MsgClass;
        // Two sharers, then a third node writes: the home must invalidate,
        // and the wave metrics record depth ≥ 1 with ≥ 1 home-bound ack.
        let (out, _) = run_script(
            4,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            vec![
                vec![DriverOp::Read(0), DriverOp::Barrier(0)],
                vec![DriverOp::Read(0), DriverOp::Barrier(0)],
                vec![DriverOp::Barrier(0), DriverOp::Write(0)],
                vec![DriverOp::Barrier(0)],
            ],
        );
        let m = &out.metrics;
        assert!(m.class(MsgClass::Inv).count >= 1);
        assert!(m.class(MsgClass::Ack).count >= 1);
        assert_eq!(m.inv_wave_depth.count(), 1, "one write wave");
        assert!(m.inv_wave_depth.max() >= 1);
        assert!(m.inv_wave_acks.max() >= 1);
        assert_eq!(m.write_tx_latency.count(), 1);
    }

    #[test]
    fn dirty_data_migrates_between_processors() {
        let (out, _) = run_script(
            4,
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            vec![
                vec![DriverOp::Write(0), DriverOp::Barrier(0)],
                vec![DriverOp::Barrier(0), DriverOp::Read(0), DriverOp::Write(0)],
                vec![DriverOp::Barrier(0)],
                vec![DriverOp::Barrier(0)],
            ],
        );
        assert_eq!(out.stats.writes, 2);
    }
}
