//! Mutation tests for the sequential-consistency witness: deliberately
//! sabotaged protocols must be *caught* — `Machine::run` panics, and
//! `Machine::try_run` returns `StallError::Witness`. If these tests ever
//! pass without that, the verifier has lost its teeth and every other
//! green test means less.

use dirtree::coherence::ctx::{ProtoCtx, ProtoEvent};
use dirtree::coherence::msg::{Msg, MsgKind};
use dirtree::coherence::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree::coherence::types::{Addr, LineState, NodeId, OpKind};
use dirtree::machine::{DriverOp, Machine, MachineConfig, ScriptDriver, StallError};
use dirtree::sim::Cycle;
use dirtree_check::mutants::{MutantKind, Mutated};

/// The same philosophy applied to the model checker: a protocol with one
/// injected bug ([`dirtree_check::MutantKind`]) must be caught by
/// exhaustive exploration, and the minimal counterexample must replay
/// deterministically to the *same* violation (proving `boxed_clone` /
/// `fingerprint` carry the complete state).
mod model_checker_catches_mutants {
    use dirtree::coherence::protocol::{ProtocolKind, ProtocolParams};
    use dirtree_check::{explore, replay, CheckConfig, CheckOutcome, MutantKind, Mutated};

    fn mutant_is_caught(proto: ProtocolKind, kind: MutantKind) {
        let cfg = CheckConfig::small(2, 1);
        let factory = Mutated::factory(proto, ProtocolParams::default(), kind);
        let outcome = explore(&cfg, &factory);
        let CheckOutcome::Violation(cx) = outcome else {
            panic!(
                "{kind:?} on {} survived exploration: {outcome:?}",
                proto.name()
            );
        };
        assert!(!cx.choices.is_empty(), "violation needs at least one step");
        let rep = replay(&cfg, &factory, &cx.choices, 256);
        assert_eq!(
            rep.violation.as_deref(),
            Some(cx.violation.as_str()),
            "replay diverged from the explorer's violation"
        );
        assert_eq!(rep.steps.len(), cx.choices.len());
    }

    #[test]
    fn dropped_invalidation_is_caught() {
        mutant_is_caught(ProtocolKind::FullMap, MutantKind::DropInv);
    }

    #[test]
    fn premature_ack_is_caught() {
        mutant_is_caught(ProtocolKind::FullMap, MutantKind::PrematureAck);
    }

    #[test]
    fn stale_tree_pointer_is_caught() {
        // i = 1 forces a push-down on the second reader, so the first
        // non-empty adopt list (the mutant's target) appears at P = 2.
        mutant_is_caught(
            ProtocolKind::DirTree {
                pointers: 1,
                arity: 2,
            },
            MutantKind::StaleTreePointer,
        );
    }

    #[test]
    fn stale_wave_scratch_is_caught() {
        // Models the hot-path wave scratch buffer (`dir_tree`'s
        // `wave_scratch`) being reused across two invalidation waves
        // without clearing: the second wave replays a first-wave target,
        // so the real sharer's copy survives the write. Two writes from
        // different nodes at P = 2 already expose it.
        mutant_is_caught(
            ProtocolKind::DirTree {
                pointers: 2,
                arity: 2,
            },
            MutantKind::StaleWaveScratch,
        );
    }
}

/// A sabotaged adaptive hybrid: the first time the home launches an
/// update wave for a block, the block's mode bit is forced back to
/// invalidate *without* the drain check ([`DirTreeAdaptive::force_mode`]).
/// The wave still completes — update traffic routes unambiguously — but
/// the write now retires under invalidate semantics while every sharer
/// kept a valid copy, which the SWMR witness must report.
struct FlipMidWave {
    inner: dirtree::coherence::adapt::DirTreeAdaptive,
    fired: bool,
}

impl FlipMidWave {
    fn new() -> Self {
        // Aggressive thresholds: one producer-consumer interval flips the
        // block to update mode, so the very first wave is the target.
        let params = ProtocolParams {
            adapt_flip_up: 1,
            adapt_flip_down: 0,
            ..ProtocolParams::default()
        };
        Self {
            inner: dirtree::coherence::adapt::DirTreeAdaptive::new(4, 2, params),
            fired: false,
        }
    }
}

/// Context shim that records the block of the first directory-launched
/// `Update` wave; everything passes through untouched.
struct SniffWave<'a> {
    inner: &'a mut dyn ProtoCtx,
    wave: &'a mut Option<Addr>,
}

impl ProtoCtx for SniffWave<'_> {
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }
    fn home_of(&self, addr: Addr) -> NodeId {
        self.inner.home_of(addr)
    }
    fn send(&mut self, dst: NodeId, msg: Msg) {
        if self.wave.is_none() {
            if let MsgKind::Update { from_dir: true, .. } = msg.kind {
                *self.wave = Some(msg.addr);
            }
        }
        self.inner.send(dst, msg);
    }
    fn broadcast(&mut self, msg: Msg) -> Cycle {
        self.inner.broadcast(msg)
    }
    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        self.inner.redeliver(node, msg, delay);
    }
    fn occupy(&mut self, node: NodeId, cycles: Cycle) {
        self.inner.occupy(node, cycles);
    }
    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.inner.line_state(node, addr)
    }
    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.inner.set_line_state(node, addr, state);
    }
    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.inner.complete(node, addr, op);
    }
    fn note(&mut self, event: ProtoEvent) {
        self.inner.note(event);
    }
}

impl Protocol for FlipMidWave {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }
    fn is_update_for(&self, addr: Addr) -> bool {
        self.inner.is_update_for(addr)
    }
    fn wants_read_hits(&self) -> bool {
        self.inner.wants_read_hits()
    }
    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        self.inner.note_read_hit(node, addr);
    }
    fn note_op_retired(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.inner.note_op_retired(node, addr, op);
    }
    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        self.inner.start_miss(ctx, node, addr, op);
    }
    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let mut wave = None;
        let mut shim = SniffWave {
            inner: ctx,
            wave: &mut wave,
        };
        self.inner.handle(&mut shim, node, msg);
        if let Some(addr) = wave {
            if !self.fired {
                self.fired = true;
                self.inner.force_mode(addr, false);
            }
        }
    }
    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        self.inner.evict(ctx, node, addr, state);
    }
    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        self.inner.dir_bits_per_mem_block(nodes)
    }
    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.inner.cache_bits_per_line(nodes)
    }
    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(Self {
            inner: self.inner.clone(),
            fired: self.fired,
        })
    }
    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.inner.fingerprint(h);
        h.write_u8(self.fired as u8);
    }
}

/// Two consumers read, the producer writes: the detector flips the block
/// to update mode and launches an update wave; the mutant forces the mode
/// bit back mid-wave. The readers keep valid copies (update semantics), but
/// the write retires with `is_update_for` = false, so the witness demands
/// writer exclusivity and trips.
fn flip_mid_wave_run() -> (Machine, ScriptDriver) {
    let mut config = MachineConfig::test_default(4);
    config.verify = true;
    let machine = Machine::with_protocol(config, Box::new(FlipMidWave::new()));
    let driver = ScriptDriver::new(vec![
        vec![
            DriverOp::Barrier(0),
            DriverOp::Write(0),
            DriverOp::Barrier(1),
        ],
        vec![
            DriverOp::Read(0),
            DriverOp::Barrier(0),
            DriverOp::Barrier(1),
        ],
        vec![
            DriverOp::Read(0),
            DriverOp::Barrier(0),
            DriverOp::Barrier(1),
        ],
        vec![DriverOp::Barrier(0), DriverOp::Barrier(1)],
    ]);
    (machine, driver)
}

#[test]
#[should_panic(expected = "coherence violation")]
fn mode_flip_dropping_an_update_wave_is_caught() {
    let (mut machine, mut driver) = flip_mid_wave_run();
    machine.run(&mut driver);
}

#[test]
fn try_run_returns_the_witness_violation() {
    let (mut machine, mut driver) = flip_mid_wave_run();
    match machine.try_run(&mut driver) {
        Err(StallError::Witness {
            violation,
            protocol,
        }) => {
            assert!(
                violation.starts_with("coherence violation")
                    && violation.contains("WriterNotExclusive"),
                "{violation}"
            );
            assert_eq!(
                protocol,
                ProtocolKind::DirTreeAdaptive {
                    pointers: 4,
                    arity: 2
                }
            );
        }
        other => panic!("expected a witness violation, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "coherence violation")]
fn forged_invalidation_ack_is_caught() {
    // Reader shares; a forged ack lets the write complete while the
    // reader's copy survives → WriterNotExclusive, or the survivor's
    // stale read / final check trips. The mutant swallows the first
    // directory `Inv` and redelivers an `InvAck { dir: true }` to its
    // sender one cycle later.
    let mut config = MachineConfig::test_default(4);
    config.verify = true;
    let full_map = build_protocol(ProtocolKind::FullMap, ProtocolParams::default());
    let forged = Mutated::new(full_map, MutantKind::DropInv);
    let mut machine = Machine::with_protocol(config, Box::new(forged));
    let mut driver = ScriptDriver::new(vec![
        vec![
            DriverOp::Read(0),
            DriverOp::Barrier(0),
            DriverOp::Barrier(1),
            DriverOp::Read(0),
        ],
        vec![
            DriverOp::Read(0),
            DriverOp::Barrier(0),
            DriverOp::Barrier(1),
            DriverOp::Read(0),
        ],
        vec![
            DriverOp::Barrier(0),
            DriverOp::Write(0),
            DriverOp::Barrier(1),
        ],
        vec![DriverOp::Barrier(0), DriverOp::Barrier(1)],
    ]);
    machine.run(&mut driver);
}
