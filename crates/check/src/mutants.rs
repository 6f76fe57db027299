//! Injected protocol bugs — mutation tests for the checker itself.
//!
//! Each mutant wraps a correct protocol and corrupts exactly one behavior
//! via a [`ProtoCtx`] shim, the first time the opportunity arises. The
//! model checker must find every one of them with a minimal
//! counterexample; if a mutant ever survives exploration, the checker has
//! lost its teeth (the same philosophy as `tests/witness_catches_bugs.rs`
//! for the simulator witness).

use dirtree_core::ctx::{ProtoCtx, ProtoEvent};
use dirtree_core::msg::{Msg, MsgKind};
use dirtree_core::protocol::{build_protocol, Protocol, ProtocolKind, ProtocolParams};
use dirtree_core::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::Cycle;

/// Which single behavior to corrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutantKind {
    /// Swallow the first directory-originated `Inv` and forge its
    /// `InvAck`: the sharer's copy survives the write.
    DropInv,
    /// The first invalidation a cache handles is acknowledged without
    /// actually killing the copy (the line stays readable).
    PrematureAck,
    /// Truncate the first non-empty `ReadReply` adopt list: a subtree is
    /// orphaned from the directory's recorded forest.
    StaleTreePointer,
    /// Alias the directory's invalidation-wave scratch buffer across two
    /// waves: the second wave's first invalidation is redirected to a
    /// target *recorded during the first wave*, as if `wave_scratch` in
    /// `dir_tree` were reused without being cleared. The real target's
    /// copy survives the write.
    StaleWaveScratch,
    /// Swallow (and forge the ack for) every directory-originated `Inv`
    /// addressed to processor 2 *specifically*; other targets invalidate
    /// normally. The bug keys on a node id's magnitude, so it is
    /// deliberately **asymmetric**: relabeling processors moves it. It
    /// exists to pin the soundness contract of the checker's symmetry
    /// reduction — [`Mutated`] does not implement `Protocol::relabeled`,
    /// so the group must degenerate to the identity and exploration with
    /// reductions enabled must still report this bug (a checker that
    /// wrongly canonicalized over uncertified protocols could merge the
    /// buggy orbit member with a clean one and mask it).
    AsymmetricDropInv,
}

/// A correct protocol with one injected bug.
pub struct Mutated {
    inner: Box<dyn Protocol>,
    kind: MutantKind,
    tripped: bool,
    /// Targets of the first directory-originated invalidation wave — the
    /// "stale scratch contents" `StaleWaveScratch` replays on the second
    /// wave. Explored state, so it participates in `fingerprint`.
    first_wave: Vec<NodeId>,
    /// Directory invalidation waves observed so far (a wave = all
    /// `Inv { from_dir: true }` sends within one handler call).
    waves_seen: u32,
}

impl Mutated {
    pub fn new(inner: Box<dyn Protocol>, kind: MutantKind) -> Self {
        Self {
            inner,
            kind,
            tripped: false,
            first_wave: Vec::new(),
            waves_seen: 0,
        }
    }

    /// Factory for the explorer: a fresh mutant around `build_protocol`.
    pub fn factory(
        proto: ProtocolKind,
        params: ProtocolParams,
        kind: MutantKind,
    ) -> impl Fn() -> Box<dyn Protocol> + Sync {
        move || Box::new(Mutated::new(build_protocol(proto, params), kind))
    }
}

/// The sabotaging context shim. `active` gates mutations that must only
/// fire while handling a specific message kind.
struct MutCtx<'a> {
    inner: &'a mut dyn ProtoCtx,
    kind: MutantKind,
    tripped: &'a mut bool,
    active: bool,
    first_wave: &'a mut Vec<NodeId>,
    waves_seen: &'a mut u32,
    /// Whether *this* handler call has already emitted a directory-wave
    /// invalidation (the shim lives for one call, so this groups one
    /// call's `from_dir` sends into one wave).
    wave_started: bool,
}

impl ProtoCtx for MutCtx<'_> {
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
        if !*self.tripped {
            match (self.kind, &msg.kind) {
                (MutantKind::DropInv, MsgKind::Inv { from_dir: true, .. })
                | (MutantKind::AsymmetricDropInv, MsgKind::Inv { from_dir: true, .. })
                    if self.kind == MutantKind::DropInv || dst == 2 =>
                {
                    // Swallow the invalidation; forge the ack to its sender.
                    *self.tripped = true;
                    let src = msg.src;
                    self.inner.redeliver(
                        src,
                        Msg {
                            addr: msg.addr,
                            src: dst,
                            kind: MsgKind::InvAck { dir: true },
                        },
                        1,
                    );
                    return;
                }
                (MutantKind::StaleTreePointer, MsgKind::ReadReply { adopt })
                    if !adopt.is_empty() =>
                {
                    *self.tripped = true;
                    let mut adopt = adopt.to_vec();
                    adopt.pop();
                    self.inner.send(
                        dst,
                        Msg {
                            addr: msg.addr,
                            src: msg.src,
                            kind: MsgKind::ReadReply {
                                adopt: adopt.into(),
                            },
                        },
                    );
                    return;
                }
                _ => {}
            }
        }
        if self.kind == MutantKind::StaleWaveScratch {
            if let MsgKind::Inv { from_dir: true, .. } = msg.kind {
                if !self.wave_started {
                    self.wave_started = true;
                    *self.waves_seen += 1;
                }
                if *self.waves_seen == 1 {
                    self.first_wave.push(dst);
                } else if !*self.tripped {
                    // Second wave: replay a stale target from the first
                    // wave's "scratch" instead of the real one (only a
                    // *different* target models an aliasing bug).
                    if let Some(&stale) = self.first_wave.iter().find(|&&t| t != dst) {
                        *self.tripped = true;
                        self.inner.send(stale, msg);
                        return;
                    }
                }
            }
        }
        self.inner.send(dst, msg);
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
        if self.active
            && !*self.tripped
            && self.kind == MutantKind::PrematureAck
            && state == LineState::Iv
            && self.inner.line_state(node, addr).readable()
        {
            // Ack flows, copy survives.
            *self.tripped = true;
            return;
        }
        self.inner.set_line_state(node, addr, state);
    }

    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        self.inner.complete(node, addr, op);
    }
    fn note(&mut self, event: ProtoEvent) {
        self.inner.note(event);
    }
}

impl Protocol for Mutated {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        let mut shim = MutCtx {
            inner: ctx,
            kind: self.kind,
            tripped: &mut self.tripped,
            active: self.kind != MutantKind::PrematureAck,
            first_wave: &mut self.first_wave,
            waves_seen: &mut self.waves_seen,
            wave_started: false,
        };
        self.inner.start_miss(&mut shim, node, addr, op);
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        // PrematureAck only corrupts line-state writes made while handling
        // an invalidation — not fills, downgrades, or replacements.
        let active = match self.kind {
            MutantKind::PrematureAck => matches!(msg.kind, MsgKind::Inv { .. }),
            _ => true,
        };
        let mut shim = MutCtx {
            inner: ctx,
            kind: self.kind,
            tripped: &mut self.tripped,
            active,
            first_wave: &mut self.first_wave,
            waves_seen: &mut self.waves_seen,
            wave_started: false,
        };
        self.inner.handle(&mut shim, node, msg);
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        let mut shim = MutCtx {
            inner: ctx,
            kind: self.kind,
            tripped: &mut self.tripped,
            active: self.kind != MutantKind::PrematureAck,
            first_wave: &mut self.first_wave,
            waves_seen: &mut self.waves_seen,
            wave_started: false,
        };
        self.inner.evict(&mut shim, node, addr, state);
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        self.inner.dir_bits_per_mem_block(nodes)
    }
    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        self.inner.cache_bits_per_line(nodes)
    }
    fn is_update(&self) -> bool {
        self.inner.is_update()
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

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(Mutated {
            inner: self.inner.boxed_clone(),
            kind: self.kind,
            tripped: self.tripped,
            first_wave: self.first_wave.clone(),
            waves_seen: self.waves_seen,
        })
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.inner.fingerprint(h);
        h.write_u8(self.tripped as u8);
        h.write_u32(self.waves_seen);
        for &t in &self.first_wave {
            h.write_u32(t);
        }
    }

    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        self.inner.check_invariants(ctx, addrs, quiescent)
    }
}
