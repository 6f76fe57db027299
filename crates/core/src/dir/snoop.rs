//! Snooping MSI protocol — the bus-based baseline of the paper's §1
//! framing ("most of the popular cache coherence protocols are based on
//! snooping on the bus... the obvious limitation is the limited number of
//! processors that can be supported by a single bus").
//!
//! A split-transaction design with the block's memory controller as the
//! serialization point: a miss is requested from the memory, which
//! broadcasts the snoop (`BusRead` / `BusReadX`) — a *single* transaction
//! on the bus fabric, observed by every cache simultaneously — waits a
//! fixed snoop window for the wired-OR snoop result, and then supplies the
//! data (the previous modified owner flushes through the same memory
//! observation, which on a snooping bus sees all traffic).
//!
//! Pair with [`dirtree_net::NetworkConfig::bus`] for the intended fabric;
//! on a point-to-point network the broadcast degenerates to `n − 1`
//! unicasts, which is exactly the §1 argument for directories.

use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{send, send_home, Rows};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{Protocol, ProtocolKind};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::Cycle;

/// Cycles between the snoop broadcast and the data supply: long enough for
/// every snooper to have retired the invalidation/downgrade (cache latency
/// plus slack), modeling the synchronous wired snoop-result lines.
const SNOOP_WINDOW: Cycle = 4;

#[derive(Clone, Default, PartialEq, Hash)]
struct Entry {
    /// The memory controller snoops the bus too, so it always knows the
    /// modified owner.
    owner: Option<NodeId>,
}

/// The snooping MSI protocol.
#[derive(Clone)]
pub struct Snoop {
    rows: Rows<Entry, ()>,
}

impl Snoop {
    pub fn new() -> Self {
        Self {
            rows: Rows::default(),
        }
    }

    fn handle_request(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg, write: bool) {
        let addr = msg.addr;
        let requester = match msg.kind {
            MsgKind::ReadReq { requester } | MsgKind::WriteReq { requester } => requester,
            _ => unreachable!(),
        };
        if !self.rows.row(addr).gate.admit(&msg) {
            return;
        }
        // Broadcast the snoop; every cache (including the old owner and an
        // upgrading requester) observes it simultaneously. The broadcast
        // skips its sender, but the home node's *cache* snoops the bus
        // like any other: deliver to ourselves locally as well.
        let snoop = if write {
            MsgKind::BusReadX { requester }
        } else {
            MsgKind::BusRead { requester }
        };
        let delivered_by = ctx.broadcast(Msg {
            addr,
            src: home,
            kind: snoop.clone(),
        });
        ctx.redeliver(
            home,
            Msg {
                addr,
                src: home,
                kind: snoop,
            },
            1,
        );
        let e = self.rows.row(addr).entry.get_or_insert_default();
        if write {
            e.owner = Some(requester);
        } else {
            // Modified data is flushed during the snoop; memory is clean.
            e.owner = None;
        }
        // Supply after the snoop window, anchored to the broadcast's
        // actual delivery time (the bus may be backed up).
        let window = delivered_by.saturating_sub(ctx.now()) + SNOOP_WINDOW;
        ctx.redeliver(
            home,
            Msg {
                addr,
                src: home,
                kind: MsgKind::BusWindow {
                    requester,
                    exclusive: write,
                },
            },
            window,
        );
    }
}

impl Default for Snoop {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for Snoop {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Snoop
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_request(ctx, node, msg, false),
            MsgKind::WriteReq { .. } => self.handle_request(ctx, node, msg, true),
            MsgKind::BusRead { requester } => {
                // Snoopers: a modified owner downgrades (flush is implicit
                // in the split transaction — memory snoops the bus).
                if node != requester && ctx.line_state(node, addr) == LineState::E {
                    ctx.set_line_state(node, addr, LineState::V);
                }
            }
            MsgKind::BusReadX { requester } => {
                if node != requester {
                    match ctx.line_state(node, addr) {
                        LineState::V | LineState::E => {
                            ctx.note(ProtoEvent::Invalidation);
                            ctx.set_line_state(node, addr, LineState::Iv);
                        }
                        _ => {}
                    }
                }
            }
            MsgKind::BusWindow {
                requester,
                exclusive,
            } => {
                // The snoop window elapsed at the memory: supply the data.
                send(ctx, node, requester, addr, MsgKind::BusData { exclusive });
            }
            MsgKind::BusData { exclusive } => {
                ctx.set_line_state(
                    node,
                    addr,
                    if exclusive {
                        LineState::E
                    } else {
                        LineState::V
                    },
                );
                ctx.complete(
                    node,
                    addr,
                    if exclusive {
                        OpKind::Write
                    } else {
                        OpKind::Read
                    },
                );
                send_home(ctx, node, addr, MsgKind::FillAck);
            }
            MsgKind::FillAck => self.rows.row(addr).gate.finish_txn(ctx, node),
            MsgKind::WbEvict => {
                let e = self.rows.row(addr).entry.get_or_insert_default();
                if e.owner == Some(msg.src) {
                    e.owner = None;
                }
            }
            other => unreachable!("snooping MSI received {other:?}"),
        }
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        match state {
            LineState::V => {}
            LineState::E => {
                // Flush on the bus (one data transaction to memory).
                send_home(ctx, node, addr, MsgKind::WbEvict);
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }

    fn dir_bits_per_mem_block(&self, _nodes: u32) -> u64 {
        // No directory at all — the bus is the directory.
        0
    }

    fn cache_bits_per_line(&self, _nodes: u32) -> u64 {
        2 // MSI state
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        self.rows.digest(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockCtx;

    const A: Addr = 0;

    fn setup(nodes: u32) -> (MockCtx, Snoop) {
        (MockCtx::new(nodes), Snoop::new())
    }

    #[test]
    fn read_then_write_is_coherent() {
        let (mut ctx, mut p) = setup(8);
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        ctx.write(&mut p, 3, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![3]);
    }

    #[test]
    fn bus_readx_invalidates_every_snooper() {
        let (mut ctx, mut p) = setup(8);
        for n in 1..=6 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 7, A);
        for n in 1..=6 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn owner_downgrades_on_bus_read() {
        let (mut ctx, mut p) = setup(8);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(ctx.line_state(5, A), LineState::V);
        ctx.assert_swmr(A);
    }

    #[test]
    fn upgrade_keeps_writer_alive() {
        let (mut ctx, mut p) = setup(8);
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        ctx.write(&mut p, 1, A);
        assert_eq!(ctx.line_state(1, A), LineState::E);
        assert!(!ctx.line_state(2, A).readable());
    }

    #[test]
    fn migratory_ownership_chain() {
        let (mut ctx, mut p) = setup(8);
        for n in 0..8 {
            ctx.write(&mut p, n, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![n]);
        }
    }

    #[test]
    fn no_directory_bits() {
        let p = Snoop::new();
        assert_eq!(p.dir_bits_per_mem_block(1024), 0);
        assert_eq!(p.cache_bits_per_line(1024), 2);
    }
}
