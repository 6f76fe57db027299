//! Packet-granularity wormhole timing model with link contention.
//!
//! A wormhole message of `L` bytes over `h` hops on `W`-bit links needs
//! `h·t_sw` cycles for the head to reach the destination plus `⌈8L/W⌉`
//! cycles for the body to stream in behind it. Table 5 of the paper gives
//! `W = 8` bits and `t_sw = 1` cycle, so a message costs `h + L` cycles
//! uncontended.
//!
//! Contention is modeled at packet granularity: each directed link (plus a
//! per-node injection channel) is reserved for the message's serialization
//! time as the head passes, so hot-spot queueing at a home node's links is
//! visible, while flit-level backpressure is not (see DESIGN.md §3).

use crate::topology::{DigitTable, LinkId, NodeId, RouteTable, Topology, MAX_DIMS};
use dirtree_sim::{Cycle, Histogram};

/// Per-hop switch + wire delay in cycles on the n-cube, and the bus
/// arbitration delay on the bus (Table 5: 1-cycle switches).
pub const SWITCH_DELAY: Cycle = 1;

/// Latency charged for a node messaging itself (local loopback).
pub const LOCAL_DELAY: Cycle = 1;

/// Interconnect style: the paper's wormhole k-ary n-cube, or the single
/// shared bus Proteus could also be configured with (§1 motivates the
/// directory protocols by the bus's saturation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Wormhole-routed k-ary n-cube (Table 5).
    KaryNcube,
    /// One shared split-transaction bus: every message serializes on it.
    Bus,
}

/// Network timing parameters (defaults follow Table 5 of the paper).
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Interconnect style.
    pub fabric: Fabric,
    /// Link width in bits (n-cube links, or the bus itself).
    pub link_width_bits: u32,
    /// Model link/injection contention (true) or use uncontended pipeline
    /// latency only (false). The bus always serializes.
    pub contention: bool,
    /// Virtual channels per physical link (and per injection port). `1` is
    /// the classic single-channel model and the default; with more, message
    /// phases are separated onto channels via [`crate::vc::vc_for`] and
    /// arbitrated round-robin on each physical link. The bus ignores VCs
    /// (one shared medium, no per-link buffering to separate).
    pub vcs: u32,
    /// Minimal-adaptive e-cube: at each hop choose among the *productive*
    /// dimensions (those still reducing the distance) by least VC backlog,
    /// breaking ties toward the lowest dimension. `false` (the default)
    /// keeps deterministic table-driven e-cube routing.
    pub adaptive: bool,
    /// Per-(node, VC) send credits enforced by the machine layer (bounded
    /// output buffering; `0` = unbounded, the default). The network itself
    /// only carries the setting — see `MachineCore` for the semantics.
    pub vc_credits: u32,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            fabric: Fabric::KaryNcube,
            link_width_bits: 8,
            contention: true,
            vcs: 1,
            adaptive: false,
            vc_credits: 0,
        }
    }
}

impl NetworkConfig {
    /// A shared bus with the same electrical parameters (for the §1
    /// motivation experiment: the bus saturates as processors are added).
    pub fn bus() -> Self {
        Self {
            fabric: Fabric::Bus,
            ..Self::default()
        }
    }

    /// Channel count clamped to at least one (so sizing/indexing arithmetic
    /// never divides by the degenerate `vcs = 0`).
    #[inline]
    pub fn vc_count(&self) -> u32 {
        self.vcs.max(1)
    }

    /// True when any virtual-channel feature departs from the classic
    /// single-channel default (used to keep config keys stable for pre-VC
    /// records).
    pub fn vc_nondefault(&self) -> bool {
        self.vc_count() > 1 || self.adaptive || self.vc_credits > 0
    }

    /// Credit cost of a `bytes`-byte message in flits: `⌈8·bytes/W⌉`, the
    /// same quantization [`Network::serialization_cycles`] charges for link
    /// time, clamped to the pool size `vc_credits` so a packet longer than
    /// the whole buffer occupies the full pool but can still make progress
    /// (a cost greater than the pool could never be granted). With
    /// `vc_credits = 1` every message therefore costs exactly one credit —
    /// the historical message-granularity accounting.
    #[inline]
    pub fn flit_cost(&self, bytes: u32) -> u32 {
        debug_assert!(self.vc_credits > 0, "flit_cost with unbounded credits");
        let flits = (bytes as u64 * 8)
            .div_ceil(self.link_width_bits.max(1) as u64)
            .max(1);
        (flits.min(self.vc_credits as u64)) as u32
    }
}

/// Aggregate traffic statistics.
#[derive(Clone, Debug, Default)]
pub struct NetworkStats {
    pub messages: u64,
    pub bytes: u64,
    pub total_hops: u64,
    pub latency: Histogram,
    /// Cycles spent waiting at a source's injection port (or for bus
    /// arbitration) before the head could depart.
    pub inject_wait_cycles: u64,
    /// Cycles packet heads spent waiting for busy links along their route.
    pub link_wait_cycles: u64,
    /// Wait cycles (injection + link) attributed per virtual channel; empty
    /// in the single-channel model.
    pub vc_wait_cycles: Vec<u64>,
}

impl NetworkStats {
    /// Total queueing wait. Exactly the historical `contention_cycles`
    /// accounting: the injection/link split partitions the old sum, so
    /// records keyed on the aggregate are unchanged.
    pub fn contention_cycles(&self) -> u64 {
        self.inject_wait_cycles + self.link_wait_cycles
    }
}

/// Link-utilization export for the observability layer. Always present so
/// downstream record schemas are feature-stable; default (all-zero) when
/// the `trace` feature is off.
#[derive(Clone, Debug, Default)]
pub struct LinkMetrics {
    /// Directed links in the fabric (1 for the bus).
    pub links: u64,
    /// Busy (streaming) cycles on the single most utilized link.
    pub max_link_busy: u64,
    /// Busy cycles summed over all links.
    pub total_link_busy: u64,
    /// Injection-channel backlog in cycles, sampled at each send.
    pub inject_queue: Histogram,
    /// Per-link backlog in cycles, sampled as each packet head arrives.
    pub link_queue: Histogram,
    /// Backlog histograms partitioned by virtual channel (same samples as
    /// `inject_queue`/`link_queue`, split per VC). Empty in the
    /// single-channel model, so pre-VC snapshots are unchanged.
    pub vc_queue: Vec<Histogram>,
}

/// Per-link observability accumulators (feature `trace` only).
///
/// Every backlog sample is recorded exactly once. The single-channel and
/// bus paths write `inject_queue`/`link_queue` directly; the VC/adaptive
/// path ([`Network::send_cube_vc`]) writes the per-channel pair
/// `vc_inject[vc]`/`vc_link[vc]` instead, and [`Network::link_metrics`]
/// derives the three exported views from them with [`Histogram::merge`]:
/// `inject_queue` = Σ `vc_inject`, `link_queue` = Σ `vc_link`,
/// `vc_queue[v]` = `vc_inject[v]` ∪ `vc_link[v]`. A network only ever takes
/// one of the two cube paths, so one side of each merge is empty.
#[cfg(feature = "trace")]
#[derive(Default)]
struct LinkObs {
    /// Streaming cycles reserved on each directed link.
    link_busy: Vec<u64>,
    /// Streaming cycles on the shared bus (Fabric::Bus).
    bus_busy: u64,
    inject_queue: Histogram,
    link_queue: Histogram,
    /// Injection-port backlog samples of the VC/adaptive path, per channel
    /// (len = `vc_count()`).
    vc_inject: Vec<Histogram>,
    /// Link backlog samples of the VC/adaptive path, per channel.
    vc_link: Vec<Histogram>,
}

/// The interconnection network: topology + per-link reservation state.
pub struct Network {
    topo: Topology,
    config: NetworkConfig,
    /// `free_at[link * vcs + vc]`: earliest cycle virtual channel `vc` of
    /// the directed link can accept a new packet head. With `vcs = 1` this
    /// degenerates to one reservation per physical link.
    link_free: Vec<Cycle>,
    /// Per-(node, VC) injection-channel availability (a node has one port
    /// into the network per channel, so same-channel back-to-back sends
    /// serialize), laid out like `link_free`.
    inject_free: Vec<Cycle>,
    /// Shared-bus availability (Fabric::Bus).
    bus_free: Cycle,
    stats: NetworkStats,
    #[cfg(feature = "trace")]
    obs: LinkObs,
    /// Every node's digits: the VC/adaptive send and [`RouteTable::build`]
    /// derive routes from it without a division.
    digits: DigitTable,
    /// Precomputed e-cube routes, walked from `digits` once here so the
    /// single-channel `send` never derives a path. `None` under
    /// [`Fabric::Bus`] (which never routes) and in the VC/adaptive modes
    /// (which read one plan per message from `digits`: at P = 1024 the table
    /// would cost tens of MB for nothing).
    routes: Option<RouteTable>,
}

impl Network {
    pub fn new(topo: Topology, config: NetworkConfig) -> Self {
        let vcs = config.vc_count() as usize;
        let digits = DigitTable::new(&topo);
        Self {
            link_free: vec![0; topo.num_directed_links() as usize * vcs],
            inject_free: vec![0; topo.num_nodes() as usize * vcs],
            bus_free: 0,
            #[cfg(feature = "trace")]
            obs: LinkObs {
                link_busy: vec![0; topo.num_directed_links() as usize],
                vc_inject: vec![Histogram::new(); vcs],
                vc_link: vec![Histogram::new(); vcs],
                ..LinkObs::default()
            },
            routes: (config.fabric == Fabric::KaryNcube && !config.adaptive && vcs == 1)
                .then(|| RouteTable::build(&digits)),
            digits,
            topo,
            stats: NetworkStats {
                vc_wait_cycles: if vcs > 1 { vec![0; vcs] } else { Vec::new() },
                ..NetworkStats::default()
            },
            config,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Serialization time of `bytes` over one link, in cycles (≥ 1).
    #[inline]
    pub fn serialization_cycles(&self, bytes: u32) -> Cycle {
        let bits = bytes as u64 * 8;
        bits.div_ceil(self.config.link_width_bits as u64).max(1)
    }

    /// Uncontended latency from `src` to `dst` for a `bytes`-byte message.
    pub fn base_latency(&self, src: NodeId, dst: NodeId, bytes: u32) -> Cycle {
        if src == dst {
            return LOCAL_DELAY;
        }
        if self.config.fabric == Fabric::Bus {
            // One arbitration plus full serialization, distance-independent
            // — must agree with what `send` charges on an idle bus.
            return SWITCH_DELAY + self.serialization_cycles(bytes);
        }
        let hops = self.topo.distance(src, dst) as Cycle;
        hops * SWITCH_DELAY + self.serialization_cycles(bytes)
    }

    /// Compute the delivery time of a message injected at `now`, reserving
    /// link bandwidth along the e-cube path. Statistics are updated.
    /// Single-channel entry point: equivalent to [`Network::send_vc`] on
    /// channel 0 (where every message class lands when `vcs = 1`).
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, bytes: u32) -> Cycle {
        self.send_vc(now, src, dst, bytes, 0)
    }

    /// [`Network::send`] on a specific virtual channel. With the default
    /// `vcs = 1` the channel collapses to 0 and the timing is byte-for-byte
    /// the classic single-channel model.
    pub fn send_vc(&mut self, now: Cycle, src: NodeId, dst: NodeId, bytes: u32, vc: u32) -> Cycle {
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;

        if src == dst {
            let arrival = now + LOCAL_DELAY;
            self.stats.latency.record(LOCAL_DELAY);
            return arrival;
        }

        let ser = self.serialization_cycles(bytes);

        if self.config.fabric == Fabric::Bus {
            // One transaction at a time on the shared medium: arbitration
            // plus the full serialization, regardless of distance. Virtual
            // channels do not apply (there is no per-link buffering to
            // separate), so `vc` is ignored here.
            self.stats.total_hops += 1;
            let start = now.max(self.bus_free);
            // Waiting for the bus is waiting to *inject* onto the shared
            // medium: there are no per-hop links to wait for.
            self.stats.inject_wait_cycles += start - now;
            #[cfg(feature = "trace")]
            {
                // The bus doubles as injection port and only link, so the
                // arbitration wait is sampled under both histograms —
                // keeping the schema structurally consistent with the cube
                // fabric, where both are always populated.
                self.obs.inject_queue.record(start - now);
                self.obs.link_queue.record(start - now);
                self.obs.bus_busy += SWITCH_DELAY + ser;
            }
            let arrival = start + SWITCH_DELAY + ser;
            self.bus_free = arrival;
            self.stats.latency.record(arrival - now);
            return arrival;
        }

        if self.config.adaptive || self.config.vc_count() > 1 {
            let arrival = self.send_cube_vc(now, src, dst, ser, vc);
            self.stats.latency.record(arrival - now);
            return arrival;
        }

        // Classic single-channel path: walk the precomputed route. The
        // table is moved out for the walk (three `Vec` headers, no data
        // copy) so the reservation arrays can be borrowed mutably alongside
        // it.
        let routes = self.routes.take().expect("cube send without route table");
        let route: &[LinkId] = routes.route(src, dst);
        self.stats.total_hops += route.len() as u64;

        let arrival = if self.config.contention {
            // Head departs when the injection port frees up.
            let inj_free = self.inject_free[src as usize];
            let depart = now.max(inj_free);
            self.stats.inject_wait_cycles += depart - now;
            self.inject_free[src as usize] = depart + ser;
            #[cfg(feature = "trace")]
            self.obs.inject_queue.record(inj_free.saturating_sub(now));

            let mut head = depart;
            for &link in route {
                let free = self.link_free[link as usize];
                let enter = head.max(free);
                self.stats.link_wait_cycles += enter - head;
                // The link streams the whole packet once the head passes.
                self.link_free[link as usize] = enter + ser;
                #[cfg(feature = "trace")]
                {
                    self.obs.link_queue.record(free.saturating_sub(head));
                    self.obs.link_busy[link as usize] += ser;
                }
                head = enter + SWITCH_DELAY;
            }
            head + ser
        } else {
            // No reservations to sample, but link occupancy is still
            // well-defined: each link on the path streams the packet once.
            #[cfg(feature = "trace")]
            for &link in route {
                self.obs.link_busy[link as usize] += ser;
            }
            now + route.len() as Cycle * SWITCH_DELAY + ser
        };

        self.routes = Some(routes);
        self.stats.latency.record(arrival - now);
        arrival
    }

    /// Cube send in the virtual-channel / adaptive modes: hops follow
    /// e-cube dimension order, or the minimal-adaptive choice by VC
    /// backlog, and each physical link arbitrates round-robin among its
    /// channels at packet granularity:
    ///
    /// * a packet reserves only its own `(link, vc)` horizon;
    /// * if other channels are mid-stream when it is granted, it loses one
    ///   arbitration slot ([`SWITCH_DELAY`]) to the rotation and the busy
    ///   channels' horizons are pushed back by its serialization time —
    ///   flits interleave, so physical bandwidth is conserved while no
    ///   channel can head-of-line block another outright.
    ///
    /// The route comes from one `RoutePlan` per message, read from the
    /// digit table without a division: the productive dimensions, their
    /// direction (the tie rule of [`Topology::hop_toward`], the reference
    /// derivation this must agree with) and the hops left in each. Each
    /// dimension's channel offset from a node's first slot in `link_free`,
    /// `(dim·2 + plus)·vcs + vc`, is computed once per message too. Each hop
    /// then walks the set bits of the productive mask, steps `cur` one digit
    /// with `DigitTable::step` and clears the bit of a dimension whose count
    /// reaches zero.
    ///
    /// Never inlined, so the scratch arrays stay out of [`Network::send_vc`]'s
    /// frame and the single-channel branch there compiles the same whatever
    /// happens here.
    #[inline(never)]
    fn send_cube_vc(&mut self, now: Cycle, src: NodeId, dst: NodeId, ser: Cycle, vc: u32) -> Cycle {
        let vcs = self.config.vc_count() as usize;
        let vc = (vc as usize).min(vcs - 1);
        let plan = self.digits.plan(src, dst);
        let hops = plan.distance();
        self.stats.total_hops += hops;

        if !self.config.contention {
            // No reservations: pipeline latency over the minimal hop count
            // (identical for every minimal route, adaptive or not).
            #[cfg(feature = "trace")]
            self.digits.ecube_walk(src, &plan, |link| {
                self.obs.link_busy[link as usize] += ser;
            });
            return now + hops * SWITCH_DELAY + ser;
        }

        // Injection: one port per (node, VC).
        let pi = src as usize * vcs + vc;
        let inj_free = self.inject_free[pi];
        let depart = now.max(inj_free);
        self.stats.inject_wait_cycles += depart - now;
        self.inject_free[pi] = depart + ser;
        #[cfg(feature = "trace")]
        self.obs.vc_inject[vc].record(inj_free.saturating_sub(now));

        // A node's 2n directed links sit side by side in `link_free`, `vcs`
        // slots each.
        let n = self.topo.dimensions() as usize;
        let node_slots = 2 * n * vcs;
        let mut offset = [0usize; MAX_DIMS];
        for (dim, off) in offset[..n].iter_mut().enumerate() {
            *off = (dim * 2 + (plan.plus >> dim & 1) as usize) * vcs + vc;
        }
        let mut left = plan.hops;
        let mut productive = plan.productive;

        let t_sw = SWITCH_DELAY;
        let adaptive = self.config.adaptive;
        let mut head = depart;
        let mut cur = src;
        let mut link_wait = 0;
        // Hops that met an idle channel (sample 0), flushed in one
        // `record_n` after the walk.
        #[cfg(feature = "trace")]
        let mut idle = 0u64;
        while productive != 0 {
            // Next hop: deterministic e-cube takes the lowest productive
            // dimension outright; adaptive picks the productive dimension
            // whose (link, vc) horizon has the least backlog when the head
            // would arrive, ties broken toward the lowest dimension (the
            // bits are walked in ascending order and strict `<` keeps the
            // first minimum).
            let cur_base = cur as usize * node_slots;
            let mut dim = productive.trailing_zeros() as usize;
            if adaptive {
                let mut best = Cycle::MAX;
                let mut rest = productive;
                while rest != 0 {
                    let d = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    let backlog = self.link_free[cur_base + offset[d]].saturating_sub(head);
                    if backlog < best {
                        best = backlog;
                        dim = d;
                    }
                }
            }
            let plus = plan.plus >> dim & 1 != 0;
            let slot = cur_base + offset[dim];
            let base = slot - vc;

            let own = self.link_free[slot];
            let mut enter = head.max(own);
            if vcs > 1 {
                // Round-robin arbitration: granted behind other busy
                // channels costs one rotation slot, and our flits displace
                // theirs on the physical wires.
                let shared = (0..vcs).any(|u| u != vc && self.link_free[base + u] > enter);
                if shared {
                    enter += t_sw;
                    for u in 0..vcs {
                        if u != vc && self.link_free[base + u] > enter {
                            self.link_free[base + u] += ser;
                        }
                    }
                }
            }
            link_wait += enter - head;
            self.link_free[slot] = enter + ser;
            #[cfg(feature = "trace")]
            {
                if own > head {
                    self.obs.vc_link[vc].record(own - head);
                } else {
                    idle += 1;
                }
                self.obs.link_busy[self.topo.link_id(cur, dim as u32, plus) as usize] += ser;
            }
            head = enter + t_sw;

            cur = self.digits.step(cur, dim, plus);
            left[dim] -= 1;
            productive &= !(((left[dim] == 0) as u32) << dim);
        }
        debug_assert_eq!(cur, dst);
        self.stats.link_wait_cycles += link_wait;
        if let Some(waited) = self.stats.vc_wait_cycles.get_mut(vc) {
            *waited += depart - now + link_wait;
        }
        #[cfg(feature = "trace")]
        self.obs.vc_link[vc].record_n(0, idle);
        head + ser
    }

    /// Deliver one message from `src` to *every* other node. On the bus
    /// this is a single transaction (all snoopers observe the same cycle);
    /// on the k-ary n-cube it degenerates to `n − 1` unicasts and returns
    /// the latest arrival. Returns the common / worst-case arrival cycle.
    pub fn broadcast(&mut self, now: Cycle, src: NodeId, bytes: u32) -> Cycle {
        self.broadcast_vc(now, src, bytes, 0)
    }

    /// [`Network::broadcast`] on a specific virtual channel (cube fan-out
    /// unicasts ride the channel; the bus is a single class-less medium).
    pub fn broadcast_vc(&mut self, now: Cycle, src: NodeId, bytes: u32, vc: u32) -> Cycle {
        if self.config.fabric == Fabric::Bus {
            let ser = self.serialization_cycles(bytes);
            self.stats.messages += 1;
            self.stats.bytes += bytes as u64;
            self.stats.total_hops += 1;
            let start = now.max(self.bus_free);
            self.stats.inject_wait_cycles += start - now;
            #[cfg(feature = "trace")]
            {
                // Sampled under both histograms, like the unicast path: the
                // bus is injection port and only link at once.
                self.obs.inject_queue.record(start - now);
                self.obs.link_queue.record(start - now);
                self.obs.bus_busy += SWITCH_DELAY + ser;
            }
            let arrival = start + SWITCH_DELAY + ser;
            self.bus_free = arrival;
            self.stats.latency.record(arrival - now);
            arrival
        } else {
            let mut worst = now;
            for dst in 0..self.topo.num_nodes() {
                if dst != src {
                    worst = worst.max(self.send_vc(now, src, dst, bytes, vc));
                }
            }
            worst
        }
    }

    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Link-utilization metrics for the observability layer. Always
    /// callable; all-zero when the `trace` feature is off.
    pub fn link_metrics(&self) -> LinkMetrics {
        #[cfg(feature = "trace")]
        {
            let (links, max_link_busy, total_link_busy) = if self.config.fabric == Fabric::Bus {
                (1, self.obs.bus_busy, self.obs.bus_busy)
            } else {
                (
                    self.link_free.len() as u64,
                    self.obs.link_busy.iter().copied().max().unwrap_or(0),
                    self.obs.link_busy.iter().sum(),
                )
            };
            // The VC/adaptive path records per channel only (see
            // `LinkObs`); the exported views are merges of those.
            let mut inject_queue = self.obs.inject_queue.clone();
            let mut link_queue = self.obs.link_queue.clone();
            let mut vc_queue = Vec::new();
            for (inject, link) in self.obs.vc_inject.iter().zip(&self.obs.vc_link) {
                inject_queue.merge(inject);
                link_queue.merge(link);
                if self.config.vc_count() > 1 {
                    let mut both = inject.clone();
                    both.merge(link);
                    vc_queue.push(both);
                }
            }
            LinkMetrics {
                links,
                max_link_busy,
                total_link_busy,
                inject_queue,
                link_queue,
                vc_queue,
            }
        }
        #[cfg(not(feature = "trace"))]
        LinkMetrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirtree_sim::SimRng;

    fn net(nodes: u32, contention: bool) -> Network {
        Network::new(
            Topology::hypercube(nodes),
            NetworkConfig {
                contention,
                ..NetworkConfig::default()
            },
        )
    }

    #[test]
    fn base_latency_matches_paper_model() {
        // 8 bytes over 3 hops on 8-bit links with 1-cycle switches:
        // 3*1 + 8 = 11 cycles.
        let n = net(8, false);
        assert_eq!(n.base_latency(0, 7, 8), 11);
        // Control message (8 bytes) one hop: 1 + 8 = 9.
        assert_eq!(n.base_latency(0, 1, 8), 9);
    }

    #[test]
    fn local_messages_cost_local_delay() {
        let mut n = net(8, true);
        assert_eq!(n.send(100, 3, 3, 64), 101);
    }

    #[test]
    fn uncontended_send_equals_base_latency() {
        let mut n = net(16, false);
        for (src, dst) in [(0u32, 15u32), (3, 9), (7, 7)] {
            let t = n.send(50, src, dst, 16);
            assert_eq!(t, 50 + n.base_latency(src, dst, 16));
        }
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut n = net(2, true);
        // Two back-to-back messages 0 -> 1 must serialize on the injection
        // port / link: the second arrives at least `ser` cycles later.
        let t1 = n.send(0, 0, 1, 8);
        let t2 = n.send(0, 0, 1, 8);
        assert!(t2 >= t1 + 8, "t1={t1} t2={t2}");
        assert!(n.stats().contention_cycles() > 0);
    }

    #[test]
    fn contention_does_not_affect_disjoint_paths() {
        let mut n = net(4, true);
        // 0->1 (dimension 0) and 2->3 (dimension 0 but different link) are
        // disjoint; both should see base latency.
        let t1 = n.send(0, 0, 1, 8);
        let t2 = n.send(0, 2, 3, 8);
        assert_eq!(t1, t2);
    }

    #[test]
    fn contended_latency_never_beats_base() {
        let mut n = net(8, true);
        let mut uncont = net(8, false);
        let mut worst = 0;
        // All-to-one hot spot at node 0, all injected at t=0: queueing is
        // guaranteed on node 0's incoming links.
        for src in 1..8u32 {
            let a = n.send(0, src, 0, 8);
            let b = uncont.send(0, src, 0, 8);
            assert!(a >= b);
            worst = worst.max(a - b);
        }
        assert!(worst > 0, "expected some queueing in a hot-spot pattern");
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net(8, true);
        n.send(0, 0, 7, 8);
        n.send(0, 1, 2, 16);
        let s = n.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.bytes, 24);
        assert_eq!(s.total_hops, 3 + 2);
        assert_eq!(s.latency.count(), 2);
    }

    #[test]
    fn bus_uncontended_send_equals_base_latency_at_any_distance() {
        // Regression: base_latency used to charge hop-count latency under
        // Fabric::Bus, disagreeing with what send() charges on an idle bus.
        for (src, dst) in [(0u32, 1u32), (0, 31), (3, 28)] {
            let mut n = Network::new(Topology::hypercube(32), NetworkConfig::bus());
            assert_eq!(n.send(10, src, dst, 8), 10 + n.base_latency(src, dst, 8));
        }
    }

    #[test]
    fn bus_serializes_every_message() {
        let mut n = Network::new(Topology::hypercube(8), NetworkConfig::bus());
        // Disjoint pairs would be parallel on the cube; the bus serializes.
        let t1 = n.send(0, 0, 1, 8);
        let t2 = n.send(0, 2, 3, 8);
        let t3 = n.send(0, 4, 5, 8);
        assert_eq!(t1, 9); // arbitration 1 + 8 cycles of data
        assert_eq!(t2, t1 + 9);
        assert_eq!(t3, t2 + 9);
        assert!(n.stats().contention_cycles() > 0);
    }

    #[test]
    fn bus_latency_is_distance_independent() {
        let mut n = Network::new(Topology::hypercube(32), NetworkConfig::bus());
        let near = n.send(0, 0, 1, 8);
        let mut n2 = Network::new(Topology::hypercube(32), NetworkConfig::bus());
        let far = n2.send(0, 0, 31, 8);
        assert_eq!(near, far);
    }

    #[test]
    fn bus_broadcast_is_one_transaction() {
        let mut n = Network::new(Topology::hypercube(8), NetworkConfig::bus());
        let t = n.broadcast(0, 3, 8);
        assert_eq!(t, 9);
        assert_eq!(n.stats().messages, 1, "one bus transaction, not n-1");
    }

    #[test]
    fn cube_broadcast_is_unicast_fanout() {
        let mut n = net(8, false);
        let t = n.broadcast(0, 0, 8);
        assert_eq!(n.stats().messages, 7);
        assert_eq!(t, n.base_latency(0, 7, 8)); // farthest node bounds it
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn link_metrics_default_when_trace_disabled() {
        let mut n = net(8, true);
        n.send(0, 0, 7, 8);
        let m = n.link_metrics();
        assert_eq!(m.links, 0);
        assert_eq!(m.total_link_busy, 0);
        assert_eq!(m.inject_queue.count(), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn link_metrics_accumulate() {
        let mut n = net(8, true);
        // 3 hops, 8-byte message: each traversed link streams 8 cycles.
        n.send(0, 0, 7, 8);
        let m = n.link_metrics();
        assert_eq!(m.links, n.topology().num_directed_links() as u64);
        assert_eq!(m.total_link_busy, 3 * 8);
        assert_eq!(m.max_link_busy, 8);
        assert_eq!(m.inject_queue.count(), 1);
        assert_eq!(m.inject_queue.max(), 0, "idle port has no backlog");
        assert_eq!(m.link_queue.count(), 3);
        // A back-to-back send on the same path queues at the injection port.
        n.send(0, 0, 7, 8);
        assert!(n.link_metrics().inject_queue.max() > 0);
        // A freshly built network has sampled nothing.
        let m = net(8, true).link_metrics();
        assert_eq!(m.total_link_busy, 0);
        assert_eq!(m.inject_queue.count(), 0);
        assert_eq!(m.link_queue.count(), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn link_metrics_uncontended_still_counts_occupancy() {
        let mut n = net(8, false);
        n.send(0, 0, 7, 8);
        let m = n.link_metrics();
        assert_eq!(m.total_link_busy, 3 * 8);
        assert_eq!(m.inject_queue.count(), 0, "no reservations to sample");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn link_metrics_bus_is_one_link() {
        let mut n = Network::new(Topology::hypercube(8), NetworkConfig::bus());
        n.send(0, 0, 1, 8);
        n.broadcast(9, 3, 8);
        let m = n.link_metrics();
        assert_eq!(m.links, 1);
        // Each bus transaction occupies arbitration (1) + serialization (8).
        assert_eq!(m.total_link_busy, 2 * 9);
        assert_eq!(m.max_link_busy, m.total_link_busy);
        assert_eq!(m.link_queue.count(), 2);
    }

    /// Regression (bus/cube histogram consistency): the bus path never
    /// sampled `inject_queue`, so `LinkMetrics` was structurally different
    /// between fabrics. Both `send` and `broadcast` must record the
    /// arbitration wait under *both* histograms, with identical samples.
    #[cfg(feature = "trace")]
    #[test]
    fn bus_samples_inject_and_link_queues_consistently() {
        let mut n = Network::new(Topology::hypercube(8), NetworkConfig::bus());
        n.send(0, 0, 1, 8); // idle: wait 0
        n.send(0, 2, 3, 8); // queued behind the first: wait > 0
        n.broadcast(0, 4, 8); // queued behind both: wait > 0
        let m = n.link_metrics();
        assert_eq!(m.inject_queue.count(), 3);
        assert_eq!(m.link_queue.count(), 3);
        assert_eq!(m.inject_queue.sum(), m.link_queue.sum());
        assert_eq!(m.inject_queue.max(), m.link_queue.max());
        assert!(
            m.inject_queue.max() > 0,
            "queued transactions must sample their wait"
        );
        // The scalar split agrees: all bus wait is injection arbitration.
        assert_eq!(n.stats().inject_wait_cycles, m.inject_queue.sum());
        assert_eq!(n.stats().link_wait_cycles, 0);
    }

    /// The injection/link wait split partitions the historical aggregate:
    /// on the cube, back-to-back same-path sends wait at the injection
    /// port *and* (for distinct sources sharing a link) on the link, and
    /// the two buckets sum to what the old single counter measured.
    #[test]
    fn contention_split_partitions_the_aggregate() {
        let mut n = net(4, true);
        // Same source twice: injection wait.
        n.send(0, 0, 3, 8);
        n.send(0, 0, 3, 8);
        // Different source, shared second-hop link 1->3: link wait.
        n.send(0, 1, 3, 8);
        let s = n.stats();
        assert!(
            s.inject_wait_cycles > 0,
            "same-port sends must queue at injection"
        );
        assert!(
            s.link_wait_cycles > 0,
            "shared-link sends must queue on the link"
        );
        assert_eq!(
            s.contention_cycles(),
            s.inject_wait_cycles + s.link_wait_cycles
        );
    }

    fn vc_net(nodes: u32, vcs: u32, adaptive: bool) -> Network {
        Network::new(
            Topology::hypercube(nodes),
            NetworkConfig {
                vcs,
                adaptive,
                ..NetworkConfig::default()
            },
        )
    }

    #[test]
    fn vc_idle_send_equals_base_latency() {
        for adaptive in [false, true] {
            let mut n = vc_net(16, 3, adaptive);
            let mut now = 0;
            for (src, dst) in [(0u32, 15u32), (3, 9), (7, 7), (12, 1)] {
                for vc in 0..3 {
                    let t = n.send_vc(now, src, dst, 16, vc);
                    assert_eq!(
                        t,
                        now + n.base_latency(src, dst, 16),
                        "src={src} dst={dst} vc={vc} adaptive={adaptive}"
                    );
                    now += 1000; // outrun every reservation
                }
            }
        }
    }

    #[test]
    fn same_vc_serializes_other_vc_overtakes() {
        let mut n = vc_net(2, 3, false);
        // Saturate VC 0 on the single 0->1 link.
        let t1 = n.send_vc(0, 0, 1, 64, 0);
        let t2 = n.send_vc(0, 0, 1, 64, 0);
        assert!(
            t2 >= t1 + 64,
            "same channel must serialize: t1={t1} t2={t2}"
        );
        // A reply on VC 1 is not head-of-line blocked behind the request
        // backlog: it pays at most the arbitration + fair-share penalty,
        // far less than waiting out two 64-byte packets.
        let t3 = n.send_vc(0, 0, 1, 8, 1);
        assert!(
            t3 < t2,
            "reply channel must overtake the request backlog: t2={t2} t3={t3}"
        );
        // Compare with the single-channel model, where the same third
        // message waits behind both packets.
        let mut single = net(2, true);
        single.send(0, 0, 1, 64);
        single.send(0, 0, 1, 64);
        let t3_single = single.send(0, 0, 1, 8);
        assert!(
            t3 < t3_single,
            "VCs must beat single-channel HOL blocking: vc={t3} single={t3_single}"
        );
    }

    #[test]
    fn vc_arbitration_charges_busy_links_and_conserves_bandwidth() {
        let mut n = vc_net(2, 2, false);
        // VC 0 streams a long packet; a VC 1 packet granted mid-stream
        // pays one arbitration slot and displaces VC 0's horizon.
        let t0 = n.send_vc(0, 0, 1, 64, 0);
        let t1 = n.send_vc(0, 0, 1, 8, 1);
        assert!(
            t1 > n.base_latency(0, 1, 8),
            "sharing the wires is not free"
        );
        // VC 0's next packet sees its horizon pushed back by the
        // interleaved VC 1 flits: it arrives later than 64 cycles after t0.
        let t2 = n.send_vc(0, 0, 1, 64, 0);
        assert!(
            t2 > t0 + 64,
            "displaced channel must lose the shared bandwidth"
        );
        assert!(n.stats().vc_wait_cycles.iter().sum::<u64>() > 0);
    }

    #[test]
    fn adaptive_routes_around_congestion() {
        // Node 1 saturates its dimension-1 link 1->3. The e-cube route
        // 0 -> 7 is 0->1 (dim 0), 1->3 (dim 1), 3->7 (dim 2) and queues on
        // the hot transit link; the adaptive router reaches node 1, sees
        // the backlog, detours 1->5 (dim 2) then 5->7 (dim 1), and arrives
        // at the uncontended pipeline latency — still in 3 (minimal) hops.
        let mut ecube = vc_net(8, 2, false);
        let mut adapt = vc_net(8, 2, true);
        for net in [&mut ecube, &mut adapt] {
            for _ in 0..4 {
                net.send_vc(0, 1, 3, 64, 0);
            }
        }
        let t_ecube = ecube.send_vc(0, 0, 7, 8, 0);
        let t_adapt = adapt.send_vc(0, 0, 7, 8, 0);
        assert!(
            t_adapt < t_ecube,
            "adaptive must detour around the hot link: adapt={t_adapt} ecube={t_ecube}"
        );
        assert_eq!(
            t_adapt,
            adapt.base_latency(0, 7, 8),
            "the detour is free of contention and stays minimal"
        );
    }

    /// Adaptive routes are minimal and productive under load at the
    /// `scale_up` extension sizes: every send's hop count equals the
    /// Hamming distance (checked via the aggregate hop counter), and the
    /// walk always terminates.
    #[test]
    fn p512_adaptive_routes_stay_minimal_under_load() {
        let mut n = Network::new(
            Topology::hypercube(512),
            NetworkConfig {
                vcs: 3,
                adaptive: true,
                ..NetworkConfig::default()
            },
        );
        let mut expected_hops = 0u64;
        for i in 0..2000u32 {
            let src = (i * 37) % 512;
            let dst = (i * 97 + 13) % 512;
            if src == dst {
                continue;
            }
            let t = n.send_vc((i / 8) as Cycle, src, dst, 8, i % 3);
            expected_hops += (src ^ dst).count_ones() as u64;
            assert!(t >= (i / 8) as Cycle + n.base_latency(src, dst, 8));
        }
        assert_eq!(
            n.stats().total_hops,
            expected_hops,
            "adaptive must stay minimal"
        );
    }

    /// The default configuration never touches the VC state: a `vcs = 1`
    /// network with the VC entry points on channel 0 times a stream
    /// identically to the legacy `send` on a fresh network.
    #[test]
    fn single_channel_vc_entry_point_is_identity() {
        let mut legacy = net(8, true);
        let mut vc0 = net(8, true);
        for i in 0..40u32 {
            let a = legacy.send(i as Cycle, i % 8, (i * 3 + 1) % 8, 8 + i % 16);
            let b = vc0.send_vc(i as Cycle, i % 8, (i * 3 + 1) % 8, 8 + i % 16, 0);
            assert_eq!(a, b, "send {i}");
        }
        assert_eq!(
            legacy.stats().contention_cycles(),
            vc0.stats().contention_cycles()
        );
    }

    #[cfg(feature = "trace")]
    #[test]
    fn vc_queue_metrics_partition_the_samples() {
        let mut n = vc_net(2, 3, false);
        n.send_vc(0, 0, 1, 64, 0);
        n.send_vc(0, 0, 1, 64, 0);
        n.send_vc(0, 0, 1, 8, 1);
        let m = n.link_metrics();
        assert_eq!(m.vc_queue.len(), 3);
        // Every inject/link sample lands in exactly one VC bucket.
        let vc_samples: u64 = m.vc_queue.iter().map(|h| h.count()).sum();
        assert_eq!(vc_samples, m.inject_queue.count() + m.link_queue.count());
        assert!(
            m.vc_queue[0].max() > 0,
            "queued VC 0 sends must show backlog"
        );
        // A freshly built network has one empty histogram per channel.
        let fresh = vc_net(2, 3, false).link_metrics();
        assert_eq!(fresh.vc_queue.len(), 3);
        assert!(fresh.vc_queue.iter().all(|h| h.count() == 0));
    }

    /// Found in PR 22, recorded, not fixed there: `links` is
    /// `link_free.len()`, i.e. directed links × `vcs`, although its doc
    /// comment says "directed links in the fabric" (a 64-node 6-cube has
    /// 768, and `tests/golden/scale_up_p64_vc_credited.jsonl` says 2304).
    /// Correcting it moves two goldens and every VC `full` digest in
    /// `benchmark/expected.json`, so it is on ROADMAP's `[benchmark]`
    /// re-baseline list; this pins today's value so the fix flips one line.
    #[cfg(feature = "trace")]
    #[test]
    fn links_counts_channels_under_three_vcs() {
        let n = vc_net(64, 3, true);
        assert_eq!(n.topology().num_directed_links(), 768);
        assert_eq!(n.link_metrics().links, 768 * 3);
    }

    /// The parent's (PR 21) VC/adaptive cube send, kept verbatim as the
    /// oracle for the one-decomposition walk of `send_cube_vc`: every hop
    /// asks [`Topology::hop_toward`] about every dimension, and every
    /// backlog sample is written twice (the aggregate histogram and the
    /// channel's). Only the state the cube path touches is carried over.
    struct RefNetwork {
        topo: Topology,
        config: NetworkConfig,
        link_free: Vec<Cycle>,
        inject_free: Vec<Cycle>,
        stats: NetworkStats,
        link_busy: Vec<u64>,
        /// Running maximum and sum of `link_busy`, so the per-send comparison
        /// does not rescan 20 480 links at P = 1024.
        max_link_busy: u64,
        total_link_busy: u64,
        inject_queue: Histogram,
        link_queue: Histogram,
        vc_queue: Vec<Histogram>,
    }

    impl RefNetwork {
        fn new(topo: Topology, config: NetworkConfig) -> Self {
            let vcs = config.vc_count() as usize;
            Self {
                link_free: vec![0; topo.num_directed_links() as usize * vcs],
                inject_free: vec![0; topo.num_nodes() as usize * vcs],
                stats: NetworkStats {
                    vc_wait_cycles: if vcs > 1 { vec![0; vcs] } else { Vec::new() },
                    ..NetworkStats::default()
                },
                link_busy: vec![0; topo.num_directed_links() as usize],
                max_link_busy: 0,
                total_link_busy: 0,
                inject_queue: Histogram::new(),
                link_queue: Histogram::new(),
                vc_queue: if vcs > 1 {
                    vec![Histogram::new(); vcs]
                } else {
                    Vec::new()
                },
                topo,
                config,
            }
        }

        fn occupy(&mut self, link: LinkId, ser: Cycle) {
            self.link_busy[link as usize] += ser;
            self.max_link_busy = self.max_link_busy.max(self.link_busy[link as usize]);
            self.total_link_busy += ser;
        }

        fn send_vc(&mut self, now: Cycle, src: NodeId, dst: NodeId, bytes: u32, vc: u32) -> Cycle {
            self.stats.messages += 1;
            self.stats.bytes += bytes as u64;
            if src == dst {
                self.stats.latency.record(LOCAL_DELAY);
                return now + LOCAL_DELAY;
            }
            let ser = (bytes as u64 * 8)
                .div_ceil(self.config.link_width_bits as u64)
                .max(1);
            let arrival = self.send_cube_vc(now, src, dst, ser, vc);
            self.stats.latency.record(arrival - now);
            arrival
        }

        fn send_cube_vc(
            &mut self,
            now: Cycle,
            src: NodeId,
            dst: NodeId,
            ser: Cycle,
            vc: u32,
        ) -> Cycle {
            let vcs = self.config.vc_count() as usize;
            let vc = (vc as usize).min(vcs - 1);

            if !self.config.contention {
                let hops = self.topo.distance(src, dst) as u64;
                self.stats.total_hops += hops;
                let mut path = Vec::new();
                self.topo.route(src, dst, &mut path);
                for link in path {
                    self.occupy(link, ser);
                }
                return now + hops * SWITCH_DELAY + ser;
            }

            let pi = src as usize * vcs + vc;
            let inj_free = self.inject_free[pi];
            let depart = now.max(inj_free);
            self.stats.inject_wait_cycles += depart - now;
            if !self.stats.vc_wait_cycles.is_empty() {
                self.stats.vc_wait_cycles[vc] += depart - now;
            }
            self.inject_free[pi] = depart + ser;
            self.inject_queue.record(inj_free.saturating_sub(now));
            if let Some(h) = self.vc_queue.get_mut(vc) {
                h.record(inj_free.saturating_sub(now));
            }

            let mut head = depart;
            let mut cur = src;
            let mut hops = 0u64;
            while cur != dst {
                let mut chosen: Option<(LinkId, NodeId)> = None;
                if self.config.adaptive {
                    let mut best = Cycle::MAX;
                    for dim in 0..self.topo.dimensions() {
                        if let Some((link, next)) = self.topo.hop_toward(cur, dst, dim) {
                            let backlog =
                                self.link_free[link as usize * vcs + vc].saturating_sub(head);
                            if backlog < best {
                                best = backlog;
                                chosen = Some((link, next));
                            }
                        }
                    }
                } else {
                    for dim in 0..self.topo.dimensions() {
                        chosen = self.topo.hop_toward(cur, dst, dim);
                        if chosen.is_some() {
                            break;
                        }
                    }
                }
                let (link, next) = chosen.expect("no productive dimension for cur != dst");

                let base = link as usize * vcs;
                let own = self.link_free[base + vc];
                let mut enter = head.max(own);
                if vcs > 1 {
                    let shared = (0..vcs).any(|u| u != vc && self.link_free[base + u] > enter);
                    if shared {
                        enter += SWITCH_DELAY;
                        for u in 0..vcs {
                            if u != vc && self.link_free[base + u] > enter {
                                self.link_free[base + u] += ser;
                            }
                        }
                    }
                }
                self.stats.link_wait_cycles += enter - head;
                if !self.stats.vc_wait_cycles.is_empty() {
                    self.stats.vc_wait_cycles[vc] += enter - head;
                }
                self.link_free[base + vc] = enter + ser;
                self.link_queue.record(own.saturating_sub(head));
                if let Some(h) = self.vc_queue.get_mut(vc) {
                    h.record(own.saturating_sub(head));
                }
                self.occupy(link, ser);
                head = enter + SWITCH_DELAY;
                cur = next;
                hops += 1;
            }
            self.stats.total_hops += hops;
            head + ser
        }
    }

    /// Every field of a histogram (`min` as reported).
    fn parts(h: &Histogram) -> ([u64; 65], u64, u64, u64, u64) {
        (*h.buckets(), h.count(), h.sum(), h.min(), h.max())
    }

    /// Every field of `stats()` and (with `trace`) of `link_metrics()`.
    fn assert_same_state(real: &Network, reference: &RefNetwork, at: &dyn std::fmt::Debug) {
        let (a, b) = (real.stats(), &reference.stats);
        assert_eq!(a.messages, b.messages, "{at:?}");
        assert_eq!(a.bytes, b.bytes, "{at:?}");
        assert_eq!(a.total_hops, b.total_hops, "{at:?}");
        assert_eq!(parts(&a.latency), parts(&b.latency), "{at:?}");
        assert_eq!(a.inject_wait_cycles, b.inject_wait_cycles, "{at:?}");
        assert_eq!(a.link_wait_cycles, b.link_wait_cycles, "{at:?}");
        assert_eq!(a.vc_wait_cycles, b.vc_wait_cycles, "{at:?}");
        #[cfg(feature = "trace")]
        {
            let m = real.link_metrics();
            assert_eq!(m.links, reference.link_free.len() as u64, "{at:?}");
            assert_eq!(m.max_link_busy, reference.max_link_busy, "{at:?}");
            assert_eq!(m.total_link_busy, reference.total_link_busy, "{at:?}");
            assert_eq!(
                parts(&m.inject_queue),
                parts(&reference.inject_queue),
                "{at:?}"
            );
            assert_eq!(parts(&m.link_queue), parts(&reference.link_queue), "{at:?}");
            assert_eq!(m.vc_queue.len(), reference.vc_queue.len(), "{at:?}");
            for (x, y) in m.vc_queue.iter().zip(&reference.vc_queue) {
                assert_eq!(parts(x), parts(y), "{at:?}");
            }
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Traffic {
        /// Everyone sends to one node. The target's digits are `k − 1` in
        /// dimension 0 and `0` elsewhere, so sources at digit `0` wrap
        /// downward into it and sources at digit `k − 1` wrap upward.
        HotSpot,
        UniformRandom,
        /// `src → P − 1 − src`: every digit `d` goes to `k − 1 − d`.
        BitComplement,
    }

    /// Differential oracle for the hop walk: the real network and the
    /// reference are driven in lock step and must agree on the arrival
    /// cycle and on every statistic after every single send. The
    /// `vcs = 1`, non-adaptive cells run the real network's table-driven
    /// single-channel branch against the same reference. The shapes span
    /// the hypercube up to P = 1024, odd and even radices (an even one has
    /// a half-way tie, four hops each way in the 8-ary 2-cube) and rings.
    ///
    /// Shown by hand in PR 22 to fail on two mutations of `send_cube_vc`:
    /// the adaptive tie-break as `<=` (ties then go to the highest
    /// dimension), and the even-radix half-way tie sent minus
    /// (`up < down` for the direction bit).
    #[test]
    fn walk_matches_reference_derivation_in_lock_step() {
        let shapes: [(u32, u32); 10] = [
            (2, 1),
            (2, 3),
            (2, 6),
            (2, 10),
            (3, 3),
            (4, 2),
            (5, 2),
            (6, 2),
            (7, 1),
            (8, 2),
        ];
        for (k, n) in shapes {
            let topo = Topology::kary_ncube(k, n);
            let nodes = topo.num_nodes();
            let sends = if nodes > 64 { nodes + 100 } else { 600 };
            for adaptive in [false, true] {
                for vcs in 1..=3u32 {
                    for contention in [true, false] {
                        let config = NetworkConfig {
                            vcs,
                            adaptive,
                            contention,
                            ..NetworkConfig::default()
                        };
                        for traffic in [
                            Traffic::HotSpot,
                            Traffic::UniformRandom,
                            Traffic::BitComplement,
                        ] {
                            let cell = (k, n, adaptive, vcs, contention, traffic);
                            let mut real = Network::new(topo, config);
                            let mut reference = RefNetwork::new(topo, config);
                            let mut rng = SimRng::new(0x5eed ^ nodes as u64);
                            let mut now: Cycle = 0;
                            for i in 0..sends {
                                // Non-decreasing, a third of the time equal.
                                now += rng.gen_range(3);
                                let (src, dst) = match traffic {
                                    Traffic::HotSpot => (i % nodes, k - 1),
                                    Traffic::UniformRandom => (
                                        rng.gen_range(nodes as u64) as u32,
                                        rng.gen_range(nodes as u64) as u32,
                                    ),
                                    Traffic::BitComplement => (i % nodes, nodes - 1 - i % nodes),
                                };
                                let bytes = 1 + rng.gen_range(72) as u32;
                                let vc = rng.gen_range(3) as u32;
                                let at = (cell, i, now, src, dst, bytes, vc);
                                assert_eq!(
                                    real.send_vc(now, src, dst, bytes, vc),
                                    reference.send_vc(now, src, dst, bytes, vc),
                                    "{at:?}"
                                );
                                assert_same_state(&real, &reference, &at);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn serialization_rounds_up() {
        let n = net(2, false);
        assert_eq!(n.serialization_cycles(1), 1);
        assert_eq!(n.serialization_cycles(8), 8);
        let wide = Network::new(
            Topology::hypercube(2),
            NetworkConfig {
                link_width_bits: 64,
                ..Default::default()
            },
        );
        assert_eq!(wide.serialization_cycles(8), 1);
        assert_eq!(wide.serialization_cycles(9), 2);
    }

    /// Flit rounding against the paper's `⌈L·8/W⌉` model, including byte
    /// counts that are not a multiple of the link width: exact agreement
    /// for every `bytes > 0`, and a 1-cycle floor for the degenerate
    /// zero-byte message (a packet head still crosses the link).
    #[test]
    fn serialization_matches_closed_form_for_odd_sizes() {
        for width in [5u32, 8, 12, 16, 64] {
            let n = Network::new(
                Topology::hypercube(2),
                NetworkConfig {
                    link_width_bits: width,
                    ..Default::default()
                },
            );
            assert_eq!(n.serialization_cycles(0), 1, "zero-byte floor, W={width}");
            for bytes in 1..=128u32 {
                let bits = bytes as u64 * 8;
                let closed_form = bits.div_ceil(width as u64);
                assert_eq!(
                    n.serialization_cycles(bytes),
                    closed_form,
                    "bytes={bytes} W={width}"
                );
            }
        }
    }

    /// Closed-form property at P = 256 (n = 8 cube): a `send` on an idle
    /// network equals `base_latency = h·t_sw + ⌈L·8/W⌉` for **every**
    /// (src, dst) pair and a spread of odd and even byte counts — with
    /// contention modeling both off and on (sends spaced far enough apart
    /// that every reservation has expired, i.e. the network is idle).
    #[test]
    fn p256_idle_send_equals_base_latency_for_all_pairs() {
        let nodes = 256u32;
        for contention in [false, true] {
            let mut n = net(nodes, contention);
            let mut now: Cycle = 0;
            for src in 0..nodes {
                for dst in 0..nodes {
                    let bytes = 1 + (src.wrapping_mul(31) ^ dst.wrapping_mul(17)) % 13; // 1..=13, odd sizes included
                    let t = n.send(now, src, dst, bytes);
                    assert_eq!(
                        t,
                        now + n.base_latency(src, dst, bytes),
                        "src={src} dst={dst} bytes={bytes} contention={contention}"
                    );
                    // Outrun every reservation so the next send sees an
                    // idle network again.
                    now += 1000;
                }
            }
        }
    }
}
