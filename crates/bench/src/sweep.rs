//! Sweep specification and the structured run records it produces.
//!
//! A [`SweepSpec`] enumerates experiment configurations (protocol ×
//! workload × machine size × seed × network parameters). The runner
//! (`runner.rs`) executes each config's `Machine` simulation in-process
//! and produces one [`RunRecord`] per config — a flat, deterministic
//! snapshot of the outcome that serializes to one JSON line (hand-rolled;
//! the build environment has no serde). Records are written, never read
//! back.
//!
//! Determinism contract: a config's canonical [`SweepConfig::key`] fixes
//! every semantic input of the simulation. The per-config RNG salt is
//! *derived* from that key (`derived_seed`, via the simulator's FxHash),
//! never from worker/thread state, so records are bit-identical regardless
//! of how many jobs the runner uses.

use dirtree_core::adapt::detector::ADAPT_SATURATION;
use dirtree_core::dir::flat::SW_TRAP_CYCLES;
use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::config::{CACHE_LATENCY, SYNC_LATENCY};
use dirtree_machine::{MachineConfig, RunOutcome, TopologyKind};
use dirtree_net::wormhole::{LOCAL_DELAY, SWITCH_DELAY};
use dirtree_net::Fabric;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::metrics::{MetricsSnapshot, MsgClass};
use dirtree_sim::Histogram;
use dirtree_workloads::WorkloadKind;
use std::fmt::Write as _;
use std::hash::Hasher;

/// One experiment configuration: a workload on a protocol on a machine.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    pub machine: MachineConfig,
    pub protocol: ProtocolKind,
    pub workload: WorkloadKind,
    /// Sweep-level replication index. 0 reproduces the published inputs;
    /// non-zero values perturb RNG-consuming workloads via a salt hashed
    /// from the config key (see [`WorkloadKind::with_seed`]).
    pub seed: u64,
}

impl SweepConfig {
    pub fn new(machine: MachineConfig, protocol: ProtocolKind, workload: WorkloadKind) -> Self {
        Self {
            machine,
            protocol,
            workload,
            seed: 0,
        }
    }

    /// Canonical single-line key spelling out every semantic field of the
    /// configuration. This is the record's identity: two configs with
    /// equal keys must simulate identically. The constants `cl`, `sw`,
    /// `loc`, `trap`, `sync` and `sat` are printed too: every committed
    /// record's key, config hash and derived seed includes them. For the
    /// same reason `cache` keeps its `lines/associativity` form, which for
    /// the fully associative cache is `lines/lines`.
    pub fn key(&self) -> String {
        let m = &self.machine;
        let net = &m.net;
        let fabric = match net.fabric {
            Fabric::KaryNcube => "cube",
            Fabric::Bus => "bus",
        };
        let topo = match m.topology {
            TopologyKind::Hypercube => "hypercube".to_string(),
            TopologyKind::KaryNcube { radix } => format!("kary{radix}"),
        };
        let mut key = String::with_capacity(192);
        let _ = write!(
            key,
            "v1|proto={}|wl={}|nodes={}|cache={}/{}|blk={}|hdr={}|mem={}|cl={}|\
             net={fabric}{{sw={},w={},cont={},loc={}}}|topo={topo}|\
             pp={{trap={},pair={},silent={}}}|sync={}|seed={}",
            self.protocol.name(),
            workload_key(&self.workload),
            m.nodes,
            m.cache.lines,
            m.cache.lines,
            m.block_bytes,
            m.header_bytes,
            m.mem_latency,
            CACHE_LATENCY,
            SWITCH_DELAY,
            net.link_width_bits,
            net.contention as u8,
            LOCAL_DELAY,
            SW_TRAP_CYCLES,
            m.protocol.dir_tree_pairing as u8,
            m.protocol.dir_tree_silent_replace as u8,
            SYNC_LATENCY,
            self.seed,
        );
        // Virtual-channel parameters extend the key only when non-default,
        // so every pre-VC record and golden file keeps its identity.
        if net.vc_nondefault() {
            let _ = write!(
                key,
                "|vc={{n={},ad={},cr={}}}",
                net.vc_count(),
                net.adaptive as u8,
                net.vc_credits,
            );
        }
        // Same idiom for the adaptive-protocol thresholds: the segment
        // appears only when they differ from the defaults.
        if m.protocol.adapt_nondefault() {
            let _ = write!(
                key,
                "|ap={{up={},down={},sat={}}}",
                m.protocol.adapt_flip_up, m.protocol.adapt_flip_down, ADAPT_SATURATION,
            );
        }
        key
    }

    /// Content hash of the canonical key (FxHash, `crates/sim/src/hash.rs`).
    pub fn config_hash(&self) -> u64 {
        hash_str(&self.key())
    }

    /// The workload RNG salt for this config: 0 for seed 0 (published
    /// inputs), otherwise hashed from the full config key so it depends
    /// only on the config — never on worker scheduling.
    pub fn derived_seed(&self) -> u64 {
        if self.seed == 0 {
            0
        } else {
            self.config_hash()
        }
    }

    /// The workload actually simulated (seed salt applied).
    pub fn effective_workload(&self) -> WorkloadKind {
        self.workload.with_seed(self.derived_seed())
    }
}

/// Canonical workload key including *all* parameters (unlike
/// `WorkloadKind::name`, which elides seeds for display).
pub fn workload_key(w: &WorkloadKind) -> String {
    match *w {
        WorkloadKind::Mp3d { particles, steps } => format!("mp3d{{p={particles},s={steps}}}"),
        WorkloadKind::Lu { n } => format!("lu{{n={n}}}"),
        WorkloadKind::Floyd { vertices, seed } => format!("floyd{{v={vertices},seed={seed}}}"),
        WorkloadKind::Fft { points } => format!("fft{{n={points}}}"),
        WorkloadKind::Storm { words, passes } => format!("storm{{w={words},p={passes}}}"),
        WorkloadKind::PcPipeline { buffers, rounds } => {
            format!("pcpipe{{b={buffers},r={rounds}}}")
        }
        WorkloadKind::TokenRing { tokens, laps } => format!("tokenring{{t={tokens},l={laps}}}"),
        WorkloadKind::Broadcast {
            blocks,
            rounds,
            scans,
        } => format!("broadcast{{b={blocks},r={rounds},s={scans}}}"),
        WorkloadKind::FalseShare { blocks, rounds } => {
            format!("falseshare{{b={blocks},r={rounds}}}")
        }
    }
}

/// FxHash of a string.
pub fn hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// A named collection of configs to run.
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    /// Used for the JSONL output filename under the sweep directory.
    pub name: String,
    pub configs: Vec<SweepConfig>,
}

impl SweepSpec {
    /// Every (protocol, node count) pair for one workload, node count
    /// major.
    pub fn grid(
        name: impl Into<String>,
        workload: WorkloadKind,
        node_counts: &[u32],
        protocols: &[ProtocolKind],
        configure: impl Fn(u32) -> MachineConfig,
    ) -> Self {
        let mut configs = Vec::with_capacity(node_counts.len() * protocols.len());
        for &nodes in node_counts {
            for &protocol in protocols {
                configs.push(SweepConfig::new(configure(nodes), protocol, workload));
            }
        }
        Self {
            name: name.into(),
            configs,
        }
    }
}

/// When a scalar counter appears in the serialized record.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Always written.
    Always,
    /// Written only when non-zero (the adaptive-protocol counters, zero
    /// for static protocols), so every pre-adaptive record and golden
    /// file keeps its exact bytes.
    NonZero,
    /// Written only on multi-channel runs (`net_vcs > 1`), keeping legacy
    /// single-channel records byte-stable.
    VcOnly,
}

/// One row of the scalar field list: everything `from_outcome` and
/// `to_json` need to know about a `u64` counter of [`RunRecord`].
struct Scalar {
    name: &'static str,
    presence: Presence,
    get: fn(&RunRecord) -> u64,
    set: fn(&mut RunRecord, u64),
    fill: fn(&RunOutcome) -> u64,
}

/// Where a counter comes from: `MachineStats` under the same name unless
/// the field list says otherwise.
macro_rules! scalar_source {
    ($name:ident) => {
        |o| o.stats.$name
    };
    ($name:ident, $src:expr) => {
        $src
    };
}

/// Declares [`RunRecord`] and its scalar field list from one table, in
/// serialization order: `name: Presence [= |outcome| source],`. Adding a
/// counter is one line here; the struct field, the snapshot from
/// `RunOutcome` and the writer all follow from it.
macro_rules! run_record {
    ($($(#[$doc:meta])* $name:ident: $presence:ident $(= $src:expr)?,)*) => {
        /// The deterministic, serializable outcome of one config's simulation.
        #[derive(Clone, Debug, Default)]
        pub struct RunRecord {
            pub key: String,
            pub config_hash: u64,
            pub protocol: String,
            pub workload: String,
            pub nodes: u32,
            pub seed: u64,
            $($(#[$doc])* pub $name: u64,)*
            /// Virtual channels simulated (1 = the classic single-channel
            /// model; the `VcOnly` fields serialize only when this exceeds 1).
            pub net_vcs: u32,
            /// Per-virtual-channel share of the network wait (empty when
            /// single-channel).
            pub net_vc_wait_cycles: Vec<u64>,
            pub read_miss_latency: Histogram,
            pub write_miss_latency: Histogram,
            pub sharers_at_write: Histogram,
            /// Observability export: per-class message counts, transaction
            /// latency, wave geometry, link utilization (all-zero when the
            /// machine was built without the `trace` feature; this crate
            /// enables it).
            pub metrics: MetricsSnapshot,
        }

        const SCALARS: &[Scalar] = &[$(Scalar {
            name: stringify!($name),
            presence: Presence::$presence,
            get: |r| r.$name,
            set: |r, v| r.$name = v,
            fill: scalar_source!($name $(, $src)?),
        },)*];
    };
}

run_record! {
    cycles: Always = |o| o.cycles,
    reads: Always,
    writes: Always,
    read_hits: Always,
    write_hits: Always,
    read_misses: Always,
    write_misses: Always,
    messages: Always,
    fill_acks: Always,
    bytes: Always,
    invalidations: Always,
    replacement_invalidations: Always,
    software_traps: Always,
    broadcasts: Always,
    tree_merges: Always,
    tree_push_downs: Always,
    evictions: Always,
    barriers: Always,
    lock_acquires: Always,
    max_controller_busy: Always,
    /// Simulation events delivered (throughput denominator for the
    /// hot-path benchmarks; deterministic).
    events: Always,
    /// Event-queue high-water mark (deterministic schedule property).
    peak_queue_depth: Always,
    pattern_producer_consumer: NonZero,
    pattern_read_mostly: NonZero,
    pattern_migratory: NonZero,
    pattern_write_shared: NonZero,
    pattern_private: NonZero,
    mode_flips_to_update: NonZero,
    mode_flips_to_invalidate: NonZero,
    net_messages: Always = |o| o.net.messages,
    net_bytes: Always = |o| o.net.bytes,
    net_hops: Always = |o| o.net.total_hops,
    /// Cycles spent waiting for the injection port (plus all bus
    /// arbitration, which has no per-hop links to attribute to).
    net_inject_wait_cycles: VcOnly = |o| o.net.inject_wait_cycles,
    /// Cycles spent waiting for transit links along routes.
    net_link_wait_cycles: VcOnly = |o| o.net.link_wait_cycles,
}

impl RunRecord {
    /// Snapshot a machine run into a record.
    pub fn from_outcome(config: &SweepConfig, outcome: &RunOutcome) -> Self {
        let mut record = Self {
            key: config.key(),
            config_hash: config.config_hash(),
            protocol: config.protocol.name(),
            workload: config.workload.name(),
            nodes: config.machine.nodes,
            seed: config.seed,
            net_vcs: config.machine.net.vc_count(),
            net_vc_wait_cycles: outcome.net.vc_wait_cycles.clone(),
            read_miss_latency: outcome.stats.read_miss_latency.clone(),
            write_miss_latency: outcome.stats.write_miss_latency.clone(),
            sharers_at_write: outcome.stats.sharers_at_write.clone(),
            metrics: outcome.metrics.clone(),
            ..Self::default()
        };
        for f in SCALARS {
            (f.set)(&mut record, (f.fill)(outcome));
        }
        record
    }

    /// Critical-path messages (fill acknowledgements excluded, as in the
    /// paper's Table 1).
    pub fn critical_messages(&self) -> u64 {
        self.messages - self.fill_acks
    }

    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Aggregate network wait (the pre-split `net_contention_cycles`
    /// scalar; still serialized under that name for record compatibility).
    pub fn net_contention_cycles(&self) -> u64 {
        self.net_inject_wait_cycles + self.net_link_wait_cycles
    }

    /// Serialize to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(640);
        out.push('{');
        json_str(&mut out, "key", &self.key);
        json_u64(&mut out, "config_hash", self.config_hash);
        json_str(&mut out, "protocol", &self.protocol);
        json_str(&mut out, "workload", &self.workload);
        json_u64(&mut out, "nodes", self.nodes as u64);
        json_u64(&mut out, "seed", self.seed);
        for f in SCALARS {
            let v = (f.get)(self);
            let present = match f.presence {
                Presence::Always => true,
                Presence::NonZero => v > 0,
                Presence::VcOnly => false, // written in the VC block below
            };
            if present {
                json_u64(&mut out, f.name, v);
            }
        }
        json_u64(
            &mut out,
            "net_contention_cycles",
            self.net_contention_cycles(),
        );
        if self.net_vcs > 1 {
            json_u64(&mut out, "net_vcs", self.net_vcs as u64);
            for f in SCALARS.iter().filter(|f| f.presence == Presence::VcOnly) {
                json_u64(&mut out, f.name, (f.get)(self));
            }
            out.push_str("\"net_vc_wait_cycles\":[");
            for (i, w) in self.net_vc_wait_cycles.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{w}");
            }
            out.push_str("],");
        }
        json_hist(&mut out, "read_miss_latency", &self.read_miss_latency);
        json_hist(&mut out, "write_miss_latency", &self.write_miss_latency);
        json_hist(&mut out, "sharers_at_write", &self.sharers_at_write);
        json_metrics(&mut out, "metrics", &self.metrics);
        // Remove the trailing comma the field helpers append.
        out.pop();
        out.push('}');
        out
    }
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_str(out: &mut String, name: &str, value: &str) {
    let _ = write!(out, "\"{name}\":\"");
    json_escape(out, value);
    out.push_str("\",");
}

fn json_u64(out: &mut String, name: &str, value: u64) {
    let _ = write!(out, "\"{name}\":{value},");
}

/// Histograms serialize as exact moments plus the sparse non-zero log₂
/// buckets: `{"count":..,"sum":..,"min":..,"max":..,"buckets":[[b,n],..]}`.
fn json_hist(out: &mut String, name: &str, h: &Histogram) {
    let _ = write!(out, "\"{name}\":");
    json_hist_value(out, h);
    out.push(',');
}

/// The histogram object alone (for array elements).
fn json_hist_value(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    let mut first = true;
    for (b, &n) in h.buckets().iter().enumerate() {
        if n > 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "[{b},{n}]");
            first = false;
        }
    }
    out.push_str("]}");
}

/// The metrics snapshot serializes as a nested object (see EXPERIMENTS.md
/// for the schema): sparse per-class entries `["label",count,bytes,to_dir]`
/// in enum order, four histograms, link-utilization scalars, queue-depth
/// histograms, and the busiest blocks as `[addr,messages]` pairs. All
/// values are integers, so the encoding is exact and byte-stable.
fn json_metrics(out: &mut String, name: &str, m: &MetricsSnapshot) {
    let _ = write!(out, "\"{name}\":{{\"classes\":[");
    let mut first = true;
    for class in MsgClass::ALL {
        let c = m.class(class);
        if c.count > 0 {
            if !first {
                out.push(',');
            }
            let _ = write!(
                out,
                "[\"{}\",{},{},{}]",
                class.label(),
                c.count,
                c.bytes,
                c.to_dir
            );
            first = false;
        }
    }
    out.push_str("],");
    json_hist(out, "read_tx_latency", &m.read_tx_latency);
    json_hist(out, "write_tx_latency", &m.write_tx_latency);
    json_hist(out, "inv_wave_depth", &m.inv_wave_depth);
    json_hist(out, "inv_wave_acks", &m.inv_wave_acks);
    json_u64(out, "links", m.links);
    json_u64(out, "max_link_busy", m.max_link_busy);
    json_u64(out, "total_link_busy", m.total_link_busy);
    json_hist(out, "inject_queue", &m.inject_queue);
    json_hist(out, "link_queue", &m.link_queue);
    // Per-VC queue-depth histograms exist only on multi-channel runs;
    // omitting the field keeps single-channel records byte-stable.
    if !m.vc_queue.is_empty() {
        out.push_str("\"vc_queue\":[");
        for (i, h) in m.vc_queue.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_hist_value(out, h);
        }
        out.push_str("],");
    }
    out.push_str("\"top_blocks\":[");
    for (i, (addr, msgs)) in m.top_blocks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{addr},{msgs}]");
    }
    out.push_str("]},");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> SweepConfig {
        SweepConfig::new(
            MachineConfig::paper_default(8),
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            WorkloadKind::Floyd {
                vertices: 8,
                seed: 1996,
            },
        )
    }

    #[test]
    fn key_is_canonical_and_hash_is_stable() {
        let a = sample_config();
        let b = sample_config();
        assert_eq!(a.key(), b.key());
        assert_eq!(a.config_hash(), b.config_hash());
        let mut c = sample_config();
        c.machine.mem_latency = 6;
        assert_ne!(a.key(), c.key());
        assert_ne!(a.config_hash(), c.config_hash());
    }

    /// Every settable input of a simulation is in the key: a field left out
    /// would let two configs that simulate differently share one record
    /// identity, config hash and derived seed. `verify` and `max_events`
    /// are left out on purpose: they check or bound a run but never change
    /// its timing.
    #[test]
    fn key_names_every_semantic_field() {
        use dirtree_core::cache::CacheConfig;
        use dirtree_core::protocol::ProtocolParams;
        use dirtree_net::NetworkConfig;
        let base = sample_config();
        assert_eq!(
            base.key(),
            "v1|proto=Dir4Tree2|wl=floyd{v=8,seed=1996}|nodes=8|cache=2048/2048|blk=8|hdr=8|\
             mem=5|cl=1|net=cube{sw=1,w=8,cont=1,loc=1}|topo=hypercube|\
             pp={trap=40,pair=1,silent=1}|sync=4|seed=0"
        );
        // Exhaustive patterns: a new config field fails to compile here
        // until it is given a line below (or a reason to be left out).
        let MachineConfig {
            nodes: _,
            cache: CacheConfig { lines: _ },
            block_bytes: _,
            header_bytes: _,
            mem_latency: _,
            net:
                NetworkConfig {
                    fabric: _,
                    link_width_bits: _,
                    contention: _,
                    vcs: _,
                    adaptive: _,
                    vc_credits: _,
                },
            topology: _,
            protocol:
                ProtocolParams {
                    dir_tree_pairing: _,
                    dir_tree_silent_replace: _,
                    adapt_flip_up: _,
                    adapt_flip_down: _,
                },
            verify: _,
            max_events: _,
        } = base.machine;
        type Change = (&'static str, fn(&mut SweepConfig));
        let changes: [Change; 20] = [
            ("nodes", |c| c.machine.nodes = 16),
            ("cache.lines", |c| c.machine.cache.lines = 1024),
            ("block_bytes", |c| c.machine.block_bytes = 16),
            ("header_bytes", |c| c.machine.header_bytes = 4),
            ("mem_latency", |c| c.machine.mem_latency = 6),
            ("net.fabric", |c| c.machine.net.fabric = Fabric::Bus),
            ("net.link_width_bits", |c| {
                c.machine.net.link_width_bits = 16
            }),
            ("net.contention", |c| c.machine.net.contention = false),
            ("net.vcs", |c| c.machine.net.vcs = 3),
            ("net.adaptive", |c| c.machine.net.adaptive = true),
            ("net.vc_credits", |c| c.machine.net.vc_credits = 8),
            ("topology", |c| {
                c.machine.topology = TopologyKind::KaryNcube { radix: 8 }
            }),
            ("topology radix", |c| {
                c.machine.topology = TopologyKind::KaryNcube { radix: 2 }
            }),
            ("protocol.dir_tree_pairing", |c| {
                c.machine.protocol.dir_tree_pairing = false
            }),
            ("protocol.dir_tree_silent_replace", |c| {
                c.machine.protocol.dir_tree_silent_replace = false
            }),
            ("protocol.adapt_flip_up", |c| {
                c.machine.protocol.adapt_flip_up = 3
            }),
            ("protocol.adapt_flip_down", |c| {
                c.machine.protocol.adapt_flip_down = -3
            }),
            ("seed", |c| c.seed = 1),
            ("protocol kind", |c| c.protocol = ProtocolKind::FullMap),
            ("workload", |c| {
                c.workload = WorkloadKind::Floyd {
                    vertices: 16,
                    seed: 1996,
                }
            }),
        ];
        // Each change gives a key no other config here has, so a field
        // printed under another field's name would show too.
        let mut seen = std::collections::HashSet::from([base.key()]);
        for (field, change) in changes {
            let mut c = sample_config();
            change(&mut c);
            assert!(seen.insert(c.key()), "{field} does not change the key");
        }
        let mut unkeyed = sample_config();
        unkeyed.machine.verify = !unkeyed.machine.verify;
        unkeyed.machine.max_events = 1;
        assert_eq!(unkeyed.key(), base.key());
    }

    #[test]
    fn seed_zero_is_identity_nonzero_salts_floyd() {
        let base = sample_config();
        assert_eq!(base.effective_workload(), base.workload);
        let mut salted = sample_config();
        salted.seed = 3;
        assert_ne!(salted.effective_workload(), salted.workload);
        // And the salt only depends on the config, so it's reproducible.
        let mut again = sample_config();
        again.seed = 3;
        assert_eq!(salted.effective_workload(), again.effective_workload());
    }

    #[test]
    fn record_serializes_its_metrics_block() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = machine.run(&mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        assert!(line.starts_with(&format!("{{\"key\":\"{}\",", record.key)));
        assert!(line.contains(&format!("\"cycles\":{},", record.cycles)));
        // This crate builds the machine with the `trace` feature, so the
        // record's metrics are populated and agree with the message total.
        assert!(record.metrics.total_messages() > 0);
        assert_eq!(record.metrics.total_messages(), record.messages);
        assert!(line.contains("\"metrics\":{\"classes\":["));
        assert!(line.ends_with("]}}"), "top_blocks closes the record");
    }

    #[test]
    fn vc_key_segment_appears_only_when_nondefault() {
        let base = sample_config();
        assert!(!base.key().contains("|vc="));
        let mut explicit = sample_config();
        explicit.machine.net.vcs = 1; // == default
        assert_eq!(base.key(), explicit.key());
        let mut vc = sample_config();
        vc.machine.net.vcs = 3;
        vc.machine.net.adaptive = true;
        assert!(vc.key().ends_with("|vc={n=3,ad=1,cr=0}"), "{}", vc.key());
        assert_ne!(base.config_hash(), vc.config_hash());
    }

    #[test]
    fn vc_record_writes_split_wait_and_per_vc_metrics() {
        use dirtree_machine::Machine;
        let mut config = sample_config();
        config.machine.net.vcs = 3;
        config.machine.net.adaptive = true;
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = machine.run(&mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        assert_eq!(record.net_vcs, 3);
        assert_eq!(record.net_vc_wait_cycles.len(), 3);
        assert_eq!(
            record.net_vc_wait_cycles.iter().sum::<u64>(),
            record.net_contention_cycles(),
            "per-VC waits must partition the aggregate"
        );
        let line = record.to_json();
        assert!(line.contains("\"net_vcs\":3"));
        assert!(line.contains(&format!(
            "\"net_inject_wait_cycles\":{},\"net_link_wait_cycles\":{},",
            record.net_inject_wait_cycles, record.net_link_wait_cycles
        )));
        assert_eq!(record.metrics.vc_queue.len(), 3);
        assert!(line.contains("\"vc_queue\":["));
    }

    #[test]
    fn single_channel_records_keep_the_legacy_shape() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = machine.run(&mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        // Single-channel records keep the exact legacy shape: the
        // aggregate scalar, no VC fields.
        assert!(line.contains(&format!(
            "\"net_contention_cycles\":{},",
            record.net_contention_cycles()
        )));
        assert!(!line.contains("net_vcs"));
        assert!(!line.contains("wait_cycles\":"), "no split wait fields");
        assert!(!line.contains("vc_queue"));
    }

    #[test]
    fn json_str_escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::new();
        json_str(&mut out, "a", "x\"y\\z\nw");
        assert_eq!(out, r#""a":"x\"y\\z\nw","#);
    }

    #[test]
    fn grid_spec_enumerates_cells_in_order() {
        let spec = SweepSpec::grid(
            "demo",
            WorkloadKind::Lu { n: 8 },
            &[4, 8],
            &[ProtocolKind::FullMap, ProtocolKind::Sci],
            MachineConfig::paper_default,
        );
        assert_eq!(spec.configs.len(), 4);
        assert_eq!(spec.configs[0].machine.nodes, 4);
        assert_eq!(spec.configs[3].protocol, ProtocolKind::Sci);
    }
}
