//! Sweep specification and the structured run records it produces.
//!
//! A [`SweepSpec`] enumerates experiment configurations (protocol ×
//! workload × machine size × seed × network parameters). The runner
//! (`runner.rs`) executes each config's `Machine` simulation in-process
//! and produces one [`RunRecord`] per config — a flat, deterministic
//! snapshot of the outcome that serializes to one JSON line (hand-rolled;
//! the build environment has no serde) and round-trips through the
//! on-disk result cache.
//!
//! Determinism contract: a config's canonical [`SweepConfig::key`] fixes
//! every semantic input of the simulation. The per-config RNG salt is
//! *derived* from that key (`derived_seed`, via the simulator's FxHash),
//! never from worker/thread state, so records are bit-identical regardless
//! of how many jobs the runner uses.

use dirtree_core::protocol::ProtocolKind;
use dirtree_machine::{MachineConfig, RunOutcome, TopologyKind};
use dirtree_net::Fabric;
use dirtree_sim::hash::FxHasher;
use dirtree_sim::metrics::{ClassCounts, MetricsSnapshot, MsgClass};
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
    /// configuration. This is the cache identity: two configs with equal
    /// keys must simulate identically.
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
            m.cache.associativity,
            m.block_bytes,
            m.header_bytes,
            m.mem_latency,
            m.cache_latency,
            net.switch_delay,
            net.link_width_bits,
            net.contention as u8,
            net.local_delay,
            m.protocol.sw_trap_cycles,
            m.protocol.dir_tree_pairing as u8,
            m.protocol.dir_tree_silent_replace as u8,
            m.sync_latency,
            self.seed,
        );
        // Virtual-channel parameters extend the key only when non-default,
        // so every pre-VC cache entry and golden file keeps its identity.
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
                m.protocol.adapt_flip_up, m.protocol.adapt_flip_down, m.protocol.adapt_saturation,
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
        WorkloadKind::LuBlocked { n, block } => format!("lub{{n={n},b={block}}}"),
        WorkloadKind::Floyd { vertices, seed } => format!("floyd{{v={vertices},seed={seed}}}"),
        WorkloadKind::Fft { points } => format!("fft{{n={points}}}"),
        WorkloadKind::Jacobi { grid, sweeps } => format!("jacobi{{g={grid},s={sweeps}}}"),
        WorkloadKind::Sharing { blocks, rounds } => format!("sharing{{b={blocks},r={rounds}}}"),
        WorkloadKind::Migratory { blocks, rounds } => format!("migratory{{b={blocks},r={rounds}}}"),
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
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            configs: Vec::new(),
        }
    }

    pub fn push(&mut self, config: SweepConfig) {
        self.configs.push(config);
    }

    /// Grid helper: every (protocol, node count) pair for one workload.
    pub fn grid(
        name: impl Into<String>,
        workload: WorkloadKind,
        node_counts: &[u32],
        protocols: &[ProtocolKind],
        configure: impl Fn(u32) -> MachineConfig,
    ) -> Self {
        let mut spec = Self::new(name);
        for &nodes in node_counts {
            for &protocol in protocols {
                spec.push(SweepConfig::new(configure(nodes), protocol, workload));
            }
        }
        spec
    }
}

/// When a scalar counter appears in the serialized record.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Presence {
    /// Always written; a record without it does not parse.
    Always,
    /// Written only when non-zero (the adaptive-protocol counters, zero
    /// for static protocols), so every pre-adaptive record and golden
    /// file keeps its exact bytes. Absent parses as 0.
    NonZero,
    /// Written only on multi-channel runs (`net_vcs > 1`), keeping legacy
    /// single-channel records byte-stable.
    VcOnly,
}

/// One row of the scalar field list: everything `from_outcome`, `to_json`
/// and `from_json` need to know about a `u64` counter of [`RunRecord`].
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
/// `RunOutcome`, the writer and the parser all follow from it.
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

    /// Parse a record previously produced by [`Self::to_json`].
    pub fn from_json(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        let obj = v.as_object().ok_or("record is not a JSON object")?;
        let get = |name: &str| -> Result<&json::Value, String> {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {name}"))
        };
        let get_u64 = |name: &str| -> Result<u64, String> {
            get(name)?
                .as_u64()
                .ok_or_else(|| format!("field {name} is not a u64"))
        };
        let opt_u64 = |name: &str| -> Option<u64> { get(name).ok().and_then(json::Value::as_u64) };
        let to_u32 = |name: &str, v: u64| -> Result<u32, String> {
            u32::try_from(v).map_err(|_| format!("field {name} = {v} does not fit a u32"))
        };
        let get_str = |name: &str| -> Result<String, String> {
            Ok(get(name)?
                .as_str()
                .ok_or_else(|| format!("field {name} is not a string"))?
                .to_string())
        };
        let get_hist = |name: &str| -> Result<Histogram, String> { parse_hist(get(name)?) };
        let mut record = Self {
            key: get_str("key")?,
            config_hash: get_u64("config_hash")?,
            protocol: get_str("protocol")?,
            workload: get_str("workload")?,
            nodes: to_u32("nodes", get_u64("nodes")?)?,
            seed: get_u64("seed")?,
            net_vcs: to_u32("net_vcs", opt_u64("net_vcs").unwrap_or(1))?,
            net_vc_wait_cycles: match get("net_vc_wait_cycles") {
                Ok(v) => v
                    .as_array()
                    .ok_or("net_vc_wait_cycles is not an array")?
                    .iter()
                    .map(|w| w.as_u64().ok_or("net_vc_wait_cycles entry is not a u64"))
                    .collect::<Result<_, _>>()?,
                Err(_) => Vec::new(),
            },
            read_miss_latency: get_hist("read_miss_latency")?,
            write_miss_latency: get_hist("write_miss_latency")?,
            sharers_at_write: get_hist("sharers_at_write")?,
            metrics: parse_metrics(get("metrics")?)?,
            ..Self::default()
        };
        for f in SCALARS {
            let v = match f.presence {
                Presence::Always => get_u64(f.name)?,
                Presence::NonZero | Presence::VcOnly => opt_u64(f.name).unwrap_or(0),
            };
            (f.set)(&mut record, v);
        }
        // VC fields are absent from legacy (single-channel) records: the
        // split is unrecoverable there, so the whole aggregate is
        // attributed to injection and the serialized sum round-trips.
        let contention = get_u64("net_contention_cycles")?;
        if opt_u64("net_inject_wait_cycles").is_none() {
            record.net_inject_wait_cycles = contention;
        }
        Ok(record)
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

fn parse_metrics(v: &json::Value) -> Result<MetricsSnapshot, String> {
    let obj = v.as_object().ok_or("metrics is not an object")?;
    let get = |name: &str| -> Result<&json::Value, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("metrics field {name} missing"))
    };
    let mut m = MetricsSnapshot::default();
    for entry in get("classes")?
        .as_array()
        .ok_or("classes is not an array")?
    {
        let e = entry.as_array().ok_or("class entry is not an array")?;
        let label = e
            .first()
            .and_then(json::Value::as_str)
            .ok_or("class entry has no label")?;
        let class = MsgClass::from_label(label)
            .ok_or_else(|| format!("unknown message class {label:?}"))?;
        let num = |i: usize| -> Result<u64, String> {
            e.get(i)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("class {label} entry [{i}] is not a u64"))
        };
        m.classes[class.index()] = ClassCounts {
            count: num(1)?,
            bytes: num(2)?,
            to_dir: num(3)?,
        };
    }
    m.read_tx_latency = parse_hist(get("read_tx_latency")?)?;
    m.write_tx_latency = parse_hist(get("write_tx_latency")?)?;
    m.inv_wave_depth = parse_hist(get("inv_wave_depth")?)?;
    m.inv_wave_acks = parse_hist(get("inv_wave_acks")?)?;
    let scalar = |name: &str| -> Result<u64, String> {
        get(name)?
            .as_u64()
            .ok_or_else(|| format!("metrics field {name} is not a u64"))
    };
    m.links = scalar("links")?;
    m.max_link_busy = scalar("max_link_busy")?;
    m.total_link_busy = scalar("total_link_busy")?;
    m.inject_queue = parse_hist(get("inject_queue")?)?;
    m.link_queue = parse_hist(get("link_queue")?)?;
    if let Ok(v) = get("vc_queue") {
        for h in v.as_array().ok_or("vc_queue is not an array")? {
            m.vc_queue.push(parse_hist(h)?);
        }
    }
    for pair in get("top_blocks")?
        .as_array()
        .ok_or("top_blocks is not an array")?
    {
        let pair = pair.as_array().ok_or("top_blocks entry is not an array")?;
        match (
            pair.first().and_then(json::Value::as_u64),
            pair.get(1).and_then(json::Value::as_u64),
        ) {
            (Some(addr), Some(msgs)) => m.top_blocks.push((addr, msgs)),
            _ => return Err("top_blocks entry is not [addr, messages]".into()),
        }
    }
    Ok(m)
}

fn parse_hist(v: &json::Value) -> Result<Histogram, String> {
    let obj = v.as_object().ok_or("histogram is not an object")?;
    let field = |name: &str| -> Result<u64, String> {
        obj.iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("histogram field {name} missing or not a u64"))
    };
    let mut buckets = [0u64; 65];
    let pairs = obj
        .iter()
        .find(|(k, _)| k == "buckets")
        .and_then(|(_, v)| v.as_array())
        .ok_or("histogram buckets missing")?;
    for pair in pairs {
        let pair = pair.as_array().ok_or("bucket entry is not an array")?;
        let (b, n) = match (
            pair.first().and_then(json::Value::as_u64),
            pair.get(1).and_then(json::Value::as_u64),
        ) {
            (Some(b), Some(n)) => (b as usize, n),
            _ => return Err("bucket entry is not [index, count]".into()),
        };
        if b >= 65 {
            return Err(format!("bucket index {b} out of range"));
        }
        buckets[b] = n;
    }
    Ok(Histogram::from_parts(
        buckets,
        field("count")?,
        field("sum")?,
        field("min")?,
        field("max")?,
    ))
}

/// Minimal JSON parser — just enough for the records this module writes.
pub mod json {
    /// A parsed JSON value. Numbers keep their lexical form split into
    /// unsigned integers (the only numeric type the records use) and a
    /// float fallback.
    #[derive(Clone, Debug)]
    pub enum Value {
        Null,
        Bool(bool),
        U64(u64),
        F64(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::U64(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Deepest container nesting [`parse`] accepts. A record nests six
    /// deep (record → metrics → vc_queue → histogram → buckets → pair);
    /// the cap turns a file of a million `[` into a parse error instead of
    /// a stack overflow.
    const MAX_DEPTH: usize = 16;

    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(b, pos);
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
        }
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos, depth),
            Some(b'[') => parse_array(b, pos, depth),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let name = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos, depth + 1)?;
            fields.push((name, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos, depth + 1)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                            *pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        }
                        _ => return Err(format!("bad escape \\{}", esc as char)),
                    }
                }
                c => {
                    // Re-decode multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = *pos - 1;
                        let len = match c {
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let slice = b
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                        *pos = start + len;
                    }
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E', '-']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
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
    fn record_roundtrips_through_json() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = machine.run(&mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
        assert_eq!(parsed.cycles, record.cycles);
        assert_eq!(parsed.key, record.key);
        assert_eq!(
            parsed.write_miss_latency.mean(),
            record.write_miss_latency.mean()
        );
        assert_eq!(
            parsed.sharers_at_write.percentile(90.0),
            record.sharers_at_write.percentile(90.0)
        );
        // This crate builds the machine with the `trace` feature, so the
        // record's metrics are populated and agree with the message total.
        assert!(record.metrics.total_messages() > 0);
        assert_eq!(record.metrics.total_messages(), record.messages);
        assert!(line.contains("\"metrics\":{\"classes\":["));
        assert_eq!(
            parsed.metrics.total_messages(),
            record.metrics.total_messages()
        );
        assert_eq!(parsed.metrics.top_blocks, record.metrics.top_blocks);
        assert_eq!(
            parsed.metrics.inv_wave_depth.max(),
            record.metrics.inv_wave_depth.max()
        );
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
    fn vc_record_roundtrips_with_split_wait_and_per_vc_metrics() {
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
        assert!(line.contains("\"net_inject_wait_cycles\":"));
        assert!(line.contains("\"vc_queue\":["));
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
        assert_eq!(parsed.net_inject_wait_cycles, record.net_inject_wait_cycles);
        assert_eq!(parsed.net_link_wait_cycles, record.net_link_wait_cycles);
        assert_eq!(parsed.net_vc_wait_cycles, record.net_vc_wait_cycles);
        assert_eq!(parsed.metrics.vc_queue.len(), record.metrics.vc_queue.len());
    }

    #[test]
    fn legacy_single_channel_records_parse_without_vc_fields() {
        use dirtree_machine::Machine;
        let config = sample_config();
        let mut machine = Machine::new(config.machine, config.protocol);
        let mut driver = config.effective_workload().build(config.machine.nodes);
        let outcome = machine.run(&mut driver);
        let record = RunRecord::from_outcome(&config, &outcome);
        let line = record.to_json();
        // Single-channel records keep the exact legacy shape: the
        // aggregate scalar, no VC fields.
        assert!(line.contains("\"net_contention_cycles\":"));
        assert!(!line.contains("net_vcs"));
        assert!(!line.contains("vc_queue"));
        let parsed = RunRecord::from_json(&line).expect("parse");
        assert_eq!(parsed.net_vcs, 1);
        assert_eq!(
            parsed.net_contention_cycles(),
            record.net_contention_cycles(),
            "the sum must survive the split being unrecoverable"
        );
        assert_eq!(parsed.to_json(), line, "roundtrip must be byte-identical");
    }

    /// The committed goldens cover every record shape: legacy
    /// single-channel, VC, credited VC, and the sparse adaptive counters.
    #[test]
    fn golden_records_reserialize_to_identical_bytes() {
        for (name, text) in [
            (
                "scale_up_p64",
                include_str!("../../../tests/golden/scale_up_p64.jsonl"),
            ),
            (
                "scale_up_p64_vc",
                include_str!("../../../tests/golden/scale_up_p64_vc.jsonl"),
            ),
            (
                "scale_up_p64_vc_credited",
                include_str!("../../../tests/golden/scale_up_p64_vc_credited.jsonl"),
            ),
            (
                "adaptive_p16",
                include_str!("../../../tests/golden/adaptive_p16.jsonl"),
            ),
        ] {
            assert!(!text.is_empty(), "{name} is empty");
            for (i, line) in text.lines().enumerate() {
                let record = RunRecord::from_json(line)
                    .unwrap_or_else(|e| panic!("{name} line {}: {e}", i + 1));
                assert_eq!(record.to_json(), line, "{name} line {}", i + 1);
            }
        }
    }

    #[test]
    fn a_record_missing_any_required_scalar_is_rejected() {
        let line = include_str!("../../../tests/golden/scale_up_p64.jsonl")
            .lines()
            .next()
            .unwrap();
        for f in SCALARS.iter().filter(|f| f.presence == Presence::Always) {
            let renamed = line.replacen(&format!("\"{}\":", f.name), "\"renamed\":", 1);
            assert_ne!(renamed, line, "{} is not in the golden line", f.name);
            let err = RunRecord::from_json(&renamed).unwrap_err();
            assert!(err.contains(f.name), "{}: {err}", f.name);
        }
    }

    #[test]
    fn out_of_range_node_count_is_a_parse_error() {
        let line = include_str!("../../../tests/golden/scale_up_p64.jsonl")
            .lines()
            .next()
            .unwrap();
        let huge = line.replacen("\"nodes\":64,", "\"nodes\":4294967360,", 1);
        assert_ne!(huge, line);
        let err = RunRecord::from_json(&huge).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        assert!(json::parse(&"[".repeat(1 << 20)).is_err());
        assert!(json::parse(&"{\"a\":".repeat(1 << 20)).is_err());
        // The deepest shape a record has still parses.
        assert!(json::parse(r#"{"m":{"q":[{"buckets":[[1,2]]}]}}"#).is_ok());
    }

    #[test]
    fn json_escapes_roundtrip() {
        let v = json::parse(r#"{"a":"x\"y\\z\nw","b":[1,2],"c":3.5,"d":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].1.as_str(), Some("x\"y\\z\nw"));
        assert_eq!(obj[1].1.as_array().unwrap().len(), 2);
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
