//! Protocol observability: per-class message metrics, transaction latency
//! histograms, and invalidation-wave geometry.
//!
//! The [`Metrics`] sink is fed by the machine's single message-emission
//! hook (`MachineCore::send` in `dirtree-machine`) and by the per-op
//! completion path, so every protocol is instrumented without per-protocol
//! edits. The whole collection path is gated behind the `trace` cargo
//! feature: with the feature off, [`Metrics`] is a zero-sized type whose
//! methods are empty `#[inline]` bodies — the hot path compiles to the
//! exact code it had before the layer existed.
//!
//! [`MetricsSnapshot`] — the plain-data export consumed by the sweep
//! runner's JSON records — is *always* a real struct (empty/default when
//! the feature is off) so downstream record schemas do not change shape
//! with the feature.
//!
//! This crate deliberately knows nothing about the protocol message enum:
//! `dirtree-core` maps its `MsgKind` into the coarse [`MsgClass`]
//! vocabulary below (`MsgKind::class()`), which is what the paper's
//! quantitative claims are phrased in.

#[cfg(feature = "trace")]
use crate::block_table::BlockTable;
use crate::stats::Histogram;

/// Coarse protocol-message classification shared by all eleven protocols.
///
/// The first seven classes are the vocabulary of the paper's Table 1
/// argument (request / data / invalidation / acknowledgement /
/// replacement); the rest keep every remaining message kind countable so
/// class totals always sum to the machine's message total.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Read-miss requests (and their forwards: bus reads, list supplies).
    ReadReq,
    /// Write-miss / upgrade requests.
    WriteReq,
    /// Data-carrying replies with no tree hand-off.
    DataReply,
    /// Data replies that also hand sharing-tree pointers to the requester
    /// (Dir_iTree_k adoption).
    Adopt,
    /// Write-propagation wave messages: invalidations (or updates) walking
    /// the sharing structure.
    Inv,
    /// Acknowledgements (invalidation, update, purge, fix-up).
    Ack,
    /// Replacement traffic: silent subtree kills and the E12 ablation's
    /// home notifications.
    ReplaceInv,
    /// Writebacks and owner recalls.
    Writeback,
    /// Off-critical-path read-fill acknowledgements (excluded from the
    /// paper's Table 1 counts).
    FillAck,
    /// Sharing-structure management (list attach/unlink, tree repair).
    Mgmt,
}

/// Number of [`MsgClass`] variants (array-table size).
pub const NUM_MSG_CLASSES: usize = 10;

impl MsgClass {
    /// Every class, in stable serialization order.
    pub const ALL: [MsgClass; NUM_MSG_CLASSES] = [
        MsgClass::ReadReq,
        MsgClass::WriteReq,
        MsgClass::DataReply,
        MsgClass::Adopt,
        MsgClass::Inv,
        MsgClass::Ack,
        MsgClass::ReplaceInv,
        MsgClass::Writeback,
        MsgClass::FillAck,
        MsgClass::Mgmt,
    ];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            MsgClass::ReadReq => 0,
            MsgClass::WriteReq => 1,
            MsgClass::DataReply => 2,
            MsgClass::Adopt => 3,
            MsgClass::Inv => 4,
            MsgClass::Ack => 5,
            MsgClass::ReplaceInv => 6,
            MsgClass::Writeback => 7,
            MsgClass::FillAck => 8,
            MsgClass::Mgmt => 9,
        }
    }

    /// Stable label used in the metrics JSON schema.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::ReadReq => "read_req",
            MsgClass::WriteReq => "write_req",
            MsgClass::DataReply => "data_reply",
            MsgClass::Adopt => "adopt",
            MsgClass::Inv => "inv",
            MsgClass::Ack => "ack",
            MsgClass::ReplaceInv => "replace_inv",
            MsgClass::Writeback => "writeback",
            MsgClass::FillAck => "fill_ack",
            MsgClass::Mgmt => "mgmt",
        }
    }
}

/// Per-class message totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Messages of this class injected into the network.
    pub count: u64,
    /// Wire bytes those messages occupied.
    pub bytes: u64,
    /// How many of them were bound for a home's directory controller.
    pub to_dir: u64,
}

/// How many of the busiest blocks the snapshot retains.
pub const TOP_BLOCKS: usize = 8;

/// Plain-data export of a run's metrics: always available (default/empty
/// when the `trace` feature is off) so record schemas are feature-stable.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Message totals per [`MsgClass`], indexed by [`MsgClass::index`].
    pub classes: [ClassCounts; NUM_MSG_CLASSES],
    /// Read-transaction latency (issue → completion), cycles.
    pub read_tx_latency: Histogram,
    /// Write-transaction latency (issue → completion), cycles.
    pub write_tx_latency: Histogram,
    /// Tree levels traversed by each write's invalidation/update wave.
    pub inv_wave_depth: Histogram,
    /// Directory-bound acknowledgements collected per write wave.
    pub inv_wave_acks: Histogram,
    /// Directed network links (1 for the bus fabric).
    pub links: u64,
    /// Busy cycles of the single most utilized link.
    pub max_link_busy: u64,
    /// Busy cycles summed over every link.
    pub total_link_busy: u64,
    /// Injection-channel backlog (cycles) sampled at each send.
    pub inject_queue: Histogram,
    /// Per-link backlog (cycles) sampled as each packet head arrives.
    pub link_queue: Histogram,
    /// Backlog samples partitioned per virtual channel (empty in the
    /// single-channel network model, so pre-VC snapshots are unchanged).
    pub vc_queue: Vec<Histogram>,
    /// The [`TOP_BLOCKS`] busiest blocks as `(addr, messages)`, sorted by
    /// message count (descending) then address — deterministic.
    pub top_blocks: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Messages summed over all classes.
    pub fn total_messages(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Directory-bound messages summed over all classes.
    pub fn total_to_dir(&self) -> u64 {
        self.classes.iter().map(|c| c.to_dir).sum()
    }

    /// Counts for one class.
    pub fn class(&self, class: MsgClass) -> ClassCounts {
        self.classes[class.index()]
    }
}

/// Per-write invalidation-wave bookkeeping (feature `trace` only).
#[cfg(feature = "trace")]
#[derive(Default)]
struct WaveState {
    /// Tree level at which each node received the wave (home fan-out = 1).
    levels: crate::hash::FxHashMap<u32, u64>,
    max_level: u64,
    /// Directory-bound acks the home collected for this wave.
    acks: u64,
    /// Wave messages sent (0 ⇒ the write invalidated nobody; not recorded).
    invs: u64,
}

/// The metrics sink. With the `trace` feature enabled this accumulates
/// per-class counts, per-block tables, latency histograms, and wave
/// geometry; without it, it is a zero-sized no-op (see the module docs).
#[cfg(feature = "trace")]
#[derive(Default)]
pub struct Metrics {
    classes: [ClassCounts; NUM_MSG_CLASSES],
    read_tx: Histogram,
    write_tx: Histogram,
    wave_depth: Histogram,
    wave_acks: Histogram,
    /// Indexed by block address; a block that saw no traffic is all zeros.
    per_block: BlockTable<[ClassCounts; NUM_MSG_CLASSES]>,
    /// Indexed by block address; `Some` from the block's first wave
    /// message or home ack until the next write to the block completes.
    waves: BlockTable<Option<WaveState>>,
    /// Emptied level maps of closed waves, taken by the next waves to
    /// open: as many as waves were ever open at once, so recording a wave
    /// allocates nothing once the pool holds that many.
    spare_levels: Vec<crate::hash::FxHashMap<u32, u64>>,
}

#[cfg(feature = "trace")]
impl Metrics {
    /// Record one protocol message (called from the machine's shared send
    /// hook). `to_dir` marks directory-controller-bound messages.
    pub fn on_msg(&mut self, class: MsgClass, addr: u64, bytes: u64, to_dir: bool) {
        let i = class.index();
        let dir = to_dir as u64;
        self.classes[i].count += 1;
        self.classes[i].bytes += bytes;
        self.classes[i].to_dir += dir;
        let block = self.per_block.get_mut_or_grow(addr);
        block[i].count += 1;
        block[i].bytes += bytes;
        block[i].to_dir += dir;
    }

    /// A wave message ([`MsgClass::Inv`]) left `src` for `dst`. Wave depth
    /// is the tree level at which the message is *received*: home-originated
    /// fan-out lands at level 1, a forward lands one level below its
    /// sender's (unknown senders — e.g. the writer starting a list chain —
    /// count as level 0).
    pub fn on_inv(&mut self, addr: u64, src: u32, dst: u32, from_home: bool) {
        let w = self.wave(addr);
        let level = if from_home {
            1
        } else {
            w.levels.get(&src).copied().unwrap_or(0) + 1
        };
        let e = w.levels.entry(dst).or_insert(0);
        *e = (*e).max(level);
        w.max_level = w.max_level.max(level);
        w.invs += 1;
    }

    /// The home collected a directory-bound wave acknowledgement.
    pub fn on_home_ack(&mut self, addr: u64) {
        self.wave(addr).acks += 1;
    }

    /// The open wave of `addr`, opened if there is none.
    fn wave(&mut self, addr: u64) -> &mut WaveState {
        let spare = &mut self.spare_levels;
        self.waves
            .get_mut_or_grow(addr)
            .get_or_insert_with(|| WaveState {
                levels: spare.pop().unwrap_or_default(),
                ..WaveState::default()
            })
    }

    /// A read transaction completed.
    pub fn on_read_done(&mut self, _addr: u64, latency: u64) {
        self.read_tx.record(latency);
    }

    /// A write transaction completed: record its latency and close out the
    /// block's invalidation wave (depth and home-ack count).
    pub fn on_write_done(&mut self, addr: u64, latency: u64) {
        self.write_tx.record(latency);
        if let Some(mut w) = self.waves.get_mut(addr).and_then(Option::take) {
            if w.invs > 0 || w.acks > 0 {
                self.wave_depth.record(w.max_level);
                self.wave_acks.record(w.acks);
            }
            w.levels.clear();
            self.spare_levels.push(w.levels);
        }
    }

    /// Per-class totals (test/inspection API).
    pub fn class_counts(&self) -> &[ClassCounts; NUM_MSG_CLASSES] {
        &self.classes
    }

    /// Per-class counts for one block (zeros if the block saw no traffic).
    pub fn block_counts(&self, addr: u64) -> [ClassCounts; NUM_MSG_CLASSES] {
        self.per_block.get(addr).copied().unwrap_or_default()
    }

    /// Export the accumulated metrics. Network link fields are left at
    /// their defaults; the machine fills them from the network's
    /// [`link metrics`](MetricsSnapshot::links) after the run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut top: Vec<(u64, u64)> = self
            .per_block
            .iter_nonempty()
            .map(|(a, c)| (a, c.iter().map(|cc| cc.count).sum()))
            .collect();
        top.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        top.truncate(TOP_BLOCKS);
        MetricsSnapshot {
            classes: self.classes,
            read_tx_latency: self.read_tx.clone(),
            write_tx_latency: self.write_tx.clone(),
            inv_wave_depth: self.wave_depth.clone(),
            inv_wave_acks: self.wave_acks.clone(),
            top_blocks: top,
            ..MetricsSnapshot::default()
        }
    }
}

/// Feature-off stand-in: a zero-sized type whose methods compile to
/// nothing, so instrumented call sites cost nothing when tracing is
/// disabled (pinned by `zero_sized_when_disabled` below).
#[cfg(not(feature = "trace"))]
#[derive(Default)]
pub struct Metrics;

#[cfg(not(feature = "trace"))]
impl Metrics {
    #[inline(always)]
    pub fn on_msg(&mut self, _class: MsgClass, _addr: u64, _bytes: u64, _to_dir: bool) {}

    #[inline(always)]
    pub fn on_inv(&mut self, _addr: u64, _src: u32, _dst: u32, _from_home: bool) {}

    #[inline(always)]
    pub fn on_home_ack(&mut self, _addr: u64) {}

    #[inline(always)]
    pub fn on_read_done(&mut self, _addr: u64, _latency: u64) {}

    #[inline(always)]
    pub fn on_write_done(&mut self, _addr: u64, _latency: u64) {}

    /// Always-empty snapshot, keeping record schemas feature-stable.
    #[inline]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels_are_distinct_and_in_index_order() {
        let mut seen = std::collections::HashSet::new();
        for (i, c) in MsgClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i, "ALL must follow index order");
            assert!(seen.insert(c.label()), "duplicate label {}", c.label());
        }
        assert_eq!(seen.len(), NUM_MSG_CLASSES);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = MetricsSnapshot::default();
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_to_dir(), 0);
        assert_eq!(s.read_tx_latency.count(), 0);
        assert!(s.top_blocks.is_empty());
    }

    /// The acceptance criterion for the feature-off path: the sink is a
    /// ZST, so instrumented structs grow by zero bytes and the no-op
    /// methods have nothing to touch.
    #[cfg(not(feature = "trace"))]
    #[test]
    fn zero_sized_when_disabled() {
        assert_eq!(std::mem::size_of::<Metrics>(), 0);
        let mut m = Metrics;
        m.on_msg(MsgClass::Inv, 1, 8, true);
        m.on_inv(1, 0, 1, true);
        m.on_home_ack(1);
        m.on_write_done(1, 10);
        let s = m.snapshot();
        assert_eq!(s.total_messages(), 0, "disabled sink records nothing");
    }

    #[cfg(feature = "trace")]
    mod enabled {
        use super::*;

        #[test]
        fn per_class_and_per_block_counts_accumulate() {
            let mut m = Metrics::default();
            m.on_msg(MsgClass::ReadReq, 5, 8, true);
            m.on_msg(MsgClass::DataReply, 5, 16, false);
            m.on_msg(MsgClass::ReadReq, 9, 8, true);
            let c = m.class_counts();
            assert_eq!(c[MsgClass::ReadReq.index()].count, 2);
            assert_eq!(c[MsgClass::ReadReq.index()].to_dir, 2);
            assert_eq!(c[MsgClass::DataReply.index()].bytes, 16);
            let b5 = m.block_counts(5);
            assert_eq!(b5[MsgClass::ReadReq.index()].count, 1);
            assert_eq!(b5[MsgClass::DataReply.index()].count, 1);
            assert_eq!(m.block_counts(7), [ClassCounts::default(); NUM_MSG_CLASSES]);
            let s = m.snapshot();
            assert_eq!(s.total_messages(), 3);
            assert_eq!(s.total_to_dir(), 2);
        }

        #[test]
        fn wave_depth_follows_forwarding_chain() {
            let mut m = Metrics::default();
            // home → root 1 (level 1), root 1 → pair 3 (2), 3 → leaf 4 (3).
            m.on_inv(7, 0, 1, true);
            m.on_inv(7, 1, 3, false);
            m.on_inv(7, 3, 4, false);
            m.on_home_ack(7);
            m.on_home_ack(7);
            m.on_write_done(7, 100);
            let s = m.snapshot();
            assert_eq!(s.inv_wave_depth.max(), 3);
            assert_eq!(s.inv_wave_acks.max(), 2);
            assert_eq!(s.write_tx_latency.count(), 1);
        }

        #[test]
        fn waves_are_per_block_and_cleared_at_write_completion() {
            let mut m = Metrics::default();
            m.on_inv(1, 0, 1, true);
            m.on_inv(2, 0, 1, true);
            m.on_inv(2, 1, 2, false);
            m.on_write_done(2, 10);
            m.on_write_done(1, 10);
            let s = m.snapshot();
            assert_eq!(s.inv_wave_depth.max(), 2);
            assert_eq!(s.inv_wave_depth.count(), 2);
            // A second write to block 2 with no invalidations records no
            // wave sample (the wave state was consumed above).
            let mut m2 = Metrics::default();
            m2.on_write_done(2, 10);
            assert_eq!(m2.snapshot().inv_wave_depth.count(), 0);
        }

        #[test]
        fn a_reused_level_map_starts_empty() {
            let mut m = Metrics::default();
            // Block 1's wave reaches node 3 at level 2 and closes; block 2's
            // wave then takes its map from the pool.
            m.on_inv(1, 0, 1, true);
            m.on_inv(1, 1, 3, false);
            m.on_write_done(1, 10);
            m.on_inv(2, 3, 5, false);
            m.on_write_done(2, 10);
            let depths = m.snapshot().inv_wave_depth;
            assert_eq!(
                (depths.count(), depths.max()),
                (2, 2),
                "3 is unknown to block 2's wave"
            );
        }

        #[test]
        fn unknown_sender_starts_a_chain_at_level_one() {
            let mut m = Metrics::default();
            // A list writer (never itself a wave recipient) starts the
            // chain: writer → n1 is level 1, n1 → n2 level 2, …
            m.on_inv(3, 9, 1, false);
            m.on_inv(3, 1, 2, false);
            m.on_write_done(3, 5);
            assert_eq!(m.snapshot().inv_wave_depth.max(), 2);
        }

        #[test]
        fn top_blocks_are_sorted_bounded_and_deterministic() {
            let mut m = Metrics::default();
            for addr in 0..20u64 {
                for _ in 0..=addr {
                    m.on_msg(MsgClass::Mgmt, addr, 8, false);
                }
            }
            let s = m.snapshot();
            assert_eq!(s.top_blocks.len(), TOP_BLOCKS);
            assert_eq!(s.top_blocks[0], (19, 20));
            for w in s.top_blocks.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
            // Count descending, then address: exactly this list.
            let expect: Vec<(u64, u64)> = (12..20u64).rev().map(|a| (a, a + 1)).collect();
            assert_eq!(s.top_blocks, expect);
        }

        #[test]
        fn top_blocks_skip_untouched_addresses_and_break_ties_by_address() {
            let mut m = Metrics::default();
            // Touched blocks with untouched ones between them (rows of the
            // dense table that exist but hold zeros), two ties, and the
            // classes spread so a row's total is a sum over classes.
            for (addr, msgs) in [(40u64, 3u64), (2, 5), (17, 3), (1000, 1), (9, 5)] {
                for i in 0..msgs {
                    let class = MsgClass::ALL[i as usize % NUM_MSG_CLASSES];
                    m.on_msg(class, addr, 8, false);
                }
            }
            assert_eq!(
                m.snapshot().top_blocks,
                vec![(2, 5), (9, 5), (17, 3), (40, 3), (1000, 1)]
            );
            // Never-seen addresses: inside the grown table, and beyond it.
            let zeros = [ClassCounts::default(); NUM_MSG_CLASSES];
            assert_eq!(m.block_counts(3), zeros);
            assert_eq!(m.block_counts(1 << 20), zeros);
        }
    }
}
