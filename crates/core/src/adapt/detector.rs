//! Per-block sharing-pattern detection at the home directory.
//!
//! The detector watches the per-block request stream the home already
//! serializes (every `ReadReq`/`WriteReq`, plus read-hit notes forwarded by
//! the machine for blocks whose copies are being kept alive by updates) and
//! classifies each *write interval* — the reads observed since the previous
//! write — into one of five [`SharingPattern`]s. Each classification nudges
//! a saturating per-block score: patterns that profit from update writes
//! (producer–consumer, read-mostly) push it up, patterns that profit from
//! invalidation (migratory, write-shared, private) push it down. The
//! protocol flips a block to update mode only when the score crosses
//! `adapt_flip_up` and back only when it falls to `adapt_flip_down` — a
//! Schmitt trigger, so a stream that alternates pattern every interval
//! oscillates between two adjacent scores and never flips at all.

use crate::dir::util::NodeSet;
use crate::types::NodeId;

/// How a block was shared during one write interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// One (stable) writer, a few readers: consumers re-read what the
    /// producer publishes, so updates turn their misses into hits.
    ProducerConsumer,
    /// Many readers between rare writes: the strongest case for updates.
    ReadMostly,
    /// The only reader of the interval becomes the next writer: the copy
    /// migrates, old copies are dead weight — invalidate.
    Migratory,
    /// Writer follows writer with no reads between: updates would keep
    /// pushing data to sharers that never read it — invalidate.
    WriteShared,
    /// Same writer, no readers: invalidation mode gives the writer an
    /// exclusive copy and free write hits; update mode would pay a home
    /// transaction per write.
    Private,
}

impl SharingPattern {
    /// Score nudge: positive favors update mode, negative invalidate mode.
    pub fn score_delta(self) -> i32 {
        match self {
            SharingPattern::ProducerConsumer | SharingPattern::ReadMostly => 1,
            SharingPattern::Migratory | SharingPattern::WriteShared | SharingPattern::Private => -1,
        }
    }
}

/// Per-block observation state: the readers of the current write interval,
/// the last writer, and the running pattern score. It lives in the block's
/// row of the protocol, as an `Option` that the first observation fills.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct BlockPattern {
    readers: NodeSet,
    last_writer: Option<NodeId>,
    score: i32,
}

impl BlockPattern {
    /// Current score (diagnostics / tests).
    pub fn score(&self) -> i32 {
        self.score
    }

    /// The state with every observed node id mapped through `perm`
    /// (`perm[old] = new`) — classification depends only on reader-set
    /// cardinality and writer identity *equality*, never on id magnitude,
    /// so this is an exact equivariance (checker symmetry support).
    pub fn relabeled(&self, perm: &[NodeId]) -> BlockPattern {
        BlockPattern {
            readers: self.readers.relabeled(perm),
            last_writer: self.last_writer.map(|n| perm[n as usize]),
            score: self.score,
        }
    }
}

/// Pattern score saturation bound: scores are clamped to
/// `[-ADAPT_SATURATION, +ADAPT_SATURATION]` so a long-established pattern
/// can still be unlearned in bounded time.
pub const ADAPT_SATURATION: i32 = 4;

/// The sharing-pattern classifier: the Schmitt-trigger thresholds, applied
/// to one block's [`BlockPattern`] at a time (the home protocol keeps one
/// per block; one detector serves every home).
#[derive(Clone, Copy, Debug)]
pub struct PatternDetector {
    flip_up: i32,
    flip_down: i32,
}

impl PatternDetector {
    pub fn new(flip_up: i32, flip_down: i32) -> Self {
        assert!(
            flip_down < flip_up,
            "hysteresis thresholds must be ordered (down {flip_down} < up {flip_up})"
        );
        assert!(ADAPT_SATURATION >= flip_up.abs().max(flip_down.abs()));
        Self { flip_up, flip_down }
    }

    fn block(block: &mut Option<BlockPattern>, nodes: u32) -> &mut BlockPattern {
        block.get_or_insert_with(|| BlockPattern {
            readers: NodeSet::new(nodes),
            last_writer: None,
            score: 0,
        })
    }

    /// A read of the block by `reader` was observed (home request or
    /// machine read-hit note). Idempotent within an interval: the reader
    /// set is a bitset, so hot readers do not outweigh wide sharing.
    pub fn record_read(&self, block: &mut Option<BlockPattern>, reader: NodeId, nodes: u32) {
        Self::block(block, nodes).readers.insert(reader);
    }

    /// A write of the block by `writer` closed the current interval:
    /// classify it, fold it into the score, and start the next interval.
    pub fn record_write(
        &self,
        block: &mut Option<BlockPattern>,
        writer: NodeId,
        nodes: u32,
    ) -> SharingPattern {
        let sat = ADAPT_SATURATION;
        let b = Self::block(block, nodes);
        let r = b.readers.len();
        let writer_changed = b.last_writer != Some(writer);
        let pattern = if r == 0 {
            if writer_changed && b.last_writer.is_some() {
                SharingPattern::WriteShared
            } else {
                SharingPattern::Private
            }
        } else if r == 1 && b.readers.contains(writer) && writer_changed {
            SharingPattern::Migratory
        } else if u64::from(r) >= 2.max(u64::from(nodes) / 2) {
            SharingPattern::ReadMostly
        } else {
            SharingPattern::ProducerConsumer
        };
        b.score = (b.score + pattern.score_delta()).clamp(-sat, sat);
        b.last_writer = Some(writer);
        b.readers.clear();
        pattern
    }

    /// Which mode does the detector want for the block, given its current
    /// mode? The Schmitt trigger: an invalidate-mode block flips up only at
    /// `score >= flip_up`; an update-mode block flips down only at
    /// `score <= flip_down`.
    pub fn prefers_update(&self, block: Option<&BlockPattern>, currently_update: bool) -> bool {
        let score = block.map_or(0, BlockPattern::score);
        if currently_update {
            score > self.flip_down
        } else {
            score >= self.flip_up
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Addr;
    use dirtree_sim::BlockTable;

    const P: u32 = 16;

    /// The detector with a per-block table, as the protocol holds it.
    struct Blocks {
        d: PatternDetector,
        rows: BlockTable<Option<BlockPattern>>,
    }

    impl Blocks {
        fn record_read(&mut self, addr: Addr, reader: NodeId, nodes: u32) {
            self.d
                .record_read(self.rows.get_mut_or_grow(addr), reader, nodes);
        }

        fn record_write(&mut self, addr: Addr, writer: NodeId, nodes: u32) -> SharingPattern {
            self.d
                .record_write(self.rows.get_mut_or_grow(addr), writer, nodes)
        }

        fn block(&self, addr: Addr) -> Option<&BlockPattern> {
            self.rows.get(addr).and_then(Option::as_ref)
        }

        fn prefers_update(&self, addr: Addr, currently_update: bool) -> bool {
            self.d.prefers_update(self.block(addr), currently_update)
        }

        fn score(&self, addr: Addr) -> i32 {
            self.block(addr).map_or(0, BlockPattern::score)
        }
    }

    fn det() -> Blocks {
        // The protocol's defaults: flip up at +2, down at -2, saturate at 4.
        Blocks {
            d: PatternDetector::new(2, -2),
            rows: BlockTable::new(),
        }
    }

    #[test]
    fn producer_consumer_stream_classifies_and_flips_up() {
        let mut d = det();
        // Producer 0 writes, consumers 1..3 read, repeatedly.
        for round in 0..3 {
            for c in 1..4 {
                d.record_read(100, c, P);
            }
            let p = d.record_write(100, 0, P);
            let _ = round;
            assert_eq!(p, SharingPattern::ProducerConsumer);
        }
        assert!(d.score(100) >= 2);
        assert!(d.prefers_update(100, false), "flip to update");
    }

    #[test]
    fn read_mostly_needs_wide_reader_set() {
        let mut d = det();
        for r in 1..=(P / 2) {
            d.record_read(7, r, P);
        }
        assert_eq!(d.record_write(7, 0, P), SharingPattern::ReadMostly);
        // One fewer reader than half the machine: producer–consumer.
        for r in 1..(P / 2) {
            d.record_read(8, r, P);
        }
        assert_eq!(d.record_write(8, 0, P), SharingPattern::ProducerConsumer);
    }

    #[test]
    fn migratory_token_stays_invalidate() {
        let mut d = det();
        // Token ring: each node reads the block then writes it.
        let mut prev = 0;
        d.record_write(9, prev, P);
        for hop in 1..10 {
            let n = hop % P;
            d.record_read(9, n, P);
            let p = d.record_write(9, n, P);
            assert_eq!(p, SharingPattern::Migratory, "hop {hop} from {prev}");
            prev = n;
        }
        assert!(!d.prefers_update(9, false));
        assert_eq!(d.score(9), -4, "saturates, does not run away");
    }

    #[test]
    fn write_shared_and_private_classify() {
        let mut d = det();
        assert_eq!(d.record_write(1, 3, P), SharingPattern::Private);
        assert_eq!(d.record_write(1, 3, P), SharingPattern::Private);
        assert_eq!(d.record_write(1, 4, P), SharingPattern::WriteShared);
        assert_eq!(d.record_write(1, 3, P), SharingPattern::WriteShared);
    }

    #[test]
    fn hysteresis_no_flapping_on_alternating_patterns() {
        let mut d = det();
        let mut update = false;
        // Alternate a +1 interval (producer–consumer) with a -1 interval
        // (write-shared) forever: the score oscillates between 0 and 1 and
        // the mode never changes.
        for _ in 0..50 {
            d.record_read(5, 1, P);
            d.record_read(5, 2, P);
            d.record_write(5, 0, P); // producer-consumer: +1
            if d.prefers_update(5, update) != update {
                update = !update;
            }
            d.record_write(5, 9, P); // write-shared (writer change, no reads): -1
            if d.prefers_update(5, update) != update {
                update = !update;
            }
            assert!(!update, "alternating pattern must not flip the mode");
            assert!((-2..=2).contains(&d.score(5)));
        }
    }

    #[test]
    fn established_pattern_unlearns_in_bounded_time() {
        let mut d = det();
        // Long read-mostly prefix saturates at +4.
        for _ in 0..20 {
            for r in 1..P {
                d.record_read(3, r, P);
            }
            d.record_write(3, 0, P);
        }
        assert_eq!(d.score(3), 4);
        assert!(d.prefers_update(3, true));
        // Then the block turns write-shared: must flip down within
        // saturation + |flip_down| = 6 intervals, not 20.
        let mut flips_after = None;
        for i in 0..8 {
            d.record_write(3, (i % 2) as u32 + 1, P);
            if !d.prefers_update(3, true) {
                flips_after = Some(i + 1);
                break;
            }
        }
        assert_eq!(flips_after, Some(6));
    }

    #[test]
    fn schmitt_trigger_band_is_sticky_in_both_directions() {
        let mut d = det();
        // Score 1: an invalidate block stays invalidate...
        d.record_read(2, 1, P);
        d.record_read(2, 4, P);
        d.record_write(2, 0, P);
        assert_eq!(d.score(2), 1);
        assert!(!d.prefers_update(2, false));
        // ...but an update block (same score) stays update.
        assert!(d.prefers_update(2, true));
    }

    #[test]
    fn digest_tracks_state() {
        use std::hash::Hasher;
        let mut a = det();
        let mut b = det();
        let run = |d: &Blocks| {
            let mut h = dirtree_sim::hash::FxHasher::default();
            crate::fingerprint::digest_rows(&mut h, &d.rows);
            h.finish()
        };
        assert_eq!(run(&a), run(&b));
        a.record_read(1, 1, P);
        assert_ne!(run(&a), run(&b), "reader sets are part of the digest");
        b.record_read(1, 1, P);
        assert_eq!(run(&a), run(&b));
    }
}
