//! Deterministic discrete-event queue.
//!
//! Events are delivered in `(time, push order)`: two events scheduled for
//! the same cycle come out in the order they were scheduled, which makes
//! whole-machine simulations bit-reproducible.
//!
//! # Structure: a calendar ring over one slab
//!
//! The queue is a ring of `WINDOW` per-cycle FIFO buckets. An event for
//! cycle `t` with `t - now < WINDOW` is appended to bucket
//! `t & (WINDOW - 1)`; a bucket is a `(head, tail)` pair of indices into
//! one shared slab (`slots` for the payloads, `next` for the links, a free
//! list threaded through `next`). A `WINDOW`-bit occupancy bitmap, scanned
//! with `trailing_zeros` from `now & (WINDOW - 1)`, finds the next
//! non-empty cycle. Events further ahead than the window go to a binary
//! heap ordered by `(time, seq)` — the structure this queue used to be —
//! and are moved into the ring by the clock advance of
//! [`EventQueue::pop`] / [`EventQueue::pop_batch`].
//!
//! # FIFO by construction
//!
//! Every ring event satisfies `now <= t < now + WINDOW`, so the `WINDOW`
//! buckets hold `WINDOW` distinct cycles: a bucket holds exactly one cycle
//! and appends arrive in push order. Nothing is compared and nothing
//! sifts; a payload is written once and read once.
//!
//! The overflow rule keeps that true across the window edge. After every
//! clock advance to `now`, all overflow events with `t < now + WINDOW` are
//! drained into the ring, in heap `(time, seq)` order, *inside the
//! advance*. An overflow event for cycle `T` was pushed while
//! `T - now >= WINDOW`; a direct push to `T` is possible only once
//! `T - now < WINDOW`; and the advance that first makes that true has
//! already put the overflow event into bucket `T` before it returns. So
//! in every bucket the events that came through the overflow precede the
//! directly pushed ones, and are in push order among themselves — which is
//! push order overall. Only overflow entries carry a sequence number.
//! Draining later (say, when bucket `T` itself is popped) would append
//! the older overflow event behind younger direct pushes; the differential
//! tests below fail on exactly that mutation.
//!
//! # Why `WINDOW = 1024`, and why it is a constant
//!
//! Measured on the benchmark's four simulator workloads (95 M pushes):
//! `d = 0` is 3–15 % of pushes, `d = 1` 30–44 %, and **142** pushes have
//! `d >= 1024`, all in `policies_p256` and all below 2048. The `scale_up`
//! P=64 full-map run never overflows (pinned by `dirtree-bench`'s
//! `window_covers_scale_up_traffic`). At 1024 the bucket table is 8 KB and
//! the bitmap 16 words, so a full scan is at most 17 word tests; nothing
//! measured asks for a second value, so it is not configurable.
//!
//! # Why a slab and not a `VecDeque` per bucket
//!
//! Per-bucket deques keep the capacity of the largest barrier release that
//! ever passed through each of them: on `floyd_p1024_vc` that took
//! `peak_rss_mb` from 77.4 to 94.9, while the slab is bounded by the peak
//! queue depth (74.8) and was also the faster of the two.
//!
//! # What was not built
//!
//! Moving the payload out of the ordered structure into a message arena
//! (the third step once planned for this queue) is moot: the ring never
//! moves a payload after writing it. What a payload costs is its *size*,
//! not its trips through the ring: the machine's event moves from slab to
//! batch to controller queue to handler, so shrinking it from 64 to 48
//! bytes (node lists out of line, `dirtree_core::msg::NodeList`) cut the
//! machine loop's cost per event while `sim.queue_hold_ns` stayed put.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time, in processor cycles.
pub type Cycle = u64;

/// Cycles ahead of `now` the ring covers; further events overflow to the
/// heap. A power of two (see the module doc for the choice of 1024).
const WINDOW: usize = 1024;
const MASK: u64 = WINDOW as u64 - 1;
const WORDS: usize = WINDOW / 64;
/// End of a slab chain / empty free list.
const NIL: u32 = u32::MAX;

/// An overflow event; `seq` is its push order among overflow events.
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One cycle's FIFO: first and last slab index, meaningful only while the
/// bucket's occupancy bit is set.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// Word index and mask of bucket `b` in the occupancy bitmap.
fn occupancy_bit(b: usize) -> (usize, u64) {
    (b / 64, 1u64 << (b % 64))
}

/// A time-ordered event queue with FIFO tie-breaking.
///
/// ```
/// use dirtree_sim::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Slab payloads; `None` while a slot is on the free list.
    slots: Vec<Option<E>>,
    /// Slab links: the next event of the same bucket, or the next free slot.
    next: Vec<u32>,
    free: u32,
    buckets: Box<[Bucket; WINDOW]>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    in_ring: usize,
    /// Events pushed `WINDOW` or more cycles ahead; every entry satisfies
    /// `time >= now + WINDOW`.
    overflow: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
    pushed: u64,
    popped: u64,
    overflowed: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A queue whose slab has room for `cap` pending events before it
    /// grows.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            free: NIL,
            buckets: Box::new(
                [Bucket {
                    head: NIL,
                    tail: NIL,
                }; WINDOW],
            ),
            occupied: [0; WORDS],
            in_ring: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            pushed: 0,
            popped: 0,
            overflowed: 0,
            peak: 0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (0 before any pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedule `event` at absolute cycle `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the past (earlier than the last popped event);
    /// causality violations are always simulator bugs.
    pub fn push(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: t={} < now={}",
            time,
            self.now
        );
        self.pushed += 1;
        if time - self.now < WINDOW as u64 {
            self.append(time, event);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.overflowed += 1;
            self.overflow.push(Entry { time, seq, event });
        }
        self.peak = self.peak.max(self.len());
    }

    /// Schedule `event` `delay` cycles after the current time.
    pub fn push_after(&mut self, delay: Cycle, event: E) {
        self.push(self.now + delay, event);
    }

    /// Append to the bucket of `time`, which must lie inside the window.
    fn append(&mut self, time: Cycle, event: E) {
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.slots[slot as usize] = Some(event);
            self.next[slot as usize] = NIL;
            slot
        } else {
            let slot = self.slots.len();
            assert!(slot < NIL as usize, "event slab full");
            let slot = slot as u32;
            self.slots.push(Some(event));
            self.next.push(NIL);
            slot
        };
        let b = (time & MASK) as usize;
        let (word, bit) = occupancy_bit(b);
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            self.buckets[b].head = slot;
        } else {
            self.next[self.buckets[b].tail as usize] = slot;
        }
        self.buckets[b].tail = slot;
        self.in_ring += 1;
    }

    /// Cycle of the first non-empty bucket at or after `now`, scanning the
    /// ring once around. The ring must not be empty.
    fn next_ring_time(&self) -> Cycle {
        let (word, bit) = occupancy_bit((self.now & MASK) as usize);
        // `bit` and everything above it: the rest of this lap's first word.
        let first = self.occupied[word] & !(bit - 1);
        let b = if first != 0 {
            word * 64 + first.trailing_zeros() as usize
        } else {
            // Words after the first, wrapping; the last step re-reads the
            // first word for the bits below `bit`, which are one lap ahead.
            (1..=WORDS)
                .map(|i| (word + i) % WORDS)
                .find(|&w| self.occupied[w] != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
                .expect("next_ring_time on an empty ring")
        };
        self.now + ((b as u64).wrapping_sub(self.now) & MASK)
    }

    /// Advance the clock to the next event's cycle and return it. This is
    /// the only place `now` moves, and it re-establishes the overflow
    /// invariant before anything can be pushed at the new time (module
    /// doc: FIFO by construction).
    fn advance(&mut self) -> Option<Cycle> {
        let time = if self.in_ring > 0 {
            self.next_ring_time()
        } else {
            self.overflow.peek()?.time
        };
        if time != self.now {
            self.now = time;
            while self
                .overflow
                .peek()
                .is_some_and(|e| e.time - time < WINDOW as u64)
            {
                let e = self.overflow.pop().expect("peeked entry vanished");
                self.append(e.time, e.event);
            }
        }
        Some(time)
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let time = self.advance()?;
        let b = (time & MASK) as usize;
        let slot = self.buckets[b].head;
        let event = self.slots[slot as usize]
            .take()
            .expect("linked slot is full");
        if slot == self.buckets[b].tail {
            let (word, bit) = occupancy_bit(b);
            self.occupied[word] &= !bit;
        } else {
            self.buckets[b].head = self.next[slot as usize];
        }
        self.next[slot as usize] = self.free;
        self.free = slot;
        self.in_ring -= 1;
        self.popped += 1;
        Some((time, event))
    }

    /// Remove every event sharing the earliest timestamp, appending them to
    /// `out` in push order, and advance the clock to that timestamp.
    /// Returns the number of events drained (0 when empty).
    ///
    /// Equivalent to repeated [`pop`](Self::pop) calls: events pushed while
    /// the caller processes the batch land in the now-empty bucket of the
    /// same cycle, behind everything drained here, exactly as they would
    /// under one-at-a-time popping.
    pub fn pop_batch(&mut self, out: &mut Vec<(Cycle, E)>) -> usize {
        let Some(time) = self.advance() else {
            return 0;
        };
        let b = (time & MASK) as usize;
        let Bucket { head, tail } = self.buckets[b];
        let mut drained = 0;
        let mut slot = head;
        while slot != NIL {
            let event = self.slots[slot as usize]
                .take()
                .expect("linked slot is full");
            out.push((time, event));
            drained += 1;
            slot = self.next[slot as usize];
        }
        // The drained chain is already linked: splice it onto the free list.
        self.next[tail as usize] = self.free;
        self.free = head;
        let (word, bit) = occupancy_bit(b);
        self.occupied[word] &= !bit;
        self.in_ring -= drained;
        self.popped += drained as u64;
        drained
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.in_ring > 0 {
            Some(self.next_ring_time())
        } else {
            self.overflow.peek().map(|e| e.time)
        }
    }

    pub fn len(&self) -> usize {
        self.in_ring + self.overflow.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (diagnostic).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events ever delivered (diagnostic).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Events pushed beyond the ring's window, which took the overflow
    /// heap's slower path (diagnostic).
    pub fn total_overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Deepest the queue has ever been (diagnostic; deterministic, so safe
    /// to export in sweep records).
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(5, ());
        q.push(5, ());
        q.push(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(10, "first");
        q.pop();
        q.push_after(5, "second");
        assert_eq!(q.pop(), Some((15, "second")));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(3, ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(1, 1u32);
        q.push(4, 4);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(2, 2);
        q.push(3, 3);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((4, 4)));
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(1, ());
        q.push(2, ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peak_len_records_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(1, ());
        q.push(2, ());
        q.push(3, ());
        q.pop();
        q.pop();
        q.push(4, ());
        assert_eq!(q.peak_len(), 3, "peak survives draining");
    }

    #[test]
    fn pop_batch_drains_exactly_one_timestamp_in_fifo_order() {
        let mut q = EventQueue::new();
        q.push(7, "a");
        q.push(5, "x");
        q.push(7, "b");
        q.push(5, "y");
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), 2);
        assert_eq!(out, vec![(5, "x"), (5, "y")]);
        assert_eq!(q.now(), 5);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), 2);
        assert_eq!(out, vec![(7, "a"), (7, "b")]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn pop_batch_interleaves_identically_to_single_pops() {
        // Drive two queues with the same pushes — one popped singly, one in
        // batches, with same-cycle re-pushes during batch processing — and
        // demand the identical delivery order.
        let script: &[(Cycle, u32)] = &[(1, 0), (1, 1), (2, 2), (1, 3), (3, 4), (2, 5)];
        let mut single = EventQueue::new();
        let mut batched = EventQueue::new();
        for &(t, v) in script {
            single.push(t, v);
            batched.push(t, v);
        }
        let mut singles = Vec::new();
        while let Some((t, v)) = single.pop() {
            // Re-push one follow-up at the same cycle for even values < 100.
            if v % 2 == 0 && v < 100 {
                single.push(t, v + 100);
            }
            singles.push((t, v));
        }
        let mut batches = Vec::new();
        let mut buf = Vec::new();
        while batched.pop_batch(&mut buf) > 0 {
            for (t, v) in buf.drain(..) {
                if v % 2 == 0 && v < 100 {
                    batched.push(t, v + 100);
                }
                batches.push((t, v));
            }
        }
        assert_eq!(singles, batches);
    }

    /// The binary-heap queue this ring replaced, kept verbatim as the
    /// ordering oracle: `(time, seq)` by comparison.
    struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        now: Cycle,
        pushed: u64,
        popped: u64,
        peak: usize,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            Self {
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: 0,
                pushed: 0,
                popped: 0,
                peak: 0,
            }
        }

        fn push(&mut self, time: Cycle, event: E) {
            assert!(
                time >= self.now,
                "event scheduled in the past: t={} < now={}",
                time,
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pushed += 1;
            self.heap.push(Entry { time, seq, event });
            self.peak = self.peak.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(Cycle, E)> {
            let entry = self.heap.pop()?;
            debug_assert!(entry.time >= self.now);
            self.now = entry.time;
            self.popped += 1;
            Some((entry.time, entry.event))
        }

        fn pop_batch(&mut self, out: &mut Vec<(Cycle, E)>) -> usize {
            let Some((time, event)) = self.pop() else {
                return 0;
            };
            out.push((time, event));
            let mut drained = 1;
            while self.peek_time() == Some(time) {
                out.push(self.pop().expect("peeked entry vanished"));
                drained += 1;
            }
            drained
        }

        fn peek_time(&self) -> Option<Cycle> {
            self.heap.peek().map(|e| e.time)
        }
    }

    /// The ring and the reference driven in lock step; every operation
    /// compares what it returns and then the whole observable state.
    struct Lockstep {
        ring: EventQueue<u64>,
        heap: HeapQueue<u64>,
        next_id: u64,
    }

    impl Lockstep {
        fn new() -> Self {
            Self {
                ring: EventQueue::new(),
                heap: HeapQueue::new(),
                next_id: 0,
            }
        }

        fn agree(&self) {
            assert_eq!(self.ring.now(), self.heap.now);
            assert_eq!(self.ring.len(), self.heap.heap.len());
            assert_eq!(self.ring.is_empty(), self.heap.heap.is_empty());
            assert_eq!(self.ring.peek_time(), self.heap.peek_time());
            assert_eq!(self.ring.peak_len(), self.heap.peak);
            assert_eq!(self.ring.total_pushed(), self.heap.pushed);
            assert_eq!(self.ring.total_popped(), self.heap.popped);
        }

        /// Push a fresh payload `delay` cycles ahead; returns the payload.
        fn push_after(&mut self, delay: Cycle) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.ring.push_after(delay, id);
            self.heap.push(self.heap.now + delay, id);
            self.agree();
            id
        }

        fn pop(&mut self) -> Option<(Cycle, u64)> {
            let got = self.ring.pop();
            assert_eq!(got, self.heap.pop());
            self.agree();
            got
        }

        fn pop_batch(&mut self, out: &mut Vec<(Cycle, u64)>) -> usize {
            let mut ring_out = Vec::new();
            let start = out.len();
            let n = self.ring.pop_batch(&mut ring_out);
            assert_eq!(n, self.heap.pop_batch(out));
            assert_eq!(ring_out[..], out[start..]);
            self.agree();
            n
        }

        fn drain(&mut self) -> Vec<u64> {
            std::iter::from_fn(|| self.pop())
                .map(|(_, id)| id)
                .collect()
        }
    }

    #[test]
    fn matches_heap_on_the_benchmark_hold_model() {
        // benchmark/src/layers.rs `queue_hold`: pre-fill to `depth`, drain
        // one timestamp, push every drained event back `d` ahead, `d = 0`
        // w.p. 1/4 else `1 + U[0, 2g)`; g from floyd_p64's cycles/events.
        for depth in [108u64, 335, 1025] {
            let gap = (depth as f64 * 1_175_847.0 / 3_202_978.0).max(1.0);
            let spread = (2.0 * gap).ceil() as u64;
            let mut rng = crate::SimRng::new(1996 + depth);
            let mut delay = move || {
                if rng.next_u64() & 3 == 0 {
                    0
                } else {
                    1 + rng.gen_range(spread)
                }
            };
            let mut q = Lockstep::new();
            for _ in 0..depth {
                q.push_after(delay());
            }
            let mut batch = Vec::new();
            let mut holds = 0;
            while holds < 20_000 {
                holds += q.pop_batch(&mut batch);
                for _ in batch.drain(..) {
                    q.push_after(delay());
                }
            }
            assert_eq!(q.ring.len() as u64, depth);
            assert_eq!(q.ring.total_overflowed(), 0, "spread {spread} < WINDOW");
        }
    }

    #[test]
    fn matches_heap_with_delays_straddling_the_window() {
        const W: u64 = WINDOW as u64;
        let edges = [0, 0, 1, 1, 2, W - 1, W, W + 1, 3 * W + 7, 1_000_000];
        let mut rng = crate::SimRng::new(21);
        let mut q = Lockstep::new();
        for _ in 0..64 {
            q.push_after(edges[rng.gen_index(edges.len())]);
        }
        let mut batch = Vec::new();
        for round in 0..4_000 {
            if q.pop_batch(&mut batch) == 0 {
                break;
            }
            // Re-push while the batch is being processed, as the machine
            // does: same-cycle pushes must come out after the batch.
            for _ in batch.drain(..) {
                q.push_after(edges[rng.gen_index(edges.len())]);
                if q.ring.len() < 256 && rng.gen_index(4) == 0 {
                    q.push_after(rng.gen_range(2 * W));
                }
            }
            // Single pops between batches, re-pushing only some.
            if round % 3 == 0 {
                for _ in 0..rng.gen_index(4) {
                    if q.pop().is_some() && rng.gen_index(2) == 0 {
                        q.push_after(edges[rng.gen_index(edges.len())]);
                    }
                }
            }
        }
        assert!(q.ring.total_overflowed() > 1_000, "the heap path ran");
        assert!(q.ring.now() > 1_000_000, "the far delays were reached");
        q.drain();
        assert_eq!(q.ring.total_popped(), q.ring.total_pushed());
    }

    #[test]
    fn overflow_event_precedes_a_later_direct_push_to_its_cycle() {
        const W: u64 = WINDOW as u64;
        let target = W + 5;
        let mut q = Lockstep::new();
        let far = q.push_after(target); // beyond the window: overflows
        let near = q.push_after(10);
        assert_eq!(q.ring.total_overflowed(), 1);
        assert_eq!(q.pop(), Some((10, near)));
        // `target` is now inside the window, so this push is direct — and
        // must queue behind the older event that came through the heap.
        let direct = q.push_after(target - 10);
        assert_eq!(q.ring.total_overflowed(), 1);
        assert_eq!(q.drain(), vec![far, direct]);
    }

    #[test]
    fn overflow_events_for_one_cycle_keep_push_order_across_an_advance() {
        const W: u64 = WINDOW as u64;
        let target = 2 * W;
        let mut q = Lockstep::new();
        let a = q.push_after(target);
        let x = q.push_after(5);
        assert_eq!(q.pop(), Some((5, x)));
        let b = q.push_after(target - 5); // still W or more ahead
        let y = q.push_after(W); // lands at W + 5, also through the heap
        assert_eq!(q.ring.total_overflowed(), 3);
        assert_eq!(q.pop(), Some((W + 5, y)));
        let c = q.push_after(target - (W + 5)); // direct
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), 3);
        assert_eq!(batch, vec![(target, a), (target, b), (target, c)]);
    }

    #[test]
    fn idle_gap_longer_than_the_window_is_jumped() {
        const W: u64 = WINDOW as u64;
        let mut q = Lockstep::new();
        let a = q.push_after(5 * W);
        let b = q.push_after(5 * W + 3);
        let c = q.push_after(9 * W);
        let a2 = q.push_after(5 * W);
        assert_eq!(q.ring.total_overflowed(), 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), 2);
        assert_eq!(batch, vec![(5 * W, a), (5 * W, a2)]);
        assert_eq!(q.pop(), Some((5 * W + 3, b)));
        assert_eq!(q.pop(), Some((9 * W, c)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.ring.now(), 9 * W);
    }
}
