//! Property tests for the simulation substrate.

use dirtree_sim::{EventQueue, SimRng};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..500)) {
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut q = EventQueue::new();
        for (i, &t) in sorted.iter().enumerate() {
            q.push(t, i);
        }
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn equal_time_events_preserve_insertion_order(n in 1usize..200, t in 0u64..1000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(t, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_is_a_stable_priority_queue(
        ops in proptest::collection::vec((0u64..40, 0u8..4), 1..300)
    ) {
        // Model: a list kept sorted by (time, push number). Times are
        // multiples of 256 up to 10 000: pushes fall on both sides of the
        // queue's 1 024-cycle ring window, and one cycle is often pushed to
        // from beyond the window and again from inside it, in that order.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut batch = Vec::new();
        let mut seq = 0usize;
        for (t, op) in ops {
            match op {
                0 => {
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(q.pop(), want);
                }
                1 => {
                    let same = reference.iter().take_while(|e| e.0 == reference[0].0).count();
                    let want: Vec<_> = reference.drain(..same).collect();
                    batch.clear();
                    prop_assert_eq!(q.pop_batch(&mut batch), want.len());
                    prop_assert_eq!(&batch, &want);
                }
                _ => {
                    let t = (t * 256).max(q.now());
                    q.push(t, seq);
                    let at = reference.partition_point(|e| e.0 <= t);
                    reference.insert(at, (t, seq));
                    seq += 1;
                }
            }
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.peek_time(), reference.first().map(|e| e.0));
        }
    }

    #[test]
    fn rng_range_is_always_in_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.gen_range(bound) < bound);
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in proptest::collection::vec(0u32..100, 0..100)) {
        let mut r = SimRng::new(seed);
        let mut shuffled = v.clone();
        r.shuffle(&mut shuffled);
        shuffled.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(shuffled, v);
    }
}
