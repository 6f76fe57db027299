//! In-memory span aggregation for the traced pass.
//!
//! The wrappers in [`crate::wrap`] bracket every call across a layer
//! boundary with two clock reads and fold the duration into one [`Agg`] per
//! `(name, parent)` edge. Nothing is written until the workload ends.
//! [`Clock`] holds the measured cost of the bracketing itself, so that self
//! times can be compensated and the pieces still add up to the traced wall.

use crate::json::Value;
use std::time::Instant;

/// Buckets of the log₂ duration histogram: bucket `b` counts spans with
/// `2^(b-1) <= ns < 2^b` (bucket 0: 0 ns). 2^39 ns is nine minutes.
pub const HIST_BUCKETS: usize = 40;

/// Aggregate of every span recorded on one edge.
#[derive(Clone, Debug)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Agg {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Agg {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - ns.leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Record the time since `start`.
    #[inline]
    pub fn stop(&mut self, start: Instant) {
        self.record(start.elapsed().as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
    }

    /// One edge of the span file. `self_ns` is the clock-compensated time
    /// not covered by child spans.
    pub fn to_json(&self, name: &str, parent: &str, self_ns: f64) -> Value {
        let last = self.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        Value::obj()
            .with("name", name)
            .with("parent", parent)
            .with("count", self.count)
            .with("total_ns", self.total_ns)
            .with("self_ns", self_ns)
            .with("min_ns", if self.count == 0 { 0 } else { self.min_ns })
            .with("max_ns", self.max_ns)
            .with(
                "log2_hist",
                self.hist[..last]
                    .iter()
                    .map(|&c| Value::from(c))
                    .collect::<Vec<_>>(),
            )
    }
}

/// The measured cost of one span's bracketing on this host.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// What an empty span measures: the part of the clock pair that falls
    /// between the two reads, and so inside every recorded duration.
    pub empty_ns: f64,
    /// What an empty span costs its surroundings: both clock reads plus the
    /// fold into the [`Agg`].
    pub pair_ns: f64,
}

impl Clock {
    pub fn calibrate() -> Clock {
        const N: usize = 200_000;
        let mut agg = Agg::default();
        let mut durations = Vec::with_capacity(N);
        let t = Instant::now();
        for _ in 0..N {
            let start = Instant::now();
            agg.stop(std::hint::black_box(start));
        }
        let pair_ns = t.elapsed().as_nanos() as f64 / N as f64;
        std::hint::black_box(&agg);
        for _ in 0..N {
            let start = Instant::now();
            durations.push(start.elapsed().as_nanos() as u64);
        }
        // Lower quartile: interrupts only ever lengthen a reading.
        durations.sort_unstable();
        let empty_ns = durations[N / 4] as f64;
        Clock {
            empty_ns: empty_ns.min(pair_ns),
            pair_ns,
        }
    }

    /// Time really spent inside the spans of `agg`.
    pub fn inside(&self, agg: &Agg) -> f64 {
        agg.total_ns as f64 - agg.count as f64 * self.empty_ns
    }

    /// Time the spans of `agg` took out of the enclosing scope:
    /// [`inside`](Self::inside) plus one whole clock pair each.
    pub fn footprint(&self, agg: &Agg) -> f64 {
        self.inside(agg) + agg.count as f64 * self.pair_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_tracks_count_total_extremes_and_buckets() {
        let mut a = Agg::default();
        for ns in [0, 1, 3, 900, 1024] {
            a.record(ns);
        }
        assert_eq!(a.count, 5);
        assert_eq!(a.total_ns, 1928);
        assert_eq!((a.min_ns, a.max_ns), (0, 1024));
        assert_eq!(a.hist[0], 1); // 0
        assert_eq!(a.hist[1], 1); // 1
        assert_eq!(a.hist[2], 1); // 2..3
        assert_eq!(a.hist[10], 1); // 512..1023
        assert_eq!(a.hist[11], 1); // 1024..2047
    }

    #[test]
    fn merge_adds_up() {
        let mut a = Agg::default();
        a.record(10);
        let mut b = Agg::default();
        b.record(1000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.total_ns, 1012);
        assert_eq!((a.min_ns, a.max_ns), (2, 1000));
    }

    #[test]
    fn compensation_splits_the_pair_cost() {
        let clock = Clock {
            empty_ns: 20.0,
            pair_ns: 50.0,
        };
        let mut a = Agg::default();
        a.record(120);
        a.record(220);
        assert_eq!(clock.inside(&a), 300.0);
        assert_eq!(clock.footprint(&a), 400.0);
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let c = Clock::calibrate();
        assert!(c.pair_ns > 0.0);
        assert!(c.empty_ns >= 0.0 && c.empty_ns <= c.pair_ns);
    }
}
