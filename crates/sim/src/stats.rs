//! Statistics primitives: counters, log₂-bucketed histograms, and an
//! ordered name → value table used for experiment reports.

use std::fmt;

/// A saturating event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    #[inline]
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Histogram with log₂ buckets: bucket `b` holds samples in
/// `[2^(b-1), 2^b)` for `b ≥ 1` and bucket 0 holds the value 0.
/// Tracks exact sum/count/min/max so means are not bucketed.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of a sample: 0 for the value 0, else its bit length.
    #[inline]
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` samples of `value` at once: field for field what `n`
    /// calls of [`Self::record`] leave behind, so a caller that sees the
    /// same sample many times in a row (an idle link's zero backlog) can
    /// count locally and flush once. `n = 0` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket(value)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate p-th percentile (0..=100) from the bucket boundaries.
    /// Exact enough for latency reporting; not used for assertions.
    ///
    /// The bucket lower bound is clamped into `[min, max]`: with a single
    /// sample of 1000 the covering bucket starts at 512, and reporting a
    /// "p100" below the exact maximum (or a low percentile below the exact
    /// minimum) would be nonsense.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * (p / 100.0)).ceil() as u64;
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                let bound = if b == 0 { 0 } else { 1u64 << (b - 1) };
                return bound.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Raw log₂ bucket counts (index 0 holds the value 0, index `b ≥ 1`
    /// holds `[2^(b-1), 2^b)`), for serialization by the sweep runner.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Merge another histogram in. The two always agree on bucket geometry
    /// (the log₂ boundaries are fixed, not range-derived), so merging
    /// histograms built from runs of very different magnitudes — e.g.
    /// latency histograms from different machine shapes in one sweep
    /// summary — is just an element-wise sum. All totals saturate, matching
    /// [`Counter`] and `record`, so near-overflow inputs degrade to pinned
    /// values instead of wrapping into nonsense.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// An insertion-ordered `name → f64` table for experiment reports.
///
/// Used by the figure/table binaries to print aligned ASCII tables that
/// mirror the paper's layout.
#[derive(Clone, Debug, Default)]
pub struct StatTable {
    rows: Vec<(String, f64)>,
}

impl StatTable {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(row) = self.rows.iter_mut().find(|(n, _)| n == name) {
            row.1 = value;
        } else {
            self.rows.push((name.to_string(), value));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn rows(&self) -> &[(String, f64)] {
        &self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for StatTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in &self.rows {
            if value.fract() == 0.0 && value.abs() < 1e15 {
                writeln!(f, "{name:width$}  {:>14}", *value as i64)?;
            } else {
                writeln!(f, "{name:width$}  {value:>14.4}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_increments_and_saturates() {
        let mut c = Counter::default();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 11);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(90.0));
        assert!(h.percentile(90.0) <= h.percentile(100.0));
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(7);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 21);
        assert_eq!(a.max(), 9);
        assert_eq!(a.min(), 5);
    }

    #[test]
    fn histogram_percentile_clamped_to_observed_range() {
        // A single sample of 1000 lands in bucket [512, 1024): the bucket
        // lower bound (512) is below the true min/max (1000). Every
        // percentile of a one-sample histogram must report that sample.
        let mut h = Histogram::new();
        h.record(1000);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 1000, "p{p}");
        }
        // Low percentiles can never drop below the exact minimum.
        let mut h = Histogram::new();
        h.record(700);
        h.record(900);
        h.record(1000);
        assert!(h.percentile(1.0) >= h.min());
        assert!(h.percentile(100.0) <= h.max());
    }

    #[test]
    fn histogram_merge_saturates_instead_of_wrapping() {
        let mut big = Histogram::new();
        // A near-overflow histogram with a consistent bucket vector:
        // u64::MAX samples of value 0 in bucket 0.
        let mut huge = Histogram::new();
        huge.buckets[0] = u64::MAX;
        huge.count = u64::MAX;
        huge.sum = u64::MAX;
        huge.min = 0;
        big.merge(&huge);
        big.merge(&huge);
        assert_eq!(big.count(), u64::MAX, "count saturates");
        assert_eq!(big.sum(), u64::MAX, "sum saturates");
        assert_eq!(big.buckets()[0], u64::MAX, "bucket saturates");
    }

    #[test]
    fn histogram_merge_across_magnitudes_and_empty() {
        // Merging an empty histogram must not disturb min (empty min is the
        // internal sentinel, not the reported 0).
        let mut a = Histogram::new();
        a.record(100);
        a.merge(&Histogram::new());
        assert_eq!(a.min(), 100);
        assert_eq!(a.max(), 100);
        // Merging into an empty histogram adopts the other's range.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.min(), 100);
        assert_eq!(e.count(), 1);
        // Different-magnitude sources (shape-dependent latencies) share the
        // fixed log₂ geometry, so totals and extremes are exact.
        let mut small = Histogram::new();
        small.record(1);
        small.record(2);
        let mut large = Histogram::new();
        large.record(1 << 40);
        small.merge(&large);
        assert_eq!(small.count(), 3);
        assert_eq!(small.min(), 1);
        assert_eq!(small.max(), 1 << 40);
        assert_eq!(small.sum(), 3 + (1u64 << 40));
    }

    /// Every field, with `min` raw (the empty sentinel is `u64::MAX`, which
    /// the accessor hides).
    fn raw(h: &Histogram) -> ([u64; 65], u64, u64, u64, u64) {
        (h.buckets, h.count, h.sum, h.min, h.max)
    }

    /// Samples across the whole bucket range, zeros and near-overflow
    /// values included so `sum` saturates in some cases.
    fn sample() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 0u64..8, 0u64..100_000, any::<u64>()]
    }

    proptest! {
        #[test]
        fn record_n_equals_n_records(
            before in proptest::collection::vec(sample(), 0..8),
            value in sample(),
            n in 0u64..40,
        ) {
            let mut batched = Histogram::new();
            before.iter().for_each(|&v| batched.record(v));
            let mut one_by_one = batched.clone();
            batched.record_n(value, n);
            (0..n).for_each(|_| one_by_one.record(value));
            prop_assert_eq!(raw(&batched), raw(&one_by_one));
            if before.is_empty() && n == 0 {
                prop_assert_eq!(batched.min, u64::MAX, "no-op keeps the empty sentinel");
            }
        }

        #[test]
        fn split_then_merge_equals_recording_into_one(
            stream in proptest::collection::vec((sample(), 0usize..6), 0..60),
            live in proptest::collection::vec(any::<bool>(), 1..6),
        ) {
            // Only the `live` parts receive samples; the others stay empty
            // wherever they sit in the merge order: the `vc_queue` of a
            // channel that never carried a message.
            let targets: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
            let mut whole = Histogram::new();
            let mut parts = vec![Histogram::new(); live.len()];
            for &(v, pick) in stream.iter().filter(|_| !targets.is_empty()) {
                whole.record(v);
                parts[targets[pick % targets.len()]].record(v);
            }
            let mut merged = Histogram::new();
            parts.iter().for_each(|p| merged.merge(p));
            prop_assert_eq!(raw(&merged), raw(&whole));
        }
    }

    #[test]
    fn stat_table_orders_and_updates() {
        let mut t = StatTable::new();
        t.set("alpha", 1.0);
        t.set("beta", 2.0);
        t.set("alpha", 3.0);
        assert_eq!(t.get("alpha"), Some(3.0));
        assert_eq!(t.rows().len(), 2);
        assert_eq!(t.rows()[0].0, "alpha");
        let out = t.to_string();
        assert!(out.contains("alpha"));
        assert!(out.contains("beta"));
    }
}
