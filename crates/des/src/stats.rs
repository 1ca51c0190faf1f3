//! Lightweight simulation statistics: counters, gauges and log2
//! histograms. These are the primitive instruments; [`crate::obs`] names
//! and aggregates them into a registry.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A shared event counter.
#[derive(Clone, Default)]
pub struct Counter {
    n: Rc<Cell<u64>>,
}

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.n.set(self.n.get() + 1);
    }

    /// Add `k`.
    pub fn add(&self, k: u64) {
        self.n.set(self.n.get() + k);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.n.get()
    }
}

/// A shared level indicator (queue depths, in-flight transfers).
///
/// Unlike [`Counter`] a gauge moves both ways; it also tracks its high
/// watermark, which is usually the interesting number for queue depths.
#[derive(Clone, Default)]
pub struct Gauge {
    v: Rc<Cell<i64>>,
    max: Rc<Cell<i64>>,
}

impl Gauge {
    /// Create a zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current level.
    pub fn set(&self, v: i64) {
        self.v.set(v);
        self.max.set(self.max.get().max(v));
    }

    /// Move the level by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.set(self.v.get() + d);
    }

    /// Decrease the level by `d`.
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.get()
    }

    /// Highest level ever set (0 for a fresh gauge).
    pub fn high_watermark(&self) -> i64 {
        self.max.get()
    }
}

/// Histogram with power-of-two buckets, for latency distributions.
///
/// Bucketing, precisely: bucket 0 counts *only* samples equal to 0;
/// bucket `i >= 1` counts samples in `[2^(i-1), 2^i)`. So 1 is the sole
/// occupant of bucket 1, `[2, 4)` lands in bucket 2, and in general a
/// sample `v > 0` lands in bucket `bit_length(v)` — zero-cycle and
/// one-cycle events are distinguishable, which matters when the paper's
/// fast paths really do complete in under a cycle of overhead.
#[derive(Clone, Default)]
pub struct Log2Histogram {
    buckets: Rc<RefCell<Vec<u64>>>,
    count: Rc<Cell<u64>>,
    sum: Rc<Cell<u128>>,
    max: Rc<Cell<u64>>,
}

impl Log2Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize; // 0 for v == 0, else bit_length(v)
        let mut b = self.buckets.borrow_mut();
        if b.len() <= idx {
            b.resize(idx + 1, 0);
        }
        b[idx] += 1;
        self.count.set(self.count.get() + 1);
        self.sum.set(self.sum.get() + v as u128);
        self.max.set(self.max.get().max(v));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum.get()
    }

    /// Arithmetic mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count.get() == 0 {
            0.0
        } else {
            self.sum.get() as f64 / self.count.get() as f64
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max.get()
    }

    /// Snapshot of bucket counts; see the type docs for the index → range
    /// mapping.
    pub fn buckets(&self) -> Vec<u64> {
        self.buckets.borrow().clone()
    }

    /// Interpolated quantile: linear interpolation *within* the bucket
    /// containing quantile `q`, so nearby tail quantiles do not
    /// collapse onto the same bucket lower bound. Pure integer
    /// arithmetic over the bucket counts — deterministic — and clamped
    /// to the largest recorded sample.
    pub fn quantile_interpolated(&self, q: f64) -> u64 {
        log2_quantile_interpolated(&self.buckets.borrow(), self.count.get(), self.max.get(), q)
    }
}

/// [`Log2Histogram::quantile_interpolated`] over a raw bucket-count
/// slice (same bucket → value-range mapping). Shared with the windowed
/// time-series sampler, which computes per-interval quantiles from
/// *delta* bucket counts that never live in a histogram object.
///
/// `max` caps the result (pass the largest recorded sample, or
/// `u64::MAX` when no per-window maximum is tracked).
pub fn log2_quantile_interpolated(buckets: &[u64], total: u64, max: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut acc = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if acc + c >= target {
            if i == 0 {
                return 0;
            }
            // Bucket i spans [lo, 2*lo); place rank `into` (1..=c) of
            // its `c` samples at the into/(c+1) point of the span.
            let lo = 1u64 << (i - 1);
            let into = target - acc;
            let v = lo + ((lo as u128 * into as u128) / (c as u128 + 1)) as u64;
            return v.min(max);
        }
        acc += c;
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn histogram_buckets() {
        let h = Log2Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1024);
        let b = h.buckets();
        assert_eq!(b[0], 1); // exactly 0
        assert_eq!(b[1], 1); // exactly 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 2); // 4, 7
        assert_eq!(b[4], 1); // 8
        assert_eq!(b[11], 1); // 1024
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 0 and 1 must land in distinct buckets, and every power of two
        // opens a new bucket while 2^i - 1 closes the previous one.
        let h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        for i in 1..=32usize {
            let h = Log2Histogram::new();
            let lo = 1u64 << (i - 1);
            h.record(lo); // lower edge of bucket i
            h.record((1u64 << i) - 1); // upper edge of bucket i
            h.record(1u64 << i); // lower edge of bucket i + 1
            let b = h.buckets();
            assert_eq!(b[i], 2, "edges of bucket {i}");
            assert_eq!(b[i + 1], 1, "2^{i} opens bucket {}", i + 1);
        }
    }

    #[test]
    fn gauge_tracks_level_and_watermark() {
        let g = Gauge::new();
        g.add(3);
        g.add(4);
        g.sub(5);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_watermark(), 7);
        let g2 = g.clone();
        g2.set(1);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_watermark(), 7);
    }

    #[test]
    fn histogram_mean() {
        let h = Log2Histogram::new();
        h.record(10);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Log2Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_interpolated(0.9), 0);
    }

    #[test]
    fn interpolated_quantile_spreads_within_a_bucket() {
        // 10 samples all in bucket 7 ([64, 128)): interpolation spreads
        // ranks across the bucket while staying inside it.
        let h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        let p50 = h.quantile_interpolated(0.5);
        let p99 = h.quantile_interpolated(0.99);
        assert!(p50 > 64 && p50 < 128, "p50 = {p50}");
        assert!(p99 > p50, "p99 ({p99}) must exceed p50 ({p50})");
        // Clamped to the largest recorded sample.
        assert!(p99 <= 100);
    }

    #[test]
    fn interpolated_quantile_is_deterministic_and_monotone() {
        let h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let qs = [0.01, 0.25, 0.5, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile_interpolated(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
        }
        let again: Vec<u64> = qs.iter().map(|&q| h.quantile_interpolated(q)).collect();
        assert_eq!(vals, again);
        assert_eq!(*vals.last().unwrap(), 1000, "q=1.0 lands on the max");
    }

    #[test]
    fn interpolated_quantile_zero_bucket_and_exact_singleton() {
        let h = Log2Histogram::new();
        h.record(0);
        assert_eq!(h.quantile_interpolated(0.5), 0);
        let h = Log2Histogram::new();
        h.record(1);
        // Bucket 1 is [1, 2): interpolation cannot leave it, and the
        // max clamp pins the singleton to its exact value.
        assert_eq!(h.quantile_interpolated(0.5), 1);
    }

    #[test]
    fn interpolated_quantile_over_raw_buckets_matches_histogram() {
        let h = Log2Histogram::new();
        for v in [3u64, 5, 9, 9, 17, 40, 100] {
            h.record(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                log2_quantile_interpolated(&h.buckets(), h.count(), h.max(), q),
                h.quantile_interpolated(q)
            );
        }
    }
}
