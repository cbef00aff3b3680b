//! Log-spaced fixed-bucket latency histograms.
//!
//! The recording side is a handful of relaxed atomic adds — safe to call from
//! every request thread with no coordination — and the readout side works on
//! immutable [`HistSnapshot`]s, so percentiles, merging, and exposition never
//! block a recorder.
//!
//! Bucketing is log-linear (HDR-histogram style): values `0..8` get exact
//! unit buckets, and every octave above that is split into 4 sub-buckets, so
//! the relative width of any bucket is ≤ 25 %. With [`NUM_BUCKETS`] = 128 the
//! top regular bucket starts near 2³² — recording in microseconds that covers
//! ~71 minutes before the overflow bucket saturates, far beyond any latency
//! this system can legally report. Merging two histograms bucket-wise is
//! *exact*: `merge(a, b)` equals recording the union of both value streams.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Total bucket count, including the final overflow (saturation) bucket.
pub const NUM_BUCKETS: usize = 128;

/// The bucket a value lands in. Monotonic in `v`; values past the last
/// regular bucket saturate into bucket `NUM_BUCKETS - 1`.
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (8 + (msb - 3) * 4 + sub).min(NUM_BUCKETS - 1)
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i < 8 {
        return i as u64;
    }
    let g = i - 8;
    let msb = 3 + g / 4;
    let sub = (g % 4) as u64;
    (1u64 << msb) + sub * (1u64 << (msb - 2))
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow bucket).
pub fn bucket_upper(i: usize) -> u64 {
    debug_assert!(i < NUM_BUCKETS);
    if i == NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    fn new() -> HistCore {
        HistCore {
            buckets: [0u64; NUM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A shared histogram handle. Cloning shares the underlying counters.
#[derive(Clone, Debug)]
pub struct Histogram(pub(crate) Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh detached histogram (registry-owned ones come from
    /// [`crate::Registry::histogram`]).
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistCore::new()))
    }

    /// Record one observation. Relaxed atomics only — no locks, no
    /// allocation.
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        c.count.fetch_add(1, Relaxed);
        c.sum.fetch_add(v, Relaxed);
        c.max.fetch_max(v, Relaxed);
    }

    /// Record a duration in microseconds (the convention for every latency
    /// histogram in this workspace).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Copy out the current counts. Individual loads are relaxed, so a
    /// snapshot taken while recorders run may be mid-update by one
    /// observation — exactness holds for quiesced histograms (tests, merged
    /// offline readouts).
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &self.0;
        HistSnapshot {
            buckets: c.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: c.count.load(Relaxed),
            sum: c.sum.load(Relaxed),
            max: c.max.load(Relaxed),
        }
    }
}

/// An immutable copy of a histogram's counters: what percentile readout,
/// exact merging, and exposition operate on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (`NUM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping beyond u64 — practically unreachable
    /// for microsecond latencies).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Exact merge: the result is bucket-for-bucket identical to having
    /// recorded both value streams into one histogram.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// The value estimate for quantile `q` in `[0, 1]`: the upper bound of
    /// the bucket holding the rank-`ceil(q·count)` observation (so the true
    /// quantile is ≤ the estimate, and within one bucket's width of it). 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // the overflow bucket has no finite upper bound; report the
                // recorded max, which is the best truthful answer there
                return if i == NUM_BUCKETS - 1 {
                    self.max
                } else {
                    bucket_upper(i)
                };
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Iterate the populated buckets as `(lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower(i), bucket_upper(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_tile_the_u64_line() {
        // lower bounds strictly increase and each bucket starts one past the
        // previous bucket's upper bound
        for i in 1..NUM_BUCKETS {
            assert!(bucket_lower(i) > bucket_lower(i - 1), "bucket {i}");
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i}");
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn recording_accumulates_and_saturates() {
        let h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(100);
        h.record(u64::MAX); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[3], 2);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }

    #[test]
    fn quantile_of_known_stream() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50's bucket must contain the true median (50)
        let est = s.p50();
        let bi = bucket_index(est);
        assert!(
            bucket_lower(bi) <= 50 && 50 <= bucket_upper(bi),
            "p50 bucket [{}, {}] should contain 50",
            bucket_lower(bi),
            bucket_upper(bi)
        );
        assert!(s.p99() >= s.p50());
        assert_eq!(s.quantile(1.0), bucket_upper(bucket_index(100)));
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn empty_snapshot_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.p50(), s.p99(), s.max), (0, 0, 0, 0));
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.nonzero_buckets().count(), 0);
    }

    proptest! {
        /// Bucket index is monotone non-decreasing in the value.
        #[test]
        fn prop_bucket_monotone(a in any::<u64>(), b in any::<u64>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(bucket_index(lo) <= bucket_index(hi));
        }

        /// Every value lands in the bucket whose bounds contain it.
        #[test]
        fn prop_bucket_bounds_contain_value(v in any::<u64>()) {
            let i = bucket_index(v);
            prop_assert!(bucket_lower(i) <= v);
            prop_assert!(v <= bucket_upper(i));
        }
    }

    proptest! {
        /// merge(h1, h2) is exactly the histogram of the concatenated
        /// streams.
        #[test]
        fn prop_merge_is_exact(
            xs in proptest::collection::vec(0u64..1_000_000, 0..64),
            ys in proptest::collection::vec(0u64..1_000_000, 0..64),
        ) {
            let (h1, h2, hu) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &x in &xs { h1.record(x); hu.record(x); }
            for &y in &ys { h2.record(y); hu.record(y); }
            prop_assert_eq!(h1.snapshot().merge(&h2.snapshot()), hu.snapshot());
        }
    }

    proptest! {
        /// The quantile estimate's bucket contains the sorted-reference
        /// quantile (estimate within one bucket of the truth).
        #[test]
        fn prop_quantile_within_one_bucket(
            xs in proptest::collection::vec(0u64..10_000_000, 1..128),
            q in 0.01f64..1.0,
        ) {
            let mut xs = xs;
            let h = Histogram::new();
            for &x in &xs { h.record(x); }
            xs.sort_unstable();
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let truth = xs[rank - 1];
            let est = h.snapshot().quantile(q);
            // the estimate is the upper bound of the truth's bucket
            prop_assert_eq!(est, bucket_upper(bucket_index(truth)));
            prop_assert!(est >= truth);
        }
    }

    proptest! {
        /// Values of any magnitude saturate into the overflow bucket without
        /// disturbing totals.
        #[test]
        fn prop_overflow_saturates(vs in proptest::collection::vec(any::<u64>(), 1..64)) {
            let h = Histogram::new();
            for &v in &vs { h.record(v); }
            let s = h.snapshot();
            prop_assert_eq!(s.count, vs.len() as u64);
            prop_assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
            prop_assert_eq!(s.max, *vs.iter().max().unwrap());
        }
    }
}
