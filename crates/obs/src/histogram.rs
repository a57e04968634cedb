//! Log-bucketed mergeable latency/size histogram ([`Histogram`]).
//!
//! The bucket layout is *fixed* (no per-instance configuration), so any two
//! histograms — per-thread, per-shard, per-process — merge by plain
//! bucket-wise addition. Values `< 32` get an exact bucket each; above
//! that, every power of two is split into 32 sub-buckets, bounding the
//! relative quantile error at `1/32` (≈ 3.2 %). The full `u64` range maps
//! into [`NUM_BUCKETS`] buckets, so a histogram is ~15 KiB and cheap enough
//! to keep per method × phase.
//!
//! Recording is wait-free: one relaxed `fetch_add` on the bucket plus
//! count/sum/min/max updates, no locks, no allocation — safe inside the
//! allocation-free warm query path (`tests/alloc_free.rs`).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// buckets, so relative error is bounded by `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS; // 32 sub-buckets per octave

/// Total number of buckets covering all of `u64`.
///
/// Buckets `0..32` are exact; above, octaves `5..=63` contribute 32
/// buckets each: `32 + 59 * 32 = 1920`.
pub const NUM_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Bucket index for a value (total order preserving).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let offset = (v >> (msb - SUB_BITS)) - SUB; // 0..32
        ((msb - SUB_BITS) as u64 * SUB + SUB + offset) as usize
    }
}

/// Inclusive `[lower, upper]` value range of a bucket.
#[inline]
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        (idx, idx)
    } else {
        let shift = (idx - SUB) / SUB; // octave above the exact range
        let offset = (idx - SUB) % SUB;
        let lower = (SUB + offset) << shift;
        let upper = lower + ((1u64 << shift) - 1);
        (lower, upper)
    }
}

/// A fixed-layout, thread-safe, mergeable log-bucketed histogram.
///
/// `count` and `sum` are exact (sum saturates at `u64::MAX`); quantiles
/// come from the bucket counts with relative error ≤ `2^-SUB_BITS`.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Relaxed))
            .field("sum", &self.sum.load(Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// An empty histogram (allocates its bucket array once, here).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Wait-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        // Saturate the sum on overflow (best-effort under concurrency;
        // only reachable with values near u64::MAX).
        let prev = self.sum.fetch_add(v, Relaxed);
        if prev.checked_add(v).is_none() {
            self.sum.store(u64::MAX, Relaxed);
        }
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds.
    #[inline]
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Folds another histogram into this one by bucket-wise addition.
    pub fn merge_from(&self, other: &HistogramSnapshot) {
        for (b, &n) in self.buckets.iter().zip(other.buckets.iter()) {
            if n != 0 {
                b.fetch_add(n, Relaxed);
            }
        }
        self.count.fetch_add(other.count, Relaxed);
        let prev = self.sum.fetch_add(other.sum, Relaxed);
        if prev.checked_add(other.sum).is_none() {
            self.sum.store(u64::MAX, Relaxed);
        }
        if other.count > 0 {
            self.min.fetch_min(other.min, Relaxed);
            self.max.fetch_max(other.max, Relaxed);
        }
    }

    /// Point-in-time copy of the counters (each counter individually
    /// consistent; concurrent recording may tear across counters).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }
}

/// A plain (non-atomic) copy of a [`Histogram`]: quantile queries, merge
/// algebra, and the unit of export in [`crate::MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no recorded values.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (`0.0` when empty — never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]`, with relative error bounded by
    /// `2^-SUB_BITS`. Returns `0` for an empty histogram — never NaN.
    ///
    /// The returned value is the upper bound of the bucket holding the
    /// rank-`⌈q·count⌉` value, clamped to the observed `[min, max]` range
    /// (exact for values `< 32`, which get singleton buckets).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                let (_, upper) = bucket_bounds(idx);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Merges `other` into `self` by bucket-wise (saturating) addition.
    ///
    /// Because the bucket layout is fixed, merging is commutative and
    /// associative — per-thread or per-shard histograms combine into the
    /// same global histogram regardless of order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, &b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_tight() {
        // Exhaustive at the low end, sampled elsewhere (including edges).
        let mut probes: Vec<u64> = (0..4096).collect();
        let mut x = splitmix::SplitMix64(0xb0c4);
        for _ in 0..20_000 {
            probes.push(x.next_u64());
        }
        for shift in 0..64 {
            probes.push(1u64 << shift);
            probes.push((1u64 << shift).wrapping_sub(1));
        }
        probes.push(u64::MAX);
        probes.sort_unstable();
        let mut prev_idx = 0usize;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= prev_idx, "index not monotone at {v}");
            prev_idx = idx;
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
            // Relative width bound: (hi - lo) <= lo / 32 for log buckets.
            if idx as u64 >= SUB {
                assert!(hi - lo <= lo >> SUB_BITS, "bucket too wide at {v}");
            } else {
                assert_eq!(lo, hi);
            }
        }
    }

    #[test]
    fn every_bucket_roundtrips_through_its_bounds() {
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if idx + 1 < NUM_BUCKETS {
                let (next_lo, _) = bucket_bounds(idx + 1);
                assert_eq!(hi + 1, next_lo, "gap/overlap after bucket {idx}");
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    /// Property: for a recorded population, the reported quantile is within
    /// the bucket relative-error bound of the true order statistic.
    #[test]
    fn quantiles_are_within_relative_error_bound() {
        let mut x = splitmix::SplitMix64(0x51a7);
        // Mixed scales: small exact values, mid-range, heavy tail.
        let mut values: Vec<u64> = Vec::new();
        for i in 0..5000u64 {
            values.push(match i % 4 {
                0 => x.next_u64() % 32,
                1 => 100 + x.next_u64() % 10_000,
                2 => 1_000_000 + x.next_u64() % 1_000_000_000,
                _ => x.next_u64() >> (x.next_u64() % 40),
            });
        }
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), values.len() as u64);
        values.sort_unstable();
        for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let got = snap.quantile(q);
            // Reported value lies in the bucket containing the true order
            // statistic, so relative error <= 2^-SUB_BITS.
            let (lo, hi) = bucket_bounds(bucket_index(truth));
            assert!(
                got >= lo && got <= hi,
                "q={q}: got {got}, truth {truth} in bucket [{lo}, {hi}]"
            );
            let err = got.abs_diff(truth) as f64;
            let bound = (truth >> SUB_BITS).max(1) as f64;
            assert!(err <= bound, "q={q}: |{got} - {truth}| > {bound}");
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut x = splitmix::SplitMix64(0xfeed);
        let make = |x: &mut splitmix::SplitMix64, n: usize| {
            let h = Histogram::new();
            for _ in 0..n {
                h.record(x.next_u64() >> (x.next_u64() % 50));
            }
            h.snapshot()
        };
        let (a, b, c) = (make(&mut x, 400), make(&mut x, 700), make(&mut x, 123));

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge not commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge not associative");
        assert_eq!(ab_c.count(), a.count() + b.count() + c.count());
    }

    #[test]
    fn merge_from_matches_snapshot_merge() {
        let h1 = Histogram::new();
        let h2 = Histogram::new();
        for v in [0, 1, 31, 32, 33, 1000, 123_456_789, u64::MAX] {
            h1.record(v);
            h2.record(v.wrapping_mul(3) | 1);
        }
        let global = Histogram::new();
        global.merge_from(&h1.snapshot());
        global.merge_from(&h2.snapshot());
        let mut expect = h1.snapshot();
        expect.merge(&h2.snapshot());
        assert_eq!(global.snapshot(), expect);
    }

    #[test]
    fn u64_overflow_edges() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.sum(), u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), u64::MAX);
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert_eq!(snap.quantile(0.0), 0);

        // Saturating merge: count/sum pin at u64::MAX, quantiles stay sane.
        let mut a = snap.clone();
        a.merge(&snap);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 6);
        assert_eq!(a.p999(), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zeros_and_nan_free() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.sum(), 0);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p999(), 0);
        assert!(snap.mean() == 0.0);
    }

    #[test]
    fn exact_sum_reconciles_with_inputs() {
        let mut x = splitmix::SplitMix64(7);
        let h = Histogram::new();
        let mut total = 0u64;
        for _ in 0..10_000 {
            let v = x.next_u64() % 1_000_000;
            total += v;
            h.record(v);
        }
        assert_eq!(h.sum(), total);
        assert_eq!(h.snapshot().sum(), total);
    }
}
