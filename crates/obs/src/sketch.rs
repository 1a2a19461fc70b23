//! A deterministic streaming quantile sketch for latency SLO tracking.
//!
//! HDR-histogram-style bucketing over `u64` values: everything below 128
//! is counted exactly, and each power-of-two octave above that is split
//! into 64 sub-buckets, so the reported quantile never overstates the
//! true nearest-rank percentile by more than `value / 64` (~1.6%
//! relative error). Buckets live in a `BTreeMap`, so iteration — and
//! therefore every quantile query — is fully deterministic across runs
//! and processes.
//!
//! Sketches are mergeable ([`QuantileSketch::merge`]): merging the
//! per-function sketches of a cluster run yields exactly the sketch the
//! run would have built globally, so cluster-wide percentiles need no
//! raw latencies.
//!
//! This is the workspace's one latency-percentile definition. The
//! cluster simulator folds each completion into one sketch per function
//! and the scope analyzer folds each attribution record into its own;
//! both see the same latencies, so the cluster report, the scope report
//! and their metrics write the same p50/p95/p99, per function and, from
//! the merged sketches, for the whole run. Each value is never below the
//! exact nearest-rank percentile and at most `exact / 64` above it.

use std::collections::BTreeMap;

/// Sub-bucket resolution: 2^6 = 64 sub-buckets per octave.
const SUB_BITS: u32 = 6;
/// Values below this are their own (exact) bucket.
const LINEAR_LIMIT: u64 = 1 << (SUB_BITS + 1);

/// Bucket index for a value (exact below [`LINEAR_LIMIT`], logarithmic
/// with 64 sub-buckets per octave above it).
fn bucket_index(v: u64) -> u32 {
    if v < LINEAR_LIMIT {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as u32) & ((1 << SUB_BITS) - 1);
    LINEAR_LIMIT as u32 + (msb - SUB_BITS - 1) * (1 << SUB_BITS) + sub
}

/// Inclusive upper bound of a bucket (the value a quantile query
/// reports for ranks landing in it).
fn bucket_upper(idx: u32) -> u64 {
    if u64::from(idx) < LINEAR_LIMIT {
        return u64::from(idx);
    }
    let rel = idx - LINEAR_LIMIT as u32;
    let group = rel >> SUB_BITS;
    let sub = rel & ((1 << SUB_BITS) - 1);
    let shift = group + 1;
    // The top bucket's upper bound is 2^64 - 1; compute in u128 so the
    // shift cannot overflow.
    let upper = ((u128::from(LINEAR_LIMIT / 2) + u128::from(sub) + 1) << shift) - 1;
    upper.min(u128::from(u64::MAX)) as u64
}

/// A mergeable, deterministic streaming quantile sketch over `u64` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: BTreeMap<u32, u64>,
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        if self.total == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        *self.counts.entry(bucket_index(value)).or_insert(0) += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Folds another sketch into this one. The result is identical to
    /// having observed both value streams into a single sketch, in any
    /// order — the scope report relies on this to build cluster-wide
    /// quantiles from per-function sketches.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.total == 0 {
            return;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (&idx, &c) in &other.counts {
            *self.counts.entry(idx).or_insert(0) += c;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Nearest-rank quantile (`p` in percent, 0..=100; a larger `p`
    /// reads the maximum): the upper bound of the bucket holding the
    /// rank-`max(1, ceil(n·p/100))` smallest value, clamped to the
    /// observed `[min, max]`. Returns 0 when empty. Never below the exact
    /// nearest-rank percentile, and never above it by more than
    /// `exact / 64` (exact below 128).
    pub fn quantile(&self, p: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (u128::from(self.total) * u128::from(p))
            .div_ceil(100)
            .clamp(1, u128::from(self.total)) as u64;
        let mut cum = 0u64;
        for (&idx, &c) in &self.counts {
            cum += c;
            if cum >= rank {
                return bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over a sorted slice: the value of
    /// rank `max(1, ceil(n·p/100))`, the reference the sketch's bound is
    /// stated against.
    fn exact_percentile(sorted: &[u64], p: u32) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = (sorted.len() as u64 * u64::from(p)).div_ceil(100).max(1) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// The nearest-rank definition itself: the smallest value `v` such
    /// that at least `p`% of the data is ≤ `v`.
    fn brute_force(data: &[u64], p: u32) -> u64 {
        for &v in data {
            let at_or_below = data.iter().filter(|&&y| y <= v).count() as u64;
            if at_or_below * 100 >= u64::from(p) * data.len() as u64 {
                return v;
            }
        }
        *data.last().expect("non-empty")
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        let data: Vec<u64> = (0..128).collect();
        for &v in &data {
            s.observe(v);
        }
        for p in [0, 25, 50, 75, 95, 99, 100] {
            assert_eq!(s.quantile(p), exact_percentile(&data, p), "p{p}");
        }
        assert_eq!(s.count(), 128);
        assert_eq!(s.sum(), data.iter().sum::<u64>());
        let mut one = QuantileSketch::new();
        one.observe(7);
        assert_eq!(one.quantile(99), 7);
    }

    #[test]
    fn bucket_bounds_cover_values() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1 << 20, u64::MAX - 1, u64::MAX] {
            let idx = bucket_index(v);
            assert!(bucket_upper(idx) >= v, "upper({idx}) < {v}");
            if idx > 0 {
                assert!(bucket_upper(idx - 1) < v, "value {v} below its bucket");
            }
        }
    }

    #[test]
    fn empty_sketch_is_zero() {
        let s = QuantileSketch::new();
        assert_eq!(s.quantile(50), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn merge_equals_bulk_observation() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut bulk = QuantileSketch::new();
        for i in 0..500u64 {
            let v = i * 977 % 100_000;
            if i % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
            bulk.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, bulk);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn quantiles_bound_the_exact_percentile(
            mut data in proptest::collection::vec(0u64..100_000_000, 1..300),
        ) {
            let mut s = QuantileSketch::new();
            for &v in &data {
                s.observe(v);
            }
            data.sort_unstable();
            for p in [0, 1, 50, 95, 99, 100] {
                proptest::prop_assert_eq!(exact_percentile(&data, p), brute_force(&data, p));
            }
            for p in 0..=100u32 {
                let exact = exact_percentile(&data, p);
                let approx = s.quantile(p);
                proptest::prop_assert!(approx >= exact, "p{}: {} < exact {}", p, approx, exact);
                proptest::prop_assert!(
                    approx <= exact + exact / 64,
                    "p{}: {} overshoots exact {} by more than 1/64",
                    p, approx, exact
                );
            }
        }

        #[test]
        fn quantile_curve_is_monotone_and_clamped(
            data in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        ) {
            let mut s = QuantileSketch::new();
            for &v in &data {
                s.observe(v);
            }
            let curve: Vec<u64> = (0..=100).map(|p| s.quantile(p)).collect();
            for w in curve.windows(2) {
                proptest::prop_assert!(w[0] <= w[1]);
            }
            proptest::prop_assert_eq!(curve[100], s.max());
            proptest::prop_assert!(curve[0] >= s.min());
            // A percent past 100 saturates at the maximum.
            proptest::prop_assert_eq!(s.quantile(101), s.max());
            proptest::prop_assert_eq!(s.quantile(400), s.max());
            if data.len() < 100 {
                // With fewer than 100 values the 99th percentile is the max.
                proptest::prop_assert_eq!(s.quantile(99), s.max());
            }
        }

        #[test]
        fn serialization_is_order_independent(
            data in proptest::collection::vec(0u64..10_000_000, 1..100),
        ) {
            let mut fwd = QuantileSketch::new();
            for &v in &data {
                fwd.observe(v);
            }
            let mut rev = QuantileSketch::new();
            for &v in data.iter().rev() {
                rev.observe(v);
            }
            proptest::prop_assert_eq!(fwd, rev);
        }
    }
}
