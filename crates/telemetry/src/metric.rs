//! The three metric primitives. All record paths are wait-free (relaxed
//! atomics, no locks) and allocation-free; `tests/alloc_free.rs` pins
//! both properties under a counting global allocator.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Log₂ histogram bucket count: bucket `i` holds samples `≤ 2^i`, so the
/// last finite bound is `2^47` — comfortably past a day in nanoseconds or
/// a terabyte in bytes. Larger and non-finite samples land in the
/// overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: monotonic event count; no other memory is
        // published through it, readers only need eventual totals.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        // relaxed: snapshot read; exposition tolerates inter-metric skew.
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depth, published version, bytes
/// resident).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // relaxed: last-writer-wins point-in-time value, independent
        // of any other shared state.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (negative to decrement); returns the
    /// value *after* the adjustment, so a submit path can read the depth
    /// it just created without a second load.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        // relaxed: the RMW is atomic on this one cell, which is all the
        // depth accounting needs; nothing else is ordered through it.
        self.value.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        // relaxed: snapshot read; exposition tolerates inter-metric skew.
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram: [`HISTOGRAM_BUCKETS`] power-of-two
/// buckets plus one overflow bucket, a sample count and a running sum.
///
/// Recording is one bucket `fetch_add`, one count `fetch_add` and one
/// lock-free CAS loop folding the sample into the `f64` sum — no locks,
/// no allocation, no panic for *any* input: zero, subnormal, negative,
/// infinite and NaN samples all land somewhere (non-finite ones in the
/// overflow bucket, leaving the sum untouched so one NaN cannot poison
/// the average).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    /// `f64` bit pattern of the running sum, folded with a CAS loop.
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inclusive upper bound of bucket `i` (`2^i`).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        (1u128 << i) as f64
    }

    /// Index of the smallest bucket holding `v`, or `None` for the
    /// overflow bucket.
    #[inline]
    fn bucket_index(v: u64) -> Option<usize> {
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros()) as usize
        };
        (idx < HISTOGRAM_BUCKETS).then_some(idx)
    }

    /// Records one integer sample (nanoseconds, bytes, sizes, depths).
    #[inline]
    pub fn record(&self, v: u64) {
        // relaxed: each bucket/count cell is an independent monotonic
        // counter; snapshots may see a sample in the bucket before the
        // count (or vice versa), which exposition accepts by design.
        match Self::bucket_index(v) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        // relaxed: independent monotonic counter, as above.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(v as f64);
    }

    /// Records one float sample. Negative, zero and subnormal samples go
    /// to the first bucket (clamped to zero in the sum); `inf` and `NaN`
    /// count in the overflow bucket without touching the sum.
    #[inline]
    pub fn record_f64(&self, v: f64) {
        if !v.is_finite() {
            // relaxed: independent monotonic counters, as in record().
            self.overflow.fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let clamped = v.max(0.0);
        // ceil then the integer bucketing: a sample of 2.3 belongs in the
        // `le 4` bucket, exactly as the integer 3 would. Values beyond
        // u64 saturate into the overflow bucket via the `as` conversion.
        let ceiled = clamped.ceil();
        // relaxed: independent monotonic counters, as in record().
        if ceiled >= u64::MAX as f64 {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        } else {
            match Self::bucket_index(ceiled as u64) {
                Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
                None => self.overflow.fetch_add(1, Ordering::Relaxed),
            };
        }
        // relaxed: independent monotonic counter, as in record().
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(clamped);
    }

    /// Folds `v` into the running sum with a lock-free CAS loop.
    #[inline]
    fn add_to_sum(&self, v: f64) {
        // relaxed: the CAS loop only needs atomicity of this one cell —
        // the loop re-reads on failure, and no other location is
        // published through the sum, so no acquire/release edge exists.
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            // relaxed: see above; failure ordering is a pure re-read.
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Per-bucket counts (not cumulative), in bound order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        // relaxed: snapshot reads; exposition tolerates skew between
        // cells (a bucket may lead its count and vice versa).
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Samples beyond the last finite bound (plus non-finite samples).
    pub fn overflow_count(&self) -> u64 {
        // relaxed: snapshot read, as in bucket_counts().
        self.overflow.load(Ordering::Relaxed)
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        // relaxed: snapshot read, as in bucket_counts().
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite samples (clamped at zero).
    pub fn sum(&self) -> f64 {
        // relaxed: snapshot read, as in bucket_counts().
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.add(-3), 4);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn integer_samples_land_in_their_power_of_two_bucket() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 5, 1024] {
            h.record(v);
        }
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2, "0 and 1 share the le-1 bucket");
        assert_eq!(buckets[1], 1, "2 is exactly le-2");
        assert_eq!(buckets[2], 2, "3 and 4 are le-4");
        assert_eq!(buckets[3], 1, "5 is le-8");
        assert_eq!(buckets[10], 1, "1024 is exactly le-1024");
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1039.0);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn bucket_bounds_are_inclusive_powers_of_two() {
        assert_eq!(Histogram::bucket_upper_bound(0), 1.0);
        assert_eq!(Histogram::bucket_upper_bound(10), 1024.0);
        // Exactly 2^i stays in bucket i; 2^i + 1 moves up.
        assert_eq!(Histogram::bucket_index(1 << 20), Some(20));
        assert_eq!(Histogram::bucket_index((1 << 20) + 1), Some(21));
        // Beyond the last finite bound: overflow.
        assert_eq!(Histogram::bucket_index(u64::MAX), None);
        assert_eq!(Histogram::bucket_index(1 << 47), Some(47));
        assert_eq!(Histogram::bucket_index((1 << 47) + 1), None);
    }
}
