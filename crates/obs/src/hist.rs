//! Streaming log-linear histogram (HDR-style, fixed buckets).
//!
//! Values are bucketed with 5 sub-bucket bits: values below 32 get exact
//! buckets, larger values land in 32 equal-width buckets per power of two,
//! so the relative quantization error is bounded by 1/32 (≈3%) across the
//! whole `u64` range. Everything is allocated once at construction; the
//! record path touches a handful of integers — no allocation, no float.

/// Sub-bucket precision: 2^5 = 32 linear buckets per power of two.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Group 0 covers `0..32` exactly; groups 1..=59 cover msb 5..=63.
const GROUPS: usize = 64 - SUB_BITS as usize + 1;
/// Total bucket count (fixed, so merges are trivially aligned).
pub const BUCKETS: usize = GROUPS * SUB_BUCKETS;

/// A fixed-bucket log-linear histogram over `u64` values.
///
/// # Example
///
/// ```
/// use siteselect_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [1u64, 10, 100, 1000, 10_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 10_000);
/// assert!(h.quantile(0.5) >= 10 && h.quantile(0.5) <= 103);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram (one upfront allocation of the buckets).
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let shift = msb - SUB_BITS;
            let group = (msb - SUB_BITS + 1) as usize;
            (group << SUB_BITS) | ((v >> shift) as usize - SUB_BUCKETS)
        }
    }

    /// Smallest value that maps to bucket `i` (the bucket's representative).
    ///
    /// # Panics
    ///
    /// Panics if `i >= BUCKETS`.
    #[must_use]
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < BUCKETS, "bucket index out of range");
        if i < SUB_BUCKETS {
            i as u64
        } else {
            let group = (i >> SUB_BITS) as u32;
            let offset = (i & (SUB_BUCKETS - 1)) as u64;
            (SUB_BUCKETS as u64 + offset) << (group - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of the recorded values (the sum is kept exactly).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, quantized to the lower bound of
    /// the containing bucket and clamped into `[min, max]`. Monotone in `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_lower_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds every recorded value of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..32u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_continuous() {
        // Every bucket's lower bound maps back to that bucket, and the
        // value just below it maps to the previous bucket.
        for i in 1..BUCKETS {
            let lb = LogHistogram::bucket_lower_bound(i);
            assert_eq!(LogHistogram::bucket_index(lb), i, "lower bound of {i}");
            assert_eq!(LogHistogram::bucket_index(lb - 1), i - 1, "below {i}");
        }
    }

    #[test]
    fn top_bucket_holds_u64_max() {
        assert_eq!(LogHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_and_extremes_are_exact() {
        let mut h = LogHistogram::new();
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 15);
        assert!((h.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0).ceil() as u64;
            let got = h.quantile(q);
            assert!(got <= exact, "q={q}: {got} > {exact}");
            assert!(
                got as f64 >= exact as f64 * (1.0 - 1.0 / 32.0) - 1.0,
                "q={q}: {got} too far below {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_is_harmless() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in [3u64, 70, 900] {
            a.record(v);
            all.record(v);
        }
        for v in [1u64, 40_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
