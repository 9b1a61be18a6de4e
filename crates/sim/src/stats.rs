//! Streaming statistics for simulation metrics.

use std::fmt;

use siteselect_types::SimDuration;

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// # Example
///
/// ```
/// use siteselect_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a duration sample, in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0.0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
                self.count,
                self.mean(),
                self.std_dev(),
                self.min,
                self.max
            )
        }
    }
}

/// A hit/total ratio (cache hit rates, deadline success rates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Creates a zeroed ratio.
    #[must_use]
    pub fn new() -> Self {
        Ratio::default()
    }

    /// Builds a ratio from already-tallied counts, for one-shot percentage
    /// queries with uniform division-by-zero handling.
    ///
    /// # Example
    ///
    /// ```
    /// use siteselect_sim::Ratio;
    ///
    /// assert_eq!(Ratio::of(3, 4).percent(), 75.0);
    /// assert_eq!(Ratio::of(0, 0).percent(), 0.0); // never NaN
    /// ```
    #[must_use]
    pub fn of(hits: u64, total: u64) -> Self {
        Ratio { hits, total }
    }

    /// Records an event; `hit` marks it a success.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Successes so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Events so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Success fraction in `[0, 1]`; 0.0 when empty.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Success percentage in `[0, 100]`.
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }

    /// Merges another ratio into this one.
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} ({:.2}%)", self.hits, self.total, self.percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn merge_into_empty() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(3.0);
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), 4.0);
        let mut c = OnlineStats::new();
        b.merge(&c); // merging empty is a no-op
        assert_eq!(b.count(), 2);
        c.push(1.0);
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn ratio_accumulates() {
        let mut r = Ratio::new();
        for i in 0..10 {
            r.record(i < 7);
        }
        assert_eq!(r.hits(), 7);
        assert_eq!(r.total(), 10);
        assert!((r.percent() - 70.0).abs() < 1e-12);
        let mut other = Ratio::new();
        other.record(true);
        r.merge(other);
        assert_eq!(r.hits(), 8);
        assert_eq!(r.total(), 11);
        assert!(r.to_string().contains('%'));
    }

    #[test]
    fn ratio_empty_is_zero() {
        assert_eq!(Ratio::new().fraction(), 0.0);
    }
}
