//! Order statistics for timing samples: median, quartiles, and the highest
//! percentile that still has at least ten samples beyond it.

/// Quartiles of a sample, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive: position `i·(n+1)/4`,
/// linear interpolation), so the spread printed here is the spread the
/// acceptance procedure computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Distance between the first and third quartile as a share of the
    /// median; 0 when the median is 0.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Quartiles of a non-empty sample; a single value is its own quartiles.
/// Like the Python function, a cut point outside the sample extrapolates
/// from the two nearest values (only possible below three samples).
pub fn quartiles(values: &[f64]) -> Quartiles {
    let s = sorted(values);
    let n = s.len();
    let cut = |i: usize| {
        if n == 1 {
            return s[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 75) that
/// leaves at least ten samples beyond it, with its value; `None` when even
/// the 75th does not (fewer than 40 samples), in which case only the
/// median is reported.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find_map(|permille| {
            // Nearest-rank index of the percentile (integer ceiling, so 99.9 %
            // of 10 000 is exactly 9 990); samples after it are "beyond".
            let rank = (permille * n).div_ceil(1000);
            (rank >= 1 && n - rank >= 10).then(|| (permille as f64 / 10.0, s[rank - 1]))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        let q = quartiles(&[5.0, 9.0]);
        assert_eq!((q.q1, q.median, q.q3), (4.0, 7.0, 10.0));
        let q = quartiles(&[3.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (3.0, 3.0, 3.0, 1));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        // 40 samples: p75 is rank 30, ten beyond.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((75.0, 30.0)));
        // 100 samples: p90 is rank 90, ten beyond; p95 leaves only five.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990, ten beyond; p99.9 leaves one.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((99.9, 9990.0)));
    }
}
