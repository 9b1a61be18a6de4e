//! Distributions beyond the kernel's primitives: the Zipf law used for the
//! skewed portion of Localized-RW accesses.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use siteselect_sim::Prng;

/// A Zipf(θ) sampler over ranks `0..n` via a precomputed CDF and binary
/// search — exact, deterministic, and fast enough for the database sizes in
/// the paper (10,000 objects).
///
/// Rank 0 is the most popular. Probability of rank `r` is proportional to
/// `1 / (r + 1)^θ`. θ = 0 degenerates to the uniform distribution.
///
/// # Example
///
/// ```
/// use siteselect_sim::Prng;
/// use siteselect_workload::Zipf;
///
/// let zipf = Zipf::new(100, 0.95);
/// let mut rng = Prng::seed_from_u64(7);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

/// Memoized CDF tables keyed by `(n, theta bits)`. Every client of a run
/// (and every run of a benchmark) uses the same table, and building one
/// costs `n` calls to `powf` — sharing it keeps workload construction off
/// the hot path. Capped so pathological test inputs cannot grow it
/// unboundedly; a miss past the cap just rebuilds.
type CdfCache = Mutex<HashMap<(usize, u64), Arc<[f64]>>>;

fn cdf_cache() -> &'static CdfCache {
    static CACHE: OnceLock<CdfCache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

const CDF_CACHE_CAP: usize = 64;

impl Zipf {
    /// Builds a sampler over `n` ranks with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf skew must be a non-negative finite number"
        );
        let key = (n, theta.to_bits());
        if let Ok(cache) = cdf_cache().lock() {
            if let Some(cdf) = cache.get(&key) {
                return Zipf { cdf: Arc::clone(cdf) };
            }
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point drift at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let cdf: Arc<[f64]> = cdf.into();
        if let Ok(mut cache) = cdf_cache().lock() {
            if cache.len() < CDF_CACHE_CAP {
                cache.insert(key, Arc::clone(&cdf));
            }
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution has a single rank.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false // by construction n > 0
    }

    /// Draws a rank in `0..len()`.
    pub fn sample(&self, rng: &mut Prng) -> usize {
        let u = rng.next_f64();
        // First index whose CDF value exceeds u.
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_in_bounds() {
        let z = Zipf::new(50, 0.95);
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(1000, 0.95);
        let mut rng = Prng::seed_from_u64(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 50 * counts[500].max(1));
        // Popularity is (statistically) decreasing: compare decile sums.
        let first: u32 = counts[..100].iter().sum();
        let last: u32 = counts[900..].iter().sum();
        assert!(first > 5 * last, "first decile {first} vs last {last}");
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.cdf[r] - (r + 1) as f64 / 10.0).abs() < 1e-12);
        }
        let mut rng = Prng::seed_from_u64(3);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0);
        }
    }

    #[test]
    fn single_rank_always_zero() {
        let z = Zipf::new(1, 0.95);
        let mut rng = Prng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let z = Zipf::new(100, 0.8);
        let mut a = Prng::seed_from_u64(5);
        let mut b = Prng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
