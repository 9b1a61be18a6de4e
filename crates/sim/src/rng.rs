//! Deterministic pseudo-random number generation.
//!
//! The simulator carries its own xoshiro256++ implementation instead of
//! depending on `rand`'s generators so that results are bit-identical across
//! platform and dependency upgrades. Seeding goes through SplitMix64, the
//! recommended initializer for the xoshiro family.

use siteselect_types::SimDuration;

/// SplitMix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// # Example
///
/// ```
/// use siteselect_sim::Prng;
///
/// let mut a = Prng::seed_from_u64(7);
/// let mut b = Prng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let p = a.next_f64();
/// assert!((0.0..1.0).contains(&p));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start from the all-zero state; SplitMix64 cannot
        // produce four consecutive zeros, but guard anyway.
        let s = if s == [0, 0, 0, 0] { [1, 2, 3, 4] } else { s };
        Prng { s }
    }

    /// Derives an independent child generator for a named stream.
    ///
    /// Used to give each client / subsystem its own stream so that adding a
    /// consumer never perturbs another's samples.
    #[must_use]
    pub fn derive(&self, stream: u64) -> Prng {
        // Mix the stream id into a fresh seed drawn from this generator's
        // current state without advancing it.
        let base = self
            .s
            .iter()
            .fold(0xcbf2_9ce4_8422_2325u64, |acc, &w| {
                (acc ^ w).wrapping_mul(0x100_0000_01b3)
            });
        Prng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Prng::below requires a positive bound");
        // Lemire's multiply-shift with rejection for exactness.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "Prng::range_u64 requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Returns 0.0 for a non-positive mean.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse CDF; 1 - U avoids ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Exponentially distributed simulated duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exp_f64(mean.as_secs_f64()))
    }

    /// Chooses one element of a non-empty slice uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Prng::choose requires a non-empty slice");
        // detlint: allow(D9) — below_usize(len) < len, and len > 0 is asserted
        &items[self.below_usize(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Prng::seed_from_u64(123);
        let mut b = Prng::seed_from_u64(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = Prng::seed_from_u64(99);
        let mut c1 = root.derive(1);
        let mut c2 = root.derive(2);
        let mut c1_again = root.derive(1);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let overlap = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(overlap < 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Prng::seed_from_u64(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = Prng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = Prng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = r.range_u64(100, 110);
            assert!((100..110).contains(&x));
        }
    }

    #[test]
    fn bernoulli_extremes_and_mean() {
        let mut r = Prng::seed_from_u64(13);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
        let hits = (0..100_000).filter(|_| r.bernoulli(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Prng::seed_from_u64(17);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(2.5)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.5).abs() < 0.05, "measured mean {mean}");
        assert_eq!(r.exp_f64(0.0), 0.0);
        assert_eq!(r.exp_f64(-3.0), 0.0);
    }

    #[test]
    fn exp_duration_positive_mean() {
        let mut r = Prng::seed_from_u64(19);
        let mean = SimDuration::from_secs(10);
        let n = 50_000u64;
        let total: f64 = (0..n).map(|_| r.exp_duration(mean).as_secs_f64()).sum();
        let m = total / n as f64;
        assert!((m - 10.0).abs() < 0.2, "measured mean {m}");
    }

    #[test]
    fn choose_returns_member() {
        let mut r = Prng::seed_from_u64(29);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Prng::seed_from_u64(1).below(0);
    }
}
