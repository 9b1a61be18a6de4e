//! The Localized-RW database access pattern (paper §5.1).
//!
//! "75% of each client's accesses were made to a particular portion of the
//! database according to the Uniform distribution while the other 25% of the
//! accesses were to the remainder of the database according to the Zipf
//! distribution."
//!
//! Each client's *hot region* is a contiguous window of the object space
//! whose start is spread evenly across clients. When the hot region is
//! larger than the database divided by the client count, neighbouring
//! regions overlap — which is exactly how inter-client contention grows with
//! the cluster size in the paper's experiments. Cold (Zipf) accesses rank
//! the non-hot objects from object 0 upward, so all clients skew toward the
//! same globally popular objects.

use siteselect_sim::Prng;
use siteselect_types::{AccessPatternConfig, AccessSpec, ClientId, ObjectId};

use crate::dist::Zipf;

/// Zipf skew of the accesses outside the hot region.
const ZIPF_THETA: f64 = 0.95;

/// Per-client Localized-RW access sampler.
///
/// # Example
///
/// ```
/// use siteselect_sim::Prng;
/// use siteselect_types::{AccessPatternConfig, ClientId};
/// use siteselect_workload::LocalizedRw;
///
/// let pattern = LocalizedRw::new(ClientId(3), &AccessPatternConfig::default(), 10_000, 20);
/// let mut rng = Prng::seed_from_u64(42);
/// let obj = pattern.sample(&mut rng);
/// assert!(obj.index() < 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct LocalizedRw {
    db_size: u32,
    hot_start: u32,
    hot_len: u32,
    hot_fraction: f64,
    cold: Zipf,
}

impl LocalizedRw {
    /// Builds the pattern for `client` in a cluster of `num_clients` over a
    /// database of `db_size` objects.
    ///
    /// # Panics
    ///
    /// Panics if `db_size == 0`, `num_clients == 0`, or the configured hot
    /// region is larger than the database.
    #[must_use]
    pub fn new(
        client: ClientId,
        cfg: &AccessPatternConfig,
        db_size: u32,
        num_clients: u16,
    ) -> Self {
        assert!(db_size > 0, "database must be non-empty");
        assert!(num_clients > 0, "cluster must have clients");
        let hot_len = cfg.hot_region_objects.min(db_size);
        let stride = db_size / u32::from(num_clients);
        let hot_start = (u32::from(client.0) * stride.max(1)) % db_size;
        let cold_n = (db_size - hot_len).max(1) as usize;
        LocalizedRw {
            db_size,
            hot_start,
            hot_len,
            hot_fraction: cfg.hot_access_fraction,
            cold: Zipf::new(cold_n, ZIPF_THETA),
        }
    }

    /// Draws one object id.
    pub fn sample(&self, rng: &mut Prng) -> ObjectId {
        if self.hot_len >= self.db_size || rng.bernoulli(self.hot_fraction) {
            let off = rng.below(u64::from(self.hot_len.max(1))) as u32;
            ObjectId((self.hot_start + off) % self.db_size)
        } else {
            let rank = self.cold.sample(rng) as u32;
            ObjectId(self.cold_rank_to_object(rank))
        }
    }

    /// Maps a cold rank (0 = most popular) to the rank-th object id outside
    /// the hot region, counting upward from object 0.
    fn cold_rank_to_object(&self, rank: u32) -> u32 {
        let hot_end = self.hot_start + self.hot_len; // may exceed db_size (wrap)
        if hot_end <= self.db_size {
            // Hot region is contiguous [hot_start, hot_end).
            if rank < self.hot_start {
                rank
            } else {
                hot_end + (rank - self.hot_start)
            }
        } else {
            // Hot region wraps: cold ids form one contiguous run
            // [hot_end - db_size, hot_start).
            (hot_end - self.db_size) + rank
        }
    }

    /// Draws `k` accesses to *distinct* objects, all reads, in draw order:
    /// a transaction's access list, allocated once at its final size. The
    /// caller draws the write flags afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the database size.
    pub fn sample_accesses(&self, rng: &mut Prng, k: usize) -> Vec<AccessSpec> {
        assert!(
            k as u64 <= u64::from(self.db_size),
            "cannot draw {k} distinct objects from {}",
            self.db_size
        );
        let mut out: Vec<AccessSpec> = Vec::with_capacity(k);
        let drawn = |out: &[AccessSpec], o: ObjectId| out.iter().any(|a| a.object == o);
        // Rejection sampling; k (≈10) is far below the database size so the
        // expected number of extra draws is negligible.
        let mut guard = 0u32;
        while out.len() < k {
            let o = self.sample(rng);
            if !drawn(&out, o) {
                out.push(AccessSpec::read(o));
            } else {
                guard += 1;
                if guard > 10_000 {
                    // Extremely skewed tiny databases: fall back to scanning.
                    let mut next = 0u32;
                    while out.len() < k {
                        let cand = ObjectId(next % self.db_size);
                        if !drawn(&out, cand) {
                            out.push(AccessSpec::read(cand));
                        }
                        next += 1;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AccessPatternConfig {
        AccessPatternConfig::default()
    }

    /// Whether `obj` falls inside `p`'s hot region, which wraps modulo the
    /// database size.
    fn is_hot(p: &LocalizedRw, obj: ObjectId) -> bool {
        (obj.index() + p.db_size - p.hot_start) % p.db_size < p.hot_len
    }

    #[test]
    fn samples_within_database() {
        let p = LocalizedRw::new(ClientId(5), &cfg(), 10_000, 20);
        let mut rng = Prng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(p.sample(&mut rng).index() < 10_000);
        }
    }

    #[test]
    fn hot_fraction_respected() {
        let p = LocalizedRw::new(ClientId(2), &cfg(), 10_000, 20);
        let mut rng = Prng::seed_from_u64(2);
        let n = 100_000;
        let hot = (0..n).filter(|_| is_hot(&p, p.sample(&mut rng))).count();
        let frac = hot as f64 / n as f64;
        // Hot accesses are 75% plus whatever cold draws land hot (cold draws
        // exclude the hot region, so this should be very close to 0.75).
        assert!((frac - 0.75).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn hot_regions_spread_across_clients() {
        let a = LocalizedRw::new(ClientId(0), &cfg(), 10_000, 10);
        let b = LocalizedRw::new(ClientId(5), &cfg(), 10_000, 10);
        assert_eq!(a.hot_start, 0);
        assert_eq!(b.hot_start, 5_000);
    }

    #[test]
    fn neighbouring_regions_overlap_at_scale() {
        // 100 clients, stride 100, hot region 1000: client 0 and client 1
        // share objects 100..1000.
        let a = LocalizedRw::new(ClientId(0), &cfg(), 10_000, 100);
        let b = LocalizedRw::new(ClientId(1), &cfg(), 10_000, 100);
        assert!(is_hot(&a, ObjectId(500)));
        assert!(is_hot(&b, ObjectId(500)));
    }

    #[test]
    fn wrapped_hot_region() {
        let mut c = cfg();
        c.hot_region_objects = 2_000;
        // Client 9 of 10 over 10k objects: start 9000, wraps to 1000.
        let p = LocalizedRw::new(ClientId(9), &c, 10_000, 10);
        assert!(is_hot(&p, ObjectId(9_500)));
        assert!(is_hot(&p, ObjectId(500)));
        assert!(!is_hot(&p, ObjectId(5_000)));
        // Cold samples never land in the hot region.
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..20_000 {
            let o = p.sample(&mut rng);
            assert!(o.index() < 10_000);
        }
    }

    #[test]
    fn cold_rank_mapping_skips_hot_region() {
        let mut c = cfg();
        c.hot_region_objects = 10;
        let p = LocalizedRw::new(ClientId(1), &c, 100, 10); // hot [10, 20)
        assert_eq!(p.cold_rank_to_object(0), 0);
        assert_eq!(p.cold_rank_to_object(9), 9);
        assert_eq!(p.cold_rank_to_object(10), 20);
        assert_eq!(p.cold_rank_to_object(89), 99);
    }

    #[test]
    fn cold_accesses_skew_to_shared_objects() {
        // Client whose hot region is far from object 0: its cold accesses
        // should favour low ids (the globally popular ones).
        let p = LocalizedRw::new(ClientId(5), &cfg(), 10_000, 10);
        let mut rng = Prng::seed_from_u64(4);
        let mut low = 0;
        let mut cold_total = 0;
        for _ in 0..100_000 {
            let o = p.sample(&mut rng);
            if !is_hot(&p, o) {
                cold_total += 1;
                if o.index() < 100 {
                    low += 1;
                }
            }
        }
        assert!(cold_total > 0);
        let frac = low as f64 / cold_total as f64;
        assert!(frac > 0.2, "low-id fraction of cold accesses {frac}");
    }

    #[test]
    fn distinct_sampling() {
        let p = LocalizedRw::new(ClientId(0), &cfg(), 10_000, 20);
        let mut rng = Prng::seed_from_u64(5);
        let accesses = p.sample_accesses(&mut rng, 10);
        assert_eq!((accesses.len(), accesses.capacity()), (10, 10));
        assert!(accesses.iter().all(|a| !a.write));
        let mut dedup: Vec<ObjectId> = accesses.iter().map(|a| a.object).collect();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn distinct_sampling_tiny_database() {
        let mut c = cfg();
        c.hot_region_objects = 4;
        let p = LocalizedRw::new(ClientId(0), &c, 5, 1);
        let mut rng = Prng::seed_from_u64(6);
        let accesses = p.sample_accesses(&mut rng, 5);
        assert_eq!(accesses.len(), 5);
    }

    #[test]
    fn hot_region_covering_database() {
        let mut c = cfg();
        c.hot_region_objects = 100;
        let p = LocalizedRw::new(ClientId(0), &c, 100, 1);
        let mut rng = Prng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng).index() < 100);
        }
    }
}
