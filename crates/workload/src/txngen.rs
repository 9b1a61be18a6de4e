//! Per-client real-time transaction stream generation (Table 1).

use siteselect_sim::Prng;
use siteselect_types::{
    AccessSpec, ClientId, DeadlinePolicy, SimDuration, SimTime, TransactionSpec, WorkloadConfig,
};

use crate::access::LocalizedRw;

/// Generates one client's transaction stream: Poisson arrivals, exponential
/// lengths and deadlines, Localized-RW access sets, per-access updates and a
/// decomposable flag.
///
/// Each generator owns an independent PRNG stream, so the workload offered
/// by client *i* does not change when other clients are added — a
/// prerequisite for comparing the three systems on identical inputs.
///
/// # Example
///
/// ```
/// use siteselect_sim::Prng;
/// use siteselect_types::{ClientId, SimDuration, WorkloadConfig};
/// use siteselect_workload::TransactionGenerator;
///
/// let mut gen = TransactionGenerator::new(
///     ClientId(0),
///     &WorkloadConfig::default(),
///     0.1,
///     10_000,
///     20,
///     Prng::seed_from_u64(9),
/// );
/// let txn = gen.next_txn();
/// assert_eq!(txn.origin, ClientId(0));
/// assert!(txn.deadline > txn.arrival);
/// ```
#[derive(Debug, Clone)]
pub struct TransactionGenerator {
    client: ClientId,
    cfg: WorkloadConfig,
    cpu_fraction: f64,
    pattern: LocalizedRw,
    rng: Prng,
    clock: SimTime,
    seq: u64,
}

impl TransactionGenerator {
    /// Creates a generator for `client` in a cluster of `num_clients` over
    /// `db_size` objects. `cpu_fraction` converts the nominal exponential
    /// length into pure CPU demand (see `CpuConfig::txn_cpu_fraction`).
    #[must_use]
    pub fn new(
        client: ClientId,
        cfg: &WorkloadConfig,
        cpu_fraction: f64,
        db_size: u32,
        num_clients: u16,
        rng: Prng,
    ) -> Self {
        TransactionGenerator {
            client,
            cfg: *cfg,
            cpu_fraction,
            pattern: LocalizedRw::new(client, &cfg.access_pattern, db_size, num_clients),
            rng,
            clock: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Number of objects for the next transaction: uniform over
    /// `[mean/2, 3*mean/2]`, clamped to at least one (mean 10 ⇒ 5..=15).
    fn sample_object_count(&mut self) -> usize {
        let mean = self.cfg.mean_objects_per_txn;
        let lo = (mean * 0.5).round().max(1.0) as u64;
        let hi = (mean * 1.5).round().max(lo as f64) as u64;
        self.rng.range_u64(lo, hi + 1) as usize
    }

    /// Generates the next transaction in arrival order.
    pub fn next_txn(&mut self) -> TransactionSpec {
        self.clock += self.rng.exp_duration(self.cfg.mean_interarrival);
        let arrival = self.clock;
        let length = self
            .rng
            .exp_duration(self.cfg.mean_length)
            .max(SimDuration::from_millis(1));
        let cpu_demand = length.mul_f64(self.cpu_fraction).max(SimDuration::from_micros(100));
        let deadline = match self.cfg.deadline {
            DeadlinePolicy::ExponentialOffset { mean } => {
                arrival + self.rng.exp_duration(mean).max(SimDuration::from_millis(1))
            }
            DeadlinePolicy::ProportionalSlack { factor } => arrival + length.mul_f64(factor),
        };
        let k = self.sample_object_count();
        let objects = self.pattern.sample_distinct(&mut self.rng, k);
        let accesses = objects
            .into_iter()
            .map(|object| AccessSpec {
                object,
                write: self.rng.bernoulli(self.cfg.update_fraction),
            })
            .collect();
        let decomposable = self.rng.bernoulli(self.cfg.decomposable_fraction);
        let id = siteselect_types::TransactionId::new(self.client, self.seq);
        self.seq += 1;
        let mut spec = TransactionSpec {
            id,
            origin: self.client,
            arrival,
            deadline,
            cpu_demand,
            accesses,
            decomposable,
        };
        spec.normalize_accesses();
        spec
    }

    /// Generates every transaction arriving strictly before `duration`.
    pub fn generate_until(&mut self, duration: SimDuration) -> Vec<TransactionSpec> {
        let end = SimTime::ZERO + duration;
        let mut out = Vec::new();
        loop {
            let t = self.next_txn();
            if t.arrival >= end {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64, update_fraction: f64) -> TransactionGenerator {
        let cfg = WorkloadConfig {
            update_fraction,
            ..WorkloadConfig::default()
        };
        TransactionGenerator::new(ClientId(1), &cfg, 0.1, 10_000, 20, Prng::seed_from_u64(seed))
    }

    #[test]
    fn arrivals_are_monotone_and_ids_unique() {
        let mut g = generator(1, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(10_000));
        assert!(txns.len() > 500);
        for w in txns.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].id != w[1].id);
        }
    }

    #[test]
    fn interarrival_mean_matches_config() {
        let mut g = generator(2, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(100_000));
        let mean = 100_000.0 / txns.len() as f64;
        assert!((mean - 10.0).abs() < 0.6, "mean inter-arrival {mean}");
    }

    #[test]
    fn deadline_offset_mean_matches_config() {
        let mut g = generator(3, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(50_000));
        let mean: f64 = txns
            .iter()
            .map(|t| t.deadline.duration_since(t.arrival).as_secs_f64())
            .sum::<f64>()
            / txns.len() as f64;
        assert!((mean - 20.0).abs() < 1.0, "mean deadline offset {mean}");
    }

    #[test]
    fn cpu_demand_is_fraction_of_length() {
        let mut g = generator(4, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(50_000));
        let mean: f64 = txns
            .iter()
            .map(|t| t.cpu_demand.as_secs_f64())
            .sum::<f64>()
            / txns.len() as f64;
        // mean length 10s * fraction 0.1 = 1s
        assert!((mean - 1.0).abs() < 0.1, "mean cpu demand {mean}");
    }

    #[test]
    fn object_count_centred_on_mean() {
        let mut g = generator(5, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(50_000));
        let mean: f64 =
            txns.iter().map(|t| t.accesses.len() as f64).sum::<f64>() / txns.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean objects per txn {mean}");
        assert!(txns.iter().all(|t| (5..=15).contains(&t.accesses.len())));
    }

    #[test]
    fn update_fraction_matches_config() {
        for target in [0.01, 0.05, 0.20] {
            let mut g = generator(6, target);
            let txns = g.generate_until(SimDuration::from_secs(50_000));
            let (mut writes, mut total) = (0u64, 0u64);
            for t in &txns {
                total += t.accesses.len() as u64;
                writes += t.accesses.iter().filter(|a| a.write).count() as u64;
            }
            let frac = writes as f64 / total as f64;
            assert!(
                (frac - target).abs() < target.max(0.01) * 0.3,
                "update fraction {frac} for target {target}"
            );
        }
    }

    #[test]
    fn decomposable_fraction_about_ten_percent() {
        let mut g = generator(7, 0.05);
        let txns = g.generate_until(SimDuration::from_secs(100_000));
        let frac = txns.iter().filter(|t| t.decomposable).count() as f64 / txns.len() as f64;
        assert!((frac - 0.10).abs() < 0.02, "decomposable fraction {frac}");
    }

    #[test]
    fn accesses_are_normalized() {
        let mut g = generator(8, 0.2);
        for _ in 0..100 {
            let t = g.next_txn();
            let mut objs: Vec<_> = t.objects().collect();
            let n = objs.len();
            objs.dedup();
            assert_eq!(objs.len(), n, "duplicate objects in access list");
            assert!(objs.windows(2).all(|w| w[0] < w[1]), "accesses sorted");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = generator(9, 0.05);
        let mut b = generator(9, 0.05);
        for _ in 0..50 {
            assert_eq!(a.next_txn(), b.next_txn());
        }
    }

    #[test]
    fn proportional_slack_policy() {
        let cfg = WorkloadConfig {
            deadline: DeadlinePolicy::ProportionalSlack { factor: 3.0 },
            ..WorkloadConfig::default()
        };
        let mut g = TransactionGenerator::new(
            ClientId(0),
            &cfg,
            0.1,
            10_000,
            10,
            Prng::seed_from_u64(10),
        );
        for _ in 0..100 {
            let t = g.next_txn();
            let offset = t.deadline.duration_since(t.arrival).as_secs_f64();
            let nominal = t.cpu_demand.as_secs_f64() / 0.1;
            assert!((offset - 3.0 * nominal).abs() < 0.01 * nominal.max(1.0));
        }
    }
}
