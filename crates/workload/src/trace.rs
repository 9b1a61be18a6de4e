//! Workload traces: a merged, arrival-ordered stream of transactions for a
//! whole cluster, recordable and replayable so every system model runs on
//! byte-identical input.

use siteselect_sim::Prng;
use siteselect_types::{ClientId, SimDuration, TransactionSpec, WorkloadConfig};

use crate::txngen::TransactionGenerator;

/// A cluster-wide workload trace, ordered by arrival time.
///
/// # Example
///
/// ```
/// use siteselect_types::{SimDuration, WorkloadConfig};
/// use siteselect_workload::Trace;
///
/// let trace = Trace::generate(&WorkloadConfig::default(), 0.1, 10_000, 4,
///                             SimDuration::from_secs(200), 7);
/// assert!(trace.len() > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    transactions: Vec<TransactionSpec>,
}

impl Trace {
    /// Generates a trace for `num_clients` clients over `duration`, merging
    /// the per-client streams in arrival order. `seed` derives one
    /// independent PRNG stream per client.
    #[must_use]
    pub fn generate(
        cfg: &WorkloadConfig,
        cpu_fraction: f64,
        db_size: u32,
        num_clients: u16,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let root = Prng::seed_from_u64(seed);
        let mut all = Vec::new();
        for c in 0..num_clients {
            let mut gen = TransactionGenerator::new(
                ClientId(c),
                cfg,
                cpu_fraction,
                db_size,
                num_clients,
                root.derive(u64::from(c) + 1),
            );
            all.extend(gen.generate_until(duration));
        }
        // Stable sort by (arrival, id) for full determinism.
        all.sort_by_key(|t| (t.arrival, t.id));
        Trace { transactions: all }
    }

    /// Consumes the trace, yielding its transactions in arrival order
    /// without copying them.
    #[must_use]
    pub fn into_transactions(self) -> Vec<TransactionSpec> {
        self.transactions
    }

    /// Number of transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// True if the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(clients: u16, seed: u64) -> Trace {
        Trace::generate(
            &WorkloadConfig::default(),
            0.1,
            10_000,
            clients,
            SimDuration::from_secs(500),
            seed,
        )
    }

    #[test]
    fn merged_trace_is_arrival_ordered() {
        let t = trace(8, 1);
        assert!(t.len() > 100);
        for w in t.transactions.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn every_client_contributes() {
        let t = trace(8, 2);
        for c in 0..8 {
            assert!(
                t.transactions.iter().filter(|x| x.origin == ClientId(c)).count() > 10,
                "client {c} underrepresented"
            );
        }
    }

    #[test]
    fn deterministic_by_seed() {
        assert_eq!(trace(4, 3), trace(4, 3));
        assert_ne!(trace(4, 3), trace(4, 4));
    }

    #[test]
    fn adding_clients_preserves_existing_streams() {
        let small = trace(4, 5);
        let large = trace(8, 5);
        // The per-client streams differ only through the access pattern's
        // hot-region placement, which depends on cluster size; ids and
        // arrival processes must match exactly.
        let client0 = |t: &Trace| -> Vec<_> {
            let c0 = t.transactions.iter().filter(|x| x.origin == ClientId(0));
            c0.map(|x| (x.id, x.arrival)).collect()
        };
        assert_eq!(client0(&small), client0(&large));
    }
}
