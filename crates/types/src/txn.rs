//! Transaction descriptions and outcomes.
//!
//! A [`TransactionSpec`] is the complete, workload-generated description of a
//! real-time transaction: which objects it touches (and whether it writes
//! them), how much processing it needs, when it arrived and by when it must
//! commit. All three system models consume the same specs so that
//! configurations are compared on identical workloads.

use crate::ids::{ClientId, ObjectId, TransactionId};
use crate::lock::LockMode;
use crate::time::{SimDuration, SimTime};

/// One object access within a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessSpec {
    /// The object read or written.
    pub object: ObjectId,
    /// True if the access updates the object (requires an exclusive lock).
    pub write: bool,
}

impl AccessSpec {
    /// Shorthand constructor for a read access.
    #[must_use]
    pub fn read(object: ObjectId) -> Self {
        AccessSpec {
            object,
            write: false,
        }
    }

    /// Shorthand constructor for a write access.
    #[must_use]
    pub fn write(object: ObjectId) -> Self {
        AccessSpec {
            object,
            write: true,
        }
    }

    /// The lock mode this access requires.
    #[must_use]
    pub fn mode(self) -> LockMode {
        LockMode::for_write(self.write)
    }
}

/// A complete real-time transaction description.
///
/// # Example
///
/// ```
/// use siteselect_types::{AccessSpec, ClientId, ObjectId, SimDuration, SimTime, TransactionId,
///                        TransactionSpec};
///
/// let spec = TransactionSpec {
///     id: TransactionId::new(ClientId(0), 1),
///     origin: ClientId(0),
///     arrival: SimTime::from_secs(5),
///     deadline: SimTime::from_secs(25),
///     cpu_demand: SimDuration::from_secs(1),
///     accesses: vec![AccessSpec::read(ObjectId(3)), AccessSpec::write(ObjectId(9))],
///     decomposable: false,
/// };
/// assert_eq!(spec.objects().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionSpec {
    /// Globally unique id (encodes the origin).
    pub id: TransactionId,
    /// Client at which the transaction was initiated.
    pub origin: ClientId,
    /// Submission instant.
    pub arrival: SimTime,
    /// Absolute completion deadline; the transaction counts as successful
    /// only if it commits at or before this instant.
    pub deadline: SimTime,
    /// Pure processing demand (the prototype burned CPU for this long).
    pub cpu_demand: SimDuration,
    /// The object accesses, deduplicated per object with writes dominating.
    pub accesses: Vec<AccessSpec>,
    /// True if the transaction can be decomposed into independent subtasks
    /// (10% of transactions in the paper's workload).
    pub decomposable: bool,
}

impl TransactionSpec {

    /// Iterates over the accessed object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.accesses.iter().map(|a| a.object)
    }

    /// Iterates over the written object ids.
    pub fn write_set(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.accesses.iter().filter(|a| a.write).map(|a| a.object)
    }

    /// The lock mode the transaction needs on `object`, if it accesses it.
    #[must_use]
    pub fn required_mode(&self, object: ObjectId) -> Option<LockMode> {
        self.accesses
            .iter()
            .filter(|a| a.object == object)
            .map(|a| a.mode())
            .fold(None, |acc, m| Some(acc.map_or(m, |a: LockMode| a.stronger(m))))
    }

    /// True if the deadline has already passed at `now`.
    #[must_use]
    pub fn is_expired(&self, now: SimTime) -> bool {
        now > self.deadline
    }

    /// Normalizes the access list: one entry per object, `write` if any
    /// access to that object writes, sorted by object id for determinism.
    pub fn normalize_accesses(&mut self) {
        // In place: this runs once per generated transaction. Which of an
        // object's duplicates sorts first is immaterial once they are merged.
        self.accesses.sort_unstable_by_key(|a| a.object);
        self.accesses.dedup_by(|dup, kept| {
            let same = dup.object == kept.object;
            kept.write |= same && dup.write;
            same
        });
    }
}

/// Reason a transaction was aborted before its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Its lock request would have closed a cycle in the wait-for graph.
    Deadlock,
    /// It was dropped because its deadline passed before completion.
    Expired,
    /// A subtask of a decomposed transaction missed the deadline, failing
    /// the whole transaction (paper §3.2).
    SubtaskFailure,
    /// The run ended while the transaction was still in flight.
    Shutdown,
    /// Its site crashed (fault injection) while it was in flight, or it
    /// arrived at a crashed site. Counted as a deadline miss.
    SiteCrash,
}

/// Final disposition of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnOutcome {
    /// Committed at or before its deadline.
    Committed,
    /// Committed, but after the deadline (counts as a miss; only possible
    /// when late execution is permitted by configuration).
    CommittedLate,
    /// Never completed.
    Aborted(AbortReason),
}

impl TxnOutcome {
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(accesses: Vec<AccessSpec>) -> TransactionSpec {
        TransactionSpec {
            id: TransactionId::new(ClientId(0), 0),
            origin: ClientId(0),
            arrival: SimTime::from_secs(1),
            deadline: SimTime::from_secs(4),
            cpu_demand: SimDuration::from_secs(1),
            accesses,
            decomposable: false,
        }
    }

    #[test]
    fn read_write_classification() {
        let t = spec(vec![AccessSpec::read(ObjectId(1)), AccessSpec::write(ObjectId(2))]);
        assert_eq!(t.write_set().collect::<Vec<_>>(), vec![ObjectId(2)]);
        let q = spec(vec![AccessSpec::read(ObjectId(1))]);
        assert_eq!(q.write_set().next(), None);
    }

    #[test]
    fn required_mode_takes_strongest() {
        let t = spec(vec![AccessSpec::read(ObjectId(1)), AccessSpec::write(ObjectId(1))]);
        assert_eq!(t.required_mode(ObjectId(1)), Some(LockMode::Exclusive));
        assert_eq!(t.required_mode(ObjectId(9)), None);
    }

    #[test]
    fn normalize_deduplicates_and_sorts() {
        let mut t = spec(vec![
            AccessSpec::read(ObjectId(5)),
            AccessSpec::write(ObjectId(2)),
            AccessSpec::write(ObjectId(5)),
            AccessSpec::read(ObjectId(2)),
        ]);
        t.normalize_accesses();
        assert_eq!(
            t.accesses,
            vec![AccessSpec::write(ObjectId(2)), AccessSpec::write(ObjectId(5))]
        );
        // Reads stay reads, a write anywhere among three duplicates wins,
        // and a write does not leak into the next object.
        let mut t = spec(vec![
            AccessSpec::read(ObjectId(7)),
            AccessSpec::read(ObjectId(3)),
            AccessSpec::write(ObjectId(3)),
            AccessSpec::read(ObjectId(9)),
            AccessSpec::read(ObjectId(3)),
            AccessSpec::read(ObjectId(7)),
        ]);
        t.normalize_accesses();
        assert_eq!(
            t.accesses,
            vec![
                AccessSpec::write(ObjectId(3)),
                AccessSpec::read(ObjectId(7)),
                AccessSpec::read(ObjectId(9)),
            ]
        );
    }

    #[test]
    fn expires_only_after_the_deadline() {
        let t = spec(vec![]);
        assert!(!t.is_expired(SimTime::from_secs(4)));
        assert!(t.is_expired(SimTime::from_secs(5)));
    }
}
