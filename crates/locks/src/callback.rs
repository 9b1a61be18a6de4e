//! Callback (lock recall) bookkeeping for the server's global lock table.
//!
//! When a client's lock request conflicts with locks cached at other clients,
//! the server *calls back* those locks (§2). The callback message carries the
//! requester's desired mode so that a holder asked to give up an EL for a
//! shared request can merely **downgrade** to SL, return the object, and keep
//! reading — the paper's relaxation of pure callback locking.
//!
//! [`CallbackTracker`] remembers, per object, which holders still owe an
//! answer, so the server knows when the recall completed and the blocked
//! request can be granted.

use std::collections::HashMap;

use siteselect_obs::{Event, EventSink};
use siteselect_types::{
    ClientId, FixedState, InlineVec, LockMode, ObjectId, SimDuration, SimTime, SiteId,
};

/// The holders one [`CallbackTracker::begin`] newly messages: the sole
/// exclusive holder or a few readers, so the list lives inline.
pub type Targets = InlineVec<ClientId, 4>;

/// Progress of an in-flight recall after one acknowledgement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallProgress {
    /// More holders still owe an acknowledgement.
    Pending {
        /// Number of outstanding acknowledgements.
        remaining: usize,
    },
    /// Every holder answered; the blocked request can proceed.
    Complete,
}

/// The holders of one recalled object still owing an answer, ascending,
/// with the instant their callback was issued (for lease expiry;
/// `SimTime::ZERO` for untimed callers).
type Owing = InlineVec<(ClientId, SimTime), 4>;

/// Tracks outstanding lock callbacks per object.
///
/// # Example
///
/// ```
/// use siteselect_locks::{CallbackTracker, RecallProgress};
/// use siteselect_types::{ClientId, LockMode, ObjectId};
///
/// let mut cb = CallbackTracker::new();
/// let targets = cb.begin(ObjectId(1), [ClientId(1), ClientId(2)], LockMode::Shared);
/// assert_eq!(targets.to_vec(), vec![ClientId(1), ClientId(2)]);
/// assert_eq!(
///     cb.acknowledge(ObjectId(1), ClientId(1)),
///     Some(RecallProgress::Pending { remaining: 1 })
/// );
/// assert_eq!(cb.acknowledge(ObjectId(1), ClientId(2)), Some(RecallProgress::Complete));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CallbackTracker {
    recalls: HashMap<ObjectId, Owing, FixedState>,
    /// Emptied rows of `recalls` that had spilled to the heap: a completed
    /// recall hands its row back and the next recall draws on it, so a
    /// recall of many holders regrows no row.
    spare_rows: Vec<Owing>,
    sink: EventSink,
}

impl CallbackTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        CallbackTracker::default()
    }

    /// Attaches an event sink; recall issuance is emitted at the server
    /// site (acknowledgements are emitted by the caller, which knows the
    /// delivery time).
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// Starts (or extends) a recall of `object` from `holders`. The mode the
    /// blocked requester wants travels in the callback message the caller
    /// sends, so the tracker does not keep `_desired`; the parameter stays
    /// because the benchmark package calls this signature.
    ///
    /// Returns the holders that must *newly* be messaged (holders already
    /// being recalled are not re-messaged).
    pub fn begin(
        &mut self,
        object: ObjectId,
        holders: impl IntoIterator<Item = ClientId>,
        _desired: LockMode,
    ) -> Targets {
        let mut fresh = Targets::new();
        self.begin_at(object, holders, SimTime::ZERO, &mut fresh);
        fresh
    }

    /// [`begin`](Self::begin) with the issue instant recorded, so unanswered
    /// callbacks can later be found by [`expired`](Self::expired). A holder
    /// already being recalled keeps its original issue time (it is not
    /// re-messaged, so its lease keeps running). `fresh` is cleared and
    /// left holding the holders to message: a caller that keeps it across
    /// recalls keeps its spill too.
    pub fn begin_at(
        &mut self,
        object: ObjectId,
        holders: impl IntoIterator<Item = ClientId>,
        now: SimTime,
        fresh: &mut Targets,
    ) {
        fresh.clear();
        let spare = &mut self.spare_rows;
        let owing = self
            .recalls
            .entry(object)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        for h in holders {
            let pos = owing.iter().position(|&(c, _)| c >= h);
            let pos = pos.unwrap_or(owing.len());
            if owing.get(pos).is_none_or(|&(c, _)| c != h) {
                owing.insert(pos, (h, now));
                fresh.push(h);
            }
        }
        if owing.is_empty() {
            self.forget(object);
        }
        if !fresh.is_empty() {
            let holders = fresh.len() as u32;
            self.sink
                .emit(now, SiteId::Server, || Event::CallbackIssued { object, holders });
        }
    }

    /// Ends the recall of `object`, keeping its row for reuse if it owns
    /// heap capacity.
    fn forget(&mut self, object: ObjectId) {
        if let Some(mut row) = self.recalls.remove(&object) {
            if row.spilled() {
                row.clear();
                self.spare_rows.push(row);
            }
        }
    }

    /// Restarts the lease of `holder`'s outstanding callback on `object` at
    /// `now`: for a recall the caller held back and sends only now, the
    /// holder's silence starts when it is asked. No-op if nothing is owed.
    pub fn renew(&mut self, object: ObjectId, holder: ClientId, now: SimTime) {
        let Some(owing) = self.recalls.get_mut(&object) else {
            return;
        };
        for (c, issued) in owing.iter_mut() {
            if *c == holder {
                *issued = now;
            }
        }
    }

    /// Callbacks issued at least `lease` ago and still unanswered, sorted by
    /// `(object, holder)`. A zero lease disables expiry (the pre-fault
    /// behaviour: wait forever).
    ///
    /// The server presumes these holders dead: it should reclaim their locks
    /// and invalidate their cached copies.
    #[must_use]
    pub fn expired(&self, now: SimTime, lease: SimDuration) -> Vec<(ObjectId, ClientId)> {
        if lease.is_zero() {
            return Vec::new();
        }
        let mut out: Vec<(ObjectId, ClientId)> = self
            // detlint: allow(D2) — `out.sort_unstable()` below, before the pairs are returned
            .recalls
            .iter()
            .flat_map(|(&obj, owing)| {
                owing
                    .iter()
                    .filter(move |&&(_, t)| now.duration_since(t) >= lease)
                    .map(move |&(c, _)| (obj, c))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Records that `from` answered the callback on `object` (returned or
    /// downgraded its lock). Returns `None` if no recall was outstanding for
    /// that pair.
    pub fn acknowledge(&mut self, object: ObjectId, from: ClientId) -> Option<RecallProgress> {
        let owing = self.recalls.get_mut(&object)?;
        let pos = owing.iter().position(|&(c, _)| c == from)?;
        owing.remove(pos);
        let remaining = owing.len();
        if remaining == 0 {
            self.forget(object);
            Some(RecallProgress::Complete)
        } else {
            Some(RecallProgress::Pending { remaining })
        }
    }

    /// True if a recall of `object` is still outstanding.
    #[must_use]
    pub fn is_recalling(&self, object: ObjectId) -> bool {
        self.recalls.contains_key(&object)
    }

    /// Clients still owing an answer for `object`, ascending.
    pub fn outstanding(&self, object: ObjectId) -> impl Iterator<Item = ClientId> + '_ {
        self.recalls
            .get(&object)
            .into_iter()
            .flat_map(|owing| owing.iter().map(|&(c, _)| c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(4);

    #[test]
    fn a_renewed_callback_expires_one_lease_after_the_renewal() {
        let mut cb = CallbackTracker::new();
        let lease = SimDuration::from_secs(5);
        cb.begin_at(OBJ, [ClientId(1), ClientId(2)], SimTime::ZERO, &mut Targets::new());
        cb.renew(OBJ, ClientId(2), SimTime::from_secs(3));
        cb.renew(ObjectId(9), ClientId(2), SimTime::from_secs(3));
        assert_eq!(cb.expired(SimTime::from_secs(5), lease), [(OBJ, ClientId(1))]);
        assert_eq!(cb.expired(SimTime::from_secs(8), lease).len(), 2);
        assert!(!cb.is_recalling(ObjectId(9)));
    }

    #[test]
    fn recall_life_cycle() {
        let mut cb = CallbackTracker::new();
        let fresh = cb.begin(OBJ, [ClientId(1), ClientId(2)], LockMode::Exclusive);
        assert_eq!(fresh.len(), 2);
        assert!(cb.is_recalling(OBJ));
        assert_eq!(
            cb.acknowledge(OBJ, ClientId(2)),
            Some(RecallProgress::Pending { remaining: 1 })
        );
        assert_eq!(cb.acknowledge(OBJ, ClientId(1)), Some(RecallProgress::Complete));
        assert!(!cb.is_recalling(OBJ));
    }

    #[test]
    fn duplicate_targets_not_remessaged() {
        let mut cb = CallbackTracker::new();
        let first = cb.begin(OBJ, [ClientId(1)], LockMode::Shared);
        assert_eq!(first.to_vec(), vec![ClientId(1)]);
        let second = cb.begin(OBJ, [ClientId(1), ClientId(3)], LockMode::Shared);
        assert_eq!(second.to_vec(), vec![ClientId(3)]);
        assert!(cb.outstanding(OBJ).eq([ClientId(1), ClientId(3)]));
    }

    #[test]
    fn outstanding_stays_ascending_past_the_inline_row() {
        let mut cb = CallbackTracker::new();
        // Fresh targets come back in the order given; who still owes an
        // answer reads ascending, however many there are.
        let order = [7, 2, 9, 4, 1, 8].map(ClientId);
        assert_eq!(cb.begin(OBJ, order, LockMode::Exclusive).to_vec(), order);
        assert!(cb.outstanding(OBJ).eq([1, 2, 4, 7, 8, 9].map(ClientId)));
        assert_eq!(
            cb.acknowledge(OBJ, ClientId(4)),
            Some(RecallProgress::Pending { remaining: 5 })
        );
        let again = cb.begin(OBJ, [ClientId(4), ClientId(2), ClientId(3)], LockMode::Shared);
        assert_eq!(again.to_vec(), vec![ClientId(4), ClientId(3)]);
        assert!(cb.outstanding(OBJ).eq([1, 2, 3, 4, 7, 8, 9].map(ClientId)));
    }

    /// A completed recall of more holders than a row keeps inline gives
    /// its row back, and the next such recall, of another object, draws on
    /// it; a kept target buffer is cleared and refilled in place.
    #[test]
    fn a_completed_recall_hands_its_spilled_row_to_the_next() {
        let mut cb = CallbackTracker::new();
        let holders = [1, 2, 3, 4, 5, 6].map(ClientId);
        let mut fresh = Targets::new();
        cb.begin_at(OBJ, holders, SimTime::ZERO, &mut fresh);
        assert!(fresh.spilled() && fresh.len() == 6);
        for h in holders {
            cb.acknowledge(OBJ, h);
        }
        assert!(!cb.is_recalling(OBJ));
        assert_eq!(cb.spare_rows.len(), 1);
        cb.begin_at(ObjectId(9), [ClientId(7)], SimTime::ZERO, &mut fresh);
        assert_eq!(fresh.to_vec(), [ClientId(7)]);
        assert!(fresh.spilled(), "the target buffer lost its spill");
        assert!(cb.spare_rows.is_empty(), "the new recall took the spare row");
        assert!(cb.recalls[&ObjectId(9)].spilled());
    }

    #[test]
    fn unknown_acks_are_ignored() {
        let mut cb = CallbackTracker::new();
        assert_eq!(cb.acknowledge(OBJ, ClientId(1)), None);
        cb.begin(OBJ, [ClientId(1)], LockMode::Shared);
        assert_eq!(cb.acknowledge(OBJ, ClientId(9)), None);
        assert!(cb.is_recalling(OBJ));
    }

    #[test]
    fn empty_holder_set_is_a_noop() {
        let mut cb = CallbackTracker::new();
        let fresh = cb.begin(OBJ, [], LockMode::Shared);
        assert!(fresh.is_empty());
        assert!(!cb.is_recalling(OBJ));
    }

    #[test]
    fn leases_expire_only_after_the_full_lease() {
        let mut cb = CallbackTracker::new();
        let lease = SimDuration::from_secs(5);
        let fresh = &mut Targets::new();
        cb.begin_at(OBJ, [ClientId(1)], SimTime::from_secs(10), fresh);
        cb.begin_at(ObjectId(9), [ClientId(2)], SimTime::from_secs(12), fresh);

        assert!(cb.expired(SimTime::from_secs(14), lease).is_empty());
        assert_eq!(
            cb.expired(SimTime::from_secs(15), lease),
            vec![(OBJ, ClientId(1))]
        );
        assert_eq!(
            cb.expired(SimTime::from_secs(30), lease),
            vec![(OBJ, ClientId(1)), (ObjectId(9), ClientId(2))]
        );

        // An acknowledged callback no longer expires.
        cb.acknowledge(OBJ, ClientId(1));
        assert_eq!(
            cb.expired(SimTime::from_secs(30), lease),
            vec![(ObjectId(9), ClientId(2))]
        );
    }

    #[test]
    fn zero_lease_never_expires() {
        let mut cb = CallbackTracker::new();
        cb.begin_at(OBJ, [ClientId(1)], SimTime::ZERO, &mut Targets::new());
        assert!(cb.expired(SimTime::from_secs(10_000), SimDuration::ZERO).is_empty());
    }

    #[test]
    fn re_recall_keeps_the_original_lease_clock() {
        let mut cb = CallbackTracker::new();
        let lease = SimDuration::from_secs(5);
        let mut fresh = Targets::new();
        cb.begin_at(OBJ, [ClientId(1)], SimTime::from_secs(0), &mut fresh);
        assert_eq!(fresh.to_vec(), [ClientId(1)]);
        // Re-recalled later: not re-messaged, so the old clock keeps running.
        cb.begin_at(OBJ, [ClientId(1)], SimTime::from_secs(4), &mut fresh);
        assert!(fresh.is_empty());
        assert_eq!(cb.expired(SimTime::from_secs(5), lease), vec![(OBJ, ClientId(1))]);
    }
}
