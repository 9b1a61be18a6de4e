//! Forward lists for the grouped-lock (lock-grouping) protocol of §3.4.
//!
//! During a *collection window* the server gathers all lock requests on one
//! object into an ordered **forward list**. The lock is granted to the first
//! entry and the object travels client→client down the list; the last client
//! returns it to the server. The paper counts `2n + 1` messages for `n`
//! requests instead of up to `3n` (plain 2PL) or `4n` (callback caching);
//! `siteselect_core::script` counts what the engine spends.
//!
//! In a real-time environment the list is ordered by transaction deadline
//! and expired entries are skipped. A collection window holds one entry per
//! requesting (client, transaction) ([`ForwardList::join`]): a
//! retransmitted request joins it once. The server chains only writers: it
//! splits a closed window's list into runs of one lock mode
//! ([`ForwardList::split_run`]) and grants a run of readers together from
//! the lock table instead of sending it down a chain.

use siteselect_types::{ClientId, LockMode, ObjectId, SimTime, TransactionId};

/// One hop in a forward list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardEntry {
    /// The client to ship the object to.
    pub client: ClientId,
    /// The transaction whose request produced this entry.
    pub txn: TransactionId,
    /// That transaction's deadline (entries are served in this order and
    /// expired entries are skipped).
    pub deadline: SimTime,
    /// Requested mode; the server grants a run of [`LockMode::Shared`]
    /// entries together and chains only exclusive ones.
    pub mode: LockMode,
}

/// A deadline-ordered list of clients an object should visit.
///
/// # Example
///
/// ```
/// use siteselect_locks::{ForwardEntry, ForwardList};
/// use siteselect_types::{ClientId, LockMode, ObjectId, SimTime, TransactionId};
///
/// let mut fl = ForwardList::new(ObjectId(1));
/// fl.push(ForwardEntry {
///     client: ClientId(2),
///     txn: TransactionId::new(ClientId(2), 0),
///     deadline: SimTime::from_secs(30),
///     mode: LockMode::Exclusive,
/// });
/// fl.push(ForwardEntry {
///     client: ClientId(1),
///     txn: TransactionId::new(ClientId(1), 0),
///     deadline: SimTime::from_secs(10),
///     mode: LockMode::Shared,
/// });
/// // Earliest deadline first.
/// assert_eq!(fl.entries()[0].client, ClientId(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardList {
    object: ObjectId,
    entries: Vec<ForwardEntry>,
}

impl ForwardList {
    /// Creates an empty forward list for `object`.
    #[must_use]
    pub fn new(object: ObjectId) -> Self {
        ForwardList {
            object,
            entries: Vec::new(),
        }
    }

    /// The object this list routes.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Inserts an entry in deadline order (stable for equal deadlines).
    pub fn push(&mut self, entry: ForwardEntry) {
        let pos = self
            .entries
            .iter()
            .position(|e| e.deadline > entry.deadline)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
    }

    /// [`push`](Self::push)es `entry` and returns true, or returns false if
    /// the list already holds the same (client, transaction): a
    /// retransmitted request joins once, keeping its place and taking the
    /// stronger of the two modes.
    pub fn join(&mut self, entry: ForwardEntry) -> bool {
        let same = |e: &&mut ForwardEntry| (e.client, e.txn) == (entry.client, entry.txn);
        match self.entries.iter_mut().find(same) {
            Some(e) => {
                if !e.mode.covers(entry.mode) {
                    e.mode = entry.mode;
                }
                false
            }
            None => {
                self.push(entry);
                true
            }
        }
    }

    /// Keeps the first maximal run of entries that want one lock mode and
    /// returns the rest as a list of its own, still in deadline order.
    pub fn split_run(&mut self) -> ForwardList {
        let mode = self.entries.first().map(|e| e.mode);
        let run = self.entries.iter().take_while(|e| Some(e.mode) == mode);
        ForwardList {
            object: self.object,
            entries: self.entries.split_off(run.count()),
        }
    }

    /// Puts `rest` back behind this list's entries: the inverse of
    /// [`split_run`](Self::split_run).
    pub fn append(&mut self, mut rest: ForwardList) {
        self.entries.append(&mut rest.entries);
    }

    /// The remaining entries, in service order.
    #[must_use]
    pub fn entries(&self) -> &[ForwardEntry] {
        &self.entries
    }

    /// Number of remaining entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pops the next entry whose transaction is still live at `now`,
    /// discarding (and returning in the second slot) the expired entries
    /// that were skipped — the paper uses the stored deadline "to ignore
    /// transactions that have missed their deadlines".
    pub fn pop_next_live(&mut self, now: SimTime) -> (Option<ForwardEntry>, Vec<ForwardEntry>) {
        let mut skipped = Vec::new();
        while !self.entries.is_empty() {
            let e = self.entries.remove(0);
            if e.deadline >= now {
                return (Some(e), skipped);
            }
            skipped.push(e);
        }
        (None, skipped)
    }

    /// The final destination currently scheduled — what the server reports
    /// as the object's location when asked (§4: "the server refers to the
    /// object's forward list and reports the last client in the list").
    #[must_use]
    pub fn last_client(&self) -> Option<ClientId> {
        self.entries.last().map(|e| e.client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(client: u16, deadline_s: u64, mode: LockMode) -> ForwardEntry {
        ForwardEntry {
            client: ClientId(client),
            txn: TransactionId::new(ClientId(client), deadline_s),
            deadline: SimTime::from_secs(deadline_s),
            mode,
        }
    }

    #[test]
    fn entries_sorted_by_deadline() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 30, LockMode::Exclusive));
        fl.push(entry(2, 10, LockMode::Shared));
        fl.push(entry(3, 20, LockMode::Exclusive));
        let order: Vec<u16> = fl.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert_eq!(fl.last_client(), Some(ClientId(1)));
    }

    #[test]
    fn stable_for_equal_deadlines() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 10, LockMode::Shared));
        fl.push(entry(2, 10, LockMode::Shared));
        let order: Vec<u16> = fl.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn expired_entries_are_skipped() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 5, LockMode::Exclusive));
        fl.push(entry(2, 8, LockMode::Exclusive));
        fl.push(entry(3, 20, LockMode::Exclusive));
        let (next, skipped) = fl.pop_next_live(SimTime::from_secs(10));
        assert_eq!(next.unwrap().client, ClientId(3));
        assert_eq!(skipped.len(), 2);
        assert!(fl.is_empty());
    }

    #[test]
    fn all_expired_returns_none() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 5, LockMode::Shared));
        let (next, skipped) = fl.pop_next_live(SimTime::from_secs(100));
        assert!(next.is_none());
        assert_eq!(skipped.len(), 1);
    }

    #[test]
    fn a_retransmitted_request_joins_once() {
        let mut fl = ForwardList::new(ObjectId(1));
        assert!(fl.join(entry(1, 10, LockMode::Shared)));
        assert!(fl.join(entry(2, 20, LockMode::Shared)));
        // The same (client, transaction) again: no second hop, and a
        // stronger mode sticks to the entry already there.
        assert!(!fl.join(entry(1, 10, LockMode::Shared)));
        assert!(!fl.join(entry(2, 20, LockMode::Exclusive)));
        assert!(!fl.join(entry(2, 20, LockMode::Shared)));
        let got: Vec<_> = fl.entries().iter().map(|e| (e.client.0, e.mode)).collect();
        assert_eq!(got, [(1, LockMode::Shared), (2, LockMode::Exclusive)]);
        // Another transaction of the same client is a request of its own.
        let mut other = entry(1, 10, LockMode::Shared);
        other.txn = TransactionId::new(ClientId(1), 99);
        assert!(fl.join(other));
        assert_eq!(fl.len(), 3);
    }

    #[test]
    fn a_list_splits_into_runs_of_one_mode() {
        let (s, x) = (LockMode::Shared, LockMode::Exclusive);
        let mut fl = ForwardList::new(ObjectId(1));
        for (c, d, m) in [(1, 10, s), (2, 20, s), (3, 30, x), (4, 40, x), (5, 50, s)] {
            fl.push(entry(c, d, m));
        }
        let whole = fl.clone();
        let clients = |l: &ForwardList| l.entries().iter().map(|e| e.client.0).collect::<Vec<_>>();
        let mut rest = fl.split_run();
        assert_eq!((clients(&fl), clients(&rest)), (vec![1, 2], vec![3, 4, 5]));
        let tail = rest.split_run();
        assert_eq!((clients(&rest), clients(&tail)), (vec![3, 4], vec![5]));
        rest.append(tail);
        fl.append(rest);
        assert_eq!(fl, whole);
        let mut empty = ForwardList::new(ObjectId(1));
        assert!(empty.split_run().is_empty());
    }

    #[test]
    fn live_boundary_is_inclusive() {
        let mut fl = ForwardList::new(ObjectId(1));
        fl.push(entry(1, 10, LockMode::Shared));
        let (next, _) = fl.pop_next_live(SimTime::from_secs(10));
        assert!(next.is_some());
    }
}
