//! The shared database server: global lock table, callback issuing, paged
//! store with real bytes, and blocking lock acquisition with deadline
//! timeouts.

use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use siteselect_locks::{LockTable, QueueDiscipline};
use siteselect_storage::{Page, PagedFile};
use siteselect_types::{ClientId, LockMode, ObjectId, SimTime};

use crate::sync::{Condvar, Mutex};

/// A lock recall delivered to a client's callback thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackReq {
    /// Object whose lock the server wants back.
    pub object: ObjectId,
    /// Mode the blocked requester needs (allows EL→SL downgrade).
    pub desired: LockMode,
}

/// Why a blocking acquisition failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireError {
    /// Granting the request could have closed a wait-for cycle.
    Deadlock,
    /// The requester's deadline passed while waiting.
    DeadlineExpired,
}

impl std::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcquireError::Deadlock => write!(f, "lock request would deadlock"),
            AcquireError::DeadlineExpired => write!(f, "deadline expired while waiting for lock"),
        }
    }
}

impl std::error::Error for AcquireError {}

/// Cumulative server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Lock acquisitions granted.
    pub grants: u64,
    /// Callback messages sent.
    pub recalls: u64,
    /// Objects returned with data.
    pub returns: u64,
    /// EL→SL downgrades.
    pub downgrades: u64,
    /// Requests refused by deadlock avoidance.
    pub deadlock_rejections: u64,
    /// Requests abandoned on deadline timeout.
    pub timeouts: u64,
}

struct Inner {
    locks: LockTable<ClientId>,
    store: PagedFile,
    /// Callbacks already in flight, to avoid duplicates.
    recalled: std::collections::HashSet<(ObjectId, ClientId)>,
    stats: ServerStats,
}

/// The thread-safe database server shared by all client threads.
pub struct SharedServer {
    inner: Mutex<Inner>,
    cv: Condvar,
    callback_tx: Mutex<Vec<Option<Sender<CallbackReq>>>>,
}

impl SharedServer {
    /// Creates a server over a zero-initialized database of `db_objects`
    /// pages, buffered by `buffer_frames` frames. `callback_tx[i]` reaches
    /// client `i`'s callback thread.
    #[must_use]
    pub fn new(db_objects: u32, buffer_frames: usize, callback_tx: Vec<Sender<CallbackReq>>) -> Arc<Self> {
        let mut store = PagedFile::create(db_objects, buffer_frames);
        // Zero the version word of every page so history checking starts
        // from version 0.
        for i in 0..db_objects {
            store
                .with_page_mut(ObjectId(i), |p| p.write_u64_at(0, 0))
                .expect("page exists");
        }
        Arc::new(SharedServer {
            inner: Mutex::new(Inner {
                locks: LockTable::new(QueueDiscipline::Deadline),
                store,
                recalled: std::collections::HashSet::new(),
                stats: ServerStats::default(),
            }),
            cv: Condvar::new(),
            callback_tx: Mutex::new(callback_tx.into_iter().map(Some).collect()),
        })
    }

    /// Blocking lock acquisition: waits (issuing callbacks to conflicting
    /// cached locks) until granted or `deadline` passes.
    ///
    /// On success returns the current page bytes so the client can install
    /// the object in its cache.
    ///
    /// # Errors
    ///
    /// [`AcquireError::Deadlock`] if the wait would close a cycle;
    /// [`AcquireError::DeadlineExpired`] on timeout.
    pub fn acquire(
        &self,
        client: ClientId,
        object: ObjectId,
        mode: LockMode,
        deadline: Instant,
    ) -> Result<Vec<u8>, AcquireError> {
        let mut inner = self.inner.lock();
        // Fast path: already covered.
        if inner
            .locks
            .held_mode(object, client)
            .is_some_and(|m| m.covers(mode))
        {
            inner.stats.grants += 1;
            return Ok(Self::read_page(&mut inner, object));
        }
        let locks = &inner.locks;
        if locks.would_deadlock(client, locks.conflicting_holders(object, client, mode)) {
            inner.stats.deadlock_rejections += 1;
            return Err(AcquireError::Deadlock);
        }
        let outcome = inner.locks.request(object, client, mode, SimTime::MAX);
        if outcome.is_granted() {
            inner.stats.grants += 1;
            return Ok(Self::read_page(&mut inner, object));
        }
        loop {
            // detlint: allow(D8) — issue_callbacks only does std::sync::mpsc
            // sends on unbounded channels, which enqueue without blocking
            self.issue_callbacks(&mut inner, client, object, mode);
            let timed_out = self.cv.wait_until(&mut inner, deadline).timed_out();
            if inner
                .locks
                .held_mode(object, client)
                .is_some_and(|m| m.covers(mode))
            {
                inner.stats.grants += 1;
                return Ok(Self::read_page(&mut inner, object));
            }
            if timed_out {
                let (_, granted) = inner.locks.cancel_wait(object, client);
                // A cancellation can unblock compatible followers.
                if !granted.is_empty() {
                    self.cv.notify_all();
                }
                inner.stats.timeouts += 1;
                return Err(AcquireError::DeadlineExpired);
            }
        }
    }

    fn read_page(inner: &mut Inner, object: ObjectId) -> Vec<u8> {
        inner
            .store
            .with_page(object, Page::to_bytes)
            .expect("object exists")
    }

    fn issue_callbacks(&self, inner: &mut Inner, client: ClientId, object: ObjectId, mode: LockMode) {
        let Inner {
            locks,
            recalled,
            stats,
            ..
        } = inner;
        for holder in locks.conflicting_holders(object, client, mode) {
            if recalled.insert((object, holder)) {
                stats.recalls += 1;
                // Ignore send failures: the client may already have shut
                // down, in which case its locks were voluntarily returned.
                if let Some(tx) = self.callback_tx.lock()[holder.index()].as_ref() {
                    // detlint: allow(D8) — unbounded mpsc send enqueues
                    // without blocking; the guard cannot be held across a wait
                    let _ = tx.send(CallbackReq {
                        object,
                        desired: mode,
                    });
                }
            }
        }
    }

    /// Closes every callback channel so the client callback threads drain
    /// their queues and exit (shutdown path).
    pub fn close(&self) {
        for slot in self.callback_tx.lock().iter_mut() {
            *slot = None;
        }
    }

    /// A client answers a callback or voluntarily returns an object.
    ///
    /// `bytes` carries the page contents when the client held (and possibly
    /// updated) the data; `downgrade` keeps a shared lock at the client.
    pub fn return_object(
        &self,
        client: ClientId,
        object: ObjectId,
        bytes: Option<&[u8]>,
        downgrade: bool,
    ) {
        let mut inner = self.inner.lock();
        if let Some(data) = bytes {
            inner
                .store
                .with_page_mut(object, |p| p.copy_from_bytes(data))
                .expect("object exists");
            inner.stats.returns += 1;
        }
        if downgrade {
            inner.locks.downgrade(object, client);
            inner.stats.downgrades += 1;
        } else {
            inner.locks.release(object, client);
        }
        inner.recalled.remove(&(object, client));
        self.cv.notify_all();
    }

    /// Snapshot of the server counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel as unbounded;
    use std::time::Duration;

    fn server(clients: u16) -> (Arc<SharedServer>, Vec<std::sync::mpsc::Receiver<CallbackReq>>) {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..clients {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        (SharedServer::new(16, 8, txs), rxs)
    }

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(200)
    }

    #[test]
    fn grant_and_reacquire() {
        let (s, _rx) = server(2);
        let bytes = s.acquire(ClientId(0), ObjectId(1), LockMode::Shared, soon()).unwrap();
        assert_eq!(bytes.len(), siteselect_storage::PAGE_SIZE);
        // Covered re-acquisition succeeds immediately.
        s.acquire(ClientId(0), ObjectId(1), LockMode::Shared, soon()).unwrap();
        assert_eq!(s.stats().grants, 2);
    }

    #[test]
    fn conflicting_acquire_times_out_and_sends_callback() {
        let (s, rx) = server(2);
        s.acquire(ClientId(0), ObjectId(1), LockMode::Exclusive, soon()).unwrap();
        let t0 = Instant::now();
        let err = s
            .acquire(
                ClientId(1),
                ObjectId(1),
                LockMode::Shared,
                Instant::now() + Duration::from_millis(50),
            )
            .unwrap_err();
        assert_eq!(err, AcquireError::DeadlineExpired);
        assert!(t0.elapsed() >= Duration::from_millis(45));
        // Client 0 received a recall asking for a shared downgrade.
        let cb = rx[0].try_recv().unwrap();
        assert_eq!(cb.object, ObjectId(1));
        assert_eq!(cb.desired, LockMode::Shared);
    }

    #[test]
    fn return_unblocks_waiter() {
        let (s, _rx) = server(2);
        s.acquire(ClientId(0), ObjectId(2), LockMode::Exclusive, soon()).unwrap();
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || {
            s2.acquire(
                ClientId(1),
                ObjectId(2),
                LockMode::Exclusive,
                Instant::now() + Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(30));
        // Client 0 returns a modified page.
        let mut data = vec![0u8; siteselect_storage::PAGE_SIZE];
        data[0..8].copy_from_slice(&7u64.to_le_bytes());
        s.return_object(ClientId(0), ObjectId(2), Some(&data), false);
        let got = waiter.join().unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(got[0..8].try_into().unwrap()), 7);
        let stored = s.inner.lock().store.with_page(ObjectId(2), |p| p.read_u64_at(0));
        assert_eq!(stored, Ok(7));
    }

    #[test]
    fn downgrade_keeps_shared_lock() {
        let (s, _rx) = server(2);
        s.acquire(ClientId(0), ObjectId(3), LockMode::Exclusive, soon()).unwrap();
        let data = vec![0u8; siteselect_storage::PAGE_SIZE];
        s.return_object(ClientId(0), ObjectId(3), Some(&data), true);
        // Another shared reader coexists now.
        s.acquire(ClientId(1), ObjectId(3), LockMode::Shared, soon()).unwrap();
        // But an exclusive request by client 1 conflicts with client 0's SL.
        let err = s
            .acquire(
                ClientId(1),
                ObjectId(3),
                LockMode::Exclusive,
                Instant::now() + Duration::from_millis(30),
            )
            .unwrap_err();
        assert_eq!(err, AcquireError::DeadlineExpired);
        assert_eq!(s.stats().downgrades, 1);
    }

    #[test]
    fn deadlock_rejected_quickly() {
        let (s, _rx) = server(2);
        s.acquire(ClientId(0), ObjectId(1), LockMode::Exclusive, soon()).unwrap();
        s.acquire(ClientId(1), ObjectId(2), LockMode::Exclusive, soon()).unwrap();
        // Client 0 waits for object 2 in a background thread.
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            s2.acquire(
                ClientId(0),
                ObjectId(2),
                LockMode::Exclusive,
                Instant::now() + Duration::from_millis(300),
            )
        });
        std::thread::sleep(Duration::from_millis(50));
        // Client 1 asking for object 1 would close the cycle.
        let err = s
            .acquire(ClientId(1), ObjectId(1), LockMode::Exclusive, soon())
            .unwrap_err();
        assert_eq!(err, AcquireError::Deadlock);
        // Resolve: client 1 returns object 2 so the waiter completes.
        s.return_object(ClientId(1), ObjectId(2), None, false);
        h.join().unwrap().unwrap();
    }
}
