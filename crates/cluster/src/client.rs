//! Client workstation: a worker thread executing transactions against its
//! object cache, and a callback thread answering lock recalls.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::Receiver;

use siteselect_obs::{Event, EventSink, SpanKind};
use siteselect_types::{ClientId, LockMode, ObjectId, SimTime, SiteId, TransactionSpec};

use crate::sync::{Condvar, Mutex};

use crate::history::{HistoryLog, Op};
use crate::server::{AcquireError, CallbackReq, SharedServer};

/// One cached object with its real page bytes.
#[derive(Debug, Clone)]
pub struct CachedObject {
    /// Cached lock mode (the client-level lock of §2).
    pub mode: LockMode,
    /// The page contents.
    pub bytes: Vec<u8>,
    /// True if updated locally since the last return to the server.
    pub dirty: bool,
    /// Transactions currently using the object (blocks callbacks).
    pub pins: u32,
    last_used: u64,
}

/// The cache state shared by a client's worker and callback threads.
#[derive(Debug, Default)]
pub struct CacheState {
    objects: HashMap<ObjectId, CachedObject>,
    capacity: usize,
    tick: u64,
}

/// A client's shared half: the cache plus its synchronization.
pub struct ClientShared {
    /// This client's id.
    pub id: ClientId,
    state: Mutex<CacheState>,
    cv: Condvar,
}

impl ClientShared {
    /// Creates a client with an object cache of `capacity` entries.
    #[must_use]
    pub fn new(id: ClientId, capacity: usize) -> Arc<Self> {
        Arc::new(ClientShared {
            id,
            state: Mutex::new(CacheState {
                objects: HashMap::new(),
                capacity,
                tick: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Number of cached objects (tests).
    #[must_use]
    pub fn cached_count(&self) -> usize {
        self.state.lock().objects.len()
    }

    /// Pins `object` if a covering lock and the data are cached.
    fn try_pin(&self, object: ObjectId, mode: LockMode) -> bool {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        match st.objects.get_mut(&object) {
            Some(o) if o.mode.covers(mode) => {
                o.pins += 1;
                o.last_used = tick;
                true
            }
            _ => false,
        }
    }

    /// Reserves a pinned placeholder for `object` before asking the server
    /// for it. The pin makes a concurrent callback *wait* instead of
    /// concluding the object was evicted — without it, a recall racing the
    /// grant would release the just-acquired lock and allow a lost update.
    fn begin_install(&self, object: ObjectId) {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        st.objects
            .entry(object)
            .and_modify(|o| {
                o.pins += 1;
                o.last_used = tick;
            })
            .or_insert(CachedObject {
                mode: LockMode::Shared,
                bytes: Vec::new(),
                dirty: false,
                pins: 1,
                last_used: tick,
            });
    }

    /// Fills a reservation with the granted mode and bytes (the pin from
    /// [`begin_install`](Self::begin_install) is kept). If the cache is now
    /// over capacity, the LRU unpinned entry is evicted and returned to the
    /// server *while the cache lock is held* — dropping the lock between
    /// removal and return would let this client's own worker re-acquire the
    /// object from the server's stale copy and lose the update.
    fn finish_install(&self, object: ObjectId, mode: LockMode, bytes: Vec<u8>, server: &SharedServer) {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let entry = st.objects.get_mut(&object).expect("reserved by begin_install");
        entry.mode = entry.mode.stronger(mode);
        entry.bytes = bytes;
        entry.dirty = false;
        entry.last_used = tick;
        if st.objects.len() <= st.capacity {
            return;
        }
        let victim = st
            .objects
            .iter()
            .filter(|(&o, c)| c.pins == 0 && o != object)
            .min_by_key(|(_, c)| c.last_used)
            .map(|(&o, _)| o);
        let Some(victim) = victim else { return };
        let evicted = st.objects.remove(&victim).expect("victim exists");
        let data = (evicted.mode == LockMode::Exclusive).then_some(evicted.bytes);
        server.return_object(self.id, victim, data.as_deref(), false);
    }

    /// Abandons a reservation after a failed acquire: unpins, and removes
    /// the entry if it was only ever a placeholder.
    fn abort_install(&self, object: ObjectId) {
        let mut st = self.state.lock();
        if let Some(o) = st.objects.get_mut(&object) {
            o.pins = o.pins.saturating_sub(1);
            if o.pins == 0 && o.bytes.is_empty() {
                st.objects.remove(&object);
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    fn unpin_all(&self, objects: &[ObjectId]) {
        let mut st = self.state.lock();
        for o in objects {
            if let Some(c) = st.objects.get_mut(o) {
                c.pins = c.pins.saturating_sub(1);
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Reads the version word of a pinned cached object.
    fn version(&self, object: ObjectId) -> u64 {
        let st = self.state.lock();
        let c = &st.objects[&object];
        u64::from_le_bytes(c.bytes[0..8].try_into().expect("page >= 8 bytes"))
    }

    /// Bumps the version word of a pinned cached object; returns the old
    /// version.
    fn bump_version(&self, object: ObjectId) -> u64 {
        let mut st = self.state.lock();
        let c = st.objects.get_mut(&object).expect("pinned object cached");
        let old = u64::from_le_bytes(c.bytes[0..8].try_into().expect("page >= 8 bytes"));
        c.bytes[0..8].copy_from_slice(&(old + 1).to_le_bytes());
        c.dirty = true;
        old
    }

    /// Runs a client's callback loop until the channel closes: waits for
    /// local users to unpin, then answers with a return or a downgrade.
    pub fn callback_loop(self: &Arc<Self>, rx: &Receiver<CallbackReq>, server: &SharedServer) {
        while let Ok(req) = rx.recv() {
            self.serve_callback(req, server);
        }
    }

    /// Chaos variant of [`callback_loop`](Self::callback_loop): sleeps a
    /// uniformly random real-time delay in `[0, max_delay]` before serving
    /// each recall, modelling slow or reordered channel delivery. The
    /// protocol must stay serializable no matter how long an answer takes.
    pub fn callback_loop_jittered(
        self: &Arc<Self>,
        rx: &Receiver<CallbackReq>,
        server: &SharedServer,
        max_delay: Duration,
        rng: &mut siteselect_sim::Prng,
    ) {
        let bound = u64::try_from(max_delay.as_micros()).unwrap_or(u64::MAX);
        while let Ok(req) = rx.recv() {
            if bound > 0 {
                std::thread::sleep(Duration::from_micros(rng.below(bound + 1)));
            }
            self.serve_callback(req, server);
        }
    }

    fn serve_callback(self: &Arc<Self>, req: CallbackReq, server: &SharedServer) {
        let mut st = self.state.lock();
        while st.objects.get(&req.object).is_some_and(|o| o.pins > 0) {
            self.cv.wait(&mut st);
        }
        // The answer to the server goes out while the cache lock is
        // still held: between removing our copy and the server learning
        // about it, our own worker must not be able to re-fetch the
        // object (the server would serve its stale copy).
        match st.objects.get(&req.object).cloned() {
            None => {
                // Evicted earlier: just release the lock.
                server.return_object(self.id, req.object, None, false);
            }
            Some(cached) => {
                let downgrade =
                    req.desired == LockMode::Shared && cached.mode == LockMode::Exclusive;
                let send_data = cached.mode == LockMode::Exclusive;
                if downgrade {
                    let entry = st.objects.get_mut(&req.object).expect("present");
                    entry.mode = LockMode::Shared;
                    entry.dirty = false;
                } else {
                    st.objects.remove(&req.object);
                }
                let bytes = send_data.then(|| cached.bytes.clone());
                server.return_object(self.id, req.object, bytes.as_deref(), downgrade);
            }
        }
    }

    /// Returns every cached object to the server (shutdown flush). The
    /// cache lock is held across the returns for the same reason as in
    /// [`callback_loop`](Self::callback_loop).
    pub fn flush_all(&self, server: &SharedServer) {
        let mut st = self.state.lock();
        let mut ids: Vec<ObjectId> = st.objects.keys().copied().collect();
        ids.sort_unstable(); // deterministic shutdown order
        for id in ids {
            let cached = st.objects.remove(&id).expect("key just listed");
            let bytes = (cached.mode == LockMode::Exclusive).then_some(cached.bytes);
            server.return_object(self.id, id, bytes.as_deref(), false);
        }
    }
}

/// Outcome counters of one worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Transactions generated.
    pub generated: u64,
    /// Committed at or before the deadline.
    pub in_time: u64,
    /// Committed after the deadline.
    pub late: u64,
    /// Aborted by deadlock avoidance.
    pub deadlock_aborts: u64,
    /// Abandoned when the deadline expired while waiting for locks.
    pub timeouts: u64,
    /// Dropped before execution because the deadline had already passed.
    pub expired: u64,
    /// 1 if this worker was chaos-terminated before finishing its quota.
    pub terminated: u64,
}

/// Executes one transaction against the cache/server; returns its
/// contribution to the report.
///
/// `scale` converts simulated microseconds (from the workload generator)
/// into real time.
pub fn run_transaction(
    shared: &Arc<ClientShared>,
    server: &SharedServer,
    history: &HistoryLog,
    spec: &TransactionSpec,
    start: Instant,
    scale: f64,
    sink: &EventSink,
) -> WorkerReport {
    let mut report = WorkerReport {
        generated: 1,
        ..WorkerReport::default()
    };
    let site = SiteId::Client(shared.id);
    let (txn, spec_deadline) = (spec.id, spec.deadline);
    let accesses = spec.accesses.len() as u32;
    sink.emit(sim_now(start, scale), site, || Event::TxnSubmit {
        txn,
        deadline: spec_deadline,
        accesses,
    });
    let deadline = start + scale_duration(spec.deadline.as_micros(), scale);
    if Instant::now() > deadline {
        report.expired = 1;
        sink.emit(sim_now(start, scale), site, || Event::Abort {
            txn,
            reason: siteselect_types::AbortReason::Expired,
        });
        return report;
    }
    let mut pinned: Vec<ObjectId> = Vec::new();
    let acquire_started = sim_now(start, scale);
    for access in &spec.accesses {
        let mode = access.mode();
        if shared.try_pin(access.object, mode) {
            pinned.push(access.object);
            continue;
        }
        shared.begin_install(access.object);
        match server.acquire(shared.id, access.object, mode, deadline) {
            Ok(bytes) => {
                shared.finish_install(access.object, mode, bytes, server);
                pinned.push(access.object);
            }
            Err(e) => {
                shared.abort_install(access.object);
                shared.unpin_all(&pinned);
                let reason = match e {
                    AcquireError::Deadlock => {
                        report.deadlock_aborts = 1;
                        siteselect_types::AbortReason::Deadlock
                    }
                    AcquireError::DeadlineExpired => {
                        report.timeouts = 1;
                        siteselect_types::AbortReason::Expired
                    }
                };
                let now = sim_now(start, scale);
                sink.span(now, site, txn, SpanKind::LockWait, acquire_started, None);
                sink.emit(sim_now(start, scale), site, || Event::Abort { txn, reason });
                return report;
            }
        }
    }
    // The acquisition phase was a lock wait, unless every pin came free
    // from the local cache. Execute: burn the scaled CPU demand.
    let now = sim_now(start, scale);
    sink.span(now, site, txn, SpanKind::LockWait, acquire_started, None);
    sink.emit(sim_now(start, scale), site, || Event::ExecStart { txn });
    let cpu = scale_duration(spec.cpu_demand.as_micros(), scale);
    if !cpu.is_zero() {
        std::thread::sleep(cpu);
    }
    // Commit: apply writes and record the history.
    let mut ops = Vec::with_capacity(spec.accesses.len());
    for access in &spec.accesses {
        if access.write {
            let from = shared.bump_version(access.object);
            ops.push(Op::Write {
                txn: spec.id,
                object: access.object,
                from,
            });
        } else {
            ops.push(Op::Read {
                txn: spec.id,
                object: access.object,
                version: shared.version(access.object),
            });
        }
    }
    history.commit(ops);
    shared.unpin_all(&pinned);
    let now = sim_now(start, scale);
    let latency_us = now.as_micros().saturating_sub(spec.arrival.as_micros());
    let slack_us = spec.deadline.as_micros() as i64 - now.as_micros() as i64;
    sink.emit(now, site, || Event::Commit {
        txn,
        latency_us,
        slack_us,
    });
    if Instant::now() <= deadline {
        report.in_time = 1;
    } else {
        report.late = 1;
    }
    report
}

/// Scales simulated microseconds down to a real `Duration`.
#[must_use]
pub fn scale_duration(sim_micros: u64, scale: f64) -> Duration {
    Duration::from_secs_f64((sim_micros as f64 * scale / 1e6).max(0.0))
}

/// The inverse of [`scale_duration`]: maps real time elapsed since the
/// cluster start back onto the simulated clock, so threaded-cluster events
/// can be merged and sorted on the same axis as the simulators'.
#[must_use]
pub fn sim_now(start: Instant, scale: f64) -> SimTime {
    let real = Instant::now().saturating_duration_since(start);
    SimTime::from_micros((real.as_secs_f64() / scale * 1e6) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server() -> Arc<SharedServer> {
        SharedServer::new(64, 16, Vec::new())
    }

    #[test]
    fn scale_duration_maths() {
        assert_eq!(scale_duration(1_000_000, 0.001), Duration::from_millis(1));
        assert_eq!(scale_duration(0, 1.0), Duration::ZERO);
    }

    #[test]
    fn pin_requires_covering_lock_and_data() {
        let srv = test_server();
        let c = ClientShared::new(ClientId(0), 4);
        assert!(!c.try_pin(ObjectId(1), LockMode::Shared));
        c.begin_install(ObjectId(1));
        c.finish_install(ObjectId(1), LockMode::Shared, vec![0u8; 2048], &srv);
        assert!(c.try_pin(ObjectId(1), LockMode::Shared));
        assert!(!c.try_pin(ObjectId(1), LockMode::Exclusive));
        c.begin_install(ObjectId(2));
        c.finish_install(ObjectId(2), LockMode::Exclusive, vec![0u8; 2048], &srv);
        assert!(c.try_pin(ObjectId(2), LockMode::Shared)); // EL covers SL
    }

    #[test]
    fn install_evicts_lru_unpinned() {
        let srv = test_server();
        let c = ClientShared::new(ClientId(0), 2);
        c.begin_install(ObjectId(1));
        c.finish_install(ObjectId(1), LockMode::Shared, vec![0; 2048], &srv);
        c.unpin_all(&[ObjectId(1)]);
        c.begin_install(ObjectId(2));
        c.finish_install(ObjectId(2), LockMode::Shared, vec![0; 2048], &srv);
        c.unpin_all(&[ObjectId(2)]);
        // Third insert evicts object 1 (LRU, unpinned).
        c.begin_install(ObjectId(3));
        c.finish_install(ObjectId(3), LockMode::Shared, vec![0; 2048], &srv);
        assert_eq!(c.cached_count(), 2);
        assert!(!c.try_pin(ObjectId(1), LockMode::Shared));
        c.unpin_all(&[ObjectId(2), ObjectId(3)]);
        assert!(c.try_pin(ObjectId(2), LockMode::Shared));
    }

    #[test]
    fn pinned_objects_survive_eviction_pressure() {
        let srv = test_server();
        let c = ClientShared::new(ClientId(0), 1);
        c.begin_install(ObjectId(1));
        c.finish_install(ObjectId(1), LockMode::Shared, vec![0; 2048], &srv); // pinned
        c.begin_install(ObjectId(2));
        c.finish_install(ObjectId(2), LockMode::Shared, vec![0; 2048], &srv);
        // Object 1 is pinned, object 2 is the fresh pinned insert: nothing
        // evictable.
        assert_eq!(c.cached_count(), 2); // temporarily over capacity
        assert!(c.try_pin(ObjectId(1), LockMode::Shared));
    }

    #[test]
    fn version_bump_round_trips() {
        let srv = test_server();
        let c = ClientShared::new(ClientId(0), 4);
        c.begin_install(ObjectId(5));
        c.finish_install(ObjectId(5), LockMode::Exclusive, vec![0; 2048], &srv);
        assert_eq!(c.version(ObjectId(5)), 0);
        assert_eq!(c.bump_version(ObjectId(5)), 0);
        assert_eq!(c.version(ObjectId(5)), 1);
        assert_eq!(c.bump_version(ObjectId(5)), 1);
    }
}
