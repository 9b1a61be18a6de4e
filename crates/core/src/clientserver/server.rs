//! The database server of CS/LS: the global client-granularity lock
//! table, callback recalls with downgrade, deadlock-avoiding admission,
//! grant-all rounds, collection windows / forward lists, location & load
//! queries, and the buffer/disk path that ships object payloads.
//!
//! A [`ServerSite`] is a [`ServerCore`] (lock table, buffer, disk, durable
//! store and their crash-restart) plus what only the client-server
//! protocol needs. Like a client it acts through the shared [`Cx`] alone;
//! the two things it has to ask of a client (fence a cached copy,
//! revalidate cached locks) and the one thing it reads from all of them
//! (the load table) go through the driver.

use siteselect_locks::{
    Acquire, CallbackTracker, ForwardEntry, ForwardList, Grants, QueueDiscipline, Targets,
    WindowManager, WindowOffer,
};
use siteselect_net::MessageKind;
use siteselect_obs::EventSink;
use siteselect_sim::Prng;
use siteselect_types::{
    ClientId, ExperimentConfig, LockMode, ObjectId, ObjectMap, SimDuration, SimTime, SiteId,
    TransactionId,
};

use super::{Cx, Ev, GrantItem, Msg, TKey, Want};
use crate::server_core::ServerCore;

/// Info the server tracks for a lock-table-queued want.
#[derive(Debug, Clone, Copy)]
struct WantInfo {
    mode: LockMode,
    needs_data: bool,
    deadline: SimTime,
    /// The requesting transaction (for rejection notices).
    txn: TKey,
    /// When the want entered the server's lock queue (start of the
    /// lock-wait span emitted at grant time).
    queued_at: SimTime,
}

/// The server's index of lock-table-queued wants, keyed `(object, client)`.
///
/// Stored as one small vector per client: a client has at most a handful of
/// requests queued at once, so a linear scan beats hashing the composite
/// key.
struct WaitingWants {
    per_client: Vec<Vec<(ObjectId, WantInfo)>>,
}

impl WaitingWants {
    fn new(clients: usize) -> Self {
        WaitingWants {
            per_client: vec![Vec::new(); clients],
        }
    }

    /// Records (or replaces) the want of `client` on `object`.
    fn insert(&mut self, object: ObjectId, client: ClientId, info: WantInfo) {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        let list = &mut self.per_client[client.index()];
        match list.iter_mut().find(|(o, _)| *o == object) {
            Some(slot) => slot.1 = info,
            None => list.push((object, info)),
        }
    }

    /// Removes and returns the want of `client` on `object`, if any.
    fn remove(&mut self, object: ObjectId, client: ClientId) -> Option<WantInfo> {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        let list = &mut self.per_client[client.index()];
        let pos = list.iter().position(|(o, _)| *o == object)?;
        Some(list.remove(pos).1)
    }

    /// True if `client` has a want queued on `object`.
    fn contains(&self, object: ObjectId, client: ClientId) -> bool {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        self.per_client[client.index()]
            .iter()
            .any(|(o, _)| *o == object)
    }
}

/// The server site's state.
pub(crate) struct ServerSite {
    pub(crate) core: ServerCore<ClientId>,
    callbacks: CallbackTracker,
    windows: WindowManager,
    /// Forward lists currently travelling client→client, as shipped.
    routing: ObjectMap<ForwardList>,
    /// Lock-table-queued requests awaiting grant: data to ship on grant.
    waiting_wants: WaitingWants,
    /// Sequence counter for the pseudo-transactions that apply returned
    /// objects to the durable store (tagged with the high bit so they can
    /// never collide with workload transaction ids).
    pseudo_seq: u64,
}

impl ServerSite {
    pub(crate) fn new(cfg: &ExperimentConfig) -> Self {
        // The server's wait queue stays FIFO even under LS: deadline-ordered
        // waiter service (§3.3) is realized where it measurably helps — the
        // forward lists are deadline-ordered and expired requests are
        // refused — while EDF-ordering the lock queue itself breaks up
        // naturally batched reader grants and lowers aggregate success.
        ServerSite {
            core: ServerCore::new(cfg, QueueDiscipline::Fifo),
            callbacks: CallbackTracker::new(),
            windows: WindowManager::new(cfg.load_sharing.collection_window),
            routing: ObjectMap::new(),
            waiting_wants: WaitingWants::new(usize::from(cfg.clients)),
            pseudo_seq: 0,
        }
    }

    /// The window and callback managers stamp the run's timeline themselves.
    pub(crate) fn attach_sink(&mut self, sink: &EventSink) {
        self.windows.set_sink(sink.clone());
        self.callbacks.set_sink(sink.clone());
    }

    pub(crate) fn windows_opened(&self) -> u64 {
        self.windows.total_opened()
    }

    /// Forward hops lost in transit since the server last acted: each
    /// chain is broken, so the server's own copy becomes authoritative again
    /// and later requests must not keep batching onto the dead route.
    pub(crate) fn forget_lost_routes(&mut self, cx: &mut Cx) {
        for object in cx.lost_forwards.drain(..) {
            self.routing.remove(object);
        }
    }

    /// Pre-generates this server's crashes and the slow-disk episodes. The
    /// next crash is drawn past the expected outage (`t += exp(mean
    /// recovery time)` after each), so a crash rarely lands in the previous
    /// outage; the server schedules its own rejoin when it crashes, since
    /// how long replay takes depends on the log.
    pub(crate) fn schedule_faults(&mut self, cx: &mut Cx) {
        let f = cx.cfg.faults;
        let end = SimTime::ZERO + cx.cfg.runtime.duration;
        if !f.mean_time_to_server_crash.is_zero() {
            let mut prng = Prng::seed_from_u64(cx.cfg.runtime.seed).derive(0xFA_E4);
            let mut t = SimTime::ZERO;
            loop {
                t += prng.exp_duration(f.mean_time_to_server_crash);
                if t >= end {
                    break;
                }
                cx.queue.push(t, Ev::ServerCrash);
                if f.mean_recovery_time.is_zero() {
                    break; // permanent: the site goes dark, no replay
                }
                t += prng.exp_duration(f.mean_recovery_time);
            }
        }
        self.core.schedule_slow_disk(&cx.cfg);
    }

    pub(crate) fn on_msg(&mut self, cx: &mut Cx, msg: Msg) {
        match msg {
            Msg::RequestBatch {
                txn,
                client,
                wants,
                grant_all,
            } => {
                if grant_all {
                    self.grant_all(cx, txn, client, &wants);
                } else {
                    for &w in &wants {
                        self.handle_want(cx, txn, client, w);
                    }
                }
                cx.recycle_want_buf(wants);
            }
            Msg::ObjectReturn {
                object,
                from,
                downgraded,
            } => self.on_return(cx, object, from, downgraded),
            Msg::CallbackAck {
                object,
                from,
                had_copy,
            } => self.on_ack(cx, object, from, had_copy),
            Msg::CancelWants { client, objects } => {
                for object in objects {
                    let (_, grants) = self.core.locks.cancel_wait(object, client);
                    self.waiting_wants.remove(object, client);
                    self.apply_grants(cx, object, grants);
                }
            }
            // A load query needs the load table, which the driver reads off
            // the clients: it calls `on_load_query` itself.
            _ => unreachable!("client message delivered to server"),
        }
    }

    // ------------------------------------------------------------------
    // Grant-all (LS first round)
    // ------------------------------------------------------------------

    /// The LS first round: the batch is processed exactly like a CS batch
    /// (grantable wants ship at once, the rest queue with callbacks or
    /// collection windows), and — when anything conflicted — the locations
    /// of the conflicting holders ride back to the client (§4), which may
    /// then cancel its queued requests and ship the transaction to a
    /// better site (H2).
    fn grant_all(&mut self, cx: &mut Cx, txn: TKey, client: ClientId, wants: &[Want]) {
        let conflicts: Vec<(ObjectId, Vec<(ClientId, LockMode)>)> = wants
            .iter()
            .filter_map(|w| {
                let conflicting = self
                    .core
                    .locks
                    .holders(w.object)
                    .filter(|&(h, m)| h != client && !m.compatible_with(w.mode));
                let holders: Vec<(ClientId, LockMode)> =
                    self.or_route_tail(w.object, conflicting).collect();
                (!holders.is_empty()).then_some((w.object, holders))
            })
            .collect();
        for &w in wants {
            self.handle_want(cx, txn, client, w);
        }
        if !conflicts.is_empty() {
            let report = || Msg::ConflictReport { txn, conflicts };
            cx.send_to_client(client, MessageKind::ConflictInfo, 0, report);
        }
    }

    /// `holders`, or — when there are none — the tail of the object's
    /// travelling forward list as its location (§4: "the server refers to
    /// the object's forward list and reports the last client in the list").
    fn or_route_tail<'a>(
        &'a self,
        object: ObjectId,
        holders: impl Iterator<Item = (ClientId, LockMode)> + 'a,
    ) -> impl Iterator<Item = (ClientId, LockMode)> + 'a {
        let mut holders = holders.peekable();
        let tail = match holders.peek() {
            Some(_) => None,
            None => self.routing.get(object).and_then(ForwardList::last_client),
        };
        holders.chain(tail.map(|last| (last, LockMode::Exclusive)))
    }

    // ------------------------------------------------------------------
    // Individual requests (CS path and LS commit-local)
    // ------------------------------------------------------------------

    fn handle_want(&mut self, cx: &mut Cx, txn: TKey, client: ClientId, w: Want) {
        let ls = cx.ls && cx.cfg.load_sharing.forward_lists_enabled;
        // §3.3: the server refuses to work for already-expired requests.
        if cx.ls && cx.cfg.load_sharing.request_scheduling_enabled && w.deadline < cx.now {
            self.reject(cx, client, txn, true);
            return;
        }
        // Failure handling: a retransmit from a holder whose cached lock is
        // being called back must not be answered — the grant or re-ship
        // would cross the holder's own callback ack on the wire, and the
        // ack releases the lock, so a conflicting grant could coexist with
        // the re-shipped copy. Drop it; the ack (or the lease) settles the
        // lock and the client's next retry or deadline sweep settles the
        // transaction.
        if cx.faults_active && self.callbacks.outstanding(w.object).any(|c| c == client) {
            return;
        }
        if let Some(held) = self.core.locks.held_mode(w.object, client) {
            if held.covers(w.mode) {
                self.ship(cx, txn, client, (w.object, w.mode, w.needs_data));
                return;
            }
        }
        let conflicting = self.conflicting(w.object, client, w.mode);

        // Grouped-lock path: requests that arrive while the object is
        // already being chased (an outstanding recall, an open window, or a
        // travelling forward list) are *batched* instead of queued — the
        // first conflicting request always goes through the plain callback
        // immediately, so grouping never delays the uncontended case.
        // A routed object always batches: the server's copy is stale while
        // the chain travels (a chain client may write), so nothing may be
        // granted from it — not even to the chain's own tail, for whom
        // `conflicting` filters to empty.
        let forward_eligible = ls
            && (self.routing.contains(w.object)
                || (!conflicting.is_empty()
                    && (self.windows.is_open(w.object) || self.callbacks.is_recalling(w.object))));
        if forward_eligible {
            let entry = ForwardEntry {
                client,
                txn: TransactionId::from_raw(txn),
                deadline: w.deadline,
                mode: w.mode,
            };
            if let WindowOffer::Opened { closes_at } = self.windows.offer(w.object, entry, cx.now) {
                cx.queue
                    .push(closes_at, Ev::WindowClose { object: w.object });
            }
            return;
        }

        self.want_plain(cx, txn, client, w, conflicting);
    }

    /// The holders whose locks on `object` conflict with `client` wanting
    /// it in `mode`. A travelling forward list leaves the lock table empty;
    /// the chain tail stands in as the holder so a request batches behind
    /// the chain instead of being granted against the in-flight copies.
    fn conflicting(&self, object: ObjectId, client: ClientId, mode: LockMode) -> Targets {
        self.or_route_tail(object, self.core.locks.holders(object))
            .filter(|&(h, m)| h != client && !m.compatible_with(mode))
            .map(|(h, _)| h)
            .collect()
    }

    /// The plain (CS-RTDBS) path: queue in the lock table under deadlock
    /// avoidance and recall conflicting cached locks.
    fn want_plain(
        &mut self,
        cx: &mut Cx,
        txn: TKey,
        client: ClientId,
        w: Want,
        conflicting: Targets,
    ) {
        // Failure handling: a retransmitted request whose original is still
        // queued must not double-queue in the lock table.
        if cx.faults_active && self.waiting_wants.contains(w.object, client) {
            return;
        }
        if self.core.locks.would_deadlock(client, conflicting.iter().copied()) {
            self.reject(cx, client, txn, false);
            return;
        }
        match self
            .core
            .locks
            .request(w.object, client, w.mode, w.deadline)
        {
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                self.ship(cx, txn, client, (w.object, w.mode, w.needs_data));
            }
            Acquire::Blocked { .. } => {
                self.waiting_wants.insert(
                    w.object,
                    client,
                    WantInfo {
                        mode: w.mode,
                        needs_data: w.needs_data,
                        deadline: w.deadline,
                        txn,
                        queued_at: cx.now,
                    },
                );
                Self::recall(&mut self.callbacks, cx, w.object, w.mode, conflicting);
            }
        }
    }

    /// Calls back `holders`' cached locks on `object` for a `desired`
    /// request. A holder already being called back is not asked twice, and
    /// a lost recall is recovered by the callback lease: the server
    /// presumes the silent holder dead and reclaims. It takes the tracker,
    /// not the site, so a caller can hand it holders straight off the lock
    /// table.
    fn recall(
        callbacks: &mut CallbackTracker,
        cx: &mut Cx,
        object: ObjectId,
        desired: LockMode,
        holders: impl IntoIterator<Item = ClientId>,
    ) {
        for t in callbacks.begin_at(object, holders, cx.now) {
            let recall = || Msg::Recall {
                object,
                desired,
                forward: None,
            };
            cx.send_to_client(t, MessageKind::Recall, 0, recall);
        }
    }

    fn reject(&mut self, cx: &mut Cx, client: ClientId, txn: TKey, expired: bool) {
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::ServerReject {
                txn: TransactionId::from_raw(txn),
                expired,
            }
        });
        let rejected = || Msg::Rejected { txn, expired };
        cx.send_to_client(client, MessageKind::ConflictInfo, 0, rejected);
    }

    // ------------------------------------------------------------------
    // Shipping
    // ------------------------------------------------------------------

    /// Ships one granted `(object, mode, with_data)` item to `client`. An
    /// item already in the server buffer (or a bare lock) goes on the wire
    /// immediately; one that misses ships when its disk read completes.
    /// `txn` attributes the disk span of a miss to the requesting
    /// transaction.
    fn ship(&mut self, cx: &mut Cx, txn: TKey, client: ClientId, item: GrantItem) {
        let (object, _, with_data) = item;
        let mut ready = true;
        if with_data {
            ready = self.core.buffer.probe(object).is_some();
            if cx.now >= cx.warmup_end {
                cx.metrics.server_buffer.record(ready);
            }
            if !ready {
                self.core.buffer.insert(object);
            }
        }
        if ready {
            self.ship_now(cx, client, item);
        } else {
            let done = self.core.disk.schedule_batch(cx.now, 1);
            cx.queue.push(
                done,
                Ev::ServerFetchDone {
                    to: client,
                    txn,
                    item,
                    scheduled_at: cx.now,
                },
            );
        }
    }

    /// Puts the granted item on the wire (buffer already warm): an object
    /// frame if it carries data, a bare lock grant otherwise.
    pub(crate) fn ship_now(&mut self, cx: &mut Cx, to: ClientId, item: GrantItem) {
        let (kind, objects) = if item.2 {
            (MessageKind::ObjectSend, 1)
        } else {
            (MessageKind::LockGrant, 0)
        };
        let grant = || Msg::GrantBatch {
            items: [item].into_iter().collect(),
        };
        cx.send_to_client(to, kind, objects, grant);
    }

    // ------------------------------------------------------------------
    // Returns, acks and grant cascades
    // ------------------------------------------------------------------

    fn on_return(&mut self, cx: &mut Cx, object: ObjectId, from: ClientId, downgraded: bool) {
        self.core.buffer.insert(object);
        // Durable apply: a returned object carries the newest committed
        // version, so it is WAL-logged and force-committed under a
        // server-local pseudo-transaction before any volatile bookkeeping —
        // a crash from here on replays this write instead of losing it.
        self.pseudo_seq += 1;
        let pseudo = (1u64 << 63) | self.pseudo_seq;
        let stamp = self.core.store.write(pseudo, object);
        cx.sink
            .emit(cx.now, SiteId::Server, || siteselect_obs::Event::WalWrite {
                txn: TransactionId::from_raw(pseudo),
                page: object,
                stamp,
            });
        self.core.force_commit(cx.now, &cx.sink, pseudo);
        self.callbacks.acknowledge(object, from);
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        // The end of a forward chain: the object is home again.
        self.routing.remove(object);
        let grants = if downgraded {
            self.core.locks.downgrade(object, from)
        } else {
            self.core.locks.release(object, from)
        };
        self.apply_grants(cx, object, grants);
    }

    fn on_ack(&mut self, cx: &mut Cx, object: ObjectId, from: ClientId, had_copy: bool) {
        self.callbacks.acknowledge(object, from);
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        let grants = self.core.locks.release(object, from);
        self.apply_grants(cx, object, grants);
        if !had_copy {
            // The recalled holder could not serve the forward list that
            // rode on the callback; the server serves it from its own copy.
            if let Some(list) = self.routing.remove(object) {
                self.serve_list_from_server(cx, object, list);
            }
        }
    }

    /// Completes grants that cascaded out of a release/downgrade/cancel.
    pub(crate) fn apply_grants(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        granted: Grants<ClientId>,
    ) {
        for w in granted {
            let client = w.owner;
            let Some(info) = self.waiting_wants.remove(object, client) else {
                // No want on file (cancelled or raced): undo the grant.
                let grants = self.undo_grant(object, client, w.upgrade);
                self.apply_grants(cx, object, grants);
                continue;
            };
            if cx.ls && cx.cfg.load_sharing.request_scheduling_enabled && info.deadline < cx.now {
                // §3.3: do not ship to a transaction that already missed.
                let grants = self.undo_grant(object, client, w.upgrade);
                self.reject(cx, client, info.txn, true);
                self.apply_grants(cx, object, grants);
                continue;
            }
            // The want waited in the server's lock queue from enqueue to
            // this grant.
            let txn = TransactionId::from_raw(info.txn);
            let lock_wait = siteselect_obs::SpanKind::LockWait;
            cx.sink
                .span(cx.now, SiteId::Server, txn, lock_wait, info.queued_at, None);
            self.ship(cx, info.txn, client, (object, info.mode, info.needs_data));
        }
    }

    /// Takes back a cascaded grant that will never ship. An upgrade grant
    /// converted the client's held shared lock in place, and the client
    /// still caches that shared copy — so it reverts to shared; anything
    /// else is released outright.
    fn undo_grant(
        &mut self,
        object: ObjectId,
        client: ClientId,
        upgrade: bool,
    ) -> Grants<ClientId> {
        if upgrade {
            self.core.locks.downgrade(object, client)
        } else {
            self.core.locks.release(object, client)
        }
    }

    // ------------------------------------------------------------------
    // Collection windows and forward lists
    // ------------------------------------------------------------------

    /// A collection window closed: serve its list if the object allows,
    /// otherwise keep collecting for another window. The window manager
    /// hears which, so the trace tells one episode per request.
    pub(crate) fn on_window_close(&mut self, cx: &mut Cx, object: ObjectId) {
        let Some((list, episode)) = self.windows.close_at(object, cx.now) else {
            return;
        };
        match self.serve_window(cx, object, list) {
            Some(list) => {
                if let Some(at) = self.windows.reoffer(list, episode, cx.now) {
                    cx.queue.push(at, Ev::WindowClose { object });
                }
            }
            None => self.windows.depart(episode, cx.now),
        }
    }

    /// Serves a closed window's `list` — from the server's copy, down a
    /// chain started by one recall, or by the plain path — or hands it back
    /// when the object is not yet servable.
    fn serve_window(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        list: ForwardList,
    ) -> Option<ForwardList> {
        if self.routing.contains(object) || self.callbacks.is_recalling(object) {
            // The object is still travelling or being recalled for the
            // plain-path waiter: keep collecting until it comes home.
            return Some(list);
        }
        if list.len() == 1 {
            // A window that collected only one request gains nothing from
            // grouping: serve it as a plain recall, which also lets an
            // exclusive holder downgrade and keep its cached copy.
            let e = list.entries()[0];
            let w = Want {
                object,
                mode: e.mode,
                needs_data: true,
                deadline: e.deadline,
            };
            let conflicting = self.conflicting(object, e.client, e.mode);
            self.want_plain(cx, e.txn.as_u64(), e.client, w, conflicting);
            return None;
        }
        let el_holder = self
            .core
            .locks
            .holders(object)
            .find(|(_, m)| m.is_exclusive())
            .map(|(h, _)| h);
        match el_holder {
            Some(holder) if self.core.locks.waiters(object).is_empty() => {
                // One recall carries the whole forward list; the holder
                // ships the object down the chain and the last client
                // returns it (2n+1 messages, §3.4).
                let recall = || Msg::Recall {
                    object,
                    desired: LockMode::Exclusive,
                    forward: Some(list.clone()),
                };
                if cx.send_to_client(holder, MessageKind::Recall, 0, recall) {
                    self.routing.insert(object, list);
                    let grants = self.core.locks.release(object, holder);
                    debug_assert!(grants.is_empty(), "no queue behind a routed object");
                    return None;
                }
                // The chain never started, so the holder keeps its lock —
                // the table entry is what fences its cached exclusive from
                // later grants. A callback lease makes the loss recoverable
                // (a dead holder is reclaimed at expiry); until then the
                // batch keeps collecting.
                self.callbacks.begin_at(object, [holder], cx.now);
            }
            // A holder remains but plain-path waiters are queued: let the
            // callback complete and collect a little longer.
            Some(_) => {}
            // The object is home, or only shared copies remain and the
            // batch only reads: serve it from the server's copy as a chain.
            None if self.core.locks.holders(object).next().is_none()
                || list.entries().iter().all(|e| e.mode == LockMode::Shared) =>
            {
                self.serve_list_from_server(cx, object, list);
                return None;
            }
            // An exclusive entry needs the shared copies called back first.
            None => {
                let holders = self.core.locks.holders(object).map(|(h, _)| h);
                let exclusive = LockMode::Exclusive;
                Self::recall(&mut self.callbacks, cx, object, exclusive, holders);
            }
        }
        Some(list)
    }

    /// Ships a forward list starting from the server's copy of the object.
    fn serve_list_from_server(&mut self, cx: &mut Cx, object: ObjectId, mut list: ForwardList) {
        let Some(entry) = cx.pop_live(&mut list) else {
            return; // every requester expired or crashed; the object stays home
        };
        self.core.buffer.insert(object);
        if list.is_empty() {
            // Single live entry: an ordinary tracked grant.
            match self
                .core
                .locks
                .request(object, entry.client, entry.mode, entry.deadline)
            {
                Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                    self.ship(cx, entry.txn.as_u64(), entry.client, (object, entry.mode, true));
                }
                Acquire::Blocked { .. } => {
                    // Another client claimed the object in the meantime:
                    // fall back to the plain path.
                    self.waiting_wants.insert(
                        object,
                        entry.client,
                        WantInfo {
                            mode: entry.mode,
                            needs_data: true,
                            deadline: entry.deadline,
                            txn: entry.txn.as_u64(),
                            queued_at: cx.now,
                        },
                    );
                }
            }
            return;
        }
        // A real chain: route it untracked; the last client returns the
        // object. If the first hop is lost the chain never starts and the
        // object stays home.
        let to = entry.client;
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::ForwardHop { object, to }
        });
        let hop = || Msg::ObjectForward {
            from: SiteId::Server,
            object,
            mode: entry.mode,
            rest: list.clone(),
        };
        if cx.send_to_client(to, MessageKind::ObjectSend, 1, hop) {
            self.routing.insert(object, list);
        }
    }

    // ------------------------------------------------------------------
    // Location / load queries
    // ------------------------------------------------------------------

    /// Answers a location/load query. Load information is piggybacked on
    /// the constant client-server traffic (§4), so the server's view is
    /// current: `loads` is read live off the clients by the driver.
    pub(crate) fn on_load_query(
        &mut self,
        cx: &mut Cx,
        txn: TKey,
        objects: Vec<ObjectId>,
        loads: Vec<(ClientId, usize, f64)>,
    ) {
        let locations: Vec<(ObjectId, Vec<(ClientId, LockMode)>)> = objects
            .iter()
            .map(|&o| {
                let holders = self.core.locks.holders(o);
                (o, self.or_route_tail(o, holders).collect())
            })
            .collect();
        let client = TransactionId::from_raw(txn).origin();
        // A lost reply leaves the transaction in AwaitInfo until the
        // deadline sweep reaps it — a miss, never a hang.
        let reply = || Msg::LoadReply {
            txn,
            locations,
            loads,
        };
        cx.send_to_client(client, MessageKind::LoadReply, 0, reply);
    }

    // ------------------------------------------------------------------
    // Sweeps
    // ------------------------------------------------------------------

    /// Cancels lock-queue waiters whose deadline has passed and grants
    /// whoever they were holding up.
    pub(crate) fn sweep(&mut self, cx: &mut Cx) {
        let (expired, grants) = self.core.locks.cancel_expired(cx.now);
        for (object, waiter) in expired {
            self.waiting_wants.remove(object, waiter.owner);
        }
        for (object, waiters) in grants {
            self.apply_grants(cx, object, waiters);
        }
    }

    /// Failure handling: the callbacks unanswered for longer than `lease`,
    /// whose holders are presumed lost. The driver takes each through
    /// [`reclaim`](Self::reclaim), the holder's fence, and
    /// [`apply_grants`](Self::apply_grants).
    pub(crate) fn expired_leases(
        &self,
        now: SimTime,
        lease: SimDuration,
    ) -> Vec<(ObjectId, ClientId)> {
        self.callbacks.expired(now, lease)
    }

    /// Takes `holder`'s lock on `object` back without its answer; returns
    /// the waiters that unblocks, to be granted from the server's own copy
    /// once the holder's cached copy is fenced.
    pub(crate) fn reclaim(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        holder: ClientId,
    ) -> Grants<ClientId> {
        cx.metrics.faults.leases_expired += 1;
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::LeaseExpired { object, holder }
        });
        self.callbacks.acknowledge(object, holder);
        self.core.locks.release(object, holder)
    }

    /// A forward chain whose every requester deadline has passed can no
    /// longer terminate by itself (a crashed intermediary may have
    /// swallowed the object): the server's copy becomes authoritative
    /// again, which also lets stalled collection windows drain.
    pub(crate) fn forget_dead_routes(&mut self, now: SimTime) {
        self.routing
            .retain(|_, l| l.entries().iter().any(|e| e.deadline >= now));
    }

    // ------------------------------------------------------------------
    // Server crash-restart
    // ------------------------------------------------------------------

    /// The server crashes: on top of what [`ServerCore::crash`] loses, the
    /// callback and window managers, the routing table and the queued
    /// wants go. Clients keep running against their caches — their
    /// outstanding requests die silently and are re-driven by retries or
    /// reaped by the deadline sweeps. Returns when to rejoin, if ever.
    pub(crate) fn crash(&mut self, cx: &mut Cx) -> Option<SimTime> {
        if !self.core.server_up {
            return None; // scheduled crash landed while already down
        }
        let ready = self
            .core
            .crash(cx.now, &cx.cfg, &cx.sink, &mut cx.fabric, &mut cx.metrics);
        self.callbacks = CallbackTracker::new();
        self.windows = WindowManager::new(cx.cfg.load_sharing.collection_window);
        self.attach_sink(&cx.sink);
        self.routing = ObjectMap::new();
        self.waiting_wants = WaitingWants::new(usize::from(cx.cfg.clients));
        ready
    }

    /// After a restart the lock table is re-derived from the surviving
    /// clients' cached locks — the model's stand-in for clients
    /// revalidating their leases on reconnect (the callback table starts
    /// empty and is rebuilt on demand). False if `client`'s cached `mode`
    /// on `object` no longer fits (possible only via a grant in flight at
    /// the crash instant): the copy must be fenced so its holder re-fetches.
    pub(crate) fn revalidate(
        &mut self,
        client: ClientId,
        object: ObjectId,
        mode: LockMode,
    ) -> bool {
        match self.core.locks.request(object, client, mode, SimTime::MAX) {
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => true,
            Acquire::Blocked { .. } => {
                let _ = self.core.locks.cancel_wait(object, client);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::SiteDest;
    use super::*;
    use siteselect_types::SystemKind;

    fn site(system: SystemKind) -> (ServerSite, Cx) {
        let mut cfg = ExperimentConfig::paper(system, 4, 0.05);
        cfg.runtime.duration = SimDuration::from_secs(50);
        cfg.runtime.warmup = SimDuration::from_secs(5);
        (ServerSite::new(&cfg), Cx::new(cfg))
    }

    #[test]
    fn grant_all_round_grants_free_objects_and_reports_conflicts() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        // Client 1 holds object 1 exclusively; object 2 is free.
        s.core
            .locks
            .request(ObjectId(1), ClientId(1), LockMode::Exclusive, SimTime::MAX);
        let wants = vec![
            Want {
                object: ObjectId(1),
                mode: LockMode::Exclusive,
                needs_data: true,
                deadline: SimTime::from_secs(100),
            },
            Want {
                object: ObjectId(2),
                mode: LockMode::Shared,
                needs_data: true,
                deadline: SimTime::from_secs(100),
            },
        ];
        s.on_msg(
            &mut cx,
            Msg::RequestBatch {
                txn: 7,
                client: ClientId(0),
                wants,
                grant_all: true,
            },
        );
        // The free object was granted immediately...
        assert_eq!(
            s.core.locks.held_mode(ObjectId(2), ClientId(0)),
            Some(LockMode::Shared)
        );
        // ...the conflicted one queued with a recall to the holder...
        assert!(s.callbacks.is_recalling(ObjectId(1)));
        assert!(s.waiting_wants.contains(ObjectId(1), ClientId(0)));
        let sent = cx.drain_deliveries();
        assert!(sent.iter().any(|(to, m)| {
            *to == SiteDest::Client(ClientId(1)) && matches!(m, Msg::Recall { .. })
        }));
        // ...and a conflict report went back to the requester.
        assert!(sent.iter().any(|(to, m)| {
            *to == SiteDest::Client(ClientId(0)) && matches!(m, Msg::ConflictReport { txn: 7, .. })
        }));
    }

    #[test]
    fn routing_location_reports_last_client() {
        let (mut s, _) = site(SystemKind::LoadSharing);
        let mut list = ForwardList::new(ObjectId(3));
        list.push(ForwardEntry {
            client: ClientId(2),
            txn: TransactionId::new(ClientId(2), 1),
            deadline: SimTime::from_secs(50),
            mode: LockMode::Exclusive,
        });
        list.push(ForwardEntry {
            client: ClientId(3),
            txn: TransactionId::new(ClientId(3), 1),
            deadline: SimTime::from_secs(80),
            mode: LockMode::Exclusive,
        });
        s.routing.insert(ObjectId(3), list);
        let holders: Vec<_> = s
            .or_route_tail(ObjectId(3), std::iter::empty())
            .collect();
        assert_eq!(holders, vec![(ClientId(3), LockMode::Exclusive)]);
    }

    /// Closes a window on `object` that collected exclusive requests from
    /// `clients`.
    fn close_window(s: &mut ServerSite, cx: &mut Cx, object: ObjectId, clients: &[u16]) {
        for &c in clients {
            let entry = ForwardEntry {
                client: ClientId(c),
                txn: TransactionId::new(ClientId(c), 1),
                deadline: SimTime::from_secs(40),
                mode: LockMode::Exclusive,
            };
            s.windows.offer(object, entry, cx.now);
        }
        s.on_window_close(cx, object);
    }

    #[test]
    fn a_routed_recall_lost_to_a_down_holder_starts_no_chain() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let (object, holder) = (ObjectId(4), ClientId(1));
        s.core
            .locks
            .request(object, holder, LockMode::Exclusive, SimTime::MAX);
        cx.fabric.set_site_down(SiteId::Client(holder));
        close_window(&mut s, &mut cx, object, &[2, 3]);
        // No route, and the holder keeps the lock that fences its copy...
        assert!(!s.routing.contains(object));
        assert_eq!(
            s.core.locks.held_mode(object, holder),
            Some(LockMode::Exclusive)
        );
        // ...a callback to it is on file for the lease to settle...
        assert_eq!(
            s.callbacks.outstanding(object).collect::<Vec<_>>(),
            [holder]
        );
        // ...and the batch is offered to a fresh window.
        assert_eq!(s.windows.pending(object), 2);
        assert!(cx.drain_deliveries().is_empty());
    }

    /// `client`'s transaction asks the server for `object` exclusively.
    fn want(s: &mut ServerSite, cx: &mut Cx, client: u16, object: ObjectId) -> TKey {
        let client = ClientId(client);
        let txn = TransactionId::new(client, 1).as_u64();
        let mut wants = cx.take_want_buf();
        wants.push(Want {
            object,
            mode: LockMode::Exclusive,
            needs_data: true,
            deadline: SimTime::from_secs(40),
        });
        let grant_all = false;
        s.on_msg(cx, Msg::RequestBatch { txn, client, wants, grant_all });
        txn
    }

    /// CS; A (client 0) holds X, C (client 2) holds Z. B (client 1), then
    /// C, want X; A returns it, so B is granted X and C now waits for B
    /// (no longer for A).
    fn x_regranted_to_b() -> (ServerSite, Cx, ObjectId) {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let (x, z) = (ObjectId(1), ObjectId(2));
        s.core.locks.request(x, ClientId(0), LockMode::Exclusive, SimTime::MAX);
        s.core.locks.request(z, ClientId(2), LockMode::Exclusive, SimTime::MAX);
        want(&mut s, &mut cx, 1, x);
        want(&mut s, &mut cx, 2, x);
        let (object, from, downgraded) = (x, ClientId(0), false);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from, downgraded });
        assert_eq!(s.core.locks.held_mode(x, ClientId(1)), Some(LockMode::Exclusive));
        assert!(s.waiting_wants.contains(x, ClientId(2)));
        cx.drain_deliveries();
        (s, cx, z)
    }

    #[test]
    fn a_request_against_a_waiter_whose_blocker_moved_on_queues() {
        let (mut s, mut cx, z) = x_regranted_to_b();
        // A waits for C, C for B, B for nobody: no cycle, so A queues and
        // C is recalled.
        want(&mut s, &mut cx, 0, z);
        assert!(s.waiting_wants.contains(z, ClientId(0)));
        let sent = cx.drain_deliveries();
        assert!(
            matches!(
                &sent[..],
                [(SiteDest::Client(ClientId(2)), Msg::Recall { object, .. })] if *object == z
            ),
            "{sent:?}"
        );
    }

    #[test]
    fn a_request_that_closes_a_cycle_through_a_regranted_object_is_refused() {
        let (mut s, mut cx, z) = x_regranted_to_b();
        // B waiting for C, who waits for B's X, closes a cycle.
        let txn = want(&mut s, &mut cx, 1, z);
        assert!(!s.waiting_wants.contains(z, ClientId(1)));
        let sent = cx.drain_deliveries();
        let b = SiteDest::Client(ClientId(1));
        assert!(
            matches!(
                &sent[..],
                [(to, Msg::Rejected { txn: t, expired: false })] if *to == b && *t == txn
            ),
            "{sent:?}"
        );
    }

    #[test]
    fn a_lost_first_hop_leaves_the_object_home() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let object = ObjectId(4);
        cx.fabric.set_site_down(SiteId::Client(ClientId(2)));
        close_window(&mut s, &mut cx, object, &[2, 3]);
        assert!(!s.routing.contains(object));
        // A chain that never started has no broken route to report.
        assert!(cx.lost_forwards.is_empty());
        assert!(s.core.locks.holders(object).next().is_none());
        assert!(cx.drain_deliveries().is_empty());
    }
}
