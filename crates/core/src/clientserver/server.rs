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

use std::collections::HashMap;

use siteselect_locks::table::{ExpiredWaiters, UnblockedGrants};
use siteselect_locks::{
    Acquire, CallbackTracker, ForwardEntry, ForwardList, Grants, LockTable, QueueDiscipline,
    Targets, WindowManager, WindowOffer,
};
use siteselect_net::MessageKind;
use siteselect_obs::EventSink;
use siteselect_sim::Prng;
use siteselect_types::{
    ClientId, ExperimentConfig, FixedState, InlineVec, LockMode, ObjectId, ObjectMap, SimDuration,
    SimTime, SiteId, TransactionId,
};

use super::{Cx, Ev, GrantItem, Holding, Load, Msg, TKey, Want};
use crate::server_core::ServerCore;

/// Info the server tracks for a lock-table-queued want.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WantInfo {
    want: Want,
    /// The requesting transaction (for rejection notices).
    txn: TKey,
    /// When the want entered the server's lock queue (start of the
    /// lock-wait span emitted at grant time).
    queued_at: SimTime,
}

/// Everything the server knows about one client on one object besides
/// the lock table's entry. A link exists only while one of its fields
/// holds something ([`ServerSite::with_link`] drops an emptied one).
#[derive(Debug, Default, PartialEq)]
struct Link {
    /// The client's request the lock table queues on the object, with the
    /// data to ship on grant: set exactly while the table queues it, so
    /// whatever takes the request out of the table clears it too.
    queued: Option<WantInfo>,
    /// A request from the client while it still owes an answer on the
    /// object, served when that answer arrives.
    parked: Option<(TKey, Want)>,
    /// When the read of each grant of the object to the client still on
    /// the server disk was scheduled: a recall would overtake such a
    /// grant, and one whose entry is gone (a lease reclaim or a crash
    /// struck it) never ships.
    on_disk: InlineVec<SimTime, 1>,
    /// A recall (with the mode wanted) held until those grants are on the
    /// wire.
    held_recall: Option<LockMode>,
    /// When a lease reclaim or a dead route last fenced the link, for one
    /// lease: an answer the client sent by then answers a recall already
    /// settled.
    fenced_at: Option<SimTime>,
}

impl Link {
    fn is_empty(&self) -> bool {
        *self == Link::default()
    }
}

/// A forward list travelling client→client: `head` holds the object first
/// (the recalled holder, or the first requester when the server ships the
/// object itself) and `list` is the rest of the chain, as shipped.
struct Route {
    head: ClientId,
    list: ForwardList,
}

/// The server site's state.
pub(crate) struct ServerSite {
    pub(crate) core: ServerCore<ClientId>,
    callbacks: CallbackTracker,
    windows: WindowManager,
    /// Forward chains currently travelling.
    routing: ObjectMap<Route>,
    /// What the server knows about each (object, client) besides its lock.
    links: HashMap<(ObjectId, ClientId), Link, FixedState>,
    /// The holders the last recall newly messaged, kept so a recall of
    /// more holders than it keeps inline reuses its spill.
    fresh_targets: Targets,
    /// The sweep's scratch: the expired lock waiters, and the grants their
    /// going unblocks.
    expired: ExpiredWaiters<ClientId>,
    swept: UnblockedGrants<ClientId>,
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
            links: HashMap::default(),
            fresh_targets: Targets::new(),
            expired: Vec::new(),
            swept: Vec::new(),
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
                cx.recycle_buf(wants);
            }
            Msg::ObjectReturn {
                object,
                from,
                downgraded,
                sent_at,
            } => self.on_return(cx, object, (from, sent_at), downgraded),
            Msg::CallbackAck {
                object,
                from,
                had_copy,
                sent_at,
            } => self.on_ack(cx, object, (from, sent_at), had_copy),
            Msg::CancelWants { client, objects } => {
                for object in objects {
                    let (_, grants) = self.core.locks.cancel_wait(object, client);
                    self.with_link((object, client), |l| (l.queued, l.parked) = (None, None));
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
        let mut conflicts: Vec<Holding> = cx.take_buf();
        for w in wants {
            let conflicting = self
                .core
                .locks
                .holders(w.object)
                .filter(|&(h, m)| h != client && !m.compatible_with(w.mode));
            let rows = Self::or_route_tail(&self.routing, w.object, conflicting);
            conflicts.extend(rows.map(|(holder, mode)| Holding { object: w.object, holder, mode }));
        }
        for &w in wants {
            self.handle_want(cx, txn, client, w);
        }
        if !conflicts.is_empty() {
            let report = || Msg::ConflictReport {
                txn,
                conflicts: std::mem::take(&mut conflicts),
            };
            cx.send_to_client(client, MessageKind::ConflictInfo, 0, report);
        }
        // Empty, or the rows of a report the fabric lost.
        cx.recycle_buf(conflicts);
    }

    /// `holders`, or — when there are none — the tail of the object's
    /// travelling forward list as its location (§4: "the server refers to
    /// the object's forward list and reports the last client in the list").
    fn or_route_tail<'a>(
        routing: &'a ObjectMap<Route>,
        object: ObjectId,
        holders: impl Iterator<Item = (ClientId, LockMode)> + 'a,
    ) -> impl Iterator<Item = (ClientId, LockMode)> + 'a {
        let mut holders = holders.peekable();
        let tail = match holders.peek() {
            Some(_) => None,
            None => routing.get(object).and_then(|r| r.list.last_client()),
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
        // A request from a holder that still owes an answer on the object
        // waits for that answer: a grant now would cross it on the wire, and
        // the answer releases the lock the grant was made from.
        if self.owes(w.object, client) {
            self.park(client, txn, w);
            return;
        }
        if let Some(held) = self.core.locks.held_mode(w.object, client) {
            if held.covers(w.mode) {
                self.ship(cx, txn, client, (w.object, w.mode, w.needs_data));
                return;
            }
        }
        let (locks, routing) = (&self.core.locks, &self.routing);
        let contended = Self::conflicting(locks, routing, w.object, Some(client), w.mode)
            .next()
            .is_some();

        // Grouped-lock path: requests that arrive while the object is
        // already being chased (an outstanding recall, an open window, or a
        // travelling forward list) are *batched* instead of queued — the
        // first conflicting request always goes through the plain callback
        // immediately, so grouping never delays the uncontended case.
        // A routed object always batches: the server's copy is stale while
        // the chain travels (a chain client may write), so nothing may be
        // granted from it — not even to the chain's own tail, for whom
        // the conflicting holders filter to none.
        let forward_eligible = ls
            && (self.routing.contains(w.object)
                || (contended
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

        self.want_plain(cx, txn, client, w);
    }

    /// The holders whose locks on `object` conflict with `requester`
    /// wanting it in `mode` (every holder, for an exclusive want and no
    /// requester). A travelling forward list leaves the lock table empty;
    /// the chain tail stands in as the holder so a request batches behind
    /// the chain instead of being granted against the in-flight copies.
    /// It reads two fields, not the site, so a recall can feed it to the
    /// callback tracker without a list.
    fn conflicting<'a>(
        locks: &'a LockTable<ClientId>,
        routing: &'a ObjectMap<Route>,
        object: ObjectId,
        requester: Option<ClientId>,
        mode: LockMode,
    ) -> impl Iterator<Item = ClientId> + 'a {
        Self::or_route_tail(routing, object, locks.holders(object))
            .filter(move |&(h, m)| requester != Some(h) && !m.compatible_with(mode))
            .map(|(h, _)| h)
    }

    /// The plain (CS-RTDBS) path: queue in the lock table under deadlock
    /// avoidance and recall conflicting cached locks.
    fn want_plain(
        &mut self,
        cx: &mut Cx,
        txn: TKey,
        client: ClientId,
        w: Want,
    ) {
        // A retransmitted request whose original is still queued must not
        // double-queue in the lock table.
        if self.links.get(&(w.object, client)).is_some_and(|l| l.queued.is_some()) {
            return;
        }
        let (locks, routing) = (&self.core.locks, &self.routing);
        let conflicting = Self::conflicting(locks, routing, w.object, Some(client), w.mode);
        if locks.would_deadlock(client, conflicting) {
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
                let info = WantInfo { want: w, txn, queued_at: cx.now };
                self.with_link((w.object, client), |l| l.queued = Some(info));
                self.recall(cx, w.object, w.mode, Some(client));
            }
        }
    }

    /// True if `client` has yet to answer a recall of `object`.
    fn owes(&self, object: ObjectId, client: ClientId) -> bool {
        self.callbacks.outstanding(object).any(|c| c == client)
    }

    /// Parks `client`'s request until it answers the recall of `w.object`.
    fn park(&mut self, client: ClientId, txn: TKey, w: Want) {
        self.with_link((w.object, client), |l| l.parked = Some((txn, w)));
    }

    /// `client` answered on `object` (or its lease ran out): its parked
    /// request, if any, is handled now. The answer gave up the copy the
    /// request may have counted on (only a downgrade keeps it, and a second
    /// copy is harmless), so the grant carries the data.
    pub(crate) fn unpark(&mut self, cx: &mut Cx, object: ObjectId, client: ClientId) {
        if let Some((txn, w)) = self.with_link((object, client), |l| l.parked.take()) {
            self.handle_want(cx, txn, client, Want { needs_data: true, ..w });
        }
    }

    /// Calls back the cached locks on `object` that conflict with
    /// `requester` wanting it in `desired` (see
    /// [`conflicting`](Self::conflicting)). A holder already being called
    /// back is not asked twice, and a lost recall is recovered by the
    /// callback lease: the server presumes the silent holder dead and
    /// reclaims. A holder whose grant of `object` is still on the server
    /// disk is recalled right after that grant goes on the wire, so the
    /// recall never overtakes it.
    fn recall(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        desired: LockMode,
        requester: Option<ClientId>,
    ) {
        let mut fresh = std::mem::take(&mut self.fresh_targets);
        let holders = Self::conflicting(&self.core.locks, &self.routing, object, requester, desired);
        self.callbacks.begin_at(object, holders, cx.now, &mut fresh);
        for &t in fresh.iter() {
            if self.on_disk(object, t) {
                self.with_link((object, t), |l| l.held_recall = Some(desired));
            } else {
                Self::send_recall(cx, object, t, desired);
            }
        }
        self.fresh_targets = fresh;
    }

    /// True if a grant of `object` to `client` waits on the server disk.
    fn on_disk(&self, object: ObjectId, client: ClientId) -> bool {
        self.links.get(&(object, client)).is_some_and(|l| !l.on_disk.is_empty())
    }

    /// Applies `edit` to the link `key` names (a new one if there is none)
    /// and drops the link if that leaves it empty.
    fn with_link<R>(&mut self, key: (ObjectId, ClientId), edit: impl FnOnce(&mut Link) -> R) -> R {
        let link = self.links.entry(key).or_default();
        let out = edit(link);
        if link.is_empty() {
            self.links.remove(&key);
        }
        out
    }

    fn send_recall(cx: &mut Cx, object: ObjectId, to: ClientId, desired: LockMode) {
        let recall = || Msg::Recall {
            object,
            desired,
            forward: None,
        };
        cx.send_to_client(to, MessageKind::Recall, 0, recall);
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
            self.with_link((object, client), |l| l.on_disk.push(cx.now));
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

    /// A grant's disk read, scheduled at `scheduled_at`, finished: it goes
    /// on the wire, followed by the recall held behind it once no other
    /// grant of the object to `to` is still on disk. A grant whose lock a
    /// lease reclaim took back (or a crash forgot) meanwhile stays home.
    pub(crate) fn on_fetch_done(
        &mut self,
        cx: &mut Cx,
        to: ClientId,
        item: GrantItem,
        scheduled_at: SimTime,
    ) {
        let shipped = self.with_link((item.0, to), |l| {
            let at = l.on_disk.iter().position(|&t| t == scheduled_at)?;
            l.on_disk.swap_remove(at);
            Some(if l.on_disk.is_empty() { l.held_recall.take() } else { None })
        });
        let Some(held) = shipped else {
            return;
        };
        self.ship_now(cx, to, item);
        if let Some(desired) = held {
            // The holder is asked only now, so its lease starts now.
            self.callbacks.renew(item.0, to, cx.now);
            Self::send_recall(cx, item.0, to, desired);
        }
    }

    /// Puts the granted item on the wire (buffer already warm): an object
    /// frame if it carries data, a bare lock grant otherwise.
    fn ship_now(&mut self, cx: &mut Cx, to: ClientId, item: GrantItem) {
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

    /// `from` returned `object` by an answer sent at `sent_at`.
    fn on_return(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        (from, sent_at): (ClientId, SimTime),
        downgraded: bool,
    ) {
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
        if self.settled_before(object, from, sent_at) {
            return;
        }
        self.callbacks.acknowledge(object, from);
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        // The end of a forward chain: the object is home again.
        self.routing.remove(object);
        let grants = if downgraded {
            self.core.locks.downgrade(object, from)
        } else {
            self.release_answered(object, from)
        };
        self.apply_grants(cx, object, grants);
        self.unpark(cx, object, from);
    }

    fn on_ack(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        (from, sent_at): (ClientId, SimTime),
        had_copy: bool,
    ) {
        if self.settled_before(object, from, sent_at) {
            return;
        }
        self.callbacks.acknowledge(object, from);
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::CallbackAcked { object, from }
        });
        let grants = self.release_answered(object, from);
        self.apply_grants(cx, object, grants);
        if !had_copy {
            // The recalled holder could not serve the forward list that
            // rode on the callback; the server serves it from its own copy.
            if let Some(route) = self.routing.remove(object) {
                self.serve_list_from_server(cx, object, route.list);
            }
        }
        self.unpark(cx, object, from);
    }

    /// Releases `client`'s lock on `object` on its answer. The release also
    /// takes a request the client still has queued on the object out of the
    /// lock table, so its want is parked, to be handled again (as
    /// [`unpark`](Self::unpark) handles it) once the answer is in.
    fn release_answered(&mut self, object: ObjectId, client: ClientId) -> Grants<ClientId> {
        self.with_link((object, client), |l| {
            l.parked = l.queued.take().map(|info| (info.txn, info.want)).or(l.parked);
        });
        self.core.locks.release(object, client)
    }

    /// True if `from`'s answer on `object`, sent at `sent_at`, answers a
    /// recall that a fence has settled since: it releases nothing and
    /// answers no newer recall.
    fn settled_before(&self, object: ObjectId, from: ClientId, sent_at: SimTime) -> bool {
        let fenced_at = self.links.get(&(object, from)).and_then(|l| l.fenced_at);
        fenced_at.is_some_and(|at| sent_at <= at)
    }

    /// Nothing sent under `client`'s lease on `object` acts after `now`:
    /// its grants still on the server disk never ship, a recall held
    /// behind them is moot, and its answers sent by now settle nothing.
    fn fence(&mut self, object: ObjectId, client: ClientId, now: SimTime) {
        let link = self.links.entry((object, client)).or_default();
        link.on_disk = InlineVec::new();
        link.held_recall = None;
        link.fenced_at = Some(now);
    }

    /// Completes grants that cascaded out of a release/downgrade/cancel. A
    /// grant to a client that still owes an answer on the object is undone
    /// and its request parked until the answer arrives; a grant that leaves
    /// a conflicting request queued recalls the new holders at once.
    pub(crate) fn apply_grants(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        granted: Grants<ClientId>,
    ) {
        let mut shipped = false;
        for w in granted {
            let client = w.owner;
            let Some(info) = self.with_link((object, client), |l| l.queued.take()) else {
                // No want on file (cancelled or raced): undo the grant.
                let grants = self.undo_grant(object, client, w.upgrade);
                self.apply_grants(cx, object, grants);
                continue;
            };
            let Want { mode, needs_data, deadline, .. } = info.want;
            if cx.ls && cx.cfg.load_sharing.request_scheduling_enabled && deadline < cx.now {
                // §3.3: do not ship to a transaction that already missed.
                let grants = self.undo_grant(object, client, w.upgrade);
                self.reject(cx, client, info.txn, true);
                self.apply_grants(cx, object, grants);
                continue;
            }
            if self.owes(object, client) {
                let grants = self.undo_grant(object, client, w.upgrade);
                self.park(client, info.txn, info.want);
                self.apply_grants(cx, object, grants);
                continue;
            }
            // The want waited in the server's lock queue from enqueue to
            // this grant.
            let txn = TransactionId::from_raw(info.txn);
            let lock_wait = siteselect_obs::SpanKind::LockWait;
            cx.sink
                .span(cx.now, SiteId::Server, txn, lock_wait, info.queued_at, None);
            self.ship(cx, info.txn, client, (object, mode, needs_data));
            shipped = true;
        }
        if !shipped {
            return;
        }
        if let Some(next) = self.core.locks.first_waiter(object) {
            self.recall(cx, object, next.mode, Some(next.owner));
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

    /// A collection window closed: serve what the object allows and
    /// collect the rest for another window. The window manager hears which
    /// requests left, so the trace tells one episode per request.
    pub(crate) fn on_window_close(&mut self, cx: &mut Cx, object: ObjectId) {
        let Some((list, mut episode)) = self.windows.close_at(object, cx.now) else {
            return;
        };
        match self.serve_window(cx, object, list) {
            Some(rest) => {
                let waiting = episode.split_off(&rest);
                self.windows.depart(episode, cx.now);
                if let Some(at) = self.windows.reoffer(rest, waiting, cx.now) {
                    cx.queue.push(at, Ev::WindowClose { object });
                }
            }
            None => self.windows.depart(episode, cx.now),
        }
    }

    /// Serves the first run of one lock mode of a closed window's `list`
    /// and hands back the rest. A run of readers, or of one request, is
    /// granted from the lock table as the plain path grants it (an
    /// exclusive holder is recalled with a downgrade); two or more writers
    /// go down a chain. The whole list comes back while the object travels
    /// or is recalled (the server's copy is stale), or while its writers
    /// cannot start a chain yet.
    fn serve_window(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        mut list: ForwardList,
    ) -> Option<ForwardList> {
        if self.routing.contains(object) || self.callbacks.is_recalling(object) {
            // The object is still travelling or being recalled: keep
            // collecting until it comes home.
            return Some(list);
        }
        let rest = list.split_run();
        let writers = list.len() > 1 && list.entries().iter().all(|e| e.mode.is_exclusive());
        if !writers {
            self.grant_run(cx, object, &list);
        } else if let Some(mut run) = self.chain_writers(cx, object, list) {
            run.append(rest);
            return Some(run);
        }
        (!rest.is_empty()).then_some(rest)
    }

    /// Grants a window's `run` entry by entry through the lock table. As a
    /// chain does, it skips expired and crashed requesters; a requester
    /// that still owes an answer on the object waits for it.
    fn grant_run(&mut self, cx: &mut Cx, object: ObjectId, run: &ForwardList) {
        for &e in run.entries() {
            if e.deadline < cx.now || !cx.site_up(e.client) {
                continue;
            }
            let (txn, mode, deadline) = (e.txn.as_u64(), e.mode, e.deadline);
            let w = Want { object, mode, needs_data: true, deadline };
            if self.owes(object, e.client) {
                self.park(e.client, txn, w);
            } else {
                self.want_plain(cx, txn, e.client, w);
            }
        }
    }

    /// Starts a run of writers down a forward chain: one recall to the
    /// exclusive holder carries it (the holder ships the object down the
    /// chain and the last client returns it, 2n+1 messages, §3.4), or the
    /// server ships its own copy when no one holds the object. Hands the
    /// run back when the chain cannot start yet.
    fn chain_writers(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        run: ForwardList,
    ) -> Option<ForwardList> {
        let el_holder = self
            .core
            .locks
            .holders(object)
            .find(|(_, m)| m.is_exclusive())
            .map(|(h, _)| h);
        match el_holder {
            // The holder's grant is still on the server disk: a recall now
            // would overtake it, so collect a little longer.
            Some(holder) if self.on_disk(object, holder) => {}
            Some(holder) if self.core.locks.first_waiter(object).is_none() => {
                let recall = || Msg::Recall {
                    object,
                    desired: LockMode::Exclusive,
                    forward: Some(run.clone()),
                };
                if cx.send_to_client(holder, MessageKind::Recall, 0, recall) {
                    let grants = self.core.locks.release(object, holder);
                    debug_assert!(grants.is_empty(), "no queue behind a routed object");
                    self.routing.insert(object, Route { head: holder, list: run });
                    return None;
                }
                // The chain never started, so the holder keeps its lock —
                // the table entry is what fences its cached exclusive from
                // later grants. A callback lease makes the loss recoverable
                // (a dead holder is reclaimed at expiry); until then the
                // batch keeps collecting.
                self.callbacks
                    .begin_at(object, [holder], cx.now, &mut self.fresh_targets);
            }
            // A holder remains but plain-path waiters are queued: let the
            // callback complete and collect a little longer.
            Some(_) => {}
            // The object is home: the chain starts from the server's copy.
            None if self.core.locks.holders(object).next().is_none() => {
                self.serve_list_from_server(cx, object, run);
                return None;
            }
            // The shared copies are called back first.
            None => {
                self.recall(cx, object, LockMode::Exclusive, None);
            }
        }
        Some(run)
    }

    /// Ships a forward list starting from the server's copy of the object.
    fn serve_list_from_server(&mut self, cx: &mut Cx, object: ObjectId, mut list: ForwardList) {
        let Some(entry) = cx.pop_live(&mut list) else {
            return; // every requester expired or crashed; the object stays home
        };
        self.core.buffer.insert(object);
        if list.is_empty() {
            // Single live entry: an ordinary grant down the plain path.
            let (mode, deadline) = (entry.mode, entry.deadline);
            let w = Want { object, mode, needs_data: true, deadline };
            self.want_plain(cx, entry.txn.as_u64(), entry.client, w);
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
            self.routing.insert(object, Route { head: to, list });
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
        mut loads: Vec<Load>,
    ) {
        let mut locations: Vec<Holding> = cx.take_buf();
        for &object in &objects {
            let rows = Self::or_route_tail(&self.routing, object, self.core.locks.holders(object));
            locations.extend(rows.map(|(holder, mode)| Holding { object, holder, mode }));
        }
        cx.recycle_buf(objects);
        let client = TransactionId::from_raw(txn).origin();
        // A lost reply leaves the transaction in AwaitInfo until the
        // deadline sweep reaps it — a miss, never a hang.
        let reply = || Msg::LoadReply {
            txn,
            locations: std::mem::take(&mut locations),
            loads: std::mem::take(&mut loads),
        };
        cx.send_to_client(client, MessageKind::LoadReply, 0, reply);
        // Empty once sent; a lost reply's buffers.
        cx.recycle_buf(locations);
        cx.recycle_buf(loads);
    }

    // ------------------------------------------------------------------
    // Sweeps
    // ------------------------------------------------------------------

    /// Cancels lock-queue waiters whose deadline has passed and grants
    /// whoever they were holding up.
    pub(crate) fn sweep(&mut self, cx: &mut Cx) {
        let mut expired = std::mem::take(&mut self.expired);
        let mut grants = std::mem::take(&mut self.swept);
        self.core
            .locks
            .cancel_expired_into(cx.now, &mut expired, &mut grants);
        for (object, waiter) in expired.drain(..) {
            self.with_link((object, waiter.owner), |l| l.queued = None);
        }
        for (object, waiters) in grants.drain(..) {
            self.apply_grants(cx, object, waiters);
        }
        (self.expired, self.swept) = (expired, grants);
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

    /// Forgets the fences older than `lease`: an answer that late is
    /// presumed lost, as the lease presumes its silent holder.
    pub(crate) fn forget_old_fences(&mut self, now: SimTime, lease: SimDuration) {
        // detlint: allow(D2) — order-free: each link is trimmed and kept or dropped on its own
        self.links.retain(|_, l| {
            l.fenced_at = l.fenced_at.filter(|&at| now.duration_since(at) < lease);
            !l.is_empty()
        });
    }

    /// Takes `holder`'s lock on `object` back without its answer, with any
    /// request it has queued there; returns the waiters that unblocks, to
    /// be granted from the server's own copy once the holder's cached copy
    /// is fenced.
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
        self.fence(object, holder, cx.now);
        self.with_link((object, holder), |l| l.queued = None);
        self.core.locks.release(object, holder)
    }

    /// A forward chain whose every requester deadline has passed can no
    /// longer terminate by itself (a crashed intermediary may have
    /// swallowed the object): the server's copy becomes authoritative
    /// again, which also lets stalled collection windows drain. Any chain
    /// site may still cache the object, so the head and every member are
    /// returned for the driver to fence, as a lease reclaim fences its
    /// holder, and their answers sent by now settle nothing.
    pub(crate) fn forget_dead_routes(&mut self, now: SimTime) -> Vec<(ObjectId, ClientId)> {
        let mut dead = Vec::new();
        self.routing.retain(|object, r| {
            let live = r.list.entries().iter().any(|e| e.deadline >= now);
            if !live {
                dead.push((object, r.head));
                dead.extend(r.list.entries().iter().map(|e| (object, e.client)));
            }
            live
        });
        dead.sort_unstable();
        dead.dedup();
        for &(object, client) in &dead {
            self.fence(object, client, now);
        }
        dead
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
        if !cx.fabric.site_up(SiteId::Server) {
            return None; // scheduled crash landed while already down
        }
        let ready = self
            .core
            .crash(cx.now, &cx.cfg, &cx.sink, &mut cx.fabric, &mut cx.metrics);
        self.callbacks = CallbackTracker::new();
        self.windows = WindowManager::new(cx.cfg.load_sharing.collection_window);
        self.attach_sink(&cx.sink);
        self.routing.clear();
        self.links.clear();
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

    /// Consistency check (tests and debug builds): no link is empty, and a
    /// link's `queued` is set exactly while the lock table queues that
    /// client's request on that object.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let locks = &self.core.locks;
        // detlint: allow(D2) — a check that stops at the first fault: any order finds one
        for (&(object, client), link) in &self.links {
            let in_table = locks.waiters(object).iter().any(|w| w.owner == client);
            if link.is_empty() || (link.queued.is_some() && !in_table) {
                return Err(format!("{object}: {client:?}'s {link:?} disagrees with the table"));
            }
        }
        let contended = (0..self.core.store.num_pages()).map(ObjectId);
        for object in contended.filter(|&o| locks.first_waiter(o).is_some()) {
            for w in locks.waiters(object) {
                if self.links.get(&(object, w.owner)).is_none_or(|l| l.queued.is_none()) {
                    return Err(format!("{object}: {:?} is queued with no want on file", w.owner));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::SiteDest;
    use super::*;
    use siteselect_types::{FaultConfig, SystemKind};

    impl ServerSite {
        /// True if the link of `client` on `object` holds a queued request.
        fn queues(&self, object: ObjectId, client: ClientId) -> bool {
            self.links.get(&(object, client)).is_some_and(|l| l.queued.is_some())
        }
    }

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
        assert!(s.queues(ObjectId(1), ClientId(0)));
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
        let head = ClientId(1);
        s.routing.insert(ObjectId(3), Route { head, list });
        let holders: Vec<_> =
            ServerSite::or_route_tail(&s.routing, ObjectId(3), std::iter::empty()).collect();
        assert_eq!(holders, vec![(ClientId(3), LockMode::Exclusive)]);
    }

    /// Closes a window on `object` that collected exclusive requests from
    /// `clients`.
    fn close_window(s: &mut ServerSite, cx: &mut Cx, object: ObjectId, clients: &[u16]) {
        let writers: Vec<_> = clients.iter().map(|&c| (c, LockMode::Exclusive)).collect();
        close_window_of(s, cx, object, &writers);
    }

    /// Closes a window on `object` that collected `(client, mode)`
    /// requests, in deadline order.
    fn close_window_of(s: &mut ServerSite, cx: &mut Cx, object: ObjectId, wants: &[(u16, LockMode)]) {
        for (i, &(c, mode)) in (0u64..).zip(wants) {
            let entry = ForwardEntry {
                client: ClientId(c),
                txn: TransactionId::new(ClientId(c), 1),
                deadline: SimTime::from_secs(40 + i),
                mode,
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
        let mut wants = cx.take_buf();
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
        let (object, from, downgraded, sent_at) = (x, ClientId(0), false, cx.now);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from, downgraded, sent_at });
        assert_eq!(s.core.locks.held_mode(x, ClientId(1)), Some(LockMode::Exclusive));
        assert!(s.queues(x, ClientId(2)));
        cx.drain_deliveries();
        (s, cx, z)
    }

    #[test]
    fn a_request_against_a_waiter_whose_blocker_moved_on_queues() {
        let (mut s, mut cx, z) = x_regranted_to_b();
        // A waits for C, C for B, B for nobody: no cycle, so A queues and
        // C is recalled.
        want(&mut s, &mut cx, 0, z);
        assert!(s.queues(z, ClientId(0)));
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
        assert!(!s.queues(z, ClientId(1)));
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
    fn a_recall_is_held_behind_the_grant_still_on_the_server_disk() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let x = ObjectId(1);
        // A's grant misses the cold buffer and waits on the disk; B's
        // request recalls A, but nothing may overtake the grant.
        want(&mut s, &mut cx, 0, x);
        want(&mut s, &mut cx, 1, x);
        assert!(s.owes(x, ClientId(0)));
        assert!(cx.drain_deliveries().is_empty());
        let Some((_, Ev::ServerFetchDone { to, item, scheduled_at, .. })) = cx.queue.pop() else {
            panic!("A's grant waits on the disk");
        };
        s.on_fetch_done(&mut cx, to, item, scheduled_at);
        let sent = cx.drain_deliveries();
        let a = SiteDest::Client(ClientId(0));
        assert!(
            matches!(
                &sent[..],
                [(g, Msg::GrantBatch { .. }), (r, Msg::Recall { object, .. })]
                    if *g == a && *r == a && *object == x
            ),
            "{sent:?}"
        );
    }

    #[test]
    fn a_recalled_holders_request_waits_for_its_answer() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        assert!(!cx.faults_active);
        let x = ObjectId(1);
        s.core.buffer.insert(x);
        s.core.locks.request(x, ClientId(0), LockMode::Exclusive, SimTime::MAX);
        want(&mut s, &mut cx, 1, x);
        // A asks again while it owes its answer: nothing is granted off its
        // registration, and nothing queues.
        want(&mut s, &mut cx, 0, x);
        assert!(!s.queues(x, ClientId(0)));
        let sent = cx.drain_deliveries();
        assert!(matches!(&sent[..], [(_, Msg::Recall { .. })]), "{sent:?}");
        // A's answer grants B, and A's parked request then queues behind B,
        // whom it recalls.
        let (object, from, had_copy, sent_at) = (x, ClientId(0), true, cx.now);
        s.on_msg(&mut cx, Msg::CallbackAck { object, from, had_copy, sent_at });
        assert_eq!(s.core.locks.held_mode(x, ClientId(1)), Some(LockMode::Exclusive));
        assert!(s.queues(x, ClientId(0)));
        let sent = cx.drain_deliveries();
        let b = SiteDest::Client(ClientId(1));
        assert!(
            matches!(
                &sent[..],
                [(g, Msg::GrantBatch { .. }), (r, Msg::Recall { .. })] if *g == b && *r == b
            ),
            "{sent:?}"
        );
    }

    /// A and B (clients 0, 1) read `x`; A asks to write it, and B is
    /// recalled. C (client 2) then asks to write it, and A is recalled.
    /// A's answer releases its read lock, and with it its queued upgrade:
    /// the request must be queued again, not lost.
    #[test]
    fn an_answer_that_drops_the_answerers_own_request_queues_it_again() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let x = ObjectId(1);
        let (a, b, c) = (ClientId(0), ClientId(1), ClientId(2));
        s.core.buffer.insert(x);
        for reader in [a, b] {
            s.core.locks.request(x, reader, LockMode::Shared, SimTime::MAX);
        }
        want(&mut s, &mut cx, 0, x);
        want(&mut s, &mut cx, 2, x);
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(1, "recall"), (0, "recall")]);
        let queued = |s: &ServerSite, who| s.core.locks.waiters(x).iter().any(|w| w.owner == who);
        let ack = |s: &mut ServerSite, cx: &mut Cx, from| {
            let (object, had_copy, sent_at) = (x, true, cx.now);
            s.on_msg(cx, Msg::CallbackAck { object, from, had_copy, sent_at });
        };
        ack(&mut s, &mut cx, a);
        assert!(queued(&s, a) && s.queues(x, a));
        // A retransmission of A's request finds it queued.
        want(&mut s, &mut cx, 0, x);
        assert_eq!(s.core.locks.waiters(x).iter().filter(|w| w.owner == a).count(), 1);
        // B's answer grants C, who is recalled for A; C's return grants A.
        ack(&mut s, &mut cx, b);
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(2, "grant"), (2, "recall")]);
        let (object, from, downgraded, sent_at) = (x, c, false, cx.now);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from, downgraded, sent_at });
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(0, "grant")]);
        assert_eq!(s.core.locks.held_mode(x, a), Some(LockMode::Exclusive));
        assert!(!s.queues(x, a));
    }

    #[test]
    fn a_lost_first_hop_leaves_the_object_home() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let object = ObjectId(4);
        // Every message is lost in transit, the hop to client 2 included.
        let loss = FaultConfig { loss_probability: 1.0, ..FaultConfig::default() };
        cx.fabric.enable_faults(loss, Prng::seed_from_u64(1));
        close_window(&mut s, &mut cx, object, &[2, 3]);
        assert_eq!(cx.fabric.dropped_messages(), 1);
        assert!(!s.routing.contains(object));
        // A chain that never started has no broken route to report.
        assert!(cx.lost_forwards.is_empty());
        assert!(s.core.locks.holders(object).next().is_none());
        assert!(cx.drain_deliveries().is_empty());
    }

    /// Who `sent` went to, by message: grants and recalls only.
    fn grants_and_recalls(sent: &[(SiteDest, Msg)]) -> Vec<(u16, &'static str)> {
        sent.iter()
            .filter_map(|(to, m)| {
                let SiteDest::Client(c) = *to else { return None };
                match m {
                    Msg::GrantBatch { .. } => Some((c.0, "grant")),
                    Msg::Recall { desired: LockMode::Shared, .. } => Some((c.0, "downgrade")),
                    Msg::Recall { .. } => Some((c.0, "recall")),
                    _ => None,
                }
            })
            .collect()
    }

    #[test]
    fn a_window_grants_its_readers_together_and_keeps_its_writers_for_the_next() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let x = ObjectId(4);
        s.core.buffer.insert(x);
        let (sl, el) = (LockMode::Shared, LockMode::Exclusive);
        close_window_of(&mut s, &mut cx, x, &[(2, sl), (3, sl), (4, el), (5, sl)]);
        // Both readers hold the object, no chain travels...
        for c in [2, 3] {
            assert_eq!(s.core.locks.held_mode(x, ClientId(c)), Some(sl));
        }
        assert!(!s.routing.contains(x));
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(2, "grant"), (3, "grant")]);
        // ...and the writer and the reader behind it wait for the next close.
        assert_eq!(s.windows.pending(x), 2);
    }

    #[test]
    fn a_run_of_readers_downgrades_an_exclusive_holder_once() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let x = ObjectId(4);
        s.core.locks.request(x, ClientId(1), LockMode::Exclusive, SimTime::MAX);
        close_window_of(&mut s, &mut cx, x, &[(2, LockMode::Shared), (3, LockMode::Shared)]);
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(1, "downgrade")]);
        for c in [2, 3] {
            assert!(s.queues(x, ClientId(c)));
        }
        // The downgraded copy comes home and both readers are granted.
        s.core.buffer.insert(x);
        let (object, from, downgraded, sent_at) = (x, ClientId(1), true, cx.now);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from, downgraded, sent_at });
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(2, "grant"), (3, "grant")]);
        assert_eq!(s.core.locks.held_mode(x, ClientId(1)), Some(LockMode::Shared));
    }

    /// The driver's lease sweep for one expired callback, minus the
    /// client-side fence.
    fn reclaim_lease(s: &mut ServerSite, cx: &mut Cx, object: ObjectId, holder: ClientId) {
        let grants = s.reclaim(cx, object, holder);
        s.apply_grants(cx, object, grants);
        s.unpark(cx, object, holder);
    }

    /// A reader (client 0) answers its recall at the instant the lease on
    /// it runs out; the reclaim re-grants its parked request, and the old
    /// answer arrives after a newer recall of the fresh lock went out.
    #[test]
    fn an_answer_a_lease_reclaim_settled_releases_nothing() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let x = ObjectId(1);
        let (a, b, c) = (ClientId(0), ClientId(1), ClientId(2));
        s.core.buffer.insert(x);
        s.core.locks.request(x, a, LockMode::Shared, SimTime::MAX);
        want(&mut s, &mut cx, 1, x);
        let mut wants = cx.take_buf();
        let deadline = SimTime::from_secs(40);
        wants.push(Want { object: x, mode: LockMode::Shared, needs_data: true, deadline });
        let txn = TransactionId::new(a, 2).as_u64();
        s.on_msg(&mut cx, Msg::RequestBatch { txn, client: a, wants, grant_all: false });
        // The lease runs out: B is granted, A's parked read queues behind B
        // and is granted when B's copy comes home.
        cx.now = SimTime::from_secs(5);
        let stale = cx.now;
        reclaim_lease(&mut s, &mut cx, x, a);
        cx.now = SimTime::from_secs(6);
        let (object, downgraded, sent_at) = (x, false, cx.now);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from: b, downgraded, sent_at });
        assert_eq!(s.core.locks.held_mode(x, a), Some(LockMode::Shared));
        // C's write recalls A's fresh lock; then A's old answer lands.
        want(&mut s, &mut cx, 2, x);
        assert!(s.owes(x, a));
        cx.drain_deliveries();
        let (had_copy, sent_at) = (true, stale);
        s.on_msg(&mut cx, Msg::CallbackAck { object, from: a, had_copy, sent_at });
        assert_eq!(s.core.locks.held_mode(x, a), Some(LockMode::Shared));
        assert!(s.owes(x, a), "the old answer does not answer the new recall");
        assert!(s.queues(x, c));
        assert!(cx.drain_deliveries().is_empty());
        // A's answer to the new recall releases the lock and grants C.
        let sent_at = cx.now;
        s.on_msg(&mut cx, Msg::CallbackAck { object, from: a, had_copy, sent_at });
        assert_eq!(s.core.locks.held_mode(x, c), Some(LockMode::Exclusive));
    }

    #[test]
    fn a_grant_whose_lock_a_lease_reclaim_took_back_stays_on_the_server() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let x = ObjectId(1);
        let (a, b) = (ClientId(0), ClientId(1));
        // A's grant waits on a slow disk with B's recall held behind it;
        // the lease on A runs out first, and B is granted.
        want(&mut s, &mut cx, 0, x);
        want(&mut s, &mut cx, 1, x);
        let Some((_, Ev::ServerFetchDone { to, item, scheduled_at, .. })) = cx.queue.pop() else {
            panic!("A's grant waits on the disk");
        };
        cx.now = SimTime::from_secs(5);
        reclaim_lease(&mut s, &mut cx, x, a);
        assert_eq!(s.core.locks.held_mode(x, b), Some(LockMode::Exclusive));
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(1, "grant")]);
        // The read completes: nothing goes to A.
        s.on_fetch_done(&mut cx, to, item, scheduled_at);
        assert!(cx.drain_deliveries().is_empty());
    }

    /// A (client 0) reads `x` with its grant on the server disk and asks
    /// to write it while C (client 2) reads it too, so A's upgrade queues
    /// and C is recalled; B's (client 1) write then recalls A, and that
    /// recall is held behind A's grant. A lease reclaim of A settles all
    /// three at once.
    #[test]
    fn a_lease_reclaim_settles_the_whole_link() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let (x, a, c) = (ObjectId(1), ClientId(0), ClientId(2));
        let deadline = SimTime::from_secs(40);
        let mut read = cx.take_buf();
        read.push(Want { object: x, mode: LockMode::Shared, needs_data: true, deadline });
        let txn = TransactionId::new(a, 1).as_u64();
        s.on_msg(&mut cx, Msg::RequestBatch { txn, client: a, wants: read, grant_all: false });
        s.core.locks.request(x, c, LockMode::Shared, SimTime::MAX);
        want(&mut s, &mut cx, 0, x);
        want(&mut s, &mut cx, 1, x);
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(2, "recall")]);
        let link = s.links.get(&(x, a)).expect("A's link");
        assert!(link.queued.is_some() && !link.on_disk.is_empty() && link.held_recall.is_some());
        let Some((_, Ev::ServerFetchDone { to, item, scheduled_at, .. })) = cx.queue.pop() else {
            panic!("A's grant waits on the disk");
        };
        cx.now = SimTime::from_secs(5);
        reclaim_lease(&mut s, &mut cx, x, a);
        // A's request is gone from the table and from the link...
        assert!(s.core.locks.waiters(x).iter().all(|w| w.owner != a));
        assert!(!s.queues(x, a));
        assert_eq!(s.check_invariants(), Ok(()));
        // ...its grant stays home with the recall held behind it...
        s.on_fetch_done(&mut cx, to, item, scheduled_at);
        assert!(cx.drain_deliveries().is_empty());
        // ...and once B gives up and A reads `x` again, A's answer sent by
        // the fence releases nothing.
        let objects = [x].into_iter().collect();
        s.on_msg(&mut cx, Msg::CancelWants { client: ClientId(1), objects });
        s.core.locks.request(x, a, LockMode::Shared, SimTime::MAX);
        let (object, had_copy, sent_at) = (x, true, cx.now);
        s.on_msg(&mut cx, Msg::CallbackAck { object, from: a, had_copy, sent_at });
        assert_eq!(s.core.locks.held_mode(x, a), Some(LockMode::Shared));
        assert!(cx.drain_deliveries().is_empty());
        // One lease on, the fence is forgotten and the link with it.
        let lease = SimDuration::from_secs(10);
        s.forget_old_fences(cx.now + SimDuration::from_micros(lease.as_micros() - 1), lease);
        assert!(s.links.contains_key(&(x, a)));
        s.forget_old_fences(cx.now + lease, lease);
        assert!(!s.links.contains_key(&(x, a)));
    }

    #[test]
    fn a_held_recall_starts_its_lease_when_it_is_sent() {
        let (mut s, mut cx) = site(SystemKind::ClientServer);
        let (x, a, lease) = (ObjectId(1), ClientId(0), SimDuration::from_secs(5));
        // A's grant waits on the disk for six seconds, and B's recall of it
        // is held until the grant is on the wire.
        want(&mut s, &mut cx, 0, x);
        want(&mut s, &mut cx, 1, x);
        let Some((_, Ev::ServerFetchDone { to, item, scheduled_at, .. })) = cx.queue.pop() else {
            panic!("A's grant waits on the disk");
        };
        cx.now = SimTime::from_secs(6);
        s.on_fetch_done(&mut cx, to, item, scheduled_at);
        assert_eq!(grants_and_recalls(&cx.drain_deliveries()), [(0, "grant"), (0, "recall")]);
        // A has been asked for a moment, not for six seconds.
        assert!(s.expired_leases(SimTime::from_secs(7), lease).is_empty());
        assert_eq!(s.expired_leases(SimTime::from_secs(11), lease), [(x, a)]);
    }

    #[test]
    fn a_forgotten_route_fences_its_head_and_every_member() {
        let (mut s, mut cx) = site(SystemKind::LoadSharing);
        let (x, holder) = (ObjectId(4), ClientId(1));
        s.core.locks.request(x, holder, LockMode::Exclusive, SimTime::MAX);
        close_window(&mut s, &mut cx, x, &[2, 3]);
        assert!(s.routing.contains(x));
        // The head holds the object first and is no entry of the stored
        // list, yet it is fenced with the members once every entry expired.
        assert!(s.forget_dead_routes(SimTime::from_secs(41)).is_empty());
        let fenced = s.forget_dead_routes(SimTime::from_secs(42));
        assert_eq!(fenced, [(x, holder), (x, ClientId(2)), (x, ClientId(3))]);
        assert!(!s.routing.contains(x));
        // The last member's return, sent before the fence, releases nothing.
        cx.now = SimTime::from_secs(42);
        s.core.locks.request(x, ClientId(3), LockMode::Shared, SimTime::MAX);
        let (object, from, downgraded, sent_at) = (x, ClientId(3), false, cx.now);
        s.on_msg(&mut cx, Msg::ObjectReturn { object, from, downgraded, sent_at });
        assert_eq!(s.core.locks.held_mode(x, from), Some(LockMode::Shared));
    }
}
