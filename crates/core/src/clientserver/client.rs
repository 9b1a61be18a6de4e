//! One client workstation: transaction admission (H1), acquisition of
//! objects and locks, local EDF execution, callback handling with
//! downgrade, forward-list hops, shipping and decomposition.
//!
//! A [`ClientSite`] owns everything its workstation knows — caches, cached
//! locks, the local lock table, the CPU and disk, its resident units of
//! work — and reaches the rest of the system only through the shared
//! [`Cx`]: it sends messages and arms timers, it never sees the server's
//! state or a peer's.

use std::collections::{BTreeMap, HashMap};

use siteselect_locks::table::UnblockedGrants;
use siteselect_locks::{Acquire, ForwardList, Grants, LockTable, QueueDiscipline};
use siteselect_obs::SpanKind;
use siteselect_storage::{CacheTier, ClientCache, DiskModel};
use siteselect_types::{
    AbortReason, AccessSpec, ClientConfig, ClientId, FixedState, InlineVec, LockMode, ObjectId,
    ObjectMap, SimDuration, SimTime, SiteId, TransactionId, TransactionSpec, TxnOutcome,
};

use super::{subtask_key, Cx, Ev, Holding, Load, Msg, SiteDest, TKey, Want};
use crate::cpu::EdfCpu;

/// Fraction of a decomposed transaction's CPU demand spent synthesizing the
/// subtask answers at the origin (§3.2's "answer synthesis" phase).
const SYNTHESIS_FRACTION: f64 = 0.1;

/// H2 ships a transaction only if the destination's conflicting-lock count
/// is at most this fraction of the origin's (0.0 would require a
/// conflict-free destination).
const SHIP_CONFLICT_RATIO: f64 = 0.5;

/// H2 ships only to a site already holding locks on at least this fraction
/// of the transaction's objects (§3.1: transaction shipping pays when "a
/// significant percentage of a transaction's required data is already
/// cached at another site").
const SHIP_LOCALITY_MIN: f64 = 0.5;

/// Upper bound on the exponential retry backoff that starts at
/// `FaultConfig::retry_backoff_base`; also how long a subtask result waits
/// before it is re-sent to a crashed origin.
const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);

/// Why an object fetch is outstanding at a client.
#[derive(Debug)]
struct Fetch {
    mode: LockMode,
    sent_at: SimTime,
    /// The transactions waiting on it: one, now and then a second.
    waiters: InlineVec<TKey, 2>,
    /// Retransmissions sent so far (failure handling; always 0 with faults
    /// off).
    attempts: u32,
}

/// A pending lock revocation at a client, answered when the last local user
/// releases the object.
#[derive(Debug)]
enum Revoke {
    /// Plain callback path: a remote requester wants the object in this
    /// mode.
    Callback(LockMode),
    /// Grouped-lock path: the object moves on down the rest of this
    /// forward list.
    Forward(ForwardList),
}

/// Progress of one object within a transaction's acquisition phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Need {
    /// Waiting for the server (request outstanding or staged).
    Fetch,
    /// Cached lock covers; waiting for a local lock conflict to clear.
    LocalWait,
    /// Local lock granted; promoting the object from the disk cache tier.
    DiskPromote,
    /// Ready.
    Held,
}

/// What kind of unit of work a `TxnRun` is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    /// A transaction executing at its origin.
    Normal,
    /// A transaction shipped here from `origin`.
    Shipped { origin: ClientId },
    /// Subtask `index` of `parent`, reporting to `origin`.
    Subtask {
        parent: TKey,
        index: u8,
        origin: ClientId,
    },
}

/// Lifecycle state of a `TxnRun`.
#[derive(Debug, Clone, PartialEq)]
enum RunState {
    /// LS: waiting for the LoadReply that feeds H1/H2/decomposition.
    AwaitInfo { reason: InfoReason },
    /// LS: grant-all round outstanding.
    AwaitGrantAll,
    /// Collecting objects and locks.
    Acquiring,
    /// On the CPU.
    Executing,
    /// Parent of a decomposition waiting for subtask results.
    AwaitSubtasks { pending: u8, failed: bool },
    /// Waiting for the synthesis CPU slice.
    Synthesis,
}

/// Why a LoadQuery was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InfoReason {
    /// H1 said the local queue is infeasible; pick a site with H2.
    H1Infeasible,
    /// Decomposition placement lookup.
    Decompose,
}

/// The objects a `TxnRun` must assemble: one row (object, lock mode,
/// progress) per object, kept sorted by object id. Transactions touch 5–15
/// objects, so the rows live inline (no per-transaction map nodes) and
/// lookups are short linear scans; the sorted order reproduces the
/// ascending iteration the previous `BTreeMap` gave, which release loops
/// depend on for determinism.
#[derive(Debug, Default)]
struct NeededSet(InlineVec<(ObjectId, LockMode, Need), 16>);

impl NeededSet {
    fn row(&mut self, object: ObjectId) -> Option<&mut (ObjectId, LockMode, Need)> {
        self.0.iter_mut().find(|r| r.0 == object)
    }

    /// Inserts or replaces the entry for `object`.
    fn insert(&mut self, object: ObjectId, mode: LockMode, need: Need) {
        if let Some(row) = self.row(object) {
            *row = (object, mode, need);
            return;
        }
        let at = self.0.iter().position(|r| r.0 > object);
        self.0.insert(at.unwrap_or(self.0.len()), (object, mode, need));
    }

    /// The recorded (mode, progress) of `object`, if present.
    fn get(&self, object: ObjectId) -> Option<(LockMode, Need)> {
        self.0.iter().find(|r| r.0 == object).map(|&(_, m, n)| (m, n))
    }

    /// Updates the progress of `object`; no-op if absent.
    fn set_need(&mut self, object: ObjectId, need: Need) {
        if let Some(row) = self.row(object) {
            row.2 = need;
        }
    }

    /// The objects of this set, ascending.
    fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.0.iter().map(|r| r.0)
    }

    /// True once every entry is `Need::Held`.
    fn all_held(&self) -> bool {
        self.0.iter().all(|r| r.2 == Need::Held)
    }
}

/// One executing transaction/subtask at a client.
#[derive(Debug)]
struct TxnRun {
    spec: TransactionSpec,
    kind: RunKind,
    state: RunState,
    needed: NeededSet,
    acquire_started: SimTime,
    /// When the transaction reached the CPU (feeds the ATL estimate of H1).
    exec_started: SimTime,
}

impl TxnRun {
    /// A unit of work entering acquisition at `now`.
    fn new(kind: RunKind, spec: TransactionSpec, now: SimTime) -> Self {
        TxnRun {
            spec,
            kind,
            state: RunState::Acquiring,
            needed: NeededSet::default(),
            acquire_started: now,
            exec_started: now,
        }
    }

    fn ready(&self) -> bool {
        self.state == RunState::Acquiring && self.needed.all_held()
    }
}

/// One client workstation's state.
pub(crate) struct ClientSite {
    id: ClientId,
    cache: ClientCache,
    cached_locks: ObjectMap<LockMode>,
    local_locks: LockTable<TKey>,
    cpu: EdfCpu<TKey>,
    disk: DiskModel,
    txns: HashMap<TKey, TxnRun, FixedState>,
    fetches: HashMap<ObjectId, Fetch, FixedState>,
    revokes: HashMap<ObjectId, Revoke, FixedState>,
    /// Running average latency of locally completed transactions (ATL in
    /// H1).
    atl_sum: f64,
    atl_count: u64,
    /// Trace-only: start time and blocking holder of in-progress local
    /// lock waits, keyed `(txn, object)` so a unit's waits are one
    /// ascending range. Populated only while a sink is attached — pure
    /// observer, never read by simulation logic.
    lock_wait_from: BTreeMap<(TKey, ObjectId), (SimTime, TKey)>,
    /// H2's scratch: the candidate sites of the last choice with their
    /// conflicting-lock scores, in evaluation order.
    h2_scored: Vec<(ClientId, usize)>,
    /// Decomposition's scratch: each access of the transaction being
    /// decomposed, with the site it is placed at and its position in the
    /// access list, sorted by site and then position.
    placement: Vec<(ClientId, u32, AccessSpec)>,
    /// Spare lists for the grants a unit's release unblocks. A grant can
    /// abort another unit, whose release needs a list of its own before
    /// the first is done, so each release takes one and puts it back.
    spare_grants: Vec<UnblockedGrants<TKey>>,
    /// `abort_where`'s scratch: the doomed transactions, sorted.
    doomed_keys: Vec<TKey>,
}

impl ClientSite {
    pub(crate) fn new(id: ClientId, cfg: &ClientConfig, cpu_speed: f64) -> Self {
        ClientSite {
            id,
            cache: ClientCache::new(cfg.memory_cache_objects, cfg.disk_cache_objects),
            cached_locks: ObjectMap::new(),
            local_locks: LockTable::new(QueueDiscipline::Deadline),
            cpu: EdfCpu::new(cpu_speed),
            disk: DiskModel::new(cfg.disk.page_service_time),
            txns: HashMap::default(),
            fetches: HashMap::default(),
            revokes: HashMap::default(),
            atl_sum: 0.0,
            atl_count: 0,
            lock_wait_from: BTreeMap::new(),
            h2_scored: Vec::new(),
            placement: Vec::new(),
            spare_grants: Vec::new(),
            doomed_keys: Vec::new(),
        }
    }

    fn atl(&self) -> f64 {
        if self.atl_count == 0 {
            // No history yet: optimistic prior (about one CPU demand) so H1
            // only starts shedding load once real latencies are observed.
            1.0
        } else {
            self.atl_sum / self.atl_count as f64
        }
    }

    /// H1's `n`: transactions ahead of a newcomer in the local priority
    /// queue (the EDF CPU queue — blocked transactions consume no CPU).
    fn queue_ahead(&self) -> usize {
        self.cpu.load()
    }

    pub(crate) fn id(&self) -> ClientId {
        self.id
    }

    /// What the server's load table holds for this site: its id, the
    /// number of incomplete local units of work, and its ATL.
    pub(crate) fn load_report(&self) -> Load {
        (self.id, self.txns.len(), self.atl())
    }

    /// The locks this site caches, as it would present them to a restarted
    /// server for revalidation.
    pub(crate) fn cached_locks(&self) -> Vec<(ObjectId, LockMode)> {
        self.cached_locks.iter().map(|(o, m)| (o, *m)).collect()
    }

    pub(crate) fn cpu_busy_time(&self) -> SimDuration {
        self.cpu.busy_time()
    }

    /// Consistency of the local lock table (checked at drain).
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        self.local_locks.check_invariants()
    }

    // ------------------------------------------------------------------
    // Arrival, H1 and routing
    // ------------------------------------------------------------------

    /// A transaction is initiated at this workstation.
    pub(crate) fn on_arrive(&mut self, cx: &mut Cx, spec: TransactionSpec) {
        let key = spec.id.as_u64();
        if !cx.site_up(self.id) {
            // The originating workstation is crashed: the transaction is
            // lost with it (a dead site submits nothing).
            if cx.measured_arrival(spec.arrival) {
                let lost = TxnOutcome::Aborted(AbortReason::SiteCrash);
                let site = SiteId::Client(spec.origin);
                cx.metrics.record(&cx.sink, cx.now, site, spec.id, lost);
            }
            return;
        }
        cx.arrived += 1;
        cx.sink.emit(cx.now, SiteId::Client(spec.origin), || {
            siteselect_obs::Event::TxnSubmit {
                txn: spec.id,
                deadline: spec.deadline,
                accesses: spec.accesses.len() as u32,
            }
        });
        self.admit(cx, key, TxnRun::new(RunKind::Normal, spec, cx.now));
    }

    /// Routes a fresh unit of work through the LS heuristics
    /// or straight into acquisition.
    fn admit(&mut self, cx: &mut Cx, key: TKey, run: TxnRun) {
        let spec_deadline = run.spec.deadline;
        if run.spec.is_expired(cx.now) {
            // Dead on arrival (e.g. shipped transaction that travelled too
            // long).
            self.txns.insert(key, run);
            self.abort_txn(cx, key, AbortReason::Expired);
            return;
        }
        let is_plain = matches!(run.kind, RunKind::Normal);
        let ls_cfg = cx.cfg.load_sharing;
        if cx.ls && is_plain {
            let feasible = !ls_cfg.h1_enabled || {
                let n = self.queue_ahead() as f64;
                let projected = cx.now + SimDuration::from_secs_f64(n * self.atl());
                let ok = projected <= spec_deadline;
                let (txn, queue_ahead) = (run.spec.id, self.queue_ahead() as u64);
                let atl_us = SimDuration::from_secs_f64(self.atl()).as_micros();
                cx.sink.emit(cx.now, SiteId::Client(run.spec.origin), || {
                    let (projected, deadline) = (projected, spec_deadline);
                    if ok {
                        siteselect_obs::Event::H1Admit {
                            txn,
                            queue_ahead,
                            atl_us,
                            projected,
                            deadline,
                        }
                    } else {
                        siteselect_obs::Event::H1Reject {
                            txn,
                            queue_ahead,
                            atl_us,
                            projected,
                            deadline,
                        }
                    }
                });
                ok
            };
            // Either way the next step needs to know where the objects are
            // and how loaded everyone is.
            let reason = if !feasible {
                if cx.measured_arrival(run.spec.arrival) {
                    cx.metrics.load_sharing.h1_rejections += 1;
                }
                Some(InfoReason::H1Infeasible)
            } else if run.spec.decomposable
                && ls_cfg.decomposition_enabled
                && run.spec.accesses.len() > 1
            {
                Some(InfoReason::Decompose)
            } else {
                None
            };
            if let Some(reason) = reason {
                let mut objects = cx.take_buf();
                objects.extend(run.spec.objects());
                let mut run = run;
                run.state = RunState::AwaitInfo { reason };
                self.txns.insert(key, run);
                let query = Msg::LoadQuery { txn: key, objects };
                cx.send_to_server(0, 1, query);
                return;
            }
        }
        self.txns.insert(key, run);
        self.begin_acquisition(cx, key);
    }

    // ------------------------------------------------------------------
    // Acquisition
    // ------------------------------------------------------------------

    /// Classifies every access of `key` and sends one batched request for
    /// the objects the client cannot serve locally.
    fn begin_acquisition(&mut self, cx: &mut Cx, key: TKey) {
        let Some(run) = self.txns.get(&key) else {
            return;
        };
        let measured = cx.measured_arrival(run.spec.arrival);
        let deadline = run.spec.deadline;
        if let Some(run) = self.txns.get_mut(&key) {
            run.state = RunState::Acquiring;
            run.acquire_started = cx.now;
        }
        let mut wants = cx.take_buf();
        // By index: each access is copied out before the handlers below
        // borrow the site, and none of them touches the access list.
        let mut next = 0;
        while let Some(a) = self.access_of(key, next) {
            next += 1;
            let mode = a.mode();
            // Table 2 accounting: a hit is data present in either tier.
            let tier = self.cache.probe(a.object);
            if measured {
                match tier {
                    Some(CacheTier::Memory) => cx.metrics.cache.memory_hits += 1,
                    Some(CacheTier::Disk) => cx.metrics.cache.disk_hits += 1,
                    None => cx.metrics.cache.misses += 1,
                }
            }
            let covered = self
                .cached_locks
                .get(a.object)
                .is_some_and(|m| m.covers(mode));
            let usable = covered && tier.is_some() && !self.revokes.contains_key(&a.object);
            if usable {
                let promote = tier == Some(CacheTier::Disk);
                if self.request_local_lock(cx, key, a.object, mode, promote) {
                    // Transaction aborted (local deadlock); nothing it
                    // staged goes out.
                    cx.recycle_buf(wants);
                    return;
                }
            } else {
                let needs_data = tier.is_none() || self.revokes.contains_key(&a.object);
                if let Some(run) = self.txns.get_mut(&key) {
                    run.needed.insert(a.object, mode, Need::Fetch);
                }
                if let Some(w) = self.join_fetch(cx, key, a.object, mode, needs_data, deadline) {
                    wants.push(w);
                }
            }
        }
        if wants.is_empty() {
            cx.recycle_buf(wants);
            self.check_ready(cx, key);
            return;
        }
        let client = self.id;
        let logical = wants.len() as u32;
        // LS asks for everything at once: grant it all, or say who conflicts.
        let grant_all = cx.ls;
        if grant_all {
            if let Some(run) = self.txns.get_mut(&key) {
                run.state = RunState::AwaitGrantAll;
            }
        }
        cx.send_to_server(
            0,
            logical,
            Msg::RequestBatch {
                txn: key,
                client,
                wants,
                grant_all,
            },
        );
    }

    /// Access `i` of the unit `key`, while it is resident and has one.
    fn access_of(&self, key: TKey, i: usize) -> Option<AccessSpec> {
        self.txns.get(&key)?.spec.accesses.get(i).copied()
    }

    /// Joins (or creates) the outstanding fetch of `object`; returns the
    /// `Want` to transmit if a new/stronger request must go to the server.
    fn join_fetch(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        needs_data: bool,
        deadline: SimTime,
    ) -> Option<Want> {
        if let Some(f) = self.fetches.get_mut(&object) {
            if !f.waiters.contains(&key) {
                f.waiters.push(key);
            }
            // Covered, or on the wire in a weaker mode: the upgrade is
            // issued when the weak grant resolves (see resolve_fetch).
            return None;
        }
        self.fetches.insert(
            object,
            Fetch {
                mode,
                sent_at: cx.now,
                waiters: [key].into_iter().collect(),
                attempts: 0,
            },
        );
        // Failure handling: guard the fresh request with a retry timer in
        // case it (or its grant) is lost.
        if cx.faults_active && cx.cfg.faults.max_retries > 0 {
            cx.queue.push(
                cx.now + cx.cfg.faults.retry_backoff_base,
                Ev::RetryFetch {
                    client: self.id.index(),
                    object,
                    attempt: 0,
                    sent_at: cx.now,
                },
            );
        }
        Some(Want {
            object,
            mode,
            needs_data,
            deadline,
        })
    }

    /// Sends `key`'s request for `object` to the server on its own, unless a
    /// fetch already outstanding covers it.
    fn refetch(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        needs_data: bool,
        deadline: SimTime,
    ) {
        if let Some(w) = self.join_fetch(cx, key, object, mode, needs_data, deadline) {
            self.request_one(cx, key, w);
        }
    }

    /// Sends a batch of the single want `w` on behalf of `txn`.
    fn request_one(&self, cx: &mut Cx, txn: TKey, w: Want) {
        let client = self.id;
        let mut wants = cx.take_buf();
        wants.push(w);
        let batch = Msg::RequestBatch {
            txn,
            client,
            wants,
            grant_all: false,
        };
        cx.send_to_server(0, 1, batch);
    }

    /// Requests the local (transaction-level) lock. Returns `true` if the
    /// transaction was aborted to avoid a local deadlock.
    fn request_local_lock(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        promote: bool,
    ) -> bool {
        let deadline = self
            .txns
            .get(&key)
            .map_or(SimTime::MAX, |r| r.spec.deadline);
        let conflicts = self.local_locks.conflicting_holders(object, key, mode);
        if self.local_locks.would_deadlock(key, conflicts) {
            self.abort_txn(cx, key, AbortReason::Deadlock);
            return true;
        }
        match self.local_locks.request(object, key, mode, deadline) {
            Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                self.lock_granted(cx, key, object, mode, promote);
            }
            Acquire::Blocked { behind } => {
                if let Some(run) = self.txns.get_mut(&key) {
                    run.needed.insert(object, mode, Need::LocalWait);
                    let (txn, origin) = (run.spec.id, run.spec.origin);
                    cx.sink.emit(cx.now, SiteId::Client(origin), || {
                        siteselect_obs::Event::LockWait { txn, object }
                    });
                }
                // Trace-only wait-start bookkeeping for the lock-wait span
                // emitted when the wait resolves (pure observer).
                if cx.sink.is_enabled() {
                    self.lock_wait_from.insert((key, object), (cx.now, behind));
                }
            }
        }
        false
    }

    /// `key` holds the local lock on `object`: the object is ready, or —
    /// if its copy sits in the disk cache tier — starts its promotion.
    fn lock_granted(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        object: ObjectId,
        mode: LockMode,
        promote: bool,
    ) {
        let unit = TransactionId::from_raw(key);
        let (holder, exclusive) = (self.id, mode == LockMode::Exclusive);
        cx.sink.emit(cx.now, SiteId::Client(holder), || {
            siteselect_obs::Event::LockHeld {
                txn: unit,
                object,
                exclusive,
            }
        });
        let need = if promote {
            let done = self.disk.schedule_io(cx.now);
            let ready = Ev::ClientDiskReady {
                client: self.id.index(),
                txn: key,
                object,
                scheduled_at: cx.now,
            };
            cx.queue.push(done, ready);
            Need::DiskPromote
        } else {
            Need::Held
        };
        if let Some(run) = self.txns.get_mut(&key) {
            run.needed.insert(object, mode, need);
        }
    }

    pub(crate) fn on_disk_ready(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        object: ObjectId,
        scheduled_at: SimTime,
    ) {
        let (site, unit) = (SiteId::Client(self.id), TransactionId::from_raw(key));
        cx.sink
            .span(cx.now, site, unit, SpanKind::Disk, scheduled_at, None);
        let Some(run) = self.txns.get_mut(&key) else {
            return;
        };
        if run
            .needed
            .get(object)
            .is_some_and(|(_, n)| n == Need::DiskPromote)
        {
            run.needed.set_need(object, Need::Held);
        }
        self.check_ready(cx, key);
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    /// A message addressed to this site arrives.
    pub(crate) fn on_msg(&mut self, cx: &mut Cx, msg: Msg) {
        if let Some((unit, kind, sent_at)) = msg.trip() {
            let site = SiteId::Client(self.id);
            cx.sink.span(cx.now, site, unit, kind, sent_at, None);
        }
        match msg {
            Msg::GrantBatch { items } => {
                for (object, mode, with_data) in items {
                    self.resolve_fetch(cx, object, mode, with_data);
                }
            }
            answer @ (Msg::ConflictReport { .. } | Msg::LoadReply { .. }) => {
                self.on_answer(cx, answer);
            }
            Msg::Rejected { txn, expired } => {
                let reason = if expired {
                    AbortReason::Expired
                } else {
                    AbortReason::Deadlock
                };
                // The server rejected one object of the batch: the
                // transaction as a whole cannot proceed.
                self.abort_txn(cx, txn, reason);
            }
            Msg::Recall {
                object,
                desired,
                forward,
            } => self.on_recall(cx, object, desired, forward),
            Msg::ObjectForward {
                object, mode, rest, ..
            } => {
                if cx.now >= cx.warmup_end {
                    cx.metrics.load_sharing.forward_satisfied += 1;
                }
                // Receiving a forwarded object: it must keep moving after
                // local use (the last client returns it to the server).
                self.revokes.insert(object, Revoke::Forward(rest));
                self.resolve_fetch(cx, object, mode, true);
                // If no local transaction wanted it any more, move it on
                // immediately.
                self.try_execute_revoke(cx, object);
            }
            Msg::TxnShip { spec, .. } => {
                let kind = RunKind::Shipped {
                    origin: spec.origin,
                };
                self.admit(cx, spec.id.as_u64(), TxnRun::new(kind, spec, cx.now));
            }
            Msg::SubtaskShip {
                parent,
                index,
                origin,
                spec,
                ..
            } => {
                let key = subtask_key(parent, index);
                let kind = RunKind::Subtask {
                    parent,
                    index,
                    origin,
                };
                self.admit(cx, key, TxnRun::new(kind, spec, cx.now));
            }
            result @ (Msg::TxnResult { .. } | Msg::SubtaskResult { .. }) => {
                self.on_result(cx, result);
            }
            // Server-bound messages never arrive here.
            Msg::RequestBatch { .. }
            | Msg::ObjectReturn { .. }
            | Msg::CallbackAck { .. }
            | Msg::CancelWants { .. }
            | Msg::LoadQuery { .. }
            | Msg::TxnSubmit { .. } => unreachable!("server message delivered to client"),
        }
    }

    /// A decision answer from the server: a conflict report feeds H2, a
    /// load reply H1's fallback or the decomposition. Its buffers go back
    /// to their pools once read.
    fn on_answer(&mut self, cx: &mut Cx, answer: Msg) {
        match answer {
            Msg::ConflictReport { txn, conflicts } => {
                self.on_conflict_report(cx, txn, &conflicts);
                cx.recycle_buf(conflicts);
            }
            Msg::LoadReply {
                txn,
                locations,
                loads,
            } => {
                self.on_load_reply(cx, txn, &locations, &loads);
                cx.recycle_buf(locations);
                cx.recycle_buf(loads);
            }
            _ => unreachable!("not a decision answer"),
        }
    }

    /// The outcome of a unit of work this site handed out comes back to it:
    /// a shipped transaction is settled here, at its origin, and a subtask
    /// counts toward its parent.
    fn on_result(&mut self, cx: &mut Cx, result: Msg) {
        match result {
            Msg::TxnResult {
                txn,
                committed,
                deadline,
                arrival,
                ..
            } => {
                let aborted = (!committed).then_some(AbortReason::Expired);
                cx.settle(txn, arrival, deadline, aborted);
            }
            Msg::SubtaskResult { parent, ok, .. } => self.on_subtask_result(cx, parent, ok),
            _ => unreachable!("not an outcome message"),
        }
    }

    /// An object/lock grant arrived: record response time, install the
    /// cached lock (and data), and unblock waiting transactions.
    fn resolve_fetch(&mut self, cx: &mut Cx, object: ObjectId, mode: LockMode, with_data: bool) {
        let fetch = self.fetches.remove(&object);
        let prior = self.cached_locks.get(object).copied();
        let installed = prior.map_or(mode, |p| p.stronger(mode));
        self.cached_locks.insert(object, installed);
        let holder = self.id;
        cx.sink.emit(cx.now, SiteId::Client(holder), || {
            siteselect_obs::Event::CacheInstall {
                client: holder,
                object,
                exclusive: installed.is_exclusive(),
            }
        });
        if with_data {
            self.cache.insert(object);
        }
        let Some(fetch) = fetch else {
            return; // unsolicited (request was cancelled): keep the cache
        };
        if fetch.sent_at >= cx.warmup_end {
            let dt = cx.now.duration_since(fetch.sent_at).as_secs_f64();
            match fetch.mode {
                LockMode::Shared => cx.metrics.response.shared.push(dt),
                LockMode::Exclusive => cx.metrics.response.exclusive.push(dt),
            }
        }
        // Every waiter spent the fetch round-trip on the network (interior
        // server-side spans — disk, lock queue — carve themselves out by
        // priority in the blame extractor).
        for &key in &fetch.waiters {
            let (site, unit) = (SiteId::Client(holder), TransactionId::from_raw(key));
            cx.sink
                .span(cx.now, site, unit, SpanKind::Net, fetch.sent_at, None);
        }
        for key in fetch.waiters {
            let (need_mode, deadline) = {
                let Some(run) = self.txns.get_mut(&key) else {
                    continue;
                };
                // A grant-all round that came back as grants: acquisition
                // continues normally.
                if run.state == RunState::AwaitGrantAll {
                    run.state = RunState::Acquiring;
                }
                match run.needed.get(object) {
                    Some((need_mode, Need::Fetch)) => (need_mode, run.spec.deadline),
                    _ => continue,
                }
            };
            // The lock installed above can vanish mid-loop: an earlier
            // waiter's completed acquisition may release local locks and
            // let a queued revoke execute, surrendering the cached lock
            // again. For later waiters that is indistinguishable from a
            // too-weak grant — fall through to the re-request path.
            let granted_mode = self.cached_locks.get(object).copied();
            if granted_mode.is_some_and(|m| m.covers(need_mode)) && self.cache.contains(object) {
                let promote = self.cache.peek(object) == Some(CacheTier::Disk);
                if self.request_local_lock(cx, key, object, need_mode, promote) {
                    continue;
                }
                self.check_ready(cx, key);
            } else {
                // Granted mode too weak (or data still missing): go again.
                let needs_data = !self.cache.contains(object);
                self.refetch(cx, key, object, need_mode, needs_data, deadline);
            }
        }
    }

    /// LS: the grant-all round failed; run H2 and either ship the
    /// transaction or commit to local processing.
    fn on_conflict_report(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        conflicts: &[Holding],
    ) {
        let Some(run) = self.txns.get(&key) else {
            return;
        };
        // The transaction may already have left AwaitGrantAll if another
        // fetch resolved in the meantime; the conflict answer still stands
        // for whatever it is still waiting on.
        if !matches!(run.state, RunState::AwaitGrantAll | RunState::Acquiring) {
            return;
        }
        let shipped = !matches!(run.kind, RunKind::Normal);
        let self_id = self.id;
        let txn = run.spec.id;
        let accesses = run.spec.accesses.as_slice();
        // H2 decision wait: the grant-all round from batch send to this
        // conflict report.
        let (site, unit) = (SiteId::Client(self_id), TransactionId::from_raw(key));
        let decision = SpanKind::Decision;
        cx.sink
            .span(cx.now, site, unit, decision, run.acquire_started, None);
        if cx.cfg.load_sharing.h2_enabled && !shipped {
            let scored = &mut self.h2_scored;
            let best = Self::h2_choose(self_id, accesses, conflicts, &[], scored);
            let scored = &self.h2_scored;
            cx.sink.emit(cx.now, SiteId::Client(self_id), || {
                Self::h2_event(txn, self_id, best, scored)
            });
            // Ship only when the destination substantially reduces the
            // conflicting-lock count and already caches a significant share
            // of the transaction's data (§3.1: transaction-shipping pays
            // when "a significant percentage of a transaction's required
            // data is already cached at another site"). Shipping cancels
            // the requests the server has queued on our behalf.
            let score_of = |site| {
                scored
                    .iter()
                    .find(|&&(c, _)| c == site)
                    .map_or(0, |&(_, s)| s)
            };
            let best_score = score_of(best) as f64;
            let origin_score = score_of(self_id) as f64;
            if best != self_id
                && cx.site_up(best)
                && best_score <= SHIP_CONFLICT_RATIO * origin_score
                && Self::holds_fraction(best, accesses, conflicts) >= SHIP_LOCALITY_MIN
            {
                self.ship_txn(cx, key, best);
                return;
            }
        }
        // Otherwise nothing to do: the server already queued the blocked
        // requests and will ship the objects as soon as possible (§4).
        if let Some(run) = self.txns.get_mut(&key) {
            if run.state == RunState::AwaitGrantAll {
                run.state = RunState::Acquiring;
            }
        }
        self.check_ready(cx, key);
    }

    /// H2: the site at which the transaction would wait for the fewest
    /// conflicting locks; `loads` breaks ties. `scored` is left holding
    /// every candidate with its score, in evaluation order (origin first,
    /// then holders as discovered) — what the `H2Choose` trace event
    /// carries.
    fn h2_choose(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[Holding],
        loads: &[Load],
        scored: &mut Vec<(ClientId, usize)>,
    ) -> ClientId {
        let load_of = |c: ClientId| {
            loads
                .iter()
                .find(|(id, _, _)| *id == c)
                .map_or(0, |&(_, l, _)| l)
        };
        let origin_score = Self::h2_score(origin, accesses, locations);
        scored.clear();
        scored.push((origin, origin_score));
        for row in locations {
            if !scored.iter().any(|&(s, _)| s == row.holder) {
                scored.push((row.holder, Self::h2_score(row.holder, accesses, locations)));
            }
        }
        let best = scored
            .iter()
            .map(|&(c, score)| (score, load_of(c), c.0, c))
            .min();
        // Ship only for a strict improvement in conflicting locks.
        match best {
            Some((score, _, _, c)) if score < origin_score => c,
            _ => origin,
        }
    }

    /// The `H2Choose` trace event for a choice `h2_choose` made.
    fn h2_event(
        txn: TransactionId,
        origin: ClientId,
        chosen: ClientId,
        scored: &[(ClientId, usize)],
    ) -> siteselect_obs::Event {
        siteselect_obs::Event::H2Choose {
            txn,
            origin: SiteId::Client(origin),
            chosen: SiteId::Client(chosen),
            candidates: scored
                .iter()
                .map(|&(c, score)| siteselect_obs::H2Candidate {
                    site: SiteId::Client(c),
                    score: score as u64,
                })
                .collect(),
        }
    }

    /// The rows of `object` in a server answer, which lists an object's
    /// rows together.
    fn rows_of(rows: &[Holding], object: ObjectId) -> impl Iterator<Item = &Holding> + Clone {
        rows.iter()
            .skip_while(move |r| r.object != object)
            .take_while(move |r| r.object == object)
    }

    /// Fraction of the transaction's objects on which `site` holds a lock —
    /// the proxy for "how much of the required data is cached there".
    fn holds_fraction(site: ClientId, accesses: &[AccessSpec], locations: &[Holding]) -> f64 {
        if accesses.is_empty() {
            return 0.0;
        }
        let held = accesses
            .iter()
            .filter(|a| Self::rows_of(locations, a.object).any(|r| r.holder == site))
            .count();
        held as f64 / accesses.len() as f64
    }

    /// The number of conflicting locks transaction `accesses` would wait
    /// for if executed at `site` (the quantity H2 minimizes).
    fn h2_score(site: ClientId, accesses: &[AccessSpec], locations: &[Holding]) -> usize {
        accesses
            .iter()
            .map(|a| {
                let mode = a.mode();
                Self::rows_of(locations, a.object)
                    .filter(|r| r.holder != site && !r.mode.compatible_with(mode))
                    .count()
            })
            .sum()
    }

    /// Places each of a decomposable transaction's accesses at its object's
    /// current holding site — the exclusive holder if there is one, else the
    /// first holder; an unheld object stays with the origin — into
    /// `placement`, sorted by site and then access position, so each
    /// site's accesses are one run in access order.
    fn group_by_location(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[Holding],
        placement: &mut Vec<(ClientId, u32, AccessSpec)>,
    ) {
        placement.clear();
        for (at, a) in accesses.iter().enumerate() {
            let rows = Self::rows_of(locations, a.object);
            let site = rows
                .clone()
                .find(|r| r.mode.is_exclusive())
                .or_else(|| rows.clone().next())
                .map_or(origin, |r| r.holder);
            placement.push((site, at as u32, *a));
        }
        placement.sort_unstable_by_key(|&(site, at, _)| (site, at));
    }

    /// Keeps decomposition worthwhile: a remote site's run of `placement`
    /// stays its own only if the site is up, the run carries at least two
    /// objects (a single-object fetch is cheaper than a subtask) and fewer
    /// than four remote runs came before it (the fan-out is capped at four
    /// sites, as in the paper's illustration). Every other run is placed
    /// at the origin. Returns the number of remote runs kept.
    fn fold_into_origin(
        origin: ClientId,
        placement: &mut [(ClientId, u32, AccessSpec)],
        site_up: impl Fn(ClientId) -> bool,
    ) -> usize {
        let mut remote = 0;
        let mut rest = placement;
        while let Some(&(site, ..)) = rest.first() {
            let len = rest.iter().take_while(|p| p.0 == site).count();
            let (run, tail) = rest.split_at_mut(len);
            if site == origin || !site_up(site) || len < 2 || remote >= 4 {
                run.iter_mut().for_each(|p| p.0 = origin);
            } else {
                remote += 1;
            }
            rest = tail;
        }
        remote
    }

    fn on_load_reply(
        &mut self,
        cx: &mut Cx,
        key: TKey,
        locations: &[Holding],
        loads: &[Load],
    ) {
        let Some(run) = self.txns.get(&key) else {
            return;
        };
        let RunState::AwaitInfo { reason } = run.state else {
            return;
        };
        let self_id = self.id;
        let txn = run.spec.id;
        let accesses = run.spec.accesses.as_slice();
        // The load-query round the transaction waited on: H1-infeasible
        // admission handling, or the decomposition placement lookup.
        let waited = match reason {
            InfoReason::H1Infeasible => SpanKind::Admission,
            InfoReason::Decompose => SpanKind::Decision,
        };
        let (site, unit) = (SiteId::Client(self_id), TransactionId::from_raw(key));
        cx.sink
            .span(cx.now, site, unit, waited, run.acquire_started, None);
        match reason {
            InfoReason::H1Infeasible => {
                let best = if cx.cfg.load_sharing.h2_enabled {
                    let scored = &mut self.h2_scored;
                    let best = Self::h2_choose(self_id, accesses, locations, loads, scored);
                    let scored = &self.h2_scored;
                    cx.sink.emit(cx.now, SiteId::Client(self_id), || {
                        Self::h2_event(txn, self_id, best, scored)
                    });
                    best
                } else {
                    // Without H2, fall back to the least-loaded site.
                    loads
                        .iter()
                        .map(|&(c, l, _)| (l, c.0, c))
                        .min()
                        .map_or(self_id, |(_, _, c)| c)
                };
                if best != self_id && cx.site_up(best) {
                    self.ship_txn(cx, key, best);
                } else {
                    // Best site is home, or the chosen site is crashed:
                    // local processing degrades gracefully.
                    self.begin_acquisition(cx, key);
                }
            }
            InfoReason::Decompose => {
                let placement = &mut self.placement;
                Self::group_by_location(self_id, accesses, locations, placement);
                let remote = Self::fold_into_origin(self_id, placement, |c| cx.site_up(c));
                let at_origin = placement.iter().any(|p| p.0 == self_id);
                if remote + usize::from(at_origin) >= 2 {
                    self.decompose(cx, key, remote);
                } else {
                    self.begin_acquisition(cx, key);
                }
            }
        }
    }

    /// Decomposes `key` as `self.placement` places its accesses: each of
    /// the `remote` runs placed at another site becomes that site's
    /// subtask, in site order, and the accesses placed at the origin become
    /// the last subtask. Only the subtasks' access lists are allocated, each
    /// at its final size.
    fn decompose(&mut self, cx: &mut Cx, key: TKey, remote: usize) {
        let Some(run) = self.txns.get_mut(&key) else {
            return;
        };
        let origin = self.id;
        let placement = std::mem::take(&mut self.placement);
        let at_origin = placement.iter().filter(|p| p.0 == origin).count();
        let subtasks = remote + usize::from(at_origin > 0);
        let parent = &run.spec;
        let (id, spec_origin, arrival, deadline) =
            (parent.id, parent.origin, parent.arrival, parent.deadline);
        let (total, cpu_demand) = (parent.accesses.len().max(1) as f64, parent.cpu_demand);
        run.state = RunState::AwaitSubtasks {
            pending: subtasks as u8,
            failed: false,
        };
        if cx.measured_arrival(arrival) {
            cx.metrics.load_sharing.decomposed += 1;
            cx.metrics.load_sharing.subtasks += subtasks as u64;
        }
        cx.sink.emit(cx.now, SiteId::Client(spec_origin), || {
            siteselect_obs::Event::Decomposed {
                txn: id,
                subtasks: subtasks as u32,
            }
        });
        let subtask = |accesses: Vec<AccessSpec>| {
            let share = accesses.len() as f64 / total;
            TransactionSpec {
                id,
                origin: spec_origin,
                arrival,
                deadline,
                cpu_demand: cpu_demand.mul_f64((1.0 - SYNTHESIS_FRACTION) * share),
                accesses,
                decomposable: false,
            }
        };
        let mut index = 0u8;
        let mut rest = placement.as_slice();
        while let Some(&(site, ..)) = rest.first() {
            let len = rest.iter().take_while(|p| p.0 == site).count();
            let (run, tail) = rest.split_at(len);
            rest = tail;
            if site == origin {
                continue;
            }
            let ship = Msg::SubtaskShip {
                parent: key,
                index,
                origin,
                spec: subtask(run.iter().map(|p| p.2).collect()),
                sent_at: cx.now,
            };
            cx.send_to_peer(site, 0, ship);
            index += 1;
        }
        let mut accesses = Vec::with_capacity(at_origin);
        accesses.extend(placement.iter().filter(|p| p.0 == origin).map(|p| p.2));
        self.placement = placement;
        if !accesses.is_empty() {
            let skey = subtask_key(key, index);
            let kind = RunKind::Subtask {
                parent: key,
                index,
                origin,
            };
            self.txns.insert(skey, TxnRun::new(kind, subtask(accesses), cx.now));
            self.begin_acquisition(cx, skey);
        }
    }

    fn on_subtask_result(&mut self, cx: &mut Cx, parent: TKey, ok: bool) {
        let Some(run) = self.txns.get_mut(&parent) else {
            return; // parent already aborted (e.g. expired)
        };
        let RunState::AwaitSubtasks { pending, failed } = run.state else {
            return;
        };
        let pending = pending - 1;
        let failed = failed || !ok;
        run.state = RunState::AwaitSubtasks { pending, failed };
        if pending > 0 {
            return;
        }
        if failed {
            self.abort_txn(cx, parent, AbortReason::SubtaskFailure);
            return;
        }
        // Synthesis phase: combine the subtask answers.
        let (deadline, demand) = (
            run.spec.deadline,
            run.spec.cpu_demand.mul_f64(SYNTHESIS_FRACTION),
        );
        run.state = RunState::Synthesis;
        run.exec_started = cx.now;
        let tick = self.cpu.submit(cx.now, parent, deadline, demand);
        self.arm_cpu(cx, tick);
    }

    fn ship_txn(&mut self, cx: &mut Cx, key: TKey, dest: ClientId) {
        let Some(run) = self.txns.remove(&key) else {
            return;
        };
        if cx.measured_arrival(run.spec.arrival) {
            cx.metrics.load_sharing.shipped += 1;
        }
        let txn = run.spec.id;
        cx.sink.emit(cx.now, SiteId::Client(self.id), || {
            siteselect_obs::Event::Shipped {
                txn,
                to: SiteId::Client(dest),
            }
        });
        // The origin-side episode ends without committing anything: local
        // locks are released here and the unit re-executes (as a fresh
        // lock episode) at the destination.
        self.end_unit(cx, key, false);
        self.detach_txn(cx, key, &run);
        let ship = Msg::TxnShip {
            spec: run.spec,
            sent_at: cx.now,
        };
        cx.send_to_peer(dest, 0, ship);
    }

    /// Releases everything `key` holds or awaits here.
    fn detach_txn(&mut self, cx: &mut Cx, key: TKey, run: &TxnRun) {
        // Close out lock waits still open at detach (an aborted/shipped
        // unit stops waiting now).
        let unit = (key, ObjectId(0))..=(key, ObjectId(u32::MAX));
        for (_, wait) in self.lock_wait_from.extract_if(unit, |_, _| true) {
            Self::lock_wait_span(cx, self.id, key, wait);
        }
        // Local locks and queued local waits.
        let mut grants = self.spare_grants.pop().unwrap_or_default();
        self.local_locks.release_all_into(key, &mut grants);
        for (object, waiters) in grants.drain(..) {
            self.on_local_grants(cx, object, waiters);
        }
        self.spare_grants.push(grants);
        // Pending revokes may now be executable.
        for object in run.needed.objects() {
            self.try_execute_revoke(cx, object);
        }
        // Outstanding fetches: a unit waits only on fetches of objects it
        // needs, and the walk is ascending, so `CancelWants` is sorted.
        let mut cancelled: InlineVec<ObjectId, 4> = InlineVec::new();
        for object in run.needed.objects() {
            if let Some(f) = self.fetches.get_mut(&object) {
                f.waiters.retain(|&w| w != key);
                if f.waiters.is_empty() {
                    self.fetches.remove(&object);
                    cancelled.push(object);
                }
            }
        }
        if !cancelled.is_empty() {
            let client = self.id;
            cx.send_to_server(
                0,
                1,
                Msg::CancelWants {
                    client,
                    objects: cancelled,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Callbacks, downgrades and forward hops
    // ------------------------------------------------------------------

    fn on_recall(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        desired: LockMode,
        forward: Option<ForwardList>,
    ) {
        if !self.cached_locks.contains(object) {
            // We no longer hold it (silently evicted): answer immediately.
            self.ack_callback(cx, object, self.cache.contains(object));
            return;
        }
        let revoke = forward.map_or(Revoke::Callback(desired), Revoke::Forward);
        self.revokes.insert(object, revoke);
        // Queued local waiters can no longer rely on the cached lock.
        self.requeue_local_waiters(cx, object);
        self.try_execute_revoke(cx, object);
    }

    /// Converts local-wait transactions on `object` into server fetches
    /// (their cached lock is being revoked or downgraded).
    fn requeue_local_waiters(&mut self, cx: &mut Cx, object: ObjectId) {
        let waiters: Vec<TKey> = self
            .local_locks
            .waiters(object)
            .iter()
            .map(|w| w.owner)
            .collect();
        for key in waiters {
            let Some(run) = self.txns.get(&key) else {
                continue;
            };
            let Some((mode, Need::LocalWait)) = run.needed.get(object) else {
                continue;
            };
            let deadline = run.spec.deadline;
            let (_, grants) = self.local_locks.cancel_wait(object, key);
            self.end_lock_wait(cx, key, object); // it converts into a server fetch
            if let Some(run) = self.txns.get_mut(&key) {
                run.needed.insert(object, mode, Need::Fetch);
            }
            self.on_local_grants(cx, object, grants);
            self.refetch(cx, key, object, mode, true, deadline);
        }
    }

    /// Answers a callback without data.
    fn ack_callback(&self, cx: &mut Cx, object: ObjectId, had_copy: bool) {
        let from = self.id;
        let ack = Msg::CallbackAck {
            object,
            from,
            had_copy,
            sent_at: cx.now,
        };
        cx.send_to_server(0, 1, ack);
    }

    /// Sends the object (the newest version) home.
    fn send_home(&self, cx: &mut Cx, object: ObjectId, downgraded: bool) {
        let from = self.id;
        let ret = Msg::ObjectReturn {
            object,
            from,
            downgraded,
            sent_at: cx.now,
        };
        cx.send_to_server(1, 1, ret);
    }

    /// Executes a pending revocation once no local transaction holds the
    /// object.
    fn try_execute_revoke(&mut self, cx: &mut Cx, object: ObjectId) {
        if !self.revokes.contains_key(&object) {
            return;
        }
        if self.local_locks.holders(object).next().is_some() {
            return; // active local users finish first
        }
        let revoke = self.revokes.remove(&object).expect("checked above");
        let from = self.id;
        let held = self.cached_locks.get(object).copied();
        let has_data = self.cache.contains(object);
        let exclusive_copy = held == Some(LockMode::Exclusive) && has_data;
        if exclusive_copy && matches!(revoke, Revoke::Callback(LockMode::Shared)) {
            // A reader wants it: the new version goes home and a shared
            // lock and the copy stay.
            self.cached_locks.insert(object, LockMode::Shared);
            cx.sink.emit(cx.now, SiteId::Client(from), || {
                siteselect_obs::Event::CacheDowngrade {
                    client: from,
                    object,
                }
            });
            self.send_home(cx, object, true);
            return;
        }
        // Anything else gives up the cached lock and the copy.
        self.cached_locks.remove(object);
        self.cache.invalidate(object);
        cx.sink.emit(cx.now, SiteId::Client(from), || {
            siteselect_obs::Event::CacheDrop {
                client: from,
                object,
            }
        });
        match revoke {
            // Grouped-lock hop: ship the object to the next live entry, or
            // home if everyone on the list expired. Without the data the
            // server must serve the list.
            Revoke::Forward(mut list) if has_data => match cx.pop_live(&mut list) {
                Some(entry) => {
                    let to = entry.client;
                    cx.sink.emit(cx.now, SiteId::Client(from), || {
                        siteselect_obs::Event::ForwardHop { object, to }
                    });
                    let hop = Msg::ObjectForward {
                        from: SiteId::Client(from),
                        object,
                        mode: entry.mode,
                        rest: list,
                    };
                    cx.send_to_peer(to, 1, hop);
                }
                None => self.send_home(cx, object, false),
            },
            Revoke::Forward(_) => self.ack_callback(cx, object, false),
            // Plain callback: an exclusive copy carries the newest version
            // home; anything else is answered without data.
            Revoke::Callback(_) if exclusive_copy => self.send_home(cx, object, false),
            Revoke::Callback(_) => self.ack_callback(cx, object, has_data),
        }
    }

    /// `key` stops waiting for the local lock on `object`: closes the
    /// lock-wait span opened when it blocked (tracing only).
    fn end_lock_wait(&mut self, cx: &Cx, key: TKey, object: ObjectId) {
        if let Some(wait) = self.lock_wait_from.remove(&(key, object)) {
            Self::lock_wait_span(cx, self.id, key, wait);
        }
    }

    /// Emits the lock-wait span of `key` at client `id` that started at
    /// `started`, behind `blocker`.
    fn lock_wait_span(cx: &Cx, id: ClientId, key: TKey, (started, blocker): (SimTime, TKey)) {
        let (site, unit) = (SiteId::Client(id), TransactionId::from_raw(key));
        let blocker = Some(TransactionId::from_raw(blocker));
        cx.sink
            .span(cx.now, site, unit, SpanKind::LockWait, started, blocker);
    }

    /// Local lock grants cascading from a release.
    fn on_local_grants(&mut self, cx: &mut Cx, object: ObjectId, granted: Grants<TKey>) {
        for key in granted.into_iter().map(|w| w.owner) {
            let Some(run) = self.txns.get(&key) else {
                // Granted to a transaction that no longer exists.
                let more = self.local_locks.release(object, key);
                self.on_local_grants(cx, object, more);
                continue;
            };
            let Some((mode, status)) = run.needed.get(object) else {
                continue;
            };
            if status != Need::LocalWait {
                continue;
            }
            self.end_lock_wait(cx, key, object); // with this grant
            let covered = self
                .cached_locks
                .get(object)
                .is_some_and(|m| m.covers(mode));
            if covered && self.cache.contains(object) {
                let promote = self.cache.peek(object) == Some(CacheTier::Disk);
                self.lock_granted(cx, key, object, mode, promote);
                if !promote {
                    self.check_ready(cx, key);
                }
            } else {
                // Cached lock vanished while queued: fetch from the server.
                let deadline = self
                    .txns
                    .get(&key)
                    .map_or(SimTime::MAX, |r| r.spec.deadline);
                self.local_locks.release(object, key);
                if let Some(run) = self.txns.get_mut(&key) {
                    run.needed.insert(object, mode, Need::Fetch);
                }
                self.refetch(cx, key, object, mode, true, deadline);
            }
        }
    }

    // ------------------------------------------------------------------
    // Execution and completion
    // ------------------------------------------------------------------

    fn check_ready(&mut self, cx: &mut Cx, key: TKey) {
        let Some(run) = self.txns.get(&key) else {
            return;
        };
        if !run.ready() {
            return;
        }
        if run.spec.is_expired(cx.now) {
            self.abort_txn(cx, key, AbortReason::Expired);
            return;
        }
        let measured = cx.measured_arrival(run.spec.arrival);
        let blocked = cx.now.duration_since(run.acquire_started);
        if measured {
            cx.metrics.blocking.push_duration(blocked);
        }
        let (deadline, demand) = (run.spec.deadline, run.spec.cpu_demand);
        let txn = run.spec.id;
        if let Some(run) = self.txns.get_mut(&key) {
            run.state = RunState::Executing;
            run.exec_started = cx.now;
        }
        cx.sink.emit(cx.now, SiteId::Client(self.id), || {
            siteselect_obs::Event::ExecStart { txn }
        });
        let tick = self.cpu.submit(cx.now, key, deadline, demand);
        self.arm_cpu(cx, tick);
    }

    /// Schedules the completion tick the CPU asked for, if any.
    fn arm_cpu(&self, cx: &mut Cx, tick: Option<(SimTime, u64)>) {
        if let Some((t, generation)) = tick {
            let client = self.id.index();
            cx.queue.push(t, Ev::ClientCpu { client, generation });
        }
    }

    pub(crate) fn on_cpu(&mut self, cx: &mut Cx, generation: u64) {
        match self.cpu.on_completion(cx.now, generation) {
            crate::cpu::Tick::Stale => {}
            crate::cpu::Tick::Done { finished, next } => {
                self.arm_cpu(cx, next);
                for &key in finished.iter() {
                    self.commit_txn(cx, key);
                }
            }
        }
    }

    fn commit_txn(&mut self, cx: &mut Cx, key: TKey) {
        let Some(run) = self.retire(cx, key) else {
            return;
        };
        self.end_unit(cx, key, true);
        self.detach_txn(cx, key, &run);
        // ATL bookkeeping for H1: the paper's "average execution time for
        // all completed transactions" — the CPU-resident span.
        let exec_time = cx.now.duration_since(run.exec_started).as_secs_f64();
        self.atl_sum += exec_time;
        self.atl_count += 1;
        if matches!(run.kind, RunKind::Normal) {
            let txn = run.spec.id;
            let latency_us = cx.now.duration_since(run.spec.arrival).as_micros();
            let slack_us = run.spec.deadline.as_micros() as i64 - cx.now.as_micros() as i64;
            cx.sink.emit(cx.now, SiteId::Client(self.id), || {
                siteselect_obs::Event::Commit {
                    txn,
                    latency_us,
                    slack_us,
                }
            });
        }
        self.settle(cx, &run, None);
    }

    fn abort_txn(&mut self, cx: &mut Cx, key: TKey, reason: AbortReason) {
        let Some(run) = self.retire(cx, key) else {
            return;
        };
        self.detach_txn(cx, key, &run);
        let txn = run.spec.id;
        cx.sink.emit(cx.now, SiteId::Client(self.id), || {
            siteselect_obs::Event::Abort { txn, reason }
        });
        self.end_unit(cx, key, false);
        self.settle(cx, &run, Some(reason));
    }

    /// Takes unit `key` off this site: out of the resident units and, if it
    /// is still there, off the CPU.
    fn retire(&mut self, cx: &mut Cx, key: TKey) -> Option<TxnRun> {
        let run = self.txns.remove(&key)?;
        if self.cpu.contains(key) {
            let tick = self.cpu.remove(cx.now, key);
            self.arm_cpu(cx, tick);
        }
        Some(run)
    }

    /// Stamps the end of unit `key`'s lock episode at this site.
    fn end_unit(&self, cx: &Cx, key: TKey, committed: bool) {
        let txn = TransactionId::from_raw(key);
        cx.sink.emit(cx.now, SiteId::Client(self.id), || {
            siteselect_obs::Event::UnitEnd { txn, committed }
        });
    }

    /// Settles how unit `run` ended here (`aborted` is `None` for a
    /// commit). A transaction that ran at its origin is settled on the
    /// spot; a shipped transaction or a subtask reports to its origin. A
    /// site that is crashing sends nothing: the origin's failure detector
    /// is modelled as the same failed result, delivered after the full
    /// backoff cap (pushed straight to the event queue — a dead site puts
    /// nothing on the wire).
    fn settle(&mut self, cx: &mut Cx, run: &TxnRun, aborted: Option<AbortReason>) {
        let (from, spec, sent_at) = (self.id, &run.spec, cx.now);
        let ok = aborted.is_none() && cx.now <= spec.deadline;
        let (origin, result) = match run.kind {
            RunKind::Normal => return cx.settle(spec.id, spec.arrival, spec.deadline, aborted),
            RunKind::Shipped { origin } => {
                let result = Msg::TxnResult {
                    from: SiteId::Client(from),
                    txn: spec.id,
                    committed: ok,
                    deadline: spec.deadline,
                    arrival: spec.arrival,
                    sent_at,
                };
                (origin, result)
            }
            RunKind::Subtask { parent, origin, .. } => {
                let result = Msg::SubtaskResult {
                    from,
                    parent,
                    ok,
                    sent_at,
                };
                (origin, result)
            }
        };
        if !cx.site_up(from) {
            let to = SiteDest::Client(origin);
            let at = cx.now.saturating_add(RETRY_BACKOFF_CAP);
            cx.queue.push(
                at,
                Ev::Deliver {
                    to,
                    msgs: vec![result],
                },
            );
        } else if origin == from {
            self.on_result(cx, result);
        } else {
            cx.send_to_peer(origin, 0, result);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and failure handling
    // ------------------------------------------------------------------

    /// A client site crashes: every resident unit of work dies, all
    /// volatile state (caches, cached locks, local lock table) is lost, and
    /// the fabric refuses deliveries until recovery. The site sends
    /// nothing on its way down — the rest of the system learns of the
    /// failure only through timeouts and lease expiry.
    pub(crate) fn on_crash(&mut self, cx: &mut Cx) {
        if !cx.fabric.set_site_down(SiteId::Client(self.id)) {
            return; // already down (schedules can overlap at run end)
        }
        cx.metrics.faults.crashes += 1;
        let id = self.id;
        cx.sink.emit(cx.now, SiteId::Client(id), || {
            siteselect_obs::Event::SiteCrash {
                site: SiteId::Client(id),
            }
        });
        // detlint: allow(D2) — `keys.sort_unstable()` on the next line, before the kill cascade
        let mut keys: Vec<TKey> = self.txns.keys().copied().collect();
        keys.sort_unstable(); // hash order is implementation-defined; kills cascade
        for key in keys {
            // Each unit dies silently: unlike an abort nothing is sent,
            // remote interest is settled by a synthetic timeout result, and
            // whatever the site held at the server is reclaimed by callback
            // leases.
            if let Some(run) = self.retire(cx, key) {
                self.end_unit(cx, key, false);
                self.settle(cx, &run, Some(AbortReason::SiteCrash));
            }
        }
        cx.sink.emit(cx.now, SiteId::Client(id), || {
            siteselect_obs::Event::CacheWipe { client: id }
        });
        self.cached_locks.clear();
        self.fetches.clear();
        self.revokes.clear();
        self.lock_wait_from.clear();
        self.cache.clear();
        self.local_locks.clear();
    }

    /// A crashed site comes back up, cold: it accepts traffic again but
    /// remembers nothing (its caches were wiped at crash time).
    pub(crate) fn on_recover(&mut self, cx: &mut Cx) {
        if !cx.fabric.set_site_up(SiteId::Client(self.id)) {
            return;
        }
        cx.metrics.faults.recoveries += 1;
        let id = self.id;
        cx.sink.emit(cx.now, SiteId::Client(id), || {
            siteselect_obs::Event::SiteRecover {
                site: SiteId::Client(id),
            }
        });
    }

    /// Retry timer for an outstanding fetch: if the fetch `sent_at` is
    /// still unanswered, retransmit the request and re-arm with doubled
    /// (capped) backoff. Stale timers — the fetch resolved, was replaced,
    /// or a newer retry round superseded this one — mismatch and do
    /// nothing.
    pub(crate) fn on_retry_fetch(
        &mut self,
        cx: &mut Cx,
        object: ObjectId,
        attempt: u32,
        sent_at: SimTime,
    ) {
        let f = cx.cfg.faults;
        if !cx.faults_active || !cx.site_up(self.id) {
            return;
        }
        let Some(fetch) = self.fetches.get(&object) else {
            return; // answered (or cancelled) in time
        };
        if fetch.sent_at != sent_at || fetch.attempts != attempt {
            return; // stale timer
        }
        if attempt >= f.max_retries {
            return; // budget exhausted; the deadline sweep settles waiters
        }
        let mode = fetch.mode;
        // Re-issue on behalf of the earliest-deadline surviving waiter.
        let Some((txn, deadline)) = fetch
            .waiters
            .iter()
            .filter_map(|&k| self.txns.get(&k).map(|r| (k, r.spec.deadline)))
            .min_by_key(|&(k, d)| (d, k))
        else {
            return;
        };
        if let Some(fetch) = self.fetches.get_mut(&object) {
            fetch.attempts = attempt + 1;
        }
        cx.metrics.faults.retries += 1;
        let needs_data = !self.cache.contains(object);
        let client = self.id;
        if let Some(id) = self.txns.get(&txn).map(|r| r.spec.id) {
            cx.sink.emit(cx.now, SiteId::Client(client), || {
                siteselect_obs::Event::RetrySent { txn: id }
            });
        }
        // The dead time from the (lost) send to this retransmission is a
        // retry/backoff episode, carved out of the fetch's network span.
        let (site, unit) = (SiteId::Client(client), TransactionId::from_raw(txn));
        cx.sink
            .span(cx.now, site, unit, SpanKind::Retry, sent_at, None);
        let want = Want {
            object,
            mode,
            needs_data,
            deadline,
        };
        self.request_one(cx, txn, want);
        let backoff = f
            .retry_backoff_base
            .mul_f64(f64::from(2u32.saturating_pow(attempt + 1)))
            .min(RETRY_BACKOFF_CAP);
        cx.queue.push(
            cx.now + backoff,
            Ev::RetryFetch {
                client: self.id.index(),
                object,
                attempt: attempt + 1,
                sent_at,
            },
        );
    }

    /// Drops transactions whose deadline passed while they were not yet
    /// executing ("tasks that have missed their deadlines are not processed
    /// at all", §2).
    pub(crate) fn sweep_expired(&mut self, cx: &mut Cx) {
        let now = cx.now;
        self.abort_where(cx, AbortReason::Expired, |run| run.spec.is_expired(now));
    }

    /// The restarted server remembers nothing of the transactional
    /// (non-cached) grants that were in flight when it crashed, so a unit
    /// of work alive across the outage could commit against locks the
    /// server has silently re-granted. On reconnect every resident unit
    /// aborts instead — which also cancels its outstanding fetches,
    /// disarming the post-recovery retry storm.
    pub(crate) fn abort_stranded(&mut self, cx: &mut Cx) {
        self.abort_where(cx, AbortReason::SiteCrash, |_| true);
    }

    /// Aborts every resident unit `doomed` picks, in key order: `HashMap`
    /// order is implementation-defined even with a fixed hasher, and the
    /// abort cascade is order-sensitive.
    fn abort_where(&mut self, cx: &mut Cx, reason: AbortReason, doomed: impl Fn(&TxnRun) -> bool) {
        let mut keys = std::mem::take(&mut self.doomed_keys);
        keys.extend(
            self
                // detlint: allow(D2) — `keys.sort_unstable()` below, before the abort cascade
                .txns
                .iter()
                .filter(|(_, run)| doomed(run))
                .map(|(&k, _)| k),
        );
        keys.sort_unstable();
        for key in keys.drain(..) {
            self.abort_txn(cx, key, reason);
        }
        self.doomed_keys = keys;
    }

    /// The server gave up on this site's copy of `object` (an expired
    /// callback lease, or a cached lock that no longer fits the rebuilt
    /// lock table): the cached lock, the copy and any pending revoke go
    /// together, so a zombie or recovered site cannot serve stale data and
    /// must re-fetch. The server orders the fence, so the trace stamps it
    /// there.
    pub(crate) fn fence(&mut self, cx: &Cx, object: ObjectId) {
        self.cached_locks.remove(object);
        self.cache.invalidate(object);
        self.revokes.remove(&object);
        let client = self.id;
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::CacheDrop { client, object }
        });
    }

    /// A lease fence must also kill the in-flight local users of the
    /// object: a zombie that already read the fenced copy would otherwise
    /// commit against locks the server has re-granted (its commit would
    /// fail the lease check in a real system).
    pub(crate) fn abort_local_holders(&mut self, cx: &mut Cx, object: ObjectId) {
        let holders: Vec<TKey> = self.local_locks.holders(object).map(|(k, _)| k).collect();
        for key in holders {
            self.abort_txn(cx, key, AbortReason::SiteCrash);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of object `o` in a server answer.
    fn loc(o: u32, holders: &[(u16, LockMode)]) -> Vec<Holding> {
        holders
            .iter()
            .map(|&(c, mode)| Holding {
                object: ObjectId(o),
                holder: ClientId(c),
                mode,
            })
            .collect()
    }

    /// H2's choice and its scored candidates.
    fn h2(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[Holding],
        loads: &[Load],
    ) -> (ClientId, Vec<(ClientId, usize)>) {
        let mut scored = Vec::new();
        let best = ClientSite::h2_choose(origin, accesses, locations, loads, &mut scored);
        (best, scored)
    }

    /// Decomposition's placement of `accesses` as runs: each site with the
    /// accesses placed there, in site order.
    fn groups(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[Holding],
    ) -> Vec<(ClientId, Vec<AccessSpec>)> {
        let mut placement = Vec::new();
        ClientSite::group_by_location(origin, accesses, locations, &mut placement);
        let mut out: Vec<(ClientId, Vec<AccessSpec>)> = Vec::new();
        for (site, _, a) in placement {
            match out.last_mut() {
                Some((last, run)) if *last == site => run.push(a),
                _ => out.push((site, vec![a])),
            }
        }
        out
    }

    use siteselect_locks::ForwardEntry;
    use siteselect_types::{ExperimentConfig, SystemKind};

    use crate::clientserver::ServerSite;

    /// Client 0 of a four-client system on its own — no server, no peers —
    /// at t = 10 s.
    fn lone_site(system: SystemKind) -> (ClientSite, Cx) {
        let cfg = ExperimentConfig::paper(system, 4, 0.05);
        let site = ClientSite::new(ClientId(0), &cfg.client, cfg.cpu.client_speed);
        let mut cx = Cx::new(cfg);
        cx.now = SimTime::from_secs(10);
        (site, cx)
    }

    /// Submits transaction `seq` at the site and returns its key.
    fn submit(site: &mut ClientSite, cx: &mut Cx, seq: u64, accesses: Vec<AccessSpec>) -> TKey {
        let id = TransactionId::new(site.id, seq);
        let spec = TransactionSpec {
            id,
            origin: site.id,
            arrival: cx.now,
            deadline: cx.now + SimDuration::from_secs(100),
            cpu_demand: SimDuration::from_secs(1),
            accesses,
            decomposable: false,
        };
        site.on_arrive(cx, spec);
        id.as_u64()
    }

    /// Advances to the site's next CPU completion and delivers it.
    fn run_cpu(site: &mut ClientSite, cx: &mut Cx) {
        while let Some((t, ev)) = cx.queue.pop() {
            if let Ev::ClientCpu { generation, .. } = ev {
                cx.now = t;
                site.on_cpu(cx, generation);
                return;
            }
        }
        panic!("no CPU completion was scheduled");
    }

    /// The site caches object 1 exclusively (granted with data) and
    /// transaction 1, which writes it, is on the CPU.
    fn writing_object_1(system: SystemKind) -> (ClientSite, Cx, TKey) {
        let (mut site, mut cx) = lone_site(system);
        let key = submit(&mut site, &mut cx, 1, vec![AccessSpec::write(ObjectId(1))]);
        cx.drain_deliveries();
        site.on_msg(
            &mut cx,
            Msg::GrantBatch {
                items: [(ObjectId(1), LockMode::Exclusive, true)]
                    .into_iter()
                    .collect(),
            },
        );
        (site, cx, key)
    }

    #[test]
    fn a_miss_goes_to_the_server_and_the_grant_starts_execution() {
        let (mut site, mut cx) = lone_site(SystemKind::ClientServer);
        let accesses = vec![
            AccessSpec::write(ObjectId(1)),
            AccessSpec::read(ObjectId(2)),
        ];
        let key = submit(&mut site, &mut cx, 1, accesses);
        assert_eq!(cx.inflight(), 1);
        // One batched request, to the server, for both objects.
        let sent = cx.drain_deliveries();
        let [(
            SiteDest::Server,
            Msg::RequestBatch {
                txn,
                client,
                wants,
                grant_all,
            },
        )] = &sent[..]
        else {
            panic!("expected one request batch, got {sent:?}");
        };
        assert_eq!((*txn, *client, *grant_all), (key, ClientId(0), false));
        let asked: Vec<_> = wants
            .iter()
            .map(|w| (w.object, w.mode, w.needs_data))
            .collect();
        assert_eq!(
            asked,
            vec![
                (ObjectId(1), LockMode::Exclusive, true),
                (ObjectId(2), LockMode::Shared, true)
            ]
        );
        assert_eq!(site.txns[&key].state, RunState::Acquiring);

        // Half the grant is not enough; the whole of it is.
        site.on_msg(
            &mut cx,
            Msg::GrantBatch {
                items: [(ObjectId(1), LockMode::Exclusive, true)]
                    .into_iter()
                    .collect(),
            },
        );
        assert_eq!(site.txns[&key].state, RunState::Acquiring);
        site.on_msg(
            &mut cx,
            Msg::GrantBatch {
                items: [(ObjectId(2), LockMode::Shared, true)]
                    .into_iter()
                    .collect(),
            },
        );
        assert_eq!(site.txns[&key].state, RunState::Executing);
        assert_eq!(
            site.cached_locks.get(ObjectId(1)),
            Some(&LockMode::Exclusive)
        );
        assert!(site.cache.contains(ObjectId(2)));
        assert!(cx.drain_deliveries().is_empty());

        // Commit: locks and copies stay cached, nothing goes on the wire.
        run_cpu(&mut site, &mut cx);
        assert_eq!(cx.inflight(), 0);
        assert!(site.txns.is_empty());
        assert!(cx.drain_deliveries().is_empty());
        assert_eq!(site.cached_locks().len(), 2);
    }

    #[test]
    fn a_recall_waits_for_the_local_writer_then_downgrades_for_a_reader() {
        let (mut site, mut cx, _) = writing_object_1(SystemKind::ClientServer);
        site.on_msg(
            &mut cx,
            Msg::Recall {
                object: ObjectId(1),
                desired: LockMode::Shared,
                forward: None,
            },
        );
        // The writer is still on the CPU: the answer waits for it.
        assert!(cx.drain_deliveries().is_empty());
        assert!(site.revokes.contains_key(&ObjectId(1)));

        run_cpu(&mut site, &mut cx);
        let sent = cx.drain_deliveries();
        assert!(
            matches!(
                &sent[..],
                [(
                    SiteDest::Server,
                    Msg::ObjectReturn {
                        object: ObjectId(1),
                        from: ClientId(0),
                        downgraded: true,
                        ..
                    }
                )]
            ),
            "{sent:?}"
        );
        // The new version went home; a shared lock and the copy stay.
        assert_eq!(site.cached_locks.get(ObjectId(1)), Some(&LockMode::Shared));
        assert!(site.cache.contains(ObjectId(1)));
        assert!(site.revokes.is_empty());
    }

    #[test]
    fn a_recall_for_a_writer_takes_an_idle_shared_copy_without_data() {
        let (mut site, mut cx) = lone_site(SystemKind::ClientServer);
        site.on_msg(
            &mut cx,
            Msg::GrantBatch {
                items: [(ObjectId(4), LockMode::Shared, true)]
                    .into_iter()
                    .collect(),
            },
        );
        site.on_msg(
            &mut cx,
            Msg::Recall {
                object: ObjectId(4),
                desired: LockMode::Exclusive,
                forward: None,
            },
        );
        let sent = cx.drain_deliveries();
        assert!(
            matches!(
                &sent[..],
                [(
                    SiteDest::Server,
                    Msg::CallbackAck {
                        object: ObjectId(4),
                        from: ClientId(0),
                        had_copy: true,
                        ..
                    }
                )]
            ),
            "{sent:?}"
        );
        assert_eq!(site.cached_locks.get(ObjectId(4)), None);
        assert!(!site.cache.contains(ObjectId(4)));

        // Recalled again (the ack was lost, say): nothing left to give.
        site.on_msg(
            &mut cx,
            Msg::Recall {
                object: ObjectId(4),
                desired: LockMode::Exclusive,
                forward: None,
            },
        );
        let sent = cx.drain_deliveries();
        assert!(
            matches!(
                &sent[..],
                [(
                    SiteDest::Server,
                    Msg::CallbackAck {
                        had_copy: false,
                        ..
                    }
                )]
            ),
            "{sent:?}"
        );
    }

    #[test]
    fn a_forwarded_object_moves_on_down_the_list_and_home_from_its_end() {
        let (mut site, mut cx) = lone_site(SystemKind::LoadSharing);
        let mut rest = ForwardList::new(ObjectId(5));
        rest.push(ForwardEntry {
            client: ClientId(2),
            txn: TransactionId::new(ClientId(2), 9),
            deadline: cx.now + SimDuration::from_secs(50),
            mode: LockMode::Exclusive,
        });
        // Nobody here wants the object any more: it hops on at once.
        site.on_msg(
            &mut cx,
            Msg::ObjectForward {
                from: SiteId::Server,
                object: ObjectId(5),
                mode: LockMode::Exclusive,
                rest,
            },
        );
        let sent = cx.drain_deliveries();
        let [(
            SiteDest::Client(ClientId(2)),
            Msg::ObjectForward {
                from,
                object,
                mode,
                rest,
            },
        )] = &sent[..]
        else {
            panic!("expected one hop to client 2, got {sent:?}");
        };
        assert_eq!(*from, SiteId::Client(site.id));
        assert_eq!((*object, *mode), (ObjectId(5), LockMode::Exclusive));
        assert!(rest.is_empty());
        assert_eq!(site.cached_locks.get(ObjectId(5)), None);
        assert!(!site.cache.contains(ObjectId(5)));

        // The last site on a list returns the object to the server.
        site.on_msg(
            &mut cx,
            Msg::ObjectForward {
                from: SiteId::Server,
                object: ObjectId(5),
                mode: LockMode::Exclusive,
                rest: ForwardList::new(ObjectId(5)),
            },
        );
        let sent = cx.drain_deliveries();
        assert!(
            matches!(
                &sent[..],
                [(
                    SiteDest::Server,
                    Msg::ObjectReturn {
                        object: ObjectId(5),
                        downgraded: false,
                        ..
                    }
                )]
            ),
            "{sent:?}"
        );
    }

    #[test]
    fn a_fence_drops_lock_copy_and_pending_revoke_together() {
        let (mut site, mut cx, _) = writing_object_1(SystemKind::ClientServer);
        run_cpu(&mut site, &mut cx); // commits: object 1 stays cached
        // A second writer runs on the cached lock, and a recall queues
        // behind it.
        let key = submit(&mut site, &mut cx, 2, vec![AccessSpec::write(ObjectId(1))]);
        assert_eq!(site.txns[&key].state, RunState::Executing);
        site.on_msg(
            &mut cx,
            Msg::Recall {
                object: ObjectId(1),
                desired: LockMode::Exclusive,
                forward: None,
            },
        );
        assert!(site.cached_locks.contains(ObjectId(1)));
        assert!(site.cache.contains(ObjectId(1)));
        assert!(site.revokes.contains_key(&ObjectId(1)));

        site.fence(&cx, ObjectId(1));
        assert!(!site.cached_locks.contains(ObjectId(1)));
        assert!(!site.cache.contains(ObjectId(1)));
        assert!(!site.revokes.contains_key(&ObjectId(1)));
        // The fence itself says nothing to anyone; killing the zombie does.
        assert!(cx.drain_deliveries().is_empty());
        site.abort_local_holders(&mut cx, ObjectId(1));
        assert!(site.txns.is_empty());
        assert_eq!(cx.inflight(), 0);
    }

    #[test]
    fn h2_prefers_the_site_holding_the_conflicting_locks() {
        let accesses = vec![
            AccessSpec::write(ObjectId(1)),
            AccessSpec::write(ObjectId(2)),
        ];
        let locations = [
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(5, LockMode::Exclusive)]),
        ]
        .concat();
        let (best, _) = h2(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(5));
    }

    #[test]
    fn h2_stays_home_without_strict_improvement() {
        let accesses = vec![AccessSpec::read(ObjectId(1))];
        // A shared lock elsewhere does not conflict with a read.
        let locations = loc(1, &[(5, LockMode::Shared)]);
        let (best, _) = h2(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(0));
    }

    #[test]
    fn h2_counts_conflicts_per_site() {
        let accesses = vec![
            AccessSpec::write(ObjectId(1)),
            AccessSpec::write(ObjectId(2)),
        ];
        // Client 5 holds obj1 EL; client 6 holds obj2 EL. Either site still
        // waits for one conflicting lock; origin waits for two. Tie between
        // 5 and 6 broken by id.
        let locations = [
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(6, LockMode::Exclusive)]),
        ]
        .concat();
        let (best, _) = h2(ClientId(0), &accesses, &locations, &[]);
        assert_eq!(best, ClientId(5));
    }

    #[test]
    fn h2_breaks_ties_by_load() {
        let accesses = vec![
            AccessSpec::write(ObjectId(1)),
            AccessSpec::write(ObjectId(2)),
        ];
        let locations = [
            loc(1, &[(5, LockMode::Exclusive)]),
            loc(2, &[(6, LockMode::Exclusive)]),
        ]
        .concat();
        let loads = vec![(ClientId(5), 10, 1.0), (ClientId(6), 1, 1.0)];
        let (best, _) = h2(ClientId(0), &accesses, &locations, &loads);
        assert_eq!(best, ClientId(6));
    }

    /// H2 as it was before `h2_choose` kept its scores and read flat rows:
    /// over one holder list per object, candidates collected, scored for
    /// the choice, the choice and the origin scored again, and — for the
    /// trace — candidates collected and scored once more.
    fn two_pass_h2(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
        loads: &[Load],
    ) -> (ClientId, Vec<(ClientId, usize)>) {
        let score = |site| -> usize {
            accesses
                .iter()
                .map(|a| {
                    let mode = a.mode();
                    locations
                        .iter()
                        .find(|(o, _)| *o == a.object)
                        .map_or(0, |(_, holders)| {
                            holders
                                .iter()
                                .filter(|(h, m)| *h != site && !m.compatible_with(mode))
                                .count()
                        })
                })
                .sum()
        };
        let load_of = |c: ClientId| {
            loads
                .iter()
                .find(|(id, _, _)| *id == c)
                .map_or(0, |&(_, l, _)| l)
        };
        let mut candidates: Vec<ClientId> = vec![origin];
        for (_, holders) in locations {
            for &(c, _) in holders {
                if !candidates.contains(&c) {
                    candidates.push(c);
                }
            }
        }
        let best = candidates
            .iter()
            .map(|&c| (score(c), load_of(c), c.0, c))
            .min()
            .map_or(origin, |(_, _, _, c)| c);
        let chosen = if score(best) < score(origin) {
            best
        } else {
            origin
        };
        let scored = candidates.into_iter().map(|c| (c, score(c))).collect();
        (chosen, scored)
    }

    #[test]
    fn h2_scored_once_matches_the_two_pass_reference() {
        let mut rng = siteselect_sim::Prng::seed_from_u64(0x4832);
        let mut spilled = 0;
        for _ in 0..3000 {
            let origin = ClientId(rng.below(4) as u16);
            let objects = 1 + rng.below_usize(8);
            let accesses: Vec<AccessSpec> = (0..objects)
                .map(|o| {
                    let object = ObjectId(o as u32);
                    if rng.bernoulli(0.4) {
                        AccessSpec::write(object)
                    } else {
                        AccessSpec::read(object)
                    }
                })
                .collect();
            // Up to 20 distinct holders, so a case can pass eight candidates.
            // An answer lists an object once, its holders maybe none, and
            // may list objects the transaction does not access.
            let mut locations: Vec<(ObjectId, Vec<(ClientId, LockMode)>)> = Vec::new();
            for _ in 0..objects {
                let object = ObjectId(rng.below(objects as u64 + 2) as u32);
                if locations.iter().any(|(o, _)| *o == object) {
                    continue;
                }
                let mut holders = Vec::new();
                for _ in 0..rng.below_usize(5) {
                    let mode = LockMode::for_write(rng.bernoulli(0.5));
                    holders.push((ClientId(rng.below(20) as u16), mode));
                }
                locations.push((object, holders));
            }
            let loads: Vec<Load> = (0..20)
                .map(|c| (ClientId(c), rng.below_usize(4), 1.0))
                .filter(|&(_, load, _)| load > 0)
                .collect();
            let rows: Vec<Holding> = locations
                .iter()
                .flat_map(|(o, holders)| {
                    let o = o.0;
                    holders.iter().flat_map(move |&(c, m)| loc(o, &[(c.0, m)]))
                })
                .collect();
            let (chosen, scored) = h2(origin, &accesses, &rows, &loads);
            let (want, want_scored) = two_pass_h2(origin, &accesses, &locations, &loads);
            assert_eq!(chosen, want);
            assert_eq!(scored, want_scored);
            spilled += usize::from(scored.len() > 8);
        }
        assert!(spilled > 50, "only {spilled} cases passed eight candidates");
    }

    #[test]
    fn grouping_by_location_respects_exclusive_holders() {
        let origin = ClientId(0);
        let accesses = vec![
            AccessSpec::read(ObjectId(1)),
            AccessSpec::read(ObjectId(2)),
            AccessSpec::write(ObjectId(3)),
            AccessSpec::read(ObjectId(4)),
        ];
        let locations = [
            loc(1, &[(5, LockMode::Shared), (6, LockMode::Exclusive)]),
            loc(2, &[(5, LockMode::Shared)]),
            loc(4, &[(6, LockMode::Shared), (5, LockMode::Shared)]),
        ]
        .concat();
        // obj1 -> client 6 (EL holder wins), obj2 -> client 5, obj3 ->
        // origin, obj4 -> client 6 (first holder); by site, in access order.
        assert_eq!(
            groups(origin, &accesses, &locations),
            vec![
                (ClientId(0), vec![AccessSpec::write(ObjectId(3))]),
                (ClientId(5), vec![AccessSpec::read(ObjectId(2))]),
                (
                    ClientId(6),
                    vec![AccessSpec::read(ObjectId(1)), AccessSpec::read(ObjectId(4))]
                ),
            ]
        );
    }

    #[test]
    fn unlisted_objects_default_to_origin() {
        assert_eq!(
            groups(ClientId(2), &[AccessSpec::read(ObjectId(9))], &[]),
            vec![(ClientId(2), vec![AccessSpec::read(ObjectId(9))])]
        );
    }

    /// Runs too small to ship, at a crashed site or past the fourth remote
    /// site go to the origin, which runs last and keeps their site order.
    #[test]
    fn small_and_surplus_runs_fold_into_the_origin() {
        let origin = ClientId(3);
        let accesses: Vec<AccessSpec> = (0..12).map(|o| AccessSpec::read(ObjectId(o))).collect();
        // Objects 0–1 at client 1, 2 at client 2, 3–4 at client 4 (down),
        // 5–6 at 5, 7–8 at 6, 9–10 at 7 and 11 at 8.
        let site_of = [1, 1, 2, 4, 4, 5, 5, 6, 6, 7, 7, 8];
        let locations: Vec<Holding> = site_of
            .iter()
            .enumerate()
            .flat_map(|(o, &c)| loc(o as u32, &[(c, LockMode::Shared)]))
            .collect();
        let mut placement = Vec::new();
        ClientSite::group_by_location(origin, &accesses, &locations, &mut placement);
        let remote = ClientSite::fold_into_origin(origin, &mut placement, |c| c != ClientId(4));
        assert_eq!(remote, 4);
        let at = |site: u16| -> Vec<u32> {
            placement
                .iter()
                .filter(|p| p.0 == ClientId(site))
                .map(|p| p.2.object.0)
                .collect()
        };
        assert_eq!(at(3), [2, 3, 4, 11]);
        for (site, objects) in [(1, [0, 1]), (5, [5, 6]), (6, [7, 8]), (7, [9, 10])] {
            assert_eq!(at(site), objects);
        }
    }

    /// Hands out what `cx` queued, as the driver would, until nothing is
    /// left: the server's traffic to the server (a load query with a load
    /// table from `cx`'s pool), the decision answers to `site`, and the
    /// server's finished disk reads to the wire. Grants to `site` and
    /// everything for another client are dropped, each recall noted in
    /// `recalled`: the round ends at the decision.
    fn exchange(
        cx: &mut Cx,
        server: &mut ServerSite,
        site: &mut ClientSite,
        recalled: &mut Vec<(ObjectId, ClientId)>,
    ) {
        while let Some((at, ev)) = cx.queue.pop() {
            cx.now = at;
            let mut msgs = match ev {
                Ev::Deliver { msgs, .. } => msgs,
                Ev::ServerFetchDone {
                    to,
                    item,
                    scheduled_at,
                    ..
                } => {
                    server.on_fetch_done(cx, to, item, scheduled_at);
                    continue;
                }
                _ => continue,
            };
            for msg in msgs.drain(..) {
                match msg {
                    Msg::LoadQuery { txn, objects } => {
                        let mut loads = cx.take_buf();
                        loads.push(site.load_report());
                        loads.extend((1..4).map(|c| (ClientId(c), 2, 1.0)));
                        server.on_load_query(cx, txn, objects, loads);
                    }
                    msg @ (Msg::RequestBatch { .. } | Msg::CancelWants { .. }) => {
                        server.on_msg(cx, msg);
                    }
                    msg @ (Msg::ConflictReport { .. } | Msg::LoadReply { .. }) => {
                        site.on_msg(cx, msg);
                    }
                    Msg::Recall { object, .. } => recalled.extend(
                        server
                            .core
                            .locks
                            .holders(object)
                            .filter(|&(c, _)| c != site.id)
                            .map(|(c, _)| (object, c)),
                    ),
                    _ => {}
                }
            }
            cx.queue.recycle(msgs);
        }
    }

    /// A warm LS decision round at client 0, against a live server site,
    /// allocates nothing but the access lists of the subtasks it builds.
    /// The round is a decomposition (load query and reply, placement, two
    /// remote subtasks and the origin's, whose grant-all goes out), a
    /// grant-all that draws a conflict report H2 answers with a ship, and
    /// an H1 rejection whose load reply H2 answers with a ship. Round `r`
    /// runs on objects `10r + 1..`; between rounds the client forgets its
    /// units and the recalled holders answer, so no state carries over
    /// but capacity.
    #[test]
    fn a_warm_ls_decision_round_allocates_only_the_subtask_specs() {
        use crate::counting_alloc::allocs;

        let mut cfg = ExperimentConfig::paper(SystemKind::LoadSharing, 4, 0.05);
        cfg.runtime.warmup = SimDuration::ZERO;
        let mut server = ServerSite::new(&cfg);
        let mut site = ClientSite::new(ClientId(0), &cfg.client, cfg.cpu.client_speed);
        let mut cx = Cx::new(cfg);
        // One job ahead of every newcomer, at H1's 1 s ATL prior.
        let forever = SimDuration::from_secs(1_000_000);
        let _ = site.cpu.submit(cx.now, u64::MAX, SimTime::MAX, forever);
        let mut recalled = Vec::with_capacity(16);
        let mut made = Vec::new();
        for round in 0..3u32 {
            let o = |i: u32| ObjectId(10 * round + i);
            // Client 1 holds objects 1, 2 and 6, client 2 objects 3 and 4.
            for (i, c) in [(1, 1), (2, 1), (6, 1), (3, 2), (4, 2)] {
                let held = server.core.locks.request(o(i), ClientId(c), LockMode::Exclusive, SimTime::MAX);
                assert_eq!(held, Acquire::Granted);
            }
            cx.now = SimTime::from_secs(100 * u64::from(round + 1));
            let now = cx.now;
            let spec = |seq: u64, objects: &[u32], slack_ms: u64, decomposable: bool| {
                TransactionSpec {
                    id: TransactionId::new(ClientId(0), 10 * u64::from(round) + seq),
                    origin: ClientId(0),
                    arrival: now,
                    deadline: now + SimDuration::from_millis(slack_ms),
                    cpu_demand: SimDuration::from_secs(1),
                    accesses: objects.iter().map(|&i| AccessSpec::write(o(i))).collect(),
                    decomposable,
                }
            };
            let specs = [
                spec(1, &[1, 2, 3, 4, 5], 100_000, true),
                spec(2, &[6, 7], 100_000, false),
                spec(3, &[6], 500, false),
            ];
            let before = allocs();
            for spec in specs {
                site.on_arrive(&mut cx, spec);
                exchange(&mut cx, &mut server, &mut site, &mut recalled);
            }
            made.push(allocs() - before);
            let ls = cx.metrics.load_sharing;
            let want = 2 * u64::from(round + 1);
            assert_eq!((ls.decomposed, ls.shipped, ls.h1_rejections), (want / 2, want, want / 2));
            site.txns.clear();
            site.fetches.clear();
            for (object, from) in recalled.drain(..) {
                let ack = Msg::CallbackAck {
                    object,
                    from,
                    had_copy: true,
                    sent_at: cx.now,
                };
                server.on_msg(&mut cx, ack);
            }
            cx.drain_deliveries();
        }
        assert_eq!(made[1..], [3, 3], "allocations per round: {made:?}");
    }

    /// Whether a unit of work is the site's own transaction, one shipped
    /// here or a subtask, and whether it commits, aborts or dies in a
    /// crash, it ends exactly once: one `UnitEnd`, and either it is
    /// settled at the origin or one result sent back to it.
    #[test]
    fn every_unit_ends_once_however_it_ends() {
        let origin = ClientId(1);
        for end in ["commit", "abort", "crash"] {
            for kind in ["normal", "shipped", "subtask"] {
                let (mut site, mut cx) = lone_site(SystemKind::ClientServer);
                cx.sink = siteselect_obs::EventSink::enabled(1 << 12);
                let now = cx.now;
                let spec = |seq| TransactionSpec {
                    id: TransactionId::new(origin, seq),
                    origin,
                    arrival: now,
                    deadline: now + SimDuration::from_secs(100),
                    cpu_demand: SimDuration::from_secs(1),
                    accesses: vec![AccessSpec::write(ObjectId(1))],
                    decomposable: false,
                };
                let key = match kind {
                    "normal" => submit(&mut site, &mut cx, 1, vec![AccessSpec::write(ObjectId(1))]),
                    "shipped" => {
                        let spec = spec(5);
                        let key = spec.id.as_u64();
                        site.on_msg(&mut cx, Msg::TxnShip { spec, sent_at: now });
                        key
                    }
                    _ => {
                        let parent = TransactionId::new(origin, 7).as_u64();
                        let ship = Msg::SubtaskShip {
                            parent,
                            index: 0,
                            origin,
                            spec: spec(7),
                            sent_at: now,
                        };
                        site.on_msg(&mut cx, ship);
                        subtask_key(parent, 0)
                    }
                };
                let settled = cx.settled;
                cx.drain_deliveries();
                let grant = || Msg::GrantBatch {
                    items: [(ObjectId(1), LockMode::Exclusive, true)]
                        .into_iter()
                        .collect(),
                };
                match end {
                    "commit" => {
                        site.on_msg(&mut cx, grant());
                        run_cpu(&mut site, &mut cx);
                    }
                    "abort" => site.on_msg(
                        &mut cx,
                        Msg::Rejected {
                            txn: key,
                            expired: false,
                        },
                    ),
                    _ => {
                        site.on_msg(&mut cx, grant());
                        site.on_crash(&mut cx);
                    }
                }
                let case = format!("{kind} unit ending by {end}");
                let results = cx
                    .drain_deliveries()
                    .iter()
                    .filter(|(to, m)| {
                        *to == SiteDest::Client(origin)
                            && matches!(m, Msg::TxnResult { .. } | Msg::SubtaskResult { .. })
                    })
                    .count();
                let settled = cx.settled - settled;
                assert_eq!(
                    (settled, results),
                    if kind == "normal" { (1, 0) } else { (0, 1) },
                    "{case}"
                );
                let trace = cx.sink.finish().expect("sink enabled");
                let ends = trace
                    .records
                    .iter()
                    .filter(|r| {
                        matches!(r.event, siteselect_obs::Event::UnitEnd { txn, .. } if txn.as_u64() == key)
                    })
                    .count();
                assert_eq!(ends, 1, "{case}");
                assert!(site.txns.is_empty(), "{case}");
            }
        }
    }
}
