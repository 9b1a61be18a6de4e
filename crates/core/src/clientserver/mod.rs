//! The one event-driven simulator of sites that exchange messages, for all
//! three systems: [`Simulator`] pops events and hands each to the site it
//! is for. Every site owns its state and acts through the shared `Cx`. In
//! CE-RTDBS the server is a `CentralizedServer` that runs every
//! transaction, and the clients are stateless terminals. In the
//! client-server real-time database (CS-RTDBS) and its load-sharing
//! extension (LS-CS-RTDBS) there is a `ClientSite` per workstation and one
//! `ServerSite`.
//!
//! The CS system implements the paper's §2 model: transactions execute at
//! client workstations, objects and their **locks** are cached across
//! transactions, the server keeps a global client-granularity lock table and
//! recalls (calls back) conflicting locks, downgrading an exclusive holder
//! to shared when the requester only reads. Clients schedule locally with
//! preemptive EDF and drop transactions whose deadlines have passed.
//!
//! The LS system (§3–4) adds, behind `config.load_sharing` flags:
//! * **H1** admission (`now + n·ATL ≤ deadline`), falling back to remote
//!   placement when the local queue is infeasible;
//! * **H2** site selection (fewest conflicting locks, load as tiebreak) fed
//!   by a grant-all-or-conflict-info first request round;
//! * **transaction shipping** over the directory server;
//! * **transaction decomposition** into parallel subtasks at the sites that
//!   cache the data;
//! * **object request scheduling** (deadline-ordered server queues, expired
//!   requests refused);
//! * **grouped locks**: collection windows + forward lists, with the
//!   client-to-client object hops that give the 2n+1 message economics.

mod client;
mod server;

use siteselect_locks::{ForwardEntry, ForwardList};
use siteselect_net::{Delivery, Fabric, MessageKind};
use siteselect_obs::{EventSink, SpanKind};
use siteselect_sim::{EventQueue, Prng};
use siteselect_types::{
    AbortReason, ClientId, ExperimentConfig, InlineVec, LockMode, ObjectId, SimDuration, SimTime,
    SiteId, SystemKind, TransactionId, TransactionSpec, TxnOutcome,
};
use siteselect_workload::Trace;

use self::client::ClientSite;
use self::server::ServerSite;
use crate::centralized::{self, CentralizedServer};
use crate::metrics::RunMetrics;
use crate::server_core::fabric_for;

/// Transaction/subtask key used across the simulator (subtask keys embed
/// the subtask index in otherwise-unused bits of the transaction id).
pub(crate) type TKey = u64;

/// Builds the key of subtask `index` of transaction key `parent`.
pub(crate) fn subtask_key(parent: TKey, index: u8) -> TKey {
    debug_assert_eq!(parent & (0xFF << 40), 0, "sequence bits 40..48 in use");
    parent | (u64::from(index) + 1) << 40
}

/// One requested object in a client→server request batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Want {
    pub object: ObjectId,
    pub mode: LockMode,
    /// False when the client still caches the data and only needs a
    /// stronger lock.
    pub needs_data: bool,
    /// Deadline of the earliest requesting transaction (drives the server's
    /// deadline-ordered request scheduling).
    pub deadline: SimTime,
}

/// One granted `(object, mode, with_data)` of a grant batch.
pub(crate) type GrantItem = (ObjectId, LockMode, bool);

/// One row of a server answer (a conflict report or a location reply):
/// `holder` holds `object` in `mode`, or, for an object travelling down a
/// forward chain, is the chain's tail and stands as its exclusive holder.
/// An answer lists an object's rows together, in lock-table order, and
/// its objects in the order they were asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Holding {
    pub object: ObjectId,
    pub holder: ClientId,
    pub mode: LockMode,
}

/// One client's row of the server's load table: the client, its incomplete
/// units of work and its average transaction latency (ATL).
pub(crate) type Load = (ClientId, usize, f64);

/// Emptied message buffers, one pool per element type: a site takes one
/// for each message it builds and the site that handles the message gives
/// it back, so a pool holds as many as were ever in flight at once.
#[derive(Debug, Default)]
pub(crate) struct BufPools {
    wants: Vec<Vec<Want>>,
    objects: Vec<Vec<ObjectId>>,
    holdings: Vec<Vec<Holding>>,
    loads: Vec<Vec<Load>>,
}

impl BufPools {
    /// Buffers kept for reuse, over every pool.
    fn spare(&self) -> usize {
        self.wants.len() + self.objects.len() + self.holdings.len() + self.loads.len()
    }
}

/// An element type whose message buffers [`Cx`] pools.
pub(crate) trait Pooled: Sized {
    /// The pool of this type's buffers.
    fn pool(pools: &mut BufPools) -> &mut Vec<Vec<Self>>;
}

impl Pooled for Want {
    fn pool(pools: &mut BufPools) -> &mut Vec<Vec<Self>> {
        &mut pools.wants
    }
}

impl Pooled for ObjectId {
    fn pool(pools: &mut BufPools) -> &mut Vec<Vec<Self>> {
        &mut pools.objects
    }
}

impl Pooled for Holding {
    fn pool(pools: &mut BufPools) -> &mut Vec<Vec<Self>> {
        &mut pools.holdings
    }
}

impl Pooled for Load {
    fn pool(pools: &mut BufPools) -> &mut Vec<Vec<Self>> {
        &mut pools.loads
    }
}

/// Messages exchanged between sites (the payload of `Ev::Deliver`).
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// Client → server: per-object requests of one transaction, physically
    /// batched. `grant_all` marks the LS first round ("grant everything or
    /// tell me who conflicts"). `wants`, like every buffer a message
    /// carries, comes from [`Cx::take_buf`] and goes back through
    /// [`Cx::recycle_buf`] at the site that handles the message.
    RequestBatch {
        txn: TKey,
        client: ClientId,
        wants: Vec<Want>,
        grant_all: bool,
    },
    /// Server → client: granted objects/locks of one batch (the server
    /// ships each grant as it becomes ready, so a batch of one is the rule).
    GrantBatch { items: InlineVec<GrantItem, 1> },
    /// Server → client: the LS grant-all round failed; here is who holds
    /// what (input to H2): the conflicting holders of each object that has
    /// some.
    ConflictReport { txn: TKey, conflicts: Vec<Holding> },
    /// Server → client: request refused (wait-for cycle or expired
    /// deadline).
    Rejected { txn: TKey, expired: bool },
    /// Server → client: give up your lock on `object`; `desired` lets an
    /// exclusive holder downgrade for a reader. A forward list rides along
    /// in the grouped-lock path.
    Recall {
        object: ObjectId,
        desired: LockMode,
        forward: Option<ForwardList>,
    },
    /// Client → server: object returned (with data). `downgraded` keeps a
    /// shared lock at the client. `sent_at` stamps the answer, so the
    /// server can tell one sent under a lease it has since reclaimed.
    ObjectReturn {
        object: ObjectId,
        from: ClientId,
        downgraded: bool,
        sent_at: SimTime,
    },
    /// Client → server: callback answered without data (copy was clean or
    /// already evicted; `had_copy` false means the forward list, if any,
    /// must be served by the server). `sent_at` as for `ObjectReturn`.
    CallbackAck {
        object: ObjectId,
        from: ClientId,
        had_copy: bool,
        sent_at: SimTime,
    },
    /// Client → server: these waiting requests died with their transaction.
    CancelWants {
        client: ClientId,
        objects: InlineVec<ObjectId, 4>,
    },
    /// Client → server: where are these objects, and how loaded is
    /// everyone? (H1/H2 and decomposition input.)
    LoadQuery { txn: TKey, objects: Vec<ObjectId> },
    /// Server → client: every holder of each queried object, and the load
    /// table.
    LoadReply {
        txn: TKey,
        locations: Vec<Holding>,
        loads: Vec<Load>,
    },
    /// Object hops down a forward list: server → client for the first hop
    /// (an object send), client → client (via directory) for the rest.
    /// `mode` is the receiver's granted mode; `rest` is the remainder of
    /// the list.
    ObjectForward {
        from: SiteId,
        object: ObjectId,
        mode: LockMode,
        rest: ForwardList,
    },
    /// Client → client (via directory): a whole transaction moves.
    /// `sent_at` stamps the ship decision so delivery can span the travel.
    TxnShip {
        spec: TransactionSpec,
        sent_at: SimTime,
    },
    /// CE terminal → server: transaction `index` of `Cx::specs`, to run
    /// there, with what a lost submission needs to be scored.
    TxnSubmit {
        index: u32,
        txn: TransactionId,
        arrival: SimTime,
        deadline: SimTime,
    },
    /// Outcome of a transaction that ran away from its origin, back to the
    /// origin: client → client (via directory) for a shipped one, CE server
    /// → terminal for every CE commit. It carries what the origin needs to
    /// score it at delivery time; `sent_at` stamps the remote commit so
    /// delivery can span the return hop.
    TxnResult {
        from: SiteId,
        txn: TransactionId,
        committed: bool,
        deadline: SimTime,
        arrival: SimTime,
        sent_at: SimTime,
    },
    /// Client → client (via directory): one subtask of a decomposed
    /// transaction. `sent_at` stamps the decomposition decision.
    SubtaskShip {
        parent: TKey,
        index: u8,
        origin: ClientId,
        spec: TransactionSpec,
        sent_at: SimTime,
    },
    /// Client → client (via directory): subtask outcome; `sent_at` stamps
    /// the subtask's completion at the remote site.
    SubtaskResult {
        from: ClientId,
        parent: TKey,
        ok: bool,
        sent_at: SimTime,
    },
}

impl Msg {
    /// For a message about one unit of work: the unit, the span its trip
    /// adds to it, and when the trip began. A submitted or shipped
    /// transaction or a subtask travels as `Net`; an outcome comes back as
    /// `Commit`.
    pub(crate) fn trip(&self) -> Option<(TransactionId, SpanKind, SimTime)> {
        let (unit, kind, sent_at) = match *self {
            Msg::TxnShip { ref spec, sent_at } => (spec.id.as_u64(), SpanKind::Net, sent_at),
            Msg::TxnSubmit { txn, arrival, .. } => (txn.as_u64(), SpanKind::Net, arrival),
            Msg::SubtaskShip {
                parent,
                index,
                sent_at,
                ..
            } => (subtask_key(parent, index), SpanKind::Net, sent_at),
            Msg::TxnResult { txn, sent_at, .. } => (txn.as_u64(), SpanKind::Commit, sent_at),
            Msg::SubtaskResult {
                parent, sent_at, ..
            } => (parent, SpanKind::Commit, sent_at),
            _ => return None,
        };
        Some((TransactionId::from_raw(unit), kind, sent_at))
    }

    /// The site that sent this message and the kind the fabric counts it
    /// as: the one record of both for a client's sends, and what a scripted
    /// run reports. (The server names the kind itself: it builds a message
    /// only once the fabric has taken it.) A load query or a shipped
    /// transaction comes from its origin: only a transaction that runs
    /// where it arrived asks or ships.
    fn route(&self) -> (SiteId, MessageKind) {
        use MessageKind as K;
        let (server, client) = (SiteId::Server, SiteId::Client);
        match *self {
            Msg::RequestBatch { client: c, .. } | Msg::CancelWants { client: c, .. } => {
                (client(c), K::ObjectRequest)
            }
            Msg::GrantBatch { ref items } if items.iter().any(|i| i.2) => (server, K::ObjectSend),
            Msg::GrantBatch { .. } => (server, K::LockGrant),
            Msg::ConflictReport { .. } | Msg::Rejected { .. } => (server, K::ConflictInfo),
            Msg::Recall { .. } => (server, K::Recall),
            Msg::ObjectReturn { from, .. } => (client(from), K::ObjectReturn),
            Msg::CallbackAck { from, .. } => (client(from), K::CallbackAck),
            Msg::LoadQuery { txn, .. } => {
                (client(TransactionId::from_raw(txn).origin()), K::LoadQuery)
            }
            Msg::LoadReply { .. } => (server, K::LoadReply),
            Msg::ObjectForward { from, .. } if from == server => (from, K::ObjectSend),
            Msg::ObjectForward { from, .. } => (from, K::ObjectForward),
            Msg::TxnShip { ref spec, .. } => (client(spec.origin), K::TxnShip),
            Msg::TxnSubmit { txn, .. } => (client(txn.origin()), K::TxnSubmit),
            Msg::TxnResult { from, .. } if from == server => (from, K::TxnResult),
            Msg::TxnResult { from, .. } => (from, K::TxnShipResult),
            Msg::SubtaskShip { origin, .. } => (client(origin), K::SubtaskShip),
            Msg::SubtaskResult { from, .. } => (client(from), K::SubtaskResult),
        }
    }
}

/// One message a scripted run ([`Simulator::run_script`]) delivered: when,
/// from and to which site, and what the fabric counted it as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    pub at: SimTime,
    pub from: SiteId,
    pub to: SiteId,
    pub kind: MessageKind,
}

/// Simulator events.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A transaction is initiated at its origin client.
    Arrive(usize),
    /// One or more messages reach `to` at the same instant. Messages that
    /// share a delivery time and destination ride in one event (batched
    /// fabric delivery); the vector is pooled by [`ClusterQueue`].
    Deliver { to: SiteDest, msgs: Vec<Msg> },
    /// A client CPU completion tick.
    ClientCpu { client: usize, generation: u64 },
    /// A client's disk-tier cache promotion finished. `scheduled_at` is
    /// when the I/O was issued (start of the disk span).
    ClientDiskReady {
        client: usize,
        txn: TKey,
        object: ObjectId,
        scheduled_at: SimTime,
    },
    /// Server finished fetching a granted object from disk. `txn` /
    /// `scheduled_at` attribute the disk span to the requesting
    /// transaction.
    ServerFetchDone {
        to: ClientId,
        txn: TKey,
        item: GrantItem,
        scheduled_at: SimTime,
    },
    /// A grouped-lock collection window closed.
    WindowClose { object: ObjectId },
    /// CE: the server's buffer/disk reads for transaction `txn` finished.
    ServerIo { txn: TKey },
    /// CE: a server CPU completion tick.
    ServerCpu { generation: u64 },
    /// Statistics window opens.
    EndWarmup,
    /// Periodic pruning of expired transactions and waiters.
    Sweep,
    /// Fault injection: a client site crashes (from the pre-generated
    /// schedule).
    SiteCrash { client: usize },
    /// Fault injection: a crashed client site comes back up, cold.
    SiteRecover { client: usize },
    /// Fault injection: the server crashes (from the pre-generated
    /// schedule). Volatile state is lost; the durable store survives.
    ServerCrash,
    /// The server finished log replay and rejoins.
    ServerRecover,
    /// Failure handling: check whether a fetch is still unanswered and
    /// retransmit its request (capped exponential backoff).
    RetryFetch {
        client: usize,
        object: ObjectId,
        /// The retry round this event belongs to (stale events mismatch).
        attempt: u32,
        /// Issue time of the fetch this retry guards (stale events
        /// mismatch).
        sent_at: SimTime,
    },
}

/// Delivery destination (server or a client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteDest {
    Server,
    Client(ClientId),
}

/// The simulator's event queue plus a one-slot staging buffer that batches
/// fabric deliveries: consecutive messages bound for the same destination
/// at the same instant are pushed as one `Ev::Deliver` carrying the whole
/// group, so a burst on one link costs one queue operation instead of one
/// per message.
///
/// Ordering is preserved exactly: the staged group is flushed before any
/// other push (so an unrelated same-timestamp event can never be reordered
/// around it) and before every pop. Group vectors are recycled through a
/// pool that grows to the peak number of groups in flight at once (every
/// one of them is an event in the queue, so the queue bounds it), keeping
/// steady-state delivery scheduling off the allocator.
pub(crate) struct ClusterQueue {
    q: EventQueue<Ev>,
    staged_at: SimTime,
    staged_to: SiteDest,
    staged: Vec<Msg>,
    pool: Vec<Vec<Msg>>,
}

impl ClusterQueue {
    fn new() -> Self {
        ClusterQueue {
            q: EventQueue::new(),
            staged_at: SimTime::ZERO,
            staged_to: SiteDest::Server,
            staged: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Pushes any staged delivery group as one event.
    fn flush(&mut self) {
        if !self.staged.is_empty() {
            let msgs = std::mem::replace(&mut self.staged, self.pool.pop().unwrap_or_default());
            self.q.push(
                self.staged_at,
                Ev::Deliver {
                    to: self.staged_to,
                    msgs,
                },
            );
        }
    }

    /// Stages a message delivery, merging it into the current group when
    /// the `(time, destination)` matches.
    pub(crate) fn stage_delivery(&mut self, at: SimTime, to: SiteDest, msg: Msg) {
        if !self.staged.is_empty() && (self.staged_at != at || self.staged_to != to) {
            self.flush();
        }
        self.staged_at = at;
        self.staged_to = to;
        self.staged.push(msg);
    }

    /// Returns a drained group vector to the pool for reuse.
    pub(crate) fn recycle(&mut self, mut msgs: Vec<Msg>) {
        msgs.clear();
        self.pool.push(msgs);
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev) {
        self.flush();
        self.q.push(at, ev);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.flush();
        self.q.pop()
    }

    /// Pops the next event if it is due at or before `t`.
    fn pop_before(&mut self, t: SimTime) -> Option<(SimTime, Ev)> {
        self.flush();
        self.q.pop_before(t)
    }

    /// When the next event is due.
    fn peek_time(&self) -> Option<SimTime> {
        let staged = (!self.staged.is_empty()).then_some(self.staged_at);
        self.q.peek_time().into_iter().chain(staged).min()
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len() + usize::from(!self.staged.is_empty())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a site's handlers may touch besides the site's own state: the
/// clock, the event queue, the fabric, the run's metrics and trace sink,
/// and the experiment's inputs. A [`ClientSite`] or the [`ServerSite`] acts
/// with `&mut self` and a `&mut Cx` and nothing else, so the type system —
/// not convention — says a client cannot see the server or a peer.
pub(crate) struct Cx {
    pub cfg: ExperimentConfig,
    /// True for LS-CS-RTDBS.
    pub ls: bool,
    pub now: SimTime,
    pub queue: ClusterQueue,
    pub fabric: Fabric,
    pub metrics: RunMetrics,
    pub sink: EventSink,
    pub specs: Vec<TransactionSpec>,
    /// The emptied buffers that messages carry, for the next message.
    bufs: BufPools,
    /// Transactions submitted here (parents of decompositions count
    /// too) and transactions settled here. Their difference is what is in
    /// flight, and the sweep keeps ticking until it drains. A CE abort is
    /// settled at the server, so in a one-site simulator the two count
    /// only this site's share.
    pub arrived: u64,
    pub settled: u64,
    pub warmup_end: SimTime,
    /// True if `cfg.faults.injects_faults()`. Every fault code path is
    /// gated on it, so a default run schedules no fault events and draws no
    /// fault randomness.
    pub faults_active: bool,
    /// In-flight deliveries refused at a crashed site's door (fabric-level
    /// drops are counted by the fabric itself).
    pub refused: u64,
    /// Objects whose client-to-client forward hop was lost in transit and
    /// whose chain the server has yet to hear is broken (the simulation's
    /// shortcut for the timeout a real server would run).
    lost_forwards: Vec<ObjectId>,
    /// The one site a one-site simulator runs (`None`: every site is
    /// here). A message for any other site leaves through `outbound`.
    local: Option<SiteDest>,
    /// Messages for other sites, with their fabric delivery times, in send
    /// order.
    outbound: Vec<(SiteDest, SimTime, Msg)>,
}

impl Cx {
    pub(crate) fn new(cfg: ExperimentConfig) -> Self {
        Cx {
            ls: cfg.system == SystemKind::LoadSharing,
            now: SimTime::ZERO,
            queue: ClusterQueue::new(),
            fabric: fabric_for(&cfg),
            metrics: RunMetrics::new(
                cfg.system,
                cfg.clients,
                cfg.workload.update_fraction,
                cfg.runtime.seed,
            ),
            sink: EventSink::disabled(),
            specs: Vec::new(),
            bufs: BufPools::default(),
            arrived: 0,
            settled: 0,
            warmup_end: SimTime::ZERO + cfg.runtime.warmup,
            faults_active: cfg.faults.injects_faults(),
            refused: 0,
            lost_forwards: Vec::new(),
            local: None,
            outbound: Vec::new(),
            cfg,
        }
    }

    /// Transactions submitted here and not yet settled.
    pub(crate) fn inflight(&self) -> u64 {
        self.arrived - self.settled
    }

    /// An empty message buffer, a recycled one if any is spare.
    pub(crate) fn take_buf<T: Pooled>(&mut self) -> Vec<T> {
        T::pool(&mut self.bufs).pop().unwrap_or_default()
    }

    /// Takes a message buffer back once its message is handled (or was
    /// never sent).
    pub(crate) fn recycle_buf<T: Pooled>(&mut self, mut buf: Vec<T>) {
        let one_site = self.local.is_some();
        let pool = T::pool(&mut self.bufs);
        // A one-site simulator's buffers cross to another thread and never
        // come back, so it keeps one spare, not one per message it is sent.
        if buf.capacity() == 0 || (one_site && !pool.is_empty()) {
            return;
        }
        buf.clear();
        pool.push(buf);
    }

    /// True unless fault injection has `client` currently crashed.
    pub(crate) fn site_up(&self, client: ClientId) -> bool {
        self.fabric.site_up(SiteId::Client(client))
    }

    /// Client-to-server traffic: one frame carrying `logical` per-object
    /// messages and `objects` payloads, from the sender and counted as the
    /// kind [`Msg::route`] names.
    pub(crate) fn send_to_server(&mut self, objects: u32, logical: u32, msg: Msg) {
        let (from, kind) = msg.route();
        let delivery =
            self.fabric
                .try_send_counted(self.now, from, SiteId::Server, kind, objects, logical);
        self.push_delivery(delivery, SiteDest::Server, msg);
    }

    /// Client-to-client traffic, through the directory server when one is
    /// configured; sender and kind as for [`send_to_server`](Self::send_to_server).
    pub(crate) fn send_to_peer(&mut self, to: ClientId, objects: u32, msg: Msg) {
        let ((from, kind), to_site) = (msg.route(), SiteId::Client(to));
        let delivery = if self.cfg.load_sharing.directory_enabled {
            self.fabric
                .try_send_via_directory(self.now, from, to_site, kind, objects)
        } else {
            self.fabric.try_send(self.now, from, to_site, kind, objects)
        };
        self.push_delivery(delivery, SiteDest::Client(to), msg);
    }

    /// Server-to-client traffic. A server message the fabric loses is the
    /// receiver's to recover (by a retry, the callback lease or the
    /// deadline sweep), so a loss settles nothing here, and `msg` is built
    /// only for a message that will arrive. Returns whether it will.
    pub(crate) fn send_to_client(
        &mut self,
        to: ClientId,
        kind: MessageKind,
        objects: u32,
        msg: impl FnOnce() -> Msg,
    ) -> bool {
        let (from, dest) = (SiteId::Server, SiteId::Client(to));
        let delivery = self
            .fabric
            .try_send_counted(self.now, from, dest, kind, objects, 1);
        let Delivery::Delivered(at) = delivery else {
            return false;
        };
        self.stage(at, SiteDest::Client(to), msg());
        true
    }

    /// Schedules (or accounts for the loss of) a fault-aware send.
    pub(crate) fn push_delivery(&mut self, delivery: Delivery, to: SiteDest, msg: Msg) {
        match delivery {
            Delivery::Delivered(t) => self.stage(t, to, msg),
            Delivery::Dropped => self.on_dropped_delivery(msg),
        }
    }

    /// Queues `msg` for delivery at `at`, or hands it to the driver when
    /// `to` is a site this simulator does not run.
    fn stage(&mut self, at: SimTime, to: SiteDest, msg: Msg) {
        if self.local.is_none_or(|here| here == to) {
            self.queue.stage_delivery(at, to, msg);
        } else {
            self.outbound.push((to, at, msg));
        }
    }

    /// Accounting for a message that will never arrive. Most losses are
    /// recovered by retries, leases or deadline sweeps; the ones that carry
    /// a transaction (or the only record of one) must settle its outcome
    /// here or `inflight` leaks and the run never drains.
    pub(crate) fn on_dropped_delivery(&mut self, msg: Msg) {
        let lost = Some(AbortReason::SiteCrash);
        match msg {
            // The travelling transaction is gone; its origin's timeout
            // scores it as a crash loss.
            Msg::TxnShip { spec, .. } => self.settle(spec.id, spec.arrival, spec.deadline, lost),
            // The transaction never reached the server, or its origin can
            // no longer learn the outcome (it crashed, or the result was
            // lost): settle it now.
            Msg::TxnSubmit {
                txn,
                arrival,
                deadline,
                ..
            }
            | Msg::TxnResult {
                txn,
                arrival,
                deadline,
                ..
            } => self.settle(txn, arrival, deadline, lost),
            // The object died in transit: the driver tells the server its
            // chain is broken before the server next acts.
            Msg::ObjectForward { object, .. } => self.lost_forwards.push(object),
            // The request is re-driven by its retry timer; its buffer goes
            // back to the pool the retry takes from.
            Msg::RequestBatch { wants, .. } => self.recycle_buf(wants),
            // A lost answer or query is recovered by the deadline sweep;
            // its buffers go back to their pools.
            Msg::ConflictReport { conflicts, .. } => self.recycle_buf(conflicts),
            Msg::LoadQuery { objects, .. } => self.recycle_buf(objects),
            Msg::LoadReply {
                locations, loads, ..
            } => {
                self.recycle_buf(locations);
                self.recycle_buf(loads);
            }
            // Everything else is recovered by retries (requests/grants),
            // leases (recalls/acks/returns) or the deadline sweeps
            // (subtask traffic).
            _ => {}
        }
    }

    /// Settles transaction `txn` at its origin: it leaves `inflight` and,
    /// if it arrived inside the measurement window, is scored — a commit
    /// (`aborted` is `None`) in time or late against `deadline`, otherwise
    /// as aborted.
    pub(crate) fn settle(
        &mut self,
        txn: TransactionId,
        arrival: SimTime,
        deadline: SimTime,
        aborted: Option<AbortReason>,
    ) {
        self.settled += 1;
        if !self.measured_arrival(arrival) {
            return;
        }
        let (sink, now, site) = (&self.sink, self.now, SiteId::Client(txn.origin()));
        match aborted {
            None => {
                self.metrics
                    .record_commit(sink, now, site, txn, deadline, arrival);
            }
            Some(reason) => {
                let outcome = TxnOutcome::Aborted(reason);
                self.metrics.record(sink, now, site, txn, outcome);
            }
        }
    }

    pub(crate) fn measured_arrival(&self, arrival: SimTime) -> bool {
        arrival >= self.warmup_end
    }

    /// Pops the next entry of `list` that can still be served: expired
    /// requesters are skipped, and (failure handling) so are crashed ones,
    /// since forwarding to a dead site would strand the object.
    pub(crate) fn pop_live(&self, list: &mut ForwardList) -> Option<ForwardEntry> {
        loop {
            match list.pop_next_live(self.now).0 {
                Some(e) if !self.site_up(e.client) => {}
                next => return next,
            }
        }
    }
}

/// The run's database server site.
enum ServerKind {
    /// CE: runs every transaction itself.
    Centralized(CentralizedServer),
    /// CS/LS: ships objects and calls back cached locks.
    ClientServer(ServerSite),
    /// A one-site simulator of a client: the server runs elsewhere.
    Remote,
}

impl ServerKind {
    fn new(cfg: &ExperimentConfig) -> Self {
        if cfg.system == SystemKind::Centralized {
            ServerKind::Centralized(CentralizedServer::new(cfg))
        } else {
            ServerKind::ClientServer(ServerSite::new(cfg))
        }
    }
}

/// A message from one site of a one-site simulator to another, as a
/// driver carries it between threads: opaque, and `Send`. A client's
/// parcel piggybacks its load report, which is how the server's load table
/// stays current (§4) when the clients are not beside it.
#[derive(Debug)]
pub struct Parcel {
    msg: Msg,
    load: Option<Load>,
}

impl Parcel {
    /// True for a callback (lock recall) from the server.
    #[must_use]
    pub fn is_recall(&self) -> bool {
        matches!(self.msg, Msg::Recall { .. })
    }
}

/// The discrete-event simulator of all three systems: the client sites (none
/// in CE, whose terminals keep no state), the server site and what they
/// share. It pops events and hands each to the site it is for; the few
/// things one site needs of another without a message (the load table, a
/// lease fence, lock revalidation after a server restart) are loops here,
/// between the sites, not inside one.
///
/// A one-site simulator ([`Simulator::site`]) runs a single site of the
/// same cluster with the same handlers. It has no clock and no threads: a
/// driver steps it with [`run_until`](Self::run_until), carries what
/// [`take_outbound`](Self::take_outbound) returns to the other sites and
/// hands it to them with [`accept`](Self::accept).
pub struct Simulator {
    cx: Cx,
    clients: Vec<ClientSite>,
    /// Index of `clients[0]`: the client's own in a one-site simulator.
    first: usize,
    server: ServerKind,
    /// A one-site server's load table: the last report each client
    /// piggybacked, by client index.
    loads: Vec<Option<Load>>,
}

impl Simulator {
    /// Builds the simulator for `cfg`; `cfg.system` selects the system.
    #[must_use]
    pub fn new(cfg: ExperimentConfig) -> Self {
        let clients = if cfg.system == SystemKind::Centralized {
            Vec::new()
        } else {
            (0..cfg.clients)
                .map(|i| ClientSite::new(ClientId(i), &cfg.client, cfg.cpu.client_speed))
                .collect()
        };
        Simulator {
            clients,
            first: 0,
            server: ServerKind::new(&cfg),
            loads: Vec::new(),
            cx: Cx::new(cfg),
        }
    }

    /// A one-site simulator of `site` (the server or a client) in `cfg`'s
    /// cluster, fault-free (fault injection is the whole cluster's), over
    /// the run's transactions `specs`. Every site holds the same list, so
    /// a CE submission can name its transaction by index; a client submits
    /// the ones it originates.
    #[must_use]
    pub fn site(mut cfg: ExperimentConfig, site: SiteId, specs: Vec<TransactionSpec>) -> Self {
        cfg.faults = siteselect_types::FaultConfig::default();
        let local = match site {
            SiteId::Client(c) => SiteDest::Client(c),
            SiteId::Server | SiteId::Directory => SiteDest::Server,
        };
        let (clients, first, server, loads) = match local {
            SiteDest::Client(c) => {
                let client = (cfg.system != SystemKind::Centralized)
                    .then(|| ClientSite::new(c, &cfg.client, cfg.cpu.client_speed));
                let clients = client.into_iter().collect();
                (clients, c.index(), ServerKind::Remote, Vec::new())
            }
            SiteDest::Server => {
                let loads = vec![None; usize::from(cfg.clients)];
                (Vec::new(), 0, ServerKind::new(&cfg), loads)
            }
        };
        let mut cx = Cx::new(cfg);
        cx.local = Some(local);
        let mut sim = Simulator {
            cx,
            clients,
            first,
            server,
            loads,
        };
        sim.seed(specs);
        sim
    }

    /// The transactions `cfg`'s run submits: its generated trace.
    #[must_use]
    pub fn transactions(cfg: &ExperimentConfig) -> Vec<TransactionSpec> {
        Trace::generate(
            &cfg.workload,
            cfg.cpu.txn_cpu_fraction,
            cfg.database.num_objects,
            cfg.clients,
            cfg.runtime.duration,
            cfg.runtime.seed,
        )
        .into_transactions()
    }

    /// When the next event of this simulator is due, if any.
    #[must_use]
    pub fn next_at(&self) -> Option<SimTime> {
        self.cx.queue.peek_time()
    }

    /// Handles every event due at or before `t` and advances the clock to
    /// `t` (never back).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, ev)) = self.cx.queue.pop_before(t) {
            self.cx.now = at;
            self.handle(ev);
        }
        self.cx.now = self.cx.now.max(t);
    }

    /// Takes in a parcel another site sent here, for delivery at its
    /// fabric delivery time `at`, but never before this site's clock.
    pub fn accept(&mut self, at: SimTime, parcel: Parcel) {
        if let Some(load @ (c, ..)) = parcel.load {
            if let Some(slot) = self.loads.get_mut(c.index()) {
                *slot = Some(load);
            }
        }
        let to = self.cx.local.unwrap_or(SiteDest::Server);
        let at = at.max(self.cx.now);
        self.cx.queue.stage_delivery(at, to, parcel.msg);
    }

    /// Drains the messages sent to other sites since the last call, in
    /// send order: each one's destination, fabric delivery time and
    /// parcel.
    pub fn take_outbound(&mut self) -> impl Iterator<Item = (SiteId, SimTime, Parcel)> + '_ {
        let load = self.clients.first().map(ClientSite::load_report);
        self.cx.outbound.drain(..).map(move |(to, at, msg)| {
            let to = match to {
                SiteDest::Server => SiteId::Server,
                SiteDest::Client(c) => SiteId::Client(c),
            };
            (to, at, Parcel { msg, load })
        })
    }

    /// Transactions settled at this site so far.
    #[must_use]
    pub fn settled(&self) -> u64 {
        self.cx.settled
    }

    /// Emptied message buffers this simulator keeps for reuse. A one-site
    /// simulator keeps at most one of each kind, however many messages it
    /// was sent: what crosses to another site never comes back.
    #[must_use]
    pub fn spare_buffers(&self) -> usize {
        self.cx.bufs.spare()
    }

    /// Enables event tracing: the sink is shared with the fabric and the
    /// server's window/callback managers so every layer stamps the same
    /// timeline.
    pub fn attach_sink(&mut self, sink: EventSink) {
        self.cx.fabric.set_sink(sink.clone());
        if let ServerKind::ClientServer(server) = &mut self.server {
            server.attach_sink(&sink);
        }
        self.cx.sink = sink;
    }

    /// Runs the experiment to completion and returns its metrics.
    #[must_use]
    pub fn run(mut self) -> RunMetrics {
        self.prepare();
        while self.step() {}
        self.finalize()
    }

    /// Generates the trace and seeds the event queue. Split out of
    /// [`run`](Self::run) so harnesses can pump events one at a time (the
    /// steady-state allocation test snapshots the allocator between steps).
    pub fn prepare(&mut self) {
        let specs = Self::transactions(&self.cx.cfg);
        self.seed(specs);
    }

    /// Seeds the event queue with `specs`, which run in place of a
    /// generated trace: their arrivals, the end of the warm-up, the first
    /// sweep and the fault schedule.
    fn seed(&mut self, specs: Vec<TransactionSpec>) {
        self.cx.specs = specs;
        let local = self.cx.local;
        for (i, spec) in self.cx.specs.iter().enumerate() {
            if local.is_none_or(|here| here == SiteDest::Client(spec.origin)) {
                self.cx.queue.push(spec.arrival, Ev::Arrive(i));
            }
        }
        if self.cx.faults_active {
            self.schedule_faults();
        }
        let warmup_end = self.cx.warmup_end;
        self.cx.queue.push(warmup_end, Ev::EndWarmup);
        // CE sweeps from the end of the warm-up (DESIGN.md §15).
        let ce = self.cx.cfg.system == SystemKind::Centralized;
        let floor = if ce { warmup_end } else { SimTime::ZERO };
        let first_sweep = floor.max(SimTime::from_secs(1));
        self.cx.queue.push(first_sweep, Ev::Sweep);
    }

    /// Runs a hand-written script: `specs`, in arrival order, take the place
    /// of the generated trace. Returns the run's metrics and every message
    /// delivered, in delivery order.
    #[must_use]
    pub fn run_script(mut self, specs: Vec<TransactionSpec>) -> (RunMetrics, Vec<Delivered>) {
        self.seed(specs);
        let mut delivered = Vec::new();
        while let Some((t, ev)) = self.cx.queue.pop() {
            if let Ev::Deliver { to, msgs } = &ev {
                let to = match *to {
                    SiteDest::Server => SiteId::Server,
                    SiteDest::Client(c) => SiteId::Client(c),
                };
                delivered.extend(msgs.iter().map(|msg| {
                    let (from, kind) = msg.route();
                    Delivered {
                        at: t,
                        from,
                        to,
                        kind,
                    }
                }));
            }
            self.cx.now = t;
            self.handle(ev);
        }
        (self.finalize(), delivered)
    }

    /// Processes the next event; returns `false` once the queue is drained.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.cx.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.cx.now, "time went backwards");
        self.cx.now = t;
        self.handle(ev);
        true
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.cx.now
    }

    /// Closes out the run and returns its metrics.
    #[must_use]
    pub fn finalize(self) -> RunMetrics {
        let (mut cx, clients) = (self.cx, self.clients);
        debug_assert!(clients.iter().all(|c| c.check_invariants() == Ok(())));
        let span = cx.now.duration_since(SimTime::ZERO).as_secs_f64().max(1e-9);
        match self.server {
            ServerKind::Centralized(server) => server.finalize(&mut cx, span),
            // A one-site terminal or client reports what it sent and how
            // busy its CPU was, for the threaded cluster to add up with the
            // server's.
            ServerKind::Remote => {
                cx.metrics.messages = cx.fabric.stats().clone();
                cx.metrics.client_cpu_utilization = client_utilization(&clients, span);
            }
            ServerKind::ClientServer(server) => {
                debug_assert_eq!(server.core.locks.check_invariants(), Ok(()));
                debug_assert_eq!(server.check_invariants(), Ok(()));
                cx.metrics.client_cpu_utilization = client_utilization(&clients, span);
                cx.metrics.load_sharing.windows_opened = server.windows_opened();
                server.core.report_faults(&mut cx);
            }
        }
        cx.metrics
    }

    /// Pre-generates the whole fault schedule (crashes, recoveries and
    /// slow-disk episodes) from seed-derived PRNG streams, so two runs with
    /// the same seed inject identical faults regardless of workload
    /// interleaving. Each server site owns its crash schedule.
    fn schedule_faults(&mut self) {
        let f = self.cx.cfg.faults;
        let end = SimTime::ZERO + self.cx.cfg.runtime.duration;
        if !f.mean_time_to_crash.is_zero() {
            let crash_base = Prng::seed_from_u64(self.cx.cfg.runtime.seed).derive(0xFA_C2);
            for ci in 0..self.clients.len() {
                let mut prng = crash_base.derive(ci as u64);
                let mut t = SimTime::ZERO;
                loop {
                    t += prng.exp_duration(f.mean_time_to_crash);
                    if t >= end {
                        break;
                    }
                    self.cx.queue.push(t, Ev::SiteCrash { client: ci });
                    if f.mean_recovery_time.is_zero() {
                        break; // this site stays down for the rest of the run
                    }
                    t += prng.exp_duration(f.mean_recovery_time);
                    if t >= end {
                        break;
                    }
                    self.cx.queue.push(t, Ev::SiteRecover { client: ci });
                }
            }
        }
        match &mut self.server {
            ServerKind::Centralized(server) => server.schedule_faults(&mut self.cx),
            ServerKind::ClientServer(server) => server.schedule_faults(&mut self.cx),
            ServerKind::Remote => {}
        }
    }

    /// Runs `f` on client `i` with the shared context, then passes on to
    /// the server any forward chain the client's sends found broken.
    fn on_client<R>(&mut self, i: usize, f: impl FnOnce(&mut ClientSite, &mut Cx) -> R) -> R {
        let out = f(&mut self.clients[i - self.first], &mut self.cx);
        self.settle_lost_forwards();
        out
    }

    fn settle_lost_forwards(&mut self) {
        if let ServerKind::ClientServer(server) = &mut self.server {
            server.forget_lost_routes(&mut self.cx);
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive(i) if self.cx.cfg.system == SystemKind::Centralized => {
                centralized::submit(&mut self.cx, i as u32);
            }
            Ev::Arrive(i) => {
                // Each transaction arrives once: its access list moves to
                // the site that runs it.
                let slot = &mut self.cx.specs[i];
                let spec = TransactionSpec {
                    accesses: std::mem::take(&mut slot.accesses),
                    ..*slot
                };
                self.on_client(spec.origin.index(), |c, cx| c.on_arrive(cx, spec));
            }
            Ev::Deliver { to, mut msgs } => {
                // Messages of one group arrive back-to-back at the same
                // instant; liveness cannot change between them, so the
                // crash-refusal gate is evaluated per message against the
                // same state it would have seen ungrouped.
                for msg in msgs.drain(..) {
                    self.deliver(to, msg);
                }
                self.cx.queue.recycle(msgs);
            }
            Ev::ClientCpu { client, generation } => {
                self.on_client(client, |c, cx| c.on_cpu(cx, generation));
            }
            Ev::ClientDiskReady {
                client,
                txn,
                object,
                scheduled_at,
            } => self.on_client(client, |c, cx| {
                c.on_disk_ready(cx, txn, object, scheduled_at);
            }),
            ev @ (Ev::ServerFetchDone { .. }
            | Ev::WindowClose { .. }
            | Ev::ServerIo { .. }
            | Ev::ServerCpu { .. }) => self.on_server_event(ev),
            Ev::EndWarmup => self.cx.fabric.reset_stats(),
            Ev::Sweep => self.on_sweep(),
            Ev::SiteCrash { client } => self.on_client(client, ClientSite::on_crash),
            Ev::SiteRecover { client } => self.on_client(client, ClientSite::on_recover),
            Ev::ServerCrash => {
                let ready = match &mut self.server {
                    ServerKind::Centralized(server) => server.crash(&mut self.cx),
                    ServerKind::ClientServer(server) => server.crash(&mut self.cx),
                    ServerKind::Remote => None,
                };
                if let Some(ready) = ready {
                    self.cx.queue.push(ready, Ev::ServerRecover);
                }
            }
            Ev::ServerRecover => match &mut self.server {
                ServerKind::Centralized(server) => server.rejoin(&mut self.cx),
                _ => self.on_server_recover(),
            },
            Ev::RetryFetch {
                client,
                object,
                attempt,
                sent_at,
            } => self.on_client(client, |c, cx| {
                c.on_retry_fetch(cx, object, attempt, sent_at);
            }),
        }
    }

    /// An event the server site scheduled for itself. A CS one that
    /// outlived a crash is stale: a fetch issued before it died with the
    /// server's volatile state (the client's retry machinery re-requests),
    /// and the windows were wiped.
    fn on_server_event(&mut self, ev: Ev) {
        let cx = &mut self.cx;
        match (&mut self.server, ev) {
            (ServerKind::Centralized(server), Ev::ServerIo { txn }) => server.on_io_done(cx, txn),
            (ServerKind::Centralized(server), Ev::ServerCpu { generation }) => {
                server.on_cpu_tick(cx, generation);
            }
            (ServerKind::ClientServer(_), _) if !cx.fabric.site_up(SiteId::Server) => {}
            (
                ServerKind::ClientServer(server),
                Ev::ServerFetchDone {
                    to,
                    txn,
                    item,
                    scheduled_at,
                },
            ) => {
                let (unit, disk) = (TransactionId::from_raw(txn), SpanKind::Disk);
                cx.sink
                    .span(cx.now, SiteId::Server, unit, disk, scheduled_at, None);
                server.on_fetch_done(cx, to, item, scheduled_at);
            }
            (ServerKind::ClientServer(server), Ev::WindowClose { object }) => {
                server.on_window_close(cx, object);
            }
            (_, ev) => unreachable!("{ev:?} is not this server's event"),
        }
    }

    /// Hands `msg` to the site it is addressed to, unless that site is
    /// down: deliveries already in flight when the destination crashed are
    /// refused at its door (new sends are refused by the fabric itself). A
    /// CE submission's hop is stamped before the door, refused or not.
    fn deliver(&mut self, to: SiteDest, msg: Msg) {
        let cx = &mut self.cx;
        let up = match (to, &self.server) {
            (SiteDest::Client(c), _) => cx.site_up(c),
            (SiteDest::Server, ServerKind::Centralized(_)) => {
                if let Some((unit, kind, sent_at)) = msg.trip() {
                    cx.sink
                        .span(cx.now, SiteId::Server, unit, kind, sent_at, None);
                }
                cx.fabric.site_up(SiteId::Server)
            }
            (SiteDest::Server, ServerKind::ClientServer(_)) => cx.fabric.site_up(SiteId::Server),
            // A client's one-site simulator sends its server traffic out.
            (SiteDest::Server, ServerKind::Remote) => false,
        };
        if !up {
            cx.refused += 1;
            cx.on_dropped_delivery(msg);
            self.settle_lost_forwards();
            return;
        }
        match (to, &mut self.server) {
            (SiteDest::Client(_), _) if cx.cfg.system == SystemKind::Centralized => {
                centralized::on_result(cx, msg);
            }
            (SiteDest::Client(c), _) => {
                self.on_client(c.index(), |site, cx| site.on_msg(cx, msg));
            }
            (SiteDest::Server, ServerKind::Centralized(server)) => server.on_msg(cx, msg),
            (SiteDest::Server, ServerKind::ClientServer(server)) => match msg {
                Msg::LoadQuery { txn, objects } => {
                    let mut loads = cx.take_buf();
                    if cx.local.is_none() {
                        loads.extend(self.clients.iter().map(ClientSite::load_report));
                    } else {
                        loads.extend(self.loads.iter().flatten().copied());
                    }
                    server.on_load_query(cx, txn, objects, loads);
                }
                msg => server.on_msg(cx, msg),
            },
            (SiteDest::Server, ServerKind::Remote) => {}
        }
    }

    fn on_sweep(&mut self) {
        // "Tasks that have missed their deadlines are not processed at
        // all" (§2): each client drops its expired units first.
        for i in self.first..self.first + self.clients.len() {
            self.on_client(i, ClientSite::sweep_expired);
        }
        match &mut self.server {
            ServerKind::Centralized(server) => server.sweep(&mut self.cx),
            ServerKind::ClientServer(_) if self.cx.fabric.site_up(SiteId::Server) => {
                self.sweep_client_server();
            }
            _ => {}
        }
        // A one-site simulator cannot see the rest of the run drain: it
        // sweeps until its driver stops stepping it.
        let cx = &self.cx;
        if cx.local.is_some() || cx.inflight() > 0 || !cx.queue.is_empty() {
            self.cx
                .queue
                .push(self.cx.now + SimDuration::from_secs(1), Ev::Sweep);
        }
    }

    /// The CS server's sweep. Failure handling first: callbacks unanswered
    /// past the lease are presumed lost with their holder. The server
    /// reclaims the lock, the holder's cached copy is fenced and its local
    /// users of it die, and only then are the waiters granted from the
    /// server's own copy (inert unless faults are injected and a non-zero
    /// lease is configured). Then expired lock waiters go.
    fn sweep_client_server(&mut self) {
        let lease = self.cx.cfg.faults.callback_lease;
        let ServerKind::ClientServer(server) = &mut self.server else {
            return;
        };
        let (cx, clients) = (&mut self.cx, &mut self.clients);
        if cx.faults_active && !lease.is_zero() {
            for (object, holder) in server.expired_leases(cx.now, lease) {
                let grants = server.reclaim(cx, object, holder);
                // If the holder was merely slow the fence is conservative
                // but safe: it must re-fetch.
                if let Some(c) = clients.get_mut(holder.index()) {
                    c.fence(cx, object);
                    c.abort_local_holders(cx, object);
                }
                server.forget_lost_routes(cx);
                server.apply_grants(cx, object, grants);
                server.unpark(cx, object, holder);
            }
            for (object, member) in server.forget_dead_routes(cx.now) {
                if let Some(c) = clients.get_mut(member.index()) {
                    c.fence(cx, object);
                    c.abort_local_holders(cx, object);
                }
            }
            server.forget_old_fences(cx.now, lease);
        }
        server.sweep(cx);
    }

    /// Replay finished: the CS server rejoins with only durable state and
    /// the surviving clients reconnect — their cached locks are revalidated
    /// into the rebuilt lock table (or fenced), and the work they had in
    /// flight across the outage aborts.
    fn on_server_recover(&mut self) {
        let ServerKind::ClientServer(server) = &mut self.server else {
            return;
        };
        let (cx, clients) = (&mut self.cx, &mut self.clients);
        let crashed_at = server
            .core
            .rejoin(cx.now, &cx.sink, &mut cx.fabric, &mut cx.metrics);
        // A crashed client has nothing to revalidate, and its work already
        // died with it.
        for c in clients.iter_mut() {
            if !cx.site_up(c.id()) {
                continue;
            }
            for (object, mode) in c.cached_locks() {
                if !server.revalidate(c.id(), object, mode) {
                    c.fence(cx, object);
                }
            }
        }
        cx.sink.emit(cx.now, SiteId::Server, || {
            siteselect_obs::Event::SiteRecover {
                site: SiteId::Server,
            }
        });
        // Site-scoped replay span: the outage window (down + WAL replay
        // until rejoin) blames every transaction it overlaps.
        if let Some(start) = crashed_at {
            cx.sink
                .emit(cx.now, SiteId::Server, || siteselect_obs::Event::Span {
                    txn: None,
                    kind: SpanKind::Replay,
                    start,
                    blocker: None,
                });
        }
        for i in self.first..self.first + self.clients.len() {
            self.on_client(i, |c, cx| {
                if cx.site_up(c.id()) {
                    c.abort_stranded(cx);
                }
            });
        }
    }
}

/// The mean share of `span` seconds the `clients`' CPUs were busy: 0 at
/// a site with none (a server or a CE terminal).
fn client_utilization(clients: &[ClientSite], span: f64) -> f64 {
    if clients.is_empty() {
        return 0.0;
    }
    let busy: f64 = clients.iter().map(|c| c.cpu_busy_time().as_secs_f64()).sum();
    (busy / (span * clients.len() as f64)).min(1.0)
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("system", &self.cx.cfg.system)
            .field("now", &self.cx.now)
            .field("clients", &self.clients.len())
            .field("arrived", &self.cx.arrived)
            .field("settled", &self.cx.settled)
            .field("events", &self.cx.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cx {
        /// Everything staged or queued for delivery so far, in delivery order
        /// (site tests assert on what a handler sent).
        pub(crate) fn drain_deliveries(&mut self) -> Vec<(SiteDest, Msg)> {
            let mut out = Vec::new();
            let mut rest = Vec::new();
            while let Some((t, ev)) = self.queue.pop() {
                match ev {
                    Ev::Deliver { to, msgs } => out.extend(msgs.into_iter().map(|m| (to, m))),
                    other => rest.push((t, other)),
                }
            }
            for (t, ev) in rest {
                self.queue.push(t, ev);
            }
            out
        }
    }

    /// Every queue push, cascade and pop moves an `Ev`, and every delivery
    /// a `Msg`: what a variant carries inline has to fit in these sizes.
    #[test]
    fn events_and_messages_stay_small() {
        assert!(
            std::mem::size_of::<Msg>() <= 88,
            "{}",
            std::mem::size_of::<Msg>()
        );
        assert!(
            std::mem::size_of::<Ev>() <= 48,
            "{}",
            std::mem::size_of::<Ev>()
        );
    }

    /// A client's request leaves its one-site simulator with a fabric
    /// delivery time; the server handles it at that time, or at its own
    /// clock if that is later, and its reply leaves the same way.
    #[test]
    fn one_site_simulators_hand_parcels_on_causally() {
        let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 2, 0.2);
        cfg.runtime.duration = SimDuration::from_secs(100);
        cfg.runtime.warmup = SimDuration::ZERO;
        let specs = Simulator::transactions(&cfg);
        let first = specs
            .iter()
            .find(|s| s.origin == ClientId(0))
            .unwrap()
            .arrival;
        let site = |s| Simulator::site(cfg.clone(), s, specs.clone());
        let (mut server, mut client) = (site(SiteId::Server), site(SiteId::Client(ClientId(0))));
        client.run_until(first);
        assert_eq!(client.now(), first);
        let sent: Vec<_> = client.take_outbound().collect();
        assert!(!sent.is_empty(), "the first transaction asks the server");
        assert!(sent
            .iter()
            .all(|&(to, at, _)| to == SiteId::Server && at > first));
        assert_eq!(client.take_outbound().count(), 0, "outbound was drained");

        // A parcel due later than the server's clock waits for its time.
        let (_, at, parcel) = sent.into_iter().next().unwrap();
        let mut early = site(SiteId::Server);
        early.accept(at, parcel);
        early.run_until(SimTime::from_micros(at.as_micros() - 1));
        assert_eq!(early.take_outbound().count(), 0, "handled before its time");
        early.run_until(at + SimDuration::from_secs(10));
        let replies: Vec<_> = early.take_outbound().map(|(_, sent, _)| sent).collect();
        assert!(!replies.is_empty() && replies.iter().all(|&sent| sent > at));

        // One due earlier is handled at the server's clock, not before.
        client = site(SiteId::Client(ClientId(0)));
        client.run_until(first);
        let (_, at, parcel) = client.take_outbound().next().unwrap();
        let late = at + SimDuration::from_secs(3);
        server.run_until(late);
        server.accept(at, parcel);
        assert_eq!(server.next_at(), Some(late));
        server.run_until(late + SimDuration::from_secs(10));
        let replies: Vec<_> = server.take_outbound().collect();
        assert!(!replies.is_empty(), "the server answers");
        let to_client = SiteId::Client(ClientId(0));
        assert!(replies
            .iter()
            .all(|&(to, at, _)| to == to_client && at > late));
    }

    /// The server's links agree with its lock table after every event of
    /// a crash-restart run, CS and LS alike. The database is a tenth of
    /// the paper's, which makes the check (it reads every object's queue)
    /// ten times cheaper and contention, the thing checked, likelier.
    #[test]
    fn the_server_links_follow_the_lock_table_through_every_event() {
        for system in [SystemKind::ClientServer, SystemKind::LoadSharing] {
            let mut cfg = ExperimentConfig::paper(system, 16, 0.2);
            cfg.database.num_objects = 1_000;
            cfg.runtime.duration = SimDuration::from_secs(300);
            cfg.runtime.warmup = SimDuration::from_secs(20);
            cfg.runtime.seed = 11;
            cfg.faults = siteselect_types::FaultConfig::chaos_restart(1.0);
            let mut sim = Simulator::new(cfg);
            sim.prepare();
            let mut queued = 0;
            while sim.step() {
                let ServerKind::ClientServer(server) = &sim.server else {
                    unreachable!("a whole-cluster simulator has a CS server");
                };
                if let Err(fault) = server.check_invariants() {
                    panic!("{system:?} at {}: {fault}", sim.now());
                }
                queued += usize::from(server.core.locks.has_waiters());
            }
            assert!(queued > 0, "{system:?}: no request ever queued");
        }
    }

    #[test]
    fn subtask_keys_are_distinct_from_parents_and_each_other() {
        let parent = siteselect_types::TransactionId::new(ClientId(3), 77).as_u64();
        let mut seen = std::collections::HashSet::new();
        seen.insert(parent);
        for i in 0..10u8 {
            assert!(seen.insert(subtask_key(parent, i)), "collision at {i}");
        }
    }
}
