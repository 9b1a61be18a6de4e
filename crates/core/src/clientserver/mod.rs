//! The client-server real-time database (CS-RTDBS) and its load-sharing
//! extension (LS-CS-RTDBS), as one event-driven simulator.
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

use std::collections::{BTreeMap, HashMap};

use siteselect_locks::{CallbackTracker, ForwardList, LockTable, QueueDiscipline, WaitForGraph, WindowManager};
use siteselect_net::{Delivery, Fabric};
use siteselect_obs::EventSink;
use siteselect_sim::{EventQueue, Prng};
use siteselect_storage::{ClientCache, DiskModel, DurableStore, RecoveryOutcome};
use siteselect_types::{
    AbortReason, AccessSpec, ClientId, ExperimentConfig, InlineVec, LockMode, ObjectId,
    ObjectMap, ObjectSet, SimDuration, SimTime, SiteId, SystemKind, TransactionId,
    TransactionSpec, TxnOutcome,
};
use siteselect_workload::Trace;

use crate::cpu::EdfCpu;
use crate::metrics::RunMetrics;

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

/// Messages exchanged between sites (the payload of `Ev::Deliver`).
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// Client → server: per-object requests of one transaction, physically
    /// batched. `grant_all` marks the LS first round ("grant everything or
    /// tell me who conflicts").
    RequestBatch {
        txn: TKey,
        client: ClientId,
        wants: Vec<Want>,
        grant_all: bool,
    },
    /// Server → client: granted objects/locks of one batch.
    GrantBatch {
        items: Vec<(ObjectId, LockMode, bool)>, // (object, mode, with_data)
    },
    /// Server → client: the LS grant-all round failed; here is who holds
    /// what (input to H2).
    ConflictReport {
        txn: TKey,
        conflicts: Vec<(ObjectId, Vec<(ClientId, LockMode)>)>,
    },
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
    /// shared lock at the client.
    ObjectReturn {
        object: ObjectId,
        from: ClientId,
        downgraded: bool,
    },
    /// Client → server: callback answered without data (copy was clean or
    /// already evicted; `had_copy` false means the forward list, if any,
    /// must be served by the server).
    CallbackAck {
        object: ObjectId,
        from: ClientId,
        had_copy: bool,
    },
    /// Client → server: these waiting requests died with their transaction.
    CancelWants {
        client: ClientId,
        objects: Vec<ObjectId>,
    },
    /// Client → server: where are these objects, and how loaded is
    /// everyone? (H1/H2 and decomposition input.)
    LoadQuery { txn: TKey, objects: Vec<ObjectId> },
    /// Server → client: locations and loads.
    LoadReply {
        txn: TKey,
        locations: Vec<(ObjectId, Vec<(ClientId, LockMode)>)>,
        loads: Vec<(ClientId, usize, f64)>,
    },
    /// Client → client (via directory): object hops down a forward list.
    /// `mode` is the receiver's granted mode; `rest` is the remainder of
    /// the list.
    ObjectForward {
        object: ObjectId,
        mode: LockMode,
        rest: ForwardList,
    },
    /// Client → client (via directory): a whole transaction moves.
    /// `sent_at` stamps the ship decision so delivery can span the travel.
    TxnShip { spec: TransactionSpec, sent_at: SimTime },
    /// Client → client (via directory): outcome of a shipped transaction,
    /// with what the origin needs to score it at delivery time. `sent_at`
    /// stamps the remote commit so delivery can span the return hop.
    TxnShipResult {
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
    SubtaskResult { parent: TKey, ok: bool, sent_at: SimTime },
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
    /// Server finished fetching objects from disk for a grant batch.
    /// `txn` / `scheduled_at` attribute the disk span to the requesting
    /// transaction.
    ServerFetchDone {
        to: ClientId,
        txn: TKey,
        items: Vec<(ObjectId, LockMode, bool)>,
        scheduled_at: SimTime,
    },
    /// A grouped-lock collection window closed.
    WindowClose { object: ObjectId },
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
/// small pool, keeping steady-state delivery scheduling off the allocator.
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
            self.q.push(self.staged_at, Ev::Deliver { to: self.staged_to, msgs });
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
        if self.pool.len() < 8 {
            msgs.clear();
            self.pool.push(msgs);
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: Ev) {
        self.flush();
        self.q.push(at, ev);
    }

    pub(crate) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.flush();
        self.q.pop()
    }

    pub(crate) fn len(&self) -> usize {
        self.q.len() + usize::from(!self.staged.is_empty())
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why an object fetch is outstanding at a client.
#[derive(Debug)]
pub(crate) struct Fetch {
    pub mode: LockMode,
    pub sent_at: SimTime,
    pub waiters: Vec<TKey>,
    /// True once the request actually went to the server (a fetch created
    /// while a batch is being assembled is not yet on the wire).
    pub sent: bool,
    /// Retransmissions sent so far (failure handling; always 0 with faults
    /// off).
    pub attempts: u32,
}

/// A pending lock revocation at a client, answered when the last local user
/// releases the object.
#[derive(Debug)]
pub(crate) struct Revoke {
    /// What the remote requester wants (plain callback path).
    pub desired: LockMode,
    /// Remaining forward list to serve (grouped-lock path).
    pub forward: Option<ForwardList>,
}

/// Progress of one object within a transaction's acquisition phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Need {
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
pub(crate) enum RunKind {
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
pub(crate) enum RunState {
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
pub(crate) enum InfoReason {
    /// H1 said the local queue is infeasible; pick a site with H2.
    H1Infeasible,
    /// Decomposition placement lookup.
    Decompose,
}

/// The objects a `TxnRun` must assemble, in struct-of-arrays layout:
/// three parallel inline vectors (object, lock mode, progress) kept sorted
/// by object id. Transactions touch 5–15 objects, so entries live inline
/// (no per-transaction map nodes) and lookups are short linear scans; the
/// sorted order reproduces the ascending iteration the previous `BTreeMap`
/// gave, which release loops depend on for determinism.
#[derive(Debug, Default)]
pub(crate) struct NeededSet {
    objs: InlineVec<ObjectId, 16>,
    modes: InlineVec<LockMode, 16>,
    needs: InlineVec<Need, 16>,
}

impl NeededSet {
    fn pos(&self, object: ObjectId) -> Option<usize> {
        self.objs.iter().position(|&o| o == object)
    }

    /// Inserts or replaces the entry for `object`.
    pub(crate) fn insert(&mut self, object: ObjectId, mode: LockMode, need: Need) {
        match self.pos(object) {
            Some(i) => {
                self.modes.set(i, mode);
                self.needs.set(i, need);
            }
            None => {
                let at = self
                    .objs
                    .iter()
                    .position(|&o| o > object)
                    .unwrap_or(self.objs.len());
                self.objs.insert(at, object);
                self.modes.insert(at, mode);
                self.needs.insert(at, need);
            }
        }
    }

    /// The recorded (mode, progress) of `object`, if present.
    pub(crate) fn get(&self, object: ObjectId) -> Option<(LockMode, Need)> {
        self.pos(object)
            .map(|i| (self.modes.get_copy(i), self.needs.get_copy(i)))
    }

    /// Updates the progress of `object`; no-op if absent.
    pub(crate) fn set_need(&mut self, object: ObjectId, need: Need) {
        if let Some(i) = self.pos(object) {
            self.needs.set(i, need);
        }
    }

    /// The objects of this set, ascending.
    pub(crate) fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objs.iter().copied()
    }

    /// True once every entry is `Need::Held`.
    pub(crate) fn all_held(&self) -> bool {
        self.needs.iter().all(|&n| n == Need::Held)
    }
}

/// One executing transaction/subtask at a client.
#[derive(Debug)]
pub(crate) struct TxnRun {
    pub spec: TransactionSpec,
    pub kind: RunKind,
    pub state: RunState,
    pub needed: NeededSet,
    pub acquire_started: SimTime,
    /// When the transaction reached the CPU (feeds the ATL estimate of H1).
    pub exec_started: SimTime,
}

impl TxnRun {
    pub(crate) fn ready(&self) -> bool {
        self.state == RunState::Acquiring && self.needed.all_held()
    }
}

/// Per-client state.
pub(crate) struct ClientState {
    pub id: ClientId,
    pub cache: ClientCache,
    pub cached_locks: ObjectMap<LockMode>,
    pub dirty: ObjectSet,
    pub local_locks: LockTable<TKey>,
    pub local_wfg: WaitForGraph<TKey>,
    pub cpu: EdfCpu<TKey>,
    pub disk: DiskModel,
    pub txns: HashMap<TKey, TxnRun>,
    pub fetches: HashMap<ObjectId, Fetch>,
    pub revokes: HashMap<ObjectId, Revoke>,
    /// Running average latency of locally completed transactions (ATL in
    /// H1).
    pub atl_sum: f64,
    pub atl_count: u64,
    /// Trace-only: start time and blocking holder of in-progress local
    /// lock waits, keyed `(txn, object)`. Populated only while a sink is
    /// attached — pure observer, never read by simulation logic.
    pub lock_wait_from: HashMap<(TKey, ObjectId), (SimTime, Option<TKey>)>,
}

impl ClientState {
    pub(crate) fn atl(&self) -> f64 {
        if self.atl_count == 0 {
            // No history yet: optimistic prior (about one CPU demand) so H1
            // only starts shedding load once real latencies are observed.
            1.0
        } else {
            self.atl_sum / self.atl_count as f64
        }
    }

    /// Number of incomplete local units of work.
    pub(crate) fn load(&self) -> usize {
        self.txns.len()
    }

    /// H1's `n`: transactions ahead of a newcomer in the local priority
    /// queue (the EDF CPU queue — blocked transactions consume no CPU).
    pub(crate) fn queue_ahead(&self) -> usize {
        self.cpu.load()
    }
}

/// Info the server tracks for a lock-table-queued want.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WantInfo {
    pub mode: LockMode,
    pub needs_data: bool,
    pub deadline: SimTime,
    /// The requesting transaction (for rejection notices).
    pub txn: TKey,
    /// When the want entered the server's lock queue (start of the
    /// lock-wait span emitted at grant time).
    pub queued_at: SimTime,
}

/// The server's index of lock-table-queued wants, keyed `(object, client)`.
///
/// Stored as one small vector per client: a client has at most a handful of
/// requests queued at once, so a linear scan beats hashing the composite
/// key, and `refresh_wfg`'s per-client iteration becomes a direct slice
/// walk instead of a filter over the whole map.
pub(crate) struct WaitingWants {
    per_client: Vec<Vec<(ObjectId, WantInfo)>>,
}

impl WaitingWants {
    fn new(clients: usize) -> Self {
        WaitingWants {
            per_client: vec![Vec::new(); clients],
        }
    }

    /// Records (or replaces) the want of `client` on `object`.
    pub(crate) fn insert(&mut self, object: ObjectId, client: ClientId, info: WantInfo) {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        let list = &mut self.per_client[client.index()];
        match list.iter_mut().find(|(o, _)| *o == object) {
            Some(slot) => slot.1 = info,
            None => list.push((object, info)),
        }
    }

    /// Removes and returns the want of `client` on `object`, if any.
    pub(crate) fn remove(&mut self, object: ObjectId, client: ClientId) -> Option<WantInfo> {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        let list = &mut self.per_client[client.index()];
        let pos = list.iter().position(|(o, _)| *o == object)?;
        Some(list.remove(pos).1)
    }

    /// True if `client` has a want queued on `object`.
    pub(crate) fn contains(&self, object: ObjectId, client: ClientId) -> bool {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        self.per_client[client.index()]
            .iter()
            .any(|(o, _)| *o == object)
    }

    /// All queued wants of `client`, in insertion order.
    pub(crate) fn of_client(&self, client: ClientId) -> &[(ObjectId, WantInfo)] {
        // detlint: allow(D9) — per_client is sized to the client count at construction
        &self.per_client[client.index()]
    }
}

/// Server-side state.
pub(crate) struct ServerState {
    pub locks: LockTable<ClientId>,
    pub wfg: WaitForGraph<ClientId>,
    pub callbacks: CallbackTracker,
    pub windows: WindowManager,
    pub buffer: ClientCache,
    pub disk: DiskModel,
    /// Forward lists currently travelling client→client, as shipped.
    pub routing: ObjectMap<ForwardList>,
    /// Lock-table-queued requests awaiting grant: data to ship on grant.
    pub waiting_wants: WaitingWants,
    /// WAL-backed durable home of the database: every data-carrying object
    /// return is applied here under a server-local pseudo-transaction, so a
    /// crash-restart replays the newest committed versions.
    pub store: DurableStore,
    /// Sequence counter for the pseudo-transactions above (tagged with the
    /// high bit so they can never collide with workload transaction ids).
    pub pseudo_seq: u64,
}

/// Fault-injection runtime state. `active` is false unless the experiment
/// config enables an injection knob, and every fault code path is gated on
/// it, so a default run schedules no fault events and draws no fault
/// randomness.
pub(crate) struct FaultRuntime {
    /// True if `cfg.faults.injects_faults()`.
    pub active: bool,
    /// Liveness of each client site (all true with faults off).
    pub up: Vec<bool>,
    /// Liveness of the server (true with faults off).
    pub server_up: bool,
    /// Pre-crash in-flight deliveries refused at a crashed destination
    /// (fabric-level drops are counted by the fabric itself).
    pub gate_dropped: u64,
    /// Crash-restart randomness: the torn staged-write tail kept by a
    /// server crash and the reboot lag before replay starts. Its own stream
    /// so restart draws never perturb the crash schedule.
    pub crash_prng: Prng,
    /// Replay summary carried from a server crash to its `ServerRecover`.
    pub pending_recovery: Option<RecoveryOutcome>,
    /// When the server went down (start of the site-scoped replay span
    /// emitted at rejoin).
    pub server_crashed_at: Option<SimTime>,
}

impl FaultRuntime {
    fn new(active: bool, clients: usize, seed: u64) -> Self {
        FaultRuntime {
            active,
            up: vec![true; clients],
            server_up: true,
            gate_dropped: 0,
            crash_prng: Prng::seed_from_u64(seed).derive(0xFA_E5),
            pending_recovery: None,
            server_crashed_at: None,
        }
    }
}

/// Discrete-event simulator of CS-RTDBS / LS-CS-RTDBS.
pub struct ClientServerSim {
    pub(crate) cfg: ExperimentConfig,
    pub(crate) ls: bool,
    pub(crate) now: SimTime,
    pub(crate) queue: ClusterQueue,
    pub(crate) fabric: Fabric,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) server: ServerState,
    pub(crate) warmup_end: SimTime,
    pub(crate) metrics: RunMetrics,
    pub(crate) inflight: usize,
    /// Parent transactions of decompositions also count in `inflight`.
    pub(crate) specs: Vec<TransactionSpec>,
    pub(crate) faults: FaultRuntime,
    pub(crate) sink: EventSink,
}

impl ClientServerSim {
    /// Builds the simulator for `cfg`. `cfg.system` selects CS or LS
    /// behaviour.
    ///
    /// # Panics
    ///
    /// Panics if called with a centralized config.
    #[must_use]
    pub fn new(cfg: ExperimentConfig) -> Self {
        assert!(
            cfg.system != SystemKind::Centralized,
            "use CentralizedSim for CE-RTDBS"
        );
        let ls = cfg.system == SystemKind::LoadSharing;
        // The server's wait queue stays FIFO even under LS: deadline-ordered
        // waiter service (§3.3) is realized where it measurably helps — the
        // forward lists are deadline-ordered and expired requests are
        // refused — while EDF-ordering the lock queue itself breaks up
        // naturally batched reader grants and lowers aggregate success.
        let discipline = QueueDiscipline::Fifo;
        let clients: Vec<ClientState> = (0..cfg.clients)
            .map(|i| ClientState {
                id: ClientId(i),
                cache: ClientCache::new(
                    cfg.client.memory_cache_objects,
                    cfg.client.disk_cache_objects,
                ),
                cached_locks: ObjectMap::new(),
                dirty: ObjectSet::new(),
                local_locks: LockTable::new(QueueDiscipline::Deadline),
                local_wfg: WaitForGraph::new(),
                cpu: EdfCpu::new(cfg.cpu.client_speed),
                disk: DiskModel::new(cfg.client.disk.page_service_time),
                txns: HashMap::new(),
                fetches: HashMap::new(),
                revokes: HashMap::new(),
                atl_sum: 0.0,
                atl_count: 0,
                lock_wait_from: HashMap::new(),
            })
            .collect();
        let server = ServerState {
            locks: LockTable::new(discipline),
            wfg: WaitForGraph::new(),
            callbacks: CallbackTracker::new(),
            windows: WindowManager::new(cfg.load_sharing.collection_window),
            buffer: ClientCache::new(cfg.server.buffer_objects, 0),
            disk: DiskModel::new(cfg.server.disk.page_service_time),
            routing: ObjectMap::new(),
            waiting_wants: WaitingWants::new(usize::from(cfg.clients)),
            store: DurableStore::new(cfg.database.num_objects, cfg.server.buffer_objects.max(1)),
            pseudo_seq: 0,
        };
        let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
        let metrics = RunMetrics::new(
            cfg.system,
            cfg.clients,
            cfg.workload.update_fraction,
            cfg.runtime.seed,
        );
        let faults = FaultRuntime::new(cfg.faults.injects_faults(), clients.len(), cfg.runtime.seed);
        let mut fabric = Fabric::new(cfg.network, cfg.database.object_size_bytes);
        if faults.active {
            // A dedicated PRNG stream for the fabric: loss and jitter draws
            // never perturb the workload's random sequence.
            let prng = Prng::seed_from_u64(cfg.runtime.seed).derive(0xFA_B1);
            fabric.enable_faults(cfg.faults, prng);
        }
        ClientServerSim {
            fabric,
            ls,
            now: SimTime::ZERO,
            queue: ClusterQueue::new(),
            clients,
            server,
            warmup_end,
            metrics,
            inflight: 0,
            specs: Vec::new(),
            faults,
            sink: EventSink::disabled(),
            cfg,
        }
    }

    /// Enables event tracing: the sink is shared with the fabric and the
    /// server's window/callback managers so every layer stamps the same
    /// timeline.
    pub fn attach_sink(&mut self, sink: EventSink) {
        self.fabric.set_sink(sink.clone());
        self.server.windows.set_sink(sink.clone());
        self.server.callbacks.set_sink(sink.clone());
        self.sink = sink;
    }

    /// Pre-generates the whole fault schedule (crashes, recoveries and
    /// slow-disk episodes) from seed-derived PRNG streams, so two runs with
    /// the same seed inject identical faults regardless of workload
    /// interleaving.
    fn schedule_faults(&mut self) {
        let f = self.cfg.faults;
        let duration = self.cfg.runtime.duration;
        let end = SimTime::ZERO + duration;
        if !f.mean_time_to_crash.is_zero() {
            let crash_base = Prng::seed_from_u64(self.cfg.runtime.seed).derive(0xFA_C2);
            for ci in 0..self.clients.len() {
                let mut prng = crash_base.derive(ci as u64);
                let mut t = SimTime::ZERO;
                loop {
                    t += prng.exp_duration(f.mean_time_to_crash);
                    if t >= end {
                        break;
                    }
                    self.queue.push(t, Ev::SiteCrash { client: ci });
                    if f.mean_recovery_time.is_zero() {
                        break; // this site stays down for the rest of the run
                    }
                    t += prng.exp_duration(f.mean_recovery_time);
                    if t >= end {
                        break;
                    }
                    self.queue.push(t, Ev::SiteRecover { client: ci });
                }
            }
        }
        if !f.mean_time_to_server_crash.is_zero() {
            let mut prng = Prng::seed_from_u64(self.cfg.runtime.seed).derive(0xFA_E4);
            let mut t = SimTime::ZERO;
            loop {
                t += prng.exp_duration(f.mean_time_to_server_crash);
                if t >= end {
                    break;
                }
                self.queue.push(t, Ev::ServerCrash);
                if f.mean_recovery_time.is_zero() {
                    break; // permanent: the site goes dark, no replay
                }
                // Recovery is self-scheduled by the crash handler (its time
                // depends on log length); space the next crash out past the
                // expected outage so the schedule stays plausible.
                t += prng.exp_duration(f.mean_recovery_time);
            }
        }
        if !f.mean_time_to_slow_disk.is_zero() {
            let mut prng = Prng::seed_from_u64(self.cfg.runtime.seed).derive(0xFA_D3);
            let mut episodes = Vec::new();
            let mut t = SimTime::ZERO;
            loop {
                t += prng.exp_duration(f.mean_time_to_slow_disk);
                if t >= end {
                    break;
                }
                let until = t + f.slow_disk_duration;
                episodes.push((t, until));
                t = until;
            }
            self.server.disk.set_slow_episodes(episodes, f.slow_disk_factor);
        }
    }

    /// Runs the experiment to completion and returns its metrics.
    #[must_use]
    pub fn run(mut self) -> RunMetrics {
        let trace = Trace::generate(
            &self.cfg.workload,
            self.cfg.cpu.txn_cpu_fraction,
            self.cfg.database.num_objects,
            self.cfg.clients,
            self.cfg.runtime.duration,
            self.cfg.runtime.seed,
        );
        self.specs = trace.into_transactions();
        for (i, spec) in self.specs.iter().enumerate() {
            self.queue.push(spec.arrival, Ev::Arrive(i));
        }
        if self.faults.active {
            self.schedule_faults();
        }
        self.queue.push(self.warmup_end, Ev::EndWarmup);
        self.queue.push(SimTime::from_secs(1), Ev::Sweep);
        // The server's lock table sees every object id sooner or later;
        // pre-sizing its slab keeps first-touch requests off the allocator
        // mid-run. Client-local tables only ever cover each site's cached
        // working set, so they are left to grow amortized on demand.
        self.server
            .locks
            .reserve_objects(self.cfg.database.num_objects as usize);
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.handle(ev);
        }
        self.finalize()
    }

    fn finalize(mut self) -> RunMetrics {
        let span = self
            .now
            .duration_since(SimTime::ZERO)
            .as_secs_f64()
            .max(1e-9);
        let busy: f64 = self
            .clients
            .iter()
            .map(|c| c.cpu.busy_time().as_secs_f64())
            .sum();
        self.metrics.client_cpu_utilization =
            (busy / (span * self.clients.len() as f64)).min(1.0);
        self.metrics.load_sharing.windows_opened = self.server.windows.total_opened();
        self.metrics.messages = self.fabric.stats().clone();
        self.metrics.faults.messages_dropped =
            self.fabric.dropped_messages() + self.faults.gate_dropped;
        self.metrics.faults.messages_delayed = self.fabric.delayed_messages();
        self.metrics.faults.slow_disk_ios = self.server.disk.slow_ios();
        self.metrics
    }

    /// True unless fault injection has `client` currently crashed.
    pub(crate) fn site_up(&self, client: ClientId) -> bool {
        self.faults.up.get(client.index()).copied().unwrap_or(true)
    }

    /// Schedules (or accounts for the loss of) a fault-aware send.
    pub(crate) fn push_delivery(&mut self, delivery: Delivery, to: SiteDest, msg: Msg) {
        match delivery {
            Delivery::Delivered(t) => self.queue.stage_delivery(t, to, msg),
            Delivery::Dropped => self.on_dropped_delivery(msg),
        }
    }

    /// Accounting for a message that will never arrive. Most losses are
    /// recovered by retries, leases or deadline sweeps; the ones that carry
    /// a transaction (or the only record of one) must settle its outcome
    /// here or `inflight` leaks and the run never drains.
    fn on_dropped_delivery(&mut self, msg: Msg) {
        match msg {
            // The travelling transaction is gone; its origin's timeout
            // scores it as a crash loss.
            Msg::TxnShip { spec, .. } => {
                self.inflight -= 1;
                if self.measured_arrival(spec.arrival) {
                    self.record_outcome_at(
                        SiteId::Client(spec.origin),
                        spec.id,
                        TxnOutcome::Aborted(AbortReason::SiteCrash),
                    );
                }
            }
            // The origin can no longer learn the outcome (it crashed, or
            // the result was lost): settle the shipped transaction now.
            Msg::TxnShipResult { txn, arrival, .. } => {
                self.inflight -= 1;
                if self.measured_arrival(arrival) {
                    self.record_outcome_at(
                        SiteId::Client(txn.origin()),
                        txn,
                        TxnOutcome::Aborted(AbortReason::SiteCrash),
                    );
                }
            }
            // The object died in transit: the chain is broken, so the
            // server's own copy becomes authoritative again and later
            // requests must not keep batching onto the dead route.
            Msg::ObjectForward { object, .. } => {
                self.server.routing.remove(object);
            }
            // Everything else is recovered by retries (requests/grants),
            // leases (recalls/acks/returns) or the deadline sweeps
            // (queries, subtask traffic).
            _ => {}
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive(i) => self.on_arrive(i),
            Ev::Deliver { to, mut msgs } => {
                // Messages of one group arrive back-to-back at the same
                // instant; liveness cannot change between them, so the
                // crash-refusal gate is evaluated per message against the
                // same state it would have seen ungrouped.
                for msg in msgs.drain(..) {
                    match to {
                        SiteDest::Server => {
                            // Crash refusal for deliveries already in
                            // flight when the server went down (new sends
                            // are refused by the fabric itself).
                            if self.faults.server_up {
                                self.server_on_msg(msg);
                            } else {
                                self.faults.gate_dropped += 1;
                                self.on_dropped_delivery(msg);
                            }
                        }
                        SiteDest::Client(c) => {
                            // Crash refusal for deliveries already in
                            // flight when the destination went down (new
                            // sends are refused by the fabric itself).
                            if self.site_up(c) {
                                self.client_on_msg(c, msg);
                            } else {
                                self.faults.gate_dropped += 1;
                                self.on_dropped_delivery(msg);
                            }
                        }
                    }
                }
                self.queue.recycle(msgs);
            }
            Ev::ClientCpu { client, generation } => self.on_client_cpu(client, generation),
            Ev::ClientDiskReady {
                client,
                txn,
                object,
                scheduled_at,
            } => self.on_client_disk_ready(client, txn, object, scheduled_at),
            Ev::ServerFetchDone {
                to,
                txn,
                items,
                scheduled_at,
            } => {
                // A fetch issued before a crash died with the server's
                // volatile state; the client's retry machinery re-requests.
                if self.faults.server_up {
                    self.emit_span(
                        SiteId::Server,
                        txn,
                        siteselect_obs::SpanKind::Disk,
                        scheduled_at,
                        None,
                    );
                    self.server_ship_now(to, items);
                }
            }
            Ev::WindowClose { object } => {
                // Windows were wiped by the crash; a stale close is a no-op.
                if self.faults.server_up {
                    self.server_on_window_close(object);
                }
            }
            Ev::EndWarmup => self.fabric.reset_stats(),
            Ev::Sweep => self.on_sweep(),
            Ev::SiteCrash { client } => self.on_site_crash(client),
            Ev::SiteRecover { client } => self.on_site_recover(client),
            Ev::ServerCrash => self.on_server_crash(),
            Ev::ServerRecover => self.on_server_recover(),
            Ev::RetryFetch {
                client,
                object,
                attempt,
                sent_at,
            } => self.on_retry_fetch(client, object, attempt, sent_at),
        }
    }

    pub(crate) fn measured_arrival(&self, arrival: SimTime) -> bool {
        arrival >= self.warmup_end
    }

    /// Emits a causal span ending now for transaction key `txn` (tracing
    /// only; zero-length spans are elided). Subtask keys are folded back to
    /// their root by the blame extractor.
    pub(crate) fn emit_span(
        &self,
        site: SiteId,
        txn: TKey,
        kind: siteselect_obs::SpanKind,
        start: SimTime,
        blocker: Option<TKey>,
    ) {
        if start >= self.now {
            return;
        }
        self.sink.emit(self.now, site, || siteselect_obs::Event::Span {
            txn: Some(TransactionId::from_raw(txn)),
            kind,
            start,
            blocker: blocker.map(TransactionId::from_raw),
        });
    }

    /// Records a measured transaction outcome in the metrics and stamps a
    /// matching `Outcome` record on the trace, so the deadline-accounting
    /// oracle can recount the report from the event stream alone.
    pub(crate) fn record_outcome_at(
        &mut self,
        site: SiteId,
        txn: TransactionId,
        outcome: TxnOutcome,
    ) {
        self.sink
            .emit(self.now, site, || siteselect_obs::Event::Outcome { txn, outcome });
        self.metrics.record_outcome(outcome);
    }

    /// Partitions a decomposable transaction's accesses by their current
    /// holding site: objects exclusively or primarily cached at one client
    /// form that client's subtask; unheld objects stay with the origin.
    pub(crate) fn group_by_location(
        origin: ClientId,
        accesses: &[AccessSpec],
        locations: &[(ObjectId, Vec<(ClientId, LockMode)>)],
    ) -> Vec<(ClientId, Vec<AccessSpec>)> {
        let map: HashMap<ObjectId, &Vec<(ClientId, LockMode)>> =
            locations.iter().map(|(o, v)| (*o, v)).collect();
        let mut groups: BTreeMap<ClientId, Vec<AccessSpec>> = BTreeMap::new();
        for a in accesses {
            let site = map
                .get(&a.object)
                .and_then(|holders| {
                    holders
                        .iter()
                        .find(|(_, m)| m.is_exclusive())
                        .or_else(|| holders.first())
                })
                .map_or(origin, |&(c, _)| c);
            groups.entry(site).or_default().push(*a);
        }
        groups.into_iter().collect()
    }

    fn on_sweep(&mut self) {
        self.sweep_expired_txns();
        if self.faults.server_up {
            self.server_sweep();
        }
        if self.inflight > 0 || !self.queue.is_empty() {
            self.queue
                .push(self.now + SimDuration::from_secs(1), Ev::Sweep);
        }
    }
}

impl std::fmt::Debug for ClientServerSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientServerSim")
            .field("system", &self.cfg.system)
            .field("now", &self.now)
            .field("clients", &self.clients.len())
            .field("inflight", &self.inflight)
            .field("events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtask_keys_are_distinct_from_parents_and_each_other() {
        let parent = siteselect_types::TransactionId::new(ClientId(3), 77).as_u64();
        let mut seen = std::collections::HashSet::new();
        seen.insert(parent);
        for i in 0..10u8 {
            assert!(seen.insert(subtask_key(parent, i)), "collision at {i}");
        }
    }

    #[test]
    fn grouping_by_location_respects_exclusive_holders() {
        let origin = ClientId(0);
        let accesses = vec![
            AccessSpec::read(ObjectId(1)),
            AccessSpec::read(ObjectId(2)),
            AccessSpec::write(ObjectId(3)),
        ];
        let locations = vec![
            (
                ObjectId(1),
                vec![(ClientId(5), LockMode::Shared), (ClientId(6), LockMode::Exclusive)],
            ),
            (ObjectId(2), vec![(ClientId(5), LockMode::Shared)]),
            (ObjectId(3), vec![]),
        ];
        let groups = ClientServerSim::group_by_location(origin, &accesses, &locations);
        // obj1 -> client 6 (EL holder wins), obj2 -> client 5, obj3 -> origin.
        assert_eq!(groups.len(), 3);
        let find = |c: u16| {
            groups
                .iter()
                .find(|(id, _)| *id == ClientId(c))
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(find(6), vec![AccessSpec::read(ObjectId(1))]);
        assert_eq!(find(5), vec![AccessSpec::read(ObjectId(2))]);
        assert_eq!(find(0), vec![AccessSpec::write(ObjectId(3))]);
    }

    #[test]
    fn unlisted_objects_default_to_origin() {
        let groups = ClientServerSim::group_by_location(
            ClientId(2),
            &[AccessSpec::read(ObjectId(9))],
            &[],
        );
        assert_eq!(groups, vec![(ClientId(2), vec![AccessSpec::read(ObjectId(9))])]);
    }
}
