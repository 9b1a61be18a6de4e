//! The centralized real-time database (CE-RTDBS, §2).
//!
//! Clients are terminals: they forward transactions to the server and
//! receive results. The server schedules transactions Earliest-Deadline-
//! First, executes up to `max_concurrent_txns` of them concurrently on a
//! processor-sharing CPU (the prototype's thread-per-transaction design),
//! locks objects with strict 2PL under wait-for-graph deadlock avoidance,
//! and reads missed pages through its 5,000-object buffer. Transactions
//! whose deadline has passed are dropped, not processed.
//!
//! Every update transaction writes through an ARIES-lite [`DurableStore`]
//! (write-ahead log, force-at-commit, fuzzy checkpoints). Under the
//! crash-restart fault mode (`faults.mean_time_to_server_crash`) the server
//! loses its volatile state mid-run, replays its log — charged to the seeded
//! disk model, so slow-disk episodes stretch recovery — and rejoins with
//! in-flight transactions aborted as losers. With faults off the durable
//! layer charges no simulated time and draws no randomness, so fault-free
//! runs are byte-identical to a build without it.

use std::collections::HashMap;

use siteselect_locks::{Acquire, QueueDiscipline};
use siteselect_net::{Delivery, Fabric, MessageKind};
use siteselect_obs::{Event, EventSink, SpanKind};
use siteselect_sim::{EventQueue, Prng};
use siteselect_types::{
    AbortReason, ExperimentConfig, FixedState, InlineVec, LockMode, ObjectId, SimDuration, SimTime, SiteId,
    TransactionId, TransactionSpec, TxnOutcome,
};
use siteselect_workload::Trace;

use crate::cpu::{PsCpu, Tick};
use crate::metrics::RunMetrics;
use crate::server_core::{fabric_for, ServerCore};

type Key = u64;

#[derive(Debug)]
enum Ev {
    /// A transaction is initiated at its client terminal.
    Arrive(usize),
    /// Transaction submission arrives at the server.
    Submit(usize),
    /// Buffer/disk I/O for a transaction finished.
    IoDone(Key),
    /// Processor-sharing completion tick.
    CpuTick(u64),
    /// Commit result reaches the originating client; carries what is needed
    /// to score the transaction at delivery time.
    Result {
        txn: TransactionId,
        measured: bool,
        deadline: SimTime,
        arrival: SimTime,
        /// When the server sent the result (start of the commit-ack hop).
        sent_at: SimTime,
    },
    /// Periodic pruning of expired lock waiters.
    Sweep,
    /// Fault injection: the server crashes (from the pre-generated
    /// schedule), losing all volatile state.
    ServerCrash,
    /// The server finished replaying its log and rejoins.
    ServerRecover,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Locks,
    Io,
    Cpu,
    Done,
}

/// Per-transaction server state. The spec itself stays in the simulator's
/// arena ([`CentralizedSim::specs`]) and is referenced by index, and the
/// blocked list is inline (the paper's transactions touch at most 15
/// objects), so creating and retiring one of these never heap-allocates.
#[derive(Debug)]
struct CeTxn {
    /// Index of this transaction's spec in [`CentralizedSim::specs`].
    spec: u32,
    phase: Phase,
    blocked: InlineVec<ObjectId, 16>,
    wait_started: SimTime,
    blocked_total: SimDuration,
    /// Trace-only: the first conflicting holder seen at submit, reported as
    /// the blocker on the lock-wait span.
    blocked_on: Option<TransactionId>,
    /// When the buffer/disk read batch was issued (start of the disk span).
    io_started: SimTime,
}

/// Discrete-event simulator of the centralized system.
pub struct CentralizedSim {
    cfg: ExperimentConfig,
    now: SimTime,
    queue: EventQueue<Ev>,
    fabric: Fabric,
    cpu: PsCpu<Key>,
    /// Lock table (transaction granularity, deadline-ordered), wait-for
    /// graph, buffer, disk and the durable store update transactions write
    /// through — with what a crash does to them.
    core: ServerCore<Key>,
    /// The generated trace, arena-style: transactions reference their spec
    /// by index instead of carrying a clone through the pipeline.
    specs: Vec<TransactionSpec>,
    /// Keyed by transaction id with the fixed-state hasher, so the map
    /// rehashes (and allocates) at the same steps in every process.
    txns: HashMap<Key, CeTxn, FixedState>,
    /// Recycled buffer for the lock-grant path's still-blocked walk.
    scratch_objs: Vec<ObjectId>,
    inflight: usize,
    warmup_end: SimTime,
    metrics: RunMetrics,
    /// True if `cfg.faults.injects_faults()`; every fault code path is gated
    /// on it, so a default run draws no fault randomness.
    faults_active: bool,
    sink: EventSink,
}

impl CentralizedSim {
    /// Builds the simulator for `cfg` (the trace is generated internally
    /// from the config's workload and seed).
    #[must_use]
    pub fn new(cfg: ExperimentConfig) -> Self {
        let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
        let metrics = RunMetrics::new(
            cfg.system,
            cfg.clients,
            cfg.workload.update_fraction,
            cfg.runtime.seed,
        );
        CentralizedSim {
            fabric: fabric_for(&cfg),
            cpu: PsCpu::new(cfg.cpu.server_speed, cfg.server.max_concurrent_txns),
            core: ServerCore::new(&cfg, QueueDiscipline::Deadline),
            specs: Vec::new(),
            txns: HashMap::default(),
            scratch_objs: Vec::new(),
            inflight: 0,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            warmup_end,
            metrics,
            faults_active: cfg.faults.injects_faults(),
            sink: EventSink::disabled(),
            cfg,
        }
    }

    /// Routes structured events from this engine (and its fabric) into
    /// `sink`. Tracing is off by default; see [`siteselect_obs`].
    pub fn attach_sink(&mut self, sink: EventSink) {
        self.fabric.set_sink(sink.clone());
        self.sink = sink;
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
        let trace = Trace::generate(
            &self.cfg.workload,
            self.cfg.cpu.txn_cpu_fraction,
            self.cfg.database.num_objects,
            self.cfg.clients,
            self.cfg.runtime.duration,
            self.cfg.runtime.seed,
        );
        self.specs = trace.into_transactions();
        // Arrivals fire at the client terminals; the submission message is
        // sent at arrival time so fabric bookings stay chronological.
        for (i, spec) in self.specs.iter().enumerate() {
            self.queue.push(spec.arrival, Ev::Arrive(i));
        }
        if self.faults_active {
            self.schedule_faults();
        }
        self.queue
            .push(self.warmup_end.max(SimTime::from_secs(1)), Ev::Sweep);
        self.core.presize(&self.cfg);
    }

    /// Processes the next event; returns `false` once the queue is drained.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.handle(ev);
        true
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Closes out the run and returns its metrics.
    #[must_use]
    pub fn finalize(mut self) -> RunMetrics {
        // Every transaction reached an outcome, so nobody waits for anybody.
        debug_assert_eq!(self.core.wfg.check_invariants(), Ok(()));
        debug_assert_eq!(
            (self.core.wfg.waiting_nodes(), self.core.wfg.edge_count()),
            (0, 0)
        );
        let span = self
            .now
            .duration_since(SimTime::ZERO)
            .as_secs_f64()
            .max(1e-9);
        self.metrics.server_cpu_utilization =
            (self.cpu.busy_time().as_secs_f64() / span).min(1.0);
        self.core.report_faults(&self.fabric, &mut self.metrics);
        self.metrics
    }

    /// Pre-generates the fault schedule (server crashes and slow-disk
    /// episodes) from seed-derived PRNG streams, so two runs with the same
    /// seed inject identical faults regardless of workload interleaving.
    /// Recovery times are *not* pre-generated: how long a restart takes
    /// depends on the log replayed, so it is computed at crash time.
    fn schedule_faults(&mut self) {
        let f = self.cfg.faults;
        let end = SimTime::ZERO + self.cfg.runtime.duration;
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
                    break; // permanent crash: the server never rejoins
                }
            }
        }
        self.core.schedule_slow_disk(&self.cfg);
    }

    fn measured_at(&self, i: usize) -> bool {
        self.specs[i].arrival >= self.warmup_end
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrive(i) => {
                let spec = &self.specs[i];
                let (txn, deadline, origin) = (spec.id, spec.deadline, spec.origin);
                let accesses = spec.accesses.len() as u32;
                self.sink
                    .emit(self.now, SiteId::Client(origin), || Event::TxnSubmit {
                        txn,
                        deadline,
                        accesses,
                    });
                // With faults on, the submission may be lost to random loss
                // or refused by a crashed server.
                match self.fabric.try_send(
                    self.now,
                    SiteId::Client(origin),
                    SiteId::Server,
                    MessageKind::TxnSubmit,
                    0,
                ) {
                    Delivery::Delivered(t) => self.queue.push(t, Ev::Submit(i)),
                    Delivery::Dropped => self.record_crash_loss(i),
                }
            }
            Ev::Submit(i) => self.on_submit(i),
            Ev::IoDone(key) => self.on_io_done(key),
            Ev::CpuTick(generation) => self.on_cpu_tick(generation),
            Ev::Result {
                txn,
                measured,
                deadline,
                arrival,
                sent_at,
            } => self.on_result(txn, measured, deadline, arrival, sent_at),
            Ev::Sweep => self.on_sweep(),
            Ev::ServerCrash => self.on_server_crash(),
            Ev::ServerRecover => self.on_server_recover(),
        }
    }

    /// Closes out the span of the phase `txn` dies in, so aborted
    /// transactions still account for the wait that killed them.
    fn emit_phase_span(&self, txn: &CeTxn) {
        let id = self.specs[txn.spec as usize].id;
        let (kind, start, blocker) = match txn.phase {
            Phase::Locks => (SpanKind::LockWait, txn.wait_started, txn.blocked_on),
            Phase::Io => (SpanKind::Disk, txn.io_started, None),
            Phase::Cpu | Phase::Done => return,
        };
        self.sink
            .span(self.now, SiteId::Server, id, kind, start, blocker);
    }

    /// Settles a transaction whose submission (or only record of it) was
    /// lost to a crash or message loss: the origin's timeout scores it.
    fn record_crash_loss(&mut self, i: usize) {
        if self.measured_at(i) {
            let (id, origin) = (self.specs[i].id, self.specs[i].origin);
            let lost = TxnOutcome::Aborted(AbortReason::SiteCrash);
            self.metrics
                .record(&self.sink, self.now, SiteId::Client(origin), id, lost);
        }
    }

    fn on_submit(&mut self, i: usize) {
        let (id, arrival, deadline) = {
            let spec = &self.specs[i];
            (spec.id, spec.arrival, spec.deadline)
        };
        // The submission hop: sent at arrival from the client terminal,
        // delivered (or refused) now.
        self.sink
            .span(self.now, SiteId::Server, id, SpanKind::Net, arrival, None);
        if !self.core.server_up {
            // In flight when the server went down: refused at the door.
            self.core.gate_dropped += 1;
            self.record_crash_loss(i);
            return;
        }
        let key = id.as_u64();
        if self.specs[i].is_expired(self.now) {
            self.finish(i, TxnOutcome::Aborted(AbortReason::Expired));
            return;
        }
        self.inflight += 1;
        let mut txn = CeTxn {
            spec: i as u32,
            phase: Phase::Locks,
            blocked: InlineVec::new(),
            wait_started: self.now,
            blocked_total: SimDuration::ZERO,
            blocked_on: None,
            io_started: self.now,
        };
        // Acquire all locks up front (the access set is known, §5.1). The
        // spec borrow coexists with the lock/WFG/sink calls because those
        // only touch their own fields.
        let mut deadlocked = false;
        for access in &self.specs[i].accesses {
            let mode = access.mode();
            let conflicts = self.core.locks.conflicting_holders(access.object, key, mode);
            if self.core.wfg.would_deadlock(key, conflicts) {
                deadlocked = true;
                break;
            }
            match self.core.locks.request(access.object, key, mode, deadline) {
                Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                    let (object, exclusive) = (access.object, mode == LockMode::Exclusive);
                    self.sink.emit(self.now, SiteId::Server, || Event::LockHeld {
                        txn: id,
                        object,
                        exclusive,
                    });
                }
                Acquire::Blocked { conflicts } => {
                    let object = access.object;
                    self.sink.emit(self.now, SiteId::Server, || Event::LockWait {
                        txn: id,
                        object,
                    });
                    if txn.blocked_on.is_none() {
                        txn.blocked_on = conflicts.first().copied().map(TransactionId::from_raw);
                    }
                    txn.blocked.push(access.object);
                    self.core.wfg.add_waits(key, conflicts);
                }
            }
        }
        if deadlocked {
            self.abort(key, txn, AbortReason::Deadlock);
            return;
        }
        let ready = txn.blocked.is_empty();
        self.txns.insert(key, txn);
        if ready {
            self.start_io(key);
        }
    }

    /// Removes every trace of an un-inserted transaction.
    fn abort(&mut self, key: Key, txn: CeTxn, reason: AbortReason) {
        let i = txn.spec as usize;
        let id = self.specs[i].id;
        self.emit_phase_span(&txn);
        self.sink
            .emit(self.now, SiteId::Server, || Event::Abort { txn: id, reason });
        self.sink.emit(self.now, SiteId::Server, || Event::UnitEnd {
            txn: id,
            committed: false,
        });
        if self.core.store.has_updates(key) {
            // Roll the logged page writes back in place (compensation
            // records keep replay honest if a crash follows).
            self.core.store.abort(key);
            self.sink
                .emit(self.now, SiteId::Server, || Event::WalAbort { txn: id });
        }
        self.release_locks(key);
        self.inflight -= 1;
        self.send_result(i, false);
        if self.measured_at(i) {
            let outcome = TxnOutcome::Aborted(reason);
            self.metrics
                .record(&self.sink, self.now, SiteId::Server, id, outcome);
            self.metrics.blocking.push_duration(txn.blocked_total);
        }
    }

    fn abort_inflight(&mut self, key: Key, reason: AbortReason) {
        if let Some(txn) = self.txns.remove(&key) {
            if txn.phase == Phase::Cpu {
                if let Some((t, g)) = self.cpu.remove(self.now, key) {
                    self.queue.push(t, Ev::CpuTick(g));
                }
            }
            self.abort(key, txn, reason);
        }
    }

    fn release_locks(&mut self, key: Key) {
        let grants = self.core.locks.release_all(key);
        self.core.wfg.remove_node(key);
        for (object, waiters) in grants {
            for w in waiters {
                self.on_lock_granted(object, w.owner);
            }
        }
    }

    fn on_lock_granted(&mut self, object: ObjectId, key: Key) {
        let Some(txn) = self.txns.get_mut(&key) else {
            // Granted to a transaction that already aborted: free it again,
            // cascading to any waiters unblocked by the release.
            let grants = self.core.locks.release(object, key);
            for w in grants {
                self.on_lock_granted(object, w.owner);
            }
            return;
        };
        txn.blocked.retain(|&o| o != object);
        let i = txn.spec as usize;
        // Copy the still-blocked set into a recycled scratch buffer: the
        // WFG refresh below needs `&mut self` calls the txn borrow would
        // otherwise outlaw, and a fresh Vec here would allocate per grant.
        let mut still = std::mem::take(&mut self.scratch_objs);
        still.clear();
        still.extend(txn.blocked.iter().copied());
        let id = self.specs[i].id;
        let exclusive = self.specs[i].required_mode(object) == Some(LockMode::Exclusive);
        self.sink.emit(self.now, SiteId::Server, || Event::LockHeld {
            txn: id,
            object,
            exclusive,
        });
        // Refresh this waiter's wait-for edges against current holders.
        self.core.wfg.clear_waits(key);
        if self.specs[i].is_expired(self.now) {
            still.clear();
            self.scratch_objs = still;
            self.abort_inflight(key, AbortReason::Expired);
            return;
        }
        for &o in &still {
            let mode = self.specs[i].required_mode(o).unwrap_or(LockMode::Shared);
            let conflicts = self.core.locks.conflicting_holders(o, key, mode);
            self.core.wfg.add_waits(key, conflicts);
        }
        still.clear();
        self.scratch_objs = still;
        let ready = self
            .txns
            .get(&key)
            .is_some_and(|t| t.blocked.is_empty() && t.phase == Phase::Locks);
        if ready {
            self.start_io(key);
        }
    }

    fn start_io(&mut self, key: Key) {
        let Some(txn) = self.txns.get_mut(&key) else {
            return;
        };
        txn.blocked_total += self.now.duration_since(txn.wait_started);
        let (i, wait_started, blocked_on) = (txn.spec as usize, txn.wait_started, txn.blocked_on);
        txn.phase = Phase::Io;
        txn.io_started = self.now;
        let id = self.specs[i].id;
        let measured = self.specs[i].arrival >= self.warmup_end;
        let lock_wait = SpanKind::LockWait;
        self.sink
            .span(self.now, SiteId::Server, id, lock_wait, wait_started, blocked_on);
        let mut misses = 0u32;
        for o in self.specs[i].objects() {
            let hit = self.core.buffer.probe(o).is_some();
            if !hit {
                misses += 1;
                self.core.buffer.insert(o);
            }
            if measured {
                self.metrics.server_buffer.record(hit);
            }
        }
        let done = if misses == 0 {
            self.now
        } else {
            self.core.disk.schedule_batch(self.now, misses)
        };
        self.queue.push(done, Ev::IoDone(key));
    }

    fn on_io_done(&mut self, key: Key) {
        let (i, io_started) = {
            let Some(txn) = self.txns.get_mut(&key) else {
                return;
            };
            (txn.spec as usize, txn.io_started)
        };
        if self.specs[i].is_expired(self.now) {
            self.abort_inflight(key, AbortReason::Expired);
            return;
        }
        self.txns.get_mut(&key).expect("present above").phase = Phase::Cpu;
        let (id, deadline, demand) = {
            let spec = &self.specs[i];
            (spec.id, spec.deadline, spec.cpu_demand)
        };
        self.sink
            .span(self.now, SiteId::Server, id, SpanKind::Disk, io_started, None);
        // The pages are in memory and the locks are held: log the update
        // transaction's page writes now, so a crash during its CPU phase
        // leaves genuine losers for recovery to roll back.
        for a in &self.specs[i].accesses {
            if a.mode() != LockMode::Exclusive {
                continue;
            }
            let object = a.object;
            let stamp = self.core.store.write(key, object);
            self.sink.emit(self.now, SiteId::Server, || Event::WalWrite {
                txn: id,
                page: object,
                stamp,
            });
        }
        self.sink
            .emit(self.now, SiteId::Server, || Event::ExecStart { txn: id });
        if let Some((t, g)) = self.cpu.submit(self.now, key, deadline, demand) {
            self.queue.push(t, Ev::CpuTick(g));
        }
    }

    fn on_cpu_tick(&mut self, generation: u64) {
        match self.cpu.on_completion(self.now, generation) {
            Tick::Stale => {}
            Tick::Done { finished, next } => {
                if let Some((t, g)) = next {
                    self.queue.push(t, Ev::CpuTick(g));
                }
                for &key in finished.iter() {
                    self.commit(key);
                }
            }
        }
    }

    fn commit(&mut self, key: Key) {
        let Some(mut txn) = self.txns.remove(&key) else {
            return;
        };
        txn.phase = Phase::Done;
        let i = txn.spec as usize;
        let id = self.specs[i].id;
        let latency_us = self.now.duration_since(self.specs[i].arrival).as_micros();
        let slack_us = self.specs[i].deadline.as_micros() as i64 - self.now.as_micros() as i64;
        self.sink.emit(self.now, SiteId::Server, || Event::Commit {
            txn: id,
            latency_us,
            slack_us,
        });
        self.sink.emit(self.now, SiteId::Server, || Event::UnitEnd {
            txn: id,
            committed: true,
        });
        if self.core.store.has_updates(key) {
            // Force the commit record before acknowledging (WAL rule).
            let checkpoints = self.core.store.checkpoints();
            self.core.store.commit(key);
            self.sink
                .emit(self.now, SiteId::Server, || Event::WalCommit { txn: id });
            if self.core.store.checkpoints() > checkpoints {
                let active = self.core.store.active_txns() as u32;
                let log_records = self.core.store.log_records();
                self.sink.emit(self.now, SiteId::Server, || Event::WalCheckpoint {
                    active,
                    log_records,
                });
            }
        }
        self.release_locks(key);
        self.inflight -= 1;
        self.send_result(i, true);
        if self.measured_at(i) {
            self.metrics.blocking.push_duration(txn.blocked_total);
        }
    }

    fn send_result(&mut self, i: usize, committed: bool) {
        let (id, origin, deadline, arrival) = {
            let spec = &self.specs[i];
            (spec.id, spec.origin, spec.deadline, spec.arrival)
        };
        let delivery = self.fabric.try_send(
            self.now,
            SiteId::Server,
            SiteId::Client(origin),
            MessageKind::TxnResult,
            0,
        );
        if committed {
            match delivery {
                Delivery::Delivered(t) => self.queue.push(
                    t,
                    Ev::Result {
                        txn: id,
                        measured: arrival >= self.warmup_end,
                        deadline,
                        arrival,
                        sent_at: self.now,
                    },
                ),
                // The commit is durable but the client never learns of it:
                // the origin's timeout scores the transaction as lost.
                Delivery::Dropped => self.record_crash_loss(i),
            }
        }
    }

    fn on_result(
        &mut self,
        txn: TransactionId,
        measured: bool,
        deadline: SimTime,
        arrival: SimTime,
        sent_at: SimTime,
    ) {
        // Only commits route through here; aborts are recorded at abort
        // time. The deadline test uses the instant the user-facing client
        // learns the result.
        let (now, site) = (self.now, SiteId::Client(txn.origin()));
        self.sink
            .span(now, site, txn, SpanKind::Commit, sent_at, None);
        if measured {
            let metrics = &mut self.metrics;
            if !metrics.record_commit(&self.sink, now, site, txn, deadline, arrival) {
                // CE's latency statistic counts late commits too.
                metrics.latency.push_duration(now.duration_since(arrival));
            }
        }
    }

    fn finish(&mut self, i: usize, outcome: TxnOutcome) {
        self.send_result(i, false);
        if self.measured_at(i) {
            let id = self.specs[i].id;
            self.metrics
                .record(&self.sink, self.now, SiteId::Server, id, outcome);
        }
    }

    fn on_sweep(&mut self) {
        // Drop transactions that missed their deadline, including ones on
        // the CPU ("tasks that have missed their deadlines are not
        // processed at all", §2) — this is what keeps the overloaded
        // centralized server doing useful work for feasible transactions.
        let mut dead: Vec<Key> = self
            // detlint: allow(D2) — `dead.sort_unstable()` below, before the abort cascade
            .txns
            .iter()
            .filter(|(_, t)| self.specs[t.spec as usize].is_expired(self.now))
            .map(|(&k, _)| k)
            .collect();
        // HashMap iteration order is process-random; the abort cascade
        // (lock grants, CPU reschedules) is order-sensitive, so sort to
        // keep runs reproducible across invocations.
        dead.sort_unstable();
        for key in dead {
            self.abort_inflight(key, AbortReason::Expired);
        }
        let (expired, grants) = self.core.locks.cancel_expired(self.now);
        for (_obj, waiter) in expired {
            self.abort_inflight(waiter.owner, AbortReason::Expired);
        }
        for (object, waiters) in grants {
            for w in waiters {
                self.on_lock_granted(object, w.owner);
            }
        }
        if self.inflight > 0 || !self.queue.is_empty() {
            self.queue
                .push(self.now + SimDuration::from_secs(1), Ev::Sweep);
        }
    }

    /// The server crashes: besides what [`ServerCore::crash`] loses, every
    /// in-flight transaction becomes a recovery loser.
    fn on_server_crash(&mut self) {
        if !self.core.server_up {
            return; // scheduled crash landed while already down
        }
        let ready = self.core.crash(
            self.now,
            &self.cfg,
            &self.sink,
            &mut self.fabric,
            &mut self.metrics,
        );
        // detlint: allow(D2) — `keys.sort_unstable()` follows, before the abort cascade
        let mut keys: Vec<Key> = self.txns.keys().copied().collect();
        // HashMap iteration order is process-random; sort so the abort
        // cascade stays reproducible across invocations.
        keys.sort_unstable();
        for key in keys {
            let Some(txn) = self.txns.remove(&key) else {
                continue;
            };
            if txn.phase == Phase::Cpu {
                if let Some((t, g)) = self.cpu.remove(self.now, key) {
                    self.queue.push(t, Ev::CpuTick(g));
                }
            }
            let i = txn.spec as usize;
            let id = self.specs[i].id;
            self.emit_phase_span(&txn);
            self.sink.emit(self.now, SiteId::Server, || Event::Abort {
                txn: id,
                reason: AbortReason::SiteCrash,
            });
            self.sink.emit(self.now, SiteId::Server, || Event::UnitEnd {
                txn: id,
                committed: false,
            });
            // No `store.abort`: logged-but-uncommitted writes are genuine
            // losers for replay to roll back. No result message either —
            // the server is down; the origin's timeout scores the loss.
            self.inflight -= 1;
            if self.measured_at(i) {
                let lost = TxnOutcome::Aborted(AbortReason::SiteCrash);
                self.metrics
                    .record(&self.sink, self.now, SiteId::Server, id, lost);
                self.metrics.blocking.push_duration(txn.blocked_total);
            }
        }
        if let Some(ready) = ready {
            self.queue.push(ready, Ev::ServerRecover);
        }
    }

    /// Replay finished: the server rejoins with only durable state.
    fn on_server_recover(&mut self) {
        let crashed_at = self
            .core
            .rejoin(self.now, &self.sink, &mut self.fabric, &mut self.metrics);
        // Site-scoped replay span (`txn: None`): the outage window is
        // charged to every transaction whose life overlaps it.
        if let Some(start) = crashed_at {
            if start < self.now {
                self.sink.emit(self.now, SiteId::Server, || Event::Span {
                    txn: None,
                    kind: SpanKind::Replay,
                    start,
                    blocker: None,
                });
            }
        }
        self.sink.emit(self.now, SiteId::Server, || Event::SiteRecover {
            site: SiteId::Server,
        });
    }
}

impl std::fmt::Debug for CentralizedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CentralizedSim")
            .field("now", &self.now)
            .field("inflight", &self.inflight)
            .field("events", &self.queue.len())
            .finish()
    }
}
