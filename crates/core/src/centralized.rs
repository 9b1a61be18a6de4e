//! The centralized real-time database (CE-RTDBS, §2), as a server site.
//!
//! Clients are terminals: they forward transactions to the server and
//! receive results. The server schedules transactions Earliest-Deadline-
//! First, executes up to `max_concurrent_txns` of them concurrently on a
//! processor-sharing CPU (the prototype's thread-per-transaction design),
//! locks objects with strict 2PL under wait-for deadlock avoidance,
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
//!
//! The terminals keep no state, so they are two functions, not sites:
//! `submit` sends an arriving transaction to the server as a
//! `TxnSubmit` message, and `on_result` scores the `TxnResult` that comes
//! back at its origin. A transaction's spec stays in the run's arena
//! (`Cx::specs`) and is referenced by index, so neither the message nor
//! the server's per-transaction state carries its access list. The `CentralizedServer` acts through the shared
//! `Cx` like the CS/LS sites, and the one event loop in
//! [`crate::clientserver`] drives all of them.
//!
//! [`DurableStore`]: siteselect_storage::DurableStore

use std::collections::HashMap;

use siteselect_locks::table::{ExpiredWaiters, UnblockedGrants};
use siteselect_locks::{Acquire, QueueDiscipline};
use siteselect_net::MessageKind;
use siteselect_obs::{Event, SpanKind};
use siteselect_sim::Prng;
use siteselect_types::{
    AbortReason, ExperimentConfig, FixedState, LockMode, ObjectId, SimDuration, SimTime,
    SiteId, TransactionId, TransactionSpec, TxnOutcome,
};

use crate::clientserver::{Cx, Ev, Msg, SiteDest, TKey};
use crate::cpu::{PsCpu, Tick};
use crate::server_core::ServerCore;

/// Transaction `index` of the run's arena.
fn spec_at(specs: &[TransactionSpec], index: u32) -> &TransactionSpec {
    &specs[index as usize]
}

/// A client terminal initiates transaction `index` of the arena: it
/// travels to the server, which runs it.
pub(crate) fn submit(cx: &mut Cx, index: u32) {
    cx.arrived += 1;
    let spec = spec_at(&cx.specs, index);
    let (txn, origin, arrival, deadline) = (spec.id, spec.origin, spec.arrival, spec.deadline);
    let accesses = spec.accesses.len() as u32;
    let submit = || Event::TxnSubmit {
        txn,
        deadline,
        accesses,
    };
    cx.sink.emit(cx.now, SiteId::Client(origin), submit);
    let msg = Msg::TxnSubmit {
        index,
        txn,
        arrival,
        deadline,
    };
    cx.send_to_server(0, 1, msg);
}

/// A commit's result reaches its terminal. The deadline test uses the
/// instant the user learns the result, and CE's latency statistic counts
/// late commits too. (An abort was scored at the server.)
pub(crate) fn on_result(cx: &mut Cx, msg: Msg) {
    let Msg::TxnResult {
        txn,
        deadline,
        arrival,
        sent_at,
        ..
    } = msg
    else {
        unreachable!("a CE terminal hears only results");
    };
    let site = SiteId::Client(txn.origin());
    cx.sink
        .span(cx.now, site, txn, SpanKind::Commit, sent_at, None);
    cx.settle(txn, arrival, deadline, None);
    if cx.measured_arrival(arrival) && cx.now > deadline {
        cx.metrics
            .latency
            .push_duration(cx.now.duration_since(arrival));
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Locks,
    Io,
    Cpu,
}

/// Per-transaction server state. The spec stays in the arena and the lock
/// table records which objects it waits on, so creating and retiring one
/// of these never heap-allocates.
#[derive(Debug)]
struct CeTxn {
    /// Index of the transaction's spec in `Cx::specs`.
    spec: u32,
    phase: Phase,
    /// Locks requested and not yet granted. A spec names each object
    /// once, so each wait ends in exactly one grant (or an abort).
    awaited: u16,
    wait_started: SimTime,
    blocked_total: SimDuration,
    /// Trace-only: the first conflicting holder seen at submit, reported as
    /// the blocker on the lock-wait span.
    blocked_on: Option<TransactionId>,
    /// When the buffer/disk read batch was issued (start of the disk span).
    io_started: SimTime,
}

/// CE's server site: the shared server core (lock table at transaction
/// granularity under a deadline-ordered queue, buffer, disk and durable
/// store), the processor-sharing CPU, and the transactions it is running.
pub(crate) struct CentralizedServer {
    pub(crate) core: ServerCore<TKey>,
    cpu: PsCpu<TKey>,
    /// Keyed by transaction id with the fixed-state hasher, so the map
    /// rehashes (and allocates) at the same steps in every process.
    txns: HashMap<TKey, CeTxn, FixedState>,
    /// Spare lists for the grants a release or a sweep unblocks. A grant
    /// can abort its transaction, whose release needs a list of its own
    /// before the first is done, so each call takes one and puts it back.
    spare_grants: Vec<UnblockedGrants<TKey>>,
    /// The sweep's scratch: the transactions past their deadline, and the
    /// lock waiters.
    dead: Vec<TKey>,
    expired: ExpiredWaiters<TKey>,
}

impl CentralizedServer {
    pub(crate) fn new(cfg: &ExperimentConfig) -> Self {
        CentralizedServer {
            core: ServerCore::new(cfg, QueueDiscipline::Deadline),
            cpu: PsCpu::new(cfg.cpu.server_speed, cfg.server.max_concurrent_txns),
            txns: HashMap::default(),
            spare_grants: Vec::new(),
            dead: Vec::new(),
            expired: Vec::new(),
        }
    }

    /// Pre-generates this server's crashes and the slow-disk episodes.
    /// Unlike the CS server's schedule, crashes are not spaced out by a
    /// drawn recovery time: one that lands while the server is down is a
    /// no-op (DESIGN.md §16).
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
                    break; // permanent crash: the server never rejoins
                }
            }
        }
        self.core.schedule_slow_disk(&cx.cfg);
    }

    /// A submission arrives (the driver's door check let it in).
    pub(crate) fn on_msg(&mut self, cx: &mut Cx, msg: Msg) {
        let Msg::TxnSubmit { index, .. } = msg else {
            unreachable!("CE's server hears only submissions");
        };
        let mut txn = CeTxn {
            spec: index,
            phase: Phase::Locks,
            awaited: 0,
            wait_started: cx.now,
            blocked_total: SimDuration::ZERO,
            blocked_on: None,
            io_started: cx.now,
        };
        let spec = spec_at(&cx.specs, index);
        if spec.is_expired(cx.now) {
            return self.abort(cx, txn, AbortReason::Expired, false);
        }
        // Acquire all locks up front (the access set is known, §5.1).
        let (id, deadline) = (spec.id, spec.deadline);
        let key = id.as_u64();
        for access in &spec.accesses {
            let (object, mode) = (access.object, access.mode());
            let conflicts = self.core.locks.conflicting_holders(object, key, mode);
            if self.core.locks.would_deadlock(key, conflicts) {
                return self.abort(cx, txn, AbortReason::Deadlock, true);
            }
            match self.core.locks.request(object, key, mode, deadline) {
                Acquire::Granted | Acquire::AlreadyHeld | Acquire::Upgraded => {
                    let exclusive = mode == LockMode::Exclusive;
                    cx.sink.emit(cx.now, SiteId::Server, || Event::LockHeld {
                        txn: id,
                        object,
                        exclusive,
                    });
                }
                Acquire::Blocked { behind } => {
                    cx.sink.emit(cx.now, SiteId::Server, || Event::LockWait {
                        txn: id,
                        object,
                    });
                    if txn.blocked_on.is_none() {
                        txn.blocked_on = Some(TransactionId::from_raw(behind));
                    }
                    txn.awaited += 1;
                }
            }
        }
        let ready = txn.awaited == 0;
        self.txns.insert(key, txn);
        if ready {
            self.start_io(cx, key);
        }
    }

    /// The one way a transaction ends without a commit. `ran` is false for
    /// one refused at submission, which never held anything. A crash
    /// (`SiteCrash`) sends nothing and undoes nothing: the lock table and
    /// the wire went down with the server, and replay rolls the logged
    /// writes back. Otherwise the writes roll back in place, the locks go
    /// to the next waiters, and a result notice goes on the wire; the abort
    /// itself is scored here, at the server.
    fn abort(&mut self, cx: &mut Cx, txn: CeTxn, reason: AbortReason, ran: bool) {
        let spec = spec_at(&cx.specs, txn.spec);
        let (id, arrival, now) = (spec.id, spec.arrival, cx.now);
        let key = id.as_u64();
        let crashed = reason == AbortReason::SiteCrash;
        if ran {
            // Close out the span of the phase it dies in, so an aborted
            // transaction still accounts for the wait that killed it.
            let phase = match txn.phase {
                Phase::Locks => Some((SpanKind::LockWait, txn.wait_started, txn.blocked_on)),
                Phase::Io => Some((SpanKind::Disk, txn.io_started, None)),
                Phase::Cpu => None,
            };
            if let Some((kind, start, blocker)) = phase {
                cx.sink.span(now, SiteId::Server, id, kind, start, blocker);
            }
            cx.sink
                .emit(now, SiteId::Server, || Event::Abort { txn: id, reason });
            cx.sink.emit(now, SiteId::Server, || Event::UnitEnd {
                txn: id,
                committed: false,
            });
        }
        if ran && !crashed {
            if self.core.store.has_updates(key) {
                // Compensation records keep replay honest if a crash follows.
                self.core.store.abort(key);
                cx.sink
                    .emit(now, SiteId::Server, || Event::WalAbort { txn: id });
            }
            self.release_locks(cx, key);
        }
        if !crashed {
            send_result(cx, txn.spec, false);
        }
        cx.settled += 1;
        if cx.measured_arrival(arrival) {
            let outcome = TxnOutcome::Aborted(reason);
            cx.metrics
                .record(&cx.sink, now, SiteId::Server, id, outcome);
            if ran {
                cx.metrics.blocking.push_duration(txn.blocked_total);
            }
        }
    }

    /// Takes `key` off the server (and its CPU) and aborts it.
    fn abort_inflight(&mut self, cx: &mut Cx, key: TKey, reason: AbortReason) {
        let Some(txn) = self.txns.remove(&key) else {
            return;
        };
        if txn.phase == Phase::Cpu {
            arm_cpu(cx, self.cpu.remove(cx.now, key));
        }
        self.abort(cx, txn, reason, true);
    }

    fn release_locks(&mut self, cx: &mut Cx, key: TKey) {
        let mut grants = self.spare_grants.pop().unwrap_or_default();
        self.core.locks.release_all_into(key, &mut grants);
        self.grant_all(cx, grants);
    }

    /// Hands each of `grants`' waiters its lock, in order, and keeps the
    /// emptied list as a spare.
    fn grant_all(&mut self, cx: &mut Cx, mut grants: UnblockedGrants<TKey>) {
        for (object, waiters) in grants.drain(..) {
            for w in waiters {
                self.on_lock_granted(cx, object, w.owner);
            }
        }
        self.spare_grants.push(grants);
    }

    fn on_lock_granted(&mut self, cx: &mut Cx, object: ObjectId, key: TKey) {
        let Some(txn) = self.txns.get_mut(&key) else {
            // Granted to a transaction that already aborted: free it again,
            // cascading to any waiters unblocked by the release.
            for w in self.core.locks.release(object, key) {
                self.on_lock_granted(cx, object, w.owner);
            }
            return;
        };
        txn.awaited -= 1;
        let spec = spec_at(&cx.specs, txn.spec);
        let id = spec.id;
        let exclusive = spec.required_mode(object) == Some(LockMode::Exclusive);
        cx.sink.emit(cx.now, SiteId::Server, || Event::LockHeld {
            txn: id,
            object,
            exclusive,
        });
        if spec.is_expired(cx.now) {
            return self.abort_inflight(cx, key, AbortReason::Expired);
        }
        if txn.awaited == 0 && txn.phase == Phase::Locks {
            self.start_io(cx, key);
        }
    }

    fn start_io(&mut self, cx: &mut Cx, key: TKey) {
        let Some(txn) = self.txns.get_mut(&key) else {
            return;
        };
        let now = cx.now;
        txn.blocked_total += now.duration_since(txn.wait_started);
        txn.phase = Phase::Io;
        txn.io_started = now;
        let spec = spec_at(&cx.specs, txn.spec);
        let (id, lock_wait) = (spec.id, SpanKind::LockWait);
        let (start, blocker) = (txn.wait_started, txn.blocked_on);
        cx.sink
            .span(now, SiteId::Server, id, lock_wait, start, blocker);
        let measured = cx.measured_arrival(spec.arrival);
        let mut misses = 0u32;
        for o in spec.objects() {
            let hit = self.core.buffer.probe(o).is_some();
            if !hit {
                misses += 1;
                self.core.buffer.insert(o);
            }
            if measured {
                cx.metrics.server_buffer.record(hit);
            }
        }
        let done = if misses == 0 {
            now
        } else {
            self.core.disk.schedule_batch(now, misses)
        };
        cx.queue.push(done, Ev::ServerIo { txn: key });
    }

    /// The buffer/disk reads of `key` finished: log its writes and put it
    /// on the CPU.
    pub(crate) fn on_io_done(&mut self, cx: &mut Cx, key: TKey) {
        let Some(txn) = self.txns.get_mut(&key) else {
            return;
        };
        let (now, spec) = (cx.now, spec_at(&cx.specs, txn.spec));
        if spec.is_expired(now) {
            return self.abort_inflight(cx, key, AbortReason::Expired);
        }
        txn.phase = Phase::Cpu;
        let (id, disk) = (spec.id, SpanKind::Disk);
        cx.sink
            .span(now, SiteId::Server, id, disk, txn.io_started, None);
        // The pages are in memory and the locks are held: log the update
        // transaction's page writes now, so a crash during its CPU phase
        // leaves genuine losers for recovery to roll back.
        for page in spec.write_set() {
            let stamp = self.core.store.write(key, page);
            cx.sink.emit(now, SiteId::Server, || Event::WalWrite {
                txn: id,
                page,
                stamp,
            });
        }
        cx.sink
            .emit(now, SiteId::Server, || Event::ExecStart { txn: id });
        let tick = self.cpu.submit(now, key, spec.deadline, spec.cpu_demand);
        arm_cpu(cx, tick);
    }

    pub(crate) fn on_cpu_tick(&mut self, cx: &mut Cx, generation: u64) {
        if let Tick::Done { finished, next } = self.cpu.on_completion(cx.now, generation) {
            arm_cpu(cx, next);
            for &key in finished.iter() {
                self.commit(cx, key);
            }
        }
    }

    fn commit(&mut self, cx: &mut Cx, key: TKey) {
        let Some(txn) = self.txns.remove(&key) else {
            return;
        };
        let (spec, now) = (spec_at(&cx.specs, txn.spec), cx.now);
        let (id, arrival) = (spec.id, spec.arrival);
        let latency_us = now.duration_since(spec.arrival).as_micros();
        let slack_us = spec.deadline.as_micros() as i64 - now.as_micros() as i64;
        cx.sink.emit(now, SiteId::Server, || Event::Commit {
            txn: id,
            latency_us,
            slack_us,
        });
        cx.sink.emit(now, SiteId::Server, || Event::UnitEnd {
            txn: id,
            committed: true,
        });
        if self.core.store.has_updates(key) {
            self.core.force_commit(now, &cx.sink, key);
        }
        self.release_locks(cx, key);
        send_result(cx, txn.spec, true);
        if cx.measured_arrival(arrival) {
            cx.metrics.blocking.push_duration(txn.blocked_total);
        }
    }

    /// Drops transactions that missed their deadline, including ones on
    /// the CPU ("tasks that have missed their deadlines are not processed
    /// at all", §2) — this is what keeps the overloaded centralized server
    /// doing useful work for feasible transactions.
    pub(crate) fn sweep(&mut self, cx: &mut Cx) {
        let now = cx.now;
        let mut dead = std::mem::take(&mut self.dead);
        dead.extend(
            self
                // detlint: allow(D2) — `dead.sort_unstable()` below, before the abort cascade
                .txns
                .iter()
                .filter_map(|(&k, t)| spec_at(&cx.specs, t.spec).is_expired(now).then_some(k)),
        );
        // HashMap iteration order is implementation-defined even with a
        // fixed hasher; the abort cascade (lock grants, CPU reschedules) is
        // order-sensitive, so sort to keep runs reproducible.
        dead.sort_unstable();
        for key in dead.drain(..) {
            self.abort_inflight(cx, key, AbortReason::Expired);
        }
        self.dead = dead;
        let mut expired = std::mem::take(&mut self.expired);
        let mut grants = self.spare_grants.pop().unwrap_or_default();
        self.core
            .locks
            .cancel_expired_into(now, &mut expired, &mut grants);
        for (_obj, waiter) in expired.drain(..) {
            self.abort_inflight(cx, waiter.owner, AbortReason::Expired);
        }
        self.expired = expired;
        self.grant_all(cx, grants);
    }

    /// The server crashes: besides what [`ServerCore::crash`] loses, every
    /// in-flight transaction becomes a recovery loser. Returns when to
    /// rejoin, if ever.
    pub(crate) fn crash(&mut self, cx: &mut Cx) -> Option<SimTime> {
        let ready = self
            .core
            .crash(cx.now, &cx.cfg, &cx.sink, &mut cx.fabric, &mut cx.metrics);
        // detlint: allow(D2) — `keys.sort_unstable()` follows, before the abort cascade
        let mut keys: Vec<TKey> = self.txns.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            self.abort_inflight(cx, key, AbortReason::SiteCrash);
        }
        ready
    }

    /// Replay finished: the server rejoins with only durable state.
    pub(crate) fn rejoin(&mut self, cx: &mut Cx) {
        let now = cx.now;
        let crashed_at = self
            .core
            .rejoin(now, &cx.sink, &mut cx.fabric, &mut cx.metrics);
        // Site-scoped replay span (`txn: None`): the outage window is
        // charged to every transaction whose life overlaps it.
        if let Some(start) = crashed_at.filter(|&start| start < now) {
            cx.sink.emit(now, SiteId::Server, || Event::Span {
                txn: None,
                kind: SpanKind::Replay,
                start,
                blocker: None,
            });
        }
        cx.sink.emit(now, SiteId::Server, || Event::SiteRecover {
            site: SiteId::Server,
        });
    }

    /// Closes out the server's part of the run's metrics; `span` is the
    /// run's simulated length in seconds.
    pub(crate) fn finalize(&self, cx: &mut Cx, span: f64) {
        // Every transaction reached an outcome, so nobody waits for anybody.
        debug_assert_eq!(self.core.locks.check_invariants(), Ok(()));
        debug_assert!(!self.core.locks.has_waiters());
        cx.metrics.server_cpu_utilization = (self.cpu.busy_time().as_secs_f64() / span).min(1.0);
        self.core.report_faults(cx);
    }
}

/// Schedules the CPU's next completion tick, if it has one.
fn arm_cpu(cx: &mut Cx, tick: Option<(SimTime, u64)>) {
    if let Some((at, generation)) = tick {
        cx.queue.push(at, Ev::ServerCpu { generation });
    }
}

/// Puts the result of transaction `index` on the wire to its terminal.
/// Only a commit's result is awaited there; an abort's notice costs its
/// wire slot but was scored at the server. A lost commit result is scored
/// by the origin's timeout, as a crash loss.
fn send_result(cx: &mut Cx, index: u32, committed: bool) {
    let spec = spec_at(&cx.specs, index);
    let (origin, kind) = (spec.origin, MessageKind::TxnResult);
    let result = Msg::TxnResult {
        from: SiteId::Server,
        txn: spec.id,
        committed,
        deadline: spec.deadline,
        arrival: spec.arrival,
        sent_at: cx.now,
    };
    let to = SiteId::Client(origin);
    let delivery = cx.fabric.try_send(cx.now, SiteId::Server, to, kind, 0);
    if committed {
        cx.push_delivery(delivery, SiteDest::Client(origin), result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{AccessSpec, ClientId, SystemKind};

    fn site() -> (CentralizedServer, Cx) {
        let mut cfg = ExperimentConfig::paper(SystemKind::Centralized, 4, 0.2);
        cfg.runtime.duration = SimDuration::from_secs(50);
        cfg.runtime.warmup = SimDuration::ZERO;
        (CentralizedServer::new(&cfg), Cx::new(cfg))
    }

    /// Transaction `seq` of terminal `origin` as the terminal sends it, and
    /// its key.
    fn submission(cx: &mut Cx, origin: u16, seq: u64, accesses: Vec<AccessSpec>) -> (TKey, Msg) {
        let txn = TransactionId::new(ClientId(origin), seq);
        let (arrival, deadline) = (cx.now, cx.now + SimDuration::from_secs(100));
        cx.specs.push(TransactionSpec {
            id: txn,
            origin: ClientId(origin),
            arrival,
            deadline,
            cpu_demand: SimDuration::from_millis(10),
            accesses,
            decomposable: false,
        });
        cx.arrived += 1; // a terminal counts its transaction at arrival
        let index = cx.specs.len() as u32 - 1;
        let msg = Msg::TxnSubmit {
            index,
            txn,
            arrival,
            deadline,
        };
        (txn.as_u64(), msg)
    }

    /// Runs the server's own events (reads, CPU ticks) until none are left
    /// and returns what it sent, in delivery order.
    fn run_server(s: &mut CentralizedServer, cx: &mut Cx) -> Vec<(SiteDest, Msg)> {
        let mut sent = Vec::new();
        while let Some((t, ev)) = cx.queue.pop() {
            cx.now = t;
            match ev {
                Ev::ServerIo { txn } => s.on_io_done(cx, txn),
                Ev::ServerCpu { generation } => s.on_cpu_tick(cx, generation),
                Ev::Deliver { to, msgs } => sent.extend(msgs.into_iter().map(|m| (to, m))),
                other => panic!("the server scheduled {other:?}"),
            }
        }
        sent
    }

    #[test]
    fn a_conflicting_submit_waits_and_the_first_commit_grants_it() {
        let (mut s, mut cx) = site();
        let object = ObjectId(7);
        let (writer, w) = submission(&mut cx, 1, 1, vec![AccessSpec::write(object)]);
        let (reader, r) = submission(&mut cx, 2, 1, vec![AccessSpec::read(object)]);
        s.on_msg(&mut cx, w);
        s.on_msg(&mut cx, r);
        // The reader waits behind the writer, so the writer waiting for
        // the reader would close a cycle.
        assert_eq!(
            s.core.locks.held_mode(object, writer),
            Some(LockMode::Exclusive)
        );
        assert_eq!(s.txns[&reader].awaited, 1);
        let waiters = s.core.locks.waiters(object);
        assert_eq!(waiters.iter().map(|w| w.owner).collect::<Vec<_>>(), [reader]);
        assert!(s.core.locks.would_deadlock(writer, [reader]));
        // The writer's commit grants the reader, which then commits too;
        // each result goes to its own terminal.
        let results: Vec<(SiteDest, TKey)> = run_server(&mut s, &mut cx)
            .into_iter()
            .map(|(to, m)| match m {
                Msg::TxnResult {
                    txn,
                    committed: true,
                    ..
                } => (to, txn.as_u64()),
                other => panic!("the server sent {other:?}"),
            })
            .collect();
        let to = |c| SiteDest::Client(ClientId(c));
        assert_eq!(results, [(to(1), writer), (to(2), reader)]);
        assert!(s.txns.is_empty());
        assert!(!s.core.locks.has_waiters());
        assert!(!s.core.locks.would_deadlock(writer, [reader]));
        assert_eq!(s.core.locks.held_mode(object, reader), None);
    }

    #[test]
    fn a_wait_that_would_close_a_cycle_aborts_with_deadlock() {
        let (mut s, mut cx) = site();
        let (a, b) = (ObjectId(1), ObjectId(2));
        let accesses = vec![AccessSpec::write(a), AccessSpec::write(b)];
        let (key, msg) = submission(&mut cx, 1, 1, accesses);
        // Another transaction holds `b` and already waits for the newcomer
        // in the lock table: the newcomer holds `a` (a newcomer that held
        // nothing yet could close no cycle) and the other queued behind it.
        let other = TransactionId::new(ClientId(2), 1).as_u64();
        let locks = &mut s.core.locks;
        locks.request(a, key, LockMode::Exclusive, SimTime::MAX);
        locks.request(b, other, LockMode::Exclusive, SimTime::MAX);
        let queued = locks.request(a, other, LockMode::Exclusive, SimTime::MAX);
        assert!(!queued.is_granted());
        s.on_msg(&mut cx, msg);
        assert_eq!(cx.metrics.failures.deadlock, 1);
        assert!(s.txns.is_empty());
        // The lock it took on `a` went back; the abort was scored at the
        // server, so no result travels.
        assert_eq!(s.core.locks.held_mode(a, key), None);
        assert!(run_server(&mut s, &mut cx).is_empty());
        assert_eq!(cx.fabric.stats().count(MessageKind::TxnResult), 1);
        assert_eq!(cx.inflight(), 0);
    }

    #[test]
    fn a_crash_turns_in_flight_work_into_losers_and_sends_nothing() {
        let (mut s, mut cx) = site();
        for seq in 1..=3 {
            let accesses = vec![AccessSpec::write(ObjectId(seq as u32))];
            let (_, msg) = submission(&mut cx, 1, seq, accesses);
            s.on_msg(&mut cx, msg);
        }
        assert_eq!(s.txns.len(), 3);
        let rejoin = s.crash(&mut cx).expect("the replay schedules a rejoin");
        assert!(rejoin > cx.now);
        assert!(!cx.fabric.site_up(SiteId::Server));
        assert!(s.txns.is_empty());
        assert_eq!(cx.metrics.failures.site_crash, 3);
        assert_eq!(cx.inflight(), 0);
        assert!(run_server(&mut s, &mut cx).is_empty());
        assert_eq!(cx.fabric.stats().count(MessageKind::TxnResult), 0);
    }
}
