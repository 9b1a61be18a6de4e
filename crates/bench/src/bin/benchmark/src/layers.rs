//! Per-layer drivers. Each builds one layer's public type at paper size
//! (10 000 objects, 100 owners, CE 5 000 / CS 1 000 buffer frames, 500+500
//! client cache) and times a seeded operation stream against it from
//! outside, in batches of at least 20 ms of CPU; the metric is the median
//! batch. The drivers are the same on every workload and every traced run
//! pays for all of them (each prints every per-layer metric, and the
//! shares are made of them), so they are sized to take about a third of
//! it: they explain a move in an end-to-end metric, they are not gated
//! themselves.

use std::hint::black_box;

use siteselect_check::{check_trace, TRACE_CAPACITY};
use siteselect_core::cpu::{EdfCpu, PsCpu, Tick};
use siteselect_core::experiments::run_many;
use siteselect_core::{run_experiment_traced, CentralizedSim, ClientServerSim};
use siteselect_locks::{
    CallbackTracker, ForwardEntry, ForwardList, LockTable, QueueDiscipline, WaitForGraph,
    WindowManager,
};
use siteselect_net::{Fabric, MessageKind};
use siteselect_obs::{export, BlameReport, Event, EventSink, MetricsRegistry};
use siteselect_sim::{EventQueue, Prng};
use siteselect_storage::{
    BufferManager, ClientCache, DiskFile, DurableStore, LogRecord, Replacement, Wal,
};
use siteselect_types::{
    ClientId, CpuConfig, ExperimentConfig, FaultConfig, LockMode, NetworkConfig, ObjectId,
    ObjectMap, ServerConfig, SimDuration, SimTime, SiteId, SystemKind, TransactionId,
    WorkloadConfig,
};
use siteselect_workload::TransactionGenerator;

use crate::proc::{process_cpu_seconds, Elapsed, Stopwatch};
use crate::spans::Recorder;
use crate::stats::{quartiles, Quartiles};
use crate::workloads::sweep_jobs;

const OBJECTS: u32 = 10_000;
const OWNERS: u64 = 100;
/// Batches per driver, and the CPU time a batch must reach.
const BATCHES: usize = 5;
const BATCH_CPU_S: f64 = 0.02;

/// One driver's reading: value per unit over its batches.
pub struct Reading {
    pub name: &'static str,
    pub per_unit: Quartiles,
}

/// Times `BATCHES` batches of `f(n)`, which performs `n` operations, after
/// growing `n` until a batch takes `BATCH_CPU_S`; nanoseconds per operation.
fn per_op_ns(rec: &mut Recorder, name: &'static str, mut f: impl FnMut(u64)) -> Reading {
    let mut n = 1_000u64;
    loop {
        let sw = Stopwatch::start();
        f(n);
        let cpu = sw.elapsed().cpu_s;
        if cpu >= BATCH_CPU_S || n >= 1 << 34 {
            break;
        }
        // Aim a fifth past the floor; never more than 16x a step, so one
        // mistimed tiny batch cannot ask for minutes of work.
        let grow = (1.2 * BATCH_CPU_S / cpu.max(1e-6)).clamp(2.0, 16.0);
        n = (n as f64 * grow) as u64;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let open = rec.enter(name);
            let sw = Stopwatch::start();
            f(n);
            let cpu = sw.elapsed().cpu_s;
            rec.exit(open);
            cpu * 1e9 / n as f64
        })
        .collect();
    Reading {
        name,
        per_unit: quartiles(&samples),
    }
}

/// Times `BATCHES` calls of `f`, which prepares its own input untimed and
/// returns the time of the measured part with the units it covered.
fn per_unit(
    rec: &mut Recorder,
    name: &'static str,
    scale: f64,
    mut f: impl FnMut() -> (Elapsed, f64),
) -> Reading {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let open = rec.enter(name);
            let (e, units) = f();
            rec.exit(open);
            e.cpu_s * scale / units
        })
        .collect();
    Reading {
        name,
        per_unit: quartiles(&samples),
    }
}

fn at(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn object(rng: &mut Prng) -> ObjectId {
    ObjectId(rng.below(u64::from(OBJECTS)) as u32)
}

fn client(rng: &mut Prng) -> ClientId {
    ClientId(rng.below(OWNERS) as u16)
}

fn queue(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // Steady state of a 100-client run: about a thousand pending events,
    // each pop followed by one push a little ahead.
    let churn = |span_us: u64, floor_us: u64| {
        let mut rng = Prng::seed_from_u64(seed);
        let mut q: EventQueue<u32> = EventQueue::with_capacity(4096);
        for i in 0..1_000u32 {
            q.push(at(floor_us + rng.below(span_us)), i);
        }
        move |n: u64| {
            for _ in 0..n {
                let (t, e) = q.pop().expect("the queue never drains");
                q.push(at(t.as_micros() + floor_us + rng.below(span_us)), e);
            }
            black_box(q.len());
        }
    };
    // Within a second: the low wheel levels.
    out.push(per_op_ns(rec, "sim.queue.push_pop_ns", churn(1_000_000, 1)));
    // 100 s to 2 000 s ahead: every event starts on a high level and
    // cascades down through all of them before it pops.
    out.push(per_op_ns(
        rec,
        "sim.queue.far_cascade_ns",
        churn(1_900_000_000, 100_000_000),
    ));
}

fn txngen(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut gen = TransactionGenerator::new(
        ClientId(7),
        &WorkloadConfig::default(),
        CpuConfig::default().txn_cpu_fraction,
        OBJECTS,
        OWNERS as u16,
        Prng::seed_from_u64(seed),
    );
    out.push(per_op_ns(rec, "workload.txngen.next_ns", |n| {
        for _ in 0..n {
            black_box(gen.next_txn());
        }
    }));
}

fn object_map(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut map: ObjectMap<u64> = ObjectMap::with_capacity(OBJECTS as usize);
    out.push(per_op_ns(
        rec,
        "types.object_map.insert_get_remove_ns",
        |n| {
            let mut acc = 0u64;
            for i in 0..n {
                map.insert(object(&mut rng), i);
                acc += map.get(object(&mut rng)).copied().unwrap_or(0);
                map.remove(object(&mut rng));
            }
            black_box(acc);
        },
    ));
}

fn lock_table(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let far = SimTime::from_secs(60);
    let mut rng = Prng::seed_from_u64(seed);
    let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
    table.reserve_objects(OBJECTS as usize);
    out.push(per_op_ns(rec, "locks.table.grant_release_ns", |n| {
        for _ in 0..n {
            let (obj, owner) = (object(&mut rng), client(&mut rng));
            let mode = LockMode::for_write(rng.bernoulli(0.2));
            black_box(table.request(obj, owner, mode, far).is_granted());
            black_box(table.release(obj, owner).len());
        }
    }));
    // A holds exclusive, B's shared request parks behind it, A's release
    // promotes B: the path a conflict takes.
    out.push(per_op_ns(rec, "locks.table.contended_promote_ns", |n| {
        for _ in 0..n {
            let obj = object(&mut rng);
            let a = client(&mut rng);
            let b = ClientId((a.0 + 1) % OWNERS as u16);
            table.request(obj, a, LockMode::Exclusive, far);
            table.request(obj, b, LockMode::Shared, SimTime::from_secs(30));
            black_box(table.release(obj, a).len());
            black_box(table.release(obj, b).len());
        }
    }));
}

fn wait_for(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // 100 transactions, 60 of them waiting for one or two with a higher
    // number (so the graph is acyclic and every probe walks it).
    let mut rng = Prng::seed_from_u64(seed);
    let mut g: WaitForGraph<u16> = WaitForGraph::new();
    for waiter in 0..60u16 {
        let holders = (0..1 + rng.below(2)).map(|_| waiter + 1 + rng.below(39) as u16);
        g.add_waits(waiter, holders.collect::<Vec<_>>());
    }
    out.push(per_op_ns(rec, "locks.waitfor.would_cycle_ns", |n| {
        let mut cycles = 0u64;
        for _ in 0..n {
            let waiter = 60 + rng.below(40) as u16;
            let holder = rng.below(60) as u16;
            cycles += u64::from(g.would_deadlock(waiter, &[holder]));
        }
        black_box(cycles);
    }));
}

fn callbacks(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut cb = CallbackTracker::new();
    // One recall of an object cached at three clients: begin + three acks.
    out.push(per_op_ns(rec, "locks.callback.begin_ack_ns", |n| {
        for _ in 0..n {
            let obj = object(&mut rng);
            let first = rng.below(OWNERS - 3) as u16;
            let holders = [ClientId(first), ClientId(first + 1), ClientId(first + 2)];
            black_box(cb.begin(obj, holders, LockMode::Exclusive).len());
            for h in holders {
                black_box(cb.acknowledge(obj, h));
            }
        }
    }));
}

fn entry(rng: &mut Prng, seq: u64) -> ForwardEntry {
    let c = client(rng);
    ForwardEntry {
        client: c,
        txn: TransactionId::new(c, seq),
        deadline: at(1_000_000 + rng.below(30_000_000)),
        mode: LockMode::for_write(rng.bernoulli(0.05)),
    }
}

fn windows(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut wm = WindowManager::new(SimDuration::from_millis(100));
    // One collection window: four requests offered, then closed.
    out.push(per_op_ns(rec, "locks.window.offer_close_ns", |n| {
        for i in 0..n {
            let obj = object(&mut rng);
            for _ in 0..4 {
                black_box(wm.offer(obj, entry(&mut rng, i), SimTime::ZERO));
            }
            black_box(wm.close(obj).map(|l| l.len()));
        }
    }));
    // One hop of a forward list: an entry pushed in deadline order and
    // later popped as the next live one (lists of eight).
    out.push(per_op_ns(rec, "locks.forward.hop_ns", |n| {
        for i in 0..n.div_ceil(8) {
            let mut list = ForwardList::new(object(&mut rng));
            for _ in 0..8 {
                list.push(entry(&mut rng, i));
            }
            while let (Some(e), _) = list.pop_next_live(SimTime::ZERO) {
                black_box(e.client);
            }
        }
    }));
}

fn buffers(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut disk = DiskFile::with_patterned_pages(OBJECTS);
    // CE's 5 000 frames, all resident: every fetch hits.
    let frames = ServerConfig::centralized().buffer_objects;
    let mut hot = BufferManager::new(frames, Replacement::Lru);
    for id in 0..frames as u32 {
        let f = hot.fetch(ObjectId(id), &mut disk).expect("page exists");
        hot.unpin(f).expect("pinned");
    }
    out.push(per_op_ns(rec, "storage.buffer.hit_ns", |n| {
        for _ in 0..n {
            let id = ObjectId(rng.below(frames as u64) as u32);
            let f = hot.fetch(id, &mut disk).expect("page exists");
            hot.unpin(f).expect("pinned");
        }
    }));
    // CS's 1 000 frames under a cyclic scan of the whole database: every
    // fetch misses, reads the page and evicts the least recent one.
    let mut cold = BufferManager::new(
        ServerConfig::client_server().buffer_objects,
        Replacement::Lru,
    );
    let mut next = 0u32;
    out.push(per_op_ns(rec, "storage.buffer.miss_evict_ns", |n| {
        for _ in 0..n {
            let f = cold.fetch(ObjectId(next), &mut disk).expect("page exists");
            cold.unpin(f).expect("pinned");
            next = (next + 1) % OBJECTS;
        }
    }));
}

fn client_cache(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let mut cache = ClientCache::new(500, 500);
    cache.reserve_ids(OBJECTS as usize);
    for id in 0..1_000 {
        cache.insert(ObjectId(id));
    }
    out.push(per_op_ns(rec, "storage.cache.probe_hit_ns", |n| {
        let mut hits = 0u64;
        for _ in 0..n {
            hits += u64::from(cache.probe(ObjectId(rng.below(1_000) as u32)).is_some());
        }
        assert_eq!(hits, n, "every probe of a resident object hits");
    }));
    // The cache is full: each insert of an absent object evicts one.
    let mut next = 1_000u32;
    out.push(per_op_ns(rec, "storage.cache.insert_evict_ns", |n| {
        for _ in 0..n {
            cache.insert(ObjectId(next));
            next = (next + 1) % OBJECTS;
        }
        black_box(cache.len());
    }));
}

fn wal(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // The log only grows; a fresh one every 65 536 records bounds memory.
    const RENEW: u64 = 1 << 16;
    let mut rng = Prng::seed_from_u64(seed);
    let mut log = Wal::new();
    out.push(per_op_ns(rec, "storage.wal.append_ns", |n| {
        for i in 0..n {
            if i % RENEW == 0 {
                log = Wal::new();
            }
            black_box(log.append(&LogRecord::Update {
                txn: i,
                page: object(&mut rng),
                offset: 8,
                before: i,
                after: i + 1,
            }));
        }
    }));
    // A commit: the record appended and the staged tail forced.
    out.push(per_op_ns(rec, "storage.wal.flush_ns", |n| {
        for i in 0..n {
            if i % RENEW == 0 {
                log = Wal::new();
            }
            log.append(&LogRecord::Commit { txn: i });
            log.flush();
        }
        black_box(log.durable_lsn());
    }));
    // Crash-restart of CS's store after 10 000 three-write transactions,
    // the last hundred never committed: analysis, redo and undo per MB of
    // surviving log.
    let frames = ServerConfig::client_server().buffer_objects;
    out.push(per_unit(
        rec,
        "storage.recovery.restart_ms_per_mb",
        1e3,
        || {
            let mut store = DurableStore::new(OBJECTS, frames);
            for txn in 0..10_000u64 {
                for _ in 0..3 {
                    store.write(txn, object(&mut rng));
                }
                if txn < 9_900 {
                    store.commit(txn);
                }
            }
            let (image, disk) = store.crash(0);
            let mb = image.len() as f64 / (1024.0 * 1024.0);
            let sw = Stopwatch::start();
            let (recovered, outcome) = DurableStore::restart(&image, disk, frames);
            let e = sw.elapsed();
            black_box((recovered.log_records(), outcome.replay_ios()));
            (e, mb)
        },
    ));
}

fn fabric(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // A request up and an object down, the pair every remote access costs.
    let exchange = |fabric: &mut Fabric, rng: &mut Prng, now: &mut u64, faulty: bool| {
        let c = SiteId::Client(client(rng));
        *now += 100;
        if faulty {
            black_box(fabric.try_send(at(*now), c, SiteId::Server, MessageKind::ObjectRequest, 0));
            black_box(fabric.try_send(at(*now), SiteId::Server, c, MessageKind::ObjectSend, 1));
        } else {
            black_box(fabric.send(at(*now), c, SiteId::Server, MessageKind::ObjectRequest, 0));
            black_box(fabric.send(at(*now), SiteId::Server, c, MessageKind::ObjectSend, 1));
        }
    };
    let mut rng = Prng::seed_from_u64(seed);
    let mut clean = Fabric::new(NetworkConfig::default(), 2_048);
    let mut now = 0u64;
    out.push(per_op_ns(rec, "net.fabric.send_ns", |n| {
        for _ in 0..n.div_ceil(2) {
            exchange(&mut clean, &mut rng, &mut now, false);
        }
    }));
    let mut faulty = Fabric::new(NetworkConfig::default(), 2_048);
    faulty.enable_faults(FaultConfig::chaos(1.0), Prng::seed_from_u64(seed ^ 1));
    let mut now = 0u64;
    out.push(per_op_ns(rec, "net.fabric.send_faulty_ns", |n| {
        for _ in 0..n.div_ceil(2) {
            exchange(&mut faulty, &mut rng, &mut now, true);
        }
    }));
}

fn cpus(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    let mut rng = Prng::seed_from_u64(seed);
    let forever = SimDuration::from_secs(1_000_000_000);
    // CE's processor-sharing server with sixteen long transactions
    // active: a short one is submitted and runs to completion.
    let server = ServerConfig::centralized();
    let mut ps: PsCpu<u64> = PsCpu::new(
        CpuConfig::default().server_speed,
        server.max_concurrent_txns,
    );
    for key in 0..16u64 {
        black_box(ps.submit(SimTime::ZERO, key, SimTime::from_secs(1), forever));
    }
    let mut now = SimTime::ZERO;
    let mut key = 16u64;
    out.push(per_op_ns(rec, "core.cpu.ps_submit_complete_ns", |n| {
        for _ in 0..n {
            key += 1;
            let demand = SimDuration::from_micros(1_000 + rng.below(9_000));
            let (t, generation) = ps
                .submit(now, key, now + SimDuration::from_secs(10), demand)
                .expect("a busy CPU always has a next completion");
            match ps.on_completion(t, generation) {
                Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![key]),
                Tick::Stale => unreachable!("the completion was armed by this submit"),
            }
            now = t;
        }
    }));
    // A client's EDF processor with four ready transactions: an urgent
    // one preempts, completes, and the preempted one resumes.
    let mut edf: EdfCpu<u64> = EdfCpu::new(CpuConfig::default().client_speed);
    for key in 0..4u64 {
        black_box(edf.submit(
            SimTime::ZERO,
            key,
            SimTime::from_secs(2_000_000_000 + key),
            forever,
        ));
    }
    let mut now = SimTime::ZERO;
    out.push(per_op_ns(rec, "core.cpu.edf_submit_complete_ns", |n| {
        for _ in 0..n {
            key += 1;
            let demand = SimDuration::from_micros(1_000 + rng.below(9_000));
            let (t, generation) = edf
                .submit(now, key, now + SimDuration::from_secs(10), demand)
                .expect("a busy CPU always has a next completion");
            match edf.on_completion(t, generation) {
                Tick::Done { finished, .. } => assert_eq!(finished.to_vec(), vec![key]),
                Tick::Stale => unreachable!("the completion was armed by this submit"),
            }
            now = t;
        }
    }));
}

fn engines(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // Construction of all three engines (CE with its trace generation):
    // at paper size, and at the explorer's 8 clients x 150 s.
    let build = |clients: u16, duration: Option<SimDuration>| {
        move || {
            let sw = Stopwatch::start();
            for system in SystemKind::ALL {
                let mut cfg = ExperimentConfig::paper(system, clients, 0.05).with_seed(seed);
                if let Some(d) = duration {
                    cfg.runtime.duration = d;
                    cfg.runtime.warmup = SimDuration::from_secs(30);
                }
                if system == SystemKind::Centralized {
                    let mut sim = CentralizedSim::new(cfg);
                    sim.prepare();
                    black_box(sim.now());
                } else {
                    black_box(&ClientServerSim::new(cfg));
                }
            }
            (sw.elapsed(), 1.0)
        }
    };
    out.push(per_unit(
        rec,
        "core.engine.new_ms.c100",
        1e3,
        build(100, None),
    ));
    out.push(per_unit(
        rec,
        "core.engine.new_ms.c8",
        1e3,
        build(8, Some(SimDuration::from_secs(150))),
    ));
}

fn fan_out(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // Four 40-client LS cells, sequentially and over the sweep's workers.
    let cfgs: Vec<_> = (0..4)
        .map(|i| ExperimentConfig::paper(SystemKind::LoadSharing, 40, 0.05).with_seed(seed + i))
        .collect();
    let mut time = |jobs: usize| {
        let open = rec.enter("core.run_many");
        let cpu = process_cpu_seconds();
        let sw = Stopwatch::start();
        black_box(run_many(jobs, &cfgs).expect("valid configurations"));
        let wall = sw.elapsed().wall_s;
        rec.exit(open);
        (wall, process_cpu_seconds() - cpu)
    };
    let (mut speedup, mut overhead) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (wall_1, cpu_1) = time(1);
        let (wall_n, cpu_n) = time(sweep_jobs());
        speedup.push(wall_1 / wall_n);
        overhead.push((cpu_n - cpu_1) / cpu_1 * 100.0);
    }
    out.push(Reading {
        name: "core.run_many.speedup",
        per_unit: quartiles(&speedup),
    });
    out.push(Reading {
        name: "core.run_many.cpu_overhead_pct",
        per_unit: quartiles(&overhead),
    });
}

fn sink(rec: &mut Recorder, out: &mut Vec<Reading>) {
    // Starts and commits in turn (a commit also feeds the histograms).
    let emit = |sink: EventSink| {
        move |n: u64| {
            for i in 0..n {
                // Re-read the handle each time, as an engine holding it in
                // a field does; hoisted, the disabled branch vanishes.
                let sink = black_box(&sink);
                let txn = TransactionId::new(ClientId((i % OWNERS) as u16), i);
                sink.emit(at(i), SiteId::Server, || {
                    if i % 2 == 0 {
                        Event::ExecStart { txn }
                    } else {
                        Event::Commit {
                            txn,
                            latency_us: 1_000 + i % 50_000,
                            slack_us: 5_000,
                        }
                    }
                });
            }
        }
    };
    out.push(per_op_ns(
        rec,
        "obs.sink.emit_off_ns",
        emit(EventSink::disabled()),
    ));
    // A full ring: every emit also drops the oldest record.
    out.push(per_op_ns(
        rec,
        "obs.sink.emit_ring_ns",
        emit(EventSink::enabled(1 << 16)),
    ));
}

fn trace_consumers(rec: &mut Recorder, seed: u64, out: &mut Vec<Reading>) {
    // One complete trace to feed all three: CS, 20 clients, 20 % updates,
    // under restart chaos, so WAL, recovery and fault records are in it.
    let mut cfg = ExperimentConfig::paper(SystemKind::ClientServer, 20, 0.20).with_seed(seed);
    cfg.faults = FaultConfig::chaos_restart(1.0);
    let (metrics, trace) =
        run_experiment_traced(&cfg, TRACE_CAPACITY).expect("valid configuration");
    assert_eq!(trace.report.dropped, 0, "a 20-client trace fits the ring");
    let records = trace.records.len() as f64;
    let warmup_end = SimTime::ZERO + cfg.runtime.warmup;
    out.push(per_unit(rec, "obs.export.jsonl_ns_per_record", 1e9, || {
        let sw = Stopwatch::start();
        black_box(export::jsonl(&trace.records).len());
        (sw.elapsed(), records)
    }));
    out.push(per_unit(
        rec,
        "obs.blame.extract_ns_per_record",
        1e9,
        || {
            let sw = Stopwatch::start();
            black_box(BlameReport::extract(&trace, 10, &MetricsRegistry::disabled()).total_us());
            (sw.elapsed(), records)
        },
    ));
    // The verdict itself is the restart mix's business; here only the
    // cost of reaching it counts (a violation ends the check early, which
    // the exact `count.oracle_violations` of that mix would show).
    out.push(per_unit(rec, "check.oracles.ns_per_record", 1e9, || {
        let sw = Stopwatch::start();
        black_box(check_trace(&trace, &metrics, warmup_end).is_ok());
        (sw.elapsed(), records)
    }));
}

/// Runs every driver, in the order of `manifest::PER_LAYER`.
pub fn run_all(rec: &mut Recorder, seed: u64) -> Vec<Reading> {
    let open = rec.enter("drivers");
    let mut out = Vec::new();
    queue(rec, seed, &mut out);
    txngen(rec, seed, &mut out);
    object_map(rec, seed, &mut out);
    lock_table(rec, seed, &mut out);
    wait_for(rec, seed, &mut out);
    callbacks(rec, seed, &mut out);
    windows(rec, seed, &mut out);
    buffers(rec, seed, &mut out);
    client_cache(rec, seed, &mut out);
    wal(rec, seed, &mut out);
    fabric(rec, seed, &mut out);
    cpus(rec, seed, &mut out);
    engines(rec, seed, &mut out);
    fan_out(rec, seed, &mut out);
    sink(rec, &mut out);
    trace_consumers(rec, seed, &mut out);
    rec.exit(open);
    out
}
