//! The driver: one thread per site, the scaled real clock, the channels
//! between the sites, and the main thread's count of settled transactions
//! that tells every site when the run is over.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use siteselect_core::{Parcel, RunMetrics, Simulator};
use siteselect_obs::{EventSink, TraceData};
use siteselect_sim::Prng;
use siteselect_types::{ClientId, SimDuration, SimTime, SiteId, TransactionSpec};

use crate::{ClusterConfig, ClusterError, ClusterReport};

/// Ring capacity of each site's trace sink: far above the event volume of
/// any run this driver is sized for, so the oracles see every record.
const TRACE_CAPACITY_PER_SITE: usize = 1 << 20;

/// How often the main thread looks for a site thread that died.
const WATCH_INTERVAL: Duration = Duration::from_millis(50);

/// What crosses a site's inbox.
enum Wire {
    /// A message and its delivery time.
    Parcel(SimTime, Parcel),
    /// The run is over.
    Stop,
}

/// The real clock, scaled: simulated time `t` is `start + t * scale`.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    scale: f64,
}

impl Clock {
    fn now(self) -> SimTime {
        let secs = self.start.elapsed().as_secs_f64() / self.scale;
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    fn instant(self, t: SimTime) -> Instant {
        self.start + Duration::from_secs_f64(t.as_secs_f64() * self.scale)
    }
}

/// A site's sending side: one inbox per site, indexed server first, then
/// the clients; the last delivery time on each link; and, at the server,
/// the chaos delay of recalls.
struct Links {
    inboxes: Vec<Sender<Wire>>,
    last_at: Vec<SimTime>,
    recall_delay: Option<(Prng, SimDuration)>,
}

impl Links {
    /// Sends `parcel` to `to` for delivery at `at` or later (see
    /// [`schedule`](Self::schedule)).
    fn send(&mut self, to: SiteId, at: SimTime, parcel: Parcel) {
        let link = match to {
            SiteId::Client(c) => 1 + c.index(),
            SiteId::Server | SiteId::Directory => 0,
        };
        let at = self.schedule(link, at, parcel.is_recall());
        if let Some(inbox) = self.inboxes.get(link) {
            // A site that has stopped takes nothing more; the run is over.
            let _ = inbox.send(Wire::Parcel(at, parcel));
        }
    }

    /// When a message due at `at` is delivered on `link`: after its chaos
    /// delay if it is a recall, and never before the last one sent on the
    /// link, so the link stays FIFO.
    fn schedule(&mut self, link: usize, mut at: SimTime, recall: bool) -> SimTime {
        if let (Some((rng, max)), true) = (&mut self.recall_delay, recall) {
            at += SimDuration::from_micros(rng.below(max.as_micros() + 1));
        }
        match self.last_at.get_mut(link) {
            Some(last) => {
                *last = at.max(*last);
                *last
            }
            None => at,
        }
    }
}

/// One site thread's run: step the site to the clock, send what it sent,
/// report what it settled, then wait for its next event or a parcel. The
/// sink is built here, inside the thread (an [`EventSink`] cannot cross
/// one), and its trace goes back beside the site's metrics.
fn site_main(
    mut sim: Simulator,
    clock: Clock,
    inbox: &Receiver<Wire>,
    mut links: Links,
    progress: &Sender<u64>,
) -> SiteRun {
    let sink = EventSink::enabled(TRACE_CAPACITY_PER_SITE);
    sim.attach_sink(sink.clone());
    let mut reported = 0;
    loop {
        sim.run_until(clock.now());
        for (to, at, parcel) in sim.take_outbound() {
            links.send(to, at, parcel);
        }
        if sim.settled() > reported {
            let _ = progress.send(sim.settled() - reported);
            reported = sim.settled();
        }
        let wait = sim.next_at().map_or(WATCH_INTERVAL, |t| {
            clock.instant(t).saturating_duration_since(Instant::now())
        });
        match inbox.recv_timeout(wait) {
            Ok(Wire::Parcel(at, parcel)) => sim.accept(at, parcel),
            Err(RecvTimeoutError::Timeout) => {}
            Ok(Wire::Stop) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    let trace = sink
        .finish()
        .unwrap_or_else(|| TraceData::merge(Vec::new()));
    let spare_buffers = sim.spare_buffers();
    (trace, sim.finalize(), spare_buffers)
}

/// What a site thread hands back: its trace, its metrics and the message
/// buffers it kept for reuse.
type SiteRun = (TraceData, RunMetrics, usize);

/// The run's transactions, with each chaos-terminated client's cut to a
/// random prefix, and the number of clients cut.
fn submissions(cfg: &ClusterConfig) -> (Vec<TransactionSpec>, u64) {
    let exp = &cfg.experiment;
    let mut specs = Simulator::transactions(exp);
    let mut own = vec![0u64; usize::from(exp.clients)];
    for spec in &specs {
        own[spec.origin.index()] += 1;
    }
    let root = Prng::seed_from_u64(exp.runtime.seed).derive(0xC0A5);
    let quota: Vec<u64> = own
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut rng = root.derive(i as u64);
            let p = cfg.chaos.termination_probability;
            if n > 0 && rng.bernoulli(p) {
                rng.below(n)
            } else {
                n
            }
        })
        .collect();
    let terminated = quota.iter().zip(&own).filter(|(q, n)| q < n).count() as u64;
    let mut taken = vec![0u64; quota.len()];
    specs.retain(|spec| {
        let i = spec.origin.index();
        taken[i] += 1;
        taken[i] <= quota[i]
    });
    (specs, terminated)
}

/// The threaded cluster.
#[derive(Debug)]
pub struct Cluster;

impl Cluster {
    /// Runs the cluster until every submitted transaction is settled:
    /// `clients + 1` site threads, with the calling thread counting.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for invalid parameters;
    /// [`ClusterError::WorkerPanicked`] if a site thread died.
    pub fn run(cfg: ClusterConfig) -> Result<ClusterReport, ClusterError> {
        cfg.validate().map_err(ClusterError::Config)?;
        let exp = &cfg.experiment;
        let (specs, terminated_clients) = submissions(&cfg);
        let warmup_end = SimTime::ZERO + exp.runtime.warmup;
        let generated = specs.iter().filter(|s| s.arrival >= warmup_end).count() as u64;
        let sites: Vec<SiteId> = std::iter::once(SiteId::Server)
            .chain((0..exp.clients).map(|c| SiteId::Client(ClientId(c))))
            .collect();
        let (inboxes, receivers): (Vec<_>, Vec<_>) = sites.iter().map(|_| channel()).unzip();
        let (progress, settled) = channel();
        let clock = Clock {
            start: Instant::now(),
            scale: cfg.time_scale,
        };
        let recall_delay =
            SimDuration::from_secs_f64(cfg.chaos.max_callback_delay.as_secs_f64() / cfg.time_scale);
        let recall_rng = Prng::seed_from_u64(exp.runtime.seed).derive(0xCB);
        let parts = std::thread::scope(|scope| {
            let handles: Vec<ScopedJoinHandle<'_, SiteRun>> = sites
                .iter()
                .zip(receivers)
                .map(|(&site, inbox)| {
                    let delays = site == SiteId::Server && !recall_delay.is_zero();
                    let links = Links {
                        inboxes: inboxes.clone(),
                        last_at: vec![SimTime::ZERO; sites.len()],
                        recall_delay: delays.then(|| (recall_rng.derive(0), recall_delay)),
                    };
                    let (exp, specs, progress) = (exp.clone(), specs.clone(), progress.clone());
                    scope.spawn(move || {
                        let sim = Simulator::site(exp, site, specs);
                        site_main(sim, clock, &inbox, links, &progress)
                    })
                })
                .collect();
            drop(progress);
            await_settled(&settled, specs.len() as u64, &handles);
            for inbox in &inboxes {
                let _ = inbox.send(Wire::Stop);
            }
            handles
                .into_iter()
                .map(ScopedJoinHandle::join)
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|_| ClusterError::WorkerPanicked)?;
        let mut metrics = RunMetrics::new(
            exp.system,
            exp.clients,
            exp.workload.update_fraction,
            exp.runtime.seed,
        );
        let mut traces = Vec::with_capacity(parts.len());
        let mut most_spare_buffers = 0;
        for (trace, site_metrics, spare_buffers) in parts {
            metrics.add_site(&site_metrics);
            traces.push(trace);
            most_spare_buffers = most_spare_buffers.max(spare_buffers);
        }
        Ok(ClusterReport {
            generated,
            terminated_clients,
            metrics,
            trace: TraceData::merge(traces),
            most_spare_buffers,
        })
    }
}

/// Counts settled transactions until all `total` are, or a site thread
/// has ended early (it panicked: the join reports it).
fn await_settled<T>(settled: &Receiver<u64>, total: u64, sites: &[ScopedJoinHandle<'_, T>]) {
    let mut remaining = total;
    while remaining > 0 {
        match settled.recv_timeout(WATCH_INTERVAL) {
            Ok(n) => remaining = remaining.saturating_sub(n),
            Err(RecvTimeoutError::Timeout) if !sites.iter().any(ScopedJoinHandle::is_finished) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delayed_recalls_keep_each_link_fifo() {
        let mut links = Links {
            inboxes: Vec::new(),
            last_at: vec![SimTime::ZERO; 3],
            recall_delay: Some((Prng::seed_from_u64(7), SimDuration::from_secs(5))),
        };
        let mut last = [SimTime::ZERO; 3];
        let mut delayed = 0;
        for i in 0..200u64 {
            let (link, recall) = (1 + (i % 2) as usize, i % 3 == 0);
            let due = SimTime::from_secs(i / 4);
            let at = links.schedule(link, due, recall);
            assert!(at >= due, "delivered before its fabric time");
            assert!(at >= last[link], "link {link} reordered at message {i}");
            delayed += u64::from(at > due);
            last[link] = at;
        }
        assert!(delayed > 0, "the chaos delay never fired");
        // A link's delay holds back only that link.
        assert_eq!(links.schedule(0, SimTime::ZERO, false), SimTime::ZERO);
    }
}
