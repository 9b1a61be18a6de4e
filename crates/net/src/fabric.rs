//! Delivery-time computation over the shared or switched LAN.

use std::collections::{HashMap, HashSet};

use siteselect_obs::{Event, EventSink};
use siteselect_sim::Prng;
use siteselect_types::{FaultConfig, LanKind, NetworkConfig, SimDuration, SimTime, SiteId};

use crate::message::{MessageKind, CONTROL_BYTES};
use crate::stats::MessageStats;

/// Outcome of a fault-aware send ([`Fabric::try_send`] and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives at the destination at this instant.
    Delivered(SimTime),
    /// The message was lost — dropped by the fault layer or addressed to a
    /// crashed site. No delivery event should be scheduled; recovery is the
    /// sender's problem (retry or lease expiry).
    Dropped,
}

impl Delivery {
    /// The delivery instant, or `None` if the message was lost.
    #[must_use]
    pub fn time(self) -> Option<SimTime> {
        match self {
            Delivery::Delivered(t) => Some(t),
            Delivery::Dropped => None,
        }
    }
}

/// Fault-injection state, present only after [`Fabric::enable_faults`] (or
/// the first liveness update). Message loss and jitter draw from a PRNG
/// stream dedicated to the fabric so enabling faults does not perturb the
/// workload's random sequence.
#[derive(Debug)]
struct FaultState {
    cfg: FaultConfig,
    prng: Prng,
    down: HashSet<SiteId>,
    dropped: u64,
    delayed: u64,
    /// Last delivery instant per directed link. Jitter must not reorder a
    /// link (channels are sessions): a later send arrives no earlier than
    /// the deliveries before it. Without faults the medium is already FIFO
    /// (per-link serialization plus constant latency), so this floor only
    /// matters when jitter is injected.
    last_delivery: HashMap<(SiteId, SiteId), SimTime>,
}

/// The cluster interconnect.
///
/// For [`LanKind::SharedEthernet`] all transmissions serialize on one medium
/// (the paper's 10 Mbps segment); for [`LanKind::Switched`] each ordered
/// `(from, to)` pair owns a private link. Every transmission costs
/// `bytes × 8 / bandwidth` of medium time plus a fixed propagation latency.
///
/// Client-to-client messages in the load-sharing system are relayed by the
/// **directory server** ([`Fabric::send_via_directory`]): two transmissions,
/// one logical message.
#[derive(Debug)]
pub struct Fabric {
    cfg: NetworkConfig,
    object_bytes: u32,
    shared_busy_until: SimTime,
    link_busy_until: HashMap<(SiteId, SiteId), SimTime>,
    stats: MessageStats,
    faults: Option<FaultState>,
    sink: EventSink,
}

impl Fabric {
    /// Creates a fabric with the given configuration and object payload
    /// size.
    #[must_use]
    pub fn new(cfg: NetworkConfig, object_bytes: u32) -> Self {
        Fabric {
            cfg,
            object_bytes,
            shared_busy_until: SimTime::ZERO,
            link_busy_until: HashMap::new(),
            stats: MessageStats::new(),
            faults: None,
            sink: EventSink::disabled(),
        }
    }

    /// Attaches an event sink; fault-layer drops and delays are emitted at
    /// the destination site with the would-be delivery time.
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// Arms the fault layer: subsequent `try_send*` calls may drop or delay
    /// messages according to `cfg`, drawing from `prng`. A fabric without
    /// this call behaves exactly as before the fault subsystem existed.
    pub fn enable_faults(&mut self, cfg: FaultConfig, prng: Prng) {
        self.faults = Some(FaultState {
            cfg,
            prng,
            down: HashSet::new(),
            dropped: 0,
            delayed: 0,
            last_delivery: HashMap::new(),
        });
    }

    fn fault_state(&mut self) -> &mut FaultState {
        self.faults.get_or_insert_with(|| FaultState {
            cfg: FaultConfig::default(),
            prng: Prng::seed_from_u64(0),
            down: HashSet::new(),
            dropped: 0,
            delayed: 0,
            last_delivery: HashMap::new(),
        })
    }

    /// Marks `site` crashed: every message addressed to it is dropped until
    /// [`set_site_up`](Self::set_site_up). Usable without
    /// [`enable_faults`](Self::enable_faults) for pure liveness tracking.
    pub fn set_site_down(&mut self, site: SiteId) {
        self.fault_state().down.insert(site);
    }

    /// Marks `site` recovered; deliveries to it resume.
    pub fn set_site_up(&mut self, site: SiteId) {
        self.fault_state().down.remove(&site);
    }

    /// Messages lost so far (random loss plus deliveries to crashed sites).
    #[must_use]
    pub fn dropped_messages(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.dropped)
    }

    /// Messages that received non-zero extra jitter so far.
    #[must_use]
    pub fn delayed_messages(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.delayed)
    }

    /// Applies loss, crash-refusal and jitter to a computed delivery time.
    /// The frame has already occupied the wire — losses happen at the
    /// receiver, so a dropped message still pays transmission time and is
    /// counted in the message statistics. Delivered messages never overtake
    /// an earlier delivery on the same directed link, even when jittered.
    fn apply_faults(&mut self, from: SiteId, to: SiteId, delivery: SimTime) -> Delivery {
        let Some(state) = self.faults.as_mut() else {
            return Delivery::Delivered(delivery);
        };
        if state.down.contains(&to) {
            state.dropped += 1;
            self.sink
                .emit(delivery, to, || Event::MsgDropped { to });
            return Delivery::Dropped;
        }
        if state.cfg.loss_probability > 0.0 && state.prng.bernoulli(state.cfg.loss_probability) {
            state.dropped += 1;
            self.sink
                .emit(delivery, to, || Event::MsgDropped { to });
            return Delivery::Dropped;
        }
        let mut at = delivery;
        if !state.cfg.max_delay_jitter.is_zero() {
            let jitter =
                SimDuration::from_micros(state.prng.below(state.cfg.max_delay_jitter.as_micros() + 1));
            if !jitter.is_zero() {
                state.delayed += 1;
                let jitter_us = jitter.as_micros();
                at = delivery + jitter;
                self.sink
                    .emit(at, to, || Event::MsgDelayed { to, jitter_us });
            }
        }
        // FIFO floor: a jittered predecessor on this link delays everything
        // behind it rather than being overtaken (a recall must not pass the
        // grant it revokes).
        let link = (from, to);
        if let Some(&floor) = state.last_delivery.get(&link) {
            at = at.max(floor);
        }
        state.last_delivery.insert(link, at);
        Delivery::Delivered(at)
    }

    /// Transmission time for `bytes` on the wire.
    #[must_use]
    pub fn tx_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(bytes) * 8.0 / self.cfg.bandwidth_bps as f64)
    }

    fn transmit(&mut self, now: SimTime, from: SiteId, to: SiteId, bytes: u32) -> SimTime {
        let tx = self.tx_time(bytes);
        let start = match self.cfg.kind {
            LanKind::SharedEthernet => {
                let s = self.shared_busy_until.max(now);
                self.shared_busy_until = s + tx;
                s
            }
            LanKind::Switched => {
                let key = (from, to);
                let busy = self.link_busy_until.get(&key).copied().unwrap_or(SimTime::ZERO);
                let s = busy.max(now);
                self.link_busy_until.insert(key, s + tx);
                s
            }
        };
        start + tx + self.cfg.latency
    }

    /// Sends one message; returns its delivery time at `to`.
    ///
    /// `objects` is the number of object payloads carried (0 for control
    /// messages).
    pub fn send(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
    ) -> SimTime {
        let bytes = kind.wire_bytes(self.object_bytes, objects);
        let delivery = self.transmit(now, from, to, bytes);
        self.stats.record(kind, 1, u64::from(bytes));
        delivery
    }

    /// Sends one physical frame that carries `logical` per-object protocol
    /// messages of the same kind (a batched request or grant). The frame
    /// pays for `objects` object payloads; statistics count `logical`
    /// messages.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is zero.
    pub fn send_counted(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
        logical: u32,
    ) -> SimTime {
        assert!(logical > 0, "a batch must carry at least one message");
        let bytes = kind.wire_bytes(self.object_bytes, objects)
            + (logical - 1) * CONTROL_BYTES / 4;
        let delivery = self.transmit(now, from, to, bytes);
        self.stats
            .record_multi(kind, u64::from(logical), 1, u64::from(bytes));
        delivery
    }

    /// Resets the message statistics (warm-up boundary); medium booking
    /// state is untouched.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Sends a client-to-client message relayed through the directory
    /// server: the directory stores-and-forwards, so the second hop starts
    /// when the first is delivered. Counts one logical message and two
    /// transmissions.
    pub fn send_via_directory(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
    ) -> SimTime {
        let bytes = kind.wire_bytes(self.object_bytes, objects);
        let hop1 = self.transmit(now, from, SiteId::Directory, bytes);
        let hop2 = self.transmit(hop1, SiteId::Directory, to, bytes);
        self.stats.record(kind, 2, 2 * u64::from(bytes));
        hop2
    }

    /// Fault-aware [`send`](Self::send): the frame pays wire time either
    /// way, but the fault layer may lose it (random loss or crashed
    /// destination) or add delivery jitter. Identical to `send` when faults
    /// are not enabled.
    pub fn try_send(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
    ) -> Delivery {
        let delivery = self.send(now, from, to, kind, objects);
        self.apply_faults(from, to, delivery)
    }

    /// Fault-aware [`send_counted`](Self::send_counted); the whole batch is
    /// lost or delivered as one frame.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is zero.
    pub fn try_send_counted(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
        logical: u32,
    ) -> Delivery {
        let delivery = self.send_counted(now, from, to, kind, objects, logical);
        self.apply_faults(from, to, delivery)
    }

    /// Fault-aware [`send_via_directory`](Self::send_via_directory); loss
    /// and jitter apply to the relayed message as a whole.
    pub fn try_send_via_directory(
        &mut self,
        now: SimTime,
        from: SiteId,
        to: SiteId,
        kind: MessageKind,
        objects: u32,
    ) -> Delivery {
        let delivery = self.send_via_directory(now, from, to, kind, objects);
        self.apply_faults(from, to, delivery)
    }

    /// Cumulative message statistics.
    #[must_use]
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Utilization proxy: when the shared medium frees up.
    #[must_use]
    pub fn busy_until(&self) -> SimTime {
        self.shared_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::ClientId;

    fn site(c: u16) -> SiteId {
        SiteId::Client(ClientId(c))
    }

    fn fabric(kind: LanKind) -> Fabric {
        let cfg = NetworkConfig {
            kind,
            bandwidth_bps: 10_000_000,
            latency: SimDuration::from_micros(500),
        };
        Fabric::new(cfg, 2_048)
    }

    #[test]
    fn control_message_timing() {
        let mut f = fabric(LanKind::SharedEthernet);
        let d = f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0);
        // 128B * 8 / 10Mbps = 102.4 us, + 500 us latency.
        let expected = SimDuration::from_micros(102) + SimDuration::from_micros(500);
        let got = d.duration_since(SimTime::ZERO);
        assert!(
            (got.as_secs_f64() - expected.as_secs_f64()).abs() < 2e-6,
            "got {got}"
        );
    }

    #[test]
    fn object_payload_is_slower() {
        let mut f = fabric(LanKind::SharedEthernet);
        let control = f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0);
        let mut f2 = fabric(LanKind::SharedEthernet);
        let data = f2.send(SimTime::ZERO, SiteId::Server, site(0), MessageKind::ObjectSend, 1);
        assert!(data > control);
        // 2240B*8/10M = 1.792ms + 0.5ms
        assert!((data.as_secs_f64() - 0.002292).abs() < 1e-5);
    }

    #[test]
    fn shared_medium_serializes() {
        let mut f = fabric(LanKind::SharedEthernet);
        let d1 = f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectSend, 1);
        let d2 = f.send(SimTime::ZERO, site(1), SiteId::Server, MessageKind::ObjectSend, 1);
        // Second transmission waits for the first to clear the wire.
        assert!(d2 > d1);
        assert!(d2.as_secs_f64() > 2.0 * 0.0017);
    }

    #[test]
    fn switched_links_are_independent() {
        let mut f = fabric(LanKind::Switched);
        let d1 = f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectSend, 1);
        let d2 = f.send(SimTime::ZERO, site(1), SiteId::Server, MessageKind::ObjectSend, 1);
        assert_eq!(d1, d2); // distinct (from, to) pairs do not contend
        let d3 = f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectSend, 1);
        assert!(d3 > d1); // same pair serializes
    }

    #[test]
    fn directory_relay_is_two_hops() {
        let mut shared = fabric(LanKind::SharedEthernet);
        let direct = shared.send(SimTime::ZERO, site(0), site(1), MessageKind::ObjectForward, 1);
        let mut relayed = fabric(LanKind::SharedEthernet);
        let via = relayed.send_via_directory(
            SimTime::ZERO,
            site(0),
            site(1),
            MessageKind::ObjectForward,
            1,
        );
        assert!(via > direct);
        assert_eq!(relayed.stats().count(MessageKind::ObjectForward), 1);
        assert_eq!(relayed.stats().total_transmissions(), 2);
        assert_eq!(
            relayed.stats().total_bytes(),
            2 * u64::from(MessageKind::ObjectForward.wire_bytes(2_048, 1))
        );
    }

    #[test]
    fn stats_count_by_kind() {
        let mut f = fabric(LanKind::SharedEthernet);
        for _ in 0..3 {
            f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0);
        }
        f.send(SimTime::ZERO, SiteId::Server, site(0), MessageKind::Recall, 0);
        assert_eq!(f.stats().count(MessageKind::ObjectRequest), 3);
        assert_eq!(f.stats().count(MessageKind::Recall), 1);
        assert_eq!(f.stats().total_messages(), 4);
    }

    #[test]
    fn counted_batch_records_logical_messages_with_one_transmission() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.send_counted(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0, 8);
        assert_eq!(f.stats().count(MessageKind::ObjectRequest), 8);
        assert_eq!(f.stats().total_transmissions(), 1);
        // The frame grows a little per extra logical message.
        let single = MessageKind::ObjectRequest.wire_bytes(2_048, 0);
        assert!(f.stats().total_bytes() > u64::from(single));
    }

    #[test]
    #[should_panic(expected = "at least one message")]
    fn counted_batch_of_zero_panics() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.send_counted(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0, 0);
    }

    #[test]
    fn reset_stats_zeroes_counters_but_keeps_medium_state() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectSend, 1);
        let busy = f.busy_until();
        f.reset_stats();
        assert_eq!(f.stats().total_messages(), 0);
        assert_eq!(f.busy_until(), busy);
    }

    #[test]
    fn faults_off_try_send_equals_send() {
        let mut plain = fabric(LanKind::SharedEthernet);
        let mut faulty = fabric(LanKind::SharedEthernet);
        for i in 0..10 {
            let d = plain.send(SimTime::ZERO, site(i), SiteId::Server, MessageKind::ObjectSend, 1);
            let t = faulty.try_send(SimTime::ZERO, site(i), SiteId::Server, MessageKind::ObjectSend, 1);
            assert_eq!(t, Delivery::Delivered(d));
        }
        assert_eq!(faulty.dropped_messages(), 0);
        assert_eq!(faulty.delayed_messages(), 0);
    }

    #[test]
    fn crashed_destination_drops_but_pays_wire_time() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.set_site_down(site(1));
        let busy_before = f.busy_until();
        let d = f.try_send(SimTime::ZERO, SiteId::Server, site(1), MessageKind::ObjectSend, 1);
        assert_eq!(d, Delivery::Dropped);
        assert_eq!(d.time(), None);
        assert!(f.busy_until() > busy_before, "dropped frame still occupied the wire");
        assert_eq!(f.stats().count(MessageKind::ObjectSend), 1);
        assert_eq!(f.dropped_messages(), 1);

        f.set_site_up(site(1));
        let d = f.try_send(SimTime::ZERO, SiteId::Server, site(1), MessageKind::ObjectSend, 1);
        assert!(matches!(d, Delivery::Delivered(_)));
    }

    #[test]
    fn certain_loss_drops_everything_and_zero_loss_drops_nothing() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.enable_faults(
            siteselect_types::FaultConfig {
                loss_probability: 1.0,
                ..siteselect_types::FaultConfig::default()
            },
            Prng::seed_from_u64(7),
        );
        for _ in 0..20 {
            let d = f.try_send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0);
            assert_eq!(d, Delivery::Dropped);
        }
        assert_eq!(f.dropped_messages(), 20);

        let mut f = fabric(LanKind::SharedEthernet);
        f.enable_faults(siteselect_types::FaultConfig::default(), Prng::seed_from_u64(7));
        for _ in 0..20 {
            let d = f.try_send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectRequest, 0);
            assert!(matches!(d, Delivery::Delivered(_)));
        }
        assert_eq!(f.dropped_messages(), 0);
    }

    #[test]
    fn jitter_never_delivers_earlier_and_is_bounded() {
        let jitter_cap = SimDuration::from_millis(5);
        let mut plain = fabric(LanKind::Switched);
        let mut f = fabric(LanKind::Switched);
        f.enable_faults(
            siteselect_types::FaultConfig {
                max_delay_jitter: jitter_cap,
                ..siteselect_types::FaultConfig::default()
            },
            Prng::seed_from_u64(99),
        );
        for i in 0..50u16 {
            let base =
                plain.send(SimTime::ZERO, site(i), SiteId::Server, MessageKind::ObjectRequest, 0);
            let Delivery::Delivered(t) =
                f.try_send(SimTime::ZERO, site(i), SiteId::Server, MessageKind::ObjectRequest, 0)
            else {
                panic!("jitter alone never drops");
            };
            assert!(t >= base);
            assert!(t.duration_since(base) <= jitter_cap);
        }
        assert!(f.delayed_messages() > 0);
    }

    #[test]
    fn jitter_never_reorders_a_link() {
        let mut f = fabric(LanKind::Switched);
        f.enable_faults(
            siteselect_types::FaultConfig {
                max_delay_jitter: SimDuration::from_millis(50),
                ..siteselect_types::FaultConfig::default()
            },
            Prng::seed_from_u64(3),
        );
        // Alternate big and small frames: without the FIFO floor a lightly
        // jittered control message would overtake a heavily jittered data
        // frame sent just before it.
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 0..200u32 {
            now += SimDuration::from_micros(200);
            let (kind, objects) = if i % 2 == 0 {
                (MessageKind::ObjectSend, 1)
            } else {
                (MessageKind::Recall, 0)
            };
            if let Delivery::Delivered(t) = f.try_send(now, SiteId::Server, site(1), kind, objects)
            {
                assert!(t >= last, "delivery {t} overtook {last}");
                last = t;
            }
        }
        assert!(f.delayed_messages() > 0, "jitter must actually have fired");
    }

    #[test]
    fn later_sends_on_idle_medium_pay_no_queueing() {
        let mut f = fabric(LanKind::SharedEthernet);
        f.send(SimTime::ZERO, site(0), SiteId::Server, MessageKind::ObjectSend, 1);
        let t = SimTime::from_secs(10);
        let d = f.send(t, site(1), SiteId::Server, MessageKind::ObjectRequest, 0);
        assert!(d.duration_since(t).as_secs_f64() < 0.001);
    }
}
