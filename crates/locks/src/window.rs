//! Collection windows for the grouped-lock protocol (§3.4).
//!
//! The object server "collects all the lock requests for each database
//! object for a specified time interval (*collection window*) in an ordered
//! list (*forward list*)". [`WindowManager`] owns the open windows; the
//! simulator schedules a close event when a window opens and harvests the
//! forward list when it fires.
//!
//! A window holds one entry per requesting (client, transaction): a
//! retransmitted request joins once ([`ForwardList::join`]).
//!
//! A window that closes while its object is away is offered again and
//! closes again one window length later, until the object can be served.
//! So is the part of a closed list that the server does not serve yet (it
//! serves one run of one lock mode at a time). The trace tells one episode
//! per request all the same: a `WindowOpen` / `WindowClose` pair only
//! around a window that collected something new, one [`SpanKind::Window`]
//! span per request from its offer to the first close that saw it, and one
//! [`SpanKind::ObjectAway`] span from that close until the request leaves
//! the manager.

use std::collections::HashMap;

use siteselect_obs::{Event, EventSink, SpanKind};
use siteselect_types::{FixedState, ObjectId, SimDuration, SimTime, SiteId, TransactionId};

use crate::forward::{ForwardEntry, ForwardList};

/// Result of offering a request to the window manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowOffer {
    /// A new window was opened; the caller must schedule its close.
    Opened {
        /// When the window closes and the forward list ships.
        closes_at: SimTime,
    },
    /// An existing window absorbed the request.
    Joined,
}

/// Trace-only: one collected request's window episode.
#[derive(Debug, Clone, Copy)]
struct Offered {
    txn: TransactionId,
    /// When the request was first offered; kept across re-offers.
    offered_at: SimTime,
    /// When the first window holding it closed; `None` while it is fresh.
    first_close: Option<SimTime>,
}

/// The trace-only record of a closed window's requests. Hand it back to
/// [`WindowManager::reoffer`] with the list while the object is away, or to
/// [`WindowManager::depart`] when the list leaves the manager. Empty when
/// tracing is off.
#[derive(Debug, Default)]
#[must_use = "a closed window's episode is re-offered or departs"]
pub struct WindowEpisode {
    offered: Vec<Offered>,
}

impl WindowEpisode {
    /// Moves the records of `rest`'s requests into an episode of their own
    /// and keeps the others: when the server serves part of a closed list,
    /// the served requests depart and `rest` is re-offered.
    pub fn split_off(&mut self, rest: &ForwardList) -> WindowEpisode {
        let waits = |o: &Offered| rest.entries().iter().any(|e| e.txn == o.txn);
        let offered = if self.offered.iter().all(waits) {
            // The whole list waits (its object is away): no split.
            std::mem::take(&mut self.offered)
        } else {
            let (kept, offered) = self.offered.drain(..).partition(|o| !waits(o));
            self.offered = kept;
            offered
        };
        WindowEpisode { offered }
    }
}

#[derive(Debug, Clone)]
struct OpenWindow {
    list: ForwardList,
    /// True once a fresh request joined: its `WindowOpen` was emitted and
    /// the next close emits the matching `WindowClose`.
    collecting: bool,
    /// Trace-only: who entered the window when, in offer order (feeds the
    /// spans stamped at close and at departure). Empty when tracing is off.
    offered: Vec<Offered>,
}

/// Per-object collection-window state.
///
/// # Example
///
/// ```
/// use siteselect_locks::{ForwardEntry, WindowManager, WindowOffer};
/// use siteselect_types::{ClientId, LockMode, ObjectId, SimDuration, SimTime, TransactionId};
///
/// let mut wm = WindowManager::new(SimDuration::from_millis(100));
/// let e = ForwardEntry {
///     client: ClientId(1),
///     txn: TransactionId::new(ClientId(1), 0),
///     deadline: SimTime::from_secs(10),
///     mode: LockMode::Shared,
/// };
/// let offer = wm.offer(ObjectId(5), e, SimTime::ZERO);
/// assert!(matches!(offer, WindowOffer::Opened { .. }));
/// let list = wm.close(ObjectId(5)).unwrap();
/// assert_eq!(list.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WindowManager {
    window: SimDuration,
    open: HashMap<ObjectId, OpenWindow, FixedState>,
    total_opened: u64,
    sink: EventSink,
}

impl WindowManager {
    /// Creates a manager with the given collection-window length.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        WindowManager {
            window,
            open: HashMap::default(),
            total_opened: 0,
            sink: EventSink::disabled(),
        }
    }

    /// Attaches an event sink; window open/close events are emitted at the
    /// server site.
    pub fn set_sink(&mut self, sink: EventSink) {
        self.sink = sink;
    }

    /// Adds a request for `object` to its open window, opening one if
    /// needed. A fresh request opens a trace episode (`WindowOpen`) unless
    /// the window already has one open; a request the window already holds
    /// (same client and transaction) joins it once and is not fresh.
    pub fn offer(&mut self, object: ObjectId, entry: ForwardEntry, now: SimTime) -> WindowOffer {
        let fresh = Offered {
            txn: entry.txn,
            offered_at: now,
            first_close: None,
        };
        let traced = self.sink.is_enabled();
        if let Some(w) = self.open.get_mut(&object) {
            if !w.list.join(entry) {
                return WindowOffer::Joined;
            }
            if traced {
                w.offered.push(fresh);
            }
            if !w.collecting {
                // A new request joins a window parked for an absent object.
                w.collecting = true;
                self.sink
                    .emit(now, SiteId::Server, || Event::WindowOpen { object });
            }
            return WindowOffer::Joined;
        }
        let closes_at = now + self.window;
        let mut list = ForwardList::new(object);
        let offered = if traced { vec![fresh] } else { Vec::new() };
        list.push(entry);
        self.open.insert(
            object,
            OpenWindow {
                list,
                collecting: true,
                offered,
            },
        );
        self.total_opened += 1;
        self.sink
            .emit(now, SiteId::Server, || Event::WindowOpen { object });
        WindowOffer::Opened { closes_at }
    }

    /// Offers every entry of a closed window's `list` again at `now`, in
    /// list order — what a window that closed before its object could be
    /// served does. Returns when the window this opened closes (the caller
    /// must schedule it), or `None` if the entries joined one already open.
    /// With none open the list becomes the new window as it stands: it is
    /// already in deadline order, and its storage is kept. The entries are
    /// not fresh: they keep their `episode` and open no trace episode.
    pub fn reoffer(
        &mut self,
        list: ForwardList,
        episode: WindowEpisode,
        now: SimTime,
    ) -> Option<SimTime> {
        let object = list.object();
        if let Some(w) = self.open.get_mut(&object) {
            for &e in list.entries() {
                if !w.list.join(e) {
                    // Already waiting here: the older, re-offered record
                    // stands.
                    let txn = e.txn;
                    w.offered.retain(|o| o.txn != txn);
                }
            }
            w.offered.extend(episode.offered);
            return None;
        }
        if list.is_empty() {
            return None;
        }
        let closes_at = now + self.window;
        self.open.insert(
            object,
            OpenWindow {
                list,
                collecting: false,
                offered: episode.offered,
            },
        );
        self.total_opened += 1;
        Some(closes_at)
    }

    /// Closes the window on `object`, returning its deadline-ordered forward
    /// list. Returns `None` if no window is open (e.g. already closed).
    pub fn close(&mut self, object: ObjectId) -> Option<ForwardList> {
        self.open.remove(&object).map(|w| w.list)
    }

    /// Like [`close`](Self::close), but ends the trace episode the window
    /// collected at `now`: a `WindowClose` event with the batch size, plus
    /// one window-residency span per fresh request. The list comes back
    /// with its requests' [`WindowEpisode`].
    pub fn close_at(
        &mut self,
        object: ObjectId,
        now: SimTime,
    ) -> Option<(ForwardList, WindowEpisode)> {
        let mut w = self.open.remove(&object)?;
        if w.collecting {
            let batch = w.list.len() as u32;
            self.sink
                .emit(now, SiteId::Server, || Event::WindowClose { object, batch });
        }
        for o in w.offered.iter_mut().filter(|o| o.first_close.is_none()) {
            o.first_close = Some(now);
            let (txn, offered_at) = (o.txn, o.offered_at);
            self.sink
                .span(now, SiteId::Server, txn, SpanKind::Window, offered_at, None);
        }
        Some((w.list, WindowEpisode { offered: w.offered }))
    }

    /// A closed window's list left the manager at `now` (served, routed,
    /// handed to the plain path or dropped): one object-away span per
    /// request that waited past its first close.
    pub fn depart(&self, episode: WindowEpisode, now: SimTime) {
        for o in episode.offered {
            if let Some(closed) = o.first_close {
                let away = SpanKind::ObjectAway;
                self.sink
                    .span(now, SiteId::Server, o.txn, away, closed, None);
            }
        }
    }

    /// True if a window is currently collecting for `object`.
    #[must_use]
    pub fn is_open(&self, object: ObjectId) -> bool {
        self.open.contains_key(&object)
    }

    /// Requests currently collected for `object`.
    #[must_use]
    pub fn pending(&self, object: ObjectId) -> usize {
        self.open.get(&object).map_or(0, |w| w.list.len())
    }

    /// Windows ever opened.
    #[must_use]
    pub fn total_opened(&self) -> u64 {
        self.total_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_types::{ClientId, LockMode, TransactionId};

    fn entry(client: u16, deadline_s: u64) -> ForwardEntry {
        ForwardEntry {
            client: ClientId(client),
            txn: TransactionId::new(ClientId(client), 0),
            deadline: SimTime::from_secs(deadline_s),
            mode: LockMode::Exclusive,
        }
    }

    const OBJ: ObjectId = ObjectId(1);

    #[test]
    fn first_offer_opens_followers_join() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        let o1 = wm.offer(OBJ, entry(1, 30), SimTime::from_secs(1));
        assert_eq!(
            o1,
            WindowOffer::Opened {
                closes_at: SimTime::from_secs(1) + SimDuration::from_millis(50)
            }
        );
        assert_eq!(wm.offer(OBJ, entry(2, 20), SimTime::from_secs(1)), WindowOffer::Joined);
        assert_eq!(wm.pending(OBJ), 2);
        assert!(wm.is_open(OBJ));
    }

    #[test]
    fn close_returns_deadline_ordered_list() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(OBJ, entry(1, 30), SimTime::ZERO);
        wm.offer(OBJ, entry(2, 10), SimTime::ZERO);
        wm.offer(OBJ, entry(3, 20), SimTime::ZERO);
        let list = wm.close(OBJ).unwrap();
        let order: Vec<u16> = list.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
        assert!(!wm.is_open(OBJ));
        assert!(wm.close(OBJ).is_none());
    }

    #[test]
    fn windows_are_per_object() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(ObjectId(1), entry(1, 10), SimTime::ZERO);
        wm.offer(ObjectId(2), entry(2, 10), SimTime::ZERO);
        assert_eq!(wm.total_opened(), 2);
        assert_eq!(wm.pending(ObjectId(1)), 1);
        assert_eq!(wm.pending(ObjectId(2)), 1);
    }

    #[test]
    fn a_retransmitted_request_joins_a_window_once() {
        let (mut wm, sink) = traced(100);
        wm.offer(OBJ, entry(1, 30), ms(0));
        wm.offer(OBJ, entry(2, 20), ms(10));
        assert_eq!(wm.offer(OBJ, entry(1, 30), ms(20)), WindowOffer::Joined);
        assert_eq!(wm.pending(OBJ), 2);
        // Re-offered into a window that collected the same request anew,
        // it still counts once, with its first offer time.
        let (list, episode) = wm.close_at(OBJ, ms(100)).unwrap();
        wm.offer(OBJ, entry(2, 20), ms(150));
        assert_eq!(wm.reoffer(list, episode, ms(150)), None);
        let (list, episode) = wm.close_at(OBJ, ms(250)).unwrap();
        let clients: Vec<u16> = list.entries().iter().map(|e| e.client.0).collect();
        assert_eq!(clients, [2, 1]);
        wm.depart(episode, ms(250));
        assert_eq!(
            trace_of(&sink),
            vec![
                ("window_open", None, ms(0), ms(0)),
                ("window_close", None, ms(100), ms(100)),
                ("span_window", Some(1), ms(0), ms(100)),
                ("span_window", Some(2), ms(10), ms(100)),
                ("window_open", None, ms(150), ms(150)),
                ("window_close", None, ms(250), ms(250)),
                ("span_object_away", Some(1), ms(100), ms(250)),
                ("span_object_away", Some(2), ms(100), ms(250)),
            ]
        );
    }

    /// A served run departs at the close that served it; the rest waits
    /// on and departs when it is served in turn.
    #[test]
    fn a_split_episode_departs_in_two_parts() {
        let (mut wm, sink) = traced(100);
        let reader = ForwardEntry {
            mode: LockMode::Shared,
            ..entry(1, 10)
        };
        wm.offer(OBJ, reader, ms(0));
        wm.offer(OBJ, entry(2, 20), ms(0));
        wm.offer(OBJ, entry(3, 30), ms(0));
        let (mut list, mut episode) = wm.close_at(OBJ, ms(100)).unwrap();
        let rest = list.split_run();
        assert_eq!((list.len(), rest.len()), (1, 2));
        let waiting = episode.split_off(&rest);
        wm.depart(episode, ms(150));
        assert!(wm.reoffer(rest, waiting, ms(150)).is_some());
        let (_, episode) = wm.close_at(OBJ, ms(250)).unwrap();
        wm.depart(episode, ms(250));
        let away: Vec<_> = trace_of(&sink)
            .into_iter()
            .filter(|r| r.0 == "span_object_away")
            .collect();
        assert_eq!(
            away,
            [
                ("span_object_away", Some(1), ms(100), ms(150)),
                ("span_object_away", Some(2), ms(100), ms(250)),
                ("span_object_away", Some(3), ms(100), ms(250)),
            ]
        );
    }

    #[test]
    fn reopening_after_close_is_a_fresh_window() {
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        wm.offer(OBJ, entry(1, 10), SimTime::ZERO);
        wm.close(OBJ);
        let again = wm.offer(OBJ, entry(2, 10), SimTime::from_secs(5));
        assert!(matches!(again, WindowOffer::Opened { .. }));
        assert_eq!(wm.total_opened(), 2);
    }

    /// `reoffer` against the loop it replaces: the closed list's entries
    /// offered one by one. The re-offering manager is traced, so its trace
    /// episodes are seen to leave the window counters where they were.
    #[test]
    fn reoffer_is_offering_each_entry_again() {
        let now = SimTime::from_secs(3);
        for open_already in [false, true] {
            let mut whole = WindowManager::new(SimDuration::from_millis(50));
            let mut single = whole.clone();
            whole.set_sink(EventSink::enabled(64));
            for wm in [&mut whole, &mut single] {
                for (c, d) in [(1, 30), (2, 10), (3, 20), (4, 10)] {
                    wm.offer(OBJ, entry(c, d), SimTime::ZERO);
                }
            }
            let (list, episode) = whole.close_at(OBJ, SimTime::from_secs(1)).unwrap();
            assert_eq!(single.close(OBJ).as_ref(), Some(&list));
            if open_already {
                whole.offer(OBJ, entry(9, 15), SimTime::from_secs(2));
                single.offer(OBJ, entry(9, 15), SimTime::from_secs(2));
            }
            let mut opened = None;
            for &e in list.entries() {
                if let WindowOffer::Opened { closes_at } = single.offer(OBJ, e, now) {
                    opened = Some(closes_at);
                }
            }
            assert_eq!(whole.reoffer(list, episode, now), opened);
            assert_eq!(opened.is_some(), !open_already);
            assert_eq!(whole.total_opened(), single.total_opened());
            assert_eq!(whole.close(OBJ), single.close(OBJ));
        }
        let mut wm = WindowManager::new(SimDuration::from_millis(50));
        let empty = ForwardList::new(OBJ);
        assert_eq!(wm.reoffer(empty, WindowEpisode::default(), now), None);
        assert!(!wm.is_open(OBJ));
    }

    /// The window events and spans a traced manager emitted, as
    /// `(kind, txn, start, end)` in emission order.
    fn trace_of(sink: &EventSink) -> Vec<(&'static str, Option<u16>, SimTime, SimTime)> {
        let client = |t: TransactionId| t.origin().0;
        sink.finish()
            .unwrap()
            .records
            .into_iter()
            .map(|r| match r.event {
                Event::Span { txn, start, .. } => (r.event.kind(), txn.map(client), start, r.time),
                ref e => (e.kind(), None, r.time, r.time),
            })
            .collect()
    }

    fn traced(window_ms: u64) -> (WindowManager, EventSink) {
        let mut wm = WindowManager::new(SimDuration::from_millis(window_ms));
        let sink = EventSink::enabled(256);
        wm.set_sink(sink.clone());
        (wm, sink)
    }

    fn ms(t: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(t)
    }

    #[test]
    fn a_window_reoffered_k_times_is_one_trace_episode() {
        for k in [0u64, 1, 5] {
            let (mut wm, sink) = traced(100);
            for c in 1..=3 {
                wm.offer(OBJ, entry(c, 30), ms(10 * u64::from(c)));
            }
            let mut now = ms(100);
            let (mut list, mut episode) = wm.close_at(OBJ, now).unwrap();
            for _ in 0..k {
                let next = now + SimDuration::from_millis(100);
                assert_eq!(wm.reoffer(list, episode, now), Some(next));
                now = next;
                (list, episode) = wm.close_at(OBJ, now).unwrap();
            }
            assert_eq!(list.len(), 3);
            wm.depart(episode, now);
            assert_eq!(wm.total_opened(), 1 + k);
            let mut want = vec![("window_open", None, ms(10), ms(10))];
            want.push(("window_close", None, ms(100), ms(100)));
            for c in 1..=3 {
                want.push(("span_window", Some(c), ms(10 * u64::from(c)), ms(100)));
            }
            if k > 0 {
                for c in 1..=3 {
                    want.push(("span_object_away", Some(c), ms(100), now));
                }
            }
            assert_eq!(trace_of(&sink), want, "re-offered {k} times");
        }
    }

    #[test]
    fn a_request_joining_a_parked_window_opens_an_episode_of_its_own() {
        let (mut wm, sink) = traced(100);
        wm.offer(OBJ, entry(1, 30), ms(0));
        wm.offer(OBJ, entry(2, 30), ms(0));
        let (list, episode) = wm.close_at(OBJ, ms(100)).unwrap();
        assert!(wm.reoffer(list, episode, ms(100)).is_some());
        assert_eq!(wm.offer(OBJ, entry(3, 10), ms(150)), WindowOffer::Joined);
        assert_eq!(wm.offer(OBJ, entry(4, 40), ms(160)), WindowOffer::Joined);
        let (list, episode) = wm.close_at(OBJ, ms(200)).unwrap();
        assert_eq!(list.len(), 4);
        wm.depart(episode, ms(200));
        assert_eq!(wm.total_opened(), 2);
        assert_eq!(
            trace_of(&sink),
            vec![
                ("window_open", None, ms(0), ms(0)),
                ("window_close", None, ms(100), ms(100)),
                ("span_window", Some(1), ms(0), ms(100)),
                ("span_window", Some(2), ms(0), ms(100)),
                ("window_open", None, ms(150), ms(150)),
                ("window_close", None, ms(200), ms(200)),
                ("span_window", Some(3), ms(150), ms(200)),
                ("span_window", Some(4), ms(160), ms(200)),
                ("span_object_away", Some(1), ms(100), ms(200)),
                ("span_object_away", Some(2), ms(100), ms(200)),
            ]
        );
    }
}
