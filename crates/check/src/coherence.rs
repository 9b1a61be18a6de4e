//! Cache/lock-coherence oracle for the callback protocol.
//!
//! Replays the cached-lock table from the `CacheInstall` / `CacheDowngrade`
//! / `CacheDrop` / `CacheWipe` event stream in merged `(time, site, seq)`
//! order and enforces the callback invariant at every step: for any object,
//! an exclusive cached lock excludes every other client's cached lock, and
//! a shared cached lock excludes other clients' exclusive ones. Downgrades
//! (callback answered with downgrade-to-shared) and server-side lease
//! fences under chaos are part of the replayed protocol, not exemptions.
//!
//! A `CacheDrop` for an entry the replay does not hold is tolerated: a
//! lease fence can race an in-flight revoke, and the engine's removal of an
//! already-absent entry is a no-op there too.

use std::collections::HashMap;

use siteselect_obs::{Event, TraceData, TraceRecord};
use siteselect_types::{ClientId, FixedState, InlineVec, ObjectId};

use crate::Violation;

/// One object's cached locks: `(holder, exclusive?)`, in no order.
type Holders = InlineVec<(ClientId, bool), 4>;

/// The coherence oracle: feed it every record with
/// [`observe`](Self::observe), then ask [`finish`](Self::finish).
#[derive(Debug, Default)]
pub struct Coherence {
    cached: HashMap<ObjectId, Holders, FixedState>,
    /// The first objection; the replay stops there.
    failed: Option<Violation>,
}

impl Coherence {
    /// Replays one record into the cached-lock table.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord) {
        if self.failed.is_none() {
            self.failed = self.replay(rec).err();
        }
    }

    fn replay(&mut self, rec: &TraceRecord) -> Result<(), Violation> {
        match rec.event {
            Event::CacheInstall {
                client,
                object,
                exclusive,
            } => {
                let holders = self.cached.entry(object).or_default();
                // Its own entry is an upgrade or a refresh, not a conflict.
                let conflict = holders
                    .iter()
                    .filter(|&&(other, other_exclusive)| {
                        other != client && (exclusive || other_exclusive)
                    })
                    .min_by_key(|&&(other, _)| other);
                if let Some(&(other, other_exclusive)) = conflict {
                    fail!(
                        "coherence",
                        "at t={}us client#{} installed {} cached lock on {object} \
                         while client#{} still holds {} — callback protocol let \
                         conflicting cached locks coexist",
                        rec.time.as_micros(),
                        client.0,
                        mode_str(exclusive),
                        other.0,
                        mode_str(other_exclusive)
                    );
                }
                let own = holders.iter().position(|&(holder, _)| holder == client);
                match own {
                    Some(own) => holders.set(own, (client, exclusive)),
                    None => holders.push((client, exclusive)),
                }
            }
            Event::CacheDowngrade { client, object } => {
                let held = self
                    .cached
                    .get_mut(&object)
                    .and_then(|h| h.iter_mut().find(|(holder, _)| *holder == client));
                match held {
                    Some((_, exclusive)) => *exclusive = false,
                    None => fail!(
                        "coherence",
                        "at t={}us client#{} downgraded {object} but the replayed \
                         cache table shows it holding no cached lock there",
                        rec.time.as_micros(),
                        client.0
                    ),
                }
            }
            Event::CacheDrop { client, object } => {
                if let Some(holders) = self.cached.get_mut(&object) {
                    holders.retain(|&(holder, _)| holder != client);
                }
            }
            Event::CacheWipe { client } => {
                // detlint: allow(D2) — every list loses the same client; no order in the result
                for holders in self.cached.values_mut() {
                    holders.retain(|&(holder, _)| holder != client);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// The verdict on everything observed.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] naming the object, both clients, and both
    /// modes the first time two incompatible cached locks coexisted, or
    /// when a client downgraded a lock it did not hold.
    pub fn finish(self) -> Result<(), Violation> {
        self.failed.map_or(Ok(()), Err)
    }
}

/// Checks the cached-lock exclusion invariant over the whole trace.
///
/// # Errors
///
/// Returns a [`Violation`] naming the object, both clients, and both modes
/// the first time two incompatible cached locks coexist, or when a client
/// downgrades a lock it does not hold.
pub fn check(trace: &TraceData) -> Result<(), Violation> {
    let mut oracle = Coherence::default();
    trace.records.iter().for_each(|rec| oracle.observe(rec));
    oracle.finish()
}

fn mode_str(exclusive: bool) -> &'static str {
    if exclusive {
        "an exclusive"
    } else {
        "a shared"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_obs::EventSink;
    use siteselect_types::{SimTime, SiteId};

    fn emit(sink: &EventSink, at: u64, event: Event) {
        sink.emit(SimTime::from_micros(at), SiteId::Server, move || event);
    }

    fn install(client: u16, object: u32, exclusive: bool) -> Event {
        Event::CacheInstall {
            client: ClientId(client),
            object: ObjectId(object),
            exclusive,
        }
    }

    fn drop_(client: u16, object: u32) -> Event {
        Event::CacheDrop {
            client: ClientId(client),
            object: ObjectId(object),
        }
    }

    #[test]
    fn shared_copies_coexist_and_handoff_passes() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, install(0, 5, false));
        emit(&sink, 12, install(1, 5, false));
        emit(&sink, 20, drop_(0, 5));
        emit(&sink, 21, drop_(1, 5));
        emit(&sink, 30, install(2, 5, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn exclusive_alongside_shared_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, install(0, 5, true));
        emit(&sink, 12, install(1, 5, false));
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert_eq!(v.oracle, "coherence");
        assert!(v.detail.contains("conflicting cached locks"), "{v}");
    }

    #[test]
    fn downgrade_makes_room_for_readers() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, install(0, 5, true));
        emit(
            &sink,
            15,
            Event::CacheDowngrade {
                client: ClientId(0),
                object: ObjectId(5),
            },
        );
        emit(&sink, 20, install(1, 5, false));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn downgrade_without_a_cached_lock_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(
            &sink,
            15,
            Event::CacheDowngrade {
                client: ClientId(0),
                object: ObjectId(5),
            },
        );
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert!(v.detail.contains("no cached lock"), "{v}");
    }

    #[test]
    fn a_wipe_releases_everything_the_client_held() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, install(0, 5, true));
        emit(&sink, 11, install(0, 6, true));
        emit(&sink, 15, Event::CacheWipe { client: ClientId(0) });
        emit(&sink, 20, install(1, 5, true));
        emit(&sink, 21, install(1, 6, false));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn upgrading_own_entry_is_not_a_conflict() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, install(0, 5, false));
        emit(&sink, 12, install(0, 5, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }
}
