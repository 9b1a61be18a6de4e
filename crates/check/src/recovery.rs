//! Durability/recovery oracle for the crash-restart fault mode.
//!
//! Replays the WAL history from the `WalWrite` / `WalCommit` / `WalAbort`
//! event stream: a logged write is *pending* until its transaction commits
//! (the stamp becomes the page's newest committed effect) or aborts (the
//! stamp is rolled back in place and must never be seen again). A server
//! `SiteCrash` turns every pending transaction into a recovery loser whose
//! stamps must likewise never resurface. After each replay the engine dumps
//! the durable state (`RecoveryDone`, one `WalState` per nonzero page,
//! `SiteRecover`), and the oracle holds it to the ARIES contract: every
//! committed effect survives restart, and no aborted or loser effect
//! resurfaces.
//!
//! Stamps are compared as `(page, stamp)` pairs: a crash can truncate
//! staged loser records, letting later writes reuse raw LSN values, but a
//! reused stamp on the *same* page can only be a legitimate recommit.

use std::collections::{HashMap, HashSet};

use siteselect_obs::{Event, TraceData, TraceRecord};
use siteselect_types::{FixedState, ObjectId, ObjectSet, SiteId};

use crate::Violation;

/// The recovery oracle: feed it every record with
/// [`observe`](Self::observe), then ask [`finish`](Self::finish).
#[derive(Debug, Default)]
pub struct Recovery {
    /// txn -> writes logged but not yet resolved, in log order.
    pending: HashMap<u64, Vec<(ObjectId, u64)>, FixedState>,
    /// Write lists of resolved transactions, kept for their capacity.
    pool: Vec<Vec<(ObjectId, u64)>>,
    /// page -> stamp of its newest committed write.
    expected: HashMap<ObjectId, u64, FixedState>,
    /// Effects rolled back by an abort or lost with a crashed loser.
    rolled_back: HashSet<(ObjectId, u64), FixedState>,
    /// Pages listed by the state dump currently being verified.
    dump: Option<ObjectSet>,
    /// The first objection; the replay stops there.
    failed: Option<Violation>,
}

impl Recovery {
    /// Replays one record of the WAL history.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord) {
        if self.failed.is_none() {
            self.failed = self.replay(rec).err();
        }
    }

    fn replay(&mut self, rec: &TraceRecord) -> Result<(), Violation> {
        match rec.event {
            Event::WalWrite { txn, page, stamp } => {
                let pool = &mut self.pool;
                self.pending
                    .entry(txn.as_u64())
                    .or_insert_with(|| pool.pop().unwrap_or_default())
                    .push((page, stamp));
            }
            Event::WalCommit { txn } => {
                if let Some(mut writes) = self.pending.remove(&txn.as_u64()) {
                    self.expected.extend(writes.drain(..));
                    self.pool.push(writes);
                }
            }
            Event::WalAbort { txn } => {
                if let Some(mut writes) = self.pending.remove(&txn.as_u64()) {
                    self.rolled_back.extend(writes.drain(..));
                    self.pool.push(writes);
                }
            }
            Event::SiteCrash {
                site: SiteId::Server,
            } => {
                // Every unresolved transaction is a loser: replay must roll
                // its logged effects back.
                // detlint: allow(D2) — every write goes into one set; no order in the result
                for (_, mut writes) in self.pending.drain() {
                    self.rolled_back.extend(writes.drain(..));
                    self.pool.push(writes);
                }
            }
            Event::RecoveryDone {
                site: SiteId::Server,
                ..
            } => {
                self.dump = Some(ObjectSet::new());
            }
            Event::WalState { page, stamp } => {
                let want = self.expected.get(&page).copied().unwrap_or(0);
                if stamp != want {
                    if self.rolled_back.contains(&(page, stamp)) {
                        fail!(
                            "recovery",
                            "at t={}us replay left {page} holding stamp {stamp}, \
                             the effect of a rolled-back or loser transaction — \
                             an aborted write resurfaced after restart (newest \
                             committed stamp there is {want})",
                            rec.time.as_micros()
                        );
                    }
                    fail!(
                        "recovery",
                        "at t={}us replay left {page} holding stamp {stamp} but \
                         its newest committed write is stamp {want} — a \
                         committed effect did not survive restart",
                        rec.time.as_micros()
                    );
                }
                if let Some(seen) = self.dump.as_mut() {
                    seen.insert(page);
                }
            }
            Event::SiteRecover {
                site: SiteId::Server,
            } => {
                if let Some(seen) = self.dump.take() {
                    // The dump lists every nonzero page, so a committed page
                    // absent from it reverted to pristine. The diagnostic
                    // names the lowest-numbered one.
                    let lost = self
                        // detlint: allow(D2) — order-free fold: a minimum by page id
                        .expected
                        .iter()
                        .filter(|&(&page, &stamp)| stamp != 0 && !seen.contains(page))
                        .min_by_key(|&(&page, _)| page);
                    if let Some((page, stamp)) = lost {
                        fail!(
                            "recovery",
                            "post-restart state dump ending at t={}us has no \
                             entry for {page}, whose newest committed write \
                             is stamp {stamp} — a committed effect did not \
                             survive restart",
                            rec.time.as_micros()
                        );
                    }
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
    /// Returns a [`Violation`] naming the page and stamps the first time a
    /// post-restart state dump showed a committed effect missing or a
    /// rolled-back effect resurfacing.
    pub fn finish(self) -> Result<(), Violation> {
        self.failed.map_or(Ok(()), Err)
    }
}

/// Checks the durability contract over the whole trace.
///
/// # Errors
///
/// Returns a [`Violation`] naming the page and stamps the first time a
/// post-restart state dump shows a committed effect missing or a
/// rolled-back effect resurfacing.
pub fn check(trace: &TraceData) -> Result<(), Violation> {
    let mut oracle = Recovery::default();
    trace.records.iter().for_each(|rec| oracle.observe(rec));
    oracle.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_obs::EventSink;
    use siteselect_types::{ClientId, SimTime, TransactionId};

    fn emit(sink: &EventSink, at: u64, event: Event) {
        sink.emit(SimTime::from_micros(at), SiteId::Server, move || event);
    }

    fn txn(n: u64) -> TransactionId {
        TransactionId::new(ClientId(0), n)
    }

    fn write(t: u64, page: u32, stamp: u64) -> Event {
        Event::WalWrite {
            txn: txn(t),
            page: ObjectId(page),
            stamp,
        }
    }

    fn crash() -> Event {
        Event::SiteCrash {
            site: SiteId::Server,
        }
    }

    fn recovery_done() -> Event {
        Event::RecoveryDone {
            site: SiteId::Server,
            redo: 0,
            undone: 0,
            losers: 0,
            replay_ios: 0,
        }
    }

    fn state(page: u32, stamp: u64) -> Event {
        Event::WalState {
            page: ObjectId(page),
            stamp,
        }
    }

    fn recover() -> Event {
        Event::SiteRecover {
            site: SiteId::Server,
        }
    }

    #[test]
    fn committed_effects_surviving_restart_pass() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 7, 5));
        emit(&sink, 11, Event::WalCommit { txn: txn(1) });
        emit(&sink, 20, write(2, 7, 9)); // loser: crashes before commit
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, state(7, 5)); // rolled back to the committed stamp
        emit(&sink, 40, recover());
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn a_resurfaced_loser_write_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 7, 5));
        emit(&sink, 11, Event::WalCommit { txn: txn(1) });
        emit(&sink, 20, write(2, 7, 9));
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, state(7, 9)); // the loser's stamp survived
        emit(&sink, 40, recover());
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert_eq!(v.oracle, "recovery");
        assert!(v.detail.contains("resurfaced"), "{v}");
    }

    #[test]
    fn a_resurfaced_aborted_write_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 3, 4));
        emit(&sink, 12, Event::WalAbort { txn: txn(1) });
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, state(3, 4));
        emit(&sink, 40, recover());
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert!(v.detail.contains("resurfaced"), "{v}");
    }

    #[test]
    fn a_lost_committed_effect_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 7, 5));
        emit(&sink, 11, Event::WalCommit { txn: txn(1) });
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, state(7, 2)); // some stale stamp instead
        emit(&sink, 40, recover());
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert!(v.detail.contains("did not survive"), "{v}");
    }

    #[test]
    fn a_committed_page_missing_from_the_dump_is_flagged() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 7, 5));
        emit(&sink, 11, Event::WalCommit { txn: txn(1) });
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, recover()); // dump is empty: page 7 reverted to pristine
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert!(v.detail.contains("no entry"), "{v}");
    }

    #[test]
    fn client_crashes_do_not_create_losers() {
        let sink = EventSink::enabled(64);
        emit(&sink, 10, write(1, 7, 5));
        emit(
            &sink,
            15,
            Event::SiteCrash {
                site: SiteId::Client(ClientId(1)),
            },
        );
        emit(&sink, 20, Event::WalCommit { txn: txn(1) });
        emit(&sink, 30, crash());
        emit(&sink, 40, recovery_done());
        emit(&sink, 40, state(7, 5));
        emit(&sink, 40, recover());
        assert!(check(&sink.finish().unwrap()).is_ok());
    }
}
