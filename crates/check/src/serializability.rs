//! Conflict-graph serializability oracle.
//!
//! Replays `LockHeld` / `UnitEnd` events into per-unit *lock episodes*: the
//! interval from a unit's first grant on an object to its terminal event
//! (strict 2PL releases everything at the end). Committed episodes are then
//! pairwise compared per object:
//!
//! * Disjoint conflicting episodes yield a precedence edge from the earlier
//!   unit to the later one (commit order is the serialization order under
//!   2PL).
//! * *Overlapping* conflicting episodes — two units simultaneously holding
//!   incompatible locks on one object — yield edges in both directions,
//!   because neither order serializes them. That immediately forms a
//!   2-cycle, which is exactly how a locking bug surfaces here.
//!
//! A shared hold that is later upgraded keeps two timestamps: shared-since
//! and exclusive-since. Only the exclusive portion `[x_since, end]`
//! conflicts with other readers, so a legal `S …upgrade… X` sequence is not
//! misread as a write overlapping earlier readers.

use std::collections::HashMap;

use siteselect_obs::{Event, TraceData, TraceRecord};
use siteselect_types::{FixedState, ObjectId, SimTime, TransactionId};

use crate::Violation;

/// One unit's hold on one object.
#[derive(Debug, Clone, Copy)]
struct Hold {
    /// First grant (shared or exclusive) on the object.
    since: SimTime,
    /// First exclusive grant, if the unit ever wrote the object.
    x_since: Option<SimTime>,
}

/// One committed unit's hold on one object.
#[derive(Debug, Clone, Copy)]
struct Instance {
    object: ObjectId,
    /// Index into [`Serializability::committed`].
    unit: u32,
    hold: Hold,
}

/// The serializability oracle: feed it every record with
/// [`observe`](Self::observe), then ask [`finish`](Self::finish).
#[derive(Debug, Default)]
pub struct Serializability {
    /// Open lock episodes by raw unit id. A unit holds a handful of
    /// objects, so its list is searched linearly.
    current: HashMap<u64, Vec<(ObjectId, Hold)>, FixedState>,
    /// Hold lists of ended episodes, kept for their capacity.
    pool: Vec<Vec<(ObjectId, Hold)>>,
    /// Committed units in trace order: id and commit instant.
    committed: Vec<(TransactionId, SimTime)>,
    /// Every hold of every committed unit, in commit order.
    instances: Vec<Instance>,
}

impl Serializability {
    /// Replays one record into the open lock episodes.
    #[inline]
    pub fn observe(&mut self, rec: &TraceRecord) {
        match rec.event {
            Event::LockHeld {
                txn,
                object,
                exclusive,
            } => {
                let pool = &mut self.pool;
                let episode = self
                    .current
                    .entry(txn.as_u64())
                    .or_insert_with(|| pool.pop().unwrap_or_default());
                let pos = episode
                    .iter()
                    .position(|&(held, _)| held == object)
                    .unwrap_or_else(|| {
                        episode.push((
                            object,
                            Hold {
                                since: rec.time,
                                x_since: None,
                            },
                        ));
                        episode.len() - 1
                    });
                let hold = &mut episode[pos].1;
                if exclusive && hold.x_since.is_none() {
                    hold.x_since = Some(rec.time);
                }
            }
            Event::UnitEnd { txn, committed: ok } => {
                // An aborted or shipped-away episode releases its locks and
                // leaves no committed trace; the same unit id may open a
                // fresh episode later (remote re-execution after a ship).
                if let Some(mut episode) = self.current.remove(&txn.as_u64()) {
                    if ok {
                        let unit = self.committed.len() as u32;
                        self.committed.push((txn, rec.time));
                        self.instances.extend(
                            episode
                                .iter()
                                .map(|&(object, hold)| Instance { object, unit, hold }),
                        );
                    }
                    episode.clear();
                    self.pool.push(episode);
                }
            }
            _ => {}
        }
    }

    /// Checks that the committed lock episodes form an acyclic conflict
    /// graph.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] naming the cycle (and a witness object for
    /// its first edge) when the committed history is not
    /// conflict-serializable.
    pub fn finish(mut self) -> Result<(), Violation> {
        // One group per object, units in commit order inside it: the
        // pairwise conflict scan runs over each group.
        self.instances
            .sort_unstable_by_key(|i| (i.object, i.unit));
        let committed = &self.committed;
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for group in self.instances.chunk_by(|a, b| a.object == b.object) {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    if a.hold.x_since.is_none() && b.hold.x_since.is_none() {
                        continue; // read-read: no conflict
                    }
                    let (id_a, end_a) = committed[a.unit as usize];
                    let (id_b, end_b) = committed[b.unit as usize];
                    // The conflicting portion of a writer is [x_since, end]; it
                    // clashes with the whole episode [since, end] of the other.
                    let overlap = a
                        .hold
                        .x_since
                        .is_some_and(|x| x < end_b && b.hold.since < end_a)
                        || b.hold
                            .x_since
                            .is_some_and(|x| x < end_a && a.hold.since < end_b);
                    if overlap {
                        edges.push((a.unit, b.unit));
                        edges.push((b.unit, a.unit));
                    } else if (end_a, id_a.as_u64()) < (end_b, id_b.as_u64()) {
                        edges.push((a.unit, b.unit));
                    } else {
                        edges.push((b.unit, a.unit));
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();

        if let Some(cycle) = find_cycle(committed.len(), &edges) {
            let names: Vec<String> = cycle
                .iter()
                .map(|&i| committed[i as usize].0.to_string())
                .collect();
            let witness = witness_object(&self.instances, cycle[0], cycle[1]);
            fail!(
                "serializability",
                "committed units form a conflict cycle {} -> {} (object {witness}: \
                 conflicting lock episodes cannot be serialized in either order)",
                names.join(" -> "),
                names[0]
            );
        }
        Ok(())
    }
}

/// Checks that committed lock episodes form an acyclic conflict graph.
///
/// # Errors
///
/// Returns a [`Violation`] naming the cycle (and a witness object for its
/// first edge) when the committed history is not conflict-serializable.
pub fn check(trace: &TraceData) -> Result<(), Violation> {
    let mut oracle = Serializability::default();
    trace.records.iter().for_each(|rec| oracle.observe(rec));
    oracle.finish()
}

/// The lowest-numbered object on which two units of the cycle actually
/// conflict, for the diagnostic. `instances` is sorted by object. Falls
/// back to `ObjectId(0)`'s display if the pair shares no object (cannot
/// happen for adjacent cycle members).
fn witness_object(instances: &[Instance], a: u32, b: u32) -> ObjectId {
    for group in instances.chunk_by(|x, y| x.object == y.object) {
        let hold = |unit: u32| group.iter().find(|i| i.unit == unit).map(|i| i.hold);
        if let (Some(ha), Some(hb)) = (hold(a), hold(b)) {
            if ha.x_since.is_some() || hb.x_since.is_some() {
                return group[0].object;
            }
        }
    }
    ObjectId(0)
}

/// Iterative three-color DFS over `nodes` nodes and the sorted,
/// deduplicated edge list; returns the node sequence of the first cycle
/// found, in deterministic (index) order.
fn find_cycle(nodes: usize, edges: &[(u32, u32)]) -> Option<Vec<u32>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    // `edges[first[n]..first[n + 1]]` leave node `n`.
    let mut first = vec![0usize; nodes + 1];
    for &(from, _) in edges {
        first[from as usize + 1] += 1;
    }
    for n in 0..nodes {
        first[n + 1] += first[n];
    }
    let mut color = vec![WHITE; nodes];
    // (node, index of its next unvisited edge); empty between roots.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..nodes {
        if color[start] != WHITE {
            continue;
        }
        stack.push((start, first[start]));
        color[start] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < first[node + 1] {
                let succ = edges[*next].1 as usize;
                *next += 1;
                match color[succ] {
                    WHITE => {
                        color[succ] = GRAY;
                        stack.push((succ, first[succ]));
                    }
                    GRAY => {
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == succ)
                            .expect("gray node is on the DFS path");
                        return Some(stack[pos..].iter().map(|&(n, _)| n as u32).collect());
                    }
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use siteselect_obs::EventSink;
    use siteselect_types::{ClientId, SimTime, SiteId};

    fn unit(client: u16, seq: u64) -> TransactionId {
        TransactionId::new(ClientId(client), seq)
    }

    fn emit(sink: &EventSink, at: u64, event: Event) {
        sink.emit(SimTime::from_micros(at), SiteId::Server, move || event);
    }

    fn held(txn: TransactionId, object: u32, exclusive: bool) -> Event {
        Event::LockHeld {
            txn,
            object: ObjectId(object),
            exclusive,
        }
    }

    fn end(txn: TransactionId, committed: bool) -> Event {
        Event::UnitEnd { txn, committed }
    }

    #[test]
    fn disjoint_conflicting_episodes_pass() {
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, true));
        emit(&sink, 20, end(a, true));
        emit(&sink, 20, held(b, 7, true));
        emit(&sink, 30, end(b, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn overlapping_exclusive_episodes_form_a_cycle() {
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, true));
        emit(&sink, 15, held(b, 7, true));
        emit(&sink, 20, end(a, true));
        emit(&sink, 25, end(b, true));
        let v = check(&sink.finish().unwrap()).unwrap_err();
        assert_eq!(v.oracle, "serializability");
        assert!(v.detail.contains("conflict cycle"), "{v}");
    }

    #[test]
    fn overlapping_shared_episodes_are_fine() {
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, false));
        emit(&sink, 15, held(b, 7, false));
        emit(&sink, 20, end(a, true));
        emit(&sink, 25, end(b, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn upgrade_after_reader_commits_is_not_backdated() {
        // a reads from t=10; b reads [12, 20]; a upgrades to X at t=25 once
        // b is gone. The X interval must start at 25, not at 10 — otherwise
        // this legal schedule would be flagged as a write/read overlap.
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, false));
        emit(&sink, 12, held(b, 7, false));
        emit(&sink, 20, end(b, true));
        emit(&sink, 25, held(a, 7, true));
        emit(&sink, 30, end(a, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn upgrade_overlapping_a_reader_is_flagged() {
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, false));
        emit(&sink, 12, held(b, 7, false));
        emit(&sink, 15, held(a, 7, true)); // upgrade while b still reads
        emit(&sink, 20, end(b, true));
        emit(&sink, 25, end(a, true));
        assert!(check(&sink.finish().unwrap()).is_err());
    }

    #[test]
    fn aborted_episodes_never_conflict() {
        let sink = EventSink::enabled(64);
        let (a, b) = (unit(0, 1), unit(1, 1));
        emit(&sink, 10, held(a, 7, true));
        emit(&sink, 15, held(b, 7, true));
        emit(&sink, 20, end(a, false)); // aborted: discarded
        emit(&sink, 25, end(b, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }

    #[test]
    fn a_shipped_unit_may_reexecute_under_the_same_id() {
        // Origin episode ends uncommitted (ship), the remote re-execution
        // opens a fresh episode for the same unit id and commits.
        let sink = EventSink::enabled(64);
        let a = unit(0, 1);
        emit(&sink, 10, held(a, 7, true));
        emit(&sink, 12, end(a, false)); // shipped away
        emit(&sink, 14, held(a, 9, true));
        emit(&sink, 20, end(a, true));
        assert!(check(&sink.finish().unwrap()).is_ok());
    }
}
