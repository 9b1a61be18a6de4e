//! The PF-layer buffer manager: pinned frames with LRU replacement and
//! dirty write-back, as in the MiniRel system the paper builds on.

use std::error::Error;
use std::fmt;

use siteselect_types::{ObjectId, ObjectMap};

use crate::disk::DiskFile;
use crate::page::Page;

/// Replacement policy for unpinned frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict the least-recently-used unpinned frame (the only policy).
    #[default]
    Lru,
}

/// Cumulative buffer-manager statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Fetches satisfied without disk I/O.
    pub hits: u64,
    /// Fetches that required reading the page from disk.
    pub misses: u64,
    /// Victim frames recycled.
    pub evictions: u64,
    /// Dirty victim pages written back to disk.
    pub writebacks: u64,
}

/// Error returned by buffer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferError {
    /// Every frame is pinned; no victim can be chosen.
    AllFramesPinned,
    /// The requested page does not exist in the backing file.
    NoSuchPage(ObjectId),
    /// The frame handle does not name an occupied frame.
    BadFrame,
}

impl fmt::Display for BufferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BufferError::AllFramesPinned => write!(f, "all buffer frames are pinned"),
            BufferError::NoSuchPage(id) => write!(f, "page {id} does not exist"),
            BufferError::BadFrame => write!(f, "invalid frame handle"),
        }
    }
}

impl Error for BufferError {}

/// Link sentinel: "no neighbour".
const NIL: u32 = u32::MAX;

/// A frame's neighbours in one of the lists threaded through the frames.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// The two ends of such a list.
#[derive(Debug, Clone, Copy)]
struct Ends {
    head: u32,
    tail: u32,
}

const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

/// Which of a frame's two lists an operation works on.
#[derive(Debug, Clone, Copy)]
enum List {
    /// Every occupied frame, least recently fetched at the head.
    Recency,
    /// The frames whose dirty bit is set; their order carries no meaning.
    Dirty,
}

#[derive(Debug, Clone)]
struct Frame {
    page: Page,
    pin_count: u32,
    dirty: bool,
    last_used: u64,
    recency: Link,
    /// Meaningful only while `dirty` is set.
    dirt: Link,
}

impl Frame {
    fn link_mut(&mut self, list: List) -> &mut Link {
        match list {
            List::Recency => &mut self.recency,
            List::Dirty => &mut self.dirt,
        }
    }
}

/// A fixed-capacity page buffer over a [`DiskFile`].
///
/// Frames are identified by index handles returned from
/// [`BufferManager::fetch`]. A frame with a positive pin count is never
/// evicted; dirty frames are written back to disk when evicted or flushed.
///
/// No operation depends on the number of frames. Frames fill in index
/// order and a filled frame only ever changes its page, so `frames.len()`
/// is the lowest empty frame. The filled ones sit on a list in order of
/// last fetch, so the LRU victim is the first unpinned frame from its
/// head; the dirty ones sit on a second list, so a flush walks those
/// alone. Both lists are links inside the frames.
///
/// # Example
///
/// ```
/// use siteselect_storage::{BufferManager, DiskFile, Replacement};
/// use siteselect_types::{ObjectId, ObjectMap};
///
/// let mut disk = DiskFile::with_patterned_pages(100);
/// let mut buf = BufferManager::new(4, Replacement::Lru);
/// let f = buf.fetch(ObjectId(1), &mut disk).unwrap();
/// assert_eq!(buf.page(f).unwrap().id(), ObjectId(1));
/// buf.unpin(f).unwrap();
/// ```
#[derive(Debug)]
pub struct BufferManager {
    capacity: usize,
    frames: Vec<Frame>,
    map: ObjectMap<u32>,
    tick: u64,
    recency: Ends,
    dirt: Ends,
    stats: BufferStats,
    /// Frames inspected by victim walks and flushes; the shape tests read
    /// it.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

impl BufferManager {
    /// Creates a buffer with `capacity` frames under LRU replacement, the
    /// one [`Replacement`] policy.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, _policy: Replacement) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        BufferManager {
            capacity,
            frames: Vec::with_capacity(capacity),
            map: ObjectMap::new(),
            tick: 0,
            recency: EMPTY,
            dirt: EMPTY,
            stats: BufferStats::default(),
            #[cfg(test)]
            visits: std::cell::Cell::new(0),
        }
    }

    #[inline]
    fn note_visit(&self) {
        #[cfg(test)]
        self.visits.set(self.visits.get() + 1);
    }

    fn frame(&self, idx: u32) -> &Frame {
        // detlint: allow(D9) — frame ids come from `map` and the list links, which hold only indexes of pushed frames (< frames.len())
        &self.frames[idx as usize]
    }

    fn frame_mut(&mut self, idx: u32) -> &mut Frame {
        // detlint: allow(D9) — same invariant as `frame`
        &mut self.frames[idx as usize]
    }

    fn ends_mut(&mut self, list: List) -> &mut Ends {
        match list {
            List::Recency => &mut self.recency,
            List::Dirty => &mut self.dirt,
        }
    }

    /// Detaches a listed frame from `list`.
    fn unlink(&mut self, list: List, idx: u32) {
        let Link { prev, next } = *self.frame_mut(idx).link_mut(list);
        match prev {
            NIL => self.ends_mut(list).head = next,
            p => self.frame_mut(p).link_mut(list).next = next,
        }
        match next {
            NIL => self.ends_mut(list).tail = prev,
            n => self.frame_mut(n).link_mut(list).prev = prev,
        }
    }

    /// Attaches an unlisted frame at the tail of `list`.
    fn push_tail(&mut self, list: List, idx: u32) {
        let tail = std::mem::replace(&mut self.ends_mut(list).tail, idx);
        *self.frame_mut(idx).link_mut(list) = Link {
            prev: tail,
            next: NIL,
        };
        match tail {
            NIL => self.ends_mut(list).head = idx,
            t => self.frame_mut(t).link_mut(list).next = idx,
        }
    }

    /// Number of frames.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied frames.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no frame is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if the page is currently buffered.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains(id)
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Brings `id` into the buffer (reading from `disk` on a miss), pins the
    /// frame, and returns its handle.
    ///
    /// # Errors
    ///
    /// [`BufferError::NoSuchPage`] if the page is not in the file;
    /// [`BufferError::AllFramesPinned`] if no victim frame is available.
    pub fn fetch(&mut self, id: ObjectId, disk: &mut DiskFile) -> Result<usize, BufferError> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(&idx) = self.map.get(id) {
            let frame = self.frame_mut(idx);
            frame.pin_count += 1;
            frame.last_used = tick;
            self.stats.hits += 1;
            if self.recency.tail != idx {
                self.unlink(List::Recency, idx);
                self.push_tail(List::Recency, idx);
            }
            return Ok(idx as usize);
        }
        if !disk.contains(id) {
            return Err(BufferError::NoSuchPage(id));
        }
        let idx = if self.frames.len() < self.capacity {
            // detlint: allow(D9) — one frame per 2 KB page; 2^32 of them do not fit in memory
            let idx = u32::try_from(self.frames.len()).expect("under 2^32 frames");
            self.frames.push(Frame {
                // detlint: allow(D9) — `contains` said so above
                page: disk.read(id).expect("contains() checked above"),
                pin_count: 1,
                dirty: false,
                last_used: tick,
                recency: UNLINKED,
                dirt: UNLINKED,
            });
            idx
        } else {
            // The incoming page takes over the victim's frame, buffer and
            // all: a miss on a warm pool allocates nothing.
            let idx = self.evict(disk)?;
            let frame = self.frame_mut(idx);
            let read = disk.read_into(id, &mut frame.page);
            debug_assert!(read, "contains() checked above");
            frame.pin_count = 1;
            frame.last_used = tick;
            idx
        };
        self.push_tail(List::Recency, idx);
        self.map.insert(id, idx);
        self.stats.misses += 1;
        Ok(idx as usize)
    }

    /// Chooses a victim in a full pool, writes it back if dirty and takes
    /// it off the map and both lists.
    fn evict(&mut self, disk: &mut DiskFile) -> Result<u32, BufferError> {
        let idx = self.lru_victim().ok_or(BufferError::AllFramesPinned)?;
        self.unlink(List::Recency, idx);
        let frame = self.frame_mut(idx);
        let id = frame.page.id();
        if std::mem::take(&mut frame.dirty) {
            disk.write(&frame.page);
            self.unlink(List::Dirty, idx);
            self.stats.writebacks += 1;
        }
        self.map.remove(id);
        self.stats.evictions += 1;
        Ok(idx)
    }

    /// The least recently fetched unpinned frame. `last_used` is unique
    /// per fetch and a fetch moves its frame to the tail, so the list runs
    /// in `last_used` order and the walk only steps over pinned frames.
    fn lru_victim(&self) -> Option<u32> {
        let mut cur = self.recency.head;
        while cur != NIL {
            self.note_visit();
            let frame = self.frame(cur);
            if frame.pin_count == 0 {
                return Some(cur);
            }
            cur = frame.recency.next;
        }
        None
    }

    /// Increments the pin count of an occupied frame.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale.
    pub fn pin(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self.frames.get_mut(idx).ok_or(BufferError::BadFrame)?;
        frame.pin_count += 1;
        Ok(())
    }

    /// Decrements the pin count of an occupied frame.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale or the frame is not
    /// pinned.
    pub fn unpin(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self.frames.get_mut(idx).ok_or(BufferError::BadFrame)?;
        if frame.pin_count == 0 {
            return Err(BufferError::BadFrame);
        }
        frame.pin_count -= 1;
        Ok(())
    }

    /// Marks a frame dirty so its page is written back on eviction/flush.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale.
    pub fn mark_dirty(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self.frames.get_mut(idx).ok_or(BufferError::BadFrame)?;
        if !std::mem::replace(&mut frame.dirty, true) {
            // Lossless: `idx < frames.len()`, which `fetch` keeps under 2^32.
            self.push_tail(List::Dirty, idx as u32);
        }
        Ok(())
    }

    /// Read access to a buffered page.
    #[must_use]
    pub fn page(&self, idx: usize) -> Option<&Page> {
        self.frames.get(idx).map(|f| &f.page)
    }

    /// Write access to a buffered page (the caller must also
    /// [`mark_dirty`](Self::mark_dirty)).
    pub fn page_mut(&mut self, idx: usize) -> Option<&mut Page> {
        self.frames.get_mut(idx).map(|f| &mut f.page)
    }

    /// Read access to a buffered page by id, without pinning or touching
    /// recency state (used for non-counted inspection).
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<&Page> {
        let &idx = self.map.get(id)?;
        Some(&self.frame(idx).page)
    }

    /// Writes every dirty page back to `disk` and clears the dirty bits.
    pub fn flush_all(&mut self, disk: &mut DiskFile) {
        let mut cur = std::mem::replace(&mut self.dirt, EMPTY).head;
        while cur != NIL {
            self.note_visit();
            let frame = self.frame_mut(cur);
            disk.write(&frame.page);
            frame.dirty = false;
            cur = frame.dirt.next;
            self.stats.writebacks += 1;
        }
    }

    /// Pin count of a frame (testing / assertions).
    #[must_use]
    pub fn pin_count(&self, idx: usize) -> Option<u32> {
        self.frames.get(idx).map(|f| f.pin_count)
    }
}

#[cfg(test)]
impl BufferManager {
    /// Frames inspected so far by victim walks and flushes.
    pub(crate) fn visits(&self) -> u64 {
        self.visits.get()
    }

    /// The lists, the map and the frames must describe one pool: every
    /// filled frame mapped and on the recency list in `last_used` order,
    /// exactly the dirty ones on the dirty list.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        let filled = self.frames.len();
        if filled > self.capacity || self.map.len() != filled {
            return Err(format!(
                "{filled} frames filled, {} mapped, capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        for (i, f) in self.frames.iter().enumerate() {
            if self.map.get(f.page.id()) != Some(&(i as u32)) {
                return Err(format!(
                    "frame {i} holds {} but the map disagrees",
                    f.page.id()
                ));
            }
        }
        let walk = |ends: Ends, link: fn(&Frame) -> Link| -> Result<Vec<u32>, String> {
            let (mut seen, mut prev, mut cur) = (Vec::new(), NIL, ends.head);
            while cur != NIL {
                let f = self
                    .frames
                    .get(cur as usize)
                    .ok_or(format!("link to empty frame {cur}"))?;
                if link(f).prev != prev || seen.len() > filled {
                    return Err(format!("broken list at frame {cur}"));
                }
                seen.push(cur);
                (prev, cur) = (cur, link(f).next);
            }
            if ends.tail != prev {
                return Err(format!(
                    "tail is {} but the walk ended at {prev}",
                    ends.tail
                ));
            }
            Ok(seen)
        };
        let recency = walk(self.recency, |f| f.recency)?;
        if recency.len() != filled {
            return Err(format!(
                "{} of {filled} frames on the recency list",
                recency.len()
            ));
        }
        if !recency
            .windows(2)
            .all(|w| self.frame(w[0]).last_used < self.frame(w[1]).last_used)
        {
            return Err("recency list out of last_used order".into());
        }
        let dirty = walk(self.dirt, |f| f.dirt)?;
        if dirty.iter().any(|&i| !self.frame(i).dirty)
            || dirty.len() != self.frames.iter().filter(|f| f.dirty).count()
        {
            return Err(format!(
                "dirty list {dirty:?} does not match the dirty bits"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(cap: usize, policy: Replacement) -> (DiskFile, BufferManager) {
        (
            DiskFile::with_patterned_pages(64),
            BufferManager::new(cap, policy),
        )
    }

    #[test]
    fn hit_after_miss() {
        let (mut disk, mut buf) = setup(4, Replacement::Lru);
        let f = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        let f2 = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(f2).unwrap();
        assert_eq!(buf.stats().misses, 1);
        assert_eq!(buf.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let a = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(a).unwrap();
        let b = buf.fetch(ObjectId(2), &mut disk).unwrap();
        buf.unpin(b).unwrap();
        // Touch 1 so 2 becomes LRU.
        let a = buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.unpin(a).unwrap();
        let c = buf.fetch(ObjectId(3), &mut disk).unwrap();
        buf.unpin(c).unwrap();
        assert!(buf.contains(ObjectId(1)));
        assert!(!buf.contains(ObjectId(2)));
        assert!(buf.contains(ObjectId(3)));
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let _a = buf.fetch(ObjectId(1), &mut disk).unwrap(); // stays pinned
        let b = buf.fetch(ObjectId(2), &mut disk).unwrap();
        buf.unpin(b).unwrap();
        let c = buf.fetch(ObjectId(3), &mut disk).unwrap();
        assert!(buf.contains(ObjectId(1)));
        assert!(!buf.contains(ObjectId(2)));
        buf.unpin(c).unwrap();
    }

    #[test]
    fn all_pinned_errors() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        buf.fetch(ObjectId(1), &mut disk).unwrap();
        buf.fetch(ObjectId(2), &mut disk).unwrap();
        assert_eq!(
            buf.fetch(ObjectId(3), &mut disk),
            Err(BufferError::AllFramesPinned)
        );
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let (mut disk, mut buf) = setup(1, Replacement::Lru);
        let f = buf.fetch(ObjectId(5), &mut disk).unwrap();
        buf.page_mut(f).unwrap().write_u64_at(0, 999);
        buf.mark_dirty(f).unwrap();
        buf.unpin(f).unwrap();
        let g = buf.fetch(ObjectId(6), &mut disk).unwrap();
        buf.unpin(g).unwrap();
        assert_eq!(disk.peek(ObjectId(5)).unwrap().read_u64_at(0), 999);
        assert_eq!(buf.stats().writebacks, 1);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (mut disk, mut buf) = setup(4, Replacement::Lru);
        let f = buf.fetch(ObjectId(7), &mut disk).unwrap();
        buf.page_mut(f).unwrap().write_u64_at(8, 123);
        buf.mark_dirty(f).unwrap();
        buf.flush_all(&mut disk);
        assert_eq!(disk.peek(ObjectId(7)).unwrap().read_u64_at(8), 123);
        // Second flush writes nothing new.
        let w = buf.stats().writebacks;
        buf.flush_all(&mut disk);
        assert_eq!(buf.stats().writebacks, w);
        buf.unpin(f).unwrap();
    }

    #[test]
    fn missing_page_reports_error() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        assert_eq!(
            buf.fetch(ObjectId(999), &mut disk),
            Err(BufferError::NoSuchPage(ObjectId(999)))
        );
    }

    #[test]
    fn bad_frame_handles() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        assert_eq!(buf.unpin(0), Err(BufferError::BadFrame));
        assert_eq!(buf.mark_dirty(7), Err(BufferError::BadFrame));
        assert_eq!(buf.pin(1), Err(BufferError::BadFrame));
        let f = buf.fetch(ObjectId(0), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        assert_eq!(buf.unpin(f), Err(BufferError::BadFrame)); // double unpin
    }

    #[test]
    fn pin_stacks() {
        let (mut disk, mut buf) = setup(2, Replacement::Lru);
        let f = buf.fetch(ObjectId(0), &mut disk).unwrap();
        buf.pin(f).unwrap();
        assert_eq!(buf.pin_count(f), Some(2));
        buf.unpin(f).unwrap();
        assert_eq!(buf.pin_count(f), Some(1));
    }

    #[test]
    fn display_of_errors() {
        assert!(BufferError::AllFramesPinned.to_string().contains("pinned"));
        assert!(BufferError::NoSuchPage(ObjectId(3)).to_string().contains("obj#3"));
    }

    /// A full pool of `frames` unpinned clean frames holding pages
    /// `0..frames`, fetched in that order.
    fn full_pool(frames: u32) -> (DiskFile, BufferManager) {
        let mut disk = DiskFile::new(2 * frames);
        let mut buf = BufferManager::new(frames as usize, Replacement::Lru);
        for i in 0..frames {
            let f = buf.fetch(ObjectId(i), &mut disk).unwrap();
            buf.unpin(f).unwrap();
        }
        (disk, buf)
    }

    #[test]
    fn a_miss_in_a_full_pool_inspects_one_frame_plus_the_pinned_ones_ahead() {
        let (mut disk, mut buf) = full_pool(5_000);
        assert_eq!(buf.visits(), 0, "filling an empty pool looks for no victim");
        let f = buf.fetch(ObjectId(5_000), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        assert_eq!(buf.visits(), 1);
        assert!(!buf.contains(ObjectId(0)));
        // Pages 1, 2 and 3 (frames 1, 2 and 3) are now the oldest. Pinned
        // without a fetch they stay at the old end and are stepped over.
        for f in 1..4 {
            buf.pin(f).unwrap();
        }
        let before = buf.visits();
        let f = buf.fetch(ObjectId(5_001), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        assert_eq!(buf.visits() - before, 4);
        assert!(buf.contains(ObjectId(3)) && !buf.contains(ObjectId(4)));
        // Fetched, a pinned frame moves to the young end, out of the way.
        buf.fetch(ObjectId(1), &mut disk).unwrap();
        let before = buf.visits();
        let f = buf.fetch(ObjectId(5_002), &mut disk).unwrap();
        buf.unpin(f).unwrap();
        assert_eq!(buf.visits() - before, 3);
        buf.check_invariants().unwrap();
    }

    #[test]
    fn flush_visits_the_dirty_frames_only() {
        let (mut disk, mut buf) = full_pool(5_000);
        for id in [17, 2_500, 4_999] {
            let f = buf.fetch(ObjectId(id), &mut disk).unwrap();
            buf.page_mut(f).unwrap().write_u64_at(0, u64::from(id));
            buf.mark_dirty(f).unwrap();
            buf.mark_dirty(f).unwrap(); // listed once
            buf.unpin(f).unwrap();
        }
        buf.flush_all(&mut disk);
        assert_eq!(buf.visits(), 3);
        assert_eq!(buf.stats().writebacks, 3);
        assert_eq!(disk.peek(ObjectId(2_500)).unwrap().read_u64_at(0), 2_500);
        buf.flush_all(&mut disk);
        assert_eq!(buf.visits(), 3, "nothing is dirty any more");
        buf.check_invariants().unwrap();
    }

    #[test]
    fn a_warm_miss_reuses_the_victims_buffer() {
        let (mut disk, mut buf) = setup(1, Replacement::Lru);
        let f = buf.fetch(ObjectId(1), &mut disk).unwrap();
        let bytes = buf.page(f).unwrap().bytes().as_ptr();
        buf.unpin(f).unwrap();
        let g = buf.fetch(ObjectId(2), &mut disk).unwrap();
        assert_eq!(g, f);
        assert_eq!(buf.page(g).unwrap(), &Page::patterned(ObjectId(2)));
        assert_eq!(buf.page(g).unwrap().bytes().as_ptr(), bytes);
    }
}
