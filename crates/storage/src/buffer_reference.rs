//! The scan-based buffer manager this crate shipped before its lists,
//! kept (LRU only) as a test-only reference.
//!
//! [`BufferManager`] must be indistinguishable from it: the same results
//! and frame handles, resident set, pin counts, statistics and disk image
//! for every operation sequence. The property test at the bottom drives
//! both with seeded streams and compares them after every operation.

use siteselect_types::{ObjectId, ObjectMap};

use crate::buffer::{BufferError, BufferStats};
use crate::disk::DiskFile;
use crate::page::Page;

#[derive(Debug, Clone)]
struct Frame {
    page: Page,
    pin_count: u32,
    dirty: bool,
    last_used: u64,
}

/// A fixed-capacity page buffer over a [`DiskFile`].
///
/// Frames are identified by index handles returned from
/// [`BufferManager::fetch`]. A frame with a positive pin count is never
/// evicted; dirty frames are written back to disk when evicted or flushed.
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
pub struct RefBufferManager {
    capacity: usize,
    frames: Vec<Option<Frame>>,
    map: ObjectMap<usize>,
    tick: u64,
    stats: BufferStats,
}

impl RefBufferManager {
    /// Creates a buffer with `capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        RefBufferManager {
            capacity,
            frames: (0..capacity).map(|_| None).collect(),
            map: ObjectMap::new(),
            tick: 0,
            stats: BufferStats::default(),
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
        if let Some(&idx) = self.map.get(id) {
            let frame = self.frames[idx].as_mut().expect("mapped frame occupied");
            frame.pin_count += 1;
            frame.last_used = self.tick;
            self.stats.hits += 1;
            return Ok(idx);
        }
        if !disk.contains(id) {
            return Err(BufferError::NoSuchPage(id));
        }
        let idx = self.find_victim(disk)?;
        let page = disk.read(id).expect("contains() checked above");
        self.frames[idx] = Some(Frame {
            page,
            pin_count: 1,
            dirty: false,
            last_used: self.tick,
        });
        self.map.insert(id, idx);
        self.stats.misses += 1;
        Ok(idx)
    }

    fn find_victim(&mut self, disk: &mut DiskFile) -> Result<usize, BufferError> {
        // Prefer an empty frame.
        if let Some(idx) = self.frames.iter().position(Option::is_none) {
            return Ok(idx);
        }
        let victim = self
            .frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let f = f.as_ref().expect("full buffer");
                (f.pin_count == 0).then_some((f.last_used, i))
            })
            .min()
            .map(|(_, i)| i);
        let idx = victim.ok_or(BufferError::AllFramesPinned)?;
        let frame = self.frames[idx].take().expect("victim occupied");
        self.map.remove(frame.page.id());
        self.stats.evictions += 1;
        if frame.dirty {
            disk.write(&frame.page);
            self.stats.writebacks += 1;
        }
        Ok(idx)
    }

    /// Increments the pin count of an occupied frame.
    ///
    /// # Errors
    ///
    /// [`BufferError::BadFrame`] if the handle is stale.
    pub fn pin(&mut self, idx: usize) -> Result<(), BufferError> {
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
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
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
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
        let frame = self
            .frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .ok_or(BufferError::BadFrame)?;
        frame.dirty = true;
        Ok(())
    }

    /// Read access to a buffered page.
    #[must_use]
    pub fn page(&self, idx: usize) -> Option<&Page> {
        self.frames.get(idx).and_then(Option::as_ref).map(|f| &f.page)
    }

    /// Write access to a buffered page (the caller must also
    /// [`mark_dirty`](Self::mark_dirty)).
    pub fn page_mut(&mut self, idx: usize) -> Option<&mut Page> {
        self.frames
            .get_mut(idx)
            .and_then(Option::as_mut)
            .map(|f| &mut f.page)
    }

    /// Read access to a buffered page by id, without pinning or touching
    /// recency state (used for non-counted inspection).
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<&Page> {
        let &idx = self.map.get(id)?;
        self.frames[idx].as_ref().map(|f| &f.page)
    }

    /// Writes every dirty page back to `disk` and clears the dirty bits.
    pub fn flush_all(&mut self, disk: &mut DiskFile) {
        for frame in self.frames.iter_mut().flatten() {
            if frame.dirty {
                disk.write(&frame.page);
                frame.dirty = false;
                self.stats.writebacks += 1;
            }
        }
    }

    /// Pin count of a frame (testing / assertions).
    #[must_use]
    pub fn pin_count(&self, idx: usize) -> Option<u32> {
        self.frames
            .get(idx)
            .and_then(Option::as_ref)
            .map(|f| f.pin_count)
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::buffer::BufferManager;

    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    /// Asserts everything observable about the two pools agrees.
    fn assert_same_state(
        (pool, disk): (&BufferManager, &DiskFile),
        (oracle, oracle_disk): (&RefBufferManager, &DiskFile),
        at: &str,
    ) {
        pool.check_invariants()
            .unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(pool.stats(), oracle.stats(), "stats at {at}");
        assert_eq!(pool.len(), oracle.len(), "len at {at}");
        assert_eq!(pool.is_empty(), oracle.is_empty(), "is_empty at {at}");
        assert_eq!(pool.capacity(), oracle.capacity(), "capacity at {at}");
        assert_eq!(disk.stats(), oracle_disk.stats(), "disk stats at {at}");
        // One past the last frame: an empty frame must stay empty in both.
        for idx in 0..=pool.capacity() {
            assert_eq!(pool.page(idx), oracle.page(idx), "frame {idx} at {at}");
            assert_eq!(
                pool.pin_count(idx),
                oracle.pin_count(idx),
                "pins of {idx} at {at}"
            );
        }
        for id in (0..disk.num_pages()).map(ObjectId) {
            assert_eq!(
                pool.contains(id),
                oracle.contains(id),
                "residency of {id} at {at}"
            );
            assert_eq!(pool.peek(id), oracle.peek(id), "peek of {id} at {at}");
        }
    }

    /// Full coverage in optimized builds (`scripts/ci.sh` runs this test
    /// with `--release`); comparing every frame's bytes after every step is
    /// what costs, so debug builds run a slice and Miri a thin one.
    const CASES: u64 = if cfg!(miri) {
        4
    } else if cfg!(debug_assertions) {
        32
    } else {
        400
    };
    const STEPS: usize = if cfg!(miri) { 60 } else { 400 };

    #[test]
    fn listed_pool_matches_scanning_oracle() {
        for case in 0..CASES {
            let mut rng = Xorshift(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            let capacity = 1 + rng.below(64);
            // From "everything fits" to heavy eviction pressure.
            let pages = 1 + rng.below(3 * capacity);
            // How readily a fetch keeps its pin: the high settings drive the
            // pool into `AllFramesPinned`.
            let hold = rng.below(4);
            let mut disk = DiskFile::with_patterned_pages(pages as u32);
            let mut oracle_disk = disk.clone();
            let mut pool = BufferManager::new(capacity, crate::Replacement::Lru);
            let mut oracle = RefBufferManager::new(capacity);
            for step in 0..STEPS {
                let at = format!("case {case} step {step}");
                // Handles past the pool and ids past the file included.
                let idx = rng.below(capacity + 2);
                match rng.below(12) {
                    0..=4 => {
                        let id = ObjectId(rng.below(pages + 2) as u32);
                        let got = pool.fetch(id, &mut disk);
                        assert_eq!(got, oracle.fetch(id, &mut oracle_disk), "fetch at {at}");
                        if let Ok(f) = got {
                            if rng.below(4) >= hold {
                                pool.unpin(f).unwrap();
                                oracle.unpin(f).unwrap();
                            }
                        }
                    }
                    5 => assert_eq!(pool.pin(idx), oracle.pin(idx), "pin at {at}"),
                    6..=7 => assert_eq!(pool.unpin(idx), oracle.unpin(idx), "unpin at {at}"),
                    8 => assert_eq!(
                        pool.mark_dirty(idx),
                        oracle.mark_dirty(idx),
                        "mark_dirty at {at}"
                    ),
                    // A write is lost unless the frame is also marked: both
                    // pools must lose the same ones.
                    9..=10 => {
                        let (offset, value) = (8 * rng.below(256), rng.next());
                        let wrote = pool.page_mut(idx).map(|p| p.write_u64_at(offset, value));
                        let oracle_wrote =
                            oracle.page_mut(idx).map(|p| p.write_u64_at(offset, value));
                        assert_eq!(wrote, oracle_wrote, "page_mut at {at}");
                        if rng.below(3) > 0 {
                            assert_eq!(pool.mark_dirty(idx), oracle.mark_dirty(idx));
                        }
                    }
                    _ => {
                        pool.flush_all(&mut disk);
                        oracle.flush_all(&mut oracle_disk);
                    }
                }
                assert_same_state((&pool, &disk), (&oracle, &oracle_disk), &at);
            }
            pool.flush_all(&mut disk);
            oracle.flush_all(&mut oracle_disk);
            for id in (0..disk.num_pages()).map(ObjectId) {
                assert_eq!(
                    disk.peek(id),
                    oracle_disk.peek(id),
                    "disk image, case {case}"
                );
            }
        }
    }
}
