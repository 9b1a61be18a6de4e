//! The PF-layer facade: a paged file with a buffer manager in front, exposing
//! MiniRel-style `get`/`mark dirty`/`unpin` semantics behind a safe
//! closure-based API.

use std::error::Error;
use std::fmt;

use siteselect_types::ObjectId;

use crate::buffer::{BufferError, BufferManager, Replacement};
use crate::disk::DiskFile;
use crate::page::Page;

/// Error returned by [`PagedFile`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfError {
    /// The underlying buffer could not make room.
    Buffer(BufferError),
}

impl fmt::Display for PfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfError::Buffer(e) => write!(f, "paged file error: {e}"),
        }
    }
}

impl Error for PfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PfError::Buffer(e) => Some(e),
        }
    }
}

impl From<BufferError> for PfError {
    fn from(e: BufferError) -> Self {
        PfError::Buffer(e)
    }
}

/// A paged database file with buffered access — the crate's equivalent of the
/// MiniRel PF layer used by the paper's prototypes.
///
/// The closure-based accessors pin the page, run the closure, then unpin
/// (marking dirty for mutable access), so pages can never leak pins.
///
/// # Example
///
/// ```
/// use siteselect_storage::PagedFile;
/// use siteselect_types::ObjectId;
///
/// let mut pf = PagedFile::create(100, 10);
/// pf.with_page_mut(ObjectId(1), |p| p.write_u64_at(0, 5)).unwrap();
/// assert_eq!(pf.with_page(ObjectId(1), |p| p.read_u64_at(0)).unwrap(), 5);
/// ```
#[derive(Debug)]
pub struct PagedFile {
    disk: DiskFile,
    buffer: BufferManager,
}

impl PagedFile {
    /// Creates a database of `num_pages` patterned pages buffered by
    /// `buffer_frames` frames with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_frames` is zero.
    #[must_use]
    pub fn create(num_pages: u32, buffer_frames: usize) -> Self {
        PagedFile {
            disk: DiskFile::with_patterned_pages(num_pages),
            buffer: BufferManager::new(buffer_frames, Replacement::Lru),
        }
    }

    /// Wraps an existing disk image with a fresh buffer — used by crash
    /// recovery to reopen the database left behind by a crashed site.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_frames` is zero.
    #[must_use]
    pub fn from_disk(disk: DiskFile, buffer_frames: usize) -> Self {
        PagedFile {
            disk,
            buffer: BufferManager::new(buffer_frames, Replacement::Lru),
        }
    }

    /// Consumes the paged file and returns the on-disk image, **discarding**
    /// any dirty buffered pages — crash semantics: the buffer pool is
    /// volatile and its unwritten contents are lost.
    #[must_use]
    pub fn into_disk(self) -> DiskFile {
        self.disk
    }

    /// Non-counted read access to the current contents of a page: the
    /// buffered copy if present (it is newer), otherwise the on-disk copy.
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<&Page> {
        self.buffer.peek(id).or_else(|| self.disk.peek(id))
    }

    /// Number of pages in the file.
    #[must_use]
    pub fn num_pages(&self) -> u32 {
        self.disk.num_pages()
    }

    /// Runs `f` with read access to the page.
    ///
    /// # Errors
    ///
    /// Propagates buffer errors (missing page, all frames pinned).
    pub fn with_page<R>(&mut self, id: ObjectId, f: impl FnOnce(&Page) -> R) -> Result<R, PfError> {
        let idx = self.buffer.fetch(id, &mut self.disk)?;
        let out = f(self.buffer.page(idx).expect("frame just fetched"));
        self.buffer.unpin(idx).expect("frame pinned by fetch");
        Ok(out)
    }

    /// Runs `f` with write access to the page and marks it dirty.
    ///
    /// # Errors
    ///
    /// Propagates buffer errors (missing page, all frames pinned).
    pub fn with_page_mut<R>(
        &mut self,
        id: ObjectId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, PfError> {
        let idx = self.buffer.fetch(id, &mut self.disk)?;
        let out = f(self.buffer.page_mut(idx).expect("frame just fetched"));
        self.buffer.mark_dirty(idx).expect("frame exists");
        self.buffer.unpin(idx).expect("frame pinned by fetch");
        Ok(out)
    }

    /// Flushes all dirty buffered pages to the file.
    pub fn flush(&mut self) {
        self.buffer.flush_all(&mut self.disk);
    }

    /// Whether the page is currently buffered (testing aid).
    #[must_use]
    pub fn is_buffered(&self, id: ObjectId) -> bool {
        self.buffer.contains(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_access_round_trips() {
        let mut pf = PagedFile::create(20, 4);
        pf.with_page_mut(ObjectId(3), |p| p.write_u64_at(64, 17)).unwrap();
        let got = pf.with_page(ObjectId(3), |p| p.read_u64_at(64)).unwrap();
        assert_eq!(got, 17);
    }

    #[test]
    fn update_survives_eviction_pressure() {
        let mut pf = PagedFile::create(20, 2);
        pf.with_page_mut(ObjectId(0), |p| p.write_u64_at(0, 42)).unwrap();
        // Thrash the tiny buffer.
        for i in 1..20u32 {
            pf.with_page(ObjectId(i), |_| ()).unwrap();
        }
        assert!(!pf.is_buffered(ObjectId(0)));
        assert_eq!(pf.with_page(ObjectId(0), |p| p.read_u64_at(0)).unwrap(), 42);
    }

    #[test]
    fn pins_never_leak() {
        let mut pf = PagedFile::create(4, 1);
        for i in 0..4u32 {
            pf.with_page(ObjectId(i), |_| ()).unwrap();
        }
        // With a single frame, any leaked pin would make this fail.
        pf.with_page(ObjectId(0), |_| ()).unwrap();
    }

    #[test]
    fn missing_page_is_reported() {
        let mut pf = PagedFile::create(2, 2);
        let err = pf.with_page(ObjectId(9), |_| ()).unwrap_err();
        assert_eq!(err, PfError::Buffer(BufferError::NoSuchPage(ObjectId(9))));
        assert!(err.to_string().contains("obj#9"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn flush_persists() {
        let mut pf = PagedFile::create(2, 2);
        pf.with_page_mut(ObjectId(1), |p| p.write_u64_at(0, 7)).unwrap();
        pf.flush();
        assert_eq!(pf.into_disk().peek(ObjectId(1)).unwrap().read_u64_at(0), 7);
    }
}
