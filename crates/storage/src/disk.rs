//! The backing "UNIX disk file" of the paper's prototype, with I/O
//! accounting.

use siteselect_types::ObjectId;

use crate::page::Page;

/// Cumulative I/O statistics for one [`DiskFile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Pages read from the file.
    pub reads: u64,
    /// Pages written back to the file.
    pub writes: u64,
}

/// An in-memory stand-in for the prototype's UNIX disk file: a flat array of
/// fixed-size pages addressed by [`ObjectId`].
///
/// # Example
///
/// ```
/// use siteselect_storage::DiskFile;
/// use siteselect_types::ObjectId;
///
/// let mut disk = DiskFile::with_patterned_pages(8);
/// let page = disk.read(ObjectId(2)).unwrap();
/// assert_eq!(page.id(), ObjectId(2));
/// assert_eq!(disk.stats().reads, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DiskFile {
    pages: Vec<Page>,
    stats: DiskStats,
}

impl DiskFile {
    /// Creates a file of `n` zeroed pages.
    #[must_use]
    pub fn new(n: u32) -> Self {
        DiskFile {
            pages: (0..n).map(|i| Page::zeroed(ObjectId(i))).collect(),
            stats: DiskStats::default(),
        }
    }

    /// Creates a file of `n` pages whose contents derive deterministically
    /// from their ids (see [`Page::patterned`]).
    #[must_use]
    pub fn with_patterned_pages(n: u32) -> Self {
        DiskFile {
            pages: (0..n).map(|i| Page::patterned(ObjectId(i))).collect(),
            stats: DiskStats::default(),
        }
    }

    /// Number of pages in the file.
    #[must_use]
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// True if `id` addresses a page inside the file.
    #[must_use]
    pub fn contains(&self, id: ObjectId) -> bool {
        (id.index() as usize) < self.pages.len()
    }

    /// Reads a page, counting one I/O. Returns `None` for an out-of-range id.
    pub fn read(&mut self, id: ObjectId) -> Option<Page> {
        let p = self.pages.get(id.index() as usize)?.clone();
        self.stats.reads += 1;
        Some(p)
    }

    /// [`read`](Self::read) into a page the caller already owns, reusing
    /// its buffer. Leaves `into` alone and returns `false` for an
    /// out-of-range id.
    pub(crate) fn read_into(&mut self, id: ObjectId, into: &mut Page) -> bool {
        let Some(page) = self.pages.get(id.index() as usize) else {
            return false;
        };
        into.clone_from(page);
        self.stats.reads += 1;
        true
    }

    /// Writes a page back, counting one I/O. The bytes are copied into the
    /// buffer of the page they overwrite.
    ///
    /// Returns `false` (and writes nothing) for an out-of-range id.
    pub fn write(&mut self, page: &Page) -> bool {
        let idx = page.id().index() as usize;
        match self.pages.get_mut(idx) {
            Some(slot) => {
                slot.clone_from(page);
                self.stats.writes += 1;
                true
            }
            None => false,
        }
    }

    /// Direct, non-counted access for verification in tests.
    #[must_use]
    pub fn peek(&self, id: ObjectId) -> Option<&Page> {
        self.pages.get(id.index() as usize)
    }

    /// Cumulative I/O statistics.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut d = DiskFile::new(4);
        let mut p = d.read(ObjectId(1)).unwrap();
        p.write_u64_at(0, 77);
        assert!(d.write(&p));
        assert_eq!(d.read(ObjectId(1)).unwrap().read_u64_at(0), 77);
        assert_eq!(d.stats(), DiskStats { reads: 2, writes: 1 });
    }

    #[test]
    fn out_of_range_is_handled() {
        let mut d = DiskFile::new(2);
        assert!(d.read(ObjectId(5)).is_none());
        assert!(!d.write(&Page::zeroed(ObjectId(5))));
        assert!(!d.contains(ObjectId(2)));
        assert!(d.contains(ObjectId(1)));
        // Failed operations are not counted.
        assert_eq!(d.stats(), DiskStats::default());
    }

    #[test]
    fn patterned_contents_survive_round_trip() {
        let mut d = DiskFile::with_patterned_pages(10);
        let expected = Page::patterned(ObjectId(9)).checksum();
        assert_eq!(d.read(ObjectId(9)).unwrap().checksum(), expected);
    }

    #[test]
    fn peek_does_not_count() {
        let d = DiskFile::with_patterned_pages(3);
        assert!(d.peek(ObjectId(0)).is_some());
        assert_eq!(d.stats().reads, 0);
    }
}
