//! Fixed-size database pages.

use std::sync::Arc;

use siteselect_types::ObjectId;

/// Size of one PF-layer page / database object, as in the paper (2 KB).
pub const PAGE_SIZE: usize = 2_048;

/// One fixed-size page holding a database object's bytes.
///
/// Pages carry real bytes (not just ids) so that the threaded
/// `siteselect-cluster` runtime moves actual data and corruption is
/// detectable via [`Page::checksum`].
///
/// # Example
///
/// ```
/// use siteselect_storage::Page;
/// use siteselect_types::ObjectId;
///
/// let mut p = Page::zeroed(ObjectId(7));
/// p.write_u64_at(16, 0xDEAD_BEEF);
/// assert_eq!(p.read_u64_at(16), 0xDEAD_BEEF);
/// assert_eq!(p.id(), ObjectId(7));
/// ```
#[derive(Debug)]
pub struct Page {
    id: ObjectId,
    /// Empty means "pristine all-zero page": no buffer is allocated until the
    /// first mutable access. This keeps `DiskFile::new` (tens of thousands of
    /// pages) and clones of never-written pages allocation-free on the
    /// simulation hot path. (Empty is a length: a page copied over a
    /// written one with `clone_from` keeps that page's capacity for later.)
    data: Vec<u8>,
}

/// Backing bytes for pristine pages that were never written.
static ZEROES: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            id: self.id,
            data: self.data.clone(),
        }
    }

    /// Copies into the buffer `self` already has, so that moving a page
    /// between a frame and the file allocates only when the destination
    /// never held bytes.
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.data.clone_from(&source.data);
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        // A pristine page and a materialized all-zero page are the same page.
        self.id == other.id && self.bytes() == other.bytes()
    }
}

impl Eq for Page {}

impl Page {
    /// Creates an all-zero page for `id` without allocating its buffer.
    #[must_use]
    pub fn zeroed(id: ObjectId) -> Self {
        Page {
            id,
            data: Vec::new(),
        }
    }

    /// Gives this page its backing bytes if it is still pristine, reusing
    /// a buffer left behind by the page it was copied over.
    fn materialize(&mut self) {
        if self.data.is_empty() {
            self.data.resize(PAGE_SIZE, 0);
        }
    }

    /// Creates a page whose contents deterministically derive from its id —
    /// used to initialize the database so that reads are verifiable.
    #[must_use]
    pub fn patterned(id: ObjectId) -> Self {
        let mut p = Page::zeroed(id);
        let seed = (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut x = seed;
        for chunk in p.bytes_mut().chunks_exact_mut(8) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        p
    }

    /// The object this page stores.
    #[must_use]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Read-only view of the page bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        if self.data.is_empty() {
            &ZEROES
        } else {
            &self.data
        }
    }

    /// Mutable view of the page bytes. Materializes a pristine page.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.materialize();
        &mut self.data
    }

    /// An owned, cheaply clonable snapshot of the page contents.
    #[must_use]
    pub fn snapshot(&self) -> Arc<[u8]> {
        Arc::from(self.bytes())
    }

    /// Reads a little-endian `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds [`PAGE_SIZE`].
    #[must_use]
    pub fn read_u64_at(&self, offset: usize) -> u64 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes()[offset..offset + 8]);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds [`PAGE_SIZE`].
    pub fn write_u64_at(&mut self, offset: usize, value: u64) {
        self.materialize();
        self.data[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// FNV-1a checksum of the page contents.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in self.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = Page::zeroed(ObjectId(1));
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert!(p.bytes().iter().all(|&b| b == 0));
        assert_eq!(p.read_u64_at(0), 0);
    }

    #[test]
    fn patterned_pages_differ_by_id_and_are_deterministic() {
        let a = Page::patterned(ObjectId(1));
        let b = Page::patterned(ObjectId(2));
        let a2 = Page::patterned(ObjectId(1));
        assert_ne!(a.checksum(), b.checksum());
        assert_eq!(a, a2);
        assert_eq!(a.checksum(), a2.checksum());
    }

    #[test]
    fn u64_round_trip_at_various_offsets() {
        let mut p = Page::zeroed(ObjectId(0));
        for &off in &[0usize, 8, 1000, PAGE_SIZE - 8] {
            p.write_u64_at(off, off as u64 + 1);
            assert_eq!(p.read_u64_at(off), off as u64 + 1);
        }
    }

    #[test]
    fn checksum_tracks_mutation() {
        let mut p = Page::patterned(ObjectId(9));
        let before = p.checksum();
        p.write_u64_at(128, 12345);
        assert_ne!(p.checksum(), before);
    }

    #[test]
    fn snapshot_is_detached() {
        let mut p = Page::zeroed(ObjectId(3));
        p.write_u64_at(0, 7);
        let snap = p.snapshot();
        p.write_u64_at(0, 8);
        assert_eq!(u64::from_le_bytes(snap[0..8].try_into().unwrap()), 7);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Page::zeroed(ObjectId(0)).write_u64_at(PAGE_SIZE - 4, 1);
    }

    #[test]
    fn pristine_page_equals_materialized_zero_page() {
        let pristine = Page::zeroed(ObjectId(4));
        let mut materialized = Page::zeroed(ObjectId(4));
        materialized.write_u64_at(0, 1);
        materialized.write_u64_at(0, 0);
        assert_eq!(pristine, materialized);
        assert_eq!(pristine.checksum(), materialized.checksum());
        assert_eq!(pristine.snapshot().len(), PAGE_SIZE);
        // Writing after equality still diverges the pages.
        materialized.write_u64_at(8, 9);
        assert_ne!(pristine, materialized);
    }
}
