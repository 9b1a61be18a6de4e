//! Fixed-size database pages.

use siteselect_types::ObjectId;

/// Size of one PF-layer page / database object, as in the paper (2 KB).
pub const PAGE_SIZE: usize = 2_048;

/// Little-endian `u64` words in a page.
const WORDS: usize = PAGE_SIZE / 8;

/// The contents a page starts from, before any word is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Base {
    /// Every byte zero.
    Zeroed,
    /// The xorshift sequence seeded by the page's id (see
    /// [`Page::patterned`]).
    Patterned,
}

/// One fixed-size page holding a database object's bytes.
///
/// A page has [`PAGE_SIZE`] logical bytes, but stores only the base it
/// started from (zeroed, or patterned by its id) plus the 8-byte-aligned
/// words written since that differ from the base. The engines write one
/// word per update (the recovery stamp) and take disk and network time
/// from the configuration, not from page contents, so a written page
/// costs tens of bytes instead of 2 KB. Reads, [`Page::checksum`] and
/// `==` see the logical bytes.
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
    base: Base,
    /// `(word index, value)` for every word that differs from the base,
    /// sorted by index. Canonical: a word written back to its base value
    /// leaves the list, so two pages on one base are equal exactly when
    /// their lists are, and `==` need not rebuild either image.
    words: Vec<(u16, u64)>,
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            id: self.id,
            base: self.base,
            words: self.words.clone(),
        }
    }

    /// Copies into the list `self` already has, so that moving a page
    /// between a frame and the file allocates only when the destination
    /// never held a written word.
    fn clone_from(&mut self, source: &Self) {
        self.id = source.id;
        self.base = source.base;
        self.words.clone_from(&source.words);
    }
}

impl PartialEq for Page {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
            && if self.base == other.base {
                self.words == other.words
            } else {
                self.logical_words().eq(other.logical_words())
            }
    }
}

impl Eq for Page {}

/// The `WORDS` words of `base` for page `id`, in order.
fn base_words(id: ObjectId, base: Base) -> impl Iterator<Item = u64> {
    let mut x = (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..WORDS).map(move |_| match base {
        Base::Zeroed => 0,
        Base::Patterned => {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    })
}

/// The word index of byte `offset`.
///
/// # Panics
///
/// Panics unless `offset` is a multiple of 8 below [`PAGE_SIZE`].
fn word_index(offset: usize) -> u16 {
    assert!(
        offset.is_multiple_of(8) && offset < PAGE_SIZE,
        "page offset {offset} is not an aligned word inside the page"
    );
    (offset / 8) as u16
}

impl Page {
    /// Creates an all-zero page for `id`.
    #[must_use]
    pub fn zeroed(id: ObjectId) -> Self {
        Page {
            id,
            base: Base::Zeroed,
            words: Vec::new(),
        }
    }

    /// Creates a page whose contents deterministically derive from its id —
    /// used to initialize the database so that reads are verifiable.
    #[must_use]
    pub fn patterned(id: ObjectId) -> Self {
        Page {
            id,
            base: Base::Patterned,
            words: Vec::new(),
        }
    }

    /// The object this page stores.
    #[must_use]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The base value of word `index`.
    fn base_word(&self, index: u16) -> u64 {
        match self.base {
            Base::Zeroed => 0,
            Base::Patterned => base_words(self.id, self.base)
                .take(usize::from(index) + 1)
                .last()
                .unwrap_or_default(),
        }
    }

    /// Where word `index` is, or would go, in the written list.
    fn position(&self, index: u16) -> usize {
        self.words.partition_point(|&(at, _)| at < index)
    }

    /// Every logical word of the page, in order.
    fn logical_words(&self) -> impl Iterator<Item = u64> + '_ {
        let mut written = self.words.iter().peekable();
        base_words(self.id, self.base)
            .zip(0u16..)
            .map(
                move |(base, i)| match written.next_if(|&&(at, _)| at == i) {
                    Some(&(_, value)) => value,
                    None => base,
                },
            )
    }

    /// Reads the little-endian `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics unless `offset` is a multiple of 8 below [`PAGE_SIZE`].
    #[must_use]
    pub fn read_u64_at(&self, offset: usize) -> u64 {
        let index = word_index(offset);
        match self.words.get(self.position(index)) {
            Some(&(at, value)) if at == index => value,
            _ => self.base_word(index),
        }
    }

    /// Writes a little-endian `u64` at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics unless `offset` is a multiple of 8 below [`PAGE_SIZE`].
    pub fn write_u64_at(&mut self, offset: usize, value: u64) {
        let index = word_index(offset);
        let base = self.base_word(index);
        let pos = self.position(index);
        match self.words.get_mut(pos) {
            Some((at, _)) if *at == index && value == base => {
                self.words.remove(pos);
            }
            Some((at, word)) if *at == index => *word = value,
            _ if value == base => {}
            _ => self.words.insert(pos, (index, value)),
        }
    }

    /// FNV-1a checksum of the page's logical bytes.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.logical_words().flat_map(u64::to_le_bytes) {
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
        assert!((0..PAGE_SIZE).step_by(8).all(|at| p.read_u64_at(at) == 0));
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
    #[should_panic]
    fn out_of_bounds_write_panics() {
        Page::zeroed(ObjectId(0)).write_u64_at(PAGE_SIZE - 4, 1);
    }

    #[test]
    #[should_panic]
    fn unaligned_read_panics() {
        let _ = Page::zeroed(ObjectId(0)).read_u64_at(4);
    }

    #[test]
    fn a_word_written_back_to_its_base_leaves_no_trace() {
        for pristine in [Page::zeroed(ObjectId(4)), Page::patterned(ObjectId(4))] {
            let mut written = pristine.clone();
            let base = written.read_u64_at(0);
            written.write_u64_at(0, base ^ 1);
            assert_ne!(pristine, written);
            written.write_u64_at(0, base);
            assert_eq!(pristine, written);
            assert!(written.words.is_empty());
            assert_eq!(pristine.checksum(), written.checksum());
        }
    }
}
