//! A small-vector with inline storage for its first `N` elements.
//!
//! Hot-path lists in this workspace almost always carry one or two entries
//! (a sole exclusive lock holder, a couple of concurrent readers, a single
//! finished CPU job), so a heap `Vec` per list pays an allocation for what
//! fits in the owner's own slot. `InlineVec` keeps the first `N` elements
//! inline and spills the rest to a `Vec` that is only allocated when the
//! list actually grows past `N`. Element order is the insertion/shift order
//! of a plain vector.

/// A vector whose first `N` elements live inline.
///
/// The element type is `Copy` for all payloads in this workspace, which
/// keeps the shifting operations trivial; mutation helpers therefore
/// require `T: Copy`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    len: usize,
    inline: [Option<T>; N],
    spill: Vec<T>,
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Creates an empty list (no heap allocation).
    #[must_use]
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: std::array::from_fn(|_| None),
            spill: Vec::new(),
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `pos`, if in bounds.
    #[must_use]
    pub fn get(&self, pos: usize) -> Option<&T> {
        if pos >= self.len {
            None
        } else if pos < N {
            self.inline[pos].as_ref()
        } else {
            self.spill.get(pos - N)
        }
    }

    /// The first element, if any.
    #[must_use]
    pub fn first(&self) -> Option<&T> {
        self.get(0)
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.into_iter()
    }

    /// Iterates the elements mutably, in order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline[..self.len.min(N)]
            .iter_mut()
            .filter_map(Option::as_mut)
            .chain(self.spill.iter_mut())
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// True if some element equals `value`.
    #[must_use]
    pub fn contains(&self, value: &T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|v| v == value)
    }
}

/// By-value iteration, in order.
impl<T, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<T>, N>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        // Empty inline slots are `None` and sit behind the filled ones.
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::slice::Iter<'a, Option<T>>>,
        std::slice::Iter<'a, T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline[..self.len.min(N)]
            .iter()
            .flatten()
            .chain(self.spill.iter())
    }
}

impl<T, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        // What is known to be coming and will not fit inline spills in one
        // allocation, not by doubling.
        let room = N.saturating_sub(self.len);
        self.spill.reserve(iter.size_hint().0.saturating_sub(room));
        for value in iter {
            self.push(value);
        }
    }
}

impl<T, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = InlineVec::new();
        out.extend(iter);
        out
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Copies out the element at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn get_copy(&self, pos: usize) -> T {
        assert!(pos < self.len, "index {pos} out of bounds (len {})", self.len);
        if pos < N {
            self.inline[pos].expect("in-bounds inline slot")
        } else {
            self.spill[pos - N]
        }
    }

    /// Overwrites the element at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len()`.
    pub fn set(&mut self, pos: usize, value: T) {
        assert!(pos < self.len, "index {pos} out of bounds (len {})", self.len);
        if pos < N {
            self.inline[pos] = Some(value);
        } else {
            self.spill[pos - N] = value;
        }
    }

    fn truncate(&mut self, new_len: usize) {
        debug_assert!(new_len <= self.len);
        self.spill.truncate(new_len.saturating_sub(N));
        for slot in &mut self.inline[new_len.min(N)..self.len.min(N)] {
            *slot = None;
        }
        self.len = new_len;
    }

    /// True once the list has grown past `N` and owns heap capacity.
    #[must_use]
    pub fn spilled(&self) -> bool {
        self.spill.capacity() > 0
    }

    /// Removes every element, keeping the spill's capacity: a list refilled
    /// to its old length allocates nothing.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Inserts `value` at `pos`, shifting later elements right.
    ///
    /// # Panics
    ///
    /// Panics if `pos > len`.
    pub fn insert(&mut self, pos: usize, value: T) {
        assert!(pos <= self.len, "insert position out of bounds");
        if pos >= N {
            self.spill.insert(pos - N, value);
        } else {
            if self.len >= N {
                let last = self.inline[N - 1].take().expect("full inline row");
                self.spill.insert(0, last);
            }
            let upper = self.len.min(N - 1);
            for i in (pos..upper).rev() {
                self.inline[i + 1] = self.inline[i].take();
            }
            self.inline[pos] = Some(value);
        }
        self.len += 1;
    }

    /// Removes and returns the element at `pos`, shifting later elements
    /// left.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn remove(&mut self, pos: usize) -> T {
        assert!(pos < self.len, "remove position out of bounds");
        if pos >= N {
            self.len -= 1;
            return self.spill.remove(pos - N);
        }
        let out = self.inline[pos].take().expect("in-bounds inline slot");
        for i in pos..self.len.min(N) - 1 {
            self.inline[i] = self.inline[i + 1].take();
        }
        if self.len > N {
            self.inline[N - 1] = Some(self.spill.remove(0));
        }
        self.len -= 1;
        out
    }

    /// Removes and returns the element at `pos`, moving the last element
    /// into its place: constant time, order not preserved.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= len`.
    pub fn swap_remove(&mut self, pos: usize) -> T {
        assert!(pos < self.len, "swap_remove position out of bounds");
        let out = self.get_copy(pos);
        let last = self.len - 1;
        self.set(pos, self.get_copy(last));
        self.truncate(last);
        out
    }

    /// Keeps only the elements for which `keep` returns true, preserving
    /// order. Allocation-free.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            let v = self.get_copy(i);
            if keep(&v) {
                if kept != i {
                    self.set(kept, v);
                }
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// The elements as a fresh `Vec`.
    #[must_use]
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().copied().collect()
    }
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operation mirrored against a plain `Vec`.
    fn check_equals(iv: &InlineVec<u32, 2>, model: &[u32]) {
        assert_eq!(iv.len(), model.len());
        assert_eq!(iv.is_empty(), model.is_empty());
        assert_eq!(iv.to_vec(), model);
        assert_eq!(iv.first(), model.first());
        for (i, v) in model.iter().enumerate() {
            assert_eq!(iv.get(i), Some(v));
        }
        assert_eq!(iv.get(model.len()), None);
    }

    #[test]
    fn push_grows_through_the_spill_boundary() {
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        let mut model = Vec::new();
        for v in 0..7 {
            iv.push(v);
            model.push(v);
            check_equals(&iv, &model);
        }
    }

    #[test]
    fn insert_matches_vec_at_every_position() {
        for pos in 0..=5 {
            let mut iv: InlineVec<u32, 2> = InlineVec::new();
            let mut model = vec![10, 11, 12, 13, 14];
            for &v in &model {
                iv.push(v);
            }
            iv.insert(pos, 99);
            model.insert(pos, 99);
            check_equals(&iv, &model);
        }
    }

    #[test]
    fn remove_matches_vec_at_every_position() {
        for pos in 0..5 {
            let mut iv: InlineVec<u32, 2> = InlineVec::new();
            let mut model = vec![10, 11, 12, 13, 14];
            for &v in &model {
                iv.push(v);
            }
            assert_eq!(iv.remove(pos), model.remove(pos));
            check_equals(&iv, &model);
        }
    }

    #[test]
    fn swap_remove_matches_vec_at_every_position() {
        // Lengths on both sides of the spill boundary.
        for len in 1..6u32 {
            for pos in 0..len as usize {
                let mut iv: InlineVec<u32, 2> = InlineVec::new();
                let mut model: Vec<u32> = (10..10 + len).collect();
                for &v in &model {
                    iv.push(v);
                }
                assert_eq!(iv.swap_remove(pos), model.swap_remove(pos));
                check_equals(&iv, &model);
            }
        }
    }

    #[test]
    fn retain_matches_vec() {
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        let mut model: Vec<u32> = (0..9).collect();
        for &v in &model {
            iv.push(v);
        }
        iv.retain(|v| v % 3 != 0);
        model.retain(|v| v % 3 != 0);
        check_equals(&iv, &model);
        iv.retain(|_| false);
        check_equals(&iv, &[]);
        // Reusable after being emptied.
        iv.push(42);
        check_equals(&iv, &[42]);
    }

    #[test]
    fn collect_extend_contains_and_by_value_iteration_match_vec() {
        // Every length on both sides of the spill boundary, collected and
        // then extended across it again.
        for first in 0..5u32 {
            for more in 0..5u32 {
                let mut model: Vec<u32> = (10..10 + first).collect();
                let mut iv: InlineVec<u32, 2> = model.iter().copied().collect();
                check_equals(&iv, &model);
                iv.extend(100..100 + more);
                model.extend(100..100 + more);
                check_equals(&iv, &model);
                for probe in [9, 10, 11, 13, 14, 99, 100, 103, 104] {
                    assert_eq!(iv.contains(&probe), model.contains(&probe), "{probe}");
                }
                assert!((&iv).into_iter().eq(model.iter()));
                assert_eq!(iv.into_iter().collect::<Vec<_>>(), model);
            }
        }
    }

    #[test]
    fn extend_spills_what_is_known_to_come_in_one_allocation() {
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        iv.extend(0..40);
        assert_eq!(iv.spill.capacity(), 38);
        assert_eq!(iv.to_vec(), (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn clear_keeps_the_spill() {
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        iv.extend(0..40);
        iv.clear();
        check_equals(&iv, &[]);
        assert_eq!(iv.spill.capacity(), 38, "the spill stays allocated");
        iv.extend(5..9);
        check_equals(&iv, &[5, 6, 7, 8]);
    }

    #[test]
    fn iter_mut_updates_both_regions() {
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        for v in 0..5 {
            iv.push(v);
        }
        for v in iv.iter_mut() {
            *v *= 10;
        }
        assert_eq!(iv.to_vec(), vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn equality_ignores_storage_layout() {
        let mut a: InlineVec<u32, 2> = InlineVec::new();
        let mut b: InlineVec<u32, 2> = InlineVec::new();
        for v in 0..5 {
            a.push(v);
            b.push(v);
        }
        assert_eq!(a, b);
        b.push(9);
        assert_ne!(a, b);
        // Same logical contents after a removal that shifted the spill.
        b.remove(5);
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_op_fuzz_against_vec_model() {
        // Deterministic xorshift; no external PRNG needed.
        let mut state = 0x9e37_79b9_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut iv: InlineVec<u32, 2> = InlineVec::new();
        let mut model: Vec<u32> = Vec::new();
        for step in 0..2000 {
            match rng() % 5 {
                0 => {
                    iv.push(step);
                    model.push(step);
                }
                1 => {
                    let pos = (rng() as usize) % (model.len() + 1);
                    iv.insert(pos, step);
                    model.insert(pos, step);
                }
                2 if !model.is_empty() => {
                    let pos = (rng() as usize) % model.len();
                    assert_eq!(iv.remove(pos), model.remove(pos));
                }
                4 if !model.is_empty() => {
                    let pos = (rng() as usize) % model.len();
                    assert_eq!(iv.swap_remove(pos), model.swap_remove(pos));
                }
                3 => {
                    let bit = rng() % 2 == 0;
                    iv.retain(|v| (v % 2 == 0) == bit);
                    model.retain(|v| (v % 2 == 0) == bit);
                }
                _ => {}
            }
            check_equals(&iv, &model);
        }
    }
}
