//! The one hasher for every hash container in the deterministic crates.
//!
//! `std`'s default `RandomState` draws a per-process key, so where a map
//! rehashes — and with it where the engine allocates — differs from one
//! process to the next. Ids and keys here come from the program, never from
//! an adversary, so the `[deterministic]` crates trade SipHash's flood
//! protection for one multiply per word and allocation counts that repeat
//! exactly on one seed. detlint's D10 flags a map or set built without it.

use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` whose hashers all start from the same state.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use siteselect_types::FixedState;
///
/// let mut m: HashMap<u64, &str, FixedState> = HashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0)
    }
}

/// Multiplicative word-at-a-time hasher (the Fx scheme) built by
/// [`FixedState`].
#[derive(Debug, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply only carries upwards, so a key's high bits (the
        // client half of a transaction id) never reach the low bits the
        // table takes its bucket index from: fold down, multiply, fold.
        let folded = (self.0 ^ (self.0 >> 32)).wrapping_mul(Self::K);
        folded ^ (folded >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn hash_of(n: u64) -> u64 {
        FixedState.hash_one(n)
    }

    #[test]
    fn same_key_same_hash_across_builders() {
        assert_eq!(hash_of(42), hash_of(42));
        assert_ne!(hash_of(42), hash_of(43));
    }

    #[test]
    fn transaction_shaped_keys_spread_over_low_and_high_bits() {
        // Keys shaped like `TransactionId`: client in the top 16 bits, a
        // small sequence number below. Both the bucket index (low bits)
        // and the control byte (top 7 bits) must separate them.
        let keys = (0..64u64).flat_map(|c| (0..64u64).map(move |s| c << 48 | s));
        let (mut low, mut high) = (HashSet::new(), HashSet::new());
        for k in keys {
            low.insert(hash_of(k) & 0xFFF);
            high.insert(hash_of(k) >> 57);
        }
        assert!(low.len() > 2_000, "low bits collapse: {}", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn byte_slices_hash_like_their_words() {
        let mut a = FixedState.build_hasher();
        a.write(&7u64.to_le_bytes());
        let mut b = FixedState.build_hasher();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
