//! The byte writer both trace exporters share.
//!
//! Everything on the trace wire is a literal fragment, a decimal integer,
//! `true`/`false`, a static label or an identifier's [`IdText`] — all
//! ASCII, nothing that needs escaping — so the exporters append bytes and
//! never enter `core::fmt`. A [`Wire`] buffers whole records and hands the
//! buffer to an [`io::Write`] a chunk at a time, so a trace streams to a
//! file without ever being held as one document.

use std::io;

use siteselect_types::{IdSink, IdText};

/// Bytes buffered before [`Wire::drain_full`] hands them on: large enough
/// that the `write_all` per chunk costs nothing per record, small enough
/// to stay in the L2 cache between being written and being copied out.
const CHUNK: usize = 64 * 1024;

/// `00` `01` … `99`: two decimal digits per table lookup.
const PAIRS: &[u8; 200] = b"00010203040506070809\
10111213141516171819\
20212223242526272829\
30313233343536373839\
40414243444546474849\
50515253545556575859\
60616263646566676869\
70717273747576777879\
80818283848586878889\
90919293949596979899";

/// An append-only ASCII buffer with the few value shapes the wire format
/// has. The `open` argument of the member writers is the text up to the
/// value — `,"txn":"` for a quoted one, `,"seq":` for a bare one — written
/// out in full at the call site so the format reads there as it does on
/// the wire.
///
/// The writers are `#[inline(always)]`: inlined, every `open` is a
/// constant-length copy instead of a `memcpy` call. Left to the inliner's
/// own judgement (it keeps `dec` and `id` out of line) a paper-scale trace
/// encodes at 61 ns a record instead of 51.
pub(crate) struct Wire {
    buf: Vec<u8>,
}

impl Wire {
    pub(crate) fn new() -> Self {
        // One record past a full chunk: an `h2_choose` with a hundred
        // candidates is 4 KB, every other record under 300 B.
        Wire {
            buf: Vec::with_capacity(CHUNK + 4096),
        }
    }

    /// Appends a literal fragment.
    #[inline(always)]
    pub(crate) fn lit(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends `n` in decimal.
    #[inline(always)]
    pub(crate) fn dec(&mut self, mut n: u64) {
        // u64::MAX has twenty digits.
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    /// `open`, then `n`.
    #[inline(always)]
    pub(crate) fn uint(&mut self, open: &str, n: u64) {
        self.lit(open);
        self.dec(n);
    }

    /// `open`, then `n` with its sign.
    #[inline(always)]
    pub(crate) fn int(&mut self, open: &str, n: i64) {
        self.lit(open);
        if n < 0 {
            self.lit("-");
        }
        self.dec(n.unsigned_abs());
    }

    /// `open`, then `true` or `false`.
    #[inline(always)]
    pub(crate) fn flag(&mut self, open: &str, b: bool) {
        self.lit(open);
        self.lit(if b { "true" } else { "false" });
    }

    /// `open`, then a label that needs no escaping, then the closing quote.
    #[inline(always)]
    pub(crate) fn label(&mut self, open: &str, label: &str) {
        self.lit(open);
        self.lit(label);
        self.lit("\"");
    }

    /// `open`, then the identifier's text, then the closing quote.
    #[inline(always)]
    pub(crate) fn id(&mut self, open: &str, id: impl IdText) {
        self.lit(open);
        id.write_text(self);
        self.lit("\"");
    }

    /// Hands the buffer to `w` once it holds a full chunk. Called between
    /// records, so `w` only ever sees whole ones.
    #[inline]
    pub(crate) fn drain_full(&mut self, w: &mut impl io::Write) -> io::Result<()> {
        if self.buf.len() >= CHUNK {
            self.drain(w)?;
        }
        Ok(())
    }

    /// Hands whatever is buffered to `w`.
    pub(crate) fn drain(&mut self, w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// The buffered bytes as a string (a whole document written at once).
    pub(crate) fn into_string(self) -> String {
        String::from_utf8(self.buf).expect("the wire format is ASCII")
    }
}

impl IdSink for Wire {
    #[inline(always)]
    fn lit(&mut self, s: &'static str) {
        Wire::lit(self, s);
    }

    #[inline(always)]
    fn num(&mut self, n: u64) {
        self.dec(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dec(n: u64) -> String {
        let mut w = Wire::new();
        w.dec(n);
        w.into_string()
    }

    #[test]
    fn decimals_match_display_at_every_digit_count() {
        let mut n = 1u64;
        for _ in 0..20 {
            for m in [n - 1, n, n + 1, n.saturating_mul(9)] {
                assert_eq!(dec(m), m.to_string());
            }
            n = n.saturating_mul(10);
        }
        assert_eq!(dec(u64::MAX), u64::MAX.to_string());
    }

    #[test]
    fn signed_values_keep_their_sign() {
        for n in [0, 7, -7, i64::MAX, i64::MIN] {
            let mut w = Wire::new();
            w.int("", n);
            assert_eq!(w.into_string(), n.to_string());
        }
    }

    #[test]
    fn drain_full_waits_for_a_chunk_and_keeps_order() {
        let mut w = Wire::new();
        let mut sink = Vec::new();
        w.lit("ab");
        w.drain_full(&mut sink).unwrap();
        assert!(sink.is_empty());
        while w.buf.len() < CHUNK {
            w.lit("cd");
        }
        w.drain_full(&mut sink).unwrap();
        assert_eq!(sink.len(), CHUNK);
        w.lit("ef");
        w.drain(&mut sink).unwrap();
        assert!(sink.starts_with(b"abcd") && sink.ends_with(b"cdef"));
    }
}
