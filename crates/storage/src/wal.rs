//! ARIES-lite write-ahead log.
//!
//! The paper's server stores its 10,000-object database in a paged file with
//! no log, so a crash is terminal data-plane loss. This module adds the
//! durability half of ARIES: a sequenced log of page-update / commit / abort /
//! checkpoint records with a volatile tail, so that
//! [`recovery`](crate::recovery) can replay redo-then-undo after a
//! crash-restart.
//!
//! The log models *stable storage* as an in-memory byte vector split in two:
//! a `durable` prefix (survives a crash) and a `staged` tail (lost, possibly
//! torn mid-record, on crash). Records are framed as
//! `[payload len: u32 LE][payload][FNV-1a(payload): u32 LE]` so a torn tail is
//! detected by a short or checksum-mismatched frame and ignored by the
//! scanner, exactly like a real log whose final sector write was interrupted.
//!
//! LSNs are record sequence numbers (0-based). The WAL rule observed by
//! [`DurableStore`](crate::recovery::DurableStore) is *log-before-data*: the
//! staged tail is flushed before any page can be stolen (written back) to the
//! disk image, and a commit record is forced before the commit is
//! acknowledged.

use siteselect_types::ObjectId;

/// Log sequence number: the 0-based index of a record in the log.
pub type Lsn = u64;

/// Maximum sane payload size used by the scanner to reject garbage lengths
/// in a torn tail (largest real record is a checkpoint, bounded well below
/// this).
const MAX_PAYLOAD: usize = 1 << 20;

const KIND_UPDATE: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;

/// One write-ahead log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A physical page update: `before`/`after` images of the u64 at `offset`.
    ///
    /// Compensation (undo) writes are logged as ordinary updates with the
    /// images swapped, so redo repeats history and never needs special CLR
    /// handling.
    Update {
        /// Transaction (or pseudo-transaction) id.
        txn: u64,
        /// Page written.
        page: ObjectId,
        /// Byte offset of the u64 within the page.
        offset: u16,
        /// Value before the write (undo image).
        before: u64,
        /// Value after the write (redo image).
        after: u64,
    },
    /// Transaction committed; forced to stable storage before the commit is
    /// acknowledged.
    Commit {
        /// Committing transaction.
        txn: u64,
    },
    /// Transaction rolled back (its compensation updates precede this
    /// record).
    Abort {
        /// Aborted transaction.
        txn: u64,
    },
    /// Fuzzy checkpoint: transactions active at checkpoint time plus the LSN
    /// redo can start from (all earlier updates were on disk when the record
    /// was written). Transactions are not quiesced.
    Checkpoint {
        /// Transactions with unresolved updates at checkpoint time (sorted).
        active: Vec<u64>,
        /// First LSN the redo pass must consider.
        redo_lsn: Lsn,
    },
}

fn fnv1a(bytes: &[u8]) -> u32 {
    // Same FNV-1a folding as `Page::checksum`, truncated to 32 bits.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash ^ (hash >> 32)) as u32
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let raw = bytes.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(raw.try_into().expect("8-byte slice")))
}

impl LogRecord {
    /// Appends the record's payload to `p`.
    fn encode_payload(&self, p: &mut Vec<u8>) {
        match self {
            LogRecord::Update {
                txn,
                page,
                offset,
                before,
                after,
            } => {
                p.push(KIND_UPDATE);
                put_u64(p, *txn);
                p.extend_from_slice(&page.0.to_le_bytes());
                p.extend_from_slice(&offset.to_le_bytes());
                put_u64(p, *before);
                put_u64(p, *after);
            }
            LogRecord::Commit { txn } => {
                p.push(KIND_COMMIT);
                put_u64(p, *txn);
            }
            LogRecord::Abort { txn } => {
                p.push(KIND_ABORT);
                put_u64(p, *txn);
            }
            LogRecord::Checkpoint { active, redo_lsn } => {
                p.push(KIND_CHECKPOINT);
                put_u64(p, *redo_lsn);
                p.extend_from_slice(&(active.len() as u32).to_le_bytes());
                for &t in active {
                    put_u64(p, t);
                }
            }
        }
    }

    fn decode_payload(p: &[u8]) -> Option<LogRecord> {
        let (&kind, rest) = p.split_first()?;
        let mut at = 0usize;
        match kind {
            KIND_UPDATE => {
                let txn = get_u64(rest, &mut at)?;
                let page = ObjectId(u32::from_le_bytes(
                    rest.get(at..at + 4)?.try_into().expect("4-byte slice"),
                ));
                at += 4;
                let offset =
                    u16::from_le_bytes(rest.get(at..at + 2)?.try_into().expect("2-byte slice"));
                at += 2;
                let before = get_u64(rest, &mut at)?;
                let after = get_u64(rest, &mut at)?;
                (at == rest.len()).then_some(LogRecord::Update {
                    txn,
                    page,
                    offset,
                    before,
                    after,
                })
            }
            KIND_COMMIT => {
                let txn = get_u64(rest, &mut at)?;
                (at == rest.len()).then_some(LogRecord::Commit { txn })
            }
            KIND_ABORT => {
                let txn = get_u64(rest, &mut at)?;
                (at == rest.len()).then_some(LogRecord::Abort { txn })
            }
            KIND_CHECKPOINT => {
                let redo_lsn = get_u64(rest, &mut at)?;
                let count =
                    u32::from_le_bytes(rest.get(at..at + 4)?.try_into().expect("4-byte slice"));
                at += 4;
                let mut active = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    active.push(get_u64(rest, &mut at)?);
                }
                (at == rest.len()).then_some(LogRecord::Checkpoint { active, redo_lsn })
            }
            _ => None,
        }
    }
}

/// Result of scanning a log image: the decodable records plus whether the
/// image ended in a torn (incomplete or corrupt) frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogScan {
    /// Records in LSN order.
    pub records: Vec<LogRecord>,
    /// True if trailing bytes did not form a valid frame (torn tail).
    pub torn_tail: bool,
    /// Bytes consumed by the valid prefix (excludes any torn tail).
    pub valid_bytes: usize,
}

/// Decodes a log image, stopping at the first torn or corrupt frame.
#[must_use]
pub fn scan(bytes: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while let Some(raw_len) = bytes.get(at..at + 4) {
        let len = u32::from_le_bytes(raw_len.try_into().expect("4-byte slice")) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            break;
        }
        let Some(payload) = bytes.get(at + 4..at + 4 + len) else {
            break;
        };
        let Some(raw_sum) = bytes.get(at + 4 + len..at + 8 + len) else {
            break;
        };
        let sum = u32::from_le_bytes(raw_sum.try_into().expect("4-byte slice"));
        if sum != fnv1a(payload) {
            break;
        }
        let Some(rec) = LogRecord::decode_payload(payload) else {
            break;
        };
        records.push(rec);
        at += 8 + len;
    }
    LogScan {
        records,
        torn_tail: at != bytes.len(),
        valid_bytes: at,
    }
}

/// The write-ahead log: a durable prefix plus a volatile staged tail.
///
/// # Example
///
/// ```
/// use siteselect_storage::wal::{scan, LogRecord, Wal};
/// use siteselect_types::ObjectId;
///
/// let mut wal = Wal::new();
/// wal.append(&LogRecord::Update {
///     txn: 1, page: ObjectId(3), offset: 0, before: 0, after: 7,
/// });
/// wal.append(&LogRecord::Commit { txn: 1 });
/// wal.flush();
/// let image = wal.crash_image(0);
/// assert_eq!(scan(&image).records.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Wal {
    durable: Vec<u8>,
    staged: Vec<u8>,
    next_lsn: Lsn,
    durable_lsn: Lsn,
}

impl Wal {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Wal::default()
    }

    /// Reconstructs a log from a recovered durable image.
    ///
    /// `records` must be the record count of `durable` (i.e.
    /// [`LogScan::records`]`.len()` over the valid prefix).
    #[must_use]
    pub fn from_recovered(durable: Vec<u8>, records: u64) -> Self {
        Wal {
            durable,
            staged: Vec::new(),
            next_lsn: records,
            durable_lsn: records,
        }
    }

    /// Appends a record to the staged tail and returns its LSN.
    pub fn append(&mut self, rec: &LogRecord) -> Lsn {
        // The frame is built where it stays: a placeholder for the length,
        // the payload, then the length patched in and the checksum taken
        // over the payload as it lies in the tail.
        let frame = self.staged.len();
        self.staged.extend_from_slice(&[0; 4]);
        rec.encode_payload(&mut self.staged);
        let tail = self.staged.get_mut(frame..);
        let mut sum = 0;
        if let Some((len, payload)) = tail.and_then(<[u8]>::split_first_chunk_mut) {
            *len = (payload.len() as u32).to_le_bytes();
            sum = fnv1a(payload);
        }
        self.staged.extend_from_slice(&sum.to_le_bytes());
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        lsn
    }

    /// Forces the staged tail to stable storage.
    pub fn flush(&mut self) {
        if !self.staged.is_empty() {
            self.durable.append(&mut self.staged);
        }
        self.durable_lsn = self.next_lsn;
    }

    /// LSN the next appended record will receive.
    #[must_use]
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// LSN up to which the log is durable (records below this survive a
    /// crash).
    #[must_use]
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// Bytes currently staged (volatile tail).
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The log image a crash would leave behind: the durable prefix plus the
    /// first `staged_keep` bytes of the staged tail (a torn tail when the cut
    /// lands mid-record).
    #[must_use]
    pub fn crash_image(&self, staged_keep: usize) -> Vec<u8> {
        let keep = staged_keep.min(self.staged.len());
        let mut image = self.durable.clone();
        image.extend_from_slice(&self.staged[..keep]);
        image
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Update {
                txn: 7,
                page: ObjectId(12),
                offset: 0,
                before: 0,
                after: 1,
            },
            LogRecord::Commit { txn: 7 },
            LogRecord::Update {
                txn: 8,
                page: ObjectId(3),
                offset: 16,
                before: 1,
                after: 2,
            },
            LogRecord::Abort { txn: 8 },
            LogRecord::Checkpoint {
                active: vec![9, 11],
                redo_lsn: 4,
            },
        ]
    }

    #[test]
    fn round_trip_all_record_kinds() {
        let mut wal = Wal::new();
        for (i, rec) in sample_records().iter().enumerate() {
            assert_eq!(wal.append(rec), i as Lsn);
        }
        wal.flush();
        let scan = scan(&wal.crash_image(0));
        assert!(!scan.torn_tail);
        assert_eq!(scan.records, sample_records());
    }

    /// The frame as `append` built it before records were encoded in
    /// place: the payload in a scratch vector, then length, payload and
    /// checksum copied to the tail.
    fn reference_frame(rec: &LogRecord) -> Vec<u8> {
        let mut p = Vec::with_capacity(32);
        match rec {
            LogRecord::Update {
                txn,
                page,
                offset,
                before,
                after,
            } => {
                p.push(KIND_UPDATE);
                put_u64(&mut p, *txn);
                p.extend_from_slice(&page.0.to_le_bytes());
                p.extend_from_slice(&offset.to_le_bytes());
                put_u64(&mut p, *before);
                put_u64(&mut p, *after);
            }
            LogRecord::Commit { txn } => {
                p.push(KIND_COMMIT);
                put_u64(&mut p, *txn);
            }
            LogRecord::Abort { txn } => {
                p.push(KIND_ABORT);
                put_u64(&mut p, *txn);
            }
            LogRecord::Checkpoint { active, redo_lsn } => {
                p.push(KIND_CHECKPOINT);
                put_u64(&mut p, *redo_lsn);
                p.extend_from_slice(&(active.len() as u32).to_le_bytes());
                for &t in active {
                    put_u64(&mut p, t);
                }
            }
        }
        let mut frame = (p.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&p);
        frame.extend_from_slice(&fnv1a(&p).to_le_bytes());
        frame
    }

    #[test]
    fn in_place_frames_equal_the_scratch_encoders() {
        let mut records = sample_records();
        for active in [0u64, 1, 300] {
            records.push(LogRecord::Checkpoint {
                active: (0..active).map(|t| t * 7 + 1).collect(),
                redo_lsn: active,
            });
            records.push(LogRecord::Update {
                txn: u64::MAX - active,
                page: ObjectId(u32::MAX),
                offset: u16::MAX,
                before: active,
                after: u64::MAX,
            });
        }
        let mut wal = Wal::new();
        let mut image = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(wal.append(rec), i as Lsn);
            image.extend_from_slice(&reference_frame(rec));
            // Frames start at every kind of tail: empty after a flush,
            // and behind one or two records still staged.
            if i % 3 == 2 {
                wal.flush();
            }
            assert_eq!(wal.crash_image(usize::MAX), image, "after record {i}");
        }
        assert_eq!(wal.next_lsn(), records.len() as Lsn);
        wal.flush();
        let parsed = scan(&wal.crash_image(0));
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.valid_bytes, image.len());
        assert_eq!(parsed.records, records);
    }

    #[test]
    fn staged_tail_is_lost_without_flush() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush();
        wal.append(&LogRecord::Commit { txn: 2 });
        assert_eq!(wal.durable_lsn(), 1);
        let scan = scan(&wal.crash_image(0));
        assert_eq!(scan.records, vec![LogRecord::Commit { txn: 1 }]);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn torn_tail_is_detected_and_ignored() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush();
        wal.append(&LogRecord::Update {
            txn: 2,
            page: ObjectId(5),
            offset: 0,
            before: 0,
            after: 9,
        });
        // Cut every possible number of staged bytes short of the full frame.
        for keep in 0..wal.staged_len() {
            let scan = scan(&wal.crash_image(keep));
            assert_eq!(scan.records.len(), 1, "keep={keep}");
            assert_eq!(scan.torn_tail, keep != 0, "keep={keep}");
        }
        // The full tail survives only if completely written.
        let full = scan(&wal.crash_image(wal.staged_len()));
        assert_eq!(full.records.len(), 2);
        assert!(!full.torn_tail);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 2 });
        wal.flush();
        let mut image = wal.crash_image(0);
        let last = image.len() - 1;
        image[last] ^= 0xFF;
        let scan = scan(&image);
        assert_eq!(scan.records, vec![LogRecord::Commit { txn: 1 }]);
        assert!(scan.torn_tail);
    }

    #[test]
    fn garbage_length_prefix_is_rejected() {
        let mut image = Vec::new();
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        image.extend_from_slice(&[0xAB; 32]);
        let scan = scan(&image);
        assert!(scan.records.is_empty());
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_bytes, 0);
    }

    #[test]
    fn from_recovered_continues_lsns() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.append(&LogRecord::Commit { txn: 2 });
        wal.flush();
        let image = wal.crash_image(0);
        let parsed = scan(&image);
        let mut recovered = Wal::from_recovered(image, parsed.records.len() as u64);
        assert_eq!(recovered.next_lsn(), 2);
        assert_eq!(recovered.append(&LogRecord::Commit { txn: 3 }), 2);
        recovered.flush();
        assert_eq!(scan(&recovered.crash_image(0)).records.len(), 3);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut wal = Wal::new();
        wal.append(&LogRecord::Commit { txn: 1 });
        wal.flush();
        let durable = wal.durable.clone();
        wal.flush();
        assert_eq!(wal.durable, durable);
        assert_eq!(wal.staged_len(), 0);
    }
}
