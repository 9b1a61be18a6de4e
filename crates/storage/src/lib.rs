//! Paged-file storage layer — the MiniRel **PF layer** equivalent used by the
//! paper's prototypes (§5.1).
//!
//! The paper stores a 10,000-object database in fixed-size 2 KB pages managed
//! by a file-page buffer manager. This crate provides:
//!
//! * [`Page`] — one fixed-size page with typed accessors and a checksum;
//! * [`DiskFile`] — the backing UNIX-file analogue with I/O accounting;
//! * [`BufferManager`] — pinned frames over a [`DiskFile`] with LRU
//!   replacement and dirty write-back, mirroring the PF layer's semantics;
//! * [`PagedFile`] — the PF-layer facade (`with_page`, `with_page_mut`,
//!   `flush`);
//! * [`ClientCache`] — the client's two-tier (memory + disk) object cache of
//!   Table 1 (500 + 500 objects) used by the client–server models;
//! * [`DiskModel`] — a FIFO single-server service-time model of a disk, used
//!   by the discrete-event simulator;
//! * [`Wal`] / [`DurableStore`] — an ARIES-lite write-ahead log and the
//!   durability facade the engines write through, with redo-then-undo
//!   crash-restart replay in [`recovery`].
//!
//! # Example
//!
//! ```
//! use siteselect_storage::PagedFile;
//! use siteselect_types::ObjectId;
//!
//! let mut pf = PagedFile::create(16, 4); // 16 pages, 4 buffer frames
//! pf.with_page_mut(ObjectId(3), |page| page.write_u64_at(0, 42)).unwrap();
//! let v = pf.with_page(ObjectId(3), |page| page.read_u64_at(0)).unwrap();
//! assert_eq!(v, 42);
//! ```

pub mod buffer;
#[cfg(test)]
mod buffer_reference;
pub mod cache;
pub mod disk;
pub mod model;
pub mod page;
pub mod pagedfile;
pub mod recovery;
pub mod wal;

pub use buffer::{BufferManager, BufferStats, Replacement};
pub use cache::{CacheTier, ClientCache, ClientCacheStats};
pub use disk::{DiskFile, DiskStats};
pub use model::DiskModel;
pub use page::{Page, PAGE_SIZE};
pub use pagedfile::{PagedFile, PfError};
pub use recovery::{DurableStore, RecoveryOutcome};
pub use wal::{LogRecord, Lsn, Wal};
