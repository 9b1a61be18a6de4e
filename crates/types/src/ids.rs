//! Identifiers for database objects, sites, transactions and subtasks.

use std::fmt;

/// Where identifier text goes: a [`fmt::Formatter`] behind `Display`, or
/// the trace exporters' byte buffer, which never enters `core::fmt`.
pub trait IdSink {
    /// Appends a fixed fragment.
    fn lit(&mut self, s: &'static str);
    /// Appends `n` in decimal.
    fn num(&mut self, n: u64);
}

/// An identifier with one stable text form (`obj#9`, `client#2`, `server`,
/// `txn#2.7`). `Display` and the trace wire format both come from
/// [`write_text`](IdText::write_text), so they cannot drift apart.
pub trait IdText: Copy {
    /// Writes the identifier's text to `out`.
    fn write_text(self, out: &mut impl IdSink);
}

/// `Display` through [`IdText`]: the sink keeps the first error.
struct FmtSink<'a, 'b> {
    f: &'a mut fmt::Formatter<'b>,
    result: fmt::Result,
}

impl IdSink for FmtSink<'_, '_> {
    fn lit(&mut self, s: &'static str) {
        if self.result.is_ok() {
            self.result = self.f.write_str(s);
        }
    }

    fn num(&mut self, n: u64) {
        if self.result.is_ok() {
            self.result = write!(self.f, "{n}");
        }
    }
}

macro_rules! display_from_id_text {
    ($($id:ty),*) => {$(
        impl fmt::Display for $id {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut sink = FmtSink { f, result: Ok(()) };
                self.write_text(&mut sink);
                sink.result
            }
        }
    )*};
}

display_from_id_text!(ObjectId, ClientId, SiteId, TransactionId);

/// Identifies one fixed-size database object (one 2 KB page in the paper's
/// MiniRel-backed prototype).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Returns the raw index of this object within the database file.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl IdText for ObjectId {
    fn write_text(self, out: &mut impl IdSink) {
        out.lit("obj#");
        out.num(u64::from(self.0));
    }
}

/// Identifies one client workstation in the cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct ClientId(pub u16);

impl ClientId {
    /// Returns the zero-based client index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl IdText for ClientId {
    fn write_text(self, out: &mut impl IdSink) {
        out.lit("client#");
        out.num(u64::from(self.0));
    }
}

/// A processing site in the cluster: the database server, a client
/// workstation, or the specialized directory server that forwards
/// client-to-client traffic in the load-sharing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteId {
    /// The database server (global lock table, disk-resident database).
    Server,
    /// A client workstation.
    Client(ClientId),
    /// The directory/forwarding server used by LS-CS-RTDBS so that
    /// client-to-client messages are not routed through the database server.
    Directory,
}

impl SiteId {
    /// Returns the client id if this site is a client.
    #[must_use]
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            SiteId::Client(c) => Some(c),
            _ => None,
        }
    }

    /// True if this site is the database server.
    #[must_use]
    pub fn is_server(self) -> bool {
        matches!(self, SiteId::Server)
    }
}

impl From<ClientId> for SiteId {
    fn from(c: ClientId) -> Self {
        SiteId::Client(c)
    }
}

impl IdText for SiteId {
    fn write_text(self, out: &mut impl IdSink) {
        match self {
            SiteId::Server => out.lit("server"),
            SiteId::Client(c) => c.write_text(out),
            SiteId::Directory => out.lit("directory"),
        }
    }
}

/// Globally unique transaction identifier.
///
/// The identifier encodes the originating client in the upper 16 bits and a
/// per-client sequence number in the lower 48 bits, so ids allocated by
/// different clients never collide and the origin can be recovered without a
/// lookup.
///
/// # Example
///
/// ```
/// use siteselect_types::{ClientId, TransactionId};
///
/// let id = TransactionId::new(ClientId(7), 42);
/// assert_eq!(id.origin(), ClientId(7));
/// assert_eq!(id.sequence(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransactionId(u64);

impl TransactionId {
    const SEQ_BITS: u32 = 48;
    const SEQ_MASK: u64 = (1 << Self::SEQ_BITS) - 1;

    /// Builds a transaction id from its originating client and a per-client
    /// sequence number.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `seq` does not fit in 48 bits.
    #[must_use]
    pub fn new(origin: ClientId, seq: u64) -> Self {
        debug_assert!(seq <= Self::SEQ_MASK, "transaction sequence overflow");
        TransactionId(((origin.0 as u64) << Self::SEQ_BITS) | (seq & Self::SEQ_MASK))
    }

    /// The client at which the transaction was initiated.
    #[must_use]
    pub fn origin(self) -> ClientId {
        ClientId((self.0 >> Self::SEQ_BITS) as u16)
    }

    /// The per-client sequence number.
    #[must_use]
    pub const fn sequence(self) -> u64 {
        self.0 & Self::SEQ_MASK
    }

    /// The raw 64-bit encoding.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a transaction id from its raw encoding (inverse of
    /// [`as_u64`](Self::as_u64)).
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        TransactionId(raw)
    }
}

impl IdText for TransactionId {
    fn write_text(self, out: &mut impl IdSink) {
        out.lit("txn#");
        out.num(u64::from(self.origin().0));
        out.lit(".");
        out.num(self.sequence());
    }
}

/// Identifies one subtask of a decomposed transaction.
///
/// Decomposition splits a transaction into independent object groups that are
/// materialized in parallel at the sites caching them (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubtaskId {
    /// The parent transaction.
    pub txn: TransactionId,
    /// Zero-based index of this subtask within the decomposition.
    pub index: u8,
}

impl fmt::Display for SubtaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.txn, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_id_encodes_origin_and_sequence() {
        for client in [0u16, 1, 99, u16::MAX] {
            for seq in [0u64, 1, 1 << 20, (1 << 48) - 1] {
                let id = TransactionId::new(ClientId(client), seq);
                assert_eq!(id.origin(), ClientId(client));
                assert_eq!(id.sequence(), seq);
            }
        }
    }

    #[test]
    fn transaction_ids_from_distinct_clients_differ() {
        let a = TransactionId::new(ClientId(1), 5);
        let b = TransactionId::new(ClientId(2), 5);
        assert_ne!(a, b);
        assert_ne!(a.as_u64(), b.as_u64());
    }

    #[test]
    fn site_id_conversions() {
        let c = ClientId(3);
        let s: SiteId = c.into();
        assert_eq!(s.as_client(), Some(c));
        assert!(!s.is_server());
        assert!(SiteId::Server.is_server());
        assert_eq!(SiteId::Server.as_client(), None);
        assert_eq!(SiteId::Directory.as_client(), None);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(ObjectId(9).to_string(), "obj#9");
        assert_eq!(ClientId(2).to_string(), "client#2");
        assert_eq!(SiteId::Server.to_string(), "server");
        assert_eq!(TransactionId::new(ClientId(2), 7).to_string(), "txn#2.7");
        let st = SubtaskId {
            txn: TransactionId::new(ClientId(2), 7),
            index: 1,
        };
        assert_eq!(st.to_string(), "txn#2.7[1]");
    }

    #[test]
    fn ordering_follows_sequence_within_client() {
        let a = TransactionId::new(ClientId(1), 5);
        let b = TransactionId::new(ClientId(1), 6);
        assert!(a < b);
    }
}
