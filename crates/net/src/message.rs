//! The protocol message vocabulary and its wire sizes.

/// Wire size of a control message (requests, grants without payload,
/// callbacks, acknowledgements).
pub(crate) const CONTROL_BYTES: u32 = 128;

/// Per-message header overhead added to object payloads.
const HEADER_BYTES: u32 = 64;

/// Every message category exchanged by the three systems.
///
/// The variants marked *(Table 4)* correspond one-to-one to the rows of the
/// paper's message-count table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    // -- Centralized system --
    /// Client submits a transaction to the server for execution.
    TxnSubmit,
    /// Server reports a transaction's outcome to its client.
    TxnResult,

    // -- Client-server object/lock traffic --
    /// *(Table 4)* Object/lock request, client → server.
    ObjectRequest,
    /// *(Table 4)* Object shipped with its lock, server → client (2 KB payload).
    ObjectSend,
    /// Lock granted without data (client has the object cached but needed a
    /// stronger lock), server → client.
    LockGrant,
    /// *(Table 4)* Lock callback / recall, server → client.
    Recall,
    /// *(Table 4)* Object returned to the server (2 KB payload when dirty or
    /// revoked), client → server.
    ObjectReturn,
    /// Callback acknowledged without returning data (clean downgrade),
    /// client → server.
    CallbackAck,
    /// Conflict report: locations of conflicting holders instead of the
    /// objects, server → client (LS §4).
    ConflictInfo,

    // -- Load-sharing traffic --
    /// *(Table 4)* Object forwarded client → client down a forward list
    /// (2 KB payload).
    ObjectForward,
    /// Whole transaction shipped to a better site, client → client.
    TxnShip,
    /// Result of a shipped transaction reported back to its origin.
    TxnShipResult,
    /// Subtask of a decomposed transaction shipped to a site.
    SubtaskShip,
    /// Subtask result returned to the decomposition origin.
    SubtaskResult,
    /// Client asks the server for object locations and client loads.
    LoadQuery,
    /// Server replies with locations/loads.
    LoadReply,
}

impl MessageKind {
    /// All kinds, in declaration order (for iteration in reports).
    pub const ALL: [MessageKind; 16] = [
        MessageKind::TxnSubmit,
        MessageKind::TxnResult,
        MessageKind::ObjectRequest,
        MessageKind::ObjectSend,
        MessageKind::LockGrant,
        MessageKind::Recall,
        MessageKind::ObjectReturn,
        MessageKind::CallbackAck,
        MessageKind::ConflictInfo,
        MessageKind::ObjectForward,
        MessageKind::TxnShip,
        MessageKind::TxnShipResult,
        MessageKind::SubtaskShip,
        MessageKind::SubtaskResult,
        MessageKind::LoadQuery,
        MessageKind::LoadReply,
    ];

    /// Stable dense index (for counters).
    #[must_use]
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind listed in ALL")
    }

    /// Wire size in bytes when carrying `objects` object payloads of
    /// `object_bytes` each. Control messages are `CONTROL_BYTES`;
    /// transaction shipments carry a descriptor (~4× control).
    #[must_use]
    pub fn wire_bytes(self, object_bytes: u32, objects: u32) -> u32 {
        let base = match self {
            MessageKind::TxnShip | MessageKind::SubtaskShip => CONTROL_BYTES * 4,
            MessageKind::LoadReply | MessageKind::ConflictInfo => CONTROL_BYTES * 2,
            _ => CONTROL_BYTES,
        };
        if objects > 0 {
            base + HEADER_BYTES + objects * object_bytes
        } else {
            base
        }
    }

    /// Human-readable label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::TxnSubmit => "txn submit (client to server)",
            MessageKind::TxnResult => "txn result (server to client)",
            MessageKind::ObjectRequest => "object request (client to server)",
            MessageKind::ObjectSend => "object sent (server to client)",
            MessageKind::LockGrant => "lock grant without data (server to client)",
            MessageKind::Recall => "object recall (server to client)",
            MessageKind::ObjectReturn => "object returned (client to server)",
            MessageKind::CallbackAck => "callback ack / downgrade (client to server)",
            MessageKind::ConflictInfo => "conflict info (server to client)",
            MessageKind::ObjectForward => "object forwarded via forward list (client to client)",
            MessageKind::TxnShip => "transaction shipped (client to client)",
            MessageKind::TxnShipResult => "shipped txn result (client to client)",
            MessageKind::SubtaskShip => "subtask shipped (client to client)",
            MessageKind::SubtaskResult => "subtask result (client to client)",
            MessageKind::LoadQuery => "load/location query (client to server)",
            MessageKind::LoadReply => "load/location reply (server to client)",
        }
    }
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_complete_and_indices_dense() {
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(
            MessageKind::ObjectRequest.wire_bytes(2_048, 0),
            128
        );
        assert_eq!(
            MessageKind::ObjectSend.wire_bytes(2_048, 1),
            128 + 64 + 2_048
        );
        assert_eq!(
            MessageKind::ObjectSend.wire_bytes(2_048, 3),
            128 + 64 + 3 * 2_048
        );
        assert_eq!(MessageKind::TxnShip.wire_bytes(2_048, 0), 512);
        assert_eq!(MessageKind::ConflictInfo.wire_bytes(2_048, 0), 256);
    }

    #[test]
    fn labels_are_distinct_and_nonempty() {
        let mut labels: Vec<_> = MessageKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
        assert!(MessageKind::Recall.to_string().contains("recall"));
    }
}
