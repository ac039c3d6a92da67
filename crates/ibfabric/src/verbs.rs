//! Verbs-facing work-request and completion types.

use crate::qp::Qpn;
use crate::types::Lid;
use bytes::Bytes;

/// What kind of data transfer a posted send work request performs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SendKind {
    /// Channel semantics: consumes a receive WQE at the responder.
    Send,
    /// Memory semantics: writes into remote memory without consuming a
    /// receive WQE. If `imm` is set on the work request, the responder gets a
    /// `RecvDone`-style notification (RDMA Write with Immediate); otherwise the
    /// write is silent and only visible through
    /// [`crate::hca::HcaCore::rdma_bytes_received`].
    RdmaWrite,
    /// Memory semantics: reads `len` bytes from remote memory; the responder's
    /// HCA streams the data back without host involvement.
    RdmaRead,
}

/// A send-side work request posted to a QP's send queue.
#[derive(Clone, Debug)]
pub struct SendWr {
    /// Caller-chosen identifier, echoed in the completion.
    pub wr_id: u64,
    /// Transfer kind.
    pub kind: SendKind,
    /// Message length in bytes (for `RdmaRead`, the length to read).
    pub len: u32,
    /// Immediate value / ULP tag. For `RdmaWrite`, `u64::MAX` means "no
    /// immediate" and the write is silent at the responder.
    pub imm: u64,
    /// Optional inline bytes: an integrity payload when as long as the
    /// message ([`SendWr::with_data`]), a ULP header otherwise
    /// ([`SendWr::with_meta`]).
    pub data: Option<Bytes>,
    /// For UD QPs: the destination address (LID + QPN). RC QPs are connected
    /// and ignore this.
    pub ud_dest: Option<(Lid, Qpn)>,
}

impl SendWr {
    /// Convenience: a channel-semantics send.
    pub fn send(wr_id: u64, len: u32, imm: u64) -> Self {
        SendWr {
            wr_id,
            kind: SendKind::Send,
            len,
            imm,
            data: None,
            ud_dest: None,
        }
    }

    /// Convenience: an RDMA write without immediate (silent at responder).
    pub fn rdma_write(wr_id: u64, len: u32) -> Self {
        SendWr {
            wr_id,
            kind: SendKind::RdmaWrite,
            len,
            imm: u64::MAX,
            data: None,
            ud_dest: None,
        }
    }

    /// Convenience: an RDMA write with immediate (notifies responder).
    pub fn rdma_write_imm(wr_id: u64, len: u32, imm: u64) -> Self {
        SendWr {
            wr_id,
            kind: SendKind::RdmaWrite,
            len,
            imm,
            data: None,
            ud_dest: None,
        }
    }

    /// Convenience: an RDMA read.
    pub fn rdma_read(wr_id: u64, len: u32) -> Self {
        SendWr {
            wr_id,
            kind: SendKind::RdmaRead,
            len,
            imm: u64::MAX,
            data: None,
            ud_dest: None,
        }
    }

    /// Attach a UD destination.
    pub fn to(mut self, dest: (Lid, Qpn)) -> Self {
        self.ud_dest = Some(dest);
        self
    }

    /// Attach inline payload (integrity tests). Length must equal the
    /// message length; use [`SendWr::with_meta`] for small ULP headers.
    pub fn with_data(mut self, data: Bytes) -> Self {
        debug_assert_eq!(data.len(), self.len as usize);
        self.data = Some(data);
        self
    }

    /// Attach small ULP metadata (a protocol header such as a TCP segment
    /// header or an RPC header) that rides with the message but does not
    /// represent its payload. Must be *shorter* than the message length.
    /// The header rides with the message's `Last` fragment, in a fragment
    /// train or a super-train like any other (see `Packet::data`), and
    /// arrives in the receiver's `RecvDone`. An empty header is no header.
    pub fn with_meta(mut self, meta: Bytes) -> Self {
        debug_assert_ne!(
            meta.len(),
            self.len as usize,
            "use with_data for full payloads"
        );
        self.data = (!meta.is_empty()).then_some(meta);
        self
    }

    /// Length of the ULP header [`SendWr::with_meta`] attached, or `0` for
    /// no data or an integrity payload (data as long as the message).
    pub(crate) fn header_len(&self) -> u32 {
        match &self.data {
            Some(d) if d.len() != self.len as usize => {
                u32::try_from(d.len()).expect("a ULP header fits in u32")
            }
            _ => 0,
        }
    }
}

/// A receive work request (pre-posted buffer).
#[derive(Clone, Copy, Debug)]
pub struct RecvWr {
    /// Caller-chosen identifier, echoed in the completion.
    pub wr_id: u64,
}

/// A completion-queue entry delivered to the HCA's ULP.
#[derive(Clone, Debug)]
pub enum Completion {
    /// A posted send/write/read finished. For RC this fires when the message
    /// is fully ACKed (reads: fully returned); for UD when the datagram has
    /// left the port.
    SendDone {
        /// QP the work request was posted on.
        qpn: Qpn,
        /// The `wr_id` from the original [`SendWr`].
        wr_id: u64,
        /// The original [`SendKind`].
        kind: SendKind,
        /// Message length.
        len: u32,
    },
    /// An incoming message consumed a receive WQE (Send, RDMA-Write-with-
    /// immediate, or UD datagram).
    RecvDone {
        /// QP the message arrived on.
        qpn: Qpn,
        /// The `wr_id` of the consumed [`RecvWr`].
        wr_id: u64,
        /// Message length received.
        len: u32,
        /// Immediate value / ULP tag.
        imm: u64,
        /// Source address (LID, QPN) — meaningful for UD, echoed for RC.
        src: (Lid, Qpn),
        /// Inline payload if the sender attached one.
        data: Option<Bytes>,
    },
    /// A silent (no-immediate) RDMA write landed and the QP was configured
    /// with [`crate::qp::QpConfig::notify_silent_writes`]. Models a ULP that
    /// polls memory for arrival (as `rdma_lat` does) — note there is no
    /// receive-WQE overhead on this path.
    WriteArrived {
        /// QP the write landed on.
        qpn: Qpn,
        /// Bytes written.
        len: u32,
    },
}

impl Completion {
    /// The QP this completion belongs to.
    pub fn qpn(&self) -> Qpn {
        match self {
            Completion::SendDone { qpn, .. }
            | Completion::RecvDone { qpn, .. }
            | Completion::WriteArrived { qpn, .. } => *qpn,
        }
    }
}
