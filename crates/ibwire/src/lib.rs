//! # ibwire — wire-level InfiniBand types
//!
//! The leaf crate holding the identifiers and the packet struct that travel
//! between fabric actors. It exists so that `simcore` can carry packets
//! *typed* in its delivery streams ([`Packet`] rides inline in the stream,
//! with no `Box<dyn Any>` allocation or downcast per fragment) without
//! depending on the full fabric model, while `ibfabric` re-exports
//! everything here under its original paths.

use bytes::Bytes;
use std::fmt;

/// A Local IDentifier assigned by the subnet manager to every end port.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lid(pub u16);

impl fmt::Debug for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lid{}", self.0)
    }
}
impl fmt::Display for Lid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Queue-pair number, unique within an HCA.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qpn(pub u32);

impl fmt::Debug for Qpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Wire overhead per RC packet: LRH (8) + BTH (12) + iCRC/vCRC (6) and
/// framing — calibrated so a 2 KB-MTU RC stream peaks at ~980 MB/s over the
/// 8 Gb/s (1000 MB/s) SDR WAN link, matching Section 3.2.2 of the paper.
pub const RC_HEADER_BYTES: u64 = 42;

/// Wire overhead per UD packet: LRH + GRH (40) + BTH + DETH (8) + CRCs —
/// calibrated so a 2 KB UD stream peaks at ~967 MB/s over SDR, matching the
/// paper's reported verbs-level UD peak.
pub const UD_HEADER_BYTES: u64 = 70;

/// Size of an ACK / control packet on the wire (header-only packet).
pub const ACK_BYTES: u64 = 30;

/// Size of an RDMA-read request packet on the wire.
pub const READ_REQ_BYTES: u64 = 46;

/// Default InfiniBand path MTU used throughout (2048-byte payload), matching
/// the 2 KB MTU of the paper's testbed HCAs.
pub const DEFAULT_MTU: u32 = 2048;

/// InfiniBand base-transport opcodes, reduced to what the model needs.
///
/// Multi-packet messages use `First`/`Middle`/`Last` segmentation exactly like
/// the real BTH opcodes; single-packet messages use `Only`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Opcode {
    /// RC Send fragment. `position` tells reassembly where it falls.
    RcSend { position: Position },
    /// RC RDMA Write fragment (no receive WQE consumed unless `imm`).
    RcWrite { position: Position },
    /// RC RDMA Read request; `len` to read is in `msg_len`.
    RcReadRequest,
    /// RC RDMA Read response fragment streamed by the responder.
    RcReadResponse { position: Position },
    /// RC acknowledgement for every byte of message `msg_id`.
    RcAck,
    /// Single-packet unreliable datagram.
    UdSend,
}

/// Position of a fragment within its message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Position {
    /// The only packet of a single-packet message.
    Only,
    /// First of several.
    First,
    /// Interior packet.
    Middle,
    /// Final packet — triggers reassembly completion and (RC) the ACK.
    Last,
}

impl Position {
    /// Whether this fragment completes its message.
    pub fn is_last(self) -> bool {
        matches!(self, Position::Only | Position::Last)
    }
    /// Whether this fragment starts a message.
    pub fn is_first(self) -> bool {
        matches!(self, Position::Only | Position::First)
    }

    /// Compute the position for fragment `idx` out of `count`.
    pub fn of(idx: u32, count: u32) -> Position {
        match (idx, count) {
            (_, 1) => Position::Only,
            (0, _) => Position::First,
            (i, c) if i + 1 == c => Position::Last,
            _ => Position::Middle,
        }
    }
}

/// A packet in flight on the fabric.
///
/// Payload contents are not simulated — only sizes — except for the optional
/// inline `data`: an integrity payload or ULP headers (see
/// [`Packet::data`]). The struct is plain value data (the only heap
/// reference is the optional `data` Arc), so the engine moves it through its
/// event pool without any allocation. It is 112 bytes, so a stream entry
/// with its 16-byte key fills 128.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Destination port LID (what switches route on).
    pub dst_lid: Lid,
    /// Source port LID.
    pub src_lid: Lid,
    /// Destination QP number.
    pub dst_qpn: Qpn,
    /// Source QP number.
    pub src_qpn: Qpn,
    /// Transport opcode.
    pub opcode: Opcode,
    /// Packet sequence number within the sending QP.
    pub psn: u32,
    /// Payload bytes carried by this fragment.
    pub payload: u32,
    /// Identity of the message this fragment belongs to (sender-assigned).
    pub msg_id: u64,
    /// Total length of the message this fragment belongs to.
    pub msg_len: u32,
    /// Byte offset of this fragment within its message.
    pub offset: u32,
    /// Immediate value / user tag delivered with the message (ULPs use this
    /// as a small header; `u64::MAX` means "none" for RDMA writes, which then
    /// complete silently at the responder).
    pub imm: u64,
    /// Number of back-to-back fragments this packet represents (≥ 1). A
    /// value above 1 makes this a *fragment train*: `count` equal-size
    /// fragments of one message with consecutive PSNs, travelling the wire
    /// as a single event. `psn`, `offset`, `payload`, and `opcode` describe
    /// the head fragment; every member carries `payload` bytes, so fragment
    /// `k` of a message sits at `offset + k * payload`. [`Packet::frag`]
    /// materializes any member.
    pub count: u32,
    /// Inter-fragment arrival spacing of the train at the current hop, in
    /// nanoseconds: fragment `k` arrives `k * gap_ns` after the head. Each
    /// hop rewrites it to its own egress spacing. `0` for single fragments
    /// (and for a train whose members all arrive at one instant, which only
    /// happens before first serialization).
    pub gap_ns: u64,
    /// Number of consecutive *whole messages* this train spans (≥ 1, and
    /// always dividing `count`). `1` is the ordinary case: all fragments
    /// belong to the message at `msg_id`. A value above 1 makes this a
    /// **super-train** of `msgs` equal-length back-to-back messages
    /// (`count / msgs` fragments each, consecutive `msg_id`s and PSNs):
    /// a burst of whole-message silent RDMA writes, RC sends or UD
    /// datagrams (`count == msgs`) on the forward path, or a cumulative-ACK
    /// run (`count == msgs`, one header-only packet per message) on the
    /// control return path.
    pub msgs: u32,
    /// Arrival spacing between consecutive *message heads* of a super-train
    /// at the current hop, in nanoseconds. With `f = count / msgs`,
    /// fragment `k` arrives `(k / f) * msg_gap_ns + (k % f) * gap_ns` after
    /// the head — a two-level pattern (intra-message fragments at `gap_ns`
    /// inside message slots spaced `msg_gap_ns`). `0` when `msgs == 1`.
    pub msg_gap_ns: u64,
    /// Length of each ULP header `data` holds, or `0` when `data` is an
    /// integrity payload or absent. Sits in padding: `Packet` stays 112
    /// bytes.
    pub hdr_len: u32,
    /// Optional inline bytes, one of two kinds, told apart by `hdr_len`:
    /// - `hdr_len == 0`: an integrity payload, the fragments' own bytes. A
    ///   train carries all its members' (`count * payload` bytes), sliced
    ///   per member by [`Packet::frag`] and never merged into a super-train.
    /// - `hdr_len > 0`: the ULP headers (`SendWr::with_meta`) of the
    ///   messages whose `Last` fragment this packet carries, `msgs` headers
    ///   of `hdr_len` bytes each, concatenated in member order. A packet
    ///   that carries no `Last` fragment carries no header.
    pub data: Option<Bytes>,
}

impl Packet {
    /// Total wire size of one fragment (payload + per-transport overhead).
    /// For a train this is the per-member size; see
    /// [`Packet::train_wire_bytes`] for the whole train.
    pub fn wire_bytes(&self) -> u64 {
        let header = match self.opcode {
            Opcode::RcSend { .. } | Opcode::RcWrite { .. } | Opcode::RcReadResponse { .. } => {
                RC_HEADER_BYTES
            }
            Opcode::RcAck => ACK_BYTES,
            Opcode::RcReadRequest => READ_REQ_BYTES,
            Opcode::UdSend => UD_HEADER_BYTES,
        };
        header + self.payload as u64
    }

    /// Wire bytes of the entire train (all `count` members).
    pub fn train_wire_bytes(&self) -> u64 {
        self.count as u64 * self.wire_bytes()
    }

    /// True when this packet carries more than one fragment.
    pub fn is_train(&self) -> bool {
        self.count > 1
    }

    /// Fragments per message: `count / msgs` for a super-train, the whole
    /// `count` otherwise.
    pub fn frags_per_msg(&self) -> u32 {
        if self.msgs > 1 {
            self.count / self.msgs
        } else {
            self.count
        }
    }

    /// Arrival offset of train member `k` relative to the head, in
    /// nanoseconds — the two-level closed form
    /// `(k / f) * msg_gap_ns + (k % f) * gap_ns`. Reduces to `k * gap_ns`
    /// for ordinary (`msgs == 1`) trains.
    pub fn member_arrival_offset_ns(&self, k: u32) -> u64 {
        if self.msgs <= 1 {
            return k as u64 * self.gap_ns;
        }
        let f = self.frags_per_msg();
        (k / f) as u64 * self.msg_gap_ns + (k % f) as u64 * self.gap_ns
    }

    /// Arrival offset of the train's final member relative to the head.
    pub fn train_tail_offset_ns(&self) -> u64 {
        if self.count <= 1 {
            0
        } else {
            self.member_arrival_offset_ns(self.count - 1)
        }
    }

    /// Message bytes covered by the train within **one** message
    /// (`frags_per_msg * payload`); for a super-train every spanned message
    /// is covered by the same pattern.
    pub fn train_payload_bytes(&self) -> u32 {
        self.frags_per_msg() * self.payload
    }

    /// Whether the train's tail fragment completes its message (for a
    /// super-train: whether each spanned message is complete, which the
    /// super-train invariants guarantee for all of them at once).
    pub fn tail_is_last(&self) -> bool {
        self.offset + self.train_payload_bytes() >= self.msg_len
    }

    /// The [`Position`] of the fragment at `offset` within a message of
    /// `msg_len` bytes carrying `payload` bytes.
    fn position_at(offset: u32, payload: u32, msg_len: u32) -> Position {
        let first = offset == 0;
        let last = offset + payload >= msg_len;
        match (first, last) {
            (true, true) => Position::Only,
            (true, false) => Position::First,
            (false, true) => Position::Last,
            (false, false) => Position::Middle,
        }
    }

    /// Materialize member `k` of a train as a standalone single-fragment
    /// packet — PSN, offset, position, and (for integrity payloads) the data
    /// slice are exactly what the per-fragment path would have produced.
    /// Used by hops that must de-coalesce (credited links, a backlog that
    /// drains mid-train).
    ///
    /// # Panics
    /// Debug-asserts `k < count`.
    pub fn frag(&self, k: u32) -> Packet {
        debug_assert!(
            k < self.count,
            "fragment {k} out of train of {}",
            self.count
        );
        if self.count == 1 {
            return self.clone();
        }
        let f = self.frags_per_msg();
        let (msg_idx, frag_idx) = (k / f, k % f);
        let offset = self.offset + frag_idx * self.payload;
        let position = Self::position_at(offset, self.payload, self.msg_len);
        let opcode = match self.opcode {
            Opcode::RcSend { .. } => Opcode::RcSend { position },
            Opcode::RcWrite { .. } => Opcode::RcWrite { position },
            Opcode::RcReadResponse { .. } => Opcode::RcReadResponse { position },
            other => other, // control opcodes (ACK runs) keep their shape
        };
        // Control packets all carry the same PSN (ACKs are cumulative, PSN
        // 0); data fragments advance it — consecutive across the spanned
        // messages, exactly as the per-message emit path assigned them.
        let psn = if matches!(self.opcode, Opcode::RcAck) {
            self.psn
        } else {
            self.psn.wrapping_add(k)
        };
        // A header rides only with its message's `Last` fragment; an
        // integrity payload is sliced per member.
        let (data, hdr_len) = if self.hdr_len == 0 {
            let data = self.data.as_ref().map(|d| {
                debug_assert_eq!(
                    d.len(),
                    (self.count * self.payload) as usize,
                    "train data must cover every member"
                );
                d.slice((k * self.payload) as usize..((k + 1) * self.payload) as usize)
            });
            (data, 0)
        } else if position.is_last() {
            (self.headers(msg_idx, 1), self.hdr_len)
        } else {
            (None, 0)
        };
        Packet {
            opcode,
            psn,
            msg_id: self.msg_id + msg_idx as u64,
            offset,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len,
            data,
            ..*self
        }
    }

    /// The headers of messages `m0 .. m0 + n`, when `data` holds headers
    /// (`hdr_len > 0`); `None` otherwise.
    fn headers(&self, m0: u32, n: u32) -> Option<Bytes> {
        if self.hdr_len == 0 {
            return None;
        }
        let h = self.hdr_len as usize;
        let d = self.data.as_ref().expect("hdr_len > 0: data holds headers");
        Some(d.slice(m0 as usize * h..(m0 + n) as usize * h))
    }

    /// Materialize message `m` of a super-train as a standalone
    /// single-message train (or single packet when each message is one
    /// fragment) — the packet the forward path would have carried had the
    /// messages not been merged. Member spacing keeps the intra-message
    /// `gap_ns`.
    ///
    /// # Panics
    /// Debug-asserts `m < msgs`.
    pub fn msg_train(&self, m: u32) -> Packet {
        debug_assert!(
            m < self.msgs,
            "message {m} out of super-train of {}",
            self.msgs
        );
        if self.msgs == 1 {
            return self.clone();
        }
        let f = self.frags_per_msg();
        let mut p = Packet {
            psn: if matches!(self.opcode, Opcode::RcAck) {
                self.psn
            } else {
                self.psn.wrapping_add(m * f)
            },
            msg_id: self.msg_id + m as u64,
            count: f,
            msgs: 1,
            msg_gap_ns: 0,
            data: self.headers(m, 1),
            ..*self
        };
        if f == 1 {
            p.gap_ns = 0;
        }
        p
    }

    /// Materialize messages `m0 .. m0 + n` of a super-train as a standalone
    /// (possibly still two-level) train on the same spacing grid. With
    /// `n == 1` this reduces to [`Packet::msg_train`]. Used by links that
    /// cannot carry the whole run as one reservation but can carry contiguous
    /// segments of it (a backlog draining mid-run splits the departure
    /// pattern into uniform pieces).
    ///
    /// # Panics
    /// Debug-asserts `n >= 1` and `m0 + n <= msgs`.
    pub fn msg_slice(&self, m0: u32, n: u32) -> Packet {
        debug_assert!(n >= 1, "empty super-train slice");
        debug_assert!(
            m0 + n <= self.msgs,
            "slice {m0}+{n} out of super-train of {}",
            self.msgs
        );
        if n == 1 {
            return self.msg_train(m0);
        }
        if m0 == 0 && n == self.msgs {
            return self.clone();
        }
        let f = self.frags_per_msg();
        Packet {
            psn: if matches!(self.opcode, Opcode::RcAck) {
                self.psn
            } else {
                self.psn.wrapping_add(m0 * f)
            },
            msg_id: self.msg_id + m0 as u64,
            count: n * f,
            msgs: n,
            data: self.headers(m0, n),
            ..*self
        }
    }

    /// Debug-mode validation of the train invariants (equal-size members,
    /// sane data coverage, super-train shape). Accepts exactly the shapes the
    /// HCA forms: fragment trains of RC data, whole-message super-trains of
    /// RC writes, RC sends and UD datagrams, and cumulative-ACK runs, each
    /// with or without its members' headers. Cheap no-op in release builds.
    pub fn debug_validate_train(&self) {
        debug_assert!(self.count >= 1, "packet must carry at least one fragment");
        debug_assert!(self.msgs >= 1, "packet must span at least one message");
        debug_assert!(
            self.count.is_multiple_of(self.msgs),
            "super-train messages are equal-length"
        );
        if self.hdr_len > 0 {
            debug_assert!(self.tail_is_last(), "headers ride with Last fragments");
            debug_assert_eq!(
                self.data.as_ref().map(|d| d.len()),
                Some(self.msgs as usize * self.hdr_len as usize),
                "the header buffer covers every member"
            );
        }
        if self.msgs > 1 {
            // Super-trains span only *whole* back-to-back messages: every
            // member message starts at offset 0 and is fully covered.
            debug_assert_eq!(self.offset, 0, "super-train messages are whole");
            debug_assert!(
                self.data.is_none() || self.hdr_len > 0,
                "super-trains never carry integrity payloads"
            );
            match self.opcode {
                Opcode::RcAck => {
                    debug_assert_eq!(self.count, self.msgs, "ACK runs are one packet per message");
                    debug_assert_eq!(self.payload, 0, "ACKs are header-only");
                }
                Opcode::UdSend => {
                    debug_assert_eq!(self.count, self.msgs, "a datagram is one packet");
                    debug_assert_eq!(self.payload, self.msg_len, "a datagram is its message");
                }
                Opcode::RcWrite { .. } | Opcode::RcSend { .. } => {
                    debug_assert!(
                        !matches!(self.opcode, Opcode::RcWrite { .. }) || self.imm == u64::MAX,
                        "write super-trains are silent"
                    );
                    debug_assert!(self.tail_is_last(), "super-train messages are complete");
                }
                _ => debug_assert!(
                    false,
                    "only RC write, RC send and UD datagram runs and ACK runs form super-trains"
                ),
            }
        }
        if self.count > 1 && !matches!(self.opcode, Opcode::RcAck) {
            // Zero-byte messages are legal: a run of them merges with
            // `payload == 0`, one packet per message.
            debug_assert!(
                self.payload > 0 || self.frags_per_msg() == 1,
                "fragments of one message carry payload"
            );
            debug_assert!(
                self.offset + self.train_payload_bytes() <= self.msg_len,
                "train overruns its message"
            );
            debug_assert!(
                matches!(
                    self.opcode,
                    Opcode::RcSend { .. } | Opcode::RcWrite { .. } | Opcode::RcReadResponse { .. }
                ) || (self.opcode == Opcode::UdSend && self.msgs > 1),
                "only data fragments and datagram runs form trains"
            );
            if let Some(d) = self.data.as_ref().filter(|_| self.hdr_len == 0) {
                debug_assert_eq!(d.len(), (self.count * self.payload) as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(opcode: Opcode, payload: u32) -> Packet {
        Packet {
            dst_lid: Lid(2),
            src_lid: Lid(1),
            dst_qpn: Qpn(1),
            src_qpn: Qpn(1),
            opcode,
            psn: 0,
            payload,
            msg_id: 0,
            msg_len: payload,
            offset: 0,
            imm: 0,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        }
    }

    #[test]
    fn positions() {
        assert_eq!(Position::of(0, 1), Position::Only);
        assert_eq!(Position::of(0, 3), Position::First);
        assert_eq!(Position::of(1, 3), Position::Middle);
        assert_eq!(Position::of(2, 3), Position::Last);
        assert!(Position::Only.is_last() && Position::Only.is_first());
        assert!(Position::Last.is_last() && !Position::Last.is_first());
        assert!(!Position::Middle.is_last() && !Position::Middle.is_first());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(
            pkt(
                Opcode::RcSend {
                    position: Position::Only
                },
                2048
            )
            .wire_bytes(),
            2048 + RC_HEADER_BYTES
        );
        assert_eq!(
            pkt(Opcode::UdSend, 2048).wire_bytes(),
            2048 + UD_HEADER_BYTES
        );
        assert_eq!(pkt(Opcode::RcAck, 0).wire_bytes(), ACK_BYTES);
        assert_eq!(pkt(Opcode::RcReadRequest, 0).wire_bytes(), READ_REQ_BYTES);
    }

    #[test]
    fn lid_display() {
        assert_eq!(format!("{}", Lid(7)), "7");
        assert_eq!(format!("{:?}", Lid(7)), "lid7");
        assert_eq!(format!("{:?}", Qpn(3)), "qp3");
    }

    /// A 3-member train of 2048-byte fragments at the head of an 8000-byte
    /// message, starting from PSN 10.
    fn train() -> Packet {
        Packet {
            opcode: Opcode::RcSend {
                position: Position::First,
            },
            psn: 10,
            payload: 2048,
            msg_len: 8000,
            count: 3,
            gap_ns: 2090,
            ..pkt(
                Opcode::RcSend {
                    position: Position::First,
                },
                2048,
            )
        }
    }

    #[test]
    fn train_accessors() {
        let t = train();
        t.debug_validate_train();
        assert!(t.is_train());
        assert_eq!(t.train_payload_bytes(), 6144);
        assert!(!t.tail_is_last()); // 6144 < 8000: a short tail follows
        assert_eq!(t.train_wire_bytes(), 3 * (2048 + RC_HEADER_BYTES));
        let single = pkt(Opcode::RcAck, 0);
        assert!(!single.is_train());
        assert!(single.tail_is_last()); // 0-byte message: its only packet
        assert_eq!(single.train_payload_bytes(), 0);
    }

    #[test]
    fn frag_reproduces_the_per_fragment_packets() {
        let t = train();
        for k in 0..3 {
            let f = t.frag(k);
            assert_eq!(f.count, 1);
            assert_eq!(f.gap_ns, 0);
            assert_eq!(f.psn, 10 + k);
            assert_eq!(f.offset, k * 2048);
            assert_eq!(f.payload, 2048);
            let expect = if k == 0 {
                Position::First
            } else {
                Position::Middle // 8000-byte message: none of the 3 is Last
            };
            assert_eq!(f.opcode, Opcode::RcSend { position: expect });
        }
    }

    #[test]
    fn frag_of_a_whole_message_train_ends_with_last() {
        let mut t = train();
        t.msg_len = 6144; // exact multiple: train covers the whole message
        assert!(t.tail_is_last());
        assert_eq!(
            t.frag(2).opcode,
            Opcode::RcSend {
                position: Position::Last
            }
        );
        assert_eq!(
            t.frag(0).opcode,
            Opcode::RcSend {
                position: Position::First
            }
        );
    }

    #[test]
    fn frag_slices_integrity_data() {
        let mut t = train();
        let bytes: Bytes = (0..6144u32)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        t.data = Some(bytes.clone());
        t.debug_validate_train();
        let f1 = t.frag(1);
        assert_eq!(f1.data.as_deref(), Some(&bytes[2048..4096]));
    }

    #[test]
    fn frag_of_a_single_packet_is_identity() {
        let p = pkt(Opcode::UdSend, 512);
        let f = p.frag(0);
        assert_eq!(f.psn, p.psn);
        assert_eq!(f.payload, 512);
        assert_eq!(f.opcode, Opcode::UdSend);
    }

    /// A super-train of 4 back-to-back whole 4096-byte silent writes, 2
    /// fragments each: the fig13a steady-state forward-path shape.
    fn super_train() -> Packet {
        Packet {
            opcode: Opcode::RcWrite {
                position: Position::First,
            },
            psn: 100,
            payload: 2048,
            msg_id: 7,
            msg_len: 4096,
            imm: u64::MAX,
            count: 8,
            gap_ns: 1045,
            msgs: 4,
            msg_gap_ns: 4180,
            ..pkt(
                Opcode::RcWrite {
                    position: Position::First,
                },
                2048,
            )
        }
    }

    #[test]
    fn super_train_two_level_arrival_offsets() {
        let t = super_train();
        t.debug_validate_train();
        assert_eq!(t.frags_per_msg(), 2);
        // Member k = (msg_idx, frag_idx): offset = msg_idx*4180 + frag_idx*1045.
        assert_eq!(t.member_arrival_offset_ns(0), 0);
        assert_eq!(t.member_arrival_offset_ns(1), 1045);
        assert_eq!(t.member_arrival_offset_ns(2), 4180);
        assert_eq!(t.member_arrival_offset_ns(3), 5225);
        assert_eq!(t.train_tail_offset_ns(), 3 * 4180 + 1045);
        // An ordinary train reduces to k * gap_ns.
        assert_eq!(train().member_arrival_offset_ns(2), 2 * 2090);
        assert_eq!(train().train_tail_offset_ns(), 2 * 2090);
    }

    #[test]
    fn super_train_frag_walks_messages_and_fragments() {
        let t = super_train();
        for k in 0..8u32 {
            let f = t.frag(k);
            assert_eq!(f.count, 1);
            assert_eq!(f.msgs, 1);
            assert_eq!(f.msg_id, 7 + (k / 2) as u64);
            assert_eq!(f.psn, 100 + k);
            assert_eq!(f.offset, (k % 2) * 2048);
            let expect = if k % 2 == 0 {
                Position::First
            } else {
                Position::Last
            };
            assert_eq!(f.opcode, Opcode::RcWrite { position: expect });
        }
    }

    #[test]
    fn super_train_msg_train_reproduces_the_per_message_trains() {
        let t = super_train();
        for m in 0..4u32 {
            let p = t.msg_train(m);
            p.debug_validate_train();
            assert_eq!(p.count, 2);
            assert_eq!(p.msgs, 1);
            assert_eq!(p.msg_id, 7 + m as u64);
            assert_eq!(p.psn, 100 + 2 * m);
            assert_eq!(p.gap_ns, 1045, "intra-message spacing survives");
            assert_eq!(p.msg_gap_ns, 0);
            assert!(p.tail_is_last());
        }
    }

    /// A run of `msgs` whole single-fragment messages of `len` bytes, shaped
    /// as the HCA merges them.
    fn message_run(opcode: Opcode, len: u32, msgs: u32) -> Packet {
        Packet {
            psn: 30,
            msg_id: 9,
            msg_len: len,
            count: msgs,
            msgs,
            msg_gap_ns: 1059,
            ..pkt(opcode, len)
        }
    }

    #[test]
    fn send_and_datagram_runs_validate() {
        // The `ib_send_bw` shapes: whole RC sends and UD datagrams, one
        // packet per message, including zero-byte messages.
        let send = Opcode::RcSend {
            position: Position::Only,
        };
        for len in [1024, 0] {
            for t in [
                message_run(send, len, 4),
                message_run(Opcode::UdSend, len, 4),
            ] {
                t.debug_validate_train();
                for m in 0..4 {
                    let p = t.msg_train(m);
                    p.debug_validate_train();
                    assert_eq!((p.count, p.payload), (1, len));
                    assert_eq!((p.psn, p.msg_id), (30 + m, 9 + m as u64));
                }
            }
        }
    }

    // The validator is made of debug assertions, so it only bites there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "form super-trains")]
    fn read_response_runs_are_not_a_super_train_shape() {
        let position = Position::Only;
        message_run(Opcode::RcReadResponse { position }, 1024, 4).debug_validate_train();
    }

    #[test]
    fn ack_run_members_keep_psn_zero() {
        let t = Packet {
            opcode: Opcode::RcAck,
            psn: 0,
            payload: 0,
            msg_id: 40,
            msg_len: 0,
            imm: u64::MAX,
            count: 5,
            gap_ns: 0,
            msgs: 5,
            msg_gap_ns: 4180,
            ..pkt(Opcode::RcAck, 0)
        };
        t.debug_validate_train();
        assert_eq!(t.frags_per_msg(), 1);
        assert_eq!(t.member_arrival_offset_ns(3), 3 * 4180);
        for k in 0..5u32 {
            let f = t.frag(k);
            assert_eq!(f.opcode, Opcode::RcAck);
            assert_eq!(f.psn, 0, "cumulative ACKs all carry PSN 0");
            assert_eq!(f.msg_id, 40 + k as u64);
            assert_eq!(f.count, 1);
            assert_eq!(f.msgs, 1);
            // msg_train of a one-fragment message is the same packet.
            assert_eq!(t.msg_train(k).msg_id, f.msg_id);
            assert_eq!(t.msg_train(k).count, 1);
        }
        assert_eq!(t.train_wire_bytes(), 5 * ACK_BYTES);
    }

    #[test]
    fn a_packet_is_112_bytes() {
        // The header length sits in padding; a stream entry (16-byte key
        // plus packet) stays 128 bytes.
        assert_eq!(std::mem::size_of::<Packet>(), 112);
    }

    /// `n` distinct 24-byte headers, header `m` filled with byte `m + 1`.
    fn headers(n: u32) -> Bytes {
        (0..n)
            .flat_map(|m| [m as u8 + 1; 24])
            .collect::<Vec<_>>()
            .into()
    }

    /// `msgs` whole 3-fragment RC sends of 6144 bytes, each with its
    /// 24-byte header: a headered send super-train.
    fn headered_super_train(msgs: u32) -> Packet {
        Packet {
            count: 3 * msgs,
            msgs,
            msg_len: 6144,
            msg_gap_ns: 7000,
            hdr_len: 24,
            data: Some(headers(msgs)),
            ..train()
        }
    }

    #[test]
    fn members_carry_exactly_their_own_headers() {
        let t = headered_super_train(4);
        t.debug_validate_train();
        let all = headers(4);
        let header = |m: usize| &all[m * 24..(m + 1) * 24];
        for k in 0..12 {
            let f = t.frag(k);
            f.debug_validate_train();
            if k % 3 == 2 {
                assert_eq!(
                    f.opcode,
                    Opcode::RcSend {
                        position: Position::Last
                    }
                );
                assert_eq!(f.data.as_deref(), Some(header(k as usize / 3)));
                assert_eq!(f.hdr_len, 24);
            } else {
                assert_eq!((f.data, f.hdr_len), (None, 0), "member {k} is no Last");
            }
        }
        for m in 0..4 {
            let p = t.msg_train(m);
            p.debug_validate_train();
            assert_eq!(p.data.as_deref(), Some(header(m as usize)));
            // The message's own train hands its header to its Last only.
            assert_eq!(p.frag(2).data.as_deref(), Some(header(m as usize)));
            assert_eq!(p.frag(1).data, None);
        }
        let s = t.msg_slice(1, 2);
        s.debug_validate_train();
        assert_eq!(s.data.as_deref(), Some(&all[24..72]));
        assert_eq!(s.msg_train(1).data.as_deref(), Some(header(2)));
    }

    #[test]
    fn datagram_runs_hand_out_their_headers() {
        let t = Packet {
            hdr_len: 24,
            data: Some(headers(5)),
            ..message_run(Opcode::UdSend, 1996, 5)
        };
        t.debug_validate_train();
        for m in 0..5 {
            let expect = Some(vec![m as u8 + 1; 24]);
            assert_eq!(t.frag(m).data.map(|d| d.to_vec()), expect);
            assert_eq!(t.msg_train(m).data.map(|d| d.to_vec()), expect);
        }
    }

    #[test]
    fn a_header_train_ending_in_last_carries_one_header() {
        let mut t = train();
        t.msg_len = 6144;
        t.hdr_len = 24;
        t.data = Some(headers(1));
        t.debug_validate_train();
        assert_eq!(t.frag(2).data, t.data);
        assert_eq!((t.frag(0).data, t.frag(1).data), (None, None));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "header buffer covers every member")]
    fn a_header_buffer_short_of_its_members_is_rejected() {
        let mut t = headered_super_train(4);
        t.data = Some(headers(3));
        t.debug_validate_train();
    }

    #[test]
    fn header_calibration_matches_paper_peaks() {
        // SDR carries 1000 MB/s of wire bytes; goodput = payload fraction.
        let rc_goodput = 1000.0 * 2048.0 / (2048.0 + RC_HEADER_BYTES as f64);
        let ud_goodput = 1000.0 * 2048.0 / (2048.0 + UD_HEADER_BYTES as f64);
        assert!((rc_goodput - 980.0).abs() < 2.0, "rc {rc_goodput}");
        assert!((ud_goodput - 967.0).abs() < 2.0, "ud {ud_goodput}");
    }
}
