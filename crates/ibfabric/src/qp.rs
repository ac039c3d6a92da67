//! Queue-pair state machines for the RC and UD transports.
//!
//! A [`Qp`] is pure protocol logic: it consumes posted work requests and
//! incoming packets, and produces outgoing packets plus completions into a
//! [`QpOutput`]. All timing (host posting overhead, port serialization,
//! completion latency) is applied by [`crate::hca::HcaCore`], which drives
//! these state machines.
//!
//! ## RC windowing — the paper's key mechanism
//!
//! RC guarantees reliable in-order delivery with ACKs, which bounds how much
//! data a QP can keep un-acknowledged "in the pipe". The model enforces
//! [`QpConfig::max_inflight_msgs`] (default 16).
//! Over a WAN with round-trip time `RTT`, a stream of `S`-byte messages can
//! therefore sustain at most `max_inflight_msgs * S / RTT` — exactly the
//! medium-message bandwidth collapse of Figure 5 of the paper, and the reason
//! large messages (or message coalescing) recover WAN bandwidth. UD has no
//! ACKs, so its bandwidth is delay-independent (Figure 4).

use crate::packet::{Opcode, Packet, Position};
use crate::types::{Lid, DEFAULT_MTU};
use crate::verbs::{Completion, RecvWr, SendKind, SendWr};
#[cfg(test)]
use bytes::Bytes;
use bytes::BytesMut;
use simcore::Dur;
use std::collections::VecDeque;

pub use ibwire::Qpn;

/// RC: maximum outstanding RDMA reads (IB "initiator depth"). UD never
/// reads.
const MAX_OUTSTANDING_READS: usize = 4;

/// Queue-pair state, following the verbs connection state machine
/// (`ibv_modify_qp`): receives may be posted from `Init`, packets are
/// accepted from `Rtr`, and sends may be posted only in `Rts`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QpState {
    /// Freshly created (RC starts here).
    Init,
    /// Ready to receive: the remote peer is known.
    Rtr,
    /// Ready to send (UD QPs start here; no connection needed).
    Rts,
}

/// IB transport service type.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransportType {
    /// Reliable Connected: ordered, ACKed, windowed, messages up to 2 GB.
    Rc,
    /// Unreliable Datagram: single-MTU messages, no ACKs, no connection.
    Ud,
}

/// Static QP parameters.
#[derive(Copy, Clone, Debug)]
pub struct QpConfig {
    /// Transport service.
    pub transport: TransportType,
    /// RC: maximum outstanding (un-ACKed) messages. The paper's testbed
    /// behaviour calibrates to 16.
    pub max_inflight_msgs: usize,
    /// Deliver [`Completion::WriteArrived`] for silent RDMA writes (models a
    /// memory-polling receiver, as `rdma_lat` uses).
    pub notify_silent_writes: bool,
    /// RC retransmission timeout: if no ACK progress happens within this
    /// span, all un-ACKed messages are retransmitted (go-back-N). Must
    /// exceed the worst-case RTT of the deployment (IB encodes this as the
    /// "local ACK timeout"; 2000 km of fiber needs > 20 ms).
    pub rto: Dur,
}

impl QpConfig {
    /// RC QP with the calibrated defaults (2 KB MTU, 16-message window).
    pub const fn rc() -> Self {
        QpConfig {
            transport: TransportType::Rc,
            max_inflight_msgs: 16,
            notify_silent_writes: false,
            rto: Dur::from_ms(60),
        }
    }

    /// UD QP with 2 KB MTU.
    pub const fn ud() -> Self {
        QpConfig {
            transport: TransportType::Ud,
            max_inflight_msgs: usize::MAX,
            notify_silent_writes: false,
            rto: Dur::from_ms(60),
        }
    }

    /// Override the RC message window.
    pub fn with_window(mut self, msgs: usize) -> Self {
        self.max_inflight_msgs = msgs;
        self
    }

    /// Enable [`Completion::WriteArrived`] notifications for silent writes.
    pub fn with_write_notify(mut self) -> Self {
        self.notify_silent_writes = true;
        self
    }
}

/// Outputs produced by driving a QP state machine.
#[derive(Default)]
pub struct QpOutput {
    /// Packets to place on the wire, in order.
    pub packets: Vec<Packet>,
    /// Completions to deliver to the ULP, in order.
    pub completions: Vec<Completion>,
    /// Completions that become valid only once the emitted packets have
    /// finished serializing onto the wire (UD send completions: the HCA
    /// signals when the datagram's DMA is done, i.e. at wire-out).
    pub tx_completions: Vec<Completion>,
    /// The HCA must (re-)arm this QP's retransmission timer.
    pub arm_retransmit: bool,
    /// The send pipeline quiesced (nothing un-ACKed remains): the HCA
    /// clears the retransmission deadline, so the timer event already
    /// queued pops as a no-op (see [`crate::slab`]).
    pub disarm_retransmit: bool,
}

impl QpOutput {
    /// Clear for reuse, keeping the vectors' capacity. The HCA drives every
    /// QP through one recycled scratch output so steady-state packet
    /// processing performs no per-packet heap allocation.
    pub fn reset(&mut self) {
        self.packets.clear();
        self.completions.clear();
        self.tx_completions.clear();
        self.arm_retransmit = false;
        self.disarm_retransmit = false;
    }
}

/// A message being reassembled from its fragments.
struct Assembly {
    msg_id: u64,
    msg_len: u32,
    imm: u64,
    src: (Lid, Qpn),
    consumes_recv: bool,
    data: BytesMut,
    /// Bytes assembled so far: the offset the next fragment must start at.
    received: u32,
    /// A fragment was lost mid-message: ignore the rest until the
    /// retransmitted `First` fragment restarts the assembly.
    poisoned: bool,
}

impl Assembly {
    fn new(head: &Packet, consumes_recv: bool) -> Self {
        Assembly {
            msg_id: head.msg_id,
            msg_len: head.msg_len,
            imm: head.imm,
            src: (head.src_lid, head.src_qpn),
            consumes_recv,
            data: BytesMut::new(),
            received: 0,
            poisoned: false,
        }
    }

    /// Extend the assembly in `slot` by `pkt`'s `count` contiguous
    /// fragments. A packet at offset 0 (re)starts it, so a retransmitted
    /// `First` heals a poisoned assembly; a packet anywhere but the next
    /// expected offset poisons it. Returns `false` when the fragments are
    /// dropped: with no assembly (its `First` was lost), or a poisoned or
    /// mismatched one. A train's members are contiguous, so they all share
    /// their head's fate, exactly as `count` single fragments would.
    fn extend(slot: &mut Option<Assembly>, pkt: &Packet, consumes_recv: bool) -> bool {
        if pkt.offset == 0 {
            *slot = Some(Assembly::new(pkt, consumes_recv));
        }
        let Some(asm) = slot else {
            return false;
        };
        if asm.poisoned || asm.msg_id != pkt.msg_id || asm.received != pkt.offset {
            asm.poisoned = true;
            return false;
        }
        asm.received += pkt.train_payload_bytes();
        if let Some(d) = &pkt.data {
            asm.data.extend_from_slice(d);
        }
        true
    }
}

struct InflightSend {
    msg_id: u64,
    wr: SendWr,
}

/// A queue pair: send/receive queues plus transport state.
pub struct Qp {
    qpn: Qpn,
    cfg: QpConfig,
    state: QpState,
    local_lid: Lid,
    remote: Option<(Lid, Qpn)>,
    // --- sender state ---
    sq: VecDeque<SendWr>,
    inflight: VecDeque<InflightSend>,
    inflight_reads: VecDeque<InflightSend>,
    next_send_msg_id: u64,
    next_read_msg_id: u64,
    next_ud_msg_id: u64,
    next_psn: u32,
    /// Monotonic counter of ACK progress (retransmit-timer bookkeeping).
    progress_seq: u64,
    last_fire_progress: u64,
    timer_armed: bool,
    retransmit_rounds: u64,
    /// Emit fragment trains (see [`Packet::count`]). Off by default so the
    /// raw state machine is per-fragment; [`crate::hca::HcaCore`] turns it on
    /// when the surrounding fabric can carry trains exactly.
    coalesce: bool,
    // --- receiver state ---
    rq: VecDeque<RecvWr>,
    /// Next sender message id this receiver will accept (go-back-N).
    expected_msg_id: u64,
    assembling: Option<Assembly>,
    read_assembling: Option<Assembly>,
    rdma_bytes_received: u64,
    ud_dropped: u64,
    dup_fragments: u64,
    gap_drops: u64,
}

impl Qp {
    /// Create a QP owned by the port with `local_lid`.
    pub fn new(qpn: Qpn, cfg: QpConfig, local_lid: Lid) -> Self {
        let state = match cfg.transport {
            TransportType::Ud => QpState::Rts, // datagram QPs need no peer
            TransportType::Rc => QpState::Init,
        };
        Qp {
            qpn,
            cfg,
            state,
            local_lid,
            remote: None,
            sq: VecDeque::new(),
            inflight: VecDeque::new(),
            inflight_reads: VecDeque::new(),
            next_send_msg_id: 0,
            next_read_msg_id: 0,
            next_ud_msg_id: 0,
            next_psn: 0,
            progress_seq: 0,
            last_fire_progress: 0,
            timer_armed: false,
            retransmit_rounds: 0,
            coalesce: false,
            rq: VecDeque::new(),
            expected_msg_id: 0,
            assembling: None,
            read_assembling: None,
            rdma_bytes_received: 0,
            ud_dropped: 0,
            dup_fragments: 0,
            gap_drops: 0,
        }
    }

    /// QP number.
    pub fn qpn(&self) -> Qpn {
        self.qpn
    }
    /// Configuration.
    pub fn config(&self) -> &QpConfig {
        &self.cfg
    }
    /// Current connection state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// Transition Init → RTR: learn the remote peer; the QP may now accept
    /// incoming packets (`ibv_modify_qp` to `IBV_QPS_RTR`).
    pub fn modify_to_rtr(&mut self, remote: (Lid, Qpn)) {
        assert_eq!(self.cfg.transport, TransportType::Rc, "only RC connects");
        assert_eq!(self.state, QpState::Init, "RTR requires Init");
        assert_ne!(
            remote.0, self.local_lid,
            "a QP cannot connect to its own HCA"
        );
        self.remote = Some(remote);
        self.state = QpState::Rtr;
    }

    /// Transition RTR → RTS: the QP may now send (`IBV_QPS_RTS`).
    pub fn modify_to_rts(&mut self) {
        assert_eq!(self.state, QpState::Rtr, "RTS requires RTR");
        self.state = QpState::Rts;
    }

    /// Convenience: full Init → RTR → RTS transition (how every test and
    /// experiment brings up connections).
    pub fn connect(&mut self, remote: (Lid, Qpn)) {
        self.modify_to_rtr(remote);
        self.modify_to_rts();
    }
    /// Connected peer, if any.
    pub fn remote(&self) -> Option<(Lid, Qpn)> {
        self.remote
    }
    /// Bytes deposited by silent (no-immediate) RDMA writes.
    pub fn rdma_bytes_received(&self) -> u64 {
        self.rdma_bytes_received
    }
    /// UD datagrams dropped for lack of a posted receive.
    pub fn ud_dropped(&self) -> u64 {
        self.ud_dropped
    }
    /// Number of receive WQEs currently posted.
    pub fn posted_recvs(&self) -> usize {
        self.rq.len()
    }
    /// Send-queue depth not yet on the wire (excludes in-flight).
    pub fn pending_sends(&self) -> usize {
        self.sq.len()
    }
    /// Messages currently un-ACKed (RC).
    pub fn inflight_msgs(&self) -> usize {
        self.inflight.len() + self.inflight_reads.len()
    }
    /// Go-back-N retransmission rounds triggered on this QP.
    pub fn retransmit_rounds(&self) -> u64 {
        self.retransmit_rounds
    }
    /// Duplicate/stale fragments discarded by the receiver.
    pub fn dup_fragments(&self) -> u64 {
        self.dup_fragments
    }
    /// Fragments dropped because an earlier message/fragment was lost.
    pub fn gap_drops(&self) -> u64 {
        self.gap_drops
    }
    /// Enable or disable fragment-train emission on this QP.
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalesce = on;
    }

    /// Post a receive WQE.
    pub fn post_recv(&mut self, wr: RecvWr) {
        self.rq.push_back(wr);
    }

    /// Post a send-side work request; may immediately emit packets.
    ///
    /// # Panics
    /// Panics unless the QP is in [`QpState::Rts`].
    pub fn post_send(&mut self, wr: SendWr, out: &mut QpOutput) {
        assert_eq!(
            self.state,
            QpState::Rts,
            "post_send on {:?} requires RTS (connect the QP first)",
            self.qpn
        );
        match self.cfg.transport {
            TransportType::Ud => self.post_send_ud(wr, out),
            TransportType::Rc => {
                self.sq.push_back(wr);
                self.pump(out);
            }
        }
    }

    fn post_send_ud(&mut self, wr: SendWr, out: &mut QpOutput) {
        assert!(
            wr.len <= DEFAULT_MTU,
            "UD message of {} bytes exceeds MTU {DEFAULT_MTU}",
            wr.len
        );
        assert_eq!(wr.kind, SendKind::Send, "UD supports only Send");
        let dest = wr
            .ud_dest
            .or(self.remote)
            .expect("UD send requires a destination address");
        assert_ne!(
            dest.0, self.local_lid,
            "a UD datagram cannot address its own HCA"
        );
        let msg_id = self.next_ud_msg_id;
        self.next_ud_msg_id += 1;
        out.packets.push(Packet {
            dst_lid: dest.0,
            src_lid: self.local_lid,
            dst_qpn: dest.1,
            src_qpn: self.qpn,
            opcode: Opcode::UdSend,
            psn: self.bump_psn(),
            payload: wr.len,
            msg_id,
            msg_len: wr.len,
            offset: 0,
            imm: wr.imm,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: wr.header_len(),
            data: wr.data.clone(),
        });
        // UD completes when the datagram has left the port (DMA done).
        out.tx_completions.push(Completion::SendDone {
            qpn: self.qpn,
            wr_id: wr.wr_id,
            kind: SendKind::Send,
            len: wr.len,
        });
    }

    fn bump_psn(&mut self) -> u32 {
        let p = self.next_psn;
        self.next_psn = self.next_psn.wrapping_add(1);
        p
    }

    /// Start queued RC messages while the window allows.
    pub fn pump(&mut self, out: &mut QpOutput) {
        while let Some(front) = self.sq.front() {
            let is_read = front.kind == SendKind::RdmaRead;
            if is_read {
                if self.inflight_reads.len() >= MAX_OUTSTANDING_READS {
                    break;
                }
            } else if self.inflight.len() >= self.cfg.max_inflight_msgs.max(1) {
                break; // a window of 0 still lets one message through
            }
            let wr = self.sq.pop_front().unwrap();
            self.start_message(wr, out);
        }
    }

    fn start_message(&mut self, wr: SendWr, out: &mut QpOutput) {
        match wr.kind {
            SendKind::RdmaRead => {
                let msg_id = self.next_read_msg_id;
                self.next_read_msg_id += 1;
                self.emit_read_request(msg_id, wr.len, wr.imm, out);
                self.inflight_reads.push_back(InflightSend { msg_id, wr });
            }
            SendKind::Send | SendKind::RdmaWrite => {
                let msg_id = self.next_send_msg_id;
                self.next_send_msg_id += 1;
                let remote = self.remote.expect("RC QP not connected");
                self.emit_fragments(msg_id, &wr, remote, out);
                self.inflight.push_back(InflightSend { msg_id, wr });
            }
        }
        self.request_arm(out);
    }

    fn emit_read_request(&mut self, msg_id: u64, len: u32, imm: u64, out: &mut QpOutput) {
        let remote = self.remote.expect("RC QP not connected");
        out.packets.push(Packet {
            dst_lid: remote.0,
            src_lid: self.local_lid,
            dst_qpn: remote.1,
            src_qpn: self.qpn,
            opcode: Opcode::RcReadRequest,
            psn: self.bump_psn(),
            payload: 0,
            msg_id,
            msg_len: len,
            offset: 0,
            imm,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        });
    }

    fn request_arm(&mut self, out: &mut QpOutput) {
        if !self.timer_armed {
            self.timer_armed = true;
            out.arm_retransmit = true;
        }
    }

    /// Ask the HCA to disarm the retransmission timer once nothing un-ACKed
    /// remains (the window is empty, so `pump` has also drained the send
    /// queue).
    fn maybe_disarm(&mut self, out: &mut QpOutput) {
        if self.timer_armed && self.inflight.is_empty() && self.inflight_reads.is_empty() {
            self.timer_armed = false;
            out.disarm_retransmit = true;
        }
    }

    /// The retransmission timer fired. Retransmits every un-ACKed message
    /// (go-back-N) if no ACK progress happened since the last firing.
    pub fn on_retransmit_timer(&mut self, out: &mut QpOutput) {
        self.timer_armed = false;
        if self.inflight.is_empty() && self.inflight_reads.is_empty() {
            return; // quiesced; timer dies
        }
        if self.progress_seq > self.last_fire_progress {
            // Progress since arming: just re-arm.
            self.last_fire_progress = self.progress_seq;
            self.request_arm(out);
            return;
        }
        self.retransmit_rounds += 1;
        let remote = self.remote.expect("RC QP not connected");
        let resend: Vec<(u64, SendWr)> = self
            .inflight
            .iter()
            .map(|m| (m.msg_id, m.wr.clone()))
            .collect();
        for (msg_id, wr) in resend {
            self.emit_fragments(msg_id, &wr, remote, out);
        }
        let reads: Vec<(u64, u32, u64)> = self
            .inflight_reads
            .iter()
            .map(|m| (m.msg_id, m.wr.len, m.wr.imm))
            .collect();
        for (msg_id, len, imm) in reads {
            self.emit_read_request(msg_id, len, imm, out);
        }
        self.request_arm(out);
    }

    /// Segment message `msg_id` into MTU fragments with consecutive PSNs:
    /// Send or RDMA Write fragments, or, for an RDMA Read, the responder's
    /// read-response fragments. Under coalescing, the leading run of two or
    /// more full-MTU fragments leaves as one fragment *train* (a [`Packet`]
    /// with `count > 1`).
    ///
    /// Inline data rides in one of two modes (see [`Packet::data`]): when
    /// its length equals the message length it is the full payload, sliced
    /// per fragment (integrity tests); otherwise it is a ULP header (e.g. a
    /// TCP or RPC header) that rides whole with the packet carrying the
    /// `Last` fragment, train or not.
    fn emit_fragments(&mut self, msg_id: u64, wr: &SendWr, remote: (Lid, Qpn), out: &mut QpOutput) {
        let opcode = |position| match wr.kind {
            SendKind::Send => Opcode::RcSend { position },
            SendKind::RdmaWrite => Opcode::RcWrite { position },
            SendKind::RdmaRead => Opcode::RcReadResponse { position },
        };
        let count = wr.len.div_ceil(DEFAULT_MTU).max(1);
        let header_len = wr.header_len();
        let train = if self.coalesce {
            wr.len / DEFAULT_MTU
        } else {
            0
        };
        let mut idx = 0;
        while idx < count {
            let n = if idx == 0 && train >= 2 { train } else { 1 };
            let offset = idx * DEFAULT_MTU;
            let payload = (wr.len - offset).min(DEFAULT_MTU);
            let position = Position::of(idx, count);
            let (data, hdr_len) = match &wr.data {
                Some(d) if header_len == 0 => (
                    Some(d.slice(offset as usize..(offset + n * payload) as usize)),
                    0,
                ),
                Some(d) if idx + n == count => (Some(d.clone()), header_len),
                _ => (None, 0),
            };
            let psn = self.next_psn;
            self.next_psn = psn.wrapping_add(n);
            out.packets.push(Packet {
                dst_lid: remote.0,
                src_lid: self.local_lid,
                dst_qpn: remote.1,
                src_qpn: self.qpn,
                opcode: opcode(position),
                psn,
                payload,
                msg_id,
                msg_len: wr.len,
                offset,
                imm: wr.imm,
                count: n,
                gap_ns: 0,
                msgs: 1,
                msg_gap_ns: 0,
                hdr_len,
                data,
            });
            idx += n;
        }
    }

    /// Handle an incoming packet addressed to this QP. RC data arrives as
    /// single fragments or as fragment trains (`count > 1`); a train is
    /// received in one call, with the same outcome, counter for counter and
    /// ACK for ACK, as its `count` members one after another.
    pub fn on_packet(&mut self, pkt: Packet, out: &mut QpOutput) {
        debug_assert!(
            self.state >= QpState::Rtr,
            "packet for {:?} before RTR",
            self.qpn
        );
        debug_assert!(
            !pkt.is_train()
                || matches!(
                    pkt.opcode,
                    Opcode::RcSend { .. } | Opcode::RcWrite { .. } | Opcode::RcReadResponse { .. }
                ),
            "only RC data opcodes form trains"
        );
        match pkt.opcode {
            Opcode::UdSend => self.on_ud(pkt, out),
            Opcode::RcAck => self.on_ack(pkt, out),
            Opcode::RcReadRequest => self.on_read_request(pkt, out),
            Opcode::RcSend { .. } => self.on_data(pkt, true, out),
            Opcode::RcWrite { .. } => self.on_data(pkt, false, out),
            Opcode::RcReadResponse { .. } => self.on_read_response(pkt, out),
        }
    }

    fn on_ud(&mut self, pkt: Packet, out: &mut QpOutput) {
        match self.rq.pop_front() {
            Some(wr) => out.completions.push(Completion::RecvDone {
                qpn: self.qpn,
                wr_id: wr.wr_id,
                len: pkt.payload,
                imm: pkt.imm,
                src: (pkt.src_lid, pkt.src_qpn),
                data: pkt.data,
            }),
            None => self.ud_dropped += 1,
        }
    }

    /// Drop a datagram for want of a receive WQE without touching the
    /// receive queue: the HCA's verdict when every queued WQE is a re-post
    /// that, in virtual time, lands after the datagram arrived.
    pub fn drop_ud(&mut self) {
        self.ud_dropped += 1;
    }

    /// Receive `pkt.count` contiguous Send or Write fragments of one message.
    fn on_data(&mut self, pkt: Packet, is_send: bool, out: &mut QpOutput) {
        let n = pkt.count as u64;
        // Go-back-N receive discipline: only the next expected message is
        // accepted; earlier ids are retransmitted duplicates (our ACK was
        // lost — re-ACK cumulatively), later ids mean an earlier message
        // was lost entirely (drop; the sender will retransmit in order).
        if pkt.msg_id < self.expected_msg_id {
            self.dup_fragments += n;
            if pkt.tail_is_last() {
                let ack = self.make_ack(self.expected_msg_id - 1, (pkt.src_lid, pkt.src_qpn));
                out.packets.push(ack);
            }
            return;
        }
        if pkt.msg_id > self.expected_msg_id {
            self.gap_drops += n;
            if let Some(asm) = self.assembling.as_mut() {
                // The expected message can never finish cleanly now.
                asm.poisoned = true;
            }
            return;
        }
        let consumes_recv = is_send || pkt.imm != u64::MAX;
        if !Assembly::extend(&mut self.assembling, &pkt, consumes_recv) {
            self.gap_drops += n;
        } else if pkt.tail_is_last() {
            self.finish_assembly(out);
        }
    }

    /// The final fragment of the expected message arrived: deliver it.
    fn finish_assembly(&mut self, out: &mut QpOutput) {
        let asm = self.assembling.take().unwrap();
        debug_assert_eq!(asm.received, asm.msg_len, "short message");
        self.expected_msg_id += 1;
        // Hardware-generated cumulative ACK for the whole message.
        let ack = self.make_ack(asm.msg_id, asm.src);
        out.packets.push(ack);
        if asm.consumes_recv {
            let wr = self.rq.pop_front().unwrap_or_else(|| {
                panic!(
                    "RC message on {:?} with no posted receive (ULP must pre-post)",
                    self.qpn
                )
            });
            let data = if asm.data.is_empty() {
                None
            } else {
                Some(asm.data.freeze())
            };
            out.completions.push(Completion::RecvDone {
                qpn: self.qpn,
                wr_id: wr.wr_id,
                len: asm.msg_len,
                imm: asm.imm,
                src: asm.src,
                data,
            });
        } else {
            self.rdma_bytes_received += asm.msg_len as u64;
            if self.cfg.notify_silent_writes {
                out.completions.push(Completion::WriteArrived {
                    qpn: self.qpn,
                    len: asm.msg_len,
                });
            }
        }
    }

    fn make_ack(&mut self, msg_id: u64, dest: (Lid, Qpn)) -> Packet {
        Packet {
            dst_lid: dest.0,
            src_lid: self.local_lid,
            dst_qpn: dest.1,
            src_qpn: self.qpn,
            opcode: Opcode::RcAck,
            psn: 0,
            payload: 0,
            msg_id,
            msg_len: 0,
            offset: 0,
            imm: u64::MAX,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        }
    }

    fn on_ack(&mut self, pkt: Packet, out: &mut QpOutput) {
        // Cumulative: everything up to and including `msg_id` is delivered.
        let mut progressed = false;
        while let Some(front) = self.inflight.front() {
            if front.msg_id > pkt.msg_id {
                break;
            }
            let done = self.inflight.pop_front().unwrap();
            out.completions.push(Completion::SendDone {
                qpn: self.qpn,
                wr_id: done.wr.wr_id,
                kind: done.wr.kind,
                len: done.wr.len,
            });
            progressed = true;
        }
        if progressed {
            self.progress_seq += 1;
            self.pump(out);
            self.maybe_disarm(out);
        }
        // Stale duplicate ACKs are ignored.
    }

    fn on_read_request(&mut self, pkt: Packet, out: &mut QpOutput) {
        // The responder HCA streams the data back without host involvement.
        let wr = SendWr::rdma_read(0, pkt.msg_len);
        self.emit_fragments(pkt.msg_id, &wr, (pkt.src_lid, pkt.src_qpn), out);
    }

    /// Receive `pkt.count` contiguous read-response fragments.
    fn on_read_response(&mut self, pkt: Packet, out: &mut QpOutput) {
        let n = pkt.count as u64;
        // Accept only responses for the oldest outstanding read; anything
        // else is a stale duplicate or a response racing a lost request
        // (the retransmission timer recovers both).
        let oldest = self.inflight_reads.front().map(|r| r.msg_id);
        if oldest != Some(pkt.msg_id) {
            self.dup_fragments += n;
        } else if !Assembly::extend(&mut self.read_assembling, &pkt, false) {
            self.gap_drops += n;
        } else if pkt.tail_is_last() {
            self.finish_read_assembly(out);
        }
    }

    /// The final read-response fragment arrived: complete the oldest read.
    fn finish_read_assembly(&mut self, out: &mut QpOutput) {
        let asm = self.read_assembling.take().unwrap();
        debug_assert_eq!(asm.received, asm.msg_len);
        let done = self.inflight_reads.pop_front().unwrap();
        self.progress_seq += 1;
        out.completions.push(Completion::SendDone {
            qpn: self.qpn,
            wr_id: done.wr.wr_id,
            kind: SendKind::RdmaRead,
            len: done.wr.len,
        });
        self.pump(out);
        self.maybe_disarm(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn rc_pair() -> (Qp, Qp) {
        let mut a = Qp::new(Qpn(10), QpConfig::rc(), Lid(1));
        let mut b = Qp::new(Qpn(20), QpConfig::rc(), Lid(2));
        a.connect((Lid(2), Qpn(20)));
        b.connect((Lid(1), Qpn(10)));
        (a, b)
    }

    /// Shuttle packets between two QPs until quiescent; returns completions
    /// per side.
    pub(super) fn run_to_quiescence(
        a: &mut Qp,
        b: &mut Qp,
        mut out_a: QpOutput,
    ) -> (Vec<Completion>, Vec<Completion>) {
        let mut comps_a = std::mem::take(&mut out_a.completions);
        let mut comps_b = Vec::new();
        let mut to_b: VecDeque<Packet> = out_a.packets.into();
        let mut to_a: VecDeque<Packet> = VecDeque::new();
        loop {
            let mut progressed = false;
            while let Some(p) = to_b.pop_front() {
                progressed = true;
                let mut out = QpOutput::default();
                b.on_packet(p, &mut out);
                comps_b.extend(out.completions);
                to_a.extend(out.packets);
            }
            while let Some(p) = to_a.pop_front() {
                progressed = true;
                let mut out = QpOutput::default();
                a.on_packet(p, &mut out);
                comps_a.extend(out.completions);
                to_b.extend(out.packets);
            }
            if !progressed {
                break;
            }
        }
        (comps_a, comps_b)
    }

    #[test]
    fn rc_send_completes_both_sides() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 77 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(5, 5000, 42), &mut out);
        // 5000 bytes at 2048 MTU -> 3 fragments.
        assert_eq!(out.packets.len(), 3);
        assert!(matches!(
            out.packets[0].opcode,
            Opcode::RcSend {
                position: Position::First
            }
        ));
        assert!(matches!(
            out.packets[2].opcode,
            Opcode::RcSend {
                position: Position::Last
            }
        ));
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert_eq!(ca.len(), 1);
        assert!(matches!(
            ca[0],
            Completion::SendDone {
                wr_id: 5,
                len: 5000,
                ..
            }
        ));
        assert_eq!(cb.len(), 1);
        assert!(matches!(
            cb[0],
            Completion::RecvDone {
                wr_id: 77,
                len: 5000,
                imm: 42,
                ..
            }
        ));
        assert_eq!(a.inflight_msgs(), 0);
    }

    #[test]
    fn rc_window_blocks_seventeenth_message() {
        let (mut a, _b) = rc_pair();
        let mut out = QpOutput::default();
        for i in 0..20 {
            a.post_send(SendWr::send(i, 100, 0), &mut out);
        }
        // Only 16 messages' packets emitted; 4 queued.
        assert_eq!(out.packets.len(), 16);
        assert_eq!(a.pending_sends(), 4);
        assert_eq!(a.inflight_msgs(), 16);
    }

    #[test]
    fn rc_ack_opens_window() {
        let (mut a, mut b) = rc_pair();
        for _ in 0..20 {
            b.post_recv(RecvWr { wr_id: 0 });
        }
        let mut out = QpOutput::default();
        for i in 0..20 {
            a.post_send(SendWr::send(i, 100, 0), &mut out);
        }
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert_eq!(ca.len(), 20);
        assert_eq!(cb.len(), 20);
        assert_eq!(a.pending_sends(), 0);
        assert_eq!(a.inflight_msgs(), 0);
    }

    #[test]
    fn silent_rdma_write_does_not_consume_recv() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 9 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::rdma_write(1, 4096), &mut out);
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert_eq!(ca.len(), 1); // sender-side completion
        assert!(cb.is_empty()); // silent at responder
        assert_eq!(b.rdma_bytes_received(), 4096);
        assert_eq!(b.posted_recvs(), 1);
    }

    #[test]
    fn rdma_write_with_imm_notifies_responder() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 9 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::rdma_write_imm(1, 4096, 1234), &mut out);
        let (_ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert_eq!(cb.len(), 1);
        assert!(matches!(
            cb[0],
            Completion::RecvDone {
                imm: 1234,
                len: 4096,
                ..
            }
        ));
        assert_eq!(b.posted_recvs(), 0);
    }

    #[test]
    fn rdma_read_round_trip() {
        let (mut a, mut b) = rc_pair();
        let mut out = QpOutput::default();
        a.post_send(SendWr::rdma_read(3, 10_000), &mut out);
        assert_eq!(out.packets.len(), 1); // just the request
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert!(cb.is_empty()); // responder host never involved
        assert_eq!(ca.len(), 1);
        assert!(matches!(
            ca[0],
            Completion::SendDone {
                wr_id: 3,
                kind: SendKind::RdmaRead,
                len: 10_000,
                ..
            }
        ));
    }

    #[test]
    fn read_credit_limits_outstanding_reads() {
        let (mut a, _b) = rc_pair();
        let mut out = QpOutput::default();
        for i in 0..6 {
            a.post_send(SendWr::rdma_read(i, 100), &mut out);
        }
        assert_eq!(out.packets.len(), MAX_OUTSTANDING_READS);
        assert_eq!(a.pending_sends(), 2);
    }

    #[test]
    fn ud_send_is_fire_and_forget() {
        let mut a = Qp::new(Qpn(1), QpConfig::ud(), Lid(1));
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(1, 2048, 7).to((Lid(2), Qpn(9))), &mut out);
        assert_eq!(out.packets.len(), 1);
        assert!(out.completions.is_empty());
        assert_eq!(out.tx_completions.len(), 1); // completes at wire-out
        assert!(matches!(out.packets[0].opcode, Opcode::UdSend));
        assert_eq!(out.packets[0].dst_qpn, Qpn(9));
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn ud_rejects_oversized() {
        let mut a = Qp::new(Qpn(1), QpConfig::ud(), Lid(1));
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(1, 4096, 0).to((Lid(2), Qpn(9))), &mut out);
    }

    #[test]
    fn ud_without_recv_drops() {
        let mut b = Qp::new(Qpn(2), QpConfig::ud(), Lid(2));
        let mut out = QpOutput::default();
        b.on_packet(
            Packet {
                dst_lid: Lid(2),
                src_lid: Lid(1),
                dst_qpn: Qpn(2),
                src_qpn: Qpn(1),
                opcode: Opcode::UdSend,
                psn: 0,
                payload: 100,
                msg_id: 0,
                msg_len: 100,
                offset: 0,
                imm: 0,
                count: 1,
                gap_ns: 0,
                msgs: 1,
                msg_gap_ns: 0,
                hdr_len: 0,
                data: None,
            },
            &mut out,
        );
        assert!(out.completions.is_empty());
        assert_eq!(b.ud_dropped(), 1);
    }

    #[test]
    fn inline_data_reassembled_in_order() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 0 });
        let payload: Bytes = (0..5000u32)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<_>>()
            .into();
        let mut out = QpOutput::default();
        a.post_send(
            SendWr::send(1, 5000, 0).with_data(payload.clone()),
            &mut out,
        );
        let (_ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        match &cb[0] {
            Completion::RecvDone { data: Some(d), .. } => assert_eq!(d, &payload),
            other => panic!("unexpected completion {other:?}"),
        }
    }

    #[test]
    fn zero_length_message_is_one_packet() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 4 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(1, 0, 11), &mut out);
        assert_eq!(out.packets.len(), 1);
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, out);
        assert_eq!(ca.len(), 1);
        assert!(matches!(
            cb[0],
            Completion::RecvDone {
                len: 0,
                imm: 11,
                ..
            }
        ));
    }
}

#[cfg(test)]
mod reliability_tests {
    use super::tests::run_to_quiescence;
    use super::*;

    fn rc_pair() -> (Qp, Qp) {
        let mut a = Qp::new(Qpn(10), QpConfig::rc(), Lid(1));
        let mut b = Qp::new(Qpn(20), QpConfig::rc(), Lid(2));
        a.connect((Lid(2), Qpn(20)));
        b.connect((Lid(1), Qpn(10)));
        (a, b)
    }

    #[test]
    fn receiver_drops_messages_after_a_gap() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 0 });
        b.post_recv(RecvWr { wr_id: 1 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 100, 0), &mut out);
        a.post_send(SendWr::send(1, 100, 0), &mut out);
        assert_eq!(out.packets.len(), 2);
        // Lose message 0 entirely; deliver message 1.
        let msg1 = out.packets.remove(1);
        let mut rx = QpOutput::default();
        b.on_packet(msg1, &mut rx);
        assert!(rx.completions.is_empty(), "out-of-order message delivered");
        assert!(rx.packets.is_empty(), "no ACK for a gapped message");
        assert_eq!(b.gap_drops(), 1);
    }

    #[test]
    fn duplicate_message_triggers_cumulative_reack() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 0 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 100, 0), &mut out);
        let pkt = out.packets.pop().unwrap();
        let mut rx = QpOutput::default();
        b.on_packet(pkt.clone(), &mut rx);
        assert_eq!(rx.completions.len(), 1);
        assert_eq!(rx.packets.len(), 1); // the ACK
                                         // The same message arrives again (retransmitted because the ACK was
                                         // lost): no second delivery, but a fresh cumulative ACK.
        let mut rx2 = QpOutput::default();
        b.on_packet(pkt, &mut rx2);
        assert!(rx2.completions.is_empty());
        assert_eq!(rx2.packets.len(), 1);
        assert!(matches!(rx2.packets[0].opcode, Opcode::RcAck));
        assert_eq!(rx2.packets[0].msg_id, 0);
        assert_eq!(b.dup_fragments(), 1);
    }

    #[test]
    fn cumulative_ack_pops_multiple_messages() {
        let (mut a, _b) = rc_pair();
        let mut out = QpOutput::default();
        for i in 0..3 {
            a.post_send(SendWr::send(i, 100, 0), &mut out);
        }
        assert_eq!(a.inflight_msgs(), 3);
        // A single ACK covering msg 2 completes all three sends.
        let ack = Packet {
            dst_lid: Lid(1),
            src_lid: Lid(2),
            dst_qpn: Qpn(10),
            src_qpn: Qpn(20),
            opcode: Opcode::RcAck,
            psn: 0,
            payload: 0,
            msg_id: 2,
            msg_len: 0,
            offset: 0,
            imm: u64::MAX,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        };
        let mut rx = QpOutput::default();
        a.on_packet(ack, &mut rx);
        assert_eq!(rx.completions.len(), 3);
        assert_eq!(a.inflight_msgs(), 0);
    }

    #[test]
    fn poisoned_assembly_heals_on_retransmitted_first() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 7 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 5000, 42), &mut out); // 3 fragments
        assert_eq!(out.packets.len(), 3);
        // Lose the middle fragment: deliver first and last only.
        let mut rx = QpOutput::default();
        b.on_packet(out.packets[0].clone(), &mut rx);
        b.on_packet(out.packets[2].clone(), &mut rx);
        assert!(rx.completions.is_empty(), "incomplete message delivered");
        assert_eq!(b.gap_drops(), 1);
        // Full retransmission heals it.
        let mut rx2 = QpOutput::default();
        for p in &out.packets {
            b.on_packet(p.clone(), &mut rx2);
        }
        assert_eq!(rx2.completions.len(), 1);
        assert!(matches!(
            rx2.completions[0],
            Completion::RecvDone {
                wr_id: 7,
                len: 5000,
                imm: 42,
                ..
            }
        ));
    }

    #[test]
    fn retransmit_timer_reemits_everything_unacked() {
        let (mut a, _b) = rc_pair();
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 3000, 0), &mut out); // 2 fragments
        a.post_send(SendWr::rdma_read(1, 100), &mut out); // 1 request
        assert!(out.arm_retransmit);
        // First firing with zero progress: full go-back-N retransmission.
        let mut rt = QpOutput::default();
        a.on_retransmit_timer(&mut rt);
        assert_eq!(rt.packets.len(), 3, "2 data fragments + 1 read request");
        assert!(rt.arm_retransmit, "timer must re-arm while unacked");
        assert_eq!(a.retransmit_rounds(), 1);
    }

    #[test]
    fn retransmit_timer_is_quiet_when_idle() {
        let (mut a, _b) = rc_pair();
        let mut out = QpOutput::default();
        a.on_retransmit_timer(&mut out);
        assert!(out.packets.is_empty());
        assert!(!out.arm_retransmit);
        assert_eq!(a.retransmit_rounds(), 0);
    }

    #[test]
    fn stale_ack_is_ignored() {
        let (mut a, _b) = rc_pair();
        let ack = Packet {
            dst_lid: Lid(1),
            src_lid: Lid(2),
            dst_qpn: Qpn(10),
            src_qpn: Qpn(20),
            opcode: Opcode::RcAck,
            psn: 0,
            payload: 0,
            msg_id: 5,
            msg_len: 0,
            offset: 0,
            imm: u64::MAX,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        };
        let mut out = QpOutput::default();
        a.on_packet(ack, &mut out); // nothing in flight: no panic, no effect
        assert!(out.completions.is_empty());
    }

    /// The whole first emission is lost; the RTO fires, the retransmitted
    /// copy delivers exactly once, and when the original copy finally limps
    /// in it is discarded as duplicates with one cumulative re-ACK (our ACK
    /// might have been the casualty).
    #[test]
    fn rto_retransmission_delivers_exactly_once() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 9 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 5000, 7), &mut out); // 3 fragments
        assert!(out.arm_retransmit);
        let mut rt = QpOutput::default();
        a.on_retransmit_timer(&mut rt);
        assert_eq!(rt.packets.len(), 3, "go-back-N re-emits the whole message");
        assert_eq!(a.retransmit_rounds(), 1);
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, rt);
        assert_eq!(ca.len(), 1);
        assert_eq!(cb.len(), 1);
        assert!(matches!(
            cb[0],
            Completion::RecvDone {
                wr_id: 9,
                len: 5000,
                imm: 7,
                ..
            }
        ));
        assert_eq!(a.inflight_msgs(), 0);
        // The delayed original arrives after delivery: pure duplicates.
        let mut rx = QpOutput::default();
        for p in &out.packets {
            b.on_packet(p.clone(), &mut rx);
        }
        assert!(rx.completions.is_empty(), "duplicate copy was delivered");
        assert_eq!(b.dup_fragments(), 3);
        let reacks = rx
            .packets
            .iter()
            .filter(|p| matches!(p.opcode, Opcode::RcAck))
            .count();
        assert_eq!(reacks, 1, "exactly one cumulative re-ACK, on the tail");
    }

    /// Losing the *First* fragment leaves no assembly to extend: the rest of
    /// the message must be ignored (counted as gap drops, never ACKed) until
    /// the retransmitted First restarts assembly.
    #[test]
    fn fragments_after_lost_first_are_ignored_until_retransmission() {
        let (mut a, mut b) = rc_pair();
        b.post_recv(RecvWr { wr_id: 3 });
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(0, 5000, 1), &mut out); // 3 fragments
        assert_eq!(out.packets.len(), 3);
        let mut rx = QpOutput::default();
        b.on_packet(out.packets[1].clone(), &mut rx); // Middle, First lost
        b.on_packet(out.packets[2].clone(), &mut rx); // Last
        assert!(rx.completions.is_empty(), "headless message delivered");
        assert!(rx.packets.is_empty(), "ACKed a message with no First");
        assert_eq!(b.gap_drops(), 2);
        // The RTO re-emits from the First; assembly restarts and completes.
        let mut rt = QpOutput::default();
        a.on_retransmit_timer(&mut rt);
        let (ca, cb) = run_to_quiescence(&mut a, &mut b, rt);
        assert_eq!(ca.len(), 1);
        assert_eq!(cb.len(), 1);
        assert!(matches!(
            cb[0],
            Completion::RecvDone {
                wr_id: 3,
                len: 5000,
                imm: 1,
                ..
            }
        ));
    }

    /// Whole-fabric RTO exercise at a Longbow-class WAN delay: with a
    /// 100 µs one-way link and an RTO shorter than the RTT, every ACK loses
    /// the race at least once, so the timer genuinely fires mid-flight.
    /// Retransmissions show up as duplicates at the receiver, yet each
    /// message still delivers exactly once.
    #[test]
    fn wan_rtt_longer_than_rto_retransmits_but_delivers_once() {
        use crate::fabric::FabricBuilder;
        use crate::link::LinkConfig;
        use crate::perftest::{rc_qp_pair, BwConfig, BwPeer};
        use simcore::Rate;

        let msgs = 4u64;
        let mut builder = FabricBuilder::new(11);
        let n1 = builder.add_hca(Box::new(BwPeer::sender(BwConfig::new(65536, msgs))));
        let n2 = builder.add_hca(Box::new(BwPeer::receiver()));
        builder.link(
            n1.actor,
            n2.actor,
            LinkConfig {
                rate: Rate::from_gbps(8),
                latency: Dur::from_us(100),
                credit_packets: None,
            },
        );
        let mut f = builder.finish();
        let cfg = QpConfig {
            rto: Dur::from_us(50), // RTT is ~200 µs: the timer always fires
            ..QpConfig::rc()
        };
        let (qa, qb) = rc_qp_pair(&mut f, n1, n2, cfg);
        f.hca_mut(n1).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        assert_eq!(
            f.hca(n2).ulp::<BwPeer>().received(),
            msgs,
            "each message must deliver exactly once despite retransmission"
        );
        let sender = f.hca(n1).core().qp(qa);
        let receiver = f.hca(n2).core().qp(qb);
        assert!(
            sender.retransmit_rounds() >= 1,
            "RTO below RTT must fire: {} rounds",
            sender.retransmit_rounds()
        );
        assert!(
            receiver.dup_fragments() > 0,
            "retransmitted fragments must be discarded as duplicates"
        );
        assert_eq!(receiver.gap_drops(), 0, "nothing was actually lost");
    }
}

#[cfg(test)]
mod state_machine_tests {
    use super::*;

    #[test]
    fn rc_walks_init_rtr_rts() {
        let mut q = Qp::new(Qpn(1), QpConfig::rc(), Lid(1));
        assert_eq!(q.state(), QpState::Init);
        q.modify_to_rtr((Lid(2), Qpn(2)));
        assert_eq!(q.state(), QpState::Rtr);
        q.modify_to_rts();
        assert_eq!(q.state(), QpState::Rts);
    }

    #[test]
    fn ud_is_born_ready() {
        let q = Qp::new(Qpn(1), QpConfig::ud(), Lid(1));
        assert_eq!(q.state(), QpState::Rts);
    }

    #[test]
    #[should_panic(expected = "requires RTS")]
    fn send_before_connect_panics() {
        let mut q = Qp::new(Qpn(1), QpConfig::rc(), Lid(1));
        let mut out = QpOutput::default();
        q.post_send(SendWr::send(1, 64, 0), &mut out);
    }

    // Nothing sends to its own HCA (MPI delivers self-sends in shared
    // memory), and a folded switch chain would carry such a packet to its far
    // end, so both paths refuse it.
    #[test]
    #[should_panic(expected = "cannot connect to its own HCA")]
    fn connecting_to_the_own_hca_panics() {
        let mut q = Qp::new(Qpn(1), QpConfig::rc(), Lid(1));
        q.connect((Lid(1), Qpn(2)));
    }

    #[test]
    #[should_panic(expected = "cannot address its own HCA")]
    fn a_datagram_to_the_own_hca_panics() {
        let mut a = Qp::new(Qpn(1), QpConfig::ud(), Lid(1));
        let mut out = QpOutput::default();
        a.post_send(SendWr::send(1, 64, 0).to((Lid(1), Qpn(2))), &mut out);
    }

    #[test]
    #[should_panic(expected = "RTS requires RTR")]
    fn rts_without_rtr_panics() {
        let mut q = Qp::new(Qpn(1), QpConfig::rc(), Lid(1));
        q.modify_to_rts();
    }

    #[test]
    fn recvs_may_be_posted_in_init() {
        let mut q = Qp::new(Qpn(1), QpConfig::rc(), Lid(1));
        q.post_recv(RecvWr { wr_id: 0 });
        assert_eq!(q.posted_recvs(), 1);
        assert_eq!(q.state(), QpState::Init);
    }
}

/// A fragment train is received in one call; these tests pin that its
/// outcome equals its members' one by one, on every go-back-N branch.
#[cfg(test)]
mod train_receive_tests {
    use super::tests::rc_pair;
    use super::*;
    use std::ops::Range;

    const MTU: u32 = DEFAULT_MTU;
    /// A train with a short tail fragment behind it, and a train from
    /// `First` to `Last`.
    const LENS: [u32; 2] = [6 * MTU + 100, 4 * MTU];

    /// Members `range` of `pkt` as one packet: what is left of a train
    /// that lost members on the way, still coalesced.
    fn members(pkt: &Packet, range: Range<u32>) -> Packet {
        let mut p = pkt.frag(range.start);
        if range.len() > 1 {
            p.count = range.len() as u32;
            let bytes = (range.start * pkt.payload) as usize..(range.end * pkt.payload) as usize;
            p.data = pkt.data.as_ref().map(|d| d.slice(bytes));
        }
        p
    }

    /// What a coalescing source emits for `LENS` before any reply reaches
    /// it: the first emission and two go-back-N retransmissions, one round
    /// each. The source sends (`read == false`) or answers RDMA reads. Also
    /// returns the two receivers, each posted for `LENS`.
    fn emissions(read: bool) -> (Vec<Vec<Packet>>, Qp, Qp) {
        let ((mut src, mut whole), (_, mut split)) = (rc_pair(), rc_pair());
        src.set_coalescing(true);
        let mut rounds = Vec::new();
        if read {
            // The receivers are the requesters; their RTOs re-send the
            // requests, and `src` answers every copy.
            let mut requests = QpOutput::default();
            for (i, &len) in LENS.iter().enumerate() {
                whole.post_send(SendWr::rdma_read(i as u64, len), &mut requests);
                split.post_send(SendWr::rdma_read(i as u64, len), &mut QpOutput::default());
            }
            for _ in 0..3 {
                let mut responses = QpOutput::default();
                for p in requests.packets.drain(..) {
                    src.on_packet(p, &mut responses);
                }
                rounds.push(responses.packets);
                whole.on_retransmit_timer(&mut requests);
                split.on_retransmit_timer(&mut QpOutput::default());
            }
        } else {
            let mut out = QpOutput::default();
            for (i, &len) in LENS.iter().enumerate() {
                whole.post_recv(RecvWr { wr_id: i as u64 });
                split.post_recv(RecvWr { wr_id: i as u64 });
                let payload: Bytes = (0..len).map(|b| (b % 251) as u8).collect::<Vec<_>>().into();
                src.post_send(SendWr::send(i as u64, len, 7).with_data(payload), &mut out);
            }
            rounds.push(out.packets);
            for _ in 0..2 {
                let mut rt = QpOutput::default();
                src.on_retransmit_timer(&mut rt);
                rounds.push(rt.packets);
            }
        }
        assert!(
            rounds[0].iter().all(|p| p.count > 1 || p.offset > 0),
            "every fragment but a short tail must ride in a train"
        );
        (rounds, whole, split)
    }

    /// Deliver the rounds of [`emissions`], dropping the members of the
    /// first round that `lost(msg_id, offset)` names; the retransmissions
    /// arrive whole. One receiver gets each surviving run of a train as one
    /// packet, its twin gets the run's members one by one. After every run
    /// both must have made the same completions and the same ACKs, and
    /// counted the same duplicates and gap drops. Returns the completions,
    /// `dup_fragments` and `gap_drops`.
    fn run_case(read: bool, lost: impl Fn(u64, u32) -> bool) -> (usize, u64, u64) {
        let (rounds, mut whole, mut split) = emissions(read);
        let mut completions = 0;
        for (r, round) in rounds.iter().enumerate() {
            for pkt in round {
                let kept = |k: u32| r > 0 || !lost(pkt.msg_id, pkt.offset + k * pkt.payload);
                let mut k = 0;
                while k < pkt.count {
                    let start = k;
                    while k < pkt.count && kept(k) {
                        k += 1;
                    }
                    if k == start {
                        k += 1; // a lost member
                        continue;
                    }
                    let run = members(pkt, start..k);
                    let (mut a, mut b) = (QpOutput::default(), QpOutput::default());
                    whole.on_packet(run.clone(), &mut a);
                    for m in 0..run.count {
                        split.on_packet(run.frag(m), &mut b);
                    }
                    let at = format!("round {r}, msg {} members {start}..{k}", pkt.msg_id);
                    assert_eq!(
                        format!("{:?}", a.completions),
                        format!("{:?}", b.completions),
                        "completions differ at {at}"
                    );
                    assert_eq!(
                        format!("{:?}", a.packets),
                        format!("{:?}", b.packets),
                        "ACKs differ at {at}"
                    );
                    assert_eq!(
                        (whole.dup_fragments(), whole.gap_drops()),
                        (split.dup_fragments(), split.gap_drops()),
                        "dup/gap counts differ at {at}"
                    );
                    completions += a.completions.len();
                }
            }
        }
        (completions, split.dup_fragments(), split.gap_drops())
    }

    #[test]
    fn retransmitted_duplicate_trains_match_their_members() {
        for read in [false, true] {
            let (done, dups, gaps) = run_case(read, |_, _| false);
            assert_eq!(done, LENS.len(), "read={read}");
            assert!(dups > 0, "read={read}: nothing was a duplicate");
            assert_eq!(gaps, 0, "read={read}");
        }
    }

    #[test]
    fn a_train_behind_a_lost_message_matches_its_members() {
        let (done, _, gaps) = run_case(false, |m, _| m == 0);
        assert_eq!(done, LENS.len());
        assert!(gaps > 0, "message 1 must be dropped behind the gap");
        // A response for any read but the oldest counts as a duplicate.
        let (done, dups, _) = run_case(true, |m, _| m == 0);
        assert_eq!(done, LENS.len());
        assert!(dups > 0);
    }

    #[test]
    fn a_train_that_lost_its_first_matches_its_members() {
        for read in [false, true] {
            let (done, _, gaps) = run_case(read, |m, off| m == 0 && off == 0);
            assert_eq!(done, LENS.len(), "read={read}");
            assert!(gaps > 0, "read={read}: headless members must be dropped");
        }
    }

    #[test]
    fn a_train_that_lost_a_middle_fragment_heals_like_its_members() {
        for read in [false, true] {
            let (done, _, gaps) = run_case(read, |m, off| m == 0 && off == 2 * MTU);
            assert_eq!(done, LENS.len(), "read={read}");
            assert!(
                gaps > 0,
                "read={read}: members past the loss must be dropped"
            );
        }
    }
}
