//! The Host Channel Adapter actor: owns the node's QPs, applies host timing
//! costs, moves packets to/from the wire, and dispatches completions to the
//! node's ULP.

use crate::link::{CreditMsg, EgressPort};
use crate::packet::{Opcode, Packet};
use crate::qp::{Qp, QpConfig, QpOutput, Qpn, TransportType};
use crate::slab::{QpSlab, RtoPop};
use crate::types::Lid;
use crate::ulp::Ulp;
use crate::verbs::{Completion, RecvWr, SendWr};
use simcore::{Actor, ActorId, Ctx, Dur, Rate, SerialResource, StreamId, Time};
use std::any::Any;
use std::collections::VecDeque;

/// Timer token reserved for the simulation-start kick that calls
/// [`Ulp::start`]. ULP timers must use tokens below [`RETRANSMIT_BASE`].
pub const START_TOKEN: u64 = u64::MAX;

/// Timer tokens at or above this value (and below [`START_TOKEN`]) are
/// per-QP retransmission timers: token = `RETRANSMIT_BASE + qpn`.
pub const RETRANSMIT_BASE: u64 = 1 << 60;

/// Largest whole-message size eligible to ride in a send super-train
/// (64 KiB = 32 fragments at the 2 KiB MTU). See
/// [`HcaCore::merge_head_eligible`].
const SEND_TRAIN_MAX_MSG_LEN: u32 = 64 << 10;

// Host-side timing of an HCA + driver stack, calibrated so that
// back-to-back RC half-round-trip latency for small messages lands near the
// few-microsecond DDR figures of the paper's testbed, and so the Longbow
// pair adds its documented ~5 µs.

/// CPU cost to post one work request (descriptor write + doorbell).
const POST_OVERHEAD: Dur = Dur::from_ns(300);
/// Latency from hardware completion to the ULP observing the CQE.
const CQ_LATENCY: Dur = Dur::from_ns(300);
/// Extra receive-side cost for channel semantics (recv-WQE consumption);
/// RDMA operations skip it, which is why RDMA write latency beats
/// send/recv in Figure 3.
const RECV_OVERHEAD: Dur = Dur::from_ns(400);

/// The verbs-facing half of an HCA, handed to the ULP.
pub struct HcaCore {
    lid: Lid,
    pub(crate) port: Option<EgressPort>,
    /// The stream this HCA re-delivers a train's later messages to itself
    /// on, opened with the port.
    redelivery: Option<StreamId>,
    /// Per-QP hot state — state machines, retransmission-timer slots, and
    /// the recycled drive scratch — packed contiguously by QP number.
    qps: QpSlab,
    host_cpu: SerialResource,
    packets_sent: u64,
    packets_received: u64,
    /// Fragment-train emission for QPs created on this HCA. On by default;
    /// [`crate::fabric::FabricBuilder::finish`] clears it when the topology
    /// cannot carry trains exactly (shared switch ports, injected loss).
    coalescing: bool,
    /// Outgoing message trains accumulated within the current event, awaiting
    /// merge into a single two-level *super-train* (see [`Packet::msgs`]).
    /// Flushed before any other port activity within the event, and
    /// unconditionally at the end of the event by [`HcaActor`], so the port
    /// reservation order matches the per-message path exactly.
    pending: Option<PendingTrain>,
    /// While a [`CompletionRun`] replays a member due after the event that
    /// popped it, that member's instant: receive WQEs posted to UD QPs then
    /// are early in real event order and go on `recv_ahead`.
    replay_at: Option<Time>,
    /// Receive WQEs on UD QPs that completion runs posted early, each with
    /// the instant the per-message schedule posts it at. See
    /// [`Self::recv_cover`].
    recv_ahead: VecDeque<(Time, Qpn)>,
}

/// A merged outgoing super-train waiting for the end of the current event.
struct PendingTrain {
    /// Earliest wire instant of the head message.
    ready: Time,
    /// The accumulated packet: `msgs` whole messages, `msg_gap_ns` apart.
    pkt: Packet,
    /// A datagram run's SendDones, one per member in member order (empty
    /// for RC runs). Each is due `CQ_LATENCY` after its own member leaves
    /// the port; [`HcaCore::flush_pending`] fills the instants in.
    wire_outs: Vec<(Time, Completion)>,
    /// The members' ULP headers in member order, once a second headered
    /// member joins (a lone member keeps its own header in `pkt.data`);
    /// [`HcaCore::flush_pending`] freezes them into the merged packet.
    headers: Vec<u8>,
}

impl HcaCore {
    /// New core with no port attached yet (the fabric builder wires it).
    pub fn new(lid: Lid) -> Self {
        HcaCore {
            lid,
            port: None,
            redelivery: None,
            qps: QpSlab::new(),
            host_cpu: SerialResource::new(Rate::INFINITE),
            packets_sent: 0,
            packets_received: 0,
            coalescing: true,
            pending: None,
            replay_at: None,
            recv_ahead: VecDeque::new(),
        }
    }

    /// Enable/disable fragment-train emission for this HCA's QPs (existing
    /// and future ones).
    pub fn set_coalescing(&mut self, on: bool) {
        self.coalescing = on;
        for qp in self.qps.qps_mut() {
            qp.set_coalescing(on);
        }
    }

    /// This port's LID.
    pub fn lid(&self) -> Lid {
        self.lid
    }

    /// Create a QP; QPNs are assigned densely from 0.
    pub fn create_qp(&mut self, cfg: QpConfig) -> Qpn {
        let qpn = self.qps.create(cfg, self.lid);
        self.qps.qp_mut(qpn).set_coalescing(self.coalescing);
        qpn
    }

    /// Connect an RC QP to a remote (LID, QPN).
    pub fn connect(&mut self, qpn: Qpn, remote: (Lid, Qpn)) {
        self.qp_mut(qpn).connect(remote);
    }

    /// Immutable access to a QP.
    pub fn qp(&self, qpn: Qpn) -> &Qp {
        self.qps.qp(qpn)
    }

    /// Mutable access to a QP.
    pub fn qp_mut(&mut self, qpn: Qpn) -> &mut Qp {
        self.qps.qp_mut(qpn)
    }

    /// Total packets this HCA put on the wire.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Total packets delivered to this HCA.
    pub fn packets_received(&self) -> u64 {
        self.packets_received
    }

    /// Bytes deposited into `qpn` by silent RDMA writes.
    pub fn rdma_bytes_received(&self, qpn: Qpn) -> u64 {
        self.qp(qpn).rdma_bytes_received()
    }

    /// Post a send-side work request, paying the host posting overhead.
    pub fn post_send(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn, wr: SendWr) {
        self.post_send_after(ctx, qpn, wr, ctx.now());
    }

    /// Post a send-side work request whose packets may not hit the wire
    /// before `earliest` (used by ULPs that model their own per-packet host
    /// processing, e.g. the IPoIB/TCP stack).
    pub fn post_send_after(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn, wr: SendWr, earliest: Time) {
        let at = earliest.max(ctx.now());
        let (_, ready) = self.host_cpu.reserve_dur(at, POST_OVERHEAD);
        let mut out = self.qps.take_scratch();
        self.qps.qp_mut(qpn).post_send(wr, &mut out);
        self.arm_if_requested(ctx, qpn, &out);
        self.flush(ctx, ready, &mut out);
        self.qps.put_scratch(out);
    }

    fn arm_if_requested(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn, out: &QpOutput) {
        let now = ctx.now();
        self.arm_if_requested_at(ctx, qpn, out, now);
    }

    /// Arm/disarm as [`Self::arm_if_requested`], but measure the RTO from
    /// `virt_now` — the virtual instant a batched member loop is replaying —
    /// rather than the event's own timestamp, so the timer fires exactly when
    /// the per-member execution would have armed it. A timer event is queued
    /// only when the QP has none queued at or before the deadline
    /// ([`QpSlab::arm_rto`]).
    fn arm_if_requested_at(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn, out: &QpOutput, virt_now: Time) {
        debug_assert!(
            !(out.arm_retransmit && out.disarm_retransmit),
            "a QP cannot arm and disarm in the same output"
        );
        if out.arm_retransmit {
            let deadline = virt_now + self.qps.qp(qpn).config().rto;
            if self.qps.arm_rto(qpn, deadline) {
                ctx.timer_at(deadline, RETRANSMIT_BASE + qpn.0 as u64);
            }
        }
        if out.disarm_retransmit {
            self.qps.disarm_rto(qpn);
        }
    }

    /// A per-QP retransmission-timer event popped (routed by [`HcaActor`]):
    /// ignore it, re-queue it at the QP's later deadline, or run the
    /// timeout, as [`QpSlab::rto_popped`] says.
    pub(crate) fn on_retransmit_timer(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn) {
        match self.qps.rto_popped(qpn, ctx.now()) {
            RtoPop::Stale => {}
            RtoPop::Requeue(deadline) => ctx.timer_at(deadline, RETRANSMIT_BASE + qpn.0 as u64),
            RtoPop::Fire => {
                let mut out = self.qps.take_scratch();
                self.qps.qp_mut(qpn).on_retransmit_timer(&mut out);
                self.arm_if_requested(ctx, qpn, &out);
                let now = ctx.now();
                self.flush(ctx, now, &mut out);
                self.qps.put_scratch(out);
            }
        }
    }

    /// Post a receive WQE (no wire effect; negligible cost).
    pub fn post_recv(&mut self, qpn: Qpn, wr: RecvWr) {
        if let Some(at) = self.replay_at {
            if self.qp(qpn).config().transport == TransportType::Ud {
                self.recv_ahead.push_back((at, qpn));
            }
        }
        self.qp_mut(qpn).post_recv(wr);
    }

    /// Receive WQEs on UD QP `qpn` that the per-message schedule has posted
    /// before `at`: the queue's length less the WQEs a completion run posted
    /// early, for an instant at or after `at`. A [`CompletionRun`] pops at
    /// its first member's instant and performs later members' re-posts
    /// then, so the queue alone can overstate what an arrival at `at`
    /// finds. A re-post due exactly at `at` counts as not yet posted.
    fn recv_cover(&mut self, qpn: Qpn, at: Time) -> usize {
        self.retire_recv_ahead(at);
        let ahead = self
            .recv_ahead
            .iter()
            .filter(|&&(t, q)| q == qpn && t >= at)
            .count();
        self.qp(qpn).posted_recvs().saturating_sub(ahead)
    }

    /// Forget early re-posts due before `now`: every arrival from here on
    /// finds them posted. Runs replay in pop order, so this keeps
    /// `recv_ahead` to about one run's re-posts.
    fn retire_recv_ahead(&mut self, now: Time) {
        while self.recv_ahead.front().is_some_and(|&(t, _)| t < now) {
            self.recv_ahead.pop_front();
        }
    }

    /// Put QP outputs on the wire / completion path. `ready` is the earliest
    /// instant the packets may start serializing.
    fn flush(&mut self, ctx: &mut Ctx<'_>, ready: Time, out: &mut QpOutput) {
        for pkt in out.packets.drain(..) {
            self.packets_sent += pkt.count as u64;
            self.enqueue_tx(ctx, ready, pkt);
        }
        for c in out.completions.drain(..) {
            ctx.send(ctx.self_id(), Box::new(CompletionDelivery(c)), CQ_LATENCY);
        }
        if let Some(c) = out.tx_completions.pop() {
            // A UD send's wire-out completion, valid once its datagram — the
            // one packet just enqueued — has finished serializing. A parked
            // datagram's SendDone waits in the pending train, which times it
            // when it flushes; a sent one is the port's latest reservation.
            debug_assert!(out.tx_completions.is_empty(), "one datagram per post");
            if let Some(pending) = self.pending.as_mut() {
                pending.wire_outs.push((ready, c));
            } else {
                let port = self.port.as_ref().expect("HCA port not wired");
                let tx_end = port.next_free().max(ctx.now());
                ctx.send_at(
                    ctx.self_id(),
                    Box::new(CompletionDelivery(c)),
                    tx_end + CQ_LATENCY,
                );
            }
        }
    }

    /// Route one outgoing packet to the wire, merging consecutive
    /// whole-message trains of one flow into a two-level super-train when the
    /// port can carry them as a single event. Non-mergeable packets flush the
    /// pending train first, preserving the per-message reservation order.
    /// Afterwards the pending train, if any, holds `pkt`.
    fn enqueue_tx(&mut self, ctx: &mut Ctx<'_>, ready: Time, pkt: Packet) {
        if self.try_extend_pending(ready, &pkt) {
            let pending = self.pending.as_mut().unwrap();
            if pending.pkt.msgs == 1 {
                pending.pkt.msg_gap_ns = (ready - pending.ready).as_ns();
            }
            if let Some(header) = &pkt.data {
                if pending.headers.is_empty() {
                    let head = pending.pkt.data.as_ref().expect("equal header lengths");
                    pending.headers.extend_from_slice(head);
                }
                pending.headers.extend_from_slice(header);
            }
            pending.pkt.count += pkt.count;
            pending.pkt.msgs += 1;
            return;
        }
        self.flush_pending(ctx);
        if self.merge_head_eligible(&pkt) {
            // Park it: later packets in this same event may extend the run.
            // [`HcaActor`] flushes at the end of every event, so the pending
            // train never outlives the event that created it.
            self.pending = Some(PendingTrain {
                ready,
                pkt,
                wire_outs: Vec::new(),
                headers: Vec::new(),
            });
            return;
        }
        let port = self.port.as_mut().expect("HCA port not wired");
        port.send(ctx, ready, pkt);
    }

    /// Can `pkt` seed a pending super-train? Four shapes qualify, all fully
    /// described by `(msg_id, psn, msg_len, imm)` and their ULP headers, so
    /// a run of them is exactly reproducible from the merged representation:
    /// - silent whole-message RC write trains (no receive consumed, no
    ///   immediate) — the forward path;
    /// - whole-message RC sends (including single-fragment small messages —
    ///   the `ib_send_bw` regime, and headered ULP messages such as MPI
    ///   eager sends, RPCs and IPoIB-RC segments): the receiver replays each
    ///   member at its own virtual instant, so per-member receive-WQE
    ///   consumption and completion delivery survive the merge bit-for-bit;
    /// - UD datagrams (the `ib_send_bw -c UD` regime, and IPoIB-UD's
    ///   TCP segments): each member's SendDone stays due at its own
    ///   wire-out, and the receiver replays each member as an ordinary
    ///   datagram (see [`Self::datagrams_covered`]);
    /// - hardware-generated cumulative ACKs — the control return path.
    ///
    /// A member's header rides along (see [`Packet::data`]); an integrity
    /// payload keeps its packet out of every super-train.
    fn merge_head_eligible(&self, pkt: &Packet) -> bool {
        if !(self.coalescing
            && self.port.as_ref().is_some_and(|p| !p.credited())
            && pkt.msgs == 1
            && (pkt.data.is_none() || pkt.hdr_len > 0))
        {
            return false;
        }
        match pkt.opcode {
            Opcode::RcWrite { .. } => {
                pkt.is_train() && pkt.offset == 0 && pkt.tail_is_last() && pkt.imm == u64::MAX
            }
            // Sends merge only in the small-message regime the event tax
            // actually hurts (a 64 KiB member serializes in ~66 µs; beyond
            // that the wire dominates and per-event cost is noise). Long
            // messages must also stay unmerged for exactness: their
            // multi-millisecond reservation envelopes have to remain open
            // for bidirectional traffic to interleave between messages.
            Opcode::RcSend { .. } => {
                pkt.offset == 0 && pkt.tail_is_last() && pkt.msg_len <= SEND_TRAIN_MAX_MSG_LEN
            }
            Opcode::UdSend | Opcode::RcAck => pkt.count == 1,
            _ => false,
        }
    }

    /// Does `pkt`, ready at `ready`, extend the pending super-train? The run
    /// must stay contiguous in message id (and, for data, PSN), keep the same
    /// shape and header length, and keep a uniform head spacing (established
    /// by the second message).
    fn try_extend_pending(&self, ready: Time, pkt: &Packet) -> bool {
        let Some(pending) = self.pending.as_ref() else {
            return false;
        };
        if ready < pending.ready {
            return false;
        }
        let p = &pending.pkt;
        let f = p.frags_per_msg();
        let psn_ok = if matches!(p.opcode, Opcode::RcAck) {
            pkt.psn == p.psn // cumulative ACKs all carry PSN 0
        } else {
            pkt.psn == p.psn.wrapping_add(p.count)
        };
        if !(self.merge_head_eligible(pkt)
            && pkt.opcode == p.opcode
            && pkt.dst_lid == p.dst_lid
            && pkt.dst_qpn == p.dst_qpn
            && pkt.src_qpn == p.src_qpn
            && pkt.count == f
            && pkt.payload == p.payload
            && pkt.msg_len == p.msg_len
            && pkt.gap_ns == p.gap_ns
            && pkt.imm == p.imm
            && pkt.hdr_len == p.hdr_len
            && pkt.msg_id == p.msg_id + p.msgs as u64
            && psn_ok)
        {
            return false;
        }
        // Head spacing: the second message fixes `msg_gap`; later ones must
        // land exactly on the grid.
        let d = (ready - pending.ready).as_ns();
        if p.msgs == 1 {
            true // any spacing is exact; msg_gap is set by the caller
        } else {
            d == p.msg_gap_ns * p.msgs as u64
        }
    }

    /// Transmit the pending super-train, if any.
    fn flush_pending(&mut self, ctx: &mut Ctx<'_>) {
        // Every event ends here, nearly always with nothing pending: test
        // before `take` moves the whole train out.
        if self.pending.is_none() {
            return;
        }
        let Some(PendingTrain {
            ready,
            mut pkt,
            wire_outs,
            headers,
        }) = self.pending.take()
        else {
            return;
        };
        if !headers.is_empty() {
            pkt.data = Some(headers.into());
        }
        #[cfg(debug_assertions)]
        pkt.debug_validate_train();
        let port = self.port.as_mut().expect("HCA port not wired");
        if wire_outs.is_empty() {
            return port.send(ctx, ready, pkt);
        }
        // A datagram run: each member's SendDone is due `CQ_LATENCY` after
        // its own serialization end, read off the departure pattern of
        // whatever deliveries the port splits the run into. The run's
        // SendDones leave as one completion run, so the ULP's re-posts land
        // in the next pending train.
        let mut cqes = wire_outs;
        let mut due = cqes.iter_mut().map(|(at, _)| at);
        port.send_reporting(ctx, ready, pkt, |departed, p| {
            for k in 0..p.count {
                let end = departed + Dur::from_ns(p.member_arrival_offset_ns(k));
                *due.next().expect("one SendDone per datagram") = end + CQ_LATENCY;
            }
        });
        Self::emit_completions(ctx, cqes);
    }

    /// Handle a packet arriving from the wire, or one this HCA re-delivered
    /// to itself (`redelivered`): `msgs ≥ 1` whole messages (see
    /// [`Packet::msgs`]), each received at its tail fragment's arrival
    /// instant. The HCA's single full-duplex cable serializes arrivals, so
    /// no other packet can land between a packet's head and its last
    /// fragment. A lone packet is a run of one message whose tail is its
    /// head. The ACKs and sends a message provokes enqueue at its tail, so a
    /// run's replies merge into one return-path run.
    ///
    /// This event receives the messages that are due now; the rest arrive
    /// again, re-delivered as one packet on the HCA's stream to itself, at
    /// the tail of the first of them. As the next packet's head lands after
    /// this packet's last tail, that stream's instants never decrease and it
    /// holds at most one packet. Headerless RC messages are all due at the
    /// head: their only reply is the hardware ACK. A message with a ULP
    /// header (see [`Packet::data`]) goes to a protocol whose own sends must
    /// reach the port in the order the per-message path gives them, so it
    /// is received in an event at its own tail instant; datagrams follow
    /// [`Self::datagrams_covered`].
    fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet, redelivered: bool) {
        debug_assert_eq!(pkt.dst_lid, self.lid, "packet routed to wrong HCA");
        let port = self.port.as_ref().expect("HCA port not wired");
        if port.credited() && !redelivered {
            debug_assert_eq!(pkt.count, 1, "trains never cross credited links");
            // Our receive buffer is drained: return the link-level credit.
            ctx.send(port.peer, Box::new(CreditMsg), port.config().latency);
        }
        let now = ctx.now();
        let f = pkt.frags_per_msg();
        // A re-delivered packet arrives at its first message's tail.
        let tail_offset = |m: u32| pkt.member_arrival_offset_ns((m + 1) * f - 1);
        let first_tail = if redelivered {
            now
        } else {
            now + Dur::from_ns(tail_offset(0))
        };
        let tail = |m: u32| first_tail + Dur::from_ns(tail_offset(m) - tail_offset(0));
        // Messages received now, and messages this event disposes of: a
        // datagram with no WQE to cover it drops.
        let (receive, disposed) = match pkt.opcode {
            Opcode::UdSend => {
                let covered = self.datagrams_covered(pkt.dst_qpn, now, pkt.msgs);
                (covered, covered.max(1))
            }
            _ if pkt.hdr_len > 0 => {
                let due = u32::from(first_tail == now);
                (due, due)
            }
            _ => (pkt.msgs, pkt.msgs),
        };
        self.packets_received += (disposed * f) as u64;
        if disposed < pkt.msgs {
            let rest = pkt.msg_slice(disposed, pkt.msgs - disposed);
            let redelivery = self.redelivery.expect("HCA port not wired");
            ctx.send_stream(redelivery, rest, tail(disposed));
        }
        if pkt.msgs == 1 {
            if receive == 1 {
                self.receive_message(ctx, pkt, first_tail, None);
            }
            return;
        }
        let mut cqes = Vec::new();
        for m in 0..receive {
            self.receive_message(ctx, pkt.msg_train(m), tail(m), Some(&mut cqes));
        }
        Self::emit_completions(ctx, cqes);
    }

    /// Receive one message — whole, or the fragments of it a train carries
    /// — at `tail`, its last fragment's arrival instant. The QP's ACKs and
    /// read responses leave from `tail` (hardware path, no host) and its
    /// retransmission timer runs from `tail`. Each completion is due
    /// `CQ_LATENCY` after `tail`, plus the receive overhead when the message
    /// consumed a receive WQE. A run's completions collect in `run` to leave
    /// as one [`CompletionRun`]; a lone message's leave one event each.
    fn receive_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Packet,
        tail: Time,
        run: Option<&mut Vec<(Time, Completion)>>,
    ) {
        let qpn = msg.dst_qpn;
        let mut done = tail + CQ_LATENCY;
        if matches!(msg.opcode, Opcode::UdSend | Opcode::RcSend { .. }) {
            done += RECV_OVERHEAD;
        }
        let mut out = self.qps.take_scratch();
        self.qps.qp_mut(qpn).on_packet(msg, &mut out);
        self.arm_if_requested_at(ctx, qpn, &out, tail);
        for p in out.packets.drain(..) {
            self.packets_sent += p.count as u64;
            self.enqueue_tx(ctx, tail, p);
        }
        match run {
            Some(cqes) => cqes.extend(out.completions.drain(..).map(|c| (done, c))),
            None => {
                for c in out.completions.drain(..) {
                    ctx.send_at(ctx.self_id(), Box::new(CompletionDelivery(c)), done);
                }
            }
        }
        debug_assert!(
            out.tx_completions.is_empty(),
            "wire-out completions only arise from posting"
        );
        self.qps.put_scratch(out);
    }

    /// How many of a run of `msgs ≥ 1` datagrams to UD QP `qpn`, whose
    /// head arrives at `head`, this event receives. Each is an ordinary
    /// datagram at its own arrival instant: it takes one receive WQE and
    /// completes `CQ_LATENCY + RECV_OVERHEAD` later, or counts in
    /// `ud_dropped` when none is posted. This event receives the members
    /// that WQEs already posted by the head's arrival cover
    /// ([`Self::recv_cover`]), and the head itself, which is due now, drops
    /// here if uncovered. Whether a later member finds a WQE depends on
    /// re-posts still to come, so the rest arrive again, as one packet, at
    /// the first of their own instants.
    fn datagrams_covered(&mut self, qpn: Qpn, head: Time, msgs: u32) -> u32 {
        let covered = self.recv_cover(qpn, head).min(msgs as usize) as u32;
        if covered == 0 {
            self.qps.qp_mut(qpn).drop_ud();
        }
        covered
    }

    /// Deliver a run's accumulated completions. A lone CQE takes the
    /// ordinary per-completion event; two or more ride one [`CompletionRun`]
    /// event, popped at the first member's delivery instant and replayed
    /// member-by-member at the original virtual times — so a window's worth
    /// of completions costs one event instead of one each.
    fn emit_completions(ctx: &mut Ctx<'_>, mut cqes: Vec<(Time, Completion)>) {
        let me = ctx.self_id();
        match cqes.len() {
            0 => {}
            1 => {
                let (at, c) = cqes.pop().expect("len checked");
                ctx.send_at(me, Box::new(CompletionDelivery(c)), at);
            }
            _ => {
                let at = cqes[0].0;
                ctx.send_at(me, Box::new(CompletionRun(cqes)), at);
            }
        }
    }

    /// A link-level credit came back from the neighbor: release a queued
    /// packet if one is waiting.
    fn handle_credit(&mut self, ctx: &mut Ctx<'_>) {
        let port = self.port.as_mut().expect("HCA port not wired");
        port.credit_returned(ctx);
    }

    /// Attach the (single) port, and `redelivery`, a stream from this HCA
    /// to itself. Used by the fabric builder.
    pub fn attach_port(&mut self, egress: EgressPort, redelivery: StreamId) {
        assert!(self.port.is_none(), "HCA port already attached");
        self.port = Some(egress);
        self.redelivery = Some(redelivery);
    }
}

/// Internal self-message carrying a CQE to the ULP after `CQ_LATENCY`.
struct CompletionDelivery(Completion);

/// Internal self-message carrying a batch of CQEs whose delivery events were
/// coalesced into one. Formed when receiving a run of messages yields
/// several completions: the event pops at the first member's instant and
/// each `(at, cqe)` replays under [`Ctx::at_instant`], so the ULP observes
/// exactly the timestamps, timers, and sends it would have produced from
/// separate deliveries.
struct CompletionRun(Vec<(Time, Completion)>);

/// The engine actor pairing an [`HcaCore`] with its [`Ulp`].
pub struct HcaActor {
    core: HcaCore,
    ulp: Box<dyn Ulp>,
}

impl HcaActor {
    /// Build a node from its HCA core and protocol.
    pub fn new(core: HcaCore, ulp: Box<dyn Ulp>) -> Self {
        HcaActor { core, ulp }
    }

    /// The HCA core (for inspection after a run).
    pub fn core(&self) -> &HcaCore {
        &self.core
    }

    /// Mutable core access (for setup).
    pub fn core_mut(&mut self) -> &mut HcaCore {
        &mut self.core
    }

    /// Downcast the ULP to its concrete type.
    pub fn ulp<T: Ulp>(&self) -> &T {
        let any: &dyn Any = &*self.ulp;
        any.downcast_ref::<T>().expect("ULP type mismatch")
    }

    /// Downcast the ULP to its concrete type, mutably.
    pub fn ulp_mut<T: Ulp>(&mut self) -> &mut T {
        let any: &mut dyn Any = &mut *self.ulp;
        any.downcast_mut::<T>().expect("ULP type mismatch")
    }
}

impl Actor for HcaActor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: ActorId, pkt: Packet) {
        let redelivered = from == ctx.self_id();
        self.core.handle_packet(ctx, pkt, redelivered);
        self.core.flush_pending(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
        match msg.downcast::<CompletionDelivery>() {
            Ok(cd) => self.ulp.on_completion(&mut self.core, ctx, cd.0),
            Err(msg) => match msg.downcast::<CompletionRun>() {
                Ok(run) => {
                    ctx.note_control_run(run.0.len() as u32);
                    let popped = ctx.now();
                    self.core.retire_recv_ahead(popped);
                    for (at, c) in run.0 {
                        self.core.replay_at = (at > popped).then_some(at);
                        ctx.at_instant(at, |ctx| self.ulp.on_completion(&mut self.core, ctx, c));
                    }
                    self.core.replay_at = None;
                }
                Err(msg) => match msg.downcast::<CreditMsg>() {
                    Ok(_) => self.core.handle_credit(ctx),
                    Err(msg) => self.ulp.on_user(&mut self.core, ctx, from, msg),
                },
            },
        }
        self.core.flush_pending(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == START_TOKEN {
            self.ulp.start(&mut self.core, ctx);
        } else if token >= RETRANSMIT_BASE {
            self.core
                .on_retransmit_timer(ctx, Qpn((token - RETRANSMIT_BASE) as u32));
        } else {
            self.ulp.on_timer(&mut self.core, ctx, token);
        }
        self.core.flush_pending(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricBuilder;
    use crate::link::LinkConfig;
    use crate::qp::QpConfig;
    use crate::ulp::Ulp;
    use bytes::Bytes;
    use simcore::Time;

    /// Records completion delivery times.
    struct Recorder {
        qpn: Qpn,
        peer: Option<(Lid, Qpn)>,
        to_send: Vec<u32>,
        send_done_at: Vec<Time>,
        recv_done_at: Vec<Time>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                qpn: Qpn(0),
                peer: None,
                to_send: vec![],
                send_done_at: vec![],
                recv_done_at: vec![],
            }
        }
    }

    impl Ulp for Recorder {
        fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
            for _ in 0..16 {
                hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
            }
            for (i, &len) in self.to_send.iter().enumerate() {
                let mut wr = SendWr::send(i as u64, len, 0);
                if let Some(p) = self.peer {
                    wr = wr.to(p);
                }
                hca.post_send(ctx, self.qpn, wr);
            }
        }
        fn on_completion(&mut self, _h: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
            match c {
                Completion::SendDone { .. } => self.send_done_at.push(ctx.now()),
                Completion::RecvDone { .. } => self.recv_done_at.push(ctx.now()),
                Completion::WriteArrived { .. } => {}
            }
        }
    }

    fn pair() -> (
        crate::fabric::Fabric,
        crate::fabric::NodeHandle,
        crate::fabric::NodeHandle,
    ) {
        pair_on(LinkConfig::ddr_lan(), true)
    }

    /// Two [`Recorder`]s with connected RC QPs on one `cable`, with or
    /// without trains.
    fn pair_on(
        cable: LinkConfig,
        coalescing: bool,
    ) -> (
        crate::fabric::Fabric,
        crate::fabric::NodeHandle,
        crate::fabric::NodeHandle,
    ) {
        let mut b = FabricBuilder::new(2);
        if !coalescing {
            b.disable_coalescing();
        }
        let a = b.add_hca(Box::new(Recorder::new()));
        let c = b.add_hca(Box::new(Recorder::new()));
        b.link(a.actor, c.actor, cable);
        let mut f = b.finish();
        let (qa, qb) = crate::perftest::rc_qp_pair(&mut f, a, c, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<Recorder>().qpn = qa;
        f.hca_mut(c).ulp_mut::<Recorder>().qpn = qb;
        (f, a, c)
    }

    #[test]
    fn posting_costs_serialize_on_the_host_cpu() {
        // Two back-to-back posts: the second message's wire time starts
        // after the second 300 ns posting slot.
        let (mut f, a, c) = pair();
        f.hca_mut(a).ulp_mut::<Recorder>().to_send = vec![64, 64];
        f.run();
        let rx = &f.hca(c).ulp::<Recorder>().recv_done_at;
        assert_eq!(rx.len(), 2);
        assert!(rx[1] > rx[0]);
    }

    #[test]
    fn rc_send_completion_waits_for_ack() {
        let (mut f, a, c) = pair();
        f.hca_mut(a).ulp_mut::<Recorder>().to_send = vec![1024];
        f.run();
        let tx = f.hca(a).ulp::<Recorder>();
        let rx = f.hca(c).ulp::<Recorder>();
        assert_eq!(tx.send_done_at.len(), 1);
        assert_eq!(rx.recv_done_at.len(), 1);
        // ACK round trip: sender completes after (or with) receiver.
        assert!(tx.send_done_at[0] >= rx.recv_done_at[0] - Dur::from_us(1));
    }

    #[test]
    fn rc_streams_both_ways_over_a_credited_cable() {
        // Two receive buffers per direction: each HCA returns a packet's
        // credit on arrival, before its QP acts on the packet. Every message
        // arrives, and the per-fragment wire path sees the same completions.
        let completions = |coalescing| {
            let (mut f, a, c) = pair_on(LinkConfig::ddr_lan().with_credits(2), coalescing);
            let sizes = vec![64, 5000, 2048, 100, 9000, 32, 4096, 700];
            for node in [a, c] {
                f.hca_mut(node).ulp_mut::<Recorder>().to_send = sizes.clone();
            }
            f.run();
            [a, c].map(|node| {
                let r = f.hca(node).ulp::<Recorder>();
                (r.send_done_at.clone(), r.recv_done_at.clone())
            })
        };
        let coalesced = completions(true);
        for (sent, received) in &coalesced {
            assert_eq!((sent.len(), received.len()), (8, 8));
        }
        assert_eq!(coalesced, completions(false));
    }

    #[test]
    fn retransmit_token_space_is_disjoint_from_ulp_tokens() {
        // Compile-time invariants of the token layout.
        const _: () = assert!(RETRANSMIT_BASE > (1 << 32));
        const _: () = assert!(START_TOKEN > RETRANSMIT_BASE);
    }

    /// A UD or RC endpoint for the coalescing A/B tests: pre-posts
    /// `prepost` receive WQEs (numbered, so the FIFO order each RecvDone
    /// drew from shows), optionally re-posts one per RecvDone, and streams
    /// `total` messages of `len` bytes to its peer with `depth` outstanding
    /// (`len_from = (n, len2)`: messages from the `n`th on carry `len2`),
    /// each with its own 24-byte ULP header when `meta` is set. With
    /// `reply = (delay, len)` it answers each RecvDone `delay` later with a
    /// `len`-byte message, as a protocol acknowledges what it received.
    #[derive(Clone)]
    struct UdPeer {
        qpn: Qpn,
        peer: Option<(Lid, Qpn)>,
        len: u32,
        len_from: Option<(u64, u32)>,
        meta: bool,
        reply: Option<(Dur, u32)>,
        total: u64,
        depth: u64,
        prepost: u64,
        repost: bool,
        posted: u64,
        recvs_posted: u64,
        send_done_at: Vec<Time>,
        recv_done_at: Vec<(Time, u64)>,
        recv_data: Vec<Option<Bytes>>,
    }

    /// Message `n`'s ULP header: 24 bytes no other message carries.
    fn header(n: u64) -> Bytes {
        Bytes::from(n.to_be_bytes().repeat(3))
    }

    impl UdPeer {
        fn sender(len: u32, total: u64, depth: u64) -> Self {
            UdPeer {
                qpn: Qpn(0),
                peer: None,
                len,
                len_from: None,
                meta: false,
                reply: None,
                total,
                depth,
                prepost: 0,
                repost: false,
                posted: 0,
                recvs_posted: 0,
                send_done_at: vec![],
                recv_done_at: vec![],
                recv_data: vec![],
            }
        }

        fn receiver(prepost: u64, repost: bool) -> Self {
            UdPeer {
                prepost,
                repost,
                ..UdPeer::sender(0, 0, 0)
            }
        }

        fn post_recv(&mut self, hca: &mut HcaCore) {
            hca.post_recv(
                self.qpn,
                RecvWr {
                    wr_id: self.recvs_posted,
                },
            );
            self.recvs_posted += 1;
        }

        fn post_send(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
            let len = match self.len_from {
                Some((n, len2)) if self.posted >= n => len2,
                _ => self.len,
            };
            self.send(hca, ctx, len);
        }

        fn send(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, len: u32) {
            let mut wr = SendWr::send(self.posted, len, 0).to(self.peer.unwrap());
            if self.meta {
                wr = wr.with_meta(header(self.posted));
            }
            hca.post_send(ctx, self.qpn, wr);
            self.posted += 1;
        }
    }

    impl Ulp for UdPeer {
        fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
            for _ in 0..self.prepost {
                self.post_recv(hca);
            }
            for _ in 0..self.depth.min(self.total) {
                self.post_send(hca, ctx);
            }
        }
        fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
            match c {
                Completion::SendDone { .. } => {
                    self.send_done_at.push(ctx.now());
                    if self.posted < self.total {
                        self.post_send(hca, ctx);
                    }
                }
                Completion::RecvDone { wr_id, data, .. } => {
                    self.recv_done_at.push((ctx.now(), wr_id));
                    self.recv_data.push(data);
                    if self.repost {
                        self.post_recv(hca);
                    }
                    if let Some((delay, _)) = self.reply {
                        ctx.timer(delay, 0);
                    }
                }
                Completion::WriteArrived { .. } => unreachable!("UD carries no writes"),
            }
        }
        fn on_timer(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, _token: u64) {
            let (_, len) = self.reply.expect("only replies arm timers");
            self.send(hca, ctx, len);
        }
    }

    /// What one side of a run observed: SendDone instants, RecvDone
    /// instants with the WQE each drew and the bytes each delivered, drops,
    /// and HCA packet counters.
    #[derive(Debug, PartialEq)]
    struct UdSide {
        send_done_at: Vec<Time>,
        recv_done_at: Vec<(Time, u64)>,
        recv_data: Vec<Option<Bytes>>,
        ud_dropped: u64,
        packets_sent: u64,
        packets_received: u64,
    }

    /// Run `a` and `b` on two HCAs cabled back to back with a DDR cable
    /// (the `TopoSpec::lan_pair` shape), over UD or connected RC QPs, and
    /// return each side's observations plus the trains the engine
    /// dispatched.
    fn ud_run(coalescing: bool, rc: bool, a: UdPeer, b: UdPeer) -> ([UdSide; 2], u64) {
        let mut fb = FabricBuilder::new(5);
        if !coalescing {
            fb.disable_coalescing();
        }
        let na = fb.add_hca(Box::new(a));
        let nb = fb.add_hca(Box::new(b));
        fb.link(na.actor, nb.actor, LinkConfig::ddr_lan());
        let mut f = fb.finish();
        let (qa, qb) = if rc {
            crate::perftest::rc_qp_pair(&mut f, na, nb, QpConfig::rc())
        } else {
            crate::perftest::ud_qp_pair(&mut f, na, nb, QpConfig::ud())
        };
        for (node, qpn, peer) in [(na, qa, (nb.lid, qb)), (nb, qb, (na.lid, qa))] {
            let u = f.hca_mut(node).ulp_mut::<UdPeer>();
            u.qpn = qpn;
            u.peer = Some(peer);
        }
        f.run();
        let side = |node, qpn| {
            let h = f.hca(node);
            let u = h.ulp::<UdPeer>();
            UdSide {
                send_done_at: u.send_done_at.clone(),
                recv_done_at: u.recv_done_at.clone(),
                recv_data: u.recv_data.clone(),
                ud_dropped: h.core().qp(qpn).ud_dropped(),
                packets_sent: h.core().packets_sent(),
                packets_received: h.core().packets_received(),
            }
        };
        let trains = f.engine.counters().trains_emitted;
        ([side(na, qa), side(nb, qb)], trains)
    }

    /// Datagram super-trains are exact: the same run with coalescing on and
    /// under [`FabricBuilder::disable_coalescing`] observes identical
    /// completions, drops and counters, and the coalesced leg formed trains.
    fn assert_ud_trains_exact(a: UdPeer, b: UdPeer) -> [UdSide; 2] {
        assert_trains_exact(false, a, b)
    }

    /// As [`assert_ud_trains_exact`], over UD (`rc == false`) or RC QPs.
    fn assert_trains_exact(rc: bool, a: UdPeer, b: UdPeer) -> [UdSide; 2] {
        let (coalesced, trains) = ud_run(true, rc, a.clone(), b.clone());
        let (per_datagram, none) = ud_run(false, rc, a, b);
        assert!(trains > 0, "the coalesced leg formed no trains");
        assert_eq!(none, 0, "the per-datagram leg formed trains");
        assert_eq!(coalesced, per_datagram);
        coalesced
    }

    #[test]
    fn ud_trains_are_exact_when_the_receiver_runs_out_of_wqes() {
        // 20 WQEs for a 64-datagram burst, never replenished.
        let [_, rx] =
            assert_ud_trains_exact(UdPeer::sender(1024, 64, 64), UdPeer::receiver(20, false));
        assert_eq!(rx.recv_done_at.len(), 20);
        assert_eq!(rx.ud_dropped, 44);
    }

    #[test]
    fn headered_ud_trains_are_exact_when_the_receiver_runs_out_of_wqes() {
        // The IPoIB-UD shape: every datagram carries its own 24-byte
        // header, which must reach the RecvDone of exactly its datagram.
        let tx = UdPeer {
            meta: true,
            ..UdPeer::sender(1024, 64, 64)
        };
        let [_, rx] = assert_ud_trains_exact(tx, UdPeer::receiver(20, false));
        assert_eq!(rx.ud_dropped, 44);
        let expect: Vec<_> = (0..20).map(|n| Some(header(n))).collect();
        assert_eq!(rx.recv_data, expect);
    }

    #[test]
    fn headered_whole_mtu_rc_sends_are_exact_under_replies() {
        // Four whole MTUs per message, each with its header at its tail:
        // one train per message, merged into send super-trains. The
        // receiver answers each message 2 µs after its RecvDone, while the
        // next train is arriving, as TCP over IPoIB acknowledges segments.
        let tx = UdPeer {
            meta: true,
            prepost: 32,
            repost: true,
            ..UdPeer::sender(4 * crate::types::DEFAULT_MTU, 200, 24)
        };
        let rx = UdPeer {
            meta: true,
            reply: Some((Dur::from_us(2), 64)),
            ..UdPeer::receiver(32, true)
        };
        let [tx, rx] = assert_trains_exact(true, tx, rx);
        assert_eq!(tx.send_done_at.len(), 200);
        let expect: Vec<_> = (0..200).map(|n| Some(header(n))).collect();
        assert_eq!(rx.recv_data, expect);
        assert_eq!(tx.recv_data, expect, "every reply arrives with its header");
    }

    #[test]
    fn ud_trains_are_exact_when_drops_hang_on_reposts() {
        // 32-byte datagrams arrive 300 ns apart (the posting overhead),
        // faster than a re-post lands (CQ_LATENCY + RECV_OVERHEAD = 700 ns),
        // so two WQEs recycled on each RecvDone cover some arrivals and not
        // others, and completion runs re-post ahead of their instants.
        let [_, rx] =
            assert_ud_trains_exact(UdPeer::sender(32, 400, 64), UdPeer::receiver(2, true));
        assert!(rx.ud_dropped > 0, "no drops: the case is vacuous");
        assert!(
            rx.recv_done_at.len() > 2,
            "no re-post was ever used: the case is vacuous"
        );
    }

    #[test]
    fn ud_trains_are_exact_when_a_dense_run_follows_a_sparse_one() {
        // 64 datagrams of 2048 bytes (1059 ns apart on DDR) and 64 of 32
        // bytes queued behind them (51 ns apart). The sparse phase's last
        // RecvDone run re-posts WQEs due after some of the dense run's
        // arrivals, so those arrivals drop although the queue already holds
        // the WQEs when the dense run's head arrives.
        let tx = UdPeer {
            len_from: Some((64, 32)),
            ..UdPeer::sender(2048, 128, 128)
        };
        let [_, rx] = assert_ud_trains_exact(tx, UdPeer::receiver(8, true));
        assert!(rx.ud_dropped > 0, "no drops: the case is vacuous");
    }

    #[test]
    fn ud_trains_are_exact_in_both_directions() {
        let a = UdPeer {
            prepost: 2,
            repost: true,
            ..UdPeer::sender(256, 300, 32)
        };
        let b = UdPeer {
            prepost: 64,
            repost: true,
            ..UdPeer::sender(256, 300, 32)
        };
        let [a, b] = assert_ud_trains_exact(a, b);
        assert_eq!(a.send_done_at.len(), 300);
        assert_eq!(b.send_done_at.len(), 300);
        assert!(a.ud_dropped > 0, "the shallow side never dropped");
        assert_eq!(b.ud_dropped, 0);
    }

    #[test]
    fn ud_trains_are_exact_for_zero_byte_datagrams() {
        let [tx, rx] =
            assert_ud_trains_exact(UdPeer::sender(0, 200, 32), UdPeer::receiver(8, true));
        assert_eq!(tx.send_done_at.len(), 200);
        assert_eq!(
            rx.recv_done_at.len() as u64 + rx.ud_dropped,
            200,
            "every datagram is received or dropped"
        );
    }

    #[test]
    fn packet_counters_track_acks_too() {
        let (mut f, a, c) = pair();
        f.hca_mut(a).ulp_mut::<Recorder>().to_send = vec![100, 100, 100];
        f.run();
        // 3 data packets out, 3 ACKs back.
        assert_eq!(f.hca(a).core().packets_sent(), 3);
        assert_eq!(f.hca(a).core().packets_received(), 3);
        assert_eq!(f.hca(c).core().packets_sent(), 3);
    }
}
