//! The Host Channel Adapter actor: owns the node's QPs, applies host timing
//! costs, moves packets to/from the wire, and dispatches completions to the
//! node's ULP.

use crate::link::{CreditMsg, EgressPort};
use crate::packet::{Opcode, Packet};
use crate::qp::{Qp, QpConfig, QpOutput, Qpn};
use crate::slab::QpSlab;
use crate::types::Lid;
use crate::ulp::Ulp;
use crate::verbs::{Completion, RecvWr, SendWr};
use simcore::{Actor, ActorId, Ctx, Dur, Rate, SerialResource, Time};
use std::any::Any;

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

/// Host-side timing parameters of an HCA + driver stack.
///
/// Calibrated so that back-to-back RC half-round-trip latency for small
/// messages lands near the few-microsecond DDR figures of the paper's
/// testbed, and so the Longbow pair adds its documented ~5 µs.
#[derive(Copy, Clone, Debug)]
pub struct HcaConfig {
    /// CPU cost to post one work request (descriptor write + doorbell).
    pub post_overhead: Dur,
    /// Latency from hardware completion to the ULP observing the CQE.
    pub cq_latency: Dur,
    /// Extra receive-side cost for channel semantics (recv-WQE consumption);
    /// RDMA operations skip it, which is why RDMA write latency beats
    /// send/recv in Figure 3.
    pub recv_overhead: Dur,
}

impl Default for HcaConfig {
    fn default() -> Self {
        HcaConfig {
            post_overhead: Dur::from_ns(300),
            cq_latency: Dur::from_ns(300),
            recv_overhead: Dur::from_ns(400),
        }
    }
}

/// The verbs-facing half of an HCA, handed to the ULP.
pub struct HcaCore {
    lid: Lid,
    cfg: HcaConfig,
    port: Option<EgressPort>,
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
}

/// A merged outgoing super-train waiting for the end of the current event.
struct PendingTrain {
    /// Earliest wire instant of the head message.
    ready: Time,
    /// The accumulated packet: `msgs` whole messages, `msg_gap_ns` apart.
    pkt: Packet,
}

impl HcaCore {
    /// New core with no port attached yet (the fabric builder wires it).
    pub fn new(lid: Lid, cfg: HcaConfig) -> Self {
        HcaCore {
            lid,
            cfg,
            port: None,
            qps: QpSlab::new(),
            host_cpu: SerialResource::new(Rate::INFINITE),
            packets_sent: 0,
            packets_received: 0,
            coalescing: true,
            pending: None,
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

    /// Host timing configuration.
    pub fn config(&self) -> HcaConfig {
        self.cfg
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
        let (_, ready) = self.host_cpu.reserve_dur(at, self.cfg.post_overhead);
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
    /// the per-member execution would have armed it.
    fn arm_if_requested_at(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn, out: &QpOutput, virt_now: Time) {
        debug_assert!(
            !(out.arm_retransmit && out.disarm_retransmit),
            "a QP cannot arm and disarm in the same output"
        );
        if out.arm_retransmit {
            let rto = self.qps.qp(qpn).config().rto;
            let delay = rto + (virt_now - ctx.now());
            let id = ctx.timer_cancellable(delay, RETRANSMIT_BASE + qpn.0 as u64);
            self.qps.arm_rto(qpn, id);
        }
        if out.disarm_retransmit {
            if let Some(id) = self.qps.take_rto(qpn) {
                ctx.cancel_timer(id);
            }
        }
    }

    /// A per-QP retransmission timer fired (routed by [`HcaActor`]).
    pub fn on_retransmit_timer(&mut self, ctx: &mut Ctx<'_>, qpn: Qpn) {
        self.qps.take_rto(qpn); // it just fired
        let mut out = self.qps.take_scratch();
        self.qps.qp_mut(qpn).on_retransmit_timer(&mut out);
        self.arm_if_requested(ctx, qpn, &out);
        let now = ctx.now();
        self.flush(ctx, now, &mut out);
        self.qps.put_scratch(out);
    }

    /// Post a receive WQE (no wire effect; negligible cost).
    pub fn post_recv(&mut self, qpn: Qpn, wr: RecvWr) {
        self.qp_mut(qpn).post_recv(wr);
    }

    /// Put QP outputs on the wire / completion path. `ready` is the earliest
    /// instant the packets may start serializing.
    fn flush(&mut self, ctx: &mut Ctx<'_>, ready: Time, out: &mut QpOutput) {
        for pkt in out.packets.drain(..) {
            self.packets_sent += pkt.count as u64;
            self.enqueue_tx(ctx, ready, pkt);
        }
        for c in out.completions.drain(..) {
            ctx.send(
                ctx.self_id(),
                Box::new(CompletionDelivery(c)),
                self.cfg.cq_latency,
            );
        }
        if !out.tx_completions.is_empty() {
            // Wire-out completions (UD sends): valid once this flush's
            // packets have finished serializing. UD packets are never
            // merge-eligible, so the pending buffer is already flushed and
            // `next_free` reflects them.
            let port = self.port.as_mut().expect("HCA port not wired");
            let tx_end = port.next_free().max(ctx.now());
            for c in out.tx_completions.drain(..) {
                ctx.send_at(
                    ctx.self_id(),
                    Box::new(CompletionDelivery(c)),
                    tx_end + self.cfg.cq_latency,
                );
            }
        }
    }

    /// Route one outgoing packet to the wire, merging consecutive
    /// whole-message trains of one flow into a two-level super-train when the
    /// port can carry them as a single event. Non-mergeable packets flush the
    /// pending train first, preserving the per-message reservation order.
    fn enqueue_tx(&mut self, ctx: &mut Ctx<'_>, ready: Time, pkt: Packet) {
        if self.try_extend_pending(ready, &pkt) {
            let pending = self.pending.as_mut().unwrap();
            if pending.pkt.msgs == 1 {
                pending.pkt.msg_gap_ns = (ready - pending.ready).as_ns();
                if pending.pkt.stride == 0 && pending.pkt.payload > 0 {
                    // Single-fragment members: the super-train invariants
                    // want `stride` to state the per-member coverage.
                    pending.pkt.stride = pending.pkt.payload;
                }
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
            self.pending = Some(PendingTrain { ready, pkt });
            return;
        }
        let port = self.port.as_mut().expect("HCA port not wired");
        port.send(ctx, ready, pkt);
    }

    /// Can `pkt` seed a pending super-train? Three shapes qualify, all fully
    /// described by `(msg_id, psn, msg_len, imm)` so a run of them is exactly
    /// reproducible from the merged representation:
    /// - silent whole-message RC write trains (no inline data, no receive
    ///   consumed, no immediate) — the forward path;
    /// - whole-message RC sends (including single-fragment small messages —
    ///   the `ib_send_bw` regime): the receiver replays each member at its
    ///   own virtual instant, so per-member receive-WQE consumption and
    ///   completion delivery survive the merge bit-for-bit;
    /// - hardware-generated cumulative ACKs — the control return path.
    fn merge_head_eligible(&self, pkt: &Packet) -> bool {
        if !(self.coalescing
            && self.port.as_ref().is_some_and(|p| !p.credited())
            && pkt.msgs == 1
            && pkt.data.is_none())
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
            Opcode::RcAck => pkt.count == 1,
            _ => false,
        }
    }

    /// Does `pkt`, ready at `ready`, extend the pending super-train? The run
    /// must stay contiguous in message id (and, for data, PSN), keep the same
    /// shape, and keep a uniform head spacing (established by the second
    /// message).
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
        // Single-fragment messages carry `stride == 0` on the wire; the
        // merged run normalizes its stride to `payload` (so the super-train
        // invariants hold), which the raw shape check must tolerate.
        let stride_ok = pkt.stride == p.stride || (f == 1 && pkt.stride == 0);
        if !(self.merge_head_eligible(pkt)
            && pkt.opcode == p.opcode
            && pkt.dst_lid == p.dst_lid
            && pkt.dst_qpn == p.dst_qpn
            && pkt.src_qpn == p.src_qpn
            && pkt.count == f
            && stride_ok
            && pkt.payload == p.payload
            && pkt.msg_len == p.msg_len
            && pkt.gap_ns == p.gap_ns
            && pkt.imm == p.imm
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
        let Some(pending) = self.pending.take() else {
            return;
        };
        let port = self.port.as_mut().expect("HCA port not wired");
        port.send(ctx, pending.ready, pending.pkt);
    }

    /// Handle a packet arriving from the wire.
    fn handle_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        debug_assert_eq!(pkt.dst_lid, self.lid, "packet routed to wrong HCA");
        if pkt.msgs > 1 {
            // A two-level super-train: replay each message at its own
            // virtual instant within this one event.
            return match pkt.opcode {
                Opcode::RcAck => self.handle_ack_run(ctx, pkt),
                Opcode::RcWrite { .. } | Opcode::RcSend { .. } => self.handle_super_train(ctx, pkt),
                _ => unreachable!("only RC data and ACK runs form super-trains"),
            };
        }
        if pkt.is_train() && pkt.gap_ns > 0 {
            // A train's head just arrived; its protocol outcome (cumulative
            // ACK, completion, assembly advance) belongs to the *tail*
            // arrival instant, exactly when the last per-fragment delivery
            // would have happened. Replay the outcome under the tail's
            // virtual clock right now instead of paying a second self-event:
            // the HCA's single full-duplex cable serializes arrivals, so no
            // other packet can land between head and tail anyway. The whole
            // train is counted here, once (the replayed call sees a train
            // and skips the per-packet count).
            self.packets_received += pkt.count as u64;
            let tail = ctx.now() + Dur::from_ns(pkt.gap_ns) * (pkt.count as u64 - 1);
            let mut pkt = pkt;
            pkt.gap_ns = 0;
            return ctx.at_instant(tail, |ctx| self.handle_packet(ctx, pkt));
        }
        if !pkt.is_train() {
            self.packets_received += 1;
        }
        let train_count = pkt.count;
        let qpn = pkt.dst_qpn;
        let consumes_recv = matches!(
            pkt.opcode,
            crate::packet::Opcode::UdSend | crate::packet::Opcode::RcSend { .. }
        );
        let mut out = self.qps.take_scratch();
        self.qps.qp_mut(qpn).on_packet(pkt, &mut out);
        self.arm_if_requested(ctx, qpn, &out);
        // ACKs / read responses leave immediately (hardware path, no host).
        let now = ctx.now();
        let extra = if consumes_recv {
            self.cfg.recv_overhead
        } else {
            Dur::ZERO
        };
        let port = self.port.as_mut().expect("HCA port not wired");
        if port.credited() {
            debug_assert_eq!(train_count, 1, "trains never cross credited links");
            // Our receive buffer is drained: return the link-level credit.
            let latency = port.config().latency;
            ctx.send(port.peer, Box::new(CreditMsg), latency);
        }
        for p in out.packets.drain(..) {
            self.packets_sent += p.count as u64;
            self.enqueue_tx(ctx, now, p);
        }
        for c in out.completions.drain(..) {
            ctx.send(
                ctx.self_id(),
                Box::new(CompletionDelivery(c)),
                self.cfg.cq_latency + extra,
            );
        }
        debug_assert!(
            out.tx_completions.is_empty(),
            "wire-out completions only arise from posting"
        );
        self.qps.put_scratch(out);
    }

    /// A run of whole data messages (silent writes or sends) arrived as one
    /// super-train: replay each message's protocol outcome at its own
    /// virtual tail instant, within this one event. The per-message
    /// cumulative ACKs merge into a single return-path ACK run via
    /// [`Self::enqueue_tx`].
    fn handle_super_train(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.packets_received += pkt.count as u64;
        debug_assert!(
            self.port.as_ref().is_some_and(|p| !p.credited()),
            "super-trains never cross credited links"
        );
        // Sends consume a receive WQE per member; silent writes don't. The
        // same per-completion surcharge the per-message path applies.
        let extra = if matches!(pkt.opcode, Opcode::RcSend { .. }) {
            self.cfg.recv_overhead
        } else {
            Dur::ZERO
        };
        let f = pkt.frags_per_msg();
        let qpn = pkt.dst_qpn;
        let head = ctx.now();
        let mut out = self.qps.take_scratch();
        let mut cqes: Vec<(Time, Completion)> = Vec::new();
        for m in 0..pkt.msgs {
            // The message's outcome belongs at its tail-fragment arrival,
            // exactly when the per-message train delivery would have run.
            let tail_m = head + Dur::from_ns(pkt.member_arrival_offset_ns((m + 1) * f - 1));
            self.qps.qp_mut(qpn).on_packet(pkt.msg_train(m), &mut out);
            self.arm_if_requested_at(ctx, qpn, &out, tail_m);
            for p in out.packets.drain(..) {
                self.packets_sent += p.count as u64;
                self.enqueue_tx(ctx, tail_m, p);
            }
            for c in out.completions.drain(..) {
                cqes.push((tail_m + self.cfg.cq_latency + extra, c));
            }
            debug_assert!(out.tx_completions.is_empty());
            out.reset();
        }
        self.qps.put_scratch(out);
        Self::emit_completions(ctx, cqes);
    }

    /// A cumulative-ACK run arrived as one event: replay each ACK at its own
    /// virtual arrival instant. Messages pumped out of the reopened window
    /// re-enter [`Self::enqueue_tx`] at those instants, so the forward path
    /// stays coalesced through steady state.
    fn handle_ack_run(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.packets_received += pkt.count as u64;
        debug_assert!(
            self.port.as_ref().is_some_and(|p| !p.credited()),
            "super-trains never cross credited links"
        );
        let qpn = pkt.dst_qpn;
        let head = ctx.now();
        let mut out = self.qps.take_scratch();
        let mut cqes: Vec<(Time, Completion)> = Vec::new();
        for k in 0..pkt.count {
            let a_k = head + Dur::from_ns(pkt.member_arrival_offset_ns(k));
            self.qps.qp_mut(qpn).on_packet(pkt.frag(k), &mut out);
            self.arm_if_requested_at(ctx, qpn, &out, a_k);
            for p in out.packets.drain(..) {
                self.packets_sent += p.count as u64;
                self.enqueue_tx(ctx, a_k, p);
            }
            for c in out.completions.drain(..) {
                // ACKs consume no receive WQE: no receive overhead.
                cqes.push((a_k + self.cfg.cq_latency, c));
            }
            debug_assert!(out.tx_completions.is_empty());
            out.reset();
        }
        self.qps.put_scratch(out);
        Self::emit_completions(ctx, cqes);
    }

    /// Deliver a replay loop's accumulated completions. A lone CQE takes the
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

    /// Attach the (single) port. Used by the fabric builder.
    pub fn attach_port(&mut self, egress: EgressPort) {
        assert!(self.port.is_none(), "HCA port already attached");
        self.port = Some(egress);
    }

    /// The neighbor actor this HCA's cable runs to.
    pub fn port_peer(&self) -> Option<ActorId> {
        self.port.as_ref().map(|p| p.peer)
    }
}

/// Internal self-message carrying a CQE to the ULP after `cq_latency`.
struct CompletionDelivery(Completion);

/// Internal self-message carrying a batch of CQEs whose delivery events were
/// coalesced into one. Formed by the super-train and ACK-run replay paths
/// when one train's replay yields several completions: the event pops at the
/// first member's instant and each `(at, cqe)` replays under
/// [`Ctx::at_instant`], so the ULP observes exactly the timestamps, timers,
/// and sends it would have produced from separate deliveries.
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
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, pkt: Packet) {
        self.core.handle_packet(ctx, pkt);
        self.core.flush_pending(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
        match msg.downcast::<CompletionDelivery>() {
            Ok(cd) => self.ulp.on_completion(&mut self.core, ctx, cd.0),
            Err(msg) => match msg.downcast::<CompletionRun>() {
                Ok(run) => {
                    ctx.note_control_run(run.0.len() as u32);
                    for (at, c) in run.0 {
                        ctx.at_instant(at, |ctx| self.ulp.on_completion(&mut self.core, ctx, c));
                    }
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
        let mut b = FabricBuilder::new(2);
        let a = b.add_hca(HcaConfig::default(), Box::new(Recorder::new()));
        let c = b.add_hca(HcaConfig::default(), Box::new(Recorder::new()));
        b.link(a.actor, c.actor, LinkConfig::ddr_lan());
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
    fn retransmit_token_space_is_disjoint_from_ulp_tokens() {
        // Compile-time invariants of the token layout.
        const _: () = assert!(RETRANSMIT_BASE > (1 << 32));
        const _: () = assert!(START_TOKEN > RETRANSMIT_BASE);
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
