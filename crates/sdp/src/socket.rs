//! The SDP socket: stream semantics over one RC QP, with credit-managed
//! BCopy buffers and SrcAvail/RDMA-read ZCopy.

use crate::wire::{SdpWire, BSDH_BYTES, SDP_CTRL_BYTES};
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::verbs::{Completion, RecvWr, SendKind, SendWr};
use simcore::{Ctx, Rate, SerialResource};
use std::collections::{HashMap, VecDeque};

/// SDP socket parameters.
#[derive(Copy, Clone, Debug)]
pub struct SdpConfig {
    /// Private receive-buffer size (BCopy granularity).
    pub buf_size: u32,
    /// Private-buffer credits granted by the receiver.
    pub send_credits: u32,
    /// Application sends at or above this size use the ZCopy path.
    pub zcopy_threshold: u32,
    /// Memcpy rate for BCopy copies (both sides).
    pub copy_rate: Rate,
    /// Return credits after this many drained buffers.
    pub credit_batch: u32,
}

impl Default for SdpConfig {
    fn default() -> Self {
        SdpConfig {
            buf_size: 8192,
            send_credits: 16,
            zcopy_threshold: 65536,
            copy_rate: Rate::from_ps_per_byte(250),
            credit_batch: 4,
        }
    }
}

/// Events surfaced to the owning application.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SdpEvent {
    /// Bytes arrived in order at the receiver.
    Delivered(u64),
    /// A ZCopy send was fully pulled by the peer.
    ZcopyComplete(u64),
}

/// One SDP socket endpoint (embed in a ULP; forward completions here).
pub struct SdpSocket {
    cfg: SdpConfig,
    /// The RC QP carrying this socket (set after QP creation).
    pub qpn: Qpn,
    // --- send side ---
    credits: u32,
    bcopy_queue: VecDeque<u32>,
    cpu: SerialResource,
    next_srcavail: u32,
    zcopy_outstanding: HashMap<u32, u64>,
    // --- receive side ---
    drained_since_credit: u32,
    read_of_wr: HashMap<u64, (u32, u64)>,
    next_wr: u64,
    delivered: u64,
}

impl SdpSocket {
    /// A fresh socket.
    pub fn new(cfg: SdpConfig) -> Self {
        SdpSocket {
            cfg,
            qpn: Qpn(0),
            credits: cfg.send_credits,
            bcopy_queue: VecDeque::new(),
            cpu: SerialResource::new(Rate::INFINITE),
            next_srcavail: 1,
            zcopy_outstanding: HashMap::new(),
            drained_since_credit: 0,
            read_of_wr: HashMap::new(),
            next_wr: 1,
            delivered: 0,
        }
    }

    /// Bytes delivered in order to this endpoint.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Pre-post the receive pool. Call once at start.
    pub fn setup(&mut self, hca: &mut HcaCore) {
        for _ in 0..2048 {
            hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
        }
    }

    /// Application `send()` of one message of `len` bytes: BCopy below the
    /// threshold, ZCopy (SrcAvail) at or above it.
    pub fn app_send(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, len: u32) {
        if len >= self.cfg.zcopy_threshold {
            let id = self.next_srcavail;
            self.next_srcavail += 1;
            self.zcopy_outstanding.insert(id, len as u64);
            let wr = SendWr::send(0, SDP_CTRL_BYTES, 0)
                .with_meta(SdpWire::SrcAvail { id, len }.encode());
            hca.post_send(ctx, self.qpn, wr);
        } else {
            // Chunk into private buffers and push through the credit gate.
            let mut remaining = len;
            while remaining > 0 {
                let piece = remaining.min(self.cfg.buf_size);
                self.bcopy_queue.push_back(piece);
                remaining -= piece;
            }
            self.pump_bcopy(hca, ctx);
        }
    }

    fn pump_bcopy(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        while self.credits > 0 {
            let Some(piece) = self.bcopy_queue.pop_front() else {
                break;
            };
            self.credits -= 1;
            // Copy into the private buffer, then send.
            let (_, ready) = self
                .cpu
                .reserve_dur(ctx.now(), self.cfg.copy_rate.tx_time(piece as u64));
            let wr = SendWr::send(0, piece + BSDH_BYTES, 0)
                .with_meta(SdpWire::Data { len: piece }.encode());
            hca.post_send_after(ctx, self.qpn, wr, ready);
        }
    }

    fn on_data(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, len: u32) -> SdpEvent {
        // Copy out of the private buffer; the freed buffer's credit returns
        // once the copy is done (batched).
        let (_, fin) = self
            .cpu
            .reserve_dur(ctx.now(), self.cfg.copy_rate.tx_time(len as u64));
        self.delivered += len as u64;
        self.drained_since_credit += 1;
        if self.drained_since_credit >= self.cfg.credit_batch {
            let n = self.drained_since_credit;
            self.drained_since_credit = 0;
            let wr =
                SendWr::send(0, SDP_CTRL_BYTES, 0).with_meta(SdpWire::CreditUpdate { n }.encode());
            hca.post_send_after(ctx, self.qpn, wr, fin);
        }
        SdpEvent::Delivered(len as u64)
    }

    /// Feed an HCA completion belonging to this socket's QP. Returns an
    /// application-visible event, if any.
    pub fn on_completion(
        &mut self,
        hca: &mut HcaCore,
        ctx: &mut Ctx<'_>,
        c: &Completion,
    ) -> Option<SdpEvent> {
        match c {
            Completion::RecvDone { qpn, data, .. } if *qpn == self.qpn => {
                hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
                match SdpWire::decode(data.as_ref().expect("SDP message without header")) {
                    SdpWire::Data { len } => Some(self.on_data(hca, ctx, len)),
                    SdpWire::CreditUpdate { n } => {
                        self.credits += n;
                        self.pump_bcopy(hca, ctx);
                        None
                    }
                    SdpWire::SrcAvail { id, len } => {
                        // Pull the advertised bytes with one RDMA read.
                        let wr_id = self.next_wr;
                        self.next_wr += 1;
                        self.read_of_wr.insert(wr_id, (id, len as u64));
                        hca.post_send(ctx, self.qpn, SendWr::rdma_read(wr_id, len));
                        None
                    }
                    SdpWire::RdmaRdCompl { id } => {
                        let len = self
                            .zcopy_outstanding
                            .remove(&id)
                            .expect("RdmaRdCompl for unknown SrcAvail");
                        Some(SdpEvent::ZcopyComplete(len))
                    }
                }
            }
            Completion::SendDone {
                qpn, wr_id, kind, ..
            } if *qpn == self.qpn && *kind == SendKind::RdmaRead => {
                // Our pull of a SrcAvail finished: data delivered, tell peer.
                let (id, len) = self
                    .read_of_wr
                    .remove(wr_id)
                    .expect("read completion for unknown pull");
                self.delivered += len;
                let wr = SendWr::send(0, SDP_CTRL_BYTES, 0)
                    .with_meta(SdpWire::RdmaRdCompl { id }.encode());
                hca.post_send(ctx, self.qpn, wr);
                Some(SdpEvent::Delivered(len))
            }
            Completion::SendDone { qpn, .. } if *qpn == self.qpn => None,
            _ => None,
        }
    }

    /// Current send credits (diagnostics).
    pub fn credits(&self) -> u32 {
        self.credits
    }
}
