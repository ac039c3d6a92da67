//! An embeddable IPoIB port: the netdev + TCP plumbing shared by the
//! iperf-style endpoint ([`crate::IpoibNode`]) and the NFS-over-IPoIB
//! client/server (`nfssim`).
//!
//! A port owns one QP to one peer node and `n` TCP connections across it.
//! The owning ULP forwards HCA completions and timer events; the port hands
//! back in-order byte deliveries per stream, which the owner parses with its
//! own framing (iperf: raw bytes; NFS: RPC records).

use crate::node::{IpoibConfig, IpoibMode};
use crate::wire::SegmentHeader;
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::types::Lid;
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use simcore::{Ctx, Dur, Rate, SerialResource};
use std::collections::VecDeque;
use tcpstack::{TcpConfig, TcpConn, TcpSegment};

/// Timer token the owning ULP must route to [`IpoibPort::on_timer`]:
/// deferred receive processing.
pub const TOKEN_IPOIB_RX: u64 = 5;
/// Timer token the owning ULP must route to [`IpoibPort::on_timer`]: the
/// delayed-ACK timer (fires when data arrived but the every-2-segments ACK
/// threshold was never reached — e.g. at the end of a transfer).
pub const TOKEN_IPOIB_DACK: u64 = 7;

/// Delayed-ACK timeout (Linux's ~40 ms).
const DELAYED_ACK: Dur = Dur::from_ms(40);

/// Fixed host cost per IP packet (interrupt + stack traversal).
const PER_PACKET_CPU: Dur = Dur::from_ns(2200);
/// Per-byte host cost (checksums + copies), as a processing rate.
const PER_BYTE_CPU: Rate = Rate::from_ps_per_byte(1000);

/// Host work to send or receive one IP packet of `len` bytes.
fn packet_cpu(len: u32) -> Dur {
    PER_PACKET_CPU + PER_BYTE_CPU.tx_time(len as u64)
}

/// Bytes delivered in order on one TCP stream.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamDelivery {
    /// Stream index.
    pub stream: u32,
    /// Newly delivered bytes.
    pub newly: u64,
}

/// One IPoIB netdev + TCP stack instance towards a single peer node.
pub struct IpoibPort {
    /// Device parameters.
    pub cfg: IpoibConfig,
    /// QP carrying this port's IP traffic (set after QP creation).
    pub qpn: Qpn,
    /// Peer address (required for UD mode).
    pub peer: Option<(Lid, Qpn)>,
    streams: Vec<TcpConn>,
    tx_cpu: SerialResource,
    rx_cpu: SerialResource,
    deferred: VecDeque<SegmentHeader>,
    packets_rx: u64,
    dack_armed: bool,
}

impl IpoibPort {
    /// A port with `n_streams` TCP connections configured by `tcp`.
    pub fn new(cfg: IpoibConfig, tcp: TcpConfig, n_streams: usize) -> Self {
        assert!(
            tcp.mss + tcpstack::TCP_IP_HEADER <= cfg.mtu,
            "TCP MSS must fit the IPoIB MTU"
        );
        IpoibPort {
            cfg,
            qpn: Qpn(0),
            peer: None,
            streams: (0..n_streams).map(|_| TcpConn::new(tcp)).collect(),
            tx_cpu: SerialResource::new(Rate::INFINITE),
            rx_cpu: SerialResource::new(Rate::INFINITE),
            deferred: VecDeque::new(),
            packets_rx: 0,
            dack_armed: false,
        }
    }

    /// Number of TCP streams.
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// Borrow a stream's TCP connection (delivered/acked counters).
    pub fn stream(&self, idx: usize) -> &TcpConn {
        &self.streams[idx]
    }

    /// IP packets received on this port.
    pub fn packets_received(&self) -> u64 {
        self.packets_rx
    }

    /// Pre-post the receive pool. Call once from the owner's `start`.
    pub fn setup(&mut self, hca: &mut HcaCore) {
        for _ in 0..2048 {
            hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
        }
    }

    /// Application enqueues `bytes` on `stream` and the port transmits as
    /// the window allows.
    pub fn app_send(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, stream: usize, bytes: u64) {
        self.streams[stream].app_send(bytes);
        self.drain_tx(hca, ctx);
    }

    fn send_segment(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, stream: u32, seg: TcpSegment) {
        let wire_len = seg.wire_bytes() as u32;
        debug_assert!(wire_len <= self.cfg.mtu, "segment exceeds IP MTU");
        let (_, ready) = self.tx_cpu.reserve_dur(ctx.now(), packet_cpu(wire_len));
        let header = SegmentHeader {
            stream,
            segment: seg,
        }
        .encode();
        let mut wr = SendWr::send(0, wire_len, 0).with_meta(header);
        if self.cfg.mode == IpoibMode::Ud {
            wr = wr.to(self.peer.expect("UD IPoIB needs a peer address"));
        }
        hca.post_send_after(ctx, self.qpn, wr, ready);
    }

    /// Transmit every eligible segment (round-robin across streams).
    pub fn drain_tx(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        loop {
            let mut any = false;
            for i in 0..self.streams.len() {
                if let Some(seg) = self.streams[i].poll_tx() {
                    self.send_segment(hca, ctx, i as u32, seg);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    /// Flush a pending delayed ACK on `stream` (owner knows a message
    /// boundary was reached).
    pub fn force_ack(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, stream: usize) {
        self.streams[stream].force_ack();
        self.drain_tx(hca, ctx);
    }

    /// Offer an HCA completion to the port. Returns `true` if it belonged to
    /// this port's QP and was consumed.
    pub fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: &Completion) -> bool {
        match c {
            Completion::RecvDone { qpn, data, len, .. } if *qpn == self.qpn => {
                self.packets_rx += 1;
                hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
                let header =
                    SegmentHeader::decode(data.as_ref().expect("IPoIB message without header"));
                let (_, finish) = self.rx_cpu.reserve_dur(ctx.now(), packet_cpu(*len));
                self.deferred.push_back(header);
                ctx.timer_at(finish, TOKEN_IPOIB_RX);
                true
            }
            Completion::SendDone { qpn, .. } if *qpn == self.qpn => true,
            _ => false,
        }
    }

    /// Route [`TOKEN_IPOIB_RX`] and [`TOKEN_IPOIB_DACK`] timers here;
    /// returns any in-order delivery.
    pub fn on_timer(
        &mut self,
        hca: &mut HcaCore,
        ctx: &mut Ctx<'_>,
        token: u64,
    ) -> Option<StreamDelivery> {
        if token == TOKEN_IPOIB_DACK {
            self.dack_armed = false;
            for conn in &mut self.streams {
                conn.force_ack();
            }
            self.drain_tx(hca, ctx);
            return None;
        }
        debug_assert_eq!(token, TOKEN_IPOIB_RX);
        let h = self.deferred.pop_front()?;
        let conn = &mut self.streams[h.stream as usize];
        let newly = conn.on_segment(h.segment);
        self.drain_tx(hca, ctx);
        // Guarantee ACK progress even if the every-2-segments threshold is
        // never reached again (delayed-ACK timer).
        if self.streams[h.stream as usize].ack_outstanding() && !self.dack_armed {
            self.dack_armed = true;
            ctx.timer(DELAYED_ACK, TOKEN_IPOIB_DACK);
        }
        if newly > 0 {
            Some(StreamDelivery {
                stream: h.stream,
                newly,
            })
        } else {
            None
        }
    }
}
