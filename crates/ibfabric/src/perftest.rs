//! Verbs-level performance-test ULPs, mirroring the OFED `perftest` suite the
//! paper uses in Section 3.2 (`ib_send_lat`, `ib_send_bw`, `rdma_lat`, ...).
//!
//! Two ULPs cover the suite:
//!
//! * [`PingPong`] — latency test: strict request/response alternation; the
//!   reported figure is half the mean round-trip, exactly like `perftest`.
//! * [`BwPeer`] — bandwidth test: keeps `tx_depth` work requests outstanding
//!   until `iters` messages complete; unidirectional tests make one node a
//!   pure receiver, bidirectional tests configure both sides to transmit.

use crate::hca::HcaCore;
use crate::qp::{QpConfig, Qpn};
use crate::types::Lid;
use crate::ulp::Ulp;
use crate::verbs::{Completion, RecvWr, SendKind, SendWr};
use simcore::{Ctx, OnlineStats, Time};

/// Which latency flavour [`PingPong`] runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LatMode {
    /// Send/Recv over RC (`ib_send_lat -c RC`).
    SendRc,
    /// Send/Recv over UD (`ib_send_lat -c UD`).
    SendUd,
    /// RDMA Write over RC with memory polling (`rdma_lat`).
    WriteRc,
}

/// Ping-pong latency ULP. Place one on each node; mark one as initiator.
pub struct PingPong {
    /// QP to use (created during setup).
    pub qpn: Qpn,
    /// UD destination (LID, QPN) — required for [`LatMode::SendUd`].
    pub peer: Option<(Lid, Qpn)>,
    /// Latency mode.
    pub mode: LatMode,
    /// True on the side that starts each round.
    pub initiator: bool,
    /// Message size.
    pub size: u32,
    /// Rounds to run.
    pub iters: u32,
    sent_at: Time,
    rounds: u32,
    /// Half-round-trip samples, microseconds.
    pub samples: OnlineStats,
}

impl PingPong {
    /// New ping-pong endpoint (configure the public fields before running).
    pub fn new(mode: LatMode, initiator: bool, size: u32, iters: u32) -> Self {
        PingPong {
            qpn: Qpn(0),
            peer: None,
            mode,
            initiator,
            size,
            iters,
            sent_at: Time::ZERO,
            rounds: 0,
            samples: OnlineStats::new(),
        }
    }

    /// Mean one-way latency in microseconds (half mean RTT).
    pub fn mean_latency_us(&self) -> f64 {
        self.samples.mean()
    }

    fn fire(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        let wr = match self.mode {
            LatMode::SendRc => SendWr::send(0, self.size, 0),
            LatMode::SendUd => SendWr::send(0, self.size, 0)
                .to(self.peer.expect("UD ping-pong needs a peer address")),
            LatMode::WriteRc => SendWr::rdma_write(0, self.size),
        };
        self.sent_at = ctx.now();
        hca.post_send(ctx, self.qpn, wr);
    }

    fn on_arrival(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        if self.mode != LatMode::WriteRc {
            hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
        }
        if self.initiator {
            let rtt = ctx.now().since(self.sent_at);
            self.samples.push(rtt.as_us_f64() / 2.0);
            self.rounds += 1;
            if self.rounds < self.iters {
                self.fire(hca, ctx);
            }
        } else {
            self.fire(hca, ctx);
        }
    }
}

impl Ulp for PingPong {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        if self.mode != LatMode::WriteRc {
            hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
        }
        if self.initiator {
            self.fire(hca, ctx);
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        match c {
            Completion::RecvDone { .. } | Completion::WriteArrived { .. } => {
                self.on_arrival(hca, ctx)
            }
            Completion::SendDone { .. } => {}
        }
    }
}

/// Configuration for one side of a bandwidth test.
#[derive(Copy, Clone, Debug)]
pub struct BwConfig {
    /// Message size in bytes.
    pub size: u32,
    /// Messages to send.
    pub iters: u64,
    /// Work requests kept outstanding at the sender (perftest `--tx-depth`).
    pub tx_depth: usize,
    /// Send or RdmaWrite.
    pub kind: SendKind,
}

impl BwConfig {
    /// perftest-like defaults: depth 128, Send semantics.
    pub fn new(size: u32, iters: u64) -> Self {
        BwConfig {
            size,
            iters,
            tx_depth: 128,
            kind: SendKind::Send,
        }
    }
}

/// Bandwidth-test endpoint: optionally transmits, and sinks whatever arrives.
pub struct BwPeer {
    /// QP to use (created during setup).
    pub qpn: Qpn,
    /// UD destination (LID, QPN) for UD tests.
    pub peer: Option<(Lid, Qpn)>,
    /// Transmit role, if any.
    pub tx: Option<BwConfig>,
    posted: u64,
    completed: u64,
    started: Option<Time>,
    finished: Option<Time>,
    rx_count: u64,
    rx_bytes: u64,
    rx_first: Option<Time>,
    rx_last: Option<Time>,
    rx_posted: bool,
}

impl BwPeer {
    /// A transmitting endpoint.
    pub fn sender(cfg: BwConfig) -> Self {
        BwPeer {
            qpn: Qpn(0),
            peer: None,
            tx: Some(cfg),
            posted: 0,
            completed: 0,
            started: None,
            finished: None,
            rx_count: 0,
            rx_bytes: 0,
            rx_first: None,
            rx_last: None,
            rx_posted: false,
        }
    }

    /// A pure receiver.
    pub fn receiver() -> Self {
        BwPeer {
            qpn: Qpn(0),
            peer: None,
            tx: None,
            posted: 0,
            completed: 0,
            started: None,
            finished: None,
            rx_count: 0,
            rx_bytes: 0,
            rx_first: None,
            rx_last: None,
            rx_posted: false,
        }
    }

    /// Messages received.
    pub fn received(&self) -> u64 {
        self.rx_count
    }

    /// Receive-side goodput in MillionBytes/s over the arrival interval.
    /// This is the honest measure for UD, where the sender gets no
    /// feedback from a slower downstream (WAN) link.
    pub fn rx_bandwidth_mbs(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.rx_first, self.rx_last) else {
            return 0.0;
        };
        let d = t1.since(t0);
        if d.is_zero() {
            return 0.0;
        }
        self.rx_bytes as f64 / d.as_secs_f64() / 1e6
    }

    /// Sender-side goodput in MillionBytes/s over the completion interval.
    pub fn bandwidth_mbs(&self) -> f64 {
        let (Some(t0), Some(t1), Some(cfg)) = (self.started, self.finished, self.tx) else {
            return 0.0;
        };
        let dur = t1.since(t0);
        if dur.is_zero() {
            return 0.0;
        }
        (cfg.size as f64 * cfg.iters as f64) / dur.as_secs_f64() / 1e6
    }

    /// Time of the last send completion.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished
    }

    fn post_one(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        let cfg = self.tx.expect("post_one on a pure receiver");
        let mut wr = match cfg.kind {
            SendKind::Send => SendWr::send(self.posted, cfg.size, 0),
            SendKind::RdmaWrite => SendWr::rdma_write(self.posted, cfg.size),
            SendKind::RdmaRead => SendWr::rdma_read(self.posted, cfg.size),
        };
        if let Some(p) = self.peer {
            wr = wr.to(p);
        }
        hca.post_send(ctx, self.qpn, wr);
        self.posted += 1;
    }

    fn replenish_recvs(&mut self, hca: &mut HcaCore) {
        // Keep a deep pool of pre-posted receives, as perftest does.
        if !self.rx_posted {
            for _ in 0..512 {
                hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
            }
            self.rx_posted = true;
        }
    }
}

impl Ulp for BwPeer {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        self.replenish_recvs(hca);
        if let Some(cfg) = self.tx {
            self.started = Some(ctx.now());
            let burst = (cfg.tx_depth as u64).min(cfg.iters);
            for _ in 0..burst {
                self.post_one(hca, ctx);
            }
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        match c {
            Completion::SendDone { .. } => {
                self.completed += 1;
                let cfg = self.tx.expect("send completion on a pure receiver");
                if self.posted < cfg.iters {
                    self.post_one(hca, ctx);
                }
                if self.completed == cfg.iters {
                    self.finished = Some(ctx.now());
                }
            }
            Completion::RecvDone { len, .. } | Completion::WriteArrived { len, .. } => {
                self.rx_count += 1;
                self.rx_bytes += len as u64;
                if self.rx_first.is_none() {
                    self.rx_first = Some(ctx.now());
                }
                self.rx_last = Some(ctx.now());
                // Re-post the consumed receive.
                hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
            }
        }
    }
}

/// Create and connect an RC QP pair between two already-built nodes.
///
/// Returns the QPNs on `(a, b)`.
pub fn rc_qp_pair(
    fabric: &mut crate::fabric::Fabric,
    a: crate::fabric::NodeHandle,
    b: crate::fabric::NodeHandle,
    cfg: QpConfig,
) -> (Qpn, Qpn) {
    let qa = fabric.hca_mut(a).core_mut().create_qp(cfg);
    let qb = fabric.hca_mut(b).core_mut().create_qp(cfg);
    fabric.hca_mut(a).core_mut().connect(qa, (b.lid, qb));
    fabric.hca_mut(b).core_mut().connect(qb, (a.lid, qa));
    (qa, qb)
}

/// Create (unconnected) UD QPs on two nodes; returns `(a, b)` QPNs.
pub fn ud_qp_pair(
    fabric: &mut crate::fabric::Fabric,
    a: crate::fabric::NodeHandle,
    b: crate::fabric::NodeHandle,
    cfg: QpConfig,
) -> (Qpn, Qpn) {
    let qa = fabric.hca_mut(a).core_mut().create_qp(cfg);
    let qb = fabric.hca_mut(b).core_mut().create_qp(cfg);
    (qa, qb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricBuilder, NodeHandle};
    use crate::hca::HcaActor;
    use crate::link::LinkConfig;

    fn back_to_back(ulp_a: Box<dyn Ulp>, ulp_b: Box<dyn Ulp>) -> (Fabric, NodeHandle, NodeHandle) {
        let mut b = FabricBuilder::new(3);
        let n1 = b.add_hca(ulp_a);
        let n2 = b.add_hca(ulp_b);
        b.link(n1.actor, n2.actor, LinkConfig::ddr_lan());
        let f = b.finish();
        (f, n1, n2)
    }

    #[test]
    fn send_latency_back_to_back_is_microseconds() {
        let (mut f, a, b) = back_to_back(
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 100)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 100)),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        let lat = f.hca(a).ulp::<PingPong>().mean_latency_us();
        // DDR back-to-back small-message half-RTT: a few microseconds.
        assert!(lat > 0.5 && lat < 5.0, "latency {lat} us");
        assert_eq!(f.hca(a).ulp::<PingPong>().samples.count(), 100);
    }

    /// Each round quiesces both QPs, which disarm their retransmission
    /// timers, and re-arms them on the next send. Each QP keeps one timer
    /// event queued, re-queued from its deadline, so the queue stays a few
    /// events deep over all 1,000 rounds.
    #[test]
    fn rc_ping_pong_keeps_the_event_queue_shallow() {
        let (mut f, a, b) = back_to_back(
            Box::new(PingPong::new(LatMode::SendRc, true, 64, 1000)),
            Box::new(PingPong::new(LatMode::SendRc, false, 64, 1000)),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        let pp = f.hca(a).ulp::<PingPong>();
        assert_eq!(pp.samples.count(), 1000);
        // Pinned: how the timer events are queued must not move a latency.
        assert_eq!(pp.mean_latency_us(), 1.153);
        let peak = f.report().engine_counters.peak_queue_len;
        assert!(peak <= 8, "{peak} queue residents");
    }

    #[test]
    fn write_latency_beats_send_latency() {
        let (mut f, a, b) = back_to_back(
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 50)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 50)),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        let send_lat = f.hca(a).ulp::<PingPong>().mean_latency_us();

        let (mut f2, a2, b2) = back_to_back(
            Box::new(PingPong::new(LatMode::WriteRc, true, 4, 50)),
            Box::new(PingPong::new(LatMode::WriteRc, false, 4, 50)),
        );
        let (qa2, qb2) = rc_qp_pair(&mut f2, a2, b2, QpConfig::rc().with_write_notify());
        f2.hca_mut(a2).ulp_mut::<PingPong>().qpn = qa2;
        f2.hca_mut(b2).ulp_mut::<PingPong>().qpn = qb2;
        f2.run();
        let write_lat = f2.hca(a2).ulp::<PingPong>().mean_latency_us();
        assert!(
            write_lat < send_lat,
            "RDMA write ({write_lat}) should beat send/recv ({send_lat})"
        );
    }

    #[test]
    fn ud_latency_round_trips() {
        let (mut f, a, b) = back_to_back(
            Box::new(PingPong::new(LatMode::SendUd, true, 4, 50)),
            Box::new(PingPong::new(LatMode::SendUd, false, 4, 50)),
        );
        let (qa, qb) = ud_qp_pair(&mut f, a, b, QpConfig::ud());
        {
            let h = f.hca_mut(a).ulp_mut::<PingPong>();
            h.qpn = qa;
            h.peer = Some((b.lid, qb));
        }
        {
            let h = f.hca_mut(b).ulp_mut::<PingPong>();
            h.qpn = qb;
            h.peer = Some((a.lid, qa));
        }
        f.run();
        assert_eq!(f.hca(a).ulp::<PingPong>().samples.count(), 50);
    }

    #[test]
    fn rc_bandwidth_approaches_line_rate_on_lan() {
        let (mut f, a, b) = back_to_back(
            Box::new(BwPeer::sender(BwConfig::new(65536, 400))),
            Box::new(BwPeer::receiver()),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        let bw = f.hca(a).ulp::<BwPeer>().bandwidth_mbs();
        // DDR LAN line rate is 2000 MB/s; with headers ~1959 max.
        assert!(bw > 1700.0 && bw < 2000.0, "bw {bw}");
        assert_eq!(f.hca(b).ulp::<BwPeer>().received(), 400);
    }

    #[test]
    fn hca_counts_packets() {
        let (mut f, a, b) = back_to_back(
            Box::new(BwPeer::sender(BwConfig::new(2048, 10))),
            Box::new(BwPeer::receiver()),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        let tx: &HcaActor = f.hca(a);
        assert_eq!(tx.core().packets_sent(), 10); // 10 data packets
        assert_eq!(tx.core().packets_received(), 10); // 10 ACKs
    }
}
