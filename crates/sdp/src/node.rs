//! TTCP-style SDP streaming endpoint (the reference-\[19\] workload).

use crate::socket::{SdpConfig, SdpEvent, SdpSocket};
use ibfabric::hca::HcaCore;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::Completion;
use simcore::{Ctx, Time};

/// An SDP node: streams `count` application messages of `msg_size` bytes to
/// its peer (sender role), or sinks them (receiver role).
pub struct SdpNode {
    /// The socket (set `socket.qpn` after QP creation).
    pub socket: SdpSocket,
    msg_size: u32,
    to_send: u64,
    first_byte_at: Option<Time>,
    last_byte_at: Option<Time>,
}

impl SdpNode {
    /// A sender of `count` messages of `msg_size` bytes.
    pub fn sender(cfg: SdpConfig, msg_size: u32, count: u64) -> Self {
        SdpNode {
            socket: SdpSocket::new(cfg),
            msg_size,
            to_send: count,
            first_byte_at: None,
            last_byte_at: None,
        }
    }

    /// A pure receiver.
    pub fn receiver(cfg: SdpConfig) -> Self {
        SdpNode {
            socket: SdpSocket::new(cfg),
            msg_size: 0,
            to_send: 0,
            first_byte_at: None,
            last_byte_at: None,
        }
    }

    /// Bytes delivered to this endpoint.
    pub fn delivered(&self) -> u64 {
        self.socket.delivered()
    }

    /// Receive-side goodput in MB/s.
    pub fn throughput_mbs(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.first_byte_at, self.last_byte_at) else {
            return 0.0;
        };
        let d = t1.since(t0);
        if d.is_zero() {
            return 0.0;
        }
        self.delivered() as f64 / d.as_secs_f64() / 1e6
    }
}

impl Ulp for SdpNode {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        self.socket.setup(hca);
        for _ in 0..self.to_send {
            self.socket.app_send(hca, ctx, self.msg_size);
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        if let Some(SdpEvent::Delivered(_)) = self.socket.on_completion(hca, ctx, &c) {
            if self.first_byte_at.is_none() {
                self.first_byte_at = Some(ctx.now());
            }
            self.last_byte_at = Some(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::fabric::{Fabric, NodeHandle};
    use ibfabric::perftest::rc_qp_pair;
    use ibfabric::qp::QpConfig;
    use ibtopo::TopoSpec;
    use simcore::Dur;

    fn wan_pair(
        delay: Dur,
        tx: Box<SdpNode>,
        rx: Box<SdpNode>,
    ) -> (Fabric, NodeHandle, NodeHandle) {
        let (mut f, a, c) = TopoSpec::two_site(delay).build_pair(19, true, tx, rx);
        let (qa, qb) = rc_qp_pair(&mut f, a, c, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<SdpNode>().socket.qpn = qa;
        f.hca_mut(c).ulp_mut::<SdpNode>().socket.qpn = qb;
        (f, a, c)
    }

    fn run_stream(delay: Dur, msg_size: u32, count: u64) -> f64 {
        let (mut f, _a, c) = wan_pair(
            delay,
            Box::new(SdpNode::sender(SdpConfig::default(), msg_size, count)),
            Box::new(SdpNode::receiver(SdpConfig::default())),
        );
        f.run();
        let rx = f.hca(c).ulp::<SdpNode>();
        assert_eq!(rx.delivered(), msg_size as u64 * count, "exact delivery");
        rx.throughput_mbs()
    }

    #[test]
    fn bcopy_delivers_and_peaks_near_wire() {
        // 32 KB messages stay below the ZCopy threshold.
        let bw = run_stream(Dur::ZERO, 32768, 600);
        assert!(bw > 850.0 && bw < 1000.0, "SDP bcopy peak {bw}");
    }

    #[test]
    fn zcopy_delivers_large_messages() {
        let bw = run_stream(Dur::ZERO, 1 << 20, 48);
        assert!(bw > 850.0, "SDP zcopy peak {bw}");
    }

    #[test]
    fn bcopy_credit_loop_throttles_on_the_wan() {
        // 16 credits x 8 KB over a 2 ms RTT: ~64 MB/s ceiling.
        let bw = run_stream(Dur::from_ms(1), 32768, 400);
        assert!(bw < 100.0, "bcopy at 1 ms should be credit-bound: {bw}");
    }

    #[test]
    fn zcopy_rides_through_moderate_delay() {
        // Large pulls keep the pipe fuller than the bcopy credit loop.
        let bcopy = run_stream(Dur::from_ms(1), 32768, 200);
        let zcopy = run_stream(Dur::from_ms(1), 1 << 20, 32);
        assert!(
            zcopy > 3.0 * bcopy,
            "zcopy ({zcopy}) should far outrun bcopy ({bcopy}) at 1 ms"
        );
    }

    #[test]
    fn sdp_beats_ipoib_latency_class_costs() {
        // SDP's only per-message costs are copies; a 32 KB stream on the
        // LAN should clear the IPoIB-UD host-processing ceiling (~470).
        let bw = run_stream(Dur::ZERO, 32768, 400);
        assert!(bw > 600.0, "SDP should beat the IPoIB-UD cap: {bw}");
    }
}
