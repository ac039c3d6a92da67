//! The IPoIB streaming endpoint: an iperf-style byte-pump application on an
//! [`IpoibPort`]. This is the workload behind Figures 6 and 7 of the paper.

use crate::port::IpoibPort;
use ibfabric::hca::HcaCore;
use ibfabric::qp::QpConfig;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::Completion;
use simcore::{Ctx, Dur, Time, TimeSeries};
use tcpstack::TcpConfig;

/// Largest IP packet connected mode carries, in bytes: its MTU's bound.
pub const MAX_IP_PACKET: u32 = 65536;

/// Which IB transport carries the IP packets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IpoibMode {
    /// Datagram mode over UD: 2 KB MTU, no transport window.
    Ud,
    /// Connected mode over RC: large MTU (up to 64 KB), RC-windowed.
    Rc,
}

/// IPoIB device parameters.
#[derive(Copy, Clone, Debug)]
pub struct IpoibConfig {
    /// Transport mode.
    pub mode: IpoibMode,
    /// IP MTU (one IP packet per IB message). UD caps at the IB MTU (2 KB);
    /// RC allows up to 64 KB (the maximum IP packet size).
    pub mtu: u32,
}

impl IpoibConfig {
    /// Datagram-mode defaults (2 KB MTU), calibrated so a single warm stream
    /// peaks near 480 MB/s — well below the 967 MB/s verbs UD peak, matching
    /// the TCP-stack-overhead gap the paper reports.
    pub fn ud() -> Self {
        IpoibConfig {
            mode: IpoibMode::Ud,
            mtu: 2048,
        }
    }

    /// Connected-mode defaults with the given IP MTU (2 KB / 16 KB / 64 KB in
    /// Figure 7(a)).
    pub fn rc(mtu: u32) -> Self {
        assert!(mtu <= MAX_IP_PACKET, "max IP packet is 64 KB");
        IpoibConfig {
            mode: IpoibMode::Rc,
            mtu,
        }
    }

    /// The QP configuration this device needs.
    pub fn qp_config(&self) -> QpConfig {
        match self.mode {
            IpoibMode::Ud => {
                assert!(self.mtu <= 2048, "UD mode is capped at the 2 KB IB MTU");
                QpConfig::ud()
            }
            IpoibMode::Rc => QpConfig::rc(),
        }
    }
}

/// An IPoIB node ULP: `n` TCP streams to a peer node with an iperf-style
/// byte-pump application.
///
/// Create with [`IpoibNode::sender`] / [`IpoibNode::receiver`], then set
/// `port.qpn` and (for UD mode) `port.peer` after creating the QPs.
pub struct IpoibNode {
    /// The netdev + TCP stack (configure `qpn`/`peer` after QP creation).
    pub port: IpoibPort,
    bytes_per_stream: u64,
    expected_per_stream: u64,
    first_byte_at: Option<Time>,
    last_byte_at: Option<Time>,
    delivered_total: u64,
    sampler: Option<TimeSeries>,
}

impl IpoibNode {
    /// A node that streams `bytes_per_stream` on each of `n_streams` TCP
    /// connections to its peer.
    pub fn sender(
        cfg: IpoibConfig,
        tcp: TcpConfig,
        n_streams: usize,
        bytes_per_stream: u64,
    ) -> Self {
        IpoibNode {
            port: IpoibPort::new(cfg, tcp, n_streams),
            bytes_per_stream,
            expected_per_stream: 0,
            first_byte_at: None,
            last_byte_at: None,
            delivered_total: 0,
            sampler: None,
        }
    }

    /// A node that sinks `n_streams` connections, expecting
    /// `bytes_per_stream` on each (used to flush the final ACK).
    pub fn receiver(
        cfg: IpoibConfig,
        tcp: TcpConfig,
        n_streams: usize,
        bytes_per_stream: u64,
    ) -> Self {
        IpoibNode {
            port: IpoibPort::new(cfg, tcp, n_streams),
            bytes_per_stream: 0,
            expected_per_stream: bytes_per_stream,
            first_byte_at: None,
            last_byte_at: None,
            delivered_total: 0,
            sampler: None,
        }
    }

    /// Total application bytes delivered in order to this node.
    pub fn delivered(&self) -> u64 {
        self.delivered_total
    }

    /// Receive-side goodput in MillionBytes/s between the first and last
    /// delivered byte.
    pub fn throughput_mbs(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.first_byte_at, self.last_byte_at) else {
            return 0.0;
        };
        let d = t1.since(t0);
        if d.is_zero() {
            return 0.0;
        }
        self.delivered_total as f64 / d.as_secs_f64() / 1e6
    }

    /// IP packets this node received.
    pub fn packets_received(&self) -> u64 {
        self.port.packets_received()
    }

    /// Sample delivered bandwidth over time into buckets of `bucket` width
    /// (enable before running; read back with [`IpoibNode::samples`]).
    pub fn enable_sampling(&mut self, bucket: Dur) {
        self.sampler = Some(TimeSeries::new(bucket));
    }

    /// The bandwidth-over-time samples, if sampling was enabled.
    pub fn samples(&self) -> Option<&TimeSeries> {
        self.sampler.as_ref()
    }
}

impl Ulp for IpoibNode {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        self.port.setup(hca);
        if self.bytes_per_stream > 0 {
            for i in 0..self.port.n_streams() {
                self.port.app_send(hca, ctx, i, self.bytes_per_stream);
            }
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        let handled = self.port.on_completion(hca, ctx, &c);
        debug_assert!(handled, "IPoIB node received a foreign completion");
    }

    fn on_timer(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(d) = self.port.on_timer(hca, ctx, token) {
            self.delivered_total += d.newly;
            if let Some(ts) = self.sampler.as_mut() {
                ts.record(ctx.now(), d.newly);
            }
            if self.first_byte_at.is_none() {
                self.first_byte_at = Some(ctx.now());
            }
            self.last_byte_at = Some(ctx.now());
            if self.expected_per_stream > 0
                && self.port.stream(d.stream as usize).delivered() >= self.expected_per_stream
            {
                self.port.force_ack(hca, ctx, d.stream as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::fabric::{Fabric, NodeHandle};
    use ibfabric::link::LinkConfig;
    use ibtopo::{SiteSpec, TopoSpec};

    /// Two IPoIB nodes joined by a single cable with the given parameters.
    fn pair(
        cfg: IpoibConfig,
        tcp: TcpConfig,
        n_streams: usize,
        bytes: u64,
        link: LinkConfig,
    ) -> (Fabric, NodeHandle, NodeHandle) {
        let spec = TopoSpec {
            sites: vec![SiteSpec::direct().with_lan(link)],
            wans: Vec::new(),
        };
        let (mut f, tx, rx) = spec.build_pair(
            5,
            true,
            Box::new(IpoibNode::sender(cfg, tcp, n_streams, bytes)),
            Box::new(IpoibNode::receiver(cfg, tcp, n_streams, bytes)),
        );
        let qa = f.hca_mut(tx).core_mut().create_qp(cfg.qp_config());
        let qb = f.hca_mut(rx).core_mut().create_qp(cfg.qp_config());
        if cfg.mode == IpoibMode::Rc {
            f.hca_mut(tx).core_mut().connect(qa, (rx.lid, qb));
            f.hca_mut(rx).core_mut().connect(qb, (tx.lid, qa));
        }
        {
            let u = f.hca_mut(tx).ulp_mut::<IpoibNode>();
            u.port.qpn = qa;
            u.port.peer = Some((rx.lid, qb));
        }
        {
            let u = f.hca_mut(rx).ulp_mut::<IpoibNode>();
            u.port.qpn = qb;
            u.port.peer = Some((tx.lid, qa));
        }
        (f, tx, rx)
    }

    fn fast_tcp(mtu: u32, window: u64) -> TcpConfig {
        // Warm connection: disable the slow-start ramp for steady-state
        // bandwidth measurements.
        let mut t = TcpConfig::for_mtu(mtu).with_window(window);
        t.init_cwnd_segments = 1 << 20;
        t
    }

    #[test]
    fn delivers_all_bytes_ud() {
        let cfg = IpoibConfig::ud();
        let (mut f, _tx, rx) = pair(
            cfg,
            TcpConfig::for_mtu(cfg.mtu),
            1,
            1_000_000,
            LinkConfig::sdr_lan(),
        );
        f.run();
        assert_eq!(f.hca(rx).ulp::<IpoibNode>().delivered(), 1_000_000);
    }

    #[test]
    fn delivers_all_bytes_rc_multi_stream() {
        let cfg = IpoibConfig::rc(65536);
        let (mut f, _tx, rx) = pair(
            cfg,
            TcpConfig::for_mtu(cfg.mtu),
            4,
            500_000,
            LinkConfig::sdr_lan(),
        );
        f.run();
        assert_eq!(f.hca(rx).ulp::<IpoibNode>().delivered(), 2_000_000);
    }

    #[test]
    fn ud_peak_is_below_verbs_peak() {
        let cfg = IpoibConfig::ud();
        let (mut f, _tx, rx) = pair(
            cfg,
            fast_tcp(cfg.mtu, 1 << 20),
            1,
            16_000_000,
            LinkConfig::sdr_lan(),
        );
        f.run();
        let bw = f.hca(rx).ulp::<IpoibNode>().throughput_mbs();
        // TCP-stack processing keeps IPoIB-UD well below the 967 MB/s
        // verbs-level UD peak (paper Section 3.3).
        assert!(bw > 350.0 && bw < 600.0, "IPoIB-UD peak {bw}");
    }

    #[test]
    fn rc_large_mtu_beats_ud_mtu() {
        let rc = IpoibConfig::rc(65536);
        let (mut f, _tx, rx) = pair(
            rc,
            fast_tcp(rc.mtu, 1 << 20),
            1,
            32_000_000,
            LinkConfig::sdr_lan(),
        );
        f.run();
        let bw_rc = f.hca(rx).ulp::<IpoibNode>().throughput_mbs();

        let ud = IpoibConfig::ud();
        let (mut f2, _tx2, rx2) = pair(
            ud,
            fast_tcp(ud.mtu, 1 << 20),
            1,
            16_000_000,
            LinkConfig::sdr_lan(),
        );
        f2.run();
        let bw_ud = f2.hca(rx2).ulp::<IpoibNode>().throughput_mbs();
        assert!(
            bw_rc > 1.5 * bw_ud,
            "64K-MTU RC ({bw_rc}) should far exceed 2K-MTU UD ({bw_ud})"
        );
        assert!(bw_rc > 800.0, "IPoIB-RC 64K peak {bw_rc}");
    }

    #[test]
    fn window_limits_throughput_on_long_latency_link() {
        // 1 ms one-way latency: BDP at SDR is ~2 MB. A 64 KB window must
        // throttle hard; the default 1 MB window does far better.
        let cfg = IpoibConfig::ud();
        let long_link = LinkConfig {
            rate: simcore::Rate::from_gbps(8),
            latency: Dur::from_ms(1),
            credit_packets: None,
        };
        let (mut f, _t, rx) = pair(cfg, fast_tcp(cfg.mtu, 64 << 10), 1, 4_000_000, long_link);
        f.run();
        let bw_small = f.hca(rx).ulp::<IpoibNode>().throughput_mbs();
        let (mut f2, _t2, rx2) = pair(cfg, fast_tcp(cfg.mtu, 1 << 20), 1, 16_000_000, long_link);
        f2.run();
        let bw_large = f2.hca(rx2).ulp::<IpoibNode>().throughput_mbs();
        // 64 KB / 2 ms RTT ~ 32 MB/s.
        assert!(bw_small < 50.0, "64K window at 1ms: {bw_small}");
        assert!(
            bw_large > 3.0 * bw_small,
            "1M window {bw_large} vs {bw_small}"
        );
    }

    #[test]
    fn parallel_streams_recover_bandwidth_at_high_delay() {
        let cfg = IpoibConfig::ud();
        let long_link = LinkConfig {
            rate: simcore::Rate::from_gbps(8),
            latency: Dur::from_ms(1),
            credit_packets: None,
        };
        let tcp = fast_tcp(cfg.mtu, 256 << 10);
        let (mut f, _t, rx) = pair(cfg, tcp, 1, 8_000_000, long_link);
        f.run();
        let one = f.hca(rx).ulp::<IpoibNode>().throughput_mbs();
        let (mut f8, _t8, rx8) = pair(cfg, tcp, 8, 8_000_000, long_link);
        f8.run();
        let eight = f8.hca(rx8).ulp::<IpoibNode>().throughput_mbs();
        // One 256 KB window over a 2 ms RTT sustains ~130 MB/s; eight
        // windows recover to the host-CPU peak (~470 MB/s).
        assert!(
            eight > 3.0 * one && eight > 400.0,
            "8 streams ({eight}) should recover over 1 stream ({one})"
        );
    }

    #[test]
    fn slow_start_ramps_from_initial_window() {
        // With default TCP config the first flight is 10 segments.
        let cfg = IpoibConfig::ud();
        let (mut f, tx, rx) = pair(
            cfg,
            TcpConfig::for_mtu(cfg.mtu),
            1,
            2_000_000,
            LinkConfig::sdr_lan(),
        );
        f.run();
        assert_eq!(f.hca(rx).ulp::<IpoibNode>().delivered(), 2_000_000);
        // Sender saw TCP acks back (pure acks counted as packets).
        assert!(f.hca(tx).ulp::<IpoibNode>().packets_received() > 100);
    }
}
