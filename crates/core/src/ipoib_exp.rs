//! IPoIB/TCP experiments: Figures 6 and 7, and the iperf-style stream test
//! every IPoIB figure and scenario measures with.

use crate::config::RunConfig;
use crate::results::Figure;
use crate::sweep::grid;
use crate::topo::{build_pair, TopoSpec};
use crate::PAPER_DELAYS_US;
use ibfabric::perftest::{rc_qp_pair, ud_qp_pair};
use ipoib::node::{IpoibConfig, IpoibMode, IpoibNode};
use simcore::Dur;
use tcpstack::TcpConfig;

/// The TCP window sizes swept in Figure 6(a); `None` = the default
/// (>1 MB) window.
pub const WINDOWS: [(&str, u64); 4] = [
    ("64k-window", 64 << 10),
    ("256k-window", 256 << 10),
    ("512k-window", 512 << 10),
    ("default", tcpstack::DEFAULT_WINDOW),
];

/// Parallel stream counts swept in Figures 6(b)/7(b).
pub const STREAMS: [usize; 5] = [1, 2, 4, 6, 8];

/// IPoIB-RC MTUs swept in Figure 7(a).
pub const RC_MTUS: [u32; 3] = [2048, 16384, 65536];

/// The iperf-style IPoIB test between the two hosts of `spec`: `streams`
/// TCP streams of `bytes_per_stream` bytes each under a `window`-byte TCP
/// window, from the first host to the second; returns receive-side MB/s.
pub(crate) fn throughput(
    cfg: &RunConfig,
    seed: u64,
    spec: &TopoSpec,
    ipoib: IpoibConfig,
    window: u64,
    streams: usize,
    bytes_per_stream: u64,
) -> f64 {
    let mut tcp = TcpConfig::for_mtu(ipoib.mtu).with_window(window);
    // The paper measures long-lived streams (2 MB messages in a loop):
    // connections are warm, so skip the slow-start ramp.
    tcp.init_cwnd_segments = 1 << 20;
    let tx = Box::new(IpoibNode::sender(ipoib, tcp, streams, bytes_per_stream));
    let rx = Box::new(IpoibNode::receiver(ipoib, tcp, streams, bytes_per_stream));
    let (mut f, a, b) = build_pair(cfg, seed, spec, tx, rx);
    let qp_pair = match ipoib.mode {
        IpoibMode::Ud => ud_qp_pair,
        IpoibMode::Rc => rc_qp_pair,
    };
    let (qa, qb) = qp_pair(&mut f, a, b, ipoib.qp_config());
    for (node, qpn, peer) in [(a, qa, (b.lid, qb)), (b, qb, (a.lid, qa))] {
        let port = &mut f.hca_mut(node).ulp_mut::<IpoibNode>().port;
        port.qpn = qpn;
        port.peer = Some(peer);
    }
    f.run();
    f.hca(b).ulp::<IpoibNode>().throughput_mbs()
}

/// Run one IPoIB throughput point of the figures: a warm stream set across
/// the paper's testbed at `delay_us`; returns receive-side MB/s.
pub fn run_ipoib_point(
    run: &RunConfig,
    cfg: IpoibConfig,
    window: u64,
    streams: usize,
    delay_us: u64,
) -> f64 {
    // Enough bytes per stream to reach steady state even when the window
    // throttles hard at 10 ms.
    let budget = run.fidelity.iters(6 << 20, 48 << 20).max(window * 8);
    let spec = TopoSpec::two_site(Dur::from_us(delay_us));
    throughput(run, 41, &spec, cfg, window, streams, budget)
}

/// One series per parallel stream count at the default window.
fn streams_figure(run: &RunConfig, fig: Figure, cfg: IpoibConfig) -> Figure {
    let series = STREAMS.map(|n| (format!("{n}-streams"), n));
    grid(run, fig, series, &PAPER_DELAYS_US, |&n, d| {
        run_ipoib_point(run, cfg, tcpstack::DEFAULT_WINDOW, n, d)
    })
}

/// Figure 6(a): IPoIB-UD single-stream throughput vs WAN delay, one series
/// per TCP window size. Figure 6(b): parallel streams with the default
/// window.
pub fn fig6_ipoib_ud(run: &RunConfig, parallel: bool) -> Figure {
    let cfg = IpoibConfig::ud();
    if parallel {
        let fig = Figure::new(
            "fig6b",
            "IPoIB-UD throughput, parallel streams",
            "delay_us",
            "MillionBytes/s",
        );
        streams_figure(run, fig, cfg)
    } else {
        let fig = Figure::new(
            "fig6a",
            "IPoIB-UD throughput, single stream",
            "delay_us",
            "MillionBytes/s",
        );
        grid(run, fig, WINDOWS, &PAPER_DELAYS_US, |&w, d| {
            run_ipoib_point(run, cfg, w, 1, d)
        })
    }
}

/// Figure 7(a): IPoIB-RC single-stream throughput vs WAN delay, one series
/// per IP MTU. Figure 7(b): parallel streams at the 64 KB MTU.
pub fn fig7_ipoib_rc(run: &RunConfig, parallel: bool) -> Figure {
    if parallel {
        let fig = Figure::new(
            "fig7b",
            "IPoIB-RC throughput, parallel streams (64K MTU)",
            "delay_us",
            "MillionBytes/s",
        );
        streams_figure(run, fig, IpoibConfig::rc(65536))
    } else {
        let fig = Figure::new(
            "fig7a",
            "IPoIB-RC throughput, single stream",
            "delay_us",
            "MillionBytes/s",
        );
        let series = RC_MTUS.map(|m| (format!("{}K-MTU", m / 1024), m));
        grid(run, fig, series, &PAPER_DELAYS_US, |&m, d| {
            run_ipoib_point(run, IpoibConfig::rc(m), tcpstack::DEFAULT_WINDOW, 1, d)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_larger_windows_win_at_delay() {
        let f = fig6_ipoib_ud(&RunConfig::default(), false);
        let small = f.series("64k-window").unwrap().y_at(1000.0).unwrap();
        let default = f.series("default").unwrap().y_at(1000.0).unwrap();
        assert!(
            default > 3.0 * small,
            "default window ({default}) must beat 64k ({small}) at 1 ms"
        );
        // Everything degrades at 10 ms with a single stream.
        let d10 = f.series("default").unwrap().y_at(10000.0).unwrap();
        let d0 = f.series("default").unwrap().y_at(0.0).unwrap();
        assert!(d10 < 0.5 * d0, "single stream at 10ms {d10} vs 0 {d0}");
    }

    #[test]
    fn fig6b_parallel_streams_sustain_at_1ms() {
        let f = fig6_ipoib_ud(&RunConfig::default(), true);
        // The paper: peak IPoIB-UD sustained at 1 ms with multiple streams.
        let eight_1ms = f.series("8-streams").unwrap().y_at(1000.0).unwrap();
        let peak = f.series("8-streams").unwrap().y_at(0.0).unwrap();
        assert!(
            eight_1ms > 0.85 * peak,
            "8 streams at 1ms {eight_1ms} vs peak {peak}"
        );
        // At 10 ms a single default window collapses; 8 windows recover.
        let one_10ms = f.series("1-streams").unwrap().y_at(10000.0).unwrap();
        let eight_10ms = f.series("8-streams").unwrap().y_at(10000.0).unwrap();
        assert!(
            eight_10ms > 4.0 * one_10ms,
            "8 streams {eight_10ms} vs 1 stream {one_10ms} at 10ms"
        );
    }

    #[test]
    fn fig7a_mtu_ordering_and_collapse() {
        let f = fig7_ipoib_rc(&RunConfig::default(), false);
        let m2 = f.series("2K-MTU").unwrap().y_at(0.0).unwrap();
        let m64 = f.series("64K-MTU").unwrap().y_at(0.0).unwrap();
        assert!(m64 > 1.5 * m2, "64K MTU ({m64}) must beat 2K ({m2})");
        assert!((800.0..1000.0).contains(&m64), "64K MTU peak {m64}");
        // Sharp drop beyond 1 ms (RC window on 64K messages).
        let m64_10ms = f.series("64K-MTU").unwrap().y_at(10000.0).unwrap();
        assert!(m64_10ms < 0.2 * m64, "64K MTU at 10ms {m64_10ms}");
    }
}
