//! Verbs-level experiments: Table 1 and Figures 3–5, and the perftest
//! latency and bandwidth runs every verbs figure, scenario and calibration
//! check measures with.

use crate::config::RunConfig;
use crate::results::{Figure, Series};
use crate::sweep::grid;
use crate::topo::{build_pair, TopoSpec};
use crate::{delay_label, Fidelity, PAPER_DELAYS_US};
use ibfabric::perftest::{rc_qp_pair, ud_qp_pair, BwConfig, BwPeer, LatMode, PingPong};
use ibfabric::qp::QpConfig;
use obsidian::km_for_wire_delay;
use simcore::Dur;

/// Table 1: emulated-distance ↔ injected-delay mapping.
pub fn table1() -> Figure {
    let mut fig = Figure::new(
        "table1",
        "Delay overhead corresponding to wire length",
        "distance_km",
        "delay_us",
    );
    let mut s = Series::new("one-way-delay");
    for km in [1u64, 20, 200, 2000] {
        let d = obsidian::wire_delay_for_km(km);
        s.push(km as f64, d.as_us_f64());
        debug_assert_eq!(km_for_wire_delay(d), km);
    }
    fig.series.push(s);
    fig
}

/// Message sizes for the latency test (bytes).
const LAT_SIZES: [u32; 6] = [1, 4, 16, 64, 256, 1024];

/// The verbs latency test (`ib_send_lat`, `rdma_lat`) between the two hosts
/// of `spec`: the mean one-way latency in µs of `iters` ping-pong rounds of
/// `size`-byte messages.
pub(crate) fn latency(
    cfg: &RunConfig,
    seed: u64,
    spec: &TopoSpec,
    mode: LatMode,
    size: u32,
    iters: u32,
) -> f64 {
    let ulp = |initiator| Box::new(PingPong::new(mode, initiator, size, iters));
    let (mut f, a, b) = build_pair(cfg, seed, spec, ulp(true), ulp(false));
    let ud = mode == LatMode::SendUd;
    let (qa, qb) = match mode {
        LatMode::SendUd => ud_qp_pair(&mut f, a, b, QpConfig::ud()),
        LatMode::SendRc => rc_qp_pair(&mut f, a, b, QpConfig::rc()),
        LatMode::WriteRc => rc_qp_pair(&mut f, a, b, QpConfig::rc().with_write_notify()),
    };
    for (node, qpn, peer) in [(a, qa, (b.lid, qb)), (b, qb, (a.lid, qa))] {
        let u = f.hca_mut(node).ulp_mut::<PingPong>();
        u.qpn = qpn;
        u.peer = ud.then_some(peer);
    }
    f.run();
    f.hca(a).ulp::<PingPong>().mean_latency_us()
}

/// The verbs bandwidth test (`ib_send_bw`) between the two hosts of `spec`:
/// MillionBytes/s of `iters` `size`-byte Sends over UD or RC, summed over
/// both directions when `bidir`.
pub(crate) fn bandwidth(
    cfg: &RunConfig,
    seed: u64,
    spec: &TopoSpec,
    ud: bool,
    size: u32,
    iters: u64,
    bidir: bool,
) -> f64 {
    let sender = || Box::new(BwPeer::sender(BwConfig::new(size, iters)));
    let b_ulp = if bidir {
        sender()
    } else {
        Box::new(BwPeer::receiver())
    };
    let (mut f, a, b) = build_pair(cfg, seed, spec, sender(), b_ulp);
    let (qa, qb) = if ud {
        ud_qp_pair(&mut f, a, b, QpConfig::ud())
    } else {
        rc_qp_pair(&mut f, a, b, QpConfig::rc())
    };
    for (node, qpn, peer) in [(a, qa, (b.lid, qb)), (b, qb, (a.lid, qa))] {
        let u = f.hca_mut(node).ulp_mut::<BwPeer>();
        u.qpn = qpn;
        u.peer = ud.then_some(peer);
    }
    f.run();
    // UD senders get no transport feedback: measure at the receivers,
    // where the SDR WAN rate is visible.
    let mbs = |node| {
        let u = f.hca(node).ulp::<BwPeer>();
        if ud {
            u.rx_bandwidth_mbs()
        } else {
            u.bandwidth_mbs()
        }
    };
    let (first, second) = if ud { (b, a) } else { (a, b) };
    if bidir {
        mbs(first) + mbs(second)
    } else {
        mbs(first)
    }
}

/// Figure 3: verbs small-message latency for Send/Recv UD, Send/Recv RC,
/// and RDMA-Write RC through the Longbow pair (0 injected delay), plus the
/// back-to-back Send/Recv RC baseline.
pub fn fig3_latency(cfg: &RunConfig) -> Figure {
    let iters = cfg.fidelity.iters(50, 500) as u32;
    let fig = Figure::new(
        "fig3",
        "Verbs-level latency (through Longbows at 0 delay vs back-to-back)",
        "msg_bytes",
        "latency_us",
    );
    let wan = TopoSpec::two_site(Dur::ZERO);
    let series = [
        ("SendRecv/UD", (wan.clone(), LatMode::SendUd)),
        ("SendRecv/RC", (wan.clone(), LatMode::SendRc)),
        ("RDMAWrite/RC", (wan, LatMode::WriteRc)),
        ("BackToBack-SR/RC", (TopoSpec::lan_pair(), LatMode::SendRc)),
    ];
    grid(cfg, fig, series, &LAT_SIZES, |(spec, mode), size| {
        latency(cfg, 31, spec, *mode, size, iters)
    })
}

/// How many messages to push for a bandwidth point at `size` bytes.
fn bw_iters(fidelity: Fidelity, size: u32) -> u64 {
    let budget: u64 = fidelity.iters(8 << 20, 64 << 20);
    (budget / size.max(1) as u64).clamp(48, fidelity.iters(2000, 20000))
}

fn bw_figure(
    cfg: &RunConfig,
    id: &str,
    title: &str,
    sizes: &[u32],
    ud: bool,
    bidir: bool,
) -> Figure {
    let fig = Figure::new(id, title, "msg_bytes", "MillionBytes/s");
    let series = PAPER_DELAYS_US.map(|d| (delay_label(d), d));
    grid(cfg, fig, series, sizes, |&d, size| {
        let spec = TopoSpec::two_site(Dur::from_us(d));
        bandwidth(
            cfg,
            33,
            &spec,
            ud,
            size,
            bw_iters(cfg.fidelity, size),
            bidir,
        )
    })
}

/// Message sizes for the UD bandwidth sweep (bounded by the 2 KB MTU).
pub const UD_SIZES: [u32; 7] = [32, 64, 128, 256, 512, 1024, 2048];
/// Message sizes for the RC bandwidth sweep (to 4 MB, like Figure 5).
pub const RC_SIZES: [u32; 10] = [
    256,
    1024,
    4096,
    8192,
    16384,
    65536,
    262_144,
    1 << 20,
    2 << 20,
    4 << 20,
];

/// Figure 4: verbs UD bandwidth (a) and bidirectional bandwidth (b) vs
/// message size, one series per WAN delay.
pub fn fig4_ud_bandwidth(cfg: &RunConfig, bidir: bool) -> Figure {
    let (id, title) = if bidir {
        ("fig4b", "Verbs UD bidirectional bandwidth")
    } else {
        ("fig4a", "Verbs UD bandwidth")
    };
    bw_figure(cfg, id, title, &UD_SIZES, true, bidir)
}

/// Figure 5: verbs RC bandwidth (a) and bidirectional bandwidth (b) vs
/// message size, one series per WAN delay.
pub fn fig5_rc_bandwidth(cfg: &RunConfig, bidir: bool) -> Figure {
    let (id, title) = if bidir {
        ("fig5b", "Verbs RC bidirectional bandwidth")
    } else {
        ("fig5a", "Verbs RC bandwidth")
    };
    bw_figure(cfg, id, title, &RC_SIZES, false, bidir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_rows() {
        let t = table1();
        let s = &t.series[0];
        assert_eq!(s.y_at(1.0), Some(5.0));
        assert_eq!(s.y_at(20.0), Some(100.0));
        assert_eq!(s.y_at(200.0), Some(1000.0));
        assert_eq!(s.y_at(2000.0), Some(10000.0));
    }

    #[test]
    fn fig3_longbows_add_latency_and_rdma_wins() {
        let f = fig3_latency(&RunConfig::default());
        let wan = f.series("SendRecv/RC").unwrap().y_at(4.0).unwrap();
        let lan = f.series("BackToBack-SR/RC").unwrap().y_at(4.0).unwrap();
        assert!(wan - lan > 3.5 && wan - lan < 8.0, "wan {wan} lan {lan}");
        let write = f.series("RDMAWrite/RC").unwrap().y_at(4.0).unwrap();
        assert!(
            write < wan,
            "RDMA write {write} should beat send/recv {wan}"
        );
    }

    #[test]
    fn fig4_ud_is_delay_invariant_at_peak() {
        let f = fig4_ud_bandwidth(&RunConfig::default(), false);
        let peak0 = f.series("no-delay").unwrap().y_at(2048.0).unwrap();
        let peak10ms = f.series("10000us-delay").unwrap().y_at(2048.0).unwrap();
        assert!((peak0 - 967.0).abs() < 15.0, "UD peak {peak0}");
        assert!((peak0 - peak10ms).abs() < 5.0, "{peak0} vs {peak10ms}");
    }

    #[test]
    fn fig5_rc_medium_collapse_large_recovery() {
        let f = fig5_rc_bandwidth(&RunConfig::default(), false);
        let no_delay = f.series("no-delay").unwrap();
        assert!(no_delay.peak() > 940.0, "RC peak {}", no_delay.peak());
        let d10ms = f.series("10000us-delay").unwrap();
        let k64 = d10ms.y_at(65536.0).unwrap();
        let m4 = d10ms.y_at((4 << 20) as f64).unwrap();
        assert!(k64 < 100.0, "64K at 10ms should collapse: {k64}");
        assert!(m4 > 500.0, "4M at 10ms should recover: {m4}");
    }
}
