//! Extension experiments beyond the paper's figures:
//!
//! * **NFS writes** — the paper measured them but omitted the numbers for
//!   space ("NFS Write shows similar performance"); we regenerate them.
//! * **Rendezvous-protocol comparison** — MVAPICH2's RPUT/RGET/R3 designs
//!   over increasing WAN delay (the paper only tunes the threshold; the
//!   protocol choice is the natural next knob).
//! * **Hierarchical allreduce** — the paper's stated future work on
//!   WAN-aware collectives, applied to the reduction that dominates CG.

use crate::config::RunConfig;
use crate::results::{Figure, Series};
use crate::sweep::parallel_map;
use crate::topo::{build_pair, TopoSpec};
use crate::{Fidelity, PAPER_DELAYS_US};
use ibfabric::perftest::{BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use mpisim::bench::{allreduce_latency, osu_bw, wan_pair_with};
use mpisim::proto::{MpiConfig, RndvProtocol};
use mpisim::world::JobSpec;
use nfssim::{run_read_experiment, NfsSetup, Transport};
use pfs::{run_striped_read, PfsSetup};
use sdp::{SdpConfig, SdpNode};
use simcore::Dur;

/// Extension A: NFS *write* throughput for the three transports vs delay
/// (8 client threads).
pub fn ext_nfs_write(cfg: &RunConfig) -> Figure {
    let mut fig = Figure::new(
        "extA-nfs-write",
        "NFS write throughput (8 threads) — paper omitted these numbers",
        "delay_us",
        "MB/s",
    );
    let transports = [Transport::Rdma, Transport::IpoibRc, Transport::IpoibUd];
    let pts: Vec<(Transport, u64)> = transports
        .iter()
        .flat_map(|&t| PAPER_DELAYS_US.iter().map(move |&d| (t, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(t, d)| {
        let mut s = NfsSetup::scaled(t, 8, Some(Dur::from_us(d)));
        s.write = true;
        if cfg.fidelity == Fidelity::Quick {
            s.file_size = 16 << 20;
        }
        s.coalescing = cfg.coalescing;
        s.seed = cfg.seed_for(s.seed);
        (t, d, run_read_experiment(s).mbs)
    });
    for &t in &transports {
        let mut series = Series::new(t.label());
        for &(rt, d, mbs) in &res {
            if rt == t {
                series.push(d as f64, mbs);
            }
        }
        fig.series.push(series);
    }
    fig
}

/// Extension B: large-message MPI bandwidth for the three rendezvous
/// protocols vs delay.
pub fn ext_rndv_protocols(run: &RunConfig) -> Figure {
    let mut fig = Figure::new(
        "extB-rndv",
        "MPI 256 KB bandwidth: RPUT vs RGET vs R3 rendezvous",
        "delay_us",
        "MillionBytes/s",
    );
    let protocols = [
        ("RPUT", RndvProtocol::Rput),
        ("RGET", RndvProtocol::Rget),
        ("R3", RndvProtocol::R3),
    ];
    let pts: Vec<(&str, RndvProtocol, u64)> = protocols
        .iter()
        .flat_map(|&(l, p)| PAPER_DELAYS_US.iter().map(move |&d| (l, p, d)))
        .collect();
    let res = parallel_map(run, pts, |(l, p, d)| {
        let cfg = MpiConfig {
            rndv_protocol: p,
            ..MpiConfig::default()
        };
        let iters = run.fidelity.iters(3, 10) as u32;
        let spec = wan_pair_with(Dur::from_us(d), cfg);
        let spec = spec
            .with_coalescing(run.coalescing)
            .with_seed(run.seed_for(spec.seed));
        (l, d, osu_bw(spec, 262_144, 16, iters))
    });
    for &(label, _) in &protocols {
        let mut series = Series::new(label);
        for &(l, d, bw) in &res {
            if l == label {
                series.push(d as f64, bw);
            }
        }
        fig.series.push(series);
    }
    fig
}

/// Extension C: flat vs hierarchical allreduce latency at 256 KB (the
/// CG-style reduction), 16+16 ranks.
pub fn ext_hierarchical_allreduce(cfg: &RunConfig) -> Figure {
    let per_cluster = match cfg.fidelity {
        Fidelity::Quick => 8,
        Fidelity::Full => 16,
    };
    let mut fig = Figure::new(
        "extC-allreduce",
        format!(
            "Allreduce 256 KB latency, {} procs: flat vs hierarchical",
            2 * per_cluster
        ),
        "delay_us",
        "latency_us",
    );
    let pts: Vec<(bool, u64)> = [false, true]
        .iter()
        .flat_map(|&h| PAPER_DELAYS_US.iter().map(move |&d| (h, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(hier, d)| {
        let spec = JobSpec::two_clusters(per_cluster, per_cluster, Dur::from_us(d));
        let spec = spec
            .with_coalescing(cfg.coalescing)
            .with_seed(cfg.seed_for(spec.seed));
        let iters = cfg.fidelity.iters(2, 5) as u32;
        (hier, d, allreduce_latency(spec, 262_144, iters, hier))
    });
    for (hier, label) in [(false, "flat"), (true, "hierarchical")] {
        let mut series = Series::new(label);
        for &(h, d, lat) in &res {
            if h == hier {
                series.push(d as f64, lat);
            }
        }
        fig.series.push(series);
    }
    fig
}

/// UD streaming bandwidth across the WAN with the given Longbow buffer
/// depth (`None` = deep buffers, the shipped configuration).
fn ud_bw_with_credits(cfg: &RunConfig, delay: Dur, credits: Option<usize>, iters: u64) -> f64 {
    let (mut f, n1, n2) = build_pair(
        cfg,
        53,
        &TopoSpec::two_site_credits(delay, credits),
        Box::new(BwPeer::sender(BwConfig::new(2048, iters))),
        Box::new(BwPeer::receiver()),
    );
    let qa = f.hca_mut(n1).core_mut().create_qp(QpConfig::ud());
    let qb = f.hca_mut(n2).core_mut().create_qp(QpConfig::ud());
    {
        let u = f.hca_mut(n1).ulp_mut::<BwPeer>();
        u.qpn = qa;
        u.peer = Some((n2.lid, qb));
    }
    f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
    f.run();
    f.hca(n2).ulp::<BwPeer>().rx_bandwidth_mbs()
}

/// Extension D: why range extenders need deep buffers — UD streaming
/// bandwidth vs delay for shallow vs deep Longbow buffer credits. The
/// credit loop spans the full RTT, so sustainable bandwidth is
/// `credits × packet / RTT` until the buffers cover the bandwidth-delay
/// product.
pub fn ext_longbow_credits(cfg: &RunConfig) -> Figure {
    let mut fig = Figure::new(
        "extD-credits",
        "UD 2 KB streaming vs Longbow buffer depth (link-level credits)",
        "delay_us",
        "MillionBytes/s",
    );
    let configs: [(&str, Option<usize>); 4] = [
        ("16-credits", Some(16)),
        ("256-credits", Some(256)),
        ("4096-credits", Some(4096)),
        ("deep-buffers", None),
    ];
    let iters = cfg.fidelity.iters(2000, 10000);
    let pts: Vec<(&str, Option<usize>, u64)> = configs
        .iter()
        .flat_map(|&(l, c)| PAPER_DELAYS_US.iter().map(move |&d| (l, c, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(l, c, d)| {
        (l, d, ud_bw_with_credits(cfg, Dur::from_us(d), c, iters))
    });
    for &(label, _) in &configs {
        let mut series = Series::new(label);
        for &(l, d, bw) in &res {
            if l == label {
                series.push(d as f64, bw);
            }
        }
        fig.series.push(series);
    }
    fig
}

fn sdp_stream_bw(cfg: &RunConfig, delay: Dur, msg_size: u32, count: u64) -> f64 {
    let (mut f, a, b) = build_pair(
        cfg,
        59,
        &TopoSpec::two_site(delay),
        Box::new(SdpNode::sender(SdpConfig::default(), msg_size, count)),
        Box::new(SdpNode::receiver(SdpConfig::default())),
    );
    let (qa, qb) = ibfabric::perftest::rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<SdpNode>().socket.qpn = qa;
    f.hca_mut(b).ulp_mut::<SdpNode>().socket.qpn = qb;
    f.run();
    f.hca(b).ulp::<SdpNode>().throughput_mbs()
}

/// Extension E: sockets over the WAN — SDP (BCopy and ZCopy paths) versus
/// IPoIB+TCP, the comparison the paper's reference \[19\] ran with TTCP.
pub fn ext_sdp_vs_ipoib(cfg: &RunConfig) -> Figure {
    use crate::ipoib_exp::run_ipoib_point;
    use ipoib::node::IpoibConfig;

    let mut fig = Figure::new(
        "extE-sdp",
        "Sockets throughput over the WAN: SDP vs IPoIB (TTCP-style stream)",
        "delay_us",
        "MB/s",
    );
    let count = cfg.fidelity.iters(200, 1200);
    let zcount = cfg.fidelity.iters(24, 96);
    let pts: Vec<(&str, u64)> = ["SDP-bcopy-32K", "SDP-zcopy-1M", "IPoIB-UD", "IPoIB-RC"]
        .iter()
        .flat_map(|&l| PAPER_DELAYS_US.iter().map(move |&d| (l, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(l, d)| {
        let delay = Dur::from_us(d);
        let bw = match l {
            "SDP-bcopy-32K" => sdp_stream_bw(cfg, delay, 32768, count),
            "SDP-zcopy-1M" => sdp_stream_bw(cfg, delay, 1 << 20, zcount),
            "IPoIB-UD" => run_ipoib_point(cfg, IpoibConfig::ud(), tcpstack::DEFAULT_WINDOW, 1, d),
            "IPoIB-RC" => {
                run_ipoib_point(cfg, IpoibConfig::rc(65536), tcpstack::DEFAULT_WINDOW, 1, d)
            }
            _ => unreachable!(),
        };
        (l, d, bw)
    });
    for label in ["SDP-bcopy-32K", "SDP-zcopy-1M", "IPoIB-UD", "IPoIB-RC"] {
        let mut series = Series::new(label);
        for &(l, d, bw) in &res {
            if l == label {
                series.push(d as f64, bw);
            }
        }
        fig.series.push(series);
    }
    fig
}

/// Extension F: parallel-filesystem striping over the WAN (the paper's
/// future-work context; its related work \[6\] ran Lustre over IB WAN).
/// Striping across OSSes is the filesystem-level parallel-streams
/// optimization: each stripe target contributes an independent RC window.
pub fn ext_pfs_striping(cfg: &RunConfig) -> Figure {
    let mut fig = Figure::new(
        "extF-pfs",
        "Parallel-filesystem striped read throughput vs delay",
        "delay_us",
        "MB/s",
    );
    let stripe_counts = [1usize, 2, 4, 8];
    let pts: Vec<(usize, u64)> = stripe_counts
        .iter()
        .flat_map(|&n| PAPER_DELAYS_US.iter().map(move |&d| (n, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(n, d)| {
        let mut s = PfsSetup::quick(n, Some(Dur::from_us(d)));
        s.file_size = match cfg.fidelity {
            Fidelity::Quick => 32 << 20,
            Fidelity::Full => 128 << 20,
        };
        s.coalescing = cfg.coalescing;
        s.seed = cfg.seed_for(s.seed);
        (n, d, run_striped_read(s).mbs)
    });
    for &n in &stripe_counts {
        let mut series = Series::new(format!("{n}-oss"));
        for &(rn, d, mbs) in &res {
            if rn == n {
                series.push(d as f64, mbs);
            }
        }
        fig.series.push(series);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nfs_write_shape() {
        let f = ext_nfs_write(&RunConfig::default());
        // Writes complete on every transport, and RDMA writes collapse at
        // high delay like reads do (read credits are even scarcer).
        for s in &f.series {
            assert!(s.peak() > 0.0, "{}", s.label);
        }
        let rdma = f.series("RDMA").unwrap();
        assert!(rdma.y_at(10000.0).unwrap() < 0.2 * rdma.y_at(0.0).unwrap());
    }

    #[test]
    fn rndv_protocol_ordering_at_high_delay() {
        let f = ext_rndv_protocols(&RunConfig::default());
        let rput = f.series("RPUT").unwrap().y_at(10000.0).unwrap();
        let rget = f.series("RGET").unwrap().y_at(10000.0).unwrap();
        assert!(rput > rget, "RPUT {rput} vs credit-bound RGET {rget}");
    }

    #[test]
    fn credit_figure_shows_bdp_wall() {
        let f = ext_longbow_credits(&RunConfig::default());
        let deep = f.series("deep-buffers").unwrap();
        let shallow = f.series("16-credits").unwrap();
        // Deep buffers: delay-invariant UD. Shallow: collapses with delay.
        assert!((deep.y_at(0.0).unwrap() - deep.y_at(10000.0).unwrap()).abs() < 10.0);
        assert!(shallow.y_at(10000.0).unwrap() < 5.0);
        assert!(shallow.y_at(0.0).unwrap() > 500.0);
    }

    #[test]
    fn sdp_figure_shapes() {
        let f = ext_sdp_vs_ipoib(&RunConfig::default());
        // On the LAN, SDP (no TCP stack) beats IPoIB-UD's host ceiling.
        let sdp0 = f.series("SDP-zcopy-1M").unwrap().y_at(0.0).unwrap();
        let ud0 = f.series("IPoIB-UD").unwrap().y_at(0.0).unwrap();
        assert!(sdp0 > 1.5 * ud0, "SDP zcopy {sdp0} vs IPoIB-UD {ud0}");
        // At 10 ms the bcopy credit loop starves; zcopy holds up better.
        let bcopy10 = f.series("SDP-bcopy-32K").unwrap().y_at(10000.0).unwrap();
        let zcopy10 = f.series("SDP-zcopy-1M").unwrap().y_at(10000.0).unwrap();
        assert!(zcopy10 > bcopy10, "zcopy {zcopy10} vs bcopy {bcopy10}");
    }

    #[test]
    fn pfs_striping_figure_shape() {
        let f = ext_pfs_striping(&RunConfig::default());
        let one = f.series("1-oss").unwrap();
        let eight = f.series("8-oss").unwrap();
        // On the LAN both saturate; at 10 ms striping dominates.
        assert!(
            eight.y_at(10000.0).unwrap() > 4.0 * one.y_at(10000.0).unwrap(),
            "striping must recover the long pipe"
        );
    }

    #[test]
    fn hierarchical_allreduce_wins_at_delay() {
        let f = ext_hierarchical_allreduce(&RunConfig::default());
        let flat = f.series("flat").unwrap().y_at(1000.0).unwrap();
        let hier = f.series("hierarchical").unwrap().y_at(1000.0).unwrap();
        assert!(hier < flat, "hier {hier} vs flat {flat} at 1 ms");
    }
}
