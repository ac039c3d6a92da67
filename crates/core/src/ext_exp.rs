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
use crate::ipoib_exp::run_ipoib_point;
use crate::results::Figure;
use crate::sweep::grid;
use crate::topo::{build_pair, TopoSpec};
use crate::{nfs_exp, verbs, Fidelity, PAPER_DELAYS_US};
use ibfabric::qp::QpConfig;
use ipoib::node::IpoibConfig;
use mpisim::bench::{allreduce_latency, osu_bw, wan_pair_with};
use mpisim::proto::{MpiConfig, RndvProtocol};
use mpisim::world::JobSpec;
use nfssim::{run_read_experiment, NfsSetup};
use pfs::{run_striped_read, PfsSetup};
use sdp::SdpNode;
use simcore::Dur;

/// Extension A: NFS *write* throughput for the three transports vs delay
/// (8 client threads).
pub fn ext_nfs_write(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "extA-nfs-write",
        "NFS write throughput (8 threads) — paper omitted these numbers",
        "delay_us",
        "MB/s",
    );
    let series = nfs_exp::TRANSPORTS.map(|t| (t.label(), t));
    grid(cfg, fig, series, &PAPER_DELAYS_US, |&t, d| {
        let setup = nfs_exp::setup(cfg, t, 8, Some(Dur::from_us(d)));
        run_read_experiment(NfsSetup {
            write: true,
            ..setup
        })
        .mbs
    })
}

/// Extension B: large-message MPI bandwidth for the three rendezvous
/// protocols vs delay.
pub fn ext_rndv_protocols(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "extB-rndv",
        "MPI 256 KB bandwidth: RPUT vs RGET vs R3 rendezvous",
        "delay_us",
        "MillionBytes/s",
    );
    let iters = cfg.fidelity.iters(3, 10) as u32;
    let series = [
        ("RPUT", RndvProtocol::Rput),
        ("RGET", RndvProtocol::Rget),
        ("R3", RndvProtocol::R3),
    ];
    grid(cfg, fig, series, &PAPER_DELAYS_US, |&rndv_protocol, d| {
        let mpi = MpiConfig {
            rndv_protocol,
            ..MpiConfig::default()
        };
        let spec = wan_pair_with(Dur::from_us(d), mpi);
        osu_bw(cfg.apply(spec), 262_144, 16, iters)
    })
}

/// Extension C: flat vs hierarchical allreduce latency at 256 KB (the
/// CG-style reduction), 16+16 ranks.
pub fn ext_hierarchical_allreduce(cfg: &RunConfig) -> Figure {
    let per_cluster = match cfg.fidelity {
        Fidelity::Quick => 8,
        Fidelity::Full => 16,
    };
    let fig = Figure::new(
        "extC-allreduce",
        format!(
            "Allreduce 256 KB latency, {} procs: flat vs hierarchical",
            2 * per_cluster
        ),
        "delay_us",
        "latency_us",
    );
    let iters = cfg.fidelity.iters(2, 5) as u32;
    let series = [("flat", false), ("hierarchical", true)];
    grid(cfg, fig, series, &PAPER_DELAYS_US, |&hier, d| {
        let spec = JobSpec::two_clusters(per_cluster, per_cluster, Dur::from_us(d));
        allreduce_latency(cfg.apply(spec), 262_144, iters, hier)
    })
}

/// Extension D: why range extenders need deep buffers — UD streaming
/// bandwidth vs delay for shallow vs deep Longbow buffer credits. The
/// credit loop spans the full RTT, so sustainable bandwidth is
/// `credits × packet / RTT` until the buffers cover the bandwidth-delay
/// product.
pub fn ext_longbow_credits(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "extD-credits",
        "UD 2 KB streaming vs Longbow buffer depth (link-level credits)",
        "delay_us",
        "MillionBytes/s",
    );
    let iters = cfg.fidelity.iters(2000, 10000);
    // `None` is the shipped deep-buffered unit.
    let series = [
        ("16-credits", Some(16)),
        ("256-credits", Some(256)),
        ("4096-credits", Some(4096)),
        ("deep-buffers", None),
    ];
    grid(cfg, fig, series, &PAPER_DELAYS_US, |&credits, d| {
        let spec = TopoSpec::two_site_credits(Dur::from_us(d), credits);
        verbs::bandwidth(cfg, 53, &spec, true, 2048, iters, false)
    })
}

fn sdp_stream_bw(cfg: &RunConfig, delay: Dur, msg_size: u32, count: u64) -> f64 {
    let (mut f, a, b) = build_pair(
        cfg,
        59,
        &TopoSpec::two_site(delay),
        Box::new(SdpNode::sender(msg_size, count)),
        Box::new(SdpNode::receiver()),
    );
    let (qa, qb) = ibfabric::perftest::rc_qp_pair(&mut f, a, b, QpConfig::rc());
    f.hca_mut(a).ulp_mut::<SdpNode>().socket.qpn = qa;
    f.hca_mut(b).ulp_mut::<SdpNode>().socket.qpn = qb;
    f.run();
    f.hca(b).ulp::<SdpNode>().throughput_mbs()
}

/// A sockets stack under test in Extension E.
enum Sockets {
    /// SDP streaming a count of messages of one size: `(size, count)`.
    Sdp(u32, u64),
    /// TCP over IPoIB, one stream at the default window.
    Ipoib(IpoibConfig),
}

/// Extension E: sockets over the WAN — SDP (BCopy and ZCopy paths) versus
/// IPoIB+TCP, the comparison the paper's reference \[19\] ran with TTCP.
pub fn ext_sdp_vs_ipoib(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "extE-sdp",
        "Sockets throughput over the WAN: SDP vs IPoIB (TTCP-style stream)",
        "delay_us",
        "MB/s",
    );
    let count = cfg.fidelity.iters(200, 1200);
    let zcount = cfg.fidelity.iters(24, 96);
    let series = [
        ("SDP-bcopy-32K", Sockets::Sdp(32768, count)),
        ("SDP-zcopy-1M", Sockets::Sdp(1 << 20, zcount)),
        ("IPoIB-UD", Sockets::Ipoib(IpoibConfig::ud())),
        ("IPoIB-RC", Sockets::Ipoib(IpoibConfig::rc(65536))),
    ];
    grid(
        cfg,
        fig,
        series,
        &PAPER_DELAYS_US,
        |sockets, d| match *sockets {
            Sockets::Sdp(size, count) => sdp_stream_bw(cfg, Dur::from_us(d), size, count),
            Sockets::Ipoib(ipoib) => run_ipoib_point(cfg, ipoib, tcpstack::DEFAULT_WINDOW, 1, d),
        },
    )
}

/// Extension F: parallel-filesystem striping over the WAN (the paper's
/// future-work context; its related work \[6\] ran Lustre over IB WAN).
/// Striping across OSSes is the filesystem-level parallel-streams
/// optimization: each stripe target contributes an independent RC window.
pub fn ext_pfs_striping(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "extF-pfs",
        "Parallel-filesystem striped read throughput vs delay",
        "delay_us",
        "MB/s",
    );
    let series = [1usize, 2, 4, 8].map(|n| (format!("{n}-oss"), n));
    grid(cfg, fig, series, &PAPER_DELAYS_US, |&n, d| {
        let mut s = PfsSetup::quick(n, Some(Dur::from_us(d)));
        s.file_size = match cfg.fidelity {
            Fidelity::Quick => 32 << 20,
            Fidelity::Full => 128 << 20,
        };
        run_striped_read(cfg.apply(s)).mbs
    })
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
