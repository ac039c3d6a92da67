//! Striped-read experiment assembly: storage cluster (MDS + OSSes) on one
//! side of the WAN, client on the other.

use crate::client::{PfsClient, PfsClientConfig};
use crate::server::{MdsServer, OssServer, OssServerConfig};
use ibfabric::perftest::rc_qp_pair;
use ibfabric::qp::QpConfig;
use ibfabric::ulp::Ulp;
use ibtopo::{SiteSpec, TopoSpec, WanSpec};
use simcore::Dur;

/// RC window on the OSS bulk QPs (Lustre bulk RPCs pipeline deeply).
pub const PFS_QP_WINDOW: usize = 32;

/// One striped-read experiment.
#[derive(Copy, Clone, Debug)]
pub struct PfsSetup {
    /// Number of object storage servers the file stripes over.
    pub stripe_count: usize,
    /// Stripe/RPC size in bytes (Lustre default 1 MB).
    pub stripe_size: u32,
    /// File size in bytes.
    pub file_size: u64,
    /// Concurrent RPCs per OSS.
    pub rpcs_in_flight: usize,
    /// One-way WAN delay; `None` puts the client inside the storage cluster.
    pub delay: Option<Dur>,
    /// Fragment-train coalescing on the wire path.
    pub coalescing: bool,
    /// Engine seed.
    pub seed: u64,
}

impl PfsSetup {
    /// A quick-running default: 64 MB file in 1 MB stripes, 2 RPCs deep.
    pub fn quick(stripe_count: usize, delay: Option<Dur>) -> Self {
        PfsSetup {
            stripe_count,
            stripe_size: 1 << 20,
            file_size: 64 << 20,
            rpcs_in_flight: 2,
            delay,
            coalescing: true,
            seed: 67,
        }
    }
}

/// Measured result.
#[derive(Copy, Clone, Debug)]
pub struct PfsThroughput {
    /// Aggregate read throughput, MB/s.
    pub mbs: f64,
    /// Stripes completed.
    pub stripes: u64,
    /// Virtual microseconds spent on the open round trip.
    pub open_us: f64,
}

/// Run one striped read and return the client-observed throughput.
pub fn run_striped_read(setup: PfsSetup) -> PfsThroughput {
    assert!(setup.stripe_count >= 1);
    let stripes = setup.file_size / setup.stripe_size as u64;
    let client_cfg = PfsClientConfig {
        stripe_size: setup.stripe_size,
        stripes,
        rpcs_in_flight: setup.rpcs_in_flight,
    };

    // Host order: client, then mds, then the OSSes. LAN baseline puts the
    // client inside the storage cluster; WAN gives it a site of its own.
    let spec = match setup.delay {
        None => TopoSpec::single_switch(2 + setup.stripe_count),
        Some(delay) => TopoSpec {
            sites: vec![
                SiteSpec::switched(1),
                SiteSpec::switched(1 + setup.stripe_count),
            ],
            wans: vec![WanSpec::longbow(0, 1, delay)],
        },
    };
    let (mut f, nodes) = spec.build(setup.seed, setup.coalescing, |host| match host {
        0 => Box::new(PfsClient::new(client_cfg)) as Box<dyn Ulp>,
        1 => Box::new(MdsServer::new(setup.stripe_count as u32)),
        _ => Box::new(OssServer::new(OssServerConfig::default())),
    });
    let (client, mds) = (nodes[0], nodes[1]);
    let osses = &nodes[2..];

    let qp_cfg = QpConfig::rc().with_window(PFS_QP_WINDOW);
    let (qc_mds, qmds) = rc_qp_pair(&mut f, client, mds, qp_cfg);
    f.hca_mut(client).ulp_mut::<PfsClient>().mds_qpn = qc_mds;
    f.hca_mut(mds).ulp_mut::<MdsServer>().add_client_qp(qmds);
    for oss in osses {
        let (qc, qo) = rc_qp_pair(&mut f, client, *oss, qp_cfg);
        f.hca_mut(client).ulp_mut::<PfsClient>().oss_qpns.push(qc);
        f.hca_mut(*oss).ulp_mut::<OssServer>().add_client_qp(qo);
    }

    f.run();
    let c = f.hca(client).ulp::<PfsClient>();
    assert_eq!(c.stripes_done(), stripes, "client did not finish the file");
    PfsThroughput {
        mbs: c.throughput_mbs(),
        stripes,
        open_us: c.opened_at().map(|t| t.as_us_f64()).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_complete_and_open_pays_one_rtt() {
        let r = run_striped_read(PfsSetup::quick(4, Some(Dur::from_ms(1))));
        assert_eq!(r.stripes, 64);
        // The open round trip crosses the 1 ms WAN twice.
        assert!(r.open_us > 2000.0 && r.open_us < 2300.0, "{}", r.open_us);
    }

    #[test]
    fn striping_recovers_wan_bandwidth() {
        // The filesystem-level parallel-streams story: one OSS starves on a
        // 10 ms pipe; eight stripe targets recover most of it.
        let one = run_striped_read(PfsSetup::quick(1, Some(Dur::from_ms(10)))).mbs;
        let eight = {
            let mut s = PfsSetup::quick(8, Some(Dur::from_ms(10)));
            s.file_size = 128 << 20;
            run_striped_read(s).mbs
        };
        assert!(
            eight > 4.0 * one,
            "8 stripes ({eight}) must recover over 1 ({one}) at 10 ms"
        );
    }

    #[test]
    fn lan_aggregate_reaches_ddr_class_rates() {
        let r = run_striped_read(PfsSetup::quick(4, None));
        assert!(r.mbs > 1500.0, "LAN striped read {}", r.mbs);
    }

    #[test]
    fn deeper_rpc_pipelines_help_on_the_wan() {
        let shallow = {
            let mut s = PfsSetup::quick(2, Some(Dur::from_ms(1)));
            s.rpcs_in_flight = 1;
            run_striped_read(s).mbs
        };
        let deep = {
            let mut s = PfsSetup::quick(2, Some(Dur::from_ms(1)));
            s.rpcs_in_flight = 4;
            run_striped_read(s).mbs
        };
        assert!(
            deep > 1.3 * shallow,
            "4 RPCs in flight ({deep}) over 1 ({shallow})"
        );
    }
}
