//! End-to-end NFS experiment assembly: server + client topology, LAN or WAN.

use crate::client::{NfsClient, NfsClientConfig};
use crate::rpc::RECORD_SIZE;
use crate::server::NfsServer;
use ibfabric::qp::QpConfig;
use ibtopo::TopoSpec;
use ipoib::node::IpoibConfig;
use ipoib::port::IpoibPort;
use simcore::Dur;
use tcpstack::TcpConfig;

/// RPC credits on the NFS/RDMA QP (outstanding chunk window).
pub const RDMA_QP_WINDOW: usize = 32;

/// Which NFS transport to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Transport {
    /// NFS over RPC/RDMA (4 KB chunked RDMA writes).
    Rdma,
    /// NFS over TCP over RC-mode IPoIB (64 KB MTU).
    IpoibRc,
    /// NFS over TCP over UD-mode IPoIB (2 KB MTU).
    IpoibUd,
}

impl Transport {
    /// Display label matching the figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Rdma => "RDMA",
            Transport::IpoibRc => "IPoIB-RC",
            Transport::IpoibUd => "IPoIB-UD",
        }
    }
}

/// One NFS read-throughput experiment.
#[derive(Copy, Clone, Debug)]
pub struct NfsSetup {
    /// Transport under test.
    pub transport: Transport,
    /// Concurrent reader threads (Figure 13 x-axis).
    pub threads: usize,
    /// File size in bytes (paper: 512 MB; scale down for quick runs).
    pub file_size: u64,
    /// One-way WAN delay; `None` runs on the DDR LAN with no Longbows.
    pub delay: Option<Dur>,
    /// True to run the IOzone write test instead of read (the paper omits
    /// its write numbers for space; we report them).
    pub write: bool,
    /// Fragment-train coalescing on the wire path.
    pub coalescing: bool,
    /// Engine seed.
    pub seed: u64,
}

impl NfsSetup {
    /// The paper's configuration: 512 MB file, 256 KB records.
    pub fn paper(transport: Transport, threads: usize, delay: Option<Dur>) -> Self {
        NfsSetup {
            transport,
            threads,
            file_size: 512 << 20,
            delay,
            write: false,
            coalescing: true,
            seed: 17,
        }
    }

    /// A scaled-down file for fast simulation (same record size, fewer
    /// records; steady-state throughput is unchanged).
    pub fn scaled(transport: Transport, threads: usize, delay: Option<Dur>) -> Self {
        NfsSetup {
            transport,
            threads,
            file_size: 48 << 20,
            delay,
            write: false,
            coalescing: true,
            seed: 17,
        }
    }
}

/// Measured result.
#[derive(Copy, Clone, Debug)]
pub struct NfsThroughput {
    /// Read throughput, MillionBytes/s.
    pub mbs: f64,
    /// Records completed (sanity).
    pub records: u64,
}

fn ipoib_config(t: Transport) -> IpoibConfig {
    match t {
        Transport::IpoibRc => IpoibConfig::rc(65536),
        Transport::IpoibUd => IpoibConfig::ud(),
        Transport::Rdma => unreachable!(),
    }
}

/// Run one read experiment and return the client-observed throughput.
pub fn run_read_experiment(setup: NfsSetup) -> NfsThroughput {
    let records = setup.file_size / RECORD_SIZE as u64;
    let client_cfg = NfsClientConfig {
        threads: setup.threads,
        records,
        write: setup.write,
    };

    let (server_ulp, client_ulp): (Box<NfsServer>, Box<NfsClient>) = match setup.transport {
        Transport::Rdma => (
            Box::new(NfsServer::rdma(setup.write)),
            Box::new(NfsClient::rdma(client_cfg)),
        ),
        Transport::IpoibRc | Transport::IpoibUd => {
            let cfg = ipoib_config(setup.transport);
            // Warm, long-lived mount connection: no slow-start ramp.
            let mut tcp = TcpConfig::for_mtu(cfg.mtu);
            tcp.init_cwnd_segments = 1 << 20;
            (
                Box::new(NfsServer::tcp(setup.write, IpoibPort::new(cfg, tcp, 1))),
                Box::new(NfsClient::tcp(client_cfg, IpoibPort::new(cfg, tcp, 1))),
            )
        }
    };

    // LAN: both nodes on one DDR switch. WAN: one site each, Longbows.
    let spec = match setup.delay {
        None => TopoSpec::single_switch(2),
        Some(delay) => TopoSpec::two_site(delay),
    };
    let (mut f, server, client) =
        spec.build_pair(setup.seed, setup.coalescing, server_ulp, client_ulp);

    // Transport wiring.
    match setup.transport {
        Transport::Rdma => {
            let qp_cfg = QpConfig::rc().with_window(RDMA_QP_WINDOW);
            let (qs, qc) = ibfabric::perftest::rc_qp_pair(&mut f, server, client, qp_cfg);
            f.hca_mut(server).ulp_mut::<NfsServer>().qpn = qs;
            f.hca_mut(client).ulp_mut::<NfsClient>().qpn = qc;
        }
        Transport::IpoibRc | Transport::IpoibUd => {
            let cfg = ipoib_config(setup.transport);
            let qs = f.hca_mut(server).core_mut().create_qp(cfg.qp_config());
            let qc = f.hca_mut(client).core_mut().create_qp(cfg.qp_config());
            if setup.transport == Transport::IpoibRc {
                f.hca_mut(server).core_mut().connect(qs, (client.lid, qc));
                f.hca_mut(client).core_mut().connect(qc, (server.lid, qs));
            }
            {
                let p = f.hca_mut(server).ulp_mut::<NfsServer>().port_mut();
                p.qpn = qs;
                p.peer = Some((client.lid, qc));
            }
            {
                let p = f.hca_mut(client).ulp_mut::<NfsClient>().port_mut();
                p.qpn = qc;
                p.peer = Some((server.lid, qs));
            }
        }
    }

    f.run();
    let c = f.hca(client).ulp::<NfsClient>();
    assert_eq!(c.records_done(), records, "client did not finish the file");
    NfsThroughput {
        mbs: c.throughput_mbs(),
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(t: Transport, threads: usize, delay: Option<Dur>) -> f64 {
        let mut s = NfsSetup::scaled(t, threads, delay);
        s.file_size = 16 << 20;
        run_read_experiment(s).mbs
    }

    #[test]
    fn rdma_lan_beats_rdma_wan() {
        let lan = quick(Transport::Rdma, 4, None);
        let wan = quick(Transport::Rdma, 4, Some(Dur::ZERO));
        // DDR LAN vs SDR WAN path: the paper reports ~36% degradation.
        assert!(
            wan < 0.8 * lan,
            "WAN ({wan}) should be well below LAN ({lan})"
        );
        assert!(lan > 1000.0, "LAN NFS/RDMA should exceed 1 GB/s: {lan}");
    }

    #[test]
    fn rdma_wins_at_low_delay_ipoib_rc_wins_at_high_delay() {
        let d100 = Some(Dur::from_us(100));
        let rdma_100 = quick(Transport::Rdma, 8, d100);
        let rc_100 = quick(Transport::IpoibRc, 8, d100);
        assert!(
            rdma_100 > rc_100,
            "at 100 us RDMA ({rdma_100}) must beat IPoIB-RC ({rc_100})"
        );

        let d1000 = Some(Dur::from_us(1000));
        let rdma_1000 = quick(Transport::Rdma, 8, d1000);
        let rc_1000 = quick(Transport::IpoibRc, 8, d1000);
        assert!(
            rc_1000 > rdma_1000,
            "at 1000 us IPoIB-RC ({rc_1000}) must beat RDMA ({rdma_1000})"
        );
    }

    #[test]
    fn rdma_collapses_sharply_at_1ms() {
        let peak = quick(Transport::Rdma, 8, Some(Dur::ZERO));
        let at_1ms = quick(Transport::Rdma, 8, Some(Dur::from_ms(1)));
        assert!(
            at_1ms < 0.2 * peak,
            "4 KB chunking must collapse at 1 ms: peak {peak}, 1ms {at_1ms}"
        );
    }

    #[test]
    fn ipoib_rc_beats_ipoib_ud() {
        let d100 = Some(Dur::from_us(100));
        let rc = quick(Transport::IpoibRc, 8, d100);
        let ud = quick(Transport::IpoibUd, 8, d100);
        assert!(rc > ud, "IPoIB-RC ({rc}) must beat IPoIB-UD ({ud})");
    }

    #[test]
    fn write_path_completes_on_all_transports() {
        for t in [Transport::Rdma, Transport::IpoibRc, Transport::IpoibUd] {
            let mut s = NfsSetup::scaled(t, 4, Some(Dur::from_us(10)));
            s.file_size = 8 << 20;
            s.write = true;
            let r = run_read_experiment(s);
            assert!(r.mbs > 0.0, "{t:?} write throughput {}", r.mbs);
        }
    }

    #[test]
    fn rdma_writes_collapse_harder_than_reads_at_delay() {
        // WRITE pulls with RDMA reads (4 outstanding); READ pushes with
        // RDMA writes (32-credit window): writes starve first on the WAN.
        let d = Some(Dur::from_us(500));
        let mut rd = NfsSetup::scaled(Transport::Rdma, 8, d);
        rd.file_size = 16 << 20;
        let mut wr = rd;
        wr.write = true;
        let read_mbs = run_read_experiment(rd).mbs;
        let write_mbs = run_read_experiment(wr).mbs;
        assert!(
            write_mbs < read_mbs,
            "writes ({write_mbs}) should trail reads ({read_mbs}) at 500 us"
        );
    }

    #[test]
    fn threads_scale_throughput_until_saturation() {
        let d = Some(Dur::from_us(100));
        let one = quick(Transport::Rdma, 1, d);
        let eight = quick(Transport::Rdma, 8, d);
        assert!(
            eight > 1.5 * one,
            "8 threads ({eight}) must beat 1 thread ({one})"
        );
    }
}
