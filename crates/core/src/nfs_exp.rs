//! NFS experiments: Figure 13.

use crate::config::RunConfig;
use crate::results::Figure;
use crate::sweep::grid;
use crate::Fidelity;
use nfssim::{run_read_experiment, NfsSetup, Transport};
use simcore::Dur;

/// Client stream (thread) counts on the Figure 13 x-axis.
pub const NFS_STREAMS: [usize; 4] = [1, 2, 4, 8];

/// The NFS transports compared, in legend order.
pub(crate) const TRANSPORTS: [Transport; 3] =
    [Transport::Rdma, Transport::IpoibRc, Transport::IpoibUd];

/// A scaled NFS setup under the run's context (a 16 MiB file at `Quick`).
pub(crate) fn setup(cfg: &RunConfig, t: Transport, threads: usize, delay: Option<Dur>) -> NfsSetup {
    let mut s = NfsSetup::scaled(t, threads, delay);
    if cfg.fidelity == Fidelity::Quick {
        s.file_size = 16 << 20;
    }
    cfg.apply(s)
}

/// Figure 13(a): NFS/RDMA read throughput vs client streams — LAN baseline
/// plus each WAN delay.
pub fn fig13a_nfs_rdma(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "fig13a",
        "NFS/RDMA read throughput: LAN vs WAN delays",
        "streams",
        "MB/s",
    );
    let series = [
        ("LAN", None),
        ("0usec", Some(Dur::ZERO)),
        ("10usec", Some(Dur::from_us(10))),
        ("100usec", Some(Dur::from_us(100))),
        ("1000usec", Some(Dur::from_us(1000))),
    ];
    grid(cfg, fig, series, &NFS_STREAMS, |&delay, n| {
        run_read_experiment(setup(cfg, Transport::Rdma, n, delay)).mbs
    })
}

/// Figure 13(b)/(c): the three transports compared at one delay
/// (100 µs for panel b, 1000 µs for panel c).
pub fn fig13_transport_comparison(cfg: &RunConfig, delay_us: u64) -> Figure {
    let fig = Figure::new(
        format!("fig13-{delay_us}us"),
        format!("NFS read throughput at {delay_us} us delay"),
        "streams",
        "MB/s",
    );
    let series = TRANSPORTS.map(|t| (t.label(), t));
    grid(cfg, fig, series, &NFS_STREAMS, |&t, n| {
        run_read_experiment(setup(cfg, t, n, Some(Dur::from_us(delay_us)))).mbs
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13a_lan_beats_wan() {
        let f = fig13a_nfs_rdma(&RunConfig::default());
        let lan = f.series("LAN").unwrap().y_at(8.0).unwrap();
        let wan0 = f.series("0usec").unwrap().y_at(8.0).unwrap();
        let wan1000 = f.series("1000usec").unwrap().y_at(8.0).unwrap();
        assert!(wan0 < lan, "SDR WAN ({wan0}) below DDR LAN ({lan})");
        assert!(wan1000 < 0.2 * wan0, "sharp drop at 1 ms: {wan1000}");
    }

    #[test]
    fn fig13_crossover_between_panels() {
        let b = fig13_transport_comparison(&RunConfig::default(), 100);
        let rdma_b = b.series("RDMA").unwrap().y_at(8.0).unwrap();
        let rc_b = b.series("IPoIB-RC").unwrap().y_at(8.0).unwrap();
        let ud_b = b.series("IPoIB-UD").unwrap().y_at(8.0).unwrap();
        assert!(
            rdma_b > rc_b && rc_b > ud_b,
            "panel b: {rdma_b} {rc_b} {ud_b}"
        );

        let c = fig13_transport_comparison(&RunConfig::default(), 1000);
        let rdma_c = c.series("RDMA").unwrap().y_at(8.0).unwrap();
        let rc_c = c.series("IPoIB-RC").unwrap().y_at(8.0).unwrap();
        assert!(
            rc_c > rdma_c,
            "panel c: IPoIB-RC ({rc_c}) over RDMA ({rdma_c})"
        );
    }
}
