//! Topology-generator smoke experiments: prove that fabrics produced by
//! the declarative [`TopoSpec`] layer — not the paper's hand-wired
//! two-cluster testbed — run real workloads deterministically.
//!
//! * `topoA-3site-bw` streams RC bandwidth across a generated three-site
//!   WAN chain: two Longbow hops in series, which no paper figure has.
//! * `topoB-fattree-alltoall` runs an MPI alltoall over two generated
//!   fat-tree sites joined by a WAN cable — generated multi-switch LAN
//!   stages on both sides of the WAN.
//!
//! Both carry Quick goldens that `ci.sh` checks with
//! `repro --check results/quick`, so the generator → lowering path stays
//! bit-stable.

use crate::config::RunConfig;
use crate::results::Figure;
use crate::sweep::grid;
use crate::topo::{build_topo, TopoSpec};
use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use ibfabric::ulp::{NullUlp, Ulp};
use ibtopo::{SiteSpec, WanSpec, Wiring};
use mpisim::proto::MpiConfig;
use mpisim::world::MpiJob;
use simcore::Dur;

/// Per-hop WAN delays (µs) swept by the three-site chain experiment.
pub const TOPOA_DELAYS_US: [u64; 3] = [0, 100, 1000];
/// Message sizes for the three-site RC stream.
pub const TOPOA_SIZES: [u32; 2] = [65536, 1 << 20];

/// `topoA-3site-bw`: RC bandwidth from site 0 to site 2 of a generated
/// [`TopoSpec::multi_site`] chain — every fragment crosses two Longbow
/// pairs.
pub fn topo_a_3site_bw(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "topoA-3site-bw",
        "RC bandwidth across a generated 3-site WAN chain",
        "delay_us_per_hop",
        "MillionBytes/s",
    );
    let series = TOPOA_SIZES.map(|s| (format!("rc-{}k-end-to-end", s >> 10), s));
    grid(cfg, fig, series, &TOPOA_DELAYS_US, |&size, delay_us| {
        let iters = (16u64 << 20) / size as u64 * cfg.fidelity.iters(1, 4);
        let spec = TopoSpec::multi_site(3, 1, Dur::from_us(delay_us));
        let (mut f, nodes) = build_topo(cfg, 71, &spec, |host| match host {
            0 => Box::new(BwPeer::sender(BwConfig::new(size, iters))) as Box<dyn Ulp>,
            2 => Box::new(BwPeer::receiver()),
            _ => Box::new(NullUlp),
        });
        let (qa, qb) = rc_qp_pair(&mut f, nodes[0], nodes[2], QpConfig::rc());
        f.hca_mut(nodes[0]).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(nodes[2]).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        f.hca(nodes[0]).ulp::<BwPeer>().bandwidth_mbs()
    })
}

/// Per-pair payload sizes swept by the fat-tree alltoall experiment.
pub const TOPOB_SIZES: [u32; 3] = [256, 4096, 65536];
/// WAN delays (µs) between the two fat-tree sites.
pub const TOPOB_DELAYS_US: [u64; 2] = [10, 1000];

/// The two-site fat-tree fabric under `topoB-fattree-alltoall`: two
/// 4-host spine/leaf sites (2 leaves × 2 hosts over one spine each)
/// joined by a Longbow pair — 8 ranks, 6 generated switches.
pub fn topo_b_spec(delay: Dur) -> TopoSpec {
    let site = SiteSpec {
        hosts: 4,
        wiring: Wiring::FatTree {
            leaves: 2,
            spines: 1,
        },
        lan: ibfabric::link::LinkConfig::ddr_lan(),
    };
    TopoSpec {
        sites: vec![site, site],
        wans: vec![WanSpec::longbow(0, 1, delay)],
    }
}

/// `topoB-fattree-alltoall`: mean alltoall latency over the two-site
/// fat-tree fabric of [`topo_b_spec`], one series per WAN delay.
pub fn topo_b_fattree_alltoall(cfg: &RunConfig) -> Figure {
    let fig = Figure::new(
        "topoB-fattree-alltoall",
        "MPI alltoall over two generated fat-tree sites",
        "bytes_per_pair",
        "latency_us",
    );
    let iters = cfg.fidelity.iters(2, 8) as u32;
    let series = TOPOB_DELAYS_US.map(|d| (format!("fattree-{d}us-wan"), d));
    grid(cfg, fig, series, &TOPOB_SIZES, |&delay_us, size| {
        alltoall_latency(cfg, &topo_b_spec(Dur::from_us(delay_us)), size, iters)
    })
}

/// Mean per-operation alltoall latency (µs at rank 0) on an arbitrary
/// generated topology — [`mpisim::bench::collective_latency`] for specs
/// the two-cluster [`mpisim::world::JobSpec`] cannot express.
fn alltoall_latency(cfg: &RunConfig, spec: &TopoSpec, len: u32, iters: u32) -> f64 {
    use mpisim::coll::{self, TagAlloc};
    use mpisim::script::Op;

    const MARK_START: u32 = 0;
    const MARK_END: u32 = 1;
    let mut job = MpiJob::build_on_topo(
        spec,
        MpiConfig::default(),
        cfg.seed_for(73),
        cfg.coalescing,
        |rank, n| {
            let mut tags = TagAlloc::default();
            let mut ops = vec![Op::Mark { id: MARK_START }];
            for _ in 0..iters {
                let tag = tags.take();
                ops.extend(coll::alltoall(n, rank, len, tag));
            }
            ops.push(Op::Mark { id: MARK_END });
            ops
        },
    );
    job.run();
    let runner = &job.process(0).runner;
    let t0 = runner.mark(MARK_START).expect("missing start mark");
    let t1 = runner.mark(MARK_END).expect("missing end mark");
    t1.since(t0).as_us_f64() / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topo_a_is_delay_sensitive() {
        let f = topo_a_3site_bw(&RunConfig::default());
        assert_eq!(f.series.len(), 2);
        for s in &f.series {
            let near = s.y_at(0.0).unwrap();
            let far = s.y_at(1000.0).unwrap();
            assert!(near > 0.0 && far > 0.0, "{:?}", s.label);
            assert!(
                far <= near,
                "{:?}: two WAN hops must not speed the stream up ({far} vs {near})",
                s.label
            );
        }
    }

    #[test]
    fn topo_b_alltoall_slows_with_wan_delay() {
        let f = topo_b_fattree_alltoall(&RunConfig::default());
        assert_eq!(f.series.len(), 2);
        let near = f.series("fattree-10us-wan").unwrap().y_at(4096.0).unwrap();
        let far = f
            .series("fattree-1000us-wan")
            .unwrap()
            .y_at(4096.0)
            .unwrap();
        assert!(
            far > near,
            "WAN delay must dominate alltoall: {far} vs {near}"
        );
    }
}
