//! Run-time exactness on generated fabrics: fragment-train coalescing must
//! be invisible on every shape the `TopoSpec` generators produce — 2/3/4-site
//! Longbow chains, a hub-and-spoke star, and a chain of bare `Plain` WAN
//! cables — with one RC stream crossing every WAN hop between the end
//! sites.
//!
//! Like `tests/protocols.rs`, this walks a deterministic case grid instead
//! of drawing from a proptest RNG: every failure reproduces.

use ibfabric::fabric::FabricReport;
use ibfabric::hca::HcaConfig;
use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
use ibfabric::qp::QpConfig;
use ibfabric::ulp::{NullUlp, Ulp};
use ibwan_core::topo::WanStyle;
use ibwan_core::TopoSpec;
use simcore::{Dur, Time};

/// What one run of [`stream_observables`] saw.
struct Observed {
    /// Bytes the last host received.
    delivered: u64,
    /// The sender's measured bandwidth.
    bandwidth: f64,
    /// Virtual time at quiescence.
    end: Time,
    report: FabricReport,
}

/// One RC stream host 0 → last host across a generated spec, with
/// coalescing on or off.
fn stream_observables(spec: &TopoSpec, coalescing: bool, msgs: u64) -> Observed {
    let last = spec.total_hosts() - 1;
    let (mut f, nodes) = spec.build(23, coalescing, HcaConfig::default(), |host| {
        if host == 0 {
            Box::new(BwPeer::sender(BwConfig::new(65536, msgs))) as Box<dyn Ulp>
        } else if host == last {
            Box::new(BwPeer::receiver())
        } else {
            Box::new(NullUlp)
        }
    });
    let (qa, qb) = rc_qp_pair(&mut f, nodes[0], nodes[last], QpConfig::rc());
    f.hca_mut(nodes[0]).ulp_mut::<BwPeer>().qpn = qa;
    f.hca_mut(nodes[last]).ulp_mut::<BwPeer>().qpn = qb;
    let end = f.run();
    Observed {
        delivered: f.hca(nodes[last]).ulp::<BwPeer>().received(),
        bandwidth: f.hca(nodes[0]).ulp::<BwPeer>().bandwidth_mbs(),
        end,
        report: f.report(),
    }
}

/// Coalescing on vs. off, bit for bit, on every generated shape. Only the
/// 2-site chain keeps every switch at two ports, so only there may trains
/// form; its coalesced leg must emit some, or the A/B compares two
/// per-fragment runs.
#[test]
fn generated_fabrics_replay_bit_identically_without_coalescing() {
    let mut plain = TopoSpec::multi_site(3, 1, Dur::from_ms(1));
    for w in &mut plain.wans {
        w.style = WanStyle::Plain;
    }
    let specs: Vec<TopoSpec> = vec![
        TopoSpec::multi_site(2, 1, Dur::from_ms(1)),
        TopoSpec::multi_site(3, 1, Dur::from_ms(1)),
        TopoSpec::multi_site(4, 1, Dur::from_us(500)),
        TopoSpec::star(3, 1, Dur::from_ms(1)),
        plain,
    ];
    for (i, spec) in specs.iter().enumerate() {
        let coalesced = stream_observables(spec, true, 64);
        let per_fragment = stream_observables(spec, false, 64);
        let what = spec.describe();
        assert!(coalesced.delivered > 0, "nothing delivered: {what}");
        assert_eq!(
            coalesced.delivered, per_fragment.delivered,
            "delivered bytes drifted: {what}"
        );
        assert_eq!(
            coalesced.bandwidth.to_bits(),
            per_fragment.bandwidth.to_bits(),
            "bandwidth drifted bit-wise: {what}"
        );
        assert_eq!(coalesced.end, per_fragment.end, "end time drifted: {what}");
        if i == 0 {
            assert!(
                coalesced.report.engine_counters.trains_emitted > 0,
                "the 2-site chain emitted no trains — the A/B is vacuous: {:?}",
                coalesced.report.engine_counters
            );
        }
    }
}
