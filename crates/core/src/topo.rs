//! The declarative topology layer, bound to the run-context pipeline.
//!
//! The IR itself lives in the `ibtopo` crate ([`TopoSpec`], [`SiteSpec`],
//! [`WanSpec`], the generators, and the canonical `TopoSpec ->
//! FabricBuilder` lowering pass); this module re-exports it and adds the
//! two [`RunConfig`]-aware entry points every experiment builds through:
//! [`build_topo`] for arbitrary fabrics and [`build_pair`] for the paper's
//! ubiquitous two-endpoint microbenchmarks. The config supplies the engine
//! profile (coalescing) and may offset the experiment's canonical seed, so
//! the same spec serves the default run, `--no-coalescing` A/B runs, and
//! seed-shifted robustness sweeps without any global state.
//!
//! These replaced the hand-wired `wan_node_pair`/`lan_node_pair`/
//! `cluster_of_clusters` helpers: the shapes those produced are now the
//! [`TopoSpec::two_site`], [`TopoSpec::lan_pair`], and
//! [`TopoSpec::clusters`] generators, lowered bit-identically (enforced by
//! the golden suites in `bench`).

use crate::config::RunConfig;
use ibfabric::fabric::{Fabric, NodeHandle};
use ibfabric::ulp::Ulp;

pub use ibtopo::{ulp_list, SiteSpec, TopoSpec, WanSpec, WanStyle, Wiring};

/// Lower `spec` into a runnable fabric under the run's coalescing and
/// seed policy. `ulp_for(host)` supplies each host's ULP, in site-major
/// host order. Returns the fabric plus host handles in host-id order.
pub fn build_topo<F>(
    cfg: &RunConfig,
    seed: u64,
    spec: &TopoSpec,
    ulp_for: F,
) -> (Fabric, Vec<NodeHandle>)
where
    F: FnMut(usize) -> Box<dyn Ulp>,
{
    spec.build(cfg.seed_for(seed), cfg.coalescing, ulp_for)
}

/// [`build_topo`] for a two-host spec: returns the endpoint handles
/// directly, in the argument order every point-to-point experiment uses.
pub fn build_pair(
    cfg: &RunConfig,
    seed: u64,
    spec: &TopoSpec,
    ulp_a: Box<dyn Ulp>,
    ulp_b: Box<dyn Ulp>,
) -> (Fabric, NodeHandle, NodeHandle) {
    spec.build_pair(cfg.seed_for(seed), cfg.coalescing, ulp_a, ulp_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::ulp::NullUlp;
    use simcore::Dur;

    #[test]
    fn builders_produce_expected_node_counts() {
        let cfg = RunConfig::default();
        let (f, _a, _b) = build_pair(
            &cfg,
            1,
            &TopoSpec::two_site(Dur::from_us(10)),
            Box::new(NullUlp),
            Box::new(NullUlp),
        );
        assert_eq!(f.nodes().len(), 2);
        let (f2, nodes) = build_topo(&cfg, 1, &TopoSpec::clusters(3, 2, Dur::ZERO), |_| {
            Box::new(NullUlp)
        });
        assert_eq!(nodes.len(), 5);
        assert_eq!(f2.nodes().len(), 5);
    }

    #[test]
    fn topo_digest_lands_in_the_run_tally() {
        let cfg = RunConfig::default();
        ibfabric::fabric::reset_run_tally();
        let spec = TopoSpec::two_site(Dur::from_us(10));
        let (_f, _a, _b) = build_pair(&cfg, 1, &spec, Box::new(NullUlp), Box::new(NullUlp));
        let tally = ibfabric::fabric::take_run_tally();
        assert_eq!(tally.topos_built, 1);
        assert_eq!(tally.topo_digest, spec.digest());
    }
}
