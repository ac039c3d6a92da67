//! NAS application experiment: Figure 12.

use crate::config::RunConfig;
use crate::results::{Figure, Series};
use crate::sweep::parallel_map;
use crate::{Fidelity, PAPER_DELAYS_US};
use mpisim::world::JobSpec;
use nasbench::{run_spec, NasBenchmark};
use simcore::Dur;

/// Figure 12: NAS class-B execution time vs WAN delay for IS, FT, and CG.
/// The paper runs 32+32 processes; `Quick` fidelity uses 8+8.
pub fn fig12_nas(cfg: &RunConfig) -> Figure {
    let per_cluster = match cfg.fidelity {
        Fidelity::Quick => 8,
        Fidelity::Full => 32,
    };
    let mut fig = Figure::new(
        "fig12",
        format!(
            "NAS class-B benchmarks, {} processes per cluster",
            per_cluster
        ),
        "delay_us",
        "time_secs",
    );
    let pts: Vec<(NasBenchmark, u64)> = NasBenchmark::ALL
        .iter()
        .flat_map(|&b| PAPER_DELAYS_US.iter().map(move |&d| (b, d)))
        .collect();
    let res = parallel_map(cfg, pts, |(bench, d)| {
        let spec = JobSpec::two_clusters(per_cluster, per_cluster, Dur::from_us(d));
        let spec = spec
            .with_coalescing(cfg.coalescing)
            .with_seed(cfg.seed_for(spec.seed));
        let r = run_spec(bench, spec);
        (bench, d, r.time_secs)
    });
    for &bench in &NasBenchmark::ALL {
        let mut s = Series::new(bench.name());
        for &(b, d, t) in &res {
            if b == bench {
                s.push(d as f64, t);
            }
        }
        fig.series.push(s);
    }
    fig
}

/// The same data normalized to the 0-delay runtime (slowdown factors) —
/// useful for reading tolerance directly.
pub fn fig12_slowdowns(fig: &Figure) -> Figure {
    let mut out = Figure::new(
        "fig12-slowdown",
        "NAS slowdown relative to 0 km",
        "delay_us",
        "slowdown_x",
    );
    for s in &fig.series {
        let base = s.y_at(0.0).unwrap_or(1.0);
        let mut ns = Series::new(s.label.clone());
        for &(x, y) in &s.points {
            ns.push(x, y / base);
        }
        out.series.push(ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shapes_match_paper() {
        let f = fig12_nas(&RunConfig::default());
        let slow = fig12_slowdowns(&f);
        let is_1ms = slow.series("IS").unwrap().y_at(1000.0).unwrap();
        let ft_1ms = slow.series("FT").unwrap().y_at(1000.0).unwrap();
        let cg_1ms = slow.series("CG").unwrap().y_at(1000.0).unwrap();
        // IS and FT tolerate 200 km; CG degrades markedly.
        assert!(is_1ms < 1.5, "IS at 1ms: {is_1ms}x");
        assert!(ft_1ms < 1.5, "FT at 1ms: {ft_1ms}x");
        assert!(cg_1ms > 1.5, "CG at 1ms: {cg_1ms}x");
        assert!(cg_1ms > is_1ms && cg_1ms > ft_1ms);
    }
}
