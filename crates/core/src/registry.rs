//! The experiment registry: every table and figure of the paper's
//! evaluation section (plus the extension experiments) as a uniform,
//! metadata-carrying catalog.
//!
//! Each [`Experiment`] knows its paper reference, sweep axes, and a rough
//! relative cost, and regenerates its [`Figure`] from an explicit
//! [`RunConfig`] — no process-global engine state. The runner
//! ([`crate::runner`]) schedules entries by cost and stamps provenance;
//! the `bench` crate re-exports this catalog for the `repro` and
//! `ibwan_sim` binaries.

use crate::config::RunConfig;
use crate::results::Figure;
use crate::{ext_exp, ipoib_exp, mpi_exp, nas_exp, nfs_exp, topo_exp, verbs};

/// Structural sanity hook run by the runner after a regeneration.
pub type ShapeCheck = fn(&Figure) -> Result<(), String>;

/// A named, regenerable experiment with its catalog metadata.
pub struct Experiment {
    /// Identifier ("table1", "fig5a", ...).
    pub id: &'static str,
    /// What the paper shows there.
    pub description: &'static str,
    /// Where in the paper the figure appears ("Figure 5", "Table 1", ...).
    pub paper_ref: &'static str,
    /// The quantities the experiment sweeps ("delay", "msg size", ...).
    pub axes: &'static [&'static str],
    /// Relative cost estimate (arbitrary units; larger = slower at Full
    /// fidelity). The runner schedules expensive entries first so the
    /// slowest job never starts last.
    pub cost: u32,
    /// Regenerate the figure under the given run configuration.
    pub run: fn(&RunConfig) -> Figure,
    /// Optional shape check: cheap structural invariants (series count,
    /// monotonicity) verified by the runner after every regeneration.
    pub check: Option<ShapeCheck>,
}

/// Shape check: the figure has exactly `n` series, each non-empty.
fn expect_series(f: &Figure, n: usize) -> Result<(), String> {
    if f.series.len() != n {
        return Err(format!(
            "{}: expected {} series, got {}",
            f.id,
            n,
            f.series.len()
        ));
    }
    for s in &f.series {
        if s.points.is_empty() {
            return Err(format!("{}: series {:?} is empty", f.id, s.label));
        }
    }
    Ok(())
}

/// Shape check: every series is non-empty and every y is finite and
/// non-negative (bandwidths, latencies, rates — nothing here goes below
/// zero).
fn finite_nonnegative(f: &Figure) -> Result<(), String> {
    if f.series.is_empty() {
        return Err(format!("{}: no series", f.id));
    }
    for s in &f.series {
        if s.points.is_empty() {
            return Err(format!("{}: series {:?} is empty", f.id, s.label));
        }
        for &(x, y) in &s.points {
            if !y.is_finite() || y < 0.0 {
                return Err(format!("{}: {:?} has y={} at x={}", f.id, s.label, y, x));
            }
        }
    }
    Ok(())
}

/// The full catalog, in paper order: every table and figure of the
/// evaluation section plus the extension experiments.
pub fn catalog() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            description: "Delay overhead corresponding to wire length",
            paper_ref: "Table 1",
            axes: &["distance (km)"],
            cost: 1,
            run: |_cfg| verbs::table1(),
            check: Some(|f| expect_series(f, 1)),
        },
        Experiment {
            id: "fig3",
            description: "Verbs-level latency: UD/RC send, RDMA write, back-to-back",
            paper_ref: "Figure 3",
            axes: &["msg size", "transport"],
            cost: 2,
            run: verbs::fig3_latency,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig4a",
            description: "Verbs UD bandwidth vs delay",
            paper_ref: "Figure 4(a)",
            axes: &["msg size", "delay"],
            cost: 4,
            run: |cfg| verbs::fig4_ud_bandwidth(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig4b",
            description: "Verbs UD bidirectional bandwidth vs delay",
            paper_ref: "Figure 4(b)",
            axes: &["msg size", "delay"],
            cost: 4,
            run: |cfg| verbs::fig4_ud_bandwidth(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig5a",
            description: "Verbs RC bandwidth vs delay",
            paper_ref: "Figure 5(a)",
            axes: &["msg size", "delay"],
            cost: 4,
            run: |cfg| verbs::fig5_rc_bandwidth(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig5b",
            description: "Verbs RC bidirectional bandwidth vs delay",
            paper_ref: "Figure 5(b)",
            axes: &["msg size", "delay"],
            cost: 4,
            run: |cfg| verbs::fig5_rc_bandwidth(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig6a",
            description: "IPoIB-UD single-stream throughput (TCP windows)",
            paper_ref: "Figure 6(a)",
            axes: &["TCP window", "delay"],
            cost: 6,
            run: |cfg| ipoib_exp::fig6_ipoib_ud(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig6b",
            description: "IPoIB-UD parallel-stream throughput",
            paper_ref: "Figure 6(b)",
            axes: &["streams", "delay"],
            cost: 6,
            run: |cfg| ipoib_exp::fig6_ipoib_ud(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig7a",
            description: "IPoIB-RC single-stream throughput (MTUs)",
            paper_ref: "Figure 7(a)",
            axes: &["TCP window", "delay"],
            cost: 6,
            run: |cfg| ipoib_exp::fig7_ipoib_rc(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig7b",
            description: "IPoIB-RC parallel-stream throughput",
            paper_ref: "Figure 7(b)",
            axes: &["streams", "delay"],
            cost: 6,
            run: |cfg| ipoib_exp::fig7_ipoib_rc(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig8a",
            description: "MPI bandwidth (MVAPICH2 defaults)",
            paper_ref: "Figure 8(a)",
            axes: &["msg size", "delay"],
            cost: 8,
            run: |cfg| mpi_exp::fig8_mpi_bandwidth(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig8b",
            description: "MPI bidirectional bandwidth",
            paper_ref: "Figure 8(b)",
            axes: &["msg size", "delay"],
            cost: 8,
            run: |cfg| mpi_exp::fig8_mpi_bandwidth(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig9a",
            description: "MPI bandwidth at 10 ms: rendezvous threshold tuning",
            paper_ref: "Figure 9(a)",
            axes: &["msg size", "rndv threshold"],
            cost: 8,
            run: |cfg| mpi_exp::fig9_threshold_tuning(cfg, false),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig9b",
            description: "MPI bidir bandwidth at 10 ms: threshold tuning",
            paper_ref: "Figure 9(b)",
            axes: &["msg size", "rndv threshold"],
            cost: 8,
            run: |cfg| mpi_exp::fig9_threshold_tuning(cfg, true),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig10a",
            description: "Multi-pair message rate, 10 us delay",
            paper_ref: "Figure 10(a)",
            axes: &["pairs", "msg size"],
            cost: 10,
            run: |cfg| mpi_exp::fig10_message_rate(cfg, 10),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig10b",
            description: "Multi-pair message rate, 1 ms delay",
            paper_ref: "Figure 10(b)",
            axes: &["pairs", "msg size"],
            cost: 10,
            run: |cfg| mpi_exp::fig10_message_rate(cfg, 1000),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig10c",
            description: "Multi-pair message rate, 10 ms delay",
            paper_ref: "Figure 10(c)",
            axes: &["pairs", "msg size"],
            cost: 10,
            run: |cfg| mpi_exp::fig10_message_rate(cfg, 10000),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig11a",
            description: "Bcast latency, 10 us delay: original vs hierarchical",
            paper_ref: "Figure 11(a)",
            axes: &["msg size", "algorithm"],
            cost: 6,
            run: |cfg| mpi_exp::fig11_bcast(cfg, 10),
            check: Some(|f| expect_series(f, 2)),
        },
        Experiment {
            id: "fig11b",
            description: "Bcast latency, 100 us delay: original vs hierarchical",
            paper_ref: "Figure 11(b)",
            axes: &["msg size", "algorithm"],
            cost: 6,
            run: |cfg| mpi_exp::fig11_bcast(cfg, 100),
            check: Some(|f| expect_series(f, 2)),
        },
        Experiment {
            id: "fig11c",
            description: "Bcast latency, 1 ms delay: original vs hierarchical",
            paper_ref: "Figure 11(c)",
            axes: &["msg size", "algorithm"],
            cost: 6,
            run: |cfg| mpi_exp::fig11_bcast(cfg, 1000),
            check: Some(|f| expect_series(f, 2)),
        },
        Experiment {
            id: "fig12",
            description: "NAS IS/FT/CG class B vs delay",
            paper_ref: "Figure 12",
            axes: &["benchmark", "delay"],
            cost: 12,
            run: nas_exp::fig12_nas,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig13a",
            description: "NFS/RDMA read throughput: LAN and WAN delays",
            paper_ref: "Figure 13(a)",
            axes: &["threads", "delay"],
            cost: 10,
            run: nfs_exp::fig13a_nfs_rdma,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig13b",
            description: "NFS transports at 100 us delay",
            paper_ref: "Figure 13(b)",
            axes: &["threads", "transport"],
            cost: 10,
            run: |cfg| nfs_exp::fig13_transport_comparison(cfg, 100),
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "fig13c",
            description: "NFS transports at 1000 us delay",
            paper_ref: "Figure 13(c)",
            axes: &["threads", "transport"],
            cost: 10,
            run: |cfg| nfs_exp::fig13_transport_comparison(cfg, 1000),
            check: Some(finite_nonnegative),
        },
        // --- extensions beyond the paper's plots ---
        Experiment {
            id: "extA",
            description: "NFS write throughput (paper omitted its numbers)",
            paper_ref: "Section 5.4 (unplotted)",
            axes: &["threads", "delay"],
            cost: 10,
            run: ext_exp::ext_nfs_write,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "extB",
            description: "Rendezvous protocol comparison (RPUT/RGET/R3) on the WAN",
            paper_ref: "Section 5.3 (implied)",
            axes: &["msg size", "protocol"],
            cost: 6,
            run: ext_exp::ext_rndv_protocols,
            check: Some(|f| expect_series(f, 3)),
        },
        Experiment {
            id: "extC",
            description: "Flat vs hierarchical allreduce (paper future work)",
            paper_ref: "Section 6 (future work)",
            axes: &["msg size", "algorithm"],
            cost: 6,
            run: ext_exp::ext_hierarchical_allreduce,
            check: Some(|f| expect_series(f, 2)),
        },
        Experiment {
            id: "extD",
            description: "Longbow buffer depth: link-credit BDP wall on the WAN",
            paper_ref: "Section 3 (implied)",
            axes: &["delay", "credits"],
            cost: 4,
            run: ext_exp::ext_longbow_credits,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "extE",
            description: "SDP vs IPoIB sockets throughput (related-work comparison)",
            paper_ref: "Section 2 (related work)",
            axes: &["msg size", "transport"],
            cost: 6,
            run: ext_exp::ext_sdp_vs_ipoib,
            check: Some(finite_nonnegative),
        },
        Experiment {
            id: "extF",
            description: "Parallel-filesystem striping over the WAN (future work)",
            paper_ref: "Section 6 (future work)",
            axes: &["stripe width", "delay"],
            cost: 8,
            run: ext_exp::ext_pfs_striping,
            check: Some(finite_nonnegative),
        },
        // --- topology-generator smoke experiments ---
        Experiment {
            id: "topoA-3site-bw",
            description: "RC bandwidth across a generated 3-site WAN chain",
            paper_ref: "TopoSpec smoke (beyond the paper)",
            axes: &["delay", "msg size"],
            cost: 4,
            run: topo_exp::topo_a_3site_bw,
            check: Some(|f| expect_series(f, 2)),
        },
        Experiment {
            id: "topoB-fattree-alltoall",
            description: "MPI alltoall over two generated fat-tree sites",
            paper_ref: "TopoSpec smoke (beyond the paper)",
            axes: &["msg size", "delay"],
            cost: 4,
            run: topo_exp::topo_b_fattree_alltoall,
            check: Some(|f| expect_series(f, 2)),
        },
    ]
}

/// Look up a catalog entry by id.
pub fn find(id: &str) -> Option<Experiment> {
    catalog().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_table_and_figure() {
        let ids: Vec<&str> = catalog().iter().map(|e| e.id).collect();
        for required in [
            "table1", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
            "fig7b", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig10c", "fig11a",
            "fig11b", "fig11c", "fig12", "fig13a", "fig13b", "fig13c",
        ] {
            assert!(ids.contains(&required), "missing {required}");
        }
        assert_eq!(
            ids.len(),
            32,
            "24 paper experiments + 6 extensions + 2 topology smokes"
        );
    }

    #[test]
    fn ids_are_unique_and_metadata_complete() {
        let cat = catalog();
        let mut ids: Vec<&str> = cat.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), cat.len(), "duplicate experiment ids");
        for e in &cat {
            assert!(!e.description.is_empty(), "{}: empty description", e.id);
            assert!(!e.paper_ref.is_empty(), "{}: empty paper_ref", e.id);
            assert!(!e.axes.is_empty(), "{}: no sweep axes", e.id);
            assert!(e.cost > 0, "{}: zero cost", e.id);
        }
    }

    #[test]
    fn find_locates_entries() {
        assert_eq!(find("fig5a").map(|e| e.paper_ref), Some("Figure 5(a)"));
        assert!(find("nope").is_none());
    }

    #[test]
    fn shape_checks_catch_malformed_figures() {
        let empty = Figure::new("x", "t", "x", "y");
        assert!(expect_series(&empty, 1).is_err());
        assert!(finite_nonnegative(&empty).is_err());
        let mut good = Figure::new("x", "t", "x", "y");
        let mut s = crate::results::Series::new("s");
        s.push(1.0, 2.0);
        good.series.push(s);
        assert!(expect_series(&good, 1).is_ok());
        assert!(finite_nonnegative(&good).is_ok());
        let mut bad = good.clone();
        bad.series[0].points.push((2.0, f64::NAN));
        assert!(finite_nonnegative(&bad).is_err());
    }
}
