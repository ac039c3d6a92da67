//! # ibwan-core — the cluster-of-clusters experiment framework
//!
//! This crate ties the substrates together and reproduces every table and
//! figure of *Performance of HPC Middleware over InfiniBand WAN*
//! (Narravula et al., ICPP 2008):
//!
//! | Experiment | Function | Paper reference |
//! |---|---|---|
//! | Delay ↔ distance | [`verbs::table1`] | Table 1 |
//! | Verbs latency | [`verbs::fig3_latency`] | Figure 3 |
//! | Verbs UD bandwidth | [`verbs::fig4_ud_bandwidth`] | Figure 4 |
//! | Verbs RC bandwidth | [`verbs::fig5_rc_bandwidth`] | Figure 5 |
//! | IPoIB-UD throughput | [`ipoib_exp::fig6_ipoib_ud`] | Figure 6 |
//! | IPoIB-RC throughput | [`ipoib_exp::fig7_ipoib_rc`] | Figure 7 |
//! | MPI bandwidth | [`mpi_exp::fig8_mpi_bandwidth`] | Figure 8 |
//! | MPI threshold tuning | [`mpi_exp::fig9_threshold_tuning`] | Figure 9 |
//! | Multi-pair message rate | [`mpi_exp::fig10_message_rate`] | Figure 10 |
//! | Broadcast optimization | [`mpi_exp::fig11_bcast`] | Figure 11 |
//! | NAS benchmarks | [`nas_exp::fig12_nas`] | Figure 12 |
//! | NFS read throughput | [`nfs_exp::fig13a_nfs_rdma`] | Figure 13 |
//!
//! Plus extension experiments the paper implies but does not plot:
//! [`ext_exp::ext_nfs_write`], [`ext_exp::ext_rndv_protocols`], and
//! [`ext_exp::ext_hierarchical_allreduce`].
//!
//! Each experiment returns a [`results::Figure`] — labeled series of
//! `(x, y)` points — that the `bench` crate's `repro` binary prints in the
//! paper's units. Experiments accept a [`Fidelity`] knob: `Quick` for CI
//! and tests, `Full` for the recorded `EXPERIMENTS.md` numbers.
//!
//! The paper's proposed optimizations all have first-class switches here:
//! rendezvous-threshold tuning and WAN-adaptive selection ([`adaptive`]),
//! parallel streams (Figures 6/7/10), message coalescing
//! (`mpisim::proto::CoalesceConfig`), and hierarchical collectives
//! (Figure 11).

pub mod adaptive;
pub mod analysis;
pub mod calibration;
pub mod config;
pub mod ext_exp;
pub mod ipoib_exp;
pub mod mpi_exp;
pub mod nas_exp;
pub mod nfs_exp;
pub mod planner;
pub mod registry;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod topo;
pub mod topo_exp;
pub mod verbs;

pub use config::RunConfig;
pub use registry::{catalog, Experiment};
pub use results::{Figure, Series};
pub use topo::{build_pair, build_topo, TopoSpec};

/// How much simulated work to spend per data point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Small iteration counts: seconds per figure; used by tests.
    Quick,
    /// The counts used for the recorded `EXPERIMENTS.md` numbers.
    Full,
}

impl Fidelity {
    /// Scale an iteration count.
    pub fn iters(self, quick: u64, full: u64) -> u64 {
        match self {
            Fidelity::Quick => quick,
            Fidelity::Full => full,
        }
    }

    /// Stable lowercase name (provenance blocks, config digests).
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }
}

/// The WAN one-way delays the paper sweeps (µs): 0 plus Table 1's
/// 10 µs (2 km), 100 µs (20 km), 1 ms (200 km), 10 ms (2000 km).
pub const PAPER_DELAYS_US: [u64; 5] = [0, 10, 100, 1000, 10000];
