//! # mpisim — an MVAPICH2-like MPI library over the simulated fabric
//!
//! Implements the MPI machinery the paper's Sections 3.4–3.6 exercise:
//!
//! * **Point-to-point protocols** ([`proto`]): the *eager* protocol (copy
//!   into pre-registered buffers, send immediately — sender completes
//!   locally) for messages up to the rendezvous threshold, and the
//!   *rendezvous* protocol (RTS → CTS → zero-copy RDMA write → FIN) above
//!   it. The threshold defaults to MVAPICH2's 8 KB and is tunable — raising
//!   it to 64 KB over a 10 ms WAN link is exactly the Figure 9 optimization.
//! * **Collectives** ([`coll`]): broadcast (binomial for small messages,
//!   scatter + ring-allgather for large, like MVAPICH2), the WAN-aware
//!   *hierarchical* broadcast of Figure 11, dissemination barrier,
//!   recursive-doubling allreduce, and pairwise alltoall — all expanded
//!   statically into point-to-point operation scripts.
//! * **SPMD scripts** ([`script`]): each rank runs an operation list
//!   (send/recv/windows/compute/markers) driven by completion events — the
//!   substrate for the OSU benchmarks and the NAS skeletons.
//! * **Job builder** ([`world`]): lays ranks out across the two clusters of
//!   the cluster-of-clusters topology and wires the QP mesh.
//! * **OSU-style benchmarks** ([`mod@bench`]): `osu_latency`, `osu_bw`,
//!   `osu_bibw`, multi-pair message rate, and the paper's modified
//!   `osu_bcast` (root waits for the ACK of the farthest process).
//!
//! The paper also proposes coalescing small messages over the WAN; that is
//! not modeled here: every MPI send leaves as its own IB message.

//! ```
//! use mpisim::bench::{osu_latency, wan_pair};
//! use simcore::Dur;
//!
//! // Two ranks, one per cluster, 100 us (20 km) apart.
//! let lat = osu_latency(wan_pair(Dur::from_us(100)), 4, 10);
//! assert!(lat > 100.0 && lat < 130.0, "one-way latency {lat} us");
//! ```

pub mod bench;
pub mod coll;
pub mod patterns;
pub mod proto;
pub mod script;
pub mod wire;
pub mod world;

pub use proto::{MpiConfig, MpiEvent, P2p, ReqId};
pub use script::{Op, ScriptRunner};
pub use world::{JobSpec, MpiJob, MpiProcess};
