//! # pfs — a Lustre-like parallel filesystem over the simulated fabric
//!
//! The paper closes by naming *parallel file-systems* as the next context
//! for IB range extension, and its related work (\[6\], Carter et al.)
//! evaluated Lustre over InfiniBand WAN on DOE's UltraScience Net. This
//! crate supplies that substrate: a metadata server (MDS), `N` object
//! storage servers (OSSes), and clients that stripe file I/O across them —
//! Lustre's architecture reduced to what the WAN question needs.
//!
//! A file read proceeds exactly as in Lustre's happy path:
//!
//! 1. `open` RPC to the MDS returns the striping layout (one small WAN
//!    round trip),
//! 2. the client issues stripe-sized read RPCs round-robin across the
//!    OSSes, keeping `rpcs_in_flight` outstanding per OSS,
//! 3. each OSS pushes its stripe back with chunked RDMA writes and an
//!    ordered reply (the same RPC/RDMA data path as `nfssim`, but with a
//!    1 MB default transfer size).
//!
//! The WAN story this substrate exists to tell: **striping is the
//! filesystem-level version of the paper's parallel-streams optimization.**
//! A single OSS behaves like single-stream NFS and starves on long pipes;
//! striping across 8 OSSes keeps 8 independent RC windows in flight and
//! recovers most of the link (extension experiment `extF`).

pub mod client;
pub mod experiment;
pub mod server;
pub mod wire;

pub use client::{PfsClient, PfsClientConfig};
pub use experiment::{run_striped_read, PfsSetup, PfsThroughput};
pub use server::{MdsServer, OssServer};
pub use wire::{
    PfsMsg, MDS_RPC_BYTES, OSS_RPC_BYTES, PFS_RDMA_CHUNK, PFS_REPLY_BYTES, STRIPE_SIZE,
};
