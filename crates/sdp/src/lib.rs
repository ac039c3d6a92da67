//! # sdp — Sockets Direct Protocol over the simulated fabric
//!
//! SDP gives sockets applications the InfiniBand fast path without a TCP
//! stack: stream semantics carried directly on an RC QP. The paper's
//! related work (Prescott & Taylor, reference \[19\]) characterized the same
//! Obsidian Longbows with TTCP over SDP/IB; this crate adds that comparison
//! point next to IPoIB.
//!
//! Two data paths, as in real SDP:
//!
//! * **BCopy** (buffer copy): the sender copies user bytes into a pool of
//!   pre-registered 8 KB private buffers and sends each as an RC message;
//!   the pool is credit-managed by the receiver, which returns credits as
//!   the application drains data. Cheap for small/medium transfers, but
//!   the credit loop spans the WAN round trip.
//! * **ZCopy** (`SrcAvail`): above a threshold the sender instead
//!   advertises the source buffer and the receiver pulls it with one RDMA
//!   read, then acknowledges with `RdmaRdCompl` — zero copies, one
//!   round trip per advertisement, bounded by the QP's outstanding-read
//!   credits.
//!
//! Compared to IPoIB+TCP, SDP skips the per-packet TCP/IP stack costs
//! entirely — which is exactly what the WAN comparison (`extE`) shows.

pub mod node;
pub mod socket;
pub mod wire;

pub use node::SdpNode;
pub use socket::{SdpEvent, SdpSocket};
pub use wire::SdpWire;
