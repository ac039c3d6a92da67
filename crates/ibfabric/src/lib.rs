//! # ibfabric — packet-level InfiniBand fabric model
//!
//! Models the pieces of the InfiniBand Architecture the paper's experiments
//! exercise:
//!
//! * **HCAs** with queue pairs (QPs), completion semantics, and host posting
//!   overheads ([`hca`], [`qp`]).
//! * **Transports**: Reliable Connected (RC) — in-order, ACKed, with a bounded
//!   number of outstanding (un-ACKed) messages, which is exactly the mechanism
//!   that makes medium-message bandwidth collapse over long-delay WAN links —
//!   and Unreliable Datagram (UD) — fire-and-forget, MTU-limited, and therefore
//!   delay-insensitive ([`qp`]).
//! * **Verbs**: Send/Recv channel semantics and RDMA Write / RDMA Read memory
//!   semantics ([`verbs`]).
//! * **Switches** with subnet-manager-installed LID forwarding tables
//!   ([`switch`], [`fabric`]).
//! * **Upper-layer protocol hook** ([`ulp`]): MPI, IPoIB, and NFS sit on HCAs
//!   through the [`ulp::Ulp`] trait, mirroring how real ULPs sit on verbs.
//! * **perftest-style ULPs** ([`perftest`]) reproducing the OFED `perftest`
//!   latency/bandwidth tools used in Section 3.2 of the paper.
//!
//! The model carries packet *sizes* and logical identifiers, not payload
//! bytes; an optional inline payload supports data-integrity property tests.
//!
//! ```
//! use ibfabric::fabric::FabricBuilder;
//! use ibfabric::link::LinkConfig;
//! use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer};
//! use ibfabric::qp::QpConfig;
//!
//! // Two nodes back-to-back on a DDR cable, streaming 64 KB messages.
//! let mut b = FabricBuilder::new(1);
//! let tx = b.add_hca(Box::new(BwPeer::sender(BwConfig::new(65536, 100))));
//! let rx = b.add_hca(Box::new(BwPeer::receiver()));
//! b.link(tx.actor, rx.actor, LinkConfig::ddr_lan());
//! let mut fabric = b.finish();
//! let (qt, qr) = rc_qp_pair(&mut fabric, tx, rx, QpConfig::rc());
//! fabric.hca_mut(tx).ulp_mut::<BwPeer>().qpn = qt;
//! fabric.hca_mut(rx).ulp_mut::<BwPeer>().qpn = qr;
//! fabric.run();
//! let bw = fabric.hca(tx).ulp::<BwPeer>().bandwidth_mbs();
//! assert!(bw > 1500.0); // near the 2000 MB/s DDR line rate
//! ```

pub mod fabric;
pub mod hca;
pub mod link;
pub mod packet;
pub mod perftest;
pub mod qp;
pub mod slab;
pub mod switch;
pub mod types;
pub mod ulp;
pub mod verbs;

pub use fabric::{Fabric, FabricBuilder, NodeHandle};
pub use hca::{HcaActor, HcaCore};
pub use link::LinkConfig;
pub use packet::{Opcode, Packet};
pub use qp::{QpConfig, QpState, Qpn, TransportType};
pub use types::Lid;
pub use ulp::{NullUlp, Ulp};
pub use verbs::{Completion, RecvWr, SendKind, SendWr};
