//! # nfssim — NFS over RDMA and over IPoIB
//!
//! Models the NFS configurations the paper evaluates in Section 3.6
//! (Figure 13): a single NFS server, one client node running multiple
//! IOzone-style reader threads, and two RPC transports:
//!
//! * **NFS/RDMA** — the design of Noronha et al. (ICPP'07, reference \[17\]
//!   of the paper): the client sends a small RPC call; the server moves the
//!   record data with zero-copy RDMA writes **fragmented into 4 KB chunks**,
//!   then sends the RPC reply. The 4 KB chunking is what couples NFS/RDMA
//!   throughput to the verbs-level small-message RC curve of Figure 5 —
//!   excellent on the LAN, a sharp collapse at high WAN delay.
//! * **NFS/IPoIB** — classic RPC over TCP, over either UD-mode (2 KB MTU)
//!   or RC-mode (64 KB MTU) IPoIB. Slower on the LAN (copies + TCP
//!   processing), but the large TCP window keeps the WAN pipe fuller than
//!   RDMA's chunk window, which is why IPoIB-RC wins at 1 ms delay.
//!
//! All threads share one transport (one mount): a single QP for RDMA, a
//! single TCP connection for IPoIB — matching how the Linux NFS client
//! multiplexes RPCs.

//! ```
//! use nfssim::{run_read_experiment, NfsSetup, Transport};
//! use simcore::Dur;
//!
//! let mut setup = NfsSetup::scaled(Transport::Rdma, 4, Some(Dur::from_us(10)));
//! setup.file_size = 4 << 20; // tiny file for the doctest
//! let r = run_read_experiment(setup);
//! assert_eq!(r.records, 16);
//! assert!(r.mbs > 100.0);
//! ```

pub mod client;
pub mod experiment;
pub mod rpc;
pub mod server;

pub use client::{NfsClient, NfsClientConfig};
pub use experiment::{run_read_experiment, NfsSetup, NfsThroughput, Transport};
pub use rpc::{RpcMsg, NFS_RDMA_CHUNK, RECORD_SIZE, RPC_CALL_BYTES, RPC_REPLY_BYTES};
pub use server::NfsServer;
