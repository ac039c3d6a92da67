//! The metadata server and object storage servers.

use crate::wire::{PfsMsg, PFS_RDMA_CHUNK, PFS_REPLY_BYTES};
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use simcore::{Ctx, Dur, Rate, SerialResource};

/// MDS CPU per open RPC.
const MDS_OP_CPU: Dur = Dur::from_us(20);
/// OSS fixed CPU per read RPC (lock service, extent lookup).
const OSS_OP_CPU: Dur = Dur::from_us(40);
/// OSS backend storage streaming rate (cached/striped spindles or flash;
/// generous so the WAN stays the story).
const STORAGE_RATE: Rate = Rate::from_mbytes_per_sec(2000);

/// The metadata server: answers `open` with the file layout. One QP per
/// client (register with [`MdsServer::add_client_qp`]).
pub struct MdsServer {
    qpns: Vec<Qpn>,
    stripe_count: u32,
    cpu: SerialResource,
    opens_served: u64,
}

impl MdsServer {
    /// An MDS advertising files striped over `stripe_count` OSSes.
    pub fn new(stripe_count: u32) -> Self {
        MdsServer {
            qpns: Vec::new(),
            stripe_count,
            cpu: SerialResource::new(Rate::INFINITE),
            opens_served: 0,
        }
    }

    /// Register a client-facing QP (call during setup).
    pub fn add_client_qp(&mut self, qpn: Qpn) {
        self.qpns.push(qpn);
    }

    /// Opens served.
    pub fn opens_served(&self) -> u64 {
        self.opens_served
    }
}

impl Ulp for MdsServer {
    fn start(&mut self, hca: &mut HcaCore, _ctx: &mut Ctx<'_>) {
        for &q in &self.qpns {
            for _ in 0..64 {
                hca.post_recv(q, RecvWr { wr_id: 0 });
            }
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        if let Completion::RecvDone { qpn, data, .. } = c {
            hca.post_recv(qpn, RecvWr { wr_id: 0 });
            match PfsMsg::decode(&data.expect("PFS RPC without header")) {
                PfsMsg::Open { xid } => {
                    self.opens_served += 1;
                    let (_, ready) = self.cpu.reserve_dur(ctx.now(), MDS_OP_CPU);
                    let reply = SendWr::send(0, PFS_REPLY_BYTES, 0).with_meta(
                        PfsMsg::OpenReply {
                            xid,
                            stripe_count: self.stripe_count,
                        }
                        .encode(),
                    );
                    hca.post_send_after(ctx, qpn, reply, ready);
                }
                other => panic!("MDS received {other:?}"),
            }
        }
    }
}

/// One object storage server: serves extent reads with chunked RDMA writes
/// plus an ordered reply, per client QP.
pub struct OssServer {
    qpns: Vec<Qpn>,
    cpu: SerialResource,
    storage: SerialResource,
    bytes_served: u64,
}

impl Default for OssServer {
    fn default() -> Self {
        Self::new()
    }
}

impl OssServer {
    /// A fresh OSS.
    pub fn new() -> Self {
        OssServer {
            qpns: Vec::new(),
            cpu: SerialResource::new(Rate::INFINITE),
            storage: SerialResource::new(STORAGE_RATE),
            bytes_served: 0,
        }
    }

    /// Register a client-facing QP (call during setup).
    pub fn add_client_qp(&mut self, qpn: Qpn) {
        self.qpns.push(qpn);
    }

    /// Bytes pushed to clients so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served
    }
}

impl Ulp for OssServer {
    fn start(&mut self, hca: &mut HcaCore, _ctx: &mut Ctx<'_>) {
        for &q in &self.qpns {
            for _ in 0..256 {
                hca.post_recv(q, RecvWr { wr_id: 0 });
            }
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        if let Completion::RecvDone { qpn, data, .. } = c {
            hca.post_recv(qpn, RecvWr { wr_id: 0 });
            match PfsMsg::decode(&data.expect("PFS RPC without header")) {
                PfsMsg::Read { xid, len } => {
                    self.bytes_served += len as u64;
                    // RPC service + backend streaming, then RDMA push.
                    let (_, cpu_done) = self.cpu.reserve_dur(ctx.now(), OSS_OP_CPU);
                    let (_, ready) = self.storage.reserve(cpu_done, len as u64);
                    let chunks = len.div_ceil(PFS_RDMA_CHUNK);
                    for i in 0..chunks {
                        let this = (len - i * PFS_RDMA_CHUNK).min(PFS_RDMA_CHUNK);
                        hca.post_send_after(ctx, qpn, SendWr::rdma_write(0, this), ready);
                    }
                    let reply = SendWr::send(0, PFS_REPLY_BYTES, 0)
                        .with_meta(PfsMsg::ReadReply { xid }.encode());
                    hca.post_send_after(ctx, qpn, reply, ready);
                }
                other => panic!("OSS received {other:?}"),
            }
        }
    }
}
