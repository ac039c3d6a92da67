//! The NFS server ULP: single server, multiple in-flight RPCs, either
//! transport.

use crate::rpc::{RpcMsg, NFS_RDMA_CHUNK, RECORD_SIZE, RPC_REPLY_BYTES};
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use ipoib::port::{IpoibPort, TOKEN_IPOIB_DACK, TOKEN_IPOIB_RX};
use simcore::{Ctx, Dur, Rate, SerialResource, Time};
use std::collections::{HashMap, VecDeque};

/// Timer token for deferred (CPU-cost) RPC service completion.
pub const TOKEN_NFS_SERVICE: u64 = 6;

/// Fixed CPU cost per RPC (lookup, attributes, scheduling).
const OP_CPU: Dur = Dur::from_us(30);
/// Per-byte server-side copy cost on the TCP path (NFS/RDMA avoids this
/// — the paper's "absence of additional copy overheads"): a ~500 MB/s
/// copy path.
const TCP_COPY_RATE: Rate = Rate::from_ps_per_byte(2000);

enum Transport {
    Rdma,
    Tcp(IpoibPort),
}

/// The NFS server ULP.
pub struct NfsServer {
    /// True when clients issue WRITEs: the TCP path then expects
    /// `call + record` bytes per RPC and replies with a bare header.
    write: bool,
    transport: Transport,
    /// RDMA transport QP (set after QP creation).
    pub qpn: Qpn,
    cpu: SerialResource,
    /// TCP path: bytes of call stream accumulated per TCP stream.
    call_acc: Vec<u64>,
    /// TCP path: replies whose service time has elapsed, FIFO.
    service_done: VecDeque<u32>,
    /// RDMA WRITE path: per-pull-read bookkeeping (wr_id -> xid).
    pull_of_wr: HashMap<u64, u64>,
    /// RDMA WRITE path: chunks still outstanding per transaction.
    pulls_left: HashMap<u64, u32>,
    next_wr: u64,
    rpcs_served: u64,
}

impl NfsServer {
    /// An NFS/RDMA server; `write` when its clients issue WRITEs.
    pub fn rdma(write: bool) -> Self {
        NfsServer {
            write,
            transport: Transport::Rdma,
            qpn: Qpn(0),
            cpu: SerialResource::new(Rate::INFINITE),
            call_acc: Vec::new(),
            service_done: VecDeque::new(),
            pull_of_wr: HashMap::new(),
            pulls_left: HashMap::new(),
            next_wr: 1,
            rpcs_served: 0,
        }
    }

    /// An NFS/IPoIB server on the given port (one TCP stream per mount);
    /// `write` when its clients issue WRITEs.
    pub fn tcp(write: bool, port: IpoibPort) -> Self {
        let n = port.n_streams();
        NfsServer {
            write,
            transport: Transport::Tcp(port),
            qpn: Qpn(0),
            cpu: SerialResource::new(Rate::INFINITE),
            call_acc: vec![0; n],
            service_done: VecDeque::new(),
            pull_of_wr: HashMap::new(),
            pulls_left: HashMap::new(),
            next_wr: 1,
            rpcs_served: 0,
        }
    }

    /// Mutable access to the TCP port (wiring).
    pub fn port_mut(&mut self) -> &mut IpoibPort {
        match &mut self.transport {
            Transport::Tcp(p) => p,
            Transport::Rdma => panic!("RDMA server has no IPoIB port"),
        }
    }

    /// RPCs served so far.
    pub fn rpcs_served(&self) -> u64 {
        self.rpcs_served
    }

    fn serve_rdma(
        &mut self,
        hca: &mut HcaCore,
        ctx: &mut Ctx<'_>,
        xid: u64,
        len: u32,
        write: bool,
    ) {
        let (_, ready) = self.cpu.reserve_dur(ctx.now(), OP_CPU);
        let chunks = len.div_ceil(NFS_RDMA_CHUNK);
        self.rpcs_served += 1;
        if write {
            // WRITE: pull the record from the client chunk list with RDMA
            // reads; the reply goes out once every chunk has landed.
            self.pulls_left.insert(xid, chunks);
            for i in 0..chunks {
                let this = (len - i * NFS_RDMA_CHUNK).min(NFS_RDMA_CHUNK);
                let wr_id = self.next_wr;
                self.next_wr += 1;
                self.pull_of_wr.insert(wr_id, xid);
                hca.post_send_after(ctx, self.qpn, SendWr::rdma_read(wr_id, this), ready);
            }
        } else {
            // READ: zero-copy chunked RDMA writes + ordered reply.
            for i in 0..chunks {
                let this = (len - i * NFS_RDMA_CHUNK).min(NFS_RDMA_CHUNK);
                hca.post_send_after(ctx, self.qpn, SendWr::rdma_write(0, this), ready);
            }
            let reply =
                SendWr::send(0, RPC_REPLY_BYTES, 0).with_meta(RpcMsg::Reply { xid }.encode());
            hca.post_send_after(ctx, self.qpn, reply, ready);
        }
    }

    fn on_pull_done(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, wr_id: u64) {
        let Some(xid) = self.pull_of_wr.remove(&wr_id) else {
            return; // not a write-pull completion
        };
        let left = self.pulls_left.get_mut(&xid).expect("pull for unknown xid");
        *left -= 1;
        if *left == 0 {
            self.pulls_left.remove(&xid);
            let reply =
                SendWr::send(0, RPC_REPLY_BYTES, 0).with_meta(RpcMsg::Reply { xid }.encode());
            hca.post_send_after(ctx, self.qpn, reply, ctx.now());
        }
    }

    fn serve_tcp_calls(&mut self, ctx: &mut Ctx<'_>, stream: u32, newly: u64) {
        // WRITE requests carry the record inline on the stream.
        let request_bytes =
            crate::rpc::RPC_CALL_BYTES as u64 + if self.write { RECORD_SIZE as u64 } else { 0 };
        self.call_acc[stream as usize] += newly;
        while self.call_acc[stream as usize] >= request_bytes {
            self.call_acc[stream as usize] -= request_bytes;
            // Service cost includes the server-side data copy through the
            // socket path.
            let work = OP_CPU + TCP_COPY_RATE.tx_time(RECORD_SIZE as u64);
            let (_, fin) = self.cpu.reserve_dur(ctx.now(), work);
            self.service_done.push_back(stream);
            ctx.timer_at(fin, TOKEN_NFS_SERVICE);
            self.rpcs_served += 1;
        }
    }

    fn finish_tcp_service(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        let stream = self
            .service_done
            .pop_front()
            .expect("service timer with empty queue");
        let reply_bytes = if self.write {
            RPC_REPLY_BYTES as u64
        } else {
            RECORD_SIZE as u64 + RPC_REPLY_BYTES as u64
        };
        match &mut self.transport {
            Transport::Tcp(port) => port.app_send(hca, ctx, stream as usize, reply_bytes),
            Transport::Rdma => unreachable!(),
        }
    }
}

impl Ulp for NfsServer {
    fn start(&mut self, hca: &mut HcaCore, _ctx: &mut Ctx<'_>) {
        match &mut self.transport {
            Transport::Rdma => {
                for _ in 0..1024 {
                    hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
                }
            }
            Transport::Tcp(port) => port.setup(hca),
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        match &mut self.transport {
            Transport::Rdma => match c {
                Completion::RecvDone { qpn, data, .. } => {
                    hca.post_recv(qpn, RecvWr { wr_id: 0 });
                    match RpcMsg::decode(&data.expect("RPC without header")) {
                        RpcMsg::Call { xid, len, write } => {
                            self.serve_rdma(hca, ctx, xid, len, write)
                        }
                        RpcMsg::Reply { .. } => panic!("server received a reply"),
                    }
                }
                Completion::SendDone { wr_id, .. } => self.on_pull_done(hca, ctx, wr_id),
                Completion::WriteArrived { .. } => {}
            },
            Transport::Tcp(port) => {
                let handled = port.on_completion(hca, ctx, &c);
                debug_assert!(handled, "NFS/TCP server: foreign completion");
            }
        }
    }

    fn on_timer(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_IPOIB_RX | TOKEN_IPOIB_DACK => {
                let delivery = match &mut self.transport {
                    Transport::Tcp(port) => port.on_timer(hca, ctx, token),
                    Transport::Rdma => unreachable!("RDMA server has no IPoIB timers"),
                };
                if let Some(d) = delivery {
                    self.serve_tcp_calls(ctx, d.stream, d.newly);
                }
            }
            TOKEN_NFS_SERVICE => self.finish_tcp_service(hca, ctx),
            other => panic!("unknown NFS server timer {other}"),
        }
    }
}

/// Helper: virtual time wrapper for tests.
pub type ServerTime = Time;
