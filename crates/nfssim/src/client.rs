//! The NFS client ULP: IOzone-style multi-threaded sequential reads.

use crate::rpc::{RpcMsg, RECORD_SIZE, RPC_CALL_BYTES, RPC_REPLY_BYTES};
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use ipoib::port::IpoibPort;
use simcore::{Ctx, Time};

/// Client workload parameters.
#[derive(Copy, Clone, Debug)]
pub struct NfsClientConfig {
    /// Concurrent reader threads (outstanding RPCs); the Figure 13 x-axis.
    pub threads: usize,
    /// Total records to read (file size / record size).
    pub records: u64,
    /// True to WRITE the file instead of reading it.
    pub write: bool,
}

enum Transport {
    Rdma,
    Tcp(IpoibPort),
}

/// The NFS client ULP.
pub struct NfsClient {
    cfg: NfsClientConfig,
    transport: Transport,
    /// RDMA transport QP (set after QP creation).
    pub qpn: Qpn,
    issued: u64,
    completed: u64,
    next_xid: u64,
    reply_acc: u64,
    started: Option<Time>,
    finished: Option<Time>,
}

impl NfsClient {
    /// An NFS/RDMA client.
    pub fn rdma(cfg: NfsClientConfig) -> Self {
        NfsClient {
            cfg,
            transport: Transport::Rdma,
            qpn: Qpn(0),
            issued: 0,
            completed: 0,
            next_xid: 1,
            reply_acc: 0,
            started: None,
            finished: None,
        }
    }

    /// An NFS/IPoIB client multiplexing all threads over one TCP connection
    /// (the port must have exactly one stream).
    pub fn tcp(cfg: NfsClientConfig, port: IpoibPort) -> Self {
        assert_eq!(port.n_streams(), 1, "one mount = one TCP connection");
        NfsClient {
            cfg,
            transport: Transport::Tcp(port),
            qpn: Qpn(0),
            issued: 0,
            completed: 0,
            next_xid: 1,
            reply_acc: 0,
            started: None,
            finished: None,
        }
    }

    /// Mutable access to the TCP port (wiring).
    pub fn port_mut(&mut self) -> &mut IpoibPort {
        match &mut self.transport {
            Transport::Tcp(p) => p,
            Transport::Rdma => panic!("RDMA client has no IPoIB port"),
        }
    }

    /// Records fully read.
    pub fn records_done(&self) -> u64 {
        self.completed
    }

    /// Aggregate read throughput in MillionBytes/s.
    pub fn throughput_mbs(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.started, self.finished) else {
            return 0.0;
        };
        let d = t1.since(t0);
        if d.is_zero() {
            return 0.0;
        }
        (self.completed as f64 * RECORD_SIZE as f64) / d.as_secs_f64() / 1e6
    }

    fn issue_one(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        if self.issued >= self.cfg.records {
            return;
        }
        self.issued += 1;
        let xid = self.next_xid;
        self.next_xid += 1;
        match &mut self.transport {
            Transport::Rdma => {
                // Reads and writes both start with a small call; the record
                // itself moves by server-driven RDMA (write: server reads
                // the chunks out of our memory).
                let call = SendWr::send(0, RPC_CALL_BYTES, 0).with_meta(
                    RpcMsg::Call {
                        xid,
                        len: RECORD_SIZE,
                        write: self.cfg.write,
                    }
                    .encode(),
                );
                hca.post_send(ctx, self.qpn, call);
            }
            Transport::Tcp(port) => {
                let bytes = RPC_CALL_BYTES as u64
                    + if self.cfg.write {
                        RECORD_SIZE as u64
                    } else {
                        0
                    };
                port.app_send(hca, ctx, 0, bytes);
            }
        }
    }

    fn complete_one(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        self.completed += 1;
        if self.completed == self.cfg.records {
            self.finished = Some(ctx.now());
        }
        self.issue_one(hca, ctx);
    }
}

impl Ulp for NfsClient {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        match &mut self.transport {
            Transport::Rdma => {
                for _ in 0..1024 {
                    hca.post_recv(self.qpn, RecvWr { wr_id: 0 });
                }
            }
            Transport::Tcp(port) => port.setup(hca),
        }
        self.started = Some(ctx.now());
        let burst = (self.cfg.threads as u64).min(self.cfg.records);
        for _ in 0..burst {
            self.issue_one(hca, ctx);
        }
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        match &mut self.transport {
            Transport::Rdma => {
                if let Completion::RecvDone { qpn, data, .. } = c {
                    hca.post_recv(qpn, RecvWr { wr_id: 0 });
                    match RpcMsg::decode(&data.expect("RPC without header")) {
                        RpcMsg::Reply { .. } => self.complete_one(hca, ctx),
                        RpcMsg::Call { .. } => panic!("client received a call"),
                    }
                }
                // Chunk data lands via silent RDMA writes; the ordered reply
                // is the completion signal, exactly as in the NFS/RDMA design.
            }
            Transport::Tcp(port) => {
                let handled = port.on_completion(hca, ctx, &c);
                debug_assert!(handled, "NFS/TCP client: foreign completion");
            }
        }
    }

    fn on_timer(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, token: u64) {
        let delivery = match &mut self.transport {
            Transport::Tcp(port) => port.on_timer(hca, ctx, token),
            Transport::Rdma => unreachable!("RDMA client has no IPoIB timers"),
        };
        if let Some(d) = delivery {
            self.reply_acc += d.newly;
            let reply_size = if self.cfg.write {
                RPC_REPLY_BYTES as u64
            } else {
                RECORD_SIZE as u64 + RPC_REPLY_BYTES as u64
            };
            while self.reply_acc >= reply_size {
                self.reply_acc -= reply_size;
                self.complete_one(hca, ctx);
            }
        }
    }
}
