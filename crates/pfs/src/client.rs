//! The PFS client: open at the MDS, then stripe reads across the OSSes.

use crate::wire::{PfsMsg, MDS_RPC_BYTES, OSS_RPC_BYTES, STRIPE_SIZE};
use ibfabric::hca::HcaCore;
use ibfabric::qp::Qpn;
use ibfabric::ulp::Ulp;
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use simcore::{Ctx, Time};

/// Client workload parameters.
#[derive(Copy, Clone, Debug)]
pub struct PfsClientConfig {
    /// Total stripes to read (file size / stripe size).
    pub stripes: u64,
    /// Concurrent read RPCs kept in flight per OSS (Lustre's
    /// `max_rpcs_in_flight`).
    pub rpcs_in_flight: usize,
}

/// The client ULP. Set `mds_qpn` and `oss_qpns` after QP creation.
pub struct PfsClient {
    cfg: PfsClientConfig,
    /// QP to the metadata server.
    pub mds_qpn: Qpn,
    /// QPs to each object storage server, stripe order.
    pub oss_qpns: Vec<Qpn>,
    next_xid: u64,
    issued: u64,
    completed: u64,
    opened_at: Option<Time>,
    started: Option<Time>,
    finished: Option<Time>,
}

impl PfsClient {
    /// A client that will read `cfg.stripes` stripes.
    pub fn new(cfg: PfsClientConfig) -> Self {
        PfsClient {
            cfg,
            mds_qpn: Qpn(0),
            oss_qpns: Vec::new(),
            next_xid: 1,
            issued: 0,
            completed: 0,
            opened_at: None,
            started: None,
            finished: None,
        }
    }

    /// Stripes fully read.
    pub fn stripes_done(&self) -> u64 {
        self.completed
    }

    /// Virtual time of the MDS open round trip completing.
    pub fn opened_at(&self) -> Option<Time> {
        self.opened_at
    }

    /// Aggregate read throughput in MB/s (excluding the open).
    pub fn throughput_mbs(&self) -> f64 {
        let (Some(t0), Some(t1)) = (self.started, self.finished) else {
            return 0.0;
        };
        let d = t1.since(t0);
        if d.is_zero() {
            return 0.0;
        }
        (self.completed as f64 * STRIPE_SIZE as f64) / d.as_secs_f64() / 1e6
    }

    fn issue_read(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, qpn: Qpn) {
        if self.issued >= self.cfg.stripes {
            return;
        }
        self.issued += 1;
        let xid = self.next_xid;
        self.next_xid += 1;
        let call = SendWr::send(0, OSS_RPC_BYTES, 0).with_meta(
            PfsMsg::Read {
                xid,
                len: STRIPE_SIZE,
            }
            .encode(),
        );
        hca.post_send(ctx, qpn, call);
    }
}

impl Ulp for PfsClient {
    fn start(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>) {
        for _ in 0..64 {
            hca.post_recv(self.mds_qpn, RecvWr { wr_id: 0 });
        }
        for &q in &self.oss_qpns {
            for _ in 0..256 {
                hca.post_recv(q, RecvWr { wr_id: 0 });
            }
        }
        // One open round trip to learn the layout, as in Lustre.
        let open = SendWr::send(0, MDS_RPC_BYTES, 0).with_meta(PfsMsg::Open { xid: 0 }.encode());
        hca.post_send(ctx, self.mds_qpn, open);
    }

    fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        if let Completion::RecvDone { qpn, data, .. } = c {
            hca.post_recv(qpn, RecvWr { wr_id: 0 });
            match PfsMsg::decode(&data.expect("PFS RPC without header")) {
                PfsMsg::OpenReply { stripe_count, .. } => {
                    assert_eq!(
                        stripe_count as usize,
                        self.oss_qpns.len(),
                        "layout must match the wired OSSes"
                    );
                    self.opened_at = Some(ctx.now());
                    self.started = Some(ctx.now());
                    // Fill every OSS's pipeline.
                    for i in 0..self.oss_qpns.len() {
                        for _ in 0..self.cfg.rpcs_in_flight {
                            let q = self.oss_qpns[i];
                            self.issue_read(hca, ctx, q);
                        }
                    }
                }
                PfsMsg::ReadReply { .. } => {
                    self.completed += 1;
                    if self.completed == self.cfg.stripes {
                        self.finished = Some(ctx.now());
                    }
                    // Keep the pipeline of the OSS that just freed a slot full.
                    self.issue_read(hca, ctx, qpn);
                }
                other => panic!("client received {other:?}"),
            }
        }
    }
}
