//! The MPI point-to-point engine: eager and rendezvous protocols and
//! matching. Every send leaves as its own IB message: the paper's proposed
//! small-message coalescing is not modeled.
//!
//! ## Protocol trade-off (the heart of Figure 9)
//!
//! *Eager* sends copy the user buffer into pre-registered bounce buffers and
//! push the data immediately; `MPI_Send` completes as soon as the local copy
//! is done, so a stream of eager messages fills the WAN pipe subject only to
//! the RC transport window. *Rendezvous* avoids the copies (zero-copy RDMA
//! write) but pays an RTS/CTS handshake — one extra WAN round-trip — before
//! any data moves, and holds the send hostage until the transfer completes.
//! On a LAN the handshake is microseconds and rendezvous wins for large
//! messages; over a 10 ms WAN the handshake is ruinous for medium messages,
//! which is why the paper tunes the threshold from 8 KB to 64 KB.

use crate::wire::{MpiWire, CTRL_BYTES, EAGER_HEADER_BYTES};
use ibfabric::hca::HcaCore;
use ibfabric::qp::{QpConfig, Qpn};
use ibfabric::verbs::{Completion, RecvWr, SendWr};
use simcore::{Ctx, Dur, Rate, SerialResource};
use std::collections::{HashMap, VecDeque};

/// Identifier of a nonblocking MPI request.
pub type ReqId = u64;

/// A completed request, surfaced to the script runner.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MpiEvent {
    /// The request that finished.
    pub req: ReqId,
}

/// Timer token the owning ULP must route to [`P2p::on_copy_timer`]:
/// deferred copy completions.
pub const TOKEN_COPY: u64 = 10;

/// Which rendezvous data-movement scheme large messages use — the three
/// MVAPICH2 designs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RndvProtocol {
    /// RTS → CTS → sender RDMA-writes → FIN (zero-copy, default).
    Rput,
    /// RTS → receiver RDMA-reads → DONE (zero-copy; bounded by the QP's
    /// outstanding-read credits, which matters over long pipes).
    Rget,
    /// RTS → CTS → data packetized through the eager channel (copy-based
    /// fallback for unregistered buffers).
    R3,
}

/// MPI library configuration.
#[derive(Copy, Clone, Debug)]
pub struct MpiConfig {
    /// Messages at or below this size use the eager protocol (MVAPICH2
    /// default: 8 KB). The Figure 9 tuning raises it to 64 KB over the WAN.
    pub eager_threshold: u32,
    /// Rendezvous data-movement scheme for larger messages.
    pub rndv_protocol: RndvProtocol,
    /// Chunk size for the R3 packetized path.
    pub r3_chunk: u32,
    /// Memcpy rate for eager bounce-buffer copies.
    pub copy_rate: Rate,
    /// Software overhead per MPI call.
    pub sw_overhead: Dur,
    /// Transport parameters for the per-peer RC QPs.
    pub qp: QpConfig,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            eager_threshold: 8192,
            rndv_protocol: RndvProtocol::Rput,
            r3_chunk: 16384,
            copy_rate: Rate::from_ps_per_byte(250), // ~4 GB/s memcpy
            sw_overhead: Dur::from_ns(200),
            qp: QpConfig::rc(),
        }
    }
}

impl MpiConfig {
    /// The Figure 9 "tuned" configuration: 64 KB rendezvous threshold.
    pub fn wan_tuned() -> Self {
        MpiConfig {
            eager_threshold: 65536,
            ..MpiConfig::default()
        }
    }
}

struct Posted {
    src: usize,
    tag: u32,
    req: ReqId,
}

enum UnexpectedKind {
    Eager,
    Rts(u32),
}

struct Unexpected {
    src: usize,
    tag: u32,
    len: u32,
    kind: UnexpectedKind,
}

struct RndvOut {
    req: ReqId,
    peer: usize,
    tag: u32,
    len: u32,
}

enum WrPurpose {
    /// RPUT: sender-side RDMA write; ACK completes the MPI send.
    RndvWrite(ReqId),
    /// RGET: receiver-side RDMA read; completion finishes the MPI recv.
    RgetRead { rndv: u32, peer: usize },
}

/// Per-process point-to-point engine.
pub struct P2p {
    rank: usize,
    nranks: usize,
    cfg: MpiConfig,
    qpn_of_peer: Vec<Option<Qpn>>,
    peer_of_qpn: HashMap<u32, usize>,
    next_req: ReqId,
    next_rndv: u32,
    next_wr: u64,
    posted: VecDeque<Posted>,
    unexpected: VecDeque<Unexpected>,
    rndv_out: HashMap<u32, RndvOut>,
    rndv_in: HashMap<u32, ReqId>,
    wr_purpose: HashMap<u64, WrPurpose>,
    cpu: SerialResource,
    deferred: VecDeque<ReqId>,
    events: Vec<MpiEvent>,
    bytes_sent: u64,
    msgs_sent: u64,
    send_size_log2: [u64; 33],
    bytes_to_peer: Vec<u64>,
}

impl P2p {
    /// Engine for `rank` of `nranks` with `cfg`.
    pub fn new(rank: usize, nranks: usize, cfg: MpiConfig) -> Self {
        P2p {
            rank,
            nranks,
            cfg,
            qpn_of_peer: vec![None; nranks],
            peer_of_qpn: HashMap::new(),
            next_req: 1,
            next_rndv: 1,
            next_wr: 1,
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            rndv_out: HashMap::new(),
            rndv_in: HashMap::new(),
            wr_purpose: HashMap::new(),
            cpu: SerialResource::new(Rate::INFINITE),
            deferred: VecDeque::new(),
            events: Vec::new(),
            bytes_sent: 0,
            msgs_sent: 0,
            send_size_log2: [0; 33],
            bytes_to_peer: vec![0; nranks],
        }
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }
    /// Communicator size.
    pub fn nranks(&self) -> usize {
        self.nranks
    }
    /// Configuration in effect.
    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }
    /// Payload bytes passed to `isend` so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
    /// Messages passed to `isend` so far.
    pub fn msgs_sent(&self) -> u64 {
        self.msgs_sent
    }

    /// Histogram of sent message sizes: bucket `i` counts messages with
    /// `len` in `[2^i, 2^(i+1))` (bucket 0 includes zero-length). Used to
    /// reproduce the paper's message-size-distribution profiling of the NAS
    /// codes (Section 3.5).
    pub fn send_size_histogram(&self) -> &[u64; 33] {
        &self.send_size_log2
    }

    /// Payload bytes sent to each peer — one row of the job's
    /// communication matrix.
    pub fn bytes_to_peers(&self) -> &[u64] {
        &self.bytes_to_peer
    }

    /// Register the QP connected to `peer`.
    pub fn set_peer_qp(&mut self, peer: usize, qpn: Qpn) {
        self.qpn_of_peer[peer] = Some(qpn);
        self.peer_of_qpn.insert(qpn.0, peer);
    }

    /// Pre-post the receive pools on every connected QP. Call once at start.
    pub fn setup_recv_pools(&mut self, hca: &mut HcaCore) {
        for qpn in self.qpn_of_peer.iter().flatten() {
            for _ in 0..64 {
                hca.post_recv(*qpn, RecvWr { wr_id: 0 });
            }
        }
    }

    /// Drain completion events produced since the last call.
    pub fn take_events(&mut self) -> Vec<MpiEvent> {
        std::mem::take(&mut self.events)
    }

    fn fresh_req(&mut self) -> ReqId {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    fn qpn(&self, peer: usize) -> Qpn {
        self.qpn_of_peer[peer].unwrap_or_else(|| panic!("no QP to peer {peer}"))
    }

    fn defer_done(&mut self, ctx: &mut Ctx<'_>, req: ReqId, at: simcore::Time) {
        self.deferred.push_back(req);
        ctx.timer_at(at, TOKEN_COPY);
    }

    /// Nonblocking send of `len` bytes to `to` with `tag`.
    pub fn isend(
        &mut self,
        hca: &mut HcaCore,
        ctx: &mut Ctx<'_>,
        to: usize,
        tag: u32,
        len: u32,
    ) -> ReqId {
        assert_ne!(to, self.rank, "self-sends are delivered via shared memory");
        let req = self.fresh_req();
        self.bytes_sent += len as u64;
        self.msgs_sent += 1;
        let bucket = if len == 0 {
            0
        } else {
            32 - len.leading_zeros() as usize
        };
        self.send_size_log2[bucket] += 1;
        self.bytes_to_peer[to] += len as u64;
        if len <= self.cfg.eager_threshold {
            // Eager: copy to bounce buffer, send, complete locally.
            let work = self.cfg.sw_overhead + self.cfg.copy_rate.tx_time(len as u64);
            let (_, fin) = self.cpu.reserve_dur(ctx.now(), work);
            let wr = SendWr::send(0, len + EAGER_HEADER_BYTES, 0)
                .with_meta(MpiWire::Eager { tag, len }.encode());
            hca.post_send_after(ctx, self.qpn(to), wr, fin);
            self.defer_done(ctx, req, fin);
        } else {
            // Rendezvous: RTS now; data moves after CTS.
            let (_, fin) = self.cpu.reserve_dur(ctx.now(), self.cfg.sw_overhead);
            let rndv = self.next_rndv;
            self.next_rndv += 1;
            let wr =
                SendWr::send(0, CTRL_BYTES, 0).with_meta(MpiWire::Rts { tag, len, rndv }.encode());
            hca.post_send_after(ctx, self.qpn(to), wr, fin);
            self.rndv_out.insert(
                rndv,
                RndvOut {
                    req,
                    peer: to,
                    tag,
                    len,
                },
            );
        }
        req
    }

    /// Nonblocking receive matching `(from, tag)`.
    pub fn irecv(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, from: usize, tag: u32) -> ReqId {
        let req = self.fresh_req();
        // Match against the unexpected queue first (FIFO per (src, tag)).
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| u.src == from && u.tag == tag)
        {
            let u = self.unexpected.remove(pos).unwrap();
            match u.kind {
                UnexpectedKind::Eager => {
                    let work = self.cfg.copy_rate.tx_time(u.len as u64);
                    let (_, fin) = self.cpu.reserve_dur(ctx.now(), work);
                    self.defer_done(ctx, req, fin);
                }
                UnexpectedKind::Rts(rndv) => {
                    self.begin_rndv_receive(hca, ctx, u.src, rndv, u.len, req);
                }
            }
        } else {
            self.posted.push_back(Posted {
                src: from,
                tag,
                req,
            });
        }
        req
    }

    fn send_cts(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, peer: usize, rndv: u32) {
        let wr = SendWr::send(0, CTRL_BYTES, 0).with_meta(MpiWire::Cts { rndv }.encode());
        hca.post_send_after(ctx, self.qpn(peer), wr, ctx.now());
    }

    /// Receiver-side reaction to a matched RTS, per rendezvous protocol.
    #[allow(clippy::too_many_arguments)]
    fn begin_rndv_receive(
        &mut self,
        hca: &mut HcaCore,
        ctx: &mut Ctx<'_>,
        peer: usize,
        rndv: u32,
        len: u32,
        req: ReqId,
    ) {
        self.rndv_in.insert(rndv, req);
        match self.cfg.rndv_protocol {
            RndvProtocol::Rput | RndvProtocol::R3 => self.send_cts(hca, ctx, peer, rndv),
            RndvProtocol::Rget => {
                // Zero-copy pull: RDMA-read the payload from the sender.
                let wr_id = self.next_wr;
                self.next_wr += 1;
                self.wr_purpose
                    .insert(wr_id, WrPurpose::RgetRead { rndv, peer });
                hca.post_send(ctx, self.qpn(peer), SendWr::rdma_read(wr_id, len));
            }
        }
    }

    fn deliver_eager(&mut self, ctx: &mut Ctx<'_>, src: usize, tag: u32, len: u32) {
        if let Some(pos) = self
            .posted
            .iter()
            .position(|p| p.src == src && p.tag == tag)
        {
            let p = self.posted.remove(pos).unwrap();
            let work = self.cfg.copy_rate.tx_time(len as u64);
            let (_, fin) = self.cpu.reserve_dur(ctx.now(), work);
            self.defer_done(ctx, p.req, fin);
        } else {
            self.unexpected.push_back(Unexpected {
                src,
                tag,
                len,
                kind: UnexpectedKind::Eager,
            });
        }
    }

    /// Feed an HCA completion into the protocol engine. Drain
    /// [`P2p::take_events`] afterwards.
    pub fn on_completion(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, c: Completion) {
        match c {
            Completion::RecvDone { qpn, data, .. } => {
                hca.post_recv(qpn, RecvWr { wr_id: 0 });
                let src = *self
                    .peer_of_qpn
                    .get(&qpn.0)
                    .unwrap_or_else(|| panic!("completion on unknown {qpn:?}"));
                let wire = MpiWire::decode(&data.expect("MPI message without header"));
                self.on_wire(hca, ctx, src, wire);
            }
            Completion::SendDone { wr_id, .. } => match self.wr_purpose.remove(&wr_id) {
                Some(WrPurpose::RndvWrite(req)) => {
                    // RPUT: zero-copy transfer fully ACKed; MPI_Send completes.
                    self.events.push(MpiEvent { req });
                }
                Some(WrPurpose::RgetRead { rndv, peer }) => {
                    // RGET: our RDMA read returned; the recv completes and
                    // the sender learns via DONE.
                    let req = self
                        .rndv_in
                        .remove(&rndv)
                        .expect("RGET read for unknown rendezvous");
                    self.events.push(MpiEvent { req });
                    let done =
                        SendWr::send(0, CTRL_BYTES, 0).with_meta(MpiWire::Done { rndv }.encode());
                    hca.post_send_after(ctx, self.qpn(peer), done, ctx.now());
                }
                None => {}
            },
            Completion::WriteArrived { .. } => {
                unreachable!("MPI rendezvous writes are silent; FIN carries completion")
            }
        }
    }

    fn on_wire(&mut self, hca: &mut HcaCore, ctx: &mut Ctx<'_>, src: usize, wire: MpiWire) {
        match wire {
            MpiWire::Eager { tag, len } => self.deliver_eager(ctx, src, tag, len),
            MpiWire::Rts { tag, len, rndv } => {
                if let Some(pos) = self
                    .posted
                    .iter()
                    .position(|p| p.src == src && p.tag == tag)
                {
                    let p = self.posted.remove(pos).unwrap();
                    self.begin_rndv_receive(hca, ctx, src, rndv, len, p.req);
                } else {
                    self.unexpected.push_back(Unexpected {
                        src,
                        tag,
                        len,
                        kind: UnexpectedKind::Rts(rndv),
                    });
                }
            }
            MpiWire::Cts { rndv } => {
                let out = self
                    .rndv_out
                    .remove(&rndv)
                    .expect("CTS for unknown rendezvous");
                let qpn = self.qpn(out.peer);
                match self.cfg.rndv_protocol {
                    RndvProtocol::Rput => {
                        // Zero-copy RDMA write of the payload, then an
                        // ordered FIN.
                        let wr_id = self.next_wr;
                        self.next_wr += 1;
                        self.wr_purpose.insert(wr_id, WrPurpose::RndvWrite(out.req));
                        hca.post_send(ctx, qpn, SendWr::rdma_write(wr_id, out.len));
                        let fin = SendWr::send(0, CTRL_BYTES, 0).with_meta(
                            MpiWire::Fin {
                                rndv,
                                tag: out.tag,
                                len: out.len,
                            }
                            .encode(),
                        );
                        hca.post_send(ctx, qpn, fin);
                    }
                    RndvProtocol::R3 => {
                        // Packetized path: chunk the payload through the
                        // send channel, paying the bounce-buffer copies.
                        let chunk = self.cfg.r3_chunk.max(1);
                        let chunks = out.len.div_ceil(chunk).max(1);
                        let mut fin = ctx.now();
                        for i in 0..chunks {
                            let this = (out.len - i * chunk).min(chunk);
                            let work = self.cfg.copy_rate.tx_time(this as u64);
                            let (_, f) = self.cpu.reserve_dur(ctx.now(), work);
                            fin = f;
                            let wr = SendWr::send(0, this + EAGER_HEADER_BYTES, 0).with_meta(
                                MpiWire::R3Data {
                                    rndv,
                                    len: this,
                                    last: i + 1 == chunks,
                                }
                                .encode(),
                            );
                            hca.post_send_after(ctx, qpn, wr, f);
                        }
                        // Buffer reusable once the last chunk is copied out.
                        self.defer_done(ctx, out.req, fin);
                    }
                    RndvProtocol::Rget => {
                        unreachable!("RGET receivers pull; they never send CTS")
                    }
                }
            }
            MpiWire::Fin { rndv, .. } => {
                let req = self
                    .rndv_in
                    .remove(&rndv)
                    .expect("FIN for unknown rendezvous");
                // Data already landed (FIN is ordered behind the RDMA write).
                self.events.push(MpiEvent { req });
            }
            MpiWire::Done { rndv } => {
                // RGET: the receiver finished pulling; the send completes.
                let out = self
                    .rndv_out
                    .remove(&rndv)
                    .expect("DONE for unknown rendezvous");
                self.events.push(MpiEvent { req: out.req });
            }
            MpiWire::R3Data { rndv, len, last } => {
                // Copy the chunk out of the bounce buffer; the recv
                // completes at the final chunk's copy.
                let work = self.cfg.copy_rate.tx_time(len as u64);
                let (_, fin) = self.cpu.reserve_dur(ctx.now(), work);
                if last {
                    let req = self
                        .rndv_in
                        .remove(&rndv)
                        .expect("R3 data for unknown rendezvous");
                    self.defer_done(ctx, req, fin);
                }
            }
        }
    }

    /// Route a ULP timer with [`TOKEN_COPY`] here: the oldest deferred copy
    /// has finished.
    pub fn on_copy_timer(&mut self) {
        let req = self
            .deferred
            .pop_front()
            .expect("copy timer with empty deferred queue");
        self.events.push(MpiEvent { req });
    }
}
