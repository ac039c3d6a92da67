//! Point-to-point link model: serialization at the port plus propagation,
//! with optional IB-style credit-based flow control.
//!
//! InfiniBand links are lossless: a transmitter may only send while the
//! receiver has advertised buffer credits, and credits return as the
//! receiver drains packets onward. Over a long-haul link the credit loop
//! spans the full round trip, so the receiver's buffer depth caps the
//! in-flight data — the reason WAN range extenders like the Obsidian
//! Longbow carry very deep buffers. Credits default to `None` (infinite
//! buffering), which models such deep-buffered deployments; set
//! [`LinkConfig::credit_packets`] to study shallow-buffer behaviour.

use crate::packet::Packet;
use simcore::{ActorId, Ctx, Dur, Rate, SerialResource, StreamId, Time};
use std::collections::VecDeque;

/// Link-level credit return (one freed receive buffer). Sent by the
/// receiving entity back to the transmitter on credited links.
pub struct CreditMsg;

/// Static link parameters.
#[derive(Copy, Clone, Debug)]
pub struct LinkConfig {
    /// Serialization rate of the link (data rate).
    pub rate: Rate,
    /// One-way propagation latency.
    pub latency: Dur,
    /// Receive-buffer credits per direction; `None` = effectively infinite
    /// (deep buffers). With `Some(n)`, at most `n` packets may be unreturned
    /// at any instant.
    pub credit_packets: Option<usize>,
}

impl LinkConfig {
    /// An intra-cluster InfiniBand DDR cable: 16 Gb/s data, 100 ns one way.
    pub fn ddr_lan() -> Self {
        LinkConfig {
            rate: Rate::from_gbps(16),
            latency: Dur::from_ns(100),
            credit_packets: None,
        }
    }

    /// An intra-cluster InfiniBand SDR cable: 8 Gb/s data, 100 ns one way.
    pub fn sdr_lan() -> Self {
        LinkConfig {
            rate: Rate::from_gbps(8),
            latency: Dur::from_ns(100),
            credit_packets: None,
        }
    }

    /// Limit the link to `n` receive-buffer credits per direction.
    pub fn with_credits(mut self, n: usize) -> Self {
        self.credit_packets = Some(n);
        self
    }
}

/// One direction of a cable as its transmitter sees it: the serializer and
/// the propagation latency behind it. A port's own cable is a wire, and so is
/// the outgoing cable of each switch folded into the port.
struct Wire {
    tx: SerialResource,
    latency: Dur,
}

impl Wire {
    fn new(cfg: LinkConfig) -> Self {
        Wire {
            tx: SerialResource::new(cfg.rate),
            latency: cfg.latency,
        }
    }

    /// Reserve the wire for one packet ready at `ready`; returns its arrival
    /// at the far end.
    fn reserve(&mut self, ready: Time, pkt: &Packet) -> Time {
        let (_start, finish) = self.tx.reserve(ready, pkt.wire_bytes());
        finish + self.latency
    }

    /// Reserve a whole train (member `k` ready at `ready` plus
    /// [`Packet::member_arrival_offset_ns`]) at once: the head's arrival,
    /// `pkt`'s spacing rewritten to the departure pattern, or `None` when
    /// there is no closed form and the caller must de-coalesce.
    fn reserve_train(&mut self, ready: Time, pkt: &mut Packet) -> Option<Time> {
        debug_assert!(pkt.is_train());
        let (head_finish, gap_out, msg_gap_out) = self.tx.reserve_train(
            ready,
            pkt.msgs,
            pkt.frags_per_msg(),
            pkt.wire_bytes(),
            Dur::from_ns(pkt.gap_ns),
            Dur::from_ns(pkt.msg_gap_ns),
        )?;
        pkt.gap_ns = gap_out.as_ns();
        if pkt.msgs > 1 {
            pkt.msg_gap_ns = msg_gap_out.as_ns();
        }
        Some(head_finish + self.latency)
    }

    /// Send `pkt`, train or single, beginning no earlier than `ready`,
    /// handing each resulting delivery to `deliver(arrival, pkt)`. A train
    /// the wire has no closed form for is split, down to its members if
    /// need be, so timing is that of the per-fragment path.
    fn send(&mut self, ready: Time, pkt: Packet, deliver: &mut impl FnMut(Time, Packet)) {
        if !pkt.is_train() {
            return deliver(self.reserve(ready, &pkt), pkt);
        }
        let mut pkt = pkt;
        if let Some(arrival) = self.reserve_train(ready, &mut pkt) {
            return deliver(arrival, pkt);
        }
        // De-coalesce a super-train by binary splitting: a backlog draining
        // mid-run breaks the departure pattern into uniform segments, so
        // contiguous halves often still ride as single reservations (the
        // early half back-to-back behind the backlog, the late half on the
        // arrival grid once the wire is idle). Recursion bottoms out at
        // per-message trains, which is exactly the unmerged path.
        if pkt.msgs > 1 {
            let msg_gap = Dur::from_ns(pkt.msg_gap_ns);
            let half = pkt.msgs / 2;
            self.send(ready, pkt.msg_slice(0, half), deliver);
            self.send(
                ready + msg_gap * half as u64,
                pkt.msg_slice(half, pkt.msgs - half),
                deliver,
            );
            return;
        }
        // De-coalesce: replay each member at its own arrival instant. This is
        // exactly the per-fragment path, so timing stays bit-identical.
        let gap = Dur::from_ns(pkt.gap_ns);
        for k in 0..pkt.count {
            let member = pkt.frag(k);
            deliver(self.reserve(ready + gap * k as u64, &member), member);
        }
    }
}

/// A two-port switch folded into the port that feeds it: what reaches it
/// leaves on its outgoing wire its forwarding latency later, reserved by
/// the port (see [`EgressPort::fold`]).
struct Hop {
    fwd_latency: Dur,
    wire: Wire,
    forwarded: u64,
}

/// Carry a delivery that reaches the first of `hops` at `arrival` through
/// all of them, in order: it enters each hop's wire that hop's forwarding
/// latency after arriving, and `deliver` takes what leaves the last.
fn forward(hops: &mut [Hop], arrival: Time, pkt: Packet, deliver: &mut impl FnMut(Time, Packet)) {
    let Some((hop, rest)) = hops.split_first_mut() else {
        return deliver(arrival, pkt);
    };
    hop.forwarded += u64::from(pkt.count);
    hop.wire.send(arrival + hop.fwd_latency, pkt, &mut |at, p| {
        forward(rest, at, p, deliver)
    });
}

/// The egress half of a link attached to a port: owns the wire, the credit
/// pool, the waiting queue, the switches folded in behind the cable, and the
/// delivery stream its packets reach their receiver through.
pub struct EgressPort {
    /// Neighbor actor on the other end of the cable.
    pub peer: ActorId,
    cfg: LinkConfig,
    wire: Wire,
    credits: Option<usize>,
    queue: VecDeque<(Time, Packet)>,
    /// Folded switches, in path order from the cable's far end.
    hops: Vec<Hop>,
    stream: StreamId,
}

impl EgressPort {
    /// New egress port towards `peer`, scheduling its deliveries on
    /// `stream`, opened from the port's owner to the receiver its packets
    /// reach (`peer`, or the actor behind the switches folded into the
    /// port) and used by no other sender.
    pub fn new(peer: ActorId, cfg: LinkConfig, stream: StreamId) -> Self {
        EgressPort {
            peer,
            cfg,
            wire: Wire::new(cfg),
            credits: cfg.credit_packets,
            queue: VecDeque::new(),
            hops: Vec::new(),
            stream,
        }
    }

    /// Fold a two-port switch in at the end of the port's path: what reaches
    /// it leaves `fwd_latency` later on its outgoing cable `out`, which this
    /// port reserves at once, exactly as the switch would if this port is its
    /// one feeder. Credits count per hop, so neither cable may be credited.
    pub(crate) fn fold(&mut self, fwd_latency: Dur, out: LinkConfig) {
        debug_assert!(
            self.credits.is_none() && out.credit_packets.is_none(),
            "a credited cable carries no folded hop"
        );
        self.hops.push(Hop {
            fwd_latency,
            wire: Wire::new(out),
            forwarded: 0,
        });
    }

    /// Send `pkt` — train or single — across this port, beginning no
    /// earlier than `ready`: reserve the wire, and those of the switches
    /// folded in behind it, and schedule each resulting delivery at the
    /// receiver. Trains ride as one event when the link supports it and are
    /// otherwise expanded into their per-fragment members (bit-identical
    /// timing either way). A packet that finds no credit waits in the port
    /// until [`EgressPort::credit_returned`] releases it.
    ///
    /// Every reservation starts no earlier than the previous one finished,
    /// so the port's delivery times never decrease, as its stream requires:
    /// the event queue holds one delivery per port however deep the port's
    /// backlog, and the backlog waits in the stream.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, ready: Time, pkt: Packet) {
        self.send_reporting(ctx, ready, pkt, |_, _| {});
    }

    /// As [`EgressPort::send`], also handing `departed` each packet leaving
    /// the port's own wire and its departure: the instant its head finishes
    /// serializing. Deliveries a credited link holds back for a credit are
    /// not reported.
    pub fn send_reporting(
        &mut self,
        ctx: &mut Ctx<'_>,
        ready: Time,
        pkt: Packet,
        mut departed: impl FnMut(Time, &Packet),
    ) {
        let (stream, latency) = (self.stream, self.wire.latency);
        self.transmit_seq(
            ready,
            pkt,
            &mut |arrival, p| departed(arrival - latency, p),
            &mut |arrival, p| ctx.send_stream(stream, p, arrival),
        );
    }

    /// A credit returned from the peer: the packet waiting longest for one,
    /// if any, takes it and goes on the wire.
    pub fn credit_returned(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((arrival, pkt)) = self.take_credit(ctx.now()) {
            ctx.send_stream(self.stream, pkt, arrival);
        }
    }

    /// Reserve the wires for `pkt` as [`EgressPort::send`] does, handing
    /// `departed` each packet that leaves the port's own wire, with its
    /// arrival at the cable's far end, and `deliver(arrival, pkt)` each
    /// delivery at the receiver.
    fn transmit_seq(
        &mut self,
        ready: Time,
        pkt: Packet,
        departed: &mut impl FnMut(Time, &Packet),
        deliver: &mut impl FnMut(Time, Packet),
    ) {
        if self.credits.is_some() {
            return self.transmit_credited(ready, pkt, &mut |arrival, p| {
                departed(arrival, &p);
                deliver(arrival, p)
            });
        }
        let hops = &mut self.hops[..];
        self.wire.send(ready, pkt, &mut |arrival, p| {
            departed(arrival, &p);
            forward(hops, arrival, p, deliver)
        });
    }

    /// Send `pkt` across a credited cable. Credits count per packet, so a
    /// train crosses member by member, each submitted at its own instant as
    /// the unmerged path submits it. Once no credit is left, the rest of a
    /// run of one-packet messages (datagrams, ACKs) waits as one queue
    /// entry, which [`EgressPort::take_credit`] releases a member per credit.
    fn transmit_credited(
        &mut self,
        ready: Time,
        pkt: Packet,
        deliver: &mut impl FnMut(Time, Packet),
    ) {
        let run = pkt.msgs > 1 && pkt.frags_per_msg() == 1;
        for k in 0..pkt.count {
            let at = ready + Dur::from_ns(pkt.member_arrival_offset_ns(k));
            if run && self.credits == Some(0) {
                self.queue.push_back((at, pkt.msg_slice(k, pkt.msgs - k)));
                return;
            }
            if let Some((arrival, member)) = self.transmit(at, pkt.frag(k)) {
                deliver(arrival, member);
            }
        }
    }

    /// Submit `pkt` for transmission beginning no earlier than `ready`.
    /// Returns `Some((arrival, pkt))` if a credit was available (schedule
    /// the delivery), or `None` if the packet was queued awaiting credits.
    fn transmit(&mut self, ready: Time, pkt: Packet) -> Option<(Time, Packet)> {
        match self.credits {
            Some(0) => {
                self.queue.push_back((ready, pkt));
                return None;
            }
            Some(ref mut n) => *n -= 1,
            None => {}
        }
        Some((self.wire.reserve(ready, &pkt), pkt))
    }

    /// A credit returned from the peer at `now`; possibly releases a queued
    /// packet (returns its scheduled arrival).
    fn take_credit(&mut self, now: Time) -> Option<(Time, Packet)> {
        let n = self
            .credits
            .as_mut()
            .expect("credit returned on an uncredited link");
        if let Some((ready, pkt)) = self.queue.pop_front() {
            // A queued run gives up its head member; the rest keeps its
            // place at the front, due one message gap later.
            let pkt = if pkt.msgs > 1 {
                let next = ready + Dur::from_ns(pkt.msg_gap_ns);
                self.queue
                    .push_front((next, pkt.msg_slice(1, pkt.msgs - 1)));
                pkt.msg_train(0)
            } else {
                pkt
            };
            // The freed buffer is consumed immediately by the queued packet.
            Some((self.wire.reserve(ready.max(now), &pkt), pkt))
        } else {
            *n += 1;
            None
        }
    }

    /// True if this direction uses credit flow control (so the receiving
    /// side must return credits).
    pub fn credited(&self) -> bool {
        self.cfg.credit_packets.is_some()
    }

    /// Packets currently waiting for credits.
    pub fn queued(&self) -> usize {
        self.queue.iter().map(|(_, p)| p.count as usize).sum()
    }

    /// Link configuration.
    pub fn config(&self) -> LinkConfig {
        self.cfg
    }

    /// Packets the switches folded into this port have forwarded.
    pub fn hops_forwarded(&self) -> u64 {
        self.hops.iter().map(|h| h.forwarded).sum()
    }

    /// Accumulated busy (transmitting) time of the port's own wire — for
    /// utilization reporting.
    pub fn busy_time(&self) -> Dur {
        self.wire.tx.busy_time()
    }

    /// Earliest instant the port's own wire is idle.
    pub fn next_free(&self) -> Time {
        self.wire.tx.next_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Opcode;
    use crate::qp::Qpn;
    use crate::types::Lid;

    /// A port whose stream comes from a throwaway engine: these tests read
    /// the reservations directly and never schedule a delivery.
    fn egress(cfg: LinkConfig) -> EgressPort {
        EgressPort::new(0, cfg, simcore::Engine::new(0).open_stream(0, 0))
    }

    /// Send `pkt` through `port` at `ready` and collect its deliveries.
    fn deliveries(port: &mut EgressPort, ready: Time, pkt: Packet) -> Vec<(Time, Packet)> {
        let mut got = Vec::new();
        port.transmit_seq(ready, pkt, &mut |_, _| {}, &mut |arrival, p| {
            got.push((arrival, p))
        });
        got
    }

    fn pkt(payload: u32) -> Packet {
        Packet {
            dst_lid: Lid(2),
            src_lid: Lid(1),
            dst_qpn: Qpn(0),
            src_qpn: Qpn(0),
            opcode: Opcode::UdSend,
            psn: 0,
            payload,
            msg_id: 0,
            msg_len: payload,
            offset: 0,
            imm: 0,
            count: 1,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        }
    }

    fn train(payload: u32, count: u32, gap_ns: u64) -> Packet {
        Packet {
            opcode: Opcode::RcSend {
                position: crate::packet::Position::First,
            },
            msg_len: payload * count,
            count,
            gap_ns,
            ..pkt(payload)
        }
    }

    #[test]
    fn back_to_back_serialization() {
        let cfg = LinkConfig {
            rate: Rate::from_gbps(8), // 1 ns/byte
            latency: Dur::from_us(1),
            credit_packets: None,
        };
        let mut port = egress(cfg);
        let (a1, _) = port.transmit(Time::ZERO, pkt(930)).unwrap();
        assert_eq!(a1, Time::from_ns(1000) + Dur::from_us(1));
        // Second packet queued behind the first on the wire.
        let (a2, _) = port.transmit(Time::ZERO, pkt(930)).unwrap();
        assert_eq!(a2, Time::from_ns(2000) + Dur::from_us(1));
        // After idle time, starts immediately.
        let (a3, _) = port.transmit(Time::from_us(10), pkt(430)).unwrap();
        assert_eq!(a3, Time::from_us(10) + Dur::from_ns(500) + Dur::from_us(1));
        assert_eq!(port.busy_time(), Dur::from_ns(2500));
    }

    /// Per-fragment reference: transmit every member individually and return
    /// the (arrival, psn) schedule.
    fn per_fragment_schedule(port: &mut EgressPort, ready: Time, pkt: &Packet) -> Vec<(Time, u32)> {
        let gap = Dur::from_ns(pkt.gap_ns);
        (0..pkt.count)
            .filter_map(|k| {
                port.transmit(ready + gap * k as u64, pkt.frag(k))
                    .map(|(t, p)| (t, p.psn))
            })
            .collect()
    }

    #[test]
    fn train_matches_per_fragment_timing() {
        let cfg = LinkConfig::sdr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        // Back-to-back train fresh off an HCA (gap 0 → serialization-paced).
        let t = train(2048, 4, 0);
        let golden = per_fragment_schedule(&mut a, Time::from_ns(500), &t);
        let got = expand(&deliveries(&mut b, Time::from_ns(500), t));
        assert_eq!(got, golden);
        assert_eq!(a.busy_time(), b.busy_time());
        assert_eq!(a.next_free(), b.next_free());
    }

    #[test]
    fn train_behind_backlog_matches_per_fragment() {
        let cfg = LinkConfig::sdr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        a.transmit(Time::ZERO, pkt(4000));
        b.transmit(Time::ZERO, pkt(4000));
        // Train arrives spaced wider than service while the port is busy,
        // and the backlog drains mid-train: reserve_train declines and
        // transmit_seq must de-coalesce exactly.
        let t = train(1000, 5, 3000);
        let golden = per_fragment_schedule(&mut a, Time::from_ns(100), &t);
        let mut got = Vec::new();
        for (arrival, p) in deliveries(&mut b, Time::from_ns(100), t) {
            assert_eq!(p.count, 1, "backlogged slow train must de-coalesce");
            got.push((arrival, p.psn));
        }
        assert_eq!(got, golden);
        assert_eq!(a.next_free(), b.next_free());
    }

    #[test]
    fn train_behind_deep_backlog_rides_whole() {
        let cfg = LinkConfig::sdr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        a.transmit(Time::ZERO, pkt(8000));
        b.transmit(Time::ZERO, pkt(8000));
        // The same slow train behind a backlog deep enough that every member
        // has arrived by its turn: one back-to-back reservation.
        let t = train(1000, 5, 3000);
        let golden = per_fragment_schedule(&mut a, Time::from_ns(100), &t);
        let deliveries = deliveries(&mut b, Time::from_ns(100), t);
        assert_eq!(
            deliveries.len(),
            1,
            "a deep backlog must carry the train whole"
        );
        assert_eq!(
            deliveries[0].1.msg_gap_ns, 0,
            "a one-message train has no message gap"
        );
        assert_eq!(expand(&deliveries), golden);
        assert_eq!(a.next_free(), b.next_free());
        assert_eq!(a.busy_time(), b.busy_time());
    }

    /// fig13a forward shape: `msgs` back-to-back whole 2-fragment writes.
    fn super_train(msgs: u32, gap_ns: u64, msg_gap_ns: u64) -> Packet {
        Packet {
            opcode: Opcode::RcWrite {
                position: crate::packet::Position::First,
            },
            payload: 2048,
            msg_len: 4096,
            imm: u64::MAX,
            count: 2 * msgs,
            gap_ns,
            msgs,
            msg_gap_ns,
            ..pkt(2048)
        }
    }

    /// Per-member reference for a two-level train: transmit every fragment of
    /// every message at its own arrival instant.
    fn per_member_schedule(port: &mut EgressPort, ready: Time, pkt: &Packet) -> Vec<(Time, u32)> {
        (0..pkt.count)
            .filter_map(|k| {
                port.transmit(
                    ready + Dur::from_ns(pkt.member_arrival_offset_ns(k)),
                    pkt.frag(k),
                )
                .map(|(t, p)| (t, p.psn))
            })
            .collect()
    }

    /// Expand whatever transmit_seq delivered back into per-member (arrival,
    /// psn) pairs.
    fn expand(deliveries: &[(Time, Packet)]) -> Vec<(Time, u32)> {
        let mut got = Vec::new();
        for (arrival, p) in deliveries {
            for k in 0..p.count {
                got.push((
                    *arrival + Dur::from_ns(p.member_arrival_offset_ns(k)),
                    p.frag(k).psn,
                ));
            }
        }
        got
    }

    #[test]
    fn super_train_matches_per_member_timing() {
        // SDR hop: service 2090 >= gap 1045, msg_gap 4180 == 2 * 2090, so the
        // whole window rides as one event (lateness 0, back-to-back form).
        let cfg = LinkConfig::sdr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        let t = super_train(4, 1045, 4180);
        t.debug_validate_train();
        let golden = per_member_schedule(&mut a, Time::from_ns(500), &t);
        let deliveries = deliveries(&mut b, Time::from_ns(500), t);
        assert_eq!(
            deliveries.len(),
            1,
            "SDR hop must carry the super-train whole"
        );
        assert_eq!(expand(&deliveries), golden);
        assert_eq!(a.next_free(), b.next_free());
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn super_train_splits_when_pattern_breaks() {
        // DDR hop (service 1045) with message spacing too wide for the
        // back-to-back form while the port is backlogged: the two-level
        // reservation declines, transmit_seq splits the run, and the pieces
        // ride as smaller reservations with per-member timing preserved
        // exactly — the first behind the backlog, the rest on the grid.
        let cfg = LinkConfig::ddr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        a.transmit(Time::ZERO, pkt(3000));
        b.transmit(Time::ZERO, pkt(3000));
        let t = super_train(4, 1045, 20_000);
        let golden = per_member_schedule(&mut a, Time::from_ns(100), &t);
        let deliveries = deliveries(&mut b, Time::from_ns(100), t);
        assert!(deliveries.len() > 1, "pattern break must de-coalesce");
        for (_, p) in &deliveries {
            assert!(p.msgs < 4, "split pieces must be strictly smaller");
        }
        assert_eq!(expand(&deliveries), golden);
        assert_eq!(a.next_free(), b.next_free());
    }

    #[test]
    fn super_train_split_segments_match_per_member_behind_partial_backlog() {
        // The fig13a second-window shape: ACK-pumped 4180 ns grid meeting a
        // DDR port still draining the previous window. The early messages
        // compact behind the backlog, the late ones ride the grid; the
        // split fallback must reproduce the per-member schedule exactly and
        // in far fewer deliveries than one per message.
        let cfg = LinkConfig::ddr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        a.transmit(Time::ZERO, pkt(49_000)); // busy until 24.5 us
        b.transmit(Time::ZERO, pkt(49_000));
        let t = super_train(32, 0, 4180);
        t.debug_validate_train();
        let golden = per_member_schedule(&mut a, Time::ZERO, &t);
        let deliveries = deliveries(&mut b, Time::ZERO, t);
        assert!(
            deliveries.len() <= 8,
            "binary split should need O(log msgs) pieces, got {}",
            deliveries.len()
        );
        assert_eq!(expand(&deliveries), golden);
        assert_eq!(a.next_free(), b.next_free());
        assert_eq!(a.busy_time(), b.busy_time());
    }

    #[test]
    fn ack_run_rides_uncredited_links_whole() {
        // An ACK run: 5 one-fragment messages spaced a window apart. Service
        // (30B) is far below the spacing, so the idle pattern-preserving form
        // carries it as one event.
        let cfg = LinkConfig::sdr_lan();
        let mut a = egress(cfg);
        let mut b = egress(cfg);
        let t = Packet {
            opcode: Opcode::RcAck,
            payload: 0,
            msg_len: 0,
            imm: u64::MAX,
            count: 5,
            msgs: 5,
            msg_gap_ns: 4180,
            ..pkt(0)
        };
        t.debug_validate_train();
        let golden = per_member_schedule(&mut a, Time::from_ns(300), &t);
        let deliveries = deliveries(&mut b, Time::from_ns(300), t);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(expand(&deliveries), golden);
        assert_eq!(a.next_free(), b.next_free());
    }

    /// One port with two switches folded in, against its three cables as
    /// separate ports whose deliveries are forwarded by hand: a DDR cable
    /// into two SDR hops, a transit switch's and a Longbow unit's. The
    /// receiver must see every member on the same schedule, the port must
    /// report the first cable's departures, and every wire must end in the
    /// same state. Returns the folded port's deliveries.
    fn assert_fold_matches_chain(sends: &[(Time, Packet)]) -> Vec<(Time, Packet)> {
        let hops = [
            (Dur::from_ns(200), LinkConfig::sdr_lan()),
            (Dur::from_ns(2500), LinkConfig::sdr_lan()),
        ];
        let mut folded = egress(LinkConfig::ddr_lan());
        for (fwd, out) in hops {
            folded.fold(fwd, out);
        }
        let mut chain = [
            egress(LinkConfig::ddr_lan()),
            egress(hops[0].1),
            egress(hops[1].1),
        ];
        let (mut got, mut departed, mut want, mut first) = (vec![], vec![], vec![], vec![]);
        for (ready, pkt) in sends {
            folded.transmit_seq(
                *ready,
                pkt.clone(),
                &mut |t, p| departed.push((t, p.clone())),
                &mut |t, p| got.push((t, p)),
            );
            let [a, b, c] = &mut chain;
            for (t1, p1) in deliveries(a, *ready, pkt.clone()) {
                first.push((t1, p1.clone()));
                for (t2, p2) in deliveries(b, t1 + hops[0].0, p1) {
                    want.extend(deliveries(c, t2 + hops[1].0, p2));
                }
            }
        }
        assert_eq!(expand(&got), expand(&want));
        assert_eq!(expand(&departed), expand(&first));
        let wires = [&folded.wire, &folded.hops[0].wire, &folded.hops[1].wire];
        for (k, (wire, port)) in wires.into_iter().zip(&chain).enumerate() {
            assert_eq!(wire.tx.busy_time(), port.busy_time(), "wire {k}");
            assert_eq!(wire.tx.next_free(), port.next_free(), "wire {k}");
        }
        let members: u64 = sends.iter().map(|(_, p)| u64::from(p.count)).sum();
        assert_eq!(folded.hops_forwarded(), 2 * members);
        got
    }

    #[test]
    fn folded_hops_match_chained_ports() {
        let ack_run = Packet {
            opcode: Opcode::RcAck,
            payload: 0,
            msg_len: 0,
            imm: u64::MAX,
            count: 5,
            msgs: 5,
            msg_gap_ns: 4180,
            ..pkt(0)
        };
        // A single packet, a back-to-back train and an ACK run each reach
        // the receiver whole.
        for (ready, p) in [
            (Time::ZERO, pkt(930)),
            (Time::from_ns(500), train(2048, 4, 0)),
            (Time::from_ns(300), ack_run),
        ] {
            assert_eq!(assert_fold_matches_chain(&[(ready, p)]).len(), 1);
        }
        // A slow train crosses the idle DDR cable whole and splits behind a
        // packet still serializing on the first SDR hop.
        let got = assert_fold_matches_chain(&[
            (Time::ZERO, pkt(4000)),
            (Time::from_ns(2100), train(1000, 5, 3000)),
        ]);
        assert!(got.len() > 2, "the slow train must split at the hop");
        // A super-train splits behind a backlog on the DDR cable.
        let got = assert_fold_matches_chain(&[
            (Time::ZERO, pkt(49_000)),
            (Time::ZERO, super_train(32, 0, 4180)),
        ]);
        assert!(got.len() > 2, "the super-train must split");
    }

    #[test]
    fn credited_links_refuse_trains() {
        let cfg = LinkConfig::sdr_lan().with_credits(8);
        let mut port = egress(cfg);
        // A credited port sends a train's members one by one, each
        // consuming a credit.
        let got = deliveries(&mut port, Time::ZERO, train(1024, 3, 0));
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(_, p)| p.count == 1));
        assert_eq!(port.credits, Some(5));
    }

    /// A datagram run behind exhausted credits waits as one queue entry
    /// and is released a member per returned credit, on exactly the
    /// schedule of its members submitted one by one.
    #[test]
    fn a_credit_starved_run_waits_whole_and_leaves_member_by_member() {
        let cfg = LinkConfig::sdr_lan().with_credits(3);
        let (mut whole, mut split) = (egress(cfg), egress(cfg));
        let run = Packet {
            count: 8,
            msgs: 8,
            msg_gap_ns: 300,
            ..pkt(512)
        };
        run.debug_validate_train();
        let mut got: Vec<_> = deliveries(&mut whole, Time::ZERO, run.clone())
            .into_iter()
            .map(|(t, p)| (t, p.msg_id))
            .collect();
        let mut want = Vec::new();
        for m in 0..8 {
            let at = Time::from_ns(300 * m as u64);
            if let Some((t, p)) = split.transmit(at, run.msg_train(m)) {
                want.push((t, p.msg_id));
            }
        }
        assert_eq!(whole.queue.len(), 1, "the starved rest is one entry");
        assert_eq!((whole.queued(), split.queued()), (5, 5));
        for k in 0..6u64 {
            let now = Time::from_us(2 + k);
            got.extend(whole.take_credit(now).map(|(t, p)| (t, p.msg_id)));
            want.extend(split.take_credit(now).map(|(t, p)| (t, p.msg_id)));
        }
        assert_eq!(got.len(), 8);
        assert_eq!(got, want);
        assert_eq!(whole.next_free(), split.next_free());
    }

    #[test]
    fn credits_gate_transmission() {
        let cfg = LinkConfig::sdr_lan().with_credits(2);
        let mut port = egress(cfg);
        assert!(port.transmit(Time::ZERO, pkt(100)).is_some());
        assert!(port.transmit(Time::ZERO, pkt(100)).is_some());
        // Third packet has no credit: queued.
        assert!(port.transmit(Time::ZERO, pkt(100)).is_none());
        assert_eq!(port.queued(), 1);
        // A returned credit releases it.
        let released = port.take_credit(Time::from_us(5));
        assert!(released.is_some());
        assert_eq!(port.queued(), 0);
        // Another return with nothing queued restores the pool.
        assert!(port.take_credit(Time::from_us(6)).is_none());
        assert!(port.transmit(Time::from_us(7), pkt(100)).is_some());
    }

    /// Everything a port sends rides its stream: a five-packet backlog
    /// keeps one delivery in the event queue and takes no slab node, and
    /// the arrivals keep the wire's back-to-back schedule.
    #[test]
    fn a_backlogged_port_keeps_one_delivery_queued() {
        use simcore::{Actor, Engine};
        use std::any::Any;
        struct Sender {
            port: Option<EgressPort>,
        }
        impl Actor for Sender {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ActorId, _: Box<dyn Any>) {
                let now = ctx.now();
                let port = self.port.as_mut().expect("port attached");
                for _ in 0..5 {
                    port.send(ctx, now, pkt(930));
                }
            }
        }
        struct Sink {
            arrivals: Vec<Time>,
        }
        impl Actor for Sink {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Box<dyn Any>) {
                unreachable!("the sink takes packets only");
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: ActorId, _: Packet) {
                self.arrivals.push(ctx.now());
            }
        }
        let cfg = LinkConfig {
            rate: Rate::from_gbps(8), // 1 ns/byte: 1 us per 1000-byte packet
            latency: Dur::from_us(1),
            credit_packets: None,
        };
        let mut e = Engine::new(1);
        let sink = e.add_actor(Box::new(Sink { arrivals: vec![] }));
        let tx = e.add_actor(Box::new(Sender { port: None }));
        let port = EgressPort::new(sink, cfg, e.open_stream(tx, sink));
        e.actor_mut::<Sender>(tx).port = Some(port);
        e.schedule_message(Time::ZERO, tx, tx, Box::new(()));
        e.run();
        let want: Vec<Time> = (1..=5)
            .map(|k| Time::from_ns(1000 * k) + Dur::from_us(1))
            .collect();
        assert_eq!(e.actor::<Sink>(sink).arrivals, want);
        let c = e.counters();
        assert_eq!(c.peak_queue_len, 1);
        assert_eq!(
            c.events_allocated, 1,
            "only the kick takes a slab node: {c:?}"
        );
        assert_eq!(c.events_processed, 6);
    }

    #[test]
    fn uncredited_links_never_queue() {
        let mut port = egress(LinkConfig::ddr_lan());
        for _ in 0..100 {
            assert!(port.transmit(Time::ZERO, pkt(64)).is_some());
        }
        assert_eq!(port.queued(), 0);
        assert!(!port.credited());
    }

    #[test]
    fn lan_presets() {
        assert_eq!(LinkConfig::ddr_lan().rate.ps_per_byte(), 500);
        assert_eq!(LinkConfig::sdr_lan().rate.ps_per_byte(), 1000);
    }
}
