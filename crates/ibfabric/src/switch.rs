//! An InfiniBand switch: forwards packets by destination LID using the
//! forwarding table installed by the subnet manager.

use crate::link::{CreditMsg, EgressPort};
use crate::packet::Packet;
use simcore::{Actor, ActorId, Ctx, Dur, Rng as _};
use std::any::Any;

/// A LID-routed switch with per-port egress serialization.
///
/// The model is store-and-forward with a fixed forwarding latency; real IB
/// switches cut through (~200 ns), which the forwarding latency approximates
/// for the small packets that dominate latency measurements. A switch may
/// also drop packets at random ([`Switch::with_loss`]): that, with a long
/// forwarding latency, is how the `obsidian` crate models a Longbow XR unit.
pub struct Switch {
    pub(crate) fwd_latency: Dur,
    /// Drop probability per arriving packet, in parts per million
    /// (0 = lossless).
    pub(crate) loss_per_million: u32,
    pub(crate) ports: Vec<Option<EgressPort>>,
    /// Some attached port is credited, so arrivals may owe their ingress
    /// link a credit.
    credited: bool,
    /// Forwarding table indexed directly by LID (LIDs are small and dense,
    /// so a flat table beats hashing on the per-packet path).
    routes: Vec<Option<usize>>,
    forwarded: u64,
    dropped: u64,
}

impl Switch {
    /// A switch with the default 200 ns forwarding latency.
    pub fn new() -> Self {
        Self::with_latency(Dur::from_ns(200))
    }

    /// A lossless switch with an explicit forwarding latency.
    pub fn with_latency(fwd_latency: Dur) -> Self {
        Switch {
            fwd_latency,
            loss_per_million: 0,
            ports: Vec::new(),
            credited: false,
            routes: Vec::new(),
            forwarded: 0,
            dropped: 0,
        }
    }

    /// This switch, dropping each packet with probability
    /// `loss_per_million / 10^6`, rolled with the engine RNG in arrival
    /// order. Loss is per packet, so a fabric with a lossy switch must run
    /// without trains ([`crate::fabric::FabricBuilder::disable_coalescing`]).
    pub fn with_loss(mut self, loss_per_million: u32) -> Self {
        self.loss_per_million = loss_per_million;
        self
    }

    /// Attach `egress` as port `idx` (used by the fabric builder).
    pub fn attach_port(&mut self, idx: usize, egress: EgressPort) {
        if self.ports.len() <= idx {
            self.ports.resize_with(idx + 1, || None);
        }
        assert!(self.ports[idx].is_none(), "port {idx} already attached");
        self.credited |= egress.credited();
        self.ports[idx] = Some(egress);
    }

    /// Install a forwarding entry: packets for `lid` leave through `port`.
    pub fn set_route(&mut self, lid: u16, port: usize) {
        let i = lid as usize;
        if self.routes.len() <= i {
            self.routes.resize(i + 1, None);
        }
        self.routes[i] = Some(port);
    }

    /// Packets forwarded so far. A switch folded into the ports that feed
    /// it forwards none itself: they count its packets
    /// ([`EgressPort::hops_forwarded`]).
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Packets dropped by injected loss so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for Switch {
    fn default() -> Self {
        Self::new()
    }
}

impl Switch {
    fn port_to(&mut self, peer: ActorId) -> Option<&mut EgressPort> {
        self.ports.iter_mut().flatten().find(|p| p.peer == peer)
    }
}

impl Actor for Switch {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: ActorId, pkt: Packet) {
        // Ingress buffer freed once the packet moves to the egress queue:
        // return the link-level credit to the upstream neighbor. Only a
        // switch with a credited port looks its ingress port up.
        if self.credited {
            if let Some(in_port) = self.port_to(from) {
                if in_port.credited() {
                    debug_assert_eq!(pkt.count, 1, "trains never cross credited links");
                    let latency = in_port.config().latency;
                    ctx.send(from, Box::new(CreditMsg), latency);
                }
            }
        }
        if self.loss_per_million > 0 {
            debug_assert_eq!(pkt.count, 1, "lossy fabrics carry no trains");
            if ctx.rng().gen_range(0..1_000_000u32) < self.loss_per_million {
                self.dropped += 1;
                return;
            }
        }
        let port_idx = self
            .routes
            .get(pkt.dst_lid.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("no route for {:?}", pkt.dst_lid));
        let port = self.ports[port_idx]
            .as_mut()
            .unwrap_or_else(|| panic!("route points at unattached port {port_idx}"));
        self.forwarded += pkt.count as u64;
        // The forwarding latency shifts every train member uniformly, so the
        // inter-fragment gap survives the hop and one reservation covers the
        // whole train.
        let ready = ctx.now() + self.fwd_latency;
        port.send(ctx, ready, pkt);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
        msg.downcast::<CreditMsg>()
            .expect("switch received an unexpected control message");
        let port = self.port_to(from).expect("credit from an actor on no port");
        port.credit_returned(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::{Opcode, Packet};
    use crate::qp::Qpn;
    use crate::types::Lid;
    use simcore::{Engine, StreamId, Time};

    /// Sends one packet over its stream when its one timer fires.
    struct Source {
        stream: Option<StreamId>,
        pkt: Option<Packet>,
    }
    impl Actor for Source {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            panic!("the source takes no messages");
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let (stream, pkt) = (self.stream.unwrap(), self.pkt.take().unwrap());
            ctx.send_stream(stream, pkt, ctx.now());
        }
    }

    /// Add a [`Source`] that sends `pkt` to `switch` at time zero.
    fn send_at_zero(e: &mut Engine, switch: ActorId, pkt: Packet) {
        let src = e.add_actor(Box::new(Source {
            stream: None,
            pkt: Some(pkt),
        }));
        let stream = e.open_stream(src, switch);
        e.actor_mut::<Source>(src).stream = Some(stream);
        e.schedule_timer(Time::ZERO, src, 0);
    }

    /// Actor that records packet arrival times.
    struct Sink {
        arrivals: Vec<Time>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
            panic!("the sink takes only packets");
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _pkt: Packet) {
            self.arrivals.push(ctx.now());
        }
    }

    fn test_packet(dst: u16, payload: u32) -> Packet {
        Packet {
            dst_lid: Lid(dst),
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
            stride: 0,
            gap_ns: 0,
            msgs: 1,
            msg_gap_ns: 0,
            hdr_len: 0,
            data: None,
        }
    }

    #[test]
    fn forwards_by_lid_with_latency() {
        let mut e = Engine::new(1);
        let sink = e.add_actor(Box::new(Sink { arrivals: vec![] }));
        let swid = e.add_actor(Box::new(Switch::new()));
        let stream = e.open_stream(swid, sink);
        let sw = e.actor_mut::<Switch>(swid);
        sw.attach_port(
            0,
            EgressPort::new(
                sink,
                LinkConfig {
                    rate: simcore::Rate::from_gbps(8),
                    latency: Dur::from_ns(100),
                    credit_packets: None,
                },
                stream,
            ),
        );
        sw.set_route(5, 0);
        send_at_zero(&mut e, swid, test_packet(5, 930));
        e.run();
        // 200ns fwd + (930+70)ns serialization + 100ns propagation = 1300ns.
        assert_eq!(e.actor::<Sink>(sink).arrivals, vec![Time::from_ns(1300)]);
        assert_eq!(e.actor::<Switch>(swid).forwarded, 1);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unknown_lid_panics() {
        let mut e = Engine::new(1);
        let sw = Switch::new();
        let swid = e.add_actor(Box::new(sw));
        send_at_zero(&mut e, swid, test_packet(9, 1));
        e.run();
    }
}
