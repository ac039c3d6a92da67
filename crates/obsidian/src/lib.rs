//! # obsidian — Longbow XR InfiniBand range-extender model
//!
//! The Obsidian Longbow XR extends an InfiniBand fabric across WAN distances.
//! A pair of Longbows forms a point-to-point long-haul link; in the paper's
//! "basic switch mode" the pair appears to the subnet manager as a two-ported
//! switch, unifying the two cluster subnets transparently except for the
//! added wire latency. The model takes that literally: each unit is an
//! `ibfabric` [`Switch`] with two ports, configured by [`LongbowConfig`].
//! In a lossless fabric that forms trains, the port feeding a unit reserves
//! the unit's outgoing wire itself, so the unit keeps its place in the
//! subnet but costs no event; a lossy pair forms no trains, and its units
//! forward packet by packet, rolling the loss in arrival order. The
//! devices carry IB traffic at **SDR rate (8 Gb/s data)** over the WAN even
//! when the clusters are DDR internally — the reason the paper's NFS
//! LAN-to-WAN comparison drops ~36%.
//!
//! The XR's signature feature — the one the whole paper leans on — is its
//! **web-configurable packet delay**, used to emulate WAN separation: each
//! microsecond of one-way delay corresponds to ~200 m of fiber (5 µs/km).
//! [`wire_delay_for_km`] reproduces Table 1 of the paper.
//!
//! ```
//! use obsidian::wire_delay_for_km;
//! use simcore::Dur;
//! assert_eq!(wire_delay_for_km(1000), Dur::from_us(5000)); // Table 1 row 4
//! ```

use ibfabric::fabric::FabricBuilder;
use ibfabric::link::LinkConfig;
use ibfabric::switch::Switch;
use simcore::{ActorId, Dur};

/// Speed-of-light-in-fiber wire delay for an emulated distance, one way:
/// 5 µs per km, exactly the paper's Table 1 mapping.
pub fn wire_delay_for_km(km: u64) -> Dur {
    Dur::from_us(5 * km)
}

/// Inverse of [`wire_delay_for_km`]: emulated distance for a delay setting.
pub fn km_for_wire_delay(delay: Dur) -> u64 {
    delay.as_ns() / 5_000
}

/// Static parameters of one Longbow XR unit.
#[derive(Copy, Clone, Debug)]
pub struct LongbowConfig {
    /// Transit latency through one unit (the pair adds ~5 µs total to
    /// small-message latency, per Section 3.2.1).
    pub transit_latency: Dur,
    /// Additional delay this unit injects per forwarded packet. For a pair
    /// emulating one-way wire delay `D`, each unit is configured with `D/2`
    /// so a full crossing accumulates `D` in each direction.
    pub injected_delay: Dur,
    /// Packet-loss probability in parts per million (long-haul bit errors /
    /// optical impairments; 0 = pristine link). Losses exercise the RC
    /// go-back-N retransmission machinery.
    pub loss_per_million: u32,
}

impl Default for LongbowConfig {
    fn default() -> Self {
        LongbowConfig {
            transit_latency: Dur::from_ns(2500),
            injected_delay: Dur::ZERO,
            loss_per_million: 0,
        }
    }
}

impl LongbowConfig {
    /// One unit as the subnet sees it: a two-port store-and-forward
    /// [`Switch`] whose forwarding latency is the transit latency plus the
    /// injected delay, and which drops packets at `loss_per_million`.
    /// Serialization rates are carried by the attached links (the WAN cable
    /// runs at SDR).
    pub fn unit(self) -> Switch {
        Switch::with_latency(self.transit_latency + self.injected_delay)
            .with_loss(self.loss_per_million)
    }
}

/// Handles to an installed Longbow pair.
#[derive(Copy, Clone, Debug)]
pub struct LongbowPair {
    /// Unit attached to cluster A's switch.
    pub a: ActorId,
    /// Unit attached to cluster B's switch.
    pub b: ActorId,
}

impl LongbowPair {
    /// Insert a Longbow pair between two cluster switches, emulating a
    /// one-way WAN wire delay of `delay` (use [`wire_delay_for_km`]).
    ///
    /// Each unit injects `delay/2` per forwarded packet, so a full crossing
    /// accumulates `delay` in each direction — RTT grows by `2 * delay`,
    /// matching how the paper's router delay knob emulates distance.
    pub fn insert(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        delay: Dur,
    ) -> LongbowPair {
        Self::insert_with(
            builder,
            switch_a,
            switch_b,
            LongbowConfig {
                injected_delay: delay / 2,
                ..LongbowConfig::default()
            },
        )
    }

    /// Insert a Longbow pair whose WAN cable has only `credits` receive
    /// buffers per direction — a *shallow-buffered* range extender.
    ///
    /// Here the emulated distance is carried as true wire propagation on
    /// the WAN cable (instead of router-injected delay), so the link-level
    /// credit loop spans the full round trip exactly as it would on real
    /// fiber. With too few credits the transmitter stalls waiting for
    /// credit returns and the long pipe cannot fill: sustainable bandwidth
    /// is `credits × packet_size / RTT`. This is precisely why the real
    /// Longbow XR ships with very deep buffers.
    pub fn insert_shallow(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        delay: Dur,
        credits: usize,
    ) -> LongbowPair {
        let cfg = LongbowConfig::default(); // no injected delay
        let a = builder.add_switch_with(cfg.unit());
        let b = builder.add_switch_with(cfg.unit());
        let sdr = LinkConfig::sdr_lan();
        let wan = LinkConfig {
            latency: sdr.latency + delay, // distance as real propagation
            ..sdr
        }
        .with_credits(credits);
        builder.link(switch_a, a, sdr);
        builder.link(a, b, wan);
        builder.link(b, switch_b, sdr);
        LongbowPair { a, b }
    }

    /// Insert a Longbow pair with full control over the unit configuration
    /// (delay, transit latency, and injected WAN packet loss).
    pub fn insert_with(
        builder: &mut FabricBuilder,
        switch_a: ActorId,
        switch_b: ActorId,
        cfg: LongbowConfig,
    ) -> LongbowPair {
        if cfg.loss_per_million > 0 {
            // Random per-fragment loss draws from the engine RNG in arrival
            // order; batching a train's rolls at its head would interleave
            // differently with other traffic's rolls. Keep lossy fabrics on
            // the per-fragment path so results match bit for bit.
            builder.disable_coalescing();
        }
        let a = builder.add_switch_with(cfg.unit());
        let b = builder.add_switch_with(cfg.unit());
        // Every cable of the pair is SDR: the Longbow's IB side runs at SDR
        // 4x, and the WAN cable's own propagation is negligible (distance is
        // the units' injected delay, as in the paper).
        let sdr = LinkConfig::sdr_lan();
        builder.link(switch_a, a, sdr);
        builder.link(a, b, sdr);
        builder.link(b, switch_b, sdr);
        LongbowPair { a, b }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::perftest::{rc_qp_pair, BwConfig, BwPeer, LatMode, PingPong};
    use ibfabric::qp::QpConfig;

    /// Two single-node "clusters" joined by a Longbow pair.
    fn cluster_pair(
        delay: Dur,
        ulp_a: Box<dyn ibfabric::Ulp>,
        ulp_b: Box<dyn ibfabric::Ulp>,
    ) -> (ibfabric::Fabric, ibfabric::NodeHandle, ibfabric::NodeHandle) {
        let mut b = FabricBuilder::new(11);
        let n1 = b.add_hca(ulp_a);
        let n2 = b.add_hca(ulp_b);
        let sw_a = b.add_switch();
        let sw_b = b.add_switch();
        b.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        b.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        LongbowPair::insert(&mut b, sw_a, sw_b, delay);
        let f = b.finish();
        (f, n1, n2)
    }

    #[test]
    fn table1_delay_distance_mapping() {
        assert_eq!(wire_delay_for_km(1), Dur::from_us(5));
        assert_eq!(wire_delay_for_km(20), Dur::from_us(100));
        assert_eq!(wire_delay_for_km(200), Dur::from_us(1000));
        assert_eq!(wire_delay_for_km(2000), Dur::from_us(10000));
        assert_eq!(km_for_wire_delay(Dur::from_us(5000)), 1000);
    }

    fn latency_through_pair(delay: Dur) -> f64 {
        let (mut f, a, b) = cluster_pair(
            delay,
            Box::new(PingPong::new(LatMode::SendRc, true, 4, 50)),
            Box::new(PingPong::new(LatMode::SendRc, false, 4, 50)),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(b).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        f.hca(a).ulp::<PingPong>().mean_latency_us()
    }

    #[test]
    fn pair_adds_about_5us_at_zero_delay() {
        // Back-to-back baseline.
        let mut bb = FabricBuilder::new(1);
        let n1 = bb.add_hca(Box::new(PingPong::new(LatMode::SendRc, true, 4, 50)));
        let n2 = bb.add_hca(Box::new(PingPong::new(LatMode::SendRc, false, 4, 50)));
        bb.link(n1.actor, n2.actor, LinkConfig::ddr_lan());
        let mut f = bb.finish();
        let (qa, qb) = rc_qp_pair(&mut f, n1, n2, QpConfig::rc());
        f.hca_mut(n1).ulp_mut::<PingPong>().qpn = qa;
        f.hca_mut(n2).ulp_mut::<PingPong>().qpn = qb;
        f.run();
        let base = f.hca(n1).ulp::<PingPong>().mean_latency_us();

        let wan = latency_through_pair(Dur::ZERO);
        let added = wan - base;
        assert!(
            (3.5..8.0).contains(&added),
            "pair should add ~5us, added {added} (base {base}, wan {wan})"
        );
    }

    #[test]
    fn injected_delay_appears_in_latency() {
        let l0 = latency_through_pair(Dur::ZERO);
        let l100 = latency_through_pair(Dur::from_us(100));
        let l1000 = latency_through_pair(Dur::from_us(1000));
        // One-way latency should grow by almost exactly the injected delay.
        assert!((l100 - l0 - 100.0).abs() < 2.0, "l100 {l100} l0 {l0}");
        assert!((l1000 - l0 - 1000.0).abs() < 2.0, "l1000 {l1000}");
    }

    #[test]
    fn wan_throttles_to_sdr() {
        // Large RC messages through the pair: SDR (1000 MB/s) bound even
        // though both cluster links are DDR.
        let (mut f, a, b) = cluster_pair(
            Dur::ZERO,
            Box::new(BwPeer::sender(BwConfig::new(1 << 20, 64))),
            Box::new(BwPeer::receiver()),
        );
        let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
        f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
        f.run();
        let bw = f.hca(a).ulp::<BwPeer>().bandwidth_mbs();
        assert!(bw > 900.0 && bw < 1000.0, "bw {bw}");
    }

    #[test]
    fn ud_bandwidth_is_delay_invariant() {
        fn ud_bw(delay: Dur) -> f64 {
            let (mut f, a, b) = cluster_pair(
                delay,
                Box::new(BwPeer::sender(BwConfig::new(2048, 2000))),
                Box::new(BwPeer::receiver()),
            );
            let qa = f.hca_mut(a).core_mut().create_qp(QpConfig::ud());
            let qb = f.hca_mut(b).core_mut().create_qp(QpConfig::ud());
            {
                let u = f.hca_mut(a).ulp_mut::<BwPeer>();
                u.qpn = qa;
                u.peer = Some((b.lid, qb));
            }
            f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            // Receiver-side: UD senders get no feedback from the WAN.
            f.hca(b).ulp::<BwPeer>().rx_bandwidth_mbs()
        }
        let b0 = ud_bw(Dur::ZERO);
        let b10ms = ud_bw(Dur::from_ms(10));
        assert!((b0 - b10ms).abs() < 5.0, "UD bw {b0} vs {b10ms}");
        assert!(b0 > 900.0, "UD peak {b0}");
    }

    #[test]
    fn shallow_buffers_throttle_the_long_pipe() {
        // UD streaming across a 1 ms (200 km) WAN: deep buffers sustain the
        // SDR rate; 16 credits cap throughput at ~credits * pkt / RTT.
        fn ud_bw_with(credits: Option<usize>) -> f64 {
            let mut builder = FabricBuilder::new(29);
            let n1 = builder.add_hca(Box::new(BwPeer::sender(BwConfig::new(2048, 3000))));
            let n2 = builder.add_hca(Box::new(BwPeer::receiver()));
            let sw_a = builder.add_switch();
            let sw_b = builder.add_switch();
            builder.link(n1.actor, sw_a, LinkConfig::ddr_lan());
            builder.link(n2.actor, sw_b, LinkConfig::ddr_lan());
            match credits {
                Some(c) => {
                    LongbowPair::insert_shallow(&mut builder, sw_a, sw_b, Dur::from_ms(1), c);
                }
                None => {
                    LongbowPair::insert(&mut builder, sw_a, sw_b, Dur::from_ms(1));
                }
            }
            let mut f = builder.finish();
            let qa = f.hca_mut(n1).core_mut().create_qp(QpConfig::ud());
            let qb = f.hca_mut(n2).core_mut().create_qp(QpConfig::ud());
            {
                let u = f.hca_mut(n1).ulp_mut::<BwPeer>();
                u.qpn = qa;
                u.peer = Some((n2.lid, qb));
            }
            f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            f.hca(n2).ulp::<BwPeer>().rx_bandwidth_mbs()
        }
        let deep = ud_bw_with(None);
        let shallow = ud_bw_with(Some(16));
        let roomy = ud_bw_with(Some(4096));
        assert!(deep > 900.0, "deep buffers: {deep}");
        // 16 credits * ~2118 B / ~2 ms RTT ~ 17 MB/s.
        assert!(shallow < 30.0, "16 credits: {shallow}");
        assert!(roomy > 0.9 * deep, "4096 credits: {roomy} vs {deep}");
    }

    #[test]
    fn rc_survives_wan_packet_loss() {
        // A lossy long-haul link: every message still arrives exactly once
        // thanks to go-back-N retransmission.
        let mut builder = FabricBuilder::new(23);
        let n1 = builder.add_hca(Box::new(BwPeer::sender(BwConfig::new(4096, 200))));
        let n2 = builder.add_hca(Box::new(BwPeer::receiver()));
        let sw_a = builder.add_switch();
        let sw_b = builder.add_switch();
        builder.link(n1.actor, sw_a, LinkConfig::ddr_lan());
        builder.link(n2.actor, sw_b, LinkConfig::ddr_lan());
        let pair = LongbowPair::insert_with(
            &mut builder,
            sw_a,
            sw_b,
            LongbowConfig {
                injected_delay: Dur::from_us(50),
                loss_per_million: 20_000, // 2% WAN loss
                ..LongbowConfig::default()
            },
        );
        let mut f = builder.finish();
        let qp = QpConfig {
            rto: Dur::from_ms(2),
            ..QpConfig::rc()
        };
        let (qa, qb) = rc_qp_pair(&mut f, n1, n2, qp);
        f.hca_mut(n1).ulp_mut::<BwPeer>().qpn = qa;
        f.hca_mut(n2).ulp_mut::<BwPeer>().qpn = qb;
        let end = f.run();
        assert_eq!(f.hca(n2).ulp::<BwPeer>().received(), 200);
        // The loss-recovery counters surface at every layer: the units
        // record what they forwarded and dropped, the sender its go-back-N
        // rounds, and the receiving QP both the go-back-N casualties
        // (gap_drops) and the duplicates the 50 us one-way delay makes
        // inevitable (retransmissions racing in-flight ACKs). Every figure
        // here follows from the order of the units' draws from the engine
        // RNG, so pinning them exactly pins that order.
        let unit = |id| {
            let u = f.engine.actor::<Switch>(id);
            (u.forwarded(), u.dropped())
        };
        assert_eq!(unit(pair.a), (1092, 26));
        assert_eq!(unit(pair.b), (1076, 26));
        assert_eq!(f.hca(n1).core().qp(qa).retransmit_rounds(), 17);
        let rx_qp = f.hca(n2).core().qp(qb);
        assert_eq!((rx_qp.gap_drops(), rx_qp.dup_fragments()), (472, 1));
        assert_eq!(end, simcore::Time::from_ms(64));
    }

    #[test]
    fn rc_medium_messages_collapse_with_delay() {
        fn rc_bw(delay: Dur, size: u32, iters: u64) -> f64 {
            let (mut f, a, b) = cluster_pair(
                delay,
                Box::new(BwPeer::sender(BwConfig::new(size, iters))),
                Box::new(BwPeer::receiver()),
            );
            let (qa, qb) = rc_qp_pair(&mut f, a, b, QpConfig::rc());
            f.hca_mut(a).ulp_mut::<BwPeer>().qpn = qa;
            f.hca_mut(b).ulp_mut::<BwPeer>().qpn = qb;
            f.run();
            f.hca(a).ulp::<BwPeer>().bandwidth_mbs()
        }
        // 64 KB at 10 ms delay: 16-message window over a 20 ms RTT pipe.
        let collapsed = rc_bw(Dur::from_ms(10), 65536, 96);
        assert!(collapsed < 100.0, "64K @ 10ms should collapse: {collapsed}");
        // 4 MB at 10 ms delay recovers most of the SDR line rate.
        let recovered = rc_bw(Dur::from_ms(10), 1 << 22, 64);
        assert!(recovered > 700.0, "4M @ 10ms should recover: {recovered}");
        // 64 KB with no delay is near line rate.
        let lan = rc_bw(Dur::ZERO, 65536, 400);
        assert!(lan > 900.0, "64K @ 0 delay: {lan}");
    }
}
