//! The TCP connection state machine.

/// TCP/IP header bytes per segment (IPv4 20 + TCP 20 + options 12).
pub const TCP_IP_HEADER: u32 = 52;

/// The "default" socket-buffer / window size used when the experiments do
/// not override it — the paper notes the default window is ">1M" and shows
/// it performing well in most cases.
pub const DEFAULT_WINDOW: u64 = 1 << 20;

/// Send a pure ACK after this many data segments (2 = standard
/// delayed-ACK-off behaviour).
const ACK_EVERY: u32 = 2;

/// Connection parameters.
#[derive(Copy, Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (bytes of payload per segment). Derive it from
    /// the carrier MTU with [`TcpConfig::for_mtu`].
    pub mss: u32,
    /// Flow-control window: maximum un-ACKed bytes in flight. This is the
    /// "TCP window size" swept in Figure 6(a).
    pub window: u64,
    /// Initial congestion window in segments (slow start begins here).
    pub init_cwnd_segments: u64,
    /// Slow-start threshold in bytes: below it cwnd doubles per RTT, above
    /// it grows linearly (congestion avoidance). Defaults to half the
    /// flow-control window, like a fresh Linux connection bounded by its
    /// socket buffer.
    pub ssthresh: u64,
}

impl TcpConfig {
    /// Config for a carrier with the given link MTU (payload = MTU − 52).
    pub fn for_mtu(mtu: u32) -> Self {
        assert!(mtu > TCP_IP_HEADER, "MTU too small for TCP/IP headers");
        TcpConfig {
            mss: mtu - TCP_IP_HEADER,
            window: DEFAULT_WINDOW,
            init_cwnd_segments: 10,
            ssthresh: DEFAULT_WINDOW / 2,
        }
    }

    /// Override the flow-control window (ssthresh follows at half of it).
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = window;
        self.ssthresh = window / 2;
        self
    }
}

/// A TCP segment as handed to the carrier. `len` is payload bytes; the wire
/// size adds [`TCP_IP_HEADER`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// First sequence number covered by this segment.
    pub seq: u64,
    /// Payload length (0 for a pure ACK).
    pub len: u32,
    /// Cumulative acknowledgment (next byte expected from the peer).
    pub ack: u64,
}

impl TcpSegment {
    /// Bytes this segment occupies on an IP link.
    pub fn wire_bytes(&self) -> u64 {
        self.len as u64 + TCP_IP_HEADER as u64
    }
    /// True if this segment carries no payload.
    pub fn is_pure_ack(&self) -> bool {
        self.len == 0
    }
}

/// One direction-pair TCP connection endpoint.
///
/// Drive it with [`TcpConn::app_send`] (application enqueues bytes),
/// [`TcpConn::poll_tx`] (carrier drains eligible segments), and
/// [`TcpConn::on_segment`] (carrier delivers a peer segment). The endpoint
/// never retransmits: the carrier is lossless and ordered.
#[derive(Debug, Clone)]
pub struct TcpConn {
    cfg: TcpConfig,
    // Send side.
    snd_una: u64,
    snd_nxt: u64,
    app_bytes: u64,
    cwnd: u64,
    // Receive side.
    rcv_nxt: u64,
    segs_since_ack: u32,
    ack_pending: bool,
    delivered: u64,
}

impl TcpConn {
    /// Fresh established connection (the model skips the three-way handshake;
    /// benchmark connections are warm).
    pub fn new(cfg: TcpConfig) -> Self {
        TcpConn {
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            app_bytes: 0,
            cwnd: cfg.init_cwnd_segments * cfg.mss as u64,
            rcv_nxt: 0,
            segs_since_ack: 0,
            ack_pending: false,
            delivered: 0,
        }
    }

    /// Configuration in effect.
    pub fn config(&self) -> TcpConfig {
        self.cfg
    }

    /// Application enqueues `bytes` for transmission.
    pub fn app_send(&mut self, bytes: u64) {
        self.app_bytes += bytes;
    }

    /// Bytes the peer application has been handed in order so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Bytes acknowledged by the peer (send-side progress).
    pub fn acked(&self) -> u64 {
        self.snd_una
    }

    /// Un-ACKed bytes currently in flight.
    pub fn inflight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current effective window (min of flow-control window and cwnd).
    pub fn effective_window(&self) -> u64 {
        self.cfg.window.min(self.cwnd)
    }

    /// True if the sender still has bytes queued or in flight.
    pub fn send_pending(&self) -> bool {
        self.snd_una < self.app_bytes
    }

    /// Yield the next segment eligible for transmission, if any: data while
    /// the window allows, else a pending pure ACK.
    pub fn poll_tx(&mut self) -> Option<TcpSegment> {
        let window_edge = self.snd_una + self.effective_window();
        let limit = self.app_bytes.min(window_edge);
        if self.snd_nxt < limit {
            let len = (limit - self.snd_nxt).min(self.cfg.mss as u64) as u32;
            let seg = TcpSegment {
                seq: self.snd_nxt,
                len,
                ack: self.rcv_nxt,
            };
            self.snd_nxt += len as u64;
            // Data segments piggyback the ACK.
            self.segs_since_ack = 0;
            self.ack_pending = false;
            return Some(seg);
        }
        if self.ack_pending {
            self.ack_pending = false;
            self.segs_since_ack = 0;
            return Some(TcpSegment {
                seq: self.snd_nxt,
                len: 0,
                ack: self.rcv_nxt,
            });
        }
        None
    }

    /// Deliver a peer segment; returns bytes newly handed to the application.
    ///
    /// After calling this, drain [`TcpConn::poll_tx`] — the ACK may have
    /// opened the window, and received data may require a pure ACK.
    pub fn on_segment(&mut self, seg: TcpSegment) -> u64 {
        // ACK processing (cumulative).
        if seg.ack > self.snd_una {
            let acked = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            // No loss ever occurs on the lossless fabric, so the flow-
            // control window is the final bound; cwnd still ramps
            // realistically: exponential in slow start, then one MSS per
            // RTT's worth of ACKs in congestion avoidance.
            let mss = self.cfg.mss as u64;
            let grow = if self.cwnd < self.cfg.ssthresh {
                acked.min(mss) // slow start: +MSS per ACK
            } else {
                // Congestion avoidance: +MSS per cwnd of acked bytes.
                (acked.min(mss) * mss / self.cwnd.max(1)).max(1)
            };
            self.cwnd = self
                .cwnd
                .saturating_add(grow)
                .min(self.cfg.window.max(self.cwnd));
        }
        // Data processing (carrier is in-order and lossless).
        let mut newly = 0;
        if seg.len > 0 {
            debug_assert_eq!(seg.seq, self.rcv_nxt, "carrier must preserve order");
            self.rcv_nxt += seg.len as u64;
            self.delivered += seg.len as u64;
            newly = seg.len as u64;
            self.segs_since_ack += 1;
            if self.segs_since_ack >= ACK_EVERY {
                self.ack_pending = true;
            }
        }
        newly
    }

    /// Force a pure ACK on the next [`TcpConn::poll_tx`] (used by carriers at
    /// quiescence to flush the final partial-delayed ACK).
    pub fn force_ack(&mut self) {
        if self.segs_since_ack > 0 {
            self.ack_pending = true;
        }
    }

    /// True if data segments have arrived that no ACK has covered yet — the
    /// condition under which a real stack arms the delayed-ACK timer.
    pub fn ack_outstanding(&self) -> bool {
        self.segs_since_ack > 0 || self.ack_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::for_mtu(2048)
    }

    /// Run both directions to quiescence with an in-memory lossless pipe.
    fn pump(a: &mut TcpConn, b: &mut TcpConn) {
        loop {
            let mut progress = false;
            while let Some(s) = a.poll_tx() {
                progress = true;
                b.on_segment(s);
            }
            while let Some(s) = b.poll_tx() {
                progress = true;
                a.on_segment(s);
            }
            if !progress {
                a.force_ack();
                b.force_ack();
                if a.poll_tx().is_none() && b.poll_tx().is_none() {
                    break;
                }
                // force_ack produced something: feed it through.
                // (loop continues because poll_tx consumed it — redo)
            }
        }
        // Final ACK flush.
        a.force_ack();
        if let Some(s) = a.poll_tx() {
            b.on_segment(s);
        }
        b.force_ack();
        if let Some(s) = b.poll_tx() {
            a.on_segment(s);
        }
    }

    #[test]
    fn mss_from_mtu() {
        assert_eq!(cfg().mss, 2048 - 52);
        assert_eq!(TcpConfig::for_mtu(65536).mss, 65484);
    }

    #[test]
    fn transfers_all_bytes() {
        let mut a = TcpConn::new(cfg());
        let mut b = TcpConn::new(cfg());
        a.app_send(1_000_000);
        pump(&mut a, &mut b);
        assert_eq!(b.delivered(), 1_000_000);
        assert_eq!(a.acked(), 1_000_000);
        assert!(!a.send_pending());
    }

    #[test]
    fn window_bounds_inflight() {
        let mut a = TcpConn::new(cfg().with_window(10_000));
        a.cwnd = u64::MAX / 2; // isolate the flow-control window
        a.app_send(1_000_000);
        let mut sent = 0;
        while let Some(s) = a.poll_tx() {
            sent += s.len as u64;
        }
        assert!(sent <= 10_000, "sent {sent}");
        assert_eq!(a.inflight(), sent);
    }

    #[test]
    fn slow_start_limits_initial_burst() {
        let mut a = TcpConn::new(cfg());
        a.app_send(10_000_000);
        let mut burst = 0;
        while let Some(s) = a.poll_tx() {
            burst += s.len as u64;
        }
        // Initial flight bounded by init cwnd (10 segments).
        assert_eq!(burst, 10 * (2048 - 52));
    }

    #[test]
    fn congestion_avoidance_slows_growth_past_ssthresh() {
        let mut cfg = cfg().with_window(1 << 20);
        cfg.init_cwnd_segments = 1; // start inside slow start
        cfg.ssthresh = 4 * cfg.mss as u64;
        let mut a = TcpConn::new(cfg);
        a.app_send(10_000_000);
        // Ack segment-by-segment; record cwnd growth per ack below and
        // above ssthresh.
        let mut growth_below = 0u64;
        let mut growth_above = 0u64;
        for _ in 0..40 {
            let Some(seg) = a.poll_tx() else { break };
            let before = a.effective_window();
            let acked = seg.seq + seg.len as u64;
            a.on_segment(TcpSegment {
                seq: 0,
                len: 0,
                ack: acked,
            });
            let after = a.effective_window();
            if before < cfg.ssthresh {
                growth_below = growth_below.max(after - before);
            } else {
                growth_above = growth_above.max(after - before);
            }
        }
        assert!(growth_below >= cfg.mss as u64, "{growth_below}");
        assert!(
            growth_above < cfg.mss as u64 / 2,
            "CA growth per ack must be sub-MSS: {growth_above}"
        );
    }

    #[test]
    fn cwnd_grows_on_acks() {
        let mut a = TcpConn::new(cfg());
        let w0 = a.effective_window();
        a.app_send(1_000_000);
        let seg = a.poll_tx().unwrap();
        // Peer acks it.
        a.on_segment(TcpSegment {
            seq: 0,
            len: 0,
            ack: seg.seq + seg.len as u64,
        });
        assert!(a.effective_window() > w0);
    }

    #[test]
    fn acks_are_cumulative_and_piggybacked() {
        let mut a = TcpConn::new(cfg());
        let mut b = TcpConn::new(cfg());
        a.app_send(5000);
        b.app_send(5000);
        pump(&mut a, &mut b);
        assert_eq!(a.delivered(), 5000);
        assert_eq!(b.delivered(), 5000);
        assert_eq!(a.acked(), 5000);
        assert_eq!(b.acked(), 5000);
    }

    #[test]
    fn pure_ack_every_two_segments() {
        let mut rx = TcpConn::new(cfg());
        let mss = cfg().mss as u64;
        // Two back-to-back data segments trigger one pure ACK.
        rx.on_segment(TcpSegment {
            seq: 0,
            len: cfg().mss,
            ack: 0,
        });
        assert!(rx.poll_tx().is_none(), "no ACK after first segment");
        rx.on_segment(TcpSegment {
            seq: mss,
            len: cfg().mss,
            ack: 0,
        });
        let ack = rx.poll_tx().expect("ACK after second segment");
        assert!(ack.is_pure_ack());
        assert_eq!(ack.ack, 2 * mss);
    }

    #[test]
    fn ack_outstanding_tracks_unacked_arrivals() {
        let mut rx = TcpConn::new(cfg());
        assert!(!rx.ack_outstanding());
        rx.on_segment(TcpSegment {
            seq: 0,
            len: 100,
            ack: 0,
        });
        assert!(rx.ack_outstanding());
        rx.force_ack();
        let ack = rx.poll_tx().unwrap();
        assert!(ack.is_pure_ack());
        assert!(!rx.ack_outstanding());
    }

    #[test]
    fn zero_window_never_sends() {
        let mut a = TcpConn::new(cfg().with_window(0));
        a.app_send(100);
        assert!(a.poll_tx().is_none());
    }

    #[test]
    fn wire_bytes_include_headers() {
        let s = TcpSegment {
            seq: 0,
            len: 1000,
            ack: 0,
        };
        assert_eq!(s.wire_bytes(), 1052);
    }
}
