//! WAN-adaptive protocol tuning — the paper's suggestion that "mechanisms
//! like adaptive tuning of MPI protocol ... are likely to yield the best
//! performance" since WAN separations are dynamic.
//!
//! The rendezvous protocol trades two bounce-buffer copies (eager) for an
//! RTS/CTS handshake (one extra round trip). Eager copy cost for an
//! `L`-byte message is `2 L / COPY_RATE`; the handshake costs ~1.5 RTT.
//! Rendezvous only wins when the copies cost more than the handshake, so
//! the break-even threshold grows linearly with RTT.

use mpisim::bench::osu_latency;
use mpisim::proto::{MpiConfig, COPY_RATE};
use mpisim::world::JobSpec;
use simcore::Dur;

/// Pick a rendezvous threshold for the measured round-trip time.
///
/// Copies run at MPI's eager bounce-buffer memcpy rate, [`COPY_RATE`]. The
/// result is clamped to `[8 KB, 1 MB]`: 8 KB is the MVAPICH2 LAN default,
/// and above 1 MB registration-cache effects (not modeled) favor rendezvous
/// anyway.
pub fn adaptive_threshold(rtt: Dur) -> u32 {
    if rtt <= Dur::from_us(50) {
        // Intra-cluster regime: keep the MVAPICH2 LAN default, where
        // rendezvous also buys registration-cache and memory benefits.
        return 8 << 10;
    }
    let handshake_ns = rtt.as_ns() as f64 * 1.5;
    let ns_per_byte = COPY_RATE.ps_per_byte() as f64 / 1000.0;
    let breakeven = handshake_ns / (2.0 * ns_per_byte);
    (breakeven as u32).clamp(8 << 10, 1 << 20)
}

/// An [`MpiConfig`] tuned for the measured RTT.
pub fn adaptive_config(rtt: Dur) -> MpiConfig {
    MpiConfig {
        eager_threshold: adaptive_threshold(rtt),
        ..MpiConfig::default()
    }
}

/// Measure the small-message RTT across a WAN pair (what an adaptive
/// implementation would probe at startup), then return the tuned config.
pub fn probe_and_tune(delay: Dur) -> MpiConfig {
    let spec = JobSpec::two_clusters(1, 1, delay);
    let one_way_us = osu_latency(spec, 4, 10);
    adaptive_config(Dur::from_us_f64(2.0 * one_way_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_rtt_keeps_mvapich_default() {
        let cfg = adaptive_config(Dur::from_us(10));
        assert_eq!(cfg.eager_threshold, 8 << 10);
    }

    #[test]
    fn threshold_grows_with_rtt() {
        let t_100us = adaptive_threshold(Dur::from_us(200));
        let t_10ms = adaptive_threshold(Dur::from_ms(20));
        assert!(t_10ms > t_100us, "{t_10ms} vs {t_100us}");
        assert_eq!(t_10ms, 1 << 20); // clamped at 1 MB for a 10 ms WAN
    }

    #[test]
    fn probe_detects_wan() {
        let lan = probe_and_tune(Dur::ZERO);
        let wan = probe_and_tune(Dur::from_ms(10));
        assert!(wan.eager_threshold > lan.eager_threshold);
        assert!(wan.eager_threshold >= 64 << 10, "{}", wan.eager_threshold);
    }
}
