//! Synthetic event-queue probes on `simcore::Engine`: one actor keeps a
//! fixed number of timers armed, each re-arming itself when it fires, so the
//! queue holds a constant resident population while the probe times
//! dispatches. This isolates the engine's queue cost from every protocol
//! layer above it.

use simcore::{Actor, ActorId, Ctx, Dur, Engine, Time};
use std::any::Any;
use std::time::Instant;

/// Near timers re-arm uniformly within this window, the spread of link,
/// switch and host-processing delays on a LAN fabric.
const SPREAD_NS: u64 = 50_000;
/// Far timers stand in for RC retransmission timeouts.
const RTO: Dur = Dur::from_ms(10);

/// `(span name, resident timers, one far timer in every N, timed events)`.
pub const TIMER_PROBES: [(&str, u64, u64, u64); 3] = [
    ("simcore.probe.shallow", 16, 0, 4_000_000),
    ("simcore.probe.deep", 131_072, 0, 1_000_000),
    ("simcore.probe.deep_rto", 131_072, 8, 1_000_000),
];

struct TimerBank {
    salt: u64,
    rto_one_in: u64,
}

impl Actor for TimerBank {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let delay = if self.rto_one_in > 0 && token.is_multiple_of(self.rto_one_in) {
            RTO
        } else {
            Dur::from_ns(1 + mix(self.salt ^ token ^ ctx.now().as_ns()) % SPREAD_NS)
        };
        ctx.timer(delay, token);
    }
}

/// SplitMix64 finalizer: a cheap, well-spread hash for probe jitter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Keep `residents` timers armed (one in `rto_one_in` re-armed 10 ms out;
/// 0 = none) and time `events` dispatches after every resident has fired
/// twice. Returns wall nanoseconds per dispatched event.
pub fn timer_probe(residents: u64, rto_one_in: u64, events: u64, seed: u64) -> f64 {
    let mut engine = Engine::new(seed);
    let bank = engine.add_actor(Box::new(TimerBank {
        salt: seed,
        rto_one_in,
    }));
    for token in 0..residents {
        engine.schedule_timer(Time::from_ns(mix(seed ^ token) % SPREAD_NS), bank, token);
    }
    engine.set_event_limit(2 * residents);
    engine.run();
    let warm = engine.events_processed();
    engine.set_event_limit(warm + events);
    let t0 = Instant::now();
    engine.run();
    let secs = t0.elapsed().as_secs_f64();
    let timed = engine.events_processed() - warm;
    assert_eq!(timed, events, "timer probe drained early");
    secs * 1e9 / timed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_probe_times_every_requested_event() {
        let ns = timer_probe(64, 8, 10_000, 3);
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
    }
}
