//! Serialization-rate modeling for links, host CPUs, and other serial
//! resources.
//!
//! Rates are stored as integer **picoseconds per byte** so transmission-time
//! arithmetic is exact and platform-independent (no floating point in the
//! event path). 8 Gb/s — the InfiniBand SDR data rate the Obsidian Longbows
//! carry across the WAN — is exactly 1000 ps/byte.

use crate::time::{Dur, Time};

/// A data rate, stored as picoseconds per byte.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rate {
    ps_per_byte: u64,
}

impl Rate {
    /// An effectively infinite rate (zero serialization time).
    pub const INFINITE: Rate = Rate { ps_per_byte: 0 };

    /// From gigabits per second of *data* (e.g. IB SDR carries 8 Gb/s data).
    pub fn from_gbps(gbps: u64) -> Self {
        assert!(gbps > 0, "rate must be positive");
        // ps/byte = 8 bits/byte / (gbps * 1e9 bits/s) * 1e12 ps/s = 8000/gbps
        Rate {
            ps_per_byte: 8000 / gbps,
        }
    }

    /// From megabytes (10^6 bytes) per second.
    pub fn from_mbytes_per_sec(mb: u64) -> Self {
        assert!(mb > 0, "rate must be positive");
        Rate {
            ps_per_byte: 1_000_000 / mb,
        }
    }

    /// From raw picoseconds per byte.
    pub const fn from_ps_per_byte(ps: u64) -> Self {
        Rate { ps_per_byte: ps }
    }

    /// Picoseconds to serialize one byte.
    pub const fn ps_per_byte(self) -> u64 {
        self.ps_per_byte
    }

    /// Effective rate in MB/s (10^6 bytes), for reporting.
    pub fn mbytes_per_sec(self) -> f64 {
        if self.ps_per_byte == 0 {
            f64::INFINITY
        } else {
            1_000_000.0 / self.ps_per_byte as f64
        }
    }

    /// Time to serialize `bytes` at this rate (rounds up to whole ns).
    pub fn tx_time(self, bytes: u64) -> Dur {
        Dur::from_ns((bytes * self.ps_per_byte).div_ceil(1000))
    }
}

/// A serial resource (a link direction, a NIC engine, a host CPU doing
/// per-packet work): jobs are served one at a time in arrival order.
///
/// `reserve` implements the classic store-and-forward bookkeeping: a job
/// arriving at `now` begins service at `max(now, next_free)` and occupies the
/// resource for its service time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SerialResource {
    rate: Rate,
    next_free: Time,
    busy: Dur,
}

impl SerialResource {
    /// A resource serving at `rate`.
    pub fn new(rate: Rate) -> Self {
        SerialResource {
            rate,
            next_free: Time::ZERO,
            busy: Dur::ZERO,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Occupy the resource for `bytes` of work arriving at `now`; returns the
    /// (start, finish) times of service.
    pub fn reserve(&mut self, now: Time, bytes: u64) -> (Time, Time) {
        let start = now.max(self.next_free);
        let service = self.rate.tx_time(bytes);
        let finish = start + service;
        self.next_free = finish;
        self.busy += service;
        (start, finish)
    }

    /// Occupy the resource for a fixed duration of work (e.g. fixed per-packet
    /// CPU cost) arriving at `now`.
    pub fn reserve_dur(&mut self, now: Time, work: Dur) -> (Time, Time) {
        let start = now.max(self.next_free);
        let finish = start + work;
        self.next_free = finish;
        self.busy += work;
        (start, finish)
    }

    /// Occupy the resource for a **two-level** train: `msgs` messages of
    /// `frags` fragments each (`msgs * frags` jobs of `bytes`), fragments
    /// spaced `gap` apart within a message and message heads spaced `msg_gap`
    /// apart, all measured from `ready`. Member `k = m * frags + j` arrives at
    /// `ready + m * msg_gap + j * gap`. A train of one message is `msgs = 1`,
    /// where `msg_gap` plays no part.
    ///
    /// Returns `(head_finish, gap_out, msg_gap_out)` describing the departure
    /// pattern in the same two-level form (member `k` departs at
    /// `head_finish + m * msg_gap_out + j * gap_out`), or `None` when the
    /// backlog drains mid-train and there is no closed form — the caller must
    /// de-coalesce (per message, then per fragment).
    ///
    /// Exactness: both closed forms reproduce, member for member, the
    /// per-fragment `reserve` loop.
    ///
    /// 1. **Back-to-back.** With `start = max(ready, next_free)`, member `k`
    ///    serves at `start + k * service` iff every member has arrived by the
    ///    time its slot opens: `arrival(k) <= start + k * service` for all
    ///    `k`, i.e. `start - ready >= L` where the worst-case lateness
    ///    `L = max(0, (msgs-1)(msg_gap - frags*service))
    ///       + max(0, (frags-1)(gap - service))`
    ///    (the two offsets vary independently, so the max splits). Departures
    ///    are uniform at `service` spacing: `(service, frags * service)`.
    /// 2. **Message-independent.** The resource is idle at `ready` and every
    ///    message head arrives after the previous message's tail departs, so
    ///    each message serializes as if alone. Within a message fragment `j`
    ///    serves at `j * max(gap, service)`: when `gap >= service` the
    ///    arrival spacing passes through, and when `gap < service` fragment
    ///    `j` starts at `max(j * gap, j * service) = j * service`, i.e. the
    ///    message compacts back-to-back. With `g = max(gap, service)` the
    ///    message boundary stays independent iff
    ///    `(frags-1) * g + service <= msg_gap`, and the departure pattern is
    ///    `(g, msg_gap)`.
    pub fn reserve_train(
        &mut self,
        ready: Time,
        msgs: u32,
        frags: u32,
        bytes: u64,
        gap: Dur,
        msg_gap: Dur,
    ) -> Option<(Time, Dur, Dur)> {
        debug_assert!(msgs >= 1 && frags >= 1);
        let count = msgs as u64 * frags as u64;
        let service = self.rate.tx_time(bytes);
        let start = ready.max(self.next_free);
        let msg_service = service * frags as u64;
        let lateness = msg_gap.saturating_sub(msg_service) * (msgs as u64 - 1)
            + gap.saturating_sub(service) * (frags as u64 - 1);
        if start >= ready + lateness {
            // Back-to-back: uniform departures at `service` spacing.
            let total = service * count;
            self.next_free = start + total;
            self.busy += total;
            Some((start + service, service, msg_service))
        } else if self.next_free <= ready
            && (msgs == 1 || gap.max(service) * (frags as u64 - 1) + service <= msg_gap)
        {
            // Idle at every message head: messages serialize independently,
            // each compacting to `max(gap, service)` fragment spacing.
            let g = gap.max(service);
            let tail_start = ready + msg_gap * (msgs as u64 - 1) + g * (frags as u64 - 1);
            self.next_free = tail_start + service;
            self.busy += service * count;
            Some((ready + service, g, msg_gap))
        } else {
            None
        }
    }

    /// Earliest time the resource is idle.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Total busy time accumulated (utilization numerator).
    pub fn busy_time(&self) -> Dur {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdr_is_1000_ps_per_byte() {
        assert_eq!(Rate::from_gbps(8).ps_per_byte(), 1000);
        assert_eq!(Rate::from_gbps(16).ps_per_byte(), 500);
    }

    #[test]
    fn tx_time_rounds_up() {
        let r = Rate::from_gbps(8); // 1 ns/byte
        assert_eq!(r.tx_time(2048), Dur::from_ns(2048));
        let r2 = Rate::from_ps_per_byte(1500);
        assert_eq!(r2.tx_time(1), Dur::from_ns(2)); // 1.5ns rounds up
        assert_eq!(r2.tx_time(2), Dur::from_ns(3));
    }

    #[test]
    fn infinite_rate_is_instant() {
        assert_eq!(Rate::INFINITE.tx_time(1 << 30), Dur::ZERO);
        assert!(Rate::INFINITE.mbytes_per_sec().is_infinite());
    }

    #[test]
    fn mbytes_per_sec_reporting() {
        assert!((Rate::from_gbps(8).mbytes_per_sec() - 1000.0).abs() < 1e-9);
        assert!((Rate::from_mbytes_per_sec(500).mbytes_per_sec() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn serial_resource_queues_back_to_back() {
        let mut res = SerialResource::new(Rate::from_gbps(8));
        let (s1, f1) = res.reserve(Time::ZERO, 1000);
        assert_eq!(s1, Time::ZERO);
        assert_eq!(f1, Time::from_ns(1000));
        // Second job arrives while the first is in service: queued.
        let (s2, f2) = res.reserve(Time::from_ns(100), 1000);
        assert_eq!(s2, Time::from_ns(1000));
        assert_eq!(f2, Time::from_ns(2000));
        // Third arrives after idle gap: starts immediately.
        let (s3, _f3) = res.reserve(Time::from_ns(5000), 1000);
        assert_eq!(s3, Time::from_ns(5000));
        assert_eq!(res.busy_time(), Dur::from_ns(3000));
    }

    /// Per-member reference: reserve each member of a train at its own
    /// two-level arrival time; return the finish-time sequence.
    fn per_member(
        res: &mut SerialResource,
        ready: Time,
        msgs: u32,
        frags: u32,
        bytes: u64,
        gap: Dur,
        msg_gap: Dur,
    ) -> Vec<Time> {
        (0..msgs)
            .flat_map(|m| (0..frags).map(move |j| (m, j)))
            .map(|(m, j)| {
                res.reserve(ready + msg_gap * m as u64 + gap * j as u64, bytes)
                    .1
            })
            .collect()
    }

    /// Reserve a train on a resource busy until `idle_until` and, if it
    /// accepts, expand its `(head_finish, gap_out, msg_gap_out)` answer to
    /// per-member finish times and compare against the reference loop.
    /// Returns whether the train was accepted.
    fn check_train(
        idle_until: u64,
        ready: u64,
        msgs: u32,
        frags: u32,
        bytes: u64,
        gap: u64,
        msg_gap: u64,
    ) -> bool {
        let mut a = SerialResource::new(Rate::from_gbps(8));
        if idle_until > 0 {
            a.reserve(Time::ZERO, idle_until); // 1 ns/byte: busy until idle_until
        }
        let mut b = a;
        let (ready, gap, msg_gap) = (
            Time::from_ns(ready),
            Dur::from_ns(gap),
            Dur::from_ns(msg_gap),
        );
        let golden = per_member(&mut a, ready, msgs, frags, bytes, gap, msg_gap);
        match b.reserve_train(ready, msgs, frags, bytes, gap, msg_gap) {
            Some((head, g_out, mg_out)) => {
                for (k, want) in golden.iter().enumerate() {
                    let (m, j) = (k as u64 / frags as u64, k as u64 % frags as u64);
                    assert_eq!(head + mg_out * m + g_out * j, *want, "member {k}");
                }
                assert_eq!(a, b, "next_free/busy must match the reference loop");
                true
            }
            None => {
                // Declining is always allowed (caller de-coalesces) but must
                // not mutate state.
                let mut fresh = SerialResource::new(Rate::from_gbps(8));
                if idle_until > 0 {
                    fresh.reserve(Time::ZERO, idle_until);
                }
                assert_eq!(b, fresh);
                false
            }
        }
    }

    #[test]
    fn reserve_train_back_to_back_matches_per_member() {
        // One message, service (1000ns) >= gap (600ns): departures pack at
        // service spacing, from idle and behind a backlog alike.
        assert!(check_train(0, 50, 1, 5, 1000, 600, 0));
        assert!(check_train(3000, 100, 1, 4, 1000, 1000, 0));
        // fig13a forward shape behind a backlog: 4 msgs x 2 frags of 2090B,
        // frag gap 1045 < service 2090, msg_gap 4180 = 2 * 2090. Lateness is 0
        // (msg_gap == frags * service, gap < service) so back-to-back applies
        // even from idle.
        assert!(check_train(0, 50, 4, 2, 2090, 1045, 4180));
        assert!(check_train(20_000, 50, 4, 2, 2090, 1045, 4180));
    }

    #[test]
    fn reserve_train_pattern_preserving_matches_per_member() {
        // One message, service (500ns) < gap (1000ns) on an idle resource:
        // departures keep the arrival spacing.
        assert!(check_train(0, 200, 1, 6, 500, 1000, 0));
        // Slow arrivals on an idle resource: service 1000 < gap 1500,
        // (frags-1)*gap + service = 4000 <= msg_gap 6000.
        assert!(check_train(0, 200, 3, 3, 1000, 1500, 6000));
        // One fragment per message (an ACK run): service 30 << msg_gap 4180.
        assert!(check_train(0, 0, 5, 1, 30, 0, 4180));
    }

    #[test]
    fn reserve_train_compacts_messages_on_idle_resource() {
        // The ACK-pump shape: messages of back-to-back fragments (gap 0 <
        // service) whose heads ride a wide grid. Each message compacts to
        // `service` spacing while the grid passes through.
        // DDR hop: service 1045, gap 0, msg_gap 4180 >= 2*1045.
        assert!(check_train(0, 50, 32, 2, 1045, 0, 4180));
        // Intermediate gap, still below service: compaction is exact
        // (fragment j starts at j*service >= j*gap).
        assert!(check_train(0, 50, 4, 3, 1000, 700, 6000));
        // Boundary: (frags-1)*service + service == msg_gap exactly.
        assert!(check_train(0, 0, 3, 2, 1000, 0, 2000));
        // Just under the boundary the message-independent form is invalid
        // (tail overlaps the next head) but back-to-back takes over: with
        // msg_gap < frags * service the lateness is zero from idle.
        assert!(check_train(0, 0, 3, 2, 1000, 0, 1999));
    }

    #[test]
    fn reserve_train_deep_backlog_absorbs_slow_arrivals() {
        // Slow arrivals (lateness > 0) but the backlog is deep enough that
        // every member has arrived by its service slot: back-to-back form.
        // lateness = (3-1)*(6000-3000) + (2-1)*(1500-1000) = 6500; backlog
        // start - ready = 20000 - 200 >= 6500.
        assert!(check_train(20_000, 200, 3, 2, 1000, 1500, 6000));
        // One message: 500 ns members from 100 ns at 1000 ns gaps behind a
        // resource busy until 2000 ns. Lateness 3 * 500 = 1500 <= 1900, so
        // the whole train departs back-to-back.
        assert!(check_train(2000, 100, 1, 4, 500, 1000, 0));
    }

    #[test]
    fn reserve_train_partial_backlog_declines() {
        // Backlog drains mid-train: no closed form.
        let mut res = SerialResource::new(Rate::from_gbps(8));
        res.reserve(Time::ZERO, 3000);
        assert!(res
            .reserve_train(
                Time::from_ns(100),
                3,
                2,
                1000,
                Dur::from_ns(1500),
                Dur::from_ns(6000)
            )
            .is_none());
        assert!(!check_train(3000, 100, 3, 2, 1000, 1500, 6000));
        // One message, busy only until 1000 ns: lateness 1500 > 900, and the
        // third member finds the resource idle.
        assert!(!check_train(1000, 100, 1, 4, 500, 1000, 0));
    }

    #[test]
    fn reserve_dur_fixed_work() {
        let mut res = SerialResource::new(Rate::INFINITE);
        let (_, f1) = res.reserve_dur(Time::ZERO, Dur::from_us(3));
        assert_eq!(f1, Time::from_us(3));
        let (s2, f2) = res.reserve_dur(Time::from_us(1), Dur::from_us(2));
        assert_eq!(s2, Time::from_us(3));
        assert_eq!(f2, Time::from_us(5));
    }
}
