//! Contiguous per-QP hot-state arena.
//!
//! Every packet event touches the same trio of state: the destination QP's
//! transport machine (send window, PSN/msg-id counters, assembly), its
//! retransmission-timer bookkeeping, and the recycled [`QpOutput`] scratch
//! buffer the state machine writes into. Keeping the timer slot in a
//! parallel `Vec` puts the two per-QP reads on separate cache lines and
//! makes every arm/disarm a second bounds-checked index; this slab packs
//! each QP and its timer slot side by side in one contiguous allocation
//! indexed by QP number, and owns the shared scratch buffer so the whole
//! QP-driving working set lives behind one field.
//!
//! ## The retransmission timer
//!
//! Engine timers cannot be cancelled, so a QP's timer is two instants: its
//! *deadline* (`None` while disarmed) and the instant of the one timer
//! event the QP keeps queued, if any. Arming sets the deadline and queues
//! an event only when none is queued at or before it; disarming clears the
//! deadline and leaves the event queued. When the event pops, a cleared
//! deadline makes it stale, a later one re-queues it at the deadline, and
//! a deadline equal to the pop instant fires the timeout. A QP re-armed
//! while its old event is still queued therefore times out at
//! `re-arm + rto`, and however often a QP quiesces and re-arms, it keeps
//! one timer event queued.

use crate::qp::{Qp, QpConfig, QpOutput, Qpn};
use crate::types::Lid;
use simcore::Time;

/// One QP's packed hot state: the state machine and its retransmission
/// timer, adjacent in memory.
struct QpSlot {
    qp: Qp,
    /// When the retransmission timer is due; `None` while disarmed.
    rto_deadline: Option<Time>,
    /// When this QP's queued timer event pops, if one is queued.
    rto_queued: Option<Time>,
}

/// What a popped retransmission-timer event means: the answer of
/// [`QpSlab::rto_popped`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RtoPop {
    /// Not the QP's queued event, or the QP disarmed since: ignore it.
    Stale,
    /// The QP re-armed since the event was queued: queue a timer event at
    /// this deadline.
    Requeue(Time),
    /// The timer is due now: run the QP's timeout.
    Fire,
}

/// Arena of per-QP hot state, indexed densely by [`Qpn`].
#[derive(Default)]
pub struct QpSlab {
    slots: Vec<QpSlot>,
    /// Recycled QP output buffer: capacity persists across packets, so the
    /// steady-state receive/ACK path allocates nothing.
    scratch: QpOutput,
}

impl QpSlab {
    /// Empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next QP slot; QPNs are assigned densely from 0.
    pub fn create(&mut self, cfg: QpConfig, local_lid: Lid) -> Qpn {
        let qpn = Qpn(self.slots.len() as u32);
        self.slots.push(QpSlot {
            qp: Qp::new(qpn, cfg, local_lid),
            rto_deadline: None,
            rto_queued: None,
        });
        qpn
    }

    /// Number of QPs allocated.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no QP has been created yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Immutable access to a QP.
    pub fn qp(&self, qpn: Qpn) -> &Qp {
        &self.slots[qpn.0 as usize].qp
    }

    /// Mutable access to a QP.
    pub fn qp_mut(&mut self, qpn: Qpn) -> &mut Qp {
        &mut self.slots[qpn.0 as usize].qp
    }

    /// Iterate over every QP, mutably (configuration sweeps).
    pub fn qps_mut(&mut self) -> impl Iterator<Item = &mut Qp> {
        self.slots.iter_mut().map(|s| &mut s.qp)
    }

    /// Arm `qpn`'s retransmission timer for `deadline`. Returns `true` when
    /// the caller must queue a timer event at `deadline`, because no queued
    /// event pops at or before it.
    pub fn arm_rto(&mut self, qpn: Qpn, deadline: Time) -> bool {
        let slot = &mut self.slots[qpn.0 as usize];
        slot.rto_deadline = Some(deadline);
        if slot.rto_queued.is_some_and(|queued| queued <= deadline) {
            return false;
        }
        slot.rto_queued = Some(deadline);
        true
    }

    /// Disarm `qpn`'s retransmission timer. Its queued event stays queued
    /// and pops stale.
    pub fn disarm_rto(&mut self, qpn: Qpn) {
        self.slots[qpn.0 as usize].rto_deadline = None;
    }

    /// A retransmission-timer event of `qpn` popped at `now`: say what it
    /// means (see the [module docs](self)).
    pub fn rto_popped(&mut self, qpn: Qpn, now: Time) -> RtoPop {
        let slot = &mut self.slots[qpn.0 as usize];
        if slot.rto_queued != Some(now) {
            return RtoPop::Stale;
        }
        slot.rto_queued = None;
        match slot.rto_deadline {
            None => RtoPop::Stale,
            Some(deadline) if deadline > now => {
                slot.rto_queued = Some(deadline);
                RtoPop::Requeue(deadline)
            }
            Some(deadline) => {
                debug_assert_eq!(deadline, now, "a deadline passed unqueued");
                slot.rto_deadline = None;
                RtoPop::Fire
            }
        }
    }

    /// Borrow the shared scratch output for a drive of one QP. The caller
    /// returns it via [`QpSlab::put_scratch`] when done; taking leaves a
    /// fresh (empty) buffer behind, so re-entrant drives are merely slower,
    /// never wrong.
    pub fn take_scratch(&mut self) -> QpOutput {
        std::mem::take(&mut self.scratch)
    }

    /// Return the scratch buffer taken by [`QpSlab::take_scratch`], clearing
    /// it for the next drive but keeping its capacity.
    pub fn put_scratch(&mut self, mut out: QpOutput) {
        out.reset();
        self.scratch = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Dur;

    #[test]
    fn dense_qpns_and_adjacent_timer_slots() {
        let mut slab = QpSlab::new();
        assert!(slab.is_empty());
        let a = slab.create(QpConfig::rc(), Lid(1));
        let b = slab.create(QpConfig::ud(), Lid(1));
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.qp(a).qpn(), a);
        assert_eq!(slab.qp(b).qpn(), b);
        assert_eq!(slab.rto_popped(a, Time::ZERO), RtoPop::Stale);
    }

    #[test]
    fn armed_timer_fires_at_its_deadline() {
        let mut slab = QpSlab::new();
        let q = slab.create(QpConfig::rc(), Lid(1));
        let due = Time::from_us(60);
        assert!(slab.arm_rto(q, due), "an idle QP queues its event");
        assert_eq!(slab.rto_popped(q, due), RtoPop::Fire);
        assert_eq!(slab.rto_popped(q, due), RtoPop::Stale, "a second pop");
        assert!(slab.arm_rto(q, due + Dur::from_us(60)));
    }

    #[test]
    fn disarmed_timer_pops_stale() {
        let mut slab = QpSlab::new();
        let q = slab.create(QpConfig::rc(), Lid(1));
        let due = Time::from_us(60);
        assert!(slab.arm_rto(q, due));
        slab.disarm_rto(q);
        assert_eq!(slab.rto_popped(q, due), RtoPop::Stale);
        assert!(slab.arm_rto(q, due + Dur::from_us(1)));
    }

    #[test]
    fn rearm_after_disarm_reuses_the_queued_event() {
        let mut slab = QpSlab::new();
        let q = slab.create(QpConfig::rc(), Lid(1));
        let first = Time::from_us(60);
        assert!(slab.arm_rto(q, first));
        slab.disarm_rto(q);
        // Re-armed 20 µs later, within one RTO: the queued event covers it.
        let second = Time::from_us(80);
        assert!(!slab.arm_rto(q, second), "nothing new is queued");
        assert_eq!(slab.rto_popped(q, first), RtoPop::Requeue(second));
        assert_eq!(slab.rto_popped(q, first), RtoPop::Stale, "a second pop");
        assert_eq!(slab.rto_popped(q, second), RtoPop::Fire);
        assert_eq!(slab.rto_popped(q, second), RtoPop::Stale);
    }

    #[test]
    fn arming_before_the_queued_event_queues_another() {
        let mut slab = QpSlab::new();
        let q = slab.create(QpConfig::rc(), Lid(1));
        let late = Time::from_us(90);
        assert!(slab.arm_rto(q, late));
        slab.disarm_rto(q);
        let early = Time::from_us(70);
        assert!(slab.arm_rto(q, early), "the queued event pops too late");
        assert_eq!(slab.rto_popped(q, early), RtoPop::Fire);
        assert_eq!(slab.rto_popped(q, late), RtoPop::Stale);
    }

    #[test]
    fn scratch_round_trips_with_capacity() {
        let mut slab = QpSlab::new();
        let mut out = slab.take_scratch();
        out.packets.reserve(64);
        let cap = out.packets.capacity();
        out.arm_retransmit = true;
        slab.put_scratch(out);
        let out = slab.take_scratch();
        assert!(!out.arm_retransmit, "put_scratch must reset");
        assert!(out.packets.capacity() >= cap, "capacity must persist");
        slab.put_scratch(out);
    }
}
