//! The discrete-event engine and actor model.
//!
//! Network entities (HCAs, switches, WAN routers, benchmark drivers) are
//! [`Actor`]s owned by the [`Engine`]. Actors communicate exclusively through
//! scheduled message deliveries and timers; the engine pops events in strict
//! `(time, sequence)` order, so simulations are fully deterministic.
//!
//! ## Packets and control messages
//!
//! Fabric traffic dominates event volume: a single large RC message becomes
//! thousands of MTU fragments, each crossing several hops (HCA → switch →
//! Longbow → Longbow → switch → HCA), and every hop is one event. A packet
//! therefore travels only through a delivery stream (below), which holds
//! the [`ibwire::Packet`] *by value* and dispatches it to
//! [`Actor::on_packet`]: no allocation, no `dyn Any` downcast per fragment.
//! Everything else (completions, credits, ULP user messages) is a
//! `Box<dyn Any + Send>` sent with [`Ctx::send`] and dispatched to
//! [`Actor::on_message`]. Zero-sized messages (e.g. link credits) don't
//! allocate either: `Box::new` of a ZST is allocation-free.
//!
//! ## Event pooling
//!
//! Control messages and timers live in a slab (`Vec<Option<EventKind>>`
//! plus a free list) of 40-byte nodes; the event queue orders only compact
//! 32-byte `(time, seq, index)` keys. Steady-state simulation allocates
//! nothing per event: nodes are recycled through the free list
//! ([`EngineCounters::pool_hits`]) and the slab only grows while the
//! in-flight population of such events reaches a new high
//! ([`EngineCounters::events_allocated`]). Packets take no slab node: they
//! wait in their stream.
//!
//! ## Same-timestamp ordering
//!
//! Ties in virtual time are broken by a monotonically increasing sequence
//! number assigned at *scheduling* time: two events at the same instant are
//! dispatched in the order they were scheduled. In particular, a zero-delay
//! self-send (`ctx.send(me, msg, Dur::ZERO)`) is delivered **after** every
//! event already queued for the current instant — effects of one handler
//! never jump ahead of previously scheduled work. See
//! `zero_delay_self_send_runs_after_queued_same_time_events` in the tests.
//!
//! ## Delivery streams
//!
//! A stream carries one sender's packets to one peer, bound to both when it
//! is opened ([`Engine::open_stream`], [`Ctx::send_stream`]): each link's
//! egress port has one, and so does each HCA, to itself, for the messages
//! of a train it receives later than the train's head. A port schedules
//! each packet's arrival as soon as it reserves the wire, so a congested
//! port's whole backlog waits in its stream. The stream keeps its packets
//! inline in a FIFO, each with the `(time, seq)` it got when scheduled, and
//! the queue holds only the front's key. When that key pops, the engine
//! takes the front packet, queues the next front's key and hands the packet
//! to the peer's [`Actor::on_packet`]. A stream's times never decrease (a
//! send before its stream's tail panics), so each FIFO is sorted, the queue
//! always holds each stream's minimum, and the pop order is exactly the one
//! a slab event per packet would give. A packet sent to an empty stream
//! waits inline in the stream itself, so a shallow pipeline, one delivery
//! in flight per port, touches no shared memory. The backlog behind it
//! waits in page-sized chunks from one pool the engine's streams share, so
//! a drained burst's memory serves the next burst on any port.

use crate::calqueue::EventQueue;
use crate::time::{Dur, Time};
use ibwire::Packet;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::VecDeque;

/// Index of an actor within an [`Engine`].
pub type ActorId = usize;

/// Handle to a delivery stream opened with [`Engine::open_stream`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(u32);

/// Deliveries per stream chunk: 32 entries of 128 bytes fill one 4 KiB page.
const CHUNK: usize = 32;

/// At most [`CHUNK`] consecutive deliveries of one stream, each with its
/// `HeapKey::order`.
type Chunk = VecDeque<(u128, Packet)>;

/// One delivery stream: the packets one actor has scheduled for one peer,
/// in key order, which never decreases. A packet sent to an empty stream
/// waits inline in `front`; the backlog behind it waits in chunks taken
/// from the engine's shared pool: no chunk is empty and only the last one
/// takes pushes. `front` is filled only while no chunk is held, so it is
/// always the oldest delivery, and the first delivery's key is in the
/// event queue whenever the stream holds one.
struct Stream {
    from: ActorId,
    to: ActorId,
    front: Option<(u128, Packet)>,
    chunks: VecDeque<Chunk>,
}

/// A simulation entity driven by messages and timers.
///
/// Implementations must be `'static` (the `Any` supertrait) so the engine can
/// hand back concrete types via [`Engine::actor_mut`] during setup and result
/// collection, and `Send` so an engine and its actors can move between
/// threads as one unit. Actors are plain state machines — no interior
/// sharing — so the bound is free in practice.
pub trait Actor: Any + Send {
    /// Deliver a control message sent by `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>);

    /// Deliver a packet `from` sent on a delivery stream.
    ///
    /// Only fabric entities (HCAs, switches) receive packets; the
    /// default implementation treats a packet arriving anywhere else as a
    /// wiring bug.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _pkt: Packet) {
        panic!("actor received a fabric packet but does not handle packets");
    }

    /// A timer armed via [`Ctx::timer`] has fired. `token` is the value the
    /// actor supplied when arming it.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// A slab event: a control message or a timer. Packets never take one.
pub(crate) enum EventKind {
    Message {
        from: ActorId,
        to: ActorId,
        msg: Box<dyn Any + Send>,
    },
    Timer {
        actor: ActorId,
        token: u64,
    },
}

/// Compact queue entry: the event payload lives in the slab at `idx`, or at
/// the front of stream `idx`, so queue operations move 32 bytes instead of a
/// full event node. `(time, seq)` is packed into one `u128` so each ordering
/// comparison is a single wide integer compare.
#[derive(Debug)]
pub(crate) struct HeapKey {
    /// `(at.as_ns() << 64) | seq` — orders by time, then scheduling order.
    order: u128,
    pub(crate) idx: u32,
    /// `idx` names a delivery stream, not a slab slot. Sits in the padding
    /// the `u128` alignment leaves, so streams cost the queue no space.
    stream: bool,
}

impl HeapKey {
    #[inline]
    pub(crate) fn new(at: Time, seq: u64, idx: u32) -> Self {
        HeapKey {
            order: Self::order(at, seq),
            idx,
            stream: false,
        }
    }

    #[inline]
    fn order(at: Time, seq: u64) -> u128 {
        ((at.as_ns() as u128) << 64) | seq as u128
    }

    #[inline]
    pub(crate) fn at(&self) -> Time {
        Time::from_ns((self.order >> 64) as u64)
    }
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order.cmp(&other.order)
    }
}

/// Number of log2 buckets in [`EngineCounters::cal_bucket_occupancy`].
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Hot-path health counters maintained by the engine.
///
/// All fields are integers so reports embedding this struct can stay `Eq`
/// (and thus usable in exact-equality determinism tests); the derived ratio
/// is exposed as [`EngineCounters::pool_hit_rate`]. Every field is a pure
/// function of the simulation, so two identically seeded runs compare
/// equal field for field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Events dispatched to actors.
    pub events_processed: u64,
    /// Event nodes that required a fresh heap allocation (slab growth). In
    /// steady state this should plateau while `pool_hits` keeps climbing.
    /// Only control messages and timers take slab nodes; packets wait
    /// inline in their stream (see the [module docs](self)).
    pub events_allocated: u64,
    /// Event nodes recycled from the free pool instead of allocated.
    pub pool_hits: u64,
    /// High-water mark of the event queue length. Counts queue residents:
    /// a delivery stream contributes only its front's key, not the
    /// deliveries waiting behind it (see the [module docs](self)).
    pub peak_queue_len: u64,
    /// Fragment-train hop deliveries dispatched: packet deliveries whose
    /// packet carried `count > 1` fragments across a hop as one event. A
    /// packet an actor sends itself (an HCA re-delivering the messages of a
    /// train not yet due) crosses no hop and is not counted.
    pub trains_emitted: u64,
    /// Fragment hop-deliveries that rode inside a train instead of costing
    /// their own event (`count - 1` per dispatched train).
    pub fragments_coalesced: u64,
    /// Control-path (ACK) train hop deliveries dispatched: packet
    /// deliveries whose packet carried `count > 1` acknowledgements as one
    /// event.
    pub control_trains: u64,
    /// Control-path hop-deliveries (cumulative-ACK runs) that rode inside a
    /// train instead of costing their own event (`count - 1` per dispatched
    /// control train).
    pub control_coalesced: u64,
    /// Log2 histogram of calendar-queue bucket occupancy, recorded each time
    /// the pop cursor arrives at a non-empty bucket: bucket `i` counts
    /// visits that found `[2^i, 2^(i+1))` queued events. All zero while the
    /// queue is still in its binary-heap warmup.
    pub cal_bucket_occupancy: [u64; OCCUPANCY_BUCKETS],
    /// Pops served from the calendar queue's exact-fallback heap (events
    /// beyond the bucket horizon or behind an advanced cursor).
    pub cal_fallback_hits: u64,
}

impl EngineCounters {
    /// Fraction of event-node acquisitions served from the pool,
    /// `pool_hits / (pool_hits + events_allocated)`. Zero when nothing was
    /// scheduled.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.events_allocated;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Fraction of hop-deliveries that were coalesced into trains — data
    /// fragments *and* control-path acknowledgements:
    /// `(fragments_coalesced + control_coalesced) / (events_processed +
    /// fragments_coalesced + control_coalesced)` — i.e. the share of
    /// per-packet events the train paths made unnecessary. Zero when nothing
    /// coalesced.
    pub fn coalescing_ratio(&self) -> f64 {
        let saved = self.fragments_coalesced + self.control_coalesced;
        let total = self.events_processed + saved;
        if total == 0 {
            0.0
        } else {
            saved as f64 / total as f64
        }
    }
}

/// Merge another engine's counters into this one — how a harness sums the
/// runs of a sweep into one block. Throughput-style fields add;
/// `peak_queue_len` is a high-water mark across *independent* queues, so it
/// takes the max (two runs' queues never coexist in one heap).
impl std::ops::AddAssign for EngineCounters {
    fn add_assign(&mut self, rhs: EngineCounters) {
        self.events_processed += rhs.events_processed;
        self.events_allocated += rhs.events_allocated;
        self.pool_hits += rhs.pool_hits;
        self.peak_queue_len = self.peak_queue_len.max(rhs.peak_queue_len);
        self.trains_emitted += rhs.trains_emitted;
        self.fragments_coalesced += rhs.fragments_coalesced;
        self.control_trains += rhs.control_trains;
        self.control_coalesced += rhs.control_coalesced;
        self.cal_fallback_hits += rhs.cal_fallback_hits;
        for (b, r) in self
            .cal_bucket_occupancy
            .iter_mut()
            .zip(rhs.cal_bucket_occupancy)
        {
            *b += r;
        }
    }
}

/// Everything the engine owns except the actor table, grouped so
/// [`Ctx`] can borrow it whole while one actor is borrowed out of the table
/// (disjoint struct fields split-borrow cleanly).
pub(crate) struct Core {
    pub(crate) seq: u64,
    /// Min-ordered compact keys (calendar queue with exact-fallback heap);
    /// payloads live in `nodes`.
    pub(crate) queue: EventQueue,
    /// Slab of event payloads, indexed by `HeapKey::idx`.
    pub(crate) nodes: Vec<Option<EventKind>>,
    /// Recycled slab indices.
    pub(crate) free: Vec<u32>,
    pub(crate) rng: SmallRng,
    /// Delivery streams, indexed by `StreamId`.
    streams: Vec<Stream>,
    /// Empty chunks, shared by every stream: a backlogged stream takes one
    /// when its last chunk is full and gives each back as it drains, so a
    /// burst on one port leaves memory the next port's burst reuses.
    spare: Vec<Chunk>,
    pub(crate) counters: EngineCounters,
}

impl Core {
    /// Take the next sequence number.
    #[inline]
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Acquire a slab slot for `kind` — from the free pool when possible —
    /// and key it at `at` with the next sequence number.
    #[inline]
    fn new_key(&mut self, at: Time, kind: EventKind) -> HeapKey {
        let idx = if let Some(idx) = self.free.pop() {
            self.counters.pool_hits += 1;
            debug_assert!(self.nodes[idx as usize].is_none(), "free-list slot in use");
            self.nodes[idx as usize] = Some(kind);
            idx
        } else {
            self.counters.events_allocated += 1;
            let idx = u32::try_from(self.nodes.len()).expect("event slab overflow");
            self.nodes.push(Some(kind));
            idx
        };
        HeapKey::new(at, self.next_seq(), idx)
    }

    /// Push `key` into the queue and track the queue's high-water mark.
    #[inline]
    fn enqueue(&mut self, key: HeapKey) {
        self.queue.push(key);
        let len = self.queue.len() as u64;
        if len > self.counters.peak_queue_len {
            self.counters.peak_queue_len = len;
        }
    }

    /// Schedule `kind` at `at` straight into the event queue.
    #[inline]
    pub(crate) fn push_event(&mut self, at: Time, kind: EventKind) {
        let key = self.new_key(at, kind);
        self.enqueue(key);
    }

    /// Append `pkt`, due at `at`, to `stream`, queueing its key if it is
    /// the stream's front.
    ///
    /// # Panics
    /// Panics if `at` precedes the stream's last delivery.
    #[inline]
    fn push_stream(&mut self, stream: StreamId, at: Time, pkt: Packet) {
        let order = HeapKey::order(at, self.next_seq());
        let s = &mut self.streams[stream.0 as usize];
        let tail = match s.chunks.back() {
            Some(last) => Some(last.back().expect("a stream holds no empty chunk").0),
            None => s.front.as_ref().map(|&(tail, _)| tail),
        };
        let Some(tail) = tail else {
            // An empty stream: the packet waits inline, no chunk taken.
            s.front = Some((order, pkt));
            self.enqueue(HeapKey {
                order,
                idx: stream.0,
                stream: true,
            });
            return;
        };
        assert!(
            order > tail,
            "stream send at {at:?} precedes its stream's tail at {:?}",
            Time::from_ns((tail >> 64) as u64)
        );
        match s.chunks.back_mut() {
            Some(last) if last.len() < CHUNK => last.push_back((order, pkt)),
            _ => {
                let mut chunk = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(CHUNK));
                chunk.push_back((order, pkt));
                s.chunks.push_back(chunk);
            }
        }
    }

    /// The first key of `stream` just popped: take its packet and queue the
    /// next one's key, if any. Returns the stream's sender and peer with
    /// the packet.
    #[inline]
    fn pop_stream(&mut self, stream: u32) -> (ActorId, ActorId, Packet) {
        let s = &mut self.streams[stream as usize];
        let pkt = match s.front.take() {
            Some((_, pkt)) => pkt,
            None => {
                let first = s
                    .chunks
                    .front_mut()
                    .expect("stream key with an empty stream");
                let (_, pkt) = first.pop_front().expect("a stream holds no empty chunk");
                if first.is_empty() {
                    let drained = s.chunks.pop_front().expect("the front chunk was just read");
                    self.spare.push(drained);
                }
                pkt
            }
        };
        if let Some(next) = s.chunks.front() {
            let &(order, _) = next.front().expect("a stream holds no empty chunk");
            // Replaces the popped key: no new peak.
            self.queue.push(HeapKey {
                order,
                idx: stream,
                stream: true,
            });
        }
        (s.from, s.to, pkt)
    }
}

/// Handle given to an actor while it processes an event.
///
/// All side effects an actor can have on the simulation flow through this
/// context: sending messages and arming timers. A timer cannot be
/// cancelled: an actor that may no longer want one keeps the instant it is
/// due and ignores the event when it pops. Scheduled
/// events go straight into the pooled event queue — sequence numbers are
/// assigned at scheduling time, so same-instant ordering follows emission
/// order (see the [module docs](self)).
pub struct Ctx<'a> {
    now: Time,
    self_id: ActorId,
    core: &'a mut Core,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `msg` for delivery to `to` after `delay`.
    ///
    /// With `delay == Dur::ZERO` the message is delivered at the current
    /// instant, but **after** every event already queued for this instant
    /// (ties break in scheduling order). `msg` is `Send` so a whole
    /// [`Engine`], queued events included, can move between threads; the
    /// handler receives it as a plain `Box<dyn Any>`.
    pub fn send(&mut self, to: ActorId, msg: Box<dyn Any + Send>, delay: Dur) {
        self.send_at(to, msg, self.now + delay);
    }

    /// Schedule `msg` for delivery to `to` at absolute time `at`.
    ///
    /// `at` must not be in the past; scheduling "now" is allowed and the
    /// message is delivered after all effects of the current event settle.
    #[inline]
    pub fn send_at(&mut self, to: ActorId, msg: Box<dyn Any + Send>, at: Time) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Message {
                from: self.self_id,
                to,
                msg,
            },
        );
    }

    /// Schedule `pkt` for delivery at `at` through `stream`, to the peer
    /// the stream was opened for.
    ///
    /// The packet takes its `(time, seq)` now, as [`Ctx::send_at`] does, so
    /// it is dispatched, to the peer's [`Actor::on_packet`], exactly where a
    /// message sent now for `at` would be. It waits inline in the stream's
    /// FIFO, with only the stream's front in the event queue (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics if `at` precedes the stream's last send: a stream's times
    /// never decrease.
    #[inline]
    pub fn send_stream(&mut self, stream: StreamId, pkt: Packet, at: Time) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        debug_assert_eq!(
            self.core.streams[stream.0 as usize].from, self.self_id,
            "a stream carries only its owner's sends"
        );
        self.core.push_stream(stream, at, pkt);
    }

    /// Arm a timer on the current actor that fires after `delay` with `token`.
    pub fn timer(&mut self, delay: Dur, token: u64) {
        self.timer_at(self.now + delay, token);
    }

    /// Arm a timer on the current actor at absolute time `at` with `token`.
    pub fn timer_at(&mut self, at: Time, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Timer {
                actor: self.self_id,
                token,
            },
        );
    }

    /// Run `f` with the clock temporarily set to `at` (`at >= now`). Replay
    /// paths use this to re-enact per-member outcomes of a coalesced train
    /// at their original virtual instants within one event: everything `f`
    /// schedules is timed exactly as if it ran in a separate event at `at`.
    pub fn at_instant<R>(&mut self, at: Time, f: impl FnOnce(&mut Ctx<'_>) -> R) -> R {
        debug_assert!(at >= self.now, "cannot replay into the past");
        let saved = self.now;
        self.now = at;
        let r = f(self);
        self.now = saved;
        r
    }

    /// Record that a coalesced control-path run of `members` members was
    /// delivered as one event. The engine counts wire trains itself at
    /// dispatch (it can see `Packet` fields), but host-side runs — batched
    /// CQE deliveries — are opaque user messages, so their dispatcher
    /// reports them here to keep [`EngineCounters::coalescing_ratio`]
    /// honest about every event the batching saved.
    pub fn note_control_run(&mut self, members: u32) {
        debug_assert!(members > 1, "a run has at least two members");
        self.core.counters.control_trains += 1;
        self.core.counters.control_coalesced += (members - 1) as u64;
    }

    /// Deterministic random generator shared by the whole simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }
}

/// The discrete-event engine: owns all actors, the event queue, virtual time,
/// and the seeded random generator.
pub struct Engine {
    pub(crate) now: Time,
    pub(crate) actors: Vec<Box<dyn Actor>>,
    pub(crate) core: Core,
    /// Safety valve against runaway protocol loops in tests.
    pub(crate) event_limit: u64,
}

impl Engine {
    /// Create an engine with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: Time::ZERO,
            actors: Vec::new(),
            core: Core {
                seq: 0,
                queue: EventQueue::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                streams: Vec::new(),
                spare: Vec::new(),
                counters: EngineCounters::default(),
            },
            event_limit: u64::MAX,
        }
    }

    /// Cap the number of events processed (a safety valve for tests; the
    /// engine stops once the cap is reached).
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Make room for `additional` more streams, so a builder that knows
    /// how many it will open allocates the stream table once.
    pub fn reserve_streams(&mut self, additional: usize) {
        self.core.streams.reserve(additional);
    }

    /// Open a delivery stream for [`Ctx::send_stream`]: `from`'s packets
    /// to `to`.
    pub fn open_stream(&mut self, from: ActorId, to: ActorId) -> StreamId {
        let id = u32::try_from(self.core.streams.len()).expect("too many delivery streams");
        self.core.streams.push(Stream {
            from,
            to,
            front: None,
            chunks: VecDeque::new(),
        });
        StreamId(id)
    }

    /// Register an actor and return its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Mutable access to a concrete actor, for setup and result collection.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the concrete type does not match.
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> &mut T {
        let any: &mut dyn Any = &mut *self.actors[id];
        any.downcast_mut::<T>().expect("actor type mismatch")
    }

    /// Shared access to a concrete actor.
    ///
    /// # Panics
    /// Same conditions as [`Engine::actor_mut`].
    pub fn actor<T: Actor>(&self, id: ActorId) -> &T {
        let any: &dyn Any = &*self.actors[id];
        any.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.core.counters.events_processed
    }

    /// Snapshot of the engine's hot-path counters.
    pub fn counters(&self) -> EngineCounters {
        self.core.counters
    }

    /// Schedule a message delivery from outside any actor (driver code).
    pub fn schedule_message(
        &mut self,
        at: Time,
        from: ActorId,
        to: ActorId,
        msg: Box<dyn Any + Send>,
    ) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core
            .push_event(at, EventKind::Message { from, to, msg });
    }

    /// Schedule a timer on `actor` from outside any actor (driver code).
    pub fn schedule_timer(&mut self, at: Time, actor: ActorId, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(at, EventKind::Timer { actor, token });
    }

    /// Process a single event. Returns `false` when the queue is empty or the
    /// event limit is reached.
    fn step(&mut self) -> bool {
        if self.core.counters.events_processed >= self.event_limit {
            return false;
        }
        let Some(key) = self.core.queue.pop(&mut self.core.counters) else {
            return false;
        };
        debug_assert!(
            key.at() >= self.now,
            "time went backwards: popped event at {:?} behind now {:?}",
            key.at(),
            self.now
        );
        self.now = key.at();
        self.core.counters.events_processed += 1;
        // Split-borrow: the dispatched actor comes out of `self.actors`
        // while `Ctx` borrows `self.core` — disjoint fields, so handlers
        // schedule directly into the event queue with no intermediate
        // buffering (and no per-event take/put of the actor box).
        if key.stream {
            let (from, to, pkt) = self.core.pop_stream(key.idx);
            // Train accounting: a packet with `count > 1` moved `count`
            // members across this hop in one event — data fragments and
            // datagram runs on the forward path, cumulative-ACK runs on the
            // return path. A packet an actor sends itself crossed no hop.
            if pkt.count > 1 && from != to {
                let saved = (pkt.count - 1) as u64;
                if matches!(pkt.opcode, ibwire::Opcode::RcAck) {
                    self.core.counters.control_trains += 1;
                    self.core.counters.control_coalesced += saved;
                } else {
                    self.core.counters.trains_emitted += 1;
                    self.core.counters.fragments_coalesced += saved;
                }
            }
            let mut ctx = Ctx {
                now: self.now,
                self_id: to,
                core: &mut self.core,
            };
            self.actors[to].on_packet(&mut ctx, from, pkt);
            return true;
        }
        let kind = self.core.nodes[key.idx as usize]
            .take()
            .expect("heap key points at an empty slab slot");
        self.core.free.push(key.idx);
        let actor_id = match &kind {
            EventKind::Message { to, .. } => *to,
            EventKind::Timer { actor, .. } => *actor,
        };
        let mut ctx = Ctx {
            now: self.now,
            self_id: actor_id,
            core: &mut self.core,
        };
        let actor = &mut self.actors[actor_id];
        match kind {
            EventKind::Message { from, msg, .. } => actor.on_message(&mut ctx, from, msg),
            EventKind::Timer { token, .. } => actor.on_timer(&mut ctx, token),
        }
        true
    }

    /// Run until the queue drains or the event limit is reached; returns the
    /// final virtual time.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibwire::{Lid, Opcode, Qpn};

    /// Echoes each message back to the sender after a fixed delay, counting
    /// deliveries. The `limit`-th delivery is not echoed, so a ping-pong
    /// ends there and the queue drains.
    struct Echo {
        delay: Dur,
        count: u32,
        limit: u32,
    }

    impl Echo {
        fn new(delay: Dur, limit: u32) -> Self {
            Echo {
                delay,
                count: 0,
                limit,
            }
        }
    }

    impl Actor for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
            self.count += 1;
            if self.count < self.limit {
                // Re-box the payload: a sent message must be `Send`, which
                // the received `Box<dyn Any>` erased.
                let v = *msg.downcast::<u8>().expect("echo payload is a u8");
                ctx.send(from, Box::new(v), self.delay);
            }
        }
    }

    fn test_packet(psn: u32) -> Packet {
        Packet {
            dst_lid: Lid(2),
            src_lid: Lid(1),
            dst_qpn: Qpn(0),
            src_qpn: Qpn(0),
            opcode: Opcode::UdSend,
            psn,
            payload: 256,
            msg_id: 0,
            msg_len: 256,
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
    fn ping_pong_advances_time() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 100)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(10), 3)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        let end = e.run();
        // Sequence: b@0 (b.count=1), a@10 (a.count=1), b@20 (b.count=2),
        // a@30, b@40 (count=3: b stops echoing and the queue drains).
        assert_eq!(end, Time::from_us(40));
        assert_eq!(e.actor::<Echo>(b).count, 3);
        assert_eq!(e.actor::<Echo>(a).count, 2);
    }

    #[test]
    fn fifo_tie_break_is_schedule_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor for Recorder {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                self.seen.push(*msg.downcast::<u32>().unwrap());
            }
        }
        let mut e = Engine::new(1);
        let r = e.add_actor(Box::new(Recorder { seen: vec![] }));
        for i in 0..10u32 {
            e.schedule_message(Time::from_us(5), r, r, Box::new(i));
        }
        e.run();
        assert_eq!(e.actor::<Recorder>(r).seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_delay_self_send_runs_after_queued_same_time_events() {
        // The documented same-timestamp contract: a Dur::ZERO self-send from
        // the first handler lands *behind* the events that were already
        // queued for the same instant.
        struct Chaser {
            order: Vec<&'static str>,
        }
        impl Actor for Chaser {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                let tag = *msg.downcast::<&'static str>().unwrap();
                if tag == "first" {
                    ctx.send(ctx.self_id(), Box::new("chased"), Dur::ZERO);
                }
                self.order.push(tag);
            }
        }
        let mut e = Engine::new(1);
        let c = e.add_actor(Box::new(Chaser { order: vec![] }));
        e.schedule_message(Time::ZERO, c, c, Box::new("first"));
        e.schedule_message(Time::ZERO, c, c, Box::new("second"));
        e.run();
        assert_eq!(
            e.actor::<Chaser>(c).order,
            vec!["first", "second", "chased"]
        );
    }

    #[test]
    fn timers_fire_with_tokens() {
        struct T(Vec<u64>);
        impl Actor for T {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
                ctx.timer(Dur::from_us(2), 9);
                ctx.timer(Dur::from_us(1), 7);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.0.push(token);
            }
        }
        let mut e = Engine::new(1);
        let t = e.add_actor(Box::new(T(Vec::new())));
        e.schedule_message(Time::ZERO, t, t, Box::new(()));
        let end = e.run();
        assert_eq!(end, Time::from_us(2));
        assert_eq!(e.actor::<T>(t).0, [7, 9]);
    }

    #[test]
    fn packet_lane_dispatches_to_on_packet() {
        struct PktSink {
            packets: Vec<u32>,
            ctrl: u32,
        }
        impl Actor for PktSink {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _msg: Box<dyn Any>) {
                self.ctrl += 1;
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, pkt: Packet) {
                self.packets.push(pkt.psn);
            }
        }
        let mut e = Engine::new(1);
        let s = e.add_actor(Box::new(PktSink {
            packets: vec![],
            ctrl: 0,
        }));
        let stream = e.open_stream(s, s);
        e.core.push_stream(stream, Time::ZERO, test_packet(11));
        e.schedule_message(Time::ZERO, s, s, Box::new(()));
        e.core
            .push_stream(stream, Time::from_us(1), test_packet(12));
        e.run();
        let sink = e.actor::<PktSink>(s);
        assert_eq!(sink.packets, vec![11, 12]);
        assert_eq!(sink.ctrl, 1);
    }

    #[test]
    #[should_panic(expected = "does not handle packets")]
    fn packet_to_non_fabric_actor_panics() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        let stream = e.open_stream(a, a);
        e.core.push_stream(stream, Time::ZERO, test_packet(0));
        e.run();
    }

    #[test]
    fn event_pool_recycles_nodes() {
        // A long ping-pong keeps at most a couple of events in flight, so
        // the slab plateaus immediately and everything else is a pool hit.
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::from_us(1), u32::MAX)));
        let b = e.add_actor(Box::new(Echo::new(Dur::from_us(1), 1000)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e.run();
        let c = e.counters();
        assert!(c.events_processed > 1900, "{c:?}");
        assert!(c.events_allocated <= 4, "slab must plateau: {c:?}");
        assert_eq!(c.pool_hits + c.events_allocated, c.events_processed);
        assert!(c.pool_hit_rate() > 0.99, "{c:?}");
        assert!(c.peak_queue_len <= 4, "{c:?}");
    }

    #[test]
    fn event_limit_halts_runaway() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, u32::MAX)));
        let b = e.add_actor(Box::new(Echo::new(Dur::ZERO, u32::MAX)));
        e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
        e.set_event_limit(1000);
        e.run();
        assert_eq!(e.events_processed(), 1000);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn trace() -> (Time, u64) {
            let mut e = Engine::new(99);
            let a = e.add_actor(Box::new(Echo::new(Dur::from_ns(37), 500)));
            let b = e.add_actor(Box::new(Echo::new(Dur::from_ns(53), 500)));
            e.schedule_message(Time::ZERO, a, b, Box::new(0u8));
            let end = e.run();
            (end, e.events_processed())
        }
        assert_eq!(trace(), trace());
    }

    #[test]
    fn downcast_accessors() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        e.actor_mut::<Echo>(a).count = 41;
        assert_eq!(e.actor::<Echo>(a).count, 41);
    }

    #[test]
    #[should_panic(expected = "actor type mismatch")]
    fn downcast_wrong_type_panics() {
        struct Other;
        impl Actor for Other {
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ActorId, _: Box<dyn Any>) {}
        }
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Other));
        let _ = e.actor::<Echo>(a);
    }

    #[test]
    fn counters_merge_sums_and_maxes() {
        let a = EngineCounters {
            events_processed: 10,
            events_allocated: 2,
            pool_hits: 8,
            peak_queue_len: 5,
            trains_emitted: 3,
            fragments_coalesced: 30,
            control_trains: 2,
            control_coalesced: 20,
            cal_bucket_occupancy: [4, 0, 0, 0, 0, 0, 0, 1],
            cal_fallback_hits: 6,
        };
        let b = EngineCounters {
            events_processed: 4,
            events_allocated: 1,
            pool_hits: 3,
            peak_queue_len: 9,
            trains_emitted: 1,
            fragments_coalesced: 10,
            control_trains: 1,
            control_coalesced: 5,
            cal_bucket_occupancy: [0, 2, 0, 0, 0, 0, 0, 0],
            cal_fallback_hits: 1,
        };
        let mut m = a;
        m += b;
        assert_eq!(m.events_processed, 14);
        assert_eq!(m.events_allocated, 3);
        assert_eq!(m.pool_hits, 11);
        assert_eq!(m.peak_queue_len, 9, "peak is a max across disjoint queues");
        assert_eq!(m.trains_emitted, 4);
        assert_eq!(m.fragments_coalesced, 40);
        assert_eq!(m.control_trains, 3);
        assert_eq!(m.control_coalesced, 25);
        assert_eq!(m.cal_bucket_occupancy, [4, 2, 0, 0, 0, 0, 0, 1]);
        assert_eq!(m.cal_fallback_hits, 7);
    }

    /// Dispatch log shared by the actors of one scripted run:
    /// `(time, actor, tag)` per dispatched event.
    type DispatchLog = std::sync::Arc<std::sync::Mutex<Vec<(Time, ActorId, u64)>>>;

    const SCRIPT_STREAMS: usize = 4;

    /// Drives a seeded mix of stream sends, direct sends and timers from
    /// every event it handles. A stream send carries a packet tagged in
    /// `msg_id`; with `streams == None` it becomes a direct `send_at` of the
    /// same packet, boxed, to the same actor at the same time.
    struct Script {
        streams: Option<Vec<StreamId>>,
        sinks: Vec<ActorId>,
        /// Latest time sent on each stream.
        tails: [Time; SCRIPT_STREAMS],
        budget: u32,
        next_tag: u64,
        /// Stream sends made.
        packets: u64,
        log: DispatchLog,
    }

    impl Script {
        fn act(&mut self, ctx: &mut Ctx<'_>) {
            use rand::Rng;
            let now = ctx.now();
            for _ in 0..ctx.rng().gen_range(1..4u32) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let tag = self.next_tag;
                self.next_tag += 1;
                let roll = ctx.rng().gen_range(0..100u32);
                if roll < 60 {
                    let s = ctx.rng().gen_range(0..SCRIPT_STREAMS);
                    // A third of the steps are zero: same nanosecond.
                    let step = ctx.rng().gen_range(0..3u64) * ctx.rng().gen_range(0..20u64);
                    let at = self.tails[s].max(now) + Dur::from_ns(step);
                    self.tails[s] = at;
                    self.packets += 1;
                    let pkt = Packet {
                        msg_id: tag,
                        ..test_packet(0)
                    };
                    match &self.streams {
                        Some(ids) => ctx.send_stream(ids[s], pkt, at),
                        None => ctx.send_at(self.sinks[s], Box::new(pkt), at),
                    }
                } else if roll < 80 {
                    let to = if roll < 70 {
                        ctx.self_id()
                    } else {
                        self.sinks[ctx.rng().gen_range(0..SCRIPT_STREAMS)]
                    };
                    let at = now + Dur::from_ns(ctx.rng().gen_range(0..3_000u64));
                    ctx.send_at(to, Box::new(tag), at);
                } else {
                    let delay = Dur::from_ns(ctx.rng().gen_range(0..4_000u64));
                    ctx.timer(delay, tag);
                }
            }
        }
    }

    impl Actor for Script {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
            log_dispatch(&self.log, ctx, *msg.downcast::<u64>().unwrap());
            self.act(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            log_dispatch(&self.log, ctx, token);
            self.act(ctx);
        }
    }

    fn log_dispatch(log: &DispatchLog, ctx: &Ctx<'_>, tag: u64) {
        log.lock().unwrap().push((ctx.now(), ctx.self_id(), tag));
    }

    /// Logs each delivery, streamed packet, boxed packet or tag, and pokes
    /// the script back.
    struct ScriptSink {
        script: ActorId,
        log: DispatchLog,
    }

    impl ScriptSink {
        fn poke(&self, ctx: &mut Ctx<'_>, from: ActorId, tag: u64) {
            use rand::Rng;
            assert_eq!(from, self.script, "every delivery comes from the script");
            log_dispatch(&self.log, ctx, tag);
            let delay = Dur::from_ns(ctx.rng().gen_range(1..500u64));
            ctx.send(self.script, Box::new(u64::MAX - tag), delay);
        }
    }

    impl Actor for ScriptSink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>) {
            let tag = match msg.downcast::<u64>() {
                Ok(tag) => *tag,
                Err(msg) => msg.downcast::<Packet>().expect("a boxed packet").msg_id,
            };
            self.poke(ctx, from, tag);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: ActorId, pkt: Packet) {
            self.poke(ctx, from, pkt.msg_id);
        }
    }

    /// Run the script to completion: `(dispatch log, counters, stream
    /// sends)`.
    fn run_script(seed: u64, streams: bool) -> (Vec<(Time, ActorId, u64)>, EngineCounters, u64) {
        let log = DispatchLog::default();
        let mut e = Engine::new(seed);
        let script = e.add_actor(Box::new(Script {
            streams: None,
            sinks: Vec::new(),
            tails: [Time::ZERO; SCRIPT_STREAMS],
            budget: 6_000,
            next_tag: 0,
            packets: 0,
            log: log.clone(),
        }));
        let sinks: Vec<ActorId> = (0..SCRIPT_STREAMS)
            .map(|_| {
                e.add_actor(Box::new(ScriptSink {
                    script,
                    log: log.clone(),
                }))
            })
            .collect();
        let ids = streams.then(|| sinks.iter().map(|&to| e.open_stream(script, to)).collect());
        let s = e.actor_mut::<Script>(script);
        s.streams = ids;
        s.sinks = sinks;
        for i in 0..16u64 {
            e.schedule_message(
                Time::from_ns(i * 37),
                script,
                script,
                Box::new(1_000_000 + i),
            );
        }
        e.run();
        let packets = e.actor::<Script>(script).packets;
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, e.counters(), packets)
    }

    #[test]
    fn streams_dispatch_in_exactly_the_order_of_direct_sends() {
        for seed in [3, 17, 2024] {
            let (direct_log, direct, packets) = run_script(seed, false);
            let (stream_log, streamed, _) = run_script(seed, true);
            assert!(
                direct_log.len() > 5_000,
                "script too short: {}",
                direct_log.len()
            );
            assert!(packets > 2_000, "seed {seed}: only {packets} stream sends");
            let diverged = direct_log.iter().zip(&stream_log).position(|(d, s)| d != s);
            if let Some(i) = diverged {
                panic!(
                    "seed {seed}: dispatch {i} diverged: {:?} direct, {:?} streamed",
                    direct_log[i], stream_log[i]
                );
            }
            assert_eq!(stream_log.len(), direct_log.len(), "seed {seed}");
            assert_eq!(streamed.events_processed, direct.events_processed);
            assert!(
                streamed.peak_queue_len < direct.peak_queue_len,
                "seed {seed}: streams held {} residents against {} direct",
                streamed.peak_queue_len,
                direct.peak_queue_len
            );
            let nodes = |c: EngineCounters| c.events_allocated + c.pool_hits;
            assert_eq!(
                nodes(direct) - nodes(streamed),
                packets,
                "seed {seed}: stream sends must take no slab node"
            );
        }
    }

    #[test]
    #[should_panic(expected = "precedes its stream's tail")]
    fn a_stream_send_before_its_tail_panics() {
        let mut e = Engine::new(1);
        let s = e.open_stream(0, 0);
        for (k, ns) in [10, 10, 9].into_iter().enumerate() {
            e.core
                .push_stream(s, Time::from_ns(ns), test_packet(k as u32));
        }
    }

    /// A 10,000-packet burst spreads over pooled chunks behind the inline
    /// front; draining it gives every chunk back, and a second stream's
    /// burst reuses them all. A lone packet takes no chunk.
    #[test]
    fn drained_streams_give_their_chunks_back() {
        const BURST: u32 = 10_000;
        let chunks = (BURST as usize - 1).div_ceil(CHUNK);
        let mut e = Engine::new(1);
        let lone = e.open_stream(0, 0);
        e.core.push_stream(lone, Time::ZERO, test_packet(0));
        assert!(e.core.streams[lone.0 as usize].chunks.is_empty());
        let key = e.core.queue.pop(&mut e.core.counters).expect("queued");
        e.core.pop_stream(key.idx);
        assert!(e.core.spare.is_empty(), "a one-packet stream took a chunk");
        for s in [e.open_stream(0, 0), e.open_stream(0, 0)] {
            for k in 0..BURST {
                e.core
                    .push_stream(s, Time::from_ns(k as u64 / 3), test_packet(k));
            }
            assert_eq!(e.core.streams[s.0 as usize].chunks.len(), chunks);
            assert!(e.core.spare.is_empty(), "the burst takes every spare chunk");
            for k in 0..BURST {
                let key = e.core.queue.pop(&mut e.core.counters).expect("queued");
                assert!(key.stream);
                assert_eq!(e.core.pop_stream(key.idx).2.psn, k);
            }
            assert!(e.core.streams[s.0 as usize].chunks.is_empty());
            assert_eq!(e.core.spare.len(), chunks, "every chunk went back");
        }
        assert_eq!(e.counters().events_allocated, 0);
    }

    /// A slab node holds a control message or a timer, never a packet.
    #[test]
    fn a_slab_node_is_at_most_40_bytes() {
        assert!(std::mem::size_of::<Option<EventKind>>() <= 40);
    }
}
