//! The discrete-event engine and actor model.
//!
//! Network entities (HCAs, switches, WAN routers, benchmark drivers) are
//! [`Actor`]s owned by the [`Engine`]. Actors communicate exclusively through
//! scheduled message deliveries and timers; the engine pops events in strict
//! `(time, sequence)` order, so simulations are fully deterministic.
//!
//! ## The two message lanes
//!
//! Fabric traffic dominates event volume: a single large RC message becomes
//! thousands of MTU fragments, each crossing several hops (HCA → switch →
//! Longbow → Longbow → switch → HCA), and every hop is one event. The engine
//! therefore carries messages as a [`Msg`] with two lanes:
//!
//! * **Packet lane** — [`Msg::Packet`] holds an [`ibwire::Packet`] *by value*
//!   inside the pooled event node and dispatches to [`Actor::on_packet`]. No
//!   allocation, no `dyn Any` downcast per fragment.
//! * **Control lane** — [`Msg::Ctrl`] is the classic `Box<dyn Any>` for
//!   everything else (completions, credits, ULP user messages), dispatched to
//!   [`Actor::on_message`]. Zero-sized control messages (e.g. link credits)
//!   don't allocate either: `Box::new` of a ZST is allocation-free.
//!
//! `Ctx::send`/`Engine::schedule_message` accept `impl Into<Msg>`, so existing
//! `Box::new(value)` call sites keep working while fabric code passes a bare
//! `Packet`.
//!
//! ## Event pooling
//!
//! Event payloads live in a slab (`Vec<Option<EventKind>>` plus a free list);
//! the event queue orders only compact 32-byte `(time, seq, index)` keys.
//! Steady-state simulation allocates nothing per event: nodes are recycled
//! through the free list ([`EngineCounters::pool_hits`]) and the slab only
//! grows while the in-flight event population reaches a new high
//! ([`EngineCounters::events_allocated`]).
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
//! A link's egress port schedules each packet's arrival as soon as it
//! reserves the wire, so a congested port's whole backlog would otherwise sit
//! in the event queue. A port instead sends through its own stream
//! ([`Engine::open_stream`], [`Ctx::send_stream`]): the queue holds only the
//! stream's earliest key, and its later keys wait in a per-stream FIFO with
//! the `(time, seq)` they got when scheduled. When the head pops, the next
//! key is pushed. A key that would not extend its stream's tail is pushed
//! directly, so every FIFO stays sorted and the queue always holds each
//! stream's minimum. The global minimum is therefore always queued, and the
//! pop order is exactly the one direct sends would give.

use crate::calqueue::EventQueue;
use crate::time::{Dur, Time};
use ibwire::Packet;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{HashSet, VecDeque};

/// Index of an actor within an [`Engine`].
pub type ActorId = usize;

/// A message travelling between actors: the typed packet lane or the boxed
/// control lane. See the [module docs](self) for why the lanes exist.
///
/// Control payloads carry a `Send` bound so a whole [`Engine`] — including
/// its queued events — is `Send` and can move between threads. Handlers
/// still receive a plain `Box<dyn Any>`; the bound only constrains
/// construction.
pub enum Msg {
    /// A fabric packet, carried by value (fast path).
    Packet(Packet),
    /// Anything else, carried as `Box<dyn Any + Send>` (control path).
    Ctrl(Box<dyn Any + Send>),
}

impl Msg {
    /// Downcast a control-lane message to a concrete type. Packet-lane
    /// messages and control messages of a different type come back as `Err`.
    pub fn downcast<T: Any>(self) -> Result<Box<T>, Msg> {
        match self {
            Msg::Ctrl(b) => b.downcast::<T>().map_err(Msg::Ctrl),
            p => Err(p),
        }
    }

    /// Extract the packet, if this is a packet-lane message.
    pub fn into_packet(self) -> Result<Packet, Msg> {
        match self {
            Msg::Packet(p) => Ok(p),
            m => Err(m),
        }
    }

    /// True for packet-lane messages.
    pub fn is_packet(&self) -> bool {
        matches!(self, Msg::Packet(_))
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Msg::Packet(p) => f.debug_tuple("Packet").field(p).finish(),
            Msg::Ctrl(_) => f.write_str("Ctrl(..)"),
        }
    }
}

impl From<Packet> for Msg {
    fn from(p: Packet) -> Msg {
        Msg::Packet(p)
    }
}

impl From<Box<dyn Any + Send>> for Msg {
    fn from(b: Box<dyn Any + Send>) -> Msg {
        Msg::Ctrl(b)
    }
}

/// Any concretely-typed box rides the control lane; `Box::new(value)` call
/// sites convert implicitly. (No overlap with the other impls: `dyn Any` is
/// unsized and `Packet` converts by value, not boxed.)
impl<T: Any + Send> From<Box<T>> for Msg {
    fn from(b: Box<T>) -> Msg {
        Msg::Ctrl(b)
    }
}

/// Handle to a cancellable timer armed via [`Ctx::timer_cancellable`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Handle to a delivery stream opened with [`Engine::open_stream`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(u32);

/// [`HeapKey::stream`] of a key that heads no stream.
const NO_STREAM: u32 = u32::MAX;

/// One delivery stream: the keys scheduled behind its queued head.
#[derive(Default)]
struct Stream {
    /// Keys after the head, in key order, each tagged with this stream.
    later: VecDeque<HeapKey>,
    /// Order of the stream's last key (the head when `later` is empty).
    tail: u128,
    /// The stream's earliest key is in the event queue.
    queued: bool,
}

/// A simulation entity driven by messages and timers.
///
/// Implementations must be `'static` (the `Any` supertrait) so the engine can
/// hand back concrete types via [`Engine::actor_mut`] during setup and result
/// collection, and `Send` so an engine and its actors can move between
/// threads as one unit. Actors are plain state machines — no interior
/// sharing — so the bound is free in practice.
pub trait Actor: Any + Send {
    /// Deliver a control-lane message sent by `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ActorId, msg: Box<dyn Any>);

    /// Deliver a packet-lane message sent by `from`.
    ///
    /// Only fabric entities (HCAs, switches, bridges) receive packets; the
    /// default implementation treats a packet arriving anywhere else as a
    /// wiring bug.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: ActorId, _pkt: Packet) {
        panic!("actor received a fabric packet but does not handle the packet lane");
    }

    /// A timer armed via [`Ctx::timer`] has fired. `token` is the value the
    /// actor supplied when arming it.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

pub(crate) enum EventKind {
    Message {
        from: ActorId,
        to: ActorId,
        msg: Msg,
    },
    Timer {
        actor: ActorId,
        token: u64,
        /// `Some` for cancellable timers; checked against the tombstone set
        /// when popped.
        cancel_id: Option<TimerId>,
    },
}

/// Compact queue entry: the event payload lives in the slab at `idx`, so
/// queue operations move 32 bytes instead of a full event node. `(time, seq)`
/// is packed into one `u128` so each ordering comparison is a single wide
/// integer compare.
#[derive(Debug)]
pub(crate) struct HeapKey {
    /// `(at.as_ns() << 64) | seq` — orders by time, then scheduling order.
    order: u128,
    pub(crate) idx: u32,
    /// The stream this key heads, or `NO_STREAM`. Sits in the padding the
    /// `u128` alignment leaves, so streams cost the queue no space.
    stream: u32,
}

impl HeapKey {
    #[inline]
    pub(crate) fn new(at: Time, seq: u64, idx: u32) -> Self {
        HeapKey {
            order: ((at.as_ns() as u128) << 64) | seq as u128,
            idx,
            stream: NO_STREAM,
        }
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
    /// Events dispatched to actors (cancelled timers are not dispatched and
    /// are excluded).
    pub events_processed: u64,
    /// Event nodes that required a fresh heap allocation (slab growth). In
    /// steady state this should plateau while `pool_hits` keeps climbing.
    pub events_allocated: u64,
    /// Event nodes recycled from the free pool instead of allocated.
    pub pool_hits: u64,
    /// High-water mark of the event queue length. Counts queue residents:
    /// a delivery stream contributes only its earliest pending key, not the
    /// keys waiting behind it (see the [module docs](self)).
    pub peak_queue_len: u64,
    /// Timers that were cancelled before firing and skipped on pop.
    pub timers_cancelled: u64,
    /// Fragment-train hop deliveries dispatched: packet-lane events whose
    /// packet carried `count > 1` fragments across a hop as one event.
    pub trains_emitted: u64,
    /// Fragment hop-deliveries that rode inside a train instead of costing
    /// their own event (`count - 1` per dispatched train).
    pub fragments_coalesced: u64,
    /// Control-path (ACK) train hop deliveries dispatched: packet-lane
    /// events whose packet carried `count > 1` acknowledgements as one
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
        self.timers_cancelled += rhs.timers_cancelled;
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
    pub(crate) next_timer_id: u64,
    /// Tombstones for cancelled-but-not-yet-popped timers.
    pub(crate) cancelled: HashSet<u64>,
    /// Delivery streams, indexed by `StreamId`.
    streams: Vec<Stream>,
    pub(crate) counters: EngineCounters,
}

impl Core {
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
        let seq = self.seq;
        self.seq += 1;
        HeapKey::new(at, seq, idx)
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

    /// Schedule `kind` at `at` on `stream`: into the queue if the stream is
    /// idle, behind its tail if the key extends it, and straight into the
    /// queue otherwise.
    #[inline]
    fn push_stream_event(&mut self, stream: StreamId, at: Time, kind: EventKind) {
        let mut key = self.new_key(at, kind);
        let s = &mut self.streams[stream.0 as usize];
        if !s.queued {
            s.queued = true;
            s.tail = key.order;
            key.stream = stream.0;
            self.enqueue(key);
        } else if key.order > s.tail {
            s.tail = key.order;
            key.stream = stream.0;
            s.later.push_back(key);
        } else {
            self.enqueue(key);
        }
    }

    /// The head of `stream` just popped: queue its next key, if any.
    #[inline]
    fn advance_stream(&mut self, stream: u32) {
        let s = &mut self.streams[stream as usize];
        match s.later.pop_front() {
            Some(next) => self.queue.push(next), // replaces the head: no new peak
            None => s.queued = false,
        }
    }
}

/// Handle given to an actor while it processes an event.
///
/// All side effects an actor can have on the simulation flow through this
/// context: sending messages and arming or cancelling timers. Scheduled
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
    /// (ties break in scheduling order).
    pub fn send(&mut self, to: ActorId, msg: impl Into<Msg>, delay: Dur) {
        self.send_at(to, msg, self.now + delay);
    }

    /// Schedule `msg` for delivery to `to` at absolute time `at`.
    ///
    /// `at` must not be in the past; scheduling "now" is allowed and the
    /// message is delivered after all effects of the current event settle.
    #[inline]
    pub fn send_at(&mut self, to: ActorId, msg: impl Into<Msg>, at: Time) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Message {
                from: self.self_id,
                to,
                msg: msg.into(),
            },
        );
    }

    /// Schedule `msg` for delivery to `to` at `at` through `stream`.
    ///
    /// Dispatch order is exactly that of [`Ctx::send_at`]; the difference
    /// is where the key waits. While the stream has an earlier delivery
    /// pending, a key at or after the stream's last one waits in the
    /// stream's FIFO instead of the event queue (see the
    /// [module docs](self)). A sender whose times never decrease, such as an
    /// egress port, keeps only one key per stream in the queue.
    #[inline]
    pub fn send_stream(&mut self, stream: StreamId, to: ActorId, msg: impl Into<Msg>, at: Time) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_stream_event(
            stream,
            at,
            EventKind::Message {
                from: self.self_id,
                to,
                msg: msg.into(),
            },
        );
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
                cancel_id: None,
            },
        );
    }

    /// Arm a cancellable timer on the current actor; the returned [`TimerId`]
    /// can be passed to [`Ctx::cancel_timer`] before the timer fires.
    pub fn timer_cancellable(&mut self, delay: Dur, token: u64) -> TimerId {
        let at = self.now + delay;
        let id = TimerId(self.core.next_timer_id);
        self.core.next_timer_id += 1;
        self.core.push_event(
            at,
            EventKind::Timer {
                actor: self.self_id,
                token,
                cancel_id: Some(id),
            },
        );
        id
    }

    /// Cancel a timer armed with [`Ctx::timer_cancellable`].
    ///
    /// The timer's queue entry is skipped when popped: it is not dispatched
    /// and not counted in `events_processed` (it shows up in
    /// [`EngineCounters::timers_cancelled`] instead). Cancelling a timer that
    /// has already fired leaves a permanent tombstone — only cancel timers
    /// you know are still armed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.core.cancelled.insert(id.0);
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
                next_timer_id: 0,
                cancelled: HashSet::new(),
                streams: Vec::new(),
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

    /// Open a delivery stream for [`Ctx::send_stream`].
    pub fn open_stream(&mut self) -> StreamId {
        let id = u32::try_from(self.core.streams.len())
            .ok()
            .filter(|&id| id != NO_STREAM)
            .expect("too many delivery streams");
        self.core.streams.push(Stream::default());
        StreamId(id)
    }

    /// Register an actor and return its id.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
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
    pub fn schedule_message(&mut self, at: Time, from: ActorId, to: ActorId, msg: impl Into<Msg>) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Message {
                from,
                to,
                msg: msg.into(),
            },
        );
    }

    /// Schedule a timer on `actor` from outside any actor (driver code).
    pub fn schedule_timer(&mut self, at: Time, actor: ActorId, token: u64) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.core.push_event(
            at,
            EventKind::Timer {
                actor,
                token,
                cancel_id: None,
            },
        );
    }

    /// Process a single event. Returns `false` when the queue is empty or the
    /// event limit is reached. Cancelled timers are skipped (virtual time
    /// still advances past them) and do not count as processed events.
    fn step(&mut self) -> bool {
        loop {
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
            if key.stream != NO_STREAM {
                self.core.advance_stream(key.stream);
            }
            let kind = self.core.nodes[key.idx as usize]
                .take()
                .expect("heap key points at an empty slab slot");
            self.core.free.push(key.idx);

            if let EventKind::Timer {
                cancel_id: Some(id),
                ..
            } = &kind
            {
                if self.core.cancelled.remove(&id.0) {
                    self.core.counters.timers_cancelled += 1;
                    continue; // skipped: not dispatched, not counted
                }
            }
            self.core.counters.events_processed += 1;
            // Train accounting: a packet-lane delivery with `count > 1` and a
            // real arrival pattern moved `count` members across this hop in
            // one event — data fragments on the forward path, cumulative-ACK
            // runs on the return path. (`gap_ns == 0 && msgs <= 1` marks a
            // train's deferred tail self-delivery at the destination HCA —
            // the fragments were already counted when the train arrived, so
            // it is excluded.)
            if let EventKind::Message {
                msg: Msg::Packet(p),
                ..
            } = &kind
            {
                if p.count > 1 && (p.gap_ns > 0 || p.msgs > 1) {
                    if matches!(p.opcode, ibwire::Opcode::RcAck) {
                        self.core.counters.control_trains += 1;
                        self.core.counters.control_coalesced += (p.count - 1) as u64;
                    } else {
                        self.core.counters.trains_emitted += 1;
                        self.core.counters.fragments_coalesced += (p.count - 1) as u64;
                    }
                }
            }

            let actor_id = match &kind {
                EventKind::Message { to, .. } => *to,
                EventKind::Timer { actor, .. } => *actor,
            };
            // Split-borrow: the dispatched actor comes out of `self.actors`
            // while `Ctx` borrows `self.core` — disjoint fields, so handlers
            // schedule directly into the event queue with no intermediate
            // buffering (and no per-event take/put of the actor box).
            let mut ctx = Ctx {
                now: self.now,
                self_id: actor_id,
                core: &mut self.core,
            };
            let actor = &mut self.actors[actor_id];
            match kind {
                EventKind::Message { from, msg, .. } => match msg {
                    Msg::Packet(pkt) => actor.on_packet(&mut ctx, from, pkt),
                    Msg::Ctrl(b) => actor.on_message(&mut ctx, from, b),
                },
                EventKind::Timer { token, .. } => actor.on_timer(&mut ctx, token),
            }
            return true;
        }
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
                // Re-box the payload: the control lane requires `Send`
                // construction, which the received `Box<dyn Any>` erased.
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
    fn cancellable_timer_is_skipped_and_counted() {
        struct T {
            armed: Option<TimerId>,
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
                match *msg.downcast::<&'static str>().unwrap() {
                    "arm" => {
                        self.armed = Some(ctx.timer_cancellable(Dur::from_us(50), 7));
                        // A second, uncancelled timer proves only the
                        // cancelled one is suppressed.
                        ctx.timer(Dur::from_us(60), 8);
                    }
                    "cancel" => ctx.cancel_timer(self.armed.take().unwrap()),
                    _ => unreachable!(),
                }
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut e = Engine::new(1);
        let t = e.add_actor(Box::new(T {
            armed: None,
            fired: vec![],
        }));
        e.schedule_message(Time::ZERO, t, t, Box::new("arm"));
        e.schedule_message(Time::from_us(10), t, t, Box::new("cancel"));
        let end = e.run();
        assert_eq!(
            e.actor::<T>(t).fired,
            vec![8],
            "cancelled timer must not fire"
        );
        assert_eq!(e.counters().timers_cancelled, 1);
        // 2 messages + 1 surviving timer; the skipped pop is not processed.
        assert_eq!(e.events_processed(), 3);
        // Virtual time still advances through the cancelled slot to the
        // surviving timer.
        assert_eq!(end, Time::from_us(60));
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
        e.schedule_message(Time::ZERO, s, s, test_packet(11));
        e.schedule_message(Time::ZERO, s, s, Box::new(()));
        e.schedule_message(Time::from_us(1), s, s, test_packet(12));
        e.run();
        let sink = e.actor::<PktSink>(s);
        assert_eq!(sink.packets, vec![11, 12]);
        assert_eq!(sink.ctrl, 1);
    }

    #[test]
    #[should_panic(expected = "does not handle the packet lane")]
    fn packet_to_non_fabric_actor_panics() {
        let mut e = Engine::new(1);
        let a = e.add_actor(Box::new(Echo::new(Dur::ZERO, 1)));
        e.schedule_message(Time::ZERO, a, a, test_packet(0));
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
            timers_cancelled: 1,
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
            timers_cancelled: 0,
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
        assert_eq!(m.timers_cancelled, 1);
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

    /// Drives a seeded mix of stream sends, direct sends and cancellable
    /// timers from every event it handles. With `streams == None` each
    /// stream send becomes a direct `send_at` to the same actor at the same
    /// time.
    struct Script {
        streams: Option<Vec<StreamId>>,
        sinks: Vec<ActorId>,
        /// Latest time sent on each stream.
        tails: [Time; SCRIPT_STREAMS],
        /// Pending cancellable timers by token.
        armed: Vec<(u64, TimerId)>,
        budget: u32,
        next_tag: u64,
        /// Stream sends timed before their stream's latest send.
        early: u32,
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
                    let tail = self.tails[s];
                    let at = if tail > now && ctx.rng().gen_range(0..10u32) == 0 {
                        self.early += 1;
                        now + Dur::from_ns(ctx.rng().gen_range(0..(tail - now).as_ns()))
                    } else {
                        // A third of the steps are zero: same nanosecond.
                        let step = ctx.rng().gen_range(0..3u64) * ctx.rng().gen_range(0..20u64);
                        tail.max(now) + Dur::from_ns(step)
                    };
                    self.tails[s] = tail.max(at);
                    let to = self.sinks[s];
                    match &self.streams {
                        Some(ids) => ctx.send_stream(ids[s], to, Box::new(tag), at),
                        None => ctx.send_at(to, Box::new(tag), at),
                    }
                } else if roll < 80 {
                    let to = if roll < 70 {
                        ctx.self_id()
                    } else {
                        self.sinks[ctx.rng().gen_range(0..SCRIPT_STREAMS)]
                    };
                    let at = now + Dur::from_ns(ctx.rng().gen_range(0..3_000u64));
                    ctx.send_at(to, Box::new(tag), at);
                } else if roll < 92 || self.armed.is_empty() {
                    let delay = Dur::from_ns(ctx.rng().gen_range(0..4_000u64));
                    let id = ctx.timer_cancellable(delay, tag);
                    self.armed.push((tag, id));
                } else {
                    let i = ctx.rng().gen_range(0..self.armed.len());
                    let (_, id) = self.armed.swap_remove(i);
                    ctx.cancel_timer(id);
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
            self.armed.retain(|&(t, _)| t != token);
            self.act(ctx);
        }
    }

    fn log_dispatch(log: &DispatchLog, ctx: &Ctx<'_>, tag: u64) {
        log.lock().unwrap().push((ctx.now(), ctx.self_id(), tag));
    }

    /// Logs each delivery and pokes the script back.
    struct ScriptSink {
        script: ActorId,
        log: DispatchLog,
    }

    impl Actor for ScriptSink {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ActorId, msg: Box<dyn Any>) {
            use rand::Rng;
            let tag = *msg.downcast::<u64>().unwrap();
            log_dispatch(&self.log, ctx, tag);
            let delay = Dur::from_ns(ctx.rng().gen_range(1..500u64));
            ctx.send(self.script, Box::new(u64::MAX - tag), delay);
        }
    }

    /// Run the script to completion: `(dispatch log, counters, early sends)`.
    fn run_script(seed: u64, streams: bool) -> (Vec<(Time, ActorId, u64)>, EngineCounters, u32) {
        let log = DispatchLog::default();
        let mut e = Engine::new(seed);
        let script = e.add_actor(Box::new(Script {
            streams: None,
            sinks: Vec::new(),
            tails: [Time::ZERO; SCRIPT_STREAMS],
            armed: Vec::new(),
            budget: 6_000,
            next_tag: 0,
            early: 0,
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
        let ids = streams.then(|| (0..SCRIPT_STREAMS).map(|_| e.open_stream()).collect());
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
        let early = e.actor::<Script>(script).early;
        let log = std::mem::take(&mut *log.lock().unwrap());
        (log, e.counters(), early)
    }

    #[test]
    fn streams_dispatch_in_exactly_the_order_of_direct_sends() {
        for seed in [3, 17, 2024] {
            let (direct_log, direct, _) = run_script(seed, false);
            let (stream_log, streamed, early) = run_script(seed, true);
            assert!(
                direct_log.len() > 5_000,
                "script too short: {}",
                direct_log.len()
            );
            assert!(early > 200, "seed {seed}: only {early} early stream sends");
            assert!(
                direct.timers_cancelled > 0,
                "seed {seed}: no timer was cancelled"
            );
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
        }
    }

    #[test]
    fn msg_downcast_round_trips() {
        let m: Msg = Box::new(42u32).into();
        assert!(!m.is_packet());
        assert_eq!(*m.downcast::<u32>().unwrap(), 42);

        let m: Msg = test_packet(5).into();
        assert!(m.is_packet());
        let m = m.downcast::<u32>().unwrap_err(); // packets refuse downcast
        assert_eq!(m.into_packet().unwrap().psn, 5);
    }
}
