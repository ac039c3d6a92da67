//! The calendar event queue backing [`crate::engine::Engine`].
//!
//! A discrete-event simulation pops its queue once per event, so the queue's
//! constant factor is a direct tax on every simulated packet. A binary heap
//! pays `O(log n)` sift work per operation *and* bounces around the heap
//! array; a **calendar queue** (Brown, CACM 1988) instead hashes each event
//! by time into a circular array of buckets and pops by walking the current
//! bucket — `O(1)` amortized when the bucket width matches the event-time
//! density.
//!
//! ## Exactness
//!
//! Determinism is a hard requirement here (see the crate docs): the pop order
//! must be **bit-identical** to the binary heap it replaces. Two properties
//! make that free:
//!
//! * Every key's `(time, seq)` packed `u128` is unique — sequence numbers
//!   come from a monotone counter — so *any* exact priority queue pops the
//!   same order.
//! * Anything the bucket array cannot place exactly — events beyond the
//!   current bucket horizon (long-RTO retransmit timers), or events scheduled
//!   behind an already-advanced cursor — detours into an **exact fallback
//!   heap** that is merged with the bucket walk by full-key comparison on
//!   every pop. The fallback is never approximated away; it is counted in
//!   [`EngineCounters::cal_fallback_hits`].
//!
//! ## Tuning
//!
//! Bucket width and count are picked per run from a short warmup probe: the
//! queue runs as a plain binary heap for the first [`WARMUP_POPS`] pops,
//! measures the mean inter-pop virtual-time gap and its own queue-length
//! high-water mark (the same signal [`EngineCounters::peak_queue_len`]
//! reports), then migrates to buckets of width ≈ mean gap with a few
//! buckets per peak resident event.
//! Graduation also requires a resident population deep enough for buckets to
//! beat a shallow in-cache heap ([`CAL_MIN_PEAK`]); stream-style runs with a
//! couple dozen resident events stay on the heap, while the thousands-deep
//! collective and PFS figures migrate. Degenerate distributions (all events
//! at one instant) stay on the heap forever. The warmup is driven entirely
//! by virtual time and pop counts, so the layout decision — like everything
//! else here — is deterministic.

use crate::engine::{EngineCounters, HeapKey, OCCUPANCY_BUCKETS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pops observed (as a heap) before committing to a bucket layout: long
/// enough to see steady state, short enough to be free.
const WARMUP_POPS: u64 = 4096;
/// Resident-population floor for graduating to buckets. A shallow queue is
/// the heap's home turf — at `peak < 256` a sift is ≤ 8 comparisons in one
/// or two cache lines, while every calendar pop pays cursor advance, bucket
/// scan, and sort bookkeeping regardless of depth (measured: +35% on
/// fig5a's ~20-resident stream points). Buckets only amortize once the
/// population is at least the smallest bucket array (`MIN_BUCKETS`), i.e.
/// ≈ 1 resident event per bucket; the deep collective/PFS figures run
/// thousands deep and cross this easily. The check keeps running after the
/// warmup window, so a run that deepens late still graduates.
const CAL_MIN_PEAK: usize = MIN_BUCKETS;
/// Bucket-count bounds: enough buckets that steady state rarely collides,
/// capped so an idle sim does not hold megabytes of empty vectors.
const MIN_BUCKETS: usize = 256;
const MAX_BUCKETS: usize = 1 << 16;
/// Bucket width ceiling (ns). Wider than any sane event spacing; keeps the
/// horizon arithmetic far from `u64` overflow.
const MAX_WIDTH_NS: u64 = 1 << 40;
/// Largest buffer an emptied bucket keeps once the cursor moves off it. A
/// burst can grow one bucket to tens of thousands of keys; without a bound
/// every bucket would hold the largest capacity it ever reached until the
/// run ends, which for the deep all-to-all figures is tens of megabytes for
/// a queue a few thousand keys deep.
const KEEP_BUCKET_CAPACITY: usize = 64;

/// Exact event queue: binary-heap warmup, calendar steady state.
pub(crate) struct EventQueue {
    mode: Mode,
    len: usize,
}

enum Mode {
    Heap(Warmup),
    Calendar(Calendar),
}

/// The warmup probe: a plain binary heap plus the two density signals the
/// bucket layout is derived from.
struct Warmup {
    heap: BinaryHeap<Reverse<HeapKey>>,
    pops: u64,
    first_ns: u64,
    last_ns: u64,
    peak: usize,
    /// Set when the probe saw a degenerate (zero-span) distribution: stay a
    /// heap forever rather than hash everything into one bucket.
    frozen: bool,
}

impl Warmup {
    fn new() -> Self {
        Warmup {
            heap: BinaryHeap::new(),
            pops: 0,
            first_ns: 0,
            last_ns: 0,
            peak: 0,
            frozen: false,
        }
    }

    fn observe(&mut self, at_ns: u64) {
        if self.pops == 0 {
            self.first_ns = at_ns;
        }
        self.last_ns = at_ns;
        self.pops += 1;
    }
}

struct Calendar {
    /// Circular bucket array; bucket `i` holds keys with
    /// `(t / width) & mask == i`. Buckets are unsorted except the cursor
    /// bucket, which is sorted descending (min at the tail) when the cursor
    /// first reaches it and then kept sorted: a push into it is inserted at
    /// its place by binary search instead of appended and re-sorted.
    buckets: Vec<Vec<HeapKey>>,
    /// One bit per bucket; lets the cursor skip runs of empty buckets a
    /// word at a time.
    occ: Vec<u64>,
    mask: usize,
    width: u64,
    /// Index of the bucket the cursor is parked on.
    cursor: usize,
    /// Low time edge (ns) of the cursor bucket; always a multiple of
    /// `width`. The horizon covers `[cursor_start, cursor_start + n*width)`.
    cursor_start: u64,
    /// The cursor bucket is in descending order. Starts clear, so the keys a
    /// graduating heap migrates in are appended and sorted once by the
    /// first pop; cleared again only by a reseed, which parks the cursor on
    /// an unsorted bucket.
    cursor_sorted: bool,
    /// Keys in `buckets` (the fallback heap holds `EventQueue::len` minus
    /// this many).
    bucket_items: usize,
    /// Exact fallback: beyond-horizon and behind-cursor keys, merged with
    /// the bucket walk by full-key comparison on every pop.
    overflow: BinaryHeap<Reverse<HeapKey>>,
}

impl Calendar {
    fn new(width: u64, nbuckets: usize, start_ns: u64) -> Self {
        debug_assert!(width >= 1 && nbuckets.is_power_of_two());
        let mut cal = Calendar {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            occ: vec![0u64; nbuckets.div_ceil(64)],
            mask: nbuckets - 1,
            width,
            cursor: 0,
            cursor_start: 0,
            cursor_sorted: false,
            bucket_items: 0,
            overflow: BinaryHeap::new(),
        };
        cal.park(start_ns);
        cal
    }

    /// Park the cursor on the bucket containing `at_ns`.
    fn park(&mut self, at_ns: u64) {
        let slot = at_ns / self.width;
        self.cursor_start = slot * self.width;
        self.cursor = (slot as usize) & self.mask;
    }

    fn horizon_end(&self) -> u64 {
        self.cursor_start
            .saturating_add(self.width.saturating_mul(self.buckets.len() as u64))
    }

    fn push(&mut self, key: HeapKey) {
        let t = key.at().as_ns();
        if t < self.cursor_start || t >= self.horizon_end() {
            self.overflow.push(Reverse(key));
            return;
        }
        let idx = ((t / self.width) as usize) & self.mask;
        let b = &mut self.buckets[idx];
        if idx == self.cursor && self.cursor_sorted {
            // Keep the sorted cursor bucket sorted: a re-sort would pay a
            // full O(k log k) for one key. Near-term keys land near the
            // tail, so the shift is short.
            let at = b.partition_point(|k| *k > key);
            b.insert(at, key);
        } else {
            b.push(key);
        }
        self.occ[idx >> 6] |= 1 << (idx & 63);
        self.bucket_items += 1;
    }

    /// First occupied bucket at or after `from` in rotation order (rotation
    /// order is time order within one horizon), or `None` when every bucket
    /// is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if self.bucket_items == 0 {
            return None;
        }
        let words = self.occ.len();
        let mut wi = from >> 6;
        let mut w = self.occ[wi] & (!0u64 << (from & 63));
        // `words + 1` iterations: the starting word is revisited once with
        // its full mask to cover bits behind `from` after the wrap.
        for _ in 0..=words {
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi == words {
                wi = 0;
            }
            w = self.occ[wi];
        }
        None
    }

    /// Re-seed the epoch from the fallback minimum: park the cursor on its
    /// bucket and pull every fallback key inside the new horizon into the
    /// bucket array. Called only when the bucket array is empty, so the
    /// fallback minimum is the global minimum and nothing can land behind
    /// the new cursor.
    fn reseed(&mut self) {
        let t0 = match self.overflow.peek() {
            Some(Reverse(k)) => k.at().as_ns(),
            None => return,
        };
        self.release_cursor_bucket();
        self.park(t0);
        let horizon = self.horizon_end();
        while let Some(Reverse(k)) = self.overflow.peek() {
            if k.at().as_ns() >= horizon {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked above");
            let t = k.at().as_ns();
            let idx = ((t / self.width) as usize) & self.mask;
            self.buckets[idx].push(k);
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.bucket_items += 1;
        }
        self.cursor_sorted = false;
    }

    /// Advance the cursor to the next non-empty bucket (re-seeding from the
    /// fallback if the array is empty) and sort it. After this, either the
    /// cursor bucket holds the bucket-array minimum at its tail, or both the
    /// array and fallback are empty.
    fn prepare(&mut self, counters: &mut EngineCounters) {
        if self.bucket_items == 0 {
            if self.overflow.is_empty() {
                return;
            }
            self.reseed();
        }
        if self.buckets[self.cursor].is_empty() {
            self.release_cursor_bucket();
            let idx = self.next_occupied(self.cursor).expect("bucket_items > 0");
            let n = self.buckets.len();
            let steps = (idx + n - self.cursor) & self.mask;
            self.cursor_start += self.width * steps as u64;
            self.cursor = idx;
            self.sort_cursor(counters, true);
        } else if !self.cursor_sorted {
            self.sort_cursor(counters, false);
        }
    }

    /// The cursor is about to move off its bucket, which is empty: drop the
    /// bucket's buffer if a burst grew it past [`KEEP_BUCKET_CAPACITY`].
    fn release_cursor_bucket(&mut self) {
        let b = &mut self.buckets[self.cursor];
        debug_assert!(b.is_empty(), "released a bucket that still holds keys");
        if b.capacity() > KEEP_BUCKET_CAPACITY {
            *b = Vec::new();
        }
    }

    /// Sort the cursor bucket descending so `pop()` is `Vec::pop`. `record`
    /// is set when the cursor advances onto a bucket, not when it sorts the
    /// bucket it was parked on (after graduation or a reseed), so the
    /// occupancy histogram counts each visited bucket once.
    fn sort_cursor(&mut self, counters: &mut EngineCounters, record: bool) {
        let b = &mut self.buckets[self.cursor];
        if record {
            let len = b.len() as u64;
            if len > 0 {
                let bucket = (63 - len.leading_zeros() as usize).min(OCCUPANCY_BUCKETS - 1);
                counters.cal_bucket_occupancy[bucket] += 1;
            }
        }
        b.sort_unstable_by(|x, y| y.cmp(x));
        self.cursor_sorted = true;
    }

    /// Pop the minimum: the cursor bucket's tail or the fallback top,
    /// whichever key is smaller.
    fn pop(&mut self, counters: &mut EngineCounters) -> Option<HeapKey> {
        self.prepare(counters);
        let use_fallback = match (self.buckets[self.cursor].last(), self.overflow.peek()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(b), Some(Reverse(o))) => o < b,
        };
        Some(if use_fallback {
            counters.cal_fallback_hits += 1;
            let Reverse(k) = self.overflow.pop().expect("peeked above");
            k
        } else {
            let k = self.buckets[self.cursor].pop().expect("peeked above");
            self.bucket_items -= 1;
            if self.buckets[self.cursor].is_empty() {
                self.occ[self.cursor >> 6] &= !(1 << (self.cursor & 63));
            }
            k
        })
    }
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            mode: Mode::Heap(Warmup::new()),
            len: 0,
        }
    }

    /// A queue pinned to a given calendar layout from the start (no warmup)
    /// — the property tests drive this against a reference heap.
    #[cfg(test)]
    pub(crate) fn with_calendar(width: u64, nbuckets: usize) -> Self {
        EventQueue {
            mode: Mode::Calendar(Calendar::new(width, nbuckets, 0)),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn push(&mut self, key: HeapKey) {
        self.len += 1;
        match &mut self.mode {
            Mode::Heap(w) => {
                w.heap.push(Reverse(key));
                if self.len > w.peak {
                    w.peak = self.len;
                }
            }
            Mode::Calendar(c) => c.push(key),
        }
    }

    /// Pop the global minimum.
    pub(crate) fn pop(&mut self, counters: &mut EngineCounters) -> Option<HeapKey> {
        let popped = match &mut self.mode {
            Mode::Heap(w) => w.heap.pop().map(|Reverse(key)| {
                w.observe(key.at().as_ns());
                key
            }),
            Mode::Calendar(c) => c.pop(counters),
        };
        if popped.is_some() {
            self.len -= 1;
            self.maybe_graduate();
        }
        popped
    }

    /// After each warmup pop: once the probe window closes, derive the bucket
    /// layout from the observed density and migrate the heap's remainder.
    /// Every remaining key is ≥ the last popped time (heap property), so the
    /// cursor parks there.
    fn maybe_graduate(&mut self) {
        let Mode::Heap(w) = &mut self.mode else {
            return;
        };
        if w.frozen || w.pops < WARMUP_POPS {
            return;
        }
        if w.peak < CAL_MIN_PEAK {
            // Too shallow for buckets to pay — stay a heap, but keep
            // watching: a run that deepens later still graduates (the gap
            // estimate then spans the whole observed history).
            return;
        }
        let mean_gap = (w.last_ns - w.first_ns) / (w.pops - 1);
        if mean_gap == 0 {
            w.frozen = true;
            return;
        }
        let width = mean_gap.min(MAX_WIDTH_NS);
        let nbuckets = (w.peak * 2)
            .clamp(MIN_BUCKETS, MAX_BUCKETS)
            .next_power_of_two();
        let mut cal = Calendar::new(width, nbuckets, w.last_ns);
        for Reverse(key) in std::mem::take(&mut w.heap) {
            cal.push(key);
        }
        self.mode = Mode::Calendar(cal);
    }

    /// True once the warmup probe has committed to a bucket layout.
    #[cfg(test)]
    pub(crate) fn is_calendar(&self) -> bool {
        matches!(self.mode, Mode::Calendar(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn key(at_ns: u64, seq: u64, idx: u32) -> HeapKey {
        HeapKey::new(Time::from_ns(at_ns), seq, idx)
    }

    /// The cursor bucket of a forced-calendar queue: its epoch
    /// `[start, end)`, whether it is sorted, and its minimum time.
    fn cursor_bucket(q: &EventQueue) -> (u64, u64, bool, Option<u64>) {
        let Mode::Calendar(c) = &q.mode else {
            unreachable!("forced-calendar queue")
        };
        let min = c.buckets[c.cursor].iter().min().map(|k| k.at().as_ns());
        (
            c.cursor_start,
            c.cursor_start + c.width,
            c.cursor_sorted,
            min,
        )
    }

    /// Drive the same randomized insert/pop workload — duplicate timestamps
    /// with distinct seqs, upper-half arrival seqs, past-cursor and
    /// beyond-horizon times — through a forced-calendar queue and a plain
    /// binary heap; the pop sequences must be identical, element for
    /// element. `cursor_pct` percent of the pushes aim inside the cursor
    /// bucket's current epoch, the in-place insert path: ties with the last
    /// pop and with the bucket's minimum, and times before and after that
    /// minimum. Returns how many pushes landed in a sorted cursor bucket.
    fn check_against_heap(
        seed: u64,
        width: u64,
        nbuckets: usize,
        ops: usize,
        cursor_pct: u32,
    ) -> usize {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cal = EventQueue::with_calendar(width, nbuckets);
        let mut heap: BinaryHeap<Reverse<HeapKey>> = BinaryHeap::new();
        let mut counters = EngineCounters::default();
        let mut seq = 0u64;
        let mut idx = 0u32;
        let mut last_pop_ns = 0u64;
        let mut inserts = 0;

        for _ in 0..ops {
            if rng.gen_range(0..100u32) < 55 || heap.is_empty() {
                let (start, end, sorted, min) = cursor_bucket(&cal);
                let t = if rng.gen_range(0..100u32) < cursor_pct {
                    // Nothing queued is older than the last pop, so the
                    // epoch's live part starts there.
                    let lo = last_pop_ns.clamp(start, end - 1);
                    let min = min.unwrap_or(lo);
                    match rng.gen_range(0..5u32) {
                        0 => lo,                         // tie with the last pop
                        1 => min,                        // tie with the bucket minimum
                        2 => rng.gen_range(lo..min + 1), // at or before the minimum
                        _ => rng.gen_range(min..end),    // at or after the minimum
                    }
                } else {
                    // Mostly future times near the cursor; occasionally far
                    // beyond the horizon (timers) or dead on a previous pop
                    // time (zero-delay self-sends).
                    match rng.gen_range(0..10u32) {
                        0 => last_pop_ns,                               // same-instant tie, seq breaks it
                        1 => last_pop_ns + width * nbuckets as u64 * 4, // far future
                        _ => last_pop_ns + rng.gen_range(0..width * 16),
                    }
                };
                if sorted && (start..end).contains(&t) {
                    inserts += 1;
                }
                // Arrival keys live in the upper half of the seq space.
                let s = if rng.gen_range(0..5u32) == 0 {
                    (1 << 63) | (7u64 << 40) | seq
                } else {
                    seq
                };
                seq += 1;
                idx += 1;
                cal.push(key(t, s, idx));
                heap.push(Reverse(key(t, s, idx)));
            } else {
                let got = cal.pop(&mut counters).expect("model non-empty");
                let Reverse(want) = heap.pop().expect("model non-empty");
                assert_eq!(got, want, "pop order diverged from the heap");
                assert_eq!(got.idx, want.idx, "payload index diverged");
                last_pop_ns = got.at().as_ns();
            }
            assert_eq!(cal.len(), heap.len());
        }
        // Drain: every remaining element must come out in heap order.
        while let Some(Reverse(want)) = heap.pop() {
            let got = cal.pop(&mut counters).expect("drain length mismatch");
            assert_eq!(got, want, "drain order diverged from the heap");
        }
        assert!(cal.pop(&mut counters).is_none());
        inserts
    }

    /// Run every seed twice: with the push mix above alone, and with most
    /// pushes aimed inside the cursor bucket's epoch.
    fn check_layout(seeds: std::ops::Range<u64>, width: u64, nbuckets: usize, ops: usize) {
        for seed in seeds {
            check_against_heap(seed, width, nbuckets, ops, 0);
            let inserts = check_against_heap(seed, width, nbuckets, ops, 80);
            assert!(
                inserts > ops / 4,
                "seed {seed}: only {inserts} pushes landed in a sorted cursor bucket"
            );
        }
    }

    #[test]
    fn calendar_matches_heap_on_randomized_workloads() {
        check_layout(0..8, 64, 256, 4000);
    }

    #[test]
    fn calendar_matches_heap_with_tiny_buckets() {
        // Width 1 with few buckets forces constant horizon overflow — the
        // exact-fallback path carries most of the load and must stay exact.
        check_layout(0..4, 1, 64, 2000);
    }

    #[test]
    fn calendar_matches_heap_with_huge_buckets() {
        // Everything collapses into one or two buckets: the in-bucket order
        // carries the ordering.
        check_layout(100..104, 1 << 20, 256, 2000);
    }

    #[test]
    fn pushes_into_the_sorted_cursor_bucket_keep_it_sorted() {
        let mut q = EventQueue::with_calendar(1000, 64);
        let mut counters = EngineCounters::default();
        for (i, t) in [500, 100, 900, 300].into_iter().enumerate() {
            q.push(key(t, i as u64, i as u32));
        }
        // The first pop reaches bucket 0 and sorts it.
        assert_eq!(q.pop(&mut counters).unwrap().at(), Time::from_ns(100));
        let arrival = (1 << 63) | (7u64 << 40);
        q.push(key(200, 4, 4)); // before the minimum
        q.push(key(300, 5, 5)); // tie with the minimum, later seq
        q.push(key(300, arrival, 6)); // tie, upper-half arrival seq
        q.push(key(600, 7, 7)); // between two keys
        q.push(key(999, 8, 8)); // after the maximum, last ns of the epoch
        let Mode::Calendar(c) = &q.mode else {
            unreachable!("forced-calendar queue")
        };
        assert!(c.cursor_sorted, "a push into the epoch unsorted the bucket");
        let b = &c.buckets[c.cursor];
        assert_eq!(b.len(), 8);
        assert!(
            b.windows(2).all(|w| w[0] > w[1]),
            "cursor bucket not strictly descending: {b:?}"
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop(&mut counters))
            .map(|k| k.idx)
            .collect();
        assert_eq!(order, [4, 3, 5, 6, 0, 7, 2, 8]);
    }

    #[test]
    fn drained_burst_buckets_give_their_buffers_back() {
        let mut q = EventQueue::with_calendar(1000, 64);
        let mut counters = EngineCounters::default();
        // A burst of 5,000 keys into one epoch, then one key three epochs
        // later, so the drain moves the cursor off the burst's bucket.
        let burst = 5_000u32;
        for i in 0..burst {
            q.push(key(200 + (i as u64 * 7) % 800, i as u64, i));
        }
        q.push(key(3_500, burst as u64, burst));
        let Mode::Calendar(c) = &q.mode else {
            unreachable!("forced-calendar queue")
        };
        assert!(c.buckets[0].capacity() >= burst as usize);
        for _ in 0..=burst {
            q.pop(&mut counters).expect("pushed above");
        }
        assert_eq!(q.len(), 0);
        let Mode::Calendar(c) = &q.mode else {
            unreachable!("forced-calendar queue")
        };
        let kept = c.buckets.iter().map(Vec::capacity).max().unwrap();
        assert!(
            kept <= KEEP_BUCKET_CAPACITY,
            "an emptied bucket kept a {kept}-key buffer"
        );
    }

    #[test]
    fn warmup_graduates_to_calendar_and_stays_exact() {
        let mut q = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<HeapKey>> = BinaryHeap::new();
        let mut counters = EngineCounters::default();
        let mut rng = SmallRng::seed_from_u64(9);
        // Interleave pushes and pops well past the warmup threshold.
        let mut seq = 0u64;
        let mut t = 0u64;
        for round in 0..(WARMUP_POPS + 2000) {
            for _ in 0..2 {
                t += rng.gen_range(0..100u64);
                q.push(key(t, seq, seq as u32));
                heap.push(Reverse(key(t, seq, seq as u32)));
                seq += 1;
            }
            let got = q.pop(&mut counters).expect("pushed two, popped one");
            let Reverse(want) = heap.pop().unwrap();
            assert_eq!(got, want, "diverged at round {round}");
        }
        assert!(q.is_calendar(), "warmup should have graduated");
        assert!(
            counters.cal_bucket_occupancy.iter().sum::<u64>() > 0,
            "calendar pops must populate the occupancy histogram"
        );
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(q.pop(&mut counters), Some(want));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn degenerate_distribution_stays_on_the_heap() {
        let mut q = EventQueue::new();
        let mut counters = EngineCounters::default();
        for i in 0..(WARMUP_POPS + 10) {
            q.push(key(5, i, i as u32));
        }
        for _ in 0..(WARMUP_POPS + 10) {
            q.pop(&mut counters).unwrap();
        }
        assert!(
            !q.is_calendar(),
            "zero-span warmup must freeze in heap mode"
        );
    }

    #[test]
    fn fallback_hits_are_counted() {
        let mut q = EventQueue::with_calendar(8, 64);
        let mut counters = EngineCounters::default();
        // One key parked in-horizon, one far beyond it.
        q.push(key(10, 0, 0));
        let far = 8 * 64 * 10;
        q.push(key(far, 1, 1));
        assert_eq!(q.pop(&mut counters).unwrap().at(), Time::from_ns(10));
        // The far key is re-seeded into buckets when the array empties, so
        // it pops from a bucket, not the fallback.
        assert_eq!(q.pop(&mut counters).unwrap().at(), Time::from_ns(far));
        assert_eq!(counters.cal_fallback_hits, 0);
        // A key pushed *behind* the cursor must detour through the fallback.
        q.push(key(far + 100, 2, 2));
        q.push(key(5, 3, 3));
        assert_eq!(q.pop(&mut counters).unwrap().at(), Time::from_ns(5));
        assert_eq!(counters.cal_fallback_hits, 1);
    }
}
