//! The pending-event set.
//!
//! [`EventQueue`] is a time-ordered priority queue of application-defined
//! events with a strictly deterministic total order: events fire in
//! increasing timestamp order, and events scheduled for the same instant fire
//! in the order they were scheduled (FIFO). Determinism is essential — every
//! experiment in this repository must be exactly reproducible from its seed.
//!
//! The queue owns the simulation clock: popping an event advances `now` to
//! the event's timestamp. Scheduling in the past is a logic error and panics.
//!
//! ## Implementation: hybrid calendar queue
//!
//! Simulated delays cluster tightly around the hardware constants (tens of
//! nanoseconds for links, routers and DRAM), so a comparison-based heap pays
//! `O(log n)` sift costs for what is nearly FIFO traffic. Instead the queue
//! keeps three tiers, ordered by distance from the clock:
//!
//! * **front** — every pending event in the *current* bucket (and any event
//!   scheduled at-or-before it), kept sorted by `(time, key)` in a
//!   `VecDeque`; `pop` is `O(1)` from the head and a same-instant
//!   `schedule` is a sorted insert near the tail.
//! * **ring** — `NUM_BUCKETS` unsorted buckets of `2^BUCKET_WIDTH_BITS`
//!   picoseconds each covering the near future; scheduling is an `O(1)`
//!   push plus an occupancy-bitmap update.
//! * **overflow** — a `BinaryHeap` for the far future beyond the ring
//!   horizon (timeouts, sampling probes).
//!
//! When `front` drains, *refill* advances the epoch straight to the earliest
//! non-empty bucket (bitmap scan / overflow peek), moves any same-bucket
//! overflow stragglers into that ring slot, and orders the slot's events
//! into `front` with one counting pass. Every event of the bucket shares
//! `time >> BUCKET_WIDTH_BITS`, so the time bits just below those name one
//! of `NUM_SUB_BUCKETS` sub-buckets of `2^SUB_WIDTH_BITS` ps (64 of about
//! 1 ns), and an event in a lower sub-bucket is strictly earlier than one
//! in a higher sub-bucket. The events are counted per sub-bucket, gathered
//! into `front` in sub-bucket order through a reused index scratch, and
//! each sub-bucket holding more than one event is sorted by `(time, key)`
//! in place. Sub-bucket order plus the order inside each sub-bucket is
//! exactly the bucket's `(time, key)` order, so the total order is
//! identical to the previous `BinaryHeap` implementation, which survives
//! as a `#[cfg(test)]` oracle driven against the calendar queue by seeded
//! differential tests (sequence-keyed, content-keyed, and dense buckets).
//!
//! A ring slot holds a buffer only while it is occupied. The slot whose
//! occupancy bit turns on takes the most recently freed buffer from a LIFO
//! spare stack, and refill pushes the emptied bucket back onto it, so
//! pushes land in memory the last refill touched, the queue keeps about as
//! many bucket buffers as it ever had occupied slots at once, and
//! steady-state traffic allocates nothing. Events are `Copy` because the
//! gather copies them out of the bucket by index.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Log2 of the bucket width in picoseconds: 2^16 ps ≈ 65.5 ns, on the order
/// of one router/link/DRAM hop, so near-future traffic lands a few buckets
/// ahead.
const BUCKET_WIDTH_BITS: u32 = 16;
/// Number of ring buckets; the ring horizon is `NUM_BUCKETS * 65.5 ns ≈
/// 16.8 us` ahead of the current bucket. Must be a multiple of 64 for the
/// occupancy bitmap.
const NUM_BUCKETS: usize = 256;
/// Occupancy bitmap words.
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;
/// Log2 of the width of the sub-buckets refill counts by: 2^10 ps ≈ 1 ns.
const SUB_WIDTH_BITS: u32 = 10;
/// Number of sub-buckets per bucket: the time bits between the sub-bucket
/// width and the bucket width.
const NUM_SUB_BUCKETS: usize = 1 << (BUCKET_WIDTH_BITS - SUB_WIDTH_BITS);

/// Overflow-heap entry: ordered by `(time, key)` ascending.
struct Entry<E> {
    at: SimTime,
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, key) pops first.
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Time-ordered pending-event set with a deterministic total order.
///
/// ```
/// use cohfree_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule(SimTime::ZERO + SimDuration::ns(10), "b");
/// q.schedule(SimTime::ZERO + SimDuration::ns(5), "a");
/// q.schedule(SimTime::ZERO + SimDuration::ns(10), "c"); // same instant as "b", after it
///
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::ZERO + SimDuration::ns(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// All pending events in bucket `epoch` or earlier, sorted ascending by
    /// `(at, key)`. Non-empty whenever `len > 0` (eager refill), so `pop`
    /// and `peek_time` never search the ring.
    front: VecDeque<(SimTime, u128, E)>,
    /// Near-future unsorted buckets; slot `b % NUM_BUCKETS` holds events
    /// whose bucket `b` lies in `(epoch, epoch + NUM_BUCKETS)`. An
    /// unoccupied slot holds an empty `Vec` with no buffer.
    ring: Box<[Vec<(SimTime, u128, E)>; NUM_BUCKETS]>,
    /// One bit per ring slot: set iff the slot is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Empty bucket buffers, the most recently freed on top.
    spare: Vec<Vec<(SimTime, u128, E)>>,
    /// Refill scratch: the refilled bucket's indices in sub-bucket order.
    order: Vec<usize>,
    /// Far-future events beyond the ring horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Absolute index of the bucket `front` currently covers.
    epoch: u64,
    len: usize,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.0 >> BUCKET_WIDTH_BITS
}

/// Sub-bucket of `at` within its bucket.
#[inline]
fn sub_bucket_of(at: SimTime) -> usize {
    (at.0 >> SUB_WIDTH_BITS) as usize % NUM_SUB_BUCKETS
}

// Refill marks the sub-buckets in use in one `u64`.
const _: () = assert!(NUM_SUB_BUCKETS <= 64);

/// The positions of the set bits of `mask`, lowest first.
#[inline]
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

impl<E: Copy> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            front: VecDeque::new(),
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; BITMAP_WORDS],
            spare: Vec::new(),
            order: Vec::new(),
            overflow: BinaryHeap::new(),
            epoch: 0,
            len: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule `event` at absolute instant `at`.
    ///
    /// Events scheduled this way are keyed by an internal monotone sequence
    /// counter, so same-instant events fire in FIFO order.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the engine never
    /// travels backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = self.seq as u128;
        self.seq += 1;
        self.schedule_keyed(at, key, event);
    }

    /// Schedule `event` at absolute instant `at` under an explicit ordering
    /// `key`: pending events fire in ascending `(at, key)` order.
    ///
    /// The world's executor derives a content-determined key for every
    /// event, so same-instant tie-breaks depend on what the events are, not
    /// on when they were scheduled. Keys must be unique per instant; the
    /// plain [`EventQueue::schedule`] path reserves the low range by
    /// spending its `u64` sequence counter as the key.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_keyed(&mut self, at: SimTime, key: u128, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} < now={now}",
            at = at,
            now = self.now
        );
        self.len += 1;
        if self.len == 1 {
            // Queue was empty: adopt this event's bucket as the epoch and
            // serve it straight from `front`.
            self.epoch = bucket_of(at);
            self.front.push_back((at, key, event));
            return;
        }
        let b = bucket_of(at);
        if b <= self.epoch {
            // Current (or earlier-than-epoch) bucket: sorted insert keeps
            // `front` the exact prefix of the global order. Sequence-keyed
            // events carry the largest key, so ties land after existing
            // same-instant events (FIFO) and the common "latest time" case
            // inserts at the tail in O(1).
            let idx = self.front.partition_point(|&(t, s, _)| (t, s) < (at, key));
            self.front.insert(idx, (at, key, event));
        } else if b - self.epoch < NUM_BUCKETS as u64 {
            self.push_ring((b % NUM_BUCKETS as u64) as usize, (at, key, event));
        } else {
            self.overflow.push(Entry { at, key, event });
        }
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front.front().map(|&(at, _, _)| at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(at, _, event)| (at, event))
    }

    /// [`EventQueue::pop`], but also returning the event's ordering key.
    /// Engines that derive scheduling keys from the currently executing
    /// event (same-instant causality chains) need the key in hand.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u128, E)> {
        let (at, key, event) = self.front.pop_front()?;
        debug_assert!(at >= self.now, "event queue clock regression");
        self.now = at;
        self.processed += 1;
        self.len -= 1;
        if self.front.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((at, key, event))
    }

    /// Append `entry` to ring slot `slot`. A slot whose occupancy bit turns
    /// on takes the most recently freed buffer from `spare`, or a new one.
    #[inline]
    fn push_ring(&mut self, slot: usize, entry: (SimTime, u128, E)) {
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.occupied[word] & bit == 0 {
            self.occupied[word] |= bit;
            debug_assert_eq!(self.ring[slot].capacity(), 0);
            self.ring[slot] = self.spare.pop().unwrap_or_default();
        }
        self.ring[slot].push(entry);
    }

    /// Advance `epoch` to the earliest non-empty bucket and make its events
    /// (ring slot plus any overflow stragglers in the same bucket) the new
    /// `front`, sorted by `(at, key)`: a counting pass by sub-bucket gathers
    /// them into `front`, and only each sub-bucket is sorted. The emptied
    /// bucket buffer goes onto the spare stack, leaving the slot without
    /// one. Called only when `front` is empty and events remain.
    #[cold]
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty() && self.len > 0);
        let e_slot = (self.epoch % NUM_BUCKETS as u64) as usize;
        let ring_bucket = self
            .next_occupied_slot((e_slot + 1) % NUM_BUCKETS)
            .map(|slot| {
                let delta = (slot + NUM_BUCKETS - e_slot) % NUM_BUCKETS;
                debug_assert!(delta > 0);
                self.epoch + delta as u64
            });
        let ovf_bucket = self.overflow.peek().map(|e| bucket_of(e.at));
        self.epoch = match (ring_bucket, ovf_bucket) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("refill with no pending events"),
        };
        let slot = (self.epoch % NUM_BUCKETS as u64) as usize;
        // Overflow may hold events inside the (advanced) ring window; they
        // are picked up bucket-by-bucket as the epoch reaches them.
        while self
            .overflow
            .peek()
            .is_some_and(|e| bucket_of(e.at) == self.epoch)
        {
            let Entry { at, key, event } = self.overflow.pop().expect("peeked");
            self.push_ring(slot, (at, key, event));
        }
        let mut bucket = std::mem::take(&mut self.ring[slot]);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        debug_assert!(!bucket.is_empty());
        debug_assert!(bucket.iter().all(|e| bucket_of(e.0) == self.epoch));

        // Every event shares the bucket, so sub-bucket order is time order
        // between sub-buckets. Count per sub-bucket, turn the counts into
        // start positions, place each index at its sub-bucket's next free
        // position (leaving each entry at its sub-bucket's end), and
        // gather. The loops visit only the sub-buckets set in `used`, not
        // all 64.
        let mut ends = [0usize; NUM_SUB_BUCKETS];
        let mut used = 0u64;
        for e in &bucket {
            let sub = sub_bucket_of(e.0);
            ends[sub] += 1;
            used |= 1 << sub;
        }
        let mut start = 0;
        for sub in set_bits(used) {
            let count = ends[sub];
            ends[sub] = start;
            start += count;
        }
        self.order.resize(bucket.len(), 0);
        for (i, e) in bucket.iter().enumerate() {
            let end = &mut ends[sub_bucket_of(e.0)];
            self.order[*end] = i;
            *end += 1;
        }
        // `clear` rewinds the empty deque to the start of its buffer, so
        // `make_contiguous` finds the gathered run in place.
        self.front.clear();
        self.front.extend(self.order.iter().map(|&i| bucket[i]));
        let run = self.front.make_contiguous();
        let mut start = 0;
        for sub in set_bits(used) {
            let end = ends[sub];
            if end - start > 1 {
                run[start..end].sort_unstable_by_key(|e| (e.0, e.1));
            }
            start = end;
        }
        bucket.clear();
        self.spare.push(bucket);
    }

    /// First occupied ring slot in circular order starting at `start`, or
    /// `None` if the ring is empty. Word-at-a-time bitmap scan.
    #[inline]
    fn next_occupied_slot(&self, start: usize) -> Option<usize> {
        let (sw, sb) = (start / 64, start % 64);
        let w = self.occupied[sw] & (u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        for k in 1..BITMAP_WORDS {
            let wi = (sw + k) % BITMAP_WORDS;
            let w = self.occupied[wi];
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        // Wrapped around to the start word: check the bits below `start`.
        let w = self.occupied[sw] & !(u64::MAX << sb);
        if w != 0 {
            return Some(sw * 64 + w.trailing_zeros() as usize);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::SimDuration;

    /// Width of one calendar bucket in picoseconds.
    const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_WIDTH_BITS;

    /// The previous `BinaryHeap`-only implementation, kept verbatim as the
    /// ordering oracle for the differential test below.
    struct OracleQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        now: SimTime,
        seq: u64,
        processed: u64,
    }

    impl<E> OracleQueue<E> {
        fn new() -> Self {
            OracleQueue {
                heap: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
                processed: 0,
            }
        }
        fn schedule(&mut self, at: SimTime, event: E) {
            let key = self.seq as u128;
            self.seq += 1;
            self.schedule_keyed(at, key, event);
        }
        fn schedule_keyed(&mut self, at: SimTime, key: u128, event: E) {
            assert!(at >= self.now);
            self.heap.push(Entry { at, key, event });
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            self.processed += 1;
            Some((entry.at, entry.event))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), 3u32);
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime(42), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_and_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(5), ());
        q.schedule(SimTime(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(5));
        q.pop();
        assert_eq!(q.now(), SimTime(9));
        assert_eq!(q.processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), 1u8);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime(7), 1)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.now(), SimTime(7));
    }

    #[test]
    fn events_cross_the_ring_horizon_in_order() {
        // One event per bucket-sized stride far past the ring horizon, plus
        // near-future fillers, interleaved: order must still be global.
        let mut q = EventQueue::new();
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        q.schedule(SimTime(3 * horizon), 30u64);
        q.schedule(SimTime(7), 1);
        q.schedule(SimTime(horizon + 5), 20);
        q.schedule(SimTime(BUCKET_WIDTH_PS + 1), 2);
        q.schedule(SimTime(3 * horizon), 31); // same far instant, FIFO
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 20, 30, 31]);
        assert_eq!(q.now(), SimTime(3 * horizon));
    }

    #[test]
    fn keyed_scheduling_orders_by_key_within_an_instant() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime(50), 7, "c");
        q.schedule_keyed(SimTime(50), 2, "a");
        q.schedule_keyed(SimTime(10), u128::MAX, "first");
        q.schedule_keyed(SimTime(50), 3, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["first", "a", "b", "c"]);
        assert_eq!(q.peek_time(), None);
    }

    /// The differential net: ~1M seeded random schedule/pop
    /// interleavings against the `BinaryHeap` oracle, with heavy
    /// same-instant collisions and far-future outliers crossing the bucket
    /// horizon. Pop sequences, clock values and processed counts must match
    /// exactly.
    #[test]
    fn differential_against_binary_heap_oracle() {
        differential(0xC0FFEE, false);
    }

    /// The same net with the keys the world uses: `schedule_keyed` under
    /// random u128 keys, unique per instant but not monotone in insertion
    /// order, so the refill sort and the sorted same-bucket insert into
    /// `front` decide every tie.
    #[test]
    fn keyed_differential_against_binary_heap_oracle() {
        differential(0x5EED_CAFE, true);
    }

    /// The calendar queue and the oracle driven in lockstep.
    struct Lockstep {
        q: EventQueue<u64>,
        o: OracleQueue<u64>,
        rng: Rng,
        /// Schedule under a random high word above each event's unique id;
        /// otherwise under the queues' own sequence counters.
        keyed: bool,
        next_id: u64,
    }

    impl Lockstep {
        fn new(seed: u64, keyed: bool) -> Self {
            Lockstep {
                q: EventQueue::new(),
                o: OracleQueue::new(),
                rng: Rng::new(seed),
                keyed,
                next_id: 0,
            }
        }

        fn schedule(&mut self, at: SimTime) {
            let id = self.next_id;
            if self.keyed {
                let key = (u128::from(self.rng.next_u64()) << 64) | u128::from(id);
                self.q.schedule_keyed(at, key, id);
                self.o.schedule_keyed(at, key, id);
            } else {
                self.q.schedule(at, id);
                self.o.schedule(at, id);
            }
            self.next_id += 1;
        }

        /// Pop both queues and check that they agree.
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let got = self.q.pop();
            assert_eq!(got, self.o.pop(), "pop diverged after id {}", self.next_id);
            assert_eq!(self.q.now(), self.o.now, "clock diverged");
            assert_eq!(self.q.len(), self.o.heap.len());
            got
        }

        /// Pop both queues until they are empty.
        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.q.processed(), self.o.processed);
        }
    }

    /// Drive both queues through one seeded interleaving.
    fn differential(seed: u64, keyed: bool) {
        let mut ls = Lockstep::new(seed, keyed);
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        for _ in 0..1_000_000 {
            // 55%: schedule with a tier-stressing delay distribution.
            if ls.rng.below(100) < 55 {
                let delay = match ls.rng.below(10) {
                    // Same instant — collides with everything pending now.
                    0..=2 => 0,
                    // Within the current bucket.
                    3..=4 => ls.rng.below(BUCKET_WIDTH_PS),
                    // Near future: a few buckets out.
                    5..=7 => ls.rng.below(BUCKET_WIDTH_PS * 8),
                    // Across the ring — lands near the horizon edge.
                    8 => horizon - BUCKET_WIDTH_PS * 2 + ls.rng.below(BUCKET_WIDTH_PS * 4),
                    // Far-future outlier, deep in the overflow tier.
                    _ => horizon * (1 + ls.rng.below(4)) + ls.rng.below(horizon),
                };
                ls.schedule(ls.q.now() + SimDuration(delay));
            } else {
                // 45%: pop and compare.
                ls.pop();
            }
        }
        // Drain what's left; sequences must stay identical to the end.
        ls.drain();
        assert!(ls.q.processed() > 300_000, "pop arm under-exercised");
    }

    /// Dense buckets against the oracle. Each round fills one bucket with
    /// 10 to 19 events per sub-bucket (about 900 in all), scheduled in
    /// random order on four instants per sub-bucket under random u128
    /// keys, so exact-time ties are common and only the per-sub-bucket
    /// sorts can order them. Stragglers scheduled while the bucket lay
    /// beyond the ring horizon join it at refill, and pops interleave with
    /// schedules into the current and the next buckets.
    #[test]
    fn dense_bucket_differential_against_binary_heap_oracle() {
        const STRAGGLERS: usize = 32;
        let mut ls = Lockstep::new(0xDE45E, true);
        // One of four instants in sub-bucket `sub` of bucket `b`.
        let instant = |rng: &mut Rng, b: u64, sub: u64| {
            SimTime(b * BUCKET_WIDTH_PS + (sub << SUB_WIDTH_BITS) + rng.below(4) * 251)
        };
        for _ in 0..40 {
            // The first event adopts its bucket as the epoch.
            let epoch = bucket_of(ls.q.now()) + 1;
            ls.schedule(SimTime(epoch * BUCKET_WIDTH_PS));
            ls.schedule(SimTime((epoch + 100) * BUCKET_WIDTH_PS));
            let dense = epoch + NUM_BUCKETS as u64 + 44;
            for _ in 0..STRAGGLERS {
                let sub = ls.rng.below(NUM_SUB_BUCKETS as u64);
                let at = instant(&mut ls.rng, dense, sub);
                ls.schedule(at);
            }
            assert_eq!(ls.q.overflow.len(), STRAGGLERS);
            // Refill moves the epoch 100 buckets on: the dense bucket is
            // inside the ring now.
            ls.pop();
            let mut times = Vec::new();
            for sub in 0..NUM_SUB_BUCKETS as u64 {
                for _ in 0..10 + ls.rng.below(10) {
                    times.push(instant(&mut ls.rng, dense, sub));
                }
            }
            ls.rng.shuffle(&mut times);
            for &at in &times {
                ls.schedule(at);
            }
            // The next refill makes the dense bucket `front`, stragglers
            // included.
            ls.pop();
            assert_eq!(ls.q.front.len(), times.len() + STRAGGLERS);
            assert!(ls.q.overflow.is_empty());
            while ls.pop().is_some() {
                let now = ls.q.now().0;
                match ls.rng.below(10) {
                    0..=1 => {
                        let rest = BUCKET_WIDTH_PS - now % BUCKET_WIDTH_PS;
                        let at = SimTime(now + ls.rng.below(rest));
                        ls.schedule(at);
                    }
                    2 => {
                        let sub = ls.rng.below(NUM_SUB_BUCKETS as u64);
                        let at = instant(&mut ls.rng, bucket_of(SimTime(now)) + 1, sub);
                        ls.schedule(at);
                    }
                    _ => {}
                }
            }
        }
        ls.drain();
        assert!(ls.q.processed() > 40 * 900);
    }

    /// A ring slot holds a buffer only while it is occupied: with at most
    /// three slots occupied at once, the ring and the spare stack together
    /// hold at most three buffers however many buckets go by.
    #[test]
    fn only_occupied_slots_hold_bucket_buffers() {
        let mut rng = Rng::new(0xB0F);
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..16 {
            q.schedule(SimTime(rng.below(3 * BUCKET_WIDTH_PS)), i);
        }
        // Every event lands in the clock's bucket or one of the three after
        // it, so at most three slots beyond the epoch are occupied.
        while bucket_of(q.now()) < 10_000 {
            let (at, id) = q.pop().expect("traffic keeps flowing");
            q.schedule(at + SimDuration(rng.below(3 * BUCKET_WIDTH_PS)), id);
            let occupied: u32 = q.occupied.iter().map(|w| w.count_ones()).sum();
            assert!(occupied <= 3);
            let held = q.ring.iter().chain(&q.spare).filter(|b| b.capacity() > 0);
            assert!(held.count() <= 3, "bucket buffers pile up by {at}");
        }
    }
}
