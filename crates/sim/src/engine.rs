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
//! * **ring** — `NUM_BUCKETS` FIFO buckets of `2^BUCKET_WIDTH_BITS`
//!   picoseconds each covering the near future; scheduling is an `O(1)`
//!   push plus an occupancy-bitmap update.
//! * **overflow** — a `BinaryHeap` for the far future beyond the ring
//!   horizon (timeouts, sampling probes).
//!
//! When `front` drains, *refill* advances the epoch straight to the earliest
//! non-empty bucket (bitmap scan / overflow peek), takes that ring slot's
//! `Vec`, appends any same-bucket overflow stragglers, sorts it in place
//! and installs it as the new `front` in O(1) — restoring the exact
//! `(time, key)` order a global heap would have produced. The spent, empty
//! `front` buffer becomes the slot's `Vec`, so bucket buffers circulate and
//! steady-state traffic allocates nothing. The total order is therefore
//! identical to the previous `BinaryHeap` implementation, which survives as
//! a `#[cfg(test)]` oracle driven against the calendar queue by seeded
//! differential tests (sequence-keyed and content-keyed).

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
    /// Near-future FIFO buckets; slot `b % NUM_BUCKETS` holds events whose
    /// bucket `b` lies in `(epoch, epoch + NUM_BUCKETS)`.
    ring: Box<[Vec<(SimTime, u128, E)>; NUM_BUCKETS]>,
    /// One bit per ring slot: set iff the slot is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Far-future events beyond the ring horizon.
    overflow: BinaryHeap<Entry<E>>,
    /// Absolute index of the bucket `front` currently covers.
    epoch: u64,
    len: usize,
    now: SimTime,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.0 >> BUCKET_WIDTH_BITS
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            front: VecDeque::new(),
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; BITMAP_WORDS],
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
            let slot = (b % NUM_BUCKETS as u64) as usize;
            self.ring[slot].push((at, key, event));
            self.occupied[slot / 64] |= 1 << (slot % 64);
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

    /// Drain and drop all pending events without advancing the clock.
    /// The sequence counter keeps counting, so ordering guarantees span
    /// a clear.
    pub fn clear(&mut self) {
        self.front.clear();
        let mut remaining = self.occupied;
        for (w, word) in remaining.iter_mut().enumerate() {
            while *word != 0 {
                let slot = w * 64 + word.trailing_zeros() as usize;
                self.ring[slot].clear();
                *word &= *word - 1;
            }
        }
        self.occupied = [0; BITMAP_WORDS];
        self.overflow.clear();
        self.len = 0;
    }

    /// Advance `epoch` to the earliest non-empty bucket and make its events
    /// (ring slot plus any overflow stragglers in the same bucket) the new
    /// `front`, sorted by `(at, key)`. The slot's `Vec` is sorted in place
    /// and becomes `front` without copying; the spent, empty `front` buffer
    /// goes back to the slot, so buffers circulate and nothing allocates.
    /// Called only when `front` is empty and events remain.
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
        // An unoccupied slot holds an empty (possibly pre-grown) buffer.
        let mut bucket = std::mem::take(&mut self.ring[slot]);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        debug_assert!(bucket.iter().all(|e| bucket_of(e.0) == self.epoch));
        // Overflow may hold events inside the (advanced) ring window; they
        // are picked up bucket-by-bucket as the epoch reaches them.
        while self
            .overflow
            .peek()
            .is_some_and(|e| bucket_of(e.at) == self.epoch)
        {
            let Entry { at, key, event } = self.overflow.pop().expect("peeked");
            bucket.push((at, key, event));
        }
        bucket.sort_unstable_by_key(|e| (e.0, e.1));
        debug_assert!(!bucket.is_empty());
        // Both conversions are O(1): `VecDeque::from(Vec)` adopts the
        // buffer, and the spent `front` is empty, so nothing moves back.
        let spent = std::mem::replace(&mut self.front, VecDeque::from(bucket));
        self.ring[slot] = Vec::from(spent);
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
        fn clear(&mut self) {
            self.heap.clear();
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
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
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
    fn clear_keeps_clock_and_sequence_counter() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), 0u32);
        q.schedule(SimTime(BUCKET_WIDTH_PS * 500), 1); // overflow tier
        q.schedule(SimTime(BUCKET_WIDTH_PS * 2), 2); // ring tier
        assert_eq!(q.pop(), Some((SimTime(100), 0)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        // The clock does not rewind, and scheduling before it still panics.
        assert_eq!(q.now(), SimTime(100));
        assert_eq!(q.processed(), 1);
        // FIFO ordering spans the clear: the sequence counter keeps
        // counting, so a pre-clear tie-breaker can never outrank a
        // post-clear event at the same instant.
        q.schedule(SimTime(200), 10);
        q.schedule(SimTime(200), 11);
        assert_eq!(q.pop(), Some((SimTime(200), 10)));
        assert_eq!(q.pop(), Some((SimTime(200), 11)));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn clear_then_reschedule_in_an_earlier_bucket_works() {
        // After a far-future-only population the epoch sits far ahead;
        // clearing and scheduling near-past-the-clock must still serve the
        // new event first.
        let mut q = EventQueue::new();
        q.schedule(SimTime(BUCKET_WIDTH_PS * 1000), 1u32);
        q.clear();
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(BUCKET_WIDTH_PS * 1000), 3);
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        assert_eq!(q.pop(), Some((SimTime(BUCKET_WIDTH_PS * 1000), 3)));
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

    /// The differential net: ~1M seeded random schedule/pop/clear
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

    /// Drive both queues through one seeded interleaving. With `keyed`,
    /// every event is scheduled under a random high word above its unique
    /// id; otherwise under the queues' own sequence counters.
    fn differential(seed: u64, keyed: bool) {
        let mut rng = Rng::new(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut o: OracleQueue<u64> = OracleQueue::new();
        let mut next_id = 0u64;
        let horizon = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        let mut ops = 0u64;
        while ops < 1_000_000 {
            match rng.below(100) {
                // 55%: schedule with a tier-stressing delay distribution.
                0..=54 => {
                    let delay = match rng.below(10) {
                        // Same instant — collides with everything pending now.
                        0..=2 => 0,
                        // Within the current bucket.
                        3..=4 => rng.below(BUCKET_WIDTH_PS),
                        // Near future: a few buckets out.
                        5..=7 => rng.below(BUCKET_WIDTH_PS * 8),
                        // Across the ring — lands near the horizon edge.
                        8 => horizon - BUCKET_WIDTH_PS * 2 + rng.below(BUCKET_WIDTH_PS * 4),
                        // Far-future outlier, deep in the overflow tier.
                        _ => horizon * (1 + rng.below(4)) + rng.below(horizon),
                    };
                    let at = q.now() + SimDuration(delay);
                    if keyed {
                        let key = (u128::from(rng.next_u64()) << 64) | u128::from(next_id);
                        q.schedule_keyed(at, key, next_id);
                        o.schedule_keyed(at, key, next_id);
                    } else {
                        q.schedule(at, next_id);
                        o.schedule(at, next_id);
                    }
                    next_id += 1;
                }
                // 44%: pop and compare.
                55..=98 => {
                    let got = q.pop();
                    let want = o.pop();
                    assert_eq!(got, want, "pop diverged after {ops} ops");
                    assert_eq!(q.now(), o.now, "clock diverged after {ops} ops");
                }
                // 1%: clear both.
                _ => {
                    q.clear();
                    o.clear();
                    assert!(q.is_empty());
                    assert_eq!(q.peek_time(), None);
                }
            }
            assert_eq!(q.len(), o.heap.len());
            ops += 1;
        }
        // Drain what's left; sequences must stay identical to the end.
        loop {
            let got = q.pop();
            let want = o.pop();
            assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
        assert_eq!(q.processed(), o.processed);
        assert_eq!(q.now(), o.now);
        assert!(q.processed() > 300_000, "pop arm under-exercised");
    }
}
