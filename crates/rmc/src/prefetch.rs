//! Sequential stream prefetcher (the paper's "future work" extension).
//!
//! The conclusions of the paper name prefetching as the path to closing the
//! gap to local memory. This module implements a classic multi-stream
//! next-N-lines prefetcher that would sit in the client RMC:
//!
//! * it watches the demand-miss address stream,
//! * when it sees two consecutive ascending line accesses it establishes a
//!   *stream* and issues prefetches for the next four lines,
//! * prefetched lines land in a small fully-associative buffer of
//!   [`BUFFER_LINES`] lines; a demand access that hits the buffer completes
//!   at buffer latency once the line is ready, instead of paying the
//!   remote round trip.
//!
//! It tracks four streams at once. These sizes are constants; the line
//! size is the cache's, given at construction. The state machine only
//! *decides*; the owning backend issues the actual fabric transactions and
//! calls [`Prefetcher::fill`] with the instant each line becomes usable.
//! The buffer is the one record of prefetched lines: an issued line is in
//! it, with its ready instant, until a demand access uses it or a newer
//! line evicts it.

use cohfree_sim::stats::Counter;
use cohfree_sim::SimTime;
use std::collections::VecDeque;

/// Consecutive ascending accesses required to establish a stream.
const TRAIN_THRESHOLD: u32 = 2;

/// Lines fetched ahead once a stream is established.
const DEGREE: u64 = 4;

/// Capacity of the prefetch buffer in lines.
pub const BUFFER_LINES: usize = 32;

/// Independent streams tracked.
const STREAMS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last line address observed in this stream.
    last_line: u64,
    /// Ascending hits observed so far.
    run: u32,
    /// Next line this stream would prefetch.
    next_prefetch: u64,
}

/// What the prefetcher decided about one demand access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The instant the demand line becomes usable, if the prefetch buffer
    /// held it.
    pub hit: Option<SimTime>,
    /// Line addresses the backend should prefetch now.
    pub issue: Vec<u64>,
}

/// Multi-stream sequential prefetcher state.
#[derive(Debug)]
pub struct Prefetcher {
    /// Cache-line size in bytes (the cache's in front).
    line_bytes: u64,
    streams: Vec<Stream>,
    /// FIFO of prefetched lines with the instant each becomes usable.
    buffer: VecDeque<(u64, SimTime)>,
    hits: Counter,
    issued: Counter,
    useless_evictions: Counter,
}

impl Prefetcher {
    /// A prefetcher for a cache of `line_bytes` lines.
    ///
    /// # Panics
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(line_bytes: u64) -> Prefetcher {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Prefetcher {
            line_bytes,
            streams: Vec::with_capacity(STREAMS),
            buffer: VecDeque::with_capacity(BUFFER_LINES),
            hits: Counter::new(),
            issued: Counter::new(),
            useless_evictions: Counter::new(),
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Observe a demand access to `addr`; returns the hit/issue decision.
    pub fn access(&mut self, addr: u64) -> Decision {
        let line = self.line_of(addr);
        let hit = self.buffer.iter().position(|&(l, _)| l == line).map(|pos| {
            self.hits.inc();
            self.buffer.remove(pos).expect("position is in range").1
        });

        let mut issue = Vec::new();
        let lb = self.line_bytes;
        // Train streams on the demand line.
        if let Some(si) = self
            .streams
            .iter()
            .position(|s| line == s.last_line + lb || line == s.last_line)
        {
            let s = &mut self.streams[si];
            if line == s.last_line + lb {
                s.run += 1;
                s.last_line = line;
                if s.run >= TRAIN_THRESHOLD {
                    // Established: fetch ahead up to `DEGREE` lines.
                    let horizon = line + lb * DEGREE;
                    let mut next = s.next_prefetch.max(line + lb);
                    while next <= horizon {
                        issue.push(next);
                        next += lb;
                    }
                    s.next_prefetch = next;
                }
            }
            // `line == last_line` (same-line re-access): no state change.
        } else {
            // New candidate stream; evict the stalest tracked stream.
            if self.streams.len() == STREAMS {
                self.streams.remove(0);
            }
            self.streams.push(Stream {
                last_line: line,
                run: 1,
                next_prefetch: line + lb,
            });
        }

        // Never issue a line the buffer already holds.
        issue.retain(|&l| !self.buffer.iter().any(|&(b, _)| b == l));
        self.issued.add(issue.len() as u64);
        Decision { hit, issue }
    }

    /// Place the issued prefetch of `line`, usable from `ready`, in the
    /// buffer (evicting the oldest line if full).
    pub fn fill(&mut self, line: u64, ready: SimTime) {
        if self.buffer.len() == BUFFER_LINES {
            self.buffer.pop_front();
            self.useless_evictions.inc();
        }
        self.buffer.push_back((line, ready));
    }

    /// Demand accesses satisfied by the buffer.
    pub fn buffer_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Prefetch transactions issued.
    pub fn issued(&self) -> u64 {
        self.issued.get()
    }

    /// Prefetched lines evicted without ever being used.
    pub fn useless_evictions(&self) -> u64 {
        self.useless_evictions.get()
    }

    /// Fraction of issued prefetches that were consumed by demand hits.
    pub fn accuracy(&self) -> f64 {
        if self.issued.get() == 0 {
            0.0
        } else {
            self.hits.get() as f64 / self.issued.get() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> Prefetcher {
        Prefetcher::new(64)
    }

    #[test]
    fn random_accesses_issue_nothing() {
        let mut p = pf();
        let mut rng = cohfree_sim::Rng::new(1);
        for _ in 0..100 {
            let d = p.access(rng.below(1 << 30) & !63);
            assert!(d.issue.is_empty(), "random stream must not train");
            assert_eq!(d.hit, None);
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let mut p = pf();
        assert!(p.access(0).issue.is_empty()); // first touch
        let d = p.access(64); // run = 2 = threshold -> prefetch ahead
        assert_eq!(d.issue, vec![128, 192, 256, 320]);
    }

    #[test]
    fn buffer_hits_after_fill() {
        let mut p = pf();
        p.access(0);
        let d = p.access(64);
        for (i, l) in d.issue.into_iter().enumerate() {
            p.fill(l, SimTime::ZERO + cohfree_sim::SimDuration::ns(i as u64));
        }
        let d = p.access(128);
        assert_eq!(
            d.hit,
            Some(SimTime::ZERO),
            "the first line issued is ready first"
        );
        assert_eq!(p.buffer_hits(), 1);
        assert!(p.accuracy() > 0.0);
    }

    #[test]
    fn no_duplicate_issues_for_pending_lines() {
        let mut p = pf();
        p.access(0);
        let first = p.access(64);
        assert!(!first.issue.is_empty());
        // Continue the stream before any issued line is filled; issued
        // lines must not repeat.
        let second = p.access(128);
        for l in &second.issue {
            assert!(!first.issue.contains(l), "line {l} issued twice");
        }
    }

    #[test]
    fn buffer_capacity_bounded_with_fifo_eviction() {
        let mut p = pf();
        for i in 0..=BUFFER_LINES as u64 {
            p.fill(i * 64, SimTime::ZERO); // the last fill evicts line 0
        }
        assert_eq!(p.useless_evictions(), 1);
        assert_eq!(p.access(0).hit, None);
        assert_eq!(p.access(64).hit, Some(SimTime::ZERO));
    }

    #[test]
    fn tracks_multiple_streams() {
        let mut p = pf();
        // Interleave two sequential streams at distant bases.
        let base_a = 0u64;
        let base_b = 1 << 20;
        p.access(base_a);
        p.access(base_b);
        let da = p.access(base_a + 64);
        let db = p.access(base_b + 64);
        assert!(!da.issue.is_empty(), "stream A should train");
        assert!(!db.issue.is_empty(), "stream B should train");
    }

    #[test]
    fn stream_eviction_is_fifo_by_recency() {
        let mut p = pf();
        for k in 0..=STREAMS as u64 {
            p.access(k << 20); // the last new stream evicts the first
        }
        // Continuing the first stream must restart training (one access
        // gives run=1 < threshold, so no issue).
        let d = p.access(64);
        assert!(d.issue.is_empty());
    }

    #[test]
    fn same_line_reaccess_does_not_advance_stream() {
        let mut p = pf();
        p.access(0);
        p.access(0);
        p.access(0);
        let d = p.access(64);
        // run reaches threshold on the first ascending step.
        assert!(!d.issue.is_empty());
    }
}
