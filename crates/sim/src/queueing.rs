//! Analytic queueing primitives.
//!
//! Many contended resources in the model — DRAM controllers, the RMC
//! front-end, fabric links — are well described as single servers with FIFO
//! discipline and deterministic per-item service times. [`FifoServer`]
//! computes departure times in O(1) without materializing queue entries,
//! while tracking utilization statistics.

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO queue with deterministic service times.
///
/// `accept(now, service)` returns the instant the item's service *completes*,
/// assuming the item arrives at `now`, waits for all previously accepted items
/// and is then served for `service`. The server is work-conserving.
///
/// ```
/// use cohfree_sim::{FifoServer, SimDuration, SimTime};
/// let mut s = FifoServer::new();
/// let t0 = SimTime::ZERO;
/// // Empty server: departure = arrival + service.
/// assert_eq!(s.accept(t0, SimDuration::ns(10)), t0 + SimDuration::ns(10));
/// // Second arrival at the same instant queues behind the first.
/// assert_eq!(s.accept(t0, SimDuration::ns(10)), t0 + SimDuration::ns(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    /// Instant the server finishes its last accepted item.
    busy_until: SimTime,
    /// Total service time accepted (for utilization accounting).
    busy_time: SimDuration,
    /// Items accepted.
    accepted: u64,
    /// Cumulative queueing delay experienced by accepted items.
    total_wait: SimDuration,
    /// Maximum instantaneous backlog observed, expressed as time-to-drain.
    max_backlog: SimDuration,
}

impl FifoServer {
    /// A new idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept an item arriving at `now` requiring `service`; returns its
    /// departure (service-completion) instant.
    pub fn accept(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        let wait = start.since(now.min(start));
        let depart = start + service;
        self.busy_until = depart;
        self.busy_time += service;
        self.accepted += 1;
        self.total_wait += wait;
        let backlog = depart.since(now);
        if backlog > self.max_backlog {
            self.max_backlog = backlog;
        }
        depart
    }

    /// Time-to-drain of the current backlog as seen at `now` (zero if idle).
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Items accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Mean queueing delay (excluding service) over accepted items.
    pub fn mean_wait(&self) -> SimDuration {
        SimDuration(
            self.total_wait
                .as_ps()
                .checked_div(self.accepted)
                .unwrap_or(0),
        )
    }

    /// Largest time-to-drain backlog observed at any acceptance.
    pub fn max_backlog(&self) -> SimDuration {
        self.max_backlog
    }

    /// Fraction of `[0, horizon]` the server spent serving (can exceed 1.0 if
    /// the backlog extends past the horizon — i.e. offered load > capacity).
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.busy_time.as_ps() as f64 / horizon.as_ps() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimDuration::ns(ns)
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FifoServer::new();
        assert_eq!(s.backlog(t(0)), SimDuration::ZERO);
        let d = s.accept(t(5), SimDuration::ns(10));
        assert_eq!(d, t(15));
        assert_eq!(s.mean_wait(), SimDuration::ZERO);
    }

    #[test]
    fn back_to_back_arrivals_queue() {
        let mut s = FifoServer::new();
        let d1 = s.accept(t(0), SimDuration::ns(10));
        let d2 = s.accept(t(0), SimDuration::ns(10));
        let d3 = s.accept(t(0), SimDuration::ns(10));
        assert_eq!((d1, d2, d3), (t(10), t(20), t(30)));
        // Waits: 0, 10, 20 -> mean 10.
        assert_eq!(s.mean_wait(), SimDuration::ns(10));
        assert_eq!(s.max_backlog(), SimDuration::ns(30));
    }

    #[test]
    fn idle_gap_resets_wait() {
        let mut s = FifoServer::new();
        s.accept(t(0), SimDuration::ns(10));
        let d = s.accept(t(100), SimDuration::ns(10));
        assert_eq!(d, t(110));
        assert_eq!(s.backlog(t(100)), SimDuration::ns(10));
        assert_eq!(s.backlog(t(200)), SimDuration::ZERO);
    }

    #[test]
    fn utilization_accounts_service_only() {
        let mut s = FifoServer::new();
        s.accept(t(0), SimDuration::ns(10));
        s.accept(t(50), SimDuration::ns(10));
        let u = s.utilization(t(100));
        assert!((u - 0.2).abs() < 1e-12, "{u}");
    }
}
