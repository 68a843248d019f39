//! Seeded randomized tests for the DES engine primitives.
//!
//! The build is fully offline, so instead of an external property-testing
//! framework these tests drive the same invariants with the crate's own
//! deterministic [`Rng`]: every case is reproducible from the loop seed.

use cohfree_sim::stats::LatencyHistogram;
use cohfree_sim::{EventQueue, FifoServer, Rng, SimDuration, SimTime};

const CASES: u64 = 64;

/// Events pop in nondecreasing time order, FIFO within a timestamp.
#[test]
fn event_queue_total_order() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xE0_0000 + seed);
        let count = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..count).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            assert_eq!(at, SimTime(times[idx]), "seed {seed}");
            if let Some((lt, lidx)) = last {
                assert!(at >= lt, "seed {seed}: time went backwards");
                if at == lt {
                    assert!(idx > lidx, "seed {seed}: same-instant FIFO violated");
                }
            }
            last = Some((at, idx));
        }
        assert_eq!(q.processed(), times.len() as u64);
    }
}

/// FIFO server: departures are strictly ordered by acceptance order, never
/// earlier than arrival + service, and total busy time is the sum of
/// services.
#[test]
fn fifo_server_conservation() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xF1F0 + seed);
        let count = rng.range(1, 100) as usize;
        let mut arrivals: Vec<(SimTime, SimDuration)> = (0..count)
            .map(|_| (SimTime(rng.below(10_000)), SimDuration(rng.range(1, 500))))
            .collect();
        arrivals.sort_by_key(|&(a, _)| a);
        let mut s = FifoServer::new();
        let mut prev_depart = SimTime::ZERO;
        let mut total_service = 0u64;
        for &(arrive, service) in &arrivals {
            let depart = s.accept(arrive, service);
            assert!(
                depart >= arrive + service,
                "seed {seed}: service shortchanged"
            );
            assert!(depart >= prev_depart, "seed {seed}: FIFO order violated");
            prev_depart = depart;
            total_service += service.as_ps();
        }
        // Work conservation: the server is never busy longer than the span
        // from first arrival to last departure.
        let first_arrival = arrivals[0].0;
        assert!(
            SimDuration(total_service) <= prev_depart.since(first_arrival),
            "seed {seed}: busy longer than the schedule allows"
        );
    }
}

/// Lemire sampling stays in range for arbitrary bounds.
#[test]
fn rng_below_in_range() {
    for seed in 0..CASES {
        let mut meta = Rng::new(0x5EED + seed);
        let bound = meta.range(1, u64::MAX);
        let mut rng = Rng::new(meta.next_u64());
        for _ in 0..50 {
            assert!(rng.below(bound) < bound, "seed {seed}, bound {bound}");
        }
    }
}

/// range() respects both endpoints.
#[test]
fn rng_range_in_range() {
    for seed in 0..CASES {
        let mut meta = Rng::new(0x7A46E + seed);
        let lo = meta.below(1_000_000);
        let span = meta.range(1, 1_000_000);
        let mut rng = Rng::new(meta.next_u64());
        for _ in 0..50 {
            let v = rng.range(lo, lo + span);
            assert!(v >= lo && v < lo + span, "seed {seed}");
        }
    }
}

/// Histogram quantiles are monotone in q and bounded by the max.
#[test]
fn histogram_quantiles_monotone() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x415706 + seed);
        let count = rng.range(1, 200) as usize;
        let ns: Vec<u64> = (0..count).map(|_| rng.range(1, 1_000_000)).collect();
        let mut h = LatencyHistogram::new();
        for &v in &ns {
            h.record(SimDuration::ns(v));
        }
        let mut prev = 0.0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile_ns(q);
            assert!(v >= prev, "seed {seed}: quantiles must be monotone");
            prev = v;
        }
        // Log-bucket quantiles can overshoot the true max by < 2x.
        let max = *ns.iter().max().unwrap() as f64;
        assert!(prev <= max * 2.0 + 2.0, "seed {seed}");
    }
}
