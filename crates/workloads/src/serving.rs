//! Open-loop multi-tenant serving workload generator (EXT-SERVING).
//!
//! Production serving traffic is *open loop*: requests arrive on their own
//! clock whether or not earlier requests finished, so a slow or faulted
//! cluster builds queues instead of politely slowing the offered load — the
//! regime where p99.9 and availability numbers mean something. This module
//! folds millions of simulated users into deterministic per-tenant arrival
//! streams (superposed Poisson processes, optionally diurnally modulated by
//! Lewis thinning) and installs multi-tenant request mixes into a
//! [`World`]:
//!
//! * **Point KV/DB mix** — small reads/writes at Zipf-popular addresses in
//!   a remote-memory working set, the hash/B-tree index regime of the
//!   paper's Figs. 9–10 recast as a served workload.
//! * **Columnar-scan mix** — large sequential remote reads, the
//!   Arrow-style zero-copy analytics regime over cluster shared memory.
//!
//! Arrivals are pre-generated from a seed and handed to
//! [`World::spawn_serving_thread`], so every run replays the same stream
//! byte-identically; request outcomes are conserved
//! (`generated == completed + shed + failed`, [`Tenant::conserved`]) even
//! through crash-storm fault plans.

use cohfree_core::{AccessPattern, NodeId, Rng, Sample, SimDuration, SimTime, ThreadSpec, World};
use cohfree_sim::stats::LatencyHistogram;

/// Diurnal load modulation: a raised-cosine envelope over one period,
/// dipping to `trough` × peak at phase 0 and returning to the peak rate at
/// half period. Arrivals are thinned against this envelope (Lewis
/// thinning), which keeps the stream an exact nonhomogeneous Poisson
/// process and stays deterministic under the stream's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Length of one full trough→peak→trough cycle.
    pub period: SimDuration,
    /// Rate at the trough as a fraction of the peak rate, in `(0, 1]`.
    pub trough: f64,
}

impl DiurnalProfile {
    /// Envelope value (acceptance probability) at offset `t` from the
    /// stream start, in `[trough, 1]`.
    pub fn envelope(&self, t: SimDuration) -> f64 {
        assert!(
            self.trough > 0.0 && self.trough <= 1.0,
            "trough must be in (0, 1]"
        );
        let phase = (t.as_ns_f64() / self.period.as_ns_f64()).fract();
        let wave = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
        self.trough + (1.0 - self.trough) * wave
    }
}

/// A seeded arrival process for one tenant: `users` independent Poisson
/// sources of `rate_per_user_hz` each, superposed into one aggregate
/// Poisson stream (superposition is exact, so millions of users cost
/// nothing), optionally modulated by a [`DiurnalProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSpec {
    /// Simulated user population behind this tenant.
    pub users: u64,
    /// Peak request rate per user, in requests per second.
    pub rate_per_user_hz: f64,
    /// Optional diurnal modulation (None = homogeneous Poisson).
    pub diurnal: Option<DiurnalProfile>,
    /// PRNG seed; identical seeds yield identical streams.
    pub seed: u64,
}

impl ArrivalSpec {
    /// Aggregate peak arrival rate in requests per second.
    pub fn aggregate_rate_hz(&self) -> f64 {
        self.users as f64 * self.rate_per_user_hz
    }

    /// Generate the first `count` arrival instants after `start`, sorted.
    ///
    /// Candidates are drawn at the aggregate peak rate; with a diurnal
    /// profile each candidate at offset `t` survives with probability
    /// `envelope(t)` (Lewis thinning), yielding arrival rate
    /// `peak × envelope(t)`.
    pub fn arrivals(&self, start: SimTime, count: u64) -> Vec<SimTime> {
        let rate = self.aggregate_rate_hz();
        assert!(rate > 0.0, "arrival rate must be positive");
        let mut rng = Rng::new(self.seed);
        let mut out = Vec::with_capacity(count as usize);
        let mut t = start;
        while (out.len() as u64) < count {
            // `exponential(rate_hz)` yields seconds; the clock is ps.
            let dt_sec = rng.exponential(rate);
            t += SimDuration::ps(((dt_sec * 1e12).round() as u64).max(1));
            match self.diurnal {
                Some(d) if !rng.chance(d.envelope(t.since(start))) => continue,
                _ => out.push(t),
            }
        }
        out
    }
}

/// The request shape a tenant issues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestMix {
    /// KV/DB point accesses: small requests at Zipf-popular addresses
    /// (exponent `zipf_s`, rank 0 hottest) across the tenant's zones.
    PointKv {
        /// Zipf popularity exponent over the working-set slots.
        zipf_s: f64,
        /// Bytes moved per point access (key+value).
        value_bytes: u32,
    },
    /// Arrow-style zero-copy columnar scan: large sequential remote reads
    /// walking the tenant's zones end-to-end, wrapping.
    ColumnarScan {
        /// Bytes per scan chunk request.
        chunk_bytes: u32,
    },
}

impl RequestMix {
    /// Bytes moved per request.
    pub fn bytes(&self) -> u32 {
        match *self {
            RequestMix::PointKv { value_bytes, .. } => value_bytes,
            RequestMix::ColumnarScan { chunk_bytes } => chunk_bytes,
        }
    }

    /// The address pattern installed on the serving threads.
    pub fn pattern(&self) -> AccessPattern {
        match *self {
            RequestMix::PointKv { zipf_s, .. } => AccessPattern::Zipf(zipf_s),
            RequestMix::ColumnarScan { .. } => AccessPattern::Sequential,
        }
    }
}

/// One tenant of the serving cluster: a client node, a remote-memory
/// working set leased from donor nodes, and an open-loop request stream
/// split across `lanes` serving threads.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (report rows, trace labels).
    pub name: String,
    /// Client node the tenant's serving threads run on. Give each tenant
    /// its own client node: per-node completion samples then double as
    /// per-tenant availability series.
    pub client: NodeId,
    /// Donor nodes lending working-set frames, one zone each.
    pub donors: Vec<NodeId>,
    /// Frames (4 KiB) leased from each donor.
    pub frames_per_donor: u64,
    /// Serving threads; arrivals are dealt round-robin across lanes, so
    /// each lane sees an ordered thinned substream.
    pub lanes: usize,
    /// Total requests to generate for this tenant.
    pub requests: u64,
    /// Request shape.
    pub mix: RequestMix,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Per-request CPU cost on the serving thread.
    pub think: SimDuration,
    /// Stream start instant.
    pub start: SimTime,
}

impl TenantSpec {
    /// Reserve the working set, generate the arrival stream and spawn the
    /// serving lanes. Must run before `World::run`.
    pub fn install(&self, world: &mut World) -> Tenant {
        assert!(self.lanes > 0, "tenant needs at least one lane");
        assert!(self.requests > 0, "tenant needs at least one request");
        assert!(!self.donors.is_empty(), "tenant needs at least one donor");
        let mut zones = Vec::with_capacity(self.donors.len());
        for &donor in &self.donors {
            let resv = world.reserve_remote(self.client, self.frames_per_donor, Some(donor));
            zones.push((resv.prefixed_base, resv.frames * 4096));
        }
        let all = self.arrivals.arrivals(self.start, self.requests);
        let mut threads = Vec::with_capacity(self.lanes);
        for lane in 0..self.lanes {
            let lane_arrivals: Vec<SimTime> =
                all.iter().copied().skip(lane).step_by(self.lanes).collect();
            if lane_arrivals.is_empty() {
                continue; // fewer requests than lanes
            }
            threads.push(
                world.spawn_serving_thread(
                    ThreadSpec {
                        node: self.client,
                        zones: zones.clone(),
                        accesses: lane_arrivals.len() as u64,
                        bytes: self.mix.bytes(),
                        write_fraction: self.write_fraction,
                        think: self.think,
                        seed: self
                            .arrivals
                            .seed
                            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1)),
                    },
                    lane_arrivals,
                    self.mix.pattern(),
                ),
            );
        }
        Tenant {
            name: self.name.clone(),
            node: self.client,
            threads,
            generated: self.requests,
        }
    }
}

/// Install every tenant into the world, in order.
pub fn install(world: &mut World, tenants: &[TenantSpec]) -> Vec<Tenant> {
    tenants.iter().map(|t| t.install(world)).collect()
}

/// A tenant installed into a [`World`]: read-side handle for per-tenant
/// accounting after (or during) the run.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name, copied from the spec.
    pub name: String,
    /// Client node the tenant runs on.
    pub node: NodeId,
    /// Serving-thread ids, one per non-empty lane.
    pub threads: Vec<usize>,
    /// Requests generated for this tenant.
    pub generated: u64,
}

impl Tenant {
    /// Requests completed successfully across all lanes.
    pub fn completed(&self, w: &World) -> u64 {
        self.threads.iter().map(|&i| w.thread_completed(i)).sum()
    }

    /// Requests dropped by admission control across all lanes.
    pub fn shed(&self, w: &World) -> u64 {
        self.threads.iter().map(|&i| w.thread_shed(i)).sum()
    }

    /// Requests that exhausted their retry budget (or died with a crashed
    /// client) across all lanes.
    pub fn failed(&self, w: &World) -> u64 {
        self.threads.iter().map(|&i| w.thread_failed(i)).sum()
    }

    /// Conservation oracle: every generated request ended exactly one of
    /// completed / shed / failed.
    pub fn conserved(&self, w: &World) -> bool {
        self.completed(w) + self.shed(w) + self.failed(w) == self.generated
    }

    /// Merged end-to-end (arrival→completion) latency histogram across all
    /// lanes. Count equals [`Tenant::completed`].
    pub fn latency(&self, w: &World) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &i in &self.threads {
            if let Some(lane) = w.thread_latency(i) {
                h.merge(lane);
            }
        }
        h
    }

    /// Availability over the tenant's progress window: the fraction of
    /// sample intervals, between the first and last interval in which this
    /// tenant's node completed anything, that completed anything. Requires
    /// `World::enable_sampling`; mirrors the EXT-CHAOS definition but per
    /// tenant (the drain tail past the final completion is backoff-timer
    /// housekeeping, not unavailability).
    pub fn availability(&self, w: &World) -> f64 {
        let samples = w.samples();
        let comp = |s: &Sample| s.completions[self.node.index()];
        let progressing: Vec<usize> = (1..samples.len())
            .filter(|&i| comp(&samples[i]) > comp(&samples[i - 1]))
            .collect();
        match (progressing.first(), progressing.last()) {
            (Some(&a), Some(&b)) if b > a => progressing.len() as f64 / (b - a + 1) as f64,
            (Some(_), Some(_)) => 1.0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohfree_core::ClusterConfig;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn spec(seed: u64, diurnal: Option<DiurnalProfile>) -> ArrivalSpec {
        ArrivalSpec {
            users: 1_000_000,
            rate_per_user_hz: 2.0,
            diurnal,
            seed,
        }
    }

    #[test]
    fn poisson_interarrival_mean_and_cv() {
        // 2M users × 2 Hz = 4M req/s aggregate → mean interarrival 250 ns.
        let s = ArrivalSpec {
            users: 2_000_000,
            rate_per_user_hz: 2.0,
            diurnal: None,
            seed: 42,
        };
        let n = 40_000u64;
        let arr = s.arrivals(SimTime::ZERO, n);
        assert_eq!(arr.len() as u64, n);
        let gaps: Vec<f64> = arr
            .windows(2)
            .map(|w| w[1].since(w[0]).as_ns_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let expect = 1e9 / s.aggregate_rate_hz(); // ns
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "Poisson mean interarrival {mean:.2} ns must be within 2% of {expect:.2} ns"
        );
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(
            (cv - 1.0).abs() < 0.03,
            "exponential interarrivals have CV 1, got {cv:.4}"
        );
    }

    #[test]
    fn diurnal_envelope_matches_profile() {
        let d = DiurnalProfile {
            period: SimDuration::ms(1),
            trough: 0.25,
        };
        // Peak 4M req/s over ~10 periods (~40k accepted arrivals).
        let s = ArrivalSpec {
            users: 2_000_000,
            rate_per_user_hz: 2.0,
            diurnal: Some(d),
            seed: 7,
        };
        let n = 30_000u64;
        let arr = s.arrivals(SimTime::ZERO, n);
        // Bin arrivals by phase within the period; per-bin counts must
        // track the envelope integral over that bin (±10% of peak bin).
        const BINS: usize = 8;
        let mut counts = [0u64; BINS];
        for &a in &arr {
            let phase = (a.since(SimTime::ZERO).as_ns_f64() / d.period.as_ns_f64()).fract();
            counts[(phase * BINS as f64) as usize % BINS] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        for (b, &c) in counts.iter().enumerate() {
            let mid = (b as f64 + 0.5) / BINS as f64;
            let expect = d.envelope(SimDuration::ns_f64(mid * d.period.as_ns_f64()));
            let got = c as f64 / max;
            assert!(
                (got - expect).abs() < 0.10,
                "bin {b}: relative rate {got:.3} vs envelope {expect:.3}"
            );
        }
        // The trough really dips: quietest bin under half the loudest.
        assert!(*counts.iter().min().unwrap() as f64 / max < 0.5);
    }

    #[test]
    fn identical_seeds_identical_streams() {
        let d = Some(DiurnalProfile {
            period: SimDuration::us(100),
            trough: 0.5,
        });
        let a = spec(99, d).arrivals(SimTime::ZERO, 5_000);
        let b = spec(99, d).arrivals(SimTime::ZERO, 5_000);
        assert_eq!(a, b, "same seed must replay the same stream");
        let c = spec(100, d).arrivals(SimTime::ZERO, 5_000);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn arrivals_sorted_and_start_offset() {
        let start = SimTime::ZERO + SimDuration::us(3);
        let arr = spec(5, None).arrivals(start, 2_000);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr[0] > start);
    }

    #[test]
    fn install_runs_and_conserves_requests() {
        let mut w = World::new(ClusterConfig::prototype());
        // Windows must be coarse relative to per-request latency or a
        // healthy-but-slow lane alternates empty windows.
        w.enable_sampling(SimDuration::us(10));
        let tenants = install(
            &mut w,
            &[
                TenantSpec {
                    name: "kv".into(),
                    client: n(1),
                    donors: vec![n(3), n(4)],
                    frames_per_donor: 64,
                    lanes: 2,
                    requests: 600,
                    mix: RequestMix::PointKv {
                        zipf_s: 0.9,
                        value_bytes: 64,
                    },
                    arrivals: spec(11, None),
                    write_fraction: 0.1,
                    think: SimDuration::ns(5),
                    start: SimTime::ZERO,
                },
                TenantSpec {
                    name: "scan".into(),
                    client: n(2),
                    donors: vec![n(5)],
                    frames_per_donor: 64,
                    lanes: 1,
                    requests: 150,
                    mix: RequestMix::ColumnarScan { chunk_bytes: 4096 },
                    arrivals: spec(12, None),
                    write_fraction: 0.0,
                    think: SimDuration::ns(20),
                    start: SimTime::ZERO,
                },
            ],
        );
        w.run();
        for t in &tenants {
            assert!(t.conserved(&w), "{}: conservation violated", t.name);
            assert_eq!(t.completed(&w), t.generated, "no faults → all complete");
            let h = t.latency(&w);
            assert_eq!(h.count(), t.completed(&w));
            assert!(h.quantile_ns(0.99) >= h.quantile_ns(0.50));
            assert!(t.availability(&w) > 0.9, "{}", t.availability(&w));
        }
    }

    #[test]
    fn more_requests_than_lanes_guard() {
        let mut w = World::new(ClusterConfig::prototype());
        let t = TenantSpec {
            name: "tiny".into(),
            client: n(1),
            donors: vec![n(2)],
            frames_per_donor: 16,
            lanes: 4,
            requests: 2, // fewer requests than lanes → 2 live lanes
            mix: RequestMix::PointKv {
                zipf_s: 1.0,
                value_bytes: 64,
            },
            arrivals: spec(3, None),
            write_fraction: 0.0,
            think: SimDuration::ns(1),
            start: SimTime::ZERO,
        }
        .install(&mut w);
        assert_eq!(t.threads.len(), 2);
        w.run();
        assert!(t.conserved(&w));
    }
}
