//! Measurement primitives.
//!
//! Every model component exposes its behaviour through these types:
//!
//! * [`Counter`] — monotonically increasing event counts,
//! * [`OnlineSummary`] — numerically stable streaming mean/variance/min/max
//!   (Welford's algorithm),
//! * [`LatencyHistogram`] — log₂-bucketed latency distribution with
//!   approximate quantiles, cheap enough to keep per component,
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant signal
//!   (queue depth, occupancy).

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Streaming mean / variance / extrema via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineSummary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineSummary {
    /// An empty summary.
    pub fn new() -> Self {
        OnlineSummary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for < 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Log-linear latency histogram over nanosecond values.
///
/// Each power-of-two octave is split into [`HIST_SUB_BUCKETS`] equal-width
/// sub-buckets (HDR-histogram style): values below `HIST_SUB_BUCKETS` get
/// exact unit buckets, and a value in octave `[2^o, 2^(o+1))` lands in one
/// of 4 sub-ranges of width `2^(o-2)`. That bounds the relative bucket
/// width at 25%, so interpolated quantiles carry ≤ ~12% relative error —
/// tight enough for per-phase latency attribution, versus the ≤ 2× error
/// of plain log₂ buckets.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: f64,
    max_ns: f64,
}

/// Sub-buckets per power-of-two octave (must be a power of two).
pub const HIST_SUB_BUCKETS: usize = 4;
const HIST_SUB_BITS: u32 = HIST_SUB_BUCKETS.trailing_zeros();
// Octaves 2..=63 at 4 sub-buckets each, plus the 4 exact unit buckets:
// covers the full u64 nanosecond range, so the top bucket's upper bound
// (2^64) can never undershoot a recorded sample. (An earlier revision
// stopped at octave 39 and funneled everything above ~2^40 ns into one
// clamped bucket whose reported bound lay *below* the samples in it.)
const HIST_BUCKETS: usize = HIST_SUB_BUCKETS + 62 * HIST_SUB_BUCKETS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
        }
    }

    /// Per-bucket sample counts in the log-linear layout described by
    /// [`LatencyHistogram::bucket_bounds`] (index `i` covers
    /// `bucket_bounds(i)`).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < HIST_SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros(); // >= HIST_SUB_BITS here
        let sub = ((ns >> (octave - HIST_SUB_BITS)) as usize) & (HIST_SUB_BUCKETS - 1);
        let idx = (octave - HIST_SUB_BITS + 1) as usize * HIST_SUB_BUCKETS + sub;
        debug_assert!(idx < HIST_BUCKETS, "octave table covers all of u64");
        idx
    }

    /// `[lo, hi)` nanosecond range covered by bucket `i`.
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        if i < HIST_SUB_BUCKETS {
            return (i as f64, (i + 1) as f64);
        }
        let octave = (i / HIST_SUB_BUCKETS) as u32 + HIST_SUB_BITS - 1;
        let sub = (i % HIST_SUB_BUCKETS) as u128;
        // u128 arithmetic: the top bucket's upper bound is 2^64, one past
        // the largest representable sample.
        let width = 1u128 << (octave - HIST_SUB_BITS);
        let lo = (1u128 << octave) + sub * width;
        (lo as f64, (lo + width) as f64)
    }

    /// Record one latency. Deliberately lean — a bucket increment and a
    /// running sum/max — because trace-enabled runs call this on every
    /// finished transaction phase (see `cohfree_sim::span`).
    #[inline]
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_ns();
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        let x = d.as_ns_f64();
        self.sum_ns += x;
        if x > self.max_ns {
            self.max_ns = x;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    /// Sum of all recorded latencies in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.sum_ns
    }

    /// Largest recorded latency in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> f64 {
        self.max_ns
    }

    /// Approximate quantile (`q` in `[0, 1]`) in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if acc + c >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (target - acc) as f64 / c as f64;
                return lo + frac * (hi - lo);
            }
            acc += c;
        }
        self.max_ns()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the accumulator
/// weights each value by how long it was held.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    peak: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// A signal starting at 0 at time 0.
    pub fn new() -> Self {
        TimeWeighted {
            value: 0.0,
            last_change: SimTime::ZERO,
            weighted_sum: 0.0,
            peak: 0.0,
        }
    }

    /// Record that the signal takes `value` from `now` onwards.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "TimeWeighted: time regression");
        let held = now.saturating_since(self.last_change);
        self.weighted_sum += self.value * held.as_ns_f64();
        self.value = value;
        self.last_change = now;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Adjust the signal by `delta` at `now` (convenience for queue depths).
    pub fn adjust(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Peak value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[0, horizon]`.
    ///
    /// The accumulator integrates up to the latest `set()`; if `horizon` is
    /// earlier than that, the window is clamped to `last_change` — the
    /// integral cannot be partially undone, and dividing the full sum by a
    /// shorter horizon would overstate the mean.
    pub fn mean(&self, horizon: SimTime) -> f64 {
        let end = horizon.max(self.last_change);
        if end == SimTime::ZERO {
            return 0.0;
        }
        let tail = horizon.saturating_since(self.last_change);
        let total = self.weighted_sum + self.value * tail.as_ns_f64();
        total / end.as_ns_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(format!("{c}"), "5");
    }

    #[test]
    fn summary_matches_closed_form() {
        let mut s = OnlineSummary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = OnlineSummary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_buckets() {
        // Exact unit buckets below HIST_SUB_BUCKETS.
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 3);
        // Octave [4, 8): four sub-buckets of width 1.
        assert_eq!(LatencyHistogram::bucket_of(4), 4);
        assert_eq!(LatencyHistogram::bucket_of(5), 5);
        assert_eq!(LatencyHistogram::bucket_of(7), 7);
        // Octave [8, 16): four sub-buckets of width 2.
        assert_eq!(LatencyHistogram::bucket_of(8), 8);
        assert_eq!(LatencyHistogram::bucket_of(9), 8);
        assert_eq!(LatencyHistogram::bucket_of(10), 9);
        // 1023 is in [896, 1024), the last sub-bucket of octave 9.
        assert_eq!(
            LatencyHistogram::bucket_of(1023),
            LatencyHistogram::bucket_of(896)
        );
        assert_ne!(
            LatencyHistogram::bucket_of(1023),
            LatencyHistogram::bucket_of(1024)
        );
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Buckets are monotone and contiguous over a wide range.
        let mut prev = 0usize;
        for ns in 0..100_000u64 {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(b == prev || b == prev + 1, "ns {ns}: {prev} -> {b}");
            prev = b;
        }
    }

    #[test]
    fn histogram_bucket_bounds_invert_bucket_of() {
        for i in 0..HIST_BUCKETS - 1 {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            assert_eq!(LatencyHistogram::bucket_of(lo as u64), i);
            assert_eq!(LatencyHistogram::bucket_of(hi as u64 - 1), i);
            assert_eq!(LatencyHistogram::bucket_of(hi as u64), i + 1);
        }
        // Top bucket: [2^63 + 3·2^61, 2^64) — the upper bound exceeds
        // u64::MAX, so every representable sample fits strictly inside.
        let (lo, hi) = LatencyHistogram::bucket_bounds(HIST_BUCKETS - 1);
        assert_eq!(lo, (0xE000_0000_0000_0000u64) as f64);
        assert_eq!(hi, 2f64.powi(64));
        assert_eq!(LatencyHistogram::bucket_of(lo as u64), HIST_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_octave_edges_round_trip_exhaustively() {
        // Every sub-bucket edge of every u64 octave: the index derived from
        // the sample must map back to bounds that bracket it, and samples one
        // below an edge must land in the previous bucket. This sweeps the
        // full `bucket_of` ↔ `bucket_bounds` pair across all 62 octaves.
        for octave in HIST_SUB_BITS..64 {
            let width = 1u64 << (octave - HIST_SUB_BITS);
            for sub in 0..HIST_SUB_BUCKETS as u64 {
                let lo = (1u64 << octave) + sub * width;
                let idx = (octave - HIST_SUB_BITS + 1) as usize * HIST_SUB_BUCKETS + sub as usize;
                assert_eq!(LatencyHistogram::bucket_of(lo), idx, "edge {lo}");
                assert_eq!(LatencyHistogram::bucket_of(lo - 1), idx - 1, "below {lo}");
                let last = lo + (width - 1);
                assert_eq!(LatencyHistogram::bucket_of(last), idx, "top of {lo}");
                let (blo, bhi) = LatencyHistogram::bucket_bounds(idx);
                assert_eq!(blo, lo as f64, "bounds lo at {lo}");
                // The reported bucket range brackets every sample in it
                // (checked in integer space: beyond 2^53 a sample cast to
                // f64 may round up to the bound itself).
                assert_eq!(bhi as u128, lo as u128 + width as u128, "hi at {lo}");
            }
        }
    }

    #[test]
    fn histogram_quantile_bounds_never_undershoot_huge_samples() {
        // Regression: samples above 2^40 ns used to clamp into a bucket
        // whose reported upper bound (2^40) lay below the sample, so
        // quantiles could report a value smaller than every observation.
        let mut h = LatencyHistogram::new();
        let big = 1u64 << 50;
        h.record(SimDuration::ns(big));
        assert!(h.quantile_ns(1.0) >= big as f64, "{}", h.quantile_ns(1.0));
        assert!(h.quantile_ns(0.5) >= big as f64);
        let mut extreme = LatencyHistogram::new();
        extreme.record(SimDuration::ps(u64::MAX));
        let q = extreme.quantile_ns(1.0);
        assert!(q >= extreme.max_ns() || q >= (u64::MAX / 1000) as f64);
    }

    #[test]
    fn histogram_quantiles_bracket_truth() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(SimDuration::ns(ns));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.5);
        // True median is 500; 4-per-octave sub-buckets keep interpolation
        // within ~12% of truth (the old log₂ buckets only promised 2×).
        assert!((460.0..=540.0).contains(&p50), "p50 {p50}");
        let p90 = h.quantile_ns(0.9);
        assert!((820.0..=980.0).contains(&p90), "p90 {p90}");
        let p100 = h.quantile_ns(1.0);
        assert!(p100 >= 896.0, "p100 {p100}");
        assert!((h.mean_ns() - 500.5).abs() < 1e-9);
        assert_eq!(h.max_ns(), 1000.0);
    }

    #[test]
    fn histogram_merge_combines_moments() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [10u64, 20, 30] {
            a.record(SimDuration::ns(ns));
        }
        for ns in [100u64, 200] {
            b.record(SimDuration::ns(ns));
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert!((a.mean_ns() - 72.0).abs() < 1e-9, "{}", a.mean_ns());
        assert_eq!(a.max_ns(), 200.0);
        // Merging an empty histogram is a no-op.
        let before = a.mean_ns();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.mean_ns(), before);
    }

    #[test]
    fn time_weighted_mean_and_peak() {
        let mut w = TimeWeighted::new();
        let t = |ns| SimTime::ZERO + SimDuration::ns(ns);
        w.set(t(0), 2.0);
        w.set(t(10), 4.0); // 2.0 held for 10ns
        w.set(t(20), 0.0); // 4.0 held for 10ns
                           // Over [0, 40]: (2*10 + 4*10 + 0*20) / 40 = 1.5
        assert!((w.mean(t(40)) - 1.5).abs() < 1e-12);
        assert_eq!(w.peak(), 4.0);
        assert_eq!(w.current(), 0.0);
    }

    #[test]
    fn time_weighted_mean_clamps_early_horizon() {
        let mut w = TimeWeighted::new();
        let t = |ns| SimTime::ZERO + SimDuration::ns(ns);
        w.set(t(0), 10.0);
        w.set(t(100), 0.0); // 10.0 held for 100ns, integral = 1000
                            // A horizon inside the already-integrated window must not divide the
                            // full integral by the shorter span (which would report 20.0 here);
                            // the window clamps to last_change.
        assert!((w.mean(t(50)) - 10.0).abs() < 1e-12, "{}", w.mean(t(50)));
        // At and past last_change the mean dilutes as normal.
        assert!((w.mean(t(100)) - 10.0).abs() < 1e-12);
        assert!((w.mean(t(200)) - 5.0).abs() < 1e-12);
        // Degenerate: nothing integrated at all.
        assert_eq!(TimeWeighted::new().mean(SimTime::ZERO), 0.0);
    }

    #[test]
    fn time_weighted_change_at_horizon_contributes_zero() {
        let mut w = TimeWeighted::new();
        let t = |ns| SimTime::ZERO + SimDuration::ns(ns);
        w.set(t(0), 4.0);
        // A state change landing exactly on the horizon is held for zero
        // time: the new value must not leak a stale tail into the mean.
        w.set(t(100), 1_000.0);
        assert!((w.mean(t(100)) - 4.0).abs() < 1e-12, "{}", w.mean(t(100)));
        // Same-instant overwrite: the replaced value was held for zero time
        // and must carry zero weight.
        let mut v = TimeWeighted::new();
        v.set(t(10), 3.0);
        v.set(t(10), 9.0);
        assert!((v.mean(t(20)) - 4.5).abs() < 1e-12, "{}", v.mean(t(20)));
        assert_eq!(v.peak(), 9.0);
    }

    #[test]
    fn time_weighted_mean_never_divides_by_zero_span() {
        let mut w = TimeWeighted::new();
        // Value set at t=0, horizon at t=0: zero span, must yield a finite 0.
        w.set(SimTime::ZERO, 7.0);
        let m = w.mean(SimTime::ZERO);
        assert!(m.is_finite());
        assert_eq!(m, 0.0);
        // Untouched accumulator at a zero horizon.
        assert_eq!(TimeWeighted::new().mean(SimTime::ZERO), 0.0);
    }

    #[test]
    fn time_weighted_adjust() {
        let mut w = TimeWeighted::new();
        let t = |ns| SimTime::ZERO + SimDuration::ns(ns);
        w.adjust(t(0), 1.0);
        w.adjust(t(5), 1.0);
        w.adjust(t(10), -2.0);
        assert_eq!(w.current(), 0.0);
        // (1*5 + 2*5) / 20 = 0.75
        assert!((w.mean(t(20)) - 0.75).abs() < 1e-12);
    }
}
