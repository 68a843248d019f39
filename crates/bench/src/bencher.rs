//! Minimal self-contained micro-benchmark timer.
//!
//! The container build is fully offline, so the harness avoids external
//! benchmarking crates. Each benchmark is a closure timed with
//! [`std::time::Instant`] using *batched* sampling: one `Instant` pair
//! brackets a whole batch of iterations, so the ~20–40 ns timer-call
//! overhead is amortised across the batch instead of being charged to
//! every iteration (which would swamp sub-100 ns closures). The reported
//! figure is the median of the per-batch samples — robust against the
//! occasional scheduler hiccup that a mean would absorb.

use std::time::{Duration, Instant};

/// Target wall time for one sample batch.
const BATCH_TARGET: Duration = Duration::from_millis(2);
/// Target number of sample batches per benchmark.
const SAMPLES: usize = 25;
/// Total wall-time budget per benchmark.
const TOTAL_BUDGET: Duration = Duration::from_millis(250);
/// Hard cap on iterations per batch (no-op closures would otherwise spin).
const MAX_BATCH: u64 = 4_000_000;

/// Outcome of one benchmark: per-iteration times in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name as passed to [`bench_quiet`].
    pub name: String,
    /// Median of the per-batch mean iteration times.
    pub median_ns: f64,
    /// Iterations timed per batch.
    pub batch: u64,
    /// Number of sample batches measured.
    pub samples: usize,
}

/// Time `f` with batched sampling and return the measurement.
///
/// A short warm-up sizes the batch so each sample spans ~2 ms, then up to
/// 25 batches are timed (bounded by a 250 ms total budget).
pub fn bench_quiet<F: FnMut()>(name: &str, mut f: F) -> BenchResult {
    // Warm-up and batch sizing: grow the batch until it costs >= ~200 us,
    // then scale it to the 2 ms target. Guards against both sub-ns no-ops
    // (capped) and multi-ms closures (batch of 1).
    let mut batch = 1u64;
    let per_iter_ns = loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let dt = t0.elapsed();
        if dt >= Duration::from_micros(200) || batch >= MAX_BATCH {
            break dt.as_nanos() as f64 / batch as f64;
        }
        batch = (batch * 8).min(MAX_BATCH);
    };
    batch = ((BATCH_TARGET.as_nanos() as f64 / per_iter_ns.max(0.01)) as u64).clamp(1, MAX_BATCH);

    let mut per_iter: Vec<f64> = Vec::with_capacity(SAMPLES);
    let started = Instant::now();
    while per_iter.len() < SAMPLES {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_iter.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        if started.elapsed() >= TOTAL_BUDGET {
            break;
        }
    }
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_ns = per_iter[per_iter.len() / 2];
    BenchResult {
        name: name.to_string(),
        median_ns,
        batch,
        samples: per_iter.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_closure_measures_below_sanity_bound() {
        // A no-op must not be charged the per-call `Instant` overhead
        // (~20-40 ns); batched timing amortises it below this bound even
        // on a loaded shared runner.
        let r = bench_quiet("noop", || {});
        assert!(
            r.median_ns < 15.0,
            "no-op measured at {} ns/iter — timer bias is back",
            r.median_ns
        );
        assert!(
            r.batch > 1_000,
            "no-op batch unexpectedly small: {}",
            r.batch
        );
    }

    #[test]
    fn slow_closure_is_measured_with_small_batches() {
        let r = bench_quiet("sleepy", || std::thread::sleep(Duration::from_millis(2)));
        assert!(r.median_ns >= 1_500_000.0, "{}", r.median_ns);
        assert!(r.batch <= 2, "{}", r.batch);
        assert!(r.samples >= 1);
    }

    #[test]
    fn work_scales_roughly_linearly() {
        // `black_box` on the loop variable keeps release builds from
        // constant-folding the whole sum to a closed form, which made both
        // loops take identical (near-zero) time and the test flaky.
        let mut acc = 0u64;
        let r1 = bench_quiet("sum1k", || {
            for i in 0..1_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        let r4 = bench_quiet("sum4k", || {
            for i in 0..4_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        std::hint::black_box(acc);
        // 4x the work should take meaningfully longer per iteration.
        assert!(
            r4.median_ns > 2.0 * r1.median_ns,
            "{} vs {}",
            r1.median_ns,
            r4.median_ns
        );
    }
}
