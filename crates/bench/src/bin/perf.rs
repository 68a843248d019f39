//! The performance-regression harness.
//!
//! ```sh
//! # Measure and write the document:
//! COHFREE_JSON=BENCH_PERF.json cargo run --release -p cohfree-bench --bin perf
//! # Measure and gate against the checked-in baseline (CI):
//! cargo run --release -p cohfree-bench --bin perf -- \
//!     --check crates/bench/perf_baseline.json --tolerance 3.0
//! ```
//!
//! With `--check`, exits non-zero if any benchmark regressed past the
//! tolerance factor. See `cohfree_bench::perf` for the baseline policy.
//!
//! With `--metrics-overhead`, measures the self-profiling registry's cost
//! on the sequential big-world row (off vs on, same run, same machine) and
//! exits non-zero if enabling it costs more than
//! `--metrics-max-regression` (default 0.03 = 3%) of events/second — the
//! teeth behind the registry's zero-cost-when-off contract.

use cohfree_bench::perf;
use cohfree_core::Json;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path: Option<String> = None;
    let mut tolerance = 3.0f64;
    let mut metrics_gate = false;
    let mut metrics_max_regression = 0.03f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {
                baseline_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--check requires a baseline path");
                    std::process::exit(2);
                }));
            }
            "--tolerance" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--tolerance requires a factor");
                    std::process::exit(2);
                });
                tolerance = v.parse().unwrap_or_else(|e| {
                    eprintln!("bad tolerance {v:?}: {e}");
                    std::process::exit(2);
                });
            }
            "--metrics-overhead" => metrics_gate = true,
            "--metrics-max-regression" => {
                let v = args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-max-regression requires a fraction");
                    std::process::exit(2);
                });
                metrics_max_regression = v.parse().unwrap_or_else(|e| {
                    eprintln!("bad regression bound {v:?}: {e}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other:?} \
                     (expected --check/--tolerance/--metrics-overhead/\
                     --metrics-max-regression)"
                );
                std::process::exit(2);
            }
        }
    }

    let micro = perf::micro();
    let mac = perf::macro_suite();
    // The macro suite runs whole figures, which record their cluster
    // snapshots into the report collector; drop those so BENCH_PERF.json
    // carries only the perf tables (megabytes of snapshots would drown the
    // numbers the regression gate reads).
    cohfree_bench::report::reset();
    for t in perf::tables(&micro, &mac) {
        t.print();
    }

    if metrics_gate {
        let (off_eps, on_eps) = perf::metrics_overhead();
        // Positive = the enabled registry costs throughput.
        let regression = 1.0 - on_eps / off_eps.max(1e-9);
        if regression > metrics_max_regression {
            eprintln!(
                "perf: metrics registry too costly: {on_eps:.0} events/s on vs \
                 {off_eps:.0} off ({:.2}% regression, bound {:.2}%)",
                regression * 100.0,
                metrics_max_regression * 100.0
            );
            cohfree_bench::report::finish();
            std::process::exit(1);
        }
        println!(
            "perf: metrics overhead ok — {on_eps:.0} events/s on vs {off_eps:.0} off \
             ({:+.2}%)",
            -regression * 100.0
        );
    }

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("perf: cannot parse baseline {path}: {e:?}");
            std::process::exit(2);
        });
        let baseline = perf::metrics_from_document(&doc).unwrap_or_else(|e| {
            eprintln!("perf: {e}");
            std::process::exit(2);
        });
        let current = perf::metrics(&micro, &mac);
        let violations = perf::compare(&current, &baseline, tolerance);
        if violations.is_empty() {
            println!("perf: all benchmarks within {tolerance:.1}x of baseline");
        } else {
            eprintln!("perf: regression beyond {tolerance:.1}x of baseline:");
            for v in &violations {
                eprintln!("  {v}");
            }
            cohfree_bench::report::finish();
            std::process::exit(1);
        }
    }

    cohfree_bench::report::finish();
}
