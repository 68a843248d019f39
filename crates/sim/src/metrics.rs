//! Engine self-profiling: a process-global runtime metrics registry.
//!
//! [`crate::stats`] measures the *simulated* cluster; this module measures
//! the *simulator itself* — events per second, queue depth, trace
//! volume — so engine changes can see where host time goes. Three
//! properties drive the design:
//!
//! * **Zero-cost when off.** The registry is compiled in unconditionally,
//!   but every probe begins with [`enabled`] — one relaxed load of a static
//!   `AtomicBool` — and hot loops cache that bool once per run, so the
//!   disabled tier costs a predictable branch. The perf harness's
//!   `--metrics-overhead` gate verifies the enabled tier too.
//! * **Out-of-band.** Probes write wall-clock and scheduler counts into
//!   this registry only; nothing here is ever read back by simulation
//!   code, so simulation output stays byte-identical with metrics on or
//!   off (the golden-fingerprint suite compares both).
//! * **Dependency-free.** Plain `std` maps behind one mutex. Low-frequency
//!   call sites lock directly; hot paths accumulate into run-local structs
//!   and flush once per run.
//!
//! Metric names may carry Prometheus-style labels inline
//! (`evs_total{cause="fault"}`); [`labeled`] builds such
//! names with correct label-value escaping. [`render_prometheus`] emits
//! the whole registry in Prometheus text exposition format — histograms
//! (reusing [`LatencyHistogram`]) become cumulative `_bucket{le="…"}`
//! series plus `_sum`/`_count`, and time series become one sample per
//! point tagged with a `t` label.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::stats::LatencyHistogram;
use crate::time::SimDuration;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LatencyHistogram>,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            hists: BTreeMap::new(),
            series: BTreeMap::new(),
        }
    }
}

fn reg() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("metrics registry poisoned")
}

/// Whether the registry is recording. Probes branch on this; hot loops
/// should load it once per run into a local and branch on that.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Off is the default; the bench pipeline turns
/// it on when `COHFREE_METRICS` names an export path.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drop every recorded value (the enabled flag is left as-is). Call
/// between runs that must not see each other's numbers.
pub fn reset() {
    let mut r = reg();
    r.counters.clear();
    r.gauges.clear();
    r.hists.clear();
    r.series.clear();
}

/// Add `v` to the counter `name`. No-op while disabled.
pub fn counter_add(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    *reg().counters.entry(name.to_string()).or_insert(0) += v;
}

/// Set the gauge `name` to `v`. No-op while disabled.
pub fn gauge_set(name: &str, v: f64) {
    if !enabled() {
        return;
    }
    reg().gauges.insert(name.to_string(), v);
}

/// Record one nanosecond observation into the histogram `name`. No-op
/// while disabled.
pub fn hist_record_ns(name: &str, ns: u64) {
    if !enabled() {
        return;
    }
    reg()
        .hists
        .entry(name.to_string())
        .or_default()
        .record(SimDuration::ns(ns));
}

/// Merge a run-locally accumulated histogram into the histogram `name`.
/// No-op while disabled.
pub fn hist_merge(name: &str, h: &LatencyHistogram) {
    if !enabled() {
        return;
    }
    reg().hists.entry(name.to_string()).or_default().merge(h);
}

/// Append the point `(t, v)` to the time series `name` (`t` is whatever
/// monotone x-axis the probe uses: events processed, sim-ns, wall-ns).
/// No-op while disabled.
pub fn series_push(name: &str, t: u64, v: f64) {
    if !enabled() {
        return;
    }
    reg()
        .series
        .entry(name.to_string())
        .or_default()
        .push((t, v));
}

/// Point-in-time copy of everything recorded, for experiment tables and
/// tests. Maps are ordered by full metric name.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Log-linear nanosecond histograms by name.
    pub hists: BTreeMap<String, LatencyHistogram>,
    /// Append-only `(t, v)` series by name.
    pub series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl Snapshot {
    /// Counter value, 0 when never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every counter whose full name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Copy the registry out. Works whether or not recording is enabled.
pub fn snapshot() -> Snapshot {
    let r = reg();
    Snapshot {
        counters: r.counters.clone(),
        gauges: r.gauges.clone(),
        hists: r.hists.clone(),
        series: r.series.clone(),
    }
}

/// Escape a label value for the Prometheus text format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Build a labeled metric name, `base{k1="v1",k2="v2"}`, with the values
/// escaped. With no labels the bare base is returned.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::from(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

/// `base{labels}` split into `(base, labels-with-braces-stripped)`.
fn split_name(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}').unwrap_or(rest)),
        None => (name, ""),
    }
}

/// Re-attach `extra` (e.g. `le="128"`) to a possibly-labeled name.
fn with_label(base: &str, labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{base}{{{extra}}}")
    } else {
        format!("{base}{{{labels},{extra}}}")
    }
}

fn type_line(out: &mut String, seen: &mut Option<String>, base: &str, kind: &str) {
    if seen.as_deref() != Some(base) {
        let _ = writeln!(out, "# TYPE {base} {kind}");
        *seen = Some(base.to_string());
    }
}

/// Render `snap` in Prometheus text exposition format. Counters and
/// gauges are one sample each; histograms emit cumulative
/// `_bucket{le="…"}` samples over the occupied log-linear buckets plus
/// `_sum` and `_count`; series emit one gauge sample per point with the
/// probe's x-value as a `t` label.
pub fn render_prometheus_snapshot(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen: Option<String> = None;
    for (name, v) in &snap.counters {
        let (base, _) = split_name(name);
        type_line(&mut out, &mut seen, base, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    seen = None;
    for (name, v) in &snap.gauges {
        let (base, _) = split_name(name);
        type_line(&mut out, &mut seen, base, "gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    seen = None;
    for (name, h) in &snap.hists {
        let (base, labels) = split_name(name);
        type_line(&mut out, &mut seen, base, "histogram");
        let mut cum = 0u64;
        for (i, &c) in h.bucket_counts().iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let (_, hi) = LatencyHistogram::bucket_bounds(i);
            let _ = writeln!(
                out,
                "{} {cum}",
                with_label(&format!("{base}_bucket"), labels, &format!("le=\"{hi}\""))
            );
        }
        let _ = writeln!(
            out,
            "{} {}",
            with_label(&format!("{base}_bucket"), labels, "le=\"+Inf\""),
            h.count()
        );
        let sum_name = if labels.is_empty() {
            format!("{base}_sum")
        } else {
            format!("{base}_sum{{{labels}}}")
        };
        let count_name = if labels.is_empty() {
            format!("{base}_count")
        } else {
            format!("{base}_count{{{labels}}}")
        };
        let _ = writeln!(out, "{sum_name} {}", h.total_ns());
        let _ = writeln!(out, "{count_name} {}", h.count());
    }
    seen = None;
    for (name, points) in &snap.series {
        let (base, labels) = split_name(name);
        type_line(&mut out, &mut seen, base, "gauge");
        for &(t, v) in points {
            let _ = writeln!(
                out,
                "{} {v}",
                with_label(base, labels, &format!("t=\"{t}\""))
            );
        }
    }
    out
}

/// [`render_prometheus_snapshot`] over the live registry.
pub fn render_prometheus() -> String {
    render_prometheus_snapshot(&snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; these tests serialize on their own
    /// lock so they never see each other's writes.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        reset();
        set_enabled(false);
        counter_add("off_counter", 7);
        gauge_set("off_gauge", 1.5);
        hist_record_ns("off_hist", 42);
        series_push("off_series", 0, 1.0);
        let s = snapshot();
        assert!(s.counters.is_empty());
        assert!(s.gauges.is_empty());
        assert!(s.hists.is_empty());
        assert!(s.series.is_empty());
    }

    #[test]
    fn reset_clears_between_runs_but_keeps_the_tier() {
        with_clean_registry(|| {
            counter_add("runs_total", 1);
            hist_record_ns("h", 10);
            series_push("s", 1, 2.0);
            gauge_set("g", 3.0);
            assert_eq!(snapshot().counter("runs_total"), 1);
            reset();
            assert!(enabled(), "reset must not flip the tier");
            let s = snapshot();
            assert_eq!(s.counter("runs_total"), 0);
            assert!(s.hists.is_empty() && s.series.is_empty() && s.gauges.is_empty());
            // A fresh run starts counting from zero, not from stale state.
            counter_add("runs_total", 1);
            assert_eq!(snapshot().counter("runs_total"), 1);
        });
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        assert_eq!(
            labeled("m", &[("path", "a\\b\"c\nd")]),
            "m{path=\"a\\\\b\\\"c\\nd\"}"
        );
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("a", "1"), ("b", "2")]),
            "m{a=\"1\",b=\"2\"}"
        );
    }

    #[test]
    fn prometheus_counters_and_gauges_render_with_one_type_line_per_base() {
        with_clean_registry(|| {
            counter_add(&labeled("evs_total", &[("cause", "fault")]), 2);
            counter_add(&labeled("evs_total", &[("cause", "suspect")]), 3);
            gauge_set("depth", 4.0);
            let text = render_prometheus();
            assert_eq!(
                text.matches("# TYPE evs_total counter").count(),
                1,
                "{text}"
            );
            assert!(text.contains("evs_total{cause=\"fault\"} 2"), "{text}");
            assert!(text.contains("evs_total{cause=\"suspect\"} 3"), "{text}");
            assert!(text.contains("# TYPE depth gauge\ndepth 4"), "{text}");
        });
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_end_at_inf() {
        with_clean_registry(|| {
            hist_record_ns("lat", 1);
            hist_record_ns("lat", 1);
            hist_record_ns("lat", 1000);
            let text = render_prometheus();
            assert!(text.contains("# TYPE lat histogram"), "{text}");
            // Bucket [1, 2) holds 2 samples; every later occupied bucket
            // must report the running total, and +Inf the full count.
            assert!(text.contains("lat_bucket{le=\"2\"} 2"), "{text}");
            assert!(text.contains("lat_bucket{le=\"1024\"} 3"), "{text}");
            assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"), "{text}");
            assert!(text.contains("lat_sum 1002"), "{text}");
            assert!(text.contains("lat_count 3"), "{text}");
            // Cumulative counts never decrease down the rendered order.
            let mut last = 0u64;
            for line in text.lines().filter(|l| l.starts_with("lat_bucket{le=\"")) {
                if line.contains("+Inf") {
                    continue;
                }
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "non-cumulative: {line}");
                last = v;
            }
        });
    }

    #[test]
    fn prometheus_labeled_histograms_merge_le_into_existing_labels() {
        with_clean_registry(|| {
            hist_merge(&labeled("adv", &[("shard", "0")]), &{
                let mut h = LatencyHistogram::new();
                h.record(SimDuration::ns(2));
                h
            });
            let text = render_prometheus();
            assert!(
                text.contains("adv_bucket{shard=\"0\",le=\"3\"} 1"),
                "{text}"
            );
            assert!(text.contains("adv_sum{shard=\"0\"} 2"), "{text}");
            assert!(text.contains("adv_count{shard=\"0\"} 1"), "{text}");
        });
    }

    #[test]
    fn prometheus_series_render_one_sample_per_point() {
        with_clean_registry(|| {
            series_push("eps", 65536, 10.5);
            series_push("eps", 131072, 11.0);
            let text = render_prometheus();
            assert!(text.contains("# TYPE eps gauge"), "{text}");
            assert!(text.contains("eps{t=\"65536\"} 10.5"), "{text}");
            assert!(text.contains("eps{t=\"131072\"} 11"), "{text}");
        });
    }
}
