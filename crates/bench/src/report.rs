//! The machine-readable run report — the `COHFREE_JSON` pipeline.
//!
//! Experiment bins print human-readable tables to stdout; this module
//! accumulates the *same* results as a single structured JSON document so
//! plots and regression checks never re-parse console output.
//!
//! Every [`Table::print`] records its table here automatically, and the
//! cluster-level experiments (Figs. 6–8) additionally record
//! [`ClusterSnapshot`]s — per-node RMC/fabric/DRAM counters plus the
//! sampling probe's queue-depth time series. A bin's `main` ends with
//! [`finish`], which writes the accumulated document to the path named by
//! the `COHFREE_JSON` environment variable (and does nothing when the
//! variable is unset, so plain console runs are unchanged).
//!
//! Bins that trace in Full mode (currently `ext_breakdown`) also call
//! [`record_trace`]; `finish` merges those span streams into one Chrome
//! trace-event JSON file at the path named by `COHFREE_TRACE`, loadable
//! in Perfetto / `chrome://tracing`. Both variables are independent.
//!
//! The document also carries a `metrics` section of SLO accounting blocks
//! (see [`record_slo`]) derived purely from deterministic simulation
//! state, so it is byte-identical run to run.
//!
//! ```sh
//! COHFREE_SCALE=smoke COHFREE_JSON=out.json \
//!     cargo run --release -p cohfree-bench --bin all_figures
//! ```

use crate::table::Table;
use cohfree_core::world::World;
use cohfree_core::{ClusterSnapshot, Json};
use cohfree_sim::span::Phase;
use std::sync::Mutex;

static COLLECTOR: Mutex<Collector> = Mutex::new(Collector {
    tables: Vec::new(),
    snapshots: Vec::new(),
    trace_events: Vec::new(),
    slos: Vec::new(),
    traced_worlds: 0,
});

struct Collector {
    tables: Vec<Json>,
    snapshots: Vec<Json>,
    trace_events: Vec<Json>,
    slos: Vec<Json>,
    traced_worlds: u64,
}

/// Pid stride between recorded worlds in the merged Chrome trace: each
/// world's nodes occupy `[base + 1, base + 16]`, so strides of 100 keep
/// them visually grouped per run in Perfetto.
const TRACE_PID_STRIDE: u64 = 100;

/// Record a finished results table. Called by [`Table::print`]; call it
/// directly for tables that are built but never printed.
pub fn record_table(t: &Table) {
    COLLECTOR
        .lock()
        .expect("report collector poisoned")
        .tables
        .push(t.to_json());
}

/// Record a cluster snapshot under `name` (e.g. `"fig6/hops3"`).
pub fn record_snapshot(name: &str, snap: ClusterSnapshot) {
    let entry = Json::obj([("name", Json::from(name)), ("cluster", snap.into_json())]);
    COLLECTOR
        .lock()
        .expect("report collector poisoned")
        .snapshots
        .push(entry);
}

/// Derive the SLO accounting block for a finished world: per-phase and
/// end-to-end latency quantiles (p50/p99/p99.9) from the aggregate span
/// histograms, plus availability over the sampling probe's windows. A
/// window counts as *available* when the cluster made client progress
/// during it (cumulative completions advanced) or had nothing left to do
/// (drained queue); a stalled window — events pending, zero completions —
/// is unavailable time, which is exactly what a donor crash produces
/// between detection and evacuation.
///
/// Everything here is computed from simulation state only — virtual time,
/// deterministic histograms — never from host time, so the block is
/// byte-identical across runs.
pub fn slo_json(world: &World) -> Json {
    let trace = world.trace();
    let mut phases = Vec::new();
    for p in Phase::ALL {
        let h = trace.phase_hist(p);
        if h.count() == 0 {
            continue;
        }
        phases.push(Json::obj([
            ("phase", Json::from(p.name())),
            ("count", Json::from(h.count())),
            ("p50_ns", Json::from(h.quantile_ns(0.50))),
            ("p99_ns", Json::from(h.quantile_ns(0.99))),
            ("p999_ns", Json::from(h.quantile_ns(0.999))),
        ]));
    }
    let samples = world.samples();
    let mut windows = 0u64;
    let mut available = 0u64;
    for pair in samples.windows(2) {
        windows += 1;
        let advanced =
            pair[1].completions.iter().sum::<u64>() > pair[0].completions.iter().sum::<u64>();
        if advanced || pair[1].events_queued == 0 {
            available += 1;
        }
    }
    Json::obj([
        ("phases", Json::Arr(phases)),
        (
            "availability",
            Json::obj([
                ("windows", Json::from(windows)),
                ("available", Json::from(available)),
                (
                    "fraction",
                    Json::from(if windows == 0 {
                        1.0
                    } else {
                        available as f64 / windows as f64
                    }),
                ),
            ]),
        ),
    ])
}

/// Record `world`'s SLO accounting block under `name`.
pub fn record_slo(name: &str, world: &World) {
    record_slo_json(name, slo_json(world));
}

/// Record a pre-computed SLO block (see [`slo_json`]) under `name`. Split
/// from [`record_slo`] so sweeps that run on the worker pool can derive
/// the block inside the parallel closure and merge it back in input order,
/// keeping the report byte-identical to a sequential sweep.
pub fn record_slo_json(name: &str, slo: Json) {
    let entry = Json::obj([("name", Json::from(name)), ("slo", slo)]);
    COLLECTOR
        .lock()
        .expect("report collector poisoned")
        .slos
        .push(entry);
}

/// Record `world`'s retained span stream (Full trace mode) under `name`
/// into the Chrome trace accumulated for `COHFREE_TRACE`. Each recorded
/// world gets its own pid range so multiple runs coexist in one Perfetto
/// view. A world traced in Off/Aggregate mode contributes nothing.
pub fn record_trace(name: &str, world: &World) {
    let mut c = COLLECTOR.lock().expect("report collector poisoned");
    let pid_base = c.traced_worlds * TRACE_PID_STRIDE;
    c.traced_worlds += 1;
    let prefix = if name.is_empty() {
        String::new()
    } else {
        format!("{name}/")
    };
    let events = world.trace().chrome_events(pid_base, &prefix);
    c.trace_events.extend(events);
}

/// Drop everything recorded so far — tables, snapshots and trace streams.
/// The determinism end-to-end test runs the full suite twice in one process
/// and must start the second pass from an empty collector.
pub fn reset() {
    let mut c = COLLECTOR.lock().expect("report collector poisoned");
    c.tables.clear();
    c.snapshots.clear();
    c.trace_events.clear();
    c.slos.clear();
    c.traced_worlds = 0;
}

/// Assemble the Chrome trace-event document from every world recorded via
/// [`record_trace`] so far. The collector is left intact.
pub fn trace_document() -> Json {
    let c = COLLECTOR.lock().expect("report collector poisoned");
    Json::obj([
        ("traceEvents", Json::Arr(c.trace_events.clone())),
        ("displayTimeUnit", Json::from("ns")),
    ])
}

/// Assemble the full report document from everything recorded so far.
/// The collector is left intact, so this may be called repeatedly.
pub fn document() -> Json {
    let c = COLLECTOR.lock().expect("report collector poisoned");
    Json::obj([
        ("format", Json::from("cohfree-report-v1")),
        ("scale", Json::from(crate::Scale::from_env().name())),
        ("tables", Json::Arr(c.tables.clone())),
        ("cluster_snapshots", Json::Arr(c.snapshots.clone())),
        ("metrics", Json::obj([("slos", Json::Arr(c.slos.clone()))])),
    ])
}

/// Write the report document to `path`.
pub fn write_to(path: &str) -> std::io::Result<()> {
    let mut text = document().to_string();
    text.push('\n');
    std::fs::write(path, text)
}

/// End-of-run hook for every experiment bin: if `COHFREE_JSON` names a
/// path, write the accumulated document there, and if `COHFREE_TRACE`
/// names a path, write the merged Chrome trace there. A write failure is
/// reported on stderr and exits non-zero — a CI artifact silently missing
/// is worse than a failed job.
pub fn finish() {
    if let Some(path) = env_path("COHFREE_JSON") {
        match write_to(&path) {
            Ok(()) => eprintln!("report: wrote JSON document to {path}"),
            Err(e) => {
                eprintln!("report: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = env_path("COHFREE_TRACE") {
        let mut text = trace_document().to_string();
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("report: wrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("report: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn env_path(var: &str) -> Option<String> {
    std::env::var(var).ok().filter(|p| !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_and_snapshots_accumulate_into_the_document() {
        let mut t = Table::new("report demo table", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        record_table(&t);

        let doc = document();
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("cohfree-report-v1")
        );
        let tables = doc.get("tables").unwrap().as_array().unwrap();
        let ours = tables
            .iter()
            .find(|t| t.get("title").and_then(Json::as_str) == Some("report demo table"))
            .expect("recorded table present");
        assert_eq!(
            ours.get("rows").unwrap().as_array().unwrap()[0]
                .as_array()
                .unwrap()[1]
                .as_str(),
            Some("2")
        );
        // The document round-trips through its serialized form.
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert!(reparsed
            .get("cluster_snapshots")
            .unwrap()
            .as_array()
            .is_some());
    }

    #[test]
    fn slo_blocks_land_in_the_metrics_section() {
        record_slo_json(
            "report demo slo",
            Json::obj([("phases", Json::Arr(Vec::new()))]),
        );
        let doc = document();
        let slos = doc
            .get("metrics")
            .and_then(|m| m.get("slos"))
            .and_then(Json::as_array)
            .expect("metrics.slos present");
        assert!(slos
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("report demo slo")));
    }
}
