//! The cohfree benchmark: four seeded workloads, end-to-end host metrics
//! with tracing off, and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <mesh_closed|serving_open|db_remote|db_swap> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --all --seed 1
//! ```
//!
//! One workload runs per process, on one thread and the sequential engine.
//! A warm-up rep (rep 0) is checked against the pinned fingerprint for its
//! seed in `expected.json`; timed reps then run until `--seconds` have
//! passed. Every rep's outputs are checked. Human-readable lines come
//! first; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every check passed. See `README.md` for the metrics and why.

mod micro;
mod reference;
mod stats;
mod trace;
mod workload;

use cohfree_core::Json;
use stats::{median, quartiles};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workload::{run_rep, Rep, Size, Workload};

/// End-to-end metrics (tracing off): name and unit, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("write_ops_per_s", "ops/s"),
    ("read_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (tracing on): name and unit, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 26] = [
    ("sim.events_per_op", "events/op"),
    ("sim.events_per_s", "events/s"),
    ("sim.queue_ns", "ns"),
    ("fabric.hops_per_op", "hops/op"),
    ("fabric.step_ns", "ns"),
    ("rmc.nacks_per_op", "nacks/op"),
    ("rmc.useful_ratio", "ratio"),
    ("rmc.submit_ns", "ns"),
    ("mem.cache_hit_ratio", "ratio"),
    ("mem.cache_access_ns", "ns"),
    ("mem.store_ns", "ns"),
    ("mem.dram_accesses_per_op", "accesses/op"),
    ("os.major_faults_per_op", "faults/op"),
    ("os.tlb_walks_per_op", "walks/op"),
    ("os.translate_ns", "ns"),
    ("os.page_touch_ns", "ns"),
    ("core.run_s", "s"),
    ("core.remote_tx_per_op", "tx/op"),
    ("core.events_per_remote_tx", "events/tx"),
    ("core.remote_tx_ns", "ns"),
    ("core.backend_call_ns", "ns"),
    ("core.backend_share", "ratio"),
    ("workloads.mem_calls_per_op", "calls/op"),
    ("workloads.self_share", "ratio"),
    ("workloads.arrivals_s", "s"),
    ("trace.overhead", "ratio"),
];

/// Timed reps always run at least this many times, whatever `--seconds`.
const MIN_REPS: usize = 4;

/// Fingerprints of rep 0, pinned per workload and seed.
const EXPECTED: &str = include_str!("../expected.json");

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How `value` was taken, for the human-readable line.
    how: String,
}

/// What one workload run reports.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn exit_code(&self) -> u8 {
        if self.correct {
            0
        } else {
            1
        }
    }

    fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
                (m.name, v)
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            a.all = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => {
                a.workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(a)
}

/// Why this process must not time anything, if it must not: debug builds
/// and knobs that switch engines or turn on in-program recording would time
/// something other than the sequential release engine.
fn refusal(debug_build: bool, vars: impl IntoIterator<Item = (String, String)>) -> Option<String> {
    if debug_build {
        return Some("refusing to time a debug build; build with --release".into());
    }
    vars.into_iter()
        .map(|(k, _)| k)
        .find(|k| {
            ["COHFREE_PARALLEL_WORLD", "COHFREE_METRICS", "COHFREE_TRACE"].contains(&k.as_str())
                || k.starts_with("COHFREE_PAR_")
        })
        .map(|k| format!("refusing to time with {k} set"))
}

/// The pinned rep-0 fingerprint of `w` at `seed`, if one is pinned.
fn pinned(w: Workload, seed: u64) -> Option<u64> {
    let doc = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    let hex = doc
        .get("fingerprints")?
        .get(w.name())?
        .get(&seed.to_string())?
        .as_str()?;
    Some(u64::from_str_radix(hex, 16).expect("pinned fingerprints are hex"))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// End-to-end metrics over the untraced reps. `speeds` holds the host
/// speed measured just before each rep (`reference.rs`); every rep's rates
/// are divided by it, and its setup time multiplied, so each reads as on
/// the nominal host. Noise on a shared host only ever slows a rep down, so
/// rates are the upper quartile over reps, which repeats across runs where
/// the median does not; set-up time is the median.
fn end_to_end(plain: &[Rep], speeds: &[f64], rss_mib: f64) -> Vec<Metric> {
    let n = plain.len();
    let speed = median(speeds);
    let scaled_rate = |f: fn(&Rep) -> f64| {
        let scaled: Vec<f64> = plain.iter().zip(speeds).map(|(r, s)| f(r) / s).collect();
        let raw: Vec<f64> = plain.iter().map(f).collect();
        let [q1, q2, q3] = quartiles(&scaled);
        let how = format!(
            "upper quartile of n={n} host-speed-scaled reps; q1 {q1:.1}, median {q2:.1}; \
             raw upper quartile {:.1}, median host speed {speed:.4}",
            quartiles(&raw)[2]
        );
        (q3, how)
    };
    let setups: Vec<f64> = plain
        .iter()
        .zip(speeds)
        .map(|(r, s)| r.setup_s * s)
        .collect();
    let raw_setup = median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    let vals = vec![
        ("ops_per_s", scaled_rate(|r| r.all.rate())),
        ("write_ops_per_s", scaled_rate(|r| r.writes.rate())),
        ("read_ops_per_s", scaled_rate(|r| r.reads.rate())),
        (
            "setup_s",
            (
                median(&setups),
                format!("median of n={n} host-speed-scaled reps; raw median {raw_setup:.6}"),
            ),
        ),
        (
            "peak_rss_mib",
            (
                rss_mib,
                "VmHWM of this process after the warm-up rep".into(),
            ),
        ),
    ];
    in_order(&END_TO_END, vals)
}

/// `vals` as metrics, in the order and with the units of `names`.
fn in_order(
    names: &[(&'static str, &'static str)],
    vals: Vec<(&str, (f64, String))>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let (value, how) = vals
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| panic!("metric {name} not computed"));
            Metric {
                name,
                unit,
                value,
                how,
            }
        })
        .collect()
}

fn per_layer(plain: &[Rep], traced: &[Rep], rec: &Recorder, first_calls: u64) -> Vec<Metric> {
    let first = &traced[0];
    let c = first.counts;
    let ops = first.all.ops as f64;
    let exact = |v: f64| (v, format!("exact, rep 1 ({} ops)", first.all.ops));
    let med = |f: fn(&Rep) -> f64| {
        let v: Vec<f64> = traced.iter().map(f).collect();
        (median(&v), format!("median of n={} traced reps", v.len()))
    };
    let backend = rec.total_of("core:MemSpace::");
    let db_ops = rec.total_of("workloads:db.");
    let uq = |reps: &[Rep]| quartiles(&reps.iter().map(|r| r.all.rate()).collect::<Vec<_>>())[2];
    let overhead = uq(plain) / uq(traced) - 1.0;
    let mut vals: Vec<(&str, (f64, String))> = vec![
        ("sim.events_per_op", exact(c.events as f64 / ops)),
        (
            "sim.events_per_s",
            med(|r| r.counts.events as f64 / r.all.secs),
        ),
        ("fabric.hops_per_op", exact(c.hops as f64 / ops)),
        ("rmc.nacks_per_op", exact(c.nacks as f64 / ops)),
        (
            "rmc.useful_ratio",
            exact(ratio(
                c.completions as f64,
                (c.completions + c.nacks + c.retransmissions) as f64,
            )),
        ),
        ("mem.cache_hit_ratio", exact(c.stats.cache_hit_ratio())),
        (
            "mem.dram_accesses_per_op",
            exact(c.dram_accesses as f64 / ops),
        ),
        (
            "os.major_faults_per_op",
            exact(c.stats.major_faults as f64 / ops),
        ),
        ("os.tlb_walks_per_op", exact(c.stats.tlb_walks as f64 / ops)),
        ("core.run_s", med(|r| r.all.secs)),
        ("core.remote_tx_per_op", exact(c.completions as f64 / ops)),
        (
            "core.events_per_remote_tx",
            exact(ratio(c.events as f64, c.completions as f64)),
        ),
        (
            "core.backend_call_ns",
            (
                ratio(backend.ns as f64, backend.count as f64),
                format!("mean of {} traced MemSpace calls", backend.count),
            ),
        ),
        (
            "core.backend_share",
            (
                ratio(db_ops.child_ns as f64, db_ops.ns as f64),
                "MemSpace child time / database op time".into(),
            ),
        ),
        (
            "workloads.mem_calls_per_op",
            exact(first_calls as f64 / ops),
        ),
        (
            "workloads.self_share",
            (
                ratio(db_ops.self_ns() as f64, db_ops.ns as f64),
                "database op time outside MemSpace calls / op time".into(),
            ),
        ),
        ("workloads.arrivals_s", med(|r| r.inputs_s)),
        (
            "trace.overhead",
            (
                overhead,
                "untraced / traced upper-quartile ops_per_s - 1".into(),
            ),
        ),
    ];
    for (name, ns) in micro::run() {
        vals.push((name, (ns, "micro row, median ns per call".into())));
    }
    in_order(&PER_LAYER, vals)
}

/// Self time by layer plus the model split of `World::run`, for the human
/// output and the trace file.
fn trace_summary(rec: &Recorder, traced: &[Rep], metrics: &[Metric]) -> Json {
    let get = |n: &str| {
        metrics
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    let reps = traced.len() as f64;
    let mean = |f: fn(&Rep) -> u64| traced.iter().map(f).sum::<u64>() as f64 / reps;
    let run_s = traced.iter().map(|r| r.all.secs).sum::<f64>() / reps;
    let model = [
        (
            "sim (events × queue_ns)",
            mean(|r| r.counts.events) * get("sim.queue_ns"),
        ),
        (
            "fabric (hops × step_ns)",
            mean(|r| r.counts.hops) * get("fabric.step_ns"),
        ),
        (
            "rmc (offers × submit_ns)",
            mean(|r| r.counts.completions + r.counts.nacks) * get("rmc.submit_ns"),
        ),
    ];
    let self_time = rec.self_time_by_layer();
    Json::obj([
        (
            "self_s_by_layer",
            Json::obj(self_time.iter().map(|(k, v)| (k.clone(), Json::from(*v)))),
        ),
        (
            "spans",
            Json::obj(rec.totals().iter().map(|(k, t)| {
                let v = Json::obj([
                    ("count", Json::from(t.count)),
                    ("s", Json::from(t.ns as f64 * 1e-9)),
                    ("self_s", Json::from(t.self_ns() as f64 * 1e-9)),
                ]);
                (k.to_string(), v)
            })),
        ),
        (
            "run_model_s_per_rep",
            Json::obj(
                model
                    .iter()
                    .map(|&(k, ns)| (k, Json::from(ns * 1e-9)))
                    .chain([("measured World::run or op phases", Json::from(run_s))]),
            ),
        ),
    ])
}

/// Every rep of one run.
struct Reps {
    warm: Rep,
    /// `VmHWM` right after the warm-up rep: the same allocations for a
    /// given seed, whereas the peak over a whole run grows with how many
    /// reps fit in it and how the heap fragments across them.
    warm_rss_mib: f64,
    plain: Vec<Rep>,
    /// Host speed measured just before each of `plain`.
    speeds: Vec<f64>,
    traced: Vec<Rep>,
}

/// Combine reps into an outcome. `pinned_ok` is false when rep 0 missed
/// its pinned fingerprint, which fails every operation of the run.
fn summarize(reps: &Reps, rec: &Recorder, first_calls: u64, pinned_ok: bool) -> Outcome {
    let Reps {
        warm,
        warm_rss_mib,
        plain,
        speeds,
        traced,
    } = reps;
    let all = || std::iter::once(warm).chain(plain).chain(traced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let mut failed: u64 = all().map(|r| r.failed).sum();
    if !pinned_ok {
        failed = attempted;
    }
    let metrics = if traced.is_empty() {
        end_to_end(plain, speeds, *warm_rss_mib)
    } else {
        per_layer(plain, traced, rec, first_calls)
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn measure(w: Workload, size: Size, seed: u64, seconds: u64, trace: bool) -> (Outcome, Json) {
    let mut reference = reference::Reference::default();
    let warm = run_rep(w, size, seed, 0, None);
    let expected = pinned(w, seed);
    let pinned_ok = expected.is_none_or(|p| p == warm.fingerprint);
    println!(
        "fingerprint rep 0 = {:016x} ({})",
        warm.fingerprint,
        match expected {
            None => "not pinned for this seed".to_string(),
            Some(p) if p == warm.fingerprint => "matches expected.json".to_string(),
            Some(p) => format!("MISMATCH: expected.json pins {p:016x}"),
        }
    );
    let rec = Recorder::default();
    let mut reps = Reps {
        warm,
        warm_rss_mib: peak_rss_mib(),
        plain: Vec::new(),
        speeds: Vec::new(),
        traced: Vec::new(),
    };
    let mut first_calls = 0;
    let t0 = Instant::now();
    let mut rep = 1u64;
    // Traced and untraced reps alternate, so slow periods hit both alike;
    // the first traced rep is always rep 1, whose exact counts repeat.
    while t0.elapsed().as_secs_f64() < seconds as f64
        || reps.plain.len() < MIN_REPS
        || (trace && reps.traced.len() < MIN_REPS)
    {
        if trace && rep % 2 == 1 {
            rec.keep_log(reps.traced.is_empty());
            reps.traced.push(run_rep(w, size, seed, rep, Some(&rec)));
            if reps.traced.len() == 1 {
                first_calls = rec.total_of("core:MemSpace::").count;
            }
        } else {
            reps.speeds.push(reference.speed());
            reps.plain.push(run_rep(w, size, seed, rep, None));
        }
        rep += 1;
    }
    let outcome = summarize(&reps, &rec, first_calls, pinned_ok);
    let summary = if trace {
        trace_summary(&rec, &reps.traced, &outcome.metrics)
    } else {
        Json::Null
    };
    (outcome, rec.chrome_json(summary))
}

fn provenance(a: &Args, w: Workload) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([(
        "provenance",
        Json::obj([
            ("workload", Json::from(w.name())),
            ("seed", Json::from(a.seed)),
            ("seconds", Json::from(a.seconds)),
            ("trace", Json::from(a.trace)),
            ("git_revision", Json::from(git_revision())),
            ("available_parallelism", Json::from(cores)),
            ("profile", Json::from("release")),
            ("engine", Json::from("sequential")),
        ]),
    )])
}

/// Run every workload, each in its own process, one after another.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal(cfg!(debug_assertions), std::env::vars()) {
        eprintln!("benchmark: {why}");
        return ExitCode::from(2);
    }
    if a.all {
        return run_all(&a);
    }
    let w = a.workload.expect("parse_args ensures a workload");
    println!("{}", provenance(&a, w));
    let (outcome, chrome) = measure(w, Size::FULL, a.seed, a.seconds, a.trace);
    for m in &outcome.metrics {
        println!("{:<28} {:>16.4} {:<10} {}", m.name, m.value, m.unit, m.how);
    }
    if a.trace {
        let dir = std::path::Path::new("target/benchmark");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name(), a.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, chrome.to_string()));
        if let Err(e) = written {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("{}", chrome.get("summary").expect("summary is set"));
        println!("trace written to {}", path.display());
    }
    println!("{}", outcome.result_json());
    ExitCode::from(outcome.exit_code())
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::tests::{corrupted_db_rep, TINY};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists metrics")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metric_names_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid BENCHMARK.json");
        let listed: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, ours);
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want = names(&doc, key);
            for w in Workload::ALL {
                let (out, _) = measure(w, TINY, 3, 0, trace);
                assert!(out.correct, "{}", w.name());
                let got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(got, want, "{} {key}", w.name());
                let json = out.result_json();
                let emitted = json.get("metrics").and_then(Json::as_object).unwrap();
                assert_eq!(emitted.len(), want.len());
            }
        }
    }

    #[test]
    fn a_corrupted_byte_fails_the_run_and_its_exit_code() {
        let bad = corrupted_db_rep();
        let reps = Reps {
            plain: vec![bad.clone(); MIN_REPS],
            speeds: vec![1.0; MIN_REPS],
            warm: bad,
            warm_rss_mib: 1.0,
            traced: Vec::new(),
        };
        let out = summarize(&reps, &Recorder::default(), 0, true);
        assert!(out.failed > 0 && out.failed < out.attempted);
        assert!(!out.correct);
        assert_ne!(out.exit_code(), 0);
        assert_eq!(out.result_json().get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn a_fingerprint_mismatch_fails_every_operation() {
        let rep = workload::run_rep(Workload::DbRemote, TINY, 3, 0, None);
        let reps = Reps {
            plain: vec![rep.clone()],
            speeds: vec![1.0],
            warm: rep,
            warm_rss_mib: 1.0,
            traced: Vec::new(),
        };
        let out = summarize(&reps, &Recorder::default(), 0, false);
        assert_eq!(out.failed, out.attempted);
        assert_ne!(out.exit_code(), 0);
    }

    #[test]
    fn guards_refuse_debug_builds_and_engine_knobs() {
        let none: Vec<(String, String)> = Vec::new();
        assert!(refusal(true, none.clone()).is_some());
        assert!(refusal(false, none).is_none());
        for k in [
            "COHFREE_PARALLEL_WORLD",
            "COHFREE_METRICS",
            "COHFREE_TRACE",
            "COHFREE_PAR_EPOCH",
        ] {
            let vars = vec![
                ("PATH".to_string(), "/bin".to_string()),
                (k.to_string(), "1".to_string()),
            ];
            assert!(
                refusal(false, vars).is_some_and(|why| why.contains(k)),
                "{k}"
            );
        }
        let harmless = vec![("COHFREE_SCALE".to_string(), "smoke".to_string())];
        assert!(refusal(false, harmless).is_none());
        // This test binary is itself a debug build: the real guard refuses.
        assert_eq!(
            refusal(cfg!(debug_assertions), std::env::vars()).is_some(),
            cfg!(debug_assertions)
        );
    }

    #[test]
    fn arguments_parse_and_malformed_ones_are_refused() {
        let v = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&v("--workload db_swap --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::DbSwap));
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (9, 3, true, false));
        assert!(parse_args(&v("--all --seed 2")).unwrap().all);
        for bad in [
            "--workload nope",
            "--workload db_swap --trace 2",
            "--workload db_swap --seed x",
            "--seed 1",
            "--all --workload db_swap",
            "--workload db_swap --bogus 1",
        ] {
            assert!(parse_args(&v(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn pinned_fingerprints_parse() {
        for w in Workload::ALL {
            for seed in [1, 2] {
                assert!(pinned(w, seed).is_some(), "{} seed {seed}", w.name());
            }
        }
    }
}
