//! The performance-regression harness behind `--bin perf`.
//!
//! Micro benchmarks time the simulator's hottest primitives (event-queue
//! push/pop, one fabric hop, one blocking remote transaction) with the
//! batched [`crate::bencher`]; macro benchmarks time whole smoke-scale
//! figure runs and report engine throughput in events per second. Results
//! land in the standard report document (`COHFREE_JSON=BENCH_PERF.json`)
//! and can be gated against a checked-in baseline with a wide,
//! machine-tolerant regression bound.
//!
//! ## Baseline policy
//!
//! `crates/bench/perf_baseline.json` is a committed `BENCH_PERF.json` from
//! a routine dev-container run. Absolute nanoseconds vary between hosts by
//! far more than any optimization we care about, so the compare mode only
//! fails on *gross* regressions — `current > tolerance × baseline` with a
//! default tolerance of 3× — which survives noisy shared CI runners while
//! still catching an accidental return to heap-per-event or hash-per-hop
//! behaviour. Refresh the baseline whenever an intentional change moves the
//! numbers: rerun the bin with `COHFREE_JSON` pointing at the baseline
//! path and commit the result.

use crate::bencher::{bench_function, BenchResult};
use crate::table::Table;
use crate::Scale;
use cohfree_core::world::World;
use cohfree_core::{Json, MsgKind, SimDuration, SimTime};
use cohfree_sim::EventQueue;

/// One macro measurement: a whole smoke-scale experiment.
#[derive(Debug, Clone)]
pub struct MacroResult {
    /// Benchmark name (`macro/fig6`, ...).
    pub name: String,
    /// Best-of-repetitions wall time in milliseconds.
    pub wall_ms: f64,
    /// Engine events processed per wall-clock second, taken from the same
    /// repetition that produced `wall_ms`.
    pub events_per_sec: f64,
}

/// Run the micro suite and return one result per primitive.
pub fn micro() -> Vec<BenchResult> {
    let mut out = Vec::new();

    // Event queue: steady-state schedule+pop against a populated queue,
    // delays spread across front, ring and overflow ranges.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut t = SimTime::ZERO;
    for i in 0..4_096u64 {
        q.schedule(t + SimDuration::ns(i % 900), i);
    }
    let mut i = 0u64;
    out.push(bench_function("micro/event_queue_push_pop", || {
        let (at, v) = q.pop().expect("queue stays non-empty");
        t = at;
        // Re-schedule at a delay that cycles through bucket regimes.
        let dly = [7u64, 130, 950, 17_000, 70_000][(i % 5) as usize];
        q.schedule(t + SimDuration::ns(dly), v);
        i += 1;
    }));

    // One fabric hop: forwarding step of a 64 B read between neighbours,
    // including link FIFO accounting.
    let mut fabric = cohfree_fabric::Fabric::new(
        cohfree_core::Topology::Mesh2D {
            width: 4,
            height: 4,
        },
        cohfree_fabric::FabricConfig::default(),
    );
    let src = cohfree_core::NodeId::new(1);
    let msg = cohfree_fabric::Message::new(
        src,
        cohfree_core::NodeId::new(2),
        MsgKind::ReadReq { bytes: 64 },
        1,
    );
    let mut now = SimTime::ZERO;
    out.push(bench_function("micro/fabric_hop", || {
        now += SimDuration::ns(100);
        std::hint::black_box(fabric.step(now, src, &msg));
    }));

    // One blocking remote transaction end to end: client RMC, six fabric
    // hops each way, server RMC and DRAM — the simulator's unit of work.
    let mut w = World::new(cohfree_core::ClusterConfig::prototype());
    let client = cohfree_core::NodeId::new(1);
    let server = cohfree_core::NodeId::new(16);
    let resv = w.reserve_remote(client, 1_024, Some(server));
    let mut at = SimTime::ZERO;
    let mut addr = resv.prefixed_base;
    out.push(bench_function("micro/remote_transaction", || {
        at = w.blocking_transaction(at, client, server, MsgKind::ReadReq { bytes: 64 }, addr);
        addr = resv.prefixed_base + (addr + 64 - resv.prefixed_base) % (resv.frames * 4096);
    }));

    out
}

/// Run the macro suite: smoke-scale figure wall clock plus engine
/// throughput. Wall times are best-of-3 to suppress scheduler noise.
pub fn macro_suite() -> Vec<MacroResult> {
    let mut out = Vec::new();
    // Best of 3 repetitions; each returns the engine-event count it
    // processed, so every row carries an events/second throughput taken
    // from the same (fastest) repetition as the wall time.
    fn best_of(mut f: impl FnMut() -> u64) -> (f64, f64) {
        let mut best = (f64::INFINITY, 0.0);
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            let events = f();
            let secs = t0.elapsed().as_secs_f64();
            if secs * 1e3 < best.0 {
                best = (secs * 1e3, events as f64 / secs.max(1e-9));
            }
        }
        best
    }

    let (wall_ms, events_per_sec) = best_of(|| {
        let (_, _, events) = std::hint::black_box(crate::experiments::fig6::run(Scale::Smoke));
        events
    });
    out.push(MacroResult {
        name: "macro/fig6".into(),
        wall_ms,
        events_per_sec,
    });

    let (wall_ms, events_per_sec) = best_of(|| {
        let (_, events) = std::hint::black_box(crate::experiments::fig7::run(Scale::Smoke));
        events
    });
    out.push(MacroResult {
        name: "macro/fig7".into(),
        wall_ms,
        events_per_sec,
    });

    // Engine throughput: a saturated 8-thread random-read world, measured
    // as events processed per wall second.
    let (wall_ms, events_per_sec) = best_of(|| {
        let mut w = World::new(cohfree_core::ClusterConfig::prototype());
        let client = cohfree_core::NodeId::new(1);
        let resv = w.reserve_remote(client, 8_192, Some(cohfree_core::NodeId::new(16)));
        for k in 0..8u64 {
            w.spawn_thread(
                cohfree_core::world::ThreadSpec {
                    node: client,
                    zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                    accesses: 4_000,
                    bytes: 64,
                    write_fraction: 0.2,
                    think: SimDuration::ns(5),
                    seed: 7_000 + k,
                },
                SimTime::ZERO,
            );
        }
        w.run();
        w.events_processed()
    });
    out.push(MacroResult {
        name: "macro/engine_throughput".into(),
        wall_ms,
        events_per_sec,
    });

    // Big-world engine row: a 256-node swap-heavy world.
    let (wall_ms, events_per_sec) = best_of(|| {
        let mut w = big_world();
        w.run();
        w.events_processed()
    });
    out.push(MacroResult {
        name: "macro/big_world_seq".into(),
        wall_ms,
        events_per_sec,
    });

    // Open-loop serving row: a 256-node multi-tenant serving world. Serving
    // threads stress paths the closed-loop big world never touches —
    // arrival-clamped wakes, zipf addressing, per-request latency
    // histograms — so they get their own row.
    let (wall_ms, events_per_sec) = best_of(|| {
        let mut w = serving_world();
        w.run();
        w.events_processed()
    });
    out.push(MacroResult {
        name: "macro/serving_seq".into(),
        wall_ms,
        events_per_sec,
    });

    // Recovery-manager chaos cell: a crash-storm world with the manager
    // enabled, guarding the observation/decision loop and the proactive
    // migration path against wall-clock regression.
    let (wall_ms, events_per_sec) = best_of(|| {
        let mut w = crate::chaos::build_world(
            crate::chaos::ChaosSpec {
                scenario: crate::chaos::Scenario::CrashStorm,
                seed: 0xC4A0,
                manager: true,
            },
            500,
        );
        w.run();
        w.events_processed()
    });
    out.push(MacroResult {
        name: "macro/chaos_manager".into(),
        wall_ms,
        events_per_sec,
    });

    out
}

/// The ≥256-node world behind the `macro/big_world_seq` row: a 16×16 mesh
/// with 128 swap-heavy client threads spread across the machine, each
/// hammering a zone borrowed from a distant donor. Every node is either a
/// client or a donor.
pub fn big_world() -> World {
    let mut cfg = cohfree_core::ClusterConfig::prototype();
    cfg.topology = cohfree_core::Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    let mut w = World::new(cfg);
    for k in 0..128u64 {
        let client = cohfree_core::NodeId::new((k * 2 + 1) as u16);
        let donor = cohfree_core::NodeId::new((256 - k * 2) as u16);
        let resv = w.reserve_remote(client, 1_024, Some(donor));
        w.spawn_thread(
            cohfree_core::world::ThreadSpec {
                node: client,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: 625,
                bytes: 64,
                write_fraction: 0.3,
                think: SimDuration::ns(5),
                seed: 9_900 + k,
            },
            SimTime::ZERO,
        );
    }
    w
}

/// The 256-node world behind the `macro/serving_seq` row: sixteen open-loop
/// tenants (alternating zipf point-KV and sequential columnar-scan mixes)
/// spread across a 16×16 mesh, each folding a quarter-million simulated
/// users into a Poisson arrival stream over four serving lanes. Clients
/// and donors sit in different mesh rows.
pub fn serving_world() -> World {
    use cohfree_workloads::serving::{ArrivalSpec, RequestMix, TenantSpec};
    let mut cfg = cohfree_core::ClusterConfig::prototype();
    cfg.topology = cohfree_core::Topology::Mesh2D {
        width: 16,
        height: 16,
    };
    let mut w = World::new(cfg);
    let tenants: Vec<TenantSpec> = (0..16u64)
        .map(|k| TenantSpec {
            name: format!("t{k}"),
            client: cohfree_core::NodeId::new((k * 16 + 1) as u16),
            donors: vec![cohfree_core::NodeId::new((256 - k * 16) as u16)],
            frames_per_donor: 256,
            lanes: 4,
            requests: 1_500,
            mix: if k % 2 == 0 {
                RequestMix::PointKv {
                    zipf_s: 0.9,
                    value_bytes: 64,
                }
            } else {
                RequestMix::ColumnarScan { chunk_bytes: 1024 }
            },
            arrivals: ArrivalSpec {
                users: 250_000,
                rate_per_user_hz: 4.0,
                diurnal: None,
                seed: 0x5EC0 + k,
            },
            write_fraction: 0.1,
            think: SimDuration::ns(5),
            start: SimTime::ZERO,
        })
        .collect();
    cohfree_workloads::serving::install(&mut w, &tenants);
    w
}

/// The zero-cost-when-off contract, measured: events/second of the
/// sequential big-world row with the self-profiling registry disabled vs
/// enabled, best of 5 repetitions each (`(off_eps, on_eps)`). The
/// sequential engine is the hottest per-event path, so it is where a
/// probe that is not truly branch-only would show first. The registry
/// tier found on entry is restored before returning.
pub fn metrics_overhead() -> (f64, f64) {
    use cohfree_sim::metrics;
    fn best_eps() -> f64 {
        let mut best = 0.0f64;
        for _ in 0..5 {
            let mut w = big_world();
            let t0 = std::time::Instant::now();
            w.run();
            let eps = w.events_processed() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
            best = best.max(eps);
        }
        best
    }
    let was = metrics::enabled();
    // Force the one-shot COHFREE_METRICS auto-enable (first World::new in
    // the process) to fire *before* we pin the tier, so it cannot flip the
    // registry back on mid-measurement.
    drop(World::new(cohfree_core::ClusterConfig::prototype()));
    metrics::set_enabled(false);
    let off = best_eps();
    metrics::set_enabled(true);
    metrics::reset();
    let on = best_eps();
    metrics::set_enabled(was);
    (off, on)
}

/// Render the suites as the two gated `PERF — ` report tables (recorded
/// via [`Table::print`]).
pub fn tables(micro: &[BenchResult], mac: &[MacroResult]) -> Vec<Table> {
    let mut tm = Table::new(
        "PERF — microbenchmarks (batched, median of samples)",
        &["name", "median_ns", "best_ns", "batch"],
    );
    for r in micro {
        tm.row(vec![
            r.name.clone(),
            format!("{:.1}", r.median_ns),
            format!("{:.1}", r.best_ns),
            r.batch.to_string(),
        ]);
    }
    let mut tg = Table::new(
        "PERF — macrobenchmarks (smoke scale, best of 3)",
        &["name", "wall_ms", "events_per_sec"],
    );
    for r in mac {
        tg.row(vec![
            r.name.clone(),
            format!("{:.1}", r.wall_ms),
            if r.events_per_sec > 0.0 {
                format!("{:.0}", r.events_per_sec)
            } else {
                "-".into()
            },
        ]);
    }
    vec![tm, tg]
}

/// `(name, headline-metric)` pairs for the regression gate: median ns for
/// micro rows, wall ms for macro rows. Lower is better for every metric.
pub fn metrics(micro: &[BenchResult], mac: &[MacroResult]) -> Vec<(String, f64)> {
    micro
        .iter()
        .map(|r| (r.name.clone(), r.median_ns))
        .chain(mac.iter().map(|r| (r.name.clone(), r.wall_ms)))
        .collect()
}

/// Extract the same `(name, metric)` pairs from a previously written
/// `BENCH_PERF.json` document (the checked-in baseline).
pub fn metrics_from_document(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let tables = doc
        .get("tables")
        .and_then(Json::as_array)
        .ok_or("baseline has no tables array")?;
    let mut out = Vec::new();
    for t in tables {
        let title = t.get("title").and_then(Json::as_str).unwrap_or("");
        // Column 1 carries the headline metric in both PERF tables.
        if !title.starts_with("PERF — ") {
            continue;
        }
        for row in t
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("PERF table has no rows")?
        {
            let cells = row.as_array().ok_or("PERF row is not an array")?;
            let name = cells
                .first()
                .and_then(Json::as_str)
                .ok_or("PERF row has no name")?;
            let metric: f64 = cells
                .get(1)
                .and_then(Json::as_str)
                .ok_or("PERF row has no metric")?
                .parse()
                .map_err(|e| format!("unparsable metric for {name}: {e}"))?;
            out.push((name.to_string(), metric));
        }
    }
    if out.is_empty() {
        return Err("no PERF rows found in baseline".into());
    }
    Ok(out)
}

/// Compare current metrics against a baseline: every benchmark present in
/// both must satisfy `current <= tolerance * baseline`. Returns the list of
/// violations as human-readable lines (empty = pass). Benchmarks only on
/// one side are reported informationally by the caller, never failures —
/// adding a bench must not break an older baseline.
pub fn compare(
    current: &[(String, f64)],
    baseline: &[(String, f64)],
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, cur) in current {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *cur > tolerance * base {
            violations.push(format!(
                "{name}: {cur:.1} vs baseline {base:.1} (>{tolerance:.1}x)"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recovery manager's idle cost on a healthy cluster, measured in
    /// engine events (deterministic, host-independent): enabling it on a
    /// fault-free world must stay under 3% extra events — the periodic
    /// observation tick plus nothing else, since no Shed/Readmit/Rehome
    /// ever fires without a fault.
    #[test]
    fn manager_overhead_on_a_fault_free_world_is_under_three_percent() {
        let events = |manager: bool| {
            let mut cfg = cohfree_core::ClusterConfig::prototype();
            if manager {
                cfg.manager = cohfree_core::ManagerConfig::enabled();
            }
            let mut w = World::new(cfg);
            let client = cohfree_core::NodeId::new(1);
            let resv = w.reserve_remote(client, 2_048, Some(cohfree_core::NodeId::new(16)));
            for k in 0..4u64 {
                w.spawn_thread(
                    cohfree_core::world::ThreadSpec {
                        node: client,
                        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                        accesses: 2_000,
                        bytes: 64,
                        write_fraction: 0.2,
                        think: SimDuration::ns(5),
                        seed: 4_400 + k,
                    },
                    SimTime::ZERO,
                );
            }
            w.run();
            (w.events_processed(), w.now())
        };
        let (off, t_off) = events(false);
        let (on, t_on) = events(true);
        // The final manager tick drains after the last workload event, so
        // the end time may trail by at most one tick period.
        assert!(
            t_on >= t_off && t_on.since(t_off) <= SimDuration::us(2),
            "an idle manager must not perturb the workload ({t_on:?} vs {t_off:?})"
        );
        let overhead = on as f64 / off as f64 - 1.0;
        assert!(
            overhead < 0.03,
            "manager adds {:.2}% events on a fault-free world ({on} vs {off})",
            overhead * 100.0
        );
    }

    #[test]
    fn compare_flags_only_gross_regressions() {
        let base = vec![("a".to_string(), 100.0), ("b".to_string(), 10.0)];
        let ok = vec![("a".to_string(), 250.0), ("b".to_string(), 9.0)];
        assert!(compare(&ok, &base, 3.0).is_empty());
        let bad = vec![("a".to_string(), 301.0), ("b".to_string(), 9.0)];
        let v = compare(&bad, &base, 3.0);
        assert_eq!(v.len(), 1);
        assert!(v[0].starts_with("a:"), "{v:?}");
        // A bench missing from the baseline is not a failure.
        let newer = vec![("c".to_string(), 1e9)];
        assert!(compare(&newer, &base, 3.0).is_empty());
    }

    #[test]
    fn metrics_round_trip_through_the_report_document() {
        let micro = vec![BenchResult {
            name: "micro/x".into(),
            median_ns: 12.5,
            best_ns: 11.0,
            batch: 1024,
            samples: 25,
        }];
        let mac = vec![
            MacroResult {
                name: "macro/big_world_seq".into(),
                wall_ms: 42.0,
                events_per_sec: 1e6,
            },
            MacroResult {
                name: "macro/serving_seq".into(),
                wall_ms: 21.0,
                events_per_sec: 2e6,
            },
        ];
        let ts = tables(&micro, &mac);
        assert_eq!(ts.len(), 2, "micro + macro");
        let doc = Json::obj([("tables", Json::Arr(ts.iter().map(Table::to_json).collect()))]);
        let parsed = metrics_from_document(&doc).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], ("micro/x".to_string(), 12.5));
        assert_eq!(parsed[1], ("macro/big_world_seq".to_string(), 42.0));
        assert_eq!(parsed[2], ("macro/serving_seq".to_string(), 21.0));
        // A non-`PERF — ` table is never read by the gate.
        let mut other = Table::new("notes", &["name", "value"]);
        other.row(vec!["macro/x".into(), "1.0".into()]);
        let doc = Json::obj([(
            "tables",
            Json::Arr(ts.iter().chain([&other]).map(Table::to_json).collect()),
        )]);
        assert_eq!(metrics_from_document(&doc).unwrap(), parsed);
        // The gate compares like for like.
        assert!(compare(&parsed, &parsed, 1.0).is_empty());
    }
}
