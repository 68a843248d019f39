//! Figure 6 — remote access latency vs. hop distance.
//!
//! A single core on node 1 performs blocking 64-byte remote reads against a
//! memory server placed 1–6 hops away; we report the mean end-to-end
//! latency per distance, plus the local-DRAM reference. The paper's
//! described behaviour: latency grows with distance, remote ≫ local.

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::World;
use cohfree_core::{MsgKind, Rng, TraceMode};

/// One measured distance.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Fabric hops between client and memory server.
    pub hops: u32,
    /// Mean remote read latency in nanoseconds.
    pub mean_ns: f64,
    /// 99th-percentile latency in nanoseconds (log-bucket approximate).
    pub p99_ns: f64,
    /// Unloaded analytic estimate in nanoseconds.
    pub unloaded_ns: f64,
}

/// Run the sweep. Returns `(local reference ns, per-distance rows)`.
pub fn run(scale: Scale) -> (f64, Vec<Row>) {
    run_traced(scale, TraceMode::Off, true)
}

/// Run the sweep with an explicit trace mode. `record` controls
/// whether per-hop snapshots land in the report collector (the
/// Aggregate-tracing test in `ext_breakdown` re-runs the figure and must
/// not duplicate them).
pub fn run_traced(scale: Scale, trace: TraceMode, record: bool) -> (f64, Vec<Row>) {
    let accesses = scale.pick(50u64, 2_000, 20_000);
    let client = super::n(1);
    // Each distance is an independent world with its own derived seed, so
    // the sweep points run on the worker pool; results and snapshots are
    // merged back in input order to keep the report byte-identical to the
    // sequential sweep.
    let points = crate::parallel_map((1..=6u32).collect(), |hops| {
        let mut cfg = super::cluster();
        cfg.trace = trace;
        let mut w = World::new(cfg);
        w.enable_sampling(super::sample_interval(scale));
        let server = *w
            .config()
            .topology
            .nodes_at_distance(client, hops)
            .first()
            .expect("distance exists in a 4x4 mesh");
        let resv = w.reserve_remote(client, 4_096, Some(server));
        let mut rng = Rng::new(4242 + hops as u64);
        let mut t = cohfree_core::SimTime::ZERO;
        let t0 = t;
        for _ in 0..accesses {
            let addr = resv.prefixed_base + rng.below(resv.frames * 4096 / 64) * 64;
            t = w.blocking_transaction(t, client, server, MsgKind::ReadReq { bytes: 64 }, addr);
        }
        let mean_ns = t.since(t0).as_ns_f64() / accesses as f64;
        let p99_ns = w.client(client).latency().quantile_ns(0.99);
        let unloaded_ns = w
            .estimate_remote_read_latency(client, server, 64)
            .as_ns_f64();
        // Local reference: unloaded DRAM access on the client node.
        let local_ns = w.memory(client).unloaded_latency(64).as_ns_f64();
        let row = Row {
            hops,
            mean_ns,
            p99_ns,
            unloaded_ns,
        };
        let slo = crate::report::slo_json(&w);
        (row, local_ns, w.snapshot(), slo)
    });
    let mut rows = Vec::new();
    let mut local_ref = 0.0;
    for (row, local_ns, snap, slo) in points {
        local_ref = local_ns;
        if record {
            crate::report::record_snapshot(&format!("fig6/hops{}", row.hops), snap);
            crate::report::record_slo_json(&format!("fig6/hops{}", row.hops), slo);
        }
        rows.push(row);
    }
    (local_ref, rows)
}

/// Render the figure as a table.
pub fn table(scale: Scale) -> Table {
    let (local_ns, rows) = run(scale);
    let mut t = Table::new(
        "Fig. 6 — remote read latency vs. distance (64 B reads)",
        &["hops", "mean_ns", "p99_ns", "unloaded_ns", "vs_local"],
    );
    for r in rows {
        t.row(vec![
            r.hops.to_string(),
            format!("{:.1}", r.mean_ns),
            format!("{:.0}", r.p99_ns),
            format!("{:.1}", r.unloaded_ns),
            format!("{:.1}x", r.mean_ns / local_ns),
        ]);
    }
    t.row(vec![
        "local".into(),
        format!("{local_ns:.1}"),
        "-".into(),
        format!("{local_ns:.1}"),
        "1.0x".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_monotone_in_distance_and_dwarfs_local() {
        let (local_ns, rows) = run(Scale::Smoke);
        assert_eq!(rows.len(), 6);
        for w in rows.windows(2) {
            assert!(w[1].mean_ns > w[0].mean_ns, "{w:?}");
        }
        // Remote is prototype-class: microsecond scale, >> local DRAM.
        assert!(rows[0].mean_ns > 8.0 * local_ns);
        assert!(rows[0].mean_ns > 800.0 && rows[0].mean_ns < 5_000.0);
        // Simulation tracks the unloaded model closely when uncontended.
        for r in &rows {
            let err = (r.mean_ns - r.unloaded_ns).abs() / r.unloaded_ns;
            assert!(
                err < 0.15,
                "hop {}: sim {} vs model {}",
                r.hops,
                r.mean_ns,
                r.unloaded_ns
            );
        }
    }
}
