//! EXT-TENANTS — cluster-wide scalability with many simultaneous borrowers.
//!
//! The paper's abstract claims the prototype's "feasibility and its
//! scalability"; its figures stress one borrower or one server at a time.
//! This study runs the whole cluster the way it would actually be used: k
//! nodes simultaneously run memory-hungry processes, each borrowing from a
//! directory-chosen (nearest) donor and hammering it with two threads.
//!
//! Because every region is an independent coherency domain and nearest
//! placement localizes fabric traffic, per-tenant time should stay close to
//! the solo run as tenants are added — aggregate throughput scaling almost
//! linearly. That is the architecture's scalability argument made
//! measurable (and it is *not* true of a shared-server layout, which is
//! what Fig. 8 degrades).

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{NodeId, SimDuration, SimTime};

/// One measured tenant count.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Simultaneous borrower nodes.
    pub tenants: usize,
    /// Mean per-tenant completion time (µs).
    pub mean_time_us: f64,
    /// Worst per-tenant completion time (µs).
    pub max_time_us: f64,
    /// Aggregate throughput in transactions per simulated ms.
    pub throughput_per_ms: f64,
    /// Slowdown of the mean tenant vs. the solo run.
    pub slowdown: f64,
}

/// Borrower nodes used, in activation order (spread across the mesh).
const TENANTS: [u16; 8] = [1, 6, 11, 16, 4, 13, 7, 10];

fn run_tenants(count: usize, accesses_per_thread: u64) -> (f64, f64, f64) {
    let mut w = World::new(super::cluster());
    let mut ids: Vec<Vec<usize>> = Vec::new();
    for (i, &tn) in TENANTS.iter().take(count).enumerate() {
        let node = NodeId::new(tn);
        // Directory picks the nearest donor with free frames — the
        // production placement policy.
        let resv = w.reserve_remote(node, 8_192, None);
        let zone = (resv.prefixed_base, resv.frames * 4096);
        let mut tenant_ids = Vec::new();
        for t in 0..2u64 {
            tenant_ids.push(w.spawn_thread(
                ThreadSpec {
                    node,
                    zones: vec![zone],
                    accesses: accesses_per_thread,
                    bytes: 64,
                    write_fraction: 0.2,
                    think: SimDuration::ns(5),
                    seed: 500 + (i as u64) * 8 + t,
                },
                SimTime::ZERO,
            ));
        }
        ids.push(tenant_ids);
    }
    w.run();
    let per_tenant: Vec<f64> = ids
        .iter()
        .map(|ts| {
            ts.iter()
                .map(|&t| w.thread_elapsed(t).as_us_f64())
                .fold(0.0, f64::max)
        })
        .collect();
    let mean = per_tenant.iter().sum::<f64>() / per_tenant.len() as f64;
    let max = per_tenant.iter().copied().fold(0.0, f64::max);
    let total_txns = (count as u64 * 2 * accesses_per_thread) as f64;
    let throughput = total_txns / (max / 1_000.0);
    (mean, max, throughput)
}

/// Run the tenant sweep.
pub fn run(scale: Scale) -> Vec<Row> {
    let accesses = scale.pick(1_000u64, 10_000, 100_000);
    let (solo_mean, _, _) = run_tenants(1, accesses);
    (1..=TENANTS.len())
        .map(|count| {
            let (mean, max, thr) = run_tenants(count, accesses);
            Row {
                tenants: count,
                mean_time_us: mean,
                max_time_us: max,
                throughput_per_ms: thr,
                slowdown: mean / solo_mean,
            }
        })
        .collect()
}

/// Render the study as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "EXT-TENANTS — simultaneous borrowers, nearest-donor placement",
        &["tenants", "mean_us", "max_us", "txn_per_ms", "slowdown"],
    );
    for r in &rows {
        t.row(vec![
            r.tenants.to_string(),
            format!("{:.1}", r.mean_time_us),
            format!("{:.1}", r.max_time_us),
            format!("{:.0}", r.throughput_per_ms),
            format!("{:.2}x", r.slowdown),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_scale_nearly_independently() {
        let rows = run(Scale::Smoke);
        let solo = &rows[0];
        let full = rows.last().unwrap();
        // Mean tenant slows by well under 50% even with 8 tenants.
        assert!(
            full.slowdown < 1.5,
            "8-tenant mean slowdown {} too high for independent regions",
            full.slowdown
        );
        // Aggregate throughput grows substantially (>4x for 8 tenants).
        assert!(
            full.throughput_per_ms > 4.0 * solo.throughput_per_ms,
            "aggregate throughput {} vs solo {}",
            full.throughput_per_ms,
            solo.throughput_per_ms
        );
        // Monotone non-decreasing aggregate throughput.
        for w in rows.windows(2) {
            assert!(
                w[1].throughput_per_ms > w[0].throughput_per_ms * 0.9,
                "throughput regressed: {:?}",
                w.iter().map(|r| r.throughput_per_ms).collect::<Vec<_>>()
            );
        }
    }
}
