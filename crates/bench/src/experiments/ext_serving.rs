//! EXT-SERVING — open-loop multi-tenant serving with SLO accounting,
//! healthy vs. mid-run donor crash.
//!
//! Installs two tenants from [`cohfree_workloads::serving`] on the 16-node
//! prototype — a point-KV tenant (millions of simulated users, diurnally
//! modulated Poisson arrivals, Zipf-popular 64 B accesses over two donated
//! zones) and a columnar-scan tenant (large sequential 4 KiB remote reads)
//! — and runs the same offered load twice: once undisturbed, once with the
//! KV tenant's first donor crashing mid-run while the online recovery
//! manager is live. The table reports, per tenant and cluster-wide,
//! end-to-end (arrival→completion) p50/p99/p99.9 and window availability
//! side by side: "p99.9 during churn", the number a production operator
//! asks for.
//!
//! Both cells also land in the report's `metrics.slos` section
//! (`ext_serving/nofault`, `ext_serving/crash`) via
//! [`crate::report::record_slo`], and the crash cell records its cluster
//! snapshot. The study has no knobs: 1 M KV users, 4 lanes per tenant and
//! the arrival seed base are constants, so the report is the same in every
//! environment.

use crate::table::Table;
use crate::Scale;
use cohfree_core::{FaultEvent, FaultPlan, SimDuration, SimTime, TraceMode, World};
use cohfree_sim::stats::LatencyHistogram;
use cohfree_workloads::serving::{
    self, ArrivalSpec, DiurnalProfile, RequestMix, Tenant, TenantSpec,
};

/// KV-tenant simulated user population; the scan tenant runs an eighth.
const USERS: u64 = 1_000_000;

/// Serving lanes (threads) per tenant.
const LANES: usize = 4;

/// Arrival-stream seed base (the scan tenant uses the next seed).
const SEED: u64 = 0x5E21;

/// The two tenants of the study. The KV tenant folds the full user
/// population into one diurnally modulated aggregate stream; the scan
/// tenant runs an eighth of the population at the same per-user rate.
fn tenants(scale: Scale) -> Vec<TenantSpec> {
    let kv_requests = scale.pick(2_000u64, 10_000, 50_000);
    vec![
        TenantSpec {
            name: "kv".into(),
            client: super::n(1),
            donors: vec![super::n(3), super::n(4)],
            frames_per_donor: 128,
            lanes: LANES,
            requests: kv_requests,
            mix: RequestMix::PointKv {
                zipf_s: 0.99,
                value_bytes: 64,
            },
            arrivals: ArrivalSpec {
                users: USERS,
                rate_per_user_hz: 2.0,
                diurnal: Some(DiurnalProfile {
                    period: SimDuration::us(400),
                    trough: 0.4,
                }),
                seed: SEED,
            },
            write_fraction: 0.1,
            think: SimDuration::ns(5),
            start: SimTime::ZERO,
        },
        TenantSpec {
            name: "scan".into(),
            client: super::n(2),
            donors: vec![super::n(5)],
            frames_per_donor: 128,
            lanes: LANES,
            requests: kv_requests / 4,
            mix: RequestMix::ColumnarScan { chunk_bytes: 4096 },
            arrivals: ArrivalSpec {
                users: USERS / 8,
                rate_per_user_hz: 2.0,
                diurnal: None,
                seed: SEED + 1,
            },
            write_fraction: 0.0,
            think: SimDuration::ns(20),
            start: SimTime::ZERO,
        },
    ]
}

/// One table row: a tenant (or the cluster-total line) in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `nofault` or `crash`.
    pub cell: &'static str,
    /// Tenant name or `cluster`.
    pub tenant: String,
    /// Requests generated / completed / shed / failed.
    pub generated: u64,
    /// Completed requests.
    pub completed: u64,
    /// Requests dropped by admission control.
    pub shed: u64,
    /// Requests that exhausted retries.
    pub failed: u64,
    /// End-to-end latency quantiles (arrival→completion), microseconds.
    pub p50_us: f64,
    /// p99, microseconds.
    pub p99_us: f64,
    /// p99.9, microseconds.
    pub p999_us: f64,
    /// Fraction of progress-window sample intervals with completions.
    pub availability: f64,
}

fn tenant_row(cell: &'static str, t: &Tenant, w: &World) -> (Row, LatencyHistogram) {
    let h = t.latency(w);
    let row = Row {
        cell,
        tenant: t.name.clone(),
        generated: t.generated,
        completed: t.completed(w),
        shed: t.shed(w),
        failed: t.failed(w),
        p50_us: h.quantile_ns(0.50) / 1_000.0,
        p99_us: h.quantile_ns(0.99) / 1_000.0,
        p999_us: h.quantile_ns(0.999) / 1_000.0,
        availability: t.availability(w),
    };
    (row, h)
}

/// Run one cell (faulted or not) and return its rows: one per tenant plus
/// a cluster-total row whose counters are exact sums and whose quantiles
/// come from the merged tenant histograms.
fn run_one(scale: Scale, crash: bool, record: bool) -> Vec<Row> {
    let cell = if crash { "crash" } else { "nofault" };
    let mut cfg = super::cluster();
    // Aggregate tracing feeds the SLO phase histograms; the manager is
    // live in both cells so the comparison isolates the fault itself.
    cfg.trace = TraceMode::Aggregate;
    cfg.manager = true;
    if crash {
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: SimTime::ZERO + SimDuration::us(300),
            node: super::n(3),
        });
    }
    let mut w = World::new(cfg);
    // Availability windows must be coarse relative to per-request latency
    // (a healthy-but-slow lane would alternate empty fine-grained windows).
    w.enable_sampling(super::sample_interval(scale).max(SimDuration::us(10)));
    let installed = serving::install(&mut w, &tenants(scale));
    w.run();
    if record {
        crate::report::record_slo(&format!("ext_serving/{cell}"), &w);
        if crash {
            crate::report::record_snapshot("ext_serving/crash", w.snapshot());
        }
    }
    let mut rows = Vec::new();
    let mut cluster = LatencyHistogram::new();
    for t in &installed {
        let (row, h) = tenant_row(cell, t, &w);
        rows.push(row);
        cluster.merge(&h);
    }
    // Cluster-wide availability over all completions, the same window
    // predicate as `report::slo_json`.
    let samples = w.samples();
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
    rows.push(Row {
        cell,
        tenant: "cluster".into(),
        generated: rows.iter().map(|r| r.generated).sum(),
        completed: rows.iter().map(|r| r.completed).sum(),
        shed: rows.iter().map(|r| r.shed).sum(),
        failed: rows.iter().map(|r| r.failed).sum(),
        p50_us: cluster.quantile_ns(0.50) / 1_000.0,
        p99_us: cluster.quantile_ns(0.99) / 1_000.0,
        p999_us: cluster.quantile_ns(0.999) / 1_000.0,
        availability: if windows == 0 {
            1.0
        } else {
            available as f64 / windows as f64
        },
    });
    rows
}

/// Both cells, no-fault first. Cells run sequentially so the report
/// collector sees `nofault` before `crash` deterministically.
pub fn rows(scale: Scale, record: bool) -> Vec<Row> {
    let mut out = run_one(scale, false, record);
    out.extend(run_one(scale, true, record));
    out
}

/// Build the EXT-SERVING table.
pub fn table(scale: Scale) -> Table {
    let mut t = Table::new(
        "EXT-SERVING — open-loop multi-tenant serving, healthy vs donor crash",
        &[
            "cell",
            "tenant",
            "generated",
            "completed",
            "shed",
            "failed",
            "p50_us",
            "p99_us",
            "p999_us",
            "availability",
        ],
    );
    for r in rows(scale, true) {
        t.row(vec![
            r.cell.to_string(),
            r.tenant.clone(),
            r.generated.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.failed.to_string(),
            format!("{:.2}", r.p50_us),
            format!("{:.2}", r.p99_us),
            format!("{:.2}", r.p999_us),
            format!("{:.3}", r.availability),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_and_cluster_sums() {
        let all = rows(Scale::Smoke, false);
        assert_eq!(all.len(), 6, "2 cells × (2 tenants + cluster)");
        for cell in ["nofault", "crash"] {
            let cs: Vec<&Row> = all.iter().filter(|r| r.cell == cell).collect();
            let cluster = cs.iter().find(|r| r.tenant == "cluster").unwrap();
            let tenants: Vec<&&Row> = cs.iter().filter(|r| r.tenant != "cluster").collect();
            for r in &tenants {
                assert_eq!(
                    r.completed + r.shed + r.failed,
                    r.generated,
                    "{cell}/{}: request conservation",
                    r.tenant
                );
                assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
                assert!(r.availability > 0.0 && r.availability <= 1.0);
            }
            for f in [
                |r: &Row| r.generated,
                |r: &Row| r.completed,
                |r: &Row| r.shed,
                |r: &Row| r.failed,
            ] {
                assert_eq!(
                    tenants.iter().map(|r| f(r)).sum::<u64>(),
                    f(cluster),
                    "{cell}: per-tenant rows must sum to the cluster row"
                );
            }
        }
        // The no-fault cell completes everything; the crash really bites
        // the KV tenant (lost requests or a visibly degraded tail).
        let nofault = all
            .iter()
            .find(|r| r.cell == "nofault" && r.tenant == "cluster")
            .unwrap();
        assert_eq!(nofault.completed, nofault.generated);
        let kv_ok = all
            .iter()
            .find(|r| r.cell == "nofault" && r.tenant == "kv")
            .unwrap();
        let kv_hit = all
            .iter()
            .find(|r| r.cell == "crash" && r.tenant == "kv")
            .unwrap();
        assert!(
            kv_hit.completed < kv_hit.generated || kv_hit.p999_us > kv_ok.p999_us,
            "donor crash must cost the KV tenant requests or tail latency"
        );
    }

    #[test]
    fn rows_are_deterministic() {
        assert_eq!(rows(Scale::Smoke, false), rows(Scale::Smoke, false));
    }
}
