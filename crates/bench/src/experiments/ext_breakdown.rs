//! EXT-BREAKDOWN — per-phase latency attribution for remote accesses.
//!
//! Extension experiment over the span-tracing subsystem: where does a
//! remote access's end-to-end time go? Each scenario runs with tracing
//! enabled and reports the share of total transaction time spent in each
//! phase (serialization stall, client queue, issue, wire, fabric queue,
//! server queue, memory service, reply, retry), plus an analytic
//! cross-check of the stall share where the model predicts one:
//!
//! * **Fig. 6 workload** (single blocking reader, 1 and 6 hops): no slot
//!   contention, so the stall share is ~0 and the wire share must match
//!   the unloaded fabric model.
//! * **Fig. 7 workload** (4 threads, one request slot): the paper's
//!   serialization quirk. With `T` threads sharing one slot, each access
//!   waits out the other `T-1` holders, so the predicted stall share is
//!   `(T-1)/T = 0.75`.
//! * **Swap backend** (fabric-transport remote swap, thrashing): page
//!   faults move whole 4 KiB pages, shifting the breakdown toward wire
//!   time.
//! * **Local backend**: the reference — no remote phases at all.
//!
//! With `COHFREE_TRACE=<path>` the Full-mode span streams of the world
//! scenarios are merged into one Perfetto-loadable Chrome trace.

use crate::table::Table;
use crate::Scale;
use cohfree_core::backend::{LocalMachine, MemSpace, SwapConfig, SwapSpace, SwapTransport};
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{MsgKind, Phase, Rng, SimDuration, SimTime, TraceMode};

/// Phases reported as share columns, in table order.
pub const SHARE_PHASES: [Phase; 9] = [
    Phase::Stall,
    Phase::ClientQueue,
    Phase::Issue,
    Phase::Wire,
    Phase::FabricQueue,
    Phase::ServerQueue,
    Phase::Service,
    Phase::Reply,
    Phase::Retry,
];

/// One scenario's attribution result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Scenario label.
    pub scenario: String,
    /// Traced transactions (completed + failed).
    pub txs: u64,
    /// Mean end-to-end transaction latency in nanoseconds (local scenario:
    /// mean access latency).
    pub mean_tx_ns: f64,
    /// Share of total transaction time per phase, [`SHARE_PHASES`] order;
    /// empty for the local reference.
    pub shares: Vec<f64>,
    /// Analytic stall-share prediction, when the model gives one.
    pub predicted_stall: Option<f64>,
}

impl Row {
    /// Measured stall share (0 when no phases were traced).
    pub fn stall_share(&self) -> f64 {
        self.shares.first().copied().unwrap_or(0.0)
    }

    /// Measured wire share (0 when no phases were traced).
    pub fn wire_share(&self) -> f64 {
        self.shares.get(3).copied().unwrap_or(0.0)
    }
}

/// Summarize a traced world into `(txs, mean_tx_ns, shares)`.
fn attribution(w: &World) -> (u64, f64, Vec<f64>) {
    let t = w.trace();
    let txs = t.completed() + t.failed();
    let total = t.phase_total_ns(Phase::Tx);
    let count = t.phase_hist(Phase::Tx).count();
    let mean = if count > 0 { total / count as f64 } else { 0.0 };
    let shares = SHARE_PHASES
        .iter()
        .map(|&p| {
            if total > 0.0 {
                t.phase_total_ns(p) / total
            } else {
                0.0
            }
        })
        .collect();
    (txs, mean, shares)
}

/// Scenario: the Fig. 6 workload — one blocking reader at `hops` hops.
fn fig6_like(scale: Scale, hops: u32) -> (Row, World) {
    let accesses = scale.pick(200u64, 2_000, 20_000);
    let client = super::n(1);
    let mut cfg = super::cluster();
    cfg.trace = TraceMode::Full;
    let mut w = World::new(cfg);
    let server = *w
        .config()
        .topology
        .nodes_at_distance(client, hops)
        .first()
        .expect("distance exists in a 4x4 mesh");
    let resv = w.reserve_remote(client, 4_096, Some(server));
    let mut rng = Rng::new(77_000 + hops as u64);
    let mut t = SimTime::ZERO;
    for _ in 0..accesses {
        let addr = resv.prefixed_base + rng.below(resv.frames * 4096 / 64) * 64;
        t = w.blocking_transaction(t, client, server, MsgKind::ReadReq { bytes: 64 }, addr);
    }
    let (txs, mean, shares) = attribution(&w);
    let row = Row {
        scenario: format!("remote read, {hops} hop{}", if hops > 1 { "s" } else { "" }),
        txs,
        mean_tx_ns: mean,
        shares,
        predicted_stall: Some(0.0),
    };
    (row, w)
}

/// Scenario: the Fig. 7 saturation workload — `threads` threads on one
/// node sharing a single RMC request slot, one server one hop away.
fn fig7_like(scale: Scale, threads: u64) -> (Row, World) {
    let per_thread = scale.pick(300u64, 5_000, 50_000);
    let client = super::n(6); // interior node
    let mut cfg = super::cluster();
    cfg.rmc.request_slots = 1;
    cfg.trace = TraceMode::Full;
    let mut w = World::new(cfg);
    let server = *w
        .config()
        .topology
        .nodes_at_distance(client, 1)
        .first()
        .expect("1-hop neighbour");
    let resv = w.reserve_remote(client, 8_192, Some(server));
    for k in 0..threads {
        w.spawn_thread(
            ThreadSpec {
                node: client,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: per_thread,
                bytes: 64,
                write_fraction: 0.0,
                think: SimDuration::ns(5),
                seed: 31_000 + k,
            },
            SimTime::ZERO,
        );
    }
    w.run();
    let (txs, mean, shares) = attribution(&w);
    let row = Row {
        scenario: format!("{threads} threads, 1 slot"),
        txs,
        mean_tx_ns: mean,
        shares,
        // T threads share one slot: an access waits out the other T-1
        // holders before its own turn, so stall/(stall+own) = (T-1)/T.
        predicted_stall: Some((threads - 1) as f64 / threads as f64),
    };
    (row, w)
}

/// Scenario: fabric-transport remote swap, thrashing (Fig. 9-class swap
/// baseline under the worst locality).
fn swap_like(scale: Scale) -> Row {
    let pages = scale.pick(32u64, 128, 512);
    let sweeps = scale.pick(2u32, 4, 8);
    let mut cfg = super::cluster();
    cfg.trace = TraceMode::Aggregate;
    let mut m = SwapSpace::remote(
        cfg,
        super::n(1),
        SwapConfig {
            cache_pages: pages as usize / 4,
            zone_frames: 4_096,
            servers: Some(vec![super::n(2)]),
            transport: SwapTransport::Fabric,
        },
    );
    let va = m.alloc(pages * 4096);
    for i in 0..pages {
        m.write_u64(va + i * 4096, i);
    }
    for _ in 0..sweeps {
        for i in 0..pages {
            m.read_u64(va + i * 4096);
        }
    }
    let w = m.world().expect("fabric swap has a world");
    let (txs, mean, shares) = attribution(w);
    Row {
        scenario: "remote swap (4 KiB pages)".to_string(),
        txs,
        mean_tx_ns: mean,
        shares,
        predicted_stall: None,
    }
}

/// Scenario: the all-local reference machine (no remote phases).
fn local_like(scale: Scale) -> Row {
    let accesses = scale.pick(2_000u64, 20_000, 200_000);
    let bytes = 1u64 << 22;
    let mut m = LocalMachine::new(super::cluster(), 1 << 30);
    let va = m.alloc(bytes);
    let mut rng = Rng::new(4_040);
    let t0 = m.now();
    for _ in 0..accesses {
        m.read_u64(va + rng.below(bytes / 8 - 1) * 8);
    }
    Row {
        scenario: "local memory".to_string(),
        txs: accesses,
        mean_tx_ns: m.now().since(t0).as_ns_f64() / accesses as f64,
        shares: Vec::new(),
        predicted_stall: None,
    }
}

/// Run all scenarios. World-backed scenarios are traced in Full mode and
/// their span streams recorded for `COHFREE_TRACE` export.
pub fn run(scale: Scale) -> Vec<Row> {
    let mut rows = Vec::new();
    for hops in [1u32, 6] {
        let (row, w) = fig6_like(scale, hops);
        let name = format!("ext_breakdown/remote_{hops}hop");
        crate::report::record_snapshot(&name, w.snapshot());
        crate::report::record_trace(&name, &w);
        rows.push(row);
    }
    let (row, w) = fig7_like(scale, 4);
    crate::report::record_snapshot("ext_breakdown/4t_1slot", w.snapshot());
    crate::report::record_trace("ext_breakdown/4t_1slot", &w);
    rows.push(row);
    rows.push(swap_like(scale));
    rows.push(local_like(scale));
    rows
}

/// Render the attribution table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "EXT-BREAKDOWN — per-phase latency attribution of remote accesses",
        &[
            "scenario",
            "txs",
            "mean_tx_ns",
            "stall",
            "client_q",
            "issue",
            "wire",
            "fabric_q",
            "server_q",
            "service",
            "reply",
            "retry",
            "pred_stall",
        ],
    );
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    for r in &rows {
        let mut cells = vec![
            r.scenario.clone(),
            r.txs.to_string(),
            format!("{:.1}", r.mean_tx_ns),
        ];
        if r.shares.is_empty() {
            cells.extend(std::iter::repeat_n("-".to_string(), SHARE_PHASES.len()));
        } else {
            cells.extend(r.shares.iter().map(|&s| pct(s)));
        }
        cells.push(match r.predicted_stall {
            Some(p) => pct(p),
            None => "-".to_string(),
        });
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_share_matches_the_analytic_model() {
        let rows = run(Scale::Smoke);
        // Uncontended blocking reads: stall is (essentially) zero.
        let r1 = &rows[0];
        assert!(
            r1.stall_share() < 0.02,
            "1-hop blocking stall share {}",
            r1.stall_share()
        );
        // Phase shares of a traced scenario sum to 1 (exact tiling).
        let sum: f64 = r1.shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        // 4 threads on 1 slot: stall share within 10% of (T-1)/T.
        let r4 = rows
            .iter()
            .find(|r| r.scenario.starts_with("4 threads"))
            .expect("fig7 scenario present");
        let predicted = r4.predicted_stall.unwrap();
        let measured = r4.stall_share();
        assert!(
            (measured - predicted).abs() / predicted < 0.10,
            "stall share {measured} vs predicted {predicted}"
        );
        // Wire share grows with distance.
        assert!(
            rows[1].wire_share() > r1.wire_share(),
            "6-hop wire share {} must exceed 1-hop {}",
            rows[1].wire_share(),
            r1.wire_share()
        );
        // Swap moves whole pages: its transactions are much longer.
        let swap = rows
            .iter()
            .find(|r| r.scenario.starts_with("remote swap"))
            .unwrap();
        assert!(swap.txs > 0, "swap scenario traced no transactions");
        assert!(swap.mean_tx_ns > r1.mean_tx_ns);
        // Local reference is far below any remote scenario.
        let local = rows.iter().find(|r| r.scenario == "local memory").unwrap();
        assert!(local.mean_tx_ns < r1.mean_tx_ns / 5.0);
    }

    #[test]
    fn one_hop_breakdown_matches_the_unloaded_model() {
        let (row, w) = fig6_like(Scale::Smoke, 1);
        let client = super::super::n(1);
        let server = *w
            .config()
            .topology
            .nodes_at_distance(client, 1)
            .first()
            .unwrap();
        let est = w
            .estimate_remote_read_latency(client, server, 64)
            .as_ns_f64();
        // Mean measured latency tracks the unloaded estimate...
        let err = (row.mean_tx_ns - est).abs() / est;
        assert!(err < 0.15, "mean {} vs estimate {est}", row.mean_tx_ns);
        // ...and the wire share matches the model's wire fraction.
        let hops = w.config().topology.hops(client, server);
        let req = MsgKind::ReadReq { bytes: 64 };
        let resp = MsgKind::ReadResp { bytes: 64 };
        let wire_est = w.fabric().unloaded_latency(req.wire_bytes(), hops)
            + w.fabric().unloaded_latency(resp.wire_bytes(), hops);
        let predicted_wire = wire_est.as_ns_f64() / est;
        let measured_wire = row.wire_share();
        assert!(
            (measured_wire - predicted_wire).abs() / predicted_wire < 0.10,
            "wire share {measured_wire} vs predicted {predicted_wire}"
        );
    }

    #[test]
    fn aggregate_tracing_does_not_change_simulated_results() {
        // The Fig. 6 sweep (world construction, sampling probe and final
        // snapshots included) with tracing Off and Aggregate.
        let rows = |trace| {
            let (local, rows) = crate::experiments::fig6::run_traced(Scale::Smoke, trace, false);
            let rows: Vec<(u32, f64, f64)> =
                rows.iter().map(|r| (r.hops, r.mean_ns, r.p99_ns)).collect();
            (local, rows)
        };
        assert_eq!(
            rows(TraceMode::Off),
            rows(TraceMode::Aggregate),
            "tracing must not perturb the simulation"
        );
    }
}
