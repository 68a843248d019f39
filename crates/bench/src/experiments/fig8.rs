//! Figure 8 — server-side congestion.
//!
//! One memory server (node 6). A *control thread* runs on node 10, which is
//! directly connected to the server by a link no other traffic uses (all
//! stress nodes are chosen so their dimension-order routes avoid it). We
//! measure the control thread's execution time for a fixed access count
//! while 0–7 stress nodes, each with 1–4 threads, hammer the same server.
//!
//! Paper's findings reproduced: flat up to a few stressing nodes, then the
//! control thread slows as the **server RMC** (not the network) congests;
//! and total pressure keeps growing beyond 2 threads per client because
//! network latency relieves the *client* RMC bottleneck.

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{SimDuration, SimTime};

/// Server node (interior).
const SERVER: u16 = 6;
/// Control node: one hop from the server over a private link (10 -> 6).
const CONTROL: u16 = 10;
/// Stress nodes whose x-first routes to node 6 avoid the 10->6 link.
const STRESS: [u16; 7] = [1, 2, 3, 4, 5, 7, 8];

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Stressing client nodes.
    pub stress_nodes: usize,
    /// Threads per stressing node.
    pub threads_per_node: u64,
    /// Control-thread execution time in microseconds.
    pub control_time_us: f64,
    /// Server RMC engine utilization over the control thread's lifetime.
    pub server_utilization: f64,
}

fn run_config(
    scale: Scale,
    control_accesses: u64,
    stress_nodes: usize,
    threads_per_node: u64,
) -> Row {
    let server = super::n(SERVER);
    let control = super::n(CONTROL);
    let mut w = World::new(super::cluster());
    // Time-series snapshots only for the fully-stressed configurations —
    // the ones whose server-side congestion the figure is about.
    if stress_nodes == STRESS.len() {
        w.enable_sampling(super::sample_interval(scale));
    }
    let control_resv = w.reserve_remote(control, 8_192, Some(server));
    let control_zone = (control_resv.prefixed_base, control_resv.frames * 4096);

    let control_id = w.spawn_thread(
        ThreadSpec {
            node: control,
            zones: vec![control_zone],
            accesses: control_accesses,
            bytes: 64,
            write_fraction: 0.0,
            think: SimDuration::ns(5),
            seed: 77,
        },
        SimTime::ZERO,
    );
    for (i, &sn) in STRESS.iter().take(stress_nodes).enumerate() {
        let node = super::n(sn);
        let resv = w.reserve_remote(node, 4_096, Some(server));
        let zone = (resv.prefixed_base, resv.frames * 4096);
        for t in 0..threads_per_node {
            // Stress threads run far longer than the control thread so the
            // pressure is sustained over its whole lifetime.
            w.spawn_thread(
                ThreadSpec {
                    node,
                    zones: vec![zone],
                    accesses: control_accesses * 4,
                    bytes: 64,
                    write_fraction: 0.0,
                    think: SimDuration::ns(5),
                    seed: 1_000 + (i as u64) * 16 + t,
                },
                SimTime::ZERO,
            );
        }
    }
    w.run();
    if stress_nodes == STRESS.len() {
        crate::report::record_snapshot(
            &format!("fig8/{stress_nodes}nodes_{threads_per_node}t"),
            w.snapshot(),
        );
    }
    let elapsed = w.thread_elapsed(control_id);
    Row {
        stress_nodes,
        threads_per_node,
        control_time_us: elapsed.as_us_f64(),
        server_utilization: w.server(server).engine_utilization(SimTime::ZERO + elapsed),
    }
}

/// Run the sweep: 0..=7 stress nodes × {1, 2, 4} threads each.
pub fn run(scale: Scale) -> Vec<Row> {
    let control_accesses = scale.pick(500u64, 5_000, 50_000);
    let mut rows = Vec::new();
    for &tpn in &[1u64, 2, 4] {
        for nodes in 0..=STRESS.len() {
            if nodes == 0 && tpn > 1 {
                continue; // zero-stress baseline measured once
            }
            rows.push(run_config(scale, control_accesses, nodes, tpn));
        }
    }
    rows
}

/// Render the figure as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "Fig. 8 — control-thread time vs. clients stressing one memory server",
        &[
            "stress_nodes",
            "threads_per_node",
            "control_time_us",
            "server_util",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.stress_nodes.to_string(),
            r.threads_per_node.to_string(),
            format!("{:.1}", r.control_time_us),
            format!("{:.2}", r.server_utilization),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_routes_avoid_the_control_link() {
        // The experimental setup's premise: no stress node's route to the
        // server crosses the control link (10 -> 6), in either direction.
        let topo = super::super::cluster().topology;
        for &s in &STRESS {
            let to = topo.route(super::super::n(s), super::super::n(SERVER));
            let from = topo.route(super::super::n(SERVER), super::super::n(s));
            for path in [&to, &from] {
                for w in path.windows(2) {
                    assert!(
                        !(w[0] == super::super::n(CONTROL) && w[1] == super::super::n(SERVER)),
                        "stress node {s} uses the control link"
                    );
                }
            }
            assert!(
                !to.contains(&super::super::n(CONTROL)),
                "stress {s} transits control node"
            );
        }
        assert_eq!(
            topo.hops(super::super::n(CONTROL), super::super::n(SERVER)),
            1
        );
    }

    #[test]
    fn control_thread_flat_then_degrading() {
        let control_accesses = 400;
        let r0 = run_config(Scale::Smoke, control_accesses, 0, 1);
        let r2 = run_config(Scale::Smoke, control_accesses, 2, 4);
        let r7 = run_config(Scale::Smoke, control_accesses, 7, 4);
        // Light stress barely moves the control thread…
        assert!(
            r2.control_time_us < r0.control_time_us * 1.5,
            "2 nodes: {} vs {}",
            r2.control_time_us,
            r0.control_time_us
        );
        // …heavy stress visibly degrades it (server RMC congestion).
        assert!(
            r7.control_time_us > r2.control_time_us * 1.1,
            "7 nodes {} !> 2 nodes {}",
            r7.control_time_us,
            r2.control_time_us
        );
        assert!(
            r7.server_utilization > r2.server_utilization,
            "server utilization must climb: {} vs {}",
            r7.server_utilization,
            r2.server_utilization
        );
    }

    #[test]
    fn more_threads_per_client_still_add_server_pressure() {
        // Paper: "the number of memory requests that arrive to the server
        // increases when increasing the number of threads in the clients,
        // even beyond two threads".
        let r2 = run_config(Scale::Smoke, 400, 6, 2);
        let r4 = run_config(Scale::Smoke, 400, 6, 4);
        assert!(
            r4.server_utilization >= r2.server_utilization * 0.98,
            "4 threads/client must not reduce server pressure: {} vs {}",
            r4.server_utilization,
            r2.server_utilization
        );
    }
}
