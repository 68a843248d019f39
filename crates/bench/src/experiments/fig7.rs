//! Figure 7 — the random benchmark: threads, servers, distance.
//!
//! A fixed total number of 64-byte random remote reads is split across
//! 1/2/4 threads on one client node. Left group: one memory server one hop
//! away. Right group: remote memory striped over four servers, placed at
//! 1, 2 or 3 hops. The paper's findings, all reproduced here:
//!
//! * 1 → 2 threads halves execution time;
//! * 2 → 4 threads does **not** (the client RMC saturates);
//! * four servers do not help (the bottleneck is not the server);
//! * with 4 threads, moving the servers *farther away* slightly *reduces*
//!   time — the retry-arbitration waste at the overloaded client RMC drops
//!   faster than the path latency grows.
//!
//! The client sits at node 6 (an interior node with four 1-hop neighbours).

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{NodeId, SimDuration, SimTime};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Group label ("1 server" / "4 servers").
    pub group: &'static str,
    /// Bar label (e.g. "2t, 1 hop").
    pub label: String,
    /// Threads used.
    pub threads: u64,
    /// Server distance in hops.
    pub hops: u32,
    /// Execution time (max over threads) in microseconds.
    pub time_us: f64,
    /// NACK retries observed at the client (bottleneck witness).
    pub nacks: u64,
}

/// Interior client node with four 1-hop neighbours.
const CLIENT: u16 = 6;

fn run_config(
    scale: Scale,
    name: &str,
    total_accesses: u64,
    threads: u64,
    servers: &[NodeId],
) -> (f64, u64) {
    let client = super::n(CLIENT);
    let mut w = World::new(super::cluster());
    w.enable_sampling(super::sample_interval(scale));
    let zones: Vec<(u64, u64)> = servers
        .iter()
        .map(|&s| {
            let resv = w.reserve_remote(client, 8_192, Some(s));
            (resv.prefixed_base, resv.frames * 4096)
        })
        .collect();
    let ids: Vec<usize> = (0..threads)
        .map(|k| {
            w.spawn_thread(
                ThreadSpec {
                    node: client,
                    zones: zones.clone(),
                    accesses: total_accesses / threads,
                    bytes: 64,
                    write_fraction: 0.0,
                    think: SimDuration::ns(5),
                    seed: 9_000 + k,
                },
                SimTime::ZERO,
            )
        })
        .collect();
    w.run();
    let t = ids
        .iter()
        .map(|&i| w.thread_elapsed(i))
        .max()
        .expect("threads spawned");
    let nacks: u64 = ids.iter().map(|&i| w.thread_nacks(i)).sum();
    crate::report::record_snapshot(name, w.snapshot());
    (t.as_us_f64(), nacks)
}

/// Pick `count` servers at exactly `hops` from the client.
fn servers_at(hops: u32, count: usize) -> Vec<NodeId> {
    let topo = super::cluster().topology;
    let c = topo.nodes_at_distance(super::n(CLIENT), hops);
    assert!(c.len() >= count, "need {count} nodes at distance {hops}");
    c[..count].to_vec()
}

/// Run the full figure.
pub fn run(scale: Scale) -> Vec<Row> {
    let total = scale.pick(2_000u64, 40_000, 400_000);
    let mut rows = Vec::new();
    // Left group: one server, one hop.
    let one = servers_at(1, 1);
    for threads in [1u64, 2, 4] {
        let (time_us, nacks) = run_config(
            scale,
            &format!("fig7/1server_{threads}t"),
            total,
            threads,
            &one,
        );
        rows.push(Row {
            group: "1 server",
            label: format!("{threads}t, 1 hop"),
            threads,
            hops: 1,
            time_us,
            nacks,
        });
    }
    // Right group: four servers; 2 threads at 1 hop, then 4 threads at 1-3.
    let (t2, n2) = run_config(scale, "fig7/4servers_2t_1hop", total, 2, &servers_at(1, 4));
    rows.push(Row {
        group: "4 servers",
        label: "2t, 1 hop".into(),
        threads: 2,
        hops: 1,
        time_us: t2,
        nacks: n2,
    });
    for hops in [1u32, 2, 3] {
        let (time_us, nacks) = run_config(
            scale,
            &format!("fig7/4servers_4t_{hops}hops"),
            total,
            4,
            &servers_at(hops, 4),
        );
        rows.push(Row {
            group: "4 servers",
            label: format!("4t, {hops} hop{}", if hops > 1 { "s" } else { "" }),
            threads: 4,
            hops,
            time_us,
            nacks,
        });
    }
    rows
}

/// Render the figure as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "Fig. 7 — random benchmark: threads / servers / distance",
        &["group", "config", "time_us", "nacks"],
    );
    for r in &rows {
        t.row(vec![
            r.group.into(),
            r.label.clone(),
            format!("{:.1}", r.time_us),
            r.nacks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_papers_shape() {
        let rows = run(Scale::Smoke);
        let by_label = |l: &str| {
            rows.iter()
                .find(|r| r.label == l && r.group == "1 server")
                .map(|r| r.time_us)
        };
        let t1 = by_label("1t, 1 hop").unwrap();
        let t2 = by_label("2t, 1 hop").unwrap();
        let t4 = by_label("4t, 1 hop").unwrap();
        // 1 -> 2 threads roughly halves.
        let r12 = t2 / t1;
        assert!((0.40..0.70).contains(&r12), "t2/t1 = {r12}");
        // 2 -> 4 threads is far from halving again.
        let r24 = t4 / t2;
        assert!(r24 > 0.72, "t4/t2 = {r24} — client RMC should saturate");

        // Four servers do not rescue four threads at one hop.
        let four_servers_4t_1hop = rows
            .iter()
            .find(|r| r.group == "4 servers" && r.threads == 4 && r.hops == 1)
            .unwrap()
            .time_us;
        assert!(
            four_servers_4t_1hop > 0.8 * t4,
            "4 servers {four_servers_4t_1hop} vs 1 server {t4}: server is not the bottleneck"
        );

        // The counter-intuitive effect: 4 threads get no slower (slightly
        // faster) as the four servers move away.
        let d1 = rows
            .iter()
            .find(|r| r.group == "4 servers" && r.threads == 4 && r.hops == 1)
            .unwrap();
        let d3 = rows
            .iter()
            .find(|r| r.group == "4 servers" && r.threads == 4 && r.hops == 3)
            .unwrap();
        assert!(
            d3.time_us < d1.time_us * 1.05,
            "distance must not hurt a saturated client: 1hop {} vs 3hops {}",
            d1.time_us,
            d3.time_us
        );
    }
}
