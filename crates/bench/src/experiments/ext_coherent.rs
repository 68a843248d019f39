//! EXT-COHERENT — the coherency overhead the paper gets rid of.
//!
//! The paper's introduction argues that aggregating chipsets (3Leaf's Aqua,
//! ScaleMP, Numascale) pay "the penalty of a lack of scalability and a
//! larger memory access latency due to the limitations and overhead imposed
//! by the protocol that keeps coherency among the nodes of the cluster" —
//! *even when the application runs on a single node* and needs only memory.
//!
//! This study runs the **same single-node application** two ways:
//!
//! * the paper's architecture: every remote access is a plain RMC
//!   transaction, coherency confined to the node;
//! * the baseline: Opteron-style broadcast coherence stretched across the
//!   fabric — every miss makes the home node snoop all other members of the
//!   inter-node coherency domain and wait for their answers.
//!
//! Sweeping the domain size shows the thesis directly: the baseline's
//! latency and fabric traffic grow with the amount of aggregated hardware;
//! the paper's architecture is flat because the coherency domain never
//! leaves the node.

use crate::table::Table;
use crate::Scale;
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{SimDuration, SimTime};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Architecture label.
    pub system: String,
    /// Nodes in the inter-node coherency domain (1 = none extends beyond
    /// the requesting node).
    pub domain: usize,
    /// Mean time per access in nanoseconds.
    pub per_access_ns: f64,
    /// Fabric messages per access.
    pub msgs_per_access: f64,
    /// Snoop probes absorbed per member RMC (the bystander tax).
    pub probes_per_member: f64,
}

/// Domain members in activation order: requester, home, then nodes spread
/// across the mesh.
const MEMBERS: [u16; 16] = [1, 2, 5, 6, 3, 7, 9, 10, 4, 8, 11, 13, 12, 14, 15, 16];

fn run_one(coherent_members: usize, accesses: u64) -> Row {
    let mut w = World::new(super::cluster());
    let client = super::n(1);
    let home = super::n(2);
    let coherent = coherent_members > 1;
    if coherent {
        w.set_coherent_domain(
            MEMBERS[..coherent_members]
                .iter()
                .map(|&i| super::n(i))
                .collect(),
        )
        .expect("lossless, fault-free config");
    }
    let resv = w.reserve_remote(client, 4_096, Some(home));
    let spec = ThreadSpec {
        node: client,
        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
        accesses,
        bytes: 64,
        write_fraction: 0.0,
        think: SimDuration::ns(5),
        seed: 77,
    };
    let id = if coherent {
        w.spawn_coherent_thread(spec, SimTime::ZERO)
    } else {
        w.spawn_thread(spec, SimTime::ZERO)
    };
    w.run();
    let elapsed = w.thread_elapsed(id);
    let bystanders = coherent_members.saturating_sub(2).max(1) as f64;
    let total_probes: f64 = (1..=16)
        .map(|i| w.server(super::n(i)).probes() as f64)
        .sum();
    Row {
        system: if coherent {
            format!("coherent DSM ({coherent_members} nodes)")
        } else {
            "cohfree (non-coherent)".to_string()
        },
        domain: coherent_members,
        per_access_ns: elapsed.as_ns_f64() / accesses as f64,
        msgs_per_access: w.fabric().delivered() as f64 / accesses as f64,
        probes_per_member: if coherent {
            total_probes / bystanders / accesses as f64
        } else {
            0.0
        },
    }
}

/// Run the sweep: the paper's architecture, then coherent domains of
/// growing size.
pub fn run(scale: Scale) -> Vec<Row> {
    let accesses = scale.pick(1_000u64, 10_000, 100_000);
    crate::parallel_map(vec![1usize, 2, 4, 8, 12, 16], |members| {
        run_one(members, accesses)
    })
}

/// Render the study as a table.
pub fn table(scale: Scale) -> Table {
    let rows = run(scale);
    let mut t = Table::new(
        "EXT-COHERENT — the same single-node app, with and without inter-node coherency",
        &[
            "system",
            "ns_per_access",
            "fabric_msgs_per_access",
            "probes_per_member",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.system.clone(),
            format!("{:.0}", r.per_access_ns),
            format!("{:.1}", r.msgs_per_access),
            format!("{:.2}", r.probes_per_member),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherency_tax_grows_with_aggregation_noncoherent_is_flat() {
        let rows = run(Scale::Smoke);
        let noncoh = &rows[0];
        let d2 = rows.iter().find(|r| r.domain == 2).unwrap();
        let d16 = rows.iter().find(|r| r.domain == 16).unwrap();
        // Message count: non-coherent = 2/access; coherent grows linearly.
        assert!((noncoh.msgs_per_access - 2.0).abs() < 0.1);
        assert!(
            d16.msgs_per_access > d2.msgs_per_access + 20.0,
            "16-node domain must broadcast: {} vs {}",
            d16.msgs_per_access,
            d2.msgs_per_access
        );
        // Latency: grows with domain size; more than 1.5x by 16 nodes.
        assert!(
            d16.per_access_ns > 1.5 * noncoh.per_access_ns,
            "coherent 16 {} vs non-coherent {}",
            d16.per_access_ns,
            noncoh.per_access_ns
        );
        // Bystander tax: every member absorbs ~1 probe per domain miss.
        assert!((d16.probes_per_member - 1.0).abs() < 0.1);
        assert_eq!(noncoh.probes_per_member, 0.0);
    }
}
