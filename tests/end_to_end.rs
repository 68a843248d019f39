//! Cross-crate integration: functional equivalence across memory systems.
//!
//! The strongest property of the design: workloads compute *real* results
//! over simulated memory, so every backend — local machine, the paper's
//! remote memory, remote swap over Ethernet or the fabric — must produce
//! **bit-identical outputs**. Timing differs wildly; answers never do.

use cohfree::core::backend::{RemoteOptions, SwapConfig, SwapTransport};
use cohfree::workloads::parsec::{BlackScholes, Canneal, RayTrace, StreamCluster};
use cohfree::workloads::{BTree, HashIndex};
use cohfree::{
    AllocPolicy, ClusterConfig, LocalMachine, MemSpace, NodeId, RemoteMemorySpace, Rng, SwapSpace,
};

fn all_backends() -> Vec<(&'static str, Box<dyn MemSpace>)> {
    let cfg = ClusterConfig::prototype();
    vec![
        ("local", Box::new(LocalMachine::new(cfg, 32 << 30))),
        (
            "remote-memory",
            Box::new(RemoteMemorySpace::new(
                cfg,
                NodeId::new(1),
                AllocPolicy::AlwaysRemote,
            )),
        ),
        (
            "remote-memory-uncached",
            Box::new(RemoteMemorySpace::with_options(
                cfg,
                NodeId::new(1),
                AllocPolicy::AlwaysRemote,
                RemoteOptions {
                    cacheable: false,
                    ..RemoteOptions::default()
                },
            )),
        ),
        (
            "remote-swap-ethernet",
            Box::new(SwapSpace::remote(
                cfg,
                NodeId::new(1),
                SwapConfig {
                    cache_pages: 64,
                    ..SwapConfig::default()
                },
            )),
        ),
        (
            "remote-swap-fabric",
            Box::new(SwapSpace::remote(
                cfg,
                NodeId::new(1),
                SwapConfig {
                    cache_pages: 64,
                    transport: SwapTransport::Fabric,
                    servers: Some(vec![NodeId::new(2)]),
                    ..SwapConfig::default()
                },
            )),
        ),
    ]
}

#[test]
fn blackscholes_checksum_identical_everywhere() {
    let kernel = BlackScholes {
        options: 3_000,
        passes: 1,
        seed: 31,
    };
    let mut checksums = Vec::new();
    for (name, mut m) in all_backends() {
        let (_, c) = kernel.run(m.as_mut());
        checksums.push((name, c));
    }
    let (ref_name, reference) = checksums[0];
    for &(name, c) in &checksums {
        assert_eq!(
            c.to_bits(),
            reference.to_bits(),
            "{name} checksum differs from {ref_name}"
        );
    }
}

#[test]
fn raytrace_hits_identical_everywhere() {
    let kernel = RayTrace {
        extent: 8,
        spheres: 3_000,
        rays: 400,
        cell_capacity: 8,
        seed: 32,
    };
    let mut all = Vec::new();
    for (name, mut m) in all_backends() {
        let (_, hits) = kernel.run(m.as_mut());
        all.push((name, hits));
    }
    for &(name, h) in &all {
        assert_eq!(h, all[0].1, "{name} hit count differs");
    }
}

#[test]
fn canneal_accepted_swaps_identical_everywhere() {
    let kernel = Canneal {
        elements: 10_000,
        steps: 600,
        temperature: 100.0,
        seed: 33,
    };
    let mut all = Vec::new();
    for (name, mut m) in all_backends() {
        let (_, accepted) = kernel.run(m.as_mut());
        all.push((name, accepted));
    }
    for &(name, a) in &all {
        assert_eq!(a, all[0].1, "{name} accepted-swap count differs");
    }
}

#[test]
fn streamcluster_cost_identical_everywhere() {
    let kernel = StreamCluster {
        block_points: 256,
        dims: 8,
        centers: 4,
        blocks: 2,
        seed: 34,
    };
    let mut all = Vec::new();
    for (name, mut m) in all_backends() {
        let (_, cost) = kernel.run(m.as_mut());
        all.push((name, cost));
    }
    for &(name, c) in &all {
        assert_eq!(
            c.to_bits(),
            all[0].1.to_bits(),
            "{name} cluster cost differs"
        );
    }
}

#[test]
fn btree_answers_identical_everywhere() {
    // 2k keys, mixed present/absent probes; identical found-sets required.
    let mut rng = Rng::new(77);
    let mut keys: Vec<u64> = (0..2_500).map(|_| rng.next_u64() % 100_000).collect();
    keys.sort_unstable();
    keys.dedup();
    let probes: Vec<u64> = (0..2_000).map(|_| rng.next_u64() % 100_000).collect();

    let mut results: Vec<(&str, Vec<bool>)> = Vec::new();
    for (name, mut m) in all_backends() {
        let tree = BTree::bulk_load(m.as_mut(), &keys, 15);
        let found: Vec<bool> = probes
            .iter()
            .map(|&k| tree.search(m.as_mut(), k).found)
            .collect();
        results.push((name, found));
    }
    for (name, found) in &results {
        assert_eq!(found, &results[0].1, "{name} search answers differ");
    }
    // And the answers are correct against a host-side oracle.
    let oracle: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
    for (i, &p) in probes.iter().enumerate() {
        assert_eq!(results[0].1[i], oracle.contains(&p), "probe {p}");
    }
}

#[test]
fn hash_index_answers_identical_everywhere() {
    let mut rng = Rng::new(101);
    let pairs: Vec<(u64, u64)> = (0..2_000)
        .map(|_| (rng.below(5_000), rng.next_u64()))
        .collect();
    let probes: Vec<u64> = (0..1_000).map(|_| rng.below(5_000)).collect();

    let mut results: Vec<(&str, Vec<Option<u64>>)> = Vec::new();
    for (name, mut m) in all_backends() {
        let mut h = HashIndex::new(m.as_mut(), 8_192);
        for &(k, v) in &pairs {
            h.insert(m.as_mut(), k, v);
        }
        let got: Vec<Option<u64>> = probes.iter().map(|&k| h.get(m.as_mut(), k)).collect();
        results.push((name, got));
    }
    for (name, got) in &results {
        assert_eq!(got, &results[0].1, "{name} lookups differ");
    }
    // Oracle check.
    let mut oracle = std::collections::HashMap::new();
    for &(k, v) in &pairs {
        oracle.insert(k, v);
    }
    for (i, &p) in probes.iter().enumerate() {
        assert_eq!(results[0].1[i], oracle.get(&p).copied(), "probe {p}");
    }
}
