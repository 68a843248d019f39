//! Seeded randomized tests for topologies, routing and the fabric model.
//!
//! Offline build: no external property-testing framework; every case is
//! reproducible from the loop seed via the simulator's own [`Rng`].

use cohfree_fabric::{Fabric, FabricConfig, Message, MsgKind, NodeId, Step, Topology};
use cohfree_sim::{Rng, SimTime};

const CASES: u64 = 96;

fn arb_grid_topology(rng: &mut Rng) -> Topology {
    let w = rng.range(2, 6) as u16;
    let h = rng.range(2, 6) as u16;
    if rng.chance(0.5) {
        Topology::Torus2D {
            width: w,
            height: h,
        }
    } else {
        Topology::Mesh2D {
            width: w,
            height: h,
        }
    }
}

fn arb_topology(rng: &mut Rng) -> Topology {
    match rng.below(2) {
        0 => arb_grid_topology(rng),
        _ => Topology::FullyConnected {
            nodes: rng.range(2, 20) as u16,
        },
    }
}

/// Routes exist between every pair, are loop-free, and their length equals
/// the advertised hop count.
#[test]
fn routes_are_minimal_and_loop_free() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x4071E5 + seed);
        let topo = arb_topology(&mut rng);
        let n = topo.num_nodes();
        let a = NodeId::new(rng.below(n as u64) as u16 + 1);
        let b = NodeId::new(rng.below(n as u64) as u16 + 1);
        if a == b {
            continue;
        }
        let route = topo.route(a, b);
        assert_eq!(route.len() as u32, topo.hops(a, b), "seed {seed}");
        assert_eq!(*route.last().unwrap(), b, "seed {seed}");
        // Loop-free: no node repeats.
        let mut seen = std::collections::HashSet::new();
        seen.insert(a);
        for &hop in &route {
            assert!(seen.insert(hop), "seed {seed}: route revisits {hop}");
        }
        // Every step follows a physical link.
        let links: std::collections::HashSet<_> = topo.links().into_iter().collect();
        let mut prev = a;
        for &hop in &route {
            assert!(
                links.contains(&(prev, hop)),
                "seed {seed}: no link {prev}->{hop}"
            );
            prev = hop;
        }
    }
}

/// Grid hop counts are symmetric (mesh and torus links are bidirectional).
#[test]
fn grid_hops_symmetric() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x5E1 + seed);
        let topo = arb_grid_topology(&mut rng);
        let n = topo.num_nodes();
        let a = NodeId::new(rng.below(n as u64) as u16 + 1);
        let b = NodeId::new(rng.below(n as u64) as u16 + 1);
        assert_eq!(topo.hops(a, b), topo.hops(b, a), "seed {seed}");
    }
}

/// Torus never routes longer than the mesh of the same dimensions.
#[test]
fn torus_no_worse_than_mesh() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x7045 + seed);
        let w = rng.range(2, 6) as u16;
        let h = rng.range(2, 6) as u16;
        let mesh = Topology::Mesh2D {
            width: w,
            height: h,
        };
        let torus = Topology::Torus2D {
            width: w,
            height: h,
        };
        let n = mesh.num_nodes();
        let a = NodeId::new(rng.below(n as u64) as u16 + 1);
        let b = NodeId::new(rng.below(n as u64) as u16 + 1);
        assert!(torus.hops(a, b) <= mesh.hops(a, b), "seed {seed}");
    }
}

/// Walking a message through an idle fabric delivers it in exactly `hops`
/// steps at the unloaded latency.
#[test]
fn idle_fabric_delivery_matches_model() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x1D1E + seed);
        let topo = arb_grid_topology(&mut rng);
        let n = topo.num_nodes();
        let a = NodeId::new(rng.below(n as u64) as u16 + 1);
        let b = NodeId::new(rng.below(n as u64) as u16 + 1);
        if a == b {
            continue;
        }
        let bytes = rng.range(1, 4096) as u32;
        let mut fabric = Fabric::new(topo, FabricConfig::default());
        let msg = Message::new(a, b, MsgKind::ReadResp { bytes }, 1);
        let mut at = a;
        let mut now = SimTime::ZERO;
        let mut steps = 0;
        let deliver = loop {
            match fabric.step(now, at, &msg) {
                Step::Deliver { at: t } => break t,
                Step::Forward { next, arrive } => {
                    at = next;
                    now = arrive;
                    steps += 1;
                }
                Step::Dropped => unreachable!("lossless fabric dropped"),
            }
        };
        assert_eq!(steps, topo.hops(a, b), "seed {seed}");
        let expect = fabric.unloaded_latency(msg.wire_bytes(), steps);
        assert_eq!(deliver, SimTime::ZERO + expect, "seed {seed}");
    }
}

/// nodes_at_distance partitions all other nodes.
#[test]
fn distance_classes_partition() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xD157 + seed);
        let topo = arb_topology(&mut rng);
        let n = topo.num_nodes();
        let from = NodeId::new(rng.below(n as u64) as u16 + 1);
        let mut seen = std::collections::HashSet::new();
        for d in 1..=(2 * n as u32) {
            for node in topo.nodes_at_distance(from, d) {
                assert!(
                    seen.insert(node),
                    "seed {seed}: {node} in two distance classes"
                );
            }
        }
        assert_eq!(seen.len(), n as usize - 1, "seed {seed}");
    }
}
