//! Seeded randomized tests over the assembled cluster: conservation laws
//! that must hold for any traffic mix, and determinism.
//!
//! Offline build: no external property-testing framework; every case is
//! reproducible from the loop seed via the simulator's own [`Rng`].

use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{ClusterConfig, FaultEvent, FaultPlan, NodeId, SimDuration, SimTime};
use cohfree_sim::Rng;

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// A compact random thread description.
#[derive(Debug, Clone)]
struct Spec {
    node: u16,
    donor: u16,
    accesses: u64,
    write_fraction: f64,
    seed: u64,
}

fn arb_specs(rng: &mut Rng) -> Vec<Spec> {
    let count = rng.range(1, 6) as usize;
    (0..count)
        .map(|_| Spec {
            node: rng.range(1, 17) as u16,
            donor: rng.range(1, 17) as u16,
            accesses: rng.range(1, 150),
            write_fraction: rng.f64(),
            seed: rng.next_u64(),
        })
        .collect()
}

fn build_and_run(specs: &[Spec], loss_rate: f64) -> World {
    let mut cfg = ClusterConfig::prototype();
    cfg.fabric.loss_rate = loss_rate;
    let mut w = World::new(cfg);
    for s in specs {
        let node = n(s.node);
        let donor = if s.donor == s.node {
            n(s.donor % 16 + 1)
        } else {
            n(s.donor)
        };
        let resv = w.reserve_remote(node, 256, Some(donor));
        w.spawn_thread(
            ThreadSpec {
                node,
                zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                accesses: s.accesses,
                bytes: 64,
                write_fraction: s.write_fraction,
                think: SimDuration::ns(5),
                seed: s.seed,
            },
            SimTime::ZERO,
        );
    }
    w.run();
    w
}

/// Every issued access completes exactly once; server requests equal client
/// submissions; fabric deliveries are exactly two per transaction
/// (request + response) on a lossless fabric.
#[test]
fn transaction_conservation() {
    for seed in 0..24 {
        let mut rng = Rng::new(0xC0_7235 + seed);
        let specs = arb_specs(&mut rng);
        let w = build_and_run(&specs, 0.0);
        let total: u64 = specs.iter().map(|s| s.accesses).sum();
        let completions: u64 = (1..=16).map(|i| w.client(n(i)).completions()).sum();
        assert_eq!(completions, total, "seed {seed}");
        let served: u64 = (1..=16).map(|i| w.server(n(i)).requests()).sum();
        assert_eq!(served, total, "seed {seed}");
        assert_eq!(w.fabric().delivered(), 2 * total, "seed {seed}");
        let mem_accesses: u64 = (1..=16).map(|i| w.memory(n(i)).accesses()).sum();
        assert_eq!(mem_accesses, total, "seed {seed}");
        // No loss, no recovery machinery engaged.
        let retx: u64 = (1..=16).map(|i| w.client(n(i)).retransmissions()).sum();
        assert_eq!(retx, 0, "seed {seed}");
    }
}

/// Under loss, completions are still exact (each access completes once) and
/// every access is served at least once.
#[test]
fn lossy_conservation() {
    for seed in 0..24 {
        let mut rng = Rng::new(0x1055 + seed);
        let specs = arb_specs(&mut rng);
        let loss = 0.001 + rng.f64() * 0.049;
        let w = build_and_run(&specs, loss);
        let total: u64 = specs.iter().map(|s| s.accesses).sum();
        let completions: u64 = (1..=16).map(|i| w.client(n(i)).completions()).sum();
        assert_eq!(
            completions, total,
            "seed {seed}: loss must never lose or duplicate completions"
        );
        // Each server request produced a response; duplicates were discarded.
        let served: u64 = (1..=16).map(|i| w.server(n(i)).requests()).sum();
        assert!(
            served >= total,
            "seed {seed}: every access served at least once"
        );
    }
}

/// The full cluster simulation is a pure function of its inputs.
#[test]
fn whole_world_determinism() {
    for seed in 0..24 {
        let mut rng = Rng::new(0xDE7 + seed);
        let specs = arb_specs(&mut rng);
        let a = build_and_run(&specs, 0.0);
        let b = build_and_run(&specs, 0.0);
        for i in 0..specs.len() {
            assert_eq!(
                a.thread_elapsed(i).as_ps(),
                b.thread_elapsed(i).as_ps(),
                "seed {seed}"
            );
        }
        assert_eq!(
            a.fabric().total_hops(),
            b.fabric().total_hops(),
            "seed {seed}"
        );
    }
}

/// Robustness acceptance: under a mid-run node crash *plus* 1e-3 link loss,
/// `run()` terminates (no hang, no panic) and every access of every thread
/// is accounted for — completed, failed, or evacuated-and-retried.
#[test]
fn mid_run_crash_with_loss_accounts_for_every_access() {
    for seed in 0..24 {
        let mut rng = Rng::new(0xFA11 + seed);
        let specs = arb_specs(&mut rng);
        let crash_node = n(rng.range(1, 17) as u16);
        let crash_at = SimTime::ZERO + SimDuration::us(rng.range(20, 200));
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = 1e-3;
        cfg.max_retries = 4;
        cfg.faults = FaultPlan::new().with(FaultEvent::NodeCrash {
            at: crash_at,
            node: crash_node,
        });
        let mut w = World::new(cfg);
        let mut ids = Vec::new();
        for s in &specs {
            let node = n(s.node);
            let donor = if s.donor == s.node {
                n(s.donor % 16 + 1)
            } else {
                n(s.donor)
            };
            let resv = w.reserve_remote(node, 256, Some(donor));
            ids.push(w.spawn_thread(
                ThreadSpec {
                    node,
                    zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                    accesses: s.accesses,
                    bytes: 64,
                    write_fraction: s.write_fraction,
                    think: SimDuration::ns(5),
                    seed: s.seed,
                },
                SimTime::ZERO,
            ));
        }
        w.run(); // must terminate without panicking
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(
                w.thread_completed(ids[i]) + w.thread_failed(ids[i]),
                s.accesses,
                "seed {seed}: thread {i} (node {}, donor {}, crash {crash_node}) \
                 left accesses unaccounted",
                s.node,
                s.donor
            );
        }
        assert!(w.node_is_dead(crash_node), "seed {seed}");
    }
}

/// Frames the whole cluster can lend, as the directory sees them.
fn total_free(w: &World) -> u64 {
    (1..=16).map(|i| w.free_frames(n(i))).sum()
}

/// Allocator conservation under arbitrary reserve/release interleavings:
/// the frames the directory sees free plus the frames lent out always add
/// up to the pool, and regions account exactly for what was lent.
#[test]
fn reservation_conservation() {
    for seed in 0..24 {
        let mut rng = Rng::new(0x2E5E2E + seed);
        let mut w = World::new(ClusterConfig::prototype());
        let pool_total = total_free(&w);
        assert_eq!(pool_total, 16 * w.config().pool_frames_per_node());
        let mut held: Vec<(NodeId, cohfree_os::region::Reservation)> = Vec::new();
        let ops = rng.range(1, 40);
        for _ in 0..ops {
            if rng.chance(0.5) && !held.is_empty() {
                let (node, r) = held.swap_remove(0);
                w.release_remote(node, r);
            }
            let asker = n(rng.range(1, 17) as u16);
            let donor = rng.range(1, 17) as u16;
            let donor = if donor == asker.get() {
                n(donor % 16 + 1)
            } else {
                n(donor)
            };
            let frames = rng.range(1, 512);
            if w.free_frames(donor) >= frames {
                let r = w.reserve_remote(asker, frames, Some(donor));
                held.push((asker, r));
            }
            let lent: u64 = held.iter().map(|(_, r)| r.frames).sum();
            assert_eq!(total_free(&w) + lent, pool_total, "seed {seed}");
            // Per-node region borrowed bytes match its held reservations.
            for node_id in 1..=16u16 {
                let node = n(node_id);
                let expect: u64 = held
                    .iter()
                    .filter(|(a, _)| *a == node)
                    .map(|(_, r)| r.frames * 4096)
                    .sum();
                assert_eq!(w.region(node).borrowed_bytes(), expect, "seed {seed}");
            }
        }
        for (node, r) in held {
            w.release_remote(node, r);
        }
        assert_eq!(total_free(&w), pool_total, "seed {seed}");
    }
}
