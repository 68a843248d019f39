//! Ablations — design-choice studies beyond the paper's figures.
//!
//! Each returns a [`Table`]; binaries in `src/bin/abl_*.rs` print them.

use crate::table::Table;
use crate::Scale;
use cohfree_core::backend::{
    AllocPolicy, RemoteMemorySpace, RemoteOptions, SwapConfig, SwapSpace, SwapTransport,
};
use cohfree_core::world::{ThreadSpec, World};
use cohfree_core::{ClusterConfig, MemSpace, Rng, SimDuration, SimTime, Topology};
use cohfree_workloads::{BTree, HashIndex};

/// ABL-OUTST — client RMC request slots and FPGA vs. ASIC front-end.
///
/// The prototype's I/O-unit RMC allows one outstanding request per core and
/// has an FPGA-speed front-end; the paper expects an integrated (ASIC)
/// memory-controller implementation to close the gap to local memory.
pub fn outstanding(scale: Scale) -> Table {
    let total = scale.pick(2_000u64, 20_000, 200_000);
    let mut t = Table::new(
        "ABL-OUTST — 4-thread random-read time vs. RMC request slots",
        &["front_end", "slots", "time_us", "nacks"],
    );
    let mut points = Vec::new();
    for (label, base) in [
        ("fpga", cohfree_rmc::RmcConfig::default()),
        ("asic", cohfree_rmc::RmcConfig::asic()),
    ] {
        for slots in [1usize, 2, 4, 8, 16] {
            points.push((label, base, slots));
        }
    }
    // Independent worlds per (front-end, slots) point: run them on the
    // worker pool and append rows in input order.
    for cells in crate::parallel_map(points, |(label, base, slots)| {
        let mut cfg = ClusterConfig::prototype();
        cfg.rmc = cohfree_rmc::RmcConfig {
            request_slots: slots,
            ..base
        };
        let mut w = World::new(cfg);
        let client = super::n(6);
        let resv = w.reserve_remote(client, 8_192, Some(super::n(2)));
        let ids: Vec<usize> = (0..4)
            .map(|k| {
                w.spawn_thread(
                    ThreadSpec {
                        node: client,
                        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                        accesses: total / 4,
                        bytes: 64,
                        write_fraction: 0.0,
                        think: SimDuration::ns(5),
                        seed: 40 + k,
                    },
                    SimTime::ZERO,
                )
            })
            .collect();
        w.run();
        let time = ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap();
        let nacks: u64 = ids.iter().map(|&i| w.thread_nacks(i)).sum();
        vec![
            label.into(),
            slots.to_string(),
            format!("{:.1}", time.as_us_f64()),
            nacks.to_string(),
        ]
    }) {
        t.row(cells);
    }
    t
}

/// ABL-PREFETCH — the paper's future-work sequential prefetcher.
pub fn prefetch(scale: Scale) -> Table {
    let lines = scale.pick(2_000u64, 20_000, 200_000);
    let mut t = Table::new(
        "ABL-PREFETCH — sequential vs. random scan, prefetcher off/on",
        &["pattern", "prefetch", "time_ms", "buffer_hit_rate"],
    );
    for pattern in ["sequential", "random"] {
        for pf in [false, true] {
            let mut m = RemoteMemorySpace::with_options(
                super::cluster(),
                super::n(1),
                AllocPolicy::AlwaysRemote,
                RemoteOptions {
                    prefetch: pf,
                    ..RemoteOptions::default()
                },
            );
            let va = m.alloc(lines * 64);
            let mut rng = Rng::new(77);
            let t0 = m.now();
            for i in 0..lines {
                let line = if pattern == "sequential" {
                    i
                } else {
                    rng.below(lines)
                };
                m.read_u64(va + line * 64);
            }
            let elapsed = m.now().since(t0);
            let s = m.stats();
            let hit_rate = if s.prefetch_issued == 0 {
                0.0
            } else {
                s.prefetch_hits as f64 / (s.remote_reads + s.prefetch_hits) as f64
            };
            t.row(vec![
                pattern.into(),
                if pf { "on" } else { "off" }.into(),
                format!("{:.3}", elapsed.as_ms_f64()),
                format!("{:.2}", hit_rate),
            ]);
        }
    }
    t
}

/// ABL-TOPO — fabric topology: mesh (prototype), torus, fully-connected.
pub fn topology(scale: Scale) -> Table {
    let total = scale.pick(2_000u64, 20_000, 200_000);
    let mut t = Table::new(
        "ABL-TOPO — 2-thread random reads to a far server, by topology",
        &["topology", "hops", "time_us"],
    );
    let topos: [(&str, Topology); 3] = [
        (
            "mesh 4x4",
            Topology::Mesh2D {
                width: 4,
                height: 4,
            },
        ),
        (
            "torus 4x4",
            Topology::Torus2D {
                width: 4,
                height: 4,
            },
        ),
        ("fully-connected", Topology::FullyConnected { nodes: 16 }),
    ];
    for cells in crate::parallel_map(topos.to_vec(), |(name, topo)| {
        let mut cfg = ClusterConfig::prototype();
        cfg.topology = topo;
        let mut w = World::new(cfg);
        let client = super::n(1);
        let server = super::n(16); // opposite corner of the mesh
        let hops = topo.hops(client, server);
        let resv = w.reserve_remote(client, 8_192, Some(server));
        let ids: Vec<usize> = (0..2)
            .map(|k| {
                w.spawn_thread(
                    ThreadSpec {
                        node: client,
                        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                        accesses: total / 2,
                        bytes: 64,
                        write_fraction: 0.0,
                        think: SimDuration::ns(5),
                        seed: 60 + k,
                    },
                    SimTime::ZERO,
                )
            })
            .collect();
        w.run();
        let time = ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap();
        vec![
            name.into(),
            hops.to_string(),
            format!("{:.1}", time.as_us_f64()),
        ]
    }) {
        t.row(cells);
    }
    t
}

/// ABL-CACHE — remote ranges cacheable write-back vs. uncached I/O space.
pub fn cacheable(scale: Scale) -> Table {
    let n_elems = scale.pick(4_000u64, 40_000, 400_000);
    let mut t = Table::new(
        "ABL-CACHE — remote range cacheable (write-back) vs. uncached",
        &["pattern", "mode", "time_ms"],
    );
    for pattern in ["sequential", "random"] {
        for cacheable in [true, false] {
            let mut m = RemoteMemorySpace::with_options(
                super::cluster(),
                super::n(1),
                AllocPolicy::AlwaysRemote,
                RemoteOptions {
                    cacheable,
                    ..RemoteOptions::default()
                },
            );
            let va = m.alloc(n_elems * 8);
            let mut rng = Rng::new(88);
            let t0 = m.now();
            for i in 0..n_elems {
                let idx = if pattern == "sequential" {
                    i
                } else {
                    rng.below(n_elems)
                };
                m.read_u64(va + idx * 8);
            }
            let elapsed = m.now().since(t0);
            t.row(vec![
                pattern.into(),
                if cacheable { "write-back" } else { "uncached" }.into(),
                format!("{:.3}", elapsed.as_ms_f64()),
            ]);
        }
    }
    t
}

/// ABL-HASH — hash index vs. B-tree over remote memory and remote swap
/// (footnote 3 of the paper).
pub fn hash_vs_btree(scale: Scale) -> Table {
    let n_keys = scale.pick(20_000usize, 150_000, 2_000_000);
    let lookups = scale.pick(300u64, 2_000, 100_000);
    let cache_pages = (n_keys * 24 / 4096 / 4).max(16);
    let mut t = Table::new(
        "ABL-HASH — mean lookup time (us): hash index vs. b-tree (fanout 168)",
        &["backend", "btree_us", "hash_us", "hash_speedup"],
    );
    let keys = super::random_sorted_keys(n_keys, 0x4A5);
    let run_pair = |m: &mut dyn MemSpace| -> (f64, f64) {
        let tree = BTree::bulk_load(m, &keys, 167);
        let mut h = HashIndex::new(m, n_keys as u64);
        for &k in &keys {
            h.insert(m, k, k);
        }
        let mut rng = Rng::new(0x77);
        let t0 = m.now();
        for _ in 0..lookups {
            tree.search(m, keys[rng.below(n_keys as u64) as usize]);
        }
        let btree_us = m.now().since(t0).as_us_f64() / lookups as f64;
        let mut rng = Rng::new(0x77);
        let t0 = m.now();
        for _ in 0..lookups {
            h.get(m, keys[rng.below(n_keys as u64) as usize]);
        }
        let hash_us = m.now().since(t0).as_us_f64() / lookups as f64;
        (btree_us, hash_us)
    };
    let mut remote =
        RemoteMemorySpace::new(super::cluster(), super::n(1), AllocPolicy::AlwaysRemote);
    let (b, h) = run_pair(&mut remote);
    t.row(vec![
        "remote memory".into(),
        format!("{b:.2}"),
        format!("{h:.2}"),
        format!("{:.1}x", b / h),
    ]);
    let mut swap = SwapSpace::remote(
        super::cluster(),
        super::n(1),
        SwapConfig {
            cache_pages,
            ..SwapConfig::default()
        },
    );
    let (b, h) = run_pair(&mut swap);
    t.row(vec![
        "remote swap".into(),
        format!("{b:.2}"),
        format!("{h:.2}"),
        format!("{:.1}x", b / h),
    ]);
    t
}

/// ABL-RESIDENCY — remote-swap resident-set sweep (thrash threshold), and
/// swap transport comparison (Ethernet baseline vs. idealized fabric swap).
pub fn residency(scale: Scale) -> Table {
    let n_keys = scale.pick(20_000usize, 150_000, 2_000_000);
    let searches = scale.pick(300u64, 1_500, 50_000);
    let keys = super::random_sorted_keys(n_keys, 0xE51);
    let tree_pages = (n_keys * 24 / 4096).max(1);
    let mut t = Table::new(
        "ABL-RESIDENCY — b-tree search vs. resident-set size and swap transport",
        &[
            "resident_fraction",
            "transport",
            "search_us",
            "faults_per_search",
        ],
    );
    let mut points = Vec::new();
    for frac in [8u64, 4, 2, 1] {
        for transport in [SwapTransport::default(), SwapTransport::Fabric] {
            points.push((frac, transport));
        }
    }
    for cells in crate::parallel_map(points, |(frac, transport)| {
        let cache_pages = (tree_pages as u64 / frac).max(16) as usize;
        let mut m = SwapSpace::remote(
            super::cluster(),
            super::n(1),
            SwapConfig {
                cache_pages,
                transport,
                ..SwapConfig::default()
            },
        );
        let tree = BTree::bulk_load(&mut m, &keys, 167);
        let mut rng = Rng::new(0x33);
        let f0 = m.stats().major_faults;
        let t0 = m.now();
        for _ in 0..searches {
            tree.search(&mut m, keys[rng.below(n_keys as u64) as usize]);
        }
        let us = m.now().since(t0).as_us_f64() / searches as f64;
        let fps = (m.stats().major_faults - f0) as f64 / searches as f64;
        let label = match transport {
            SwapTransport::Ethernet { .. } => "ethernet",
            SwapTransport::Fabric => "fabric",
        };
        vec![
            format!("1/{frac}"),
            label.into(),
            format!("{us:.2}"),
            format!("{fps:.2}"),
        ]
    }) {
        t.row(cells);
    }
    t
}

/// ABL-L1 — refining the cache model with an L1 level.
///
/// The baseline models the whole on-chip hierarchy as one 2 MiB cache; this
/// ablation adds a 64 KiB L1 in front (the `ClusterConfig::with_l1` preset)
/// and measures how much the refinement changes each verdict. The answer —
/// hot-loop times drop, but every remote-vs-swap comparison keeps its shape
/// — is what justifies the simpler default.
pub fn l1_hierarchy(scale: Scale) -> Table {
    let n_lines = scale.pick(4_000u64, 40_000, 400_000);
    let mut t = Table::new(
        "ABL-L1 — single-cache baseline vs. L1+L2 hierarchy",
        &["pattern", "model", "time_ms"],
    );
    for pattern in ["hot-loop", "stream", "random"] {
        for l1 in [false, true] {
            let cfg = if l1 {
                ClusterConfig::prototype().with_l1()
            } else {
                ClusterConfig::prototype()
            };
            let mut m = RemoteMemorySpace::new(cfg, super::n(1), AllocPolicy::AlwaysRemote);
            let va = m.alloc(n_lines * 64);
            let mut rng = Rng::new(31);
            if pattern == "hot-loop" {
                // Warm the working set so the measurement is the steady
                // state, not the 64 cold remote fetches.
                for line in 0..64u64 {
                    m.read_u64(va + line * 64);
                }
            }
            let t0 = m.now();
            for i in 0..n_lines {
                let line = match pattern {
                    "hot-loop" => i % 64,    // 4 KiB working set
                    "stream" => i,           // sequential
                    _ => rng.below(n_lines), // uniform random
                };
                m.read_u64(va + line * 64);
            }
            let elapsed = m.now().since(t0);
            t.row(vec![
                pattern.into(),
                if l1 { "l1+l2" } else { "single" }.into(),
                format!("{:.3}", elapsed.as_ms_f64()),
            ]);
        }
    }
    t
}

/// ABL-POSTED — HyperTransport posted stores vs. blocking stores.
///
/// The prototype's single-outstanding-request I/O mapping makes every dirty
/// write-back stall the core for a full round trip. Posted semantics (the
/// HT norm for stores) release the core at RMC acceptance. This quantifies
/// how much of the remote-memory penalty is that conservatism.
pub fn posted(scale: Scale) -> Table {
    let writes = scale.pick(2_000u64, 20_000, 200_000);
    let mut t = Table::new(
        "ABL-POSTED — write-heavy random pattern: blocking vs. posted stores",
        &[
            "pattern",
            "stores",
            "time_ms_blocking",
            "time_ms_posted",
            "speedup",
        ],
    );
    for (pattern, stride) in [("page-stride", 4096u64), ("line-stride", 64u64)] {
        let run = |posted: bool| {
            let mut m = RemoteMemorySpace::with_options(
                super::cluster(),
                super::n(1),
                AllocPolicy::AlwaysRemote,
                RemoteOptions {
                    posted_writes: posted,
                    ..RemoteOptions::default()
                },
            );
            let span = 64u64 << 20;
            let va = m.alloc(span);
            for i in 0..writes {
                m.write_u64(va + (i * stride) % span, i);
            }
            m.quiesce();
            m.now().since(cohfree_core::SimTime::ZERO).as_ms_f64()
        };
        let blocking = run(false);
        let posted_t = run(true);
        t.row(vec![
            pattern.into(),
            writes.to_string(),
            format!("{blocking:.3}"),
            format!("{posted_t:.3}"),
            format!("{:.2}x", blocking / posted_t),
        ]);
    }
    t
}

/// ABL-RELIABILITY — link-loss sweep with RMC timeout/retransmission.
///
/// The paper defers "concerns related to communication reliability"; this
/// study quantifies them: per-traversal loss probability vs. achieved
/// random-read time, retransmissions and duplicate responses.
pub fn reliability(scale: Scale) -> Table {
    let total = scale.pick(2_000u64, 20_000, 200_000);
    let mut t = Table::new(
        "ABL-RELIABILITY — 2-thread random reads under link loss",
        &[
            "loss_rate",
            "time_us",
            "dropped",
            "retransmissions",
            "duplicates",
        ],
    );
    for cells in crate::parallel_map(vec![0.0, 1e-5, 1e-4, 1e-3, 1e-2], |loss| {
        let mut cfg = ClusterConfig::prototype();
        cfg.fabric.loss_rate = loss;
        let mut w = World::new(cfg);
        let client = super::n(1);
        let resv = w.reserve_remote(client, 8_192, Some(super::n(2)));
        let ids: Vec<usize> = (0..2)
            .map(|k| {
                w.spawn_thread(
                    ThreadSpec {
                        node: client,
                        zones: vec![(resv.prefixed_base, resv.frames * 4096)],
                        accesses: total / 2,
                        bytes: 64,
                        write_fraction: 0.0,
                        think: SimDuration::ns(5),
                        seed: 90 + k,
                    },
                    SimTime::ZERO,
                )
            })
            .collect();
        w.run();
        let time = ids.iter().map(|&i| w.thread_elapsed(i)).max().unwrap();
        // Sum recovery counters across every client RMC, not just node 1's:
        // the study generalizes to multi-client configurations.
        let nodes = 1..=w.config().topology.num_nodes();
        let retx: u64 = nodes
            .clone()
            .map(|i| w.client(super::n(i)).retransmissions())
            .sum();
        let dups: u64 = nodes.map(|i| w.client(super::n(i)).duplicates()).sum();
        vec![
            format!("{loss:.0e}"),
            format!("{:.1}", time.as_us_f64()),
            w.fabric().dropped().to_string(),
            retx.to_string(),
            dups.to_string(),
        ]
    }) {
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_slots_and_asic_help_saturated_clients() {
        let t = outstanding(Scale::Smoke);
        let fpga1: f64 = t.rows()[0][2].parse().unwrap();
        let fpga16: f64 = t.rows()[4][2].parse().unwrap();
        let asic16: f64 = t.rows()[9][2].parse().unwrap();
        assert!(
            fpga16 <= fpga1 * 1.02,
            "more slots must not hurt: {fpga1} -> {fpga16}"
        );
        assert!(
            asic16 < fpga16 * 0.7,
            "ASIC must clearly beat FPGA: {asic16} vs {fpga16}"
        );
    }

    #[test]
    fn prefetch_helps_sequential_not_random() {
        let t = prefetch(Scale::Smoke);
        let seq_off: f64 = t.rows()[0][2].parse().unwrap();
        let seq_on: f64 = t.rows()[1][2].parse().unwrap();
        let rand_off: f64 = t.rows()[2][2].parse().unwrap();
        let rand_on: f64 = t.rows()[3][2].parse().unwrap();
        assert!(seq_on < seq_off * 0.8, "sequential: {seq_off} -> {seq_on}");
        assert!(
            rand_on > rand_off * 0.9,
            "random should not benefit: {rand_off} -> {rand_on}"
        );
    }

    #[test]
    fn richer_topologies_cut_far_traffic_time() {
        let t = topology(Scale::Smoke);
        let mesh: f64 = t.rows()[0][2].parse().unwrap();
        let torus: f64 = t.rows()[1][2].parse().unwrap();
        let full: f64 = t.rows()[2][2].parse().unwrap();
        assert!(torus < mesh, "torus {torus} vs mesh {mesh}");
        assert!(full < torus, "fully-connected {full} vs torus {torus}");
    }

    #[test]
    fn caching_remote_ranges_wins_everywhere_here() {
        let t = cacheable(Scale::Smoke);
        // sequential: cacheable amortizes 8 accesses per line.
        let seq_wb: f64 = t.rows()[0][2].parse().unwrap();
        let seq_uc: f64 = t.rows()[1][2].parse().unwrap();
        assert!(
            seq_wb < seq_uc * 0.5,
            "write-back {seq_wb} vs uncached {seq_uc}"
        );
    }

    #[test]
    fn hash_beats_btree_in_remote_memory() {
        let t = hash_vs_btree(Scale::Smoke);
        let remote_b: f64 = t.rows()[0][1].parse().unwrap();
        let remote_h: f64 = t.rows()[0][2].parse().unwrap();
        assert!(remote_h < remote_b, "hash {remote_h} vs btree {remote_b}");
    }

    #[test]
    fn l1_speeds_hot_loops_without_changing_miss_behaviour() {
        let t = l1_hierarchy(Scale::Smoke);
        let hot_single: f64 = t.rows()[0][2].parse().unwrap();
        let hot_l1: f64 = t.rows()[1][2].parse().unwrap();
        assert!(
            hot_l1 < hot_single * 0.5,
            "hot loop: l1 {hot_l1} vs single {hot_single}"
        );
        // Random (miss-dominated) pattern is essentially unchanged.
        let rand_single: f64 = t.rows()[4][2].parse().unwrap();
        let rand_l1: f64 = t.rows()[5][2].parse().unwrap();
        let rel = (rand_l1 - rand_single).abs() / rand_single;
        assert!(rel < 0.05, "random pattern shifted {rel:.3}");
    }

    #[test]
    fn posted_stores_help_spilling_write_patterns() {
        let t = posted(Scale::Smoke);
        let blocking: f64 = t.rows()[0][2].parse().unwrap();
        let posted_t: f64 = t.rows()[0][3].parse().unwrap();
        assert!(
            posted_t < blocking * 0.9,
            "page-stride: posted {posted_t} vs blocking {blocking}"
        );
    }

    #[test]
    fn loss_costs_time_but_never_correctness() {
        let t = reliability(Scale::Smoke);
        let clean: f64 = t.rows()[0][1].parse().unwrap();
        let lossy: f64 = t.rows()[4][1].parse().unwrap(); // 1e-2
        assert!(
            lossy > clean * 1.02,
            "1% loss must cost time: {clean} vs {lossy}"
        );
        let dropped: u64 = t.rows()[4][2].parse().unwrap();
        assert!(dropped > 0, "1% loss must actually drop messages");
        let retx: u64 = t.rows()[4][3].parse().unwrap();
        assert!(retx > 0, "recovery must have engaged");
        let dropped_clean: u64 = t.rows()[0][2].parse().unwrap();
        assert_eq!(dropped_clean, 0, "lossless fabric drops nothing");
        let retx_clean: u64 = t.rows()[0][3].parse().unwrap();
        assert_eq!(retx_clean, 0, "lossless fabric must not retransmit");
    }

    #[test]
    fn shrinking_residency_degrades_swap() {
        let t = residency(Scale::Smoke);
        // Rows alternate ethernet/fabric over growing pressure (1/8 .. 1/1).
        let eth_small: f64 = t.rows()[0][2].parse().unwrap(); // 1/8 resident? no: frac 8 => cache = tree/8
        let eth_full: f64 = t.rows()[6][2].parse().unwrap(); // frac 1 => cache = tree
        assert!(
            eth_full < eth_small,
            "full residency {eth_full} must beat 1/8 residency {eth_small}"
        );
    }
}
