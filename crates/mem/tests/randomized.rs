//! Seeded randomized tests for the memory models against host-side oracles.
//!
//! Offline build: no external property-testing framework; every case is
//! reproducible from the loop seed via the simulator's own [`Rng`].

use cohfree_mem::{Cache, CacheConfig, CacheOutcome, SparseStore};
use cohfree_sim::Rng;
use std::collections::HashSet;

const CASES: u64 = 48;

/// SparseStore behaves exactly like a flat byte array under arbitrary
/// interleavings of reads and writes. Most accesses stay on the page of the
/// one before (the store's one-page memo) and some straddle a page boundary.
#[test]
fn sparse_store_matches_flat_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x570E + seed);
        let mut store = SparseStore::new();
        let mut oracle = vec![0u8; 16_384];
        let ops = rng.range(1, 300);
        let mut addr = 0usize;
        for _ in 0..ops {
            let len0 = rng.range(1, 64) as usize;
            addr = match rng.below(10) {
                // Same page as the last access.
                0..=5 => (addr & !4095) | rng.below(4_096) as usize,
                // Straddling a page boundary.
                6..=7 => rng.range(1, 4) as usize * 4_096 - 1 - rng.below(len0 as u64) as usize,
                _ => rng.below(16_384) as usize,
            };
            let data: Vec<u8> = (0..len0).map(|_| rng.next_u64() as u8).collect();
            let is_write = rng.chance(0.5);
            let len = data.len().min(oracle.len() - addr);
            if is_write {
                store.write(addr as u64, &data[..len]);
                oracle[addr..addr + len].copy_from_slice(&data[..len]);
            } else {
                let mut buf = vec![0u8; len];
                store.read(addr as u64, &mut buf);
                assert_eq!(&buf[..], &oracle[addr..addr + len], "seed {seed}");
            }
        }
        // Final full sweep.
        let mut full = vec![0u8; oracle.len()];
        store.read(0, &mut full);
        assert_eq!(full, oracle, "seed {seed}");
    }
}

/// The cache never exceeds its configured capacity and probe() agrees with
/// a shadow set of resident lines.
#[test]
fn cache_residency_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xCAC4E + seed);
        let cfg = CacheConfig {
            line_bytes: 64,
            sets: 1 << rng.range(1, 5),
            ways: rng.range(1, 5) as u32,
        };
        let capacity = (cfg.sets * cfg.ways) as usize;
        let mut cache = Cache::new(cfg);
        // `dirty` is exact: every dirty eviction is reported by contract, so
        // the shadow stays in sync. Residency truth comes from probe(),
        // which must agree with access() outcomes.
        let mut dirty: HashSet<u64> = HashSet::new();
        let ops = rng.range(1, 300);
        for _ in 0..ops {
            let addr = rng.below(1_000_000);
            let write = rng.chance(0.5);
            let line = addr & !63;
            let was_resident = cache.probe(addr);
            match cache.access(addr, write) {
                CacheOutcome::Hit => {
                    assert!(was_resident, "seed {seed}: hit on non-resident {line:#x}");
                }
                CacheOutcome::Miss { victim_writeback } => {
                    assert!(!was_resident, "seed {seed}: miss on resident {line:#x}");
                    if let Some(victim) = victim_writeback {
                        assert!(
                            dirty.remove(&victim),
                            "seed {seed}: clean victim {victim:#x} written back"
                        );
                        assert!(!cache.probe(victim), "seed {seed}: victim still resident");
                    }
                }
            }
            if write {
                dirty.insert(line);
            }
            assert!(
                cache.probe(addr),
                "seed {seed}: accessed line must be resident"
            );
            assert!(cache.resident_lines() <= capacity, "seed {seed}");
        }
        // Whatever the flush returns must have been dirtied at some point
        // and never written back since.
        let flushed: HashSet<u64> = cache.flush_all().into_iter().collect();
        for line in &flushed {
            assert!(
                dirty.contains(line),
                "seed {seed}: flush returned clean line {line:#x}"
            );
        }
        assert_eq!(cache.resident_lines(), 0, "seed {seed}");
    }
}

/// Every dirty line written is eventually accounted: it either comes back
/// as a victim write-back or in the final flush.
#[test]
fn cache_never_loses_dirty_lines() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xD127 + seed);
        let cfg = CacheConfig {
            line_bytes: 64,
            sets: 4,
            ways: 2,
        };
        let mut cache = Cache::new(cfg);
        let mut dirtied: HashSet<u64> = HashSet::new();
        let mut written_back: Vec<u64> = Vec::new();
        let ops = rng.range(1, 200);
        for _ in 0..ops {
            let addr = rng.below(100_000);
            if let CacheOutcome::Miss {
                victim_writeback: Some(v),
            } = cache.access(addr, true)
            {
                written_back.push(v);
            }
            dirtied.insert(addr & !63);
        }
        written_back.extend(cache.flush_all());
        let wb: HashSet<u64> = written_back.iter().copied().collect();
        for line in dirtied {
            assert!(
                wb.contains(&line),
                "seed {seed}: dirty line {line:#x} vanished"
            );
        }
    }
}
