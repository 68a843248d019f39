//! Seeded randomized tests for the OS substrate: frame accounting, page
//! tables and the page cache.
//!
//! Offline build: no external property-testing framework; every case is
//! reproducible from the loop seed via the simulator's own [`Rng`].

use cohfree_fabric::NodeId;
use cohfree_os::frames::{FrameAllocator, PAGE_FRAME_BYTES};
use cohfree_os::pagetable::{PageTable, TlbConfig, Translation, PAGE_BYTES};
use cohfree_os::swap::{PageCache, Touch};
use cohfree_sim::Rng;

const CASES: u64 = 48;

/// Frame accounting is conserved and grants never overlap, under any
/// interleaving of reserves and releases.
#[test]
fn frame_allocator_conservation() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0xF2A3E + seed);
        let pool_frames = 512u64;
        let mut a = FrameAllocator::new(1 << 20, pool_frames * PAGE_FRAME_BYTES);
        let mut held: Vec<u64> = Vec::new();
        let ops = rng.range(1, 100);
        for _ in 0..ops {
            let frames = rng.range(1, 64);
            if rng.chance(0.5) && !held.is_empty() {
                let base = held.swap_remove(0);
                a.release(base, NodeId::new(2)).unwrap();
            }
            if let Ok(base) = a.reserve(frames, NodeId::new(2)) {
                held.push(base);
            }
            // Conservation.
            assert_eq!(
                a.free_frames() + a.granted_frames(),
                pool_frames,
                "seed {seed}"
            );
            // Disjointness: sort grants and check pairwise.
            let mut grants: Vec<(u64, u64)> = a.grants().map(|g| (g.base, g.frames)).collect();
            grants.sort_unstable();
            for w in grants.windows(2) {
                assert!(
                    w[0].0 + w[0].1 * PAGE_FRAME_BYTES <= w[1].0,
                    "seed {seed}: grants overlap"
                );
            }
        }
        // Release everything: a full-pool reservation must then succeed.
        for base in held {
            a.release(base, NodeId::new(2)).unwrap();
        }
        assert_eq!(a.free_frames(), pool_frames, "seed {seed}");
        assert!(
            a.reserve(pool_frames, NodeId::new(3)).is_ok(),
            "seed {seed}"
        );
    }
}

/// The page table agrees with a HashMap oracle under arbitrary
/// map/unmap/swap transitions.
#[test]
fn page_table_matches_oracle() {
    #[derive(Clone, Copy, PartialEq)]
    enum St {
        Mapped(u64),
        Swapped,
        None,
    }
    for seed in 0..CASES {
        let mut rng = Rng::new(0x9A6E7 + seed);
        let mut pt = PageTable::new(TlbConfig { entries: 8 });
        let mut oracle: std::collections::HashMap<u64, St> = Default::default();
        let ops = rng.range(1, 200);
        for i in 0..ops {
            let vpn = rng.below(64);
            match rng.below(3) {
                0 => {
                    let phys = (i + 1) * PAGE_BYTES;
                    pt.map(vpn, phys);
                    oracle.insert(vpn, St::Mapped(phys));
                }
                1 => {
                    pt.mark_swapped(vpn);
                    oracle.insert(vpn, St::Swapped);
                }
                _ => {
                    pt.unmap(vpn);
                    oracle.insert(vpn, St::None);
                }
            }
            // Probe a few addresses after each mutation.
            for probe in [vpn, (vpn + 1) % 64] {
                let got = pt.translate(probe * PAGE_BYTES + 5);
                let want = oracle.get(&probe).copied().unwrap_or(St::None);
                match (got, want) {
                    (
                        Translation::TlbHit { phys } | Translation::Walked { phys },
                        St::Mapped(p),
                    ) => {
                        assert_eq!(phys, p + 5, "seed {seed}");
                    }
                    (Translation::MajorFault, St::Swapped) => {}
                    (Translation::Unmapped, St::None) => {}
                    (got, _) => panic!("seed {seed}: vpn {probe}: mismatch {got:?}"),
                }
            }
        }
    }
}

/// Page-cache residency: bounded, hit iff resident, dirty write-backs
/// exactly for pages written since they became resident.
#[test]
fn page_cache_matches_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::new(0x9A6EC + seed);
        let capacity = rng.range(1, 16) as usize;
        let mut cache = PageCache::new(capacity);
        let mut resident: std::collections::HashMap<u64, bool> = Default::default();
        let ops = rng.range(1, 300);
        for _ in 0..ops {
            let vpage = rng.below(48);
            let write = rng.chance(0.5);
            match cache.touch(vpage, write) {
                Touch::Hit => {
                    assert!(
                        resident.contains_key(&vpage),
                        "seed {seed}: hit on non-resident"
                    );
                    if write {
                        resident.insert(vpage, true);
                    }
                }
                Touch::Miss { evicted } => {
                    assert!(
                        !resident.contains_key(&vpage),
                        "seed {seed}: miss on resident"
                    );
                    if let Some(e) = evicted {
                        let was_dirty = resident
                            .remove(&e.vpage)
                            .expect("evicted page must be resident");
                        assert_eq!(e.dirty, was_dirty, "seed {seed}: dirty flag wrong");
                    }
                    resident.insert(vpage, write);
                }
            }
            assert!(cache.resident() <= capacity, "seed {seed}");
            assert_eq!(cache.resident(), resident.len(), "seed {seed}");
        }
        let mut flushed = cache.flush_dirty();
        flushed.sort_unstable();
        let mut dirty: Vec<u64> = resident
            .iter()
            .filter(|(_, &d)| d)
            .map(|(&v, _)| v)
            .collect();
        dirty.sort_unstable();
        assert_eq!(flushed, dirty, "seed {seed}");
    }
}
