//! Optional two-level cache hierarchy.
//!
//! The baseline model uses one cache as the aggregate hierarchy a core
//! sees. [`CacheHierarchy`] refines that with a small, fast L1 in front of
//! the L2 (non-inclusive/non-exclusive — "NINE" — the Opteron family's
//! policy): fills populate both levels, an L1 dirty victim is absorbed by
//! the L2, and only L2 dirty victims reach memory. With `l1: None` the
//! hierarchy degenerates *exactly* to the single-cache baseline, so the
//! refinement is opt-in and never perturbs existing calibration.
//!
//! An access allocates nothing: the dirty lines it pushes out of the
//! hierarchy come back in a two-slot [`Writebacks`] value. Two is the bound.
//! An L1 miss displaces at most one L1 victim, whose `install_dirty` into
//! the L2 spills at most one dirty L2 line; the L2's own demand miss then
//! displaces at most one more. `access` is inlined into its caller, and so
//! are the hit halves of both caches' lookups.

use crate::cache::{Cache, CacheConfig, CacheOutcome};
use std::ops::Deref;

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Hit in the (optional) level-1 cache.
    L1,
    /// Hit in the level-2 cache (L1 filled on the way, when present).
    L2,
    /// Missed the whole hierarchy; the backing memory must be accessed.
    Memory,
}

/// The dirty lines one access displaced out of the hierarchy, in the order
/// they were displaced: at most two (see the module docs). Reads as a
/// slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Writebacks {
    /// Line addresses; only the first `len` are meaningful, and the rest
    /// stay 0 so the derived equality compares the slices.
    lines: [u64; 2],
    len: u8,
}

impl Writebacks {
    /// Append one displaced line.
    ///
    /// # Panics
    /// Panics on a third line, which no access can displace.
    #[inline]
    fn push(&mut self, line: u64) {
        self.lines[self.len as usize] = line;
        self.len += 1;
    }
}

impl Deref for Writebacks {
    type Target = [u64];

    #[inline]
    fn deref(&self) -> &[u64] {
        &self.lines[..self.len as usize]
    }
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Level that satisfied the access.
    pub level: Level,
    /// Dirty lines displaced all the way out of the hierarchy; the owner
    /// must write them back to their home memory.
    pub memory_writebacks: Writebacks,
}

/// A two-level (or degenerate single-level) write-back cache hierarchy.
#[derive(Debug)]
pub struct CacheHierarchy {
    l1: Option<Cache>,
    l2: Cache,
}

impl CacheHierarchy {
    /// Build a hierarchy; `l1 = None` gives the single-cache baseline.
    ///
    /// # Panics
    /// Panics if the two levels disagree on line size (mixed-line
    /// hierarchies need sectoring, which the Opteron did not use).
    pub fn new(l1: Option<CacheConfig>, l2: CacheConfig) -> CacheHierarchy {
        if let Some(c1) = l1 {
            assert_eq!(
                c1.line_bytes, l2.line_bytes,
                "L1 and L2 must share a line size"
            );
        }
        CacheHierarchy {
            l1: l1.map(Cache::new),
            l2: Cache::new(l2),
        }
    }

    /// Line size of the hierarchy.
    pub fn line_bytes(&self) -> u32 {
        self.l2.config().line_bytes
    }

    /// Access the line containing `addr`; `write` dirties it.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> HierarchyOutcome {
        let mut memory_writebacks = Writebacks::default();
        // L1 first (when present).
        if let Some(l1) = self.l1.as_mut() {
            match l1.access(addr, write) {
                CacheOutcome::Hit => {
                    return HierarchyOutcome {
                        level: Level::L1,
                        memory_writebacks,
                    };
                }
                CacheOutcome::Miss { victim_writeback } => {
                    if let Some(v) = victim_writeback {
                        // L2 absorbs the L1 dirty victim (NINE policy).
                        if let Some(spilled) = self.l2.install_dirty(v) {
                            memory_writebacks.push(spilled);
                        }
                    }
                }
            }
        }
        // L2 (the demand access; on an L1 hit we never get here).
        let level = match self.l2.access(addr, write) {
            CacheOutcome::Hit => Level::L2,
            CacheOutcome::Miss { victim_writeback } => {
                if let Some(v) = victim_writeback {
                    memory_writebacks.push(v);
                }
                Level::Memory
            }
        };
        HierarchyOutcome {
            level,
            memory_writebacks,
        }
    }

    /// Flush everything; returns the deduplicated dirty lines that must be
    /// written back to memory.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        if let Some(l1) = self.l1.as_mut() {
            dirty.extend(l1.flush_all());
        }
        dirty.extend(self.l2.flush_all());
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Drop all lines in `[base, base+len)`, returning deduplicated dirty
    /// lines for write-back.
    pub fn flush_range(&mut self, base: u64, len: u64) -> Vec<u64> {
        let mut dirty = Vec::new();
        if let Some(l1) = self.l1.as_mut() {
            dirty.extend(l1.flush_range(base, len));
        }
        dirty.extend(self.l2.flush_range(base, len));
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::oracle::{next_addr, OracleCache};
    use cohfree_sim::Rng;
    use std::collections::HashSet;

    /// [`CacheHierarchy`]'s NINE logic over the oracle caches.
    struct OracleHierarchy {
        l1: Option<OracleCache>,
        l2: OracleCache,
    }

    impl OracleHierarchy {
        /// The level that served the access and the lines it displaced out
        /// of the hierarchy, in displacement order, in a `Vec`.
        fn access(&mut self, addr: u64, write: bool) -> (Level, Vec<u64>) {
            let mut memory_writebacks = Vec::new();
            if let Some(l1) = self.l1.as_mut() {
                match l1.access(addr, write) {
                    CacheOutcome::Hit => return (Level::L1, memory_writebacks),
                    CacheOutcome::Miss { victim_writeback } => {
                        if let Some(v) = victim_writeback {
                            memory_writebacks.extend(self.l2.install_dirty(v));
                        }
                    }
                }
            }
            let level = match self.l2.access(addr, write) {
                CacheOutcome::Hit => Level::L2,
                CacheOutcome::Miss { victim_writeback } => {
                    memory_writebacks.extend(victim_writeback);
                    Level::Memory
                }
            };
            (level, memory_writebacks)
        }

        fn flush(&mut self, range: Option<(u64, u64)>) -> Vec<u64> {
            let mut dirty = Vec::new();
            for c in self.l1.iter_mut().chain([&mut self.l2]) {
                dirty.extend(match range {
                    Some((base, len)) => c.flush_range(base, len),
                    None => c.flush_all(),
                });
            }
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        }
    }

    /// Through [`CacheHierarchy`], with and without an L1, the flat caches
    /// match the oracle caches on every level, write-back list (the
    /// two-slot [`Writebacks`] against the oracle's `Vec`, in order) and
    /// flush result. The stream mixes same-line and same-page bursts with
    /// random jumps, so L1 dirty victims land in the L2 (`install_dirty`)
    /// between repeat accesses.
    #[test]
    fn hierarchy_matches_oracle_caches() {
        let c = |sets, ways| CacheConfig {
            line_bytes: 64,
            sets,
            ways,
        };
        let shapes = [
            (None, c(8, 2)),
            (Some(c(2, 2)), c(8, 2)),
            (Some(c(4, 1)), c(16, 4)),
            (Some(c(64, 8)), c(512, 16)),
        ];
        for (l1, l2) in shapes {
            let span = (4 * l2.capacity_bytes()).next_multiple_of(4096);
            for seed in 0..4u64 {
                let mut rng = Rng::new(0x41E7 + seed);
                let mut h = CacheHierarchy::new(l1, l2);
                let mut o = OracleHierarchy {
                    l1: l1.map(OracleCache::new),
                    l2: OracleCache::new(l2),
                };
                let mut addr = 0;
                for step in 0..20_000 {
                    let ctx = || format!("{l1:?}/{l2:?} seed {seed} step {step}");
                    match rng.below(100) {
                        0..=97 => {
                            addr = next_addr(&mut rng, addr, span);
                            let write = rng.chance(0.3);
                            let out = h.access(addr, write);
                            let (level, writebacks) = o.access(addr, write);
                            assert_eq!(out.level, level, "{}", ctx());
                            assert_eq!(*out.memory_writebacks, writebacks[..], "{}", ctx());
                        }
                        98 => {
                            let base = addr & !4095;
                            assert_eq!(
                                h.flush_range(base, 4096),
                                o.flush(Some((base, 4096))),
                                "{}",
                                ctx()
                            );
                        }
                        _ => assert_eq!(h.flush_all(), o.flush(None), "{}", ctx()),
                    }
                }
            }
        }
    }

    fn small() -> CacheHierarchy {
        CacheHierarchy::new(
            Some(CacheConfig {
                line_bytes: 64,
                sets: 2,
                ways: 2,
            }), // 256 B L1
            CacheConfig {
                line_bytes: 64,
                sets: 8,
                ways: 2,
            }, // 1 KiB L2
        )
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = small();
        assert_eq!(h.access(0, false).level, Level::Memory);
        assert_eq!(h.access(0, false).level, Level::L1);
    }

    #[test]
    fn l2_serves_l1_victims() {
        let mut h = small();
        // Fill lines 0, 128, 256 — all map to L1 set 0 (2 ways): line 0 is
        // evicted from L1 but stays in L2.
        h.access(0, false);
        h.access(128, false);
        h.access(256, false);
        assert_eq!(h.access(0, false).level, Level::L2);
    }

    #[test]
    fn dirty_l1_victims_are_absorbed_not_lost() {
        let mut h = small();
        h.access(0, true); // dirty in L1
        h.access(128, false);
        let out = h.access(256, false); // evicts line 0 from L1 (dirty)
                                        // The dirty line moved into L2, not to memory.
        assert!(out.memory_writebacks.is_empty());
        // Flushing must still surface it exactly once.
        let dirty = h.flush_all();
        assert_eq!(dirty, vec![0]);
    }

    #[test]
    fn degenerate_hierarchy_matches_single_cache() {
        let cfg = CacheConfig {
            line_bytes: 64,
            sets: 4,
            ways: 2,
        };
        let mut h = CacheHierarchy::new(None, cfg);
        let mut c = Cache::new(cfg);
        let mut rng = Rng::new(9);
        for _ in 0..2_000 {
            let addr = rng.below(1 << 16);
            let write = rng.chance(0.3);
            let hout = h.access(addr, write);
            let cout = c.access(addr, write);
            match cout {
                CacheOutcome::Hit => {
                    assert_eq!(hout.level, Level::L2);
                    assert!(hout.memory_writebacks.is_empty());
                }
                CacheOutcome::Miss { victim_writeback } => {
                    assert_eq!(hout.level, Level::Memory);
                    assert_eq!(&*hout.memory_writebacks, victim_writeback.as_slice());
                }
            }
        }
        assert_eq!(h.flush_all(), c.flush_all());
    }

    #[test]
    fn no_dirty_line_is_ever_lost() {
        // Random op stream: every line ever dirtied must either appear in a
        // memory writeback or in the final flush (at least once).
        let mut h = small();
        let mut rng = Rng::new(11);
        let mut dirtied: HashSet<u64> = HashSet::new();
        let mut written_back: HashSet<u64> = HashSet::new();
        for _ in 0..3_000 {
            let addr = rng.below(1 << 12) & !63;
            let write = rng.chance(0.5);
            let out = h.access(addr, write);
            written_back.extend(out.memory_writebacks.iter());
            if write {
                dirtied.insert(addr);
            }
        }
        written_back.extend(h.flush_all());
        for line in dirtied {
            assert!(written_back.contains(&line), "lost dirty line {line:#x}");
        }
    }

    #[test]
    fn l1_filters_repeat_traffic_from_l2() {
        let mut with_l1 = small();
        let mut without = CacheHierarchy::new(
            None,
            CacheConfig {
                line_bytes: 64,
                sets: 8,
                ways: 2,
            },
        );
        // Hammer one hot line: after the first miss, the L1 serves every
        // access and the L2 sees none of them.
        for i in 0..100 {
            let (a, b) = (with_l1.access(0, false), without.access(0, false));
            let (want_a, want_b) = if i == 0 {
                (Level::Memory, Level::Memory)
            } else {
                (Level::L1, Level::L2)
            };
            assert_eq!((a.level, b.level), (want_a, want_b), "access {i}");
        }
    }

    /// One access can push two dirty lines out of the hierarchy: the L2
    /// line the L1's dirty victim displaces when the L2 absorbs it, then
    /// the L2's own demand victim, in that order.
    #[test]
    fn one_access_returns_two_write_backs_in_displacement_order() {
        // L1: 2 sets x 1 way (lines 0 and 128 share set 0; 64 and 192
        // share set 1). L2: 1 set x 2 ways.
        let mut h = CacheHierarchy::new(
            Some(CacheConfig {
                line_bytes: 64,
                sets: 2,
                ways: 1,
            }),
            CacheConfig {
                line_bytes: 64,
                sets: 1,
                ways: 2,
            },
        );
        let wb = |out: HierarchyOutcome| (out.level, out.memory_writebacks.to_vec());
        assert_eq!(wb(h.access(0, true)), (Level::Memory, vec![]));
        assert_eq!(wb(h.access(64, true)), (Level::Memory, vec![]));
        // The L1 absorbs 64's eviction into the L2, and 192's demand miss
        // displaces dirty line 0 from the L2; the L1 still holds 0, dirty.
        assert_eq!(wb(h.access(192, true)), (Level::Memory, vec![0]));
        // 128 evicts 0 from the L1; installing 0 in the full L2 spills its
        // LRU line 64, and 128's demand miss then displaces 192.
        assert_eq!(wb(h.access(128, false)), (Level::Memory, vec![64, 192]));
        assert_eq!(h.flush_all(), vec![0, 192]);
    }

    #[test]
    fn flush_range_spans_both_levels() {
        let mut h = small();
        h.access(0, true);
        h.access(128, true);
        h.access(256, true); // pushes 0's dirty copy into L2
        let dirty = h.flush_range(0, 192);
        assert_eq!(dirty, vec![0, 128]);
    }

    #[test]
    #[should_panic(expected = "share a line size")]
    fn mismatched_line_sizes_rejected() {
        CacheHierarchy::new(
            Some(CacheConfig {
                line_bytes: 32,
                sets: 2,
                ways: 1,
            }),
            CacheConfig {
                line_bytes: 64,
                sets: 2,
                ways: 1,
            },
        );
    }
}
