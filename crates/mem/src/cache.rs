//! Set-associative write-back cache (timing filter).
//!
//! One cache instance models the cache hierarchy a single application core
//! sees (the prototype binds memory-hungry processes to one core). It caches
//! *physical* lines — both local DRAM and RMC-mapped remote ranges, because
//! the prototype configures remote memory write-back cacheable. It tracks
//! tags, dirtiness and LRU order only; data lives in the functional store
//! (see the crate docs for why that is exact here).
//!
//! The owner asks `access(addr, write)` and receives hit/miss plus any
//! victim writeback it must perform; `flush*` returns the dirty lines that a
//! read-only parallel phase must push out before other cores may share the
//! region (Section IV-B of the paper).
//!
//! All sets live in one `Vec` of `sets × ways` lines with a fill count per
//! set; within a set the lines are in no particular order, and the LRU
//! victim is the smallest stamp (stamps are unique). The cache remembers
//! which line its last `access` touched, so a repeat access to that line
//! hits without scanning the set; every other mutator clears the memo.
//! `access` is split in two: its hit half (the memo, then the set scan) is
//! inlined into the caller, and the fill and eviction sit in a cold miss
//! half, so a hit pays for no code it does not run.
//!
//! Beside the sets, every 64-line group of the physical line space that
//! holds a resident line has a 64-bit mask with one bit per resident line.
//! A range flush reads the masks and looks up only the lines whose bits are
//! set, so flushing a 4 KiB page costs one set probe per cached line of the
//! page, not one per line of it.

use cohfree_sim::FastMap;

/// Log2 of the residency-group size in lines: groups of 64 lines (one 4 KiB
/// page at 64 B lines) get a resident-line mask, so a range flush visits the
/// resident lines of the range and no others.
const GROUP_SHIFT: u32 = 6;

/// Cache geometry.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        // 2 MiB, 16-way, 64 B lines — an Opteron-era L2/L3 aggregate.
        CacheConfig {
            line_bytes: 64,
            sets: 2048,
            ways: 16,
        }
    }
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_bytes as u64 * self.sets as u64 * self.ways as u64
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; it has been filled. If a dirty victim was displaced, its
    /// line-aligned address is returned and the caller must write it back.
    Miss {
        /// Line-aligned address of a displaced dirty victim the caller
        /// must write back, if any.
        victim_writeback: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU stamp: larger = more recently used.
    lru: u64,
}

/// A set-associative write-back cache over physical addresses.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every set's ways back to back: set `s` keeps its resident lines in
    /// `lines[s * ways..][..fill[s]]`, in no particular order.
    lines: Vec<Line>,
    /// Resident lines per set.
    fill: Vec<u32>,
    /// `(line address, index in lines)` of the line the last `access`
    /// touched, so a repeat access hits without the set scan. Cleared by
    /// every other mutator.
    last: Option<(u64, usize)>,
    /// Resident-line mask per 64-line group (key: line index >>
    /// GROUP_SHIFT; bit `li % 64` is set while line `li` is resident).
    /// Groups with no resident line have no entry. Lets `flush_range` visit
    /// only the resident lines of its range.
    group_lines: FastMap<u64, u64>,
    clock: u64,
}

/// Bits `[lo, hi)` of a 64-bit mask, for `lo < hi <= 64`.
#[inline]
fn bit_range(lo: u64, hi: u64) -> u64 {
    debug_assert!(lo < hi && hi <= 64);
    (u64::MAX >> (64 - (hi - lo))) << lo
}

impl Cache {
    /// Build a cache with the given geometry.
    ///
    /// # Panics
    /// Panics unless `line_bytes` and `sets` are powers of two and `ways ≥ 1`.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            cfg.sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(cfg.ways >= 1, "cache needs at least one way");
        let empty = Line {
            tag: 0,
            dirty: false,
            lru: 0,
        };
        Cache {
            lines: vec![empty; cfg.sets as usize * cfg.ways as usize],
            fill: vec![0; cfg.sets as usize],
            last: None,
            group_lines: FastMap::default(),
            cfg,
            clock: 0,
        }
    }

    /// The geometry in force.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr / self.cfg.line_bytes as u64) & (self.cfg.sets as u64 - 1)) as usize
    }

    #[inline]
    fn tag_of(&self, line_addr: u64) -> u64 {
        line_addr / self.cfg.line_bytes as u64 / self.cfg.sets as u64
    }

    /// Reconstruct a line-aligned address from (set, tag).
    fn addr_of(&self, set: usize, tag: u64) -> u64 {
        (tag * self.cfg.sets as u64 + set as u64) * self.cfg.line_bytes as u64
    }

    /// Index in `lines` of the first way of `set`.
    #[inline]
    fn base_of(&self, set: usize) -> usize {
        set * self.cfg.ways as usize
    }

    /// Resident lines of `set`.
    #[inline]
    fn set(&self, set: usize) -> &[Line] {
        &self.lines[self.base_of(set)..][..self.fill[set] as usize]
    }

    /// Index in `lines` of the resident line `tag` of `set`, if any.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let pos = self.set(set).iter().position(|l| l.tag == tag)?;
        Some(self.base_of(set) + pos)
    }

    /// Set line `li`'s bit in its group's residency mask.
    #[inline]
    fn note_fill(&mut self, li: u64) {
        *self.group_lines.entry(li >> GROUP_SHIFT).or_insert(0) |= 1 << (li % 64);
    }

    /// Clear line `li`'s bit in its group's residency mask.
    #[inline]
    fn note_evict(&mut self, li: u64) {
        let g = li >> GROUP_SHIFT;
        let mask = self
            .group_lines
            .get_mut(&g)
            .expect("an evicted line's group is tracked");
        debug_assert!(
            *mask & 1 << (li % 64) != 0,
            "evicting a line not marked resident"
        );
        *mask &= !(1 << (li % 64));
        if *mask == 0 {
            self.group_lines.remove(&g);
        }
    }

    /// Fill `tag` into `set` as its most recent line: into a free way, or
    /// over the least-recently-used line. Returns the index used and the
    /// displaced line's address if it was dirty.
    fn place(&mut self, set: usize, tag: u64, dirty: bool) -> (usize, Option<u64>) {
        let base = self.base_of(set);
        let ways = self.cfg.ways as usize;
        let filled = self.fill[set] as usize;
        let (i, victim) = if filled < ways {
            self.fill[set] += 1;
            (base + filled, None)
        } else {
            let i = (base..base + ways)
                .min_by_key(|&i| self.lines[i].lru)
                .expect("a cache set has at least one way");
            (i, Some(self.lines[i]))
        };
        self.lines[i] = Line {
            tag,
            dirty,
            lru: self.clock,
        };
        let nsets = self.cfg.sets as u64;
        self.note_fill(tag * nsets + set as u64);
        let Some(victim) = victim else {
            return (i, None);
        };
        self.note_evict(victim.tag * nsets + set as u64);
        (i, victim.dirty.then(|| self.addr_of(set, victim.tag)))
    }

    /// Look up the line containing `addr`; fill on miss. `write` marks the
    /// line dirty.
    ///
    /// The hit half (the memo, then the set scan) is inlined into the
    /// caller; the fill and eviction are a separate cold function.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
        self.clock += 1;
        let la = self.line_addr(addr);
        let hit = match self.last {
            Some((last_la, i)) if last_la == la => Some(i),
            _ => self.find(self.set_of(la), self.tag_of(la)),
        };
        let Some(i) = hit else {
            return self.miss(la, write);
        };
        let line = &mut self.lines[i];
        line.lru = self.clock;
        line.dirty |= write;
        self.last = Some((la, i));
        CacheOutcome::Hit
    }

    /// The miss half of [`Cache::access`]: fill the line at `la`.
    #[cold]
    fn miss(&mut self, la: u64, write: bool) -> CacheOutcome {
        let (i, victim_writeback) = self.place(self.set_of(la), self.tag_of(la), write);
        self.last = Some((la, i));
        CacheOutcome::Miss { victim_writeback }
    }

    /// Install the line containing `addr` as dirty outside any demand
    /// access — the path a lower cache level uses to absorb an upper level's
    /// dirty victim. Returns a displaced dirty victim, if any.
    pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        self.last = None;
        let la = self.line_addr(addr);
        let set = self.set_of(la);
        let tag = self.tag_of(la);
        if let Some(i) = self.find(set, tag) {
            let line = &mut self.lines[i];
            line.lru = self.clock;
            line.dirty = true;
            return None;
        }
        self.place(set, tag, true).1
    }

    /// True if the line containing `addr` is present (no LRU update).
    pub fn probe(&self, addr: u64) -> bool {
        let la = self.line_addr(addr);
        self.find(self.set_of(la), self.tag_of(la)).is_some()
    }

    /// Drop every line, returning the addresses of dirty ones (the caller
    /// must write them back). Models the explicit flush before a read-only
    /// parallel phase.
    pub fn flush_all(&mut self) -> Vec<u64> {
        self.last = None;
        let mut dirty = Vec::new();
        for set in 0..self.fill.len() {
            for line in self.set(set) {
                if line.dirty {
                    dirty.push(self.addr_of(set, line.tag));
                }
            }
        }
        self.fill.fill(0);
        self.group_lines.clear();
        dirty.sort_unstable();
        dirty
    }

    /// Drop every line holding a byte of `[base, base+len)`, returning the
    /// dirty ones' addresses. An empty range drops nothing.
    pub fn flush_range(&mut self, base: u64, len: u64) -> Vec<u64> {
        self.last = None;
        let mut dirty = Vec::new();
        let lb = self.cfg.line_bytes as u64;
        let nsets = self.cfg.sets as u64;
        let set_shift = nsets.trailing_zeros();
        let first_line = base / lb;
        // Rounding `base + 0` up would keep an unaligned `base`'s own line.
        let end_line = if len == 0 {
            first_line
        } else {
            (base + len).div_ceil(lb)
        };
        // Walk the range one residency group at a time and look up only
        // the lines whose mask bits are set: a cold victim page (the common
        // case on the swap path) costs one map probe, and a warm one one
        // set probe per resident line.
        for g in first_line >> GROUP_SHIFT..end_line.div_ceil(1 << GROUP_SHIFT) {
            let g_base = g << GROUP_SHIFT;
            let lo = first_line.max(g_base) - g_base;
            let hi = end_line.min(g_base + (1 << GROUP_SHIFT)) - g_base;
            if lo >= hi {
                continue;
            }
            let Some(mask) = self.group_lines.get_mut(&g) else {
                continue;
            };
            let mut gone = *mask & bit_range(lo, hi);
            *mask &= !gone;
            if *mask == 0 {
                self.group_lines.remove(&g);
            }
            while gone != 0 {
                let li = g_base + gone.trailing_zeros() as u64;
                gone &= gone - 1;
                let set = (li & (nsets - 1)) as usize;
                let i = self
                    .find(set, li >> set_shift)
                    .expect("a line marked resident is in its set");
                // Move the set's last line into the hole.
                self.fill[set] -= 1;
                let last = self.base_of(set) + self.fill[set] as usize;
                if self.lines[i].dirty {
                    dirty.push(li * lb);
                }
                self.lines[i] = self.lines[last];
            }
        }
        dirty.sort_unstable();
        dirty
    }

    /// Lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.fill.iter().map(|&n| n as usize).sum()
    }
}

/// The oracle the differential tests here and in `hierarchy` drive the
/// flat cache against, and the address stream they drive it with.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use cohfree_sim::Rng;

    /// The previous `Vec<Vec<Line>>` implementation of [`Cache`], kept
    /// verbatim (less the unused `config` and the hit, miss and write-back
    /// counters, which no caller read).
    #[derive(Debug)]
    pub(crate) struct OracleCache {
        cfg: CacheConfig,
        sets: Vec<Vec<Line>>,
        /// Resident lines per 64-line group (key: line index >> GROUP_SHIFT).
        /// Lets `flush_range` skip groups with no cached lines — the dominant
        /// case when the swap path flushes a cold victim page on every
        /// page-cache eviction.
        group_lines: FastMap<u64, u32>,
        clock: u64,
    }

    impl OracleCache {
        /// Build a cache with the given geometry.
        ///
        /// # Panics
        /// Panics unless `line_bytes` and `sets` are powers of two and `ways ≥ 1`.
        pub fn new(cfg: CacheConfig) -> OracleCache {
            assert!(
                cfg.line_bytes.is_power_of_two(),
                "line size must be a power of two"
            );
            assert!(
                cfg.sets.is_power_of_two(),
                "set count must be a power of two"
            );
            assert!(cfg.ways >= 1, "cache needs at least one way");
            OracleCache {
                sets: (0..cfg.sets)
                    .map(|_| Vec::with_capacity(cfg.ways as usize))
                    .collect(),
                group_lines: FastMap::default(),
                cfg,
                clock: 0,
            }
        }

        #[inline]
        fn line_addr(&self, addr: u64) -> u64 {
            addr & !(self.cfg.line_bytes as u64 - 1)
        }

        #[inline]
        fn set_of(&self, line_addr: u64) -> usize {
            ((line_addr / self.cfg.line_bytes as u64) & (self.cfg.sets as u64 - 1)) as usize
        }

        #[inline]
        fn tag_of(&self, line_addr: u64) -> u64 {
            line_addr / self.cfg.line_bytes as u64 / self.cfg.sets as u64
        }

        /// Reconstruct a line-aligned address from (set, tag).
        fn addr_of(&self, set: usize, tag: u64) -> u64 {
            (tag * self.cfg.sets as u64 + set as u64) * self.cfg.line_bytes as u64
        }

        /// Track a line fill in the per-group residency count.
        #[inline]
        fn note_fill(&mut self, li: u64) {
            *self.group_lines.entry(li >> GROUP_SHIFT).or_insert(0) += 1;
        }

        /// Track a line eviction in the per-group residency count.
        #[inline]
        fn note_evict(&mut self, li: u64) {
            let g = li >> GROUP_SHIFT;
            match self.group_lines.get_mut(&g) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.group_lines.remove(&g);
                }
                None => debug_assert!(false, "evicting a line from an untracked group"),
            }
        }

        /// Look up the line containing `addr`; fill on miss. `write` marks the
        /// line dirty.
        pub fn access(&mut self, addr: u64, write: bool) -> CacheOutcome {
            self.clock += 1;
            let la = self.line_addr(addr);
            let set_idx = self.set_of(la);
            let tag = self.tag_of(la);
            let ways = self.cfg.ways as usize;
            let set = &mut self.sets[set_idx];

            if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                line.lru = self.clock;
                line.dirty |= write;
                return CacheOutcome::Hit;
            }

            let mut evicted_line = None;
            let victim_writeback = if set.len() < ways {
                set.push(Line {
                    tag,
                    dirty: write,
                    lru: self.clock,
                });
                None
            } else {
                let (vi, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .expect("non-empty set");
                let victim = set[vi];
                set[vi] = Line {
                    tag,
                    dirty: write,
                    lru: self.clock,
                };
                evicted_line = Some(victim.tag * self.cfg.sets as u64 + set_idx as u64);
                if victim.dirty {
                    Some(self.addr_of(set_idx, victim.tag))
                } else {
                    None
                }
            };
            self.note_fill(la / self.cfg.line_bytes as u64);
            if let Some(li) = evicted_line {
                self.note_evict(li);
            }
            CacheOutcome::Miss { victim_writeback }
        }

        /// Install the line containing `addr` as dirty *without* counting a
        /// demand access — the path a lower cache level uses to absorb an upper
        /// level's dirty victim. Returns a displaced dirty victim, if any.
        pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
            self.clock += 1;
            let la = self.line_addr(addr);
            let set_idx = self.set_of(la);
            let tag = self.tag_of(la);
            let ways = self.cfg.ways as usize;
            let set = &mut self.sets[set_idx];
            if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                line.lru = self.clock;
                line.dirty = true;
                return None;
            }
            if set.len() < ways {
                set.push(Line {
                    tag,
                    dirty: true,
                    lru: self.clock,
                });
                self.note_fill(la / self.cfg.line_bytes as u64);
                return None;
            }
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("non-empty set");
            let victim = set[vi];
            set[vi] = Line {
                tag,
                dirty: true,
                lru: self.clock,
            };
            let victim_li = victim.tag * self.cfg.sets as u64 + set_idx as u64;
            self.note_fill(la / self.cfg.line_bytes as u64);
            self.note_evict(victim_li);
            if victim.dirty {
                Some(self.addr_of(set_idx, victim.tag))
            } else {
                None
            }
        }

        /// True if the line containing `addr` is present (no LRU update).
        pub fn probe(&self, addr: u64) -> bool {
            let la = self.line_addr(addr);
            let tag = self.tag_of(la);
            self.sets[self.set_of(la)].iter().any(|l| l.tag == tag)
        }

        /// Drop every line, returning the addresses of dirty ones (the caller
        /// must write them back). Models the explicit flush before a read-only
        /// parallel phase.
        pub fn flush_all(&mut self) -> Vec<u64> {
            let mut dirty = Vec::new();
            for set_idx in 0..self.sets.len() {
                for line in std::mem::take(&mut self.sets[set_idx]) {
                    if line.dirty {
                        dirty.push(self.addr_of(set_idx, line.tag));
                    }
                }
            }
            self.group_lines.clear();
            dirty.sort_unstable();
            dirty
        }

        /// Drop all lines within `[base, base+len)`, returning dirty addresses.
        pub fn flush_range(&mut self, base: u64, len: u64) -> Vec<u64> {
            let mut dirty = Vec::new();
            let lb = self.cfg.line_bytes as u64;
            let nsets = self.cfg.sets as u64;
            let set_shift = nsets.trailing_zeros();
            // Walk the range one residency group at a time: a group with no
            // resident lines is skipped with a single map probe — the dominant
            // case when the swap path flushes a cold victim page on every
            // page-cache eviction. Within a live group, each line maps to
            // exactly one (set, tag), so it is a targeted probe per line, not a
            // whole-cache scan.
            let first_line = base / lb;
            let end_line = if len == 0 {
                first_line
            } else {
                (base + len).div_ceil(lb)
            };
            let first_group = first_line >> GROUP_SHIFT;
            let last_group = if end_line == first_line {
                first_group
            } else {
                ((end_line - 1) >> GROUP_SHIFT) + 1
            };
            for g in first_group..last_group {
                let Some(&count) = self.group_lines.get(&g) else {
                    continue;
                };
                let lo = (g << GROUP_SHIFT).max(first_line);
                let hi = ((g + 1) << GROUP_SHIFT).min(end_line);
                let whole_group = hi - lo == 1 << GROUP_SHIFT;
                let mut removed = 0u32;
                for li in lo..hi {
                    if whole_group && removed == count {
                        break;
                    }
                    let set_idx = (li & (nsets - 1)) as usize;
                    let tag = li >> set_shift;
                    let set = &mut self.sets[set_idx];
                    if let Some(pos) = set.iter().position(|l| l.tag == tag) {
                        let line = set.swap_remove(pos);
                        if line.dirty {
                            dirty.push(li * lb);
                        }
                        removed += 1;
                    }
                }
                if removed == count {
                    self.group_lines.remove(&g);
                } else if removed > 0 {
                    *self.group_lines.get_mut(&g).expect("group tracked") -= removed;
                }
            }
            dirty.sort_unstable();
            dirty
        }

        /// Lines currently resident.
        pub fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// Next address of a seeded test stream over `[0, span)`: the same
    /// 64-byte line again (a burst), the next line, another line of the same
    /// 4 KiB page, or a random jump.
    pub(crate) fn next_addr(rng: &mut Rng, cur: u64, span: u64) -> u64 {
        match rng.below(10) {
            0..=4 => (cur & !63) | rng.below(64),
            5..=6 => (cur + 64) % span,
            7..=8 => (cur & !4095) | rng.below(4096),
            _ => rng.below(span),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{next_addr, OracleCache};
    use super::*;
    use cohfree_sim::Rng;

    /// The flat cache matches the `Vec<Vec<Line>>` oracle on every return
    /// value and on the resident-line count. The stream is
    /// mostly same-line and same-page bursts (the MRU memo) with random
    /// jumps over four times the capacity, interleaved with
    /// `install_dirty` (which can evict the memo line in a 1-way set),
    /// probes, `flush_range` and `flush_all`. Range flushes start at any
    /// byte offset, and their lengths include 0 and cross 64-line group
    /// boundaries, so both ends of a residency-mask range are exercised.
    #[test]
    fn cache_matches_vec_of_vecs_oracle() {
        for (line_bytes, sets, ways) in [
            (64, 1, 1),
            (64, 4, 2),
            (32, 8, 3),
            (64, 16, 4),
            (64, 64, 16),
        ] {
            let cfg = CacheConfig {
                line_bytes,
                sets,
                ways,
            };
            let span = (4 * cfg.capacity_bytes()).next_multiple_of(4096);
            for seed in 0..4u64 {
                let mut rng = Rng::new(0xF1A7 + seed);
                let (mut c, mut o) = (Cache::new(cfg), OracleCache::new(cfg));
                let mut addr = 0;
                for step in 0..20_000 {
                    let ctx = || format!("{cfg:?} seed {seed} step {step}");
                    match rng.below(100) {
                        0..=84 => {
                            addr = next_addr(&mut rng, addr, span);
                            let write = rng.chance(0.3);
                            assert_eq!(c.access(addr, write), o.access(addr, write), "{}", ctx());
                        }
                        85..=91 => {
                            let a = next_addr(&mut rng, addr, span);
                            assert_eq!(c.install_dirty(a), o.install_dirty(a), "{}", ctx());
                        }
                        92..=95 => {
                            let a = next_addr(&mut rng, addr, span);
                            assert_eq!(c.probe(a), o.probe(a), "{}", ctx());
                        }
                        96..=98 => {
                            let base = next_addr(&mut rng, addr, span);
                            let len = match rng.below(4) {
                                0 => 0,
                                1 => 4096,
                                _ => rng.below(3 * 4096),
                            };
                            assert_eq!(
                                c.flush_range(base, len),
                                o.flush_range(base, len),
                                "{}",
                                ctx()
                            );
                        }
                        _ => assert_eq!(c.flush_all(), o.flush_all(), "{}", ctx()),
                    }
                    assert_eq!(c.resident_lines(), o.resident_lines(), "{}", ctx());
                }
            }
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B — easy to reason about.
        Cache::new(CacheConfig {
            line_bytes: 64,
            sets: 4,
            ways: 2,
        })
    }

    /// Resident `(line index, dirty)` pairs of `c`, in line order.
    fn resident(c: &Cache) -> Vec<(u64, bool)> {
        let nsets = c.cfg.sets as u64;
        let mut lines: Vec<_> = (0..c.fill.len())
            .flat_map(|set| {
                c.set(set)
                    .iter()
                    .map(move |l| (l.tag * nsets + set as u64, l.dirty))
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    /// The residency masks mirror the sets bit for bit through any
    /// access/install/flush interleaving, and `flush_range` at any byte
    /// offset and length drops exactly the lines holding a byte of its
    /// range and returns exactly the dirty ones.
    #[test]
    fn group_residency_tracks_sets_through_random_ops() {
        let mut rng = Rng::new(77);
        let mut c = Cache::new(CacheConfig {
            line_bytes: 64,
            sets: 16,
            ways: 2,
        });
        for step in 0..20_000 {
            match rng.below(100) {
                0..=79 => {
                    let addr = rng.below(1 << 14);
                    c.access(addr, rng.below(2) == 0);
                }
                80..=89 => {
                    c.install_dirty(rng.below(1 << 14));
                }
                90..=97 => {
                    let base = rng.below(1 << 14);
                    let len = match rng.below(3) {
                        0 => 0,
                        1 => 4096,
                        _ => rng.below(3 * 4096),
                    };
                    let lines = if len == 0 {
                        0..0
                    } else {
                        base / 64..(base + len).div_ceil(64)
                    };
                    let (gone, kept): (Vec<_>, Vec<_>) = resident(&c)
                        .into_iter()
                        .partition(|(li, _)| lines.contains(li));
                    let dirty: Vec<u64> = gone.iter().filter(|l| l.1).map(|l| l.0 * 64).collect();
                    assert_eq!(c.flush_range(base, len), dirty, "step {step}");
                    assert_eq!(resident(&c), kept, "step {step}");
                }
                _ => {
                    c.flush_all();
                    assert_eq!(c.resident_lines(), 0);
                }
            }
            // Rebuild the residency masks from the sets and compare.
            let mut expect: FastMap<u64, u64> = FastMap::default();
            for (li, _) in resident(&c) {
                *expect.entry(li >> GROUP_SHIFT).or_insert(0) |= 1 << (li % 64);
            }
            assert_eq!(c.group_lines, expect, "step {step}");
        }
    }

    #[test]
    fn geometry_round_trips() {
        let c = tiny();
        for addr in [0u64, 64, 4096, 123_456, 1 << 40] {
            let la = c.line_addr(addr);
            let set = c.set_of(la);
            let tag = c.tag_of(la);
            assert_eq!(c.addr_of(set, tag), la, "addr {addr:#x}");
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(
            c.access(100, false),
            CacheOutcome::Miss {
                victim_writeback: None
            }
        );
        assert_eq!(c.access(100, false), CacheOutcome::Hit);
        assert_eq!(c.access(127, false), CacheOutcome::Hit, "same line");
        assert_eq!(
            c.access(128, false),
            CacheOutcome::Miss {
                victim_writeback: None
            }
        );
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0: line addresses 0, 256, 512 (stride = sets*line).
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // refresh 0; 256 is now LRU
        match c.access(512, false) {
            CacheOutcome::Miss {
                victim_writeback: None,
            } => {}
            other => panic!("clean victim expected, got {other:?}"),
        }
        assert!(c.probe(0), "refreshed line survives");
        assert!(!c.probe(256), "LRU line evicted");
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_victim_reports_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts line 0 (LRU, dirty)
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: Some(0)
            }
        );
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // hit-for-write dirties the line
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(
            out,
            CacheOutcome::Miss {
                victim_writeback: Some(0)
            }
        );
    }

    #[test]
    fn flush_all_returns_exactly_dirty_lines() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let dirty = c.flush_all();
        assert_eq!(dirty, vec![0, 128]);
        assert_eq!(c.resident_lines(), 0);
        // After flush, everything misses again.
        assert!(matches!(c.access(64, false), CacheOutcome::Miss { .. }));
    }

    #[test]
    fn flush_range_is_selective() {
        let mut c = tiny();
        c.access(0, true);
        c.access(64, true);
        c.access(128, true);
        let dirty = c.flush_range(64, 64);
        assert_eq!(dirty, vec![64]);
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
        // A range inside one line drops that line...
        c.access(64, true);
        assert_eq!(c.flush_range(100, 10), vec![64]);
        assert!(!c.probe(64));
        // ...and an empty range drops nothing.
        c.access(64, true);
        assert!(c.flush_range(100, 0).is_empty());
        assert!(c.probe(64));
    }

    #[test]
    fn capacity() {
        assert_eq!(CacheConfig::default().capacity_bytes(), 2 << 20);
        assert_eq!(tiny().config().capacity_bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig {
            line_bytes: 48,
            sets: 4,
            ways: 1,
        });
    }
}
