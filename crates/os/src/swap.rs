//! The swap-baseline page cache.
//!
//! Remote swap keeps only a bounded number of pages in local DRAM; the rest
//! live in a remote node's memory, reached by page-granularity transfers.
//! [`PageCache`] models the
//! resident set with the CLOCK (second-chance) replacement policy: O(1)
//! amortized, deterministic, and a faithful stand-in for what 2010-era Linux
//! did with its active/inactive lists.
//!
//! The *cost* of a fault (OS overhead, fetch, dirty write-back) is charged
//! by the owning backend in `cohfree-core`; this module decides *which*
//! page moves and keeps the accounting.

use cohfree_sim::FastMap;

/// A page evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Virtual page number that lost residency.
    pub vpage: u64,
    /// True if the page was modified and must be written back to the
    /// backing store before its frame is reused.
    pub dirty: bool,
}

/// Outcome of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Page resident: minor cost only.
    Hit,
    /// Page not resident: a major fault. The page has been made resident;
    /// if a victim had to be displaced it is reported for write-back.
    Miss {
        /// Victim displaced to make room, if the cache was full.
        evicted: Option<Evicted>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    vpage: u64,
    referenced: bool,
    dirty: bool,
}

/// Cumulative swap-activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Resident hits.
    pub hits: u64,
    /// Major faults (pages fetched from the backing store).
    pub major_faults: u64,
    /// Dirty evictions (pages written back).
    pub writebacks: u64,
    /// Clean evictions (frames silently reused).
    pub clean_evictions: u64,
}

/// Bounded resident-set model with CLOCK replacement.
#[derive(Debug)]
pub struct PageCache {
    capacity: usize,
    slots: Vec<Slot>,
    map: FastMap<u64, usize>,
    /// `(vpage, slot)` of the page the last `touch` touched, so a repeat
    /// touch skips the map probe. A page keeps its slot until it is
    /// evicted, and the miss that evicts it moves the memo to the new page.
    last: Option<(u64, usize)>,
    hand: usize,
    stats: SwapStats,
}

impl PageCache {
    /// A cache holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> PageCache {
        assert!(capacity > 0, "page cache needs capacity >= 1");
        PageCache {
            capacity,
            slots: Vec::with_capacity(capacity),
            map: FastMap::default(),
            last: None,
            hand: 0,
            stats: SwapStats::default(),
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// True if `vpage` is resident (no state change).
    pub fn contains(&self, vpage: u64) -> bool {
        self.map.contains_key(&vpage)
    }

    /// Touch `vpage` (write access dirties it). Makes the page resident.
    pub fn touch(&mut self, vpage: u64, write: bool) -> Touch {
        let hit = match self.last {
            Some((last, i)) if last == vpage => Some(i),
            _ => self.map.get(&vpage).copied(),
        };
        match hit {
            Some(i) => {
                self.touch_slot(i, vpage, write);
                Touch::Hit
            }
            None => Touch::Miss {
                evicted: self.admit(vpage, write).1,
            },
        }
    }

    /// Touch the resident `vpage` through the slot it occupies (see
    /// [`PageCache::admit`]), skipping the lookup: the same state change
    /// and accounting as a [`Touch::Hit`].
    #[inline]
    pub fn touch_slot(&mut self, slot: usize, vpage: u64, write: bool) {
        let s = &mut self.slots[slot];
        debug_assert_eq!(s.vpage, vpage, "page-cache slot {slot} holds another page");
        s.referenced = true;
        s.dirty |= write;
        self.stats.hits += 1;
        self.last = Some((vpage, slot));
    }

    /// Make the non-resident `vpage` resident (a major fault). Returns the
    /// slot it now occupies and the page it displaced, if the cache was
    /// full. Slots are handed out in order from 0 while the cache fills;
    /// after that a page takes its victim's slot, and keeps its slot until
    /// it is evicted.
    pub fn admit(&mut self, vpage: u64, write: bool) -> (usize, Option<Evicted>) {
        debug_assert!(!self.contains(vpage), "admitting a resident page");
        self.stats.major_faults += 1;
        let page = Slot {
            vpage,
            referenced: true,
            dirty: write,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(page);
            let i = self.slots.len() - 1;
            self.map.insert(vpage, i);
            self.last = Some((vpage, i));
            return (i, None);
        }
        // CLOCK: advance the hand, clearing reference bits, until an
        // unreferenced victim is found.
        let victim_idx = loop {
            let s = &mut self.slots[self.hand];
            if s.referenced {
                s.referenced = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                break self.hand;
            }
        };
        let victim = std::mem::replace(&mut self.slots[victim_idx], page);
        self.map.remove(&victim.vpage);
        self.map.insert(vpage, victim_idx);
        self.last = Some((vpage, victim_idx));
        self.hand = (victim_idx + 1) % self.capacity;
        if victim.dirty {
            self.stats.writebacks += 1;
        } else {
            self.stats.clean_evictions += 1;
        }
        let evicted = Evicted {
            vpage: victim.vpage,
            dirty: victim.dirty,
        };
        (victim_idx, Some(evicted))
    }

    /// Write back every dirty page (e.g. at program exit); returns the
    /// vpages that were dirty. Residency is preserved.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for s in &mut self.slots {
            if s.dirty {
                dirty.push(s.vpage);
                s.dirty = false;
            }
        }
        self.stats.writebacks += dirty.len() as u64;
        dirty.sort_unstable();
        dirty
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SwapStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohfree_sim::Rng;

    /// Memo-free CLOCK reference: linear search for the page, same hand
    /// rule and accounting as [`PageCache`].
    struct RefClock {
        capacity: usize,
        /// `(vpage, referenced, dirty)` per slot.
        slots: Vec<(u64, bool, bool)>,
        hand: usize,
    }

    impl RefClock {
        fn touch(&mut self, vpage: u64, write: bool) -> Touch {
            if let Some(s) = self.slots.iter_mut().find(|s| s.0 == vpage) {
                s.1 = true;
                s.2 |= write;
                return Touch::Hit;
            }
            if self.slots.len() < self.capacity {
                self.slots.push((vpage, true, write));
                return Touch::Miss { evicted: None };
            }
            while self.slots[self.hand].1 {
                self.slots[self.hand].1 = false;
                self.hand = (self.hand + 1) % self.capacity;
            }
            let (victim, _, dirty) = self.slots[self.hand];
            self.slots[self.hand] = (vpage, true, write);
            self.hand = (self.hand + 1) % self.capacity;
            Touch::Miss {
                evicted: Some(Evicted {
                    vpage: victim,
                    dirty,
                }),
            }
        }

        fn flush_dirty(&mut self) -> Vec<u64> {
            let mut dirty: Vec<u64> = self.slots.iter().filter(|s| s.2).map(|s| s.0).collect();
            self.slots.iter_mut().for_each(|s| s.2 = false);
            dirty.sort_unstable();
            dirty
        }
    }

    /// The memo page's reference bit is cleared by the CLOCK hand during
    /// another page's miss; touching it again must set the bit, so the next
    /// eviction skips it exactly as a memo-free run does. A memo page that
    /// `flush_dirty` cleaned must be dirtied again by a write touch.
    #[test]
    fn memo_page_keeps_clock_bits_exact() {
        let mut c = PageCache::new(3);
        for v in [10, 11, 12, 12] {
            c.touch(v, false);
        }
        // 12 is the memo page. 13's miss sweeps every bit clear (12's too)
        // and evicts 10 from slot 0; the hand stops at slot 1 (page 11).
        assert_eq!(
            c.touch(13, false),
            Touch::Miss {
                evicted: Some(Evicted {
                    vpage: 10,
                    dirty: false
                })
            }
        );
        // Re-touch 11 and 12 (12 twice: the second is a memo hit), then
        // miss: 11, 12 and 13 are all referenced, so the hand clears all
        // three and takes 11. Had the touch of 12 not set its bit, 12
        // would be the victim.
        for v in [11, 12, 12] {
            assert_eq!(c.touch(v, false), Touch::Hit);
        }
        assert_eq!(
            c.touch(14, false),
            Touch::Miss {
                evicted: Some(Evicted {
                    vpage: 11,
                    dirty: false
                })
            }
        );
        // Memo page 14 written, cleaned, written again through the memo.
        c.touch(14, true);
        assert_eq!(c.flush_dirty(), vec![14]);
        assert_eq!(c.touch(14, true), Touch::Hit);
        assert_eq!(c.flush_dirty(), vec![14]);
    }

    /// Random streams of same-page bursts and jumps, interleaved with
    /// `flush_dirty`, give the same outcomes, victims and counters as the
    /// memo-free reference. Half the touches go through the slot API the
    /// swap backend uses: `touch_slot` at the reference's slot of a resident
    /// page, `admit` for the rest, whose returned slot must be where the
    /// reference put the page.
    #[test]
    fn page_cache_matches_memo_free_reference() {
        for capacity in [1usize, 2, 3, 8] {
            for seed in 0..4u64 {
                let mut rng = Rng::new(0xC10C + seed);
                let mut c = PageCache::new(capacity);
                let mut r = RefClock {
                    capacity,
                    slots: Vec::new(),
                    hand: 0,
                };
                let span = 3 * capacity as u64 + 2;
                let mut vpage = 0;
                let (mut hits, mut faults) = (0, 0);
                for step in 0..10_000 {
                    if rng.below(100) == 0 {
                        assert_eq!(
                            c.flush_dirty(),
                            r.flush_dirty(),
                            "{capacity}/{seed} step {step}"
                        );
                        continue;
                    }
                    if rng.chance(0.4) {
                        vpage = rng.below(span);
                    }
                    let write = rng.chance(0.3);
                    let ctx = || format!("{capacity}/{seed} step {step}");
                    let resident = r.slots.iter().position(|s| s.0 == vpage);
                    let (got, admitted) = match (rng.chance(0.5), resident) {
                        (false, _) => (c.touch(vpage, write), None),
                        (true, Some(i)) => {
                            c.touch_slot(i, vpage, write);
                            (Touch::Hit, None)
                        }
                        (true, None) => {
                            let (slot, evicted) = c.admit(vpage, write);
                            (Touch::Miss { evicted }, Some(slot))
                        }
                    };
                    assert_eq!(got, r.touch(vpage, write), "{}", ctx());
                    if let Some(slot) = admitted {
                        assert_eq!(r.slots[slot].0, vpage, "{}", ctx());
                    }
                    match got {
                        Touch::Hit => hits += 1,
                        Touch::Miss { .. } => faults += 1,
                    }
                    assert_eq!((c.stats().hits, c.stats().major_faults), (hits, faults));
                }
            }
        }
    }

    #[test]
    fn fills_without_eviction_up_to_capacity() {
        let mut c = PageCache::new(3);
        for v in 0..3 {
            assert_eq!(c.touch(v, false), Touch::Miss { evicted: None });
        }
        assert_eq!(c.resident(), 3);
        assert_eq!(c.stats().major_faults, 3);
        assert_eq!(c.touch(1, false), Touch::Hit);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = PageCache::new(3);
        c.touch(0, false);
        c.touch(1, false);
        c.touch(2, false);
        // All referenced; hand sweeps clearing bits, evicting slot 0 (vpage 0).
        match c.touch(3, false) {
            Touch::Miss { evicted: Some(e) } => assert_eq!(e.vpage, 0),
            other => panic!("{other:?}"),
        }
        // vpage 1's bit was cleared by the sweep; re-reference it.
        assert_eq!(c.touch(1, false), Touch::Hit);
        // Next eviction should skip vpage 1 (referenced) and take vpage 2.
        match c.touch(4, false) {
            Touch::Miss { evicted: Some(e) } => assert_eq!(e.vpage, 2),
            other => panic!("{other:?}"),
        }
        assert!(c.contains(1));
    }

    #[test]
    fn dirty_pages_report_writeback() {
        let mut c = PageCache::new(1);
        c.touch(0, true);
        match c.touch(1, false) {
            Touch::Miss { evicted: Some(e) } => {
                assert_eq!(
                    e,
                    Evicted {
                        vpage: 0,
                        dirty: true
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().clean_evictions, 0);
    }

    #[test]
    fn write_hit_dirties_resident_page() {
        let mut c = PageCache::new(2);
        c.touch(0, false);
        c.touch(0, true); // dirty it
        c.touch(1, false);
        // Evict 0: must be dirty.
        c.touch(2, false); // sweeps: clears 0, clears 1, evicts 0
        let st = c.stats();
        assert_eq!(st.writebacks + st.clean_evictions, 1);
        assert_eq!(st.writebacks, 1);
    }

    #[test]
    fn flush_dirty_lists_and_cleans() {
        let mut c = PageCache::new(4);
        c.touch(10, true);
        c.touch(11, false);
        c.touch(12, true);
        assert_eq!(c.flush_dirty(), vec![10, 12]);
        assert_eq!(c.flush_dirty(), Vec::<u64>::new(), "now clean");
        assert_eq!(c.resident(), 3, "residency preserved");
    }

    #[test]
    fn working_set_within_capacity_stops_faulting() {
        let mut c = PageCache::new(8);
        for round in 0..10 {
            for v in 0..8 {
                let t = c.touch(v, false);
                if round > 0 {
                    assert_eq!(t, Touch::Hit, "round {round} vpage {v}");
                }
            }
        }
        assert_eq!(c.stats().major_faults, 8);
        assert_eq!(c.stats().hits, 72);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        // Sequential sweep over capacity+1 pages with CLOCK ≈ every touch
        // faults — the classic thrashing syndrome the paper invokes.
        let mut c = PageCache::new(4);
        let mut faults = 0;
        for _ in 0..5 {
            for v in 0..5 {
                if matches!(c.touch(v, false), Touch::Miss { .. }) {
                    faults += 1;
                }
            }
        }
        assert!(
            faults >= 20,
            "expected heavy thrashing, got {faults} faults"
        );
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        PageCache::new(0);
    }
}
