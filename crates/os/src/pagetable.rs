//! Per-process virtual memory: page table and TLB.
//!
//! Section III-B of the paper leans on standard x86-64 virtual memory: the
//! OS writes a virtual→physical translation into the page table — where the
//! *physical* address may carry a remote-node prefix — and from then on the
//! hardware TLB/walker path makes loads and stores reach remote memory with
//! no software involved. We model:
//!
//! * a page table mapping virtual page numbers to 48-bit physical addresses
//!   (possibly prefixed) with per-page state,
//! * a fully-associative LRU [`Tlb`] of configurable size: one contiguous
//!   `Vec` of slots with a vpn → slot index and an intrusive recency list,
//!   so a lookup, insert or invalidation touches a constant number of
//!   slots and an eviction takes the list's tail,
//! * translation outcomes distinguishing TLB hits, walks, and faults, so the
//!   owning backend can charge the right costs.

use cohfree_sim::FastMap;

/// Page size (matches the frame size).
pub const PAGE_BYTES: u64 = 4096;

/// Per-page state flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFlags {
    /// Mapped to a resident physical frame (local, or remote via prefix).
    Present,
    /// Known to the process but currently swapped out (page-cache
    /// backends fault it in on access; the backend records where the page
    /// lives).
    Swapped,
}

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical address of the page frame (page-aligned; may be prefixed).
    pub phys: u64,
    /// Page state.
    pub flags: PageFlags,
}

/// Outcome of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// TLB hit: physical address of the access.
    TlbHit {
        /// Translated physical address.
        phys: u64,
    },
    /// TLB miss but a valid PTE was found by the walker: charge a walk.
    Walked {
        /// Translated physical address.
        phys: u64,
    },
    /// Page is swapped out: major fault; the handler must bring it in and
    /// re-map before retrying.
    MajorFault,
    /// No mapping at all: the access is to unallocated memory.
    Unmapped,
}

/// TLB geometry.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Entries (fully associative, LRU).
    pub entries: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig { entries: 64 }
    }
}

/// Link value that points at no slot.
const NIL: usize = usize::MAX;

/// One resident translation and its links in the recency list.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    /// Physical page base.
    phys: u64,
    /// Next more recently used slot, or `NIL` at the head.
    newer: usize,
    /// Next less recently used slot, or `NIL` at the tail.
    older: usize,
}

/// Fully-associative LRU TLB.
///
/// The entries sit in one contiguous `Vec` of at most `entries` slots, in no
/// particular order, with a vpn → slot index beside it. The slots are also
/// threaded on an intrusive recency list: the head is the slot the last hit
/// or insert touched, and the tail is the least recently used one, the next
/// victim. A lookup checks the head, then the index; a hit moves its slot to
/// the head; `invalidate` unlinks its slot and moves the last slot into the
/// hole. No operation visits more than a constant number of slots.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    slots: Vec<TlbEntry>,
    /// vpn → slot of every resident translation.
    index: FastMap<u64, usize>,
    /// Most recently used slot, or `NIL` when empty.
    head: usize,
    /// Least recently used slot, or `NIL` when empty.
    tail: usize,
}

impl Tlb {
    /// An empty TLB.
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(cfg.entries > 0, "TLB needs at least one entry");
        Tlb {
            cfg,
            slots: Vec::with_capacity(cfg.entries),
            index: FastMap::default(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Take slot `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let TlbEntry { newer, older, .. } = self.slots[i];
        match newer {
            NIL => self.head = older,
            n => self.slots[n].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o].newer = newer,
        }
    }

    /// Link the unlinked slot `i` in as the most recently used.
    fn push_head(&mut self, i: usize) {
        self.slots[i].newer = NIL;
        self.slots[i].older = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].newer = i,
        }
        self.head = i;
    }

    /// Look up a virtual page number; LRU-refresh on hit.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        if let Some(e) = self.slots.get(self.head) {
            if e.vpn == vpn {
                return Some(e.phys);
            }
        }
        let i = *self.index.get(&vpn)?;
        self.unlink(i);
        self.push_head(i);
        Some(self.slots[i].phys)
    }

    /// Install a translation (evicting the LRU entry if full).
    pub fn insert(&mut self, vpn: u64, phys_page: u64) {
        match self.index.get(&vpn) {
            Some(&i) => {
                self.unlink(i);
                self.slots[i].phys = phys_page;
                self.push_head(i);
            }
            None => self.insert_absent(vpn, phys_page),
        }
    }

    /// [`Tlb::insert`] for a `vpn` that is not resident, such as one whose
    /// [`Tlb::lookup`] just missed: the index is not probed for it first.
    pub fn insert_absent(&mut self, vpn: u64, phys_page: u64) {
        debug_assert!(!self.index.contains_key(&vpn), "vpn {vpn} is resident");
        let entry = TlbEntry {
            vpn,
            phys: phys_page,
            newer: NIL,
            older: NIL,
        };
        let i = if self.slots.len() < self.cfg.entries {
            self.slots.push(entry);
            self.slots.len() - 1
        } else {
            let lru = self.tail;
            self.unlink(lru);
            self.index.remove(&self.slots[lru].vpn);
            self.slots[lru] = entry;
            lru
        };
        self.index.insert(vpn, i);
        self.push_head(i);
    }

    /// Drop a translation (on unmap / swap-out).
    pub fn invalidate(&mut self, vpn: u64) {
        let Some(i) = self.index.remove(&vpn) else {
            return;
        };
        self.unlink(i);
        self.slots.swap_remove(i);
        // The last slot moved into the hole: point its neighbours and its
        // index entry at its new place.
        let Some(&moved) = self.slots.get(i) else {
            return;
        };
        match moved.newer {
            NIL => self.head = i,
            n => self.slots[n].older = i,
        }
        match moved.older {
            NIL => self.tail = i,
            o => self.slots[o].newer = i,
        }
        *self
            .index
            .get_mut(&moved.vpn)
            .expect("a resident slot is indexed") = i;
    }

    /// Drop everything (context switch / global shootdown).
    pub fn flush(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// A per-process page table plus its TLB.
#[derive(Debug)]
pub struct PageTable {
    ptes: FastMap<u64, Pte>,
    tlb: Tlb,
}

impl PageTable {
    /// An empty address space.
    pub fn new(tlb: TlbConfig) -> PageTable {
        PageTable {
            ptes: FastMap::default(),
            tlb: Tlb::new(tlb),
        }
    }

    /// Virtual page number of `va`.
    #[inline]
    pub fn vpn(va: u64) -> u64 {
        va / PAGE_BYTES
    }

    /// Map virtual page `vpn` to the page-aligned physical address `phys`
    /// (present). Overwrites any previous mapping and invalidates the TLB
    /// entry.
    pub fn map(&mut self, vpn: u64, phys: u64) {
        debug_assert!(phys.is_multiple_of(PAGE_BYTES), "unaligned frame address");
        self.ptes.insert(
            vpn,
            Pte {
                phys,
                flags: PageFlags::Present,
            },
        );
        self.tlb.invalidate(vpn);
    }

    /// Mark `vpn` swapped out.
    pub fn mark_swapped(&mut self, vpn: u64) {
        self.ptes.insert(
            vpn,
            Pte {
                phys: 0,
                flags: PageFlags::Swapped,
            },
        );
        self.tlb.invalidate(vpn);
    }

    /// Remove the mapping entirely.
    pub fn unmap(&mut self, vpn: u64) {
        self.ptes.remove(&vpn);
        self.tlb.invalidate(vpn);
    }

    /// Translate a virtual address.
    #[inline]
    pub fn translate(&mut self, va: u64) -> Translation {
        let vpn = Self::vpn(va);
        let off = va % PAGE_BYTES;
        if let Some(page) = self.tlb.lookup(vpn) {
            return Translation::TlbHit { phys: page + off };
        }
        match self.ptes.get(&vpn) {
            Some(Pte {
                phys,
                flags: PageFlags::Present,
            }) => {
                self.tlb.insert_absent(vpn, *phys);
                Translation::Walked { phys: phys + off }
            }
            Some(Pte {
                flags: PageFlags::Swapped,
                ..
            }) => Translation::MajorFault,
            None => Translation::Unmapped,
        }
    }

    /// The TLB (for stats / explicit invalidation).
    pub fn tlb(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.ptes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohfree_sim::Rng;

    /// The previous `FastMap` implementation of [`Tlb`], kept verbatim
    /// (less the hit and miss counters, which no caller read) as the
    /// oracle for the differential test below.
    #[derive(Debug)]
    pub struct OracleTlb {
        cfg: TlbConfig,
        /// vpn -> (phys page base, lru stamp)
        map: FastMap<u64, (u64, u64)>,
        clock: u64,
    }

    impl OracleTlb {
        /// An empty TLB.
        pub fn new(cfg: TlbConfig) -> OracleTlb {
            assert!(cfg.entries > 0, "TLB needs at least one entry");
            OracleTlb {
                cfg,
                map: FastMap::default(),
                clock: 0,
            }
        }

        /// Look up a virtual page number; LRU-refresh on hit.
        pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
            self.clock += 1;
            let (phys, stamp) = self.map.get_mut(&vpn)?;
            *stamp = self.clock;
            Some(*phys)
        }

        /// Install a translation (evicting the LRU entry if full).
        pub fn insert(&mut self, vpn: u64, phys_page: u64) {
            self.clock += 1;
            if self.map.len() >= self.cfg.entries && !self.map.contains_key(&vpn) {
                if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, (_, s))| *s) {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(vpn, (phys_page, self.clock));
        }

        /// Drop a translation (on unmap / swap-out).
        pub fn invalidate(&mut self, vpn: u64) {
            self.map.remove(&vpn);
        }

        /// Drop everything (context switch / global shootdown).
        pub fn flush(&mut self) {
            self.map.clear();
        }

        /// Resident entries.
        pub fn len(&self) -> usize {
            self.map.len()
        }

        /// True if no entries are resident.
        pub fn is_empty(&self) -> bool {
            self.map.is_empty()
        }
    }

    /// Resident `(vpn, phys)` pairs from most to least recently used, read
    /// by walking the recency list; checks the links and the index on the
    /// way.
    fn recency(tlb: &Tlb) -> Vec<(u64, u64)> {
        let mut order = Vec::new();
        let (mut i, mut newer) = (tlb.head, NIL);
        while i != NIL {
            let e = tlb.slots[i];
            assert_eq!(e.newer, newer, "back link of slot {i}");
            assert_eq!(tlb.index.get(&e.vpn), Some(&i), "index of vpn {}", e.vpn);
            order.push((e.vpn, e.phys));
            (newer, i) = (i, e.older);
        }
        assert_eq!(tlb.tail, newer, "tail");
        assert_eq!(order.len(), tlb.slots.len(), "every slot is on the list");
        assert_eq!(tlb.index.len(), tlb.slots.len(), "every slot is indexed");
        order
    }

    /// The oracle's entries in the same order: descending stamp.
    fn oracle_recency(o: &OracleTlb) -> Vec<(u64, u64)> {
        let mut by_stamp: Vec<_> = o.map.iter().map(|(&v, &(p, s))| (s, v, p)).collect();
        by_stamp.sort_unstable_by(|a, b| b.cmp(a));
        by_stamp.into_iter().map(|(_, v, p)| (v, p)).collect()
    }

    /// The indexed TLB matches the `FastMap` oracle on every return value,
    /// its size and its whole recency order (unique stamps order entries
    /// exactly as a recency list does), at sizes 1, 2, 3, 8 and 64.
    ///
    /// Phase 1 mixes same-page bursts (the head check), neighbours and
    /// random jumps over four times the TLB's reach, translates like
    /// [`PageTable::translate`] ([`Tlb::insert_absent`] on a miss), and
    /// interleaves remapping inserts, invalidations and flushes. Phase 2 is
    /// shaped like swap: a resident set larger than the TLB over a
    /// footprint larger still. A touch of a non-resident page evicts a
    /// resident one, invalidating it (`mark_swapped`) and the new page
    /// (`map`), so translations leave from anywhere in the list, holes are
    /// filled, and invalidated pages come back later through the tail
    /// eviction.
    #[test]
    fn tlb_matches_fastmap_oracle() {
        for entries in [1usize, 2, 3, 8, 64] {
            for seed in 0..6u64 {
                let mut rng = Rng::new(0x71B0 + seed);
                let cfg = TlbConfig { entries };
                let (mut tlb, mut oracle) = (Tlb::new(cfg), OracleTlb::new(cfg));
                let check = |tlb: &Tlb, oracle: &OracleTlb, ctx: &dyn Fn() -> String| {
                    assert_eq!(tlb.len(), oracle.len(), "{}", ctx());
                    assert_eq!(tlb.is_empty(), oracle.is_empty(), "{}", ctx());
                    assert_eq!(recency(tlb), oracle_recency(oracle), "{}", ctx());
                };
                let span = 4 * entries as u64 + 3;
                let mut vpn = 0;
                for step in 0..20_000 {
                    match rng.below(100) {
                        0..=89 => {
                            match rng.below(10) {
                                0..=5 => {}
                                6..=7 => vpn = rng.below(span),
                                _ => vpn = (vpn + 1) % span,
                            }
                            let got = tlb.lookup(vpn);
                            assert_eq!(got, oracle.lookup(vpn), "{entries}/{seed} step {step}");
                            if got.is_none() {
                                tlb.insert_absent(vpn, vpn * PAGE_BYTES);
                                oracle.insert(vpn, vpn * PAGE_BYTES);
                            }
                        }
                        90..=94 => {
                            let v = if rng.chance(0.5) {
                                vpn
                            } else {
                                rng.below(span)
                            };
                            let phys = rng.below(1 << 20) * PAGE_BYTES;
                            tlb.insert(v, phys);
                            oracle.insert(v, phys);
                        }
                        95..=98 => {
                            let v = if rng.chance(0.5) {
                                vpn
                            } else {
                                rng.below(span)
                            };
                            tlb.invalidate(v);
                            oracle.invalidate(v);
                        }
                        _ => {
                            tlb.flush();
                            oracle.flush();
                        }
                    }
                    check(&tlb, &oracle, &|| format!("{entries}/{seed} step {step}"));
                }

                // Phase 2: swap-shaped churn on fresh TLBs.
                let (mut tlb, mut oracle) = (Tlb::new(cfg), OracleTlb::new(cfg));
                let footprint = 6 * entries as u64 + 5;
                let mut resident: Vec<u64> = Vec::new();
                let capacity = 2 * entries + 1;
                let mut vpn = 0;
                for step in 0..10_000 {
                    let ctx = || format!("{entries}/{seed} swap step {step}");
                    if rng.chance(0.3) {
                        vpn = rng.below(footprint);
                    }
                    let got = tlb.lookup(vpn);
                    assert_eq!(got, oracle.lookup(vpn), "{}", ctx());
                    if got.is_none() {
                        if !resident.contains(&vpn) {
                            if resident.len() == capacity {
                                let victim =
                                    resident.swap_remove(rng.below(capacity as u64) as usize);
                                tlb.invalidate(victim);
                                oracle.invalidate(victim);
                            }
                            resident.push(vpn);
                            tlb.invalidate(vpn);
                            oracle.invalidate(vpn);
                        }
                        tlb.insert_absent(vpn, vpn * PAGE_BYTES);
                        oracle.insert(vpn, vpn * PAGE_BYTES);
                    }
                    check(&tlb, &oracle, &ctx);
                }
            }
        }
    }

    #[test]
    fn unmapped_translation() {
        let mut pt = PageTable::new(TlbConfig::default());
        assert_eq!(pt.translate(0x1000), Translation::Unmapped);
    }

    #[test]
    fn walk_then_tlb_hit() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x8000);
        assert_eq!(pt.translate(0x1123), Translation::Walked { phys: 0x8123 });
        assert_eq!(pt.translate(0x1456), Translation::TlbHit { phys: 0x8456 });
    }

    #[test]
    fn prefixed_physical_addresses_flow_through() {
        // The essence of the paper: the OS writes a *remote* physical
        // address into the page table and translation just works.
        let mut pt = PageTable::new(TlbConfig::default());
        let remote = (3u64 << 34) | 0x4100_0000;
        pt.map(10, remote);
        assert_eq!(
            pt.translate(10 * PAGE_BYTES + 0xB0),
            Translation::Walked {
                phys: remote + 0xB0
            }
        );
    }

    #[test]
    fn swapped_page_faults() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.mark_swapped(5);
        assert_eq!(pt.translate(5 * PAGE_BYTES), Translation::MajorFault);
        // Fault handler maps it in; next access walks.
        pt.map(5, 0x2000);
        assert_eq!(
            pt.translate(5 * PAGE_BYTES),
            Translation::Walked { phys: 0x2000 }
        );
    }

    #[test]
    fn remap_invalidates_tlb() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(0x1000); // loads TLB
        pt.map(1, 0x9000);
        assert_eq!(pt.translate(0x1000), Translation::Walked { phys: 0x9000 });
    }

    #[test]
    fn unmap_removes() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(0x1000);
        pt.unmap(1);
        assert_eq!(pt.translate(0x1000), Translation::Unmapped);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut pt = PageTable::new(TlbConfig { entries: 2 });
        pt.map(1, 0x1000);
        pt.map(2, 0x2000);
        pt.map(3, 0x3000);
        pt.translate(PAGE_BYTES); // vpn 1 -> TLB
        pt.translate(2 * PAGE_BYTES); // vpn 2 -> TLB
        pt.translate(PAGE_BYTES); // refresh vpn 1
        pt.translate(3 * PAGE_BYTES); // evicts vpn 2
        assert!(matches!(
            pt.translate(PAGE_BYTES),
            Translation::TlbHit { .. }
        ));
        assert!(matches!(
            pt.translate(2 * PAGE_BYTES),
            Translation::Walked { .. }
        ));
    }

    #[test]
    fn tlb_flush() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(1, 0x1000);
        pt.translate(PAGE_BYTES);
        pt.tlb().flush();
        assert!(pt.tlb().is_empty());
        assert!(matches!(
            pt.translate(PAGE_BYTES),
            Translation::Walked { .. }
        ));
    }

    #[test]
    fn mark_swapped_after_present_invalidates() {
        let mut pt = PageTable::new(TlbConfig::default());
        pt.map(4, 0x4000);
        pt.translate(4 * PAGE_BYTES);
        pt.mark_swapped(4);
        assert_eq!(pt.translate(4 * PAGE_BYTES), Translation::MajorFault);
    }
}
