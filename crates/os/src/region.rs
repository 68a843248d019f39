//! Memory regions (Figure 1 of the paper).
//!
//! A *memory region* is the single coherency domain owned by one node: the
//! node's own memory plus zero or more zones borrowed from other nodes.
//! There are always exactly as many regions as nodes; what changes
//! dynamically is each region's size. Processes of the owning node can use
//! the whole region and nothing outside it.
//!
//! [`Region`] tracks the segments making up one region, in the prefixed
//! physical address space the owning node's processes see. A borrowed
//! segment is the asker's only record of its grant; the donor's record is
//! the grant in its [`crate::frames::FrameAllocator`].

use crate::frames::PAGE_FRAME_BYTES;
use cohfree_fabric::NodeId;

/// One contiguous zone inside a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Node whose DRAM backs this zone.
    pub home: NodeId,
    /// Physical base address as seen by the owner (prefixed if `home` is
    /// not the owner; plain local address otherwise).
    pub base: u64,
    /// Frames in the zone.
    pub frames: u64,
}

impl Segment {
    /// Bytes covered.
    pub fn bytes(&self) -> u64 {
        self.frames * PAGE_FRAME_BYTES
    }

    /// True if `addr` falls inside this segment.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes()
    }
}

/// A zone granted to an asker, as the asker sees it: the segment
/// [`Region::extend`] adds, returned by the reservation call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Donor node.
    pub home: NodeId,
    /// Prefixed physical base address usable directly in page tables: the
    /// donor's node id in the 14 top bits over the zone's local base.
    pub prefixed_base: u64,
    /// Frames granted.
    pub frames: u64,
}

/// The memory region of one node.
#[derive(Debug)]
pub struct Region {
    owner: NodeId,
    segments: Vec<Segment>,
}

impl Region {
    /// The default region of `owner`: just its own memory (`local_frames`
    /// at local physical base 0 — the paper's "region 1 confined to node A").
    pub fn new(owner: NodeId, local_frames: u64) -> Region {
        Region {
            owner,
            segments: vec![Segment {
                home: owner,
                base: 0,
                frames: local_frames,
            }],
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Extend the region with a zone borrowed from `home` (prefixed base
    /// address `base`).
    ///
    /// # Panics
    /// Panics if the new segment overlaps an existing one — regions are
    /// disjoint unions of zones.
    pub fn extend(&mut self, seg: Segment) {
        assert!(
            !self.overlaps(&seg),
            "segment overlap while extending region of {}",
            self.owner
        );
        self.segments.push(seg);
    }

    /// True if `seg` shares an address with a segment of the region.
    pub fn overlaps(&self, seg: &Segment) -> bool {
        self.segments
            .iter()
            .any(|s| seg.base < s.base + s.bytes() && s.base < seg.base + seg.bytes())
    }

    /// Shrink the region by dropping the segment at `base`; returns it so
    /// the caller can release the grant at the home node.
    pub fn shrink(&mut self, base: u64) -> Option<Segment> {
        let i = self.segments.iter().position(|s| s.base == base)?;
        // The node's own memory (the first segment) is not removable: a
        // region always contains its owner's cores and local memory.
        if i == 0 {
            return None;
        }
        Some(self.segments.remove(i))
    }

    /// Total bytes in the region.
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(Segment::bytes).sum()
    }

    /// Bytes borrowed from other nodes.
    pub fn borrowed_bytes(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.home != self.owner)
            .map(Segment::bytes)
            .sum()
    }

    /// The segment containing `addr`, if any.
    pub fn segment_of(&self, addr: u64) -> Option<&Segment> {
        self.segments.iter().find(|s| s.contains(addr))
    }

    /// All segments (the first is always the owner's local memory).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Distinct homes lending to this region (excluding the owner).
    pub fn lenders(&self) -> Vec<NodeId> {
        let mut homes: Vec<NodeId> = self
            .segments
            .iter()
            .filter(|s| s.home != self.owner)
            .map(|s| s.home)
            .collect();
        homes.sort_unstable();
        homes.dedup();
        homes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohfree_rmc::addr::encode;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn default_region_is_local_only() {
        let r = Region::new(n(3), 1024);
        assert_eq!(r.owner(), n(3));
        assert_eq!(r.total_bytes(), 1024 * PAGE_FRAME_BYTES);
        assert_eq!(r.borrowed_bytes(), 0);
        assert!(r.lenders().is_empty());
    }

    #[test]
    fn fig1_scenario() {
        // Region 3 (node C) extended to neighbors B and D.
        let mut r = Region::new(n(3), 1024);
        r.extend(Segment {
            home: n(2),
            base: encode(n(2), 0x100000),
            frames: 512,
        });
        r.extend(Segment {
            home: n(4),
            base: encode(n(4), 0x100000),
            frames: 256,
        });
        assert_eq!(r.total_bytes(), (1024 + 512 + 256) * PAGE_FRAME_BYTES);
        assert_eq!(r.borrowed_bytes(), (512 + 256) * PAGE_FRAME_BYTES);
        assert_eq!(r.lenders(), vec![n(2), n(4)]);
    }

    #[test]
    fn segment_lookup() {
        let mut r = Region::new(n(1), 16);
        let base = encode(n(2), 0);
        r.extend(Segment {
            home: n(2),
            base,
            frames: 4,
        });
        assert_eq!(r.segment_of(0).unwrap().home, n(1));
        assert_eq!(r.segment_of(base + 100).unwrap().home, n(2));
        assert!(r.segment_of(base + 4 * PAGE_FRAME_BYTES).is_none());
    }

    #[test]
    fn shrink_returns_segment_for_release() {
        let mut r = Region::new(n(1), 16);
        let base = encode(n(2), 0x4000);
        r.extend(Segment {
            home: n(2),
            base,
            frames: 8,
        });
        let seg = r.shrink(base).unwrap();
        assert_eq!(seg.home, n(2));
        assert_eq!(seg.frames, 8);
        assert_eq!(r.borrowed_bytes(), 0);
        assert!(r.shrink(base).is_none(), "already removed");
    }

    #[test]
    fn local_segment_cannot_be_shrunk() {
        let mut r = Region::new(n(1), 16);
        assert!(r.shrink(0).is_none());
        assert_eq!(r.total_bytes(), 16 * PAGE_FRAME_BYTES);
    }

    #[test]
    #[should_panic(expected = "segment overlap")]
    fn overlapping_extension_rejected() {
        let mut r = Region::new(n(1), 16);
        let base = encode(n(2), 0);
        r.extend(Segment {
            home: n(2),
            base,
            frames: 8,
        });
        r.extend(Segment {
            home: n(2),
            base: base + PAGE_FRAME_BYTES,
            frames: 2,
        });
    }

    #[test]
    fn multiple_regions_can_coexist_on_one_home() {
        // Regions 3 and 5 both borrow from node D in Fig. 1 — distinct
        // zones, tracked independently by each borrower's Region.
        let mut r3 = Region::new(n(3), 16);
        let mut r5 = Region::new(n(5), 16);
        r3.extend(Segment {
            home: n(4),
            base: encode(n(4), 0),
            frames: 4,
        });
        r5.extend(Segment {
            home: n(4),
            base: encode(n(4), 4 * PAGE_FRAME_BYTES),
            frames: 4,
        });
        assert_eq!(r3.lenders(), vec![n(4)]);
        assert_eq!(r5.lenders(), vec![n(4)]);
    }
}
