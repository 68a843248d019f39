//! Physical frame accounting for one node.
//!
//! Each node's 16 GiB is split at boot: a *private* region the local OS uses
//! freely, and a *pool* region set aside for the cluster-wide shared memory
//! pool (8 GiB + 8 GiB in the prototype, totalling the 128 GiB pool). Pool
//! frames are reserved in **contiguous zones** — the paper reserves whole
//! physical areas up front so later load/store traffic needs no per-page
//! software — and every grant is recorded in a lender ledger so:
//!
//! * a frame is never granted twice,
//! * granted frames are pinned (never swapped, never handed to local
//!   processes),
//! * release returns exactly the granted zone.

use cohfree_fabric::NodeId;
use std::collections::BTreeMap;

/// Frame size (x86-64 base pages).
pub const PAGE_FRAME_BYTES: u64 = 4096;

/// Why a reservation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough contiguous free frames in the pool.
    NoContiguousZone {
        /// Frames that were requested.
        requested_frames: u64,
    },
    /// Release of a zone that was never granted, or not at this base or to
    /// this borrower.
    UnknownGrant {
        /// Base address the caller tried to release.
        base: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NoContiguousZone { requested_frames } => {
                write!(
                    f,
                    "no contiguous zone of {requested_frames} frames available"
                )
            }
            FrameError::UnknownGrant { base } => {
                write!(f, "release of unknown grant at {base:#x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A zone granted to a borrower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Local physical base address of the zone.
    pub base: u64,
    /// Frames in the zone.
    pub frames: u64,
    /// Node the zone was lent to (may be this node for local pool use).
    pub borrower: NodeId,
}

/// Frame allocator for one node's physical memory.
#[derive(Debug)]
pub struct FrameAllocator {
    /// First byte of the pool region.
    pool_base: u64,
    /// Bytes in the pool region.
    pool_bytes: u64,
    /// Free zones in the pool: base -> frames (coalesced, disjoint).
    free: BTreeMap<u64, u64>,
    /// Outstanding grants: base -> grant.
    grants: BTreeMap<u64, Grant>,
    /// Private-region bump cursor (local OS allocations are not the focus;
    /// a bump allocator suffices and never interacts with the pool).
    private_cursor: u64,
    private_end: u64,
}

impl FrameAllocator {
    /// Build the allocator for a node with `private_bytes` reserved for the
    /// local OS and `pool_bytes` contributed to the shared pool; the pool
    /// begins right after the private region.
    ///
    /// # Panics
    /// Panics unless both sizes are positive multiples of the frame size.
    pub fn new(private_bytes: u64, pool_bytes: u64) -> FrameAllocator {
        assert!(
            private_bytes.is_multiple_of(PAGE_FRAME_BYTES)
                && pool_bytes.is_multiple_of(PAGE_FRAME_BYTES),
            "region sizes must be frame-aligned"
        );
        assert!(pool_bytes > 0, "pool must be non-empty");
        let mut free = BTreeMap::new();
        free.insert(private_bytes, pool_bytes / PAGE_FRAME_BYTES);
        FrameAllocator {
            pool_base: private_bytes,
            pool_bytes,
            free,
            grants: BTreeMap::new(),
            private_cursor: 0,
            private_end: private_bytes,
        }
    }

    /// First byte of the pool region.
    pub fn pool_base(&self) -> u64 {
        self.pool_base
    }

    /// Total pool frames.
    pub fn pool_frames(&self) -> u64 {
        self.pool_bytes / PAGE_FRAME_BYTES
    }

    /// Currently free pool frames.
    pub fn free_frames(&self) -> u64 {
        self.free.values().sum()
    }

    /// Frames currently granted out.
    pub fn granted_frames(&self) -> u64 {
        self.grants.values().map(|g| g.frames).sum()
    }

    /// Reserve a contiguous zone of `frames` pool frames for `borrower`
    /// (first-fit). Returns the zone's local physical base address.
    pub fn reserve(&mut self, frames: u64, borrower: NodeId) -> Result<u64, FrameError> {
        assert!(frames > 0, "zero-frame reservation");
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= frames)
            .map(|(&base, &len)| (base, len));
        let (base, len) = slot.ok_or(FrameError::NoContiguousZone {
            requested_frames: frames,
        })?;
        self.free.remove(&base);
        if len > frames {
            self.free
                .insert(base + frames * PAGE_FRAME_BYTES, len - frames);
        }
        self.grants.insert(
            base,
            Grant {
                base,
                frames,
                borrower,
            },
        );
        Ok(base)
    }

    /// Release the zone granted to `borrower` at base address `base`. The
    /// zone is coalesced back into the free map. A grant at `base` to
    /// another borrower is left alone: after a restart the same base may
    /// belong to a new grant while an old borrower still names it.
    pub fn release(&mut self, base: u64, borrower: NodeId) -> Result<Grant, FrameError> {
        match self.grants.get(&base) {
            Some(g) if g.borrower == borrower => {}
            _ => return Err(FrameError::UnknownGrant { base }),
        }
        let grant = self.grants.remove(&base).expect("grant checked above");
        self.insert_free(base, grant.frames);
        Ok(grant)
    }

    fn insert_free(&mut self, base: u64, frames: u64) {
        let mut base = base;
        let mut frames = frames;
        // Coalesce with predecessor.
        if let Some((&pbase, &plen)) = self.free.range(..base).next_back() {
            if pbase + plen * PAGE_FRAME_BYTES == base {
                self.free.remove(&pbase);
                base = pbase;
                frames += plen;
            }
        }
        // Coalesce with successor.
        let end = base + frames * PAGE_FRAME_BYTES;
        if let Some(&slen) = self.free.get(&end) {
            self.free.remove(&end);
            frames += slen;
        }
        self.free.insert(base, frames);
    }

    /// The grant covering `addr`, if any — used to assert that remote
    /// accesses only touch properly reserved zones.
    pub fn grant_covering(&self, addr: u64) -> Option<&Grant> {
        self.grants
            .range(..=addr)
            .next_back()
            .map(|(_, g)| g)
            .filter(|g| addr < g.base + g.frames * PAGE_FRAME_BYTES)
    }

    /// All outstanding grants (sorted by base).
    pub fn grants(&self) -> impl Iterator<Item = &Grant> {
        self.grants.values()
    }

    /// Allocate one frame from the *private* region for the local OS /
    /// local processes. Returns `None` when the private region is exhausted
    /// (which is when a real system would start swapping).
    pub fn alloc_private(&mut self) -> Option<u64> {
        if self.private_cursor + PAGE_FRAME_BYTES <= self.private_end {
            let f = self.private_cursor;
            self.private_cursor += PAGE_FRAME_BYTES;
            Some(f)
        } else {
            None
        }
    }

    /// Bytes of private memory still unallocated.
    pub fn private_remaining(&self) -> u64 {
        self.private_end - self.private_cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn alloc() -> FrameAllocator {
        // 1 MiB private + 1 MiB pool = 256 + 256 frames.
        FrameAllocator::new(1 << 20, 1 << 20)
    }

    #[test]
    fn pool_starts_after_private() {
        let a = alloc();
        assert_eq!(a.pool_base(), 1 << 20);
        assert_eq!(a.pool_frames(), 256);
        assert_eq!(a.free_frames(), 256);
    }

    #[test]
    fn reserve_and_release_round_trip() {
        let mut a = alloc();
        let base = a.reserve(16, n(2)).unwrap();
        assert_eq!(base, a.pool_base());
        assert_eq!(a.free_frames(), 240);
        assert_eq!(a.granted_frames(), 16);
        let g = a.release(base, n(2)).unwrap();
        assert_eq!(g.frames, 16);
        assert_eq!(g.borrower, n(2));
        assert_eq!(a.free_frames(), 256);
        assert_eq!(a.granted_frames(), 0);
    }

    #[test]
    fn grants_are_disjoint() {
        let mut a = alloc();
        let b1 = a.reserve(10, n(2)).unwrap();
        let b2 = a.reserve(10, n(3)).unwrap();
        assert_eq!(b2, b1 + 10 * PAGE_FRAME_BYTES);
        assert!(a.grant_covering(b1).is_some());
        assert_eq!(
            a.grant_covering(b1 + 9 * PAGE_FRAME_BYTES)
                .unwrap()
                .borrower,
            n(2)
        );
        assert_eq!(a.grant_covering(b2).unwrap().borrower, n(3));
    }

    #[test]
    fn exhaustion_reports_no_zone() {
        let mut a = alloc();
        a.reserve(200, n(2)).unwrap();
        assert_eq!(
            a.reserve(100, n(3)),
            Err(FrameError::NoContiguousZone {
                requested_frames: 100
            })
        );
        // But a smaller zone still fits.
        assert!(a.reserve(56, n(3)).is_ok());
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn release_coalesces_fragments() {
        let mut a = alloc();
        let b1 = a.reserve(10, n(2)).unwrap();
        let b2 = a.reserve(10, n(2)).unwrap();
        let b3 = a.reserve(10, n(2)).unwrap();
        // Free middle, then sides; afterwards a full-size zone must fit.
        a.release(b2, n(2)).unwrap();
        a.release(b1, n(2)).unwrap();
        a.release(b3, n(2)).unwrap();
        assert_eq!(a.free_frames(), 256);
        let big = a.reserve(256, n(4)).unwrap();
        assert_eq!(big, a.pool_base());
    }

    #[test]
    fn unknown_release_rejected() {
        let mut a = alloc();
        assert_eq!(
            a.release(0x9999, n(2)),
            Err(FrameError::UnknownGrant { base: 0x9999 })
        );
        let b = a.reserve(4, n(2)).unwrap();
        // Releasing an interior address is also unknown: grants are by base.
        assert!(a.release(b + PAGE_FRAME_BYTES, n(2)).is_err());
        // So is a release by anyone but the borrower, which keeps the grant.
        assert!(a.release(b, n(3)).is_err());
        assert_eq!(a.granted_frames(), 4);
        assert!(a.release(b, n(2)).is_ok());
        assert!(a.release(b, n(2)).is_err(), "double release rejected");
    }

    #[test]
    fn private_allocation_never_touches_pool() {
        let mut a = alloc();
        let mut last = None;
        while let Some(f) = a.alloc_private() {
            assert!(f < a.pool_base(), "private frame {f:#x} inside pool");
            last = Some(f);
        }
        assert_eq!(last, Some((1 << 20) - PAGE_FRAME_BYTES));
        assert_eq!(a.private_remaining(), 0);
        assert_eq!(a.free_frames(), 256, "pool untouched");
    }

    #[test]
    fn first_fit_reuses_early_holes() {
        let mut a = alloc();
        let b1 = a.reserve(8, n(2)).unwrap();
        let _b2 = a.reserve(8, n(2)).unwrap();
        a.release(b1, n(2)).unwrap();
        let b3 = a.reserve(4, n(3)).unwrap();
        assert_eq!(b3, b1, "first-fit should reuse the first hole");
    }

    #[test]
    #[should_panic(expected = "frame-aligned")]
    fn unaligned_sizes_rejected() {
        FrameAllocator::new(100, 1 << 20);
    }
}
