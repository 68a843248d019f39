//! Functional contents of physical memory.
//!
//! [`SparseStore`] is a byte-addressable store backed by 4 KiB pages that are
//! materialized on first touch (zero-filled, like real DRAM handed out by an
//! OS). The prototype aggregates 128 GiB across the cluster; a dense model
//! would be unusable, while the sparse model costs memory proportional to the
//! bytes actually written.
//!
//! Materialized pages sit in a `Vec` in first-touch order, found through a
//! page-number index. A page is never dropped, so an index into that `Vec`
//! stays valid for the store's life, and a one-page memo of the last page
//! found lets runs of accesses to one page skip the index probe.
//!
//! `read` and `write` are inlined into their callers and copy an access
//! that fits in one page directly: one page lookup and one copy. Only an
//! access that straddles a page boundary (or is empty) takes the cold loop
//! that walks it page by page.

use cohfree_sim::FastMap;
use std::cell::Cell;

/// Page size used by the backing store and by the OS model (x86-64 base pages).
pub const PAGE_BYTES: u64 = 4096;

/// One materialized page.
type Page = Box<[u8; PAGE_BYTES as usize]>;

/// The offset in its page of a `len`-byte access at `addr` that touches
/// bytes of exactly one page; `None` for an empty access or one that
/// crosses a page boundary.
#[inline]
fn in_page(addr: u64, len: usize) -> Option<usize> {
    let off = (addr % PAGE_BYTES) as usize;
    (len != 0 && len <= PAGE_BYTES as usize - off).then_some(off)
}

/// Sparse byte-addressable memory.
///
/// Reads of never-written locations return zeroes without materializing a
/// page, so read-mostly probes stay cheap.
#[derive(Debug, Default)]
pub struct SparseStore {
    /// Materialized pages, in first-touch order.
    pages: Vec<Page>,
    /// Page number -> index in `pages`.
    index: FastMap<u64, usize>,
    /// `(page number, index in pages)` of the last materialized page a read
    /// or write found. Exact without invalidation: pages are never removed.
    last: Cell<Option<(u64, usize)>>,
}

impl SparseStore {
    /// An empty (all-zero) store.
    pub fn new() -> SparseStore {
        SparseStore::default()
    }

    /// Number of pages materialized so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes of backing memory actually in use.
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES
    }

    /// Index in `pages` of page number `page`, if materialized.
    #[inline]
    fn find(&self, page: u64) -> Option<usize> {
        if let Some((last, i)) = self.last.get() {
            if last == page {
                return Some(i);
            }
        }
        let i = *self.index.get(&page)?;
        self.last.set(Some((page, i)));
        Some(i)
    }

    /// Read `buf.len()` bytes starting at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let Some(off) = in_page(addr, buf.len()) else {
            return self.read_pages(addr, buf);
        };
        match self.find(addr / PAGE_BYTES) {
            Some(i) => buf.copy_from_slice(&self.pages[i][off..off + buf.len()]),
            None => buf.fill(0),
        }
    }

    /// [`SparseStore::read`] of an access that is not inside one page: one
    /// read per page it touches.
    #[cold]
    fn read_pages(&self, mut addr: u64, mut rest: &mut [u8]) {
        while !rest.is_empty() {
            let n = rest.len().min((PAGE_BYTES - addr % PAGE_BYTES) as usize);
            let (chunk, tail) = rest.split_at_mut(n);
            self.read(addr, chunk);
            rest = tail;
            addr += n as u64;
        }
    }

    /// Write `data` starting at `addr`, materializing pages as needed.
    #[inline]
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let Some(off) = in_page(addr, data.len()) else {
            return self.write_pages(addr, data);
        };
        let page = addr / PAGE_BYTES;
        let i = match self.find(page) {
            Some(i) => i,
            None => self.materialize(page),
        };
        self.pages[i][off..off + data.len()].copy_from_slice(data);
    }

    /// [`SparseStore::write`] of an access that is not inside one page: one
    /// write per page it touches.
    #[cold]
    fn write_pages(&mut self, mut addr: u64, mut rest: &[u8]) {
        while !rest.is_empty() {
            let n = rest.len().min((PAGE_BYTES - addr % PAGE_BYTES) as usize);
            let (chunk, tail) = rest.split_at(n);
            self.write(addr, chunk);
            rest = tail;
            addr += n as u64;
        }
    }

    /// Materialize the never-written page `page` (zeroed); returns its
    /// index in `pages`.
    #[cold]
    fn materialize(&mut self, page: u64) -> usize {
        let i = self.pages.len();
        self.pages.push(Box::new([0u8; PAGE_BYTES as usize]));
        self.index.insert(page, i);
        self.last.set(Some((page, i)));
        i
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero_without_materializing() {
        let s = SparseStore::new();
        let mut buf = [0xAAu8; 64];
        s.read(1 << 40, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..=255).collect();
        s.write(123, &data);
        let mut back = vec![0u8; 256];
        s.read(123, &mut back);
        assert_eq!(back, data);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn writes_spanning_pages() {
        let mut s = SparseStore::new();
        let data = vec![7u8; 3 * PAGE_BYTES as usize];
        let addr = PAGE_BYTES - 100; // straddles 4 pages
        s.write(addr, &data);
        assert_eq!(s.resident_pages(), 4);
        let mut back = vec![0u8; data.len()];
        s.read(addr, &mut back);
        assert_eq!(back, data);
        // Bytes just outside the write remain zero.
        let mut edge = [0u8; 1];
        s.read(addr - 1, &mut edge);
        assert_eq!(edge[0], 0);
        s.read(addr + data.len() as u64, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn u64_helpers() {
        let mut s = SparseStore::new();
        s.write_u64(PAGE_BYTES - 4, 0xDEAD_BEEF_CAFE_F00D); // straddles a page
        assert_eq!(s.read_u64(PAGE_BYTES - 4), 0xDEAD_BEEF_CAFE_F00D);
    }

    /// The single-page copy covers an access that ends exactly at a page
    /// end; one that runs a byte past it takes the page walk and lands on
    /// both pages.
    #[test]
    fn accesses_at_a_page_end() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (1..=8).collect();
        s.write(PAGE_BYTES - 8, &data);
        assert_eq!(s.resident_pages(), 1, "ends at the page end");
        let mut back = [0u8; 8];
        s.read(PAGE_BYTES - 8, &mut back);
        assert_eq!(back[..], data[..]);

        s.write(2 * PAGE_BYTES - 7, &data);
        assert_eq!(s.resident_pages(), 3, "straddles by one byte");
        let mut last = [0u8; 1];
        s.read(2 * PAGE_BYTES, &mut last);
        assert_eq!(last, [8], "the last byte is on the next page");
        let mut back = [0u8; 8];
        s.read(2 * PAGE_BYTES - 7, &mut back);
        assert_eq!(back[..], data[..]);
        let mut before = [0xAAu8; 2];
        s.read(2 * PAGE_BYTES - 9, &mut before);
        assert_eq!(before, [0, 0], "nothing before the write");
    }

    /// A read inside an untouched page returns zeros and materializes
    /// nothing, even right after the memo found another page.
    #[test]
    fn untouched_page_reads_zero_after_a_memo_hit() {
        let mut s = SparseStore::new();
        s.write(0, &[0xFF; 64]);
        let mut buf = [0xAAu8; 64];
        s.read(0, &mut buf);
        assert_eq!(buf, [0xFF; 64]);
        s.read(PAGE_BYTES + 64, &mut buf);
        assert_eq!(buf, [0; 64]);
        assert_eq!(s.resident_pages(), 1);
    }

    /// An empty access touches no page.
    #[test]
    fn empty_accesses_touch_nothing() {
        let mut s = SparseStore::new();
        s.write(PAGE_BYTES + 8, &[]);
        s.read(PAGE_BYTES + 8, &mut []);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn resident_bytes_tracks_pages() {
        let mut s = SparseStore::new();
        s.write(0, &[1]);
        s.write(PAGE_BYTES * 10, &[1]);
        assert_eq!(s.resident_bytes(), 2 * PAGE_BYTES);
    }
}
