//! The process front-end every backend shares.
//!
//! A [`Process`] is one single-core process: its page table and TLB, its
//! cache hierarchy, the functional byte store, its clock and
//! [`AccessStats`], and the packed bump allocator that lays out its virtual
//! addresses. Every load and store takes the same path:
//!
//! 1. split into cache lines ([`lines`]);
//! 2. translate through the TLB, charging a page walk on a miss (a
//!    non-resident page goes to the backing's fault handler first);
//! 3. look the line up in the cache hierarchy, charging the L1-hit, L2-hit
//!    or miss-lookup latency;
//! 4. hand the outcome to the backing, which fills a missed line and writes
//!    home every dirty line the hierarchy displaced, on every level. A
//!    clean hit (most accesses) has nothing for it and skips the call.
//!
//! The backing supplies only what differs between the systems the paper
//! compares ([`Backing`]): how a new page is backed, the fault handler
//! (swap only), and the miss fill with its victim write-back.

use super::stats::AccessStats;
use super::MemSpace;
use crate::config::{ClusterConfig, OsTiming};
use crate::world::World;
use cohfree_fabric::NodeId;
use cohfree_mem::{CacheHierarchy, Level, SparseStore};
use cohfree_os::pagetable::{PageTable, Translation, PAGE_BYTES};
use cohfree_sim::{SimDuration, SimTime};

/// First virtual address the bump allocator hands out (VA 0's page stays
/// unmapped as a null guard).
const FIRST_VA: u64 = 0x1000;

/// The line addresses a `len`-byte access at `va` touches, split into
/// `line_bytes` lines exactly as every backend charges them. An empty
/// access touches none.
pub(crate) fn lines(va: u64, len: u64, line_bytes: u64) -> impl Iterator<Item = u64> {
    let end = va + len;
    let mut next = if len == 0 {
        end
    } else {
        va & !(line_bytes - 1)
    };
    std::iter::from_fn(move || {
        let line = next;
        next += line_bytes;
        (line < end).then_some(line)
    })
}

/// The core a process runs on: page table and TLB, caches, clock,
/// counters and software timing. Backing hooks charge their work here.
pub struct Core {
    pub(super) pt: PageTable,
    pub(super) cache: CacheHierarchy,
    pub(super) clock: SimTime,
    pub(super) stats: AccessStats,
    pub(super) os: OsTiming,
}

/// What a backend supplies to the shared front-end.
pub trait Backing {
    /// Back virtual page `vpn`, which the bump allocator just reached.
    fn back_page(&mut self, core: &mut Core, vpn: u64);

    /// Make the non-resident page `vpn` resident (the fault handler). Only
    /// swap ever leaves a page non-resident.
    fn fault(&mut self, _core: &mut Core, vpn: u64, _write: bool) {
        unreachable!("page {vpn:#x} faulted on a backend that never swaps")
    }

    /// Called for every translated line before the caches see it. Returns
    /// `true` when the backing served the access itself, past the caches.
    #[inline]
    fn touch(&mut self, _core: &mut Core, _vpn: u64, _phys: u64, _write: bool) -> bool {
        false
    }

    /// Fill the line at `phys` if it `missed` the hierarchy, and write home
    /// the dirty `victims` the hierarchy displaced, in this backing's order.
    ///
    /// The front-end calls this only when the access missed or displaced a
    /// dirty line. So a `fill` with `missed == false` and no `victims` must
    /// change no state and no clock: skipping it is exact only then.
    fn fill(&mut self, core: &mut Core, phys: u64, missed: bool, victims: &[u64]);
}

/// A single-core process over the backing `B`: the one [`MemSpace`]
/// implementation behind [`super::LocalMachine`],
/// [`super::RemoteMemorySpace`] and [`super::SwapSpace`].
pub struct Process<B> {
    pub(super) core: Core,
    store: SparseStore,
    bump_va: u64,
    /// First virtual page number not yet backed.
    next_vpn: u64,
    pub(super) backing: B,
}

impl<B> Process<B> {
    /// A fresh process on `cfg`'s TLB, caches and OS timing.
    pub(super) fn with_backing(cfg: &ClusterConfig, backing: B) -> Process<B> {
        Process {
            core: Core {
                pt: PageTable::new(cfg.tlb),
                cache: CacheHierarchy::new(cfg.l1, cfg.cache),
                clock: SimTime::ZERO,
                stats: AccessStats::default(),
                os: cfg.os,
            },
            store: SparseStore::new(),
            bump_va: FIRST_VA,
            next_vpn: PageTable::vpn(FIRST_VA),
            backing,
        }
    }
}

impl<B: Backing> Process<B> {
    /// One timed access covering a single cache line.
    fn line_access(&mut self, va: u64, write: bool) {
        let core = &mut self.core;
        let vpn = PageTable::vpn(va);
        let phys = loop {
            match core.pt.translate(va) {
                Translation::TlbHit { phys } => break phys,
                Translation::Walked { phys } => {
                    core.stats.tlb_walks += 1;
                    core.clock += core.os.tlb_walk;
                    break phys;
                }
                Translation::MajorFault => self.backing.fault(core, vpn, write),
                Translation::Unmapped => panic!("access to unallocated VA {va:#x}"),
            }
        };
        if self.backing.touch(core, vpn, phys, write) {
            return;
        }
        let out = core.cache.access(phys, write);
        let missed = match out.level {
            Level::L1 => {
                core.stats.cache_hits += 1;
                core.clock += core.os.l1_hit;
                false
            }
            Level::L2 => {
                core.stats.cache_hits += 1;
                core.clock += core.os.cache_hit;
                false
            }
            Level::Memory => {
                core.stats.cache_misses += 1;
                core.clock += core.os.cache_hit; // lookup cost
                true
            }
        };
        // A clean hit leaves the backing nothing to do (see `Backing::fill`).
        if missed || !out.memory_writebacks.is_empty() {
            self.backing
                .fill(core, phys, missed, &out.memory_writebacks);
        }
    }

    fn timed_range(&mut self, va: u64, len: usize, write: bool) {
        let line = self.core.cache.line_bytes() as u64;
        for a in lines(va, len as u64, line) {
            self.line_access(a, write);
            if write {
                self.core.stats.writes += 1;
            } else {
                self.core.stats.reads += 1;
            }
        }
    }
}

impl<B: Backing> MemSpace for Process<B> {
    fn alloc(&mut self, bytes: u64) -> u64 {
        assert!(bytes > 0, "zero-byte allocation");
        self.core.clock += self.core.os.malloc_overhead;
        // Packed bump allocation (16-byte aligned), like the interposed
        // malloc of the prototype: B-tree nodes straddle page boundaries
        // exactly as the paper describes. Each page is backed when the
        // cursor first reaches it.
        let va = self.bump_va;
        self.bump_va = (va + bytes + 15) & !15;
        let last_vpn = PageTable::vpn(self.bump_va - 1);
        while self.next_vpn <= last_vpn {
            self.backing.back_page(&mut self.core, self.next_vpn);
            self.next_vpn += 1;
        }
        self.core.stats.allocations += 1;
        va
    }

    #[inline]
    fn read(&mut self, va: u64, buf: &mut [u8]) {
        self.timed_range(va, buf.len(), false);
        self.core.stats.bytes_read += buf.len() as u64;
        self.store.read(va, buf);
    }

    #[inline]
    fn write(&mut self, va: u64, data: &[u8]) {
        self.timed_range(va, data.len(), true);
        self.core.stats.bytes_written += data.len() as u64;
        self.store.write(va, data);
    }

    fn compute(&mut self, d: SimDuration) {
        self.core.clock += d;
    }

    fn now(&self) -> SimTime {
        self.core.clock
    }

    fn stats(&self) -> AccessStats {
        self.core.stats
    }
}

/// Remote-zone reservations for the backings that borrow pool frames
/// (remote memory and fabric swap). Frames come from the current zone; when
/// it is used up, a fresh zone is reserved from the next of the explicit
/// `servers` (round-robin) or, without a list, from the directory's donor
/// policy.
pub(super) struct Zones {
    node: NodeId,
    servers: Option<Vec<NodeId>>,
    next_server: usize,
    zone_frames: u64,
    base: u64,
    frames: u64,
    used: u64,
}

impl Zones {
    /// Zones of `zone_frames` frames for a process on `node`.
    ///
    /// # Panics
    /// Panics if `servers` is an empty list, which names no server to
    /// reserve from.
    pub(super) fn new(node: NodeId, servers: Option<Vec<NodeId>>, zone_frames: u64) -> Zones {
        assert!(
            servers.as_ref().is_none_or(|s| !s.is_empty()),
            "`servers` is an empty list: name at least one memory server, \
             or pass `None` to let the directory choose the nearest donor"
        );
        Zones {
            node,
            servers,
            next_server: 0,
            zone_frames,
            base: 0,
            frames: 0,
            used: 0,
        }
    }

    /// The next pool frame (a prefixed physical address), reserving a
    /// fresh zone first when the current one is used up; the reservation's
    /// software cost is charged to `core`.
    pub(super) fn next_frame(&mut self, world: &mut World, core: &mut Core) -> u64 {
        if self.used == self.frames {
            let donor = self.servers.as_ref().map(|s| {
                let d = s[self.next_server % s.len()];
                self.next_server += 1;
                d
            });
            let resv = world.reserve_remote(self.node, self.zone_frames, donor);
            core.clock += core.os.reservation;
            core.stats.reservations += 1;
            self.base = resv.prefixed_base;
            self.frames = resv.frames;
            self.used = 0;
        }
        let frame = self.base + self.used * PAGE_BYTES;
        self.used += 1;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        AllocPolicy, LocalMachine, RemoteMemorySpace, RemoteOptions, SwapConfig, SwapSpace,
        SwapTransport,
    };

    /// Time of a read that misses the caches on a resident, TLB-mapped
    /// page: the second line of a freshly touched page.
    fn miss_time<M: MemSpace>(mut m: M) -> SimDuration {
        let va = m.alloc(4096);
        m.read_u64(va);
        let t0 = m.now();
        m.read_u64(va + 64);
        m.now().since(t0)
    }

    /// The same miss on every backend, under `cfg`.
    fn miss_times(cfg: ClusterConfig) -> Vec<(&'static str, SimDuration)> {
        let node = NodeId::new(1);
        let swap = |transport| SwapConfig {
            transport,
            ..SwapConfig::default()
        };
        let remote =
            |policy| RemoteMemorySpace::with_options(cfg, node, policy, RemoteOptions::default());
        vec![
            ("local", miss_time(LocalMachine::new(cfg, 1 << 30))),
            ("remote", miss_time(remote(AllocPolicy::AlwaysRemote))),
            (
                "remote local-first",
                miss_time(remote(AllocPolicy::LocalFirst)),
            ),
            (
                "ethernet swap",
                miss_time(SwapSpace::remote(cfg, node, swap(SwapTransport::default()))),
            ),
            (
                "fabric swap",
                miss_time(SwapSpace::remote(cfg, node, swap(SwapTransport::Fabric))),
            ),
        ]
    }

    #[test]
    fn configured_dram_latency_reaches_every_backend() {
        let fast = ClusterConfig::prototype();
        let mut slow = fast;
        slow.dram.access_latency += SimDuration::ns(145);
        for ((name, f), (_, s)) in miss_times(fast).into_iter().zip(miss_times(slow)) {
            assert_eq!(s, f + SimDuration::ns(145), "{name}: {f} -> {s}");
        }
    }

    /// An empty load or store charges nothing and translates nothing, at
    /// any offset, even at an unallocated address.
    #[test]
    fn empty_accesses_charge_nothing() {
        let mut m = LocalMachine::new(ClusterConfig::prototype(), 1 << 30);
        let va = m.alloc(4096);
        let before = (m.now(), m.stats());
        m.read(va + 72, &mut []);
        m.read(va + 64, &mut []);
        m.write(va + 72, &[]);
        m.write(0xDEAD_0008, &[]);
        assert_eq!((m.now(), m.stats()), before);
    }

    #[test]
    fn lines_split_like_the_line_walk() {
        let split = |va, len| lines(va, len, 64).collect::<Vec<_>>();
        assert_eq!(split(0x1000, 8), vec![0x1000]);
        assert_eq!(split(0x1038, 16), vec![0x1000, 0x1040]);
        assert_eq!(split(0x1040, 128), vec![0x1040, 0x1080]);
        // An empty access touches nothing, inside a line or at its start.
        assert!(split(0x1008, 0).is_empty());
        assert!(split(0x1040, 0).is_empty());
    }
}
