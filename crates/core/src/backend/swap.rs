//! The swap baseline: remote swap.
//!
//! Remote swap (the paper's main comparison, Section II and Figs. 9–11)
//! keeps a bounded set of pages in local memory; touching a non-resident
//! page raises a major fault whose handler, *in software*,
//!
//! 1. picks a victim (CLOCK), writing it back to its backing slot if dirty,
//! 2. fetches the faulting page,
//! 3. remaps and returns — charging the kernel fault overhead on top.
//!
//! A page moves in one timed transfer: through the NIC over Ethernet (the
//! default), or as a 4 KiB `PageWrite` or `PageReq` message over the RMC
//! fabric.
//!
//! Resident pages are accessed at full local speed, which is why locality
//! decides everything for this baseline: Equation 1 of the paper.
//!
//! A resident page's local frame is its page-cache slot: frame `i` starts
//! at `i × PAGE_BYTES`. The page cache hands out slots in order from 0 and
//! gives a victim's slot to the page that displaced it, so no map from page
//! to frame is kept, and a hit finds its slot from the translated address.

use super::process::{Backing, Core, Process, Zones};
use crate::config::ClusterConfig;
use crate::world::World;
use cohfree_fabric::{MsgKind, NodeId};
use cohfree_os::pagetable::PAGE_BYTES;
use cohfree_os::swap::{PageCache, SwapStats};
use cohfree_sim::{FastMap, FifoServer, SimDuration};

/// How remote-swap pages travel.
///
/// The remote-swap systems the paper compares against (its references
/// \[7]\[8]\[26]\[27]) move
/// pages over a commodity network through the kernel block layer — an
/// Ethernet-class path, not the RMC fabric. That is the default here. The
/// `Fabric` variant is an *idealized* swap that ships pages over the same
/// HT fabric the RMC uses (ABL-RESIDENCY, `abl_residency`).
#[derive(Debug, Clone, Copy)]
pub enum SwapTransport {
    /// Kernel network path: per-page round-trip latency + wire time at the
    /// given bandwidth, serialized at the NIC.
    Ethernet {
        /// Software + network round-trip base cost per page operation.
        rtt: SimDuration,
        /// Wire bandwidth in bytes per microsecond (1 Gb/s ⇒ 125).
        bytes_per_us: f64,
    },
    /// Page messages over the RMC fabric (idealized best-case swap).
    Fabric,
}

impl Default for SwapTransport {
    fn default() -> Self {
        // 2010-era 1 GbE + kernel block/network stack.
        SwapTransport::Ethernet {
            rtt: SimDuration::us(100),
            bytes_per_us: 125.0,
        }
    }
}

/// Swap-space sizing.
#[derive(Debug, Clone)]
pub struct SwapConfig {
    /// Pages the local memory can hold (the resident-set bound).
    pub cache_pages: usize,
    /// Explicit backing servers for fabric-transport remote swap
    /// (round-robin); `None` lets the directory pick the nearest donor. An
    /// empty list is rejected when a fabric-transport swap space is built.
    pub servers: Option<Vec<NodeId>>,
    /// Frames per backing-zone reservation (fabric transport).
    pub zone_frames: u64,
    /// Transport for page movement.
    pub transport: SwapTransport,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            cache_pages: 65_536, // 256 MiB resident set
            servers: None,
            zone_frames: 16_384,
            transport: SwapTransport::default(),
        }
    }
}

/// Kernel overhead of a minor (demand-zero) fault.
const MINOR_FAULT: SimDuration = SimDuration::us(2);

/// Where evicted pages live.
enum Device {
    /// Remote node memory over the RMC fabric (idealized swap). The world
    /// is boxed: it is by far the largest variant.
    Fabric { world: Box<World>, zones: Zones },
    /// Remote memory server over an Ethernet-class kernel path (the
    /// baseline the paper compares against).
    Ethernet {
        nic: FifoServer,
        rtt: SimDuration,
        bytes_per_us: f64,
    },
}

/// Direction of a page transfer between local memory and a backing slot.
#[derive(Clone, Copy)]
enum Transfer {
    /// Fetch a page (major fault).
    In,
    /// Write a dirty page back.
    Out,
}

/// Page residency metadata.
#[derive(Debug, Clone, Copy)]
struct PageHome {
    /// Backing slot (prefixed remote address, or Ethernet server offset).
    slot: u64,
    /// False until first touched: first touch is a zero-fill minor fault
    /// with no device traffic (like real demand-zero paging).
    materialized: bool,
}

/// How a [`SwapSpace`] backs its pages: a bounded resident set in local
/// memory, with every page's home in a slot of the swap device.
pub struct SwapBacking {
    node: NodeId,
    device: Device,
    page_cache: PageCache,
    homes: FastMap<u64, PageHome>,
    /// Next backing offset on an Ethernet server.
    next_offset: u64,
    /// Unloaded DRAM latency of one line fill, charged where no cluster
    /// models the memory controllers (Ethernet swap).
    dram_fill: SimDuration,
}

/// A process whose memory overflows into a swap device.
pub type SwapSpace = Process<SwapBacking>;

impl SwapSpace {
    /// Remote swap: pages beyond `swap_cfg.cache_pages` live in another
    /// node's memory, fetched page-at-a-time through the kernel over
    /// `swap_cfg.transport`.
    ///
    /// # Panics
    /// Panics if the transport is [`SwapTransport::Fabric`] and
    /// `swap_cfg.servers` is an empty list.
    pub fn remote(cfg: ClusterConfig, node: NodeId, swap_cfg: SwapConfig) -> SwapSpace {
        let device = match swap_cfg.transport {
            SwapTransport::Ethernet { rtt, bytes_per_us } => Device::Ethernet {
                nic: FifoServer::new(),
                rtt,
                bytes_per_us,
            },
            SwapTransport::Fabric => Device::Fabric {
                world: Box::new(World::new(cfg)),
                zones: Zones::new(node, swap_cfg.servers, swap_cfg.zone_frames),
            },
        };
        let backing = SwapBacking {
            node,
            device,
            page_cache: PageCache::new(swap_cfg.cache_pages),
            homes: FastMap::default(),
            next_offset: 0,
            dram_fill: cfg.dram.unloaded_latency(cfg.cache.line_bytes),
        };
        Process::with_backing(&cfg, backing)
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.backing.node
    }

    /// The underlying cluster when pages travel over the RMC fabric
    /// (statistics, span traces); `None` for Ethernet backing, which never
    /// instantiates a cluster.
    pub fn world(&self) -> Option<&World> {
        match &self.backing.device {
            Device::Fabric { world, .. } => Some(world),
            Device::Ethernet { .. } => None,
        }
    }

    /// Resident-set statistics from the page cache.
    pub fn swap_stats(&self) -> SwapStats {
        self.backing.page_cache.stats()
    }

    /// Write every dirty resident page out to its backing slot (timed) —
    /// the equivalent of `msync`/quiescing the dirty list. Lets experiments
    /// separate a dirty populate phase from a clean read phase.
    pub fn flush_dirty_pages(&mut self) {
        let b = &mut self.backing;
        for vpn in b.page_cache.flush_dirty() {
            let slot = b.homes.get(&vpn).expect("dirty page has a home").slot;
            b.transfer(&mut self.core, slot, Transfer::Out);
        }
    }
}

impl SwapBacking {
    /// One timed page transfer between local memory and backing `slot`.
    fn transfer(&mut self, core: &mut Core, slot: u64, dir: Transfer) {
        match dir {
            Transfer::In => core.stats.pages_in += 1,
            Transfer::Out => core.stats.pages_out += 1,
        }
        let bytes = PAGE_BYTES as u32;
        core.clock = match &mut self.device {
            // Request/response through the kernel and the NIC.
            Device::Ethernet {
                nic,
                rtt,
                bytes_per_us,
            } => {
                let wire = SimDuration::ns_f64(PAGE_BYTES as f64 / *bytes_per_us * 1e3);
                nic.accept(core.clock, wire) + *rtt
            }
            Device::Fabric { world, .. } => {
                let (prefix, _) = cohfree_rmc::addr::split(slot);
                let kind = match dir {
                    Transfer::In => MsgKind::PageReq { bytes },
                    Transfer::Out => MsgKind::PageWrite { bytes },
                };
                world.blocking_transaction(core.clock, self.node, NodeId::new(prefix), kind, slot)
            }
        };
    }
}

impl Backing for SwapBacking {
    /// Assign the page a backing slot; it stays non-resident until first
    /// touched.
    fn back_page(&mut self, core: &mut Core, vpn: u64) {
        let slot = match &mut self.device {
            Device::Fabric { world, zones } => zones.next_frame(world, core),
            Device::Ethernet { .. } => {
                let slot = self.next_offset;
                self.next_offset += PAGE_BYTES;
                slot
            }
        };
        self.homes.insert(
            vpn,
            PageHome {
                slot,
                materialized: false,
            },
        );
        core.pt.mark_swapped(vpn);
    }

    /// Major/minor fault handler: make `vpn` resident.
    fn fault(&mut self, core: &mut Core, vpn: u64, write: bool) {
        let home = *self
            .homes
            .get(&vpn)
            .unwrap_or_else(|| panic!("fault on unallocated vpn {vpn:#x}"));
        let (frame_no, evicted) = self.page_cache.admit(vpn, write);
        let frame = frame_no as u64 * PAGE_BYTES;
        // Evict the victim first: the page takes over its frame.
        if let Some(e) = evicted {
            core.pt.mark_swapped(e.vpage);
            // Page mover copies through/around the CPU cache; drop the
            // victim's lines (their write-back cost is part of the
            // page-out below).
            core.cache.flush_range(frame, PAGE_BYTES);
            if e.dirty {
                let slot = self.homes.get(&e.vpage).expect("victim has a home").slot;
                self.transfer(core, slot, Transfer::Out);
            }
        }
        if home.materialized {
            // Real major fault: kernel overhead + device fetch.
            core.stats.major_faults += 1;
            core.clock += core.os.fault_overhead;
            self.transfer(core, home.slot, Transfer::In);
        } else {
            // Demand-zero: kernel overhead only.
            core.stats.minor_faults += 1;
            core.clock += MINOR_FAULT;
            self.homes.get_mut(&vpn).expect("checked").materialized = true;
        }
        core.pt.map(vpn, frame);
    }

    #[inline]
    fn touch(&mut self, _core: &mut Core, vpn: u64, phys: u64, write: bool) -> bool {
        // Keep CLOCK reference bits warm on resident hits; the frame
        // number is the page's slot.
        self.page_cache
            .touch_slot((phys / PAGE_BYTES) as usize, vpn, write);
        false
    }

    fn fill(&mut self, core: &mut Core, phys: u64, missed: bool, victims: &[u64]) {
        let line = core.cache.line_bytes();
        match &mut self.device {
            Device::Fabric { world, .. } => {
                if missed {
                    core.clock = world.local_access(core.clock, self.node, phys, line);
                }
                // All frames are local; the hardware write buffer absorbs
                // the write-back off the critical path.
                for &victim in victims {
                    world.local_access(core.clock, self.node, victim, line);
                }
            }
            // No cluster models this machine's controllers: a fill costs
            // the unloaded DRAM latency and write-backs cost the core
            // nothing.
            Device::Ethernet { .. } => {
                if missed {
                    core.clock += self.dram_fill;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSpace;
    use cohfree_sim::SimTime;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn small_remote(cache_pages: usize) -> SwapSpace {
        SwapSpace::remote(
            ClusterConfig::prototype(),
            n(1),
            SwapConfig {
                cache_pages,
                ..SwapConfig::default()
            },
        )
    }

    fn small_fabric(cache_pages: usize) -> SwapSpace {
        SwapSpace::remote(
            ClusterConfig::prototype(),
            n(1),
            SwapConfig {
                cache_pages,
                zone_frames: 4096,
                servers: Some(vec![n(2)]),
                transport: SwapTransport::Fabric,
            },
        )
    }

    #[test]
    fn data_round_trips_through_swap() {
        let mut m = small_remote(4);
        let va = m.alloc(32 * 4096); // 32 pages, cache holds 4
        for i in 0..32u64 {
            m.write_u64(va + i * 4096, i * 10);
        }
        for i in 0..32u64 {
            assert_eq!(m.read_u64(va + i * 4096), i * 10, "page {i}");
        }
        assert!(m.stats().major_faults > 0, "must have swapped");
        assert!(m.stats().pages_out > 0, "dirty pages written out");
        assert!(m.stats().pages_in > 0, "pages fetched back");
    }

    #[test]
    fn first_touch_is_minor_not_major() {
        let mut m = small_remote(64);
        let va = m.alloc(16 * 4096);
        for i in 0..16u64 {
            m.write_u64(va + i * 4096, i);
        }
        let s = m.stats();
        assert_eq!(s.minor_faults, 16);
        assert_eq!(s.major_faults, 0);
        assert_eq!(s.pages_in, 0, "zero-fill needs no device reads");
    }

    #[test]
    fn working_set_in_cache_runs_at_local_speed() {
        let mut m = small_remote(64);
        let va = m.alloc(8 * 4096);
        for i in 0..8u64 {
            m.write_u64(va + i * 4096, i);
        }
        let t0 = m.now();
        for _ in 0..100 {
            for i in 0..8u64 {
                m.read_u64(va + i * 4096);
            }
        }
        let per_access = m.now().since(t0).as_ns_f64() / 800.0;
        assert!(per_access < 100.0, "resident access cost {per_access}ns");
        assert_eq!(m.stats().major_faults, 0);
    }

    #[test]
    fn thrashing_explodes_cost() {
        // Sequential sweep over 4x the resident set: near 100% fault rate.
        let mut m = small_remote(8);
        let va = m.alloc(32 * 4096);
        for i in 0..32u64 {
            m.write_u64(va + i * 4096, i);
        }
        let before = m.stats().major_faults;
        let t0 = m.now();
        for _ in 0..3 {
            for i in 0..32u64 {
                m.read_u64(va + i * 4096);
            }
        }
        let faults = m.stats().major_faults - before;
        assert!(faults >= 90, "expected thrash, got {faults} faults");
        let per_access = m.now().since(t0).as_us_f64() / 96.0;
        assert!(
            per_access > 5.0,
            "faulting access cost {per_access}us too low"
        );
    }

    #[test]
    fn fabric_transport_round_trips_and_reserves() {
        let mut m = small_fabric(4);
        let va = m.alloc(16 * 4096);
        for i in 0..16u64 {
            m.write_u64(va + i * 4096, i + 1);
        }
        for i in 0..16u64 {
            assert_eq!(m.read_u64(va + i * 4096), i + 1);
        }
        assert!(m.stats().reservations >= 1, "fabric swap reserves zones");
    }

    #[test]
    fn ethernet_swap_is_slower_than_idealized_fabric_swap() {
        let thrash = |mut m: SwapSpace| {
            let va = m.alloc(32 * 4096);
            for i in 0..32u64 {
                m.write_u64(va + i * 4096, i);
            }
            for _ in 0..2 {
                for i in 0..32u64 {
                    m.read_u64(va + i * 4096);
                }
            }
            m.now().since(SimTime::ZERO)
        };
        let eth = thrash(small_remote(8));
        let fab = thrash(small_fabric(8));
        assert!(
            eth.as_ns_f64() > 2.0 * fab.as_ns_f64(),
            "ethernet {eth} should be well above fabric {fab}"
        );
    }

    #[test]
    fn clean_pages_are_not_written_back() {
        let mut m = small_remote(4);
        let va = m.alloc(16 * 4096);
        // Materialize all pages (writes), then sweep read-only twice.
        for i in 0..16u64 {
            m.write_u64(va + i * 4096, i);
        }
        let pages_out_after_populate = m.stats().pages_out;
        for _ in 0..2 {
            for i in 0..16u64 {
                m.read_u64(va + i * 4096);
            }
        }
        // Read-only sweeps evict only clean pages: pages_out grows at most
        // by the dirty residue of the populate phase (<= cache capacity).
        let growth = m.stats().pages_out - pages_out_after_populate;
        assert!(growth <= 4, "read-only thrash wrote {growth} pages");
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_access_panics() {
        let mut m = small_remote(4);
        m.read_u64(0xF000_0000);
    }

    #[test]
    #[should_panic(expected = "`servers` is an empty list")]
    fn empty_server_list_is_rejected() {
        let swap_cfg = SwapConfig {
            servers: Some(vec![]),
            transport: SwapTransport::Fabric,
            ..SwapConfig::default()
        };
        SwapSpace::remote(ClusterConfig::prototype(), n(1), swap_cfg);
    }
}
