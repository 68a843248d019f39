//! The big-memory single machine ("local memory" reference).
//!
//! The paper compares its prototype against "a single machine populated
//! with 128 GB of local memory, thus avoiding the penalty of remote
//! accesses". Such a machine does not honor the 14-bit prefix window (it is
//! hypothetical), so this backend uses the DRAM and cache models directly
//! without a fabric.

use super::process::{Backing, Core, Process};
use crate::config::ClusterConfig;
use cohfree_mem::{DramConfig, NodeMemory};
use cohfree_os::pagetable::PAGE_BYTES;

/// How a [`LocalMachine`] backs its pages: consecutive frames of its own
/// DRAM, whose sockets are scaled up to hold all installed memory.
pub struct LocalBacking {
    mem: NodeMemory,
    next_frame: u64,
    mem_bytes: u64,
}

/// A process on a machine whose entire memory is local.
pub type LocalMachine = Process<LocalBacking>;

impl LocalMachine {
    /// A machine with `total_bytes` of local memory, using `cfg`'s DRAM,
    /// cache and OS timing calibration.
    pub fn new(cfg: ClusterConfig, total_bytes: u64) -> LocalMachine {
        let dram = DramConfig {
            bytes_per_socket: total_bytes.div_ceil(cfg.dram.sockets as u64),
            ..cfg.dram
        };
        let backing = LocalBacking {
            mem: NodeMemory::new(dram),
            next_frame: 0,
            mem_bytes: total_bytes,
        };
        Process::with_backing(&cfg, backing)
    }

    /// Bytes of physical memory installed.
    pub fn memory_bytes(&self) -> u64 {
        self.backing.mem_bytes
    }
}

impl Backing for LocalBacking {
    fn back_page(&mut self, core: &mut Core, vpn: u64) {
        assert!(
            self.next_frame + PAGE_BYTES <= self.mem_bytes,
            "local machine out of memory ({} bytes installed)",
            self.mem_bytes
        );
        core.pt.map(vpn, self.next_frame);
        self.next_frame += PAGE_BYTES;
    }

    fn fill(&mut self, core: &mut Core, phys: u64, missed: bool, victims: &[u64]) {
        let line = core.cache.line_bytes();
        if missed {
            core.clock = self.mem.access(core.clock, phys, line);
        }
        for &victim in victims {
            // Writebacks to local DRAM are buffered by hardware: they
            // occupy the controller but do not stall the core.
            self.mem.access(core.clock, victim, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSpace;
    use cohfree_sim::{SimDuration, SimTime};

    fn machine() -> LocalMachine {
        LocalMachine::new(ClusterConfig::prototype(), 128 << 30)
    }

    #[test]
    fn round_trip_data() {
        let mut m = machine();
        let va = m.alloc(1 << 16);
        m.write_u64(va + 8, 0xABCD);
        assert_eq!(m.read_u64(va + 8), 0xABCD);
        assert_eq!(m.read_u64(va), 0, "allocation is zeroed");
    }

    #[test]
    fn cache_makes_repeat_access_cheap() {
        let mut m = machine();
        let va = m.alloc(4096);
        m.read_u64(va);
        let t1 = m.now();
        m.read_u64(va);
        let dt = m.now().since(t1);
        assert_eq!(dt, ClusterConfig::prototype().os.cache_hit);
        let s = m.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn multi_line_reads_charge_per_line() {
        let mut m = machine();
        let va = m.alloc(4096);
        let mut buf = vec![0u8; 256]; // 4 lines
        m.read(va, &mut buf);
        assert_eq!(m.stats().reads, 4);
        assert_eq!(m.stats().bytes_read, 256);
    }

    #[test]
    fn tlb_walks_counted() {
        let mut m = machine();
        let va = m.alloc(1 << 20);
        // Touch 256 distinct pages: each first touch walks.
        for p in 0..256u64 {
            m.read_u64(va + p * 4096);
        }
        assert_eq!(m.stats().tlb_walks, 256);
    }

    #[test]
    fn compute_advances_clock_only() {
        let mut m = machine();
        let s0 = m.stats();
        m.compute(SimDuration::us(5));
        assert_eq!(m.now().since(SimTime::ZERO), SimDuration::us(5));
        assert_eq!(m.stats(), s0);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_access_panics() {
        let mut m = machine();
        m.read_u64(0xDEAD_0000);
    }

    #[test]
    #[should_panic(expected = "out of memory")]
    fn exhaustion_panics() {
        let mut m = LocalMachine::new(ClusterConfig::prototype(), 1 << 20);
        m.alloc(2 << 20);
    }

    #[test]
    fn sockets_hold_all_installed_memory() {
        // Configured sockets of 64 KiB each, 1 MiB installed: the sockets
        // are scaled up, so the last page is backed by the last socket
        // instead of being rejected as beyond node memory.
        let mut cfg = ClusterConfig::prototype();
        cfg.dram.bytes_per_socket = 64 << 10;
        let mut m = LocalMachine::new(cfg, 1 << 20);
        let va = m.alloc((1 << 20) - 4096);
        let last = va + (1 << 20) - 4096 - 8;
        m.write_u64(last, 9);
        assert_eq!(m.read_u64(last), 9);
        assert_eq!(m.memory_bytes(), 1 << 20);
    }
}
