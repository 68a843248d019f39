//! The paper's system: non-coherent remote memory behind plain loads/stores.
//!
//! * **Allocation** interposes `malloc` (Section IV-B): zones are reserved
//!   from donor nodes through [`crate::World::reserve_remote`], and
//!   page-table entries point straight at **prefixed** physical addresses.
//!   One reservation covers many allocations; its software cost is charged
//!   once.
//! * **Access** is pure hardware: TLB → cache → (local controller | RMC →
//!   fabric → home DRAM). Remote ranges are write-back cacheable, exactly
//!   like the prototype; dirty victims whose line lives remotely stall the
//!   core for a write transaction first (one outstanding RMC request).
//! * The optional [`cohfree_rmc::Prefetcher`] implements the paper's
//!   future-work extension at the cache's line size; prefetched lines
//!   become usable after an unloaded round-trip estimate
//!   (optimistic-overlap model, documented in DESIGN.md), an instant the
//!   prefetch buffer keeps with each line.

use super::process::{Backing, Core, Process, Zones};
use crate::config::ClusterConfig;
use crate::world::World;
use cohfree_fabric::{MsgKind, NodeId};
use cohfree_rmc::addr::RemoteRef;
use cohfree_rmc::Prefetcher;

/// Where allocations land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Every allocation is backed by remote memory (how the paper runs its
    /// experiments: "we allocate remote memory explicitly").
    AlwaysRemote,
    /// Use the node's private memory until it runs out, then go remote
    /// (what a production deployment would do).
    LocalFirst,
}

/// Tuning knobs beyond the cluster config.
#[derive(Debug, Clone)]
pub struct RemoteOptions {
    /// Map remote ranges cacheable write-back (the prototype's setting).
    /// `false` models uncached I/O-space access for the ablation.
    pub cacheable: bool,
    /// Use HyperTransport *posted* semantics for remote stores and victim
    /// write-backs: the core continues once the RMC accepts the write,
    /// while the transaction drains in the background (it still holds a
    /// request slot and loads the fabric/home). `false` (the conservative
    /// prototype behaviour) stalls the core for the full round trip.
    pub posted_writes: bool,
    /// Enable the RMC sequential prefetcher (at `cfg.cache.line_bytes`).
    pub prefetch: bool,
    /// Frames per reservation zone (amortizes the software cost).
    pub zone_frames: u64,
    /// Explicit memory-server list (round-robin); `None` lets the
    /// directory pick the nearest donor with room. An empty list is
    /// rejected at construction.
    pub servers: Option<Vec<NodeId>>,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            cacheable: true,
            posted_writes: false,
            prefetch: false,
            zone_frames: 16_384, // 64 MiB zones
            servers: None,
        }
    }
}

/// How a [`RemoteMemorySpace`] backs its pages: frames of borrowed remote
/// zones (or private local frames first, under
/// [`AllocPolicy::LocalFirst`]), reached through the node's RMC.
pub struct RemoteBacking {
    world: World,
    node: NodeId,
    policy: AllocPolicy,
    cacheable: bool,
    posted_writes: bool,
    zones: Zones,
    prefetcher: Option<Prefetcher>,
}

/// A process on `node` using the paper's remote-memory architecture.
pub type RemoteMemorySpace = Process<RemoteBacking>;

impl RemoteMemorySpace {
    /// A process on `node` of a cluster described by `cfg`.
    pub fn new(cfg: ClusterConfig, node: NodeId, policy: AllocPolicy) -> RemoteMemorySpace {
        Self::with_options(cfg, node, policy, RemoteOptions::default())
    }

    /// Full-control constructor.
    ///
    /// # Panics
    /// Panics if `opts.servers` is an empty list.
    pub fn with_options(
        cfg: ClusterConfig,
        node: NodeId,
        policy: AllocPolicy,
        opts: RemoteOptions,
    ) -> RemoteMemorySpace {
        let backing = RemoteBacking {
            world: World::new(cfg),
            node,
            policy,
            cacheable: opts.cacheable,
            posted_writes: opts.posted_writes,
            zones: Zones::new(node, opts.servers, opts.zone_frames),
            prefetcher: opts
                .prefetch
                .then(|| Prefetcher::new(cfg.cache.line_bytes.into())),
        };
        Process::with_backing(&cfg, backing)
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.backing.node
    }

    /// Access to the underlying cluster (statistics).
    pub fn world(&self) -> &World {
        &self.backing.world
    }

    /// Bytes of remote memory currently borrowed by this process's region.
    pub fn borrowed_bytes(&self) -> u64 {
        self.backing
            .world
            .region(self.backing.node)
            .borrowed_bytes()
    }

    /// Settle all in-flight posted writes (a memory-barrier/`sfence`
    /// equivalent); the clock advances to the drain point.
    pub fn quiesce(&mut self) {
        let t = self.backing.world.drain_background();
        self.core.clock = self.core.clock.max(t);
    }

    /// Flush the CPU cache, writing every dirty line back to its home — the
    /// explicit flush the prototype performs before a read-only parallel
    /// phase (Section IV-B).
    pub fn flush_cache(&mut self) {
        for victim in self.core.cache.flush_all() {
            self.backing.write_home(&mut self.core, victim);
        }
    }
}

impl RemoteBacking {
    fn home_of(&self, phys: u64) -> Option<NodeId> {
        match cohfree_rmc::addr::decode(self.node, phys).expect_no_loopback() {
            RemoteRef::Remote { home, .. } => Some(home),
            RemoteRef::Local { .. } => None,
            RemoteRef::Loopback { .. } => unreachable!(),
        }
    }

    /// Blocking remote read of `bytes` at `phys`; the core waits for it.
    fn remote_read(&mut self, core: &mut Core, phys: u64, home: NodeId, bytes: u32) {
        core.stats.remote_reads += 1;
        let kind = MsgKind::ReadReq { bytes };
        core.clock = self
            .world
            .blocking_transaction(core.clock, self.node, home, kind, phys);
    }

    /// Remote write of `bytes` at `phys`; the core continues after the full
    /// round trip, or at RMC acceptance under posted semantics.
    fn remote_write(&mut self, core: &mut Core, phys: u64, home: NodeId, bytes: u32) {
        core.stats.remote_writes += 1;
        let kind = MsgKind::WriteReq { bytes };
        core.clock = if self.posted_writes {
            self.world
                .posted_transaction(core.clock, self.node, home, kind, phys)
        } else {
            self.world
                .blocking_transaction(core.clock, self.node, home, kind, phys)
        };
    }

    /// Write one dirty line back to its home. Local lines are absorbed by
    /// the write buffer; remote ones hold the single RMC slot.
    fn write_home(&mut self, core: &mut Core, line: u64) {
        let bytes = core.cache.line_bytes();
        match self.home_of(line) {
            None => {
                self.world.local_access(core.clock, self.node, line, bytes);
            }
            Some(home) => self.remote_write(core, line, home, bytes),
        }
    }

    /// Fetch one remote line into the cache path, consulting the prefetcher.
    fn fetch_remote_line(&mut self, core: &mut Core, line_phys: u64, home: NodeId, bytes: u32) {
        let Some(pf) = self.prefetcher.as_mut() else {
            self.remote_read(core, line_phys, home, bytes);
            return;
        };
        let decision = pf.access(line_phys);
        if let Some(ready) = decision.hit {
            // Wait for the prefetch to land, then a buffer-speed fill.
            core.clock = core.clock.max(ready) + core.os.cache_hit;
            core.stats.prefetch_hits += 1;
        } else {
            self.remote_read(core, line_phys, home, bytes);
        }
        // Launch newly decided prefetches (optimistic overlap: they complete
        // one unloaded round trip later without stalling the core; see
        // DESIGN.md).
        let ready = core.clock
            + self
                .world
                .estimate_remote_read_latency(self.node, home, bytes);
        let pf = self
            .prefetcher
            .as_mut()
            .expect("prefetcher present on this path");
        for l in decision.issue {
            pf.fill(l, ready);
            core.stats.prefetch_issued += 1;
        }
    }
}

impl Backing for RemoteBacking {
    fn back_page(&mut self, core: &mut Core, vpn: u64) {
        let private = match self.policy {
            AllocPolicy::AlwaysRemote => None,
            AllocPolicy::LocalFirst => self.world.alloc_private_frame(self.node),
        };
        let frame = match private {
            Some(f) => f,
            None => self.zones.next_frame(&mut self.world, core),
        };
        core.pt.map(vpn, frame);
    }

    #[inline]
    fn touch(&mut self, core: &mut Core, _vpn: u64, phys: u64, write: bool) -> bool {
        if self.cacheable {
            return false;
        }
        let Some(home) = self.home_of(phys) else {
            return false;
        };
        // Uncached I/O-space access: every load/store is a transaction of
        // the access size (8 B), no cache involved.
        if write {
            self.remote_write(core, phys, home, 8);
        } else {
            self.remote_read(core, phys, home, 8);
        }
        true
    }

    fn fill(&mut self, core: &mut Core, phys: u64, missed: bool, victims: &[u64]) {
        // Victims displaced out of the hierarchy go home first: the single
        // RMC slot serializes remote write-backs before the demand fetch.
        for &victim in victims {
            self.write_home(core, victim);
        }
        if !missed {
            return;
        }
        let bytes = core.cache.line_bytes();
        match self.home_of(phys) {
            None => core.clock = self.world.local_access(core.clock, self.node, phys, bytes),
            Some(home) => self.fetch_remote_line(core, phys & !(bytes as u64 - 1), home, bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemSpace;
    use cohfree_mem::{CacheConfig, CacheHierarchy, Level};
    use cohfree_sim::{SimDuration, SimTime};

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn space() -> RemoteMemorySpace {
        RemoteMemorySpace::new(ClusterConfig::prototype(), n(1), AllocPolicy::AlwaysRemote)
    }

    #[test]
    fn data_round_trips_through_remote_memory() {
        let mut m = space();
        let va = m.alloc(1 << 20);
        assert!(m.borrowed_bytes() > 0, "allocation reserved remote memory");
        m.write_u64(va + 4096, 1234);
        assert_eq!(m.read_u64(va + 4096), 1234);
        assert_eq!(m.read_u64(va), 0);
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn wild_access_panics() {
        let mut m = space();
        let va = m.alloc(4096);
        m.read_u64(va + 8192);
    }

    #[test]
    fn remote_miss_latency_exceeds_microsecond_class() {
        let mut m = space();
        let va = m.alloc(1 << 16);
        let t0 = m.now();
        m.read_u64(va);
        let miss = m.now().since(t0);
        assert!(miss > SimDuration::ns(800), "remote miss {miss} too fast");
        let t1 = m.now();
        m.read_u64(va);
        assert_eq!(m.now().since(t1), ClusterConfig::prototype().os.cache_hit);
        assert_eq!(m.stats().remote_reads, 1);
        assert_eq!(m.stats().cache_hits, 1);
    }

    #[test]
    fn one_zone_serves_many_allocations() {
        let mut m = space();
        for _ in 0..16 {
            m.alloc(64 << 10);
        }
        assert_eq!(m.stats().reservations, 1, "zone should amortize");
        assert_eq!(m.stats().allocations, 16);
    }

    #[test]
    fn local_first_uses_private_memory() {
        let mut cfg = ClusterConfig::prototype();
        cfg.private_bytes = 1 << 20; // tiny private region
        cfg.pool_bytes = 8 << 30;
        let mut m = RemoteMemorySpace::with_options(
            cfg,
            n(1),
            AllocPolicy::LocalFirst,
            RemoteOptions::default(),
        );
        let va = m.alloc(512 << 10); // fits private
        m.write_u64(va, 7);
        assert_eq!(m.stats().reservations, 0);
        // Exceed the private region: spills to remote.
        m.alloc(2 << 20);
        assert_eq!(m.stats().reservations, 1);
    }

    #[test]
    fn explicit_servers_round_robin() {
        let opts = RemoteOptions {
            zone_frames: 256,
            servers: Some(vec![n(2), n(5)]),
            ..RemoteOptions::default()
        };
        let mut m = RemoteMemorySpace::with_options(
            ClusterConfig::prototype(),
            n(1),
            AllocPolicy::AlwaysRemote,
            opts,
        );
        m.alloc(3 * 256 * 4096); // three zones
        let lenders = m.world().region(n(1)).lenders();
        assert_eq!(lenders, vec![n(2), n(5)]);
        assert_eq!(m.stats().reservations, 3);
    }

    #[test]
    fn dirty_victims_write_back_remotely() {
        // A cache-thrashing write pattern must generate remote writes.
        let cfg = {
            let mut c = ClusterConfig::prototype();
            c.cache.sets = 4;
            c.cache.ways = 2; // 512 B cache
            c
        };
        let mut m = RemoteMemorySpace::with_options(
            cfg,
            n(1),
            AllocPolicy::AlwaysRemote,
            RemoteOptions::default(),
        );
        let va = m.alloc(1 << 20);
        for i in 0..64 {
            m.write_u64(va + i * 4096, i);
        }
        assert!(m.stats().remote_writes > 0, "expected dirty writebacks");
    }

    #[test]
    fn flush_cache_pushes_dirty_lines_home() {
        let mut m = space();
        let va = m.alloc(4096);
        m.write_u64(va, 1);
        let before = m.stats().remote_writes;
        m.flush_cache();
        assert_eq!(m.stats().remote_writes, before + 1);
        // After the flush the next read misses again.
        let misses = m.stats().cache_misses;
        m.read_u64(va);
        assert_eq!(m.stats().cache_misses, misses + 1);
    }

    #[test]
    fn uncacheable_mode_hits_the_fabric_every_time() {
        let opts = RemoteOptions {
            cacheable: false,
            ..RemoteOptions::default()
        };
        let mut m = RemoteMemorySpace::with_options(
            ClusterConfig::prototype(),
            n(1),
            AllocPolicy::AlwaysRemote,
            opts,
        );
        let va = m.alloc(4096);
        m.read_u64(va);
        m.read_u64(va);
        m.read_u64(va);
        assert_eq!(m.stats().remote_reads, 3, "no caching in UC mode");
        assert_eq!(m.stats().cache_hits, 0);
    }

    #[test]
    fn posted_writes_accelerate_write_heavy_patterns() {
        let run = |posted: bool| {
            let cfg = {
                let mut c = ClusterConfig::prototype();
                c.cache.sets = 4;
                c.cache.ways = 2; // tiny cache: writes spill constantly
                c
            };
            let mut m = RemoteMemorySpace::with_options(
                cfg,
                n(1),
                AllocPolicy::AlwaysRemote,
                RemoteOptions {
                    posted_writes: posted,
                    ..RemoteOptions::default()
                },
            );
            let va = m.alloc(1 << 20);
            for i in 0..2_000u64 {
                m.write_u64(va + (i * 4096) % (1 << 20), i);
            }
            m.quiesce();
            (m.now().since(SimTime::ZERO), m.stats().remote_writes)
        };
        let (blocking, wb_b) = run(false);
        let (posted, wb_p) = run(true);
        assert_eq!(wb_b, wb_p, "same write-back traffic either way");
        assert!(
            posted.as_ns_f64() < blocking.as_ns_f64() * 0.8,
            "posted {posted} should beat blocking {blocking}"
        );
    }

    #[test]
    fn posted_writes_preserve_functional_behaviour() {
        let mut m = RemoteMemorySpace::with_options(
            ClusterConfig::prototype(),
            n(1),
            AllocPolicy::AlwaysRemote,
            RemoteOptions {
                posted_writes: true,
                ..RemoteOptions::default()
            },
        );
        let va = m.alloc(1 << 20);
        for i in 0..1_000u64 {
            m.write_u64(va + i * 64, i * 3);
        }
        m.flush_cache();
        m.quiesce();
        for i in 0..1_000u64 {
            assert_eq!(m.read_u64(va + i * 64), i * 3);
        }
    }

    #[test]
    fn prefetcher_accelerates_sequential_scans() {
        let mk = |pf: bool| {
            let opts = RemoteOptions {
                prefetch: pf,
                ..RemoteOptions::default()
            };
            let mut m = RemoteMemorySpace::with_options(
                ClusterConfig::prototype(),
                n(1),
                AllocPolicy::AlwaysRemote,
                opts,
            );
            let va = m.alloc(1 << 20);
            let mut buf = [0u8; 8];
            for i in 0..4096u64 {
                m.read(va + i * 64, &mut buf); // line-stride scan
            }
            m.now().since(SimTime::ZERO)
        };
        let base = mk(false);
        let with_pf = mk(true);
        assert!(
            with_pf.as_ns_f64() < base.as_ns_f64() * 0.8,
            "prefetching should cut sequential scan time: {with_pf} vs {base}"
        );
    }

    #[test]
    fn prefetcher_follows_the_cache_line_size() {
        // Regression: the prefetcher kept 64-byte lines of its own, so on
        // a 128-byte-line cache consecutive misses skipped one of its lines
        // and a sequential scan never trained a stream.
        let mut cfg = ClusterConfig::prototype();
        cfg.cache.line_bytes = 128;
        let opts = RemoteOptions {
            prefetch: true,
            ..RemoteOptions::default()
        };
        let mut m = RemoteMemorySpace::with_options(cfg, n(1), AllocPolicy::AlwaysRemote, opts);
        let va = m.alloc(1 << 20);
        for i in 0..(1 << 20) / 8 {
            m.read_u64(va + i * 8);
        }
        let s = m.stats();
        assert!(
            s.prefetch_hits > 0,
            "no prefetch hit in {} misses",
            s.cache_misses
        );
    }

    #[test]
    fn write_back_displaced_on_an_l2_hit_goes_home() {
        // L1: 1 set x 2 ways; L2: 1 set x 3 ways. In the last read, the
        // L1's dirty victim (line 0) displaces dirty line 64 out of the L2,
        // and the read itself hits the L2.
        let mut cfg = ClusterConfig::prototype();
        cfg.l1 = Some(CacheConfig {
            line_bytes: 64,
            sets: 1,
            ways: 2,
        });
        cfg.cache = CacheConfig {
            line_bytes: 64,
            sets: 1,
            ways: 3,
        };
        let seq = [
            (0, true),
            (64, true),
            (0, true),
            (128, false),
            (0, true),
            (192, false),
            (128, false),
        ];
        let mut h = CacheHierarchy::new(cfg.l1, cfg.cache);
        let outs: Vec<_> = seq.iter().map(|&(a, w)| h.access(a, w)).collect();
        let last = outs.last().expect("non-empty");
        assert_eq!(last.level, Level::L2);
        assert_eq!(*last.memory_writebacks, [64]);
        let spilled: usize = outs.iter().map(|o| o.memory_writebacks.len()).sum();
        assert_eq!(spilled, 2);

        let mut m = RemoteMemorySpace::new(cfg, n(1), AllocPolicy::AlwaysRemote);
        let va = m.alloc(4096);
        for (off, write) in seq {
            if write {
                m.write_u64(va + off, off);
            } else {
                m.read_u64(va + off);
            }
        }
        assert_eq!(m.stats().remote_writes, spilled as u64);
    }

    #[test]
    #[should_panic(expected = "`servers` is an empty list")]
    fn empty_server_list_is_rejected() {
        let opts = RemoteOptions {
            servers: Some(vec![]),
            ..RemoteOptions::default()
        };
        RemoteMemorySpace::with_options(
            ClusterConfig::prototype(),
            n(1),
            AllocPolicy::AlwaysRemote,
            opts,
        );
    }
}
